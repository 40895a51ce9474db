//! Mini-batch training with validation-based early stopping (§VII-C).
//!
//! One gradient step averages the Eq 21 loss over `batch_size` target slots
//! (each slot traces its own tape; gradients accumulate in the shared
//! parameter cells, which is mathematically identical to a batched tape).
//! After each epoch the validation loss decides early stopping, and the best
//! parameter snapshot is restored at the end — the standard protocol the
//! paper's "set hyperparameters on the validation set" implies.

use crate::checkpoint::{
    fingerprint, split_fingerprint, CheckpointError, GraphTopology, RunState, TrainCheckpoint,
};
use crate::compiled::TrainingPlan;
use crate::config::StgnnConfig;
use crate::model::{ModelInputs, StgnnDjd};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use stgnn_data::dataset::{BikeDataset, Split};
use stgnn_data::error::{Error, Result};
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::optim::{Adam, Optimizer};
use stgnn_tensor::plan::PlanExec;
use stgnn_tensor::pool;
use stgnn_tensor::Tensor;

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually run (≤ configured epochs under early stopping).
    pub epochs_run: usize,
    /// Best validation loss seen.
    pub best_val_loss: f32,
    /// Mean training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch.
    pub val_losses: Vec<f32>,
    /// The pre-execution validation of the compiled training tape, run
    /// before epoch 0 (shape inference, gradient-path reachability,
    /// NaN-risk, FLOP estimates). Always clean here — a `Deny` finding
    /// aborts training instead.
    pub tape: stgnn_analyze::Report,
    /// Whether training replayed a compiled plan. Always true: every
    /// configuration compiles, and training has no other executor.
    pub used_compiled_plan: bool,
    /// Tensor-pool misses per optimizer step over the final epoch's batch
    /// loop — fresh heap allocations the buffer pool could not serve. The
    /// compiled-plan path reaches 0.0 once warm (validation sweeps are
    /// excluded from the window).
    pub allocs_per_step: f64,
    /// Whether this run picked up from a [`TrainCheckpoint`] instead of
    /// starting fresh. The loss histories then include the pre-crash epochs.
    pub resumed: bool,
    /// Checkpoints written successfully during this run.
    pub checkpoint_writes: usize,
    /// Checkpoint writes that failed. A failed write never aborts training:
    /// the atomic writer leaves the previous checkpoint intact and the run
    /// continues, so the only loss is recovery granularity.
    pub checkpoint_failures: usize,
}

/// Cap on validation slots per evaluation (validation is forward-only but
/// still costs a full graph trace per slot).
const MAX_VAL_SLOTS: usize = 48;

/// Trains an [`StgnnDjd`] on a [`BikeDataset`].
pub struct Trainer {
    config: StgnnConfig,
    /// The path a [`TrainCheckpoint`] is written to (atomically), and the
    /// batches between writes; `None` writes none.
    checkpoint: Option<(PathBuf, usize)>,
}

impl Trainer {
    /// A trainer with the model's own configuration.
    pub fn new(config: StgnnConfig) -> Self {
        Trainer {
            config,
            checkpoint: None,
        }
    }

    /// Enables crash-safe checkpointing: every `every_batches` optimizer
    /// steps, the full training state — parameters, Adam moments, both RNG
    /// streams, the epoch/batch cursor and the early-stopping state — is
    /// written atomically to `path`. After a crash, [`Self::resume_from`]
    /// continues the run bit-identically to one that never stopped.
    pub fn with_checkpointing(mut self, path: impl Into<PathBuf>, every_batches: usize) -> Self {
        self.checkpoint = Some((path.into(), every_batches.max(1)));
        self
    }

    /// Runs training to completion (or early stop), leaving the model with
    /// its best-validation parameters.
    pub fn train(&self, model: &mut StgnnDjd, data: &BikeDataset) -> Result<TrainReport> {
        self.run(model, data, None)
    }

    /// Resumes a run from a checkpoint written by [`Self::with_checkpointing`].
    ///
    /// The file is fully validated first — truncation, checksum mismatch,
    /// version skew and structural damage are all typed
    /// [`CheckpointError`]s (surfaced as [`Error::InvalidConfig`] /
    /// [`Error::Io`]), never a panic and never a partial load. A checkpoint
    /// from a different configuration or model architecture is rejected as
    /// incompatible. On success the run continues exactly where it stopped
    /// and the result is bit-identical to an uninterrupted run.
    pub fn resume_from(
        &self,
        path: impl AsRef<Path>,
        model: &mut StgnnDjd,
        data: &BikeDataset,
    ) -> Result<TrainReport> {
        let ckpt = TrainCheckpoint::load(path)?;
        self.run(model, data, Some(ckpt))
    }

    /// The training loop, optionally entered mid-run from a checkpoint.
    fn run(
        &self,
        model: &mut StgnnDjd,
        data: &BikeDataset,
        resume: Option<TrainCheckpoint>,
    ) -> Result<TrainReport> {
        model.check_compatible(data)?;
        let horizon = self.config.horizon;
        let max_slot = data.flows().num_slots().saturating_sub(horizon);
        let train_slots: Vec<usize> = data
            .slots(Split::Train)
            .into_iter()
            .filter(|&t| t <= max_slot)
            .collect();
        if train_slots.is_empty() {
            return Err(Error::InvalidConfig("no valid training slots".into()));
        }
        // Fail fast, before epoch 0: compiling the plan every step replays
        // traces one probe training tape and statically validates it, and
        // a `Deny` finding refuses the run. A disconnected parameter or
        // NaN-risk op would otherwise surface epochs later as a
        // silently-frozen weight or a NaN loss.
        let probe_slot = *train_slots.first().expect("checked non-empty above");
        let train_plan = model
            .compile_training_plan(data, probe_slot)?
            .expect("every configuration compiles to a training plan");
        let val_slots = {
            let all: Vec<usize> = data
                .slots(Split::Val)
                .into_iter()
                .filter(|&t| t <= max_slot)
                .collect();
            subsample(&all, MAX_VAL_SLOTS)
        };
        // One replay executor per batch lane, reused across every batch and
        // epoch — this is what makes the steady state allocation-free.
        let mut lanes: Vec<PlanExec> = Vec::new();

        let mut opt = Adam::new(self.config.learning_rate).with_clip(5.0);
        let mut state = RunState {
            epoch: 0,
            next_batch: 0,
            epoch_loss: 0.0,
            epoch_slots: Vec::new(),
            shuffle_rng: StdRng::seed_from_u64(self.config.seed.wrapping_add(1)),
            train_losses: Vec::new(),
            val_losses: Vec::new(),
            best_val_loss: f32::INFINITY,
            epochs_since_best: 0,
            best_snapshot: None,
        };
        let resumed = resume.is_some();
        // Run identity hashes every flow matrix of the dataset, so only a
        // run that writes or reads a checkpoint computes it.
        let run_fingerprint = (self.checkpoint.is_some() || resumed).then(|| {
            fingerprint(
                &self.config,
                model.n_stations(),
                model.params().len(),
                &GraphTopology::of(data),
            )
        });

        // Restore checkpointed state *after* the probe/compile above: the
        // probe traces a training-mode forward pass on the freshly-built
        // model exactly as the original run did, so overwriting params and
        // both RNG streams here puts every stream at precisely the state it
        // had when the checkpoint was taken.
        if let (Some(ckpt), Some(ours)) = (resume, &run_fingerprint) {
            if ckpt.fingerprint != *ours {
                // Same configuration but a different graph section means the
                // FCG/PCG inputs were refreshed out from under the run —
                // surface that as the typed mismatch so callers can
                // warm-start instead of resuming onto stale Adam moments.
                let (ckpt_base, ckpt_graph) = split_fingerprint(&ckpt.fingerprint);
                let (run_base, run_graph) = split_fingerprint(ours);
                if ckpt_base == run_base && ckpt_graph != run_graph {
                    return Err(CheckpointError::GraphMismatch {
                        expected: ckpt_graph.trim_start().to_string(),
                        found: run_graph.trim_start().to_string(),
                    }
                    .into());
                }
                return Err(CheckpointError::Incompatible(format!(
                    "checkpoint was taken from a different run:\n  theirs: {}\n  ours:   {}",
                    ckpt.fingerprint, ours
                ))
                .into());
            }
            check_restorable(&ckpt, model, &train_slots)?;
            for (p, (_, t)) in model.params().params().iter().zip(ckpt.params) {
                p.set_value(t);
            }
            opt.restore(ckpt.adam);
            *model.rng_cell().borrow_mut() = ckpt.dropout_rng;
            state = ckpt.state;
        }

        let mut allocs_per_step = 0.0;
        let (mut checkpoint_writes, mut checkpoint_failures) = (0, 0);
        let mut batches_since_checkpoint = 0usize;
        while state.epoch < self.config.epochs {
            // A resumed run re-enters its epoch with the stored slot order:
            // the shuffle RNG was checkpointed *after* that epoch's shuffle.
            if state.epoch_slots.is_empty() && state.next_batch == 0 {
                state.epoch_slots = train_slots.clone();
                state.epoch_slots.shuffle(&mut state.shuffle_rng);
                if let Some(cap) = self.config.max_batches_per_epoch {
                    // Saturate: callers use `Some(usize::MAX)` for "no cap".
                    state
                        .epoch_slots
                        .truncate(cap.saturating_mul(self.config.batch_size));
                }
            }
            let total_batches = state
                .epoch_slots
                .len()
                .div_ceil(self.config.batch_size.max(1));

            let mut local_batches = 0usize;
            let pool_before = pool::stats();
            while let Some(batch) = state
                .epoch_slots
                .chunks(self.config.batch_size)
                .nth(state.next_batch)
            {
                // The chaos suite's crash site: between optimizer steps, so
                // an unwinding panic never leaves a tape or RefCell borrow
                // live. An io-action fault aborts the run cleanly instead.
                stgnn_faults::failpoint!("trainer::step", io);
                model.params().zero_grads();
                let batch_loss = plan_batch(model, data, &train_plan, &mut lanes, batch)?;
                opt.step(model.params());
                state.epoch_loss += batch_loss as f64;
                state.next_batch += 1;
                local_batches += 1;
                batches_since_checkpoint += 1;
                if let (Some((path, every)), Some(fingerprint)) =
                    (&self.checkpoint, &run_fingerprint)
                {
                    if batches_since_checkpoint >= *every {
                        batches_since_checkpoint = 0;
                        let ckpt = TrainCheckpoint {
                            fingerprint: fingerprint.clone(),
                            state: state.clone(),
                            dropout_rng: model.rng_cell().borrow().clone(),
                            adam: opt.state(),
                            params: model
                                .params()
                                .params()
                                .iter()
                                .map(|p| (p.name().to_string(), p.value()))
                                .collect(),
                        };
                        // A failed write is counted, not fatal: atomic_write
                        // guarantees the previous checkpoint is still intact,
                        // so the run only loses recovery granularity.
                        match ckpt.save(path) {
                            Ok(()) => checkpoint_writes += 1,
                            Err(_) => checkpoint_failures += 1,
                        }
                    }
                }
            }
            // Pool misses per optimizer step, measured over just this
            // epoch's batch loop (validation below runs the eager tape and
            // is excluded). The last epoch's figure lands in the report.
            let pool_delta = pool::stats().since(&pool_before);
            allocs_per_step = pool_delta.misses as f64 / local_batches.max(1) as f64;
            // The epoch mean divides by the epoch's *full* batch count: on a
            // mid-epoch resume, `epoch_loss` already carries the pre-crash
            // batches' sum.
            let train_loss = (state.epoch_loss / total_batches.max(1) as f64) as f32;
            state.train_losses.push(train_loss);
            let val_loss = if val_slots.is_empty() {
                train_loss
            } else {
                self.mean_loss(model, data, &val_slots)
            };
            state.val_losses.push(val_loss);
            state.epoch += 1;
            state.next_batch = 0;
            state.epoch_loss = 0.0;
            state.epoch_slots.clear();

            if val_loss < state.best_val_loss {
                state.best_val_loss = val_loss;
                state.best_snapshot =
                    Some(model.params().params().iter().map(|p| p.value()).collect());
                state.epochs_since_best = 0;
            } else {
                state.epochs_since_best += 1;
                if state.epochs_since_best >= self.config.patience {
                    break;
                }
            }
        }

        if let Some(snapshot) = state.best_snapshot {
            for (p, v) in model.params().params().iter().zip(snapshot) {
                p.set_value(v);
            }
        }
        model.set_trained();
        Ok(TrainReport {
            epochs_run: state.val_losses.len(),
            best_val_loss: state.best_val_loss,
            train_losses: state.train_losses,
            val_losses: state.val_losses,
            tape: train_plan.tape().clone(),
            used_compiled_plan: true,
            allocs_per_step,
            resumed,
            checkpoint_writes,
            checkpoint_failures,
        })
    }

    /// Mean Eq 21 loss over `slots`, evaluation mode.
    pub fn mean_loss(&self, model: &StgnnDjd, data: &BikeDataset, slots: &[usize]) -> f32 {
        let mut total = 0.0f64;
        for &t in slots {
            let g = Graph::new();
            let inputs = ModelInputs::from_dataset(data, t);
            let out = model.forward(&g, &inputs, false);
            let (dt, st) = data
                .targets_horizon(t, self.config.horizon)
                .expect("mean_loss slots must leave room for the horizon");
            total += model.loss(&g, &out, &dt, &st).with_value(|v| v.scalar()) as f64;
        }
        (total / slots.len().max(1) as f64) as f32
    }
}

/// Checks, before anything is restored, that every tensor a checkpoint
/// carries fits the model being resumed: parameter names and shapes, one
/// Adam moment pair and (if present) one best-snapshot tensor per parameter
/// with that parameter's shape, and an epoch slot order drawn from the
/// training slots. A CRC-valid file can still disagree with the model on
/// any of these; each disagreement is [`CheckpointError::Incompatible`],
/// never a partial load or a panic on the first resumed step.
fn check_restorable(
    ckpt: &TrainCheckpoint,
    model: &StgnnDjd,
    train_slots: &[usize],
) -> std::result::Result<(), CheckpointError> {
    let params = model.params().params();
    let fits = |what: &str, tensors: Vec<&Tensor>| {
        if tensors.len() != params.len() {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint has {} {what} tensors, model has {} parameters",
                tensors.len(),
                params.len()
            )));
        }
        for (p, t) in params.iter().zip(tensors) {
            if p.value().shape() != t.shape() {
                return Err(CheckpointError::Incompatible(format!(
                    "{what} tensor for {:?} has shape {}, the parameter has {}",
                    p.name(),
                    t.shape(),
                    p.value().shape()
                )));
            }
        }
        Ok(())
    };
    fits("parameter", ckpt.params.iter().map(|(_, t)| t).collect())?;
    if let Some((p, (name, _))) = params
        .iter()
        .zip(&ckpt.params)
        .find(|(p, (name, _))| p.name() != name)
    {
        return Err(CheckpointError::Incompatible(format!(
            "parameter mismatch: model has {:?}, checkpoint has {name:?}",
            p.name()
        )));
    }
    fits("adam m", ckpt.adam.m.iter().collect())?;
    fits("adam v", ckpt.adam.v.iter().collect())?;
    if let Some(snapshot) = &ckpt.state.best_snapshot {
        fits("best snapshot", snapshot.iter().collect())?;
    }
    if let Some(t) = ckpt
        .state
        .epoch_slots
        .iter()
        .find(|t| train_slots.binary_search(t).is_err())
    {
        return Err(CheckpointError::Incompatible(format!(
            "epoch slot order names slot {t}, which is not a training slot"
        )));
    }
    Ok(())
}

/// One gradient batch, replayed through the compiled plan: Eq 21 over the
/// batch, `L = sqrt(mean_b (mse_d + mse_s))`. Each slot replays on its own
/// lane; the batch-level √ factors into a shared scalar `1/(2·B·L)` that
/// seeds each lane's backward sweep. Returns the batch loss (gradients
/// accumulate in the model's parameter cells). Bit-identical to tracing
/// each slot eagerly and calling `sq.mul_scalar(1/(2·B·L)).backward()`
/// (same kernels, sweep order, RNG draws and parameter deposit order), but
/// with every intermediate buffer recycled through the tensor pool.
/// `lanes[i]` carries slot `i`'s forward state to its backward sweep.
fn plan_batch(
    model: &StgnnDjd,
    data: &BikeDataset,
    plan: &TrainingPlan,
    lanes: &mut Vec<PlanExec>,
    batch: &[usize],
) -> Result<f32> {
    while lanes.len() < batch.len() {
        lanes.push(plan.executor());
    }
    let mut radicand = 0.0f64;
    for (lane, &t) in batch.iter().enumerate() {
        let sq = model.plan_step_forward(plan, &mut lanes[lane], data, t)?;
        radicand += sq as f64 / batch.len() as f64;
    }
    let batch_loss = (radicand.max(0.0)).sqrt() as f32;
    let grad_scale = 1.0 / (2.0 * batch.len() as f32 * batch_loss.max(1e-6));
    for lane in lanes.iter_mut().take(batch.len()) {
        model.plan_step_backward(plan, lane, grad_scale)?;
    }
    Ok(batch_loss)
}

/// Evenly subsamples `slots` down to at most `cap` entries.
fn subsample(slots: &[usize], cap: usize) -> Vec<usize> {
    if slots.len() <= cap {
        return slots.to_vec();
    }
    let stride = slots.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| slots[(i as f64 * stride) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_data::dataset::DatasetConfig;
    use stgnn_data::predictor::{evaluate, DemandSupplyPredictor};
    use stgnn_data::synthetic::{CityConfig, SyntheticCity};

    fn dataset(seed: u64) -> BikeDataset {
        let city = SyntheticCity::generate(CityConfig::test_tiny(seed));
        BikeDataset::from_city(&city, DatasetConfig::small(6, 2)).unwrap()
    }

    #[test]
    fn subsample_caps_and_preserves_order() {
        let slots: Vec<usize> = (0..100).collect();
        let s = subsample(&slots, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(subsample(&slots, 200), slots);
    }

    /// Serialises a test against the fault-injecting tests in this binary:
    /// the failpoint registry is process-global, so any test whose code path
    /// crosses an instrumented site (`trainer::step`, `checkpoint::write`)
    /// must hold the guard — an empty plan injects nothing.
    fn no_faults() -> stgnn_faults::ScopedPlan {
        stgnn_faults::scoped(stgnn_faults::FaultPlan::new())
    }

    #[test]
    fn training_reduces_loss() {
        let _quiet = no_faults();
        let data = dataset(43);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 6;
        config.max_batches_per_epoch = Some(8);
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let report = Trainer::new(config).train(&mut model, &data).unwrap();
        assert!(report.epochs_run >= 2);
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} → {last}");
        assert!(model.is_trained());
        // The pre-epoch-0 static validation rode along in the report.
        assert!(report.tape.is_clean(), "{}", report.tape.render());
        assert_eq!(report.tape.params, model.params().len());
        assert!(report.tape.flops > 0);
    }

    /// A checkpoint with non-finite weights must be refused by the static
    /// validator *before* epoch 0, not surface as a NaN loss epochs later.
    #[test]
    fn non_finite_weights_fail_fast_before_epoch_0() {
        let data = dataset(47);
        let config = StgnnConfig::test_tiny(6, 2);
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let p = &model.params().params()[0];
        p.set_value(p.value().mul_scalar(f32::INFINITY));
        let err = Trainer::new(config).train(&mut model, &data).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("tape validation failed before epoch 0"),
            "{msg}"
        );
        assert!(msg.contains("A007"), "{msg}");
        assert!(!model.is_trained());
    }

    #[test]
    fn early_stopping_respects_patience() {
        let _quiet = no_faults();
        let data = dataset(44);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 50;
        config.patience = 1;
        config.learning_rate = 10.0; // diverges ⇒ validation worsens fast
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let report = Trainer::new(config).train(&mut model, &data).unwrap();
        assert!(
            report.epochs_run < 50,
            "never stopped: {} epochs",
            report.epochs_run
        );
    }

    #[test]
    fn best_snapshot_is_restored() {
        let _quiet = no_faults();
        let data = dataset(45);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 5;
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let trainer = Trainer::new(config);
        let report = trainer.train(&mut model, &data).unwrap();
        // The restored parameters must reproduce the best validation loss.
        let val = data.slots(Split::Val);
        let val = subsample(&val, 48);
        let loss_now = trainer.mean_loss(&model, &data, &val);
        assert!(
            (loss_now - report.best_val_loss).abs() < 1e-4,
            "restored loss {loss_now} ≠ best {}",
            report.best_val_loss
        );
    }

    fn ckpt_path(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stgnn-trainer-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("train.ckpt")
    }

    /// Gradient bits for every parameter after one deterministic training
    /// batch — the strictest observable the acceptance check names.
    fn grad_bits(model: &StgnnDjd, data: &BikeDataset, batch: &[usize]) -> Vec<Vec<u32>> {
        model.params().zero_grads();
        let plan = model
            .compile_training_plan(data, batch[0])
            .unwrap()
            .unwrap();
        plan_batch(model, data, &plan, &mut Vec::new(), batch).unwrap();
        model
            .params()
            .params()
            .iter()
            .map(|p| p.with_grad(|g| g.data().iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    /// The tentpole acceptance test: a run that crashes mid-epoch and
    /// resumes from its checkpoint must be **bit-identical** to the
    /// uninterrupted run — every epoch loss, the final parameters, and
    /// every parameter gradient of a post-training probe batch.
    #[test]
    fn crash_resume_is_bit_identical_to_uninterrupted_run() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};

        let data = dataset(48);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 3;
        config.max_batches_per_epoch = Some(4);
        config.dropout = 0.1; // a live dropout stream is part of the claim
        let probe: Vec<usize> = data.slots(Split::Train).into_iter().take(4).collect();

        // Reference: the uninterrupted run.
        let mut gold = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let gold_report = {
            let _quiet = scoped(FaultPlan::new());
            Trainer::new(config.clone())
                .train(&mut gold, &data)
                .unwrap()
        };

        // Crash run: same trainer but checkpointing every 3 batches, with an
        // injected io fault killing the 8th batch step — mid-epoch 1, two
        // batches past the last checkpoint.
        let path = ckpt_path("bitident");
        let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 3);
        let mut crashed = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        {
            let _chaos =
                scoped(FaultPlan::new().with("trainer::step", FaultSpec::io(Trigger::OnHit(8))));
            let err = trainer.train(&mut crashed, &data).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "unexpected crash error: {err}");
        }
        assert!(path.exists(), "no checkpoint was written before the crash");

        // Resume into a *fresh* process-equivalent: a newly built model.
        let mut resumed = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let report = {
            let _quiet = scoped(FaultPlan::new());
            trainer.resume_from(&path, &mut resumed, &data).unwrap()
        };
        assert!(report.resumed);

        // Named invariant: RESUME-BIT-IDENTITY. Full loss histories...
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&report.train_losses), bits(&gold_report.train_losses));
        assert_eq!(bits(&report.val_losses), bits(&gold_report.val_losses));
        assert_eq!(
            report.best_val_loss.to_bits(),
            gold_report.best_val_loss.to_bits()
        );
        assert_eq!(report.epochs_run, gold_report.epochs_run);
        // ...the final (best-snapshot-restored) parameters...
        for (a, b) in gold.params().params().iter().zip(resumed.params().params()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(
                a.value()
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                b.value()
                    .data()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "parameter {} diverged",
                a.name()
            );
        }
        // ...and every gradient of a shared probe batch.
        let (gg, rg) = {
            let _quiet = scoped(FaultPlan::new());
            (
                grad_bits(&gold, &data, &probe),
                grad_bits(&resumed, &data, &probe),
            )
        };
        assert_eq!(gg, rg, "post-training gradients diverged");
    }

    #[test]
    fn resume_rejects_incompatible_checkpoint() {
        use stgnn_faults::{scoped, FaultPlan};
        let _quiet = scoped(FaultPlan::new());

        let data = dataset(49);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 1;
        config.max_batches_per_epoch = Some(2);
        let path = ckpt_path("incompat");
        let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 1);
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        trainer.train(&mut model, &data).unwrap();
        assert!(path.exists());

        // Same architecture, different seed ⇒ different trajectory ⇒ the
        // fingerprint must refuse the resume.
        let mut other = config.clone();
        other.seed = config.seed + 1;
        let mut fresh = StgnnDjd::new(other.clone(), data.n_stations()).unwrap();
        let err = Trainer::new(other)
            .resume_from(&path, &mut fresh, &data)
            .unwrap_err();
        assert!(err.to_string().contains("incompatible checkpoint"), "{err}");
    }

    /// Named invariant: GRAPH-REFRESH-REFUSES-RESUME. The same
    /// configuration trained against refreshed FCG/PCG inputs must not
    /// resume from a pre-refresh checkpoint — the Adam moments were
    /// accumulated against the old edges — and the refusal must be the
    /// *typed* graph mismatch so the online loop can warm-start instead.
    #[test]
    fn resume_after_graph_refresh_is_a_typed_graph_mismatch() {
        use stgnn_faults::{scoped, FaultPlan};
        let _quiet = scoped(FaultPlan::new());

        let data = dataset(51);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 1;
        config.max_batches_per_epoch = Some(2);
        let path = ckpt_path("graphmismatch");
        let trainer = Trainer::new(config.clone()).with_checkpointing(&path, 1);
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        trainer.train(&mut model, &data).unwrap();
        assert!(path.exists());

        // Identical config and station count, but a different trip stream ⇒
        // different flow matrices ⇒ different FCG/PCG topology hashes.
        let refreshed = dataset(52);
        assert_eq!(refreshed.n_stations(), data.n_stations());
        let mut fresh = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let err = trainer
            .resume_from(&path, &mut fresh, &refreshed)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("graph topology mismatch"), "{msg}");
        assert!(msg.contains("fcg_topo="), "{msg}");
        assert!(
            !msg.contains("different run"),
            "graph refresh must not degrade to the generic mismatch: {msg}"
        );

        // Unchanged data still resumes: identity is stable, not flapping.
        let mut same = StgnnDjd::new(config, data.n_stations()).unwrap();
        let report = trainer.resume_from(&path, &mut same, &data).unwrap();
        assert!(report.resumed);
    }

    /// Named invariant: CHECKPOINT-FAILURE-IS-NON-FATAL. A failing
    /// checkpoint write is counted and the run finishes normally.
    #[test]
    fn checkpoint_write_failure_does_not_abort_training() {
        use stgnn_faults::{scoped, FaultPlan, FaultSpec, Trigger};
        let _chaos =
            scoped(FaultPlan::new().with("checkpoint::write", FaultSpec::io(Trigger::EveryHit)));

        let data = dataset(50);
        let mut config = StgnnConfig::test_tiny(6, 2);
        config.epochs = 2;
        config.max_batches_per_epoch = Some(3);
        let path = ckpt_path("wfail");
        let _ = std::fs::remove_file(&path);
        let mut model = StgnnDjd::new(config.clone(), data.n_stations()).unwrap();
        let report = Trainer::new(config)
            .with_checkpointing(&path, 1)
            .train(&mut model, &data)
            .unwrap();
        assert!(model.is_trained());
        assert_eq!(report.checkpoint_writes, 0);
        assert!(
            report.checkpoint_failures >= 6,
            "{}",
            report.checkpoint_failures
        );
        assert!(
            !path.exists(),
            "a failed atomic write must not leave a file"
        );
    }

    #[test]
    fn trained_model_beats_predicting_zero() {
        let _quiet = no_faults();
        let data = dataset(46);
        let mut model = StgnnDjd::new(StgnnConfig::test_tiny(6, 2), data.n_stations()).unwrap();
        model.fit(&data).unwrap();
        let slots = data.slots(Split::Test);
        let row = evaluate(&model, &data, &slots);
        // "Predict 0 bikes" has RMSE ≈ RMS of the true counts; the model
        // must do clearly better.
        let mut zero_acc = stgnn_data::MetricsAccumulator::new();
        for &t in &slots {
            let (d, s) = data.raw_targets(t);
            zero_acc.add_slot(&vec![0.0; d.len()], &vec![0.0; s.len()], d, s);
        }
        let zero = zero_acc.finalize();
        assert!(
            row.rmse_mean < zero.rmse_mean,
            "model {} not better than zero {}",
            row.rmse_mean,
            zero.rmse_mean
        );
    }
}
