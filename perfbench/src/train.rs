//! `train-paper`: §VII-I at paper scale — training throughput of
//! `Trainer::train`, alternating with the per-slot prediction time of the
//! trained model for every station.
//!
//! City `chicago_like` (64 stations, 28 days of 96 slots), dataset and
//! model at the paper's settings (k = 96, d = 7, 2 FCG / 3 PCG layers, 4
//! heads, batch 32). Each `Trainer::train` call trains a fresh model for a
//! fixed batch budget with early stopping off; compile, tape validation
//! and validation sweeps are inside the timed call, because users pay for
//! them. After each call, a block of predictions replays that model's
//! compiled inference plan over the test split, closed loop, one slot per
//! call.

use crate::stats;
use crate::trace::Tracer;
use crate::{timed_setup, Args, Outcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use stgnn_core::model::ModelInputs;
use stgnn_core::{StgnnConfig, StgnnDjd, Trainer};
use stgnn_data::dataset::{BikeDataset, DatasetConfig, Split};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::optim::{Adam, Optimizer};
use stgnn_tensor::plan::PlanExec;
use stgnn_tensor::pool;

/// Epochs per `Trainer::train` call.
const EPOCHS: usize = 2;
/// Batches per epoch (of 32 slots each).
const BATCHES: usize = 2;
/// The trainer's default validation cap, restated for the replay.
pub const MAX_VAL_SLOTS: usize = 48;
/// Rounds of one training call and one prediction block per run, at least
/// (the median needs a middle).
const MIN_ROUNDS: usize = 5;
/// Per-slot predictions per run, at least: enough for a p99.
const MIN_PREDICTIONS: usize = 1000;
/// Predictions after each training call: about a quarter of a round.
const PREDICTIONS_PER_ROUND: usize = MIN_PREDICTIONS / MIN_ROUNDS;
/// The serving latency limit (`LoadCurve::slo_ms`), applied to the
/// in-process prediction.
const SLO: Duration = Duration::from_millis(100);
/// Slots in the plan ≡ eager probe batch.
const PROBE_SLOTS: usize = 4;

struct Setup {
    data: BikeDataset,
    config: StgnnConfig,
}

impl Setup {
    fn build(args: &Args) -> Setup {
        let mut city = CityConfig::chicago_like();
        city.seed = args.stream(1);
        let city = SyntheticCity::generate(city);
        let data = BikeDataset::from_city(&city, DatasetConfig::paper()).expect("paper dataset");
        let mut config = StgnnConfig::paper();
        config.seed = args.stream(2);
        config.epochs = EPOCHS;
        config.max_batches_per_epoch = Some(BATCHES);
        // Early stopping off: patience outlasts the epoch budget.
        config.patience = EPOCHS + 1;
        stgnn_tensor::par::init();
        Setup { data, config }
    }

    fn model(&self) -> StgnnDjd {
        StgnnDjd::new(self.config.clone(), self.data.n_stations()).expect("paper model")
    }

    fn slots_per_call(&self) -> usize {
        EPOCHS * BATCHES * self.config.batch_size
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let (setup, setup_s) = timed_setup(|_| Setup::build(args));
    out.metric("setup_s", setup_s);
    probe_plan_matches_eager(&setup, &mut out);

    // Training calls and prediction blocks alternate over the whole run,
    // so both medians sample the same stretch of a host whose speed drifts
    // by several percent over tens of seconds.
    let run = Duration::from_secs_f64(args.seconds);
    let phase = Instant::now();
    let mut rates = Vec::new();
    let mut predictions = Predictions::default();
    let mut first_losses: Option<Vec<u32>> = None;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || phase.elapsed() < run {
        rounds += 1;
        let mut model = setup.model();
        out.attempted += 1;
        let t = Instant::now();
        let report = Trainer::new(setup.config.clone()).train(&mut model, &setup.data);
        let wall = t.elapsed().as_secs_f64();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("Trainer::train failed: {e}"));
                continue;
            }
        };
        predictions.block(&setup, &model, PREDICTIONS_PER_ROUND, &mut out);
        rates.push(setup.slots_per_call() as f64 / wall);
        let losses: Vec<u32> = report
            .train_losses
            .iter()
            .chain(&report.val_losses)
            .map(|l| l.to_bits())
            .collect();
        let finite = report
            .train_losses
            .iter()
            .chain(&report.val_losses)
            .all(|l| l.is_finite());
        out.check(finite, || format!("non-finite loss: {report:?}"));
        out.check(report.used_compiled_plan, || {
            "training fell back to the eager tape".into()
        });
        match &first_losses {
            None => first_losses = Some(losses),
            Some(first) => out.check(*first == losses, || {
                "the loss history differs between identical training calls".into()
            }),
        }
    }
    out.metric("work_per_s", stats::median(&rates));
    out.note(format!(
        "train_slots_per_s = {:.3} slots/s (median of Trainer::train calls of {} slots; q1/median/q3 {})",
        stats::median(&rates),
        setup.slots_per_call(),
        stats::spread(&rates)
    ));

    predictions.report(&mut out);
    out
}

/// §VII-I: every station for one slot, per call, from a trained model's
/// compiled inference plan, over the test split in order.
#[derive(Default)]
struct Predictions {
    times_ms: Vec<f64>,
    within_slo: usize,
    /// Predictions made so far; the next one's position in the test split.
    next: usize,
}

impl Predictions {
    /// Times `count` predictions from `model`; one in 97 must equal the
    /// eager forward.
    fn block(&mut self, setup: &Setup, model: &StgnnDjd, count: usize, out: &mut Outcome) {
        let data = &setup.data;
        let test = data.slots(Split::Test);
        let Some(plan) = model.compile_inference_plan(data, test[0]).ok().flatten() else {
            out.attempted += 1;
            out.check(false, || "the inference plan did not compile".into());
            return;
        };
        let mut exec = plan.executor();
        // The executor's first call allocates its buffers; a server pays
        // that once per worker, not per request.
        let _ = model.plan_predict_horizon(&plan, &mut exec, data, test[0]);
        for _ in 0..count {
            let (i, t) = (self.next, test[self.next % test.len()]);
            self.next += 1;
            out.attempted += 1;
            let start = Instant::now();
            let pred = model.plan_predict_horizon(&plan, &mut exec, data, t);
            let took = start.elapsed();
            self.times_ms.push(took.as_secs_f64() * 1e3);
            match pred {
                Ok(p) => {
                    if took <= SLO {
                        self.within_slo += 1;
                    }
                    if i % 97 == 0 {
                        let eager = model.predict_horizon(data, t);
                        out.check(p == eager, || format!("slot {t}: plan prediction ≠ eager"));
                    }
                }
                Err(e) => out.check(false, || format!("slot {t}: {e}")),
            }
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.metric("predict_p50_ms", stats::median(&self.times_ms));
        if let Some(t) = stats::tail(&self.times_ms, 0.99) {
            out.metric("predict_p99_ms", t.value);
            out.note(format!(
                "predict_p99_ms from {} in-process predictions, {} beyond it",
                t.samples, t.beyond
            ));
        }
        out.metric(
            "slo_met_ratio",
            self.within_slo as f64 / self.times_ms.len().max(1) as f64,
        );
    }
}

/// One probe batch, before anything is timed: the compiled plan's Eq 21
/// radicand and every parameter gradient equal the eager tape's, bit for
/// bit (two identically seeded models, so both draw the same dropout
/// masks).
fn probe_plan_matches_eager(setup: &Setup, out: &mut Outcome) {
    out.attempted += 1;
    let data = &setup.data;
    let batch: Vec<usize> = data
        .slots(Split::Train)
        .into_iter()
        .take(PROBE_SLOTS)
        .collect();
    let horizon = setup.config.horizon;
    let eager = setup.model();
    let planned = setup.model();

    eager.params().zero_grads();
    let mut eager_sq = Vec::new();
    let mut losses = Vec::new();
    for &t in &batch {
        let g = Graph::new();
        let out = eager.forward(&g, &ModelInputs::from_dataset(data, t), true);
        let (dt, st) = data.targets_horizon(t, horizon).expect("probe targets");
        let sq = eager.squared_loss(&g, &out, &dt, &st);
        eager_sq.push(sq.with_value(|v| v.scalar()));
        losses.push(sq);
    }
    let scale = grad_scale(&eager_sq);
    for sq in losses {
        sq.mul_scalar(scale).backward();
    }

    let Some(plan) = planned.compile_training_plan(data, batch[0]).ok().flatten() else {
        out.check(false, || "the training plan did not compile".into());
        return;
    };
    planned.params().zero_grads();
    let mut lanes: Vec<PlanExec> = batch.iter().map(|_| plan.executor()).collect();
    let mut plan_sq = Vec::new();
    for (lane, &t) in lanes.iter_mut().zip(&batch) {
        plan_sq.push(
            planned
                .plan_step_forward(&plan, lane, data, t)
                .expect("probe forward"),
        );
    }
    for lane in &mut lanes {
        planned
            .plan_step_backward(&plan, lane, grad_scale(&plan_sq))
            .expect("probe backward");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let same_radicand = bits(&eager_sq) == bits(&plan_sq);
    let grads = |m: &StgnnDjd| -> Vec<Vec<u32>> {
        m.params()
            .params()
            .iter()
            .map(|p| p.with_grad(|g| bits(g.data())))
            .collect()
    };
    let same_grads = grads(&eager) == grads(&planned);
    let finite = eager_sq.iter().all(|v| v.is_finite());
    out.check(same_radicand && same_grads && finite, || {
        format!(
            "probe batch: plan ≢ eager (radicand equal {same_radicand}, gradients equal \
             {same_grads}, finite {finite})"
        )
    });
}

/// The trainer's batch-RMSE chain factor for per-slot radicands.
fn grad_scale(slot_sq: &[f32]) -> f32 {
    let b = slot_sq.len();
    let radicand: f64 = slot_sq.iter().map(|&v| v as f64 / b as f64).sum();
    let batch_loss = radicand.max(0.0).sqrt() as f32;
    1.0 / (2.0 * b as f32 * batch_loss.max(1e-6))
}

/// Evenly subsamples `slots` down to `cap`, as the trainer does.
fn subsample(slots: &[usize], cap: usize) -> Vec<usize> {
    if slots.len() <= cap {
        return slots.to_vec();
    }
    let stride = slots.len() as f64 / cap as f64;
    (0..cap)
        .map(|i| slots[(i as f64 * stride) as usize])
        .collect()
}

/// What a training replay did.
pub struct Replay {
    pub slots: usize,
    /// Mean epoch training losses, as `TrainReport::train_losses`.
    pub train_losses: Vec<f32>,
    pub val_losses: Vec<f32>,
    pub pool_misses: u64,
    pub measured_steps: u64,
    /// Forward matmul FLOPs of one slot.
    pub gemm_flops: u64,
    /// Forward bytes of every other op on one slot's tape.
    pub sweep_bytes: u64,
}

/// Drives the public steps `Trainer::train` takes, in its order, each in a
/// span under `parent`: tape validation and compile; then per batch
/// `zero_grads`, `plan_step_forward` ×B, `plan_step_backward` ×B and
/// `Adam::step`; then `mean_loss` over the validation slots per epoch.
/// `window` is the separately measured `ModelInputs::from_dataset` time,
/// recorded as a child of each forward. Starting from an identically built
/// model, the losses equal the trainer's bit for bit.
pub fn replay_training(
    tr: &mut Tracer,
    parent: usize,
    model: &StgnnDjd,
    data: &BikeDataset,
    config: &StgnnConfig,
    window: Duration,
) -> Result<Replay, String> {
    let horizon = config.horizon;
    let max_slot = data.flows().num_slots().saturating_sub(horizon);
    let train_slots: Vec<usize> = data
        .slots(Split::Train)
        .into_iter()
        .filter(|&t| t <= max_slot)
        .collect();
    let probe = *train_slots.first().ok_or("no training slots")?;
    let tape = tr
        .time("analyze.tape", Some(parent), 0, || {
            model.validate_training_tape(data, probe)
        })
        .map_err(|e| e.to_string())?;
    let val_all: Vec<usize> = data
        .slots(Split::Val)
        .into_iter()
        .filter(|&t| t <= max_slot)
        .collect();
    let val_slots = subsample(&val_all, MAX_VAL_SLOTS);
    let plan = tr
        .time("plan.compile", Some(parent), 0, || {
            model.compile_training_plan(data, probe)
        })
        .map_err(|e| e.to_string())?
        .ok_or("configuration does not compile to a plan")?;
    let mut lanes: Vec<PlanExec> = Vec::new();
    let mut shuffle_rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut opt = Adam::new(config.learning_rate).with_clip(5.0);
    let trainer = Trainer::new(config.clone());
    let mut replay = Replay {
        slots: 0,
        train_losses: Vec::new(),
        val_losses: Vec::new(),
        pool_misses: 0,
        measured_steps: 0,
        gemm_flops: tape
            .by_op
            .iter()
            .filter(|c| c.op == "matmul")
            .map(|c| c.flops)
            .sum(),
        sweep_bytes: tape
            .by_op
            .iter()
            .filter(|c| c.op != "matmul")
            .map(|c| c.bytes)
            .sum(),
    };
    let mut step = 0u64;
    for _epoch in 0..config.epochs {
        let mut slots = train_slots.clone();
        slots.shuffle(&mut shuffle_rng);
        if let Some(cap) = config.max_batches_per_epoch {
            slots.truncate(cap.saturating_mul(config.batch_size));
        }
        let batches = slots.len().div_ceil(config.batch_size.max(1));
        let mut epoch_loss = 0.0f64;
        for batch in slots.chunks(config.batch_size) {
            step += 1;
            let before = pool::stats();
            tr.time("optim.step", Some(parent), step, || {
                model.params().zero_grads()
            });
            while lanes.len() < batch.len() {
                lanes.push(plan.executor());
            }
            let mut sq = Vec::with_capacity(batch.len());
            for (lane, &t) in lanes.iter_mut().zip(batch) {
                let start = Instant::now();
                let v = model.plan_step_forward(&plan, lane, data, t);
                let fwd = tr.record("plan.forward", start, Instant::now(), Some(parent), step);
                tr.child_of_duration("data.window", fwd, window, step);
                sq.push(v.map_err(|e| e.to_string())?);
            }
            let scale = grad_scale(&sq);
            for lane in lanes.iter_mut().take(batch.len()) {
                tr.time("plan.backward", Some(parent), step, || {
                    model.plan_step_backward(&plan, lane, scale)
                })
                .map_err(|e| e.to_string())?;
            }
            tr.time("optim.step", Some(parent), step, || {
                opt.step(model.params())
            });
            let radicand: f64 = sq.iter().map(|&v| v as f64 / sq.len() as f64).sum();
            epoch_loss += radicand.max(0.0).sqrt() as f32 as f64;
            replay.slots += batch.len();
            // The first step allocates every lane's buffers; the steady
            // state is what the pool-miss counter is about.
            if step > 1 {
                replay.pool_misses += pool::stats().since(&before).misses;
                replay.measured_steps += 1;
            }
        }
        replay
            .train_losses
            .push((epoch_loss / batches.max(1) as f64) as f32);
        let val = tr.time("core.val", Some(parent), step, || {
            trainer.mean_loss(model, data, &val_slots)
        });
        replay.val_losses.push(val);
    }
    Ok(replay)
}

/// Mean time of `ModelInputs::from_dataset`, timed as its own call over
/// the first `n` training slots.
pub fn window_cost(data: &BikeDataset, n: usize) -> Duration {
    let slots: Vec<usize> = data.slots(Split::Train).into_iter().take(n).collect();
    let start = Instant::now();
    for &t in &slots {
        std::hint::black_box(ModelInputs::from_dataset(data, t));
    }
    start.elapsed() / slots.len().max(1) as u32
}

/// MiB one slot's input window holds: (2k + 2d)·n² f32 values.
pub fn window_mb(config: &StgnnConfig, n: usize) -> f64 {
    ((2 * config.k + 2 * config.d) * n * n * 4) as f64 / (1u64 << 20) as f64
}

/// The traced run: one untraced `Trainer::train` call as the reference,
/// then the same budget replayed step by step under spans.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup = Setup::build(args);
    let data = &setup.data;
    let slots = setup.slots_per_call() as f64;

    // The reference is the second of two calls: like every call but the
    // first of an untraced run, it starts with a warm tensor pool.
    let mut e2e_ms = f64::NAN;
    let mut trained = None;
    for _ in 0..2 {
        let mut reference = setup.model();
        out.attempted += 1;
        let t = Instant::now();
        let r = Trainer::new(setup.config.clone()).train(&mut reference, data);
        e2e_ms = t.elapsed().as_secs_f64() * 1e3 / slots;
        match r {
            Ok(r) => trained = Some((r, reference)),
            Err(e) => {
                out.check(false, || format!("Trainer::train failed: {e}"));
                return out;
            }
        }
    }
    let Some((report, reference)) = trained else {
        return out;
    };

    let window = window_cost(data, 32);
    let model = setup.model();
    let mut tr = Tracer::new(Instant::now());
    let root = tr.open("train.replay", None, 0);
    out.attempted += 1;
    let replay = replay_training(&mut tr, root, &model, data, &setup.config, window);
    tr.close(root);
    let replay = match replay {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("training replay failed: {e}"));
            return out;
        }
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    out.check(
        bits(&replay.train_losses) == bits(&report.train_losses)
            && bits(&replay.val_losses) == bits(&report.val_losses),
        || {
            format!(
                "the replay's losses {:?}/{:?} differ from Trainer::train's {:?}/{:?}",
                replay.train_losses, replay.val_losses, report.train_losses, report.val_losses
            )
        },
    );

    let n = replay.slots.max(1) as f64;
    let selfs = tr.self_ms();
    let layers = [
        "data.window",
        "plan.forward",
        "plan.backward",
        "optim.step",
        "plan.compile",
        "analyze.tape",
        "core.val",
    ];
    let mut attributed = 0.0;
    for name in layers {
        let v = selfs.get(name).copied().unwrap_or(0.0) / n;
        attributed += v;
        out.metric(metric_ms(name), v);
    }
    out.metric("train.residual_ms", e2e_ms - attributed);
    out.metric("trace.e2e_ms", e2e_ms);
    out.metric(
        "trace.overhead_ratio",
        tr.total_ms("train.replay") / n / e2e_ms - 1.0,
    );
    out.metric(
        "data.window_mb",
        window_mb(&setup.config, data.n_stations()),
    );
    out.metric("tensor.gemm_mflop", replay.gemm_flops as f64 / 1e6);
    out.metric(
        "tensor.sweep_mb",
        replay.sweep_bytes as f64 / (1u64 << 20) as f64,
    );
    out.metric(
        "tensor.pool_misses_per_step",
        replay.pool_misses as f64 / replay.measured_steps.max(1) as f64,
    );
    let span_sum: f64 = selfs.values().sum();
    let root_ms = tr.total_ms("train.replay");
    out.check(
        (span_sum - root_ms).abs() <= 1e-6 * root_ms.max(1.0),
        || format!("self times sum to {span_sum} ms, the replay took {root_ms} ms"),
    );
    out.note(format!(
        "per trained slot: replayed {} slots; untraced Trainer::train {e2e_ms:.4} ms/slot, \
         its own allocs_per_step {}",
        replay.slots, report.allocs_per_step
    ));
    write_trace(&tr, "train-paper", args, &mut out);
    // The prediction tail, from as many predictions as an untraced run makes
    // at least.
    let mut predictions = Predictions::default();
    predictions.block(&setup, &reference, MIN_PREDICTIONS, &mut out);
    predictions.report(&mut out);
    out
}

/// The `_ms` metric for a span name.
pub fn metric_ms(span: &str) -> &'static str {
    match span {
        "data.window" => "data.window_ms",
        "plan.forward" => "plan.forward_ms",
        "plan.backward" => "plan.backward_ms",
        "optim.step" => "optim.step_ms",
        "plan.compile" => "plan.compile_ms",
        "analyze.tape" => "analyze.tape_ms",
        "core.val" => "core.val_ms",
        "online.ingest" => "online.ingest_ms",
        "online.verify" => "online.verify_ms",
        "online.dataset" => "online.dataset_ms",
        "online.finetune" => "online.finetune_ms",
        "online.gate" => "online.gate_ms",
        "online.shadow" => "online.shadow_ms",
        "serve.swap" => "serve.swap_ms",
        "faults.state_write" => "faults.state_write_ms",
        other => panic!("no metric for span {other}"),
    }
}

/// Writes the run's spans beside the other run outputs.
pub fn write_trace(tr: &Tracer, workload: &str, args: &Args, out: &mut Outcome) {
    let path = crate::out_dir().join(format!("trace-{workload}-{}.jsonl", args.seed));
    match tr.write(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}
