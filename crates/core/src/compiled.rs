//! Compiled-plan execution for the STGNN-DJD model.
//!
//! The model's tape has a fixed structure for a given station count and
//! window configuration, so after one traced forward pass the whole
//! training step (and the serving forward) can be replayed through a
//! [`stgnn_tensor::plan::Plan`]: same kernels, same sweep order, bit-identical
//! values and gradients, but with every intermediate buffer recycled through
//! the tensor pool instead of reallocated — zero pool misses once warm.
//!
//! What replays and what cannot:
//!
//! * Input windows and targets rebind per slot ([`LeafBinding::Input`]).
//! * The FCG structural mask (Definition 2) is *derived*: eager mode
//!   computes it off-tape from the fused flow values, so the plan recomputes
//!   it each replay from the traced `Î`/`Ô` node values
//!   ([`LeafBinding::Derived`]). The FCG mean aggregator's row-normalised
//!   adjacency derives from that mask the same way.
//! * The FCG **max** aggregator pools over neighbour lists baked into the
//!   op itself — input-dependent *structure*, not values — so those
//!   configurations cannot replay; compilation reports [`None`] and callers
//!   keep the eager path. (The PCG max aggregator pools over all stations,
//!   which is input-independent and replays fine.)
//! * The "No FC" ablation derives its mask from raw inputs that never reach
//!   the tape, so it stays eager too.
//!
//! Tracing for compilation happens on a **cloned** RNG: the probe forward
//! draws dropout masks without advancing the model's training stream, so a
//! plan-driven training run consumes the RNG exactly like the eager run it
//! replaces.

use crate::fcg::fcg_mean_adj;
use crate::flow_conv::fcg_mask;
use crate::model::{ModelInputs, StgnnDjd};
use stgnn_data::dataset::BikeDataset;
use stgnn_data::error::{Error, Result};
use stgnn_data::predictor::Prediction;
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::plan::{LeafBinding, PassReport, Plan, PlanExec, PlanOptions, PlanSpec};

/// Leaf/node ids recorded while tracing one forward pass, so the plan
/// compiler knows how each leaf gets its value on replay. Filled by the
/// `*_traced` forward variants; any structural obstacle to replay lands in
/// [`ForwardTrace::incompatible`].
#[derive(Default)]
pub struct ForwardTrace {
    /// Short-term inflow stack leaf.
    pub short_in: Option<usize>,
    /// Short-term outflow stack leaf.
    pub short_out: Option<usize>,
    /// Long-term inflow stack leaf.
    pub long_in: Option<usize>,
    /// Long-term outflow stack leaf.
    pub long_out: Option<usize>,
    /// The fused inflow embedding `Î` (Eq 5) — the FCG mask derives from it.
    pub i_hat: Option<usize>,
    /// The fused outflow embedding `Ô` (Eq 8).
    pub o_hat: Option<usize>,
    /// The FCG structural-mask leaf (computed off-tape in eager mode).
    pub fcg_mask_leaf: Option<usize>,
    /// Mean-aggregator adjacency leaves, one per FCG mean layer (each
    /// derives from the mask).
    pub fcg_mean_adj_leaves: Vec<usize>,
    /// Normalised demand-target leaf (training tapes only).
    pub target_demand: Option<usize>,
    /// Normalised supply-target leaf (training tapes only).
    pub target_supply: Option<usize>,
    /// Reasons this tape cannot replay (e.g. input-dependent pooling
    /// structure). Non-empty ⇒ compilation yields `None`.
    pub incompatible: Vec<String>,
}

impl ForwardTrace {
    /// Records a structural obstacle to plan replay.
    pub fn mark_incompatible(&mut self, why: impl Into<String>) {
        self.incompatible.push(why.into());
    }
}

/// A compiled training step: forward to the Eq 21 radicand, backward from
/// it. Replays one slot per [`PlanExec`]; the trainer keeps one executor
/// per batch lane so a whole batch stays allocation-free.
pub struct TrainingPlan {
    plan: Plan,
}

impl TrainingPlan {
    /// Fresh per-slot replay state (one per concurrent batch lane).
    pub fn executor(&self) -> PlanExec {
        self.plan.executor()
    }

    /// True when the tape contains dropout and replay draws from the
    /// model's RNG.
    pub fn needs_rng(&self) -> bool {
        self.plan.needs_rng()
    }

    /// What the plan optimizer did to this tape.
    pub fn pass_report(&self) -> PassReport {
        self.plan.pass_report()
    }

    /// For every probe-cached matmul in the plan: `(checked, agreeing)`
    /// between the executor's cached density verdict and a fresh probe of
    /// the current slot values. The parity suite asserts these never
    /// diverge on real replay data.
    pub fn cached_probe_agreement(&self, exec: &PlanExec) -> (usize, usize) {
        probe_agreement(&self.plan, exec)
    }
}

/// A compiled evaluation-mode forward pass to the demand/supply heads.
/// Serving workers cache one per (model, checkpoint-version) and invalidate
/// it on hot-swap.
pub struct InferencePlan {
    plan: Plan,
}

impl InferencePlan {
    /// Fresh replay state.
    pub fn executor(&self) -> PlanExec {
        self.plan.executor()
    }

    /// What the plan optimizer did to this tape.
    pub fn pass_report(&self) -> PassReport {
        self.plan.pass_report()
    }

    /// See [`TrainingPlan::cached_probe_agreement`].
    pub fn cached_probe_agreement(&self, exec: &PlanExec) -> (usize, usize) {
        probe_agreement(&self.plan, exec)
    }
}

fn probe_agreement(plan: &Plan, exec: &PlanExec) -> (usize, usize) {
    let (mut checked, mut agree) = (0, 0);
    for id in plan.cached_probe_nodes() {
        if let (Some(cached), Some(fresh)) = (exec.probe_verdict(id), plan.fresh_probe(exec, id)) {
            checked += 1;
            if cached == fresh {
                agree += 1;
            }
        }
    }
    (checked, agree)
}

fn plan_err(e: stgnn_tensor::Error) -> Error {
    Error::InvalidConfig(format!("compiled plan: {e}"))
}

/// Re-validates the optimizer's structural invariants (`A008`/`A009`) on
/// the compiled plan. An unsound optimized plan is refused outright —
/// callers treat the error like any compile failure and stay eager.
fn check_plan_structure(plan: &Plan) -> Result<()> {
    let report = stgnn_analyze::validate_plan(&plan.summary());
    if !report.is_clean() {
        return Err(Error::InvalidConfig(format!(
            "refusing an optimized plan the validator denies: {}",
            report.summary()
        )));
    }
    Ok(())
}

fn require(id: Option<usize>, what: &str) -> Result<usize> {
    id.ok_or_else(|| {
        Error::InvalidConfig(format!(
            "forward trace did not record the {what} leaf — tracing and compilation disagree"
        ))
    })
}

/// Bindings shared by training and inference plans: the four input-window
/// leaves rebind from `inputs[0..4]`, and the FCG mask (plus any
/// mean-aggregator adjacencies) re-derives from traced node values.
fn window_bindings(trace: &ForwardTrace) -> Result<Vec<(usize, LeafBinding)>> {
    let mut bindings = vec![
        (require(trace.short_in, "short_in")?, LeafBinding::Input(0)),
        (
            require(trace.short_out, "short_out")?,
            LeafBinding::Input(1),
        ),
        (require(trace.long_in, "long_in")?, LeafBinding::Input(2)),
        (require(trace.long_out, "long_out")?, LeafBinding::Input(3)),
    ];
    if let Some(mask_id) = trace.fcg_mask_leaf {
        let i_hat = require(trace.i_hat, "i_hat")?;
        let o_hat = require(trace.o_hat, "o_hat")?;
        // The declared deps pin the Î/Ô (and mask) value slots so the plan
        // optimizer never erases or steals what these closures read.
        bindings.push((
            mask_id,
            LeafBinding::derived(vec![i_hat, o_hat], move |values| {
                Ok(fcg_mask(&values[i_hat], &values[o_hat]))
            }),
        ));
        for &adj_id in &trace.fcg_mean_adj_leaves {
            bindings.push((
                adj_id,
                LeafBinding::derived(vec![mask_id], move |values| {
                    Ok(fcg_mean_adj(&values[mask_id]))
                }),
            ));
        }
    }
    Ok(bindings)
}

impl StgnnDjd {
    /// Traces one training step at slot `t` (forward + Eq 21 radicand) and
    /// compiles it into a replayable [`TrainingPlan`].
    ///
    /// Returns `Ok(None)` when the configuration cannot replay (FCG max
    /// aggregator, "No FC" ablation) — callers keep the eager path. The
    /// traced tape is re-validated with the static analyzer first; a `Deny`
    /// finding refuses compilation outright.
    pub fn compile_training_plan(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<Option<TrainingPlan>> {
        self.compile_training_plan_with(data, t, PlanOptions::default())
    }

    /// [`Self::compile_training_plan`] with explicit optimizer passes —
    /// each pass in [`PlanOptions`] is individually toggleable, and every
    /// combination replays bit-identically to eager (the parity suite
    /// asserts this per pass).
    pub fn compile_training_plan_with(
        &self,
        data: &BikeDataset,
        t: usize,
        opts: PlanOptions,
    ) -> Result<Option<TrainingPlan>> {
        Ok(self
            .compile_plan(data, t, true, opts)?
            .map(|plan| TrainingPlan { plan }))
    }

    /// Traces one evaluation-mode forward at slot `t` and compiles it into
    /// a replayable [`InferencePlan`] (roots: the demand and supply heads).
    /// `Ok(None)` under the same structural limits as
    /// [`Self::compile_training_plan`].
    pub fn compile_inference_plan(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<Option<InferencePlan>> {
        self.compile_inference_plan_with(data, t, PlanOptions::default())
    }

    /// [`Self::compile_inference_plan`] with explicit optimizer passes.
    pub fn compile_inference_plan_with(
        &self,
        data: &BikeDataset,
        t: usize,
        opts: PlanOptions,
    ) -> Result<Option<InferencePlan>> {
        Ok(self
            .compile_plan(data, t, false, opts)?
            .map(|plan| InferencePlan { plan }))
    }

    /// The one compile path of both plan kinds: traces a forward at slot
    /// `t` (plus the Eq 21 radicand as the loss when `train`), re-validates
    /// the tape, binds its leaves and compiles it with `opts`. `Ok(None)`
    /// when the configuration cannot replay.
    fn compile_plan(
        &self,
        data: &BikeDataset,
        t: usize,
        train: bool,
        opts: PlanOptions,
    ) -> Result<Option<Plan>> {
        self.check_compatible(data)?;
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let mut trace = ForwardTrace::default();
        // Clone the RNG: the probe's dropout draws must not advance the
        // training stream (each replay draws the real masks).
        let mut probe_rng = self.rng_cell().borrow().clone();
        let out = self.forward_traced(&g, &inputs, train, &mut probe_rng, Some(&mut trace));
        let roots = vec![out.demand.id(), out.supply.id()];
        let loss = if train {
            let (dt, st) = data.targets_horizon(t, self.config().horizon)?;
            Some(
                self.squared_loss_traced(&g, &out, &dt, &st, Some(&mut trace))
                    .id(),
            )
        } else {
            None
        };
        if !trace.incompatible.is_empty() {
            return Ok(None);
        }
        let snapshot = g.snapshot();
        let validated = match loss {
            Some(sq) => vec![sq],
            None => roots.clone(),
        };
        let report = stgnn_analyze::validate_tape(&snapshot, &validated);
        if !report.is_clean() {
            return Err(Error::InvalidConfig(format!(
                "refusing to compile a tape the validator denies: {}",
                report.summary()
            )));
        }
        let mut bindings = window_bindings(&trace)?;
        if train {
            bindings.push((
                require(trace.target_demand, "demand target")?,
                LeafBinding::Input(4),
            ));
            bindings.push((
                require(trace.target_supply, "supply target")?,
                LeafBinding::Input(5),
            ));
        }
        let spec = PlanSpec {
            bindings,
            roots,
            loss,
        };
        let plan = Plan::compile_with(&snapshot, self.params(), spec, opts).map_err(plan_err)?;
        check_plan_structure(&plan)?;
        Ok(Some(plan))
    }

    /// Replays the forward pass for slot `t` through a training plan and
    /// returns the Eq 21 radicand (`mse_d + mse_s`). Dropout masks draw
    /// from the model's RNG in the same order an eager trace would.
    pub fn plan_step_forward(
        &self,
        plan: &TrainingPlan,
        exec: &mut PlanExec,
        data: &BikeDataset,
        t: usize,
    ) -> Result<f32> {
        let inputs = ModelInputs::from_dataset(data, t);
        let (dt, st) = data.targets_horizon(t, self.config().horizon)?;
        let bound = [
            inputs.short_in,
            inputs.short_out,
            inputs.long_in,
            inputs.long_out,
            dt,
            st,
        ];
        if plan.plan.needs_rng() {
            let mut rng = self.rng_cell().borrow_mut();
            plan.plan
                .forward_with_rng(exec, &bound, &mut *rng)
                .map_err(plan_err)?;
        } else {
            plan.plan.forward(exec, &bound).map_err(plan_err)?;
        }
        plan.plan.loss_value(exec).map_err(plan_err)
    }

    /// Replays the backward sweep over a previously-run forward, seeding
    /// the radicand's gradient with `grad_scale` (the trainer's batch-RMSE
    /// chain factor) and depositing parameter gradients — bit-identical to
    /// eager `sq.mul_scalar(grad_scale).backward()`.
    pub fn plan_step_backward(
        &self,
        plan: &TrainingPlan,
        exec: &mut PlanExec,
        grad_scale: f32,
    ) -> Result<()> {
        plan.plan.backward(exec, grad_scale).map_err(plan_err)
    }

    /// Replays an evaluation forward for slot `t` through an inference plan
    /// and denormalises the heads into per-step predictions — the compiled
    /// equivalent of [`StgnnDjd::predict_horizon`], byte-for-byte.
    pub fn plan_predict_horizon(
        &self,
        plan: &InferencePlan,
        exec: &mut PlanExec,
        data: &BikeDataset,
        t: usize,
    ) -> Result<Vec<Prediction>> {
        let inputs = ModelInputs::from_dataset(data, t);
        let bound = [
            inputs.short_in,
            inputs.short_out,
            inputs.long_in,
            inputs.long_out,
        ];
        plan.plan.forward(exec, &bound).map_err(plan_err)?;
        let mut outs = plan.plan.outputs(exec).into_iter();
        let (dv, sv) = match (outs.next(), outs.next()) {
            (Some(d), Some(s)) => (d, s),
            _ => {
                return Err(Error::InvalidConfig(
                    "inference plan lost its demand/supply roots".into(),
                ))
            }
        };
        Ok(self.predictions_from_values(&dv, &sv, data))
    }
}
