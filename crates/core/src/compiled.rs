//! Compiled-plan execution for the STGNN-DJD model: the one executor every
//! training step and every serving forward runs.
//!
//! The model's tape has a fixed structure for a given configuration,
//! station count and window configuration, so after one traced forward
//! pass the whole training step (and the serving forward) replays through
//! a [`stgnn_tensor::plan::Plan`]: same kernels, same sweep order,
//! bit-identical values and gradients, but with every intermediate buffer
//! recycled through the tensor pool instead of reallocated — zero pool
//! misses once warm. Every configuration compiles; the eager tape remains
//! the tracer that records the plan and the oracle the parity suites
//! check it against.
//!
//! How each leaf gets its value on replay is recorded where the traced
//! forward creates the leaf ([`ForwardTrace`]):
//!
//! * Input windows and targets rebind per slot ([`LeafBinding::Input`]).
//! * The FCG structural mask (Definition 2) is *derived*: eager mode
//!   computes it off-tape from the fused flow values `Î`/`Ô` — or, under
//!   the "No FC" ablation, from the raw short-term windows — so the plan
//!   recomputes it each replay from the traced node values
//!   ([`LeafBinding::Derived`]). The FCG mean aggregator's row-normalised
//!   adjacency derives from that mask the same way, and the FCG max
//!   aggregator pools over the mask leaf itself. (The PCG max aggregator
//!   pools over a constant all-ones mask.)
//!
//! Tracing for compilation happens on a **cloned** RNG: the probe forward
//! draws dropout masks without advancing the model's training stream, so a
//! plan-driven training run consumes the RNG exactly like the eager run it
//! replaces.

use crate::model::{ModelInputs, StgnnDjd};
use stgnn_data::dataset::BikeDataset;
use stgnn_data::error::{Error, Result};
use stgnn_data::predictor::Prediction;
use stgnn_tensor::autograd::{Graph, Var};
use stgnn_tensor::plan::{LeafBinding, Plan, PlanExec, PlanSpec};
use stgnn_tensor::Tensor;

/// The leaf bindings recorded while tracing one forward pass: how each
/// leaf that changes between replays gets its value. The `*_traced`
/// forward variants record each binding where they create the leaf, so a
/// derived leaf's recipe is stated once, next to the eager computation it
/// replays.
#[derive(Default)]
pub struct ForwardTrace {
    /// `(leaf id, binding)` in recording order.
    pub bindings: Vec<(usize, LeafBinding)>,
}

/// Puts `recipe(deps)` on the tape as a leaf — structure computed from
/// forward values, carrying no gradient — and records in `trace` that a
/// replay re-derives it from the live values of `deps`. The declared deps
/// pin those value slots, so an in-place rewrite never steals what the
/// recipe reads.
pub(crate) fn derived_leaf<const K: usize>(
    g: &Graph,
    trace: Option<&mut ForwardTrace>,
    deps: [&Var; K],
    recipe: impl Fn([&Tensor; K]) -> Tensor + 'static,
) -> Var {
    let values = deps.map(Var::value);
    let leaf = g.leaf(recipe(values.each_ref()));
    if let Some(tr) = trace {
        let ids = deps.map(Var::id);
        tr.bindings.push((
            leaf.id(),
            LeafBinding::derived(ids.to_vec(), move |values| {
                Ok(recipe(ids.map(|id| &values[id])))
            }),
        ));
    }
    leaf
}

/// A compiled training step: forward to the Eq 21 radicand, backward from
/// it. Replays one slot per [`PlanExec`]; the trainer keeps one executor
/// per batch lane so a whole batch stays allocation-free.
pub struct TrainingPlan {
    plan: Plan,
    tape: stgnn_analyze::Report,
}

impl TrainingPlan {
    /// The static validation of the traced training tape (shape inference,
    /// gradient-path reachability, NaN-risk, FLOP estimates). Always clean:
    /// a `Deny` finding refuses compilation.
    pub fn tape(&self) -> &stgnn_analyze::Report {
        &self.tape
    }

    /// Fresh per-slot replay state (one per concurrent batch lane).
    pub fn executor(&self) -> PlanExec {
        self.plan.executor()
    }

    /// True when the tape contains dropout and replay draws from the
    /// model's RNG.
    pub fn needs_rng(&self) -> bool {
        self.plan.needs_rng()
    }

    /// Number of nodes the plan compiler rewrote to run in place.
    pub fn in_place_nodes(&self) -> usize {
        self.plan.in_place_nodes()
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

    /// Number of nodes the plan compiler rewrote to run in place.
    pub fn in_place_nodes(&self) -> usize {
        self.plan.in_place_nodes()
    }
}

fn plan_err(e: stgnn_tensor::Error) -> Error {
    Error::InvalidConfig(format!("compiled plan: {e}"))
}

impl StgnnDjd {
    /// Traces one training step at slot `t` (forward + Eq 21 radicand) and
    /// compiles it into a replayable [`TrainingPlan`].
    ///
    /// Always `Ok(Some(_))` for a model that fits `data`: every
    /// configuration compiles. The traced tape is validated with the
    /// static analyzer first; a `Deny` finding refuses compilation with a
    /// "tape validation failed before epoch 0" error listing each denial.
    pub fn compile_training_plan(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<Option<TrainingPlan>> {
        let (plan, tape) = self.compile_plan(data, t, true)?;
        Ok(Some(TrainingPlan { plan, tape }))
    }

    /// Traces one evaluation-mode forward at slot `t` and compiles it into
    /// a replayable [`InferencePlan`] (roots: the demand and supply heads).
    /// Always `Ok(Some(_))` for a model that fits `data`, as
    /// [`Self::compile_training_plan`].
    pub fn compile_inference_plan(
        &self,
        data: &BikeDataset,
        t: usize,
    ) -> Result<Option<InferencePlan>> {
        let (plan, _) = self.compile_plan(data, t, false)?;
        Ok(Some(InferencePlan { plan }))
    }

    /// The one compile path of both plan kinds: traces a forward at slot
    /// `t` (plus the Eq 21 radicand as the loss when `train`), validates
    /// the tape, and compiles it with the leaf bindings the trace
    /// recorded. Returns the plan and the tape's validation report.
    fn compile_plan(
        &self,
        data: &BikeDataset,
        t: usize,
        train: bool,
    ) -> Result<(Plan, stgnn_analyze::Report)> {
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
        let snapshot = g.snapshot();
        let validated = match loss {
            Some(sq) => vec![sq],
            None => roots.clone(),
        };
        let tape = stgnn_analyze::validate_tape(&snapshot, &validated);
        if !tape.is_clean() {
            let denies: Vec<String> = tape
                .at(stgnn_analyze::Severity::Deny)
                .map(|d| d.to_string())
                .collect();
            return Err(Error::InvalidConfig(format!(
                "tape validation failed before {} ({}):\n  {}",
                if train { "epoch 0" } else { "the first replay" },
                tape.summary(),
                denies.join("\n  ")
            )));
        }
        let spec = PlanSpec {
            bindings: trace.bindings,
            roots,
            loss,
        };
        let plan = Plan::compile(&snapshot, self.params(), spec).map_err(plan_err)?;
        Ok((plan, tape))
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
