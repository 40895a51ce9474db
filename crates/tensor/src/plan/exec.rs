// sound: allow-file(L004): PLAN-IDS-VALIDATED-AT-COMPILE — replay indexes the
// per-node slot vectors with node/parent ids proven in bounds by
// `Plan::compile`.
//! Plan execution: the forward/backward sweeps over [`PlanExec`] slots and
//! the in-place buffer steals. Every node runs the op table's forward and
//! backward, the kernels eager runs; an in-place node runs the same
//! per-element formula into the buffer it stole.

use super::ir::NodeBinding;
use super::Plan;
use crate::autograd::Op;
use crate::error::{Error, Result};
use crate::op::{with_operands, MapOp, Saved, ZipOp};
use crate::tensor::Tensor;

/// Per-replay state of a [`Plan`]: one value slot, gradient slot and
/// saved-state slot (dropout mask, max-pool argmax) per node. Value slots
/// are overwritten in place on every replay; gradient slots live only
/// inside [`Plan::backward`]. Their buffers recycle through the
/// [`crate::pool`].
pub struct PlanExec {
    pub(crate) values: Vec<Tensor>,
    pub(crate) grads: Vec<Option<Tensor>>,
    pub(crate) saved: Vec<Saved>,
}

/// Adds `g` into a gradient slot: `cur[i] += g[i]` — the same per-element
/// sums `cur.add(&g)` would produce, into the existing buffer (COW protects
/// the rare shared case).
fn accumulate(slot: &mut Option<Tensor>, g: Tensor) -> Result<()> {
    match slot {
        Some(cur) => cur.add_assign(&g)?,
        None => *slot = Some(g),
    }
    Ok(())
}

impl Plan {
    /// Allocates the per-replay state for this plan. Slots start at the
    /// traced values (cheap COW clones); the first few replays warm the
    /// buffer pool, after which replay performs zero pool misses.
    pub fn executor(&self) -> PlanExec {
        PlanExec {
            values: self.init_values.clone(),
            grads: vec![None; self.nodes.len()],
            saved: std::iter::repeat_with(Saved::default)
                .take(self.nodes.len())
                .collect(),
        }
    }

    /// Replays the forward pass over `exec`'s slots. Fails if the tape has
    /// dropout nodes — those need [`Plan::forward_with_rng`].
    pub fn forward(&self, exec: &mut PlanExec, inputs: &[Tensor]) -> Result<()> {
        if self.has_dropout {
            return Err(Error::InvalidArgument(
                "tape has dropout nodes; use forward_with_rng".into(),
            ));
        }
        self.forward_impl(exec, inputs, &mut || 0.0)
    }

    /// Replays the forward pass, resampling dropout masks from `rng` in
    /// node order — the same draw order eager tracing uses, so the RNG
    /// stream advances exactly as an eager step would advance it.
    pub fn forward_with_rng(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        rng: &mut impl rand::Rng,
    ) -> Result<()> {
        self.forward_impl(exec, inputs, &mut || rng.gen::<f32>())
    }

    fn forward_impl(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        draw: &mut dyn FnMut() -> f32,
    ) -> Result<()> {
        // An injected replay fault surfaces as a plan error: training stops
        // with it, and a serve worker answers the batch with an error and
        // rebuilds its model copy for the next one.
        stgnn_faults::failpoint!("plan::replay", io);
        if inputs.len() != self.num_inputs {
            return Err(Error::InvalidArgument(format!(
                "plan expects {} inputs, got {}",
                self.num_inputs,
                inputs.len()
            )));
        }
        for id in 0..self.nodes.len() {
            let node = &self.nodes[id];
            let v = match &node.binding {
                NodeBinding::Constant => continue,
                NodeBinding::Input(i) => {
                    let t = &inputs[*i];
                    if t.shape() != &node.shape {
                        return Err(Error::InvalidArgument(format!(
                            "input {i} has shape {}, but the tape was traced with {}",
                            t.shape(),
                            node.shape
                        )));
                    }
                    t.clone()
                }
                NodeBinding::Derived(k) => {
                    let t = self.derived[*k](&exec.values[..id])?;
                    if t.shape() != &node.shape {
                        return Err(Error::InvalidArgument(format!(
                            "derived leaf {id} produced shape {}, traced as {}",
                            t.shape(),
                            node.shape
                        )));
                    }
                    t
                }
                NodeBinding::Param(p) => p.value(),
                NodeBinding::Compute if self.in_place[id].is_some() => {
                    self.eval_in_place(id, exec)?
                }
                NodeBinding::Compute => {
                    let PlanExec { values, saved, .. } = &mut *exec;
                    with_operands(
                        &node.parents,
                        |p| &values[p],
                        |x| node.op.eval(x, &mut saved[id], draw),
                    )?
                }
            };
            exec.values[id] = v;
        }
        Ok(())
    }

    /// The values of the spec's root nodes after a forward.
    pub fn outputs(&self, exec: &PlanExec) -> Vec<Tensor> {
        self.roots.iter().map(|&r| exec.values[r].clone()).collect()
    }

    /// The loss node's scalar value after a forward.
    pub fn loss_value(&self, exec: &PlanExec) -> Result<f32> {
        let id = self
            .loss
            .ok_or_else(|| Error::InvalidArgument("plan has no loss node".into()))?;
        Ok(exec.values[id].scalar())
    }

    /// Replays the backward sweep from the loss node, seeding its gradient
    /// with `seed_scale` — bit-identical to eager `mul_scalar(seed_scale)
    /// .backward()`, whose `ones` seed times the scale is exactly a
    /// `full(seed_scale)` gradient at the loss. Accumulated parameter
    /// gradients are deposited into the linked [`crate::autograd::Param`]
    /// cells in tape order, matching the eager deposit order. Call once per
    /// forward.
    ///
    /// As in eager [`crate::autograd::Var::backward`], only nodes with a
    /// parameter binding upstream get gradients: `Plan::compile` records
    /// the verdict per node, and no contribution to an input, derived or
    /// constant leaf (or to an op over those alone) is computed.
    ///
    /// The gradient slots are released on return, after the deposit (or
    /// after a failed sweep), so a batch of lanes holds one lane's
    /// gradients at a time and the next lane's backward reuses them.
    pub fn backward(&self, exec: &mut PlanExec, seed_scale: f32) -> Result<()> {
        let swept = self.sweep_and_deposit(exec, seed_scale);
        exec.grads.fill(None);
        swept
    }

    fn sweep_and_deposit(&self, exec: &mut PlanExec, seed_scale: f32) -> Result<()> {
        let root = self
            .loss
            .ok_or_else(|| Error::InvalidArgument("plan has no loss node to seed".into()))?;
        if !self.wants_grad[root] {
            return Ok(());
        }
        accumulate(
            &mut exec.grads[root],
            Tensor::full(self.nodes[root].shape.clone(), seed_scale),
        )?;
        for id in (0..=root).rev() {
            let node = &self.nodes[id];
            let Some(g) = &exec.grads[id] else {
                continue;
            };
            if !matches!(node.binding, NodeBinding::Compute) {
                continue; // leaves, params and constants spread no further
            }
            // One contribution per parent that wants one, in parent order.
            let wants = |k: usize| self.wants_grad[node.parents[k]];
            let contribs = with_operands(
                &node.parents,
                |p| &exec.values[p],
                |x| {
                    node.op
                        .backprop(g, x, &exec.values[id], &exec.saved[id], &wants)
                },
            )?;
            for (k, g) in contribs.into_iter().enumerate() {
                let Some(g) = g else {
                    continue;
                };
                let pid = node.parents[k];
                debug_assert!(pid < id, "tape order violated: node {id} feeds {pid}");
                accumulate(&mut exec.grads[pid], g)?;
            }
        }
        for (node_id, param) in &self.param_links {
            if let Some(g) = &exec.grads[*node_id] {
                param.accumulate_grad(g);
            }
        }
        Ok(())
    }

    /// Forward + backward + loss read in one call, for single-tape training
    /// steps and tests. Use the split [`Plan::forward_with_rng`] /
    /// [`Plan::backward`] calls when the seed scale depends on several
    /// forwards (the trainer's batch-RMSE scaling).
    pub fn step_with_rng(
        &self,
        exec: &mut PlanExec,
        inputs: &[Tensor],
        seed_scale: f32,
        rng: &mut impl rand::Rng,
    ) -> Result<f32> {
        self.forward_with_rng(exec, inputs, rng)?;
        self.backward(exec, seed_scale)?;
        self.loss_value(exec)
    }

    /// [`Plan::step_with_rng`] for dropout-free tapes.
    pub fn step(&self, exec: &mut PlanExec, inputs: &[Tensor], seed_scale: f32) -> Result<f32> {
        self.forward(exec, inputs)?;
        self.backward(exec, seed_scale)?;
        self.loss_value(exec)
    }

    /// Evaluates one node by overwriting its dying parent's buffer: the
    /// marked parent's tensor is stolen out of its slot (a shared scalar
    /// placeholder is parked there) and mutated with the identical
    /// per-element formula the out-of-place kernel applies.
    fn eval_in_place(&self, id: usize, exec: &mut PlanExec) -> Result<Tensor> {
        let node = &self.nodes[id];
        let slot = self.in_place[id].ok_or_else(|| {
            Error::InvalidArgument(format!("node {id} is not an in-place rewrite"))
        })?;
        let q = node.parents[slot];
        let mut t = std::mem::replace(&mut exec.values[q], self.placeholder.clone());
        debug_assert_eq!(t.shape(), &node.shape, "in-place steal shape drifted");
        if let Some(z) = ZipOp::from_op(&node.op) {
            t.zip_assign(z, &exec.values[node.parents[1 - slot]], slot)?;
        } else if let Some(m) = MapOp::from_op(&node.op) {
            t.map_assign(m);
        } else {
            // The broadcasts, which always overwrite slot 0.
            let other = &exec.values[node.parents[1]];
            match node.op {
                Op::AddRowBroadcast => t.add_row_broadcast_assign(other)?,
                Op::AddColBroadcast => t.add_col_broadcast_assign(other)?,
                Op::MulColBroadcast => t.mul_col_broadcast_assign(other)?,
                _ => {
                    return Err(Error::InvalidArgument(format!(
                        "node {id}: op {} has no in-place kernel",
                        node.op
                    )))
                }
            }
        }
        Ok(t)
    }
}
