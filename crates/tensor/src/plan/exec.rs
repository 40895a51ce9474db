// lint: allow-file(L004): replay indexes the per-node slot vectors with
// node/parent ids proven in bounds by `Plan::compile`; the fused sweeps
// index flat buffers whose lengths were validated against the traced
// shapes.
//! Plan execution: the forward/backward sweeps over [`PlanExec`] slots,
//! including the fused-chain sweeps, the layout-flag GEMM dispatch, the
//! in-place buffer steals and the density-probe cache.

use super::ir::{FusedChain, LeadKind, NodeBinding, Role, MAX_STAGES};
use super::Plan;
use crate::autograd::Op;
use crate::error::{Error, Result};
use crate::op::{sweep_bwd, sweep_fwd, sweep_zip, with_operands, MapOp, Saved, ZipOp};
use crate::par;
use crate::pool::Buffer;
use crate::tensor::{Tensor, PAR_GRAIN_OPS};

/// Per-replay state of a [`Plan`]: one value slot, gradient slot and
/// saved-state slot (dropout mask, max-pool argmax) per node, plus the
/// cached density-probe verdicts. Value slots are overwritten in place on
/// every replay; gradient slots live only inside [`Plan::backward`]. Their
/// buffers recycle through the [`crate::pool`].
pub struct PlanExec {
    pub(crate) values: Vec<Tensor>,
    pub(crate) grads: Vec<Option<Tensor>>,
    pub(crate) saved: Vec<Saved>,
    /// Per node: the cached matmul lhs density verdict (probe-cached nodes
    /// only), filled on the first replay.
    pub(crate) probe: Vec<Option<bool>>,
}

impl PlanExec {
    /// The forward value of node `id` from the latest replay.
    ///
    /// Under the optimizer, not every slot holds a live value: erased /
    /// fused-lead / elided nodes keep their stale traced value, and a slot
    /// whose buffer an in-place rewrite stole holds a scalar placeholder.
    /// Spec roots, the loss and declared derived deps are always live.
    pub fn value(&self, id: usize) -> Option<&Tensor> {
        self.values.get(id)
    }

    /// The cached density-probe verdict for node `id`, if the plan caches
    /// it and at least one forward has run.
    pub fn probe_verdict(&self, id: usize) -> Option<bool> {
        self.probe.get(id).copied().flatten()
    }
}

/// Elementwise-sweep chunk length: 256 f32 = 1KB, so a live chunk plus the
/// backward's recomputed stage values ([`MAX_STAGES`]+1 stack buffers) stay
/// resident in L1 across the per-stage sweeps.
const FUSE_CHUNK: usize = 256;

/// Recomputes a chain's *intermediate* stage values from the lead-output
/// chunk `vals[0][..l]` and folds the chunk gradient `g` down through the
/// stages in place — the chunked form of the per-element stage fold. The
/// final stage's output is not recomputed: `out` is the chain-out node's
/// stored forward value, which the fused forward produced with the
/// identical scalar composition, so reading it is bit-identical to
/// recomputing it (and skips re-running the chain's most expensive stage —
/// typically the transcendental the chain was built around). Per element
/// this runs the same scalar `fwd`/`bwd` compositions in the same order
/// (elements are independent, so sweeping stage-by-stage instead of
/// element-by-element reorders nothing), leaving `g[i]` the gradient at
/// the lead's output.
#[inline]
fn fold_stages_chunk(
    stages: &[MapOp],
    vals: &mut [[f32; FUSE_CHUNK]; MAX_STAGES + 1],
    l: usize,
    g: &mut [f32],
    out: &[f32],
) {
    let n = stages.len();
    for k in 0..n.saturating_sub(1) {
        let (lo, hi) = vals.split_at_mut(k + 1);
        hi[0][..l].copy_from_slice(&lo[k][..l]);
        sweep_fwd(stages[k], &mut hi[0][..l]);
    }
    for k in (0..n).rev() {
        let x_out = if k + 1 == n { out } else { &vals[k + 1][..l] };
        sweep_bwd(stages[k], g, &vals[k][..l], x_out);
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor, in_place: bool) -> Result<()> {
    match slot {
        Some(cur) => {
            if in_place {
                // `cur[i] += g[i]` — the same per-element sums `cur.add(&g)`
                // would produce, into the existing buffer (COW protects the
                // rare shared case).
                cur.add_assign(&g)?;
            } else {
                *cur = cur.add(&g)?;
            }
        }
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
            probe: vec![None; self.nodes.len()],
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
                NodeBinding::Compute => match node.role {
                    // Folded values stay frozen; erased/lead/elided nodes
                    // are absorbed by their consumer's sweep or flags.
                    Role::Folded
                    | Role::Erased
                    | Role::FusedLead { .. }
                    | Role::ElidedTranspose => continue,
                    Role::FusedOut { chain } => self.eval_fused(id, chain, exec)?,
                    Role::Gemm { ta, tb, ua, ub } => {
                        let probe = self.probe_for(id, exec)?;
                        exec.values[ua].matmul_layout_probed(&exec.values[ub], ta, tb, probe)?
                    }
                    Role::Eager => {
                        if self.in_place[id].is_some() {
                            self.eval_in_place(id, exec)?
                        } else if self.probe_cached[id] {
                            let probe = self.probe_for(id, exec)?;
                            exec.values[node.parents[0]]
                                .matmul_probed(&exec.values[node.parents[1]], probe)?
                        } else {
                            let PlanExec { values, saved, .. } = &mut *exec;
                            with_operands(
                                &node.parents,
                                |p| &values[p],
                                |x| node.op.eval(x, &mut saved[id], draw),
                            )?
                        }
                    }
                },
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
        let in_place = self.options.in_place;
        accumulate(
            &mut exec.grads[root],
            Tensor::full(self.nodes[root].shape.clone(), seed_scale),
            in_place,
        )?;
        for id in (0..=root).rev() {
            let node = &self.nodes[id];
            let Some(g) = &exec.grads[id] else {
                continue;
            };
            if !matches!(node.binding, NodeBinding::Compute) {
                continue; // leaves, params and constants spread no further
            }
            // One contribution per parent, in parent order.
            let contribs = match node.role {
                // Folded subtrees hold no params; their gradients are
                // unobservable, exactly as in eager execution.
                Role::Folded => continue,
                // Never deposited into (its consumer is fused with it).
                Role::Erased => continue,
                Role::FusedOut { chain } => {
                    self.backprop_fused(id, chain, exec)?;
                    continue;
                }
                // The chain gradient stored here is already folded through
                // this unary lead — release it to the parent now, at the
                // lead's eager sweep position.
                Role::FusedLead { relay: true } => vec![g.clone()],
                Role::Gemm { ta, tb, ua, ub } => self.backprop_gemm(g, exec, ta, tb, ua, ub)?,
                // A zip/broadcast lead runs its own backward on the stored
                // chain gradient; an elided transpose keeps its `gᵀ`, so the
                // deposit into the underlying matrix stays at its eager
                // sweep position.
                Role::Eager | Role::ElidedTranspose | Role::FusedLead { relay: false } => {
                    with_operands(
                        &node.parents,
                        |p| &exec.values[p],
                        |x| node.op.backprop(g, x, &exec.values[id], &exec.saved[id]),
                    )?
                }
            };
            for (k, g) in contribs.into_iter().enumerate() {
                let pid = node.parents[k];
                debug_assert!(pid < id, "tape order violated: node {id} feeds {pid}");
                accumulate(&mut exec.grads[pid], g, in_place)?;
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

    /// The (possibly cached) lhs density verdict for a probe-cached
    /// matmul/GEMM node; `None` when the node probes fresh every call.
    fn probe_for(&self, id: usize, exec: &mut PlanExec) -> Result<Option<bool>> {
        if !self.probe_cached[id] {
            return Ok(None);
        }
        if let Some(v) = exec.probe[id] {
            return Ok(Some(v));
        }
        let node = &self.nodes[id];
        let v = match node.role {
            Role::Gemm { ta, ua, .. } => {
                if ta {
                    exec.values[ua].probe_dense_t()?
                } else {
                    exec.values[ua].probe_dense()
                }
            }
            _ => exec.values[node.parents[0]].probe_dense(),
        };
        exec.probe[id] = Some(v);
        Ok(Some(v))
    }

    /// One fused chain, forward: a single sweep computes the lead and every
    /// stage per element, writing only the out node's value.
    fn eval_fused(&self, id: usize, chain_idx: usize, exec: &PlanExec) -> Result<Tensor> {
        let chain = &self.chains[chain_idx];
        debug_assert_eq!(
            chain.out, id,
            "chain {chain_idx} annotated on the wrong node"
        );
        let stages = &chain.stages;
        let shape = self.nodes[id].shape.clone();
        let a = exec.values[chain.src.0].data();
        let ops = 1 + stages.len();
        let mut out = Buffer::zeroed(shape.len());
        match chain.kind {
            LeadKind::Map(m) => {
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let end = first + window.len();
                    for (oc, ac) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                    {
                        oc.copy_from_slice(ac);
                        sweep_fwd(m, oc);
                        for &st in stages {
                            sweep_fwd(st, oc);
                        }
                    }
                });
            }
            LeadKind::Zip(z) => {
                let b = exec.values[self.zip_src(chain)?].data();
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let end = first + window.len();
                    for ((oc, ac), bc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(b[first..end].chunks(FUSE_CHUNK))
                    {
                        sweep_zip(z, oc, ac, bc);
                        for &st in stages {
                            sweep_fwd(st, oc);
                        }
                    }
                });
            }
            LeadKind::AddRow | LeadKind::AddCol | LeadKind::MulCol => {
                let v = exec.values[self.zip_src(chain)?].data();
                let (_, c) = shape.as_matrix("fused_broadcast")?;
                let kind = chain.kind;
                let grain = (PAR_GRAIN_OPS / (c * ops).max(1)).max(1);
                par::for_each_row_chunk_mut(&mut out, c, grain, |first_row, window| {
                    for (i, o_row) in window.chunks_mut(c).enumerate() {
                        let r = first_row + i;
                        let a_row = &a[r * c..(r + 1) * c];
                        for (jc, (oc, ac)) in o_row
                            .chunks_mut(FUSE_CHUNK)
                            .zip(a_row.chunks(FUSE_CHUNK))
                            .enumerate()
                        {
                            match kind {
                                LeadKind::AddRow => {
                                    let j0 = jc * FUSE_CHUNK;
                                    sweep_zip(ZipOp::Add, oc, ac, &v[j0..j0 + oc.len()]);
                                }
                                LeadKind::AddCol => {
                                    let bv = v[r];
                                    for (o, &x) in oc.iter_mut().zip(ac) {
                                        *o = ZipOp::Add.fwd(x, bv);
                                    }
                                }
                                _ => {
                                    let bv = v[r];
                                    for (o, &x) in oc.iter_mut().zip(ac) {
                                        *o = ZipOp::Mul.fwd(x, bv);
                                    }
                                }
                            }
                            for &st in stages {
                                sweep_fwd(st, oc);
                            }
                        }
                    }
                });
            }
        }
        Ok(Tensor::from_buffer(shape, out))
    }

    /// The second operand of a zip/broadcast chain lead.
    fn zip_src(&self, chain: &FusedChain) -> Result<usize> {
        chain.src.1.ok_or_else(|| {
            Error::InvalidArgument("fused zip/broadcast chain lost its second operand".into())
        })
    }

    /// One fused chain, backward: recomputes the chain's intermediate
    /// stage values per chunk (the final stage's output is read from the
    /// out node's stored value — see [`fold_stages_chunk`]), folds the out
    /// node's gradient down to the lead, and parks the result in the
    /// lead's grad slot. The backward sweep releases it when it reaches
    /// the lead — the eager deposit position for everything outside the
    /// chain.
    fn backprop_fused(&self, id: usize, chain_idx: usize, exec: &mut PlanExec) -> Result<()> {
        let chain = &self.chains[chain_idx];
        let stages = &chain.stages;
        let g_t = exec.grads[id]
            .as_ref()
            .ok_or_else(|| Error::InvalidArgument(format!("node {id} has no gradient")))?
            .clone();
        let g = g_t.data();
        let lead_shape = self.nodes[chain.lead].shape.clone();
        let a_t = exec.values[chain.src.0].clone();
        let a = a_t.data();
        // The chain-out node's stored forward value — the final stage's
        // output, never stolen by an in-place rewrite in a training plan
        // (see `backward_survives_steal`).
        let o_t = exec.values[id].clone();
        let ov = o_t.data();
        let ops = 2 * (1 + stages.len());
        let mut out = Buffer::zeroed(lead_shape.len());
        match chain.kind {
            LeadKind::Map(m) => {
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    let end = first + window.len();
                    for (((oc, ac), gc), vc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(g[first..end].chunks(FUSE_CHUNK))
                        .zip(ov[first..end].chunks(FUSE_CHUNK))
                    {
                        let l = oc.len();
                        vals[0][..l].copy_from_slice(ac);
                        sweep_fwd(m, &mut vals[0][..l]);
                        oc.copy_from_slice(gc);
                        fold_stages_chunk(stages, &mut vals, l, oc, vc);
                        sweep_bwd(m, oc, ac, &vals[0][..l]);
                    }
                });
            }
            LeadKind::Zip(z) => {
                let b_t = exec.values[self.zip_src(chain)?].clone();
                let b = b_t.data();
                let grain = (PAR_GRAIN_OPS / ops).max(1);
                par::for_each_row_chunk_mut(&mut out, 1, grain, |first, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    let end = first + window.len();
                    for ((((oc, ac), bc), gc), vc) in window
                        .chunks_mut(FUSE_CHUNK)
                        .zip(a[first..end].chunks(FUSE_CHUNK))
                        .zip(b[first..end].chunks(FUSE_CHUNK))
                        .zip(g[first..end].chunks(FUSE_CHUNK))
                        .zip(ov[first..end].chunks(FUSE_CHUNK))
                    {
                        let l = oc.len();
                        sweep_zip(z, &mut vals[0][..l], ac, bc);
                        oc.copy_from_slice(gc);
                        fold_stages_chunk(stages, &mut vals, l, oc, vc);
                    }
                });
            }
            LeadKind::AddRow | LeadKind::AddCol | LeadKind::MulCol => {
                let v_t = exec.values[self.zip_src(chain)?].clone();
                let v = v_t.data();
                let (_, c) = lead_shape.as_matrix("fused_broadcast_bw")?;
                let kind = chain.kind;
                let grain = (PAR_GRAIN_OPS / (c * ops).max(1)).max(1);
                par::for_each_row_chunk_mut(&mut out, c, grain, |first_row, window| {
                    let mut vals = [[0f32; FUSE_CHUNK]; MAX_STAGES + 1];
                    for (i, o_row) in window.chunks_mut(c).enumerate() {
                        let r = first_row + i;
                        let a_row = &a[r * c..(r + 1) * c];
                        let g_row = &g[r * c..(r + 1) * c];
                        let o_val_row = &ov[r * c..(r + 1) * c];
                        for (((jc, (oc, ac)), gc), vc) in o_row
                            .chunks_mut(FUSE_CHUNK)
                            .zip(a_row.chunks(FUSE_CHUNK))
                            .enumerate()
                            .zip(g_row.chunks(FUSE_CHUNK))
                            .zip(o_val_row.chunks(FUSE_CHUNK))
                        {
                            let l = oc.len();
                            match kind {
                                LeadKind::AddRow => {
                                    let j0 = jc * FUSE_CHUNK;
                                    sweep_zip(ZipOp::Add, &mut vals[0][..l], ac, &v[j0..j0 + l]);
                                }
                                LeadKind::AddCol => {
                                    let bv = v[r];
                                    for (o, &x) in vals[0][..l].iter_mut().zip(ac) {
                                        *o = ZipOp::Add.fwd(x, bv);
                                    }
                                }
                                _ => {
                                    let bv = v[r];
                                    for (o, &x) in vals[0][..l].iter_mut().zip(ac) {
                                        *o = ZipOp::Mul.fwd(x, bv);
                                    }
                                }
                            }
                            oc.copy_from_slice(gc);
                            fold_stages_chunk(stages, &mut vals, l, oc, vc);
                        }
                    }
                });
            }
        }
        debug_assert!(
            exec.grads[chain.lead].is_none(),
            "fused lead {} received an external gradient",
            chain.lead
        );
        exec.grads[chain.lead] = Some(Tensor::from_buffer(lead_shape, out));
        Ok(())
    }

    /// Backward for a layout-flag GEMM node — the eager `g·bᵀ` / `aᵀ·g`
    /// formulas with the transposes folded into layout flags. The kernels
    /// walk the same multiply pairs in the same order, and the density
    /// probes sample exactly what eager's materialised operands would, so
    /// the contributions are bit-identical and deposit into the *original*
    /// parents (an elided transpose then relays with its own eager
    /// backward).
    fn backprop_gemm(
        &self,
        g: &Tensor,
        exec: &PlanExec,
        ta: bool,
        tb: bool,
        ua: usize,
        ub: usize,
    ) -> Result<Vec<Tensor>> {
        // dL/d(op a) = g · (op b)ᵀ; with op b = ub^(tb), its transpose is
        // ub^(!tb). Probes run fresh: `g` changes every step.
        let ga = g.matmul_layout_probed(&exec.values[ub], false, !tb, None)?;
        // dL/d(op b) = (op a)ᵀ · g, with (op a)ᵀ = ua^(!ta).
        let gb = exec.values[ua].matmul_layout_probed(g, !ta, false, None)?;
        Ok(vec![ga, gb])
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
            let other = exec.values[node.parents[1 - slot]].clone();
            let b = other.data();
            let buf = t.data_mut();
            par::for_each_row_chunk_mut(buf, 1, PAR_GRAIN_OPS, |first, window| {
                let end = first + window.len();
                for (o, &y) in window.iter_mut().zip(&b[first..end]) {
                    *o = if slot == 0 {
                        z.fwd(*o, y)
                    } else {
                        z.fwd(y, *o)
                    };
                }
            });
        } else if let Some(m) = MapOp::from_op(&node.op) {
            par::for_each_row_chunk_mut(t.data_mut(), 1, PAR_GRAIN_OPS, |_, window| {
                sweep_fwd(m, window);
            });
        } else {
            // The broadcasts, which always overwrite slot 0.
            let op = match node.op {
                Op::AddRowBroadcast | Op::AddColBroadcast | Op::MulColBroadcast => &node.op,
                _ => {
                    return Err(Error::InvalidArgument(format!(
                        "node {id}: op {} has no in-place kernel",
                        node.op
                    )))
                }
            };
            let other = exec.values[node.parents[1]].clone();
            let v = other.data();
            let (_, c) = node.shape.as_matrix("in_place_broadcast")?;
            let grain = (PAR_GRAIN_OPS / c.max(1)).max(1);
            par::for_each_row_chunk_mut(t.data_mut(), c, grain, |first_row, window| {
                for (i, o_row) in window.chunks_mut(c).enumerate() {
                    match op {
                        Op::AddRowBroadcast => {
                            for (o, &b) in o_row.iter_mut().zip(v) {
                                *o = ZipOp::Add.fwd(*o, b);
                            }
                        }
                        Op::AddColBroadcast => {
                            let b = v[first_row + i];
                            for o in o_row.iter_mut() {
                                *o = ZipOp::Add.fwd(*o, b);
                            }
                        }
                        _ => {
                            let b = v[first_row + i];
                            for o in o_row.iter_mut() {
                                *o = ZipOp::Mul.fwd(*o, b);
                            }
                        }
                    }
                }
            });
        }
        Ok(t)
    }
}
