//! Compiled tape replay: execute one traced graph many times without
//! rebuilding it.
//!
//! STGNN-DJD's tape has a fixed structure for a given station count and
//! window configuration — every training step and every serve forward
//! re-traces the identical graph. Eager mode pays for that by rebuilding
//! every [`crate::autograd::Var`] node per step: `Rc` churn, parent lists,
//! shape clones, and a fresh allocation per op output.
//!
//! [`Plan::compile`] takes one [`TapeSnapshot`] traced by eager mode and
//! turns it into a static schedule: ops in topological (= insertion) order,
//! leaf **bindings** that say how each leaf gets its value on replay
//! (rebound input, recomputed derived value, re-read parameter, or frozen
//! constant), and parameter links for gradient writeback. A [`PlanExec`]
//! holds the per-node value/gradient/saved-state slots; replaying
//! overwrites the slots in place, so each step's outputs recycle the
//! previous step's buffers through the [`crate::pool`] and the steady
//! state performs **zero pool misses** — the allocator is never touched.
//!
//! Every node runs the same [`Op`] forward and backward as the eager tape
//! — one op table and one set of kernels serve both executors (a matmul is
//! the layout-flag GEMM of [`Tensor::matmul_layout`] in either) — with one
//! exception, kept because it moves a measured number (`DESIGN.md` §12):
//! **in-place rewrites**. Where liveness allows, an op overwrites its dying
//! parent's buffer with the same per-element formula instead of cycling a
//! fresh one through the pool, and gradient accumulation adds into the
//! existing slot.
//!
//! Replay remains **bit-identical** to eager execution: an in-place node applies each output element's exact f32
//! operation sequence, and gradient accumulation keeps every deposit's
//! sweep position (see the legality notes in `passes`). Dropout nodes run the op table in node order, so a plan
//! step consumes the RNG stream exactly like the eager step it replaces.
//! The parity suite in `tests/plan_parity.rs` proves this for every model
//! configuration, down to the bit, and
//! `tests/plan_gradcheck.rs` checks every op's plan gradient against
//! finite differences.
//!
//! Graph structure derived from each input replays as a value, not as a
//! frozen payload: [`Op::RowsMaxPool`] pools over a mask *operand*, so a
//! plan whose mask leaf is rebound or derived per replay
//! ([`LeafBinding::Derived`]) pools over each replay's own structure. Op
//! payloads carry only input-independent arguments (shapes, slice ranges,
//! scalars, drop rates), so a tape replays correctly once every leaf that
//! changes between inputs is bound.

mod exec;
mod ir;
mod passes;

pub use exec::PlanExec;
pub use ir::{DerivedFn, DerivedSpec, LeafBinding, PlanSpec};

use crate::autograd::{Op, Param, ParamSet, TapeSnapshot};
use crate::error::{Error, Result};
use crate::tensor::Tensor;
use ir::{NodeBinding, PlanNode};
use std::collections::HashMap;
use std::rc::Rc;

/// A compiled, replayable schedule for one traced tape. Cheap to execute,
/// immutable once compiled; per-replay state lives in [`PlanExec`].
pub struct Plan {
    pub(crate) nodes: Vec<PlanNode>,
    pub(crate) derived: Vec<DerivedFn>,
    /// `(node id, param)` in tape order — the deposit order of eager
    /// `backward`.
    pub(crate) param_links: Vec<(usize, Rc<Param>)>,
    pub(crate) init_values: Vec<Tensor>,
    pub(crate) roots: Vec<usize>,
    pub(crate) loss: Option<usize>,
    pub(crate) num_inputs: usize,
    pub(crate) has_dropout: bool,
    /// Node ids any derived closure reads — pinned against in-place
    /// clobbering.
    pub(crate) derived_deps: Vec<usize>,
    /// Per node: the parent slot whose buffer this node steals and
    /// overwrites in place (`None` = normal output).
    pub(crate) in_place: Vec<Option<usize>>,
    /// Per node: whether a parameter binding is upstream of it. The
    /// backward sweep forms gradients for these nodes only.
    pub(crate) wants_grad: Vec<bool>,
    /// Shared scalar parked in a slot whose buffer was stolen — cloning it
    /// is an `Arc` bump, so in-place rewrites stay allocation-free.
    pub(crate) placeholder: Tensor,
}

impl Plan {
    /// Compiles a traced tape into a replayable plan and marks its in-place
    /// rewrites.
    ///
    /// Validates the tape topology (parents strictly precede children),
    /// resolves every `Param` node against `params` by name, and checks the
    /// spec's bindings point at leaf nodes. Returns
    /// [`Error::InvalidArgument`] on any structural defect.
    pub fn compile(snapshot: &TapeSnapshot, params: &ParamSet, spec: PlanSpec) -> Result<Self> {
        let n = snapshot.nodes.len();
        if n == 0 {
            return Err(Error::InvalidArgument(
                "cannot compile an empty tape".into(),
            ));
        }
        let mut by_name: HashMap<&str, Rc<Param>> = HashMap::new();
        for p in params.params() {
            if by_name.insert(p.name(), Rc::clone(p)).is_some() {
                return Err(Error::InvalidArgument(format!(
                    "duplicate parameter name {:?} — plan compilation resolves params by name",
                    p.name()
                )));
            }
        }

        let mut bindings: HashMap<usize, LeafBinding> = HashMap::new();
        let mut num_inputs = 0usize;
        for (id, b) in spec.bindings {
            if let LeafBinding::Input(i) = &b {
                num_inputs = num_inputs.max(i + 1);
            }
            if bindings.insert(id, b).is_some() {
                return Err(Error::InvalidArgument(format!(
                    "node {id} bound twice in PlanSpec"
                )));
            }
        }

        let mut nodes = Vec::with_capacity(n);
        let mut derived: Vec<DerivedFn> = Vec::new();
        let mut derived_deps: Vec<usize> = Vec::new();
        let mut param_links = Vec::new();
        let mut init_values = Vec::with_capacity(n);
        let mut wants_grad: Vec<bool> = Vec::with_capacity(n);
        let mut has_dropout = false;
        for (id, info) in snapshot.nodes.iter().enumerate() {
            if info.parents.iter().any(|&p| p >= id) {
                return Err(Error::InvalidArgument(format!(
                    "node {id} has a parent at or after itself — not a valid tape"
                )));
            }
            if info.value.shape() != &info.shape {
                return Err(Error::InvalidArgument(format!(
                    "node {id} recorded shape {} but carries a value of shape {}",
                    info.shape,
                    info.value.shape()
                )));
            }
            let binding = match (&info.op, bindings.remove(&id)) {
                (Op::Leaf, Some(LeafBinding::Input(i))) => NodeBinding::Input(i),
                (Op::Leaf, Some(LeafBinding::Derived(spec))) => {
                    for &dep in &spec.deps {
                        if dep >= id {
                            return Err(Error::InvalidArgument(format!(
                                "derived leaf {id} declares dep {dep}, which does not precede it"
                            )));
                        }
                    }
                    derived_deps.extend_from_slice(&spec.deps);
                    derived.push(spec.f);
                    NodeBinding::Derived(derived.len() - 1)
                }
                (Op::Leaf, None) => NodeBinding::Constant,
                (_, Some(_)) => {
                    return Err(Error::InvalidArgument(format!(
                        "PlanSpec binds node {id}, but it is a {} node, not a leaf",
                        info.op
                    )));
                }
                (Op::Param, None) => {
                    let name = info.param.as_deref().ok_or_else(|| {
                        Error::InvalidArgument(format!("param node {id} carries no name"))
                    })?;
                    let p = by_name.get(name).ok_or_else(|| {
                        Error::InvalidArgument(format!(
                            "param node {id} refers to {name:?}, absent from the ParamSet"
                        ))
                    })?;
                    param_links.push((id, Rc::clone(p)));
                    NodeBinding::Param(Rc::clone(p))
                }
                (_, None) => NodeBinding::Compute,
            };
            if matches!(info.op, Op::Dropout { .. }) {
                has_dropout = true;
            }
            wants_grad.push(match binding {
                NodeBinding::Param(_) => true,
                NodeBinding::Compute => info
                    .parents
                    .iter()
                    .any(|&p| wants_grad.get(p) == Some(&true)),
                NodeBinding::Constant | NodeBinding::Input(_) | NodeBinding::Derived(_) => false,
            });
            nodes.push(PlanNode {
                op: info.op.clone(),
                parents: info.parents.clone(),
                shape: info.shape.clone(),
                binding,
            });
            init_values.push(info.value.clone());
        }
        if let Some((id, _)) = bindings.into_iter().next() {
            return Err(Error::InvalidArgument(format!(
                "PlanSpec binds node {id}, which is outside the tape"
            )));
        }
        for &r in spec.roots.iter().chain(spec.loss.iter()) {
            if r >= n {
                return Err(Error::InvalidArgument(format!(
                    "root node {r} is outside the tape of {n} nodes"
                )));
            }
        }
        let mut plan = Plan {
            nodes,
            derived,
            param_links,
            init_values,
            roots: spec.roots,
            loss: spec.loss,
            num_inputs,
            has_dropout,
            derived_deps,
            in_place: vec![None; n],
            wants_grad,
            placeholder: Tensor::from_scalar(0.0),
        };
        passes::mark_in_place(&mut plan);
        Ok(plan)
    }

    /// Number of nodes in the compiled schedule.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a plan over an empty tape (cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of rebindable inputs `forward` expects.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// True when the tape contains dropout nodes and replay therefore needs
    /// the RNG-taking entry points.
    pub fn needs_rng(&self) -> bool {
        self.has_dropout
    }

    /// Number of nodes that overwrite a dying parent's buffer in place.
    pub fn in_place_nodes(&self) -> usize {
        self.in_place.iter().flatten().count()
    }
}
