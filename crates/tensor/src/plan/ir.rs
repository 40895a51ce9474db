//! Plan IR: leaf bindings, the compilation spec and the resolved per-node
//! schedule entry.
//!
//! The compiler never rewrites the node list. Every node keeps its traced
//! id, op, parents and shape, so the backward sweep deposits gradients at
//! exactly the same reverse-topological positions as eager execution, the
//! load-bearing half of the bit-identity contract.

use crate::autograd::{Op, Param};
use crate::error::Result;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::rc::Rc;

/// Recomputes a derived leaf's value from earlier node values on each
/// replay. Receives the value slots of all nodes *preceding* the leaf
/// (slice index = node id), so a derived leaf may depend on any upstream
/// forward value — e.g. the flow-conservation mask, which eager mode
/// computes out-of-tape from the fused flow estimates.
pub type DerivedFn = Box<dyn Fn(&[Tensor]) -> Result<Tensor>>;

/// A derived leaf's recompute closure plus the node ids it actually reads.
///
/// The compiler must know which upstream slots a derived closure touches:
/// those nodes are pinned — never clobbered by an in-place rewrite —
/// because the closure reads their live values on every replay. Build one
/// with [`LeafBinding::derived`].
pub struct DerivedSpec {
    /// Node ids (all `<` the leaf's id) whose value slots `f` reads.
    pub deps: Vec<usize>,
    /// The recompute closure.
    pub f: DerivedFn,
}

/// How one leaf node gets its value on each replay.
pub enum LeafBinding {
    /// Rebound from `inputs[i]` on every call (training examples, targets).
    Input(usize),
    /// Recomputed from earlier node values on every call.
    Derived(DerivedSpec),
}

impl LeafBinding {
    /// A derived binding that declares its upstream reads. `deps` lists the
    /// node ids `f` indexes into; declaring a superset is safe (it only
    /// pins more nodes), declaring a subset is not — an undeclared read may
    /// observe a slot an in-place rewrite recycled.
    pub fn derived(deps: Vec<usize>, f: impl Fn(&[Tensor]) -> Result<Tensor> + 'static) -> Self {
        LeafBinding::Derived(DerivedSpec {
            deps,
            f: Box::new(f),
        })
    }
}

/// Caller-supplied compilation spec: which leaves rebind, which roots to
/// read back, and where backward seeds.
#[derive(Default)]
pub struct PlanSpec {
    /// `(leaf node id, binding)` for every leaf that changes between
    /// replays. Leaves not listed stay frozen at their traced value
    /// (constants such as `ones`/`eye`).
    pub bindings: Vec<(usize, LeafBinding)>,
    /// Node ids whose values [`super::Plan::outputs`] reads back after a
    /// forward.
    pub roots: Vec<usize>,
    /// Node id [`super::Plan::backward`] seeds (the loss). `None` for
    /// inference-only plans.
    pub loss: Option<usize>,
}

/// How one node gets its value on replay (resolved from [`PlanSpec`]).
pub(crate) enum NodeBinding {
    /// Evaluate the op from parent values.
    Compute,
    /// Keep the traced value (constant leaf).
    Constant,
    /// `inputs[i]`.
    Input(usize),
    /// `derived[i]`.
    Derived(usize),
    /// Re-read the parameter cell.
    Param(Rc<Param>),
}

/// One node of the compiled schedule.
pub(crate) struct PlanNode {
    pub(crate) op: Op,
    pub(crate) parents: Vec<usize>,
    pub(crate) shape: Shape,
    pub(crate) binding: NodeBinding,
}
