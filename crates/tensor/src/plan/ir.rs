// lint: allow-file(L004): the compiler validates every node/parent id against
// the tape once in `Plan::compile`; the IR types here carry those
// proven-in-bounds ids for the executor's hot path.
//! Plan IR: node bindings and optimizer roles, fused-chain descriptors,
//! the [`PlanOptions`] switchboard and the [`PassReport`] scoreboard.
//!
//! The optimizer never rewrites the node list — it *annotates* it. Every
//! node keeps its traced id, op, parents and shape; passes only change a
//! node's [`Role`], which tells the executor how (or whether) to run it.
//! Keeping ids stable is what lets the backward sweep deposit gradients at
//! exactly the same reverse-topological positions as eager execution, the
//! load-bearing half of the bit-identity contract.

use crate::autograd::{Op, Param};
use crate::error::Result;
use crate::op::{MapOp, ZipOp};
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::fmt;
use std::rc::Rc;

/// Recomputes a derived leaf's value from earlier node values on each
/// replay. Receives the value slots of all nodes *preceding* the leaf
/// (slice index = node id), so a derived leaf may depend on any upstream
/// forward value — e.g. the flow-conservation mask, which eager mode
/// computes out-of-tape from the fused flow estimates.
pub type DerivedFn = Box<dyn Fn(&[Tensor]) -> Result<Tensor>>;

/// A derived leaf's recompute closure plus the node ids it actually reads.
///
/// The optimizer must know which upstream slots a derived closure touches:
/// those nodes are pinned — never erased by fusion, never clobbered by an
/// in-place rewrite — because the closure reads their live values on every
/// replay. Build one with [`LeafBinding::derived`].
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
    /// observe a slot the optimizer erased or recycled.
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

/// Which optimizer passes [`super::Plan::compile_with`] runs. Every pass is
/// individually disableable so the parity suite can prove each one
/// bit-identical in isolation; [`Default`] turns everything on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Freeze compute subtrees reachable only from constant leaves.
    pub fold_constants: bool,
    /// Fold single-consumer `Transpose` nodes into the consuming `Matmul`
    /// as layout flags (and run *every* matmul's backward through the
    /// layout-flag GEMM, eliding the two gradient transposes).
    pub elide_transposes: bool,
    /// Collapse elementwise chains into single-sweep fused ops.
    pub fuse: bool,
    /// Let an op overwrite a dying parent's buffer instead of writing a
    /// fresh one, and accumulate gradients in place.
    pub in_place: bool,
    /// Probe matmul lhs density once per executor for stable operands.
    pub cache_probes: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            fold_constants: true,
            elide_transposes: true,
            fuse: true,
            in_place: true,
            cache_probes: true,
        }
    }
}

impl PlanOptions {
    /// Every pass disabled — every node runs the op table, as eager does.
    pub fn none() -> Self {
        PlanOptions {
            fold_constants: false,
            elide_transposes: false,
            fuse: false,
            in_place: false,
            cache_probes: false,
        }
    }

    /// Every pass enabled (the [`Default`]).
    pub fn all() -> Self {
        Self::default()
    }
}

/// What each optimizer pass did to one compiled plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Compute nodes frozen by constant folding.
    pub folded: usize,
    /// `Transpose` nodes folded into a consumer's layout flags.
    pub elided_transposes: usize,
    /// Matmul nodes rerouted through the layout-flag GEMM microkernel.
    pub gemm_nodes: usize,
    /// Elementwise chains collapsed into fused sweeps.
    pub fused_chains: usize,
    /// Total nodes absorbed by those chains (each chain runs as one sweep).
    pub fused_ops: usize,
    /// Nodes that overwrite a dying parent's buffer in place.
    pub in_place_nodes: usize,
    /// Matmul/GEMM nodes whose lhs density probe is cached per executor.
    pub probe_cached: usize,
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "folded={} elided_transposes={} gemm={} fused={}ops/{}chains in_place={} probes_cached={}",
            self.folded,
            self.elided_transposes,
            self.gemm_nodes,
            self.fused_ops,
            self.fused_chains,
            self.in_place_nodes,
            self.probe_cached,
        )
    }
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

/// How the executor treats one `Compute` node after optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Run the op's own [`Op::eval`] / [`Op::backprop`] — the code eager
    /// execution runs (the unoptimized default).
    Eager,
    /// Constant-folded: the slot keeps its traced value forever; forward
    /// and backward both skip the node (its subtree holds no params).
    Folded,
    /// Interior of a fused chain: never evaluated, never swept — the
    /// chain's [`Role::FusedOut`] recomputes it per element.
    Erased,
    /// Head of a fused chain. No forward (the chain's sweep starts from
    /// this node's *parents*); at backward-sweep time the chain gradient
    /// stored in this node's grad slot is released — relayed to the parent
    /// for a unary lead, or pushed through the node's own eager backward
    /// formula for a zip/broadcast lead — so deposits to nodes outside the
    /// chain land at exactly the eager sweep position.
    FusedLead {
        /// True for a unary-map lead: the stored gradient is already folded
        /// through the lead and deposits directly into its one parent.
        relay: bool,
    },
    /// Final node of a fused chain (index into `Plan::chains`): one sweep
    /// computes the whole chain forward; backward folds the output
    /// gradient back through the chain per element.
    FusedOut { chain: usize },
    /// Matmul routed through the layout-flag GEMM microkernel. `ua`/`ub`
    /// are the *effective* operand value ids: the elided transpose's input
    /// when the matching flag is set, the original parent otherwise.
    Gemm {
        ta: bool,
        tb: bool,
        ua: usize,
        ub: usize,
    },
    /// A transpose folded into its consuming matmul: no forward (the GEMM
    /// reads the untransposed value with a layout flag); backward keeps the
    /// eager `gᵀ` formula so the deposit into the underlying matrix happens
    /// at the same sweep position as eager execution.
    ElidedTranspose,
}

/// One node of the compiled schedule.
pub(crate) struct PlanNode {
    pub(crate) op: Op,
    pub(crate) parents: Vec<usize>,
    pub(crate) shape: Shape,
    pub(crate) binding: NodeBinding,
    pub(crate) role: Role,
}

/// The first op of a fused chain — the one that reads values from outside
/// the chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum LeadKind {
    /// Unary lead: the chain gradient relays through it to its parent.
    Map(MapOp),
    /// Binary zip lead over two same-shape operands.
    Zip(ZipOp),
    /// `matrix + row-vector` broadcast lead.
    AddRow,
    /// `matrix + column-vector` broadcast lead.
    AddCol,
    /// `matrix × column-vector` broadcast lead.
    MulCol,
}

/// Maximum unary stages after the lead: chain intermediates live in a
/// fixed-size stack array during the per-element backward recompute.
pub(crate) const MAX_STAGES: usize = 6;

/// One fused elementwise chain: `lead` feeds `stages` unary maps, the last
/// of which is node `out` — the only member whose value slot is written.
pub(crate) struct FusedChain {
    /// Node id of the lead (role [`Role::FusedLead`]).
    pub(crate) lead: usize,
    /// Node id of the final stage (role [`Role::FusedOut`]).
    pub(crate) out: usize,
    pub(crate) kind: LeadKind,
    /// Value ids the sweep reads: the lead's parents (second is `None` for
    /// unary leads).
    pub(crate) src: (usize, Option<usize>),
    /// The unary ops after the lead, in execution order (never empty).
    pub(crate) stages: Vec<MapOp>,
}

impl FusedChain {
    /// Nodes collapsed into this chain's single sweep.
    pub(crate) fn members(&self) -> usize {
        1 + self.stages.len()
    }
}

/// Structural summary of one compiled node, for external validators.
#[derive(Clone, Debug)]
pub struct PlanNodeSummary {
    /// The traced op's name (`Op::name`).
    pub op: &'static str,
    /// How the optimizer classified the node.
    pub kind: PlanOpKind,
    /// The value ids the node actually reads on replay (for a GEMM node
    /// these are the *effective* operands, post-elision).
    pub parents: Vec<usize>,
    /// The node's traced output shape.
    pub shape: Shape,
    /// For a fused-out node: the whole chain's per-element FLOP weight
    /// (lead + every stage, transcendental stages ×8). Zero elsewhere.
    pub fused_cost_per_elem: u64,
}

/// The executor-visible classification of a node — [`Role`] plus binding,
/// flattened for consumers outside this crate (`stgnn-analyze`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOpKind {
    /// Computed with the op's own forward/backward, as eager execution.
    Eager,
    /// Constant leaf (frozen traced value).
    Constant,
    /// Rebound input leaf.
    Input,
    /// Recomputed derived leaf.
    Derived,
    /// Parameter read.
    Param,
    /// Constant-folded compute node.
    Folded,
    /// Erased interior of a fused chain.
    Erased,
    /// Head of a fused chain.
    FusedLead,
    /// Final node of a fused chain.
    FusedOut {
        /// Unary stages folded into the sweep (excluding the lead).
        stages: usize,
    },
    /// Matmul routed through the layout-flag GEMM.
    Gemm {
        ta: bool,
        tb: bool,
        /// Whether the lhs density probe is cached per executor.
        probe_cached: bool,
    },
    /// Transpose folded into a consuming GEMM's layout flag.
    ElidedTranspose,
}

/// Structural summary of a compiled plan for external validation and FLOP
/// accounting, produced by [`super::Plan::summary`].
#[derive(Clone, Debug)]
pub struct PlanSummary {
    pub nodes: Vec<PlanNodeSummary>,
    /// What each pass did.
    pub report: PassReport,
    /// The options the plan was compiled with.
    pub options: PlanOptions,
}
