// sound: allow-file(L004): PLAN-IDS-VALIDATED-AT-COMPILE — the pass walks
// node/parent ids already validated against the tape by `Plan::compile`;
// indexing with them cannot miss.
//! The plan's one rewrite: in-place buffer steals.
//!
//! The pass only *annotates* nodes — node ids, parents and the sweep order
//! never change, which is what keeps gradient deposits at the eager sweep
//! positions. Its legality condition is documented below and mirrored in
//! `DESIGN.md` §12.

use super::ir::NodeBinding;
use super::Plan;
use crate::autograd::Op;

/// Which nodes' value slots must stay live and untouched: spec roots, the
/// loss, and every declared dependency of a derived-leaf closure. Pinned
/// nodes are never stolen by an in-place rewrite.
fn pinned(plan: &Plan) -> Vec<bool> {
    let mut pinned = vec![false; plan.nodes.len()];
    for &r in plan.roots.iter().chain(plan.loss.iter()) {
        pinned[r] = true;
    }
    for &d in &plan.derived_deps {
        pinned[d] = true;
    }
    pinned
}

/// Who reads each node's value slot on replay: one entry per (consumer
/// node, parent slot) occurrence. Derived leaves read their declared deps.
fn value_readers(plan: &Plan) -> Vec<Vec<usize>> {
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); plan.nodes.len()];
    for (id, node) in plan.nodes.iter().enumerate() {
        match &node.binding {
            // Conservative: the closure may read any declared dep on every
            // replay.
            NodeBinding::Derived(_) => {
                for &d in &plan.derived_deps {
                    readers[d].push(id);
                }
            }
            NodeBinding::Compute => {
                for &p in &node.parents {
                    readers[p].push(id);
                }
            }
            _ => {}
        }
    }
    readers
}

/// Parent slots an op may overwrite in place, given whether the plan
/// trains (runs backward). The stolen slot's value is consumed by this
/// op's forward and must not be read by its backward: in a training plan
/// only ops whose backward formulas read no parent value (and no parent
/// shape) qualify. Inference plans never run backward, so any op with an
/// elementwise in-place kernel qualifies.
fn in_place_slots(op: &Op, training: bool) -> &'static [usize] {
    match op {
        // Backward reads nothing but the output gradient (and for the
        // saturating activations, the node's own output — not the parent).
        Op::Add | Op::Sub => &[0, 1],
        Op::AddScalar(_)
        | Op::MulScalar(_)
        | Op::Neg
        | Op::Elu
        | Op::Sigmoid
        | Op::Tanh
        | Op::Exp
        | Op::Sqrt => &[0],
        Op::AddRowBroadcast | Op::AddColBroadcast => &[0],
        // These read a parent value (or shape) in backward — inference only.
        Op::Mul | Op::Div if !training => &[0, 1],
        Op::Relu | Op::Square | Op::Abs | Op::MulColBroadcast if !training => &[0],
        _ => &[],
    }
}

/// Whether an op's *own* backward can still run after its value slot was
/// handed to a consumer (the slot then holds the shared placeholder).
/// True when the backward formula never reads the node's output value or
/// shape.
fn backward_survives_steal(op: &Op) -> bool {
    matches!(
        op,
        Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Div
            | Op::AddScalar(_)
            | Op::MulScalar(_)
            | Op::Neg
            | Op::Matmul
            | Op::Transpose
            | Op::SliceRows { .. }
            | Op::Relu
            | Op::Square
            | Op::Abs
            | Op::AddRowBroadcast
            | Op::AddColBroadcast
            | Op::MulColBroadcast
            | Op::SumAll
            | Op::MeanAll
            | Op::SumCols
            | Op::SumRows
    )
}

/// In-place rewrites: a node whose parent's value dies at this op (single
/// reader, unpinned, recomputed every forward) steals that parent's buffer
/// and overwrites it instead of cycling a fresh one through the pool —
/// one less live buffer per op.
///
/// Bit-identity: the in-place kernels apply the identical scalar formula
/// per element (`out[i] = a[i] ⊕ b[i]` becomes `a[i] = a[i] ⊕ b[i]`); no
/// accumulation order changes.
///
/// Legality: the stolen parent `q` is compute-bound (recomputed each
/// forward), unpinned, read by this node alone (exactly once), same shape
/// as the output, its own backward survives the steal
/// ([`backward_survives_steal`]), its buffer is not shared (`Reshape`
/// aliases its parent's storage, so reshapes are excluded as `q`), and
/// this op's backward never reads the stolen value ([`in_place_slots`]).
pub(crate) fn mark_in_place(plan: &mut Plan) {
    let readers = value_readers(plan);
    let pinned = pinned(plan);
    let training = plan.loss.is_some();
    for id in 0..plan.nodes.len() {
        let node = &plan.nodes[id];
        if !matches!(node.binding, NodeBinding::Compute) {
            continue;
        }
        for &slot in in_place_slots(&node.op, training) {
            let q = node.parents[slot];
            let qn = &plan.nodes[q];
            if matches!(qn.binding, NodeBinding::Compute)
                && !matches!(
                    qn.op,
                    Op::Reshape(_) | Op::SliceRows { .. } | Op::Dropout { .. }
                )
                && !pinned[q]
                && readers[q].len() == 1
                && qn.shape == node.shape
                && (!training || backward_survives_steal(&qn.op))
            {
                plan.in_place[id] = Some(slot);
                break;
            }
        }
    }
}
