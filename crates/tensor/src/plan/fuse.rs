// lint: allow-file(L004): chain discovery walks node/parent ids already
// validated against the tape by `Plan::compile`.
//! Elementwise-chain fusion: collapse `lead → map → map → …` chains into
//! one cache-resident sweep per chain.
//!
//! A chain is a zip (`add`/`sub`/`mul`/`div`), broadcast (`+row`/`+col`/
//! `×col`) or unary-map lead followed by one or more unary map stages,
//! where every link is the *only* reader of the previous node's value.
//! Eager replay materialises a full tensor per link — each a round trip
//! through the buffer pool and a full pass over memory. The fused sweep
//! computes the whole chain per element in registers, writing only the
//! final node's slot.
//!
//! **Backward bit-identity.** All interior gradient traffic of a chain is
//! private to it (each link's backward deposits only into the previous
//! link), so the only externally visible deposits are the lead's — and
//! those must land at the lead's eager sweep position, possibly many sweep
//! steps after the chain output's. The fused backward therefore runs in
//! two parts: at the *out* node's sweep position it recomputes the chain
//! per element and folds the output gradient down to the lead, storing the
//! result in the lead's grad slot; when the sweep later reaches the lead,
//! the stored gradient is released — relayed to the parent for a unary
//! lead (it is already folded through the lead's own map), or pushed
//! through the lead's own backward (`Op::backprop`) for zip/broadcast
//! leads (none of which read the lead's own never-computed output value).
//! The fold calls the same scalar [`MapOp`] formulas the op-at-a-time
//! kernels call, and the recomputed intermediates are bit-identical to the
//! slot values eager backward would read, so the deposited bits match.
//!
//! Legality: lead and interior nodes are compute-bound, still
//! [`Role::Eager`], unpinned, and read by exactly their successor; stages
//! are unary [`MapOp`]s (never `Dropout` — the RNG stream contract);
//! chains cap at [`MAX_STAGES`] stages so backward intermediates fit a
//! stack array. The final node may be pinned or multi-consumer — its value
//! is fully computed.

use super::ir::{FusedChain, LeadKind, NodeBinding, Role, MAX_STAGES};
use super::passes::{pinned, value_readers};
use super::Plan;
use crate::autograd::Op;
use crate::op::{MapOp, ZipOp};

/// What kind of chain lead this op can be, if any.
fn lead_kind(op: &Op) -> Option<LeadKind> {
    if let Some(z) = ZipOp::from_op(op) {
        return Some(LeadKind::Zip(z));
    }
    Some(match op {
        Op::AddRowBroadcast => LeadKind::AddRow,
        Op::AddColBroadcast => LeadKind::AddCol,
        Op::MulColBroadcast => LeadKind::MulCol,
        _ => LeadKind::Map(MapOp::from_op(op)?),
    })
}

/// Runs chain discovery, annotating roles and filling `plan.chains`.
/// Returns `(chains, total nodes fused)`.
pub(crate) fn fuse_chains(plan: &mut Plan) -> (usize, usize) {
    let readers = value_readers(plan);
    let pinned = pinned(plan);
    let n = plan.nodes.len();
    let mut taken = vec![false; n];
    let eager_compute = |plan: &Plan, id: usize| -> bool {
        matches!(plan.nodes[id].binding, NodeBinding::Compute) && plan.nodes[id].role == Role::Eager
    };
    let mut fused_ops = 0;

    for lead in 0..n {
        if taken[lead] || !eager_compute(plan, lead) || pinned[lead] {
            continue;
        }
        let Some(kind) = lead_kind(&plan.nodes[lead].op) else {
            continue;
        };
        // The lead's value is never computed, so it must die here: exactly
        // one reader, which must be a fusable map stage.
        if readers[lead].len() != 1 {
            continue;
        }
        let mut stages: Vec<MapOp> = Vec::new();
        let mut members = vec![lead];
        let mut cur = lead;
        loop {
            if stages.len() == MAX_STAGES {
                break;
            }
            // Interior nodes (everything fused so far except a completed
            // chain's final stage) must die into their successor.
            if readers[cur].len() != 1 || (cur != lead && pinned[cur]) {
                break;
            }
            let next = readers[cur][0];
            if taken[next]
                || !eager_compute(plan, next)
                || plan.nodes[next].parents != [cur]
                || matches!(plan.nodes[next].op, Op::Dropout { .. })
            {
                break;
            }
            let Some(m) = MapOp::from_op(&plan.nodes[next].op) else {
                break;
            };
            stages.push(m);
            members.push(next);
            cur = next;
        }
        if stages.is_empty() {
            continue; // nothing to fuse past the lead
        }
        let out = cur;
        let parents = &plan.nodes[lead].parents;
        let (src, relay) = match kind {
            LeadKind::Map(_) => ((parents[0], None), true),
            _ => ((parents[0], Some(parents[1])), false),
        };
        let chain_idx = plan.chains.len();
        plan.chains.push(FusedChain {
            lead,
            out,
            kind,
            src,
            stages,
        });
        plan.nodes[lead].role = Role::FusedLead { relay };
        for &m in &members[1..members.len() - 1] {
            plan.nodes[m].role = Role::Erased;
        }
        plan.nodes[out].role = Role::FusedOut { chain: chain_idx };
        fused_ops += plan.chains[chain_idx].members();
        for &m in &members {
            taken[m] = true;
        }
    }
    (plan.chains.len(), fused_ops)
}
