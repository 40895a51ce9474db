// sound: allow-file(L004): SHAPE-CHECKED-KERNEL-INDEX — every index here is a
// station id or a row/col bound checked against the tensor shapes the caller
// supplies.
//! Bitwise sharding machinery for the FCG stage, and the parity argument.
//!
//! ## Why sharding can be *bit-exact*, not merely approximate
//!
//! The FCG aggregation (Eq 14 via the Eq 10 weights) is row-local: row `i`
//! of one layer reads only rows `j` with `mask[i][j] > 0` of the previous
//! layer. Entries of the Eq 10 weight matrix outside the mask are exactly
//! `+0.0` (they are `ReLU(T)·0 + 0`), and the dense kernels accumulate each
//! output row over ascending inner index starting from `+0.0` with every
//! partial sum non-negative where it matters:
//!
//! * the row sums of `ReLU(T)⊙M + I` add only values `≥ +0.0`, so dropping
//!   exact-`+0.0` terms leaves every partial sum bitwise unchanged
//!   (`x + 0.0 == x` for `x ≥ +0.0`);
//! * the aggregation matmul drops only terms whose *weight* is `+0.0`; a
//!   `±0.0` product can never flip a running sum's bits (`x + ±0.0 == x`
//!   for `x ≠ -0.0`, and an all-non-negative-weight accumulation never
//!   produces `-0.0`).
//!
//! Therefore, if a shard's member set contains the `L`-hop mask closure of
//! its owned stations (`L` = number of FCG layers — the shard is
//! **halo-complete** for the slot), running the stage on the member-induced
//! submatrices yields owned rows **bit-identical** to the full-city run.
//! The stage is [`stgnn_core::fcg::FcgNetwork::forward`] itself, which
//! takes the Eq 10 edge matrix and the feature rows as separate inputs:
//! `tests/shard_parity.rs` at the workspace root runs it on `T` for the
//! full city and on `T`'s member-induced submatrix ([`induce_square`]) and
//! member rows ([`induce_rows`]) for a shard, and asserts bit-equality on
//! owned rows.
//!
//! The gate/projection stages before (Eqs 5–9) and the PCG branch's dense
//! attention are global in the station dimension and are *replicated*, not
//! sharded — DESIGN.md §11 spells out the boundary.

use stgnn_tensor::{Shape, Tensor};

/// Gathers `rows` of `t` (full width) into a new `rows.len() × cols` tensor.
pub fn induce_rows(t: &Tensor, rows: &[usize]) -> Tensor {
    let cols = t.shape().cols();
    let mut out = Tensor::zeros(Shape::matrix(rows.len(), cols));
    let buf = out.data_mut();
    for (li, &r) in rows.iter().enumerate() {
        buf[li * cols..(li + 1) * cols].copy_from_slice(t.row(r));
    }
    out
}

/// Induces the square submatrix of `t` on `idx` (both rows and columns).
pub fn induce_square(t: &Tensor, idx: &[usize]) -> Tensor {
    let m = idx.len();
    let mut out = Tensor::zeros(Shape::matrix(m, m));
    let buf = out.data_mut();
    for (li, &r) in idx.iter().enumerate() {
        for (lj, &c) in idx.iter().enumerate() {
            buf[li * m + lj] = t.get2(r, c);
        }
    }
    out
}

/// The `depth`-hop closure of `seeds` under the mask graph (row `i` reads
/// the columns `j` with `mask[i][j] > 0`). Returns a sorted station list
/// including the seeds themselves.
pub fn mask_closure(mask: &Tensor, seeds: &[usize], depth: usize) -> Vec<usize> {
    let n = mask.shape().rows();
    let mut dist = vec![usize::MAX; n];
    let mut frontier: Vec<usize> = Vec::new();
    for &s in seeds {
        if dist[s] == usize::MAX {
            dist[s] = 0;
            frontier.push(s);
        }
    }
    for d in 0..depth {
        let mut next = Vec::new();
        for &v in &frontier {
            for (j, &m) in mask.row(v).iter().enumerate() {
                if m > 0.0 && dist[j] == usize::MAX {
                    dist[j] = d + 1;
                    next.push(j);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    (0..n).filter(|&v| dist[v] != usize::MAX).collect()
}

/// Whether `members` contains the `depth`-hop mask closure of `owned` —
/// the condition under which the sharded FCG stage is bit-exact on owned
/// rows (see the module docs).
pub fn halo_complete(mask: &Tensor, owned: &[usize], members: &[usize], depth: usize) -> bool {
    mask_closure(mask, owned, depth)
        .iter()
        .all(|v| members.binary_search(v).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn induce_helpers_pick_the_right_entries() {
        let t = Tensor::from_rows(&[
            &[0.0, 1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0, 7.0],
            &[8.0, 9.0, 10.0, 11.0],
            &[12.0, 13.0, 14.0, 15.0],
        ]);
        let rows = induce_rows(&t, &[2, 0]);
        assert_eq!(rows.row(0), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(rows.row(1), &[0.0, 1.0, 2.0, 3.0]);
        let sq = induce_square(&t, &[1, 3]);
        assert_eq!(sq.row(0), &[5.0, 7.0]);
        assert_eq!(sq.row(1), &[13.0, 15.0]);
    }

    #[test]
    fn mask_closure_walks_rows() {
        // 0 → 1 → 2, 3 isolated (self-loops everywhere, as fcg_mask emits).
        let mask = Tensor::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        assert_eq!(mask_closure(&mask, &[0], 0), vec![0]);
        assert_eq!(mask_closure(&mask, &[0], 1), vec![0, 1]);
        assert_eq!(mask_closure(&mask, &[0], 2), vec![0, 1, 2]);
        assert_eq!(mask_closure(&mask, &[0], 9), vec![0, 1, 2]);
        assert!(halo_complete(&mask, &[0], &[0, 1, 2], 2));
        assert!(!halo_complete(&mask, &[0], &[0, 1], 2));
    }
}
