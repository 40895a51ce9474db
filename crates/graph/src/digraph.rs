// sound: allow-file(L002, L004): BUFFERS-SIZED-AT-CONSTRUCTION — adjacency/CSR
// buffers are sized n*n (or by degree sums) immediately before the loops that
// index them; `from_vec` receives vectors of exactly that length.
//! A compact weighted digraph in CSR form.

use stgnn_tensor::{Error, Shape, Tensor};

/// A directed weighted graph over nodes `0..n` stored in compressed sparse
/// row form. Edges are `(src → dst, weight)`; station graphs in this
/// reproduction are small (n in the tens to hundreds), so dense exports for
/// GNN layers are cheap, but CSR keeps neighbour iteration allocation-free
/// for aggregators and case-study queries.
#[derive(Debug, Clone)]
pub struct DiGraph {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    weights: Vec<f32>,
}

impl DiGraph {
    /// Builds a graph from an edge list. Duplicate edges accumulate their
    /// weights; self-loops are allowed.
    ///
    /// # Panics
    /// Panics when an endpoint is out of `0..n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f32)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(s, d, _) in edges {
            assert!(s < n && d < n, "edge ({s},{d}) out of bounds for {n} nodes");
            counts[s + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts;
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; edges.len()];
        let mut weights = vec![0.0f32; edges.len()];
        for &(s, d, w) in edges {
            let at = cursor[s];
            col_idx[at] = d;
            weights[at] = w;
            cursor[s] += 1;
        }
        // Merge duplicates within each row for deterministic weights.
        let mut g = DiGraph {
            n,
            row_ptr,
            col_idx,
            weights,
        };
        g.dedup_rows();
        g
    }

    /// Builds a graph from a dense adjacency matrix, keeping entries with
    /// `|w| > threshold`.
    pub fn from_dense(adj: &Tensor, threshold: f32) -> Self {
        let (r, c) = adj
            .shape()
            .as_matrix("from_dense")
            .expect("adjacency must be square");
        assert_eq!(r, c, "adjacency must be square, got {r}×{c}");
        let mut edges = Vec::new();
        for i in 0..r {
            for (j, &w) in adj.row(i).iter().enumerate() {
                if w.abs() > threshold {
                    edges.push((i, j, w));
                }
            }
        }
        Self::from_edges(r, &edges)
    }

    fn dedup_rows(&mut self) {
        let mut new_ptr = vec![0usize; self.n + 1];
        let mut new_idx = Vec::with_capacity(self.col_idx.len());
        let mut new_w = Vec::with_capacity(self.weights.len());
        for s in 0..self.n {
            let lo = self.row_ptr[s];
            let hi = self.row_ptr[s + 1];
            let mut row: Vec<(usize, f32)> = self.col_idx[lo..hi]
                .iter()
                .copied()
                .zip(self.weights[lo..hi].iter().copied())
                .collect();
            row.sort_by_key(|&(d, _)| d);
            let mut merged: Vec<(usize, f32)> = Vec::with_capacity(row.len());
            for (d, w) in row {
                match merged.last_mut() {
                    Some((ld, lw)) if *ld == d => *lw += w,
                    _ => merged.push((d, w)),
                }
            }
            for (d, w) in merged {
                new_idx.push(d);
                new_w.push(w);
            }
            new_ptr[s + 1] = new_idx.len();
        }
        self.row_ptr = new_ptr;
        self.col_idx = new_idx;
        self.weights = new_w;
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of (deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-neighbours of `s` with weights.
    pub fn neighbors(&self, s: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[s];
        let hi = self.row_ptr[s + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of `s`.
    pub fn out_degree(&self, s: usize) -> usize {
        self.row_ptr[s + 1] - self.row_ptr[s]
    }

    /// Weight of edge `s → d`, 0.0 when absent.
    pub fn weight(&self, s: usize, d: usize) -> f32 {
        self.neighbors(s)
            .find(|&(j, _)| j == d)
            .map_or(0.0, |(_, w)| w)
    }

    /// True when edge `s → d` exists.
    pub fn has_edge(&self, s: usize, d: usize) -> bool {
        self.neighbors(s).any(|(j, _)| j == d)
    }

    /// Dense adjacency matrix `A[i][j] = w(i→j)`.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(Shape::matrix(self.n, self.n));
        let buf = out.data_mut();
        for s in 0..self.n {
            for (d, w) in self.neighbors(s) {
                buf[s * self.n + d] = w;
            }
        }
        out
    }

    /// Symmetric GCN normalisation `D^{-1/2} (A + I) D^{-1/2}` over the
    /// binarised adjacency (Kipf–Welling). Dense output for GNN layers.
    pub fn gcn_normalized(&self) -> Tensor {
        let n = self.n;
        let mut a = vec![0.0f32; n * n];
        for s in 0..n {
            a[s * n + s] = 1.0;
            for (d, _) in self.neighbors(s) {
                a[s * n + d] = 1.0;
            }
        }
        let mut deg = vec![0.0f32; n];
        for i in 0..n {
            deg[i] = a[i * n..(i + 1) * n].iter().sum::<f32>();
        }
        let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.sqrt()).collect();
        for (i, &si) in inv_sqrt.iter().enumerate() {
            for (v, &sj) in a[i * n..(i + 1) * n].iter_mut().zip(&inv_sqrt) {
                *v *= si * sj;
            }
        }
        Tensor::from_vec(Shape::matrix(n, n), a).expect("gcn_normalized shape")
    }

    /// Row-stochastic adjacency `D^{-1} (A + I)` over edge weights:
    /// each row is a convex combination over the out-neighbourhood plus a
    /// unit self-loop (the paper's Eq 10 normalisation).
    ///
    /// Returns [`Error::InvalidArgument`] when any edge weight is negative:
    /// a fused-flow matrix that skipped its ReLU (Eq 9) would otherwise be
    /// normalised against a sum that silently dropped the negative mass,
    /// producing rows that are no longer convex combinations of the visible
    /// weights. Callers must rectify weights before normalising.
    pub fn row_normalized(&self) -> stgnn_tensor::Result<Tensor> {
        let n = self.n;
        let mut a = vec![0.0f32; n * n];
        for s in 0..n {
            a[s * n + s] = 1.0;
            for (d, w) in self.neighbors(s) {
                if w < 0.0 {
                    return Err(Error::InvalidArgument(format!(
                        "row_normalized: negative weight {w} on edge {s}→{d}; \
                         rectify weights (Eq 9 ReLU) before normalising"
                    )));
                }
                a[s * n + d] += w;
            }
            let sum: f32 = a[s * n..(s + 1) * n].iter().sum();
            for v in &mut a[s * n..(s + 1) * n] {
                *v /= sum;
            }
        }
        Tensor::from_vec(Shape::matrix(n, n), a)
    }

    /// Binary mask of the adjacency with self-loops: 1.0 where an edge (or
    /// the diagonal) exists. Used for masked attention.
    pub fn mask_with_self_loops(&self) -> Tensor {
        let n = self.n;
        let mut m = vec![0.0f32; n * n];
        for s in 0..n {
            m[s * n + s] = 1.0;
            for (d, _) in self.neighbors(s) {
                m[s * n + d] = 1.0;
            }
        }
        Tensor::from_vec(Shape::matrix(n, n), m).expect("mask shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 3.0)])
    }

    #[test]
    fn csr_roundtrip() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.weight(0, 2), 2.0);
        assert_eq!(g.weight(2, 0), 0.0);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(3, 1));
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let g = DiGraph::from_edges(2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.weight(0, 1), 3.5);
    }

    #[test]
    fn dense_round_trip() {
        let g = diamond();
        let dense = g.to_dense();
        let g2 = DiGraph::from_dense(&dense, 0.0);
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.weight(2, 3), 3.0);
    }

    #[test]
    fn from_dense_thresholds() {
        let adj = Tensor::from_rows(&[&[0.0, 0.05], &[0.5, 0.0]]);
        let g = DiGraph::from_dense(&adj, 0.1);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn gcn_normalization_is_symmetric_and_bounded() {
        let g = diamond();
        let a = g.gcn_normalized();
        for i in 0..4 {
            assert!(a.get2(i, i) > 0.0, "self-loop missing at {i}");
            for j in 0..4 {
                assert!(a.get2(i, j) >= 0.0 && a.get2(i, j) <= 1.0);
            }
        }
        // Normalisation of the symmetrised (binary + self-loop) structure is
        // symmetric wherever both directions exist.
        assert!((a.get2(0, 0) - 1.0 / 3.0).abs() < 1e-6); // deg(0)=3 (self+2)
    }

    #[test]
    fn row_normalized_rows_are_distributions() {
        let g = diamond();
        let a = g.row_normalized().unwrap();
        for i in 0..4 {
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {i} sums to {sum}");
            assert!(a.row(i).iter().all(|&v| v >= 0.0));
        }
        // node 3 has no out-edges → pure self-loop
        assert_eq!(a.get2(3, 3), 1.0);
    }

    /// Regression: negative weights used to be silently clamped to zero
    /// *after* the self-loop insert, normalising rows against a sum that no
    /// longer matched the visible weights. They must be rejected instead.
    #[test]
    fn negative_weights_rejected_in_row_normalization() {
        let g = DiGraph::from_edges(2, &[(0, 1, -5.0)]);
        let err = g.row_normalized().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("negative weight"), "unhelpful error: {msg}");
        assert!(msg.contains("0→1"), "error must name the edge: {msg}");
        // Rectified weights normalise fine.
        let ok = DiGraph::from_edges(2, &[(0, 1, 5.0)]);
        assert!(ok.row_normalized().is_ok());
    }

    #[test]
    fn mask_and_neighborhoods() {
        let g = diamond();
        let m = g.mask_with_self_loops();
        assert_eq!(m.get2(0, 0), 1.0);
        assert_eq!(m.get2(0, 1), 1.0);
        assert_eq!(m.get2(1, 0), 0.0);
        // Each row is the node's neighbourhood including itself.
        assert_eq!(m.row(0), &[1.0, 1.0, 1.0, 0.0]);
        assert_eq!(m.row(3), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        DiGraph::from_edges(2, &[(0, 5, 1.0)]);
    }
}
