// sound: allow-file(L004): NODE-IDS-BELOW-N — neighbourhood indices come from
// the graph's own node range, and each row chunk is `n` wide.
//! The GraphSAGE mean aggregator over a fixed [`DiGraph`].
//!
//! **Mean** — elementwise mean of the node's own embedding and its
//! neighbours' (Hamilton et al. 2017). The model's own §VII-G aggregator
//! study swaps aggregators inside `stgnn-core` (`fcg.rs`, `pcg.rs`), over
//! the per-slot flow graph rather than a fixed one.

use crate::digraph::DiGraph;
use stgnn_tensor::autograd::{Graph, Var};
use stgnn_tensor::{par, Shape, Tensor};

/// Mean aggregator: `Aggr_i = mean({h_i} ∪ {h_j : j ∈ N(i)})`.
///
/// Implemented as one matmul with a precomputed row-stochastic
/// (uniform-weight) neighbourhood matrix.
pub struct MeanAggregator {
    avg: Tensor,
}

impl MeanAggregator {
    /// Builds the averaging matrix from `graph`'s out-neighbourhoods.
    /// Rows are independent, so the build chunks across the kernel pool.
    pub fn new(graph: &DiGraph) -> Self {
        let n = graph.num_nodes();
        let hoods = graph.neighborhoods_with_self();
        let mut avg = Tensor::zeros(Shape::matrix(n, n));
        par::for_each_row_chunk_mut(avg.data_mut(), n, 16, |first_row, window| {
            for (r, row) in window.chunks_mut(n).enumerate() {
                let hood = &hoods[first_row + r];
                let w = 1.0 / hood.len() as f32;
                for &j in hood {
                    row[j] = w;
                }
            }
        });
        MeanAggregator { avg }
    }

    /// Aggregates node features `h ∈ R^{n×f}`.
    pub fn forward(&self, g: &Graph, h: &Var) -> Var {
        g.leaf(self.avg.clone()).matmul(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> DiGraph {
        DiGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])
    }

    #[test]
    fn mean_aggregator_averages_neighborhood() {
        let agg = MeanAggregator::new(&graph());
        let g = Graph::new();
        let h = g.leaf(Tensor::from_rows(&[&[2.0], &[4.0], &[9.0]]));
        let out = agg.forward(&g, &h).value();
        assert!((out.get2(0, 0) - 3.0).abs() < 1e-6); // mean(2,4)
        assert!((out.get2(1, 0) - 6.5).abs() < 1e-6); // mean(4,9)
        assert!((out.get2(2, 0) - 9.0).abs() < 1e-6); // isolated → self
    }

    /// The graph-layer half of the `tensor::par` determinism contract:
    /// building and applying the averaging matrix must be bit-for-bit
    /// identical at 1 thread and 4 threads, even on graphs large enough to
    /// cross the parallel dispatch thresholds.
    #[test]
    fn mean_aggregator_is_bitwise_identical_across_thread_counts() {
        let n = 80;
        let edges: Vec<(usize, usize, f32)> = (0..n)
            .flat_map(|i| {
                (1..=5usize).map(move |k| (i, (i * 7 + k * 13) % n, 1.0 + (k as f32) * 0.5))
            })
            .collect();
        let graph = DiGraph::from_edges(n, &edges);
        let h = Tensor::from_vec(
            Shape::matrix(n, 3),
            (0..n * 3)
                .map(|i| (i as f32 * 0.37).sin())
                .collect::<Vec<_>>(),
        )
        .unwrap();

        let run = || {
            let agg = MeanAggregator::new(&graph);
            let g = Graph::new();
            let out = agg.forward(&g, &g.leaf(h.clone())).value();
            (agg.avg, out)
        };
        stgnn_tensor::par::set_thread_override(Some(1));
        let (avg1, out1) = run();
        stgnn_tensor::par::set_thread_override(Some(4));
        let (avg4, out4) = run();
        stgnn_tensor::par::set_thread_override(None);
        assert_eq!(avg1.data(), avg4.data(), "avg matrix differs by threads");
        assert_eq!(out1.data(), out4.data(), "forward differs by threads");
    }
}
