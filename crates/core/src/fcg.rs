//! The flow-convoluted graph and its aggregator stack (§IV-B1, §V-B).
//!
//! Edges follow Definition 2: station `j` influences `i` when the fused
//! inflow `Î[i][j]` or fused outflow `Ô[j][i]` is positive; edge weights are
//! the row-normalised station features (Eq 10), so each aggregation step
//! (Eq 14) takes a convex combination of neighbour embeddings weighted by
//! flow. A layer then applies `F^k = σ(Aggr(F^{k-1}) · W^k)` (Eq 13; we
//! right-multiply because node features are rows).
//!
//! ### Interpretation notes (documented in DESIGN.md)
//!
//! Eq 10 normalises rows of `T`, but `T` from Eq 9 is unconstrained, so raw
//! normalisation could produce negative or unbounded "probabilities". We
//! apply `ReLU` before normalising and ε-guard the row sums, keeping weights
//! a convex combination as the flow-aggregation intuition requires. The
//! structural mask (positive fused flow) is computed from forward *values*
//! and does not carry gradient — it is graph structure, not a parameter.
//! It enters the tape as a leaf that a compiled plan re-derives each
//! replay; the max aggregator pools over that leaf directly, and the mean
//! aggregator's adjacency is derived from it the same way.
//!
//! Eq 14 aggregates over `{F_i} ∪ {F_j : j ∈ N(i)}` — the node itself is
//! explicitly in the set — but Eq 10's weight for the self edge is the
//! normalised *self-flow* `T_ii`, which is ≈ 0 (nobody rides a bike from a
//! dock to itself). Taken literally, that erases every station's own
//! embedding in one layer and measurably cripples training. We therefore
//! give the self-loop a unit weight before row-normalising
//! (`D⁻¹(ReLU(T)⊙M + I)`, the same convention GCN uses), which realises the
//! "{F_i} ∪ neighbours" set faithfully.

use crate::compiled::{derived_leaf, ForwardTrace};
use crate::config::{FcgAggregator, StgnnConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::rc::Rc;
use stgnn_tensor::autograd::{Graph, Param, ParamSet, Var};
use stgnn_tensor::nn::{he_uniform, Linear};
use stgnn_tensor::{Shape, Tensor};

enum LayerKind {
    /// Eq 14: weights from the normalised feature matrix.
    Flow { w: Rc<Param> },
    /// §VII-G mean aggregator over the same dynamic neighbourhoods.
    Mean { w: Rc<Param> },
    /// §VII-G max aggregator: shared FC then elementwise max-pool.
    Max { fc: Linear, w: Rc<Param> },
}

/// The FCG branch: `fcg_layers` aggregation layers over the dynamic flow
/// graph, producing the flow-side station embedding `F^f`.
pub struct FcgNetwork {
    layers: Vec<LayerKind>,
    dropout: f32,
}

impl FcgNetwork {
    /// Builds the branch per the configuration (depth and aggregator).
    pub fn new(params: &mut ParamSet, rng: &mut impl Rng, config: &StgnnConfig, n: usize) -> Self {
        let layers = (0..config.fcg_layers)
            .map(|k| match config.fcg_aggregator {
                FcgAggregator::Flow => LayerKind::Flow {
                    w: params.add(format!("fcg.{k}.w"), he_uniform(rng, n, n)),
                },
                FcgAggregator::Mean => LayerKind::Mean {
                    w: params.add(format!("fcg.{k}.w"), he_uniform(rng, n, n)),
                },
                FcgAggregator::Max => LayerKind::Max {
                    fc: Linear::new(params, rng, &format!("fcg.{k}.fc"), n, n, true),
                    w: params.add(format!("fcg.{k}.w"), he_uniform(rng, n, n)),
                },
            })
            .collect();
        FcgNetwork {
            layers,
            dropout: config.dropout,
        }
    }

    /// Runs the branch over the flow convolution's `n×n` feature matrix
    /// `T`: the Eq 10 edge weights derive from it, and its rows are the
    /// features the first layer aggregates. `mask` is the structural mask
    /// from [`crate::flow_conv::fcg_mask`]. `train_rng` enables dropout
    /// between layers.
    ///
    /// Returns the final embedding `F^f`, one row per station.
    pub fn forward(
        &self,
        g: &Graph,
        t: &Var,
        mask: &Tensor,
        train_rng: Option<&mut StdRng>,
    ) -> Var {
        self.forward_traced(g, t, &g.leaf(mask.clone()), train_rng, None)
    }

    /// [`Self::forward`] over a mask already on the tape (the model's
    /// derived mask leaf), recording into `trace` how the mean layers'
    /// adjacency derives from it so a replay plan re-derives it per slot.
    pub fn forward_traced(
        &self,
        g: &Graph,
        t: &Var,
        mask: &Var,
        mut train_rng: Option<&mut StdRng>,
        trace: Option<&mut ForwardTrace>,
    ) -> Var {
        let n = mask.shape().rows();
        // Eq 10 edge weights, shared by all layers of this forward pass:
        // row-normalised ReLU(T) restricted to the structural mask, plus a
        // unit self-loop (the `{F_i} ∪ …` of Eq 14 — see the module docs).
        let eye = g.leaf(Tensor::eye(n));
        let raw = t.relu().mul(mask).add(&eye);
        let sums = raw.sum_cols().add_scalar(1e-6);
        let inv = g.leaf(Tensor::ones(Shape::matrix(n, 1))).div(&sums);
        let weights = raw.mul_col_broadcast(&inv);
        // The mean layers' adjacency, a pure function of the mask.
        let mean_adj = self
            .layers
            .iter()
            .any(|l| matches!(l, LayerKind::Mean { .. }))
            .then(|| derived_leaf(g, trace, [mask], |[m]| fcg_mean_adj(m)));

        let mut f = t.clone();
        for (idx, layer) in self.layers.iter().enumerate() {
            let aggregated = match layer {
                LayerKind::Flow { .. } => weights.matmul(&f),
                LayerKind::Mean { .. } => mean_adj
                    .as_ref()
                    .expect("derived for mean layers above")
                    .matmul(&f),
                LayerKind::Max { fc, .. } => fc.forward(g, &f).relu().rows_max_pool(mask),
            };
            let w = match layer {
                LayerKind::Flow { w } | LayerKind::Mean { w } | LayerKind::Max { w, .. } => w,
            };
            f = aggregated.matmul(&g.param(w)).relu();
            // Dropout between layers (not after the last — its output feeds
            // the predictor through the concat of Eq 19).
            if idx + 1 < self.layers.len() {
                if let Some(rng) = train_rng.as_deref_mut() {
                    f = f.dropout(self.dropout, rng);
                }
            }
        }
        f
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// The mean-aggregator adjacency for the masked flow graph: row `i` puts
/// weight `1/|N(i)|` on each neighbour `j` (`mask[i][j] > 0`, the
/// `{F_i} ∪ N(i)` sets of Eq 14). A pure function of the mask, so a replay
/// plan re-derives it per slot.
pub fn fcg_mean_adj(mask: &Tensor) -> Tensor {
    let n = mask.shape().rows();
    let mut a = Tensor::zeros(Shape::matrix(n, n));
    for (i, row) in a.data_mut().chunks_mut(n).enumerate() {
        let hood = mask.row(i);
        let w = 1.0 / hood.iter().filter(|&&m| m > 0.0).count() as f32;
        for (out, _) in row.iter_mut().zip(hood).filter(|&(_, &m)| m > 0.0) {
            *out = w;
        }
    }
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pcg::tests::{matmul_f64, rows_f64};
    use rand::SeedableRng;

    const N: usize = 5;

    fn config(agg: FcgAggregator) -> StgnnConfig {
        let mut c = StgnnConfig::test_tiny(4, 2);
        c.fcg_layers = 2;
        c.fcg_aggregator = agg;
        c
    }

    fn dense_mask() -> Tensor {
        Tensor::ones(Shape::matrix(N, N))
    }

    fn feature_matrix(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..N * N).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::from_vec(Shape::matrix(N, N), data).unwrap()
    }

    /// `layers` FCG layers evaluated literally, in plain f64 loops over the
    /// parameters read from `ps` by name: Eq 10's edge weights with the unit
    /// self-loop, `D⁻¹(ReLU(T)⊙M + I)` with the 1e-6 row-sum guard; the mean
    /// adjacency `1/|N(i)|`; or the max pool of `ReLU(F·W_fc + b)` over each
    /// mask row; then Eq 13's `F^k = ReLU(Aggr(F^{k−1})·W^k)`.
    pub(crate) fn literal_fcg(
        ps: &ParamSet,
        agg: FcgAggregator,
        layers: usize,
        edges: &[Vec<f64>],
        features: &[Vec<f64>],
        mask: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let param = |name: String| {
            let p = ps.params().iter().find(|p| p.name() == name);
            rows_f64(&p.unwrap_or_else(|| panic!("no parameter {name}")).value())
        };
        let relu = |a: Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            a.into_iter()
                .map(|row| row.into_iter().map(|x| x.max(0.0)).collect())
                .collect()
        };
        let (t, m) = (edges, mask);
        let n = m.len();
        let hood = |i: usize| (0..n).filter(move |&j| m[i][j] > 0.0);
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let raw: Vec<f64> = (0..n)
                    .map(|j| t[i][j].max(0.0) * m[i][j] + if i == j { 1.0 } else { 0.0 })
                    .collect();
                let sum = raw.iter().sum::<f64>() + 1e-6;
                raw.iter().map(|x| x / sum).collect()
            })
            .collect();
        let mean_adj: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let size = hood(i).count() as f64;
                (0..n)
                    .map(|j| if m[i][j] > 0.0 { 1.0 / size } else { 0.0 })
                    .collect()
            })
            .collect();
        let mut f = features.to_vec();
        for k in 0..layers {
            let aggregated = match agg {
                FcgAggregator::Flow => matmul_f64(&weights, &f),
                FcgAggregator::Mean => matmul_f64(&mean_adj, &f),
                FcgAggregator::Max => {
                    let b = &param(format!("fcg.{k}.fc.b"))[0];
                    let fc = matmul_f64(&f, &param(format!("fcg.{k}.fc.w")));
                    let h: Vec<Vec<f64>> = fc
                        .iter()
                        .map(|row| row.iter().zip(b).map(|(x, b)| (x + b).max(0.0)).collect())
                        .collect();
                    let pool =
                        |i: usize, c: usize| hood(i).map(|j| h[j][c]).fold(f64::MIN, f64::max);
                    (0..n)
                        .map(|i| (0..n).map(|c| pool(i, c)).collect())
                        .collect()
                }
            };
            f = relu(matmul_f64(&aggregated, &param(format!("fcg.{k}.w"))));
        }
        f
    }

    /// Eq 10's self-looped, masked, row-normalised weights, the mean and max
    /// aggregators, and Eq 13's layer must compute what the equations print,
    /// for every aggregator over two layers.
    #[test]
    fn forward_matches_a_literal_eq_10_13_14_evaluation() {
        let t = feature_matrix(21);
        let mut rng = StdRng::seed_from_u64(23);
        let mask: Vec<f32> = (0..N * N)
            .map(|k| f32::from(u8::from(k % (N + 1) == 0 || rng.gen_bool(0.5))))
            .collect();
        let mask = Tensor::from_vec(Shape::matrix(N, N), mask).unwrap();
        assert!(t.data().iter().any(|&x| x < 0.0) && mask.data().contains(&0.0));
        for agg in [FcgAggregator::Flow, FcgAggregator::Mean, FcgAggregator::Max] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(24);
            let net = FcgNetwork::new(&mut ps, &mut rng, &config(agg), N);
            let g = Graph::new();
            let out = net.forward(&g, &g.leaf(t.clone()), &mask, None).value();
            let t_rows = rows_f64(&t);
            let want = literal_fcg(&ps, agg, net.depth(), &t_rows, &t_rows, &rows_f64(&mask));
            assert!(want.iter().flatten().any(|&w| w > 0.0), "{agg:?}: all zero");
            for (i, want_row) in want.iter().enumerate() {
                for (j, &w) in want_row.iter().enumerate() {
                    let v = f64::from(out.get2(i, j));
                    assert!(
                        (v - w).abs() <= 1e-4,
                        "{agg:?}: F^f[{i}][{j}] = {v}, the literal Eqs 10, 13 and 14 give {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_shapes_for_every_aggregator() {
        for agg in [FcgAggregator::Flow, FcgAggregator::Mean, FcgAggregator::Max] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(1);
            let net = FcgNetwork::new(&mut ps, &mut rng, &config(agg), N);
            assert_eq!(net.depth(), 2);
            let g = Graph::new();
            let t = g.leaf(feature_matrix(2));
            let out = net.forward(&g, &t, &dense_mask(), None);
            assert_eq!(out.value().shape().dims(), &[N, N], "{agg:?}");
        }
    }

    #[test]
    fn gradients_flow_through_each_aggregator() {
        for agg in [FcgAggregator::Flow, FcgAggregator::Mean, FcgAggregator::Max] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(7);
            let net = FcgNetwork::new(&mut ps, &mut rng, &config(agg), N);
            let g = Graph::new();
            let p = Param::new("t", feature_matrix(8).relu().add_scalar(0.1));
            let t = g.param(&p);
            net.forward(&g, &t, &dense_mask(), None)
                .square()
                .sum_all()
                .backward();
            assert!(
                ps.grad_norm() > 0.0,
                "{agg:?}: no gradient to layer weights"
            );
            assert!(
                p.grad().frobenius_norm() > 0.0,
                "{agg:?}: no gradient to features"
            );
        }
    }

    #[test]
    fn flow_aggregation_respects_mask_structure() {
        // Node 1 is isolated (only self-loop): its aggregated value must not
        // depend on node 0's features.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = config(FcgAggregator::Flow);
        c.fcg_layers = 1;
        let net = FcgNetwork::new(&mut ps, &mut rng, &c, 2);
        // Identity layer weight isolates the aggregation itself.
        ps.params()[0].set_value(Tensor::eye(2));
        let mask = Tensor::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let g = Graph::new();
        let t_a = g.leaf(Tensor::from_rows(&[&[1.0, 1.0], &[0.3, 0.7]]));
        let t_b = g.leaf(Tensor::from_rows(&[&[9.0, 9.0], &[0.3, 0.7]]));
        let out_a = net.forward(&g, &t_a, &mask, None).value();
        let out_b = net.forward(&g, &t_b, &mask, None).value();
        assert!(
            out_a
                .row(1)
                .iter()
                .zip(out_b.row(1))
                .all(|(a, b)| (a - b).abs() < 1e-6),
            "isolated node leaked neighbour features"
        );
        assert!(
            out_a
                .row(0)
                .iter()
                .zip(out_b.row(0))
                .any(|(a, b)| (a - b).abs() > 1e-3),
            "connected node ignored neighbour features"
        );
    }

    #[test]
    fn dropout_only_in_training_mode() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut c = config(FcgAggregator::Flow);
        c.dropout = 0.5;
        c.fcg_layers = 3;
        let net = FcgNetwork::new(&mut ps, &mut rng, &c, N);
        let g = Graph::new();
        let t = g.leaf(feature_matrix(12).relu());
        let eval1 = net.forward(&g, &t, &dense_mask(), None).value();
        let eval2 = net.forward(&g, &t, &dense_mask(), None).value();
        assert!(
            eval1.approx_eq(&eval2, 0.0),
            "eval mode must be deterministic"
        );
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(2);
        let tr1 = net.forward(&g, &t, &dense_mask(), Some(&mut rng1)).value();
        let tr2 = net.forward(&g, &t, &dense_mask(), Some(&mut rng2)).value();
        assert!(
            !tr1.approx_eq(&tr2, 1e-9),
            "dropout masks should differ across rngs"
        );
    }
}
