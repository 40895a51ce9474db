//! The pattern correlation graph and its attention aggregator (§IV-B2, §V-C).
//!
//! The PCG is *dense and data-driven*: every station pair gets an attention
//! coefficient `e(i,j) = σ₂([F_i·W₈ ‖ F_j·W₈]·W₉)` (Eq 15), softmax-normalised
//! per row (Eq 16), with no distance prior — the paper's answer to the
//! locality assumption. Layers use `m` heads whose outputs are concatenated
//! and projected (Eq 18).
//!
//! ### The O(n²) attention decomposition
//!
//! Writing `W₉ = [W₉ᵃ; W₉ᵇ]` (top and bottom halves), the pairwise logit
//! factors as `e(i,j) = σ₂(s_i + d_j)` with `s = (F·W₈)·W₉ᵃ` and
//! `d = (F·W₈)·W₉ᵇ` — one column broadcast plus one row broadcast instead of
//! materialising n² concatenated vectors. This is exact, not an
//! approximation, and is the same trick the original GAT uses. The unit
//! test `attention_layer_matches_a_literal_eq_15_to_18_evaluation` checks a
//! layer against plain loops over the literal pairing.

use crate::config::{PcgAggregator, StgnnConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::rc::Rc;
use stgnn_tensor::autograd::{Graph, Param, ParamSet, Var};
use stgnn_tensor::nn::{xavier_uniform, Linear};
use stgnn_tensor::{Shape, Tensor};

/// One attention head's parameters (Eqs 15 and 17–18).
struct Head {
    /// `W₈ ∈ R^{n×n}` — shared feature projection inside the logit.
    w8: Rc<Param>,
    /// Top half of `W₉ ∈ R^{2n×1}`.
    w9a: Rc<Param>,
    /// Bottom half of `W₉`.
    w9b: Rc<Param>,
    /// `φ ∈ R^{n×n}` — the head's value projection.
    phi: Rc<Param>,
}

enum LayerKind {
    /// Eq 18: multi-head attention, heads concatenated through `W₁₀`.
    Attention { heads: Vec<Head>, w10: Rc<Param> },
    /// §VII-G mean aggregator (PCG is complete: mean over all stations).
    Mean { w: Rc<Param> },
    /// §VII-G max aggregator (shared FC + max-pool over all stations: an
    /// all-ones mask).
    Max { fc: Linear, w: Rc<Param> },
}

/// The PCG branch: `pcg_layers` layers producing the pattern-side station
/// embedding `F^p`, and exposing per-layer attention matrices for the case
/// study.
pub struct PcgNetwork {
    layers: Vec<LayerKind>,
    dropout: f32,
    n: usize,
}

impl PcgNetwork {
    /// Builds the branch per the configuration (depth, heads, aggregator).
    pub fn new(params: &mut ParamSet, rng: &mut impl Rng, config: &StgnnConfig, n: usize) -> Self {
        let layers = (0..config.pcg_layers)
            .map(|k| match config.pcg_aggregator {
                PcgAggregator::Attention => {
                    let heads = (0..config.heads)
                        .map(|u| Head {
                            w8: params.add(format!("pcg.{k}.{u}.w8"), xavier_uniform(rng, n, n)),
                            w9a: params.add(format!("pcg.{k}.{u}.w9a"), xavier_uniform(rng, n, 1)),
                            w9b: params.add(format!("pcg.{k}.{u}.w9b"), xavier_uniform(rng, n, 1)),
                            phi: params.add(format!("pcg.{k}.{u}.phi"), xavier_uniform(rng, n, n)),
                        })
                        .collect();
                    LayerKind::Attention {
                        heads,
                        w10: params.add(
                            format!("pcg.{k}.w10"),
                            xavier_uniform(rng, config.heads * n, n),
                        ),
                    }
                }
                PcgAggregator::Mean => LayerKind::Mean {
                    w: params.add(format!("pcg.{k}.w"), xavier_uniform(rng, n, n)),
                },
                PcgAggregator::Max => LayerKind::Max {
                    fc: Linear::new(params, rng, &format!("pcg.{k}.fc"), n, n, true),
                    w: params.add(format!("pcg.{k}.w"), xavier_uniform(rng, n, n)),
                },
            })
            .collect();
        PcgNetwork {
            layers,
            dropout: config.dropout,
            n,
        }
    }

    /// Runs the branch from the node features `t` (Eq 9's `T`).
    ///
    /// Returns the final embedding `F^p ∈ R^{n×n}` and, for attention
    /// layers, each layer's head-averaged attention matrix (values only) —
    /// the quantity visualised in Figures 10–12.
    pub fn forward_with_attention(
        &self,
        g: &Graph,
        t: &Var,
        mut train_rng: Option<&mut StdRng>,
    ) -> (Var, Vec<Tensor>) {
        let n = self.n;
        let mean_adj = Tensor::full(Shape::matrix(n, n), 1.0 / n as f32);
        let mut attentions = Vec::new();
        let mut f = t.clone();
        for (idx, layer) in self.layers.iter().enumerate() {
            f = match layer {
                LayerKind::Attention { heads, w10 } => {
                    let mut head_outputs = Vec::with_capacity(heads.len());
                    let mut alpha_sum: Option<Tensor> = None;
                    for head in heads {
                        let (out, alpha) = Self::head_forward(g, head, &f, n);
                        head_outputs.push(out);
                        alpha_sum = Some(match alpha_sum {
                            Some(acc) => acc.add(&alpha).expect("alpha shapes"),
                            None => alpha,
                        });
                    }
                    attentions.push(
                        alpha_sum
                            .expect("≥1 head")
                            .mul_scalar(1.0 / heads.len() as f32),
                    );
                    let refs: Vec<&Var> = head_outputs.iter().collect();
                    g.concat_cols(&refs).matmul(&g.param(w10))
                }
                LayerKind::Mean { w } => g
                    .leaf(mean_adj.clone())
                    .matmul(&f)
                    .matmul(&g.param(w))
                    .elu(),
                LayerKind::Max { fc, w } => fc
                    .forward(g, &f)
                    .relu()
                    .rows_max_pool(&g.leaf(Tensor::ones(Shape::matrix(n, n))))
                    .matmul(&g.param(w))
                    .elu(),
            };
            if idx + 1 < self.layers.len() {
                if let Some(rng) = train_rng.as_deref_mut() {
                    f = f.dropout(self.dropout, rng);
                }
            }
        }
        (f, attentions)
    }

    /// One head: Eqs 15–17 plus the value projection of Eq 18.
    /// Returns `(σ₂(α · Fφ), α-values)`.
    ///
    /// Eq 18 prints the value projection as `φ F^{k-1}`; both orders
    /// typecheck for square `φ`, but Eq 15 itself projects *features*
    /// (`F_i·W₈`, a row times a matrix), and GAT — which this layer
    /// follows — projects features too. We therefore read `φ` as a feature
    /// projection (`F·φ`): left-multiplication would mix stations *before*
    /// attention mixes them again, double-blending node identity per layer.
    fn head_forward(g: &Graph, head: &Head, f: &Var, n: usize) -> (Var, Tensor) {
        let h = f.matmul(&g.param(&head.w8));
        let s = h.matmul(&g.param(&head.w9a)); // n×1
        let d = h.matmul(&g.param(&head.w9b)); // n×1
        let ones_row = g.leaf(Tensor::ones(Shape::matrix(1, n)));
        let logits = s.matmul(&ones_row).add_row_broadcast(&d.transpose()).elu();
        let alpha = logits.softmax_rows();
        let values = f.matmul(&g.param(&head.phi));
        let out = alpha.matmul(&values).elu();
        (out, alpha.value())
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    const N: usize = 5;

    fn config(agg: PcgAggregator, layers: usize, heads: usize) -> StgnnConfig {
        let mut c = StgnnConfig::test_tiny(4, 2);
        c.pcg_layers = layers;
        c.heads = heads;
        c.pcg_aggregator = agg;
        c
    }

    fn features(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..N * N).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Tensor::from_vec(Shape::matrix(N, N), data).unwrap()
    }

    /// A matrix as f64 rows, the oracles' working form.
    pub(crate) type Rows = Vec<Vec<f64>>;

    pub(crate) fn rows_f64(t: &Tensor) -> Vec<Vec<f64>> {
        (0..t.shape().rows())
            .map(|i| t.row(i).iter().map(|&v| f64::from(v)).collect())
            .collect()
    }

    pub(crate) fn matmul_f64(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        a.iter()
            .map(|row| {
                (0..b[0].len())
                    .map(|j| row.iter().zip(b).map(|(&x, b_row)| x * b_row[j]).sum())
                    .collect()
            })
            .collect()
    }

    fn elu(x: f64) -> f64 {
        if x > 0.0 {
            x
        } else {
            x.exp_m1()
        }
    }

    /// Layer 0 of an attention PCG evaluated literally, in plain f64 loops
    /// over the parameters read from `ps` by name: every pair's
    /// `ELU([h_i ‖ h_j]·W₉)` with `h = F·W₈` (Eq 15), the row softmax
    /// (Eq 16), `ELU(α·F·φ)` per head (Eq 17), and the heads concatenated,
    /// then multiplied by `W₁₀` (Eq 18). Returns the head-averaged α and
    /// `F^p`.
    pub(crate) fn literal_attention_layer(
        ps: &ParamSet,
        fm: &[Vec<f64>],
        heads: usize,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let param = |name: String| {
            let p = ps.params().iter().find(|p| p.name() == name);
            rows_f64(&p.unwrap_or_else(|| panic!("no parameter {name}")).value())
        };
        let n = fm.len();
        let mut alpha_mean = vec![vec![0.0; n]; n];
        let mut concat = vec![Vec::new(); n];
        for u in 0..heads {
            let w8 = param(format!("pcg.0.{u}.w8"));
            let w9: Vec<f64> = param(format!("pcg.0.{u}.w9a"))
                .into_iter()
                .chain(param(format!("pcg.0.{u}.w9b")))
                .map(|row| row[0])
                .collect();
            let phi = param(format!("pcg.0.{u}.phi"));
            let h = matmul_f64(fm, &w8);
            let e: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let pair = h[i].iter().chain(&h[j]);
                            elu(pair.zip(&w9).map(|(x, w)| x * w).sum())
                        })
                        .collect()
                })
                .collect();
            let alpha: Vec<Vec<f64>> = e
                .iter()
                .map(|row| {
                    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let ex: Vec<f64> = row.iter().map(|x| (x - max).exp()).collect();
                    let z: f64 = ex.iter().sum();
                    ex.iter().map(|x| x / z).collect()
                })
                .collect();
            let out = matmul_f64(&alpha, &matmul_f64(fm, &phi));
            for i in 0..n {
                for j in 0..n {
                    alpha_mean[i][j] += alpha[i][j] / heads as f64;
                }
                concat[i].extend(out[i].iter().map(|&x| elu(x)));
            }
        }
        let fp = matmul_f64(&concat, &param("pcg.0.w10".into()));
        (alpha_mean, fp)
    }

    /// The decomposed `σ₂(s_i + d_j)` logits, the two broadcasts and the
    /// head concatenation must compute Eqs 15–18 as printed.
    #[test]
    fn attention_layer_matches_a_literal_eq_15_to_18_evaluation() {
        let heads = 2;
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let net = PcgNetwork::new(
            &mut ps,
            &mut rng,
            &config(PcgAggregator::Attention, 1, heads),
            N,
        );
        let f = features(14);
        let g = Graph::new();
        let (out, attn) = net.forward_with_attention(&g, &g.leaf(f.clone()), None);
        let (alpha, fp) = literal_attention_layer(&ps, &rows_f64(&f), heads);
        for (what, got, want) in [("α", &attn[0], &alpha), ("F^p", &out.value(), &fp)] {
            for (i, want_row) in want.iter().enumerate() {
                for (j, &w) in want_row.iter().enumerate() {
                    let v = f64::from(got.get2(i, j));
                    assert!(
                        (v - w).abs() <= 1e-4,
                        "{what}[{i}][{j}] = {v}, the literal Eqs 15–18 give {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_shapes_and_attention_export() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let net = PcgNetwork::new(
            &mut ps,
            &mut rng,
            &config(PcgAggregator::Attention, 2, 3),
            N,
        );
        assert_eq!(net.depth(), 2);
        let g = Graph::new();
        let t = g.leaf(features(2));
        let (out, attn) = net.forward_with_attention(&g, &t, None);
        assert_eq!(out.value().shape().dims(), &[N, N]);
        assert_eq!(attn.len(), 2, "one attention matrix per layer");
        for a in &attn {
            assert_eq!(a.shape().dims(), &[N, N]);
            for i in 0..N {
                let sum: f32 = a.row(i).iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-4,
                    "head-averaged attention row {i} sums to {sum}"
                );
            }
        }
    }

    #[test]
    fn non_attention_aggregators_export_no_attention() {
        for agg in [PcgAggregator::Mean, PcgAggregator::Max] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(3);
            let net = PcgNetwork::new(&mut ps, &mut rng, &config(agg, 2, 1), N);
            let g = Graph::new();
            let t = g.leaf(features(4));
            let (out, attn) = net.forward_with_attention(&g, &t, None);
            assert_eq!(out.value().shape().dims(), &[N, N]);
            assert!(attn.is_empty(), "{agg:?} should not export attention");
        }
    }

    #[test]
    fn parameter_counts_scale_with_heads() {
        let mut ps1 = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        PcgNetwork::new(
            &mut ps1,
            &mut rng,
            &config(PcgAggregator::Attention, 1, 1),
            N,
        );
        let mut ps4 = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        PcgNetwork::new(
            &mut ps4,
            &mut rng,
            &config(PcgAggregator::Attention, 1, 4),
            N,
        );
        // 4 params per head + w10 per layer.
        assert_eq!(ps1.len(), 4 + 1);
        assert_eq!(ps4.len(), 16 + 1);
        // w10 grows with the head count.
        let w10 = ps4
            .params()
            .iter()
            .find(|p| p.name().ends_with("w10"))
            .unwrap();
        assert_eq!(w10.value().shape().dims(), &[4 * N, N]);
    }

    #[test]
    fn gradients_flow_through_each_aggregator() {
        for agg in [
            PcgAggregator::Attention,
            PcgAggregator::Mean,
            PcgAggregator::Max,
        ] {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(7);
            let net = PcgNetwork::new(&mut ps, &mut rng, &config(agg, 2, 2), N);
            let g = Graph::new();
            let p = Param::new("t", features(8));
            let t = g.param(&p);
            let (out, _) = net.forward_with_attention(&g, &t, None);
            out.square().sum_all().backward();
            assert!(ps.grad_norm() > 0.0, "{agg:?}: no gradient to parameters");
            assert!(
                p.grad().frobenius_norm() > 0.0,
                "{agg:?}: no gradient to features"
            );
        }
    }

    #[test]
    fn attention_is_input_dependent() {
        // The whole point of the data-driven PCG: different histories give
        // different dependency structures (the paper's dynamic dependency).
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let net = PcgNetwork::new(
            &mut ps,
            &mut rng,
            &config(PcgAggregator::Attention, 1, 1),
            N,
        );
        let g = Graph::new();
        let (_, a1) = net.forward_with_attention(&g, &g.leaf(features(10)), None);
        let (_, a2) = net.forward_with_attention(&g, &g.leaf(features(11)), None);
        assert!(
            !a1[0].approx_eq(&a2[0], 1e-6),
            "attention ignored the input"
        );
    }
}
