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
//! approximation, and is the same trick the original GAT uses. The ablation
//! bench `pcg_attention` measures the win over the naive pairing.

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
mod tests {
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
