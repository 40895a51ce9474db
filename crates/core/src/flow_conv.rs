//! Flow convolution: node feature learning from historical flows (§IV-A).
//!
//! Four 1×1 convolutions fuse the time channels of the short-term window
//! (`k` slots, Eqs 1–2) and the long-term window (`d` days, Eqs 3–4), per
//! direction. An attentive gate then mixes short- and long-term embeddings
//! (Eqs 5–8), and a final projection fuses inflow and outflow into the
//! per-station spatial-temporal feature matrix `T` (Eq 9).
//!
//! ### Numerical note on Eqs 6–7
//!
//! The paper computes `β^S = exp(W₅·Î^S) / (exp(W₅·Î^S) + exp(W₅·Î^L))`
//! elementwise. That is exactly `σ(W₅·Î^S − W₅·Î^L)` with `σ` the logistic
//! sigmoid, and `β^L = 1 − β^S`. We evaluate the sigmoid form: it is
//! algebraically identical but immune to `exp` overflow in `f32`.

use crate::config::StgnnConfig;
use rand::Rng;
use std::rc::Rc;
use stgnn_tensor::autograd::{Graph, Param, ParamSet, Var};
use stgnn_tensor::nn::{xavier_uniform, Conv1x1};
use stgnn_tensor::{Shape, Tensor};

/// Output of the flow convolution at one target slot.
pub struct FlowConvOutput {
    /// The fused station feature matrix `T ∈ R^{n×n}` (Eq 9).
    pub t: Var,
    /// The temporal inflow embedding `Î` (Eq 5); drives FCG edges.
    pub i_hat: Var,
    /// The temporal outflow embedding `Ô` (Eq 8); drives FCG edges.
    pub o_hat: Var,
}

/// The flow-convolution module (learnable parameters of Eqs 1–9).
pub struct FlowConvolution {
    conv_in_short: Conv1x1,
    conv_out_short: Conv1x1,
    conv_in_long: Conv1x1,
    conv_out_long: Conv1x1,
    /// `W₅` — inflow fusion gate weights.
    w5: Rc<Param>,
    /// `W₆` — outflow fusion gate weights.
    w6: Rc<Param>,
    /// `W₇ ∈ R^{2n×n}` — inflow‖outflow projection.
    w7: Rc<Param>,
}

impl FlowConvolution {
    /// Builds the module for `n` stations and the configured windows.
    pub fn new(params: &mut ParamSet, rng: &mut impl Rng, config: &StgnnConfig, n: usize) -> Self {
        FlowConvolution {
            conv_in_short: Conv1x1::new(params, rng, "fc.in_short", config.k, n, n, true),
            conv_out_short: Conv1x1::new(params, rng, "fc.out_short", config.k, n, n, true),
            conv_in_long: Conv1x1::new(params, rng, "fc.in_long", config.d, n, n, true),
            conv_out_long: Conv1x1::new(params, rng, "fc.out_long", config.d, n, n, true),
            w5: params.add("fc.w5", xavier_uniform(rng, n, n)),
            w6: params.add("fc.w6", xavier_uniform(rng, n, n)),
            w7: params.add("fc.w7", xavier_uniform(rng, 2 * n, n)),
        }
    }

    /// Runs Eqs 1–9 on one slot's flattened input stacks
    /// (`short_*: (k, n·n)`, `long_*: (d, n·n)`).
    pub fn forward(
        &self,
        g: &Graph,
        short_in: &Tensor,
        short_out: &Tensor,
        long_in: &Tensor,
        long_out: &Tensor,
    ) -> FlowConvOutput {
        let windows = [short_in, short_out, long_in, long_out].map(|w| g.leaf(w.clone()));
        self.forward_windows(g, &windows)
    }

    /// [`Self::forward`] over input stacks already on the tape, in the
    /// order `[short_in, short_out, long_in, long_out]` — the model's
    /// window leaves, which a replay plan rebinds per slot.
    pub fn forward_windows(&self, g: &Graph, windows: &[Var; 4]) -> FlowConvOutput {
        let [short_in, short_out, long_in, long_out] = windows;
        // Eqs 1–4: per-direction, per-horizon channel fusion.
        let i_s = self.conv_in_short.forward(g, short_in);
        let o_s = self.conv_out_short.forward(g, short_out);
        let i_l = self.conv_in_long.forward(g, long_in);
        let o_l = self.conv_out_long.forward(g, long_out);

        // Eqs 5–8: attentive short/long fusion per direction.
        let i_hat = Self::fuse(g, &self.w5, &i_s, &i_l);
        let o_hat = Self::fuse(g, &self.w6, &o_s, &o_l);

        // Eq 9: T = (Î ‖ Ô) · W₇.
        let t = g.concat_cols(&[&i_hat, &o_hat]).matmul(&g.param(&self.w7));
        FlowConvOutput { t, i_hat, o_hat }
    }

    /// `β^S ⊙ short + (1 − β^S) ⊙ long` with `β^S = σ(W·short − W·long)`.
    fn fuse(g: &Graph, w: &Rc<Param>, short: &Var, long: &Var) -> Var {
        let wv = g.param(w);
        let beta_s = wv.matmul(short).sub(&wv.matmul(long)).sigmoid();
        let n = short.shape();
        let ones = g.leaf(Tensor::ones(n));
        let beta_l = ones.sub(&beta_s);
        beta_s.mul(short).add(&beta_l.mul(long))
    }
}

/// The §VII-F "No FC" ablation: the station feature matrix is a free
/// learnable parameter, ignoring the flow history entirely.
pub struct FreeNodeFeatures {
    t: Rc<Param>,
}

impl FreeNodeFeatures {
    /// Creates an `n×n` learnable feature table.
    pub fn new(params: &mut ParamSet, rng: &mut impl Rng, n: usize) -> Self {
        FreeNodeFeatures {
            t: params.add("no_fc.t", xavier_uniform(rng, n, n)),
        }
    }

    /// Returns the (input-independent) feature matrix on the tape.
    pub fn forward(&self, g: &Graph) -> Var {
        g.param(&self.t)
    }
}

/// Builds the FCG structural mask from the fused flow embeddings: entry
/// `(i, j)` is 1 when `Î[i][j] > 0` or `Ô[j][i] > 0` (there was fused flow
/// between the stations, §IV-B1), plus self-loops. Computed from forward
/// values — the mask is structure, not a differentiable quantity; a replay
/// plan re-derives it from each slot's `Î`/`Ô`.
pub fn fcg_mask(i_hat: &Tensor, o_hat: &Tensor) -> Tensor {
    let (n, _) = i_hat.shape().as_matrix("fcg_mask").expect("square i_hat");
    let mut mask = Tensor::zeros(Shape::matrix(n, n));
    let buf = mask.data_mut();
    for i in 0..n {
        buf[i * n + i] = 1.0;
        for j in 0..n {
            if i_hat.get2(i, j) > 0.0 || o_hat.get2(j, i) > 0.0 {
                buf[i * n + j] = 1.0;
            }
        }
    }
    mask
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pcg::tests::{matmul_f64, rows_f64, Rows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stgnn_tensor::optim::{Adam, Optimizer};

    const N: usize = 4;
    const K: usize = 3;
    const D: usize = 2;

    fn config() -> StgnnConfig {
        StgnnConfig::test_tiny(K, D)
    }

    fn stacks(seed: u64) -> (Tensor, Tensor, Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = |rows: usize| {
            let data: Vec<f32> = (0..rows * N * N).map(|_| rng.gen_range(0.0..1.0)).collect();
            Tensor::from_vec(Shape::matrix(rows, N * N), data).unwrap()
        };
        (mk(K), mk(K), mk(D), mk(D))
    }

    /// Eqs 1–9 evaluated literally, in plain f64 loops over the parameters
    /// read from `ps` by name: the four 1×1 convolutions
    /// `ReLU(Σ_c w_c·X_c + b)` (Eqs 1–4); the gates
    /// `β^S = exp(W·Î^S) / (exp(W·Î^S) + exp(W·Î^L))` and
    /// `β^L = exp(W·Î^L) / (exp(W·Î^S) + exp(W·Î^L))` with the fused
    /// `β^S ⊙ Î^S + β^L ⊙ Î^L`, under `W₅` for inflow and `W₆` for outflow
    /// (Eqs 5–8); and `T = (Î ‖ Ô)·W₇` (Eq 9). Returns `(T, Î, Ô)`.
    pub(crate) fn literal_flow_conv(
        ps: &ParamSet,
        n: usize,
        windows: [&[Vec<f64>]; 4],
    ) -> (Rows, Rows, Rows) {
        let param = |name: &str| {
            let p = ps.params().iter().find(|p| p.name() == name);
            rows_f64(&p.unwrap_or_else(|| panic!("no parameter {name}")).value())
        };
        let conv = |name: &str, x: &[Vec<f64>]| -> Vec<Vec<f64>> {
            let (w, b) = (
                param(&format!("fc.{name}.w")),
                param(&format!("fc.{name}.b")),
            );
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let sum: f64 = w[0].iter().zip(x).map(|(w, c)| w * c[i * n + j]).sum();
                            (sum + b[i][j]).max(0.0)
                        })
                        .collect()
                })
                .collect()
        };
        let fuse = |gate: &str, short: &[Vec<f64>], long: &[Vec<f64>]| -> Vec<Vec<f64>> {
            let w = param(gate);
            let (gs, gl) = (matmul_f64(&w, short), matmul_f64(&w, long));
            (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let (es, el) = (gs[i][j].exp(), gl[i][j].exp());
                            let (beta_s, beta_l) = (es / (es + el), el / (es + el));
                            beta_s * short[i][j] + beta_l * long[i][j]
                        })
                        .collect()
                })
                .collect()
        };
        let [short_in, short_out, long_in, long_out] = windows;
        let i_hat = fuse(
            "fc.w5",
            &conv("in_short", short_in),
            &conv("in_long", long_in),
        );
        let o_hat = fuse(
            "fc.w6",
            &conv("out_short", short_out),
            &conv("out_long", long_out),
        );
        let joined: Vec<Vec<f64>> = i_hat
            .iter()
            .zip(&o_hat)
            .map(|(i, o)| i.iter().chain(o).copied().collect())
            .collect();
        (matmul_f64(&joined, &param("fc.w7")), i_hat, o_hat)
    }

    /// The flow convolution must compute what Eqs 1–9 print, the gates'
    /// exp ratios included (the module evaluates them as a sigmoid).
    #[test]
    fn forward_matches_a_literal_eq_1_to_9_evaluation() {
        const N5: usize = 5;
        let mut rng = StdRng::seed_from_u64(31);
        let mut ps = ParamSet::new();
        let fc = FlowConvolution::new(&mut ps, &mut rng, &config(), N5);
        // Signed biases, so some of the ReLUs of Eqs 1–4 clamp.
        for p in ps.params().iter().filter(|p| p.name().ends_with(".b")) {
            let data = (0..N5 * N5).map(|_| rng.gen_range(-1.0..1.0)).collect();
            p.set_value(Tensor::from_vec(Shape::matrix(N5, N5), data).unwrap());
        }
        let mut window = |rows: usize| {
            let data = (0..rows * N5 * N5)
                .map(|_| rng.gen_range(0.0..1.0))
                .collect();
            Tensor::from_vec(Shape::matrix(rows, N5 * N5), data).unwrap()
        };
        let windows = [window(K), window(K), window(D), window(D)];
        let g = Graph::new();
        let leaves = windows.each_ref().map(|w| g.leaf(w.clone()));
        let t = fc.forward_windows(&g, &leaves).t.value();
        let rows = windows.each_ref().map(rows_f64);
        let (want, _, _) = literal_flow_conv(&ps, N5, rows.each_ref().map(Vec::as_slice));
        for (i, want_row) in want.iter().enumerate() {
            for (j, &w) in want_row.iter().enumerate() {
                let v = f64::from(t.get2(i, j));
                assert!(
                    (v - w).abs() <= 1e-4,
                    "T[{i}][{j}] = {v}, the literal Eqs 1–9 give {w}"
                );
            }
        }
    }

    #[test]
    fn output_shapes_are_n_by_n() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let fc = FlowConvolution::new(&mut ps, &mut rng, &config(), N);
        let (si, so, li, lo) = stacks(2);
        let g = Graph::new();
        let out = fc.forward(&g, &si, &so, &li, &lo);
        assert_eq!(out.t.value().shape().dims(), &[N, N]);
        assert_eq!(out.i_hat.value().shape().dims(), &[N, N]);
        assert_eq!(out.o_hat.value().shape().dims(), &[N, N]);
    }

    #[test]
    fn fusion_is_convex_combination() {
        // Î must lie elementwise between Î^S and Î^L, because β ∈ (0,1).
        let g = Graph::new();
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let w = ps.add("w", xavier_uniform(&mut rng, N, N));
        let short = g.leaf(Tensor::full(Shape::matrix(N, N), 2.0));
        let long = g.leaf(Tensor::full(Shape::matrix(N, N), 5.0));
        let fused = FlowConvolution::fuse(&g, &w, &short, &long).value();
        assert!(
            fused.data().iter().all(|&v| (2.0..=5.0).contains(&v)),
            "{fused:?}"
        );
    }

    #[test]
    fn gate_prefers_short_term_when_w_pushes_positive() {
        // With a large positive gate matrix and short > long, β^S → 1.
        let g = Graph::new();
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::full(Shape::matrix(N, N), 10.0));
        let short = g.leaf(Tensor::full(Shape::matrix(N, N), 1.0));
        let long = g.leaf(Tensor::zeros(Shape::matrix(N, N)));
        let fused = FlowConvolution::fuse(&g, &w, &short, &long).value();
        assert!(fused.data().iter().all(|&v| v > 0.99), "{fused:?}");
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let fc = FlowConvolution::new(&mut ps, &mut rng, &config(), N);
        let (si, so, li, lo) = stacks(6);
        let g = Graph::new();
        let out = fc.forward(&g, &si, &so, &li, &lo);
        out.t.square().sum_all().backward();
        for p in ps.params() {
            assert!(
                p.grad().frobenius_norm() > 0.0,
                "parameter {} received no gradient",
                p.name()
            );
        }
    }

    #[test]
    fn learns_to_reproduce_a_target_feature_map() {
        // Sanity: the module can fit T to a fixed target from fixed inputs.
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(7);
        let fc = FlowConvolution::new(&mut ps, &mut rng, &config(), N);
        let (si, so, li, lo) = stacks(8);
        let target = Tensor::eye(N);
        let mut opt = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let g = Graph::new();
            let out = fc.forward(&g, &si, &so, &li, &lo);
            let loss = out.t.sub(&g.leaf(target.clone())).square().mean_all();
            last = loss.value().scalar();
            ps.zero_grads();
            loss.backward();
            opt.step(&ps);
        }
        assert!(last < 1e-2, "flow conv failed to fit: {last}");
    }

    #[test]
    fn free_node_features_are_input_independent() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(9);
        let free = FreeNodeFeatures::new(&mut ps, &mut rng, N);
        let g = Graph::new();
        let t1 = free.forward(&g).value();
        let t2 = free.forward(&g).value();
        assert!(t1.approx_eq(&t2, 0.0));
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn fcg_mask_matches_definition() {
        let i_hat = Tensor::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let o_hat = Tensor::from_rows(&[&[0.0, 0.0], &[0.5, 0.0]]);
        let m = fcg_mask(&i_hat, &o_hat);
        assert_eq!(m.get2(0, 0), 1.0); // self-loop
        assert_eq!(m.get2(1, 1), 1.0);
        assert_eq!(m.get2(0, 1), 1.0); // Î[0][1] > 0 and Ô[1][0] > 0
        assert_eq!(m.get2(1, 0), 0.0); // neither condition holds
    }
}
