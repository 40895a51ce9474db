// sound: allow-file(L002, L004): BUFFERS-SIZED-AT-CONSTRUCTION — weight
// tensors are built from vectors whose length is computed from the very shape
// passed to `from_vec`.
//! The paper's 1×1 "flow convolution" kernel (Eqs 1–4).
//!
//! STGNN-DJD treats a station's historical inflow/outflow rows at `k`
//! different time slots as `k` channels of a `1×n` image and fuses them with
//! a 1×1 convolution — i.e. a learned linear combination of the channels plus
//! an `n×n` bias, followed by ReLU:
//!
//! ```text
//! Î = σ₁(W ∗ I + b),   W ∈ R^{1×k},  b ∈ R^{n×n},  I ∈ R^{k×n×n}
//! ```
//!
//! Implementation note: a 1×1 convolution across channels of spatially-flat
//! data is exactly `w_row · X_flat` where `X_flat ∈ R^{k×(n·n)}` stacks each
//! slot's matrix as a row. That turns the op into one matmul on the tape —
//! no convolution machinery required, and the gradient falls out of matmul.

use crate::autograd::{Graph, Param, ParamSet, Var};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;
use std::rc::Rc;

/// Channel-fusing 1×1 convolution over `channels` stacked `rows×cols`
/// matrices, with a full-size bias and optional ReLU (σ₁ in the paper).
pub struct Conv1x1 {
    w: Rc<Param>,
    b: Rc<Param>,
    rows: usize,
    cols: usize,
    relu: bool,
}

impl Conv1x1 {
    /// Creates the kernel. Weights start near 1 (a *sum* over slots — the
    /// window-total flow, which keeps activations O(1) even though per-slot
    /// flow matrices are sparse and max-normalised) plus small noise; bias
    /// at 0. A mean-over-slots init (`1/channels`) shrinks the fused signal
    /// by ~`channels`× and measurably stalls early training.
    pub fn new(
        params: &mut ParamSet,
        rng: &mut impl Rng,
        name: &str,
        channels: usize,
        rows: usize,
        cols: usize,
        relu: bool,
    ) -> Self {
        let base = 1.0f32;
        let jitter = 0.1f32;
        let w_data: Vec<f32> = (0..channels)
            .map(|_| base + rng.gen_range(-jitter..=jitter))
            .collect();
        let w = params.add(
            format!("{name}.w"),
            Tensor::from_vec(Shape::matrix(1, channels), w_data).expect("conv1x1 w"),
        );
        let b = params.add(
            format!("{name}.b"),
            Tensor::zeros(Shape::matrix(rows, cols)),
        );
        Conv1x1 {
            w,
            b,
            rows,
            cols,
            relu,
        }
    }

    /// Flattens a stack of `channels` matrices (given as a rank-3 tensor
    /// `(channels, rows, cols)`) into the `(channels, rows·cols)` layout the
    /// forward pass consumes. Pure data movement, done outside the tape.
    pub fn flatten_stack(stack: &Tensor) -> Tensor {
        let dims = stack.shape().dims();
        assert_eq!(
            dims.len(),
            3,
            "flatten_stack expects rank-3, got {}",
            stack.shape()
        );
        stack
            .reshape(Shape::matrix(dims[0], dims[1] * dims[2]))
            .expect("flatten_stack reshape")
    }

    /// Applies the kernel to a flattened `(channels, rows·cols)` input and
    /// returns the fused `(rows, cols)` matrix on the tape.
    pub fn forward(&self, g: &Graph, x_flat: &Var) -> Var {
        let w = g.param(&self.w);
        let b = g.param(&self.b);
        let fused = w
            .matmul(x_flat)
            .reshape(Shape::matrix(self.rows, self.cols))
            .add(&b);
        if self.relu {
            fused.relu()
        } else {
            fused
        }
    }

    /// Number of input channels.
    pub fn channels(&self) -> usize {
        self.w.value().shape().cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stack3(mats: &[Tensor]) -> Tensor {
        let (r, c) = mats[0].shape().as_matrix("stack3").unwrap();
        let mut data = Vec::with_capacity(mats.len() * r * c);
        for m in mats {
            data.extend_from_slice(m.data());
        }
        Tensor::from_vec(Shape::from_dims(&[mats.len(), r, c]), data).unwrap()
    }

    #[test]
    fn forward_is_weighted_channel_sum() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let conv = Conv1x1::new(&mut ps, &mut rng, "c", 2, 2, 2, false);
        // Overwrite weights with known values.
        ps.params()[0].set_value(Tensor::from_rows(&[&[2.0, -1.0]]));
        ps.params()[1].set_value(Tensor::from_rows(&[&[0.5, 0.0], &[0.0, 0.0]]));

        let m1 = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let m2 = Tensor::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let flat = Conv1x1::flatten_stack(&stack3(&[m1, m2]));
        let g = Graph::new();
        let y = conv.forward(&g, &g.leaf(flat));
        // 2*m1 - m2 + bias
        assert!(y
            .value()
            .approx_eq(&Tensor::from_rows(&[&[1.5, 3.0], &[5.0, 7.0]]), 1e-6));
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(11);
        let conv = Conv1x1::new(&mut ps, &mut rng, "c", 1, 1, 2, true);
        ps.params()[0].set_value(Tensor::from_rows(&[&[1.0]]));
        let flat = Tensor::from_rows(&[&[-3.0, 4.0]]);
        let g = Graph::new();
        let y = conv.forward(&g, &g.leaf(flat));
        assert_eq!(y.value().data(), &[0.0, 4.0]);
    }

    #[test]
    fn channels_reported() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv1x1::new(&mut ps, &mut rng, "c", 7, 3, 3, true);
        assert_eq!(conv.channels(), 7);
    }

    #[test]
    fn learns_to_pick_the_informative_channel() {
        // Target = channel 0; channel 1 is noise. The kernel should learn
        // w ≈ [1, 0].
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(21);
        let conv = Conv1x1::new(&mut ps, &mut rng, "c", 2, 2, 2, false);
        let mut opt = Adam::new(0.05);
        let mut last = f32::INFINITY;
        for step in 0..200 {
            let signal = Tensor::from_rows(&[&[(step % 7) as f32, 1.0], &[2.0, (step % 3) as f32]]);
            let noise_vals: Vec<f32> = (0..4)
                .map(|i| ((step * 31 + i * 17) % 13) as f32 - 6.0)
                .collect();
            let noise = Tensor::from_vec(Shape::matrix(2, 2), noise_vals).unwrap();
            let flat = Conv1x1::flatten_stack(&stack3(&[signal.clone(), noise]));
            let g = Graph::new();
            let y = conv.forward(&g, &g.leaf(flat));
            let loss = y.sub(&g.leaf(signal)).square().mean_all();
            last = loss.value().scalar();
            ps.zero_grads();
            loss.backward();
            opt.step(&ps);
        }
        assert!(
            last < 1e-2,
            "conv1x1 failed to isolate channel: loss {last}"
        );
        let w = ps.params()[0].value();
        assert!((w.data()[0] - 1.0).abs() < 0.1, "w0 = {}", w.data()[0]);
        assert!(w.data()[1].abs() < 0.1, "w1 = {}", w.data()[1]);
    }
}
