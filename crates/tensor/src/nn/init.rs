// sound: allow-file(L002, L004): BUFFERS-SIZED-AT-CONSTRUCTION — `from_vec`
// gets a vector of exactly rows*cols elements, the same product the shape
// encodes, and identity_xavier indexes an n*n buffer it just allocated.
//! Weight initialisers.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;

/// Glorot/Xavier uniform initialisation: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Suited to the sigmoid/tanh/softmax
/// gates in the model.
pub fn xavier_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, fan_in, fan_out, a)
}

/// He/Kaiming uniform initialisation: `U(−a, a)` with `a = sqrt(6 / fan_in)`.
/// Suited to ReLU layers (the flow convolution and FCG stacks).
pub fn he_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let a = (6.0 / fan_in as f32).sqrt();
    uniform(rng, fan_in, fan_out, a)
}

/// Identity plus scaled Xavier noise, for square feature-mixing matrices.
///
/// Deep stacks of `n×n` mixers (the model's FCG layer weights and PCG value
/// projections) train markedly better from a near-identity start: each layer
/// begins as a small perturbation of "pass the features through", so node
/// identity survives depth at initialisation.
pub fn identity_xavier(rng: &mut impl Rng, n: usize, noise: f32) -> Tensor {
    let a = (6.0 / (2 * n) as f32).sqrt() * noise;
    let mut t = uniform(rng, n, n, a);
    let buf = t.data_mut();
    for i in 0..n {
        buf[i * n + i] += 1.0;
    }
    t
}

fn uniform(rng: &mut impl Rng, rows: usize, cols: usize, a: f32) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect();
    Tensor::from_vec(Shape::matrix(rows, cols), data).expect("init shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_and_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(&mut rng, 64, 32);
        assert_eq!(w.shape().dims(), &[64, 32]);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= a));
        // not degenerate
        assert!(w.frobenius_norm() > 0.0);
    }

    #[test]
    fn he_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = he_uniform(&mut rng, 50, 10);
        let a = (6.0f32 / 50.0).sqrt();
        assert!(w.data().iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn deterministic_under_seed() {
        let w1 = xavier_uniform(&mut StdRng::seed_from_u64(9), 8, 8);
        let w2 = xavier_uniform(&mut StdRng::seed_from_u64(9), 8, 8);
        assert!(w1.approx_eq(&w2, 0.0));
    }
}
