// sound: allow-file(L002, L004): BUFFERS-SIZED-AT-CONSTRUCTION — optimizer
// state buffers are created with each parameter's exact shape at
// construction, so the per-step elementwise ops cannot shape-mismatch.
//! First-order optimizers over a [`ParamSet`].
//!
//! The paper trains with Adam (§VII-C, lr 0.01); SGD exists for tests and
//! ablations. Optimizers key per-parameter state by registration index, so a
//! given optimizer must always be stepped with the same `ParamSet`.

use crate::autograd::ParamSet;
use crate::tensor::Tensor;

/// A gradient-descent optimizer.
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then zeroes them.
    fn step(&mut self, params: &ParamSet);
    /// The current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional gradient clipping.
pub struct Sgd {
    lr: f32,
    clip: Option<f32>,
}

impl Sgd {
    /// SGD with learning rate `lr` and no clipping.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, clip: None }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &ParamSet) {
        let scale = clip_scale(params, self.clip);
        for p in params.params() {
            let g = p.with_grad(|g| g.mul_scalar(scale));
            let updated = p
                .with_value(|v| v.sub(&g.mul_scalar(self.lr)))
                .expect("sgd shapes");
            p.set_value(updated);
        }
        params.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// A detached snapshot of Adam's per-parameter state, produced by
/// [`Adam::state`] and consumed by [`Adam::restore`] — the unit the training
/// checkpoint persists so a resumed run steps identically.
#[derive(Clone)]
pub struct AdamState {
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates in registration-index order.
    pub m: Vec<Tensor>,
    /// Second-moment estimates in registration-index order.
    pub v: Vec<Tensor>,
}

/// Adam (Kingma & Ba 2014), the paper's training optimizer.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: Option<f32>,
    t: u64,
    /// First/second moment estimates per parameter, keyed by index.
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip = Some(max_norm);
        self
    }

    /// Snapshot of the moment estimates and step counter, for checkpointing
    /// mid-run. Moments are in registration-index order.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a [`state`](Self::state) snapshot; subsequent steps continue
    /// bit-for-bit as if the run had never been interrupted.
    pub fn restore(&mut self, state: AdamState) {
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    fn ensure_state(&mut self, params: &ParamSet) {
        while self.m.len() < params.len() {
            let i = self.m.len();
            let shape = params.params()[i].with_value(|v| v.shape().clone());
            self.m.push(Tensor::zeros(shape.clone()));
            self.v.push(Tensor::zeros(shape));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &ParamSet) {
        self.ensure_state(params);
        self.t += 1;
        let scale = clip_scale(params, self.clip);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.params().iter().enumerate() {
            let g = p.with_grad(|g| g.mul_scalar(scale));
            let m = self.m[i]
                .mul_scalar(self.beta1)
                .add(&g.mul_scalar(1.0 - self.beta1))
                .expect("adam m");
            let v = self.v[i]
                .mul_scalar(self.beta2)
                .add(&g.square().mul_scalar(1.0 - self.beta2))
                .expect("adam v");
            let m_hat = m.mul_scalar(1.0 / bc1);
            let v_hat = v.mul_scalar(1.0 / bc2);
            let denom = v_hat.sqrt().add_scalar(self.eps);
            let update = m_hat.div(&denom).expect("adam update").mul_scalar(self.lr);
            p.set_value(p.with_value(|v| v.sub(&update)).expect("adam apply"));
            self.m[i] = m;
            self.v[i] = v;
        }
        params.zero_grads();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Scale factor implementing global-norm clipping (1.0 when disabled or
/// under the threshold).
fn clip_scale(params: &ParamSet, clip: Option<f32>) -> f32 {
    match clip {
        Some(max) => {
            let norm = params.grad_norm();
            if norm > max && norm > 0.0 {
                max / norm
            } else {
                1.0
            }
        }
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Graph;
    use crate::shape::Shape;

    fn quadratic_loss(params: &ParamSet, target: &Tensor) -> f32 {
        let g = Graph::new();
        let x = g.param(&params.params()[0]);
        let t = g.leaf(target.clone());
        let loss = x.sub(&t).square().sum_all();
        let v = loss.value().scalar();
        loss.backward();
        v
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        ps.add("x", Tensor::zeros(Shape::matrix(1, 3)));
        let target = Tensor::from_rows(&[&[1.0, -2.0, 3.0]]);
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            ps.zero_grads();
            last = quadratic_loss(&ps, &target);
            opt.step(&ps);
        }
        assert!(last < 1e-6, "sgd loss {last}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut ps = ParamSet::new();
        ps.add("x", Tensor::zeros(Shape::matrix(1, 3)));
        let target = Tensor::from_rows(&[&[1.0, -2.0, 3.0]]);
        let mut opt = Adam::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            ps.zero_grads();
            last = quadratic_loss(&ps, &target);
            opt.step(&ps);
        }
        assert!(last < 1e-4, "adam loss {last}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut ps = ParamSet::new();
        ps.add("x", Tensor::zeros(Shape::matrix(1, 2)));
        quadratic_loss(&ps, &Tensor::from_rows(&[&[5.0, 5.0]]));
        assert!(ps.grad_norm() > 0.0);
        Sgd::new(0.1).step(&ps);
        assert_eq!(ps.grad_norm(), 0.0);
    }

    #[test]
    fn clipping_bounds_the_update() {
        let mut ps = ParamSet::new();
        let p = ps.add("x", Tensor::zeros(Shape::matrix(1, 1)));
        p.accumulate_grad(&Tensor::from_rows(&[&[1000.0]]));
        Sgd::new(1.0).with_clip(1.0).step(&ps);
        // clipped gradient has norm 1 → value moves by exactly lr·1
        assert!(
            (p.value().scalar() + 1.0).abs() < 1e-5,
            "got {}",
            p.value().scalar()
        );
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = Adam::new(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        o.set_learning_rate(0.001);
        assert_eq!(o.learning_rate(), 0.001);
    }

    #[test]
    fn adam_handles_params_added_later() {
        let mut ps = ParamSet::new();
        ps.add("a", Tensor::zeros(Shape::matrix(1, 1)));
        let mut opt = Adam::new(0.1);
        opt.step(&ps); // state for 1 param
        ps.add("b", Tensor::zeros(Shape::matrix(1, 1)));
        opt.step(&ps); // must grow state without panicking
        assert_eq!(opt.m.len(), 2);
    }
}
