//! The backward forms no gradient that no parameter reads.
//!
//! `leaf(X)·param(W)` with a large `X`: both executors must deposit the
//! same `W` gradient, and neither may form `X`'s. This file holds one test,
//! so the process-wide pool counters it reads see no other test's buffers.

use stgnn_tensor::autograd::{Graph, ParamSet};
use stgnn_tensor::plan::{LeafBinding, Plan, PlanSpec};
use stgnn_tensor::{pool, Shape, Tensor};

/// `X` is `ROWS×COLS`, 4 MiB of `f32`: far larger than every other buffer
/// the backward may issue (`W` and its gradient are `COLS×1`).
const ROWS: usize = 256;
const COLS: usize = 4096;

fn values(seed: u32, r: usize, c: usize) -> Tensor {
    let mut state = seed;
    let data = (0..r * c)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn a_leaf_no_parameter_reads_gets_no_gradient_in_either_executor() {
    let x = values(1, ROWS, COLS);
    let mut params = ParamSet::new();
    let w = params.add("w", values(2, COLS, 1));

    // The compiled plan: X is a rebound input, W a parameter binding.
    let g = Graph::new();
    let xl = g.leaf(x.clone());
    let loss = xl.matmul(&g.param(&w)).square().sum_all();
    let plan = Plan::compile(
        &g.snapshot(),
        &params,
        PlanSpec {
            bindings: vec![(xl.id(), LeafBinding::Input(0))],
            roots: vec![loss.id()],
            loss: Some(loss.id()),
        },
    )
    .unwrap();
    let mut exec = plan.executor();
    params.zero_grads();
    plan.forward(&mut exec, std::slice::from_ref(&x)).unwrap();
    // With the shelves empty, every buffer the backward issues is a fresh
    // allocation that stays counted (live or shelved) after it returns.
    pool::trim();
    let before = pool::stats();
    plan.backward(&mut exec, 1.0).unwrap();
    let after = pool::stats();
    let held = |s: &pool::PoolStats| s.outstanding_bytes + s.pooled_bytes as i64;
    let issued = held(&after) - held(&before);
    let x_bytes = (ROWS * COLS * std::mem::size_of::<f32>()) as i64;
    assert!(
        issued < x_bytes,
        "the plan's backward issued {issued} bytes, an X-sized gradient among them ({x_bytes} bytes)"
    );
    let plan_grad = w.grad();

    // The eager tape over the same values.
    params.zero_grads();
    let g = Graph::new();
    let xe = g.leaf(x);
    let loss = xe.matmul(&g.param(&w)).square().sum_all();
    loss.backward();
    assert!(
        xe.grad().is_none(),
        "eager backward formed the gradient of a leaf no parameter reads"
    );
    assert_eq!(
        bits(&w.grad()),
        bits(&plan_grad),
        "W's gradient differs between the executors"
    );
}
