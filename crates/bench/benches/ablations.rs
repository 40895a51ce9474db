//! Ablation benchmark for an implementation design choice called out in
//! DESIGN.md: the **zero-skipping matmul** — the sparse-aware inner loop on
//! realistic (mostly-zero) flow matrices versus dense random input.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stgnn_tensor::{Shape, Tensor};

fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
    let data: Vec<f32> = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

fn bench_sparse_aware_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(13);
    let n = 96;
    let dense = random_matrix(&mut rng, n, n);
    // Realistic flow matrix: ~5% of station pairs exchange bikes in a slot.
    let sparse_data: Vec<f32> = (0..n * n)
        .map(|_| {
            if rng.gen::<f32>() < 0.05 {
                rng.gen_range(1.0..4.0)
            } else {
                0.0
            }
        })
        .collect();
    let sparse = Tensor::from_vec(Shape::matrix(n, n), sparse_data).unwrap();
    let rhs = random_matrix(&mut rng, n, n);

    let mut group = c.benchmark_group("matmul_zero_skip");
    group.bench_function("dense_lhs", |b| {
        b.iter(|| black_box(dense.matmul(&rhs).unwrap()))
    });
    group.bench_function("sparse_flow_lhs", |b| {
        b.iter(|| black_box(sparse.matmul(&rhs).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_sparse_aware_matmul);
criterion_main!(benches);
