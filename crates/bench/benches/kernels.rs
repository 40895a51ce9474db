//! Criterion microbenchmarks of the compute kernels under the model:
//! matmul, the autodiff tape round-trip, flow convolution forward and
//! spatial-temporal graph generation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stgnn_core::config::StgnnConfig;
use stgnn_core::flow_conv::{fcg_mask, FlowConvolution};
use stgnn_tensor::autograd::{Graph, Param, ParamSet};
use stgnn_tensor::{Shape, Tensor};

fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
    let data: Vec<f32> = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[32usize, 64, 128] {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_autodiff_round_trip(c: &mut Criterion) {
    // A 3-layer tanh MLP forward+backward: measures tape overhead beyond
    // the raw matmuls.
    let mut group = c.benchmark_group("autodiff_mlp_fwd_bwd");
    let mut rng = StdRng::seed_from_u64(2);
    for &n in &[32usize, 64] {
        let mut ps = ParamSet::new();
        let w1 = ps.add("w1", random_matrix(&mut rng, n, n));
        let w2 = ps.add("w2", random_matrix(&mut rng, n, n));
        let w3 = ps.add("w3", random_matrix(&mut rng, n, 1));
        let x = random_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                ps.zero_grads();
                let g = Graph::new();
                let xv = g.leaf(x.clone());
                let y = xv
                    .matmul(&g.param(&w1))
                    .tanh()
                    .matmul(&g.param(&w2))
                    .tanh()
                    .matmul(&g.param(&w3))
                    .sum_all();
                y.backward();
                black_box(w1.grad());
            });
        });
        let _ = (&w2, &w3);
    }
    group.finish();
}

fn bench_flow_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_convolution_forward");
    let mut rng = StdRng::seed_from_u64(3);
    for &(n, k, d) in &[(28usize, 48usize, 3usize), (64, 96, 7)] {
        let config = StgnnConfig {
            k,
            d,
            ..StgnnConfig::paper()
        };
        let mut ps = ParamSet::new();
        let fc = FlowConvolution::new(&mut ps, &mut rng, &config, n);
        let si = random_matrix(&mut rng, k, n * n).relu();
        let so = random_matrix(&mut rng, k, n * n).relu();
        let li = random_matrix(&mut rng, d, n * n).relu();
        let lo = random_matrix(&mut rng, d, n * n).relu();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k{k}_d{d}")),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let g = Graph::new();
                    let out = fc.forward(&g, &si, &so, &li, &lo);
                    black_box(out.t.value());
                });
            },
        );
    }
    group.finish();
}

fn bench_graph_generation(c: &mut Criterion) {
    // FCG mask generation from fused embeddings: the per-slot
    // spatial-temporal graph construction cost (the Eq 10 edge weights are
    // tape ops inside the FCG forward).
    let mut group = c.benchmark_group("st_graph_generation");
    let mut rng = StdRng::seed_from_u64(4);
    for &n in &[28usize, 64, 128] {
        let i_hat = random_matrix(&mut rng, n, n).relu();
        let o_hat = random_matrix(&mut rng, n, n).relu();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(fcg_mask(&i_hat, &o_hat)));
        });
    }
    group.finish();
}

fn bench_matmul_density(c: &mut Criterion) {
    // The density probe: matmul samples the lhs and takes a
    // skip-multiplications-by-zero inner loop when it looks sparse.
    // Bench note — on 512×512 with a 90%-zero lhs (the regime of
    // ReLU-masked flow matrices), the sparse path runs ~3–4× faster than
    // the dense path on the same shapes, while an all-dense lhs stays on
    // the dense path and pays only the probe (~1k strided reads, <1% of
    // one matmul). `dense` vs `sparse` below measures exactly that split.
    let mut group = c.benchmark_group("matmul_density_probe");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(9);
    let n = 512usize;
    let rhs = random_matrix(&mut rng, n, n);
    let dense = random_matrix(&mut rng, n, n);
    let sparse_data: Vec<f32> = (0..n * n)
        .map(|_| {
            if rng.gen_range(0.0..1.0f32) < 0.9 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    let sparse = Tensor::from_vec(Shape::matrix(n, n), sparse_data).unwrap();
    group.bench_function("dense", |b| {
        b.iter(|| black_box(dense.matmul(&rhs).unwrap()));
    });
    group.bench_function("sparse", |b| {
        b.iter(|| black_box(sparse.matmul(&rhs).unwrap()));
    });
    group.finish();
}

fn bench_tensor_clone_cow(c: &mut Criterion) {
    // The COW design claim: cloning a big tensor is O(1).
    let mut rng = StdRng::seed_from_u64(5);
    let big = random_matrix(&mut rng, 512, 512);
    c.bench_function("tensor_clone_cow_512x512", |b| {
        b.iter(|| black_box(big.clone()));
    });
    c.bench_function("tensor_deep_copy_512x512", |b| {
        b.iter(|| {
            let mut copy = big.clone();
            copy.data_mut()[0] += 1.0; // forces the actual copy
            black_box(copy);
        });
    });
}

fn bench_param_holder(_c: &mut Criterion) {
    // keep Param import used in all configurations
    let _ = Param::new("unused", Tensor::zeros(Shape::matrix(1, 1)));
}

criterion_group!(
    benches,
    bench_matmul,
    bench_autodiff_round_trip,
    bench_flow_convolution,
    bench_graph_generation,
    bench_matmul_density,
    bench_tensor_clone_cow,
    bench_param_holder,
);
criterion_main!(benches);
