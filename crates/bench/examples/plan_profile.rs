//! Prints the analyze-layer cost table for the quick-scale training tape
//! plus wall-clock forward/backward splits of the compiled plan and the
//! eager tape — the map of where a training step's time goes.
//!
//! ```text
//! cargo run --release -p stgnn-bench --example plan_profile
//! ```

use std::time::Instant;
use stgnn_bench::Scale;
use stgnn_core::model::ModelInputs;
use stgnn_core::StgnnDjd;
use stgnn_data::dataset::{BikeDataset, Split};
use stgnn_data::synthetic::SyntheticCity;
use stgnn_tensor::autograd::Graph;

fn main() {
    let scale = Scale::from_env();
    let city = SyntheticCity::generate(scale.chicago_city());
    let data = BikeDataset::from_city(&city, scale.dataset_config()).expect("dataset");
    let config = scale.stgnn_config();
    let model = StgnnDjd::new(config.clone(), data.n_stations()).expect("config");
    let t0 = data.slots(Split::Train)[0];

    // Cost table of the eager training tape.
    let g = Graph::new();
    let inputs = ModelInputs::from_dataset(&data, t0);
    let out = model.forward(&g, &inputs, true);
    let (dt, st) = data.targets_horizon(t0, config.horizon).expect("targets");
    let sq = model.squared_loss(&g, &out, &dt, &st);
    let snapshot = g.snapshot();
    let report = stgnn_analyze::validate_tape(&snapshot, &[sq.id()]);
    println!("{}", report.render());
    let mut by_op = report.by_op.clone();
    by_op.sort_by_key(|r| std::cmp::Reverse(r.flops));
    println!(
        "{:<20} {:>6} {:>12} {:>10}",
        "op", "count", "flops", "bytes"
    );
    for c in by_op.iter().take(12) {
        println!(
            "{:<20} {:>6} {:>12} {:>10}",
            c.op, c.count, c.flops, c.bytes
        );
    }

    // Matmul shape histogram — which sizes the blocked kernels must serve.
    let mut shapes: Vec<(String, usize)> = Vec::new();
    for node in &snapshot.nodes {
        if node.op.name() == "matmul" {
            let l = &snapshot.nodes[node.parents[0]].shape;
            let r = &snapshot.nodes[node.parents[1]].shape;
            let key = format!("{l}x{r}");
            match shapes.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => shapes.push((key, 1)),
            }
        }
    }
    shapes.sort_by_key(|s| std::cmp::Reverse(s.1));
    println!("matmul shapes:");
    for (s, c) in &shapes {
        println!("  {c:>3} x  {s}");
    }

    // Wall-clock split: plan forward vs backward vs eager fwd/bwd.
    let plan = model
        .compile_training_plan(&data, t0)
        .expect("compile")
        .expect("compiles");
    println!("\npass report: {}", plan.pass_report());
    let mut exec = plan.executor();
    let iters = 60;
    for _ in 0..3 {
        model.params().zero_grads();
        model
            .plan_step_forward(&plan, &mut exec, &data, t0)
            .unwrap();
        model.plan_step_backward(&plan, &mut exec, 0.5).unwrap();
    }
    let mut fwd = Vec::new();
    let mut bwd = Vec::new();
    let mut efwd = Vec::new();
    let mut ebwd = Vec::new();
    for _ in 0..iters {
        model.params().zero_grads();
        let s = Instant::now();
        model
            .plan_step_forward(&plan, &mut exec, &data, t0)
            .unwrap();
        fwd.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        model.plan_step_backward(&plan, &mut exec, 0.5).unwrap();
        bwd.push(s.elapsed().as_secs_f64() * 1e3);

        model.params().zero_grads();
        let s = Instant::now();
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(&data, t0);
        let out = model.forward(&g, &inputs, true);
        let sq = model.squared_loss(&g, &out, &dt, &st);
        efwd.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        sq.mul_scalar(0.5).backward();
        ebwd.push(s.elapsed().as_secs_f64() * 1e3);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    println!(
        "plan  fwd {:.3}ms  bwd {:.3}ms\neager fwd {:.3}ms  bwd {:.3}ms",
        med(&mut fwd),
        med(&mut bwd),
        med(&mut efwd),
        med(&mut ebwd)
    );
}
