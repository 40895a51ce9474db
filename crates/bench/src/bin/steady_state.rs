// sound: allow-file(S004, S005): BENCH-LATENCY-IS-WALLCLOCK — these
// benchmarks measure wall-clock latency; timing flowing into the emitted
// JSON is the entire point, not a determinism leak.
//! Steady-state memory-plane benchmark: eager tape re-tracing vs compiled
//! plan replay, for the training step and the serve forward.
//!
//! Emits `BENCH_steady_state.json` (train-step time, serve p50/p99, pool
//! hit rate, allocations/step, and the plan-over-eager speedup) — the
//! baseline later PRs must beat. Kernels run on the calling thread, so
//! there is one cell.
//!
//! ```text
//! cargo run -p stgnn-bench --release --bin steady_state
//! STGNN_BENCH_SMOKE=1 cargo run -p stgnn-bench --release --bin steady_state   # CI smoke
//! ```
//!
//! Smoke mode shrinks the iteration counts (not the model) so CI exercises
//! the full measurement path in seconds; the JSON schema is identical.

use std::time::Instant;
use stgnn_bench::{Scale, TableWriter};
use stgnn_core::model::ModelInputs;
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, Split};
use stgnn_data::synthetic::SyntheticCity;
use stgnn_tensor::autograd::Graph;
use stgnn_tensor::pool;

/// One measurement pass: both paths, training step and serve forward.
struct Cell {
    train_step_eager_ms: f64,
    train_step_plan_ms: f64,
    serve_eager_p50_ms: f64,
    serve_eager_p99_ms: f64,
    serve_plan_p50_ms: f64,
    serve_plan_p99_ms: f64,
    pool_hit_rate: f64,
    allocs_per_step: f64,
}

impl Cell {
    fn train_speedup(&self) -> f64 {
        self.train_step_eager_ms / self.train_step_plan_ms.max(1e-9)
    }

    fn serve_speedup(&self) -> f64 {
        self.serve_eager_p50_ms / self.serve_plan_p50_ms.max(1e-9)
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 * q) as usize).min(sorted_ms.len() - 1);
    sorted_ms[idx]
}

/// Median of unsorted per-iteration samples. The bench interleaves eager
/// and plan iterations and reports medians, so a scheduler stall during
/// the run hits both paths alike and cancels out of the speedup ratio —
/// a mean over a dedicated section charges the whole stall to one path.
fn median_ms(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    percentile(&sorted, 0.50)
}

/// Renders a float for JSON at the given precision, mapping non-finite
/// values to `null` — `format!("{:.3}", f64::INFINITY)` prints `inf`,
/// which is not JSON, and a zero-duration denominator can produce it.
fn jnum(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// One full measurement pass.
fn measure(
    data: &BikeDataset,
    config: &StgnnConfig,
    train_iters: usize,
    serve_iters: usize,
) -> Cell {
    let model = StgnnDjd::new(config.clone(), data.n_stations()).expect("config");
    let horizon = config.horizon;
    let train_slots: Vec<usize> = data.slots(Split::Train);
    let test_slots: Vec<usize> = data.slots(Split::Test);
    let probe = train_slots[0];
    // The trainer's per-slot gradient seed for a batch of 1 at unit loss —
    // the value itself is irrelevant to timing, it just has to flow.
    let grad_scale = 0.5f32;

    // -- Training step: eager re-trace vs plan replay, interleaved --------
    let eager_step = |t: usize| {
        model.params().zero_grads();
        let g = Graph::new();
        let inputs = ModelInputs::from_dataset(data, t);
        let out = model.forward(&g, &inputs, true);
        let (dt, st) = data.targets_horizon(t, horizon).expect("targets");
        let sq = model.squared_loss(&g, &out, &dt, &st);
        sq.mul_scalar(grad_scale).backward();
    };
    let plan = model
        .compile_training_plan(data, probe)
        .expect("compile")
        .expect("standard config compiles");
    let mut exec = plan.executor();
    let plan_step = |exec: &mut stgnn_tensor::plan::PlanExec, t: usize| {
        model.params().zero_grads();
        model
            .plan_step_forward(&plan, exec, data, t)
            .expect("plan forward");
        model
            .plan_step_backward(&plan, exec, grad_scale)
            .expect("plan backward");
    };
    for &t in train_slots.iter().cycle().take(3) {
        eager_step(t); // warm the tensor pool and the page cache
        plan_step(&mut exec, t); // warm-up: populates every pooled slot
    }
    let mut eager_tr: Vec<f64> = Vec::with_capacity(train_iters);
    let mut plan_tr: Vec<f64> = Vec::with_capacity(train_iters);
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    for &t in train_slots.iter().cycle().take(train_iters) {
        let s = Instant::now();
        eager_step(t);
        eager_tr.push(s.elapsed().as_secs_f64() * 1e3);
        let before = pool::stats();
        let s = Instant::now();
        plan_step(&mut exec, t);
        plan_tr.push(s.elapsed().as_secs_f64() * 1e3);
        let d = pool::stats().since(&before);
        plan_hits += d.hits;
        plan_misses += d.misses;
    }
    let train_step_eager_ms = median_ms(&eager_tr);
    let train_step_plan_ms = median_ms(&plan_tr);
    let allocs_per_step = plan_misses as f64 / train_iters as f64;
    let pool_hit_rate = {
        let total = plan_hits + plan_misses;
        if total == 0 {
            0.0
        } else {
            plan_hits as f64 / total as f64
        }
    };

    // -- Serve forward: eager vs plan, interleaved (the worker's calls) ---
    let inf_plan = model
        .compile_inference_plan(data, test_slots[0])
        .expect("compile")
        .expect("standard config compiles");
    let mut inf_exec = inf_plan.executor();
    let _ = model.predict_horizon(data, test_slots[0]);
    let _ = model.plan_predict_horizon(&inf_plan, &mut inf_exec, data, test_slots[0]);
    let mut eager_ms: Vec<f64> = Vec::with_capacity(serve_iters);
    let mut plan_ms: Vec<f64> = Vec::with_capacity(serve_iters);
    for &t in test_slots.iter().cycle().take(serve_iters) {
        let s = Instant::now();
        let _ = model.predict_horizon(data, t);
        eager_ms.push(s.elapsed().as_secs_f64() * 1e3);
        let s = Instant::now();
        let _ = model
            .plan_predict_horizon(&inf_plan, &mut inf_exec, data, t)
            .expect("plan predict");
        plan_ms.push(s.elapsed().as_secs_f64() * 1e3);
    }
    eager_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    plan_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    Cell {
        train_step_eager_ms,
        train_step_plan_ms,
        serve_eager_p50_ms: percentile(&eager_ms, 0.50),
        serve_eager_p99_ms: percentile(&eager_ms, 0.99),
        serve_plan_p50_ms: percentile(&plan_ms, 0.50),
        serve_plan_p99_ms: percentile(&plan_ms, 0.99),
        pool_hit_rate,
        allocs_per_step,
    }
}

/// One `cells` entry. `threads` is always 1 (kernels run on the calling
/// thread); the key stays because CI's speedup gate prints it.
fn json_cell(c: &Cell) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"threads\": 1,\n",
            "      \"train_step_eager_ms\": {},\n",
            "      \"train_step_plan_ms\": {},\n",
            "      \"train_speedup\": {},\n",
            "      \"serve_eager_p50_ms\": {},\n",
            "      \"serve_eager_p99_ms\": {},\n",
            "      \"serve_plan_p50_ms\": {},\n",
            "      \"serve_plan_p99_ms\": {},\n",
            "      \"serve_speedup\": {},\n",
            "      \"pool_hit_rate\": {},\n",
            "      \"allocs_per_step\": {}\n",
            "    }}"
        ),
        jnum(c.train_step_eager_ms, 4),
        jnum(c.train_step_plan_ms, 4),
        jnum(c.train_speedup(), 3),
        jnum(c.serve_eager_p50_ms, 4),
        jnum(c.serve_eager_p99_ms, 4),
        jnum(c.serve_plan_p50_ms, 4),
        jnum(c.serve_plan_p99_ms, 4),
        jnum(c.serve_speedup(), 3),
        jnum(c.pool_hit_rate, 6),
        jnum(c.allocs_per_step, 4),
    )
}

fn main() {
    let smoke = std::env::var("STGNN_BENCH_SMOKE").is_ok();
    let (train_iters, serve_iters) = if smoke { (6, 16) } else { (40, 200) };
    let scale = Scale::from_env();
    eprintln!(
        "[steady_state] {scale:?} scale, {} mode",
        if smoke { "smoke" } else { "full" }
    );

    let city = SyntheticCity::generate(scale.chicago_city());
    let data = BikeDataset::from_city(&city, scale.dataset_config()).expect("dataset");
    let config = scale.stgnn_config();

    let mut table = TableWriter::new(
        "Steady state: eager re-trace vs compiled plan replay",
        &[
            "Train eager (ms)",
            "Train plan (ms)",
            "Speedup",
            "Serve p50/p99 (ms)",
            "Pool hit rate",
            "Allocs/step",
        ],
    );
    let cell = measure(&data, &config, train_iters, serve_iters);
    table.row(&[
        format!("{:.3}", cell.train_step_eager_ms),
        format!("{:.3}", cell.train_step_plan_ms),
        format!("{:.2}x", cell.train_speedup()),
        format!(
            "{:.3}/{:.3}",
            cell.serve_plan_p50_ms, cell.serve_plan_p99_ms
        ),
        format!("{:.4}", cell.pool_hit_rate),
        format!("{:.2}", cell.allocs_per_step),
    ]);
    table.finish("steady_state");

    let body = format!(
        "{{\n  \"benchmark\": \"steady_state\",\n  \"scale\": \"{:?}\",\n  \"smoke\": {},\n  \"train_iters\": {},\n  \"serve_iters\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        scale,
        smoke,
        train_iters,
        serve_iters,
        json_cell(&cell),
    );
    // Atomic: the driver diffs this file across runs, so a crashed bench
    // must never leave a truncated JSON behind.
    match stgnn_faults::fsio::atomic_write("BENCH_steady_state.json", |w| {
        w.write_all(body.as_bytes())
    }) {
        Ok(()) => eprintln!("[steady_state] wrote BENCH_steady_state.json"),
        Err(e) => eprintln!("[steady_state] could not write BENCH_steady_state.json: {e}"),
    }
    println!(
        "Replay reuses every intermediate buffer through the tensor pool; after warm-up the\n\
         training step and the serve forward run with zero pool misses (Allocs/step above)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_vector_is_zero_not_a_panic() {
        assert_eq!(percentile(&[], 0.50), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn percentile_clamps_to_last_element() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.99), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn jnum_clamps_non_finite_to_null() {
        assert_eq!(jnum(f64::INFINITY, 3), "null");
        assert_eq!(jnum(f64::NEG_INFINITY, 4), "null");
        assert_eq!(jnum(f64::NAN, 3), "null");
        assert_eq!(jnum(1.25, 3), "1.250");
    }

    #[test]
    fn json_cell_with_zero_plan_time_stays_valid_json() {
        // A zero-duration plan denominator must not leak `inf` into the
        // report (speedup divides by `.max(1e-9)`, so the number is huge
        // but finite; the non-finite inputs below are clamped to null).
        let c = Cell {
            train_step_eager_ms: f64::INFINITY,
            train_step_plan_ms: 0.0,
            serve_eager_p50_ms: f64::NAN,
            serve_eager_p99_ms: 0.0,
            serve_plan_p50_ms: 0.0,
            serve_plan_p99_ms: 0.0,
            pool_hit_rate: 1.0,
            allocs_per_step: 0.0,
        };
        let s = json_cell(&c);
        assert!(!s.contains("inf"), "{s}");
        assert!(!s.contains("NaN"), "{s}");
        assert!(s.contains("\"train_step_eager_ms\": null"), "{s}");
        assert!(s.contains("\"serve_eager_p50_ms\": null"), "{s}");
    }
}
