// sound: allow-file(S004, S005): BENCH-LATENCY-IS-WALLCLOCK — this crate
// measures wall-clock time; timing flowing into the printed result is the
// point, not a determinism leak.
//! The repository benchmark: four workloads over the public APIs of
//! `stgnn-core`, `stgnn-serve`, `stgnn-scale` and `stgnn-online`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-paper --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root (the root `.cargo/config.toml` sets the
//! x86-64-v3 codegen floor the workspace is built with). `--workload all`
//! runs every workload in turn. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it name every metric with its unit,
//! the load generator's honesty counts, and the run metadata. The exit
//! code is non-zero when an output check fails.
//!
//! `BENCHMARK.json` at the repository root records why each workload
//! exists and what each metric means; `perfbench/README.md` has the
//! per-layer definitions.

mod fleet;
mod load;
mod online;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

/// Where the process started: the first set-up is timed from here.
static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("predict_p50_ms", "ms"),
    ("slo_met_ratio", "ratio"),
];

/// Per-layer metrics: every traced run reports all of them, 0 where the
/// workload bypasses the layer. Times are mean self time per unit of the
/// workload's work (a trained slot, a request, a loop cycle).
/// `predict_p99_ms` is the end-to-end tail of the traced run's requests:
/// on a shared two-core host it moves too much from run to run to bound,
/// so it is reported here, beside the layers that explain it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("predict_p99_ms", "ms"),
    ("data.window_ms", "ms"),
    ("data.window_mb", "MiB"),
    ("plan.forward_ms", "ms"),
    ("plan.backward_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("tensor.gemm_mflop", "Mflop"),
    ("tensor.sweep_mb", "MiB"),
    ("tensor.pool_misses_per_step", "count"),
    ("plan.compile_ms", "ms"),
    ("analyze.tape_ms", "ms"),
    ("core.val_ms", "ms"),
    ("train.residual_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.forwards", "count"),
    ("serve.fallbacks", "count"),
    ("serve.errors", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.read_after_swap_ms", "ms"),
    ("scale.dispatch_ms", "ms"),
    ("scale.replica_share_max", "ratio"),
    ("scale.forwards_per_slot", "count"),
    ("scale.sheds", "count"),
    ("scale.failovers", "count"),
    ("online.ingest_ms", "ms"),
    ("online.verify_ms", "ms"),
    ("online.dataset_ms", "ms"),
    ("online.finetune_ms", "ms"),
    ("online.gate_ms", "ms"),
    ("online.shadow_ms", "ms"),
    ("online.promote_ratio", "ratio"),
    ("online.residual_ms", "ms"),
    ("faults.state_write_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainPaper,
    ServeSweep,
    FleetRush,
    OnlineSwap,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TrainPaper,
        Workload::ServeSweep,
        Workload::FleetRush,
        Workload::OnlineSwap,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TrainPaper => "train-paper",
            Workload::ServeSweep => "serve-sweep",
            Workload::FleetRush => "fleet-rush",
            Workload::OnlineSwap => "online-swap",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// A seed for one independent input stream of this run.
    pub fn stream(&self, stream: u64) -> u64 {
        // SplitMix64 finaliser over (seed, stream).
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What a workload run produced: operation counts, check failures, metrics
/// and human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one failed operation when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs `build` [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds. The first repetition is timed from
/// process start, so process start-up counts as set-up.
pub fn timed_setup<T>(mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up before building the next one, so peak
        // memory is one set-up's, not several.
        drop(last.take());
        let start = if rep == 0 {
            *PROCESS_START.get_or_init(Instant::now)
        } else {
            Instant::now()
        };
        last = Some(build(rep));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Peak resident memory (`VmHWM`) in MiB, NaN where `/proc` is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The directory for this run's scratch files and trace output, inside
/// the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown".into()
    } else {
        resolved.into()
    }
}

fn meta_line(workload: Workload, args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = stgnn_tensor::par::init();
    let threads_env = std::env::var("STGNN_THREADS").unwrap_or_else(|_| "unset".into());
    let isa = if cfg!(target_feature = "avx2") && cfg!(target_feature = "fma") {
        "x86-64-v3"
    } else {
        "below-x86-64-v3"
    };
    format!(
        r#"meta {{"workload":"{}","seed":{},"seconds":{},"trace":{},"cores":{cores},"kernel_pool":{pool},"stgnn_threads":"{threads_env}","isa_floor":"{isa}","commit":"{}"}}"#,
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        commit()
    )
}

fn run_one(workload: Workload, args: &Args) -> Outcome {
    let mut out = match workload {
        Workload::TrainPaper => train::run(args),
        Workload::ServeSweep => serve::run(args),
        Workload::FleetRush => fleet::run(args),
        Workload::OnlineSwap => online::run(args),
    };
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// Renders the result line with every metric of `list`: a per-layer metric
/// the workload never touches reads 0, an end-to-end metric it could not
/// measure reads `null`.
fn result_json(out: &Outcome, list: &[(&'static str, &'static str)], trace: bool) -> String {
    let missing = if trace { 0.0 } else { f64::NAN };
    let metrics: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(missing, |&(_, v)| v);
            format!(
                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                stats::jnum(value)
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn parse_args() -> Result<(Vec<Workload>, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or(format!(
            "unknown workload {workload:?}; one of train-paper, serve-sweep, fleet-rush, online-swap, all"
        ))?]
    };
    let seed = seed.ok_or("--seed is required")?;
    Ok((
        workloads,
        Args {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() -> ExitCode {
    PROCESS_START.get_or_init(Instant::now);
    // The kernel pool runs one thread unless STGNN_THREADS names a width.
    // On the shared two-vCPU VM this was written on, the default width of
    // two bought no speed (paper-scale training 49-64 slots/s with two
    // threads, 54-59 with one; a prediction 4.7 ms with two, 3.0-3.3 with
    // one) and ran less steadily from run to run; perfbench/README.md has
    // the runs. Set before any thread starts, so the pool reads it.
    if std::env::var_os("STGNN_THREADS").is_none() {
        std::env::set_var("STGNN_THREADS", "1");
    }
    let (workloads, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    debug_assert!(list.iter().all(|(n, _)| stats::valid_metric_name(n)));
    let mut all_ok = true;
    let mut total = Outcome::default();
    for &workload in &workloads {
        let out = run_one(workload, &args);
        println!("{}", meta_line(workload, &args));
        for line in &out.notes {
            println!("{}: {line}", workload.name());
        }
        for (name, unit) in list {
            if let Some((_, v)) = out.metrics.iter().rev().find(|(n, _)| n == name) {
                println!("{}: {name} = {v:.6} {unit}", workload.name());
            }
        }
        for f in &out.failures {
            println!("{}: CHECK FAILED: {f}", workload.name());
        }
        all_ok &= out.failed == 0 && out.attempted > 0;
        if workloads.len() == 1 {
            total = out;
        } else {
            println!(
                "{}: {}",
                workload.name(),
                result_json(&out, list, args.trace)
            );
            total.attempted += out.attempted;
            total.failed += out.failed;
        }
    }
    // Several workloads: the last line totals their operations; each
    // workload's metrics are on its own line above.
    let list = if workloads.len() == 1 { list } else { &[] };
    println!("{}", result_json(&total, list, args.trace));
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here are the ones `BENCHMARK.json` names,
    /// with the same units, and every name follows the grammar.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches(r#"{"name": ""#).count();
        let workloads = Workload::ALL.len();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + workloads);
        for w in Workload::ALL {
            assert!(json.contains(&format!(r#"{{"name": "{}", "why""#, w.name())));
        }
    }
}
