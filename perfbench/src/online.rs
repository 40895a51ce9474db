//! `online-swap`: the train-while-serving loop under read traffic.
//!
//! `OnlineLoop::run_cycle` on a 20-station city, an 8-day sliding window
//! and lenient gate tolerances (as `examples/online_loop.rs`), so every
//! cycle fine-tunes, gates, shadows and promotes. Meanwhile one sender
//! thread reads the current slot from the `Server` whose registry the loop
//! swaps into. The only workload that writes beside reads: fine-tune,
//! checkpoint and state-file fsyncs, `swap_at_epoch` with tape validation,
//! and a per-worker model rebuild and plan recompile after each swap.

use crate::load::{self, Answer, PhaseStats, Reply, Shot};
use crate::serve::{report_serve_counters, SLO};
use crate::stats;
use crate::trace::Tracer;
use crate::train::{metric_ms, replay_training, window_cost, window_mb, write_trace, Replay};
use crate::{out_dir, timed_setup, Args, Outcome};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_data::TripRecord;
use stgnn_online::gate::{self, GateConfig};
use stgnn_online::{CycleOutcome, LoopState, OnlineConfig, OnlineLoop, Phase, TripWindow};
use stgnn_serve::{ModelSpec, ServeConfig, Server};

const MODEL: &str = "stgnn";
const WINDOW_DAYS: usize = 8;
/// Days of trips: enough that no run ingests past the source.
const DAYS: usize = 160;
/// Reads per second from the one reader thread.
const READ_RATE: f64 = 40.0;
/// Reads per run, at least: enough for a p99 with 10 samples beyond.
const MIN_READS: usize = 1000;

struct Setup {
    dir: PathBuf,
    source: SyntheticCity,
    server: Server,
    config: OnlineConfig,
    looper: OnlineLoop,
    /// Promotions while the window filled (its last day fine-tunes).
    warm_promotions: usize,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn train_config(args: &Args) -> StgnnConfig {
    let mut c = StgnnConfig::test_tiny(6, 2);
    c.epochs = 2;
    c.max_batches_per_epoch = Some(8);
    c.seed = args.stream(8);
    c
}

fn build(args: &Args, rep: usize) -> Setup {
    let dir = out_dir().join(format!("online-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory");
    let mut city = CityConfig::test_small(args.stream(7));
    city.days = DAYS;
    let source = SyntheticCity::generate(city);
    let data = Arc::new(
        BikeDataset::from_city(&source, DatasetConfig::small(6, 2)).expect("online dataset"),
    );
    let train = train_config(args);
    let server = Server::start(Arc::clone(&data), ServeConfig::default()).expect("server start");
    let spec = ModelSpec::new(train.clone(), data.n_stations());
    let weights = spec.materialize().expect("model").weights_to_bytes();
    server
        .registry()
        .register(MODEL, spec, weights)
        .expect("register");
    let mut config = OnlineConfig {
        model_name: MODEL.into(),
        window_days: WINDOW_DAYS,
        dataset: DatasetConfig::small(6, 2),
        train,
        gate: GateConfig::default(),
        watchdog: Default::default(),
        state_path: dir.join("loop.state"),
        checkpoint_path: dir.join("finetune.ckpt"),
        checkpoint_every: 8,
    };
    config.gate.holdout_tolerance = 2.0;
    config.gate.shadow_tolerance = 2.0;
    let mut looper =
        OnlineLoop::new(config.clone(), Arc::clone(server.registry()), &source).expect("loop");
    // Warm-up: fill the window (the last filling cycle already fine-tunes)
    // and serve one read.
    let mut warm_promotions = 0;
    while !looper.window().is_full() {
        let outcome = looper.run_cycle().expect("window fill");
        warm_promotions += usize::from(matches!(outcome, CycleOutcome::Promoted { .. }));
    }
    let slot = current_slot(&looper, &data);
    let _ = load::get(
        server.addr(),
        &format!("/predict?model={MODEL}&slot={slot}&station=0"),
    );
    Setup {
        dir,
        source,
        server,
        config,
        looper,
        warm_promotions,
    }
}

/// The newest slot the loop has ingested, clamped to what the server
/// answers for.
fn current_slot(looper: &OnlineLoop, data: &BikeDataset) -> usize {
    let spd = data.slots_per_day();
    (looper.state().day_cursor * spd)
        .saturating_sub(1)
        .clamp(data.first_valid_slot(), data.flows().num_slots())
}

/// One real cycle as the loop ran it.
struct Cycle {
    wall: Duration,
    promoted: bool,
    /// When `run_cycle` returned a promotion, from the phase origin.
    promoted_at: Option<Duration>,
}

/// What the cycle thread did while the reader ran.
struct CyclePhase {
    cycles: Vec<Cycle>,
    errors: Vec<String>,
    replayed: usize,
    replay_promotions: Vec<Duration>,
    /// Tensor-layer counts of the replayed fine-tunes.
    tensor: TensorCounts,
}

#[derive(Default)]
struct TensorCounts {
    gemm_flops: u64,
    sweep_bytes: u64,
    pool_misses: u64,
    steps: u64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, setup_s) = if args.trace {
        (build(args, 0), f64::NAN)
    } else {
        timed_setup(|rep| build(args, rep))
    };
    if !args.trace {
        out.metric("setup_s", setup_s);
    }
    let data =
        BikeDataset::from_city(&setup.source, DatasetConfig::small(6, 2)).expect("online dataset");
    let addr = setup.server.addr();
    let slot = AtomicUsize::new(current_slot(&setup.looper, &data));
    let reads_done = AtomicBool::new(false);
    let n_reads = ((READ_RATE * args.seconds).ceil() as usize).max(MIN_READS);
    let schedule = load::fixed_rate(READ_RATE, n_reads);
    let n = data.n_stations();
    let version_before = setup
        .server
        .registry()
        .get(MODEL)
        .map_or(0, |e| e.version());
    let before = setup.server.metrics_snapshot();

    let mut tr = Tracer::new(Instant::now());
    let origin = Instant::now();
    let window = window_cost(&data, 16);
    let (reads, cycle_phase) = std::thread::scope(|s| {
        let looper = &mut setup.looper;
        let config = &setup.config;
        let source = &setup.source;
        let registry = Arc::clone(setup.server.registry());
        let (slot, reads_done, data, tr) = (&slot, &reads_done, &data, &mut tr);
        let cycles = s.spawn(move || {
            let mut phase = CyclePhase {
                cycles: Vec::new(),
                errors: Vec::new(),
                replayed: 0,
                replay_promotions: Vec::new(),
                tensor: TensorCounts::default(),
            };
            // Untraced runs: real cycles until the reads end. Traced runs:
            // real cycles for the first half as the reference, then the
            // replay.
            let real_until = if args.trace { 0.5 } else { 1.0 } * args.seconds;
            while !reads_done.load(Ordering::SeqCst)
                && origin.elapsed().as_secs_f64() < real_until
                && looper.state().day_cursor < DAYS
            {
                let start = Instant::now();
                match looper.run_cycle() {
                    Ok(outcome) => {
                        let promoted = matches!(outcome, CycleOutcome::Promoted { .. });
                        phase.cycles.push(Cycle {
                            wall: start.elapsed(),
                            promoted,
                            promoted_at: promoted.then(|| origin.elapsed()),
                        });
                        if let CycleOutcome::Rejected { stage, reason } = outcome {
                            phase
                                .errors
                                .push(format!("candidate rejected at {stage}: {reason}"));
                        }
                    }
                    Err(e) => phase.errors.push(format!("run_cycle: {e}")),
                }
                slot.store(current_slot(looper, data), Ordering::SeqCst);
            }
            if args.trace {
                let mut replay = Replayer::new(looper, source, config, registry);
                while !reads_done.load(Ordering::SeqCst) && replay.day < DAYS {
                    match replay.cycle(tr, window) {
                        Ok(r) => {
                            phase.replayed += 1;
                            phase.replay_promotions.push(origin.elapsed());
                            phase.tensor.gemm_flops = r.gemm_flops;
                            phase.tensor.sweep_bytes = r.sweep_bytes;
                            phase.tensor.pool_misses += r.pool_misses;
                            phase.tensor.steps += r.measured_steps;
                        }
                        Err(e) => {
                            phase.errors.push(format!("replayed cycle: {e}"));
                            break;
                        }
                    }
                    let spd = data.slots_per_day();
                    slot.store(
                        (replay.day * spd)
                            .saturating_sub(1)
                            .clamp(data.first_valid_slot(), data.flows().num_slots()),
                        Ordering::SeqCst,
                    );
                }
            }
            phase
        });
        let reads = load::open_loop(&schedule, 1, |i| {
            let t = slot.load(Ordering::SeqCst);
            load::get(
                addr,
                &format!("/predict?model={MODEL}&slot={t}&station={}", i % n),
            )
        });
        reads_done.store(true, Ordering::SeqCst);
        (reads, cycles.join().expect("cycle thread panicked"))
    });
    let after = setup.server.metrics_snapshot();
    let (reads, wall) = match reads {
        Ok(r) => r,
        Err(e) => {
            out.attempted += 1;
            out.check(false, || e);
            return out;
        }
    };

    // Output checks: every read answered (a deadline fallback is a correct
    // answer that misses the SLO), every cycle promoted, and the registry
    // one version per promotion ahead.
    out.attempted += reads.len() as u64;
    for shot in &reads {
        match &shot.result {
            Ok(a) if a.reply() != Reply::Failed => {}
            Ok(a) => out.check(false, || {
                format!("read {}: status {} {}", shot.index, a.status, a.body)
            }),
            Err(e) => out.check(false, || format!("read {}: {e}", shot.index)),
        }
    }
    let cycles = &cycle_phase.cycles;
    let promotions = cycles.iter().filter(|c| c.promoted).count();
    out.attempted += cycles.len() as u64 + cycle_phase.replayed as u64;
    for e in &cycle_phase.errors {
        out.check(false, || e.clone());
    }
    out.check(!cycles.is_empty() && promotions == cycles.len(), || {
        format!(
            "{promotions} promotions in {} fine-tuning cycles",
            cycles.len()
        )
    });
    let version_after = setup
        .server
        .registry()
        .get(MODEL)
        .map_or(0, |e| e.version());
    let swaps = promotions + cycle_phase.replayed;
    out.check(version_after == version_before + swaps as u64, || {
        format!(
            "registry at version {version_after} after {swaps} swaps from version {version_before}"
        )
    });
    if !args.trace {
        let all = promotions + setup.warm_promotions;
        out.check(version_after == all as u64 + 1, || {
            format!("registry at version {version_after} after {all} promotions")
        });
    }

    let phase = PhaseStats::of(&reads, SLO, |r| {
        r.as_ref().map_or(Reply::Failed, Answer::reply)
    });
    phase.report(&mut out, "reads", wall);
    let cycle_s: Vec<f64> = cycles.iter().map(|c| c.wall.as_secs_f64()).collect();
    let median_cycle = stats::median(&cycle_s);
    out.metric("work_per_s", 1.0 / median_cycle);
    out.note(format!(
        "cycle_s = {median_cycle:.4} s (median of fine-tuning cycles, {promotions} of {} promoted; q1/median/q3 {})",
        cycles.len(),
        stats::spread(&cycle_s)
    ));

    if args.trace {
        let mut swap_times: Vec<Duration> = cycles.iter().filter_map(|c| c.promoted_at).collect();
        swap_times.extend(&cycle_phase.replay_promotions);
        out.metric(
            "serve.read_after_swap_ms",
            read_after_swap_ms(&reads, &swap_times),
        );
        out.metric(
            "online.promote_ratio",
            promotions as f64 / cycles.len().max(1) as f64,
        );
        report_serve_counters(&before, &after, &mut out);
        let e2e_ms = stats::mean(&cycle_s) * 1e3;
        report_cycle_layers(&tr, cycle_phase.replayed, e2e_ms, &mut out);
        let t = &cycle_phase.tensor;
        out.metric("data.window_mb", window_mb(&setup.config.train, n));
        out.metric("tensor.gemm_mflop", t.gemm_flops as f64 / 1e6);
        out.metric(
            "tensor.sweep_mb",
            t.sweep_bytes as f64 / (1u64 << 20) as f64,
        );
        out.metric(
            "tensor.pool_misses_per_step",
            t.pool_misses as f64 / t.steps.max(1) as f64,
        );
        let traced = trace_reads(&mut tr, origin, &reads);
        let selfs = tr.self_ms();
        let per_read = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / traced.max(1) as f64;
        out.metric("serve.http_ms", per_read("serve.http"));
        out.metric("serve.queue_ms", per_read("serve.queue"));
        phase.report_layers(&mut out);
        write_trace(&tr, "online-swap", args, &mut out);
    }
    out
}

/// Mean latency of the first read sent after each swap.
fn read_after_swap_ms(reads: &[Shot<Result<Answer, String>>], swaps: &[Duration]) -> f64 {
    let firsts: Vec<f64> = swaps
        .iter()
        .filter_map(|&at| reads.iter().find(|r| r.due + r.late >= at))
        .map(|r| r.total.as_secs_f64() * 1e3)
        .collect();
    stats::mean(&firsts)
}

/// Read spans: the request (its self time is the HTTP cost) holds the
/// generator's late start and the handler's `latency_us`.
fn trace_reads(tr: &mut Tracer, origin: Instant, reads: &[Shot<Result<Answer, String>>]) -> usize {
    let mut traced = 0;
    for shot in reads {
        let Ok(answer) = &shot.result else { continue };
        traced += 1;
        let req = 1_000_000 + shot.index as u64;
        let start = origin + shot.due;
        let root = tr.record("serve.http", start, start + shot.total, None, req);
        tr.child_of_duration("loadgen.late", root, shot.late, req);
        tr.child_of_duration("serve.queue", root, answer.server, req);
    }
    traced
}

/// Span names of one replayed cycle, each a layer.
const CYCLE_LAYERS: [&str; 15] = [
    "online.ingest",
    "online.verify",
    "online.dataset",
    "online.finetune",
    "online.gate",
    "online.shadow",
    "serve.swap",
    "faults.state_write",
    "data.window",
    "plan.forward",
    "plan.backward",
    "optim.step",
    "plan.compile",
    "analyze.tape",
    "core.val",
];

/// Per-cycle layer self times from the replay; the residual is what the
/// real `run_cycle` (mean `e2e_ms`) spent beyond them.
fn report_cycle_layers(tr: &Tracer, replayed: usize, e2e_ms: f64, out: &mut Outcome) {
    let selfs = tr.self_ms();
    let n = replayed.max(1) as f64;
    let mut attributed = 0.0;
    for name in CYCLE_LAYERS {
        let v = selfs.get(name).copied().unwrap_or(0.0) / n;
        attributed += v;
        out.metric(metric_ms(name), v);
    }
    out.metric("online.residual_ms", e2e_ms - attributed);
    out.metric("trace.e2e_ms", e2e_ms);
    let replay_ms = tr.total_ms("online.cycle");
    out.metric("trace.overhead_ratio", replay_ms / n / e2e_ms - 1.0);
    let span_sum: f64 = CYCLE_LAYERS
        .iter()
        .chain(&["online.cycle"])
        .map(|name| selfs.get(name).copied().unwrap_or(0.0))
        .sum();
    out.check(
        (span_sum - replay_ms).abs() <= 1e-6 * replay_ms.max(1.0),
        || format!("cycle self times sum to {span_sum} ms, the replay took {replay_ms} ms"),
    );
    out.note(format!(
        "per cycle: replayed {replayed} cycles; untraced run_cycle {e2e_ms:.3} ms"
    ));
}

/// Drives the public steps of `run_cycle` in its order, each in a span:
/// push_day → verify → dataset → fine-tune → gate → shadow → swap, with
/// the state-file writes where the loop persists.
struct Replayer<'a> {
    window: TripWindow,
    trips_by_day: Vec<Vec<TripRecord>>,
    stations: stgnn_data::station::StationRegistry,
    config: &'a OnlineConfig,
    registry: Arc<stgnn_serve::ModelRegistry>,
    state: LoopState,
    state_path: PathBuf,
    day: usize,
}

impl<'a> Replayer<'a> {
    fn new(
        looper: &OnlineLoop,
        source: &SyntheticCity,
        config: &'a OnlineConfig,
        registry: Arc<stgnn_serve::ModelRegistry>,
    ) -> Self {
        let mut trips_by_day: Vec<Vec<TripRecord>> = vec![Vec::new(); source.config.days];
        for trip in &source.trips {
            if let Some(bucket) = usize::try_from(trip.start_min.div_euclid(24 * 60))
                .ok()
                .and_then(|d| trips_by_day.get_mut(d))
            {
                bucket.push(*trip);
            }
        }
        // Catch up with the loop's window (untimed).
        let day = looper.state().day_cursor;
        let mut window = TripWindow::new(
            source.registry.len(),
            config.window_days,
            source.config.slots_per_day,
        )
        .expect("window");
        for trips in trips_by_day.iter().take(day) {
            window.push_day(trips);
        }
        let state_path = config.state_path.with_file_name("replay.state");
        Replayer {
            window,
            trips_by_day,
            stations: source.registry.clone(),
            config,
            registry,
            state: looper.state().clone(),
            state_path,
            day,
        }
    }

    fn save(&mut self, tr: &mut Tracer, root: usize, phase: Phase) -> Result<(), String> {
        self.state.phase = phase;
        let (state, path) = (&self.state, &self.state_path);
        tr.time("faults.state_write", Some(root), 0, || state.save(path))
            .map_err(|e| e.to_string())
    }

    fn cycle(&mut self, tr: &mut Tracer, window: Duration) -> Result<Replay, String> {
        let id = self.day as u64;
        let root = tr.open("online.cycle", None, id);
        let result = self.steps(tr, root, window);
        tr.close(root);
        result
    }

    fn steps(&mut self, tr: &mut Tracer, root: usize, window: Duration) -> Result<Replay, String> {
        let id = self.day as u64;
        self.save(tr, root, Phase::Ingesting)?;
        let trips = self.trips_by_day.get(self.day).cloned().unwrap_or_default();
        tr.time("online.ingest", Some(root), id, || {
            self.window.push_day(&trips)
        });
        self.day += 1;
        self.state.day_cursor = self.day;
        self.state.graph_epoch = self.window.graph_epoch();
        tr.time("online.verify", Some(root), id, || self.window.verify())
            .map_err(|e| e.to_string())?;
        self.save(tr, root, Phase::Ingesting)?;
        let dataset = tr
            .time("online.dataset", Some(root), id, || {
                BikeDataset::new(
                    self.window.flows().clone(),
                    self.stations.clone(),
                    self.config.dataset.clone(),
                )
            })
            .map_err(|e| e.to_string())?;
        self.save(tr, root, Phase::Training)?;

        let finetune = tr.open("online.finetune", Some(root), id);
        let entry = self.registry.get(MODEL).ok_or("model vanished")?;
        let ck = entry.checkpoint();
        let incumbent = entry
            .spec()
            .materialize_with(&ck)
            .map_err(|e| e.to_string())?;
        let candidate: StgnnDjd = entry
            .spec()
            .materialize_with(&ck)
            .map_err(|e| e.to_string())?;
        let trained = replay_training(
            tr,
            finetune,
            &candidate,
            &dataset,
            &self.config.train,
            window,
        );
        tr.close(finetune);
        let trained = trained?;

        let report = tr
            .time("online.gate", Some(root), id, || {
                gate::static_gate(&candidate, &incumbent, &dataset, &self.config.gate)
            })
            .map_err(|e| e.to_string())?;
        if !report.passed() {
            return Err(format!("gate rejected: {:?}", report.rejection));
        }
        self.save(tr, root, Phase::Shadowing)?;
        let shadow = tr.time("online.shadow", Some(root), id, || {
            let _ = self.registry.pin(MODEL);
            let r = gate::shadow_compare(&candidate, &incumbent, &dataset, &self.config.gate);
            let _ = self.registry.unpin(MODEL);
            r
        });
        if !shadow.passed() {
            return Err(format!("shadow rejected: {:?}", shadow.rejection));
        }
        let epoch = self.state.graph_epoch;
        let version = tr
            .time("serve.swap", Some(root), id, || {
                self.registry
                    .swap_at_epoch(MODEL, candidate.weights_to_bytes(), epoch)
            })
            .map_err(|e| e.to_string())?;
        self.state.candidate_version = Some(version);
        self.state.cycle += 1;
        self.save(tr, root, Phase::Promoted)?;
        Ok(trained)
    }
}
