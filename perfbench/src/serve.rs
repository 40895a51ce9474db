//! `serve-sweep`: the §VII-I per-slot prediction path over HTTP.
//!
//! One `Server` on the paper-scale city with a paper-config model. An open
//! loop at a fixed rate asks `/predict?model=stgnn&slot=T` (every station)
//! for a slot no earlier request of the run asked for, so every request
//! misses the slot cache and runs one forward pass; the cache and the
//! coalescer do no useful work and no router runs.

use crate::load::{self, Answer, PhaseStats, Reply, Shot};
use crate::trace::Tracer;
use crate::train::{window_cost, window_mb, write_trace};
use crate::{timed_setup, Args, Outcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgnn_core::{StgnnConfig, StgnnDjd};
use stgnn_data::dataset::{BikeDataset, DatasetConfig};
use stgnn_data::synthetic::{CityConfig, SyntheticCity};
use stgnn_serve::http::json_f32_array;
use stgnn_serve::{MetricsSnapshot, ModelSpec, ServeConfig, Server};

/// Open-loop arrival rate, requests per second: a quarter of the 160/s at
/// which the two senders fell behind, so a host that runs the forward pass
/// at half speed still keeps up.
pub const RATE: f64 = 40.0;
/// Sender threads (one open connection each).
pub const SENDERS: usize = 2;
/// `LoadCurve::slo_ms`.
pub const SLO: Duration = Duration::from_millis(100);
/// Requests per run, at least: enough for a p99 with 10 samples beyond.
pub const MIN_REQUESTS: usize = 1000;
/// Every this many requests, the body is checked against the eager model.
const CHECK_EVERY: usize = 50;

/// The paper-scale city, dataset and model every HTTP workload serves.
pub struct PaperModel {
    pub data: Arc<BikeDataset>,
    pub spec: ModelSpec,
    pub weights: Vec<u8>,
}

impl PaperModel {
    pub fn build(args: &Args) -> PaperModel {
        let mut city = CityConfig::chicago_like();
        city.seed = args.stream(1);
        let city = SyntheticCity::generate(city);
        let data =
            Arc::new(BikeDataset::from_city(&city, DatasetConfig::paper()).expect("paper dataset"));
        let mut config = StgnnConfig::paper();
        config.seed = args.stream(2);
        let spec = ModelSpec::new(config, data.n_stations());
        let weights = spec.materialize().expect("paper model").weights_to_bytes();
        PaperModel {
            data,
            spec,
            weights,
        }
    }

    /// The benchmark's own copy of the served model, for output checks and
    /// for timing layers as their own calls.
    pub fn local(&self) -> StgnnDjd {
        let mut m = self.spec.materialize().expect("paper model");
        m.load_weights_from_reader(self.weights.as_slice())
            .expect("own weights");
        m
    }

    /// Slots the server answers for: `[first_valid_slot, num_slots)`.
    pub fn servable(&self) -> std::ops::Range<usize> {
        self.data.first_valid_slot()..self.data.flows().num_slots()
    }
}

struct Setup {
    paper: PaperModel,
    server: Server,
}

/// Warm-up slots: the last four servable slots, asked two at a time so
/// both workers compile their inference plans before timing starts.
fn warm_up(server: &Server, slots: &[usize]) {
    for pair in slots.chunks(2) {
        std::thread::scope(|s| {
            for &t in pair {
                s.spawn(move || {
                    let _ = load::get(server.addr(), &format!("/predict?model=stgnn&slot={t}"));
                });
            }
        });
    }
}

fn build(args: &Args) -> Setup {
    let paper = PaperModel::build(args);
    let server =
        Server::start(Arc::clone(&paper.data), ServeConfig::default()).expect("server start");
    server
        .registry()
        .register("stgnn", paper.spec.clone(), paper.weights.clone())
        .expect("register");
    let end = paper.servable().end;
    warm_up(&server, &[end - 1, end - 2, end - 3, end - 4]);
    Setup { paper, server }
}

/// Checks a full-city body against the eager forward of the same slot.
pub fn body_matches(body: &str, model: &StgnnDjd, data: &BikeDataset, slot: usize) -> bool {
    let resp = stgnn_serve::client::Response {
        status: 200,
        body: body.to_string(),
    };
    let parse = |field: &str| -> Option<Vec<f32>> {
        let raw = resp.json_field(field)?;
        raw.trim_matches(|c| c == '[' || c == ']')
            .split(',')
            .map(|v| v.trim().parse::<f32>().ok())
            .collect()
    };
    let eager = model.predict_horizon(data, slot);
    let Some(step) = eager.first() else {
        return false;
    };
    parse("demand").as_deref() == Some(step.demand.as_slice())
        && parse("supply").as_deref() == Some(step.supply.as_slice())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = if args.trace {
        (build(args), f64::NAN)
    } else {
        timed_setup(|_| build(args))
    };
    if !args.trace {
        out.metric("setup_s", setup_s);
    }
    let paper = &setup.paper;
    let addr = setup.server.addr();

    // Distinct slots in a seeded order, the warm-up slots excluded.
    let servable = paper.servable();
    let mut slots: Vec<usize> = (servable.start..servable.end - 4).collect();
    slots.shuffle(&mut StdRng::seed_from_u64(args.stream(3)));
    let wanted = ((RATE * args.seconds).ceil() as usize).max(MIN_REQUESTS);
    slots.truncate(wanted);
    if slots.len() < wanted {
        out.note(format!(
            "only {} distinct slots exist; the phase sends {} requests, not {wanted}",
            slots.len(),
            slots.len()
        ));
    }
    let schedule = load::fixed_rate(RATE, slots.len());

    let before = setup.server.metrics_snapshot();
    let tracing_started = Instant::now();
    let shots = load::open_loop(&schedule, SENDERS, |i| {
        load::get(addr, &format!("/predict?model=stgnn&slot={}", slots[i]))
    });
    let (shots, wall) = match shots {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.check(false, || e);
            return out;
        }
    };
    let after = setup.server.metrics_snapshot();

    let model = paper.local();
    out.attempted += shots.len() as u64;
    for shot in &shots {
        match &shot.result {
            Ok(a) if a.model => {
                if shot.index % CHECK_EVERY == 0 {
                    let t = slots[shot.index];
                    out.check(body_matches(&a.body, &model, &paper.data, t), || {
                        format!("slot {t}: the served prediction differs from the eager forward")
                    });
                }
            }
            // A deadline fallback is a correct answer that misses the SLO;
            // `slo_met_ratio` counts it.
            Ok(a) if a.reply() == Reply::Fallback => {}
            Ok(a) => out.check(false, || {
                format!(
                    "slot {}: status {} body {}",
                    slots[shot.index], a.status, a.body
                )
            }),
            Err(e) => out.check(false, || format!("slot {}: {e}", slots[shot.index])),
        }
    }
    let phase = PhaseStats::of(&shots, SLO, |r| {
        r.as_ref().map_or(Reply::Failed, Answer::reply)
    });
    phase.report(&mut out, "sweep", wall);
    out.metric(
        "work_per_s",
        phase.succeeded as f64 / wall.as_secs_f64().max(1e-9),
    );
    // One forward per model answer, and none beyond one per request (a
    // fallback's forward may still finish after its deadline).
    let forwards = after.forward_passes - before.forward_passes;
    out.check(
        (phase.succeeded as u64..=shots.len() as u64).contains(&forwards),
        || {
            format!(
                "{forwards} forward passes for {} distinct-slot requests, {} answered by the model",
                shots.len(),
                phase.succeeded
            )
        },
    );

    if args.trace {
        let side = side_costs(&model, &paper.data, &slots[..slots.len().min(100)]);
        let mut tr = Tracer::new(tracing_started);
        let traced = trace_requests(
            &mut tr,
            tracing_started,
            &shots,
            &before,
            &after,
            &side,
            true,
        );
        report_request_layers(&tr, "serve.http", traced, &phase, &mut out);
        report_serve_counters(&before, &after, &mut out);
        out.metric(
            "data.window_mb",
            window_mb(&paper.spec.config, paper.data.n_stations()),
        );
        write_trace(&tr, "serve-sweep", args, &mut out);
    }
    out
}

/// Layer costs timed as their own calls in the benchmark process, on the
/// benchmark's copy of the model.
pub struct SideCosts {
    /// `ModelInputs::from_dataset`, mean per slot.
    pub window: Duration,
    /// `plan_predict_horizon` minus the window, mean per slot.
    pub forward: Duration,
    /// `json_f32_array` on a full-city demand + supply answer.
    pub encode: Duration,
}

pub fn side_costs(model: &StgnnDjd, data: &BikeDataset, slots: &[usize]) -> SideCosts {
    let window = window_cost(data, slots.len().max(1));
    let plan = model
        .compile_inference_plan(data, slots[0])
        .ok()
        .flatten()
        .expect("inference plan compiles");
    let mut exec = plan.executor();
    let _ = model.plan_predict_horizon(&plan, &mut exec, data, slots[0]);
    let start = Instant::now();
    let mut last = Vec::new();
    for &t in slots {
        last = model
            .plan_predict_horizon(&plan, &mut exec, data, t)
            .expect("side forward");
    }
    let predict = start.elapsed() / slots.len().max(1) as u32;
    let step = last.into_iter().next().expect("a horizon step");
    let reps = 200u32;
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(json_f32_array(&step.demand));
        std::hint::black_box(json_f32_array(&step.supply));
    }
    SideCosts {
        window,
        forward: predict.saturating_sub(window),
        encode: start.elapsed() / reps,
    }
}

/// Records one span tree per answered request: the request (its self time
/// is the HTTP cost) holds the generator's late start, the encode, and the
/// server handler from the body's `latency_us`; the handler holds the
/// window and forward, each request carrying its share of the phase's
/// forward passes.
pub fn trace_requests(
    tr: &mut Tracer,
    origin: Instant,
    shots: &[Shot<Result<Answer, String>>],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    side: &SideCosts,
    full_city: bool,
) -> usize {
    let requests = (after.requests - before.requests).max(1) as f64;
    let share = (after.forward_passes - before.forward_passes) as f64 / requests;
    let window = side.window.mul_f64(share);
    let forward = side.forward.mul_f64(share);
    let mut traced = 0;
    for shot in shots {
        let Ok(answer) = &shot.result else { continue };
        traced += 1;
        let req = shot.index as u64;
        let start = origin + shot.due;
        let root = tr.record("serve.http", start, start + shot.total, None, req);
        tr.child_of_duration("loadgen.late", root, shot.late, req);
        if full_city {
            tr.child_of_duration("serve.encode", root, side.encode, req);
        }
        let handler = tr.child_of_duration("serve.queue", root, answer.server, req);
        tr.child_of_duration("data.window", handler, window, req);
        tr.child_of_duration("plan.forward", handler, forward, req);
    }
    traced
}

/// Per-request layer means from the request span trees rooted at `root`
/// (`requests` of them): every self time, and the end-to-end time they
/// sum to.
pub fn report_request_layers(
    tr: &Tracer,
    root: &str,
    requests: usize,
    phase: &PhaseStats,
    out: &mut Outcome,
) {
    let selfs = tr.self_ms();
    let n = requests.max(1) as f64;
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / n;
    for (span, metric) in [
        ("serve.http", "serve.http_ms"),
        ("serve.queue", "serve.queue_ms"),
        ("serve.encode", "serve.encode_ms"),
        ("data.window", "data.window_ms"),
        ("plan.forward", "plan.forward_ms"),
        ("scale.dispatch", "scale.dispatch_ms"),
    ] {
        out.metric(metric, get(span));
    }
    phase.report_layers(out);
    let e2e_sum = tr.total_ms(root);
    out.metric("trace.e2e_ms", e2e_sum / n);
    let span_sum: f64 = selfs.values().sum();
    out.check(
        (span_sum - e2e_sum).abs() <= 1e-6 * e2e_sum.max(1.0),
        || format!("self times sum to {span_sum} ms, the requests took {e2e_sum} ms"),
    );
    // The traced run sends the same schedule as the untraced one; what
    // tracing adds is the time spent recording spans.
    out.metric("trace.overhead_ratio", tr.overhead_ms() / e2e_sum.max(1e-9));
}

/// `MetricsSnapshot` deltas over the phase.
pub fn report_serve_counters(before: &MetricsSnapshot, after: &MetricsSnapshot, out: &mut Outcome) {
    let requests = after.requests - before.requests;
    let hits = after.cache_hits - before.cache_hits;
    let forwards = after.forward_passes - before.forward_passes;
    let batched = after.batched - before.batched;
    out.metric(
        "serve.cache_hit_ratio",
        hits as f64 / requests.max(1) as f64,
    );
    out.metric("serve.batch_mean", batched as f64 / forwards.max(1) as f64);
    out.metric("serve.forwards", forwards as f64);
    out.metric(
        "serve.fallbacks",
        (after.fallbacks - before.fallbacks) as f64,
    );
    out.metric("serve.errors", (after.errors - before.errors) as f64);
}
