//! `fleet-rush`: the fleet under the diurnal load curve.
//!
//! `Fleet::replicated` with two replicas of the paper-scale model. Arrivals
//! come from `LoadCurve::schedule()` (a base rate with ×4 Gaussian bursts
//! at 08:00 and 18:00, the day compressed onto the run); each request asks
//! for one station at the *current* slot of the compressed day, so a slot
//! costs about one forward pass per replica and every other request is a
//! cache hit or joins a coalesced batch. Router, HTTP hop, batcher linger
//! and cache dominate; a kernel or plan change should not move this
//! workload.
//!
//! Routing finding this workload records: `HashRing` sends every
//! `station:{id}` key of a 64-station city to replica 0 (FNV-1a over short
//! keys clusters), so `scale.replica_share_max` reads 1.0 today.

use crate::load::{self, Answer, PhaseStats, Reply, Shot};
use crate::serve::{report_request_layers, report_serve_counters, side_costs, PaperModel, SLO};
use crate::trace::Tracer;
use crate::train::{window_mb, write_trace};
use crate::{timed_setup, Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stgnn_data::dataset::Split;
use stgnn_scale::{Fleet, FleetConfig, LoadCurve};
use stgnn_serve::MetricsSnapshot;

/// Replicas in the fleet.
const REPLICAS: usize = 2;
/// Off-peak arrival rate; the rush hours reach 4× this (160 per second,
/// about a quarter of the 600/s peak the two senders still kept up with).
pub const BASE_RPS: f64 = 40.0;
/// Every this many requests, the answer is checked against the eager model.
const CHECK_EVERY: usize = 50;

struct Setup {
    paper: PaperModel,
    fleet: Fleet,
}

fn build(args: &Args) -> Setup {
    let paper = PaperModel::build(args);
    let fleet = Fleet::replicated(
        Arc::clone(&paper.data),
        &paper.spec,
        &paper.weights,
        REPLICAS,
        &FleetConfig::default(),
    )
    .expect("fleet boot");
    // Warm every worker of every replica directly (the router would send
    // all of this traffic to one replica): two rounds of two concurrent
    // requests on the last servable slots, which the run never asks for.
    let end = paper.servable().end;
    for r in 0..REPLICAS {
        let addr = fleet.replica_addr(r).expect("replica address");
        for pair in [[end - 1, end - 2], [end - 3, end - 4]] {
            std::thread::scope(|s| {
                for t in pair {
                    s.spawn(move || load::get(addr, &format!("/predict?model=stgnn&slot={t}")));
                }
            });
        }
    }
    Setup { paper, fleet }
}

fn snapshots(fleet: &Fleet) -> Vec<MetricsSnapshot> {
    (0..fleet.n_replicas())
        .filter_map(|r| fleet.replica_metrics(r).map(|m| m.snapshot()))
        .collect()
}

/// Field-wise sum of replica snapshots (the fleet as one server).
fn summed(snaps: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut s = MetricsSnapshot {
        requests: 0,
        cache_hits: 0,
        batched: 0,
        forward_passes: 0,
        fallbacks: 0,
        errors: 0,
        swaps: 0,
        shed: 0,
        queue_depth: 0,
        batch_hist: Vec::new(),
        latency_p50_us: 0,
        latency_p99_us: 0,
    };
    for x in snaps {
        s.requests += x.requests;
        s.cache_hits += x.cache_hits;
        s.batched += x.batched;
        s.forward_passes += x.forward_passes;
        s.fallbacks += x.fallbacks;
        s.errors += x.errors;
        s.shed += x.shed;
    }
    s
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
    let fleet = &setup.fleet;
    let data = &paper.data;

    let curve = LoadCurve {
        duration_ms: (args.seconds * 1e3) as u64,
        base_rps: BASE_RPS,
        rush_multiplier: 4.0,
        senders: crate::serve::SENDERS,
        seed: args.stream(4),
        slo_ms: SLO.as_millis() as u64,
    };
    let schedule = curve.schedule();
    // The compressed day: one test day (never the warm-up day), its 96
    // slots spread evenly over the run.
    let test_days = data.days(Split::Test);
    let day = test_days.start + (args.stream(6) % 4) as usize;
    let spd = data.slots_per_day();
    let duration = Duration::from_millis(curve.duration_ms);
    let mut rng = StdRng::seed_from_u64(args.stream(5));
    let requests: Vec<(usize, usize)> = schedule
        .iter()
        .map(|due| {
            let tod = ((due.as_secs_f64() / duration.as_secs_f64()) * spd as f64) as usize;
            let station = rng.gen_range(0..fleet.n_stations());
            (station, day * spd + tod.min(spd - 1))
        })
        .collect();

    let stats_before = (fleet.stats().sheds(), fleet.stats().failovers());
    let before = snapshots(fleet);
    let origin = Instant::now();
    let shots = load::open_loop(&schedule, crate::serve::SENDERS, |i| {
        let (station, slot) = requests[i];
        let start = Instant::now();
        fleet.predict(station, slot).map(|o| {
            let wall = start.elapsed();
            let latency_us = stgnn_serve::client::Response {
                status: o.status,
                body: o.body.clone(),
            }
            .json_field("latency_us")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
            (
                Answer {
                    status: o.status,
                    model: o.status == 200 && o.source == stgnn_scale::fleet::Answer::Model,
                    server: Duration::from_micros(latency_us),
                    body: o.body,
                },
                wall,
            )
        })
    });
    let (shots, wall) = match shots {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.check(false, || e);
            return out;
        }
    };
    let after = snapshots(fleet);

    let model = paper.local();
    let mut eager: BTreeMap<usize, Vec<stgnn_data::predictor::Prediction>> = BTreeMap::new();
    out.attempted += shots.len() as u64;
    for shot in &shots {
        let (station, slot) = requests[shot.index];
        match &shot.result {
            Ok((a, _)) if a.model => {
                if shot.index % CHECK_EVERY == 0 {
                    let step = &eager
                        .entry(slot)
                        .or_insert_with(|| model.predict_horizon(data, slot))[0];
                    let resp = stgnn_serve::client::Response {
                        status: 200,
                        body: a.body.clone(),
                    };
                    let field = |f: &str| resp.json_field(f).and_then(|v| v.parse::<f32>().ok());
                    let same = field("demand") == step.demand.get(station).copied()
                        && field("supply") == step.supply.get(station).copied();
                    out.check(same, || {
                        format!("station {station} slot {slot}: the fleet's answer differs from the eager forward")
                    });
                }
            }
            // A deadline fallback is a correct answer that misses the SLO;
            // `slo_met_ratio` counts it.
            Ok((a, _)) if a.reply() == Reply::Fallback => {}
            Ok((a, _)) => out.check(false, || {
                format!(
                    "station {station} slot {slot}: status {} body {}",
                    a.status, a.body
                )
            }),
            Err(e) => out.check(false, || format!("station {station} slot {slot}: {e}")),
        }
    }
    let phase = PhaseStats::of(&shots, SLO, |r| {
        r.as_ref().map_or(Reply::Failed, |(a, _)| a.reply())
    });
    phase.report(&mut out, "rush", wall);
    out.metric(
        "work_per_s",
        phase.succeeded as f64 / wall.as_secs_f64().max(1e-9),
    );

    // Where the router sent the load.
    let per_replica: Vec<u64> = before
        .iter()
        .zip(&after)
        .map(|(b, a)| a.requests - b.requests)
        .collect();
    let routed: u64 = per_replica.iter().sum();
    let shares: Vec<f64> = per_replica
        .iter()
        .map(|&r| r as f64 / routed.max(1) as f64)
        .collect();
    out.note(format!(
        "replica request shares {shares:?} (HashRing routes every station:{{id}} key of this city to one replica)"
    ));

    if args.trace {
        let (b, a) = (summed(&before), summed(&after));
        let distinct: BTreeSet<usize> = shots.iter().map(|s| requests[s.index].1).collect();
        out.metric(
            "scale.replica_share_max",
            shares.iter().copied().fold(0.0, f64::max),
        );
        out.metric(
            "scale.forwards_per_slot",
            (a.forward_passes - b.forward_passes) as f64 / distinct.len().max(1) as f64,
        );
        out.metric(
            "scale.sheds",
            (fleet.stats().sheds() - stats_before.0) as f64,
        );
        out.metric(
            "scale.failovers",
            (fleet.stats().failovers() - stats_before.1) as f64,
        );
        report_serve_counters(&b, &a, &mut out);

        let sample: Vec<usize> = distinct.iter().copied().take(24).collect();
        let side = side_costs(&model, data, &sample);
        let http = direct_http_cost(fleet, requests[0].1);
        let mut tr = Tracer::new(origin);
        let traced = trace_fleet(&mut tr, origin, &shots, &b, &a, &side, http);
        report_request_layers(&tr, "scale.dispatch", traced, &phase, &mut out);
        out.metric(
            "data.window_mb",
            window_mb(&paper.spec.config, data.n_stations()),
        );
        write_trace(&tr, "fleet-rush", args, &mut out);
    }
    out
}

/// The HTTP hop on its own: direct GETs to replica 0 for a slot it has
/// cached, client time minus the handler's `latency_us`, mean.
fn direct_http_cost(fleet: &Fleet, slot: usize) -> Duration {
    let Some(addr) = fleet.replica_addr(0) else {
        return Duration::ZERO;
    };
    let path = format!("/predict?model=stgnn&slot={slot}&station=0");
    let _ = load::get(addr, &path);
    let reps = 200u32;
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let start = Instant::now();
        if let Ok(a) = load::get(addr, &path) {
            total += start.elapsed().saturating_sub(a.server);
        }
    }
    total / reps
}

/// One span tree per routed request: the request's self time is the
/// router's dispatch; it holds the generator's late start, the HTTP hop
/// (timed on its own), and the replica handler from `latency_us`, which
/// holds the request's share of the phase's forward passes.
fn trace_fleet(
    tr: &mut Tracer,
    origin: Instant,
    shots: &[Shot<Result<(Answer, Duration), stgnn_scale::ScaleError>>],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    side: &crate::serve::SideCosts,
    http: Duration,
) -> usize {
    let requests = (after.requests - before.requests).max(1) as f64;
    let share = (after.forward_passes - before.forward_passes) as f64 / requests;
    let window = side.window.mul_f64(share);
    let forward = side.forward.mul_f64(share);
    let mut traced = 0;
    for shot in shots {
        let Ok((answer, _)) = &shot.result else {
            continue;
        };
        traced += 1;
        let req = shot.index as u64;
        let start = origin + shot.due;
        let root = tr.record("scale.dispatch", start, start + shot.total, None, req);
        tr.child_of_duration("loadgen.late", root, shot.late, req);
        if answer.server > Duration::ZERO {
            tr.child_of_duration("serve.http", root, http, req);
            let handler = tr.child_of_duration("serve.queue", root, answer.server, req);
            tr.child_of_duration("data.window", handler, window, req);
            tr.child_of_duration("plan.forward", handler, forward, req);
        }
    }
    traced
}

#[cfg(test)]
mod tests {
    use stgnn_scale::HashRing;

    /// Replicas the ring routes at least one of `stations` station keys to.
    fn used(stations: usize, replicas: usize) -> usize {
        let names: Vec<String> = (0..replicas).map(|r| format!("replica-{r}")).collect();
        let ring = HashRing::new(&names, 64);
        let homes: std::collections::BTreeSet<_> = (0..stations)
            .filter_map(|s| ring.route_station(s))
            .collect();
        homes.len()
    }

    /// The routing finding `fleet-rush` records: short `station:{id}` keys
    /// cluster under FNV-1a, so small cities land on one replica.
    #[test]
    fn hash_ring_sends_small_cities_to_one_replica() {
        assert_eq!(used(64, 2), 1);
        assert_eq!(used(28, 2), 1);
        assert_eq!(used(28, 4), 1);
        assert_eq!(used(256, 4), 2);
    }
}
