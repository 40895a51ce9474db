//! The open-loop load generator shared by the HTTP workloads.
//!
//! Arrival times are fixed before the phase starts; a slow server does not
//! slow them down. Each request is timed from its *scheduled* send time, so
//! a stall counts against every request queued behind it, and how late
//! each send actually left is reported, so a generator that falls behind
//! its schedule is visible instead of silently turning into a closed loop.
//! Load comes from one process with at most one sender thread (and so one
//! open connection) per core.

use crate::stats;
use crate::Outcome;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stgnn_serve::client::{self, ClientConfig, Response};

/// One request as the generator saw it.
#[derive(Debug)]
pub struct Shot<R> {
    /// Position in the schedule.
    pub index: usize,
    /// When the request was due, from phase start.
    pub due: Duration,
    /// How late the send left after `due`.
    pub late: Duration,
    /// From `due` to the full response.
    pub total: Duration,
    pub result: R,
}

/// Sends `schedule.len()` requests, request `i` at `schedule[i]` after the
/// phase start, from `senders` threads. Refuses more senders than cores.
pub fn open_loop<R: Send>(
    schedule: &[Duration],
    senders: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Result<(Vec<Shot<R>>, Duration), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if senders == 0 || senders > cores {
        return Err(format!(
            "refusing {senders} sender threads on {cores} cores: the load would measure \
             the scheduler, not the server"
        ));
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let send = &send;
    let next = &next;
    let mut shots: Vec<Shot<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = schedule.get(i) else {
                            break;
                        };
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let late = start.elapsed().saturating_sub(due);
                        let result = send(i);
                        let total = start.elapsed().saturating_sub(due);
                        local.push(Shot {
                            index: i,
                            due,
                            late,
                            total,
                            result,
                        });
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    shots.sort_by_key(|s| s.index);
    Ok((shots, wall))
}

/// Evenly spaced arrivals at `rate` per second for `count` requests.
pub fn fixed_rate(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// A 200 answered by the model.
    Model,
    /// A 200 the server degraded to its historical-average fallback because
    /// the request's deadline passed: a correct answer that misses the SLO.
    Fallback,
    /// Anything else: an error status, or no answer at all.
    Failed,
}

/// The parts of a `/predict` answer the benchmark reads.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: u16,
    /// Answered by the model (not degraded, not a fallback).
    pub model: bool,
    /// Server-side handler time from the body's `latency_us`.
    pub server: Duration,
    pub body: String,
}

impl Answer {
    pub fn from_response(resp: &Response) -> Answer {
        let degraded = resp.json_field("degraded").as_deref() == Some("true");
        let source = resp.json_field("source").unwrap_or_default();
        let latency_us = resp
            .json_field("latency_us")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        Answer {
            status: resp.status,
            model: resp.status == 200 && !degraded && source.contains("model"),
            server: Duration::from_micros(latency_us),
            body: resp.body.clone(),
        }
    }

    pub fn reply(&self) -> Reply {
        match (self.status, self.model) {
            (200, true) => Reply::Model,
            (200, false) => Reply::Fallback,
            _ => Reply::Failed,
        }
    }
}

/// A direct GET with one attempt: a failed request is a failed operation,
/// never retried out of sight.
pub fn get(addr: std::net::SocketAddr, path: &str) -> Result<Answer, String> {
    let config = ClientConfig {
        attempts: 1,
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    client::get_with(addr, path, &config)
        .map(|r| Answer::from_response(&r))
        .map_err(|e| e.to_string())
}

/// Latency and load-generator honesty for one phase of answered requests.
pub struct PhaseStats {
    pub sent: usize,
    /// Answered by the model.
    pub succeeded: usize,
    pub fallbacks: usize,
    pub failed: usize,
    pub within_slo: usize,
    pub totals_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
}

impl PhaseStats {
    /// `reply(result)` says how each request was answered; only answers
    /// from the model can meet the SLO.
    pub fn of<R>(shots: &[Shot<R>], slo: Duration, reply: impl Fn(&R) -> Reply) -> PhaseStats {
        let mut s = PhaseStats {
            sent: shots.len(),
            succeeded: 0,
            fallbacks: 0,
            failed: 0,
            within_slo: 0,
            totals_ms: Vec::with_capacity(shots.len()),
            late_ms: Vec::with_capacity(shots.len()),
        };
        for shot in shots {
            match reply(&shot.result) {
                Reply::Model => {
                    s.succeeded += 1;
                    if shot.total <= slo {
                        s.within_slo += 1;
                    }
                }
                Reply::Fallback => s.fallbacks += 1,
                Reply::Failed => s.failed += 1,
            }
            s.totals_ms.push(shot.total.as_secs_f64() * 1e3);
            s.late_ms.push(shot.late.as_secs_f64() * 1e3);
        }
        s
    }

    /// The late-send 99th percentile, or the largest lateness when the
    /// phase is too short to support a p99.
    pub fn late_p99_ms(&self) -> f64 {
        stats::tail(&self.late_ms, 0.99).map_or_else(
            || self.late_ms.iter().copied().fold(0.0, f64::max),
            |t| t.value,
        )
    }

    /// Reports the phase into `out`: the end-to-end latency metrics (all
    /// requests, failures included, timed from their scheduled send) and
    /// the honesty counts as notes.
    pub fn report(&self, out: &mut Outcome, phase: &str, wall: Duration) {
        out.metric("predict_p50_ms", stats::median(&self.totals_ms));
        match stats::tail(&self.totals_ms, 0.99) {
            Some(t) => {
                out.metric("predict_p99_ms", t.value);
                out.note(format!(
                    "{phase}: predict_p99_ms from {} samples, {} beyond it",
                    t.samples, t.beyond
                ));
            }
            None => out.note(format!(
                "{phase}: only {} samples, too few for a p99 with {} beyond it; not reported",
                self.totals_ms.len(),
                stats::MIN_TAIL_SAMPLES
            )),
        }
        out.metric(
            "slo_met_ratio",
            self.within_slo as f64 / self.sent.max(1) as f64,
        );
        out.note(format!(
            "{phase}: loadgen sent {} succeeded {} fell back {} failed {} in {:.3} s; late p99 {:.3} ms, max {:.3} ms",
            self.sent,
            self.succeeded,
            self.fallbacks,
            self.failed,
            wall.as_secs_f64(),
            self.late_p99_ms(),
            self.late_ms.iter().copied().fold(0.0, f64::max)
        ));
    }

    /// The generator's per-layer counters.
    pub fn report_layers(&self, out: &mut Outcome) {
        out.metric("loadgen.late_ms", stats::mean(&self.late_ms));
        out.metric("loadgen.late_ms_p99", self.late_p99_ms());
        out.metric("loadgen.sent", self.sent as f64);
        out.metric("loadgen.failed", self.failed as f64);
    }
}
