//! Open-loop diurnal load generation against a [`crate::fleet::Fleet`].
//!
//! The generator replays a city's daily demand shape — a base request rate
//! with Gaussian rush-hour bursts at 08:00 and 18:00 — compressed onto the
//! run's wall-clock duration. Arrivals are a seeded inhomogeneous Poisson
//! process: inter-arrival gaps are exponential at the instantaneous rate,
//! so bursts arrive bursty, not smoothed.
//!
//! **Open loop.** Arrival times are fixed by the schedule before the run
//! starts; a slow fleet does not slow the arrival process down, so a
//! replica lost mid-run meets the traffic the schedule sends, not what a
//! waiting sender would have sent. The sender pool only bounds
//! concurrency.
//!
//! [`run`] returns a [`LoadReport`]: how many requests were sent and how
//! each was answered, one count per rung of the degradation ladder.

use crate::fleet::{Answer, Fleet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// The diurnal request curve and run policy.
#[derive(Debug, Clone)]
pub struct LoadCurve {
    /// Wall-clock run length; the 24-hour day is compressed onto it.
    pub duration_ms: u64,
    /// Off-peak request rate (requests per second).
    pub base_rps: f64,
    /// Peak-hour multiplier on `base_rps` at the rush-hour centres.
    pub rush_multiplier: f64,
    /// Sender threads (concurrency bound, not rate bound).
    pub senders: usize,
    /// Seed for the arrival schedule and station pick — same seed, same
    /// schedule, byte for byte.
    pub seed: u64,
    /// Latency SLO for a caller that times the answers (the repository
    /// benchmark's fleet workload); [`run`] only counts them.
    pub slo_ms: u64,
}

impl LoadCurve {
    /// Instantaneous request rate at simulated hour `h ∈ [0, 24)`:
    /// base rate plus Gaussian bursts (σ = 1.5 h) centred on the 08:00 and
    /// 18:00 rushes.
    pub fn rate_at(&self, h: f64) -> f64 {
        let bump = |c: f64| (-((h - c) * (h - c)) / (2.0 * 1.5 * 1.5)).exp();
        self.base_rps * (1.0 + (self.rush_multiplier - 1.0) * (bump(8.0) + bump(18.0)))
    }

    /// The arrival schedule: offsets from run start, strictly increasing,
    /// drawn as an inhomogeneous Poisson process over the compressed day.
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let duration_s = self.duration_ms as f64 / 1_000.0;
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        loop {
            let sim_hour = (t / duration_s) * 24.0;
            let rate = self.rate_at(sim_hour).max(1e-6);
            // Exponential gap at the instantaneous rate.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= duration_s {
                return arrivals;
            }
            arrivals.push(Duration::from_secs_f64(t));
        }
    }
}

/// How one load-generation run's requests were answered.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: usize,
    /// Answered by a model forward pass.
    pub ok_model: usize,
    /// Answered by a replica's own deadline fallback.
    pub replica_ha: usize,
    /// Shed at the router's admission gate.
    pub shed: usize,
    /// Answered by the router with every candidate down.
    pub loss_ha: usize,
    /// Non-200 responses and router errors.
    pub errors: usize,
}

/// Runs `curve` against `fleet`, spreading requests across `slots`
/// round-robin and across stations by a seeded draw, and counts the
/// answers.
pub fn run(fleet: &Fleet, curve: &LoadCurve, slots: &[usize]) -> LoadReport {
    let arrivals = curve.schedule();
    let n_stations = fleet.n_stations();
    let mut rng = StdRng::seed_from_u64(curve.seed ^ 0x10ad);
    let requests: Vec<(Duration, usize, usize)> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let station = rng.gen_range(0..n_stations.max(1));
            let slot = slots.get(i % slots.len().max(1)).copied().unwrap_or(0);
            (offset, station, slot)
        })
        .collect();

    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let answers: Vec<Vec<Option<Answer>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..curve.senders.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        let Some(&(offset, station, slot)) = requests.get(i) else {
                            break;
                        };
                        // Open loop: wait for the scheduled arrival.
                        if let Some(wait) = offset.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        local.push(fleet.predict(station, slot).ok().map(|o| o.source));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut report = LoadReport::default();
    for answer in answers.into_iter().flatten() {
        report.sent += 1;
        match answer {
            Some(Answer::Model) => report.ok_model += 1,
            Some(Answer::ReplicaHa) => report.replica_ha += 1,
            Some(Answer::ShedHa) => report.shed += 1,
            Some(Answer::LossHa) => report.loss_ha += 1,
            Some(Answer::Error) | None => report.errors += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seconds-scale curve.
    fn smoke() -> LoadCurve {
        LoadCurve {
            duration_ms: 1_500,
            base_rps: 60.0,
            rush_multiplier: 3.0,
            senders: 4,
            seed: 7,
            slo_ms: 100,
        }
    }

    #[test]
    fn rush_hours_peak_and_night_is_quiet() {
        let c = smoke();
        assert!(c.rate_at(8.0) > 2.5 * c.base_rps, "{}", c.rate_at(8.0));
        assert!(c.rate_at(18.0) > 2.5 * c.base_rps);
        assert!(c.rate_at(3.0) < 1.2 * c.base_rps, "{}", c.rate_at(3.0));
        assert!(c.rate_at(13.0) < c.rate_at(8.0));
    }

    #[test]
    fn schedule_is_seeded_and_monotonic() {
        let c = smoke();
        let a = c.schedule();
        let b = c.schedule();
        assert_eq!(a, b, "same seed must replay the same arrivals");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().unwrap().as_millis() < u128::from(c.duration_ms));
        // Roughly the expected request count: duration × mean rate.
        let expect = c.duration_ms as f64 / 1_000.0 * c.base_rps;
        assert!(
            (a.len() as f64) > expect * 0.8,
            "{} arrivals for ≥{expect} expected",
            a.len()
        );
    }

    #[test]
    fn rush_bursts_concentrate_arrivals() {
        let c = LoadCurve {
            duration_ms: 10_000,
            base_rps: 50.0,
            rush_multiplier: 5.0,
            ..smoke()
        };
        let arrivals = c.schedule();
        // Compare the morning-rush window to the early-night window of
        // equal width: 07:00–09:00 vs 01:00–03:00 in compressed time.
        let in_window = |from_h: f64, to_h: f64| {
            arrivals
                .iter()
                .filter(|d| {
                    let h = d.as_secs_f64() / 10.0 * 24.0;
                    h >= from_h && h < to_h
                })
                .count()
        };
        let rush = in_window(7.0, 9.0);
        let night = in_window(1.0, 3.0);
        assert!(
            rush > night * 2,
            "rush {rush} should dwarf night {night} at 5× multiplier"
        );
    }
}
