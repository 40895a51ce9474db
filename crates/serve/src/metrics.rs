//! Serving metrics: lock-free counters and histograms with a plain-struct
//! snapshot and a minimal line-protocol dump.
//!
//! Everything is `AtomicU64` with relaxed ordering — metrics tolerate
//! off-by-a-few reads under concurrency; they must never contend with the
//! request path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Batch-size histogram buckets: upper bounds `1, 2, 4, 8, 16, 32, ∞`.
pub const BATCH_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Latency sub-buckets per power of two (log-linear): each bucket spans at
/// most an eighth of its lower edge, so a percentile read from it is at
/// most 12.5 % above the true value.
const LATENCY_SUB_BUCKETS: u64 = 8;

/// Latency buckets covering `0 µs … 2³⁰ µs (~18 min)`; slower requests land
/// in the last bucket.
const LATENCY_BUCKETS: usize = 28 * LATENCY_SUB_BUCKETS as usize;

/// Bucket of a latency of `us` microseconds. Below 16 µs every value has
/// its own bucket; above, `[2ᵏ, 2ᵏ⁺¹)` splits into 8 equal sub-buckets.
fn latency_bucket(us: u64) -> usize {
    let shift = (63 - us.max(1).leading_zeros() as u64).saturating_sub(3);
    let idx = shift * LATENCY_SUB_BUCKETS + (us >> shift);
    (idx as usize).min(LATENCY_BUCKETS - 1)
}

/// Largest latency, in microseconds, that [`latency_bucket`] maps to `idx`.
fn latency_bucket_max(idx: usize) -> u64 {
    let idx = idx as u64;
    let shift = (idx / LATENCY_SUB_BUCKETS).saturating_sub(1);
    let mantissa = idx - shift * LATENCY_SUB_BUCKETS;
    ((mantissa + 1) << shift) - 1
}

/// End-to-end request latency histogram over [`latency_bucket`]s.
#[derive(Debug)]
struct LatencyHistogram([AtomicU64; LATENCY_BUCKETS]);

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// Live counters shared by every serving component.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Prediction requests accepted (HTTP or in-process).
    requests: AtomicU64,
    /// Requests answered at submit from a ready slot-table entry.
    cache_hits: AtomicU64,
    /// Requests answered by a forward pass: the one that queued it plus
    /// every request that joined its key's waiters.
    batched: AtomicU64,
    /// Forward passes actually executed.
    forward_passes: AtomicU64,
    /// Requests that missed their deadline and fell back to HA.
    fallbacks: AtomicU64,
    /// Requests that failed (unknown model, bad slot/station, …).
    errors: AtomicU64,
    /// Checkpoint hot-swaps applied.
    swaps: AtomicU64,
    /// Requests refused admission by a router and degraded without ever
    /// reaching this replica's queue (load shedding).
    shed: AtomicU64,
    /// Gauge: requests currently admitted and in flight on this replica
    /// (the router's per-replica bounded queue occupancy).
    queue_depth: AtomicU64,
    /// Batch-size histogram (bucket i counts batches ≤ BATCH_BUCKETS[i]).
    batch_hist: [AtomicU64; BATCH_BUCKETS.len() + 1],
    /// End-to-end request latency histogram (log-linear µs buckets).
    latency_hist: LatencyHistogram,
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc_requests(&self) {
        self.requests.fetch_add(1, Relaxed);
    }

    /// Records `n` requests answered from the cache.
    pub fn inc_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Relaxed);
    }

    /// Records `n` requests answered from one shared forward pass.
    pub fn inc_batched(&self, n: u64) {
        self.batched.fetch_add(n, Relaxed);
    }

    pub fn inc_fallbacks(&self) {
        self.fallbacks.fetch_add(1, Relaxed);
    }

    pub fn inc_errors(&self) {
        self.errors.fetch_add(1, Relaxed);
    }

    pub fn inc_swaps(&self) {
        self.swaps.fetch_add(1, Relaxed);
    }

    /// Records one request shed by admission control instead of queued.
    pub fn inc_shed(&self) {
        self.shed.fetch_add(1, Relaxed);
    }

    /// Raises the in-flight gauge by one (request admitted to the queue).
    /// Returns the depth *after* the increment.
    pub fn queue_enter(&self) -> u64 {
        self.queue_depth.fetch_add(1, Relaxed) + 1
    }

    /// Lowers the in-flight gauge by one (request completed or failed).
    /// Saturates at zero so a stray double-leave cannot wrap the gauge.
    pub fn queue_leave(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Relaxed, Relaxed, |d| Some(d.saturating_sub(1)));
    }

    /// Current in-flight gauge reading.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Relaxed)
    }

    /// Records one executed forward pass that served a batch of `size`.
    pub fn record_forward(&self, batch_size: usize) {
        self.forward_passes.fetch_add(1, Relaxed);
        let idx = BATCH_BUCKETS
            .iter()
            .position(|&ub| batch_size as u64 <= ub)
            .unwrap_or(BATCH_BUCKETS.len());
        // sound: allow(L004): BUCKET-INDEX-CLAMPED — batch_hist has
        // BATCH_BUCKETS.len() + 1 slots, so the overflow index is in bounds.
        self.batch_hist[idx].fetch_add(1, Relaxed);
    }

    /// Records one request's end-to-end latency.
    pub fn record_latency(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        // sound: allow(L004): BUCKET-INDEX-CLAMPED — latency_bucket clamps to
        // LATENCY_BUCKETS - 1.
        self.latency_hist.0[latency_bucket(us)].fetch_add(1, Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency: Vec<u64> = self
            .latency_hist
            .0
            .iter()
            .map(|c| c.load(Relaxed))
            .collect();
        MetricsSnapshot {
            requests: self.requests.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            batched: self.batched.load(Relaxed),
            forward_passes: self.forward_passes.load(Relaxed),
            fallbacks: self.fallbacks.load(Relaxed),
            errors: self.errors.load(Relaxed),
            swaps: self.swaps.load(Relaxed),
            shed: self.shed.load(Relaxed),
            queue_depth: self.queue_depth.load(Relaxed),
            batch_hist: self.batch_hist.iter().map(|c| c.load(Relaxed)).collect(),
            latency_p50_us: percentile(&latency, 0.50),
            latency_p99_us: percentile(&latency, 0.99),
        }
    }
}

/// Upper-bound estimate of the q-quantile from the latency histogram: the
/// largest latency the bucket holding the quantile covers.
fn percentile(hist: &[u64], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return latency_bucket_max(i);
        }
    }
    latency_bucket_max(hist.len().saturating_sub(1))
}

/// Plain-struct metrics snapshot (the programmatic surface; the HTTP
/// endpoint renders it via [`MetricsSnapshot::to_line_protocol`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub requests: u64,
    pub cache_hits: u64,
    pub batched: u64,
    pub forward_passes: u64,
    pub fallbacks: u64,
    pub errors: u64,
    pub swaps: u64,
    /// Requests shed by admission control before reaching this replica.
    pub shed: u64,
    /// Gauge: requests admitted and in flight at snapshot time.
    pub queue_depth: u64,
    /// Batch-size histogram; bucket `i` counts batches with size ≤
    /// [`BATCH_BUCKETS`]`[i]`, last bucket is the overflow.
    pub batch_hist: Vec<u64>,
    /// Estimated p50 end-to-end latency (upper bucket edge, at most 12.5 %
    /// high), microseconds.
    pub latency_p50_us: u64,
    /// Estimated p99 end-to-end latency (upper bucket edge, at most 12.5 %
    /// high), microseconds.
    pub latency_p99_us: u64,
}

impl MetricsSnapshot {
    /// Cache hit rate over all accepted requests, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Upper bucket edge of the largest batch observed (`u64::MAX` for the
    /// overflow bucket), or `0` when no forward pass has run yet.
    pub fn max_batch_observed(&self) -> u64 {
        self.batch_hist
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &count)| count > 0)
            .map(|(i, _)| BATCH_BUCKETS.get(i).copied().unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// Renders the snapshot in a minimal `name value` line protocol
    /// (one metric per line, histogram buckets suffixed with `_le_<bound>`).
    pub fn to_line_protocol(&self) -> String {
        let mut out = String::new();
        let mut push = |name: &str, v: u64| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        push("serve_requests_total", self.requests);
        push("serve_cache_hits_total", self.cache_hits);
        push("serve_batched_total", self.batched);
        push("serve_forward_passes_total", self.forward_passes);
        push("serve_fallbacks_total", self.fallbacks);
        push("serve_errors_total", self.errors);
        push("serve_swaps_total", self.swaps);
        push("serve_shed_total", self.shed);
        push("serve_queue_depth", self.queue_depth);
        for (i, &count) in self.batch_hist.iter().enumerate() {
            let label = BATCH_BUCKETS
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "inf".into());
            push(&format!("serve_batch_size_le_{label}"), count);
        }
        push("serve_latency_p50_us", self.latency_p50_us);
        push("serve_latency_p99_us", self.latency_p99_us);
        out.push_str(&format!(
            "serve_cache_hit_rate {:.4}\n",
            self.cache_hit_rate()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_into_snapshot() {
        let m = ServeMetrics::new();
        for _ in 0..10 {
            m.inc_requests();
        }
        m.inc_cache_hits(4);
        m.inc_batched(5);
        m.record_forward(5);
        m.inc_fallbacks();
        let s = m.snapshot();
        assert_eq!(s.requests, 10);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.batched, 5);
        assert_eq!(s.forward_passes, 1);
        assert_eq!(s.fallbacks, 1);
        assert!((s.cache_hit_rate() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn batch_histogram_buckets_by_size() {
        let m = ServeMetrics::new();
        m.record_forward(1); // bucket 0 (≤1)
        m.record_forward(2); // bucket 1 (≤2)
        m.record_forward(3); // bucket 2 (≤4)
        m.record_forward(16); // bucket 4 (≤16)
        m.record_forward(1000); // overflow
        let s = m.snapshot();
        assert_eq!(s.batch_hist, vec![1, 1, 1, 0, 1, 0, 1]);
        assert_eq!(s.max_batch_observed(), u64::MAX);
    }

    #[test]
    fn max_batch_observed_tracks_buckets() {
        let m = ServeMetrics::new();
        assert_eq!(m.snapshot().max_batch_observed(), 0);
        m.record_forward(3);
        assert_eq!(m.snapshot().max_batch_observed(), 4);
    }

    #[test]
    fn latency_percentiles_bracket_recorded_values() {
        let m = ServeMetrics::new();
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(100)); // bucket [96, 104)
        }
        m.record_latency(Duration::from_millis(80)); // way out in the tail
        let s = m.snapshot();
        assert_eq!(s.latency_p50_us, 103);
        assert_eq!(s.latency_p99_us, 103, "p99 {}", s.latency_p99_us);
        // The single outlier must not drag p50 up.
        assert!(s.latency_p50_us < s.latency_p99_us * 2);
    }

    /// Log-linear buckets read a percentile at most 12.5 % high; the
    /// power-of-two buckets they replaced read 2,048 µs for 1,100 µs.
    #[test]
    fn latency_percentiles_read_at_most_an_eighth_high() {
        let m = ServeMetrics::new();
        for _ in 0..1000 {
            m.record_latency(Duration::from_micros(1100));
        }
        let s = m.snapshot();
        for p in [s.latency_p50_us, s.latency_p99_us] {
            assert!((1100..=1100 + 1100 / 8).contains(&p), "percentile {p} µs");
        }
        // Every latency up to the histogram's range reads back in
        // [us, us + us/8].
        for us in (0..100_000).chain([(1 << 29) + 12_345, (1 << 30) - 1]) {
            let max = latency_bucket_max(latency_bucket(us));
            assert!(us <= max && max - us <= us / 8, "{us} µs reads {max}");
        }
    }

    #[test]
    fn line_protocol_lists_every_counter() {
        let m = ServeMetrics::new();
        m.inc_requests();
        m.record_forward(4);
        m.record_latency(Duration::from_micros(50));
        let text = m.snapshot().to_line_protocol();
        for key in [
            "serve_requests_total 1",
            "serve_forward_passes_total 1",
            "serve_batch_size_le_4 1",
            "serve_batch_size_le_inf 0",
            "serve_latency_p50_us",
            "serve_cache_hit_rate",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(ServeMetrics::new().snapshot().latency_p50_us, 0);
    }

    #[test]
    fn queue_gauge_tracks_enter_and_leave_and_saturates() {
        let m = ServeMetrics::new();
        assert_eq!(m.queue_enter(), 1);
        assert_eq!(m.queue_enter(), 2);
        assert_eq!(m.queue_depth(), 2);
        m.queue_leave();
        assert_eq!(m.queue_depth(), 1);
        m.queue_leave();
        m.queue_leave(); // double-leave must not wrap
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn shed_and_queue_depth_reach_snapshot_and_line_protocol() {
        let m = ServeMetrics::new();
        m.inc_shed();
        m.inc_shed();
        m.queue_enter();
        let s = m.snapshot();
        assert_eq!(s.shed, 2);
        assert_eq!(s.queue_depth, 1);
        let text = s.to_line_protocol();
        assert!(text.contains("serve_shed_total 2"), "{text}");
        assert!(text.contains("serve_queue_depth 1"), "{text}");
    }
}
