//! In-memory spans for the traced run.
//!
//! A span is taken around one of the benchmark's own calls into a layer's
//! public function (tracing inside the program is not this crate's job).
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is its span's duration minus the durations of its children;
//! children of one span never overlap, so that difference is exactly the
//! part of the interval the children do not cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (a per-layer metric name without its unit suffix).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or step) the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Wall time spent inside the recorder itself.
    overhead: Duration,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            overhead: Duration::ZERO,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `[start, end]` under `parent`; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let t = Instant::now();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.overhead += t.elapsed();
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&mut self, idx: usize) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(idx) {
            s.end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Records a child of `parent` whose duration is known but whose call
    /// ran elsewhere (a server-side time from a response body, or a layer
    /// timed as its own call): it is placed at the parent's start, after
    /// the children already recorded under it.
    pub fn child_of_duration(
        &mut self,
        name: &'static str,
        parent: usize,
        duration: Duration,
        request: u64,
    ) -> usize {
        let t = Instant::now();
        let (pstart, pend) = match self.spans.get(parent) {
            Some(p) => (p.start_ns, p.end_ns),
            None => (0, 0),
        };
        let taken: u64 = self
            .spans
            .iter()
            .skip(parent + 1)
            .filter(|s| s.parent == Some(parent))
            .map(Span::duration_ns)
            .sum();
        let start_ns = pstart.saturating_add(taken).min(pend);
        let dur = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns.saturating_add(dur),
            parent: Some(parent),
            request,
        });
        self.overhead += t.elapsed();
        self.spans.len() - 1
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(c) = child_ns.get_mut(p) {
                    *c += s.duration_ns();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = s.duration_ns() as f64 - c as f64;
            *out.entry(s.name).or_insert(0.0) += own / 1e6;
        }
        out
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Time spent inside the recorder, in milliseconds.
    pub fn overhead_ms(&self) -> f64 {
        self.overhead.as_secs_f64() * 1e3
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_plus_children_sum_to_the_root() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let ms = Duration::from_millis;
        let root = t.record("root", origin, origin + ms(10), None, 1);
        t.record("a", origin + ms(1), origin + ms(4), Some(root), 1);
        let b = t.record("b", origin + ms(5), origin + ms(9), Some(root), 1);
        t.child_of_duration("c", b, ms(1), 1);
        let selfs = t.self_ms();
        let sum: f64 = selfs.values().sum();
        assert!((sum - 10.0).abs() < 1e-9, "{selfs:?}");
        assert!((selfs["root"] - 3.0).abs() < 1e-9);
        assert!((selfs["b"] - 3.0).abs() < 1e-9);
        assert!((selfs["c"] - 1.0).abs() < 1e-9);
        assert!((t.total_ms("a") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn duration_children_are_laid_out_after_each_other() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let ms = Duration::from_millis;
        let root = t.record("root", origin, origin + ms(10), None, 7);
        let a = t.child_of_duration("a", root, ms(2), 7);
        let b = t.child_of_duration("b", root, ms(3), 7);
        assert_eq!(t.spans[a].start_ns, 0);
        assert_eq!(t.spans[b].start_ns, 2_000_000);
        assert_eq!(t.spans[b].end_ns, 5_000_000);
    }
}
