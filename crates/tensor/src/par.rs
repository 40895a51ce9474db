//! Parallel kernel execution: a persistent, work-chunking thread pool.
//!
//! Every hot kernel in this crate — `matmul`, `softmax_rows`, `transpose`,
//! the elementwise maps and the broadcast helpers — reduces to a loop over
//! independent output rows (or independent flat elements). This module runs
//! those loops across a hand-rolled `std::thread` pool through its one
//! dispatch primitive, [`for_each_row_chunk_mut`]:
//!
//! * **Persistent** — worker threads are spawned once (lazily, on the first
//!   parallel dispatch) and live for the rest of the process, blocking on a
//!   shared job queue. No per-call spawn cost.
//! * **Scoped** — a dispatch splits the output buffer into one disjoint row
//!   window per chunk and moves each window into its job, with a clone of
//!   one channel sender. The jobs borrow the caller's stack (input slices,
//!   the body), and the call does not return until every sender is gone. A
//!   job drops its sender only after its last use of those borrows, so they
//!   never outlive the call, even when a chunk panics.
//! * **Deterministic** — chunks are contiguous row ranges and every kernel
//!   routed through this module computes each output row *independently*
//!   (accumulation happens per-row, inside one chunk, in the same order as
//!   the serial loop). Results are therefore bit-for-bit identical for any
//!   thread count, including 1.
//!
//! Sizing: `STGNN_THREADS` (an integer ≥ 1) overrides
//! `std::thread::available_parallelism()`; `STGNN_THREADS=1` — or a
//! single-core machine — short-circuits every dispatch to a plain inline
//! loop with zero synchronisation. Benchmarks and tests can additionally
//! force a thread count at runtime with [`set_thread_override`], which is
//! safe to flip concurrently precisely because results never depend on it.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Upper bound on worker threads, a guard against absurd `STGNN_THREADS`
/// values and runaway overrides.
const MAX_THREADS: usize = 64;

/// A queued unit of work: one chunk of one dispatch. Jobs borrow the
/// dispatching caller's stack; the `transmute` in
/// [`for_each_row_chunk_mut`] says why that is sound.
type Job = Box<dyn FnOnce() + Send>;

/// Jobs waiting for a worker, and the condvar idle workers sleep on.
static JOBS: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
static AVAILABLE: Condvar = Condvar::new();
/// Worker threads spawned so far (grows on demand, never shrinks).
static SPAWNED: Mutex<usize> = Mutex::new(0);

/// Ignores lock poisoning: kernel bodies are caught with `catch_unwind`, so
/// a poisoned pool lock only means some *other* test thread panicked while
/// holding it, and the protected data (a job deque / a counter) stays valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `0` = no override; otherwise the forced thread count (benches/tests).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on pool workers, and on a dispatching thread while it runs its
    /// own chunk. Nested dispatches run inline instead of re-entering the
    /// queue, so a worker never waits on a job behind it in the queue.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The configured thread count: `STGNN_THREADS` if set and ≥ 1, else
/// `available_parallelism()`, else 1. Read once per process.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("STGNN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
            .min(MAX_THREADS)
    })
}

/// Forces (`Some(n)`) or restores (`None`) the dispatch width at runtime.
///
/// Exists for benchmarks and determinism tests that compare thread counts
/// within one process. Concurrent flips are harmless by design: kernels are
/// bit-for-bit deterministic in the thread count.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.clamp(1, MAX_THREADS)), Ordering::Relaxed);
}

/// The thread count the next dispatch will use.
pub fn effective_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => configured_threads(),
        n => n,
    }
}

/// Eagerly spins up the pool for the effective thread count and returns the
/// width a dispatch now uses: that count, or fewer if worker spawn failed.
/// Workers a past override spawned beyond it stay idle and are not counted.
///
/// Kernels initialise the pool lazily on first use; call this at subsystem
/// start (the trainer's epoch loop, a serving worker pool) to keep the
/// one-off spawn cost out of the first timed batch.
pub fn init() -> usize {
    let n = effective_threads();
    if n > 1 {
        n.min(ensure_workers(n - 1) + 1)
    } else {
        1
    }
}

/// Serialises the tests in this crate that set [`set_thread_override`] or
/// read the dispatch width: the override is process-global, and cargo runs
/// a binary's tests on parallel threads.
#[cfg(test)]
pub(crate) fn override_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    lock(&LOCK)
}

/// Makes sure at least `n` workers exist (capped at `MAX_THREADS - 1`) and
/// returns the number actually running. Spawn failure (thread-resource
/// exhaustion) stops growing the pool and reports the shortfall instead of
/// panicking — an unwind here would hold-and-abandon the `SPAWNED` guard,
/// and dispatchers can degrade safely because results are bit-identical at
/// any chunk count (the module's determinism contract).
fn ensure_workers(n: usize) -> usize {
    let n = n.min(MAX_THREADS - 1);
    let mut spawned = lock(&SPAWNED);
    while *spawned < n {
        let res = thread::Builder::new()
            .name(format!("stgnn-par-{}", *spawned))
            .spawn(worker_loop);
        if res.is_err() {
            break;
        }
        *spawned += 1;
    }
    *spawned
}

fn worker_loop() {
    IN_PARALLEL.with(|f| f.set(true));
    loop {
        let job = AVAILABLE
            .wait_while(lock(&JOBS), |jobs| jobs.is_empty())
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front();
        if let Some(job) = job {
            // A job reports its body's panic itself; this catch only keeps
            // the worker alive past a panic armed at `par::complete`.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }
}

/// Parallel loop over the rows of a row-major `rows×cols` output buffer.
/// `body(first_row, window)` receives the starting row index of its chunk
/// and the mutable window covering exactly that chunk's rows, returning
/// once every chunk is done.
///
/// `grain` is the minimum number of rows worth one chunk: the call runs
/// inline (serial, zero overhead beyond one branch) when `rows ≤ grain`,
/// when the effective thread count is 1, or when already inside a parallel
/// body. Panics from `body` are re-raised on the calling thread after all
/// chunks finish.
///
/// Determinism contract: `body` must compute each row independently of the
/// chunk boundaries (true for every row-parallel kernel in this crate), so
/// the result is identical for any thread count.
pub fn for_each_row_chunk_mut(
    out: &mut [f32],
    cols: usize,
    grain: usize,
    body: impl Fn(usize, &mut [f32]) + Sync,
) {
    if cols == 0 {
        return;
    }
    let rows = out.len() / cols;
    debug_assert_eq!(out.len(), rows * cols, "buffer is not rows×cols");
    if rows == 0 {
        return;
    }
    let (out, _) = out.split_at_mut(rows * cols);
    let wanted = effective_threads().min(rows.div_ceil(grain.max(1)));
    // Degraded pool (worker spawn failed): clamp the dispatch to the
    // workers that exist plus this thread. Chunk boundaries change but
    // results do not — see the determinism contract above.
    let chunks = if wanted > 1 && !IN_PARALLEL.with(|f| f.get()) {
        wanted.min(ensure_workers(wanted - 1) + 1)
    } else {
        1
    };
    if chunks == 1 {
        body(0, out);
        return;
    }

    let body: &(dyn Fn(usize, &mut [f32]) + Sync) = &body;
    let (own, mut rest) = out.split_at_mut(chunk_range(rows, chunks, 0).len() * cols);
    let (done, finished) = mpsc::channel::<Box<dyn Any + Send>>();
    for c in 1..chunks {
        let range = chunk_range(rows, chunks, c);
        let (window, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * cols);
        rest = tail;
        let done = done.clone();
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(range.start, window))) {
                let _ = done.send(payload);
            }
            // The job has reported its panic, if any, but still holds its
            // sender: the dispatcher must wait out a delay armed here.
            stgnn_faults::failpoint!("par::complete");
        });
        // SAFETY: the job borrows `body` and one window of `out`, which live
        // until this call returns. The call neither returns nor unwinds
        // before `finished` reports every sender gone: from here to the end
        // of the drain nothing can panic outside the `catch_unwind` around
        // chunk 0 (the splits stay in bounds because the chunk ranges
        // partition `0..rows`, and no panic payload is dropped before the
        // drain ends), and the drain ends only at disconnection. A job's
        // sender drops with the job, after the job's last use of `body` and
        // its window.
        let job: Job = unsafe { std::mem::transmute(job) };
        lock(&JOBS).push_back(job);
        AVAILABLE.notify_one();
    }
    drop(done);

    IN_PARALLEL.with(|f| f.set(true));
    let own = catch_unwind(AssertUnwindSafe(|| body(0, own)));
    IN_PARALLEL.with(|f| f.set(false));
    // Every payload outlives the drain: dropping one may panic, and nothing
    // may unwind out of this call while a job can still run.
    let panics: Vec<_> = own.err().into_iter().chain(finished).collect();
    if let Some(payload) = panics.into_iter().next() {
        resume_unwind(payload);
    }
}

/// The `c`-th of `chunks` balanced contiguous ranges covering `0..items`.
fn chunk_range(items: usize, chunks: usize, c: usize) -> Range<usize> {
    let base = items / chunks;
    let rem = items % chunks;
    let start = c * base + c.min(rem);
    let len = base + usize::from(c < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for items in [0usize, 1, 5, 7, 64, 1001] {
            for chunks in 1..=8usize {
                let mut covered = vec![false; items];
                for c in 0..chunks {
                    for i in chunk_range(items, chunks, c) {
                        assert!(!covered[i], "index {i} covered twice");
                        covered[i] = true;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "{items} items / {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn every_row_is_visited_once() {
        let _serial = override_lock();
        set_thread_override(Some(4));
        let mut hits = vec![0.0f32; 257];
        for_each_row_chunk_mut(&mut hits, 1, 1, |_, window| {
            for h in window {
                *h += 1.0;
            }
        });
        set_thread_override(None);
        assert!(hits.iter().all(|&h| h == 1.0));
    }

    #[test]
    fn row_chunks_write_disjoint_windows() {
        let _serial = override_lock();
        set_thread_override(Some(3));
        let cols = 7;
        let mut out = vec![0.0f32; 50 * cols];
        for_each_row_chunk_mut(&mut out, cols, 1, |first_row, window| {
            for (r, row) in window.chunks_mut(cols).enumerate() {
                row.fill((first_row + r) as f32);
            }
        });
        set_thread_override(None);
        for r in 0..50 {
            assert!(out[r * cols..(r + 1) * cols].iter().all(|&v| v == r as f32));
        }
    }

    #[test]
    fn small_work_runs_inline() {
        let _serial = override_lock();
        // grain 100 over 10 rows must not dispatch: body sees one window.
        set_thread_override(Some(8));
        let calls = AtomicU32::new(0);
        let mut out = vec![0.0f32; 10];
        for_each_row_chunk_mut(&mut out, 1, 100, |first_row, window| {
            assert_eq!((first_row, window.len()), (0, 10));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        set_thread_override(None);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let _serial = override_lock();
        set_thread_override(Some(2));
        let mut out = vec![0.0f32; 64];
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for_each_row_chunk_mut(&mut out, 1, 1, |first_row, window| {
                if first_row + window.len() == 64 {
                    panic!("boom in chunk");
                }
            });
        }));
        set_thread_override(None);
        assert!(result.is_err(), "chunk panic must reach the dispatcher");
        // The pool must still work after a panic.
        let hits = AtomicU32::new(0);
        set_thread_override(Some(2));
        for_each_row_chunk_mut(&mut out, 1, 1, |_, window| {
            hits.fetch_add(window.len() as u32, Ordering::Relaxed);
        });
        set_thread_override(None);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn override_is_clamped_and_restored() {
        let _serial = override_lock();
        set_thread_override(Some(10_000));
        assert_eq!(effective_threads(), MAX_THREADS);
        set_thread_override(Some(1));
        assert_eq!(effective_threads(), 1);
        set_thread_override(None);
        assert_eq!(effective_threads(), configured_threads());
    }

    #[test]
    fn init_reports_effective_threads() {
        let _serial = override_lock();
        assert_eq!(init(), effective_threads());
    }
}
