//! Parallel kernel execution: a persistent, work-chunking thread pool.
//!
//! Every hot kernel in this crate — `matmul`, `softmax_rows`, `transpose`,
//! the elementwise maps and the broadcast helpers — reduces to a loop over
//! independent output rows (or independent flat elements). This module runs
//! those loops across a hand-rolled `std::thread` pool:
//!
//! * **Persistent** — worker threads are spawned once (lazily, on the first
//!   parallel dispatch) and live for the rest of the process, blocking on a
//!   shared job queue. No per-call spawn cost.
//! * **Scoped** — [`for_each_chunk`] dispatches closures that borrow the
//!   caller's stack (input slices, the output buffer) and does not return
//!   until every chunk has finished, so the borrows never outlive the call.
//!   A completion latch enforces this even when a chunk panics.
//! * **Deterministic** — chunks are contiguous index ranges and every kernel
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

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// Upper bound on worker threads, a guard against absurd `STGNN_THREADS`
/// values and runaway overrides.
const MAX_THREADS: usize = 64;

/// A queued unit of work. Jobs borrow the dispatching caller's stack; the
/// completion latch in [`for_each_chunk`] guarantees they finish before the
/// borrows go out of scope (see the `transmute` there).
type Job = Box<dyn FnOnce() + Send>;

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Pool {
    queue: &'static Queue,
    /// Worker threads spawned so far (grows on demand, never shrinks).
    spawned: Mutex<usize>,
}

/// Ignores lock poisoning: kernel bodies are caught with `catch_unwind`, so
/// a poisoned pool lock only means some *other* test thread panicked while
/// holding it, and the protected data (a job deque / a counter) stays valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Box::leak(Box::new(Queue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        })),
        spawned: Mutex::new(0),
    })
}

/// `0` = no override; otherwise the forced thread count (benches/tests).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a pool worker (or a dispatching thread) is inside a kernel
    /// body. Nested dispatches run inline instead of re-entering the queue,
    /// which would risk all workers blocking on latches at once.
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
/// panicking — an unwind here would hold-and-abandon the `spawned` guard,
/// and dispatchers can degrade safely because results are bit-identical at
/// any chunk count (the module's determinism contract).
fn ensure_workers(n: usize) -> usize {
    let p = pool();
    let n = n.min(MAX_THREADS - 1);
    let mut spawned = lock(&p.spawned);
    while *spawned < n {
        let queue: &'static Queue = p.queue;
        let res = thread::Builder::new()
            .name(format!("stgnn-par-{}", *spawned))
            .spawn(move || worker_loop(queue));
        if res.is_err() {
            break;
        }
        *spawned += 1;
    }
    *spawned
}

fn worker_loop(queue: &'static Queue) {
    loop {
        let job = {
            let mut jobs = lock(&queue.jobs);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = queue
                    .available
                    .wait(jobs)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        IN_PARALLEL.with(|f| f.set(true));
        job();
        IN_PARALLEL.with(|f| f.set(false));
    }
}

/// Completion latch + first-panic capture for one dispatch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn arrive(&self, payload: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = payload {
            lock(&self.panic).get_or_insert(p);
        }
        *lock(&self.remaining) -= 1;
        self.done.notify_all();
    }

    fn wait(&self) {
        let mut remaining = lock(&self.remaining);
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `body` over `0..items` split into contiguous chunks executed in
/// parallel, returning once every chunk is done.
///
/// `grain` is the minimum number of items worth one dispatch: the call runs
/// inline (serial, zero overhead beyond one branch) when `items < 2·grain`,
/// when the effective thread count is 1, or when already inside a parallel
/// body. Panics from `body` are re-raised on the calling thread after all
/// chunks finish.
///
/// Determinism contract: `body` must compute each item independently of the
/// chunk boundaries (true for every row-parallel kernel in this crate), so
/// the result is identical for any thread count.
pub fn for_each_chunk(items: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    if items == 0 {
        return;
    }
    let threads = effective_threads();
    let grain = grain.max(1);
    let chunks = threads.min(items.div_ceil(grain));
    if chunks <= 1 || IN_PARALLEL.with(|f| f.get()) {
        body(0..items);
        return;
    }
    // Degraded pool (worker spawn failed): clamp the dispatch to the
    // workers that exist plus this thread. Chunk boundaries change but
    // results do not — see the determinism contract above.
    let chunks = chunks.min(ensure_workers(chunks - 1) + 1);
    if chunks <= 1 {
        body(0..items);
        return;
    }

    let latch = Latch {
        remaining: Mutex::new(chunks),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };
    let latch_ref = &latch;
    let body_ref: &(dyn Fn(Range<usize>) + Sync) = &body;

    {
        // Push chunks 1..k to the queue, run chunk 0 on this thread. The
        // jobs borrow `latch` and `body`; transmuting them to 'static is
        // sound because `latch.wait()` below does not return until every
        // job has run to completion (arrive() fires even on panic).
        let mut jobs = lock(&pool().queue.jobs);
        for c in 1..chunks {
            let range = chunk_range(items, chunks, c);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body_ref(range)));
                latch_ref.arrive(result.err());
            });
            let job: Job = unsafe { std::mem::transmute(job) };
            jobs.push_back(job);
        }
        drop(jobs);
        pool().queue.available.notify_all();
    }

    IN_PARALLEL.with(|f| f.set(true));
    let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        body_ref(chunk_range(items, chunks, 0))
    }));
    IN_PARALLEL.with(|f| f.set(false));
    latch.arrive(own.err());
    latch.wait();

    let payload = lock(&latch.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
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

/// Raw-pointer courier for handing each chunk its disjoint `&mut` window of
/// one output buffer. Soundness: [`for_each_row_chunk_mut`] hands every
/// chunk a non-overlapping row range, and the latch keeps the buffer borrow
/// alive until all chunks finish.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Parallel loop over the rows of a row-major `rows×cols` output buffer.
/// `body(first_row, window)` receives the starting row index of its chunk
/// and the mutable window covering exactly that chunk's rows.
///
/// `grain` is in rows; see [`for_each_chunk`] for the serial fallbacks and
/// the determinism contract.
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
    let base = SendPtr(out.as_mut_ptr());
    for_each_chunk(rows, grain, move |range| {
        // Rebind the whole wrapper: 2021 closures would otherwise capture
        // the bare `base.0` field, which is not Sync.
        let base = base;
        let window = unsafe {
            std::slice::from_raw_parts_mut(base.0.add(range.start * cols), range.len() * cols)
        };
        body(range.start, window);
    });
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
    fn for_each_chunk_visits_every_item_once() {
        let _serial = override_lock();
        set_thread_override(Some(4));
        let hits: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
        for_each_chunk(hits.len(), 1, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        set_thread_override(None);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
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
        // grain 100 over 10 items must not dispatch: body sees one range.
        set_thread_override(Some(8));
        let calls = AtomicU32::new(0);
        for_each_chunk(10, 100, |range| {
            assert_eq!(range, 0..10);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        set_thread_override(None);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let _serial = override_lock();
        set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            for_each_chunk(64, 1, |range| {
                if range.contains(&63) {
                    panic!("boom in chunk");
                }
            });
        });
        set_thread_override(None);
        assert!(result.is_err(), "chunk panic must reach the dispatcher");
        // The pool must still work after a panic.
        let hits = AtomicU32::new(0);
        set_thread_override(Some(2));
        for_each_chunk(64, 1, |range| {
            hits.fetch_add(range.len() as u32, Ordering::Relaxed);
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
