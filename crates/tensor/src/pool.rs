//! Size-bucketed recycling pool for tensor storage.
//!
//! Every [`crate::Tensor`] owns its elements through a [`Buffer`]. A buffer
//! the pool issued ([`Buffer::zeroed`], [`Buffer::filled`],
//! [`Buffer::copy_of`], [`Buffer::filled_with`], [`Buffer::concat`]) is
//! a `Vec<f32>` whose capacity is its power-of-two *size class*; when the
//! last `Arc` holding it drops, the vector goes back on its class's shelf
//! instead of to the system allocator. A workload with fixed shapes — one
//! STGNN-DJD training step or serve forward re-executes the identical tape
//! every time — reaches a steady state where every request is a pool
//! **hit** and the allocator is never touched.
//!
//! The pool is deliberately simple:
//!
//! * one process-wide [`Mutex`] guards a map from size class to shelf;
//!   a kernel allocates its output once, on its calling thread, so only
//!   concurrent requests (serve workers, fleet replicas) ever contend;
//! * a request of `n` elements is served from class
//!   `n.max(MIN_CLASS).next_power_of_two()`, so a shelved vector always has
//!   enough capacity and `resize` never reallocates;
//! * **admission**: only storage the pool issued goes back on a shelf, under
//!   the class it was issued for. A vector adopted through
//!   [`Buffer::from_vec`] (`Tensor::from_vec`) returns to the allocator when
//!   dropped — its capacity need not be a class, and shelving it would hoard
//!   memory that no request may ever reach;
//! * shelved bytes are capped ([`MAX_POOLED_BYTES`]); past the cap a dead
//!   issued buffer goes back to the allocator (counted as `dropped`);
//! * under `debug_assertions` every shelved buffer is filled with
//!   [`POISON`] (a signalling-NaN bit pattern) so any kernel that reads
//!   memory it did not initialise turns loudly non-finite instead of
//!   silently reusing a dead tensor's values.
//!
//! Cumulative counters ([`stats`]) expose hits/misses/recycles; the trainer
//! and the steady-state benchmark diff two snapshots to report
//! `allocs_per_step` (pool misses per step), which must be zero after
//! warm-up.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Smallest size class (elements). Requests below this are rounded up so
/// even scalar tensors (losses, reduction outputs) recycle through the pool.
pub const MIN_CLASS: usize = 64;

/// Cap on bytes retained across all free-lists; returns beyond it go back to
/// the allocator. Generous enough to hold every intermediate of a training
/// batch at paper scale, small enough not to matter on a laptop.
pub const MAX_POOLED_BYTES: usize = 512 << 20;

/// Debug fill pattern for recycled buffers: a NaN, so stale reads propagate
/// loudly through any arithmetic instead of resurrecting dead values.
pub const POISON: f32 = f32::from_bits(0xFFC0_DEAD);

struct PoolInner {
    /// Free vectors keyed by the size class the pool issued them for; a
    /// vector on shelf `c` has `capacity ≥ c`.
    shelves: HashMap<usize, Vec<Vec<f32>>>,
    pooled_bytes: usize,
}

static POOL: OnceLock<Mutex<PoolInner>> = OnceLock::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static OUTSTANDING_BYTES: AtomicI64 = AtomicI64::new(0);

fn pool() -> &'static Mutex<PoolInner> {
    POOL.get_or_init(|| {
        Mutex::new(PoolInner {
            shelves: HashMap::new(),
            pooled_bytes: 0,
        })
    })
}

/// Size class a request of `n` elements is served from (round up).
fn class_for_request(n: usize) -> usize {
    n.max(MIN_CLASS).next_power_of_two()
}

/// An empty issued buffer with room for `n` elements: a cleared vector
/// popped from the shelf of `n`'s class (hit), or a fresh one of the full
/// class capacity (miss).
fn take(n: usize) -> Buffer {
    // Allocation can't fail gracefully (no error path on the tensor hot
    // path), so only panic/delay faults make sense here — a delay models
    // allocator stalls under memory pressure.
    stgnn_faults::failpoint!("pool::alloc");
    let class = class_for_request(n);
    let popped = {
        let mut inner = pool().lock().unwrap_or_else(PoisonError::into_inner);
        match inner.shelves.get_mut(&class).and_then(Vec::pop) {
            Some(v) => {
                inner.pooled_bytes = inner.pooled_bytes.saturating_sub(v.capacity() * 4);
                Some(v)
            }
            None => None,
        }
    };
    let vec = match popped {
        Some(mut v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v.clear();
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(class)
        }
    };
    Buffer::new(vec, Some(class))
}

/// Shelves a dead issued vector under its class (or hands it to the
/// allocator, past the cap).
fn give(mut v: Vec<f32>, class: usize) {
    let cap = v.capacity();
    if cfg!(debug_assertions) {
        v.clear();
        v.resize(cap, POISON);
    }
    let mut inner = pool().lock().unwrap_or_else(PoisonError::into_inner);
    if inner.pooled_bytes + cap * 4 > MAX_POOLED_BYTES {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    inner.pooled_bytes += cap * 4;
    inner.shelves.entry(class).or_default().push(v);
    RECYCLED.fetch_add(1, Ordering::Relaxed);
}

/// Tensor element storage: a `Vec<f32>` the pool issued (and will shelve
/// again on drop) or one adopted from the caller (which goes back to the
/// allocator on drop). Dereferences to the element slice; `Clone` copies
/// into issued storage (this is what powers the tensors' copy-on-write
/// mutation).
pub struct Buffer {
    vec: Vec<f32>,
    /// The size class the pool issued `vec` for; `None` when adopted.
    class: Option<usize>,
}

impl Buffer {
    fn new(vec: Vec<f32>, class: Option<usize>) -> Self {
        OUTSTANDING_BYTES.fetch_add(vec.capacity() as i64 * 4, Ordering::Relaxed);
        Buffer { vec, class }
    }

    /// Adopts a caller-built vector (e.g. [`crate::Tensor::from_vec`]).
    /// Costs nothing now and counts no miss; the vector goes back to the
    /// allocator on drop, never onto a shelf.
    pub fn from_vec(vec: Vec<f32>) -> Self {
        Self::new(vec, None)
    }

    /// A pooled buffer of `n` zeros.
    pub fn zeroed(n: usize) -> Self {
        Self::filled(n, 0.0)
    }

    /// A pooled buffer of `n` copies of `v`.
    pub fn filled(n: usize, v: f32) -> Self {
        let mut buf = take(n);
        buf.vec.resize(n, v);
        buf
    }

    /// A pooled copy of a slice.
    pub fn copy_of(src: &[f32]) -> Self {
        let mut buf = take(src.len());
        buf.vec.extend_from_slice(src);
        buf
    }

    /// A pooled buffer holding `parts` end to end.
    pub fn concat(parts: &[&[f32]]) -> Self {
        let mut buf = take(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            buf.vec.extend_from_slice(p);
        }
        buf
    }

    /// A pooled buffer whose `n` elements are drawn from `f` in order —
    /// exactly the sequence a `(0..n).map(|_| f()).collect()` would produce,
    /// so RNG-fed fills (dropout masks) are reproducible.
    pub fn filled_with(n: usize, mut f: impl FnMut() -> f32) -> Self {
        let mut buf = take(n);
        for _ in 0..n {
            buf.vec.push(f());
        }
        buf
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.vec
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.vec
    }
}

impl Deref for Buffer {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.vec
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.vec
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        Self::copy_of(&self.vec)
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        OUTSTANDING_BYTES.fetch_sub(self.vec.capacity() as i64 * 4, Ordering::Relaxed);
        if let Some(class) = self.class {
            give(std::mem::take(&mut self.vec), class);
        }
    }
}

/// Cumulative pool counters. Monotonic for the life of the process; diff two
/// snapshots ([`PoolStats::since`]) to measure one step or one request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Requests served from a free-list (no allocator call).
    pub hits: u64,
    /// Requests that had to allocate.
    pub misses: u64,
    /// Dead buffers shelved for reuse.
    pub recycled: u64,
    /// Dead issued buffers handed back to the allocator (pool full).
    pub dropped: u64,
    /// Bytes currently sitting in free-lists.
    pub pooled_bytes: u64,
    /// Bytes currently owned by live buffers.
    pub outstanding_bytes: i64,
}

impl PoolStats {
    /// Counter deltas since an earlier snapshot (gauges are kept as-is).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            recycled: self.recycled.saturating_sub(earlier.recycled),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            pooled_bytes: self.pooled_bytes,
            outstanding_bytes: self.outstanding_bytes,
        }
    }
}

/// A snapshot of the cumulative pool counters.
pub fn stats() -> PoolStats {
    let pooled_bytes = {
        let inner = pool().lock().unwrap_or_else(PoisonError::into_inner);
        inner.pooled_bytes as u64
    };
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        pooled_bytes,
        outstanding_bytes: OUTSTANDING_BYTES.load(Ordering::Relaxed),
    }
}

/// Releases every shelved buffer back to the allocator (tests, memory
/// pressure). Live buffers are unaffected.
pub fn trim() {
    let mut inner = pool().lock().unwrap_or_else(PoisonError::into_inner);
    inner.shelves.clear();
    inner.pooled_bytes = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_hits_after_warm_up() {
        let before = stats();
        let a = Buffer::zeroed(1000); // class 1024
        drop(a);
        let b = Buffer::filled(1000, 2.0);
        assert_eq!(b.len(), 1000);
        assert!(b.iter().all(|&v| v == 2.0), "poison leaked into a refill");
        let after = stats().since(&before);
        assert!(after.hits >= 1, "second take of a warm class must hit");
    }

    #[test]
    fn recycled_buffer_is_poisoned_then_cleared_on_reuse() {
        // Use an odd class so other tests' traffic can't interleave: 2^20.
        let n = (1 << 20) - 3;
        let mut a = Buffer::zeroed(n);
        a.as_mut_slice()[0] = 42.0;
        let ptr = a.as_slice().as_ptr() as usize;
        drop(a);
        let b = Buffer::zeroed(n);
        if b.as_slice().as_ptr() as usize == ptr {
            // Same storage came back: it must carry no stale values.
            assert!(b.iter().all(|&v| v == 0.0), "stale data on reuse");
        }
        trim();
    }

    #[test]
    fn small_buffers_round_up_to_min_class() {
        assert_eq!(class_for_request(1), MIN_CLASS);
        assert_eq!(class_for_request(65), 128);
        assert_eq!(class_for_request(128), 128);
    }

    #[test]
    fn filled_with_matches_collect_order() {
        let mut k = 0;
        let buf = Buffer::filled_with(5, || {
            k += 1;
            k as f32
        });
        assert_eq!(buf.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn clone_copies_not_aliases() {
        let a = Buffer::copy_of(&[1.0, 2.0, 3.0]);
        let mut b = a.clone();
        b.as_mut_slice()[0] = 9.0;
        assert_eq!(a.as_slice()[0], 1.0);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }
}
