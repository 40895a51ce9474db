//! Kernel width: every kernel in this crate runs on the calling thread.
//!
//! At the paper's scale (n = 64 stations) one kernel is too small to be
//! worth splitting across threads, so each op runs its loop once over its
//! whole output. Concurrency comes from requests instead: serve workers,
//! connection threads and fleet replicas each run their own forwards.
//!
//! This module stays only because the repository benchmark
//! (`perfbench/src/{main,train}.rs`) calls [`init`].

/// The number of threads a kernel runs on: always 1.
pub fn init() -> usize {
    1
}
