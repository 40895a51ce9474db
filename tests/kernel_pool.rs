//! The kernel pool's completion barrier: `par::for_each_row_chunk_mut`
//! must not return while a pooled job can still touch the caller's frame.
//!
//! A delay armed at `par::complete` holds every pooled job after its body
//! has finished and before the job ends. A dispatch must wait it out, and
//! a stack frame reused right after the dispatch must stay untouched. This
//! binary holds one test, so no other test shares its fault plan.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use stgnn_djd::faults::{scoped, FaultPlan, FaultSpec, Trigger};
use stgnn_djd::tensor::par;

/// The delay armed at the end of every pooled job, in milliseconds.
const LATE_MS: u64 = 50;
const DISPATCHES: usize = 20;

/// Two one-row chunks at width 2. Chunk 0 runs on this thread and is
/// slowed by 10 ms, so the pooled chunk 1 finishes its body first.
#[inline(never)]
fn dispatch_two_chunks() {
    let mut out = [0.0f32; 2];
    par::for_each_row_chunk_mut(&mut out, 1, 1, |first_row, window| {
        if first_row == 0 {
            thread::sleep(Duration::from_millis(10));
        }
        window.fill(1.0);
    });
    black_box(&out);
}

/// Zeroes a 16 KiB stack array over the frame the dispatch just left,
/// spins past the end of the armed delay, and reports whether the array
/// is still all zero.
#[inline(never)]
fn reused_frame_stays_zero() -> bool {
    let mut frame = [0u64; 2048];
    black_box(&mut frame);
    let until = Instant::now() + Duration::from_millis(LATE_MS + 20);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
    black_box(&frame).iter().all(|&word| word == 0)
}

#[test]
fn a_dispatch_returns_only_after_its_pooled_jobs_end() {
    let _plan = scoped(FaultPlan::new().with(
        "par::complete",
        FaultSpec::delay(LATE_MS, Trigger::EveryHit),
    ));
    par::set_thread_override(Some(2));
    let mut fastest = Duration::MAX;
    let mut dirty = 0;
    for _ in 0..DISPATCHES {
        let started = Instant::now();
        dispatch_two_chunks();
        fastest = fastest.min(started.elapsed());
        dirty += usize::from(!reused_frame_stays_zero());
    }
    par::set_thread_override(None);
    let seen = format!(
        "fastest dispatch {fastest:?} against a {LATE_MS} ms delay; \
         {dirty} of {DISPATCHES} reused frames written to"
    );
    assert!(
        fastest >= Duration::from_millis(LATE_MS),
        "a dispatch returned inside its pooled job's delay: {seen}"
    );
    assert_eq!(dirty, 0, "a pooled job wrote to a returned frame: {seen}");
}
