//! # stgnn-analyze
//!
//! Static analysis for the STGNN-DJD stack, in two parts:
//!
//! * [`tape`] — a **pre-execution tape validator**. STGNN-DJD builds its
//!   graphs *from data* every slot (FCG Eq 10, PCG Eqs 11–12), so a
//!   malformed checkpoint, a degenerate flow matrix, or a refactor that
//!   disconnects a parameter from the Eq 21 loss fails silently at runtime.
//!   [`validate_tape`] proves a [`stgnn_tensor::autograd::TapeSnapshot`]
//!   well-formed before any kernel runs: symbolic shape inference
//!   cross-checked against the recorded shapes, gradient-path reachability
//!   for every parameter, dead-subgraph detection, NaN-risk abstract
//!   interpretation, and per-op FLOP/memory estimates. Diagnostics carry a
//!   [`Severity`] (`Deny`/`Warn`/`Note`), op provenance, and a stable
//!   [`diag::codes`] code (`A001`…). `Trainer::train` fails fast on `Deny`
//!   before epoch 0, and the serve registry refuses to hot-swap a candidate
//!   whose probe tape carries one.
//! * [`sound`] — **`stgnn-sound`**, the one source analyzer, built on a
//!   hand-rolled lexical substrate ([`lex`]; no crates.io parser). One
//!   per-function event parse
//!   of every `crates/*/src` file feeds four passes: the crate source
//!   policy (`L001`–`L004`: no `unwrap()`/`expect()`/`panic!`/slice
//!   indexing in non-test code of the hot-path crates; `L006`: no raw
//!   `File::create` on persistence paths), an interprocedural lock-order
//!   analysis (may-hold-while-acquiring graph, cycle = potential
//!   deadlock), a determinism-taint analysis (wall-clock/thread-identity/
//!   hash-order sources must not reach tensor values, RNG seeds,
//!   checkpoint bytes, or `BENCH_*.json` numerics), and a
//!   panic-reachability-under-lock check (`S000`…`S006`). Every escape
//!   names an invariant (`// sound: allow(L004): NAME — why`), and the run
//!   emits a machine-readable `SOUND_REPORT.json` listing them all. CI
//!   gate: `cargo run -p stgnn-analyze --bin stgnn-sound`.
//!
//! The crate depends only on `stgnn-tensor`, so every model-level crate
//! (core, serve, bench) can embed the validator without a dependency cycle;
//! the example and tests exercising the real `StgnnDjd` tape use
//! dev-dependencies.

pub mod diag;
pub(crate) mod lex;
pub mod sound;
pub mod tape;

pub use diag::{codes, Diagnostic, OpCost, Report, Severity};
pub use sound::{analyze_sources, analyze_workspace, SoundReport};
pub use tape::{infer_shape, lower_bounds, validate_tape};
