//! # stgnn-online — crash-safe train-while-serving for STGNN-DJD
//!
//! The paper's FCG/PCG graphs are data-driven but frozen per training run;
//! a deployed docked-bike system drifts daily. This crate closes the loop:
//! it streams trips through a sliding window, re-aggregates the graph
//! inputs over the window's days, fine-tunes the serving model on a
//! cadence, and promotes the result through a gate that a bad candidate
//! cannot pass — with an automatic, bit-identical rollback if one slips
//! through anyway.
//!
//! ```text
//!   trips ──► [window]  ──► [refresh]  ──► [fine-tune] ──► [gate] ──► [shadow]
//!             sliding        FCG/PCG        Trainer +       tape +      mirrored
//!             TripWindow     inputs         checkpoints     holdout     traffic
//!                                                              │
//!                          rollback ◄── [watchdog] ◄── [promote: swap_at_epoch]
//!                          (restore       SLO / error        serve registry,
//!                           incumbent)    / RMSE             previous retained
//! ```
//!
//! * [`window`] — [`window::TripWindow`]: a whole-day sliding buffer whose
//!   [`stgnn_data::FlowSeries`] is re-aggregated from the buffered trips
//!   on every ingested day.
//! * [`state`] — the loop's phase machine, persisted crash-safely with
//!   `fsio::atomic_write` in the same CRC-stamped style as `stgnn-ckpt`.
//! * [`gate`] — the promotion pipeline: `stgnn-analyze` tape validation,
//!   holdout-RMSE regression check against the incumbent, then a shadow
//!   phase serving mirrored slots.
//! * [`watchdog`] — post-promotion SLO / error / live-RMSE checks that
//!   demand a rollback.
//! * [`driver`] — [`driver::OnlineLoop`]: the control loop tying it all to
//!   the serve registry, with a named `failpoint!` at every seam
//!   (`online::{ingest,refresh,finetune,gate,shadow,promote,rollback}`)
//!   and crash recovery to a well-defined state from any of them.

pub mod driver;
pub mod gate;
pub mod state;
pub mod watchdog;
pub mod window;

pub use driver::{CycleOutcome, OnlineConfig, OnlineLoop};
pub use gate::{GateConfig, GateReport};
pub use state::{LoopState, Phase};
pub use watchdog::{Verdict, Watchdog, WatchdogConfig};
pub use window::TripWindow;

use std::fmt;

/// Errors surfaced by the online loop.
#[derive(Debug)]
pub enum OnlineError {
    /// Underlying I/O failure (state file, checkpoints).
    Io(std::io::Error),
    /// The data substrate rejected a window or dataset operation.
    Data(stgnn_data::Error),
    /// The serve registry rejected a swap, rollback or lookup.
    Serve(stgnn_serve::ServeError),
    /// A persisted state file is damaged or from a foreign version.
    State(String),
    /// A phase was entered from a state that does not permit it.
    BadPhase(String),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Io(e) => write!(f, "online loop io error: {e}"),
            OnlineError::Data(e) => write!(f, "online loop data error: {e}"),
            OnlineError::Serve(e) => write!(f, "online loop serve error: {e}"),
            OnlineError::State(m) => write!(f, "online loop state error: {m}"),
            OnlineError::BadPhase(m) => write!(f, "phase violation: {m}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Io(e) => Some(e),
            OnlineError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OnlineError {
    fn from(e: std::io::Error) -> Self {
        OnlineError::Io(e)
    }
}

impl From<stgnn_data::Error> for OnlineError {
    fn from(e: stgnn_data::Error) -> Self {
        OnlineError::Data(e)
    }
}

impl From<stgnn_serve::ServeError> for OnlineError {
    fn from(e: stgnn_serve::ServeError) -> Self {
        OnlineError::Serve(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, OnlineError>;
