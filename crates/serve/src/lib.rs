//! # stgnn-serve — batched inference serving for STGNN-DJD
//!
//! Turns a trained [`stgnn_core::StgnnDjd`] checkpoint into a long-running
//! prediction service.
//!
//! ```text
//!             HTTP/JSON (std::net only)
//!                      │
//!                 ┌────▼─────┐     deadline missed?
//!    per-request  │  server  │──────────────────────► HA fallback
//!    handler      └────┬─────┘                         (degraded)
//!                      │ submit
//!                 ┌────▼─────┐  hit: answered on the handler's
//!                 │slot cache│  own thread, no worker involved
//!                 └────┬─────┘
//!                      │ miss: enqueue
//!                 ┌────▼─────┐  a free worker takes the oldest request
//!                 │  queue   │  plus every queued one for the same
//!                 └────┬─────┘  (model, slot): that is the batch
//!               ┌──────▼───────┐
//!               │ worker pool  │  in-flight wait on a key another worker
//!               │ (own models) │  computes, else one forward pass whose
//!               └──────┬───────┘  result fills the slot cache
//!                ┌─────▼─────┐  versioned checkpoints,
//!                │ registry  │  atomic hot-swap
//!                └───────────┘
//! ```
//!
//! Design constraints this module structure falls out of:
//!
//! * **`StgnnDjd` is not `Send`** (its autodiff tape uses `Rc`/`RefCell`), so
//!   models never cross threads. The [`registry`] shares *checkpoints*
//!   (config + serialized weights); each worker materialises its own model
//!   instance and refreshes it when the registry's version moves.
//! * **Predictions for a slot are immutable** until the slot rolls over or
//!   the FCG/PCG graph window is refreshed, so the [`cache`] keys on
//!   `(model, checkpoint version, graph epoch, slot)` and a cache hit
//!   bypasses the queue, the workers and the forward pass entirely.
//! * **Tail latency is bounded** by a per-request deadline: the HTTP handler
//!   waits on the batch result only up to the deadline, then answers from the
//!   Historical-Average table and tags the response `degraded`.

pub mod batch;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod server;

pub use batch::{BatchReply, PredictRequest, WorkerPool};
pub use cache::SlotCache;
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::{ModelRegistry, ModelSpec};
pub use server::{ServeConfig, Server};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The named model is not registered.
    UnknownModel(String),
    /// A checkpoint failed validation against its model spec.
    BadCheckpoint(String),
    /// A request referenced an out-of-range slot or station.
    BadRequest(String),
    /// The serving pipeline shut down while the request was in flight.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::BadCheckpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Shutdown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
