//! # stgnn-scale — sharded city-scale serving
//!
//! The paper evaluates a few hundred stations per city; the serving stack
//! built in earlier PRs answers from a single process. This crate opens the
//! multi-replica frontier in three layers:
//!
//! * [`plan`] — a **shard planner**: balanced edge-cut partition of the
//!   union FCG/PCG adjacency into K station shards, each with an explicit
//!   **halo** (the L-hop closure of its owned stations) so a shard's FCG
//!   aggregation needs only its halo-extended subgraph. [`parity`] carries
//!   the bitwise machinery and proofs-by-test: on halo-complete slots the
//!   sharded FCG stage reproduces the unsharded stage **bit-for-bit** on
//!   owned rows.
//! * [`fleet`] + [`ring`] — a **router** over N in-process `stgnn-serve`
//!   replicas: a consistent-hash ring with virtual nodes maps
//!   station → shard → replica, per-replica bounded admission sheds excess
//!   load into the Historical-Average fallback (the PR 1 degradation hook),
//!   and a replica that stops answering is marked down and routed around.
//!   Every seam carries an `stgnn-faults` failpoint (`scale::route`,
//!   `scale::admit`, `scale::dispatch`) so crash/slow-replica chaos is
//!   scriptable.
//! * [`loadgen`] — an **open-loop load generator** replaying a diurnal
//!   request curve with rush-hour bursts against the HTTP layer, measuring
//!   latency from the *scheduled* arrival (no coordinated omission) and
//!   reporting throughput, SLO attainment, p50/p99/p999 and shed rate —
//!   the record emitted as `BENCH_scale.json`.
//!
//! [`subcity`] extracts a shard's halo-extended sub-dataset (trips with
//! both endpoints inside the shard, station ids remapped) so a per-shard
//! server runs `m×m` input windows and model stages instead of `n×n`.

pub mod fleet;
pub mod loadgen;
pub mod parity;
pub mod plan;
pub mod ring;
pub mod subcity;

pub use fleet::{Answer, Fleet, FleetConfig, FleetStats, PredictOutcome};
pub use loadgen::{LoadCurve, LoadReport};
pub use parity::{halo_complete, induce_rows, induce_square, mask_closure};
pub use plan::{Shard, ShardPlan};
pub use ring::HashRing;
pub use subcity::SubCity;

/// Errors surfaced by the scale layer.
#[derive(Debug)]
pub enum ScaleError {
    /// A configuration parameter is unusable (k = 0, empty fleet, …).
    InvalidConfig(String),
    /// The partitioner could not produce a valid plan.
    Plan(String),
    /// Building a shard sub-dataset or model failed.
    Data(String),
    /// An I/O failure booting or driving a replica.
    Io(std::io::Error),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ScaleError::Plan(m) => write!(f, "shard plan: {m}"),
            ScaleError::Data(m) => write!(f, "shard data: {m}"),
            ScaleError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<std::io::Error> for ScaleError {
    fn from(e: std::io::Error) -> Self {
        ScaleError::Io(e)
    }
}
