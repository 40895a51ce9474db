//! # stgnn-scale — replicated fleet serving
//!
//! The paper's model is one city-wide network, and one `stgnn-serve`
//! replica answers any station of the city from it. This crate puts N such
//! replicas, each holding the same checkpoint, behind one router:
//!
//! * [`fleet`] + [`ring`] — a **router** over N in-process `stgnn-serve`
//!   replicas: a consistent-hash ring with virtual nodes maps a station to
//!   its home replica and gives the failover order, per-replica bounded
//!   admission sheds excess load into the Historical-Average fallback (the
//!   same table a replica answers from when a forward misses its deadline),
//!   and a replica that stops answering is marked down and routed around.
//!   Every seam carries an `stgnn-faults` failpoint (`scale::route`,
//!   `scale::admit`, `scale::dispatch`) so crash/slow-replica chaos is
//!   scriptable.
//! * [`loadgen`] — an **open-loop load generator** replaying a diurnal
//!   request curve with rush-hour bursts against the fleet and counting
//!   how each request was answered, rung by rung of the degradation
//!   ladder; the replica-loss chaos test drives it.

pub mod fleet;
pub mod loadgen;
pub mod ring;

pub use fleet::{Answer, Fleet, FleetConfig, FleetStats, PredictOutcome};
pub use loadgen::{LoadCurve, LoadReport};
pub use ring::HashRing;

/// Errors surfaced by the scale layer.
#[derive(Debug)]
pub enum ScaleError {
    /// A configuration parameter is unusable (empty fleet, station out of
    /// range, …).
    InvalidConfig(String),
    /// Registering the model on a replica or fitting the router's HA table
    /// failed.
    Data(String),
    /// An I/O failure booting or driving a replica.
    Io(std::io::Error),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ScaleError::Data(m) => write!(f, "fleet data: {m}"),
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
