//! # stgnn-djd — umbrella crate
//!
//! A from-scratch Rust reproduction of *“A Data-Driven Spatial-Temporal Graph
//! Neural Network for Docked Bike Prediction”* (STGNN-DJD, ICDE 2022).
//!
//! This crate re-exports the workspace members so examples and downstream
//! users need a single dependency:
//!
//! * [`tensor`] — pure-Rust tensors + reverse-mode autodiff + NN layers.
//! * [`data`] — trip records, synthetic city generator, flow matrices,
//!   datasets and metrics.
//! * [`graph`] — graph structures and generic GNN layers (GCN/GAT).
//! * [`model`] — the STGNN-DJD model, trainer and ablation variants.
//! * [`baselines`] — the eleven comparison models of the paper's Table I.
//! * [`serve`] — batched inference serving: model registry with hot-swap,
//!   slot-keyed prediction cache, micro-batching worker pool, HA fallback
//!   under deadline, and an HTTP/JSON endpoint over `std::net`.
//! * [`analyze`] — pre-execution static analysis: tape validator (shape
//!   inference, disconnected parameters, NaN-risk, FLOP/memory costs) and
//!   the `stgnn-sound` source analyzer (crate source policy, lock order,
//!   determinism taint).
//! * [`faults`] — deterministic fault injection (failpoints), the atomic
//!   file writer, and CRC32 — the substrate of the chaos test suite and the
//!   crash-safe checkpoint/resume path.
//! * [`scale`] — replicated fleet serving: a consistent-hash router over
//!   replicas of the one city-wide model, with admission control and HA
//!   load-shedding, and the open-loop diurnal load generator.
//! * [`online`] — the crash-safe train-while-serving loop: windowed trip
//!   ingestion that re-aggregates the FCG/PCG inputs per day, cadenced
//!   fine-tuning, a gated promotion pipeline (validator → holdout →
//!   shadow), hot-swap with retained rollback handle, and post-promotion
//!   watchdogs that restore the incumbent automatically.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction methodology.

pub use stgnn_analyze as analyze;
pub use stgnn_baselines as baselines;
pub use stgnn_core as model;
pub use stgnn_data as data;
pub use stgnn_faults as faults;
pub use stgnn_graph as graph;
pub use stgnn_online as online;
pub use stgnn_scale as scale;
pub use stgnn_serve as serve;
pub use stgnn_tensor as tensor;
