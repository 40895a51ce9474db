//! # stgnn-graph
//!
//! Graph structures and generic graph-neural-network layers used by both the
//! STGNN-DJD model and the graph baselines of the paper's Table I:
//!
//! * [`digraph`] — a compact CSR weighted digraph with dense-adjacency and
//!   degree-normalisation exports for GNN layers.
//! * [`builders`] — the graph constructions the baselines assume:
//!   distance-threshold graphs (GCNN / GBike's locality prior), pattern
//!   correlation graphs (MGNN), and aggregate flow graphs.
//! * [`gcn`] — a Kipf–Welling graph convolution layer on the autodiff tape.
//! * [`gat`] — a single-head graph attention layer with optional edge mask
//!   and distance prior (GBike's distance-weighted attention).

pub mod builders;
pub mod digraph;
pub mod gat;
pub mod gcn;

pub use digraph::DiGraph;
pub use gat::GatLayer;
pub use gcn::GcnLayer;
