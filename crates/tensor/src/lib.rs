//! # stgnn-tensor
//!
//! A small, dependency-light tensor and reverse-mode automatic
//! differentiation engine, written from scratch for the STGNN-DJD (ICDE 2022)
//! reproduction. The Rust GNN training ecosystem is too immature to lean on,
//! so this crate provides everything the paper's model needs:
//!
//! * [`Tensor`] — row-major `f32` storage with copy-on-write semantics
//!   (cheap clones via `Arc`), elementwise arithmetic, matrix products,
//!   reductions and broadcast helpers.
//! * [`autograd`] — a tape-based reverse-mode autodiff [`autograd::Graph`]
//!   whose [`autograd::Var`] handles mirror the tensor API; each recorded
//!   [`autograd::Op`] computes its value and its gradient through one op
//!   table that the compiled [`plan`] replays too, and gradients flow back
//!   to [`nn::Param`] leaves.
//! * [`nn`] — neural-network building blocks: [`nn::Linear`],
//!   [`nn::Conv1x1`] (the paper's channel-fusing 1×1 convolution of
//!   Eqs 1–4), dropout (a `Var` method), recurrent cells for the RNN/LSTM baselines,
//!   and initialisers.
//! * [`optim`] — SGD and Adam (the paper trains with Adam, §VII-C).
//! * [`loss`] — MSE/MAE building blocks and the paper's joint
//!   demand–supply loss (Eq 21).
//! * [`par`] — the kernel width, which is one: every kernel runs on the
//!   calling thread.
//! * [`pool`] — a size-bucketed recycling pool every tensor's storage is
//!   leased from; fixed-shape steady states (a training step, a serve
//!   forward) stop touching the system allocator once warm.
//! * [`plan`] — a tape compiler: one traced [`autograd::Graph::snapshot`]
//!   becomes a [`plan::Plan`] that replays forward+backward over
//!   preallocated node slots through the op table, with every matmul on
//!   the blocked GEMM and in-place rewrites where a parent's value dies,
//!   bit-identical to eager execution.
//!
//! The engine is deliberately CPU-only and `f32`-only: the model operates on
//! `n×n` station matrices (n in the tens to hundreds), where a blocked GEMM on
//! the calling thread is entirely adequate and keeps the code auditable.
//!
//! ## Quick example
//!
//! ```
//! use stgnn_tensor::{Tensor, autograd::Graph};
//!
//! let g = Graph::new();
//! let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let b = g.leaf(Tensor::from_rows(&[&[1.0], &[1.0]]));
//! let y = a.matmul(&b).sum_all();
//! assert_eq!(y.value().scalar(), 10.0);
//! ```

pub mod autograd;
pub mod error;
pub mod loss;
pub mod nn;
mod op;
pub mod optim;
pub mod par;
pub mod plan;
pub mod pool;
pub mod serialize;
pub mod shape;
pub mod tensor;

pub use error::{Error, Result};
pub use shape::Shape;
pub use tensor::Tensor;
