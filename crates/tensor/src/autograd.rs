// sound: allow-file(L002, L003, L004): TAPE-SHAPES-VALIDATED-FORWARD — per the
// documented Panics contract, the backward sweep re-runs ops whose shapes the
// forward pass already validated; a failure here is a tape-construction bug,
// not input.
//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of one forward pass as a node on a
//! tape. [`Var`] handles are cheap (an `Rc` plus an index) and mirror the
//! [`Tensor`] API. Calling [`Var::backward`] seeds the output gradient with
//! ones and sweeps the tape in reverse insertion order — insertion order is a
//! topological order by construction, so no explicit sort is needed.
//!
//! Model parameters live *outside* the tape in [`Param`] cells; registering
//! one with [`Graph::param`] links the tape node back to the cell so the
//! backward sweep can deposit gradients where the optimizer will find them.
//! A fresh graph is built per training step (define-by-run), which keeps
//! memory proportional to one step and makes control flow (layer counts,
//! head counts from configuration) trivial.
//!
//! # Panics
//!
//! Unlike the raw [`Tensor`] API, `Var` operations **panic** on shape
//! mismatches. A mismatch on the tape is a model-construction bug — the
//! shapes are fully determined by configuration validated up front — and
//! threading `Result` through every arithmetic expression would bury the
//! model equations. The panic messages carry the op name and both shapes.
//!
//! Code whose shapes are *not* validated up front — anything fed by an
//! external request, such as a serving worker — must use the fallible
//! variants ([`Var::try_matmul`], [`Var::try_transpose`]) which surface the
//! mismatch as a [`crate::Error`] at graph-build time instead of killing
//! the thread.

use crate::op::{with_operands, Saved};
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

pub use crate::op::Op;

/// One node of a [`TapeSnapshot`]: everything the tape recorded about an op.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The recorded operation.
    pub op: Op,
    /// Tape ids of the operands, in operand order. Always strictly smaller
    /// than this node's own id on real tapes.
    pub parents: Vec<usize>,
    /// The output shape the kernel produced at build time (the analyzer
    /// cross-checks its symbolic inference against this).
    pub shape: Shape,
    /// The recorded forward value (cheap COW clone).
    pub value: Tensor,
    /// The linked parameter's name when this node reads a [`Param`] cell.
    pub param: Option<String>,
}

/// An immutable structural copy of a [`Graph`] tape for pre-execution
/// analysis. Node ids are indices into `nodes`; insertion order is a
/// topological order, so parents always precede children.
///
/// Fields are public so tests can hand-assemble *defective* tapes (fan-in
/// mismatches, disconnected parameters) that the panicking `Var` builders
/// would refuse to construct.
#[derive(Debug, Clone, Default)]
pub struct TapeSnapshot {
    /// The recorded nodes, in insertion (= topological) order.
    pub nodes: Vec<NodeInfo>,
}

impl TapeSnapshot {
    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

struct Node {
    op: Op,
    parents: Vec<usize>,
    value: Tensor,
    /// Whether a parameter is upstream of this node: a parameter read, or
    /// an op over at least one such node. Only these nodes get gradients.
    wants_grad: bool,
    grad: Option<Tensor>,
    /// What [`Op::eval`] kept for [`Op::backprop`] (dropout mask, argmax).
    saved: Saved,
}

/// A learnable parameter: a tensor value plus a gradient accumulator,
/// shared between the model (which reads it into each tape) and the
/// optimizer (which updates it from the accumulated gradient).
pub struct Param {
    name: String,
    value: RefCell<Tensor>,
    grad: RefCell<Tensor>,
}

impl Param {
    /// Creates a named parameter with zeroed gradient accumulator.
    pub fn new(name: impl Into<String>, value: Tensor) -> Rc<Self> {
        let grad = Tensor::zeros(value.shape().clone());
        Rc::new(Param {
            name: name.into(),
            value: RefCell::new(value),
            grad: RefCell::new(grad),
        })
    }

    /// The parameter's name (used in diagnostics and serialization).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the current value (cheap COW clone).
    pub fn value(&self) -> Tensor {
        self.value.borrow().clone()
    }

    /// A snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.grad.borrow().clone()
    }

    /// Runs `f` against a borrow of the current value — no clone, not even
    /// of the shape vector. The hot-path form of [`Param::value`].
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.value.borrow())
    }

    /// Runs `f` against a borrow of the accumulated gradient — the hot-path
    /// form of [`Param::grad`], used by the optimizers every step.
    pub fn with_grad<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.grad.borrow())
    }

    /// Replaces the value (used by optimizers).
    pub fn set_value(&self, v: Tensor) {
        debug_assert_eq!(
            v.shape(),
            self.value.borrow().shape(),
            "param {} shape change",
            self.name
        );
        *self.value.borrow_mut() = v;
    }

    /// Adds `g` into the gradient accumulator.
    pub fn accumulate_grad(&self, g: &Tensor) {
        let mut cur = self.grad.borrow_mut();
        *cur = cur.add(g).expect("gradient shape mismatch");
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&self) {
        let shape = self.grad.borrow().shape().clone();
        *self.grad.borrow_mut() = Tensor::zeros(shape);
    }

    /// Number of scalar elements in this parameter.
    pub fn num_elements(&self) -> usize {
        self.value.borrow().len()
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Param({}, shape={})",
            self.name,
            self.value.borrow().shape()
        )
    }
}

/// An ordered collection of parameters, shared by a model and its optimizer.
#[derive(Default, Clone)]
pub struct ParamSet {
    params: Vec<Rc<Param>>,
}

impl ParamSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates, registers and returns a new parameter.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> Rc<Param> {
        let p = Param::new(name, value);
        self.params.push(Rc::clone(&p));
        p
    }

    /// Registers an existing parameter.
    pub fn push(&mut self, p: Rc<Param>) {
        self.params.push(p);
    }

    /// Absorbs all parameters of another set (module composition).
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    /// The registered parameters, in registration order.
    pub fn params(&self) -> &[Rc<Param>] {
        &self.params
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of learnable scalars.
    pub fn num_elements(&self) -> usize {
        self.params.iter().map(|p| p.num_elements()).sum()
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.with_grad(|g| g.data().iter().map(|x| x * x).sum::<f32>()))
            .sum::<f32>()
            .sqrt()
    }
}

struct GraphInner {
    nodes: Vec<Node>,
    /// `(node_id, param)` links for gradient writeback.
    param_links: Vec<(usize, Rc<Param>)>,
}

/// A single forward pass's autodiff tape.
#[derive(Clone)]
pub struct Graph {
    inner: Rc<RefCell<GraphInner>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            inner: Rc::new(RefCell::new(GraphInner {
                nodes: Vec::new(),
                param_links: Vec::new(),
            })),
        }
    }

    fn push(&self, op: Op, parents: Vec<usize>, value: Tensor, saved: Saved) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        let wants_grad =
            matches!(op, Op::Param) || parents.iter().any(|&p| inner.nodes[p].wants_grad);
        inner.nodes.push(Node {
            op,
            parents,
            value,
            wants_grad,
            grad: None,
            saved,
        });
        Var {
            graph: Rc::clone(&self.inner),
            id,
        }
    }

    /// Records `op` over the `parents` nodes, computing its value with
    /// [`Op::eval`]; `draw` feeds dropout's mask.
    fn record(
        &self,
        op: Op,
        parents: Vec<usize>,
        draw: &mut dyn FnMut() -> f32,
    ) -> crate::Result<Var> {
        let mut saved = Saved::None;
        let value = {
            let inner = self.inner.borrow();
            with_operands(
                &parents,
                |p| &inner.nodes[p].value,
                |x| op.eval(x, &mut saved, draw),
            )?
        };
        Ok(self.push(op, parents, value, saved))
    }

    /// Records a constant leaf. No parameter is upstream of it, so the
    /// backward sweep never forms its gradient.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(Op::Leaf, Vec::new(), value, Saved::None)
    }

    /// Records a parameter leaf; after [`Var::backward`], the gradient at
    /// this node is accumulated into the parameter's grad cell.
    pub fn param(&self, p: &Rc<Param>) -> Var {
        let v = self.push(Op::Param, Vec::new(), p.value(), Saved::None);
        self.inner
            .borrow_mut()
            .param_links
            .push((v.id, Rc::clone(p)));
        v
    }

    /// Number of nodes recorded so far.
    pub fn num_nodes(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// A structural copy of the tape recorded so far — ops, parent edges,
    /// shapes, values and parameter links — for pre-execution analysis.
    /// Values are cheap COW clones; taking a snapshot never copies tensor
    /// data and leaves the tape fully usable (including `backward`).
    pub fn snapshot(&self) -> TapeSnapshot {
        let inner = self.inner.borrow();
        let mut nodes: Vec<NodeInfo> = inner
            .nodes
            .iter()
            .map(|n| NodeInfo {
                op: n.op.clone(),
                parents: n.parents.clone(),
                shape: n.value.shape().clone(),
                value: n.value.clone(),
                param: None,
            })
            .collect();
        for (id, p) in &inner.param_links {
            nodes[*id].param = Some(p.name().to_string());
        }
        TapeSnapshot { nodes }
    }

    /// Horizontal concatenation of matrix vars.
    pub fn concat_cols(&self, parts: &[&Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero vars");
        let ids = parts.iter().map(|p| p.id).collect();
        self.record(Op::ConcatCols, ids, &mut no_draw)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The `draw` of every op but dropout, which alone samples.
fn no_draw() -> f32 {
    0.0
}

/// A handle to one node of a [`Graph`] tape.
#[derive(Clone)]
pub struct Var {
    graph: Rc<RefCell<GraphInner>>,
    id: usize,
}

impl Var {
    fn graph(&self) -> Graph {
        Graph {
            inner: Rc::clone(&self.graph),
        }
    }

    /// The node's tape id: its index into [`Graph::snapshot`] and the
    /// root id accepted by the `stgnn-analyze` tape validator.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's forward value (cheap COW clone).
    pub fn value(&self) -> Tensor {
        self.graph.borrow().nodes[self.id].value.clone()
    }

    /// Runs `f` against a borrow of the node's forward value, avoiding the
    /// tensor + shape clone of [`Var::value`] on hot paths that only need to
    /// read (loss extraction in the training loop, metric reads).
    ///
    /// `f` must not touch the tape (it holds the graph borrow).
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.graph.borrow().nodes[self.id].value)
    }

    /// The node's gradient, if `backward` has reached it. The sweep forms
    /// gradients only for nodes with a parameter upstream (a
    /// [`Graph::param`] read, or an op over one), so for a
    /// [`Graph::leaf`] and everything computed from leaves alone this is
    /// `None` after `backward` too.
    pub fn grad(&self) -> Option<Tensor> {
        self.graph.borrow().nodes[self.id].grad.clone()
    }

    /// Runs `f` against a borrow of the node's gradient (`None` before the
    /// backward sweep reaches it); the no-clone form of [`Var::grad`].
    ///
    /// `f` must not touch the tape (it holds the graph borrow).
    pub fn with_grad<R>(&self, f: impl FnOnce(Option<&Tensor>) -> R) -> R {
        f(self.graph.borrow().nodes[self.id].grad.as_ref())
    }

    /// The node's shape.
    pub fn shape(&self) -> Shape {
        self.graph.borrow().nodes[self.id].value.shape().clone()
    }

    /// Records `op` with this node as the first operand, then `rest`.
    fn try_apply(&self, op: Op, rest: &[&Var]) -> crate::Result<Var> {
        debug_assert!(
            rest.iter().all(|v| Rc::ptr_eq(&v.graph, &self.graph)),
            "{op}: operands from different graphs"
        );
        let mut parents = Vec::with_capacity(1 + rest.len());
        parents.push(self.id);
        parents.extend(rest.iter().map(|v| v.id));
        self.graph().record(op, parents, &mut no_draw)
    }

    /// [`Var::try_apply`], panicking on a shape error (see the module docs).
    fn apply(&self, op: Op, rest: &[&Var]) -> Var {
        self.try_apply(op, rest).unwrap_or_else(|e| panic!("{e}"))
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&self, rhs: &Var) -> Var {
        self.apply(Op::Add, &[rhs])
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Var) -> Var {
        self.apply(Op::Sub, &[rhs])
    }

    /// Elementwise product.
    pub fn mul(&self, rhs: &Var) -> Var {
        self.apply(Op::Mul, &[rhs])
    }

    /// Elementwise quotient.
    pub fn div(&self, rhs: &Var) -> Var {
        self.apply(Op::Div, &[rhs])
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        self.apply(Op::AddScalar(s), &[])
    }

    /// Scales by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        self.apply(Op::MulScalar(s), &[])
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.apply(Op::Neg, &[])
    }

    // ------------------------------------------------------------------
    // Matrix ops
    // ------------------------------------------------------------------

    /// Matrix product.
    ///
    /// # Panics
    /// Panics on shape mismatch — appropriate when shapes come from
    /// validated configuration. Code whose shapes come from the outside
    /// (e.g. a serving request) must use [`Var::try_matmul`].
    pub fn matmul(&self, rhs: &Var) -> Var {
        self.try_matmul(rhs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Matrix product, surfacing shape mismatches as [`crate::Error`] at
    /// graph-build time instead of panicking mid-tape. The backward pass
    /// stays infallible: once the forward shapes check out, the gradient
    /// shapes are determined.
    pub fn try_matmul(&self, rhs: &Var) -> crate::Result<Var> {
        self.try_apply(Op::Matmul, &[rhs])
    }

    /// Matrix transpose.
    ///
    /// # Panics
    /// Panics when the value is not rank-2; see [`Var::try_transpose`] for
    /// the fallible form.
    pub fn transpose(&self) -> Var {
        self.try_transpose().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Matrix transpose, surfacing rank errors as [`crate::Error`] at
    /// graph-build time instead of panicking mid-tape.
    pub fn try_transpose(&self) -> crate::Result<Var> {
        self.try_apply(Op::Transpose, &[])
    }

    /// Reinterprets under a new shape of equal length.
    pub fn reshape(&self, shape: Shape) -> Var {
        self.apply(Op::Reshape(shape), &[])
    }

    /// Extracts rows `[start, end)`; gradient zero-pads back.
    pub fn slice_rows(&self, start: usize, end: usize) -> Var {
        self.apply(Op::SliceRows { start, end }, &[])
    }

    // ------------------------------------------------------------------
    // Activations and pointwise nonlinearities
    // ------------------------------------------------------------------

    /// ReLU.
    pub fn relu(&self) -> Var {
        self.apply(Op::Relu, &[])
    }

    /// ELU with α = 1.
    pub fn elu(&self) -> Var {
        self.apply(Op::Elu, &[])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.apply(Op::Sigmoid, &[])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.apply(Op::Tanh, &[])
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.apply(Op::Exp, &[])
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        self.apply(Op::Square, &[])
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&self) -> Var {
        self.apply(Op::Abs, &[])
    }

    /// Elementwise square root with a derivative guard at 0.
    pub fn sqrt(&self) -> Var {
        self.apply(Op::Sqrt, &[])
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&self) -> Var {
        self.apply(Op::SoftmaxRows, &[])
    }

    /// Inverted dropout: zeroes elements with probability `p` and scales the
    /// survivors by `1/(1−p)` so the expectation is unchanged. Identity when
    /// `p == 0`. The mask is sampled from `rng` at trace time.
    pub fn dropout(&self, p: f32, rng: &mut impl rand::Rng) -> Var {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout rate must be in [0,1), got {p}"
        );
        if p == 0.0 {
            return self.clone();
        }
        self.graph()
            .record(Op::Dropout { rate: p }, vec![self.id], &mut || {
                rng.gen::<f32>()
            })
            .unwrap_or_else(|e| panic!("{e}"))
    }

    // ------------------------------------------------------------------
    // Broadcasts
    // ------------------------------------------------------------------

    /// Adds a `1×c` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Var) -> Var {
        self.apply(Op::AddRowBroadcast, &[row])
    }

    /// Adds an `r×1` column vector to every column.
    pub fn add_col_broadcast(&self, col: &Var) -> Var {
        self.apply(Op::AddColBroadcast, &[col])
    }

    /// Scales row `i` by element `i` of an `r×1` column vector.
    pub fn mul_col_broadcast(&self, col: &Var) -> Var {
        self.apply(Op::MulColBroadcast, &[col])
    }

    /// Masked elementwise max-pooling over rows: output row `i` is the
    /// elementwise maximum of the rows `j` with `mask[i][j] > 0`, taken in
    /// ascending `j`.
    ///
    /// This is the "max aggregator" of GraphSAGE-style GNNs (the paper's
    /// §VII-G comparison): row `i` of the `mask` marks node `i`'s
    /// neighbourhood (usually including `i` itself). The mask is an operand,
    /// so a compiled plan pools over whatever mask the replay binds or
    /// derives. Gradients route to the argmax row per element, ties
    /// resolved to the lowest `j`; the mask receives none.
    ///
    /// # Panics
    /// Panics when either operand is not a matrix, `mask` has a column
    /// count other than this var's row count, or a mask row selects no row.
    pub fn rows_max_pool(&self, mask: &Var) -> Var {
        self.apply(Op::RowsMaxPool, &[mask])
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self) -> Var {
        self.apply(Op::SumAll, &[])
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self) -> Var {
        self.apply(Op::MeanAll, &[])
    }

    /// Per-row sums, `r×c → r×1`.
    pub fn sum_cols(&self) -> Var {
        self.apply(Op::SumCols, &[])
    }

    /// Per-column sums, `r×c → 1×c`.
    pub fn sum_rows(&self) -> Var {
        self.apply(Op::SumRows, &[])
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs the reverse sweep from this node, accumulating gradients into
    /// every ancestor with a parameter upstream and depositing them into
    /// linked [`Param`]s. Each reached node folds its gradient to those
    /// parents with its op's backward (`Op::backprop`, the one the
    /// compiled plan runs too) over the stored parent values, output value
    /// and saved state. A parent with no parameter upstream — a leaf, or
    /// an op over leaves alone — gets no gradient, and its contribution is
    /// never computed: no parameter reads it (see [`Var::grad`]). From a
    /// node with no parameter upstream the sweep does nothing.
    ///
    /// Each tape supports one backward pass: the sweep accumulates into
    /// the nodes' gradients, so a second sweep would count the first
    /// one's again. Build a fresh graph per training step.
    pub fn backward(&self) {
        let mut inner = self.graph.borrow_mut();
        if !inner.nodes[self.id].wants_grad {
            return;
        }
        let seed = Tensor::ones(inner.nodes[self.id].value.shape().clone());
        accumulate(&mut inner.nodes[self.id].grad, seed);
        for id in (0..=self.id).rev() {
            let nodes = &inner.nodes;
            let node = &nodes[id];
            let Some(g) = &node.grad else {
                continue;
            };
            let wants = |k: usize| nodes[node.parents[k]].wants_grad;
            let contribs = with_operands(
                &node.parents,
                |p| &nodes[p].value,
                |x| node.op.backprop(g, x, &node.value, &node.saved, &wants),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            for (k, g) in contribs.into_iter().enumerate() {
                let Some(g) = g else {
                    continue;
                };
                let pid = inner.nodes[id].parents[k];
                debug_assert!(pid < id, "tape order violated: node {id} feeds {pid}");
                accumulate(&mut inner.nodes[pid].grad, g);
            }
        }
        // Deposit leaf gradients into parameter cells.
        for (node_id, param) in &inner.param_links {
            if let Some(g) = &inner.nodes[*node_id].grad {
                param.accumulate_grad(g);
            }
        }
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(cur) => *cur = cur.add(&g).expect("gradient accumulation shape mismatch"),
        None => *slot = Some(g),
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(id={}, value={:?})", self.id, self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    /// Central finite-difference gradient of `f` w.r.t. `x`, evaluated at `x`.
    fn numeric_grad(x: &Tensor, f: impl Fn(&Tensor) -> f32) -> Tensor {
        let eps = 1e-2f32; // f32 precision: large eps + central differences
        let mut grad = Tensor::zeros(x.shape().clone());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            grad.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
        }
        grad
    }

    /// Asserts autodiff and finite-difference gradients agree for a scalar
    /// function built on the tape from a single input matrix.
    fn check_grad(x0: Tensor, build: impl Fn(&Graph, &Var) -> Var, tol: f32) {
        let g = Graph::new();
        let p = Param::new("x", x0.clone());
        let x = g.param(&p);
        let y = build(&g, &x);
        assert_eq!(y.value().len(), 1, "check_grad requires a scalar output");
        y.backward();
        let auto = p.grad();
        let num = numeric_grad(&x0, |xv| {
            let g2 = Graph::new();
            let x2 = g2.leaf(xv.clone());
            build(&g2, &x2).value().scalar()
        });
        for i in 0..auto.len() {
            let (a, n) = (auto.data()[i], num.data()[i]);
            assert!(
                (a - n).abs() <= tol * (1.0 + n.abs()),
                "grad mismatch at {i}: autodiff {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn forward_values_match_tensor_ops() {
        let g = Graph::new();
        let a = g.leaf(t(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.leaf(t(&[&[5.0, 6.0], &[7.0, 8.0]]));
        assert_eq!(a.add(&b).value().data(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(a.matmul(&b).value().data(), &[19.0, 22.0, 43.0, 50.0]);
        assert_eq!(a.sum_all().value().scalar(), 10.0);
        assert_eq!(a.transpose().value().data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn simple_chain_backward() {
        // y = sum(a ⊙ a) → dy/da = 2a
        let g = Graph::new();
        let p = Param::new("a", t(&[&[1.0, -2.0], &[3.0, 0.5]]));
        let a = g.param(&p);
        a.mul(&a).sum_all().backward();
        assert!(p.grad().approx_eq(&t(&[&[2.0, -4.0], &[6.0, 1.0]]), 1e-6));
    }

    #[test]
    fn grad_accumulates_across_multiple_uses() {
        // y = sum(a) + sum(a) → dy/da = 2
        let g = Graph::new();
        let p = Param::new("a", t(&[&[1.0, 2.0]]));
        let a = g.param(&p);
        a.sum_all().add(&a.sum_all()).backward();
        assert!(p.grad().approx_eq(&t(&[&[2.0, 2.0]]), 1e-6));
    }

    #[test]
    fn matmul_gradcheck() {
        let b = t(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        check_grad(
            t(&[&[1.0, 2.0], &[3.0, -4.0], &[0.1, 0.2]]),
            move |g, x| {
                let bv = g.leaf(b.clone());
                x.matmul(&bv).square().sum_all()
            },
            2e-2,
        );
    }

    #[test]
    fn activation_gradchecks() {
        let x0 = t(&[&[0.5, -1.3], &[2.1, -0.4]]);
        check_grad(x0.clone(), |_, x| x.relu().sum_all(), 1e-2);
        check_grad(x0.clone(), |_, x| x.elu().square().sum_all(), 2e-2);
        check_grad(x0.clone(), |_, x| x.sigmoid().sum_all(), 1e-2);
        check_grad(x0.clone(), |_, x| x.tanh().sum_all(), 1e-2);
        check_grad(x0.clone(), |_, x| x.exp().sum_all(), 2e-2);
        check_grad(x0, |_, x| x.square().mean_all(), 1e-2);
    }

    #[test]
    fn softmax_gradcheck() {
        check_grad(
            t(&[&[0.2, -0.8, 1.4], &[2.0, 0.0, -1.0]]),
            |g, x| {
                // weight rows so the gradient is non-trivial
                let w = g.leaf(t(&[&[1.0, -2.0, 0.5], &[0.3, 0.9, -1.1]]));
                x.softmax_rows().mul(&w).sum_all()
            },
            2e-2,
        );
    }

    #[test]
    fn div_and_broadcast_gradchecks() {
        let x0 = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        check_grad(
            x0.clone(),
            |g, x| {
                let d = g.leaf(t(&[&[2.0, 4.0], &[5.0, 8.0]]));
                x.div(&d).sum_all()
            },
            1e-2,
        );
        // gradient w.r.t. the divisor
        check_grad(
            x0.clone(),
            |g, x| {
                let n = g.leaf(t(&[&[2.0, 4.0], &[5.0, 8.0]]));
                n.div(&x.add_scalar(5.0)).sum_all()
            },
            1e-2,
        );
        check_grad(
            x0.clone(),
            |g, x| {
                let row = g.leaf(t(&[&[1.0, -1.0]]));
                x.add_row_broadcast(&row).square().sum_all()
            },
            2e-2,
        );
        check_grad(
            x0.clone(),
            |g, x| {
                let col = g.leaf(t(&[&[2.0], &[-1.0]]));
                x.mul_col_broadcast(&col).square().sum_all()
            },
            2e-2,
        );
        // gradient w.r.t. the broadcast operand itself
        check_grad(
            t(&[&[2.0], &[-1.0]]),
            move |g, c| {
                let a = g.leaf(t(&[&[1.0, 2.0], &[3.0, 4.0]]));
                a.mul_col_broadcast(c).square().sum_all()
            },
            2e-2,
        );
    }

    #[test]
    fn reduction_gradchecks() {
        let x0 = t(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.5]]);
        check_grad(
            x0.clone(),
            |g, x| {
                let w = g.leaf(t(&[&[1.0], &[2.0]]));
                x.sum_cols().mul(&w).sum_all()
            },
            1e-2,
        );
        check_grad(
            x0.clone(),
            |g, x| {
                let w = g.leaf(t(&[&[1.0, -1.0, 2.0]]));
                x.sum_rows().mul(&w).sum_all()
            },
            1e-2,
        );
        check_grad(x0, |_, x| x.mean_all(), 1e-2);
    }

    #[test]
    fn concat_and_slice_gradchecks() {
        let x0 = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        check_grad(
            x0.clone(),
            |g, x| {
                let other = g.leaf(t(&[&[5.0], &[6.0]]));
                let cat = g.concat_cols(&[x, &other]);
                cat.square().sum_all()
            },
            2e-2,
        );
        check_grad(
            x0.clone(),
            |_, x| x.slice_rows(1, 2).square().sum_all(),
            2e-2,
        );
        check_grad(x0, |_, x| x.transpose().square().sum_all(), 2e-2);
    }

    #[test]
    fn rows_max_pool_forward_and_backward() {
        let g = Graph::new();
        let p = Param::new("x", t(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 9.0]]));
        let x = g.param(&p);
        // node 0 pools {0,1}, node 1 pools {1,2}
        let mask = g.leaf(t(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]));
        let y = x.rows_max_pool(&mask);
        assert_eq!(y.value().data(), &[3.0, 5.0, 3.0, 9.0]);
        y.sum_all().backward();
        // grads route to argmax entries; row1 col0 wins twice.
        assert!(p
            .grad()
            .approx_eq(&t(&[&[0.0, 1.0], &[2.0, 0.0], &[0.0, 1.0]]), 1e-6));
    }

    #[test]
    fn rows_max_pool_gradcheck() {
        check_grad(
            t(&[&[1.0, 5.0], &[3.0, 2.0], &[0.5, 9.0]]),
            |g, x| {
                let mask = g.leaf(t(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]]));
                x.rows_max_pool(&mask).square().sum_all()
            },
            2e-2,
        );
    }

    #[test]
    fn sqrt_and_abs_gradchecks() {
        check_grad(
            t(&[&[4.0, 9.0], &[1.0, 16.0]]),
            |_, x| x.sqrt().sum_all(),
            1e-2,
        );
        check_grad(
            t(&[&[2.0, -3.0], &[1.0, -0.5]]),
            |_, x| x.abs().sum_all(),
            1e-2,
        );
    }

    #[test]
    fn reshape_gradcheck() {
        check_grad(
            t(&[&[1.0, 2.0, 3.0, 4.0]]),
            |g, x| {
                let w = g.leaf(t(&[&[1.0, -1.0], &[2.0, 0.5]]));
                x.reshape(Shape::matrix(2, 2)).mul(&w).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0, 2.0]]));
        let y = x.dropout(0.0, &mut rng);
        assert_eq!(y.value().data(), &[1.0, 2.0]);
    }

    #[test]
    fn dropout_scales_survivors_and_routes_grads() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Graph::new();
        let p = Param::new("x", Tensor::ones(Shape::matrix(4, 4)));
        let x = g.param(&p);
        let y = x.dropout(0.5, &mut rng);
        // survivors are exactly 2.0, dropped exactly 0.0
        assert!(y.value().data().iter().all(|&v| v == 0.0 || v == 2.0));
        y.sum_all().backward();
        // gradient equals the mask
        assert!(p.grad().approx_eq(&y.value(), 1e-6));
    }

    #[test]
    fn param_writeback_and_zero() {
        let p = Param::new("w", t(&[&[1.0, 2.0]]));
        let g = Graph::new();
        let w = g.param(&p);
        w.mul_scalar(3.0).sum_all().backward();
        assert!(p.grad().approx_eq(&t(&[&[3.0, 3.0]]), 1e-6));
        p.zero_grad();
        assert!(p.grad().approx_eq(&t(&[&[0.0, 0.0]]), 0.0));
    }

    #[test]
    fn paramset_bookkeeping() {
        let mut ps = ParamSet::new();
        let a = ps.add("a", Tensor::zeros(Shape::matrix(2, 3)));
        ps.add("b", Tensor::zeros(Shape::vector(4)));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_elements(), 10);
        assert_eq!(a.name(), "a");
        assert!(!ps.is_empty());

        let mut other = ParamSet::new();
        other.extend(&ps);
        assert_eq!(other.len(), 2);
    }

    #[test]
    fn grad_norm_matches_manual() {
        let mut ps = ParamSet::new();
        let p = ps.add("p", t(&[&[1.0, 1.0]]));
        p.accumulate_grad(&t(&[&[3.0, 4.0]]));
        assert!((ps.grad_norm() - 5.0).abs() < 1e-6);
    }

    /// Regression: shape mismatches used to be unreachable except as a
    /// `panic!` inside the tape; the `try_` forms must surface them as
    /// errors at graph-build time and leave the graph usable.
    #[test]
    fn try_matmul_and_try_transpose_surface_shape_errors() {
        let g = Graph::new();
        let a = g.leaf(t(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let bad = g.leaf(t(&[&[1.0, 2.0, 3.0]])); // 1×3: inner dims clash
        let err = a.try_matmul(&bad).unwrap_err();
        assert!(err.to_string().contains("matmul"), "{err}");

        let scalar = g.leaf(Tensor::from_scalar(1.0));
        assert!(scalar.try_transpose().is_err());

        // The same graph keeps working after a failed build step, and the
        // fallible path is gradient-equivalent to the panicking one.
        let b = g.leaf(t(&[&[1.0], &[1.0]]));
        let y = a.try_matmul(&b).unwrap().sum_all();
        assert_eq!(y.value().scalar(), 10.0);
        y.backward();

        let ok = a.try_transpose().unwrap();
        assert_eq!(ok.value().data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn two_layer_network_gradcheck() {
        // A composite block close to the real model: relu(x·W1)·W2 softmaxed.
        let w1 = t(&[&[0.3, -0.2, 0.5], &[0.1, 0.4, -0.6]]);
        let w2 = t(&[&[0.7, -0.3], &[0.2, 0.9], &[-0.5, 0.1]]);
        check_grad(
            t(&[&[1.0, -1.5], &[0.5, 2.0]]),
            move |g, x| {
                let w1v = g.leaf(w1.clone());
                let w2v = g.leaf(w2.clone());
                x.matmul(&w1v)
                    .relu()
                    .matmul(&w2v)
                    .softmax_rows()
                    .square()
                    .sum_all()
            },
            3e-2,
        );
    }
}
