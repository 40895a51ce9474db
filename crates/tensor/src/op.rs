// sound: allow-file(L004): SHAPE-CHECKED-KERNEL-INDEX — backward formulas index
// gradient/output buffers whose lengths the forward pass fixed (slice bounds,
// argmax rows, concat column offsets), and the sweeps index equal-length chunk
// slices.
//! The op table: one forward ([`Op::eval`]) and one backward
//! ([`Op::backprop`]) per tape op, shared by both executors — the eager
//! [`crate::autograd::Var`] builders and the compiled [`crate::plan::Plan`]
//! replay — and so is every kernel behind them: a matmul runs the one
//! layout-flag GEMM ([`Tensor::matmul_layout`]) forward and backward. The
//! elementwise ops' scalar bodies ([`MapOp`], [`ZipOp`]) live here too and
//! are the only definition of those formulas: the [`Tensor`] kernels, the
//! backward and the plan's in-place rewrites all call them.

use crate::error::{Error, Result};
use crate::pool::Buffer;
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::fmt;

/// The operation a tape node records. Together with the parent ids this is
/// enough for a static analyzer to re-derive every output shape *without*
/// executing kernels (the `stgnn-analyze` crate's tape validator), so each
/// payload carries exactly the static arguments that determine the output
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Constant input ([`crate::autograd::Graph::leaf`]).
    Leaf,
    /// Parameter read ([`crate::autograd::Graph::param`]); the cell's name
    /// is surfaced in [`crate::autograd::NodeInfo::param`].
    Param,
    /// Elementwise sum.
    Add,
    /// Elementwise difference.
    Sub,
    /// Elementwise product.
    Mul,
    /// Elementwise quotient.
    Div,
    /// Adds a scalar to every element.
    AddScalar(f32),
    /// Scales every element.
    MulScalar(f32),
    /// Elementwise negation.
    Neg,
    /// Matrix product.
    Matmul,
    /// Matrix transpose.
    Transpose,
    /// Reinterpretation under a new shape of equal length.
    Reshape(Shape),
    /// Row extraction `[start, end)`.
    SliceRows { start: usize, end: usize },
    /// Rectified linear unit.
    Relu,
    /// ELU with α = 1.
    Elu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Elementwise square.
    Square,
    /// Elementwise absolute value.
    Abs,
    /// Elementwise square root.
    Sqrt,
    /// Row-wise softmax.
    SoftmaxRows,
    /// Inverted dropout with the given drop rate.
    Dropout { rate: f32 },
    /// Adds a `1×c` row vector to every row.
    AddRowBroadcast,
    /// Adds an `r×1` column vector to every column.
    AddColBroadcast,
    /// Scales row `i` by element `i` of an `r×1` column vector.
    MulColBroadcast,
    /// Masked elementwise row max-pooling over `[x, mask]`: output row `i`
    /// pools the rows `j` of `x` with `mask[i][j] > 0`.
    RowsMaxPool,
    /// Sum of all elements (scalar output).
    SumAll,
    /// Mean of all elements (scalar output).
    MeanAll,
    /// Per-row sums, `r×c → r×1`.
    SumCols,
    /// Per-column sums, `r×c → 1×c`.
    SumRows,
    /// Horizontal concatenation of matrices.
    ConcatCols,
}

/// What a node's forward keeps for its backward beyond the parent and
/// output values. Executors hold one per node and pass it back in on the
/// next forward, so a replay reuses the previous allocation.
#[derive(Default)]
pub(crate) enum Saved {
    /// Nothing beyond the values.
    #[default]
    None,
    /// Dropout's sampled mask (`0` or `1/keep` per element).
    Mask(Tensor),
    /// Max-pool's winning input row per output element.
    Argmax(Vec<usize>),
}

impl Op {
    /// The op's name as it appears in kernel errors, tape panics and
    /// analyzer diagnostics — one vocabulary everywhere.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Param => "param",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::AddScalar(_) => "add_scalar",
            Op::MulScalar(_) => "mul_scalar",
            Op::Neg => "neg",
            Op::Matmul => "matmul",
            Op::Transpose => "transpose",
            Op::Reshape(_) => "reshape",
            Op::SliceRows { .. } => "slice_rows",
            Op::Relu => "relu",
            Op::Elu => "elu",
            Op::Sigmoid => "sigmoid",
            Op::Tanh => "tanh",
            Op::Exp => "exp",
            Op::Square => "square",
            Op::Abs => "abs",
            Op::Sqrt => "sqrt",
            Op::SoftmaxRows => "softmax_rows",
            Op::Dropout { .. } => "dropout",
            Op::AddRowBroadcast => "add_row_broadcast",
            Op::AddColBroadcast => "add_col_broadcast",
            Op::MulColBroadcast => "mul_col_broadcast",
            Op::RowsMaxPool => "rows_max_pool",
            Op::SumAll => "sum_all",
            Op::MeanAll => "mean_all",
            Op::SumCols => "sum_cols",
            Op::SumRows => "sum_rows",
            Op::ConcatCols => "concat_cols",
        }
    }

    fn arity_error(&self, got: usize) -> Error {
        Error::InvalidArgument(format!("{self} applied to {got} operands"))
    }

    /// The forward: the op's value from its operand values `x` (in parent
    /// order). Dropout draws its mask from `draw` in row-major order and
    /// keeps it in `saved`; max-pooling keeps its argmax there.
    pub(crate) fn eval(
        &self,
        x: &[&Tensor],
        saved: &mut Saved,
        draw: &mut dyn FnMut() -> f32,
    ) -> Result<Tensor> {
        match (self, x) {
            (Op::Add, [a, b]) => a.add(b),
            (Op::Sub, [a, b]) => a.sub(b),
            (Op::Mul, [a, b]) => a.mul(b),
            (Op::Div, [a, b]) => a.div(b),
            (Op::AddScalar(s), [a]) => Ok(a.add_scalar(*s)),
            (Op::MulScalar(s), [a]) => Ok(a.mul_scalar(*s)),
            (Op::Neg, [a]) => Ok(a.neg()),
            (Op::Matmul, [a, b]) => a.matmul(b),
            (Op::Transpose, [a]) => a.transpose(),
            (Op::Reshape(shape), [a]) => a.reshape(shape.clone()),
            (Op::SliceRows { start, end }, [a]) => a.slice_rows(*start, *end),
            (Op::Relu, [a]) => Ok(a.relu()),
            (Op::Elu, [a]) => Ok(a.elu()),
            (Op::Sigmoid, [a]) => Ok(a.sigmoid()),
            (Op::Tanh, [a]) => Ok(a.tanh()),
            (Op::Exp, [a]) => Ok(a.exp()),
            (Op::Square, [a]) => Ok(a.square()),
            (Op::Abs, [a]) => Ok(a.abs()),
            (Op::Sqrt, [a]) => Ok(a.sqrt()),
            (Op::SoftmaxRows, [a]) => a.softmax_rows(),
            (Op::Dropout { rate }, [a]) => {
                let keep = 1.0 - rate;
                let mask = Tensor::filled_with(a.shape().clone(), || {
                    if draw() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                });
                let out = a.mul(&mask)?;
                *saved = Saved::Mask(mask);
                Ok(out)
            }
            (Op::AddRowBroadcast, [a, b]) => a.add_row_broadcast(b),
            (Op::AddColBroadcast, [a, b]) => a.add_col_broadcast(b),
            (Op::MulColBroadcast, [a, b]) => a.mul_col_broadcast(b),
            (Op::RowsMaxPool, [a, mask]) => rows_max_pool(a, mask, saved),
            (Op::SumAll, [a]) => Ok(a.sum_all()),
            (Op::MeanAll, [a]) => Ok(a.mean_all()),
            (Op::SumCols, [a]) => a.sum_cols(),
            (Op::SumRows, [a]) => a.sum_rows(),
            (Op::ConcatCols, parts) => Tensor::concat_cols(parts),
            (Op::Leaf | Op::Param, _) => Err(Error::InvalidArgument(format!(
                "{self} nodes are bound, never computed"
            ))),
            _ => Err(self.arity_error(x.len())),
        }
    }

    /// The backward: the gradient `g` at this op's output, folded to one
    /// contribution per operand (in parent order), from the operand values
    /// `x`, the output value `out` and the forward's `saved` state. The
    /// max-pool's mask is structure, not a differentiable operand, and gets
    /// no contribution.
    ///
    /// `wants(k)` says whether operand `k` has a parameter upstream of it;
    /// an operand that has none gets `None`, and its contribution is never
    /// computed — no parameter reads it. Both executors record the verdict
    /// per node (DESIGN §9.2), so a flow convolution's window input, the
    /// `ones`/`eye` constants, masks and targets cost no backward work.
    ///
    /// Each formula reads only what it must. The compiled plan relies on
    /// that: a value slot an in-place rewrite took holds a one-element
    /// placeholder, and its legality table (`plan::passes`) only lets a
    /// rewrite take a value the consumer's and the producer's backward
    /// never read.
    pub(crate) fn backprop(
        &self,
        g: &Tensor,
        x: &[&Tensor],
        out: &Tensor,
        saved: &Saved,
        wants: &dyn Fn(usize) -> bool,
    ) -> Result<Vec<Option<Tensor>>> {
        if let [a] = x {
            if !wants(0) {
                return Ok(vec![None]);
            }
            if let Some(m) = MapOp::from_op(self) {
                return Ok(vec![Some(m.grad(g, a, out))]);
            }
        }
        // The contribution to operand `k`, computed only when it is wanted.
        let to = |k: usize, f: &dyn Fn() -> Result<Tensor>| -> Result<Option<Tensor>> {
            if wants(k) {
                f().map(Some)
            } else {
                Ok(None)
            }
        };
        Ok(match (self, x) {
            (Op::Leaf | Op::Param, []) => Vec::new(),
            (Op::Add, [_, _]) => vec![to(0, &|| Ok(g.clone()))?, to(1, &|| Ok(g.clone()))?],
            (Op::Sub, [_, _]) => vec![to(0, &|| Ok(g.clone()))?, to(1, &|| Ok(g.neg()))?],
            (Op::Mul, [a, b]) => vec![to(0, &|| g.mul(b))?, to(1, &|| g.mul(a))?],
            // d(a/b)/db = −a / b²
            (Op::Div, [a, b]) => vec![
                to(0, &|| g.div(b))?,
                to(1, &|| Ok(g.mul(a)?.div(&b.square())?.neg()))?,
            ],
            // g·bᵀ and aᵀ·g through the GEMM's layout flags, so neither
            // transpose is built.
            (Op::Matmul, [a, b]) => vec![
                to(0, &|| g.matmul_layout(b, false, true))?,
                to(1, &|| a.matmul_layout(g, true, false))?,
            ],
            (Op::Transpose, [_]) => vec![Some(g.transpose()?)],
            (Op::Reshape(_), [a]) => vec![Some(g.reshape(a.shape().clone())?)],
            (Op::SliceRows { start, end }, [a]) => {
                // Zero-pads the slice's gradient back to the full matrix.
                let (_, cols) = a.shape().as_matrix("slice_rows_bw")?;
                let mut full = Tensor::zeros(a.shape().clone());
                full.data_mut()[start * cols..end * cols].copy_from_slice(g.data());
                vec![Some(full)]
            }
            (Op::SoftmaxRows, [_]) => {
                // dx_j = s_j (g_j − Σ_k g_k s_k), per row.
                let (r, c) = out.shape().as_matrix("softmax_bw")?;
                let mut dx = Tensor::zeros(Shape::matrix(r, c));
                let buf = dx.data_mut();
                for i in 0..r {
                    let (srow, grow) = (out.row(i), g.row(i));
                    let dot: f32 = srow.iter().zip(grow).map(|(&sv, &gv)| sv * gv).sum();
                    for j in 0..c {
                        buf[i * c + j] = srow[j] * (grow[j] - dot);
                    }
                }
                vec![Some(dx)]
            }
            (Op::Dropout { .. }, [_]) => match saved {
                Saved::Mask(mask) => vec![Some(g.mul(mask)?)],
                _ => return Err(missing("dropout", "mask")),
            },
            (Op::AddRowBroadcast, [_, _]) => {
                vec![to(0, &|| Ok(g.clone()))?, to(1, &|| g.sum_rows())?]
            }
            (Op::AddColBroadcast, [_, _]) => {
                vec![to(0, &|| Ok(g.clone()))?, to(1, &|| g.sum_cols())?]
            }
            (Op::MulColBroadcast, [a, c]) => vec![
                to(0, &|| g.mul_col_broadcast(c))?,
                to(1, &|| g.mul(a)?.sum_cols())?,
            ],
            (Op::RowsMaxPool, [a, _]) => {
                if !wants(0) {
                    return Ok(Vec::new());
                }
                // Each output element's gradient routes to its argmax row.
                let Saved::Argmax(argmax) = saved else {
                    return Err(missing("rows_max_pool", "argmax"));
                };
                let cols = a.shape().cols();
                let mut dx = Tensor::zeros(a.shape().clone());
                let buf = dx.data_mut();
                for (k, (&r, &gv)) in argmax.iter().zip(g.data()).enumerate() {
                    buf[r * cols + k % cols] += gv;
                }
                vec![Some(dx)]
            }
            (Op::SumAll, [a]) => vec![Some(Tensor::full(a.shape().clone(), g.scalar()))],
            (Op::MeanAll, [a]) => {
                let inv = 1.0 / a.len() as f32;
                vec![Some(Tensor::full(a.shape().clone(), g.scalar() * inv))]
            }
            (Op::SumCols, [a]) => {
                let (r, c) = a.shape().as_matrix("sum_cols_bw")?;
                let mut dx = Tensor::zeros(Shape::matrix(r, c));
                for (row, &gv) in dx.data_mut().chunks_mut(c.max(1)).zip(g.data()) {
                    row.fill(gv);
                }
                vec![Some(dx)]
            }
            (Op::SumRows, [a]) => {
                let (r, c) = a.shape().as_matrix("sum_rows_bw")?;
                let mut dx = Tensor::zeros(Shape::matrix(r, c));
                for row in dx.data_mut().chunks_mut(c.max(1)) {
                    row.copy_from_slice(g.data());
                }
                vec![Some(dx)]
            }
            (Op::ConcatCols, parts) => {
                // Splits the gradient's columns back into the wanted parts.
                let rows = out.shape().rows();
                let mut col = 0;
                let mut contribs = Vec::with_capacity(parts.len());
                for (k, p) in parts.iter().enumerate() {
                    let w = p.shape().cols();
                    contribs.push(to(k, &|| {
                        let mut part = Buffer::zeroed(rows * w);
                        for r in 0..rows {
                            part[r * w..(r + 1) * w].copy_from_slice(&g.row(r)[col..col + w]);
                        }
                        Ok(Tensor::from_buffer(Shape::matrix(rows, w), part))
                    })?);
                    col += w;
                }
                contribs
            }
            _ => return Err(self.arity_error(x.len())),
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn missing(op: &str, what: &str) -> Error {
    Error::InvalidArgument(format!(
        "{op} node has no {what} — backward before forward?"
    ))
}

/// Masked elementwise max-pooling: output row `i` is the elementwise
/// maximum of the rows `j` of `v` with `mask[i][j] > 0`, taken in
/// ascending `j` with ties to the lowest `j`. Reuses the argmax allocation
/// a previous forward left in `saved`.
fn rows_max_pool(v: &Tensor, mask: &Tensor, saved: &mut Saved) -> Result<Tensor> {
    let (rows, cols) = v.shape().as_matrix("rows_max_pool")?;
    let (out_rows, mask_cols) = mask.shape().as_matrix("rows_max_pool")?;
    if mask_cols != rows {
        return Err(Error::shape_mismatch(
            "rows_max_pool",
            v.shape(),
            mask.shape(),
        ));
    }
    let mut out = Buffer::filled(out_rows * cols, f32::NEG_INFINITY);
    let mut argmax = match std::mem::take(saved) {
        Saved::Argmax(a) => a,
        _ => Vec::new(),
    };
    argmax.clear();
    argmax.resize(out_rows * cols, 0);
    for i in 0..out_rows {
        let mut pooled = false;
        for (r, _) in mask.row(i).iter().enumerate().filter(|&(_, &m)| m > 0.0) {
            pooled = true;
            for c in 0..cols {
                let val = v.data()[r * cols + c];
                if val > out[i * cols + c] {
                    out[i * cols + c] = val;
                    argmax[i * cols + c] = r;
                }
            }
        }
        if !pooled {
            return Err(Error::InvalidArgument(format!(
                "rows_max_pool: empty group {i}"
            )));
        }
    }
    *saved = Saved::Argmax(argmax);
    Ok(Tensor::from_buffer(Shape::matrix(out_rows, cols), out))
}

/// Calls `f` with the values of `parents`, looked up through `value` —
/// gathered on the stack for the one- and two-operand ops, so neither
/// executor allocates to hand an op its operands.
pub(crate) fn with_operands<'a, R>(
    parents: &[usize],
    value: impl Fn(usize) -> &'a Tensor,
    f: impl FnOnce(&[&'a Tensor]) -> R,
) -> R {
    match *parents {
        [a] => f(&[value(a)]),
        [a, b] => f(&[value(a), value(b)]),
        _ => f(&parents.iter().map(|&p| value(p)).collect::<Vec<_>>()),
    }
}

/// A unary elementwise op. `fwd` and `bwd` are the only definition of
/// these formulas: the [`Tensor`] kernels, [`MapOp::grad`] and the plan's
/// in-place rewrites all call them, so every path produces the same bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum MapOp {
    Relu,
    Elu,
    Sigmoid,
    Tanh,
    Exp,
    Square,
    Abs,
    Sqrt,
    Neg,
    AddScalar(f32),
    MulScalar(f32),
}

impl MapOp {
    /// The unary elementwise ops. Dropout is deliberately absent: its
    /// forward draws from the caller's RNG in node order, so the plan must
    /// run it through [`Op::eval`] to keep the stream contract.
    pub(crate) fn from_op(op: &Op) -> Option<MapOp> {
        Some(match op {
            Op::Relu => MapOp::Relu,
            Op::Elu => MapOp::Elu,
            Op::Sigmoid => MapOp::Sigmoid,
            Op::Tanh => MapOp::Tanh,
            Op::Exp => MapOp::Exp,
            Op::Square => MapOp::Square,
            Op::Abs => MapOp::Abs,
            Op::Sqrt => MapOp::Sqrt,
            Op::Neg => MapOp::Neg,
            Op::AddScalar(s) => MapOp::AddScalar(*s),
            Op::MulScalar(s) => MapOp::MulScalar(*s),
            _ => return None,
        })
    }

    /// The forward formula for one element.
    #[inline]
    pub(crate) fn fwd(self, x: f32) -> f32 {
        match self {
            MapOp::Relu => x.max(0.0),
            MapOp::Elu => {
                if x > 0.0 {
                    x
                } else {
                    x.exp_m1()
                }
            }
            // Logistic sigmoid, arranged so `exp` never overflows.
            MapOp::Sigmoid => {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
            MapOp::Tanh => x.tanh(),
            MapOp::Exp => x.exp(),
            MapOp::Square => x * x,
            MapOp::Abs => x.abs(),
            MapOp::Sqrt => x.sqrt(),
            MapOp::Neg => -x,
            MapOp::AddScalar(s) => x + s,
            MapOp::MulScalar(s) => x * s,
        }
    }

    /// The backward formula for one element: the gradient `g` arriving at
    /// the output, folded to the input, given the input value `x_in` and
    /// the output value `x_out`. Each op reads at most one of the two
    /// (see [`MapOp::grad`]).
    #[inline]
    pub(crate) fn bwd(self, g: f32, x_in: f32, x_out: f32) -> f32 {
        match self {
            MapOp::Relu => {
                if x_in > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            // f'(x) = 1 for x > 0, e^x = f(x) + 1 otherwise.
            MapOp::Elu => {
                if x_out > 0.0 {
                    g
                } else {
                    g * (x_out + 1.0)
                }
            }
            MapOp::Sigmoid => g * x_out * (1.0 - x_out),
            MapOp::Tanh => g * (1.0 - x_out * x_out),
            MapOp::Exp => g * x_out,
            MapOp::Square => g * 2.0 * x_in,
            // Subgradient 0 at 0.
            MapOp::Abs => {
                if x_in == 0.0 {
                    0.0
                } else {
                    g * x_in.signum()
                }
            }
            // Derivative guard at 0.
            MapOp::Sqrt => g * 0.5 / x_out.max(1e-8),
            MapOp::Neg => -g,
            MapOp::AddScalar(_) => g,
            MapOp::MulScalar(s) => g * s,
        }
    }

    /// The op-at-a-time backward: `bwd` over every element of `g`. Only
    /// the value `bwd` reads is swept; the other may be a plan slot's
    /// one-element placeholder, so `g` itself stands in for it.
    pub(crate) fn grad(self, g: &Tensor, x_in: &Tensor, x_out: &Tensor) -> Tensor {
        use MapOp::*;
        let read = match self {
            Relu | Square | Abs => x_in,
            Elu | Sigmoid | Tanh | Exp | Sqrt => x_out,
            Neg | MulScalar(_) => g,
            // `bwd` is the identity: share `g` instead of copying it.
            AddScalar(_) => return g.clone(),
        };
        let x = read.data();
        let mut out = Buffer::copy_of(g.data());
        sweep_bwd(self, &mut out, x, x);
        Tensor::from_buffer(g.shape().clone(), out)
    }
}

/// A binary elementwise op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ZipOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ZipOp {
    pub(crate) fn from_op(op: &Op) -> Option<ZipOp> {
        Some(match op {
            Op::Add => ZipOp::Add,
            Op::Sub => ZipOp::Sub,
            Op::Mul => ZipOp::Mul,
            Op::Div => ZipOp::Div,
            _ => return None,
        })
    }

    /// The forward formula for one element pair.
    #[inline]
    pub(crate) fn fwd(self, a: f32, b: f32) -> f32 {
        match self {
            ZipOp::Add => a + b,
            ZipOp::Sub => a - b,
            ZipOp::Mul => a * b,
            ZipOp::Div => a / b,
        }
    }
}

/// Folds the gradient sweep `g` in place through one op: per element,
/// `g[i] = m.bwd(g[i], x_in[i], x_out[i])`, dispatch hoisted as in
/// [`Tensor::map_assign`].
#[inline]
pub(crate) fn sweep_bwd(m: MapOp, g: &mut [f32], x_in: &[f32], x_out: &[f32]) {
    #[inline(always)]
    fn each(g: &mut [f32], x_in: &[f32], x_out: &[f32], f: impl Fn(f32, f32, f32) -> f32) {
        for ((gv, &xi), &xo) in g.iter_mut().zip(x_in).zip(x_out) {
            *gv = f(*gv, xi, xo);
        }
    }
    use MapOp::*;
    match m {
        Relu => each(g, x_in, x_out, |gv, xi, xo| Relu.bwd(gv, xi, xo)),
        Elu => each(g, x_in, x_out, |gv, xi, xo| Elu.bwd(gv, xi, xo)),
        Sigmoid => each(g, x_in, x_out, |gv, xi, xo| Sigmoid.bwd(gv, xi, xo)),
        Tanh => each(g, x_in, x_out, |gv, xi, xo| Tanh.bwd(gv, xi, xo)),
        Exp => each(g, x_in, x_out, |gv, xi, xo| Exp.bwd(gv, xi, xo)),
        Square => each(g, x_in, x_out, |gv, xi, xo| Square.bwd(gv, xi, xo)),
        Abs => each(g, x_in, x_out, |gv, xi, xo| Abs.bwd(gv, xi, xo)),
        Sqrt => each(g, x_in, x_out, |gv, xi, xo| Sqrt.bwd(gv, xi, xo)),
        Neg => each(g, x_in, x_out, |gv, xi, xo| Neg.bwd(gv, xi, xo)),
        AddScalar(s) => each(g, x_in, x_out, |gv, xi, xo| AddScalar(s).bwd(gv, xi, xo)),
        MulScalar(s) => each(g, x_in, x_out, |gv, xi, xo| MulScalar(s).bwd(gv, xi, xo)),
    }
}
