// sound: allow-file(L004): SHAPE-CHECKED-KERNEL-INDEX — row-major kernels index
// within bounds computed by the `as_matrix`/len checks at each op's entry;
// hoisting every access through `.get()` would defeat the autovectorizer these
// loops rely on.
//! Dense row-major `f32` tensors with copy-on-write storage.
//!
//! `Tensor` clones are O(1) (an `Arc` bump); mutation goes through
//! [`Tensor::data_mut`], which clones the buffer only when shared. This keeps
//! the autodiff tape cheap: saved-for-backward tensors share storage with the
//! forward values instead of duplicating every `n×n` matrix.

use crate::error::{Error, Result};
use crate::op::{MapOp, ZipOp};
use crate::pool::Buffer;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// A dense, row-major `f32` tensor.
///
/// Element storage is a [`Buffer`] leased from the [`crate::pool`] recycling
/// pool: dropping the last clone of a tensor returns its elements to the
/// pool, and every kernel output is drawn from it, so fixed-shape workloads
/// (a training step, a serve forward) stop touching the allocator once warm.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Buffer>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// Returns [`Error::InvalidArgument`] when the buffer length does not
    /// match the shape.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(Error::InvalidArgument(format!(
                "buffer of {} elements cannot fill shape {shape}",
                data.len()
            )));
        }
        Ok(Tensor {
            data: Arc::new(Buffer::from_vec(data)),
            shape,
        })
    }

    /// Builds a tensor directly from a pooled buffer of the right length.
    pub(crate) fn from_buffer(shape: Shape, data: Buffer) -> Self {
        debug_assert_eq!(data.len(), shape.len(), "buffer/shape length mismatch");
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// A scalar tensor.
    pub fn from_scalar(v: f32) -> Self {
        Tensor {
            data: Arc::new(Buffer::filled(1, v)),
            shape: Shape::scalar(),
        }
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(v: &[f32]) -> Self {
        Tensor {
            data: Arc::new(Buffer::copy_of(v)),
            shape: Shape::vector(v.len()),
        }
    }

    /// A rank-2 tensor from row slices.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths; this constructor exists for
    /// literals in tests and examples where that is a typo.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let c = rows.first().map_or(0, |row| row.len());
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Tensor::from_rows");
        }
        Tensor::from_buffer(Shape::matrix(rows.len(), c), Buffer::concat(rows))
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor::from_buffer(shape, Buffer::zeroed(len))
    }

    /// A tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `v`.
    pub fn full(shape: Shape, v: f32) -> Self {
        let len = shape.len();
        Tensor::from_buffer(shape, Buffer::filled(len, v))
    }

    /// A tensor whose elements are drawn from `f` in row-major order —
    /// the exact sequence `(0..len).map(|_| f()).collect()` would produce,
    /// but into pooled storage (used for dropout masks).
    pub fn filled_with(shape: Shape, f: impl FnMut() -> f32) -> Self {
        let len = shape.len();
        Tensor::from_buffer(shape, Buffer::filled_with(len, f))
    }

    /// The `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = Buffer::zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_buffer(Shape::matrix(n, n), data)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// The flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer, cloning it first if shared (COW).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Element `(r, c)` of a rank-2 tensor.
    pub fn get2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.rank(), 2);
        self.data[r * self.shape.cols() + c]
    }

    /// Sets element `(r, c)` of a rank-2 tensor.
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.shape.rank(), 2);
        let cols = self.shape.cols();
        self.data_mut()[r * cols + c] = v;
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics when the tensor has more than one element.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.len(), 1, "scalar() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Row `r` of a rank-2 tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.shape.cols();
        &self.data[r * c..(r + 1) * c]
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let src = self.data();
        let mut out = Buffer::zeroed(src.len());
        for (o, &x) in out.iter_mut().zip(src) {
            *o = f(x);
        }
        Tensor::from_buffer(self.shape.clone(), out)
    }

    /// Combines two same-shape tensors elementwise.
    pub fn zip_map(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape != rhs.shape {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        let (a, b) = (self.data(), rhs.data());
        let mut out = Buffer::zeroed(a.len());
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
        Ok(Tensor::from_buffer(self.shape.clone(), out))
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_map(rhs, "add", |a, b| ZipOp::Add.fwd(a, b))
    }

    /// Elementwise sum into `self`'s buffer: `self[i] += rhs[i]`. Produces
    /// the identical bits to [`Tensor::add`] without cycling a fresh buffer
    /// through the pool; copy-on-write still protects shared storage.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        self.zip_assign(ZipOp::Add, rhs, 0)
    }

    /// A binary elementwise op into `self`'s buffer, which holds operand
    /// `slot` of `z`: `self[i] = z(self[i], other[i])` at slot 0 and
    /// `z(other[i], self[i])` at slot 1. The same bits as the out-of-place
    /// [`Tensor::zip_map`]; the compiled plan's in-place steals call it
    /// with the slot they overwrite. The op match is hoisted out of the
    /// element loop, as in [`Tensor::map_assign`].
    pub(crate) fn zip_assign(&mut self, z: ZipOp, other: &Tensor, slot: usize) -> Result<()> {
        if self.shape != other.shape {
            return Err(Error::ShapeMismatch {
                op: "zip_assign",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        #[inline(always)]
        fn each(buf: &mut [f32], b: &[f32], slot: usize, f: impl Fn(f32, f32) -> f32) {
            if slot == 0 {
                for (o, &y) in buf.iter_mut().zip(b) {
                    *o = f(*o, y);
                }
            } else {
                for (o, &y) in buf.iter_mut().zip(b) {
                    *o = f(y, *o);
                }
            }
        }
        let b = other.data();
        let buf = self.data_mut();
        use ZipOp::*;
        match z {
            Add => each(buf, b, slot, |x, y| Add.fwd(x, y)),
            Sub => each(buf, b, slot, |x, y| Sub.fwd(x, y)),
            Mul => each(buf, b, slot, |x, y| Mul.fwd(x, y)),
            Div => each(buf, b, slot, |x, y| Div.fwd(x, y)),
        }
        Ok(())
    }

    /// Applies `m.fwd` to every element of `self`'s buffer in place, with
    /// the op match hoisted out of the element loop: each arm closes over
    /// a constant variant, so the dispatch folds away and LLVM vectorizes
    /// the sweep (a branch in the inner loop defeats the autovectorizer).
    /// Per-element results are exactly `m.fwd(x)`.
    pub(crate) fn map_assign(&mut self, m: MapOp) {
        #[inline(always)]
        fn each(buf: &mut [f32], f: impl Fn(f32) -> f32) {
            for o in buf.iter_mut() {
                *o = f(*o);
            }
        }
        let buf = self.data_mut();
        use MapOp::*;
        match m {
            Relu => each(buf, |x| Relu.fwd(x)),
            Elu => each(buf, |x| Elu.fwd(x)),
            Sigmoid => each(buf, |x| Sigmoid.fwd(x)),
            Tanh => each(buf, |x| Tanh.fwd(x)),
            Exp => each(buf, |x| Exp.fwd(x)),
            Square => each(buf, |x| Square.fwd(x)),
            Abs => each(buf, |x| Abs.fwd(x)),
            Sqrt => each(buf, |x| Sqrt.fwd(x)),
            Neg => each(buf, |x| Neg.fwd(x)),
            AddScalar(s) => each(buf, |x| AddScalar(s).fwd(x)),
            MulScalar(s) => each(buf, |x| MulScalar(s).fwd(x)),
        }
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_map(rhs, "sub", |a, b| ZipOp::Sub.fwd(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_map(rhs, "mul", |a, b| ZipOp::Mul.fwd(a, b))
    }

    /// Elementwise quotient.
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_map(rhs, "div", |a, b| ZipOp::Div.fwd(a, b))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| MapOp::AddScalar(s).fwd(x))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| MapOp::MulScalar(s).fwd(x))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| MapOp::Neg.fwd(x))
    }

    /// Elementwise `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|x| MapOp::Relu.fwd(x))
    }

    /// Elementwise ELU with α = 1 (the paper's σ₂, following GAT).
    pub fn elu(&self) -> Tensor {
        self.map(|x| MapOp::Elu.fwd(x))
    }

    /// Elementwise logistic sigmoid, numerically stable on both tails.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|x| MapOp::Sigmoid.fwd(x))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(|x| MapOp::Tanh.fwd(x))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(|x| MapOp::Exp.fwd(x))
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| MapOp::Square.fwd(x))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(|x| MapOp::Sqrt.fwd(x))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(|x| MapOp::Abs.fwd(x))
    }

    // ------------------------------------------------------------------
    // Matrix operations
    // ------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: [`Tensor::matmul_layout`] with
    /// both operands in natural layout.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.matmul_layout(rhs, false, false)
    }

    /// Matrix product with layout flags: computes `op(self) · op(rhs)`
    /// where `op` transposes its operand when the flag is set. This is the
    /// one GEMM entry point of both executors: `nn` is [`Tensor::matmul`]
    /// (the forward), `nt` and `tn` are the matmul backward's `g·bᵀ` and
    /// `aᵀ·g`. Transposing both operands returns
    /// [`Error::InvalidArgument`]: no caller needs it.
    ///
    /// Every output element owns one accumulator that starts at `+0.0` and
    /// adds `a·b` in ascending contraction order, a multiply then an add,
    /// whatever inner loop runs. The loop is picked by shape class and
    /// lhs density (DESIGN §12.3 has the measured table):
    ///
    /// * `nn` and `nt` with `n = 1` — a matrix–vector product, eight
    ///   rows' chains interleaved (a stored `1×k` rhs holds the bits of
    ///   its transpose);
    /// * `nt` with `k > 1` and fewer than four lhs rows, or fewer than
    ///   512 multiply-adds — with a dense lhs, each output row is a
    ///   matrix–vector product over `b`'s stored rows; with a sparse one,
    ///   products over the lhs nonzeros only, so the flow convolution's
    ///   weight gradient copies nothing;
    /// * other `nt` with `k > 1` — the `nn` loops over a materialised
    ///   `bᵀ`; with `k = 1` over the stored rhs, whose `n×1` vector holds
    ///   the bits of its transpose;
    /// * `tn` with `n = 1` — one streaming row over the stored lhs rows,
    ///   `out[i] = Σ_p b[p]·a[p][i]` (IEEE products commute);
    /// * `nn` and `tn` — with at least four rows and a dense lhs
    ///   ([`lhs_is_dense`]), 4-row register tiles of width 16, 8, 4, 2 and
    ///   1; otherwise streaming rows that skip the lhs zeros (flow
    ///   matrices, masked FCG weights).
    ///
    /// For finite operands no choice changes a bit: the accumulator never
    /// becomes `−0.0`, so a skipped `±0.0` product is exact.
    pub fn matmul_layout(&self, rhs: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
        if ta && tb {
            return Err(Error::InvalidArgument(
                "matmul_layout: the tt layout (both operands transposed) is not supported".into(),
            ));
        }
        let (ar, ac) = self.shape.as_matrix("matmul")?;
        let (br, bc) = rhs.shape.as_matrix("matmul")?;
        let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
        let (kb, n) = if tb { (bc, br) } else { (br, bc) };
        if k != kb {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        // Degenerate operands (a 0-station city, an empty horizon slice)
        // have nothing to accumulate; the row walks below would slice
        // zero-width rows, so they return their all-zero product up front.
        if m == 0 || n == 0 || k == 0 {
            return Ok(Tensor::zeros(Shape::matrix(m, n)));
        }
        let a = self.data();
        let b = rhs.data();
        let mut out = Buffer::zeroed(m * n);
        if !ta && n == 1 {
            // nn and nt alike: the rhs is one contiguous k-vector (a stored
            // 1×k rhs holds the bits of its k×1 transpose).
            gemm_matvec(&mut out, a, b, k);
        } else if !ta && tb && k > 1 && (m < 4 || m * n * k < 512) {
            // Below four rows, or 512 multiply-adds, leasing and filling a
            // transpose costs more than the product.
            if lhs_is_dense(a) {
                // Output row i is b·a_iᵀ, a matrix–vector product over b's
                // stored rows; a[i][p]·b[j][p] is the same IEEE product.
                for (o_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
                    gemm_matvec(o_row, b, a_row, k);
                }
            } else {
                gemm_nt_sparse(&mut out, a, b, k, n);
            }
        } else if !ta && tb && k > 1 {
            // The panels over a materialised bᵀ: the k·n copy is small
            // next to the m·k·n product here.
            let bt = rhs.transpose()?;
            gemm_nn(&mut out, a, bt.data(), k, n);
        } else if !ta {
            // nn, and nt with k = 1: a stored n×1 rhs holds the bits of
            // its 1×n transpose.
            gemm_nn(&mut out, a, b, k, n);
        } else if n == 1 {
            // tn matrix–vector: out = bᵀ·a, one streaming row over a's
            // rows. b[p]·a[p][i] and a[p][i]·b[p] are the same IEEE product.
            gemm_row_nn(&mut out, b, a, m, false);
        } else {
            gemm_tn(&mut out, a, b, k, m, n);
        }
        Ok(Tensor::from_buffer(Shape::matrix(m, n), out))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// The input is read eight rows at a time: each output row takes one
    /// element from each of the eight, so the writes are contiguous runs
    /// and the eight read streams advance together. The `nt` GEMM runs its
    /// panels over this copy of the rhs.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("transpose")?;
        // A 0-row or 0-col matrix has nothing to gather: return the empty
        // transpose directly.
        if r == 0 || c == 0 {
            return Ok(Tensor::zeros(Shape::matrix(c, r)));
        }
        let data = self.data();
        let mut out = Buffer::zeroed(r * c);
        let mut panels = data.chunks_exact(8 * c);
        for (p, panel) in (&mut panels).enumerate() {
            transpose_panel::<8>(&mut out, panel, r, 8 * p);
        }
        let tail = r - r % 8;
        for (i, row) in panels.remainder().chunks_exact(c).enumerate() {
            transpose_panel::<1>(&mut out, row, r, tail + i);
        }
        Ok(Tensor::from_buffer(Shape::matrix(c, r), out))
    }

    /// Reinterprets the buffer under a new shape of equal length.
    pub fn reshape(&self, shape: Shape) -> Result<Tensor> {
        if shape.len() != self.len() {
            return Err(Error::InvalidArgument(format!(
                "cannot reshape {} ({} elems) into {shape} ({} elems)",
                self.shape,
                self.len(),
                shape.len()
            )));
        }
        Ok(Tensor {
            data: Arc::clone(&self.data),
            shape,
        })
    }

    /// Horizontal concatenation of rank-2 tensors with equal row counts.
    pub fn concat_cols(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(Error::InvalidArgument("concat_cols of zero tensors".into()));
        }
        let (rows, _) = parts[0].shape.as_matrix("concat_cols")?;
        let mut total_cols = 0;
        for p in parts {
            let (r, c) = p.shape.as_matrix("concat_cols")?;
            if r != rows {
                return Err(Error::ShapeMismatch {
                    op: "concat_cols",
                    lhs: parts[0].shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            total_cols += c;
        }
        let mut out = Buffer::zeroed(rows * total_cols);
        for i in 0..rows {
            let mut col = i * total_cols;
            for p in parts {
                let src = p.row(i);
                out[col..col + src.len()].copy_from_slice(src);
                col += src.len();
            }
        }
        Ok(Tensor::from_buffer(Shape::matrix(rows, total_cols), out))
    }

    /// Vertical concatenation of rank-2 tensors with equal column counts.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(Error::InvalidArgument("concat_rows of zero tensors".into()));
        }
        let (_, cols) = parts[0].shape.as_matrix("concat_rows")?;
        let mut total_rows = 0;
        for p in parts {
            let (r, c) = p.shape.as_matrix("concat_rows")?;
            if c != cols {
                return Err(Error::ShapeMismatch {
                    op: "concat_rows",
                    lhs: parts[0].shape.dims().to_vec(),
                    rhs: p.shape.dims().to_vec(),
                });
            }
            total_rows += r;
        }
        let mut out = Buffer::zeroed(total_rows * cols);
        let mut at = 0;
        for p in parts {
            let src = p.data();
            out[at..at + src.len()].copy_from_slice(src);
            at += src.len();
        }
        Ok(Tensor::from_buffer(Shape::matrix(total_rows, cols), out))
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("slice_rows")?;
        if start > end || end > r {
            return Err(Error::InvalidArgument(format!(
                "slice_rows {start}..{end} out of bounds for {r} rows"
            )));
        }
        Ok(Tensor::from_buffer(
            Shape::matrix(end - start, c),
            Buffer::copy_of(&self.data[start * c..end * c]),
        ))
    }

    // ------------------------------------------------------------------
    // Broadcast helpers (bias adds, row/column scaling)
    // ------------------------------------------------------------------

    /// Adds a `1×c` row vector to every row of an `r×c` matrix.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Result<Tensor> {
        let mut out = self.clone();
        out.add_row_broadcast_assign(row)?;
        Ok(out)
    }

    /// [`Tensor::add_row_broadcast`] into `self`'s buffer (copy-on-write
    /// still protects shared storage). The compiled plan's in-place
    /// rewrites call the three `*_broadcast_assign` forms directly.
    pub(crate) fn add_row_broadcast_assign(&mut self, row: &Tensor) -> Result<()> {
        let (_, c) = self.shape.as_matrix("add_row_broadcast")?;
        let (rr, rc) = row.shape.as_matrix("add_row_broadcast")?;
        if rr != 1 || rc != c {
            return Err(Error::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape.dims().to_vec(),
                rhs: row.shape.dims().to_vec(),
            });
        }
        if c == 0 {
            return Ok(());
        }
        let v = row.data();
        for o_row in self.data_mut().chunks_mut(c) {
            for (o, &b) in o_row.iter_mut().zip(v) {
                *o = ZipOp::Add.fwd(*o, b);
            }
        }
        Ok(())
    }

    /// Adds an `r×1` column vector to every column of an `r×c` matrix.
    pub fn add_col_broadcast(&self, col: &Tensor) -> Result<Tensor> {
        let mut out = self.clone();
        out.add_col_broadcast_assign(col)?;
        Ok(out)
    }

    /// [`Tensor::add_col_broadcast`] into `self`'s buffer.
    pub(crate) fn add_col_broadcast_assign(&mut self, col: &Tensor) -> Result<()> {
        self.col_broadcast_assign(col, "add_col_broadcast", |o, b| ZipOp::Add.fwd(o, b))
    }

    /// Multiplies row `i` of an `r×c` matrix by element `i` of an `r×1` column.
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Result<Tensor> {
        let mut out = self.clone();
        out.mul_col_broadcast_assign(col)?;
        Ok(out)
    }

    /// [`Tensor::mul_col_broadcast`] into `self`'s buffer.
    pub(crate) fn mul_col_broadcast_assign(&mut self, col: &Tensor) -> Result<()> {
        self.col_broadcast_assign(col, "mul_col_broadcast", |o, b| ZipOp::Mul.fwd(o, b))
    }

    /// `self[i][j] = f(self[i][j], col[i])` over an `r×c` matrix and an
    /// `r×1` column.
    fn col_broadcast_assign(
        &mut self,
        col: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<()> {
        let (r, c) = self.shape.as_matrix(op)?;
        let (cr, cc) = col.shape.as_matrix(op)?;
        if cc != 1 || cr != r {
            return Err(Error::ShapeMismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: col.shape.dims().to_vec(),
            });
        }
        if c == 0 {
            return Ok(());
        }
        let v = col.data();
        for (o_row, &b) in self.data_mut().chunks_mut(c).zip(v) {
            for o in o_row.iter_mut() {
                *o = f(*o, b);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        Tensor::from_scalar(self.data.iter().sum())
    }

    /// Mean of all elements, as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        Tensor::from_scalar(self.data.iter().sum::<f32>() / self.len() as f32)
    }

    /// Per-row sums of a rank-2 tensor, as an `r×1` column.
    pub fn sum_cols(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("sum_cols")?;
        let mut out = Buffer::zeroed(r);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * c..(i + 1) * c].iter().sum();
        }
        Ok(Tensor::from_buffer(Shape::matrix(r, 1), out))
    }

    /// Per-column sums of a rank-2 tensor, as a `1×c` row.
    pub fn sum_rows(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("sum_rows")?;
        let mut out = Buffer::zeroed(c);
        for i in 0..r {
            for (o, &v) in out.iter_mut().zip(&self.data[i * c..(i + 1) * c]) {
                *o += v;
            }
        }
        Ok(Tensor::from_buffer(Shape::matrix(1, c), out))
    }

    /// Maximum element (NaN-free inputs assumed); 0.0 for empty tensors.
    pub fn max_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        }
    }

    /// Minimum element; 0.0 for empty tensors.
    pub fn min_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f32::INFINITY, f32::min)
        }
    }

    /// Numerically-stable row-wise softmax of a rank-2 tensor.
    ///
    /// A fully-masked row (every entry `-∞`, e.g. a station whose pairs are
    /// all masked out of the attention) has no finite maximum; dividing by
    /// its zero sum would emit NaN and poison the whole backward pass.
    /// Such rows come back as the uniform distribution `1/c` instead —
    /// attention spread evenly, matching the softmax limit as a symmetric
    /// mask lifts.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("softmax_rows")?;
        // Degenerate matrices (no rows, or rows of zero width) have no
        // distribution to normalise; return the empty result before the
        // per-row `1/c` uniform fill can divide by zero.
        if r == 0 || c == 0 {
            return Ok(Tensor::zeros(Shape::matrix(r, c)));
        }
        let data = self.data();
        let mut out = Buffer::zeroed(r * c);
        for (o_row, row) in out.chunks_mut(c).zip(data.chunks(c)) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY {
                o_row.fill(1.0 / c as f32);
                continue;
            }
            let mut sum = 0.0f32;
            for (o, &x) in o_row.iter_mut().zip(row) {
                let e = (x - m).exp();
                *o = e;
                sum += e;
            }
            for o in o_row.iter_mut() {
                *o /= sum;
            }
        }
        Ok(Tensor::from_buffer(Shape::matrix(r, c), out))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// True when every pair of elements differs by at most `tol`.
    pub fn approx_eq(&self, rhs: &Tensor, tol: f32) -> bool {
        self.shape == rhs.shape
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// `R` input rows `ib..ib + R` (`panel`, `R·c` elements) into columns
/// `ib..ib + R` of the `c×r` transpose `out`: each output row takes one
/// element from each of the `R` rows, so every write is a contiguous run.
fn transpose_panel<const R: usize>(out: &mut [f32], panel: &[f32], r: usize, ib: usize) {
    let c = panel.len() / R;
    let rows: [&[f32]; R] = std::array::from_fn(|x| &panel[x * c..(x + 1) * c]);
    for (j, o_row) in out.chunks_exact_mut(r).enumerate() {
        for (o, row) in o_row[ib..ib + R].iter_mut().zip(&rows) {
            // j < c, the length of every row.
            *o = row[j];
        }
    }
}

/// Deterministic density probe for [`Tensor::matmul_layout`]'s stored lhs:
/// samples at most 1024 evenly-strided elements and calls the matrix dense
/// unless at least 7/10 of the samples are exactly zero. The register
/// tiles multiply every zero and the streaming rows skip them; at the
/// model's 64³ products they cost the same at about 1/2 zeros for `nn` and
/// 3/4 or more for `tn` and `nt`, and at 20–28 stations the tiles win up
/// to 85 % (DESIGN §12.3). So dropout (1/5 zeros) and ReLU outputs run the
/// tiles, flow matrices and masked FCG weights (85 % and more) skip.
/// Cheap relative to the `m·k·n` product it steers, and a function of the
/// data alone.
pub(crate) fn lhs_is_dense(a: &[f32]) -> bool {
    if a.is_empty() {
        return true;
    }
    let stride = (a.len() / 1024).max(1);
    let mut sampled = 0u32;
    let mut zeros = 0u32;
    let mut idx = 0;
    while idx < a.len() {
        // idx < a.len() is the loop condition.
        if a[idx] == 0.0 {
            zeros += 1;
        }
        sampled += 1;
        idx += stride;
    }
    zeros * 10 < sampled * 7
}

/// `a·b` with `a` stored `m×k` (`m = out.len() / n`) and `b` stored `k×n`.
/// A sparse lhs streams row by row, skipping its zeros; a dense one runs
/// the register-blocked panels, four rows at a time, and streams the
/// rows left over (all of them when there are fewer than four).
fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if !lhs_is_dense(a) {
        for (o_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
            gemm_row_nn(o_row, a_row, b, n, false);
        }
        return;
    }
    let mut panels = out.chunks_exact_mut(4 * n);
    let mut a_panels = a.chunks_exact(4 * k);
    for (o_panel, a_panel) in (&mut panels).zip(&mut a_panels) {
        let (a0, rest) = a_panel.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let lhs = a0
            .iter()
            .zip(a1)
            .zip(a2)
            .zip(a3)
            .map(|(((&x0, &x1), &x2), &x3)| [x0, x1, x2, x3]);
        gemm_panel(o_panel, n, lhs, b);
    }
    let rows = panels.into_remainder().chunks_exact_mut(n);
    for (o_row, a_row) in rows.zip(a_panels.remainder().chunks_exact(k)) {
        gemm_row_nn(o_row, a_row, b, n, true);
    }
}

/// `aᵀ·b` with `a` stored `k×m` and `b` stored `k×n`: the lhs column a
/// panel reads at step `p` is four adjacent elements of `a`'s row `p`, so
/// no transpose is built. Dispatch as in [`gemm_nn`].
fn gemm_tn(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
    if !lhs_is_dense(a) {
        for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
            gemm_row_tn(o_row, a, i, m, b, k, n, false);
        }
        return;
    }
    for (r, o_panel) in out.chunks_exact_mut(4 * n).enumerate() {
        let i0 = 4 * r;
        // i0 + 3 < m, and every chunk has m elements.
        let lhs = a
            .chunks_exact(m)
            .map(move |row| [row[i0], row[i0 + 1], row[i0 + 2], row[i0 + 3]]);
        gemm_panel(o_panel, n, lhs, b);
    }
    for (i, o_row) in out.chunks_exact_mut(n).enumerate().skip(m - m % 4) {
        gemm_row_tn(o_row, a, i, m, b, k, n, true);
    }
}

/// Four output rows (`o_panel`, `4·n` elements) from their lhs columns
/// (`lhs` yields the four rows' elements at each contraction step, `p`
/// ascending) and `b` stored `k×n`, in 4 × NC register tiles: NC
/// descends 16 → 8 → 4 → 2 → 1, so every width is fully tiled (n = 21 is
/// 16 + 4 + 1).
fn gemm_panel<I>(o_panel: &mut [f32], n: usize, lhs: I, b: &[f32])
where
    I: Iterator<Item = [f32; 4]> + Clone,
{
    let mut jb = 0;
    while jb + 16 <= n {
        gemm_tile::<16, I>(o_panel, n, jb, lhs.clone(), b);
        jb += 16;
    }
    if jb + 8 <= n {
        gemm_tile::<8, I>(o_panel, n, jb, lhs.clone(), b);
        jb += 8;
    }
    if jb + 4 <= n {
        gemm_tile::<4, I>(o_panel, n, jb, lhs.clone(), b);
        jb += 4;
    }
    if jb + 2 <= n {
        gemm_tile::<2, I>(o_panel, n, jb, lhs.clone(), b);
        jb += 2;
    }
    if jb < n {
        gemm_tile::<1, I>(o_panel, n, jb, lhs, b);
    }
}

/// One 4-row × `NC`-column tile of [`gemm_panel`], columns `jb..jb + NC`:
/// `NC` is a const, so the accumulator block is a fixed-size register
/// array and each contraction step is four lhs broadcasts against one
/// `NC`-wide rhs load. The rhs rows are walked by iterator, so the loop
/// carries no index arithmetic.
///
/// Bit-identity: every output element owns exactly one accumulator,
/// starting at `+0.0` and advanced in ascending contraction order — the
/// same per-element chain the streaming kernels produce; the tiling only
/// changes which *independent* chains run interleaved.
fn gemm_tile<const NC: usize, I>(o_panel: &mut [f32], n: usize, jb: usize, lhs: I, b: &[f32])
where
    I: Iterator<Item = [f32; 4]>,
{
    let mut acc = [[0f32; NC]; 4];
    for (avs, b_row) in lhs.zip(b.chunks_exact(n)) {
        // jb + NC <= n bounds the slice.
        let bvec = &b_row[jb..jb + NC];
        for (accr, &av) in acc.iter_mut().zip(&avs) {
            for (o, &bv) in accr.iter_mut().zip(bvec) {
                *o += av * bv;
            }
        }
    }
    for (o_row, accr) in o_panel.chunks_exact_mut(n).zip(&acc) {
        o_row[jb..jb + NC].copy_from_slice(accr);
    }
}

/// `a·x` for `a` stored `m×k` (`m = out.len()`) and a contiguous
/// k-vector `x`: eight rows' dot products run interleaved, so eight
/// independent add chains hide each add's latency; the row tail runs
/// them one at a time. One accumulator per output from `+0.0`, `p`
/// ascending.
fn gemm_matvec(out: &mut [f32], a: &[f32], x: &[f32], k: usize) {
    let mut o_blocks = out.chunks_exact_mut(8);
    let mut a_blocks = a.chunks_exact(8 * k);
    for (o8, a8) in (&mut o_blocks).zip(&mut a_blocks) {
        gemm_dot_rows::<8>(o8, a8, x, k);
    }
    let rest = o_blocks.into_remainder().chunks_exact_mut(1);
    for (o1, a1) in rest.zip(a_blocks.remainder().chunks_exact(k)) {
        gemm_dot_rows::<1>(o1, a1, x, k);
    }
}

/// `R` dot products of [`gemm_matvec`]: `o[r] = Σ_p rows[r][p]·x[p]`.
fn gemm_dot_rows<const R: usize>(o: &mut [f32], rows: &[f32], x: &[f32], k: usize) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
    let mut acc = [0f32; R];
    for (p, &xv) in x.iter().enumerate() {
        for (o, row) in acc.iter_mut().zip(&rows) {
            // p < k, the length of every row.
            *o += row[p] * xv;
        }
    }
    o.copy_from_slice(&acc);
}

/// `a·bᵀ` for a sparse lhs of few rows (`a` stored `m×k`, `b` stored
/// `n×k`): for each nonzero `a[i][p]`, `p` ascending, every output `j` of
/// row `i` adds `a[i][p]·b[j][p]`, so each output's chain is the
/// reference's without its ±0.0 terms. The flow convolution's weight
/// gradient (a mostly-zero 1×4096 row against a 96×4096 window) costs its
/// nonzeros, and `b` is never copied — a transpose would cost more than
/// the product here.
fn gemm_nt_sparse(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    for (o_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, b_row) in o_row.iter_mut().zip(b.chunks_exact(k)) {
                // p < k, the length of every row.
                *o += av * b_row[p];
            }
        }
    }
}

/// One output row of `a·b`, both operands in natural layout:
/// `o[j] += a_row[p]·b[p][j]` with `p` ascending. Every output element has
/// its own accumulation chain, so LLVM vectorizes the `zip` across `j`
/// without reordering any float adds (a hand-unrolled 8-lane version of
/// this loop measured ~4× *slower*: the indexed lane bodies defeat the
/// autovectorizer). It runs the sparse and few-row `nn` paths, the panels'
/// row tail and the `tn` matrix–vector product.
fn gemm_row_nn(o_row: &mut [f32], a_row: &[f32], b: &[f32], n: usize, dense: bool) {
    for (p, &av) in a_row.iter().enumerate() {
        if !dense && av == 0.0 {
            continue; // flow matrices are sparse; skipping zeros is a real win
        }
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in o_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

/// One output row of `aᵀ·b` (`a` stored `k×m` with `m = a_cols`): the lhs
/// walks a strided column of `a` (one element per contraction step), the
/// rhs streams rows through the same `zip` loop as the natural-layout
/// kernel — no transpose is ever materialised.
#[allow(clippy::too_many_arguments)]
fn gemm_row_tn(
    o_row: &mut [f32],
    a: &[f32],
    i: usize,
    a_cols: usize,
    b: &[f32],
    k: usize,
    n: usize,
    dense: bool,
) {
    for p in 0..k {
        let av = a[p * a_cols + i];
        if !dense && av == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in o_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "data={:?})", &self.data[..])
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, .. {} elems])",
                self.data[0],
                self.data[1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(Shape::matrix(2, 3)).data(), &[0.0; 6]);
        assert_eq!(Tensor::ones(Shape::vector(2)).data(), &[1.0, 1.0]);
        assert_eq!(Tensor::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::from_scalar(3.5).scalar(), 3.5);
        assert!(Tensor::from_vec(Shape::matrix(2, 2), vec![1.0]).is_err());
    }

    #[test]
    fn clone_is_cow() {
        let a = t(&[&[1.0, 2.0]]);
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 1.0);
        assert_eq!(b.data()[0], 9.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = t(&[&[2.0, 2.0], &[2.0, 2.0]]);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0, 0.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-1.0, -4.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[2.0, -4.0, 6.0, 8.0]);
        assert_eq!(a.div(&b).unwrap().data(), &[0.5, -1.0, 1.5, 2.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0, -3.0, -4.0]);
        assert_eq!(a.relu().data(), &[1.0, 0.0, 3.0, 4.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.square().data(), &[1.0, 4.0, 9.0, 16.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0, 4.0, 5.0]);
        assert_eq!(a.mul_scalar(2.0).data(), &[2.0, -4.0, 6.0, 8.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = t(&[&[1.0, 2.0]]);
        let b = t(&[&[1.0], &[2.0]]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn elu_matches_definition() {
        let a = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let e = a.elu();
        assert!((e.data()[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(e.data()[1], 0.0);
        assert_eq!(e.data()[2], 2.0);
    }

    #[test]
    fn sigmoid_is_stable_on_tails() {
        let a = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let s = a.sigmoid();
        assert!(s.data()[0] >= 0.0 && s.data()[0] < 1e-6);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[2] > 1.0 - 1e-6 && s.data()[2] <= 1.0);
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn matmul_known_values() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_and_mismatch() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(a.matmul(&Tensor::eye(2)).unwrap().approx_eq(&a, 1e-6));
        assert!(a.matmul(&t(&[&[1.0, 2.0, 3.0]])).is_err());
    }

    #[test]
    fn matmul_skips_zero_rows_correctly() {
        // The zero-skip fast path must not change results.
        let a = t(&[&[0.0, 1.0], &[2.0, 0.0]]);
        let b = t(&[&[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.matmul(&b).unwrap().data(), &[5.0, 6.0, 6.0, 8.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = t(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let tt = a.transpose().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert!(tt.transpose().unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn reshape_shares_data() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let r = a.reshape(Shape::vector(4)).unwrap();
        assert_eq!(r.data(), a.data());
        assert!(a.reshape(Shape::vector(5)).is_err());
    }

    #[test]
    fn concat_cols_and_rows() {
        let a = t(&[&[1.0], &[2.0]]);
        let b = t(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);

        let d = Tensor::concat_rows(&[&b, &b]).unwrap();
        assert_eq!(d.shape().dims(), &[4, 2]);

        assert!(Tensor::concat_cols(&[]).is_err());
        let bad = t(&[&[1.0]]);
        assert!(Tensor::concat_cols(&[&a, &bad]).is_err());
    }

    #[test]
    fn slice_rows_bounds() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.slice_rows(1, 3).unwrap();
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
        assert!(a.slice_rows(2, 4).is_err());
    }

    #[test]
    fn broadcast_ops() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let row = t(&[&[10.0, 20.0]]);
        let col = t(&[&[1.0], &[2.0]]);
        assert_eq!(
            a.add_row_broadcast(&row).unwrap().data(),
            &[11.0, 22.0, 13.0, 24.0]
        );
        assert_eq!(
            a.add_col_broadcast(&col).unwrap().data(),
            &[2.0, 3.0, 5.0, 6.0]
        );
        assert_eq!(
            a.mul_col_broadcast(&col).unwrap().data(),
            &[1.0, 2.0, 6.0, 8.0]
        );
        assert!(a.add_row_broadcast(&col).is_err());
        assert!(a.add_col_broadcast(&row).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_all().scalar(), 10.0);
        assert_eq!(a.mean_all().scalar(), 2.5);
        assert_eq!(a.sum_cols().unwrap().data(), &[3.0, 7.0]);
        assert_eq!(a.sum_rows().unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.max_all(), 4.0);
        assert_eq!(a.min_all(), 1.0);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let a = t(&[&[1000.0, 1000.0], &[0.0, f32::ln(3.0)]]);
        let s = a.softmax_rows().unwrap();
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((s.get2(0, 0) - 0.5).abs() < 1e-6);
        assert!((s.get2(1, 1) - 0.75).abs() < 1e-5);
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = t(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    /// Regression: a fully-masked attention row (all `-inf`) used to divide
    /// by a zero sum and emit NaN; it must come back uniform instead.
    #[test]
    fn softmax_fully_masked_row_is_uniform_not_nan() {
        let ninf = f32::NEG_INFINITY;
        let a = t(&[&[ninf, ninf, ninf, ninf], &[0.0, 0.0, ninf, ninf]]);
        let s = a.softmax_rows().unwrap();
        assert!(
            s.data().iter().all(|v| v.is_finite()),
            "masked row leaked NaN/inf: {s:?}"
        );
        assert_eq!(s.row(0), &[0.25; 4], "fully-masked row must be uniform");
        // Partially-masked rows keep exact softmax semantics.
        assert!((s.get2(1, 0) - 0.5).abs() < 1e-6);
        assert_eq!(s.get2(1, 2), 0.0);
        assert!((s.row(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    /// The in-place binary kernel equals the out-of-place one bit for bit,
    /// for every op and either overwritten operand. Sub and Div at slot 1
    /// are the non-commutative steals inference plans take: the buffer
    /// holds the rhs, so the formula must keep the operand order.
    #[test]
    fn zip_assign_matches_zip_map_bitwise() {
        let a = Tensor::from_slice(&[1.5, -2.0, 0.3, 7.0, -0.0, 1e-3]);
        let b = Tensor::from_slice(&[0.7, 3.0, -0.9, 2.0, 5.0, -4.0]);
        for z in [ZipOp::Add, ZipOp::Sub, ZipOp::Mul, ZipOp::Div] {
            let want = a.zip_map(&b, "zip", |x, y| z.fwd(x, y)).unwrap();
            let mut lhs = a.clone();
            lhs.zip_assign(z, &b, 0).unwrap();
            let mut rhs = b.clone();
            rhs.zip_assign(z, &a, 1).unwrap();
            for (slot, got) in [(0, lhs), (1, rhs)] {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{z:?} at slot {slot}");
            }
        }
        let mut short = Tensor::from_slice(&[1.0]);
        assert!(short.zip_assign(ZipOp::Add, &a, 0).is_err());
    }

    /// 0-row / 0-col matrices must return the correctly-shaped empty (or
    /// zero) result from `transpose`, `matmul`, `softmax_rows` and the
    /// broadcasts, never reach a zero-width row walk.
    #[test]
    fn degenerate_empty_shapes() {
        let zr = Tensor::zeros(Shape::matrix(0, 5)); // 0×n
        let zc = Tensor::zeros(Shape::matrix(5, 0)); // n×0
        let b = Tensor::ones(Shape::matrix(5, 4));

        let t = zr.transpose().unwrap();
        assert_eq!((t.shape().rows(), t.shape().cols()), (5, 0));
        let t = zc.transpose().unwrap();
        assert_eq!((t.shape().rows(), t.shape().cols()), (0, 5));

        // m = 0: empty output.
        let p = zr.matmul(&b).unwrap();
        assert_eq!((p.shape().rows(), p.shape().cols()), (0, 4));
        // k = 0: non-empty output, all zeros (empty contraction).
        let p = zc.matmul(&zr).unwrap();
        assert_eq!((p.shape().rows(), p.shape().cols()), (5, 5));
        assert!(p.data().iter().all(|&v| v == 0.0));
        // n = 0 via the layout-flag entry point too: op(rhs) is 4×0.
        let p = b
            .matmul_layout(&Tensor::zeros(Shape::matrix(0, 4)), false, true)
            .unwrap();
        assert_eq!((p.shape().rows(), p.shape().cols()), (5, 0));

        let s = zr.softmax_rows().unwrap();
        assert_eq!((s.shape().rows(), s.shape().cols()), (0, 5));
        let s = zc.softmax_rows().unwrap();
        assert_eq!((s.shape().rows(), s.shape().cols()), (5, 0));

        let r = zc
            .add_row_broadcast(&Tensor::zeros(Shape::matrix(1, 0)))
            .unwrap();
        assert_eq!((r.shape().rows(), r.shape().cols()), (5, 0));
        let r = zc
            .mul_col_broadcast(&Tensor::ones(Shape::matrix(5, 1)))
            .unwrap();
        assert_eq!((r.shape().rows(), r.shape().cols()), (5, 0));
    }

    /// The GEMM's three layouts must equal an independent reference bit for
    /// bit: one accumulator per output element, starting at `+0.0` and
    /// adding `a·b` in ascending `p`, over the materialised operands. The
    /// cases cover every class the dispatch tells apart: `k = 1` (`nt` on
    /// its stored rhs), `n = 1` (matrix–vector, `tn`'s swapped streaming
    /// row), `m` from 1 to 5 with a dense and a sparse lhs (`nt`'s few-row
    /// paths below four rows, the panels' row tail above), `n` on both
    /// sides of the 16-, 8- and 4-wide tiles,
    /// `nt` on both sides of the tiny-product cut, the model's own shapes
    /// (the PCG's `h·W₉` at 64×64·64×1, the head at 64×64·64×2, `W₁₀` at
    /// 64×256·256×64, and the flow convolution's weight gradient
    /// 1×4096·(96×4096)ᵀ over a 0.4 %-dense window), and lhs densities on
    /// both sides of [`lhs_is_dense`]'s verdict, dropout's 20 % and ReLU's
    /// 50 % zeros among them (the zero-skips must match the reference's
    /// `±0.0` adds). The unsupported `tt` layout is a typed error.
    #[test]
    fn gemm_layout_flags_match_materialized_transpose_bitwise() {
        // Uniform values in [-0.5, 0.5), each exactly zero with probability
        // `zeros`.
        let fill = |seed: u32, r: usize, c: usize, zeros: f64| -> Tensor {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f64 / (1 << 24) as f64
            };
            let data = (0..r * c)
                .map(|_| {
                    let (u, v) = (next(), next() as f32 - 0.5);
                    if u < zeros {
                        0.0
                    } else {
                        v
                    }
                })
                .collect();
            Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
        };
        let reference = |a: &Tensor, b: &Tensor| -> Vec<u32> {
            let (m, k) = a.shape().as_matrix("reference").unwrap();
            let n = b.shape().cols();
            let mut out = Vec::with_capacity(m * n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.get2(i, p) * b.get2(p, j);
                    }
                    out.push(acc.to_bits());
                }
            }
            out
        };
        // (m, k, n, lhs zero fraction, rhs zero fraction)
        let mut cases: Vec<(usize, usize, usize, f64, f64)> = vec![
            // k = 1, n = 1 and m = 1.
            (1, 1, 1, 0.0, 0.0),
            (5, 1, 7, 0.0, 0.0),
            (64, 1, 64, 0.2, 0.0),
            (64, 64, 1, 0.0, 0.0),
            (7, 13, 1, 0.5, 0.0),
            (1, 9, 1, 0.0, 0.0),
            (1, 96, 33, 0.0, 0.9),
            // The model's shapes.
            (64, 64, 2, 0.5, 0.0),
            (64, 256, 64, 0.0, 0.0),
            (1, 4096, 96, 0.85, 0.996),
            // Either side of nt's tiny-product cut, and the old cases.
            (4, 8, 8, 0.0, 0.0),
            (8, 8, 8, 0.0, 0.0),
            (5, 5, 5, 0.0, 0.0),
            (3, 7, 5, 0.0, 0.0),
            (13, 37, 21, 0.0, 0.0),
            (13, 37, 21, 0.75, 0.0),
            (64, 128, 64, 0.0, 0.0),
            (64, 128, 64, 0.75, 0.0),
        ];
        // m from 1 to 5, dense and sparse: nt's few-row paths, then the
        // panels and their row tail.
        for zeros in [0.0, 0.8] {
            cases.extend((1..=5).map(|m| (m, 9, 21, zeros, 0.0)));
        }
        // n on both sides of the 16-, 8- and 4-wide tiles.
        cases.extend([3, 4, 5, 7, 8, 9, 15, 16, 17, 33].map(|n| (6, 11, n, 0.0, 0.0)));
        // lhs densities on both sides of the verdict (7/10 zeros).
        for zeros in [0.0, 0.2, 0.5, 0.65, 0.75, 0.9, 1.0] {
            cases.push((64, 64, 64, zeros, 0.0));
            cases.push((20, 20, 20, zeros, 0.5));
        }
        for (c, &(m, k, n, za, zb)) in cases.iter().enumerate() {
            let seed = 2 * c as u32 + 7;
            let a_nat = fill(seed, m, k, za); // m×k, natural lhs
            let a_t = a_nat.transpose().unwrap(); // k×m, lhs for ta=true
            let b_nat = fill(seed + 1, k, n, zb); // k×n
            let b_t = b_nat.transpose().unwrap(); // n×k, rhs for tb=true
            let want = reference(&a_nat, &b_nat);
            let layouts = [
                ("nn", a_nat.matmul_layout(&b_nat, false, false)),
                ("nt", a_nat.matmul_layout(&b_t, false, true)),
                ("tn", a_t.matmul_layout(&b_nat, true, false)),
            ];
            for (layout, got) in layouts {
                let got: Vec<u32> = got.unwrap().data().iter().map(|v| v.to_bits()).collect();
                assert!(
                    got == want,
                    "{layout} at {m}×{k}×{n} (lhs zeros {za}, rhs zeros {zb}) diverged from the reference"
                );
            }
        }
        // The verdict sits at 7/10 zeros, whatever the layout probed.
        for (zeros, dense) in [
            (0.2, true),
            (0.5, true),
            (0.65, true),
            (0.75, false),
            (0.9, false),
        ] {
            let a = fill(3, 64, 64, zeros);
            assert_eq!(lhs_is_dense(a.data()), dense, "{zeros} zeros");
            assert_eq!(lhs_is_dense(a.transpose().unwrap().data()), dense);
        }
        let a = fill(5, 3, 4, 0.0);
        let tt = a.matmul_layout(&fill(6, 5, 3, 0.0), true, true);
        assert!(
            matches!(tt, Err(Error::InvalidArgument(_))),
            "the tt layout must be refused, got {tt:?}"
        );
    }
}
