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

/// Side length of the square tiles `transpose` gathers through: 32×32 f32
/// tiles (4 KiB working set) keep both the strided reads and the strided
/// writes inside L1 while a whole row/column of a large matrix would not.
const TRANSPOSE_TILE: usize = 32;

/// Contraction-dimension block for the layout-flag GEMM microkernel
/// ([`Tensor::matmul_layout`]): eight `TRANSPOSE_TILE`-sized runs, so the
/// eight B-columns a lane block walks (8 × 256 × 4 B = 8 KiB) stay inside L1
/// together with the A-row segment. Blocking only regroups the *memory*
/// traversal — each output element keeps one accumulator walking the
/// contraction in ascending order, so results are bit-identical to the
/// unblocked kernel.
const GEMM_KC: usize = 8 * TRANSPOSE_TILE;

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
    /// where `op` transposes its operand when the flag is set, **without
    /// materialising the transpose**. This is the one GEMM kernel of both
    /// executors: `nn` is [`Tensor::matmul`] (the forward), `nt` and `tn`
    /// are the matmul backward's `g·bᵀ` and `aᵀ·g`. Transposing both
    /// operands returns [`Error::InvalidArgument`]: no caller needs it.
    ///
    /// Every output element owns one accumulator that starts at `+0.0` and
    /// adds `a·b` in ascending contraction order, whatever the layout or
    /// the blocking. A deterministic density probe of the stored
    /// lhs ([`lhs_is_dense`]) picks the inner loops: a dense lhs (weights,
    /// hidden states) takes the register-blocked kernel, a sparse one (flow
    /// matrices) skips its zero elements, which skips most of the work.
    /// For finite operands the verdict changes no bits: the accumulator
    /// never becomes `−0.0`, so adding a `±0.0` product is exact.
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
        let dense = lhs_is_dense(a);
        let mut out = Buffer::zeroed(m * n);
        if !ta && tb {
            gemm_nt(&mut out, a, b, k, n, dense);
        } else if dense {
            // Dense lhs and a streaming rhs: the register-blocked path.
            // (The sparse path must take the per-row zero-skips, so it
            // keeps the streaming kernels.)
            gemm_blocked(&mut out, a, b, k, n, ta, ac);
        } else {
            for (i, o_row) in out.chunks_mut(n).enumerate() {
                if ta {
                    gemm_row_tn(o_row, a, i, ac, b, k, n, dense);
                } else {
                    gemm_row_nn(o_row, &a[i * k..(i + 1) * k], b, n, dense);
                }
            }
        }
        Ok(Tensor::from_buffer(Shape::matrix(m, n), out))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// The gather is tiled in [`TRANSPOSE_TILE`]² blocks so both the
    /// contiguous reads and the strided writes stay inside L1, instead of
    /// walking a full strided column of a large matrix per output row.
    pub fn transpose(&self) -> Result<Tensor> {
        let (r, c) = self.shape.as_matrix("transpose")?;
        // A 0-row or 0-col matrix has nothing to gather: return the empty
        // transpose directly.
        if r == 0 || c == 0 {
            return Ok(Tensor::zeros(Shape::matrix(c, r)));
        }
        let data = self.data();
        let mut out = Buffer::zeroed(r * c);
        let o: &mut [f32] = &mut out;
        for jb in (0..c).step_by(TRANSPOSE_TILE) {
            let jend = (jb + TRANSPOSE_TILE).min(c);
            for ib in (0..r).step_by(TRANSPOSE_TILE) {
                let iend = (ib + TRANSPOSE_TILE).min(r);
                for i in ib..iend {
                    let src_row = &data[i * c..(i + 1) * c];
                    for j in jb..jend {
                        o[j * r + i] = src_row[j];
                    }
                }
            }
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

/// Deterministic density probe for [`Tensor::matmul_layout`]'s stored lhs:
/// samples at most 1024 evenly-strided elements and calls the matrix dense
/// when fewer than 1/8 of the samples are exactly zero. Cheap relative to
/// the `m·k·n` product it steers, and a function of the data alone.
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
    zeros * 8 < sampled
}

/// One output row of `a·b`, both operands in natural layout:
/// `o[j] += a_row[p]·b[p][j]` with `p` ascending. Every output element has
/// its own accumulation chain, so LLVM vectorizes the `zip` across `j`
/// without reordering any float adds (a hand-unrolled 8-lane version of
/// this loop measured ~4× *slower*: the indexed lane bodies defeat the
/// autovectorizer). It runs the sparse `nn` path and the blocked kernel's
/// row tail.
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

/// Dense `op(a)·b` into the whole output, register blocked: a 4-row ×
/// 16-column accumulator tile lives entirely in vector registers, so each
/// contraction step issues eight fused multiply-adds against two `b`
/// vector loads instead of re-walking the output row through memory, as
/// the streaming [`gemm_row_nn`] does. Works for both
/// the natural (`ta=false`) and transposed (`ta=true`) lhs — the lhs
/// element is a scalar broadcast either way, only its address changes.
///
/// Bit-identity: every output element still owns exactly one accumulator,
/// advanced in ascending contraction order — the same per-element chain
/// the streaming sparse path produces; row/column blocking only changes
/// which *independent* chains run interleaved.
fn gemm_blocked(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    ta: bool,
    a_cols: usize,
) {
    let rows = out.len() / n;
    let rb_end = rows - rows % 4;
    let mut r = 0;
    while r < rb_end {
        // Descend 16 → 8 → 4-wide column tiles so awkward widths (n = 28:
        // 16 + 8 + 4) stay fully register-blocked; only n % 4 columns fall
        // back to the streaming loop.
        let mut jb = 0;
        while jb + 16 <= n {
            gemm_block_tile::<16>(out, r, a, b, k, n, jb, ta, a_cols);
            jb += 16;
        }
        if jb + 8 <= n {
            gemm_block_tile::<8>(out, r, a, b, k, n, jb, ta, a_cols);
            jb += 8;
        }
        if jb + 4 <= n {
            gemm_block_tile::<4>(out, r, a, b, k, n, jb, ta, a_cols);
            jb += 4;
        }
        if jb < n {
            for i in r..r + 4 {
                gemm_blocked_col_tail(out, i, a, b, k, n, jb, ta, a_cols);
            }
        }
        r += 4;
    }
    for i in rb_end..rows {
        let o_row = &mut out[i * n..(i + 1) * n];
        if ta {
            gemm_row_tn(o_row, a, i, a_cols, b, k, n, true);
        } else {
            gemm_row_nn(o_row, &a[i * k..(i + 1) * k], b, n, true);
        }
    }
}

/// One 4-row × `NC`-column register tile of [`gemm_blocked`], rows
/// `i0..i0 + 4`: `NC` is a const so the accumulator block is a true
/// fixed-size register array at every tile width.
#[allow(clippy::too_many_arguments)]
fn gemm_block_tile<const NC: usize>(
    out: &mut [f32],
    i0: usize,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    jb: usize,
    ta: bool,
    a_cols: usize,
) {
    let mut acc = [[0f32; NC]; 4];
    for p in 0..k {
        let bvec = &b[p * n + jb..p * n + jb + NC];
        // p < k and i0+3 < m bound every index.
        let avs = if ta {
            let col = &a[p * a_cols..p * a_cols + a_cols];
            [col[i0], col[i0 + 1], col[i0 + 2], col[i0 + 3]]
        } else {
            [
                a[i0 * k + p],
                a[(i0 + 1) * k + p],
                a[(i0 + 2) * k + p],
                a[(i0 + 3) * k + p],
            ]
        };
        for (accr, &av) in acc.iter_mut().zip(&avs) {
            for (o, &bv) in accr.iter_mut().zip(bvec) {
                *o += av * bv;
            }
        }
    }
    for (r4, accr) in acc.iter().enumerate() {
        out[(i0 + r4) * n + jb..(i0 + r4) * n + jb + NC].copy_from_slice(accr);
    }
}

/// The `n % 16` leftover columns of one blocked row, streamed with the
/// same ascending-`p` per-element chains.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_col_tail(
    out: &mut [f32],
    i: usize,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    jb: usize,
    ta: bool,
    a_cols: usize,
) {
    let o_tail = &mut out[i * n + jb..(i + 1) * n];
    for p in 0..k {
        let av = if ta { a[p * a_cols + i] } else { a[i * k + p] };
        let b_seg = &b[p * n + jb..(p + 1) * n];
        for (o, &bv) in o_tail.iter_mut().zip(b_seg) {
            *o += av * bv;
        }
    }
}

/// `a·bᵀ` into the whole output (`b` stored `n×k`).
///
/// The classic BLAS pack: for each block of 8 output columns, [`GEMM_KC`]
/// contraction steps of the 8 corresponding `b` rows are copied into an
/// 8 KiB p-major stack tile, amortised over every output row. The
/// packed lanes then read contiguous memory, so the 8 per-output
/// accumulation chains vectorize; chains carry across p-tiles with `p`
/// strictly ascending, which keeps every output element bit-identical to
/// the `nn` product over a materialised `bᵀ`.
fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize, dense: bool) {
    let rows = out.len() / n;
    let nb = n - n % 8;
    let mut pack = [0f32; 8 * GEMM_KC];
    let mut jb = 0;
    while jb < nb {
        let mut pb = 0;
        while pb < k {
            let pe = (pb + GEMM_KC).min(k);
            for l in 0..8 {
                let b_row = &b[(jb + l) * k..(jb + l) * k + k];
                for p in pb..pe {
                    // (p-pb) < GEMM_KC by tile bounds.
                    pack[(p - pb) * 8 + l] = b_row[p];
                }
            }
            let rb = rows - rows % 4;
            let mut r = 0;
            while r < rb {
                gemm_rows4_nt_packed(out, r, a, &pack, pb, pe, k, n, jb, dense);
                r += 4;
            }
            for i in rb..rows {
                let a_row = &a[i * k..(i + 1) * k];
                let acc = &mut out[i * n + jb..i * n + jb + 8];
                gemm_row_nt_packed(acc, a_row, &pack, pb, pe, dense);
            }
            pb = pe;
        }
        jb += 8;
    }
    if nb < n {
        for (i, o_row) in out.chunks_mut(n).enumerate() {
            gemm_row_nt_tail(o_row, &a[i * k..(i + 1) * k], b, k, nb, dense);
        }
    }
}

/// Four output rows' 8-column accumulator blocks advanced through one
/// packed p-tile together, so each packed lane load feeds four fused
/// multiply-adds. Accumulators load from and store back to the output —
/// per-element chains still carry across p-tiles in ascending
/// order, and the sparse zero-skip stays per (row, p) exactly as the
/// single-row kernel takes it.
#[allow(clippy::too_many_arguments)]
fn gemm_rows4_nt_packed(
    out: &mut [f32],
    r0: usize,
    a: &[f32],
    pack: &[f32],
    pb: usize,
    pe: usize,
    k: usize,
    n: usize,
    jb: usize,
    dense: bool,
) {
    let mut acc = [[0f32; 8]; 4];
    for (r4, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&out[(r0 + r4) * n + jb..(r0 + r4) * n + jb + 8]);
    }
    for (p, lane) in (pb..pe).zip(pack.chunks_exact(8)) {
        for (r4, accr) in acc.iter_mut().enumerate() {
            // r0+3 < m and p < k bound the index.
            let av = a[(r0 + r4) * k + p];
            if !dense && av == 0.0 {
                continue;
            }
            for (o, &bv) in accr.iter_mut().zip(lane) {
                *o += av * bv;
            }
        }
    }
    for (r4, accr) in acc.iter().enumerate() {
        out[(r0 + r4) * n + jb..(r0 + r4) * n + jb + 8].copy_from_slice(accr);
    }
}

/// The inner lanes of [`gemm_nt`]: one output row's 8-column
/// accumulator block advanced through one packed p-tile.
fn gemm_row_nt_packed(
    acc_slice: &mut [f32],
    a_row: &[f32],
    pack: &[f32],
    pb: usize,
    pe: usize,
    dense: bool,
) {
    // A fixed-size register block: LLVM keeps it in one vector register
    // instead of re-loading the output slice every contraction step.
    let mut acc = [0f32; 8];
    acc.copy_from_slice(&acc_slice[..8]);
    if dense {
        for (p, lane) in (pb..pe).zip(pack.chunks_exact(8)) {
            let av = a_row[p];
            for (o, &bv) in acc.iter_mut().zip(lane) {
                *o += av * bv;
            }
        }
    } else {
        for (p, lane) in (pb..pe).zip(pack.chunks_exact(8)) {
            let av = a_row[p];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(lane) {
                *o += av * bv;
            }
        }
    }
    acc_slice[..8].copy_from_slice(&acc);
}

/// Leftover `a·bᵀ` columns (`n % 8`) as sequential dot products — `p`
/// ascending per output with the same sparse zero-skip, bit-identical to
/// the packed lanes.
fn gemm_row_nt_tail(o_row: &mut [f32], a_row: &[f32], b: &[f32], k: usize, j0: usize, dense: bool) {
    for (jj, o) in (j0..).zip(o_row[j0..].iter_mut()) {
        let b_row = &b[jj * k..(jj + 1) * k];
        let mut acc = 0f32;
        for (&av, &bv) in a_row.iter().zip(b_row) {
            if !dense && av == 0.0 {
                continue;
            }
            acc += av * bv;
        }
        *o = acc;
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
    /// adding `a·b` in ascending `p`, over the materialised operands. For a
    /// dense *and* a sparse lhs (both probe branches; the sparse path's
    /// zero-skips must match the reference's `±0.0` adds), at odd dims
    /// (lane and row tails) and at a paper-sized shape; the unsupported `tt`
    /// layout is a typed error.
    #[test]
    fn gemm_layout_flags_match_materialized_transpose_bitwise() {
        let fill = |seed: u32, r: usize, c: usize, sparse: bool| -> Tensor {
            let mut state = seed;
            let data = (0..r * c)
                .map(|_| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    let v = (state >> 8) as f32 / (1 << 24) as f32 - 0.5;
                    if sparse && !state.is_multiple_of(4) {
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
        for (m, k, n) in [(13, 37, 21), (64, 128, 64)] {
            for sparse in [false, true] {
                let a_nat = fill(7, m, k, sparse); // m×k, natural lhs
                let a_t = a_nat.transpose().unwrap(); // k×m, lhs for ta=true
                let b_nat = fill(11, k, n, false); // k×n
                let b_t = b_nat.transpose().unwrap(); // n×k, rhs for tb=true
                assert_eq!(lhs_is_dense(a_nat.data()), !sparse);
                assert_eq!(lhs_is_dense(a_t.data()), !sparse);
                let want = reference(&a_nat, &b_nat);
                let cases = [
                    ("nn", a_nat.matmul_layout(&b_nat, false, false)),
                    ("nt", a_nat.matmul_layout(&b_t, false, true)),
                    ("tn", a_t.matmul_layout(&b_nat, true, false)),
                ];
                let tt = a_t.matmul_layout(&b_t, true, true);
                assert!(
                    matches!(tt, Err(Error::InvalidArgument(_))),
                    "the tt layout must be refused, got {tt:?}"
                );
                for (layout, got) in cases {
                    let got: Vec<u32> = got.unwrap().data().iter().map(|v| v.to_bits()).collect();
                    assert!(
                        got == want,
                        "{layout} at {m}×{k}×{n} (sparse={sparse}) diverged from the reference"
                    );
                }
            }
        }
    }
}
