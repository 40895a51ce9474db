// sound: allow-file(L004): SHAPE-CHECKED-KERNEL-INDEX — accessors index `dims`
// only after rank checks.
//! Shape arithmetic for row-major tensors.

use crate::error::{Error, Result};
use std::fmt;

/// The dimensions of a [`crate::Tensor`], in row-major order.
///
/// Rank 0 (scalar) through rank 3 are used by the STGNN-DJD reproduction:
/// rank-2 `n×n` station matrices dominate, while rank-3 `(k, n, n)` stacks of
/// historical flow matrices appear at the flow-convolution input.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// A scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// A rank-1 shape of length `n`.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// A rank-2 shape with `rows × cols` elements.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape(vec![rows, cols])
    }

    /// Builds a shape from arbitrary dimensions.
    pub fn from_dims(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count (1 for scalars).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// True when the shape holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows of a rank-2 shape.
    ///
    /// # Panics
    /// Panics if the shape is not rank 2; matrix accessors are only called on
    /// values already validated by the constructing op.
    pub fn rows(&self) -> usize {
        assert_eq!(self.rank(), 2, "rows() on non-matrix shape {self}");
        self.0[0]
    }

    /// Number of columns of a rank-2 shape.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank(), 2, "cols() on non-matrix shape {self}");
        self.0[1]
    }

    /// Validates this shape is rank 2 and returns `(rows, cols)`.
    pub fn as_matrix(&self, op: &'static str) -> Result<(usize, usize)> {
        if self.rank() == 2 {
            Ok((self.0[0], self.0[1]))
        } else {
            Err(Error::rank_mismatch(op, 2, self))
        }
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics (in debug builds) when the index is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch for {self}");
        let mut off = 0;
        let strides = self.strides();
        for (i, (&ix, &stride)) in index.iter().zip(&strides).enumerate() {
            debug_assert!(ix < self.0[i], "index {index:?} out of bounds for {self}");
            off += ix * stride;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_len() {
        assert_eq!(Shape::scalar().len(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
        assert_eq!(Shape::vector(5).len(), 5);
        assert_eq!(Shape::matrix(3, 4).len(), 12);
        assert_eq!(Shape::from_dims(&[2, 3, 4]).len(), 24);
    }

    #[test]
    fn empty_shape() {
        assert!(Shape::matrix(0, 4).is_empty());
        assert!(!Shape::matrix(1, 4).is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::from_dims(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::matrix(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::vector(7).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_walks_row_major() {
        let s = Shape::matrix(3, 4);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 3]), 3);
        assert_eq!(s.offset(&[2, 1]), 9);
        let t = Shape::from_dims(&[2, 3, 4]);
        assert_eq!(t.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn as_matrix_rejects_wrong_rank() {
        assert!(Shape::vector(3).as_matrix("op").is_err());
        assert_eq!(Shape::matrix(2, 5).as_matrix("op").unwrap(), (2, 5));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Shape::matrix(2, 3).to_string(), "[2, 3]");
        assert_eq!(format!("{:?}", Shape::vector(4)), "Shape[4]");
    }
}
