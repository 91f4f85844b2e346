//! A minimal column-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major `f64` matrix.
///
/// Column-major storage matches the access pattern of the Jacobi SVD (which
/// orthogonalises column pairs) and of least-squares design matrices where
/// each column is one predictor's history.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix of the given size (a test reference).
    #[cfg(test)]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::default();
        m.set_identity(n);
        m
    }

    /// Resizes the matrix in place to `rows x cols`, reusing the backing
    /// allocation when it is large enough, and fills it with zeros.
    ///
    /// This is the allocation-reusing sibling of [`Matrix::zeros`] for hot
    /// paths that rebuild a matrix of similar shape every iteration (e.g. a
    /// sliding-window regression design matrix).
    pub fn reshape_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a copy of `other`, reusing the backing allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Makes `self` the `n x n` identity, reusing the backing allocation.
    pub fn set_identity(&mut self, n: usize) {
        self.reshape_zeroed(n, n);
        for i in 0..n {
            self[(i, i)] = 1.0;
        }
    }

    /// Creates a matrix from a row-major nested slice (convenient in tests).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    // lint:allow(unreached-pub): test fixtures build matrices with it, in this crate and in `tests/`
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Builds a matrix column by column.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        let ncols = columns.len();
        let nrows = columns.first().map_or(0, Vec::len);
        let mut m = Self::zeros(nrows, ncols);
        for (j, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), nrows, "inconsistent column lengths");
            m.column_mut(j).copy_from_slice(col);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the column `j` as a slice.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Returns the column `j` as a mutable slice.
    pub fn column_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Returns columns `p` and `q` (`p < q`) as two disjoint mutable slices,
    /// so a plane rotation can walk both without a bounds check per element.
    ///
    /// # Panics
    ///
    /// Panics unless `p < q < self.cols()`.
    pub fn column_pair_mut(&mut self, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
        assert!(p < q && q < self.cols, "column pair out of order or out of range");
        let (head, tail) = self.data.split_at_mut(q * self.rows);
        (&mut head[p * self.rows..(p + 1) * self.rows], &mut tail[..self.rows])
    }

    /// Matrix-vector product `self * x` (a test reference).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[cfg(test)]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix-vector product `self * x` into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        out.clear();
        out.resize(self.rows, 0.0);
        for (j, &xj) in x.iter().enumerate() {
            let col = self.column(j);
            for (o, &c) in out.iter_mut().zip(col) {
                *o += c * xj;
            }
        }
    }

    /// Transposed matrix-vector product `self^T * y` into a caller-owned
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.rows()`.
    pub fn tr_mul_vec_into(&self, y: &[f64], out: &mut Vec<f64>) {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        out.clear();
        out.extend((0..self.cols).map(|j| dot(self.column(j), y)));
    }

    /// Matrix-matrix product `self * other` (a test reference).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    #[cfg(test)]
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            let col = self.mul_vec(other.column(j));
            out.column_mut(j).copy_from_slice(&col);
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out`, reusing its backing allocation.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape_zeroed(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                out[(j, i)] = self[(i, j)];
            }
        }
    }
}

/// Dot product of two equally long slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let m = Matrix::identity(3);
        assert_eq!(m.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.column(0), &[1.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matrix_product_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.mul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn column_pair_mut_yields_the_two_columns() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let (first, last) = m.column_pair_mut(0, 2);
        assert_eq!((&*first, &*last), (&[1.0, 4.0][..], &[3.0, 6.0][..]));
        first[1] = -4.0;
        last[0] = -3.0;
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 2.0, -3.0], vec![-4.0, 5.0, 6.0]]));
    }

    #[test]
    fn in_place_constructors_reuse_a_dirty_buffer() {
        let mut m = Matrix::from_rows(&vec![vec![9.0; 4]; 4]);
        m.set_identity(3);
        assert_eq!(m, Matrix::identity(3));
        let source = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        m.copy_from(&source);
        assert_eq!(m, source);
        source.transpose_into(&mut m);
        assert_eq!(m, source.transpose());
    }

    #[test]
    fn tr_mul_vec_into_matches_transpose_mul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = vec![1.0, 1.0, 1.0];
        let mut product = vec![f64::NAN; 5];
        a.tr_mul_vec_into(&y, &mut product);
        assert_eq!(product, a.transpose().mul_vec(&y));
    }
}
