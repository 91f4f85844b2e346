//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The prediction subsystem solves its least-squares problems through the
//! SVD, "able to obtain the best approximation, in the least-squares sense,
//! in the case of an over- or under-determined system" (Section 3.2.2). The
//! matrices involved are tiny (at most a few hundred rows and a few dozen
//! columns), so the one-sided Jacobi method — simple, numerically robust and
//! free of external dependencies — is a good fit.

use crate::matrix::{dot, Matrix};

/// Result of a thin singular value decomposition `A = U * diag(s) * V^T`.
#[derive(Debug, Clone, Default)]
pub struct Svd {
    /// Left singular vectors, `rows x k` where `k = min(rows, cols)`.
    pub u: Matrix,
    /// Singular values in non-increasing order, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `cols x k`.
    pub v: Matrix,
}

impl Svd {
    /// Effective numerical rank with respect to a relative tolerance.
    pub fn rank(&self, relative_tolerance: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        if max <= 0.0 {
            return 0;
        }
        self.singular_values.iter().filter(|&&s| s > max * relative_tolerance).count()
    }

    /// Reconstructs the original matrix (used by the tests).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut scaled = self.u.clone();
        for j in 0..k {
            let s = self.singular_values[j];
            for value in scaled.column_mut(j) {
                *value *= s;
            }
        }
        scaled.mul(&self.v.transpose())
    }
}

/// Caller-owned working memory of the Jacobi kernel, and the decomposition
/// it last produced. Every buffer is resized in place, so a workspace that
/// has seen a shape once decomposes that shape again without allocating.
#[derive(Debug, Default)]
pub struct SvdWorkspace {
    /// Copy of the input (of its transpose, for a wide input) whose columns
    /// the sweeps rotate until they are mutually orthogonal.
    w: Matrix,
    /// The accumulated rotations.
    rotations: Matrix,
    /// Column norms of the rotated `w`: the singular values, unsorted.
    norms: Vec<f64>,
    /// Column indices by non-increasing norm.
    order: Vec<usize>,
    svd: Svd,
}

impl SvdWorkspace {
    /// Computes the thin SVD of `a` using the one-sided Jacobi method and
    /// returns the result, which stays readable until the next call.
    ///
    /// For matrices with more columns than rows the decomposition is
    /// computed on the transpose and the factors are swapped, so callers may
    /// pass any shape.
    pub fn decompose(&mut self, a: &Matrix) -> &Svd {
        let Self { w, rotations, norms, order, svd } = self;
        let wide = a.cols() > a.rows();
        if wide {
            a.transpose_into(w);
        } else {
            w.copy_from(a);
        }
        let rows = w.rows();
        let cols = w.cols();
        rotations.set_identity(cols);

        let eps = 1e-12;
        let max_sweeps = 60;
        for _ in 0..max_sweeps {
            let mut off_diagonal = 0.0f64;
            for p in 0..cols {
                for q in (p + 1)..cols {
                    let (cp, cq) = w.column_pair_mut(p, q);
                    // The three dot products of the pair in one walk. Each
                    // accumulator starts where `dot` (`Iterator::sum`) does
                    // and adds the same products in the same order.
                    let (mut alpha, mut beta, mut gamma) = (-0.0, -0.0, -0.0);
                    for (x, y) in cp.iter().zip(cq.iter()) {
                        alpha += x * x;
                        beta += y * y;
                        gamma += x * y;
                    }
                    if alpha * beta > 0.0 {
                        off_diagonal = off_diagonal.max(gamma.abs() / (alpha * beta).sqrt());
                    }
                    if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                        continue;
                    }
                    // Jacobi rotation that zeroes the (p, q) entry of W^T W.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate(cp, cq, c, s);
                    let (vp, vq) = rotations.column_pair_mut(p, q);
                    rotate(vp, vq, c, s);
                }
            }
            if off_diagonal < eps {
                break;
            }
        }

        // Singular values are the column norms of the rotated matrix.
        norms.clear();
        norms.extend((0..cols).map(|j| dot(w.column(j), w.column(j)).sqrt()));
        order.clear();
        order.extend(0..cols);
        order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

        // The normalised rotated columns are the left factor and the
        // rotations the right one, both in singular-value order; a wide
        // input was decomposed as its transpose, so there the two swap.
        let Svd { u, singular_values, v } = svd;
        let (left, right) = if wide { (v, u) } else { (u, v) };
        left.reshape_zeroed(rows, cols);
        right.reshape_zeroed(cols, cols);
        singular_values.clear();
        for (dst, &src) in order.iter().enumerate() {
            let norm = norms[src];
            singular_values.push(norm);
            if norm > 0.0 {
                for (out, value) in left.column_mut(dst).iter_mut().zip(w.column(src)) {
                    *out = value / norm;
                }
            }
            right.column_mut(dst).copy_from_slice(rotations.column(src));
        }
        svd
    }

    /// The decomposition the last [`SvdWorkspace::decompose`] produced (an
    /// empty one before the first).
    pub fn decomposition(&self) -> &Svd {
        &self.svd
    }
}

/// Applies the plane rotation `[c, s; -s, c]` to a pair of columns.
fn rotate(column_p: &mut [f64], column_q: &mut [f64], c: f64, s: f64) {
    for (p, q) in column_p.iter_mut().zip(column_q) {
        let (vp, vq) = (*p, *q);
        *p = c * vp - s * vq;
        *q = s * vp + c * vq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decomposes on a fresh workspace.
    fn svd(a: &Matrix) -> Svd {
        SvdWorkspace::default().decompose(a).clone()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn reconstruction_of_small_matrix() {
        let a = Matrix::from_rows(&[
            vec![3.0, 2.0, 2.0],
            vec![2.0, 3.0, -2.0],
            vec![1.0, 0.0, 4.0],
            vec![0.0, 1.0, 1.0],
        ]);
        let decomposition = svd(&a);
        assert_close(&decomposition.reconstruct(), &a, 1e-8);
        // Singular values sorted in non-increasing order.
        let s = &decomposition.singular_values;
        assert!(s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn wide_matrix_is_handled_by_transposition() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]);
        let decomposition = svd(&a);
        assert_close(&decomposition.reconstruct(), &a, 1e-8);
    }

    #[test]
    fn rank_deficient_matrix_has_small_trailing_singular_values() {
        // Third column is the sum of the first two: rank 2.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 1.0, 2.0],
            vec![2.0, 1.0, 3.0],
        ]);
        let decomposition = svd(&a);
        assert_eq!(decomposition.rank(1e-9), 2);
    }

    #[test]
    fn identity_has_unit_singular_values() {
        let decomposition = svd(&Matrix::identity(5));
        for s in &decomposition.singular_values {
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn a_reused_workspace_equals_a_fresh_decomposition() {
        // Tall, wide, then tall again: stale buffers of another shape must
        // not leak into the next result.
        let shapes = [
            Matrix::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0], vec![0.0, 5.0]]),
            Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]),
            Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0], vec![1.0, 1.0, 2.0]]),
        ];
        let mut workspace = SvdWorkspace::default();
        for a in &shapes {
            let fresh = svd(a);
            let reused = workspace.decompose(a);
            assert_eq!(reused.u, fresh.u);
            assert_eq!(reused.v, fresh.v);
            assert_eq!(reused.singular_values, fresh.singular_values);
        }
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![2.0, 3.0], vec![0.0, 5.0]]);
        let d = svd(&a);
        let vtv = d.v.transpose().mul(&d.v);
        assert_close(&vtv, &Matrix::identity(2), 1e-9);
        let utu = d.u.transpose().mul(&d.u);
        assert_close(&utu, &Matrix::identity(2), 1e-9);
    }
}
