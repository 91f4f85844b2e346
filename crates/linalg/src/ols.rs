//! Ordinary least squares through the SVD pseudo-inverse.

use crate::matrix::Matrix;
use crate::svd::{Svd, SvdWorkspace};

/// Caller-owned working memory of the least-squares solve — the SVD
/// workspace, the projection `U^T y` and the coefficients — so a predictor
/// that refits every bin allocates nothing once it has seen its widest
/// design matrix.
///
/// A solve is a decomposition of the design followed by a projection of the
/// response onto it. [`OlsWorkspace::solve`] makes both;
/// [`OlsWorkspace::solve_decomposed`] makes only the projection, against a
/// decomposition computed elsewhere — e.g. once for every response regressed
/// on the same design. Both run the one projection below, so a response gets
/// the same coefficients, bit for bit, whichever way its design was
/// decomposed.
#[derive(Debug, Default)]
pub struct OlsWorkspace {
    svd: SvdWorkspace,
    /// `U^T y`, then scaled in place to `diag(1/s) U^T y`.
    projection: Vec<f64>,
    coefficients: Vec<f64>,
}

impl OlsWorkspace {
    /// Solves `min_b ||y - X b||²` through the SVD pseudo-inverse and
    /// returns the effective rank of `x`; the coefficients stay readable
    /// until the next call.
    ///
    /// Singular values below `rcond * max_singular_value` are treated as
    /// zero, so collinear predictors (which violate the paper's
    /// no-multicollinearity assumption but do occur under anomalous traffic,
    /// e.g. packets ≈ flows during a SYN flood) yield the minimum-norm
    /// solution instead of blowing up.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the number of rows of `x`.
    pub fn solve(&mut self, x: &Matrix, y: &[f64], rcond: f64) -> usize {
        assert_eq!(x.rows(), y.len(), "observation count mismatch");
        let Self { svd, projection, coefficients } = self;
        project(svd.decompose(x), y, rcond, projection, coefficients)
    }

    /// [`OlsWorkspace::solve`] against `svd`, the decomposition of the
    /// design matrix ([`SvdWorkspace::decompose`]): the projection only.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the number of rows of the design.
    pub fn solve_decomposed(&mut self, svd: &Svd, y: &[f64], rcond: f64) -> usize {
        project(svd, y, rcond, &mut self.projection, &mut self.coefficients)
    }

    /// Coefficients of the last fit, one per column of its design matrix.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Predicts the response for one observation from the last fit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of coefficients.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "predictor count mismatch");
        x.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum()
    }
}

/// `b = V * diag(1/s) * U^T * y`, zeroing the singular values at or below
/// `rcond` times the largest; returns how many were kept (the rank).
fn project(
    svd: &Svd,
    y: &[f64],
    rcond: f64,
    projection: &mut Vec<f64>,
    coefficients: &mut Vec<f64>,
) -> usize {
    let Svd { u, singular_values, v } = svd;
    let max_sv = singular_values.first().copied().unwrap_or(0.0);
    let threshold = max_sv * rcond.max(f64::EPSILON);

    u.tr_mul_vec_into(y, projection);
    let mut rank = 0usize;
    for (projected, &s) in projection.iter_mut().zip(singular_values) {
        if s > threshold && s > 0.0 {
            *projected /= s;
            rank += 1;
        } else {
            *projected = 0.0;
        }
    }
    v.mul_vec_into(projection, coefficients);
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fits on a fresh workspace; returns it with the rank.
    fn fit(x: &Matrix, y: &[f64], rcond: f64) -> (OlsWorkspace, usize) {
        let mut workspace = OlsWorkspace::default();
        let rank = workspace.solve(x, y, rcond);
        (workspace, rank)
    }

    /// Residual and total sums of squares of the workspace's last fit.
    fn sums_of_squares(workspace: &OlsWorkspace, x: &Matrix, y: &[f64]) -> (f64, f64) {
        let predictions = x.mul_vec(workspace.coefficients());
        let rss = predictions.iter().zip(y).map(|(p, t)| (p - t) * (p - t)).sum();
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        let tss = y.iter().map(|v| (v - mean_y) * (v - mean_y)).sum();
        (rss, tss)
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        // y = 2 + 3*x1 - 0.5*x2 with an intercept column of ones.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let x1: f64 = rng.gen_range(0.0..10.0);
            let x2: f64 = rng.gen_range(0.0..10.0);
            rows.push(vec![1.0, x1, x2]);
            y.push(2.0 + 3.0 * x1 - 0.5 * x2);
        }
        let x = Matrix::from_rows(&rows);
        let (workspace, rank) = fit(&x, &y, 1e-10);
        let coefficients = workspace.coefficients();
        assert!((coefficients[0] - 2.0).abs() < 1e-8);
        assert!((coefficients[1] - 3.0).abs() < 1e-8);
        assert!((coefficients[2] + 0.5).abs() < 1e-8);
        let (rss, tss) = sums_of_squares(&workspace, &x, &y);
        assert!(1.0 - rss / tss > 0.999_999);
        assert_eq!(rank, 3);
    }

    #[test]
    fn noisy_fit_has_reasonable_r_squared() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let x1: f64 = rng.gen_range(0.0..100.0);
            rows.push(vec![1.0, x1]);
            y.push(5.0 + 2.0 * x1 + rng.gen_range(-1.0..1.0));
        }
        let x = Matrix::from_rows(&rows);
        let (workspace, _) = fit(&x, &y, 1e-10);
        assert!((workspace.coefficients()[1] - 2.0).abs() < 0.05);
        let (rss, tss) = sums_of_squares(&workspace, &x, &y);
        assert!(1.0 - rss / tss > 0.99);
    }

    #[test]
    fn collinear_predictors_do_not_explode() {
        // Second and third columns are identical: the pseudo-inverse should
        // spread the weight rather than produce huge opposite coefficients.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let x = i as f64;
            rows.push(vec![1.0, x, x]);
            y.push(1.0 + 4.0 * x);
        }
        let (workspace, rank) = fit(&Matrix::from_rows(&rows), &y, 1e-9);
        assert_eq!(rank, 2);
        for c in workspace.coefficients() {
            assert!(c.abs() < 10.0, "coefficient blew up: {c}");
        }
        // Predictions must still be accurate.
        assert!((workspace.predict(&[1.0, 10.0, 10.0]) - 41.0).abs() < 1e-6);
    }

    #[test]
    fn underdetermined_system_yields_minimum_norm_solution() {
        // Two observations, three predictors.
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let y = vec![14.0, 32.0];
        let (workspace, _) = fit(&x, &y, 1e-12);
        // The system is consistent; residuals should be ~0.
        assert!(sums_of_squares(&workspace, &x, &y).0 < 1e-16);
    }

    #[test]
    fn a_reused_workspace_equals_a_fresh_solve() {
        // Tall, underdetermined, then tall again through one workspace:
        // stale buffers of another shape must not leak into the next fit.
        let problems = [
            (
                Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 5.0]]),
                vec![1.0, 2.0, 2.5],
            ),
            (Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]), vec![14.0, 32.0]),
            (
                Matrix::from_rows(&[vec![1.0, 7.0], vec![1.0, 7.0], vec![1.0, 7.0]]),
                vec![3.0, 4.0, 5.0],
            ),
        ];
        let mut workspace = OlsWorkspace::default();
        for (x, y) in &problems {
            let (fresh, fresh_rank) = fit(x, y, 1e-9);
            let rank = workspace.solve(x, y, 1e-9);
            assert_eq!(rank, fresh_rank);
            assert_eq!(workspace.coefficients(), fresh.coefficients());
            let probe = vec![1.5; x.cols()];
            assert_eq!(workspace.predict(&probe).to_bits(), fresh.predict(&probe).to_bits());
        }
    }

    #[test]
    fn a_shared_decomposition_solves_every_response_as_a_private_one_does() {
        // One design, decomposed once, against responses solved privately:
        // the projection is the same code, so the coefficients are the same
        // bits — including on a rank-deficient design (copied column).
        let x = Matrix::from_rows(&[
            vec![1.0, 2.0, 2.0],
            vec![1.0, 3.0, 3.0],
            vec![1.0, 5.0, 5.0],
            vec![1.0, 7.0, 7.0],
        ]);
        let mut decomposition = SvdWorkspace::default();
        let svd = decomposition.decompose(&x);
        let mut shared = OlsWorkspace::default();
        for y in [[1.0, 2.0, 2.5, 4.0], [10.0, 0.0, -3.0, 8.0], [5.0; 4]] {
            let (private, private_rank) = fit(&x, &y, 1e-9);
            assert_eq!(shared.solve_decomposed(svd, &y, 1e-9), private_rank);
            assert_eq!(private_rank, 2);
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(shared.coefficients()), bits(private.coefficients()));
        }
    }

    #[test]
    fn constant_response_is_fitted_exactly() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![5.0, 5.0, 5.0];
        let (workspace, _) = fit(&x, &y, 1e-12);
        assert!((workspace.coefficients()[0] - 5.0).abs() < 1e-9);
        assert!(sums_of_squares(&workspace, &x, &y).0 < 1e-16);
    }
}
