//! Ordinary least squares through the SVD pseudo-inverse.

use crate::matrix::Matrix;
use crate::svd::{Svd, SvdWorkspace};

/// Result of a least-squares fit `y ≈ X b`.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Estimated coefficients, one per column of the design matrix.
    pub coefficients: Vec<f64>,
    /// Residual sum of squares.
    pub residual_sum_of_squares: f64,
    /// Coefficient of determination (R²); 1.0 when the response is constant
    /// and perfectly fitted.
    pub r_squared: f64,
    /// Effective rank of the design matrix.
    pub rank: usize,
}

impl OlsFit {
    /// Predicts the response for one observation (row of predictor values).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the number of coefficients.
    pub fn predict(&self, x: &[f64]) -> f64 {
        predict_row(&self.coefficients, x)
    }
}

fn predict_row(coefficients: &[f64], x: &[f64]) -> f64 {
    assert_eq!(x.len(), coefficients.len(), "predictor count mismatch");
    x.iter().zip(coefficients).map(|(a, b)| a * b).sum()
}

/// Solves `min_b ||y - X b||²` using the SVD pseudo-inverse.
///
/// Singular values below `rcond * max_singular_value` are treated as zero, so
/// collinear predictors (which violate the paper's no-multicollinearity
/// assumption but do occur under anomalous traffic, e.g. packets ≈ flows
/// during a SYN flood) yield the minimum-norm solution instead of blowing up.
///
/// This is [`OlsWorkspace::solve`] on a fresh workspace plus the fit
/// statistics; a caller that solves every bin and reads only the
/// coefficients keeps the workspace instead.
///
/// # Panics
///
/// Panics if `y.len()` differs from the number of rows of `x`.
pub fn ols_solve(x: &Matrix, y: &[f64], rcond: f64) -> OlsFit {
    let mut workspace = OlsWorkspace::default();
    let rank = workspace.solve(x, y, rcond);
    let coefficients = workspace.coefficients;

    let predictions = x.mul_vec(&coefficients);
    let rss: f64 = predictions.iter().zip(y).map(|(p, t)| (p - t) * (p - t)).sum();
    let mean_y = y.iter().sum::<f64>() / y.len().max(1) as f64;
    let tss: f64 = y.iter().map(|v| (v - mean_y) * (v - mean_y)).sum();
    let r_squared = if tss > 0.0 { 1.0 - rss / tss } else { 1.0 };

    OlsFit { coefficients, residual_sum_of_squares: rss, r_squared, rank }
}

/// Caller-owned working memory of the least-squares solve — the SVD
/// workspace, the projection `U^T y` and the coefficients — so a predictor
/// that refits every bin allocates nothing once it has seen its widest
/// design matrix.
#[derive(Debug, Default)]
pub struct OlsWorkspace {
    svd: SvdWorkspace,
    /// `U^T y`, then scaled in place to `diag(1/s) U^T y`.
    projection: Vec<f64>,
    coefficients: Vec<f64>,
}

impl OlsWorkspace {
    /// Fits `y ≈ X b` and returns the effective rank of `x`; the
    /// coefficients stay readable until the next call. Bit-identical to
    /// [`ols_solve`].
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the number of rows of `x`.
    pub fn solve(&mut self, x: &Matrix, y: &[f64], rcond: f64) -> usize {
        assert_eq!(x.rows(), y.len(), "observation count mismatch");
        let Svd { u, singular_values, v } = self.svd.decompose(x);
        let max_sv = singular_values.first().copied().unwrap_or(0.0);
        let threshold = max_sv * rcond.max(f64::EPSILON);

        // b = V * diag(1/s) * U^T * y, zeroing the small singular values.
        u.tr_mul_vec_into(y, &mut self.projection);
        let mut rank = 0usize;
        for (projected, &s) in self.projection.iter_mut().zip(singular_values) {
            if s > threshold && s > 0.0 {
                *projected /= s;
                rank += 1;
            } else {
                *projected = 0.0;
            }
        }
        v.mul_vec_into(&self.projection, &mut self.coefficients);
        rank
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
        predict_row(&self.coefficients, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let fit = ols_solve(&x, &y, 1e-10);
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-8);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-8);
        assert!((fit.coefficients[2] + 0.5).abs() < 1e-8);
        assert!(fit.r_squared > 0.999_999);
        assert_eq!(fit.rank, 3);
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
        let fit = ols_solve(&Matrix::from_rows(&rows), &y, 1e-10);
        assert!((fit.coefficients[1] - 2.0).abs() < 0.05);
        assert!(fit.r_squared > 0.99);
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
        let fit = ols_solve(&Matrix::from_rows(&rows), &y, 1e-9);
        assert_eq!(fit.rank, 2);
        for c in &fit.coefficients {
            assert!(c.abs() < 10.0, "coefficient blew up: {c}");
        }
        // Predictions must still be accurate.
        assert!((fit.predict(&[1.0, 10.0, 10.0]) - 41.0).abs() < 1e-6);
    }

    #[test]
    fn underdetermined_system_yields_minimum_norm_solution() {
        // Two observations, three predictors.
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let y = vec![14.0, 32.0];
        let fit = ols_solve(&x, &y, 1e-12);
        // The system is consistent; residuals should be ~0.
        assert!(fit.residual_sum_of_squares < 1e-16);
    }

    #[test]
    fn a_reused_workspace_equals_a_fresh_solve() {
        // Tall, underdetermined, then tall again through one workspace.
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
            let fresh = ols_solve(x, y, 1e-9);
            let rank = workspace.solve(x, y, 1e-9);
            assert_eq!(rank, fresh.rank);
            assert_eq!(workspace.coefficients(), &fresh.coefficients[..]);
            let probe = vec![1.5; x.cols()];
            assert_eq!(workspace.predict(&probe).to_bits(), fresh.predict(&probe).to_bits());
        }
    }

    #[test]
    fn constant_response_gives_unit_r_squared() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![5.0, 5.0, 5.0];
        let fit = ols_solve(&x, &y, 1e-12);
        assert!((fit.coefficients[0] - 5.0).abs() < 1e-9);
        assert_eq!(fit.r_squared, 1.0);
    }
}
