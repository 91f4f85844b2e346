//! Prediction error bookkeeping.

use netshed_linalg::stats::{max, mean, percentile, stdev};

/// Accumulates relative prediction errors and reports the summary statistics
/// used throughout the paper's evaluation (mean, standard deviation, maximum
/// and 95th percentile — e.g. Figures 3.7, 3.12 and Tables 3.2, 3.3).
#[derive(Debug, Clone, Default)]
pub struct ErrorStats {
    errors: Vec<f64>,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prediction/actual pair.
    ///
    /// The relative error is `|1 - predicted / actual|`; when the actual
    /// value is zero the pair is skipped, mirroring the paper's treatment of
    /// empty batches.
    pub fn record(&mut self, predicted: f64, actual: f64) {
        if actual.abs() < f64::EPSILON {
            return;
        }
        self.errors.push((1.0 - predicted / actual).abs());
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Mean relative error.
    pub fn mean(&self) -> f64 {
        mean(&self.errors)
    }

    /// Standard deviation of the relative error.
    pub fn stdev(&self) -> f64 {
        stdev(&self.errors)
    }

    /// Maximum relative error.
    pub fn max(&self) -> f64 {
        max(&self.errors)
    }

    /// Percentile of the relative error (e.g. 95.0 for the 95th percentile).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.errors, p)
    }

    /// All recorded errors, in insertion order (one per batch).
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.errors.extend_from_slice(&other.errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_computes_relative_error() {
        let mut stats = ErrorStats::new();
        stats.record(90.0, 100.0);
        stats.record(110.0, 100.0);
        assert_eq!(stats.len(), 2);
        assert!((stats.mean() - 0.1).abs() < 1e-12);
        assert!((stats.max() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_is_skipped() {
        let mut stats = ErrorStats::new();
        stats.record(5.0, 0.0);
        assert!(stats.is_empty());
    }

    #[test]
    fn percentile_and_merge() {
        let mut a = ErrorStats::new();
        let mut b = ErrorStats::new();
        for i in 1..=50 {
            // A prediction of `1 - e` against an actual 1 records error `e`.
            a.record(1.0 - i as f64 / 100.0, 1.0);
            b.record(0.5 - i as f64 / 100.0, 1.0);
        }
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert!(a.percentile(95.0) > 0.9);
        assert!(a.percentile(5.0) < 0.1);
    }
}
