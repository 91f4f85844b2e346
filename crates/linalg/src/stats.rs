//! Statistics helpers shared by the predictors and the experiment harness.

/// Arithmetic mean of a slice (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a slice (0 for fewer than two values).
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
pub fn stdev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Returns the `p`-th percentile (0..=100) of the values using linear
/// interpolation between order statistics. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Maximum of a slice (0 for an empty slice).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max).max(0.0)
}

/// An exponentially weighted moving average with weight `alpha` given to the
/// newest observation, as used throughout the load shedding algorithm
/// (prediction error and shedding-overhead smoothing) and as the EWMA
/// baseline predictor.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with the given weight for new observations.
    pub fn new(alpha: f64) -> Self {
        Self { alpha: alpha.clamp(0.0, 1.0), value: None }
    }

    /// Current smoothed value (0 before any observation).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Returns `true` if at least one observation has been folded in.
    pub fn is_initialised(&self) -> bool {
        self.value.is_some()
    }

    /// Folds in a new observation and returns the updated value.
    pub fn update(&mut self, observation: f64) -> f64 {
        let next = match self.value {
            None => observation,
            Some(previous) => self.alpha * observation + (1.0 - self.alpha) * previous,
        };
        self.value = Some(next);
        next
    }

    /// Resets the average to the uninitialised state.
    pub fn reset(&mut self) {
        self.value = None;
    }

    /// The raw smoothed value, `None` before any observation. Used for
    /// checkpointing; pair with [`Ewma::restore`].
    pub fn state(&self) -> Option<f64> {
        self.value
    }

    /// Restores a value captured by [`Ewma::state`]; the weight is kept.
    pub fn restore(&mut self, value: Option<f64>) {
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&values) - 5.0).abs() < 1e-12);
        assert!((variance(&values) - 4.0).abs() < 1e-12);
        assert!((stdev(&values) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        assert!((percentile(&values, 95.0) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        assert!(!e.is_initialised());
        for _ in 0..100 {
            e.update(10.0);
        }
        assert!((e.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_observation_initialises_directly() {
        let mut e = Ewma::new(0.1);
        e.update(4.0);
        assert_eq!(e.value(), 4.0);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }
}
