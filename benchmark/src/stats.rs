//! Order statistics the benchmark reports: medians, nearest-rank percentiles
//! with a sample-count guard, and quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the rule the driver
//! applies to the spread of repeated runs).

/// How many samples must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median; the mean of the two middle values for an even count. Panics on an
/// empty slice (every caller measures at least once).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. Returns the value and how many samples lie beyond
/// it.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile level must be in (0, 1]");
    let sorted = sorted(values);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// [`percentile`], refused when fewer than [`MIN_SAMPLES_BEYOND`] samples lie
/// beyond the level: a tail percentile over too few bins is one bin's time,
/// not a percentile.
pub fn percentile_checked(values: &[f64], p: f64) -> Result<f64, String> {
    let (value, beyond) = percentile(values, p);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} over {} samples leaves {beyond} beyond it, need {MIN_SAMPLES_BEYOND}",
            p * 100.0,
            values.len()
        ));
    }
    Ok(value)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can push `j` past `i * m / 4`, and Python then
        // extrapolates with a negative (or > 4) weight.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the "spread" the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / median).abs()
}

/// Per-bin best over passes: `passes[p][b]` is bin `b`'s time in pass `p`.
/// The replay is deterministic, so bin `b` does the same work in every pass
/// and what differs between passes is interference from the host, which only
/// ever adds time. The fastest pass of a bin is therefore the least
/// contaminated reading of it — and a bin that is heavy is heavy in every
/// pass, so the minimum does not hide it.
pub fn per_bin_best(passes: &[Vec<f64>]) -> Vec<f64> {
    let bins = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..bins).map(|bin| passes.iter().map(|pass| pass[bin]).fold(f64::INFINITY, f64::min)).collect()
}

/// Smallest sample. Panics on an empty slice.
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.95), (190.0, 10));
        assert_eq!(percentile(&values, 0.5), (100.0, 100));
        assert_eq!(percentile(&values, 1.0), (200.0, 0));
        // Order of the input does not matter.
        let reversed: Vec<f64> = values.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.95), (190.0, 10));
    }

    #[test]
    fn p95_needs_two_hundred_bins() {
        let enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(percentile_checked(&enough, 0.95).is_ok());
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        let refusal = percentile_checked(&short, 0.95).unwrap_err();
        assert!(refusal.contains("199 samples"), "{refusal}");
        // p99 over 200 bins has only two samples beyond it.
        assert!(percentile_checked(&enough, 0.99).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4)
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) extrapolates past both ends.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn per_bin_best_takes_each_bin_across_passes() {
        let passes = vec![
            vec![10.0, 200.0, 30.0],
            vec![12.0, 210.0, 900.0], // a scheduler hiccup on bin 2
            vec![11.0, 190.0, 31.0],
        ];
        // The heavy bin 1 stays heavy; the hiccup on bin 2 is gone.
        assert_eq!(per_bin_best(&passes), vec![10.0, 190.0, 30.0]);
        // A short pass truncates the comparison instead of indexing past it.
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        assert_eq!(per_bin_best(&ragged), vec![1.0]);
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
    }
}
