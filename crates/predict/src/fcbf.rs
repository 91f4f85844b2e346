//! Fast Correlation-Based Filter feature selection.
//!
//! Section 3.2.3: the predictor must pick, out of the 42 extracted features,
//! the small subset that is (i) relevant to the query's CPU usage and (ii)
//! not redundant with an already selected feature. The paper adapts the FCBF
//! algorithm of Yu and Liu, replacing symmetrical uncertainty with the linear
//! (Pearson) correlation coefficient as the goodness measure:
//!
//! 1. **Relevance**: features whose |correlation| with the response is below
//!    the FCBF threshold are dropped.
//! 2. **Redundancy**: the surviving features are ranked by |correlation|;
//!    walking the list from the strongest predictor, any later feature that
//!    is more correlated with the current predictor than with the response is
//!    removed.

use crate::history::{History, RowRing};
use crate::window::FeatureWindow;
use netshed_features::FEATURE_COUNT;

/// Configuration of the FCBF feature selection.
#[derive(Debug, Clone, Copy)]
pub struct FcbfConfig {
    /// Minimum |correlation| with the response for a feature to be relevant.
    /// The paper settles on 0.6 as a good cost/accuracy trade-off.
    pub threshold: f64,
    /// Hard cap on the number of selected features (guards the MLR cost).
    pub max_features: usize,
}

impl Default for FcbfConfig {
    fn default() -> Self {
        Self { threshold: 0.6, max_features: 8 }
    }
}

/// Reusable working memory for [`fcbf_select_with`], and the selection it
/// last produced. One scratch lives per predictor, so a reselection
/// allocates nothing once the buffers have seen a full history.
#[derive(Debug, Default)]
pub struct FcbfScratch {
    /// The centred response `y[i] - mean(y)`, oldest observation first.
    centred_responses: Vec<f64>,
    /// |correlation| with the response, one per feature considered.
    relevance: Vec<f64>,
    /// Features that cleared the threshold, with their relevance.
    candidates: Vec<(usize, f64)>,
    /// Per kept feature, in keep order: the covariance sum of every column
    /// with that feature's column. Filled only by a selection that reads
    /// its own rows; a shared window keeps these for everyone.
    kept_covariances: Vec<[f64; FEATURE_COUNT]>,
    selected: Vec<usize>,
}

impl FcbfScratch {
    /// |correlation| with the response of each feature the last selection
    /// considered (empty when the history was too short to correlate).
    /// Exposed for the bit-identity tests only.
    #[doc(hidden)]
    pub fn relevance(&self) -> &[f64] {
        &self.relevance
    }
}

/// The feature side of every Pearson coefficient FCBF takes over a window
/// of rows: per column, the mean, the sum of squared deviations from it and
/// that sum's square root. None of it depends on a response.
#[derive(Debug)]
pub(crate) struct ColumnMoments {
    pub(crate) mean: [f64; FEATURE_COUNT],
    pub(crate) variance: [f64; FEATURE_COUNT],
    pub(crate) deviation: [f64; FEATURE_COUNT],
}

/// Every column's mean over `rows`, oldest row first. `-0.0` is where
/// `Iterator::sum` starts; against `0.0` it can only flip the sign of an
/// all-zero column's mean, which the squares taken of it discard.
#[allow(clippy::needless_range_loop)]
pub(crate) fn column_means(rows: &RowRing) -> [f64; FEATURE_COUNT] {
    let count = rows.len() as f64;
    let mut means = [0.0; FEATURE_COUNT];
    for (block, means) in means.chunks_exact_mut(SUM_LANES).enumerate() {
        let lanes = block * SUM_LANES..(block + 1) * SUM_LANES;
        let mut sum = [-0.0; SUM_LANES];
        for row in rows.iter() {
            let row = &row.as_array()[lanes.clone()];
            for j in 0..SUM_LANES {
                sum[j] += row[j];
            }
        }
        for (mean, total) in means.iter_mut().zip(sum) {
            *mean = total / count;
        }
    }
    means
}

/// How many columns a row pass sums at once when each carries one sum, and
/// when each carries two. Forty-two lanes of `f64` are 21 SSE2 registers,
/// more than there are, and where a 42-lane loop spills depends on what the
/// compiler inlined around it: a field added to the window's cache once made
/// the private selection ≈ 15 % slower. Fourteen sums (or six pairs) fit the
/// register file whatever surrounds the loop. A block changes no lane's
/// terms and no lane's order, so no bit moves.
pub(crate) const SUM_LANES: usize = 14;
const PAIR_LANES: usize = 6;
const _: () =
    assert!(FEATURE_COUNT.is_multiple_of(SUM_LANES) && FEATURE_COUNT.is_multiple_of(PAIR_LANES));

/// Selects predictor feature indices from the history using FCBF, into
/// caller-owned scratch.
///
/// Returns the indices (into the feature vector) of the selected features,
/// ordered from most to least correlated with the response, as a slice of
/// the scratch. The result may be empty if no feature clears the threshold;
/// callers are expected to fall back to a sensible default (the `packets`
/// feature) in that case.
///
/// The correlations are Pearson coefficients computed for all features at
/// once while walking the history's rows as they are stored, instead of one
/// gathered column at a time. Every feature is its own accumulator lane:
/// it starts from the value a one-column reduction starts from and adds the
/// same terms in the same oldest-to-newest order, so each coefficient is
/// bit-for-bit the one a column-at-a-time Pearson pass returns for that
/// column (`tests/oracle/` holds that pass, `tests/predict_plane.rs` the
/// comparison) — but the lanes are independent add chains the CPU overlaps (and
/// the compiler vectorises) where a single reduction waits on itself. That
/// holds only while no lane is reassociated: no `mul_add`, no pairwise or
/// chunked summation (the `fused-float` lint rule guards the first).
///
/// # Panics
///
/// Panics if `feature_count` exceeds [`FEATURE_COUNT`].
pub fn fcbf_select_with<'s>(
    history: &History,
    config: &FcbfConfig,
    feature_count: usize,
    scratch: &'s mut FcbfScratch,
) -> &'s [usize] {
    fcbf_select_in(history, None, config, feature_count, scratch)
}

/// [`fcbf_select_with`] for a history that may be
/// [aligned](History::aligned_with) with a shared `window`: when it is, the
/// feature-side moments — column means, variances and deviations, the
/// centred rows, the covariance row of each kept feature — are read from the
/// window, which computed them once for every aligned history; when it is
/// not (or there is no window), they are computed from the history's own
/// rows. Either way the selection body is this one function and every value
/// it compares is the result of the same IEEE operations on the same
/// operands in the same order: the window centres a row as `row[j] -
/// mean[j]` and this function multiplies the stored difference, where the
/// private pass multiplies the difference as it takes it.
///
/// # Panics
///
/// Panics if `feature_count` exceeds [`FEATURE_COUNT`].
// Each loop below indexes several lane arrays at once.
#[allow(clippy::needless_range_loop)]
pub fn fcbf_select_in<'s>(
    history: &History,
    window: Option<&FeatureWindow>,
    config: &FcbfConfig,
    feature_count: usize,
    scratch: &'s mut FcbfScratch,
) -> &'s [usize] {
    assert!(feature_count <= FEATURE_COUNT, "feature count exceeds the feature vector");
    let FcbfScratch { centred_responses, relevance, candidates, kept_covariances, selected } =
        scratch;
    relevance.clear();
    selected.clear();
    if history.len() < 2 {
        return selected;
    }
    let window = window.filter(|window| history.aligned_with(window));
    let count = history.len() as f64;

    // Pass 0: centre the response once (`-0.0` as in `column_means`).
    let mut response_sum = -0.0;
    for response in history.response_side() {
        response_sum += response;
    }
    let response_mean = response_sum / count;
    centred_responses.clear();
    let mut response_variance = 0.0;
    for response in history.response_side() {
        let db = response - response_mean;
        response_variance += db * db;
        centred_responses.push(db);
    }

    // Every column's covariance with the response, and its moments.
    let own;
    let (covariance, columns) = if let Some(window) = window {
        // The response side only: one pass over the window's centred rows.
        let moments = window.moments();
        (moments.covariance_with_response(centred_responses), &moments.columns)
    } else {
        // Both sides: pass 1 for the means, pass 2 for covariance and
        // variance together.
        let mean = column_means(history.rows());
        let mut covariance = [0.0; FEATURE_COUNT];
        let mut variance = [0.0; FEATURE_COUNT];
        for block in 0..FEATURE_COUNT / PAIR_LANES {
            let lanes = block * PAIR_LANES..(block + 1) * PAIR_LANES;
            let mean = &mean[lanes.clone()];
            let (mut with_response, mut squares) = ([0.0; PAIR_LANES], [0.0; PAIR_LANES]);
            for (features, db) in history.rows().iter().zip(centred_responses.iter()) {
                let row = &features.as_array()[lanes.clone()];
                for j in 0..PAIR_LANES {
                    let da = row[j] - mean[j];
                    with_response[j] += da * db;
                    squares[j] += da * da;
                }
            }
            covariance[lanes.clone()].copy_from_slice(&with_response);
            variance[lanes].copy_from_slice(&squares);
        }
        own = ColumnMoments { mean, variance, deviation: variance.map(f64::sqrt) };
        (covariance, &own)
    };
    let ColumnMoments { mean, variance, deviation } = columns;
    let response_deviation = response_variance.sqrt();

    // Phase 1: relevance.
    candidates.clear();
    for index in 0..feature_count {
        // A zero-variance series carries no linear information: correlation 0.
        let correlation = if variance[index] <= 0.0 || response_variance <= 0.0 {
            0.0
        } else {
            (covariance[index] / (deviation[index] * response_deviation)).abs()
        };
        relevance.push(correlation);
        // A column that overflowed the correlation arithmetic yields a NaN.
        // `NaN >= threshold` is false, but the guard is explicit: a
        // non-finite goodness score means "not a predictor", never a NaN row
        // in the design matrix.
        if correlation.is_finite() && correlation >= config.threshold {
            candidates.push((index, correlation));
        }
    }
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Phase 2: redundancy removal. A kept feature costs one more row pass —
    // its covariance with every column at once — made when the first later
    // candidate gets as far as being tested against it (and, against a
    // window, by the first aligned history of the bin to get there).
    kept_covariances.clear();
    'outer: for &(index, correlation) in candidates.iter() {
        for (position, &kept) in selected.iter().enumerate() {
            let with_kept = if let Some(window) = window {
                window.covariance_with(kept)
            } else {
                if position == kept_covariances.len() {
                    let mut with_kept = [0.0; FEATURE_COUNT];
                    for (block, with_kept) in with_kept.chunks_exact_mut(SUM_LANES).enumerate() {
                        let lanes = block * SUM_LANES..(block + 1) * SUM_LANES;
                        let mut sum = [0.0; SUM_LANES];
                        for features in history.rows().iter() {
                            let row = features.as_array();
                            let db = row[kept] - mean[kept];
                            let (row, mean) = (&row[lanes.clone()], &mean[lanes.clone()]);
                            for j in 0..SUM_LANES {
                                sum[j] += (row[j] - mean[j]) * db;
                            }
                        }
                        with_kept.copy_from_slice(&sum);
                    }
                    kept_covariances.push(with_kept);
                }
                &kept_covariances[position]
            };
            let mutual = if variance[index] <= 0.0 || variance[kept] <= 0.0 {
                0.0
            } else {
                (with_kept[index] / (deviation[index] * deviation[kept])).abs()
            };
            // If the candidate is at least as correlated with an already
            // selected predictor as with the response, it is redundant. The
            // small tolerance keeps the comparison robust when both
            // correlations are numerically ~1.0 (exactly collinear features).
            if mutual + 1e-9 >= correlation {
                continue 'outer;
            }
        }
        selected.push(index);
        if selected.len() >= config.max_features {
            break;
        }
    }

    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_features::{FeatureId, FeatureVector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn select(history: &History, config: &FcbfConfig, feature_count: usize) -> Vec<usize> {
        fcbf_select_with(history, config, feature_count, &mut FcbfScratch::default()).to_vec()
    }

    /// Builds a history where the response depends on the given features.
    fn synthetic_history<F: Fn(&FeatureVector) -> f64>(
        n: usize,
        seed: u64,
        response: F,
    ) -> History {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history = History::new(n);
        for _ in 0..n {
            let mut f = FeatureVector::zeros();
            // Populate a handful of features with independent noise.
            f.set(FeatureId::Packets, rng.gen_range(100.0..2000.0));
            f.set(FeatureId::Bytes, rng.gen_range(10_000.0..1_000_000.0));
            f.set(FeatureId::from_index(2), rng.gen_range(0.0..500.0));
            f.set(FeatureId::from_index(6), rng.gen_range(0.0..300.0));
            let y = response(&f);
            history.push(f, y);
        }
        history
    }

    #[test]
    fn selects_the_driving_feature() {
        let history = synthetic_history(60, 1, |f| 10.0 * f.packets() + 50.0);
        let selected = select(&history, &FcbfConfig::default(), 42);
        assert_eq!(selected.first(), Some(&FeatureId::Packets.index()));
    }

    #[test]
    fn removes_redundant_copies_of_the_same_signal() {
        // Response driven by packets; bytes made perfectly redundant with packets.
        let mut history = History::new(60);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let packets = rng.gen_range(100.0..2000.0);
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, packets);
            f.set(FeatureId::Bytes, packets * 500.0);
            history.push(f, 3.0 * packets);
        }
        let selected = select(&history, &FcbfConfig::default(), 42);
        assert_eq!(selected.len(), 1, "redundant feature should be removed: {selected:?}");
    }

    #[test]
    fn high_threshold_selects_nothing_for_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut history = History::new(60);
        for _ in 0..60 {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, rng.gen_range(0.0..1000.0));
            // Response completely independent of the features.
            history.push(f, rng.gen_range(0.0..1000.0));
        }
        let selected = select(&history, &FcbfConfig { threshold: 0.9, max_features: 8 }, 42);
        assert!(selected.is_empty());
    }

    #[test]
    fn multi_feature_response_selects_both_drivers() {
        // Both terms contribute comparable variance so each feature clears
        // the relevance threshold on its own.
        let history = synthetic_history(80, 4, |f| {
            30.0 * f.packets() + 200.0 * f.get(FeatureId::from_index(6))
        });
        let config = FcbfConfig { threshold: 0.3, max_features: 8 };
        let selected = select(&history, &config, 42);
        assert!(selected.contains(&FeatureId::Packets.index()));
        assert!(selected.contains(&6));
    }

    #[test]
    fn tiny_history_selects_nothing() {
        let mut history = History::new(10);
        history.push(FeatureVector::zeros(), 1.0);
        assert!(select(&history, &FcbfConfig::default(), 42).is_empty());
    }

    #[test]
    fn zero_variance_and_poisoned_columns_are_never_selected() {
        // A constant column makes the Pearson denominator zero (NaN
        // correlation); it must be silently irrelevant, not selected and not
        // a panic. The response here is driven by packets so something *is*
        // selectable.
        let mut history = History::new(40);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, rng.gen_range(100.0..2000.0));
            f.set(FeatureId::from_index(4), 7.0); // constant: zero variance
            history.push(f, 5.0 * f.packets());
        }
        let selected = select(&history, &FcbfConfig { threshold: 0.0, max_features: 42 }, 42);
        assert!(!selected.contains(&4), "a zero-variance feature must never be selected");
        assert!(selected.contains(&FeatureId::Packets.index()));
    }

    #[test]
    fn max_features_caps_the_selection() {
        let history = synthetic_history(60, 5, |f| f.packets() + f.bytes());
        let config = FcbfConfig { threshold: 0.1, max_features: 1 };
        let selected = select(&history, &config, 42);
        assert!(selected.len() <= 1);
    }
}
