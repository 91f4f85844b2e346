//! A hardened MLR variant for adversarial traffic.
//!
//! The plain [`MlrPredictor`] trusts its feedback: whatever cycles the
//! monitor observed go straight into the regression history. That trust is
//! the attack surface the adversarial corpus games — crafted payloads make
//! cost per byte explode while every feature stays calm, flow churn makes
//! the cost oscillate against a flat feature vector, and sampling skew makes
//! the rate-extrapolated observations themselves swing wildly. The
//! [`RobustMlrPredictor`] wraps the plain predictor with three defenses:
//!
//! 1. **Non-finite guards** — probe features and observed responses pass
//!    through [`crate::guard`] before touching any model state.
//! 2. **Outlier-clamped residuals** — an observation more than `TRIP_RATIO`
//!    times the last prediction is stored clamped to `CLAMP_RATIO` times the
//!    prediction, so a single poisoned measurement (an all-or-nothing
//!    sampling extrapolation, say) cannot yank the regression; under a
//!    *sustained* shift the clamp ratchets geometrically, reaching the true
//!    level within a few bins.
//! 3. **Forgetting-factor history** — `FORGET_TRIPS` *consecutive* trips
//!    mark a regime shift (an isolated trip is merely clamped — dropping a
//!    good history over one poisoned measurement would be self-harm) and
//!    shrink the history to its newest `FORGET_KEEP` observations: the
//!    pre-shift window is exactly what keeps the model wrong, so it is
//!    dropped and the model relearns the new regime in a handful of bins
//!    instead of averaging over the full 60-bin window.
//!
//! The trip is deliberately conservative (warm history, positive prediction,
//! a multi-x ratio): on benign traffic it never fires, and an untripped
//! `RobustMlrPredictor` performs *bit-for-bit* the same arithmetic as
//! [`MlrPredictor`] — the property the `robustness` integration tests and
//! the golden-scenario equivalence proptest pin down. The hardened variant
//! is therefore a strict opt-in: zero behavioral drift unattacked.
//!
//! The six thresholds are constants, tuned once; their ordering (a trip
//! above 1, a clamp at or above the trip, a non-empty kept window) is
//! checked at compile time.

use crate::guard::{clamp_features, clamp_sample};
use crate::history::History;
use crate::predictor::{MlrPredictor, Predictor};
use crate::window::FeatureWindow;
use netshed_features::FeatureVector;
use netshed_sketch::{StateError, StateReader, StateWriter};

/// An observation more than `TRIP_RATIO` times the last prediction trips the
/// outlier defense. Comfortably above any benign misprediction: roughly
/// twice the worst ratio the benign golden scenarios produce.
const TRIP_RATIO: f64 = 4.0;

/// A tripped observation is stored clamped to `CLAMP_RATIO` times the
/// prediction (at least `TRIP_RATIO`, so observations between the two
/// pass through unclamped and only the history is forgotten).
const CLAMP_RATIO: f64 = 12.0;

/// The trip is armed only once the history holds at least this many
/// observations — a cold model mispredicts for honest reasons.
const MIN_HISTORY: usize = 8;

/// Consecutive trips required before the history is forgotten. An isolated
/// trip (an all-or-nothing sampling extrapolation under skewed traffic) is
/// merely clamped — throwing away a good history for one poisoned
/// measurement is self-harm — while a run of trips marks a genuine regime
/// shift worth relearning from scratch.
const FORGET_TRIPS: usize = 2;

/// How many of the newest observations survive the forgetting step. Enough
/// post-shift observations for the regression to refit meaningfully:
/// trimming much below the selected-feature count leaves the OLS
/// rank-starved and the "defense" becomes self-harm under repeated trips.
const FORGET_KEEP: usize = 6;

/// After a trip the predictor stays alert for this many further
/// observations: each of them keeps trimming the history to `FORGET_KEEP`
/// even without tripping, so the stale pre-shift window is fully flushed
/// while the model relearns the new regime.
const ALERT_BINS: usize = 2;

// Each ordering the defense needs not to turn into self-harm.
const _: () = assert!(1.0 < TRIP_RATIO && TRIP_RATIO <= CLAMP_RATIO && FORGET_KEEP > 0);

/// [`MlrPredictor`] hardened against predictor-gaming workloads.
///
/// See the [module docs](self) for the defense model. Constructed like any
/// other predictor (one per query, from the configured `PredictorSpec`); the
/// `robust_mlr_fcbf` [`PredictorKind`](../../netshed_monitor) exposes it to
/// the monitor configuration.
#[derive(Debug)]
pub struct RobustMlrPredictor {
    inner: MlrPredictor,
    /// The prediction issued for the bin whose observation comes next.
    last_prediction: Option<f64>,
    /// How many observations tripped the outlier defense so far.
    tripped: u64,
    /// Current run of consecutive tripped observations.
    streak: usize,
    /// Remaining post-trip observations that keep trimming the history.
    alert: usize,
}

impl RobustMlrPredictor {
    /// Creates a hardened predictor around a default [`MlrPredictor`].
    pub fn with_defaults() -> Self {
        Self {
            inner: MlrPredictor::with_defaults(),
            last_prediction: None,
            tripped: 0,
            streak: 0,
            alert: 0,
        }
    }

    /// Returns the regression history of the wrapped predictor.
    pub fn history(&self) -> &History {
        self.inner.history()
    }

    /// Number of observations that tripped the outlier defense so far.
    /// Stays zero for the whole run on benign traffic.
    pub fn tripped_observations(&self) -> u64 {
        self.tripped
    }
}

impl RobustMlrPredictor {
    /// The outlier defense on one observation: returns the response to
    /// store (clamped when the observation tripped) after applying the
    /// forgetting step to the history.
    fn admit(&mut self, actual_cycles: f64) -> f64 {
        let actual = clamp_sample(actual_cycles);
        let mut stored = actual;
        let mut trip = false;
        if let Some(predicted) = self.last_prediction.take() {
            let warm = self.inner.history().len() >= MIN_HISTORY;
            if warm && predicted > 0.0 && actual > predicted * TRIP_RATIO {
                stored = actual.min(predicted * CLAMP_RATIO);
                trip = true;
            }
        }
        if trip {
            self.tripped += 1;
            self.streak += 1;
            // An isolated trip is only clamped; a *run* of trips marks a
            // regime shift, and the pre-shift window is what keeps the
            // model wrong, so it is dropped.
            if self.streak >= FORGET_TRIPS {
                self.inner.history_mut().forget_oldest(FORGET_KEEP);
                self.alert = ALERT_BINS;
            }
        } else {
            self.streak = 0;
            if self.alert > 0 {
                // Still relearning after a shift: keep flushing the
                // pre-shift window so only post-shift observations shape
                // the model.
                self.alert -= 1;
                self.inner.history_mut().forget_oldest(FORGET_KEEP);
            }
        }
        stored
    }

    /// A corrupted measurement already substitutes the prediction, which
    /// cannot trip its own outlier test; it also interrupts any run of
    /// trips. Just keep the pairing straight.
    fn admit_corrupted(&mut self, predicted_cycles: f64) -> f64 {
        self.last_prediction = None;
        self.streak = 0;
        clamp_sample(predicted_cycles)
    }
}

impl Predictor for RobustMlrPredictor {
    fn predict(&mut self, features: &FeatureVector) -> f64 {
        let predicted = self.inner.predict(&clamp_features(features));
        self.last_prediction = Some(predicted);
        predicted
    }

    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64) {
        let stored = self.admit(actual_cycles);
        self.inner.observe(&clamp_features(features), stored);
    }

    fn observe_corrupted(&mut self, features: &FeatureVector, predicted_cycles: f64) {
        let stored = self.admit_corrupted(predicted_cycles);
        self.inner.observe_corrupted(&clamp_features(features), stored);
    }

    fn predict_shared(&mut self, window: &FeatureWindow, features: &FeatureVector) -> f64 {
        let predicted = self.inner.predict_shared(window, &clamp_features(features));
        self.last_prediction = Some(predicted);
        predicted
    }

    fn observe_shared(&mut self, window: &FeatureWindow, cycles: f64, corrupted: bool) {
        let stored = if corrupted { self.admit_corrupted(cycles) } else { self.admit(cycles) };
        self.inner.observe_shared(window, stored, corrupted);
    }

    fn name(&self) -> &'static str {
        "robust_mlr"
    }

    fn selected_features(&self) -> Vec<usize> {
        self.inner.selected_features()
    }

    fn last_cost_operations(&self) -> u64 {
        self.inner.last_cost_operations()
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.inner.save_state(writer)?;
        writer.opt_f64(self.last_prediction);
        writer.u64(self.tripped);
        writer.usize(self.streak);
        writer.usize(self.alert);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(reader)?;
        self.last_prediction = reader.opt_f64()?;
        self.tripped = reader.u64()?;
        self.streak = reader.usize()?;
        self.alert = reader.usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_features::FeatureId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn benign_features(rng: &mut StdRng) -> FeatureVector {
        let mut f = FeatureVector::zeros();
        f.set(FeatureId::Packets, rng.gen_range(500.0..1500.0));
        f.set(FeatureId::Bytes, rng.gen_range(100_000.0..800_000.0));
        f
    }

    #[test]
    fn untripped_robust_predictor_is_bit_identical_to_plain_mlr() {
        let mut plain = MlrPredictor::with_defaults();
        let mut robust = RobustMlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..120 {
            let f = benign_features(&mut rng);
            let actual = 2_000.0 * f.packets() + 0.5 * f.get(FeatureId::Bytes);
            let a = plain.predict(&f);
            let b = robust.predict(&f);
            assert_eq!(a.to_bits(), b.to_bits(), "predictions must match bit for bit");
            assert_eq!(plain.last_cost_operations(), robust.last_cost_operations());
            plain.observe(&f, actual);
            robust.observe(&f, actual);
        }
        assert_eq!(robust.tripped_observations(), 0);
    }

    #[test]
    fn sustained_shift_trips_forgets_and_relearns_quickly() {
        let mut plain = MlrPredictor::with_defaults();
        let mut robust = RobustMlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(32);
        // Benign warm-up: the model learns cost = 1000 * packets.
        for _ in 0..30 {
            let f = benign_features(&mut rng);
            let actual = 1_000.0 * f.packets();
            plain.predict(&f);
            robust.predict(&f);
            plain.observe(&f, actual);
            robust.observe(&f, actual);
        }
        // Attack: same features, 40x the cost (the bm-mimicry shape).
        let (mut plain_err, mut robust_err) = (0.0f64, 0.0f64);
        let (mut plain_tail, mut robust_tail) = (0.0f64, 0.0f64);
        for bin in 0..12 {
            let f = benign_features(&mut rng);
            let actual = 40_000.0 * f.packets();
            let plain_bin = (actual - plain.predict(&f)).abs() / actual;
            let robust_bin = (actual - robust.predict(&f)).abs() / actual;
            plain_err += plain_bin;
            robust_err += robust_bin;
            if bin >= 6 {
                plain_tail += plain_bin;
                robust_tail += robust_bin;
            }
            plain.observe(&f, actual);
            robust.observe(&f, actual);
        }
        assert!(robust.tripped_observations() > 0, "the attack must trip the defense");
        assert!(
            robust_err < plain_err * 0.75,
            "forgetting must relearn faster: robust {robust_err:.3} vs plain {plain_err:.3}"
        );
        // Once the pre-shift window is flushed the hardened model tracks the
        // attack regime; the plain model is still averaging it away.
        assert!(
            robust_tail < plain_tail * 0.6,
            "post-flush error must stay well below plain MLR: robust {robust_tail:.3} vs \
             plain {plain_tail:.3}"
        );
    }

    #[test]
    fn single_outlier_is_clamped_and_does_not_move_the_model() {
        let mut robust = RobustMlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..30 {
            let f = benign_features(&mut rng);
            robust.predict(&f);
            robust.observe(&f, 1_000.0 * f.packets());
        }
        let f = benign_features(&mut rng);
        let before = robust.predict(&f);
        // One wild sampling extrapolation, 1000x the truth.
        robust.observe(&f, 1_000_000.0 * f.packets());
        assert_eq!(robust.tripped_observations(), 1);
        let after = robust.predict(&f);
        assert!(
            after < before * CLAMP_RATIO,
            "a single outlier moved the prediction from {before} to {after}"
        );
        let worst = robust.history().responses().into_iter().fold(0.0f64, f64::max);
        assert!(
            worst <= before * CLAMP_RATIO * 1.01,
            "the stored outlier must be clamped (stored {worst}, predicted {before})"
        );
    }

    #[test]
    fn poisoned_inputs_never_reach_the_model() {
        let mut robust = RobustMlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..10 {
            let f = benign_features(&mut rng);
            robust.predict(&f);
            robust.observe(&f, 1_000.0 * f.packets());
        }
        let mut poisoned = FeatureVector::zeros();
        poisoned.set(FeatureId::Packets, f64::NAN);
        poisoned.set(FeatureId::Bytes, f64::INFINITY);
        let prediction = robust.predict(&poisoned);
        assert!(prediction.is_finite() && prediction >= 0.0);
        robust.observe(&poisoned, f64::INFINITY);
        robust.observe_corrupted(&poisoned, f64::NAN);
        for (features, cycles) in robust.history().iter() {
            assert!(cycles.is_finite());
            assert!((0..netshed_features::FEATURE_COUNT).all(|i| features.get_index(i).is_finite()));
        }
        let recovered = robust.predict(&benign_features(&mut rng));
        assert!(recovered.is_finite() && recovered >= 0.0);
    }

    #[test]
    fn checkpoint_roundtrip_restores_the_defense_state() {
        let mut robust = RobustMlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..20 {
            let f = benign_features(&mut rng);
            robust.predict(&f);
            robust.observe(&f, 1_000.0 * f.packets());
        }
        let f = benign_features(&mut rng);
        robust.predict(&f);
        robust.observe(&f, 1e9);
        let probe = benign_features(&mut rng);
        let issued = robust.predict(&probe);
        let mut writer = StateWriter::new();
        robust.save_state(&mut writer).expect("saves");
        let bytes = writer.into_bytes();
        let mut restored = RobustMlrPredictor::with_defaults();
        restored.load_state(&mut StateReader::new(&bytes)).expect("loads");
        assert_eq!(restored.tripped_observations(), robust.tripped_observations());
        assert_eq!(restored.predict(&probe).to_bits(), issued.to_bits());
    }
}
