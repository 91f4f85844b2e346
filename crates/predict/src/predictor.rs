//! The three CPU-usage predictors: MLR+FCBF, SLR and EWMA.

use crate::fcbf::{fcbf_select_in, FcbfConfig, FcbfScratch};
use crate::guard::clamp_sample;
use crate::history::History;
use crate::window::FeatureWindow;
use netshed_features::{FeatureId, FeatureVector, FEATURE_COUNT};
use netshed_linalg::stats::{mean, Ewma};
use netshed_linalg::{Matrix, OlsWorkspace, Svd};
use netshed_sketch::{StateError, StateReader, StateWriter};

/// A per-query CPU-usage predictor.
///
/// The monitoring system calls [`Predictor::predict`] once per batch *before*
/// running the query (to decide whether load must be shed) and
/// [`Predictor::observe`] once per batch *after* running it, feeding back the
/// measured cycles so the model can adapt.
pub trait Predictor: Send {
    /// Predicts the CPU cycles needed to process a batch with the given
    /// feature vector.
    fn predict(&mut self, features: &FeatureVector) -> f64;

    /// Feeds back the observed cycles for a batch with the given features.
    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64);

    /// Records that the observation for the last batch was unusable (e.g. a
    /// context switch corrupted the measurement) and that the given predicted
    /// value should be kept in the history instead. The default implementation
    /// simply observes the prediction.
    fn observe_corrupted(&mut self, features: &FeatureVector, predicted_cycles: f64) {
        self.observe(features, predicted_cycles);
    }

    /// [`Predictor::predict`] for a predictor an engine drives, beside its
    /// other queries' predictors, against the engine's [`FeatureWindow`]:
    /// `window` holds the full-batch rows of the bins before this one. A
    /// predictor whose history is [aligned](History::aligned_with) with the
    /// window may read the feature-side moments and the factorisations the
    /// window computed once for everyone; the prediction is the one `predict`
    /// returns either way, bit for bit. The default ignores the window.
    fn predict_shared(&mut self, window: &FeatureWindow, features: &FeatureVector) -> f64 {
        let _ = window;
        self.predict(features)
    }

    /// [`Predictor::observe`] (or, when the measurement was `corrupted`,
    /// [`Predictor::observe_corrupted`]) of the bin whose full-batch vector
    /// the engine just pushed to `window` — called when the row this
    /// predictor is to store *is* that shared vector. The default observes
    /// the window's newest row, which is the vector as
    /// [`History::push`] would sanitise it: for everything a feature
    /// extractor produces, the vector itself.
    fn observe_shared(&mut self, window: &FeatureWindow, cycles: f64, corrupted: bool) {
        if corrupted {
            self.observe_corrupted(window.newest(), cycles);
        } else {
            self.observe(window.newest(), cycles);
        }
    }

    /// Short name for reports ("mlr", "slr", "ewma").
    fn name(&self) -> &'static str;

    /// Indices of the features most recently used as predictors, if the
    /// method performs feature selection.
    fn selected_features(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Rough number of elementary operations performed by the most recent
    /// prediction (used for the overhead accounting of Table 3.4).
    fn last_cost_operations(&self) -> u64 {
        0
    }

    /// Serializes the predictor's essential state (history, cached feature
    /// selection) for a checkpoint. The default declines so a predictor
    /// without snapshot support fails a checkpoint loudly.
    fn save_state(&self, _writer: &mut StateWriter) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }

    /// Restores state captured by [`Predictor::save_state`] into a freshly
    /// built predictor of the same configuration.
    fn load_state(&mut self, _reader: &mut StateReader<'_>) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }
}

/// Configuration of the [`MlrPredictor`].
#[derive(Debug, Clone, Copy)]
pub struct MlrConfig {
    /// Number of past observations kept in the regression history
    /// (60 batches = 6 s in the paper).
    pub history: usize,
    /// FCBF feature selection configuration.
    pub fcbf: FcbfConfig,
}

/// Relative singular-value cutoff every regression here solves with.
pub const OLS_RCOND: f64 = 1e-9;

impl Default for MlrConfig {
    fn default() -> Self {
        Self { history: FeatureWindow::ROWS, fcbf: FcbfConfig::default() }
    }
}

/// The paper's predictor: FCBF feature selection + multiple linear regression
/// over a sliding window of observations.
///
/// A prediction allocates nothing in the steady state: the FCBF scratch,
/// the design matrix, response column and probe row, and the least-squares
/// workspace are all owned by the predictor and refilled in place every bin.
/// FCBF reselects the predictors on every bin that regresses, as the paper
/// does (Section 3.2.3).
#[derive(Debug)]
pub struct MlrPredictor {
    config: MlrConfig,
    history: History,
    selected: Vec<usize>,
    last_cost: u64,
    /// Scratch buffers of the FCBF passes, reused every bin.
    fcbf_scratch: FcbfScratch,
    regression: Regression,
}

/// The buffers one windowed least-squares prediction works in, refilled in
/// place every bin: design matrix (intercept + predictor columns), response
/// column, probe row and the solver's workspace.
#[derive(Debug, Default)]
struct Regression {
    design: Matrix,
    responses: Vec<f64>,
    row: Vec<f64>,
    ols: OlsWorkspace,
}

impl Regression {
    /// Mean of the responses seen so far (zero for a cold start): the
    /// prediction while the history is too short to regress.
    fn response_mean(&mut self, history: &History) -> f64 {
        history.fill_responses(&mut self.responses);
        mean(&self.responses)
    }

    /// Fits the history's responses on an intercept plus its `predictors`
    /// columns and predicts the response for `features`. The design is
    /// decomposed here, or — for a history aligned with a window — `shared`
    /// is the window's decomposition of that same design.
    fn fit_and_predict(
        &mut self,
        history: &History,
        shared: Option<&Svd>,
        predictors: &[usize],
        features: &FeatureVector,
    ) -> f64 {
        history.fill_responses(&mut self.responses);
        if let Some(svd) = shared {
            self.ols.solve_decomposed(svd, &self.responses, OLS_RCOND);
        } else {
            history.rows().fill_design(predictors, &mut self.design);
            self.ols.solve(&self.design, &self.responses, OLS_RCOND);
        }

        self.row.clear();
        self.row.push(1.0);
        // The history is sanitized on every way in; the probe row is the one
        // other path into the fitted model, so it gets the same guard.
        self.row.extend(predictors.iter().map(|&i| clamp_sample(features.get_index(i))));
        self.ols.predict(&self.row).max(0.0)
    }
}

impl MlrPredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: MlrConfig) -> Self {
        Self {
            history: History::new(config.history),
            config,
            selected: Vec::new(),
            last_cost: 0,
            fcbf_scratch: FcbfScratch::default(),
            regression: Regression::default(),
        }
    }

    /// Creates a predictor with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::new(MlrConfig::default())
    }

    /// Returns the regression history (mainly for inspection in tests).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Mutable access to the regression history, for the robust wrapper's
    /// forgetting step.
    pub(crate) fn history_mut(&mut self) -> &mut History {
        &mut self.history
    }

    /// The prediction, reading the feature side from `window` while the
    /// history is aligned with it and from the history's own rows otherwise.
    fn predict_from(&mut self, window: Option<&FeatureWindow>, features: &FeatureVector) -> f64 {
        let window = window.filter(|window| self.history.aligned_with(window));
        let n = self.history.len();
        if n < 3 {
            // Not enough history to regress; fall back to the mean of what we
            // have seen (or zero for a cold start).
            return self.regression.response_mean(&self.history);
        }

        let picked = fcbf_select_in(
            &self.history,
            window,
            &self.config.fcbf,
            FEATURE_COUNT,
            &mut self.fcbf_scratch,
        );
        self.selected.clear();
        self.selected.extend_from_slice(picked);
        if self.selected.is_empty() {
            // Nothing cleared the threshold: fall back to the packet count,
            // which the paper reports as the most broadly useful feature.
            self.selected.push(FeatureId::Packets.index());
        }

        // Cost accounting: the FCBF correlation pass (n * p) plus the OLS
        // solve (~ n * k^2).
        let k = self.selected.len() as u64 + 1;
        self.last_cost = n as u64 * FEATURE_COUNT as u64 + n as u64 * k * k;

        let shared = window.map(|window| window.decomposition(&self.selected));
        self.regression.fit_and_predict(&self.history, shared, &self.selected, features)
    }
}

impl Predictor for MlrPredictor {
    fn predict(&mut self, features: &FeatureVector) -> f64 {
        self.predict_from(None, features)
    }

    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64) {
        self.history.push(*features, actual_cycles);
    }

    fn observe_corrupted(&mut self, features: &FeatureVector, predicted_cycles: f64) {
        self.history.push(*features, predicted_cycles);
    }

    fn predict_shared(&mut self, window: &FeatureWindow, features: &FeatureVector) -> f64 {
        self.predict_from(Some(window), features)
    }

    fn observe_shared(&mut self, window: &FeatureWindow, cycles: f64, _corrupted: bool) {
        self.history.push_newest(window, cycles);
    }

    fn name(&self) -> &'static str {
        "mlr"
    }

    fn selected_features(&self) -> Vec<usize> {
        self.selected.clone()
    }

    fn last_cost_operations(&self) -> u64 {
        self.last_cost
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.history.save_state(writer);
        writer.usize(self.selected.len());
        for &feature in &self.selected {
            writer.usize(feature);
        }
        // Bins since the selection was made: 1 once there is one, as one is
        // made every bin that regresses. The word keeps the format.
        writer.usize(usize::from(!self.selected.is_empty()));
        writer.u64(self.last_cost);
        Ok(())
    }

    /// Refuses, as the history does, what no run could have stored: a
    /// selection FCBF could not have made (longer than `max_features`, an
    /// index repeated or out of range), a selection age other than the one
    /// `save_state` writes for it, or a cost `predict` could not have
    /// modelled for this history capacity.
    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.history.load_state(reader)?;
        // FCBF keeps its first candidate even when `max_features` is 0, and
        // never a feature twice.
        let max_features = self.config.fcbf.max_features.clamp(1, FEATURE_COUNT);
        let selected = reader.usize()?;
        if selected > max_features {
            return Err(StateError::corrupt(format!(
                "selected features: {selected}, more than the {max_features} FCBF selects"
            )));
        }
        self.selected.clear();
        for _ in 0..selected {
            let feature = reader.usize()?;
            if feature >= FEATURE_COUNT || self.selected.contains(&feature) {
                return Err(StateError::corrupt(format!(
                    "selected features: index {feature} out of range or repeated"
                )));
            }
            self.selected.push(feature);
        }
        let age = reader.usize()?;
        if age != usize::from(selected > 0) {
            return Err(StateError::corrupt(format!(
                "selection age: {age} for {selected} selected features, where a selection is \
                 made anew every bin that regresses"
            )));
        }
        // `predict_from`'s cost model at its largest: a reselection over a
        // full history and the widest solve.
        let k = max_features as u64 + 1;
        self.last_cost = restored_cost(reader, &self.history, FEATURE_COUNT as u64 + k * k)?;
        Ok(())
    }
}

/// Reads a restored `last_cost`, refusing one above what a prediction over
/// a full `history` can cost at `per_row` modelled operations a row: the
/// monitor charges it as cycles, and a crafted `u64::MAX` would overflow
/// that (a prediction over fewer than three rows keeps the restored value).
fn restored_cost(
    reader: &mut StateReader<'_>,
    history: &History,
    per_row: u64,
) -> Result<u64, StateError> {
    let cost = reader.u64()?;
    let max = (history.capacity() as u64).saturating_mul(per_row);
    if cost > max {
        return Err(StateError::corrupt(format!(
            "last_cost {cost} exceeds the {max} operations a prediction can cost"
        )));
    }
    Ok(cost)
}

/// The feature [`SlrPredictor`] regresses on: the packet count.
const SLR_FEATURE: FeatureId = FeatureId::Packets;

/// Observations in [`SlrPredictor`]'s history: the paper's 6 s.
const SLR_HISTORY: usize = 60;

/// Simple linear regression on the packet count.
#[derive(Debug)]
pub struct SlrPredictor {
    history: History,
    last_cost: u64,
    regression: Regression,
}

impl SlrPredictor {
    /// SLR on the number of packets with the paper's 6 s history.
    pub fn on_packets() -> Self {
        Self { history: History::new(SLR_HISTORY), last_cost: 0, regression: Regression::default() }
    }
}

impl Predictor for SlrPredictor {
    fn predict(&mut self, features: &FeatureVector) -> f64 {
        let n = self.history.len();
        if n < 3 {
            return self.regression.response_mean(&self.history);
        }
        self.last_cost = n as u64 * 4;
        self.regression.fit_and_predict(&self.history, None, &[SLR_FEATURE.index()], features)
    }

    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64) {
        self.history.push(*features, actual_cycles);
    }

    fn name(&self) -> &'static str {
        "slr"
    }

    fn selected_features(&self) -> Vec<usize> {
        vec![SLR_FEATURE.index()]
    }

    fn last_cost_operations(&self) -> u64 {
        self.last_cost
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.history.save_state(writer);
        writer.u64(self.last_cost);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.history.load_state(reader)?;
        self.last_cost = restored_cost(reader, &self.history, 4)?;
        Ok(())
    }
}

/// Exponentially weighted moving average of past CPU usage.
///
/// Ignores the traffic features entirely, which is exactly why it lags behind
/// sudden traffic changes (Figure 3.9 / 3.13 of the paper).
#[derive(Debug)]
pub struct EwmaPredictor {
    ewma: Ewma,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with the given weight for new observations.
    ///
    /// The paper's sweep (Figure 3.10) finds `alpha = 0.3` to be the best
    /// setting for its traces.
    pub fn new(alpha: f64) -> Self {
        Self { ewma: Ewma::new(alpha) }
    }
}

impl Default for EwmaPredictor {
    fn default() -> Self {
        Self::new(0.3)
    }
}

impl Predictor for EwmaPredictor {
    fn predict(&mut self, _features: &FeatureVector) -> f64 {
        self.ewma.value()
    }

    fn observe(&mut self, _features: &FeatureVector, actual_cycles: f64) {
        self.ewma.update(actual_cycles);
    }

    fn name(&self) -> &'static str {
        "ewma"
    }

    fn last_cost_operations(&self) -> u64 {
        1
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.opt_f64(self.ewma.state());
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.ewma.restore(reader.opt_f64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Drives a predictor over a synthetic workload where the true cost is a
    /// known function of the features and reports the mean relative error
    /// over the second half of the run.
    fn run_predictor<P: Predictor, F: Fn(&FeatureVector) -> f64>(
        predictor: &mut P,
        cost: F,
        batches: usize,
        seed: u64,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut errors = Vec::new();
        for i in 0..batches {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, rng.gen_range(500.0..1500.0));
            f.set(FeatureId::Bytes, rng.gen_range(100_000.0..800_000.0));
            f.set(FeatureId::from_index(5), rng.gen_range(50.0..400.0));
            let actual = cost(&f);
            let predicted = predictor.predict(&f);
            if i > batches / 2 && actual > 0.0 {
                errors.push((predicted - actual).abs() / actual);
            }
            predictor.observe(&f, actual);
        }
        netshed_linalg::stats::mean(&errors)
    }

    #[test]
    fn mlr_learns_a_linear_cost_model() {
        let mut p = MlrPredictor::with_defaults();
        let err = run_predictor(&mut p, |f| 2000.0 * f.packets() + 1e6, 200, 1);
        assert!(err < 0.02, "MLR error {err} too high for an exactly linear cost");
        assert_eq!(p.selected_features(), vec![FeatureId::Packets.index()]);
    }

    #[test]
    fn mlr_handles_multi_feature_costs_better_than_slr() {
        let cost = |f: &FeatureVector| 1500.0 * f.packets() + 30_000.0 * f.get_index(5) + 5e5;
        let mut mlr = MlrPredictor::new(MlrConfig {
            fcbf: FcbfConfig { threshold: 0.2, max_features: 8 },
            ..MlrConfig::default()
        });
        let mut slr = SlrPredictor::on_packets();
        let mlr_err = run_predictor(&mut mlr, cost, 300, 2);
        let slr_err = run_predictor(&mut slr, cost, 300, 2);
        assert!(
            mlr_err < slr_err * 0.5,
            "MLR ({mlr_err}) should clearly beat SLR ({slr_err}) on a two-feature cost"
        );
    }

    #[test]
    fn slr_tracks_packet_linear_costs() {
        let mut p = SlrPredictor::on_packets();
        let err = run_predictor(&mut p, |f| 900.0 * f.packets(), 150, 3);
        assert!(err < 0.02, "SLR error {err}");
    }

    #[test]
    fn ewma_lags_behind_feature_driven_changes() {
        let cost = |f: &FeatureVector| 1000.0 * f.packets();
        let mut ewma = EwmaPredictor::default();
        let mut mlr = MlrPredictor::with_defaults();
        let ewma_err = run_predictor(&mut ewma, cost, 200, 4);
        let mlr_err = run_predictor(&mut mlr, cost, 200, 4);
        assert!(
            ewma_err > mlr_err * 3.0,
            "EWMA ({ewma_err}) should be clearly worse than MLR ({mlr_err})"
        );
    }

    #[test]
    fn cold_start_returns_finite_prediction() {
        let mut p = MlrPredictor::with_defaults();
        let f = FeatureVector::zeros();
        let prediction = p.predict(&f);
        assert!(prediction.is_finite());
        assert!(prediction >= 0.0);
    }

    /// Pins the observe path after the per-bin `features.clone()` was
    /// replaced by a `Copy` dereference: the history must store exactly the
    /// vectors that were observed, value for value, in observation order.
    #[test]
    fn observe_stores_the_exact_feature_vectors() {
        let mut mlr = MlrPredictor::with_defaults();
        let mut slr = SlrPredictor::on_packets();
        let mut expected = Vec::new();
        for i in 0..5 {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, 100.0 + f64::from(i));
            f.set(FeatureId::Bytes, 1e4 * f64::from(i + 1));
            f.set(FeatureId::from_index(9), 3.5 * f64::from(i));
            let y = 7.0 * f64::from(i);
            mlr.observe(&f, y);
            slr.observe(&f, y);
            expected.push((f, y));
        }
        for history in [mlr.history(), &slr.history] {
            let stored: Vec<(FeatureVector, f64)> =
                history.iter().map(|(features, cycles)| (*features, cycles)).collect();
            assert_eq!(stored, expected, "history must hold the observed vectors unchanged");
        }
    }

    #[test]
    fn observe_corrupted_keeps_history_usable() {
        let mut p = MlrPredictor::with_defaults();
        let mut f = FeatureVector::zeros();
        f.set(FeatureId::Packets, 100.0);
        for _ in 0..10 {
            p.observe(&f, 1000.0);
        }
        p.observe_corrupted(&f, 1000.0);
        assert_eq!(p.history().len(), 11);
        let prediction = p.predict(&f);
        assert!((prediction - 1000.0).abs() < 200.0);
    }

    #[test]
    fn poisoned_probe_features_still_yield_finite_predictions() {
        // Satellite guard test: even with a warm, benign history, a NaN or
        // infinite feature in the *probe* vector must not surface as a
        // non-finite prediction — the clamp sits between the features and
        // the fitted model in both MLR and SLR.
        let mut mlr = MlrPredictor::with_defaults();
        let mut slr = SlrPredictor::on_packets();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, rng.gen_range(500.0..1500.0));
            let y = 100.0 * f.packets();
            mlr.predict(&f);
            mlr.observe(&f, y);
            slr.predict(&f);
            slr.observe(&f, y);
        }
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, poison);
            let mlr_prediction = mlr.predict(&f);
            let slr_prediction = slr.predict(&f);
            assert!(
                mlr_prediction.is_finite() && mlr_prediction >= 0.0,
                "MLR must absorb a {poison} feature (got {mlr_prediction})"
            );
            assert!(
                slr_prediction.is_finite() && slr_prediction >= 0.0,
                "SLR must absorb a {poison} feature (got {slr_prediction})"
            );
        }
    }

    #[test]
    fn predictions_are_never_negative() {
        let mut p = MlrPredictor::with_defaults();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let mut f = FeatureVector::zeros();
            f.set(FeatureId::Packets, rng.gen_range(0.0..10.0));
            let predicted = p.predict(&f);
            assert!(predicted >= 0.0);
            p.observe(&f, rng.gen_range(0.0..5.0));
        }
    }
}
