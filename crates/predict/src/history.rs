//! Sliding window of (features, observed cycles) observations.

use crate::guard::{clamp_features, clamp_sample, MAX_SAMPLE};
use crate::window::FeatureWindow;
use netshed_features::{FeatureVector, FEATURE_COUNT};
use netshed_linalg::Matrix;
use netshed_sketch::{StateError, StateReader, StateWriter};
use std::collections::VecDeque;

/// A bounded ring of sanitised feature rows, oldest first: the feature side
/// of a [`History`] and the rows of a [`FeatureWindow`]. Whoever pushes
/// sanitises; the ring only evicts.
#[derive(Debug, Clone)]
pub(crate) struct RowRing {
    capacity: usize,
    rows: VecDeque<FeatureVector>,
}

impl RowRing {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity, rows: VecDeque::with_capacity(capacity) }
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row, evicting the oldest one if full.
    pub(crate) fn push(&mut self, row: &FeatureVector) {
        if self.rows.len() == self.capacity {
            self.rows.pop_front();
        }
        self.rows.push_back(*row);
    }

    pub(crate) fn pop_oldest(&mut self) {
        self.rows.pop_front();
    }

    pub(crate) fn newest(&self) -> Option<&FeatureVector> {
        self.rows.back()
    }

    /// The rows from oldest to newest.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &FeatureVector> + Clone {
        self.rows.iter()
    }

    /// Writes one feature's column into `out`, one slot per row.
    pub(crate) fn fill_column(&self, feature_index: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "column buffer must match the row count");
        for (slot, row) in out.iter_mut().zip(&self.rows) {
            *slot = row.get_index(feature_index);
        }
    }

    /// Makes `design` the regression's design matrix over these rows: an
    /// intercept column of ones, then one column per entry of `predictors`,
    /// in that order. Every fit builds its design here — a predictor's
    /// private one and the shared one of a [`FeatureWindow`].
    pub(crate) fn fill_design(&self, predictors: &[usize], design: &mut Matrix) {
        design.reshape_zeroed(self.len(), predictors.len() + 1);
        design.column_mut(0).fill(1.0);
        for (j, &feature) in predictors.iter().enumerate() {
            self.fill_column(feature, design.column_mut(j + 1));
        }
    }
}

/// The trailing rows a [`History`] copied out of one [`FeatureWindow`] on
/// consecutive pushes of that window.
#[derive(Debug, Clone, Copy)]
struct SharedRun {
    /// Identity of the window the rows came from.
    window: u64,
    /// Sequence number of the newest of them.
    newest: u64,
    /// How many of the history's newest rows the run covers (it keeps
    /// counting past the capacity; only `>= len` is ever asked of it).
    rows: usize,
}

/// The regression history of one query: the most recent `capacity`
/// observations of (feature vector, CPU cycles actually used).
///
/// Section 3.3.1 of the paper studies the history length trade-off and
/// settles on 60 observations (6 s of 100 ms batches), which is the default
/// used by [`crate::MlrConfig`].
///
/// Rows and responses live in two rings: the response side is a query's own
/// and is walked on its own every bin, while the feature side is, in an
/// unshed bin, the same row every query stores — which is what
/// [`History::aligned_with`] lets a predictor exploit.
#[derive(Debug, Clone)]
pub struct History {
    rows: RowRing,
    responses: VecDeque<f64>,
    /// Not part of a snapshot: a restored history starts unaligned.
    shared: Option<SharedRun>,
}

impl History {
    /// Creates an empty history holding at most `capacity` observations.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        Self {
            rows: RowRing::new(capacity),
            responses: VecDeque::with_capacity(capacity),
            shared: None,
        }
    }

    /// Maximum number of observations retained.
    pub fn capacity(&self) -> usize {
        self.rows.capacity
    }

    /// Number of observations currently stored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no observations are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an observation, evicting the oldest one if full.
    ///
    /// The observation is sanitized on the way in ([`crate::guard`]): the
    /// history is the source of every design matrix, so a non-finite feature
    /// or response must be neutralised *here*, before it can poison an OLS
    /// solve. The clamp is the identity for everything benign traffic
    /// produces.
    pub fn push(&mut self, features: FeatureVector, cycles: f64) {
        self.shared = None;
        self.store(&clamp_features(&features), cycles);
    }

    /// Appends the newest row of `window` (sanitised when the window took
    /// it) with this query's `cycles`, and extends the run of rows shared
    /// with that window when the row follows the previous one it took.
    pub fn push_newest(&mut self, window: &FeatureWindow, cycles: f64) {
        let (id, newest) = window.stamp();
        let rows = match self.shared {
            Some(run) if run.window == id && run.newest + 1 == newest => run.rows + 1,
            _ => 1,
        };
        self.shared = Some(SharedRun { window: id, newest, rows });
        self.store(window.newest(), cycles);
    }

    fn store(&mut self, row: &FeatureVector, cycles: f64) {
        if self.len() == self.capacity() {
            self.responses.pop_front();
        }
        self.rows.push(row);
        self.responses.push_back(clamp_sample(cycles));
    }

    /// Whether this history's rows are exactly `window`'s rows: every row
    /// was copied from that window on consecutive pushes, the newest of them
    /// is the window's newest, and the two hold equally many. A shared row
    /// enters a history only by copy from the window itself
    /// ([`History::push_newest`]), so nothing is compared — the three
    /// conditions are the proof — and a predictor for which they hold may
    /// read the window's feature-side moments in place of its own.
    pub fn aligned_with(&self, window: &FeatureWindow) -> bool {
        self.len() == window.len()
            && self.shared.is_some_and(|run| {
                (run.window, run.newest) == window.stamp() && run.rows >= self.len()
            })
    }

    /// Drops the oldest observations, keeping at most the newest `keep`.
    ///
    /// This is the robust predictor's forgetting step: when the observed
    /// cost departs violently from the model (a regime shift or an attack),
    /// the stale pre-shift window is what keeps the regression wrong, so it
    /// is discarded and the model relearns from the newest observations.
    pub fn forget_oldest(&mut self, keep: usize) {
        while self.len() > keep {
            self.rows.pop_oldest();
            self.responses.pop_front();
        }
    }

    /// Iterates over the stored observations from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = (&FeatureVector, f64)> {
        self.rows.iter().zip(self.responses.iter().copied())
    }

    /// The feature side, oldest row first.
    pub(crate) fn rows(&self) -> &RowRing {
        &self.rows
    }

    /// The response side (observed cycles), oldest first.
    pub(crate) fn response_side(&self) -> impl Iterator<Item = f64> + '_ {
        self.responses.iter().copied()
    }

    /// Returns the response column (observed cycles) as a vector.
    pub fn responses(&self) -> Vec<f64> {
        self.responses.iter().copied().collect()
    }

    /// Writes the response column into `out`, reusing its allocation.
    ///
    /// The allocation-free sibling of [`History::responses`], used by the
    /// per-bin prediction hot path.
    pub fn fill_responses(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.responses.iter());
    }

    /// Returns the values of the feature at `feature_index` across the history.
    pub fn feature_column(&self, feature_index: usize) -> Vec<f64> {
        self.rows.iter().map(|row| row.get_index(feature_index)).collect()
    }

    /// Writes the values of the feature at `feature_index` into `out`, which
    /// must already have `len()` elements (one slot per observation).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn fill_feature_column(&self, feature_index: usize, out: &mut [f64]) {
        self.rows.fill_column(feature_index, out);
    }

    /// Discards all observations.
    pub fn clear(&mut self) {
        self.forget_oldest(0);
        self.shared = None;
    }

    /// Serializes the window (capacity + every observation, oldest first).
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.capacity());
        writer.usize(self.len());
        for (features, cycles) in self.iter() {
            for index in 0..FEATURE_COUNT {
                writer.f64(features.get_index(index));
            }
            writer.f64(cycles);
        }
    }

    /// Restores a window saved by [`History::save_state`] into a history of
    /// the same capacity.
    ///
    /// A snapshot is outside input and its checksum is not cryptographic, so
    /// this is the second writer the sanitiser rule of [`History::push`]
    /// binds: a value `push` could not have stored is a corrupt snapshot.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let capacity = reader.usize()?;
        if capacity != self.capacity() {
            return Err(StateError::mismatch("history capacity", capacity, self.capacity()));
        }
        let entries = reader.usize()?;
        if entries > capacity {
            return Err(StateError::corrupt(format!(
                "history holds {entries} observations but its capacity is {capacity}"
            )));
        }
        self.clear();
        for observation in 0..entries {
            let mut values = [0.0; FEATURE_COUNT];
            for value in &mut values {
                *value = reader.f64()?;
            }
            let cycles = reader.f64()?;
            if let Some(feature) = values.iter().position(|&value| !storable(value)) {
                return Err(unstorable(
                    observation,
                    &format!("feature {feature}"),
                    values[feature],
                ));
            }
            if !storable(cycles) {
                return Err(unstorable(observation, "response", cycles));
            }
            self.store(&FeatureVector::from_values(values), cycles);
        }
        Ok(())
    }
}

/// Whether [`History::push`] could have stored `value`: the clamp leaves it
/// bit-for-bit alone.
fn storable(value: f64) -> bool {
    clamp_sample(value).to_bits() == value.to_bits()
}

fn unstorable(observation: usize, slot: &str, value: f64) -> StateError {
    StateError::corrupt(format!(
        "history observation {observation} {slot} holds {value}, outside the stored range \
         [0, {MAX_SAMPLE:e}]"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest_when_full() {
        let mut h = History::new(3);
        for i in 0..5 {
            h.push(FeatureVector::zeros(), i as f64);
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.responses(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn feature_column_tracks_feature_values() {
        let mut h = History::new(4);
        for i in 0..3 {
            let mut f = FeatureVector::zeros();
            f.set(netshed_features::FeatureId::Packets, i as f64 * 10.0);
            h.push(f, 0.0);
        }
        assert_eq!(h.feature_column(0), vec![0.0, 10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "history capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = History::new(0);
    }

    #[test]
    fn push_never_stores_non_finite_values() {
        let mut h = History::new(4);
        let mut f = FeatureVector::zeros();
        f.set(netshed_features::FeatureId::Packets, f64::NAN);
        f.set(netshed_features::FeatureId::Bytes, f64::INFINITY);
        h.push(f, f64::NAN);
        h.push(FeatureVector::zeros(), f64::NEG_INFINITY);
        for (features, cycles) in h.iter() {
            assert!(cycles.is_finite() && cycles >= 0.0);
            for index in 0..FEATURE_COUNT {
                assert!(features.get_index(index).is_finite());
            }
        }
        assert_eq!(h.responses(), vec![0.0, 0.0]);
    }

    #[test]
    fn load_state_rejects_what_push_could_not_have_stored() {
        let mut saved = History::new(4);
        let mut f = FeatureVector::zeros();
        f.set(netshed_features::FeatureId::Packets, 120.0);
        f.set(netshed_features::FeatureId::Bytes, -0.0);
        saved.push(f, 3.5e6);
        saved.push(f, MAX_SAMPLE);
        let mut writer = StateWriter::new();
        saved.save_state(&mut writer);
        let bytes = writer.into_bytes();

        // A valid window round-trips byte for byte (the stored -0.0 too).
        let mut restored = History::new(4);
        restored.load_state(&mut StateReader::new(&bytes)).expect("valid snapshot");
        let mut again = StateWriter::new();
        restored.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);

        // Overwrite the first observation's response, then its feature 1.
        let header = 2 * std::mem::size_of::<u64>();
        let response_at = header + FEATURE_COUNT * 8;
        let feature_at = header + 8;
        for (offset, slot) in [(response_at, "response"), (feature_at, "feature 1")] {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, MAX_SAMPLE * 2.0] {
                let mut crafted = bytes.clone();
                crafted[offset..offset + 8].copy_from_slice(&poison.to_le_bytes());
                let error = History::new(4)
                    .load_state(&mut StateReader::new(&crafted))
                    .expect_err("a value push() cannot store must be rejected");
                let message = error.to_string();
                assert!(
                    message.contains("observation 0") && message.contains(slot),
                    "{poison} in {slot}: {message}"
                );
            }
        }
    }

    #[test]
    fn forget_oldest_keeps_the_newest_window() {
        let mut h = History::new(10);
        for i in 0..7 {
            h.push(FeatureVector::zeros(), f64::from(i));
        }
        h.forget_oldest(3);
        assert_eq!(h.responses(), vec![4.0, 5.0, 6.0]);
        h.forget_oldest(5);
        assert_eq!(h.len(), 3, "forgetting never grows the window");
        h.forget_oldest(0);
        assert!(h.is_empty());
    }
}
