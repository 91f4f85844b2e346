//! The feature window an engine's predictors share.
//!
//! In a bin where nothing is shed every query's history stores the *same*
//! 42-feature row — only the response differs — so the feature side of FCBF
//! (column means, variances, the centred rows, the feature–feature
//! covariances of the redundancy phase) is a property of the window, not of
//! a query. A [`FeatureWindow`] keeps the engine's last
//! [`FeatureWindow::ROWS`] full-batch rows and computes that side lazily,
//! once per bin, for every predictor whose [`History`](crate::History) is
//! [aligned](crate::History::aligned_with) with it; the others compute the
//! same moments over their own rows, as a stand-alone predictor does.
//!
//! The same holds one step later. An aligned predictor regresses its own
//! responses on the window's rows, so its design matrix — an intercept and
//! the columns it selected, in FCBF's order — and that matrix's SVD are a
//! function of the window and the ordered selection alone. The window keeps
//! one factorisation per ordered selection asked for since the last push,
//! and every aligned predictor that selected that sequence projects its
//! responses onto it ([`OlsWorkspace::solve_decomposed`]).
//!
//! The window shares the feature side only. Whole predictions are shared one
//! level up, by the engine: tenants whose inputs the plan proves equal follow
//! one predictor (DESIGN.md, "Cohorts"), so no two predictors of one engine
//! are asked the same question in a bin by construction, not by comparison.
//!
//! The window is a cache of pure functions of the rows pushed to it: it is
//! never serialised and never reaches a digest, and what it returns is the
//! value the private computation returns, operation for operation
//! ([`fcbf_select_in`](crate::fcbf_select_in)). Each cached moment and fit
//! sits in a [`OnceLock`], so predictors dispatched across worker threads may
//! race to fill one — a single initialiser runs, the others wait and read the
//! value it stored, and that value does not depend on who won.
//!
//! [`OlsWorkspace::solve_decomposed`]: netshed_linalg::OlsWorkspace::solve_decomposed

use crate::fcbf::{column_means, ColumnMoments, SUM_LANES};
use crate::guard::clamp_features;
use crate::history::RowRing;
use netshed_features::{FeatureVector, FEATURE_COUNT};
use netshed_linalg::{Matrix, Svd, SvdWorkspace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Source of window identities. Only ever compared for equality (a history
/// must not mistake another window's sequence numbers for its own), so the
/// order windows are built in changes nothing observable.
static NEXT_WINDOW: AtomicU64 = AtomicU64::new(0);

/// The last [`FeatureWindow::ROWS`] full-batch feature rows of one engine,
/// with the feature side of FCBF and the factorisation of each selected
/// design, computed at most once per push.
#[derive(Debug)]
pub struct FeatureWindow {
    id: u64,
    /// Sequence number of the newest row; pushes number rows 1, 2, 3, …
    newest: u64,
    rows: RowRing,
    cache: Box<Cache>,
}

/// What a push invalidates. Boxed so the window itself stays a few words.
#[derive(Debug)]
struct Cache {
    moments: OnceLock<WindowMoments>,
    /// Per feature `q`, the covariance sum of every column with column `q`.
    with_feature: [OnceLock<[f64; FEATURE_COUNT]>; FEATURE_COUNT],
    /// The head of the factorisations of the current rows.
    fits: FitSlot,
}

/// One factorisation of the current rows, and the slot after it: a list
/// claimed front to back, one slot per ordered selection asked for since the
/// last push.
#[derive(Debug, Default)]
struct FitSlot {
    selection: OnceLock<Selection>,
    fit: OnceLock<SharedFit>,
    /// The buffers of the fit the last push forgot, for the next initialiser
    /// to take. Locked only to take them, never across a decomposition; any
    /// contents are valid (a fit overwrites them), so poisoning is ignored.
    spare: Mutex<SharedFit>,
    /// Allocated the first time a push is asked for more distinct selections
    /// than any push before it — growth to a new high-water mark — and kept,
    /// like every slot's buffers, across pushes.
    next: OnceLock<Box<FitSlot>>,
}

/// A design matrix and its SVD.
#[derive(Debug, Default)]
struct SharedFit {
    design: Matrix,
    svd: SvdWorkspace,
}

/// An ordered selection as a key: FCBF's order is the design's column order,
/// so `[0, 7]` and `[7, 0]` are different matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Selection {
    len: usize,
    features: [u8; FEATURE_COUNT],
}

impl Selection {
    /// # Panics
    ///
    /// Panics unless `selected` is at most [`FEATURE_COUNT`] feature indices,
    /// as every selection FCBF makes or a snapshot restores is.
    fn of(selected: &[usize]) -> Self {
        assert!(selected.len() <= FEATURE_COUNT, "a selection is at most every feature once");
        let mut features = [0; FEATURE_COUNT];
        for (key, &feature) in features.iter_mut().zip(selected) {
            assert!(feature < FEATURE_COUNT, "feature index {feature} out of range");
            *key = feature as u8;
        }
        Self { len: selected.len(), features }
    }
}

impl FitSlot {
    /// The slot of `selection`, claiming the first free one if no slot holds
    /// it yet. Two tasks asking for one selection find the same slot: each
    /// walks from the front, and a slot's selection is set once.
    fn claim(&self, selection: &Selection) -> &FitSlot {
        let mut slot = self;
        while slot.selection.get_or_init(|| *selection) != selection {
            slot = slot.next.get_or_init(Box::default);
        }
        slot
    }

    /// Forgets every selection and fit from here on, keeping the buffers.
    fn forget(&mut self) {
        // Slots are claimed front to back: past a free one all are free.
        if self.selection.take().is_some() {
            if let Some(fit) = self.fit.take() {
                *self.spare.get_mut().unwrap_or_else(PoisonError::into_inner) = fit;
            }
            if let Some(next) = self.next.get_mut() {
                next.forget();
            }
        }
    }

    fn decompositions(&self) -> usize {
        usize::from(self.fit.get().is_some())
            + self.next.get().map_or(0, |next| next.decompositions())
    }
}

/// The window's column moments and its rows centred on the column means.
#[derive(Debug)]
pub(crate) struct WindowMoments {
    pub(crate) columns: ColumnMoments,
    len: usize,
    centred: [[f64; FEATURE_COUNT]; FeatureWindow::ROWS],
}

impl WindowMoments {
    /// `row[j] - mean[j]` for every row of the window, oldest first.
    pub(crate) fn centred_rows(&self) -> &[[f64; FEATURE_COUNT]] {
        &self.centred[..self.len]
    }

    /// Every column's covariance sum with a response, given the response
    /// centred on its own mean (one value per row, oldest first): all a
    /// query has to add to the window's moments to correlate its cost with
    /// the 42 features.
    pub(crate) fn covariance_with_response(&self, centred: &[f64]) -> [f64; FEATURE_COUNT] {
        let mut covariance = [0.0; FEATURE_COUNT];
        // A block of lanes at a time, as `fcbf_select_in`'s own passes.
        for (block, covariance) in covariance.chunks_exact_mut(SUM_LANES).enumerate() {
            let lanes = block * SUM_LANES..(block + 1) * SUM_LANES;
            let mut sums = [0.0; SUM_LANES];
            for (da, db) in self.centred_rows().iter().zip(centred) {
                for (sum, da) in sums.iter_mut().zip(&da[lanes.clone()]) {
                    *sum += da * db;
                }
            }
            covariance.copy_from_slice(&sums);
        }
        covariance
    }

    // Each loop indexes several lane arrays at once; the 20 KB of centred
    // rows are built on the stack and moved into the cache because a value
    // recomputed every bin must not touch the heap.
    #[allow(clippy::needless_range_loop, clippy::large_stack_arrays)]
    fn of(rows: &RowRing) -> Self {
        let mean = column_means(rows);
        let mut variance = [0.0; FEATURE_COUNT];
        let mut centred = [[0.0; FEATURE_COUNT]; FeatureWindow::ROWS];
        for (features, centred) in rows.iter().zip(centred.iter_mut()) {
            let row = features.as_array();
            for j in 0..FEATURE_COUNT {
                let da = row[j] - mean[j];
                variance[j] += da * da;
                centred[j] = da;
            }
        }
        let columns = ColumnMoments { mean, variance, deviation: variance.map(f64::sqrt) };
        Self { columns, len: rows.len(), centred }
    }
}

impl Default for FeatureWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureWindow {
    /// Rows a window holds: the default regression history length
    /// ([`MlrConfig::default`](crate::MlrConfig)), which is the only length
    /// at which a full history can align with it.
    pub const ROWS: usize = 60;

    /// Creates an empty window.
    pub fn new() -> Self {
        Self {
            id: NEXT_WINDOW.fetch_add(1, Ordering::Relaxed),
            newest: 0,
            rows: RowRing::new(Self::ROWS),
            cache: Box::new(Cache {
                moments: OnceLock::new(),
                with_feature: std::array::from_fn(|_| OnceLock::new()),
                fits: FitSlot::default(),
            }),
        }
    }

    /// Number of rows currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the bin's full-batch feature vector, sanitised as
    /// [`History::push`](crate::History::push) sanitises, evicting the
    /// oldest row if full, and forgets everything computed for the previous
    /// rows (recycling the factorisations' buffers).
    pub fn push(&mut self, features: &FeatureVector) {
        self.rows.push(&clamp_features(features));
        self.newest += 1;
        self.cache.moments = OnceLock::new();
        for slot in &mut self.cache.with_feature {
            *slot = OnceLock::new();
        }
        self.cache.fits.forget();
    }

    /// How many design matrices were decomposed for the current rows: one
    /// per distinct ordered selection an aligned predictor regressed on.
    /// Exposed for the sharing tests only.
    #[doc(hidden)]
    pub fn decompositions(&self) -> usize {
        self.cache.fits.decompositions()
    }

    /// The newest row, as sanitised by [`FeatureWindow::push`].
    ///
    /// # Panics
    ///
    /// Panics if nothing was pushed yet.
    pub fn newest(&self) -> &FeatureVector {
        match self.rows.newest() {
            Some(row) => row,
            None => panic!("an empty feature window has no newest row"),
        }
    }

    /// This window's identity and the sequence number of its newest row.
    pub(crate) fn stamp(&self) -> (u64, u64) {
        (self.id, self.newest)
    }

    pub(crate) fn moments(&self) -> &WindowMoments {
        self.cache.moments.get_or_init(|| WindowMoments::of(&self.rows))
    }

    /// The covariance sum of every column with column `kept`: the row the
    /// redundancy phase reads once `kept` is a selected feature.
    pub(crate) fn covariance_with(&self, kept: usize) -> &[f64; FEATURE_COUNT] {
        self.cache.with_feature[kept].get_or_init(|| {
            let mut with_kept = [0.0; FEATURE_COUNT];
            for centred in self.moments().centred_rows() {
                let db = centred[kept];
                for (sum, da) in with_kept.iter_mut().zip(centred) {
                    *sum += da * db;
                }
            }
            with_kept
        })
    }

    /// The SVD of the design matrix over these rows for the ordered
    /// selection `selected` ([`RowRing::fill_design`]): decomposed by the
    /// first aligned predictor to ask this push, read by the others.
    pub(crate) fn decomposition(&self, selected: &[usize]) -> &Svd {
        let slot = self.cache.fits.claim(&Selection::of(selected));
        let fit = slot.fit.get_or_init(|| {
            let mut fit =
                std::mem::take(&mut *slot.spare.lock().unwrap_or_else(PoisonError::into_inner));
            self.rows.fill_design(selected, &mut fit.design);
            fit.svd.decompose(&fit.design);
            fit
        });
        fit.svd.decomposition()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use netshed_features::FeatureId;

    fn row(seed: f64) -> FeatureVector {
        let mut features = FeatureVector::zeros();
        features.set(FeatureId::Packets, 100.0 + seed);
        features.set(FeatureId::Bytes, 1e4 * (seed + 1.0));
        features
    }

    #[test]
    fn pushes_are_sanitised_numbered_and_bounded() {
        let mut window = FeatureWindow::new();
        assert!(window.is_empty());
        let mut poisoned = row(0.0);
        poisoned.set(FeatureId::Packets, f64::NAN);
        window.push(&poisoned);
        assert_eq!(window.newest().packets(), 0.0);
        for bin in 0..2 * FeatureWindow::ROWS {
            window.push(&row(bin as f64));
        }
        assert_eq!(window.len(), FeatureWindow::ROWS);
        assert_eq!(window.stamp().1, 2 * FeatureWindow::ROWS as u64 + 1);
        assert_ne!(window.stamp().0, FeatureWindow::new().stamp().0);
    }

    #[test]
    fn a_push_forgets_the_cached_moments() {
        let mut window = FeatureWindow::new();
        window.push(&row(1.0));
        window.push(&row(2.0));
        let before = window.moments().columns.mean[0];
        let covariance = window.covariance_with(0)[1];
        window.push(&row(9.0));
        assert_ne!(window.moments().columns.mean[0].to_bits(), before.to_bits());
        assert_ne!(window.covariance_with(0)[1].to_bits(), covariance.to_bits());
    }

    #[test]
    fn one_decomposition_per_ordered_selection_and_push() {
        let mut window = FeatureWindow::new();
        for bin in 0..5 {
            window.push(&row(f64::from(bin)));
        }
        fn private(window: &FeatureWindow, selected: &[usize]) -> Svd {
            let mut design = Matrix::default();
            window.rows.fill_design(selected, &mut design);
            SvdWorkspace::default().decompose(&design).clone()
        }
        let selections: Vec<Vec<usize>> =
            (2..6).map(|feature| vec![0, feature]).chain([vec![1, 0], vec![0, 1]]).collect();
        for selected in selections.iter().chain(&selections) {
            let shared = window.decomposition(selected);
            assert_eq!(shared.u, private(&window, selected).u, "{selected:?}");
            assert_eq!(shared.v, private(&window, selected).v, "{selected:?}");
        }
        assert_eq!(window.decompositions(), selections.len(), "[0, 1] and [1, 0] differ");
        window.push(&row(9.0));
        assert_eq!(window.decompositions(), 0, "a push forgets every fit");
        let after = window.decomposition(&[0, 1]).singular_values.clone();
        assert_eq!(after, private(&window, &[0, 1]).singular_values);
        assert_eq!(window.decompositions(), 1);
    }

    /// Eight identical tenants predicting at once against one window race
    /// for its moments and for one factorisation every bin: whichever fills
    /// a slot first stores it, and each of them — filling or reading —
    /// matches a stand-alone twin bit for bit, selection and modelled cost
    /// included.
    #[test]
    fn racing_identical_predictors_match_a_stand_alone_twin() {
        use crate::predictor::{MlrPredictor, Predictor};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::Barrier;

        const TENANTS: usize = 8;
        let mut rng = StdRng::seed_from_u64(8);
        let mut window = FeatureWindow::new();
        let mut tenants: Vec<MlrPredictor> =
            (0..TENANTS).map(|_| MlrPredictor::with_defaults()).collect();
        let mut twin = MlrPredictor::with_defaults();
        let barrier = Barrier::new(TENANTS);
        for bin in 0..120 {
            let mut features = FeatureVector::zeros();
            features.set(FeatureId::Packets, rng.gen_range(500.0..1500.0));
            features.set(FeatureId::Bytes, rng.gen_range(1e5..8e5));
            features.set(FeatureId::from_index(6), rng.gen_range(50.0..400.0));
            let predictions: Vec<f64> = std::thread::scope(|scope| {
                let (window, barrier) = (&window, &barrier);
                let running: Vec<_> = tenants
                    .iter_mut()
                    .map(|tenant| {
                        scope.spawn(move || {
                            barrier.wait();
                            tenant.predict_shared(window, &features)
                        })
                    })
                    .collect();
                running.into_iter().map(|task| task.join().expect("a tenant panicked")).collect()
            });
            let want = twin.predict(&features);
            for (tenant, got) in tenants.iter().zip(&predictions) {
                assert_eq!(got.to_bits(), want.to_bits(), "bin {bin}: {got} vs {want}");
                assert_eq!(tenant.selected_features(), twin.selected_features(), "bin {bin}");
                assert_eq!(tenant.last_cost_operations(), twin.last_cost_operations(), "bin {bin}");
            }
            let regressed = twin.history().len() >= 3;
            assert_eq!(window.decompositions(), usize::from(regressed), "bin {bin}: one fit");

            // The cost follows the packets, then from bin 60 the bytes.
            let driver = if bin < 60 { features.packets() * 900.0 } else { features.bytes() * 2.0 };
            let cycles = 1e5 + driver + 40.0 * features.get(FeatureId::from_index(6));
            window.push(&features);
            for tenant in &mut tenants {
                tenant.observe_shared(&window, cycles, false);
            }
            twin.observe(&features, cycles);
        }
        assert!(tenants.iter().all(|tenant| tenant.history().aligned_with(&window)));
    }

    /// The alignment rule, case by case: a history is aligned exactly while
    /// every row it holds came from this window on consecutive pushes and
    /// the two hold equally many.
    #[test]
    fn alignment_follows_the_three_conditions() {
        let mut window = FeatureWindow::new();
        let mut history = History::new(FeatureWindow::ROWS);
        assert!(!history.aligned_with(&window), "nothing shared yet");
        for bin in 0..10 {
            window.push(&row(f64::from(bin)));
            history.push_newest(&window, 1.0);
            assert!(history.aligned_with(&window));
        }

        // The window moved on without the history: not its newest row.
        window.push(&row(10.0));
        assert!(!history.aligned_with(&window));
        // Taking the next row leaves a gap in the sequence: the run restarts
        // and covers the whole history only once the gap has been evicted.
        window.push(&row(11.0));
        history.push_newest(&window, 1.0);
        assert!(!history.aligned_with(&window));
        for bin in 12..10 + FeatureWindow::ROWS {
            window.push(&row(bin as f64));
            history.push_newest(&window, 1.0);
            assert!(!history.aligned_with(&window), "bin {bin}");
        }
        window.push(&row(0.5));
        history.push_newest(&window, 1.0);
        assert!(history.aligned_with(&window), "the run covers the full history again");

        // A private row breaks the run; trimming breaks the length equality.
        let mut private = history.clone();
        private.push(row(3.0), 1.0);
        assert!(!private.aligned_with(&window));
        let mut trimmed = history.clone();
        trimmed.forget_oldest(6);
        assert!(!trimmed.aligned_with(&window));

        // Another window's sequence numbers prove nothing.
        let mut other = FeatureWindow::new();
        for bin in 0..window.stamp().1 {
            other.push(&row(bin as f64));
        }
        assert_eq!(other.stamp().1, window.stamp().1);
        assert!(!history.aligned_with(&other));
    }
}
