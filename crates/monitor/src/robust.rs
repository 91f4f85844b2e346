//! The control-plane half of the robustness plane: graceful degradation
//! under predictor-gaming traffic, and the non-cooperative adversary the
//! defense is evaluated against.
//!
//! Chapter 3's predictor assumes the traffic is *indifferent* to the
//! monitor: features that were cheap yesterday are cheap today. An
//! adversary breaks that assumption on purpose — payloads crafted against
//! the Boyer-Moore skip table, flow churn against the state-query hash
//! tables, aggregate-key skew against flow sampling — so the predicted
//! cycles systematically *under*-estimate the bin cost and the predictive
//! scheme admits far more work than the capacity can absorb.
//!
//! Two policies live here:
//!
//! * [`DegradationGuard`] wraps any inner [`ControlPolicy`] with a per-bin
//!   tripwire on three overload symptoms. While the predictions track reality
//!   the inner decisions pass through untouched (bit-identical — the guard
//!   adds no arithmetic to the healthy path). A bin is *bad* when the
//!   cycles its queries actually consumed exceed what the guard's own
//!   previous decision committed to — Σ prediction × rate × the policy's
//!   own error-EWMA inflation, so drift the inner policy is already
//!   compensating for does not count — by more than `TRIP_RATIO`, **or**
//!   when it dropped packets without control (an overloaded bin caps its
//!   consumption at roughly the capacity, so the cycle ratio alone can be
//!   gamed into silence while drops pile up), **or** when the budget debt
//!   left by an earlier overrun forced it fully dark — zero rates commit
//!   zero cycles, so a single catastrophically under-predicted bin would
//!   otherwise pay itself off through bins that produce no ratio evidence
//!   at all. After `TRIP_BINS` consecutive
//!   bad bins the guard degrades: rates come from a conservative reactive
//!   fallback (Eq. 4.1 in query denomination, spread with equal rates,
//!   with the rebound after an over-shed bin rationed and the rate halved
//!   again while drops persist,
//!   so the feedback loop cannot oscillate) and every decision carries
//!   [`DecisionReason::DegradedFallback`] so observers — and the
//!   `scenarios` CLI — can see the tripwire state per bin. Recovery is
//!   hysteretic: only after `RECOVER_BINS` consecutive bins whose error
//!   ratio is back under `RECOVER_RATIO` does the guard trust the
//!   predictions again. The thresholds are constants, tuned once; that the
//!   two ratios form a hysteresis band is checked at compile time.

use crate::capture::bounded;
use crate::policy::{
    spread_global_rate, ControlContext, ControlDecision, ControlPolicy, DecisionReason,
};
use netshed_fairness::EqualRates;
use netshed_sketch::{StateError, StateReader, StateWriter};

/// Per-bin multiplicative cap on how fast the degraded fallback rate may
/// rebound after an over-shed bin. Without it the Eq. 4.1 feedback loop
/// oscillates under a persistently gamed predictor: one over-shed bin makes
/// the next ratio huge, the rate snaps back to the clamp and the bin after
/// that overloads again.
const FALLBACK_GROWTH: f64 = 2.0;

/// Eq. 4.1 in *query* denomination: scale the previous bin's mean rate by
/// how far its query-cycle consumption was from the query budget (available
/// cycles net of the shedding mechanism's own smoothed cost). The classic
/// form divides the budget by [`prev_total_cycles`](ControlContext), but
/// the total includes the fixed capture/prediction overheads that do not
/// scale with the sampling rate — at low rates they dominate, the quotient
/// has no fixed point above the floor, and the fallback starves every
/// query. Query cycles against the query budget equilibrate instead.
fn query_budget_rate(ctx: &ControlContext<'_>) -> f64 {
    let budget = (ctx.available_cycles - ctx.shed_cycles_ewma).max(0.0);
    if ctx.prev_query_cycles > 0.0 && ctx.prev_mean_rate > 0.0 {
        (ctx.prev_mean_rate * budget / ctx.prev_query_cycles).clamp(ctx.rate_floor, 1.0)
    } else {
        // No consumption evidence (a dark or first bin): hold the previous
        // rate rather than snapping open — the rebound rationing grows it.
        ctx.prev_mean_rate.clamp(ctx.rate_floor, 1.0)
    }
}

/// Multiplicative backoff applied to the fallback rate when a bin dropped
/// packets without control. On a drop bin the consumed cycles are capped at
/// roughly the capacity — the excess packets never got to cost anything —
/// so Eq. 4.1 barely reacts; halving converges onto the drop-free operating
/// point in a few bins instead.
const DROP_BACKOFF: f64 = 0.5;

/// A bin is *bad* when its query cycles exceed the cycles the guard's
/// previous decision committed to by more than this factor.
const TRIP_RATIO: f64 = 2.0;

/// Consecutive bad bins before the guard degrades.
const TRIP_BINS: u32 = 2;

/// While degraded, a bin is *good* when its error ratio is at or below this
/// factor.
const RECOVER_RATIO: f64 = 1.5;

/// Consecutive good bins before the guard trusts predictions again.
const RECOVER_BINS: u32 = 4;

/// Bins at the start of a run during which the tripwire is disarmed. A cold
/// predictor mispredicts wildly until its history warms up; those errors are
/// expected and self-correcting, and tripping on them would leave the guard
/// degraded before any attack could begin.
const WARMUP_BINS: u64 = 10;

// The recovery ratio sits in `[1, TRIP_RATIO]`: the hysteresis band that
// keeps the guard from flapping at the threshold. Both streaks need a bin.
const _: () = assert!(1.0 <= RECOVER_RATIO && RECOVER_RATIO <= TRIP_RATIO);
const _: () = assert!(TRIP_BINS > 0 && RECOVER_BINS > 0);

/// Wraps a [`ControlPolicy`] with an under-prediction tripwire and a
/// conservative reactive fallback: graceful degradation when the predictor
/// is being gamed, hysteretic recovery when the attack stops.
///
/// Strictly opt-in — none of the built-in [`Strategy`](crate::Strategy)
/// configurations construct one, so the pinned golden corpus is unaffected.
/// Install with [`MonitorBuilder::with_policy`](crate::MonitorBuilder):
///
/// ```
/// use netshed_monitor::{DegradationGuard, Monitor, PredictivePolicy};
/// use netshed_fairness::EqualRates;
///
/// let guard = || DegradationGuard::new(PredictivePolicy::new(EqualRates));
/// let monitor = Monitor::builder().capacity(1e9).with_policy(guard).build().unwrap();
/// assert_eq!(monitor.policy_name(), "guarded_eq_srates");
/// ```
pub struct DegradationGuard {
    inner: Box<dyn ControlPolicy>,
    /// Cycles the previous decision committed to
    /// (Σ prediction × rate × inflation — the policy's own EWMA-corrected
    /// expectation, so a predictor error the inner policy is already
    /// compensating for does not read as an attack);
    /// `None` before the first decision and after a zero-rate bin.
    expected: Option<f64>,
    /// The rate the fallback used last bin, rationing the rebound to
    /// [`FALLBACK_GROWTH`]; `None` while healthy.
    fallback_rate: Option<f64>,
    /// The previous decision committed zero cycles because the budget was
    /// in debt: the bin went fully dark paying off an earlier overrun. Dark
    /// bins produce no cycle-ratio evidence at all, which is exactly how a
    /// single catastrophically under-predicted bin escapes the tripwire —
    /// its overrun is served as budget debt by the bins after it.
    prev_dark_debt: bool,
    /// Consecutive bad bins observed while healthy.
    bad: u32,
    /// Consecutive good bins observed while degraded.
    good: u32,
    degraded: bool,
    /// Times the tripwire has fired over the run.
    trips: u64,
}

impl DegradationGuard {
    /// Guards `inner`, spreading the fallback rate with the Chapter 4
    /// equal-rates scheme.
    pub fn new(inner: impl ControlPolicy + 'static) -> Self {
        Self {
            inner: Box::new(inner),
            expected: None,
            fallback_rate: None,
            prev_dark_debt: false,
            bad: 0,
            good: 0,
            degraded: false,
            trips: 0,
        }
    }

    /// Number of times the tripwire has fired.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Folds the previous bin's outcome into the tripwire state.
    fn observe_previous_bin(&mut self, ctx: &ControlContext<'_>) {
        if ctx.bin_index < WARMUP_BINS {
            self.expected = None;
            self.prev_dark_debt = false;
            return;
        }
        let dark_debt = std::mem::take(&mut self.prev_dark_debt);
        let ratio = match self.expected.take() {
            Some(expected) if expected > 0.0 && ctx.prev_query_cycles > 0.0 => {
                Some(ctx.prev_query_cycles / expected)
            }
            _ => None,
        };
        // A bin that dropped packets without control is overloaded by
        // definition, whatever the cycle ratio says: consumption is capped
        // at roughly the capacity because the excess packets were dropped
        // before they could cost anything, which is exactly how a gamed
        // predictor hides its overshoot.
        let dropped = ctx.uncontrolled_drops > 0;
        if self.degraded {
            let good = !dropped && !dark_debt && ratio.is_none_or(|r| r <= RECOVER_RATIO);
            self.good = if good { self.good + 1 } else { 0 };
            if self.good >= RECOVER_BINS {
                self.degraded = false;
                self.bad = 0;
                self.good = 0;
            }
        } else {
            let bad = dropped || dark_debt || ratio.is_some_and(|r| r > TRIP_RATIO);
            if bad {
                self.count_bad();
            } else if ratio.is_some() {
                self.bad = 0;
            }
            // A bin with no evidence either way — zero committed cycles and
            // no drops — leaves the streak untouched: absence of evidence is
            // not evidence of health.
        }
    }

    /// Counts one bad bin while healthy, tripping on the streak's last.
    fn count_bad(&mut self) {
        self.bad += 1;
        if self.bad >= TRIP_BINS {
            self.degraded = true;
            self.trips += 1;
            self.good = 0;
        }
    }
}

/// The cycles `decision` commits to: Σ prediction × rate.
fn committed_cycles(ctx: &ControlContext<'_>, decision: &ControlDecision) -> f64 {
    ctx.predictions.iter().zip(&decision.rates).map(|(p, r)| p * r).sum()
}

impl ControlPolicy for DegradationGuard {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        self.observe_previous_bin(ctx);
        // The inner policy always decides, even while degraded: its
        // cross-bin state (EWMA feedback, hysteresis level) must keep
        // tracking reality or recovery would hand control back to a policy
        // frozen in its pre-attack past.
        let mut decision = self.inner.decide(ctx);
        // The inner policy's error-EWMA inflation is the best available
        // estimate of the predictor's current bias, and it keeps tracking
        // reality while degraded; the fallback decision itself carries no
        // inflation, so using the raw committed cycles there would hold the
        // error ratio above `recover_ratio` forever once the predictor has
        // a chronic bias and recovery would never happen.
        let inflation = decision.inflation;
        // Forced dark by debt: the inner policy commits nothing because an
        // earlier overrun left no query budget — the available cycles, if
        // any, do not even cover the shedder's own smoothed cost. That is
        // bad evidence however thin the sliver left. While degraded it ends
        // the good streak; while healthy, when it completes the bad streak
        // the guard trips for this very bin, whose fallback then runs lit at
        // the floor instead of dark (otherwise the next bin counts it).
        let dark_debt =
            committed_cycles(ctx, &decision) <= 0.0 && ctx.available_cycles <= ctx.shed_cycles_ewma;
        if dark_debt && ctx.bin_index >= WARMUP_BINS {
            if self.degraded {
                self.good = 0;
            } else if self.bad + 1 >= TRIP_BINS {
                self.count_bad();
            }
        }
        if self.degraded {
            let target = query_budget_rate(ctx);
            let dropped = ctx.uncontrolled_drops > 0;
            let rate = if ctx.available_cycles <= 0.0 {
                // The budget is in debt from a previous overrun: there is no
                // sustainable rate to track, so sit at the floor until the
                // debt is paid instead of deepening the spiral.
                ctx.rate_floor
            } else if let Some(prev) = self.fallback_rate {
                if dropped {
                    // Eq. 4.1 is blind on a drop bin — consumption was
                    // capped at capacity by the drops themselves — so ignore
                    // the target and back off outright.
                    (prev * DROP_BACKOFF).max(ctx.rate_floor)
                } else {
                    // Track the Eq. 4.1 target, shedding harder instantly
                    // but rationing the rebound so one over-shed bin cannot
                    // bounce the loop straight back into overload.
                    target.min((prev * FALLBACK_GROWTH).max(ctx.rate_floor))
                }
            } else if dropped {
                // Entering the fallback on a drop bin: Eq. 4.1 is blind to
                // the drop-capped consumption, so halve the previous mean
                // rate instead.
                (ctx.prev_mean_rate * DROP_BACKOFF).clamp(ctx.rate_floor, 1.0)
            } else {
                target
            };
            self.fallback_rate = Some(rate);
            decision = spread_global_rate(&EqualRates, rate, ctx.demands);
            decision.reason = DecisionReason::DegradedFallback;
        } else {
            self.fallback_rate = None;
        }
        let committed = committed_cycles(ctx, &decision);
        let expected = committed * inflation;
        self.expected = (expected > 0.0).then_some(expected);
        // Still dark: the next bin counts it.
        self.prev_dark_debt = dark_debt && committed <= 0.0;
        decision
    }

    fn name(&self) -> String {
        format!("guarded_{}", self.inner.name())
    }

    fn needs_measured_cycles(&self) -> bool {
        self.inner.needs_measured_cycles()
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.inner.save_state(writer)?;
        writer.opt_f64(self.expected);
        writer.opt_f64(self.fallback_rate);
        writer.bool(self.prev_dark_debt);
        writer.u32(self.bad);
        writer.u32(self.good);
        writer.bool(self.degraded);
        writer.u64(self.trips);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(reader)?;
        let expected = reader.opt_f64()?.map(|v| bounded(v, "guard expected cycles", f64::MAX));
        self.expected = expected.transpose()?;
        let fallback = reader.opt_f64()?.map(|v| bounded(v, "guard fallback rate", 1.0));
        self.fallback_rate = fallback.transpose()?;
        self.prev_dark_debt = reader.bool()?;
        self.bad = reader.u32()?;
        self.good = reader.u32()?;
        self.degraded = reader.bool()?;
        self.trips = reader.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoSheddingPolicy, PredictivePolicy};
    use netshed_fairness::{MmfsCpu, QueryDemand};

    fn ctx<'a>(
        predictions: &'a [f64],
        demands: &'a [QueryDemand],
        available: f64,
    ) -> ControlContext<'a> {
        ControlContext {
            // Past the guard's default cold-start grace, so tripwire tests
            // exercise the armed state.
            bin_index: 42,
            predictions,
            demands,
            available_cycles: available,
            error_ewma: 0.0,
            shed_cycles_ewma: 0.0,
            prev_mean_rate: 1.0,
            prev_total_cycles: 0.0,
            prev_query_cycles: 0.0,
            uncontrolled_drops: 0,
            rate_floor: 0.05,
            measured_cycles: None,
        }
    }

    fn demands_of(predictions: &[f64], min_rate: f64) -> Vec<QueryDemand> {
        predictions.iter().map(|&p| QueryDemand::new(p, min_rate)).collect()
    }

    /// Drives one bin through the guard, reporting `actual` as the query
    /// cycles the *previous* bin consumed.
    fn step(
        guard: &mut DegradationGuard,
        predictions: &[f64],
        available: f64,
        actual: f64,
    ) -> ControlDecision {
        let demands = demands_of(predictions, 0.0);
        let mut context = ctx(predictions, &demands, available);
        context.prev_total_cycles = actual;
        context.prev_query_cycles = actual;
        context.prev_mean_rate = 1.0;
        guard.decide(&context)
    }

    #[test]
    fn healthy_bins_pass_the_inner_decision_through_unchanged() {
        let mut guard = DegradationGuard::new(PredictivePolicy::new(EqualRates));
        let mut plain = PredictivePolicy::new(EqualRates);
        let predictions = [400.0, 600.0];
        let demands = demands_of(&predictions, 0.0);
        let mut context = ctx(&predictions, &demands, 2000.0);
        for bin in 0..10 {
            context.bin_index = bin;
            // Actual tracks the committed expectation exactly: never trips.
            context.prev_query_cycles = if bin == 0 { 0.0 } else { 1000.0 };
            assert_eq!(guard.decide(&context), plain.decide(&context));
            assert!(!guard.degraded);
        }
        assert_eq!(guard.trips(), 0);
    }

    #[test]
    fn sustained_under_prediction_trips_into_degraded_fallback() {
        let mut guard = DegradationGuard::new(NoSheddingPolicy);
        let predictions = [500.0];
        // Bin 0 commits to 500 cycles; every later bin reports 10× that.
        let first = step(&mut guard, &predictions, 1000.0, 0.0);
        assert_eq!(first.reason, DecisionReason::FitsInBudget);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0); // bad 1
        assert!(!guard.degraded, "one bad bin must not trip");
        let tripped = step(&mut guard, &predictions, 1000.0, 5000.0); // bad 2
        assert!(guard.degraded);
        assert_eq!(guard.trips(), 1);
        assert_eq!(tripped.reason, DecisionReason::DegradedFallback);
        // Eq. 4.1 gives 1.0 × 1000 / 5000 = 0.2.
        assert!((tripped.rates[0] - 0.2).abs() < 1e-9, "{:?}", tripped.rates);
    }

    #[test]
    fn a_debt_forced_dark_bin_completes_the_streak_and_runs_lit() {
        // One catastrophically under-predicted bin throws the budget into
        // debt, and the inner policy would pay it off with a fully dark bin
        // that produces no cycle-ratio evidence. The dark bin is the
        // overrun's symptom: it completes the streak at once, and the
        // fallback keeps the bin lit at the floor instead.
        let mut guard = DegradationGuard::new(PredictivePolicy::new(EqualRates));
        let predictions = [500.0];
        let demands = demands_of(&predictions, 0.0);

        let mut first = ctx(&predictions, &demands, 1000.0);
        let decision = guard.decide(&first); // commits 500 cycles
        assert_eq!(decision.rates, vec![1.0]);

        // The bin blew up 10×: bad streak 1, and the budget is now in debt.
        first.available_cycles = -500.0;
        first.prev_total_cycles = 5000.0;
        first.prev_query_cycles = 5000.0;
        let tripped = guard.decide(&first);
        assert!(guard.degraded, "the forced-dark bin must complete the streak");
        assert_eq!(guard.trips(), 1);
        assert_eq!(tripped.reason, DecisionReason::DegradedFallback);
        // Still in debt: the fallback sits at the rate floor, keeping the
        // bin lit instead of dark.
        assert_eq!(tripped.rates, vec![0.05]);
    }

    #[test]
    fn a_sliver_of_budget_does_not_hide_the_debt() {
        // A bin is forced dark when the available cycles do not cover the
        // shedder's own smoothed cost, however far above zero they sit.
        let mut guard = DegradationGuard::new(PredictivePolicy::new(EqualRates));
        let predictions = [500.0];
        let demands = demands_of(&predictions, 0.0);
        let mut bin = ctx(&predictions, &demands, 1000.0);
        let _ = guard.decide(&bin); // commits 500 cycles

        // The bin ran on budget (no bad bin yet), but 248 cycles are left,
        // under the shedder's 300: dark, and not yet a whole streak.
        bin.available_cycles = 248.0;
        bin.shed_cycles_ewma = 300.0;
        bin.prev_query_cycles = 500.0;
        let dark = guard.decide(&bin);
        assert_eq!(dark.rates, vec![0.0], "no query budget: the inner policy goes dark");
        assert!(!guard.degraded, "one bad bin does not complete a streak of {TRIP_BINS}");

        // The next bin counts the dark one (bad 1); one overrun then trips.
        bin.available_cycles = 1000.0;
        bin.shed_cycles_ewma = 0.0;
        bin.prev_query_cycles = 0.0;
        let lit = guard.decide(&bin);
        assert!(!guard.degraded);
        assert_eq!(lit.rates, vec![1.0]);
        bin.prev_query_cycles = 5000.0;
        let _ = guard.decide(&bin);
        assert!(guard.degraded, "the dark bin's evidence must carry into the streak");
    }

    #[test]
    fn recovery_needs_consecutive_good_bins() {
        let mut guard = DegradationGuard::new(NoSheddingPolicy);
        let predictions = [500.0];
        let _ = step(&mut guard, &predictions, 1000.0, 0.0);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        assert!(guard.degraded);

        // The fallback ran at rate 0.2, so a good-bin report of 50 cycles
        // sits well under the committed 500 × 0.2. One good bin short of
        // recovery, a bad one must reset the streak.
        for _ in 1..RECOVER_BINS {
            let _ = step(&mut guard, &predictions, 1000.0, 50.0);
        }
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        assert!(guard.degraded, "a bad bin must reset the recovery streak");
        for _ in 1..RECOVER_BINS {
            let _ = step(&mut guard, &predictions, 1000.0, 50.0);
            assert!(guard.degraded, "recovery needs {RECOVER_BINS} good bins in a row");
        }
        let recovered = step(&mut guard, &predictions, 1000.0, 50.0);
        assert!(!guard.degraded, "{RECOVER_BINS} consecutive good bins must recover");
        assert_eq!(recovered.reason, DecisionReason::FitsInBudget);
        assert_eq!(recovered.rates, vec![1.0]);
    }

    #[test]
    fn fallback_rate_rebounds_gradually_after_over_shedding() {
        let mut guard = DegradationGuard::new(NoSheddingPolicy);
        let predictions = [500.0];
        let _ = step(&mut guard, &predictions, 1000.0, 0.0);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        let tripped = step(&mut guard, &predictions, 1000.0, 5000.0);
        assert!((tripped.rates[0] - 0.2).abs() < 1e-9);

        // The fallback over-shed (tiny actuals), so raw Eq. 4.1 snaps to the
        // clamp — the guard must instead ration the rebound to ×2 per bin
        // rather than bouncing straight back into overload.
        let a = step(&mut guard, &predictions, 1000.0, 50.0);
        assert!((a.rates[0] - 0.4).abs() < 1e-9, "{:?}", a.rates);
        let b = step(&mut guard, &predictions, 1000.0, 50.0);
        assert!((b.rates[0] - 0.8).abs() < 1e-9, "{:?}", b.rates);
        // A drop bin caps consumption at capacity, so the Eq. 4.1 target is
        // meaningless there: the rate halves outright instead.
        let demands = demands_of(&predictions, 0.0);
        let mut dropping = ctx(&predictions, &demands, 1000.0);
        dropping.prev_query_cycles = 900.0;
        dropping.uncontrolled_drops = 17;
        let c = guard.decide(&dropping);
        assert!((c.rates[0] - 0.8 * 0.5).abs() < 1e-9, "{:?}", c.rates);
        // Shedding harder is never rationed: a fresh overload bin drops the
        // rate straight to the Eq. 4.1 target (1000/20000 = 0.05, exactly
        // at the rate floor).
        let d = step(&mut guard, &predictions, 1000.0, 20_000.0);
        assert!((d.rates[0] - 0.05).abs() < 1e-9, "{:?}", d.rates);
        // A bin whose budget is already in debt pins the rate to the floor.
        let mut indebted = ctx(&predictions, &demands, -500.0);
        indebted.prev_query_cycles = 900.0;
        let e = guard.decide(&indebted);
        assert!((e.rates[0] - 0.05).abs() < 1e-9, "{:?}", e.rates);
    }

    #[test]
    fn guard_state_survives_a_checkpoint_roundtrip() {
        let mut guard = DegradationGuard::new(NoSheddingPolicy);
        let predictions = [500.0];
        let _ = step(&mut guard, &predictions, 1000.0, 0.0);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        let _ = step(&mut guard, &predictions, 1000.0, 5000.0);
        assert!(guard.degraded);

        let mut writer = StateWriter::new();
        guard.save_state(&mut writer).expect("save");
        let bytes = writer.into_bytes();
        let mut restored = DegradationGuard::new(NoSheddingPolicy);
        let mut reader = StateReader::new(&bytes);
        restored.load_state(&mut reader).expect("load");
        reader.finish().expect("no trailing state");
        assert!(restored.degraded);
        assert_eq!(restored.trips(), 1);

        // Both continue identically.
        let a = step(&mut guard, &predictions, 1000.0, 50.0);
        let b = step(&mut restored, &predictions, 1000.0, 50.0);
        assert_eq!(a, b);
    }

    #[test]
    fn guard_names_compose() {
        assert_eq!(DegradationGuard::new(NoSheddingPolicy).name(), "guarded_no_lshed");
        assert_eq!(
            DegradationGuard::new(PredictivePolicy::new(MmfsCpu)).name(),
            "guarded_mmfs_cpu"
        );
    }
}
