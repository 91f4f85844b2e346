//! The open control plane: pluggable per-bin shedding policies.
//!
//! Algorithm 1 of the paper is a *family* of control schemes — reactive
//! (Eq. 4.1), predictive with three fairness allocators (§5.2), and the
//! idealised variants the evaluation compares against. This module makes the
//! family open: a [`ControlPolicy`] sees everything the monitor knows about a
//! bin ([`ControlContext`]) and answers with the per-query sampling rates
//! plus an introspectable [`ControlDecision`] that flows into the
//! [`BinRecord`](crate::BinRecord) and the
//! [`RunObserver::on_decision`](crate::RunObserver::on_decision) hook.
//!
//! The built-in policies reproduce the paper's schemes — the
//! [`Strategy`](crate::Strategy) enum constructs them, so the enum path and
//! the trait path are bit-identical by construction. (One deliberate
//! behaviour change rode along: reactive configurations whose per-query
//! minimum sampling rates bind now honour them through the allocator
//! instead of silently violating them — see the DESIGN.md control-plane
//! notes; min-rate-free configurations are unchanged.) Two more built-ins
//! open the surface beyond the enum: [`OraclePolicy`] (allocates from the
//! bin's actual measured cycles, the upper bound on every predictor) and
//! [`HysteresisReactivePolicy`] (sheds immediately, recovers slowly).
//!
//! A custom policy is a struct:
//!
//! ```
//! use netshed_monitor::policy::{ControlContext, ControlDecision, ControlPolicy, DecisionReason};
//!
//! /// Sheds to a fixed rate whenever the inflated demand exceeds the budget.
//! struct FixedRate(f64);
//!
//! impl ControlPolicy for FixedRate {
//!     fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
//!         let demand: f64 = ctx.predictions.iter().sum();
//!         if demand <= ctx.available_cycles {
//!             return ControlDecision::full_rates(ctx.predictions.len());
//!         }
//!         ControlDecision {
//!             rates: vec![self.0; ctx.predictions.len()],
//!             reason: DecisionReason::Overload,
//!             ..ControlDecision::full_rates(ctx.predictions.len())
//!         }
//!     }
//!
//!     fn name(&self) -> String {
//!         format!("fixed_{:.2}", self.0)
//!     }
//! }
//! ```
//!
//! and installs by constructor —
//! [`MonitorBuilder::with_policy`](crate::MonitorBuilder::with_policy)`(|| FixedRate(0.5))`
//! — so every lane of a fleet and every daemon restore builds its own.

use crate::capture::bounded;
use netshed_fairness::{Allocation, AllocationStrategy, QueryDemand};
use netshed_sketch::{StateError, StateReader, StateWriter};

/// Everything a [`ControlPolicy`] sees when deciding one bin, in
/// registration order wherever a slice is per-query.
#[derive(Debug, Clone, Copy)]
pub struct ControlContext<'a> {
    /// Index of the time bin being decided.
    pub bin_index: u64,
    /// Per-query predicted full-batch cycles (zero for penalised queries).
    pub predictions: &'a [f64],
    /// Per-query demands: overuse-corrected predicted cycles plus the
    /// minimum sampling rate constraint (`m_q` of Chapter 5).
    pub demands: &'a [QueryDemand],
    /// Cycles available for query processing this bin (capacity minus
    /// overheads, adjusted by buffer discovery and the current delay).
    pub available_cycles: f64,
    /// Smoothed relative under-prediction error (Algorithm 1, line 17).
    pub error_ewma: f64,
    /// Smoothed cycles the shedding mechanism itself consumes per bin.
    pub shed_cycles_ewma: f64,
    /// Mean sampling rate the previous bin ran with (1.0 on the first bin).
    pub prev_mean_rate: f64,
    /// Total cycles the previous bin consumed (0.0 on the first bin).
    pub prev_total_cycles: f64,
    /// Cycles the *queries themselves* consumed the previous bin (0.0 on
    /// the first bin). Unlike [`prev_total_cycles`](Self::prev_total_cycles)
    /// this excludes the capture/extraction/prediction overheads, so it is
    /// directly comparable to the `Σ prediction × rate` a decision commits
    /// to — the denomination the degradation tripwire needs, since the
    /// fixed overheads would otherwise swamp the ratio at low rates.
    pub prev_query_cycles: f64,
    /// Packets dropped without control at the capture buffer this bin —
    /// overflow of the backlog earlier over-admission left behind. Crucial
    /// robustness signal: an overloaded bin *caps* its consumed cycles at
    /// roughly the capacity (the excess packets were dropped before costing
    /// anything), so a gamed predictor can hide an arbitrarily large
    /// overshoot from every cycle ratio while these drops pile up.
    pub uncontrolled_drops: u64,
    /// Floor for reactive-style global rates (the monitor feeds it a
    /// constant, 0.05).
    pub rate_floor: f64,
    /// Per-query *actual* full-batch cycles of this bin, measured by a
    /// shadow execution. Only present when the policy returns `true` from
    /// [`ControlPolicy::needs_measured_cycles`]; queries registered without
    /// a spec fall back to their predicted value.
    pub measured_cycles: Option<&'a [f64]>,
}

/// Why a policy chose the rates it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionReason {
    /// The (inflated) demand fits in the available cycles — nothing is shed.
    #[default]
    FitsInBudget,
    /// Rates follow from previous-bin feedback (Eq. 4.1).
    ReactiveFeedback,
    /// Demand exceeded the budget; an allocator split the shortfall.
    Overload,
    /// The degradation guard tripped: predictions have under-estimated the
    /// consumed cycles for too many consecutive bins (a predictor-gaming
    /// workload or a broken model), so the rates come from the conservative
    /// reactive fallback instead of the untrusted predictions. See
    /// [`DegradationGuard`](crate::robust::DegradationGuard).
    DegradedFallback,
    /// A policy-specific rule not covered by the variants above.
    Custom,
}

/// The introspectable record of one control-plane decision.
///
/// Flows into [`BinRecord::decision`](crate::BinRecord) and the
/// [`RunObserver::on_decision`](crate::RunObserver::on_decision) hook, so
/// experiments can see *why* a bin was shed, not just that it was.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// Per-query sampling rates in registration order (0 = disabled).
    pub rates: Vec<f64>,
    /// Budget handed to the allocator, when one ran: cycles for the
    /// predictive/oracle family, rate-units (`rate × |Q|`) for the reactive
    /// family's minimum-rate conflict resolution. `None` when no allocator
    /// ran (full rates, or a uniform reactive rate that satisfied every
    /// minimum).
    pub budget: Option<f64>,
    /// Demand-inflation factor applied before comparing against the budget
    /// (`1 + error_ewma` for the predictive scheme, 1.0 when unused).
    pub inflation: f64,
    /// Per-query allocation detail, when a fairness allocator ran.
    pub allocations: Option<Vec<Allocation>>,
    /// Why the rates are what they are.
    pub reason: DecisionReason,
}

impl Default for ControlDecision {
    fn default() -> Self {
        Self {
            rates: Vec::new(),
            budget: None,
            inflation: 1.0,
            allocations: None,
            reason: DecisionReason::FitsInBudget,
        }
    }
}

impl ControlDecision {
    /// A decision that sheds nothing: rate 1.0 for every query.
    pub fn full_rates(queries: usize) -> Self {
        Self { rates: vec![1.0; queries], ..Self::default() }
    }

    /// Enforces the data-plane contract on a policy's output: every rate is
    /// clamped into `[0, 1]` (non-finite values collapse to 0), a positive
    /// rate below the query's registered minimum sampling rate disables the
    /// query instead (running below the floor would silently void the
    /// accuracy bound the minimum declares — `{0} ∪ [m_q, 1]` is the valid
    /// domain, exactly what the built-in allocators emit), and the vector is
    /// padded or truncated to one entry per query (missing entries default
    /// to 1.0, i.e. no shedding). The monitor applies this to every decision
    /// so a misbehaving custom policy cannot corrupt the data plane.
    pub(crate) fn sanitized(mut self, demands: &[QueryDemand]) -> Self {
        for (rate, demand) in self.rates.iter_mut().zip(demands) {
            *rate = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 0.0 };
            if *rate > 0.0 && *rate < demand.min_rate {
                *rate = 0.0;
            }
        }
        self.rates.resize(demands.len(), 1.0);
        self
    }
}

/// A pluggable control-plane policy: decides the per-query sampling rates of
/// every bin.
///
/// `decide` is called once per non-empty bin, *after* prediction and *before*
/// any query runs. Policies may keep state across bins (`&mut self`); the
/// monitor guarantees calls arrive in bin order. Determinism contract: the
/// same sequence of contexts must produce the same sequence of decisions, or
/// replay runs stop being reproducible.
pub trait ControlPolicy: Send {
    /// Decides one bin.
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision;

    /// Name used in reports and [`Monitor::policy_name`](crate::Monitor).
    fn name(&self) -> String;

    /// Returns `true` if the monitor should run a shadow execution per query
    /// to measure the *actual* full-batch cycles of each bin and expose them
    /// in [`ControlContext::measured_cycles`]. The shadow work is not charged
    /// against the capacity — it models an idealised oracle, not a deployable
    /// scheme.
    fn needs_measured_cycles(&self) -> bool {
        false
    }

    /// Serializes the policy's cross-bin state for a checkpoint. The default
    /// writes nothing — correct for stateless policies (all the built-ins
    /// except [`HysteresisReactivePolicy`]); stateful policies must override
    /// both hooks or their restored runs diverge from uninterrupted ones.
    fn save_state(&self, _writer: &mut StateWriter) -> Result<(), StateError> {
        Ok(())
    }

    /// Restores state written by [`ControlPolicy::save_state`].
    fn load_state(&mut self, _reader: &mut StateReader<'_>) -> Result<(), StateError> {
        Ok(())
    }
}

impl ControlPolicy for Box<dyn ControlPolicy> {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        self.as_mut().decide(ctx)
    }

    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn needs_measured_cycles(&self) -> bool {
        self.as_ref().needs_measured_cycles()
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.as_ref().save_state(writer)
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.as_mut().load_state(reader)
    }
}

/// Composes a reactive-family policy name: the base alone for the historical
/// default allocator (`eq_srates`), `base_allocator` otherwise.
pub(crate) fn reactive_family_name(base: &str, allocator: &dyn AllocationStrategy) -> String {
    match allocator.name() {
        "eq_srates" => base.to_string(),
        other => format!("{base}_{other}"),
    }
}

/// Equation 4.1: scale the previous bin's mean rate by how far its
/// consumption was from the budget, clamped into `[rate_floor, 1]`.
pub(crate) fn eq_4_1_rate(ctx: &ControlContext<'_>) -> f64 {
    if ctx.prev_total_cycles > 0.0 {
        (ctx.prev_mean_rate * ctx.available_cycles.max(0.0) / ctx.prev_total_cycles)
            .clamp(ctx.rate_floor, 1.0)
    } else {
        1.0
    }
}

/// Spreads a global rate over the queries and returns the decision for it:
/// when every minimum rate is satisfied the rate applies uniformly (the
/// exact historical behaviour, no allocator involved); when at least one
/// minimum binds, the allocator resolves the conflict over unit demands at
/// capacity `rate × |Q|` — `eq_srates` disables the violators, the max-min
/// schemes pin them at their minimum and redistribute. The decision's
/// `budget` reports the rate-unit capacity handed to the allocator, or
/// `None` on the uniform path.
pub(crate) fn spread_global_rate(
    allocator: &dyn AllocationStrategy,
    rate: f64,
    demands: &[QueryDemand],
) -> ControlDecision {
    if demands.iter().all(|demand| demand.min_rate <= rate) {
        return ControlDecision {
            rates: vec![rate; demands.len()],
            reason: DecisionReason::ReactiveFeedback,
            ..ControlDecision::default()
        };
    }
    let units: Vec<QueryDemand> =
        demands.iter().map(|demand| QueryDemand::new(1.0, demand.min_rate)).collect();
    let unit_capacity = rate * units.len() as f64;
    let allocations = allocator.allocate(&units, unit_capacity);
    ControlDecision {
        rates: allocations.iter().map(Allocation::rate).collect(),
        budget: Some(unit_capacity),
        inflation: 1.0,
        allocations: Some(allocations),
        reason: DecisionReason::ReactiveFeedback,
    }
}

/// The original CoMo behaviour: never shed; overload shows up as
/// uncontrolled drops at the capture buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSheddingPolicy;

impl ControlPolicy for NoSheddingPolicy {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        ControlDecision::full_rates(ctx.predictions.len())
    }

    fn name(&self) -> String {
        "no_lshed".to_string()
    }
}

/// Reactive shedding (Eq. 4.1): the global rate for this bin is the previous
/// rate scaled by how far the previous bin's consumption was from the budget.
///
/// Minimum sampling rates are honoured by routing the global rate through
/// the allocator whenever one binds (see the DESIGN.md control-plane notes);
/// with no binding minimums the behaviour is exactly the historical one.
pub struct ReactivePolicy {
    allocator: Box<dyn AllocationStrategy>,
}

impl ReactivePolicy {
    /// A reactive policy resolving minimum-rate conflicts with `allocator`.
    pub fn new(allocator: impl AllocationStrategy + 'static) -> Self {
        Self { allocator: Box::new(allocator) }
    }
}

impl ControlPolicy for ReactivePolicy {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        spread_global_rate(self.allocator.as_ref(), eq_4_1_rate(ctx), ctx.demands)
    }

    fn name(&self) -> String {
        reactive_family_name("reactive", self.allocator.as_ref())
    }
}

/// The paper's predictive scheme (Algorithm 1): inflate the predicted demand
/// by the smoothed prediction error; when it exceeds the available cycles,
/// hand the corrected budget to the fairness allocator.
pub struct PredictivePolicy {
    allocator: Box<dyn AllocationStrategy>,
}

impl PredictivePolicy {
    /// A predictive policy splitting overload with `allocator`.
    pub fn new(allocator: impl AllocationStrategy + 'static) -> Self {
        Self { allocator: Box::new(allocator) }
    }
}

impl ControlPolicy for PredictivePolicy {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        let predicted_total: f64 = ctx.predictions.iter().sum();
        let inflation = 1.0 + ctx.error_ewma;
        if predicted_total * inflation <= ctx.available_cycles || predicted_total <= 0.0 {
            return ControlDecision {
                inflation,
                ..ControlDecision::full_rates(ctx.predictions.len())
            };
        }
        // Budget for query processing after discounting the cycles the
        // shedding itself will need, corrected by the prediction error.
        let budget = ((ctx.available_cycles - ctx.shed_cycles_ewma).max(0.0)) / inflation;
        let allocations = self.allocator.allocate(ctx.demands, budget);
        ControlDecision {
            rates: allocations.iter().map(Allocation::rate).collect(),
            budget: Some(budget),
            inflation,
            allocations: Some(allocations),
            reason: DecisionReason::Overload,
        }
    }

    fn name(&self) -> String {
        self.allocator.name().to_string()
    }
}

/// An idealised policy that allocates from the bin's *actual* measured
/// cycles instead of a prediction: the upper bound every predictor is
/// compared against.
///
/// Requires a shadow execution per query
/// ([`ControlPolicy::needs_measured_cycles`]); its cycles are not charged
/// against the capacity, because the point of the oracle is to isolate the
/// quality of the *decision*, not to be deployable.
pub struct OraclePolicy {
    allocator: Box<dyn AllocationStrategy>,
}

impl OraclePolicy {
    /// An oracle splitting overload with `allocator`.
    pub fn new(allocator: impl AllocationStrategy + 'static) -> Self {
        Self { allocator: Box::new(allocator) }
    }
}

impl ControlPolicy for OraclePolicy {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        let actual = ctx.measured_cycles.unwrap_or(ctx.predictions);
        let total: f64 = actual.iter().sum();
        if total <= ctx.available_cycles || total <= 0.0 {
            return ControlDecision::full_rates(actual.len());
        }
        // No error inflation: the demand is exact. The shedding overhead of
        // the sampling mechanism still has to be budgeted for.
        let budget = (ctx.available_cycles - ctx.shed_cycles_ewma).max(0.0);
        let demands: Vec<QueryDemand> = actual
            .iter()
            .zip(ctx.demands)
            .map(|(&cycles, demand)| QueryDemand::new(cycles, demand.min_rate))
            .collect();
        let allocations = self.allocator.allocate(&demands, budget);
        ControlDecision {
            rates: allocations.iter().map(Allocation::rate).collect(),
            budget: Some(budget),
            inflation: 1.0,
            allocations: Some(allocations),
            reason: DecisionReason::Overload,
        }
    }

    fn name(&self) -> String {
        format!("oracle_{}", self.allocator.name())
    }

    fn needs_measured_cycles(&self) -> bool {
        true
    }
}

/// A reactive variant with hysteresis: the rate follows Eq. 4.1 *down*
/// immediately (overload is dangerous) but recovers *up* only by a fraction
/// of the gap per bin (slow decay of the shedding level), damping the
/// oscillation the plain reactive scheme shows around the capacity.
pub struct HysteresisReactivePolicy {
    allocator: Box<dyn AllocationStrategy>,
    /// Fraction of the gap to the target closed per bin when recovering.
    recovery: f64,
    /// The rate the previous bin ran with, according to this policy.
    current: f64,
}

impl HysteresisReactivePolicy {
    /// Default recovery fraction: closes a quarter of the gap per bin.
    pub const DEFAULT_RECOVERY: f64 = 0.25;

    /// A hysteresis policy resolving minimum-rate conflicts with `allocator`.
    pub fn new(allocator: impl AllocationStrategy + 'static) -> Self {
        Self { allocator: Box::new(allocator), recovery: Self::DEFAULT_RECOVERY, current: 1.0 }
    }

    /// Overrides the recovery fraction (clamped into `(0, 1]`).
    pub fn with_recovery(mut self, recovery: f64) -> Self {
        self.recovery = if recovery.is_finite() { recovery.clamp(1e-3, 1.0) } else { 1.0 };
        self
    }
}

impl ControlPolicy for HysteresisReactivePolicy {
    fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
        let target = eq_4_1_rate(ctx);
        let rate = if target < self.current {
            target
        } else {
            (self.current + self.recovery * (target - self.current)).min(1.0)
        };
        self.current = rate;
        spread_global_rate(self.allocator.as_ref(), rate, ctx.demands)
    }

    fn name(&self) -> String {
        reactive_family_name("reactive_hysteresis", self.allocator.as_ref())
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.f64(self.current);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.current = bounded(reader.f64()?, "reactive_hysteresis current rate", 1.0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_fairness::{EqualRates, MmfsPkt};

    fn ctx<'a>(
        predictions: &'a [f64],
        demands: &'a [QueryDemand],
        available: f64,
    ) -> ControlContext<'a> {
        ControlContext {
            bin_index: 0,
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

    #[test]
    fn no_shedding_always_grants_full_rates() {
        let predictions = [1e9, 2e9];
        let demands = demands_of(&predictions, 0.5);
        let decision = NoSheddingPolicy.decide(&ctx(&predictions, &demands, 1.0));
        assert_eq!(decision.rates, vec![1.0, 1.0]);
        assert_eq!(decision.reason, DecisionReason::FitsInBudget);
    }

    #[test]
    fn predictive_fits_in_budget_without_overload() {
        let predictions = [100.0, 200.0];
        let demands = demands_of(&predictions, 0.0);
        let mut policy = PredictivePolicy::new(MmfsPkt);
        let decision = policy.decide(&ctx(&predictions, &demands, 1000.0));
        assert_eq!(decision.rates, vec![1.0, 1.0]);
        assert!(decision.allocations.is_none());
    }

    #[test]
    fn predictive_allocates_under_overload() {
        let predictions = [1000.0, 1000.0];
        let demands = demands_of(&predictions, 0.0);
        let mut policy = PredictivePolicy::new(MmfsPkt);
        let decision = policy.decide(&ctx(&predictions, &demands, 1000.0));
        assert_eq!(decision.reason, DecisionReason::Overload);
        assert_eq!(decision.budget, Some(1000.0));
        for rate in &decision.rates {
            assert!((rate - 0.5).abs() < 1e-9, "{:?}", decision.rates);
        }
    }

    #[test]
    fn reactive_spreads_the_global_rate_uniformly_when_minimums_allow() {
        let predictions = [500.0, 500.0];
        let demands = demands_of(&predictions, 0.1);
        let mut context = ctx(&predictions, &demands, 400.0);
        context.prev_mean_rate = 0.8;
        context.prev_total_cycles = 800.0;
        let mut policy = ReactivePolicy::new(EqualRates);
        let decision = policy.decide(&context);
        // Eq. 4.1: 0.8 × 400 / 800 = 0.4 for everyone.
        assert_eq!(decision.rates, vec![0.4, 0.4]);
        assert!(decision.allocations.is_none());
        assert_eq!(decision.reason, DecisionReason::ReactiveFeedback);
    }

    #[test]
    fn reactive_routes_binding_minimums_through_the_allocator() {
        let predictions = [500.0, 500.0];
        // One query cannot run below 0.9: at a global rate of 0.4 eq_srates
        // must disable it and recompute the rate for the survivor.
        let demands = vec![QueryDemand::new(500.0, 0.9), QueryDemand::new(500.0, 0.1)];
        let mut context = ctx(&predictions, &demands, 400.0);
        context.prev_mean_rate = 0.8;
        context.prev_total_cycles = 800.0;
        let mut policy = ReactivePolicy::new(EqualRates);
        let decision = policy.decide(&context);
        assert_eq!(decision.rates[0], 0.0, "unmeetable minimum must disable the query");
        assert!(decision.rates[1] > 0.4, "the survivor inherits the freed share");
        assert!(decision.allocations.is_some());
    }

    #[test]
    fn oracle_uses_measured_cycles_over_predictions() {
        let predictions = [10.0, 10.0]; // wildly under-predicted
        let measured = [1000.0, 1000.0];
        let demands = demands_of(&predictions, 0.0);
        let mut context = ctx(&predictions, &demands, 1000.0);
        context.measured_cycles = Some(&measured);
        let mut policy = OraclePolicy::new(MmfsPkt);
        assert!(policy.needs_measured_cycles());
        let decision = policy.decide(&context);
        assert_eq!(decision.reason, DecisionReason::Overload);
        for rate in &decision.rates {
            assert!((rate - 0.5).abs() < 1e-9, "{:?}", decision.rates);
        }
    }

    #[test]
    fn hysteresis_sheds_immediately_but_recovers_slowly() {
        let predictions = [500.0];
        let demands = demands_of(&predictions, 0.0);
        let mut policy = HysteresisReactivePolicy::new(EqualRates).with_recovery(0.25);

        // Overloaded bin: target 0.25, taken immediately.
        let mut context = ctx(&predictions, &demands, 250.0);
        context.prev_mean_rate = 1.0;
        context.prev_total_cycles = 1000.0;
        let down = policy.decide(&context);
        assert!((down.rates[0] - 0.25).abs() < 1e-9);

        // Load vanishes: target 1.0, but only a quarter of the gap is closed.
        let mut context = ctx(&predictions, &demands, 1000.0);
        context.prev_mean_rate = 0.25;
        context.prev_total_cycles = 100.0;
        let up = policy.decide(&context);
        let expected = 0.25 + 0.25 * (1.0 - 0.25);
        assert!((up.rates[0] - expected).abs() < 1e-9, "{}", up.rates[0]);
    }

    #[test]
    fn names_compose_from_the_parts() {
        assert_eq!(NoSheddingPolicy.name(), "no_lshed");
        assert_eq!(ReactivePolicy::new(EqualRates).name(), "reactive");
        assert_eq!(ReactivePolicy::new(MmfsPkt).name(), "reactive_mmfs_pkt");
        assert_eq!(PredictivePolicy::new(EqualRates).name(), "eq_srates");
        assert_eq!(PredictivePolicy::new(MmfsPkt).name(), "mmfs_pkt");
        assert_eq!(OraclePolicy::new(MmfsPkt).name(), "oracle_mmfs_pkt");
        assert_eq!(HysteresisReactivePolicy::new(EqualRates).name(), "reactive_hysteresis");
    }

    #[test]
    fn sanitize_clamps_pads_and_enforces_minimum_rates() {
        let decision =
            ControlDecision { rates: vec![f64::NAN, -3.0, 0.5, 2.0], ..ControlDecision::default() };
        let demands = vec![QueryDemand::new(1.0, 0.0); 5];
        let cleaned = decision.sanitized(&demands);
        assert_eq!(cleaned.rates, vec![0.0, 0.0, 0.5, 1.0, 1.0]);

        // A positive rate below a query's declared minimum disables the
        // query instead of running it below its accuracy floor; rates at or
        // above the minimum (and exact zeros) pass through.
        let decision = ControlDecision { rates: vec![0.2, 0.2, 0.0], ..ControlDecision::default() };
        let demands = vec![
            QueryDemand::new(1.0, 0.57),
            QueryDemand::new(1.0, 0.2),
            QueryDemand::new(1.0, 0.57),
        ];
        assert_eq!(decision.sanitized(&demands).rates, vec![0.0, 0.2, 0.0]);
    }

    #[test]
    fn reactive_budget_reports_the_allocator_input_or_none() {
        let predictions = [500.0, 500.0];
        // Uniform path: no allocator ran, budget must be None.
        let free = demands_of(&predictions, 0.0);
        let mut context = ctx(&predictions, &free, 400.0);
        context.prev_mean_rate = 0.8;
        context.prev_total_cycles = 800.0;
        let decision = ReactivePolicy::new(EqualRates).decide(&context);
        assert_eq!(decision.budget, None);

        // Binding minimum: the allocator was handed rate × |Q| rate-units.
        let binding = vec![QueryDemand::new(500.0, 0.9), QueryDemand::new(500.0, 0.1)];
        let mut context = ctx(&predictions, &binding, 400.0);
        context.prev_mean_rate = 0.8;
        context.prev_total_cycles = 800.0;
        let decision = ReactivePolicy::new(EqualRates).decide(&context);
        assert_eq!(decision.budget, Some(0.4 * 2.0));
        assert!(decision.allocations.is_some());
    }
}
