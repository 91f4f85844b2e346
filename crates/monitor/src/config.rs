//! Monitor configuration: capacity, policy, prediction and enforcement.
//!
//! The configuration carries the *recipe* for the two pluggable components,
//! not an instance: [`MonitorConfig::policy`] and
//! [`MonitorConfig::predictor`] are [`Spec`]s — a name plus a shared
//! constructor. Whatever starts from a clone of the config (a solo monitor,
//! a fleet, a daemon restore) constructs its own instance, so a policy that
//! works solo works sharded and checkpointed with no further code. The [`Strategy`] and [`PredictorKind`] enums are the *validated
//! constructors* for the built-ins the paper evaluates and convert with
//! `.into()`; anything else is a closure handed to [`PolicySpec::new`] /
//! [`PredictorSpec::new`] (see DESIGN.md, "Control plane").

use crate::error::NetshedError;
use crate::policy::{ControlPolicy, NoSheddingPolicy, PredictivePolicy, ReactivePolicy};
use netshed_fairness::{AllocationStrategy, EqualRates, MmfsCpu, MmfsPkt};
use netshed_predict::{EwmaPredictor, MlrPredictor, Predictor, RobustMlrPredictor, SlrPredictor};
use std::sync::Arc;

/// A cloneable description of one pluggable component: the name its
/// instances report (and `.nsck` snapshots store) plus their constructor.
pub struct Spec<T: ?Sized> {
    name: String,
    make: Arc<dyn Fn() -> Box<T> + Send + Sync>,
}

/// How to construct the [`ControlPolicy`] of a run.
pub type PolicySpec = Spec<dyn ControlPolicy>;

/// How to construct the per-query [`Predictor`]s of a run.
pub type PredictorSpec = Spec<dyn Predictor>;

impl<T: ?Sized> Spec<T> {
    /// The name instances report; a restore matches the snapshot's against it.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Constructs a fresh instance with empty state.
    pub fn make(&self) -> Box<T> {
        (self.make)()
    }
}

impl<T: ?Sized> Clone for Spec<T> {
    fn clone(&self) -> Self {
        Self { name: self.name.clone(), make: Arc::clone(&self.make) }
    }
}

impl<T: ?Sized> std::fmt::Debug for Spec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spec({:?})", self.name)
    }
}

impl PolicySpec {
    /// Describes a policy by its constructor, which runs once per engine
    /// (whatever its lane count), again per restore — and once here, for the
    /// name.
    pub fn new<P: ControlPolicy + 'static>(make: impl Fn() -> P + Send + Sync + 'static) -> Self {
        Self { name: make().name(), make: Arc::new(move || Box::new(make())) }
    }
}

impl From<Strategy> for PolicySpec {
    fn from(strategy: Strategy) -> Self {
        Self { name: strategy.name(), make: Arc::new(move || strategy.control_policy()) }
    }
}

impl PredictorSpec {
    /// Describes a predictor by its constructor, which runs once per
    /// registered query (and once here, to learn the name).
    pub fn new(make: impl Fn() -> Box<dyn Predictor> + Send + Sync + 'static) -> Self {
        Self { name: make().name().to_string(), make: Arc::new(make) }
    }
}

impl From<PredictorKind> for PredictorSpec {
    fn from(kind: PredictorKind) -> Self {
        Self { name: kind.name().to_string(), make: Arc::new(move || kind.predictor()) }
    }
}

/// How sampling rates are assigned to queries when load must be shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// The Chapter 4 scheme: one common sampling rate for all queries
    /// (queries whose minimum rate cannot be met are disabled for the batch).
    EqualRates,
    /// Max-min fair share in terms of CPU cycles (Section 5.2.1).
    MmfsCpu,
    /// Max-min fair share in terms of packet access (Section 5.2.2).
    MmfsPkt,
}

impl AllocationPolicy {
    /// The built-in [`AllocationStrategy`] this variant constructs.
    pub fn allocator(&self) -> Box<dyn AllocationStrategy> {
        match self {
            AllocationPolicy::EqualRates => Box::new(EqualRates),
            AllocationPolicy::MmfsCpu => Box::new(MmfsCpu),
            AllocationPolicy::MmfsPkt => Box::new(MmfsPkt),
        }
    }
}

/// The load shedding strategy of the monitoring system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Original CoMo: no explicit load shedding; packets are dropped without
    /// control at the capture buffer when the system falls behind.
    NoShedding,
    /// Reactive shedding: the sampling rate for the next batch is derived
    /// from the cycles consumed by the previous batch (Equation 4.1).
    Reactive(AllocationPolicy),
    /// The paper's predictive scheme (Algorithm 1).
    Predictive(AllocationPolicy),
}

impl Strategy {
    /// All seven built-in strategy configurations the paper evaluates, in
    /// manifest order.
    pub const ALL: [Strategy; 7] = [
        Strategy::NoShedding,
        Strategy::Reactive(AllocationPolicy::EqualRates),
        Strategy::Reactive(AllocationPolicy::MmfsCpu),
        Strategy::Reactive(AllocationPolicy::MmfsPkt),
        Strategy::Predictive(AllocationPolicy::EqualRates),
        Strategy::Predictive(AllocationPolicy::MmfsCpu),
        Strategy::Predictive(AllocationPolicy::MmfsPkt),
    ];

    /// Short name used in reports and experiment output, composed from the
    /// strategy family and the allocation policy it carries.
    pub fn name(&self) -> String {
        self.control_policy().name()
    }

    /// Resolves a historical name back to its strategy (the inverse of
    /// [`Strategy::name`]); `None` for names outside the built-in seven.
    /// `.nsck` snapshots store the active strategy by this name.
    pub fn from_name(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|strategy| strategy.name() == name)
    }

    /// The built-in [`ControlPolicy`] this variant constructs — the single
    /// source of truth for what each enum value means. The enum path and the
    /// trait path are bit-identical because they are the same code.
    pub fn control_policy(&self) -> Box<dyn ControlPolicy> {
        match self {
            Strategy::NoShedding => Box::new(NoSheddingPolicy),
            Strategy::Reactive(policy) => Box::new(ReactivePolicy::new(policy.allocator())),
            Strategy::Predictive(policy) => Box::new(PredictivePolicy::new(policy.allocator())),
        }
    }
}

/// Which per-query predictor drives the predictive strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// MLR with FCBF feature selection (the paper's method).
    MlrFcbf,
    /// MLR hardened against predictor-gaming traffic: outlier-clamped
    /// residuals, forgetting-factor history and non-finite guards, with
    /// bit-identical arithmetic on benign workloads (see
    /// [`RobustMlrPredictor`]).
    RobustMlrFcbf,
    /// Simple linear regression on the packet count.
    Slr,
    /// Exponentially weighted moving average of past cycles.
    Ewma,
}

impl PredictorKind {
    /// Every predictor kind, in a stable order.
    pub const ALL: [PredictorKind; 4] = [
        PredictorKind::MlrFcbf,
        PredictorKind::RobustMlrFcbf,
        PredictorKind::Slr,
        PredictorKind::Ewma,
    ];

    /// Stable identifier used in reports, benchmarks and `.nsck` snapshots.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::MlrFcbf => "mlr_fcbf",
            PredictorKind::RobustMlrFcbf => "robust_mlr_fcbf",
            PredictorKind::Slr => "slr",
            PredictorKind::Ewma => "ewma",
        }
    }

    /// Resolves a stable [`name`](PredictorKind::name) back to its kind.
    pub fn from_name(name: &str) -> Option<PredictorKind> {
        PredictorKind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// A fresh instance of the built-in [`Predictor`] this variant names, in
    /// its default (paper) configuration.
    pub fn predictor(self) -> Box<dyn Predictor> {
        match self {
            PredictorKind::MlrFcbf => Box::new(MlrPredictor::with_defaults()),
            PredictorKind::RobustMlrFcbf => Box::new(RobustMlrPredictor::with_defaults()),
            PredictorKind::Slr => Box::new(SlrPredictor::on_packets()),
            PredictorKind::Ewma => Box::new(EwmaPredictor::default()),
        }
    }
}

/// Policing of custom-load-shedding queries (Section 6.1.1).
#[derive(Debug, Clone, Copy)]
pub struct EnforcementConfig {
    /// Overuse factor above which a batch counts as a violation
    /// (measured cycles > expected cycles × (1 + tolerance)).
    pub tolerance: f64,
    /// Consecutive violations before the query is penalized (disabled).
    pub max_violations: u32,
    /// Number of bins a penalized query stays disabled.
    pub penalty_bins: u32,
}

impl Default for EnforcementConfig {
    fn default() -> Self {
        Self { tolerance: 0.25, max_violations: 5, penalty_bins: 50 }
    }
}

/// Configuration of the monitoring system.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Cycles available per time bin (the paper's 3 GHz CPU and 100 ms bins
    /// give 3×10⁸; experiments usually derive this from a target overload
    /// factor instead).
    pub capacity_cycles_per_bin: f64,
    /// Fixed platform overhead per bin not related to query processing
    /// (capture, memory and storage management).
    pub platform_overhead_cycles: f64,
    /// Duration of a time bin in microseconds.
    pub time_bin_us: u64,
    /// Duration of a measurement interval in microseconds.
    pub measurement_interval_us: u64,
    /// The control policy: a built-in [`Strategy`] or a custom constructor.
    pub policy: PolicySpec,
    /// The per-query predictor: a built-in [`PredictorKind`] or a custom
    /// constructor.
    pub predictor: PredictorSpec,
    /// EWMA weight used to smooth the prediction error and the shedding
    /// overhead (Algorithm 1 uses 0.9).
    pub ewma_alpha: f64,
    /// Enables the slow-start-like buffer discovery of Section 4.1.
    pub buffer_discovery: bool,
    /// Measurement noise: multiplicative jitter standard deviation.
    pub noise_jitter: f64,
    /// Measurement noise: probability of a context-switch outlier per batch.
    pub noise_outlier_probability: f64,
    /// Enforcement policy for custom load shedding queries.
    pub enforcement: EnforcementConfig,
    /// Seed for sampling hash functions and noise.
    pub seed: u64,
    /// Workers the execution plane dispatches the per-bin query tail to.
    /// 1 (the default) runs everything inline on the calling thread — the
    /// historical sequential path; any value produces bit-identical output
    /// (see DESIGN.md, "Execution plane"). The default honours the
    /// `NETSHED_THREADS` environment variable when it holds a valid count.
    pub workers: usize,
    /// Lanes of a [`ShardedMonitor`](crate::ShardedMonitor): the fixed
    /// partition of flow space its query instances own (every registered
    /// query runs one instance per lane; the control loop is not
    /// partitioned). Changing the lane count changes which instance sees
    /// which flow and therefore the output stream, like changing the seed —
    /// it is configuration, not a wall-clock knob. A
    /// [`Monitor`](crate::Monitor) built directly has one lane and ignores
    /// the field.
    pub shard_lanes: usize,
}

/// Default number of lanes of a sharded monitor. The fleet digests and pins
/// (`tests/engine.rs`, the fleet legs of the golden and checkpoint tests) are
/// taken at 4 lanes, so changing it is a digest change.
pub const DEFAULT_SHARD_LANES: usize = 4;

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            capacity_cycles_per_bin: 3.0e8,
            platform_overhead_cycles: 1.0e4,
            time_bin_us: netshed_trace::DEFAULT_TIME_BIN_US,
            measurement_interval_us: netshed_trace::DEFAULT_MEASUREMENT_INTERVAL_US,
            policy: Strategy::Predictive(AllocationPolicy::EqualRates).into(),
            predictor: PredictorKind::MlrFcbf.into(),
            ewma_alpha: 0.9,
            buffer_discovery: true,
            noise_jitter: 0.02,
            noise_outlier_probability: 0.005,
            enforcement: EnforcementConfig::default(),
            seed: 1,
            workers: crate::exec::workers_from_env(),
            shard_lanes: DEFAULT_SHARD_LANES,
        }
    }
}

impl MonitorConfig {
    /// Sets the control policy: a [`Strategy`], or any [`PolicySpec`].
    pub fn with_strategy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Sets the capacity in cycles per bin.
    pub fn with_capacity(mut self, cycles_per_bin: f64) -> Self {
        self.capacity_cycles_per_bin = cycles_per_bin;
        self
    }

    /// Sets the predictor: a [`PredictorKind`], or any [`PredictorSpec`].
    pub fn with_predictor(mut self, predictor: impl Into<PredictorSpec>) -> Self {
        self.predictor = predictor.into();
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution-plane worker count (1 = sequential).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the virtual-lane count of a sharded monitor (the state-owning
    /// flow partition; changing it changes the output stream).
    pub fn with_shard_lanes(mut self, lanes: usize) -> Self {
        self.shard_lanes = lanes;
        self
    }

    /// Disables measurement noise (useful for deterministic tests).
    pub fn without_noise(mut self) -> Self {
        self.noise_jitter = 0.0;
        self.noise_outlier_probability = 0.0;
        self
    }

    /// Number of time bins per measurement interval.
    pub fn bins_per_interval(&self) -> u64 {
        (self.measurement_interval_us / self.time_bin_us).max(1)
    }

    /// Checks every field against its valid domain.
    ///
    /// [`MonitorBuilder`](crate::MonitorBuilder) calls this before
    /// constructing a monitor; configurations assembled by hand can be
    /// checked explicitly with the same rules.
    pub fn validate(&self) -> Result<(), NetshedError> {
        fn invalid(message: impl Into<String>) -> Result<(), NetshedError> {
            Err(NetshedError::InvalidConfig(message.into()))
        }

        if !self.capacity_cycles_per_bin.is_finite() || self.capacity_cycles_per_bin <= 0.0 {
            return invalid(format!(
                "capacity_cycles_per_bin must be positive and finite, got {}",
                self.capacity_cycles_per_bin
            ));
        }
        if !self.platform_overhead_cycles.is_finite() || self.platform_overhead_cycles < 0.0 {
            return invalid(format!(
                "platform_overhead_cycles must be non-negative and finite, got {}",
                self.platform_overhead_cycles
            ));
        }
        if self.time_bin_us == 0 {
            return invalid("time_bin_us must be positive");
        }
        if self.measurement_interval_us < self.time_bin_us {
            return invalid(format!(
                "measurement_interval_us ({}) must be at least one time bin ({} us)",
                self.measurement_interval_us, self.time_bin_us
            ));
        }
        if !self.ewma_alpha.is_finite() || !(0.0..=1.0).contains(&self.ewma_alpha) {
            return invalid(format!("ewma_alpha must be in [0, 1], got {}", self.ewma_alpha));
        }
        if !self.noise_jitter.is_finite() || self.noise_jitter < 0.0 {
            return invalid(format!(
                "noise_jitter must be non-negative, got {}",
                self.noise_jitter
            ));
        }
        if !self.noise_outlier_probability.is_finite()
            || !(0.0..=1.0).contains(&self.noise_outlier_probability)
        {
            return invalid(format!(
                "noise_outlier_probability must be in [0, 1], got {}",
                self.noise_outlier_probability
            ));
        }
        if !self.enforcement.tolerance.is_finite() || self.enforcement.tolerance < 0.0 {
            return invalid(format!(
                "enforcement.tolerance must be non-negative, got {}",
                self.enforcement.tolerance
            ));
        }
        if self.enforcement.max_violations == 0 {
            return invalid("enforcement.max_violations must be at least 1");
        }
        if !(1..=crate::exec::MAX_WORKERS).contains(&self.workers) {
            return invalid(format!(
                "workers must be in [1, {}], got {}",
                crate::exec::MAX_WORKERS,
                self.workers
            ));
        }
        if !(1..=crate::exec::MAX_WORKERS).contains(&self.shard_lanes) {
            return invalid(format!(
                "shard_lanes must be in [1, {}], got {}",
                crate::exec::MAX_WORKERS,
                self.shard_lanes
            ));
        }
        if self.capacity_cycles_per_bin <= self.platform_overhead_cycles {
            return Err(NetshedError::CapacityUnderflow {
                capacity: self.capacity_cycles_per_bin,
                required: self.platform_overhead_cycles,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::NoShedding.name(), "no_lshed");
        assert_eq!(Strategy::Predictive(AllocationPolicy::MmfsPkt).name(), "mmfs_pkt");
        assert_eq!(Strategy::Reactive(AllocationPolicy::EqualRates).name(), "reactive");
    }

    #[test]
    fn all_seven_composed_names_match_the_historical_strings() {
        let expected = [
            (Strategy::NoShedding, "no_lshed"),
            (Strategy::Reactive(AllocationPolicy::EqualRates), "reactive"),
            (Strategy::Reactive(AllocationPolicy::MmfsCpu), "reactive_mmfs_cpu"),
            (Strategy::Reactive(AllocationPolicy::MmfsPkt), "reactive_mmfs_pkt"),
            (Strategy::Predictive(AllocationPolicy::EqualRates), "eq_srates"),
            (Strategy::Predictive(AllocationPolicy::MmfsCpu), "mmfs_cpu"),
            (Strategy::Predictive(AllocationPolicy::MmfsPkt), "mmfs_pkt"),
        ];
        for (strategy, name) in expected {
            assert_eq!(strategy.name(), name);
            assert_eq!(strategy.control_policy().name(), name);
        }
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let config = MonitorConfig::default();
        assert_eq!(config.capacity_cycles_per_bin, 3.0e8);
        assert_eq!(config.bins_per_interval(), 10);
    }

    #[test]
    fn out_of_domain_noise_and_bin_geometry_are_rejected() {
        let rejected = |config: MonitorConfig| config.validate().is_err();
        assert!(rejected(MonitorConfig { noise_jitter: -0.1, ..MonitorConfig::default() }));
        assert!(rejected(MonitorConfig {
            noise_outlier_probability: 1.5,
            ..MonitorConfig::default()
        }));
        assert!(rejected(MonitorConfig { time_bin_us: 0, ..MonitorConfig::default() }));
    }

    #[test]
    fn builder_methods_apply() {
        let config = MonitorConfig::default()
            .with_capacity(1e6)
            .with_strategy(Strategy::NoShedding)
            .with_seed(9)
            .without_noise();
        assert_eq!(config.capacity_cycles_per_bin, 1e6);
        assert_eq!(config.policy.name(), "no_lshed");
        assert_eq!(config.noise_jitter, 0.0);
        assert_eq!(config.seed, 9);
    }
}
