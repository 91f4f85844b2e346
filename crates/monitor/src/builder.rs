//! Fluent construction of a validated [`Monitor`].
//!
//! [`MonitorBuilder`] is the front door of the public API: it gathers the
//! capacity, policy, predictor, enforcement and seed settings plus the
//! initial query set, validates everything at once, and returns
//! `Result<Monitor, NetshedError>` — a monitor that exists is a monitor whose
//! configuration is sound. Everything it gathers lands in one
//! [`MonitorConfig`] — [`strategy`](MonitorBuilder::strategy) and
//! [`with_policy`](MonitorBuilder::with_policy) write the same field — so
//! `build` and `build_sharded` accept exactly the same builders.
//!
//! ```
//! use netshed_monitor::{AllocationPolicy, Monitor, Strategy};
//! use netshed_queries::{QueryKind, QuerySpec};
//!
//! let monitor = Monitor::builder()
//!     .capacity(3.0e8)
//!     .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
//!     .seed(7)
//!     .query(QuerySpec::new(QueryKind::Counter))
//!     .query(QuerySpec::new(QueryKind::Flows))
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(monitor.query_names(), vec!["counter", "flows"]);
//! ```

use crate::config::{
    EnforcementConfig, MonitorConfig, PolicySpec, PredictorKind, PredictorSpec, Strategy,
};
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::monitor::Monitor;
use crate::policy::ControlPolicy;
use crate::sharded::ShardedMonitor;
use netshed_predict::Predictor;
use netshed_queries::QuerySpec;

/// Builds a validated [`Monitor`] or [`ShardedMonitor`].
#[derive(Debug, Default)]
pub struct MonitorBuilder {
    config: MonitorConfig,
    specs: Vec<QuerySpec>,
}

impl MonitorBuilder {
    /// Starts from the paper-scale default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration.
    pub fn from_config(config: MonitorConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Sets the processing capacity in cycles per time bin.
    pub fn capacity(mut self, cycles_per_bin: f64) -> Self {
        self.config.capacity_cycles_per_bin = cycles_per_bin;
        self
    }

    /// Sets the control policy to a built-in [`Strategy`] — the validated
    /// constructor for the schemes the paper evaluates. Writes the same
    /// field as [`with_policy`](Self::with_policy); the later call wins.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.policy = strategy.into();
        self
    }

    /// Sets the control policy to whatever `make` constructs — the open end
    /// of the control plane: [`OraclePolicy`](crate::policy::OraclePolicy),
    /// [`DegradationGuard`](crate::robust::DegradationGuard), a user-defined
    /// [`ControlPolicy`]. A constructor rather than an instance, because
    /// every engine built from the configuration, and every daemon restore,
    /// builds its own.
    pub fn with_policy<P: ControlPolicy + 'static>(
        mut self,
        make: impl Fn() -> P + Send + Sync + 'static,
    ) -> Self {
        self.config.policy = PolicySpec::new(make);
        self
    }

    /// Sets the per-query predictor to a built-in [`PredictorKind`]. Writes
    /// the same field as [`with_predictor`](Self::with_predictor).
    pub fn predictor(mut self, predictor: PredictorKind) -> Self {
        self.config.predictor = predictor.into();
        self
    }

    /// Sets the per-query predictor to whatever `make` constructs; one fresh
    /// predictor is built per registered query (see [`PredictorSpec::new`]).
    pub fn with_predictor(
        mut self,
        make: impl Fn() -> Box<dyn Predictor> + Send + Sync + 'static,
    ) -> Self {
        self.config.predictor = PredictorSpec::new(make);
        self
    }

    /// Sets the enforcement policy for custom-shedding queries.
    pub fn enforcement(mut self, enforcement: EnforcementConfig) -> Self {
        self.config.enforcement = enforcement;
        self
    }

    /// Sets the EWMA weight smoothing the prediction error.
    pub fn ewma_alpha(mut self, alpha: f64) -> Self {
        self.config.ewma_alpha = alpha;
        self
    }

    /// Sets the measurement interval duration in microseconds.
    pub fn measurement_interval_us(mut self, us: u64) -> Self {
        self.config.measurement_interval_us = us;
        self
    }

    /// Disables measurement noise (deterministic runs).
    pub fn no_noise(mut self) -> Self {
        self.config = self.config.without_noise();
        self
    }

    /// Sets the PRNG seed for sampling hash functions and noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets how many workers the execution plane dispatches the per-bin
    /// query tail to (validated into `[1, MAX_WORKERS]` at build time).
    ///
    /// 1 — the default, unless `NETSHED_THREADS` says otherwise — runs
    /// everything inline on the calling thread. Any worker count produces
    /// bit-identical records, observer callbacks and interval outputs; the
    /// knob only trades wall-clock time (see DESIGN.md, "Execution plane").
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Does nothing and returns the builder unchanged.
    ///
    /// Vestigial: the retired shard-thread multiplier. A fleet runs one task
    /// per query, lanes included, on the [`with_workers`](Self::with_workers)
    /// threads; `benchmark/src/sut.rs` pins the name until a benchmark-only
    /// PR frees it (ROADMAP item 2(i)).
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Sets the number of lanes a [`build_sharded`](Self::build_sharded)
    /// fleet partitions flow space into (validated into `[1, MAX_WORKERS]`
    /// at build time).
    ///
    /// Unlike `workers`, this is *configuration*: each lane owns an instance
    /// of every query, fed its partition of the flows, so changing the lane
    /// count changes the output — like changing the seed.
    pub fn with_shard_lanes(mut self, lanes: usize) -> Self {
        self.config.shard_lanes = lanes;
        self
    }

    /// Queues a query to register when the monitor is built.
    pub fn query(mut self, spec: QuerySpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Queues several queries to register when the monitor is built.
    pub fn queries(mut self, specs: impl IntoIterator<Item = QuerySpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Read access to the configuration assembled so far.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Validates the configuration and the queued query specs, then builds
    /// the monitor with every query registered.
    pub fn build(self) -> Result<Monitor, NetshedError> {
        self.build_with(|config| config.validate().map(|()| Monitor::new(config)))
    }

    /// Validates the configuration and builds a [`ShardedMonitor`] fleet —
    /// the same control loop with query execution sharded over
    /// `shard_lanes` lanes — with every queued query registered, one
    /// instance per lane. Anything [`build`](Self::build) accepts, this accepts.
    pub fn build_sharded(self) -> Result<ShardedMonitor, NetshedError> {
        self.build_with(ShardedMonitor::new)
    }

    fn build_with<E: Engine>(
        self,
        new: impl FnOnce(MonitorConfig) -> Result<E, NetshedError>,
    ) -> Result<E, NetshedError> {
        let mut engine = new(self.config)?;
        for spec in &self.specs {
            engine.register(spec)?;
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
    use netshed_queries::QueryKind;

    #[test]
    fn default_builder_builds() {
        let monitor = MonitorBuilder::new().build().expect("default config is valid");
        assert!(monitor.query_names().is_empty());
    }

    #[test]
    fn builder_applies_settings_and_registers_queries() {
        let monitor = Monitor::builder()
            .capacity(5.0e7)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsCpu))
            .predictor(PredictorKind::Slr)
            .seed(99)
            .no_noise()
            .query(QuerySpec::new(QueryKind::Counter))
            .query(QuerySpec::new(QueryKind::Flows).with_label("flows-live"))
            .build()
            .expect("valid configuration");
        assert_eq!(monitor.query_names(), vec!["counter", "flows-live"]);
    }

    #[test]
    fn non_positive_capacity_is_rejected() {
        for capacity in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let error = MonitorBuilder::new().capacity(capacity).build().unwrap_err();
            assert!(
                matches!(error, NetshedError::InvalidConfig(_)),
                "capacity {capacity} produced {error:?}"
            );
        }
    }

    #[test]
    fn capacity_below_overhead_is_an_underflow() {
        let config = MonitorConfig { platform_overhead_cycles: 1000.0, ..MonitorConfig::default() };
        let error = MonitorBuilder::from_config(config).capacity(100.0).build().unwrap_err();
        assert_eq!(error, NetshedError::CapacityUnderflow { capacity: 100.0, required: 1000.0 });
    }

    #[test]
    fn out_of_domain_alpha_is_rejected() {
        assert!(MonitorBuilder::new().ewma_alpha(-0.1).build().is_err());
        assert!(MonitorBuilder::new().ewma_alpha(1.5).build().is_err());
        // alpha = 0 turns the error correction off — the ablation experiments
        // rely on it being a valid setting.
        assert!(MonitorBuilder::new().ewma_alpha(0.0).build().is_ok());
    }

    #[test]
    fn custom_policy_and_predictor_override_the_enums() {
        use crate::policy::OraclePolicy;
        use netshed_fairness::MmfsPkt;
        use netshed_predict::EwmaPredictor;

        let monitor = Monitor::builder()
            .capacity(1e9)
            .strategy(Strategy::Predictive(AllocationPolicy::EqualRates))
            .with_policy(|| OraclePolicy::new(MmfsPkt))
            .with_predictor(|| Box::new(EwmaPredictor::new(0.5)) as Box<dyn Predictor>)
            .query(QuerySpec::new(QueryKind::Counter))
            .build()
            .expect("valid configuration");
        assert_eq!(monitor.policy_name(), "oracle_mmfs_pkt");
        assert_eq!(monitor.config().predictor.name(), "ewma");

        // Both spellings write one field: the later call wins.
        let monitor = Monitor::builder()
            .with_policy(|| OraclePolicy::new(MmfsPkt))
            .strategy(Strategy::NoShedding)
            .build()
            .expect("valid configuration");
        assert_eq!(monitor.policy_name(), "no_lshed");
    }

    #[test]
    fn invalid_query_spec_fails_the_build() {
        let error = MonitorBuilder::new()
            .query(QuerySpec::new(QueryKind::Counter).with_min_rate(1.5))
            .build()
            .unwrap_err();
        assert!(matches!(error, NetshedError::InvalidConfig(_)));
    }
}
