//! The monitoring system: prediction-driven load shedding over black-box
//! queries (Algorithm 1 of the paper plus the Chapter 5 allocation policies
//! and the Chapter 6 custom-shedding enforcement).

use crate::builder::MonitorBuilder;
use crate::capture::{bounded, CaptureBuffer};
use crate::config::{MonitorConfig, PolicySpec};
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::exec::{self, ExecStats};
use crate::observer::RunObserver;
use crate::policy::{ControlContext, ControlPolicy};
use crate::report::{BinRecord, QueryBinRecord, RunSummary};
use crate::shedder::{flow_sample_with, packet_sample_with};
use netshed_fairness::QueryDemand;
use netshed_features::{ExtractorConfig, FeatureExtractor, FeatureVector};
use netshed_predict::{FeatureWindow, Predictor};
use netshed_queries::{
    build_query_from_spec, CycleMeter, MeasurementNoise, NoiseDraw, Query, QueryOutput, QuerySpec,
    SheddingMethod,
};
use netshed_sketch::{H3Hasher, StateError, StateReader, StateWriter};
use netshed_trace::{Batch, BatchView, KeepListPool, PacketSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
// lint:allow(telemetry-clock): wall-clock readings here only feed ExecStats/BinRecord telemetry, never control flow
use std::time::Instant;

/// Cycles charged per feature-extraction elementary operation (one hash plus
/// one bitmap update). Keeps the prediction overhead in the ~10% range of
/// Table 3.4 for the default workloads.
const FEATURE_OP_CYCLES: u64 = 25;
/// Cycles charged per feature-extraction operation when features are
/// *re-extracted* over a query's sampled stream. The paper (Section 5.5.4)
/// notes that this overhead can be reduced by only recomputing the features
/// actually selected as predictors; the reduced constant models that
/// optimisation.
const REEXTRACT_OP_CYCLES: u64 = 6;
/// Cycles charged per predictor elementary operation (correlation / OLS step).
const PREDICT_OP_CYCLES: u64 = 4;
/// Cycles charged per packet examined by a sampler.
const SAMPLING_TEST_CYCLES: u64 = 12;
/// Fraction of the capture buffer occupation above which the buffer
/// discovery algorithm considers the system unstable and resets `rtthresh`.
const BUFFER_UNSTABLE_OCCUPATION: f64 = 0.3;
/// Maximum fraction of the per-bin capacity that `rtthresh` may reach.
const RTTHRESH_MAX_FRACTION: f64 = 0.25;

/// Stable handle to a query instance registered in a [`Monitor`].
///
/// Handles are unique for the lifetime of the monitor: deregistering a query
/// retires its id, and registering the same [`QuerySpec`] again yields a new
/// one. Because instances are identified by handle rather than by name, the
/// same [`QueryKind`](netshed_queries::QueryKind) can run several times
/// concurrently under distinct labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw registration counter behind the handle.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// One bin's plan and results for one query — the whole hand-off between the
/// three phases of [`Monitor::process_batch`]: the plan phase fills it on the
/// caller's thread, the dispatches complete it inside the query's own task,
/// and the merge reads it back in registration order.
#[derive(Default)]
struct BinSlot {
    /// Predicted full-batch cycles (0 while the query serves a penalty).
    predicted: f64,
    /// Elementary operations the prediction cost.
    predict_ops: u64,
    /// Full-batch cycles measured on the shadow twin (the prediction when
    /// the query has no twin); written only under oracle-style policies.
    shadow_cycles: f64,
    /// The granted sampling rate and the pre-drawn measurement noise when
    /// the query runs this bin; `None` when it sits the bin out (penalised,
    /// or granted rate 0).
    run: Option<(f64, NoiseDraw)>,
    /// The packet-sampled view, drawn in the plan phase because it consumes
    /// the shared RNG. `None` for every other shedding outcome: the tail
    /// works from the post-drop view (flow sampling is deterministic per
    /// query, so it happens inside the task).
    sampled: Option<BatchView>,
    // Outputs of the tail, valid when `run` is `Some`.
    measured: f64,
    outlier: bool,
    delivered_packets: u64,
    reextract_ops: u64,
}

/// One query registered in the monitor, together with its prediction state.
///
/// The query is also the unit of dispatch: the execution plane hands each
/// worker one `&mut RegisteredQuery`, so everything a task mutates — the
/// query, its shadow twin, its predictor, its extractor, its keep-list pool
/// and its [`BinSlot`] — lives here and nowhere else.
struct RegisteredQuery {
    id: QueryId,
    label: String,
    shedding: SheddingMethod,
    min_rate: f64,
    /// The spec this instance was built from, when registered through
    /// [`Monitor::register`]; lets the monitor build a shadow twin for
    /// policies that need the true full-batch cycles.
    spec: Option<QuerySpec>,
    /// Flow-sampling hash function, redrawn every measurement interval.
    flow_hasher: H3Hasher,
    hasher_generation: u64,
    /// Chapter 6 enforcement state.
    overuse_ratio: f64,
    violations: u32,
    penalty_remaining: u32,
    query: Box<dyn Query>,
    /// Shadow twin fed the full (unsampled) stream to measure the bin's
    /// actual cycles for oracle-style policies. Its work is not charged
    /// against the capacity.
    shadow: Option<Box<dyn Query>>,
    predictor: Box<dyn Predictor>,
    /// Extractor used to recompute features over this query's sampled stream
    /// (needed to keep the MLR history consistent, Section 4.3).
    sampled_extractor: FeatureExtractor,
    /// Keep-list pool for the flow-sampled view this query's task builds;
    /// owned per query so the dispatch needs no shared state.
    shed_pool: KeepListPool,
    bin: BinSlot,
}

// Registered queries cross the scoped-thread boundary as `&mut` borrows;
// `Query`, `Predictor` and the extractor are all `Send` by bound or by
// construction. Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RegisteredQuery>();
};

/// A fresh extractor on the monitor's measurement interval: the full-batch
/// one and every query's sampled one.
fn extractor(config: &MonitorConfig) -> FeatureExtractor {
    FeatureExtractor::new(ExtractorConfig {
        measurement_interval_us: config.measurement_interval_us,
    })
}

/// A query's flow-sampling hash function, a pure function of the run seed,
/// the stable handle and the measurement interval it was last redrawn in
/// (`generation`, 0 = the registration-time draw) — which is why a
/// checkpoint stores the generation and not the hasher.
fn flow_hasher(seed: u64, id: QueryId, generation: u64) -> H3Hasher {
    let salt = if generation == 0 { id.0 + 1 } else { (generation << 8) ^ id.0 };
    H3Hasher::new(13, seed ^ salt)
}

/// The shadow twin a policy that needs measured cycles runs beside a query.
/// Only a spec can be built twice, so a bare instance has none.
fn shadow_twin(spec: Option<&QuerySpec>, needs_shadow: bool) -> Option<Box<dyn Query>> {
    spec.filter(|_| needs_shadow).map(build_query_from_spec)
}

impl RegisteredQuery {
    /// A query as it stands right after registration: a fresh predictor and
    /// sampled extractor from `config`, the registration-time flow hasher
    /// and clean enforcement state.
    fn new(
        config: &MonitorConfig,
        id: QueryId,
        label: String,
        min_rate: f64,
        spec: Option<QuerySpec>,
        query: Box<dyn Query>,
        needs_shadow: bool,
    ) -> Self {
        Self {
            id,
            label,
            shedding: query.preferred_shedding(),
            min_rate,
            flow_hasher: flow_hasher(config.seed, id, 0),
            hasher_generation: 0,
            overuse_ratio: 1.0,
            violations: 0,
            penalty_remaining: 0,
            query,
            shadow: shadow_twin(spec.as_ref(), needs_shadow),
            spec,
            predictor: config.predictor.make(),
            sampled_extractor: extractor(config),
            shed_pool: KeepListPool::new(),
            bin: BinSlot::default(),
        }
    }

    /// Predict task: the full-batch cost from the shared feature vector,
    /// against the window of the bins before this one. A penalised query is
    /// not predicted (and charged nothing for it).
    fn predict(&mut self, window: &FeatureWindow, features: &FeatureVector) {
        (self.bin.predicted, self.bin.predict_ops) = if self.penalty_remaining > 0 {
            (0.0, 0)
        } else {
            let predicted = self.predictor.predict_shared(window, features);
            (predicted, self.predictor.last_cost_operations())
        };
    }

    /// Shadow task: the bin's true full-batch cycles, measured on the twin
    /// fed the unsampled stream (the prediction when there is no twin).
    fn measure_shadow(&mut self, post_drop: &BatchView) {
        self.bin.shadow_cycles = match self.shadow.as_mut() {
            Some(shadow) => {
                let mut meter = CycleMeter::new();
                shadow.process_batch(post_drop, 1.0, &mut meter);
                meter.cycles() as f64
            }
            None => self.bin.predicted,
        };
    }

    /// Tail task: shed, re-extract, run the query, apply the pre-drawn noise
    /// and feed the observation back into the prediction history — against
    /// `window`, whose newest row is this bin's full-batch vector. A query
    /// the plan sat out is walked and left untouched.
    fn run_tail(&mut self, post_drop: &BatchView, window: &FeatureWindow) {
        let Some((rate, noise)) = self.bin.run else { return };
        let (delivered, resampled) = match self.bin.sampled.take() {
            Some(sampled) => (sampled, true),
            None if rate < 1.0 && self.shedding == SheddingMethod::FlowSampling => {
                let (sampled, _) =
                    flow_sample_with(post_drop, rate, &self.flow_hasher, &mut self.shed_pool);
                (sampled, true)
            }
            // Full rate, or custom shedding (the query scales its own work).
            None => (post_drop.clone(), false),
        };
        self.bin.delivered_packets = delivered.len() as u64;

        // Recompute the features over the sampled stream so the MLR history
        // stays consistent (Section 4.3); the per-query extractor belongs to
        // this task alone.
        let sampled_features = if resampled {
            let (extracted, ops) = self.sampled_extractor.extract_view(&delivered);
            self.bin.reextract_ops = ops;
            Some(extracted)
        } else {
            self.bin.reextract_ops = 0;
            None
        };

        // Run the query and measure its cycles.
        let mut meter = CycleMeter::new();
        self.query.process_batch(&delivered, rate, &mut meter);
        let (measured, outlier) = noise.apply(meter.cycles());
        let measured = measured as f64;

        // Feed the observation back into the prediction history. For custom
        // shedding the assigned rate plays the same role as a sampling rate:
        // the query is expected to scale its work by it.
        let (cycles, corrupted) = if outlier {
            // Replace corrupted measurements with the prediction
            // (Section 3.2.4 / 4.4).
            ((self.bin.predicted * rate).max(0.0), true)
        } else if self.shedding == SheddingMethod::Custom && rate < 1.0 {
            // Custom shedding: the history models the full-batch cost, so
            // scale the measurement by the requested rate.
            (measured / rate.max(1e-6), false)
        } else {
            (measured, false)
        };
        match sampled_features {
            // Nothing was re-extracted (full rate, or custom shedding): the
            // row to store is the bin's shared vector, taken from the window.
            None => self.predictor.observe_shared(window, cycles, corrupted),
            Some(row) if corrupted => self.predictor.observe_corrupted(&row, cycles),
            Some(row) => self.predictor.observe(&row, cycles),
        }
        self.bin.measured = measured;
        self.bin.outlier = outlier;
    }
}

/// The load-shedding monitoring system.
pub struct Monitor {
    config: MonitorConfig,
    /// The control-plane policy deciding per-bin sampling rates: this
    /// monitor's own instance of `config.policy`.
    policy: Box<dyn ControlPolicy>,
    extractor: FeatureExtractor,
    queries: Vec<RegisteredQuery>,
    buffer: CaptureBuffer,
    noise: MeasurementNoise,
    rng: StdRng,
    /// EWMA of the relative under-prediction error (Algorithm 1, line 17).
    error_ewma: f64,
    /// EWMA of the cycles spent by the load shedding subsystem itself.
    shed_cycles_ewma: f64,
    /// Buffer-discovery threshold (`rtthresh` of Section 4.1).
    rtthresh: f64,
    /// Slow-start threshold of the buffer discovery algorithm.
    rtthresh_ssthresh: f64,
    /// Reactive strategy state: previous global sampling rate and cycles.
    reactive_rate: f64,
    reactive_consumed: f64,
    /// Query-only cycles of the previous bin (no capture/prediction
    /// overheads) — the tripwire denomination of the robustness plane.
    reactive_query_cycles: f64,
    current_interval: Option<u64>,
    /// Monotonic registration counter backing [`QueryId`] handles.
    next_query_id: u64,
    /// Cumulative execution-plane telemetry (wall time outside vs inside
    /// dispatches).
    exec_stats: ExecStats,
    /// Keep-list pool for the plan-phase shed views (capture-buffer overflow
    /// and packet sampling), recycled across bins.
    shed_pool: KeepListPool,
    /// The last full-batch feature rows, with the feature side of FCBF
    /// computed once per bin for every predictor still aligned with it. A
    /// cache: neither snapshot nor digest state.
    window: FeatureWindow,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("policy", &self.policy.name())
            .field("capacity_cycles_per_bin", &self.config.capacity_cycles_per_bin)
            .field("queries", &self.query_names())
            .field("error_ewma", &self.error_ewma)
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// Creates a monitor with no queries registered, running a fresh
    /// instance of the policy the configuration describes (and, per query
    /// registered later, of its predictor).
    pub fn new(config: MonitorConfig) -> Self {
        let buffer =
            CaptureBuffer::new(config.capacity_cycles_per_bin, config.buffer_capacity_bins);
        let noise = MeasurementNoise::new(
            config.seed ^ 0x9e3779b97f4a7c15,
            config.noise_jitter,
            config.noise_outlier_probability,
            config.noise_outlier_cycles,
        );
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            policy: config.policy.make(),
            extractor: extractor(&config),
            queries: Vec::new(),
            buffer,
            noise,
            rng,
            error_ewma: 0.0,
            shed_cycles_ewma: 0.0,
            rtthresh: 0.0,
            rtthresh_ssthresh: f64::INFINITY,
            reactive_rate: 1.0,
            reactive_consumed: 0.0,
            reactive_query_cycles: 0.0,
            current_interval: None,
            next_query_id: 0,
            exec_stats: ExecStats::default(),
            shed_pool: KeepListPool::new(),
            window: FeatureWindow::new(),
            config,
        }
    }

    /// Starts a fluent, validating [`MonitorBuilder`] — the recommended way
    /// to construct a monitor.
    pub fn builder() -> MonitorBuilder {
        MonitorBuilder::new()
    }

    /// The configuration this monitor runs with. Use it to keep companion
    /// components in lockstep, e.g.
    /// `AccuracyTracker::new(&specs, monitor.config().measurement_interval_us)`.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Name of the control-plane policy currently installed.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The installed policy (a fleet's coordinator asks it for its allocator).
    pub(crate) fn policy(&self) -> &dyn ControlPolicy {
        self.policy.as_ref()
    }

    /// Swaps the control-plane policy for a fresh instance of `policy`,
    /// which also becomes the configured one. Swapping mid-run is allowed,
    /// but any shadow executions the new policy needs start from empty
    /// state, so their first measurement interval under-reports stateful
    /// queries.
    pub fn set_policy(&mut self, policy: PolicySpec) {
        self.policy = policy.make();
        self.config.policy = policy;
        let needs_shadow = self.policy.needs_measured_cycles();
        for registered in &mut self.queries {
            registered.shadow = shadow_twin(registered.spec.as_ref(), needs_shadow);
        }
    }

    /// Registers a query described by a [`QuerySpec`] and returns its stable
    /// handle. Queries may be added at any point during a run (Figure 6.9
    /// studies query arrivals): the new instance takes part in prediction and
    /// allocation from the next batch on.
    pub fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        self.register_inner(
            build_query_from_spec(spec),
            Some(spec.clone()),
            Some(spec.resolved_label()),
            spec.min_sampling_rate,
        )
    }

    /// Registers an already constructed query instance under an optional
    /// label (defaults to the query's own name), optionally overriding its
    /// minimum sampling rate constraint.
    ///
    /// Instances registered this way carry no [`QuerySpec`], so oracle-style
    /// policies cannot build a shadow twin for them and fall back to the
    /// predicted cycles.
    pub fn register_instance(
        &mut self,
        query: Box<dyn Query>,
        label: Option<String>,
        min_rate: Option<f64>,
    ) -> Result<QueryId, NetshedError> {
        self.register_inner(query, None, label, min_rate)
    }

    fn register_inner(
        &mut self,
        query: Box<dyn Query>,
        spec: Option<QuerySpec>,
        label: Option<String>,
        min_rate: Option<f64>,
    ) -> Result<QueryId, NetshedError> {
        if let Some(rate) = min_rate {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(NetshedError::InvalidConfig(format!(
                    "min_sampling_rate for '{}' must be in [0, 1], got {rate}",
                    label.as_deref().unwrap_or(query.name())
                )));
            }
        }
        let id = QueryId(self.next_query_id);
        self.next_query_id += 1;
        self.queries.push(RegisteredQuery::new(
            &self.config,
            id,
            label.unwrap_or_else(|| query.name().to_string()),
            min_rate.unwrap_or(query.min_sampling_rate()).clamp(0.0, 1.0),
            spec,
            query,
            self.policy.needs_measured_cycles(),
        ));
        Ok(id)
    }

    /// Deregisters a query instance by handle. The instance's state
    /// (predictor history, pending interval output) is discarded.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        match self.queries.iter().position(|q| q.id == id) {
            Some(position) => {
                self.queries.remove(position);
                Ok(())
            }
            None => Err(NetshedError::UnknownQuery(id.to_string())),
        }
    }

    /// Labels of the registered queries, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.label.clone()).collect()
    }

    /// Handles and labels of the registered queries, in registration order.
    pub fn query_handles(&self) -> Vec<(QueryId, &str)> {
        self.queries.iter().map(|q| (q.id, q.label.as_str())).collect()
    }

    /// Number of packets dropped without control since the start of the run.
    pub fn uncontrolled_drops(&self) -> u64 {
        self.buffer.dropped_packets()
    }

    /// Current buffer-discovery threshold (`rtthresh` of Section 4.1).
    pub fn rtthresh(&self) -> f64 {
        self.rtthresh
    }

    /// Number of workers the execution plane dispatches the per-bin query
    /// tail to (1 = everything runs inline on the calling thread).
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Cumulative execution-plane telemetry: measured wall time outside vs
    /// inside dispatches, and the tasks dispatched. See [`ExecStats`].
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// Whether a measurement interval is currently open (at least one batch
    /// has been processed since the last [`finish_interval`]
    /// (Monitor::finish_interval)) — i.e. whether a final flush is due when
    /// the source is exhausted.
    pub fn interval_open(&self) -> bool {
        self.current_interval.is_some()
    }

    /// Flushes the current measurement interval, returning the per-query
    /// outputs. Call once after the last batch of a run (or let
    /// [`Monitor::run`] do it).
    pub fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.current_interval = None;
        self.close_interval()
    }

    /// Replaces the cycle budget of the *next* bins.
    ///
    /// This is the cross-shard coordinator's knob: only the compute budget
    /// (`capacity_cycles_per_bin`) moves — the capture buffer keeps the
    /// depth it was built with, because buffer memory models the NIC-drain
    /// capacity of the deployment, which reallocating compute does not
    /// change. The budget must be positive and finite (enforced by
    /// [`Monitor::process_batch`] as `CapacityUnderflow` otherwise).
    pub fn set_bin_capacity(&mut self, cycles_per_bin: f64) {
        self.config.capacity_cycles_per_bin = cycles_per_bin;
    }

    /// Advances the measurement-interval clock over an *empty* bin,
    /// returning the closed interval's outputs when the bin starts a new
    /// interval — the interval-bookkeeping head of
    /// [`Monitor::process_batch`] without any packet work.
    ///
    /// [`Monitor::run`] skips empty bins entirely, which is sound for a
    /// single monitor (the next non-empty batch closes the interval).
    /// Lock-step lane fleets cannot skip: every lane must close intervals on
    /// the *same* bins, including lanes that happened to receive no packets
    /// for a bin whose global batch was non-empty. Such drivers feed every
    /// lane every bin — non-empty sub-batches through `process_batch`, empty
    /// ones through this method.
    pub fn advance_empty_bin(&mut self, batch: &Batch) -> Option<Vec<(String, QueryOutput)>> {
        self.roll_interval(batch.measurement_interval(self.config.measurement_interval_us))
    }

    /// Moves the interval clock to `interval`, closing the open interval
    /// when it is a different one.
    fn roll_interval(&mut self, interval: u64) -> Option<Vec<(String, QueryOutput)>> {
        let rolled = self.current_interval.is_some_and(|open| open != interval);
        let closed = rolled.then(|| self.close_interval());
        self.current_interval = Some(interval);
        closed
    }

    /// Drives the full monitoring pipeline over a batch source until the
    /// source is exhausted, reporting progress to `observer` and returning
    /// the aggregated [`RunSummary`]: the engine contract's [`Engine::run`]
    /// (see there for the loop and the observer sequence), callable without
    /// the trait in scope.
    pub fn run<S, O>(
        &mut self,
        source: &mut S,
        observer: &mut O,
    ) -> Result<RunSummary, NetshedError>
    where
        S: PacketSource + ?Sized,
        O: RunObserver + ?Sized,
    {
        Engine::run(self, source, observer)
    }

    /// Processes one incoming batch and returns the record of what happened.
    ///
    /// Returns [`NetshedError::EmptyBatch`] for a batch with no packets and
    /// [`NetshedError::CapacityUnderflow`] when the configured capacity is
    /// not positive (possible only for monitors built by [`Monitor::new`]
    /// from an unvalidated configuration).
    pub fn process_batch(&mut self, batch: &Batch) -> Result<BinRecord, NetshedError> {
        // lint:allow(telemetry-clock): bin wall time is reported in ExecStats only; decisions use modelled cycles
        let bin_start = Instant::now();
        if batch.is_empty() {
            return Err(NetshedError::EmptyBatch { bin_index: batch.bin_index });
        }
        if !self.config.capacity_cycles_per_bin.is_finite()
            || self.config.capacity_cycles_per_bin <= 0.0
        {
            return Err(NetshedError::CapacityUnderflow {
                capacity: self.config.capacity_cycles_per_bin,
                required: self.config.platform_overhead_cycles.max(f64::MIN_POSITIVE),
            });
        }
        let incoming_packets = batch.len() as u64;

        // Measurement interval bookkeeping: close the previous interval when
        // the new batch belongs to a different one.
        let interval = batch.measurement_interval(self.config.measurement_interval_us);
        let interval_outputs = self.roll_interval(interval);

        // Capture buffer: drop the overflow fraction without control. From
        // here on the bin is processed through zero-copy views sharing the
        // incoming batch's packet store. The overflow path materialises the
        // admitted packets into a fresh store (one copy, as pre-refactor) so
        // the per-batch caches built below — aggregate slots, flow keys —
        // cover only admitted packets instead of hashing traffic that was
        // just dropped.
        let drop_fraction = self.buffer.admit(incoming_packets);
        let post_drop = if drop_fraction > 0.0 {
            let keep = 1.0 - drop_fraction;
            let (kept, _) =
                packet_sample_with(&batch.view(), keep, &mut self.rng, &mut self.shed_pool);
            kept.materialize().view()
        } else {
            batch.view()
        };
        let uncontrolled_drops = incoming_packets - post_drop.len() as u64;

        // Feature extraction over the full (post-drop) batch, on this thread:
        // the one fused pass every sampled re-extraction also makes. This is
        // where the per-packet aggregate slots are materialised and cached
        // on the batch; every per-query re-extraction below reuses them.
        let (features, extraction_ops) = self.extractor.extract_view(&post_drop);
        let mut prediction_cycles = extraction_ops * FEATURE_OP_CYCLES;

        // Per-query predictions of the full-batch cost. Every predictor owns
        // its history and otherwise only reads — the shared feature vector,
        // and the feature window, whose lazily cached moments hold the same
        // value whichever task fills them — so the predictions (FCBF
        // selection plus an OLS solve each under the default MLR) are fanned
        // out across the execution plane; the fold below collects values and
        // cost accounting in registration order, so the result is
        // bit-identical to the sequential loop. The window takes this bin's
        // vector only after the predictions: they regress over the bins
        // before it.
        let mut dispatch_ns = self.dispatch(|query, window| query.predict(window, &features));
        self.window.push(&features);
        let mut dispatched_tasks = self.queries.len();
        let mut predictions = Vec::with_capacity(self.queries.len());
        for registered in &self.queries {
            prediction_cycles += registered.bin.predict_ops * PREDICT_OP_CYCLES;
            predictions.push(registered.bin.predicted);
        }
        let predicted_total: f64 = predictions.iter().sum();

        // For oracle-style policies: measure each query's true full-batch
        // cycles on a shadow twin fed the unsampled stream. The shadow work
        // models an idealised upper bound and is not charged to the bin.
        // Every twin is independent deterministic state, so the measurements
        // are fanned out across the execution plane and collected by index.
        let measured_full: Option<Vec<f64>> = if self.policy.needs_measured_cycles() {
            dispatch_ns += self.dispatch(|query, _| query.measure_shadow(&post_drop));
            dispatched_tasks += self.queries.len();
            Some(self.queries.iter().map(|registered| registered.bin.shadow_cycles).collect())
        } else {
            None
        };

        // Decide the per-query sampling rates: hand the control policy
        // everything the monitor knows about the bin.
        let platform_cycles = self.config.platform_overhead_cycles;
        let delay = self.buffer.delay_cycles();
        let rtthresh = if self.config.buffer_discovery { self.rtthresh } else { 0.0 };
        let available_cycles = self.config.capacity_cycles_per_bin
            - (platform_cycles + prediction_cycles as f64)
            + (rtthresh - delay);
        let demands: Vec<QueryDemand> = predictions
            .iter()
            .zip(&self.queries)
            .map(|(&prediction, registered)| {
                // Chapter 6 correction: custom queries that habitually
                // overuse their allocation are charged for it.
                let corrected = if registered.shedding == SheddingMethod::Custom {
                    prediction * registered.overuse_ratio.max(1.0)
                } else {
                    prediction
                };
                QueryDemand::new(corrected, registered.min_rate)
            })
            .collect();
        let context = ControlContext {
            bin_index: batch.bin_index,
            predictions: &predictions,
            demands: &demands,
            available_cycles,
            error_ewma: self.error_ewma,
            shed_cycles_ewma: self.shed_cycles_ewma,
            prev_mean_rate: self.reactive_rate,
            prev_total_cycles: self.reactive_consumed,
            prev_query_cycles: self.reactive_query_cycles,
            uncontrolled_drops,
            rate_floor: self.config.reactive_min_rate,
            measured_cycles: measured_full.as_deref(),
        };
        let decision = self.policy.decide(&context).sanitized(&demands);
        let rates = &decision.rates;

        // Run every query on its (possibly sampled) share of the batch, in
        // three phases over the queries' own bin slots (see DESIGN.md,
        // "Execution plane"):
        //
        // 1. *Plan* (sequential, registration order): penalty accounting,
        //    flow-hasher refresh, RNG-driven packet sampling and the
        //    measurement-noise pre-draw — everything whose stream order the
        //    sequential path fixed.
        // 2. *Dispatch* (parallel): flow sampling, per-query sampled
        //    re-extraction, the query run, noise application and the
        //    predictor feedback, each task confined to its own query.
        // 3. *Merge* (sequential, registration order): cycle sums, Chapter 6
        //    enforcement and the per-query records.
        //
        // Because phase 2 receives fully determined inputs and only writes
        // per-query state, the merged output is bit-identical to the
        // sequential path for any worker count.
        let mut shedding_cycles = 0u64;
        let mut unsampled_accumulator = 0u64;
        for (registered, &rate) in self.queries.iter_mut().zip(rates) {
            registered.bin.run = None;
            if registered.penalty_remaining > 0 {
                registered.penalty_remaining -= 1;
                continue;
            }
            if rate <= 0.0 {
                unsampled_accumulator += post_drop.len() as u64;
                continue;
            }
            // Refresh the flow-sampling hash function once per interval so
            // selection cannot be evaded and is unbiased (Section 4.2). Keyed
            // by the stable handle, not the position, so deregistrations do
            // not reshuffle the selection of the surviving queries.
            if registered.shedding == SheddingMethod::FlowSampling
                && registered.hasher_generation != interval
            {
                registered.flow_hasher = flow_hasher(self.config.seed, registered.id, interval);
                registered.hasher_generation = interval;
            }
            if rate < 1.0 {
                match registered.shedding {
                    // Packet sampling draws from the shared RNG, so it stays
                    // on the plan phase in registration order — the stream is
                    // consumed exactly as the sequential path does.
                    SheddingMethod::PacketSampling => {
                        let (sampled, _) = packet_sample_with(
                            &post_drop,
                            rate,
                            &mut self.rng,
                            &mut self.shed_pool,
                        );
                        registered.bin.sampled = Some(sampled);
                        shedding_cycles += post_drop.len() as u64 * SAMPLING_TEST_CYCLES;
                    }
                    // Flow sampling is deterministic per query and happens
                    // inside the query's own task.
                    SheddingMethod::FlowSampling => {
                        shedding_cycles += post_drop.len() as u64 * SAMPLING_TEST_CYCLES;
                    }
                    SheddingMethod::Custom => {}
                }
            }
            // Pre-drawn in registration order: the noise RNG consumes a
            // configuration-fixed number of samples per running query, so
            // the stream matches the sequential path bit for bit.
            registered.bin.run = Some((rate, self.noise.draw()));
        }

        // Dispatch the expensive tail across the execution plane.
        dispatch_ns += self.dispatch(|query, window| query.run_tail(&post_drop, window));
        dispatched_tasks += self.queries.len();

        // Merge in registration order: every sum below folds in exactly the
        // sequence the sequential path used.
        let mut query_cycles_total = 0.0;
        let mut query_records = Vec::with_capacity(self.queries.len());
        for registered in &mut self.queries {
            let slot = &registered.bin;
            let (sampling_rate, measured_cycles, delivered_packets) = match slot.run {
                Some((rate, _)) => (rate, slot.measured, slot.delivered_packets),
                None => (0.0, 0.0, 0),
            };
            query_records.push(QueryBinRecord {
                id: registered.id,
                name: registered.label.clone(),
                sampling_rate,
                predicted_cycles: slot.predicted,
                measured_cycles,
                delivered_packets,
                disabled: slot.run.is_none(),
            });
            if let Some((rate, _)) = slot.run {
                shedding_cycles += slot.reextract_ops * REEXTRACT_OP_CYCLES;
                unsampled_accumulator += post_drop.len() as u64 - slot.delivered_packets;
                query_cycles_total += slot.measured;

                // Chapter 6 enforcement for custom load shedding queries.
                let expected = slot.predicted * rate;
                if registered.shedding == SheddingMethod::Custom && expected > 0.0 && !slot.outlier
                {
                    let overuse = slot.measured / expected;
                    registered.overuse_ratio = 0.3 * overuse + 0.7 * registered.overuse_ratio;
                    if overuse > 1.0 + self.config.enforcement.tolerance {
                        registered.violations += 1;
                        if registered.violations >= self.config.enforcement.max_violations {
                            registered.penalty_remaining = self.config.enforcement.penalty_bins;
                            registered.violations = 0;
                        }
                    } else {
                        registered.violations = 0;
                    }
                }
            }
        }

        // Close the loop: smooth the prediction error and the shedding cost,
        // account the bin against the capture buffer and update the buffer
        // discovery threshold.
        let shedding_cycles_f = shedding_cycles as f64;
        let alpha = self.config.ewma_alpha;
        self.shed_cycles_ewma = alpha * shedding_cycles_f + (1.0 - alpha) * self.shed_cycles_ewma;
        let expected_total: f64 =
            predictions.iter().zip(rates.iter()).map(|(prediction, rate)| prediction * rate).sum();
        if query_cycles_total > 0.0 && expected_total > 0.0 {
            let observed_error = (1.0 - expected_total / query_cycles_total).max(0.0);
            self.error_ewma = alpha * observed_error + (1.0 - alpha) * self.error_ewma;
        }

        let total_cycles =
            query_cycles_total + prediction_cycles as f64 + shedding_cycles_f + platform_cycles;
        self.buffer.account_bin(total_cycles);
        self.update_buffer_discovery(total_cycles);

        // Remember the reactive state for the next bin.
        let mean_rate =
            if rates.is_empty() { 1.0 } else { rates.iter().sum::<f64>() / rates.len() as f64 };
        self.reactive_rate = mean_rate.max(self.config.reactive_min_rate);
        self.reactive_consumed = total_cycles;
        self.reactive_query_cycles = query_cycles_total;

        let unsampled_packets = if self.queries.is_empty() {
            0
        } else {
            unsampled_accumulator / self.queries.len() as u64
        };

        // Execution-plane telemetry: sequential time is everything this call
        // spent outside its dispatches.
        let total_bin_ns = bin_start.elapsed().as_nanos() as u64;
        self.exec_stats.fold_bin(
            total_bin_ns.saturating_sub(dispatch_ns),
            dispatch_ns,
            dispatched_tasks,
        );

        Ok(BinRecord {
            bin_index: batch.bin_index,
            incoming_packets,
            uncontrolled_drops,
            unsampled_packets,
            available_cycles,
            predicted_cycles: predicted_total,
            query_cycles: query_cycles_total,
            prediction_cycles: prediction_cycles as f64,
            shedding_cycles: shedding_cycles_f,
            platform_cycles,
            buffer_occupation: self.buffer.occupation(),
            queries: query_records,
            interval_outputs,
            decision,
        })
    }

    /// Fans `run` out over the registered queries on the execution plane,
    /// each beside the shared feature window, and returns the dispatch's
    /// wall nanoseconds.
    fn dispatch(&mut self, run: impl Fn(&mut RegisteredQuery, &FeatureWindow) + Sync) -> u64 {
        // lint:allow(telemetry-clock): dispatch wall time is ExecStats telemetry only; the merge stays registration-ordered
        let start = Instant::now();
        let window = &self.window;
        exec::run_tasks(self.config.workers, &mut self.queries, |query| run(query, window));
        start.elapsed().as_nanos() as u64
    }

    /// Slow-start-like buffer discovery (Section 4.1).
    fn update_buffer_discovery(&mut self, total_cycles: f64) {
        if !self.config.buffer_discovery {
            return;
        }
        let capacity = self.config.capacity_cycles_per_bin;
        if self.buffer.occupation() > BUFFER_UNSTABLE_OCCUPATION {
            // The system is turning unstable: back off.
            self.rtthresh_ssthresh = (self.rtthresh / 2.0).max(capacity * 0.01);
            self.rtthresh = 0.0;
            return;
        }
        if total_cycles < capacity {
            let increment = capacity * 0.01;
            if self.rtthresh < self.rtthresh_ssthresh {
                // Exponential growth while below the slow-start threshold.
                self.rtthresh = (self.rtthresh * 2.0).max(increment);
            } else {
                self.rtthresh += increment;
            }
            self.rtthresh = self.rtthresh.min(capacity * RTTHRESH_MAX_FRACTION);
        }
    }

    /// Collects the per-query outputs for the interval that just ended.
    fn close_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.queries
            .iter_mut()
            .map(|registered| {
                // Shadow twins close intervals on the same boundaries so
                // their per-interval state cannot grow without bound; their
                // outputs are discarded (only their cycles matter).
                if let Some(shadow) = registered.shadow.as_mut() {
                    let _ = shadow.end_interval();
                }
                (registered.label.clone(), registered.query.end_interval())
            })
            .collect()
    }

    /// Serializes the monitor's *essential* state — everything a restored
    /// process needs to continue the run bit-identically: sketch tables and
    /// predictor histories, both RNG positions, the control-loop EWMAs, the
    /// buffer-discovery thresholds, the capture backlog and every registered
    /// query's enforcement counters. Derivable state (H3 hashers, scratch
    /// buffers, execution telemetry) is reconstructed on load instead of
    /// stored.
    ///
    /// Fails with [`StateError::Unsupported`] when a query was registered
    /// through [`Monitor::register_instance`] (no [`QuerySpec`] to rebuild it
    /// from) or runs a query/predictor without checkpoint support.
    pub fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.str(&self.policy.name());
        self.extractor.save_state(writer);
        self.buffer.save_state(writer);
        for word in self.rng.state() {
            writer.u64(word);
        }
        for word in self.noise.rng_state() {
            writer.u64(word);
        }
        writer.f64(self.error_ewma);
        writer.f64(self.shed_cycles_ewma);
        writer.f64(self.rtthresh);
        writer.f64(self.rtthresh_ssthresh);
        writer.f64(self.reactive_rate);
        writer.f64(self.reactive_consumed);
        writer.f64(self.reactive_query_cycles);
        writer.opt_u64(self.current_interval);
        self.policy.save_state(writer)?;
        writer.usize(self.queries.len());
        for registered in &self.queries {
            let spec = registered.spec.as_ref().ok_or_else(|| {
                StateError::unsupported(format!(
                    "query '{}' was registered as a bare instance (no QuerySpec to rebuild from)",
                    registered.label
                ))
            })?;
            writer.u64(registered.id.0);
            writer.str(&registered.label);
            spec.save_state(writer);
            writer.f64(registered.min_rate);
            writer.u64(registered.hasher_generation);
            writer.f64(registered.overuse_ratio);
            writer.u32(registered.violations);
            writer.u32(registered.penalty_remaining);
            registered.query.save_state(writer)?;
            match &registered.shadow {
                None => writer.bool(false),
                Some(shadow) => {
                    writer.bool(true);
                    shadow.save_state(writer)?;
                }
            }
            registered.predictor.save_state(writer)?;
            registered.sampled_extractor.save_state(writer);
        }
        writer.u64(self.next_query_id);
        Ok(())
    }

    /// Restores state written by [`Monitor::save_state`] into a monitor
    /// freshly built from the *same* configuration (its policy and predictor
    /// specs included). Any queries registered on `self`
    /// before the call are discarded; the snapshot's registry — ids, labels
    /// and all per-query state — replaces them wholesale.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let policy_name = reader.str()?;
        if policy_name != self.policy.name() {
            return Err(StateError::mismatch("policy name", policy_name, self.policy.name()));
        }
        self.extractor.load_state(reader)?;
        self.buffer.load_state(reader)?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = reader.u64()?;
        }
        self.rng = StdRng::from_state(rng_state);
        let mut noise_state = [0u64; 4];
        for word in &mut noise_state {
            *word = reader.u64()?;
        }
        self.noise.restore_rng(noise_state);
        self.error_ewma = bounded(reader.f64()?, "error_ewma", f64::MAX)?;
        self.shed_cycles_ewma = bounded(reader.f64()?, "shed_cycles_ewma", f64::MAX)?;
        self.rtthresh = bounded(reader.f64()?, "rtthresh", f64::MAX)?;
        // Infinite until the buffer discovery first backs off.
        self.rtthresh_ssthresh = bounded(reader.f64()?, "rtthresh_ssthresh", f64::INFINITY)?;
        self.reactive_rate = bounded(reader.f64()?, "reactive_rate", 1.0)?;
        self.reactive_consumed = bounded(reader.f64()?, "reactive_consumed", f64::MAX)?;
        self.reactive_query_cycles = bounded(reader.f64()?, "reactive_query_cycles", f64::MAX)?;
        self.current_interval = reader.opt_u64()?;
        self.policy.load_state(reader)?;
        let count = reader.usize()?;
        let needs_shadow = self.policy.needs_measured_cycles();
        self.queries.clear();
        for _ in 0..count {
            let id = QueryId(reader.u64()?);
            let label = reader.str()?;
            let spec = QuerySpec::load_state(reader)?;
            let min_rate = bounded(reader.f64()?, &format!("query '{label}' min_rate"), 1.0)?;
            let hasher_generation = reader.u64()?;
            let overuse_ratio =
                bounded(reader.f64()?, &format!("query '{label}' overuse_ratio"), f64::MAX)?;
            let query = build_query_from_spec(&spec);
            let mut registered = RegisteredQuery::new(
                &self.config,
                id,
                label,
                min_rate,
                Some(spec),
                query,
                needs_shadow,
            );
            registered.flow_hasher = flow_hasher(self.config.seed, id, hasher_generation);
            registered.hasher_generation = hasher_generation;
            registered.overuse_ratio = overuse_ratio;
            registered.violations = reader.u32()?;
            registered.penalty_remaining = reader.u32()?;
            registered.query.load_state(reader)?;
            if reader.bool()? {
                let Some(shadow) = registered.shadow.as_mut() else {
                    return Err(StateError::corrupt(format!(
                        "query '{}' carries shadow state but policy \
                         '{policy_name}' does not run shadows",
                        registered.label
                    )));
                };
                shadow.load_state(reader)?;
            }
            registered.predictor.load_state(reader)?;
            registered.sampled_extractor.load_state(reader)?;
            self.queries.push(registered);
        }
        self.next_query_id = reader.u64()?;
        if let Some(max_id) = self.queries.iter().map(|q| q.id.0).max() {
            if self.next_query_id <= max_id {
                return Err(StateError::corrupt(format!(
                    "next_query_id {} does not exceed the largest restored id {max_id}",
                    self.next_query_id
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocationPolicy, Strategy};
    use netshed_queries::QueryKind;
    use netshed_trace::{TraceConfig, TraceGenerator};

    fn small_trace(batches: usize, mean_packets: f64) -> Vec<Batch> {
        let config = TraceConfig::default()
            .with_seed(3)
            .with_mean_packets_per_batch(mean_packets)
            .with_payloads(true);
        TraceGenerator::new(config).batches(batches)
    }

    fn monitor_with_queries(config: MonitorConfig, kinds: &[QueryKind]) -> Monitor {
        let mut monitor = Monitor::new(config);
        for kind in kinds {
            monitor.register(&QuerySpec::new(*kind)).expect("valid spec");
        }
        monitor
    }

    /// Drives batches through a monitor while folding everything emitted
    /// into a digest observer (the `Monitor::run` loop, minus the source).
    fn drive(
        monitor: &mut Monitor,
        observer: &mut crate::digest::DigestObserver,
        batches: &[Batch],
    ) {
        for batch in batches {
            monitor.ingest(batch, observer).expect("batch");
        }
    }

    /// Flushes the final interval into the observer, ending the run.
    fn flush(monitor: &mut Monitor, observer: &mut crate::digest::DigestObserver) {
        use crate::observer::RunObserver;
        observer.on_interval(&monitor.finish_interval());
    }

    /// Measures the unconstrained total demand (queries + overheads) of a
    /// query set over a few batches.
    fn measure_demand(kinds: &[QueryKind], batches: &[Batch]) -> f64 {
        let config = MonitorConfig::default()
            .with_capacity(1e12)
            .with_strategy(Strategy::NoShedding)
            .without_noise();
        let mut monitor = monitor_with_queries(config, kinds);
        let mut total = 0.0;
        for batch in batches {
            total += monitor.process_batch(batch).expect("batch").total_cycles();
        }
        total / batches.len() as f64
    }

    #[test]
    fn no_shedding_with_ample_capacity_processes_everything() {
        let batches = small_trace(20, 200.0);
        let config = MonitorConfig::default().with_capacity(1e12).without_noise();
        let mut monitor = monitor_with_queries(config, &[QueryKind::Counter, QueryKind::Flows]);
        for batch in &batches {
            let record = monitor.process_batch(batch).expect("batch");
            assert_eq!(record.uncontrolled_drops, 0);
            assert!(record.queries.iter().all(|q| (q.sampling_rate - 1.0).abs() < 1e-9));
        }
        assert_eq!(monitor.uncontrolled_drops(), 0);
    }

    #[test]
    fn predictive_shedding_keeps_cycles_near_capacity_under_overload() {
        let batches = small_trace(120, 400.0);
        // The seven-query set of the Chapter 4 evaluation.
        let kinds = QueryKind::CHAPTER4_SET;
        let demand = measure_demand(&kinds, &batches[..20]);
        // Capacity set to half the demand: the system is overloaded by 2x.
        let capacity = demand / 2.0;
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(AllocationPolicy::EqualRates))
            .without_noise();
        let mut monitor = monitor_with_queries(config, &kinds);
        let mut steady_state_cycles = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let record = monitor.process_batch(batch).expect("batch");
            // Give the predictor a warm-up period before judging.
            if i > 30 {
                steady_state_cycles.push(record.total_cycles());
            }
        }
        // Single bins may exceed the capacity thanks to the buffer discovery
        // mechanism, but the steady-state average must stay near the capacity
        // for the system to be stable.
        let mean = steady_state_cycles.iter().sum::<f64>() / steady_state_cycles.len() as f64;
        assert!(
            mean <= capacity * 1.25,
            "predictive shedding should keep average usage near capacity \
             (mean = {mean:.0}, capacity = {capacity:.0})"
        );
        assert_eq!(monitor.uncontrolled_drops(), 0, "predictive shedding should avoid drops");
    }

    #[test]
    fn no_shedding_under_overload_drops_packets_uncontrolled() {
        let batches = small_trace(80, 400.0);
        let demand = measure_demand(&[QueryKind::Flows, QueryKind::PatternSearch], &batches[..20]);
        let config = MonitorConfig::default()
            .with_capacity(demand / 2.0)
            .with_strategy(Strategy::NoShedding)
            .without_noise();
        let mut monitor =
            monitor_with_queries(config, &[QueryKind::Flows, QueryKind::PatternSearch]);
        for batch in &batches {
            monitor.process_batch(batch).expect("batch");
        }
        assert!(
            monitor.uncontrolled_drops() > 0,
            "an overloaded system without load shedding must drop packets"
        );
    }

    #[test]
    fn interval_outputs_are_emitted_once_per_interval() {
        let batches = small_trace(25, 100.0);
        let config = MonitorConfig::default().with_capacity(1e12).without_noise();
        let mut monitor = monitor_with_queries(config, &[QueryKind::Counter]);
        let mut interval_count = 0;
        for batch in &batches {
            if monitor.process_batch(batch).expect("batch").interval_outputs.is_some() {
                interval_count += 1;
            }
        }
        let final_outputs = monitor.finish_interval();
        assert_eq!(final_outputs.len(), 1);
        // 25 batches of 100 ms = 2.5 s → two closed intervals mid-run.
        assert_eq!(interval_count, 2);
    }

    #[test]
    fn min_rate_constraints_disable_queries_when_infeasible() {
        let batches = small_trace(80, 400.0);
        let kinds = QueryKind::CHAPTER4_SET;
        let demand = measure_demand(&kinds, &batches[..20]);
        let config = MonitorConfig::default()
            // Severe overload: only a third of the demand fits.
            .with_capacity(demand / 3.0)
            .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .without_noise();
        let mut monitor = monitor_with_queries(config, &kinds);
        let topk_index = kinds.iter().position(|k| *k == QueryKind::TopK).unwrap();
        let counter_index = kinds.iter().position(|k| *k == QueryKind::Counter).unwrap();
        let mut topk_disabled = 0;
        let mut counter_disabled = 0;
        for (i, batch) in batches.iter().enumerate() {
            let record = monitor.process_batch(batch).expect("batch");
            if i > 30 {
                if record.queries[topk_index].disabled {
                    topk_disabled += 1;
                }
                if record.queries[counter_index].disabled {
                    counter_disabled += 1;
                }
            }
        }
        // top-k demands at least 57% sampling, counter only 3%: under severe
        // overload the max-min fair allocation must disable top-k much more
        // often than counter.
        assert!(
            topk_disabled > counter_disabled * 2,
            "the expensive, high-minimum query should be disabled much more often \
             ({topk_disabled} vs {counter_disabled})"
        );
    }

    #[test]
    fn query_arrival_mid_run_is_supported() {
        let batches = small_trace(30, 100.0);
        let config = MonitorConfig::default().with_capacity(1e12).without_noise();
        let mut monitor = monitor_with_queries(config, &[QueryKind::Counter]);
        let mut flows_id = None;
        for (i, batch) in batches.iter().enumerate() {
            if i == 10 {
                flows_id =
                    Some(monitor.register(&QuerySpec::new(QueryKind::Flows)).expect("valid spec"));
            }
            let record = monitor.process_batch(batch).expect("batch");
            if i >= 10 {
                assert_eq!(record.queries.len(), 2);
            }
        }
        let flows_id = flows_id.expect("registered mid-run");
        assert!(monitor.deregister(flows_id).is_ok());
        assert_eq!(
            monitor.deregister(flows_id),
            Err(NetshedError::UnknownQuery(flows_id.to_string()))
        );
    }

    #[test]
    fn empty_batches_and_zero_capacity_are_typed_errors() {
        let config = MonitorConfig::default().with_capacity(1e12).without_noise();
        let mut monitor = monitor_with_queries(config, &[QueryKind::Counter]);
        let empty = Batch::empty(3, 300_000, 100_000);
        assert!(matches!(
            monitor.process_batch(&empty),
            Err(NetshedError::EmptyBatch { bin_index: 3 })
        ));

        let broken = MonitorConfig::default().with_capacity(0.0).without_noise();
        let mut broken_monitor = monitor_with_queries(broken, &[QueryKind::Counter]);
        let batch = &small_trace(1, 50.0)[0];
        assert!(matches!(
            broken_monitor.process_batch(batch),
            Err(NetshedError::CapacityUnderflow { .. })
        ));
    }

    #[test]
    fn reactive_strategy_reduces_rate_after_overload() {
        let batches = small_trace(60, 400.0);
        let demand = measure_demand(&[QueryKind::PatternSearch], &batches[..20]);
        let config = MonitorConfig::default()
            .with_capacity(demand / 2.0)
            .with_strategy(Strategy::Reactive(AllocationPolicy::EqualRates))
            .without_noise();
        let mut monitor = monitor_with_queries(config, &[QueryKind::PatternSearch]);
        let mut sampled_bins = 0;
        for batch in &batches {
            let record = monitor.process_batch(batch).expect("batch");
            if record.mean_sampling_rate() < 0.99 {
                sampled_bins += 1;
            }
        }
        assert!(sampled_bins > 20, "reactive shedding should sample most bins: {sampled_bins}");
    }

    /// Pins the reactive/allocator decision (see DESIGN.md, "Control plane"):
    /// the reactive family honours per-query minimum sampling rates by
    /// routing the Eq. 4.1 global rate through its allocation policy, so the
    /// three `reactive*` variants genuinely differ once a minimum binds —
    /// `eq_srates` disables the violator, the max-min schemes pin it at its
    /// minimum — and stay identical to the historical behaviour otherwise.
    #[test]
    fn reactive_allocation_policy_resolves_binding_minimums() {
        let batches = small_trace(60, 400.0);
        // top-k demands at least 57% sampling; under mild overload the
        // reactive global rate settles below that, so its minimum binds.
        let kinds = [QueryKind::TopK, QueryKind::Counter, QueryKind::PatternSearch];
        let demand = measure_demand(&kinds, &batches[..20]);

        let run = |strategy: Strategy| -> Vec<BinRecord> {
            let config = MonitorConfig::default()
                .with_capacity(demand * 0.8)
                .with_strategy(strategy)
                .without_noise();
            let mut monitor = monitor_with_queries(config, &kinds);
            batches.iter().map(|batch| monitor.process_batch(batch).expect("batch")).collect()
        };

        let eq = run(Strategy::Reactive(AllocationPolicy::EqualRates));
        let pkt = run(Strategy::Reactive(AllocationPolicy::MmfsPkt));

        // eq_srates disables top-k in the bins where its minimum binds ...
        let eq_disabled = eq.iter().filter(|record| record.queries[0].disabled).count();
        assert!(eq_disabled > 5, "eq_srates should disable top-k often ({eq_disabled} bins)");
        // ... while mmfs_pkt pins it at its 0.57 minimum instead.
        let pkt_pinned = pkt
            .iter()
            .filter(|record| {
                !record.queries[0].disabled && (record.queries[0].sampling_rate - 0.57).abs() < 1e-9
            })
            .count();
        assert!(pkt_pinned > 5, "mmfs_pkt should pin top-k at its minimum ({pkt_pinned} bins)");

        // With no binding minimums all reactive variants are bit-identical.
        let free_specs: Vec<QuerySpec> =
            kinds.iter().map(|kind| QuerySpec::new(*kind).with_min_rate(0.0)).collect();
        let run_free = |strategy: Strategy| -> Vec<f64> {
            let config = MonitorConfig::default()
                .with_capacity(demand * 0.8)
                .with_strategy(strategy)
                .without_noise();
            let mut monitor = Monitor::new(config);
            for spec in &free_specs {
                monitor.register(spec).expect("valid spec");
            }
            batches
                .iter()
                .map(|batch| monitor.process_batch(batch).expect("batch").mean_sampling_rate())
                .collect()
        };
        assert_eq!(
            run_free(Strategy::Reactive(AllocationPolicy::EqualRates)),
            run_free(Strategy::Reactive(AllocationPolicy::MmfsPkt)),
            "without binding minimums the reactive variants must not diverge"
        );
    }

    #[test]
    fn oracle_policy_controls_load_without_drops() {
        use crate::policy::OraclePolicy;
        use netshed_fairness::MmfsPkt;

        let batches = small_trace(120, 400.0);
        let kinds = QueryKind::CHAPTER4_SET;
        let demand = measure_demand(&kinds, &batches[..20]);
        let capacity = demand / 2.0;
        let config = MonitorConfig::default().with_capacity(capacity).without_noise();
        let mut monitor = monitor_with_queries(config, &kinds);
        monitor.set_policy(PolicySpec::new(|| OraclePolicy::new(MmfsPkt)));
        assert_eq!(monitor.policy_name(), "oracle_mmfs_pkt");

        let mut steady_state_cycles = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            let record = monitor.process_batch(batch).expect("batch");
            if i > 30 {
                steady_state_cycles.push(record.total_cycles());
            }
        }
        let mean = steady_state_cycles.iter().sum::<f64>() / steady_state_cycles.len() as f64;
        assert!(
            mean <= capacity * 1.25,
            "oracle shedding must keep usage near capacity (mean {mean:.0}, capacity {capacity:.0})"
        );
        assert_eq!(monitor.uncontrolled_drops(), 0, "the oracle must avoid drops");
    }

    #[test]
    fn hysteresis_recovers_more_slowly_than_plain_reactive() {
        use crate::policy::HysteresisReactivePolicy;
        use netshed_fairness::EqualRates;
        use netshed_trace::{Anomaly, AnomalyKind};

        // Normal traffic with a flood between bins 20 and 40: both policies
        // shed hard during the flood; the difference is how fast the rate
        // springs back once it ends.
        let mut generator = TraceGenerator::new(
            TraceConfig::default().with_seed(7).with_mean_packets_per_batch(200.0),
        );
        generator.add_anomaly(Anomaly::new(
            AnomalyKind::DdosFlood { target: 0x0a00_0001 },
            20,
            40,
            2000,
        ));
        let batches = generator.batches(80);
        let spec = QuerySpec::new(QueryKind::Flows).with_min_rate(0.0);
        let demand = measure_demand(&[QueryKind::Flows], &batches[..15]);

        let recovery = 0.2;
        let run = |hysteresis: bool| -> Vec<f64> {
            let config = MonitorConfig::default()
                .with_capacity(demand * 1.5)
                .with_strategy(Strategy::Reactive(AllocationPolicy::EqualRates))
                .without_noise();
            let mut monitor = Monitor::new(config);
            monitor.register(&spec).expect("valid spec");
            if hysteresis {
                monitor.set_policy(PolicySpec::new(move || {
                    HysteresisReactivePolicy::new(EqualRates).with_recovery(recovery)
                }));
            }
            batches
                .iter()
                .map(|batch| monitor.process_batch(batch).expect("batch").mean_sampling_rate())
                .collect()
        };
        let plain = run(false);
        let damped = run(true);
        let upswing = |rates: &[f64]| -> f64 {
            rates.windows(2).map(|w| (w[1] - w[0]).max(0.0)).fold(0.0f64, f64::max)
        };
        assert!(
            plain.iter().any(|rate| *rate < 0.6),
            "the flood must force plain reactive to shed ({plain:?})"
        );
        // With no binding minimums the damped global rate moves up by at most
        // `recovery × gap ≤ recovery` per bin; plain snaps back in one bin.
        assert!(
            upswing(&damped) <= recovery + 1e-9,
            "hysteresis must cap the per-bin recovery at {recovery} (saw {:.3})",
            upswing(&damped)
        );
        assert!(
            upswing(&plain) > upswing(&damped),
            "plain reactive should rebound faster ({:.3} vs {:.3})",
            upswing(&plain),
            upswing(&damped)
        );
    }

    /// The checkpoint contract: saving mid-run and restoring into a fresh
    /// process-equivalent monitor continues the run *bit-identically* — the
    /// resumed digest equals the uninterrupted one.
    mod checkpoint {
        use super::*;
        use crate::digest::DigestObserver;

        fn round_trip(config: &MonitorConfig, kinds: &[QueryKind], batches: &[Batch], cut: usize) {
            let build = |with_queries: bool| -> Monitor {
                if with_queries {
                    monitor_with_queries(config.clone(), kinds)
                } else {
                    Monitor::new(config.clone())
                }
            };

            // Uninterrupted reference run.
            let mut reference = build(true);
            let mut reference_digest = DigestObserver::new();
            drive(&mut reference, &mut reference_digest, batches);
            flush(&mut reference, &mut reference_digest);

            // Run to the cut, serialize monitor + digest, drop everything.
            let mut first = build(true);
            let mut digest = DigestObserver::new();
            drive(&mut first, &mut digest, &batches[..cut]);
            let mut writer = StateWriter::new();
            first.save_state(&mut writer).expect("save");
            digest.save_state(&mut writer);
            let bytes = writer.into_bytes();
            drop(first);

            // Restore into a monitor with no queries registered and resume.
            let mut resumed = build(false);
            let mut reader = StateReader::new(&bytes);
            resumed.load_state(&mut reader).expect("load");
            let mut resumed_digest = DigestObserver::new();
            resumed_digest.load_state(&mut reader).expect("digest state");
            reader.finish().expect("no trailing bytes");
            assert_eq!(resumed.query_handles(), reference.query_handles());
            drive(&mut resumed, &mut resumed_digest, &batches[cut..]);
            flush(&mut resumed, &mut resumed_digest);

            assert_eq!(
                resumed_digest.digest(),
                reference_digest.digest(),
                "a restored run must be bit-identical to the uninterrupted one"
            );
        }

        #[test]
        fn predictive_run_resumes_bit_identically() {
            // Noise stays ON: both RNG positions must survive the round
            // trip. Flow- and packet-sampled queries exercise the hasher
            // reconstruction and the plan-phase RNG stream.
            let kinds =
                [QueryKind::Flows, QueryKind::TopK, QueryKind::PatternSearch, QueryKind::Counter];
            let batches = small_trace(48, 350.0);
            let demand = measure_demand(&kinds, &batches[..16]);
            let config =
                MonitorConfig::default().with_capacity(demand / 2.0).with_seed(11).with_workers(1);
            round_trip(&config, &kinds, &batches, 20);
        }

        #[test]
        fn hysteresis_policy_state_survives_the_checkpoint() {
            use crate::policy::HysteresisReactivePolicy;
            use netshed_fairness::EqualRates;

            let kinds = [QueryKind::Flows, QueryKind::Counter];
            let batches = small_trace(40, 350.0);
            let demand = measure_demand(&kinds, &batches[..12]);
            let config = MonitorConfig::default()
                .with_capacity(demand / 2.0)
                .with_strategy(PolicySpec::new(|| HysteresisReactivePolicy::new(EqualRates)))
                .without_noise();
            // Cut mid-recovery so a wrong `current` would diverge instantly.
            round_trip(&config, &kinds, &batches, 15);
        }

        #[test]
        fn oracle_shadow_state_survives_the_checkpoint() {
            use crate::policy::OraclePolicy;
            use netshed_fairness::MmfsPkt;

            let kinds = [QueryKind::Flows, QueryKind::PatternSearch];
            let batches = small_trace(36, 300.0);
            let demand = measure_demand(&kinds, &batches[..12]);
            let config = MonitorConfig::default()
                .with_capacity(demand / 2.0)
                .with_strategy(PolicySpec::new(|| OraclePolicy::new(MmfsPkt)))
                .without_noise();
            round_trip(&config, &kinds, &batches, 17);
        }

        #[test]
        fn restore_rejects_a_different_policy_naming_both() {
            let config = MonitorConfig::default().without_noise();
            let monitor = monitor_with_queries(config.clone(), &[QueryKind::Counter]);
            let mut writer = StateWriter::new();
            monitor.save_state(&mut writer).expect("save");
            let bytes = writer.into_bytes();
            let mut other = Monitor::new(config.with_strategy(Strategy::NoShedding));
            match other.load_state(&mut StateReader::new(&bytes)).unwrap_err() {
                StateError::Mismatch { what, found, expected } => {
                    assert_eq!(what, "policy name");
                    assert_eq!(found, "eq_srates");
                    assert_eq!(expected, "no_lshed");
                }
                other => panic!("expected a Mismatch naming both policies, got {other:?}"),
            }
        }

        #[test]
        fn bare_instances_cannot_be_checkpointed() {
            let mut monitor = Monitor::new(MonitorConfig::default().without_noise());
            monitor
                .register_instance(netshed_queries::build_query(QueryKind::Counter), None, None)
                .expect("register");
            let mut writer = StateWriter::new();
            match monitor.save_state(&mut writer).unwrap_err() {
                StateError::Unsupported(component) => {
                    assert!(component.contains("counter"), "{component}");
                }
                other => panic!("expected Unsupported, got {other:?}"),
            }
        }

        #[test]
        fn deregistered_ids_restore_without_renumbering() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let mut monitor = Monitor::new(config.clone());
            let first = monitor.register(&QuerySpec::new(QueryKind::Counter)).expect("register");
            let _second = monitor.register(&QuerySpec::new(QueryKind::Flows)).expect("register");
            monitor.deregister(first).expect("deregister");
            let batches = small_trace(5, 100.0);
            for batch in &batches {
                monitor.process_batch(batch).expect("batch");
            }
            let mut writer = StateWriter::new();
            monitor.save_state(&mut writer).expect("save");
            let bytes = writer.into_bytes();

            let mut restored = Monitor::new(config);
            restored.load_state(&mut StateReader::new(&bytes)).expect("load");
            assert_eq!(restored.query_handles(), monitor.query_handles());
            // A post-restore registration must not reuse the retired id 0.
            let third = restored.register(&QuerySpec::new(QueryKind::Counter)).expect("register");
            assert_eq!(third.index(), 2);
        }
    }

    /// Properties of the slow-start-like buffer discovery (Section 4.1),
    /// exercised directly against `update_buffer_discovery`.
    mod buffer_discovery {
        use super::*;
        use proptest::prelude::*;

        fn quiet_monitor(capacity: f64) -> Monitor {
            Monitor::new(MonitorConfig::default().with_capacity(capacity).without_noise())
        }

        proptest! {
            /// `rtthresh` never exceeds `capacity × RTTHRESH_MAX_FRACTION`,
            /// whatever load sequence drives it.
            #[test]
            fn rtthresh_never_exceeds_the_capacity_fraction(
                capacity in 1e6f64..1e10,
                loads in proptest::collection::vec(0.0f64..2.0, 1..300),
            ) {
                let mut monitor = quiet_monitor(capacity);
                for load_factor in loads {
                    monitor.buffer.account_bin(capacity * load_factor);
                    monitor.update_buffer_discovery(capacity * load_factor);
                    prop_assert!(monitor.rtthresh <= capacity * RTTHRESH_MAX_FRACTION + 1e-9);
                    prop_assert!(monitor.rtthresh >= 0.0);
                }
            }

            /// When the buffer occupation crosses the instability threshold,
            /// `rtthresh` resets to zero and the slow-start threshold halves.
            #[test]
            fn instability_resets_rtthresh_and_halves_ssthresh(
                capacity in 1e6f64..1e10,
                underloaded_bins in 1usize..200,
            ) {
                let mut monitor = quiet_monitor(capacity);
                for _ in 0..underloaded_bins {
                    monitor.update_buffer_discovery(capacity * 0.5);
                }
                let grown = monitor.rtthresh;
                prop_assert!(grown > 0.0);

                // Push the buffer past the instability occupation.
                let bins = monitor.config.buffer_capacity_bins;
                monitor.buffer.account_bin(capacity * (1.0 + bins * (BUFFER_UNSTABLE_OCCUPATION + 0.1)));
                monitor.update_buffer_discovery(capacity * 2.0);
                prop_assert_eq!(monitor.rtthresh, 0.0);
                prop_assert!(monitor.rtthresh_ssthresh >= capacity * 0.01 - 1e-9);
                prop_assert!(monitor.rtthresh_ssthresh <= (grown / 2.0).max(capacity * 0.01) + 1e-9);
            }

            /// Below the slow-start threshold growth is exponential
            /// (doubling per underloaded bin); above it, linear.
            #[test]
            fn growth_doubles_below_ssthresh_and_is_linear_above(
                capacity in 1e6f64..1e10,
            ) {
                let mut monitor = quiet_monitor(capacity);
                let increment = capacity * 0.01;

                // Slow-start phase: ssthresh is infinite, growth must double.
                monitor.update_buffer_discovery(capacity * 0.5);
                prop_assert!((monitor.rtthresh - increment).abs() < 1e-9);
                let mut previous = monitor.rtthresh;
                for _ in 0..3 {
                    monitor.update_buffer_discovery(capacity * 0.5);
                    prop_assert!((monitor.rtthresh - 2.0 * previous).abs() < 1e-6 * capacity);
                    previous = monitor.rtthresh;
                }

                // Force congestion avoidance: drop ssthresh below rtthresh.
                monitor.rtthresh_ssthresh = monitor.rtthresh / 2.0;
                let before = monitor.rtthresh;
                monitor.update_buffer_discovery(capacity * 0.5);
                let expected = (before + increment).min(capacity * RTTHRESH_MAX_FRACTION);
                prop_assert!((monitor.rtthresh - expected).abs() < 1e-9 * capacity.max(1.0));

                // Overloaded bins leave the threshold untouched (no growth).
                let held = monitor.rtthresh;
                monitor.update_buffer_discovery(capacity * 1.5);
                prop_assert_eq!(monitor.rtthresh, held);
            }
        }
    }
}
