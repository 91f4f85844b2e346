//! The monitoring system: prediction-driven load shedding over black-box
//! queries (Algorithm 1 of the paper plus the Chapter 5 allocation policies
//! and the Chapter 6 custom-shedding enforcement).
//!
//! This file is the monitor's state and everything around the bin — the
//! query registry, the policy swap, the interval clock, checkpoint and
//! restore. The bin itself ([`Monitor::process_batch`] and its stages) is
//! `bin.rs`, which is why the fields it works on are crate-visible.
//!
//! A monitor has a lane count: 1 from [`MonitorBuilder::build`],
//! `shard_lanes` behind a [`ShardedMonitor`](crate::ShardedMonitor). Lanes
//! shard *query execution* and nothing else — every registered query keeps
//! one instance per lane, fed the flows whose
//! [`shard_key`](netshed_trace::shard_key) names the lane — while the
//! extractor, the feature window, the capture buffer, the policy, both RNGs
//! and each query's predictor and sampled extractor exist once, whatever the
//! lane count (DESIGN.md, "Shard plane").
//!
//! Queries registered from equal specs share one set of lane instances, a
//! `Cohort`, for as long as the plan gives them the same delivery: the
//! instances advance once per bin and every member is charged their cycles
//! (DESIGN.md, "Cohorts").

use crate::bin::{Bin, BinSlot};
use crate::builder::MonitorBuilder;
use crate::capture::{bounded, CaptureBuffer};
use crate::config::{MonitorConfig, PolicySpec};
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::exec::{StageClock, StageStats};
use crate::observer::RunObserver;
use crate::policy::ControlPolicy;
use crate::report::RunSummary;
use netshed_features::{ExtractScratch, ExtractorConfig, FeatureExtractor};
use netshed_predict::{FeatureWindow, Predictor};
use netshed_queries::{
    build_query_from_spec, CustomBehavior, MeasurementNoise, Query, QueryKind, QueryOutput,
    QuerySpec, SheddingMethod,
};
use netshed_sketch::{DetHashMap, H3Hasher, StateError, StateReader, StateWriter};
use netshed_trace::{Batch, KeepListPool, PacketSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Capture buffer size in time bins of backlog the system can accumulate
/// before uncontrolled drops start (the DAG buffer of the paper).
pub(crate) const BUFFER_CAPACITY_BINS: f64 = 2.0;
/// Measurement noise: cycles a context-switch outlier adds to a batch.
const NOISE_OUTLIER_CYCLES: u64 = 200_000;

/// Stable handle to a query instance registered in a [`Monitor`].
///
/// Handles are unique for the lifetime of the monitor: deregistering a query
/// retires its id, and registering the same [`QuerySpec`] again yields a new
/// one. Because instances are identified by handle rather than by name, the
/// same [`QueryKind`] can run several times
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

/// One query registered in the monitor, together with its prediction state.
///
/// The query is also the only unit of dispatch: the execution plane hands
/// each worker one `&mut RegisteredQuery`, so everything a task mutates — the
/// shadow twin, the predictor, the extractor, the keep-list pool and the
/// [`BinSlot`] — lives here and nowhere else, and so do the lane instances
/// unless the query shares them with its cohort, behind the cohort's lock.
pub(crate) struct RegisteredQuery {
    pub(crate) id: QueryId,
    pub(crate) label: Arc<str>,
    pub(crate) shedding: SheddingMethod,
    pub(crate) min_rate: f64,
    /// The spec this instance was built from, when registered through
    /// [`Monitor::register`]; lets the monitor build a shadow twin for
    /// policies that need the true full-batch cycles.
    spec: Option<QuerySpec>,
    /// The measurement interval the flow-sampling hash function was last
    /// redrawn in (0 = the registration-time draw): advanced every interval
    /// the query runs, and checkpointed.
    pub(crate) hasher_generation: u64,
    /// That hash function, with the generation it was built for. Built in
    /// the plan only when the query is flow-sampled, so a query that never
    /// is holds no table.
    pub(crate) flow_hasher: Option<(u64, H3Hasher)>,
    /// Chapter 6 enforcement state.
    pub(crate) overuse_ratio: f64,
    pub(crate) violations: u32,
    pub(crate) penalty_remaining: u32,
    /// The query's lane instances, shared with the other members of its
    /// cohort; the only reference while it is alone.
    pub(crate) cohort: Arc<Cohort>,
    /// Shadow twin fed the full (unsampled) stream to measure the bin's
    /// actual cycles for oracle-style policies. Its work is not charged
    /// against the capacity.
    pub(crate) shadow: Option<Box<dyn Query>>,
    pub(crate) predictor: Box<dyn Predictor>,
    /// Extractor used to recompute features over this query's sampled stream
    /// (needed to keep the MLR history consistent, Section 4.3) — the global
    /// sample, before it is split over the lanes.
    pub(crate) sampled_extractor: FeatureExtractor,
    /// Keep-list pool for the views this query's task builds (the
    /// flow-sampled one, the lane views); owned per query so the dispatch
    /// needs no shared state.
    pub(crate) shed_pool: KeepListPool,
    /// This bin's plan and results (see `bin.rs`).
    pub(crate) slot: BinSlot,
}

// Registered queries cross the scoped-thread boundary as `&mut` borrows;
// `Query`, `Predictor` and the extractor are all `Send` by bound or by
// construction. Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RegisteredQuery>();
};

/// The lane instances of a cohort — the registered queries whose instances
/// are provably in one state — and what the first member to reach them in a
/// bin or at a close filed for the others. The stamps are the monitor's
/// (`Monitor::stamp`), so nothing filed in one bin or close is read in
/// another.
pub(crate) struct Cohort {
    /// The instances, and the last close's filing.
    instances: Mutex<Instances>,
    /// The stamp of the last plan that reached the cohort, and the bits of
    /// the rate it gave the first member it planned. Only the plan touches
    /// them, on one thread, so `Relaxed` suffices.
    planned_stamp: AtomicU64,
    planned_rate: AtomicU64,
    /// The cycles the instances metered in the bin whose stamp `ran_stamp`
    /// holds: stored before it (`Release`), read after it (`Acquire`), so a
    /// member that finds its bin's stamp reads them without the lock.
    ran_cycles: AtomicU64,
    ran_stamp: AtomicU64,
}

/// What a cohort's lock guards.
pub(crate) struct Instances {
    /// One per lane of the monitor, in lane order.
    pub(crate) lanes: Vec<Box<dyn Query>>,
    /// The stamp of the last close, and the output the instances reported.
    closed: Option<(u64, QueryOutput)>,
}

impl Cohort {
    /// A cohort of one, running `lanes`.
    fn of(lanes: Vec<Box<dyn Query>>) -> Arc<Cohort> {
        Arc::new(Cohort {
            instances: Mutex::new(Instances { lanes, closed: None }),
            planned_stamp: AtomicU64::new(0),
            planned_rate: AtomicU64::new(0),
            ran_cycles: AtomicU64::new(0),
            ran_stamp: AtomicU64::new(0),
        })
    }

    /// The instances, locked. Poisoning is ignored: a kernel that panics
    /// under the lock leaves them as a panic leaves a lone query's, which no
    /// lock guards, and the panic propagates out of the dispatch that raised
    /// it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Instances> {
        self.instances.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The instances of a cohort of one, reached without the lock. Only the
    /// plan and the registry clone or drop a cohort, so the count a task
    /// reads holds for the whole dispatch.
    pub(crate) fn alone(cohort: &mut Arc<Cohort>) -> Option<&mut Instances> {
        if Arc::strong_count(cohort) > 1 {
            return None;
        }
        let instances = &mut Arc::get_mut(cohort)?.instances;
        Some(instances.get_mut().unwrap_or_else(PoisonError::into_inner))
    }

    /// The cycles the instances meter in bin `stamp`, and whether this call
    /// metered them: the first member to ask runs them, the others read
    /// what it filed.
    pub(crate) fn run(
        &self,
        stamp: u64,
        meter: impl FnOnce(&mut [Box<dyn Query>]) -> u64,
    ) -> (u64, bool) {
        let mut ran = false;
        if self.ran_stamp.load(Ordering::Acquire) != stamp {
            let mut instances = self.lock();
            // Another member may have run them while this one waited; the
            // lock orders this load after that member's stores.
            if self.ran_stamp.load(Ordering::Relaxed) != stamp {
                ran = true;
                self.ran_cycles.store(meter(&mut instances.lanes), Ordering::Relaxed);
                self.ran_stamp.store(stamp, Ordering::Release);
            }
        }
        (self.ran_cycles.load(Ordering::Relaxed), ran)
    }
}

/// What two registrations must agree on, bit for bit, to share instances:
/// the spec except its label, and the minimum rate and shedding method it
/// resolved to.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct CohortKey {
    kind: QueryKind,
    min_sampling_rate: Option<u64>,
    custom_behavior: Option<CustomBehavior>,
    min_rate: u64,
    shedding: SheddingMethod,
}

impl CohortKey {
    /// The key of a registered query; `None` for a bare instance, which
    /// has no spec to agree on and always runs alone.
    fn of(registered: &RegisteredQuery) -> Option<Self> {
        registered.spec.as_ref().map(|spec| Self {
            kind: spec.kind,
            min_sampling_rate: spec.min_sampling_rate.map(f64::to_bits),
            custom_behavior: spec.custom_behavior,
            min_rate: registered.min_rate.to_bits(),
            shedding: registered.shedding,
        })
    }
}

/// A fresh instance of `spec` in `query`'s state, copied through the query's
/// own checkpoint, which is bit-exact by contract.
fn copy_of(query: &dyn Query, spec: &QuerySpec) -> Box<dyn Query> {
    let (mut copy, mut writer) = (build_query_from_spec(spec), StateWriter::new());
    let copied = query
        .save_state(&mut writer)
        .and_then(|()| copy.load_state(&mut StateReader::new(writer.as_bytes())));
    // lint:allow(no-unwrap): only spec'd queries share instances, and every kind a spec builds round-trips its state bit for bit (the checkpoint contract)
    copied.expect("a spec-built query round-trips its state");
    copy
}

/// The bytes a load consumed: `before` is a copy of the reader taken ahead of
/// it, `after` the reader once it returned.
fn consumed<'a>(before: &StateReader<'a>, after: &StateReader<'a>) -> &'a [u8] {
    &before.unread()[..before.remaining() - after.remaining()]
}

/// Restores a query's lane instances from `reader`, in lane order; a table
/// no run could have written is rejected by the query's own loader, with the
/// lane named from lane 1 on.
fn load_lanes(
    lanes: &mut [Box<dyn Query>],
    reader: &mut StateReader<'_>,
) -> Result<(), StateError> {
    for (lane, instance) in lanes.iter_mut().enumerate() {
        instance.load_state(reader).map_err(|error| match error {
            StateError::Corrupt(message) if lane > 0 => {
                StateError::corrupt(format!("lane {lane}: {message}"))
            }
            other => other,
        })?;
    }
    Ok(())
}

/// Closes an interval on one query's lane instances: lane 0
/// [absorbs](Query::absorb) the other lanes' state, in lane order, and
/// reports — as the only instance of a one-lane monitor does, with nothing
/// to absorb.
fn end_interval(lanes: &mut [Box<dyn Query>]) -> QueryOutput {
    let (first, others) = lanes.split_at_mut(1);
    for lane in others {
        first[0].absorb(lane.as_mut());
    }
    first[0].end_interval()
}

impl RegisteredQuery {
    /// The plan's last step for the query, given the rate its instances run
    /// at on the post-drop view this bin — 0 when it sits the bin out — or
    /// `None` when it runs on a sample of its own (packet or flow sampling
    /// below rate 1), which no other query sees. A member of a cohort stays
    /// in it when that rate has the bits of the first planned member's, and
    /// otherwise detaches onto a copy of the instances, before anything
    /// runs. Called sequentially, in registration order, with the bin's
    /// `stamp`; a query alone pays one reference-count read.
    pub(crate) fn plan_cohort(&mut self, stamp: u64, unsampled_rate: Option<f64>) {
        if Arc::strong_count(&self.cohort) == 1 {
            return;
        }
        let cohort = &self.cohort;
        let stays = match unsampled_rate.map(f64::to_bits) {
            None => false,
            Some(bits) if cohort.planned_stamp.load(Ordering::Relaxed) != stamp => {
                cohort.planned_stamp.store(stamp, Ordering::Relaxed);
                cohort.planned_rate.store(bits, Ordering::Relaxed);
                true
            }
            Some(bits) => cohort.planned_rate.load(Ordering::Relaxed) == bits,
        };
        if !stays {
            // Only a spec'd query ever shares its instances (`CohortKey`).
            if let Some(spec) = &self.spec {
                let lanes =
                    cohort.lock().lanes.iter().map(|lane| copy_of(lane.as_ref(), spec)).collect();
                self.cohort = Cohort::of(lanes);
            }
        }
    }

    /// Closes the interval on the query's instances; in a cohort the first
    /// member to close at `stamp` files the output and the others clone it.
    fn close(&mut self, stamp: u64) -> QueryOutput {
        if let Some(own) = Cohort::alone(&mut self.cohort) {
            return end_interval(&mut own.lanes);
        }
        let mut instances = self.cohort.lock();
        match &instances.closed {
            Some((closed, output)) if *closed == stamp => output.clone(),
            _ => {
                let output = end_interval(&mut instances.lanes);
                instances.closed = Some((stamp, output.clone()));
                output
            }
        }
    }
}

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
pub(crate) fn flow_hasher(seed: u64, id: QueryId, generation: u64) -> H3Hasher {
    let salt = if generation == 0 { id.0 + 1 } else { (generation << 8) ^ id.0 };
    H3Hasher::new(13, seed ^ salt)
}

/// The shadow twin a policy that needs measured cycles runs beside a query.
/// Only a spec can be built twice, so a bare instance has none.
fn shadow_twin(spec: Option<&QuerySpec>, needs_shadow: bool) -> Option<Box<dyn Query>> {
    spec.filter(|_| needs_shadow).map(build_query_from_spec)
}

/// The load-shedding monitoring system.
pub struct Monitor {
    pub(crate) config: MonitorConfig,
    /// Lanes the execute stage splits every query over (see the module doc).
    pub(crate) lane_count: usize,
    /// The lane of every flow of the bin under way, by flow id; execute's
    /// scratch, refilled per bin when there is more than one lane.
    pub(crate) lane_of_flow: Vec<u32>,
    /// The control-plane policy deciding per-bin sampling rates: this
    /// monitor's own instance of `config.policy`.
    pub(crate) policy: Box<dyn ControlPolicy>,
    pub(crate) extractor: FeatureExtractor,
    /// One extraction scratch per worker, lent to whichever task runs there
    /// (the plan thread uses the first); empty between extractions.
    pub(crate) scratch: Vec<ExtractScratch>,
    pub(crate) queries: Vec<RegisteredQuery>,
    pub(crate) buffer: CaptureBuffer,
    pub(crate) noise: MeasurementNoise,
    pub(crate) rng: StdRng,
    /// EWMA of the relative under-prediction error (Algorithm 1, line 17).
    pub(crate) error_ewma: f64,
    /// EWMA of the cycles spent by the load shedding subsystem itself.
    pub(crate) shed_cycles_ewma: f64,
    /// Buffer-discovery threshold (`rtthresh` of Section 4.1).
    pub(crate) rtthresh: f64,
    /// Slow-start threshold of the buffer discovery algorithm.
    pub(crate) rtthresh_ssthresh: f64,
    /// Reactive strategy state: previous global sampling rate and cycles.
    pub(crate) reactive_rate: f64,
    pub(crate) reactive_consumed: f64,
    /// Query-only cycles of the previous bin (no capture/prediction
    /// overheads) — the tripwire denomination of the robustness plane.
    pub(crate) reactive_query_cycles: f64,
    current_interval: Option<u64>,
    /// Monotonic registration counter backing [`QueryId`] handles.
    next_query_id: u64,
    /// Keep-list pool for the shed views drawn on the caller's thread
    /// (capture-buffer overflow and packet sampling), recycled across bins.
    /// Its key buffer holds the plan's packet keys, one per packet of the
    /// bin, which every packet-sampled query's cut and the nested
    /// re-extraction read (see `shedder.rs`): scratch, neither snapshot nor
    /// digest state.
    pub(crate) shed_pool: KeepListPool,
    /// The last full-batch feature rows, with the feature side of FCBF
    /// computed once per bin for every predictor still aligned with it. A
    /// cache: neither snapshot nor digest state.
    pub(crate) window: FeatureWindow,
    /// What one stage of the bin under way hands the next; cleared at admit
    /// and refilled, never read across bins (see `bin.rs`).
    pub(crate) bin: Bin,
    /// The lap clock behind [`Monitor::stage_stats`]: telemetry only, never
    /// snapshot, digest or decision input.
    pub(crate) clock: StageClock,
    /// The cohorts whose instances have neither run a bin nor closed an
    /// interval, by key: a registration with an equal key joins one. The
    /// next plan or close empties it.
    pub(crate) fresh: DetHashMap<CohortKey, Arc<Cohort>>,
    /// Bumped by every plan and every interval close: what a cohort's
    /// filings are stamped with. Neither snapshot nor digest state — a
    /// restored cohort has filed nothing.
    pub(crate) stamp: u64,
    /// How many sets of lane instances the last bin ran (see
    /// [`Monitor::query_runs`]).
    pub(crate) query_runs: usize,
    /// How many re-extraction walks the last bin made (see
    /// [`Monitor::reextraction_walks`]).
    pub(crate) reextraction_walks: usize,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("policy", &self.policy.name())
            .field("lanes", &self.lane_count)
            .field("capacity_cycles_per_bin", &self.config.capacity_cycles_per_bin)
            .field("queries", &self.query_names())
            .field("error_ewma", &self.error_ewma)
            .finish_non_exhaustive()
    }
}

impl Monitor {
    /// Creates a (one-lane) monitor with no queries registered, running a
    /// fresh instance of the policy the configuration describes (and, per
    /// query registered later, of its predictor).
    pub fn new(config: MonitorConfig) -> Self {
        Self::with_lanes(config, 1)
    }

    /// [`Monitor::new`] with query execution sharded over `lanes` lanes.
    pub(crate) fn with_lanes(config: MonitorConfig, lanes: usize) -> Self {
        let buffer = CaptureBuffer::new(config.capacity_cycles_per_bin, BUFFER_CAPACITY_BINS);
        let noise = MeasurementNoise::new(
            config.seed ^ 0x9e3779b97f4a7c15,
            config.noise_jitter,
            config.noise_outlier_probability,
            NOISE_OUTLIER_CYCLES,
        );
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            lane_count: lanes,
            lane_of_flow: Vec::new(),
            policy: config.policy.make(),
            extractor: extractor(&config),
            scratch: (0..config.workers.max(1)).map(|_| ExtractScratch::default()).collect(),
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
            shed_pool: KeepListPool::new(),
            window: FeatureWindow::new(),
            bin: Bin::default(),
            clock: StageClock::new(),
            fresh: DetHashMap::new(),
            stamp: 0,
            query_runs: 0,
            reextraction_walks: 0,
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
    ///
    /// A query whose spec equals, but for the label, that of one registered
    /// since the last bin or interval close shares its instances until the
    /// plan gives the two different deliveries; the outputs, records and
    /// checkpoints are those of separate instances, bit for bit.
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
    /// predicted cycles — and an engine with more than one lane cannot build
    /// the other lanes' instances, and refuses them.
    pub fn register_instance(
        &mut self,
        query: Box<dyn Query>,
        label: Option<String>,
        min_rate: Option<f64>,
    ) -> Result<QueryId, NetshedError> {
        self.register_inner(query, None, label, min_rate)
    }

    /// A query as it stands right after registration: a fresh predictor and
    /// sampled extractor, flow-hasher generation 0 (its table unbuilt), clean
    /// enforcement state and a cohort of its own with one instance per lane —
    /// `query` on lane 0, the others built from `spec` (a bare instance has
    /// only the one).
    fn new_query(
        &self,
        id: QueryId,
        label: Arc<str>,
        min_rate: f64,
        spec: Option<QuerySpec>,
        query: Box<dyn Query>,
    ) -> RegisteredQuery {
        let shedding = query.preferred_shedding();
        let others =
            spec.iter().flat_map(|spec| (1..self.lane_count).map(|_| build_query_from_spec(spec)));
        RegisteredQuery {
            id,
            label,
            shedding,
            min_rate,
            hasher_generation: 0,
            flow_hasher: None,
            overuse_ratio: 1.0,
            violations: 0,
            penalty_remaining: 0,
            cohort: Cohort::of(std::iter::once(query).chain(others).collect()),
            shadow: shadow_twin(spec.as_ref(), self.policy.needs_measured_cycles()),
            spec,
            predictor: self.config.predictor.make(),
            sampled_extractor: extractor(&self.config),
            shed_pool: KeepListPool::new(),
            slot: BinSlot::default(),
        }
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
        if spec.is_none() && self.lane_count > 1 {
            return Err(NetshedError::InvalidConfig(format!(
                "'{}' is a bare instance: {} lanes need a QuerySpec to build one each from",
                label.as_deref().unwrap_or(query.name()),
                self.lane_count
            )));
        }
        let id = QueryId(self.next_query_id);
        self.next_query_id += 1;
        let label = label.map_or_else(|| query.name().into(), Arc::from);
        let min_rate = min_rate.unwrap_or(query.min_sampling_rate()).clamp(0.0, 1.0);
        let mut registered = self.new_query(id, label, min_rate, spec, query);
        if let Some(key) = CohortKey::of(&registered) {
            let cohort = self.fresh.entry(key).or_insert_with(|| Arc::clone(&registered.cohort));
            registered.cohort = Arc::clone(cohort);
        }
        self.queries.push(registered);
        Ok(id)
    }

    /// Deregisters a query instance by handle. The instance's state
    /// (predictor history, pending interval output) is discarded — or, when
    /// it shares its instances with a cohort, its reference to them.
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
        self.queries.iter().map(|q| q.label.to_string()).collect()
    }

    /// Handles and labels of the registered queries, in registration order.
    pub fn query_handles(&self) -> Vec<(QueryId, &str)> {
        self.queries.iter().map(|q| (q.id, &*q.label)).collect()
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

    /// Number of lanes query execution is sharded over (1 unless the monitor
    /// sits behind a [`ShardedMonitor`](crate::ShardedMonitor)).
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// Cumulative per-stage wall time of the bins processed so far, and the
    /// tasks dispatched. See [`StageStats`].
    pub fn stage_stats(&self) -> StageStats {
        self.clock.stats
    }

    /// How many sets of lane instances the last bin ran: one per running
    /// cohort, however many members it has (a query alone is a cohort of
    /// one). Exposed for the cohort tests and the pipeline bench only.
    #[doc(hidden)]
    pub fn query_runs(&self) -> usize {
        self.query_runs
    }

    /// How many re-extraction walks the last bin made: one for all its
    /// packet-sampled queries together (their samples nest, so one pass
    /// re-extracts them all) and one per flow-sampled query. Exposed for the
    /// pipeline bench only.
    #[doc(hidden)]
    pub fn reextraction_walks(&self) -> usize {
        self.reextraction_walks
    }

    /// Whether a measurement interval is currently open (at least one batch
    /// has been processed since the last [`Monitor::finish_interval`]) — i.e.
    /// whether a final flush is due when the source is exhausted.
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

    /// Replaces the cycle budget of the *next* bins; the capture buffer keeps
    /// the depth it was built with.
    ///
    /// Vestigial: the retired cross-shard coordinator's knob. No engine calls
    /// it; `benchmark/src/sut.rs` pins the name for its stand-alone lane
    /// replicas until a benchmark-only PR frees it (ROADMAP item 2(i)).
    #[doc(hidden)]
    pub fn set_bin_capacity(&mut self, cycles_per_bin: f64) {
        self.config.capacity_cycles_per_bin = cycles_per_bin;
    }

    /// Advances the measurement-interval clock over an *empty* bin, returning
    /// the closed interval's outputs when the bin starts a new interval.
    ///
    /// Vestigial, like [`Monitor::set_bin_capacity`]: the lock-step lane
    /// monitors it served are gone ([`Engine::run`] skips empty bins), and the
    /// name waits for the same benchmark-only PR.
    #[doc(hidden)]
    pub fn advance_empty_bin(&mut self, batch: &Batch) -> Option<Vec<(String, QueryOutput)>> {
        self.roll_interval(batch.measurement_interval(self.config.measurement_interval_us))
    }

    /// Moves the interval clock to `interval`, closing the open interval
    /// when it is a different one.
    pub(crate) fn roll_interval(&mut self, interval: u64) -> Option<Vec<(String, QueryOutput)>> {
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

    /// Collects the per-query outputs for the interval that just ended. A
    /// query reports once, over the link: its lane-0 instance
    /// [absorbs](Query::absorb) the state of the other lanes' instances, in
    /// lane order, and then closes the interval as the only instance of a
    /// one-lane monitor does (which has nothing to absorb). A cohort closes
    /// once, and its members report the same output.
    fn close_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.fresh.clear();
        self.stamp += 1;
        let stamp = self.stamp;
        self.queries
            .iter_mut()
            .map(|registered| {
                // Shadow twins close intervals on the same boundaries so
                // their per-interval state cannot grow without bound; their
                // outputs are discarded (only their cycles matter).
                if let Some(shadow) = registered.shadow.as_mut() {
                    let _ = shadow.end_interval();
                }
                (registered.label.to_string(), registered.close(stamp))
            })
            .collect()
    }

    /// Serializes the monitor's *essential* state — everything a restored
    /// process needs to continue the run bit-identically: sketch tables and
    /// predictor histories, both RNG positions, the control-loop EWMAs, the
    /// buffer-discovery thresholds, the capture backlog and every registered
    /// query's enforcement counters. Derivable state (H3 hashers, rebuilt
    /// from their generation when next needed; scratch buffers, execution
    /// telemetry) is not stored.
    ///
    /// The lane count comes first; then each query, in registration order,
    /// writes all of its lane instances in lane order, so a one-lane fleet
    /// writes the solo monitor's bytes. Every member of a cohort writes the
    /// instances it shares, so the bytes are those of separate instances.
    ///
    /// Fails with [`StateError::Unsupported`] when a query was registered
    /// through [`Monitor::register_instance`] (no [`QuerySpec`] to rebuild it
    /// from) or runs a query/predictor without checkpoint support.
    pub fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.usize(self.lane_count);
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
            for lane in &registered.cohort.lock().lanes {
                lane.save_state(writer)?;
            }
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
    ///
    /// Lanes own query state, so a snapshot written at another lane count is
    /// a [`StateError::Mismatch`] naming both. Queries whose specs are equal
    /// but for the label and whose lanes' bytes are all equal share their
    /// instances again, as a cohort.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let lanes = reader.usize()?;
        if lanes != self.lane_count {
            return Err(StateError::mismatch("lanes", lanes, self.lane_count));
        }
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
        self.queries.clear();
        self.fresh.clear();
        // The cohorts restored so far, by key and the bytes of every lane.
        let mut restored = DetHashMap::new();
        for _ in 0..count {
            let id = QueryId(reader.u64()?);
            let label = reader.str()?;
            let spec = QuerySpec::load_state(reader)?;
            let min_rate = bounded(reader.f64()?, &format!("query '{label}' min_rate"), 1.0)?;
            let hasher_generation = reader.u64()?;
            let overuse_ratio =
                bounded(reader.f64()?, &format!("query '{label}' overuse_ratio"), f64::MAX)?;
            let query = build_query_from_spec(&spec);
            let mut registered = self.new_query(id, label.into(), min_rate, Some(spec), query);
            registered.hasher_generation = hasher_generation;
            registered.overuse_ratio = overuse_ratio;
            registered.violations = reader.u32()?;
            registered.penalty_remaining = reader.u32()?;
            let before = reader.clone();
            load_lanes(&mut registered.cohort.lock().lanes, reader)?;
            if let Some(key) = CohortKey::of(&registered) {
                let state = consumed(&before, reader);
                let cohort =
                    restored.entry((key, state)).or_insert_with(|| Arc::clone(&registered.cohort));
                registered.cohort = Arc::clone(cohort);
            }
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
    use crate::report::BinRecord;
    use netshed_queries::CycleMeter;
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

        /// A restore re-forms a cohort from equal bytes on every lane, and a
        /// fleet member whose other lanes' bytes differ restores onto
        /// instances of its own, from its own bytes.
        #[test]
        fn a_restored_member_whose_other_lanes_differ_detaches() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let spec = QuerySpec::new(QueryKind::Counter);
            let mut monitor = Monitor::with_lanes(config.clone(), 2);
            for label in ["first", "second"] {
                monitor.register(&spec.clone().with_label(label)).expect("valid spec");
            }
            let shared = |monitor: &Monitor| {
                Arc::ptr_eq(&monitor.queries[0].cohort, &monitor.queries[1].cohort)
            };
            let saved = |monitor: &Monitor| {
                let mut writer = StateWriter::new();
                monitor.save_state(&mut writer).expect("save");
                writer.into_bytes()
            };
            let restore = |state: &[u8]| {
                let mut restored = Monitor::with_lanes(config.clone(), 2);
                restored.load_state(&mut StateReader::new(state)).expect("load");
                restored
            };
            assert!(shared(&monitor));
            let batches = small_trace(3, 100.0);
            for batch in &batches[..2] {
                monitor.process_batch(batch).expect("batch");
            }
            let state = saved(&monitor);
            assert!(shared(&restore(&state)), "equal bytes on every lane share the instances");

            // Only the second query's lane-1 instance sees the third batch.
            let second = &mut monitor.queries[1];
            let lanes = second
                .cohort
                .lock()
                .lanes
                .iter()
                .map(|lane| copy_of(lane.as_ref(), &spec))
                .collect();
            second.cohort = Cohort::of(lanes);
            let view = batches[2].view();
            second.cohort.lock().lanes[1].process_batch(&view, 1.0, &mut CycleMeter::new());

            let state = saved(&monitor);
            let restored = restore(&state);
            assert!(!shared(&restored), "other lane-1 bytes detach the second query");
            assert!(saved(&restored) == state, "the restored bytes are the saved ones");
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
}
