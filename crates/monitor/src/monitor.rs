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
//! and each query's predictor and sampled extractor — built the first time
//! the plan samples the query on its own — exist once, whatever the lane
//! count (DESIGN.md, "Shard plane").
//!
//! Queries registered together from equal specs form a cohort: every member
//! after the first *follows* that first one, its head, by position — it
//! borrows the head's lane instances, predictor and control state for as
//! long as the plan gives the two the same delivery, and takes the head's
//! measurement of the run they share. Only owners are dispatched, and the
//! control loop reads a follower's run off its head's slot, once per row of
//! an owner and its followers (`Rows`), so no task ever reaches another
//! query's state (DESIGN.md, "Cohorts").

use crate::bin::{Bin, BinSlot};
use crate::builder::MonitorBuilder;
use crate::capture::{bounded, CaptureBuffer};
use crate::config::{EnforcementConfig, MonitorConfig, PolicySpec, PredictorSpec};
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::exec::{StageClock, StageStats};
use crate::observer::RunObserver;
use crate::policy::ControlPolicy;
use crate::report::{LabelTable, RunSummary};
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
/// lane instances, the shadow twin, the predictor, the extractor, the
/// keep-list pool and the [`BinSlot`] — lives here and nowhere else. A
/// follower owns no lane instances and no predictor: it borrows its head's,
/// and is never dispatched for them.
pub(crate) struct RegisteredQuery {
    pub(crate) id: QueryId,
    pub(crate) shedding: SheddingMethod,
    pub(crate) min_rate: f64,
    /// The spec this instance was built from, when registered through
    /// [`Monitor::register`]; lets the monitor build a shadow twin for
    /// policies that need the true full-batch cycles.
    spec: Option<QuerySpec>,
    /// The flow-sampling hash function, with the generation it was built
    /// for. Built in the plan only when the query is flow-sampled, so a
    /// query that never is holds no table.
    pub(crate) flow_hasher: Option<(u64, H3Hasher)>,
    /// What the plan and the enforcement advance bin by bin — an owner's
    /// own; a follower's is its head's (see [`Control`]).
    pub(crate) control: Control,
    /// What the query runs on: its own lane instances and predictor, or its
    /// cohort head's.
    pub(crate) role: Role,
    /// Shadow twin fed the full (unsampled) stream to measure the bin's
    /// actual cycles for oracle-style policies. Its work is not charged
    /// against the capacity.
    pub(crate) shadow: Option<Box<dyn Query>>,
    /// Extractor used to recompute features over this query's sampled stream
    /// (needed to keep the MLR history consistent, Section 4.3) — the global
    /// sample, before it is split over the lanes. Built by the plan the first
    /// time it feeds the query a sample of its own (a fresh extractor's state
    /// is all an unused one would hold), so a query never sampled on its own
    /// has none — and, boxed, costs the registry one pointer, not the
    /// extractor's ≈ 1 KB (a registration copies the query into the
    /// registry, and a cohort member is never sampled on its own).
    pub(crate) sampled_extractor: Option<Box<FeatureExtractor>>,
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

/// Loads into a fresh instance (`load`) what an original's checkpoint
/// writes (`save`), which is bit-exact by contract.
fn copy_state(
    save: impl FnOnce(&mut StateWriter) -> Result<(), StateError>,
    load: impl FnOnce(&mut StateReader<'_>) -> Result<(), StateError>,
) {
    let mut writer = StateWriter::new();
    let copied = save(&mut writer).and_then(|()| load(&mut StateReader::new(writer.as_bytes())));
    // lint:allow(no-unwrap): only spec'd queries are followed, every kind a spec builds round-trips its state bit for bit, and only a predictor whose checkpoint succeeded at registration is followed (`RegisteredQuery::followable`) — the checkpoint contract
    copied.expect("a followed query or predictor round-trips its state");
}

/// A fresh instance of `spec` in `query`'s state.
fn copy_of(query: &dyn Query, spec: &QuerySpec) -> Box<dyn Query> {
    let mut copy = build_query_from_spec(spec);
    copy_state(|writer| query.save_state(writer), |reader| copy.load_state(reader));
    copy
}

/// A fresh predictor from `spec` in `predictor`'s state.
fn copy_predictor(predictor: &dyn Predictor, spec: &PredictorSpec) -> Box<dyn Predictor> {
    let mut copy = spec.make();
    copy_state(|writer| predictor.save_state(writer), |reader| copy.load_state(reader));
    copy
}

/// What the plan and the Chapter 6 enforcement advance for a query, bin by
/// bin. A follower shares its head's: the control loop reads it through the
/// query's row (see [`Rows`]), so a follower's own copy is left behind while
/// it follows. The plan refreshes it from the head in a bin where the row
/// may break (`bin.rs`), and a deregistration's hand-off gives the heir the
/// leaving owner's — before either query acts on it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Control {
    /// The measurement interval the flow-sampling hash function was last
    /// redrawn in (0 = the registration-time draw): advanced every interval
    /// the query runs, and checkpointed.
    pub(crate) hasher_generation: u64,
    /// Chapter 6 enforcement state.
    pub(crate) overuse_ratio: f64,
    pub(crate) violations: u32,
    pub(crate) penalty_remaining: u32,
}

impl Default for Control {
    fn default() -> Self {
        Self { hasher_generation: 0, overuse_ratio: 1.0, violations: 0, penalty_remaining: 0 }
    }
}

impl Control {
    /// The Chapter 6 enforcement after a custom-shedding run that consumed
    /// `overuse` times the cycles it was expected to: the smoothed overuse
    /// ratio moves towards it, and a run past the tolerance is a violation —
    /// the configured number of them in a row earn a penalty.
    pub(crate) fn enforce(&mut self, overuse: f64, enforcement: &EnforcementConfig) {
        self.overuse_ratio = 0.3 * overuse + 0.7 * self.overuse_ratio;
        if overuse > 1.0 + enforcement.tolerance {
            self.violations += 1;
            if self.violations >= enforcement.max_violations {
                self.penalty_remaining = enforcement.penalty_bins;
                self.violations = 0;
            }
        } else {
            self.violations = 0;
        }
    }

    /// Whether two queries' states agree bit for bit.
    fn same_as(&self, other: &Control) -> bool {
        self.hasher_generation == other.hasher_generation
            && self.overuse_ratio.to_bits() == other.overuse_ratio.to_bits()
            && self.violations == other.violations
            && self.penalty_remaining == other.penalty_remaining
    }
}

/// The control loop's view of the registry, by row: an owner and the
/// followers that name it (DESIGN.md "Cohorts"). A bin's per-query passes
/// run once per row; a follower is touched only where a per-query value is
/// due — its record, its prediction and demand, and its term of every sum
/// that folds in registration order. Rebuilt from the roles before the
/// first bin after they change.
#[derive(Default)]
pub(crate) struct Rows {
    /// Per position: the query's handle and its row owner's position (its
    /// own, for an owner).
    pub(crate) members: Vec<(QueryId, usize)>,
    /// The owners' positions in registration order, each with the number of
    /// queries in its row.
    pub(crate) owners: Vec<(usize, usize)>,
    /// Whether a role changed since the last rebuild.
    stale: bool,
}

impl Rows {
    /// Marks the rows for a rebuild: a registration, a deregistration, a
    /// restore or the plan changed who follows whom.
    pub(crate) fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Rebuilds the rows of `queries` if a role changed since the last
    /// rebuild.
    pub(crate) fn refresh(&mut self, queries: &[RegisteredQuery]) {
        if !self.stale {
            return;
        }
        self.stale = false;
        self.members.clear();
        self.owners.clear();
        for (position, registered) in queries.iter().enumerate() {
            let owner = registered.head().unwrap_or(position);
            self.members.push((registered.id, owner));
            match self.owners.binary_search_by_key(&owner, |&(at, _)| at) {
                Ok(row) => self.owners[row].1 += 1,
                Err(_) => self.owners.push((position, 1)),
            }
        }
    }
}

/// What a registered query runs on.
pub(crate) enum Role {
    /// Lane instances of its own, one per lane of the monitor in lane order
    /// (a bare instance has only the one), and a predictor of its own.
    Owns { lanes: Vec<Box<dyn Query>>, predictor: Box<dyn Predictor> },
    /// The lane instances and predictor of the cohort head at this position
    /// in the registry, an owner registered before it.
    Follows(usize),
}

impl Role {
    /// A bit-exact copy of what an owner holds: its lane instances made with
    /// `query`, its predictor with `predictor`. A follower's is its head's
    /// position.
    fn copy(&self, query: &QuerySpec, predictor: &PredictorSpec) -> Self {
        match self {
            Self::Owns { lanes, predictor: own } => Self::Owns {
                lanes: lanes.iter().map(|lane| copy_of(lane.as_ref(), query)).collect(),
                predictor: copy_predictor(own.as_ref(), predictor),
            },
            Self::Follows(head) => Self::Follows(*head),
        }
    }
}

/// What two registrations' specs must agree on, bit for bit, to share
/// instances: all but the label. The minimum rate and the shedding method a
/// spec resolves to follow from these. A bare instance has no spec to agree
/// on and always runs alone.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CohortKey {
    kind: QueryKind,
    min_sampling_rate: Option<u64>,
    custom_behavior: Option<CustomBehavior>,
}

impl CohortKey {
    fn of(spec: &QuerySpec) -> Self {
        Self {
            kind: spec.kind,
            min_sampling_rate: spec.min_sampling_rate.map(f64::to_bits),
            custom_behavior: spec.custom_behavior,
        }
    }
}

/// What a new registration runs: instances of its own — the given one on
/// lane 0, the others built from its spec — at the given minimum rate, with
/// a fresh predictor, or those of the cohort head at a position.
enum Runs {
    Own(Box<dyn Query>, f64),
    Follows(usize),
}

/// The bits of the flags byte in a query's checkpoint record, which say what
/// the record holds besides the fields every record has: the query follows
/// the head whose position comes next, and holds neither lane instances nor
/// a predictor (an owner holds both); it holds a sampled extractor. Bit 2
/// said a record held a predictor, up to version 6.
const FOLLOWS: u8 = 1;
const SAMPLED: u8 = 4;

/// Refuses a minimum sampling rate outside `[0, 1]`.
fn check_min_rate(min_rate: Option<f64>, label: &str) -> Result<(), NetshedError> {
    match min_rate {
        Some(rate) if !rate.is_finite() || !(0.0..=1.0).contains(&rate) => {
            Err(NetshedError::InvalidConfig(format!(
                "min_sampling_rate for '{label}' must be in [0, 1], got {rate}"
            )))
        }
        _ => Ok(()),
    }
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

/// The plan's last step, once every query's rate is drawn (`bin.rs`):
/// sequentially, in registration order, before anything runs, it settles
/// who still follows whom (see [`RegisteredQuery::plan_follower`] and
/// [`RegisteredQuery::plan_sampled_owner`]) and then draws the measurement
/// noise — one draw from `noise` per owner that runs, while a follower takes
/// its head's, drawn before it.
pub(crate) fn plan_followers(
    queries: &mut [RegisteredQuery],
    noise: &mut MeasurementNoise,
    spec: &PredictorSpec,
) {
    for position in 0..queries.len() {
        let (earlier, rest) = queries.split_at_mut(position);
        let Some((registered, later)) = rest.split_first_mut() else { break };
        match registered.role {
            Role::Follows(head) => registered.plan_follower(&earlier[head], spec),
            Role::Owns { .. } if registered.delivery().is_none() => {
                registered.plan_sampled_owner(position, later, spec);
            }
            Role::Owns { .. } => {}
        }
        registered.slot.noise = match registered.role {
            Role::Follows(head) => earlier[head].slot.noise,
            Role::Owns { .. } => registered.slot.run.map(|_| noise.draw()),
        };
    }
}

/// Hands what the owner at position `owner` holds, which `owned` makes only
/// once there is an heir, to its first follower among `later` — the queries
/// from position `first` on — which owns it from then on and heads the
/// owner's other followers. Returns the heir's position, or `None` when the
/// owner had no follower.
fn hand_off(
    later: &mut [RegisteredQuery],
    first: usize,
    owner: usize,
    owned: impl FnOnce() -> Role,
) -> Option<usize> {
    let follows =
        |query: &RegisteredQuery| matches!(query.role, Role::Follows(head) if head == owner);
    let index = later.iter().position(follows)?;
    let (heir, others) = later[index..].split_first_mut()?;
    heir.role = owned();
    for follower in others.iter_mut().filter(|follower| follows(follower)) {
        follower.role = Role::Follows(first + index);
    }
    Some(first + index)
}

impl RegisteredQuery {
    /// The position of the head the query follows, or `None` for an owner.
    pub(crate) fn head(&self) -> Option<usize> {
        match self.role {
            Role::Follows(head) => Some(head),
            Role::Owns { .. } => None,
        }
    }

    /// Whether a fresh registration may follow the query: it owns a
    /// predictor whose state can be copied, which a follower that detaches
    /// needs.
    fn followable(&self) -> bool {
        matches!(&self.role, Role::Owns { predictor, .. }
            if predictor.save_state(&mut StateWriter::new()).is_ok())
    }

    /// The plan's rule for a follower of `head`, once both are planned: it
    /// keeps borrowing the head's instances and predictor while the plan
    /// gives the two one delivery, and otherwise detaches onto copies of
    /// both — the instances made with its spec, the predictor with `spec` —
    /// before anything runs.
    fn plan_follower(&mut self, head: &RegisteredQuery, spec: &PredictorSpec) {
        let same_delivery = matches!(
            (self.delivery(), head.delivery()),
            (Some(mine), Some(heads)) if mine == heads
        );
        if same_delivery {
            return;
        }
        // Only a spec'd query ever follows (`CohortKey`).
        if let Some(query_spec) = &self.spec {
            self.role = head.role.copy(query_spec, spec);
        }
    }

    /// The plan's rule for an owner, at `position`, that the plan feeds a
    /// sample of its own, which no other query sees: it keeps copies of its
    /// instances and predictor and hands the originals to its first follower
    /// among `later` — the hand-off [`Monitor::deregister`] makes, so what is
    /// shared does not change.
    fn plan_sampled_owner(
        &mut self,
        position: usize,
        later: &mut [RegisteredQuery],
        spec: &PredictorSpec,
    ) {
        // Only a spec'd query is ever followed (`CohortKey`).
        let Some(query_spec) = &self.spec else { return };
        let role = &mut self.role;
        let originals = || {
            let copies = role.copy(query_spec, spec);
            std::mem::replace(role, copies)
        };
        hand_off(later, position + 1, position, originals);
    }
}

/// A fresh extractor on the monitor's measurement interval: the full-batch
/// one and every query's sampled one.
pub(crate) fn extractor(config: &MonitorConfig) -> FeatureExtractor {
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
    /// The registered queries' labels, in registration order: the table
    /// every bin's records share.
    pub(crate) labels: LabelTable,
    /// Each registered query's row, for the bin's per-row passes.
    pub(crate) rows: Rows,
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
    /// The heads of the cohorts that have neither run a bin nor closed an
    /// interval, by key: a registration with an equal key follows the head.
    /// Beside each head's position, whether it may be followed, once a
    /// registration asked: the head's predictor does not change before the
    /// cohort runs, so the answer is the same for every member. The next
    /// plan or close empties it.
    pub(crate) fresh: DetHashMap<CohortKey, (usize, Option<bool>)>,
    /// How many sets of lane instances the last bin ran (see
    /// [`Monitor::query_runs`]).
    pub(crate) query_runs: usize,
    /// How many predictions the last bin made (see [`Monitor::predictions`]).
    pub(crate) predictions: usize,
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
            labels: LabelTable::default(),
            rows: Rows::default(),
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
            query_runs: 0,
            predictions: 0,
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
    /// since the last bin or interval close follows the first such query: it
    /// borrows that query's instances and predictor until the plan gives the
    /// two different deliveries, and shares its measurement of every run
    /// they share; its outputs and records are those of a query registered
    /// apart, sharing one measurement per run, and a checkpoint names the
    /// head it follows. A follower that detaches copies its head's
    /// predictor, so when that predictor declines its checkpoint the query
    /// owns instances and a predictor of its own instead.
    pub fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        let label = spec.resolved_label();
        check_min_rate(spec.min_sampling_rate, &label)?;
        // A fresh cohort has never run, so its head's instances and
        // predictor are as fresh as this query's own would be: a query that
        // joins one builds neither.
        let position = self.queries.len();
        let (head, followable) = self.fresh.entry(CohortKey::of(spec)).or_insert((position, None));
        let queries = &self.queries;
        let runs = match *head {
            head if head != position
                && *followable.get_or_insert_with(|| queries[head].followable()) =>
            {
                Runs::Follows(head)
            }
            _ => {
                let query = build_query_from_spec(spec);
                let min_rate = spec.min_sampling_rate.unwrap_or(query.min_sampling_rate());
                Runs::Own(query, min_rate.clamp(0.0, 1.0))
            }
        };
        Ok(self.push_query(label, Some(spec.clone()), runs))
    }

    /// Registers an already constructed query instance under an optional
    /// label (defaults to the query's own name), optionally overriding its
    /// minimum sampling rate constraint.
    ///
    /// Instances registered this way carry no [`QuerySpec`], so oracle-style
    /// policies cannot build a shadow twin for them and fall back to the
    /// predicted cycles — and an engine with more than one lane cannot build
    /// the other lanes' instances, and refuses them.
    // lint:allow(unreached-pub): the registration of a query that shares with no one, the lone-tenant oracle `tests/cohorts.rs` compares cohorts against
    pub fn register_instance(
        &mut self,
        query: Box<dyn Query>,
        label: Option<String>,
        min_rate: Option<f64>,
    ) -> Result<QueryId, NetshedError> {
        let label = label.unwrap_or_else(|| query.name().to_string());
        check_min_rate(min_rate, &label)?;
        if self.lane_count > 1 {
            return Err(NetshedError::InvalidConfig(format!(
                "'{label}' is a bare instance: {} lanes need a QuerySpec to build one each from",
                self.lane_count
            )));
        }
        let min_rate = min_rate.unwrap_or(query.min_sampling_rate()).clamp(0.0, 1.0);
        Ok(self.push_query(label, None, Runs::Own(query, min_rate)))
    }

    /// Files a new registration of what `runs` under `label`, and returns
    /// its handle.
    fn push_query(&mut self, label: String, spec: Option<QuerySpec>, runs: Runs) -> QueryId {
        let id = QueryId(self.next_query_id);
        self.next_query_id += 1;
        let registered = self.new_query(id, spec, runs);
        self.queries.push(registered);
        self.labels.edit().push(label.into());
        self.rows.invalidate();
        id
    }

    /// A query as it stands right after registration: no sampled extractor,
    /// flow-hasher generation 0 (its table unbuilt), clean enforcement state,
    /// and what it `runs`. An owner has one instance per lane of its own (a
    /// bare instance has only the one) and a fresh predictor. A follower
    /// builds neither.
    fn new_query(&self, id: QueryId, spec: Option<QuerySpec>, runs: Runs) -> RegisteredQuery {
        let (shedding, min_rate, role) = match runs {
            Runs::Own(query, min_rate) => {
                let others = spec
                    .iter()
                    .flat_map(|spec| (1..self.lane_count).map(|_| build_query_from_spec(spec)));
                let lanes = std::iter::once(query).chain(others).collect::<Vec<_>>();
                let shedding = lanes[0].preferred_shedding();
                (shedding, min_rate, Role::Owns { lanes, predictor: self.config.predictor.make() })
            }
            Runs::Follows(position) => {
                let head = &self.queries[position];
                (head.shedding, head.min_rate, Role::Follows(position))
            }
        };
        RegisteredQuery {
            id,
            shedding,
            min_rate,
            flow_hasher: None,
            control: Control::default(),
            role,
            shadow: shadow_twin(spec.as_ref(), self.policy.needs_measured_cycles()),
            spec,
            sampled_extractor: None,
            shed_pool: KeepListPool::new(),
            slot: BinSlot::default(),
        }
    }

    /// Deregisters a query instance by handle. The instance's state
    /// (predictor history, pending interval output) is discarded — unless
    /// others follow it: then its instances and predictor pass to the first
    /// of them, the heir, which the others follow from then on.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        let Some(position) = self.queries.iter().position(|q| q.id == id) else {
            return Err(NetshedError::UnknownQuery(id.to_string()));
        };
        let removed = self.queries.remove(position);
        self.labels.edit().remove(position);
        self.rows.invalidate();
        // Only an owner is followed, and only by queries registered after it.
        // Their heads still hold the positions before the removal, so the
        // hand-off numbers the heir that way — the heir takes the removed
        // owner's control state with its instances, the one it shared — and
        // then every head past the removed query moves down by one.
        let later = &mut self.queries[position..];
        let heir = hand_off(later, position + 1, position, || removed.role);
        let renumber = |head: usize| if head > position { head - 1 } else { head };
        for registered in later {
            if let Role::Follows(head) = &mut registered.role {
                *head = renumber(*head);
            }
        }
        if let Some(heir) = heir {
            self.queries[renumber(heir)].control = removed.control;
        }
        // The heir owns the removed head's predictor, so whether it may be
        // followed is the removed head's answer.
        let fresh = self.fresh.drain().filter_map(|(key, (head, followable))| {
            let head = if head == position { heir? } else { head };
            Some((key, (renumber(head), followable)))
        });
        self.fresh = fresh.collect();
        Ok(())
    }

    /// Labels of the registered queries, in registration order.
    pub fn query_names(&self) -> Vec<String> {
        self.labels.iter().map(str::to_string).collect()
    }

    /// Handles and labels of the registered queries, in registration order.
    pub fn query_handles(&self) -> Vec<(QueryId, &str)> {
        self.queries.iter().zip(self.labels.iter()).map(|(q, label)| (q.id, label)).collect()
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
    /// owner, however many followers borrow its instances. Exposed for the
    /// cohort tests and the pipeline bench only.
    #[doc(hidden)]
    pub fn query_runs(&self) -> usize {
        self.query_runs
    }

    /// How many predictions the last bin made: one per owner not serving a
    /// penalty — a follower copies its head's. Exposed for the cohort tests
    /// and the pipeline bench only.
    #[doc(hidden)]
    pub fn predictions(&self) -> usize {
        self.predictions
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
    /// one-lane monitor does (which has nothing to absorb). A follower
    /// reports its head's output, which precedes it in the vector.
    fn close_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.fresh.clear();
        let mut outputs: Vec<(String, QueryOutput)> = Vec::with_capacity(self.queries.len());
        for (registered, label) in self.queries.iter_mut().zip(self.labels.iter()) {
            // Shadow twins close intervals on the same boundaries so their
            // per-interval state cannot grow without bound; their outputs
            // are discarded (only their cycles matter).
            if let Some(shadow) = registered.shadow.as_mut() {
                let _ = shadow.end_interval();
            }
            let output = match &mut registered.role {
                Role::Follows(head) => outputs[*head].1.clone(),
                Role::Owns { lanes, .. } => end_interval(lanes),
            };
            outputs.push((label.to_string(), output));
        }
        outputs
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
    /// writes what it owns, once: its id, label, spec and minimum rate; a
    /// flags byte saying whether it follows a head and whether it holds a
    /// sampled extractor; its head's position, if it follows one; its hasher
    /// generation and enforcement counters; all of its lane instances in
    /// lane order and its predictor, if it owns them (a follower owns
    /// neither); its shadow twin, if the policy runs them; and its sampled
    /// extractor, if it has one. A one-lane fleet writes the solo monitor's
    /// bytes.
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
        for (position, registered) in self.queries.iter().enumerate() {
            let label = &self.labels[position];
            let spec = registered.spec.as_ref().ok_or_else(|| {
                StateError::unsupported(format!(
                    "query '{label}' was registered as a bare instance (no QuerySpec to rebuild \
                     from)"
                ))
            })?;
            writer.u64(registered.id.0);
            writer.str(label);
            spec.save_state(writer);
            writer.f64(registered.min_rate);
            writer.u8(registered.head().map_or(0, |_| FOLLOWS)
                | registered.sampled_extractor.as_ref().map_or(0, |_| SAMPLED));
            if let Role::Follows(head) = registered.role {
                writer.usize(head);
            }
            // A follower's control state is its head's (see `Control`).
            let head = registered.head().and_then(|head| self.queries.get(head));
            let control = &head.unwrap_or(registered).control;
            writer.u64(control.hasher_generation);
            writer.f64(control.overuse_ratio);
            writer.u32(control.violations);
            writer.u32(control.penalty_remaining);
            if let Role::Owns { lanes, predictor } = &registered.role {
                for lane in lanes {
                    lane.save_state(writer)?;
                }
                predictor.save_state(writer)?;
            }
            if let Some(shadow) = &registered.shadow {
                shadow.save_state(writer)?;
            }
            if let Some(extractor) = &registered.sampled_extractor {
                extractor.save_state(writer);
            }
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
    /// a [`StateError::Mismatch`] naming both. Each query builds only what
    /// its record says it owns: a follower follows the head its record names
    /// and builds no lane instance and no predictor — the saved relation,
    /// exactly. Records no run writes are
    /// [`StateError::Corrupt`]: ids that do not increase, a minimum sampling
    /// rate `register` refuses, flags no run sets, a follower whose head is
    /// not an earlier owner registered from an equal spec (but for the
    /// label) at the same minimum rate, and an owner whose predictor's bytes
    /// do not fit the configured predictor.
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
        self.labels = LabelTable::default();
        self.rows.invalidate();
        self.fresh.clear();
        for _ in 0..count {
            let (registered, label) = self.load_query(reader)?;
            self.queries.push(registered);
            self.labels.edit().push(label.into());
        }
        self.next_query_id = reader.u64()?;
        if self.queries.last().is_some_and(|last| self.next_query_id <= last.id.0) {
            let next = self.next_query_id;
            return Err(StateError::corrupt(format!("next_query_id {next} is not a new id")));
        }
        Ok(())
    }

    /// Restores the record of the query after the ones restored so far (see
    /// [`Monitor::load_state`]).
    fn load_query(
        &self,
        reader: &mut StateReader<'_>,
    ) -> Result<(RegisteredQuery, String), StateError> {
        let id = QueryId(reader.u64()?);
        // Ids are handed out in increasing order, and the registry keeps
        // registration order.
        if self.queries.last().is_some_and(|previous| previous.id >= id) {
            return Err(StateError::corrupt(format!("{id} does not exceed the id before it")));
        }
        let label = reader.str()?;
        let spec = QuerySpec::load_state(reader)?;
        check_min_rate(spec.min_sampling_rate, &label)
            .map_err(|error| StateError::corrupt(error.to_string()))?;
        let min_rate = bounded(reader.f64()?, &format!("query '{label}' min_rate"), 1.0)?;
        let flags = reader.u8()?;
        if flags & !(FOLLOWS | SAMPLED) != 0 {
            let why = format!("query '{label}' has record flags {flags:#b}, which no run writes");
            return Err(StateError::corrupt(why));
        }
        let runs = if flags & FOLLOWS == 0 {
            Runs::Own(build_query_from_spec(&spec), min_rate)
        } else {
            let head = reader.u64()?;
            let Some(position) = self.head_for(head, &spec, min_rate) else {
                let why = format!("query '{label}' follows {head}, no earlier owner like it");
                return Err(StateError::corrupt(why));
            };
            Runs::Follows(position)
        };
        let what = format!("query '{label}' overuse_ratio");
        let mut registered = self.new_query(id, Some(spec), runs);
        registered.control = Control {
            hasher_generation: reader.u64()?,
            overuse_ratio: bounded(reader.f64()?, &what, f64::MAX)?,
            violations: reader.u32()?,
            penalty_remaining: reader.u32()?,
        };
        // A follower shares its head's control state, so a run writes the
        // head's for it.
        if let Some(head) = registered.head() {
            if !registered.control.same_as(&self.queries[head].control) {
                let why =
                    format!("query '{label}' follows {head} under a control state of its own");
                return Err(StateError::corrupt(why));
            }
        }
        if let Role::Owns { lanes, predictor } = &mut registered.role {
            load_lanes(lanes, reader)?;
            // Restored into the configuration that wrote it, an owner's
            // predictor of another shape is none: the record lost its own.
            predictor.load_state(reader).map_err(|error| match error {
                StateError::Mismatch { what, found, expected } => StateError::corrupt(format!(
                    "query '{label}' holds no predictor of this configuration: {what} {found}, \
                     not {expected}"
                )),
                other => other,
            })?;
        }
        // The policy, whose name the checkpoint holds, says who has a twin.
        if let Some(shadow) = &mut registered.shadow {
            shadow.load_state(reader)?;
        }
        if flags & SAMPLED != 0 {
            registered
                .sampled_extractor
                .insert(Box::new(extractor(&self.config)))
                .load_state(reader)?;
        }
        Ok((registered, label))
    }

    /// The position of the head a restored follower's record names, if a run
    /// could have written it: an earlier owner, registered from a spec equal
    /// to the follower's `spec` but for the label, at the same minimum rate.
    fn head_for(&self, head: u64, spec: &QuerySpec, min_rate: f64) -> Option<usize> {
        let position = usize::try_from(head).ok().filter(|&head| head < self.queries.len())?;
        let owner = &self.queries[position];
        let equal = owner.spec.as_ref().map(CohortKey::of) == Some(CohortKey::of(spec));
        (owner.head().is_none() && equal && owner.min_rate.to_bits() == min_rate.to_bits())
            .then_some(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocationPolicy, Strategy};
    use crate::policy::{ControlContext, ControlDecision};
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

    /// The lane instances and predictor that run for the query at
    /// `position`: its own, or its head's.
    fn owned_at(
        queries: &[RegisteredQuery],
        position: usize,
    ) -> (&[Box<dyn Query>], &dyn Predictor) {
        match &queries[queries[position].head().unwrap_or(position)].role {
            Role::Owns { lanes, predictor } => (lanes, predictor.as_ref()),
            Role::Follows(_) => panic!("a head owns what it lends"),
        }
    }

    /// What the query at `position` runs on, as separate instances would
    /// write it: the lane instances and the predictor it owns or borrows,
    /// and its shadow twin.
    fn runs_on(monitor: &Monitor, position: usize) -> Vec<u8> {
        let (lanes, predictor) = owned_at(&monitor.queries, position);
        let mut writer = StateWriter::new();
        for lane in lanes {
            lane.save_state(&mut writer).expect("save");
        }
        predictor.save_state(&mut writer).expect("save");
        if let Some(shadow) = &monitor.queries[position].shadow {
            shadow.save_state(&mut writer).expect("save");
        }
        writer.into_bytes()
    }

    /// The position each query follows (`None` for an owner).
    fn heads(monitor: &Monitor) -> Vec<Option<usize>> {
        monitor.queries.iter().map(RegisteredQuery::head).collect()
    }

    /// The head of a fresh cohort deregisters before the cohort's first
    /// bin: its first follower inherits its instances, its predictor and the
    /// lead, a later registration follows the heir, and once every member
    /// has left the next registration heads a cohort of its own.
    #[test]
    fn a_fresh_cohorts_lead_passes_to_its_first_follower() {
        let config = MonitorConfig::default().with_capacity(1e12).without_noise();
        let spec = QuerySpec::new(QueryKind::Counter);
        let mut monitor = Monitor::new(config);
        let register =
            |monitor: &mut Monitor, label: &str| monitor.register(&spec.clone().with_label(label));
        let first = register(&mut monitor, "first").expect("valid spec");
        register(&mut monitor, "second").expect("valid spec");
        register(&mut monitor, "third").expect("valid spec");
        monitor.deregister(first).expect("registered");
        register(&mut monitor, "fourth").expect("valid spec");
        assert_eq!(heads(&monitor), [None, Some(0), Some(0)]);

        let ids: Vec<QueryId> = monitor.query_handles().iter().map(|(id, _)| *id).collect();
        for id in ids {
            monitor.deregister(id).expect("registered");
        }
        register(&mut monitor, "fifth").expect("valid spec");
        register(&mut monitor, "sixth").expect("valid spec");
        assert_eq!(heads(&monitor), [None, Some(0)]);
        for batch in &small_trace(3, 100.0) {
            let record = monitor.process_batch(batch).expect("batch");
            assert_eq!(monitor.predictions(), 1);
            let [fifth, sixth] = &record.queries[..] else { panic!("two queries") };
            assert_eq!(fifth.predicted_cycles.to_bits(), sixth.predicted_cycles.to_bits());
        }
    }

    /// Half rate for the first registered query and full rate for the
    /// others, every bin.
    struct HalveTheFirst;

    impl ControlPolicy for HalveTheFirst {
        fn decide(&mut self, context: &ControlContext<'_>) -> ControlDecision {
            let mut decision = ControlDecision::full_rates(context.predictions.len());
            decision.rates[0] = 0.5;
            decision
        }

        fn name(&self) -> String {
            "halve-the-first".into()
        }
    }

    /// A head whose plan gives it a sample of its own keeps copies of its
    /// instances and predictor and hands the originals to its first
    /// follower, which heads the third member from then on; two bins of the
    /// cohort are those of three lone instances, bit for bit.
    #[test]
    fn a_head_sampled_on_its_own_hands_its_instances_to_its_first_follower() {
        use crate::digest::DigestObserver;

        let config = MonitorConfig::default()
            .with_capacity(1e12)
            .with_strategy(PolicySpec::new(|| HalveTheFirst))
            .without_noise();
        let (mut cohort, mut lone) = (Monitor::new(config.clone()), Monitor::new(config));
        for label in ["first", "second", "third"] {
            let spec = QuerySpec::new(QueryKind::Counter).with_label(label);
            cohort.register(&spec).expect("valid spec");
            let instance = build_query_from_spec(&spec);
            lone.register_instance(instance, Some(label.into()), None).expect("valid instance");
        }
        let instance = |monitor: &Monitor, position: usize| {
            let lane: &dyn Query = owned_at(&monitor.queries, position).0[0].as_ref();
            std::ptr::from_ref::<dyn Query>(lane).cast::<()>()
        };
        let originals = instance(&cohort, 0);
        assert_eq!([1, 2].map(|position| instance(&cohort, position)), [originals; 2]);

        let (mut shared, mut alone) = (DigestObserver::new(), DigestObserver::new());
        for batch in &small_trace(2, 200.0) {
            cohort.ingest(batch, &mut shared).expect("bin");
            lone.ingest(batch, &mut alone).expect("bin");
            assert_eq!(heads(&cohort), [None, None, Some(1)], "the third follows the heir");
            assert_ne!(instance(&cohort, 0), originals, "the head runs a copy");
            assert_eq!(instance(&cohort, 1), originals, "the heir runs the originals");
            assert_eq!(cohort.query_runs(), 2);
        }
        flush(&mut cohort, &mut shared);
        flush(&mut lone, &mut alone);
        assert_eq!(shared.digest(), alone.digest());
    }

    /// Under a policy that needs measured cycles, every follower still runs
    /// its shadow twin. Without noise, a tenant run's digest and what each
    /// tenant runs on in the middle of its first interval (see `runs_on`)
    /// equal those of the same run with no cohort — every tenant owning its
    /// instances, predictor and twin. With measurement noise, which a cohort
    /// draws once a run, what each tenant runs on there equals what the lone
    /// tenant of its kind runs on in an engine of three. Either way the
    /// cohort run's digest and checkpoint are one at workers {1, 2, 4}.
    #[test]
    fn followers_shadow_twins_advance_under_the_oracle() {
        use crate::digest::{DigestObserver, RunDigest};
        use crate::policy::OraclePolicy;
        use netshed_fairness::MmfsPkt;

        const CUT: usize = 5;
        const KINDS: [QueryKind; 3] = [QueryKind::Counter, QueryKind::Flows, QueryKind::TopK];
        let batches = small_trace(16, 300.0);
        let oracle = MonitorConfig::default()
            .with_capacity(1e12)
            .with_strategy(PolicySpec::new(|| OraclePolicy::new(MmfsPkt)));
        for noise in [true, false] {
            let config = if noise { oracle.clone() } else { oracle.clone().without_noise() };
            let run = |workers: usize, tenants: usize, cohorts: bool| {
                let mut monitor = Monitor::new(config.clone().with_workers(workers));
                for index in 0..tenants {
                    let spec =
                        QuerySpec::new(KINDS[index % 3]).with_label(format!("tenant-{index}"));
                    monitor.register(&spec).expect("valid spec");
                    if !cohorts {
                        monitor.fresh.clear();
                    }
                }
                let mut digest = DigestObserver::new();
                let (mut state, mut checkpoint) = (Vec::new(), Vec::new());
                for (bin, batch) in batches.iter().enumerate() {
                    if bin == CUT {
                        let followers = monitor.queries.iter().filter(|q| q.head().is_some());
                        assert_eq!(followers.count(), if cohorts { tenants - 3 } else { 0 });
                        state =
                            (0..monitor.queries.len()).map(|at| runs_on(&monitor, at)).collect();
                        checkpoint = saved(&monitor);
                    }
                    monitor.ingest(batch, &mut digest).expect("bin");
                }
                flush(&mut monitor, &mut digest);
                (digest.digest(), state, checkpoint)
            };
            let (alone, alone_state, _): (RunDigest, Vec<Vec<u8>>, _) =
                if noise { run(1, 3, true) } else { run(1, 9, false) };
            let state: Vec<Vec<u8>> =
                (0..9).map(|at| alone_state[at % alone_state.len()].clone()).collect();
            let (digest, _, checkpoint) = run(1, 9, true);
            assert!(noise || digest == alone, "without noise the digest is the lone tenants'");
            for workers in [1, 2, 4] {
                let (cohort_digest, cohort_state, cohort_checkpoint) = run(workers, 9, true);
                assert_eq!(cohort_digest, digest, "noise {noise}, workers {workers}");
                assert!(
                    cohort_state == state,
                    "noise {noise}, workers {workers}: what the tenants run on differs"
                );
                assert!(cohort_checkpoint == checkpoint, "workers {workers}: checkpoints differ");
            }
        }
    }

    /// What `monitor` writes.
    fn saved(monitor: &Monitor) -> Vec<u8> {
        let mut writer = StateWriter::new();
        monitor.save_state(&mut writer).expect("save");
        writer.into_bytes()
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

        /// `state` restored into a fresh monitor of `config` and `lanes`
        /// lanes, which must write the bytes it read.
        fn restored(config: &MonitorConfig, lanes: usize, state: &[u8]) -> Monitor {
            let mut restored = Monitor::with_lanes(config.clone(), lanes);
            restored.load_state(&mut StateReader::new(state)).expect("load");
            assert!(saved(&restored) == state, "the restored engine writes the bytes it read");
            restored
        }

        /// Three equal-spec counters on `lanes` lanes that ran `batches`:
        /// the second and third follow the first.
        fn trio(config: &MonitorConfig, lanes: usize, batches: &[Batch]) -> Monitor {
            let mut monitor = Monitor::with_lanes(config.clone(), lanes);
            for label in ["first", "second", "third"] {
                let spec = QuerySpec::new(QueryKind::Counter).with_label(label);
                monitor.register(&spec).expect("valid spec");
            }
            for batch in batches {
                monitor.process_batch(batch).expect("batch");
            }
            assert_eq!(heads(&monitor), [None, Some(0), Some(0)]);
            monitor
        }

        /// A restore keeps the relation it saved, on a fleet: a member that
        /// detached onto copies of its head's instances and predictor stays
        /// detached though every lane's bytes equal the head's, and so it
        /// does once its lane-1 bytes differ; the follower beside it keeps
        /// following.
        #[test]
        fn a_restored_fleet_keeps_a_detached_member_detached() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let spec = QuerySpec::new(QueryKind::Counter);
            let batches = small_trace(3, 100.0);
            let mut monitor = trio(&config, 2, &batches[..2]);

            monitor.queries[1].role = monitor.queries[0].role.copy(&spec, &config.predictor);
            let restore = |monitor: &Monitor| {
                let restored = restored(&config, 2, &saved(monitor));
                assert_eq!(heads(&restored), [None, None, Some(0)]);
            };
            restore(&monitor);

            // Only the second query's lane-1 instance sees the third batch.
            let Role::Owns { lanes, .. } = &mut monitor.queries[1].role else {
                panic!("the second query detached");
            };
            lanes[1].process_batch(&batches[2].view(), 1.0, &mut CycleMeter::new());
            restore(&monitor);
        }

        /// The restore's refusal of `state`, in a fresh monitor of `config`
        /// and `lanes` lanes.
        fn refuse(config: &MonitorConfig, lanes: usize, state: &[u8]) -> String {
            let mut restored = Monitor::with_lanes(config.clone(), lanes);
            match restored.load_state(&mut StateReader::new(state)) {
                Err(StateError::Corrupt(message)) => message,
                other => panic!("expected a corrupt record, got {other:?}"),
            }
        }

        /// The restore's refusal of the bytes `monitor` writes once `tamper`
        /// has made its registry one no run makes.
        fn refused(mut monitor: Monitor, tamper: impl FnOnce(&mut Monitor)) -> String {
            tamper(&mut monitor);
            refuse(&monitor.config, monitor.lane_count, &saved(&monitor))
        }

        /// Where the flags byte of the record at `position` sits in what
        /// `monitor` writes: after the records before it and the record's
        /// id, label, spec and minimum rate.
        fn flags_offset(monitor: &mut Monitor, position: usize) -> usize {
            let later = monitor.queries.split_off(position);
            // What the registry before the record writes, but the next id.
            let before = saved(monitor).len() - 8;
            monitor.queries.extend(later);
            let registered = &monitor.queries[position];
            let mut header = StateWriter::new();
            header.u64(registered.id.0);
            header.str(&monitor.labels[position]);
            registered.spec.as_ref().expect("registered from a spec").save_state(&mut header);
            header.f64(registered.min_rate);
            before + header.as_bytes().len()
        }

        /// What `save` writes, as bytes.
        fn bytes_of(save: impl FnOnce(&mut StateWriter) -> Result<(), StateError>) -> Vec<u8> {
            let mut writer = StateWriter::new();
            save(&mut writer).expect("save");
            writer.into_bytes()
        }

        /// A follower's record holds no predictor: one that carries a copy
        /// of its head's — the retired predictor bit set, and the copy after
        /// its enforcement counters, where a version-6 record held it — is
        /// refused.
        #[test]
        fn a_follower_record_that_carries_a_predictor_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let mut monitor = trio(&config, 1, &small_trace(3, 100.0));
            let flags = flags_offset(&mut monitor, 1);
            let mut state = saved(&monitor);
            assert_eq!(state[flags], FOLLOWS);
            state[flags] |= 2;
            let predictor = bytes_of(|writer| owned_at(&monitor.queries, 0).1.save_state(writer));
            // The head's position, the hasher generation, the overuse ratio
            // and the two counters.
            let counters_end = flags + 1 + 8 + 8 + 8 + 4 + 4;
            state.splice(counters_end..counters_end, predictor);
            let message = refuse(&config, 1, &state);
            assert!(message.contains("record flags 0b11"), "{message}");
        }

        /// A follower shares its head's control state, so a run writes the
        /// head's hasher generation and enforcement counters into every
        /// follower's record: a follower record whose own differ in any of
        /// the four is refused.
        #[test]
        fn a_follower_record_with_a_control_state_of_its_own_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let mut monitor = trio(&config, 1, &small_trace(3, 100.0));
            let flags = flags_offset(&mut monitor, 1);
            let state = saved(&monitor);
            // After the flags, the head's position: then the generation, the
            // overuse ratio and the two counters.
            for field in [flags + 1 + 8, flags + 1 + 16, flags + 1 + 24, flags + 1 + 28] {
                let mut tampered = state.clone();
                tampered[field] ^= 1;
                let message = refuse(&config, 1, &tampered);
                assert!(message.contains("control state of its own"), "{field}: {message}");
            }
            restored(&config, 1, &state);
        }

        /// An owner's record always holds a predictor: one whose predictor's
        /// bytes are missing is refused.
        #[test]
        fn an_owner_record_without_a_predictor_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let mut monitor =
                monitor_with_queries(config.clone(), &[QueryKind::Counter, QueryKind::Flows]);
            for batch in &small_trace(3, 100.0) {
                monitor.process_batch(batch).expect("batch");
            }
            let flags = flags_offset(&mut monitor, 0);
            let mut state = saved(&monitor);
            let (lanes, predictor) = owned_at(&monitor.queries, 0);
            let lanes = bytes_of(|writer| lanes[0].save_state(writer)).len();
            let predictor = bytes_of(|writer| predictor.save_state(writer)).len();
            // The hasher generation, the overuse ratio and the two counters.
            let start = flags + 1 + 8 + 8 + 4 + 4 + lanes;
            state.drain(start..start + predictor);
            let message = refuse(&config, 1, &state);
            assert!(message.contains("holds no predictor of this configuration"), "{message}");
        }

        /// A record's flags byte says whether it follows a head and whether it
        /// holds a sampled extractor, and nothing else: the retired
        /// predictor bit, or any bit above, is refused.
        #[test]
        fn a_record_with_a_flag_no_run_sets_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            for bit in [2, 8, 128] {
                let mut monitor = monitor_with_queries(config.clone(), &[QueryKind::Counter]);
                let flags = flags_offset(&mut monitor, 0);
                let mut state = saved(&monitor);
                state[flags] |= bit;
                let message = refuse(&config, 1, &state);
                assert!(message.contains(&format!("record flags {bit:#b}")), "{bit}: {message}");
            }
        }

        /// A follower's record must name an earlier owner: not itself, a
        /// later position, a position past the registry, or a follower.
        #[test]
        fn a_follower_of_no_earlier_owner_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let batches = small_trace(2, 100.0);
            for (follower, head) in [(1, 1), (1, 2), (1, usize::MAX), (2, 1)] {
                let message = refused(trio(&config, 1, &batches), |monitor| {
                    monitor.queries[follower].role = Role::Follows(head);
                });
                assert!(message.contains("no earlier owner like it"), "{head}: {message}");
            }
        }

        /// A follower's record must name a head registered from an equal
        /// spec (but for the label) at the same minimum rate.
        #[test]
        fn a_follower_of_another_spec_or_rate_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let counter = QuerySpec::new(QueryKind::Counter);
            for other in [QuerySpec::new(QueryKind::Flows), counter.clone().with_min_rate(0.5)] {
                let mut monitor = monitor_with_queries(config.clone(), &[QueryKind::Counter]);
                monitor.register(&other).expect("valid spec");
                assert_eq!(monitor.queries[1].head(), None);
                let message =
                    refused(monitor, |monitor| monitor.queries[1].role = Role::Follows(0));
                assert!(message.contains("no earlier owner like it"), "{other:?}: {message}");
            }
            let message = refused(trio(&config, 1, &[]), |monitor| {
                monitor.queries[1].min_rate = 0.5;
            });
            assert!(message.contains("no earlier owner like it"), "{message}");
        }

        /// Ids are handed out in increasing order and the registry keeps
        /// registration order, so a record whose id does not exceed the one
        /// before it — a repeat, or a smaller one — is refused.
        #[test]
        fn restored_ids_must_increase() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            let kinds = [QueryKind::Counter, QueryKind::Flows];
            for ids in [[0, 0], [1, 0]] {
                let monitor = monitor_with_queries(config.clone(), &kinds);
                let message = refused(monitor, |monitor| {
                    for (registered, id) in monitor.queries.iter_mut().zip(ids) {
                        registered.id = QueryId(id);
                    }
                });
                assert!(message.contains("does not exceed the id"), "{ids:?}: {message}");
            }
        }

        /// A restored spec must pass the minimum-rate check `register` makes.
        #[test]
        fn a_restored_spec_register_refuses_is_refused() {
            let config = MonitorConfig::default().with_capacity(1e12).without_noise();
            for rate in [1.5, -0.25, f64::NAN] {
                let monitor = monitor_with_queries(config.clone(), &[QueryKind::Counter]);
                let message = refused(monitor, |monitor| {
                    let spec = monitor.queries[0].spec.as_mut().expect("registered from a spec");
                    spec.min_sampling_rate = Some(rate);
                });
                assert!(message.contains("min_sampling_rate"), "{rate}: {message}");
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
}
