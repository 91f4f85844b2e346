//! The shard plane: a flow-sharded monitor fleet behind one front end, with
//! a cross-shard capacity coordinator.
//!
//! A [`ShardedMonitor`] statically partitions flow space into a fixed number
//! of *virtual lanes* (`shard_lanes`, RSS-style indirection), each lane a
//! full independent [`Monitor`] — its own predictor, capture buffer and
//! policy state. The front end routes each packet by its symmetric host-pair
//! [`shard_key`](netshed_trace::shard_key) (`lane = key % lanes`), so every
//! flow — and both directions of every conversation — lands on exactly one
//! lane. The `shards` knob is a pure wall-clock knob like `workers`: it only
//! sets how many threads the fixed lanes are executed on, so the output
//! stream is bit-identical at any shards×workers combination (see DESIGN.md,
//! "Shard plane"). Changing `shard_lanes` changes the state-owning partition
//! and therefore the output, like changing the seed — it is configuration.
//!
//! Per global bin the *coordinator* redistributes the global cycle budget
//! over the lanes through the same allocator that arbitrates queries within
//! a monitor — the installed policy's own
//! ([`ControlPolicy::allocator`](crate::ControlPolicy::allocator); Section
//! 5.2 lifted from queries to shards): each lane reports its previous bin's
//! predicted cycles as its demand, the allocator grants max-min fair budgets
//! out of the discretionary pool, and unclaimed headroom is returned
//! equally. A DDoS concentrated on one lane therefore borrows the idle
//! lanes' headroom — while the §5.3 allocation game bounds what a greedy
//! lane can extract.
//!
//! Lanes run in lock step: every lane sees every global bin, non-empty
//! sub-batches through [`Monitor::process_batch`] and empty ones through
//! [`Monitor::advance_empty_bin`], so all lanes close measurement intervals
//! on identical bins and per-interval outputs can be merged query-by-query.

use crate::capture::bounded;
use crate::config::{MonitorConfig, PolicySpec};
use crate::engine::Engine;
use crate::error::NetshedError;
use crate::exec::{run_tasks, Stage, StageClock, StageStats};
use crate::monitor::{Monitor, QueryId};
use crate::observer::RunObserver;
use crate::report::{BinRecord, RunSummary};
use netshed_fairness::QueryDemand;
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::{Batch, PacketSource};

/// Fraction of a lane's equal share that is guaranteed to it regardless of
/// demand (the coordinator's liveness floor): an idle lane keeps enough
/// budget to ramp back up, and no allocation outcome can starve a lane below
/// its platform overhead.
const MIN_LANE_SHARE: f64 = 0.05;

/// A fleet of flow-sharded monitors behind one deterministic front end.
///
/// Construct through [`MonitorBuilder::build_sharded`]
/// (crate::MonitorBuilder::build_sharded) or [`ShardedMonitor::new`]; drive
/// it like a [`Monitor`] — [`ShardedMonitor::run`] over a source, or
/// [`ShardedMonitor::process_bin`] per global bin.
pub struct ShardedMonitor {
    /// The *global* configuration (undivided capacity). Per-lane budgets are
    /// coordinator state, never reflected here — checkpoint cross-checks
    /// compare against this config bit-for-bit.
    config: MonitorConfig,
    /// The fixed virtual lanes, in lane order.
    lanes: Vec<Lane>,
    /// Each lane's current per-bin cycle budget (coordinator output).
    lane_capacity: Vec<f64>,
    /// The front end's lap clock (coordinate, split, lanes, merge); each
    /// lane's monitor keeps the clock of its own seven stages.
    clock: StageClock,
}

/// One virtual lane, and the unit the shard threads dispatch: a full monitor
/// over the lane's flow partition plus everything one bin hands into and out
/// of it, so a dispatch borrows `&mut Lane` and builds nothing per bin.
struct Lane {
    monitor: Monitor,
    /// The demand the lane reports to the coordinator: its previous bin's
    /// predicted cycles (0 before the first bin and after a bin it sat
    /// idle, so an idle lane's budget decays to the floor until it sees
    /// traffic again).
    demand: f64,
    /// This bin's share of the global batch.
    batch: Batch,
    /// This bin's record, when `batch` was non-empty.
    record: Option<BinRecord>,
    /// The interval this lane closed outside a record: an idle lane's clock
    /// rolling over, or the final flush.
    flushed: Option<Vec<(String, QueryOutput)>>,
    /// Why this bin failed on this lane, if it did.
    error: Option<NetshedError>,
}

// Lanes cross shard-thread boundaries as `&mut` borrows. Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Lane>();
};

impl Lane {
    /// The lane's task: non-empty sub-batches go through the full pipeline,
    /// empty ones only advance the interval clock — every lane sees every
    /// global bin, so all lanes close intervals on identical bins.
    fn run_bin(&mut self) {
        (self.record, self.flushed, self.error, self.demand) = (None, None, None, 0.0);
        if self.batch.is_empty() {
            self.flushed = self.monitor.advance_empty_bin(&self.batch);
            return;
        }
        match self.monitor.process_batch(&self.batch) {
            Ok(record) => {
                self.demand = record.predicted_cycles;
                self.record = Some(record);
            }
            Err(error) => self.error = Some(error),
        }
    }

    /// The interval outputs this lane closed this bin, if it closed one.
    fn closed(&self) -> Option<&[(String, QueryOutput)]> {
        match &self.record {
            Some(record) => record.interval_outputs.as_deref(),
            None => self.flushed.as_deref(),
        }
    }
}

impl ShardedMonitor {
    /// Builds a fleet from a validated global configuration: `shard_lanes`
    /// monitors, each starting with an equal share of the capacity (compute
    /// budget *and* capture-buffer depth — buffer memory models per-lane
    /// NIC-drain capacity and is not redistributed by the coordinator). The
    /// per-bin platform overhead is split the same way, so the fleet pays
    /// the same total fixed cost as the solo monitor — and any configuration
    /// a solo monitor accepts, the fleet accepts too. Every lane builds its
    /// own instance of the configured policy and predictor.
    pub fn new(config: MonitorConfig) -> Result<Self, NetshedError> {
        config.validate()?;
        let lanes_count = config.shard_lanes;
        let share = config.capacity_cycles_per_bin / lanes_count as f64;
        let mut lanes = Vec::with_capacity(lanes_count);
        for lane in 0..lanes_count {
            let mut lane_config = config
                .clone()
                .with_capacity(share)
                // Decorrelate the lanes' sampling hashes and noise streams;
                // the derivation depends only on the lane index, so it is
                // invariant to the shard-thread count.
                .with_seed(config.seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            lane_config.platform_overhead_cycles =
                config.platform_overhead_cycles / lanes_count as f64;
            lane_config.validate()?;
            lanes.push(Lane {
                monitor: Monitor::new(lane_config),
                demand: 0.0,
                batch: Batch::empty(0, 0, config.time_bin_us),
                record: None,
                flushed: None,
                error: None,
            });
        }
        Ok(Self {
            config,
            lanes,
            lane_capacity: vec![share; lanes_count],
            clock: StageClock::new(),
        })
    }

    /// The global configuration the fleet was built from (undivided
    /// capacity; coordinator reallocations never leak into it).
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Number of virtual lanes (the fixed state-owning partition).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Number of shard threads the lanes are executed on.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The lanes' current per-bin cycle budgets (coordinator output of the
    /// most recent bin; equal shares before the first).
    pub fn lane_capacities(&self) -> &[f64] {
        &self.lane_capacity
    }

    /// The control policy name of the fleet (all lanes share it).
    pub fn policy_name(&self) -> String {
        self.lanes[0].monitor.policy_name()
    }

    /// Swaps every lane's control policy for its own fresh instance of
    /// `policy`; the coordinator follows, because it asks lane 0's policy
    /// for its allocator every bin.
    pub fn set_policy(&mut self, policy: PolicySpec) {
        for lane in &mut self.lanes {
            lane.monitor.set_policy(policy.clone());
        }
        self.config.policy = policy;
    }

    /// Cumulative per-stage wall time: the front end's own four slots plus
    /// the sum over the lanes' [`Monitor::stage_stats`]; `bins` stays global.
    pub fn stage_stats(&self) -> StageStats {
        let mut stats = self.clock.stats;
        for lane in &self.lanes {
            stats.absorb(&lane.monitor.stage_stats());
        }
        stats.bins = self.clock.stats.bins;
        stats
    }

    /// Registers a query on every lane under one shared [`QueryId`].
    ///
    /// Lanes assign ids in lock step (same registration history), so the id
    /// is fleet-wide.
    pub fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        let mut id = None;
        for lane in &mut self.lanes {
            let lane_id = lane.monitor.register(spec)?;
            debug_assert!(id.is_none_or(|previous| previous == lane_id));
            id = Some(lane_id);
        }
        // lint:allow(no-unwrap): the fleet always has at least one lane (validated config)
        Ok(id.expect("a fleet has at least one lane"))
    }

    /// Deregisters a query from every lane.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        self.lanes.iter_mut().try_for_each(|lane| lane.monitor.deregister(id))
    }

    /// Query labels in registration order (identical on every lane).
    pub fn query_names(&self) -> Vec<String> {
        self.lanes[0].monitor.query_names()
    }

    /// Whether a measurement interval is currently open (lanes advance their
    /// interval clocks in lock step, so one lane answers for the fleet).
    pub fn interval_open(&self) -> bool {
        self.lanes.iter().any(|lane| lane.monitor.interval_open())
    }

    /// Flushes the current measurement interval on every lane and merges the
    /// per-query outputs in registration order.
    pub fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        for lane in &mut self.lanes {
            lane.record = None;
            lane.flushed = Some(lane.monitor.finish_interval());
        }
        self.merge_closed().unwrap_or_default()
    }

    /// Merges the interval the lanes closed this bin into one fleet-level
    /// output list, if they closed one — lanes advance their interval clocks
    /// in lock step, so a bin closes an interval on every lane or on none.
    ///
    /// All lanes share the same registration history, so their output lists
    /// are index-aligned; entry `q` starts from lane 0's output and folds in
    /// the other lanes' entries `q` in lane order under the per-variant
    /// rules of [`QueryOutput::merge_lanes`].
    fn merge_closed(&self) -> Option<Vec<(String, QueryOutput)>> {
        let (first, rest) = self.lanes.split_first()?;
        let mut merged = first.closed()?.to_vec();
        debug_assert!(rest.iter().all(|lane| lane.closed().is_some()), "lanes close in lock step");
        for (q, (label, output)) in merged.iter_mut().enumerate() {
            output.merge_lanes(rest.iter().filter_map(Lane::closed).map(|lane| {
                debug_assert_eq!(lane[q].0, *label, "lanes registered identically");
                &lane[q].1
            }));
        }
        Some(merged)
    }

    /// The coordinator step: turns the lanes' reported demands into per-bin
    /// budgets for the coming bin and applies them.
    ///
    /// Every lane is guaranteed a liveness floor; the discretionary
    /// remainder is granted by the installed policy's
    /// [`allocator`](crate::ControlPolicy::allocator) against the reported
    /// demands, and whatever the grants leave unclaimed is
    /// returned equally. That is `floor + grant + (pool − Σgrants) / lanes`,
    /// computed as the equal share plus the lane's grant minus the mean
    /// grant: the budgets sum to the capacity whatever the grants are, and a
    /// one-lane fleet's budget is *exactly* the capacity — which is what
    /// makes it bit-identical to the solo monitor. Inputs (previous-bin
    /// records) and the allocator are deterministic, so the budgets are —
    /// and they depend only on lane state, never on the shard-thread count.
    fn coordinate(&mut self) {
        let lanes = self.lanes.len() as f64;
        let capacity = self.config.capacity_cycles_per_bin;
        let share = capacity / lanes;
        // The floor is expressed in lane terms — [`MIN_LANE_SHARE`] of the
        // equal share, at least twice the (split) platform overhead — and
        // capped at the share itself: with `H < C < 2·H` the uncapped floors
        // alone would outspend the capacity.
        let lane_overhead = self.config.platform_overhead_cycles / lanes;
        let floor = (share * MIN_LANE_SHARE).max(lane_overhead * 2.0).min(share);
        let pool = (capacity - floor * lanes).max(0.0);
        let demands: Vec<QueryDemand> =
            self.lanes.iter().map(|lane| QueryDemand::new(lane.demand, 0.0)).collect();
        let allocations = self.lanes[0].monitor.policy.allocator().allocate(&demands, pool);
        // Grants first, in place; then each becomes the lane's budget.
        for (grant, (allocation, demand)) in
            self.lane_capacity.iter_mut().zip(allocations.iter().zip(&demands))
        {
            *grant = allocation.rate() * demand.predicted_cycles;
        }
        let mean_grant = self.lane_capacity.iter().sum::<f64>() / lanes;
        for (lane, budget) in self.lanes.iter_mut().zip(&mut self.lane_capacity) {
            *budget = share + (*budget - mean_grant);
            lane.monitor.set_bin_capacity(*budget);
        }
    }

    /// Processes one global (non-empty) bin: coordinate budgets, split the
    /// batch over the lanes, dispatch the lanes over the shard threads,
    /// merge, report.
    ///
    /// The observer sees, in order: `on_batch` with the *global* batch; one
    /// `on_interval` with the lane-merged outputs when this bin closed a
    /// measurement interval; then per lane in lane order `on_decision` and
    /// `on_bin` for every lane whose sub-batch was non-empty. The merge
    /// order is fixed by lane index and registration order, so the stream is
    /// invariant to `shards` and `workers`.
    ///
    /// Returns the per-lane records in lane order (idle lanes contribute
    /// none).
    pub fn process_bin<O>(
        &mut self,
        batch: &Batch,
        observer: &mut O,
    ) -> Result<Vec<BinRecord>, NetshedError>
    where
        O: RunObserver + ?Sized,
    {
        if batch.is_empty() {
            return Err(NetshedError::EmptyBatch { bin_index: batch.bin_index });
        }
        self.clock.start();
        observer.on_batch(batch);
        self.coordinate();
        self.clock.lap(Stage::Coordinate);
        let sub_batches = batch.split_shards(self.lanes.len());
        for (lane, sub_batch) in self.lanes.iter_mut().zip(sub_batches) {
            lane.batch = sub_batch;
        }
        self.clock.lap(Stage::Split);
        run_tasks(self.config.shards, &mut self.lanes, Lane::run_bin);
        self.clock.lap(Stage::Lanes);

        // The first lane error (in lane order) wins.
        if let Some(error) = self.lanes.iter_mut().find_map(|lane| lane.error.take()) {
            return Err(error);
        }
        if let Some(merged) = self.merge_closed() {
            observer.on_interval(&merged);
        }
        let records: Vec<BinRecord> =
            self.lanes.iter_mut().filter_map(|lane| lane.record.take()).collect();
        for record in &records {
            observer.on_decision(record.bin_index, &record.decision);
        }
        for record in &records {
            observer.on_bin(record);
        }
        self.clock.lap(Stage::Merge);
        self.clock.stats.bins += 1;
        self.clock.stats.tasks += self.lanes.len() as u64;
        Ok(records)
    }

    /// Drives the fleet over a batch source until exhaustion — the engine
    /// contract's [`Engine::run`], the loop [`Monitor::run`] shares, callable
    /// without the trait in scope. Summary semantics are global: `bins`
    /// counts global non-empty bins, `cycles_per_bin` sums the lanes' cycles
    /// per global bin, and every lane's prediction error contributes one
    /// sample.
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

    /// Serialises one lane's monitor state (the `shard.{i}` checkpoint
    /// section).
    pub fn save_lane_state(&self, lane: usize, writer: &mut StateWriter) -> Result<(), StateError> {
        self.lanes[lane].monitor.save_state(writer)
    }

    /// Restores one lane's monitor state. A lane's budget is not part of it
    /// (a monitor's `load_state` never touches its configuration): the
    /// coordinator section carries the budgets and
    /// [`ShardedMonitor::load_coordinator_state`] re-applies them.
    pub fn load_lane_state(
        &mut self,
        lane: usize,
        reader: &mut StateReader<'_>,
    ) -> Result<(), StateError> {
        self.lanes[lane].monitor.load_state(reader)
    }

    /// Serialises the coordinator state (the `sharded` checkpoint section):
    /// lane count, then each lane's current budget and reported demand.
    pub fn save_coordinator_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.u64(self.lanes.len() as u64);
        for (&capacity, lane) in self.lane_capacity.iter().zip(&self.lanes) {
            writer.f64(capacity);
            writer.f64(lane.demand);
        }
        Ok(())
    }

    /// Restores the coordinator state and reapplies each lane's budget.
    ///
    /// A snapshot is outside input and its checksum is not cryptographic: a
    /// budget the coordinator could not have produced (not positive and
    /// finite) would wedge the lane in `CapacityUnderflow` on every bin, and
    /// a demand no record could have reported (negative or not finite) would
    /// reach the allocator — both are a corrupt section.
    pub fn load_coordinator_state(
        &mut self,
        reader: &mut StateReader<'_>,
    ) -> Result<(), StateError> {
        let lanes = reader.u64()? as usize;
        if lanes != self.lanes.len() {
            return Err(StateError::mismatch("sharded.lanes", lanes, self.lanes.len()));
        }
        for (index, (lane, budget)) in
            self.lanes.iter_mut().zip(&mut self.lane_capacity).enumerate()
        {
            let capacity = reader.f64()?;
            if !(capacity.is_finite() && capacity > 0.0) {
                return Err(StateError::corrupt(format!(
                    "sharded lane {index} capacity holds {capacity}, not a positive finite budget"
                )));
            }
            let demand = bounded(reader.f64()?, &format!("sharded lane {index} demand"), f64::MAX)?;
            *budget = capacity;
            lane.demand = demand;
            lane.monitor.set_bin_capacity(capacity);
        }
        Ok(())
    }
}

impl std::fmt::Debug for ShardedMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMonitor")
            .field("lanes", &self.lanes.len())
            .field("shards", &self.config.shards)
            .field("lane_capacity", &self.lane_capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocationPolicy, Strategy};
    use crate::digest::DigestObserver;
    use crate::observer::NullObserver;
    use netshed_queries::{QueryKind, QuerySpec};
    use netshed_trace::{FiveTuple, Packet, TraceConfig, TraceGenerator};

    fn trace(batches: usize, mean_packets: f64, seed: u64) -> Vec<Batch> {
        let config = TraceConfig::default()
            .with_seed(seed)
            .with_mean_packets_per_batch(mean_packets)
            .with_payloads(true);
        TraceGenerator::new(config).batches(batches)
    }

    /// A batch whose packets all belong to one host pair — and therefore all
    /// route to one lane.
    fn single_pair_batch(bin: u64, packets: usize) -> Batch {
        let bin_us = MonitorConfig::default().time_bin_us;
        let start = bin * bin_us;
        let packets = (0..packets)
            .map(|i| {
                let ts = start + (i as u64 * bin_us) / packets as u64;
                let tuple = FiveTuple::new(10, 20, 1000 + (i % 50) as u16, 80, 6);
                Packet::header_only(ts, tuple, 400, 0)
            })
            .collect();
        Batch::new(bin, start, bin_us, packets)
    }

    fn fleet(capacity: f64, lanes: usize) -> ShardedMonitor {
        Monitor::builder()
            .capacity(capacity)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsCpu))
            .no_noise()
            .seed(7)
            .with_shard_lanes(lanes)
            .query(QuerySpec::new(QueryKind::Counter))
            .build_sharded()
            .expect("valid sharded configuration")
    }

    #[derive(Default)]
    struct IntervalCapture(Vec<Vec<(String, QueryOutput)>>);

    impl RunObserver for IntervalCapture {
        fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
            self.0.push(outputs.to_vec());
        }
    }

    #[test]
    fn register_is_fleet_wide_and_preserves_registration_order() {
        let mut fleet = Monitor::builder()
            .with_shard_lanes(3)
            .query(QuerySpec::new(QueryKind::Counter))
            .query(QuerySpec::new(QueryKind::Flows).with_label("flows-live"))
            .build_sharded()
            .expect("valid sharded configuration");
        assert_eq!(fleet.lane_count(), 3);
        assert_eq!(fleet.query_names(), vec!["counter", "flows-live"]);

        let id = fleet.register(&QuerySpec::new(QueryKind::TopK)).expect("register");
        assert_eq!(fleet.query_names(), vec!["counter", "flows-live", "top-k"]);
        fleet.deregister(id).expect("deregister");
        assert_eq!(fleet.query_names(), vec!["counter", "flows-live"]);
    }

    #[test]
    fn every_lane_builds_its_own_custom_policy_and_predictor() {
        use crate::policy::HysteresisReactivePolicy;
        use netshed_fairness::MmfsPkt;
        use netshed_predict::{EwmaPredictor, Predictor};

        let mut fleet = Monitor::builder()
            .with_policy(|| HysteresisReactivePolicy::new(MmfsPkt))
            .with_predictor(|| Box::new(EwmaPredictor::new(0.5)) as Box<dyn Predictor>)
            .with_shard_lanes(3)
            .query(QuerySpec::new(QueryKind::Counter))
            .build_sharded()
            .expect("anything build() accepts shards");
        assert_eq!(fleet.policy_name(), "reactive_hysteresis_mmfs_pkt");
        // The coordinator arbitrates lanes with the policy's own allocator.
        assert_eq!(fleet.lanes[2].monitor.policy.allocator().name(), "mmfs_pkt");
        fleet.process_bin(&single_pair_batch(0, 200), &mut NullObserver).expect("bin");

        fleet.set_policy(Strategy::NoShedding.into());
        assert_eq!(fleet.config().policy.name(), "no_lshed");
        assert!(fleet.lanes.iter().all(|lane| lane.monitor.policy_name() == "no_lshed"));
    }

    #[test]
    fn coordinator_lends_idle_headroom_to_the_loaded_lane() {
        let capacity = 5.0e8;
        let mut fleet = fleet(capacity, 4);
        let mut observer = NullObserver;

        // A few warm-up bins prime the loaded lane's predictor (the first
        // prediction is zero); every later coordination round redistributes
        // against its reported demand.
        for bin in 0..6 {
            fleet.process_bin(&single_pair_batch(bin, 400), &mut observer).expect("bin");
        }

        let share = capacity / 4.0;
        let budgets = fleet.lane_capacities().to_vec();
        let loaded: Vec<usize> = (0..4).filter(|&lane| budgets[lane] > share).collect();
        assert_eq!(loaded.len(), 1, "exactly one lane borrows headroom: {budgets:?}");
        for (lane, &budget) in budgets.iter().enumerate() {
            if lane != loaded[0] {
                assert!(budget < share, "idle lane {lane} cedes headroom: {budgets:?}");
            }
            assert!(budget > 0.0);
        }
        let total: f64 = budgets.iter().sum();
        assert!(
            (total - capacity).abs() <= capacity * 1e-9,
            "budgets conserve the global capacity: {total} vs {capacity}"
        );
    }

    #[test]
    fn budgets_conserve_a_capacity_below_twice_the_platform_overhead() {
        // `H < C < 2·H` validates (a monitor only needs `C > H`), and there
        // the uncapped liveness floor `2·H / lanes` alone outspends the
        // capacity: the budgets summed to `2·H`.
        let (overhead, lanes) = (1.0e6, 4);
        let capacity = 1.5 * overhead;
        let mut fleet = Monitor::builder()
            .capacity(capacity)
            .platform_overhead(overhead)
            .no_noise()
            .with_shard_lanes(lanes)
            .query(QuerySpec::new(QueryKind::Counter))
            .build_sharded()
            .expect("any configuration a solo monitor accepts, the fleet accepts");
        for bin in 0..6 {
            fleet.process_bin(&single_pair_batch(bin, 400), &mut NullObserver).expect("bin");
            let budgets = fleet.lane_capacities();
            let total: f64 = budgets.iter().sum();
            assert!(
                (total - capacity).abs() <= capacity * 1e-9,
                "bin {bin}: budgets {budgets:?} sum to {total}, not {capacity}"
            );
            for &budget in budgets {
                assert!(budget >= overhead / lanes as f64, "bin {bin}: starved lane {budgets:?}");
            }
        }
    }

    #[test]
    fn a_one_lane_budget_is_exactly_the_capacity() {
        // Not within an ulp: bit-equal, whatever the lane demands — the
        // arithmetic half of "a one-lane fleet is the solo monitor".
        let capacity = 53_245.364 * 3.0;
        let mut fleet = fleet(capacity, 1);
        for bin in 0..8 {
            fleet.process_bin(&single_pair_batch(bin, 300), &mut NullObserver).expect("bin");
            assert_eq!(fleet.lane_capacities()[0].to_bits(), capacity.to_bits(), "bin {bin}");
        }
    }

    #[test]
    fn merged_counter_matches_an_unsharded_run_without_shedding() {
        let batches = trace(12, 300.0, 11);
        let config = MonitorConfig::default()
            .with_capacity(1.0e12)
            .with_strategy(Strategy::NoShedding)
            .without_noise();

        let mut monitor = Monitor::new(config.clone());
        monitor.register(&QuerySpec::new(QueryKind::Counter)).expect("register");
        let mut plain = IntervalCapture::default();
        monitor.run(&mut batches.clone().into_iter(), &mut plain).expect("plain run");

        let mut fleet = Monitor::builder()
            .capacity(1.0e12)
            .strategy(Strategy::NoShedding)
            .no_noise()
            .with_shard_lanes(4)
            .query(QuerySpec::new(QueryKind::Counter))
            .build_sharded()
            .expect("valid sharded configuration");
        let mut sharded = IntervalCapture::default();
        fleet.run(&mut batches.clone().into_iter(), &mut sharded).expect("sharded run");

        assert_eq!(plain.0.len(), sharded.0.len(), "interval cadence matches");
        for (plain_interval, sharded_interval) in plain.0.iter().zip(&sharded.0) {
            assert_eq!(plain_interval.len(), sharded_interval.len());
            for ((label_a, output_a), (label_b, output_b)) in
                plain_interval.iter().zip(sharded_interval)
            {
                assert_eq!(label_a, label_b);
                let (
                    QueryOutput::Counter { packets: pa, bytes: ba },
                    QueryOutput::Counter { packets: pb, bytes: bb },
                ) = (output_a, output_b)
                else {
                    panic!("counter outputs expected");
                };
                assert_eq!(pa.to_bits(), pb.to_bits(), "packet counts are exact sums");
                assert_eq!(ba.to_bits(), bb.to_bits(), "byte counts are exact sums");
            }
        }
    }

    #[test]
    fn shard_thread_count_never_changes_the_fingerprint() {
        let batches = trace(16, 250.0, 23);
        let mut digests = Vec::new();
        for shards in [1, 2, 4] {
            let mut fleet = Monitor::builder()
                .capacity(2.0e8)
                .strategy(Strategy::Predictive(AllocationPolicy::MmfsCpu))
                .seed(5)
                .with_shard_lanes(4)
                .with_shards(shards)
                .query(QuerySpec::new(QueryKind::Counter))
                .query(QuerySpec::new(QueryKind::Flows))
                .query(QuerySpec::new(QueryKind::TopK))
                .build_sharded()
                .expect("valid sharded configuration");
            let mut observer = DigestObserver::new();
            let summary = fleet.run(&mut batches.clone().into_iter(), &mut observer).expect("run");
            assert!(summary.bins > 0);
            digests.push(observer.digest());
        }
        assert_eq!(digests[0], digests[1], "1 vs 2 shard threads");
        assert_eq!(digests[0], digests[2], "1 vs 4 shard threads");
    }

    #[test]
    fn lanes_close_intervals_in_lockstep_even_when_idle() {
        // Single-pair traffic leaves three of the four lanes permanently
        // idle; they must still close every measurement interval so outputs
        // can be merged (25 bins of 100 ms → intervals close at bins 10 and
        // 20, plus the final flush).
        let mut fleet = fleet(5.0e8, 4);
        let batches: Vec<Batch> = (0..25).map(|bin| single_pair_batch(bin, 120)).collect();
        let mut observer = IntervalCapture::default();
        let summary = fleet.run(&mut batches.into_iter(), &mut observer).expect("run");

        assert_eq!(summary.bins, 25);
        assert_eq!(observer.0.len(), 3, "two closes plus the final flush");
        let total_packets: f64 = observer
            .0
            .iter()
            .flat_map(|interval| interval.iter())
            .map(|(_, output)| match output {
                QueryOutput::Counter { packets, .. } => *packets,
                _ => panic!("counter output expected"),
            })
            .sum();
        assert!(total_packets > 0.0);
        assert!(total_packets <= (25 * 120) as f64);
    }

    #[test]
    fn the_allocation_game_holds_at_shard_granularity() {
        // Section 5.3 lifted from queries to shards: with the coordinator
        // arbitrating lane budgets through the same fairness machinery, a
        // lane that over-reports its demand cannot improve its own payoff —
        // the equal-share profile is a Nash equilibrium for any lane count.
        use netshed_fairness::{AllocationGame, FairnessMode};
        for lanes in [2usize, 4, 8] {
            let capacity = 5.0e8;
            let game = AllocationGame::new(capacity, lanes, FairnessMode::Cpu);
            let honest = vec![game.equilibrium_action(); lanes];
            assert!(
                game.is_nash_equilibrium(&honest, 64, 1e-6),
                "equal shares must be an equilibrium over {lanes} lanes"
            );
            let honest_payoff = game.payoffs(&honest)[0];
            let best = game.best_unilateral_payoff(&honest, 0, 64);
            assert!(
                best <= honest_payoff + capacity * 1e-9,
                "a greedy lane must not profit from over-reporting \
                 ({lanes} lanes: honest {honest_payoff}, deviation {best})"
            );
        }
    }

    #[test]
    fn fleet_stage_stats_are_the_front_end_plus_the_lane_sum() {
        // One shard thread: the lanes run back to back inside the dispatch.
        let mut fleet = Monitor::builder()
            .capacity(5.0e8)
            .with_shard_lanes(4)
            .with_shards(1)
            .query(QuerySpec::new(QueryKind::Counter))
            .build_sharded()
            .expect("valid sharded configuration");
        for batch in trace(12, 300.0, 11) {
            fleet.process_bin(&batch, &mut NullObserver).expect("bin");
        }
        let stats = fleet.stage_stats();
        let mut lanes = StageStats::default();
        for lane in &fleet.lanes {
            lanes.absorb(&lane.monitor.stage_stats());
        }
        assert_eq!(stats.bins, 12, "global bins, not lane bins");
        assert_eq!(stats.tasks, 12 * 4 + lanes.tasks, "one task per lane per bin, plus theirs");
        for stage in Stage::BIN {
            assert_eq!(stats.ns(stage), lanes.ns(stage), "{stage:?} is the lane sum");
            assert!(lanes.ns(stage) > 0);
        }
        for stage in Stage::FLEET {
            assert!(stats.ns(stage) > 0, "{stage:?} saw no time");
            assert_eq!(lanes.ns(stage), 0, "a lane has no {stage:?} stage");
        }
        assert!(stats.ns(Stage::Lanes) >= lanes.ns.iter().sum::<u64>());
    }

    #[test]
    fn coordinator_state_roundtrips() {
        let mut fleet = fleet(5.0e8, 4);
        let mut observer = NullObserver;
        fleet.process_bin(&single_pair_batch(0, 200), &mut observer).expect("bin 0");
        fleet.process_bin(&single_pair_batch(1, 200), &mut observer).expect("bin 1");

        let mut writer = StateWriter::new();
        fleet.save_coordinator_state(&mut writer).expect("save");
        let bytes = writer.into_bytes();

        let mut restored = self::tests::fleet(5.0e8, 4);
        let mut reader = StateReader::new(&bytes);
        restored.load_coordinator_state(&mut reader).expect("load");
        assert_eq!(fleet.lane_capacities(), restored.lane_capacities());

        // A fleet with a different lane count refuses the section, naming
        // the snapshot's count first.
        let mut mismatched = self::tests::fleet(5.0e8, 2);
        let mut reader = StateReader::new(&bytes);
        match mismatched.load_coordinator_state(&mut reader).unwrap_err() {
            StateError::Mismatch { found, expected, .. } => {
                assert_eq!((found.as_str(), expected.as_str()), ("4", "2"));
            }
            other => panic!("expected a lane-count Mismatch, got {other:?}"),
        }
    }
}
