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
//! over the lanes through the same [`AllocationStrategy`] machinery that
//! arbitrates queries within a monitor (Section 5.2 lifted from queries to
//! shards): each lane reports its previous bin's predicted cycles as its
//! demand, the allocator grants max-min fair budgets out of the
//! discretionary pool, and unclaimed headroom is returned equally. A DDoS
//! concentrated on one lane therefore borrows the idle lanes' headroom —
//! while the §5.3 allocation game bounds what a greedy lane can extract.
//!
//! Lanes run in lock step: every lane sees every global bin, non-empty
//! sub-batches through [`Monitor::process_batch`] and empty ones through
//! [`Monitor::advance_empty_bin`], so all lanes close measurement intervals
//! on identical bins and per-interval outputs can be merged query-by-query.

use crate::config::{AllocationPolicy, MonitorConfig, Strategy};
use crate::error::NetshedError;
use crate::exec::{run_tasks, ExecStats};
use crate::monitor::{Monitor, QueryId};
use crate::observer::RunObserver;
use crate::report::{BinRecord, RunSummary};
use netshed_fairness::QueryDemand;
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::{Batch, PacketSource};
use std::collections::{BTreeMap, BTreeSet};
// lint:allow(telemetry-clock): wall time feeds ExecStats telemetry only, never a decision
use std::time::Instant;

// Lane monitors cross shard-thread boundaries, so the fleet relies on the
// monitor being `Send`. Compile-time proof:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Monitor>();
};

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
    /// The fixed virtual lanes, each a full monitor over its flow partition.
    lanes: Vec<Monitor>,
    /// Cross-shard allocator (the configured strategy's allocation policy;
    /// max-min CPU fairness when the strategy has none).
    allocator: Box<dyn netshed_fairness::AllocationStrategy>,
    /// Each lane's current per-bin cycle budget (coordinator output).
    lane_capacity: Vec<f64>,
    /// Each lane's reported demand: its previous bin's predicted cycles
    /// (0 before the first bin and after a bin the lane sat idle).
    lane_demand: Vec<f64>,
    /// Shard-level execution telemetry (lane dispatch, not the per-lane
    /// query tails — those accumulate inside each lane's own stats).
    exec_stats: ExecStats,
}

/// What one lane produced for one global bin.
enum LaneOutcome {
    /// The lane processed a non-empty sub-batch.
    Processed(Box<BinRecord>),
    /// The lane's sub-batch was empty; the interval clock still advanced and
    /// may have closed an interval.
    Empty(Option<Vec<(String, QueryOutput)>>),
}

/// One lane's work item for the shard-thread dispatch.
struct LaneTask<'a> {
    monitor: &'a mut Monitor,
    batch: Batch,
    outcome: Option<Result<LaneOutcome, NetshedError>>,
}

impl ShardedMonitor {
    /// Builds a fleet from a validated global configuration: `shard_lanes`
    /// monitors, each starting with an equal share of the capacity (compute
    /// budget *and* capture-buffer depth — buffer memory models per-lane
    /// NIC-drain capacity and is not redistributed by the coordinator). The
    /// per-bin platform overhead is split the same way, so the fleet pays
    /// the same total fixed cost as the solo monitor — and any configuration
    /// a solo monitor accepts, the fleet accepts too.
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
            lanes.push(Monitor::new(lane_config));
        }
        let allocator = match config.strategy {
            // NoShedding has no allocation policy of its own; the coordinator
            // still has to split the budget, and max-min CPU fairness is the
            // neutral choice.
            Strategy::NoShedding => AllocationPolicy::MmfsCpu.allocator(),
            Strategy::Reactive(policy) | Strategy::Predictive(policy) => policy.allocator(),
        };
        Ok(Self {
            config,
            lanes,
            allocator,
            lane_capacity: vec![share; lanes_count],
            lane_demand: vec![0.0; lanes_count],
            exec_stats: ExecStats::default(),
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
        self.lanes[0].policy_name()
    }

    /// Swaps every lane's control policy to a built-in [`Strategy`] and
    /// retargets the coordinator's allocator to the strategy's allocation
    /// policy. Each lane gets its own fresh policy instance, which is why
    /// the fleet swaps by [`Strategy`] rather than by boxed policy.
    pub fn set_strategy(&mut self, strategy: Strategy) {
        for lane in &mut self.lanes {
            lane.set_policy(strategy.control_policy());
        }
        self.allocator = match strategy {
            Strategy::NoShedding => AllocationPolicy::MmfsCpu.allocator(),
            Strategy::Reactive(policy) | Strategy::Predictive(policy) => policy.allocator(),
        };
    }

    /// Shard-level execution telemetry: measured front-end wall time (split,
    /// coordination, merge) vs wall time inside the lane dispatch. Per-lane
    /// query telemetry stays in each lane's own [`Monitor::exec_stats`].
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// Registers a query on every lane under one shared [`QueryId`].
    ///
    /// Lanes assign ids in lock step (same registration history), so the id
    /// is fleet-wide.
    pub fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        let mut id = None;
        for lane in &mut self.lanes {
            let lane_id = lane.register(spec)?;
            debug_assert!(id.is_none_or(|previous| previous == lane_id));
            id = Some(lane_id);
        }
        // lint:allow(no-unwrap): the fleet always has at least one lane (validated config)
        Ok(id.expect("a fleet has at least one lane"))
    }

    /// Deregisters a query from every lane.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        for lane in &mut self.lanes {
            lane.deregister(id)?;
        }
        Ok(())
    }

    /// Query labels in registration order (identical on every lane).
    pub fn query_names(&self) -> Vec<String> {
        self.lanes[0].query_names()
    }

    /// Whether a measurement interval is currently open (lanes advance their
    /// interval clocks in lock step, so one lane answers for the fleet).
    pub fn interval_open(&self) -> bool {
        self.lanes.iter().any(Monitor::interval_open)
    }

    /// Flushes the current measurement interval on every lane and merges the
    /// per-query outputs in registration order.
    pub fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        let per_lane: Vec<Vec<(String, QueryOutput)>> =
            self.lanes.iter_mut().map(Monitor::finish_interval).collect();
        merge_interval_outputs(&per_lane)
    }

    /// The coordinator step: turns the lanes' reported demands into per-bin
    /// budgets for the coming bin and applies them.
    ///
    /// Every lane is guaranteed a liveness floor ([`MIN_LANE_SHARE`] of its
    /// equal share, never below its platform overhead); the discretionary
    /// remainder is granted by the configured [`AllocationStrategy`] against
    /// the reported demands, and whatever the grants leave unclaimed is
    /// returned equally. Inputs (previous-bin records) and the allocator are
    /// deterministic, so the budgets are — and they depend only on lane
    /// state, never on the shard-thread count.
    fn coordinate(&mut self) {
        let lanes = self.lanes.len() as f64;
        let capacity = self.config.capacity_cycles_per_bin;
        // The liveness floor is expressed against *lane* terms: a lane's
        // equal share and its (split) platform overhead.
        let lane_overhead = self.config.platform_overhead_cycles / lanes;
        let floor = (capacity / lanes * MIN_LANE_SHARE).max(lane_overhead * 2.0);
        let pool = (capacity - floor * lanes).max(0.0);
        let demands: Vec<QueryDemand> =
            self.lane_demand.iter().map(|&cycles| QueryDemand::new(cycles, 0.0)).collect();
        let allocations = self.allocator.allocate(&demands, pool);
        let granted: f64 = allocations
            .iter()
            .zip(&demands)
            .map(|(allocation, demand)| allocation.rate() * demand.predicted_cycles)
            .sum();
        let bonus = (pool - granted).max(0.0) / lanes;
        for ((lane, allocation), demand) in self.lanes.iter_mut().zip(&allocations).zip(&demands) {
            let budget = floor + allocation.rate() * demand.predicted_cycles + bonus;
            lane.set_bin_capacity(budget);
        }
        for (slot, lane) in self.lane_capacity.iter_mut().zip(&self.lanes) {
            *slot = lane.config().capacity_cycles_per_bin;
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
        // lint:allow(telemetry-clock): bin wall time feeds ExecStats only, never a decision
        let bin_start = Instant::now();
        observer.on_batch(batch);
        self.coordinate();
        let lane_count = self.lanes.len();
        let sub_batches = batch.split_shards(lane_count);
        let mut tasks: Vec<LaneTask<'_>> = self
            .lanes
            .iter_mut()
            .zip(sub_batches)
            .map(|(monitor, batch)| LaneTask { monitor, batch, outcome: None })
            .collect();
        // lint:allow(telemetry-clock): dispatch wall time feeds ExecStats only, never a decision
        let dispatch_start = Instant::now();
        run_tasks(self.config.shards, &mut tasks, |task| {
            task.outcome = Some(if task.batch.is_empty() {
                Ok(LaneOutcome::Empty(task.monitor.advance_empty_bin(&task.batch)))
            } else {
                task.monitor
                    .process_batch(&task.batch)
                    .map(|record| LaneOutcome::Processed(Box::new(record)))
            });
        });
        let dispatch_ns = dispatch_start.elapsed().as_nanos() as u64;

        // Collect in lane order; the first lane error (in lane order) wins.
        let mut records: Vec<BinRecord> = Vec::with_capacity(lane_count);
        let mut closed: Vec<Vec<(String, QueryOutput)>> = Vec::new();
        let mut interval_closed = false;
        for (lane, task) in tasks.into_iter().enumerate() {
            // lint:allow(no-unwrap): run_tasks runs every task exactly once
            let outcome = task.outcome.expect("lane task ran")?;
            match outcome {
                LaneOutcome::Processed(record) => {
                    // Demand report for the next coordination round.
                    self.lane_demand[lane] = record.predicted_cycles;
                    if let Some(outputs) = &record.interval_outputs {
                        interval_closed = true;
                        closed.push(outputs.clone());
                    }
                    records.push(*record);
                }
                LaneOutcome::Empty(outputs) => {
                    // A lane that sat the bin out reports zero demand (its
                    // budget decays to floor + bonus until it sees traffic).
                    self.lane_demand[lane] = 0.0;
                    if let Some(outputs) = outputs {
                        interval_closed = true;
                        closed.push(outputs);
                    }
                }
            }
        }
        // Lanes advance their interval clocks in lock step, so a bin closes
        // an interval on either every lane or none.
        debug_assert!(!interval_closed || closed.len() == self.lanes.len());

        if interval_closed {
            let merged = merge_interval_outputs(&closed);
            observer.on_interval(&merged);
        }
        for record in &records {
            observer.on_decision(record.bin_index, &record.decision);
        }
        for record in &records {
            observer.on_bin(record);
        }

        let bin_ns = bin_start.elapsed().as_nanos() as u64;
        self.exec_stats.fold_bin(bin_ns.saturating_sub(dispatch_ns), dispatch_ns, lane_count);
        Ok(records)
    }

    /// Drives the fleet over a batch source until exhaustion, reporting
    /// progress to `observer` and returning the fleet-merged [`RunSummary`].
    ///
    /// Mirrors [`Monitor::run`]: globally empty bins are counted and
    /// skipped; after the last batch the final interval is flushed to
    /// `on_interval` and `on_end` receives the summary. Summary semantics
    /// are global: `bins` counts global non-empty bins, `cycles_per_bin`
    /// sums the lanes' cycles per global bin, and every lane's prediction
    /// error contributes one sample.
    pub fn run<S, O>(
        &mut self,
        source: &mut S,
        observer: &mut O,
    ) -> Result<RunSummary, NetshedError>
    where
        S: PacketSource + ?Sized,
        O: RunObserver + ?Sized,
    {
        let mut summary = RunSummary::default();
        while let Some(batch) = source.next_batch() {
            if batch.is_empty() {
                summary.empty_bins += 1;
                continue;
            }
            let records = self.process_bin(&batch, observer)?;
            summary.bins += 1;
            let mut bin_cycles = 0.0;
            for record in &records {
                summary.total_packets += record.incoming_packets;
                summary.total_uncontrolled_drops += record.uncontrolled_drops;
                bin_cycles += record.total_cycles();
                if record.query_cycles > 0.0 {
                    summary
                        .prediction_errors
                        .push((1.0 - record.predicted_cycles / record.query_cycles).abs());
                }
            }
            summary.cycles_per_bin.push(bin_cycles);
        }
        if self.interval_open() {
            let outputs = self.finish_interval();
            observer.on_interval(&outputs);
        }
        observer.on_end(&summary);
        Ok(summary)
    }

    /// Serialises one lane's monitor state (the `shard.{i}` checkpoint
    /// section).
    pub fn save_lane_state(&self, lane: usize, writer: &mut StateWriter) -> Result<(), StateError> {
        self.lanes[lane].save_state(writer)
    }

    /// Restores one lane's monitor state. The coordinator's budgets are
    /// restored separately ([`ShardedMonitor::load_coordinator_state`],
    /// which must run *after* every lane load — a lane load resets the
    /// lane's config capacity to its checkpointed value).
    pub fn load_lane_state(
        &mut self,
        lane: usize,
        reader: &mut StateReader<'_>,
    ) -> Result<(), StateError> {
        self.lanes[lane].load_state(reader)
    }

    /// Serialises the coordinator state (the `sharded` checkpoint section):
    /// lane count, then each lane's current budget and reported demand.
    pub fn save_coordinator_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.u64(self.lanes.len() as u64);
        for (&capacity, &demand) in self.lane_capacity.iter().zip(&self.lane_demand) {
            writer.f64(capacity);
            writer.f64(demand);
        }
        Ok(())
    }

    /// Restores the coordinator state and reapplies each lane's budget.
    pub fn load_coordinator_state(
        &mut self,
        reader: &mut StateReader<'_>,
    ) -> Result<(), StateError> {
        let lanes = reader.u64()? as usize;
        if lanes != self.lanes.len() {
            return Err(StateError::mismatch(
                "sharded.lanes",
                self.lanes.len().to_string(),
                lanes.to_string(),
            ));
        }
        for lane in 0..lanes {
            let capacity = reader.f64()?;
            let demand = reader.f64()?;
            self.lane_capacity[lane] = capacity;
            self.lane_demand[lane] = demand;
            self.lanes[lane].set_bin_capacity(capacity);
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

/// Merges the lanes' per-interval outputs into one fleet-level output list.
///
/// All lanes share the same registration history, so their output lists are
/// index-aligned; entry `q` merges the lanes' entries `q` in lane order with
/// a per-variant rule: counts and sums add, high watermarks take the
/// maximum, set-valued outputs union, rankings merge then re-rank. The fold
/// order is fixed (lane 0 first), so the result is bit-stable.
fn merge_interval_outputs(per_lane: &[Vec<(String, QueryOutput)>]) -> Vec<(String, QueryOutput)> {
    let Some(first) = per_lane.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|q| {
            let label = first[q].0.clone();
            let outputs: Vec<&QueryOutput> = per_lane
                .iter()
                .map(|lane| {
                    debug_assert_eq!(lane[q].0, label, "lanes registered identically");
                    &lane[q].1
                })
                .collect();
            (label, merge_query_outputs(&outputs))
        })
        .collect()
}

/// Merges one query's per-lane outputs (see [`merge_interval_outputs`]).
fn merge_query_outputs(outputs: &[&QueryOutput]) -> QueryOutput {
    // lint:allow(no-unwrap): callers pass one output per lane, never empty
    let first = *outputs.first().expect("at least one lane output");
    match first {
        QueryOutput::Counter { .. } => {
            let (mut packets, mut bytes) = (0.0, 0.0);
            for output in outputs {
                if let QueryOutput::Counter { packets: p, bytes: b } = output {
                    packets += p;
                    bytes += b;
                }
            }
            QueryOutput::Counter { packets, bytes }
        }
        QueryOutput::Application { .. } => {
            let mut per_app: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
            for output in outputs {
                if let QueryOutput::Application { per_app: lane } = output {
                    for (&app, &(packets, bytes)) in lane {
                        let entry = per_app.entry(app).or_insert((0.0, 0.0));
                        entry.0 += packets;
                        entry.1 += bytes;
                    }
                }
            }
            QueryOutput::Application { per_app }
        }
        QueryOutput::Flows { .. } => {
            let mut count = 0.0;
            for output in outputs {
                if let QueryOutput::Flows { count: c } = output {
                    count += c;
                }
            }
            // Flows of one host pair stay on one lane (the routing key is
            // the host pair), so lane counts are disjoint and add exactly.
            QueryOutput::Flows { count }
        }
        QueryOutput::HighWatermark { .. } => {
            let mut mbps = 0.0;
            for output in outputs {
                if let QueryOutput::HighWatermark { mbps: m } = output {
                    mbps = if m > &mbps { *m } else { mbps };
                }
            }
            // A lane watermark lower-bounds the link watermark (lane peaks
            // need not coincide in time); the max is the standard
            // distributed-watermark estimate.
            QueryOutput::HighWatermark { mbps }
        }
        QueryOutput::TopK { .. } => {
            let mut per_dst: BTreeMap<u32, f64> = BTreeMap::new();
            let mut k = 0;
            for output in outputs {
                if let QueryOutput::TopK { ranking } = output {
                    k = k.max(ranking.len());
                    for &(dst, count) in ranking {
                        *per_dst.entry(dst).or_insert(0.0) += count;
                    }
                }
            }
            // Distributed top-k from per-lane top-k lists is inherently
            // lossy (a dst just below every lane's cut is lost); counts for
            // the survivors are exact because each dst's flows share a lane.
            let mut ranking: Vec<(u32, f64)> = per_dst.into_iter().collect();
            ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            ranking.truncate(k);
            QueryOutput::TopK { ranking }
        }
        QueryOutput::Autofocus { .. } => {
            let mut clusters: BTreeMap<(u32, u8), f64> = BTreeMap::new();
            for output in outputs {
                if let QueryOutput::Autofocus { clusters: lane } = output {
                    for &(prefix, len, volume) in lane {
                        *clusters.entry((prefix, len)).or_insert(0.0) += volume;
                    }
                }
            }
            QueryOutput::Autofocus {
                clusters: clusters
                    .into_iter()
                    .map(|((prefix, len), volume)| (prefix, len, volume))
                    .collect(),
            }
        }
        QueryOutput::SuperSources { .. } => {
            let mut fanouts: BTreeMap<u32, f64> = BTreeMap::new();
            for output in outputs {
                if let QueryOutput::SuperSources { fanouts: lane } = output {
                    for (&source, &fanout) in lane {
                        // A source's peers split across lanes by host pair,
                        // so per-lane fanouts count disjoint peer sets.
                        *fanouts.entry(source).or_insert(0.0) += fanout;
                    }
                }
            }
            QueryOutput::SuperSources { fanouts }
        }
        QueryOutput::P2pFlows { .. } => {
            let mut flows: BTreeSet<u64> = BTreeSet::new();
            for output in outputs {
                if let QueryOutput::P2pFlows { flows: lane } = output {
                    flows.extend(lane.iter().copied());
                }
            }
            QueryOutput::P2pFlows { flows }
        }
        QueryOutput::Coverage { .. } => {
            let (mut processed_packets, mut total_packets) = (0.0, 0.0);
            for output in outputs {
                if let QueryOutput::Coverage {
                    processed_packets: processed,
                    total_packets: total,
                } = output
                {
                    processed_packets += processed;
                    total_packets += total;
                }
            }
            QueryOutput::Coverage { processed_packets, total_packets }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocationPolicy;
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
    fn build_sharded_rejects_custom_policy_and_predictor() {
        use crate::policy::HysteresisReactivePolicy;
        use netshed_fairness::MmfsPkt;
        use netshed_predict::{EwmaPredictor, Predictor};

        let error = Monitor::builder()
            .with_policy(HysteresisReactivePolicy::new(MmfsPkt))
            .build_sharded()
            .unwrap_err();
        assert!(matches!(error, NetshedError::InvalidConfig(_)));

        let error = Monitor::builder()
            .with_predictor(|| Box::new(EwmaPredictor::new(0.5)) as Box<dyn Predictor>)
            .build_sharded()
            .unwrap_err();
        assert!(matches!(error, NetshedError::InvalidConfig(_)));
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

        // A fleet with a different lane count refuses the section.
        let mut mismatched = self::tests::fleet(5.0e8, 2);
        let mut reader = StateReader::new(&bytes);
        assert!(mismatched.load_coordinator_state(&mut reader).is_err());
    }
}
