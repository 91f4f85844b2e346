//! The system under test: every `netshed` name the benchmark depends on.
//!
//! This file is the benchmark's whole contract with the program. A refactor
//! that renames or removes one of these must keep an alias, or change this
//! file (and only this file) in a benchmark-only PR:
//!
//! * engines — `Monitor::builder()` → `MonitorBuilder::{capacity, strategy,
//!   seed, no_noise, with_workers, with_shards, with_shard_lanes, queries,
//!   build, build_sharded, from_config}`,
//!   `Strategy::Predictive(AllocationPolicy::MmfsPkt)`, `Monitor::{run,
//!   process_batch, advance_empty_bin, set_bin_capacity, interval_open,
//!   finish_interval, config}`, `ShardedMonitor::{run, process_bin,
//!   lane_capacities, lane_count, interval_open, finish_interval, config}`,
//!   `MonitorConfig::{with_capacity, with_seed}` and its
//!   `platform_overhead_cycles` / `measurement_interval_us` fields;
//! * service plane — `Daemon::{new, with_bins_per_tick, tick, checkpoint,
//!   restore (= restore_engine), run_to_exhaustion, digest}`, `TickStatus`,
//!   `ControlChannel::register_query`, `Pending::wait`, `MonitorEngine`,
//!   `Snapshot::from_bytes`;
//! * input — `TraceGenerator`, `TraceConfig`, `Scenario`, `Phase`,
//!   `AnomalyEvent::ddos`, `encode_batches`, `decode_batches_shared`,
//!   `SharedTraceReader`, `BatchReplay`, `PacketSource`, `Bytes`,
//!   `Batch::{view, split_shards, len, is_empty, measurement_interval,
//!   bin_index, duration_us}`;
//! * correctness — `DigestObserver::digest`, `RunDigest`,
//!   `AccuracyTracker::mean_accuracy`, `RunObserver`, `RunSummary::{bins,
//!   total_packets, uncontrolled_drop_fraction}`, `measure_total_demand`;
//! * records — `BinRecord::{queries, decision, incoming_packets,
//!   uncontrolled_drops, interval_outputs, bin_index}`,
//!   `QueryBinRecord::{sampling_rate, predicted_cycles, measured_cycles,
//!   disabled}`, `ControlDecision::{allocations, budget}`;
//! * layer functions — `hash_block` (sketch); `FeatureExtractor::extract_view`
//!   (features); `MlrPredictor::{predict, observe}` (predict); `mmfs_pkt` and
//!   `QueryDemand` (fairness); `packet_sample_with`, `flow_sample_with`,
//!   `KeepListPool` and `H3Hasher` (the monitor's shedder);
//!   `build_query_from_spec`, `Query::{process_batch, end_interval,
//!   preferred_shedding, min_sampling_rate}`, `CycleMeter`, `SheddingMethod`,
//!   `QueryKind::{ALL, CHAPTER4_SET, name}` and `QuerySpec::{new, with_label}`
//!   (queries).

pub use netshed::fairness::mmfs_pkt;
pub use netshed::features::{ExtractorConfig, FeatureExtractor, FeatureVector};
pub use netshed::monitor::reference::measure_total_demand;
pub use netshed::monitor::{flow_sample_with, packet_sample_with};
pub use netshed::predict::{MlrConfig, MlrPredictor, Predictor};
pub use netshed::queries::{build_query_from_spec, CycleMeter, Query, SheddingMethod};
pub use netshed::sketch::{hash_block, H3Hasher};
pub use netshed::trace::{
    decode_batches_shared, encode_batches, Bytes, KeepListPool, SharedTraceReader,
};
pub use netshed::{
    AccuracyTracker, AllocationPolicy, AnomalyEvent, Batch, BatchReplay, BatchView, BinRecord,
    ControlDecision, DigestObserver, Monitor, MonitorBuilder, NetshedError, PacketSource, Phase,
    QueryDemand, QueryKind, QueryOutput, QuerySpec, RunDigest, RunObserver, RunSummary, Scenario,
    ShardedMonitor, Strategy, TraceConfig, TraceGenerator,
};
pub use netshed_service::{Daemon, MonitorEngine, Snapshot, TickStatus};
pub use rand::rngs::StdRng;
pub use rand::SeedableRng;

/// The two engines a daemon can host, behind the two calls the benchmark
/// makes that `MonitorEngine` does not cover: building from a builder, and
/// the engine's own `run` loop (the quality pass deliberately does not go
/// through the daemon, so daemon ≡ run is checked on every benchmark run).
pub trait Engine: MonitorEngine + Sized {
    /// `build()` for a solo monitor, `build_sharded()` for a fleet.
    fn build(builder: MonitorBuilder) -> Result<Self, NetshedError>;

    /// `Monitor::run` / `ShardedMonitor::run`.
    fn run_all(
        &mut self,
        source: &mut dyn PacketSource,
        observer: &mut dyn RunObserver,
    ) -> Result<RunSummary, NetshedError>;
}

impl Engine for Monitor {
    fn build(builder: MonitorBuilder) -> Result<Self, NetshedError> {
        builder.build()
    }

    fn run_all(
        &mut self,
        source: &mut dyn PacketSource,
        observer: &mut dyn RunObserver,
    ) -> Result<RunSummary, NetshedError> {
        self.run(source, observer)
    }
}

impl Engine for ShardedMonitor {
    fn build(builder: MonitorBuilder) -> Result<Self, NetshedError> {
        builder.build_sharded()
    }

    fn run_all(
        &mut self,
        source: &mut dyn PacketSource,
        observer: &mut dyn RunObserver,
    ) -> Result<RunSummary, NetshedError> {
        self.run(source, observer)
    }
}
