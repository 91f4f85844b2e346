//! The traced run: the per-layer metrics, measured from outside by timing
//! calls into public functions of each layer (the workspace crates).
//!
//! Three parts, none of which feeds an end-to-end number:
//!
//! * **Pass A** hosts the daemon over a source that records a span around
//!   every `next_batch`: root span `service.tick`, child `trace.decode`;
//!   the tick's self time is engine + digest. It alternates with untraced
//!   passes, and the ratio of the two is the tracing overhead.
//! * **Pass B** decodes the same bytes twice. The first decode feeds the
//!   engine directly (span `monitor.bin`, records captured, digest fed
//!   through a timing observer); the second, still cold, feeds stand-alone
//!   replays of each layer (children of `bench.replay`) using each bin's
//!   recorded rates, predictions and measured cycles. What the replays cannot
//!   account for is the glue only tracing inside the program can split
//!   (`monitor.unattributed_share`).
//! * Thread scaling, snapshot and registration probes.

use crate::alloc;
use crate::json::Value;
use crate::measure::{
    checkpoint_restore, daemon_pass, drive_daemon, set_up, undisturbed_ns, Outcome, Pass,
};
use crate::metrics::{exec_metric, Metrics};
use crate::span::Recorder;
use crate::stats::{best, per_bin_best};
use crate::sut::{
    build_query_from_spec, flow_sample_with, hash_block, mmfs_pkt, packet_sample_with, Batch,
    BatchReplay, BatchView, BinRecord, ControlDecision, CycleMeter, Daemon, DigestObserver, Engine,
    ExtractorConfig, FeatureExtractor, FeatureVector, H3Hasher, KeepListPool, MlrConfig,
    MlrPredictor, Monitor, MonitorBuilder, PacketSource, Predictor, Query, QueryDemand, QueryKind,
    QueryOutput, QuerySpec, RunDigest, RunObserver, SeedableRng, ShardedMonitor, SharedTraceReader,
    SheddingMethod, Snapshot, StdRng,
};
use crate::workloads::{EngineKind, Input, Workload, FLEET_LANES};
use crate::{Options, Result};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Share of `--seconds` the rotation of untraced, traced and comparison
/// daemon passes gets; the replays and probes after it are fixed work.
const ROTATION_WINDOW_SHARE: f64 = 0.5;

/// Rounds of pass B; the fastest is kept.
const REPLAY_ROUNDS: usize = 2;

/// Where the span files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A `PacketSource` that records when each `next_batch` started and ended.
struct SpanSource {
    inner: SharedTraceReader,
    calls: Vec<(Instant, Instant)>,
}

impl PacketSource for SpanSource {
    fn next_batch(&mut self) -> Option<Batch> {
        let start = Instant::now();
        let batch = self.inner.next_batch();
        self.calls.push((start, Instant::now()));
        batch
    }
}

/// Pass A: one daemon pass with the recording source.
struct TracedPass {
    pass: Pass,
    /// Every `next_batch` call, the one that found the end frame included.
    decodes: Vec<(Instant, Instant)>,
    heap_peak_bytes: u64,
}

impl TracedPass {
    fn decode_ns(&self) -> Vec<f64> {
        self.decodes.iter().map(|(start, end)| (*end - *start).as_nanos() as f64).collect()
    }

    /// Root `service.tick` spans with their `trace.decode` children.
    fn record(&self, recorder: &mut Recorder) {
        let mut decodes = self.decodes.iter().peekable();
        for (bin, (start, end)) in self.pass.ticks().enumerate() {
            let tick = recorder.push("service.tick", start, end, None, bin as u64);
            while let Some((decode_start, decode_end)) = decodes.next_if(|(at, _)| *at < end) {
                recorder.push("trace.decode", *decode_start, *decode_end, Some(tick), bin as u64);
            }
        }
    }
}

fn traced_daemon_pass<E: Engine>(builder: MonitorBuilder, input: &Input) -> Result<TracedPass> {
    let mut source = SpanSource {
        inner: SharedTraceReader::new(input.bytes.clone())?,
        calls: Vec::with_capacity(input.bins + 1),
    };
    alloc::reset_peak();
    let pass = drive_daemon::<E>(builder, input, &mut source)?;
    let heap_peak_bytes = alloc::peak_bytes();
    if let Some(error) = source.inner.error() {
        return Err(format!("decode failed mid-pass: {error}").into());
    }
    Ok(TracedPass { pass, decodes: source.calls, heap_peak_bytes })
}

/// A `RunObserver` that forwards to a `DigestObserver` and keeps the time
/// spent there, so digest cost can be taken out of an engine call that
/// insists on an observer.
#[derive(Default)]
struct TimedDigest {
    digest: DigestObserver,
    ns: u64,
}

impl TimedDigest {
    fn timed(&mut self, event: impl FnOnce(&mut DigestObserver)) {
        let start = Instant::now();
        event(&mut self.digest);
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

impl RunObserver for TimedDigest {
    fn on_batch(&mut self, batch: &Batch) {
        self.timed(|digest| digest.on_batch(batch));
    }
    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.timed(|digest| digest.on_decision(bin_index, decision));
    }
    fn on_bin(&mut self, record: &BinRecord) {
        self.timed(|digest| digest.on_bin(record));
    }
    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.timed(|digest| digest.on_interval(outputs));
    }
}

/// Nanoseconds and counts of the layer replays, summed over bins and lanes.
#[derive(Default)]
struct LayerTotals {
    extract_cold_ns: u64,
    extract_cold_pkts: u64,
    extract_warm_ns: u64,
    extract_warm_pkts: u64,
    reextract_calls: u64,
    predict_ns: u64,
    predict_cycles: u64,
    allocate_ns: u64,
    allocate_calls: u64,
    shed_packet_ns: u64,
    shed_packet_pkts: u64,
    shed_flow_ns: u64,
    shed_flow_pkts: u64,
    exec_ns: u64,
    /// `(ns, delivered packets)` per `QueryKind::ALL` position.
    exec_by_kind: [(u64, u64); QueryKind::ALL.len()],
    rate_sum: f64,
    rate_count: u64,
    delivered_pkts: u64,
}

impl LayerTotals {
    fn replayed_ns(&self) -> u64 {
        self.extract_cold_ns
            + self.extract_warm_ns
            + self.predict_ns
            + self.allocate_ns
            + self.shed_packet_ns
            + self.shed_flow_ns
            + self.exec_ns
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// One registered query's stand-alone stand-ins.
struct QueryReplay {
    kind: usize,
    query: Box<dyn Query>,
    shedding: SheddingMethod,
    min_rate: f64,
    predictor: MlrPredictor,
    sampled_extractor: FeatureExtractor,
    hasher: H3Hasher,
    pool: KeepListPool,
}

/// Stand-alone instances of every layer one monitor (or one fleet lane)
/// calls per bin, driven by that monitor's records.
struct LaneReplay {
    extractor: FeatureExtractor,
    queries: Vec<QueryReplay>,
    rng: StdRng,
    pool: KeepListPool,
    interval_us: u64,
    interval: Option<u64>,
}

impl LaneReplay {
    fn new(specs: &[QuerySpec], interval_us: u64, seed: u64) -> Self {
        let extractor = || {
            FeatureExtractor::new(ExtractorConfig {
                measurement_interval_us: interval_us,
                ..ExtractorConfig::default()
            })
        };
        let queries = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                let query = build_query_from_spec(spec);
                QueryReplay {
                    kind: QueryKind::ALL.iter().position(|kind| *kind == spec.kind).unwrap_or(0),
                    shedding: query.preferred_shedding(),
                    min_rate: spec.min_sampling_rate.unwrap_or(query.min_sampling_rate()),
                    query,
                    predictor: MlrPredictor::new(MlrConfig::default()),
                    sampled_extractor: extractor(),
                    hasher: H3Hasher::new(13, seed ^ (index as u64 + 1)),
                    pool: KeepListPool::new(),
                }
            })
            .collect();
        Self {
            extractor: extractor(),
            queries,
            rng: StdRng::seed_from_u64(seed),
            pool: KeepListPool::new(),
            interval_us,
            interval: None,
        }
    }

    /// Replays one bin layer by layer (layer-major, so each layer is one
    /// contiguous span) on a cold copy of the batch, at the rates `record`
    /// says the monitor used.
    fn bin(
        &mut self,
        batch: &Batch,
        record: &BinRecord,
        totals: &mut LayerTotals,
        recorder: &mut Recorder,
        parent: usize,
    ) {
        let bin = record.bin_index;
        let mut span = |name, start: Instant| {
            recorder.push(name, start, Instant::now(), Some(parent), bin);
        };

        // queries: close the measurement interval where the monitor does.
        let interval = batch.measurement_interval(self.interval_us);
        if self.interval.is_some() && self.interval != Some(interval) {
            let start = Instant::now();
            for replay in &mut self.queries {
                let query_start = Instant::now();
                black_box(replay.query.end_interval());
                totals.exec_by_kind[replay.kind].0 += ns_since(query_start);
            }
            totals.exec_ns += ns_since(start);
            span("queries.end_interval", start);
        }
        self.interval = Some(interval);

        // features: the full batch, hashes not yet cached.
        let view = batch.view();
        let start = Instant::now();
        let (features, _) = self.extractor.extract_view(&view);
        totals.extract_cold_ns += ns_since(start);
        totals.extract_cold_pkts += view.len() as u64;
        span("features.extract_cold", start);

        // predict: one prediction per query.
        let start = Instant::now();
        for replay in &mut self.queries {
            black_box(replay.predictor.predict(&features));
        }
        totals.predict_ns += ns_since(start);
        span("predict.predict", start);

        // fairness: only on the bins where the policy called the allocator.
        if let (Some(_), Some(budget)) = (&record.decision.allocations, record.decision.budget) {
            let demands: Vec<QueryDemand> = record
                .queries
                .iter()
                .zip(&self.queries)
                .map(|(query, replay)| QueryDemand::new(query.predicted_cycles, replay.min_rate))
                .collect();
            let start = Instant::now();
            black_box(mmfs_pkt(&demands, budget));
            totals.allocate_ns += ns_since(start);
            totals.allocate_calls += 1;
            span("fairness.allocate", start);
        }

        // monitor (shedder): sample at the recorded rates.
        let start = Instant::now();
        let mut delivered: Vec<Option<(BatchView, bool)>> = Vec::with_capacity(self.queries.len());
        for (query, replay) in record.queries.iter().zip(&mut self.queries) {
            totals.rate_sum += query.sampling_rate;
            totals.rate_count += 1;
            if query.disabled || query.sampling_rate <= 0.0 {
                delivered.push(None);
                continue;
            }
            let rate = query.sampling_rate;
            let shed = match replay.shedding {
                _ if rate >= 1.0 => (view.clone(), false),
                SheddingMethod::Custom => (view.clone(), false),
                SheddingMethod::PacketSampling => {
                    let shed_start = Instant::now();
                    let (sampled, _) =
                        packet_sample_with(&view, rate, &mut self.rng, &mut self.pool);
                    totals.shed_packet_ns += ns_since(shed_start);
                    totals.shed_packet_pkts += view.len() as u64;
                    (sampled, true)
                }
                SheddingMethod::FlowSampling => {
                    let shed_start = Instant::now();
                    let (sampled, _) =
                        flow_sample_with(&view, rate, &replay.hasher, &mut replay.pool);
                    totals.shed_flow_ns += ns_since(shed_start);
                    totals.shed_flow_pkts += view.len() as u64;
                    (sampled, true)
                }
            };
            totals.delivered_pkts += shed.0.len() as u64;
            delivered.push(Some(shed));
        }
        span("monitor.shed", start);

        // features: re-extraction over each sampled view, hashes cached.
        let start = Instant::now();
        let mut sampled_features: Vec<Option<FeatureVector>> = Vec::with_capacity(delivered.len());
        for (shed, replay) in delivered.iter().zip(&mut self.queries) {
            sampled_features.push(match shed {
                Some((sampled, true)) => {
                    let extract_start = Instant::now();
                    let (extracted, _) = replay.sampled_extractor.extract_view(sampled);
                    totals.extract_warm_ns += ns_since(extract_start);
                    totals.extract_warm_pkts += sampled.len() as u64;
                    totals.reextract_calls += 1;
                    Some(extracted)
                }
                _ => None,
            });
        }
        span("features.extract_warm", start);

        // queries: run every enabled query on its share.
        let start = Instant::now();
        for ((shed, replay), query) in delivered.iter().zip(&mut self.queries).zip(&record.queries)
        {
            if let Some((sampled, _)) = shed {
                let query_start = Instant::now();
                let mut meter = CycleMeter::new();
                replay.query.process_batch(sampled, query.sampling_rate, &mut meter);
                black_box(meter.cycles());
                let slot = &mut totals.exec_by_kind[replay.kind];
                slot.0 += ns_since(query_start);
                slot.1 += sampled.len() as u64;
            }
        }
        totals.exec_ns += ns_since(start);
        span("queries.exec", start);

        // predict: feed back the cycles the monitor measured.
        let start = Instant::now();
        for ((replay, query), sampled) in
            self.queries.iter_mut().zip(&record.queries).zip(&sampled_features)
        {
            if !query.disabled && query.sampling_rate > 0.0 {
                replay
                    .predictor
                    .observe(sampled.as_ref().unwrap_or(&features), query.measured_cycles);
                totals.predict_cycles += 1;
            }
        }
        totals.predict_ns += ns_since(start);
        span("predict.observe", start);
    }
}

/// What pass B measured around the engine itself.
#[derive(Default)]
struct EngineTotals {
    /// Bins before this one are warm-up for the allocation count (history
    /// windows fill, pools grow to size).
    steady_from: u64,
    bins: u64,
    packets: u64,
    /// Engine call time, observer time taken out.
    bin_ns: u64,
    digest_ns: u64,
    drops: u64,
    split_ns: u64,
    lane_skew_sum: f64,
    lane_sum_ns: u64,
    /// Heap acquisitions inside engine calls of the steady-state bins.
    steady_allocs: u64,
    steady_bins: u64,
}

impl EngineTotals {
    /// Totals for a run of `bins` bins, the first quarter of them warm-up.
    fn new(bins: usize) -> Self {
        Self { steady_from: bins as u64 / 4, ..Self::default() }
    }

    /// Folds in one engine call: what it was offered, dropped, took and
    /// allocated.
    fn bin(&mut self, packets: u64, drops: u64, ns: u64, allocations: u64) {
        self.bins += 1;
        self.packets += packets;
        self.drops += drops;
        self.bin_ns += ns;
        if self.bins > self.steady_from {
            self.steady_allocs += allocations;
            self.steady_bins += 1;
        }
    }
}

fn lane_skew(lanes: &[Batch]) -> f64 {
    let total: usize = lanes.iter().map(Batch::len).sum();
    let largest = lanes.iter().map(Batch::len).max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    largest as f64 * lanes.len() as f64 / total as f64
}

struct PassB {
    engine: EngineTotals,
    layers: LayerTotals,
    digest: RunDigest,
}

impl PassB {
    /// Everything the round timed, for choosing the less disturbed round.
    fn total_ns(&self) -> u64 {
        self.engine.bin_ns
            + self.engine.split_ns
            + self.engine.lane_sum_ns
            + self.layers.replayed_ns()
    }
}

/// Pass B over a solo monitor. First the engine alone, `process_batch` per
/// bin with the records kept (so the replays' cache traffic does not land in
/// `monitor.bin`); then the layer replays over a second, cold decode of the
/// same bytes.
fn replay_solo(workload: &Workload, input: &Input, recorder: &mut Recorder) -> Result<PassB> {
    let mut monitor = Monitor::build(workload.builder(input))?;
    let interval_us = monitor.config().measurement_interval_us;
    let (mut engine, mut layers) = (EngineTotals::new(input.bins), LayerTotals::default());
    let mut observer = TimedDigest::default();

    let mut records = Vec::with_capacity(input.bins);
    let mut hot = SharedTraceReader::new(input.bytes.clone())?;
    while let Some(batch) = hot.next_batch() {
        observer.on_batch(&batch);
        let allocations = alloc::acquisitions();
        let start = Instant::now();
        let record = monitor.process_batch(&batch)?;
        let end = Instant::now();
        let allocations = alloc::acquisitions() - allocations;
        recorder.push("monitor.bin", start, end, None, batch.bin_index);
        if let Some(outputs) = &record.interval_outputs {
            observer.on_interval(outputs);
        }
        observer.on_decision(record.bin_index, &record.decision);
        observer.on_bin(&record);

        let ns = (end - start).as_nanos() as u64;
        engine.bin(record.incoming_packets, record.uncontrolled_drops, ns, allocations);
        records.push(record);
    }
    if monitor.interval_open() {
        let outputs = monitor.finish_interval();
        observer.on_interval(&outputs);
    }
    engine.digest_ns = observer.ns;
    drop(monitor);

    let mut replay = LaneReplay::new(&input.specs, interval_us, 1);
    let mut cold = SharedTraceReader::new(input.bytes.clone())?;
    for record in &records {
        let batch = cold.next_batch().ok_or("cold decode ended before the records did")?;
        let root_start = Instant::now();
        let root = recorder.push("bench.replay", root_start, root_start, None, batch.bin_index);

        // The fleet's front-end cost on this traffic, for comparison.
        let split_start = Instant::now();
        let lanes = batch.split_shards(FLEET_LANES);
        engine.split_ns += ns_since(split_start);
        engine.lane_skew_sum += lane_skew(&lanes);
        drop(lanes);

        replay.bin(&batch, record, &mut layers, recorder, root);
        recorder.close(root, Instant::now());
    }
    Ok(PassB { engine, layers, digest: observer.digest.digest() })
}

/// Pass B over the fleet. First the fleet alone, `process_bin` per bin with
/// the coordinator's lane budgets kept; then, over a cold decode: the split,
/// four stand-alone lane monitors on the split batches at those budgets, and
/// the layer replays per lane.
fn replay_fleet(workload: &Workload, input: &Input, recorder: &mut Recorder) -> Result<PassB> {
    let mut fleet = ShardedMonitor::build(workload.builder(input))?;
    let global = fleet.config().clone();
    let lane_count = fleet.lane_count();
    let (mut engine, mut layers) = (EngineTotals::new(input.bins), LayerTotals::default());
    let mut observer = TimedDigest::default();

    let mut budgets: Vec<Vec<f64>> = Vec::with_capacity(input.bins);
    let mut hot = SharedTraceReader::new(input.bytes.clone())?;
    while let Some(batch) = hot.next_batch() {
        let observer_before = observer.ns;
        let allocations = alloc::acquisitions();
        let start = Instant::now();
        let records = fleet.process_bin(&batch, &mut observer)?;
        let end = Instant::now();
        let allocations = alloc::acquisitions() - allocations;
        recorder.push("monitor.bin", start, end, None, batch.bin_index);

        let drops = records.iter().map(|record| record.uncontrolled_drops).sum();
        let ns = (end - start).as_nanos() as u64 - (observer.ns - observer_before);
        engine.bin(batch.len() as u64, drops, ns, allocations);
        budgets.push(fleet.lane_capacities().to_vec());
    }
    if fleet.interval_open() {
        let outputs = fleet.finish_interval();
        observer.on_interval(&outputs);
    }
    engine.digest_ns = observer.ns;
    drop(fleet);

    let mut lanes: Vec<(Monitor, LaneReplay)> = (0..lane_count)
        .map(|lane| {
            // The fleet's own derivation of a lane's configuration: an equal
            // share of capacity and platform overhead, a decorrelated seed.
            let mut config = global
                .clone()
                .with_capacity(global.capacity_cycles_per_bin / lane_count as f64)
                .with_seed(global.seed ^ (lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            config.platform_overhead_cycles = global.platform_overhead_cycles / lane_count as f64;
            let monitor =
                MonitorBuilder::from_config(config).queries(input.specs.clone()).build()?;
            let replay =
                LaneReplay::new(&input.specs, global.measurement_interval_us, lane as u64 + 1);
            Ok((monitor, replay))
        })
        .collect::<Result<_>>()?;
    let mut cold = SharedTraceReader::new(input.bytes.clone())?;
    for bin_budgets in &budgets {
        let batch = cold.next_batch().ok_or("cold decode ended before the budgets did")?;
        let bin = batch.bin_index;
        let root_start = Instant::now();
        let root = recorder.push("bench.replay", root_start, root_start, None, bin);

        let split_start = Instant::now();
        let sub_batches = batch.split_shards(lane_count);
        engine.split_ns += ns_since(split_start);
        recorder.push("trace.split", split_start, Instant::now(), Some(root), bin);
        engine.lane_skew_sum += lane_skew(&sub_batches);

        for (((monitor, replay), sub_batch), budget) in
            lanes.iter_mut().zip(&sub_batches).zip(bin_budgets)
        {
            monitor.set_bin_capacity(*budget);
            let lane_start = Instant::now();
            if sub_batch.is_empty() {
                black_box(monitor.advance_empty_bin(sub_batch));
                engine.lane_sum_ns += ns_since(lane_start);
                continue;
            }
            let record = monitor.process_batch(sub_batch)?;
            engine.lane_sum_ns += ns_since(lane_start);
            recorder.push("monitor.lane", lane_start, Instant::now(), Some(root), bin);
            replay.bin(sub_batch, &record, &mut layers, recorder, root);
        }
        recorder.close(root, Instant::now());
    }
    Ok(PassB { engine, layers, digest: observer.digest.digest() })
}

/// GB/s of `hash_block` over a fixed 1 MiB buffer, best of 64: the
/// calibration kernel to hold every absolute nanosecond figure against when
/// hosts differ.
fn hash_block_gbps() -> f64 {
    const SIZE: usize = 1 << 20;
    let buffer: Vec<u8> = (0..SIZE).map(|i| (i as u8).wrapping_mul(31)).collect();
    let fastest_s = (0..64u64)
        .map(|round| {
            let start = Instant::now();
            black_box(hash_block(black_box(&buffer), round));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    SIZE as f64 / fastest_s / 1e9
}

/// Microseconds per registration: 1000 tenants through the control channel
/// of a daemon on an empty source, all applied at one bin boundary.
fn register_us_per_query() -> Result<f64> {
    const TENANTS: usize = 1000;
    let monitor = Monitor::builder().capacity(1e15).with_workers(1).build()?;
    let (mut daemon, control) = Daemon::new(monitor, BatchReplay::new(Vec::new()));
    let start = Instant::now();
    let pending: Vec<_> = (0..TENANTS)
        .map(|i| {
            let spec = QuerySpec::new(QueryKind::Counter).with_label(format!("tenant-{i:04}"));
            control.register_query(spec)
        })
        .collect();
    daemon.tick()?;
    for reply in pending {
        reply.wait()?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / TENANTS as f64)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

pub fn run(workload: &Workload, options: &Options) -> Result<Outcome> {
    match workload.engine {
        EngineKind::Solo => run_with::<Monitor>(workload, options),
        EngineKind::Fleet => run_with::<ShardedMonitor>(workload, options),
    }
}

fn run_with<E: Engine>(workload: &Workload, options: &Options) -> Result<Outcome> {
    // Before anything it will record: only later instants fit its clock.
    let mut recorder = Recorder::new();
    let (input, _) = set_up::<E>(workload, options)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut metrics = Metrics::per_layer();
    let mut digests: Vec<(&'static str, RunDigest)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Pass A against untraced passes, alternating, for the window — and in
    // the same rotation the passes the comparisons need (two threads; a solo
    // monitor on the fleet's bytes), so that both sides of every ratio meet
    // the same phases of the host.
    let two_threads: Option<(&str, &dyn Fn() -> MonitorBuilder)> = match workload.engine {
        _ if cores < 2 => None,
        EngineKind::Solo => {
            Some(("monitor.scale_2w", &|| workload.builder(&input).with_workers(2)))
        }
        EngineKind::Fleet => {
            Some(("monitor.scale_2t", &|| workload.builder(&input).with_shards(2)))
        }
    };
    let (mut untraced, mut traced) = (Vec::<Pass>::new(), Vec::<TracedPass>::new());
    let (mut two_thread, mut solo) = (Vec::<Pass>::new(), Vec::<Pass>::new());
    let window = Instant::now();
    let min_rounds = if options.smoke { 1 } else { 2 };
    while traced.len() < min_rounds
        || (!options.smoke
            && window.elapsed().as_secs_f64() < options.seconds * ROTATION_WINDOW_SHARE)
    {
        let plain = daemon_pass::<E>(workload.builder(&input), &input)?;
        digests.push(("untraced daemon pass", plain.digest));
        untraced.push(plain);
        let pass = traced_daemon_pass::<E>(workload.builder(&input), &input)?;
        digests.push(("traced daemon pass", pass.pass.digest));
        traced.push(pass);
        attempted += 2 * input.bins as u64;
        if let Some((_, builder)) = two_threads {
            let pass = daemon_pass::<E>(builder(), &input)?;
            digests.push(("two-thread daemon pass", pass.digest));
            two_thread.push(pass);
            attempted += input.bins as u64;
        }
        if workload.engine == EngineKind::Fleet {
            solo.push(daemon_pass::<Monitor>(workload.builder(&input), &input)?);
        }
    }
    // Each bin (and each decode call) at its best over the passes, for the
    // reason the end-to-end metrics take it: the work repeats exactly, the
    // host only adds.
    let untraced_ns = undisturbed_ns(&untraced);
    let tick_ns = undisturbed_ns(traced.iter().map(|traced| &traced.pass));
    let decode_ns: f64 =
        per_bin_best(&traced.iter().map(TracedPass::decode_ns).collect::<Vec<_>>()).iter().sum();
    let heap_peak = traced.iter().map(|pass| pass.heap_peak_bytes).max().unwrap_or(0);
    if let Some(last) = traced.last() {
        last.record(&mut recorder);
    }
    drop(traced);

    // Pass B, twice; the round the host disturbed less is kept whole, spans
    // and all (the replays' sums cannot be taken bin by bin as cheaply as
    // the ticks can).
    let mut pass_b: Option<(PassB, Recorder)> = None;
    for _ in 0..if options.smoke { 1 } else { REPLAY_ROUNDS } {
        let mut spans = recorder.sibling();
        let round = match workload.engine {
            EngineKind::Solo => replay_solo(workload, &input, &mut spans)?,
            EngineKind::Fleet => replay_fleet(workload, &input, &mut spans)?,
        };
        attempted += input.bins as u64;
        digests.push(("engine-level pass", round.digest));
        if pass_b.as_ref().is_none_or(|(kept, _)| round.total_ns() < kept.total_ns()) {
            pass_b = Some((round, spans));
        }
    }
    let (pass_b, spans) = pass_b.ok_or("no replay round was run")?;
    recorder.absorb(spans);
    let reference = pass_b.digest;
    let (engine, layers) = (&pass_b.engine, &pass_b.layers);
    let bins = engine.bins.max(1);

    // Thread scaling (the digest must not move) and the fleet against a
    // solo monitor on the same bytes and queries.
    if let Some((name, _)) = two_threads {
        metrics.set(name, untraced_ns / undisturbed_ns(&two_thread));
    }
    if workload.engine == EngineKind::Fleet {
        metrics.set("monitor.fleet_overhead_ratio", untraced_ns / undisturbed_ns(&solo));
    }

    for (what, digest) in &digests {
        if *digest != reference {
            eprintln!("{}: {what} ended on {digest} != engine-level {reference}", workload.name);
            failed += input.bins as u64;
        }
    }

    // Snapshot probes: checkpoint at the middle bin and restore from those
    // bytes (source fast-forward included), best of 15 pairs or of a second's
    // worth, whichever is more.
    let (min_pairs, window_s) = if options.smoke { (3, 0.0) } else { (15, 1.0) };
    let snapshots = checkpoint_restore::<E>(workload, &input, min_pairs, window_s)?;
    if snapshots.resumed_digest != reference {
        eprintln!("{}: restored run ended on {}", workload.name, snapshots.resumed_digest);
        failed += input.bins as u64;
    }
    let parse_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(Snapshot::from_bytes(&snapshots.snapshot))
                .map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<std::result::Result<_, _>>()?;

    let packets = engine.packets.max(1);
    metrics.set("trace.decode_ns_per_pkt", decode_ns / packets as f64);
    metrics.set("trace.decode_bytes_per_pkt", input.bytes.len() as f64 / packets as f64);
    metrics.set("trace.split_ns_per_pkt", ratio(engine.split_ns, packets));
    metrics.set("trace.lane_skew", engine.lane_skew_sum / bins as f64);
    metrics.set("sketch.hash_block_gbps", hash_block_gbps());
    metrics.set(
        "features.extract_cold_ns_per_pkt",
        ratio(layers.extract_cold_ns, layers.extract_cold_pkts),
    );
    metrics.set(
        "features.extract_warm_ns_per_pkt",
        ratio(layers.extract_warm_ns, layers.extract_warm_pkts),
    );
    metrics.set("features.reextract_calls_per_bin", ratio(layers.reextract_calls, bins));
    metrics.set("predict.cycle_ns_per_query", ratio(layers.predict_ns, layers.predict_cycles));
    metrics.set("predict.share", ratio(layers.predict_ns, engine.bin_ns));
    metrics.set("fairness.allocate_ns_per_bin", ratio(layers.allocate_ns, bins));
    metrics.set("fairness.allocate_calls_per_bin", ratio(layers.allocate_calls, bins));
    metrics.set(
        "monitor.shed_packet_ns_per_pkt",
        ratio(layers.shed_packet_ns, layers.shed_packet_pkts),
    );
    metrics.set("monitor.shed_flow_ns_per_pkt", ratio(layers.shed_flow_ns, layers.shed_flow_pkts));
    metrics.set("monitor.mean_rate", layers.rate_sum / layers.rate_count.max(1) as f64);
    metrics.set("monitor.delivered_pkts_per_bin", ratio(layers.delivered_pkts, bins));
    metrics.set("monitor.drop_fraction", ratio(engine.drops, packets));
    metrics.set("queries.exec_ns_per_bin", ratio(layers.exec_ns, bins));
    for (kind, (ns, pkts)) in QueryKind::ALL.iter().zip(layers.exec_by_kind) {
        metrics.set(&exec_metric(*kind), ratio(ns, pkts));
    }
    metrics.set("monitor.bin_ns", ratio(engine.bin_ns, bins));
    let replayed = layers.replayed_ns()
        + if workload.engine == EngineKind::Fleet { engine.split_ns } else { 0 };
    metrics.set("monitor.unattributed_share", 1.0 - ratio(replayed, engine.bin_ns));
    metrics.set("monitor.digest_ns_per_bin", ratio(engine.digest_ns, bins));
    if workload.engine == EngineKind::Fleet {
        metrics.set("monitor.lane_sum_ns_per_bin", ratio(engine.lane_sum_ns, bins));
        let coordination =
            engine.bin_ns as f64 - engine.split_ns as f64 - engine.lane_sum_ns as f64;
        metrics.set("monitor.coord_ns_per_bin", coordination / bins as f64);
    }
    metrics.set("monitor.alloc_per_bin", ratio(engine.steady_allocs, engine.steady_bins));
    metrics.set("monitor.heap_peak_mb", heap_peak as f64 / 1e6);
    metrics.set("service.tick_ns_per_bin", tick_ns / bins as f64);
    metrics.set(
        "service.tick_overhead_ns_per_bin",
        (tick_ns - decode_ns - engine.bin_ns as f64 - engine.digest_ns as f64) / bins as f64,
    );
    metrics.set("service.checkpoint_ms", best(&snapshots.checkpoint_ms));
    metrics.set("service.restore_ms", best(&snapshots.restore_ms));
    metrics.set("service.snapshot_bytes", snapshots.snapshot.len() as f64);
    metrics.set("service.snapshot_parse_ms", best(&parse_ms));
    metrics.set("service.register_us_per_query", register_us_per_query()?);
    metrics.set("bench.trace_overhead", tick_ns / untraced_ns - 1.0);
    metrics.set("bench.host_cores", cores as f64);

    let out = out_dir();
    std::fs::create_dir_all(&out)?;
    let file = format!("trace-{}.json", workload.name);
    std::fs::write(out.join(&file), recorder.to_json(workload.name).to_compact())?;

    let self_times = recorder.self_time_by_name();
    let detail = Value::object([
        ("bins", Value::from(input.bins as u64)),
        ("packets", Value::from(input.packets)),
        ("digest", Value::from(reference.to_string())),
        ("spans", Value::from(recorder.spans().len() as u64)),
        ("span_file", Value::from(file)),
        (
            "span_self_ns",
            Value::object(self_times.into_iter().map(|(name, ns)| (name, Value::from(ns)))),
        ),
    ]);
    Ok(Outcome { correct: failed == 0 && metrics.all_finite(), attempted, failed, metrics, detail })
}
