//! Pipeline-level benchmark: measures the single-pass data plane and the
//! end-to-end monitor throughput, and records the numbers in
//! `BENCH_pipeline.json` (in the working directory, or `$BENCH_OUT` if set)
//! so the performance trajectory of the repo is tracked PR over PR. Every
//! row times code the monitor runs; the kernels it replaced (ten-pass
//! extraction, clone shedding, the AoS replay) live on as test oracles in
//! `tests/oracle/`, and their last measured rows are in CHANGES.md (PR 17).
//!
//! Eight measurements:
//!
//! 1. **extract**: fused single-pass feature extraction on a 10k-packet
//!    batch — warm (flow index cached on the batch, the steady state for
//!    per-query re-extraction) and cold (packets grouped into flows, flows
//!    hashed and located as part of the call, the first touch of a batch) —
//!    plus sampled views of ~50 / 200 / 1000 packets, where the per-call
//!    fixed cost shows; and the same batch with every 5-tuple made unique
//!    (`all_distinct`, the flow index's worst case: a spoofed-source flood),
//!    where the index build is priced against the bare per-packet slot-row
//!    build it replaced (`index_overhead_all_distinct`).
//! 2. **shedding**: pooled packet/flow sampling of a 10k-packet view, plus a
//!    structural check that the sampled view shares the packet store (zero
//!    per-packet copies).
//! 3. **data plane**: replay→shed→extract over one in-memory `.nstr`
//!    container — borrowed zero-copy decode, pooled shed, fused extractor —
//!    plus the steady-state allocation guard: a warmed shed→extract loop
//!    must perform **zero** heap allocations per bin (`alloc_per_bin`,
//!    counted by this binary's global allocator and asserted to be 0).
//! 4. **pipeline**: packets/second through `Monitor::run` with the paper's
//!    Chapter 4 query mix under 2× overload.
//! 5. **prediction plane**: ns per bin of the MLR predict/observe cycle
//!    (reselecting every bin, and with `reselect_every = 10`), and of its
//!    two halves on the same stream: the FCBF selection over the 60 x 42
//!    history and the least-squares solve over the selected columns.
//! 6. **registry scale**: the service-plane daemon at 10/100/1000 live
//!    tenants — control-channel registration cost per query and the
//!    steady-state per-bin cost, with the marginal nanoseconds each
//!    additional tenant adds per bin.
//! 7. **parallel scaling**: the 2× overload pipeline at 1/2/4 workers, and
//!    the **sharded** row: the same pipeline through the fixed-lane
//!    `ShardedMonitor` fleet at 1/2/4 shard threads. Every figure is a
//!    measured wall-clock throughput and its intra-run ratio to the 1-thread
//!    point of the same invocation; `host_cores` says how many of those
//!    threads the host could actually run at once.
//! 8. **stage breakdown**: where the engines' own lap clocks
//!    (`Engine::stage_stats`) say the bin went, as shares of the bin — the
//!    seven stages of the solo pipeline run (4), and for the 4-lane fleet on
//!    one thread its front end, the sum over its lanes' stages and what the
//!    front end adds on top of them (`front_end_share`), with the fleet's
//!    bin in solo bins (`bin_ns_vs_solo`) — beside the shares of the modelled
//!    cycles the same runs' records carry: the cost model against the clock.
//!
//! Run with `cargo bench -p netshed-bench --bench pipeline`; pass
//! `-- --smoke` for a fast CI run (fewer iterations, same JSON shape).

use netshed_features::{
    FeatureExtractor, FeatureId, FeatureVector, AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY,
    FEATURE_COUNT,
};
use netshed_linalg::{Matrix, OlsWorkspace};
use netshed_monitor::{
    flow_sample_with, packet_sample_with, AllocationPolicy, BinRecord, Engine, Monitor,
    MonitorBuilder, MonitorConfig, NetshedError, RunObserver, Stage, StageStats, Strategy,
};
use netshed_predict::{
    fcbf_select_with, FcbfScratch, FeatureWindow, History, MlrConfig, MlrPredictor, Predictor,
    OLS_RCOND,
};
use netshed_queries::{QueryKind, QuerySpec};
use netshed_service::Daemon;
use netshed_sketch::{BitmapGeometry, H3Hasher};
use netshed_trace::{
    decode_batches_shared, encode_batches, AggregateSlots, Batch, BatchReplay, Bytes, KeepListPool,
    TraceConfig, TraceGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A counting wrapper around the system allocator: every heap acquisition
/// (alloc, zeroed alloc, realloc) bumps one relaxed counter. The data-plane
/// bench reads the counter around its warmed steady-state loop to *prove*
/// the zero-allocation claim rather than assert it from code review.
struct CountingAlloc;

/// Heap acquisitions since process start (frees are not counted — the guard
/// pins acquisitions, and a steady state that frees without allocating is
/// impossible anyway).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers all allocation to `System`; the counter is a relaxed atomic
// touched nowhere else, so no allocator invariant is altered.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean nanoseconds per call of `routine` over `iterations` runs.
fn time_ns<F: FnMut()>(iterations: u64, mut routine: F) -> f64 {
    // One untimed call to warm caches and the allocator.
    routine();
    let start = Instant::now();
    for _ in 0..iterations {
        routine();
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

struct ExtractNumbers {
    typical: ExtractPoint,
    small_views: Vec<SmallViewPoint>,
    /// The same packets, every 5-tuple unique.
    all_distinct: ExtractPoint,
    /// Building the flow index of the all-distinct batch, and hashing and
    /// locating the same tuples one row per packet with no index at all.
    index_build_ns: f64,
    bare_slot_rows_ns: f64,
}

/// Full-batch extraction of one batch: ns per call.
struct ExtractPoint {
    packets: usize,
    distinct_flows: usize,
    fused_warm_ns: f64,
    fused_cold_ns: f64,
}

/// One sampled-view size of the extract bench: ns per call, not per packet —
/// at these sizes the call's fixed cost (fold, reset, estimates) is most of it.
struct SmallViewPoint {
    kept: usize,
    fused_ns: f64,
}

/// Nanoseconds `routine` takes on a fresh copy of `batch` — equal packets,
/// nothing cached on it, its columns just written (as a decoded batch's
/// are) — built outside the timed region.
fn time_fresh_ns(batch: &Batch, mut routine: impl FnMut(&Batch)) -> f64 {
    let copy =
        Batch::new(batch.bin_index, batch.start_ts, batch.duration_us, batch.packets.to_packets());
    let start = Instant::now();
    routine(&copy);
    start.elapsed().as_nanos() as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn extract_point(batch: &Batch, iterations: u64) -> ExtractPoint {
    // Warm: the batch's flow index is cached after the first call, which is
    // exactly the state every per-query re-extraction sees.
    let mut fused = FeatureExtractor::with_defaults();
    let fused_warm_ns = time_ns(iterations, || {
        black_box(fused.extract(batch));
    });

    // Cold: a fresh packet store per call, so the flow index is built inside
    // the measured region.
    let mut cold = FeatureExtractor::with_defaults();
    let mut cold_ns = Vec::new();
    for _ in 0..iterations.min(64) {
        cold_ns.push(time_fresh_ns(batch, |copy| {
            black_box(cold.extract(copy));
        }));
    }

    ExtractPoint {
        packets: batch.len(),
        distinct_flows: batch.packets.flow_index().flows(),
        fused_warm_ns,
        fused_cold_ns: median(cold_ns),
    }
}

fn bench_extract(iterations: u64) -> ExtractNumbers {
    let batch =
        TraceGenerator::new(TraceConfig::default().with_seed(11).with_mean_packets_per_batch(1e4))
            .next_batch();
    let packets = batch.len();
    let typical = extract_point(&batch, iterations);

    // Small views: what a query shed to a few percent re-extracts. Eight
    // views per size, taken in turn, so no call replays the previous one's
    // bit pattern.
    let small_views = [50usize, 200, 1000]
        .into_iter()
        .map(|target| {
            let stride = packets / target;
            let views: Vec<_> = (0..8)
                .map(|offset| batch.view().filter_indexed(|index, _| index % stride == offset))
                .collect();
            let mut turn = 0usize;
            let mut fused = FeatureExtractor::with_defaults();
            let fused_ns = time_ns(iterations * 8, || {
                black_box(fused.extract_view(&views[turn % 8]));
                turn += 1;
            });
            SmallViewPoint { kept: views[0].len(), fused_ns }
        })
        .collect();

    // The worst case: the same packets with a source address of their own
    // each (an odd multiplier permutes `u32`), so no two share a 5-tuple and
    // the index saves nothing — it may only cost its probe.
    let spoofed = batch
        .packets
        .iter()
        .enumerate()
        .map(|(at, p)| {
            let mut packet = p.to_packet();
            packet.tuple.src_ip = (at as u32).wrapping_mul(0x9e37_79b1);
            packet
        })
        .collect();
    let spoofed = Batch::new(batch.bin_index, batch.start_ts, batch.duration_us, spoofed);
    let all_distinct = extract_point(&spoofed, iterations);
    assert_eq!(all_distinct.distinct_flows, packets, "every spoofed 5-tuple must be unique");

    // The two sides take turns on fresh copies and report their medians, so
    // a change of the host's pace mid-measurement lands on both.
    let geometry = BitmapGeometry::for_cardinality(AGGREGATE_MAX_CARDINALITY);
    let (mut bare, mut index): (Vec<f64>, Vec<f64>) = Default::default();
    for _ in 0..iterations.min(64) {
        bare.push(time_fresh_ns(&spoofed, |copy| {
            let rows: Vec<AggregateSlots> = (copy.packets.tuples().iter())
                .map(|tuple| AggregateSlots::compute(tuple, AGGREGATE_HASH_SEED, geometry))
                .collect();
            black_box(rows);
        }));
        index.push(time_fresh_ns(&spoofed, |copy| {
            black_box(copy.packets.flow_index());
        }));
    }
    let (bare_slot_rows_ns, index_build_ns) = (median(bare), median(index));

    ExtractNumbers { typical, small_views, all_distinct, index_build_ns, bare_slot_rows_ns }
}

struct ShedNumbers {
    packet_view_ns: f64,
    flow_view_ns: f64,
    view_shares_store: bool,
}

fn bench_shedding(iterations: u64) -> ShedNumbers {
    // Payload-carrying traffic, as on the paper's full-payload traces: a
    // view records indices only, whatever a packet carries.
    let batch = TraceGenerator::new(
        TraceConfig::default().with_seed(12).with_mean_packets_per_batch(1e4).with_payloads(true),
    )
    .next_batch();
    let view = batch.view();
    let rate = 0.37;

    let mut pool = KeepListPool::new();
    let mut rng = StdRng::seed_from_u64(3);
    let packet_view_ns = time_ns(iterations, || {
        black_box(packet_sample_with(&view, rate, &mut rng, &mut pool));
    });
    let hasher = H3Hasher::new(13, 9);
    let flow_view_ns = time_ns(iterations, || {
        black_box(flow_sample_with(&view, rate, &hasher, &mut pool));
    });

    let (sampled, _) = packet_sample_with(&view, rate, &mut rng, &mut pool);
    let view_shares_store = sampled.shares_store(&view);

    ShedNumbers { packet_view_ns, flow_view_ns, view_shares_store }
}

struct DataPlaneNumbers {
    batches: usize,
    packets: u64,
    soa_packets_per_sec: f64,
    alloc_per_bin: u64,
}

/// One pass over decoded batches: pooled shed, fused extraction. With warm
/// flow indexes and a warmed pool this must not touch the heap at
/// all — `bench_data_plane` counts allocations around such a pass to pin
/// `alloc_per_bin` to zero.
fn shed_extract_pass(
    batches: &[Batch],
    rate: f64,
    extractor: &mut FeatureExtractor,
    pool: &mut KeepListPool,
) -> f64 {
    // Re-seeding per pass makes the warmup pass draw the exact keep lists the
    // measured pass draws, so pooled buffers are warmed to the right sizes.
    let mut rng = StdRng::seed_from_u64(9);
    let mut acc = 0.0;
    for batch in batches {
        let view = batch.view();
        let (sampled, _) = packet_sample_with(&view, rate, &mut rng, pool);
        let (vector, _) = extractor.extract_view(&sampled);
        acc += vector.packets();
    }
    acc
}

/// The replay→shed→extract throughput plus the allocation guard, over one
/// in-memory `.nstr` container recorded from a payload-carrying trace.
fn bench_data_plane(batches: usize, repeats: u32) -> DataPlaneNumbers {
    let rate = 0.5;
    let recorded = TraceGenerator::new(
        TraceConfig::default()
            .with_seed(41)
            .with_mean_packets_per_batch(2000.0)
            .with_payloads(true),
    )
    .batches(batches);
    let packets: u64 = recorded.iter().map(|b| b.len() as u64).sum();
    let encoded = encode_batches(&recorded, recorded[0].duration_us).expect("encode trace");
    let buffer = Bytes::from(encoded);
    drop(recorded);

    // One full cold run per repeat: borrowed zero-copy decode straight into
    // the column store (payloads are windows into `buffer`), then the pass
    // on a fresh extractor and pool.
    let mut soa_s = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        {
            let decoded = decode_batches_shared(&buffer).expect("decode shared trace");
            let (mut extractor, mut pool) =
                (FeatureExtractor::with_defaults(), KeepListPool::new());
            black_box(shed_extract_pass(&decoded, rate, &mut extractor, &mut pool));
        }
        soa_s = soa_s.min(start.elapsed().as_secs_f64());
    }

    // Allocation guard: decode once (borrowed), warm every per-batch hash
    // cache, the extractor and the keep-list pool with a first pass, then
    // count heap acquisitions across a second, identical pass.
    let decoded = decode_batches_shared(&buffer).expect("decode shared trace");
    let mut extractor = FeatureExtractor::with_defaults();
    let mut pool = KeepListPool::new();
    black_box(shed_extract_pass(&decoded, rate, &mut extractor, &mut pool));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    black_box(shed_extract_pass(&decoded, rate, &mut extractor, &mut pool));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "steady-state shed→extract loop allocated {allocations} times over {batches} bins"
    );

    DataPlaneNumbers {
        batches,
        packets,
        soa_packets_per_sec: packets as f64 / soa_s,
        alloc_per_bin: allocations / batches as u64,
    }
}

struct PipelineNumbers {
    batches: usize,
    packets: u64,
    elapsed_s: f64,
    packets_per_sec: f64,
    /// Where the engine's own lap clock says the run's time went.
    stages: StageStats,
    /// What the run's records charged, by the cost model.
    modelled: ModelledCycles,
}

/// The modelled cycles of a run, summed over its records by component.
#[derive(Default)]
struct ModelledCycles {
    prediction: f64,
    shedding: f64,
    query: f64,
    platform: f64,
}

impl RunObserver for ModelledCycles {
    fn on_bin(&mut self, record: &BinRecord) {
        self.prediction += record.prediction_cycles;
        self.shedding += record.shedding_cycles;
        self.query += record.query_cycles;
        self.platform += record.platform_cycles;
    }
}

impl ModelledCycles {
    /// Each component over the run's `total_cycles()`, as JSON members.
    fn shares_json(&self) -> String {
        let total = self.prediction + self.shedding + self.query + self.platform;
        format!(
            "\"prediction\": {:.4}, \"shedding\": {:.4}, \"query\": {:.4}, \"platform\": {:.4}",
            self.prediction / total,
            self.shedding / total,
            self.query / total,
            self.platform / total,
        )
    }
}

/// `stages`' shares of the bin `stats` measured, as JSON members.
fn stage_shares_json(stats: &StageStats, stages: &[Stage]) -> String {
    let members: Vec<String> = stages
        .iter()
        .map(|stage| {
            format!("\"{}\": {:.4}", format!("{stage:?}").to_lowercase(), stats.share(*stage))
        })
        .collect();
    members.join(", ")
}

/// Mean wall nanoseconds of a bin, by the engine's own clock.
fn mean_bin_ns(stats: &StageStats) -> f64 {
    stats.bin_ns() as f64 / stats.bins as f64
}

/// The 4-lane fleet's bin in solo bins, both on one thread and by the
/// engines' own clocks: the median of three adjacent solo/fleet pairs,
/// because this host's speed moves between runs that are minutes apart.
fn fleet_bin_in_solo_bins(batches: usize) -> f64 {
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let solo = bench_pipeline_at(batches, 1);
            let fleet = bench_sharded_pipeline_at(batches, 1);
            mean_bin_ns(&fleet.stages) / mean_bin_ns(&solo.stages)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

/// What a fleet's front end adds on top of its lanes' own stages, as a share
/// of the fleet's bin: coordinate, split, merge, and the part of the lane
/// dispatch no lane's clock saw (idle lanes' interval rolls, the demand
/// hand-off, the dispatch itself). Meaningful on one shard thread, where the
/// lanes run back to back inside the dispatch.
fn front_end_share(stats: &StageStats) -> f64 {
    let lane_sum: u64 = Stage::BIN.iter().map(|stage| stats.ns(*stage)).sum();
    let lanes = stats.ns(Stage::Lanes);
    let added = stats.bin_ns() - lanes + lanes.saturating_sub(lane_sum);
    added as f64 / stats.bin_ns() as f64
}

/// Runs the 2× overload pipeline (Chapter 4 query mix, MmfsPkt) on the
/// engine `build` makes of the shared configuration and reports wall-clock
/// throughput, the engine's own stage clock and the modelled cycles of the
/// records it emitted.
fn bench_engine<E: Engine>(
    batches: usize,
    build: impl FnOnce(MonitorBuilder) -> Result<E, NetshedError>,
) -> PipelineNumbers {
    let recorded = TraceGenerator::new(
        TraceConfig::default().with_seed(21).with_mean_packets_per_batch(2000.0),
    )
    .batches(batches);
    let total_packets: u64 = recorded.iter().map(|b| b.len() as u64).sum();
    let specs: Vec<QuerySpec> =
        QueryKind::CHAPTER4_SET.iter().map(|kind| QuerySpec::new(*kind)).collect();
    let demand = netshed_monitor::reference::measure_total_demand(&specs, &recorded[..batches / 4])
        .expect("valid query specs");

    let builder = Monitor::builder()
        .capacity(demand / 2.0)
        .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .no_noise()
        .queries(specs);
    let mut engine = build(builder).expect("valid configuration");
    let mut source = BatchReplay::new(recorded);
    let mut modelled = ModelledCycles::default();
    let start = Instant::now();
    let summary = engine.run(&mut source, &mut modelled).expect("run");
    let elapsed_s = start.elapsed().as_secs_f64();
    assert_eq!(summary.bins + summary.empty_bins, batches as u64);

    PipelineNumbers {
        batches,
        packets: total_packets,
        elapsed_s,
        packets_per_sec: total_packets as f64 / elapsed_s,
        stages: engine.stage_stats(),
        modelled,
    }
}

/// The solo monitor at the given worker count.
fn bench_pipeline_at(batches: usize, workers: usize) -> PipelineNumbers {
    bench_engine(batches, |builder| builder.with_workers(workers).build())
}

/// The sharded fleet (default virtual-lane count) at the given shard-thread
/// count. The lane layout is fixed, so every shard count replays the
/// identical computation — the row reports pure wall-clock scaling.
fn bench_sharded_pipeline_at(batches: usize, shards: usize) -> PipelineNumbers {
    bench_engine(batches, |builder| builder.with_shards(shards).build_sharded())
}

struct PredictionPlaneNumbers {
    bins: usize,
    ns_per_bin: f64,
    shared_ns_per_bin: f64,
    reselect10_ns_per_bin: f64,
    fcbf_ns_per_bin: f64,
    ols_ns_per_bin: f64,
}

/// Times one predict+observe cycle per bin over a synthetic feature stream:
/// the MLR predictor reselecting every bin (as the paper does), the same
/// predictor aligned with a feature window another tenant has already read
/// that bin (what each further query of an unshed engine pays), and with
/// `reselect_every = 10` to show the FCBF amortisation; then the two halves
/// of a prediction on the same stream, each over its own warm scratch — the
/// FCBF selection over the full history, and the least-squares solve over
/// the columns it selected.
fn bench_prediction_plane(bins: usize) -> PredictionPlaneNumbers {
    fn feature_stream(bins: usize) -> Vec<(FeatureVector, f64)> {
        let mut rng = StdRng::seed_from_u64(77);
        (0..bins)
            .map(|_| {
                let mut features = FeatureVector::zeros();
                features.set(FeatureId::Packets, rng.gen_range(500.0..2500.0));
                features.set(FeatureId::Bytes, rng.gen_range(1e5..1.5e6));
                features.set(FeatureId::from_index(6), rng.gen_range(50.0..400.0));
                features.set(FeatureId::from_index(11), rng.gen_range(10.0..900.0));
                let cycles = 1800.0 * features.packets() + 0.4 * features.bytes() + 3e5;
                (features, cycles)
            })
            .collect()
    }
    let stream = feature_stream(bins);

    // Best of three repeats per variant: one predict+observe cycle is a few
    // microseconds, so a single pass is at the mercy of scheduler noise.
    let best_ns_per_bin = |mut predictor: MlrPredictor| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for (features, cycles) in &stream {
                black_box(predictor.predict(features));
                predictor.observe(features, *cycles);
            }
            best = best.min(start.elapsed().as_nanos() as f64 / bins as f64);
        }
        best
    };
    let ns_per_bin = best_ns_per_bin(MlrPredictor::new(MlrConfig::default()));

    // Two tenants of one engine with the same cost: the first pays for the
    // window's moments each bin, the second — the one timed — reads them.
    let mut shared_ns_per_bin = f64::INFINITY;
    for _ in 0..3 {
        let mut window = FeatureWindow::new();
        let mut first = MlrPredictor::new(MlrConfig::default());
        let mut second = MlrPredictor::new(MlrConfig::default());
        let mut shared_ns = 0u128;
        for (features, cycles) in &stream {
            black_box(first.predict_shared(&window, features));
            let start = Instant::now();
            black_box(second.predict_shared(&window, features));
            shared_ns += start.elapsed().as_nanos();
            window.push(features);
            first.observe_shared(&window, *cycles, false);
            let start = Instant::now();
            second.observe_shared(&window, *cycles, false);
            shared_ns += start.elapsed().as_nanos();
        }
        assert!(second.history().aligned_with(&window));
        shared_ns_per_bin = shared_ns_per_bin.min(shared_ns as f64 / bins as f64);
    }
    let reselect10_ns_per_bin = best_ns_per_bin(MlrPredictor::new(MlrConfig {
        reselect_every: 10,
        ..MlrConfig::default()
    }));

    // The halves: per bin, select over the window, then solve over the
    // selected columns, each under its own clock.
    let config = MlrConfig::default();
    let mut history = History::new(config.history);
    let mut scratch = FcbfScratch::default();
    let mut workspace = OlsWorkspace::default();
    let mut design = Matrix::default();
    let mut responses = Vec::new();
    let (mut best_fcbf, mut best_ols) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (mut fcbf_ns, mut ols_ns) = (0u128, 0u128);
        for (features, cycles) in &stream {
            if history.len() >= 3 {
                let start = Instant::now();
                let selected =
                    fcbf_select_with(&history, &config.fcbf, FEATURE_COUNT, &mut scratch);
                fcbf_ns += start.elapsed().as_nanos();

                design.reshape_zeroed(history.len(), selected.len() + 1);
                design.column_mut(0).fill(1.0);
                for (j, &feature) in selected.iter().enumerate() {
                    history.fill_feature_column(feature, design.column_mut(j + 1));
                }
                history.fill_responses(&mut responses);
                let start = Instant::now();
                black_box(workspace.solve(&design, &responses, OLS_RCOND));
                ols_ns += start.elapsed().as_nanos();
            }
            history.push(*features, *cycles);
        }
        best_fcbf = best_fcbf.min(fcbf_ns as f64 / bins as f64);
        best_ols = best_ols.min(ols_ns as f64 / bins as f64);
    }

    PredictionPlaneNumbers {
        bins,
        ns_per_bin,
        shared_ns_per_bin,
        reselect10_ns_per_bin,
        fcbf_ns_per_bin: best_fcbf,
        ols_ns_per_bin: best_ols,
    }
}

/// One thread count of a scaling row: worker threads of a solo monitor, or
/// shard threads of the fleet.
struct ScalingPoint {
    threads: usize,
    packets_per_sec: f64,
    /// Throughput relative to the row's 1-thread point, same invocation.
    measured_speedup: f64,
}

struct ScalingNumbers {
    batches: usize,
    host_cores: usize,
    parallel_fraction: f64,
    points: Vec<ScalingPoint>,
    shard_lanes: usize,
    sharded_points: Vec<ScalingPoint>,
    /// The fleet's 1-shard-thread run, for the stage breakdown.
    sharded_baseline: PipelineNumbers,
}

/// Measures `run_at` at 1, 2 and 4 threads and relates each throughput to
/// the 1-thread point, which it also returns.
fn scaling_row(run_at: impl Fn(usize) -> PipelineNumbers) -> (Vec<ScalingPoint>, PipelineNumbers) {
    let baseline = run_at(1);
    let point = |threads: usize, packets_per_sec: f64| ScalingPoint {
        threads,
        packets_per_sec,
        measured_speedup: packets_per_sec / baseline.packets_per_sec,
    };
    let points = vec![
        point(1, baseline.packets_per_sec),
        point(2, run_at(2).packets_per_sec),
        point(4, run_at(4).packets_per_sec),
    ];
    (points, baseline)
}

/// The 2× overload pipeline at 1/2/4 workers, then through the fixed-lane
/// fleet at 1/2/4 shard threads. Both rows are intra-run: every endpoint is
/// measured in this invocation on the identical trace (and lane layout). A
/// ratio at more threads than `host_cores` measures dispatch overhead, not
/// scaling — the row reports it as measured either way.
fn bench_parallel_scaling(batches: usize) -> ScalingNumbers {
    let (points, baseline) = scaling_row(|workers| bench_pipeline_at(batches, workers));
    let (sharded_points, sharded_baseline) =
        scaling_row(|shards| bench_sharded_pipeline_at(batches, shards));
    ScalingNumbers {
        batches,
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        parallel_fraction: baseline.stages.parallel_fraction(),
        points,
        shard_lanes: netshed_monitor::DEFAULT_SHARD_LANES,
        sharded_points,
        sharded_baseline,
    }
}

struct RegistryScalePoint {
    queries: usize,
    register_ns_per_query: f64,
    ns_per_bin: f64,
}

struct RegistryScaleNumbers {
    bins: usize,
    points: Vec<RegistryScalePoint>,
    marginal_ns_per_query_per_bin: f64,
}

/// Costs the multi-tenant live registry at 10/100/1000 concurrent queries:
/// registration through the daemon's control channel (all applied at one
/// bin boundary), and the steady-state per-bin processing cost as the
/// tenant count scales. The marginal row — extra nanoseconds per bin each
/// additional tenant costs, from the 10→1000 spread — is the number a
/// capacity planner multiplies.
fn bench_registry_scale(bins: usize) -> RegistryScaleNumbers {
    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(51).with_mean_packets_per_batch(500.0),
    )
    .batches(bins);
    let tenant_specs = |queries: usize| -> Vec<QuerySpec> {
        (0..queries)
            .map(|i| QuerySpec::new(QueryKind::Counter).with_label(format!("tenant-{i:04}")))
            .collect()
    };
    // Ample capacity: the registry cost is what is being measured, not the
    // shedding response to the demand 1000 tenants would otherwise pile up.
    let config = || MonitorConfig::default().with_capacity(1e15).with_seed(7);

    let mut points = Vec::new();
    for queries in [10usize, 100, 1000] {
        // Registration: N control-channel round trips, all applied in
        // arrival order at the first bin boundary of an empty source.
        let (mut daemon, control) =
            Daemon::new(Monitor::new(config()), BatchReplay::new(Vec::new()));
        let start = Instant::now();
        let pending: Vec<_> =
            tenant_specs(queries).into_iter().map(|s| control.register_query(s)).collect();
        daemon.tick().expect("registration tick");
        for p in pending {
            p.wait().expect("registered");
        }
        let register_ns_per_query = start.elapsed().as_nanos() as f64 / queries as f64;
        assert_eq!(daemon.monitor().query_handles().len(), queries);

        // Steady state: the full tick loop over the recorded bins with N
        // live tenants.
        let (mut daemon, control) =
            Daemon::new(Monitor::new(config()), BatchReplay::new(batches.clone()));
        let pending: Vec<_> =
            tenant_specs(queries).into_iter().map(|s| control.register_query(s)).collect();
        let start = Instant::now();
        daemon.run_to_exhaustion().expect("run");
        let ns_per_bin = start.elapsed().as_nanos() as f64 / bins as f64;
        for p in pending {
            p.wait().expect("registered");
        }
        drop(control);
        points.push(RegistryScalePoint { queries, register_ns_per_query, ns_per_bin });
    }
    let (low, high) = (&points[0], &points[points.len() - 1]);
    let marginal_ns_per_query_per_bin =
        (high.ns_per_bin - low.ns_per_bin).max(0.0) / (high.queries - low.queries) as f64;
    RegistryScaleNumbers { bins, points, marginal_ns_per_query_per_bin }
}

fn main() {
    let smoke = criterion::smoke_mode();
    let (iterations, pipeline_batches) = if smoke { (10, 100) } else { (200, 600) };

    eprintln!("extract: fused extraction on a 10k-packet batch ...");
    let extract = bench_extract(iterations);
    for (name, point) in [("typical", &extract.typical), ("all distinct", &extract.all_distinct)] {
        eprintln!(
            "  {name}: {} flows in {} packets | warm {:.0} ns | cold {:.0} ns",
            point.distinct_flows, point.packets, point.fused_warm_ns, point.fused_cold_ns
        );
    }
    for point in &extract.small_views {
        eprintln!("  view of {:>4}: {:.0} ns/call", point.kept, point.fused_ns);
    }
    let index_overhead_all_distinct = extract.index_build_ns / extract.bare_slot_rows_ns;
    eprintln!(
        "  all distinct: index build {:.0} ns | bare slot rows {:.0} ns | overhead {:.3}x",
        extract.index_build_ns, extract.bare_slot_rows_ns, index_overhead_all_distinct
    );

    eprintln!("shedding: pooled sampling at rate 0.37 on a 10k-packet batch ...");
    let shed = bench_shedding(iterations);
    eprintln!(
        "  packet view {:.0} ns | flow view {:.0} ns | zero-copy: {}",
        shed.packet_view_ns, shed.flow_view_ns, shed.view_shares_store,
    );

    eprintln!("data plane: replay->shed->extract over one .nstr container ...");
    let data_plane = bench_data_plane(pipeline_batches.min(200), if smoke { 2 } else { 3 });
    eprintln!(
        "  {:.0} packets/s | alloc/bin {}",
        data_plane.soa_packets_per_sec, data_plane.alloc_per_bin,
    );

    eprintln!("pipeline: Monitor::run over {pipeline_batches} batches under 2x overload ...");
    let pipeline = bench_pipeline_at(pipeline_batches, 1);
    eprintln!(
        "  {} packets in {:.2} s = {:.0} packets/s",
        pipeline.packets, pipeline.elapsed_s, pipeline.packets_per_sec
    );

    eprintln!("prediction plane: MLR predict+observe, and its FCBF / OLS halves ...");
    let prediction = bench_prediction_plane(if smoke { 200 } else { 600 });
    eprintln!(
        "  {:.0} ns/bin | shared window {:.0} ns/bin | reselect10 {:.0} ns/bin | fcbf {:.0} ns/bin \
         | ols {:.0} ns/bin",
        prediction.ns_per_bin,
        prediction.shared_ns_per_bin,
        prediction.reselect10_ns_per_bin,
        prediction.fcbf_ns_per_bin,
        prediction.ols_ns_per_bin,
    );

    eprintln!("registry scale: daemon control channel at 10/100/1000 tenants ...");
    let registry = bench_registry_scale(if smoke { 12 } else { 40 });
    for point in &registry.points {
        eprintln!(
            "  {:>4} tenants: register {:.0} ns/query | steady state {:.0} ns/bin",
            point.queries, point.register_ns_per_query, point.ns_per_bin
        );
    }
    eprintln!("  marginal cost per tenant: {:.0} ns/bin", registry.marginal_ns_per_query_per_bin);

    eprintln!("parallel scaling: 2x overload pipeline at 1/2/4 workers ...");
    let scaling = bench_parallel_scaling(pipeline_batches);
    for point in &scaling.points {
        eprintln!(
            "  {} worker(s): {:.0} packets/s | measured {:.2}x",
            point.threads, point.packets_per_sec, point.measured_speedup
        );
    }
    eprintln!(
        "  host cores: {} | parallel fraction {:.2}",
        scaling.host_cores, scaling.parallel_fraction
    );
    eprintln!(
        "sharded scaling: same pipeline through the {}-lane fleet at 1/2/4 shard threads ...",
        scaling.shard_lanes
    );
    for point in &scaling.sharded_points {
        eprintln!(
            "  {} shard(s): {:.0} packets/s | measured {:.2}x",
            point.threads, point.packets_per_sec, point.measured_speedup
        );
    }

    let fleet = &scaling.sharded_baseline;
    eprintln!("stage breakdown: the engines' own lap clocks, as shares of the bin ...");
    let bin_ns_vs_solo = fleet_bin_in_solo_bins(pipeline_batches);
    eprintln!("  solo  {}", stage_shares_json(&pipeline.stages, &Stage::BIN));
    eprintln!("  fleet {}", stage_shares_json(&fleet.stages, &Stage::FLEET));
    eprintln!(
        "  fleet lane sum {} | front end adds {:.3} | fleet bin = {:.2} solo bins",
        stage_shares_json(&fleet.stages, &Stage::BIN),
        front_end_share(&fleet.stages),
        bin_ns_vs_solo,
    );

    let small_views_json: String = extract
        .small_views
        .iter()
        .map(|point| {
            format!(
                "      {{ \"kept\": {}, \"fused_ns_per_call\": {:.0} }}",
                point.kept, point.fused_ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let registry_points_json: String = registry
        .points
        .iter()
        .map(|point| {
            format!(
                "      {{ \"queries\": {}, \"register_ns_per_query\": {:.0}, \
                 \"ns_per_bin\": {:.0} }}",
                point.queries, point.register_ns_per_query, point.ns_per_bin
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let scaling_row_json = |points: &[ScalingPoint], key: &str, indent: &str| -> String {
        points
            .iter()
            .map(|point| {
                format!(
                    "{indent}{{ \"{key}\": {}, \"packets_per_sec\": {:.0}, \"measured_speedup\": {:.3} }}",
                    point.threads, point.packets_per_sec, point.measured_speedup
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let scaling_points_json = scaling_row_json(&scaling.points, "workers", "      ");
    let sharded_points_json = scaling_row_json(&scaling.sharded_points, "shards", "        ");
    let speedup_at_4 = |points: &[ScalingPoint]| points.last().map_or(1.0, |p| p.measured_speedup);
    let json = format!(
        "{{\n  \"generated_by\": \"cargo bench -p netshed-bench --bench pipeline{}\",\n  \
         \"smoke\": {},\n  \
         \"extract_10k_batch\": {{\n    \"packets\": {},\n    \"distinct_flows\": {},\n    \
         \"fused_warm_ns\": {:.1},\n    \"fused_cold_ns\": {:.1},\n    \
         \"small_views\": [\n{}\n    ],\n    \
         \"all_distinct\": {{\n      \"packets\": {},\n      \"distinct_flows\": {},\n      \
         \"fused_warm_ns\": {:.1},\n      \"fused_cold_ns\": {:.1},\n      \
         \"index_build_ns\": {:.1},\n      \"bare_slot_rows_ns\": {:.1},\n      \
         \"index_overhead_all_distinct\": {:.3}\n    }},\n    \
         \"cold_ratio_typical_vs_all_distinct\": {:.3}\n  }},\n  \
         \"shedding_10k_batch_rate_0_37\": {{\n    \"packet_view_ns\": {:.1},\n    \
         \"flow_view_ns\": {:.1},\n    \"view_shares_store\": {},\n    \
         \"per_packet_copies\": 0\n  }},\n  \
         \"pipeline_2x_overload\": {{\n    \"batches\": {},\n    \"packets\": {},\n    \
         \"elapsed_s\": {:.3},\n    \"packets_per_sec\": {:.0},\n    \
         \"data_plane_batches\": {},\n    \"data_plane_packets\": {},\n    \
         \"soa_replay_packets_per_sec\": {:.0},\n    \
         \"alloc_per_bin\": {}\n  }},\n  \
         \"prediction_plane\": {{\n    \"bins\": {},\n    \
         \"ns_per_bin\": {:.0},\n    \"shared_ns_per_bin\": {:.0},\n    \
         \"reselect10_ns_per_bin\": {:.0},\n    \
         \"fcbf_ns_per_bin\": {:.0},\n    \"ols_ns_per_bin\": {:.0}\n  }},\n  \
         \"registry_scale\": {{\n    \"bins\": {},\n    \"tenants\": [\n{}\n    ],\n    \
         \"marginal_ns_per_query_per_bin\": {:.0}\n  }},\n  \
         \"parallel_scaling\": {{\n    \"batches\": {},\n    \"host_cores\": {},\n    \
         \"parallel_fraction\": {:.3},\n    \"workers\": [\n{}\n    ],\n    \
         \"speedup_4w\": {:.3},\n    \
         \"sharded\": {{\n      \"shard_lanes\": {},\n      \"shards\": [\n{}\n      ],\n      \
         \"sharded_speedup_4s\": {:.3}\n    }}\n  }},\n  \
         \"stage_breakdown\": {{\n    \
         \"solo\": {{\n      \"bins\": {},\n      \
         \"measured_share\": {{ {} }},\n      \
         \"modelled_cycle_share\": {{ {} }}\n    }},\n    \
         \"fleet_1_thread\": {{\n      \"bins\": {},\n      \"shard_lanes\": {},\n      \
         \"front_end_measured_share\": {{ {} }},\n      \
         \"lane_sum_measured_share\": {{ {} }},\n      \
         \"front_end_share\": {:.4},\n      \"bin_ns_vs_solo\": {:.3},\n      \
         \"modelled_cycle_share\": {{ {} }}\n    }}\n  }}\n}}\n",
        if smoke { " -- --smoke" } else { "" },
        smoke,
        extract.typical.packets,
        extract.typical.distinct_flows,
        extract.typical.fused_warm_ns,
        extract.typical.fused_cold_ns,
        small_views_json,
        extract.all_distinct.packets,
        extract.all_distinct.distinct_flows,
        extract.all_distinct.fused_warm_ns,
        extract.all_distinct.fused_cold_ns,
        extract.index_build_ns,
        extract.bare_slot_rows_ns,
        index_overhead_all_distinct,
        extract.typical.fused_cold_ns / extract.all_distinct.fused_cold_ns,
        shed.packet_view_ns,
        shed.flow_view_ns,
        shed.view_shares_store,
        pipeline.batches,
        pipeline.packets,
        pipeline.elapsed_s,
        pipeline.packets_per_sec,
        data_plane.batches,
        data_plane.packets,
        data_plane.soa_packets_per_sec,
        data_plane.alloc_per_bin,
        prediction.bins,
        prediction.ns_per_bin,
        prediction.shared_ns_per_bin,
        prediction.reselect10_ns_per_bin,
        prediction.fcbf_ns_per_bin,
        prediction.ols_ns_per_bin,
        registry.bins,
        registry_points_json,
        registry.marginal_ns_per_query_per_bin,
        scaling.batches,
        scaling.host_cores,
        scaling.parallel_fraction,
        scaling_points_json,
        speedup_at_4(&scaling.points),
        scaling.shard_lanes,
        sharded_points_json,
        speedup_at_4(&scaling.sharded_points),
        pipeline.stages.bins,
        stage_shares_json(&pipeline.stages, &Stage::BIN),
        pipeline.modelled.shares_json(),
        fleet.stages.bins,
        scaling.shard_lanes,
        stage_shares_json(&fleet.stages, &Stage::FLEET),
        stage_shares_json(&fleet.stages, &Stage::BIN),
        front_end_share(&fleet.stages),
        bin_ns_vs_solo,
        fleet.modelled.shares_json(),
    );
    // Cargo runs bench binaries with the package directory as CWD; default
    // to the workspace root so the JSON lands in one predictable place.
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    std::fs::write(&out, &json).expect("write benchmark JSON");
    println!("{json}");
    eprintln!("wrote {out}");
}
