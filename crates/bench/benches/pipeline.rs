//! Pipeline-level benchmark: measures the single-pass data plane and the
//! end-to-end monitor throughput, and records the numbers in
//! `BENCH_pipeline.json` (in the working directory, or `$BENCH_OUT` if set)
//! so the performance trajectory of the repo is tracked PR over PR. Every
//! row times code the monitor runs; the kernels it replaced (ten-pass
//! extraction, clone shedding, the AoS replay) live on as test oracles in
//! `tests/oracle/`, and their last measured rows are in CHANGES.md (PR 17).
//!
//! Nine measurements:
//!
//! 1. **extract**: fused single-pass feature extraction on a 10k-packet
//!    batch — warm (flow index cached on the batch, the steady state for
//!    per-query re-extraction) and cold (packets grouped into flows, flows
//!    hashed and located as part of the call, the first touch of a batch) —
//!    plus sampled views of ~50 / 200 / 1000 packets, where the per-call
//!    fixed cost shows, on one warm extractor and on eight taking turns on
//!    one shared scratch as a monitor's worker runs them; and the same batch with every 5-tuple made unique
//!    (`all_distinct`, the flow index's worst case: a spoofed-source flood),
//!    where the index build is priced against the bare per-packet slot-row
//!    build it replaced (`index_overhead_all_distinct`).
//! 2. **shedding**: pooled packet/flow sampling of a 10k-packet view and
//!    their intra-run ratio (`packet_vs_flow_view`: one draw and one integer
//!    compare per packet against one H3 verdict per flow), plus a structural
//!    check that the sampled view shares the packet store (zero per-packet
//!    copies).
//! 3. **data plane**: replay→shed→extract over one in-memory `.nstr`
//!    container — borrowed zero-copy decode, pooled shed, fused extractor —
//!    plus the steady-state allocation guard: a warmed shed→extract loop
//!    must perform **zero** heap allocations per bin (`alloc_per_bin`,
//!    counted by this binary's global allocator and asserted to be 0).
//! 4. **pipeline**: packets/second through `Monitor::run` with the paper's
//!    Chapter 4 query mix under 2× overload, and on an untimed run of the
//!    same shape the share of its computed predictions that regressed on a
//!    history aligned with the engine's feature window
//!    (`aligned_prediction_share`: the ones that read its shared moments and
//!    factorisations) and the share of its queries' predictions a follower
//!    copied from its head (`followed_prediction_share`); and the
//!    re-extraction walks a bin makes under `mmfs_pkt` and under `eq_srates`
//!    (`reextraction_walks_per_bin_*`: the packet-sampled queries' samples
//!    nest, so one walk re-extracts them all; each flow sample is one more).
//! 5. **prediction plane**: ns per bin of the MLR predict/observe cycle
//!    (reselecting every bin, as the paper does), the same cycle for a
//!    predictor aligned with a warm shared feature window and its ratio to
//!    the private one (`shared_vs_private`: the window's moments and
//!    factorisation made by another tenant, whose responses differ, so the
//!    prediction is the predictor's own), and the cycle's two halves on the
//!    same stream: the FCBF selection over the 60 x 42 history and the
//!    least-squares solve over the selected columns.
//! 6. **registry scale**: the service-plane daemon at 10/100/1000 live
//!    tenants — control-channel registration cost per query and the
//!    steady-state per-bin cost, with the marginal nanoseconds each
//!    additional tenant adds per bin — of identical tenants with the default
//!    measurement noise on. Registered together, they form one cohort: one
//!    run, one noise draw and one prediction a bin, so the marginal prices a
//!    cohort member (its copied prediction and measurement, its record),
//!    not a run of its query; and what the run digest adds a bin per
//!    member (`digest_marginal_ns_per_query_per_bin`: a `DigestObserver`
//!    replaying the 10- and 1000-tenant runs' records, best of nine).
//! 7. **parallel scaling**: the 2× overload pipeline at 1/2/4 workers, and
//!    the **sharded** row: the same pipeline through the fixed-lane
//!    `ShardedMonitor` fleet at 1/2/4 workers. Every figure is a
//!    measured wall-clock throughput and its intra-run ratio to the 1-thread
//!    point of the same invocation; `host_cores` says how many of those
//!    threads the host could actually run at once.
//! 8. **stage breakdown**: where the engines' own lap clocks
//!    (`Engine::stage_stats`) say the bin went, as shares of the bin — the
//!    seven stages of the solo pipeline run (4), and the same seven for the
//!    4-lane fleet on one thread, with the fleet's bin in solo bins
//!    (`bin_ns_vs_solo`) — beside the shares of the modelled cycles the same
//!    runs' records carry: the cost model against the clock; and the seven
//!    shares of the repo benchmark's unshed 200-tenant shape (`tenants_200`),
//!    where per-query fixed costs make the bin, with how many of its 200
//!    predictions a bin computed (`full_predictions_per_bin`; the tenants of
//!    a kind follow one predictor), how many sets of query instances a bin
//!    ran (`query_runs_per_bin`; the tenants of a kind form one cohort), how
//!    many tasks a bin dispatched (`tasks_per_bin`; only owners are
//!    dispatched, so one predict and one execute task per cohort) and
//!    the run digest's nanoseconds over the bins' from the same run
//!    (`digest_vs_bin`; the digest runs between bins, outside the stages),
//!    the mean bin that closed a measurement interval over the mean other
//!    bin, each timed from its first observer call to its last, digest
//!    included (`interval_bin_vs_bin`: the bins whose queries report)
//!    and the length of its checkpoint after the run (`snapshot_bytes`;
//!    a follower writes its head's position, not its head's state);
//!    the same shape with the default measurement noise
//!    (`tenants_200_noisy`, where a cohort draws one noise sample a run, so
//!    it shares as much as without noise, with its bin over the noise-off
//!    one, `bin_vs_noise_off`);
//!    the same shape at 1 000 members (`tenants_1000`, where what a member
//!    costs beyond its cohort's run shows five times over);
//!    and, for the solo and the 200-tenant shapes, the `.nstr` decode's
//!    nanoseconds over the bins' (`decode_vs_bin`: a run replaying its own
//!    batches' encoding through a timed `SharedTraceReader`, the way the
//!    daemon reads a trace before each bin, outside the stage clock).
//! 9. **unit-rate kernels**: `counter`, `high-watermark`, `application` and
//!    `top-k` on 500-packet full views at rate 1.0, where they add one exact
//!    total per batch or per flow, against the same packets as all-kept
//!    views, where they add per packet (`unit_rate_vs_per_packet`).
//!
//! Run with `cargo bench -p netshed-bench --bench pipeline`; pass
//! `-- --smoke` for a fast CI run (fewer iterations, same JSON shape).

use netshed_bench::report::{num, Cell, Report, Table};
use netshed_features::{
    ExtractScratch, FeatureExtractor, FeatureId, FeatureVector, AGGREGATE_HASH_SEED,
    AGGREGATE_MAX_CARDINALITY, FEATURE_COUNT,
};
use netshed_linalg::{Matrix, OlsWorkspace};
use netshed_monitor::{
    flow_sample_with, packet_sample_with, AllocationPolicy, BinRecord, ControlDecision,
    DigestObserver, Engine, Monitor, MonitorBuilder, MonitorConfig, NetshedError, RunObserver,
    Stage, StageStats, Strategy,
};
use netshed_predict::{
    fcbf_select_with, FcbfScratch, FeatureWindow, History, MlrConfig, MlrPredictor, Predictor,
    OLS_RCOND,
};
use netshed_queries::{build_query, CycleMeter, QueryKind, QueryOutput, QuerySpec};
use netshed_service::{Daemon, DEFAULT_BINS_PER_TICK};
use netshed_sketch::{BitmapGeometry, H3Hasher, StateError, StateReader, StateWriter};
use netshed_trace::{
    decode_batches_shared, encode_batches, AggregateSlots, Batch, BatchReplay, BatchView, Bytes,
    KeepListPool, PacketSource, SharedTraceReader, TraceConfig, TraceGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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

/// Full-batch extraction of one batch: ns per call.
struct ExtractPoint {
    packets: usize,
    distinct_flows: usize,
    fused_warm_ns: f64,
    fused_cold_ns: f64,
}

impl ExtractPoint {
    fn report(&self) -> Report {
        Report::new()
            .cell("packets", self.packets)
            .cell("distinct_flows", self.distinct_flows)
            .cell("fused_warm_ns", num(self.fused_warm_ns, 1))
            .cell("fused_cold_ns", num(self.fused_cold_ns, 1))
    }
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

fn bench_extract(iterations: u64) -> Report {
    let batch =
        TraceGenerator::new(TraceConfig::default().with_seed(11).with_mean_packets_per_batch(1e4))
            .next_batch();
    let packets = batch.len();
    let typical = extract_point(&batch, iterations);

    // Small views: what a query shed to a few percent re-extracts. Eight
    // views per size, taken in turn, so no call replays the previous one's
    // bit pattern. Ns per call, not per packet — at these sizes the call's
    // fixed cost (fold, reset, estimates) is most of it. Once on one warm
    // extractor with a scratch of its own, and once the way a monitor's
    // worker runs them: eight extractors (one per view) taking turns on one
    // shared scratch, each folding into interval bitmaps the seven calls in
    // between have pushed out of the nearest cache.
    let mut small_views = Table::new(&["kept", "fused_ns_per_call", "shared_scratch_ns_per_call"]);
    for target in [50usize, 200, 1000] {
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
        let mut scratch = ExtractScratch::default();
        let mut extractors: Vec<_> = (0..8).map(|_| FeatureExtractor::with_defaults()).collect();
        let shared_ns = time_ns(iterations * 8, || {
            let extractor = &mut extractors[turn % 8];
            black_box(extractor.extract_view_with(&views[turn % 8], &mut scratch));
            turn += 1;
        });
        small_views.row([views[0].len().into(), num(fused_ns, 0), num(shared_ns, 0)]);
    }

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

    let worst_case = all_distinct
        .report()
        .cell("index_build_ns", num(index_build_ns, 1))
        .cell("bare_slot_rows_ns", num(bare_slot_rows_ns, 1))
        .cell("index_overhead_all_distinct", num(index_build_ns / bare_slot_rows_ns, 3));
    let cold_ratio = typical.fused_cold_ns / all_distinct.fused_cold_ns;
    typical
        .report()
        .table("small_views", small_views)
        .report("all_distinct", worst_case)
        .cell("cold_ratio_typical_vs_all_distinct", num(cold_ratio, 3))
}

fn bench_shedding(iterations: u64) -> Report {
    // Payload-carrying traffic, as on the paper's full-payload traces: a
    // view records indices only, whatever a packet carries.
    // Eight batches taken in turn, so no call replays the flow pattern of the
    // one before it; their flow indexes are built up front, as the full-batch
    // extraction has built a bin's by the time the monitor sheds it.
    let views: Vec<_> = TraceGenerator::new(
        TraceConfig::default().with_seed(12).with_mean_packets_per_batch(1e4).with_payloads(true),
    )
    .batches(8)
    .iter()
    .map(|batch| {
        batch.packets.flow_index();
        batch.view()
    })
    .collect();
    let rate = 0.37;

    let mut pool = KeepListPool::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mut turn = 0usize;
    let packet_view_ns = time_ns(iterations, || {
        black_box(packet_sample_with(&views[turn % 8], rate, &mut rng, &mut pool));
        turn += 1;
    });
    let hasher = H3Hasher::new(13, 9);
    let flow_view_ns = time_ns(iterations, || {
        black_box(flow_sample_with(&views[turn % 8], rate, &hasher, &mut pool));
        turn += 1;
    });

    // The structural half of the zero-copy claim: a sampled view records
    // indices into the store it was taken from.
    let view = &views[0];
    let (sampled, _) = packet_sample_with(view, rate, &mut rng, &mut pool);
    Report::new()
        .cell("packet_view_ns", num(packet_view_ns, 1))
        .cell("flow_view_ns", num(flow_view_ns, 1))
        .cell("packet_vs_flow_view", num(packet_view_ns / flow_view_ns, 3))
        .cell("view_shares_store", sampled.shares_store(view))
        .cell("per_packet_copies", 0u64)
}

/// The four kernels the benchmark's tenants run most — `counter`,
/// `high-watermark`, `application`, `top-k` — at rate 1.0 on 500-packet
/// bins: the full view, where each adds one exact total per batch or per
/// flow, against its all-kept twin, the same packets through the per-packet
/// additions. Eight bins taken in turn, the two sides alternating pass by
/// pass and reporting their medians; the store's flow totals are summed on
/// each bin's first pass, as the first of a bin's tenants sums them.
fn bench_unit_rate(passes: usize) -> Report {
    const KINDS: [QueryKind; 4] =
        [QueryKind::Counter, QueryKind::HighWatermark, QueryKind::Application, QueryKind::TopK];
    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(61).with_mean_packets_per_batch(500.0),
    )
    .batches(8);
    let sides = [
        batches.iter().map(Batch::view).collect::<Vec<_>>(),
        batches.iter().map(|batch| batch.view().filter_indexed(|_, _| true)).collect(),
    ];
    let mut kernels = [(); 2].map(|()| KINDS.map(build_query));
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..passes {
        for ((views, kernels), samples) in sides.iter().zip(&mut kernels).zip(&mut samples) {
            let start = Instant::now();
            for view in views {
                for kernel in kernels.iter_mut() {
                    kernel.process_batch(view, 1.0, &mut CycleMeter::new());
                }
            }
            samples.push(start.elapsed().as_nanos() as f64 / views.len() as f64);
        }
    }
    let [unit_rate_ns, per_packet_ns] = samples.map(median);
    Report::new()
        .cell("packets_per_bin", sides[0].iter().map(BatchView::len).sum::<usize>() / 8)
        .cell("unit_rate_ns_per_bin", num(unit_rate_ns, 0))
        .cell("per_packet_ns_per_bin", num(per_packet_ns, 0))
        .cell("unit_rate_vs_per_packet", num(unit_rate_ns / per_packet_ns, 3))
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
    // the column store (each frame's payloads stay behind one window into
    // `buffer`), then the pass on a fresh extractor and pool.
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
    /// Each component over the run's `total_cycles()`.
    fn shares(&self) -> Report {
        let total = self.prediction + self.shedding + self.query + self.platform;
        let share = |cycles: f64| num(cycles / total, 4);
        Report::new()
            .cell("prediction", share(self.prediction))
            .cell("shedding", share(self.shedding))
            .cell("query", share(self.query))
            .cell("platform", share(self.platform))
    }
}

/// The seven stages' shares of the bin `stats` measured, keyed by stage name.
fn stage_shares(stats: &StageStats) -> Report {
    Stage::BIN.iter().fold(Report::new(), |report, stage| {
        report.cell(&format!("{stage:?}").to_lowercase(), num(stats.share(*stage), 4))
    })
}

/// Mean wall nanoseconds of a bin, by the engine's own clock.
fn mean_bin_ns(stats: &StageStats) -> f64 {
    stats.bin_ns() as f64 / stats.bins as f64
}

/// The 4-lane fleet's bin in solo bins, both on one thread and by the
/// engines' own clocks: the median of nine adjacent solo/fleet pairs,
/// because a host's speed moves between runs that are minutes apart.
fn fleet_bin_in_solo_bins(batches: usize) -> f64 {
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let solo = bench_pipeline_at(batches, 1);
            let fleet = bench_fleet_pipeline_at(batches, 1);
            mean_bin_ns(&fleet.stages) / mean_bin_ns(&solo.stages)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// The 2× overload pipeline's `batches` bins and its configuration: the
/// Chapter 4 query mix at half its measured demand, MmfsPkt.
fn overload_shape(batches: usize) -> (Vec<Batch>, MonitorBuilder) {
    let recorded = TraceGenerator::new(
        TraceConfig::default().with_seed(21).with_mean_packets_per_batch(2000.0),
    )
    .batches(batches);
    let specs: Vec<QuerySpec> =
        QueryKind::CHAPTER4_SET.iter().map(|kind| QuerySpec::new(*kind)).collect();
    let demand = netshed_monitor::reference::measure_total_demand(&specs, &recorded[..batches / 4])
        .expect("valid query specs");
    let builder = Monitor::builder()
        .capacity(demand / 2.0)
        .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .no_noise()
        .queries(specs);
    (recorded, builder)
}

/// Runs the 2× overload pipeline on the engine `build` makes of its
/// configuration and reports wall-clock throughput, the engine's own stage
/// clock and the modelled cycles of the records it emitted.
fn bench_engine<E: Engine>(
    batches: usize,
    build: impl FnOnce(MonitorBuilder) -> Result<E, NetshedError>,
) -> PipelineNumbers {
    let (recorded, builder) = overload_shape(batches);
    let total_packets: u64 = recorded.iter().map(|b| b.len() as u64).sum();
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

/// A trace source that decodes the `.nstr` encoding of a batch vector and
/// keeps the wall time its reads took: what the daemon spends on a bin
/// before the engine's stage clock starts.
struct TimedReader {
    reader: SharedTraceReader,
    ns: u64,
}

impl TimedReader {
    fn over(batches: &[Batch]) -> Self {
        let container = encode_batches(batches, batches[0].duration_us).expect("encode");
        let reader = SharedTraceReader::new(Bytes::from(container)).expect("header");
        Self { reader, ns: 0 }
    }

    /// The decode's nanoseconds over those of the bins `stats` measured,
    /// once the run has read every frame cleanly.
    fn share_of(&self, stats: &StageStats) -> Cell {
        assert!(self.reader.error().is_none(), "decode failed: {:?}", self.reader.error());
        num(self.ns as f64 / stats.bin_ns() as f64, 4)
    }
}

impl PacketSource for TimedReader {
    fn next_batch(&mut self) -> Option<Batch> {
        let start = Instant::now();
        let batch = self.reader.next_batch();
        self.ns += start.elapsed().as_nanos() as u64;
        batch
    }
}

/// The solo 2× overload pipeline replaying its `batches` bins from their
/// `.nstr` encoding on one worker: the decode's share of the bin.
fn solo_decode_vs_bin(batches: usize) -> Cell {
    let (recorded, builder) = overload_shape(batches);
    let mut source = TimedReader::over(&recorded);
    drop(recorded);
    let mut monitor = builder.with_workers(1).build().expect("valid configuration");
    monitor.run(&mut source, &mut ModelledCycles::default()).expect("run");
    source.share_of(&monitor.stage_stats())
}

/// The solo monitor at the given worker count.
fn bench_pipeline_at(batches: usize, workers: usize) -> PipelineNumbers {
    bench_engine(batches, |builder| builder.with_workers(workers).build())
}

/// The sharded fleet (default lane count) at the given worker count. The
/// lane layout is fixed, so every worker count replays the identical
/// computation — the row reports pure wall-clock scaling.
fn bench_fleet_pipeline_at(batches: usize, workers: usize) -> PipelineNumbers {
    bench_engine(batches, |builder| builder.with_workers(workers).build_sharded())
}

/// Times one predict+observe cycle per bin over a synthetic feature stream:
/// the MLR predictor reselecting every bin (as the paper does), the same
/// predictor aligned with a feature window another tenant, of other
/// responses, has already read that bin (what each further query of an
/// unshed engine pays that owns its predictor); then the two halves
/// of a prediction on the same stream, each over its own warm scratch — the
/// FCBF selection over the full history, and the least-squares solve over
/// the columns it selected.
fn bench_prediction_plane(bins: usize) -> Report {
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

    // Two tenants of one engine, the second at twice the first's cost: a
    // power-of-two scale moves no correlation's bits, so both select the same
    // features every bin, but their responses differ, as those of two
    // tenants that do not follow one predictor do. The first pays for the
    // window's moments and for the factorisation of the features they both
    // select, the second — the one timed — reads them and projects its own
    // responses.
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
            second.observe_shared(&window, 2.0 * *cycles, false);
            shared_ns += start.elapsed().as_nanos();
        }
        assert!(second.history().aligned_with(&window));
        shared_ns_per_bin = shared_ns_per_bin.min(shared_ns as f64 / bins as f64);
    }
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

    Report::new()
        .cell("bins", bins)
        .cell("ns_per_bin", num(ns_per_bin, 0))
        .cell("shared_ns_per_bin", num(shared_ns_per_bin, 0))
        .cell("shared_vs_private", num(shared_ns_per_bin / ns_per_bin, 3))
        .cell("fcbf_ns_per_bin", num(best_fcbf, 0))
        .cell("ols_ns_per_bin", num(best_ols, 0))
}

/// How many predictions an engine's `Tallied` predictors made, and how many
/// of them regressed on a history aligned with the feature window (and so
/// read its shared moments and factorisations).
#[derive(Default)]
struct Counts {
    predictions: AtomicUsize,
    aligned: AtomicUsize,
}

/// The engine's default MLR predictor, counting into `counts`. It forwards
/// its checkpoint too, so that the tenants it counts can follow one another
/// (a follower's predictor must be copyable).
struct Tallied {
    inner: MlrPredictor,
    counts: Arc<Counts>,
}

impl Predictor for Tallied {
    fn predict(&mut self, features: &FeatureVector) -> f64 {
        self.inner.predict(features)
    }

    fn observe(&mut self, features: &FeatureVector, actual_cycles: f64) {
        self.inner.observe(features, actual_cycles);
    }

    fn observe_corrupted(&mut self, features: &FeatureVector, predicted_cycles: f64) {
        self.inner.observe_corrupted(features, predicted_cycles);
    }

    fn predict_shared(&mut self, window: &FeatureWindow, features: &FeatureVector) -> f64 {
        self.counts.predictions.fetch_add(1, Ordering::Relaxed);
        // The predictor regresses from its third row on; before that it
        // returns the mean of its responses and asks the window nothing.
        let history = self.inner.history();
        if history.len() >= 3 && history.aligned_with(window) {
            self.counts.aligned.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.predict_shared(window, features)
    }

    fn observe_shared(&mut self, window: &FeatureWindow, cycles: f64, corrupted: bool) {
        self.inner.observe_shared(window, cycles, corrupted);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn last_cost_operations(&self) -> u64 {
        self.inner.last_cost_operations()
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        self.inner.save_state(writer)
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(reader)
    }
}

/// How an engine shared its work over a run, per bin: the queries, the
/// predictions computed (`Monitor::predictions`: one per query that owns
/// its predictor; a follower copies its head's), the computed ones that
/// regressed on a history aligned with the feature window, the sets of lane
/// instances run (`Monitor::query_runs`; a cohort runs one set for all its
/// members) and the re-extraction walks made (`Monitor::reextraction_walks`:
/// one for every packet-sampled query together, one per flow-sampled one).
struct Sharing {
    queries: f64,
    full: f64,
    aligned: f64,
    runs: f64,
    walks: f64,
}

impl Sharing {
    /// Counts, on one worker and untimed, the engine `builder` configures
    /// with `Tallied` predictors over `batches`.
    fn of(builder: MonitorBuilder, batches: &[Batch]) -> Self {
        let counts = Arc::new(Counts::default());
        let recorded = Arc::clone(&counts);
        let mut monitor = builder
            .with_workers(1)
            .with_predictor(move || {
                let (inner, counts) =
                    (MlrPredictor::new(MlrConfig::default()), Arc::clone(&recorded));
                Box::new(Tallied { inner, counts }) as Box<dyn Predictor>
            })
            .build()
            .expect("valid configuration");
        let (mut bins, mut full, mut runs, mut walks) = (0, 0, 0, 0);
        for batch in batches.iter().filter(|batch| !batch.is_empty()) {
            monitor.process_batch(batch).expect("bin");
            bins += 1;
            full += monitor.predictions();
            runs += monitor.query_runs();
            walks += monitor.reextraction_walks();
        }
        let computed = counts.predictions.load(Ordering::Relaxed);
        assert_eq!(computed, full, "every computed prediction is a Tallied one");
        let per_bin = |count: usize| count as f64 / bins as f64;
        Self {
            queries: monitor.query_handles().len() as f64,
            full: per_bin(full),
            aligned: per_bin(counts.aligned.load(Ordering::Relaxed)),
            runs: per_bin(runs),
            walks: per_bin(walks),
        }
    }
}

/// The repo benchmark's `tenants-underload` shape — 200 tenants of five
/// kinds on 500-packet bins, capacity so large that nothing is shed, read
/// from its `.nstr` encoding — without measurement noise as the benchmark
/// runs it (`tenants_200`) and with the default noise (`tenants_200_noisy`,
/// with its bin over the noise-off one): where the engine's own clock says
/// its bins went, how many of a bin's 200 predictions were computed (a
/// tenant that follows another's predictor copies its prediction) and how
/// many sets of query instances a bin ran (tenants of one kind form one
/// cohort), counted on a second, untimed run of the same engine, how many
/// tasks the timed run dispatched a bin (only owners are dispatched), and how
/// many bytes its `Monitor::save_state` writes after the run; and the same
/// shape at 1 000 members without noise (`tenants_1000`), where what a
/// member costs beyond its cohort's run shows five times over: its
/// prediction and demand, its record and its terms of the registration-order
/// sums, since the control loop's passes run once per row.
fn bench_tenants(bins: usize) -> (Report, Report, Report) {
    const KINDS: [QueryKind; 5] = [
        QueryKind::Counter,
        QueryKind::Application,
        QueryKind::Flows,
        QueryKind::TopK,
        QueryKind::HighWatermark,
    ];
    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(61).with_mean_packets_per_batch(500.0),
    )
    .batches(bins);
    let tenants = |members: usize, noisy: bool| {
        let builder = Monitor::builder()
            .capacity(1e15)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_workers(1)
            .queries((0..members).map(|i| {
                QuerySpec::new(KINDS[i % KINDS.len()]).with_label(format!("tenant-{i:04}"))
            }));
        if noisy {
            builder
        } else {
            builder.no_noise()
        }
    };
    let run = |members: usize, noisy: bool| {
        let mut monitor = tenants(members, noisy).build().expect("valid configuration");
        let mut observers = (TimedDigest::default(), BinClock::default());
        let mut source = TimedReader::over(&batches);
        monitor.run(&mut source, &mut observers).expect("run");
        let (digest, clock) = observers;
        let stages = monitor.stage_stats();
        let mut snapshot = StateWriter::new();
        monitor.save_state(&mut snapshot).expect("every tenant checkpoints");
        let sharing = Sharing::of(tenants(members, noisy), &batches);
        let report = Report::new()
            .cell("bins", stages.bins)
            .cell("bin_ns", num(mean_bin_ns(&stages), 0))
            .cell("digest_vs_bin", num(digest.ns as f64 / stages.bin_ns() as f64, 4))
            .cell("interval_bin_vs_bin", num(clock.interval_vs_other(), 3))
            .cell("decode_vs_bin", source.share_of(&stages))
            .cell("full_predictions_per_bin", num(sharing.full, 2))
            .cell("query_runs_per_bin", num(sharing.runs, 2))
            .cell("tasks_per_bin", num(stages.tasks as f64 / stages.bins as f64, 2))
            .cell("snapshot_bytes", snapshot.len())
            .report("measured_share", stage_shares(&stages));
        (report, mean_bin_ns(&stages))
    };
    let (quiet, quiet_bin_ns) = run(200, false);
    let (noisy, noisy_bin_ns) = run(200, true);
    let (thousand, _) = run(1000, false);
    (quiet, noisy.cell("bin_vs_noise_off", num(noisy_bin_ns / quiet_bin_ns, 3)), thousand)
}

/// A [`DigestObserver`] that keeps the wall time spent in it. The run loop
/// calls its observer between bins, outside the engine's stage clock, so
/// its nanoseconds over the stages' are the run digest's cost per unit of
/// bin.
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

/// Each bin's wall time from `on_batch` to `on_bin` — the engine's bin and,
/// for the observers ahead of this one in a tuple, their work on it — kept
/// apart for the bins that closed a measurement interval (their queries
/// report, and the digest absorbs the outputs) and for the others.
#[derive(Default)]
struct BinClock {
    start: Option<Instant>,
    closes_interval: bool,
    /// (nanoseconds, bins) of the interval-closing bins and of the others.
    interval: (u64, u64),
    other: (u64, u64),
}

impl BinClock {
    /// The mean interval-closing bin over the mean other bin.
    fn interval_vs_other(&self) -> f64 {
        let mean = |(ns, bins): (u64, u64)| ns as f64 / bins.max(1) as f64;
        mean(self.interval) / mean(self.other)
    }
}

impl RunObserver for BinClock {
    fn on_batch(&mut self, _batch: &Batch) {
        self.closes_interval = false;
        self.start = Some(Instant::now());
    }

    fn on_interval(&mut self, _outputs: &[(String, QueryOutput)]) {
        self.closes_interval = true;
    }

    fn on_bin(&mut self, _record: &BinRecord) {
        if let Some(start) = self.start.take() {
            let sum = if self.closes_interval { &mut self.interval } else { &mut self.other };
            sum.0 += start.elapsed().as_nanos() as u64;
            sum.1 += 1;
        }
    }
}

/// Measures `run_at` at 1, 2 and 4 threads: a table of each throughput and
/// its ratio to the 1-thread point of the same invocation (keyed `threads`),
/// the 4-thread ratio, and the 1-thread run itself.
fn scaling_row(
    threads: &str,
    run_at: impl Fn(usize) -> PipelineNumbers,
) -> (Table, f64, PipelineNumbers) {
    let baseline = run_at(1);
    let mut table = Table::new(&[threads, "packets_per_sec", "measured_speedup"]);
    let mut speedup = 1.0;
    for count in [1usize, 2, 4] {
        let packets_per_sec =
            if count == 1 { baseline.packets_per_sec } else { run_at(count).packets_per_sec };
        speedup = packets_per_sec / baseline.packets_per_sec;
        table.row([count.into(), num(packets_per_sec, 0), num(speedup, 3)]);
    }
    (table, speedup, baseline)
}

/// The 2× overload pipeline at 1/2/4 workers, solo and through the
/// fixed-lane fleet; also returns the fleet's 1-worker run, for the stage
/// breakdown. Both rows are intra-run: every endpoint is measured in this
/// invocation on the identical trace (and lane layout). A ratio at more
/// threads than `host_cores` measures dispatch overhead, not scaling — the
/// row reports it as measured either way.
fn bench_parallel_scaling(batches: usize) -> (Report, PipelineNumbers) {
    let (workers, speedup_4w, baseline) =
        scaling_row("workers", |workers| bench_pipeline_at(batches, workers));
    let (fleet_workers, fleet_speedup_4w, fleet_baseline) =
        scaling_row("workers", |workers| bench_fleet_pipeline_at(batches, workers));
    let sharded = Report::new()
        .cell("shard_lanes", netshed_monitor::DEFAULT_SHARD_LANES)
        .table("workers", fleet_workers)
        .cell("fleet_speedup_4w", num(fleet_speedup_4w, 3));
    let report = Report::new()
        .cell("batches", batches)
        .cell("host_cores", std::thread::available_parallelism().map_or(1, usize::from))
        .cell("parallel_fraction", num(baseline.stages.parallel_fraction(), 3))
        .table("workers", workers)
        .cell("speedup_4w", num(speedup_4w, 3))
        .report("sharded", sharded);
    (report, fleet_baseline)
}

/// Costs the multi-tenant live registry at 10/100/1000 concurrent queries:
/// registration through the daemon's control channel (all applied at one
/// bin boundary), and the steady-state per-bin processing cost as the
/// tenant count scales, timed from the bin after the one that applied the
/// registrations (so the steady state does not price them twice). The
/// marginal row — extra nanoseconds per bin each
/// additional tenant costs, from the 10→1000 spread — is the number a
/// capacity planner multiplies. The tenants are identical `counter` queries
/// under the default configuration, noise on. All of them, registered at one
/// bin boundary, form one cohort: one run, one noise draw and one prediction
/// a bin, which every follower copies, so the marginal prices a cohort
/// member, not a run or a prediction.
fn bench_registry_scale(bins: usize) -> Report {
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

    let mut tenants = Table::new(&["queries", "register_ns_per_query", "ns_per_bin"]);
    let mut steady_state = Vec::new();
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
        // live tenants. One untimed tick of one bin applies the queued
        // registrations (priced above), and the clock runs over the rest.
        let (daemon, control) =
            Daemon::new(Monitor::new(config()), BatchReplay::new(batches.clone()));
        let mut daemon = daemon.with_bins_per_tick(1);
        let pending: Vec<_> =
            tenant_specs(queries).into_iter().map(|s| control.register_query(s)).collect();
        daemon.tick().expect("registration tick");
        for p in pending {
            p.wait().expect("registered");
        }
        let mut daemon = daemon.with_bins_per_tick(DEFAULT_BINS_PER_TICK);
        let start = Instant::now();
        daemon.run_to_exhaustion().expect("run");
        let ns_per_bin = start.elapsed().as_nanos() as f64 / (bins - 1) as f64;
        drop(control);
        tenants.row([queries.into(), num(register_ns_per_query, 0), num(ns_per_bin, 0)]);
        steady_state.push((queries, ns_per_bin));
    }
    let (low, high) = (steady_state[0], steady_state[steady_state.len() - 1]);
    let members = (high.0 - low.0) as f64;
    let marginal_ns_per_query_per_bin = (high.1 - low.1).max(0.0) / members;
    let digest_marginal_ns_per_query_per_bin =
        (digest_ns_per_bin(high.0, &batches) - digest_ns_per_bin(low.0, &batches)).max(0.0)
            / members;
    Report::new()
        .cell("bins", bins)
        .table("tenants", tenants)
        .cell("marginal_ns_per_query_per_bin", num(marginal_ns_per_query_per_bin, 0))
        .cell("digest_marginal_ns_per_query_per_bin", num(digest_marginal_ns_per_query_per_bin, 1))
}

/// The run digest's nanoseconds a bin over the records of `queries`
/// identical `counter` tenants (the registry row's shape) on `batches`: the
/// bins are run once and kept, and a fresh `DigestObserver` absorbs them in
/// the engine's order, best of nine passes.
fn digest_ns_per_bin(queries: usize, batches: &[Batch]) -> f64 {
    struct Tape(Vec<BinRecord>);
    impl RunObserver for Tape {
        fn on_bin(&mut self, record: &BinRecord) {
            self.0.push(record.clone());
        }
    }
    let mut monitor = Monitor::new(MonitorConfig::default().with_capacity(1e15).with_seed(7));
    for i in 0..queries {
        let spec = QuerySpec::new(QueryKind::Counter).with_label(format!("tenant-{i:04}"));
        monitor.register(&spec).expect("valid spec");
    }
    let mut tape = Tape(Vec::new());
    monitor.run(&mut BatchReplay::new(batches.to_vec()), &mut tape).expect("run");
    let best_ns = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut digest = DigestObserver::new();
            for record in &tape.0 {
                if let Some(outputs) = &record.interval_outputs {
                    digest.on_interval(outputs);
                }
                digest.on_decision(record.bin_index, &record.decision);
                digest.on_bin(record);
            }
            black_box(digest.digest());
            start.elapsed().as_nanos()
        })
        .min()
        .expect("nine passes");
    best_ns as f64 / tape.0.len() as f64
}

fn main() {
    let smoke = criterion::smoke_mode();
    let (iterations, pipeline_batches) = if smoke { (10, 100) } else { (200, 600) };
    // Each section is shown on stderr as soon as it is measured and goes into
    // the file under the same key, from the same value.
    let mut sections = Vec::new();
    let mut section = |key: &'static str, part: Report| {
        eprint!("-- {key} --\n{part}");
        sections.push((key, part));
    };

    section("extract_10k_batch", bench_extract(iterations));
    section("shedding_10k_batch_rate_0_37", bench_shedding(iterations));
    section("unit_rate_kernels_500_pkt", bench_unit_rate(iterations as usize));

    let data_plane = bench_data_plane(pipeline_batches.min(200), if smoke { 2 } else { 3 });
    let pipeline = bench_pipeline_at(pipeline_batches, 1);
    let (recorded, builder) = overload_shape(pipeline_batches);
    let sharing = Sharing::of(builder, &recorded);
    let (recorded, builder) = overload_shape(pipeline_batches);
    let equal_rates = Sharing::of(
        builder.strategy(Strategy::Predictive(AllocationPolicy::EqualRates)),
        &recorded,
    );
    section(
        "pipeline_2x_overload",
        Report::new()
            .cell("batches", pipeline.batches)
            .cell("packets", pipeline.packets)
            .cell("elapsed_s", num(pipeline.elapsed_s, 3))
            .cell("packets_per_sec", num(pipeline.packets_per_sec, 0))
            .cell("data_plane_batches", data_plane.batches)
            .cell("data_plane_packets", data_plane.packets)
            .cell("soa_replay_packets_per_sec", num(data_plane.soa_packets_per_sec, 0))
            .cell("alloc_per_bin", data_plane.alloc_per_bin)
            .cell("aligned_prediction_share", num(sharing.aligned / sharing.full, 4))
            .cell("followed_prediction_share", num(1.0 - sharing.full / sharing.queries, 4))
            .cell("reextraction_walks_per_bin_mmfs_pkt", num(sharing.walks, 2))
            .cell("reextraction_walks_per_bin_eq_srates", num(equal_rates.walks, 2)),
    );
    section("prediction_plane", bench_prediction_plane(if smoke { 200 } else { 600 }));
    section("registry_scale", bench_registry_scale(if smoke { 12 } else { 40 }));
    let (scaling, fleet) = bench_parallel_scaling(pipeline_batches);
    section("parallel_scaling", scaling);

    let solo = Report::new()
        .cell("bins", pipeline.stages.bins)
        .cell("decode_vs_bin", solo_decode_vs_bin(pipeline_batches))
        .report("measured_share", stage_shares(&pipeline.stages))
        .report("modelled_cycle_share", pipeline.modelled.shares());
    let fleet_1_thread = Report::new()
        .cell("bins", fleet.stages.bins)
        .cell("shard_lanes", netshed_monitor::DEFAULT_SHARD_LANES)
        .report("measured_share", stage_shares(&fleet.stages))
        .cell("bin_ns_vs_solo", num(fleet_bin_in_solo_bins(pipeline_batches), 3))
        .report("modelled_cycle_share", fleet.modelled.shares());
    let (tenants_200, tenants_200_noisy, tenants_1000) =
        bench_tenants(if smoke { 40 } else { 200 });
    section(
        "stage_breakdown",
        Report::new()
            .report("solo", solo)
            .report("fleet_1_thread", fleet_1_thread)
            .report("tenants_200", tenants_200)
            .report("tenants_200_noisy", tenants_200_noisy)
            .report("tenants_1000", tenants_1000),
    );

    sections
        .into_iter()
        .fold(Report::bench("pipeline", smoke), |report, (key, part)| report.report(key, part))
        .publish("BENCH_pipeline.json");
}
