//! Criterion micro-benchmarks for the per-batch building blocks.
//!
//! These benches back the cost claims of the paper: feature extraction with
//! deterministic per-packet work (Section 3.2.1, Table 3.4), cheap FCBF +
//! MLR prediction (Section 3.3.1), lightweight packet/flow sampling
//! (Section 4.2) and the sketches they are built on. The headline numbers
//! are recorded by the `pipeline` bench into `BENCH_pipeline.json`.
//!
//! Pass `-- --smoke` for a fast CI-friendly run with reduced iteration
//! counts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netshed_features::{FeatureExtractor, FEATURE_COUNT};
use netshed_linalg::{Matrix, OlsWorkspace};
use netshed_monitor::{flow_sample_with, packet_sample_with};
use netshed_predict::{
    fcbf_select_in, fcbf_select_with, FcbfConfig, FcbfScratch, FeatureWindow, History,
    MlrPredictor, Predictor,
};
use netshed_queries::{build_query, BoyerMoore, CycleMeter, QueryKind};
use netshed_sketch::{mix64, BitmapGeometry, H3Hasher, MultiResolutionBitmap};
use netshed_trace::{Batch, KeepListPool, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_feature_extraction(c: &mut Criterion) {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(1).with_mean_packets_per_batch(1000.0),
    );
    let batch = generator.next_batch();
    let mut group = c.benchmark_group("extract_1000pkt_batch");
    // Warm: the batch's aggregate-slot side array is cached after the first
    // iteration — the steady state every per-query re-extraction sees.
    group.bench_function("fused_warm", |b| {
        let mut extractor = FeatureExtractor::with_defaults();
        b.iter(|| black_box(extractor.extract(&batch)));
    });
    // Cold: a fresh packet store per iteration, so the packets are hashed and
    // located inside the measured region (the first touch of a batch). The timing
    // includes the store rebuild — subtract `store_build` to isolate
    // extraction; `pipeline.rs` reports the already-corrected number.
    let template: Vec<_> = batch.packets.iter().map(|p| p.to_packet()).collect();
    let fresh = || Batch::new(batch.bin_index, batch.start_ts, batch.duration_us, template.clone());
    group.bench_function("fused_cold_incl_store_build", |b| {
        let mut extractor = FeatureExtractor::with_defaults();
        b.iter(|| black_box(extractor.extract(&fresh())));
    });
    group.bench_function("store_build", |b| b.iter(|| black_box(fresh())));
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(2).with_mean_packets_per_batch(1000.0),
    );
    let batches = generator.batches(80);
    let mut extractor = FeatureExtractor::with_defaults();
    let mut query = build_query(QueryKind::Flows);
    let mut predictor = MlrPredictor::with_defaults();
    let mut history = Vec::new();
    // The same observations in a history aligned with a shared window.
    let mut shared = FeatureWindow::new();
    let mut aligned = History::new(FeatureWindow::ROWS);
    for batch in &batches {
        let (features, _) = extractor.extract(batch);
        let mut meter = CycleMeter::new();
        query.process_batch(&batch.view(), 1.0, &mut meter);
        predictor.observe(&features, meter.cycles() as f64);
        shared.push(&features);
        aligned.push_newest(&shared, meter.cycles() as f64);
        history.push(features);
    }
    let last = *history.last().unwrap();
    c.bench_function("mlr_fcbf_predict_60_history", |b| {
        b.iter(|| black_box(predictor.predict(&last)));
    });

    // The two halves of that prediction on the same 60-observation window:
    // the FCBF selection over all 42 columns, and the least-squares solve
    // over intercept + packets + bytes.
    let window = predictor.history();
    let mut scratch = FcbfScratch::default();
    c.bench_function("fcbf_select_60x42", |b| {
        b.iter(|| {
            black_box(
                fcbf_select_with(window, &FcbfConfig::default(), FEATURE_COUNT, &mut scratch).len(),
            )
        });
    });
    // The same selection when another query has already read the shared
    // window this bin: only the response side is left to compute.
    assert!(aligned.aligned_with(&shared));
    c.bench_function("fcbf_response_side_60x42", |b| {
        b.iter(|| {
            let config = FcbfConfig::default();
            black_box(
                fcbf_select_in(&aligned, Some(&shared), &config, FEATURE_COUNT, &mut scratch).len(),
            )
        });
    });
    let design =
        Matrix::from_columns(&[vec![1.0; 60], window.feature_column(0), window.feature_column(1)]);
    let responses = window.responses();
    let mut workspace = OlsWorkspace::default();
    c.bench_function("ols_workspace_solve_60x3", |b| {
        b.iter(|| black_box(workspace.solve(&design, &responses, 1e-9)));
    });
}

fn bench_sampling(c: &mut Criterion) {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(3).with_mean_packets_per_batch(1000.0),
    );
    let batch = generator.next_batch();
    let view = batch.view();
    let mut group = c.benchmark_group("shed_1000pkt_batch");
    let mut pool = KeepListPool::new();
    group.bench_function("packet_sample_view", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(packet_sample_with(&view, 0.3, &mut rng, &mut pool)));
    });
    let hasher = H3Hasher::new(13, 9);
    group.bench_function("flow_sample_view", |b| {
        b.iter(|| black_box(flow_sample_with(&view, 0.3, &hasher, &mut pool)));
    });
    group.finish();
}

fn bench_sketches(c: &mut Criterion) {
    let geometry = BitmapGeometry::for_cardinality(100_000);
    c.bench_function("multiresolution_bitmap_insert_10k", |b| {
        b.iter(|| {
            let mut bitmap = MultiResolutionBitmap::with_geometry(geometry);
            for i in 0..10_000u64 {
                bitmap.insert_slot(geometry.slot(mix64(i)));
            }
            black_box(bitmap.estimate())
        });
    });
    // The same 10k items replayed by slot, located once outside the loop —
    // what a warm extraction pays per packet and aggregate. The difference
    // to the row above is the locate (`trailing_ones`, `mix64`, mask).
    let slots: Vec<u16> = (0..10_000u64).map(|i| geometry.slot(mix64(i))).collect();
    c.bench_function("multiresolution_bitmap_insert_slot_10k", |b| {
        b.iter(|| {
            let mut bitmap = MultiResolutionBitmap::with_geometry(geometry);
            for &slot in &slots {
                bitmap.insert_slot(slot);
            }
            black_box(bitmap.estimate())
        });
    });
}

fn bench_pattern_search(c: &mut Criterion) {
    let pattern = BoyerMoore::new(b"BitTorrent protocol");
    let haystack = vec![b'x'; 1460];
    c.bench_function("boyer_moore_scan_1460B", |b| b.iter(|| black_box(pattern.find(&haystack))));
}

fn bench_queries(c: &mut Criterion) {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(4).with_mean_packets_per_batch(1000.0).with_payloads(true),
    );
    let batch = generator.next_batch();
    let view = batch.view();
    let mut group = c.benchmark_group("query_per_batch");
    for kind in [QueryKind::Counter, QueryKind::Flows, QueryKind::PatternSearch, QueryKind::Trace] {
        group.bench_function(kind.name(), |b| {
            let mut query = build_query(kind);
            b.iter(|| {
                let mut meter = CycleMeter::new();
                query.process_batch(&view, 1.0, &mut meter);
                black_box(meter.cycles())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_feature_extraction,
    bench_prediction,
    bench_sampling,
    bench_sketches,
    bench_pattern_search,
    bench_queries
);
criterion_main!(benches);
