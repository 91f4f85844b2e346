//! Coordinated packet sampling (digest epoch 2) against what it replaced.
//!
//! One key per packet serves every packet-sampled query of a bin, and the
//! samples nest. Two things are pinned here:
//!
//! * a bin where exactly one query packet-samples keeps, packet for packet,
//!   what the epoch-1 plan (a draw per packet per query, restated in
//!   `tests/oracle/`) kept, and leaves the generator where that plan did —
//!   so the epoch moved digests only where two or more queries sample;
//! * the nested re-extraction ([`ExtractScratch::nested`]) is, bit for bit,
//!   `extract_view_with` on each query's sample: vector, operations and the
//!   interval state the extractor carries on, over parents that are full,
//!   flow-sampled and packet-sampled, across an interval boundary and a
//!   `save_state` / `load_state` restore.

mod oracle;

use netshed::features::{ExtractScratch, FeatureExtractor, FeatureId};
use netshed::monitor::{draw_keys, flow_sample_with, keep_threshold};
use netshed::sketch::{H3Hasher, StateReader, StateWriter};
use netshed::trace::{Batch, BatchView, KeepListPool, TraceConfig, TraceGenerator};
use oracle::epoch1_packet_plan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kept(view: &BatchView) -> Vec<usize> {
    view.indexed_packets().map(|(at, _)| at).collect()
}

/// The three kinds of view a bin's samples are cut from: the batch, a flow
/// sample of it and a packet sample of it.
fn parents(batch: &Batch, pool: &mut KeepListPool) -> [BatchView; 3] {
    let full = batch.view();
    let (flows, _) = flow_sample_with(&full, 0.6, &H3Hasher::new(13, 5), pool);
    let packets = full.filter_indexed_with(pool, |at, _| at % 3 != 1);
    [full, flows, packets]
}

/// The coordinated plan's samples at `rates`: keys drawn once if any rate is
/// strictly between 0 and 1, and each such rate keeps the keys below its
/// threshold; other rates keep all or nothing, as the shed stage has them.
fn coordinated_plan(view: &BatchView, rates: &[f64], rng: &mut StdRng) -> Vec<Vec<usize>> {
    let (mut keys, mut pool) = (Vec::new(), KeepListPool::new());
    if rates.iter().any(|rate| (0.0..1.0).contains(rate) && *rate > 0.0) {
        draw_keys(view, rng, &mut keys);
    }
    rates
        .iter()
        .map(|&rate| {
            if rate >= 1.0 {
                kept(view)
            } else if rate > 0.0 {
                kept(&view.filter_keys_below_with(&mut pool, &keys, keep_threshold(rate)))
            } else {
                Vec::new()
            }
        })
        .collect()
}

proptest! {
    /// With one packet-sampled query among queries that do not sample, the
    /// coordinated plan is the epoch-1 plan: the same packets, and the
    /// generator at the same point of its stream.
    #[test]
    fn one_sampled_query_keeps_the_epoch_1_packets_and_draws(
        trace_seed in 0u64..500,
        rng_seed in 0u64..u64::MAX,
        rate in 0.0f64..1.0,
        others in proptest::collection::vec(0usize..4, 0..6),
        at in 0usize..6,
        parent in 0usize..3,
    ) {
        prop_assume!(rate > 0.0);
        let batch = TraceGenerator::new(
            TraceConfig::default().with_seed(trace_seed).with_mean_packets_per_batch(300.0),
        )
        .next_batch();
        let view = parents(&batch, &mut KeepListPool::new())[parent].clone();
        let mut rates: Vec<f64> = others.iter().map(|&other| [0.0, 1.0, 2.5, -1.0][other]).collect();
        rates.insert(at.min(rates.len()), rate);

        let mut epoch1_rng = StdRng::seed_from_u64(rng_seed);
        let mut coordinated_rng = epoch1_rng.clone();
        let epoch1 = epoch1_packet_plan(&view, &rates, &mut epoch1_rng);
        let coordinated = coordinated_plan(&view, &rates, &mut coordinated_rng);
        prop_assert_eq!(coordinated, epoch1);
        prop_assert_eq!(coordinated_rng.state(), epoch1_rng.state());
    }

    /// Several packet-sampled queries share one key per packet: each sample
    /// is the packets whose key is below its threshold, cut from the whole
    /// view or from any larger sample alike, and the samples nest.
    #[test]
    fn samples_cut_from_larger_samples_are_the_samples_of_the_view(
        trace_seed in 0u64..500,
        rng_seed in 0u64..u64::MAX,
        rates in proptest::collection::vec(0.0f64..1.0, 1..6),
        parent in 0usize..3,
    ) {
        let batch = TraceGenerator::new(
            TraceConfig::default().with_seed(trace_seed).with_mean_packets_per_batch(300.0),
        )
        .next_batch();
        let mut pool = KeepListPool::new();
        let view = parents(&batch, &mut pool)[parent].clone();
        let mut keys = Vec::new();
        draw_keys(&view, &mut StdRng::seed_from_u64(rng_seed), &mut keys);
        let mut thresholds: Vec<u64> = rates.iter().map(|&rate| keep_threshold(rate)).collect();
        thresholds.sort_unstable_by(|a, b| b.cmp(a));

        let mut within = view.clone();
        for threshold in thresholds {
            let direct = view.filter_keys_below_with(&mut pool, &keys, threshold);
            let cut = within.filter_keys_below_with(&mut pool, &keys, threshold);
            let expected: Vec<usize> =
                kept(&view).into_iter().filter(|&at| keys[at] < threshold).collect();
            prop_assert_eq!(kept(&direct), expected.clone());
            prop_assert_eq!(kept(&cut), expected);
            // Nested: everything kept here was kept by the larger sample.
            let larger = kept(&within);
            prop_assert!(kept(&cut).iter().all(|at| larger.contains(at)));
            within = cut;
        }
    }
}

/// Everything an extraction hands back or leaves behind: the vector's bits,
/// the operation count and the extractor's serialised interval state.
fn outcome(
    extracted: &(netshed::features::FeatureVector, u64),
    extractor: &FeatureExtractor,
) -> (Vec<u64>, u64, Vec<u8>) {
    let (vector, operations) = extracted;
    let bits = FeatureId::all().into_iter().map(|id| vector.get(id).to_bits()).collect();
    let mut state = StateWriter::new();
    extractor.save_state(&mut state);
    (bits, *operations, state.into_bytes())
}

/// Restores an extractor from another's checkpoint bytes.
fn restored(extractor: &FeatureExtractor) -> FeatureExtractor {
    let mut state = StateWriter::new();
    extractor.save_state(&mut state);
    let bytes = state.into_bytes();
    let mut restored = FeatureExtractor::with_defaults();
    restored.load_state(&mut StateReader::new(&bytes)).expect("same configuration");
    restored
}

/// The nested pass against one `extract_view_with` per sample, over 14 bins
/// (bins 8–21 of 100 ms: two measurement-interval boundaries) whose parents
/// cycle through full, flow-sampled and packet-sampled, at rates that
/// include 0, 1, ties and one ulp apart, walking the parent or the largest
/// sample; after bin 14 both sides' extractors are replaced by restores of
/// their own checkpoints.
#[test]
fn the_nested_pass_is_extract_view_with_on_every_sample() {
    // Every other pair of bins keeps nothing at rate 1, so the largest
    // sample is a strict subset of the parent.
    const RATES: [[f64; 7]; 2] = [
        [0.0, 0.2, 0.45, 0.45, 0.7, 1.0, 0.7000000000000001],
        [0.05, 0.2, 0.45, 0.45, 0.7, 0.9, 0.7000000000000001],
    ];
    let queries = RATES[0].len();
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(77).with_mean_packets_per_batch(600.0),
    );
    let batches: Vec<Batch> = (0..22).map(|_| generator.next_batch()).collect();
    let mut per_sample: Vec<FeatureExtractor> =
        (0..queries).map(|_| FeatureExtractor::with_defaults()).collect();
    let mut nested: Vec<FeatureExtractor> =
        (0..queries).map(|_| FeatureExtractor::with_defaults()).collect();
    let (mut scratch, mut nested_scratch) = (ExtractScratch::default(), ExtractScratch::default());
    let (mut pool, mut keys) = (KeepListPool::new(), Vec::new());
    let mut rng = StdRng::seed_from_u64(3);

    for (bin, batch) in batches.iter().enumerate().skip(8) {
        let parent = parents(batch, &mut pool)[bin % 3].clone();
        draw_keys(&parent, &mut rng, &mut keys);
        let rates = RATES[bin / 2 % 2];
        let thresholds: Vec<u64> = rates.iter().map(|&rate| keep_threshold(rate)).collect();

        let expected: Vec<_> = thresholds
            .iter()
            .zip(&mut per_sample)
            .map(|(&threshold, extractor)| {
                let sample = parent.filter_keys_below_with(&mut pool, &keys, threshold);
                let extracted = extractor.extract_view_with(&sample, &mut scratch);
                outcome(&extracted, extractor)
            })
            .collect();

        // The pass asks smallest threshold first; ties in registration order.
        let mut order: Vec<usize> = (0..queries).collect();
        order.sort_by_key(|&query| (thresholds[query], query));
        let mut distinct = thresholds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // On even bins the pass walks the largest sample, as the monitor
        // does; on odd ones the parent it was cut from.
        let largest = parent.filter_keys_below_with(&mut pool, &keys, distinct[distinct.len() - 1]);
        let walked = if bin % 2 == 0 { &largest } else { &parent };
        let mut actual = vec![None; queries];
        {
            let mut pass = nested_scratch.nested(walked, &keys, &distinct);
            for &query in &order {
                let extracted = pass.extract(&mut nested[query], thresholds[query]);
                actual[query] = Some(outcome(&extracted, &nested[query]));
            }
        }
        assert!(nested_scratch.is_empty(), "bin {bin}: the pass hands the scratch back empty");
        for (query, (expected, actual)) in expected.into_iter().zip(actual).enumerate() {
            assert!(Some(expected) == actual, "bin {bin}, rate {}", rates[query]);
        }

        if bin == 14 {
            per_sample = per_sample.iter().map(restored).collect();
            nested = nested.iter().map(restored).collect();
        }
    }
}
