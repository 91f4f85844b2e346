//! Bit-identity of the locate-once feature extraction at every seam.
//!
//! The per-flow slot rows, the flat multi-resolution bitmap and its estimator
//! table replaced the per-packet hash rows and the `Vec<LinearCounting>`
//! layout. Nothing a feature vector holds may have moved, so each layer is
//! pinned here against the code it replaced, as `tests/oracle/` restates it:
//! the single-pass hashes against one padded key and one `hash_bytes` call
//! per aggregate, the slot against locate-then-modulo, the flat bitmap
//! against one [`LinearCounting`] per component, and the extractor — on full
//! views, packet- and flow-sampled views and views of views, across an
//! interval boundary and a restore — against the ten-pass reference, which
//! hashes every packet, on all 42 features.

mod oracle;

use netshed::features::{
    Aggregate, AggregateHashes, CounterKind, ExtractScratch, FeatureExtractor, FeatureId,
    FeatureVector, AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY,
};
use netshed::monitor::{flow_sample_with, packet_sample_with};
use netshed::sketch::{
    hash_bytes, mix64, BitmapGeometry, H3Hasher, MultiResolutionBitmap, StateReader, StateWriter,
};
use netshed::trace::{Batch, FiveTuple, KeepListPool, Packet, TraceConfig, TraceGenerator};
use oracle::{aggregate_hash, aggregate_key, LinearCounting, ReferenceBitmap, TenPassExtractor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Power-of-two component sizes take the mask, the others the `%`; the small
/// ones saturate within a few hundred inserts.
const GEOMETRIES: [(usize, usize); 7] =
    [(6, 4096), (16, 4096), (3, 64), (4, 128), (5, 192), (2, 320), (3, 4032)];

fn saved(save: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
    let mut writer = StateWriter::new();
    save(&mut writer);
    writer.into_bytes()
}

/// Locates `hash` under the flat bitmap's geometry and sets its bit.
fn insert_hash(flat: &mut MultiResolutionBitmap, hash: u64) -> bool {
    flat.insert_slot(flat.geometry().slot(hash))
}

/// Same estimate (to the bit), same serialized bytes, and same membership:
/// a probe re-inserts as stale into (a copy of) the flat bitmap exactly when
/// the reference holds it.
fn assert_same_bitmap(flat: &MultiResolutionBitmap, reference: &ReferenceBitmap, probes: &[u64]) {
    assert_eq!(flat.estimate().to_bits(), reference.estimate().to_bits());
    assert_eq!(saved(|w| flat.save_state(w)), saved(|w| reference.save_state(w)));
    for &probe in probes {
        let held = reference.contains_hash(probe);
        assert_eq!(insert_hash(&mut flat.clone(), probe), !held, "probe {probe:#x}");
    }
}

fn traffic(seed: u64, bins: usize) -> Vec<Batch> {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(300.0),
    );
    (0..bins).map(|_| generator.next_batch()).collect()
}

fn assert_same_features(actual: &FeatureVector, expected: &FeatureVector, context: &str) {
    for id in FeatureId::all() {
        assert_eq!(
            actual.get(id).to_bits(),
            expected.get(id).to_bits(),
            "feature {} diverged ({context})",
            id.name()
        );
    }
}

proptest! {
    /// (a) A slot is the old `locate` followed by `% num_bits`, on masked and
    /// on divided geometries alike.
    #[test]
    fn slot_is_locate_then_modulo(
        hashes in proptest::collection::vec(0u64..u64::MAX, 1..200),
        shape in 0usize..GEOMETRIES.len(),
    ) {
        let (components, bits) = GEOMETRIES[shape];
        let geometry = BitmapGeometry::new(components, bits);
        let reference = ReferenceBitmap::new(components, bits);
        for hash in hashes {
            // Random hashes rarely end in many ones; fill the low bits so the
            // upper components and the tail clamp are exercised too.
            for ones in [0u32, 3, 17, 64] {
                let hash = hash | ((1u128 << ones) - 1) as u64;
                let slot = usize::from(geometry.slot(hash));
                prop_assert!(slot < geometry.slots());
                prop_assert_eq!(slot, reference.slot(hash), "hash {:#x}", hash);
            }
        }
    }

    /// (b) After any sequence of inserts, merges, fused merge-and-clears and
    /// clears, the flat bitmap — and a per-batch side kept outside it as bare
    /// words and counts, the extractor's scratch — agrees with the
    /// `LinearCounting` composition on the estimate (to the bit), on
    /// membership and on the serialized bytes — and a restore of those bytes
    /// agrees again.
    #[test]
    fn flat_bitmap_matches_the_linear_counting_composition(
        operations in proptest::collection::vec((0u8..16, 0u64..u64::MAX), 1..900),
        shape in 0usize..GEOMETRIES.len(),
    ) {
        let (components, bits) = GEOMETRIES[shape];
        let geometry = BitmapGeometry::new(components, bits);
        let (mut words, mut set) = (vec![0u64; geometry.words()], vec![0u32; components]);
        let mut interval = MultiResolutionBitmap::with_geometry(geometry);
        let mut batch_reference = ReferenceBitmap::new(components, bits);
        let mut interval_reference = ReferenceBitmap::new(components, bits);
        let probes: Vec<u64> = operations.iter().map(|(_, hash)| *hash).step_by(7).collect();
        // The per-batch side as a bitmap of its own: a copy folded into an
        // empty one.
        let as_bitmap = |words: &[u64], set: &[u32]| {
            let mut bitmap = MultiResolutionBitmap::with_geometry(geometry);
            bitmap.absorb_words(&mut words.to_vec(), &mut set.to_vec());
            bitmap
        };

        for (operation, hash) in &operations {
            match operation {
                0..=8 => {
                    prop_assert_eq!(
                        geometry.set_slot(&mut words, &mut set, geometry.slot(*hash)),
                        batch_reference.insert_hash(*hash)
                    );
                }
                9..=11 => {
                    let slot = geometry.slot(*hash);
                    prop_assert_eq!(interval.insert_slot(slot), interval_reference.insert_hash(*hash));
                }
                12 => {
                    interval.merge(&as_bitmap(&words, &set));
                    interval_reference.merge(&batch_reference);
                }
                13 | 14 => {
                    interval.absorb_words(&mut words, &mut set);
                    prop_assert!(words.iter().all(|&w| w == 0) && set.iter().all(|&s| s == 0));
                    interval_reference.merge(&batch_reference);
                    batch_reference.clear();
                }
                _ => {
                    interval.clear();
                    interval_reference.clear();
                }
            }
            prop_assert_eq!(
                interval.estimate_of(&set).to_bits(),
                batch_reference.estimate().to_bits()
            );
            prop_assert_eq!(interval.estimate().to_bits(), interval_reference.estimate().to_bits());
        }
        assert_same_bitmap(&as_bitmap(&words, &set), &batch_reference, &probes);
        assert_same_bitmap(&interval, &interval_reference, &probes);

        let bytes = saved(|w| interval.save_state(w));
        let mut restored = MultiResolutionBitmap::with_geometry(geometry);
        let mut reader = StateReader::new(&bytes);
        restored.load_state(&mut reader).expect("same geometry");
        reader.finish().expect("no trailing bytes");
        assert_same_bitmap(&restored, &interval_reference, &probes);
        // The restored set-bit counters must keep counting from the right
        // place, not only read back right.
        restored.absorb_words(&mut words, &mut set);
        interval_reference.merge(&batch_reference);
        assert_same_bitmap(&restored, &interval_reference, &probes);
    }

    /// (c) Extraction over sampled views — nothing kept, a 0.37 sample,
    /// everything kept; by packet, by flow, and by flow out of a packet
    /// sample (a view of a view) in turn — across a measurement-interval
    /// boundary and through a mid-run checkpoint equals the ten-pass
    /// reference on all 42 features.
    #[test]
    fn sampled_extraction_matches_the_ten_pass_reference(
        trace_seed in 0u64..500,
        sample_seed in 0u64..500,
        cut in 1usize..12,
    ) {
        // Bins 0..13 at 100 ms: the 1 s interval closes between bins 9 and 10.
        let batches = traffic(trace_seed, 13);
        let hasher = H3Hasher::new(13, sample_seed);
        for rate in [0.0, 0.37, 1.0] {
            let mut rng = StdRng::seed_from_u64(sample_seed);
            let mut pool = KeepListPool::new();
            let mut fused = FeatureExtractor::with_defaults();
            let mut reference = TenPassExtractor::with_defaults();
            for (bin, batch) in batches.iter().enumerate() {
                if bin == cut {
                    let bytes = saved(|w| fused.save_state(w));
                    let mut restored = FeatureExtractor::with_defaults();
                    let mut reader = StateReader::new(&bytes);
                    restored.load_state(&mut reader).expect("same configuration");
                    reader.finish().expect("no trailing bytes");
                    prop_assert_eq!(saved(|w| restored.save_state(w)), bytes);
                    fused = restored;
                }
                let view = match bin % 3 {
                    0 => packet_sample_with(&batch.view(), rate, &mut rng, &mut pool).0,
                    1 => flow_sample_with(&batch.view(), rate, &hasher, &mut pool).0,
                    _ => {
                        let (half, _) = packet_sample_with(&batch.view(), 0.5, &mut rng, &mut pool);
                        flow_sample_with(&half, rate, &hasher, &mut pool).0
                    }
                };
                let (expected, expected_ops) = reference.extract(&view.materialize());
                let (actual, ops) = fused.extract_view(&view);
                prop_assert_eq!(ops, expected_ops);
                assert_same_features(&actual, &expected, &format!("rate {rate}, bin {bin}, cut {cut}"));
            }
        }
    }
}

#[test]
fn every_fill_level_up_to_saturation_agrees_with_the_reference() {
    // Bit by bit up to every bit of every component set: the base steps up
    // exactly where the fill ratio crosses the threshold, the zero count
    // clamps to one at the end.
    for (components, bits) in [(3, 64), (2, 320)] {
        let mut flat = MultiResolutionBitmap::with_geometry(BitmapGeometry::new(components, bits));
        let mut reference = ReferenceBitmap::new(components, bits);
        for item in 0..20_000u64 {
            let hash = mix64(item);
            assert_eq!(insert_hash(&mut flat, hash), reference.insert_hash(hash));
            assert_eq!(flat.estimate().to_bits(), reference.estimate().to_bits(), "item {item}");
        }
        assert_same_bitmap(&flat, &reference, &[mix64(7), mix64(123_456_789)]);
        // The same fill as a per-batch side, folded into an empty interval.
        let geometry = flat.geometry();
        let (mut words, mut set) = (vec![0u64; geometry.words()], vec![0u32; components]);
        for item in 0..20_000u64 {
            geometry.set_slot(&mut words, &mut set, geometry.slot(mix64(item)));
        }
        let mut interval = MultiResolutionBitmap::with_geometry(geometry);
        assert_eq!(interval.estimate_of(&set).to_bits(), reference.estimate().to_bits());
        interval.absorb_words(&mut words, &mut set);
        assert_eq!(interval.estimate_of(&set), 0.0);
        assert_same_bitmap(&interval, &reference, &[mix64(7), mix64(123_456_789)]);
    }
}

/// The flow index of a bin is built once: the full-batch extraction and
/// every sampled re-extraction — whichever shedder narrowed the view —
/// borrow the same index, and the row of every packet's flow is the oracle's
/// hashes of that packet located by locate-then-modulo.
#[test]
fn full_and_sampled_extractions_of_a_bin_borrow_the_same_slot_rows() {
    let batch = traffic(7, 1).remove(0);
    FeatureExtractor::with_defaults().extract(&batch);
    let index = batch.packets.flow_index();

    let mut rng = StdRng::seed_from_u64(3);
    let mut pool = KeepListPool::new();
    let hasher = H3Hasher::new(13, 5);
    for rate in [0.0, 0.1, 0.37, 0.9, 1.0] {
        let (by_packet, _) = packet_sample_with(&batch.view(), rate, &mut rng, &mut pool);
        let (by_flow, _) = flow_sample_with(&batch.view(), rate, &hasher, &mut pool);
        for view in [by_packet, by_flow] {
            FeatureExtractor::with_defaults().extract_view(&view);
            assert!(std::ptr::eq(view.store().flow_index(), index), "rate {rate}");
        }
        assert!(std::ptr::eq(batch.packets.flow_index(), index));
    }

    let reference = ReferenceBitmap::for_cardinality(AGGREGATE_MAX_CARDINALITY);
    assert!(index.flows() < batch.len(), "the traffic must repeat its tuples");
    for (tuple, &flow) in batch.packets.tuples().iter().zip(index.flow_of()) {
        for (aggregate, &slot) in index.rows()[flow as usize].as_array().iter().enumerate() {
            let hash = aggregate_hash(aggregate, tuple, AGGREGATE_HASH_SEED);
            assert_eq!(usize::from(slot), reference.slot(hash), "aggregate {aggregate} of {tuple}");
        }
    }
}

/// The two extremes of flow locality — one flow for the whole bin, and a
/// distinct 5-tuple per packet — full, sampled both ways and as a view of a
/// view, across an interval boundary and a restore, against the ten-pass
/// reference.
#[test]
fn single_flow_and_all_distinct_batches_match_the_ten_pass_reference() {
    let single = vec![FiveTuple::new(0x0a00_0001, 0x0a00_0002, 4321, 80, 6); 400];
    let distinct: Vec<FiveTuple> = (0..400u32)
        .map(|i| FiveTuple::new(0x0a00_0000 + i, 0xc0a8_0000 + i * 7, i as u16, 53, 17))
        .collect();
    let hasher = H3Hasher::new(13, 11);
    for (name, tuples) in [("single flow", single), ("all distinct", distinct)] {
        let flows = batch_of(&tuples, 0).packets.flow_index().flows();
        assert_eq!(flows, if name == "single flow" { 1 } else { tuples.len() }, "{name}");

        let mut rng = StdRng::seed_from_u64(29);
        let mut pool = KeepListPool::new();
        let mut fused = FeatureExtractor::with_defaults();
        let mut reference = TenPassExtractor::with_defaults();
        // Bins 8..12: the 1 s interval closes between bins 9 and 10; the
        // extractor is swapped for its own restore before bin 11.
        for bin in 8..12u64 {
            if bin == 11 {
                let bytes = saved(|w| fused.save_state(w));
                fused = FeatureExtractor::with_defaults();
                fused.load_state(&mut StateReader::new(&bytes)).expect("same configuration");
            }
            let batch = batch_of(&tuples, bin);
            let full = batch.view();
            let (by_packet, _) = packet_sample_with(&full, 0.37, &mut rng, &mut pool);
            let (by_flow, _) = flow_sample_with(&full, 0.37, &hasher, &mut pool);
            let (nested, _) = flow_sample_with(&by_packet, 0.6, &hasher, &mut pool);
            for (shape, view) in
                [("full", full), ("packet", by_packet), ("flow", by_flow), ("nested", nested)]
            {
                let (expected, expected_ops) = reference.extract(&view.materialize());
                let (actual, ops) = fused.extract_view(&view);
                assert_eq!(ops, expected_ops, "{name}, {shape} view, bin {bin}");
                assert_same_features(&actual, &expected, &format!("{name}, {shape}, bin {bin}"));
            }
        }
    }
}

/// A shared scratch is invisible: eight extractors taking turns on one
/// scratch — the order a monitor's worker produces, the full-batch extractor
/// then every query's — agree bit for bit, vector by vector and in their
/// checkpoint bytes, with eight extractors lent a scratch each and with eight
/// ten-pass references, over 32 bins (three interval closes) of full,
/// packet-sampled, flow-sampled, nested and empty views; and the scratch is
/// all zeros after every call.
#[test]
fn a_shared_scratch_is_invisible() {
    let batches = traffic(23, 32);
    let hasher = H3Hasher::new(13, 31);
    let mut rng = StdRng::seed_from_u64(47);
    let mut pool = KeepListPool::new();

    let mut shared_scratch = ExtractScratch::default();
    let mut shared: Vec<_> = (0..8).map(|_| FeatureExtractor::with_defaults()).collect();
    let mut private: Vec<_> =
        (0..8).map(|_| (FeatureExtractor::with_defaults(), ExtractScratch::default())).collect();
    let mut references: Vec<_> = (0..8).map(|_| TenPassExtractor::with_defaults()).collect();

    for (bin, batch) in batches.iter().enumerate() {
        let full = batch.view();
        let (by_packet, _) = packet_sample_with(&full, 0.19, &mut rng, &mut pool);
        let (by_flow, _) = flow_sample_with(&full, 0.37, &hasher, &mut pool);
        let (nested, _) = flow_sample_with(&by_packet, 0.6, &hasher, &mut pool);
        let (thin, _) = packet_sample_with(&by_flow, 0.05, &mut rng, &mut pool);
        let empty = full.cleared_with(&mut pool);
        // Each extractor sees another shape every bin, and no two calls in a
        // row leave the scratch the same bit pattern to clear.
        let shapes = [&full, &by_packet, &by_flow, &nested, &empty, &thin, &by_packet, &full];
        for turn in 0..8 {
            let view = shapes[(turn + bin) % 8];
            let (on_shared, shared_ops) = shared[turn].extract_view_with(view, &mut shared_scratch);
            assert!(shared_scratch.is_empty(), "bin {bin}, turn {turn}");
            let (extractor, scratch) = &mut private[turn];
            let (on_private, private_ops) = extractor.extract_view_with(view, scratch);
            assert!(scratch.is_empty(), "bin {bin}, turn {turn}");
            let (expected, expected_ops) = references[turn].extract(&view.materialize());

            let context = format!("bin {bin}, turn {turn}");
            assert_eq!((shared_ops, private_ops), (expected_ops, expected_ops), "{context}");
            assert_same_features(&on_shared, &expected, &context);
            assert_same_features(&on_private, &expected, &context);
            assert_eq!(
                saved(|w| shared[turn].save_state(w)),
                saved(|w| extractor.save_state(w)),
                "{context}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Re-homed from the production crates' unit tests with the code they
// compared against.
// ---------------------------------------------------------------------------

fn estimate_error(actual: usize, estimate: f64) -> f64 {
    (estimate - actual as f64).abs() / actual as f64
}

#[test]
fn linear_counting_is_accurate_below_saturation() {
    let mut lc = LinearCounting::new(8192);
    let n = 2000usize;
    for i in 0..n {
        lc.insert_hash(hash_bytes(&(i as u64).to_be_bytes(), 1));
    }
    assert!(estimate_error(n, lc.estimate()) < 0.05, "estimate {}", lc.estimate());
}

#[test]
fn linear_counting_detects_duplicates() {
    let mut lc = LinearCounting::new(8192);
    let h = hash_bytes(b"x", 1);
    assert!(lc.insert_hash(h));
    assert!(!lc.insert_hash(h));
    assert!(lc.contains_hash(h));
}

#[test]
fn linear_counting_merge_unions_sets() {
    let mut a = LinearCounting::new(4096);
    let mut b = LinearCounting::new(4096);
    for i in 0..500u64 {
        a.insert_hash(mix64(i));
        b.insert_hash(mix64(i + 250));
    }
    a.merge(&b);
    assert!(estimate_error(750, a.estimate()) < 0.08, "estimate {}", a.estimate());
}

#[test]
fn keys_only_depend_on_the_aggregated_fields() {
    let a = FiveTuple::new(1, 2, 3, 4, 6);
    let b = FiveTuple::new(1, 9, 8, 7, 6);
    // Same source IP and protocol, so the src-ip key must match.
    assert_eq!(aggregate_key(Aggregate::SrcIp, &a), aggregate_key(Aggregate::SrcIp, &b));
    // Destination differs, so the dst-ip key must not match.
    assert_ne!(aggregate_key(Aggregate::DstIp, &a), aggregate_key(Aggregate::DstIp, &b));
    // Full 5-tuple key differs, and is the flow key.
    assert_ne!(aggregate_key(Aggregate::FiveTuple, &a), aggregate_key(Aggregate::FiveTuple, &b));
    assert_eq!(aggregate_key(Aggregate::FiveTuple, &a), a.as_key());
}

#[test]
fn src_port_proto_ignores_addresses() {
    let a = FiveTuple::new(10, 20, 1234, 80, 6);
    let b = FiveTuple::new(99, 77, 1234, 443, 6);
    assert_eq!(
        aggregate_key(Aggregate::SrcPortProto, &a),
        aggregate_key(Aggregate::SrcPortProto, &b)
    );
}

#[test]
fn single_pass_hashes_match_the_per_key_reference() {
    // The slot rows are located from these hashes: the fused computation
    // must be bit-identical to hashing each aggregate's padded key.
    let tuples = [
        FiveTuple::new(0, 0, 0, 0, 0),
        FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, 6),
        FiveTuple::new(u32::MAX, 1, u16::MAX, 65534, 17),
        FiveTuple::new(0xc0a80001, 0x08080808, 53123, 53, 17),
    ];
    for seed in [0u64, AGGREGATE_HASH_SEED, u64::MAX] {
        for tuple in &tuples {
            let hashes = AggregateHashes::compute(tuple, seed);
            for (index, aggregate) in Aggregate::ALL.iter().enumerate() {
                let reference = aggregate_hash(index, tuple, seed);
                assert_eq!(
                    hashes.as_array()[index],
                    reference,
                    "aggregate {} seed {seed:#x} tuple {tuple}",
                    aggregate.name()
                );
            }
        }
    }
}

fn batch_of(tuples: &[FiveTuple], bin: u64) -> Batch {
    let packets: Vec<Packet> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| Packet::header_only(bin * 100_000 + i as u64, *t, 100, 0))
        .collect();
    Batch::new(bin, bin * 100_000, 100_000, packets)
}

#[test]
fn fused_extraction_is_bit_identical_to_the_ten_pass_reference() {
    let tuples: Vec<FiveTuple> =
        (0..500).map(|i| FiveTuple::new(i % 97, i % 13, (i % 31) as u16, 80, 6)).collect();
    // Two bins in the same interval plus one in a fresh interval, and three
    // intervals in a row: the per-batch counters must not depend on what
    // the interval bookkeeping did before them, so the reference is a fresh
    // ten-pass extractor per bin.
    for bins in [[0u64, 1, 10], [0, 10, 20]] {
        let mut extractor = FeatureExtractor::with_defaults();
        for bin in bins {
            let batch = batch_of(&tuples, bin);
            let (features, _) = extractor.extract(&batch);
            let (reference, _) = TenPassExtractor::with_defaults().extract(&batch);
            for aggregate in Aggregate::ALL {
                let id = FeatureId::Counter(aggregate, CounterKind::Unique);
                assert_eq!(
                    features.get(id),
                    reference.get(id),
                    "aggregate {} diverged from the reference on bin {bin}",
                    aggregate.name()
                );
            }
        }
    }
}

#[test]
fn ten_pass_baseline_agrees_with_the_fused_extractor() {
    let mut generator = TraceGenerator::new(
        TraceConfig::default().with_seed(17).with_mean_packets_per_batch(400.0),
    );
    let batches = generator.batches(5);
    let mut fused = FeatureExtractor::with_defaults();
    let mut baseline = TenPassExtractor::with_defaults();
    for batch in &batches {
        let (a, ops_a) = fused.extract(batch);
        let (b, ops_b) = baseline.extract(batch);
        assert_eq!(ops_a, ops_b);
        assert_same_features(&a, &b, "bin");
    }
}
