//! Bit-identity of the locate-once feature extraction at every seam.
//!
//! The slot side array, the flat multi-resolution bitmap and its estimator
//! table replaced the per-packet hash rows and the `Vec<LinearCounting>`
//! layout. Nothing a feature vector holds may have moved, so each layer is
//! pinned here against the code it replaced: the slot against
//! locate-then-modulo, the flat bitmap against one [`LinearCounting`] per
//! component, and the extractor — on full and sampled views, across an
//! interval boundary and a restore — against the ten-pass reference on all 42
//! features.

use netshed::features::{ExtractorConfig, FeatureExtractor, FeatureId, FeatureVector};
use netshed::monitor::packet_sample;
use netshed::sketch::{
    mix64, BitmapGeometry, LinearCounting, MultiResolutionBitmap, StateReader, StateWriter,
};
use netshed::trace::{Batch, TraceConfig, TraceGenerator};
use netshed_bench::baseline::TenPassExtractor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Power-of-two component sizes take the mask, the others the `%`; the small
/// ones saturate within a few hundred inserts.
const GEOMETRIES: [(usize, usize); 7] =
    [(6, 4096), (16, 4096), (3, 64), (4, 128), (5, 192), (2, 320), (3, 4032)];

/// The multi-resolution bitmap as it was before the flat layout: one
/// [`LinearCounting`] per component, located per insert.
struct ReferenceBitmap {
    components: Vec<LinearCounting>,
}

impl ReferenceBitmap {
    fn new(num_components: usize, bits_per_component: usize) -> Self {
        Self {
            components: (0..num_components)
                .map(|_| LinearCounting::new(bits_per_component))
                .collect(),
        }
    }

    fn locate(&self, hash: u64) -> (usize, u64) {
        let last = self.components.len() - 1;
        ((hash.trailing_ones() as usize).min(last), mix64(hash >> 16))
    }

    fn slot(&self, hash: u64) -> usize {
        let (component, bit_hash) = self.locate(hash);
        let bits = self.components[component].capacity_bits();
        component * bits + (bit_hash % bits as u64) as usize
    }

    fn insert_hash(&mut self, hash: u64) -> bool {
        let (component, bit_hash) = self.locate(hash);
        self.components[component].insert_hash(bit_hash)
    }

    fn contains_hash(&self, hash: u64) -> bool {
        let (component, bit_hash) = self.locate(hash);
        self.components[component].contains_hash(bit_hash)
    }

    fn estimate(&self) -> f64 {
        let last = self.components.len() - 1;
        let mut base = 0usize;
        while base < last && self.components[base].fill_ratio() > 0.93 {
            base += 1;
        }
        let mut sum = 0.0;
        for component in &self.components[base..] {
            sum += component.estimate();
        }
        sum * (1u64 << base) as f64
    }

    fn clear(&mut self) {
        self.components.iter_mut().for_each(LinearCounting::clear);
    }

    fn merge(&mut self, other: &ReferenceBitmap) {
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            a.merge(b);
        }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.components.len());
        for component in &self.components {
            component.save_state(writer);
        }
    }
}

fn saved(save: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
    let mut writer = StateWriter::new();
    save(&mut writer);
    writer.into_bytes()
}

fn assert_same_bitmap(flat: &MultiResolutionBitmap, reference: &ReferenceBitmap, probes: &[u64]) {
    assert_eq!(flat.estimate().to_bits(), reference.estimate().to_bits());
    for &probe in probes {
        assert_eq!(flat.contains_hash(probe), reference.contains_hash(probe), "probe {probe:#x}");
    }
    assert_eq!(saved(|w| flat.save_state(w)), saved(|w| reference.save_state(w)));
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
    /// clears, the flat bitmap pair agrees with the `LinearCounting`
    /// composition on the estimate (to the bit), on membership and on the
    /// serialized bytes — and a restore of those bytes agrees again.
    #[test]
    fn flat_bitmap_matches_the_linear_counting_composition(
        operations in proptest::collection::vec((0u8..16, 0u64..u64::MAX), 1..900),
        shape in 0usize..GEOMETRIES.len(),
    ) {
        let (components, bits) = GEOMETRIES[shape];
        let mut batch = MultiResolutionBitmap::new(components, bits);
        let mut interval = MultiResolutionBitmap::new(components, bits);
        let mut batch_reference = ReferenceBitmap::new(components, bits);
        let mut interval_reference = ReferenceBitmap::new(components, bits);
        let probes: Vec<u64> = operations.iter().map(|(_, hash)| *hash).step_by(7).collect();

        for (operation, hash) in &operations {
            match operation {
                0..=8 => {
                    prop_assert_eq!(batch.insert_hash(*hash), batch_reference.insert_hash(*hash));
                }
                9..=11 => {
                    let slot = batch.geometry().slot(*hash);
                    prop_assert_eq!(interval.insert_slot(slot), interval_reference.insert_hash(*hash));
                }
                12 => {
                    interval.merge(&batch);
                    interval_reference.merge(&batch_reference);
                }
                13 | 14 => {
                    interval.absorb(&mut batch);
                    interval_reference.merge(&batch_reference);
                    batch_reference.clear();
                }
                _ => {
                    interval.clear();
                    interval_reference.clear();
                }
            }
            prop_assert_eq!(batch.estimate().to_bits(), batch_reference.estimate().to_bits());
            prop_assert_eq!(interval.estimate().to_bits(), interval_reference.estimate().to_bits());
        }
        assert_same_bitmap(&batch, &batch_reference, &probes);
        assert_same_bitmap(&interval, &interval_reference, &probes);

        let bytes = saved(|w| interval.save_state(w));
        let mut restored = MultiResolutionBitmap::new(components, bits);
        let mut reader = StateReader::new(&bytes);
        restored.load_state(&mut reader).expect("same geometry");
        reader.finish().expect("no trailing bytes");
        assert_same_bitmap(&restored, &interval_reference, &probes);
        // The restored set-bit counters must keep counting from the right
        // place, not only read back right.
        restored.absorb(&mut batch);
        interval_reference.merge(&batch_reference);
        assert_same_bitmap(&restored, &interval_reference, &probes);
    }

    /// (c) Extraction over sampled views — nothing kept, a 0.37 sample,
    /// everything kept — across a measurement-interval boundary and through a
    /// mid-run checkpoint equals the ten-pass reference on all 42 features.
    #[test]
    fn sampled_extraction_matches_the_ten_pass_reference(
        trace_seed in 0u64..500,
        sample_seed in 0u64..500,
        cut in 1usize..12,
    ) {
        // Bins 0..13 at 100 ms: the 1 s interval closes between bins 9 and 10.
        let batches = traffic(trace_seed, 13);
        for rate in [0.0, 0.37, 1.0] {
            let mut rng = StdRng::seed_from_u64(sample_seed);
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
                let (view, _) = packet_sample(&batch.view(), rate, &mut rng);
                let (expected, expected_ops) = reference.extract(&view.materialize());
                let (actual, ops) = fused.extract_view(&view);
                prop_assert_eq!(ops, expected_ops);
                assert_same_features(&actual, &expected, &format!("rate {rate}, bin {bin}, cut {cut}"));
            }
        }
    }

    /// (d) An extractor whose seed *or* geometry does not own the batch's
    /// slot cache locates for itself: every such claim is counted on the
    /// store, and the vector equals the one from a batch whose cache it owns.
    #[test]
    fn foreign_seed_or_geometry_takes_the_counted_fallback(
        trace_seed in 0u64..500,
        foreign_seed in 1u64..u64::MAX,
        foreign_geometry in 0usize..2,
    ) {
        let owner = ExtractorConfig::default();
        let foreign = if foreign_geometry == 1 {
            // 4 components instead of 6: same seed, other slots.
            ExtractorConfig { max_cardinality: 50_000, ..owner.clone() }
        } else {
            ExtractorConfig { hash_seed: owner.hash_seed ^ foreign_seed, ..owner.clone() }
        };
        let batches = traffic(trace_seed, 2);

        let mut claims = FeatureExtractor::new(owner);
        let mut fused = FeatureExtractor::new(foreign.clone());
        let mut on_fresh = FeatureExtractor::new(foreign.clone());
        let mut reference = TenPassExtractor::new(foreign);
        for batch in &batches {
            claims.extract(batch);
            prop_assert_eq!(batch.packets.slot_claim_misses(), 0);
            let view = batch.view().filter_indexed(|index, _| index % 3 != 1);

            let (from_fused, _) = fused.extract_view(&view);
            prop_assert_eq!(batch.packets.slot_claim_misses(), 1);

            let fresh = view.materialize();
            let (expected, _) = on_fresh.extract(&fresh);
            prop_assert_eq!(fresh.packets.slot_claim_misses(), 0);
            assert_same_features(&from_fused, &expected, "fused fallback");
            let (expected, _) = reference.extract(&fresh);
            assert_same_features(&from_fused, &expected, "ten-pass reference");
        }
    }
}

#[test]
fn every_fill_level_up_to_saturation_agrees_with_the_reference() {
    // Bit by bit up to every bit of every component set: the base steps up
    // exactly where the fill ratio crosses the threshold, the zero count
    // clamps to one at the end.
    for (components, bits) in [(3, 64), (2, 320)] {
        let mut flat = MultiResolutionBitmap::new(components, bits);
        let mut reference = ReferenceBitmap::new(components, bits);
        for item in 0..20_000u64 {
            let hash = mix64(item);
            assert_eq!(flat.insert_hash(hash), reference.insert_hash(hash));
            assert_eq!(flat.estimate().to_bits(), reference.estimate().to_bits(), "item {item}");
        }
        assert_same_bitmap(&flat, &reference, &[mix64(7), mix64(123_456_789)]);
        let mut interval = MultiResolutionBitmap::new(components, bits);
        interval.absorb(&mut flat);
        assert_eq!(flat.estimate(), 0.0);
        assert_same_bitmap(&interval, &reference, &[mix64(7), mix64(123_456_789)]);
    }
}
