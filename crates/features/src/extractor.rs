//! The per-batch feature extractor.
//!
//! The extractor is *fused*: instead of one pass over the batch per aggregate
//! (ten passes, each re-serialising and re-hashing a 13-byte key per packet),
//! it walks the batch once and sets ten precomputed
//! [`AggregateSlots`](netshed_trace::AggregateSlots) in the ten per-batch
//! bitmaps — once per *flow* of the view: a set bit is idempotent and the
//! slots are a function of the 5-tuple. They are computed once per flow per
//! batch and cached on the shared packet store (its `FlowIndex`), so a
//! query's sampled re-extraction reuses what the full-batch extraction paid
//! for. Seed and geometry are therefore constants, not configuration: an
//! extractor that disagreed with the store would read another bitmap's rows.

use crate::aggregate::{Aggregate, AGGREGATE_COUNT, AGGREGATE_MAX_CARDINALITY};
use crate::vector::{CounterKind, FeatureId, FeatureVector};
use netshed_sketch::{BitmapGeometry, MultiResolutionBitmap, StateError, StateReader, StateWriter};
use netshed_trace::{Batch, BatchView, FlowSet};

/// Configuration of the feature extractor.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Duration of the measurement interval in microseconds; the "new items"
    /// bitmaps are reset at every interval boundary.
    pub measurement_interval_us: u64,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        Self { measurement_interval_us: netshed_trace::DEFAULT_MEASUREMENT_INTERVAL_US }
    }
}

/// Per-aggregate bitmap state.
struct AggregateState {
    /// Distinct items observed in the current batch. Empty between
    /// extractions: the fold into `interval_seen` drains it.
    batch_unique: MultiResolutionBitmap,
    /// Distinct items observed in the current measurement interval.
    interval_seen: MultiResolutionBitmap,
}

impl AggregateState {
    /// Folds the filled per-batch bitmap into the interval state and returns
    /// the four counters, in vector order: unique, new (derived from the
    /// interval-estimate difference around a single merge per batch, as in
    /// the paper), repeated and batch-repeated.
    fn interval_counters(&mut self, packets: f64) -> [f64; 4] {
        let unique = self.batch_unique.estimate().min(packets).round();
        let before = self.interval_seen.estimate();
        self.interval_seen.absorb(&mut self.batch_unique);
        let after = self.interval_seen.estimate();
        let new = (after - before).clamp(0.0, unique).round();
        let repeated = (packets - unique).max(0.0);
        let batch_repeated = (packets - new).max(0.0);
        [unique, new, repeated, batch_repeated]
    }
}

/// Extracts the 42-feature vector from every batch.
///
/// The extractor is stateful: the "new items" counters compare each batch
/// against everything seen since the start of the current measurement
/// interval, so batches must be fed in order.
pub struct FeatureExtractor {
    config: ExtractorConfig,
    aggregates: [AggregateState; AGGREGATE_COUNT],
    current_interval: Option<u64>,
    batches_processed: u64,
    /// Scratch: the flows of a sampled view whose bits are already set.
    seen: FlowSet,
}

// Per-query extractors are handed to execution-plane workers (`&mut` moves
// across the scoped-thread boundary), so the extractor — owned bitmap state
// only — must stay `Send`, and the vectors it produces `Send + Sync`.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<FeatureExtractor>();
    assert_send_sync::<FeatureVector>();
};

impl std::fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureExtractor")
            .field("batches_processed", &self.batches_processed)
            .field("current_interval", &self.current_interval)
            .finish_non_exhaustive()
    }
}

impl FeatureExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        let geometry = BitmapGeometry::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        let aggregates = std::array::from_fn(|_| AggregateState {
            batch_unique: MultiResolutionBitmap::with_geometry(geometry),
            interval_seen: MultiResolutionBitmap::with_geometry(geometry),
        });
        Self {
            config,
            aggregates,
            current_interval: None,
            batches_processed: 0,
            seen: FlowSet::default(),
        }
    }

    /// Creates an extractor with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ExtractorConfig::default())
    }

    /// Number of batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.batches_processed
    }

    /// Approximate memory footprint of the bitmap state in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.aggregates
            .iter()
            .map(|a| a.batch_unique.memory_bytes() + a.interval_seen.memory_bytes())
            .sum()
    }

    /// Serializes the extractor's interval state for a checkpoint: the
    /// current interval marker, the batch count, and every aggregate's
    /// per-interval bitmap. The "new items" counters compare each batch
    /// against everything seen since the interval began, so this state is
    /// essential — it cannot be rebuilt without replaying the whole interval.
    /// The per-batch bitmaps are empty between batches and are not written.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.opt_u64(self.current_interval);
        writer.u64(self.batches_processed);
        for state in &self.aggregates {
            state.interval_seen.save_state(writer);
        }
    }

    /// Restores state captured by [`FeatureExtractor::save_state`] into an
    /// extractor built from the same configuration.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.current_interval = reader.opt_u64()?;
        self.batches_processed = reader.u64()?;
        for state in &mut self.aggregates {
            state.interval_seen.load_state(reader)?;
        }
        Ok(())
    }

    /// Extracts the feature vector for a batch.
    ///
    /// The estimated number of elementary operations performed (one hash +
    /// bitmap update per aggregate per packet) is returned alongside the
    /// vector so the caller can account for the extraction overhead
    /// (Table 3.4 of the paper).
    pub fn extract(&mut self, batch: &Batch) -> (FeatureVector, u64) {
        self.extract_view(&batch.view())
    }

    /// Extracts the feature vector for a (possibly sampled) batch view.
    ///
    /// Identical to [`FeatureExtractor::extract`] but operates on the
    /// zero-copy [`BatchView`] the shedders produce; the per-flow aggregate
    /// slots are shared with every other consumer of the same batch.
    pub fn extract_view(&mut self, view: &BatchView) -> (FeatureVector, u64) {
        let interval = view.measurement_interval(self.config.measurement_interval_us);
        if self.current_interval != Some(interval) {
            for state in &mut self.aggregates {
                state.interval_seen.clear();
            }
            self.current_interval = Some(interval);
        }
        self.batches_processed += 1;

        let packets = view.len() as f64;
        // Fused single pass, flow-major: a flow's ten slots are set once, at
        // its first packet in the view; the others could only set them again.
        let rows = view.store().flow_index().rows();
        for (flow, _) in view.first_of_flows(&mut self.seen) {
            for (state, &slot) in self.aggregates.iter_mut().zip(rows[flow].as_array()) {
                state.batch_unique.insert_slot(slot);
            }
        }

        let mut vector = FeatureVector::zeros();
        vector.set(FeatureId::Packets, packets);
        vector.set(FeatureId::Bytes, view.total_bytes() as f64);
        for (agg_idx, aggregate) in Aggregate::ALL.iter().enumerate() {
            let [unique, new, repeated, batch_repeated] =
                self.aggregates[agg_idx].interval_counters(packets);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::Unique), unique);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::New), new);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::Repeated), repeated);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::BatchRepeated), batch_repeated);
        }
        let operations = view.len() as u64 * Aggregate::ALL.len() as u64;
        (vector, operations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_trace::{FiveTuple, Packet};

    fn batch_of(tuples: &[FiveTuple], bin: u64) -> Batch {
        let packets: Vec<Packet> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Packet::header_only(bin * 100_000 + i as u64, *t, 100, 0))
            .collect();
        Batch::new(bin, bin * 100_000, 100_000, packets)
    }

    #[test]
    fn packets_and_bytes_are_exact() {
        let tuples = vec![FiveTuple::new(1, 2, 3, 4, 6); 10];
        let mut extractor = FeatureExtractor::with_defaults();
        let (features, ops) = extractor.extract(&batch_of(&tuples, 0));
        assert_eq!(features.packets(), 10.0);
        assert_eq!(features.bytes(), 1000.0);
        assert_eq!(ops, 10 * Aggregate::ALL.len() as u64);
    }

    #[test]
    fn unique_counts_distinct_tuples() {
        let tuples: Vec<FiveTuple> = (0..100).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
        let mut extractor = FeatureExtractor::with_defaults();
        let (features, _) = extractor.extract(&batch_of(&tuples, 0));
        let unique_src = features.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::Unique));
        assert!((unique_src - 100.0).abs() <= 10.0, "unique src-ip estimate {unique_src}");
        // All packets share the destination IP, so unique dst-ip is ~1.
        let unique_dst = features.get(FeatureId::Counter(Aggregate::DstIp, CounterKind::Unique));
        assert!(unique_dst <= 3.0, "unique dst-ip estimate {unique_dst}");
    }

    #[test]
    fn repeated_is_packets_minus_unique() {
        let tuples: Vec<FiveTuple> = (0..50).map(|i| FiveTuple::new(i % 10, 2, 3, 4, 6)).collect();
        let mut extractor = FeatureExtractor::with_defaults();
        let (features, _) = extractor.extract(&batch_of(&tuples, 0));
        let unique = features.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::Unique));
        let repeated = features.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::Repeated));
        assert!((unique + repeated - 50.0).abs() < 1e-9);
    }

    #[test]
    fn new_items_shrink_within_a_measurement_interval() {
        let tuples: Vec<FiveTuple> = (0..200).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
        let mut extractor = FeatureExtractor::with_defaults();
        // Bin 0 and bin 1 fall into the same 1 s measurement interval.
        let (first, _) = extractor.extract(&batch_of(&tuples, 0));
        let (second, _) = extractor.extract(&batch_of(&tuples, 1));
        let new_first = first.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::New));
        let new_second = second.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::New));
        assert!(new_first > 150.0, "first batch should be mostly new: {new_first}");
        assert!(
            new_second < new_first * 0.3,
            "second identical batch should have few new items: {new_second}"
        );
    }

    #[test]
    fn new_items_reset_at_interval_boundaries() {
        let tuples: Vec<FiveTuple> = (0..200).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
        let mut extractor = FeatureExtractor::with_defaults();
        let (_, _) = extractor.extract(&batch_of(&tuples, 0));
        // Bin 10 starts a new 1 s measurement interval (10 * 100 ms).
        let (third, _) = extractor.extract(&batch_of(&tuples, 10));
        let new_third = third.get(FeatureId::Counter(Aggregate::SrcIp, CounterKind::New));
        assert!(new_third > 150.0, "items should count as new again: {new_third}");
    }

    #[test]
    fn checkpoint_carries_the_interval_bitmaps_only() {
        let tuples: Vec<FiveTuple> = (0..200).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
        let mut extractor = FeatureExtractor::with_defaults();
        extractor.extract(&batch_of(&tuples, 0));
        let mut writer = StateWriter::new();
        extractor.save_state(&mut writer);
        // Half the bitmap memory (the per-interval half) plus framing.
        let bitmaps = extractor.memory_bytes();
        assert!(writer.len() > bitmaps / 2, "{} of {bitmaps}", writer.len());
        assert!(writer.len() < bitmaps / 2 + 1024, "{} of {bitmaps}", writer.len());

        let bytes = writer.into_bytes();
        let mut restored = FeatureExtractor::with_defaults();
        restored.load_state(&mut StateReader::new(&bytes)).expect("same configuration");
        let (expected, _) = extractor.extract(&batch_of(&tuples[100..], 1));
        let (actual, _) = restored.extract(&batch_of(&tuples[100..], 1));
        for id in FeatureId::all() {
            assert_eq!(expected.get(id), actual.get(id), "feature {} after restore", id.name());
        }
    }

    #[test]
    fn view_extraction_matches_materialized_extraction() {
        let tuples: Vec<FiveTuple> = (0..300).map(|i| FiveTuple::new(i, 2, 3, 4, 6)).collect();
        let batch = batch_of(&tuples, 0);
        let view = batch.view().filter_indexed(|index, _| index % 3 != 0);

        let mut on_view = FeatureExtractor::with_defaults();
        let mut on_copy = FeatureExtractor::with_defaults();
        let (from_view, ops_view) = on_view.extract_view(&view);
        let (from_copy, ops_copy) = on_copy.extract(&view.materialize());
        assert_eq!(ops_view, ops_copy);
        for id in FeatureId::all() {
            assert_eq!(
                from_view.get(id),
                from_copy.get(id),
                "feature {} differs between view and materialized batch",
                id.name()
            );
        }
    }

    #[test]
    fn empty_batch_yields_zero_vector() {
        let mut extractor = FeatureExtractor::with_defaults();
        let (features, ops) = extractor.extract(&Batch::empty(0, 0, 100_000));
        assert_eq!(features.packets(), 0.0);
        assert_eq!(ops, 0);
        for id in FeatureId::all() {
            assert_eq!(features.get(id), 0.0, "feature {} non-zero", id.name());
        }
    }
}
