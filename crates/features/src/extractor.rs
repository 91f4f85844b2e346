//! The per-batch feature extractor.
//!
//! The extractor is *fused*: instead of one pass over the batch per aggregate
//! (ten passes, each re-serialising and re-hashing a 13-byte key per packet),
//! it walks the batch once and sets ten precomputed
//! [`AggregateSlots`] in ten per-batch
//! bitmaps — once per *flow* of the view: a set bit is idempotent and the
//! slots are a function of the 5-tuple. They are computed once per flow per
//! batch and cached on the shared packet store (its `FlowIndex`), so a
//! query's sampled re-extraction reuses what the full-batch extraction paid
//! for. Seed and geometry are therefore constants, not configuration: an
//! extractor that disagreed with the store would read another bitmap's rows.
//!
//! The per-batch bitmaps are all zeros between two extractions, so they are
//! nobody's state: the caller lends an [`ExtractScratch`] for the call (a
//! monitor keeps one per worker) and an extractor owns the interval half.
//!
//! Samples that nest — each packet carries one key and a sample keeps the
//! packets whose key is below its threshold — are re-extracted by one
//! [`NestedPass`] instead of one walk each: the scratch grows band by band,
//! smallest threshold first, and each sample's extractor folds it as it
//! stands when its threshold is reached (DESIGN.md, "Fused extractor").

use crate::aggregate::{Aggregate, AGGREGATE_COUNT, AGGREGATE_MAX_CARDINALITY};
use crate::vector::{CounterKind, FeatureId, FeatureVector};
use netshed_sketch::{BitmapGeometry, MultiResolutionBitmap, StateError, StateReader, StateWriter};
use netshed_trace::{AggregateSlots, Batch, BatchView, FlowSet};

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

/// What one extraction needs and nothing outlives: the ten per-batch bitmaps
/// — flat words and per-component counts, aggregate-major, each laid out as
/// a [`MultiResolutionBitmap`]'s — and the distinct flows of a sampled view.
/// All zeros between calls, so any number of extractors take turns on one and
/// which one served a call cannot show; never in a snapshot or a digest.
#[derive(Debug)]
pub struct ExtractScratch {
    geometry: BitmapGeometry,
    words: Vec<u64>,
    set: Vec<u32>,
    /// The distinct flows of the view under way, in view order, and the set
    /// that tells a flow's first sighting from its later ones; a nested pass
    /// keeps its flows here too, by band.
    flows: Vec<u32>,
    seen: FlowSet,
    bands: Bands,
}

/// A nested pass's bands: band `b` holds the packets whose key is at least
/// the pass's `b`-th threshold and below the next (band 0 starts at 0, and
/// one band past the last holds the packets no threshold keeps).
#[derive(Debug, Default)]
struct Bands {
    /// Packets and IP bytes by band.
    packets: Vec<u64>,
    bytes: Vec<u64>,
    /// Flow id → the lowest band a packet of the flow fell in: the first
    /// sample the flow belongs to.
    band_of_flow: Vec<u32>,
    /// Where each band's flows end in the scratch's flow list.
    ends: Vec<usize>,
}

impl Default for ExtractScratch {
    fn default() -> Self {
        let geometry = BitmapGeometry::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        Self {
            geometry,
            words: vec![0; AGGREGATE_COUNT * geometry.words()],
            set: vec![0; AGGREGATE_COUNT * geometry.components()],
            flows: Vec::default(),
            seen: FlowSet::default(),
            bands: Bands::default(),
        }
    }
}

impl ExtractScratch {
    /// Memory footprint of the per-batch bitmaps in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Returns `true` if no bit is set: the state between two extractions.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0) && self.set.iter().all(|&set| set == 0)
    }

    /// Each aggregate's words and per-component counts, in aggregate order.
    fn bitmaps(&mut self) -> impl Iterator<Item = (&mut [u64], &mut [u32])> {
        let words = self.words.chunks_exact_mut(self.geometry.words());
        words.zip(self.set.chunks_exact_mut(self.geometry.components()))
    }

    /// Sets the ten slots of every distinct flow of `view` and returns the
    /// view's IP bytes. A full view holds every flow of the index; a sampled
    /// one is walked once, branch-free: each packet's flow id is written at
    /// the flow list's tail and the tail moves only at a flow's first
    /// sighting, so the inserts run per flow behind no per-packet coin flip.
    fn fill(&mut self, view: &BatchView) -> u64 {
        let index = view.store().flow_index();
        if view.is_full() {
            self.insert(index.rows().iter());
            return view.stats().bytes;
        }
        let mut flows = std::mem::take(&mut self.flows);
        flows.resize(view.len(), 0);
        self.seen.reset(index.flows());
        let (mut distinct, mut bytes) = (0, 0);
        for (at, packet) in view.indexed_packets() {
            let flow = index.flow_of()[at];
            flows[distinct] = flow;
            distinct += usize::from(self.seen.insert(flow as usize));
            bytes += u64::from(packet.ip_len());
        }
        flows.truncate(distinct);
        self.insert(flows.iter().map(|&flow| &index.rows()[flow as usize]));
        self.flows = flows;
        bytes
    }

    /// Sets every row's ten slots, one per aggregate's bitmap.
    fn insert<'a>(&mut self, rows: impl Iterator<Item = &'a AggregateSlots>) {
        let geometry = self.geometry;
        for row in rows {
            for ((words, set), &slot) in self.bitmaps().zip(row.as_array()) {
                geometry.set_slot(words, set, slot);
            }
        }
    }

    /// Zeroes every component a bit was set in.
    fn clear(&mut self) {
        let per_component = self.geometry.words_per_component();
        for (words, set) in self.words.chunks_exact_mut(per_component).zip(&mut self.set) {
            if *set != 0 {
                words.fill(0);
                *set = 0;
            }
        }
    }

    /// Opens a nested pass over `view`: `keys` holds one key per packet of
    /// its store, by store index, and the sample at threshold `t` — one of
    /// `thresholds`, ascending and distinct — is the view's packets whose key
    /// is below `t` (so `view` may be the sample at the largest threshold
    /// itself, or any view containing it). One walk of the view sorts the
    /// packets into the bands the thresholds cut and every flow into the
    /// band of its first sample; [`NestedPass::extract`] then extracts the
    /// samples smallest first, and the scratch is handed back empty when the
    /// pass is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `keys` holds no key for a packet of the view, or (debug
    /// builds) if the thresholds are not ascending and distinct.
    pub fn nested<'a>(
        &'a mut self,
        view: &'a BatchView,
        keys: &[u64],
        thresholds: &'a [u64],
    ) -> NestedPass<'a> {
        debug_assert!(thresholds.windows(2).all(|pair| pair[0] < pair[1]));
        let index = view.store().flow_index();
        let (bands, outside) = (&mut self.bands, thresholds.len());
        for sums in [&mut bands.packets, &mut bands.bytes] {
            sums.clear();
            sums.resize(outside + 1, 0);
        }
        bands.band_of_flow.clear();
        bands.band_of_flow.resize(index.flows(), outside as u32);
        for (at, packet) in view.indexed_packets() {
            let band = thresholds.partition_point(|&threshold| threshold <= keys[at]);
            bands.packets[band] += 1;
            bands.bytes[band] += u64::from(packet.ip_len());
            let first = &mut bands.band_of_flow[index.flow_of()[at] as usize];
            *first = (*first).min(band as u32);
        }
        // The flows by band (a counting sort): `ends` counts, then holds
        // each band's start, then — once every flow is placed — its end.
        bands.ends.clear();
        bands.ends.resize(outside + 1, 0);
        for &band in &bands.band_of_flow {
            bands.ends[band as usize] += 1;
        }
        let mut start = 0;
        for end in &mut bands.ends {
            (*end, start) = (start, start + *end);
        }
        self.flows.resize(index.flows(), 0);
        for (flow, &band) in bands.band_of_flow.iter().enumerate() {
            let at = &mut bands.ends[band as usize];
            self.flows[*at] = flow as u32;
            *at += 1;
        }
        NestedPass { scratch: self, view, thresholds, inserted: 0, packets: 0, bytes: 0 }
    }
}

/// One nested pass over a view, opened by [`ExtractScratch::nested`]: the
/// lent scratch holds the union of the bands extracted so far.
#[derive(Debug)]
pub struct NestedPass<'a> {
    scratch: &'a mut ExtractScratch,
    view: &'a BatchView,
    thresholds: &'a [u64],
    /// Bands inserted into the scratch, and their packets and IP bytes.
    inserted: usize,
    packets: u64,
    bytes: u64,
}

impl NestedPass<'_> {
    /// [`FeatureExtractor::extract_view_with`] of the sample at `threshold`,
    /// bit for bit, on `extractor`: the bands below the threshold not yet in
    /// the scratch are inserted (each flow once, at its first sample) and the
    /// extractor folds the scratch without emptying it. Samples are asked
    /// smallest threshold first; several extractors may ask for one.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not one the pass was opened with, or is below
    /// one already asked for.
    pub fn extract(
        &mut self,
        extractor: &mut FeatureExtractor,
        threshold: u64,
    ) -> (FeatureVector, u64) {
        let scratch = &mut *self.scratch;
        let band = self.thresholds.partition_point(|&t| t < threshold);
        assert_eq!(
            self.thresholds.get(band),
            Some(&threshold),
            "a threshold the pass was opened with"
        );
        assert!(band + 1 >= self.inserted, "samples are extracted smallest first");
        let rows = self.view.store().flow_index().rows();
        let flows = std::mem::take(&mut scratch.flows);
        while self.inserted <= band {
            let end = scratch.bands.ends[self.inserted];
            let start = if self.inserted == 0 { 0 } else { scratch.bands.ends[self.inserted - 1] };
            scratch.insert(flows[start..end].iter().map(|&flow| &rows[flow as usize]));
            self.packets += scratch.bands.packets[self.inserted];
            self.bytes += scratch.bands.bytes[self.inserted];
            self.inserted += 1;
        }
        scratch.flows = flows;
        extractor.fold(self.view, self.packets, self.bytes, scratch, Fold::Keep)
    }
}

impl Drop for NestedPass<'_> {
    fn drop(&mut self) {
        self.scratch.clear();
    }
}

/// Whether a fold leaves the scratch empty (one extraction) or as it is (a
/// nested pass, whose next sample contains this one).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    Empty,
    Keep,
}

/// Extracts the 42-feature vector from every batch.
///
/// The extractor is stateful: the "new items" counters compare each batch
/// against everything seen since the start of the current measurement
/// interval, so batches must be fed in order.
pub struct FeatureExtractor {
    config: ExtractorConfig,
    /// Distinct items seen in the current measurement interval, by aggregate.
    interval_seen: [MultiResolutionBitmap; AGGREGATE_COUNT],
    current_interval: Option<u64>,
    batches_processed: u64,
    /// What [`FeatureExtractor::extract_view`] lends, created on first use.
    own_scratch: Option<ExtractScratch>,
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
        Self {
            config,
            interval_seen: std::array::from_fn(|_| MultiResolutionBitmap::with_geometry(geometry)),
            current_interval: None,
            batches_processed: 0,
            own_scratch: None,
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

    /// Memory footprint of the bitmaps the extractor owns (the per-interval
    /// ones; the per-batch ones are the lent scratch's) in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.interval_seen.iter().map(MultiResolutionBitmap::memory_bytes).sum()
    }

    /// Serializes the extractor's interval state for a checkpoint: the
    /// current interval marker, the batch count, and every aggregate's
    /// per-interval bitmap. The "new items" counters compare each batch
    /// against everything seen since the interval began, so this state is
    /// essential — it cannot be rebuilt without replaying the whole interval.
    /// The per-batch bitmaps are the scratch's, empty between batches.
    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.opt_u64(self.current_interval);
        writer.u64(self.batches_processed);
        for interval_seen in &self.interval_seen {
            interval_seen.save_state(writer);
        }
    }

    /// Restores state captured by [`FeatureExtractor::save_state`] into an
    /// extractor built from the same configuration.
    pub fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.current_interval = reader.opt_u64()?;
        self.batches_processed = reader.u64()?;
        for interval_seen in &mut self.interval_seen {
            interval_seen.load_state(reader)?;
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
    /// slots are shared with every other consumer of the same batch. Lends
    /// [`FeatureExtractor::extract_view_with`] a scratch of the extractor's own.
    pub fn extract_view(&mut self, view: &BatchView) -> (FeatureVector, u64) {
        let mut scratch = self.own_scratch.take().unwrap_or_default();
        let extracted = self.extract_view_with(view, &mut scratch);
        self.own_scratch = Some(scratch);
        extracted
    }

    /// [`FeatureExtractor::extract_view`] on a scratch the caller lends: any
    /// empty one will do, and it is handed back empty.
    pub fn extract_view_with(
        &mut self,
        view: &BatchView,
        scratch: &mut ExtractScratch,
    ) -> (FeatureVector, u64) {
        // Fused single pass, flow-major: a flow's ten slots are set once per
        // view; its other packets could only set them again.
        let bytes = scratch.fill(view);
        let extracted = self.fold(view, view.len() as u64, bytes, scratch, Fold::Empty);
        debug_assert!(scratch.is_empty(), "the fold hands the scratch back all zeros");
        extracted
    }

    /// The vector of a view of `packets` packets and `bytes` IP bytes whose
    /// flows the scratch holds, folding the scratch into the interval
    /// bitmaps — emptying it, or leaving it for a nested pass's next sample.
    fn fold(
        &mut self,
        view: &BatchView,
        packets: u64,
        bytes: u64,
        scratch: &mut ExtractScratch,
        fold: Fold,
    ) -> (FeatureVector, u64) {
        let interval = view.measurement_interval(self.config.measurement_interval_us);
        if self.current_interval != Some(interval) {
            for interval_seen in &mut self.interval_seen {
                interval_seen.clear();
            }
            self.current_interval = Some(interval);
        }
        self.batches_processed += 1;

        let operations = packets * Aggregate::ALL.len() as u64;
        let packets = packets as f64;
        let mut vector = FeatureVector::zeros();
        vector.set(FeatureId::Packets, packets);
        vector.set(FeatureId::Bytes, bytes as f64);
        let aggregates = Aggregate::ALL.iter().zip(&mut self.interval_seen);
        for ((aggregate, interval_seen), (words, set)) in aggregates.zip(scratch.bitmaps()) {
            // New items are the rise of the interval estimate around the one
            // merge per batch, as in the paper.
            let unique = interval_seen.estimate_of(set).min(packets).round();
            let before = interval_seen.estimate();
            match fold {
                Fold::Empty => interval_seen.absorb_words(words, set),
                Fold::Keep => interval_seen.merge_words(words, set),
            }
            let new = (interval_seen.estimate() - before).clamp(0.0, unique).round();
            let counter = |kind| FeatureId::Counter(*aggregate, kind);
            vector.set(counter(CounterKind::Unique), unique);
            vector.set(counter(CounterKind::New), new);
            vector.set(counter(CounterKind::Repeated), (packets - unique).max(0.0));
            vector.set(counter(CounterKind::BatchRepeated), (packets - new).max(0.0));
        }
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
        // The bitmaps the extractor owns (the per-interval ones) plus
        // framing; the per-batch ones are the scratch's, as large again.
        let bitmaps = extractor.memory_bytes();
        assert_eq!(bitmaps, ExtractScratch::default().memory_bytes());
        assert!(writer.len() > bitmaps, "{} of {bitmaps}", writer.len());
        assert!(writer.len() < bitmaps + 1024, "{} of {bitmaps}", writer.len());

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
