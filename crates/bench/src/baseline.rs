//! Reference (pre-refactor) implementations of the batch data plane.
//!
//! The fused single-pass extractor and the zero-copy view shedders replaced
//! an aggregate-major ten-pass extraction loop and clone-based sampling.
//! These faithful replicas of the old code paths are kept so that
//!
//! * the micro / pipeline benchmarks can quantify the speedup against the
//!   exact baseline they claim to beat, and
//! * the shed-equivalence property tests can assert bit-identical selection
//!   between the view path and the clone path.
//!
//! They are *not* part of the monitoring hot path.

use netshed_features::{Aggregate, CounterKind, ExtractorConfig, FeatureId, FeatureVector};
use netshed_sketch::{hash_bytes, H3Hasher, MultiResolutionBitmap};
use netshed_trace::{aggregate_hash_seed, Batch};
use rand::rngs::StdRng;
use rand::Rng;

/// The historical aggregate-major feature extractor: one pass over the batch
/// per aggregate, rebuilding and re-hashing a zero-padded 13-byte key per
/// packet per pass.
pub struct TenPassExtractor {
    config: ExtractorConfig,
    states: Vec<(MultiResolutionBitmap, MultiResolutionBitmap)>,
    current_interval: Option<u64>,
}

impl TenPassExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: ExtractorConfig) -> Self {
        let states = Aggregate::ALL
            .iter()
            .map(|_| {
                (
                    MultiResolutionBitmap::for_cardinality(config.max_cardinality),
                    MultiResolutionBitmap::for_cardinality(config.max_cardinality),
                )
            })
            .collect();
        Self { config, states, current_interval: None }
    }

    /// Creates an extractor with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ExtractorConfig::default())
    }

    /// The pre-refactor `FeatureExtractor::extract`, kept verbatim in
    /// structure: aggregate-major loop nest, per-packet key serialisation and
    /// `hash_bytes` call in every pass.
    pub fn extract(&mut self, batch: &Batch) -> (FeatureVector, u64) {
        let interval = batch.measurement_interval(self.config.measurement_interval_us);
        if self.current_interval != Some(interval) {
            for (_, interval_seen) in &mut self.states {
                interval_seen.clear();
            }
            self.current_interval = Some(interval);
        }

        let mut vector = FeatureVector::zeros();
        vector.set(FeatureId::Packets, batch.len() as f64);
        vector.set(FeatureId::Bytes, batch.total_bytes() as f64);

        let packets = batch.len() as f64;
        let mut operations = 0u64;

        for (agg_idx, aggregate) in Aggregate::ALL.iter().enumerate() {
            let (batch_unique, interval_seen) = &mut self.states[agg_idx];
            batch_unique.clear();

            let seed = aggregate_hash_seed(self.config.hash_seed, agg_idx);
            for packet in batch.packets.iter() {
                let key = aggregate.key(packet.tuple());
                batch_unique.insert_hash(hash_bytes(&key, seed));
                operations += 1;
            }

            let unique = batch_unique.estimate().min(packets).round();
            let before = interval_seen.estimate();
            interval_seen.merge(batch_unique);
            let after = interval_seen.estimate();
            let new = (after - before).clamp(0.0, unique).round();
            let repeated = (packets - unique).max(0.0);
            let batch_repeated = (packets - new).max(0.0);

            vector.set(FeatureId::Counter(*aggregate, CounterKind::Unique), unique);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::New), new);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::Repeated), repeated);
            vector.set(FeatureId::Counter(*aggregate, CounterKind::BatchRepeated), batch_repeated);
        }

        (vector, operations)
    }
}

/// The historical clone-based packet sampler: copies every kept packet into
/// a fresh batch via `Batch::filtered`.
pub fn clone_packet_sample(batch: &Batch, rate: f64, rng: &mut StdRng) -> (Batch, u64) {
    let rate = rate.clamp(0.0, 1.0);
    if rate >= 1.0 {
        return (batch.clone(), 0);
    }
    if rate <= 0.0 {
        return (
            Batch::empty(batch.bin_index, batch.start_ts, batch.duration_us),
            batch.len() as u64,
        );
    }
    let sampled = batch.filtered(|_| rng.gen::<f64>() < rate);
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

/// The historical clone-based flow sampler: re-serialises every packet's
/// 5-tuple key and copies kept packets into a fresh batch.
pub fn clone_flow_sample(batch: &Batch, rate: f64, hasher: &H3Hasher) -> (Batch, u64) {
    let rate = rate.clamp(0.0, 1.0);
    if rate >= 1.0 {
        return (batch.clone(), 0);
    }
    if rate <= 0.0 {
        return (
            Batch::empty(batch.bin_index, batch.start_ts, batch.duration_us),
            batch.len() as u64,
        );
    }
    let sampled = batch.filtered(|p| hasher.unit_interval(&p.tuple().as_key()) < rate);
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_features::FeatureExtractor;
    use netshed_trace::{TraceConfig, TraceGenerator};

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
            for id in FeatureId::all() {
                assert_eq!(a.get(id), b.get(id), "feature {} diverged", id.name());
            }
        }
    }
}
