//! Replay digests: a compact, stable fingerprint of everything a run emits.
//!
//! The execution-plane determinism contract says a replayed trace produces
//! **bit-identical** [`BinRecord`] streams, control decisions and interval
//! outputs regardless of worker count. Pinning whole tapes in a golden
//! corpus would be huge and unreadable; a [`DigestObserver`] instead folds
//! each of the three event streams into a 64-bit digest over a *canonical*
//! encoding — floats by `to_bits`, map- and set-backed query outputs in key
//! order — so the digest depends only on the emitted values, never on
//! process-local hash seeds or insertion order. Each emitted value is
//! absorbed once: a bin record leaves its decision and its interval outputs
//! to the decision and interval streams. Equal digests ⇔ equal
//! streams (up to hash collisions), which is what `tests/golden.rs` and the
//! `netshed-bench` `scenarios verify` subcommand compare against the
//! committed corpus manifest.

use crate::policy::{ControlDecision, DecisionReason};
use crate::report::{BinRecord, RunSummary};
use netshed_queries::QueryOutput;
use netshed_sketch::mix64;

/// Starting state of the digest chains (any fixed value works; this one
/// spells "bins").
const DIGEST_SEED: u64 = 0x6269_6e73;

/// Multiplier of the absorption step: odd, so the step is a bijection of the
/// state, and dense (the golden-ratio constant), so one multiply carries a
/// word's low bits into every higher state bit — unlike FNV's sparse prime.
const ABSORB_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation of the absorption step: brings the product's well-mixed high
/// bits down to where the next word's low bits land.
const ABSORB_ROT: u32 = 31;

/// Folds canonically-encoded values into one 64-bit digest, one 64-bit word
/// per step, over four chains.
///
/// Every canonical value is one word — a `u64` or an `f64`'s bits as itself,
/// a `u8` or `bool` widened — except a string, which is its length word and
/// then its bytes packed little-endian into zero-padded words. Each word is
/// absorbed into the front chain by `chain = (chain ^ word) · ABSORB_MUL ⟲
/// ABSORB_ROT`, and the four chains rotate, so word `i` lands on chain
/// `i mod 4` and four consecutive words form four independent multiplies
/// instead of one dependent one. For a fixed word that step is a bijection
/// of the chain, and for a fixed chain a bijection of the word;
/// [`StreamDigest::value`] folds the four chains by the same step, which is
/// injective in each chain while the other three are fixed, and finishes with
/// [`mix64`], a bijection too. So two streams of equal length that differ in
/// exactly one word always end in different digests.
///
/// The encoding and the step are part of the corpus format: changing either
/// invalidates every pinned digest, so change them only as a digest epoch
/// (see `corpus/README.md`).
#[derive(Debug, Clone, Copy)]
pub struct StreamDigest {
    // The chains in named fields, not an array indexed by position: the
    // rotation keeps them in registers across a record.
    front: u64,
    second: u64,
    third: u64,
    back: u64,
    items: u64,
}

impl Default for StreamDigest {
    fn default() -> Self {
        Self::new()
    }
}

/// One absorption step of `word` into `chain`.
#[inline]
fn step(chain: u64, word: u64) -> u64 {
    (chain ^ word).wrapping_mul(ABSORB_MUL).rotate_left(ABSORB_ROT)
}

impl StreamDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self {
            front: DIGEST_SEED,
            second: DIGEST_SEED,
            third: DIGEST_SEED,
            back: DIGEST_SEED,
            items: 0,
        }
    }

    /// Number of items absorbed.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The digest value over everything absorbed so far.
    pub fn value(&self) -> u64 {
        let folded =
            [self.front, self.second, self.third, self.back].into_iter().fold(DIGEST_SEED, step);
        mix64(folded)
    }

    /// Serializes the digest position (the four chains + item count) so a
    /// restored run continues the *same* digest chains an uninterrupted run
    /// would produce.
    pub fn save_state(&self, writer: &mut netshed_sketch::StateWriter) {
        for word in [self.front, self.second, self.third, self.back, self.items] {
            writer.u64(word);
        }
    }

    /// Restores a position written by [`StreamDigest::save_state`].
    pub fn load_state(
        &mut self,
        reader: &mut netshed_sketch::StateReader<'_>,
    ) -> Result<(), netshed_sketch::StateError> {
        for word in
            [&mut self.front, &mut self.second, &mut self.third, &mut self.back, &mut self.items]
        {
            *word = reader.u64()?;
        }
        Ok(())
    }

    /// Absorbs one word into the front chain and rotates the chains.
    #[inline]
    fn word(&mut self, word: u64) {
        let absorbed = step(self.front, word);
        self.front = self.second;
        self.second = self.third;
        self.third = self.back;
        self.back = absorbed;
    }

    fn u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.word(v);
    }

    fn f64(&mut self, v: f64) {
        // `to_bits` keeps the digest bit-exact; bit-identical replay is the
        // contract being checked, so no epsilon is wanted here.
        self.word(v.to_bits());
    }

    fn str(&mut self, v: &str) {
        let bytes = v.as_bytes();
        self.word(bytes.len() as u64);
        let (chunks, tail) = bytes.as_chunks::<8>();
        for chunk in chunks {
            self.word(u64::from_le_bytes(*chunk));
        }
        if tail.is_empty() {
            return;
        }
        // The tail's bytes, zero-padded: the string's last eight shifted
        // past those a full word already took, or, in a string shorter than
        // a word, gathered one at a time — never a variable-length copy.
        self.word(match bytes.last_chunk::<8>() {
            Some(last) => u64::from_le_bytes(*last) >> (8 * (8 - tail.len())),
            None => tail.iter().rev().fold(0, |word, &byte| word << 8 | u64::from(byte)),
        });
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Absorbs one bin record: its counters, cycles and per-query rows, and
    /// whether interval outputs ride on it. The outputs themselves and the
    /// record's decision are not absorbed again: a [`DigestObserver`]'s
    /// interval and decision streams hold them, and the presence word ties
    /// each interval's outputs to the bin that closed it.
    pub fn absorb_record(&mut self, record: &BinRecord) {
        self.items += 1;
        self.u64(record.bin_index);
        self.u64(record.incoming_packets);
        self.u64(record.uncontrolled_drops);
        self.u64(record.unsampled_packets);
        self.f64(record.available_cycles);
        self.f64(record.predicted_cycles);
        self.f64(record.query_cycles);
        self.f64(record.prediction_cycles);
        self.f64(record.shedding_cycles);
        self.f64(record.platform_cycles);
        self.f64(record.buffer_occupation);
        self.u64(record.queries.len() as u64);
        for query in &record.queries {
            self.u64(query.id.index());
            self.str(record.label(query));
            self.f64(query.sampling_rate);
            self.f64(query.predicted_cycles);
            self.f64(query.measured_cycles);
            self.u64(query.delivered_packets);
            self.bool(query.disabled);
        }
        self.bool(record.interval_outputs.is_some());
    }

    /// Absorbs one control decision, prefixed by its bin index.
    pub fn absorb_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.items += 1;
        self.u64(bin_index);
        self.u64(decision.rates.len() as u64);
        for rate in &decision.rates {
            self.f64(*rate);
        }
        match decision.budget {
            None => self.u8(0),
            Some(budget) => {
                self.u8(1);
                self.f64(budget);
            }
        }
        self.f64(decision.inflation);
        match &decision.allocations {
            None => self.u8(0),
            Some(allocations) => {
                self.u8(1);
                self.u64(allocations.len() as u64);
                for allocation in allocations {
                    self.bool(allocation.is_disabled());
                    self.f64(allocation.rate());
                }
            }
        }
        self.u8(match decision.reason {
            DecisionReason::FitsInBudget => 0,
            DecisionReason::ReactiveFeedback => 1,
            DecisionReason::Overload => 2,
            DecisionReason::Custom => 3,
            DecisionReason::DegradedFallback => 4,
        });
    }

    /// Absorbs one interval's query outputs.
    pub fn absorb_outputs(&mut self, outputs: &[(String, QueryOutput)]) {
        self.items += 1;
        self.u64(outputs.len() as u64);
        for (name, output) in outputs {
            self.str(name);
            self.absorb_output(output);
        }
    }

    /// Absorbs one query output in canonical form (map- and set-backed
    /// variants are ordered trees, read in key order, so the digest is
    /// independent of the order their entries were inserted in).
    fn absorb_output(&mut self, output: &QueryOutput) {
        match output {
            QueryOutput::Counter { packets, bytes } => {
                self.u8(0);
                self.f64(*packets);
                self.f64(*bytes);
            }
            QueryOutput::Application { per_app } => {
                self.u8(1);
                self.u64(per_app.len() as u64);
                for (app, (packets, bytes)) in per_app {
                    self.str(app);
                    self.f64(*packets);
                    self.f64(*bytes);
                }
            }
            QueryOutput::Flows { count } => {
                self.u8(2);
                self.f64(*count);
            }
            QueryOutput::HighWatermark { mbps } => {
                self.u8(3);
                self.f64(*mbps);
            }
            QueryOutput::TopK { ranking } => {
                self.u8(4);
                self.u64(ranking.len() as u64);
                for (ip, bytes) in ranking {
                    self.u64(u64::from(*ip));
                    self.f64(*bytes);
                }
            }
            QueryOutput::Autofocus { clusters } => {
                self.u8(5);
                self.u64(clusters.len() as u64);
                for (prefix, len, bytes) in clusters {
                    self.u64(u64::from(*prefix));
                    self.u8(*len);
                    self.f64(*bytes);
                }
            }
            QueryOutput::SuperSources { fanouts } => {
                self.u8(6);
                self.u64(fanouts.len() as u64);
                for (src, fanout) in fanouts {
                    self.u64(u64::from(*src));
                    self.f64(*fanout);
                }
            }
            QueryOutput::P2pFlows { flows } => {
                self.u8(7);
                self.u64(flows.len() as u64);
                for key in flows {
                    self.u64(*key);
                }
            }
            QueryOutput::Coverage { processed_packets, total_packets } => {
                self.u8(8);
                self.f64(*processed_packets);
                self.f64(*total_packets);
            }
        }
    }
}

/// The fingerprint of one run: per-stream digests plus the bin count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Bins that produced a [`BinRecord`].
    pub bins: u64,
    /// Digest over the `BinRecord` stream: each record's counters, cycles
    /// and per-query rows, and whether it closed an interval (its decision
    /// and outputs are in the other two streams).
    pub records: u64,
    /// Digest over the `(bin_index, ControlDecision)` stream.
    pub decisions: u64,
    /// Digest over the interval-output stream (including the final flush).
    pub intervals: u64,
}

impl std::fmt::Display for RunDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bins={} records={:016x} decisions={:016x} intervals={:016x}",
            self.bins, self.records, self.decisions, self.intervals
        )
    }
}

/// A [`RunObserver`](crate::RunObserver) that fingerprints the run.
///
/// ```
/// use netshed_monitor::{DigestObserver, Monitor};
/// use netshed_queries::{QueryKind, QuerySpec};
/// use netshed_trace::{PacketSourceExt, TraceConfig, TraceGenerator};
///
/// let mut monitor = Monitor::builder()
///     .capacity(1e12)
///     .queries(vec![QuerySpec::new(QueryKind::Counter)])
///     .build()
///     .unwrap();
/// let mut source = TraceGenerator::new(TraceConfig::default()).take_batches(8);
/// let mut digest = DigestObserver::default();
/// monitor.run(&mut source, &mut digest).unwrap();
/// let fingerprint = digest.digest();
/// assert_eq!(fingerprint.bins, 8);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DigestObserver {
    records: StreamDigest,
    decisions: StreamDigest,
    intervals: StreamDigest,
}

impl DigestObserver {
    /// A fresh observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The run fingerprint accumulated so far.
    pub fn digest(&self) -> RunDigest {
        RunDigest {
            bins: self.records.items(),
            records: self.records.value(),
            decisions: self.decisions.value(),
            intervals: self.intervals.value(),
        }
    }

    /// Serializes all three stream positions, so a checkpointed run's final
    /// digest equals the uninterrupted run's digest bit for bit.
    pub fn save_state(&self, writer: &mut netshed_sketch::StateWriter) {
        self.records.save_state(writer);
        self.decisions.save_state(writer);
        self.intervals.save_state(writer);
    }

    /// Restores positions written by [`DigestObserver::save_state`].
    pub fn load_state(
        &mut self,
        reader: &mut netshed_sketch::StateReader<'_>,
    ) -> Result<(), netshed_sketch::StateError> {
        self.records.load_state(reader)?;
        self.decisions.load_state(reader)?;
        self.intervals.load_state(reader)?;
        Ok(())
    }
}

impl crate::observer::RunObserver for DigestObserver {
    fn on_bin(&mut self, record: &BinRecord) {
        self.records.absorb_record(record);
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.decisions.absorb_decision(bin_index, decision);
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.intervals.absorb_outputs(outputs);
    }

    fn on_end(&mut self, _summary: &RunSummary) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::monitor::{Monitor, QueryId};
    use crate::observer::RunObserver;
    use netshed_queries::{QueryKind, QuerySpec};
    use netshed_trace::{BatchReplay, TraceConfig, TraceGenerator};
    use std::collections::{BTreeMap, BTreeSet};

    fn run_digest(seed: u64, capacity: f64) -> RunDigest {
        let mut monitor = Monitor::new(
            MonitorConfig::default().with_capacity(capacity).with_seed(7).with_workers(1),
        );
        for kind in [QueryKind::Counter, QueryKind::Flows, QueryKind::Application] {
            monitor.register(&QuerySpec::new(kind)).expect("valid spec");
        }
        let batches = TraceGenerator::new(
            TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(80.0),
        )
        .batches(15);
        let mut observer = DigestObserver::new();
        monitor.run(&mut BatchReplay::new(batches), &mut observer).expect("run");
        observer.digest()
    }

    #[test]
    fn identical_runs_produce_identical_digests() {
        let a = run_digest(3, 1e12);
        let b = run_digest(3, 1e12);
        assert_eq!(a, b);
        assert_eq!(a.bins, 15);
    }

    #[test]
    fn different_traffic_or_capacity_changes_the_digest() {
        let base = run_digest(3, 1e12);
        let other_trace = run_digest(4, 1e12);
        assert_ne!(base.records, other_trace.records);
        assert_ne!(base.intervals, other_trace.intervals);
        let constrained = run_digest(3, 2e6);
        assert_ne!(base.records, constrained.records, "shedding must change the record stream");
    }

    #[test]
    fn map_backed_outputs_digest_independently_of_insertion_order() {
        let forward: Vec<(&'static str, (f64, f64))> =
            vec![("http", (1.0, 2.0)), ("dns", (3.0, 4.0)), ("smtp", (5.0, 6.0))];
        let mut a_map = BTreeMap::new();
        let mut b_map = BTreeMap::new();
        for (k, v) in &forward {
            a_map.insert(*k, *v);
        }
        for (k, v) in forward.iter().rev() {
            b_map.insert(*k, *v);
        }
        let mut a = StreamDigest::new();
        a.absorb_outputs(&[("app".into(), QueryOutput::Application { per_app: a_map })]);
        let mut b = StreamDigest::new();
        b.absorb_outputs(&[("app".into(), QueryOutput::Application { per_app: b_map })]);
        assert_eq!(a.value(), b.value());

        let set_a: BTreeSet<u64> = [9, 1, 5].into_iter().collect();
        let set_b: BTreeSet<u64> = [5, 9, 1].into_iter().collect();
        let mut da = StreamDigest::new();
        da.absorb_outputs(&[("p2p".into(), QueryOutput::P2pFlows { flows: set_a })]);
        let mut db = StreamDigest::new();
        db.absorb_outputs(&[("p2p".into(), QueryOutput::P2pFlows { flows: set_b })]);
        assert_eq!(da.value(), db.value());
    }

    #[test]
    fn digest_distinguishes_nearby_float_streams() {
        let mut a = StreamDigest::new();
        let mut b = StreamDigest::new();
        a.absorb_outputs(&[("flows".into(), QueryOutput::Flows { count: 100.0 })]);
        b.absorb_outputs(&[(
            "flows".into(),
            QueryOutput::Flows { count: 100.0 + f64::EPSILON * 100.0 },
        )]);
        assert_ne!(a.value(), b.value(), "the digest must be bit-exact, not epsilon-tolerant");
    }

    #[test]
    fn display_is_stable_and_parsable() {
        let digest = RunDigest { bins: 3, records: 0xabc, decisions: 0, intervals: u64::MAX };
        let text = digest.to_string();
        assert!(text.contains("bins=3"));
        assert!(text.contains("records=0000000000000abc"));
        assert!(text.contains("intervals=ffffffffffffffff"));
    }

    /// A splitmix64 generator: the properties below want many distinct
    /// inputs, not any particular distribution.
    struct Draw(u64);

    impl Draw {
        fn word(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(self.0)
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.word() % bound
        }

        fn float(&mut self) -> f64 {
            f64::from_bits(self.word() >> 2)
        }
    }

    fn digest_of_words(stream: &[u64]) -> u64 {
        let mut digest = StreamDigest::new();
        for &word in stream {
            digest.word(word);
        }
        digest.value()
    }

    #[test]
    fn flipping_any_bit_of_any_absorbed_word_changes_the_digest() {
        for (length, seed) in [(1usize, 1u64), (2, 2), (5, 3), (17, 4), (64, 5)] {
            let mut draw = Draw(seed);
            let stream: Vec<u64> = (0..length).map(|_| draw.word()).collect();
            let base = digest_of_words(&stream);
            for at in 0..length {
                for bit in 0..64 {
                    let mut flipped = stream.clone();
                    flipped[at] ^= 1 << bit;
                    assert_ne!(digest_of_words(&flipped), base, "word {at}, bit {bit}");
                }
            }
        }
    }

    #[test]
    fn string_boundaries_and_presence_are_part_of_the_digest() {
        let strings = |parts: &[&str]| {
            let mut digest = StreamDigest::new();
            for part in parts {
                digest.str(part);
            }
            digest.u64(7);
            digest.value()
        };
        assert_ne!(strings(&["ab", "c"]), strings(&["a", "bc"]));
        assert_ne!(strings(&["abcdefgh", ""]), strings(&["", "abcdefgh"]));
        assert_ne!(strings(&[""]), strings(&[]), "an empty string is not an omitted one");
        assert_ne!(strings(&["a"]), strings(&["a\0"]), "zero padding is not content");
        assert_ne!(strings(&["abcdefgh"]), strings(&["abcdefgh\0"]));
    }

    #[test]
    fn a_string_is_its_length_and_its_zero_padded_little_endian_words() {
        let text = "tenant-0042/super-sources:§µ";
        for end in (0..=text.len()).filter(|&end| text.is_char_boundary(end)) {
            let v = &text[..end];
            let mut words = vec![v.len() as u64];
            for chunk in v.as_bytes().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                words.push(u64::from_le_bytes(word));
            }
            let mut digest = StreamDigest::new();
            digest.str(v);
            assert_eq!(digest.value(), digest_of_words(&words), "{v:?}");
        }
    }

    /// A random bin record over some of `ids`: every field the digest reads
    /// drawn, one bin in three carrying interval outputs.
    fn random_record(draw: &mut Draw, ids: &[QueryId]) -> BinRecord {
        let rows = draw.below(ids.len() as u64 + 1) as usize;
        let mut labels = crate::report::LabelTable::default();
        let queries: Vec<_> = (0..rows)
            .map(|row| crate::report::QueryBinRecord {
                id: ids[row],
                label: {
                    labels.edit().push(format!("tenant-{}", draw.below(1000)).into());
                    row as u32
                },
                sampling_rate: draw.float(),
                predicted_cycles: draw.float(),
                measured_cycles: draw.float(),
                delivered_packets: draw.below(4096),
                disabled: draw.below(2) == 0,
            })
            .collect();
        let rates = queries.iter().map(|query| query.sampling_rate).collect();
        let interval_outputs = (draw.below(3) == 0).then(|| {
            vec![
                (
                    "counter".to_string(),
                    QueryOutput::Counter { packets: draw.float(), bytes: draw.float() },
                ),
                ("flows".to_string(), QueryOutput::Flows { count: draw.float() }),
            ]
        });
        BinRecord {
            bin_index: draw.below(1000),
            incoming_packets: draw.below(100_000),
            uncontrolled_drops: draw.below(100),
            unsampled_packets: draw.below(1000),
            available_cycles: draw.float(),
            predicted_cycles: draw.float(),
            query_cycles: draw.float(),
            prediction_cycles: draw.float(),
            shedding_cycles: draw.float(),
            platform_cycles: draw.float(),
            buffer_occupation: draw.float(),
            queries,
            labels,
            interval_outputs,
            decision: ControlDecision {
                rates,
                budget: (draw.below(2) == 0).then(|| draw.float()),
                inflation: draw.float(),
                ..ControlDecision::default()
            },
        }
    }

    fn registered_ids(count: usize) -> Vec<QueryId> {
        let mut monitor = Monitor::new(MonitorConfig::default());
        (0..count)
            .map(|_| monitor.register(&QuerySpec::new(QueryKind::Counter)).expect("valid spec"))
            .collect()
    }

    /// The fingerprint of `records` fed to a [`DigestObserver`] the way an
    /// engine reports a bin: its interval outputs, its decision, the record.
    fn observed(records: &[BinRecord]) -> RunDigest {
        let mut observer = DigestObserver::new();
        for record in records {
            if let Some(outputs) = &record.interval_outputs {
                observer.on_interval(outputs);
            }
            observer.on_decision(record.bin_index, &record.decision);
            observer.on_bin(record);
        }
        observer.digest()
    }

    #[test]
    fn distinct_random_record_streams_do_not_collide() {
        let ids = registered_ids(4);
        let mut draw = Draw(11);
        let (mut streams, mut values) = (Vec::new(), Vec::new());
        while streams.len() < 10_000 {
            let length = 1 + draw.below(3) as usize;
            let stream: Vec<BinRecord> =
                (0..length).map(|_| random_record(&mut draw, &ids)).collect();
            values.push(observed(&stream));
            streams.push(stream);
        }
        let key = |digest: &RunDigest| (digest.records, digest.decisions, digest.intervals);
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by_key(|&at| key(&values[at]));
        for pair in order.windows(2) {
            if values[pair[0]] == values[pair[1]] {
                assert_eq!(streams[pair[0]], streams[pair[1]], "two distinct streams collide");
            }
        }
    }

    /// Each emitted value is absorbed once, by one stream, and still counts:
    /// changing, dropping or moving one interval output, moving a whole
    /// interval's outputs to the next bin, or changing one decision rate
    /// changes the run's fingerprint.
    #[test]
    fn every_emitted_value_reaches_the_run_digest() {
        let ids = registered_ids(4);
        let mut draw = Draw(31);
        let records: Vec<BinRecord> = (0..24)
            .map(|bin| {
                let mut record = random_record(&mut draw, &ids);
                record.bin_index = bin;
                record.interval_outputs = (bin % 4 == 3).then(|| {
                    vec![
                        (
                            "counter".into(),
                            QueryOutput::Counter { packets: draw.float(), bytes: 1.0 },
                        ),
                        ("flows".into(), QueryOutput::Flows { count: draw.float() }),
                    ]
                });
                record.decision.rates = vec![draw.float(); 1 + draw.below(3) as usize];
                record
            })
            .collect();
        let base = observed(&records);
        fn outputs(records: &mut [BinRecord], bin: usize) -> &mut Vec<(String, QueryOutput)> {
            records[bin].interval_outputs.as_mut().expect("an interval closes here")
        }
        let mut mutants: Vec<(&str, Vec<BinRecord>)> = Vec::new();
        let mut changed = records.clone();
        outputs(&mut changed, 7)[1].1 = QueryOutput::Flows { count: 3.0 };
        mutants.push(("an output changed", changed));
        let mut dropped = records.clone();
        outputs(&mut dropped, 7).pop();
        mutants.push(("an output dropped", dropped));
        let mut moved = records.clone();
        let output = outputs(&mut moved, 7).pop().expect("two outputs");
        outputs(&mut moved, 11).push(output);
        mutants.push(("an output moved to the next interval", moved));
        let mut late = records.clone();
        late[8].interval_outputs = late[7].interval_outputs.take();
        mutants.push(("an interval's outputs moved to the next bin", late));
        let mut rate = records.clone();
        rate[5].decision.rates[0] = 0.25;
        mutants.push(("a decision rate changed", rate));
        for (what, mutant) in mutants {
            assert_ne!(mutant, records, "{what}: the mutant is another stream");
            assert_ne!(observed(&mutant), base, "{what}: the run digest did not move");
        }
    }

    #[test]
    fn a_saved_position_continues_the_same_chain() {
        let ids = registered_ids(3);
        let mut draw = Draw(23);
        let records: Vec<BinRecord> = (0..12).map(|_| random_record(&mut draw, &ids)).collect();
        let mut whole = StreamDigest::new();
        for record in &records {
            whole.absorb_record(record);
        }
        let resumed = |first: &StreamDigest| {
            let mut writer = netshed_sketch::StateWriter::new();
            first.save_state(&mut writer);
            let bytes = writer.into_bytes();
            let mut resumed = StreamDigest::new();
            resumed
                .load_state(&mut netshed_sketch::StateReader::new(&bytes))
                .expect("a written position loads");
            resumed
        };
        for cut in 0..=records.len() {
            let mut first = StreamDigest::new();
            for record in &records[..cut] {
                first.absorb_record(record);
            }
            let mut resumed = resumed(&first);
            for record in &records[cut..] {
                resumed.absorb_record(record);
            }
            assert_eq!(resumed.items(), whole.items(), "cut at {cut}");
            assert_eq!(resumed.value(), whole.value(), "cut at {cut}");
        }
        // Cut between any two words: at every phase of the chains' rotation.
        let words: Vec<u64> = (0..9).map(|_| draw.word()).collect();
        for cut in 0..=words.len() {
            let mut first = StreamDigest::new();
            words[..cut].iter().for_each(|&word| first.word(word));
            let mut resumed = resumed(&first);
            words[cut..].iter().for_each(|&word| resumed.word(word));
            assert_eq!(resumed.value(), digest_of_words(&words), "word cut at {cut}");
        }
    }

    #[test]
    fn observer_streams_count_their_items() {
        let mut observer = DigestObserver::new();
        let empty = StreamDigest::new();
        assert_eq!(observer.digest().records, empty.value());
        observer.on_interval(&[]);
        assert_eq!(observer.digest().bins, 0, "intervals do not count as bins");
        assert_ne!(observer.digest().intervals, empty.value());
    }
}
