//! The retired kernels, restated as test oracles.
//!
//! The production crates hold one implementation per operation. When a
//! kernel is replaced in place — the ten-pass extractor by the fused one,
//! one linear-counting bitmap per component by the flat layout, copy-out
//! shedding by views, the column-at-a-time Pearson FCBF by the row passes,
//! the per-packet `flows` / `super-sources` kernels by one probe per flow,
//! the per-packet `top-k` / `autofocus` / `application` lookups by one per
//! flow (their additions stay per packet),
//! `high-watermark`'s running peak by the per-bin table its lanes fold,
//! the one-chain run digest by the four-lane one, the record-at-a-time
//! `.nstr` body decoder by the single pass into exactly-sized columns —
//! the old one moves here for as long as a test compares against it,
//! restated on public types only: nothing in this module calls the code it
//! checks, and nothing here comes from `netshed_bench`. What is shared with
//! production is the *definition* being pinned (`hash_bytes`, `mix64`,
//! the extractor's seed and dimensioning constants), not
//! an implementation of the operation under test.
//!
//! Each test binary uses its own part of the module.
#![allow(dead_code)]

use netshed::features::{
    Aggregate, CounterKind, FeatureId, FeatureVector, AGGREGATE_HASH_SEED,
    AGGREGATE_MAX_CARDINALITY,
};
use netshed::monitor::{BinRecord, ControlDecision, DecisionReason, RunDigest, RunObserver};
use netshed::predict::{FcbfConfig, History};
use netshed::queries::{costs, CycleMeter, QueryOutput};
use netshed::sketch::{hash_bytes, mix64, H3Hasher, StateWriter};
use netshed::trace::{
    AppProtocol, Batch, BatchView, Bytes, FiveTuple, FormatError, FrameWalk, PacketRef,
    PacketStore, DEFAULT_MEASUREMENT_INTERVAL_US, FLOW_KEY_SEED,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};

// ---------------------------------------------------------------------------
// Aggregate keys and hashes, one key and one `hash_bytes` call at a time.
// ---------------------------------------------------------------------------

/// The aggregate's fields of a 5-tuple, big-endian, at the front of a
/// zero-padded 13-byte key. The key length differs per aggregate, which is
/// fine because the key is only ever hashed under a per-aggregate seed.
pub fn aggregate_key(aggregate: Aggregate, tuple: &FiveTuple) -> [u8; 13] {
    let mut key = [0u8; 13];
    match aggregate {
        Aggregate::SrcIp => key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes()),
        Aggregate::DstIp => key[..4].copy_from_slice(&tuple.dst_ip.to_be_bytes()),
        Aggregate::Protocol => key[0] = tuple.proto,
        Aggregate::SrcDstIp => {
            key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes());
            key[4..8].copy_from_slice(&tuple.dst_ip.to_be_bytes());
        }
        Aggregate::SrcPortProto => {
            key[..2].copy_from_slice(&tuple.src_port.to_be_bytes());
            key[2] = tuple.proto;
        }
        Aggregate::DstPortProto => {
            key[..2].copy_from_slice(&tuple.dst_port.to_be_bytes());
            key[2] = tuple.proto;
        }
        Aggregate::SrcIpPortProto => {
            key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes());
            key[4..6].copy_from_slice(&tuple.src_port.to_be_bytes());
            key[6] = tuple.proto;
        }
        Aggregate::DstIpPortProto => {
            key[..4].copy_from_slice(&tuple.dst_ip.to_be_bytes());
            key[4..6].copy_from_slice(&tuple.dst_port.to_be_bytes());
            key[6] = tuple.proto;
        }
        Aggregate::SrcDstPortProto => {
            key[..2].copy_from_slice(&tuple.src_port.to_be_bytes());
            key[2..4].copy_from_slice(&tuple.dst_port.to_be_bytes());
            key[4] = tuple.proto;
        }
        Aggregate::FiveTuple => {
            key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes());
            key[4..8].copy_from_slice(&tuple.dst_ip.to_be_bytes());
            key[8..10].copy_from_slice(&tuple.src_port.to_be_bytes());
            key[10..12].copy_from_slice(&tuple.dst_port.to_be_bytes());
            key[12] = tuple.proto;
        }
    }
    key
}

/// The hash of the `index`-th aggregate (Table 3.1 order) of a 5-tuple: its
/// padded key under the base seed mixed with the aggregate's index.
pub fn aggregate_hash(index: usize, tuple: &FiveTuple, base_seed: u64) -> u64 {
    let seed = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9);
    hash_bytes(&aggregate_key(Aggregate::ALL[index], tuple), seed)
}

// ---------------------------------------------------------------------------
// The multi-resolution bitmap as it was before the flat layout (text of
// commit 20142aa): one linear-counting bitmap per component.
// ---------------------------------------------------------------------------

/// A linear-counting bitmap distinct counter (Whang et al.).
#[derive(Debug, Clone)]
pub struct LinearCounting {
    bits: Vec<u64>,
    num_bits: usize,
    set_bits: usize,
}

impl LinearCounting {
    /// A counter with `num_bits` bits, rounded up to a multiple of 64.
    pub fn new(num_bits: usize) -> Self {
        let num_bits = num_bits.max(64).next_multiple_of(64);
        Self { bits: vec![0; num_bits / 64], num_bits, set_bits: 0 }
    }

    pub fn capacity_bits(&self) -> usize {
        self.num_bits
    }

    pub fn fill_ratio(&self) -> f64 {
        self.set_bits as f64 / self.num_bits as f64
    }

    /// Records a pre-hashed item; `true` if its bit was not set before.
    pub fn insert_hash(&mut self, hash: u64) -> bool {
        let bit = (hash % self.num_bits as u64) as usize;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        self.set_bits += usize::from(fresh);
        fresh
    }

    pub fn contains_hash(&self, hash: u64) -> bool {
        let bit = (hash % self.num_bits as u64) as usize;
        self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// `m · ln(m / zero)`, the zero count clamped to one.
    pub fn estimate(&self) -> f64 {
        let m = self.num_bits as f64;
        let zero = (self.num_bits - self.set_bits).max(1) as f64;
        m * (m / zero).ln()
    }

    /// Bitwise OR of another bitmap of the same size, recounting the bits.
    pub fn merge(&mut self, other: &LinearCounting) {
        assert_eq!(self.num_bits, other.num_bits, "cannot merge bitmaps of different sizes");
        let mut set = 0usize;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
            set += a.count_ones() as usize;
        }
        self.set_bits = set;
    }

    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.set_bits = 0;
    }

    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.num_bits);
        for word in &self.bits {
            writer.u64(*word);
        }
    }
}

/// Saturation threshold above which a component is not used as the base.
const SATURATION: f64 = 0.93;

/// The multi-resolution bitmap over one [`LinearCounting`] per component,
/// located per insert.
#[derive(Debug, Clone)]
pub struct ReferenceBitmap {
    components: Vec<LinearCounting>,
}

impl ReferenceBitmap {
    pub fn new(num_components: usize, bits_per_component: usize) -> Self {
        assert!(num_components >= 1);
        Self {
            components: (0..num_components)
                .map(|_| LinearCounting::new(bits_per_component))
                .collect(),
        }
    }

    /// The bitmap dimensioned for roughly `max_cardinality` items: 4096-bit
    /// components, doubling the reach per component, at most sixteen.
    pub fn for_cardinality(max_cardinality: usize) -> Self {
        let bits = 4096usize;
        let mut components = 1usize;
        let mut reach = bits * 2;
        while reach < max_cardinality && components < 16 {
            components += 1;
            reach *= 2;
        }
        Self::new(components, bits)
    }

    /// Splits a hash into (component, per-component bit hash): the trailing
    /// ones choose the component geometrically, the high bits the position.
    fn locate(&self, hash: u64) -> (usize, u64) {
        let last = self.components.len() - 1;
        ((hash.trailing_ones() as usize).min(last), mix64(hash >> 16))
    }

    /// The flat index `component · bits + bit` of the bit a hash owns.
    pub fn slot(&self, hash: u64) -> usize {
        let (component, bit_hash) = self.locate(hash);
        let bits = self.components[component].capacity_bits();
        component * bits + (bit_hash % bits as u64) as usize
    }

    pub fn insert_hash(&mut self, hash: u64) -> bool {
        let (component, bit_hash) = self.locate(hash);
        self.components[component].insert_hash(bit_hash)
    }

    pub fn contains_hash(&self, hash: u64) -> bool {
        let (component, bit_hash) = self.locate(hash);
        self.components[component].contains_hash(bit_hash)
    }

    pub fn estimate(&self) -> f64 {
        // The first component that is still reliable is the base; it and the
        // ones above observe a fraction 2^-base of the items.
        let last = self.components.len() - 1;
        let mut base = 0usize;
        while base < last && self.components[base].fill_ratio() > SATURATION {
            base += 1;
        }
        let mut sum = 0.0;
        for component in &self.components[base..] {
            sum += component.estimate();
        }
        sum * (1u64 << base) as f64
    }

    pub fn clear(&mut self) {
        self.components.iter_mut().for_each(LinearCounting::clear);
    }

    pub fn merge(&mut self, other: &ReferenceBitmap) {
        assert_eq!(self.components.len(), other.components.len(), "component count mismatch");
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            a.merge(b);
        }
    }

    pub fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.components.len());
        for component in &self.components {
            component.save_state(writer);
        }
    }
}

// ---------------------------------------------------------------------------
// The seed's aggregate-major feature extractor.
// ---------------------------------------------------------------------------

/// One pass over the batch per aggregate, rebuilding and re-hashing a
/// zero-padded 13-byte key per packet per pass, into [`ReferenceBitmap`]s.
pub struct TenPassExtractor {
    /// Per aggregate: (distinct in the batch, distinct in the interval).
    states: Vec<(ReferenceBitmap, ReferenceBitmap)>,
    current_interval: Option<u64>,
}

impl TenPassExtractor {
    /// An extractor on the production extractor's seed, dimensioning and
    /// default measurement interval.
    pub fn with_defaults() -> Self {
        let bitmap = ReferenceBitmap::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        let states = Aggregate::ALL.iter().map(|_| (bitmap.clone(), bitmap.clone())).collect();
        Self { states, current_interval: None }
    }

    /// The 42 features of a batch and the elementary-operation count.
    pub fn extract(&mut self, batch: &Batch) -> (FeatureVector, u64) {
        let interval = batch.measurement_interval(DEFAULT_MEASUREMENT_INTERVAL_US);
        if self.current_interval != Some(interval) {
            for (_, interval_seen) in &mut self.states {
                interval_seen.clear();
            }
            self.current_interval = Some(interval);
        }

        let packets = batch.len() as f64;
        let mut vector = FeatureVector::zeros();
        vector.set(FeatureId::Packets, packets);
        vector.set(FeatureId::Bytes, batch.total_bytes() as f64);
        let mut operations = 0u64;

        for (index, aggregate) in Aggregate::ALL.iter().enumerate() {
            let (batch_unique, interval_seen) = &mut self.states[index];
            batch_unique.clear();
            for packet in batch.packets.iter() {
                batch_unique.insert_hash(aggregate_hash(
                    index,
                    packet.tuple(),
                    AGGREGATE_HASH_SEED,
                ));
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

// ---------------------------------------------------------------------------
// The seed's copy-out shedders.
// ---------------------------------------------------------------------------

/// A new batch for the same time bin holding copies of the packets `keep`
/// accepts.
pub fn filtered<F: FnMut(PacketRef<'_>) -> bool>(batch: &Batch, mut keep: F) -> Batch {
    let mut builder = PacketStore::builder(batch.len());
    for packet in batch.packets.iter() {
        if keep(packet) {
            builder.push(
                packet.ts(),
                *packet.tuple(),
                packet.ip_len(),
                packet.tcp_flags(),
                packet.payload(),
            );
        }
    }
    Batch::from_store(batch.bin_index, batch.start_ts, batch.duration_us, builder.finish())
}

/// Uniform packet sampling that copies every kept packet into a fresh batch:
/// one RNG draw per packet, none at rate 0 or 1.
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
    let sampled = filtered(batch, |_| rng.gen::<f64>() < rate);
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

/// Flow sampling that re-serialises every packet's 5-tuple key and copies
/// the packets of kept flows into a fresh batch.
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
    let sampled = filtered(batch, |p| hasher.unit_interval(&p.tuple().as_key()) < rate);
    let dropped = batch.len() as u64 - sampled.len() as u64;
    (sampled, dropped)
}

// ---------------------------------------------------------------------------
// The flow-keyed queries, one key, one hash and one table lookup per packet.
// Entries live in insertion order in plain vectors (what the production
// tables' iteration order is defined to be); sampling rates are in (0, 1].
// ---------------------------------------------------------------------------

/// What every per-packet restatement below answers, so one property can
/// drive them side by side with the kernels that replaced them.
pub trait PerPacketKernel {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter);
    fn end_interval(&mut self) -> QueryOutput;
    /// The bytes the production query's `save_state` writes.
    fn save_state(&self, writer: &mut StateWriter);
}

/// `flows` before the flow index: every packet serialises its 5-tuple,
/// hashes it and probes the flow table.
#[derive(Default)]
pub struct PerPacketFlows {
    /// (flow key, weight at insertion), in insertion order.
    entries: Vec<(u64, f64)>,
    known: HashSet<u64>,
}

impl PerPacketKernel for PerPacketFlows {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE + costs::HASH_LOOKUP);
            let key = hash_bytes(&packet.tuple().as_key(), FLOW_KEY_SEED);
            if self.known.insert(key) {
                meter.charge(costs::HASH_INSERT);
                self.entries.push((key, 1.0 / rate));
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let count = self.entries.iter().map(|(_, weight)| weight).sum();
        self.entries.clear();
        self.known.clear();
        QueryOutput::Flows { count }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.entries.len());
        for (key, weight) in &self.entries {
            writer.u64(*key);
            writer.f64(*weight);
        }
    }
}

/// `top-k`'s and `super-sources`' ranking before one bounded pass: every
/// entry, in the order the table drains them, sorted stably by value
/// descending (`f64::total_cmp`), then cut to the first `n`.
pub fn sort_then_truncate<K>(mut entries: Vec<(K, f64)>, n: usize) -> Vec<(K, f64)> {
    entries.sort_by(|a, b| b.1.total_cmp(&a.1));
    entries.truncate(n);
    entries
}

/// `top-k` before it probed once per flow: every packet looks its
/// destination up, and a new destination enters with the packet's bytes.
pub struct PerPacketTopK {
    k: usize,
    /// (destination, bytes), in insertion order, and where each one sits.
    entries: Vec<(u32, f64)>,
    position: HashMap<u32, usize>,
}

impl PerPacketTopK {
    pub fn new(k: usize) -> Self {
        Self { k, entries: Vec::new(), position: HashMap::new() }
    }
}

impl PerPacketKernel for PerPacketTopK {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE + costs::HASH_LOOKUP + costs::RANKING_UPDATE);
            let bytes = f64::from(packet.ip_len()) / rate;
            let dst = packet.tuple().dst_ip;
            if let Some(&at) = self.position.get(&dst) {
                self.entries[at].1 += bytes;
            } else {
                meter.charge(costs::HASH_INSERT);
                self.position.insert(dst, self.entries.len());
                self.entries.push((dst, bytes));
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let ranking = sort_then_truncate(std::mem::take(&mut self.entries), self.k);
        self.position.clear();
        QueryOutput::TopK { ranking }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.entries.len());
        for (dst, bytes) in &self.entries {
            writer.u32(*dst);
            writer.f64(*bytes);
        }
    }
}

/// `autofocus` before it probed once per flow: every packet looks up its
/// destination's /8, /16 and /24, in that order, and a new prefix enters
/// with the packet's bytes.
pub struct PerPacketAutofocus {
    threshold_fraction: f64,
    /// ((prefix, length), bytes), in insertion order, and where each sits.
    entries: Vec<((u32, u8), f64)>,
    position: HashMap<(u32, u8), usize>,
    total_bytes: f64,
}

impl PerPacketAutofocus {
    pub fn new(threshold_fraction: f64) -> Self {
        Self { threshold_fraction, entries: Vec::new(), position: HashMap::new(), total_bytes: 0.0 }
    }
}

impl PerPacketKernel for PerPacketAutofocus {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE);
            let bytes = f64::from(packet.ip_len()) / rate;
            self.total_bytes += bytes;
            for len in [8u8, 16, 24] {
                meter.charge(costs::PREFIX_LEVEL);
                let key = (packet.tuple().dst_ip & (!0u32 << (32 - len)), len);
                if let Some(&at) = self.position.get(&key) {
                    self.entries[at].1 += bytes;
                } else {
                    meter.charge(costs::HASH_INSERT);
                    self.position.insert(key, self.entries.len());
                    self.entries.push((key, bytes));
                }
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let threshold = std::mem::take(&mut self.total_bytes) * self.threshold_fraction;
        self.position.clear();
        let mut clusters: Vec<(u32, u8, f64)> = std::mem::take(&mut self.entries)
            .into_iter()
            .filter(|(_, bytes)| *bytes >= threshold && threshold > 0.0)
            .map(|((prefix, len), bytes)| (prefix, len, bytes))
            .collect();
        clusters.sort_by(|a, b| b.2.total_cmp(&a.2));
        QueryOutput::Autofocus { clusters }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.entries.len());
        for ((prefix, len), bytes) in &self.entries {
            writer.u32(*prefix);
            writer.u8(*len);
            writer.f64(*bytes);
        }
        writer.f64(self.total_bytes);
    }
}

/// `application` before it classified once per flow: every packet is
/// classified by its ports and protocol and counted under its label.
#[derive(Default)]
pub struct PerPacketApplication {
    per_app: BTreeMap<&'static str, (f64, f64)>,
}

impl PerPacketKernel for PerPacketApplication {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE + costs::PORT_LOOKUP + costs::COUNTER_UPDATE);
            let tuple = packet.tuple();
            let label = AppProtocol::ALL
                .iter()
                .find(|app| {
                    app.ip_proto() == tuple.proto
                        && (tuple.src_port == app.server_port()
                            || tuple.dst_port == app.server_port())
                })
                .map_or("unknown", |app| app.name());
            let sums = self.per_app.entry(label).or_insert((0.0, 0.0));
            sums.0 += 1.0 / rate;
            sums.1 += f64::from(packet.ip_len()) / rate;
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        QueryOutput::Application { per_app: std::mem::take(&mut self.per_app) }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.per_app.len());
        for (label, (packets, bytes)) in &self.per_app {
            writer.str(label);
            writer.f64(*packets);
            writer.f64(*bytes);
        }
    }
}

/// `high-watermark` before it kept the open interval's bytes per bin (the
/// state a fleet's lanes fold): a running peak over the bins.
#[derive(Default)]
pub struct RunningPeakWatermark {
    peak_mbps: f64,
}

impl RunningPeakWatermark {
    pub fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        let mut batch_bytes = 0.0;
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE + costs::COUNTER_UPDATE);
            batch_bytes += f64::from(packet.ip_len()) / rate;
        }
        let mbps = batch_bytes * 8.0 / (batch.duration_us() as f64 / 1e6) / 1e6;
        if mbps > self.peak_mbps {
            self.peak_mbps = mbps;
        }
    }

    pub fn end_interval(&mut self) -> QueryOutput {
        QueryOutput::HighWatermark { mbps: std::mem::take(&mut self.peak_mbps) }
    }
}

/// `super-sources` before the flow index: every packet hashes its
/// (source, destination) pair and probes the pair set.
pub struct PerPacketSuperSources {
    top: usize,
    /// Host-pair hashes in insertion order.
    pairs: Vec<u64>,
    known_pairs: HashSet<u64>,
    /// (source, fan-out) in insertion order, and where each source sits.
    fanout: Vec<(u32, f64)>,
    fanout_at: HashMap<u32, usize>,
}

impl PerPacketSuperSources {
    pub fn new(top: usize) -> Self {
        Self {
            top,
            pairs: Vec::new(),
            known_pairs: HashSet::new(),
            fanout: Vec::new(),
            fanout_at: HashMap::new(),
        }
    }
}

impl PerPacketKernel for PerPacketSuperSources {
    fn process_batch(&mut self, batch: &BatchView, rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE + costs::DISTINCT_UPDATE);
            let tuple = packet.tuple();
            let mut key = [0u8; 8];
            key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes());
            key[4..].copy_from_slice(&tuple.dst_ip.to_be_bytes());
            let pair = hash_bytes(&key, 0x5005);
            if self.known_pairs.insert(pair) {
                meter.charge(costs::HASH_INSERT);
                self.pairs.push(pair);
                let at = *self.fanout_at.entry(tuple.src_ip).or_insert_with(|| {
                    self.fanout.push((tuple.src_ip, 0.0));
                    self.fanout.len() - 1
                });
                self.fanout[at].1 += 1.0 / rate;
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let sources = sort_then_truncate(std::mem::take(&mut self.fanout), self.top);
        self.fanout_at.clear();
        self.pairs.clear();
        self.known_pairs.clear();
        QueryOutput::SuperSources { fanouts: sources.into_iter().collect() }
    }

    fn save_state(&self, writer: &mut StateWriter) {
        writer.usize(self.pairs.len());
        for pair in &self.pairs {
            writer.u64(*pair);
        }
        writer.usize(self.fanout.len());
        for (source, fanout) in &self.fanout {
            writer.u32(*source);
            writer.f64(*fanout);
        }
    }
}

// ---------------------------------------------------------------------------
// FCBF one gathered column and one Pearson pass at a time.
// ---------------------------------------------------------------------------

/// Pearson linear correlation coefficient of two equally long series; 0 when
/// either has zero variance (a constant predictor carries no linear
/// information).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "series length mismatch");
    if x.len() < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / x.len() as f64;
    let my = y.iter().sum::<f64>() / y.len() as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let da = a - mx;
        let db = b - my;
        cov += da * db;
        vx += da * da;
        vy += db * db;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// FCBF over the history: the selected feature indices, most relevant first,
/// and every considered feature's |correlation| with the response.
pub fn fcbf(
    history: &History,
    config: &FcbfConfig,
    feature_count: usize,
) -> (Vec<usize>, Vec<f64>) {
    if history.len() < 2 {
        return (Vec::new(), Vec::new());
    }
    let responses = history.responses();
    let mut relevance = Vec::new();
    let mut candidates: Vec<(usize, f64, Vec<f64>)> = Vec::new();
    for index in 0..feature_count {
        let column = history.feature_column(index);
        let correlation = pearson(&column, &responses).abs();
        relevance.push(correlation);
        if correlation.is_finite() && correlation >= config.threshold {
            candidates.push((index, correlation, column));
        }
    }
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));

    // A candidate at least as correlated with a kept feature as with the
    // response is redundant.
    let mut selected: Vec<(usize, f64, Vec<f64>)> = Vec::new();
    'outer: for candidate in candidates {
        for kept in &selected {
            if pearson(&candidate.2, &kept.2).abs() + 1e-9 >= candidate.1 {
                continue 'outer;
            }
        }
        selected.push(candidate);
        if selected.len() >= config.max_features {
            break;
        }
    }
    (selected.into_iter().map(|(index, _, _)| index).collect(), relevance)
}

// ---------------------------------------------------------------------------
// The run digest of epochs 3 and 4: one chain, a word per multiply-rotate
// step, every interval's outputs and every decision absorbed twice; and
// what it pinned.
// ---------------------------------------------------------------------------

/// Starting state of the epoch-4 chain ("bins").
const WORD_SERIAL_SEED: u64 = 0x6269_6e73;

/// `StreamDigest` before it kept four chains: every canonical value as one
/// 64-bit word (a string its length word and then its bytes packed
/// little-endian into zero-padded words), each absorbed into one chain by
/// `state = (state ^ word) · 0x9e37_79b9_7f4a_7c15 ⟲ 31`, finished by
/// `mix64`. A bin record carried its interval outputs and its decision too.
#[derive(Debug, Clone, Copy)]
pub struct WordSerialDigest {
    state: u64,
    items: u64,
}

impl Default for WordSerialDigest {
    fn default() -> Self {
        Self { state: WORD_SERIAL_SEED, items: 0 }
    }
}

impl WordSerialDigest {
    pub fn items(&self) -> u64 {
        self.items
    }

    pub fn value(&self) -> u64 {
        mix64(self.state)
    }

    fn word(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    }

    fn u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.word(v);
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn str(&mut self, v: &str) {
        self.word(v.len() as u64);
        for chunk in v.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

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
        match &record.interval_outputs {
            None => self.u8(0),
            Some(outputs) => {
                self.u8(1);
                self.absorb_outputs_body(outputs);
            }
        }
        self.absorb_decision_body(record.decision.rates.len() as u64, &record.decision);
    }

    pub fn absorb_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.items += 1;
        self.u64(bin_index);
        self.absorb_decision_body(decision.rates.len() as u64, decision);
    }

    pub fn absorb_outputs(&mut self, outputs: &[(String, QueryOutput)]) {
        self.items += 1;
        self.absorb_outputs_body(outputs);
    }

    fn absorb_decision_body(&mut self, len: u64, decision: &ControlDecision) {
        self.u64(len);
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

    fn absorb_outputs_body(&mut self, outputs: &[(String, QueryOutput)]) {
        self.u64(outputs.len() as u64);
        for (name, output) in outputs {
            self.str(name);
            self.absorb_output(output);
        }
    }

    fn absorb_output(&mut self, output: &QueryOutput) {
        match output {
            QueryOutput::Counter { packets, bytes } => {
                self.u8(0);
                self.f64(*packets);
                self.f64(*bytes);
            }
            QueryOutput::Application { per_app } => {
                self.u8(1);
                let mut entries: Vec<_> = per_app.iter().collect();
                entries.sort_by_key(|(app, _)| **app);
                self.u64(entries.len() as u64);
                for (app, (packets, bytes)) in entries {
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
                let mut entries: Vec<_> = fanouts.iter().collect();
                entries.sort_by_key(|(src, _)| **src);
                self.u64(entries.len() as u64);
                for (src, fanout) in entries {
                    self.u64(u64::from(*src));
                    self.f64(*fanout);
                }
            }
            QueryOutput::P2pFlows { flows } => {
                self.u8(7);
                let mut keys: Vec<u64> = flows.iter().copied().collect();
                keys.sort_unstable();
                self.u64(keys.len() as u64);
                for key in keys {
                    self.u64(key);
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

/// `DigestObserver` over [`WordSerialDigest`]s: the run fingerprint of
/// digest epochs 3 and 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordSerialDigestObserver {
    records: WordSerialDigest,
    decisions: WordSerialDigest,
    intervals: WordSerialDigest,
}

impl WordSerialDigestObserver {
    pub fn digest(&self) -> RunDigest {
        RunDigest {
            bins: self.records.items(),
            records: self.records.value(),
            decisions: self.decisions.value(),
            intervals: self.intervals.value(),
        }
    }
}

impl RunObserver for WordSerialDigestObserver {
    fn on_bin(&mut self, record: &BinRecord) {
        self.records.absorb_record(record);
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.decisions.absorb_decision(bin_index, decision);
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.intervals.absorb_outputs(outputs);
    }
}

/// The 63 rows of `corpus/GOLDEN.digests` as digest epoch 4 recorded them:
/// (scenario, strategy, fingerprint), in manifest order.
pub fn epoch4_manifest() -> Vec<(String, String, RunDigest)> {
    include_str!("GOLDEN.epoch-4.digests")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let hex = |at: usize| u64::from_str_radix(fields[at], 16).expect("hex digest");
            let digest = RunDigest {
                bins: fields[2].parse().expect("bin count"),
                records: hex(3),
                decisions: hex(4),
                intervals: hex(5),
            };
            (fields[0].to_string(), fields[1].to_string(), digest)
        })
        .collect()
}

/// `tests/engine.rs`'s digest pins as digest epoch 4 captured them: the
/// unshed tenant run and the churn run, on a solo monitor and a 4-lane
/// fleet.
pub const EPOCH4_TENANTS_SOLO: RunDigest = RunDigest {
    bins: 150,
    records: 0xfe6d6827f1be794a,
    decisions: 0xe03a6283429c093c,
    intervals: 0x30ca0e8cee8f8e8a,
};
pub const EPOCH4_TENANTS_FOUR_LANES: RunDigest = RunDigest {
    bins: 150,
    records: 0x77c70d8495c767e1,
    decisions: 0x4e4eaa3a9c61050e,
    intervals: 0x30ca0e8cee8f8e8a,
};
pub const EPOCH4_CHURN_SOLO: RunDigest = RunDigest {
    bins: 120,
    records: 0x3df8bd2faf0a956a,
    decisions: 0x1dd6e26c3eab3d22,
    intervals: 0x3d717fd68d0dacd7,
};
pub const EPOCH4_CHURN_FOUR_LANES: RunDigest = RunDigest {
    bins: 120,
    records: 0x7e16b1baa2969b95,
    decisions: 0x3d91b1e773494eb9,
    intervals: 0x88bfa7d0bed4b5d6,
};

// ---------------------------------------------------------------------------
// The `.nstr` body decoder before the single pass: one bounds-checked take
// and one `StoreBuilder::push` per record.
// ---------------------------------------------------------------------------

/// Decodes every batch of `container` record at a time: frames come from
/// the public [`FrameWalk`] and their checksums are checked the way the
/// reader checks them; each body is read one record at a time into a
/// packet-at-a-time store builder.
pub fn decode_record_at_a_time(container: &Bytes) -> Result<Vec<Batch>, FormatError> {
    const RECORD: usize = 30;
    const NO_PAYLOAD: u32 = u32::MAX;
    let u16_at = |b: &[u8], at: usize| u16::from_le_bytes([b[at], b[at + 1]]);
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut walk = FrameWalk::new(container.clone())?;
    let mut batches = Vec::new();
    while let Some(frame) = walk.next_frame()? {
        if !frame.checksum_ok() {
            return Err(FormatError::ChecksumMismatch {
                location: format!("frame {}", frame.index()),
            });
        }
        let corrupt =
            || FormatError::ChecksumMismatch { location: format!("frame {} body", frame.index()) };
        let (body, count) = (frame.body(), frame.packets());
        if u64::from(count) * RECORD as u64 > body.len() as u64 {
            return Err(corrupt());
        }
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<std::ops::Range<usize>, FormatError> {
            let end = at.checked_add(n).filter(|&end| end <= body.len()).ok_or_else(corrupt)?;
            Ok(std::mem::replace(&mut at, end)..end)
        };
        let mut builder = PacketStore::builder(count as usize);
        for _ in 0..count {
            let record = &body[take(RECORD)?];
            let tuple = FiveTuple::new(
                u32_at(record, 8),
                u32_at(record, 12),
                u16_at(record, 16),
                u16_at(record, 18),
                record[20],
            );
            let payload = match u32_at(record, 26) {
                NO_PAYLOAD => None,
                len => Some(&body[take(len as usize)?]),
            };
            builder.push(u64_at(record, 0), tuple, u32_at(record, 22), record[21], payload);
        }
        if at != body.len() {
            return Err(corrupt());
        }
        batches.push(Batch::from_store(
            frame.bin_index(),
            frame.start_ts(),
            frame.duration_us(),
            builder.finish(),
        ));
    }
    Ok(batches)
}
