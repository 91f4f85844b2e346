//! The stateful queries whose cost depends on the flow structure of the
//! traffic: `flows`, `top-k`, `super-sources` and `autofocus`.
//!
//! Their per-batch cost mixes a per-packet lookup term with a per-new-entry
//! creation term, which is what makes the multi-feature MLR predictor of the
//! paper clearly better than single-feature baselines (Figure 3.3/3.4).

use crate::cost::{costs, CycleMeter};
use crate::output::QueryOutput;
use crate::query::{
    adds_exactly, fold_weights, repeated_key, restore_weights, restored_weight, same_kind,
    save_weights, scale, unit_rate_stats, FlowSlots, Query, SheddingMethod,
};
use netshed_sketch::{hash_bytes, DetHashMap, DetHashSet, StateError, StateReader, StateWriter};
use netshed_trace::{BatchView, FlowSet};

/// The `n` entries of `entries` with the largest values by
/// [`f64::total_cmp`], largest first, entries of equal value in the order
/// met — what a stable descending sort of all of them followed by
/// `truncate(n)` keeps, in one pass that holds at most `n` entries.
///
/// An entry not strictly above the `n`-th kept so far is skipped: a full
/// sort would place it after all `n`. One that is kept goes after every
/// kept entry whose value is at least its own.
pub fn top_n<K>(entries: impl Iterator<Item = (K, f64)>, n: usize) -> Vec<(K, f64)> {
    let mut top: Vec<(K, f64)> = Vec::with_capacity(n.min(entries.size_hint().0));
    for (key, value) in entries {
        if top.len() == n {
            if !top.last().is_some_and(|last| value.total_cmp(&last.1).is_gt()) {
                continue;
            }
            top.pop();
        }
        let at = top.partition_point(|kept| kept.1.total_cmp(&value).is_ge());
        top.insert(at, (key, value));
    }
    top
}

/// `flows`: per-flow classification and count of active 5-tuple flows.
///
/// Uses flow sampling (Table 2.2), since packet sampling biases flow counts.
#[derive(Debug, Default)]
pub struct FlowsQuery {
    /// Flow key → Horvitz–Thompson weight (1 / sampling rate at insertion).
    table: DetHashMap<u64, f64>,
    /// Scratch: the flows of a sampled batch already looked up.
    seen: FlowSet,
}

impl FlowsQuery {
    /// Creates the query.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Query for FlowsQuery {
    fn name(&self) -> &'static str {
        "flows"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::FlowSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.05
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(costs::PER_PACKET_BASE + costs::HASH_LOOKUP, batch.len() as u64);
        // A flow's later packets would find its entry occupied; its key is the
        // store's memo, hashed once per flow for every `flows` instance.
        for (flow, _) in batch.first_of_flows(&mut self.seen) {
            let key = batch.store().flow_key_hash(flow);
            if let netshed_sketch::Entry::Vacant(vacant) = self.table.entry(key) {
                meter.charge(costs::HASH_INSERT);
                // The sampling rate may change from batch to batch, so each
                // flow is weighted by the rate in force when it was first seen.
                vacant.insert(scale(1.0, sampling_rate));
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        // lint:allow(merge-order): DetHashMap iterates replay-stably (same insertion history, same order), so this sum is bit-identical across runs
        let count = self.table.values().sum();
        self.table.clear();
        QueryOutput::Flows { count }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        // A flow lives on one lane, so the tables are disjoint and this is a
        // union; a flow listed twice keeps the weight it was first seen at.
        for (key, weight) in same_kind::<Self>(lane).table.drain() {
            self.table.entry(key).or_insert(weight);
        }
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        save_weights(&self.table, writer, |writer, key| writer.u64(*key));
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_weights(&mut self.table, "flows", reader, StateReader::u64)
    }
}

/// `top-k`: ranking of the destination addresses that received the most bytes.
#[derive(Debug)]
pub struct TopKQuery {
    k: usize,
    bytes_per_dst: DetHashMap<u32, f64>,
    /// Scratch: each flow's position in `bytes_per_dst`.
    flow_slots: FlowSlots<usize>,
}

impl TopKQuery {
    /// Creates a query reporting the top `k` destinations.
    pub fn new(k: usize) -> Self {
        Self { k: k.max(1), bytes_per_dst: DetHashMap::default(), flow_slots: FlowSlots::default() }
    }
}

impl Default for TopKQuery {
    fn default() -> Self {
        Self::new(10)
    }
}

impl Query for TopKQuery {
    fn name(&self) -> &'static str {
        "top-k"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.57
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(
            costs::PER_PACKET_BASE + costs::HASH_LOOKUP + costs::RANKING_UPDATE,
            batch.len() as u64,
        );
        // A flow's packets share a destination: one probe per flow. A new one
        // enters at +0.0, which its first packet's bytes turn into exactly those.
        let table = &mut self.bytes_per_dst;
        self.flow_slots.probe(batch, |packet| {
            let (position, inserted) = table.position_or_insert(packet.tuple().dst_ip, 0.0);
            if inserted {
                meter.charge(costs::HASH_INSERT);
            }
            position
        });
        // Whole at rate 1.0, each flow's bytes in one addition, if every
        // entry a flow reaches stays exact with the whole batch added.
        let whole = unit_rate_stats(batch, sampling_rate).filter(|stats| {
            (self.flow_slots.flows(batch))
                .all(|(position, _)| adds_exactly(*table.value_at_mut(position), stats.bytes))
        });
        if whole.is_some() {
            for (position, flow) in self.flow_slots.flows(batch) {
                *table.value_at_mut(position) += flow.bytes as f64;
            }
            return;
        }
        for (position, packet) in self.flow_slots.packets(batch) {
            *table.value_at_mut(position) += scale(f64::from(packet.ip_len()), sampling_rate);
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        QueryOutput::TopK { ranking: top_n(self.bytes_per_dst.drain(), self.k) }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        fold_weights(&mut self.bytes_per_dst, &mut same_kind::<Self>(lane).bytes_per_dst);
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        save_weights(&self.bytes_per_dst, writer, |writer, dst| writer.u32(*dst));
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        restore_weights(&mut self.bytes_per_dst, "top-k", reader, StateReader::u32)
    }
}

/// `super-sources`: detection of the sources with the largest fan-out
/// (number of distinct destinations contacted). Uses flow sampling.
#[derive(Debug)]
pub struct SuperSourcesQuery {
    /// Number of sources reported.
    top: usize,
    pairs_seen: DetHashSet<u64>,
    fanout: DetHashMap<u32, f64>,
    /// Scratch: the flows of a sampled batch already looked up.
    seen: FlowSet,
}

impl SuperSourcesQuery {
    /// Creates a query reporting the `top` sources by fan-out.
    pub fn new(top: usize) -> Self {
        Self {
            top: top.max(1),
            pairs_seen: DetHashSet::default(),
            fanout: DetHashMap::default(),
            seen: FlowSet::default(),
        }
    }
}

impl Default for SuperSourcesQuery {
    fn default() -> Self {
        Self::new(10)
    }
}

impl Query for SuperSourcesQuery {
    fn name(&self) -> &'static str {
        "super-sources"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::FlowSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.93
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(costs::PER_PACKET_BASE + costs::DISTINCT_UPDATE, batch.len() as u64);
        // A flow's later packets would find their host pair already seen.
        for (_, packet) in batch.first_of_flows(&mut self.seen) {
            let tuple = packet.tuple();
            let mut key = [0u8; 8];
            key[..4].copy_from_slice(&tuple.src_ip.to_be_bytes());
            key[4..].copy_from_slice(&tuple.dst_ip.to_be_bytes());
            let pair = hash_bytes(&key, 0x5005);
            if self.pairs_seen.insert(pair) {
                meter.charge(costs::HASH_INSERT);
                // Weight each new (source, destination) pair by the sampling
                // rate in force when it was discovered.
                *self.fanout.entry(tuple.src_ip).or_insert(0.0) += scale(1.0, sampling_rate);
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let sources = top_n(self.fanout.drain(), self.top);
        self.pairs_seen.clear();
        QueryOutput::SuperSources { fanouts: sources.into_iter().collect() }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        // A host pair lives on one lane: the lanes counted disjoint sets of a
        // source's peers, so the fan-outs add, and the lane's pair set — only
        // ever asked whether a pair is new — has nothing left to answer.
        let lane = same_kind::<Self>(lane);
        lane.pairs_seen.clear();
        fold_weights(&mut self.fanout, &mut lane.fanout);
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.usize(self.pairs_seen.len());
        for pair in self.pairs_seen.iter() {
            writer.u64(*pair);
        }
        save_weights(&self.fanout, writer, |writer, source| writer.u32(*source));
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.pairs_seen.clear();
        let pairs = reader.usize()?;
        for entry in 0..pairs {
            if !self.pairs_seen.insert(reader.u64()?) {
                return Err(repeated_key("super-sources pair", entry));
            }
        }
        restore_weights(&mut self.fanout, "super-sources fan-out", reader, StateReader::u32)
    }
}

/// `autofocus` (uni-dimensional): traffic clusters per destination prefix
/// that exceed a fraction of the total interval traffic.
#[derive(Debug)]
pub struct AutofocusQuery {
    /// Report threshold as a fraction of the interval's total bytes.
    threshold_fraction: f64,
    /// Bytes per (prefix value, prefix length).
    prefixes: DetHashMap<(u32, u8), f64>,
    total_bytes: f64,
    /// Scratch: each flow's positions in `prefixes`, one per level.
    flow_slots: FlowSlots<[usize; 3]>,
}

impl AutofocusQuery {
    /// Creates a query reporting clusters above `threshold_fraction` of the
    /// interval's traffic.
    pub fn new(threshold_fraction: f64) -> Self {
        Self {
            threshold_fraction: threshold_fraction.clamp(0.0001, 1.0),
            prefixes: DetHashMap::default(),
            total_bytes: 0.0,
            flow_slots: FlowSlots::default(),
        }
    }

    /// Prefix lengths of the uni-dimensional hierarchy.
    const LEVELS: [u8; 3] = [8, 16, 24];
}

impl Default for AutofocusQuery {
    fn default() -> Self {
        Self::new(0.02)
    }
}

impl Query for AutofocusQuery {
    fn name(&self) -> &'static str {
        "autofocus"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.69
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        let packets = batch.len() as u64;
        meter.charge_n(costs::PER_PACKET_BASE, packets);
        meter.charge_n(costs::PREFIX_LEVEL, packets * Self::LEVELS.len() as u64);
        // A flow's packets share a destination, so its prefixes: one probe
        // per flow and level, shallowest first, as `top-k` probes its table.
        let prefixes = &mut self.prefixes;
        self.flow_slots.probe(batch, |packet| {
            Self::LEVELS.map(|len| {
                let mask = if len == 32 { u32::MAX } else { !0u32 << (32 - len) };
                let key = (packet.tuple().dst_ip & mask, len);
                let (position, inserted) = prefixes.position_or_insert(key, 0.0);
                if inserted {
                    meter.charge(costs::HASH_INSERT);
                }
                position
            })
        });
        // Whole at rate 1.0, each flow's bytes in one addition per level, if
        // the total and every prefix a flow reaches stay exact with the whole
        // batch added.
        let whole = unit_rate_stats(batch, sampling_rate).filter(|stats| {
            let exact = |sum: f64| adds_exactly(sum, stats.bytes);
            exact(self.total_bytes)
                && (self.flow_slots.flows(batch)).all(|(positions, _)| {
                    positions.iter().all(|&position| exact(*prefixes.value_at_mut(position)))
                })
        });
        if let Some(stats) = whole {
            self.total_bytes += stats.bytes as f64;
            for (positions, flow) in self.flow_slots.flows(batch) {
                for position in positions {
                    *prefixes.value_at_mut(position) += flow.bytes as f64;
                }
            }
            return;
        }
        for (positions, packet) in self.flow_slots.packets(batch) {
            let bytes = scale(f64::from(packet.ip_len()), sampling_rate);
            self.total_bytes += bytes;
            for position in positions {
                *prefixes.value_at_mut(position) += bytes;
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let threshold = self.total_bytes * self.threshold_fraction;
        let mut clusters: Vec<(u32, u8, f64)> = self
            .prefixes
            .drain()
            .filter(|(_, bytes)| *bytes >= threshold && threshold > 0.0)
            .map(|((prefix, len), bytes)| (prefix, len, bytes))
            .collect();
        clusters.sort_by(|a, b| b.2.total_cmp(&a.2));
        self.total_bytes = 0.0;
        QueryOutput::Autofocus { clusters }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        let lane = same_kind::<Self>(lane);
        fold_weights(&mut self.prefixes, &mut lane.prefixes);
        self.total_bytes += std::mem::take(&mut lane.total_bytes);
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        save_weights(&self.prefixes, writer, |writer, (prefix, len)| {
            writer.u32(*prefix);
            writer.u8(*len);
        });
        writer.f64(self.total_bytes);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        let prefix = |reader: &mut StateReader<'_>| Ok((reader.u32()?, reader.u8()?));
        restore_weights(&mut self.prefixes, "autofocus", reader, prefix)?;
        self.total_bytes = restored_weight("autofocus total_bytes", 0, reader.f64()?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_trace::{FiveTuple, Packet};

    fn batch_of(tuples: &[FiveTuple], size: u32) -> BatchView {
        let packets: Vec<Packet> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| Packet::header_only(i as u64, *t, size, 0))
            .collect();
        netshed_trace::Batch::new(0, 0, 100_000, packets).view()
    }

    #[test]
    fn flows_counts_distinct_five_tuples() {
        let tuples: Vec<FiveTuple> = (0..200).map(|i| FiveTuple::new(i, 2, 1000, 80, 6)).collect();
        let mut q = FlowsQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::Flows { count } => assert_eq!(count, 200.0),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn flows_scales_estimate_by_flow_sampling_rate() {
        let tuples: Vec<FiveTuple> = (0..100).map(|i| FiveTuple::new(i, 2, 1000, 80, 6)).collect();
        let mut q = FlowsQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 0.5, &mut meter);
        match q.end_interval() {
            QueryOutput::Flows { count } => assert_eq!(count, 200.0),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn flows_new_entries_cost_more_than_lookups() {
        let tuples: Vec<FiveTuple> = (0..100).map(|i| FiveTuple::new(i, 2, 1000, 80, 6)).collect();
        let mut q = FlowsQuery::new();
        let mut first = CycleMeter::new();
        let mut second = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut first);
        // Same flows again: no inserts, only lookups.
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut second);
        assert!(first.cycles() > second.cycles());
    }

    #[test]
    fn topk_ranks_heaviest_destinations_first() {
        let mut tuples = Vec::new();
        // Destination 99 receives 50 packets, destination 1 receives 5.
        for _ in 0..50 {
            tuples.push(FiveTuple::new(1, 99, 1000, 80, 6));
        }
        for _ in 0..5 {
            tuples.push(FiveTuple::new(1, 1, 1000, 80, 6));
        }
        let mut q = TopKQuery::new(2);
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::TopK { ranking } => {
                assert_eq!(ranking[0].0, 99);
                assert_eq!(ranking.len(), 2);
                assert!(ranking[0].1 > ranking[1].1);
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn super_sources_measures_fanout() {
        let mut tuples = Vec::new();
        // Source 7 contacts 30 destinations; source 8 contacts 2.
        for d in 0..30 {
            tuples.push(FiveTuple::new(7, d, 1000, 80, 6));
        }
        for d in 0..2 {
            tuples.push(FiveTuple::new(8, 100 + d, 1000, 80, 6));
        }
        let mut q = SuperSourcesQuery::new(1);
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::SuperSources { fanouts } => {
                assert_eq!(fanouts.len(), 1);
                assert_eq!(fanouts.get(&7).copied(), Some(30.0));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn super_sources_counts_each_pair_once() {
        let tuples = vec![FiveTuple::new(7, 1, 1000, 80, 6); 50];
        let mut q = SuperSourcesQuery::new(5);
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::SuperSources { fanouts } => {
                assert_eq!(fanouts.get(&7).copied(), Some(1.0));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn autofocus_reports_heavy_prefixes_only() {
        let mut tuples = Vec::new();
        // 95% of bytes to 10.1.x.x, 5% spread elsewhere.
        for i in 0..95 {
            tuples.push(FiveTuple::new(1, 0x0a01_0000 | i, 1000, 80, 6));
        }
        for i in 0..5 {
            tuples.push(FiveTuple::new(1, 0xc0a8_0000 | (i << 8), 1000, 80, 6));
        }
        let mut q = AutofocusQuery::new(0.5);
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 1000), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::Autofocus { clusters } => {
                assert!(!clusters.is_empty());
                // The /8 and /16 of 10.1.0.0 dominate; nothing from 192.168.
                assert!(clusters.iter().all(|(prefix, _, _)| (prefix >> 24) == 0x0a));
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn interval_reset_clears_state() {
        let tuples: Vec<FiveTuple> = (0..10).map(|i| FiveTuple::new(i, 2, 1000, 80, 6)).collect();
        let mut q = TopKQuery::new(5);
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_of(&tuples, 100), 1.0, &mut meter);
        let _ = q.end_interval();
        match q.end_interval() {
            QueryOutput::TopK { ranking } => assert!(ranking.is_empty()),
            other => panic!("unexpected output {other:?}"),
        }
    }
}
