//! The payload-dependent queries: `trace`, `pattern-search` and
//! `p2p-detector`.
//!
//! Their cost is dominated by the number of bytes touched (storing or
//! scanning payloads), which is why the feature selection picks the `bytes`
//! feature for them on payload traces and falls back to `packets` on
//! header-only traces (Table 3.2). The `p2p-detector` additionally supports
//! a *custom load shedding* method (Chapter 6): instead of having the system
//! sample packets — which makes it miss protocol handshakes — it restricts
//! the fraction of each flow's packets it inspects.

use crate::boyer_moore::BoyerMoore;
use crate::cost::{costs, CycleMeter};
use crate::output::QueryOutput;
use crate::query::{
    count_packets, repeated_key, restored_weight, same_kind, Query, SheddingMethod,
};
// Per-packet state lives in the replay-stable hashed containers
// (determinism contract, rule `det-map`): same insertion history, same
// iteration order, O(1) hot-path updates.
use netshed_sketch::{hash_bytes, DetHashMap, DetHashSet, StateError, StateReader, StateWriter};
use netshed_trace::BatchView;

/// Number of bytes of a packet that are captured when no payload is present
/// (the link + network + transport headers stored by the trace query).
const HEADER_BYTES: u64 = 40;

/// `trace`: full-payload packet collection (Table 2.2).
#[derive(Debug, Default)]
pub struct TraceQuery {
    processed_packets: f64,
}

impl TraceQuery {
    /// Creates the query.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Query for TraceQuery {
    fn name(&self) -> &'static str {
        "trace"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.10
    }

    fn process_batch(&mut self, batch: &BatchView, _sampling_rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            let stored =
                if packet.payload().is_some() { u64::from(packet.ip_len()) } else { HEADER_BYTES };
            meter.charge(costs::PER_PACKET_BASE);
            meter.charge_n(costs::STORE_BYTE, stored);
        }
        // A packet counts 1.0 whatever the rate: an integer term.
        count_packets(&mut self.processed_packets, batch.len() as u64);
    }

    fn end_interval(&mut self) -> QueryOutput {
        let output = QueryOutput::Coverage {
            processed_packets: self.processed_packets,
            total_packets: self.processed_packets,
        };
        self.processed_packets = 0.0;
        output
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        self.processed_packets += std::mem::take(same_kind::<Self>(lane)).processed_packets;
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.f64(self.processed_packets);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.processed_packets = restored_weight("trace processed_packets", 0, reader.f64()?)?;
        Ok(())
    }
}

/// `pattern-search`: identification of byte sequences in packet payloads via
/// Boyer–Moore (Table 2.2).
#[derive(Debug)]
pub struct PatternSearchQuery {
    pattern: BoyerMoore,
    processed_packets: f64,
    matches: u64,
}

impl PatternSearchQuery {
    /// Creates a query searching for the given byte pattern.
    pub fn new(pattern: &[u8]) -> Self {
        Self { pattern: BoyerMoore::new(pattern), processed_packets: 0.0, matches: 0 }
    }

    /// Number of packets that matched the pattern so far in this interval.
    pub fn matches(&self) -> u64 {
        self.matches
    }
}

impl Default for PatternSearchQuery {
    fn default() -> Self {
        Self::new(b"GET / HTTP/1.1")
    }
}

impl Query for PatternSearchQuery {
    fn name(&self) -> &'static str {
        "pattern-search"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.10
    }

    fn process_batch(&mut self, batch: &BatchView, _sampling_rate: f64, meter: &mut CycleMeter) {
        for packet in batch.packets() {
            meter.charge(costs::PER_PACKET_BASE);
            if let Some(payload) = packet.payload() {
                let (found, examined) = self.pattern.find(payload);
                meter.charge_n(costs::SCAN_BYTE, examined);
                if found.is_some() {
                    self.matches += 1;
                }
            }
        }
        count_packets(&mut self.processed_packets, batch.len() as u64);
    }

    fn end_interval(&mut self) -> QueryOutput {
        let output = QueryOutput::Coverage {
            processed_packets: self.processed_packets,
            total_packets: self.processed_packets,
        };
        self.processed_packets = 0.0;
        self.matches = 0;
        output
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        let lane = same_kind::<Self>(lane);
        self.processed_packets += std::mem::take(&mut lane.processed_packets);
        self.matches += std::mem::take(&mut lane.matches);
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.f64(self.processed_packets);
        writer.u64(self.matches);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.processed_packets =
            restored_weight("pattern-search processed_packets", 0, reader.f64()?)?;
        self.matches = reader.u64()?;
        Ok(())
    }
}

/// Behaviour of the `p2p-detector` when asked to shed load itself
/// (Chapter 6, Figures 6.10 and 6.11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CustomBehavior {
    /// Applies its custom load shedding method correctly.
    Honest,
    /// Ignores the requested sampling rate and processes everything,
    /// trying to grab more than its fair share of cycles.
    Selfish,
    /// Sheds the wrong amount of load because of an implementation bug
    /// (it only ever sheds half of what it is asked to).
    Buggy,
}

impl CustomBehavior {
    /// Stable name used by snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            CustomBehavior::Honest => "honest",
            CustomBehavior::Selfish => "selfish",
            CustomBehavior::Buggy => "buggy",
        }
    }

    /// Resolves a stable name back to its variant (the inverse of
    /// [`CustomBehavior::name`]); `None` for unknown names.
    pub fn from_name(name: &str) -> Option<CustomBehavior> {
        [CustomBehavior::Honest, CustomBehavior::Selfish, CustomBehavior::Buggy]
            .into_iter()
            .find(|behavior| behavior.name() == name)
    }
}

/// `p2p-detector`: signature-based detection of P2P flows (Table 2.2).
///
/// With standard load shedding the detector receives packet-sampled batches
/// and misses handshakes; configured for *custom* shedding it receives the
/// full batch plus a target rate and limits the fraction of each flow's
/// packets it inspects, first packets first, which preserves detection
/// accuracy at the same cost (Figure 6.2).
#[derive(Debug)]
pub struct P2pDetectorQuery {
    /// "BitTorrent protocol", then "GNUTELLA CONNECT".
    signatures: [BoyerMoore; 2],
    p2p_ports: Vec<u16>,
    shedding: SheddingMethod,
    behavior: CustomBehavior,
    identified: DetHashSet<u64>,
    /// Packets (seen, inspected) so far per flow key (only used in custom mode).
    inspected_per_flow: DetHashMap<u64, (u32, u32)>,
    /// Scratch: each flow's canonical key, by the flow ids of the batch in hand.
    canonical_keys: Vec<Option<u64>>,
}

impl P2pDetectorQuery {
    /// Creates a detector using the system's packet-sampling load shedding.
    pub fn new() -> Self {
        Self::with_shedding(SheddingMethod::PacketSampling, CustomBehavior::Honest)
    }

    /// Creates a detector that performs custom load shedding with the given
    /// behaviour.
    pub fn custom(behavior: CustomBehavior) -> Self {
        Self::with_shedding(SheddingMethod::Custom, behavior)
    }

    fn with_shedding(shedding: SheddingMethod, behavior: CustomBehavior) -> Self {
        Self {
            signatures: [
                BoyerMoore::new(b"BitTorrent protocol"),
                BoyerMoore::new(b"GNUTELLA CONNECT"),
            ],
            p2p_ports: vec![6881, 6346],
            shedding,
            behavior,
            identified: DetHashSet::default(),
            inspected_per_flow: DetHashMap::default(),
            canonical_keys: Vec::new(),
        }
    }

    /// Canonical flow key (direction-insensitive) used in the output set.
    fn flow_key(tuple: &netshed_trace::FiveTuple) -> u64 {
        let forward = hash_bytes(&tuple.as_key(), 0x9292);
        let backward = hash_bytes(&tuple.reversed().as_key(), 0x9292);
        forward.min(backward)
    }

    /// Effective fraction of per-flow packets inspected given the requested
    /// rate and the configured behaviour.
    fn effective_rate(&self, requested: f64) -> f64 {
        match self.behavior {
            CustomBehavior::Honest => requested,
            CustomBehavior::Selfish => 1.0,
            CustomBehavior::Buggy => f64::midpoint(requested, 1.0),
        }
    }
}

impl Default for P2pDetectorQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl Query for P2pDetectorQuery {
    fn name(&self) -> &'static str {
        "p2p-detector"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        self.shedding
    }

    /// Packet sampling misses handshakes, so the detector needs 0.35 of the
    /// packets (Fig. 6.4). Its custom method inspects every flow's first
    /// packet at any rate, so detection does not fall with the rate and the
    /// floor is one of cost: the first packets take 0.17–0.19 of the full
    /// cost on the Chapter 6 trace (rate 0.01, seeds 1–3 and 42), so a grant
    /// below 0.20 sheds next to nothing.
    fn min_sampling_rate(&self) -> f64 {
        match self.shedding {
            SheddingMethod::Custom => 0.20,
            _ => 0.35,
        }
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        let custom = self.shedding == SheddingMethod::Custom;
        let rate = self.effective_rate(sampling_rate);
        // The canonical key is two hashes of the 5-tuple: computed at a
        // flow's first packet, read back for the others.
        let index = batch.store().flow_index();
        self.canonical_keys.clear();
        self.canonical_keys.resize(index.flows(), None);
        for (at, packet) in batch.indexed_packets() {
            let tuple = packet.tuple();
            let key = *self.canonical_keys[index.flow_of()[at] as usize]
                .get_or_insert_with(|| Self::flow_key(tuple));

            if custom {
                // Custom load shedding: inspect a `rate` fraction of each
                // flow's packets, rounded up, so always the first, where its
                // handshake lives. A skipped packet costs only its flow's
                // counter update, so the cycles follow the rate down to the
                // first packets' share. Per flow, so lanes that split the
                // flows decide as one instance would.
                let (seen, inspected) = self.inspected_per_flow.entry(key).or_insert((0, 0));
                *seen += 1;
                let budget = (f64::from(*seen) * rate).ceil() as u32;
                if *inspected >= budget {
                    meter.charge(costs::COUNTER_UPDATE);
                    continue;
                }
                *inspected += 1;
            }
            meter.charge(costs::PER_PACKET_BASE);

            let mut is_p2p = self.p2p_ports.contains(&tuple.src_port)
                || self.p2p_ports.contains(&tuple.dst_port);
            if let Some(payload) = packet.payload() {
                // Both scans at once; the second is charged, as when it ran
                // second, only where the first found nothing.
                let [bittorrent, gnutella] = &self.signatures;
                let [(first, first_examined), (second, second_examined)] =
                    bittorrent.find_pair(gnutella, payload);
                let examined = first_examined + if first.is_none() { second_examined } else { 0 };
                is_p2p |= first.is_some() || second.is_some();
                meter.charge_n(costs::P2P_SCAN_BYTE, examined);
            }
            if is_p2p && self.identified.insert(key) {
                meter.charge(costs::P2P_FLOW_SETUP);
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        self.inspected_per_flow.clear();
        QueryOutput::P2pFlows { flows: self.identified.drain().collect() }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        // A flow lives on one lane, so the lane's per-flow inspection counts
        // describe flows this instance never budgets for: dropped, not folded.
        let lane = same_kind::<Self>(lane);
        lane.inspected_per_flow.clear();
        for flow in lane.identified.drain() {
            self.identified.insert(flow);
        }
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.usize(self.identified.len());
        for flow in self.identified.iter() {
            writer.u64(*flow);
        }
        writer.usize(self.inspected_per_flow.len());
        for (flow, (seen, inspected)) in self.inspected_per_flow.iter() {
            writer.u64(*flow);
            writer.u32(*seen);
            writer.u32(*inspected);
        }
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.identified.clear();
        let flows = reader.usize()?;
        for entry in 0..flows {
            if !self.identified.insert(reader.u64()?) {
                return Err(repeated_key("p2p-detector identified-flow", entry));
            }
        }
        self.inspected_per_flow.clear();
        let tracked = reader.usize()?;
        for entry in 0..tracked {
            let flow = reader.u64()?;
            let seen = reader.u32()?;
            let inspected = reader.u32()?;
            if self.inspected_per_flow.insert(flow, (seen, inspected)).is_some() {
                return Err(repeated_key("p2p-detector tracked-flow", entry));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netshed_trace::{Batch, FiveTuple, Packet};

    fn payload_packet(ts: u64, tuple: FiveTuple, payload: &'static [u8]) -> Packet {
        Packet::with_payload(
            ts,
            tuple,
            40 + payload.len() as u32,
            0x10,
            Bytes::from_static(payload),
        )
    }

    #[test]
    fn memoised_flow_keys_do_not_leak_from_one_batch_to_the_next() {
        // The same flow ids name different tuples in the two batches, and
        // the second batch is delivered sampled: every packet must still be
        // keyed by its own tuple, both directions of a flow by one key.
        let flow = |f: u32| FiveTuple::new(f, 100 + f, 40_000, 6881, 6);
        let batch = |flows: &[FiveTuple]| {
            let packets = flows
                .iter()
                .enumerate()
                .map(|(ts, tuple)| Packet::header_only(ts as u64, *tuple, 100, 0))
                .collect();
            Batch::new(0, 0, 100_000, packets)
        };
        let mut query = P2pDetectorQuery::new();
        let mut meter = CycleMeter::new();
        query.process_batch(&batch(&[flow(1), flow(2), flow(1)]).view(), 1.0, &mut meter);
        let second = batch(&[flow(3), flow(4), flow(1).reversed(), flow(5), flow(4)]);
        query.process_batch(&second.view().filter_indexed(|i, _| i != 0), 1.0, &mut meter);
        let expected = [1, 2, 4, 5].map(|f| P2pDetectorQuery::flow_key(&flow(f)));
        match query.end_interval() {
            QueryOutput::P2pFlows { flows } => assert_eq!(flows, expected.into_iter().collect()),
            other => panic!("unexpected output {other:?}"),
        }
    }

    fn p2p_batch(flows: u32, packets_per_flow: u32) -> BatchView {
        // Realistically sized data packets (~1 KiB payload) so that the byte
        // scanning cost dominates, as it does on full-payload traces.
        let mut handshake = vec![b'.'; 1024];
        handshake[..20].copy_from_slice(b"\x13BitTorrent protocol");
        let data = vec![b'd'; 1024];
        let mut packets = Vec::new();
        for f in 0..flows {
            let tuple = FiveTuple::new(0x0a000000 + f, 0x80000000 + f, 50000 + f as u16, 6881, 6);
            for p in 0..packets_per_flow {
                let payload = if p == 0 { handshake.clone() } else { data.clone() };
                packets.push(Packet::with_payload(
                    u64::from(f * 100 + p),
                    tuple,
                    40 + payload.len() as u32,
                    0x10,
                    Bytes::from(payload),
                ));
            }
        }
        Batch::new(0, 0, 100_000, packets).view()
    }

    #[test]
    fn trace_cost_scales_with_bytes_for_payload_traffic() {
        let tuple = FiveTuple::new(1, 2, 3, 4, 6);
        let small = Batch::new(0, 0, 100_000, vec![payload_packet(0, tuple, &[0u8; 64])]).view();
        let large = Batch::new(0, 0, 100_000, vec![payload_packet(0, tuple, &[0u8; 1024])]).view();
        let mut q = TraceQuery::new();
        let mut meter_small = CycleMeter::new();
        let mut meter_large = CycleMeter::new();
        q.process_batch(&small, 1.0, &mut meter_small);
        q.process_batch(&large, 1.0, &mut meter_large);
        assert!(meter_large.cycles() > meter_small.cycles() * 5);
    }

    #[test]
    fn pattern_search_counts_matches() {
        let tuple = FiveTuple::new(1, 2, 3, 80, 6);
        let batch = Batch::new(
            0,
            0,
            100_000,
            vec![
                payload_packet(0, tuple, b"GET / HTTP/1.1\r\nHost: example.org"),
                payload_packet(1, tuple, b"POST /upload HTTP/1.1"),
            ],
        )
        .view();
        let mut q = PatternSearchQuery::default();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch, 1.0, &mut meter);
        assert_eq!(q.matches(), 1);
        match q.end_interval() {
            QueryOutput::Coverage { processed_packets, .. } => assert_eq!(processed_packets, 2.0),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn p2p_detector_finds_flows_by_signature_and_port() {
        let batch = p2p_batch(5, 4);
        let mut q = P2pDetectorQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch, 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::P2pFlows { flows } => assert_eq!(flows.len(), 5),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn custom_shedding_reduces_cycles_but_keeps_detection() {
        let batch = p2p_batch(20, 10);
        // Full-rate reference.
        let mut reference = P2pDetectorQuery::new();
        let mut meter_full = CycleMeter::new();
        reference.process_batch(&batch, 1.0, &mut meter_full);
        let truth = reference.end_interval();

        // Custom shedding at 30%.
        let mut custom = P2pDetectorQuery::custom(CustomBehavior::Honest);
        let mut meter_custom = CycleMeter::new();
        custom.process_batch(&batch, 0.3, &mut meter_custom);
        let output = custom.end_interval();

        assert!(
            meter_custom.cycles() < meter_full.cycles() * 6 / 10,
            "custom shedding should cut cycles: {} vs {}",
            meter_custom.cycles(),
            meter_full.cycles()
        );
        // Detection barely suffers because every flow's first packet is inspected.
        assert!(output.error_against(&truth) < 0.2, "error {}", output.error_against(&truth));
    }

    #[test]
    fn selfish_detector_ignores_the_requested_rate() {
        let batch = p2p_batch(20, 10);
        let mut honest = P2pDetectorQuery::custom(CustomBehavior::Honest);
        let mut selfish = P2pDetectorQuery::custom(CustomBehavior::Selfish);
        let mut meter_honest = CycleMeter::new();
        let mut meter_selfish = CycleMeter::new();
        honest.process_batch(&batch, 0.2, &mut meter_honest);
        selfish.process_batch(&batch, 0.2, &mut meter_selfish);
        assert!(meter_selfish.cycles() > meter_honest.cycles() * 2);
    }

    #[test]
    fn buggy_detector_sheds_less_than_requested() {
        let batch = p2p_batch(20, 10);
        let mut honest = P2pDetectorQuery::custom(CustomBehavior::Honest);
        let mut buggy = P2pDetectorQuery::custom(CustomBehavior::Buggy);
        let mut meter_honest = CycleMeter::new();
        let mut meter_buggy = CycleMeter::new();
        honest.process_batch(&batch, 0.2, &mut meter_honest);
        buggy.process_batch(&batch, 0.2, &mut meter_buggy);
        assert!(meter_buggy.cycles() > meter_honest.cycles());
    }

    #[test]
    fn header_only_traffic_is_cheap_for_payload_queries() {
        let tuple = FiveTuple::new(1, 2, 3, 4, 6);
        let header_batch = Batch::new(
            0,
            0,
            100_000,
            (0..100).map(|i| Packet::header_only(i, tuple, 1500, 0)).collect(),
        )
        .view();
        let mut q = PatternSearchQuery::default();
        let mut meter = CycleMeter::new();
        q.process_batch(&header_batch, 1.0, &mut meter);
        // Only the per-packet base cost, no byte scanning.
        assert_eq!(meter.cycles(), 100 * costs::PER_PACKET_BASE);
    }
}
