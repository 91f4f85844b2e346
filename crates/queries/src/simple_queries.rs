//! The low-cost queries: `counter`, `application` and `high-watermark`.
//!
//! All three maintain simple arrays of counters driven by the packet stream,
//! so their CPU cost is dominated by the number of packets in the batch —
//! which is exactly what the prediction subsystem should discover on its own
//! (Table 3.2 selects the `packets` feature for them).

use crate::cost::{costs, CycleMeter};
use crate::output::QueryOutput;
use crate::query::{
    adds_exactly, repeated_key, restored_weight, same_kind, scale, unit_rate_stats, FlowSlots,
    Query, SheddingMethod,
};
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::{AppProtocol, BatchView};
// Ordered so the emitted `QueryOutput::Application` iterates replay-stably
// (determinism contract, rule `det-map`).
use std::collections::BTreeMap;

/// `counter`: traffic load in packets and bytes (Table 2.2).
#[derive(Debug, Default)]
pub struct CounterQuery {
    packets: f64,
    bytes: f64,
}

impl CounterQuery {
    /// Creates the query.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Query for CounterQuery {
    fn name(&self) -> &'static str {
        "counter"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.03
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(costs::PER_PACKET_BASE + costs::COUNTER_UPDATE, batch.len() as u64);
        match unit_rate_stats(batch, sampling_rate) {
            Some(stats)
                if adds_exactly(self.packets, stats.packets)
                    && adds_exactly(self.bytes, stats.bytes) =>
            {
                self.packets += stats.packets as f64;
                self.bytes += stats.bytes as f64;
            }
            _ => {
                for packet in batch.packets() {
                    self.packets += scale(1.0, sampling_rate);
                    self.bytes += scale(f64::from(packet.ip_len()), sampling_rate);
                }
            }
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let output = QueryOutput::Counter { packets: self.packets, bytes: self.bytes };
        self.packets = 0.0;
        self.bytes = 0.0;
        output
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        let lane = std::mem::take(same_kind::<Self>(lane));
        self.packets += lane.packets;
        self.bytes += lane.bytes;
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.f64(self.packets);
        writer.f64(self.bytes);
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.packets = restored_weight("counter packets", 0, reader.f64()?)?;
        self.bytes = restored_weight("counter bytes", 0, reader.f64()?)?;
        Ok(())
    }
}

/// `application`: port-based application classification (Table 2.2).
///
/// The kernel classifies once per flow (its packets share its ports) to a
/// slot index and adds every packet into a fixed array; the label-keyed map
/// the output and the checkpoint speak is assembled only when asked for.
#[derive(Debug, Default)]
pub struct ApplicationQuery {
    /// (packets, bytes) per label, in [`ApplicationQuery::label`] order;
    /// `None` until the interval first sees the label.
    per_slot: [Option<(f64, f64)>; ApplicationQuery::SLOTS],
    /// Scratch: each flow's slot.
    flow_slots: FlowSlots<usize>,
}

impl ApplicationQuery {
    /// One slot per [`AppProtocol::ALL`] entry, then the catch-all.
    const UNKNOWN: usize = AppProtocol::ALL.len();
    const SLOTS: usize = Self::UNKNOWN + 1;

    /// Creates the query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps a (port, protocol) pair to the slot of its application label,
    /// mirroring the port-based classification of the paper's `application`
    /// query.
    fn classify(src_port: u16, dst_port: u16, proto: u8) -> usize {
        AppProtocol::ALL
            .iter()
            .position(|app| {
                app.ip_proto() == proto
                    && (src_port == app.server_port() || dst_port == app.server_port())
            })
            .unwrap_or(Self::UNKNOWN)
    }

    /// The application label a slot accumulates.
    fn label(slot: usize) -> &'static str {
        AppProtocol::ALL.get(slot).map_or("unknown", |app| app.name())
    }

    /// The labels seen this interval with their sums, in label order (which
    /// is what makes the emitted output and the checkpoint replay-stable).
    /// Inserted one by one: ten labels fit the map's first node, so this
    /// allocates once, as filling the map packet by packet did.
    fn per_app(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut per_app = BTreeMap::new();
        for (slot, sums) in self.per_slot.iter().enumerate() {
            if let Some(sums) = sums {
                per_app.insert(Self::label(slot), *sums);
            }
        }
        per_app
    }
}

impl Query for ApplicationQuery {
    fn name(&self) -> &'static str {
        "application"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.03
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(
            costs::PER_PACKET_BASE + costs::PORT_LOOKUP + costs::COUNTER_UPDATE,
            batch.len() as u64,
        );
        self.flow_slots.probe(batch, |packet| {
            let tuple = packet.tuple();
            Self::classify(tuple.src_port, tuple.dst_port, tuple.proto)
        });
        // Whole at rate 1.0, each flow's totals in one addition each, if
        // every sum a flow reaches stays exact with the whole batch added.
        let whole = unit_rate_stats(batch, sampling_rate).filter(|stats| {
            self.flow_slots.flows(batch).all(|(slot, _)| {
                let (packets, bytes) = self.per_slot[slot].unwrap_or_default();
                adds_exactly(packets, stats.packets) && adds_exactly(bytes, stats.bytes)
            })
        });
        if whole.is_some() {
            for (slot, flow) in self.flow_slots.flows(batch) {
                let sums = self.per_slot[slot].get_or_insert((0.0, 0.0));
                sums.0 += flow.packets as f64;
                sums.1 += flow.bytes as f64;
            }
            return;
        }
        for (slot, packet) in self.flow_slots.packets(batch) {
            let sums = self.per_slot[slot].get_or_insert((0.0, 0.0));
            sums.0 += scale(1.0, sampling_rate);
            sums.1 += scale(f64::from(packet.ip_len()), sampling_rate);
        }
    }

    fn end_interval(&mut self) -> QueryOutput {
        let per_app = self.per_app();
        self.per_slot = Default::default();
        QueryOutput::Application { per_app }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        let seen_per_slot = std::mem::take(&mut same_kind::<Self>(lane).per_slot);
        for (sums, seen) in self.per_slot.iter_mut().zip(seen_per_slot) {
            if let Some((packets, bytes)) = seen {
                let sums = sums.get_or_insert((0.0, 0.0));
                sums.0 += packets;
                sums.1 += bytes;
            }
        }
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        let per_app = self.per_app();
        writer.usize(per_app.len());
        for (app, (packets, bytes)) in &per_app {
            writer.str(app);
            writer.f64(*packets);
            writer.f64(*bytes);
        }
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.per_slot = Default::default();
        let entries = reader.usize()?;
        for entry in 0..entries {
            let name = reader.str()?;
            let slot =
                (0..Self::SLOTS).find(|&slot| Self::label(slot) == name).ok_or_else(|| {
                    StateError::corrupt(format!("unknown application label {name:?}"))
                })?;
            let packets = restored_weight("application", entry, reader.f64()?)?;
            let bytes = restored_weight("application", entry, reader.f64()?)?;
            if self.per_slot[slot].replace((packets, bytes)).is_some() {
                return Err(repeated_key("application", entry));
            }
        }
        Ok(())
    }
}

/// `high-watermark`: high watermark of link utilisation over time (Table 2.2):
/// the peak estimated load over the bins (the paper's sub-interval) of each
/// measurement interval. The peak is the *link's*, and the peak of a lane's
/// share of the bins says nothing about it, so the query keeps the open
/// interval's bytes per bin — state [`Query::absorb`] can add — and takes the
/// maximum when the interval closes.
#[derive(Debug, Default)]
pub struct HighWatermarkQuery {
    /// (bin index, bin duration in µs, estimated bytes), ascending by bin; at
    /// most the interval's bin count, emptied (not freed) at every close.
    bins: Vec<(u64, u64, f64)>,
}

impl HighWatermarkQuery {
    /// Creates the query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` to bin `bin` (bins arrive in order: the search is short).
    fn add(&mut self, bin: u64, duration_us: u64, bytes: f64) {
        match self.bins.binary_search_by_key(&bin, |entry| entry.0) {
            Ok(at) => self.bins[at].2 += bytes,
            Err(at) => self.bins.insert(at, (bin, duration_us, bytes)),
        }
    }
}

impl Query for HighWatermarkQuery {
    fn name(&self) -> &'static str {
        "high-watermark"
    }

    fn preferred_shedding(&self) -> SheddingMethod {
        SheddingMethod::PacketSampling
    }

    fn min_sampling_rate(&self) -> f64 {
        0.15
    }

    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter) {
        meter.charge_n(costs::PER_PACKET_BASE + costs::COUNTER_UPDATE, batch.len() as u64);
        let batch_bytes = match unit_rate_stats(batch, sampling_rate) {
            Some(stats) if adds_exactly(0.0, stats.bytes) => stats.bytes as f64,
            _ => {
                let mut batch_bytes = 0.0;
                for packet in batch.packets() {
                    batch_bytes += scale(f64::from(packet.ip_len()), sampling_rate);
                }
                batch_bytes
            }
        };
        self.add(batch.bin_index(), batch.duration_us(), batch_bytes);
    }

    fn end_interval(&mut self) -> QueryOutput {
        let mut peak_mbps = 0.0;
        for (_, duration_us, bytes) in self.bins.drain(..) {
            let seconds = duration_us as f64 / 1e6;
            if seconds > 0.0 {
                let mbps = bytes * 8.0 / seconds / 1e6;
                if mbps > peak_mbps {
                    peak_mbps = mbps;
                }
            }
        }
        QueryOutput::HighWatermark { mbps: peak_mbps }
    }

    fn absorb(&mut self, lane: &mut dyn Query) {
        for (bin, duration_us, bytes) in same_kind::<Self>(lane).bins.drain(..) {
            self.add(bin, duration_us, bytes);
        }
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), StateError> {
        writer.usize(self.bins.len());
        for (bin, duration_us, bytes) in &self.bins {
            writer.u64(*bin);
            writer.u64(*duration_us);
            writer.f64(*bytes);
        }
        Ok(())
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), StateError> {
        self.bins.clear();
        let (entries, left) = (reader.usize()?, reader.remaining());
        // The bins per interval are configuration the query never sees: what
        // bounds the count is the bytes that are left, 24 an entry.
        if entries > left / 24 {
            return Err(StateError::corrupt(format!(
                "high-watermark checkpoint declares {entries} bins in {left} bytes"
            )));
        }
        for entry in 0..entries {
            let (bin, duration_us) = (reader.u64()?, reader.u64()?);
            let bytes = restored_weight("high-watermark", entry, reader.f64()?)?;
            match self.bins.last() {
                Some(&(last, ..)) if last == bin => {
                    return Err(repeated_key("high-watermark", entry));
                }
                Some(&(last, ..)) if last > bin => {
                    return Err(StateError::corrupt(format!(
                        "high-watermark checkpoint entry {entry} is bin {bin}, after bin {last}"
                    )));
                }
                _ => self.bins.push((bin, duration_us, bytes)),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_trace::{FiveTuple, Packet};

    fn batch_with_packets(n: usize, size: u32) -> BatchView {
        batch_in_bin(0, n, size)
    }

    fn batch_in_bin(bin: u64, n: usize, size: u32) -> BatchView {
        let packets: Vec<Packet> = (0..n)
            .map(|i| {
                Packet::header_only(i as u64, FiveTuple::new(i as u32, 2, 1024, 80, 6), size, 0)
            })
            .collect();
        netshed_trace::Batch::new(bin, bin * 100_000, 100_000, packets).view()
    }

    #[test]
    fn counter_scales_by_inverse_sampling_rate() {
        let mut q = CounterQuery::new();
        let mut meter = CycleMeter::new();
        // A batch that was sampled at 50%: estimates should double.
        q.process_batch(&batch_with_packets(50, 100), 0.5, &mut meter);
        match q.end_interval() {
            QueryOutput::Counter { packets, bytes } => {
                assert_eq!(packets, 100.0);
                assert_eq!(bytes, 10_000.0);
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert!(meter.cycles() > 0);
    }

    #[test]
    fn counter_interval_resets_state() {
        let mut q = CounterQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_with_packets(10, 100), 1.0, &mut meter);
        let _ = q.end_interval();
        match q.end_interval() {
            QueryOutput::Counter { packets, bytes } => {
                assert_eq!(packets, 0.0);
                assert_eq!(bytes, 0.0);
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn application_classifies_by_port() {
        let classify = |src_port, dst_port, proto| {
            ApplicationQuery::label(ApplicationQuery::classify(src_port, dst_port, proto))
        };
        assert_eq!(classify(1024, 80, 6), "http");
        assert_eq!(classify(53, 40000, 17), "dns");
        assert_eq!(classify(1, 2, 50), "unknown");
    }

    #[test]
    fn application_accumulates_per_app_counters() {
        let mut q = ApplicationQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_with_packets(20, 200), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::Application { per_app } => {
                let (packets, bytes) = per_app.get("http").copied().unwrap_or_default();
                assert_eq!(packets, 20.0);
                assert_eq!(bytes, 4000.0);
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn high_watermark_tracks_peak_batch_load() {
        let mut q = HighWatermarkQuery::new();
        let mut meter = CycleMeter::new();
        q.process_batch(&batch_in_bin(0, 10, 1000), 1.0, &mut meter);
        q.process_batch(&batch_in_bin(1, 100, 1000), 1.0, &mut meter);
        q.process_batch(&batch_in_bin(2, 5, 1000), 1.0, &mut meter);
        match q.end_interval() {
            QueryOutput::HighWatermark { mbps } => {
                // Peak batch: 100 packets * 1000 B * 8 / 0.1 s = 8 Mbps.
                assert!((mbps - 8.0).abs() < 1e-9, "peak {mbps}");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn a_crafted_watermark_table_is_refused_not_loaded() {
        let load = |count: usize, entries: &[(u64, u64, f64)]| {
            let mut writer = StateWriter::new();
            writer.usize(count);
            for (bin, duration_us, bytes) in entries {
                writer.u64(*bin);
                writer.u64(*duration_us);
                writer.f64(*bytes);
            }
            let bytes = writer.into_bytes();
            let mut query = HighWatermarkQuery::new();
            query.load_state(&mut StateReader::new(&bytes)).map(|()| query.bins)
        };
        let honest = [(3, 100_000, 10.0), (4, 100_000, 0.0), (7, 100_000, 2.5)];
        assert_eq!(load(3, &honest).expect("ascending bins load"), honest);

        let refusal = |count, entries: &[(u64, u64, f64)]| match load(count, entries) {
            Err(StateError::Corrupt(message)) => message,
            other => panic!("expected a corrupt-state error, got {other:?}"),
        };
        let repeated = refusal(2, &[(3, 100_000, 1.0), (3, 100_000, 1.0)]);
        assert!(repeated.contains("entry 1 repeats the key"), "{repeated}");
        let descending = refusal(2, &[(4, 100_000, 1.0), (3, 100_000, 1.0)]);
        assert!(descending.contains("entry 1 is bin 3, after bin 4"), "{descending}");
        for poison in [f64::NAN, f64::INFINITY, -1.0] {
            let poisoned = refusal(2, &[(3, 100_000, 1.0), (4, 100_000, poison)]);
            assert!(poisoned.contains("high-watermark checkpoint entry 1"), "{poisoned}");
        }
        // A count the bytes cannot hold is refused before anything is read.
        let oversized = refusal(usize::MAX / 2, &honest);
        assert!(oversized.contains("bins in 72 bytes"), "{oversized}");
    }

    #[test]
    fn per_packet_cost_is_linear_in_packets() {
        let mut q = CounterQuery::new();
        let mut meter_small = CycleMeter::new();
        let mut meter_large = CycleMeter::new();
        q.process_batch(&batch_with_packets(10, 100), 1.0, &mut meter_small);
        q.process_batch(&batch_with_packets(1000, 100), 1.0, &mut meter_large);
        assert_eq!(meter_large.cycles() - meter_small.cycles() * 100, 0);
    }
}
