//! Synthetic traffic anomalies.
//!
//! Section 3.4.3 of the paper evaluates the prediction and load shedding
//! schemes under injected anomalies: volume-based DDoS attacks, SYN floods
//! with spoofed sources, worm outbreaks and attacks crafted against the
//! monitoring system itself (bursts that are hard to predict because they go
//! idle every other second). The same four shapes are reproduced here as
//! packet injectors that add packets to the bins they are active in.

use crate::packet::{FiveTuple, Packet, TCP_ACK, TCP_SYN};
use rand::rngs::StdRng;
use rand::Rng;

/// The kind of anomaly to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Volume-based distributed denial of service: an overwhelming number of
    /// small packets from spoofed sources towards a single target, with
    /// random source ports (drives up the number of distinct flows).
    DdosFlood {
        /// Target host of the attack.
        target: u32,
    },
    /// TCP SYN flood against one target host and port: 40-byte SYN packets
    /// from spoofed sources.
    SynFlood {
        /// Target host.
        target: u32,
        /// Target port.
        port: u16,
    },
    /// Worm outbreak: many sources scanning many destinations on a fixed
    /// destination port, small payload with a recognisable signature.
    WormOutbreak {
        /// Destination port the worm propagates on.
        port: u16,
    },
    /// Burst of MTU-sized packets on a handful of flows; stresses queries
    /// whose cost depends on the number of bytes (trace, pattern-search).
    ByteBurst,
    /// Port scan: a single source probing randomly drawn well-known ports
    /// (1–1024) across many hosts with bare 40-byte SYNs. Drives up the
    /// number of new flows per source (the scan signature the paper's
    /// feature set reacts to — it keys on flow churn, not port order).
    PortScan {
        /// Scanning host.
        source: u32,
    },
    /// Flash crowd: a surge of *legitimate-looking* clients opening normal
    /// HTTP-sized flows towards one server. Unlike a DDoS flood the packets
    /// are full-sized and carry realistic flag sequences, so the byte load
    /// rises with the flow count.
    FlashCrowd {
        /// The suddenly-popular server.
        target: u32,
        /// Server port the crowd connects to.
        port: u16,
    },
    /// Feature-mimicry payload pathology: HTTP-looking packets from a small
    /// client pool whose payloads are tiled with a Boyer–Moore–Horspool
    /// worst-case block (the pattern-search signature with its first byte
    /// swapped for one absent from the pattern). The traffic is
    /// indistinguishable from a flash crowd in every aggregate feature —
    /// packets, bytes, flows all stay calm — but every payload byte forces
    /// the string search to walk nearly the whole pattern backwards on a
    /// skip of one, so the *cost per byte* explodes while the predictor's
    /// inputs say nothing happened.
    PatternStress,
    /// Flow-churn attack on stateful queries: a constant number of
    /// constant-sized packets per bin, but the flow identities alternate by
    /// bin between a tiny reused tuple pool (hash lookups) and fresh
    /// spoofed tuples (a hash insert per packet), so the state-query cost
    /// oscillates by the insert/lookup cycle ratio. The payloads are tiled
    /// with the same near-miss block as [`PatternStress`](Self::PatternStress)
    /// — an attacker controls payload bytes for free — so part of the cost
    /// rides on content no header feature can express.
    FlowChurn,
    /// Aggregate-key skew against flow sampling: nearly all bytes ride on a
    /// handful of elephant flows, so per-flow keep/drop sampling delivers
    /// all-or-nothing traffic fractions and rate-extrapolated estimates
    /// swing wildly around the truth even at moderate sampling rates. The
    /// elephant frames carry the near-miss scan payload too, hiding part of
    /// the per-byte cost from the predictor's inputs.
    AggregateSkew,
}

/// One Boyer–Moore–Horspool worst-case block: the pattern-search query's
/// default HTTP signature (`GET / HTTP/1.1`) with its first byte replaced by
/// a byte that never occurs in the pattern. The pattern itself never matches
/// (the payload carries no `G` at all), so the scan always runs to
/// completion, and every alignment examines most of the pattern before
/// mismatching with a shift of one.
const STRESS_BLOCK: [u8; 14] = *b"ZET / HTTP/1.1";

/// Payload size for [`AnomalyKind::PatternStress`] packets: a plausible
/// HTTP-response size, tiled from whole stress blocks.
const STRESS_PAYLOAD_LEN: usize = STRESS_BLOCK.len() * 43;

static STRESS_PAYLOAD: [u8; STRESS_PAYLOAD_LEN] = tile_stress();

/// Payload carried by [`AnomalyKind::FlowChurn`] packets: the 120-byte
/// wire size minus the 40-byte header, tiled with the stress block so the
/// per-byte scan cost rides invisibly on top of the hash-table churn.
const CHURN_PAYLOAD_LEN: usize = 80;

static CHURN_PAYLOAD: [u8; CHURN_PAYLOAD_LEN] = tile_stress();

/// Payload carried by [`AnomalyKind::AggregateSkew`] packets: the 1400-byte
/// elephant frames minus the header, same near-miss content.
const SKEW_PAYLOAD_LEN: usize = 1360;

static SKEW_PAYLOAD: [u8; SKEW_PAYLOAD_LEN] = tile_stress();

/// Tiles `N` bytes from whole (possibly truncated) stress blocks.
const fn tile_stress<const N: usize>() -> [u8; N] {
    let mut payload = [0u8; N];
    let mut i = 0;
    while i < N {
        payload[i] = STRESS_BLOCK[i % STRESS_BLOCK.len()];
        i += 1;
    }
    payload
}

/// An anomaly active over a range of time bins.
///
/// `duty_cycle_bins` reproduces the paper's "goes idle every other second"
/// attack: the anomaly only injects packets during the first half of every
/// duty cycle. With `duty_cycle_bins == 0` the anomaly is always on while in
/// range.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// Attack shape.
    pub kind: AnomalyKind,
    /// First affected bin (inclusive).
    pub start_bin: u64,
    /// Last affected bin (exclusive).
    pub end_bin: u64,
    /// Extra packets injected per active bin.
    pub packets_per_bin: usize,
    /// Length of the on/off duty cycle in bins (0 = always on).
    pub duty_cycle_bins: u64,
}

impl Anomaly {
    /// Creates an always-on anomaly over `[start_bin, end_bin)`.
    pub fn new(kind: AnomalyKind, start_bin: u64, end_bin: u64, packets_per_bin: usize) -> Self {
        Self { kind, start_bin, end_bin, packets_per_bin, duty_cycle_bins: 0 }
    }

    /// Sets an on/off duty cycle: the anomaly injects packets only during the
    /// first half of every `cycle_bins`-bin period.
    pub fn with_duty_cycle(mut self, cycle_bins: u64) -> Self {
        self.duty_cycle_bins = cycle_bins;
        self
    }

    /// Returns `true` if the anomaly injects packets into the given bin.
    pub fn is_active(&self, bin: u64) -> bool {
        if bin < self.start_bin || bin >= self.end_bin {
            return false;
        }
        if self.duty_cycle_bins == 0 {
            return true;
        }
        let phase = (bin - self.start_bin) % self.duty_cycle_bins;
        phase < self.duty_cycle_bins / 2
    }

    /// Appends this anomaly's packets for the given bin to `out`.
    pub fn inject(
        &self,
        bin: u64,
        start_ts: u64,
        duration_us: u64,
        rng: &mut StdRng,
        out: &mut Vec<Packet>,
    ) {
        if !self.is_active(bin) {
            return;
        }
        for _ in 0..self.packets_per_bin {
            let ts = start_ts + rng.gen_range(0..duration_us);
            let packet = match self.kind {
                AnomalyKind::DdosFlood { target } => {
                    let tuple = FiveTuple::new(
                        rng.gen::<u32>(),
                        target,
                        rng.gen_range(1..=65535u16),
                        rng.gen_range(1..=65535u16),
                        17,
                    );
                    Packet::header_only(ts, tuple, 60, 0)
                }
                AnomalyKind::SynFlood { target, port } => {
                    let tuple = FiveTuple::new(
                        rng.gen::<u32>(),
                        target,
                        rng.gen_range(1024..=65535u16),
                        port,
                        6,
                    );
                    Packet::header_only(ts, tuple, 40, TCP_SYN)
                }
                AnomalyKind::WormOutbreak { port } => {
                    let tuple = FiveTuple::new(
                        0x0a00_0000 | (rng.gen::<u32>() & 0xffff),
                        rng.gen::<u32>(),
                        rng.gen_range(1024..=65535u16),
                        port,
                        6,
                    );
                    let mut p = Packet::header_only(ts, tuple, 404, TCP_SYN);
                    p.payload = Some(bytes::Bytes::from_static(
                        b"\x90\x90\x90\x90WORM-PAYLOAD-SIGNATURE-0xDEADBEEF",
                    ));
                    p
                }
                AnomalyKind::ByteBurst => {
                    // A handful of heavy-hitter flows sending MTU packets.
                    let flow = rng.gen_range(0..8u32);
                    let tuple = FiveTuple::new(
                        0x0a00_00f0 + flow,
                        0xc0a8_0001,
                        40_000 + flow as u16,
                        80,
                        6,
                    );
                    Packet::header_only(ts, tuple, 1500, 0)
                }
                AnomalyKind::PortScan { source } => {
                    // One scanner sweeping ports on a /16 worth of targets.
                    let target = 0x0a00_0000 | (rng.gen::<u32>() & 0xffff);
                    let tuple = FiveTuple::new(
                        source,
                        target,
                        rng.gen_range(32768..=65535u16),
                        rng.gen_range(1..=1024u16),
                        6,
                    );
                    Packet::header_only(ts, tuple, 40, TCP_SYN)
                }
                AnomalyKind::FlashCrowd { target, port } => {
                    // Distinct but *plausible* clients (bounded pool, not
                    // spoofed-random) sending data-sized packets to one
                    // server port.
                    let client = 0x8000_0000 | (rng.gen::<u32>() & 0x000f_ffff);
                    let tuple =
                        FiveTuple::new(client, target, rng.gen_range(1024..=65535u16), port, 6);
                    let flags = if rng.gen::<f64>() < 0.1 { TCP_SYN } else { TCP_ACK };
                    let size = if flags == TCP_SYN { 40 } else { rng.gen_range(200..1400u32) };
                    Packet::header_only(ts, tuple, size, flags)
                }
                AnomalyKind::PatternStress => {
                    // A small pool of plausible HTTP clients keeps the flow
                    // table and every aggregate feature calm; the payload
                    // bytes do the damage.
                    let client = 0x0a20_0000 | rng.gen_range(0..24u32);
                    let tuple =
                        FiveTuple::new(client, 0x0a00_0050, rng.gen_range(1024..=65535u16), 80, 6);
                    let mut p =
                        Packet::header_only(ts, tuple, STRESS_PAYLOAD_LEN as u32 + 40, TCP_ACK);
                    p.payload = Some(bytes::Bytes::from_static(&STRESS_PAYLOAD));
                    p
                }
                AnomalyKind::FlowChurn => {
                    // Even bins reuse a dozen tuples, odd bins draw fresh
                    // spoofed ones; counts and sizes are identical either
                    // way, so only the state-query cost oscillates.
                    let tuple = if bin.is_multiple_of(2) {
                        let slot = rng.gen_range(0..12u32);
                        FiveTuple::new(0x0a30_0000 + slot, 0xc0a8_0002, 9000 + slot as u16, 443, 6)
                    } else {
                        FiveTuple::new(
                            rng.gen::<u32>(),
                            0xc0a8_0002,
                            rng.gen_range(1024..=65535u16),
                            443,
                            6,
                        )
                    };
                    let mut p = Packet::header_only(ts, tuple, 120, TCP_ACK);
                    p.payload = Some(bytes::Bytes::from_static(&CHURN_PAYLOAD));
                    p
                }
                AnomalyKind::AggregateSkew => {
                    // ~92% of packets (and almost all bytes) land on four
                    // elephant flows; the rest are light background cover.
                    let tuple = if rng.gen::<f64>() < 0.92 {
                        let heavy = rng.gen_range(0..4u32);
                        FiveTuple::new(
                            0x0a40_0010 + heavy,
                            0xc0a8_0003,
                            5000 + heavy as u16,
                            8080,
                            6,
                        )
                    } else {
                        FiveTuple::new(
                            rng.gen::<u32>(),
                            0xc0a8_0003,
                            rng.gen_range(1024..=65535u16),
                            8080,
                            6,
                        )
                    };
                    let mut p = Packet::header_only(ts, tuple, 1400, TCP_ACK);
                    p.payload = Some(bytes::Bytes::from_static(&SKEW_PAYLOAD));
                    p
                }
            };
            out.push(packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn anomaly_respects_bin_range() {
        let a = Anomaly::new(AnomalyKind::ByteBurst, 10, 20, 5);
        assert!(!a.is_active(9));
        assert!(a.is_active(10));
        assert!(a.is_active(19));
        assert!(!a.is_active(20));
    }

    #[test]
    fn duty_cycle_alternates() {
        let a = Anomaly::new(AnomalyKind::ByteBurst, 0, 100, 5).with_duty_cycle(20);
        // First half of each 20-bin cycle is on, second half off.
        assert!(a.is_active(0));
        assert!(a.is_active(9));
        assert!(!a.is_active(10));
        assert!(!a.is_active(19));
        assert!(a.is_active(20));
    }

    #[test]
    fn syn_flood_injects_syn_packets_to_target() {
        let a = Anomaly::new(AnomalyKind::SynFlood { target: 0x01020304, port: 80 }, 0, 1, 50);
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|p| p.is_syn() && p.tuple.dst_ip == 0x01020304 && p.ip_len == 40));
    }

    #[test]
    fn ddos_flood_produces_many_distinct_sources() {
        let a = Anomaly::new(AnomalyKind::DdosFlood { target: 7 }, 0, 1, 200);
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        let distinct: std::collections::HashSet<u32> = out.iter().map(|p| p.tuple.src_ip).collect();
        assert!(distinct.len() > 150, "spoofed sources should be mostly unique");
    }

    #[test]
    fn port_scan_sweeps_low_ports_from_one_source() {
        let a = Anomaly::new(AnomalyKind::PortScan { source: 0xdead_beef }, 0, 1, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|p| p.tuple.src_ip == 0xdead_beef
            && p.tuple.dst_port <= 1024
            && p.is_syn()
            && p.ip_len == 40));
        let targets: std::collections::HashSet<u32> = out.iter().map(|p| p.tuple.dst_ip).collect();
        assert!(targets.len() > 50, "a scan probes many hosts");
    }

    #[test]
    fn flash_crowd_sends_data_sized_packets_to_one_server() {
        let a = Anomaly::new(AnomalyKind::FlashCrowd { target: 0x0a00_0042, port: 80 }, 0, 1, 200);
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|p| p.tuple.dst_ip == 0x0a00_0042 && p.tuple.dst_port == 80));
        let bytes: u64 = out.iter().map(|p| u64::from(p.ip_len)).sum();
        assert!(
            bytes > 200 * 100,
            "a flash crowd carries real byte load, unlike a SYN flood ({bytes} bytes)"
        );
    }

    #[test]
    fn pattern_stress_payloads_never_match_but_never_skip_far() {
        let a = Anomaly::new(AnomalyKind::PatternStress, 0, 1, 80);
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert_eq!(out.len(), 80);
        let pattern = b"GET / HTTP/1.1";
        for p in &out {
            let payload = p.payload.as_ref().expect("stress packets carry payloads");
            assert_eq!(payload.len(), STRESS_PAYLOAD_LEN);
            assert_eq!(u64::from(p.ip_len), payload.len() as u64 + 40);
            // The signature must never occur: a match would let the scan
            // terminate early and the attack would defeat itself.
            assert!(
                !payload.windows(pattern.len()).any(|w| w == pattern),
                "payload must not contain the search pattern"
            );
            // Every payload byte *is* a pattern byte though, so the skip
            // table never grants a full-pattern shift.
            assert!(payload.iter().all(|b| pattern.contains(b) || *b == b'Z'));
        }
        // The client pool is tiny: the flow-table features stay calm.
        let sources: std::collections::HashSet<u32> = out.iter().map(|p| p.tuple.src_ip).collect();
        assert!(sources.len() <= 24, "mimicry traffic must not look like a flood");
    }

    #[test]
    fn flow_churn_alternates_identity_not_volume() {
        let a = Anomaly::new(AnomalyKind::FlowChurn, 0, 2, 150);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut even, mut odd) = (Vec::new(), Vec::new());
        a.inject(0, 0, 100_000, &mut rng, &mut even);
        a.inject(1, 100_000, 100_000, &mut rng, &mut odd);
        assert_eq!(even.len(), odd.len(), "packet counts are identical either way");
        assert!(even.iter().chain(&odd).all(|p| p.ip_len == 120), "sizes are identical too");
        assert!(
            even.iter().chain(&odd).all(|p| p
                .payload
                .as_ref()
                .is_some_and(|payload| payload.len() == CHURN_PAYLOAD_LEN)),
            "churn packets carry the near-miss scan payload"
        );
        let reused: std::collections::HashSet<_> = even.iter().map(|p| p.tuple).collect();
        let fresh: std::collections::HashSet<_> = odd.iter().map(|p| p.tuple).collect();
        assert!(reused.len() <= 12, "even bins reuse a tiny tuple pool");
        assert!(fresh.len() > 140, "odd bins churn fresh flows");
    }

    #[test]
    fn aggregate_skew_concentrates_bytes_on_elephants() {
        let a = Anomaly::new(AnomalyKind::AggregateSkew, 0, 1, 200);
        let mut rng = StdRng::seed_from_u64(8);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert_eq!(out.len(), 200);
        let mut per_flow: std::collections::HashMap<FiveTuple, usize> =
            std::collections::HashMap::new();
        for p in &out {
            *per_flow.entry(p.tuple).or_default() += 1;
        }
        let mut counts: Vec<usize> = per_flow.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = counts.iter().take(4).sum();
        assert!(top4 > 160, "the top four flows must dominate ({top4}/200 packets)");
        assert!(
            out.iter().all(|p| p
                .payload
                .as_ref()
                .is_some_and(|payload| payload.len() == SKEW_PAYLOAD_LEN)),
            "elephant frames carry the near-miss scan payload"
        );
    }

    #[test]
    fn inactive_bin_injects_nothing() {
        let a = Anomaly::new(AnomalyKind::ByteBurst, 5, 6, 50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        a.inject(0, 0, 100_000, &mut rng, &mut out);
        assert!(out.is_empty());
    }
}
