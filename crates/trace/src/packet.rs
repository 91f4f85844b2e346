//! Packet-level data model.
//!
//! A [`Packet`] is the unified record the monitoring system operates on. It
//! mirrors the "unified packet stream" of the CoMo platform: a timestamp, the
//! classical 5-tuple, the layer-3 length, TCP flags and an optional payload
//! slice. Payloads are reference-counted [`bytes::Bytes`] slices so that a
//! trace with full payloads does not copy payload bytes per packet.

use bytes::Bytes;
use std::fmt;

/// TCP SYN flag bit.
pub const TCP_SYN: u8 = 0x02;
/// TCP ACK flag bit.
pub const TCP_ACK: u8 = 0x10;
/// TCP FIN flag bit.
pub const TCP_FIN: u8 = 0x01;

/// Packet timestamp in microseconds since the start of the trace.
pub type Timestamp = u64;

/// The classical 5-tuple identifying a flow.
///
/// Addresses are stored as host-order IPv4 addresses; the synthetic workload
/// generator only produces IPv4 traffic, which matches the traces used in the
/// paper (2002–2008 ISP traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port (0 for non-TCP/UDP protocols).
    pub src_port: u16,
    /// Destination transport port (0 for non-TCP/UDP protocols).
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, 1 = ICMP, ...).
    pub proto: u8,
}

impl FiveTuple {
    /// Creates a new 5-tuple.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        Self { src_ip, dst_ip, src_port, dst_port, proto }
    }

    /// Returns the tuple with source and destination endpoints swapped.
    ///
    /// Useful to map both directions of a connection to the same flow key.
    pub fn reversed(&self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Serializes the tuple into a fixed 13-byte key, used by hash sketches.
    pub fn as_key(&self) -> [u8; 13] {
        let mut key = [0u8; 13];
        key[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        key[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        key[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        key[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        key[12] = self.proto;
        key
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            format_ipv4(self.src_ip),
            self.src_port,
            format_ipv4(self.dst_ip),
            self.dst_port,
            self.proto
        )
    }
}

/// Formats a host-order IPv4 address in dotted-quad notation.
pub fn format_ipv4(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (addr >> 24) & 0xff,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// A single captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Capture timestamp in microseconds since the trace start.
    pub ts: Timestamp,
    /// Flow identity of the packet.
    pub tuple: FiveTuple,
    /// Length of the IP packet on the wire, in bytes.
    pub ip_len: u32,
    /// TCP flags (zero for non-TCP packets).
    pub tcp_flags: u8,
    /// Captured payload, if the trace carries payloads.
    pub payload: Option<Bytes>,
}

impl Packet {
    /// Creates a header-only packet (no payload captured).
    pub fn header_only(ts: Timestamp, tuple: FiveTuple, ip_len: u32, tcp_flags: u8) -> Self {
        Self { ts, tuple, ip_len, tcp_flags, payload: None }
    }

    /// Creates a packet carrying a payload slice.
    // lint:allow(unreached-pub): payload fixtures build packets with it, in the trace and query crates' tests and in `tests/`
    pub fn with_payload(
        ts: Timestamp,
        tuple: FiveTuple,
        ip_len: u32,
        tcp_flags: u8,
        payload: Bytes,
    ) -> Self {
        Self { ts, tuple, ip_len, tcp_flags, payload: Some(payload) }
    }

    /// Returns the number of captured payload bytes (zero for header-only packets).
    pub fn payload_len(&self) -> usize {
        self.payload.as_ref().map_or(0, bytes::Bytes::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tuple_key_roundtrip_is_unique_per_field() {
        let a = FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, 6);
        let b = FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, 17);
        assert_ne!(a.as_key(), b.as_key());
        assert_ne!(a.as_key(), a.reversed().as_key());
    }

    #[test]
    fn reversed_twice_is_identity() {
        let a = FiveTuple::new(1, 2, 3, 4, 6);
        assert_eq!(a, a.reversed().reversed());
    }

    #[test]
    fn format_ipv4_dotted_quad() {
        assert_eq!(format_ipv4(0xC0A80001), "192.168.0.1");
        assert_eq!(format_ipv4(0), "0.0.0.0");
    }

    #[test]
    fn payload_len_reports_captured_bytes() {
        let t = FiveTuple::new(1, 2, 3, 4, 6);
        let p = Packet::with_payload(0, t, 1500, TCP_ACK, Bytes::from_static(b"hello"));
        assert_eq!(p.payload_len(), 5);
        assert_eq!(Packet::header_only(0, t, 40, 0).payload_len(), 0);
    }
}
