//! The ten traffic aggregates of Table 3.1, their per-packet hashes and the
//! bitmap slots those hashes own.
//!
//! The aggregates live in the trace crate (rather than with the feature
//! extractor) because the batch data plane caches one bitmap slot per
//! aggregate per packet directly on the shared packet store: the packets are
//! hashed and located in a single pass the first time a batch is examined,
//! and the slots are reused by every later consumer — the full-batch
//! extraction and each query's sampled re-extraction.

use crate::packet::FiveTuple;
use netshed_sketch::{BitmapGeometry, IncrementalFnv};

/// A traffic aggregate: a combination of TCP/IP header fields whose distinct
/// values are counted by the feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Source IP address.
    SrcIp,
    /// Destination IP address.
    DstIp,
    /// IP protocol number.
    Protocol,
    /// (source IP, destination IP) pair.
    SrcDstIp,
    /// (source port, protocol) pair.
    SrcPortProto,
    /// (destination port, protocol) pair.
    DstPortProto,
    /// (source IP, source port, protocol) triple.
    SrcIpPortProto,
    /// (destination IP, destination port, protocol) triple.
    DstIpPortProto,
    /// (source port, destination port, protocol) triple.
    SrcDstPortProto,
    /// The full 5-tuple.
    FiveTuple,
}

/// Number of traffic aggregates (Table 3.1).
pub const AGGREGATE_COUNT: usize = 10;

impl Aggregate {
    /// The ten aggregates in the order of Table 3.1.
    pub const ALL: [Aggregate; AGGREGATE_COUNT] = [
        Aggregate::SrcIp,
        Aggregate::DstIp,
        Aggregate::Protocol,
        Aggregate::SrcDstIp,
        Aggregate::SrcPortProto,
        Aggregate::DstPortProto,
        Aggregate::SrcIpPortProto,
        Aggregate::DstIpPortProto,
        Aggregate::SrcDstPortProto,
        Aggregate::FiveTuple,
    ];

    /// Short name used when reporting selected features (e.g. Table 3.2).
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::SrcIp => "src-ip",
            Aggregate::DstIp => "dst-ip",
            Aggregate::Protocol => "proto",
            Aggregate::SrcDstIp => "src-dst-ip",
            Aggregate::SrcPortProto => "src-port-proto",
            Aggregate::DstPortProto => "dst-port-proto",
            Aggregate::SrcIpPortProto => "src-ip-port-proto",
            Aggregate::DstIpPortProto => "dst-ip-port-proto",
            Aggregate::SrcDstPortProto => "src-dst-port-proto",
            Aggregate::FiveTuple => "5tuple",
        }
    }

    /// Index of the aggregate in [`Aggregate::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Aggregate::SrcIp => 0,
            Aggregate::DstIp => 1,
            Aggregate::Protocol => 2,
            Aggregate::SrcDstIp => 3,
            Aggregate::SrcPortProto => 4,
            Aggregate::DstPortProto => 5,
            Aggregate::SrcIpPortProto => 6,
            Aggregate::DstIpPortProto => 7,
            Aggregate::SrcDstPortProto => 8,
            Aggregate::FiveTuple => 9,
        }
    }

    /// Serialises the aggregate's fields of a 5-tuple into a compact key.
    ///
    /// The key length differs per aggregate, which is fine because the key is
    /// only ever hashed together with the aggregate index as a seed. The fast
    /// path ([`AggregateHashes::compute`]) never materialises these keys; they
    /// remain the reference the hashes are defined (and tested) against.
    pub fn key(self, tuple: &FiveTuple) -> [u8; 13] {
        let mut key = [0u8; 13];
        match self {
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
            Aggregate::FiveTuple => key = tuple.as_key(),
        }
        key
    }
}

/// Derives the per-aggregate hash seed from the extractor's base seed.
///
/// Kept as a free function so the side-array computation and the reference
/// ten-pass implementation (benchmarks, tests) agree on the exact rule.
#[inline]
pub fn aggregate_hash_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9)
}

/// The ten aggregate hashes of one packet, in [`Aggregate::ALL`] order.
///
/// Bit-identical to hashing each aggregate's zero-padded 13-byte key with
/// `hash_bytes(&aggregate.key(tuple), aggregate_hash_seed(seed, index))`, but
/// computed in a single pass over the 5-tuple fields: each field is converted
/// to bytes once and streamed into the aggregates that contain it, and the
/// zero padding of every key collapses to one multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateHashes([u64; AGGREGATE_COUNT]);

impl AggregateHashes {
    /// Computes all ten hashes for a packet's 5-tuple.
    pub fn compute(tuple: &FiveTuple, base_seed: u64) -> Self {
        let src_ip = tuple.src_ip.to_be_bytes();
        let dst_ip = tuple.dst_ip.to_be_bytes();
        let src_port = tuple.src_port.to_be_bytes();
        let dst_port = tuple.dst_port.to_be_bytes();
        let proto = [tuple.proto];

        // One hasher per aggregate, each fed exactly the bytes its 13-byte
        // key would contain: the fields at the front, then the zero padding.
        let hash = |index: usize, fields: &[&[u8]]| -> u64 {
            let mut fnv = IncrementalFnv::new(aggregate_hash_seed(base_seed, index));
            let mut written = 0;
            for field in fields {
                fnv.write(field);
                written += field.len();
            }
            fnv.pad_zeros(13 - written);
            fnv.finish()
        };

        Self([
            hash(0, &[&src_ip]),
            hash(1, &[&dst_ip]),
            hash(2, &[&proto]),
            hash(3, &[&src_ip, &dst_ip]),
            hash(4, &[&src_port, &proto]),
            hash(5, &[&dst_port, &proto]),
            hash(6, &[&src_ip, &src_port, &proto]),
            hash(7, &[&dst_ip, &dst_port, &proto]),
            hash(8, &[&src_port, &dst_port, &proto]),
            hash(9, &[&src_ip, &dst_ip, &src_port, &dst_port, &proto]),
        ])
    }

    /// The hash for one aggregate.
    #[inline]
    pub fn get(&self, aggregate: Aggregate) -> u64 {
        self.0[aggregate.index()]
    }

    /// All ten hashes, in [`Aggregate::ALL`] order.
    #[inline]
    pub fn as_array(&self) -> &[u64; AGGREGATE_COUNT] {
        &self.0
    }
}

/// The ten bitmap slots of one packet, in [`Aggregate::ALL`] order: each
/// aggregate's hash (see [`AggregateHashes`]) located under one
/// [`BitmapGeometry`].
///
/// This is the row of the store's per-packet side array. Hashing and
/// locating a packet depend on the extractor's seed and bitmap geometry but
/// not on which query is asking, so they happen once per batch; a slot is
/// 2 bytes where the hash it came from is 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateSlots([u16; AGGREGATE_COUNT]);

impl AggregateSlots {
    /// Hashes a packet's 5-tuple per aggregate and locates each hash.
    pub fn compute(tuple: &FiveTuple, base_seed: u64, geometry: BitmapGeometry) -> Self {
        Self(AggregateHashes::compute(tuple, base_seed).0.map(|hash| geometry.slot(hash)))
    }

    /// All ten slots, in [`Aggregate::ALL`] order.
    #[inline]
    pub fn as_array(&self) -> &[u16; AGGREGATE_COUNT] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_sketch::hash_bytes;

    #[test]
    fn there_are_ten_aggregates_as_in_table_3_1() {
        assert_eq!(Aggregate::ALL.len(), AGGREGATE_COUNT);
    }

    #[test]
    fn indices_are_consistent_with_all_order() {
        for (i, agg) in Aggregate::ALL.iter().enumerate() {
            assert_eq!(agg.index(), i);
        }
    }

    #[test]
    fn keys_only_depend_on_the_aggregated_fields() {
        let a = FiveTuple::new(1, 2, 3, 4, 6);
        let b = FiveTuple::new(1, 9, 8, 7, 6);
        // Same source IP and protocol, so the src-ip key must match.
        assert_eq!(Aggregate::SrcIp.key(&a), Aggregate::SrcIp.key(&b));
        // Destination differs, so the dst-ip key must not match.
        assert_ne!(Aggregate::DstIp.key(&a), Aggregate::DstIp.key(&b));
        // Full 5-tuple key differs.
        assert_ne!(Aggregate::FiveTuple.key(&a), Aggregate::FiveTuple.key(&b));
    }

    #[test]
    fn src_port_proto_ignores_addresses() {
        let a = FiveTuple::new(10, 20, 1234, 80, 6);
        let b = FiveTuple::new(99, 77, 1234, 443, 6);
        assert_eq!(Aggregate::SrcPortProto.key(&a), Aggregate::SrcPortProto.key(&b));
    }

    #[test]
    fn single_pass_hashes_match_the_per_key_reference() {
        // The slot rows are located from these hashes: the fused computation
        // must be bit-identical to hashing each aggregate's padded key.
        let tuples = [
            FiveTuple::new(0, 0, 0, 0, 0),
            FiveTuple::new(0x0a000001, 0x0a000002, 1234, 80, 6),
            FiveTuple::new(u32::MAX, 1, u16::MAX, 65534, 17),
            FiveTuple::new(0xc0a80001, 0x08080808, 53123, 53, 17),
        ];
        for seed in [0u64, 0x5eed_f00d, u64::MAX] {
            for tuple in &tuples {
                let hashes = AggregateHashes::compute(tuple, seed);
                for (index, aggregate) in Aggregate::ALL.iter().enumerate() {
                    let reference =
                        hash_bytes(&aggregate.key(tuple), aggregate_hash_seed(seed, index));
                    assert_eq!(
                        hashes.get(*aggregate),
                        reference,
                        "aggregate {} seed {seed:#x} tuple {tuple}",
                        aggregate.name()
                    );
                    assert_eq!(hashes.as_array()[index], reference);
                }
            }
        }
    }
}
