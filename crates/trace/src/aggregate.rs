//! The ten traffic aggregates of Table 3.1, their per-packet hashes and the
//! bitmap slots those hashes own.
//!
//! The aggregates live in the trace crate (rather than with the feature
//! extractor) because the batch data plane caches one bitmap slot per
//! aggregate per *flow* directly on the shared packet store (see
//! [`FlowIndex`](crate::flows::FlowIndex)): the flows are hashed and located
//! the first time a batch is examined, and the slots are reused by every
//! later consumer — the full-batch extraction and each query's sampled
//! re-extraction.

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
}

/// Base seed of the aggregate hash functions. One value for every extractor
/// of a process, so the slot rows a batch caches (see
/// `PacketStore::flow_index`) serve all of them.
pub const AGGREGATE_HASH_SEED: u64 = 0x5eed_f00d;

/// Cardinality the extractor's bitmaps are dimensioned for. Through
/// [`BitmapGeometry::for_cardinality`] it fixes the one geometry the cached
/// slot rows are located under and every extractor bitmap is built with.
pub const AGGREGATE_MAX_CARDINALITY: usize = 200_000;

/// Derives the per-aggregate hash seed from the base seed.
#[inline]
fn aggregate_hash_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9)
}

/// The ten aggregate hashes of one packet, in [`Aggregate::ALL`] order.
///
/// Bit-identical to `hash_bytes` over each aggregate's fields serialised
/// big-endian into a zero-padded 13-byte key, seeded with
/// `base_seed ^ index · 0x9e3779b9` (the seed's definition, restated in
/// `tests/oracle/`), but computed in a single pass over the 5-tuple fields:
/// each field is converted to bytes once and streamed into the aggregates
/// that contain it, and the zero padding of every key collapses to one
/// multiplication.
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
/// This is the row the store's flow index keeps per flow. Hashing and
/// locating a 5-tuple depend on the extractor's seed and bitmap geometry but
/// not on which query is asking — or on which of the flow's packets is being
/// looked at — so they happen once per flow per batch; a slot is 2 bytes
/// where the hash it came from is 8.
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
}
