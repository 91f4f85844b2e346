//! The per-batch flow index: packets grouped by 5-tuple, located once per flow.
//!
//! A packet's ten bitmap slots, a query's H3 flow-sampling verdict and the
//! `flows` / `super-sources` table probes are functions of the 5-tuple alone
//! whose second evaluation within a bin is a no-op, and traffic repeats its
//! tuples heavily within a bin: the store groups its packets by tuple once,
//! lazily, and those consumers work once per *flow present in their view*
//! (DESIGN.md, "Locate-once-per-flow invariant"). A cache of plan-phase
//! inputs: it never enters a snapshot or a digest.

use crate::aggregate::{AggregateSlots, AGGREGATE_HASH_SEED, AGGREGATE_MAX_CARDINALITY};
use crate::packet::FiveTuple;
use netshed_sketch::BitmapGeometry;

/// The flows of one `PacketStore`. Flow ids are dense and handed out in
/// first-seen order: walking the flows by id meets them as a per-packet walk
/// of the full store would, so a once-per-flow consumer inserts in its order.
#[derive(Debug)]
pub struct FlowIndex {
    /// Packet (store index) → flow id.
    flow_of: Vec<u32>,
    /// Flow id → store index of the flow's first packet.
    first: Vec<u32>,
    /// Flow id → the flow's aggregate slots.
    rows: Vec<AggregateSlots>,
}

/// Marks a free entry of the build-time probe table.
const VACANT: u32 = u32::MAX;

/// Where a tuple starts probing: a product whose *top* bits (they depend on
/// every tuple bit) index the table. Flows are told apart by tuple, not hash.
fn probe_hash(tuple: &FiveTuple) -> u64 {
    let addresses = u64::from(tuple.src_ip) << 32 | u64::from(tuple.dst_ip);
    let rest =
        u64::from(tuple.src_port) << 24 | u64::from(tuple.dst_port) << 8 | u64::from(tuple.proto);
    (addresses ^ rest.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

impl FlowIndex {
    /// Groups the tuple column by tuple equality: one pass probing an
    /// open-addressed table of first-packet indices (at most half full, so
    /// sized by the batch alone, and dropped with the pass), then one that
    /// locates each flow under the seed and geometry every extractor shares.
    pub(crate) fn build(tuples: &[FiveTuple]) -> Self {
        let bits = (tuples.len() * 2).next_power_of_two().trailing_zeros().max(1);
        let (shift, mask) = (64 - bits, (1usize << bits) - 1);
        let mut table = vec![VACANT; mask + 1];
        let mut flow_of: Vec<u32> = Vec::with_capacity(tuples.len());
        let mut flows = 0u32;
        for (index, tuple) in tuples.iter().enumerate() {
            let mut slot = (probe_hash(tuple) >> shift) as usize;
            let flow = loop {
                let first = table[slot];
                if first == VACANT {
                    table[slot] = index as u32;
                    flows += 1;
                    break flows - 1;
                }
                if tuples[first as usize] == *tuple {
                    break flow_of[first as usize];
                }
                slot = (slot + 1) & mask;
            };
            flow_of.push(flow);
        }

        let geometry = BitmapGeometry::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        let mut first = Vec::with_capacity(flows as usize);
        let mut rows = Vec::with_capacity(flows as usize);
        for (index, &flow) in flow_of.iter().enumerate() {
            // Dense first-seen ids: the next unseen id marks a flow's first packet.
            if flow as usize == first.len() {
                first.push(index as u32);
                rows.push(AggregateSlots::compute(&tuples[index], AGGREGATE_HASH_SEED, geometry));
            }
        }
        Self { flow_of, first, rows }
    }

    /// Number of distinct 5-tuples in the store.
    pub fn flows(&self) -> usize {
        self.first.len()
    }

    /// The flow id of every packet, by store index.
    pub fn flow_of(&self) -> &[u32] {
        &self.flow_of
    }

    /// The store index of every flow's first packet, by flow id.
    pub fn first(&self) -> &[u32] {
        &self.first
    }

    /// Every flow's ten bitmap slots, by flow id.
    pub fn rows(&self) -> &[AggregateSlots] {
        &self.rows
    }
}

/// One flow's packets and IP bytes in its store, an entry of
/// [`PacketStore::flow_totals`](crate::PacketStore::flow_totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTotals {
    /// Packets of the flow.
    pub packets: u64,
    /// IP bytes of those packets.
    pub bytes: u64,
}

/// A reusable set of flow ids, the "already handled in this view" scratch of
/// a once-per-flow consumer; grow-only, so it stops allocating when warm.
#[derive(Debug, Default)]
pub struct FlowSet {
    words: Vec<u64>,
}

impl FlowSet {
    /// Empties the set and makes room for flow ids below `flows`.
    pub fn reset(&mut self, flows: usize) {
        self.words.clear();
        self.words.resize(flows.div_ceil(64), 0);
    }

    /// Adds a flow id below the count given to [`FlowSet::reset`]; returns
    /// `true` if it was not in the set.
    #[inline]
    pub fn insert(&mut self, flow: usize) -> bool {
        let word = &mut self.words[flow >> 6];
        let mask = 1u64 << (flow & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_are_numbered_in_first_seen_order() {
        let (a, b, c) = (
            FiveTuple::new(1, 2, 3, 4, 6),
            FiveTuple::new(2, 1, 4, 3, 6),
            FiveTuple::new(1, 2, 3, 4, 17),
        );
        let index = FlowIndex::build(&[a, b, a, c, b, a]);
        assert_eq!(index.flows(), 3);
        assert_eq!(index.flow_of(), &[0, 1, 0, 2, 1, 0]);
        assert_eq!(index.first(), &[0, 1, 3]);
        let geometry = BitmapGeometry::for_cardinality(AGGREGATE_MAX_CARDINALITY);
        for (row, tuple) in index.rows().iter().zip([a, b, c]) {
            assert_eq!(*row, AggregateSlots::compute(&tuple, AGGREGATE_HASH_SEED, geometry));
        }
    }

    #[test]
    fn an_empty_store_has_no_flows() {
        let index = FlowIndex::build(&[]);
        assert_eq!(index.flows(), 0);
        assert!(index.flow_of().is_empty() && index.first().is_empty() && index.rows().is_empty());
    }

    #[test]
    fn flow_set_reports_first_insertions_and_forgets_on_reset() {
        let mut set = FlowSet::default();
        set.reset(130);
        assert!(set.insert(0) && set.insert(64) && set.insert(129));
        assert!(!set.insert(64));
        set.reset(65);
        assert!(set.insert(64), "reset must empty the set");
    }
}
