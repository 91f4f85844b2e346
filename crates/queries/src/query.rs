//! The black-box query abstraction.

use crate::cost::CycleMeter;
use crate::output::QueryOutput;
use netshed_sketch::{DetHashMap, StateError, StateReader, StateWriter};
use netshed_trace::{BatchStats, BatchView, FlowSet, FlowTotals, PacketRef};
use std::any::Any;
use std::hash::Hash;

/// How excess load should be shed for a query (Section 4.2 and Chapter 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SheddingMethod {
    /// Uniform random packet sampling.
    PacketSampling,
    /// Flow sampling: entire 5-tuple flows are kept or dropped together.
    FlowSampling,
    /// The query implements its own custom load shedding method; the system
    /// hands it the full batch plus the target sampling rate and polices the
    /// cycles it uses (Chapter 6).
    Custom,
}

/// A monitoring query (CoMo plug-in module).
///
/// The monitoring system never inspects a query's internals: it delivers
/// (possibly sampled) batches, measures the cycles charged to the
/// [`CycleMeter`], and collects a [`QueryOutput`] at the end of every
/// measurement interval. Implementations must scale their estimates by the
/// inverse of the sampling rate they were given, exactly as the paper's
/// modified queries do. (`Any`: [`Query::absorb`] needs the concrete type.)
pub trait Query: Any + Send {
    /// The query's name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// The load shedding method this query selects at configuration time.
    fn preferred_shedding(&self) -> SheddingMethod;

    /// Minimum sampling rate the query can tolerate while keeping its error
    /// within the bound declared by its user (`m_q` of Chapter 5).
    fn min_sampling_rate(&self) -> f64 {
        0.0
    }

    /// Processes one (already sampled) batch.
    ///
    /// The batch arrives as a zero-copy [`BatchView`]: the shedders sample by
    /// narrowing the view rather than copying packets, and a full batch is
    /// just the all-packets view. Queries iterate it through
    /// [`BatchView::packets`].
    ///
    /// `sampling_rate` is the rate that was applied to produce `batch`
    /// (1.0 = no sampling); queries use it to scale their estimates. All work
    /// performed must be charged to `meter`.
    fn process_batch(&mut self, batch: &BatchView, sampling_rate: f64, meter: &mut CycleMeter);

    /// Closes the current measurement interval and returns its output,
    /// resetting the per-interval state.
    fn end_interval(&mut self) -> QueryOutput;

    /// Folds another instance's share of the open interval into this one.
    ///
    /// A flow-sharded fleet runs one instance per lane, but a report is
    /// defined over the link: at interval close the lanes' *state* is folded
    /// into one instance, which reports once through [`Query::end_interval`].
    /// `absorb` adds what `lane` accumulated this interval into `self` (sums
    /// add, keyed tables add entry by entry, sets union; scratch that only
    /// serves `process_batch` is dropped) and leaves `lane` as its own
    /// `end_interval` would. The law, for a stream split by
    /// [`shard_key`](netshed_trace::shard_key) and fed at the same per-bin
    /// rates: the fold reports what one instance fed the whole stream does,
    /// bit for bit at rate 1.0 and up to float summation order below it.
    /// No default: a query that cannot fold cannot run on several lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is a different kind of query.
    fn absorb(&mut self, lane: &mut dyn Query);

    /// Serializes the query's mid-interval state for a checkpoint.
    ///
    /// Only *essential* state belongs here: whatever cannot be rebuilt from
    /// the query's configuration. The default declines, so checkpointing a
    /// monitor that hosts a query without snapshot support fails loudly
    /// instead of silently dropping state.
    fn save_state(&self, _writer: &mut StateWriter) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }

    /// Restores state captured by [`Query::save_state`] into a freshly
    /// configured query of the same kind.
    ///
    /// Restoring must reproduce the saved query bit-exactly: re-running the
    /// remaining traffic must yield the same outputs as the uninterrupted
    /// run. Implementations therefore reinsert hashed-container entries in
    /// their serialized (= insertion) order.
    fn load_state(&mut self, _reader: &mut StateReader<'_>) -> Result<(), StateError> {
        Err(StateError::unsupported(self.name()))
    }
}

/// The instance a query is asked to [`absorb`](Query::absorb), as the
/// absorbing query's own type; panics if it is another kind's.
pub(crate) fn same_kind<Q: Query>(lane: &mut dyn Query) -> &mut Q {
    let name = lane.name();
    let lane: &mut dyn Any = lane;
    lane.downcast_mut()
        .unwrap_or_else(|| panic!("cannot absorb a '{name}' instance into a different query type"))
}

/// Blanket helpers shared by query implementations.
///
/// Scales a sampled estimate by the inverse of the sampling rate. The result
/// is guaranteed finite: non-positive, NaN or subnormal rates, non-finite
/// values, and overflowing divisions all collapse to `0.0` instead of
/// poisoning downstream aggregates with NaN / infinity.
pub(crate) fn scale(value: f64, sampling_rate: f64) -> f64 {
    if !value.is_finite() || !sampling_rate.is_finite() || sampling_rate <= f64::MIN_POSITIVE {
        return 0.0;
    }
    let scaled = value / sampling_rate;
    if scaled.is_finite() {
        scaled
    } else {
        0.0
    }
}

/// 2⁵³: every integer from 0 up to it is an `f64`.
const EXACT_INTEGERS: u64 = 1 << 53;

/// The store's totals when `batch` reaches its query whole and at rate 1.0,
/// where every [`scale`]d term is an integer — a packet's 1.0, its length —
/// and `None` otherwise (a sampled view would have to walk its keep list).
pub(crate) fn unit_rate_stats(batch: &BatchView, sampling_rate: f64) -> Option<BatchStats> {
    (sampling_rate == 1.0 && batch.is_full()).then(|| batch.stats())
}

/// Whether adding the integer `total` to the accumulator `acc` in one
/// addition leaves the bits that adding the integer terms `total` sums one
/// by one leaves, in any order or grouping. It does when `acc` is an integer,
/// at least +0.0, and `acc + total ≤ 2⁵³`: every partial sum is then an
/// integer no larger than 2⁵³, which an `f64` holds exactly, so no addition
/// rounds and none can show its order. An accumulator a sub-unit rate made
/// fractional, or one near 2⁵³, rounds per addition; its owner adds per
/// packet (DESIGN.md, "Locate-once-per-flow invariant").
pub(crate) fn adds_exactly(acc: f64, total: u64) -> bool {
    // On [+0, 2⁵³] an f64 is an integer when truncation gives it back.
    acc.is_sign_positive() && acc <= EXACT_INTEGERS as f64 && {
        let whole = acc as u64;
        whole as f64 == acc && total <= EXACT_INTEGERS - whole
    }
}

/// Adds `packets` terms of 1.0 to `acc`: in one addition where
/// [`adds_exactly`] allows it, one per packet where it does not.
pub(crate) fn count_packets(acc: &mut f64, packets: u64) {
    if adds_exactly(*acc, packets) {
        *acc += packets as f64;
    } else {
        for _ in 0..packets {
            *acc += 1.0;
        }
    }
}

/// Checks a weight or byte count read back from a checkpointed table: every
/// one a query accumulates is a sum of [`scale`]d terms onto +0.0, finite
/// and not negative — never -0.0, which no addition onto +0.0 yields — so
/// anything else marks a crafted or damaged snapshot (whose checksum is not
/// cryptographic). `table` names the query — and the table, where a query
/// keeps two — and `entry` the position in it.
pub(crate) fn restored_weight(table: &str, entry: usize, value: f64) -> Result<f64, StateError> {
    if value.is_finite() && value.is_sign_positive() {
        Ok(value)
    } else {
        Err(StateError::corrupt(format!(
            "{table} checkpoint entry {entry} holds {value}, which no run accumulates \
             (weights and byte counts are finite, +0.0 or above)"
        )))
    }
}

/// The error for a checkpointed table whose entry `entry` lists a key an
/// earlier entry already listed: honest tables hold each key once, and a
/// restore that let the later value win would come out shorter than its
/// declared length and never re-serialise to the bytes it came from.
pub(crate) fn repeated_key(table: &str, entry: usize) -> StateError {
    StateError::corrupt(format!(
        "{table} checkpoint entry {entry} repeats the key of an earlier entry"
    ))
}

/// Writes a keyed table of weights in its iteration (= insertion) order, the
/// layout [`restore_weights`] reads back.
pub(crate) fn save_weights<K>(
    table: &DetHashMap<K, f64>,
    writer: &mut StateWriter,
    key: impl Fn(&mut StateWriter, &K),
) {
    writer.usize(table.len());
    for (entry, weight) in table.iter() {
        key(writer, entry);
        writer.f64(*weight);
    }
}

/// Restores a keyed table of weights entry by entry, in the serialised order:
/// every weight a [`restored_weight`], a repeated key a [`repeated_key`].
pub(crate) fn restore_weights<'a, K: Hash + Eq>(
    table: &mut DetHashMap<K, f64>,
    name: &str,
    reader: &mut StateReader<'a>,
    key: impl Fn(&mut StateReader<'a>) -> Result<K, StateError>,
) -> Result<(), StateError> {
    table.clear();
    for entry in 0..reader.usize()? {
        let key = key(reader)?;
        if table.insert(key, restored_weight(name, entry, reader.f64()?)?).is_some() {
            return Err(repeated_key(name, entry));
        }
    }
    Ok(())
}

/// The grow-only scratch of a kernel that looks its state up once per flow
/// and adds once per packet: what each flow's lookup returned, by flow id.
/// Every entry a call reads, the same call wrote, so it is never
/// checkpointed. Probing in view order meets the keys in the order a
/// per-packet walk does (DESIGN.md, "Locate-once-per-flow invariant").
#[derive(Debug, Default)]
pub(crate) struct FlowSlots<T> {
    seen: FlowSet,
    slot_of_flow: Vec<T>,
}

impl<T: Copy + Default> FlowSlots<T> {
    /// Calls `lookup` on the first packet of every flow of `batch`, in view
    /// order, and keeps what it returns for [`FlowSlots::packets`].
    pub(crate) fn probe(&mut self, batch: &BatchView, mut lookup: impl FnMut(PacketRef<'_>) -> T) {
        let flows = batch.store().flow_index().flows();
        if self.slot_of_flow.len() < flows {
            self.slot_of_flow.resize(flows, T::default());
        }
        for (flow, packet) in batch.first_of_flows(&mut self.seen) {
            self.slot_of_flow[flow] = lookup(packet);
        }
    }

    /// Every packet of `batch`, in view order, with its flow's last probe.
    pub(crate) fn packets<'a>(
        &'a self,
        batch: &'a BatchView,
    ) -> impl Iterator<Item = (T, PacketRef<'a>)> + 'a {
        let flow_of = batch.store().flow_index().flow_of();
        batch
            .indexed_packets()
            .map(move |(at, packet)| (self.slot_of_flow[flow_of[at] as usize], packet))
    }

    /// Every flow of a *full* `batch`, by flow id, with its last probe and
    /// its packets and IP bytes (the store's memo,
    /// [`PacketStore::flow_totals`](netshed_trace::PacketStore::flow_totals)).
    pub(crate) fn flows<'a>(
        &'a self,
        batch: &'a BatchView,
    ) -> impl Iterator<Item = (T, FlowTotals)> + 'a {
        debug_assert!(batch.is_full(), "a sampled view holds part of a flow's packets");
        let totals = batch.store().flow_totals();
        self.slot_of_flow.iter().copied().zip(totals.iter().copied())
    }
}

/// Adds `lane`'s table of weights into `table` entry by entry, emptying it:
/// how [`Query::absorb`] folds a keyed table.
pub(crate) fn fold_weights<K: Hash + Eq>(
    table: &mut DetHashMap<K, f64>,
    lane: &mut DetHashMap<K, f64>,
) {
    for (key, weight) in lane.drain() {
        *table.entry(key).or_insert(0.0) += weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_inverts_sampling_rate() {
        assert_eq!(scale(10.0, 0.5), 20.0);
        assert_eq!(scale(10.0, 1.0), 10.0);
        assert_eq!(scale(10.0, 0.0), 0.0);
    }

    #[test]
    fn scale_never_produces_nan_or_infinity() {
        for value in [10.0, 0.0, -3.0, f64::NAN, f64::INFINITY, f64::MAX] {
            for rate in [1.0, 0.5, 0.0, -0.2, f64::NAN, f64::MIN_POSITIVE / 2.0, 1e-320] {
                let scaled = scale(value, rate);
                assert!(scaled.is_finite(), "scale({value}, {rate}) = {scaled}");
            }
        }
        assert_eq!(scale(f64::NAN, 0.5), 0.0);
        assert_eq!(scale(10.0, f64::NAN), 0.0);
        assert_eq!(scale(f64::MAX, 1e-300), 0.0, "overflowing division collapses to zero");
    }
}
