//! Batches: the unit of work of the monitoring system.
//!
//! The CoMo-based system of the paper groups every 100 ms of traffic into a
//! *batch* and runs the prediction / load-shedding / query-execution cycle
//! once per batch (Section 3.1). A [`Batch`] owns its packets through a
//! shared [`PacketStore`]; the load shedders produce [`BatchView`]s — index
//! lists over the same store — rather than copying packets, so that per-query
//! sampling rates can differ (Chapter 5) without per-query packet clones.
//!
//! # Memory layout
//!
//! The store is *struct-of-arrays*: timestamps, five-tuples, IP lengths and
//! TCP flags each live in their own dense column, built once per batch.
//! Consumers that stream one attribute — [`BatchStats`] accumulation, the
//! flow grouping — walk a contiguous column instead of striding over a
//! packet struct, and payload bytes (the one cold,
//! variable-width attribute) never pollute the hot columns: they live in one
//! shared window per store, addressed by a `u32` offset column. Individual
//! packets are addressed through the cheap [`PacketRef`] accessor; [`Packet`]
//! remains the construction and interop type.
//!
//! Derived data computed at most once per batch, shared by every view:
//!
//! * [`BatchStats`] (packet/byte/flag totals) — folded over the finished
//!   columns when the store is built,
//! * the [`FlowIndex`] (packets grouped by 5-tuple, ten bitmap slots per
//!   flow) feeding the fused feature extractor, flowwise sampling and the
//!   flow-keyed queries and a fleet's lane routing — the "locate once per
//!   flow" invariant — lazy, so a batch nothing examines (a recording)
//!   hashes nothing,
//! * the `flows` table key of each flow ([`PacketStore::flow_key_hash`]),
//!   hashed the first time a view asks for that flow,
//! * each flow's packets and IP bytes ([`PacketStore::flow_totals`]), summed
//!   the first time a unit-rate query asks for them.
//!
//! Steady-state sampling is allocation-free: a [`KeepListPool`] recycles both
//! the keep-index buffers and their `Arc` control blocks, so
//! [`BatchView::filter_indexed_with`] performs no heap allocation once the
//! pool is warm (see DESIGN.md, "Memory plane").

use crate::flows::{FlowIndex, FlowSet, FlowTotals};
use crate::packet::{FiveTuple, Packet, Timestamp, TCP_ACK, TCP_SYN};
use bytes::Bytes;
use netshed_sketch::hash_bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Fixed seed of the symmetric host-pair shard keys (see [`shard_key`]).
/// Deliberately *not* configurable: the shard
/// routing must agree across every component of a deployment (front end,
/// checkpoint restore, replay verification), so the seed is part of the wire
/// contract like the `.nstr` frame checksum seed.
const SHARD_KEY_SEED: u64 = 0x7368_6172_644b_6579; // "shardKey"

/// Seed of the `flows` query's table key, `hash_bytes(&tuple.as_key(),
/// FLOW_KEY_SEED)`, which [`PacketStore::flow_key_hash`] memoises.
pub const FLOW_KEY_SEED: u64 = 0xf10f;

/// The shard-routing key of a five-tuple: a hash of the *unordered*
/// `{src_ip, dst_ip}` host pair.
///
/// Symmetry (both directions of a conversation yield the same key) keeps the
/// canonical flows of the P2P detector and the per-pair state of the
/// super-sources query shard-atomic; hashing hosts rather than full tuples
/// keeps every flow of a host pair on one shard regardless of ports. The key
/// is independent of the shard count — lane assignment reduces it modulo the
/// number of lanes. It is a function of the 5-tuple, so an engine asks it once
/// per *flow* of a bin ([`PacketStore::flow_lanes`]), never per packet.
pub fn shard_key(tuple: &FiveTuple) -> u64 {
    let (lo, hi) = if tuple.src_ip <= tuple.dst_ip {
        (tuple.src_ip, tuple.dst_ip)
    } else {
        (tuple.dst_ip, tuple.src_ip)
    };
    let mut pair = [0_u8; 8];
    pair[..4].copy_from_slice(&lo.to_be_bytes());
    pair[4..].copy_from_slice(&hi.to_be_bytes());
    hash_bytes(&pair, SHARD_KEY_SEED)
}

/// The owning, reference-counted, struct-of-arrays storage behind a
/// [`Batch`].
///
/// Immutable after construction; the lazy flow index and flow totals are
/// initialise-once (`OnceLock`) and therefore safe to share across threads,
/// like the flow-key memo's atomics.
/// Construct through [`PacketStore::builder`] (a packet at a time) or
/// implicitly through [`Batch::new`]; the `.nstr` decoder writes a frame
/// straight into exactly-sized columns.
pub struct PacketStore {
    /// Per-packet timestamps in microseconds, ascending.
    ts: Vec<Timestamp>,
    /// Per-packet five-tuples.
    tuples: Vec<FiveTuple>,
    /// Per-packet IP lengths.
    ip_lens: Vec<u32>,
    /// Per-packet TCP flag bytes (0 for non-TCP).
    tcp_flags: Vec<u8>,
    /// Captured payloads. `None` when *no* packet carries one (the common
    /// header-only trace pays nothing for the column).
    payloads: Option<PayloadColumn>,
    /// Summary statistics, folded over the finished columns.
    stats: BatchStats,
    /// The packets grouped by 5-tuple (see [`PacketStore::flow_index`]).
    flows: OnceLock<FlowIndex>,
    /// See [`PacketStore::flow_key_hash`].
    flow_keys: OnceLock<Box<[AtomicU64]>>,
    /// See [`PacketStore::flow_totals`].
    flow_totals: OnceLock<Box<[FlowTotals]>>,
}

/// The payload column: one shared window of bytes per store and, per
/// packet, where its payload lies in it. A decoded frame's window is its
/// frame body inside the container (one reference, however many payloads);
/// a store built from packets copies their payloads into a window of its
/// own once.
#[derive(Clone)]
pub(crate) struct PayloadColumn {
    window: Bytes,
    spans: Vec<PayloadSpan>,
}

/// One packet's payload in its store's window: a `u32` offset and a `u32`
/// length, [`PayloadSpan::NONE`]'s length for "no payload captured" — an
/// empty payload is a zero length, so the two stay apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayloadSpan {
    start: u32,
    len: u32,
}

impl PayloadSpan {
    /// No payload captured.
    pub(crate) const NONE: PayloadSpan = PayloadSpan { start: 0, len: u32::MAX };

    /// The payload at `window[start..start + len]`; `len` is not `u32::MAX`.
    pub(crate) fn new(start: u32, len: u32) -> Self {
        debug_assert!(len != u32::MAX);
        Self { start, len }
    }

    /// Captured payload bytes (0 for none).
    fn bytes(self) -> u64 {
        if self.len == u32::MAX {
            0
        } else {
            u64::from(self.len)
        }
    }
}

impl PayloadColumn {
    /// The column over `window`. Every span lies inside it.
    pub(crate) fn new(window: Bytes, spans: Vec<PayloadSpan>) -> Self {
        Self { window, spans }
    }

    fn range(&self, index: usize) -> Option<std::ops::Range<usize>> {
        let span = self.spans[index];
        (span.len != u32::MAX).then(|| span.start as usize..span.start as usize + span.len as usize)
    }

    fn get(&self, index: usize) -> Option<&[u8]> {
        self.range(index).map(|range| &self.window.as_slice()[range])
    }
}

/// Packet-at-a-time constructor for a [`PacketStore`], for stores built
/// from packets rather than decoded: [`Batch::new`], [`BatchBuilder`] and
/// [`BatchView::materialize`]. Payload bytes are copied into the store's
/// one window as they arrive.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    ts: Vec<Timestamp>,
    tuples: Vec<FiveTuple>,
    ip_lens: Vec<u32>,
    tcp_flags: Vec<u8>,
    window: Vec<u8>,
    /// Empty until the first payload arrives, then one span per packet.
    spans: Vec<PayloadSpan>,
}

impl StoreBuilder {
    /// Creates a builder with capacity for `capacity` packets in every hot
    /// column (the payload column is grown only if a payload ever arrives).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ts: Vec::with_capacity(capacity),
            tuples: Vec::with_capacity(capacity),
            ip_lens: Vec::with_capacity(capacity),
            tcp_flags: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Number of packets pushed so far.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Returns `true` if nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one packet's fields to the columns, copying its payload.
    ///
    /// # Panics
    ///
    /// Panics if the store's payload bytes pass 4 GiB, the `.nstr` frame
    /// limit.
    pub fn push(
        &mut self,
        ts: Timestamp,
        tuple: FiveTuple,
        ip_len: u32,
        tcp_flags: u8,
        payload: Option<&[u8]>,
    ) {
        if payload.is_some() || !self.spans.is_empty() {
            // First payload seen: backfill the column so it stays
            // index-aligned. Header-only stores never enter here.
            self.spans.resize(self.ts.len(), PayloadSpan::NONE);
            self.spans.push(payload.map_or(PayloadSpan::NONE, |payload| {
                let start = self.window.len();
                self.window.extend_from_slice(payload);
                assert!(self.window.len() < u32::MAX as usize, "payload window past 4 GiB");
                PayloadSpan::new(start as u32, payload.len() as u32)
            }));
        }
        self.ts.push(ts);
        self.tuples.push(tuple);
        self.ip_lens.push(ip_len);
        self.tcp_flags.push(tcp_flags);
    }

    /// Appends a [`Packet`]'s fields, consuming it.
    pub fn push_packet(&mut self, packet: Packet) {
        let Packet { ts, tuple, ip_len, tcp_flags, payload } = packet;
        self.push(ts, tuple, ip_len, tcp_flags, payload.as_deref());
    }

    /// Finalises the columns into an immutable [`PacketStore`].
    pub fn finish(self) -> PacketStore {
        let payloads = (!self.spans.is_empty())
            .then(|| PayloadColumn::new(Bytes::from(self.window), self.spans));
        PacketStore::from_columns(self.ts, self.tuples, self.ip_lens, self.tcp_flags, payloads)
    }
}

impl PacketStore {
    /// Starts a [`StoreBuilder`] with the given packet capacity.
    pub fn builder(capacity: usize) -> StoreBuilder {
        StoreBuilder::with_capacity(capacity)
    }

    /// Builds a store from packets, copying their payloads into the store's
    /// window once.
    pub fn from_packets(packets: Vec<Packet>) -> Self {
        let mut builder = StoreBuilder::with_capacity(packets.len());
        let payload_bytes = packets.iter().filter_map(|p| p.payload.as_ref()).map(Bytes::len).sum();
        builder.window.reserve_exact(payload_bytes);
        for packet in packets {
            builder.push_packet(packet);
        }
        builder.finish()
    }

    /// A store over finished columns of one length; the stats are folded
    /// over them here.
    pub(crate) fn from_columns(
        ts: Vec<Timestamp>,
        tuples: Vec<FiveTuple>,
        ip_lens: Vec<u32>,
        tcp_flags: Vec<u8>,
        payloads: Option<PayloadColumn>,
    ) -> Self {
        debug_assert!(tuples.len() == ts.len() && ip_lens.len() == ts.len());
        debug_assert!(tcp_flags.len() == ts.len());
        debug_assert!(payloads.as_ref().is_none_or(|column| column.spans.len() == ts.len()));
        let mut stats = BatchStats::default();
        for ((tuple, &flags), &ip_len) in tuples.iter().zip(&tcp_flags).zip(&ip_lens) {
            stats.absorb(tuple.proto, flags, ip_len, 0);
        }
        stats.payload_bytes =
            payloads.as_ref().map_or(0, |column| column.spans.iter().map(|s| s.bytes()).sum());
        PacketStore {
            ts,
            tuples,
            ip_lens,
            tcp_flags,
            payloads,
            stats,
            flows: OnceLock::new(),
            flow_keys: OnceLock::new(),
            flow_totals: OnceLock::new(),
        }
    }

    /// The same packets `shift` microseconds later, in a store of their
    /// own that shares this one's payload window (no payload byte copied).
    pub(crate) fn shifted(&self, shift: Timestamp) -> PacketStore {
        let mut ts = Vec::with_capacity(self.len());
        ts.extend(self.ts.iter().map(|&at| at + shift));
        PacketStore::from_columns(
            ts,
            self.tuples.clone(),
            self.ip_lens.clone(),
            self.tcp_flags.clone(),
            self.payloads.clone(),
        )
    }

    /// Number of stored packets.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Returns `true` if the store holds no packets.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Cheap accessor for the packet at `index`.
    ///
    /// # Panics
    ///
    /// Panics (via column indexing) if `index >= len()`.
    pub fn get(&self, index: usize) -> PacketRef<'_> {
        debug_assert!(index < self.len());
        PacketRef { store: self, index }
    }

    /// Iterates over the stored packets in timestamp order.
    pub fn iter(&self) -> Packets<'_> {
        Packets { store: self, range: 0..self.len() }
    }

    /// The timestamp column, ascending, in microseconds.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.ts
    }

    /// The five-tuple column.
    pub fn tuples(&self) -> &[FiveTuple] {
        &self.tuples
    }

    /// The IP-length column.
    pub fn ip_lens(&self) -> &[u32] {
        &self.ip_lens
    }

    /// The TCP-flags column (0 for non-TCP packets).
    pub fn tcp_flag_bytes(&self) -> &[u8] {
        &self.tcp_flags
    }

    /// The captured payload of the packet at `index`, if any: a slice of
    /// the store's payload window.
    pub fn payload(&self, index: usize) -> Option<&[u8]> {
        self.payloads.as_ref().and_then(|column| column.get(index))
    }

    /// The captured payload of the packet at `index` as a [`Bytes`] window
    /// sharing the store's (no byte copy).
    fn shared_payload(&self, index: usize) -> Option<Bytes> {
        let column = self.payloads.as_ref()?;
        column.range(index).map(|range| column.window.slice(range))
    }

    /// Returns `true` if at least one stored packet carries a payload.
    pub fn has_payloads(&self) -> bool {
        self.payloads.is_some()
    }

    /// Summary statistics over all stored packets, folded at construction.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// The stored packets grouped by 5-tuple, with every flow's ten bitmap
    /// slots: built from the tuple column on first request (in the monitor,
    /// by the full-batch extraction) and borrowed by every later consumer.
    pub fn flow_index(&self) -> &FlowIndex {
        self.flows.get_or_init(|| FlowIndex::build(&self.tuples))
    }

    /// The `flows` table key of flow `flow` (an id of
    /// [`PacketStore::flow_index`]), `hash_bytes(&tuple.as_key(),
    /// FLOW_KEY_SEED)`, hashed when a view first asks for that flow and read
    /// back by every later caller: a sampled view hashes only the flows it
    /// kept (DESIGN.md, "Locate-once-per-flow invariant"). `Relaxed` is
    /// enough because a slot publishes nothing but its own value, a pure
    /// function of the tuple, so racing workers store the same bits; 0
    /// means "not yet" (a key that hashes to 0 is only recomputed).
    pub fn flow_key_hash(&self, flow: usize) -> u64 {
        let memo = self.flow_keys.get_or_init(|| {
            // The memo's one allocation per batch.
            let flows = self.flow_index().flows();
            let mut memo = Vec::with_capacity(flows);
            memo.resize_with(flows, || AtomicU64::new(0));
            memo.into_boxed_slice()
        });
        match memo[flow].load(Ordering::Relaxed) {
            0 => {
                let first = self.flow_index().first()[flow] as usize;
                let key = hash_bytes(&self.tuples[first].as_key(), FLOW_KEY_SEED);
                memo[flow].store(key, Ordering::Relaxed);
                key
            }
            key => key,
        }
    }

    /// Every flow's packets and IP bytes, by flow id of
    /// [`PacketStore::flow_index`]: summed over the columns the first time
    /// anyone asks and read back by every later caller, so the tenants that
    /// take a batch whole at rate 1.0 sum each flow once between them
    /// (DESIGN.md, "Locate-once-per-flow invariant"). A pure function of the
    /// store, like the index: whichever thread builds it builds the same
    /// table, and the others wait for it.
    pub fn flow_totals(&self) -> &[FlowTotals] {
        self.flow_totals.get_or_init(|| {
            // The memo's one allocation per batch.
            let index = self.flow_index();
            let mut totals = vec![FlowTotals::default(); index.flows()];
            for (&flow, &ip_len) in index.flow_of().iter().zip(&self.ip_lens) {
                let flow = &mut totals[flow as usize];
                flow.packets += 1;
                flow.bytes += u64::from(ip_len);
            }
            totals.into_boxed_slice()
        })
    }

    /// The lane of every flow of the store, by flow id, written into `out`
    /// (the caller's scratch, refilled in place): `shard_key % lanes` of the
    /// flow's first packet — one [`shard_key`] per flow, whatever the
    /// packet count, because every packet of a flow shares the verdict.
    pub fn flow_lanes(&self, lanes: usize, out: &mut Vec<u32>) {
        let first = self.flow_index().first().iter();
        out.clear();
        out.extend(first.map(|&at| (shard_key(&self.tuples[at as usize]) % lanes as u64) as u32));
    }

    /// Copies the columns back into owned [`Packet`]s (interop only; payload
    /// bytes are shared, not copied).
    pub fn to_packets(&self) -> Vec<Packet> {
        // lint:allow(hot-path-alloc): interop path for tests and recording, never per-bin
        self.iter().map(|p| p.to_packet()).collect()
    }
}

/// Cheap, copyable accessor for one packet of a [`PacketStore`].
///
/// Reads resolve into the store's columns, so a consumer that touches one
/// attribute pulls only that column through the cache. `PacketRef` is the
/// iteration item of [`BatchView::packets`] and [`PacketStore::iter`];
/// [`Packet`] remains the owned construction/interop type
/// (see [`PacketRef::to_packet`]).
#[derive(Clone, Copy)]
pub struct PacketRef<'a> {
    store: &'a PacketStore,
    index: usize,
}

impl<'a> PacketRef<'a> {
    /// Capture timestamp in microseconds.
    pub fn ts(&self) -> Timestamp {
        self.store.ts[self.index]
    }

    /// The packet's five-tuple.
    pub fn tuple(&self) -> &'a FiveTuple {
        &self.store.tuples[self.index]
    }

    /// Length of the IP packet in bytes.
    pub fn ip_len(&self) -> u32 {
        self.store.ip_lens[self.index]
    }

    /// The raw TCP flag byte (0 for non-TCP packets).
    pub fn tcp_flags(&self) -> u8 {
        self.store.tcp_flags[self.index]
    }

    /// The IP protocol number.
    pub fn proto(&self) -> u8 {
        self.store.tuples[self.index].proto
    }

    /// The captured payload, if any.
    pub fn payload(&self) -> Option<&'a [u8]> {
        self.store.payload(self.index)
    }

    /// Number of captured payload bytes (0 if no payload was captured).
    pub fn payload_len(&self) -> usize {
        self.payload().map_or(0, <[u8]>::len)
    }

    /// Returns `true` for a pure TCP SYN (SYN set, ACK clear).
    pub fn is_syn(&self) -> bool {
        self.proto() == 6 && self.tcp_flags() & TCP_SYN != 0 && self.tcp_flags() & TCP_ACK == 0
    }

    /// Returns `true` if the packet carries the given IP protocol.
    pub fn is_proto(&self, proto: u8) -> bool {
        self.proto() == proto
    }

    /// Copies the packet out into an owned [`Packet`] (payload bytes are
    /// shared, not copied).
    pub fn to_packet(&self) -> Packet {
        Packet {
            ts: self.ts(),
            tuple: *self.tuple(),
            ip_len: self.ip_len(),
            tcp_flags: self.tcp_flags(),
            payload: self.store.shared_payload(self.index),
        }
    }
}

impl std::fmt::Debug for PacketRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketRef")
            .field("index", &self.index)
            .field("ts", &self.ts())
            .field("tuple", self.tuple())
            .finish_non_exhaustive()
    }
}

/// Iterator over the packets of a [`PacketStore`] (see [`PacketStore::iter`]).
#[derive(Debug)]
pub struct Packets<'a> {
    store: &'a PacketStore,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for Packets<'a> {
    type Item = PacketRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<PacketRef<'a>> {
        let index = self.range.next()?;
        Some(PacketRef { store: self.store, index })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Packets<'_> {}

impl<'a> IntoIterator for &'a PacketStore {
    type Item = PacketRef<'a>;
    type IntoIter = Packets<'a>;

    fn into_iter(self) -> Packets<'a> {
        self.iter()
    }
}

// The execution plane shares one `PacketStore` (through `Batch` and
// `BatchView` clones) across worker threads; the store is immutable after
// construction and its lazy caches are `OnceLock`-guarded, so all three
// types must stay `Send + Sync`. Compile-time proof:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PacketStore>();
    assert_send_sync::<Batch>();
    assert_send_sync::<BatchView>();
    assert_send_sync::<KeepListPool>();
};

impl PartialEq for PacketStore {
    fn eq(&self, other: &Self) -> bool {
        // Packet contents only: caches, telemetry and where the payload
        // bytes live are excluded, and the payload column's absent-means-
        // all-header-only form is canonical.
        self.ts == other.ts
            && self.tuples == other.tuples
            && self.ip_lens == other.ip_lens
            && self.tcp_flags == other.tcp_flags
            && self.has_payloads() == other.has_payloads()
            && (0..self.len()).all(|index| self.payload(index) == other.payload(index))
    }
}

impl Eq for PacketStore {}

impl std::fmt::Debug for PacketStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketStore").field("packets", &self.len()).finish_non_exhaustive()
    }
}

/// A set of packets collected during one time bin.
///
/// Batches compare with `==` by bin geometry and packet contents (the
/// shared store's caches are excluded), so replay and format round-trip
/// tests can pin streams directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Index of the time bin this batch belongs to (0-based).
    pub bin_index: u64,
    /// Timestamp of the start of the time bin, in microseconds.
    pub start_ts: Timestamp,
    /// Duration of the time bin in microseconds.
    pub duration_us: u64,
    /// Packets captured during the time bin, in timestamp order. Shared with
    /// every [`BatchView`] derived from this batch (cloning a batch never
    /// copies packets).
    pub packets: Arc<PacketStore>,
}

impl Batch {
    /// Creates a batch from a packet vector.
    pub fn new(
        bin_index: u64,
        start_ts: Timestamp,
        duration_us: u64,
        packets: Vec<Packet>,
    ) -> Self {
        Self::from_store(bin_index, start_ts, duration_us, PacketStore::from_packets(packets))
    }

    /// Creates a batch around an already-built column store (the zero-copy
    /// `.nstr` decode constructs stores directly).
    pub fn from_store(
        bin_index: u64,
        start_ts: Timestamp,
        duration_us: u64,
        store: PacketStore,
    ) -> Self {
        Self { bin_index, start_ts, duration_us, packets: Arc::new(store) }
    }

    /// Creates an empty batch for the given time bin.
    pub fn empty(bin_index: u64, start_ts: Timestamp, duration_us: u64) -> Self {
        // lint:allow(hot-path-alloc): a zero-capacity Vec never touches the heap
        Self::new(bin_index, start_ts, duration_us, Vec::new())
    }

    /// Number of packets in the batch.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` if the batch contains no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total number of IP bytes carried by the batch.
    pub fn total_bytes(&self) -> u64 {
        self.stats().bytes
    }

    /// Total number of captured payload bytes in the batch.
    pub fn total_payload_bytes(&self) -> u64 {
        self.stats().payload_bytes
    }

    /// End timestamp of the time bin (exclusive).
    pub fn end_ts(&self) -> Timestamp {
        self.start_ts + self.duration_us
    }

    /// Returns the measurement interval index this batch belongs to, given the
    /// measurement interval duration in microseconds.
    pub fn measurement_interval(&self, interval_us: u64) -> u64 {
        debug_assert!(interval_us > 0);
        self.start_ts / interval_us
    }

    /// A zero-copy view over all packets of this batch.
    pub fn view(&self) -> BatchView {
        BatchView {
            bin_index: self.bin_index,
            start_ts: self.start_ts,
            duration_us: self.duration_us,
            store: Arc::clone(&self.packets),
            keep: None,
        }
    }

    /// Copies the batch into `lanes` per-lane sub-batches by shard-routing key
    /// (`lane = shard_key % lanes`), each keeping this batch's bin geometry
    /// and capture order; idle lanes get an empty batch.
    ///
    /// Vestigial: no engine calls it — a fleet routes *views* per flow
    /// ([`BatchView::split_lanes_with`]) and copies nothing. The name stays
    /// because `benchmark/src/sut.rs` pins it for its stand-alone lane
    /// replicas, until a benchmark-only PR frees it (ROADMAP item 2(i)).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[doc(hidden)]
    pub fn split_shards(&self, lanes: usize) -> Vec<Batch> {
        assert!(lanes > 0, "split_shards needs at least one lane");
        let mut builders: Vec<StoreBuilder> = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            builders.push(PacketStore::builder(self.len() / lanes + 1));
        }
        for packet in self.packets.iter() {
            let lane = (shard_key(packet.tuple()) % lanes as u64) as usize;
            builders[lane].push(
                packet.ts(),
                *packet.tuple(),
                packet.ip_len(),
                packet.tcp_flags(),
                packet.payload(),
            );
        }
        builders
            .into_iter()
            .map(|b| Batch::from_store(self.bin_index, self.start_ts, self.duration_us, b.finish()))
            .collect() // lint:allow(hot-path-alloc): off the engines' path — the benchmark's lane replicas only
    }

    /// Summary statistics for the batch, accumulated at construction.
    pub fn stats(&self) -> BatchStats {
        self.packets.stats()
    }

    /// Average bit rate of the batch over the time bin, in megabits per second.
    pub fn load_mbps(&self) -> f64 {
        if self.duration_us == 0 {
            return 0.0;
        }
        let bits = self.total_bytes() as f64 * 8.0;
        bits / (self.duration_us as f64 / 1e6) / 1e6
    }
}

/// Recycles the keep-index lists behind sampled [`BatchView`]s.
///
/// A pool slot is an `Arc<Vec<u32>>`. While a view derived through
/// [`BatchView::filter_indexed_with`] is alive it shares the slot's `Arc`;
/// once every such view is dropped the slot's strong count returns to one and
/// the *next* sampling call reclaims it — index buffer capacity and `Arc`
/// control block included. A steady state that derives a bounded number of
/// simultaneous views per bin therefore stops allocating entirely once the
/// pool is warm (the property the allocation-guard bench pins).
///
/// The pool is plain mutable state whose slots outlive the call that filled
/// them (a view holds one until it is dropped), so it goes with the views:
/// the monitor keeps one for the views its plan draws and one per query for
/// those the query's task builds — not one per worker, like the extraction
/// scratch, which is empty again when its call returns.
#[derive(Debug, Default)]
pub struct KeepListPool {
    slots: Vec<Arc<Vec<u32>>>,
    /// [`BatchView::filter_flows_with`]'s scratch: flow id → verdict so far.
    fates: Vec<Option<bool>>,
    /// [`BatchView::split_lanes_with`]'s scratch: the lane lists being
    /// filled, swapped into claimed slots when the pass ends.
    lane_lists: Vec<Vec<u32>>,
    /// A caller's per-packet keys for [`BatchView::filter_keys_below_with`]
    /// ([`KeepListPool::keys`]).
    keys: Vec<u64>,
}

impl KeepListPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots the pool has grown to (telemetry for tests: a warm
    /// steady state stops growing).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// A key buffer kept with the pool for a sampler that draws one key per
    /// packet and cuts a view from them, so a warm pool's sampling
    /// allocates nothing. Take it out (`std::mem::take`) for the cut, which
    /// borrows the pool, and put it back.
    pub fn keys(&mut self) -> &mut Vec<u64> {
        &mut self.keys
    }

    /// Claims a free slot (strong count 1), clearing its buffer; grows the
    /// pool only when every slot is still shared with a live view.
    fn claim(&mut self) -> usize {
        if let Some(slot) = self.slots.iter().position(|slot| Arc::strong_count(slot) == 1) {
            // Uniquely owned, so `make_mut` clears in place without cloning.
            Arc::make_mut(&mut self.slots[slot]).clear();
            slot
        } else {
            // lint:allow(hot-path-alloc): pool growth — bounded by the peak number of simultaneous views
            self.slots.push(Arc::new(Vec::new()));
            self.slots.len() - 1
        }
    }
}

/// A zero-copy, possibly-sampled view over a batch's packets.
///
/// A view shares the underlying [`PacketStore`] with the batch it was carved
/// from and records which packets it retains as an index list (`None` meaning
/// "all of them"). Sampling a view therefore never copies a packet, and all
/// store-level data (columns, stats, the flow index) remains shared across
/// every view of the same batch.
///
/// Ownership rules: views are cheap to clone (two `Arc` bumps at most) and
/// immutable; deriving a narrower view with [`BatchView::filter_indexed`] (or
/// the pooled [`BatchView::filter_indexed_with`]) composes index lists
/// against the *store*, so a view of a view still resolves packets in one
/// hop.
#[derive(Debug, Clone)]
pub struct BatchView {
    bin_index: u64,
    start_ts: Timestamp,
    duration_us: u64,
    store: Arc<PacketStore>,
    /// Store indices retained by this view, ascending; `None` = all packets.
    keep: Option<Arc<Vec<u32>>>,
}

impl BatchView {
    /// Index of the time bin this view belongs to.
    pub fn bin_index(&self) -> u64 {
        self.bin_index
    }

    /// Timestamp of the start of the time bin, in microseconds.
    pub fn start_ts(&self) -> Timestamp {
        self.start_ts
    }

    /// Duration of the time bin in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.duration_us
    }

    /// End timestamp of the time bin (exclusive).
    pub fn end_ts(&self) -> Timestamp {
        self.start_ts + self.duration_us
    }

    /// Returns the measurement interval index this view belongs to.
    pub fn measurement_interval(&self, interval_us: u64) -> u64 {
        debug_assert!(interval_us > 0);
        self.start_ts / interval_us
    }

    /// Number of packets retained by the view.
    pub fn len(&self) -> usize {
        match &self.keep {
            Some(keep) => keep.len(),
            None => self.store.len(),
        }
    }

    /// Returns `true` if the view retains no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if the view retains every packet of its store.
    pub fn is_full(&self) -> bool {
        self.keep.is_none()
    }

    /// The shared packet store behind this view.
    pub fn store(&self) -> &Arc<PacketStore> {
        &self.store
    }

    /// Returns `true` if `other` shares this view's packet store (i.e. the
    /// two views were derived from the same batch without copying).
    pub fn shares_store(&self, other: &BatchView) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    /// Iterates over the retained packets in timestamp order.
    pub fn packets(&self) -> impl Iterator<Item = PacketRef<'_>> + '_ {
        self.indexed_packets().map(|(_, p)| p)
    }

    /// Iterates over `(store index, packet)` pairs for the retained packets.
    ///
    /// The store index addresses per-packet side arrays of the *full* batch —
    /// in particular [`FlowIndex::flow_of`] — which is what lets sampled
    /// consumers reuse data computed once for the whole batch.
    pub fn indexed_packets(&self) -> IndexedPackets<'_> {
        IndexedPackets {
            store: &self.store,
            keep: self.keep.as_ref().map(|k| k.as_slice()),
            position: 0,
        }
    }

    /// Summary statistics over the retained packets.
    ///
    /// A full view returns the store's stats; a sampled view accumulates its
    /// stats by streaming the keep-list over the columns.
    pub fn stats(&self) -> BatchStats {
        match &self.keep {
            Some(keep) => {
                let mut stats = BatchStats::default();
                for &index in keep.iter() {
                    let index = index as usize;
                    let payload_len = self.store.payload(index).map_or(0, |p| p.len() as u64);
                    stats.absorb(
                        self.store.tuples[index].proto,
                        self.store.tcp_flags[index],
                        self.store.ip_lens[index],
                        payload_len,
                    );
                }
                stats
            }
            None => self.store.stats(),
        }
    }

    /// Iterates over `(flow id, packet)` for the first retained packet of
    /// every distinct flow of the view, in view order: what a consumer whose
    /// per-packet step is idempotent per 5-tuple has to look at. A full view
    /// walks [`FlowIndex::first`] and never touches `seen`, the caller's
    /// scratch; a sampled view tests one bit of it per retained packet.
    pub fn first_of_flows<'a>(
        &'a self,
        seen: &'a mut FlowSet,
    ) -> impl Iterator<Item = (usize, PacketRef<'a>)> + 'a {
        let index = self.store.flow_index();
        // One of the two halves of the chain is empty.
        let (first, keep) = match &self.keep {
            None => (index.first(), &[][..]),
            Some(keep) => {
                seen.reset(index.flows());
                (&[][..], keep.as_slice())
            }
        };
        let unseen = move |&at: &u32| {
            let flow = index.flow_of()[at as usize] as usize;
            seen.insert(flow).then_some((flow, at))
        };
        (first.iter().copied().enumerate())
            .chain(keep.iter().filter_map(unseen))
            .map(|(flow, at)| (flow, self.store.get(at as usize)))
    }

    /// Derives a narrower view retaining the packets for which `keep` returns
    /// `true`. The closure receives the store index and the packet, in view
    /// order — no packet is copied.
    ///
    /// Allocates a fresh keep list; steady-state callers should prefer
    /// [`BatchView::filter_indexed_with`], which recycles lists through a
    /// [`KeepListPool`].
    pub fn filter_indexed<F: FnMut(usize, PacketRef<'_>) -> bool>(&self, mut keep: F) -> BatchView {
        let mut kept = Vec::with_capacity(self.len());
        for (index, packet) in self.indexed_packets() {
            if keep(index, packet) {
                kept.push(index as u32);
            }
        }
        self.with_keep_arc(Arc::new(kept))
    }

    /// Pooled variant of [`BatchView::filter_indexed`]: the keep list (buffer
    /// *and* `Arc` control block) is claimed from `pool` and returns to it
    /// once the derived view is dropped, so a warm steady state allocates
    /// nothing. `keep` is asked once per packet of the view, in view order.
    pub fn filter_indexed_with<F>(&self, pool: &mut KeepListPool, mut keep: F) -> BatchView
    where
        F: FnMut(usize, PacketRef<'_>) -> bool,
    {
        let slot = pool.claim();
        let list = Arc::make_mut(&mut pool.slots[slot]);
        self.compact_into(list, |at| keep(at, self.store.get(at)));
        self.with_keep_arc(Arc::clone(&pool.slots[slot]))
    }

    /// Derives a narrower view retaining the packets whose key is below
    /// `threshold`, pooled like [`BatchView::filter_indexed_with`]: `keys`
    /// holds one key per packet of the store, by store index. One compare
    /// per packet, in a loop of its own per kind of view: through
    /// `compact_into`, which tests for a keep list per packet, cutting a
    /// 1 691-packet full view took 2.1 µs against 1.7 here, and a sampled
    /// one 1.05 against 0.93 (best of 400, 2-vCPU x86-64 VM).
    ///
    /// # Panics
    ///
    /// Panics if `keys` holds no key for a packet of the view.
    pub fn filter_keys_below_with(
        &self,
        pool: &mut KeepListPool,
        keys: &[u64],
        threshold: u64,
    ) -> BatchView {
        let slot = pool.claim();
        let list = Arc::make_mut(&mut pool.slots[slot]);
        list.resize(self.len(), 0);
        let mut kept = 0;
        match &self.keep {
            None => {
                for (at, &key) in keys[..self.store.len()].iter().enumerate() {
                    list[kept] = at as u32;
                    kept += usize::from(key < threshold);
                }
            }
            Some(keep) => {
                for &at in keep.iter() {
                    list[kept] = at;
                    kept += usize::from(keys[at as usize] < threshold);
                }
            }
        }
        list.truncate(kept);
        self.with_keep_arc(Arc::clone(&pool.slots[slot]))
    }

    /// Derives a narrower view retaining the packets of the flows `keep`
    /// accepts, pooled like [`BatchView::filter_indexed_with`]. `keep` is
    /// asked once per distinct 5-tuple of the view, at the flow's first
    /// retained packet; the flow's other packets share the verdict.
    pub fn filter_flows_with<F>(&self, pool: &mut KeepListPool, mut keep: F) -> BatchView
    where
        F: FnMut(&FiveTuple) -> bool,
    {
        let index = self.store.flow_index();
        let slot = pool.claim();
        pool.fates.clear();
        pool.fates.resize(index.flows(), None);
        let (list, fates) = (Arc::make_mut(&mut pool.slots[slot]), &mut pool.fates);
        self.compact_into(list, |at| {
            let fate = &mut fates[index.flow_of()[at] as usize];
            *fate.get_or_insert_with(|| keep(&self.store.tuples[at]))
        });
        self.with_keep_arc(Arc::clone(&pool.slots[slot]))
    }

    /// Fills `list` with the store indices of the view's packets `verdict`
    /// accepts, asked once per packet in view order. Every index is written
    /// at the tail and the tail moves only for a kept one: no branch on a
    /// verdict that is a coin flip per packet. One loop for both kinds of
    /// view, so `verdict` has one call site and is inlined into it.
    fn compact_into(&self, list: &mut Vec<u32>, mut verdict: impl FnMut(usize) -> bool) {
        list.resize(self.len(), 0);
        let keep = self.keep.as_ref().map(|keep| keep.as_slice());
        let mut kept = 0;
        for position in 0..list.len() {
            let at = keep.map_or(position, |keep| keep[position] as usize);
            list[kept] = at as u32;
            kept += usize::from(verdict(at));
        }
        list.truncate(kept);
    }

    /// Splits the view into `lanes` views, one per lane, by the lane of each
    /// packet's flow (`lane_of_flow`, by flow id: [`PacketStore::flow_lanes`]),
    /// and hands each to `emit` in lane order. One pass over the view; the
    /// lane views keep its order, share its store and take their keep lists
    /// from `pool`, so nothing is copied and a warm pool allocates nothing.
    pub fn split_lanes_with(
        &self,
        pool: &mut KeepListPool,
        lane_of_flow: &[u32],
        lanes: usize,
        mut emit: impl FnMut(usize, BatchView),
    ) {
        let flow_of = self.store.flow_index().flow_of();
        // lint:allow(hot-path-alloc): grows the scratch to the lane count once; a zero-capacity Vec never touches the heap
        pool.lane_lists.resize_with(lanes, Vec::new);
        for (at, _) in self.indexed_packets() {
            pool.lane_lists[lane_of_flow[flow_of[at] as usize] as usize].push(at as u32);
        }
        for lane in 0..lanes {
            // The claimed slot's (cleared) buffer becomes the next scratch.
            let slot = pool.claim();
            std::mem::swap(Arc::make_mut(&mut pool.slots[slot]), &mut pool.lane_lists[lane]);
            emit(lane, self.with_keep_arc(Arc::clone(&pool.slots[slot])));
        }
    }

    /// A view over the same bin retaining no packets; its (empty) keep list
    /// is claimed from `pool` like [`BatchView::filter_indexed_with`]'s.
    pub fn cleared_with(&self, pool: &mut KeepListPool) -> BatchView {
        let slot = pool.claim();
        self.with_keep_arc(Arc::clone(&pool.slots[slot]))
    }

    fn with_keep_arc(&self, keep: Arc<Vec<u32>>) -> BatchView {
        BatchView {
            bin_index: self.bin_index,
            start_ts: self.start_ts,
            duration_us: self.duration_us,
            store: Arc::clone(&self.store),
            keep: Some(keep),
        }
    }

    /// Copies the retained packets into an owned [`Batch`].
    ///
    /// Only for interoperability (tests, recording sampled streams); the
    /// monitoring hot path never materialises views.
    pub fn materialize(&self) -> Batch {
        let mut builder = PacketStore::builder(self.len());
        for packet in self.packets() {
            builder.push(
                packet.ts(),
                *packet.tuple(),
                packet.ip_len(),
                packet.tcp_flags(),
                packet.payload(),
            );
        }
        Batch::from_store(self.bin_index, self.start_ts, self.duration_us, builder.finish())
    }
}

/// Iterator over `(store index, packet)` pairs of a [`BatchView`].
///
/// Only constructed by [`BatchView::indexed_packets`], which guarantees the
/// retained indices are in bounds for the shared store.
#[derive(Debug)]
pub struct IndexedPackets<'a> {
    store: &'a PacketStore,
    /// Retained store indices; `None` = the full store.
    keep: Option<&'a [u32]>,
    position: usize,
}

impl<'a> Iterator for IndexedPackets<'a> {
    type Item = (usize, PacketRef<'a>);

    fn next(&mut self) -> Option<(usize, PacketRef<'a>)> {
        let index = if let Some(keep) = self.keep {
            *keep.get(self.position)? as usize
        } else {
            if self.position >= self.store.len() {
                return None;
            }
            self.position
        };
        self.position += 1;
        Some((index, PacketRef { store: self.store, index }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match self.keep {
            Some(keep) => keep.len() - self.position,
            None => self.store.len() - self.position,
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for IndexedPackets<'_> {}

/// Summary statistics of a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of packets.
    pub packets: u64,
    /// Number of IP bytes.
    pub bytes: u64,
    /// Number of captured payload bytes.
    pub payload_bytes: u64,
    /// Number of pure SYN packets (SYN set, ACK clear).
    pub syn_packets: u64,
    /// Number of TCP packets.
    pub tcp_packets: u64,
    /// Number of UDP packets.
    pub udp_packets: u64,
}

impl BatchStats {
    /// Folds one packet's fields in — the single accumulation rule shared by
    /// the store's fold over its columns and sampled-view stats.
    #[inline]
    fn absorb(&mut self, proto: u8, tcp_flags: u8, ip_len: u32, payload_len: u64) {
        self.packets += 1;
        self.bytes += u64::from(ip_len);
        self.payload_bytes += payload_len;
        // Counted, not branched on: the protocol mix is data, so a branch per
        // counter would mispredict on every mixed batch.
        let tcp = proto == 6;
        self.syn_packets += u64::from(tcp && tcp_flags & (TCP_SYN | TCP_ACK) == TCP_SYN);
        self.tcp_packets += u64::from(tcp);
        self.udp_packets += u64::from(proto == 17);
    }
}

/// Error returned by [`BatchBuilder::push_into`] when a packet's timestamp
/// jumps so far ahead of the current bin that closing the gap would emit an
/// unbounded run of empty batches (corrupt timestamps, not a quiet link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimestampJumpError {
    /// The bin the builder was filling when the jump was detected.
    pub current_bin: u64,
    /// The bin the offending packet's timestamp falls into.
    pub packet_bin: u64,
}

impl std::fmt::Display for TimestampJumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packet timestamp jumps from bin {} to bin {} (more than {} empty bins)",
            self.current_bin, self.packet_bin, MAX_GAP_BINS
        )
    }
}

impl std::error::Error for TimestampJumpError {}

/// Maximum number of empty bins a single push may emit to bridge a timestamp
/// gap. At the paper's 100 ms bins this is about seven minutes of silence —
/// any larger jump is treated as corrupt input rather than a quiet link.
pub const MAX_GAP_BINS: u64 = 4096;

/// Accumulates packets into consecutive fixed-duration batches.
///
/// The builder assumes packets are pushed in non-decreasing timestamp order
/// (as delivered by a capture device). The first packet anchors the builder
/// to its time bin, so absolute timestamps (e.g. epoch microseconds) work
/// without emitting empty batches for the eons before the capture started.
/// Whenever a later packet belongs to a later time bin than the one
/// currently being filled, the current batch is closed and returned; empty
/// bins are emitted as empty batches so downstream consumers see a batch per
/// time bin — up to a gap of [`MAX_GAP_BINS`] bins. A larger jump breaks the
/// contiguous-bin guarantee instead of flooding the consumer with empties:
/// [`BatchBuilder::push_into`] reports it as a [`TimestampJumpError`], while
/// the convenience [`BatchBuilder::push`] re-anchors as if the capture had
/// restarted.
///
/// The pending-packet buffer is *drained*, never replaced, when a batch
/// closes, so its capacity is reused across bins: in the steady state
/// [`BatchBuilder::push_into`] allocates only the closed batch's
/// exactly-sized columns.
#[derive(Debug)]
pub struct BatchBuilder {
    duration_us: u64,
    current_bin: u64,
    /// `false` until the first packet anchors `current_bin`.
    anchored: bool,
    pending: Vec<Packet>,
}

impl BatchBuilder {
    /// Creates a builder producing batches of the given time-bin duration.
    pub fn new(duration_us: u64) -> Self {
        assert!(duration_us > 0, "time bin duration must be positive");
        // lint:allow(hot-path-alloc): once-per-source builder construction
        Self { duration_us, current_bin: 0, anchored: false, pending: Vec::new() }
    }

    /// Pushes a packet, appending any batches completed by this push to
    /// `closed`; returns how many batches were appended.
    ///
    /// A single push can complete several batches if the packet timestamp
    /// jumps over one or more empty bins. The caller owns (and can reuse)
    /// the output buffer, so the common case — the packet lands in the bin
    /// currently being filled — performs no allocation at all.
    ///
    /// # Errors
    ///
    /// If the packet's timestamp lies more than [`MAX_GAP_BINS`] bins ahead
    /// of the bin being filled, the push is rejected with
    /// [`TimestampJumpError`]: the packet is *not* consumed and the builder
    /// state is unchanged, so the caller can decide whether to drop the
    /// packet or reset the builder. The first packet ever pushed cannot
    /// trigger this — it anchors the builder to its own bin instead.
    pub fn push_into(
        &mut self,
        packet: Packet,
        closed: &mut Vec<Batch>,
    ) -> Result<usize, TimestampJumpError> {
        let bin = packet.ts / self.duration_us;
        if !self.anchored {
            self.current_bin = bin;
            self.anchored = true;
        }
        if bin > self.current_bin && bin - self.current_bin > MAX_GAP_BINS {
            return Err(TimestampJumpError { current_bin: self.current_bin, packet_bin: bin });
        }
        let mut count = 0;
        while bin > self.current_bin {
            closed.push(self.close_current());
            count += 1;
        }
        self.pending.push(packet);
        Ok(count)
    }

    /// Pushes a packet; returns all batches that were completed by this push.
    ///
    /// Convenience wrapper over [`BatchBuilder::push_into`] that allocates a
    /// fresh output vector only when batches actually close. A timestamp
    /// jump larger than [`MAX_GAP_BINS`] bins is treated as a capture
    /// restart: the bin being filled is closed and the builder re-anchors at
    /// the packet's bin, instead of emitting thousands of empty batches or
    /// failing. Use [`BatchBuilder::push_into`] to detect such jumps
    /// explicitly.
    pub fn push(&mut self, packet: Packet) -> Vec<Batch> {
        // lint:allow(hot-path-alloc): allocating convenience wrapper; `push_into` is the hot path
        let mut closed = Vec::new();
        let bin = packet.ts / self.duration_us;
        if self.anchored && bin > self.current_bin && bin - self.current_bin > MAX_GAP_BINS {
            closed.push(self.close_current());
            self.current_bin = bin;
            self.pending.push(packet);
        } else {
            // lint:allow(no-unwrap): the else-branch condition just established the packet lands in the current bin range
            self.push_into(packet, &mut closed).expect("in-range push cannot fail");
        }
        closed
    }

    /// Closes the batch currently being filled and advances to the next bin.
    ///
    /// Drains (rather than takes) the pending buffer so its capacity is
    /// recycled for the next bin.
    pub fn close_current(&mut self) -> Batch {
        let mut store = PacketStore::builder(self.pending.len());
        for packet in self.pending.drain(..) {
            store.push_packet(packet);
        }
        let batch = Batch::from_store(
            self.current_bin,
            self.current_bin * self.duration_us,
            self.duration_us,
            store.finish(),
        );
        self.current_bin += 1;
        batch
    }

    /// Flushes the final (possibly partial) batch.
    pub fn finish(mut self) -> Batch {
        self.close_current()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FiveTuple;

    fn pkt(ts: Timestamp) -> Packet {
        Packet::header_only(ts, FiveTuple::new(1, 2, 3, 4, 6), 100, 0)
    }

    #[test]
    fn shard_key_is_symmetric_and_port_independent() {
        let forward = shard_key(&FiveTuple::new(10, 20, 1111, 80, 6));
        let reverse = shard_key(&FiveTuple::new(20, 10, 80, 1111, 6));
        let other_flow = shard_key(&FiveTuple::new(10, 20, 2222, 443, 17));
        assert_eq!(forward, reverse, "both directions of a conversation share a key");
        assert_eq!(forward, other_flow, "all flows of a host pair share a key");
        assert_ne!(forward, shard_key(&FiveTuple::new(10, 21, 1111, 80, 6)));
    }

    #[test]
    fn split_shards_partitions_by_key_and_keeps_bin_geometry() {
        let packets: Vec<Packet> = (0..64)
            .map(|i| {
                Packet::header_only(1000 + i as u64, FiveTuple::new(i, 1000 + i, 10, 20, 6), 100, 0)
            })
            .collect();
        let batch = Batch::new(7, 1000, 100_000, packets);
        let lanes = batch.split_shards(4);
        assert_eq!(lanes.len(), 4);
        let total: usize = lanes.iter().map(Batch::len).sum();
        assert_eq!(total, batch.len(), "the split is a partition");
        let mut last_ts = [0_u64; 4];
        for (lane, sub) in lanes.iter().enumerate() {
            assert_eq!(sub.bin_index, 7);
            assert_eq!(sub.start_ts, 1000);
            assert_eq!(sub.duration_us, 100_000);
            for packet in sub.packets.iter() {
                assert_eq!(
                    (shard_key(packet.tuple()) % 4) as usize,
                    lane,
                    "every packet lands on the lane of its key"
                );
                assert!(packet.ts() >= last_ts[lane], "the split is order-preserving");
                last_ts[lane] = packet.ts();
            }
        }
    }

    #[test]
    fn split_shards_emits_empty_batches_for_idle_lanes() {
        // One flow: every packet shares one shard key, so exactly one lane is
        // populated and the others still exist (same bin clock, no packets).
        let batch = Batch::new(3, 0, 100_000, vec![pkt(1), pkt(2), pkt(3)]);
        let lanes = batch.split_shards(8);
        assert_eq!(lanes.len(), 8);
        assert_eq!(lanes.iter().filter(|b| !b.is_empty()).count(), 1);
        for sub in &lanes {
            assert_eq!(sub.bin_index, 3);
        }
    }

    #[test]
    fn lane_views_are_the_split_without_the_copy() {
        // Sixteen host pairs, five packets each, interleaved.
        let packets: Vec<Packet> = (0..80u32)
            .map(|i| {
                let tuple = FiveTuple::new(i % 16, 1000 + i % 16, 10, 20, 6);
                Packet::header_only(1000 + u64::from(i), tuple, 100, 0)
            })
            .collect();
        let batch = Batch::new(7, 1000, 100_000, packets);
        let (mut pool, mut lane_of_flow) = (KeepListPool::new(), Vec::new());
        for lanes in [1usize, 3, 4] {
            batch.packets.flow_lanes(lanes, &mut lane_of_flow);
            assert_eq!(lane_of_flow.len(), 16, "one verdict per flow, not per packet");
            // A full view and a sampled one: each lane view holds exactly the
            // lane's packets of the view, in view order, over the one store.
            let sampled = batch.view().filter_indexed(|at, _| at % 3 != 0);
            for view in [batch.view(), sampled] {
                let mut views = Vec::new();
                view.split_lanes_with(&mut pool, &lane_of_flow, lanes, |lane, lane_view| {
                    assert_eq!(lane, views.len(), "emitted in lane order");
                    views.push(lane_view);
                });
                assert_eq!(views.len(), lanes);
                for (lane, lane_view) in views.iter().enumerate() {
                    assert!(lane_view.shares_store(&view), "no packet is copied");
                    let expected: Vec<usize> = view
                        .indexed_packets()
                        .filter(|(_, p)| (shard_key(p.tuple()) % lanes as u64) as usize == lane)
                        .map(|(at, _)| at)
                        .collect();
                    let got: Vec<usize> = lane_view.indexed_packets().map(|(at, _)| at).collect();
                    assert_eq!(got, expected, "lane {lane} of {lanes}");
                }
            }
        }
        // The views of each round were dropped before the next claimed its
        // slots: the pool holds the widest round and no more.
        assert_eq!(pool.slots(), 4);
    }

    #[test]
    fn builder_groups_packets_by_bin() {
        let mut b = BatchBuilder::new(100);
        assert!(b.push(pkt(10)).is_empty());
        assert!(b.push(pkt(50)).is_empty());
        let closed = b.push(pkt(150));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].len(), 2);
        assert_eq!(closed[0].bin_index, 0);
        let last = b.finish();
        assert_eq!(last.bin_index, 1);
        assert_eq!(last.len(), 1);
    }

    #[test]
    fn builder_emits_empty_bins_for_gaps() {
        let mut b = BatchBuilder::new(100);
        b.push(pkt(10));
        let closed = b.push(pkt(350));
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].len(), 1);
        assert!(closed[1].is_empty());
        assert!(closed[2].is_empty());
        assert_eq!(closed[2].bin_index, 2);
    }

    #[test]
    fn push_into_reuses_the_caller_buffer() {
        let mut b = BatchBuilder::new(100);
        let mut closed = Vec::new();
        assert_eq!(b.push_into(pkt(10), &mut closed), Ok(0));
        assert_eq!(b.push_into(pkt(250), &mut closed), Ok(2));
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].len(), 1);
        assert!(closed[1].is_empty());
    }

    #[test]
    fn first_packet_anchors_the_builder_to_absolute_timestamps() {
        // Epoch-microsecond timestamps: the first packet must not be treated
        // as a pathological jump, and no leading empty batches are emitted.
        let epoch_us = 1_700_000_000_000_000u64;
        let mut b = BatchBuilder::new(100_000);
        let mut closed = Vec::new();
        assert_eq!(b.push_into(pkt(epoch_us), &mut closed), Ok(0));
        assert_eq!(b.push_into(pkt(epoch_us + 150_000), &mut closed), Ok(1));
        assert_eq!(closed[0].bin_index, epoch_us / 100_000);
        assert_eq!(closed[0].len(), 1);
        let last = b.finish();
        assert_eq!(last.bin_index, epoch_us / 100_000 + 1);
    }

    #[test]
    fn push_reanchors_across_a_pathological_gap_instead_of_failing() {
        // A quiet link (or clock jump) beyond the gap cap: the convenience
        // `push` closes the bin being filled and re-anchors — no panic, no
        // flood of empty batches.
        let mut b = BatchBuilder::new(100);
        b.push(pkt(10));
        let jump_ts = (MAX_GAP_BINS + 50) * 100;
        let closed = b.push(pkt(jump_ts));
        assert_eq!(closed.len(), 1, "only the pre-gap bin is closed");
        assert_eq!(closed[0].bin_index, 0);
        assert_eq!(closed[0].len(), 1);
        let last = b.finish();
        assert_eq!(last.bin_index, jump_ts / 100);
        assert_eq!(last.len(), 1);
    }

    #[test]
    fn pathological_timestamp_jump_is_rejected_without_state_change() {
        let mut b = BatchBuilder::new(100);
        let mut closed = Vec::new();
        b.push_into(pkt(10), &mut closed).expect("in-bin push");
        let jump = pkt((MAX_GAP_BINS + 2) * 100);
        let err = b.push_into(jump.clone(), &mut closed).expect_err("jump must be rejected");
        assert_eq!(err, TimestampJumpError { current_bin: 0, packet_bin: MAX_GAP_BINS + 2 });
        assert!(closed.is_empty(), "no batches may be emitted for a rejected push");
        // The builder is still on bin 0 and accepts in-range packets.
        assert_eq!(b.push_into(pkt(50), &mut closed), Ok(0));
        let last = b.finish();
        assert_eq!(last.bin_index, 0);
        assert_eq!(last.len(), 2);
    }

    #[test]
    fn stats_and_load() {
        let packets = vec![pkt(0), pkt(10), pkt(20)];
        let batch = Batch::new(0, 0, 100_000, packets);
        let stats = batch.stats();
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.bytes, 300);
        assert_eq!(stats.tcp_packets, 3);
        // 300 bytes over 100 ms = 2400 bits / 0.1 s = 24 kbit/s = 0.024 Mbps.
        assert!((batch.load_mbps() - 0.024).abs() < 1e-9);
    }

    #[test]
    fn measurement_interval_indexing() {
        let batch = Batch::empty(13, 1_300_000, 100_000);
        assert_eq!(batch.measurement_interval(1_000_000), 1);
    }

    #[test]
    fn columns_mirror_the_source_packets() {
        let tuple = FiveTuple::new(10, 20, 30, 40, 17);
        let packets = vec![
            Packet::header_only(5, tuple, 60, 0),
            Packet::with_payload(
                9,
                FiveTuple::new(1, 2, 3, 4, 6),
                80,
                TCP_SYN,
                Bytes::from_static(b"abc"),
            ),
        ];
        let batch = Batch::new(0, 0, 100_000, packets.clone());
        let store = batch.packets.as_ref();
        assert_eq!(store.timestamps(), &[5, 9]);
        assert_eq!(store.tuples()[0], tuple);
        assert_eq!(store.ip_lens(), &[60, 80]);
        assert_eq!(store.tcp_flag_bytes(), &[0, TCP_SYN]);
        assert_eq!(store.payload(0), None);
        assert_eq!(store.payload(1), Some(&b"abc"[..]));
        assert!(store.has_payloads());
        let p1 = store.get(1);
        assert!(p1.is_syn());
        assert_eq!(p1.payload_len(), 3);
        assert_eq!(p1.to_packet(), packets[1]);
        assert_eq!(store.to_packets(), packets);
    }

    #[test]
    fn header_only_stores_keep_no_payload_column() {
        let batch = Batch::new(0, 0, 100_000, vec![pkt(0), pkt(1)]);
        assert!(!batch.packets.has_payloads());
        assert_eq!(batch.packets.payload(0), None);
        assert_eq!(batch.total_payload_bytes(), 0);
    }

    #[test]
    fn store_equality_is_by_contents() {
        let a = PacketStore::from_packets(vec![pkt(0), pkt(10)]);
        let b = PacketStore::from_packets(vec![pkt(0), pkt(10)]);
        let c = PacketStore::from_packets(vec![pkt(0), pkt(11)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Building a's flow index must not affect equality.
        let _ = a.flow_index();
        assert_eq!(a, b);
    }

    #[test]
    fn views_share_the_store_and_never_copy() {
        let batch = Batch::new(3, 300_000, 100_000, vec![pkt(0), pkt(10), pkt(20), pkt(30)]);
        let full = batch.view();
        assert!(full.is_full());
        assert_eq!(full.len(), 4);
        assert_eq!(full.bin_index(), 3);

        let odd = full.filter_indexed(|index, _| index % 2 == 1);
        assert!(odd.shares_store(&full));
        assert!(Arc::ptr_eq(odd.store(), &batch.packets));
        assert_eq!(odd.len(), 2);
        let timestamps: Vec<u64> = odd.packets().map(|p| p.ts()).collect();
        assert_eq!(timestamps, vec![10, 30]);
    }

    #[test]
    fn view_of_view_composes_store_indices() {
        let batch = Batch::new(0, 0, 100_000, (0..10).map(|i| pkt(i * 10)).collect());
        let evens = batch.view().filter_indexed(|index, _| index % 2 == 0);
        // Filter the *view*: keep its 2nd and 4th packets (store indices 2, 6).
        let mut seen = Vec::new();
        let narrowed = evens.filter_indexed(|index, _| {
            seen.push(index);
            index == 2 || index == 6
        });
        assert_eq!(seen, vec![0, 2, 4, 6, 8], "closure sees store indices in view order");
        let kept: Vec<usize> = narrowed.indexed_packets().map(|(index, _)| index).collect();
        assert_eq!(kept, vec![2, 6]);
    }

    #[test]
    fn view_stats_cover_only_retained_packets() {
        let batch = Batch::new(0, 0, 100_000, vec![pkt(0), pkt(10), pkt(20)]);
        let view = batch.view().filter_indexed(|_, p| p.ts() >= 10);
        assert_eq!(view.stats().bytes, 200);
        assert_eq!(view.stats().packets, 2);
        assert_eq!(batch.view().stats().bytes, 300);
        assert!(view.cleared_with(&mut KeepListPool::new()).is_empty());
    }

    #[test]
    fn materialize_round_trips_the_retained_packets() {
        let batch = Batch::new(5, 500_000, 100_000, vec![pkt(0), pkt(10), pkt(20)]);
        let owned = batch.view().filter_indexed(|_, p| p.ts() != 10).materialize();
        assert_eq!(owned.bin_index, 5);
        assert_eq!(owned.len(), 2);
        assert_eq!(owned.packets.timestamps(), &[0, 20]);
    }

    #[test]
    fn store_caches_are_shared_between_batch_and_views() {
        let batch = Batch::new(0, 0, 100_000, vec![pkt(0), pkt(10)]);
        let index = batch.packets.flow_index();
        let sampled = batch.view().filter_indexed(|_, _| true);
        assert!(std::ptr::eq(index, sampled.store().flow_index()), "the index is built once");
        assert_eq!((index.flow_of(), index.first()), (&[0, 0][..], &[0][..]));
        let key = hash_bytes(&batch.packets.tuples()[1].as_key(), FLOW_KEY_SEED);
        assert_eq!(sampled.store().flow_key_hash(0), key, "the memo is the flows key");
        assert_eq!(batch.packets.flow_key_hash(0), key, "and shared with the batch");
        let totals = sampled.store().flow_totals();
        assert_eq!(totals, [FlowTotals { packets: 2, bytes: 200 }], "the memo is the flow's sums");
        assert!(std::ptr::eq(totals, batch.packets.flow_totals()), "summed once");
    }

    #[test]
    fn first_of_flows_yields_each_flow_of_the_view_once_in_view_order() {
        let flow = |f: u32| FiveTuple::new(f, 2, 3, 4, 6);
        let packets = [0u32, 1, 0, 2, 1, 3, 2]
            .iter()
            .enumerate()
            .map(|(ts, &f)| Packet::header_only(ts as u64, flow(f), 100, 0))
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets);
        let mut seen = FlowSet::default();
        let firsts = |view: &BatchView, seen: &mut FlowSet| -> Vec<(usize, u64)> {
            view.first_of_flows(seen).map(|(flow, packet)| (flow, packet.ts())).collect()
        };
        assert_eq!(firsts(&batch.view(), &mut seen), [(0, 0), (1, 1), (2, 3), (3, 5)]);
        // Flow 0's first packet is sampled out, flow 3 entirely: the view's
        // first packet of each remaining flow, in view order.
        let sampled = batch.view().filter_indexed(|index, _| ![0, 5].contains(&index));
        assert_eq!(firsts(&sampled, &mut seen), [(1, 1), (0, 2), (2, 3)]);
        let narrowed = sampled.filter_indexed(|index, _| index >= 4);
        assert_eq!(firsts(&narrowed, &mut seen), [(1, 4), (2, 6)]);
        assert!(firsts(&batch.view().cleared_with(&mut KeepListPool::new()), &mut seen).is_empty());
    }

    #[test]
    fn flow_filter_asks_once_per_flow_of_the_view_and_keeps_whole_flows() {
        let flow = |f: u32| FiveTuple::new(f, 2, 3, 4, 6);
        let packets = [0u32, 1, 0, 2, 1, 3, 2, 0]
            .iter()
            .enumerate()
            .map(|(ts, &f)| Packet::header_only(ts as u64, flow(f), 100, 0))
            .collect();
        let batch = Batch::new(0, 0, 100_000, packets);
        let mut pool = KeepListPool::new();
        let mut asked = Vec::new();
        let odd = batch.view().filter_flows_with(&mut pool, |tuple| {
            asked.push(tuple.src_ip);
            tuple.src_ip % 2 == 1
        });
        assert_eq!(asked, [0, 1, 2, 3], "one question per flow, in first-seen order");
        assert_eq!(odd.indexed_packets().map(|(at, _)| at).collect::<Vec<_>>(), [1, 4, 5]);
        // On a view of a view only the flows still present are asked about.
        asked.clear();
        let late = batch.view().filter_indexed(|index, _| index >= 5);
        let kept = late.filter_flows_with(&mut pool, |tuple| {
            asked.push(tuple.src_ip);
            tuple.src_ip != 2
        });
        assert_eq!(asked, [3, 2, 0]);
        assert_eq!(kept.indexed_packets().map(|(at, _)| at).collect::<Vec<_>>(), [5, 7]);
    }

    #[test]
    fn keep_list_pool_recycles_slots_across_bins() {
        let batch = Batch::new(0, 0, 100_000, (0..100).map(pkt).collect());
        let mut pool = KeepListPool::new();
        for round in 0..50 {
            let view = batch.view().filter_indexed_with(&mut pool, |index, _| index % 3 == 0);
            assert_eq!(view.len(), 34, "round {round}");
            let empty = view.cleared_with(&mut pool);
            assert!(empty.is_empty());
            // Both views drop here, releasing their slots.
        }
        assert!(
            pool.slots() <= 2,
            "a steady two-view cycle must not grow the pool: {}",
            pool.slots()
        );
    }

    #[test]
    fn pooled_filtering_matches_the_allocating_path() {
        let batch = Batch::new(0, 0, 100_000, (0..40).map(pkt).collect());
        let mut pool = KeepListPool::new();
        let plain = batch.view().filter_indexed(|index, _| index % 7 != 0);
        let pooled = batch.view().filter_indexed_with(&mut pool, |index, _| index % 7 != 0);
        assert!(plain
            .indexed_packets()
            .map(|(at, _)| at)
            .eq(pooled.indexed_packets().map(|(at, _)| at)));
        assert_eq!(plain.stats(), pooled.stats());
    }

    #[test]
    fn pool_grows_only_while_views_are_live() {
        let batch = Batch::new(0, 0, 100_000, (0..10).map(pkt).collect());
        let mut pool = KeepListPool::new();
        let a = batch.view().filter_indexed_with(&mut pool, |_, _| true);
        let b = batch.view().filter_indexed_with(&mut pool, |_, _| true);
        assert_eq!(pool.slots(), 2, "live views hold their slots");
        drop(a);
        drop(b);
        let c = batch.view().filter_indexed_with(&mut pool, |_, _| true);
        assert_eq!(pool.slots(), 2, "released slots are reclaimed before growing");
        drop(c);
    }

    #[test]
    fn store_builder_matches_packet_at_a_time_construction() {
        let packets: Vec<Packet> = (0..50)
            .map(|i| {
                let tuple =
                    FiveTuple::new(i, i * 2, (i % 7) as u16, 80, if i % 3 == 0 { 17 } else { 6 });
                if i % 5 == 0 {
                    Packet::with_payload(
                        u64::from(i),
                        tuple,
                        100 + i,
                        TCP_SYN,
                        Bytes::from(vec![i as u8; 3]),
                    )
                } else {
                    Packet::header_only(u64::from(i), tuple, 100 + i, 0)
                }
            })
            .collect();
        let via_vec = PacketStore::from_packets(packets.clone());
        let mut builder = PacketStore::builder(packets.len());
        for p in &packets {
            builder.push(p.ts, p.tuple, p.ip_len, p.tcp_flags, p.payload.as_deref());
        }
        let via_builder = builder.finish();
        assert_eq!(via_vec, via_builder);
        assert_eq!(via_vec.stats(), via_builder.stats());
    }
}
