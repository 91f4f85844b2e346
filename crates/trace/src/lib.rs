//! Packet, flow and batch model plus synthetic workload generation.
//!
//! The load shedding paper evaluates its system against real packet traces
//! collected at the CESCA and UPC networks plus two NLANR traces (ABILENE,
//! CENIC) and against live traffic. Those traces are not redistributable, so
//! this crate provides a *synthetic substitute*: a flow-level workload
//! generator whose output exercises the same code paths —
//!
//! * bursty, heavy-tailed traffic (Pareto flow sizes, log-normal rate
//!   modulation per time bin),
//! * Zipf-distributed address and port popularity so that per-aggregate
//!   feature counters (unique/new/repeated items) behave like real traffic,
//! * an application mix (web, DNS, P2P, bulk transfer) with optional payloads
//!   so that signature-matching queries have something to match,
//! * injectable anomalies, one [`AnomalyKind`] vocabulary for the generator
//!   and for scenarios: the attacks of Section 3.4.3 of the paper (DDoS
//!   floods with spoofed sources, SYN floods, worm outbreaks, byte bursts),
//!   port scans and flash crowds, and three that game the cost predictor
//!   (Boyer–Moore worst-case payloads, flow churn, aggregate-key skew).
//!
//! The fundamental unit consumed by the monitoring system is the [`Batch`]:
//! all packets that arrived during one *time bin* (100 ms in the paper).
//!
//! # Example
//!
//! ```
//! use netshed_trace::{TraceConfig, TraceGenerator};
//!
//! let config = TraceConfig::default().with_seed(7).with_mean_packets_per_batch(500.0);
//! let mut generator = TraceGenerator::new(config);
//! let batch = generator.next_batch();
//! assert!(!batch.packets.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod anomaly;
pub mod batch;
pub mod dist;
pub mod flows;
pub mod format;
pub mod generator;
pub mod packet;
pub mod profiles;
pub mod scenario;
pub mod source;

pub use aggregate::{
    Aggregate, AggregateHashes, AggregateSlots, AGGREGATE_COUNT, AGGREGATE_HASH_SEED,
    AGGREGATE_MAX_CARDINALITY,
};
pub use anomaly::{Anomaly, AnomalyKind};
pub use batch::{
    shard_key, Batch, BatchStats, BatchView, IndexedPackets, KeepListPool, PacketRef, PacketStore,
    StoreBuilder, FLOW_KEY_SEED,
};
pub use flows::{FlowIndex, FlowSet, FlowTotals};
pub use format::{
    decode_batches_shared, encode_batches, FormatError, Frame, FrameWalk, SharedTraceReader,
    TraceWriter, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};
pub use generator::{AppProtocol, TraceConfig, TraceGenerator};
pub use packet::{FiveTuple, Packet, Timestamp, TCP_ACK, TCP_FIN, TCP_SYN};
pub use profiles::TraceProfile;
pub use scenario::{
    AnomalyEvent, Link, Phase, Scenario, ScenarioError, ScenarioSource, TrafficSpec,
};
pub use source::{BatchReplay, Interleave, PacketSource, PacketSourceExt, Take};

// `decode_batches_shared` and `Packet::payload` speak `Bytes`; re-export it
// so consumers of the zero-copy replay path don't need their own dependency.
pub use bytes::Bytes;

/// Duration of a time bin in microseconds (100 ms, as in the paper).
pub const DEFAULT_TIME_BIN_US: u64 = 100_000;

/// Duration of a measurement interval in microseconds (1 s, as in the paper).
pub const DEFAULT_MEASUREMENT_INTERVAL_US: u64 = 1_000_000;
