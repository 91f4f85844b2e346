//! netshed-service: the service plane.
//!
//! Everything below `netshed-monitor` answers "what does one run compute?".
//! This crate answers "how does that computation live as a *service*?" — a
//! [`Daemon`] owns a [`Monitor`](netshed_monitor::Monitor), ingests from a
//! [`PacketSource`](netshed_trace::PacketSource) indefinitely, and is
//! administered by multiple tenants through a clonable [`ControlChannel`]:
//!
//! * **Live registry** — queries register and deregister mid-run through
//!   [`ControlChannel::register_query`] /
//!   [`ControlChannel::deregister_query`]; the control policy itself can be
//!   swapped hot ([`ControlChannel::swap_policy`]). Commands apply only at
//!   bin boundaries, in arrival order, which keeps administered runs exactly
//!   replayable.
//! * **Checkpoint/restore** — [`Daemon::checkpoint`] serialises the
//!   essential state into the versioned, checksummed [`.nsck`
//!   format](Snapshot); [`Daemon::restore`] resumes the run in a fresh
//!   process with bit-identical remaining digests, at any worker count.
//!
//! The determinism contract, the `.nsck` layout and the essential-state
//! inventory are documented in DESIGN.md, section "Service plane".

#![forbid(unsafe_code)]

pub mod daemon;
pub mod engine;
pub mod snapshot;

pub use daemon::{
    ControlChannel, Daemon, Pending, ServiceError, TickStatus, DEFAULT_BINS_PER_TICK,
};
pub use engine::MonitorEngine;
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
