//! The engine abstraction: what a [`Daemon`](crate::Daemon) needs from the
//! computation it hosts.
//!
//! The behaviour the daemon drives — `ingest` per non-empty bin,
//! registration, policy swaps, the final flush — is `netshed-monitor`'s
//! [`Engine`] contract; [`MonitorEngine`] adds the one thing only a
//! restorable service needs: rebuilding from a configuration (which carries
//! the policy and predictor constructors, so every policy a configuration
//! can describe restores).
//!
//! There is one engine — a [`Monitor`], with one lane solo and `shard_lanes`
//! behind a [`ShardedMonitor`] — so the daemon checkpoints every engine the
//! same way: its `monitor` section holds [`Monitor::save_state`], the lane
//! count and then each query with all of its lane instances. A one-lane
//! fleet's checkpoint is therefore the solo monitor's, byte for byte.
//! Restoring at another *lane* count is a
//! [`StateError::Mismatch`](netshed_sketch::StateError::Mismatch) naming
//! both.

use netshed_monitor::{Engine, Monitor, MonitorConfig, NetshedError, ShardedMonitor};
use std::borrow::BorrowMut;

/// A computation the service plane can host: an [`Engine`] that can be
/// rebuilt from its configuration, and whose state is a [`Monitor`]'s.
pub trait MonitorEngine: Engine + BorrowMut<Monitor> {
    /// Rebuilds a fresh engine from the run's configuration (the restore
    /// path; the daemon loads the state into it).
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError>
    where
        Self: Sized;
}

impl MonitorEngine for Monitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        config.validate()?;
        Ok(Monitor::new(config))
    }
}

impl MonitorEngine for ShardedMonitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        ShardedMonitor::new(config)
    }
}
