//! The engine abstraction: what a [`Daemon`](crate::Daemon) needs from the
//! computation it hosts.
//!
//! The behaviour the daemon drives — `ingest` per non-empty bin,
//! registration, policy swaps, the final flush — is `netshed-monitor`'s
//! [`Engine`] contract; [`MonitorEngine`] is that contract plus the three
//! things only a restorable service needs: rebuilding from a configuration
//! (which carries the policy and predictor constructors, so every policy a
//! configuration can describe restores) and (de)serialising into a `.nsck`
//! section.
//!
//! There is one engine — a [`Monitor`], with one lane solo and `shard_lanes`
//! behind a [`ShardedMonitor`] — so there is one section schema, written and
//! read here once: the `monitor` section holds [`Monitor::save_state`] (the
//! whole control loop, and of every query its lane-0 instance), and an
//! engine with more lanes adds a `lanes` section holding
//! [`Monitor::save_lane_state`] (the lane count and the other lanes' query
//! state). A one-lane fleet's checkpoint is therefore the solo monitor's,
//! byte for byte. The sections capture essential state only, so a restored
//! engine continues bit-identically at any worker or shard-thread count;
//! restoring at another *lane* count is a [`StateError::Mismatch`] naming
//! both.

use netshed_monitor::{Engine, Monitor, MonitorConfig, NetshedError, ShardedMonitor};
use netshed_sketch::{StateError, StateReader, StateWriter};
use std::borrow::BorrowMut;

use crate::daemon::ServiceError;
use crate::snapshot::Snapshot;

/// Checkpoint section holding the engine's control loop and every query's
/// lane-0 instance.
const SECTION_MONITOR: &str = "monitor";
/// Checkpoint section holding the lane count and the query instances of
/// lanes 1 and up; absent from a one-lane engine's checkpoint.
const SECTION_LANES: &str = "lanes";

/// A computation the service plane can host: an [`Engine`] that can be
/// rebuilt from its configuration and serialised into a `.nsck` section.
pub trait MonitorEngine: Engine + BorrowMut<Monitor> {
    /// Rebuilds a fresh engine from the run's configuration (the restore
    /// path; state is loaded separately through
    /// [`load_sections`](MonitorEngine::load_sections)).
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError>
    where
        Self: Sized;

    /// Appends the engine's state sections to a checkpoint under way.
    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        let monitor: &Monitor = self.borrow();
        let mut section = StateWriter::new();
        monitor.save_state(&mut section)?;
        snapshot.push(SECTION_MONITOR, section.into_bytes())?;
        if monitor.lane_count() > 1 {
            let mut section = StateWriter::new();
            monitor.save_lane_state(&mut section)?;
            snapshot.push(SECTION_LANES, section.into_bytes())?;
        }
        Ok(())
    }

    /// Restores the engine's state from its checkpoint sections. The engine
    /// was built from a configuration whose policy is the snapshot's, so
    /// shadow reconstruction follows the right policy.
    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        let monitor: &mut Monitor = self.borrow_mut();
        let mut section = StateReader::new(snapshot.section(SECTION_MONITOR)?);
        monitor.load_state(&mut section)?;
        section.finish()?;
        match snapshot.section(SECTION_LANES) {
            Ok(lanes) => {
                let mut section = StateReader::new(lanes);
                monitor.load_lane_state(&mut section)?;
                section.finish()?;
            }
            // No lane section: a one-lane engine wrote the checkpoint.
            Err(_) if monitor.lane_count() == 1 => {}
            Err(_) => return Err(StateError::mismatch("lanes", 1, monitor.lane_count()).into()),
        }
        Ok(())
    }
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
