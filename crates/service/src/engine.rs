//! The engine abstraction: what a [`Daemon`](crate::Daemon) needs from the
//! computation it hosts.
//!
//! The service loop — command windows at bin boundaries, digest maintenance,
//! `.nsck` checkpoint/restore — is the same whether one [`Monitor`] or a
//! [`ShardedMonitor`] fleet does the computing. The behaviour the daemon
//! drives — `ingest` per non-empty bin, registration, policy swaps, the
//! final flush — is `netshed-monitor`'s [`Engine`] contract, spelled once
//! for every host; [`MonitorEngine`] is that contract plus the three things
//! only a restorable service needs: rebuilding from a configuration (which
//! carries the policy and predictor constructors, so every policy a
//! configuration can describe restores) and (de)serialising into named
//! `.nsck` sections.
//!
//! Both implementations uphold the determinism contract the daemon
//! documents: the checkpoint sections capture essential state only, so a
//! restored engine continues bit-identically at any worker or shard-thread
//! count.

use netshed_monitor::{Engine, Monitor, MonitorConfig, NetshedError, ShardedMonitor};
use netshed_sketch::{StateReader, StateWriter};

use crate::daemon::ServiceError;
use crate::snapshot::Snapshot;

/// A computation the service plane can host: an [`Engine`] that can be
/// rebuilt from its configuration and serialised into `.nsck` sections.
pub trait MonitorEngine: Engine {
    /// Rebuilds a fresh engine from the run's configuration (the restore
    /// path; state is loaded separately through
    /// [`load_sections`](MonitorEngine::load_sections)).
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError>
    where
        Self: Sized;

    /// Appends the engine's state sections to a checkpoint under way.
    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError>;

    /// Restores the engine's state from its checkpoint sections. The engine
    /// was built from a configuration whose policy is the snapshot's, so
    /// shadow reconstruction follows the right policy.
    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError>;
}

/// Checkpoint section holding a solo monitor's state.
const SECTION_MONITOR: &str = "monitor";
/// Checkpoint section prefix for one lane of a sharded fleet.
const SECTION_SHARD_PREFIX: &str = "shard.";
/// Checkpoint section holding the cross-shard coordinator's state.
const SECTION_SHARDED: &str = "sharded";

impl MonitorEngine for Monitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        config.validate()?;
        Ok(Monitor::new(config))
    }

    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        let mut section = StateWriter::new();
        self.save_state(&mut section)?;
        snapshot.push(SECTION_MONITOR, section.into_bytes())?;
        Ok(())
    }

    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        let mut section = StateReader::new(snapshot.section(SECTION_MONITOR)?);
        self.load_state(&mut section)?;
        section.finish()?;
        Ok(())
    }
}

impl MonitorEngine for ShardedMonitor {
    fn from_config(config: MonitorConfig) -> Result<Self, NetshedError> {
        ShardedMonitor::new(config)
    }

    fn save_sections(&self, snapshot: &mut Snapshot) -> Result<(), ServiceError> {
        for lane in 0..self.lane_count() {
            let mut section = StateWriter::new();
            self.save_lane_state(lane, &mut section)?;
            snapshot.push(&format!("{SECTION_SHARD_PREFIX}{lane}"), section.into_bytes())?;
        }
        let mut section = StateWriter::new();
        self.save_coordinator_state(&mut section)?;
        snapshot.push(SECTION_SHARDED, section.into_bytes())?;
        Ok(())
    }

    fn load_sections(&mut self, snapshot: &Snapshot) -> Result<(), ServiceError> {
        for lane in 0..self.lane_count() {
            let mut section =
                StateReader::new(snapshot.section(&format!("{SECTION_SHARD_PREFIX}{lane}"))?);
            self.load_lane_state(lane, &mut section)?;
            section.finish()?;
        }
        // A lane's budget is not lane state: the coordinator section carries
        // it and re-applies it (`set_bin_capacity`), in either order.
        let mut section = StateReader::new(snapshot.section(SECTION_SHARDED)?);
        self.load_coordinator_state(&mut section)?;
        section.finish()?;
        Ok(())
    }
}
