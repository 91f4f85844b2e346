//! The long-running daemon: a [`Monitor`] wrapped in a service loop with a
//! control channel and `.nsck` checkpoint/restore.
//!
//! # Determinism contract
//!
//! The daemon extends the repo-wide contract (DESIGN.md) to long-running,
//! administered runs:
//!
//! * **Commands land on bin boundaries, in arrival order.** [`Daemon::tick`]
//!   drains the control queue before the first batch and between batches,
//!   never mid-batch. Two runs that observe the same command sequence at the
//!   same bin positions produce bit-identical digests — at any worker count.
//! * **A checkpoint is a pure function of the run so far.** The `.nsck`
//!   bytes capture the essential state (RNG positions, predictor histories,
//!   query state, digest stream positions, bins ingested) and none of the
//!   derivable state (thread pools, scratch buffers, worker count).
//!   [`Daemon::restore`] + the remaining batches therefore produce the exact
//!   digests of the uninterrupted run, whether the restored process runs 1
//!   worker or 8.
//!
//! # Quickstart
//!
//! ```
//! use netshed_monitor::{Monitor, Strategy, AllocationPolicy};
//! use netshed_queries::{QueryKind, QuerySpec};
//! use netshed_service::{Daemon, TickStatus};
//! use netshed_trace::{PacketSourceExt, TraceConfig, TraceGenerator};
//!
//! let monitor = Monitor::builder().capacity(1e7).build().unwrap();
//! let source = TraceGenerator::new(TraceConfig::default()).take_batches(32);
//! let (mut daemon, control) = Daemon::new(monitor, source);
//!
//! // Register a tenant query; the command applies at the next bin boundary.
//! let pending = control.register_query(QuerySpec::new(QueryKind::Counter));
//! while let TickStatus::Progressed { .. } = daemon.tick().unwrap() {}
//! let id = pending.wait().unwrap();
//! assert_eq!(daemon.monitor().query_handles(), vec![(id, "counter")]);
//! ```

use std::borrow::{Borrow, BorrowMut};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};

use netshed_monitor::{
    DigestObserver, Monitor, MonitorConfig, NetshedError, PolicySpec, QueryId, RunDigest, Strategy,
};
use netshed_queries::QuerySpec;
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::{BatchReplay, PacketSource};

use crate::engine::MonitorEngine;
use crate::snapshot::{Snapshot, SnapshotError};

/// Default number of non-empty bins one [`Daemon::tick`] processes.
pub const DEFAULT_BINS_PER_TICK: u64 = 64;

/// Names of the `.nsck` sections every daemon checkpoint carries, in order:
/// the run's configuration, the hosted engine's state
/// ([`Monitor::save_state`]: the lane count, the control loop, then each
/// query with all of its lane instances), the replay cursor and the digest
/// streams.
const SECTION_CONFIG: &str = "config";
const SECTION_MONITOR: &str = "monitor";
const SECTION_DAEMON: &str = "daemon";
const SECTION_DIGEST: &str = "digest";

/// Errors surfaced by the service plane.
#[derive(Debug)]
pub enum ServiceError {
    /// The wrapped monitor rejected an operation.
    Monitor(NetshedError),
    /// A `.nsck` container failed to encode or decode.
    Snapshot(SnapshotError),
    /// The daemon hung up before answering (it was dropped or shut down
    /// before the command was applied).
    ChannelClosed,
    /// On restore, the replacement source ran out before reaching the
    /// checkpointed position.
    SourceTooShort {
        /// Bins the checkpoint had already consumed.
        needed: u64,
        /// Bins the replacement source could actually provide.
        skipped: u64,
    },
    /// The snapshot names a control policy that is neither the one the
    /// restoring configuration constructs nor a built-in strategy, so the
    /// restoring process cannot reconstruct it.
    UnknownPolicy {
        /// The policy name the snapshot stores.
        snapshot: String,
        /// The policy name the restoring configuration's spec constructs.
        configured: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Monitor(error) => write!(f, "monitor: {error}"),
            ServiceError::Snapshot(error) => write!(f, "snapshot: {error}"),
            ServiceError::ChannelClosed => {
                write!(f, "the daemon hung up before answering the command")
            }
            ServiceError::SourceTooShort { needed, skipped } => write!(
                f,
                "restore source exhausted after {skipped} bins but the checkpoint \
                 was taken {needed} bins in"
            ),
            ServiceError::UnknownPolicy { snapshot, configured } => write!(
                f,
                "snapshot policy {snapshot:?} is neither the configured policy {configured:?} \
                 nor a built-in strategy; restore with the configuration that constructs it"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<NetshedError> for ServiceError {
    fn from(error: NetshedError) -> Self {
        ServiceError::Monitor(error)
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(error: SnapshotError) -> Self {
        ServiceError::Snapshot(error)
    }
}

impl From<StateError> for ServiceError {
    fn from(error: StateError) -> Self {
        ServiceError::Snapshot(SnapshotError::State(error))
    }
}

/// What one [`Daemon::tick`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickStatus {
    /// The tick processed `bins` non-empty bins and the source has more.
    Progressed {
        /// Non-empty bins processed this tick (empty bins are skipped for
        /// free and not counted here).
        bins: u64,
    },
    /// The source is exhausted; the final measurement interval (if one was
    /// open) has been flushed into the digest. Commands are still served.
    SourceExhausted,
    /// A [`Shutdown`](ControlChannel::shutdown) command was applied; the
    /// daemon stops processing bins and serving commands.
    ShutdownRequested,
}

/// A command travelling from a [`ControlChannel`] to its daemon. Applied
/// only at bin boundaries, in arrival order.
enum Command {
    RegisterQuery { spec: QuerySpec, reply: SyncSender<Result<QueryId, ServiceError>> },
    DeregisterQuery { id: QueryId, reply: SyncSender<Result<(), ServiceError>> },
    SwapPolicy { policy: PolicySpec, reply: SyncSender<Result<String, ServiceError>> },
    Checkpoint { reply: SyncSender<Result<Vec<u8>, ServiceError>> },
    Shutdown { reply: SyncSender<Result<RunDigest, ServiceError>> },
}

/// The answer to a control command, redeemable once the daemon has reached
/// the next bin boundary (i.e. after a subsequent [`Daemon::tick`]).
#[derive(Debug)]
pub struct Pending<T> {
    rx: Receiver<Result<T, ServiceError>>,
}

impl<T> Pending<T> {
    /// Blocks until the daemon has applied the command and returns its
    /// reply. Errors with [`ServiceError::ChannelClosed`] when the daemon
    /// was dropped or shut down before applying it.
    pub fn wait(self) -> Result<T, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::ChannelClosed)?
    }

    /// Non-blocking probe: `None` while the command is still queued, `Some`
    /// once the reply is in — or, as [`ServiceError::ChannelClosed`], once
    /// none can come any more because the daemon was dropped with the
    /// command unapplied (what [`wait`](Pending::wait) reports then).
    pub fn poll(&self) -> Option<Result<T, ServiceError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::ChannelClosed)),
        }
    }
}

/// A clonable handle for administering a running [`Daemon`] — the
/// multi-tenant face of the service plane. Every tenant holds a clone;
/// commands from all clones funnel into one queue and apply in arrival
/// order at bin boundaries, which is what keeps administered runs
/// replayable.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    tx: Sender<Command>,
}

impl ControlChannel {
    fn send<T>(
        &self,
        make: impl FnOnce(SyncSender<Result<T, ServiceError>>) -> Command,
    ) -> Pending<T> {
        // One slot: a command is answered once, where an unbounded
        // channel's first send allocates a block of 31.
        let (reply, rx) = sync_channel(1);
        // A send failure means the daemon is gone; the error surfaces as
        // ChannelClosed when the caller waits on the pending reply.
        let _ = self.tx.send(make(reply));
        Pending { rx }
    }

    /// Registers a query described by `spec` at the next bin boundary,
    /// yielding its stable [`QueryId`].
    pub fn register_query(&self, spec: QuerySpec) -> Pending<QueryId> {
        self.send(|reply| Command::RegisterQuery { spec, reply })
    }

    /// Deregisters a query by handle at the next bin boundary.
    pub fn deregister_query(&self, id: QueryId) -> Pending<()> {
        self.send(|reply| Command::DeregisterQuery { id, reply })
    }

    /// Swaps the control-plane policy — a built-in [`Strategy`] or any
    /// [`PolicySpec`] — at the next bin boundary, yielding the name of the
    /// newly installed policy. A checkpoint taken after the swap restores if
    /// the new policy is a built-in or the one the restoring configuration
    /// constructs.
    pub fn swap_policy(&self, policy: impl Into<PolicySpec>) -> Pending<String> {
        let policy = policy.into();
        self.send(|reply| Command::SwapPolicy { policy, reply })
    }

    /// Takes a `.nsck` checkpoint at the next bin boundary, yielding the
    /// encoded container bytes.
    pub fn checkpoint(&self) -> Pending<Vec<u8>> {
        self.send(|reply| Command::Checkpoint { reply })
    }

    /// Stops the daemon at the next bin boundary: the open measurement
    /// interval is flushed, and the reply carries the final [`RunDigest`].
    /// Commands queued behind the shutdown are never applied; once the
    /// daemon is dropped their waiters and pollers see
    /// [`ServiceError::ChannelClosed`].
    pub fn shutdown(&self) -> Pending<RunDigest> {
        self.send(|reply| Command::Shutdown { reply })
    }
}

/// A long-running monitoring service: a [`Monitor`] fed from a
/// [`PacketSource`], advanced a bounded number of bins per
/// [`tick`](Daemon::tick), administered through a [`ControlChannel`] and
/// checkpointable to the `.nsck` format.
pub struct Daemon<S, M = Monitor> {
    monitor: M,
    source: S,
    digest: DigestObserver,
    commands: Receiver<Command>,
    handle: Sender<Command>,
    /// Batches pulled from the source so far, empty bins included — the
    /// replay cursor a restore fast-forwards a fresh source to.
    bins_ingested: u64,
    bins_per_tick: u64,
    shutdown: bool,
}

impl<S: PacketSource, M: MonitorEngine> Daemon<S, M> {
    /// Wraps an engine — a solo [`Monitor`] or a
    /// [`ShardedMonitor`](netshed_monitor::ShardedMonitor) fleet — and a
    /// source into a daemon, returning the control handle for it. The engine
    /// may already have queries registered (builder-style) or start empty
    /// and be populated through the channel — both paths produce identical
    /// state for identical registration order.
    pub fn new(monitor: M, source: S) -> (Self, ControlChannel) {
        let (tx, rx) = channel();
        let daemon = Daemon {
            monitor,
            source,
            digest: DigestObserver::new(),
            commands: rx,
            handle: tx.clone(),
            bins_ingested: 0,
            bins_per_tick: DEFAULT_BINS_PER_TICK,
            shutdown: false,
        };
        (daemon, ControlChannel { tx })
    }

    /// Sets how many non-empty bins one [`Daemon::tick`] processes.
    pub fn with_bins_per_tick(mut self, bins: u64) -> Self {
        self.bins_per_tick = bins.max(1);
        self
    }

    /// Mints another control handle (equivalent to cloning the one returned
    /// by [`Daemon::new`]).
    pub fn control(&self) -> ControlChannel {
        ControlChannel { tx: self.handle.clone() }
    }

    /// The wrapped engine.
    pub fn monitor(&self) -> &M {
        &self.monitor
    }

    /// The run fingerprint accumulated so far.
    pub fn digest(&self) -> RunDigest {
        self.digest.digest()
    }

    /// Batches consumed from the source so far, empty bins included.
    pub fn bins_ingested(&self) -> u64 {
        self.bins_ingested
    }

    /// Advances the service loop: applies queued commands (at bin
    /// boundaries, in arrival order), then processes up to the configured
    /// number of non-empty bins, mirroring [`Monitor::run`]'s observer
    /// sequence exactly (both go through the engine's `ingest`).
    pub fn tick(&mut self) -> Result<TickStatus, ServiceError> {
        let mut bins = 0u64;
        loop {
            self.drain_commands();
            if self.shutdown {
                return Ok(TickStatus::ShutdownRequested);
            }
            if bins >= self.bins_per_tick {
                return Ok(TickStatus::Progressed { bins });
            }
            let Some(batch) = self.source.next_batch() else {
                self.end_run()?;
                return Ok(TickStatus::SourceExhausted);
            };
            self.bins_ingested += 1;
            if batch.is_empty() {
                // A quiet bin carries no work; it still advances the replay
                // cursor and still opens a command window.
                continue;
            }
            self.monitor.ingest(&batch, &mut self.digest)?;
            bins += 1;
        }
    }

    /// Runs [`tick`](Daemon::tick) until the source is exhausted or a
    /// shutdown is requested, returning the final status.
    pub fn run_to_exhaustion(&mut self) -> Result<TickStatus, ServiceError> {
        loop {
            let status = self.tick()?;
            if !matches!(status, TickStatus::Progressed { .. }) {
                return Ok(status);
            }
        }
    }

    /// Ends the hosted run the way [`Engine::run`](netshed_monitor::Engine::run)
    /// ends one — which, over a source with nothing left, is all that call
    /// does: the open measurement interval (if any) is flushed into the
    /// digest.
    fn end_run(&mut self) -> Result<(), ServiceError> {
        self.monitor.run(&mut BatchReplay::new(Vec::new()), &mut self.digest)?;
        Ok(())
    }

    fn drain_commands(&mut self) {
        if self.shutdown {
            // A post-shutdown tick must not revive the command loop:
            // anything still queued stays unapplied and resolves to
            // ChannelClosed once the daemon is dropped.
            return;
        }
        while let Ok(command) = self.commands.try_recv() {
            match command {
                Command::RegisterQuery { spec, reply } => {
                    let result = self.monitor.register(&spec).map_err(ServiceError::from);
                    let _ = reply.send(result);
                }
                Command::DeregisterQuery { id, reply } => {
                    let result = self.monitor.deregister(id).map_err(ServiceError::from);
                    let _ = reply.send(result);
                }
                Command::SwapPolicy { policy, reply } => {
                    self.monitor.set_policy(policy);
                    let _ = reply.send(Ok(self.monitor.policy_name()));
                }
                Command::Checkpoint { reply } => {
                    let _ = reply.send(self.checkpoint());
                }
                Command::Shutdown { reply } => {
                    let ended = self.end_run();
                    self.shutdown = true;
                    let _ = reply.send(ended.map(|()| self.digest.digest()));
                    // Commands queued behind the shutdown stay unapplied in
                    // the queue and are dropped with the daemon; their reply
                    // senders go with them, so waiters and pollers then
                    // observe ChannelClosed rather than silence.
                    return;
                }
            }
        }
    }

    /// Encodes the daemon's essential state as a `.nsck` container.
    ///
    /// The snapshot captures the run, not the machine: worker count, thread
    /// pools and scratch buffers are absent, so a checkpoint taken by an
    /// 8-worker daemon restores into a 1-worker one (and vice versa) with
    /// bit-identical remaining digests.
    pub fn checkpoint(&self) -> Result<Vec<u8>, ServiceError> {
        let config = self.monitor.config();
        let mut snapshot = Snapshot::new();

        let mut section = StateWriter::new();
        section.u64(config.seed);
        section.f64(config.capacity_cycles_per_bin);
        section.u64(config.time_bin_us);
        section.u64(config.measurement_interval_us);
        section.str(&self.monitor.policy_name());
        section.str(config.predictor.name());
        snapshot.push(SECTION_CONFIG, section.into_bytes())?;

        let mut section = StateWriter::new();
        Borrow::<Monitor>::borrow(&self.monitor).save_state(&mut section)?;
        snapshot.push(SECTION_MONITOR, section.into_bytes())?;

        let mut section = StateWriter::new();
        section.u64(self.bins_ingested);
        snapshot.push(SECTION_DAEMON, section.into_bytes())?;

        let mut section = StateWriter::new();
        self.digest.save_state(&mut section);
        snapshot.push(SECTION_DIGEST, section.into_bytes())?;

        Ok(snapshot.to_bytes())
    }

    /// Rebuilds a daemon from a `.nsck` checkpoint and a fresh source.
    ///
    /// `config` must describe the same run the checkpoint was taken from
    /// (same seed, capacity, bin geometry, predictor); the snapshot's config
    /// section is cross-checked field by field and a mismatch names both
    /// sides. The active policy is resolved by name: the configuration's own
    /// [`PolicySpec`] when its name is the snapshot's, else — the run saw a
    /// [`swap_policy`](ControlChannel::swap_policy) — the built-in
    /// [`Strategy`] of that name, else [`ServiceError::UnknownPolicy`]. The
    /// worker count is deliberately *not* checked — it is a
    /// wall-clock knob, and restoring at a different count is supported and
    /// tested. `source` must replay the same stream from the beginning; it
    /// is fast-forwarded past the bins the checkpoint already consumed
    /// (O(1) for [`BatchReplay`]).
    pub fn restore_engine(
        mut config: MonitorConfig,
        mut source: S,
        bytes: &[u8],
    ) -> Result<(Self, ControlChannel), ServiceError> {
        let snapshot = Snapshot::from_bytes(bytes)?;

        let mut section = StateReader::new(snapshot.section(SECTION_CONFIG)?);
        check_u64("seed", section.u64()?, config.seed)?;
        check_f64("capacity_cycles_per_bin", section.f64()?, config.capacity_cycles_per_bin)?;
        check_u64("time_bin_us", section.u64()?, config.time_bin_us)?;
        check_u64("measurement_interval_us", section.u64()?, config.measurement_interval_us)?;
        let policy_name = section.str()?;
        let predictor_name = section.str()?;
        section.finish()?;
        if predictor_name != config.predictor.name() {
            return Err(
                StateError::mismatch("predictor", predictor_name, config.predictor.name()).into()
            );
        }
        if policy_name != config.policy.name() {
            let swapped_in =
                Strategy::from_name(&policy_name).ok_or_else(|| ServiceError::UnknownPolicy {
                    snapshot: policy_name,
                    configured: config.policy.name().to_string(),
                })?;
            config.policy = swapped_in.into();
        }

        // The engine is built from a configuration whose policy is the
        // snapshot's, so shadow reconstruction follows the right policy.
        let mut monitor = M::from_config(config)?;
        let mut section = StateReader::new(snapshot.section(SECTION_MONITOR)?);
        BorrowMut::<Monitor>::borrow_mut(&mut monitor).load_state(&mut section)?;
        section.finish()?;

        let mut section = StateReader::new(snapshot.section(SECTION_DAEMON)?);
        let bins_ingested = section.u64()?;
        section.finish()?;

        let mut digest = DigestObserver::new();
        let mut section = StateReader::new(snapshot.section(SECTION_DIGEST)?);
        digest.load_state(&mut section)?;
        section.finish()?;

        let skipped = source.skip_batches(bins_ingested);
        if skipped < bins_ingested {
            return Err(ServiceError::SourceTooShort { needed: bins_ingested, skipped });
        }

        let (mut daemon, control) = Daemon::new(monitor, source);
        daemon.digest = digest;
        daemon.bins_ingested = bins_ingested;
        Ok((daemon, control))
    }
}

impl<S: PacketSource> Daemon<S> {
    /// Rebuilds a solo-monitor daemon from a `.nsck` checkpoint — the common
    /// case, kept monomorphic so call sites need no engine annotation. Fleet
    /// checkpoints restore through
    /// [`restore_engine`](Daemon::restore_engine) with
    /// `Daemon::<_, ShardedMonitor>` spelled out.
    pub fn restore(
        config: MonitorConfig,
        source: S,
        bytes: &[u8],
    ) -> Result<(Self, ControlChannel), ServiceError> {
        Self::restore_engine(config, source, bytes)
    }
}

fn check_u64(what: &str, found: u64, expected: u64) -> Result<(), ServiceError> {
    if found != expected {
        return Err(StateError::mismatch(what, found, expected).into());
    }
    Ok(())
}

fn check_f64(what: &str, found: f64, expected: f64) -> Result<(), ServiceError> {
    if found.to_bits() != expected.to_bits() {
        return Err(StateError::mismatch(what, found, expected).into());
    }
    Ok(())
}
