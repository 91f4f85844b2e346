//! The engine contract: the one seam between the bin pipeline and whatever
//! hosts it.
//!
//! The paper's system is one control loop per time bin (Algorithm 1), and
//! there is one implementation of it: [`Monitor`]. A
//! [`ShardedMonitor`](crate::ShardedMonitor) fleet is that monitor with a
//! lane count above one, and the service-plane daemon a process around
//! either. [`Engine`] is the small contract a host depends on: nine required
//! methods — the registry, the policy swap, the interval flush, the stage
//! telemetry and [`ingest`](Engine::ingest), the per-bin observer protocol —
//! and one provided method, [`run`](Engine::run), the only spelling in the
//! workspace of the run loop. It is implemented once, for everything that
//! borrows as a `Monitor` — the monitor itself and the fleet newtype — so
//! the two engine types cannot drift apart: `Monitor::run`, the daemon's
//! final flush and a harness generic over engines all land in the same
//! bodies.

use crate::config::{MonitorConfig, PolicySpec};
use crate::error::NetshedError;
use crate::exec::StageStats;
use crate::monitor::{Monitor, QueryId};
use crate::observer::RunObserver;
use crate::report::{BinRecord, RunSummary};
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_trace::{Batch, PacketSource};
use std::borrow::BorrowMut;

/// A computation that turns batches into bin records and interval outputs:
/// one record per bin, whatever the engine's lane count.
pub trait Engine {
    /// The configuration of the run — checkpoint cross-checks compare
    /// against it bit for bit.
    fn config(&self) -> &MonitorConfig;

    /// Name of the active control policy.
    fn policy_name(&self) -> String;

    /// Registers a query (one instance per lane).
    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError>;

    /// Deregisters a query by handle.
    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError>;

    /// Swaps the control policy for a fresh instance of `policy`; a
    /// [`Strategy`](crate::Strategy) converts into one.
    fn set_policy(&mut self, policy: PolicySpec);

    /// Whether a measurement interval is currently open.
    fn interval_open(&self) -> bool;

    /// Flushes the open measurement interval and returns its outputs.
    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)>;

    /// Cumulative per-stage wall time of the bins ingested so far — where
    /// the engine's time went, by its own clock. Telemetry only.
    fn stage_stats(&self) -> StageStats;

    /// Processes one non-empty bin, reporting to `observer` in the engine's
    /// canonical order: `on_batch`, `on_interval` when the bin closed a
    /// measurement interval (a fleet's queries report once, its lanes
    /// folded), then `on_decision` and `on_bin` with the bin's record.
    fn ingest<O>(&mut self, batch: &Batch, observer: &mut O) -> Result<BinRecord, NetshedError>
    where
        O: RunObserver + ?Sized;

    /// Drives the engine over a batch source until the source is exhausted
    /// and returns the aggregated [`RunSummary`].
    ///
    /// Empty time bins are counted and skipped — a quiet bin mid-stream
    /// carries no work and is not an error, unlike an empty batch handed
    /// directly to [`ingest`](Engine::ingest). After the last batch the open
    /// interval is flushed to `on_interval` and `on_end` receives the
    /// summary; over an already exhausted source the call is exactly that
    /// final flush, which is how a host that feeds bins itself ends a run.
    ///
    /// Infinite sources (like a bare
    /// [`TraceGenerator`](netshed_trace::TraceGenerator)) must be bounded
    /// first with
    /// [`take_batches`](netshed_trace::PacketSourceExt::take_batches).
    fn run<S, O>(&mut self, source: &mut S, observer: &mut O) -> Result<RunSummary, NetshedError>
    where
        S: PacketSource + ?Sized,
        O: RunObserver + ?Sized,
    {
        let mut summary = RunSummary::default();
        while let Some(batch) = source.next_batch() {
            if batch.is_empty() {
                summary.empty_bins += 1;
                continue;
            }
            summary.absorb(&self.ingest(&batch, observer)?);
        }
        if self.interval_open() {
            observer.on_interval(&self.finish_interval());
        }
        observer.on_end(&summary);
        Ok(summary)
    }
}

impl<E: BorrowMut<Monitor>> Engine for E {
    fn config(&self) -> &MonitorConfig {
        Monitor::config(self.borrow())
    }

    fn policy_name(&self) -> String {
        Monitor::policy_name(self.borrow())
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        Monitor::register(self.borrow_mut(), spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        Monitor::deregister(self.borrow_mut(), id)
    }

    fn set_policy(&mut self, policy: PolicySpec) {
        Monitor::set_policy(self.borrow_mut(), policy);
    }

    fn interval_open(&self) -> bool {
        Monitor::interval_open(self.borrow())
    }

    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        Monitor::finish_interval(self.borrow_mut())
    }

    fn stage_stats(&self) -> StageStats {
        Monitor::stage_stats(self.borrow())
    }

    fn ingest<O>(&mut self, batch: &Batch, observer: &mut O) -> Result<BinRecord, NetshedError>
    where
        O: RunObserver + ?Sized,
    {
        observer.on_batch(batch);
        let record = self.borrow_mut().process_batch(batch)?;
        if let Some(outputs) = &record.interval_outputs {
            observer.on_interval(outputs);
        }
        observer.on_decision(record.bin_index, &record.decision);
        observer.on_bin(&record);
        Ok(record)
    }
}
