//! The engine contract: the one seam between the bin pipeline and whatever
//! hosts it.
//!
//! The paper's system is one pipeline per time bin (Algorithm 1); a solo
//! [`Monitor`], a [`ShardedMonitor`] fleet and the service-plane daemon are
//! three process shapes around it. [`Engine`] is the small contract a host
//! depends on: nine required methods — the registry, the policy swap, the
//! interval flush, the stage telemetry and [`ingest`](Engine::ingest), the
//! per-bin observer protocol — and one provided method,
//! [`run`](Engine::run), the only
//! spelling in the workspace of the run loop. `Monitor::run`,
//! `ShardedMonitor::run` and the daemon's final flush are calls into it, and
//! a harness generic over engines needs nothing else.

use crate::config::{MonitorConfig, PolicySpec};
use crate::error::NetshedError;
use crate::exec::StageStats;
use crate::monitor::{Monitor, QueryId};
use crate::observer::RunObserver;
use crate::report::{BinRecord, RunSummary};
use crate::sharded::ShardedMonitor;
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_trace::{Batch, PacketSource};

/// A computation that turns batches into bin records and interval outputs:
/// a solo [`Monitor`] or a [`ShardedMonitor`] fleet.
pub trait Engine {
    /// What one ingested bin yields, in lane order: exactly one record for a
    /// solo monitor, one per non-idle lane for a fleet.
    type Records: AsRef<[BinRecord]>;

    /// The configuration of the run. For a fleet this is the *global*
    /// configuration — checkpoint cross-checks compare against it bit for
    /// bit, and per-lane budgets are coordinator state, not config.
    fn config(&self) -> &MonitorConfig;

    /// Name of the active control policy.
    fn policy_name(&self) -> String;

    /// Registers a query (fleet-wide for a sharded engine).
    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError>;

    /// Deregisters a query by handle.
    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError>;

    /// Swaps the control policy for a fresh instance of `policy` (one per
    /// lane in a fleet); a [`Strategy`](crate::Strategy) converts into one.
    fn set_policy(&mut self, policy: PolicySpec);

    /// Whether a measurement interval is currently open.
    fn interval_open(&self) -> bool;

    /// Flushes the open measurement interval and returns its outputs.
    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)>;

    /// Cumulative per-stage wall time of the bins ingested so far — where
    /// the engine's time went, by its own clock. Telemetry only.
    fn stage_stats(&self) -> StageStats;

    /// Processes one non-empty bin, reporting to `observer` in the engine's
    /// canonical order: `on_batch` with the undivided batch, `on_interval`
    /// when the bin closed a measurement interval, then `on_decision` and
    /// `on_bin` per record.
    fn ingest<O>(&mut self, batch: &Batch, observer: &mut O) -> Result<Self::Records, NetshedError>
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
            summary.absorb(self.ingest(&batch, observer)?.as_ref());
        }
        if self.interval_open() {
            observer.on_interval(&self.finish_interval());
        }
        observer.on_end(&summary);
        Ok(summary)
    }
}

impl Engine for Monitor {
    type Records = [BinRecord; 1];

    fn config(&self) -> &MonitorConfig {
        Monitor::config(self)
    }

    fn policy_name(&self) -> String {
        Monitor::policy_name(self)
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        Monitor::register(self, spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        Monitor::deregister(self, id)
    }

    fn set_policy(&mut self, policy: PolicySpec) {
        Monitor::set_policy(self, policy);
    }

    fn interval_open(&self) -> bool {
        Monitor::interval_open(self)
    }

    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        Monitor::finish_interval(self)
    }

    fn stage_stats(&self) -> StageStats {
        Monitor::stage_stats(self)
    }

    fn ingest<O>(&mut self, batch: &Batch, observer: &mut O) -> Result<Self::Records, NetshedError>
    where
        O: RunObserver + ?Sized,
    {
        observer.on_batch(batch);
        let record = self.process_batch(batch)?;
        if let Some(outputs) = &record.interval_outputs {
            observer.on_interval(outputs);
        }
        observer.on_decision(record.bin_index, &record.decision);
        observer.on_bin(&record);
        Ok([record])
    }
}

impl Engine for ShardedMonitor {
    type Records = Vec<BinRecord>;

    fn config(&self) -> &MonitorConfig {
        ShardedMonitor::config(self)
    }

    fn policy_name(&self) -> String {
        ShardedMonitor::policy_name(self)
    }

    fn register(&mut self, spec: &QuerySpec) -> Result<QueryId, NetshedError> {
        ShardedMonitor::register(self, spec)
    }

    fn deregister(&mut self, id: QueryId) -> Result<(), NetshedError> {
        ShardedMonitor::deregister(self, id)
    }

    fn set_policy(&mut self, policy: PolicySpec) {
        ShardedMonitor::set_policy(self, policy);
    }

    fn interval_open(&self) -> bool {
        ShardedMonitor::interval_open(self)
    }

    fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        ShardedMonitor::finish_interval(self)
    }

    fn stage_stats(&self) -> StageStats {
        ShardedMonitor::stage_stats(self)
    }

    fn ingest<O>(&mut self, batch: &Batch, observer: &mut O) -> Result<Self::Records, NetshedError>
    where
        O: RunObserver + ?Sized,
    {
        self.process_bin(batch, observer)
    }
}
