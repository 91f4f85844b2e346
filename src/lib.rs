//! `netshed` — predictive load shedding for network monitoring applications.
//!
//! This is the facade crate: it re-exports the public API of every sub-crate
//! in the workspace. See `README.md` for an overview and `DESIGN.md` for the
//! mapping between the paper's system and the crates.
//!
//! The streaming-first surface lives in [`prelude`]: build a validated
//! [`Monitor`] with [`Monitor::builder`], register queries dynamically
//! through [`QueryId`] handles, and drive a whole experiment with one
//! [`Monitor::run`] call over any [`PacketSource`]:
//!
//! ```
//! use netshed::prelude::*;
//!
//! let mut monitor = Monitor::builder()
//!     .capacity(1e12)
//!     .no_noise()
//!     .query(QuerySpec::new(QueryKind::Counter))
//!     .build()?;
//! let mut source = TraceGenerator::new(TraceConfig::default()).take_batches(20);
//! let summary = monitor.run(&mut source, &mut NullObserver)?;
//! assert_eq!(summary.bins + summary.empty_bins, 20);
//! # Ok::<(), NetshedError>(())
//! ```

#![forbid(unsafe_code)]

pub use netshed_fairness as fairness;
pub use netshed_features as features;
pub use netshed_linalg as linalg;
pub use netshed_monitor as monitor;
pub use netshed_predict as predict;
pub use netshed_queries as queries;
pub use netshed_sketch as sketch;
pub use netshed_trace as trace;

pub use netshed_fairness::{AllocationStrategy, QueryDemand};
pub use netshed_monitor::{
    AccuracyTracker, AllocationPolicy, BinRecord, ControlContext, ControlDecision, ControlPolicy,
    DecisionReason, DegradationGuard, DigestObserver, EnforcementConfig, Engine, Monitor,
    MonitorBuilder, MonitorConfig, NetshedError, NoSheddingPolicy, NullObserver, OraclePolicy,
    PolicySpec, PredictivePolicy, PredictorKind, PredictorSpec, QueryId, ReactivePolicy,
    RecordSink, ReferenceRunner, RunDigest, RunObserver, RunSummary, ShardedMonitor, Stage,
    StageStats, Strategy, StreamDigest, DEFAULT_SHARD_LANES,
};
pub use netshed_predict::{Predictor, RobustMlrPredictor};
pub use netshed_queries::{QueryKind, QueryOutput, QuerySpec};
pub use netshed_trace::{
    shard_key, AnomalyEvent, Batch, BatchReplay, BatchView, FormatError, Interleave, Link,
    PacketSource, PacketSourceExt, Phase, Scenario, ScenarioError, ScenarioSource,
    SharedTraceReader, TraceConfig, TraceGenerator, TraceProfile, TraceWriter,
};

/// Everything a typical experiment needs, in one import.
pub mod prelude {
    pub use netshed_fairness::{Allocation, AllocationStrategy, QueryDemand};
    pub use netshed_monitor::{
        AccuracyTracker, AllocationPolicy, BinRecord, ControlContext, ControlDecision,
        ControlPolicy, DecisionReason, DegradationGuard, DigestObserver, EnforcementConfig, Engine,
        Monitor, MonitorBuilder, MonitorConfig, NetshedError, NoSheddingPolicy, NullObserver,
        OraclePolicy, PolicySpec, PredictivePolicy, PredictorKind, PredictorSpec, QueryBinRecord,
        QueryId, ReactivePolicy, RecordSink, ReferenceRunner, RunDigest, RunObserver, RunSummary,
        ShardedMonitor, Stage, StageStats, Strategy, StreamDigest, DEFAULT_SHARD_LANES,
    };
    pub use netshed_predict::{Predictor, RobustMlrPredictor};
    pub use netshed_queries::{CustomBehavior, QueryKind, QueryOutput, QuerySpec};
    pub use netshed_trace::{
        shard_key, Anomaly, AnomalyEvent, AnomalyKind, Batch, BatchReplay, BatchView, FormatError,
        Interleave, Link, PacketSource, PacketSourceExt, Phase, Scenario, ScenarioError,
        ScenarioSource, SharedTraceReader, TraceConfig, TraceGenerator, TraceProfile, TraceWriter,
    };
}
