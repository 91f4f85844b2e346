//! The netshed load shedding system.
//!
//! This crate assembles the substrates (traffic model, feature extraction,
//! prediction, queries, fairness) into the monitoring pipeline of the paper:
//!
//! ```text
//!              ┌──────────────────────────────────────────────────┐
//!   packets →  │ capture buffer → batch → features → prediction   │
//!              │      ↓ (uncontrolled drops when the buffer       │
//!              │        overflows, as in the original CoMo)       │
//!              │  load shedding: when / where / how much to shed  │
//!              │      ↓ per-query packet / flow / custom shedding │
//!              │  queries (black boxes, cycles metered)           │
//!              │      ↓ feedback: observed cycles → prediction    │
//!              └──────────────────────────────────────────────────┘
//! ```
//!
//! The central type is [`Monitor`], constructed through the validating
//! [`MonitorBuilder`] (capacity, strategy, predictor, enforcement, seed,
//! initial [`QuerySpec`](netshed_queries::QuerySpec)s). Queries are
//! registered and deregistered at any time through [`QueryId`] handles, so
//! the same query kind can run several times under distinct labels. A full
//! experiment is one call: [`Monitor::run`] consumes a
//! [`PacketSource`](netshed_trace::PacketSource) and reports per-bin
//! [`BinRecord`]s and per-interval query outputs to a [`RunObserver`]
//! ([`RunSummary`], [`RecordSink`], [`AccuracyTracker`] ship as built-ins).
//! Every fallible entry point returns [`NetshedError`]. A
//! [`ReferenceRunner`] runs the same queries without any resource limit to
//! provide the ground truth against which accuracy is measured.
//!
//! The control plane is open: a [`ControlPolicy`] decides every bin's
//! per-query sampling rates from a [`ControlContext`] (predictions, demands,
//! available cycles, EWMA error, previous-bin feedback) and returns an
//! introspectable [`ControlDecision`] that flows into each [`BinRecord`] and
//! the [`RunObserver::on_decision`] hook. The [`Strategy`] enum remains the
//! validated constructor for the built-ins (Chapters 4–6 of the paper):
//!
//! * [`Strategy::NoShedding`] — the original CoMo behaviour: drop packets at
//!   the capture buffer when overloaded.
//! * [`Strategy::Reactive`] — adjust the sampling rate from the previous
//!   batch's measured cycles (Eq. 4.1), resolving minimum-rate conflicts
//!   through its allocation policy.
//! * [`Strategy::Predictive`] — the paper's scheme (Algorithm 1): MLR+FCBF
//!   prediction, buffer discovery, EWMA error correction, and one of the
//!   allocation policies of Chapter 5 ([`AllocationPolicy::EqualRates`],
//!   [`AllocationPolicy::MmfsCpu`], [`AllocationPolicy::MmfsPkt`]).
//!
//! Beyond the enum, [`policy::OraclePolicy`] allocates from the bin's actual
//! measured cycles (the upper bound on every predictor),
//! [`policy::HysteresisReactivePolicy`] sheds immediately but recovers
//! slowly, and user-defined policies plug in through
//! [`MonitorBuilder::with_policy`]. Predictors follow the same registration
//! pattern through [`MonitorBuilder::with_predictor`]. Either way the
//! [`MonitorConfig`] ends up carrying one [`PolicySpec`] and one
//! [`PredictorSpec`] — a name plus a constructor — from which a solo
//! monitor, a [`ShardedMonitor`] and every daemon restore build their own
//! instances. A `ShardedMonitor` is the same control loop with query
//! execution sharded over lanes (see [`sharded`]).
//!
//! The [`robust`] module is the control-plane half of the robustness plane:
//! [`DegradationGuard`] wraps any policy with a per-bin under-prediction
//! tripwire and a conservative reactive fallback (surfaced as
//! [`DecisionReason::DegradedFallback`]), and [`AllocationGameAttacker`]
//! plays the Section 5.3 allocation game dishonestly so the defense can be
//! measured. The hardened predictor rides along as
//! [`PredictorKind::RobustMlrFcbf`].

#![forbid(unsafe_code)]

mod bin;
pub mod builder;
pub mod capture;
pub mod config;
pub mod digest;
pub mod engine;
pub mod error;
pub mod exec;
pub mod monitor;
pub mod observer;
pub mod policy;
pub mod reference;
pub mod report;
pub mod robust;
pub mod sharded;
pub mod shedder;

pub use builder::MonitorBuilder;
pub use capture::CaptureBuffer;
pub use config::{
    AllocationPolicy, EnforcementConfig, MonitorConfig, PolicySpec, PredictorKind, PredictorSpec,
    Spec, Strategy, DEFAULT_SHARD_LANES,
};
pub use digest::{DigestObserver, RunDigest, StreamDigest};
pub use engine::Engine;
pub use error::NetshedError;
pub use exec::{Stage, StageStats, MAX_WORKERS};
pub use monitor::{Monitor, QueryId};
pub use observer::{AccuracyTracker, NullObserver, RecordSink, RunObserver};
pub use policy::{
    ControlContext, ControlDecision, ControlPolicy, DecisionReason, HysteresisReactivePolicy,
    NoSheddingPolicy, OraclePolicy, PredictivePolicy, ReactivePolicy,
};
pub use reference::ReferenceRunner;
pub use report::{BinRecord, LabelTable, QueryBinRecord, RunSummary};
pub use robust::{AllocationGameAttacker, DegradationGuard};
pub use sharded::ShardedMonitor;
pub use shedder::{draw_keys, flow_sample_with, keep_threshold, packet_sample_with};
