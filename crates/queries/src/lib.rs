//! The monitoring queries ("plug-in modules") of the paper and their cost and
//! accuracy models.
//!
//! The load shedding system treats queries as *black boxes*: it never looks
//! inside them, it only observes the CPU cycles they consume per batch. This
//! crate implements the ten queries of Table 2.2 —
//!
//! | Query            | Method | Cost  | State                                   |
//! |------------------|--------|-------|-----------------------------------------|
//! | `application`    | packet | low   | per-port packet/byte counters           |
//! | `autofocus`      | packet | med   | per-prefix traffic clusters             |
//! | `counter`        | packet | low   | packet/byte totals                      |
//! | `flows`          | flow   | low   | 5-tuple flow table                      |
//! | `high-watermark` | packet | low   | peak load over sub-intervals            |
//! | `p2p-detector`   | packet | high  | signature + per-flow P2P classification |
//! | `pattern-search` | packet | high  | Boyer–Moore payload scan                |
//! | `super-sources`  | flow   | med   | per-source fan-out estimation           |
//! | `top-k`          | packet | low   | ranking of top destinations             |
//! | `trace`          | packet | med   | full packet collection                  |
//!
//! Each query charges a deterministic number of "cycles" per elementary
//! operation to a [`CycleMeter`]; the operation costs are chosen so that the
//! *relative* per-query costs reproduce Figure 2.2 of the paper. Real CPU
//! time can be measured instead (the monitor crate supports both), but the
//! deterministic model keeps every experiment reproducible.
//!
//! Queries also produce a per-measurement-interval [`QueryOutput`] from which
//! the accuracy metrics of Section 2.2.1 are computed by comparing against
//! the output of an unsampled reference execution.

#![forbid(unsafe_code)]

pub mod boyer_moore;
pub mod cost;
pub mod output;
pub mod payload_queries;
pub mod query;
pub mod registry;
pub mod simple_queries;
pub mod state_queries;

pub use boyer_moore::BoyerMoore;
pub use cost::{costs, CycleMeter, MeasurementNoise, NoiseDraw};
pub use output::QueryOutput;
pub use query::{Query, SheddingMethod};
pub use registry::{build_query, build_query_from_spec, QueryKind, QuerySpec};

pub use payload_queries::{CustomBehavior, P2pDetectorQuery, PatternSearchQuery, TraceQuery};
pub use simple_queries::{ApplicationQuery, CounterQuery, HighWatermarkQuery};
pub use state_queries::{AutofocusQuery, FlowsQuery, SuperSourcesQuery, TopKQuery};
