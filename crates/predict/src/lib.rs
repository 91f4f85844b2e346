//! CPU-usage prediction for black-box monitoring queries.
//!
//! This crate implements Chapter 3 of the paper: given only the per-batch
//! traffic [`FeatureVector`](netshed_features::FeatureVector) and the history
//! of observed per-batch CPU usage of a query, predict the cycles the query
//! will need for the next batch.
//!
//! Three predictors are provided:
//!
//! * [`MlrPredictor`] — the paper's method: Fast Correlation-Based Filter
//!   feature selection followed by multiple linear regression over a sliding
//!   history window (Sections 3.2.2 and 3.2.3).
//! * [`SlrPredictor`] — simple linear regression on a single, fixed feature
//!   (the number of packets by default), the stronger of the two baselines
//!   (Section 3.4.1).
//! * [`EwmaPredictor`] — exponentially weighted moving average of the past
//!   CPU usage, ignoring the traffic entirely (Section 3.4.1).
//!
//! A fourth, [`RobustMlrPredictor`], hardens the MLR method against
//! predictor-gaming traffic (outlier-clamped residuals, forgetting-factor
//! history, non-finite guards) while performing bit-identical arithmetic on
//! benign workloads; see the [`robust`] module docs for the defense model.
//!
//! All predictors implement the [`Predictor`] trait so the load shedding
//! system and the experiment harness can swap them freely. Because the
//! prediction history is per query, the monitoring system instantiates one
//! predictor per registration from the constructor its configuration carries
//! (a `PredictorSpec`: any `Fn() -> Box<dyn Predictor>` closure qualifies),
//! which is also how user-defined predictors plug in.

#![forbid(unsafe_code)]

pub mod error;
pub mod fcbf;
pub mod guard;
pub mod history;
pub mod predictor;
pub mod robust;
pub mod window;

pub use error::ErrorStats;
pub use fcbf::{fcbf_select_in, fcbf_select_with, FcbfConfig, FcbfScratch};
pub use guard::{clamp_features, clamp_sample, MAX_SAMPLE};
pub use history::History;
pub use predictor::{EwmaPredictor, MlrConfig, MlrPredictor, Predictor, SlrPredictor, OLS_RCOND};
pub use robust::RobustMlrPredictor;
pub use window::FeatureWindow;
