//! Shared by `golden.rs` and `checkpoint.rs`: the policies *outside* the
//! `Strategy` enum, as corpus configurations, and the adversarial scenarios
//! they are pinned on. The seven built-ins have the golden manifest; these
//! have the deployment matrix — solo, fleet, checkpointed — because the
//! configuration carries their constructor like it carries a `Strategy`.

use netshed::fairness::{EqualRates, MmfsPkt};
use netshed::prelude::*;
use netshed_bench::corpus::{corpus_config, ADVERSARIAL_SCENARIOS};
use netshed_trace::scenario::builtin;

/// The hardened stack, the oracle and the hysteresis policy over the
/// (one-worker) corpus configuration, keyed by the name their policy reports.
pub fn custom_configs(capacity: f64) -> Vec<(&'static str, MonitorConfig)> {
    let guarded = PolicySpec::new(|| DegradationGuard::new(PredictivePolicy::new(EqualRates)));
    let oracle = PolicySpec::new(|| OraclePolicy::new(MmfsPkt));
    let hysteresis = PolicySpec::new(|| HysteresisReactivePolicy::new(MmfsPkt));
    vec![
        (
            "guarded_eq_srates",
            corpus_config(guarded, capacity, 1).with_predictor(PredictorKind::RobustMlrFcbf),
        ),
        ("oracle_mmfs_pkt", corpus_config(oracle, capacity, 1)),
        ("reactive_hysteresis_mmfs_pkt", corpus_config(hysteresis, capacity, 1)),
    ]
}

/// `bm-mimicry`, `flow-churn` and `agg-skew`.
pub fn adversarial_scenarios() -> Vec<Scenario> {
    ADVERSARIAL_SCENARIOS
        .iter()
        .map(|name| builtin(name).expect("adversarial scenarios are builtins"))
        .collect()
}
