//! Shared experiment harness.
//!
//! Every table and figure of the paper's evaluation is regenerated by the
//! `experiments` binary in this crate (`cargo run -p netshed-bench --release
//! --bin experiments -- <id>`); the helpers here hold the code the
//! individual experiments share: building profile traces, measuring demand,
//! running a (monitor, reference) pair and collecting per-query accuracy and
//! per-bin statistics.

#![forbid(unsafe_code)]

use netshed_monitor::{
    AccuracyTracker, BinRecord, DecisionReason, Monitor, MonitorConfig, PolicySpec, RunObserver,
};
use netshed_queries::QuerySpec;
use netshed_service::MonitorEngine;
use netshed_trace::{Batch, TraceGenerator, TraceProfile};

pub mod cli;
pub mod corpus;
// Experiment tables iterate these maps straight into stdout, so they are
// ordered (determinism contract, rule `det-map`): rows print name-sorted on
// every run.
use std::collections::BTreeMap;

/// Default number of batches per experiment (60 s of traffic). The paper's
/// runs are longer (30 min traces, 8 h online executions); pass `--batches`
/// to the experiments binary to scale up.
pub const DEFAULT_BATCHES: usize = 600;

/// Default traffic scale relative to the paper's traces (keeps the default
/// experiment runtime in seconds rather than minutes).
pub const DEFAULT_SCALE: f64 = 0.5;

/// Builds the batches of a named trace profile.
pub fn profile_trace(profile: TraceProfile, seed: u64, batches: usize, scale: f64) -> Vec<Batch> {
    TraceGenerator::new(profile.config(seed, scale)).batches(batches)
}

/// Result of one (engine, reference) run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Mean accuracy per query over all measurement intervals.
    pub mean_accuracy: BTreeMap<String, f64>,
    /// Minimum per-interval accuracy per query.
    pub min_accuracy: BTreeMap<String, f64>,
    /// Per-interval error series per query.
    pub error_series: BTreeMap<String, Vec<f64>>,
    /// Per-bin records of the monitored execution, in bin then lane order
    /// (one per bin for a solo monitor, one per non-idle lane for a fleet).
    pub bins: Vec<BinRecord>,
}

impl RunResult {
    /// Mean accuracy across all queries.
    pub fn overall_mean_accuracy(&self) -> f64 {
        if self.mean_accuracy.is_empty() {
            return 0.0;
        }
        // lint:allow(merge-order): BTreeMap iterates key-sorted, so this fold order is fixed across runs and worker counts
        self.mean_accuracy.values().sum::<f64>() / self.mean_accuracy.len() as f64
    }

    /// Minimum of the per-query mean accuracies.
    pub fn overall_min_accuracy(&self) -> f64 {
        // lint:allow(merge-order): min is order-insensitive and the BTreeMap iterates key-sorted anyway
        self.mean_accuracy.values().copied().fold(f64::INFINITY, f64::min).min(1.0)
    }

    /// Global bins the run processed (a fleet contributes several records
    /// per bin, consecutively).
    fn global_bins(&self) -> usize {
        let boundaries =
            self.bins.windows(2).filter(|pair| pair[0].bin_index != pair[1].bin_index).count();
        boundaries + usize::from(!self.bins.is_empty())
    }

    /// Mean total cycles per global bin (summed over a fleet's lanes).
    pub fn mean_cycles_per_bin(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.bins.iter().map(BinRecord::total_cycles).sum::<f64>() / self.global_bins() as f64
    }

    /// Total packets dropped without control at the capture buffer.
    pub fn uncontrolled_drops(&self) -> u64 {
        self.bins.iter().map(|record| record.uncontrolled_drops).sum()
    }

    /// Records whose decision carries [`DecisionReason::DegradedFallback`] —
    /// the degradation-guard tripwire state, per run.
    pub fn degraded_bins(&self) -> u64 {
        self.bins
            .iter()
            .filter(|record| record.decision.reason == DecisionReason::DegradedFallback)
            .count() as u64
    }

    /// Mean over global bins of `max(0, query_cycles − available_cycles) /
    /// capacity` — how far the queries overran the budget, the overload
    /// symptom of a gamed predictor.
    pub fn overload_damage(&self, capacity: f64) -> f64 {
        if self.bins.is_empty() || capacity <= 0.0 {
            return 0.0;
        }
        let overload: f64 = self
            .bins
            .iter()
            .map(|record| (record.query_cycles - record.available_cycles).max(0.0))
            .sum();
        overload / (capacity * self.global_bins() as f64)
    }

    /// Mean of each record's mean sampling rate — low values flag
    /// over-shedding.
    pub fn mean_sampling_rate(&self) -> f64 {
        if self.bins.is_empty() {
            return 1.0;
        }
        self.bins.iter().map(BinRecord::mean_sampling_rate).sum::<f64>() / self.bins.len() as f64
    }
}

/// Runs engine `E` — a solo [`Monitor`] or a
/// [`ShardedMonitor`](netshed_monitor::ShardedMonitor) fleet — built from
/// `config` alongside an unconstrained reference execution and collects
/// accuracy and per-bin statistics. The configuration expresses every
/// policy and predictor, custom ones included, so this is the one harness.
///
/// `arrivals` optionally schedules extra queries to be registered at given
/// bin indices (used by the query-arrival and selfish/buggy experiments).
pub fn run_with_reference<E: MonitorEngine>(
    config: MonitorConfig,
    specs: &[QuerySpec],
    batches: &[Batch],
    arrivals: &[(usize, QuerySpec)],
) -> RunResult {
    let mut accuracy = AccuracyTracker::new(specs, config.measurement_interval_us);
    // lint:allow(no-unwrap): experiment configurations are compiled-in and valid by construction
    let mut engine = E::from_config(config).expect("valid configuration");
    for spec in specs {
        // lint:allow(no-unwrap): experiment specs are compiled-in and pass registration validation by construction
        engine.register(spec).expect("valid query spec");
    }

    let mut result = RunResult::default();
    for (index, batch) in batches.iter().enumerate() {
        for (_, spec) in arrivals.iter().filter(|(arrival_bin, _)| *arrival_bin == index) {
            // lint:allow(no-unwrap): arrival specs come from the same compiled-in experiment tables as the initial set
            engine.register(spec).expect("valid query spec");
            accuracy.register(spec);
        }
        if batch.is_empty() {
            continue;
        }
        // lint:allow(no-unwrap): the is_empty guard above rules out the only ingest error for an ample-capacity run
        let records = engine.ingest(batch, &mut accuracy).expect("non-empty batch");
        result.bins.extend_from_slice(records.as_ref());
    }
    if engine.interval_open() {
        accuracy.on_interval(&engine.finish_interval());
    }

    result.mean_accuracy = accuracy.mean_accuracy();
    result.min_accuracy = accuracy.min_accuracy();
    result.error_series = accuracy.error_series().clone();
    result
}

/// Derives the monitor capacity for a target overload factor `K`
/// (Section 5.4): `capacity = total_demand × (1 - K)`, where the total
/// demand includes the monitoring overhead measured on a no-shedding run.
pub fn capacity_for_overload(specs: &[QuerySpec], batches: &[Batch], k: f64) -> f64 {
    let warmup = batches.len().min(100);
    let demand = netshed_monitor::reference::measure_total_demand(specs, &batches[..warmup])
        .expect("valid query specs"); // lint:allow(no-unwrap): experiment specs are compiled-in and pass registration validation by construction
    (demand * (1.0 - k)).max(1.0)
}

/// Formats a `mean ± stdev` cell the way the paper's tables do.
pub fn fmt_pm(mean: f64, stdev: f64) -> String {
    format!("{mean:.4} ±{stdev:.4}")
}

/// Convenience: mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    netshed_linalg::stats::mean(values)
}

/// Convenience: standard deviation of a slice.
pub fn stdev(values: &[f64]) -> f64 {
    netshed_linalg::stats::stdev(values)
}

/// Runs a strategy and returns (mean accuracy, min accuracy) over queries,
/// the shape used by Figures 5.4 and 6.5.
pub fn strategy_accuracy(
    strategy: impl Into<PolicySpec>,
    specs: &[QuerySpec],
    batches: &[Batch],
    capacity: f64,
    seed: u64,
) -> (f64, f64) {
    let config =
        MonitorConfig::default().with_capacity(capacity).with_strategy(strategy).with_seed(seed);
    let result = run_with_reference::<Monitor>(config, specs, batches, &[]);
    (result.overall_mean_accuracy(), result.overall_min_accuracy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_monitor::{AllocationPolicy, ShardedMonitor, Strategy};
    use netshed_queries::QueryKind;

    #[test]
    fn harness_produces_accuracy_for_every_query() {
        let batches = profile_trace(TraceProfile::CescaI, 1, 40, 0.2);
        let specs = vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
        let capacity = capacity_for_overload(&specs, &batches, 0.5);
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt));
        let result = run_with_reference::<Monitor>(config.clone(), &specs, &batches, &[]);
        assert_eq!(result.mean_accuracy.len(), 2);
        assert_eq!(result.bins.len(), 40);
        assert!(result.overall_mean_accuracy() > 0.0);
        assert!(result.overall_min_accuracy() <= result.overall_mean_accuracy());
        for (name, mean) in &result.mean_accuracy {
            assert!(result.min_accuracy[name] <= *mean, "{name}: min above mean");
        }

        // The same harness drives a fleet: several records per global bin,
        // the same per-query accuracy maps.
        let fleet = run_with_reference::<ShardedMonitor>(config, &specs, &batches, &[]);
        assert_eq!(fleet.mean_accuracy.len(), 2);
        assert!(fleet.bins.len() > 40);
        assert_eq!(fleet.global_bins(), 40);
    }

    #[test]
    fn arrivals_register_queries_mid_run() {
        let batches = profile_trace(TraceProfile::CescaI, 2, 30, 0.2);
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let arrivals = vec![(10usize, QuerySpec::new(QueryKind::Flows))];
        let config = MonitorConfig::default().with_capacity(1e12);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &arrivals);
        assert!(result.mean_accuracy.contains_key("flows"));
        assert!(result.mean_accuracy.contains_key("counter"));
    }

    #[test]
    fn capacity_for_overload_scales_inversely_with_k() {
        let batches = profile_trace(TraceProfile::CescaI, 3, 30, 0.2);
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let c0 = capacity_for_overload(&specs, &batches, 0.0);
        let c05 = capacity_for_overload(&specs, &batches, 0.5);
        assert!(c0 > c05 * 1.9 && c0 < c05 * 2.1);
    }
}
