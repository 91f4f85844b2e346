//! Reference (ground truth) execution of a query set.
//!
//! Accuracy in the paper is always measured against a lossless packet-level
//! trace processed without any resource constraint (Section 2.3.3 collects a
//! full trace on a second machine for exactly this purpose). The
//! [`ReferenceRunner`] plays that role: it runs its own instances of the
//! queries over every batch at sampling rate 1.0 and reports their outputs at
//! the same measurement interval boundaries as the [`Monitor`](crate::Monitor).

use netshed_queries::{build_query_from_spec, CycleMeter, Query, QueryOutput, QuerySpec};
use netshed_trace::Batch;

/// Unconstrained reference execution used as accuracy ground truth.
pub struct ReferenceRunner {
    queries: Vec<(String, Box<dyn Query>)>,
    measurement_interval_us: u64,
    current_interval: Option<u64>,
}

impl ReferenceRunner {
    /// Creates a reference runner for the given query specifications.
    pub fn new(specs: &[QuerySpec], measurement_interval_us: u64) -> Self {
        Self {
            queries: specs
                .iter()
                .map(|spec| (spec.resolved_label(), build_query_from_spec(spec)))
                .collect(),
            measurement_interval_us,
            current_interval: None,
        }
    }

    /// Adds another query instance mid-run (mirrors
    /// [`Monitor::register`](crate::Monitor::register)).
    pub fn register(&mut self, spec: &QuerySpec) {
        self.queries.push((spec.resolved_label(), build_query_from_spec(spec)));
    }

    /// Labels of the registered queries.
    pub fn query_names(&self) -> Vec<String> {
        self.queries.iter().map(|(label, _)| label.clone()).collect()
    }

    /// Processes one batch; returns the per-query outputs when the batch
    /// starts a new measurement interval (i.e. the previous one just closed).
    pub fn process_batch(&mut self, batch: &Batch) -> Option<Vec<(String, QueryOutput)>> {
        let interval = batch.measurement_interval(self.measurement_interval_us);
        let outputs = if self.current_interval.is_some() && self.current_interval != Some(interval)
        {
            Some(self.close_interval())
        } else {
            None
        };
        self.current_interval = Some(interval);

        let view = batch.view();
        for (_, query) in &mut self.queries {
            query.process_batch(&view, 1.0, &mut CycleMeter::new());
        }
        outputs
    }

    /// Flushes the final interval.
    pub fn finish_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.current_interval = None;
        self.close_interval()
    }

    fn close_interval(&mut self) -> Vec<(String, QueryOutput)> {
        self.queries
            .iter_mut()
            .map(|(label, query)| (label.clone(), query.end_interval()))
            .collect()
    }
}

/// Measures the mean per-bin *total* demand of a query set — query cycles
/// plus the monitoring system's own overhead (feature extraction, prediction,
/// platform tasks) — by running an unconstrained monitor without shedding.
///
/// This is the right baseline for setting a capacity with a target overload
/// factor: the monitoring overhead is not sheddable, so a capacity below it
/// starves every query regardless of the strategy.
///
/// # Errors
///
/// Returns [`NetshedError::InvalidConfig`](crate::NetshedError::InvalidConfig)
/// when a spec in `specs` is rejected by the measuring monitor — the same
/// validation [`Monitor::register`](crate::Monitor::register) applies.
pub fn measure_total_demand(
    specs: &[QuerySpec],
    batches: &[Batch],
) -> Result<f64, crate::NetshedError> {
    use crate::config::{MonitorConfig, Strategy};
    let config = MonitorConfig::default()
        .with_capacity(1e15)
        .with_strategy(Strategy::NoShedding)
        .without_noise();
    let mut monitor = crate::Monitor::new(config);
    for spec in specs {
        monitor.register(spec)?;
    }
    let mut processed = Vec::new();
    for batch in batches.iter().filter(|batch| !batch.is_empty()) {
        processed.push(monitor.process_batch(batch)?.total_cycles());
    }
    if processed.is_empty() {
        return Ok(0.0);
    }
    // Quiet bins are excluded from the mean: demand is per *active* bin, so a
    // capacity derived from it errs towards over- rather than under-provision.
    Ok(processed.iter().sum::<f64>() / processed.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_queries::QueryKind;
    use netshed_trace::{TraceConfig, TraceGenerator};

    #[test]
    fn reference_emits_outputs_per_interval() {
        let mut generator = TraceGenerator::new(
            TraceConfig::default().with_seed(1).with_mean_packets_per_batch(100.0),
        );
        let specs = vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
        let mut runner = ReferenceRunner::new(&specs, 1_000_000);
        let mut closed = 0;
        for _ in 0..25 {
            if runner.process_batch(&generator.next_batch()).is_some() {
                closed += 1;
            }
        }
        assert_eq!(closed, 2);
        let final_outputs = runner.finish_interval();
        assert_eq!(final_outputs.len(), 2);
        assert_eq!(runner.query_names(), vec!["counter".to_string(), "flows".to_string()]);
    }

    #[test]
    fn total_demand_is_positive_and_grows_with_query_count() {
        let mut generator = TraceGenerator::new(
            TraceConfig::default().with_seed(2).with_mean_packets_per_batch(200.0),
        );
        let batches = generator.batches(10);
        let demand = |specs: &[QuerySpec]| measure_total_demand(specs, &batches).expect("valid");
        let one = demand(&[QuerySpec::new(QueryKind::Counter)]);
        let two = demand(&[QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)]);
        assert!(one > 0.0);
        assert!(two > one);
    }
}
