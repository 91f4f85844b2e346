//! Per-bin and per-run records produced by the monitor.

use crate::monitor::QueryId;
use crate::policy::ControlDecision;
use netshed_queries::QueryOutput;
use std::sync::Arc;

/// The labels of a monitor's registered queries, in registration order: the
/// one table every record of a bin indexes (see [`BinRecord::label`]).
///
/// A bin shares the monitor's table — one reference count a bin, not one a
/// query — and a registry change after it writes a new table rather than
/// this one, so a kept record's labels stay the ones its queries had.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelTable(Arc<Vec<Arc<str>>>);

impl LabelTable {
    /// The labels in registration order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|label| &**label)
    }

    /// The labels themselves, for the registry to edit: in place while no
    /// record shares the table, on a copy of it otherwise.
    pub(crate) fn edit(&mut self) -> &mut Vec<Arc<str>> {
        Arc::make_mut(&mut self.0)
    }
}

impl std::ops::Index<usize> for LabelTable {
    type Output = str;

    fn index(&self, index: usize) -> &str {
        &self.0[index]
    }
}

/// What happened to one query during one time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBinRecord {
    /// Handle of the query instance.
    pub id: QueryId,
    /// Where the query's label (the kind's paper name unless the spec set an
    /// explicit label) sits in its bin's [`BinRecord::labels`]: resolve it
    /// with [`BinRecord::label`].
    pub label: u32,
    /// Sampling rate assigned to the query for this bin (0 = disabled).
    pub sampling_rate: f64,
    /// Cycles the prediction subsystem expected the query to need for the
    /// full batch.
    pub predicted_cycles: f64,
    /// Cycles the query actually consumed (after sampling / custom shedding).
    pub measured_cycles: f64,
    /// Packets delivered to the query after load shedding.
    pub delivered_packets: u64,
    /// Whether the query was disabled for this bin (by the allocation or by
    /// the enforcement policy).
    pub disabled: bool,
}

/// Everything that happened during one time bin.
///
/// Records compare with `==` so replay tests can pin bit-identical streams
/// (the execution-plane determinism contract relies on this).
#[derive(Debug, Clone, PartialEq)]
pub struct BinRecord {
    /// Index of the time bin.
    pub bin_index: u64,
    /// Packets that arrived at the capture interface during the bin.
    pub incoming_packets: u64,
    /// Packets dropped without control at the capture buffer (DAG drops).
    pub uncontrolled_drops: u64,
    /// Packets not processed because of controlled sampling (summed over
    /// queries would double count; this is packets of the post-drop batch not
    /// delivered to at least one query because of its sampling rate, averaged
    /// over queries).
    pub unsampled_packets: u64,
    /// Cycles available to process queries in this bin (after overhead and
    /// buffer discovery adjustments).
    pub available_cycles: f64,
    /// Sum of the per-query full-batch predictions.
    pub predicted_cycles: f64,
    /// Total cycles actually consumed by the queries.
    pub query_cycles: f64,
    /// Cycles spent extracting features and computing predictions.
    pub prediction_cycles: f64,
    /// Cycles spent applying load shedding (sampling + feature re-extraction).
    pub shedding_cycles: f64,
    /// Fixed platform overhead cycles.
    pub platform_cycles: f64,
    /// Capture buffer occupation at the end of the bin (0..1).
    pub buffer_occupation: f64,
    /// Per-query details.
    pub queries: Vec<QueryBinRecord>,
    /// The labels of the queries registered when the bin ran, which every
    /// per-query record indexes.
    pub labels: LabelTable,
    /// Query outputs emitted at the end of the measurement interval this bin
    /// closed, if any (query label → output).
    pub interval_outputs: Option<Vec<(String, QueryOutput)>>,
    /// The control-plane decision that produced the sampling rates of this
    /// bin: chosen rates, allocator budget, inflation factor, per-query
    /// allocation detail and the reason the policy gives for them.
    pub decision: ControlDecision,
}

impl BinRecord {
    /// Total cycles consumed in the bin (queries + all overheads).
    pub fn total_cycles(&self) -> f64 {
        self.query_cycles + self.prediction_cycles + self.shedding_cycles + self.platform_cycles
    }

    /// Average sampling rate over the enabled queries (1.0 when nothing was
    /// shed).
    pub fn mean_sampling_rate(&self) -> f64 {
        if self.queries.is_empty() {
            return 1.0;
        }
        self.queries.iter().map(|q| q.sampling_rate).sum::<f64>() / self.queries.len() as f64
    }

    /// The record of one query, looked up by handle.
    pub fn query(&self, id: QueryId) -> Option<&QueryBinRecord> {
        self.queries.iter().find(|q| q.id == id)
    }

    /// The label of one of this bin's per-query records.
    ///
    /// # Panics
    ///
    /// When `query` is not a record of this bin (its index is past the
    /// bin's label table).
    pub fn label(&self, query: &QueryBinRecord) -> &str {
        &self.labels[query.label as usize]
    }
}

/// Aggregated statistics over a full run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Number of bins processed.
    pub bins: u64,
    /// Empty time bins skipped by [`Engine::run`](crate::Engine::run)
    /// (quiet bins carry no work and are not an error mid-stream).
    pub empty_bins: u64,
    /// Total packets that arrived.
    pub total_packets: u64,
    /// Total uncontrolled drops.
    pub total_uncontrolled_drops: u64,
    /// Per-bin total cycles consumed (for CDFs like Figure 4.1).
    pub cycles_per_bin: Vec<f64>,
    /// Per-bin prediction error of the aggregate prediction.
    pub prediction_errors: Vec<f64>,
}

impl RunSummary {
    /// Folds one bin's record into the summary.
    pub fn absorb(&mut self, record: &BinRecord) {
        self.bins += 1;
        self.total_packets += record.incoming_packets;
        self.total_uncontrolled_drops += record.uncontrolled_drops;
        self.cycles_per_bin.push(record.total_cycles());
        if record.query_cycles > 0.0 {
            self.prediction_errors
                .push((1.0 - record.predicted_cycles / record.query_cycles).abs());
        }
    }

    /// Fraction of all packets that were dropped without control.
    pub fn uncontrolled_drop_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        self.total_uncontrolled_drops as f64 / self.total_packets as f64
    }

    /// Mean total cycles per processed bin.
    pub fn mean_cycles_per_bin(&self) -> f64 {
        if self.cycles_per_bin.is_empty() {
            return 0.0;
        }
        self.cycles_per_bin.iter().sum::<f64>() / self.cycles_per_bin.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(query_cycles: f64, predicted: f64) -> BinRecord {
        BinRecord {
            bin_index: 0,
            incoming_packets: 100,
            uncontrolled_drops: 10,
            unsampled_packets: 0,
            available_cycles: 1000.0,
            predicted_cycles: predicted,
            query_cycles,
            prediction_cycles: 10.0,
            shedding_cycles: 5.0,
            platform_cycles: 20.0,
            buffer_occupation: 0.5,
            queries: vec![],
            labels: LabelTable::default(),
            interval_outputs: None,
            decision: ControlDecision::default(),
        }
    }

    #[test]
    fn total_cycles_sums_components() {
        assert_eq!(record(100.0, 100.0).total_cycles(), 135.0);
    }

    #[test]
    fn summary_accumulates_bins_and_drops() {
        let mut summary = RunSummary::default();
        summary.absorb(&record(100.0, 90.0));
        summary.absorb(&record(200.0, 210.0));
        assert_eq!(summary.bins, 2);
        assert_eq!(summary.total_packets, 200);
        assert_eq!(summary.total_uncontrolled_drops, 20);
        assert_eq!(summary.cycles_per_bin.len(), 2);
        assert!((summary.uncontrolled_drop_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(summary.prediction_errors.len(), 2);
        assert!(summary.mean_cycles_per_bin() > 0.0);
        assert!(summary.prediction_errors.iter().all(|error| *error > 0.0));
    }

    #[test]
    fn mean_sampling_rate_defaults_to_one() {
        assert_eq!(record(1.0, 1.0).mean_sampling_rate(), 1.0);
    }

    #[test]
    fn summaries_compare_for_roundtrip_tests() {
        let mut a = RunSummary::default();
        let mut b = RunSummary::default();
        a.absorb(&record(100.0, 90.0));
        b.absorb(&record(100.0, 90.0));
        assert_eq!(a, b);
        b.absorb(&record(1.0, 1.0));
        assert_ne!(a, b);
    }
}
