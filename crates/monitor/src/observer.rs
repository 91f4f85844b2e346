//! Run observers: pluggable per-bin and per-interval bookkeeping.
//!
//! [`Monitor::run`](crate::Monitor::run) drives the pipeline; a
//! [`RunObserver`] watches it. Observers replace the hand-rolled bookkeeping
//! loops of the old API — collecting summaries, streaming records to disk and
//! tracking accuracy against a reference execution all become reusable
//! components that can be composed with plain tuples:
//!
//! ```
//! use netshed_monitor::{AccuracyTracker, Monitor, RunSummary};
//! use netshed_queries::{QueryKind, QuerySpec};
//! use netshed_trace::{PacketSourceExt, TraceConfig, TraceGenerator};
//!
//! let specs = vec![QuerySpec::new(QueryKind::Counter)];
//! let mut monitor =
//!     Monitor::builder().capacity(1e12).no_noise().queries(specs.clone()).build().unwrap();
//! let mut source = TraceGenerator::new(TraceConfig::default()).take_batches(12);
//! let mut accuracy = AccuracyTracker::new(&specs, monitor.config().measurement_interval_us);
//! let summary = monitor.run(&mut source, &mut accuracy).unwrap();
//! assert_eq!(summary.bins + summary.empty_bins, 12);
//! assert!(accuracy.mean_accuracy().values().all(|a| *a > 0.99));
//! ```

use crate::policy::ControlDecision;
use crate::reference::ReferenceRunner;
use crate::report::{BinRecord, RunSummary};
use netshed_queries::{QueryOutput, QuerySpec};
use netshed_trace::Batch;
// The tracker's error maps are part of the public API and get iterated by
// callers (reports, plots), so they are ordered (determinism contract, rule
// `det-map`): name-sorted on every run, independent of insertion history.
use std::collections::BTreeMap;
use std::io::Write;

/// Receives pipeline events during [`Monitor::run`](crate::Monitor::run).
///
/// All methods default to no-ops, so implementations override only the
/// events they care about. Per processed batch the order is `on_batch` →
/// `on_interval` (only when that batch closed a measurement interval) →
/// `on_decision` → `on_bin`; after the source is exhausted the final
/// interval flush arrives via `on_interval` and `on_end` closes the run.
pub trait RunObserver {
    /// Called with every non-empty batch before the monitor processes it.
    fn on_batch(&mut self, batch: &Batch) {
        let _ = batch;
    }

    /// Called after each processed bin with the control-plane decision that
    /// set its sampling rates — why the bin was (or was not) shed. The same
    /// decision also rides on the subsequent `on_bin` record.
    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        let _ = (bin_index, decision);
    }

    /// Called after each processed bin with its full record.
    fn on_bin(&mut self, record: &BinRecord) {
        let _ = record;
    }

    /// Called whenever a measurement interval closes, with the per-query
    /// outputs (label → output).
    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        let _ = outputs;
    }

    /// Called once when the run ends, with the aggregated summary.
    fn on_end(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

/// Ignores every event (for runs where only the returned summary matters).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// A [`RunSummary`] can observe a run directly, accumulating itself.
impl RunObserver for RunSummary {
    fn on_bin(&mut self, record: &BinRecord) {
        self.absorb(record);
    }

    fn on_end(&mut self, summary: &RunSummary) {
        // Empty bins never reach `on_bin` (the run skips them), so take the
        // count from the authoritative summary to stay identical to it.
        self.empty_bins = summary.empty_bins;
    }
}

/// Observers compose with tuples: both members see every event.
impl<A: RunObserver, B: RunObserver> RunObserver for (A, B) {
    fn on_batch(&mut self, batch: &Batch) {
        self.0.on_batch(batch);
        self.1.on_batch(batch);
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.0.on_decision(bin_index, decision);
        self.1.on_decision(bin_index, decision);
    }

    fn on_bin(&mut self, record: &BinRecord) {
        self.0.on_bin(record);
        self.1.on_bin(record);
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.0.on_interval(outputs);
        self.1.on_interval(outputs);
    }

    fn on_end(&mut self, summary: &RunSummary) {
        self.0.on_end(summary);
        self.1.on_end(summary);
    }
}

/// Output format of a [`RecordSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkFormat {
    Csv,
    Json,
}

/// Streams one line per processed bin to any [`Write`] destination.
///
/// CSV emits a header row followed by data rows; JSON emits newline-delimited
/// objects (NDJSON), one per bin — both formats load directly into pandas /
/// polars / jq for the plotting work the paper's figures need.
pub struct RecordSink<W: Write> {
    writer: W,
    format: SinkFormat,
    header_written: bool,
    error: Option<std::io::Error>,
}

impl<W: Write> RecordSink<W> {
    /// A sink writing CSV rows.
    pub fn csv(writer: W) -> Self {
        Self { writer, format: SinkFormat::Csv, header_written: false, error: None }
    }

    /// A sink writing newline-delimited JSON objects.
    pub fn json(writer: W) -> Self {
        Self { writer, format: SinkFormat::Json, header_written: false, error: None }
    }

    /// Finishes writing and returns the destination. Check [`Self::error`]
    /// first: a sink that hit an I/O error stopped writing at that point.
    pub fn into_inner(self) -> W {
        self.writer
    }

    /// The first I/O error the destination reported, if any. Observers
    /// cannot abort a run, so failures are latched here instead of lost.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    fn write_record(&mut self, record: &BinRecord) -> std::io::Result<()> {
        match self.format {
            SinkFormat::Csv => {
                if !self.header_written {
                    writeln!(
                        self.writer,
                        "bin_index,incoming_packets,uncontrolled_drops,unsampled_packets,\
                         available_cycles,predicted_cycles,query_cycles,total_cycles,\
                         buffer_occupation,mean_sampling_rate"
                    )?;
                    self.header_written = true;
                }
                writeln!(
                    self.writer,
                    "{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.4},{:.4}",
                    record.bin_index,
                    record.incoming_packets,
                    record.uncontrolled_drops,
                    record.unsampled_packets,
                    record.available_cycles,
                    record.predicted_cycles,
                    record.query_cycles,
                    record.total_cycles(),
                    record.buffer_occupation,
                    record.mean_sampling_rate()
                )
            }
            SinkFormat::Json => {
                writeln!(
                    self.writer,
                    "{{\"bin_index\":{},\"incoming_packets\":{},\"uncontrolled_drops\":{},\
                     \"unsampled_packets\":{},\"available_cycles\":{:.1},\
                     \"predicted_cycles\":{:.1},\"query_cycles\":{:.1},\"total_cycles\":{:.1},\
                     \"buffer_occupation\":{:.4},\"mean_sampling_rate\":{:.4}}}",
                    record.bin_index,
                    record.incoming_packets,
                    record.uncontrolled_drops,
                    record.unsampled_packets,
                    record.available_cycles,
                    record.predicted_cycles,
                    record.query_cycles,
                    record.total_cycles(),
                    record.buffer_occupation,
                    record.mean_sampling_rate()
                )
            }
        }
    }
}

impl<W: Write> RunObserver for RecordSink<W> {
    fn on_bin(&mut self, record: &BinRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = self.write_record(record) {
            self.error = Some(error);
        }
    }

    fn on_end(&mut self, _summary: &RunSummary) {
        if self.error.is_none() {
            if let Err(error) = self.writer.flush() {
                self.error = Some(error);
            }
        }
    }
}

/// Tracks per-query accuracy against an unconstrained reference execution.
///
/// The tracker feeds every batch to its own [`ReferenceRunner`] and pairs the
/// monitor's interval outputs with the reference's, accumulating the
/// per-query error series that the paper's accuracy evaluations plot.
pub struct AccuracyTracker {
    reference: ReferenceRunner,
    pending_truth: Option<Vec<(String, QueryOutput)>>,
    errors: BTreeMap<String, Vec<f64>>,
}

impl AccuracyTracker {
    /// Creates a tracker running the given specs as ground truth.
    ///
    /// `measurement_interval_us` must equal the monitored side's interval or
    /// the two executions close intervals on different boundaries and the
    /// pairing silently misaligns — derive it from the monitor:
    /// `AccuracyTracker::new(&specs, monitor.config().measurement_interval_us)`.
    pub fn new(specs: &[QuerySpec], measurement_interval_us: u64) -> Self {
        Self {
            reference: ReferenceRunner::new(specs, measurement_interval_us),
            pending_truth: None,
            errors: BTreeMap::new(),
        }
    }

    /// Registers another reference query mid-run (mirror any
    /// [`Monitor::register`](crate::Monitor::register) call on the monitored
    /// side, or the outputs will stop lining up).
    pub fn register(&mut self, spec: &QuerySpec) {
        self.reference.register(spec);
    }

    /// Per-query mean relative error over the run, name-sorted.
    pub fn mean_error(&self) -> BTreeMap<String, f64> {
        self.errors
            .iter()
            .map(|(name, errs)| (name.clone(), errs.iter().sum::<f64>() / errs.len().max(1) as f64))
            .collect()
    }

    /// Per-query mean accuracy (1 - error) over the run, name-sorted.
    pub fn mean_accuracy(&self) -> BTreeMap<String, f64> {
        self.mean_error().into_iter().map(|(name, err)| (name, 1.0 - err)).collect()
    }

    /// Per-query minimum accuracy over the run's measurement intervals — the
    /// worst interval each query saw — name-sorted.
    pub fn min_accuracy(&self) -> BTreeMap<String, f64> {
        self.errors
            .iter()
            .map(|(name, errs)| (name.clone(), 1.0 - errs.iter().copied().fold(0.0, f64::max)))
            .collect()
    }

    /// Per-query error series, one value per closed measurement interval,
    /// name-sorted.
    pub fn error_series(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.errors
    }

    fn pair(&mut self, outputs: &[(String, QueryOutput)], truths: &[(String, QueryOutput)]) {
        for ((name, output), (truth_name, truth)) in outputs.iter().zip(truths) {
            debug_assert_eq!(name, truth_name, "monitor and reference must stay in lockstep");
            self.errors.entry(name.clone()).or_default().push(output.error_against(truth));
        }
    }
}

impl RunObserver for AccuracyTracker {
    fn on_batch(&mut self, batch: &Batch) {
        if let Some(truths) = self.reference.process_batch(batch) {
            self.pending_truth = Some(truths);
        }
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        // Mid-run intervals pair with the truth the reference emitted for the
        // same batch; the final flush (no batch preceded it) closes the
        // reference's own last interval instead.
        let truths = match self.pending_truth.take() {
            Some(truths) => truths,
            None => self.reference.finish_interval(),
        };
        self.pair(outputs, &truths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::monitor::Monitor;
    use netshed_queries::QueryKind;
    use netshed_trace::{PacketSourceExt, TraceConfig, TraceGenerator};

    fn test_monitor(specs: &[QuerySpec]) -> Monitor {
        let mut monitor =
            Monitor::new(MonitorConfig::default().with_capacity(1e12).without_noise());
        for spec in specs {
            monitor.register(spec).expect("valid spec");
        }
        monitor
    }

    fn test_source(batches: usize) -> impl netshed_trace::PacketSource {
        TraceGenerator::new(TraceConfig::default().with_seed(5).with_mean_packets_per_batch(80.0))
            .take_batches(batches)
    }

    #[test]
    fn summary_observer_matches_returned_summary() {
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut observed = RunSummary::default();
        let returned = monitor.run(&mut test_source(15), &mut observed).expect("run");
        assert_eq!(observed.bins, returned.bins);
        assert_eq!(observed.cycles_per_bin, returned.cycles_per_bin);
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut sink = RecordSink::csv(Vec::new());
        let summary = monitor.run(&mut test_source(8), &mut sink).expect("run");
        let written = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len() as u64, summary.bins + 1);
        assert!(lines[0].starts_with("bin_index,"));
        assert!(lines[1].split(',').count() >= 10);
    }

    #[test]
    fn json_sink_writes_one_object_per_bin() {
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut sink = RecordSink::json(Vec::new());
        let summary = monitor.run(&mut test_source(8), &mut sink).expect("run");
        let written = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len() as u64, summary.bins);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[0].contains("\"bin_index\":0"));
    }

    #[test]
    fn accuracy_tracker_reports_perfect_accuracy_without_shedding() {
        let specs = vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
        let mut monitor = test_monitor(&specs);
        let mut tracker = AccuracyTracker::new(&specs, 1_000_000);
        monitor.run(&mut test_source(25), &mut tracker).expect("run");
        let accuracy = tracker.mean_accuracy();
        assert_eq!(accuracy.len(), 2);
        for (name, value) in accuracy {
            assert!(value > 0.999, "{name} accuracy {value} should be perfect without shedding");
        }
        assert!(tracker.min_accuracy().values().all(|&worst| worst > 0.999));
        // 25 batches = 2 mid-run intervals + the final flush.
        assert!(tracker.error_series().values().all(|series| series.len() == 3));
    }

    #[test]
    fn accuracy_maps_iterate_in_query_name_order() {
        // Registration order is flows-before-counter on purpose: the maps
        // must iterate name-sorted regardless of insertion history, so the
        // accuracy report is byte-identical run over run.
        let specs = vec![QuerySpec::new(QueryKind::Flows), QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut tracker = AccuracyTracker::new(&specs, 1_000_000);
        monitor.run(&mut test_source(12), &mut tracker).expect("run");
        let names: Vec<String> = tracker.mean_error().into_keys().collect();
        assert_eq!(names, vec!["counter", "flows"]);
        let series_names: Vec<&String> = tracker.error_series().keys().collect();
        assert_eq!(series_names, vec!["counter", "flows"]);
    }

    #[test]
    fn record_sink_latches_the_first_io_error() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }

            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut sink = RecordSink::csv(FailingWriter);
        monitor.run(&mut test_source(4), &mut sink).expect("run itself succeeds");
        let error = sink.error().expect("write failure must be latched, not lost");
        assert_eq!(error.to_string(), "disk full");
    }

    #[test]
    fn summary_observer_tracks_empty_bins() {
        use netshed_trace::{Batch, BatchReplay};
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut batches = TraceGenerator::new(
            TraceConfig::default().with_seed(8).with_mean_packets_per_batch(50.0),
        )
        .batches(5);
        batches.insert(2, Batch::empty(99, 9_900_000, 100_000));
        let mut observed = RunSummary::default();
        let returned = monitor.run(&mut BatchReplay::new(batches), &mut observed).expect("run");
        assert_eq!(returned.empty_bins, 1);
        assert_eq!(observed, returned, "the observing summary must match the returned one");
    }

    #[test]
    fn decisions_are_observed_once_per_bin() {
        use crate::policy::DecisionReason;
        struct Decisions {
            bins: Vec<u64>,
            all_full: bool,
        }
        impl RunObserver for Decisions {
            fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
                self.bins.push(bin_index);
                self.all_full &= decision.reason == DecisionReason::FitsInBudget
                    && decision.rates.iter().all(|rate| (*rate - 1.0).abs() < 1e-12);
            }
        }
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut decisions = Decisions { bins: Vec::new(), all_full: true };
        let summary = monitor.run(&mut test_source(10), &mut decisions).expect("run");
        assert_eq!(decisions.bins.len() as u64, summary.bins);
        assert!(decisions.all_full, "ample capacity must never shed");
    }

    #[test]
    fn tuple_observers_both_see_events() {
        let specs = vec![QuerySpec::new(QueryKind::Counter)];
        let mut monitor = test_monitor(&specs);
        let mut pair = (RunSummary::default(), RecordSink::csv(Vec::new()));
        let returned = monitor.run(&mut test_source(6), &mut pair).expect("run");
        assert_eq!(pair.0.bins, returned.bins);
        assert!(!pair.1.into_inner().is_empty());
    }
}
