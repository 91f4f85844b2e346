//! Every table and figure of the paper's evaluation, as values.
//!
//! One registry ([`ALL`]) maps an experiment id to its description, the trace
//! sizes it accepts and a driver `fn(&Options) -> Vec<Table>`. A driver
//! computes rows and never formats or prints — [`crate::report`] lays the
//! tables out, for a person (`experiments <id>`) or a program
//! (`BENCH_accuracy.json`) — and [`crate::claims`] states what the paper says
//! those rows should show. Numbers differ from the paper's in absolute value
//! because the substrate is a synthetic trace and a simulated cycle model
//! (see "Reproducing the paper" in the repository README).

use crate::corpus::{corpus_capacity, corpus_specs};
use crate::report::{num, Cell, Table};
use crate::{
    capacity_for_overload, experiment_config, profile_trace, run_strategy, run_with_reference,
    RunResult,
};
use netshed_fairness::{mmfs_cpu, mmfs_pkt, Allocation, AllocationGame, FairnessMode, QueryDemand};
use netshed_features::{Aggregate, CounterKind, FeatureExtractor, FeatureId, FeatureVector};
use netshed_linalg::stats::{max, mean, percentile, stdev};
use netshed_monitor::{
    AllocationPolicy, BinRecord, Monitor, MonitorConfig, QueryBinRecord, ShardedMonitor, Strategy,
};
use netshed_predict::{
    ErrorStats, EwmaPredictor, FcbfConfig, MlrConfig, MlrPredictor, Predictor, SlrPredictor,
};
use netshed_queries::{
    build_query, CustomBehavior, CycleMeter, MeasurementNoise, QueryKind, QuerySpec,
};
use netshed_trace::scenario::builtin;
use netshed_trace::{Anomaly, AnomalyKind, Batch, KeepListPool, TraceGenerator, TraceProfile};
use std::iter::once;

/// What the three `experiments` flags resolve to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Batches per experiment, as requested; a driver sees it clamped by its
    /// registry entry.
    pub batches: usize,
    /// Traffic scale relative to the paper's traces.
    pub scale: f64,
    /// Trace and monitor seed.
    pub seed: u64,
}

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// The id `experiments <id>` takes.
    pub id: &'static str,
    /// The paper artefact it regenerates.
    pub description: &'static str,
    /// The smallest `--batches` at which the tables mean something; a smaller
    /// request is a usage error.
    pub min: usize,
    /// The request is clamped into `clamp.0..=clamp.1` before the driver sees
    /// it; equal ends mean the size is fixed and the flag ignored.
    pub clamp: (usize, usize),
    driver: fn(&Options) -> Vec<Table>,
}

impl Experiment {
    /// The experiment's tables, at `options.batches` clamped by the entry.
    pub fn run(&self, options: &Options) -> Vec<Table> {
        let batches = options.batches.clamp(self.clamp.0, self.clamp.1);
        (self.driver)(&Options { batches, ..*options })
    }

    /// What the entry does with `--batches`, for `experiments list`.
    pub fn sizing(&self) -> String {
        match self.clamp {
            (lo, hi) if lo == hi => format!("fixed {lo}"),
            (lo, MAX) if lo == self.min => format!("min {lo}"),
            (lo, MAX) => format!("min {}, runs >= {lo}", self.min),
            (_, hi) => format!("min {}, max {hi}", self.min),
        }
    }
}

/// The registry entry of `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|experiment| experiment.id == id)
}

const fn entry(
    id: &'static str,
    min: usize,
    clamp: (usize, usize),
    driver: fn(&Options) -> Vec<Table>,
    description: &'static str,
) -> Experiment {
    Experiment { id, description, min, clamp, driver }
}

const MAX: usize = usize::MAX;

/// Every experiment, in the paper's order: id, minimum, clamp, driver,
/// description.
// Minimums: prediction experiments skip a 60-bin warm-up, monitor runs need a
// few 10-bin measurement intervals, and arrivals and attacks are placed at
// fractions of the run that must themselves span intervals.
#[rustfmt::skip]
pub const ALL: &[Experiment] = &[
    entry("fig2_2",                    10, (10, 300),  fig2_2,                    "average cost per second of the CoMo queries"),
    entry("fig3_1",                    1,  (100, 100), fig3_1,                    "CPU usage of an unknown query vs packets/bytes/flows under an anomaly"),
    entry("fig3_3",                    1,  (200, 200), fig3_3,                    "scatter of CPU usage vs packets per batch (flows query)"),
    entry("fig3_4",                    1,  (200, 200), fig3_4,                    "SLR vs MLR prediction over time (flows query)"),
    entry("fig3_5",                    1,  (300, 300), fig3_5,                    "prediction error vs cost as a function of history and FCBF threshold"),
    entry("fig3_6",                    1,  (300, 300), fig3_6,                    "prediction error per query vs history and FCBF threshold"),
    entry("fig3_7_8",                  80, (80, 400),  fig3_7_8,                  "prediction error over time on the four trace profiles"),
    entry("fig3_9",                    1,  (150, 150), fig3_9,                    "EWMA vs SLR prediction for the counter query"),
    entry("fig3_10",                   1,  (300, 300), fig3_10,                   "EWMA prediction error as a function of the weight alpha"),
    entry("fig3_11_12",                80, (80, 400),  fig3_11_12,                "EWMA/SLR/MLR error over time, maximum and 95th percentile"),
    entry("fig3_13_15",                80, (80, 300),  fig3_13_15,                "EWMA/SLR/MLR prediction under a DDoS attack (flows query)"),
    entry("tab3_2",                    80, (80, 400),  tab3_2,                    "breakdown of MLR+FCBF prediction error and selected features by query"),
    entry("tab3_3",                    80, (80, 400),  tab3_3,                    "EWMA vs SLR vs MLR+FCBF error statistics per query"),
    entry("tab3_4",                    20, (20, 300),  tab3_4,                    "prediction overhead breakdown"),
    entry("fig4_1",                    20, (20, MAX),  fig4_1,                    "CDF of the CPU usage per batch for the three systems"),
    entry("fig4_2",                    20, (20, MAX),  fig4_2,                    "link load, uncontrolled drops and unsampled packets per system"),
    entry("fig4_3",                    20, (20, MAX),  fig4_3,                    "average error in the query answers per system"),
    entry("fig4_4",                    20, (20, MAX),  fig4_4,                    "CPU usage after load shedding (stacked) and predicted load"),
    entry("fig4_5_6",                  80, (80, 400),  fig4_5_6,                  "CPU usage and flows error with/without shedding under a SYN flood"),
    entry("tab4_1",                    20, (20, MAX),  tab4_1,                    "accuracy error per query: predictive vs original vs reactive"),
    entry("fig5_1",                    1,  (0, 0),     fig5_1,                    "mmfs_pkt minus mmfs_cpu accuracy, simulated 1 heavy + 10 light queries"),
    entry("fig5_2",                    20, (20, 300),  fig5_2,                    "mmfs_pkt minus mmfs_cpu accuracy, 1 trace + 10 counter queries"),
    entry("fig5_4",                    20, (20, 400),  fig5_4,                    "average and minimum accuracy of the strategies vs overload level"),
    entry("fig5_5",                    20, (20, 400),  fig5_5,                    "autofocus accuracy over time at K=0.2 for the four strategies"),
    entry("tab5_2",                    20, (20, 400),  tab5_2,                    "minimum sampling rates and accuracy per query at K=0.5"),
    entry("fig6_1_3",                  20, (20, 400),  fig6_1_3,                  "custom shedding of the p2p-detector: cycles, accuracy, overuse"),
    entry("fig6_4",                    20, (20, 300),  fig6_4,                    "accuracy vs sampling rate (high-watermark, top-k, p2p-detector)"),
    entry("fig6_5",                    20, (20, 400),  fig6_5,                    "average and minimum accuracy vs overload with custom shedding"),
    entry("fig6_6_7",                  20, (20, MAX),  fig6_6_7,                  "eq_srates without custom shedding vs mmfs_pkt with custom shedding"),
    entry("fig6_8",                    40, (40, MAX),  fig6_8,                    "performance under a massive DDoS attack"),
    entry("fig6_9",                    40, (40, MAX),  fig6_9,                    "effect of new query arrivals"),
    entry("fig6_10",                   40, (40, MAX),  fig6_10,                   "robustness against selfish queries"),
    entry("fig6_11",                   40, (40, MAX),  fig6_11,                   "robustness against buggy queries"),
    entry("fig6_12_14",                1,  (600, MAX), fig6_12_14,                "long run: CPU, drops, accuracy and shedding rate over time (Table 6.2)"),
    entry("ablation_rtthresh",         20, (20, MAX),  ablation_rtthresh,         "ablation: buffer discovery on/off"),
    entry("ablation_error_correction", 20, (20, MAX),  ablation_error_correction, "ablation: EWMA error correction on/off"),
    entry("fleet_quality",             20, (20, 400),  fleet_quality,             "accuracy, uncontrolled drops and predictors per bin: 1/2/4/8-lane fleets vs the solo monitor"),
];

// --------------------------------------------------------------------------
// Shared helpers
// --------------------------------------------------------------------------

/// The victim of every injected attack.
const TARGET: u32 = 0x0a00_0001;

const NO_LSHED: Strategy = Strategy::NoShedding;
const REACTIVE: Strategy = Strategy::Reactive(AllocationPolicy::EqualRates);
const EQ_SRATES: Strategy = Strategy::Predictive(AllocationPolicy::EqualRates);
const MMFS_CPU: Strategy = Strategy::Predictive(AllocationPolicy::MmfsCpu);
const MMFS_PKT: Strategy = Strategy::Predictive(AllocationPolicy::MmfsPkt);

/// The five systems Chapter 5 compares, under the names its figures use.
const STRATEGIES: [(&str, Strategy); 5] = [
    ("no_lshed", NO_LSHED),
    ("reactive", REACTIVE),
    ("eq_srates", EQ_SRATES),
    ("mmfs_cpu", MMFS_CPU),
    ("mmfs_pkt", MMFS_PKT),
];

/// Builds a fresh predictor.
type MakePredictor = fn() -> Box<dyn Predictor>;

/// The three prediction methods Chapter 3 compares.
const PREDICTORS: [(&str, MakePredictor); 3] = [
    ("ewma", || Box::new(EwmaPredictor::new(0.3))),
    ("slr", || Box::new(SlrPredictor::on_packets())),
    ("mlr+fcbf", || Box::new(mlr_predictor(60, 0.6))),
];

/// Bins a predictor observes before its errors count.
const WARMUP: usize = 60;

const P2P: &str = "p2p-detector";

/// Per batch, the feature vector and the (noisy) measured cycles of one query.
type Series = Vec<(FeatureVector, f64)>;

fn specs_of(kinds: &[QueryKind]) -> Vec<QuerySpec> {
    kinds.iter().map(|kind| QuerySpec::new(*kind)).collect()
}

fn trace(profile: TraceProfile, options: &Options) -> Vec<Batch> {
    profile_trace(profile, options.seed, options.batches, options.scale)
}

/// A profile's trace with one anomaly injected.
fn attacked_trace(profile: TraceProfile, options: &Options, anomaly: Anomaly) -> Vec<Batch> {
    let mut generator = TraceGenerator::new(profile.config(options.seed, options.scale));
    generator.add_anomaly(anomaly);
    generator.batches(options.batches)
}

/// Where an attack that the paper starts at bin 100 starts: there, or halfway
/// through a run too short to reach it.
fn attack_start(options: &Options) -> usize {
    100.min(options.batches / 2)
}

/// A one-row table of named scalars.
fn scalars<const N: usize>(title: &str, values: [(&str, Cell); N]) -> Table {
    let mut table = Table::titled(title, &values.each_ref().map(|(name, _)| *name));
    table.row(values.map(|(_, cell)| cell));
    table
}

/// Runs one query over a trace at full rate and returns, per batch, the
/// feature vector and the (noisy) measured cycles. This is the raw material
/// of every Chapter 3 prediction experiment.
fn query_cost_series(kind: QueryKind, batches: &[Batch], noise_seed: u64) -> Series {
    let mut query = build_query(kind);
    let mut extractor = FeatureExtractor::with_defaults();
    let mut noise = MeasurementNoise::realistic(noise_seed);
    let mut series = Vec::with_capacity(batches.len());
    for batch in batches {
        let (features, _) = extractor.extract(batch);
        let mut meter = CycleMeter::new();
        query.process_batch(&batch.view(), 1.0, &mut meter);
        let (measured, _) = noise.measure(meter.cycles());
        series.push((features, measured as f64));
        if batch.bin_index % 10 == 9 {
            let _ = query.end_interval();
        }
    }
    series
}

/// The cost series of one query on one profile's trace.
fn profile_series(kind: QueryKind, profile: TraceProfile, options: &Options) -> Series {
    query_cost_series(kind, &trace(profile, options), options.seed)
}

/// The cost series of the seven Chapter 4 queries on one profile's trace.
fn chapter4_series(profile: TraceProfile, options: &Options) -> Vec<Series> {
    let batches = trace(profile, options);
    let series = |kind: &QueryKind| query_cost_series(*kind, &batches, options.seed);
    QueryKind::CHAPTER4_SET.iter().map(series).collect()
}

/// Drives a predictor over a cost series and returns its error statistics.
fn predictor_errors(predictor: &mut dyn Predictor, series: &Series, warmup: usize) -> ErrorStats {
    let mut stats = ErrorStats::new();
    for (index, (features, cycles)) in series.iter().enumerate() {
        let predicted = predictor.predict(features);
        if index >= warmup && *cycles > 0.0 {
            stats.record(predicted, *cycles);
        }
        predictor.observe(features, *cycles);
    }
    stats
}

/// The errors of fresh `make()` predictors over every series, pooled.
fn pooled_errors(series: &[Series], make: MakePredictor) -> ErrorStats {
    let mut all = ErrorStats::new();
    for one in series {
        all.merge(&predictor_errors(make().as_mut(), one, WARMUP));
    }
    all
}

fn mlr_predictor(history: usize, threshold: f64) -> MlrPredictor {
    let fcbf = FcbfConfig { threshold, max_features: 8 };
    MlrPredictor::new(MlrConfig { history, fcbf })
}

/// Per series, the mean error and the per-bin cost (operations) of an MLR
/// with `history` bins and FCBF `threshold`.
fn mlr_scores(series: &[Series], history: usize, threshold: f64) -> Vec<(f64, f64)> {
    let score = |one: &Series| {
        let mut predictor = mlr_predictor(history, threshold);
        let error = predictor_errors(&mut predictor, one, WARMUP).mean();
        (error, predictor.last_cost_operations() as f64)
    };
    series.iter().map(score).collect()
}

/// The per-interval errors of one query of a run.
fn error_series<'a>(result: &'a RunResult, query: &str) -> &'a [f64] {
    result.error_series.get(query).map_or(&[], Vec::as_slice)
}

/// The per-interval accuracy (1 − error) of one query of a run.
fn accuracy_series(result: &RunResult, query: &str) -> Vec<f64> {
    error_series(result, query).iter().map(|error| 1.0 - error).collect()
}

fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean over queries and minimum over queries of a run's mean accuracy.
fn mean_and_min(result: &RunResult) -> [f64; 2] {
    [result.overall_mean_accuracy(), result.overall_min_accuracy()]
}

/// The overload levels `0.2 × step`.
fn overload_levels(steps: std::ops::RangeInclusive<u32>) -> impl Iterator<Item = f64> {
    steps.map(|step| f64::from(step) * 0.2)
}

/// Every record of the queries called `name` over a run's bins.
fn query_records<'a>(
    result: &'a RunResult,
    name: &'a str,
) -> impl Iterator<Item = &'a QueryBinRecord> {
    result
        .bins
        .iter()
        .flat_map(move |bin| bin.queries.iter().filter(move |query| bin.label(query) == name))
}

// --------------------------------------------------------------------------
// Chapter 2
// --------------------------------------------------------------------------

/// Figure 2.2: average cost per second of every query on the CESCA-II-like
/// profile.
fn fig2_2(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let seconds = batches.len() as f64 * 0.1;
    let mut names: Vec<QueryKind> = QueryKind::ALL.to_vec();
    names.sort_by_key(|kind| kind.name());
    let mut table = Table::new(&["query", "cycles/second"]);
    for kind in names {
        let mut query = build_query(kind);
        let mut meter = CycleMeter::new();
        for batch in &batches {
            query.process_batch(&batch.view(), 1.0, &mut meter);
        }
        table.push(kind.name(), 0, [meter.cycles() as f64 / seconds]);
    }
    vec![table]
}

// --------------------------------------------------------------------------
// Chapter 3: prediction
// --------------------------------------------------------------------------

/// Figure 3.1: cycles of an "unknown" (flows) query under a flood anomaly,
/// against packets, bytes and 5-tuple flows per batch (every 5th bin).
fn fig3_1(options: &Options) -> Vec<Table> {
    let flood =
        Anomaly::new(AnomalyKind::DdosFlood { target: TARGET }, 40, 60, 1200).with_duty_cycle(20);
    let batches = attacked_trace(TraceProfile::CescaI, options, flood);
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    let mut table = Table::new(&["bin", "cpu_cycles", "packets", "bytes", "flows5t"]);
    for (index, ((features, cycles), batch)) in series.iter().zip(&batches).enumerate().step_by(5) {
        let flows = features.get(FeatureId::Counter(Aggregate::FiveTuple, CounterKind::Unique));
        let bytes = batch.total_bytes() as f64;
        table.push(index, 0, [*cycles, features.packets(), bytes, flows]);
    }
    vec![table]
}

/// Figure 3.3: scatter of CPU usage vs packets per batch for the flows query
/// (every 4th bin).
fn fig3_3(options: &Options) -> Vec<Table> {
    let series = profile_series(QueryKind::Flows, TraceProfile::CescaI, options);
    let mut table = Table::new(&["packets", "new_5t", "cpu_cycles"]);
    for (features, cycles) in series.iter().step_by(4) {
        let new_5t = features.get(FeatureId::Counter(Aggregate::FiveTuple, CounterKind::New));
        table.push(num(features.packets(), 0), 0, [new_5t, *cycles]);
    }
    vec![table]
}

/// Figure 3.4: SLR vs MLR predictions over time for the flows query (every
/// 5th bin after the warm-up).
fn fig3_4(options: &Options) -> Vec<Table> {
    let series = profile_series(QueryKind::Flows, TraceProfile::CescaI, options);
    let mut slr = SlrPredictor::on_packets();
    let mut mlr = mlr_predictor(60, 0.6);
    let mut table = Table::new(&["bin", "actual", "slr", "mlr", "err_slr", "err_mlr"]);
    for (index, (features, cycles)) in series.iter().enumerate() {
        let predictions = [slr.predict(features), mlr.predict(features)];
        slr.observe(features, *cycles);
        mlr.observe(features, *cycles);
        if index >= WARMUP && index % 5 == 0 && *cycles > 0.0 {
            let shown = once(*cycles).chain(predictions).map(|cycles| num(cycles, 0));
            let errors = predictions.map(|predicted| num((1.0 - predicted / cycles).abs(), 4));
            table.row(once(index.into()).chain(shown).chain(errors));
        }
    }
    vec![table]
}

/// Figure 3.5: error and cost of the MLR as a function of the history length
/// and of the FCBF threshold (aggregate over the seven queries).
fn fig3_5(options: &Options) -> Vec<Table> {
    let series = chapter4_series(TraceProfile::CescaII, options);
    let sweep = |title: &str, knob: &str, settings: &[(Cell, usize, f64)]| {
        let mut table = Table::titled(title, &[knob, "mean_error", "cost(ops/bin)"]);
        for (label, history, threshold) in settings {
            let scores = mlr_scores(&series, *history, *threshold);
            let (errors, costs): (Vec<f64>, Vec<f64>) = scores.into_iter().unzip();
            table.row([label.clone(), num(mean(&errors), 4), num(mean(&costs), 0)]);
        }
        table
    };
    let histories = [1usize, 2, 6, 10, 30, 60].map(|seconds| (seconds.into(), seconds * 10, 0.6));
    let thresholds =
        [0.0, 0.2, 0.4, 0.6, 0.8, 0.9].map(|threshold| (num(threshold, 1), 60, threshold));
    vec![
        sweep("error vs history (FCBF threshold 0.6)", "history(s)", &histories),
        sweep("error vs FCBF threshold (history 6 s)", "threshold", &thresholds),
    ]
}

/// Figure 3.6: the same sweeps broken down by query.
fn fig3_6(options: &Options) -> Vec<Table> {
    let series = chapter4_series(TraceProfile::CescaII, options);
    let per_query = |title: &str, settings: &[(&str, usize, f64)]| {
        let columns: Vec<&str> = once("query").chain(settings.iter().map(|s| s.0)).collect();
        let grid: Vec<Vec<(f64, f64)>> = settings
            .iter()
            .map(|(_, history, threshold)| mlr_scores(&series, *history, *threshold))
            .collect();
        let mut table = Table::titled(title, &columns);
        for (at, kind) in QueryKind::CHAPTER4_SET.iter().enumerate() {
            table.push(kind.name(), 4, grid.iter().map(|scores| scores[at].0));
        }
        table
    };
    vec![
        per_query(
            "error per query vs history (threshold 0.6)",
            &[("1s", 10, 0.6), ("6s", 60, 0.6), ("30s", 300, 0.6)],
        ),
        per_query(
            "error per query vs FCBF threshold (history 6 s)",
            &[("0.2", 60, 0.2), ("0.6", 60, 0.6), ("0.9", 60, 0.9)],
        ),
    ]
}

/// Figures 3.7 and 3.8: MLR+FCBF prediction error over time on the four
/// trace profiles (average and maximum across the seven queries).
fn fig3_7_8(options: &Options) -> Vec<Table> {
    let (_, mlr_fcbf) = PREDICTORS[2];
    let mut table = Table::new(&["profile", "average error", "max error"]);
    for profile in
        [TraceProfile::CescaI, TraceProfile::CescaII, TraceProfile::Abilene, TraceProfile::Cenic]
    {
        let errors = pooled_errors(&chapter4_series(profile, options), mlr_fcbf);
        table.push(profile.name(), 4, [errors.mean(), errors.max()]);
    }
    vec![table]
}

/// Figure 3.9: EWMA vs SLR predictions for the counter query (every 2nd bin
/// from bin 50).
fn fig3_9(options: &Options) -> Vec<Table> {
    let series = profile_series(QueryKind::Counter, TraceProfile::CescaII, options);
    let mut ewma = EwmaPredictor::new(0.3);
    let mut slr = SlrPredictor::on_packets();
    let mut table = Table::new(&["bin", "actual", "ewma", "slr"]);
    for (index, (features, cycles)) in series.iter().enumerate() {
        let predictions = [ewma.predict(features), slr.predict(features)];
        ewma.observe(features, *cycles);
        slr.observe(features, *cycles);
        if index >= 50 && index % 2 == 0 {
            table.push(index, 0, once(*cycles).chain(predictions));
        }
    }
    vec![table]
}

/// Figure 3.10: EWMA prediction error as a function of the weight alpha.
fn fig3_10(options: &Options) -> Vec<Table> {
    let series = chapter4_series(TraceProfile::CescaII, options);
    let mut table = Table::new(&["alpha", "mean_error"]);
    for alpha in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let error = |one| predictor_errors(&mut EwmaPredictor::new(alpha), one, WARMUP).mean();
        let errors: Vec<f64> = series.iter().map(error).collect();
        table.push(num(alpha, 1), 4, [mean(&errors)]);
    }
    vec![table]
}

/// Figures 3.11 and 3.12: error over time of EWMA and SLR, and the maximum /
/// 95th percentile of the MLR+FCBF error.
fn fig3_11_12(options: &Options) -> Vec<Table> {
    let series = chapter4_series(TraceProfile::CescaII, options);
    let mut table = Table::new(&["predictor", "average", "p95", "max", "median"]);
    table.note = "on normal traffic a single near-zero-cost bin can carry a relative error in \
                  the tens and reorder the averages between seeds, so no claim rests on them; \
                  the median is the robust ordering"
        .to_string();
    for (name, make) in PREDICTORS {
        let all = pooled_errors(&series, make);
        table.push(name, 4, [all.mean(), all.percentile(95.0), all.max(), all.percentile(50.0)]);
    }
    vec![table]
}

/// Figures 3.13–3.15: the three predictors under a DDoS attack that goes
/// idle every other second (flows query).
fn fig3_13_15(options: &Options) -> Vec<Table> {
    let start = attack_start(options);
    let flood = Anomaly::new(AnomalyKind::DdosFlood { target: TARGET }, start as u64, 300, 1500)
        .with_duty_cycle(20);
    let batches = attacked_trace(TraceProfile::CescaII, options, flood);
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    let mut table = Table::titled("error during the attack", &["predictor", "mean", "p95", "max"]);
    for (name, make) in PREDICTORS {
        // Only evaluate over the attack window.
        let stats = predictor_errors(make().as_mut(), &series, start);
        table.push(name, 4, [stats.mean(), stats.percentile(95.0), stats.max()]);
    }
    vec![table]
}

/// Table 3.2: MLR+FCBF prediction error per query and selected features, on
/// two trace profiles (header-only and full-payload).
fn tab3_2(options: &Options) -> Vec<Table> {
    let per_profile = |profile: TraceProfile| {
        let title = format!("{} profile", profile.name());
        let mut table = Table::titled(&title, &["query", "mean", "stdev", "selected features"]);
        let series = chapter4_series(profile, options);
        for (kind, one) in QueryKind::CHAPTER4_SET.iter().zip(&series) {
            let mut predictor = mlr_predictor(60, 0.6);
            let stats = predictor_errors(&mut predictor, one, WARMUP);
            let selected: Vec<String> = (predictor.selected_features().iter())
                .map(|&index| FeatureId::from_index(index).name())
                .collect();
            let (mean, stdev) = (num(stats.mean(), 4), num(stats.stdev(), 4));
            table.row([kind.name().into(), mean, stdev, selected.join(", ").into()]);
        }
        table
    };
    [TraceProfile::CescaI, TraceProfile::CescaII].map(per_profile).into()
}

/// Table 3.3: error statistics per query for EWMA, SLR and MLR+FCBF.
fn tab3_3(options: &Options) -> Vec<Table> {
    let series = chapter4_series(TraceProfile::CescaII, options);
    let mut table = Table::new(&[
        "query",
        "EWMA mean",
        "EWMA sd",
        "SLR mean",
        "SLR sd",
        "MLR+FCBF mean",
        "MLR+FCBF sd",
    ]);
    for (kind, one) in QueryKind::CHAPTER4_SET.iter().zip(&series) {
        let mean_and_sd = |(_, make): &(&str, MakePredictor)| {
            let stats = predictor_errors(make().as_mut(), one, WARMUP);
            [stats.mean(), stats.stdev()]
        };
        table.push(kind.name(), 4, PREDICTORS.iter().flat_map(mean_and_sd));
    }
    vec![table]
}

/// Table 3.4: prediction overhead breakdown (share of the total cycles spent
/// in feature extraction, feature selection and the regression).
fn tab3_4(options: &Options) -> Vec<Table> {
    let specs = specs_of(&QueryKind::CHAPTER4_SET);
    let batches = trace(TraceProfile::CescaII, options);
    // Nothing is shed, so no sampling draw depends on the seed; the monitor
    // keeps its default one, as this table always has.
    let result = run_strategy(NO_LSHED, &specs, &batches, 1e15, MonitorConfig::default().seed);
    let total_of =
        |component: fn(&BinRecord) -> f64| result.bins.iter().map(component).sum::<f64>();
    let components = [
        ("prediction (extract+FCBF+MLR)", total_of(|bin| bin.prediction_cycles)),
        ("platform", total_of(|bin| bin.platform_cycles)),
        ("query processing", total_of(|bin| bin.query_cycles)),
    ];
    let total = components[2].1 + components[0].1 + components[1].1;
    let mut table = Table::new(&["component", "overhead %"]);
    for (name, cycles) in components {
        table.push(name, 3, [100.0 * cycles / total]);
    }
    vec![table]
}

// --------------------------------------------------------------------------
// Chapter 4: load shedding
// --------------------------------------------------------------------------

/// Runs the three systems of the Chapter 4 evaluation (predictive, original,
/// reactive) over the same overloaded trace; also returns the capacity.
fn chapter4_runs(options: &Options) -> (f64, [(&'static str, RunResult); 3]) {
    // Chapter 4 evaluates the basic scheme, which applies one common sampling
    // rate to every query and knows nothing about per-query minimum rates
    // (those arrive in Chapter 5), so the constraints are disabled here.
    let specs: Vec<QuerySpec> = QueryKind::CHAPTER4_SET
        .iter()
        .map(|kind| QuerySpec::new(*kind).with_min_rate(0.0))
        .collect();
    let batches = trace(TraceProfile::CescaII, options);
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let run = |strategy| run_strategy(strategy, &specs, &batches, capacity, options.seed);
    let systems = [("predictive", EQ_SRATES), ("original", NO_LSHED), ("reactive", REACTIVE)];
    (capacity, systems.map(|(name, strategy)| (name, run(strategy))))
}

/// Whether a query's unsampled output can be estimated from sampled streams.
/// As in the paper, pattern-search and trace cannot (there is no standard way
/// to), so they stay out of Figure 4.3's average and out of Table 4.1.
fn estimable(query: &str) -> bool {
    query != "pattern-search" && query != "trace"
}

/// Figure 4.1: CDF of the CPU usage per batch for the three systems.
fn fig4_1(options: &Options) -> Vec<Table> {
    let (capacity, runs) = chapter4_runs(options);
    let mut table =
        Table::titled("cycles per batch", &["system", "p10", "p50", "p90", "p99", ">capacity %"]);
    for (name, result) in &runs {
        let cycles: Vec<f64> = result.bins.iter().map(BinRecord::total_cycles).collect();
        let above = cycles.iter().filter(|&&c| c > capacity).count() as f64 / cycles.len() as f64;
        let percentiles = [10.0, 50.0, 90.0, 99.0].map(|p| num(percentile(&cycles, p), 0));
        table.row(once((*name).into()).chain(percentiles).chain(once(num(above * 100.0, 1))));
    }
    vec![scalars("capacity", [("cycles per batch", num(capacity, 0))]), table]
}

/// Figure 4.2: incoming load, uncontrolled drops and unsampled packets.
fn fig4_2(options: &Options) -> Vec<Table> {
    let mut table = Table::new(&["system", "total packets", "uncontrolled", "unsampled (avg/q)"]);
    for (name, result) in chapter4_runs(options).1 {
        let total: u64 = result.bins.iter().map(|bin| bin.incoming_packets).sum();
        let unsampled: u64 = result.bins.iter().map(|bin| bin.unsampled_packets).sum();
        table.push(name, 0, [total, result.uncontrolled_drops(), unsampled].map(|n| n as f64));
    }
    vec![table]
}

/// Figure 4.3: average error in the query answers per system.
fn fig4_3(options: &Options) -> Vec<Table> {
    let mut table = Table::new(&["system", "mean error %", "max query err %"]);
    for (name, result) in chapter4_runs(options).1 {
        let errors: Vec<f64> = (result.mean_accuracy.iter())
            .filter(|(query, _)| estimable(query))
            .map(|(_, accuracy)| 1.0 - accuracy)
            .collect();
        table.push(name, 2, [mean(&errors) * 100.0, max(&errors) * 100.0]);
    }
    vec![table]
}

/// Figure 4.4: CPU usage after load shedding, stacked by component, plus the
/// predicted full load (the predictive system, every 20th bin).
fn fig4_4(options: &Options) -> Vec<Table> {
    let (capacity, runs) = chapter4_runs(options);
    let mut table = Table::titled(
        "cycles per bin",
        &["bin", "platform", "prediction", "shedding", "queries", "predicted"],
    );
    for record in runs[0].1.bins.iter().step_by(20) {
        let cycles = [
            record.platform_cycles,
            record.prediction_cycles,
            record.shedding_cycles,
            record.query_cycles,
            record.predicted_cycles,
        ];
        table.push(record.bin_index, 0, cycles);
    }
    vec![scalars("capacity", [("cycles per bin", num(capacity, 0))]), table]
}

/// Figures 4.5 and 4.6: CPU usage and flows-query error with and without
/// load shedding during a SYN flood.
fn fig4_5_6(options: &Options) -> Vec<Table> {
    let start = attack_start(options);
    let flood =
        Anomaly::new(AnomalyKind::SynFlood { target: TARGET, port: 80 }, start as u64, 300, 800);
    let batches = attacked_trace(TraceProfile::CescaI, options, flood);
    let specs = vec![QuerySpec::new(QueryKind::Flows).with_min_rate(0.0)];
    // Headroom above the normal-traffic demand, as in the paper's manually
    // chosen 6M-cycle threshold: the flood still overloads the system but the
    // non-sheddable feature extraction keeps fitting.
    let capacity = capacity_for_overload(&specs, &batches[..start * 9 / 10], 0.0) * 1.5;
    let mut table =
        Table::new(&["system", "peak cycles", "drops", "flows error mean", "flows error max"]);
    for (name, strategy) in
        [("no load shedding", NO_LSHED), ("load shedding (flow sampling)", EQ_SRATES)]
    {
        let result = run_strategy(strategy, &specs, &batches, capacity, options.seed);
        let cycles: Vec<f64> = result.bins.iter().map(BinRecord::total_cycles).collect();
        let errors = error_series(&result, "flows");
        let drops = result.uncontrolled_drops().into();
        table.row([
            name.into(),
            num(max(&cycles), 0),
            drops,
            num(mean(errors), 3),
            num(max(errors), 3),
        ]);
    }
    vec![table]
}

/// Table 4.1: accuracy error per query for the three systems (mean and sd
/// over the measurement intervals).
fn tab4_1(options: &Options) -> Vec<Table> {
    let (_, runs) = chapter4_runs(options);
    let mut table = Table::new(&[
        "query",
        "predictive mean",
        "predictive sd",
        "original mean",
        "original sd",
        "reactive mean",
        "reactive sd",
    ]);
    for query in runs[0].1.mean_accuracy.keys().filter(|query| estimable(query)) {
        let mean_and_sd = |(_, result): &(&str, RunResult)| {
            let series = error_series(result, query);
            [mean(series), stdev(series)]
        };
        table.push(query.as_str(), 4, runs.iter().flat_map(mean_and_sd));
    }
    vec![table]
}

// --------------------------------------------------------------------------
// Chapter 5: fairness
// --------------------------------------------------------------------------

/// Figure 5.1: simulated difference in average / minimum accuracy between
/// mmfs_pkt and mmfs_cpu with 1 heavy and 10 light queries.
fn fig5_1(_options: &Options) -> Vec<Table> {
    // Analytical simulation as in Section 5.4: light queries cost 1 unit and
    // tolerate sampling well; the heavy query costs 10 units and its accuracy
    // equals its sampling rate.
    let accuracy = |allocations: &[Allocation]| -> [f64; 2] {
        let accuracies: Vec<f64> = (allocations.iter().enumerate())
            .map(|(at, allocation)| match (allocation.is_disabled(), at) {
                (true, _) => 0.0,
                (false, 0) => allocation.rate(),
                (false, _) => 1.0 - (1.0 - allocation.rate()) * 0.05,
            })
            .collect();
        [mean(&accuracies), min_of(&accuracies)]
    };
    let mut table = Table::new(&["m_q", "K", "d_avg(pkt-cpu)", "d_min(pkt-cpu)"]);
    for m_q in overload_levels(0..=5) {
        let demands: Vec<QueryDemand> =
            (0..11).map(|at| QueryDemand::new(if at == 0 { 10.0 } else { 1.0 }, m_q)).collect();
        for k in overload_levels(0..=5) {
            let capacity = 20.0 * (1.0 - k);
            let pkt = accuracy(&mmfs_pkt(&demands, capacity));
            let cpu = accuracy(&mmfs_cpu(&demands, capacity));
            table.row([num(m_q, 1), num(k, 1), num(pkt[0] - cpu[0], 3), num(pkt[1] - cpu[1], 3)]);
        }
    }
    vec![table]
}

/// Figure 5.2: the same comparison with real queries (1 trace + 10 counters).
fn fig5_2(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let mut specs = vec![QuerySpec::new(QueryKind::Trace)];
    specs.extend(specs_of(&[QueryKind::Counter; 10]));
    let mut table = Table::new(&["K", "d_avg(pkt-cpu)", "d_min(pkt-cpu)"]);
    for k in overload_levels(1..=4) {
        let capacity = capacity_for_overload(&specs, &batches, k);
        let [cpu, pkt] = [MMFS_CPU, MMFS_PKT].map(|strategy| {
            mean_and_min(&run_strategy(strategy, &specs, &batches, capacity, options.seed))
        });
        table.push(num(k, 1), 3, [pkt[0] - cpu[0], pkt[1] - cpu[1]]);
    }
    vec![table]
}

/// Figure 5.4: average and minimum accuracy of the strategies as a function
/// of the overload level.
fn fig5_4(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let specs = specs_of(&QueryKind::CHAPTER5_SET);
    let names = STRATEGIES.map(|(name, _)| [format!("{name} avg"), format!("{name} min")]);
    let columns: Vec<&str> = once("K").chain(names.iter().flatten().map(String::as_str)).collect();
    let mut table = Table::new(&columns);
    for k in overload_levels(0..=4) {
        let capacity = capacity_for_overload(&specs, &batches, k);
        let run = |(_, strategy): &(&str, Strategy)| {
            mean_and_min(&run_strategy(*strategy, &specs, &batches, capacity, options.seed))
        };
        table.push(num(k, 1), 2, STRATEGIES.iter().flat_map(run));
    }
    vec![table]
}

/// Figure 5.5: autofocus accuracy over time at K=0.2 for four strategies.
fn fig5_5(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let specs = specs_of(&QueryKind::CHAPTER5_SET);
    let capacity = capacity_for_overload(&specs, &batches, 0.2);
    let mut table = Table::titled(
        "autofocus accuracy per interval",
        &["strategy", "mean accuracy", "min", "intervals below 0.5", "intervals"],
    );
    for (name, strategy) in STRATEGIES.iter().filter(|(name, _)| *name != "reactive") {
        let result = run_strategy(*strategy, &specs, &batches, capacity, options.seed);
        let series = accuracy_series(&result, "autofocus");
        let below = series.iter().filter(|&&accuracy| accuracy < 0.5).count();
        let (mean, min) = (num(mean(&series), 3), num(min_of(&series), 3));
        table.row([(*name).into(), mean, min, below.into(), series.len().into()]);
    }
    vec![table]
}

/// Table 5.2: minimum sampling rates and per-query accuracy at K = 0.5,
/// plus the Nash equilibrium check of Section 5.3.
fn tab5_2(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let specs = specs_of(&QueryKind::CHAPTER5_SET);
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let results = STRATEGIES
        .map(|(_, strategy)| run_strategy(strategy, &specs, &batches, capacity, options.seed));
    let columns: Vec<&str> = ["query", "m_q"].into_iter().chain(STRATEGIES.map(|s| s.0)).collect();
    let mut table = Table::titled("accuracy per query and strategy", &columns);
    for spec in &specs {
        let query = build_query(spec.kind);
        let accuracy =
            |result: &RunResult| result.mean_accuracy.get(query.name()).copied().unwrap_or(0.0);
        table.push(
            query.name(),
            2,
            once(query.min_sampling_rate()).chain(results.iter().map(accuracy)),
        );
    }
    let players = specs.len();
    let game = AllocationGame::new(capacity, players, FairnessMode::Packet);
    let actions = vec![game.equilibrium_action(); players];
    let nash = scalars(
        "Nash equilibrium check (Section 5.3): every query demanding C/|Q|",
        [
            ("C/|Q|", num(game.equilibrium_action(), 0)),
            ("is a Nash equilibrium", game.is_nash_equilibrium(&actions, 100, 1e-6).into()),
        ],
    );
    vec![table, nash]
}

// --------------------------------------------------------------------------
// Chapter 6: custom load shedding
// --------------------------------------------------------------------------

fn chapter6_specs(behavior: Option<CustomBehavior>) -> Vec<QuerySpec> {
    let p2p = QuerySpec::new(QueryKind::P2pDetector);
    let mut specs = specs_of(&[
        QueryKind::Counter,
        QueryKind::Flows,
        QueryKind::Application,
        QueryKind::HighWatermark,
        QueryKind::TopK,
    ]);
    specs.push(behavior.map_or(p2p.clone(), |behavior| p2p.with_custom(behavior)));
    specs
}

/// Figures 6.1–6.3: cycles and accuracy of the p2p-detector with system-side
/// sampling vs its custom method, and the expected-vs-used correction
/// (mmfs_pkt at K=0.5).
fn fig6_1_3(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::UpcI, options);
    let mut table = Table::new(&["shedding", "p2p accuracy", "mean cycles", "mean used/expected"]);
    for (name, behavior) in
        [("packet sampling", None), ("custom shedding", Some(CustomBehavior::Honest))]
    {
        let specs = chapter6_specs(behavior);
        let capacity = capacity_for_overload(&specs, &batches, 0.5);
        let result = run_strategy(MMFS_PKT, &specs, &batches, capacity, options.seed);
        let cycles: Vec<f64> = query_records(&result, P2P).map(|q| q.measured_cycles).collect();
        let overuse: Vec<f64> = query_records(&result, P2P)
            .map(|q| (q.measured_cycles, q.predicted_cycles * q.sampling_rate))
            .filter(|(_, expected)| *expected > 0.0)
            .map(|(used, expected)| used / expected)
            .collect();
        let accuracy = result.mean_accuracy.get(P2P).copied().unwrap_or(0.0);
        table.row([name.into(), num(accuracy, 3), num(mean(&cycles), 0), num(mean(&overuse), 2)]);
    }
    vec![table]
}

/// Figure 6.4: accuracy as a function of the (packet) sampling rate for the
/// high-watermark, top-k and p2p-detector queries.
fn fig6_4(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::UpcI, options);
    let kinds = [QueryKind::HighWatermark, QueryKind::TopK, QueryKind::P2pDetector];
    let columns: Vec<&str> = once("rate").chain(kinds.map(QueryKind::name)).collect();
    let mut table = Table::new(&columns);
    for rate in [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let accuracy = |kind| {
            // Run the query over packet-sampled batches and compare against
            // the unsampled execution, outside the monitor (pure query-level
            // accuracy as in the paper's validation).
            let mut sampled_query = build_query(kind);
            let mut reference_query = build_query(kind);
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(options.seed);
            let mut pool = KeepListPool::new();
            let mut errors = Vec::new();
            for (index, batch) in batches.iter().enumerate() {
                let (sampled, _) =
                    netshed_monitor::packet_sample_with(&batch.view(), rate, &mut rng, &mut pool);
                let mut meter = CycleMeter::new();
                sampled_query.process_batch(&sampled, rate, &mut meter);
                reference_query.process_batch(&batch.view(), 1.0, &mut meter);
                if index % 10 == 9 {
                    let output = sampled_query.end_interval();
                    errors.push(output.error_against(&reference_query.end_interval()));
                }
            }
            1.0 - mean(&errors)
        };
        table.push(num(rate, 2), 3, kinds.map(accuracy));
    }
    vec![table]
}

/// Figure 6.5: average and minimum accuracy at increasing overload levels
/// with custom load shedding enabled (mmfs_pkt).
fn fig6_5(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::UpcI, options);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    let mut table = Table::new(&["K", "avg accuracy", "min accuracy"]);
    for k in overload_levels(0..=4) {
        let capacity = capacity_for_overload(&specs, &batches, k);
        let result = run_strategy(MMFS_PKT, &specs, &batches, capacity, options.seed);
        table.push(num(k, 1), 3, mean_and_min(&result));
    }
    vec![table]
}

/// Figures 6.6 and 6.7: a system without custom shedding running eq_srates
/// vs one with custom shedding running mmfs_pkt (K=0.5).
fn fig6_6_7(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::UpcI, options);
    let mut table = Table::new(&["system", "avg accuracy", "min accuracy", "drops"]);
    for (name, behavior, strategy) in [
        ("eq_srates, no custom shedding", None, EQ_SRATES),
        ("mmfs_pkt with custom shedding", Some(CustomBehavior::Honest), MMFS_PKT),
    ] {
        let specs = chapter6_specs(behavior);
        let capacity = capacity_for_overload(&specs, &batches, 0.5);
        let result = run_strategy(strategy, &specs, &batches, capacity, options.seed);
        let [avg, min] = mean_and_min(&result);
        table.row([name.into(), num(avg, 3), num(min, 3), result.uncontrolled_drops().into()]);
    }
    vec![table]
}

/// Figure 6.8: performance in the presence of massive DDoS attacks (mmfs_pkt
/// with custom shedding).
fn fig6_8(options: &Options) -> Vec<Table> {
    let (start, end) = ((options.batches / 3) as u64, (2 * options.batches / 3) as u64);
    let flood = Anomaly::new(AnomalyKind::DdosFlood { target: TARGET }, start, end, 1000);
    let batches = attacked_trace(TraceProfile::UpcI, options, flood);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    let capacity = capacity_for_overload(&specs, &batches[..(options.batches / 4)], 0.2);
    let result = run_strategy(MMFS_PKT, &specs, &batches, capacity, options.seed);
    let mean_rate = |bins: std::ops::Range<u64>| {
        let rates: Vec<f64> = (result.bins.iter())
            .filter(|bin| bins.contains(&bin.bin_index))
            .map(BinRecord::mean_sampling_rate)
            .collect();
        num(mean(&rates), 2)
    };
    let [avg, min] = mean_and_min(&result);
    vec![scalars(
        "",
        [
            ("attack start bin", start.into()),
            ("attack end bin", end.into()),
            ("avg accuracy", num(avg, 3)),
            ("min accuracy", num(min, 3)),
            ("uncontrolled drops", result.uncontrolled_drops().into()),
            ("mean rate before attack", mean_rate(0..start)),
            ("mean rate during attack", mean_rate(start..end)),
        ],
    )]
}

/// The per-query mean accuracy of a run, `skip` left out.
fn accuracy_table(title: &str, result: &RunResult, skip: &str) -> Table {
    let mut table = Table::titled(title, &["query", "mean accuracy"]);
    for (name, accuracy) in result.mean_accuracy.iter().filter(|(name, _)| name.as_str() != skip) {
        table.push(name.as_str(), 3, [*accuracy]);
    }
    table
}

/// mmfs_pkt at overload `k` (sized on the six Chapter 6 queries, the
/// p2p-detector behaving as `sized_on`) with queries arriving mid-run.
fn run_with_arrivals(
    options: &Options,
    specs: &[QuerySpec],
    arrivals: &[(usize, QuerySpec)],
    sized_on: Option<CustomBehavior>,
    k: f64,
) -> RunResult {
    let batches = trace(TraceProfile::UpcI, options);
    let capacity = capacity_for_overload(&chapter6_specs(sized_on), &batches, k);
    let config = experiment_config(MMFS_PKT, capacity, options.seed);
    run_with_reference::<Monitor>(config, specs, &batches, arrivals)
}

/// Figure 6.9: effect of new query arrivals.
fn fig6_9(options: &Options) -> Vec<Table> {
    let honest_p2p = QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest);
    let arrivals =
        [(options.batches / 4, QuerySpec::new(QueryKind::TopK)), (options.batches / 2, honest_p2p)];
    let specs = specs_of(&[QueryKind::Counter, QueryKind::Flows]);
    let result = run_with_arrivals(options, &specs, &arrivals, None, 0.3);
    let run = [
        ("first arrival bin", arrivals[0].0.into()),
        ("second arrival bin", arrivals[1].0.into()),
        ("uncontrolled drops", result.uncontrolled_drops().into()),
    ];
    vec![accuracy_table("accuracy with queries arriving mid-run", &result, ""), scalars("run", run)]
}

/// Figures 6.10 / 6.11: robustness against selfish and buggy queries.
fn selfish_or_buggy(options: &Options, behavior: CustomBehavior) -> Vec<Table> {
    let offender = QuerySpec::new(QueryKind::P2pDetector).with_custom(behavior);
    let arrivals = [(options.batches / 4, offender.clone()), (options.batches / 2, offender)];
    let base = specs_of(&[QueryKind::Counter, QueryKind::Flows, QueryKind::Application]);
    let result = run_with_arrivals(options, &base, &arrivals, Some(behavior), 0.4);
    let disabled = query_records(&result, P2P).filter(|query| query.disabled).count();
    let enforcement = [
        ("misbehaving variant", behavior.name().into()),
        ("p2p-detector bins disabled", disabled.into()),
        ("uncontrolled drops", result.uncontrolled_drops().into()),
    ];
    vec![accuracy_table("honest queries", &result, P2P), scalars("enforcement", enforcement)]
}

fn fig6_10(options: &Options) -> Vec<Table> {
    selfish_or_buggy(options, CustomBehavior::Selfish)
}

fn fig6_11(options: &Options) -> Vec<Table> {
    selfish_or_buggy(options, CustomBehavior::Buggy)
}

/// Figures 6.12–6.14 and Table 6.2: a longer "online" run reporting CPU,
/// drops, per-query accuracy and the average shedding rate over time.
fn fig6_12_14(options: &Options) -> Vec<Table> {
    let batches = trace(TraceProfile::UpcI, options);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let result = run_strategy(MMFS_PKT, &specs, &batches, capacity, options.seed);
    let mut table =
        Table::titled("per-query accuracy (Table 6.2)", &["query", "accuracy mean", "accuracy sd"]);
    for name in result.mean_accuracy.keys() {
        let accuracies = accuracy_series(&result, name);
        table.push(name.as_str(), 4, [mean(&accuracies), stdev(&accuracies)]);
    }
    let occupations: Vec<f64> = result.bins.iter().map(|bin| bin.buffer_occupation).collect();
    let rates: Vec<f64> = result.bins.iter().map(BinRecord::mean_sampling_rate).collect();
    let run = [
        ("capacity cycles/bin", num(capacity, 0)),
        ("bins", result.bins.len().into()),
        ("buffer occupation mean", num(mean(&occupations), 2)),
        ("buffer occupation max", num(max(&occupations), 2)),
        ("average load shedding rate", num(1.0 - mean(&rates), 2)),
        ("uncontrolled drops", result.uncontrolled_drops().into()),
    ];
    vec![table, scalars("run", run)]
}

// --------------------------------------------------------------------------
// Ablations
// --------------------------------------------------------------------------

/// The two named configuration tweaks an ablation compares.
type Variants = [(&'static str, fn(&mut MonitorConfig)); 2];

/// One ablation: mmfs_pkt on the Chapter 4 queries at K=0.5 under each named
/// variant of the configuration, plus one variant-specific last column.
fn ablation(
    options: &Options,
    variants: Variants,
    last_column: &str,
    last: fn(&RunResult, f64) -> Cell,
) -> Vec<Table> {
    let batches = trace(TraceProfile::CescaII, options);
    let specs = specs_of(&QueryKind::CHAPTER4_SET);
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let mut table = Table::new(&["variant", "avg accuracy", "drops", last_column]);
    for (name, tweak) in variants {
        let mut config = experiment_config(MMFS_PKT, capacity, options.seed);
        tweak(&mut config);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        let drops = result.uncontrolled_drops().into();
        table.row([
            name.into(),
            num(result.overall_mean_accuracy(), 3),
            drops,
            last(&result, capacity),
        ]);
    }
    vec![table]
}

/// Ablation: buffer discovery (rtthresh) on/off.
fn ablation_rtthresh(options: &Options) -> Vec<Table> {
    let variants: Variants = [
        ("buffer discovery on", |config| config.buffer_discovery = true),
        ("buffer discovery off", |config| config.buffer_discovery = false),
    ];
    ablation(options, variants, "mean cycles/bin", |result, _| num(result.mean_cycles_per_bin(), 0))
}

/// Ablation: EWMA prediction-error correction on/off.
fn ablation_error_correction(options: &Options) -> Vec<Table> {
    let variants: Variants = [
        ("error correction on (alpha=0.9)", |config| config.ewma_alpha = 0.9),
        ("error correction off", |config| config.ewma_alpha = 0.0),
    ];
    ablation(options, variants, "bins >110% capacity %", |result, capacity| {
        let over = result.bins.iter().filter(|bin| bin.total_cycles() > capacity * 1.1).count();
        num(over as f64 / result.bins.len() as f64 * 100.0, 1)
    })
}

// --------------------------------------------------------------------------
// The shard plane: what a lane count costs
// --------------------------------------------------------------------------

/// The lane counts `fleet_quality` runs a fleet at.
const LANE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One workload of `fleet_quality`: the solo monitor, then a fleet at every
/// lane count, on the same queries, traffic, capacity and seed (`mmfs_pkt`,
/// noise on — the repo benchmark's operating point).
fn fleet_quality_table(
    title: &str,
    specs: &[QuerySpec],
    batches: &[Batch],
    capacity: f64,
    seed: u64,
) -> Table {
    let config = experiment_config(MMFS_PKT, capacity, seed);
    let solo = run_with_reference::<Monitor>(config.clone(), specs, batches, &[]);
    let fleets = LANE_COUNTS.map(|lanes| {
        let config = config.clone().with_shard_lanes(lanes);
        let name = format!("{lanes} lane{}", if lanes == 1 { "" } else { "s" });
        (name, run_with_reference::<ShardedMonitor>(config, specs, batches, &[]))
    });
    let runs: Vec<(String, RunResult)> = once(("solo".to_string(), solo)).chain(fleets).collect();

    let queries: Vec<&str> = runs[0].1.mean_accuracy.keys().map(String::as_str).collect();
    let totals = ["mean accuracy", "min accuracy", "uncontrolled drops", "predictors per bin"];
    let columns: Vec<&str> = once("engine").chain(queries.iter().copied()).chain(totals).collect();
    let mut table = Table::titled(title, &columns);
    for (name, result) in &runs {
        let predictions: usize = result.bins.iter().map(|bin| bin.queries.len()).sum();
        let per_query = queries.iter().map(|query| num(result.mean_accuracy[*query], 4));
        table.row(once(name.as_str().into()).chain(per_query).chain([
            num(result.overall_mean_accuracy(), 4),
            num(result.overall_min_accuracy(), 4),
            result.uncontrolled_drops().into(),
            num(predictions as f64 / result.bins.len().max(1) as f64, 2),
        ]));
    }
    table
}

/// What sharding query execution costs in quality: per-query accuracy,
/// uncontrolled drops and predictions per bin at 1 / 2 / 4 / 8 lanes beside
/// the solo monitor, on the Chapter 4 mix at 2x overload, on two corpus
/// scenarios (their recorded traffic and K = 0.5 capacity, whatever
/// `--batches` says) and — where it must cost nothing — on the same payload
/// traffic unshed, with `autofocus` and `p2p-detector` beside the mix
/// (`super-sources` breaks ties at its cut by arrival order, which scored
/// against the reference reads as an error: its rule is stated, and tested,
/// in `tests/fleet.rs`).
fn fleet_quality(options: &Options) -> Vec<Table> {
    let specs = specs_of(&QueryKind::CHAPTER4_SET);
    let batches = trace(TraceProfile::CescaII, options);
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let chapter4 = fleet_quality_table(
        "Chapter 4 mix at 2x overload",
        &specs,
        &batches,
        capacity,
        options.seed,
    );
    let corpus = ["steady-cesca", "ddos-spike"].map(|name| {
        // lint:allow(no-unwrap): both names are compiled-in builtins, valid by construction
        let batches = builtin(name).and_then(|scenario| scenario.generate().ok()).expect("builtin");
        let capacity = corpus_capacity(&batches);
        let title = format!("corpus scenario {name}");
        fleet_quality_table(&title, &corpus_specs(), &batches, capacity, options.seed)
    });
    let unshed_kinds = [QueryKind::Autofocus, QueryKind::P2pDetector];
    let unshed_specs: Vec<QuerySpec> =
        specs.iter().cloned().chain(specs_of(&unshed_kinds)).collect();
    let unshed = fleet_quality_table(
        "unshed: the mix, autofocus and p2p-detector at ample capacity",
        &unshed_specs,
        &batches,
        1e15,
        options.seed,
    );
    once(chapter4).chain(corpus).chain(once(unshed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_claims_name_registered_experiments() {
        for (at, experiment) in ALL.iter().enumerate() {
            assert!(
                ALL[..at].iter().all(|earlier| earlier.id != experiment.id),
                "duplicate id {}",
                experiment.id
            );
        }
        assert_eq!(ALL.len(), 37);
        for claim in crate::claims::ALL {
            assert!(find(claim.id).is_some(), "claim {} names no experiment", claim.reference);
        }
    }

    #[test]
    fn every_experiment_runs_at_its_declared_minimum() {
        for experiment in ALL {
            let options = Options { batches: experiment.min, scale: 0.1, seed: 7 };
            let tables = experiment.run(&options);
            assert!(!tables.is_empty(), "{}: no table", experiment.id);
            for table in &tables {
                assert!(!table.rows.is_empty(), "{}: {:?} is empty", experiment.id, table.title);
                for row in &table.rows {
                    assert_eq!(row.len(), table.columns.len(), "{}: {row:?}", experiment.id);
                }
            }
        }
    }

    #[test]
    fn entries_clamp_the_request_and_describe_their_sizing() {
        let seen = |id: &str, requested: usize| {
            let entry = find(id).expect("registered");
            (requested.clamp(entry.clamp.0, entry.clamp.1), entry.sizing())
        };
        assert_eq!(seen("fig3_5", 5), (300, "fixed 300".to_string()));
        assert_eq!(seen("fig3_7_8", 600), (400, "min 80, max 400".to_string()));
        assert_eq!(seen("fig3_7_8", 200).0, 200);
        // A library caller below the minimum is raised to it, never run short.
        assert_eq!(seen("fig3_7_8", 3).0, 80);
        assert_eq!(seen("fig4_1", 1000), (1000, "min 20".to_string()));
        assert_eq!(seen("fig6_12_14", 200), (600, "min 1, runs >= 600".to_string()));
    }
}
