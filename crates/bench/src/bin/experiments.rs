//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```sh
//! cargo run -p netshed-bench --release --bin experiments -- list
//! cargo run -p netshed-bench --release --bin experiments -- <experiment-id>
//! cargo run -p netshed-bench --release --bin experiments -- all [--batches N] [--scale S]
//! ```
//!
//! Each experiment prints the same rows / series the corresponding paper
//! table or figure reports (numbers differ in absolute value because the
//! substrate is a synthetic trace and a simulated cycle model — see
//! "Reproducing the paper" in the repository README).

use netshed_bench::cli::{parse_experiments_args, usage, ExperimentsCommand};
use netshed_bench::{
    capacity_for_overload, fmt_pm, mean, profile_trace, run_with_reference, stdev,
    strategy_accuracy, RunResult,
};
use netshed_fairness::{AllocationGame, FairnessMode};
use netshed_features::{FeatureExtractor, FeatureId};
use netshed_linalg::stats::percentile;
use netshed_monitor::{AllocationPolicy, Monitor, MonitorConfig, Strategy};
use netshed_predict::{
    ErrorStats, EwmaPredictor, FcbfConfig, MlrConfig, MlrPredictor, Predictor, SlrPredictor,
};
use netshed_queries::{
    build_query, CustomBehavior, CycleMeter, MeasurementNoise, QueryKind, QuerySpec,
};
use netshed_trace::{Anomaly, AnomalyKind, Batch, KeepListPool, TraceGenerator, TraceProfile};
use std::process::ExitCode;

/// Command-line options shared by all experiments.
#[derive(Debug, Clone)]
struct Options {
    batches: usize,
    scale: f64,
    seed: u64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known_ids: Vec<&str> = ALL_EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
    let (ids, options) = match parse_experiments_args(&args, &known_ids) {
        Ok(ExperimentsCommand::Run { ids, batches, scale, seed }) => {
            (ids, Options { batches, scale, seed })
        }
        Ok(ExperimentsCommand::List) => {
            print_list();
            return ExitCode::SUCCESS;
        }
        Ok(ExperimentsCommand::Help) => {
            println!("{}", usage(Some("experiments")));
            return ExitCode::SUCCESS;
        }
        Err(error) => {
            eprintln!("{}", error.message);
            eprintln!("{}", error.usage);
            return ExitCode::FAILURE;
        }
    };
    // The parser only lets known ids through, so every lookup hits.
    let requested =
        ids.iter().filter_map(|id| ALL_EXPERIMENTS.iter().find(|(known, _, _)| known == id));
    for (id, description, runner) in requested {
        println!("\n================================================================");
        println!("experiment {id}: {description}");
        println!("================================================================");
        runner(&options);
    }
    ExitCode::SUCCESS
}

type Runner = fn(&Options);

/// Every experiment id, its description and its runner.
const ALL_EXPERIMENTS: &[(&str, &str, Runner)] = &[
    ("fig2_2", "average cost per second of the CoMo queries", fig2_2),
    ("fig3_1", "CPU usage of an unknown query vs packets/bytes/flows under an anomaly", fig3_1),
    ("fig3_3", "scatter of CPU usage vs packets per batch (flows query)", fig3_3),
    ("fig3_4", "SLR vs MLR prediction over time (flows query)", fig3_4),
    ("fig3_5", "prediction error vs cost as a function of history and FCBF threshold", fig3_5),
    ("fig3_6", "prediction error per query vs history and FCBF threshold", fig3_6),
    ("fig3_7_8", "prediction error over time on the four trace profiles", fig3_7_8),
    ("fig3_9", "EWMA vs SLR prediction for the counter query", fig3_9),
    ("fig3_10", "EWMA prediction error as a function of the weight alpha", fig3_10),
    ("fig3_11_12", "EWMA/SLR/MLR error over time, maximum and 95th percentile", fig3_11_12),
    ("fig3_13_15", "EWMA/SLR/MLR prediction under a DDoS attack (flows query)", fig3_13_15),
    ("tab3_2", "breakdown of MLR+FCBF prediction error and selected features by query", tab3_2),
    ("tab3_3", "EWMA vs SLR vs MLR+FCBF error statistics per query", tab3_3),
    ("tab3_4", "prediction overhead breakdown", tab3_4),
    ("fig4_1", "CDF of the CPU usage per batch for the three systems", fig4_1),
    ("fig4_2", "link load, uncontrolled drops and unsampled packets per system", fig4_2),
    ("fig4_3", "average error in the query answers per system", fig4_3),
    ("fig4_4", "CPU usage after load shedding (stacked) and predicted load", fig4_4),
    ("fig4_5_6", "CPU usage and flows error with/without shedding under a SYN flood", fig4_5_6),
    ("tab4_1", "accuracy error per query: predictive vs original vs reactive", tab4_1),
    ("fig5_1", "mmfs_pkt minus mmfs_cpu accuracy, simulated 1 heavy + 10 light queries", fig5_1),
    ("fig5_2", "mmfs_pkt minus mmfs_cpu accuracy, 1 trace + 10 counter queries", fig5_2),
    ("fig5_4", "average and minimum accuracy of the strategies vs overload level", fig5_4),
    ("fig5_5", "autofocus accuracy over time at K=0.2 for the four strategies", fig5_5),
    ("tab5_2", "minimum sampling rates and accuracy per query at K=0.5", tab5_2),
    ("fig6_1_3", "custom shedding of the p2p-detector: cycles, accuracy, overuse", fig6_1_3),
    ("fig6_4", "accuracy vs sampling rate (high-watermark, top-k, p2p-detector)", fig6_4),
    ("fig6_5", "average and minimum accuracy vs overload with custom shedding", fig6_5),
    ("fig6_6_7", "eq_srates without custom shedding vs mmfs_pkt with custom shedding", fig6_6_7),
    ("fig6_8", "performance under a massive DDoS attack", fig6_8),
    ("fig6_9", "effect of new query arrivals", fig6_9),
    ("fig6_10", "robustness against selfish queries", fig6_10),
    ("fig6_11", "robustness against buggy queries", fig6_11),
    (
        "fig6_12_14",
        "long run: CPU, drops, accuracy and shedding rate over time (Table 6.2)",
        fig6_12_14,
    ),
    ("ablation_rtthresh", "ablation: buffer discovery on/off", ablation_rtthresh),
    (
        "ablation_error_correction",
        "ablation: EWMA error correction on/off",
        ablation_error_correction,
    ),
];

fn print_list() {
    println!("available experiments (paper artefact -> id):\n");
    for (id, description, _) in ALL_EXPERIMENTS {
        println!("  {id:<26} {description}");
    }
    println!("\nrun them all with: cargo run -p netshed-bench --release --bin experiments -- all");
}

// --------------------------------------------------------------------------
// Shared helpers
// --------------------------------------------------------------------------

fn chapter4_specs() -> Vec<QuerySpec> {
    QueryKind::CHAPTER4_SET.iter().map(|kind| QuerySpec::new(*kind)).collect()
}

fn chapter5_specs() -> Vec<QuerySpec> {
    QueryKind::CHAPTER5_SET.iter().map(|kind| QuerySpec::new(*kind)).collect()
}

/// Runs one query over a trace at full rate and returns, per batch, the
/// feature vector and the (noisy) measured cycles. This is the raw material
/// of every Chapter 3 prediction experiment.
fn query_cost_series(
    kind: QueryKind,
    batches: &[Batch],
    noise_seed: u64,
) -> Vec<(netshed_features::FeatureVector, f64)> {
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

/// Drives a predictor over a cost series and returns its error statistics.
fn predictor_errors(
    predictor: &mut dyn Predictor,
    series: &[(netshed_features::FeatureVector, f64)],
    warmup: usize,
) -> ErrorStats {
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

fn mlr_predictor(history: usize, threshold: f64) -> MlrPredictor {
    MlrPredictor::new(MlrConfig {
        history,
        fcbf: FcbfConfig { threshold, max_features: 8 },
        ..MlrConfig::default()
    })
}

fn feature_name(index: usize) -> String {
    FeatureId::from_index(index).name()
}

// --------------------------------------------------------------------------
// Chapter 2
// --------------------------------------------------------------------------

/// Figure 2.2: average cost per second of every query on the CESCA-II-like
/// profile.
fn fig2_2(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(300), options.scale);
    println!("{:<16} {:>20}", "query", "cycles/second");
    let mut rows = Vec::new();
    for kind in QueryKind::ALL {
        let mut query = build_query(kind);
        let mut total = 0u64;
        for batch in &batches {
            let mut meter = CycleMeter::new();
            query.process_batch(&batch.view(), 1.0, &mut meter);
            total += meter.cycles();
        }
        let seconds = batches.len() as f64 * 0.1;
        rows.push((kind.name(), total as f64 / seconds));
    }
    rows.sort_by(|a, b| a.0.cmp(b.0));
    for (name, cycles_per_second) in rows {
        println!("{name:<16} {cycles_per_second:>20.0}");
    }
}

// --------------------------------------------------------------------------
// Chapter 3: prediction
// --------------------------------------------------------------------------

/// Figure 3.1: cycles of an "unknown" (flows) query under a flood anomaly,
/// against packets, bytes and 5-tuple flows per batch.
fn fig3_1(options: &Options) {
    let mut generator =
        TraceGenerator::new(TraceProfile::CescaI.config(options.seed, options.scale));
    generator.add_anomaly(
        Anomaly::new(AnomalyKind::DdosFlood { target: 0x0a00_0001 }, 40, 60, 1200)
            .with_duty_cycle(20),
    );
    let batches = generator.batches(100);
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    println!("{:>4} {:>12} {:>8} {:>10} {:>8}", "bin", "cpu_cycles", "packets", "bytes", "flows5t");
    for (index, ((features, cycles), batch)) in series.iter().zip(&batches).enumerate() {
        if index % 5 != 0 {
            continue;
        }
        let flows = features.get(FeatureId::from_index(2 + 9 * 4)); // unique 5-tuple
        println!(
            "{index:>4} {cycles:>12.0} {:>8.0} {:>10.0} {flows:>8.0}",
            features.packets(),
            batch.total_bytes() as f64,
        );
    }
}

/// Figure 3.3: scatter of CPU usage vs packets per batch for the flows query.
fn fig3_3(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaI, options.seed, 200, options.scale);
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    println!("{:>8} {:>10} {:>12}", "packets", "new_5t", "cpu_cycles");
    for (features, cycles) in series.iter().step_by(4) {
        let new_5t = features.get(FeatureId::from_index(2 + 9 * 4 + 1));
        println!("{:>8.0} {:>10.0} {:>12.0}", features.packets(), new_5t, cycles);
    }
}

/// Figure 3.4: SLR vs MLR predictions over time for the flows query.
fn fig3_4(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaI, options.seed, 200, options.scale);
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    let mut slr = SlrPredictor::on_packets();
    let mut mlr = mlr_predictor(60, 0.6);
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "bin", "actual", "slr", "mlr", "err_slr", "err_mlr"
    );
    for (index, (features, cycles)) in series.iter().enumerate() {
        let slr_prediction = slr.predict(features);
        let mlr_prediction = mlr.predict(features);
        slr.observe(features, *cycles);
        mlr.observe(features, *cycles);
        if index >= 60 && index % 5 == 0 && *cycles > 0.0 {
            println!(
                "{index:>4} {cycles:>12.0} {slr_prediction:>12.0} {mlr_prediction:>12.0} {:>10.4} {:>10.4}",
                (1.0 - slr_prediction / cycles).abs(),
                (1.0 - mlr_prediction / cycles).abs()
            );
        }
    }
}

/// Figure 3.5: error and cost of the MLR as a function of the history length
/// and of the FCBF threshold (aggregate over the seven queries).
fn fig3_5(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaII, options.seed, 300, options.scale);
    println!("-- error vs history (FCBF threshold fixed at 0.6) --");
    println!("{:>10} {:>12} {:>14}", "history(s)", "mean_error", "cost(ops/bin)");
    for history_seconds in [1usize, 2, 6, 10, 30, 60] {
        let mut total_error = 0.0;
        let mut total_cost = 0.0;
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor = mlr_predictor(history_seconds * 10, 0.6);
            let stats = predictor_errors(&mut predictor, &series, 60);
            total_error += stats.mean();
            total_cost += predictor.last_cost_operations() as f64;
        }
        let n = QueryKind::CHAPTER4_SET.len() as f64;
        println!("{history_seconds:>10} {:>12.4} {:>14.0}", total_error / n, total_cost / n);
    }
    println!("\n-- error vs FCBF threshold (history fixed at 6 s) --");
    println!("{:>10} {:>12} {:>14}", "threshold", "mean_error", "cost(ops/bin)");
    for threshold in [0.0, 0.2, 0.4, 0.6, 0.8, 0.9] {
        let mut total_error = 0.0;
        let mut total_cost = 0.0;
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor = mlr_predictor(60, threshold);
            let stats = predictor_errors(&mut predictor, &series, 60);
            total_error += stats.mean();
            total_cost += predictor.last_cost_operations() as f64;
        }
        let n = QueryKind::CHAPTER4_SET.len() as f64;
        println!("{threshold:>10.1} {:>12.4} {:>14.0}", total_error / n, total_cost / n);
    }
}

/// Figure 3.6: the same sweeps broken down by query.
fn fig3_6(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaII, options.seed, 300, options.scale);
    println!("-- error per query vs history (threshold 0.6) --");
    print!("{:<16}", "query");
    let histories = [1usize, 6, 30];
    for h in histories {
        print!(" {h:>9}s");
    }
    println!();
    for kind in QueryKind::CHAPTER4_SET {
        let series = query_cost_series(kind, &batches, options.seed);
        print!("{:<16}", kind.name());
        for history_seconds in histories {
            let mut predictor = mlr_predictor(history_seconds * 10, 0.6);
            let stats = predictor_errors(&mut predictor, &series, 60);
            print!(" {:>10.4}", stats.mean());
        }
        println!();
    }
    println!("\n-- error per query vs FCBF threshold (history 6 s) --");
    print!("{:<16}", "query");
    let thresholds = [0.2, 0.6, 0.9];
    for t in thresholds {
        print!(" {t:>10.1}");
    }
    println!();
    for kind in QueryKind::CHAPTER4_SET {
        let series = query_cost_series(kind, &batches, options.seed);
        print!("{:<16}", kind.name());
        for threshold in thresholds {
            let mut predictor = mlr_predictor(60, threshold);
            let stats = predictor_errors(&mut predictor, &series, 60);
            print!(" {:>10.4}", stats.mean());
        }
        println!();
    }
}

/// Figures 3.7 and 3.8: MLR+FCBF prediction error over time on the four
/// trace profiles (average and maximum across the seven queries).
fn fig3_7_8(options: &Options) {
    for profile in
        [TraceProfile::CescaI, TraceProfile::CescaII, TraceProfile::Abilene, TraceProfile::Cenic]
    {
        let batches = profile_trace(profile, options.seed, options.batches.min(400), options.scale);
        let mut per_bin_errors: Vec<Vec<f64>> = vec![Vec::new(); batches.len()];
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor = mlr_predictor(60, 0.6);
            for (index, (features, cycles)) in series.iter().enumerate() {
                let prediction = predictor.predict(features);
                if index >= 60 && *cycles > 0.0 {
                    per_bin_errors[index].push((1.0 - prediction / cycles).abs());
                }
                predictor.observe(features, *cycles);
            }
        }
        let errors: Vec<f64> = per_bin_errors.iter().flatten().copied().collect();
        println!(
            "{:<10} average error {:.4}   max error {:.4}",
            profile.name(),
            mean(&errors),
            errors.iter().copied().fold(0.0f64, f64::max)
        );
    }
}

/// Figure 3.9: EWMA vs SLR predictions for the counter query.
fn fig3_9(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaII, options.seed, 150, options.scale);
    let series = query_cost_series(QueryKind::Counter, &batches, options.seed);
    let mut ewma = EwmaPredictor::new(0.3);
    let mut slr = SlrPredictor::on_packets();
    println!("{:>4} {:>12} {:>12} {:>12}", "bin", "actual", "ewma", "slr");
    for (index, (features, cycles)) in series.iter().enumerate() {
        let e = ewma.predict(features);
        let s = slr.predict(features);
        ewma.observe(features, *cycles);
        slr.observe(features, *cycles);
        if index >= 50 && index % 2 == 0 {
            println!("{index:>4} {cycles:>12.0} {e:>12.0} {s:>12.0}");
        }
    }
}

/// Figure 3.10: EWMA prediction error as a function of the weight alpha.
fn fig3_10(options: &Options) {
    let batches = profile_trace(TraceProfile::CescaII, options.seed, 300, options.scale);
    println!("{:>6} {:>12}", "alpha", "mean_error");
    for alpha in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let mut total = 0.0;
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor = EwmaPredictor::new(alpha);
            total += predictor_errors(&mut predictor, &series, 60).mean();
        }
        println!("{alpha:>6.1} {:>12.4}", total / QueryKind::CHAPTER4_SET.len() as f64);
    }
}

/// Figures 3.11 and 3.12: error over time of EWMA and SLR, and the maximum /
/// 95th percentile of the MLR+FCBF error.
fn fig3_11_12(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(400), options.scale);
    for name in ["ewma", "slr", "mlr+fcbf"] {
        let mut all = ErrorStats::new();
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor: Box<dyn Predictor> = match name {
                "ewma" => Box::new(EwmaPredictor::new(0.3)),
                "slr" => Box::new(SlrPredictor::on_packets()),
                _ => Box::new(mlr_predictor(60, 0.6)),
            };
            let stats = predictor_errors(predictor.as_mut(), &series, 60);
            all.merge(&stats);
        }
        println!(
            "{name:<10} average {:.4}   p95 {:.4}   max {:.4}",
            all.mean(),
            all.percentile(95.0),
            all.max()
        );
    }
}

/// Figures 3.13–3.15: the three predictors under a DDoS attack that goes
/// idle every other second (flows query).
fn fig3_13_15(options: &Options) {
    let mut generator =
        TraceGenerator::new(TraceProfile::CescaII.config(options.seed, options.scale));
    generator.add_anomaly(
        Anomaly::new(AnomalyKind::DdosFlood { target: 0x0a00_0001 }, 100, 300, 1500)
            .with_duty_cycle(20),
    );
    let batches = generator.batches(options.batches.min(300));
    let series = query_cost_series(QueryKind::Flows, &batches, options.seed);
    let predictors: Vec<(&str, Box<dyn Predictor>)> = vec![
        ("ewma", Box::new(EwmaPredictor::new(0.3))),
        ("slr", Box::new(SlrPredictor::on_packets())),
        ("mlr+fcbf", Box::new(mlr_predictor(60, 0.6))),
    ];
    for (name, mut predictor) in predictors {
        // Only evaluate over the attack window, which starts at bin 100.
        let mut stats = ErrorStats::new();
        for (index, (features, cycles)) in series.iter().enumerate() {
            let prediction = predictor.predict(features);
            if index >= 100 && *cycles > 0.0 {
                stats.record(prediction, *cycles);
            }
            predictor.observe(features, *cycles);
        }
        println!(
            "{name:<10} error during attack: mean {:.4}  p95 {:.4}  max {:.4}",
            stats.mean(),
            stats.percentile(95.0),
            stats.max()
        );
    }
}

/// Table 3.2: MLR+FCBF prediction error per query and selected features, on
/// two trace profiles (header-only and full-payload).
fn tab3_2(options: &Options) {
    for profile in [TraceProfile::CescaI, TraceProfile::CescaII] {
        println!("\n{} profile:", profile.name());
        println!("{:<16} {:>8} {:>8}   selected features", "query", "mean", "stdev");
        let batches = profile_trace(profile, options.seed, options.batches.min(400), options.scale);
        for kind in QueryKind::CHAPTER4_SET {
            let series = query_cost_series(kind, &batches, options.seed);
            let mut predictor = mlr_predictor(60, 0.6);
            let stats = predictor_errors(&mut predictor, &series, 60);
            let selected: Vec<String> =
                predictor.selected_features().iter().map(|&i| feature_name(i)).collect();
            println!(
                "{:<16} {:>8.4} {:>8.4}   {}",
                kind.name(),
                stats.mean(),
                stats.stdev(),
                selected.join(", ")
            );
        }
    }
}

/// Table 3.3: error statistics per query for EWMA, SLR and MLR+FCBF.
fn tab3_3(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(400), options.scale);
    println!(
        "{:<16} {:>20} {:>20} {:>20}",
        "query", "EWMA (mean ±sd)", "SLR (mean ±sd)", "MLR+FCBF (mean ±sd)"
    );
    for kind in QueryKind::CHAPTER4_SET {
        let series = query_cost_series(kind, &batches, options.seed);
        let mut ewma = EwmaPredictor::new(0.3);
        let mut slr = SlrPredictor::on_packets();
        let mut mlr = mlr_predictor(60, 0.6);
        let e = predictor_errors(&mut ewma, &series, 60);
        let s = predictor_errors(&mut slr, &series, 60);
        let m = predictor_errors(&mut mlr, &series, 60);
        println!(
            "{:<16} {:>20} {:>20} {:>20}",
            kind.name(),
            fmt_pm(e.mean(), e.stdev()),
            fmt_pm(s.mean(), s.stdev()),
            fmt_pm(m.mean(), m.stdev())
        );
    }
}

/// Table 3.4: prediction overhead breakdown (share of the total cycles spent
/// in feature extraction, feature selection and the regression).
fn tab3_4(options: &Options) {
    let specs = chapter4_specs();
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(300), options.scale);
    let config = MonitorConfig::default().with_capacity(1e15).with_strategy(Strategy::NoShedding);
    let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
    let query_cycles: f64 = result.bins.iter().map(|b| b.query_cycles).sum();
    let prediction_cycles: f64 = result.bins.iter().map(|b| b.prediction_cycles).sum();
    let platform_cycles: f64 = result.bins.iter().map(|b| b.platform_cycles).sum();
    let total = query_cycles + prediction_cycles + platform_cycles;
    println!("{:<28} {:>10}", "component", "overhead");
    println!("{:<28} {:>9.3}%", "prediction (extract+FCBF+MLR)", 100.0 * prediction_cycles / total);
    println!("{:<28} {:>9.3}%", "platform", 100.0 * platform_cycles / total);
    println!("{:<28} {:>9.3}%", "query processing", 100.0 * query_cycles / total);
}

// --------------------------------------------------------------------------
// Chapter 4: load shedding
// --------------------------------------------------------------------------

/// Runs the three systems of the Chapter 4 evaluation (predictive, original,
/// reactive) over the same overloaded trace.
fn chapter4_runs(options: &Options) -> Vec<(&'static str, RunResult, f64)> {
    // Chapter 4 evaluates the basic scheme, which applies one common sampling
    // rate to every query and knows nothing about per-query minimum rates
    // (those arrive in Chapter 5), so the constraints are disabled here.
    let specs: Vec<QuerySpec> = QueryKind::CHAPTER4_SET
        .iter()
        .map(|kind| QuerySpec::new(*kind).with_min_rate(0.0))
        .collect();
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches, options.scale);
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    [
        ("predictive", Strategy::Predictive(AllocationPolicy::EqualRates)),
        ("original", Strategy::NoShedding),
        ("reactive", Strategy::Reactive(AllocationPolicy::EqualRates)),
    ]
    .into_iter()
    .map(|(name, strategy)| {
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(strategy)
            .with_seed(options.seed);
        (name, run_with_reference::<Monitor>(config, &specs, &batches, &[]), capacity)
    })
    .collect()
}

/// Figure 4.1: CDF of the CPU usage per batch for the three systems.
fn fig4_1(options: &Options) {
    let runs = chapter4_runs(options);
    let capacity = runs[0].2;
    println!("capacity per batch: {capacity:.0} cycles");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "system", "p10", "p50", "p90", "p99", ">capacity"
    );
    for (name, result, _) in &runs {
        let cycles: Vec<f64> =
            result.bins.iter().map(netshed_monitor::BinRecord::total_cycles).collect();
        let above = cycles.iter().filter(|&&c| c > capacity).count() as f64 / cycles.len() as f64;
        println!(
            "{name:<12} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>9.1}%",
            percentile(&cycles, 10.0),
            percentile(&cycles, 50.0),
            percentile(&cycles, 90.0),
            percentile(&cycles, 99.0),
            above * 100.0
        );
    }
}

/// Figure 4.2: incoming load, uncontrolled drops and unsampled packets.
fn fig4_2(options: &Options) {
    let runs = chapter4_runs(options);
    println!(
        "{:<12} {:>14} {:>16} {:>18}",
        "system", "total packets", "uncontrolled", "unsampled (avg/q)"
    );
    for (name, result, _) in &runs {
        let total: u64 = result.bins.iter().map(|b| b.incoming_packets).sum();
        let unsampled: u64 = result.bins.iter().map(|b| b.unsampled_packets).sum();
        println!("{name:<12} {total:>14} {:>15} {unsampled:>18}", result.uncontrolled_drops());
    }
}

/// Figure 4.3: average error in the query answers per system.
fn fig4_3(options: &Options) {
    let runs = chapter4_runs(options);
    println!("{:<12} {:>14} {:>14}", "system", "mean error", "max query err");
    for (name, result, _) in &runs {
        // As in the paper, only the queries whose unsampled output can be
        // estimated from sampled streams enter the average (pattern-search
        // and trace are excluded).
        let errors: Vec<f64> = result
            .mean_accuracy
            .iter()
            .filter(|(query, _)| **query != "pattern-search" && **query != "trace")
            .map(|(_, accuracy)| 1.0 - accuracy)
            .collect();
        println!(
            "{name:<12} {:>13.2}% {:>13.2}%",
            mean(&errors) * 100.0,
            errors.iter().copied().fold(0.0f64, f64::max) * 100.0
        );
    }
}

/// Figure 4.4: CPU usage after load shedding, stacked by component, plus the
/// predicted full load.
fn fig4_4(options: &Options) {
    let runs = chapter4_runs(options);
    let (_, result, capacity) = &runs[0];
    println!("capacity {capacity:.0} cycles/bin; every 20th bin shown");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "bin", "platform", "prediction", "shedding", "queries", "predicted"
    );
    for record in result.bins.iter().step_by(20) {
        println!(
            "{:>5} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            record.bin_index,
            record.platform_cycles,
            record.prediction_cycles,
            record.shedding_cycles,
            record.query_cycles,
            record.predicted_cycles
        );
    }
}

/// Figures 4.5 and 4.6: CPU usage and flows-query error with and without
/// load shedding during a SYN flood.
fn fig4_5_6(options: &Options) {
    let mut generator =
        TraceGenerator::new(TraceProfile::CescaI.config(options.seed, options.scale));
    generator.add_anomaly(Anomaly::new(
        AnomalyKind::SynFlood { target: 0x0a00_0001, port: 80 },
        100,
        300,
        800,
    ));
    let batches = generator.batches(options.batches.min(400));
    let specs = vec![QuerySpec::new(QueryKind::Flows).with_min_rate(0.0)];
    // Headroom above the normal-traffic demand, as in the paper's manually
    // chosen 6M-cycle threshold: the flood still overloads the system but the
    // non-sheddable feature extraction keeps fitting.
    let capacity = capacity_for_overload(&specs, &batches[..90], 0.0) * 1.5;
    for (name, strategy) in [
        ("no load shedding", Strategy::NoShedding),
        ("load shedding (flow sampling)", Strategy::Predictive(AllocationPolicy::EqualRates)),
    ] {
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(strategy)
            .with_seed(options.seed);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        let cycles: Vec<f64> =
            result.bins.iter().map(netshed_monitor::BinRecord::total_cycles).collect();
        let errors = result.error_series.get("flows").cloned().unwrap_or_default();
        println!(
            "{name:<32} peak cycles {:>12.0}  drops {:>6}  flows error mean {:.3} max {:.3}",
            cycles.iter().copied().fold(0.0f64, f64::max),
            result.uncontrolled_drops(),
            mean(&errors),
            errors.iter().copied().fold(0.0f64, f64::max)
        );
    }
}

/// Table 4.1: accuracy error per query for the three systems.
fn tab4_1(options: &Options) {
    let runs = chapter4_runs(options);
    println!("{:<16} {:>20} {:>20} {:>20}", "query", "predictive", "original", "reactive");
    let names: Vec<String> = {
        let mut n: Vec<String> = runs[0].1.mean_accuracy.keys().cloned().collect();
        n.sort();
        n
    };
    for query in &names {
        // Skip the queries the paper leaves out of Table 4.1 (no standard way
        // to estimate their unsampled output).
        if query == "pattern-search" || query == "trace" {
            continue;
        }
        let cell = |result: &RunResult| {
            let series = result.error_series.get(query).cloned().unwrap_or_default();
            fmt_pm(mean(&series), stdev(&series))
        };
        println!(
            "{query:<16} {:>20} {:>20} {:>20}",
            cell(&runs[0].1),
            cell(&runs[1].1),
            cell(&runs[2].1)
        );
    }
}

// --------------------------------------------------------------------------
// Chapter 5: fairness
// --------------------------------------------------------------------------

/// Figure 5.1: simulated difference in average / minimum accuracy between
/// mmfs_pkt and mmfs_cpu with 1 heavy and 10 light queries.
fn fig5_1(_options: &Options) {
    // Analytical simulation as in Section 5.4: light queries cost 1 unit and
    // tolerate sampling well; the heavy query costs 10 units and its accuracy
    // equals its sampling rate.
    println!("{:>5} {:>5} {:>12} {:>12}", "m_q", "K", "d_avg(pkt-cpu)", "d_min(pkt-cpu)");
    for m_step in 0..=5 {
        let m_q = m_step as f64 * 0.2;
        for k_step in 0..=5 {
            let k = k_step as f64 * 0.2;
            let capacity = 20.0 * (1.0 - k);
            let demands: Vec<netshed_fairness::QueryDemand> = (0..11)
                .map(|i| {
                    let cycles = if i == 0 { 10.0 } else { 1.0 };
                    netshed_fairness::QueryDemand::new(cycles, m_q)
                })
                .collect();
            let accuracy = |allocations: &[netshed_fairness::Allocation]| -> (f64, f64) {
                let accs: Vec<f64> = allocations
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        if a.is_disabled() {
                            0.0
                        } else if i == 0 {
                            a.rate()
                        } else {
                            1.0 - (1.0 - a.rate()) * 0.05
                        }
                    })
                    .collect();
                (mean(&accs), accs.iter().copied().fold(f64::INFINITY, f64::min))
            };
            let pkt = accuracy(&netshed_fairness::mmfs_pkt(&demands, capacity));
            let cpu = accuracy(&netshed_fairness::mmfs_cpu(&demands, capacity));
            println!("{m_q:>5.1} {k:>5.1} {:>12.3} {:>12.3}", pkt.0 - cpu.0, pkt.1 - cpu.1);
        }
    }
}

/// Figure 5.2: the same comparison with real queries (1 trace + 10 counters).
fn fig5_2(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(300), options.scale);
    let mut specs = vec![QuerySpec::new(QueryKind::Trace)];
    for _ in 0..10 {
        specs.push(QuerySpec::new(QueryKind::Counter));
    }
    println!("{:>5} {:>12} {:>12}", "K", "d_avg(pkt-cpu)", "d_min(pkt-cpu)");
    for k_step in 1..=4 {
        let k = k_step as f64 * 0.2;
        let capacity = capacity_for_overload(&specs, &batches, k);
        let pkt = strategy_accuracy(
            Strategy::Predictive(AllocationPolicy::MmfsPkt),
            &specs,
            &batches,
            capacity,
            options.seed,
        );
        let cpu = strategy_accuracy(
            Strategy::Predictive(AllocationPolicy::MmfsCpu),
            &specs,
            &batches,
            capacity,
            options.seed,
        );
        println!("{k:>5.1} {:>12.3} {:>12.3}", pkt.0 - cpu.0, pkt.1 - cpu.1);
    }
}

/// Figure 5.4: average and minimum accuracy of the strategies as a function
/// of the overload level.
fn fig5_4(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(400), options.scale);
    let specs = chapter5_specs();
    println!(
        "{:>5} {:>22} {:>22} {:>22} {:>22} {:>22}",
        "K", "no_lshed", "reactive", "eq_srates", "mmfs_cpu", "mmfs_pkt"
    );
    for k_step in 0..=4 {
        let k = k_step as f64 * 0.2;
        let capacity = capacity_for_overload(&specs, &batches, k);
        print!("{k:>5.1}");
        for strategy in [
            Strategy::NoShedding,
            Strategy::Reactive(AllocationPolicy::EqualRates),
            Strategy::Predictive(AllocationPolicy::EqualRates),
            Strategy::Predictive(AllocationPolicy::MmfsCpu),
            Strategy::Predictive(AllocationPolicy::MmfsPkt),
        ] {
            let (avg, min) = strategy_accuracy(strategy, &specs, &batches, capacity, options.seed);
            print!("   avg {avg:>5.2} min {min:>5.2}");
        }
        println!();
    }
}

/// Figure 5.5: autofocus accuracy over time at K=0.2 for four strategies.
fn fig5_5(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(400), options.scale);
    let specs = chapter5_specs();
    let capacity = capacity_for_overload(&specs, &batches, 0.2);
    for (name, strategy) in [
        ("no_lshed", Strategy::NoShedding),
        ("eq_srates", Strategy::Predictive(AllocationPolicy::EqualRates)),
        ("mmfs_cpu", Strategy::Predictive(AllocationPolicy::MmfsCpu)),
        ("mmfs_pkt", Strategy::Predictive(AllocationPolicy::MmfsPkt)),
    ] {
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(strategy)
            .with_seed(options.seed);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        let series: Vec<f64> = result
            .error_series
            .get("autofocus")
            .map(|errors| errors.iter().map(|e| 1.0 - e).collect())
            .unwrap_or_default();
        let below = series.iter().filter(|&&a| a < 0.5).count();
        println!(
            "{name:<10} mean accuracy {:.3}  min {:.3}  intervals below 0.5: {below}/{}",
            mean(&series),
            series.iter().copied().fold(f64::INFINITY, f64::min),
            series.len()
        );
    }
}

/// Table 5.2: minimum sampling rates and per-query accuracy at K = 0.5,
/// plus the Nash equilibrium check of Section 5.3.
fn tab5_2(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches.min(400), options.scale);
    let specs = chapter5_specs();
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let strategies = [
        ("no_lshed", Strategy::NoShedding),
        ("reactive", Strategy::Reactive(AllocationPolicy::EqualRates)),
        ("eq_srates", Strategy::Predictive(AllocationPolicy::EqualRates)),
        ("mmfs_cpu", Strategy::Predictive(AllocationPolicy::MmfsCpu)),
        ("mmfs_pkt", Strategy::Predictive(AllocationPolicy::MmfsPkt)),
    ];
    let results: Vec<(&str, RunResult)> = strategies
        .iter()
        .map(|(name, strategy)| {
            let config = MonitorConfig::default()
                .with_capacity(capacity)
                .with_strategy(*strategy)
                .with_seed(options.seed);
            (*name, run_with_reference::<Monitor>(config, &specs, &batches, &[]))
        })
        .collect();

    print!("{:<16} {:>5}", "query", "m_q");
    for (name, _) in &results {
        print!(" {name:>10}");
    }
    println!();
    for spec in &specs {
        let query = build_query(spec.kind);
        print!("{:<16} {:>5.2}", query.name(), query.min_sampling_rate());
        for (_, result) in &results {
            print!(" {:>10.2}", result.mean_accuracy.get(query.name()).copied().unwrap_or(0.0));
        }
        println!();
    }

    let game = AllocationGame::new(capacity, specs.len(), FairnessMode::Packet);
    let actions = vec![game.equilibrium_action(); specs.len()];
    println!(
        "\nNash equilibrium check (Section 5.3): all queries demanding C/|Q| = {:.0} is {}",
        game.equilibrium_action(),
        if game.is_nash_equilibrium(&actions, 100, 1e-6) {
            "a Nash equilibrium"
        } else {
            "NOT an equilibrium"
        }
    );
}

// --------------------------------------------------------------------------
// Chapter 6: custom load shedding
// --------------------------------------------------------------------------

fn chapter6_specs(behavior: Option<CustomBehavior>) -> Vec<QuerySpec> {
    let mut specs = vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::Application),
        QuerySpec::new(QueryKind::HighWatermark),
        QuerySpec::new(QueryKind::TopK),
    ];
    match behavior {
        Some(behavior) => {
            specs.push(QuerySpec::new(QueryKind::P2pDetector).with_custom(behavior));
        }
        None => specs.push(QuerySpec::new(QueryKind::P2pDetector)),
    }
    specs
}

/// Figures 6.1–6.3: cycles and accuracy of the p2p-detector with system-side
/// sampling vs its custom method, and the expected-vs-used correction.
fn fig6_1_3(options: &Options) {
    let batches =
        profile_trace(TraceProfile::UpcI, options.seed, options.batches.min(400), options.scale);
    for (name, behavior) in
        [("packet sampling", None), ("custom shedding", Some(CustomBehavior::Honest))]
    {
        let specs = chapter6_specs(behavior);
        let capacity = capacity_for_overload(&specs, &batches, 0.5);
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_seed(options.seed);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        let p2p_cycles: Vec<f64> = result
            .bins
            .iter()
            .filter_map(|b| b.queries.iter().find(|q| q.name == "p2p-detector"))
            .map(|q| q.measured_cycles)
            .collect();
        let expected: Vec<f64> = result
            .bins
            .iter()
            .filter_map(|b| b.queries.iter().find(|q| q.name == "p2p-detector"))
            .map(|q| q.predicted_cycles * q.sampling_rate)
            .collect();
        let overuse: Vec<f64> = p2p_cycles
            .iter()
            .zip(&expected)
            .filter(|(_, e)| **e > 0.0)
            .map(|(c, e)| c / e)
            .collect();
        println!(
            "{name:<18} p2p accuracy {:.3}  mean cycles {:>10.0}  mean used/expected {:.2}",
            result.mean_accuracy.get("p2p-detector").copied().unwrap_or(0.0),
            mean(&p2p_cycles),
            mean(&overuse)
        );
    }
}

/// Figure 6.4: accuracy as a function of the (packet) sampling rate for the
/// high-watermark, top-k and p2p-detector queries.
fn fig6_4(options: &Options) {
    let batches =
        profile_trace(TraceProfile::UpcI, options.seed, options.batches.min(300), options.scale);
    let kinds = [QueryKind::HighWatermark, QueryKind::TopK, QueryKind::P2pDetector];
    print!("{:>6}", "rate");
    for kind in kinds {
        print!(" {:>16}", kind.name());
    }
    println!();
    for rate in [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        print!("{rate:>6.2}");
        for kind in kinds {
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
                    let truth = reference_query.end_interval();
                    errors.push(output.error_against(&truth));
                }
            }
            print!(" {:>16.3}", 1.0 - mean(&errors));
        }
        println!();
    }
}

/// Figure 6.5: average and minimum accuracy at increasing overload levels
/// with custom load shedding enabled.
fn fig6_5(options: &Options) {
    let batches =
        profile_trace(TraceProfile::UpcI, options.seed, options.batches.min(400), options.scale);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    println!("{:>5} {:>12} {:>12}", "K", "avg accuracy", "min accuracy");
    for k_step in 0..=4 {
        let k = k_step as f64 * 0.2;
        let capacity = capacity_for_overload(&specs, &batches, k);
        let (avg, min) = strategy_accuracy(
            Strategy::Predictive(AllocationPolicy::MmfsPkt),
            &specs,
            &batches,
            capacity,
            options.seed,
        );
        println!("{k:>5.1} {avg:>12.3} {min:>12.3}");
    }
}

/// Figures 6.6 and 6.7: a system without custom shedding running eq_srates
/// vs one with custom shedding running mmfs_pkt.
fn fig6_6_7(options: &Options) {
    let batches = profile_trace(TraceProfile::UpcI, options.seed, options.batches, options.scale);
    for (name, specs, policy) in [
        ("eq_srates, no custom shedding", chapter6_specs(None), AllocationPolicy::EqualRates),
        (
            "mmfs_pkt with custom shedding",
            chapter6_specs(Some(CustomBehavior::Honest)),
            AllocationPolicy::MmfsPkt,
        ),
    ] {
        let capacity = capacity_for_overload(&specs, &batches, 0.5);
        let config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(policy))
            .with_seed(options.seed);
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        println!(
            "{name:<32} avg accuracy {:.3}  min accuracy {:.3}  drops {}",
            result.overall_mean_accuracy(),
            result.overall_min_accuracy(),
            result.uncontrolled_drops()
        );
    }
}

/// Figure 6.8: performance in the presence of massive DDoS attacks.
fn fig6_8(options: &Options) {
    let mut generator = TraceGenerator::new(TraceProfile::UpcI.config(options.seed, options.scale));
    let attack_start = (options.batches / 3) as u64;
    let attack_end = (2 * options.batches / 3) as u64;
    generator.add_anomaly(Anomaly::new(
        AnomalyKind::DdosFlood { target: 0x0a00_0001 },
        attack_start,
        attack_end,
        1000,
    ));
    let batches = generator.batches(options.batches);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    let capacity = capacity_for_overload(&specs, &batches[..(options.batches / 4)], 0.2);
    let config = MonitorConfig::default()
        .with_capacity(capacity)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .with_seed(options.seed);
    let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
    println!(
        "DDoS between bins {attack_start} and {attack_end}: avg accuracy {:.3}, min accuracy {:.3}, uncontrolled drops {}",
        result.overall_mean_accuracy(),
        result.overall_min_accuracy(),
        result.uncontrolled_drops()
    );
    let mean_rate_attack: Vec<f64> = result
        .bins
        .iter()
        .filter(|b| b.bin_index >= attack_start && b.bin_index < attack_end)
        .map(netshed_monitor::BinRecord::mean_sampling_rate)
        .collect();
    let mean_rate_normal: Vec<f64> = result
        .bins
        .iter()
        .filter(|b| b.bin_index < attack_start)
        .map(netshed_monitor::BinRecord::mean_sampling_rate)
        .collect();
    println!(
        "mean sampling rate: before attack {:.2}, during attack {:.2}",
        mean(&mean_rate_normal),
        mean(&mean_rate_attack)
    );
}

/// Figure 6.9: effect of new query arrivals.
fn fig6_9(options: &Options) {
    let batches = profile_trace(TraceProfile::UpcI, options.seed, options.batches, options.scale);
    let specs = vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
    let arrivals = vec![
        (options.batches / 4, QuerySpec::new(QueryKind::TopK)),
        (
            options.batches / 2,
            QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest),
        ),
    ];
    let capacity = capacity_for_overload(&chapter6_specs(None), &batches, 0.3);
    let config = MonitorConfig::default()
        .with_capacity(capacity)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .with_seed(options.seed);
    let result = run_with_reference::<Monitor>(config, &specs, &batches, &arrivals);
    println!("queries arriving at bins {} and {}:", options.batches / 4, options.batches / 2);
    for (name, accuracy) in &result.mean_accuracy {
        println!("  {name:<16} mean accuracy {accuracy:.3}");
    }
    println!("uncontrolled drops: {}", result.uncontrolled_drops());
}

/// Figures 6.10 / 6.11: robustness against selfish and buggy queries.
fn selfish_or_buggy(options: &Options, behavior: CustomBehavior) {
    let batches = profile_trace(TraceProfile::UpcI, options.seed, options.batches, options.scale);
    let base = vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::Application),
    ];
    let arrivals = vec![
        (options.batches / 4, QuerySpec::new(QueryKind::P2pDetector).with_custom(behavior)),
        (options.batches / 2, QuerySpec::new(QueryKind::P2pDetector).with_custom(behavior)),
    ];
    let capacity = capacity_for_overload(&chapter6_specs(Some(behavior)), &batches, 0.4);
    let config = MonitorConfig::default()
        .with_capacity(capacity)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .with_seed(options.seed);
    let result = run_with_reference::<Monitor>(config, &base, &batches, &arrivals);
    let disabled_bins = result
        .bins
        .iter()
        .flat_map(|b| b.queries.iter())
        .filter(|q| q.name == "p2p-detector" && q.disabled)
        .count();
    println!("misbehaving variant: {behavior:?}");
    println!("p2p-detector bins disabled by the enforcement policy: {disabled_bins}");
    for (name, accuracy) in &result.mean_accuracy {
        if *name != "p2p-detector" {
            println!("  {name:<16} mean accuracy {accuracy:.3}");
        }
    }
    println!("uncontrolled drops: {}", result.uncontrolled_drops());
}

fn fig6_10(options: &Options) {
    selfish_or_buggy(options, CustomBehavior::Selfish);
}

fn fig6_11(options: &Options) {
    selfish_or_buggy(options, CustomBehavior::Buggy);
}

/// Figures 6.12–6.14 and Table 6.2: a longer "online" run reporting CPU,
/// drops, per-query accuracy and the average shedding rate over time.
fn fig6_12_14(options: &Options) {
    let batches =
        profile_trace(TraceProfile::UpcI, options.seed, options.batches.max(600), options.scale);
    let specs = chapter6_specs(Some(CustomBehavior::Honest));
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    let config = MonitorConfig::default()
        .with_capacity(capacity)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .with_seed(options.seed);
    let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
    println!("capacity {capacity:.0} cycles/bin, {} bins", result.bins.len());
    println!("\nper-query accuracy (Table 6.2):");
    println!("{:<16} {:>20}", "query", "accuracy (mean ±sd)");
    let mut names: Vec<&String> = result.mean_accuracy.keys().collect();
    names.sort();
    for name in names {
        let errors = result.error_series.get(name).cloned().unwrap_or_default();
        let accuracies: Vec<f64> = errors.iter().map(|e| 1.0 - e).collect();
        println!("{name:<16} {:>20}", fmt_pm(mean(&accuracies), stdev(&accuracies)));
    }
    let occupations: Vec<f64> = result.bins.iter().map(|b| b.buffer_occupation).collect();
    let rates: Vec<f64> =
        result.bins.iter().map(netshed_monitor::BinRecord::mean_sampling_rate).collect();
    println!(
        "\nbuffer occupation: mean {:.2}, max {:.2}",
        mean(&occupations),
        occupations.iter().copied().fold(0.0f64, f64::max)
    );
    println!("average load shedding rate: {:.2}", 1.0 - mean(&rates));
    println!("uncontrolled drops: {}", result.uncontrolled_drops());
}

// --------------------------------------------------------------------------
// Ablations
// --------------------------------------------------------------------------

/// Ablation: buffer discovery (rtthresh) on/off.
fn ablation_rtthresh(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches, options.scale);
    let specs = chapter4_specs();
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    for (name, discovery) in [("buffer discovery on", true), ("buffer discovery off", false)] {
        let mut config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_seed(options.seed);
        config.buffer_discovery = discovery;
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        println!(
            "{name:<22} avg accuracy {:.3}  drops {}  mean cycles/bin {:.0}",
            result.overall_mean_accuracy(),
            result.uncontrolled_drops(),
            result.mean_cycles_per_bin()
        );
    }
}

/// Ablation: EWMA prediction-error correction on/off.
fn ablation_error_correction(options: &Options) {
    let batches =
        profile_trace(TraceProfile::CescaII, options.seed, options.batches, options.scale);
    let specs = chapter4_specs();
    let capacity = capacity_for_overload(&specs, &batches, 0.5);
    for (name, alpha) in [("error correction on (alpha=0.9)", 0.9), ("error correction off", 0.0)] {
        let mut config = MonitorConfig::default()
            .with_capacity(capacity)
            .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_seed(options.seed);
        config.ewma_alpha = alpha;
        let result = run_with_reference::<Monitor>(config, &specs, &batches, &[]);
        let over = result.bins.iter().filter(|b| b.total_cycles() > capacity * 1.1).count() as f64
            / result.bins.len() as f64;
        println!(
            "{name:<32} avg accuracy {:.3}  drops {}  bins >110% capacity {:.1}%",
            result.overall_mean_accuracy(),
            result.uncontrolled_drops(),
            over * 100.0
        );
    }
}
