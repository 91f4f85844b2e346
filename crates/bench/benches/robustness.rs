//! Robustness harness: measures how far each control policy's *accuracy*
//! degrades under the adversarial corpus (predictor-gaming workloads)
//! relative to the measured-cycles `OraclePolicy`, and how much of that gap
//! the hardened configuration — `DegradationGuard` around the predictive
//! policy plus the `robust_mlr_fcbf` predictor — claws back. Numbers land in
//! `BENCH_robustness.json` (workspace root, or `$BENCH_OUT` if set).
//!
//! Every configuration runs twice — on a solo `Monitor` and on a 4-lane
//! `ShardedMonitor` fleet (`fleet` block per scenario) — through the one
//! harness, `run_with_reference::<E>`. A fleet is the same control loop over
//! lane-sharded query execution: one policy instance, so one guard and one
//! tripwire, and `degraded_bins` counts bins on both shapes. The fleet's
//! recovered fraction is reported, not gated.
//!
//! Accuracy is the paper's metric: each query's answers against an
//! unconstrained reference execution, averaged over measurement intervals,
//! then over queries (`accuracy`) or minimised over them (`accuracy_min`,
//! the Figure 5.4 quantity). A gamed predictor under-predicts,
//! keeps rates too high, overloads the bin and drops packets without
//! control — which is exactly where accuracy dies, because uncontrolled
//! drops (unlike deliberate sampling) cannot be corrected for. Overload and
//! the mean sampling rate ride along as secondary symptoms so over-shedding
//! is just as visible as overload.
//!
//! Every configuration is run `repeats` times; the accuracy of every repeat
//! must be bit-identical (the corpus determinism contract re-checked from a
//! second angle). The best wall-clock of each configuration is printed to
//! stdout, not written to the file: every cell of `BENCH_robustness.json` is
//! a deterministic function of the code, so a regeneration on an unchanged
//! engine comes out byte-identical.
//!
//! Run with `cargo bench -p netshed-bench --bench robustness`; pass
//! `-- --smoke` for the fast CI shape (fewer repeats, same JSON shape).

use netshed_bench::corpus::{
    all_strategies, corpus_capacity, corpus_specs, ADVERSARIAL_SCENARIOS, CORPUS_SEED,
};
use netshed_bench::report::{num, Report, Table};
use netshed_bench::run_with_reference;
use netshed_fairness::EqualRates;
use netshed_monitor::{
    AllocationPolicy, DegradationGuard, Monitor, MonitorConfig, OraclePolicy, PolicySpec,
    PredictivePolicy, PredictorKind, ShardedMonitor, Strategy,
};
use netshed_service::MonitorEngine;
use netshed_trace::{scenario::builtin, Batch};
use std::time::Instant;

/// Lanes of the fleet leg.
const FLEET_LANES: usize = 4;

/// One configuration's measured outcome on one scenario.
struct Outcome {
    name: String,
    /// Mean per-query accuracy against the unconstrained reference run.
    accuracy: f64,
    /// Minimum over queries of the per-query mean accuracy.
    accuracy_min: f64,
    /// Mean over bins of `max(0, query_cycles − available_cycles) / capacity`.
    overload: f64,
    mean_rate: f64,
    degraded_bins: u64,
    uncontrolled_drops: u64,
    best_elapsed_s: f64,
}

/// Runs one configuration of engine `E` over the scenario `repeats` times,
/// asserting the accuracy is bit-identical across repeats, and keeps the
/// best wall-clock (printed, never published).
fn measure<E: MonitorEngine>(
    name: &str,
    batches: &[Batch],
    config: &MonitorConfig,
    repeats: u32,
) -> Outcome {
    let specs = corpus_specs();
    let capacity = config.capacity_cycles_per_bin;
    let mut outcome: Option<Outcome> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = run_with_reference::<E>(config.clone(), &specs, batches, &[]);
        let elapsed_s = start.elapsed().as_secs_f64();
        let sample = Outcome {
            name: name.to_string(),
            accuracy: result.overall_mean_accuracy(),
            accuracy_min: result.overall_min_accuracy(),
            overload: result.overload_damage(capacity),
            mean_rate: result.mean_sampling_rate(),
            degraded_bins: result.degraded_bins(),
            uncontrolled_drops: result.uncontrolled_drops(),
            best_elapsed_s: elapsed_s,
        };
        match &mut outcome {
            None => outcome = Some(sample),
            Some(first) => {
                assert_eq!(
                    first.accuracy.to_bits(),
                    sample.accuracy.to_bits(),
                    "{name}: accuracy drifted between repeats — determinism contract broken"
                );
                first.best_elapsed_s = first.best_elapsed_s.min(elapsed_s);
            }
        }
    }
    outcome.expect("at least one repeat")
}

/// Every configuration's outcome on one engine shape.
struct EngineNumbers {
    strategies: Vec<Outcome>,
    oracle: Outcome,
    guard_only: Outcome,
    robust_only: Outcome,
    hardened: Outcome,
    baseline_accuracy: f64,
    gap_recovered_fraction: f64,
}

/// Measures every built-in strategy, the oracle and the hardened
/// configuration on engine `E` and computes the recovered fraction of the
/// baseline-vs-oracle accuracy gap.
fn bench_engine<E: MonitorEngine>(batches: &[Batch], capacity: f64, repeats: u32) -> EngineNumbers {
    let base = MonitorConfig::default()
        .with_capacity(capacity)
        .with_seed(CORPUS_SEED)
        .with_shard_lanes(FLEET_LANES);
    let run = |name: &str, config: MonitorConfig| measure::<E>(name, batches, &config, repeats);
    let guarded = PolicySpec::new(|| DegradationGuard::new(PredictivePolicy::new(EqualRates)));

    let strategies: Vec<Outcome> = all_strategies()
        .into_iter()
        .map(|(name, strategy)| run(&name, base.clone().with_strategy(strategy)))
        .collect();
    let oracle = run(
        "oracle_eq_srates",
        base.clone().with_strategy(PolicySpec::new(|| OraclePolicy::new(EqualRates))),
    );
    // Ablations: each half of the hardened stack alone, so the JSON shows
    // where the recovery comes from scenario by scenario.
    let guard_only = run("guard_only", base.clone().with_strategy(guarded.clone()));
    let robust_only = run(
        "robust_only",
        base.clone()
            .with_strategy(Strategy::Predictive(AllocationPolicy::EqualRates))
            .with_predictor(PredictorKind::RobustMlrFcbf),
    );
    let hardened = run(
        "guarded_eq_srates+robust_mlr_fcbf",
        base.with_strategy(guarded).with_predictor(PredictorKind::RobustMlrFcbf),
    );

    // The baseline the hardened stack replaces: the paper's predictive policy
    // with the same allocator (eq_srates) and the plain MLR predictor.
    let baseline_accuracy = strategies
        .iter()
        .find(|outcome| outcome.name == "eq_srates")
        .expect("eq_srates is a built-in strategy")
        .accuracy;
    let gap = oracle.accuracy - baseline_accuracy;
    // No gap means the attack never separated the baseline from the oracle;
    // there is nothing to recover and the hardened stack trivially succeeds.
    let gap_recovered_fraction =
        if gap > f64::EPSILON { (hardened.accuracy - baseline_accuracy) / gap } else { 1.0 };

    EngineNumbers {
        strategies,
        oracle,
        guard_only,
        robust_only,
        hardened,
        baseline_accuracy,
        gap_recovered_fraction,
    }
}

/// What every outcome row carries.
const OUTCOME_COLUMNS: [&str; 8] = [
    "name",
    "accuracy",
    "accuracy_min",
    "degradation_vs_oracle",
    "overload",
    "mean_sampling_rate",
    "uncontrolled_drops",
    "degraded_bins",
];

impl EngineNumbers {
    /// One engine shape's numbers: the strategies and ablations as tables of
    /// [`OUTCOME_COLUMNS`] rows, the oracle and the hardened stack as records.
    fn report(&self) -> Report {
        let cells = |outcome: &Outcome| {
            [
                outcome.name.as_str().into(),
                num(outcome.accuracy, 6),
                num(outcome.accuracy_min, 6),
                num(self.oracle.accuracy - outcome.accuracy, 6),
                num(outcome.overload, 4),
                num(outcome.mean_rate, 4),
                outcome.uncontrolled_drops.into(),
                outcome.degraded_bins.into(),
            ]
        };
        let columns = OUTCOME_COLUMNS.map(ToString::to_string);
        let table = |outcomes: &mut dyn Iterator<Item = &Outcome>| {
            let mut table = Table::new(&OUTCOME_COLUMNS);
            outcomes.for_each(|outcome| table.row(cells(outcome)));
            table
        };
        Report::new()
            .table("strategies", table(&mut self.strategies.iter()))
            .report("oracle", Report::record(&columns, cells(&self.oracle)))
            .table("ablations", table(&mut [&self.guard_only, &self.robust_only].into_iter()))
            .report("hardened", Report::record(&columns, cells(&self.hardened)))
            .cell("baseline_accuracy", num(self.baseline_accuracy, 6))
            .cell("gap_recovered_fraction", num(self.gap_recovered_fraction, 4))
    }

    /// Prints each configuration's best wall-clock, one line each.
    fn print_elapsed(&self, shape: &str) {
        let outcomes = self.strategies.iter().chain([
            &self.oracle,
            &self.guard_only,
            &self.robust_only,
            &self.hardened,
        ]);
        for outcome in outcomes {
            println!("{shape} {}: best_elapsed_s {:.4}", outcome.name, outcome.best_elapsed_s);
        }
    }
}

fn main() {
    let smoke = criterion::smoke_mode();
    let repeats = if smoke { 2 } else { 4 };

    let mut scenarios = Vec::new();
    let (mut min_recovered, mut fleet_min_recovered) = (f64::INFINITY, f64::INFINITY);
    for name in ADVERSARIAL_SCENARIOS {
        let batches =
            builtin(name).expect("adversarial scenario is a builtin").generate().expect("valid");
        let capacity = corpus_capacity(&batches);
        let solo = bench_engine::<Monitor>(&batches, capacity, repeats);
        let fleet = bench_engine::<ShardedMonitor>(&batches, capacity, repeats);
        // The CI grep-gates key on these exact phrases: a "0 bins" line means
        // the tripwire slept through an attack.
        println!(
            "{name}: tripwire fired on {} bins; recovered {:.0}% of the accuracy gap",
            solo.hardened.degraded_bins,
            solo.gap_recovered_fraction * 100.0
        );
        println!(
            "{name} fleet: tripwire fired on {} bins; recovered {:.0}% of the accuracy gap",
            fleet.hardened.degraded_bins,
            fleet.gap_recovered_fraction * 100.0
        );
        solo.print_elapsed(name);
        fleet.print_elapsed(&format!("{name} fleet"));
        min_recovered = min_recovered.min(solo.gap_recovered_fraction);
        fleet_min_recovered = fleet_min_recovered.min(fleet.gap_recovered_fraction);
        // The solo monitor's numbers sit in the scenario record itself, the
        // fleet's under `fleet`.
        let scenario = Report::new()
            .cell("scenario", name)
            .cell("bins", batches.len())
            .cell("capacity_cycles", num(capacity, 0))
            .extend(solo.report())
            .report("fleet", Report::new().cell("lanes", FLEET_LANES).extend(fleet.report()));
        eprint!("{scenario}");
        scenarios.push(scenario);
    }

    Report::bench("robustness", smoke)
        .cell("repeats", u64::from(repeats))
        .cell("accuracy_metric", "mean per-query accuracy vs an unconstrained reference execution")
        .cell("accuracy_min_metric", "minimum over queries of the per-query mean accuracy")
        .list("scenarios", scenarios)
        .cell("min_gap_recovered_fraction", num(min_recovered, 4))
        .cell("fleet_min_gap_recovered_fraction", num(fleet_min_recovered, 4))
        .publish("BENCH_robustness.json");
}
