//! Control-plane equivalence and extension tests: the `Strategy` enum path
//! and the `ControlPolicy` trait path must be bit-identical for every
//! built-in, and the new policies must actually control load.

use netshed::fairness::{EqualRates, MmfsCpu, MmfsPkt};
use netshed::prelude::*;

fn recorded_batches(batches: usize) -> Vec<Batch> {
    TraceGenerator::new(
        TraceConfig::default().with_seed(17).with_mean_packets_per_batch(300.0).with_payloads(true),
    )
    .batches(batches)
}

fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::TopK),
        QuerySpec::new(QueryKind::PatternSearch),
    ]
}

fn run_with(builder: MonitorBuilder, batches: &[Batch]) -> RunSummary {
    let mut monitor = builder.queries(specs()).build().expect("valid configuration");
    monitor.run(&mut BatchReplay::new(batches.to_vec()), &mut NullObserver).expect("run")
}

/// The acceptance criterion of the control-plane redesign: for every
/// built-in `Strategy`, constructing the monitor through the enum and
/// through the equivalent explicitly-built policy produces a bit-identical
/// `RunSummary` for the same config, seed and batches.
#[test]
fn enum_and_trait_paths_are_bit_identical_for_all_seven_strategies() {
    let batches = recorded_batches(60);
    let demand = netshed::monitor::reference::measure_total_demand(&specs(), &batches[..20])
        .expect("valid query specs");
    let capacity = demand / 2.0;

    let policy_for = |strategy: Strategy| -> Box<dyn ControlPolicy> {
        match strategy {
            Strategy::NoShedding => Box::new(NoSheddingPolicy),
            Strategy::Reactive(AllocationPolicy::EqualRates) => {
                Box::new(ReactivePolicy::new(EqualRates))
            }
            Strategy::Reactive(AllocationPolicy::MmfsCpu) => Box::new(ReactivePolicy::new(MmfsCpu)),
            Strategy::Reactive(AllocationPolicy::MmfsPkt) => Box::new(ReactivePolicy::new(MmfsPkt)),
            Strategy::Predictive(AllocationPolicy::EqualRates) => {
                Box::new(PredictivePolicy::new(EqualRates))
            }
            Strategy::Predictive(AllocationPolicy::MmfsCpu) => {
                Box::new(PredictivePolicy::new(MmfsCpu))
            }
            Strategy::Predictive(AllocationPolicy::MmfsPkt) => {
                Box::new(PredictivePolicy::new(MmfsPkt))
            }
        }
    };

    for strategy in [
        Strategy::NoShedding,
        Strategy::Reactive(AllocationPolicy::EqualRates),
        Strategy::Reactive(AllocationPolicy::MmfsCpu),
        Strategy::Reactive(AllocationPolicy::MmfsPkt),
        Strategy::Predictive(AllocationPolicy::EqualRates),
        Strategy::Predictive(AllocationPolicy::MmfsCpu),
        Strategy::Predictive(AllocationPolicy::MmfsPkt),
    ] {
        let base = || Monitor::builder().capacity(capacity).seed(11).no_noise();
        let via_enum = run_with(base().strategy(strategy), &batches);
        let via_trait = run_with(base().with_policy(move || policy_for(strategy)), &batches);
        assert_eq!(
            via_enum,
            via_trait,
            "strategy '{}' must be bit-identical between the enum and trait paths",
            strategy.name()
        );
    }
}

/// A user-defined predictor plugs in through the same registration pattern.
#[test]
fn custom_predictor_factory_from_outside_the_crates_runs() {
    use netshed::features::FeatureVector;

    /// Predicts a constant — useless, but unmistakably ours.
    struct Flat(f64);

    impl Predictor for Flat {
        fn predict(&mut self, _features: &FeatureVector) -> f64 {
            self.0
        }

        fn observe(&mut self, _features: &FeatureVector, _actual_cycles: f64) {}

        fn name(&self) -> &'static str {
            "flat"
        }
    }

    let batches = recorded_batches(20);
    let mut monitor = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .with_predictor(|| Box::new(Flat(1234.5)) as Box<dyn Predictor>)
        .query(QuerySpec::new(QueryKind::Counter))
        .build()
        .expect("valid configuration");
    for batch in &batches {
        let record = monitor.process_batch(batch).expect("batch");
        assert_eq!(record.queries[0].predicted_cycles, 1234.5);
    }
}

/// The oracle policy cannot be surprised: it sheds from the very first bin
/// of an overloaded run, while a history-driven predictor is blind until it
/// has observations (the cold-start gap every predictor pays, which is what
/// makes the oracle the upper bound of the family).
#[test]
fn oracle_policy_sheds_from_the_first_bin_where_predictors_are_blind() {
    let batches = recorded_batches(60);
    let demand = netshed::monitor::reference::measure_total_demand(&specs(), &batches[..20])
        .expect("valid query specs");
    let capacity = demand / 2.0;

    struct Track {
        reasons: Vec<DecisionReason>,
        cycles: Vec<f64>,
    }
    impl RunObserver for Track {
        fn on_decision(&mut self, _bin_index: u64, decision: &ControlDecision) {
            self.reasons.push(decision.reason);
        }

        fn on_bin(&mut self, record: &BinRecord) {
            self.cycles.push(record.total_cycles());
        }
    }

    let run = |oracle: bool| -> (Track, RunSummary) {
        let mut builder = Monitor::builder()
            .capacity(capacity)
            .seed(29)
            .no_noise()
            // EWMA: purely history-driven, so bin 0 predicts zero cycles.
            .predictor(PredictorKind::Ewma)
            .queries(specs());
        builder = if oracle {
            builder.with_policy(|| OraclePolicy::new(MmfsPkt))
        } else {
            builder.strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        };
        let mut monitor = builder.build().expect("valid configuration");
        let mut track = Track { reasons: Vec::new(), cycles: Vec::new() };
        let summary = monitor.run(&mut BatchReplay::new(batches.clone()), &mut track).expect("run");
        (track, summary)
    };

    let (predictive, _) = run(false);
    let (oracle, oracle_summary) = run(true);

    assert_eq!(
        predictive.reasons[0],
        DecisionReason::FitsInBudget,
        "a cold history-driven predictor sees no demand on bin 0 and does not shed"
    );
    assert_eq!(
        oracle.reasons[0],
        DecisionReason::Overload,
        "the oracle sees the true bin-0 demand and sheds immediately"
    );
    assert!(
        oracle.cycles[0] < predictive.cycles[0],
        "shedding bin 0 must cost fewer cycles than running it blind ({:.0} vs {:.0})",
        oracle.cycles[0],
        predictive.cycles[0]
    );
    assert_eq!(oracle_summary.total_uncontrolled_drops, 0, "the oracle must not drop uncontrolled");
}
