//! Integration tests of the streaming-first public API: builder validation,
//! dynamic query lifecycle through `QueryId` handles, and `PacketSource`
//! round-trips.

use netshed::prelude::*;

fn small_source(seed: u64, batches: usize) -> impl PacketSource {
    TraceGenerator::new(TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(60.0))
        .take_batches(batches)
}

#[test]
fn builder_rejects_invalid_configs_with_typed_errors() {
    assert!(matches!(
        Monitor::builder().capacity(0.0).build(),
        Err(NetshedError::InvalidConfig(_))
    ));
    assert!(matches!(
        Monitor::builder().capacity(f64::NAN).build(),
        Err(NetshedError::InvalidConfig(_))
    ));
    assert!(matches!(
        Monitor::builder().ewma_alpha(2.0).build(),
        Err(NetshedError::InvalidConfig(_))
    ));
    assert!(matches!(
        Monitor::builder().capacity(100.0).platform_overhead(200.0).build(),
        Err(NetshedError::CapacityUnderflow { .. })
    ));
    assert!(matches!(
        Monitor::builder().query(QuerySpec::new(QueryKind::Counter).with_min_rate(-0.5)).build(),
        Err(NetshedError::InvalidConfig(_))
    ));
    // The error message names the offending field.
    let error = Monitor::builder().ewma_alpha(-1.0).build().unwrap_err();
    assert!(error.to_string().contains("ewma_alpha"), "unhelpful message: {error}");
}

#[test]
fn duplicate_kind_registration_with_distinct_labels() {
    let monitor = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .query(QuerySpec::new(QueryKind::Counter).with_label("counter-a"))
        .query(QuerySpec::new(QueryKind::Counter).with_label("counter-b"))
        .build()
        .expect("valid configuration");
    assert_eq!(monitor.query_names(), vec!["counter-a", "counter-b"]);
    let handles = monitor.query_handles();
    assert_ne!(handles[0].0, handles[1].0, "instances get distinct handles");

    // Both instances run and report under their own labels — and, seeing the
    // same unsampled traffic, report identical counts.
    let mut monitor2 = monitor;
    let mut source = small_source(11, 25);
    let mut summary_outputs: Vec<Vec<(String, QueryOutput)>> = Vec::new();
    struct Collect<'a>(&'a mut Vec<Vec<(String, QueryOutput)>>);
    impl RunObserver for Collect<'_> {
        fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
            self.0.push(outputs.to_vec());
        }
    }
    monitor2.run(&mut source, &mut Collect(&mut summary_outputs)).expect("run");
    assert!(!summary_outputs.is_empty());
    for interval in &summary_outputs {
        assert_eq!(interval.len(), 2);
        assert_eq!(interval[0].0, "counter-a");
        assert_eq!(interval[1].0, "counter-b");
        assert_eq!(interval[0].1, interval[1].1, "same kind, same traffic, same output");
    }
}

#[test]
fn register_deregister_mid_run_matches_a_fresh_monitor() {
    // A monitor that hosts a transient second query mid-run must report the
    // same outputs for the query that stays as a monitor that never saw the
    // transient (ample capacity, no noise: the transient changes no rates).
    let batches =
        TraceGenerator::new(TraceConfig::default().with_seed(23).with_mean_packets_per_batch(80.0))
            .batches(30);

    let collect = |with_transient: bool| -> Vec<(String, QueryOutput)> {
        let mut monitor = Monitor::builder()
            .capacity(1e12)
            .no_noise()
            .seed(5)
            .query(QuerySpec::new(QueryKind::Counter))
            .build()
            .expect("valid configuration");
        let mut transient = None;
        let mut outputs = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            if with_transient && i == 8 {
                transient = Some(
                    monitor
                        .register(&QuerySpec::new(QueryKind::Flows).with_label("transient"))
                        .expect("valid spec"),
                );
            }
            if with_transient && i == 17 {
                monitor.deregister(transient.take().expect("registered")).expect("known id");
            }
            let record = monitor.process_batch(batch).expect("non-empty batch");
            if let Some(interval) = record.interval_outputs {
                outputs.extend(interval.into_iter().filter(|(name, _)| name == "counter"));
            }
        }
        outputs
            .into_iter()
            .chain(monitor.finish_interval().into_iter().filter(|(name, _)| name == "counter"))
            .collect()
    };

    let with = collect(true);
    let without = collect(false);
    assert_eq!(with.len(), without.len());
    for ((name_a, out_a), (name_b, out_b)) in with.iter().zip(&without) {
        assert_eq!(name_a, name_b);
        assert_eq!(out_a, out_b, "the transient query must not disturb the survivor");
    }
}

#[test]
fn deregistering_twice_is_an_unknown_query_error() {
    let mut monitor = Monitor::builder()
        .capacity(1e12)
        .query(QuerySpec::new(QueryKind::Counter))
        .build()
        .expect("valid configuration");
    let id = monitor.query_handles()[0].0;
    monitor.deregister(id).expect("first deregistration succeeds");
    assert_eq!(monitor.deregister(id), Err(NetshedError::UnknownQuery(id.to_string())));
}

#[test]
fn generator_and_replay_of_the_same_batches_produce_identical_summaries() {
    let config = TraceConfig::default().with_seed(77).with_mean_packets_per_batch(120.0);
    let specs = vec![QuerySpec::new(QueryKind::Counter), QuerySpec::new(QueryKind::Flows)];
    let build = || {
        Monitor::builder()
            .capacity(1e12)
            .no_noise()
            .seed(9)
            .queries(specs.clone())
            .build()
            .expect("valid configuration")
    };

    // Live: the generator streams straight into the monitor.
    let mut live_source = TraceGenerator::new(config.clone()).take_batches(40);
    let live = build().run(&mut live_source, &mut NullObserver).expect("run");

    // Replay: the identical batches recorded first, then replayed.
    let mut replay = BatchReplay::record(&mut TraceGenerator::new(config), 40);
    let replayed = build().run(&mut replay, &mut NullObserver).expect("run");

    assert_eq!(live, replayed, "streaming and replaying the same traffic must match exactly");
    assert_eq!(live.bins + live.empty_bins, 40);
}

#[test]
fn interleaved_sources_aggregate_their_traffic() {
    let mk = |seed: u64| {
        Box::new(
            TraceGenerator::new(
                TraceConfig::default().with_seed(seed).with_mean_packets_per_batch(50.0),
            )
            .take_batches(20),
        ) as Box<dyn PacketSource>
    };
    let mut merged = Interleave::new(vec![mk(1), mk(2)]);
    let mut single = mk(1);

    let mut monitor_merged = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .query(QuerySpec::new(QueryKind::Counter))
        .build()
        .expect("valid configuration");
    let merged_summary = monitor_merged.run(&mut merged, &mut NullObserver).expect("run");

    let mut monitor_single = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .query(QuerySpec::new(QueryKind::Counter))
        .build()
        .expect("valid configuration");
    let single_summary = monitor_single.run(&mut single, &mut NullObserver).expect("run");

    assert!(
        merged_summary.total_packets > single_summary.total_packets,
        "two interleaved links must carry more packets than one ({} vs {})",
        merged_summary.total_packets,
        single_summary.total_packets
    );
}

/// A user-defined `ControlPolicy`, written entirely outside the monitor
/// crate, compiles, runs, and shows up in the per-bin decisions.
#[test]
fn custom_policy_from_outside_the_monitor_crate_runs() {
    /// Sheds every query to a fixed rate whenever the predicted demand
    /// exceeds the budget.
    struct PanicButton {
        rate: f64,
        triggered: u64,
    }

    impl ControlPolicy for PanicButton {
        fn decide(&mut self, ctx: &ControlContext<'_>) -> ControlDecision {
            let demand: f64 = ctx.predictions.iter().sum();
            if demand <= ctx.available_cycles {
                return ControlDecision::full_rates(ctx.predictions.len());
            }
            self.triggered += 1;
            ControlDecision {
                rates: vec![self.rate; ctx.predictions.len()],
                budget: Some(ctx.available_cycles),
                inflation: 1.0,
                allocations: None,
                reason: DecisionReason::Custom,
            }
        }

        fn name(&self) -> String {
            format!("panic_button_{:.2}", self.rate)
        }
    }

    let batches = TraceGenerator::new(
        TraceConfig::default().with_seed(17).with_mean_packets_per_batch(300.0).with_payloads(true),
    )
    .batches(60);
    let specs = vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::PatternSearch),
    ];
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..20])
        .expect("valid query specs");
    let mut monitor = Monitor::builder()
        .capacity(demand / 2.0)
        .seed(5)
        .no_noise()
        .with_policy(|| PanicButton { rate: 0.25, triggered: 0 })
        .queries(specs)
        .build()
        .expect("valid configuration");
    assert_eq!(monitor.policy_name(), "panic_button_0.25");

    struct DecisionStats {
        custom_bins: u64,
        quarter_rate_bins: u64,
    }
    impl RunObserver for DecisionStats {
        fn on_decision(&mut self, _bin_index: u64, decision: &ControlDecision) {
            if decision.reason == DecisionReason::Custom {
                self.custom_bins += 1;
                if decision.rates.iter().all(|rate| (*rate - 0.25).abs() < 1e-12) {
                    self.quarter_rate_bins += 1;
                }
            }
        }
    }
    let mut stats = DecisionStats { custom_bins: 0, quarter_rate_bins: 0 };
    let summary = monitor.run(&mut BatchReplay::new(batches), &mut stats).expect("run");
    assert!(summary.bins > 0);
    assert!(
        stats.custom_bins > summary.bins / 2,
        "a 2x-overloaded system should trip the panic button most bins ({} of {})",
        stats.custom_bins,
        summary.bins
    );
    assert_eq!(stats.custom_bins, stats.quarter_rate_bins, "every custom decision sheds to 0.25");
}

#[test]
fn run_flushes_the_final_interval_exactly_once() {
    struct CountIntervals(usize);
    impl RunObserver for CountIntervals {
        fn on_interval(&mut self, _outputs: &[(String, QueryOutput)]) {
            self.0 += 1;
        }
    }
    let mut monitor = Monitor::builder()
        .capacity(1e12)
        .no_noise()
        .query(QuerySpec::new(QueryKind::Counter))
        .build()
        .expect("valid configuration");
    let mut counter = CountIntervals(0);
    // 25 batches of 100 ms = 2.5 s: two mid-run interval closes + final flush.
    monitor.run(&mut small_source(3, 25), &mut counter).expect("run");
    assert_eq!(counter.0, 3);
    // A second run starts from a clean interval state.
    let mut counter2 = CountIntervals(0);
    monitor.run(&mut small_source(4, 5), &mut counter2).expect("run");
    assert_eq!(counter2.0, 1);
}
