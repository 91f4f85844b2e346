//! Execution-plane determinism tests: for any worker count, the monitor must
//! produce **bit-identical** per-bin records, decisions and interval outputs
//! — the contract that makes `with_workers` a pure wall-clock knob.
//!
//! The runs deliberately keep measurement noise *enabled*: the noise RNG is
//! the easiest place for a parallel dispatch to reorder draws, so the replay
//! must prove the pre-draw discipline holds, not sidestep it.

use netshed::fairness::MmfsPkt;
use netshed::prelude::*;

/// Payload-carrying traffic so packet-, flow- and custom-shedding queries all
/// do real work.
fn recorded_batches(batches: usize) -> Vec<Batch> {
    TraceGenerator::new(
        TraceConfig::default().with_seed(41).with_mean_packets_per_batch(300.0).with_payloads(true),
    )
    .batches(batches)
}

/// One query per shedding method, plus top-k whose 0.57 minimum rate forces
/// the disabled path under overload: packet sampling (counter,
/// pattern-search), flow sampling (flows), custom shedding (p2p-detector).
fn specs_with(custom: CustomBehavior) -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::TopK),
        QuerySpec::new(QueryKind::PatternSearch),
        QuerySpec::new(QueryKind::P2pDetector).with_custom(custom),
    ]
}

fn specs() -> Vec<QuerySpec> {
    specs_with(CustomBehavior::Honest)
}

/// Collects everything the monitor emits, for exact comparison.
#[derive(Default)]
struct FullTape {
    records: Vec<BinRecord>,
    intervals: Vec<Vec<(String, QueryOutput)>>,
    decisions: Vec<(u64, ControlDecision)>,
}

impl RunObserver for FullTape {
    fn on_bin(&mut self, record: &BinRecord) {
        self.records.push(record.clone());
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.intervals.push(outputs.to_vec());
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.decisions.push((bin_index, decision.clone()));
    }
}

fn replay(
    batches: &[Batch],
    capacity: f64,
    strategy: Option<Strategy>,
    workers: usize,
) -> (FullTape, RunSummary) {
    // Noise stays on (the builder default) — determinism must survive it.
    let mut builder =
        Monitor::builder().capacity(capacity).seed(23).with_workers(workers).queries(specs());
    builder = match strategy {
        Some(strategy) => builder.strategy(strategy),
        None => builder.with_policy(|| OraclePolicy::new(MmfsPkt)),
    };
    run_to_tape(batches, builder)
}

fn run_to_tape(batches: &[Batch], builder: MonitorBuilder) -> (FullTape, RunSummary) {
    let mut monitor = builder.build().expect("valid configuration");
    let mut tape = FullTape::default();
    let summary =
        monitor.run(&mut BatchReplay::new(batches.to_vec()), &mut tape).expect("run succeeds");
    (tape, summary)
}

/// The acceptance criterion of the execution plane: replaying the same trace
/// with 1, 2 and 4 workers yields bit-identical `BinRecord` streams,
/// control decisions and interval outputs for all seven built-in strategy
/// names plus the oracle policy (which adds the shadow twins to the predict
/// task).
#[test]
fn worker_count_never_changes_the_output_stream() {
    let batches = recorded_batches(50);
    let demand = netshed::monitor::reference::measure_total_demand(&specs(), &batches[..20])
        .expect("valid query specs");
    let capacity = demand / 2.0;

    let configurations: Vec<(String, Option<Strategy>)> = [
        Strategy::NoShedding,
        Strategy::Reactive(AllocationPolicy::EqualRates),
        Strategy::Reactive(AllocationPolicy::MmfsCpu),
        Strategy::Reactive(AllocationPolicy::MmfsPkt),
        Strategy::Predictive(AllocationPolicy::EqualRates),
        Strategy::Predictive(AllocationPolicy::MmfsCpu),
        Strategy::Predictive(AllocationPolicy::MmfsPkt),
    ]
    .into_iter()
    .map(|strategy| (strategy.name(), Some(strategy)))
    .chain([("oracle_mmfs_pkt".to_string(), None)])
    .collect();

    for (name, strategy) in configurations {
        let (sequential, sequential_summary) = replay(&batches, capacity, strategy, 1);
        assert!(!sequential.records.is_empty(), "{name}: the replay must process bins");
        for workers in [2, 4] {
            let (parallel, parallel_summary) = replay(&batches, capacity, strategy, workers);
            assert_eq!(
                sequential.records, parallel.records,
                "{name}: BinRecord stream diverged at {workers} workers"
            );
            assert_eq!(
                sequential.decisions, parallel.decisions,
                "{name}: decision stream diverged at {workers} workers"
            );
            assert_eq!(
                sequential.intervals, parallel.intervals,
                "{name}: interval outputs diverged at {workers} workers"
            );
            assert_eq!(
                sequential_summary, parallel_summary,
                "{name}: run summary diverged at {workers} workers"
            );
        }
    }
}

/// The dispatch walks every registered query every bin, including the ones
/// the plan sat out. A `Selfish` custom query under tight enforcement is
/// caught and serves a penalty, so the *penalised* slot — not predicted, not
/// run, its penalty counted down in the plan — is crossed by the predict and
/// tail dispatches at every worker count, next to top-k's rate-0 slot.
#[test]
fn penalised_slots_are_walked_identically_at_any_worker_count() {
    let batches = recorded_batches(50);
    let specs = specs_with(CustomBehavior::Selfish);
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..20])
        .expect("valid query specs");
    let replay_selfish = |workers: usize| {
        let builder = Monitor::builder()
            .capacity(demand / 2.0)
            .seed(23)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .enforcement(EnforcementConfig { tolerance: 0.05, max_violations: 1, penalty_bins: 3 })
            .with_workers(workers)
            .queries(specs.clone());
        run_to_tape(&batches, builder)
    };

    let (sequential, sequential_summary) = replay_selfish(1);
    let custom = specs.len() - 1;
    let penalised = sequential
        .records
        .iter()
        .filter(|record| {
            // A penalised query is not even predicted; a rate-0 one is.
            record.queries[custom].disabled && record.queries[custom].predicted_cycles == 0.0
        })
        .count();
    assert!(penalised >= 3, "the selfish query must serve a whole penalty ({penalised} bins)");
    assert!(
        sequential.records.iter().any(|record| !record.queries[custom].disabled),
        "and must run between them"
    );
    for workers in [2, 4] {
        let (parallel, parallel_summary) = replay_selfish(workers);
        assert_eq!(sequential.records, parallel.records, "records at {workers} workers");
        assert_eq!(sequential.decisions, parallel.decisions, "decisions at {workers} workers");
        assert_eq!(sequential.intervals, parallel.intervals, "intervals at {workers} workers");
        assert_eq!(sequential_summary, parallel_summary, "summary at {workers} workers");
    }
}

/// Tasks migrate between scratches: nine sampled queries (every one of them
/// re-extracts each bin it runs) over one, two and four workers, solo and as a
/// four-lane fleet. Which worker — and so which extraction scratch — serves
/// which query differs from bin to bin and from run to run; the digest of
/// everything the engine emits does not.
#[test]
fn more_queries_than_workers_share_the_worker_scratches_invisibly() {
    let batches = recorded_batches(40);
    let sampled = [QueryKind::Counter, QueryKind::Flows, QueryKind::PatternSearch];
    let specs: Vec<QuerySpec> =
        (0..9).map(|i| QuerySpec::new(sampled[i % 3]).with_label(format!("tenant-{i}"))).collect();
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..20])
        .expect("valid query specs");
    let digest_of = |workers: usize, fleet: bool| {
        let builder = Monitor::builder()
            .capacity(demand / 3.0)
            .seed(29)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_workers(workers)
            .queries(specs.clone());
        let mut observers = (DigestObserver::new(), FullTape::default());
        let mut source = BatchReplay::new(batches.clone());
        if fleet {
            let mut engine = builder.with_shard_lanes(4).build_sharded().expect("valid fleet");
            engine.run(&mut source, &mut observers).expect("run");
        } else {
            builder.build().expect("valid monitor").run(&mut source, &mut observers).expect("run");
        }
        let sampled_runs = (observers.1.records.iter().flat_map(|record| &record.queries))
            .filter(|query| !query.disabled && query.sampling_rate < 1.0)
            .count();
        (observers.0.digest(), sampled_runs)
    };
    for fleet in [false, true] {
        let (sequential, sampled_runs) = digest_of(1, fleet);
        assert!(sampled_runs > 9 * 20, "most runs must re-extract: {sampled_runs}");
        for workers in [2, 4] {
            assert_eq!(digest_of(workers, fleet).0, sequential, "{workers} workers, fleet {fleet}");
        }
    }
}

/// Tasks race to fill one shared fit: in an unshed engine every predictor is
/// aligned with the feature window, and tenants of one kind tend to select
/// the same features, so several prediction tasks ask the window for the
/// same factorisation in the same bin — one decomposes it, the others wait
/// for it or find it made. Forty-four tenants over four kinds at one, two
/// and four workers: whoever wins, the digest does not move.
#[test]
fn tenants_racing_for_one_shared_fit_emit_one_digest_at_any_worker_count() {
    let batches = recorded_batches(70);
    let kinds = [QueryKind::Counter, QueryKind::Flows, QueryKind::TopK, QueryKind::HighWatermark];
    let specs: Vec<QuerySpec> = (0..44)
        .map(|i| QuerySpec::new(kinds[i % kinds.len()]).with_label(format!("tenant-{i:02}")))
        .collect();
    let digest_of = |workers: usize| {
        let builder = Monitor::builder()
            .capacity(1e15)
            .seed(31)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_workers(workers)
            .queries(specs.clone());
        let mut observers = (DigestObserver::new(), FullTape::default());
        builder
            .build()
            .expect("valid monitor")
            .run(&mut BatchReplay::new(batches.clone()), &mut observers)
            .expect("run");
        let shed = (observers.1.records.iter().flat_map(|record| &record.queries))
            .filter(|query| query.disabled || query.sampling_rate < 1.0)
            .count();
        assert_eq!(shed, 0, "{workers} workers: the engine must stay unshed");
        observers.0.digest()
    };
    let sequential = digest_of(1);
    for workers in [2, 4] {
        assert_eq!(digest_of(workers), sequential, "{workers} workers");
    }
}

/// Tasks race to fill one memo: forty `flows` tenants ask the batch's store
/// for the same flows' table keys in the same bin, each filling whichever
/// slots nobody has yet, beside tenants of the four other kinds of the
/// benchmark's tenant mix. Unshed, every tenant walks every flow; shed, each
/// `flows` tenant flow-samples under its own hash function and asks for a
/// different subset. At one, two and four workers the digest does not move.
#[test]
fn flows_tenants_racing_for_one_key_memo_emit_one_digest_at_any_worker_count() {
    let batches = recorded_batches(40);
    let others =
        [QueryKind::Counter, QueryKind::Application, QueryKind::TopK, QueryKind::HighWatermark];
    let specs: Vec<QuerySpec> = (0..40)
        .map(|_| QueryKind::Flows)
        .chain(others.iter().cycle().take(8).copied())
        .enumerate()
        .map(|(i, kind)| QuerySpec::new(kind).with_label(format!("tenant-{i:02}")))
        .collect();
    let demand = netshed::monitor::reference::measure_total_demand(&specs, &batches[..20])
        .expect("valid query specs");
    let digest_of = |capacity: f64, workers: usize| {
        let builder = Monitor::builder()
            .capacity(capacity)
            .seed(37)
            .strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
            .with_workers(workers)
            .queries(specs.clone());
        let mut observers = (DigestObserver::new(), FullTape::default());
        builder
            .build()
            .expect("valid monitor")
            .run(&mut BatchReplay::new(batches.clone()), &mut observers)
            .expect("run");
        let sampled_flows = (observers.1.records.iter().flat_map(|record| &record.queries))
            .filter(|query| &*query.name < "tenant-40" && query.sampling_rate < 1.0)
            .count();
        (observers.0.digest(), sampled_flows)
    };
    for (capacity, shed) in [(1e15, false), (demand / 2.0, true)] {
        let (sequential, sampled_flows) = digest_of(capacity, 1);
        assert_eq!(sampled_flows > 0, shed, "capacity {capacity}: {sampled_flows} sampled runs");
        for workers in [2, 4] {
            assert_eq!(
                digest_of(capacity, workers).0,
                sequential,
                "{workers} workers, shed {shed}"
            );
        }
    }
}

/// Runs the 20-bin unshed trace through `engine` and returns its stage
/// telemetry with the wall nanoseconds taken around the run.
fn stage_stats_of<E: Engine>(mut engine: E) -> (StageStats, u64) {
    let start = std::time::Instant::now();
    engine.run(&mut BatchReplay::new(recorded_batches(20)), &mut NullObserver).expect("run");
    let wall_ns = start.elapsed().as_nanos() as u64;
    (engine.stage_stats(), wall_ns)
}

/// `base` under a built-in policy and under the oracle, which adds the
/// shadow twins to the predict task — and no task to the bin.
fn under_each_policy(base: impl Fn() -> MonitorBuilder) -> [(&'static str, MonitorBuilder); 2] {
    [
        ("eq_srates", base().strategy(Strategy::Predictive(AllocationPolicy::EqualRates))),
        ("oracle", base().with_policy(|| OraclePolicy::new(MmfsPkt))),
    ]
}

/// The lap clock must account for every bin: each of the seven stages saw
/// time, the charges fit inside the wall time around the run, and the tasks
/// are the ones the plane actually dispatched — one predict and one execute
/// task per query, under a built-in policy and under the oracle alike.
#[test]
fn stage_stats_account_for_every_bin() {
    let base = || Monitor::builder().capacity(1e12).seed(5).with_workers(2).queries(specs());
    for (policy, builder) in under_each_policy(base) {
        let monitor = builder.build().expect("valid configuration");
        assert_eq!(monitor.workers(), 2);
        let (stats, wall_ns) = stage_stats_of(monitor);
        assert!(stats.bins > 0, "{policy}: bins must be counted");
        // Two dispatches a bin of five tasks each; extraction runs on the
        // plan thread.
        assert_eq!(stats.tasks, stats.bins * 2 * 5, "{policy}");
        for stage in Stage::BIN {
            assert!(stats.ns(stage) > 0, "{policy}: {stage:?} saw no time");
        }
        assert_eq!(stats.bin_ns(), stats.ns.iter().sum::<u64>());
        assert!(stats.parallel_fraction() > 0.0 && stats.parallel_fraction() < 1.0);
        assert!(stats.bin_ns() <= wall_ns, "{policy}: laps overlap: {stats:?} in {wall_ns} ns");
    }
}

/// The fleet twin: a fleet's bin is the same seven stages read by the same
/// one clock — no front-end slots, no per-lane clocks — and the same two
/// dispatches of one task per query: the lanes run inside each query's
/// execute task, so the task count does not grow with the lane count.
#[test]
fn fleet_stage_stats_are_the_same_seven_stages() {
    let base = || Monitor::builder().capacity(1e12).seed(5).with_shard_lanes(4).queries(specs());
    for (policy, builder) in under_each_policy(base) {
        let fleet = builder.build_sharded().expect("valid configuration");
        assert_eq!(fleet.lane_count(), 4);
        let (stats, wall_ns) = stage_stats_of(fleet);
        assert_eq!(stats.bins, 20, "{policy}");
        assert_eq!(Stage::COUNT, Stage::BIN.len(), "a fleet adds no stage");
        // Five predictions and five executions a bin — not twenty of either.
        assert_eq!(stats.tasks, stats.bins * 2 * 5, "{policy}");
        for stage in Stage::BIN {
            assert!(stats.ns(stage) > 0, "{policy}: {stage:?} saw no time");
        }
        assert!(stats.bin_ns() <= wall_ns, "{policy}: laps overlap: {stats:?} in {wall_ns} ns");
        assert!(stats.parallel_fraction() > 0.0 && stats.parallel_fraction() < 1.0);
    }
}

/// `with_workers` is validated like every other builder knob.
#[test]
fn worker_counts_outside_the_domain_are_rejected() {
    for workers in [0, netshed::monitor::MAX_WORKERS + 1] {
        let error = Monitor::builder().with_workers(workers).build().unwrap_err();
        assert!(
            matches!(error, NetshedError::InvalidConfig(_)),
            "workers = {workers} produced {error:?}"
        );
    }
    let monitor =
        Monitor::builder().with_workers(4).build().expect("in-domain worker count builds");
    assert_eq!(monitor.workers(), 4);
    assert_eq!(monitor.config().workers, 4);
}
