//! The engine contract, pinned from both sides.
//!
//! `Engine::run` is the one run loop in the workspace: `Monitor::run`,
//! `ShardedMonitor::run` and the daemon's final flush are calls into it.
//! Two things keep that honest for both engines:
//!
//! * the `RunSummary` the loop returns on one corpus scenario is pinned to
//!   the bit — counters, and every `cycles_per_bin` / `prediction_errors`
//!   element as its `u64` pattern — as captured at the commit before the
//!   loop was unified for the solo monitor and re-captured for the fleet
//!   when its lanes stopped being monitors (`payload-shift`: quiet bins for
//!   the skip-and-count path, lanes with nothing to run for the fleet);
//! * the three ways to drive an engine — `run`, daemon ticks, a hand-driven
//!   `ingest` loop — agree on all three digest streams.

use netshed::fairness::MmfsPkt;
use netshed::prelude::*;
use netshed_bench::corpus::{
    all_strategies, corpus_capacity, corpus_config, corpus_engine, CORPUS_SEED,
};
use netshed_service::{Daemon, MonitorEngine, TickStatus};
use netshed_trace::scenario::builtin;

/// What `run` must return on the pinned scenario.
struct PinnedSummary {
    total_uncontrolled_drops: u64,
    cycles_per_bin: &'static [u64],
    prediction_errors: &'static [u64],
}

const SOLO: PinnedSummary = PinnedSummary {
    total_uncontrolled_drops: 0,
    cycles_per_bin: &[
        0x40e9932000000000,
        0x40d0d88000000000,
        0x40e1f9c000000000,
        0x40d2508000000000,
        0x40e056a000000000,
        0x40e01dc000000000,
        0x40e1e10000000000,
        0x40d65d0000000000,
        0x40e20d8000000000,
        0x40d8bf0000000000,
        0x40e1392000000000,
        0x40dccd8000000000,
        0x40e1ad4000000000,
        0x40dcca4000000000,
        0x40e1334000000000,
        0x40dccbc000000000,
        0x40e0812000000000,
        0x40df248000000000,
        0x40e019a000000000,
        0x40dea4c000000000,
    ],
    prediction_errors: &[
        0x3ff0000000000000,
        0x3fef3661420d062c,
        0x40232df63120e07c,
        0x4014bf363ef27114,
        0x3ffc11cdfc5f5822,
        0x3ffe8c620dbafdfc,
        0x4002d007a417851a,
        0x4031f5224005c850,
        0x40249a69e1352798,
        0x403b5aed003a1b80,
        0x4022c91dab0607ba,
        0x403398ba3e292ee1,
        0x403247908374d87e,
        0x404a9b1f93b9b18c,
        0x402f3b8863e5b856,
        0x403139cc3a0bf5c4,
        0x40555671e1d58e63,
        0x4049ddc859d7c753,
    ],
};

/// Re-captured when the fleet became the solo bin with a lane-sharded
/// execute stage (the per-lane control loops it replaced summed to other
/// cycles and dropped 59 packets uncontrolled here). The 4-lane summary now
/// *is* the solo one, bit for bit: one control loop sees the same predictions
/// and makes the same decisions, and the five corpus queries' cycle models
/// are additive over a partition of the flows, so the lanes' meters fold to
/// the cycles one instance would have metered.
const FLEET: PinnedSummary = SOLO;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|value| value.to_bits()).collect()
}

/// Drives engine `E` over the pinned scenario three ways and checks the
/// summary of the first against `pinned` and the digests against each other.
fn check<E: MonitorEngine>(pinned: &PinnedSummary) {
    let batches = builtin("payload-shift").expect("builtin scenario").generate().expect("valid");
    let (_, strategy) = all_strategies().into_iter().last().expect("seven strategies");
    let config = corpus_config(strategy, corpus_capacity(&batches), 1);
    let build = || corpus_engine::<E>(config.clone()).expect("valid corpus configuration");

    let mut ran = DigestObserver::new();
    let summary = build().run(&mut BatchReplay::new(batches.clone()), &mut ran).expect("run");
    assert_eq!(summary.bins, 20);
    assert_eq!(summary.empty_bins, 4);
    assert_eq!(summary.total_packets, 584);
    assert_eq!(summary.total_uncontrolled_drops, pinned.total_uncontrolled_drops);
    assert_eq!(bits(&summary.cycles_per_bin), pinned.cycles_per_bin);
    assert_eq!(bits(&summary.prediction_errors), pinned.prediction_errors);

    let (daemon, _control) = Daemon::new(build(), BatchReplay::new(batches.clone()));
    let mut daemon = daemon.with_bins_per_tick(3);
    assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
    assert_eq!(daemon.digest(), ran.digest(), "daemon ticks diverged from run");

    let mut engine = build();
    let mut driven = DigestObserver::new();
    for batch in batches.iter().filter(|batch| !batch.is_empty()) {
        engine.ingest(batch, &mut driven).expect("ingest");
    }
    driven.on_interval(&engine.finish_interval());
    assert_eq!(driven.digest(), ran.digest(), "a hand-driven ingest loop diverged from run");
}

#[test]
fn monitor_run_is_the_pinned_loop_and_every_driver_agrees() {
    check::<Monitor>(&SOLO);
}

#[test]
fn fleet_run_is_the_pinned_loop_and_every_driver_agrees() {
    check::<ShardedMonitor>(&FLEET);
}

// ---------------------------------------------------------------------------
// An unshed multi-tenant run: where every predictor of an engine stores the
// same feature rows, which is what lets them share the feature side of FCBF.
// ---------------------------------------------------------------------------

/// Ticks a 10-bins-per-tick daemon over the next `bins` bins.
fn advance<E: MonitorEngine>(daemon: &mut Daemon<BatchReplay, E>, bins: u64) {
    for _ in 0..bins / 10 {
        assert_eq!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 10 });
    }
}

/// One pinned run over the deployment matrix: at 1 and 4 workers,
/// uninterrupted and across a mid-run restore, the solo monitor and the
/// 1-lane fleet must land on `solo` and the 4-lane fleet on `four_lanes`.
fn assert_pinned_across_engines_workers_and_a_restore(
    base: &MonitorConfig,
    solo_run: fn(&MonitorConfig, bool) -> RunDigest,
    fleet_run: fn(&MonitorConfig, bool) -> RunDigest,
    solo: RunDigest,
    four_lanes: RunDigest,
) {
    for workers in [1, 4] {
        let config = base.clone().with_workers(workers);
        let one_lane = config.clone().with_shard_lanes(1);
        let four = config.clone().with_shard_lanes(4);
        for cut in [false, true] {
            let context = format!("workers {workers}, cut {cut}");
            assert_eq!(solo_run(&config, cut), solo, "solo, {context}");
            assert_eq!(fleet_run(&one_lane, cut), solo, "one lane, {context}");
            assert_eq!(fleet_run(&four, cut), four_lanes, "four lanes, {context}");
        }
    }
}

/// The three digest streams of the tenant run below on a solo monitor, as
/// captured at the commit before predictors started sharing an engine's
/// feature window.
const TENANTS_SOLO: RunDigest = RunDigest {
    bins: 150,
    records: 0xd47bce35f181b53f,
    decisions: 0x8838c012af1cb294,
    intervals: 0xec0d307d541cfb68,
};
/// Re-captured when lanes started folding query state instead of reports
/// (`Query::absorb`). Nothing is shed, so the interval stream *is* the solo
/// one, bit for bit, for all five kinds; the records differ from solo's in
/// the cycles the lane instances metered (and carry the interval outputs,
/// which is why they moved), the decisions did not move.
const TENANTS_FOUR_LANES: RunDigest = RunDigest {
    bins: 150,
    records: 0x0b22061bcf955cbb,
    decisions: 0xd1c0c4696dfee087,
    intervals: TENANTS_SOLO.intervals,
};

/// 25 tenants over 150 unshed bins under a daemon: a 26th registers after
/// bin 40 and the fourth leaves after bin 100, so the engine holds
/// predictors that are younger than its window and a registry that shrank.
/// With `cut`, the run is checkpointed after bin 70 and finished by a daemon
/// restored from the bytes — whose predictors start with a window that has
/// seen nothing.
fn tenant_run<E: MonitorEngine>(config: &MonitorConfig, cut: bool) -> RunDigest {
    const KINDS: [QueryKind; 5] = [
        QueryKind::Counter,
        QueryKind::Application,
        QueryKind::Flows,
        QueryKind::TopK,
        QueryKind::HighWatermark,
    ];
    let tenant = |index: usize| {
        QuerySpec::new(KINDS[index % KINDS.len()]).with_label(format!("tenant-{index:02}"))
    };
    let source = || {
        let traffic = TraceConfig::default().with_seed(29).with_mean_packets_per_batch(300.0);
        BatchReplay::record(&mut TraceGenerator::new(traffic), 150)
    };

    let mut engine = E::from_config(config.clone()).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..25).map(|index| engine.register(&tenant(index)).expect("valid spec")).collect();
    let (daemon, mut control) = Daemon::new(engine, source());
    let mut daemon = daemon.with_bins_per_tick(10);
    advance(&mut daemon, 40);
    let late = control.register_query(tenant(25));
    advance(&mut daemon, 30);
    late.wait().expect("registered");
    if cut {
        let bytes = daemon.checkpoint().expect("checkpoint");
        let (restored, restored_control) =
            Daemon::<_, E>::restore_engine(config.clone(), source(), &bytes).expect("restore");
        daemon = restored.with_bins_per_tick(10);
        control = restored_control;
    }
    advance(&mut daemon, 30);
    let left = control.deregister_query(ids[3]);
    assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
    left.wait().expect("deregistered");
    assert_eq!(daemon.bins_ingested(), 150);
    daemon.digest()
}

#[test]
fn an_unshed_tenant_run_is_pinned_across_engines_workers_and_a_restore() {
    let config = MonitorConfig::default()
        .with_capacity(1e15)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .without_noise();
    assert_pinned_across_engines_workers_and_a_restore(
        &config,
        tenant_run::<Monitor>,
        tenant_run::<ShardedMonitor>,
        TENANTS_SOLO,
        TENANTS_FOUR_LANES,
    );
}

// ---------------------------------------------------------------------------
// A run whose registry and policy change under load: what a per-bin context
// reused across bins must survive.
// ---------------------------------------------------------------------------

/// The three digest streams of the churn run below, as captured at the
/// commit before the bin's scratch vectors became one reused context.
/// Capacity of the churn run: the 13-tenant phases run about 2x overloaded,
/// the 40-tenant phase about 5x, the 3-tenant phase unshed.
const CHURN_CAPACITY: f64 = 7.0e5;
const CHURN_SOLO: RunDigest = RunDigest {
    bins: 120,
    records: 0x003bb68130b61dce,
    decisions: 0xedd85e843cda7e8b,
    intervals: 0x4fce30ec6db2fae4,
};
/// Re-captured with `Query::absorb`, like `TENANTS_FOUR_LANES`: the decisions
/// did not move, the interval outputs (and the records that carry them) did.
const CHURN_FOUR_LANES: RunDigest = RunDigest {
    bins: 120,
    records: 0x05f9bbc5f2bf9afc,
    decisions: 0x7091b67e9e182951,
    intervals: 0xcbdb4cc1c01ac0f1,
};

/// 120 overloaded bins (noise on) under a daemon while the registry shrinks
/// and grows — 40 tenants of all ten kinds, 37 of them gone after bin 20, ten
/// new ones after bin 30 — and the policy swaps to the oracle (which adds the
/// shadow twins and the measured-cycles vector) after bin 40 and back
/// after bin 60. With `cut`, the run is checkpointed after bin 70 and
/// finished by a daemon restored from the bytes. Every vector a bin fills per
/// query changes length four times and one of them comes and goes.
fn churn_run<E: MonitorEngine>(config: &MonitorConfig, cut: bool) -> RunDigest {
    let tenant = |index: usize| {
        QuerySpec::new(QueryKind::ALL[index % QueryKind::ALL.len()])
            .with_label(format!("tenant-{index:02}"))
    };
    let source = || {
        let traffic = TraceConfig::default()
            .with_seed(31)
            .with_mean_packets_per_batch(300.0)
            .with_payloads(true);
        BatchReplay::record(&mut TraceGenerator::new(traffic), 120)
    };

    let mut engine = E::from_config(config.clone()).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..40).map(|index| engine.register(&tenant(index)).expect("valid spec")).collect();
    let (daemon, control) = Daemon::new(engine, source());
    let mut daemon = daemon.with_bins_per_tick(10);
    advance(&mut daemon, 20);
    let left: Vec<_> = ids[3..].iter().map(|id| control.deregister_query(*id)).collect();
    advance(&mut daemon, 10);
    for pending in left {
        pending.wait().expect("deregistered");
    }
    let joined: Vec<_> = (40..50).map(|index| control.register_query(tenant(index))).collect();
    advance(&mut daemon, 10);
    for pending in joined {
        pending.wait().expect("registered");
    }
    let oracle = control.swap_policy(PolicySpec::new(|| OraclePolicy::new(MmfsPkt)));
    advance(&mut daemon, 20);
    assert_eq!(oracle.wait().expect("swapped"), "oracle_mmfs_pkt");
    let back = control.swap_policy(config.policy.clone());
    advance(&mut daemon, 10);
    assert_eq!(back.wait().expect("swapped back"), config.policy.name());
    if cut {
        let bytes = daemon.checkpoint().expect("checkpoint");
        let (restored, _) =
            Daemon::<_, E>::restore_engine(config.clone(), source(), &bytes).expect("restore");
        daemon = restored.with_bins_per_tick(10);
    }
    assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
    assert_eq!(daemon.bins_ingested(), 120);
    daemon.digest()
}

#[test]
fn a_run_that_churns_registry_and_policy_is_pinned_across_engines_workers_and_a_restore() {
    let config = MonitorConfig::default()
        .with_capacity(CHURN_CAPACITY)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt));
    assert_pinned_across_engines_workers_and_a_restore(
        &config,
        churn_run::<Monitor>,
        churn_run::<ShardedMonitor>,
        CHURN_SOLO,
        CHURN_FOUR_LANES,
    );
}

/// Telemetry reaches neither the checkpoint nor the digest: two runs of one
/// input write byte-identical `.nsck` bytes mid-run and end on equal digests
/// while their stage clocks — wall time — read differently.
#[test]
fn two_runs_of_one_input_differ_only_in_their_stage_stats() {
    fn run<E: MonitorEngine>(config: &MonitorConfig) -> (Vec<u8>, RunDigest, StageStats) {
        let traffic = TraceConfig::default().with_seed(31).with_mean_packets_per_batch(300.0);
        let source = BatchReplay::record(&mut TraceGenerator::new(traffic), 40);
        let mut engine = E::from_config(config.clone()).expect("valid configuration");
        for kind in QueryKind::CHAPTER4_SET {
            engine.register(&QuerySpec::new(kind)).expect("valid spec");
        }
        let (daemon, _control) = Daemon::new(engine, source);
        let mut daemon = daemon.with_bins_per_tick(25);
        assert_eq!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 25 });
        let bytes = daemon.checkpoint().expect("checkpoint");
        assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
        (bytes, daemon.digest(), daemon.monitor().stage_stats())
    }
    fn check<E: MonitorEngine>(config: &MonitorConfig) {
        let (first, second) = (run::<E>(config), run::<E>(config));
        assert!(first.0 == second.0, "the checkpoints differ");
        assert_eq!(first.1, second.1);
        assert_eq!((first.2.bins, first.2.tasks), (second.2.bins, second.2.tasks));
        assert_ne!(first.2.ns, second.2.ns, "two runs read the same wall time in every stage");
    }
    let config = MonitorConfig::default().with_capacity(CHURN_CAPACITY).with_seed(CORPUS_SEED);
    check::<Monitor>(&config);
    check::<ShardedMonitor>(&config.with_shard_lanes(4));
}
