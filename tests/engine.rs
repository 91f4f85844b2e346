//! The engine contract, pinned from both sides.
//!
//! `Engine::run` is the one run loop in the workspace: `Monitor::run`,
//! `ShardedMonitor::run` and the daemon's final flush are calls into it.
//! Two things keep that honest for both engines:
//!
//! * the `RunSummary` the loop returns on one corpus scenario is pinned to
//!   the bit — counters, and every `cycles_per_bin` / `prediction_errors`
//!   element as its `u64` pattern — as captured at the commit before the
//!   loop was unified for the solo monitor, re-captured for the fleet
//!   when its lanes stopped being monitors (`payload-shift`: quiet bins for
//!   the skip-and-count path, lanes with nothing to run for the fleet) and
//!   re-captured for both at digest epoch 2 (coordinated packet sampling:
//!   one key per packet for every packet-sampled query moved the draws; the
//!   p2p-detector's custom method, whose cycles now follow its rate, moved
//!   the cycles and the plan);
//! * the three ways to drive an engine — `run`, daemon ticks, a hand-driven
//!   `ingest` loop — agree on all three digest streams.
//!
//! The digest pins below were re-captured at digest epoch 5, which changed
//! the fingerprint function and nothing else: one run of each pinned shape
//! lands on the new pin under the four-lane digest and on epoch 4's pin
//! (kept in `tests/oracle/`) under the one-chain one.

mod oracle;

use netshed::fairness::MmfsPkt;
use netshed::prelude::*;
use netshed_bench::corpus::{
    all_strategies, corpus_capacity, corpus_config, corpus_engine, CORPUS_SEED,
};
use netshed_service::{Daemon, MonitorEngine, TickStatus};
use netshed_trace::scenario::builtin;
use oracle::{
    WordSerialDigestObserver, EPOCH4_CHURN_FOUR_LANES, EPOCH4_CHURN_SOLO,
    EPOCH4_TENANTS_FOUR_LANES, EPOCH4_TENANTS_SOLO,
};
use std::borrow::Borrow;

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
        0x40dd168000000000,
        0x40d6c38000000000,
        0x40e3272000000000,
        0x40d5c90000000000,
        0x40e43e2000000000,
        0x40d6ff0000000000,
        0x40e2890000000000,
        0x40d88c8000000000,
        0x40e2614000000000,
        0x40da4b0000000000,
        0x40e3124000000000,
        0x40d9840000000000,
        0x40e24b4000000000,
        0x40dbcf8000000000,
        0x40e062c000000000,
        0x40e0006000000000,
        0x40de658000000000,
        0x40e0e4e000000000,
    ],
    prediction_errors: &[
        0x3ff0000000000000,
        0x4001eb02734f03bf,
        0x400803ebb79e3a36,
        0x4006b23d5a18c2c0,
        0x402033b4843d7050,
        0x3fdf2b017a0119d8,
        0x3ff7a555f0416914,
        0x40416a639ef2a21f,
        0x4022bd4e754702b8,
        0x401bf429e7f368a1,
        0x402744015766d933,
        0x40346bd362d52181,
        0x4029af88bcc201f9,
        0x402237c69e5bdc1a,
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
/// feature window (re-captured at digest epochs 3 and 5, like every digest
/// pin here).
const TENANTS_SOLO: RunDigest = RunDigest {
    bins: 150,
    records: 0xb249ded6f6394862,
    decisions: 0x84f63971a4ecb1d0,
    intervals: 0xfb6aec851f535344,
};
/// Re-captured when lanes started folding query state instead of reports
/// (`Query::absorb`). Nothing is shed, so the interval stream *is* the solo
/// one, bit for bit, for all five kinds; the records differ from solo's in
/// the cycles the lane instances metered (and carry the interval outputs,
/// which is why they moved), the decisions did not move.
const TENANTS_FOUR_LANES: RunDigest = RunDigest {
    bins: 150,
    records: 0x32b9a54c861d7afa,
    decisions: 0x82459139ef61aa1b,
    intervals: TENANTS_SOLO.intervals,
};

/// Tenant `index` of the unshed run: five kinds in turn.
fn tenant_spec(index: usize) -> QuerySpec {
    const KINDS: [QueryKind; 5] = [
        QueryKind::Counter,
        QueryKind::Application,
        QueryKind::Flows,
        QueryKind::TopK,
        QueryKind::HighWatermark,
    ];
    QuerySpec::new(KINDS[index % KINDS.len()]).with_label(format!("tenant-{index:02}"))
}

fn tenant_config() -> MonitorConfig {
    MonitorConfig::default()
        .with_capacity(1e15)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
        .without_noise()
}

fn tenant_source() -> BatchReplay {
    let traffic = TraceConfig::default().with_seed(29).with_mean_packets_per_batch(300.0);
    BatchReplay::record(&mut TraceGenerator::new(traffic), 150)
}

/// 25 tenants over 150 unshed bins under a daemon: a 26th registers after
/// bin 40 and the fourth leaves after bin 100, so the engine holds
/// predictors that are younger than its window and a registry that shrank.
/// With `cut`, the run is checkpointed after bin 70 and finished by a daemon
/// restored from the bytes — whose predictors start with a window that has
/// seen nothing.
fn tenant_run<E: MonitorEngine>(config: &MonitorConfig, cut: bool) -> RunDigest {
    let mut engine = E::from_config(config.clone()).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..25).map(|index| engine.register(&tenant_spec(index)).expect("valid spec")).collect();
    let (daemon, mut control) = Daemon::new(engine, tenant_source());
    let mut daemon = daemon.with_bins_per_tick(10);
    advance(&mut daemon, 40);
    let late = control.register_query(tenant_spec(25));
    advance(&mut daemon, 30);
    late.wait().expect("registered");
    if cut {
        let bytes = daemon.checkpoint().expect("checkpoint");
        let (restored, restored_control) =
            Daemon::<_, E>::restore_engine(config.clone(), tenant_source(), &bytes)
                .expect("restore");
        daemon = restored.with_bins_per_tick(10);
        control = restored_control;
    }
    advance(&mut daemon, 30);
    // Five cohorts of five run a set of instances each, and so does the late
    // tenant, which missed 40 bins — a restore keeps it apart, though its
    // bytes equal its kind's in any interval it saw from the start.
    let runs = Borrow::<Monitor>::borrow(daemon.monitor()).query_runs();
    assert_eq!(runs, 6, "instance sets run in a bin");
    let left = control.deregister_query(ids[3]);
    assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
    left.wait().expect("deregistered");
    assert_eq!(daemon.bins_ingested(), 150);
    daemon.digest()
}

#[test]
fn an_unshed_tenant_run_is_pinned_across_engines_workers_and_a_restore() {
    assert_pinned_across_engines_workers_and_a_restore(
        &tenant_config(),
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
/// commit before the bin's scratch vectors became one reused context,
/// re-captured at digest epoch 2 (its packet-sampled tenants share one key
/// per packet), at digest epoch 3 (the fingerprint), at digest epoch 4 (its
/// noisy 40-tenant phase runs cohorts of four, whose followers take their
/// head's noise draw instead of drawing their own, which moved every later
/// draw; `corpus/README.md`, "Epochs", holds the epoch-3 pins) and at digest
/// epoch 5 (the fingerprint).
/// Capacity of the churn run: the 13-tenant phases run about 2x overloaded,
/// the 40-tenant phase about 5x, the 3-tenant phase unshed.
const CHURN_CAPACITY: f64 = 7.0e5;
const CHURN_SOLO: RunDigest = RunDigest {
    bins: 120,
    records: 0xc6834c260a856a49,
    decisions: 0x28fe5eb0a07dbc1f,
    intervals: 0xd8f35880f17dd4c2,
};
/// Re-captured with `Query::absorb`, like `TENANTS_FOUR_LANES`: the decisions
/// did not move, the interval outputs (and the records that carry them) did;
/// and again at digest epochs 2, 3, 4 and 5, with `CHURN_SOLO`.
const CHURN_FOUR_LANES: RunDigest = RunDigest {
    bins: 120,
    records: 0x6e62882b6cb5ac47,
    decisions: 0xc78e5b46531ec93e,
    intervals: 0x63d73d2040ecf77a,
};

/// Tenant `index` of the churn run: all ten kinds in turn.
fn churn_spec(index: usize) -> QuerySpec {
    QuerySpec::new(QueryKind::ALL[index % QueryKind::ALL.len()])
        .with_label(format!("tenant-{index:02}"))
}

fn churn_config() -> MonitorConfig {
    MonitorConfig::default()
        .with_capacity(CHURN_CAPACITY)
        .with_seed(CORPUS_SEED)
        .with_strategy(Strategy::Predictive(AllocationPolicy::MmfsPkt))
}

fn churn_source() -> BatchReplay {
    let traffic =
        TraceConfig::default().with_seed(31).with_mean_packets_per_batch(300.0).with_payloads(true);
    BatchReplay::record(&mut TraceGenerator::new(traffic), 120)
}

/// 120 overloaded bins (noise on) under a daemon while the registry shrinks
/// and grows — 40 tenants of all ten kinds, 37 of them gone after bin 20, ten
/// new ones after bin 30 — and the policy swaps to the oracle (which adds the
/// shadow twins and the measured-cycles vector) after bin 40 and back
/// after bin 60. With `cut`, the run is checkpointed after bin 70 and
/// finished by a daemon restored from the bytes. Every vector a bin fills per
/// query changes length four times and one of them comes and goes.
fn churn_run<E: MonitorEngine>(config: &MonitorConfig, cut: bool) -> RunDigest {
    let mut engine = E::from_config(config.clone()).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..40).map(|index| engine.register(&churn_spec(index)).expect("valid spec")).collect();
    let (daemon, control) = Daemon::new(engine, churn_source());
    let mut daemon = daemon.with_bins_per_tick(10);
    advance(&mut daemon, 20);
    let left: Vec<_> = ids[3..].iter().map(|id| control.deregister_query(*id)).collect();
    advance(&mut daemon, 10);
    for pending in left {
        pending.wait().expect("deregistered");
    }
    let joined: Vec<_> = (40..50).map(|index| control.register_query(churn_spec(index))).collect();
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
        let (restored, _) = Daemon::<_, E>::restore_engine(config.clone(), churn_source(), &bytes)
            .expect("restore");
        daemon = restored.with_bins_per_tick(10);
    }
    assert_eq!(daemon.run_to_exhaustion().expect("ticks"), TickStatus::SourceExhausted);
    assert_eq!(daemon.bins_ingested(), 120);
    daemon.digest()
}

#[test]
fn a_run_that_churns_registry_and_policy_is_pinned_across_engines_workers_and_a_restore() {
    assert_pinned_across_engines_workers_and_a_restore(
        &churn_config(),
        churn_run::<Monitor>,
        churn_run::<ShardedMonitor>,
        CHURN_SOLO,
        CHURN_FOUR_LANES,
    );
}

// ---------------------------------------------------------------------------
// Digest epoch 5 moved the fingerprint, not the run.
// ---------------------------------------------------------------------------

/// Drives engine `E` the way a pinned run's daemon does — `ingest` per
/// non-empty bin with `before(bins done, engine)` ahead of each, then the
/// open interval flushed by a `run` over nothing — with the four-lane and
/// the one-chain digest attached to the one run.
fn both_digests<E: MonitorEngine>(
    mut engine: E,
    mut source: BatchReplay,
    mut before: impl FnMut(u64, &mut E),
) -> (RunDigest, RunDigest) {
    let mut observers = (DigestObserver::new(), WordSerialDigestObserver::default());
    let mut bins = 0;
    while let Some(batch) = source.next_batch() {
        if batch.is_empty() {
            continue;
        }
        before(bins, &mut engine);
        engine.ingest(&batch, &mut observers).expect("ingest");
        bins += 1;
    }
    engine.run(&mut BatchReplay::new(Vec::new()), &mut observers).expect("flush");
    (observers.0.digest(), observers.1.digest())
}

/// The tenant run's registry changes, applied by hand.
fn tenant_digests<E: MonitorEngine>(config: MonitorConfig) -> (RunDigest, RunDigest) {
    let mut engine = E::from_config(config).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..25).map(|index| engine.register(&tenant_spec(index)).expect("valid spec")).collect();
    both_digests(engine, tenant_source(), |bins, engine| match bins {
        40 => {
            engine.register(&tenant_spec(25)).expect("valid spec");
        }
        100 => engine.deregister(ids[3]).expect("registered"),
        _ => {}
    })
}

/// The churn run's registry and policy changes, applied by hand.
fn churn_digests<E: MonitorEngine>(config: MonitorConfig) -> (RunDigest, RunDigest) {
    let policy = config.policy.clone();
    let mut engine = E::from_config(config).expect("valid configuration");
    let ids: Vec<QueryId> =
        (0..40).map(|index| engine.register(&churn_spec(index)).expect("valid spec")).collect();
    both_digests(engine, churn_source(), |bins, engine| match bins {
        20 => ids[3..].iter().for_each(|id| engine.deregister(*id).expect("registered")),
        30 => (40..50).for_each(|index| {
            engine.register(&churn_spec(index)).expect("valid spec");
        }),
        40 => engine.set_policy(PolicySpec::new(|| OraclePolicy::new(MmfsPkt))),
        60 => engine.set_policy(policy.clone()),
        _ => {}
    })
}

/// In one run of each pinned shape, solo and on four lanes, the four-lane
/// digest lands on this epoch's pin and the one-chain digest of epochs 3
/// and 4 (`tests/oracle/`) on the pin epoch 4 captured: the runs did not
/// move at epoch 5, only their fingerprint did.
#[test]
fn the_engine_pins_moved_only_their_fingerprint_at_digest_epoch_5() {
    let four = |config: MonitorConfig| config.with_shard_lanes(4);
    let cases = [
        (
            "tenants, solo",
            tenant_digests::<Monitor>(tenant_config()),
            TENANTS_SOLO,
            EPOCH4_TENANTS_SOLO,
        ),
        (
            "tenants, four lanes",
            tenant_digests::<ShardedMonitor>(four(tenant_config())),
            TENANTS_FOUR_LANES,
            EPOCH4_TENANTS_FOUR_LANES,
        ),
        ("churn, solo", churn_digests::<Monitor>(churn_config()), CHURN_SOLO, EPOCH4_CHURN_SOLO),
        (
            "churn, four lanes",
            churn_digests::<ShardedMonitor>(four(churn_config())),
            CHURN_FOUR_LANES,
            EPOCH4_CHURN_FOUR_LANES,
        ),
    ];
    for (shape, (lanes, serial), pinned, epoch4) in cases {
        assert_eq!(serial, epoch4, "{shape}: the one-chain digest left epoch 4's pin");
        assert_eq!(lanes, pinned, "{shape}: the four-lane digest left this epoch's pin");
    }
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
