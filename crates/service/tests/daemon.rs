//! Service-plane conformance: administered runs replay bit-identically,
//! checkpoints restore into fresh daemons (at any worker count), the
//! registry sustains a thousand tenants, and damaged `.nsck` input is
//! always rejected with a diagnosable error.

use netshed_monitor::{
    AllocationPolicy, DigestObserver, Monitor, MonitorConfig, RunDigest, ShardedMonitor, Strategy,
};
use netshed_queries::{build_query_from_spec, CustomBehavior, QueryKind, QuerySpec};
use netshed_service::{Daemon, MonitorEngine, ServiceError, Snapshot, SnapshotError, TickStatus};
use netshed_sketch::{StateError, StateReader, StateWriter};
use netshed_trace::{BatchReplay, PacketSource, TraceConfig, TraceGenerator};

const TRACE_BINS: usize = 48;

/// A recorded stream every test replays from the start — the daemon
/// equivalent of a `.nstr` scenario file.
fn recorded_trace() -> BatchReplay {
    let config =
        TraceConfig::default().with_seed(7).with_mean_packets_per_batch(350.0).with_payloads(true);
    BatchReplay::record(&mut TraceGenerator::new(config), TRACE_BINS)
}

/// Average per-bin demand of `kinds` over the recorded trace, measured
/// without any resource limit. Memoised: every test shares one measurement.
fn demand(kinds: &[QueryKind]) -> f64 {
    static DEMAND: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *DEMAND.get_or_init(|| measure_demand(kinds))
}

fn measure_demand(kinds: &[QueryKind]) -> f64 {
    let config = MonitorConfig::default()
        .with_capacity(1e12)
        .with_strategy(Strategy::NoShedding)
        .without_noise();
    let mut monitor = Monitor::new(config);
    for kind in kinds {
        monitor.register(&QuerySpec::new(*kind)).expect("valid spec");
    }
    let mut source = recorded_trace();
    let mut total = 0.0;
    let mut bins = 0u32;
    while let Some(batch) = source.next_batch() {
        total += monitor.process_batch(&batch).expect("batch").total_cycles();
        bins += 1;
    }
    total / f64::from(bins)
}

const KINDS: [QueryKind; 3] = [QueryKind::Flows, QueryKind::TopK, QueryKind::Counter];

/// An overloaded configuration (half the measured demand) so shedding, RNG
/// draws and predictor updates are all active.
fn overloaded_config(workers: usize) -> MonitorConfig {
    MonitorConfig::default().with_capacity(demand(&KINDS) / 2.0).with_seed(11).with_workers(workers)
}

fn daemon_with_registered_queries(
    config: MonitorConfig,
    bins_per_tick: u64,
) -> (Daemon<BatchReplay>, netshed_service::ControlChannel) {
    let monitor = Monitor::new(config);
    let (daemon, control) = Daemon::new(monitor, recorded_trace());
    let mut daemon = daemon.with_bins_per_tick(bins_per_tick);
    let pending: Vec<_> =
        KINDS.iter().map(|kind| control.register_query(QuerySpec::new(*kind))).collect();
    // One tick applies the queued registrations before the first bin.
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
    for p in pending {
        p.wait().expect("registered");
    }
    (daemon, control)
}

/// Engine `E` over `config` with the test query set registered.
fn engine_with_queries<E: MonitorEngine>(config: &MonitorConfig) -> E {
    let mut engine = E::from_config(config.clone()).expect("valid configuration");
    for kind in KINDS {
        engine.register(&QuerySpec::new(kind)).expect("valid spec");
    }
    engine
}

/// The digest of the same run driven by the engine's own `run` directly.
fn run_digest<E: MonitorEngine>(config: &MonitorConfig) -> RunDigest {
    let mut digest = DigestObserver::new();
    engine_with_queries::<E>(config).run(&mut recorded_trace(), &mut digest).expect("run");
    digest.digest()
}

#[test]
fn a_daemon_run_matches_monitor_run_exactly() {
    // Queries registered through the control channel before the first bin
    // must land in the same state as builder-time registration, and the
    // tick loop must mirror Monitor::run's observer sequence.
    let config = overloaded_config(1);
    let (mut daemon, _control) = daemon_with_registered_queries(config.clone(), 5);
    assert!(matches!(daemon.run_to_exhaustion().expect("run"), TickStatus::SourceExhausted));
    assert_eq!(daemon.digest(), run_digest::<Monitor>(&config));
    assert_eq!(daemon.bins_ingested(), TRACE_BINS as u64);
}

#[test]
fn an_administered_run_replays_bit_identically_across_worker_counts() {
    // The same command schedule (register late tenants, swap the policy,
    // deregister one) at the same bin positions must reproduce the same
    // digests — and the worker count must stay a pure wall-clock knob.
    let run = |workers: usize| -> RunDigest {
        let (mut daemon, control) = daemon_with_registered_queries(overloaded_config(workers), 8);
        let late = control.register_query(QuerySpec::new(QueryKind::PatternSearch));
        assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 8 }));
        let late_id = late.wait().expect("registered");
        let swap = control.swap_policy(Strategy::Reactive(AllocationPolicy::MmfsPkt));
        assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 8 }));
        assert_eq!(swap.wait().expect("swapped"), "reactive_mmfs_pkt");
        let gone = control.deregister_query(late_id);
        let status = daemon.run_to_exhaustion().expect("run");
        assert!(matches!(status, TickStatus::SourceExhausted));
        gone.wait().expect("deregistered");
        daemon.digest()
    };
    let reference = run(1);
    assert_eq!(run(1), reference, "same schedule must replay bit-identically");
    assert_eq!(run(4), reference, "worker count must not leak into digests");
}

#[test]
fn checkpoint_restores_into_a_fresh_daemon_bit_identically() {
    let config = overloaded_config(1);
    let reference = run_digest::<Monitor>(&config);

    // Run to a mid-scenario cut and checkpoint through the control channel.
    let (mut daemon, control) = daemon_with_registered_queries(config.clone(), 7);
    for _ in 0..2 {
        assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 7 }));
    }
    let pending = control.checkpoint();
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
    let bytes = pending.wait().expect("checkpoint");
    drop(daemon);

    // Restore in a "fresh process": new daemon, new replay of the stream,
    // different worker count. The remaining digests must land exactly on
    // the uninterrupted run's.
    for workers in [1usize, 4] {
        let (mut resumed, _control) =
            Daemon::restore(config.clone().with_workers(workers), recorded_trace(), &bytes)
                .expect("restore");
        assert!(matches!(
            resumed.run_to_exhaustion().expect("resume"),
            TickStatus::SourceExhausted
        ));
        assert_eq!(
            resumed.digest(),
            reference,
            "restore at {workers} workers must finish bit-identically"
        );
    }
}

#[test]
fn checkpoints_resume_after_a_policy_swap() {
    // The snapshot stores the *active* policy, not the configured one: a
    // run that swapped policies mid-flight restores under the swapped
    // policy even though the provided config still names the original.
    let config = overloaded_config(1);
    let (mut daemon, control) = daemon_with_registered_queries(config.clone(), 6);
    let swap = control.swap_policy(Strategy::Reactive(AllocationPolicy::EqualRates));
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
    swap.wait().expect("swapped");
    let bytes = daemon.checkpoint().expect("checkpoint");
    let reference = {
        let mut d = daemon;
        d.run_to_exhaustion().expect("run");
        d.digest()
    };
    let (mut resumed, _control) =
        Daemon::restore(config, recorded_trace(), &bytes).expect("restore");
    assert_eq!(resumed.monitor().policy_name(), "reactive");
    resumed.run_to_exhaustion().expect("resume");
    assert_eq!(resumed.digest(), reference);
}

#[test]
fn shutdown_flushes_the_final_interval_and_reports_the_digest() {
    let config = overloaded_config(1);
    let (mut daemon, control) = daemon_with_registered_queries(config, 9);
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 9 }));
    let stop = control.shutdown();
    let orphan = control.register_query(QuerySpec::new(QueryKind::Counter));
    assert_eq!(daemon.tick().expect("tick"), TickStatus::ShutdownRequested);
    let final_digest = stop.wait().expect("shutdown reply");
    assert_eq!(final_digest, daemon.digest());
    assert_ne!(final_digest.intervals, 0, "shutdown must flush the open interval");
    // Commands queued behind the shutdown are never applied.
    drop(daemon);
    assert!(matches!(orphan.wait(), Err(ServiceError::ChannelClosed)));
}

#[test]
fn dropping_the_daemon_mid_pending_is_a_typed_error_not_a_hang() {
    // Fault injection on the reply path: the daemon dies (panic elsewhere,
    // process teardown) while commands sit unapplied in its queue. Every
    // waiter must get a typed error immediately — never block forever.
    let (daemon, control) = daemon_with_registered_queries(overloaded_config(1), 5);
    let swap = control.swap_policy(Strategy::Reactive(AllocationPolicy::EqualRates));
    let snap = control.checkpoint();
    assert!(swap.poll().is_none(), "no reply may exist before a bin boundary");
    drop(daemon);
    assert!(matches!(swap.wait(), Err(ServiceError::ChannelClosed)));
    assert!(matches!(snap.wait(), Err(ServiceError::ChannelClosed)));
    // Sending into the void is equally non-blocking: a command issued after
    // the daemon is gone resolves to the same typed error.
    assert!(matches!(
        control.register_query(QuerySpec::new(QueryKind::Counter)).wait(),
        Err(ServiceError::ChannelClosed)
    ));
}

#[test]
fn a_daemon_outlives_its_control_channel_and_abandoned_waiters() {
    // The opposite fault: the tenant walks away. The waiter and the only
    // external control handle are dropped before the daemon reaches a bin
    // boundary; the queued command still applies and the unsendable reply
    // is discarded without a panic.
    let (mut daemon, control) = daemon_with_registered_queries(overloaded_config(1), 5);
    drop(control.swap_policy(Strategy::Reactive(AllocationPolicy::EqualRates)));
    drop(control);
    assert!(matches!(daemon.run_to_exhaustion().expect("run"), TickStatus::SourceExhausted));
    assert_eq!(daemon.monitor().policy_name(), "reactive", "the queued swap still applies");
}

#[test]
fn a_shutdown_racing_a_queued_policy_swap_is_decided_by_arrival_order() {
    // Swap queued ahead of the shutdown: both apply, in order.
    let (mut daemon, control) = daemon_with_registered_queries(overloaded_config(1), 6);
    let swap = control.swap_policy(Strategy::Reactive(AllocationPolicy::EqualRates));
    let stop = control.shutdown();
    assert_eq!(daemon.tick().expect("tick"), TickStatus::ShutdownRequested);
    assert_eq!(swap.wait().expect("swap ahead of shutdown"), "reactive");
    stop.wait().expect("shutdown reply");

    // Swap queued behind the shutdown: never applied, not even by a later
    // tick, and its waiter resolves to a typed error once the daemon drops.
    let (mut daemon, control) = daemon_with_registered_queries(overloaded_config(1), 6);
    let active = daemon.monitor().policy_name();
    let stop = control.shutdown();
    let swap = control.swap_policy(Strategy::Reactive(AllocationPolicy::EqualRates));
    assert_eq!(daemon.tick().expect("tick"), TickStatus::ShutdownRequested);
    stop.wait().expect("shutdown reply");
    assert_eq!(daemon.tick().expect("tick"), TickStatus::ShutdownRequested);
    assert_eq!(daemon.monitor().policy_name(), active, "a swap behind a shutdown must not apply");
    assert!(swap.poll().is_none(), "no silent success while the daemon lives");
    drop(daemon);
    assert!(matches!(swap.wait(), Err(ServiceError::ChannelClosed)));
}

#[test]
fn polling_a_command_no_daemon_will_answer_is_a_typed_error_not_a_spin() {
    let (mut daemon, control) = daemon_with_registered_queries(overloaded_config(1), 6);
    let stop = control.shutdown();
    let orphan = control.register_query(QuerySpec::new(QueryKind::Counter));
    assert_eq!(daemon.tick().expect("tick"), TickStatus::ShutdownRequested);
    assert!(matches!(stop.poll(), Some(Ok(_))), "the shutdown itself is answered");
    // Queued behind the shutdown: never applied, and unanswered while the
    // daemon — and with it the queue holding the reply sender — lives.
    assert!(orphan.poll().is_none());
    drop(daemon);
    // Now no reply can ever come, and a client polling in a loop must be
    // told so: `None` here (what `try_recv().ok()` said) spins forever.
    assert!(matches!(orphan.poll(), Some(Err(ServiceError::ChannelClosed))));
    assert!(matches!(control.checkpoint().poll(), Some(Err(ServiceError::ChannelClosed))));
}

#[test]
fn a_checkpoint_on_the_final_bin_still_serves_and_restores() {
    // The source runs dry and the final interval flushes — but the command
    // window stays open: a checkpoint taken after exhaustion captures the
    // completed run and restores into a daemon that is already finished.
    let config = overloaded_config(1);
    let (mut daemon, control) = daemon_with_registered_queries(config.clone(), 9);
    assert!(matches!(daemon.run_to_exhaustion().expect("run"), TickStatus::SourceExhausted));
    let finished = daemon.digest();
    let pending = control.checkpoint();
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::SourceExhausted));
    let bytes = pending.wait().expect("checkpoint after exhaustion");
    drop(daemon);
    let (mut resumed, _control) =
        Daemon::restore(config, recorded_trace(), &bytes).expect("restore");
    assert!(matches!(resumed.run_to_exhaustion().expect("resume"), TickStatus::SourceExhausted));
    assert_eq!(resumed.digest(), finished, "an end-of-stream checkpoint restores the finished run");
}

#[test]
fn the_registry_sustains_a_thousand_tenants() {
    // Scale knob of the service plane: 1000 concurrent queries, registered
    // through the channel, all alive through a processed bin, then a sweep
    // of deregistrations — ids stay stable and nothing renumbers.
    let config = MonitorConfig::default().with_capacity(1e12).with_seed(5).without_noise();
    let monitor = Monitor::new(config);
    let (daemon, control) = Daemon::new(monitor, recorded_trace());
    let mut daemon = daemon.with_bins_per_tick(2);
    let pending: Vec<_> = (0..1000)
        .map(|i| {
            control.register_query(
                QuerySpec::new(QueryKind::Counter).with_label(format!("tenant-{i:04}")),
            )
        })
        .collect();
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 2 }));
    let ids: Vec<_> = pending.into_iter().map(|p| p.wait().expect("registered")).collect();
    assert_eq!(daemon.monitor().query_handles().len(), 1000);
    // Deregister every odd tenant; the even ones keep their handles.
    let gone: Vec<_> =
        ids.iter().skip(1).step_by(2).map(|id| control.deregister_query(*id)).collect();
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 2 }));
    for g in gone {
        g.wait().expect("deregistered");
    }
    let handles = daemon.monitor().query_handles();
    assert_eq!(handles.len(), 500);
    assert!(handles.iter().zip(ids.iter().step_by(2)).all(|((id, _), expected)| id == expected));
}

#[test]
fn restore_rejects_a_mismatched_config_naming_both_sides() {
    let config = overloaded_config(1);
    let (daemon, _control) = daemon_with_registered_queries(config.clone(), 4);
    let bytes = daemon.checkpoint().expect("checkpoint");
    let err = Daemon::restore(config.with_seed(99), recorded_trace(), &bytes)
        .err()
        .expect("a foreign seed must be rejected");
    match err {
        ServiceError::Snapshot(SnapshotError::State(StateError::Mismatch {
            what,
            found,
            expected,
        })) => {
            assert_eq!(what, "seed");
            assert_eq!(found, "11");
            assert_eq!(expected, "99");
        }
        other => panic!("expected a seed mismatch naming both sides, got {other}"),
    }
}

#[test]
fn restore_reports_a_source_that_is_too_short() {
    let config = overloaded_config(1);
    let (mut daemon, _control) = daemon_with_registered_queries(config.clone(), 10);
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 10 }));
    let bytes = daemon.checkpoint().expect("checkpoint");
    let consumed = daemon.bins_ingested();
    let short = {
        let config = TraceConfig::default()
            .with_seed(7)
            .with_mean_packets_per_batch(350.0)
            .with_payloads(true);
        BatchReplay::record(&mut TraceGenerator::new(config), consumed as usize - 3)
    };
    match Daemon::restore(config, short, &bytes).err().expect("short source must be rejected") {
        ServiceError::SourceTooShort { needed, skipped } => {
            assert_eq!(needed, consumed);
            assert_eq!(skipped, consumed - 3);
        }
        other => panic!("expected SourceTooShort, got {other}"),
    }
}

#[test]
fn every_bit_flip_in_a_real_checkpoint_is_detected() {
    // The robustness sweep from the trace format, applied to .nsck: no
    // single-bit corruption anywhere in a real daemon checkpoint may load.
    let (mut daemon, _control) = daemon_with_registered_queries(overloaded_config(1), 6);
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
    let pristine = daemon.checkpoint().expect("checkpoint");
    // Decoding a large container is O(size), so an exhaustive bits×bytes
    // product would be quadratic; the snapshot unit tests run that product
    // on a small container. Here: every bit of the framing-dense first 64
    // bytes, plus one rotating bit of ~256 byte positions spread across the
    // whole container (bodies, checksums, the end frame).
    let stride = (pristine.len() / 256).max(1);
    let positions = (0..64).chain((64..pristine.len()).step_by(stride));
    for index in positions {
        let bits: &[u8] = if index < 64 { &[0, 1, 2, 3, 4, 5, 6, 7] } else { &[index as u8 % 8] };
        for &bit in bits {
            let mut corrupted = pristine.clone();
            corrupted[index] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&corrupted).is_err(),
                "flipping bit {bit} of byte {index} went undetected"
            );
        }
    }
}

#[test]
fn truncated_checkpoints_and_foreign_files_are_told_apart() {
    let (daemon, _control) = daemon_with_registered_queries(overloaded_config(1), 4);
    let pristine = daemon.checkpoint().expect("checkpoint");
    // Any truncation of a real checkpoint is Truncated, never BadMagic.
    // Sampled for the same cost reason as the bit-flip sweep; the snapshot
    // unit tests cut at every byte of a small container.
    let stride = (pristine.len() / 256).max(1);
    for len in (4..64.min(pristine.len())).chain((64..pristine.len()).step_by(stride)) {
        assert!(
            matches!(
                Snapshot::from_bytes(&pristine[..len]).unwrap_err(),
                SnapshotError::Truncated { .. }
            ),
            "truncation to {len} bytes must report Truncated"
        );
    }
    // ...while a short *foreign* file (e.g. a .nstr trace) is BadMagic even
    // though it is also too short to be a snapshot.
    assert_eq!(
        Snapshot::from_bytes(b"NSTR").unwrap_err(),
        SnapshotError::BadMagic { found: *b"NSTR" }
    );
}

#[test]
fn version_skew_names_found_and_expected() {
    let (daemon, _control) = daemon_with_registered_queries(overloaded_config(1), 4);
    let mut bytes = daemon.checkpoint().expect("checkpoint");
    bytes[4] = 77;
    bytes[5] = 0;
    // Recompute the header checksum so the version check is what fires.
    let mut fnv = netshed_sketch::IncrementalFnv::new(0x6e73_636b);
    fnv.write(&bytes[..16]);
    bytes[16..24].copy_from_slice(&fnv.finish().to_le_bytes());
    let message = Snapshot::from_bytes(&bytes).unwrap_err().to_string();
    let expected = format!("supported {}", netshed_service::SNAPSHOT_FORMAT_VERSION);
    assert!(
        message.contains("77") && message.contains(&expected),
        "version-skew message must name found and expected: {message}"
    );

    // A version-4 container (whose fleet checkpoints split every query
    // over a `monitor` and a `lanes` section) is refused by the restore with
    // both versions named, never read as this version.
    bytes[4] = 4;
    let mut fnv = netshed_sketch::IncrementalFnv::new(0x6e73_636b);
    fnv.write(&bytes[..16]);
    bytes[16..24].copy_from_slice(&fnv.finish().to_le_bytes());
    let restored =
        Daemon::<_, Monitor>::restore_engine(overloaded_config(1), recorded_trace(), &bytes);
    match restored.map(|_| ()).unwrap_err() {
        ServiceError::Snapshot(error) => {
            assert_eq!(error, SnapshotError::UnsupportedVersion { found: 4, expected: 5 });
        }
        other => panic!("expected the version skew to be named, got {other}"),
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// save → load → save is byte-identical for arbitrary section
        /// layouts: the container encoding is canonical.
        #[test]
        fn snapshot_reencoding_is_byte_identical(
            sections in proptest::collection::vec(
                (0usize..6, proptest::collection::vec(0u32..256, 0..300)),
                0..6,
            ),
        ) {
            let mut snapshot = Snapshot::new();
            for (index, (name_index, body)) in sections.into_iter().enumerate() {
                let name = format!("section-{name_index}-{index}");
                let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
                snapshot.push(&name, body).expect("unique names");
            }
            let first = snapshot.to_bytes();
            let second = Snapshot::from_bytes(&first).expect("decode").to_bytes();
            prop_assert_eq!(first, second);
        }

    }
}

#[test]
fn a_real_checkpoint_reencodes_byte_identically_at_several_cuts() {
    // save → load → save on actual daemon state, at cuts that land inside
    // different measurement intervals.
    for cut in [1u64, 6, 13] {
        let (mut daemon, _control) = daemon_with_registered_queries(overloaded_config(1), cut);
        assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
        let bytes = daemon.checkpoint().expect("checkpoint");
        let reencoded = Snapshot::from_bytes(&bytes).expect("decode").to_bytes();
        assert_eq!(bytes, reencoded, "cut {cut}: re-encoding must be byte-identical");
    }
}

#[test]
fn a_sharded_daemon_run_matches_the_fleet_run_exactly() {
    // The sharded engine's ingest must mirror ShardedMonitor::run's observer
    // sequence, exactly as the solo engine mirrors Monitor::run's.
    let config = overloaded_config(1).with_shard_lanes(4);
    let reference = run_digest::<ShardedMonitor>(&config);
    let (daemon, _control) =
        Daemon::new(engine_with_queries::<ShardedMonitor>(&config), recorded_trace());
    let mut daemon = daemon.with_bins_per_tick(5);
    assert!(matches!(daemon.run_to_exhaustion().expect("run"), TickStatus::SourceExhausted));
    assert_eq!(daemon.digest(), reference);
    assert_eq!(daemon.bins_ingested(), TRACE_BINS as u64);
}

/// A checkpoint of engine `E` nine bins into the recorded trace — inside a
/// measurement interval, so every query table is populated.
fn checkpoint_at_bin_nine<E: MonitorEngine>(config: &MonitorConfig) -> Vec<u8> {
    let (daemon, _control) = Daemon::new(engine_with_queries::<E>(config), recorded_trace());
    let mut daemon = daemon.with_bins_per_tick(9);
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 9 }));
    daemon.checkpoint().expect("checkpoint")
}

/// Restores a fleet of `lanes` lanes from `bytes`, for the error.
fn restore_fleet(config: &MonitorConfig, lanes: usize, bytes: &[u8]) -> Result<(), ServiceError> {
    let config = config.clone().with_shard_lanes(lanes);
    Daemon::<_, ShardedMonitor>::restore_engine(config, recorded_trace(), bytes).map(|_| ())
}

/// The lane counts of a restore that failed on them: (snapshot's, engine's).
fn lane_mismatch(error: ServiceError) -> (String, String) {
    match error {
        ServiceError::Snapshot(SnapshotError::State(StateError::Mismatch {
            what,
            found,
            expected,
        })) => {
            assert_eq!(what, "lanes");
            // Snapshot value first, live value second — like every other mismatch.
            (found, expected)
        }
        other => panic!("expected a lane-count mismatch naming both sides, got {other}"),
    }
}

#[test]
fn a_sharded_checkpoint_restores_bit_identically_at_any_worker_count() {
    // One .nsck carries the whole fleet in the sections a solo engine
    // writes: its `monitor` section holds the lane count, the one control
    // loop and each query with all of its lane instances. Restoring at a
    // different worker count must finish on the uninterrupted run's digest —
    // the fleet's lanes run on its workers, a pure wall-clock knob.
    let config = overloaded_config(1).with_shard_lanes(4);
    let reference = run_digest::<ShardedMonitor>(&config);

    let (daemon, control) =
        Daemon::new(engine_with_queries::<ShardedMonitor>(&config), recorded_trace());
    let mut daemon = daemon.with_bins_per_tick(7);
    for _ in 0..2 {
        assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 7 }));
    }
    let pending = control.checkpoint();
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
    let bytes = pending.wait().expect("checkpoint");
    drop(daemon);

    let snapshot = Snapshot::from_bytes(&bytes).expect("valid container");
    assert_eq!(snapshot.section_names(), ["config", "monitor", "daemon", "digest"]);

    for workers in [1usize, 2, 4] {
        let (mut resumed, _control) = Daemon::<_, ShardedMonitor>::restore_engine(
            config.clone().with_workers(workers),
            recorded_trace(),
            &bytes,
        )
        .expect("restore");
        assert!(matches!(
            resumed.run_to_exhaustion().expect("resume"),
            TickStatus::SourceExhausted
        ));
        assert_eq!(
            resumed.digest(),
            reference,
            "restore at {workers} workers must finish bit-identically"
        );
    }

    // An engine with a different lane partition must refuse the checkpoint:
    // lanes own query state, so the lane count is configuration, not a knob.
    let counts = |lanes| {
        let (found, expected) = lane_mismatch(restore_fleet(&config, lanes, &bytes).unwrap_err());
        (found.parse::<usize>().expect("a count"), expected.parse::<usize>().expect("a count"))
    };
    assert_eq!(counts(2), (4, 2));
    assert_eq!(counts(1), (4, 1));
    let solo = Daemon::<_, Monitor>::restore_engine(config.clone(), recorded_trace(), &bytes);
    assert_eq!(lane_mismatch(solo.map(|_| ()).unwrap_err()), ("4".into(), "1".into()));
    let two_lanes = checkpoint_at_bin_nine::<ShardedMonitor>(&config.clone().with_shard_lanes(2));
    let error = restore_fleet(&config, 4, &two_lanes).unwrap_err();
    assert_eq!(lane_mismatch(error), ("2".into(), "4".into()));
}

#[test]
fn a_one_lane_fleet_checkpoint_is_the_solo_checkpoint() {
    // One engine, one schema: with one lane the bytes are the solo
    // monitor's, so either type restores the other's — and a fleet with more
    // lanes refuses both, naming the counts.
    let config = overloaded_config(1).with_shard_lanes(1);
    let solo_bytes = checkpoint_at_bin_nine::<Monitor>(&config);
    let fleet_bytes = checkpoint_at_bin_nine::<ShardedMonitor>(&config);
    assert!(solo_bytes == fleet_bytes, "a one-lane fleet writes the solo monitor's bytes");

    let reference = run_digest::<Monitor>(&config);
    let (mut resumed, _control) =
        Daemon::<_, ShardedMonitor>::restore_engine(config.clone(), recorded_trace(), &solo_bytes)
            .expect("a one-lane fleet restores a solo checkpoint");
    resumed.run_to_exhaustion().expect("resume");
    assert_eq!(resumed.digest(), reference);

    let error = restore_fleet(&config, 4, &solo_bytes).unwrap_err();
    assert_eq!(lane_mismatch(error), ("1".into(), "4".into()));
}

#[test]
fn a_pre_change_fleet_layout_is_a_typed_error_not_a_panic() {
    // Before the fleet became one control loop a sharded checkpoint held a
    // whole monitor per lane (`shard.0` ... `shard.3`) and a coordinator
    // section (`sharded`), and no `monitor` section. The container version
    // did not move with that change (it has since: such a *file* is version
    // 2 and refused as that), so the sections are what tells the layouts
    // apart — and one laid out that way must be refused by name.
    let config = overloaded_config(1).with_shard_lanes(4);
    let honest = checkpoint_at_bin_nine::<ShardedMonitor>(&config);
    let snapshot = Snapshot::from_bytes(&honest).expect("valid container");
    let mut old = Snapshot::new();
    for name in snapshot.section_names() {
        let body = snapshot.section(name).expect("listed section").to_vec();
        match name {
            // The lane monitors: each a full solo-layout section, and the
            // coordinator: a lane count, then (budget, demand) per lane.
            "monitor" => {
                for lane in 0..4 {
                    old.push(&format!("shard.{lane}"), body.clone()).expect("section");
                }
                let mut coordinator = StateWriter::new();
                coordinator.u64(4);
                (0..8).for_each(|_| coordinator.f64(1.0e5));
                old.push("sharded", coordinator.into_bytes()).expect("section");
            }
            _ => old.push(name, body).expect("section"),
        }
    }

    match restore_fleet(&config, 4, &old.to_bytes()).unwrap_err() {
        ServiceError::Snapshot(SnapshotError::MissingSection { name }) => {
            assert_eq!(name, "monitor");
        }
        other => panic!("expected the missing `monitor` section to be named, got {other}"),
    }
}

/// Reads a `monitor` section the way `Monitor::load_state` does, up to the
/// registry's query count, returning the lane count and the query count;
/// `float` is called on every float on the way: (field, reader).
fn read_control_loop(
    reader: &mut StateReader<'_>,
    float: &mut impl FnMut(&mut StateReader<'_>, String),
) -> (usize, usize) {
    let lanes = reader.usize().expect("lane count");
    reader.str().expect("policy name");
    netshed_features::FeatureExtractor::with_defaults().load_state(reader).expect("extractor");
    float(reader, "capture backlog_cycles".into());
    reader.u64().expect("dropped packets");
    for _ in 0..8 {
        reader.u64().expect("rng word");
    }
    for field in [
        "error_ewma",
        "shed_cycles_ewma",
        "rtthresh",
        "rtthresh_ssthresh",
        "reactive_rate",
        "reactive_consumed",
        "reactive_query_cycles",
    ] {
        float(reader, field.into());
    }
    reader.opt_u64().expect("current interval");
    // The predictive policy keeps no state of its own; the registry follows.
    (lanes, reader.usize().expect("query count"))
}

/// Reads one registered query's header up to its own state, returning its
/// label and spec.
fn read_query_header(
    reader: &mut StateReader<'_>,
    float: &mut impl FnMut(&mut StateReader<'_>, String),
) -> (String, QuerySpec) {
    reader.u64().expect("query id");
    let label = reader.str().expect("label");
    let spec = QuerySpec::load_state(reader).expect("spec");
    float(reader, format!("query '{label}' min_rate"));
    reader.u64().expect("hasher generation");
    float(reader, format!("query '{label}' overuse_ratio"));
    reader.u32().expect("violations");
    reader.u32().expect("penalty");
    (label, spec)
}

/// Where the control-loop, capture-buffer and first query's floats sit in a
/// monitor section: (field, offset).
fn control_float_offsets(section: &[u8]) -> Vec<(String, usize)> {
    let mut reader = StateReader::new(section);
    let mut fields = Vec::new();
    let mut float = |reader: &mut StateReader<'_>, field: String| {
        fields.push((field, section.len() - reader.remaining()));
        reader.f64().expect("float");
    };
    assert_eq!(read_control_loop(&mut reader, &mut float).1, KINDS.len());
    read_query_header(&mut reader, &mut float);
    fields
}

/// Checkpoints `M` mid-run, then re-encodes the snapshot with one float of
/// `section` replaced at a time: every value the save side could not have
/// written must fail the restore naming the field.
fn assert_crafted_floats_are_rejected<M: MonitorEngine>(config: &MonitorConfig, section: &str) {
    let honest = checkpoint_at_bin_nine::<M>(config);
    let restore = |bytes: &[u8]| {
        Daemon::<_, M>::restore_engine(config.clone(), recorded_trace(), bytes).map(|_| ())
    };
    restore(&honest).expect("the honest checkpoint restores");

    let snapshot = Snapshot::from_bytes(&honest).expect("valid container");
    let craft = |patch: Option<(usize, f64)>| {
        let mut crafted = Snapshot::new();
        for name in snapshot.section_names() {
            let mut body = snapshot.section(name).expect("listed section").to_vec();
            if let Some((at, poison)) = patch.filter(|_| name == section) {
                body[at..at + 8].copy_from_slice(&poison.to_le_bytes());
            }
            crafted.push(name, body).expect("section");
        }
        crafted.to_bytes()
    };
    assert_eq!(craft(None), honest, "re-encoding is exact");

    let fields = control_float_offsets(snapshot.section(section).expect("monitor section"));
    assert_eq!(fields.len(), 10);
    for (field, at) in fields {
        let is_rate = field == "reactive_rate" || field.ends_with("min_rate");
        let mut poisons = vec![f64::NAN, f64::NEG_INFINITY, -1.0];
        if field == "rtthresh_ssthresh" {
            // Its value until the buffer discovery first backs off.
            restore(&craft(Some((at, f64::INFINITY)))).expect("+inf is an honest ssthresh");
        } else {
            poisons.push(f64::INFINITY);
        }
        if is_rate {
            poisons.push(1.5);
        }
        for poison in poisons {
            let error = restore(&craft(Some((at, poison)))).expect_err("must not restore");
            let ServiceError::Snapshot(SnapshotError::State(StateError::Corrupt(message))) = &error
            else {
                panic!("{section} {field} = {poison}: expected a corrupt-state error, got {error}");
            };
            assert!(message.contains(&field), "{section} {field} = {poison}: {message}");
        }
    }
}

#[test]
fn crafted_control_loop_floats_are_rejected_naming_the_field() {
    // A NaN in `error_ewma` used to restore cleanly and feed every later
    // `ControlContext`. There is one control loop whatever the lane count,
    // and its floats live in the `monitor` section.
    assert_crafted_floats_are_rejected::<Monitor>(&overloaded_config(1), "monitor");
    assert_crafted_floats_are_rejected::<ShardedMonitor>(
        &overloaded_config(1).with_shard_lanes(4),
        "monitor",
    );
}

/// One field of a checkpointed table entry.
#[derive(Clone, Debug, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    F64(f64),
    Str(String),
}

impl Field {
    /// Reads the next field of the same type as `self`.
    fn read(&self, reader: &mut StateReader<'_>) -> Field {
        match self {
            Field::U8(_) => Field::U8(reader.u8().expect("u8")),
            Field::U32(_) => Field::U32(reader.u32().expect("u32")),
            Field::U64(_) => Field::U64(reader.u64().expect("u64")),
            Field::F64(_) => Field::F64(reader.f64().expect("f64")),
            Field::Str(_) => Field::Str(reader.str().expect("str")),
        }
    }

    fn write(&self, writer: &mut StateWriter) {
        match self {
            Field::U8(value) => writer.u8(*value),
            Field::U32(value) => writer.u32(*value),
            Field::U64(value) => writer.u64(*value),
            Field::F64(value) => writer.f64(*value),
            Field::Str(value) => writer.str(value),
        }
    }
}

/// The keyed tables a query kind checkpoints, in section order: per table
/// its name in error messages, how many leading fields of an entry form the
/// key, and the entry's fields (by example value).
fn checkpointed_tables(kind: QueryKind) -> Vec<(&'static str, usize, Vec<Field>)> {
    let (u8, u32, u64, f64) = (Field::U8(0), Field::U32(0), Field::U64(0), Field::F64(0.0));
    match kind {
        QueryKind::Application => {
            vec![("application", 1, vec![Field::Str(String::new()), f64.clone(), f64])]
        }
        QueryKind::Autofocus => vec![("autofocus", 2, vec![u32, u8, f64])],
        QueryKind::Flows => vec![("flows", 1, vec![u64, f64])],
        QueryKind::TopK => vec![("top-k", 1, vec![u32, f64])],
        QueryKind::SuperSources => {
            vec![("super-sources pair", 1, vec![u64]), ("super-sources fan-out", 1, vec![u32, f64])]
        }
        QueryKind::P2pDetector => vec![
            ("p2p-detector identified-flow", 1, vec![u64.clone()]),
            ("p2p-detector tracked-flow", 1, vec![u64, u32.clone(), u32]),
        ],
        // One entry per bin of the open interval: (bin, duration, bytes).
        QueryKind::HighWatermark => vec![("high-watermark", 1, vec![u64.clone(), u64, f64])],
        // Scalars only: nothing keyed to repeat.
        QueryKind::Counter | QueryKind::PatternSearch | QueryKind::Trace => Vec::new(),
    }
}

/// The `f64` scalars a query kind checkpoints right after its tables, by
/// their names in error messages.
fn checkpointed_scalars(kind: QueryKind) -> &'static [&'static str] {
    match kind {
        QueryKind::Counter => &["counter packets", "counter bytes"],
        QueryKind::Autofocus => &["autofocus total_bytes"],
        QueryKind::Trace => &["trace processed_packets"],
        QueryKind::PatternSearch => &["pattern-search processed_packets"],
        _ => &[],
    }
}

/// Where the state of each registered query's instance on `lane` sits in a
/// monitor section, whose queries each hold all of their lane instances in
/// lane order: (spec, byte range).
fn query_state_spans(
    section: &[u8],
    config: &MonitorConfig,
    lane: usize,
) -> Vec<(QuerySpec, std::ops::Range<usize>)> {
    let mut reader = StateReader::new(section);
    let mut float = |reader: &mut StateReader<'_>, _: String| {
        reader.f64().expect("float");
    };
    let (lanes, queries) = read_control_loop(&mut reader, &mut float);
    assert!(lane < lanes, "lane {lane} of {lanes}");
    let spans = (0..queries)
        .map(|_| {
            let (_, spec) = read_query_header(&mut reader, &mut float);
            let mut span = 0..0;
            for instance in 0..lanes {
                let start = section.len() - reader.remaining();
                build_query_from_spec(&spec).load_state(&mut reader).expect("query state");
                if instance == lane {
                    span = start..section.len() - reader.remaining();
                }
            }
            assert!(!reader.bool().expect("shadow flag"), "the predictive policy runs no shadow");
            config.predictor.make().load_state(&mut reader).expect("predictor state");
            netshed_features::FeatureExtractor::with_defaults()
                .load_state(&mut reader)
                .expect("sampled extractor");
            (spec, span)
        })
        .collect();
    reader.u64().expect("next query id");
    reader.finish().expect("the section holds nothing else");
    spans
}

/// Checkpoints engine `M` running all ten query kinds mid-interval, then
/// re-encodes the snapshot with one keyed table or one scalar of one query
/// instance on `lane` crafted at a time: a key listed twice, or a weight or
/// sum no run could have accumulated, must fail the restore naming the table
/// and the entry, or the scalar (and the lane, when it is not lane 0).
fn assert_crafted_query_tables_are_rejected<M: MonitorEngine>(config: &MonitorConfig, lane: usize) {
    let mut engine = M::from_config(config.clone()).expect("valid configuration");
    for kind in QueryKind::ALL {
        // Only a custom-shedding detector tracks per-flow inspection counts.
        let spec = match kind {
            QueryKind::P2pDetector => QuerySpec::new(kind).with_custom(CustomBehavior::Honest),
            _ => QuerySpec::new(kind),
        };
        engine.register(&spec).expect("valid spec");
    }
    let (daemon, _control) = Daemon::new(engine, recorded_trace());
    // Nine bins: inside a measurement interval, so every table is populated.
    let mut daemon = daemon.with_bins_per_tick(9);
    assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { bins: 9 }));
    let honest = daemon.checkpoint().expect("checkpoint");
    let restore =
        |bytes: &[u8]| Daemon::<_, M>::restore_engine(config.clone(), recorded_trace(), bytes);
    let (restored, _control) = restore(&honest).expect("the honest checkpoint restores");
    assert!(
        restored.checkpoint().expect("checkpoint") == honest,
        "all ten query kinds re-serialise byte for byte"
    );

    let snapshot = Snapshot::from_bytes(&honest).expect("valid container");
    let section = snapshot.section("monitor").expect("monitor section");
    let spans = query_state_spans(section, config, lane);
    // Re-encodes the container with the state of one query instance replaced.
    let craft = |span: &std::ops::Range<usize>, state: &[u8]| {
        let mut crafted = Snapshot::new();
        for name in snapshot.section_names() {
            let mut body = snapshot.section(name).expect("listed section").to_vec();
            if name == "monitor" {
                body.splice(span.clone(), state.iter().copied());
            }
            crafted.push(name, body).expect("section");
        }
        crafted.to_bytes()
    };
    let named_lane = if lane == 0 { String::new() } else { format!("lane {lane}: ") };
    let rejection = |bytes: &[u8], context: &str| {
        let error = restore(bytes).map(|_| ()).expect_err("must not restore");
        let ServiceError::Snapshot(SnapshotError::State(StateError::Corrupt(message))) = error
        else {
            panic!("{context}: expected a corrupt-state error, got {error}");
        };
        assert!(message.starts_with(&named_lane), "{context}: {message}");
        message
    };

    let (mut crafted_tables, mut crafted_scalars) = (0, 0);
    for (spec, span) in spans {
        // Decode the query's tables; what follows them stays as it is.
        let layout = checkpointed_tables(spec.kind);
        let mut reader = StateReader::new(&section[span.clone()]);
        let tables: Vec<Vec<Vec<Field>>> = layout
            .iter()
            .map(|(_, _, fields)| {
                let entries = reader.usize().expect("table length");
                (0..entries)
                    .map(|_| fields.iter().map(|field| field.read(&mut reader)).collect())
                    .collect()
            })
            .collect();
        let tail = &section[span.end - reader.remaining()..span.end];
        let encode = |tables: &[Vec<Vec<Field>>]| {
            let mut writer = StateWriter::new();
            for table in tables {
                writer.usize(table.len());
                table.iter().flatten().for_each(|field| field.write(&mut writer));
            }
            let mut state = writer.into_bytes();
            state.extend_from_slice(tail);
            state
        };
        assert_eq!(craft(&span, &encode(&tables)), honest, "re-encoding is exact");

        for (index, (name, key, fields)) in layout.iter().enumerate() {
            assert!(tables[index].len() >= 2, "{name}: the trace must populate the table");
            crafted_tables += 1;

            // Entry 1 takes entry 0's key.
            let mut repeated = tables.clone();
            let first = repeated[index][0][..*key].to_vec();
            repeated[index][1][..*key].clone_from_slice(&first);
            let message = rejection(&craft(&span, &encode(&repeated)), name);
            assert!(message.contains(name) && message.contains("entry 1"), "{name}: {message}");

            // Every weight or byte count of the last entry, poisoned.
            let last = tables[index].len() - 1;
            for slot in (0..fields.len()).filter(|&slot| matches!(fields[slot], Field::F64(_))) {
                for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
                    let mut poisoned = tables.clone();
                    poisoned[index][last][slot] = Field::F64(poison);
                    let context = format!("{name} entry {last} = {poison}");
                    let message = rejection(&craft(&span, &encode(&poisoned)), &context);
                    assert!(
                        message.contains(name) && message.contains(&format!("entry {last}")),
                        "{context}: {message}"
                    );
                }
            }
        }

        // Every sum the query keeps beside its tables, poisoned: lanes *add*
        // state, so one NaN would reach the query's one report.
        let honest_state = encode(&tables);
        for (slot, name) in checkpointed_scalars(spec.kind).iter().enumerate() {
            crafted_scalars += 1;
            let at = honest_state.len() - tail.len() + slot * 8;
            for poison in [f64::NAN, f64::INFINITY, -1.0] {
                let mut poisoned = honest_state.clone();
                poisoned[at..at + 8].copy_from_slice(&poison.to_le_bytes());
                let context = format!("{name} = {poison}");
                let message = rejection(&craft(&span, &poisoned), &context);
                assert!(message.contains(name), "{context}: {message}");
            }
        }
    }
    assert_eq!(crafted_tables, 9, "seven queries, two of them with two tables");
    assert_eq!(crafted_scalars, 5, "four queries, one of them with two sums");
}

#[test]
fn a_crafted_query_table_is_rejected_naming_query_and_entry() {
    // The tables of `flows`, `top-k`, `super-sources`, `autofocus`,
    // `p2p-detector`, `application` and `high-watermark` are restored by
    // re-inserting their entries. A table that lists a key twice used to
    // restore shorter than it declares, the later value silently winning — a
    // state no run reaches and no checkpoint re-serialises to — and a NaN
    // weight went straight into the interval's sums; so did a NaN in any of
    // the scalar sums (`counter`'s two, `autofocus`'s total — after which it
    // reported no cluster for the rest of the interval —, `trace`'s and
    // `pattern-search`'s packet counts), which loaded unchecked.
    let config = MonitorConfig::default().with_capacity(1e12).with_seed(11).without_noise();
    assert_crafted_query_tables_are_rejected::<Monitor>(&config, 0);
}

#[test]
fn a_crafted_lane_query_table_is_rejected_naming_lane_query_and_entry() {
    // A fleet's query instances of lanes 1 and up are outside input like
    // the rest of a `.nsck`: they restore through the same loaders as the
    // lane-0 ones beside them in `monitor`, so a repeated key or a NaN /
    // infinite / negative weight in *their* tables, or sum beside them, must
    // fail the restore too — naming the lane beside the table and the entry.
    // Two lanes, so that each lane's share of the trace still populates
    // every table.
    let config = MonitorConfig::default()
        .with_capacity(1e12)
        .with_seed(11)
        .without_noise()
        .with_shard_lanes(2);
    assert_crafted_query_tables_are_rejected::<ShardedMonitor>(&config, 0);
    assert_crafted_query_tables_are_rejected::<ShardedMonitor>(&config, 1);
}

#[test]
fn a_crafted_predictor_selection_or_cost_is_rejected_naming_the_field() {
    // A restored MLR predictor's selection becomes a design matrix's width
    // (and a key of the shared window's fits), its modelled cost a product
    // the monitor charges every bin: a 500-entry selection restored, and a
    // `last_cost` of `u64::MAX` survived a prediction over a short history
    // and overflowed `predict_ops * PREDICT_OP_CYCLES`.
    let config = overloaded_config(1);
    let honest = checkpoint_at_bin_nine::<Monitor>(&config);
    let restore = |bytes: &[u8]| {
        Daemon::<_, Monitor>::restore_engine(config.clone(), recorded_trace(), bytes).map(|_| ())
    };
    let snapshot = Snapshot::from_bytes(&honest).expect("valid container");
    let section = snapshot.section("monitor").expect("monitor section");

    // The first query's predictor: its history, then the selection (a
    // length, then the indices), the bins since it was made and the cost.
    let mut reader = StateReader::new(section);
    let mut float = |reader: &mut StateReader<'_>, _: String| {
        reader.f64().expect("float");
    };
    read_control_loop(&mut reader, &mut float);
    let (_, spec) = read_query_header(&mut reader, &mut float);
    build_query_from_spec(&spec).load_state(&mut reader).expect("query state");
    assert!(!reader.bool().expect("shadow flag"), "the predictive policy runs no shadow");
    reader.usize().expect("history capacity");
    let observations = reader.usize().expect("history length");
    for _ in 0..observations * (netshed_features::FEATURE_COUNT + 1) {
        reader.f64().expect("observation");
    }
    let selection_at = section.len() - reader.remaining();
    let selected: Vec<usize> =
        (0..reader.usize().expect("length")).map(|_| reader.usize().expect("index")).collect();
    assert!(!selected.is_empty(), "nine bins in, the predictor has selected");
    let batches = reader.usize().expect("bins since the selection");
    reader.u64().expect("last cost");
    let cost_end = section.len() - reader.remaining();

    let craft = |selection: &[usize], cost: u64| {
        let mut writer = StateWriter::new();
        writer.usize(selection.len());
        for &feature in selection {
            writer.usize(feature);
        }
        writer.usize(batches);
        writer.u64(cost);
        let mut crafted = Snapshot::new();
        for name in snapshot.section_names() {
            let mut body = snapshot.section(name).expect("listed section").to_vec();
            if name == "monitor" {
                body.splice(selection_at..cost_end, writer.as_bytes().iter().copied());
            }
            crafted.push(name, body).expect("section");
        }
        crafted.to_bytes()
    };
    restore(&craft(&selected, 0)).expect("an honest selection and cost restore");
    for (selection, cost, field) in [
        (vec![0; 500], 0, "selected features"),
        (vec![5, 5], 0, "selected features"),
        (vec![42], 0, "selected features"),
        (selected.clone(), u64::MAX, "last_cost"),
    ] {
        let context = format!("{selection:?} costing {cost}");
        let error = restore(&craft(&selection, cost)).expect_err("must not restore");
        let ServiceError::Snapshot(SnapshotError::State(StateError::Corrupt(message))) = &error
        else {
            panic!("{context}: expected a corrupt-state error, got {error}");
        };
        assert!(message.contains(field), "{context}: {message}");
    }
}

#[test]
fn a_crafted_negative_zero_sum_is_rejected_naming_the_field() {
    // Every sum a query keeps starts at +0.0 and adds terms of +0.0 or above,
    // so no run holds -0.0. A restore that let one in would make a unit-rate
    // query's one exact addition over an empty view (-0.0 + 0.0 is +0.0)
    // differ in the sign bit from the per-packet walk, which adds nothing.
    let config = MonitorConfig::default().with_capacity(1e12).with_seed(11).without_noise();
    let honest = checkpoint_at_bin_nine::<Monitor>(&config);
    let restore = |bytes: &[u8]| {
        Daemon::<_, Monitor>::restore_engine(config.clone(), recorded_trace(), bytes).map(|_| ())
    };
    let snapshot = Snapshot::from_bytes(&honest).expect("valid container");
    let section = snapshot.section("monitor").expect("monitor section");
    let spans = query_state_spans(section, &config, 0);
    let span_of = |kind| &spans.iter().find(|(spec, _)| spec.kind == kind).expect("registered").1;
    // `counter`'s second sum, and the weight of `top-k`'s first entry (after
    // the table's length and the entry's destination).
    let (counter, top_k) = (span_of(QueryKind::Counter), span_of(QueryKind::TopK));
    for (at, field) in [(counter.start + 8, "counter bytes"), (top_k.start + 12, "top-k")] {
        let craft = |value: f64| {
            let mut crafted = Snapshot::new();
            for name in snapshot.section_names() {
                let mut body = snapshot.section(name).expect("listed section").to_vec();
                if name == "monitor" {
                    body[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
                crafted.push(name, body).expect("section");
            }
            crafted.to_bytes()
        };
        restore(&craft(0.0)).expect("+0.0 restores");
        let error = restore(&craft(-0.0)).expect_err("-0.0 must not restore");
        let ServiceError::Snapshot(SnapshotError::State(StateError::Corrupt(message))) = &error
        else {
            panic!("{field} = -0.0: expected a corrupt-state error, got {error}");
        };
        assert!(message.contains(field) && message.contains("-0"), "{field}: {message}");
    }
}
