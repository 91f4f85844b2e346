//! Checkpoint/restore conformance: every golden scenario, run under the
//! service-plane daemon to its midpoint, checkpointed to `.nsck` bytes and
//! restored into a *fresh* daemon that finishes the run, must produce
//! exactly the digests pinned in `corpus/GOLDEN.digests` — at 1 and 4
//! workers, for all seven strategies.
//!
//! The manifest rows were pinned by uninterrupted `Monitor::run`
//! executions, so matching them proves three things at once: the daemon's
//! tick loop is observationally identical to `Monitor::run`, the `.nsck`
//! snapshot captures every bit of state that feeds the output tape, and
//! the worker count stays a pure wall-clock knob across a
//! checkpoint/restore boundary.
//!
//! The CI checkpoint-restore job repeats this cross-*process* (checkpoint
//! in one `scenarios` invocation, resume in another) under
//! `NETSHED_THREADS=1` and `=4`; this file enforces the same criterion
//! in-process so a regression fails `cargo test` before CI.
//!
//! The last three tests carry the policies *outside* the `Strategy` enum
//! (hardened stack, oracle) through the same boundary, solo and
//! fleet: the restoring configuration constructs the policy, the snapshot
//! carries its state — the degradation guard's tripped state included.

mod common;

use common::{adversarial_scenarios, custom_configs};
use netshed::prelude::*;
use netshed_bench::corpus::{
    all_strategies, checkpoint_run, corpus_capacity, corpus_config, corpus_engine, diff_digests,
    digest_run, parse_manifest, resume_run, GoldenEntry, MANIFEST_NAME,
};
use netshed_service::{Daemon, MonitorEngine, ServiceError, TickStatus};
use netshed_trace::scenario::builtins;
use std::path::PathBuf;

fn manifest() -> Vec<GoldenEntry> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus").join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_manifest(&text).expect("committed manifest parses")
}

/// The midpoint cut of a batch vector, in non-empty bins.
fn midpoint(batches: &[Batch]) -> u64 {
    let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
    let at = (non_empty / 2).max(1);
    assert!(at < non_empty, "the midpoint must land mid-scenario");
    at
}

/// The acceptance criterion: midpoint checkpoint → restore in a fresh
/// daemon → finish lands on the pinned digest for every (scenario,
/// strategy) pair at 1 and 4 workers.
#[test]
fn midpoint_restore_matches_the_golden_manifest_at_both_worker_counts() {
    let pinned = manifest();
    let mut drift: Vec<String> = Vec::new();
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        let at = midpoint(&batches);
        for (name, strategy) in all_strategies() {
            let entry = pinned
                .iter()
                .find(|e| e.scenario == scenario.name() && e.strategy == name)
                .unwrap_or_else(|| {
                    panic!("{} / {name}: missing from the golden manifest", scenario.name())
                });
            for workers in [1usize, 4] {
                let config = corpus_config(strategy, capacity, workers);
                let snapshot = checkpoint_run::<Monitor>(&batches, config.clone(), at)
                    .unwrap_or_else(|e| {
                        panic!("{} / {name} @ {workers}w: checkpoint failed: {e}", scenario.name())
                    });
                let resumed =
                    resume_run::<Monitor>(&snapshot, &batches, config).unwrap_or_else(|e| {
                        panic!("{} / {name} @ {workers}w: resume failed: {e}", scenario.name())
                    });
                for line in diff_digests(scenario.name(), &name, entry.digest, resumed) {
                    drift.push(format!("[{workers} worker(s)] {line}"));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "checkpoint/restore drifted from the golden manifest:\n  {}",
        drift.join("\n  ")
    );
}

/// The snapshot is worker-portable: a checkpoint taken at 1 worker resumes
/// at 4 (and vice versa) to the same pinned digest — the `.nsck` container
/// deliberately stores no worker count.
#[test]
fn snapshots_are_portable_across_worker_counts() {
    let pinned = manifest();
    let scenario = builtins().into_iter().next().expect("builtin scenarios");
    let batches = scenario.generate().expect("builtins are valid");
    let capacity = corpus_capacity(&batches);
    let at = midpoint(&batches);
    let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
    let entry = pinned
        .iter()
        .find(|e| e.scenario == scenario.name() && e.strategy == name)
        .expect("pinned row");
    for (checkpoint_workers, resume_workers) in [(1usize, 4usize), (4, 1)] {
        let config = |workers| corpus_config(strategy, capacity, workers);
        let snapshot = checkpoint_run::<Monitor>(&batches, config(checkpoint_workers), at)
            .expect("checkpoint");
        let resumed =
            resume_run::<Monitor>(&snapshot, &batches, config(resume_workers)).expect("resume");
        let drift = diff_digests(scenario.name(), &name, entry.digest, resumed);
        assert!(
            drift.is_empty(),
            "checkpoint at {checkpoint_workers} worker(s) + resume at {resume_workers} drifted:\n  {}",
            drift.join("\n  ")
        );
    }
}

/// Early and late cut points (not just the midpoint) land on the pinned
/// digest — the snapshot is correct wherever the boundary falls.
#[test]
fn every_cut_point_resumes_to_the_pinned_digest() {
    let pinned = manifest();
    let scenario = builtins().into_iter().next().expect("builtin scenarios");
    let batches = scenario.generate().expect("builtins are valid");
    let capacity = corpus_capacity(&batches);
    let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
    let (name, strategy) = all_strategies().into_iter().next().expect("seven strategies");
    let entry = pinned
        .iter()
        .find(|e| e.scenario == scenario.name() && e.strategy == name)
        .expect("pinned row");
    for at in 1..non_empty {
        let config = corpus_config(strategy, capacity, 1);
        let snapshot = checkpoint_run::<Monitor>(&batches, config.clone(), at).expect("checkpoint");
        let resumed = resume_run::<Monitor>(&snapshot, &batches, config).expect("resume");
        let drift = diff_digests(scenario.name(), &name, entry.digest, resumed);
        assert!(
            drift.is_empty(),
            "cut at bin {at} of {non_empty} drifted:\n  {}",
            drift.join("\n  ")
        );
    }
}

/// The fleet leg: the same harness over a `ShardedMonitor`. A fleet's digest
/// is its own contract (the manifest pins solo runs), so the reference is the
/// uninterrupted one-worker fleet run; the midpoint checkpoint restores at a
/// *different* worker count — the fleet's lanes run on its workers, and
/// neither reaches the `.nsck`.
#[test]
fn a_fleet_checkpoint_resumes_at_another_worker_count() {
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        let at = midpoint(&batches);
        let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
        let config = |workers| corpus_config(strategy, capacity, workers);
        let reference = digest_run::<ShardedMonitor>(&batches, config(1)).expect("fleet run");
        for (checkpoint_workers, resume_workers) in [(1usize, 4usize), (4, 2)] {
            let snapshot =
                checkpoint_run::<ShardedMonitor>(&batches, config(checkpoint_workers), at)
                    .expect("checkpoint");
            let resumed = resume_run::<ShardedMonitor>(&snapshot, &batches, config(resume_workers))
                .expect("resume");
            let drift = diff_digests(scenario.name(), &name, reference, resumed);
            assert!(
                drift.is_empty(),
                "fleet checkpoint at {checkpoint_workers} worker(s) + resume at \
                 {resume_workers} drifted:\n  {}",
                drift.join("\n  ")
            );
        }
    }
}

/// Counts the `DegradedFallback` decisions of the first `at` non-empty bins
/// of an uninterrupted run on engine `E`.
fn degraded_before<E: MonitorEngine>(batches: &[Batch], config: MonitorConfig, at: u64) -> usize {
    struct Degraded(usize);
    impl RunObserver for Degraded {
        fn on_decision(&mut self, _bin_index: u64, decision: &ControlDecision) {
            self.0 += usize::from(decision.reason == DecisionReason::DegradedFallback);
        }
    }
    let mut engine: E = corpus_engine(config).expect("valid corpus configuration");
    let mut degraded = Degraded(0);
    for batch in batches.iter().filter(|b| !b.is_empty()).take(at as usize) {
        engine.ingest(batch, &mut degraded).expect("bin");
    }
    degraded.0
}

/// Composition, service leg: midpoint checkpoint → restore equals the
/// uninterrupted run for every custom policy on every adversarial scenario —
/// on a solo monitor and on a fleet, each checkpointed at one worker count
/// and restored at another. The guard must have tripped before the cut
/// somewhere, on both shapes, or the test would not prove its state travels.
#[test]
fn custom_policies_resume_to_the_uninterrupted_digest_solo_and_fleet() {
    let (mut solo_tripped, mut fleet_tripped) = (0, 0);
    for scenario in adversarial_scenarios() {
        let batches = scenario.generate().expect("builtins are valid");
        let at = midpoint(&batches);
        for (name, config) in custom_configs(corpus_capacity(&batches)) {
            let reference = digest_run::<Monitor>(&batches, config.clone()).expect("solo run");
            let snapshot =
                checkpoint_run::<Monitor>(&batches, config.clone(), at).expect("checkpoint");
            let resumed =
                resume_run::<Monitor>(&snapshot, &batches, config.clone().with_workers(4))
                    .unwrap_or_else(|e| panic!("{} / {name}: solo resume: {e}", scenario.name()));
            let drift = diff_digests(scenario.name(), name, reference, resumed);
            assert!(drift.is_empty(), "solo restore drifted:\n  {}", drift.join("\n  "));

            let fleet = |workers| config.clone().with_workers(workers);
            let reference = digest_run::<ShardedMonitor>(&batches, fleet(1)).expect("fleet run");
            let snapshot =
                checkpoint_run::<ShardedMonitor>(&batches, fleet(4), at).expect("checkpoint");
            let resumed = resume_run::<ShardedMonitor>(&snapshot, &batches, fleet(2))
                .unwrap_or_else(|e| panic!("{} / {name}: fleet resume: {e}", scenario.name()));
            let drift = diff_digests(scenario.name(), name, reference, resumed);
            assert!(drift.is_empty(), "fleet restore drifted:\n  {}", drift.join("\n  "));

            if name.starts_with("guarded") {
                solo_tripped += degraded_before::<Monitor>(&batches, config.clone(), at);
                fleet_tripped += degraded_before::<ShardedMonitor>(&batches, config, at);
            }
        }
    }
    assert!(solo_tripped > 0, "the solo guard never tripped before a cut");
    assert!(fleet_tripped > 0, "no lane's guard tripped before a cut");
}

/// A restore is name-checked up front: a configuration that constructs a
/// different custom policy than the one the snapshot ran is refused with an
/// error naming both, before any state is loaded — solo and fleet.
#[test]
fn restoring_under_a_different_custom_policy_fails_naming_both() {
    fn refused<E: MonitorEngine>(batches: &[Batch], configs: &[(&'static str, MonitorConfig)]) {
        let [(guarded, restoring), (oracle, ran)] = configs else {
            panic!("two custom configurations");
        };
        // The snapshot's predictor, so that the policy is all that differs.
        let restoring = restoring.clone().with_predictor(ran.predictor.clone());
        let snapshot =
            checkpoint_run::<E>(batches, ran.clone(), midpoint(batches)).expect("checkpoint");
        match resume_run::<E>(&snapshot, batches, restoring) {
            Err(ServiceError::UnknownPolicy { snapshot, configured }) => {
                assert_eq!((snapshot.as_str(), configured.as_str()), (*oracle, *guarded));
            }
            other => panic!("expected UnknownPolicy naming both policies, got {other:?}"),
        }
    }
    let scenario = adversarial_scenarios().remove(0);
    let batches = scenario.generate().expect("builtins are valid");
    let configs = custom_configs(corpus_capacity(&batches));
    refused::<Monitor>(&batches, &configs);
    refused::<ShardedMonitor>(&batches, &configs);
}

/// A run that started under a custom policy and swapped to a built-in
/// mid-run still restores from the *original* configuration: the snapshot's
/// policy name is not the configured one, so restore falls back to the
/// built-in strategy of that name — and finishes on the administered run's
/// digest.
#[test]
fn a_run_that_swapped_to_a_built_in_restores_from_the_original_config() {
    fn swapped<E: MonitorEngine>(batches: &[Batch], config: &MonitorConfig) {
        let at = midpoint(batches);
        let swap_to = Strategy::Reactive(AllocationPolicy::MmfsPkt);
        // `cut`: stop after `at` bins and checkpoint; otherwise run through.
        let administered = |cut: bool| {
            let engine: E = corpus_engine(config.clone()).expect("valid corpus configuration");
            let (daemon, control) = Daemon::new(engine, BatchReplay::new(batches.to_vec()));
            let mut daemon = daemon.with_bins_per_tick(at / 2);
            assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
            let swap = control.swap_policy(swap_to);
            assert!(matches!(daemon.tick().expect("tick"), TickStatus::Progressed { .. }));
            assert_eq!(swap.wait().expect("swapped"), swap_to.name());
            if cut {
                return (daemon.checkpoint().expect("checkpoint"), daemon.digest());
            }
            daemon.run_to_exhaustion().expect("run");
            (Vec::new(), daemon.digest())
        };
        let (_, reference) = administered(false);
        let (snapshot, _) = administered(true);
        let resumed = resume_run::<E>(&snapshot, batches, config.clone()).expect("resume");
        assert_eq!(resumed, reference, "the swapped run must resume bit-identically");
    }
    let scenario = adversarial_scenarios().remove(0);
    let batches = scenario.generate().expect("builtins are valid");
    let (_, guarded) = custom_configs(corpus_capacity(&batches)).remove(0);
    swapped::<Monitor>(&batches, &guarded);
    swapped::<ShardedMonitor>(&batches, &guarded);
}
