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

use netshed::{Monitor, ShardedMonitor};
use netshed_bench::corpus::{
    all_strategies, checkpoint_run, corpus_capacity, corpus_config, diff_digests, digest_run,
    parse_manifest, resume_run, GoldenEntry, MANIFEST_NAME,
};
use netshed_trace::scenario::builtins;
use std::path::PathBuf;

fn manifest() -> Vec<GoldenEntry> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus").join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    parse_manifest(&text).expect("committed manifest parses")
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
        let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
        let at = (non_empty / 2).max(1);
        assert!(at < non_empty, "{}: midpoint must land mid-scenario", scenario.name());
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
    let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
    let at = (non_empty / 2).max(1);
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
/// uninterrupted fleet run; the midpoint checkpoint restores at a *different*
/// shard-thread count — `shards`, like `workers`, never reaches the `.nsck`.
#[test]
fn a_fleet_checkpoint_resumes_at_another_shard_thread_count() {
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
        let at = (non_empty / 2).max(1);
        let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
        let config = |shards| corpus_config(strategy, capacity, 1).with_shards(shards);
        let reference = digest_run::<ShardedMonitor>(&batches, config(1)).expect("fleet run");
        for (checkpoint_shards, resume_shards) in [(1usize, 4usize), (4, 2)] {
            let snapshot =
                checkpoint_run::<ShardedMonitor>(&batches, config(checkpoint_shards), at)
                    .expect("checkpoint");
            let resumed = resume_run::<ShardedMonitor>(&snapshot, &batches, config(resume_shards))
                .expect("resume");
            let drift = diff_digests(scenario.name(), &name, reference, resumed);
            assert!(
                drift.is_empty(),
                "fleet checkpoint at {checkpoint_shards} shard thread(s) + resume at \
                 {resume_shards} drifted:\n  {}",
                drift.join("\n  ")
            );
        }
    }
}
