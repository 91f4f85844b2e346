//! Golden-replay conformance: every built-in scenario, recorded to the
//! binary trace format and replayed through all seven strategies, must
//! produce exactly the output streams pinned in `corpus/GOLDEN.digests`.
//!
//! Three invariants are pinned per scenario:
//!
//! 1. **Generator + format stability** — the committed `.nstr` recording
//!    still decodes to exactly the batches the scenario generates today (a
//!    format change that round-trips in memory but breaks old files, or a
//!    silent generator change, fails here first).
//! 2. **Round-trip replay equivalence** (the acceptance criterion) —
//!    generate → write → read → run produces bit-identical `BinRecord`
//!    streams to running the generator's batches directly, at 1 and 4
//!    workers, for all seven strategies.
//! 3. **Golden digests** — the per-strategy record/decision/interval
//!    digests equal the committed manifest, with a readable report naming
//!    the drifted stream otherwise.
//!
//! The CI golden-corpus job runs this file under `NETSHED_THREADS=1` and
//! `=4`. Most runs below pin their worker counts explicitly (so the digests
//! cannot depend on the env knob); the two ambient-config tests deliberately
//! leave the worker count to the environment, which is what makes the `=4`
//! CI pass exercise the parallel plane — solo and fleet — against the pinned
//! digests for real.
//!
//! The policies outside the `Strategy` enum — the hardened stack, the oracle,
//! the hysteresis policy — have no manifest rows; the last two tests pin
//! them on the adversarial scenarios by the same *invariants* the built-ins
//! obey: fleet digests independent of the worker count, and a one-lane fleet
//! bit-identical to the solo monitor.

mod common;

use common::{adversarial_scenarios, custom_configs};
use netshed::prelude::*;
use netshed_bench::corpus::{
    all_strategies, corpus_capacity, corpus_config, corpus_specs, diff_digests, digest_run,
    parse_manifest, GoldenEntry, MANIFEST_NAME, TRACE_EXTENSION,
};
use netshed_trace::scenario::builtins;
use netshed_trace::{decode_batches_shared, encode_batches, Bytes};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Collects the full output tape of one run for exact comparison.
#[derive(Default)]
struct FullTape {
    records: Vec<BinRecord>,
    decisions: Vec<(u64, ControlDecision)>,
    intervals: Vec<Vec<(String, QueryOutput)>>,
}

impl RunObserver for FullTape {
    fn on_bin(&mut self, record: &BinRecord) {
        self.records.push(record.clone());
    }

    fn on_decision(&mut self, bin_index: u64, decision: &ControlDecision) {
        self.decisions.push((bin_index, decision.clone()));
    }

    fn on_interval(&mut self, outputs: &[(String, QueryOutput)]) {
        self.intervals.push(outputs.to_vec());
    }
}

fn tape_run(batches: &[Batch], strategy: Strategy, capacity: f64, workers: usize) -> FullTape {
    let mut monitor = Monitor::builder()
        .capacity(capacity)
        .seed(netshed_bench::corpus::CORPUS_SEED)
        .strategy(strategy)
        .with_workers(workers)
        .queries(corpus_specs())
        .build()
        .expect("valid corpus configuration");
    let mut tape = FullTape::default();
    monitor.run(&mut BatchReplay::new(batches.to_vec()), &mut tape).expect("corpus run");
    tape
}

/// Invariant 1: committed recordings decode to today's generator output.
#[test]
fn committed_recordings_match_the_generators() {
    for scenario in builtins() {
        let path = corpus_dir().join(format!("{}.{TRACE_EXTENSION}", scenario.name()));
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: cannot read committed recording {} ({e}); regenerate the corpus with \
                 `cargo run -p netshed-bench --release --bin scenarios -- record`",
                scenario.name(),
                path.display()
            )
        });
        let recorded = decode_batches_shared(&Bytes::from(bytes)).unwrap_or_else(|e| {
            panic!("{}: committed recording does not decode: {e}", scenario.name())
        });
        let generated = scenario.generate().expect("builtins are valid");
        assert!(
            recorded == generated,
            "{}: the generator no longer reproduces the committed recording — either the \
             traffic model or the trace format changed; if intentional, re-record the corpus",
            scenario.name()
        );
    }
}

/// Invariant 2 (the acceptance criterion): generate → write → read → run is
/// bit-identical to running the generated batches directly, at 1 and 4
/// workers, for all seven strategies.
#[test]
fn roundtrip_replay_is_bit_identical_for_every_strategy_and_worker_count() {
    for scenario in builtins() {
        let generated = scenario.generate().expect("builtins are valid");
        let encoded = encode_batches(&generated, scenario.bin_duration_us()).expect("encode");
        let replayed = decode_batches_shared(&Bytes::from(encoded)).expect("decode");
        assert_eq!(generated, replayed, "{}: packet round-trip", scenario.name());

        let capacity = corpus_capacity(&generated);
        for (name, strategy) in all_strategies() {
            let direct = tape_run(&generated, strategy, capacity, 1);
            assert!(
                !direct.records.is_empty(),
                "{}/{name}: the corpus run must process bins",
                scenario.name()
            );
            for workers in [1usize, 4] {
                let roundtripped = tape_run(&replayed, strategy, capacity, workers);
                assert_eq!(
                    direct.records,
                    roundtripped.records,
                    "{}/{name}: BinRecord stream diverged after write→read at {workers} workers",
                    scenario.name()
                );
                assert_eq!(
                    direct.decisions,
                    roundtripped.decisions,
                    "{}/{name}: decision stream diverged after write→read at {workers} workers",
                    scenario.name()
                );
                assert_eq!(
                    direct.intervals,
                    roundtripped.intervals,
                    "{}/{name}: interval outputs diverged after write→read at {workers} workers",
                    scenario.name()
                );
            }
        }
    }
}

/// Invariant 3: the per-strategy digests equal the committed manifest.
#[test]
fn digests_match_the_committed_golden_manifest() {
    let manifest_path = corpus_dir().join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest_path.display()));
    let pinned = parse_manifest(&text).expect("committed manifest parses");
    assert_eq!(
        pinned.len(),
        builtins().len() * all_strategies().len(),
        "the manifest must pin every (scenario, strategy) pair"
    );

    let mut drift: Vec<String> = Vec::new();
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (name, strategy) in all_strategies() {
            let entry: &GoldenEntry = pinned
                .iter()
                .find(|e| e.scenario == scenario.name() && e.strategy == name)
                .unwrap_or_else(|| {
                    panic!("{} / {name}: missing from the golden manifest", scenario.name())
                });
            let fresh = digest_run::<Monitor>(&batches, corpus_config(strategy, capacity, 1))
                .expect("corpus run");
            drift.extend(diff_digests(scenario.name(), &name, entry.digest, fresh));
        }
    }
    assert!(
        drift.is_empty(),
        "golden corpus drift — an output stream changed; if intentional, re-record with \
         `cargo run -p netshed-bench --release --bin scenarios -- record` and commit:\n  {}",
        drift.join("\n  ")
    );
}

/// The digests the manifest pins are worker-count invariant (spot-checked
/// exhaustively in the round-trip test above via full tapes; this pins the
/// digest path itself at 4 workers for every scenario).
#[test]
fn manifest_digests_are_worker_invariant() {
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
        let run = |workers| {
            digest_run::<Monitor>(&batches, corpus_config(strategy, capacity, workers))
                .expect("run")
        };
        let (sequential, parallel) = (run(1), run(4));
        assert_eq!(
            sequential,
            parallel,
            "{} / {name}: digest changed with the worker count",
            scenario.name()
        );
    }
}

/// Monitors built *without* an explicit worker count inherit
/// `NETSHED_THREADS`; their digests must still match the manifest. This is
/// the test that makes the CI job's `NETSHED_THREADS=4` pass genuinely
/// different from the sequential one — every other run here pins its
/// workers explicitly.
#[test]
fn ambient_worker_config_matches_the_manifest() {
    let manifest_path = corpus_dir().join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest_path.display()));
    let pinned = parse_manifest(&text).expect("committed manifest parses");
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
        let mut monitor = Monitor::builder()
            .capacity(capacity)
            .seed(netshed_bench::corpus::CORPUS_SEED)
            .strategy(strategy)
            // No .with_workers(): the count comes from NETSHED_THREADS.
            .queries(corpus_specs())
            .build()
            .expect("valid corpus configuration");
        let mut digest = DigestObserver::new();
        monitor.run(&mut BatchReplay::new(batches), &mut digest).expect("corpus run");
        let entry = pinned
            .iter()
            .find(|e| e.scenario == scenario.name() && e.strategy == name)
            .unwrap_or_else(|| panic!("{} / {name}: missing from manifest", scenario.name()));
        let drift = diff_digests(scenario.name(), &name, entry.digest, digest.digest());
        assert!(
            drift.is_empty(),
            "ambient-worker run drifted from the manifest (workers from NETSHED_THREADS={:?}):\n  {}",
            std::env::var("NETSHED_THREADS").ok(),
            drift.join("\n  ")
        );
    }
}

/// The shard-plane acceptance criterion: a flow-sharded fleet produces
/// bit-identical digests at 1, 2 and 4 workers, for all seven strategies,
/// over the whole corpus. The one-worker run is the reference — a multi-lane
/// fleet's output is its own contract (it legitimately differs from the solo
/// monitor's, because the lane instances meter other cycles than one
/// instance; the one-lane fleet below is the case where it may not).
#[test]
fn sharded_digests_are_invariant_across_worker_counts() {
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (name, strategy) in all_strategies() {
            let run = |workers| {
                let config = corpus_config(strategy, capacity, workers);
                digest_run::<ShardedMonitor>(&batches, config).expect("corpus run")
            };
            let reference = run(1);
            assert!(
                reference.bins > 0,
                "{}/{name}: the sharded corpus run must process bins",
                scenario.name()
            );
            for workers in [2, 4] {
                assert_eq!(
                    reference,
                    run(workers),
                    "{}/{name}: sharded digest changed at {workers} workers",
                    scenario.name()
                );
            }
        }
    }
}

/// The fleet twin of `ambient_worker_config_matches_the_manifest`: a 4-lane
/// fleet built *without* an explicit worker count inherits `NETSHED_THREADS`,
/// and its digests must equal the pinned one-worker reference. This is what
/// makes the CI golden-corpus job's `NETSHED_THREADS=4` pass run the fleet's
/// lanes on more than one thread — every other fleet run here pins its
/// workers explicitly.
#[test]
fn ambient_shard_config_matches_the_pinned_reference() {
    let scenario = &builtins()[1]; // ddos-spike: the shard-borrowing workload
    let batches = scenario.generate().expect("builtins are valid");
    let capacity = corpus_capacity(&batches);
    let (name, strategy) = all_strategies().into_iter().last().expect("seven strategies");
    let reference = digest_run::<ShardedMonitor>(&batches, corpus_config(strategy, capacity, 1))
        .expect("corpus run");
    let mut fleet = Monitor::builder()
        .capacity(capacity)
        .seed(netshed_bench::corpus::CORPUS_SEED)
        .strategy(strategy)
        // No .with_workers(): the count comes from NETSHED_THREADS.
        .queries(corpus_specs())
        .build_sharded()
        .expect("valid corpus configuration");
    assert_eq!(fleet.lane_count(), 4);
    let mut digest = DigestObserver::new();
    fleet.run(&mut BatchReplay::new(batches), &mut digest).expect("corpus run");
    assert_eq!(
        reference,
        digest.digest(),
        "{}/{name}: ambient-worker fleet run drifted (workers from NETSHED_THREADS={:?})",
        scenario.name(),
        std::env::var("NETSHED_THREADS").ok()
    );
}

/// The differential test behind "one engine contract": a fleet of *one* lane
/// is the solo monitor. The lane sees every packet, the coordinator's budget
/// for it is exactly the capacity, and merging one lane's outputs is the
/// identity — so all three digest streams must equal `build()`'s, over the
/// whole corpus and all seven strategies, at 1, 2 and 4 workers.
#[test]
fn one_lane_fleet_is_the_solo_monitor() {
    let mut drift: Vec<String> = Vec::new();
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (name, strategy) in all_strategies() {
            let solo = digest_run::<Monitor>(&batches, corpus_config(strategy, capacity, 1))
                .expect("solo run");
            for workers in [1, 2, 4] {
                let config = corpus_config(strategy, capacity, workers).with_shard_lanes(1);
                let fleet = digest_run::<ShardedMonitor>(&batches, config).expect("fleet run");
                for line in diff_digests(scenario.name(), &name, solo, fleet) {
                    drift.push(format!("[{workers} worker(s)] {line}"));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "a one-lane fleet diverged from the solo monitor:\n  {}",
        drift.join("\n  ")
    );
}

/// Composition, fleet leg: the custom policies shard like the built-ins do.
/// The fleet builds its one policy instance from the configuration's
/// constructor, so its three digest streams are invariant over 1, 2 and 4
/// workers on every adversarial scenario.
#[test]
fn custom_policy_fleet_digests_are_invariant_across_worker_counts() {
    for scenario in adversarial_scenarios() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (name, config) in custom_configs(capacity) {
            assert_eq!(config.policy.name(), name);
            let run = |workers| {
                let config = config.clone().with_workers(workers);
                digest_run::<ShardedMonitor>(&batches, config).expect("custom policies shard")
            };
            let reference = run(1);
            assert!(reference.bins > 0, "{}/{name}: the fleet must process bins", scenario.name());
            for workers in [2, 4] {
                assert_eq!(
                    reference,
                    run(workers),
                    "{}/{name}: fleet digest changed at {workers} workers",
                    scenario.name()
                );
            }
        }
    }
}

/// Composition, differential leg: a one-lane fleet running a custom policy
/// is the solo monitor running it — the `one_lane_fleet_is_the_solo_monitor`
/// invariant extended past the enum.
#[test]
fn one_lane_fleet_is_the_solo_monitor_for_custom_policies() {
    let mut drift: Vec<String> = Vec::new();
    for scenario in adversarial_scenarios() {
        let batches = scenario.generate().expect("builtins are valid");
        let capacity = corpus_capacity(&batches);
        for (name, config) in custom_configs(capacity) {
            let solo = digest_run::<Monitor>(&batches, config.clone()).expect("solo run");
            for workers in [1, 2, 4] {
                let config = config.clone().with_workers(workers).with_shard_lanes(1);
                let fleet = digest_run::<ShardedMonitor>(&batches, config).expect("fleet run");
                for line in diff_digests(scenario.name(), name, solo, fleet) {
                    drift.push(format!("[{workers} worker(s)] {line}"));
                }
            }
        }
    }
    assert!(
        drift.is_empty(),
        "a one-lane fleet diverged from the solo monitor under a custom policy:\n  {}",
        drift.join("\n  ")
    );
}
