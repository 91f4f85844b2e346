//! The golden-replay conformance corpus.
//!
//! Every built-in [`Scenario`](netshed_trace::scenario) is recorded to a
//! `.nstr` trace under `corpus/` together with a manifest pinning, per
//! (scenario, strategy), the [`RunDigest`] of the monitor's three output
//! streams. `tests/golden.rs` and the `scenarios` binary both go through the
//! helpers here, so the test suite and the CLI can never disagree about what
//! "conformant" means:
//!
//! * [`corpus_specs`] / [`all_strategies`] / [`corpus_capacity`] fix the
//!   query set, the seven strategy configurations and the (deterministic)
//!   overload level of every corpus run;
//! * [`digest_run`] replays a batch vector through one configuration of
//!   either engine and fingerprints it;
//! * [`format_manifest`] / [`parse_manifest`] read and write the
//!   `GOLDEN.digests` manifest;
//! * [`diff_digests`] renders a drift as a readable report naming the
//!   scenario, the strategy and the exact stream that diverged;
//! * [`inspect_trace`] describes a recording frame by frame without
//!   decoding it (`scenarios inspect`).

use crate::report::{Cell, Table};
use netshed_monitor::{
    DigestObserver, Monitor, MonitorConfig, NetshedError, PolicySpec, RunDigest, Strategy,
};
use netshed_queries::{CustomBehavior, QueryKind, QuerySpec};
use netshed_service::{Daemon, MonitorEngine, ServiceError, TickStatus};
use netshed_trace::scenario::Scenario;
use netshed_trace::{Batch, BatchReplay, Bytes, FormatError, FrameWalk, TRACE_FORMAT_VERSION};

/// Monitor seed of every corpus run (the traffic seed lives in the
/// scenario).
pub const CORPUS_SEED: u64 = 23;

/// File extension of recorded corpus traces.
pub const TRACE_EXTENSION: &str = "nstr";

/// Name of the digest manifest inside the corpus directory.
pub const MANIFEST_NAME: &str = "GOLDEN.digests";

/// The digest epoch of this engine: which draw order and numerics its
/// outputs follow (`corpus/README.md`, "Epochs"). Epoch 1 is every engine
/// before coordinated packet sampling, whose manifests carry no epoch line;
/// epoch 2 draws one packet key per bin for every packet-sampled query;
/// epoch 3 fingerprints the same runs with the word-wise digest; epoch 4
/// draws the measurement noise once per run of a cohort's instances, where a
/// follower had drawn its own; epoch 5 fingerprints the same runs with the
/// four-lane digest, which absorbs each emitted value once.
pub const DIGEST_EPOCH: u32 = 5;

/// The manifest line that names its epoch.
const EPOCH_LINE: &str = "# digest epoch ";

/// The corpus query set: one query per shedding method (packet sampling,
/// flow sampling, custom shedding) plus top-k, whose high minimum rate
/// forces the disabled path under overload.
pub fn corpus_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(QueryKind::Counter),
        QuerySpec::new(QueryKind::Flows),
        QuerySpec::new(QueryKind::TopK),
        QuerySpec::new(QueryKind::PatternSearch),
        QuerySpec::new(QueryKind::P2pDetector).with_custom(CustomBehavior::Honest),
    ]
}

/// The seven built-in strategy configurations ([`Strategy::ALL`]), with
/// their historical names, in manifest order.
pub fn all_strategies() -> Vec<(String, Strategy)> {
    Strategy::ALL.into_iter().map(|strategy| (strategy.name(), strategy)).collect()
}

/// The capacity of a corpus run: half the unconstrained demand of the
/// warm-up prefix (K = 0.5), measured with the deterministic cycle model —
/// every strategy genuinely sheds, and the number depends only on the
/// recorded traffic.
pub fn corpus_capacity(batches: &[Batch]) -> f64 {
    let warmup = batches.len().min(20);
    let demand =
        netshed_monitor::reference::measure_total_demand(&corpus_specs(), &batches[..warmup])
            .expect("valid corpus specs"); // lint:allow(no-unwrap): corpus_specs() is a fixed compiled-in set that passes registration validation
    (demand / 2.0).max(1.0)
}

/// The adversarial subset of the built-in scenarios: the predictor-gaming
/// workloads the robustness plane is evaluated on (and the CI
/// `adversarial-corpus` job loops over).
pub const ADVERSARIAL_SCENARIOS: [&str; 3] = ["bm-mimicry", "flow-churn", "agg-skew"];

/// The corpus configuration of one policy run — a built-in [`Strategy`] or
/// any [`PolicySpec`]. Callers layer the knobs of the plane under test on top
/// (`with_shard_lanes`, `with_predictor`); the service-plane helpers below
/// pass it to `.nsck` restore, which cross-checks it against the
/// checkpointing process's.
pub fn corpus_config(
    policy: impl Into<PolicySpec>,
    capacity: f64,
    workers: usize,
) -> MonitorConfig {
    MonitorConfig::default()
        .with_capacity(capacity)
        .with_seed(CORPUS_SEED)
        .with_strategy(policy)
        .with_workers(workers)
}

/// Engine `E` — a solo [`Monitor`] or a
/// [`ShardedMonitor`](netshed_monitor::ShardedMonitor) fleet — built from
/// `config` with the corpus queries registered.
pub fn corpus_engine<E: MonitorEngine>(config: MonitorConfig) -> Result<E, NetshedError> {
    let mut engine = E::from_config(config)?;
    for spec in corpus_specs() {
        engine.register(&spec)?;
    }
    Ok(engine)
}

/// Replays a batch vector through a [`corpus_engine`] and returns the run
/// fingerprint.
///
/// Per the determinism contract the result does not depend on `workers` —
/// `tests/golden.rs` proves that over the whole corpus at 1, 2 and 4 workers
/// for all seven strategies, solo and fleet.
pub fn digest_run<E: MonitorEngine>(
    batches: &[Batch],
    config: MonitorConfig,
) -> Result<RunDigest, NetshedError> {
    let mut observer = DigestObserver::new();
    corpus_engine::<E>(config)?.run(&mut BatchReplay::new(batches.to_vec()), &mut observer)?;
    Ok(observer.digest())
}

/// Runs `config` on engine `E` under a service daemon up to `at` non-empty
/// bins — registering the corpus queries through the control channel, like
/// real tenants — and returns the `.nsck` checkpoint bytes.
pub fn checkpoint_run<E: MonitorEngine>(
    batches: &[Batch],
    config: MonitorConfig,
    at: u64,
) -> Result<Vec<u8>, ServiceError> {
    let (daemon, control) =
        Daemon::new(E::from_config(config)?, BatchReplay::new(batches.to_vec()));
    let mut daemon = daemon.with_bins_per_tick(at.max(1));
    let pending: Vec<_> =
        corpus_specs().into_iter().map(|spec| control.register_query(spec)).collect();
    let status = daemon.tick()?;
    for p in pending {
        p.wait()?;
    }
    if !matches!(status, TickStatus::Progressed { .. }) {
        // The cut must land strictly inside the scenario, otherwise nothing
        // is left to prove on resume.
        return Err(ServiceError::SourceTooShort { needed: at, skipped: daemon.bins_ingested() });
    }
    daemon.checkpoint()
}

/// Restores a [`checkpoint_run`] `.nsck` in this process (typically a fresh
/// one) into engine `E` built from `config`, replays the remaining bins and
/// returns the final fingerprint — which must equal the uninterrupted
/// [`digest_run`] digest bit for bit, at any worker count.
pub fn resume_run<E: MonitorEngine>(
    bytes: &[u8],
    batches: &[Batch],
    config: MonitorConfig,
) -> Result<RunDigest, ServiceError> {
    let (mut daemon, _control) =
        Daemon::<_, E>::restore_engine(config, BatchReplay::new(batches.to_vec()), bytes)?;
    daemon.run_to_exhaustion()?;
    Ok(daemon.digest())
}

/// One pinned manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEntry {
    /// Scenario name.
    pub scenario: String,
    /// Strategy name ([`Strategy::name`]).
    pub strategy: String,
    /// The pinned fingerprint.
    pub digest: RunDigest,
}

/// Computes the golden entries of one scenario over its generated batches
/// (sequential execution; the digests are worker-count invariant by the
/// execution-plane contract, which `tests/golden.rs` re-proves at 4
/// workers).
pub fn compute_golden(
    scenario: &Scenario,
    batches: &[Batch],
) -> Result<Vec<GoldenEntry>, NetshedError> {
    let capacity = corpus_capacity(batches);
    let mut entries = Vec::new();
    for (name, strategy) in all_strategies() {
        let digest = digest_run::<Monitor>(batches, corpus_config(strategy, capacity, 1))?;
        entries.push(GoldenEntry { scenario: scenario.name().to_string(), strategy: name, digest });
    }
    Ok(entries)
}

/// Renders manifest rows in the committed `GOLDEN.digests` format.
pub fn format_manifest(entries: &[GoldenEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "# netshed golden-replay corpus manifest v1\n\
         {EPOCH_LINE}{DIGEST_EPOCH}\n\
         # scenario strategy bins records decisions intervals\n"
    );
    for entry in entries {
        // Writing to a String is infallible.
        let _ = writeln!(
            out,
            "{} {} {} {:016x} {:016x} {:016x}",
            entry.scenario,
            entry.strategy,
            entry.digest.bins,
            entry.digest.records,
            entry.digest.decisions,
            entry.digest.intervals
        );
    }
    out
}

/// Parses a `GOLDEN.digests` manifest (inverse of [`format_manifest`]).
/// A manifest of another digest epoch than [`DIGEST_EPOCH`] (one with no
/// epoch line is epoch 1) is rejected: its digests pin another draw order,
/// other numerics or another fingerprint function.
pub fn parse_manifest(text: &str) -> Result<Vec<GoldenEntry>, String> {
    let mut entries = Vec::new();
    let mut epoch = 1;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if let Some(named) = line.strip_prefix(EPOCH_LINE) {
            epoch = named
                .parse::<u32>()
                .map_err(|e| format!("manifest line {}: bad digest epoch: {e}", number + 1))?;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(format!(
                "manifest line {}: expected 6 fields, got {}: {line:?}",
                number + 1,
                fields.len()
            ));
        }
        let bins = fields[2]
            .parse::<u64>()
            .map_err(|e| format!("manifest line {}: bad bin count: {e}", number + 1))?;
        let hex = |field: &str, what: &str| {
            u64::from_str_radix(field, 16)
                .map_err(|e| format!("manifest line {}: bad {what} digest: {e}", number + 1))
        };
        entries.push(GoldenEntry {
            scenario: fields[0].to_string(),
            strategy: fields[1].to_string(),
            digest: RunDigest {
                bins,
                records: hex(fields[3], "records")?,
                decisions: hex(fields[4], "decisions")?,
                intervals: hex(fields[5], "intervals")?,
            },
        });
    }
    if epoch != DIGEST_EPOCH {
        return Err(format!(
            "manifest of digest epoch {epoch}, engine of epoch {DIGEST_EPOCH}: re-record it \
             under the epoch procedure (corpus/README.md)"
        ));
    }
    Ok(entries)
}

/// Compares a pinned digest against a fresh one and renders every divergence
/// as one readable line; an empty result means conformance.
pub fn diff_digests(
    scenario: &str,
    strategy: &str,
    pinned: RunDigest,
    fresh: RunDigest,
) -> Vec<String> {
    let mut drift = Vec::new();
    if pinned.bins != fresh.bins {
        drift.push(format!(
            "{scenario} / {strategy}: bin count drifted (pinned {}, got {})",
            pinned.bins, fresh.bins
        ));
    }
    for (stream, expected, actual) in [
        ("BinRecord", pinned.records, fresh.records),
        ("decision", pinned.decisions, fresh.decisions),
        ("interval-output", pinned.intervals, fresh.intervals),
    ] {
        if expected != actual {
            drift.push(format!(
                "{scenario} / {strategy}: {stream} digest drifted \
                 (pinned {expected:016x}, got {actual:016x})"
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;
    use netshed_trace::scenario::builtins;

    #[test]
    fn manifest_round_trips() {
        let entries = vec![
            GoldenEntry {
                scenario: "ddos-spike".into(),
                strategy: "mmfs_pkt".into(),
                digest: RunDigest { bins: 32, records: 1, decisions: 0xdead, intervals: u64::MAX },
            },
            GoldenEntry {
                scenario: "steady-cesca".into(),
                strategy: "no_lshed".into(),
                digest: RunDigest { bins: 30, records: 0, decisions: 2, intervals: 3 },
            },
        ];
        let text = format_manifest(&entries);
        assert_eq!(parse_manifest(&text).expect("parse"), entries);
    }

    #[test]
    fn malformed_manifests_are_rejected_with_line_numbers() {
        assert!(parse_manifest("a b c\n").expect_err("short line").contains("line 1"));
        assert!(parse_manifest("# ok\ns strat x 0 0 0\n")
            .expect_err("bad bins")
            .contains("line 2"));
        assert!(parse_manifest("s strat 1 zz 0 0\n").expect_err("bad hex").contains("records"));
    }

    #[test]
    fn a_manifest_of_another_epoch_is_rejected() {
        let row = "s strat 1 0 0 0\n";
        let this_epoch = format!("{EPOCH_LINE}{DIGEST_EPOCH}\n{row}");
        assert_eq!(parse_manifest(&this_epoch).expect("this epoch").len(), 1);
        // No epoch line: epoch 1.
        assert!(parse_manifest(row).expect_err("epoch 1").contains("epoch 1"));
        let next = format!("{EPOCH_LINE}{}\n{row}", DIGEST_EPOCH + 1);
        assert!(parse_manifest(&next).expect_err("a later epoch").contains("re-record"));
        assert!(parse_manifest(&format!("{EPOCH_LINE}two\n")).expect_err("bad").contains("line 1"));
    }

    #[test]
    fn diff_names_the_drifted_stream() {
        let pinned = RunDigest { bins: 10, records: 1, decisions: 2, intervals: 3 };
        assert!(diff_digests("s", "x", pinned, pinned).is_empty());
        let drifted = RunDigest { bins: 10, records: 9, decisions: 2, intervals: 3 };
        let report = diff_digests("ddos-spike", "mmfs_pkt", pinned, drifted);
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("BinRecord"));
        assert!(report[0].contains("ddos-spike / mmfs_pkt"));
    }

    #[test]
    fn strategies_resolve_by_their_historical_names() {
        assert_eq!(all_strategies().len(), 7);
        assert_eq!(
            Strategy::from_name("mmfs_pkt"),
            Some(Strategy::Predictive(netshed_monitor::AllocationPolicy::MmfsPkt))
        );
        assert_eq!(Strategy::from_name("nope"), None);
    }

    #[test]
    fn digest_runs_are_reproducible_per_strategy() {
        let scenario = &builtins()[0];
        let batches = scenario.generate().expect("builtin is valid");
        let capacity = corpus_capacity(&batches);
        let (_, strategy) = &all_strategies()[4];
        let config = corpus_config(*strategy, capacity, 1);
        let a = digest_run::<Monitor>(&batches, config.clone()).expect("run");
        let b = digest_run::<Monitor>(&batches, config).expect("run");
        assert_eq!(a, b);
        assert!(a.bins > 0);
    }
}

/// What [`inspect_trace`] found in a `.nstr` container.
#[derive(Debug)]
pub struct TraceInspection {
    /// One row per batch frame — its position, bin index, packets, body
    /// bytes, payload bytes and checksum verdict — under a title naming the
    /// header's version and time bin; the note reports the end frame.
    pub frames: Table,
    /// Frames whose checksum did not hold.
    pub bad_checksums: usize,
    /// Why the walk stopped before a valid end frame, if it did.
    pub error: Option<FormatError>,
}

impl TraceInspection {
    /// Whether every frame's checksum held and the walk reached a valid
    /// end frame.
    pub fn is_clean(&self) -> bool {
        self.bad_checksums == 0 && self.error.is_none()
    }
}

/// Describes a `.nstr` container frame by frame through the trace crate's
/// frame walk, which builds no store: each frame's payload bytes come from
/// its records' length fields (`corrupt` when they do not tile the body)
/// and its checksum is verified but not enforced, so one bad frame does not
/// hide the ones after it. A header that does not open is the error.
pub fn inspect_trace(container: Bytes) -> Result<TraceInspection, FormatError> {
    let mut walk = FrameWalk::new(container)?;
    let title = format!(".nstr version {TRACE_FORMAT_VERSION}, time bin {} us", walk.time_bin_us());
    let mut frames = Table::titled(
        &title,
        &["frame", "bin", "packets", "body_bytes", "payload_bytes", "checksum"],
    );
    let mut bad_checksums = 0;
    let error = loop {
        match walk.next_frame() {
            Ok(Some(frame)) => {
                let checksum_ok = frame.checksum_ok();
                bad_checksums += usize::from(!checksum_ok);
                frames.row([
                    Cell::from(frame.index()),
                    Cell::from(frame.bin_index()),
                    Cell::from(u64::from(frame.packets())),
                    Cell::from(frame.body().len()),
                    frame.payload_bytes().map_or_else(|_| Cell::from("corrupt"), Cell::from),
                    Cell::from(if checksum_ok { "ok" } else { "BAD" }),
                ]);
            }
            Ok(None) => break None,
            Err(error) => break Some(error),
        }
    };
    frames.note = match &error {
        None => format!("end frame: {} batch frames, checksum ok", frames.rows.len()),
        Some(error) => format!("walk stopped: {error}"),
    };
    Ok(TraceInspection { frames, bad_checksums, error })
}
