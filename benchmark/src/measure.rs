//! The untraced run: set-up, the correctness reference, timed daemon passes
//! for `--seconds`, checkpoint/restore pairs, and the end-to-end metrics.
//!
//! Closed loop, one process, one thread: the monitor is a single-consumer
//! pipeline, so the next bin is offered when the previous tick returns.

use crate::json::Value;
use crate::metrics::{Metrics, BIN_LIMIT_US};
use crate::stats::{best, median, per_bin_best, percentile, percentile_checked, quartiles};
use crate::sut::{
    decode_batches_shared, AccuracyTracker, BatchReplay, Daemon, DigestObserver, Engine, Monitor,
    MonitorBuilder, PacketSource, RunDigest, ShardedMonitor, SharedTraceReader, TickStatus,
};
use crate::workloads::{EngineKind, Input, Workload};
use crate::{Options, Result};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run, `setup_s` being their median: at least the first count,
/// then more while they fit in [`SETUP_WINDOW_S`] (a 30 ms set-up needs more
/// repeats than a 600 ms one for the same steadiness), at most the second.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_WINDOW_S: f64 = 2.0;
/// Fewest timed passes, however short `--seconds` is: the best of fewer
/// than three says little about which passes the host disturbed.
const MIN_PASSES: usize = 3;
/// Most checkpoint/restore pairs a probe makes, however long its window (a
/// pair is well under a millisecond on the small workloads).
const MAX_SNAPSHOT_PAIRS: usize = 500;

/// What a run reports: the driver's four keys plus detail for `run`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Counts and identifiers that are not metrics, as a JSON object:
    /// passes, bins, packets, the digest, whole-pass throughput quartiles.
    pub detail: Value,
}

/// One daemon pass over the encoded bytes.
pub struct Pass {
    /// When the first tick started and when each tick returned: one entry
    /// more than there are ticks. The last tick is the one that finds the
    /// source exhausted and flushes the final measurement interval into the
    /// digest; every tick before it processed one bin.
    pub boundaries: Vec<Instant>,
    pub digest: RunDigest,
}

impl Pass {
    /// `(start, end)` of every tick, the flushing one included.
    pub fn ticks(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        self.boundaries.windows(2).map(|pair| (pair[0], pair[1]))
    }

    /// Nanoseconds of each tick that processed a bin.
    pub fn bin_ns(&self) -> Vec<f64> {
        let mut ns: Vec<f64> =
            self.ticks().map(|(start, end)| (end - start).as_nanos() as f64).collect();
        ns.pop();
        ns
    }

    /// Nanoseconds of the final, flushing tick.
    pub fn flush_ns(&self) -> f64 {
        self.ticks().last().map_or(0.0, |(start, end)| (end - start).as_nanos() as f64)
    }

    /// First tick to source exhaustion, flush included.
    pub fn wall_s(&self) -> f64 {
        match (self.boundaries.first(), self.boundaries.last()) {
            (Some(first), Some(last)) => (*last - *first).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Builds a fresh engine and a daemon over `source`, one bin per tick, and
/// times every tick until the source is exhausted. Building is outside the
/// timed region. The caller owns the source, and with it the check that the
/// reader did not latch a decode error and report exhaustion instead.
pub fn drive_daemon<E: Engine>(
    builder: MonitorBuilder,
    input: &Input,
    source: &mut impl PacketSource,
) -> Result<Pass> {
    let engine = E::build(builder)?;
    let (daemon, _control) = Daemon::new(engine, source);
    let mut daemon = daemon.with_bins_per_tick(1);
    let mut boundaries = Vec::with_capacity(input.bins + 2);
    boundaries.push(Instant::now());
    loop {
        let status = daemon.tick()?;
        boundaries.push(Instant::now());
        match status {
            TickStatus::Progressed { .. } => {}
            TickStatus::SourceExhausted => break,
            TickStatus::ShutdownRequested => return Err("daemon shut down unasked".into()),
        }
    }
    let bins = boundaries.len() - 2;
    if bins != input.bins {
        return Err(format!("pass ticked {bins} bins, input has {}", input.bins).into());
    }
    Ok(Pass { boundaries, digest: daemon.digest() })
}

/// [`drive_daemon`] over a `SharedTraceReader` on `input`'s bytes.
pub fn daemon_pass<E: Engine>(builder: MonitorBuilder, input: &Input) -> Result<Pass> {
    let mut reader = SharedTraceReader::new(input.bytes.clone())?;
    let pass = drive_daemon::<E>(builder, input, &mut reader)?;
    match reader.error() {
        Some(error) => Err(format!("decode failed mid-pass: {error}").into()),
        None => Ok(pass),
    }
}

/// Nanoseconds the pass would take on an undisturbed host: every bin at its
/// best over `passes`, plus the best final flush.
pub fn undisturbed_ns<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> f64 {
    let (ticks, flushes): (Vec<Vec<f64>>, Vec<f64>) =
        passes.into_iter().map(|pass| (pass.bin_ns(), pass.flush_ns())).unzip();
    per_bin_best(&ticks).iter().sum::<f64>() + best(&flushes)
}

/// The correctness reference: the engine's own `run` loop (not the daemon)
/// over the decoded batches, fingerprinted and scored against the
/// unconstrained reference execution.
pub struct Quality {
    pub digest: RunDigest,
    /// Per-query accuracy (1 − mean relative error), name-sorted.
    pub accuracy: Vec<(String, f64)>,
    pub drop_fraction: f64,
}

pub fn quality_pass<E: Engine>(workload: &Workload, input: &Input) -> Result<Quality> {
    let mut engine = E::build(workload.builder(input))?;
    let interval_us = engine.config().measurement_interval_us;
    let mut source = BatchReplay::new(decode_batches_shared(&input.bytes)?);
    let mut observer = (DigestObserver::new(), AccuracyTracker::new(&input.specs, interval_us));
    let summary = engine.run_all(&mut source, &mut observer)?;
    let (digest, accuracy) = observer;
    if summary.bins != input.bins as u64 || summary.total_packets != input.packets {
        return Err(format!(
            "quality pass saw {} bins / {} packets, input has {} / {}",
            summary.bins, summary.total_packets, input.bins, input.packets
        )
        .into());
    }
    Ok(Quality {
        digest: digest.digest(),
        accuracy: accuracy.mean_accuracy().into_iter().collect(),
        drop_fraction: summary.uncontrolled_drop_fraction(),
    })
}

/// One full set-up: generate, encode, calibrate, then build and register the
/// first engine. Returns the input and how long it all took.
pub fn set_up<E: Engine>(workload: &Workload, options: &Options) -> Result<(Input, f64)> {
    let start = Instant::now();
    let input = workload.prepare(options.seed, options.smoke)?;
    black_box(E::build(workload.builder(&input))?);
    Ok((input, start.elapsed().as_secs_f64()))
}

/// Checkpoints a daemon stopped at the middle bin and restores from those
/// bytes over a fresh reader (source fast-forward included), at least
/// `min_pairs` times and on until `window_s` is used up; then runs the last
/// restored daemon to the end and returns its digest.
pub struct SnapshotTimes {
    pub checkpoint_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// The `.nsck` bytes of the last checkpoint.
    pub snapshot: Vec<u8>,
    pub resumed_digest: RunDigest,
}

pub fn checkpoint_restore<E: Engine>(
    workload: &Workload,
    input: &Input,
    min_pairs: usize,
    window_s: f64,
) -> Result<SnapshotTimes> {
    let engine = E::build(workload.builder(input))?;
    let config = engine.config().clone();
    let (daemon, _control) = Daemon::new(engine, SharedTraceReader::new(input.bytes.clone())?);
    let mut daemon = daemon.with_bins_per_tick(1);
    for _ in 0..input.bins / 2 {
        daemon.tick()?;
    }
    let mut times = SnapshotTimes {
        checkpoint_ms: Vec::with_capacity(min_pairs),
        restore_ms: Vec::with_capacity(min_pairs),
        snapshot: Vec::new(),
        resumed_digest: daemon.digest(),
    };
    let mut resumed = None;
    let window = Instant::now();
    while times.checkpoint_ms.len() < min_pairs
        || (window.elapsed().as_secs_f64() < window_s
            && times.checkpoint_ms.len() < MAX_SNAPSHOT_PAIRS)
    {
        let reader = SharedTraceReader::new(input.bytes.clone())?;
        let start = Instant::now();
        let snapshot = daemon.checkpoint()?;
        let checkpointed = Instant::now();
        let restored = Daemon::<_, E>::restore_engine(config.clone(), reader, &snapshot)?;
        let restored_at = Instant::now();
        times.checkpoint_ms.push((checkpointed - start).as_secs_f64() * 1e3);
        times.restore_ms.push((restored_at - checkpointed).as_secs_f64() * 1e3);
        times.snapshot = snapshot;
        resumed = Some(restored.0);
    }
    let mut resumed = resumed.ok_or("no checkpoint/restore pair was run")?;
    resumed.run_to_exhaustion()?;
    times.resumed_digest = resumed.digest();
    Ok(times)
}

pub fn run(workload: &Workload, options: &Options) -> Result<Outcome> {
    match workload.engine {
        EngineKind::Solo => run_with::<Monitor>(workload, options),
        EngineKind::Fleet => run_with::<ShardedMonitor>(workload, options),
    }
}

fn run_with<E: Engine>(workload: &Workload, options: &Options) -> Result<Outcome> {
    // Set-up, several times over: its median is a metric, so that work moved
    // out of the passes and into set-up shows.
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut input = None;
    let window = Instant::now();
    while setup_s.is_empty()
        || (!options.smoke
            && (setup_s.len() < MIN_SETUPS
                || (setup_s.len() < MAX_SETUPS && window.elapsed().as_secs_f64() < SETUP_WINDOW_S)))
    {
        drop(input.take()); // one copy of the traffic in memory at a time
        let (made, seconds) = set_up::<E>(workload, options)?;
        setup_s.push(seconds);
        input = Some(made);
    }
    let input = input.ok_or("no set-up was run")?;

    let quality = quality_pass::<E>(workload, &input)?;

    // Timed passes until the window closes.
    let min_passes = if options.smoke { 1 } else { MIN_PASSES };
    let mut good: Vec<Pass> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let window = Instant::now();
    let mut tried = 0;
    loop {
        // A smoke run is one pass, whatever the window.
        let in_window = !options.smoke && window.elapsed().as_secs_f64() < options.seconds;
        // Passes still owed to the per-bin best; two retries, so a run
        // whose passes all fail ends instead of looping.
        let owed = good.len() < min_passes && tried < min_passes + 2;
        if !in_window && !owed {
            break;
        }
        tried += 1;
        attempted += input.bins as u64;
        match daemon_pass::<E>(workload.builder(&input), &input) {
            Ok(pass) if pass.digest == quality.digest => good.push(pass),
            Ok(pass) => {
                eprintln!(
                    "{}: pass digest {} != reference {}",
                    workload.name, pass.digest, quality.digest
                );
                failed += input.bins as u64;
            }
            Err(error) => {
                eprintln!("{}: pass failed: {error}", workload.name);
                failed += input.bins as u64;
            }
        }
    }
    if good.is_empty() {
        return Err("no pass reproduced the reference digest".into());
    }

    let passes: Vec<Vec<f64>> = good.iter().map(Pass::bin_ns).collect();
    let bin_us: Vec<f64> = per_bin_best(&passes).iter().map(|ns| ns / 1e3).collect();
    // The limit is held against the per-bin best, like the percentiles: a
    // bin that is over it in every pass is slow, one that is over it once
    // met the host's scheduler.
    let over_limit = bin_us.iter().filter(|us| **us > BIN_LIMIT_US).count() as u64;
    failed += over_limit * good.len() as u64;
    let bin_p95_us = if options.smoke {
        percentile(&bin_us, 0.95).0
    } else {
        percentile_checked(&bin_us, 0.95)?
    };
    // Throughput is that of the undisturbed pass; whole passes are also
    // reported, as they were.
    let undisturbed_s = undisturbed_ns(&good) / 1e9;
    let whole: Vec<f64> = good.iter().map(|pass| input.packets as f64 / pass.wall_s()).collect();
    let (whole_q1, whole_median, whole_q3) = quartiles(&whole);

    // One checkpoint → restore → run to the end, for the digest; the timing
    // of the pair is a per-layer metric of the traced run.
    let snapshots = checkpoint_restore::<E>(workload, &input, 1, 0.0)?;
    let resumed_ok = snapshots.resumed_digest == quality.digest;
    if !resumed_ok {
        eprintln!(
            "{}: restored run ended on {} != reference {}",
            workload.name, snapshots.resumed_digest, quality.digest
        );
    }

    let accuracies: Vec<f64> = quality.accuracy.iter().map(|(_, accuracy)| *accuracy).collect();
    let accuracy_mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    let accuracy_min = accuracies.iter().copied().fold(f64::INFINITY, f64::min);
    // Nothing is shed when capacity is unbounded, so every output must equal
    // the reference execution's exactly.
    let unshed_ok = !input.unshed || accuracy_min == 1.0;
    if !unshed_ok {
        eprintln!("{}: unshed run scored accuracy {accuracy_min} < 1", workload.name);
    }

    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("throughput_pps", input.packets as f64 / undisturbed_s);
    metrics.set("bin_p50_us", median(&bin_us));
    metrics.set("bin_p95_us", bin_p95_us);
    metrics.set("accuracy_mean", accuracy_mean);
    metrics.set("accuracy_min", accuracy_min);

    let detail = Value::object([
        ("setups", Value::from(setup_s.len() as u64)),
        ("passes", Value::from(good.len() as u64)),
        ("bins", Value::from(input.bins as u64)),
        ("packets", Value::from(input.packets)),
        ("nstr_bytes", Value::from(input.bytes.len() as u64)),
        ("digest", Value::from(quality.digest.to_string())),
        ("whole_pass_pps_q1", Value::from(whole_q1)),
        ("whole_pass_pps_median", Value::from(whole_median)),
        ("whole_pass_pps_q3", Value::from(whole_q3)),
        ("drop_fraction", Value::from(quality.drop_fraction)),
        ("snapshot_bytes", Value::from(snapshots.snapshot.len() as u64)),
        ("bins_over_limit", Value::from(over_limit)),
    ]);
    Ok(Outcome {
        correct: failed == 0 && resumed_ok && unshed_ok && metrics.all_finite(),
        attempted,
        failed,
        metrics,
        detail,
    })
}
