//! The parallel execution plane: scoped worker dispatch for the per-bin
//! query work, and the one clock that times the bin's stages.
//!
//! The per-query work of a bin (`bin.rs`: one predict task and one execute
//! task per query, lanes included) is embarrassingly parallel: every task
//! touches only its own query's state plus shared read-only data.
//! `run_tasks` fans those tasks out over a scoped pool of `std::thread`
//! workers; the monitor merges the results back in registration order, so
//! the output stream is bit-identical whatever the worker count (see
//! DESIGN.md, "Execution plane"). With `workers == 1` (the default) no
//! thread is ever spawned: tasks run inline on the caller's thread in task
//! order, which *is* the historical sequential path.
//!
//! This is also the only place an engine reads a clock: a `StageClock`
//! laps once per [`Stage`] into a [`StageStats`] that is reported and never
//! read back.

use std::sync::Mutex;
use std::time::Instant;

/// Highest accepted worker count (a sanity cap, not a tuning hint).
pub const MAX_WORKERS: usize = 256;

/// Runs every task exactly once across `workers` scoped threads.
///
/// Tasks are pulled from a shared queue in order, so an expensive task never
/// serialises the cheap ones behind it. The call returns when all tasks have
/// completed. With `workers <= 1` the tasks run inline on the caller's
/// thread — no thread is spawned, no synchronisation is touched; callers cap
/// `workers` at their task count, so a lone task runs inline too.
///
/// Every thread is lent one element of `scratch` for the whole dispatch —
/// the caller's thread `scratch[0]`, each spawned worker the next one — and
/// hands it to each task it runs: no lock, no thread-local, no allocation.
/// At most `scratch.len()` (≥ 1) threads run.
///
/// Determinism: the function imposes no ordering on *effects* because each
/// task may only touch state it exclusively owns (`&mut T`) plus `Sync`
/// shared inputs — and a scratch that carries nothing from one task to the
/// next, since the schedule decides which one serves which task; results stay
/// in the task they belong to, so callers merging in index order observe the
/// same stream regardless of `workers`.
pub(crate) fn run_tasks<'a, T, S, F>(
    workers: usize,
    scratch: &mut [S],
    tasks: impl Iterator<Item = &'a mut T> + Send,
    run: F,
) where
    T: Send + 'a,
    S: Send,
    F: Fn(&mut T, &mut S) + Sync,
{
    let (mine, others) = scratch.split_at_mut(1);
    let spawned = (workers.clamp(1, MAX_WORKERS) - 1).min(others.len());
    if spawned == 0 {
        tasks.for_each(|task| run(task, &mut mine[0]));
        return;
    }

    let queue = Mutex::new(tasks);
    let drain = |scratch: &mut S| loop {
        // Hold the queue lock only for the pop, never across a task.
        // lint:allow(no-unwrap): a poisoned queue means a worker panicked mid-task; propagating the panic is the only sound continuation
        let next = queue.lock().expect("task queue poisoned").next();
        let Some(task) = next else { break };
        run(task, scratch);
    };
    std::thread::scope(|scope| {
        // The caller participates, so a dispatch spawns only `workers - 1`
        // threads — at four workers that is three spawns, not four, and the
        // pool is never idle waiting for the calling thread.
        // `drain` captures only shared references, so it is `Copy` and each
        // spawn gets its own handle onto the same queue.
        for scratch in &mut others[..spawned] {
            scope.spawn(move || drain(scratch));
        }
        drain(&mut mine[0]);
    });
}

/// A named stage of a bin, in execution order (`bin.rs`). Every engine runs
/// these seven, whatever its lane count: lanes shard the execute stage, not
/// the bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Validation, interval roll, capture-buffer drop.
    Admit,
    /// Full-batch feature extraction.
    Extract,
    /// The predict dispatch (shadow twins included, when needed) and its
    /// fold.
    Predict,
    /// Demands, control context, the policy decision.
    Decide,
    /// The plan: penalties, hasher refresh, RNG-drawn samples, noise draws.
    Shed,
    /// The tail dispatch: per query, sample and re-extract, run every lane
    /// instance, feed the predictor.
    Execute,
    /// The merge: enforcement, EWMAs, buffer accounting, the bin's record.
    Account,
}

impl Stage {
    /// Number of stages, the length of [`StageStats::ns`].
    pub const COUNT: usize = 7;
    /// The stages of a bin, in execution order.
    pub const BIN: [Stage; 7] = [
        Stage::Admit,
        Stage::Extract,
        Stage::Predict,
        Stage::Decide,
        Stage::Shed,
        Stage::Execute,
        Stage::Account,
    ];
}

/// Cumulative per-stage wall time of an engine, as its lap clock read it.
/// Telemetry only: it never feeds a decision, a snapshot or a digest, and a
/// fixed array costs no allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Bins processed.
    pub bins: u64,
    /// Tasks dispatched: one per query per dispatch, two dispatches a bin —
    /// `2·Q` for `Q` registered queries, whatever the lane count or policy.
    pub tasks: u64,
    /// Wall nanoseconds per stage, indexed by `Stage as usize`.
    pub ns: [u64; Stage::COUNT],
}

impl StageStats {
    /// Wall nanoseconds charged to `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Wall nanoseconds of the bins measured: the seven slots summed.
    pub fn bin_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `stage`'s share of [`bin_ns`](Self::bin_ns) (0 before the first bin).
    pub fn share(&self, stage: Stage) -> f64 {
        match self.bin_ns() {
            0 => 0.0,
            bin_ns => self.ns(stage) as f64 / bin_ns as f64,
        }
    }

    /// Share of the bin spent in the dispatched stages, predict and execute.
    /// On a 1-thread run this is the part of the bin more threads could
    /// overlap at all: the plane's Amdahl ceiling.
    pub fn parallel_fraction(&self) -> f64 {
        self.share(Stage::Predict) + self.share(Stage::Execute)
    }
}

/// The one clock of the execution plane: [`start`](Self::start) opens a bin
/// and every [`lap`](Self::lap) charges the wall time since the previous
/// reading to a stage — `n + 1` clock reads for `n` stages, all taken here.
#[derive(Debug)]
pub(crate) struct StageClock {
    pub(crate) stats: StageStats,
    last: Instant,
}

impl StageClock {
    pub(crate) fn new() -> Self {
        Self { stats: StageStats::default(), last: Instant::now() }
    }

    /// Opens a bin. One abandoned on an error before a lap leaves no trace.
    pub(crate) fn start(&mut self) {
        self.last = Instant::now();
    }

    /// Charges the time since the previous reading to `stage`.
    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.stats.ns[stage as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// Parses the `NETSHED_THREADS` environment override: a worker count in
/// `[1, MAX_WORKERS]`. Unset, empty or out-of-domain values fall back to 1
/// (the sequential path) rather than failing construction, so an exported
/// stray value cannot break unrelated runs — but a *rejected* value is
/// reported once per process on stderr, so a typo'd export no longer
/// silently serialises a production run.
pub(crate) fn workers_from_env() -> usize {
    static DIAGNOSED: std::sync::Once = std::sync::Once::new();
    let raw = std::env::var("NETSHED_THREADS").ok();
    let (count, rejected) = parse_count(raw.as_deref());
    if let Some(rejected) = rejected {
        DIAGNOSED.call_once(|| {
            eprintln!(
                "netshed: ignoring invalid NETSHED_THREADS={rejected:?} \
                 (expected an integer in 1..={MAX_WORKERS}); falling back to 1"
            );
        });
    }
    count
}

/// The pure parsing rule behind [`workers_from_env`]: the effective count,
/// plus — when a present, non-empty value was rejected — the offending raw
/// string for the diagnostic. Unset and empty (after trimming) values are the
/// documented "disabled" spelling and are not flagged.
fn parse_count(raw: Option<&str>) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (1, None);
    };
    if raw.trim().is_empty() {
        return (1, None);
    }
    match raw.trim().parse::<usize>().ok().filter(|count| (1..=MAX_WORKERS).contains(count)) {
        Some(count) => (count, None),
        None => (1, Some(raw.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_runs_every_task_exactly_once_at_any_worker_count() {
        for workers in [1, 2, 4, 9] {
            let mut tasks: Vec<u32> = vec![0; 7];
            run_tasks(workers, &mut [(); MAX_WORKERS], tasks.iter_mut(), |task, ()| *task += 1);
            assert_eq!(tasks, vec![1; 7], "workers = {workers}");
        }
    }

    #[test]
    fn run_tasks_handles_empty_and_single_task_sets() {
        let mut none: Vec<u32> = Vec::new();
        run_tasks(4, &mut [(); 4], none.iter_mut(), |_, ()| unreachable!());
        let mut one = vec![10u32];
        run_tasks(4, &mut [(); 4], one.iter_mut(), |task, ()| *task *= 2);
        assert_eq!(one, vec![20]);
    }

    #[test]
    fn parallel_workers_really_run_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        // Two tasks that can only finish if two workers run them at once.
        let barrier = Barrier::new(2);
        let hits = AtomicUsize::new(0);
        let mut tasks = [(); 2];
        run_tasks(2, &mut [(); 2], tasks.iter_mut(), |(), ()| {
            barrier.wait();
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stage_stats_share_the_bin_they_measured() {
        let mut solo = StageStats::default();
        assert_eq!(solo.share(Stage::Extract), 0.0, "no bins yet");
        assert_eq!(solo.parallel_fraction(), 0.0, "no bins yet");
        for (slot, stage) in Stage::BIN.iter().enumerate() {
            solo.ns[*stage as usize] = 100 * (slot as u64 + 1);
        }
        assert_eq!(solo.bin_ns(), 2800);
        assert!((solo.share(Stage::Extract) - 200.0 / 2800.0).abs() < 1e-12);
        // Predict (300) and execute (600) are the dispatched stages.
        assert!((solo.parallel_fraction() - 900.0 / 2800.0).abs() < 1e-12);
    }

    #[test]
    fn the_lap_clock_charges_each_interval_to_exactly_one_stage() {
        let mut clock = StageClock::new();
        clock.start();
        clock.lap(Stage::Admit);
        clock.lap(Stage::Account);
        let stats = clock.stats;
        let charged: u64 = stats.ns.iter().sum();
        assert_eq!(charged, stats.ns(Stage::Admit) + stats.ns(Stage::Account));
        // A bin abandoned before its first lap leaves no trace.
        clock.start();
        assert_eq!(clock.stats, stats);
    }

    #[test]
    fn env_override_accepts_counts_and_rejects_junk() {
        // Accepted values parse cleanly, with no diagnostic.
        assert_eq!(parse_count(None), (1, None), "unset falls back to sequential");
        assert_eq!(parse_count(Some("4")), (4, None));
        assert_eq!(parse_count(Some("  8 ")), (8, None), "surrounding whitespace is tolerated");
        assert_eq!(parse_count(Some(&MAX_WORKERS.to_string())), (MAX_WORKERS, None));
        // Empty (or blank) is the documented "disabled" spelling: fall back
        // silently, exactly like unset.
        assert_eq!(parse_count(Some("")), (1, None));
        assert_eq!(parse_count(Some("   ")), (1, None));
        // Junk falls back to 1 *and* surfaces the rejected value for the
        // once-per-process diagnostic.
        for junk in ["0", "-3", "1.5", "four", "many", &format!("{}", MAX_WORKERS + 1)] {
            assert_eq!(
                parse_count(Some(junk)),
                (1, Some(junk.to_string())),
                "junk value {junk:?} must fall back to 1 and be diagnosed"
            );
        }
        // The diagnostic echoes the raw value, not the trimmed one.
        assert_eq!(parse_count(Some(" zero ")), (1, Some(" zero ".to_string())));
    }
}
