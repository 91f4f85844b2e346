//! The parallel execution plane: scoped worker dispatch for the per-bin
//! query work.
//!
//! The per-query work of a bin — the cost prediction, the uncharged
//! shadow-twin measurement of oracle-style policies, and the tail (flow
//! sampling, sampled feature re-extraction, `Query::process_batch`, noise
//! application and `Predictor::observe`) — is embarrassingly parallel: every
//! task touches only its own query's state plus shared read-only data (the
//! post-drop [`BatchView`](netshed_trace::BatchView), the full-batch feature
//! vector). [`run_tasks`] fans those tasks out over a scoped pool of
//! `std::thread` workers; the monitor merges the results back in
//! registration order, so the output stream is bit-identical whatever the
//! worker count (see DESIGN.md, "Execution plane").
//!
//! Everything order-sensitive — capture-buffer accounting, full-batch
//! feature extraction, the policy decision, the RNG-driven packet sampling
//! and the measurement-noise draws — stays on the caller's thread; a task
//! receives its inputs (including its pre-drawn
//! [`NoiseDraw`](netshed_queries::NoiseDraw)) fully determined.
//!
//! With `workers == 1` (the default) no thread is ever spawned: tasks run
//! inline on the caller's thread in task order, which *is* the historical
//! sequential path.

use std::sync::Mutex;

/// Highest accepted worker count (a sanity cap, not a tuning hint).
pub const MAX_WORKERS: usize = 256;

/// Runs every task exactly once across `workers` scoped threads.
///
/// Tasks are pulled from a shared queue in order, so an expensive task never
/// serialises the cheap ones behind it. The call returns when all tasks have
/// completed. With `workers <= 1` (or fewer than two tasks) the tasks run
/// inline on the caller's thread — no thread is spawned, no synchronisation
/// is touched.
///
/// Determinism: the function imposes no ordering on *effects* because each
/// task may only touch state it exclusively owns (`&mut T`) plus `Sync`
/// shared inputs; results stay in the task they belong to, so callers merging
/// in index order observe the same stream regardless of `workers`.
pub(crate) fn run_tasks<T, F>(workers: usize, tasks: &mut [T], run: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let worker_count = workers.clamp(1, MAX_WORKERS).min(tasks.len());
    if worker_count <= 1 {
        tasks.iter_mut().for_each(run);
        return;
    }

    let queue = Mutex::new(tasks.iter_mut());
    let drain = || loop {
        // Hold the queue lock only for the pop, never across a task.
        // lint:allow(no-unwrap): a poisoned queue means a worker panicked mid-task; propagating the panic is the only sound continuation
        let next = queue.lock().expect("task queue poisoned").next();
        let Some(task) = next else { break };
        run(task);
    };
    std::thread::scope(|scope| {
        // The caller participates, so a dispatch spawns only `workers - 1`
        // threads — at four workers that is three spawns, not four, and the
        // pool is never idle waiting for the calling thread.
        // `drain` captures only shared references, so it is `Copy` and each
        // spawn gets its own handle onto the same queue.
        for _ in 1..worker_count {
            scope.spawn(drain);
        }
        drain();
    });
}

/// Cumulative execution-plane telemetry of a [`Monitor`](crate::Monitor) or
/// a [`ShardedMonitor`](crate::ShardedMonitor): what was observed, nothing
/// modelled.
///
/// Every processed bin contributes its wall time, split by the one clock
/// pair taken around each dispatch into the time spent inside dispatches and
/// the time spent outside them on the caller's thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Bins processed.
    pub bins: u64,
    /// Wall nanoseconds spent outside dispatches, on the caller's thread
    /// (admission, extraction, decision, plan, merge).
    pub sequential_ns: u64,
    /// Wall nanoseconds spent inside dispatches — start of the fan-out to
    /// the last task's completion, whatever the worker count.
    pub dispatch_ns: u64,
    /// Tasks handed to the execution plane.
    pub dispatched_tasks: u64,
}

impl ExecStats {
    /// Folds one bin: its wall time outside and inside its dispatches, and
    /// the number of tasks those dispatches walked.
    pub(crate) fn fold_bin(&mut self, sequential_ns: u64, dispatch_ns: u64, tasks: usize) {
        self.bins += 1;
        self.sequential_ns += sequential_ns;
        self.dispatch_ns += dispatch_ns;
        self.dispatched_tasks += tasks as u64;
    }

    /// Fraction of the measured wall time spent inside dispatches. On a
    /// 1-worker run this is the share of the bin that more workers could
    /// overlap at all — the Amdahl ceiling of the execution plane.
    pub fn parallel_fraction(&self) -> f64 {
        let total = self.sequential_ns + self.dispatch_ns;
        if total == 0 {
            return 0.0;
        }
        self.dispatch_ns as f64 / total as f64
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
    count_from_env("NETSHED_THREADS", &DIAGNOSED)
}

/// Parses the `NETSHED_SHARDS` environment override: a shard count in
/// `[1, MAX_WORKERS]`, with the same fallback and once-per-process
/// rejection diagnostic as [`workers_from_env`].
pub(crate) fn shards_from_env() -> usize {
    static DIAGNOSED: std::sync::Once = std::sync::Once::new();
    count_from_env("NETSHED_SHARDS", &DIAGNOSED)
}

/// Reads and parses one count-valued environment override, emitting the
/// rejection diagnostic (at most once per process per variable, gated by the
/// caller's `Once`).
fn count_from_env(var: &str, diagnosed: &'static std::sync::Once) -> usize {
    let raw = std::env::var(var).ok();
    let (count, rejected) = parse_count(raw.as_deref());
    if let Some(rejected) = rejected {
        diagnosed.call_once(|| {
            eprintln!(
                "netshed: ignoring invalid {var}={rejected:?} \
                 (expected an integer in 1..={MAX_WORKERS}); falling back to 1"
            );
        });
    }
    count
}

/// The pure parsing rule behind [`workers_from_env`] / [`shards_from_env`]:
/// the effective count, plus — when a present, non-empty value was rejected —
/// the offending raw string for the diagnostic. Unset and empty (after
/// trimming) values are the documented "disabled" spelling and are not
/// flagged.
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
            run_tasks(workers, &mut tasks, |task| *task += 1);
            assert_eq!(tasks, vec![1; 7], "workers = {workers}");
        }
    }

    #[test]
    fn run_tasks_handles_empty_and_single_task_sets() {
        let mut none: Vec<u32> = Vec::new();
        run_tasks(4, &mut none, |_| unreachable!());
        let mut one = vec![10u32];
        run_tasks(4, &mut one, |task| *task *= 2);
        assert_eq!(one, vec![20]);
    }

    #[test]
    fn parallel_workers_really_run_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        // Two tasks that can only finish if two workers run them at once.
        let barrier = Barrier::new(2);
        let hits = AtomicUsize::new(0);
        let mut tasks = vec![(); 2];
        run_tasks(2, &mut tasks, |()| {
            barrier.wait();
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn exec_stats_accumulate_what_was_measured() {
        let mut stats = ExecStats::default();
        assert_eq!(stats.parallel_fraction(), 0.0, "no bins yet");
        stats.fold_bin(100, 200, 4);
        stats.fold_bin(50, 250, 6);
        assert_eq!(stats.bins, 2);
        assert_eq!(stats.sequential_ns, 150);
        assert_eq!(stats.dispatch_ns, 450);
        assert_eq!(stats.dispatched_tasks, 10);
        assert!((stats.parallel_fraction() - 450.0 / 600.0).abs() < 1e-12);
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
