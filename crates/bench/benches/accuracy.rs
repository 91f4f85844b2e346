//! Accuracy trajectory: every experiment's tables at the default size and
//! seed, and every claim of the paper judged on seeds 1, 2 and 3, recorded in
//! `BENCH_accuracy.json` (workspace root, or `$BENCH_OUT` if set). No
//! wall-clock figure enters the file, so it is a pure function of the tree:
//! it is committed, and CI regenerates it and fails on any difference.
//!
//! Run with `cargo bench -p netshed-bench --bench accuracy`; pass
//! `-- --smoke` for the fast shape (the tier-1 test's size and one claim
//! seed — the claims' margins are not meant for traces shorter than that).

use netshed_bench::claims::{claims_of, verdicts};
use netshed_bench::cli::DEFAULT_EXPERIMENT_SEED;
use netshed_bench::experiments::{Options, ALL};
use netshed_bench::report::{num, Report, Table};
use netshed_bench::{DEFAULT_BATCHES, DEFAULT_SCALE};

fn titled(table: Table) -> Report {
    Report::new()
        .cell("title", table.title.clone())
        .cell("note", table.note.clone())
        .table("rows", table)
}

fn main() {
    let smoke = criterion::smoke_mode();
    let (batches, scale, claim_seeds) = if smoke {
        (300, 0.25, &[DEFAULT_EXPERIMENT_SEED][..])
    } else {
        (DEFAULT_BATCHES, DEFAULT_SCALE, &[1, 2, 3][..])
    };
    let options = |seed: u64| Options { batches, scale, seed };

    let experiments = ALL.iter().fold(Report::new(), |report, experiment| {
        let tables = experiment.run(&options(DEFAULT_EXPERIMENT_SEED)).into_iter().map(titled);
        let entry = Report::new().cell("description", experiment.description);
        report.report(experiment.id, entry.list("tables", tables.collect()))
    });
    let mut as_expected = true;
    let claimed = ALL.iter().filter(|experiment| claims_of(experiment.id).next().is_some());
    let claims = claimed.fold(Report::new(), |report, experiment| {
        let judged = claim_seeds.iter().map(|&seed| {
            let (table, expected) =
                verdicts(claims_of(experiment.id), &experiment.run(&options(seed)));
            as_expected &= expected;
            Report::new().cell("seed", seed).extend(titled(table))
        });
        report.list(experiment.id, judged.collect())
    });

    let report = Report::bench("accuracy", smoke)
        .cell("batches", batches)
        .cell("scale", num(scale, 2))
        .cell("seed", DEFAULT_EXPERIMENT_SEED)
        .report("experiments", experiments)
        .report("claims", claims);
    eprint!("{report}");
    report.publish("BENCH_accuracy.json");
    assert!(as_expected, "a claim's verdict contradicts its recorded expectation (see `claims`)");
}
