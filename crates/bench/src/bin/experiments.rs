//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```sh
//! cargo run -p netshed-bench --release --bin experiments -- list
//! cargo run -p netshed-bench --release --bin experiments -- <experiment-id>
//! cargo run -p netshed-bench --release --bin experiments -- all [--batches N] [--scale S]
//! ```
//!
//! Parse, run, render: the drivers live in `netshed_bench::experiments` and
//! return tables, `netshed_bench::report` lays them out, and each claim the
//! paper attaches to an experiment (`netshed_bench::claims`) is judged after
//! its tables — a verdict that contradicts its recorded expectation makes the
//! exit code nonzero.

use netshed_bench::claims::{claims_of, verdicts};
use netshed_bench::cli::{parse_experiments_args, usage, ExperimentsCommand};
use netshed_bench::experiments::{find, Options, ALL};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<(&str, usize)> = ALL.iter().map(|e| (e.id, e.min)).collect();
    let (ids, options) = match parse_experiments_args(&args, &known) {
        Ok(ExperimentsCommand::Run { ids, batches, scale, seed }) => {
            (ids, Options { batches, scale, seed })
        }
        Ok(ExperimentsCommand::List) => {
            println!("available experiments (id, accepted --batches, paper artefact):\n");
            for experiment in ALL {
                let (id, sizing) = (experiment.id, experiment.sizing());
                println!("  {id:<26} {sizing:<20} {}", experiment.description);
            }
            println!("\nrun them all with: cargo run -p netshed-bench --release --bin experiments -- all");
            return ExitCode::SUCCESS;
        }
        Ok(ExperimentsCommand::Help) => {
            println!("{}", usage(Some("experiments")));
            return ExitCode::SUCCESS;
        }
        Err(error) => {
            eprintln!("{}", error.message);
            eprintln!("{}", error.usage);
            return ExitCode::FAILURE;
        }
    };
    let mut as_expected = true;
    // The parser only lets known ids through, so every lookup hits.
    for experiment in ids.iter().filter_map(|id| find(id)) {
        println!("\n================================================================");
        println!("experiment {}: {}", experiment.id, experiment.description);
        println!("================================================================");
        let tables = experiment.run(&options);
        for table in &tables {
            println!("{table}");
        }
        let (verdict, expected) = verdicts(claims_of(experiment.id), &tables);
        if !verdict.rows.is_empty() {
            println!("{verdict}");
        }
        as_expected &= expected;
    }
    if as_expected {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
