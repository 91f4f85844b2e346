//! The `experiments` binary under the `netshed_bench::cli` contract: an
//! unknown experiment id, an unknown flag, or a flag value that is missing
//! or does not parse exits nonzero with the usage on stderr — before any
//! experiment runs — instead of printing a note and running at the
//! defaults, and so does a `--batches` below the minimum an experiment
//! declares; `list` and `--help` exit zero.

use netshed_bench::cli::{parse_experiments_args, CliError, ExperimentsCommand};
use netshed_bench::{DEFAULT_BATCHES, DEFAULT_SCALE};
use std::process::Command;

/// Ids with the smallest `--batches` each accepts.
const KNOWN: [(&str, usize); 3] = [("fig2_2", 10), ("tab4_1", 20), ("fig5_4", 20)];
const KNOWN_IDS: [&str; 3] = ["fig2_2", "tab4_1", "fig5_4"];

fn parse(args: &[&str]) -> Result<ExperimentsCommand, CliError> {
    let args: Vec<String> = args.iter().map(ToString::to_string).collect();
    parse_experiments_args(&args, &KNOWN)
}

fn run(ids: &[&str], batches: usize, scale: f64, seed: u64) -> ExperimentsCommand {
    ExperimentsCommand::Run {
        ids: ids.iter().map(ToString::to_string).collect(),
        batches,
        scale,
        seed,
    }
}

#[test]
fn no_arguments_and_list_describe_the_experiments() {
    assert_eq!(parse(&[]).expect("parse"), ExperimentsCommand::List);
    assert_eq!(parse(&["list"]).expect("parse"), ExperimentsCommand::List);
    assert_eq!(parse(&["--help"]).expect("parse"), ExperimentsCommand::Help);
    assert_eq!(parse(&["tab4_1", "-h"]).expect("parse"), ExperimentsCommand::Help);
}

#[test]
fn ids_and_flags_are_collected_in_any_order() {
    assert_eq!(
        parse(&["tab4_1"]).expect("parse"),
        run(&["tab4_1"], DEFAULT_BATCHES, DEFAULT_SCALE, 42)
    );
    assert_eq!(
        parse(&["--batches", "120", "tab4_1", "--seed", "7", "fig2_2", "--scale", "0.25"])
            .expect("parse"),
        run(&["tab4_1", "fig2_2"], 120, 0.25, 7)
    );
    assert_eq!(
        parse(&["all", "--batches", "60"]).expect("parse"),
        run(&KNOWN_IDS, 60, DEFAULT_SCALE, 42)
    );
}

#[test]
fn unknown_ids_and_flags_are_errors_with_the_usage() {
    for (args, culprit) in [
        (&["no_such_id"][..], "no_such_id"),
        (&["tab4_1", "no_such_id"][..], "no_such_id"),
        // `list` and `all` are commands, not ids to mix with others.
        (&["tab4_1", "all"][..], "all"),
        (&["list", "tab4_1"][..], "list"),
        (&["tab4_1", "--frobnicate"][..], "--frobnicate"),
    ] {
        let err = parse(args).expect_err("must not parse");
        assert!(err.message.contains(culprit), "{args:?}: {}", err.message);
        assert!(err.usage.starts_with("usage: experiments"), "{args:?}: {}", err.usage);
    }
}

#[test]
fn flag_values_are_validated_not_defaulted() {
    for (args, culprit) in [
        (&["tab4_1", "--batches", "abc"][..], "abc"),
        (&["tab4_1", "--batches", "0"][..], "\"0\""),
        (&["tab4_1", "--batches"][..], "--batches requires a value"),
        (&["tab4_1", "--scale", "fast"][..], "fast"),
        (&["tab4_1", "--scale", "-1"][..], "-1"),
        (&["tab4_1", "--scale", "NaN"][..], "NaN"),
        (&["tab4_1", "--seed", "-3"][..], "-3"),
        (&["tab4_1", "--seed"][..], "--seed requires a value"),
    ] {
        let err = parse(args).expect_err("must not parse");
        assert!(err.message.contains(culprit), "{args:?}: {}", err.message);
        assert!(err.usage.starts_with("usage: experiments"), "{args:?}: {}", err.usage);
    }
}

#[test]
fn a_run_too_short_for_an_experiment_is_an_error_naming_it() {
    for (args, culprit) in [
        (&["tab4_1", "--batches", "19"][..], "\"tab4_1\" needs --batches >= 20, got 19"),
        // The first id that cannot run at the size is named, `all` included.
        (&["fig2_2", "fig5_4", "--batches", "12"][..], "\"fig5_4\" needs --batches >= 20"),
        (&["all", "--batches", "5"][..], "\"fig2_2\" needs --batches >= 10"),
    ] {
        let err = parse(args).expect_err("must not parse");
        assert!(err.message.contains(culprit), "{args:?}: {}", err.message);
        assert!(err.usage.starts_with("usage: experiments"), "{args:?}: {}", err.usage);
    }
    assert_eq!(
        parse(&["tab4_1", "--batches", "20"]).expect("parse"),
        run(&["tab4_1"], 20, DEFAULT_SCALE, 42)
    );
}

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn the_binary_exits_nonzero_with_usage_on_stderr_and_runs_nothing() {
    for args in [
        &["no_such_id"][..],
        &["tab4_1", "--batches", "abc"][..],
        &["--frobnicate"][..],
        // Below a declared minimum: `fig4_5_6` used to slice-panic here and
        // `fig6_8` to die on an empty calibration slice, after running every
        // id before them.
        &["all", "--batches", "30"][..],
        &["fig6_8", "--batches", "3"][..],
    ] {
        let output = experiments(args);
        assert!(!output.status.success(), "`{args:?}` must exit nonzero");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: experiments"), "`{args:?}` stderr was: {stderr}");
        assert!(output.stdout.is_empty(), "`{args:?}` must not run or print anything");
    }
}

#[test]
fn the_binary_lists_and_helps_on_stdout_and_exits_zero() {
    for (args, expected) in [
        (&[][..], "tab4_1"),
        (&["list"][..], "tab4_1"),
        // `list` says what each id does with `--batches`.
        (&["list"][..], "min 80, max 400"),
        (&["list"][..], "fixed 300"),
        (&["--help"][..], "usage: experiments"),
    ] {
        let output = experiments(args);
        assert!(output.status.success(), "`{args:?}` should exit zero");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(expected), "`{args:?}` stdout was: {stdout}");
        assert!(output.stderr.is_empty(), "`{args:?}` must not write to stderr");
    }
}

#[test]
fn the_binary_prints_tables_and_claim_verdicts_and_exits_zero_when_they_are_as_expected() {
    let output = experiments(&["tab5_2", "--batches", "40", "--scale", "0.1"]);
    assert!(output.status.success(), "tab5_2's claim holds, so the exit code is zero");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for expected in ["-- accuracy per query and strategy --", "Table 5.2 / Section 5.3", "holds"] {
        assert!(stdout.contains(expected), "stdout lacks {expected:?}: {stdout}");
    }
}
