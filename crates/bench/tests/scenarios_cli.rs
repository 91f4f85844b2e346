//! Process-level hygiene tests for the `scenarios` binary and an
//! end-to-end checkpoint/resume equivalence check through the corpus
//! helpers.
//!
//! The parsing rules themselves are unit-tested in `netshed_bench::cli`;
//! these tests prove the binary actually wires them up: unknown
//! subcommands and flags exit nonzero with usage on stderr, `--help`
//! prints usage on stdout and exits zero, and a checkpoint written by one
//! process restores in another to the exact digest of the uninterrupted
//! run.

use netshed_bench::corpus::{
    checkpoint_run, corpus_capacity, corpus_config, digest_run, resume_run,
};
use netshed_monitor::{Monitor, Strategy};
use netshed_trace::scenario::builtin;
use std::process::Command;

fn scenarios(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
        .args(args)
        .output()
        .expect("scenarios binary runs")
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage_on_stderr() {
    let output = scenarios(&["frobnicate"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command"), "stderr was: {stderr}");
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");
    assert!(output.stdout.is_empty(), "errors must not pollute stdout");
}

#[test]
fn unknown_flag_exits_nonzero_with_usage_on_stderr() {
    let output = scenarios(&["verify", "--frobnicate"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--frobnicate"), "stderr was: {stderr}");
    assert!(stderr.contains("usage:"), "stderr was: {stderr}");
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["help"][..],
        &["run", "--help"][..],
        &["checkpoint", "-h"][..],
        &["help", "resume"][..],
    ] {
        let output = scenarios(args);
        assert!(output.status.success(), "`{args:?}` should exit zero");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("usage:"), "`{args:?}` stdout was: {stdout}");
        assert!(output.stderr.is_empty(), "help must not write to stderr");
    }
}

#[test]
fn invalid_flag_values_are_rejected() {
    let output = scenarios(&["verify", "--workers", "0"]);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--workers"), "stderr was: {stderr}");
}

#[test]
fn checkpoint_resume_equals_the_uninterrupted_run() {
    let scenario = builtin("ddos-spike").expect("builtin scenario");
    let batches = scenario.generate().expect("builtins are valid");
    let strategy = Strategy::from_name("mmfs_pkt").expect("known strategy");
    let capacity = corpus_capacity(&batches);
    let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
    let at = (non_empty / 2).max(1);
    for workers in [1usize, 4] {
        let config = corpus_config(strategy, capacity, workers);
        let uninterrupted =
            digest_run::<Monitor>(&batches, config.clone()).expect("uninterrupted run");
        let snapshot = checkpoint_run::<Monitor>(&batches, config.clone(), at).expect("checkpoint");
        let resumed = resume_run::<Monitor>(&snapshot, &batches, config).expect("resume");
        assert_eq!(resumed, uninterrupted, "resumed digest diverged at {workers} worker(s)");
    }
}

#[test]
fn checkpoint_resume_round_trips_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("netshed-cli-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("ddos-spike.mmfs_pkt.nsck");
    let out_str = out.to_str().expect("utf-8 temp path");

    let checkpointed = scenarios(&["checkpoint", "ddos-spike", "mmfs_pkt", "--out", out_str]);
    assert!(
        checkpointed.status.success(),
        "checkpoint failed: {}",
        String::from_utf8_lossy(&checkpointed.stderr)
    );
    assert!(out.exists(), "checkpoint file written");

    let resumed = scenarios(&["resume", "ddos-spike", "mmfs_pkt", "--from", out_str]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    // The final digest prints as a manifest row the CI job can compare
    // against GOLDEN.digests textually.
    assert!(
        stdout.contains("ddos-spike mmfs_pkt "),
        "resume stdout should carry a manifest row, was: {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
