//! Manage the golden-replay conformance corpus and its service-plane runs.
//!
//! ```sh
//! cargo run -p netshed-bench --release --bin scenarios -- list
//! cargo run -p netshed-bench --release --bin scenarios -- record [--dir corpus]
//! cargo run -p netshed-bench --release --bin scenarios -- verify [--dir corpus] [--workers N]
//! cargo run -p netshed-bench --release --bin scenarios -- run <name> [--strategy mmfs_pkt] [--predictor mlr_fcbf] [--workers N]
//! cargo run -p netshed-bench --release --bin scenarios -- checkpoint <name> <strategy> [--at BIN] [--out FILE]
//! cargo run -p netshed-bench --release --bin scenarios -- resume <name> <strategy> --from FILE [--dir corpus]
//! cargo run -p netshed-bench --release --bin scenarios -- inspect corpus/ddos-spike.nstr
//! ```
//!
//! `record` regenerates every built-in scenario, writes the `.nstr`
//! recordings and pins the per-strategy digests into `GOLDEN.digests` —
//! run it (and commit the result) only when an intentional change moves the
//! golden outputs. `verify` replays the committed corpus and fails loudly,
//! naming each drifted stream, when any digest moved; this is what the CI
//! golden-corpus job runs.
//!
//! `checkpoint` and `resume` exercise the service plane: the scenario runs
//! under a daemon (queries registered through the control channel) to a
//! midpoint, the `.nsck` checkpoint is written, and a *separate process*
//! restores it and finishes the run. `resume --dir corpus` verifies the
//! final digest against the pinned manifest row, which is what the CI
//! checkpoint-restore job loops over.
//!
//! `inspect` prints a `.nstr` recording's header and one line per frame
//! (bin, packets, body and payload bytes, checksum verdict) without decoding
//! a packet; it exits nonzero when a checksum fails or the walk stops early.
//!
//! Argument parsing lives in [`netshed_bench::cli`] so its hygiene rules
//! (unknown flags and subcommands fail with usage on stderr, `--help`
//! everywhere) are unit-tested.

use netshed_bench::cli::{parse_scenarios_args, usage, ScenariosCommand};
use netshed_bench::corpus::{
    all_strategies, checkpoint_run, compute_golden, corpus_capacity, corpus_config, diff_digests,
    digest_run, format_manifest, inspect_trace, parse_manifest, resume_run, GoldenEntry,
    MANIFEST_NAME, TRACE_EXTENSION,
};
use netshed_monitor::{Monitor, PredictorKind, Strategy};
use netshed_trace::scenario::{builtin, builtins};
use netshed_trace::{decode_batches_shared, encode_batches, Batch, Bytes};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_scenarios_args(&args) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("{}", error.message);
            eprintln!("{}", error.usage);
            return ExitCode::FAILURE;
        }
    };
    match command {
        ScenariosCommand::Help { topic } => {
            println!("{}", usage(topic.as_deref()));
            ExitCode::SUCCESS
        }
        ScenariosCommand::List => list(),
        ScenariosCommand::Record { dir } => record(&dir),
        ScenariosCommand::Verify { dir, workers } => verify(&dir, workers),
        ScenariosCommand::Run { name, strategy, predictor, workers } => {
            run_one(&name, strategy.as_deref(), predictor.as_deref(), workers)
        }
        ScenariosCommand::Checkpoint { name, strategy, at, out, workers } => {
            checkpoint(&name, &strategy, at, &out, workers)
        }
        ScenariosCommand::Resume { name, strategy, from, dir, workers } => {
            resume(&name, &strategy, &from, dir.as_deref(), workers)
        }
        ScenariosCommand::Inspect { file } => inspect(&file),
    }
}

fn inspect(file: &Path) -> ExitCode {
    let bytes = match std::fs::read(file) {
        Ok(bytes) => bytes,
        Err(error) => {
            eprintln!("cannot read {}: {error}", file.display());
            return ExitCode::FAILURE;
        }
    };
    match inspect_trace(Bytes::from(bytes)) {
        Ok(inspection) => {
            print!("{}", inspection.frames);
            if inspection.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("{}: {error}", file.display());
            ExitCode::FAILURE
        }
    }
}

/// Resolves a (scenario, strategy) pair or explains what exists.
fn resolve(name: &str, strategy_name: &str) -> Option<(Vec<Batch>, Strategy)> {
    let Some(scenario) = builtin(name) else {
        eprintln!("unknown scenario {name:?} (see `scenarios list`)");
        return None;
    };
    let Some(strategy) = Strategy::from_name(strategy_name) else {
        eprintln!("unknown strategy {strategy_name:?}; known:");
        for (known, _) in all_strategies() {
            eprintln!("  {known}");
        }
        return None;
    };
    Some((scenario.generate().expect("builtins are valid"), strategy))
}

fn list() -> ExitCode {
    println!("{:<16} {:>5} {:>6} {:>7}  phases", "scenario", "bins", "links", "pkts");
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let packets: usize = batches.iter().map(Batch::len).sum();
        let phases: Vec<String> = scenario
            .links()
            .iter()
            .flat_map(netshed_trace::Link::phases)
            .map(|p| format!("{}({})", p.name(), p.duration_bins()))
            .collect();
        println!(
            "{:<16} {:>5} {:>6} {:>7}  {}",
            scenario.name(),
            scenario.total_bins(),
            scenario.links().len(),
            packets,
            phases.join(" → ")
        );
    }
    ExitCode::SUCCESS
}

fn record(dir: &Path) -> ExitCode {
    if let Err(error) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {error}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut manifest = Vec::new();
    for scenario in builtins() {
        let batches = scenario.generate().expect("builtins are valid");
        let bytes = match encode_batches(&batches, scenario.bin_duration_us()) {
            Ok(bytes) => bytes,
            Err(error) => {
                eprintln!("{}: encode failed: {error}", scenario.name());
                return ExitCode::FAILURE;
            }
        };
        let path = dir.join(format!("{}.{TRACE_EXTENSION}", scenario.name()));
        if let Err(error) = std::fs::write(&path, &bytes) {
            eprintln!("cannot write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        let entries = match compute_golden(&scenario, &batches) {
            Ok(entries) => entries,
            Err(error) => {
                eprintln!("{}: digest run failed: {error}", scenario.name());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "recorded {:<16} {:>3} bins, {:>7} bytes, {} strategies pinned",
            scenario.name(),
            batches.len(),
            bytes.len(),
            entries.len()
        );
        manifest.extend(entries);
    }
    let manifest_path = dir.join(MANIFEST_NAME);
    if let Err(error) = std::fs::write(&manifest_path, format_manifest(&manifest)) {
        eprintln!("cannot write {}: {error}", manifest_path.display());
        return ExitCode::FAILURE;
    }
    println!("pinned {} digests into {}", manifest.len(), manifest_path.display());
    ExitCode::SUCCESS
}

fn verify(dir: &Path, workers: usize) -> ExitCode {
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "cannot read {}: {error} (run `scenarios record` first)",
                manifest_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let pinned = match parse_manifest(&text) {
        Ok(entries) => entries,
        Err(error) => {
            eprintln!("{}: {error}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut drift: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for scenario in builtins() {
        let path = dir.join(format!("{}.{TRACE_EXTENSION}", scenario.name()));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(error) => {
                drift.push(format!("{}: missing recording ({error})", scenario.name()));
                continue;
            }
        };
        let recorded = match decode_batches_shared(&Bytes::from(bytes)) {
            Ok(batches) => batches,
            Err(error) => {
                drift.push(format!("{}: recording does not decode: {error}", scenario.name()));
                continue;
            }
        };
        // The recording must still equal what the generator produces today —
        // otherwise the digests below would silently pin drifted traffic.
        let generated = scenario.generate().expect("builtins are valid");
        if recorded != generated {
            drift.push(format!(
                "{}: generator output no longer matches the committed recording \
                 (re-record the corpus if this change is intentional)",
                scenario.name()
            ));
            continue;
        }
        let capacity = corpus_capacity(&recorded);
        for (name, strategy) in all_strategies() {
            let pinned_entry: Option<&GoldenEntry> =
                pinned.iter().find(|e| e.scenario == scenario.name() && e.strategy == name);
            let Some(entry) = pinned_entry else {
                drift.push(format!(
                    "{} / {name}: no pinned digest in the manifest",
                    scenario.name()
                ));
                continue;
            };
            match digest_run::<Monitor>(&recorded, corpus_config(strategy, capacity, workers)) {
                Ok(fresh) => {
                    drift.extend(diff_digests(scenario.name(), &name, entry.digest, fresh));
                    checked += 1;
                }
                Err(error) => {
                    drift.push(format!("{} / {name}: run failed: {error}", scenario.name()));
                }
            }
        }
    }
    // Stale rows cut the other way: a manifest entry for a renamed or
    // removed scenario (or strategy) would otherwise pass unnoticed.
    let scenario_names: Vec<String> = builtins().iter().map(|s| s.name().to_string()).collect();
    let strategy_names: Vec<String> = all_strategies().into_iter().map(|(n, _)| n).collect();
    for entry in &pinned {
        if !scenario_names.contains(&entry.scenario) {
            drift.push(format!(
                "{} / {}: manifest row for a scenario that no longer exists",
                entry.scenario, entry.strategy
            ));
        } else if !strategy_names.contains(&entry.strategy) {
            drift.push(format!(
                "{} / {}: manifest row for a strategy that no longer exists",
                entry.scenario, entry.strategy
            ));
        }
    }
    if drift.is_empty() {
        println!(
            "golden corpus conformant: {checked} (scenario, strategy) digests verified at \
             {workers} worker(s)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("golden corpus DRIFT ({} problems):", drift.len());
        for line in &drift {
            eprintln!("  {line}");
        }
        eprintln!(
            "if the drift is an intentional output change, regenerate with \
             `cargo run -p netshed-bench --release --bin scenarios -- record` and commit"
        );
        ExitCode::FAILURE
    }
}

fn run_one(
    name: &str,
    strategy_name: Option<&str>,
    predictor_name: Option<&str>,
    workers: usize,
) -> ExitCode {
    let Some((batches, strategy)) = resolve(name, strategy_name.unwrap_or("mmfs_pkt")) else {
        return ExitCode::FAILURE;
    };
    let named = predictor_name.map(|name| (name, PredictorKind::from_name(name)));
    let predictor = match named {
        None => PredictorKind::MlrFcbf,
        Some((_, Some(kind))) => kind,
        Some((requested, None)) => {
            eprintln!("unknown predictor {requested:?}; known:");
            for kind in PredictorKind::ALL {
                eprintln!("  {}", kind.name());
            }
            return ExitCode::FAILURE;
        }
    };
    let capacity = corpus_capacity(&batches);
    let config = corpus_config(strategy, capacity, workers).with_predictor(predictor);
    match digest_run::<Monitor>(&batches, config) {
        Ok(digest) => {
            println!(
                "{name} / {} / {}: capacity {capacity:.0} cycles/bin over {} bins at {workers} \
                 worker(s)",
                strategy.name(),
                predictor.name(),
                batches.len()
            );
            println!("{digest}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{name}: run failed: {error}");
            ExitCode::FAILURE
        }
    }
}

fn checkpoint(
    name: &str,
    strategy_name: &str,
    at: Option<u64>,
    out: &Path,
    workers: usize,
) -> ExitCode {
    let Some((batches, strategy)) = resolve(name, strategy_name) else {
        return ExitCode::FAILURE;
    };
    let capacity = corpus_capacity(&batches);
    let non_empty = batches.iter().filter(|b| !b.is_empty()).count() as u64;
    let at = at.unwrap_or(non_empty / 2).max(1);
    if at >= non_empty {
        eprintln!("--at {at} does not land mid-scenario: {name} has {non_empty} non-empty bins");
        return ExitCode::FAILURE;
    }
    match checkpoint_run::<Monitor>(&batches, corpus_config(strategy, capacity, workers), at) {
        Ok(bytes) => {
            if let Err(error) = std::fs::write(out, &bytes) {
                eprintln!("cannot write {}: {error}", out.display());
                return ExitCode::FAILURE;
            }
            println!(
                "checkpointed {name} / {strategy_name} after {at} of {non_empty} non-empty bins: \
                 {} bytes into {}",
                bytes.len(),
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{name} / {strategy_name}: checkpoint failed: {error}");
            ExitCode::FAILURE
        }
    }
}

fn resume(
    name: &str,
    strategy_name: &str,
    from: &Path,
    verify_dir: Option<&Path>,
    workers: usize,
) -> ExitCode {
    let Some((batches, strategy)) = resolve(name, strategy_name) else {
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(from) {
        Ok(bytes) => bytes,
        Err(error) => {
            eprintln!("cannot read {}: {error}", from.display());
            return ExitCode::FAILURE;
        }
    };
    let config = corpus_config(strategy, corpus_capacity(&batches), workers);
    let digest = match resume_run::<Monitor>(&bytes, &batches, config) {
        Ok(digest) => digest,
        Err(error) => {
            eprintln!("{name} / {strategy_name}: resume failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    // Print the manifest-row rendering so the result lines up with
    // GOLDEN.digests textually.
    let row =
        GoldenEntry { scenario: name.to_string(), strategy: strategy_name.to_string(), digest };
    print!(
        "{}",
        format_manifest(std::slice::from_ref(&row))
            .lines()
            .last()
            .map(|l| format!("{l}\n"))
            .unwrap_or_default()
    );
    let Some(dir) = verify_dir else {
        return ExitCode::SUCCESS;
    };
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {}: {error}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    };
    let pinned = match parse_manifest(&text) {
        Ok(entries) => entries,
        Err(error) => {
            eprintln!("{}: {error}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(entry) = pinned.iter().find(|e| e.scenario == name && e.strategy == strategy_name)
    else {
        eprintln!("{name} / {strategy_name}: no pinned digest in {}", manifest_path.display());
        return ExitCode::FAILURE;
    };
    let drift = diff_digests(name, strategy_name, entry.digest, digest);
    if drift.is_empty() {
        println!(
            "{name} / {strategy_name}: resumed run matches the pinned digest at {workers} \
             worker(s)"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("checkpoint/restore DRIFT ({} problems):", drift.len());
        for line in &drift {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}
