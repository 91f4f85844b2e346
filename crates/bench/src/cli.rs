//! Argument parsing for the `scenarios` and `experiments` binaries, as a
//! library.
//!
//! The parsers live here rather than in `src/bin/` so their contract is
//! unit-testable: unknown subcommands, experiment ids and flags fail with a
//! nonzero exit and a usage string on stderr, a flag value that does not
//! parse is an error rather than a silent default, flags a command does not
//! accept are rejected rather than silently dropped, excess positional
//! arguments are errors, and `--help` works everywhere (global and
//! per-command). The binaries are thin dispatchers over
//! [`parse_scenarios_args`] and [`parse_experiments_args`].

use std::path::PathBuf;

/// A fully parsed `scenarios` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenariosCommand {
    /// `scenarios [list]` — describe the built-in scenarios.
    List,
    /// `scenarios record [--dir D]` — re-record traces, pin digests.
    Record {
        /// Corpus directory.
        dir: PathBuf,
    },
    /// `scenarios verify [--dir D] [--workers N]`.
    Verify {
        /// Corpus directory.
        dir: PathBuf,
        /// Worker count for the digest runs.
        workers: usize,
    },
    /// `scenarios run <scenario> [--strategy S] [--predictor P]
    /// [--workers N]`.
    Run {
        /// Scenario name.
        name: String,
        /// Strategy name; the default is the paper's headline configuration.
        strategy: Option<String>,
        /// Predictor name; the default is the paper's MLR+FCBF method.
        predictor: Option<String>,
        /// Worker count.
        workers: usize,
    },
    /// `scenarios checkpoint <scenario> <strategy> [--at BIN] [--out F]
    /// [--workers N]` — run a scenario to a midpoint under a daemon and
    /// write the `.nsck` checkpoint.
    Checkpoint {
        /// Scenario name.
        name: String,
        /// Strategy name.
        strategy: String,
        /// Non-empty bins to process before checkpointing; the default is
        /// half the scenario.
        at: Option<u64>,
        /// Output path of the `.nsck` file.
        out: PathBuf,
        /// Worker count.
        workers: usize,
    },
    /// `scenarios resume <scenario> <strategy> --from F [--dir D]
    /// [--workers N]` — restore a `.nsck` checkpoint in this (fresh) process
    /// and finish the run; with `--dir`, verify the final digest against the
    /// corpus manifest.
    Resume {
        /// Scenario name.
        name: String,
        /// Strategy name.
        strategy: String,
        /// Path of the `.nsck` file to restore.
        from: PathBuf,
        /// When set, verify the final digest against `GOLDEN.digests` in
        /// this directory.
        dir: Option<PathBuf>,
        /// Worker count.
        workers: usize,
    },
    /// `scenarios inspect <file.nstr>` — describe a recording frame by
    /// frame without decoding it.
    Inspect {
        /// Path of the `.nstr` file.
        file: PathBuf,
    },
    /// `scenarios help [command]` / `scenarios --help` /
    /// `scenarios <command> --help`.
    Help {
        /// The command to describe; `None` prints the global usage.
        topic: Option<String>,
    },
}

/// A parse failure: the message goes to stderr, followed by the usage of
/// the closest command (or the global usage), and the process exits
/// nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// What was wrong with the invocation.
    pub message: String,
    /// The usage text to print after the message.
    pub usage: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n{}", self.message, self.usage)
    }
}

const COMMAND_NAMES: [&str; 8] =
    ["list", "record", "verify", "run", "checkpoint", "resume", "inspect", "help"];

/// The usage text for one `scenarios` command (or for the `experiments`
/// binary, topic `"experiments"`), or the global `scenarios` synopsis for
/// `None` / unknown names.
pub fn usage(topic: Option<&str>) -> String {
    match topic {
        Some("experiments") => format!(
            "usage: experiments [list | all | <id>...] [--batches N] [--scale S] [--seed N]\n\
             regenerate the paper's tables and figures (`list`, the default, describes the ids)\n  \
               --batches N  batches per experiment, >= each id's minimum in `list` (default {})\n  \
               --scale S    traffic scale relative to the paper's traces, > 0 (default {})\n  \
               --seed N     trace and monitor seed (default {DEFAULT_EXPERIMENT_SEED})",
            crate::DEFAULT_BATCHES,
            crate::DEFAULT_SCALE,
        ),
        Some("list") => "usage: scenarios list\n\
             describe the built-in scenarios (bins, links, packets, phases)"
            .to_string(),
        Some("record") => "usage: scenarios record [--dir DIR]\n\
             regenerate every scenario, write the .nstr recordings and pin the\n\
             per-strategy digests into GOLDEN.digests (default --dir corpus)"
            .to_string(),
        Some("verify") => "usage: scenarios verify [--dir DIR] [--workers N]\n\
             replay the committed corpus and fail loudly on any digest drift"
            .to_string(),
        Some("run") => "usage: scenarios run <scenario> [--strategy NAME] [--predictor NAME] \
             [--workers N]\n\
             replay one scenario under one strategy and print its digest;\n\
             --predictor swaps the prediction method (e.g. robust_mlr_fcbf\n\
             to compare the hardened predictor against the mlr_fcbf default)"
            .to_string(),
        Some("checkpoint") => {
            "usage: scenarios checkpoint <scenario> <strategy> [--at BIN] [--out FILE] [--workers N]\n\
             run the scenario under a service daemon to a midpoint (default: half\n\
             the non-empty bins) and write the .nsck checkpoint (default --out\n\
             <scenario>.<strategy>.nsck)"
                .to_string()
        }
        Some("resume") => {
            "usage: scenarios resume <scenario> <strategy> --from FILE [--dir DIR] [--workers N]\n\
             restore a .nsck checkpoint in this process, replay the remaining bins\n\
             and print the final digest as a manifest row; with --dir, also verify\n\
             it against GOLDEN.digests and fail on drift"
                .to_string()
        }
        Some("inspect") => "usage: scenarios inspect <file.nstr>\n\
             print a .nstr recording's header (version, time bin) and, per\n\
             frame, its bin index, packets, body and payload bytes and whether\n\
             its checksum holds, without decoding a packet"
            .to_string(),
        Some("help") => "usage: scenarios help [command]".to_string(),
        _ => "usage: scenarios <command> [options]\n\
              commands:\n  \
                list        describe the built-in scenarios\n  \
                record      re-record traces and pin golden digests\n  \
                verify      replay the corpus against the manifest\n  \
                run         digest one scenario / strategy pair\n  \
                checkpoint  run to a midpoint and write a .nsck snapshot\n  \
                resume      restore a .nsck snapshot and finish the run\n  \
                inspect     describe a .nstr recording frame by frame\n  \
                help        show this message or one command's usage\n\
              run `scenarios <command> --help` for details on one command"
            .to_string(),
    }
}

fn error(command: Option<&str>, message: impl Into<String>) -> CliError {
    CliError { message: message.into(), usage: usage(command) }
}

/// The next argument, parsed as the value of `flag`. A missing value, one
/// that does not parse or one `accept` rejects is an error naming what the
/// flag requires — a typo like `--workers two` must not silently run at the
/// default.
fn flag_value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    command: Option<&str>,
    flag: &str,
    requires: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    let value = args.next().ok_or_else(|| error(command, format!("{flag} requires a value")))?;
    value
        .parse()
        .ok()
        .filter(accept)
        .ok_or_else(|| error(command, format!("{flag} requires {requires}, got {value:?}")))
}

/// Parses the argument vector of the `scenarios` binary (without the
/// program name). See the module docs for the contract.
pub fn parse_scenarios_args(args: &[String]) -> Result<ScenariosCommand, CliError> {
    let mut dir: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut strategy: Option<String> = None;
    let mut predictor: Option<String> = None;
    let mut at: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let mut from: Option<PathBuf> = None;
    let mut help = false;
    let mut positional: Vec<String> = Vec::new();

    // The command name is the first positional; flag errors want to cite it
    // even when they occur before it is reached.
    let hint = args.iter().find(|a| !a.starts_with('-')).map(String::as_str);

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| -> Result<String, CliError> {
            iter.next().cloned().ok_or_else(|| error(hint, format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "--dir" => dir = Some(PathBuf::from(value_of("--dir")?)),
            "--out" => out = Some(PathBuf::from(value_of("--out")?)),
            "--from" => from = Some(PathBuf::from(value_of("--from")?)),
            "--strategy" => strategy = Some(value_of("--strategy")?),
            "--predictor" => predictor = Some(value_of("--predictor")?),
            "--workers" => {
                let at_least_one = |count: &usize| *count >= 1;
                workers = Some(flag_value(&mut iter, hint, arg, "a count >= 1", at_least_one)?);
            }
            "--at" => at = Some(flag_value(&mut iter, hint, arg, "a bin count", |_| true)?),
            other if other.starts_with('-') => {
                return Err(error(hint, format!("unknown flag {other:?}")))
            }
            other => positional.push(other.to_string()),
        }
    }

    let command = positional.first().map_or("list", String::as_str).to_string();
    let command = command.as_str();
    if help {
        // `scenarios --help` and `scenarios <command> --help` both land
        // here; an unknown topic still prints the global usage.
        let topic = positional.first().cloned();
        return Ok(ScenariosCommand::Help { topic });
    }
    if !COMMAND_NAMES.contains(&command) {
        return Err(error(
            None,
            format!("unknown command {command:?} (use {})", COMMAND_NAMES.join(" | ")),
        ));
    }

    // Flags a command ignores are rejected, not silently dropped — a caller
    // passing `record … --workers 4` must not believe four workers ran.
    let applicable: &[&str] = match command {
        "list" | "inspect" | "help" => &[],
        "record" => &["--dir"],
        "verify" => &["--dir", "--workers"],
        "run" => &["--workers", "--strategy", "--predictor"],
        "checkpoint" => &["--at", "--out", "--workers"],
        "resume" => &["--from", "--dir", "--workers"],
        _ => unreachable!("command membership checked above"),
    };
    for (flag, set) in [
        ("--dir", dir.is_some()),
        ("--workers", workers.is_some()),
        ("--strategy", strategy.is_some()),
        ("--predictor", predictor.is_some()),
        ("--at", at.is_some()),
        ("--out", out.is_some()),
        ("--from", from.is_some()),
    ] {
        if set && !applicable.contains(&flag) {
            return Err(error(Some(command), format!("{flag} does not apply to `{command}`")));
        }
    }

    let expect_positionals = |count: usize, what: &str| -> Result<(), CliError> {
        match positional.len().cmp(&count) {
            std::cmp::Ordering::Less => {
                Err(error(Some(command), format!("`{command}` requires {what}")))
            }
            std::cmp::Ordering::Greater => {
                Err(error(Some(command), format!("unexpected argument {:?}", positional[count])))
            }
            std::cmp::Ordering::Equal => Ok(()),
        }
    };

    let workers = workers.unwrap_or(1);
    match command {
        "list" => {
            if !positional.is_empty() {
                expect_positionals(1, "no arguments")?;
            }
            Ok(ScenariosCommand::List)
        }
        "record" => {
            expect_positionals(1, "no arguments")?;
            Ok(ScenariosCommand::Record { dir: dir.unwrap_or_else(|| PathBuf::from("corpus")) })
        }
        "verify" => {
            expect_positionals(1, "no arguments")?;
            Ok(ScenariosCommand::Verify {
                dir: dir.unwrap_or_else(|| PathBuf::from("corpus")),
                workers,
            })
        }
        "run" => {
            expect_positionals(2, "a scenario name")?;
            Ok(ScenariosCommand::Run { name: positional[1].clone(), strategy, predictor, workers })
        }
        "checkpoint" => {
            expect_positionals(3, "a scenario name and a strategy name")?;
            let name = positional[1].clone();
            let strategy = positional[2].clone();
            let out = out.unwrap_or_else(|| PathBuf::from(format!("{name}.{strategy}.nsck")));
            Ok(ScenariosCommand::Checkpoint { name, strategy, at, out, workers })
        }
        "resume" => {
            expect_positionals(3, "a scenario name and a strategy name")?;
            let Some(from) = from else {
                return Err(error(Some("resume"), "`resume` requires --from <file.nsck>"));
            };
            Ok(ScenariosCommand::Resume {
                name: positional[1].clone(),
                strategy: positional[2].clone(),
                from,
                dir,
                workers,
            })
        }
        "inspect" => {
            expect_positionals(2, "a .nstr file")?;
            Ok(ScenariosCommand::Inspect { file: PathBuf::from(&positional[1]) })
        }
        "help" => {
            if positional.len() > 2 {
                expect_positionals(2, "at most one command name")?;
            }
            Ok(ScenariosCommand::Help { topic: positional.get(1).cloned() })
        }
        _ => unreachable!("command membership checked above"),
    }
}

/// A fully parsed `experiments` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentsCommand {
    /// `experiments [list]` — describe every experiment id.
    List,
    /// `experiments <id>... | all [--batches N] [--scale S] [--seed N]`.
    Run {
        /// The experiments to run, in order (`all` expands to every id).
        ids: Vec<String>,
        /// Batches per experiment.
        batches: usize,
        /// Traffic scale relative to the paper's traces.
        scale: f64,
        /// Trace and monitor seed.
        seed: u64,
    },
    /// `experiments --help`.
    Help,
}

/// The `--seed` default of the `experiments` binary.
pub const DEFAULT_EXPERIMENT_SEED: u64 = 42;

/// Parses the argument vector of the `experiments` binary (without the
/// program name) against the ids it can run, each with the smallest
/// `--batches` at which its tables mean something. See the module docs for
/// the contract.
pub fn parse_experiments_args(
    args: &[String],
    known: &[(&str, usize)],
) -> Result<ExperimentsCommand, CliError> {
    let command = Some("experiments");
    let mut batches = crate::DEFAULT_BATCHES;
    let mut scale = crate::DEFAULT_SCALE;
    let mut seed = DEFAULT_EXPERIMENT_SEED;
    let mut ids: Vec<String> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(ExperimentsCommand::Help),
            "--batches" => {
                let at_least_one = |count: &usize| *count >= 1;
                batches = flag_value(&mut iter, command, arg, "a count >= 1", at_least_one)?;
            }
            "--scale" => {
                let positive = |factor: &f64| factor.is_finite() && *factor > 0.0;
                scale = flag_value(&mut iter, command, arg, "a factor > 0", positive)?;
            }
            "--seed" => {
                seed = flag_value(&mut iter, command, arg, "an unsigned integer", |_| true)?;
            }
            other if other.starts_with('-') => {
                return Err(error(command, format!("unknown flag {other:?}")))
            }
            other => ids.push(other.to_string()),
        }
    }

    match ids.first().map(String::as_str) {
        None | Some("list") if ids.len() <= 1 => return Ok(ExperimentsCommand::List),
        Some("all") if ids.len() == 1 => {
            ids = known.iter().map(|(id, _)| (*id).to_string()).collect();
        }
        _ => {}
    }
    for id in &ids {
        // A run too short for an experiment is refused, not run into a
        // degenerate table (or a slice panic) halfway through `all`.
        match known.iter().find(|(known_id, _)| known_id == id) {
            None => {
                return Err(error(command, format!("unknown experiment id {id:?} (use `list`)")))
            }
            Some((_, min)) if batches < *min => {
                let message = format!("experiment {id:?} needs --batches >= {min}, got {batches}");
                return Err(error(command, message));
            }
            Some(_) => {}
        }
    }
    Ok(ExperimentsCommand::Run { ids, batches, scale, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ScenariosCommand, CliError> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_scenarios_args(&args)
    }

    #[test]
    fn no_arguments_defaults_to_list() {
        assert_eq!(parse(&[]).expect("parse"), ScenariosCommand::List);
        assert_eq!(parse(&["list"]).expect("parse"), ScenariosCommand::List);
    }

    #[test]
    fn unknown_subcommands_fail_with_the_global_usage() {
        let err = parse(&["frobnicate"]).expect_err("unknown command");
        assert!(err.message.contains("frobnicate"));
        assert!(err.usage.contains("usage: scenarios <command>"));
    }

    #[test]
    fn unknown_flags_fail_instead_of_becoming_positionals() {
        let err = parse(&["verify", "--frobnicate"]).expect_err("unknown flag");
        assert!(err.message.contains("--frobnicate"));
        let err = parse(&["-x"]).expect_err("unknown short flag");
        assert!(err.message.contains("-x"));
    }

    #[test]
    fn excess_positionals_are_rejected() {
        let err = parse(&["verify", "extra"]).expect_err("excess positional");
        assert!(err.message.contains("extra"));
        let err = parse(&["run", "ddos-spike", "surplus"]).expect_err("excess positional");
        assert!(err.message.contains("surplus"));
    }

    #[test]
    fn inapplicable_flags_are_rejected_per_command() {
        let err = parse(&["run", "ddos-spike", "--dir", "corpus"]).expect_err("inapplicable");
        assert!(err.message.contains("--dir"));
        assert!(err.message.contains("run"));
        let err = parse(&["record", "--workers", "4"]).expect_err("inapplicable");
        assert!(err.message.contains("--workers"));
        let err = parse(&["checkpoint", "a", "b", "--strategy", "x"]).expect_err("inapplicable");
        assert!(err.message.contains("--strategy"));
    }

    #[test]
    fn flag_values_are_validated() {
        assert!(parse(&["verify", "--workers"]).expect_err("missing").message.contains("value"));
        assert!(parse(&["verify", "--workers", "two"])
            .expect_err("bad count")
            .message
            .contains("two"));
        assert!(parse(&["verify", "--workers", "0"]).is_err());
        assert!(parse(&["checkpoint", "a", "b", "--at", "soon"])
            .expect_err("bad bin")
            .message
            .contains("soon"));
    }

    #[test]
    fn help_works_everywhere() {
        assert_eq!(parse(&["--help"]).expect("parse"), ScenariosCommand::Help { topic: None });
        assert_eq!(parse(&["-h"]).expect("parse"), ScenariosCommand::Help { topic: None });
        assert_eq!(
            parse(&["verify", "--help"]).expect("parse"),
            ScenariosCommand::Help { topic: Some("verify".into()) }
        );
        assert_eq!(
            parse(&["help", "resume"]).expect("parse"),
            ScenariosCommand::Help { topic: Some("resume".into()) }
        );
        // --help wins even when the rest of the invocation is incomplete.
        assert_eq!(
            parse(&["checkpoint", "--help"]).expect("parse"),
            ScenariosCommand::Help { topic: Some("checkpoint".into()) }
        );
    }

    #[test]
    fn every_command_has_usage_text() {
        for name in COMMAND_NAMES {
            let text = usage(Some(name));
            assert!(text.starts_with("usage: scenarios"), "{name}: {text}");
        }
        assert!(usage(None).contains("checkpoint"));
        assert!(usage(None).contains("resume"));
    }

    #[test]
    fn verify_collects_its_flags() {
        assert_eq!(
            parse(&["verify", "--dir", "elsewhere", "--workers", "4"]).expect("parse"),
            ScenariosCommand::Verify { dir: PathBuf::from("elsewhere"), workers: 4 }
        );
    }

    #[test]
    fn checkpoint_defaults_its_output_path() {
        assert_eq!(
            parse(&["checkpoint", "ddos-spike", "mmfs_pkt"]).expect("parse"),
            ScenariosCommand::Checkpoint {
                name: "ddos-spike".into(),
                strategy: "mmfs_pkt".into(),
                at: None,
                out: PathBuf::from("ddos-spike.mmfs_pkt.nsck"),
                workers: 1,
            }
        );
        assert_eq!(
            parse(&["checkpoint", "s", "x", "--at", "12", "--out", "cp.nsck", "--workers", "2"])
                .expect("parse"),
            ScenariosCommand::Checkpoint {
                name: "s".into(),
                strategy: "x".into(),
                at: Some(12),
                out: PathBuf::from("cp.nsck"),
                workers: 2,
            }
        );
    }

    #[test]
    fn inspect_takes_exactly_one_file_and_no_flags() {
        assert_eq!(
            parse(&["inspect", "corpus/ddos-spike.nstr"]).expect("parse"),
            ScenariosCommand::Inspect { file: PathBuf::from("corpus/ddos-spike.nstr") }
        );
        assert!(parse(&["inspect"]).expect_err("no file").message.contains(".nstr file"));
        assert!(parse(&["inspect", "a.nstr", "b.nstr"]).is_err());
        assert!(parse(&["inspect", "a.nstr", "--workers", "2"]).is_err());
        assert!(usage(None).contains("inspect"));
    }

    #[test]
    fn resume_requires_its_source_file() {
        let err = parse(&["resume", "ddos-spike", "mmfs_pkt"]).expect_err("missing --from");
        assert!(err.message.contains("--from"));
        assert!(err.usage.contains("resume"));
        assert_eq!(
            parse(&["resume", "s", "x", "--from", "cp.nsck", "--dir", "corpus"]).expect("parse"),
            ScenariosCommand::Resume {
                name: "s".into(),
                strategy: "x".into(),
                from: PathBuf::from("cp.nsck"),
                dir: Some(PathBuf::from("corpus")),
                workers: 1,
            }
        );
    }

    #[test]
    fn run_collects_its_predictor_and_strategy() {
        assert_eq!(
            parse(&[
                "run",
                "bm-mimicry",
                "--strategy",
                "eq_srates",
                "--predictor",
                "robust_mlr_fcbf"
            ])
            .expect("parse"),
            ScenariosCommand::Run {
                name: "bm-mimicry".into(),
                strategy: Some("eq_srates".into()),
                predictor: Some("robust_mlr_fcbf".into()),
                workers: 1,
            }
        );
        // --predictor only applies to `run`.
        let err = parse(&["verify", "--predictor", "slr"]).expect_err("inapplicable");
        assert!(err.message.contains("--predictor"));
    }

    #[test]
    fn run_requires_a_scenario() {
        let err = parse(&["run"]).expect_err("missing scenario");
        assert!(err.message.contains("requires"));
        assert!(err.usage.contains("run <scenario>"));
    }
}
