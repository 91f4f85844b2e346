//! The repo benchmark: `.nstr` bytes → daemon → digest, end to end and layer
//! by layer. See `README.md` beside the manifest.
//!
//! ```text
//! netshed-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! netshed-benchmark run [--seed <n>] [--seconds <s>] [--runs <k>] [--only <name>]
//!                       [--smoke] [--out <file>]
//! netshed-benchmark compare <a.json> <b.json>
//! netshed-benchmark describe
//! ```
//!
//! The first form is one run of one workload, as the driver starts it: the
//! last line of standard output is the result object. `run` does every
//! workload untraced then traced and writes one document; `compare` holds
//! two such documents against the declared bounds; `describe` prints what
//! `BENCHMARK.json` must hold, from the tables in `metrics.rs` and
//! `workloads.rs`.

mod alloc;
mod compare;
mod json;
mod measure;
mod metrics;
mod span;
mod stats;
mod sut;
mod traced;
mod workloads;

use json::Value;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Seed of a run when none is given. Seed 2 is held out: nobody tunes
/// against it, and a later performance claim must also hold there.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// What every run is told.
pub struct Options {
    /// Traffic seed; the monitor's own seed is fixed.
    pub seed: u64,
    /// How long the timed passes go on for.
    pub seconds: f64,
    /// One pass over a tenth of the bins: same output shape, seconds to run,
    /// numbers good for nothing but checking the plumbing.
    pub smoke: bool,
}

/// `--flag value` pairs and bare `--smoke`, after the subcommand.
struct Flags {
    values: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self> {
        let mut flags = Flags { values: Vec::new(), smoke: false, positional: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.smoke = true,
                Some(name) => {
                    let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(flag, _)| flag == name).map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("--{name}: cannot read {text:?}").into())
            }
        }
    }

    fn options(&self) -> Result<Options> {
        let seconds: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}").into());
        }
        Ok(Options { seed: self.number("seed", DEFAULT_SEED)?, seconds, smoke: self.smoke })
    }

    fn only_known(&self, known: &[&str]) -> Result<()> {
        match self.values.iter().find(|(flag, _)| !known.contains(&flag.as_str())) {
            Some((flag, _)) => Err(format!("unknown flag --{flag}").into()),
            None => Ok(()),
        }
    }
}

fn workload_named(name: &str) -> Result<&'static Workload> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", ")).into()
    })
}

/// The driver's form: one workload, one run, the result object last.
fn single(flags: &Flags) -> Result<ExitCode> {
    flags.only_known(&["workload", "seed", "seconds", "trace"])?;
    if let Some(stray) = flags.positional.first() {
        return Err(format!("unexpected argument {stray:?}").into());
    }
    let workload = workload_named(flags.get("workload").ok_or("--workload is required")?)?;
    let options = flags.options()?;
    let outcome = match flags.get("trace").unwrap_or("0") {
        "0" => measure::run(workload, &options)?,
        "1" => traced::run(workload, &options)?,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
    };
    for (name, unit, value) in outcome.metrics.iter() {
        eprintln!("{:<44} {value:>18.6} {unit}", format!("{}/{name}", workload.name));
    }
    println!(
        "{}",
        Value::object([
            ("correct", Value::from(outcome.correct)),
            ("attempted", Value::from(outcome.attempted)),
            ("failed", Value::from(outcome.failed)),
            ("metrics", outcome.metrics.to_json()),
        ])
        .to_compact()
    );
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload untraced (`--runs` times) and then traced once; prints
/// every metric by name with its unit and writes one document.
fn run_all(flags: &Flags) -> Result<ExitCode> {
    flags.only_known(&["seed", "seconds", "runs", "only", "out"])?;
    let options = flags.options()?;
    let runs: usize = flags.number("runs", 1)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let selected: Vec<&Workload> = match flags.get("only") {
        Some(name) => vec![workload_named(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let out = match flags.get("out") {
        Some(path) => std::path::PathBuf::from(path),
        None => traced::out_dir().join("benchmark.json"),
    };

    let mut correct = true;
    let mut documents = Vec::new();
    for workload in selected {
        let mut values: Vec<(String, &'static str, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut detail = Value::Null;
        for run in 0..runs {
            eprintln!("{}: untraced run {}/{runs} ...", workload.name, run + 1);
            let outcome = measure::run(workload, &options)?;
            correct &= outcome.correct;
            attempted += outcome.attempted;
            failed += outcome.failed;
            for (name, unit, value) in outcome.metrics.iter() {
                match values.iter_mut().find(|(known, _, _)| known == name) {
                    Some((_, _, list)) => list.push(value),
                    None => values.push((name.to_string(), unit, vec![value])),
                }
            }
            detail = outcome.detail;
        }
        eprintln!("{}: traced run ...", workload.name);
        let layers = traced::run(workload, &options)?;
        correct &= layers.correct;

        for (name, unit, list) in &values {
            println!(
                "{:<44} {:>18.6} {unit}",
                format!("{}/{name}", workload.name),
                stats::median(list)
            );
        }
        for (name, unit, value) in layers.metrics.iter() {
            println!("{:<44} {value:>18.6} {unit}", format!("{}/{name}", workload.name));
        }
        println!(
            "{:<44} attempted {attempted}, failed {failed}; traced: attempted {}, failed {}",
            workload.name, layers.attempted, layers.failed
        );

        let end_to_end = Value::object(values.into_iter().map(|(name, unit, list)| {
            let list = Value::Array(list.into_iter().map(Value::from).collect());
            (name, Value::object([("unit", Value::from(unit)), ("values", list)]))
        }));
        documents.push((
            workload.name,
            Value::object([
                ("attempted", Value::from(attempted)),
                ("failed", Value::from(failed)),
                ("end_to_end", end_to_end),
                ("detail", detail),
                ("per_layer", layers.metrics.to_json()),
                ("traced_detail", layers.detail),
            ]),
        ));
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let document = Value::object([
        ("benchmark", Value::from("netshed .nstr -> daemon -> digest")),
        ("seed", Value::from(options.seed)),
        ("seconds", Value::from(options.seconds)),
        ("runs", Value::from(runs as u64)),
        ("smoke", Value::from(options.smoke)),
        ("host_cores", Value::from(cores as u64)),
        ("correct", Value::from(correct)),
        ("workloads", Value::object(documents)),
    ]);
    if let Some(parent) = out.parent().filter(|parent| !parent.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&out, document.to_pretty())?;
    eprintln!("wrote {}", out.display());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `BENCHMARK.json`, from the tables this program measures by. The file at
/// the repo root is this output; a unit test holds the two together.
fn describe() -> Value {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|item| Value::from(*item)).collect());
    let workloads = WORKLOADS.iter().map(|workload| {
        Value::object([("name", Value::from(workload.name)), ("why", Value::from(workload.why))])
    });
    let end_to_end = metrics::END_TO_END.iter().map(|metric| {
        Value::object([
            ("name", Value::from(metric.name)),
            ("unit", Value::from(metric.unit)),
            ("better", Value::from(metric.better.as_str())),
            ("bound", Value::from(metric.bound)),
        ])
    });
    let per_layer = metrics::per_layer().into_iter().map(|(name, unit, better)| {
        Value::object([
            ("name", Value::from(name)),
            ("unit", Value::from(unit)),
            ("better", Value::from(better.as_str())),
        ])
    });
    Value::object([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::from(DEFAULT_SECONDS)),
        ("workloads", Value::Array(workloads.collect())),
        ("end_to_end", Value::Array(end_to_end.collect())),
        ("per_layer", Value::Array(per_layer.collect())),
    ])
}

fn dispatch(args: &[String]) -> Result<ExitCode> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags::parse(&args[1..])?),
        Some("compare") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only_known(&[])?;
            match flags.positional.as_slice() {
                [a, b] => compare::run(a, b),
                _ => Err("compare takes two files: compare <a.json> <b.json>".into()),
            }
        }
        Some("describe") => {
            print!("{}", describe().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single(&Flags::parse(args)?),
        _ => Err("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | run … | compare <a> <b> | describe".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("netshed-benchmark: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` is outside this package, so the driver's copy and the
    /// tables here can drift; this is the check that they have not.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(crate::json::parse(&text).expect("BENCHMARK.json parses"), super::describe());
    }
}
