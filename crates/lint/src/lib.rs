//! netshed-lint: machine-checks the workspace determinism contract.
//!
//! The whole load-shedding pipeline promises that worker count is a pure
//! wall-clock knob: replaying the same trace must produce bit-identical
//! output at any parallelism. That only holds while three conventions do —
//! RNG draws happen in the sequential plan phase, floating-point merges fold
//! in registration order, and iterated state lives in order-stable maps.
//! This crate turns those conventions (plus the typed-error contract) into
//! named, suppressible static-analysis rules over a hand-rolled lexer:
//!
//! | rule | contract clause |
//! |------|-----------------|
//! | `det-map` | iterated state uses `DetHashMap`/`DetHashSet`/BTree maps |
//! | `plan-phase-rng` | RNG lives in the plan phase / trace generation |
//! | `telemetry-clock` | wall clocks feed telemetry only |
//! | `merge-order` | f64 folds never run over hash-map iteration order |
//! | `no-unwrap` | library code returns `NetshedError`, never panics |
//! | `hot-path-alloc` | designated hot-path modules never allocate per bin |
//! | `fused-float` | bit-exact float crates never fuse a multiply-add |
//! | `unreached-pub` | a library `pub` item is reached by non-test code |
//!
//! Violations are suppressed inline with
//! `// lint:allow(<rule>): <justification>` — the justification is
//! mandatory. See DESIGN.md "Determinism contract" for the full mapping
//! from each rule to the golden-corpus failure mode it prevents.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use report::{Diagnostic, Report};
pub use rules::{lint_files, lint_source, Config, BAD_SUPPRESSION, RULE_NAMES};

use std::io;
use std::path::Path;

/// Lints every first-party source file under `root` with the given policy;
/// the benches, the benchmark package and the examples are read as users of
/// the library's `pub` items but not linted.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let read = |files: Vec<walk::SourceFile>| -> io::Result<Vec<(String, String)>> {
        files
            .into_iter()
            .map(|file| Ok((file.relative, std::fs::read_to_string(&file.absolute)?)))
            .collect()
    };
    let linted = read(walk::workspace_sources(root)?)?;
    let readers = read(walk::reader_sources(root)?)?;
    Ok(Report {
        diagnostics: lint_files(&linted, &readers, config),
        files_scanned: linted.into_iter().map(|(path, _)| path).collect(),
    })
}
