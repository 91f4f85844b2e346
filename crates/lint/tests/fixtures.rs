//! The committed fixture corpus: every rule proves it fires, proves its
//! suppression works, and proves its clean variant stays silent — with
//! exact `(rule, line, suppressed)` expectations so any drift in the lexer
//! or the rule engine shows up as a readable diff.

use netshed_lint::{lint_source, Config, Diagnostic};

/// Lints a fixture under the strict (no-allowlist) policy and flattens the
/// result to comparable tuples.
fn run(name: &str) -> Vec<(String, u32, bool)> {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("fixture must be readable");
    brief(&lint_source(&format!("fixtures/{name}"), &source, &Config::strict()))
}

fn brief(diagnostics: &[Diagnostic]) -> Vec<(String, u32, bool)> {
    diagnostics.iter().map(|d| (d.rule.clone(), d.line, d.suppressed)).collect()
}

fn expected(spec: &[(&str, u32, bool)]) -> Vec<(String, u32, bool)> {
    spec.iter().map(|(rule, line, suppressed)| ((*rule).to_owned(), *line, *suppressed)).collect()
}

#[test]
fn det_map_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("det_map.rs"),
        expected(&[
            ("det-map", 5, false), // use std::collections::HashMap
            ("det-map", 8, false), // HashMap field
            ("det-map", 9, false), // qualified HashSet field
            ("det-map", 13, true), // alias definition, justified
        ])
    );
}

#[test]
fn plan_phase_rng_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("plan_phase_rng.rs"),
        expected(&[
            ("plan-phase-rng", 4, false), // use rand::rngs::StdRng
            ("plan-phase-rng", 5, false), // Rng + SeedableRng, deduped to one
            ("plan-phase-rng", 8, false), // StdRng field
            ("plan-phase-rng", 14, true), // seed-derived constants, justified
        ])
    );
}

#[test]
fn telemetry_clock_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("telemetry_clock.rs"),
        expected(&[
            ("telemetry-clock", 4, false),  // use std::time::Instant
            ("telemetry-clock", 7, false),  // Instant::now in library code
            ("telemetry-clock", 13, false), // SystemTime::now
            ("telemetry-clock", 18, true),  // telemetry-only read, justified
        ])
    );
}

#[test]
fn merge_order_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("merge_order.rs"),
        expected(&[
            ("merge-order", 5, false),  // .values().sum()
            ("merge-order", 9, false),  // .values().copied().fold(...)
            ("merge-order", 13, false), // .keys().map(...).product()
            ("merge-order", 18, true),  // key-sorted BTreeMap, justified
        ])
    );
}

#[test]
fn no_unwrap_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("no_unwrap.rs"),
        expected(&[
            ("no-unwrap", 5, false),  // .unwrap()
            ("no-unwrap", 9, false),  // .expect("boom")
            ("no-unwrap", 13, false), // Option::unwrap(x) path form
            ("no-unwrap", 19, true),  // documented invariant, justified
        ])
    );
}

#[test]
fn hot_path_alloc_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("hot_path_alloc.rs"),
        expected(&[
            ("hot-path-alloc", 5, false),  // .collect()
            ("hot-path-alloc", 9, false),  // .to_vec()
            ("hot-path-alloc", 13, false), // Vec::new
            ("hot-path-alloc", 23, true),  // once-per-run setup, justified
        ])
    );
}

#[test]
fn fused_float_fires_suppresses_and_stays_clean() {
    assert_eq!(
        run("fused_float.rs"),
        expected(&[
            ("fused-float", 5, false), // a.mul_add(b, c)
            ("fused-float", 9, false), // inside a fold closure
            ("fused-float", 24, true), // telemetry-only, justified
        ])
    );
}

#[test]
fn lexer_edges_raw_strings_comments_and_char_literals_stay_silent() {
    // Raw strings (any fence width), byte strings, nested block comments,
    // lifetimes and escaped char literals all hide rule-triggering tokens;
    // only the real violation at the end fires.
    assert_eq!(run("lexer_edges.rs"), expected(&[("no-unwrap", 28, false)]));
}

#[test]
fn cfg_test_boundaries_mask_gated_items_exactly() {
    assert_eq!(
        run("cfg_test_boundary.rs"),
        expected(&[
            ("no-unwrap", 5, false),  // before the test module
            ("no-unwrap", 31, false), // cfg(not(test)) is NOT masked
            ("no-unwrap", 35, false), // after the masked items
        ])
    );
}

#[test]
fn suppression_placement_trailing_standalone_stacked_and_malformed() {
    assert_eq!(
        run("suppression_placement.rs"),
        expected(&[
            ("no-unwrap", 5, true),  // trailing comment, same line
            ("no-unwrap", 10, true), // standalone, next code line
            ("det-map", 16, true),   // stacked suppressions, same target
            ("no-unwrap", 16, true),
            ("no-unwrap", 22, true), // justification continued by comments
            ("bad-suppression", 28, false), // missing `:` justification
            ("no-unwrap", 28, false), // ...and the hit stays unsuppressed
            ("bad-suppression", 32, false), // empty justification
            ("no-unwrap", 32, false),
            ("bad-suppression", 36, false), // unknown rule name
            ("no-unwrap", 36, false),
            ("bad-suppression", 39, false), // unused suppression
        ])
    );
}

#[test]
fn workspace_policy_allowlists_mask_sanctioned_homes() {
    let rng = "use rand::rngs::StdRng;\n";
    let clock = "use std::time::Instant;\n";
    let policy = Config::workspace();
    // Sanctioned homes: silent.
    assert!(lint_source("crates/trace/src/generator.rs", rng, &policy).is_empty());
    assert!(lint_source("crates/monitor/src/shedder.rs", rng, &policy).is_empty());
    assert!(lint_source("crates/monitor/src/exec.rs", clock, &policy).is_empty());
    // Everywhere else: a violation.
    assert_eq!(lint_source("crates/predict/src/predictor.rs", rng, &policy).len(), 1);
    assert_eq!(lint_source("crates/queries/src/query.rs", clock, &policy).len(), 1);
    // Binaries may panic at top level; libraries may not.
    let unwrap = "fn main() { run().unwrap(); }\n";
    assert!(lint_source("crates/bench/src/bin/experiments.rs", unwrap, &policy).is_empty());
    assert_eq!(lint_source("crates/bench/src/lib.rs", unwrap, &policy).len(), 1);
    // hot-path-alloc is inverted: active only in the designated hot modules,
    // the prediction plane's three kernels among them.
    let alloc = "pub fn f(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
    assert!(lint_source("crates/monitor/src/monitor.rs", alloc, &policy).is_empty());
    assert!(lint_source("crates/predict/src/predictor.rs", alloc, &policy).is_empty());
    for hot in [
        "crates/trace/src/batch.rs",
        "crates/predict/src/fcbf.rs",
        "crates/linalg/src/svd.rs",
        "crates/linalg/src/ols.rs",
    ] {
        assert_eq!(lint_source(hot, alloc, &policy).len(), 1, "{hot}");
    }
    // fused-float is inverted too: active only in the bit-exact float crates.
    let fused = "pub fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n";
    assert!(lint_source("crates/monitor/src/monitor.rs", fused, &policy).is_empty());
    assert_eq!(lint_source("crates/linalg/src/stats.rs", fused, &policy).len(), 1);
}

#[test]
fn the_workspace_itself_conforms() {
    // The acceptance gate, as a test: every first-party source file passes
    // the workspace policy with zero unsuppressed diagnostics.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("lint crate lives two levels under the workspace root");
    let report = netshed_lint::lint_workspace(root, &Config::workspace()).expect("workspace walk");
    let violations: Vec<String> = report
        .violations()
        .map(|d| format!("{}:{} {} {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(violations.is_empty(), "determinism contract violations:\n{}", violations.join("\n"));
    assert!(report.files_scanned.len() > 50, "the walk must cover the whole workspace");
}
