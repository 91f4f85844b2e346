//! The determinism-contract rules and the token-stream engine that runs them.
//!
//! Each rule is a named, suppressible check over the lexed token stream of a
//! single file. Rules never look inside comments or literals (the lexer
//! already dropped them) and never fire inside test code: `#[cfg(test)]` /
//! `#[test]` items are masked out by [`test_regions`], and integration-test /
//! bench / example trees are excluded by the walker before a file gets here.

use crate::lexer::{lex, Token, TokenKind};
use crate::report::Diagnostic;
use crate::suppress::{parse_suppressions, Suppression};

/// The seven contract rules, in reporting order.
pub const RULE_NAMES: [&str; 7] = [
    "det-map",
    "plan-phase-rng",
    "telemetry-clock",
    "merge-order",
    "no-unwrap",
    "hot-path-alloc",
    "fused-float",
];

/// Pseudo-rule reported for malformed suppression comments (unknown rule
/// name, missing `:` or empty justification). It cannot itself be
/// suppressed: a suppression must always carry a justification.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// Returns true when `name` is one of the seven suppressible contract rules.
pub fn is_rule(name: &str) -> bool {
    RULE_NAMES.contains(&name)
}

/// Per-file rule activation policy.
///
/// The determinism contract is not uniform across the tree: RNG *belongs* in
/// the plan phase and the trace generator, and wall-clock reads *belong* in
/// the execution-plane telemetry. Those sanctioned homes are path allowlists
/// here; everywhere else a hit needs an inline
/// `// lint:allow(<rule>): <justification>`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes (workspace-relative, `/`-separated) where RNG is legal:
    /// the plan phase and trace generation.
    pub rng_allowed: Vec<String>,
    /// Path prefixes where `Instant`/`SystemTime` are legal: telemetry.
    pub clock_allowed: Vec<String>,
    /// Path prefixes where map-iterator folds are legal: the
    /// registration-order merge helpers (empty today — the merge plane folds
    /// over `Vec`s, which this rule never flags).
    pub fold_allowed: Vec<String>,
    /// When true, `no-unwrap` skips binary sources (`src/bin/`, `main.rs`):
    /// a CLI's top level may panic; library code must return typed errors.
    pub unwrap_skips_binaries: bool,
    /// Path prefixes of the *designated hot-path modules*, where
    /// `hot-path-alloc` flags per-packet/per-bin heap allocation
    /// (`.collect()`, `.to_vec()`, `Vec::new`). Inverted polarity: the rule
    /// is active only *inside* these prefixes — everywhere else allocation
    /// is unremarkable. `Vec::with_capacity` is always fine (setup code
    /// sizes its buffers once).
    pub hot_path: Vec<String>,
    /// Path prefixes of the *bit-exact float modules*, where `fused-float`
    /// flags `.mul_add(`. Inverted polarity like `hot_path`: these are the
    /// crates whose f64 results reach a digest and whose kernels are allowed
    /// to be rewritten only as the same sequence of IEEE operations — a
    /// fused multiply-add rounds once where `a * b + c` rounds twice.
    pub exact_float: Vec<String>,
}

impl Config {
    /// The netshed workspace policy (see DESIGN.md "Determinism contract").
    pub fn workspace() -> Self {
        let owned = |paths: &[&str]| paths.iter().map(|p| (*p).to_owned()).collect();
        Self {
            rng_allowed: owned(&[
                // Trace generation: synthetic traffic is *made of* seeded draws.
                "crates/trace/src/",
                // The plan phase: packet-sampling draws and noise pre-draws
                // happen in the bin's admit and shed stages, sequentially,
                // before any dispatch, from the RNGs the monitor seeds and
                // restores.
                "crates/monitor/src/bin.rs",
                "crates/monitor/src/monitor.rs",
                "crates/monitor/src/shedder.rs",
                // The seeded measurement-noise / cost-jitter model; draws are
                // pre-planned per bin with a config-fixed draw count.
                "crates/queries/src/cost.rs",
                // The experiment harness is a consumer, not library code.
                "crates/bench/src/",
            ]),
            clock_allowed: owned(&[
                // The stage lap clock (StageStats telemetry): the one place
                // the engines read a clock; it feeds reporting only, never an
                // observable output.
                "crates/monitor/src/exec.rs",
                "crates/bench/src/",
            ]),
            fold_allowed: Vec::new(),
            unwrap_skips_binaries: true,
            hot_path: owned(&[
                // The steady-state data plane: the column store, the fused
                // extractor, the keep-list shedders and the task dispatcher
                // must not allocate per bin (see the `alloc_per_bin` bench
                // guard in BENCH_pipeline.json).
                "crates/trace/src/batch.rs",
                "crates/trace/src/flows.rs",
                "crates/features/src/extractor.rs",
                "crates/monitor/src/shedder.rs",
                "crates/monitor/src/exec.rs",
                // The bin's stage functions: the per-bin context is reused,
                // so the only vector a bin may build is the one its record
                // owns (sized with `Vec::with_capacity`).
                "crates/monitor/src/bin.rs",
                // The prediction plane: every query pays one FCBF selection
                // and one least-squares solve per bin, out of scratch its
                // predictor owns — or out of the engine's shared feature
                // window, which recomputes its cache in place every bin.
                "crates/predict/src/fcbf.rs",
                "crates/predict/src/window.rs",
                "crates/linalg/src/svd.rs",
                "crates/linalg/src/ols.rs",
            ]),
            exact_float: owned(&["crates/linalg/", "crates/predict/", "crates/sketch/"]),
        }
    }

    /// Every rule active everywhere — the fixture-corpus configuration.
    /// (`hot-path-alloc` and `fused-float` have inverted polarity, so
    /// "everywhere" means the empty prefix, which every path starts with.)
    pub fn strict() -> Self {
        Self {
            rng_allowed: Vec::new(),
            clock_allowed: Vec::new(),
            fold_allowed: Vec::new(),
            unwrap_skips_binaries: false,
            hot_path: vec![String::new()],
            exact_float: vec![String::new()],
        }
    }

    fn rule_active(&self, rule: &str, path: &str) -> bool {
        let allowed = |prefixes: &[String]| prefixes.iter().any(|p| path.starts_with(p.as_str()));
        match rule {
            "plan-phase-rng" => !allowed(&self.rng_allowed),
            "telemetry-clock" => !allowed(&self.clock_allowed),
            "merge-order" => !allowed(&self.fold_allowed),
            "no-unwrap" => {
                !(self.unwrap_skips_binaries
                    && (path.contains("/bin/") || path.ends_with("main.rs")))
            }
            // Inverted: active only inside the designated modules.
            "hot-path-alloc" => allowed(&self.hot_path),
            "fused-float" => allowed(&self.exact_float),
            _ => true,
        }
    }
}

/// Lints one file's source. `path` is the workspace-relative path used both
/// for allowlist matching and in emitted diagnostics.
pub fn lint_source(path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    let tokens = lex(source);
    let in_test = test_regions(&tokens);
    let code_lines: Vec<u32> = {
        let mut lines: Vec<u32> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment(_)))
            .map(|t| t.line)
            .collect();
        lines.dedup();
        lines
    };
    let (mut suppressions, mut diagnostics) = parse_suppressions(path, &tokens, &code_lines);

    let mut raw = Vec::new();
    scan(&tokens, &in_test, |rule, line, message| {
        if config.rule_active(rule, path) && !raw.iter().any(|(r, l, _)| *r == rule && *l == line) {
            raw.push((rule, line, message));
        }
    });

    for (rule, line, message) in raw {
        let suppression = suppressions
            .iter_mut()
            .find(|s| s.target_line == Some(line) && s.rules.iter().any(|r| r == rule));
        let (suppressed, justification) = match suppression {
            Some(s) => {
                s.used = true;
                (true, Some(s.justification.clone()))
            }
            None => (false, None),
        };
        diagnostics.push(Diagnostic {
            file: path.to_owned(),
            line,
            rule: rule.to_owned(),
            message,
            suppressed,
            justification,
        });
    }

    for s in &suppressions {
        if !s.used {
            diagnostics.push(unused_suppression(path, s));
        }
    }

    diagnostics.sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    diagnostics
}

fn unused_suppression(path: &str, s: &Suppression) -> Diagnostic {
    Diagnostic {
        file: path.to_owned(),
        line: s.line,
        rule: BAD_SUPPRESSION.to_owned(),
        message: format!(
            "unused suppression for {}: no matching diagnostic on the suppressed line",
            s.rules.join(", ")
        ),
        suppressed: false,
        justification: None,
    }
}

/// Map/set iterator methods whose order reflects hashing, not registration.
const MAP_ITERS: [&str; 5] = ["values", "keys", "values_mut", "into_values", "into_keys"];
/// Order-sensitive folds.
const FOLDS: [&str; 3] = ["sum", "fold", "product"];
/// RNG vocabulary: the compat `rand` crate's public surface.
const RNG_IDENTS: [&str; 8] =
    ["rand", "Rng", "SeedableRng", "StdRng", "SmallRng", "ThreadRng", "thread_rng", "random"];

/// Runs every rule matcher over the token stream, reporting hits through
/// `emit(rule, line, message)`. Tokens inside test regions never fire.
fn scan(tokens: &[Token], in_test: &[bool], mut emit: impl FnMut(&'static str, u32, String)) {
    // Code view: comments and lifetimes removed so adjacency checks (`.`
    // before `unwrap`) see the tokens the compiler would.
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_) | TokenKind::Lifetime))
        .collect();

    let punct = |i: usize| -> Option<char> {
        match code.get(i)?.1.kind {
            TokenKind::Punct(c) => Some(c),
            _ => None,
        }
    };
    let ident_is = |i: usize, name: &str| -> bool {
        matches!(code.get(i), Some((_, t)) if matches!(&t.kind, TokenKind::Ident(n) if n == name))
    };

    // merge-order is stateful: a map-iterator call arms the rule until the
    // statement ends; a fold while armed fires.
    let mut armed = false;

    for (i, &(orig, token)) in code.iter().enumerate() {
        if in_test[orig] {
            armed = false;
            continue;
        }
        let line = token.line;
        match &token.kind {
            TokenKind::Punct(';' | '{' | '}') => armed = false,
            TokenKind::Ident(name) => {
                let name = name.as_str();
                let after_dot = i > 0 && punct(i - 1) == Some('.');
                let after_path = i > 0 && punct(i - 1) == Some(':');
                match name {
                    "HashMap" | "HashSet" => emit(
                        "det-map",
                        line,
                        format!(
                            "std::collections::{name} iterates in randomized order; \
                             use Det{name} (netshed-sketch) or the BTree equivalent"
                        ),
                    ),
                    _ if RNG_IDENTS.contains(&name) && !after_dot => emit(
                        "plan-phase-rng",
                        line,
                        format!(
                            "RNG symbol `{name}` outside the plan phase / trace generation; \
                             draws must happen sequentially before dispatch"
                        ),
                    ),
                    "Instant" | "SystemTime" => emit(
                        "telemetry-clock",
                        line,
                        format!(
                            "wall-clock read `{name}` outside the telemetry allowlist; \
                             clock values must never influence observable output"
                        ),
                    ),
                    "unwrap" | "expect" if after_dot || after_path => emit(
                        "no-unwrap",
                        line,
                        format!(
                            "`{name}` in library code; return a typed error or document \
                             the invariant and suppress"
                        ),
                    ),
                    "collect" | "to_vec" if after_dot && punct(i + 1) == Some('(') => emit(
                        "hot-path-alloc",
                        line,
                        format!(
                            "`.{name}()` allocates in a designated hot-path module; stream \
                             into caller-provided scratch or justify the allocation"
                        ),
                    ),
                    "mul_add" if after_dot && punct(i + 1) == Some('(') => emit(
                        "fused-float",
                        line,
                        "`.mul_add()` rounds once where `a * b + c` rounds twice; the kernels \
                         here promise the bits of the unfused sequence (golden digests, FCBF \
                         and OLS oracles) — write the product and the sum"
                            .to_owned(),
                    ),
                    "new"
                        if after_path
                            && punct(i.wrapping_sub(2)) == Some(':')
                            && i >= 3
                            && ident_is(i - 3, "Vec") =>
                    {
                        emit(
                            "hot-path-alloc",
                            line,
                            "`Vec::new` in a designated hot-path module; use a pooled or \
                         caller-provided buffer (`Vec::with_capacity` at setup is fine) \
                         or justify the allocation"
                                .to_owned(),
                        );
                    }
                    _ if MAP_ITERS.contains(&name) && after_dot && punct(i + 1) == Some('(') => {
                        armed = true;
                    }
                    _ if FOLDS.contains(&name) && after_dot && armed => emit(
                        "merge-order",
                        line,
                        format!(
                            "f64 `{name}` over a map/set iterator; fold in registration \
                             order (or justify why the iteration order is stable)"
                        ),
                    ),
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

/// Marks every token index that belongs to a `#[cfg(test)]` or `#[test]`
/// item (the attribute itself through the end of the item it gates).
pub fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment(_)))
        .collect();
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < code.len() {
        if !is_punct(&code, i, '#') || !is_punct(&code, i + 1, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute body up to its matching `]`.
        let attr_start = i;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut body: Vec<&TokenKind> = Vec::new();
        while j < code.len() {
            match code[j].1.kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                ref kind => body.push(kind),
            }
            j += 1;
        }
        if j >= code.len() {
            break; // unterminated attribute; nothing more to mask
        }
        if !attr_gates_test(&body) {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then consume the gated item: either a
        // braced body (`mod tests { ... }`, `fn t() { ... }`) or a `;` item.
        let mut k = j + 1;
        let mut braces = 0usize;
        while k < code.len() {
            match code[k].1.kind {
                TokenKind::Punct('{') => braces += 1,
                TokenKind::Punct('}') => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if braces == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let end = code.get(k).map_or(tokens.len() - 1, |(orig, _)| *orig);
        for slot in &mut mask[code[attr_start].0..=end] {
            *slot = true;
        }
        i = k + 1;
    }
    mask
}

fn is_punct(code: &[(usize, &Token)], i: usize, c: char) -> bool {
    matches!(code.get(i), Some((_, t)) if t.kind == TokenKind::Punct(c))
}

/// Does this attribute body gate its item to test builds only?
///
/// `test` → yes. `cfg(test)` → yes. `cfg(all(test, unix))` → yes (test is
/// required). `cfg(any(test, unix))` → no (enabled outside tests too).
/// `cfg(not(test))` → no. Everything unrecognized → no, conservatively.
fn attr_gates_test(body: &[&TokenKind]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter_map(|k| match k {
            TokenKind::Ident(name) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    match idents.as_slice() {
        ["test"] => true,
        ["cfg", rest @ ..] => cfg_requires_test(rest),
        _ => false,
    }
}

/// Approximates "does this cfg predicate require `test`?" from the flat
/// identifier sequence of the predicate. `not(...)` poisons everything it
/// precedes, so any predicate mentioning `not` is conservatively non-test;
/// `any(...)` requires test only if every alternative does, which the flat
/// view cannot see, so `any` is also conservatively non-test.
fn cfg_requires_test(idents: &[&str]) -> bool {
    if idents.iter().any(|i| *i == "not" || *i == "any") {
        return false;
    }
    idents.contains(&"test")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsuppressed(path: &str, src: &str) -> Vec<(String, u32)> {
        lint_source(path, src, &Config::strict())
            .into_iter()
            .filter(|d| !d.suppressed)
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn det_map_fires_on_std_maps_only() {
        let src = "use std::collections::HashMap;\nlet m: DetHashMap<u64, f64> = x;\n";
        assert_eq!(unsuppressed("f.rs", src), [("det-map".into(), 1)]);
    }

    #[test]
    fn diagnostics_dedup_per_line() {
        let src = "use std::collections::{HashMap, HashSet};\n";
        assert_eq!(unsuppressed("f.rs", src).len(), 1);
    }

    #[test]
    fn rng_allowlist_masks_plan_phase_files() {
        let src = "use rand::rngs::StdRng;\n";
        assert_eq!(unsuppressed("crates/app/src/lib.rs", src).len(), 1);
        let policy = Config::workspace();
        let hits = lint_source("crates/monitor/src/monitor.rs", src, &policy);
        assert!(hits.is_empty());
    }

    #[test]
    fn workspace_policy_grants_the_service_plane_no_exemptions() {
        // The daemon and snapshot modules are library code on the output
        // path: RNG, wall-clock reads, map-order folds and unwraps all
        // fire there under the workspace policy.
        let policy = Config::workspace();
        for path in ["crates/service/src/daemon.rs", "crates/service/src/snapshot.rs"] {
            let rng = lint_source(path, "use rand::rngs::StdRng;\n", &policy);
            assert_eq!(rng.len(), 1, "{path}: plan-phase-rng must be active");
            let clock = lint_source(path, "let t = std::time::Instant::now();\n", &policy);
            assert_eq!(clock.len(), 1, "{path}: telemetry-clock must be active");
            let unwrap = lint_source(path, "let x = y.unwrap();\n", &policy);
            assert_eq!(unwrap.len(), 1, "{path}: no-unwrap must be active");
        }
    }

    #[test]
    fn unwrap_needs_receiver_or_path() {
        let src = "fn unwrap() {}\nlet x = y.unwrap();\nlet z = Option::unwrap(w);\n";
        assert_eq!(unsuppressed("f.rs", src), [("no-unwrap".into(), 2), ("no-unwrap".into(), 3)]);
    }

    #[test]
    fn merge_order_arms_within_one_statement() {
        let src = "let a: f64 = m.values().sum();\nlet b: f64 = v.iter().sum();\n\
                   let c = m.values();\nlet d: f64 = c.map(f).fold(0.0, g);\n";
        // Line 1 fires; line 2 is a slice iterator (never flagged); lines 3-4
        // split the chain across statements, which disarms the rule — a
        // documented false negative, kept for near-zero false positives.
        assert_eq!(unsuppressed("f.rs", src), [("merge-order".into(), 1)]);
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src =
            "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    \
                   #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(unsuppressed("f.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nmod real {\n    use std::collections::HashMap;\n}\n";
        assert_eq!(unsuppressed("f.rs", src), [("det-map".into(), 3)]);
    }

    #[test]
    fn cfg_all_with_test_is_masked() {
        let src = "#[cfg(all(test, unix))]\nmod t {\n    use std::collections::HashMap;\n}\n";
        assert!(unsuppressed("f.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_fires_on_alloc_vocabulary_only() {
        let src = "let a: Vec<u32> = xs.iter().copied().collect();\nlet b = xs.to_vec();\n\
                   let c: Vec<u32> = Vec::new();\nlet d: Vec<u32> = Vec::with_capacity(8);\n\
                   let e = KeepListPool::new();\n";
        assert_eq!(
            unsuppressed("f.rs", src),
            [
                ("hot-path-alloc".into(), 1),
                ("hot-path-alloc".into(), 2),
                ("hot-path-alloc".into(), 3),
            ]
        );
    }

    #[test]
    fn hot_path_alloc_only_applies_inside_designated_modules() {
        let src = "let a: Vec<u32> = xs.iter().copied().collect();\n";
        let policy = Config::workspace();
        assert!(lint_source("crates/monitor/src/monitor.rs", src, &policy).is_empty());
        let hits = lint_source("crates/monitor/src/shedder.rs", src, &policy);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "hot-path-alloc");
    }

    #[test]
    fn fused_float_fires_on_the_method_call_in_the_exact_float_crates_only() {
        let src = "let y = a.mul_add(b, c);\nfn mul_add() {}\nlet z = a * b + c;\n";
        assert_eq!(unsuppressed("f.rs", src), [("fused-float".into(), 1)]);
        let policy = Config::workspace();
        for path in [
            "crates/linalg/src/svd.rs",
            "crates/predict/src/fcbf.rs",
            "crates/sketch/src/bitmap.rs",
        ] {
            assert_eq!(lint_source(path, src, &policy).len(), 1, "{path}");
        }
        assert!(lint_source("crates/queries/src/cost.rs", src, &policy).is_empty());
    }

    #[test]
    fn suppression_with_justification_downgrades() {
        let src = "use std::collections::HashMap; // lint:allow(det-map): alias definition\n";
        let all = lint_source("f.rs", src, &Config::strict());
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed);
        assert_eq!(all[0].justification.as_deref(), Some("alias definition"));
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// lint:allow(det-map): nothing here\nlet x = 1;\n";
        let all = lint_source("f.rs", src, &Config::strict());
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].rule, BAD_SUPPRESSION);
    }
}
