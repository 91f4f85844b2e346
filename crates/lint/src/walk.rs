//! Workspace discovery: which files the contract applies to.
//!
//! The lint walks the *library* source of every first-party crate — each
//! `crates/<name>/src/**/*.rs` plus the root facade `src/` — in sorted path
//! order so diagnostics and the JSON report are byte-stable run to run.
//!
//! Excluded by construction:
//! - `crates/compat/**`: vendored offline stand-ins for third-party crates
//!   (rand, criterion, ...). They implement the nondeterminism the contract
//!   bans — that is their job — and are not netshed library code.
//! - integration `tests/`, `benches/`, `examples/` trees: not library code;
//!   inline `#[cfg(test)]` modules are masked by the rule engine instead.
//!   The benches, `benchmark/src` and `examples/` are still *read*
//!   ([`reader_sources`]): their uses keep a library `pub` item reached.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A discovered source file: workspace-relative path (`/`-separated) plus
/// its absolute location on disk.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub relative: String,
    pub absolute: PathBuf,
}

/// Lists the lintable sources under `root` (the workspace root), sorted by
/// relative path.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "compat"))
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), root, &mut files)?;
    }
    files.sort_by(|a, b| a.relative.cmp(&b.relative));
    Ok(files)
}

/// Lists the sources read only for their uses of library `pub` items
/// (`unreached-pub`): the benches, the benchmark package and the examples,
/// sorted by relative path. They are consumers, so no per-file rule runs on
/// them.
pub fn reader_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for dir in ["crates/bench/benches", "benchmark/src", "examples"] {
        collect_rs(&root.join(dir), root, &mut files)?;
    }
    files.sort_by(|a, b| a.relative.cmp(&b.relative));
    Ok(files)
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine).
fn collect_rs(dir: &Path, root: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let relative = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile { relative, absolute: path });
        }
    }
    Ok(())
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares the
/// workspace. Errors out rather than guessing when none is found.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() && fs::read_to_string(&manifest)?.contains("[workspace]") {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no workspace Cargo.toml above {}", start.display()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/lint/ -> crates/ -> workspace root
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
    }

    #[test]
    fn walk_finds_the_first_party_crates_only() {
        let files = workspace_sources(&repo_root()).expect("walk");
        assert!(files.iter().any(|f| f.relative == "src/lib.rs"));
        assert!(files.iter().any(|f| f.relative == "crates/monitor/src/monitor.rs"));
        assert!(files.iter().any(|f| f.relative == "crates/lint/src/walk.rs"));
        // The service plane is first-party library code: its daemon and
        // snapshot modules fall under the full determinism policy (no path
        // allowlist exempts crates/service).
        assert!(files.iter().any(|f| f.relative == "crates/service/src/daemon.rs"));
        assert!(files.iter().any(|f| f.relative == "crates/service/src/snapshot.rs"));
        assert!(files.iter().all(|f| !f.relative.starts_with("crates/compat/")));
        assert!(files
            .iter()
            .all(|f| std::path::Path::new(&f.relative).extension().is_some_and(|e| e == "rs")));
        let mut sorted = files.iter().map(|f| f.relative.clone()).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(sorted, files.iter().map(|f| f.relative.clone()).collect::<Vec<_>>());
    }

    #[test]
    fn find_root_from_nested_dir() {
        let nested = repo_root().join("crates/lint/src");
        assert_eq!(find_workspace_root(&nested).expect("root"), repo_root());
    }
}
