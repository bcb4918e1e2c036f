//! Workspace discovery and the crate-scope policy.
//!
//! Files are mapped onto [`Scope`]s by path alone — the module-path
//! resolver this lint needs is "which crate and which kind of target does
//! this file belong to", not full `mod` resolution:
//!
//! * `crates/{sim,bus,ntier,model,oracle,workload,core,obs}/src/**` —
//!   **strict** (the determinism-critical library crates),
//! * `crates/{bench,lint}/src/**` and `shims/*/src/**` — **relaxed**
//!   (harness, tooling, and vendored stand-ins; wall-clock instrumentation
//!   is legitimate there),
//! * any `tests/`, `benches/`, `examples/` directory — **test** scope,
//! * `tests/fixtures/` directories are excluded entirely (they are lint
//!   corpora, deliberately full of violations).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::Scope;

/// Directory names (under `crates/`) of the determinism-critical crates.
pub const STRICT_CRATES: &[&str] = &[
    "sim", "bus", "ntier", "model", "oracle", "workload", "core", "obs",
];

/// One file scheduled for linting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable across hosts).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Crate directory name (`sim`, `core`, ...; empty outside `crates/`
    /// and `shims/`).
    pub crate_name: String,
    /// Policy scope.
    pub scope: Scope,
}

/// Classifies one workspace-relative path. Returns `None` for files the
/// lint does not cover (non-Rust files, fixture corpora).
pub fn classify(rel_path: &str) -> Option<(String, Scope)> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.contains(&"fixtures") {
        return None;
    }
    let test_dir = parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"));
    match parts.as_slice() {
        ["crates", krate, rest @ ..] => {
            let scope = if test_dir {
                Scope::Test
            } else if rest.first() == Some(&"src") && STRICT_CRATES.contains(krate) {
                Scope::Strict
            } else {
                Scope::Relaxed
            };
            Some(((*krate).to_string(), scope))
        }
        ["shims", shim, ..] => {
            let scope = if test_dir {
                Scope::Test
            } else {
                Scope::Relaxed
            };
            Some(((*shim).to_string(), scope))
        }
        _ => test_dir.then(|| (String::new(), Scope::Test)),
    }
}

/// Walks the workspace rooted at `root` and returns every coverable Rust
/// source file, sorted by relative path (so reports are byte-stable).
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if let Some((crate_name, scope)) = classify(&rel_path) {
                files.push(SourceFile {
                    rel_path,
                    abs_path: path,
                    crate_name,
                    scope,
                });
            }
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_policy_matches_the_issue() {
        assert_eq!(
            classify("crates/sim/src/engine.rs"),
            Some(("sim".into(), Scope::Strict))
        );
        assert_eq!(
            classify("crates/core/src/controller.rs"),
            Some(("core".into(), Scope::Strict))
        );
        assert_eq!(
            classify("crates/obs/src/recorder.rs"),
            Some(("obs".into(), Scope::Strict))
        );
        assert_eq!(
            classify("crates/obs/tests/trace_golden.rs"),
            Some(("obs".into(), Scope::Test))
        );
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            Some(("bench".into(), Scope::Relaxed))
        );
        assert_eq!(
            classify("crates/lint/src/rules.rs"),
            Some(("lint".into(), Scope::Relaxed))
        );
        assert_eq!(
            classify("crates/sim/tests/proptests.rs"),
            Some(("sim".into(), Scope::Test))
        );
        assert_eq!(
            classify("crates/bench/benches/substrate.rs"),
            Some(("bench".into(), Scope::Test))
        );
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            Some(("rand".into(), Scope::Relaxed))
        );
        assert_eq!(
            classify("tests/full_stack.rs"),
            Some((String::new(), Scope::Test))
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            Some((String::new(), Scope::Test))
        );
        assert_eq!(
            classify("crates/lint/tests/fixtures/unwrap_in_lib.rs"),
            None
        );
        assert_eq!(classify("README.md"), None);
        assert_eq!(classify("src/main.rs"), None);
    }
}
