//! # dinar-lint
//!
//! An in-repo static-analysis pass for the DINAR workspace. The
//! reproduction's claims (attack AUC, per-layer sensitivity, figure
//! regeneration) depend on determinism, privacy-ordering and error-handling
//! discipline that generic tooling cannot check, so this crate enforces
//! eighteen repo-specific invariants. L001–L009, L017 and L018 are
//! per-line rules ([`rules`]); L010–L016 run on a semantic engine — a lexer
//! ([`lex`]) over stripped sources, a lightweight item parser ([`sem`]), and
//! a workspace symbol table with an approximate call graph ([`graph`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | L001 | no `unwrap()`/`expect()` in non-test library code |
//! | L002 | no nondeterminism sources (`thread_rng`, `SystemTime::now`, `Instant::now`, `HashMap`) in the deterministic crates |
//! | L003 | every `pub enum *Error` implements `Display + std::error::Error` |
//! | L004 | no bare `as` numeric casts in the tensor hot paths (use `dinar_tensor::cast`) |
//! | L005 | every manifest declares only in-repo dependencies (hermetic builds) |
//! | L006 | no raw `thread::spawn`/`thread::scope` outside the worker pool (`dinar_tensor::par`), which owns every compute thread |
//! | L007 | no ambient `Instant::now()` outside the sanctioned clock modules (`clock.rs`, `timing.rs`, `dinar-telemetry`) |
//! | L008 | no bare mpsc `recv()`/`recv_timeout()` in `dinar-fl` outside the sanctioned deadline helper (`crates/fl/src/deadline.rs`) |
//! | L009 | no `.clone()` in the parameter-plane modules — snapshot params with the O(1) `share()` (sanctioned copy sites: `crates/fl/src/transport.rs`, `crates/nn/src/params.rs`) |
//! | L010 | clip-dominates-noise: in `dinar-defenses`, every call path reaching a Gaussian noise draw passes through a clip source (`clip_l2`/`clip_l2_with_count`/`clip_factor`) first |
//! | L011 | seed-taint: no `seed_from(<integer literal>)` outside tests/benches — RNG streams derive from plumbed config |
//! | L012 | panic-reachability: no `panic!`/`unwrap`/`expect` reachable through the call graph from the FL round loop or the threaded transport |
//! | L013 | lock-order: nested `Mutex` acquisitions follow the global order `telemetry.event_threads < telemetry.event_log < telemetry.registry < telemetry.histo < tensor.par` |
//! | L014 | no arithmetic accumulation over unordered-container (`HashSet`/`HashMap`) iteration in the deterministic crates |
//! | L015 | no scalar `.normal()`/`.normal_with()` draws inside loop bodies in the defenses and parameter plane — use the bulk `fill_normal`/`axpy_normal` |
//! | L016 | ledger coverage: every defense transform entry point reaches `privacy_charge` (or `privacy_charge_zero`) through the call graph |
//! | L017 | wire confinement: byte-level codecs only in `crates/tensor/src/wire.rs`, and no narrowing `as` casts inside it |
//! | L018 | element confinement: bit-pattern reinterpretation only in `crates/tensor/src/storage.rs` (the audited `Element` impls) |
//!
//! Every rule gates at zero: there is no baseline of tolerated findings,
//! and a `// lint: allow(RULE, reason)` on the offending line is the only
//! exemption. Run the CLI with `cargo run -p dinar-lint` (exit 1 on any
//! finding), print a rule's rationale with `-- --explain L010`, and rely on
//! the umbrella `tests/lint.rs` gate to enforce the same in `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lex;
pub mod rules;
pub mod sem;
pub mod strip;

pub use rules::{Finding, Rule};

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors from the linter itself.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LintError {
    /// A file or directory could not be read.
    Io {
        /// Offending path.
        path: String,
        /// Underlying error text.
        reason: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, reason } => write!(f, "cannot read {path}: {reason}"),
        }
    }
}

impl std::error::Error for LintError {}

fn read(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|e| LintError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    })
}

/// Repo-relative path with forward slashes (stable across platforms).
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.display().to_string(),
        reason: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let path = entry.path();
        if path.is_dir() {
            rs_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crate directories under `crates/`, sorted by name.
fn crate_dirs(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).map_err(|e| LintError::Io {
        path: crates.display().to_string(),
        reason: e.to_string(),
    })?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Package names defined by manifests in this repo (the L005 allow-list).
fn in_repo_packages(root: &Path, crate_dirs: &[PathBuf]) -> Result<BTreeSet<String>, LintError> {
    let mut names = BTreeSet::new();
    let mut manifests: Vec<PathBuf> = crate_dirs.iter().map(|d| d.join("Cargo.toml")).collect();
    manifests.push(root.join("Cargo.toml"));
    for manifest in manifests {
        let text = read(&manifest)?;
        for line in text.lines() {
            let line = line.trim();
            if let Some(value) = line.strip_prefix("name = ") {
                names.insert(value.trim_matches('"').to_string());
                break; // first `name =` is the package name
            }
        }
    }
    Ok(names)
}

/// Lints the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` and `tests/`, plus every `Cargo.toml`.
///
/// # Errors
///
/// Returns [`LintError::Io`] if the tree cannot be read.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, LintError> {
    let dirs = crate_dirs(root)?;
    let mut findings = Vec::new();

    // Per-file rules (L001/L002/L004/L006/L007/L008/L009) over crates/*/src
    // and tests/; the same pass collects sources for the semantic engine.
    let mut files = Vec::new();
    for dir in &dirs {
        rs_files_under(&dir.join("src"), &mut files)?;
    }
    rs_files_under(&root.join("tests"), &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for file in &files {
        let source = read(file)?;
        findings.extend(rules::check_source(&rel(root, file), &source));
        sources.push((rel(root, file), source));
    }

    // Cross-file semantic rules (L010–L014) on the call-graph engine.
    findings.extend(graph::check_semantic(&sources));

    // L003 needs whole-crate visibility (impls may live away from the enum).
    for dir in &dirs {
        let mut crate_files = Vec::new();
        rs_files_under(&dir.join("src"), &mut crate_files)?;
        crate_files.sort();
        let mut sources = Vec::new();
        for file in &crate_files {
            sources.push((rel(root, file), read(file)?));
        }
        findings.extend(rules::check_l003(&sources));
    }

    // L005 over every manifest, including the workspace root.
    let in_repo = in_repo_packages(root, &dirs)?;
    let mut manifests: Vec<PathBuf> = dirs.iter().map(|d| d.join("Cargo.toml")).collect();
    manifests.push(root.join("Cargo.toml"));
    for manifest in manifests {
        let text = read(&manifest)?;
        findings.extend(rules::check_manifest(&rel(root, &manifest), &text, &in_repo));
    }

    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(findings)
}
