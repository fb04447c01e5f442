//! # dinar-lint
//!
//! An in-repo static-analysis pass for the DINAR workspace. The
//! reproduction's claims (attack AUC, per-layer sensitivity, figure
//! regeneration) depend on determinism, privacy-ordering and error-handling
//! discipline that generic tooling cannot check, so this crate enforces
//! nineteen repo-specific invariants — only those the compiler cannot hold.
//! L001–L008, L017 and L019–L022 are per-line rules ([`rules`]); L010–L013,
//! L015 and L016 run on a semantic engine — a lexer ([`lex`]) over stripped
//! sources, a lightweight item parser ([`sem`]), and a workspace symbol
//! table with an approximate call graph ([`graph`]):
//!
//! | rule | invariant |
//! |------|-----------|
//! | L001 | no `unwrap()`/`expect()` in non-test library code |
//! | L002 | no nondeterminism sources (`thread_rng`, `SystemTime::now`, `HashMap`, `HashSet`) in the deterministic crates |
//! | L003 | every `pub enum *Error` implements `Display + std::error::Error` |
//! | L004 | no bare `as` numeric casts in the tensor hot paths (use `dinar_tensor::cast`) |
//! | L005 | every manifest declares only in-repo dependencies (hermetic builds), and every package opts into the workspace lints (`unsafe` forbidden) |
//! | L006 | no raw `thread::spawn`/`thread::scope` outside the worker pool (`dinar_tensor::par`), which owns every compute thread |
//! | L007 | no ambient `Instant::now()` outside `crates/metrics/src/clock.rs` and `crates/bench/src/timing.rs` |
//! | L008 | no bare mpsc `recv()`/`recv_timeout()` in `dinar-fl` outside the sanctioned deadline helper (`crates/fl/src/deadline.rs`) |
//! | L010 | clip-dominates-noise: in `dinar-defenses`, every call path reaching a Gaussian noise draw passes through a clip source (`clip_l2`/`clip_l2_with_count`/`clip_factor`) first |
//! | L011 | seed-taint: no `seed_from(<integer literal>)` outside tests/benches — RNG streams derive from plumbed config |
//! | L012 | panic-reachability: no `panic!`/`unwrap`/`expect` reachable through the call graph from the FL round loop or the threaded transport |
//! | L013 | lock-order: nested `Mutex` acquisitions follow the global order `telemetry.event_threads < telemetry.event_log < telemetry.registry < telemetry.histo < tensor.par` |
//! | L015 | no scalar `.normal()`/`.normal_with()` draws inside loop bodies in the defenses, the data generators and the parameter plane — use the bulk `fill_normal`/`axpy_normal` |
//! | L016 | ledger coverage: every defense transform entry point reaches `privacy_charge` (or `privacy_charge_zero`) through the call graph |
//! | L017 | wire confinement: byte-level codecs only in `crates/tensor/src/wire.rs`, and no narrowing `as` casts inside it |
//! | L019 | env switches: `crates/*/src` reads only `DINAR_THREADS` and `DINAR_OBSERVE` from the environment, and still reads both |
//! | L020 | no libm: `crates/nn/src` calls no float `exp`/`ln`/`log*`/`sin`/`cos`/`tanh`/`powf` outside its tests |
//! | L021 | stale allows: every `lint: allow(RULE, …)` names a live rule |
//! | L022 | no `unsafe` in the fenced Rust examples of `///`/`//!` doc comments in `crates/*/src`, which doctests would compile despite `[workspace.lints]` |
//!
//! Three retired IDs are never reused. The compiler now holds what they
//! checked: `ModelParams`/`LayerParams` are not `Clone`, so `share()` is the
//! only copy (L009); `Element` has no bit-pattern accessor and every target
//! forbids `unsafe` (L018); and L002 bans `HashSet` beside `HashMap`, which
//! leaves no unordered container to iterate (L014).
//!
//! Every rule gates at zero: there is no baseline of tolerated findings,
//! and a `// lint: allow(RULE, reason)` on the offending line is the only
//! exemption. Run the CLI with `cargo run -p dinar-lint` (exit 1 on any
//! finding), print a rule's rationale with `-- --explain L010`, and rely on
//! the umbrella `tests/lint.rs` gate to enforce the same in `cargo test`.

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

/// Wraps an I/O error on `path` as a [`LintError::Io`].
fn io_error(path: &Path) -> impl Fn(std::io::Error) -> LintError + '_ {
    move |e| LintError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
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
    for entry in std::fs::read_dir(dir).map_err(io_error(dir))? {
        let path = entry.map_err(io_error(dir))?.path();
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
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .map_err(io_error(&crates))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
        .collect();
    dirs.sort();
    Ok(dirs)
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

    // Per-file rules (L001/L002/L004/L006–L008/L017/L020/L021) over
    // crates/*/src and tests/; the same pass collects sources for the
    // semantic engine and the whole-workspace rules.
    let mut files = Vec::new();
    for dir in &dirs {
        rs_files_under(&dir.join("src"), &mut files)?;
    }
    rs_files_under(&root.join("tests"), &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).map_err(io_error(file))?;
        findings.extend(rules::check_source(&rel(root, file), &source));
        sources.push((rel(root, file), source));
    }

    // Cross-file semantic rules (L010–L013, L015, L016) on the call-graph
    // engine, and L019 over every library source at once.
    findings.extend(graph::check_semantic(&sources));
    findings.extend(rules::check_l019(&sources));

    // L003 needs whole-crate visibility (impls may live away from the enum).
    for dir in &dirs {
        let src = format!("{}/src/", rel(root, dir));
        let krate: Vec<_> = sources
            .iter()
            .filter(|(p, _)| p.starts_with(&src))
            .cloned()
            .collect();
        findings.extend(rules::check_l003(&krate));
    }

    // L005 over every manifest, including the workspace root; the first
    // `name =` of each is a package name, the allow-list of in-repo deps.
    let mut manifests = Vec::new();
    for path in dirs
        .iter()
        .map(|d| d.join("Cargo.toml"))
        .chain([root.join("Cargo.toml")])
    {
        let text = std::fs::read_to_string(&path).map_err(io_error(&path))?;
        manifests.push((rel(root, &path), text));
    }
    let in_repo: BTreeSet<String> = manifests
        .iter()
        .filter_map(|(_, text)| {
            let name = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))?;
            Some(name.trim_matches('"').to_string())
        })
        .collect();
    for (path, text) in &manifests {
        findings.extend(rules::check_manifest(path, text, &in_repo));
    }

    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(findings)
}
