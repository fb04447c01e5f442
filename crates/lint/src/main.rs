//! CLI for the workspace linter.
//!
//! ```text
//! cargo run -p dinar-lint                      # lint the workspace (exit 1 on any finding)
//! cargo run -p dinar-lint -- --explain L010    # print one rule's full rationale
//! cargo run -p dinar-lint -- --root <dir>      # lint another workspace root
//! ```
//!
//! Exit codes: 0 no findings, 1 findings, 2 usage or I/O error.

use dinar_lint::{lint_workspace, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    explain: Option<String>,
}

const USAGE: &str = "usage: dinar-lint [--root DIR] [--explain RULE]";

/// `Ok(None)` means `--help`: print usage and exit successfully.
fn parse_args() -> Result<Option<Options>, String> {
    let mut options = Options {
        root: workspace_root(),
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                options.explain = Some(
                    args.next()
                        .ok_or_else(|| "--explain requires a rule ID".to_string())?,
                );
            }
            "--root" => {
                options.root = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--root requires a path".to_string())?,
                );
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(options))
}

/// The workspace root: this crate's manifest dir is `<root>/crates/lint`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(std::path::Path::to_path_buf)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(id) = &options.explain {
        return match Rule::from_id(id) {
            Some(rule) => {
                println!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                let known: Vec<&str> = Rule::all().iter().map(|r| r.id()).collect();
                eprintln!("unknown rule `{id}`; known rules: {}", known.join(", "));
                ExitCode::from(2)
            }
        };
    }

    let findings = match lint_workspace(&options.root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("lint failed: {e}");
            return ExitCode::from(2);
        }
    };

    println!("lint: {} finding(s):", findings.len());
    for rule in Rule::all() {
        let count = findings.iter().filter(|f| f.rule == rule).count();
        let headline = rule.explain().lines().next().unwrap_or_default();
        println!("  {count:>4}  {headline}");
    }
    if findings.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!();
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!(
        "\nfix each finding, or document an invariant that cannot fail with \
         `// lint: allow(RULE, reason)` on its line (`--explain RULE` says how)"
    );
    ExitCode::FAILURE
}
