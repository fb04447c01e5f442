//! Workspace lint gate: runs `dinar-lint` as part of `cargo test`, so any
//! violation of a repo invariant (every rule in `Rule::all()`) fails CI even
//! if nobody ran the CLI. Every rule gates at zero; a
//! `// lint: allow(RULE, reason)` on the offending line is the only
//! exemption. The tests below partition the rules between them, so together
//! they cover every rule exactly once; `lint_ratchet_holds` takes every rule
//! without a test of its own, including any rule added later. Beside them,
//! `workspace_is_rustfmt_clean` holds the workspace to `cargo fmt --check`.

use dinar_lint::rules::Rule;
use std::path::Path;

/// Rules with a dedicated test below; `lint_ratchet_holds` covers the rest.
const DEDICATED: &[Rule] = &[
    Rule::L008,
    Rule::L010,
    Rule::L011,
    Rule::L012,
    Rule::L013,
    Rule::L015,
    Rule::L016,
    Rule::L017,
    Rule::L019,
    Rule::L020,
];

/// Runs the lint pass and fails, printing every finding with the first
/// line of its rule's `explain()`, if any finding matches `selected`.
fn assert_no_findings(what: &str, selected: impl Fn(Rule) -> bool) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings: Vec<_> = dinar_lint::lint_workspace(root)
        .expect("lint pass should run")
        .into_iter()
        .filter(|f| selected(f.rule))
        .collect();
    assert!(
        findings.is_empty(),
        "\n{} {what} finding(s):\n{}\n\nFix each one, or document an invariant that \
         cannot fail with `// lint: allow(RULE, reason)` on its line \
         (`cargo run -p dinar-lint -- --explain RULE`).\n",
        findings.len(),
        findings
            .iter()
            .map(|f| {
                let headline = f.rule.explain().lines().next().unwrap_or_default();
                format!("  {f}\n      {headline}")
            })
            .collect::<Vec<_>>()
            .join("\n"),
    );
}

#[test]
fn lint_ratchet_holds() {
    assert_no_findings("lint", |r| !DEDICATED.contains(&r));
}

#[test]
fn no_bare_recv_in_fl_at_all() {
    // The mid-round client-death hang was caused by exactly one bare
    // `recv()`; the fix routed every dinar-fl wait through the deadline
    // helper.
    assert_no_findings("bare mpsc recv (L008)", |r| r == Rule::L008);
}

#[test]
fn semantic_rules_stay_at_zero() {
    assert_no_findings("semantic (L010–L016)", |r| {
        (Rule::L010..=Rule::L016).contains(&r)
    });
}

#[test]
fn wire_codecs_stay_confined_at_zero() {
    assert_no_findings("wire codec confinement (L017)", |r| r == Rule::L017);
}

#[test]
fn env_switches_stay_at_two() {
    // `DINAR_THREADS` and `DINAR_OBSERVE` are the only settings the library
    // crates read from the environment, and both are still read.
    assert_no_findings("env switch (L019)", |r| r == Rule::L019);
}

#[test]
fn nn_calls_no_libm_transcendental() {
    // A training step's transcendentals run through dinar-tensor's own
    // kernels, so every trained digest is a function of the input bits alone.
    assert_no_findings("libm call in dinar-nn (L020)", |r| r == Rule::L020);
}

#[test]
fn workspace_is_rustfmt_clean() {
    // `cargo fmt --all -- --check` over the workspace members (`benchmark/`
    // is its own workspace and stays outside). A change that leaves a file
    // unformatted fails here with rustfmt's diff, so no later formatter run
    // has to drown an unrelated diff.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = std::process::Command::new(cargo)
        .args(["fmt", "--all", "--", "--check"])
        .current_dir(root)
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() && stderr.contains("no such command") {
        eprintln!("rustfmt is not installed; formatting not checked: {stderr}");
        return;
    }
    assert!(
        out.status.success(),
        "the workspace is not rustfmt-clean; run `cargo fmt --all`:\n{}{stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
}
