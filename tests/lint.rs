//! Workspace lint gate: runs `dinar-lint` as part of `cargo test`, so any
//! violation of a repo invariant (L001–L018) fails CI even if nobody ran
//! the CLI. Every rule gates at zero; a `// lint: allow(RULE, reason)` on
//! the offending line is the only exemption. The tests below partition the
//! rules between them, so together they cover every rule exactly once.

use dinar_lint::rules::Rule;
use std::path::Path;

/// Rules with a dedicated test below; `lint_ratchet_holds` covers the rest.
const DEDICATED: &[Rule] = &[
    Rule::L008,
    Rule::L009,
    Rule::L010,
    Rule::L011,
    Rule::L012,
    Rule::L013,
    Rule::L014,
    Rule::L015,
    Rule::L016,
    Rule::L017,
    Rule::L018,
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
    // The rules that used to carry debt in a baseline file (L001–L007 today,
    // and any rule added later without a test of its own) now gate at zero.
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
fn no_param_clone_in_param_plane_at_all() {
    assert_no_findings("parameter-plane clone (L009)", |r| r == Rule::L009);
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
fn bit_pattern_casts_stay_confined_at_zero() {
    assert_no_findings("bit-pattern cast confinement (L018)", |r| r == Rule::L018);
}
