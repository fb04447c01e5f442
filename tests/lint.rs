//! Workspace lint gate: runs `dinar-lint` as part of `cargo test`, so any
//! violation of a repo invariant (L001–L018) fails CI even if nobody ran
//! the CLI. Every rule gates at zero; a `// lint: allow(RULE, reason)` on
//! the offending line is the only exemption. The tests below partition the
//! rules between them, so together they cover every rule exactly once.
//! `env_switches_stay_at_two` guards the workspace's knobs the same way, and
//! `nn_calls_no_libm_transcendental` keeps a training step off the host's libm.

use dinar_lint::rules::Rule;
use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn env_switches_stay_at_two() {
    // The pool width and the observability directory are the only settings
    // the library crates read from the environment; a new knob becomes a
    // parameter of an existing mechanism instead.
    const ALLOWED: [&str; 2] = ["DINAR_THREADS", "DINAR_OBSERVE"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&root).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    let mut reads = Vec::new();
    let mut stray = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for call in ["env::var(", "env::var_os("] {
            for (at, _) in text.match_indices(call) {
                let arg = text[at + call.len()..].trim_start();
                let name = arg
                    .strip_prefix('"')
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or(arg.lines().next().unwrap_or_default());
                reads.push(name.to_string());
                if !ALLOWED.contains(&name) {
                    stray.push(format!("{}: {call}\"{name}\")", file.display()));
                }
            }
        }
    }
    assert!(
        stray.is_empty(),
        "crates/*/src may read only {ALLOWED:?} from the environment:\n  {}",
        stray.join("\n  ")
    );
    reads.sort();
    reads.dedup();
    assert_eq!(reads, ["DINAR_OBSERVE", "DINAR_THREADS"]);
}

#[test]
fn nn_calls_no_libm_transcendental() {
    // A training step's transcendentals run through dinar-tensor's own
    // kernels (`Tensor::tanh`, `Tensor::softmax_rows`), so every trained
    // digest is a function of the input bits alone, not of the host's libm.
    // The float methods below are libm calls; `sqrt` and `powi` are not.
    const LIBM: [&str; 13] = [
        "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "sin", "cos", "sin_cos",
        "tanh", "powf",
    ];
    // Calls by those names whose receiver is a `Tensor`, not a float.
    const TENSOR_CALLS: [(&str, &str); 1] = [("activation.rs", "input.tanh(")];
    let mut files = Vec::new();
    rs_files(&Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/nn/src"), &mut files);
    let mut stray = Vec::new();
    let mut tensor_calls = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let stripped = dinar_lint::strip::strip(&text);
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        for (at_line, line) in stripped.lines.iter().enumerate() {
            if stripped.is_test_line(at_line + 1) {
                continue;
            }
            for f in LIBM {
                for call in [format!(".{f}("), format!("f32::{f}("), format!("f64::{f}(")] {
                    for (at, _) in line.match_indices(&call) {
                        let receiver = line[..at]
                            .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                            .next()
                            .unwrap_or_default();
                        let site = format!("{receiver}{call}");
                        if TENSOR_CALLS.contains(&(name, site.as_str())) {
                            tensor_calls.push(site);
                        } else {
                            let at = format!("{}:{}", file.display(), at_line + 1);
                            stray.push(format!("{at}: {}", line.trim()));
                        }
                    }
                }
            }
        }
    }
    assert!(
        stray.is_empty(),
        "crates/nn/src calls libm outside its tests; use dinar-tensor's kernels:\n  {}",
        stray.join("\n  ")
    );
    assert_eq!(
        tensor_calls.len(),
        TENSOR_CALLS.len(),
        "a listed Tensor call is gone: {tensor_calls:?}"
    );
}
