//! The rule catalog: nineteen repo-specific invariants (L001–L022; the IDs of
//! retired rules L009, L014 and L018 are never reused).
//!
//! L001–L008, L017 and L019–L022 are per-line rules: pure functions from
//! preprocessed sources (or manifests) to [`Finding`]s. L010–L013, L015 and
//! L016 are cross-file/token-level semantic rules that run on the engine in
//! [`crate::graph`]. Both layers are driven with inline fixtures by unit
//! tests and with the real workspace by the CLI/umbrella gate.

use crate::strip::{strip, Stripped};
use std::collections::BTreeSet;
use std::fmt;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `unwrap()`/`expect()` in non-test library code.
    L001,
    /// No nondeterminism sources in the deterministic crates.
    L002,
    /// Every public `*Error` enum implements `Display + std::error::Error`.
    L003,
    /// No bare `as` numeric casts in the tensor hot paths.
    L004,
    /// Workspace manifests declare only in-repo dependencies, and every
    /// package opts into the workspace lints.
    L005,
    /// No raw thread spawning outside the worker pool and the threaded
    /// transport.
    L006,
    /// No ambient `Instant::now()` outside the sanctioned clock modules.
    L007,
    /// No bare mpsc `recv()`/`recv_timeout()` in `dinar-fl` outside the
    /// sanctioned deadline helper.
    L008,
    /// Clip dominates noise: in `dinar-defenses`, every path reaching a
    /// Gaussian noise draw must first pass through an L2 clip source.
    L010,
    /// Seed taint: no integer-literal RNG seeds outside tests/benches.
    L011,
    /// Panic reachability: no `panic!`/`unwrap`/`expect` reachable through
    /// the call graph from the FL round loop or the threaded transport.
    L012,
    /// Lock order: nested `Mutex` acquisitions must follow the one global
    /// order.
    L013,
    /// No scalar `rng.normal()`/`normal_with()` draws inside loops in the
    /// defenses/param-plane modules: use the bulk fill API.
    L015,
    /// Ledger coverage: every defense transform entry point must report to
    /// the privacy ledger (`privacy_charge` / `privacy_charge_zero`).
    L016,
    /// Wire confinement: byte-level encode/decode stays inside the
    /// sanctioned wire modules, which in turn use no silently-wrapping
    /// `as` integer narrowing.
    L017,
    /// Env switches: the library crates read only `DINAR_THREADS` and
    /// `DINAR_OBSERVE` from the environment, and still read both.
    L019,
    /// No libm: `dinar-nn` calls no float transcendental outside its tests.
    L020,
    /// Stale allows: every `lint: allow(RULE, …)` names a live rule.
    L021,
    /// No `unsafe` in the code of a doc comment in `crates/*/src`.
    L022,
}

impl Rule {
    /// The rule's stable identifier, as used in `lint: allow(...)`
    /// annotations and `--explain`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
            Rule::L007 => "L007",
            Rule::L008 => "L008",
            Rule::L010 => "L010",
            Rule::L011 => "L011",
            Rule::L012 => "L012",
            Rule::L013 => "L013",
            Rule::L015 => "L015",
            Rule::L016 => "L016",
            Rule::L017 => "L017",
            Rule::L019 => "L019",
            Rule::L020 => "L020",
            Rule::L021 => "L021",
            Rule::L022 => "L022",
        }
    }

    /// Multi-paragraph rationale for `--explain <RULE>`: what the rule
    /// checks, why the invariant is load-bearing, and how to satisfy it.
    /// The first line is the rule's headline, as the CLI table and the
    /// `tests/lint.rs` gate print it.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L001 => {
                "L001 — no unwrap()/expect() in non-test library code.\n\n\
                 A panic in library code tears down whichever thread happened to call it;\n\
                 in the threaded FL transport that is a client mid-round, and the round\n\
                 stalls until the deadline fires. Return a Result, or — when the invariant\n\
                 genuinely cannot fail — document it on the line with\n\
                 `// lint: allow(L001, reason)`. An L001 allow also satisfies L012: the\n\
                 documented invariant covers the transitive reachability rule."
            }
            Rule::L002 => {
                "L002 — no nondeterminism sources in the deterministic crates.\n\n\
                 Every figure in the paper reproduction must replay bit-identically from\n\
                 its seeds. `thread_rng`, `SystemTime::now`, `HashMap` and `HashSet`\n\
                 (whose iteration orders vary per process, so a float sum over one\n\
                 leaks the hash seed into figures) all leak ambient state into results.\n\
                 Use the seeded `dinar_tensor::rng`, the injectable `Clock`, and\n\
                 `BTreeMap`/`BTreeSet`/`Vec`. `Instant::now` is L007's, workspace-wide."
            }
            Rule::L003 => {
                "L003 — public `*Error` enums implement Display + std::error::Error.\n\n\
                 Error types cross crate boundaries; without the std trait impls they\n\
                 cannot compose with `?` conversions or be boxed uniformly at the\n\
                 harness layer."
            }
            Rule::L004 => {
                "L004 — no bare `as` numeric casts in the tensor hot paths.\n\n\
                 `as f32`/`as usize`/`as u32`/`as i32` silently truncate, round or wrap.\n\
                 In the inner loops that every model forward/backward traverses, a\n\
                 silent wrap corrupts results instead of failing. Use the checked\n\
                 helpers in `dinar_tensor::cast`."
            }
            Rule::L005 => {
                "L005 — manifests declare only in-repo deps and opt into the workspace lints.\n\n\
                 The build must stay hermetic: every dependency is a path dependency on\n\
                 a workspace crate, so the repo builds offline and the supply chain is\n\
                 the repo itself. Every package manifest also opts into the workspace\n\
                 lints (`[lints] workspace = true`), which forbid `unsafe` — and so\n\
                 `transmute` — on every target."
            }
            Rule::L006 => {
                "L006 — no raw thread spawning outside the worker pool.\n\n\
                 Ad-hoc threads bypass the pool's deterministic partitioning, its\n\
                 nested-parallelism guard and the per-thread allocation ledger. Route\n\
                 data parallelism through `dinar_tensor::par`, and start a long-lived\n\
                 thread (the threaded transport's clients) with `par::spawn_worker`, so\n\
                 its kernels run inline on it; only the pool's own file is exempt."
            }
            Rule::L007 => {
                "L007 — no `Instant::now()` outside the sanctioned clock modules.\n\n\
                 Direct wall-clock reads cannot be replayed. Telemetry spans, cost\n\
                 accounting and bench profiles must flow through an injectable `Clock`\n\
                 (swap in `ManualClock` for bit-identical reruns) or the bench `timing`\n\
                 helpers; `WallClock` (`crates/metrics/src/clock.rs`) and\n\
                 `crates/bench/src/timing.rs` are the only files that read it."
            }
            Rule::L008 => {
                "L008 — no bare mpsc recv in `dinar-fl` outside the deadline helper.\n\n\
                 A bare blocking `recv()` only errors once every sender has dropped, so\n\
                 one dead client thread hangs the server forever. `DeadlineReceiver`\n\
                 budgets waits against the injectable `Clock` and surfaces ticks for\n\
                 liveness checks; every wait routes through it."
            }
            Rule::L010 => {
                "L010 — clip dominates noise: defenses clip before drawing DP noise (call graph).\n\n\
                 The DP guarantee of the Gaussian mechanism holds only for bounded\n\
                 sensitivity: the update must be L2-clipped before noise scaled to the\n\
                 clip bound is added. Noising an unclipped update spends privacy budget\n\
                 on a guarantee that does not hold — the classic silent DP bug. The rule\n\
                 walks every function in `dinar-defenses` and requires each path that\n\
                 reaches a noise draw (`add_gaussian_noise`, or a raw `normal*`/`randn*`\n\
                 RNG call) to pass a clip source (`clip_l2`, `clip_l2_with_count`,\n\
                 `clip_factor`) first, propagating the obligation through private\n\
                 helpers up to pub/trait-impl entry points. Noise that is deliberately\n\
                 unclipped (e.g. pairwise secure-aggregation masks that cancel in the\n\
                 sum) carries `// lint: allow(L010, reason)` at the draw."
            }
            Rule::L011 => {
                "L011 — seed taint: no integer-literal RNG seeds outside tests/benches.\n\n\
                 Every RNG stream must derive from plumbed configuration\n\
                 (`cfg.seed ^ salt`), so one config seed replays the whole system and\n\
                 sweeps vary it centrally. `seed_from(<integer literal>)` in library\n\
                 code hard-codes a stream no harness can vary; tests and benches are\n\
                 exempt, and protocol constants can be annotated with\n\
                 `// lint: allow(L011, reason)`."
            }
            Rule::L012 => {
                "L012 — panic reachability: no panic reachable from the round loop/transport.\n\n\
                 L001 sees panic sites line by line; L012 extends it transitively: no\n\
                 `panic!`/`.unwrap()`/`.expect(` may be reachable through the call graph\n\
                 from the threaded transport or the server round loop, because a panic\n\
                 there kills a client/server thread mid-round — the failure mode the\n\
                 resilient transport exists to contain. Sites whose invariant is\n\
                 documented with `lint: allow(L001, …)` (or `allow(L012, …)`) are\n\
                 exempt; `assert!`/`unreachable!` are contracts and not matched. The\n\
                 finding message prints one concrete root→site call chain."
            }
            Rule::L013 => {
                "L013 — lock order: nested Mutex acquisitions follow the one global order.\n\n\
                 Two threads acquiring the same two mutexes in opposite orders deadlock\n\
                 under contention and pass every single-threaded test. The workspace\n\
                 has one global acquisition order — telemetry.event_threads <\n\
                 telemetry.event_log < telemetry.registry < telemetry.histo < tensor.par\n\
                 — and nested acquisitions\n\
                 (including those made by callees while a guard is held, with guards\n\
                 conservatively assumed held to end of function) must move strictly down\n\
                 it. Same-class re-entry is flagged too: std Mutex self-deadlocks."
            }
            Rule::L015 => {
                "L015 — no scalar normal() draws inside loops in defenses/data/param-plane code.\n\n\
                 A `rng.normal()`/`normal_with()` call inside a loop walks the\n\
                 sequential xoshiro stream one sample at a time through a scalar\n\
                 f64 Box–Muller — roughly an order of magnitude slower per element\n\
                 than the chunked counter-based fills, and since the defenses noise\n\
                 every parameter in place each round, this is exactly the hot-loop\n\
                 shape that made noise the dominant per-round defense cost (and the\n\
                 dataset generators' row loops the dominant set-up cost). Draw\n\
                 the whole slice at once with `Rng::axpy_normal` /\n\
                 `Rng::fill_normal[_with]` (bit-reproducible, cache-free, and\n\
                 counted by the `tensor.rng.samples` telemetry). A genuinely\n\
                 scalar site (e.g. one draw per loop iteration of a small\n\
                 fixed-count loop) can be annotated\n\
                 `// lint: allow(L015, reason)`."
            }
            Rule::L016 => {
                "L016 — ledger coverage: defense transforms report to the privacy ledger.\n\n\
                 The privacy-budget ledger is only an audit surface if its coverage is\n\
                 total: a defense transform that silently skips reporting makes the\n\
                 audit read \"spends nothing\" when the truth is \"forgot to say\". Every\n\
                 defense entry point in `dinar-defenses` — `transform_upload`,\n\
                 `transform_aggregate`, and the DP optimizer's `step` — must reach\n\
                 `Telemetry::privacy_charge` (real (ε, δ) cost) or\n\
                 `Telemetry::privacy_charge_zero` (an explicit zero-cost entry, the\n\
                 SA/GC case) through the call graph. Both are cheap and no-ops on a\n\
                 disabled sink, so there is no fast-path excuse. A transform that\n\
                 genuinely cannot touch member data can annotate a body line with\n\
                 `// lint: allow(L016, reason)`."
            }
            Rule::L017 => {
                "L017 — wire confinement: byte codecs only in `wire.rs`, no `as` narrowing there.\n\n\
                 The wire format's safety story rests on one audited trust boundary:\n\
                 every byte-level encode/decode lives in the sanctioned wire module\n\
                 (`crates/tensor/src/wire.rs`), where length headers are bounds-checked\n\
                 before allocation and every integer conversion is a checked `try_from`.\n\
                 A stray `to_le_bytes`/`from_le_bytes` elsewhere is a second, unaudited\n\
                 codec waiting to ship a truncation bug; a silently-wrapping `as u32`\n\
                 inside a codec path is how a 5 GB tensor writes a length header of the\n\
                 wrong size and a hostile header becomes a giant allocation. Outside the\n\
                 wire modules, build on `dinar_tensor::wire::{ByteWriter, ByteReader}`;\n\
                 inside them, convert with `try_from` or the checked `cast` helpers. A\n\
                 genuinely-safe site can be annotated `// lint: allow(L017, reason)`."
            }
            Rule::L019 => {
                "L019 — env switches: library crates read only DINAR_THREADS and DINAR_OBSERVE.\n\n\
                 The pool width (`DINAR_THREADS`) and the observability directory\n\
                 (`DINAR_OBSERVE`) are the only settings the library crates read from\n\
                 the environment. A new knob becomes a parameter of an existing\n\
                 mechanism instead: every other `env::var(`/`env::var_os(` in\n\
                 `crates/*/src` is a finding, and so is either switch no longer being\n\
                 read (the list would be stale)."
            }
            Rule::L020 => {
                "L020 — no libm: `dinar-nn` calls no float transcendental outside its tests.\n\n\
                 A training step's transcendentals run through dinar-tensor's own\n\
                 kernels (`Tensor::tanh`, `Tensor::softmax_rows`), so every trained\n\
                 digest is a function of the input bits alone, not of the host's libm.\n\
                 Outside its tests, `crates/nn/src` may not call a float\n\
                 `exp`/`exp2`/`exp_m1`/`ln`/`ln_1p`/`log*`/`sin`/`cos`/`sin_cos`/`tanh`/\n\
                 `powf` (`sqrt` and `powi` are not libm calls). A call by one of those\n\
                 names whose receiver is a `Tensor` carries\n\
                 `// lint: allow(L020, reason)`; an L020 allow that covers no such call\n\
                 is itself a finding, so the exemptions cannot go stale."
            }
            Rule::L021 => {
                "L021 — stale allows: every `lint: allow(RULE, …)` names a live rule.\n\n\
                 `// lint: allow(RULE, reason)` is the engine's only exemption, so an\n\
                 annotation naming a rule that no longer exists (a retired L009, L014\n\
                 or L018) documents an invariant nothing checks. Delete it, or name the\n\
                 live rule it meant. This finding cannot itself be allowed."
            }
            Rule::L022 => {
                "L022 — no `unsafe` in the code of a doc comment in `crates/*/src`.\n\n\
                 Every target forbids `unsafe` through `[workspace.lints]`, but this\n\
                 toolchain does not apply those lints to doctests, so an `unsafe`\n\
                 block in a fenced example under `///` or `//!` compiles and runs.\n\
                 The rule reads the fenced code of every doc comment (a fence ends\n\
                 with its comment block) and flags the word `unsafe` there; prose\n\
                 outside a fence may name it. An example that needs `unsafe` has no\n\
                 place in a workspace that forbids it."
            }
        }
    }

    /// All rules, in catalog order.
    pub fn all() -> [Rule; 19] {
        [
            Rule::L001,
            Rule::L002,
            Rule::L003,
            Rule::L004,
            Rule::L005,
            Rule::L006,
            Rule::L007,
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
            Rule::L021,
            Rule::L022,
        ]
    }

    /// Looks a rule up by its `id()` string.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a specific location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule.id(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// Crates whose behaviour must be a pure function of their seeds. `bench`
/// measures real time by design and `lint` is tooling; everything else in
/// the workspace feeds figures that must replay bit-identically.
pub const DETERMINISTIC_CRATES: [&str; 10] = [
    "tensor",
    "nn",
    "core",
    "defenses",
    "attacks",
    "consensus",
    "fl",
    "metrics",
    "data",
    "telemetry",
];

/// Tensor hot-path files subject to L004.
pub const HOT_PATHS: [&str; 2] = ["crates/tensor/src/tensor.rs", "crates/tensor/src/conv.rs"];

/// Nondeterminism tokens banned by L002. `HashMap` and `HashSet` are
/// banned wholesale: their iteration order varies per process, so a float
/// sum over one leaks the hash seed into figures, and deterministic crates
/// use `BTreeMap`/`BTreeSet`/`Vec` (or carry an `// lint: allow(L002,
/// reason)`). `Instant::now` is [`L007_TOKEN`]'s alone.
const L002_TOKENS: [&str; 4] = ["thread_rng", "SystemTime::now", "HashMap", "HashSet"];

/// Bare-cast tokens banned by L004 in the hot paths. Lossless widenings
/// (`as f64`, `as u64` from `u32`, …) are allowed; these four either
/// truncate, round, or wrap silently.
const L004_TOKENS: [&str; 4] = ["as f32", "as usize", "as u32", "as i32"];

/// Raw-threading tokens banned by L006. The catalog matches both the
/// `std::thread::` and `thread::` spellings because the token is
/// word-bounded on its left at the `::` separator.
const L006_TOKENS: [&str; 2] = ["thread::spawn", "thread::scope"];

/// Files allowed to spawn threads directly: the deterministic worker pool
/// itself, which owns every compute thread — the threaded transport's
/// long-lived client threads included, through `par::spawn_worker`.
pub const L006_EXEMPT: [&str; 1] = ["crates/tensor/src/par.rs"];

/// The wall-clock token banned by L007 everywhere except [`L007_EXEMPT`].
/// L007 is repo-wide: even benchmarks must read time through an injectable
/// [`Clock`](../../metrics/src/clock.rs) or the bench timing helpers so
/// profiles replay under `ManualClock`.
const L007_TOKEN: &str = "Instant::now";

/// The two files that read the wall clock: `WallClock` (the one `Clock`
/// over real time) and the bench measurement loop.
pub const L007_EXEMPT: [&str; 2] = ["crates/metrics/src/clock.rs", "crates/bench/src/timing.rs"];

/// The one `dinar-fl` module allowed to call mpsc `recv()`/`recv_timeout()`
/// directly: the deadline helper every other wait must route through. A
/// bare blocking `recv()` only errors once *every* sender has dropped, so
/// one dead client thread hangs the server forever — the exact bug L008
/// exists to keep fixed.
pub const L008_EXEMPT: &str = "crates/fl/src/deadline.rs";

/// The sanctioned byte-codec modules: the only `/src/` files allowed to
/// spell byte-level serialization (`to_le_bytes`/`from_le_bytes` and the
/// big-endian variants), and conversely the files in which L017 bans
/// silently-wrapping `as` integer narrowing outright — codec paths must
/// convert with `try_from` or the checked `cast` helpers so corrupt length
/// headers surface as typed errors, never as wrapped offsets.
pub const L017_WIRE_FILES: [&str; 1] = ["crates/tensor/src/wire.rs"];

/// Byte-serialization tokens confined to [`L017_WIRE_FILES`] by L017.
const L017_BYTE_TOKENS: [&str; 4] = [
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "from_be_bytes",
];

/// Narrowing-cast tokens banned *inside* [`L017_WIRE_FILES`] by L017.
/// Wider than L004's hot-path list: in a codec, even `as usize` is a
/// 32-bit-platform truncation on a wire-supplied length.
const L017_NARROWING_TOKENS: [&str; 7] = [
    "as u8", "as u16", "as u32", "as i8", "as i16", "as i32", "as usize",
];

/// The environment variables the library crates may read (L019).
pub const ENV_SWITCHES: [&str; 2] = ["DINAR_THREADS", "DINAR_OBSERVE"];

/// The environment reads L019 inspects.
const L019_CALLS: [&str; 2] = ["env::var(", "env::var_os("];

/// Float methods that are libm calls, banned from `dinar-nn` by L020
/// (`sqrt` and `powi` are not libm calls).
const L020_LIBM: [&str; 13] = [
    "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "sin", "cos", "sin_cos",
    "tanh", "powf",
];

/// Is the byte at `idx` the start of a word-bounded occurrence of `needle`?
fn word_bounded(line: &str, idx: usize, needle: &str) -> bool {
    let before_ok = idx == 0
        || line[..idx]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
    let after = idx + needle.len();
    let after_ok = line[after..]
        .chars()
        .next()
        .is_none_or(|c| !c.is_alphanumeric() && c != '_');
    before_ok && after_ok
}

/// All word-bounded occurrences of `needle` in `line`.
fn occurrences(line: &str, needle: &str) -> usize {
    line.match_indices(needle)
        .filter(|&(idx, _)| word_bounded(line, idx, needle))
        .count()
}

/// Runs every per-file rule against one preprocessed source file.
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let stripped = strip(source);
    let mut findings = Vec::new();
    check_l001(path, &stripped, &mut findings);
    check_l002(path, &stripped, &mut findings);
    check_l004(path, &stripped, &mut findings);
    check_l006(path, &stripped, &mut findings);
    check_l007(path, &stripped, &mut findings);
    check_l008(path, &stripped, &mut findings);
    check_l017(path, &stripped, &mut findings);
    check_l020(path, &stripped, &mut findings);
    check_l021(path, &stripped, &mut findings);
    check_l022(path, source, &stripped, &mut findings);
    findings
}

/// The per-line loop every line rule shares: one `rule` finding per message
/// `hits` returns for a line, skipping `#[cfg(test)]` code and lines an
/// allow for `rule` covers.
fn scan(
    path: &str,
    stripped: &Stripped,
    rule: Rule,
    findings: &mut Vec<Finding>,
    hits: impl Fn(&str) -> Vec<String>,
) {
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed(rule.id(), n) {
            continue;
        }
        for message in hits(line) {
            findings.push(Finding {
                rule,
                file: path.to_string(),
                line: n,
                message,
            });
        }
    }
}

/// One message per word-bounded occurrence of any of `tokens` in `line`.
fn token_hits(line: &str, tokens: &[&str], message: impl Fn(&str) -> String) -> Vec<String> {
    let mut hits = Vec::new();
    for &token in tokens {
        for _ in 0..occurrences(line, token) {
            hits.push(message(token));
        }
    }
    hits
}

/// L001: `.unwrap()` / `.expect(` in non-test library code.
fn check_l001(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") {
        return; // integration tests and examples are exempt
    }
    scan(path, stripped, Rule::L001, findings, |line| {
        let hits = line.matches(".unwrap()").count() + line.matches(".expect(").count();
        let message = "unwrap()/expect() in library code; return a Result or document \
                       the invariant with `lint: allow(L001, reason)`";
        vec![message.to_string(); hits]
    });
}

/// L002: nondeterminism sources in deterministic crates.
fn check_l002(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    let in_deterministic = DETERMINISTIC_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if !in_deterministic {
        return;
    }
    scan(path, stripped, Rule::L002, findings, |line| {
        token_hits(line, &L002_TOKENS, |token| {
            format!(
                "`{token}` is a nondeterminism source; inject a seeded/manual \
                 substitute or annotate `lint: allow(L002, reason)`"
            )
        })
    });
}

/// L004: bare numeric casts in the tensor hot paths.
fn check_l004(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !HOT_PATHS.contains(&path) {
        return;
    }
    scan(path, stripped, Rule::L004, findings, |line| {
        token_hits(line, &L004_TOKENS, |token| {
            format!(
                "bare `{token}` cast in a tensor hot path; use the checked \
                 helpers in dinar_tensor::cast"
            )
        })
    });
}

/// L006: raw thread spawning outside the worker pool. Ad-hoc threads
/// bypass the pool's deterministic partitioning, its nested-parallelism
/// guard, and the per-thread allocation ledger, so all data parallelism
/// must go through `dinar_tensor::par` (see [`L006_EXEMPT`]).
fn check_l006(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") || L006_EXEMPT.contains(&path) {
        return;
    }
    scan(path, stripped, Rule::L006, findings, |line| {
        token_hits(line, &L006_TOKENS, |token| {
            format!(
                "`{token}` outside the worker pool; route parallelism through \
                 dinar_tensor::par or annotate `lint: allow(L006, reason)`"
            )
        })
    });
}

/// L007: ambient `Instant::now()` outside the sanctioned clock modules.
/// Direct wall-clock reads cannot be replayed: telemetry spans and bench
/// profiles must flow through an injectable `Clock` (swap in `ManualClock`
/// for bit-identical reruns) or the bench `timing` helpers.
fn check_l007(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") || L007_EXEMPT.contains(&path) {
        return;
    }
    scan(path, stripped, Rule::L007, findings, |line| {
        token_hits(line, &[L007_TOKEN], |_| {
            "`Instant::now` outside a sanctioned clock module; inject a \
             `Clock` (dinar_telemetry) or annotate `lint: allow(L007, reason)`"
                .to_string()
        })
    });
}

/// L008: bare mpsc receives in `dinar-fl` outside the deadline helper.
/// `DeadlineReceiver` is the sanctioned wait: it drains pending messages,
/// budgets against the injectable `Clock`, and surfaces ticks for liveness
/// checks — a bare `recv()` does none of that and reintroduces the
/// one-dead-client-hangs-the-round bug. (Matched as plain substrings, like
/// L001's `.unwrap()`: the leading `.` defeats word-bounding.)
fn check_l008(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.starts_with("crates/fl/src/") || path == L008_EXEMPT {
        return;
    }
    scan(path, stripped, Rule::L008, findings, |line| {
        let hits = line.matches(".recv()").count() + line.matches(".recv_timeout(").count();
        let message = "bare mpsc recv in dinar-fl; wait through \
                       dinar_fl::deadline::{DeadlineReceiver, recv_blocking} or \
                       annotate `lint: allow(L008, reason)`";
        vec![message.to_string(); hits]
    });
}

/// L017: byte-level encode/decode confined to the sanctioned wire modules
/// ([`L017_WIRE_FILES`]); inside those modules, no silently-wrapping `as`
/// integer narrowing. Both halves are word-bounded token scans, like L002.
fn check_l017(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") {
        return; // integration tests, benches and examples are exempt
    }
    let in_wire = L017_WIRE_FILES.contains(&path);
    scan(path, stripped, Rule::L017, findings, |line| {
        if in_wire {
            token_hits(line, &L017_NARROWING_TOKENS, |token| {
                format!(
                    "silently-wrapping `{token}` in a wire codec path; convert \
                     with `try_from` or the checked `cast` helpers, or annotate \
                     `lint: allow(L017, reason)`"
                )
            })
        } else {
            token_hits(line, &L017_BYTE_TOKENS, |token| {
                format!(
                    "`{token}` outside the sanctioned wire module; byte-level \
                     serialization belongs in dinar_tensor::wire (ByteWriter/\
                     ByteReader), or annotate `lint: allow(L017, reason)`"
                )
            })
        }
    });
}

/// The libm calls on one line: `.f(`, `f32::f(` and `f64::f(` for each
/// name in [`L020_LIBM`], as plain substrings like L008's.
fn libm_calls(line: &str) -> Vec<String> {
    let mut calls = Vec::new();
    for f in L020_LIBM {
        for call in [format!(".{f}("), format!("f32::{f}("), format!("f64::{f}(")] {
            calls.extend(line.matches(&call).map(|_| call.clone()));
        }
    }
    calls
}

/// L020: float transcendentals in `dinar-nn` outside its tests. An L020
/// allow marks a call whose receiver is a `Tensor`; one that covers no such
/// call (on its line or the next) is reported too, so the exemptions cannot
/// go stale.
fn check_l020(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.starts_with("crates/nn/src/") {
        return;
    }
    scan(path, stripped, Rule::L020, findings, |line| {
        let message = |call: &String| {
            format!(
                "`{call}` is a libm call; use dinar-tensor's kernels, or \
                 annotate a `Tensor` receiver with `lint: allow(L020, reason)`"
            )
        };
        libm_calls(line).iter().map(message).collect()
    });
    let covers = |n: usize| !stripped.is_test_line(n) && !libm_calls(stripped.line(n)).is_empty();
    for (&n, rules) in &stripped.allows {
        if rules.contains("L020") && !covers(n) && !covers(n + 1) {
            findings.push(Finding {
                rule: Rule::L020,
                file: path.to_string(),
                line: n,
                message: "`lint: allow(L020, …)` covers no libm call; delete it".to_string(),
            });
        }
    }
}

/// L021: an allow annotation naming a rule ID (`L` and three digits) that
/// is not in [`Rule::all`]. Placeholders such as `allow(RULE, reason)` in
/// prose are not IDs and pass.
fn check_l021(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    for (&n, rules) in &stripped.allows {
        for rule in rules {
            let is_id = rule.len() == 4
                && rule.starts_with('L')
                && rule[1..].bytes().all(|b| b.is_ascii_digit());
            if is_id && Rule::from_id(rule).is_none() {
                findings.push(Finding {
                    rule: Rule::L021,
                    file: path.to_string(),
                    line: n,
                    message: format!(
                        "`lint: allow({rule}, …)` names no live rule; delete it or name \
                         the rule it means"
                    ),
                });
            }
        }
    }
}

/// L022: the word `unsafe` inside a fenced Rust block of a `///` or `//!`
/// doc comment in `crates/*/src` — the blocks rustdoc compiles as doctests.
/// Comments are gone from the stripped lines, so this reads the raw source;
/// a fence closes at its closing ```` ``` ```` or where its comment block
/// ends.
fn check_l022(path: &str, source: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !(path.starts_with("crates/") && path.contains("/src/")) {
        return;
    }
    // `None` outside a fence, else whether the open fence holds Rust.
    let mut fence: Option<bool> = None;
    for (i, line) in source.lines().enumerate() {
        let n = i + 1;
        let trimmed = line.trim_start();
        let doc = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
            .filter(|doc| !doc.starts_with('/'));
        let Some(doc) = doc else {
            fence = None;
            continue;
        };
        if let Some(info) = doc.trim_start().strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(info.split(',').all(|tag| is_rust_fence_tag(tag.trim()))),
            };
        } else if fence == Some(true)
            && occurrences(doc, "unsafe") > 0
            && !stripped.is_test_line(n)
            && !stripped.is_allowed(Rule::L022.id(), n)
        {
            findings.push(Finding {
                rule: Rule::L022,
                file: path.to_string(),
                line: n,
                message: "`unsafe` in a doc example; doctests escape the workspace's \
                          `unsafe_code = \"forbid\"`, so the example must not need it"
                    .to_string(),
            });
        }
    }
}

/// Whether a fence's info-string tag leaves the block a Rust doctest: no
/// tag, `rust`, or one of rustdoc's test attributes.
fn is_rust_fence_tag(tag: &str) -> bool {
    const ATTRIBUTES: [&str; 5] = ["rust", "ignore", "no_run", "should_panic", "compile_fail"];
    tag.is_empty() || ATTRIBUTES.contains(&tag) || tag.starts_with("edition")
}

/// L019: the library crates read only [`ENV_SWITCHES`] from the
/// environment, and still read each of them. The scan is per line over
/// `crates/*/src` (test modules included: a test's env read is a knob too);
/// the tally needs the whole workspace, so it takes every source at once,
/// like [`check_l003`].
pub fn check_l019(sources: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut read = BTreeSet::new();
    for (path, source) in sources {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        let stripped = strip(source);
        for ((i, line), raw) in stripped.lines.iter().enumerate().zip(source.lines()) {
            for call in L019_CALLS {
                for (at, _) in line.match_indices(call) {
                    // The stripped line blanks the string literal; read the
                    // name from the raw line at the same character column.
                    let column = line[..at].chars().count() + call.len();
                    let rest: String = raw.chars().skip(column).collect();
                    let arg = rest.trim_start();
                    let name = arg
                        .strip_prefix('"')
                        .and_then(|quoted| quoted.split('"').next())
                        .unwrap_or(arg);
                    if ENV_SWITCHES.contains(&name) {
                        read.insert(name.to_string());
                    } else if !stripped.is_allowed("L019", i + 1) {
                        findings.push(Finding {
                            rule: Rule::L019,
                            file: path.clone(),
                            line: i + 1,
                            message: format!(
                                "reads `{name}` from the environment; the library \
                                 crates read only {ENV_SWITCHES:?}"
                            ),
                        });
                    }
                }
            }
        }
    }
    for switch in ENV_SWITCHES {
        if !read.contains(switch) {
            findings.push(Finding {
                rule: Rule::L019,
                file: "crates".to_string(),
                line: 0,
                message: format!("no library crate reads `{switch}` any more; drop it"),
            });
        }
    }
    findings
}

/// L003: every `pub enum *Error` must have `Display` and `std::error::Error`
/// impls somewhere in the same crate. Takes all of one crate's sources at
/// once because the impls usually live beside the enum but may not.
pub fn check_l003(sources: &[(String, String)]) -> Vec<Finding> {
    let mut enums: Vec<(String, usize, String)> = Vec::new(); // (file, line, name)
    let mut impl_text = String::new();
    for (path, source) in sources {
        let stripped = strip(source);
        for (i, line) in stripped.lines.iter().enumerate() {
            if let Some(pos) = line.find("pub enum ") {
                let name: String = line[pos + "pub enum ".len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.ends_with("Error") {
                    enums.push((path.clone(), i + 1, name));
                }
            }
            if line.contains("impl") {
                impl_text.push_str(line);
                impl_text.push('\n');
            }
        }
    }
    let mut findings = Vec::new();
    for (file, line, name) in enums {
        let has_display = impl_text.contains(&format!("Display for {name}"));
        let has_error = impl_text.contains(&format!("Error for {name}"));
        if !(has_display && has_error) {
            let missing = match (has_display, has_error) {
                (false, false) => "Display and std::error::Error",
                (false, true) => "Display",
                (true, false) => "std::error::Error",
                (true, true) => unreachable!(),
            };
            findings.push(Finding {
                rule: Rule::L003,
                file,
                line,
                message: format!("public error enum `{name}` is missing impl(s): {missing}"),
            });
        }
    }
    findings
}

/// L005: a manifest may declare only dependencies whose names appear in
/// `in_repo` (the set of workspace package names), `[workspace.dependencies]`
/// entries must be `path` dependencies, and a package manifest must opt into
/// the workspace lints (`[lints] workspace = true`, which forbid `unsafe`).
pub fn check_manifest(path: &str, manifest: &str, in_repo: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    let mut package_line = None;
    let mut opts_into_lints = false;
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            if section == "package" {
                package_line = Some(i + 1);
            }
            continue;
        }
        if section == "lints" && line.replace(' ', "") == "workspace=true" {
            opts_into_lints = true;
        }
        let dep_section = matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies"
        ) || section == "workspace.dependencies";
        if !dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        if !in_repo.contains(&name) {
            findings.push(Finding {
                rule: Rule::L005,
                file: path.to_string(),
                line: i + 1,
                message: format!(
                    "dependency `{name}` is not an in-repo workspace package; the build \
                     must stay hermetic"
                ),
            });
        } else if section == "workspace.dependencies" && !line.contains("path") {
            findings.push(Finding {
                rule: Rule::L005,
                file: path.to_string(),
                line: i + 1,
                message: format!("workspace dependency `{name}` must be a path dependency"),
            });
        }
    }
    if let Some(line) = package_line.filter(|_| !opts_into_lints) {
        findings.push(Finding {
            rule: Rule::L005,
            file: path.to_string(),
            line,
            message: "package does not opt into the workspace lints; add `[lints]` with \
                      `workspace = true`"
                .to_string(),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l001_flags_library_unwrap_but_not_tests_or_allows() {
        let src = "fn lib() { x.unwrap(); y.expect(\"m\"); }\n\
                   fn ok() { z.unwrap_or(0); } // lint: allow(L001, not needed)\n\
                   #[cfg(test)]\nmod tests { fn t() { q.unwrap(); } }\n";
        let findings = check_source("crates/nn/src/model.rs", src);
        let l001: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L001).collect();
        assert_eq!(l001.len(), 2, "{l001:?}");
        assert!(l001.iter().all(|f| f.line == 1));
    }

    #[test]
    fn l001_skips_non_src_paths() {
        let findings = check_source("tests/end_to_end.rs", "fn t() { x.unwrap(); }");
        assert!(findings.iter().all(|f| f.rule != Rule::L001));
    }

    #[test]
    fn l002_flags_nondeterminism_in_deterministic_crates_only() {
        let src = "fn f() { let s: HashSet<u32> = xs; let m: HashMap<u32, u32> = HashMap::new(); }";
        let hits = check_source("crates/fl/src/x.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L002)
            .count();
        assert_eq!(hits, 3); // HashSet + 2×HashMap
        let bench = check_source("crates/bench/src/x.rs", src);
        assert!(bench.iter().all(|f| f.rule != Rule::L002));
    }

    #[test]
    fn l002_allow_annotation_suppresses() {
        let src = "// lint: allow(L002, order-free by design)\nlet s = HashSet::new();\n";
        let findings = check_source("crates/metrics/src/cost.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L002),
            "{findings:?}"
        );
    }

    #[test]
    fn l002_ignores_comments_and_strings() {
        let src = "// HashMap is banned\nlet s = \"HashMap\";\n";
        let findings = check_source("crates/tensor/src/x.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L002));
    }

    #[test]
    fn l003_detects_missing_impls() {
        let bad = vec![(
            "crates/x/src/error.rs".to_string(),
            "pub enum XError { A }\nimpl fmt::Display for XError { }".to_string(),
        )];
        let findings = check_l003(&bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("std::error::Error"));

        let good = vec![(
            "crates/x/src/error.rs".to_string(),
            "pub enum XError { A }\nimpl fmt::Display for XError { }\n\
             impl std::error::Error for XError {}"
                .to_string(),
        )];
        assert!(check_l003(&good).is_empty());
    }

    #[test]
    fn l003_ignores_non_error_enums_and_private_enums() {
        let sources = vec![(
            "crates/x/src/lib.rs".to_string(),
            "pub enum Shape { A }\nenum InnerError { B }".to_string(),
        )];
        assert!(check_l003(&sources).is_empty());
    }

    #[test]
    fn l004_flags_bare_casts_in_hot_paths_only() {
        let src =
            "fn f(x: f32, n: usize) { let a = x as usize; let b = n as f32; let c = n as f64; }";
        let hot = check_source("crates/tensor/src/tensor.rs", src);
        assert_eq!(hot.iter().filter(|f| f.rule == Rule::L004).count(), 2);
        let cold = check_source("crates/tensor/src/rng.rs", src);
        assert!(cold.iter().all(|f| f.rule != Rule::L004));
    }

    #[test]
    fn l004_allow_annotation_suppresses() {
        let src = "let a = x as usize; // lint: allow(L004, bounds-checked above)";
        let findings = check_source("crates/tensor/src/conv.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L004));
    }

    #[test]
    fn l006_flags_raw_threads_outside_the_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| {}); }";
        for path in [
            "crates/consensus/src/network.rs",
            "crates/fl/src/transport.rs",
        ] {
            let hits = check_source(path, src)
                .iter()
                .filter(|f| f.rule == Rule::L006)
                .count();
            assert_eq!(hits, 2, "{path}");
        }
        for exempt in L006_EXEMPT {
            let findings = check_source(exempt, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L006), "{exempt}");
        }
    }

    #[test]
    fn l006_skips_tests_and_allows() {
        let src = "let h = thread::spawn(f); // lint: allow(L006, watchdog by design)\n\
                   #[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }\n";
        let findings = check_source("crates/fl/src/clock.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L006),
            "{findings:?}"
        );
    }

    #[test]
    fn l007_flags_ambient_wall_clock_outside_clock_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        // Only the two sanctioned files are exempt: not any other `clock.rs`
        // or the telemetry crate. L002 no longer doubles the finding.
        for path in [
            "crates/metrics/src/cost.rs",
            "crates/telemetry/src/x.rs",
            "crates/fl/src/clock.rs",
        ] {
            let findings = check_source(path, src);
            let l007 = findings.iter().filter(|f| f.rule == Rule::L007).count();
            assert_eq!(l007, 1, "{path}");
            assert!(findings.iter().all(|f| f.rule != Rule::L002), "{path}");
        }
        for exempt in L007_EXEMPT {
            let findings = check_source(exempt, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L007), "{exempt}");
        }
    }

    #[test]
    fn l007_allow_annotation_and_tests_suppress() {
        let src = "// lint: allow(L007, wall time by design)\nlet t = Instant::now();\n\
                   #[cfg(test)]\nmod tests { fn t() { let x = Instant::now(); } }\n";
        let findings = check_source("crates/bench/src/harness.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L007),
            "{findings:?}"
        );
    }

    #[test]
    fn l008_flags_bare_recv_in_fl_outside_deadline_helper() {
        let src = "fn f(rx: &Receiver<u32>) { let m = rx.recv(); \
                   let t = rx.recv_timeout(d); let ok = rx.try_recv(); }";
        let hits = check_source("crates/fl/src/transport.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L008)
            .count();
        assert_eq!(hits, 2); // try_recv is non-blocking and allowed
                             // The sanctioned helper and other crates are exempt.
        let helper = check_source(L008_EXEMPT, src);
        assert!(helper.iter().all(|f| f.rule != Rule::L008));
        let elsewhere = check_source("crates/consensus/src/network.rs", src);
        assert!(elsewhere.iter().all(|f| f.rule != Rule::L008));
    }

    #[test]
    fn l008_skips_tests_and_allows() {
        let src = "let m = rx.recv(); // lint: allow(L008, shutdown path has no deadline)\n\
                   #[cfg(test)]\nmod tests { fn t() { let m = rx.recv(); } }\n";
        let findings = check_source("crates/fl/src/system.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L008),
            "{findings:?}"
        );
    }

    #[test]
    fn l017_confines_byte_codecs_to_wire_modules() {
        let src = "fn f(x: u32) { let b = x.to_le_bytes(); \
                   let y = u32::from_le_bytes(b); let z = x.to_be_bytes(); }";
        let hits = check_source("crates/fl/src/transport.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L017)
            .count();
        assert_eq!(hits, 3);
        // The sanctioned wire module may serialize bytes freely.
        for wire in L017_WIRE_FILES {
            let findings = check_source(wire, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L017), "{wire}");
        }
        // Integration tests are exempt (they exercise corrupt streams).
        let findings = check_source("tests/wire_plane.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L017));
    }

    #[test]
    fn l017_bans_narrowing_casts_inside_wire_modules() {
        let src = "fn f(n: usize) { let a = n as u32; let b = n as u64; \
                   let c = len as usize; let d = x as i8; }";
        let hits = check_source("crates/tensor/src/wire.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L017)
            .count();
        assert_eq!(hits, 3); // `as u64` widens and is allowed
                             // Outside the wire module, narrowing is L004's (hot-path) concern.
        let findings = check_source("crates/fl/src/netsim.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L017));
    }

    #[test]
    fn l017_skips_tests_and_allows() {
        let src = "let b = x.to_le_bytes(); // lint: allow(L017, test fixture builder)\n\
                   #[cfg(test)]\nmod tests { fn t() { let b = x.to_le_bytes(); } }\n";
        let findings = check_source("crates/metrics/src/trace.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L017),
            "{findings:?}"
        );
        let src = "let n = len as usize; // lint: allow(L017, bounded just above)\n\
                   #[cfg(test)]\nmod tests { fn t() { let n = len as u32; } }\n";
        let findings = check_source("crates/tensor/src/wire.rs", src);
        assert!(
            findings.iter().all(|f| f.rule != Rule::L017),
            "{findings:?}"
        );
    }

    #[test]
    fn l019_allows_only_the_two_switches_and_requires_both() {
        let lib = |body: &str| ("crates/tensor/src/par.rs".to_string(), body.to_string());
        let both = [
            lib("let w = std::env::var(\"DINAR_THREADS\");"),
            lib("let d = env::var_os(\"DINAR_OBSERVE\"); // env::var(\"X\") in a comment"),
        ];
        assert!(check_l019(&both).is_empty());

        let mut stray = both.to_vec();
        stray.push(lib(
            "let a = env::var(\"DINAR_FAST\");\n#[cfg(test)]\nmod t { fn f() { env::var_os(K); } }",
        ));
        // Tests outside crates/*/src may read what they like.
        stray.push((
            "tests/golden.rs".to_string(),
            "env::var_os(\"UPDATE_GOLDEN\");".to_string(),
        ));
        let findings = check_l019(&stray);
        let lines: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(lines, [(Rule::L019, 1), (Rule::L019, 3)], "{findings:?}");

        let missing = check_l019(&both[..1]);
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(missing[0].message.contains("DINAR_OBSERVE"));
    }

    #[test]
    fn l020_flags_libm_calls_in_nn_outside_tests() {
        let src = "fn f(x: f32) -> f32 { x.exp() + f32::ln(x) + f64::powf(2.0, 3.0) as f32 }\n\
                   fn g(x: f32) -> f32 { x.sqrt() + x.powi(2) + x.exp_m1() }\n\
                   #[cfg(test)]\nmod tests { fn t(x: f32) -> f32 { x.tanh() } }\n";
        let l020 = |path| -> Vec<usize> {
            check_source(path, src)
                .iter()
                .filter(|f| f.rule == Rule::L020)
                .map(|f| f.line)
                .collect()
        };
        assert_eq!(l020("crates/nn/src/loss.rs"), [1, 1, 1, 2]);
        assert!(l020("crates/tensor/src/cbrng.rs").is_empty());
    }

    #[test]
    fn l020_allows_must_cover_a_call() {
        let src = "let out = input.tanh(); // lint: allow(L020, Tensor::tanh, not libm)\n\
                   // lint: allow(L020, Tensor::exp, not libm)\n\
                   let e = t.exp();\n\
                   let s = x.sqrt(); // lint: allow(L020, left behind)\n";
        let findings = check_source("crates/nn/src/activation.rs", src);
        let l020: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L020).collect();
        assert_eq!(l020.len(), 1, "{l020:?}");
        assert_eq!(l020[0].line, 4);
        assert!(l020[0].message.contains("covers no"));
    }

    #[test]
    fn l022_flags_unsafe_in_doc_examples_only() {
        let src = "//! Prose may say unsafe.\n\
                   //! ```\n\
                   //! let x = unsafe { f() };\n\
                   //! ```\n\
                   /// ```text\n\
                   /// unsafe in a text block is prose\n\
                   /// ```\n\
                   /// ```rust,no_run\n\
                   /// unsafe fn g() {}\n\
                   fn h() {}\n\
                   /// unsafe_code is another word; a fence ends with its comment\n\
                   //// ```\n\
                   //// unsafe in a plain comment\n\
                   // unsafe in a line comment\n";
        let findings = check_source("crates/tensor/src/kernels.rs", src);
        let lines: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::L022)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [3, 9]);
        let outside = check_source("tests/lint.rs", src);
        assert!(outside.iter().all(|f| f.rule != Rule::L022));
    }

    #[test]
    fn l021_flags_allows_naming_retired_rules() {
        let src = "let t = h.clone(); // lint: allow(L009, telemetry handle)\n\
                   let u = x.unwrap(); // lint: allow(L001, checked above)\n\
                   // Prose: annotate with `lint: allow(RULE, reason)`.\n\
                   #[cfg(test)]\nmod t { fn f() {} } // lint: allow(L014, old)\n";
        let findings = check_source("crates/fl/src/system.rs", src);
        let l021: Vec<_> = findings.iter().filter(|f| f.rule == Rule::L021).collect();
        assert_eq!(l021.len(), 2, "{l021:?}");
        assert_eq!((l021[0].line, l021[1].line), (1, 5));
        assert!(l021[0].message.contains("L009"));
        assert!(
            findings.iter().all(|f| f.rule != Rule::L001),
            "{findings:?}"
        );
    }

    #[test]
    fn l005_flags_registry_deps() {
        let mut in_repo = BTreeSet::new();
        in_repo.insert("dinar-tensor".to_string());
        let manifest = "[package]\nname = \"x\"\n[dependencies]\n\
                        dinar-tensor.workspace = true\nserde = \"1\"\n\
                        [lints]\nworkspace = true\n";
        let findings = check_manifest("crates/x/Cargo.toml", manifest, &in_repo);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("serde"));
    }

    #[test]
    fn l005_requires_path_workspace_deps() {
        let mut in_repo = BTreeSet::new();
        in_repo.insert("dinar-tensor".to_string());
        let good = "[workspace.dependencies]\ndinar-tensor = { path = \"crates/tensor\" }\n";
        assert!(check_manifest("Cargo.toml", good, &in_repo).is_empty());
        let bad = "[workspace.dependencies]\ndinar-tensor = \"0.1\"\n";
        assert_eq!(check_manifest("Cargo.toml", bad, &in_repo).len(), 1);
    }

    #[test]
    fn l005_requires_packages_to_opt_into_workspace_lints() {
        let in_repo = BTreeSet::new();
        let bare = "[package]\nname = \"x\"\n";
        let findings = check_manifest("crates/x/Cargo.toml", bare, &in_repo);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);
        let other = "[package]\nname = \"x\"\n[lints]\nworkspace = false\n";
        assert_eq!(
            check_manifest("crates/x/Cargo.toml", other, &in_repo).len(),
            1
        );
        let opted = "[package]\nname = \"x\"\n[lints]\nworkspace = true\n";
        assert!(check_manifest("crates/x/Cargo.toml", opted, &in_repo).is_empty());
        // A virtual workspace manifest has no package to opt in.
        let virt = "[workspace]\nmembers = [\"crates/*\"]\n";
        assert!(check_manifest("Cargo.toml", virt, &in_repo).is_empty());
    }
}
