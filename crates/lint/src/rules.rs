//! The rule catalog: eighteen repo-specific invariants (L001–L018).
//!
//! L001–L009, L017 and L018 are per-line rules: pure functions from preprocessed
//! sources (or manifests) to [`Finding`]s. L010–L016 are cross-file/token-level
//! semantic rules that run on the engine in [`crate::graph`]. Both layers are
//! driven with inline fixtures by unit tests and with the real workspace by
//! the CLI/umbrella gate.

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
    /// Workspace manifests declare only in-repo dependencies.
    L005,
    /// No raw thread spawning outside the worker pool and the threaded
    /// transport.
    L006,
    /// No ambient `Instant::now()` outside the sanctioned clock modules.
    L007,
    /// No bare mpsc `recv()`/`recv_timeout()` in `dinar-fl` outside the
    /// sanctioned deadline helper.
    L008,
    /// No `.clone()` in the parameter-plane modules: snapshot parameters
    /// with `share()` (an explicit O(1) copy-on-write share) instead.
    L009,
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
    /// Nondeterministic iteration: no arithmetic accumulation over
    /// unordered-container iteration in the deterministic crates.
    L014,
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
    /// Element confinement: bit-pattern reinterpretation between storage
    /// element types stays inside the sanctioned generic-storage module.
    L018,
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
            Rule::L009 => "L009",
            Rule::L010 => "L010",
            Rule::L011 => "L011",
            Rule::L012 => "L012",
            Rule::L013 => "L013",
            Rule::L014 => "L014",
            Rule::L015 => "L015",
            Rule::L016 => "L016",
            Rule::L017 => "L017",
            Rule::L018 => "L018",
        }
    }

    /// One-line description for CLI output.
    pub fn description(self) -> &'static str {
        match self {
            Rule::L001 => "no unwrap()/expect() in non-test library code",
            Rule::L002 => "no nondeterminism sources in deterministic crates",
            Rule::L003 => "public Error enums must implement Display + std::error::Error",
            Rule::L004 => "no bare `as` numeric casts in tensor hot paths",
            Rule::L005 => "manifests may declare only in-repo dependencies",
            Rule::L006 => "no raw thread spawning outside the worker pool",
            Rule::L007 => "no Instant::now() outside the sanctioned clock modules",
            Rule::L008 => "no bare mpsc recv in dinar-fl outside the sanctioned deadline helper",
            Rule::L009 => "no .clone() in parameter-plane modules; snapshot params with share()",
            Rule::L010 => "clip-dominates-noise: defenses must clip before drawing DP noise",
            Rule::L011 => "seed-taint: no integer-literal RNG seeds outside tests/benches",
            Rule::L012 => "panic-reachability: no panics reachable from the round loop/transport",
            Rule::L013 => "lock-order: nested Mutex acquisitions must follow the global order",
            Rule::L014 => "no arithmetic accumulation over unordered-container iteration",
            Rule::L015 => "no scalar normal() draws inside loops in defenses/param-plane code",
            Rule::L016 => "ledger-coverage: defense transforms must report to the privacy ledger",
            Rule::L017 => "wire-confinement: byte codecs only in wire modules; no `as` narrowing there",
            Rule::L018 => "element-confinement: bit-pattern casts only in the generic-storage module",
        }
    }

    /// Multi-paragraph rationale for `--explain <RULE>`: what the rule
    /// checks, why the invariant is load-bearing, and how to satisfy it.
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
                 its seeds. `thread_rng`, `SystemTime::now`, `Instant::now` and `HashMap`\n\
                 (whose iteration order varies per process) all leak ambient state into\n\
                 results. Use the seeded `dinar_tensor::rng`, the injectable `Clock`, and\n\
                 `BTreeMap`/`Vec`."
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
                "L005 — manifests declare only in-repo dependencies.\n\n\
                 The build must stay hermetic: every dependency is a path dependency on\n\
                 a workspace crate, so the repo builds offline and the supply chain is\n\
                 the repo itself."
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
                 helpers."
            }
            Rule::L008 => {
                "L008 — no bare mpsc recv in `dinar-fl` outside the deadline helper.\n\n\
                 A bare blocking `recv()` only errors once every sender has dropped, so\n\
                 one dead client thread hangs the server forever. `DeadlineReceiver`\n\
                 budgets waits against the injectable `Clock` and surfaces ticks for\n\
                 liveness checks; every wait routes through it."
            }
            Rule::L009 => {
                "L009 — no `.clone()` in the parameter-plane modules.\n\n\
                 Model parameters move through defenses and aggregation every round; a\n\
                 stray `.clone()` is a full deep copy that silently regresses the\n\
                 zero-copy plane. Snapshot with `share()` (O(1) copy-on-write) and keep\n\
                 genuine deep copies at the two sanctioned sites."
            }
            Rule::L010 => {
                "L010 — clip dominates noise (cross-file, call-graph).\n\n\
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
                "L011 — seed taint (cross-file, call-graph).\n\n\
                 Every RNG stream must derive from plumbed configuration\n\
                 (`cfg.seed ^ salt`), so one config seed replays the whole system and\n\
                 sweeps vary it centrally. `seed_from(<integer literal>)` in library\n\
                 code hard-codes a stream no harness can vary; tests and benches are\n\
                 exempt, and protocol constants can be annotated with\n\
                 `// lint: allow(L011, reason)`."
            }
            Rule::L012 => {
                "L012 — panic reachability (cross-file, call-graph).\n\n\
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
                "L013 — lock order (cross-file, call-graph).\n\n\
                 Two threads acquiring the same two mutexes in opposite orders deadlock\n\
                 under contention and pass every single-threaded test. The workspace\n\
                 has one global acquisition order — telemetry.event_threads <\n\
                 telemetry.event_log < telemetry.registry < telemetry.histo < tensor.par\n\
                 — and nested acquisitions\n\
                 (including those made by callees while a guard is held, with guards\n\
                 conservatively assumed held to end of function) must move strictly down\n\
                 it. Same-class re-entry is flagged too: std Mutex self-deadlocks."
            }
            Rule::L014 => {
                "L014 — nondeterministic iteration (token-level, deterministic crates).\n\n\
                 Float addition is not associative, so summing over a `HashSet`/`HashMap`\n\
                 visit order leaks per-process hash seeds into figures. L002 already\n\
                 bans `HashMap` wholesale in the deterministic crates; L014 closes the\n\
                 `HashSet` gap and the allow-annotated residue by flagging iterator\n\
                 chains that fold (`sum`/`fold`/`product`) over an unordered container\n\
                 and `for` loops over one whose body compound-accumulates (`+=`, `*=`).\n\
                 Use `BTreeMap`/`BTreeSet` or a sorted `Vec`; order-independent\n\
                 accumulation can be annotated `// lint: allow(L014, reason)`."
            }
            Rule::L015 => {
                "L015 — no scalar normal() draws inside loops (token-level, \
                 defenses/param-plane).\n\n\
                 A `rng.normal()`/`normal_with()` call inside a loop walks the\n\
                 sequential xoshiro stream one sample at a time through a scalar\n\
                 f64 Box–Muller — roughly an order of magnitude slower per element\n\
                 than the chunked counter-based fills, and since the defenses noise\n\
                 every parameter in place each round, this is exactly the hot-loop\n\
                 shape that made noise the dominant per-round defense cost. Draw\n\
                 the whole slice at once with `Rng::axpy_normal` /\n\
                 `Rng::fill_normal[_with]` (bit-reproducible, cache-free, and\n\
                 counted by the `tensor.rng.samples` telemetry). A genuinely\n\
                 scalar site (e.g. one draw per loop iteration of a small\n\
                 fixed-count loop) can be annotated\n\
                 `// lint: allow(L015, reason)`."
            }
            Rule::L016 => {
                "L016 — ledger coverage (cross-file, call-graph).\n\n\
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
                "L017 — wire confinement (per-line).\n\n\
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
            Rule::L018 => {
                "L018 — element confinement (per-line).\n\n\
                 The generic storage backend keeps exactly one audited site where a\n\
                 value is reinterpreted as raw bits: the `Element` impls in\n\
                 `crates/tensor/src/storage.rs`, where `to_bit_pattern` /\n\
                 `from_bit_pattern` define each dtype's canonical u32 image (IEEE-754\n\
                 bits for f32, sign-extended for i8, the half-precision bit pattern\n\
                 for F16) and the property tests pin every one of them to an exact\n\
                 round-trip. A second spelling elsewhere is an unaudited\n\
                 reinterpretation that can silently disagree with the canonical one —\n\
                 the exact class of bug that breaks the width-independent\n\
                 bit-identicality the checkpoint and wire planes promise. `transmute`\n\
                 is banned with the same fence (the workspace is `forbid(unsafe_code)`\n\
                 in the core crates, but the lint also covers the crates that are\n\
                 not). Outside the storage module, convert through the safe `Element`\n\
                 API or `f32::to_bits`-family methods behind it; a genuinely-safe\n\
                 site can be annotated `// lint: allow(L018, reason)`."
            }
        }
    }

    /// All rules, in catalog order.
    pub fn all() -> [Rule; 18] {
        [
            Rule::L001,
            Rule::L002,
            Rule::L003,
            Rule::L004,
            Rule::L005,
            Rule::L006,
            Rule::L007,
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

/// Nondeterminism tokens banned by L002. `HashMap` is banned wholesale:
/// its iteration order varies per process, so deterministic crates use
/// `BTreeMap`/`Vec` (or carry an `// lint: allow(L002, reason)`).
const L002_TOKENS: [&str; 4] = ["thread_rng", "SystemTime::now", "Instant::now", "HashMap"];

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

/// The wall-clock token banned by L007 everywhere except the sanctioned
/// clock modules. Unlike L002 (which covers only the deterministic crates),
/// L007 is repo-wide: even benchmarks must read time through an injectable
/// [`Clock`](../../metrics/src/clock.rs) or the bench timing helpers so
/// profiles replay under `ManualClock`.
const L007_TOKEN: &str = "Instant::now";

/// The one `dinar-fl` module allowed to call mpsc `recv()`/`recv_timeout()`
/// directly: the deadline helper every other wait must route through. A
/// bare blocking `recv()` only errors once *every* sender has dropped, so
/// one dead client thread hangs the server forever — the exact bug L008
/// exists to keep fixed.
pub const L008_EXEMPT: &str = "crates/fl/src/deadline.rs";

/// Parameter-plane modules subject to L009. These files move whole model
/// parameter sets around every round, so an unexamined `.clone()` is a full
/// deep copy waiting to regress the zero-copy plane: snapshots must be the
/// explicit O(1) `ModelParams::share()`/`LayerParams::share()` spelling (or
/// carry an `// lint: allow(L009, reason)` for non-parameter clones such as
/// telemetry handles). The sanctioned copy sites live elsewhere:
/// `crates/fl/src/transport.rs` (per-client message snapshots) and
/// `crates/nn/src/params.rs` (which defines `share()` itself).
pub const L009_FILES: [&str; 13] = [
    "crates/defenses/src/dp.rs",
    "crates/defenses/src/ldp.rs",
    "crates/defenses/src/wdp.rs",
    "crates/defenses/src/cdp.rs",
    "crates/defenses/src/gc.rs",
    "crates/defenses/src/sa.rs",
    "crates/core/src/obfuscation.rs",
    "crates/nn/src/view.rs",
    "crates/fl/src/server.rs",
    "crates/fl/src/client.rs",
    "crates/fl/src/system.rs",
    "crates/fl/src/round.rs",
    "crates/fl/src/middleware.rs",
];

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

/// The sanctioned generic-storage module: the only `/src/` file allowed to
/// spell bit-pattern reinterpretation between storage element types. The
/// `Element` impls here define each dtype's canonical u32 bit image, and
/// the property tests pin them; a second spelling elsewhere is an
/// unaudited reinterpretation that can silently diverge from the
/// canonical one.
pub const L018_STORAGE_FILES: [&str; 1] = ["crates/tensor/src/storage.rs"];

/// Reinterpretation tokens confined to [`L018_STORAGE_FILES`] by L018.
const L018_TOKENS: [&str; 3] = ["to_bit_pattern", "from_bit_pattern", "transmute"];

/// Is `path` one of the sanctioned wall-clock modules exempt from L007?
/// `clock.rs` files (the `Clock` implementations), `timing.rs` (the bench
/// measurement loop), and the telemetry crate (which owns the clock
/// abstraction) may call `Instant::now` directly.
fn l007_exempt(path: &str) -> bool {
    path.ends_with("/clock.rs")
        || path.ends_with("/timing.rs")
        || path.starts_with("crates/telemetry/")
}

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
    let mut count = 0;
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let idx = start + pos;
        if word_bounded(line, idx, needle) {
            count += 1;
        }
        start = idx + needle.len();
    }
    count
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
    check_l009(path, &stripped, &mut findings);
    check_l017(path, &stripped, &mut findings);
    check_l018(path, &stripped, &mut findings);
    findings
}

/// L001: `.unwrap()` / `.expect(` in non-test library code.
fn check_l001(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") {
        return; // integration tests and examples are exempt
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L001", n) {
            continue;
        }
        let hits = line.matches(".unwrap()").count() + line.matches(".expect(").count();
        for _ in 0..hits {
            findings.push(Finding {
                rule: Rule::L001,
                file: path.to_string(),
                line: n,
                message: "unwrap()/expect() in library code; return a Result or document \
                          the invariant with `lint: allow(L001, reason)`"
                    .to_string(),
            });
        }
    }
}

/// L002: nondeterminism sources in deterministic crates.
fn check_l002(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    let in_deterministic = DETERMINISTIC_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if !in_deterministic {
        return;
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L002", n) {
            continue;
        }
        for token in L002_TOKENS {
            for _ in 0..occurrences(line, token) {
                findings.push(Finding {
                    rule: Rule::L002,
                    file: path.to_string(),
                    line: n,
                    message: format!(
                        "`{token}` is a nondeterminism source; inject a seeded/manual \
                         substitute or annotate `lint: allow(L002, reason)`"
                    ),
                });
            }
        }
    }
}

/// L004: bare numeric casts in the tensor hot paths.
fn check_l004(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !HOT_PATHS.contains(&path) {
        return;
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L004", n) {
            continue;
        }
        for token in L004_TOKENS {
            for _ in 0..occurrences(line, token) {
                findings.push(Finding {
                    rule: Rule::L004,
                    file: path.to_string(),
                    line: n,
                    message: format!(
                        "bare `{token}` cast in a tensor hot path; use the checked \
                         helpers in dinar_tensor::cast"
                    ),
                });
            }
        }
    }
}

/// L006: raw thread spawning outside the worker pool. Ad-hoc threads
/// bypass the pool's deterministic partitioning, its nested-parallelism
/// guard, and the per-thread allocation ledger, so all data parallelism
/// must go through `dinar_tensor::par` (see [`L006_EXEMPT`]).
fn check_l006(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") || L006_EXEMPT.contains(&path) {
        return;
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L006", n) {
            continue;
        }
        for token in L006_TOKENS {
            for _ in 0..occurrences(line, token) {
                findings.push(Finding {
                    rule: Rule::L006,
                    file: path.to_string(),
                    line: n,
                    message: format!(
                        "`{token}` outside the worker pool; route parallelism through \
                         dinar_tensor::par or annotate `lint: allow(L006, reason)`"
                    ),
                });
            }
        }
    }
}

/// L007: ambient `Instant::now()` outside the sanctioned clock modules.
/// Direct wall-clock reads cannot be replayed: telemetry spans and bench
/// profiles must flow through an injectable `Clock` (swap in `ManualClock`
/// for bit-identical reruns) or the bench `timing` helpers.
fn check_l007(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") || l007_exempt(path) {
        return;
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L007", n) {
            continue;
        }
        for _ in 0..occurrences(line, L007_TOKEN) {
            findings.push(Finding {
                rule: Rule::L007,
                file: path.to_string(),
                line: n,
                message: "`Instant::now` outside a sanctioned clock module; inject a \
                          `Clock` (dinar_telemetry) or annotate `lint: allow(L007, reason)`"
                    .to_string(),
            });
        }
    }
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
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L008", n) {
            continue;
        }
        let hits = line.matches(".recv()").count() + line.matches(".recv_timeout(").count();
        for _ in 0..hits {
            findings.push(Finding {
                rule: Rule::L008,
                file: path.to_string(),
                line: n,
                message: "bare mpsc recv in dinar-fl; wait through \
                          dinar_fl::deadline::{DeadlineReceiver, recv_blocking} or \
                          annotate `lint: allow(L008, reason)`"
                    .to_string(),
            });
        }
    }
}

/// L009: `.clone()` in a parameter-plane module (see [`L009_FILES`]).
/// Matched as a plain substring like L001's `.unwrap()`: the leading `.`
/// defeats word-bounding. `Arc::clone(&x)` and `clone_from` are not matched
/// — the rule targets the method-call spelling that silently deep-copies a
/// parameter set.
fn check_l009(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !L009_FILES.contains(&path) {
        return;
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L009", n) {
            continue;
        }
        let hits = line.matches(".clone()").count();
        for _ in 0..hits {
            findings.push(Finding {
                rule: Rule::L009,
                file: path.to_string(),
                line: n,
                message: "`.clone()` in a parameter-plane module; snapshot params with \
                          `share()` (O(1) copy-on-write) or annotate \
                          `lint: allow(L009, reason)` for non-parameter clones"
                    .to_string(),
            });
        }
    }
}

/// L017: byte-level encode/decode confined to the sanctioned wire modules
/// ([`L017_WIRE_FILES`]); inside those modules, no silently-wrapping `as`
/// integer narrowing. Both halves are word-bounded token scans, like L002.
fn check_l017(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") {
        return; // integration tests, benches and examples are exempt
    }
    let in_wire = L017_WIRE_FILES.contains(&path);
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L017", n) {
            continue;
        }
        if in_wire {
            for token in L017_NARROWING_TOKENS {
                for _ in 0..occurrences(line, token) {
                    findings.push(Finding {
                        rule: Rule::L017,
                        file: path.to_string(),
                        line: n,
                        message: format!(
                            "silently-wrapping `{token}` in a wire codec path; convert \
                             with `try_from` or the checked `cast` helpers, or annotate \
                             `lint: allow(L017, reason)`"
                        ),
                    });
                }
            }
        } else {
            for token in L017_BYTE_TOKENS {
                for _ in 0..occurrences(line, token) {
                    findings.push(Finding {
                        rule: Rule::L017,
                        file: path.to_string(),
                        line: n,
                        message: format!(
                            "`{token}` outside the sanctioned wire module; byte-level \
                             serialization belongs in dinar_tensor::wire (ByteWriter/\
                             ByteReader), or annotate `lint: allow(L017, reason)`"
                        ),
                    });
                }
            }
        }
    }
}

/// L018: bit-pattern reinterpretation confined to the sanctioned
/// generic-storage module ([`L018_STORAGE_FILES`]). A word-bounded token
/// scan, like L017's byte half.
fn check_l018(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    if !path.contains("/src/") {
        return; // integration tests, benches and examples are exempt
    }
    if L018_STORAGE_FILES.contains(&path) {
        return; // the audited Element impls live here
    }
    for (i, line) in stripped.lines.iter().enumerate() {
        let n = i + 1;
        if stripped.is_test_line(n) || stripped.is_allowed("L018", n) {
            continue;
        }
        for token in L018_TOKENS {
            for _ in 0..occurrences(line, token) {
                findings.push(Finding {
                    rule: Rule::L018,
                    file: path.to_string(),
                    line: n,
                    message: format!(
                        "`{token}` outside the sanctioned storage module; bit-pattern \
                         reinterpretation belongs in dinar_tensor::storage (the \
                         audited Element impls), or annotate \
                         `lint: allow(L018, reason)`"
                    ),
                });
            }
        }
    }
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
/// `in_repo` (the set of workspace package names), and `[workspace.dependencies]`
/// entries must be `path` dependencies.
pub fn check_manifest(path: &str, manifest: &str, in_repo: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut section = String::new();
    for (i, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
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
        let src = "fn f() { let t = Instant::now(); let m: HashMap<u32, u32> = HashMap::new(); }";
        let hits = check_source("crates/fl/src/x.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L002)
            .count();
        assert_eq!(hits, 3); // Instant::now + 2×HashMap
        let bench = check_source("crates/bench/src/x.rs", src);
        assert!(bench.iter().all(|f| f.rule != Rule::L002));
    }

    #[test]
    fn l002_allow_annotation_suppresses() {
        let src = "// lint: allow(L002, timer by design)\nlet t = Instant::now();\n";
        let findings = check_source("crates/metrics/src/cost.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L002), "{findings:?}");
    }

    #[test]
    fn l002_ignores_comments_and_strings() {
        let src = "// Instant::now is banned\nlet s = \"Instant::now\";\n";
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
        let src = "fn f(x: f32, n: usize) { let a = x as usize; let b = n as f32; let c = n as f64; }";
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
        for path in ["crates/consensus/src/network.rs", "crates/fl/src/transport.rs"] {
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
        assert!(findings.iter().all(|f| f.rule != Rule::L006), "{findings:?}");
    }

    #[test]
    fn l007_flags_ambient_wall_clock_outside_clock_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        let hits = check_source("crates/metrics/src/cost.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L007)
            .count();
        assert_eq!(hits, 1);
        for exempt in [
            "crates/fl/src/clock.rs",
            "crates/bench/src/timing.rs",
            "crates/metrics/src/clock.rs",
            "crates/telemetry/src/span.rs",
        ] {
            let findings = check_source(exempt, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L007), "{exempt}");
        }
    }

    #[test]
    fn l007_allow_annotation_and_tests_suppress() {
        let src = "// lint: allow(L007, wall time by design)\nlet t = Instant::now();\n\
                   #[cfg(test)]\nmod tests { fn t() { let x = Instant::now(); } }\n";
        let findings = check_source("crates/bench/src/harness.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L007), "{findings:?}");
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
        assert!(findings.iter().all(|f| f.rule != Rule::L008), "{findings:?}");
    }

    #[test]
    fn l009_flags_clone_in_param_plane_files_only() {
        let src = "fn f(p: &ModelParams) { let a = p.clone(); let b = p.share(); \
                   let c = other.clone(); }";
        for file in L009_FILES {
            let hits = check_source(file, src)
                .iter()
                .filter(|f| f.rule == Rule::L009)
                .count();
            assert_eq!(hits, 2, "{file}");
        }
        // The sanctioned copy sites and unrelated files are exempt.
        for exempt in [
            "crates/fl/src/transport.rs",
            "crates/nn/src/params.rs",
            "crates/tensor/src/tensor.rs",
        ] {
            let findings = check_source(exempt, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L009), "{exempt}");
        }
    }

    #[test]
    fn l009_skips_tests_and_allows() {
        let src = "let t = telemetry.clone(); // lint: allow(L009, telemetry handle, not params)\n\
                   #[cfg(test)]\nmod tests { fn t() { let c = p.clone(); } }\n";
        let findings = check_source("crates/fl/src/client.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L009), "{findings:?}");
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
        assert!(findings.iter().all(|f| f.rule != Rule::L017), "{findings:?}");
        let src = "let n = len as usize; // lint: allow(L017, bounded just above)\n\
                   #[cfg(test)]\nmod tests { fn t() { let n = len as u32; } }\n";
        let findings = check_source("crates/tensor/src/wire.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L017), "{findings:?}");
    }

    #[test]
    fn l018_confines_bit_patterns_to_the_storage_module() {
        let src = "fn f(x: f32) { let b = x.to_bit_pattern(); \
                   let y = f32::from_bit_pattern(b); \
                   let z = std::mem::transmute::<f32, u32>(x); }";
        let hits = check_source("crates/nn/src/ckpt.rs", src)
            .iter()
            .filter(|f| f.rule == Rule::L018)
            .count();
        assert_eq!(hits, 3);
        // The sanctioned storage module may reinterpret freely.
        for storage in L018_STORAGE_FILES {
            let findings = check_source(storage, src);
            assert!(findings.iter().all(|f| f.rule != Rule::L018), "{storage}");
        }
        // Integration tests are exempt (they exercise corrupt images).
        let findings = check_source("tests/ckpt_plane.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L018));
    }

    #[test]
    fn l018_skips_tests_and_allows() {
        let src = "let b = x.to_bit_pattern(); // lint: allow(L018, fixture builder)\n\
                   #[cfg(test)]\nmod tests { fn t() { let b = x.to_bit_pattern(); } }\n";
        let findings = check_source("crates/fl/src/ckpt.rs", src);
        assert!(findings.iter().all(|f| f.rule != Rule::L018), "{findings:?}");
    }

    #[test]
    fn l005_flags_registry_deps() {
        let mut in_repo = BTreeSet::new();
        in_repo.insert("dinar-tensor".to_string());
        let manifest = "[package]\nname = \"x\"\n[dependencies]\n\
                        dinar-tensor.workspace = true\nserde = \"1\"\n";
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
}
