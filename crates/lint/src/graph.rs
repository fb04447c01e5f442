//! Workspace symbol table, approximate call graph and the cross-file rules
//! L010–L016.
//!
//! Resolution is **name-based** (no type inference): free calls resolve to
//! every workspace free function of that name, `Type::method` resolves
//! exactly, and `.method(...)` resolves to every workspace method of that
//! name *unless* the name is in [`AMBIENT_METHODS`] — std-prelude-ish names
//! (`map`, `len`, `iter`, …) that would otherwise wire the graph to
//! coincidentally named tensor/collection methods. The result over-connects
//! where workspace names collide and under-connects through ambient names
//! and function pointers; DESIGN.md §12 discusses why that trade is right
//! for invariants gated at zero.
//!
//! The `bench` and `lint` crates are excluded from the model: no rule roots
//! or sinks live there, and their free-name overlap with the library crates
//! (`run`, `measure`, …) would only add false edges.

use crate::rules::{Finding, Rule, DETERMINISTIC_CRATES, L009_FILES};
use crate::sem::{parse_file, CallKind, EventKind, FnInfo};
use crate::strip::{strip, Stripped};
use std::collections::{BTreeMap, BTreeSet};

/// Method names never resolved through the call graph: std-prelude and
/// primitive-receiver methods whose workspace homonyms (e.g. `Tensor::map`,
/// `Tensor::get`) would create edges from nearly every function.
pub const AMBIENT_METHODS: [&str; 64] = [
    "abs", "all", "any", "as_mut_slice", "as_slice", "ceil", "chain", "chars", "chunks",
    "clone", "cloned", "collect", "contains", "copied", "count", "drain", "entry", "enumerate",
    "eq", "exp", "extend", "fill", "filter", "find", "first", "flatten", "floor", "fold",
    "get", "get_mut", "insert", "into_iter", "is_empty", "iter", "iter_mut", "join", "last",
    "len", "ln", "map", "max", "min", "next", "parse", "pop", "position", "powi", "product",
    "push", "remove", "resize", "rev", "round", "skip", "sort", "split", "sqrt", "sum",
    "swap", "take", "to_string", "to_vec", "truncate", "zip",
];

/// Functions recognized as L2-clip sources by L010.
pub const L010_CLIP_FNS: [&str; 3] = ["clip_l2", "clip_l2_with_count", "clip_factor"];

/// The sanctioned noise primitive: its callers carry the clip obligation,
/// and its own body (which draws the noise) is exempt.
pub const L010_NOISE_FNS: [&str; 1] = ["add_gaussian_noise"];

/// L012 reachability roots: every non-test function in these files…
pub const L012_ROOT_FILES: [&str; 2] = ["crates/fl/src/transport.rs", "crates/fl/src/round.rs"];

/// …plus these qualified functions (aggregation and every public
/// `FlSystem` round method, the resume pair included).
pub const L012_ROOT_FNS: [&str; 6] = [
    "FlServer::aggregate",
    "FlSystem::run",
    "FlSystem::run_round",
    "FlSystem::run_round_with_selection",
    "FlSystem::begin_round_partial",
    "FlSystem::finish_round",
];

/// The global mutex acquisition order, outermost first. Nested acquisitions
/// must move strictly *down* this list; acquiring an earlier (or the same)
/// class while holding a later one is an L013 violation.
pub const LOCK_ORDER: [&str; 5] = [
    "telemetry.event_threads",
    "telemetry.event_log",
    "telemetry.registry",
    "telemetry.histo",
    "tensor.par",
];

/// Maps a `.lock()` receiver to its class (an index into [`LOCK_ORDER`]).
/// Unknown receivers are not tracked — adding a mutex means adding its
/// class here.
fn lock_class(file: &str, receiver: &str) -> Option<usize> {
    match (file, receiver) {
        ("crates/telemetry/src/span.rs", "threads") => Some(0),
        ("crates/telemetry/src/span.rs" | "crates/telemetry/src/recorder.rs", "log") => Some(1),
        ("crates/telemetry/src/registry.rs", "entries") => Some(2),
        ("crates/telemetry/src/registry.rs", "inner") => Some(3),
        ("crates/tensor/src/par.rs", "WIDTH_LOCK") => Some(4),
        _ => None,
    }
}

/// The parsed workspace: all non-test functions with name-based indices and
/// resolved call edges.
pub struct Workspace {
    fns: Vec<FnInfo>,
    by_free: BTreeMap<String, Vec<usize>>,
    by_qual: BTreeMap<String, Vec<usize>>,
    by_method: BTreeMap<String, Vec<usize>>,
    /// Deduplicated resolved call targets per function.
    edges: Vec<Vec<usize>>,
}

impl Workspace {
    /// Builds the model from `(repo-relative path, source)` pairs. Files
    /// outside `crates/*/src`, and the bench/lint crates, are ignored.
    pub fn build(sources: &[(String, String)]) -> Workspace {
        let mut fns = Vec::new();
        for (path, source) in sources {
            if !path.contains("/src/")
                || path.starts_with("crates/bench/")
                || path.starts_with("crates/lint/")
            {
                continue;
            }
            fns.extend(parse_file(path, &strip(source)));
        }
        let mut by_free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.self_ty.is_some() {
                by_qual.entry(f.qual.clone()).or_default().push(i);
                by_method.entry(f.name.clone()).or_default().push(i);
            } else {
                by_free.entry(f.name.clone()).or_default().push(i);
            }
        }
        let mut ws = Workspace {
            fns,
            by_free,
            by_qual,
            by_method,
            edges: Vec::new(),
        };
        ws.edges = ws
            .fns
            .iter()
            .map(|f| {
                let mut targets = BTreeSet::new();
                for e in &f.events {
                    if let EventKind::Call(call) = &e.kind {
                        targets.extend(ws.resolve(call));
                    }
                }
                targets.into_iter().collect()
            })
            .collect();
        ws
    }

    /// Resolves one call site to candidate function indices.
    pub fn resolve(&self, call: &CallKind) -> Vec<usize> {
        match call {
            CallKind::Free(name) => self.by_free.get(name).cloned().unwrap_or_default(),
            CallKind::Qualified(qualifier, name) => {
                let key = format!("{qualifier}::{name}");
                if let Some(ids) = self.by_qual.get(&key) {
                    ids.clone()
                } else {
                    // `module::free_fn(...)` — the qualifier is a module.
                    self.by_free.get(name).cloned().unwrap_or_default()
                }
            }
            CallKind::Method(name) => {
                if AMBIENT_METHODS.contains(&name.as_str()) {
                    Vec::new()
                } else {
                    self.by_method.get(name).cloned().unwrap_or_default()
                }
            }
        }
    }

    fn call_name(call: &CallKind) -> &str {
        match call {
            CallKind::Free(n) | CallKind::Method(n) | CallKind::Qualified(_, n) => n,
        }
    }
}

/// Runs every cross-file rule over the workspace sources and returns the
/// combined findings. `sources` must be `(repo-relative path, content)`.
pub fn check_semantic(sources: &[(String, String)]) -> Vec<Finding> {
    let ws = Workspace::build(sources);
    let mut findings = Vec::new();
    check_l010(&ws, &mut findings);
    check_l011(&ws, &mut findings);
    check_l012(&ws, &mut findings);
    check_l013(&ws, &mut findings);
    check_l016(&ws, &mut findings);
    for (path, source) in sources {
        let stripped = strip(source);
        check_l014(path, &stripped, &mut findings);
        check_l015(path, &stripped, &mut findings);
    }
    findings
}

// ---------------------------------------------------------------------
// L010: clip-dominates-noise in dinar-defenses
// ---------------------------------------------------------------------

/// L010: inside `dinar-defenses`, every path that reaches a Gaussian noise
/// draw must pass through a recognized clip source first (the DP
/// clip-then-noise privacy order). Noise sinks are the RNG draw methods and
/// [`L010_NOISE_FNS`]; clip sources are [`L010_CLIP_FNS`]. Entry points
/// (`pub` fns and trait-impl methods) are reported; private helpers are the
/// callers' responsibility and stay silent when every unclipped entry path
/// to them is covered.
fn check_l010(ws: &Workspace, findings: &mut Vec<Finding>) {
    let in_scope: Vec<usize> = (0..ws.fns.len())
        .filter(|&i| ws.fns[i].file.starts_with("crates/defenses/src/"))
        .filter(|&i| !L010_NOISE_FNS.contains(&ws.fns[i].name.as_str()))
        .collect();
    let scope_set: BTreeSet<usize> = in_scope.iter().copied().collect();

    // Per function: direct unclipped noise sites, and unclipped calls into
    // other in-scope functions.
    struct Local {
        sites: Vec<(usize, String)>,      // (line, what)
        deps: Vec<(usize, usize, String)> // (callee, line, name)
    }
    let mut locals: BTreeMap<usize, Local> = BTreeMap::new();
    for &i in &in_scope {
        let mut clipped = false;
        let mut local = Local {
            sites: Vec::new(),
            deps: Vec::new(),
        };
        for e in &ws.fns[i].events {
            match &e.kind {
                EventKind::Call(call) => {
                    let name = Workspace::call_name(call);
                    if L010_CLIP_FNS.contains(&name) {
                        clipped = true;
                    } else if L010_NOISE_FNS.contains(&name) {
                        if !clipped && !e.allowed("L010") {
                            local.sites.push((e.line, format!("`{name}(..)`")));
                        }
                    } else if !clipped {
                        for t in ws.resolve(call) {
                            if scope_set.contains(&t) {
                                local.deps.push((t, e.line, name.to_string()));
                            }
                        }
                    }
                }
                EventKind::NoiseDraw(method) => {
                    if !clipped && !e.allowed("L010") {
                        local.sites.push((e.line, format!("`.{method}(..)`")));
                    }
                }
                _ => {}
            }
        }
        locals.insert(i, local);
    }

    // Fixpoint: a function is exposed if it has a direct unclipped noise
    // site, or makes an unclipped call to an exposed function.
    let mut exposed: BTreeMap<usize, (usize, String)> = BTreeMap::new(); // fn -> evidence
    for (&i, local) in &locals {
        if let Some((line, what)) = local.sites.first() {
            exposed.insert(i, (*line, format!("draws noise via {what}")));
        }
    }
    loop {
        let mut changed = false;
        for (&i, local) in &locals {
            if exposed.contains_key(&i) {
                continue;
            }
            if let Some((_, line, name)) =
                local.deps.iter().find(|(t, _, _)| exposed.contains_key(t))
            {
                exposed.insert(
                    i,
                    (*line, format!("calls `{name}(..)`, which reaches noise")),
                );
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for &i in &in_scope {
        let f = &ws.fns[i];
        if !(f.is_pub || f.is_trait_impl) {
            continue;
        }
        if let Some((line, why)) = exposed.get(&i) {
            findings.push(Finding {
                rule: Rule::L010,
                file: f.file.clone(),
                line: *line,
                message: format!(
                    "`{}` {} without first passing through a clip source \
                     ({}); clip before noising, or annotate the draw with \
                     `lint: allow(L010, reason)`",
                    f.qual,
                    why,
                    L010_CLIP_FNS.join("/"),
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// L011: seed taint
// ---------------------------------------------------------------------

/// L011: RNG streams in library code must be derived from configuration or
/// parameters — `seed_from(<integer literal>)` hard-codes a stream that no
/// config sweep or replay harness can vary. Tests and benches are exempt.
fn check_l011(ws: &Workspace, findings: &mut Vec<Finding>) {
    for f in &ws.fns {
        for e in &f.events {
            if e.kind == EventKind::SeedLiteral && !e.allowed("L011") {
                findings.push(Finding {
                    rule: Rule::L011,
                    file: f.file.clone(),
                    line: e.line,
                    message: format!(
                        "`{}` seeds an RNG from an integer literal; derive the seed \
                         from config/params (e.g. `cfg.seed ^ salt`) or annotate \
                         `lint: allow(L011, reason)`",
                        f.qual
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// L012: panic reachability from the round loop / transport
// ---------------------------------------------------------------------

/// L012: no `panic!`/`.unwrap()`/`.expect(` may be reachable through the
/// call graph from the FL round loop or the threaded transport
/// ([`L012_ROOT_FILES`], [`L012_ROOT_FNS`]). A panic that crosses a round
/// boundary kills a client thread mid-round — the exact failure mode the
/// resilient transport exists to contain. Sites carrying a justified
/// `lint: allow(L001, …)`/`allow(L012, …)` are documented invariants and
/// exempt; `assert!`/`unreachable!` are contracts and not matched.
fn check_l012(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut queue: Vec<usize> = Vec::new();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    for (i, f) in ws.fns.iter().enumerate() {
        let is_root = L012_ROOT_FILES.contains(&f.file.as_str())
            || (f.file.starts_with("crates/fl/src/") && L012_ROOT_FNS.contains(&f.qual.as_str()));
        if is_root {
            queue.push(i);
            visited.insert(i);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        for &t in &ws.edges[i] {
            if visited.insert(t) {
                parent.insert(t, i);
                queue.push(t);
            }
        }
    }
    for &i in &visited {
        let f = &ws.fns[i];
        for e in &f.events {
            if let EventKind::Panic(token) = e.kind {
                if e.allowed("L012") {
                    continue;
                }
                findings.push(Finding {
                    rule: Rule::L012,
                    file: f.file.clone(),
                    line: e.line,
                    message: format!(
                        "`{token}` reachable from the round loop/transport via {}; \
                         return a Result or document the invariant with \
                         `lint: allow(L012, reason)`",
                        chain_to(ws, &parent, i)
                    ),
                });
            }
        }
    }
}

/// Renders the call chain root → … → `i` (capped in the middle).
fn chain_to(ws: &Workspace, parent: &BTreeMap<usize, usize>, i: usize) -> String {
    let mut chain = vec![i];
    let mut cur = i;
    while let Some(&p) = parent.get(&cur) {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    let names: Vec<&str> = chain.iter().map(|&j| ws.fns[j].qual.as_str()).collect();
    if names.len() <= 6 {
        names.join(" -> ")
    } else {
        format!(
            "{} -> … -> {}",
            names[..3].join(" -> "),
            names[names.len() - 2..].join(" -> ")
        )
    }
}

// ---------------------------------------------------------------------
// L013: lock ordering
// ---------------------------------------------------------------------

/// L013: nested mutex acquisitions must move strictly down [`LOCK_ORDER`].
/// A guard is (conservatively) assumed held until the end of the acquiring
/// function, and acquisitions made by callees count transitively — so a
/// function holding `telemetry.histo` may not call anything that locks
/// `telemetry.registry`.
fn check_l013(ws: &Workspace, findings: &mut Vec<Finding>) {
    // Direct lock classes per fn (test fns never made it into the model).
    let direct: Vec<BTreeSet<usize>> = ws
        .fns
        .iter()
        .map(|f| {
            f.events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::Lock(recv) => lock_class(&f.file, recv),
                    _ => None,
                })
                .collect()
        })
        .collect();
    // Transitive closure over call edges.
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            for &t in &ws.edges[i] {
                let extra: Vec<usize> = trans[t].difference(&trans[i]).copied().collect();
                if !extra.is_empty() {
                    trans[i].extend(extra);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for f in &ws.fns {
        let mut held: Vec<usize> = Vec::new(); // classes, in acquisition order
        for e in &f.events {
            match &e.kind {
                EventKind::Lock(recv) => {
                    let Some(class) = lock_class(&f.file, recv) else {
                        continue;
                    };
                    if !e.allowed("L013") {
                        if let Some(&outer) = held.iter().find(|&&a| class <= a) {
                            findings.push(Finding {
                                rule: Rule::L013,
                                file: f.file.clone(),
                                line: e.line,
                                message: format!(
                                    "`{}` acquires `{}` while holding `{}` — against the \
                                     global lock order ({})",
                                    f.qual,
                                    LOCK_ORDER[class],
                                    LOCK_ORDER[outer],
                                    LOCK_ORDER.join(" < "),
                                ),
                            });
                        }
                    }
                    held.push(class);
                }
                EventKind::Call(call) if !held.is_empty() && !e.allowed("L013") => {
                    for t in ws.resolve(call) {
                        for &class in &trans[t] {
                            if let Some(&outer) = held.iter().find(|&&a| class <= a) {
                                findings.push(Finding {
                                    rule: Rule::L013,
                                    file: f.file.clone(),
                                    line: e.line,
                                    message: format!(
                                        "`{}` calls `{}`, which acquires `{}` while `{}` \
                                         is held — against the global lock order ({})",
                                        f.qual,
                                        ws.fns[t].qual,
                                        LOCK_ORDER[class],
                                        LOCK_ORDER[outer],
                                        LOCK_ORDER.join(" < "),
                                    ),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// L014: nondeterministic iteration
// ---------------------------------------------------------------------

const L014_UNORDERED: [&str; 2] = ["HashSet", "HashMap"];
const L014_ITER_METHODS: [&str; 6] = ["iter", "iter_mut", "into_iter", "values", "keys", "drain"];
const L014_FOLDS: [&str; 3] = ["sum", "fold", "product"];

/// L014: in the deterministic crates, arithmetic must not accumulate over
/// unordered-container iteration — float addition is not associative, so a
/// `HashSet`/`HashMap` visit order leaks into figures. (L002 already bans
/// `HashMap` there wholesale; this closes the `HashSet` + allow-annotated
/// gap and documents the invariant the engine actually cares about.)
fn check_l014(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    let in_deterministic = DETERMINISTIC_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if !in_deterministic {
        return;
    }
    let toks = crate::lex::lex(stripped);

    let mut report = |line: usize, via: &str| {
        if stripped.is_test_line(line) || stripped.is_allowed("L014", line) {
            return;
        }
        findings.push(Finding {
            rule: Rule::L014,
            file: path.to_string(),
            line,
            message: format!(
                "arithmetic accumulation over unordered-container iteration ({via}); \
                 float addition is order-sensitive — use a BTreeMap/BTreeSet or a \
                 sorted Vec, or annotate `lint: allow(L014, reason)`"
            ),
        });
    };

    // One forward scan: `let` bindings register (or, via shadowing, clear)
    // unordered-container names; uses are checked against the names bound
    // so far, which keeps same-named ordered bindings in earlier functions
    // from tainting later ones.
    let mut unordered: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        // Binding: `let [mut] name … ;` — unordered RHS registers the name,
        // any other RHS shadows it back out.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == crate::lex::TokKind::Ident) {
                let mut k = j + 1;
                let mut is_unordered = false;
                while let Some(tok) = toks.get(k) {
                    if tok.is_punct(';') {
                        break;
                    }
                    if L014_UNORDERED.iter().any(|u| tok.is_ident(u)) {
                        is_unordered = true;
                        break;
                    }
                    k += 1;
                }
                if is_unordered {
                    unordered.insert(name.text.clone());
                } else {
                    unordered.remove(&name.text);
                }
            }
            i += 1;
            continue;
        }

        // Iterator chain: `x.iter()….sum()/fold()/product()` before `;`.
        if toks[i].kind == crate::lex::TokKind::Ident
            && unordered.contains(&toks[i].text)
            && toks.get(i + 1).is_some_and(|d| d.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|m| L014_ITER_METHODS.iter().any(|im| m.is_ident(im)))
        {
            let mut k = i + 3;
            while let Some(tok) = toks.get(k) {
                if tok.is_punct(';') {
                    break;
                }
                if L014_FOLDS.iter().any(|f| tok.is_ident(f))
                    && toks.get(k + 1).is_some_and(|p| p.is_punct('('))
                {
                    report(
                        toks[i].line,
                        &format!("`{}.{}()…{}(…)`", toks[i].text, toks[i + 2].text, tok.text),
                    );
                    break;
                }
                k += 1;
            }
            i += 1;
            continue;
        }

        // `for … in <unordered> … { … += … }` loops.
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Header: up to the loop body `{`.
        let mut header_hit = None;
        let mut j = i + 1;
        while let Some(tok) = toks.get(j) {
            if tok.is_punct('{') {
                break;
            }
            if tok.kind == crate::lex::TokKind::Ident && unordered.contains(tok.text.as_str()) {
                header_hit = Some(tok.text.clone());
            }
            j += 1;
        }
        let Some(var) = header_hit else {
            i = j;
            continue;
        };
        // Body: matching brace; flag compound-assignment accumulation.
        let mut depth = 0i64;
        let mut k = j;
        while let Some(tok) = toks.get(k) {
            match tok.kind {
                crate::lex::TokKind::Punct('{') => depth += 1,
                crate::lex::TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                crate::lex::TokKind::Punct(op @ ('+' | '*')) => {
                    if toks.get(k + 1).is_some_and(|n| n.is_punct('=')) {
                        report(toks[i].line, &format!("`for … in {var}` with `{op}=`"));
                        // One report per loop is enough.
                        while let Some(t2) = toks.get(k) {
                            match t2.kind {
                                crate::lex::TokKind::Punct('{') => depth += 1,
                                crate::lex::TokKind::Punct('}') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
}

// ---------------------------------------------------------------------
// L015: scalar noise draws inside loops
// ---------------------------------------------------------------------

const L015_SCALAR_DRAWS: [&str; 2] = ["normal", "normal_with"];

/// L015: in the defenses crate and the parameter-plane modules
/// ([`L009_FILES`]), scalar `.normal()`/`.normal_with()` draws must not sit
/// inside `for`/`while`/`loop` bodies. A per-element Box–Muller draw walks
/// the sequential generator one sample at a time — an order of magnitude
/// slower than the chunked counter-based fills — and a loop over parameters
/// is exactly the hot shape where that cost dominates a defense's round
/// time. Use `fill_normal`/`fill_normal_with`/`axpy_normal` on the whole
/// slice instead; they are also cache-free and telemetry-counted.
fn check_l015(path: &str, stripped: &Stripped, findings: &mut Vec<Finding>) {
    let in_scope = path.starts_with("crates/defenses/src/") || L009_FILES.contains(&path);
    if !in_scope {
        return;
    }
    let toks = crate::lex::lex(stripped);

    let mut report = |line: usize, method: &str| {
        if stripped.is_test_line(line) || stripped.is_allowed("L015", line) {
            return;
        }
        findings.push(Finding {
            rule: Rule::L015,
            file: path.to_string(),
            line,
            message: format!(
                "scalar `.{method}(…)` draw inside a loop; fill the whole slice \
                 with `fill_normal`/`fill_normal_with`/`axpy_normal` instead, or \
                 annotate `lint: allow(L015, reason)`"
            ),
        });
    };

    // One forward scan with a brace-depth counter. A loop body is the brace
    // opened right after a loop keyword; bodies are kept as a stack of
    // opening depths, so nested loops, match arms and closures inside the
    // body all stay covered until the loop's own brace closes. `for` only
    // arms the scan when an `in` precedes the body brace, which separates
    // loop headers from `impl Trait for Type` and `for<'a>` bounds.
    let mut depth = 0i64;
    let mut loop_starts: Vec<i64> = Vec::new();
    let mut pending_loop = false;
    for (i, tok) in toks.iter().enumerate() {
        match tok.kind {
            crate::lex::TokKind::Punct('{') => {
                depth += 1;
                if pending_loop {
                    loop_starts.push(depth);
                    pending_loop = false;
                }
            }
            crate::lex::TokKind::Punct('}') => {
                if loop_starts.last() == Some(&depth) {
                    loop_starts.pop();
                }
                depth -= 1;
            }
            crate::lex::TokKind::Ident => match tok.text.as_str() {
                "while" | "loop" => pending_loop = true,
                "for" => {
                    let mut j = i + 1;
                    while let Some(t) = toks.get(j) {
                        if t.is_punct('{') {
                            break;
                        }
                        if t.is_ident("in") {
                            pending_loop = true;
                            break;
                        }
                        j += 1;
                    }
                }
                name if L015_SCALAR_DRAWS.contains(&name)
                    && !loop_starts.is_empty()
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) =>
                {
                    report(tok.line, name);
                }
                _ => {}
            },
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// L016: ledger coverage in dinar-defenses
// ---------------------------------------------------------------------

/// Defense transform entry points that must report to the privacy ledger.
pub const L016_ENTRY_FNS: [&str; 3] = ["transform_upload", "transform_aggregate", "step"];

/// The ledger sinks: a real (ε, δ) charge or an explicit zero-cost entry.
pub const L016_SINK_FNS: [&str; 2] = ["privacy_charge", "privacy_charge_zero"];

/// L016: inside `dinar-defenses`, every pub/trait-impl entry point named in
/// [`L016_ENTRY_FNS`] must reach a [`L016_SINK_FNS`] call through the call
/// graph — the ledger-coverage contract that lets an audit distinguish
/// "this defense spends no budget" (an explicit `privacy_charge_zero`)
/// from "this defense forgot to report". The obligation propagates through
/// private helpers, mirroring L010's fixpoint in the reaching direction: a
/// transform that delegates its reporting to a helper is covered. A
/// transform that genuinely cannot touch member data carries a
/// `// lint: allow(L016, reason)` on a body line.
fn check_l016(ws: &Workspace, findings: &mut Vec<Finding>) {
    let in_scope: Vec<usize> = (0..ws.fns.len())
        .filter(|&i| ws.fns[i].file.starts_with("crates/defenses/src/"))
        .collect();
    let scope_set: BTreeSet<usize> = in_scope.iter().copied().collect();

    // A function reaches the ledger if it calls a sink directly, or calls
    // an in-scope function that reaches it.
    let mut reaches: BTreeSet<usize> = in_scope
        .iter()
        .copied()
        .filter(|&i| {
            ws.fns[i].events.iter().any(|e| match &e.kind {
                EventKind::Call(call) => {
                    L016_SINK_FNS.contains(&Workspace::call_name(call))
                }
                _ => false,
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for &i in &in_scope {
            if reaches.contains(&i) {
                continue;
            }
            let callee_reaches = ws.fns[i].events.iter().any(|e| {
                matches!(&e.kind, EventKind::Call(call)
                    if ws.resolve(call).iter().any(|t| {
                        scope_set.contains(t) && reaches.contains(t)
                    }))
            });
            if callee_reaches {
                reaches.insert(i);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for &i in &in_scope {
        let f = &ws.fns[i];
        if !(f.is_pub || f.is_trait_impl)
            || !L016_ENTRY_FNS.contains(&f.name.as_str())
            || reaches.contains(&i)
            || f.events.iter().any(|e| e.allowed("L016"))
        {
            continue;
        }
        findings.push(Finding {
            rule: Rule::L016,
            file: f.file.clone(),
            line: f.line,
            message: format!(
                "`{}` never reports to the privacy ledger; charge the cost with \
                 `privacy_charge` (or `privacy_charge_zero` for a cost-free \
                 transform), or annotate a body line with \
                 `lint: allow(L016, reason)`",
                f.qual,
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(specs: &[(&str, &str)]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn rule_findings(sources: &[(String, String)], rule: Rule) -> Vec<Finding> {
        check_semantic(sources)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    // ----- L010 ------------------------------------------------------

    #[test]
    fn l010_flags_unclipped_noise_in_pub_defense() {
        let sources = files(&[(
            "crates/defenses/src/ndp.rs",
            "pub fn noise_only(p: &mut ModelParams, rng: &mut Rng) {\n\
                 add_gaussian_noise(p, 0.5, rng);\n\
             }\n",
        )]);
        let l010 = rule_findings(&sources, Rule::L010);
        assert_eq!(l010.len(), 1, "{l010:?}");
        assert_eq!(l010[0].line, 2);
    }

    #[test]
    fn l010_accepts_clip_then_noise_and_direct_draws_after_clip() {
        let sources = files(&[(
            "crates/defenses/src/ndp.rs",
            "pub fn mechanism(p: &mut ModelParams, rng: &mut Rng) {\n\
                 clip_l2(p, 5.0);\n\
                 add_gaussian_noise(p, 0.5, rng);\n\
             }\n\
             pub fn fused(p: &mut [f32], rng: &mut Rng) {\n\
                 let s = clip_factor(n, c);\n\
                 for v in p { *v = *v * s + rng.normal(); }\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L010).is_empty());
    }

    #[test]
    fn l010_propagates_through_private_helpers_to_the_entry() {
        let sources = files(&[(
            "crates/defenses/src/ndp.rs",
            "impl ClientMiddleware for X {\n\
                 fn transform_upload(&mut self, p: &mut ModelParams) {\n\
                     self.perturb(p);\n\
                 }\n\
             }\n\
             impl X {\n\
                 fn perturb(&mut self, p: &mut ModelParams) {\n\
                     for v in p { *v += self.rng.normal_with(0.0, 1.0); }\n\
                 }\n\
             }\n",
        )]);
        let l010 = rule_findings(&sources, Rule::L010);
        // The trait-impl entry is flagged; the private helper is not.
        assert_eq!(l010.len(), 1, "{l010:?}");
        assert!(l010[0].message.contains("transform_upload"));
    }

    #[test]
    fn l010_covered_helper_and_allowed_draw_stay_silent() {
        let sources = files(&[(
            "crates/defenses/src/ndp.rs",
            "pub fn entry(p: &mut ModelParams, rng: &mut Rng) {\n\
                 clip_l2(p, 1.0);\n\
                 helper(p, rng);\n\
             }\n\
             fn helper(p: &mut ModelParams, rng: &mut Rng) {\n\
                 add_gaussian_noise(p, 0.1, rng);\n\
             }\n\
             pub fn masks(p: &mut ModelParams, rng: &mut Rng) {\n\
                 // lint: allow(L010, pairwise masks cancel exactly; not DP noise)\n\
                 let m = rng.normal_with(0.0, 10.0);\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L010).is_empty());
    }

    // ----- L011 ------------------------------------------------------

    #[test]
    fn l011_flags_literal_seeds_outside_tests() {
        let sources = files(&[(
            "crates/fl/src/x.rs",
            "pub fn f() { let rng = Rng::seed_from(42); }\n\
             pub fn g(cfg: &Cfg) { let rng = Rng::seed_from(cfg.seed ^ 42); }\n\
             #[cfg(test)]\nmod tests { fn t() { let rng = Rng::seed_from(0); } }\n",
        )]);
        let l011 = rule_findings(&sources, Rule::L011);
        assert_eq!(l011.len(), 1, "{l011:?}");
        assert_eq!(l011[0].line, 1);
    }

    #[test]
    fn l011_allow_and_bench_are_exempt() {
        let sources = files(&[
            (
                "crates/bench/src/x.rs",
                "pub fn f() { let rng = Rng::seed_from(7); }\n",
            ),
            (
                "crates/fl/src/y.rs",
                "pub fn f() {\n\
                     // lint: allow(L011, protocol constant shared with the paper)\n\
                     let rng = Rng::seed_from(7);\n\
                 }\n",
            ),
        ]);
        assert!(rule_findings(&sources, Rule::L011).is_empty());
    }

    // ----- L012 ------------------------------------------------------

    #[test]
    fn l012_flags_panics_transitively_reachable_from_transport() {
        let sources = files(&[
            (
                "crates/fl/src/transport.rs",
                "pub fn run_threaded_wire(s: FlSystem) { step_round(&s); }\n",
            ),
            (
                "crates/fl/src/steps.rs",
                "pub fn step_round(s: &FlSystem) { s.model.refit(); }\n",
            ),
            (
                "crates/nn/src/fit.rs",
                "impl Model { pub fn refit(&self) { self.w.get(0).unwrap(); } }\n\
                 pub fn unrelated() { x.unwrap(); }\n",
            ),
        ]);
        let l012 = rule_findings(&sources, Rule::L012);
        assert_eq!(l012.len(), 1, "{l012:?}");
        assert!(l012[0].message.contains("run_threaded_wire"));
        assert!(l012[0].message.contains("Model::refit"));
    }

    #[test]
    fn l012_honors_invariant_allows_and_ambient_method_blocklist() {
        let sources = files(&[
            (
                "crates/fl/src/transport.rs",
                "pub fn run_threaded_wire(s: FlSystem) { s.tensor.map(f); justified(); }\n",
            ),
            (
                "crates/fl/src/steps.rs",
                "pub fn justified() {\n\
                     x.unwrap(); // lint: allow(L001, invariant documented here)\n\
                 }\n\
                 impl Tensor { pub fn map(&self, f: F) { self.buf.expect(\"len\"); } }\n",
            ),
        ]);
        assert!(rule_findings(&sources, Rule::L012).is_empty());
    }

    // ----- L013 ------------------------------------------------------

    #[test]
    fn l013_flags_out_of_order_nested_acquisition() {
        let sources = files(&[(
            "crates/telemetry/src/registry.rs",
            "impl Registry {\n\
                 pub fn bad(&self) {\n\
                     let h = self.inner.lock();\n\
                     self.rename();\n\
                 }\n\
                 fn rename(&self) { let e = self.entries.lock(); }\n\
                 pub fn good(&self) {\n\
                     let e = self.entries.lock();\n\
                     let h = self.inner.lock();\n\
                 }\n\
             }\n",
        )]);
        let l013 = rule_findings(&sources, Rule::L013);
        assert_eq!(l013.len(), 1, "{l013:?}");
        assert!(l013[0].message.contains("telemetry.registry"));
        assert_eq!(l013[0].line, 4);
    }

    #[test]
    fn l013_flags_event_log_locks_out_of_order() {
        let sources = files(&[
            (
                "crates/telemetry/src/span.rs",
                "impl EventLog {\n\
                     pub fn bad(&self, log: &Log) {\n\
                         let l = log.lock();\n\
                         self.register();\n\
                     }\n\
                     fn register(&self) { let t = self.threads.lock(); }\n\
                     pub fn good(&self, log: &Log) {\n\
                         let t = self.threads.lock();\n\
                         let l = log.lock();\n\
                     }\n\
                 }\n",
            ),
            (
                "crates/telemetry/src/recorder.rs",
                "fn view(a: &Thread, b: &Thread) {\n\
                     let first = a.log.lock();\n\
                     let second = b.log.lock();\n\
                 }\n",
            ),
        ]);
        let l013 = rule_findings(&sources, Rule::L013);
        assert_eq!(l013.len(), 2, "{l013:?}");
        assert!(l013.iter().any(|f| f.file.ends_with("span.rs")
            && f.line == 4
            && f.message.contains("acquires `telemetry.event_threads` while `telemetry.event_log`")));
        assert!(l013.iter().any(|f| f.file.ends_with("recorder.rs") && f.line == 3));
    }

    #[test]
    fn l013_same_class_reentry_is_flagged_and_unknown_receivers_skipped() {
        let sources = files(&[(
            "crates/telemetry/src/registry.rs",
            "impl Registry {\n\
                 pub fn reenter(&self) {\n\
                     let a = self.entries.lock();\n\
                     let b = self.entries.lock();\n\
                 }\n\
                 pub fn untracked(&self) {\n\
                     let a = self.other.lock();\n\
                     let b = self.other.lock();\n\
                 }\n\
             }\n",
        )]);
        let l013 = rule_findings(&sources, Rule::L013);
        assert_eq!(l013.len(), 1, "{l013:?}");
        assert_eq!(l013[0].line, 4);
    }

    // ----- L014 ------------------------------------------------------

    #[test]
    fn l014_flags_sum_over_hashset_iteration() {
        let sources = files(&[(
            "crates/metrics/src/agg.rs",
            "fn f(xs: &[u64]) -> f32 {\n\
                 let seen: HashSet<u64> = xs.iter().copied().collect();\n\
                 let total: f32 = seen.iter().map(|x| *x as f32).sum();\n\
                 total\n\
             }\n",
        )]);
        let l014 = rule_findings(&sources, Rule::L014);
        assert_eq!(l014.len(), 1, "{l014:?}");
        assert_eq!(l014[0].line, 3);
    }

    #[test]
    fn l014_flags_compound_assignment_loops_over_hashmap() {
        let sources = files(&[(
            "crates/fl/src/agg.rs",
            "fn f() {\n\
                 let mut weights = HashMap::new();\n\
                 let mut acc = 0.0;\n\
                 for (_, w) in &weights { acc += w; }\n\
             }\n",
        )]);
        let l014 = rule_findings(&sources, Rule::L014);
        assert_eq!(l014.len(), 1, "{l014:?}");
        assert_eq!(l014[0].line, 4);
    }

    #[test]
    fn l014_ignores_ordered_containers_counts_tests_and_allows() {
        let sources = files(&[(
            "crates/metrics/src/agg.rs",
            "fn ordered(xs: &[u64]) -> f32 {\n\
                 let seen: BTreeSet<u64> = xs.iter().copied().collect();\n\
                 seen.iter().map(|x| *x as f32).sum()\n\
             }\n\
             fn counting() {\n\
                 let seen: HashSet<u64> = HashSet::new();\n\
                 let n = seen.iter().count();\n\
             }\n\
             fn allowed(seen2: &X) {\n\
                 let seen: HashSet<u64> = HashSet::new();\n\
                 // lint: allow(L014, summation is order-independent here by construction)\n\
                 let t: f32 = seen.iter().map(f).sum();\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() {\n\
                     let seen: HashSet<u64> = HashSet::new();\n\
                     let t: f32 = seen.iter().map(f).sum();\n\
                 }\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L014).is_empty());
    }

    #[test]
    fn l014_only_polices_deterministic_crates() {
        let sources = files(&[(
            "crates/bench/src/agg.rs",
            "fn f() {\n\
                 let seen: HashSet<u64> = HashSet::new();\n\
                 let t: f32 = seen.iter().map(f).sum();\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L014).is_empty());
    }

    // ----- L015 ------------------------------------------------------

    #[test]
    fn l015_flags_scalar_draws_in_loops() {
        let sources = files(&[(
            "crates/defenses/src/gc.rs",
            "fn a(rng: &mut Rng, xs: &mut [f32]) {\n\
                 for x in xs.iter_mut() {\n\
                     *x += rng.normal();\n\
                 }\n\
             }\n\
             fn b(rng: &mut Rng, std: f32) -> f32 {\n\
                 let mut acc = 0.0;\n\
                 while acc < 1.0 {\n\
                     acc += rng.normal_with(0.0, std);\n\
                 }\n\
                 acc\n\
             }\n",
        )]);
        let l015 = rule_findings(&sources, Rule::L015);
        assert_eq!(l015.len(), 2, "{l015:?}");
        assert_eq!(l015[0].line, 3);
        assert_eq!(l015[1].line, 9);
    }

    #[test]
    fn l015_covers_closures_inside_loop_bodies() {
        let sources = files(&[(
            "crates/defenses/src/sa.rs",
            "fn mask(rng: &mut Rng, view: &mut V) {\n\
                 for peer in 0..3 {\n\
                     view.for_each_slice_mut(|s| {\n\
                         s[0] = rng.normal();\n\
                     });\n\
                 }\n\
             }\n",
        )]);
        let l015 = rule_findings(&sources, Rule::L015);
        assert_eq!(l015.len(), 1, "{l015:?}");
        assert_eq!(l015[0].line, 4);
    }

    #[test]
    fn l015_ignores_bulk_fills_straight_line_draws_tests_and_allows() {
        let sources = files(&[(
            "crates/defenses/src/dp.rs",
            "fn bulk(rng: &mut Rng, view: &mut V, std: f32) {\n\
                 for _ in 0..3 {\n\
                     view.for_each_slice_mut(|s| rng.axpy_normal(s, std));\n\
                 }\n\
             }\n\
             fn once(rng: &mut Rng) -> f32 {\n\
                 rng.normal()\n\
             }\n\
             fn allowed(rng: &mut Rng, xs: &mut [f32]) {\n\
                 for x in xs.iter_mut() {\n\
                     // lint: allow(L015, one draw per rejection round, unbounded slice size unknown)\n\
                     *x = rng.normal();\n\
                 }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(rng: &mut Rng) {\n\
                     for _ in 0..3 {\n\
                         rng.normal();\n\
                     }\n\
                 }\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L015).is_empty());
    }

    #[test]
    fn l015_does_not_mistake_impl_for_blocks_for_loops() {
        let sources = files(&[(
            "crates/defenses/src/ldp.rs",
            "impl Noise for Ldp {\n\
                 fn draw(&mut self) -> f32 {\n\
                     self.rng.normal()\n\
                 }\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L015).is_empty());
    }

    #[test]
    fn l015_only_polices_defenses_and_param_plane_files() {
        let sources = files(&[(
            "crates/tensor/src/rng.rs",
            "fn f(rng: &mut Rng, xs: &mut [f32]) {\n\
                 for x in xs.iter_mut() {\n\
                     *x = rng.normal();\n\
                 }\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L015).is_empty());
    }

    // ----- L016 ------------------------------------------------------

    #[test]
    fn l016_flags_transform_that_never_reports_to_the_ledger() {
        let sources = files(&[(
            "crates/defenses/src/quiet.rs",
            "impl ClientMiddleware for Quiet {\n\
                 fn transform_upload(&mut self, p: &mut ModelParams) {\n\
                     scale(p);\n\
                 }\n\
             }\n",
        )]);
        let l016 = rule_findings(&sources, Rule::L016);
        assert_eq!(l016.len(), 1, "{l016:?}");
        assert_eq!(l016[0].line, 2);
        assert!(l016[0].message.contains("transform_upload"));
    }

    #[test]
    fn l016_accepts_direct_charges_and_charges_through_helpers() {
        let sources = files(&[(
            "crates/defenses/src/loud.rs",
            "impl ClientMiddleware for Direct {\n\
                 fn transform_upload(&mut self, p: &mut ModelParams) {\n\
                     self.telemetry.privacy_charge(\"ldp\", \"client[0]\", e, d);\n\
                 }\n\
             }\n\
             impl ClientMiddleware for Delegating {\n\
                 fn transform_upload(&mut self, p: &mut ModelParams) {\n\
                     report_cost(&self.telemetry);\n\
                 }\n\
             }\n\
             fn report_cost(t: &Telemetry) {\n\
                 t.privacy_charge_zero(\"sa\", \"client[0]\");\n\
             }\n",
        )]);
        assert!(rule_findings(&sources, Rule::L016).is_empty());
    }

    #[test]
    fn l016_honors_allow_and_ignores_other_crates_and_other_fns() {
        let sources = files(&[
            (
                "crates/defenses/src/inert.rs",
                "impl ClientMiddleware for Inert {\n\
                     fn transform_upload(&mut self, p: &mut ModelParams) {\n\
                         // lint: allow(L016, pure reshape, never touches member data)\n\
                         reshape(p);\n\
                     }\n\
                 }\n\
                 pub fn unrelated_helper(p: &mut ModelParams) {\n\
                     scale(p);\n\
                 }\n",
            ),
            (
                "crates/nn/src/optim.rs",
                "impl Optimizer for Sgd {\n\
                     fn step(&mut self, m: &mut Model) {\n\
                         apply(m);\n\
                     }\n\
                 }\n",
            ),
        ]);
        assert!(rule_findings(&sources, Rule::L016).is_empty());
    }
}
