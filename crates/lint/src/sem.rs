//! Lightweight item parser: functions, impl contexts and per-function
//! event streams.
//!
//! This is not a Rust parser — it is a brace-depth walk over the token
//! stream from [`crate::lex`] that recovers exactly what the cross-file
//! rules need: which functions exist (with their impl context, visibility
//! and test status), and the ordered list of *events* inside each body —
//! call sites, panic sites, lock acquisitions, noise draws and literal
//! seeds. Everything else (expressions, types, generics) is skipped.

use crate::lex::{lex, Tok, TokKind};
use crate::strip::Stripped;

/// How a call site names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free function (or a locally imported one).
    Free(String),
    /// `Qualifier::name(...)` — keyed by the last path segment before `::`.
    Qualified(String, String),
    /// `.name(...)` — a method call, resolved by name across the workspace.
    Method(String),
}

/// One event inside a function body, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A call site (resolution happens in [`crate::graph`]).
    Call(CallKind),
    /// A panic site: `.unwrap()`, `.expect(` or `panic!`.
    Panic(&'static str),
    /// A `.lock()` acquisition; the string is the receiver field/static name.
    Lock(String),
    /// A direct RNG noise draw (`normal`, `normal_with`, `randn`, `randn_with`).
    NoiseDraw(String),
    /// `seed_from(<integer literal>)` — a hard-coded RNG seed.
    SeedLiteral,
}

/// An event with its source line and the allow-annotations that cover it.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based line of the event.
    pub line: usize,
    /// The semantic rules (`"L010"`–`"L013"`, `"L016"`) a `lint: allow(...)`
    /// covers on this line. Panic sites also honor an L001 allow (recorded here as
    /// `"L012"`): a documented per-line invariant covers the transitive
    /// rule too.
    pub allows: std::collections::BTreeSet<&'static str>,
}

impl Event {
    /// `true` if `rule` is explicitly allowed at this event's line.
    pub fn allowed(&self, rule: &str) -> bool {
        self.allows.contains(rule)
    }
}

/// One parsed function with its body events.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Repo-relative file path.
    pub file: String,
    /// Bare function name.
    pub name: String,
    /// `Type::name` for inherent/trait-impl methods, else the bare name.
    pub qual: String,
    /// The `impl` self type, when the function is a method.
    pub self_ty: Option<String>,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Defined inside an `impl Trait for Type` block.
    pub is_trait_impl: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range `[start, end)` of the body contents.
    pub body: (usize, usize),
    /// Ordered body events (nested fn items excluded).
    pub events: Vec<Event>,
}

/// Rust keywords that look like call sites when followed by `(`.
const KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "let", "in", "as", "move", "ref", "else",
    "break", "fn",
];

const NOISE_METHODS: [&str; 8] = [
    "normal",
    "normal_with",
    "randn",
    "randn_with",
    "fill_normal",
    "fill_normal_with",
    "axpy_normal",
    "zip_normal",
];

/// Parses one stripped file into its non-test functions with events.
pub fn parse_file(file: &str, stripped: &Stripped) -> Vec<FnInfo> {
    let toks = lex(stripped);
    let mut fns = collect_fns(file, stripped, &toks);
    // Spans of all fn bodies, to exclude nested items from parent events.
    let spans: Vec<(usize, usize)> = fns.iter().map(|f| f.body).collect();
    for f in &mut fns {
        f.events = collect_events(&toks, stripped, f.body, &spans);
    }
    fns
}

/// One entry of the impl-context stack.
#[derive(Debug)]
struct ImplCtx {
    depth: i64,
    ty: String,
    is_trait: bool,
}

fn collect_fns(file: &str, stripped: &Stripped, toks: &[Tok]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    let mut impls: Vec<ImplCtx> = Vec::new();
    let mut depth = 0i64;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                depth -= 1;
                if impls.last().is_some_and(|c| depth <= c.depth) {
                    impls.pop();
                }
                i += 1;
            }
            TokKind::Ident if t.text == "impl" => {
                if let Some((ctx, at_open)) = parse_impl_header(toks, i, depth) {
                    impls.push(ctx);
                    depth += 1;
                    i = at_open + 1;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.text == "fn" => {
                let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                    i += 1; // `fn(` pointer type
                    continue;
                };
                // Find the body opener or a `;` (trait method declaration).
                let mut j = i + 2;
                let mut opener = None;
                while let Some(tok) = toks.get(j) {
                    match tok.kind {
                        TokKind::Punct('{') => {
                            opener = Some(j);
                            break;
                        }
                        TokKind::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                let Some(open) = opener else {
                    i = j + 1;
                    continue;
                };
                let close = match_brace(toks, open);
                if !stripped.is_test_line(t.line) {
                    let ctx = impls.last();
                    let name = name_tok.text.clone();
                    let qual = match ctx {
                        Some(c) => format!("{}::{}", c.ty, name),
                        None => name.clone(),
                    };
                    fns.push(FnInfo {
                        file: file.to_string(),
                        name,
                        qual,
                        self_ty: ctx.map(|c| c.ty.clone()),
                        is_pub: is_pub_before(toks, i),
                        is_trait_impl: ctx.is_some_and(|c| c.is_trait),
                        line: t.line,
                        body: (open + 1, close),
                        events: Vec::new(),
                    });
                }
                // Continue *inside* the body so nested fns are found too;
                // depth bookkeeping continues naturally at the `{`.
                i += 2;
            }
            _ => i += 1,
        }
    }
    fns
}

/// Parses `impl <generics>? Path (for Path)? .. {` starting at `at`
/// (the `impl` token). Returns the context and the index of the `{`.
fn parse_impl_header(toks: &[Tok], at: usize, depth: i64) -> Option<(ImplCtx, usize)> {
    let mut idents: Vec<String> = Vec::new();
    let mut angle = 0i64;
    let mut j = at + 1;
    loop {
        let t = toks.get(j)?;
        match t.kind {
            TokKind::Punct('{') if angle == 0 => break,
            TokKind::Punct(';') => return None, // e.g. stray `impl` in a macro
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = (angle - 1).max(0),
            TokKind::Ident if angle == 0 => {
                if t.text == "where" {
                    // Type names are all collected; skip bounds to `{`.
                    while toks.get(j).is_some_and(|t| !t.is_punct('{')) {
                        j += 1;
                    }
                    break;
                }
                idents.push(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    let (ty, is_trait) = match idents.iter().position(|s| s == "for") {
        Some(pos) => (idents.get(pos + 1..)?.last()?.clone(), true),
        None => (idents.last()?.clone(), false),
    };
    Some((
        ImplCtx {
            depth,
            ty,
            is_trait,
        },
        j,
    ))
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Looks backwards from the `fn` token for a `pub` qualifier on this item.
fn is_pub_before(toks: &[Tok], fn_at: usize) -> bool {
    let mut j = fn_at;
    let mut steps = 0;
    while j > 0 && steps < 8 {
        j -= 1;
        steps += 1;
        match &toks[j].kind {
            TokKind::Punct('{') | TokKind::Punct('}') | TokKind::Punct(';') => return false,
            TokKind::Ident if toks[j].text == "pub" => return true,
            _ => {}
        }
    }
    false
}

fn collect_events(
    toks: &[Tok],
    stripped: &Stripped,
    body: (usize, usize),
    all_spans: &[(usize, usize)],
) -> Vec<Event> {
    // Body spans strictly nested inside ours belong to nested fn items.
    let nested: Vec<(usize, usize)> = all_spans
        .iter()
        .filter(|(s, e)| *s > body.0 && *e < body.1)
        .copied()
        .collect();
    let mut events = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        if let Some(&(_, end)) = nested.iter().find(|(s, _)| *s == i + 1) {
            // Skip to the end of a nested fn body (span starts after its `{`).
            i = end + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next = toks.get(i + 1);
        // `name!` macro invocations: only panic! is an event.
        if next.is_some_and(|n| n.is_punct('!')) && t.text == "panic" {
            events.push(event(EventKind::Panic("panic!"), t.line, stripped));
            i += 2;
            continue;
        }
        if !next.is_some_and(|n| n.is_punct('(')) {
            i += 1;
            continue;
        }
        // An identifier followed by `(` — classify by what precedes it.
        if i > 0 && toks[i - 1].is_ident("fn") {
            i += 1; // a nested item's name, not a call
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let name = t.text.as_str();
        let kind = if prev_dot {
            match name {
                "unwrap" if toks.get(i + 2).is_some_and(|n| n.is_punct(')')) => {
                    Some(EventKind::Panic(".unwrap()"))
                }
                "expect" => Some(EventKind::Panic(".expect(")),
                "lock" => Some(EventKind::Lock(receiver_of(toks, i))),
                _ if NOISE_METHODS.contains(&name) => Some(EventKind::NoiseDraw(name.to_string())),
                _ => Some(EventKind::Call(CallKind::Method(name.to_string()))),
            }
        } else if prev_path {
            let qualifier = toks
                .get(i.wrapping_sub(3))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone())
                .unwrap_or_default();
            if name == "seed_from" && literal_arg(toks, i + 1) {
                Some(EventKind::SeedLiteral)
            } else {
                Some(EventKind::Call(CallKind::Qualified(
                    qualifier,
                    name.to_string(),
                )))
            }
        } else if KEYWORDS.contains(&name) {
            None
        } else if name == "seed_from" && literal_arg(toks, i + 1) {
            Some(EventKind::SeedLiteral)
        } else {
            Some(EventKind::Call(CallKind::Free(name.to_string())))
        };
        if let Some(kind) = kind {
            events.push(event(kind, t.line, stripped));
        }
        i += 1;
    }
    events
}

/// The identifier directly before the `.` of a method call at `i`
/// (e.g. `entries` in `self.entries.lock()`), or `""`.
fn receiver_of(toks: &[Tok], i: usize) -> String {
    i.checked_sub(2)
        .and_then(|j| toks.get(j))
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

/// `true` if the `(` at `open` wraps a single integer literal.
fn literal_arg(toks: &[Tok], open: usize) -> bool {
    toks.get(open + 1).is_some_and(|a| a.kind == TokKind::Num)
        && toks.get(open + 2).is_some_and(|c| c.is_punct(')'))
}

fn event(kind: EventKind, line: usize, stripped: &Stripped) -> Event {
    let mut allows = std::collections::BTreeSet::new();
    for rule in ["L010", "L011", "L012", "L013", "L016"] {
        if stripped.is_allowed(rule, line) {
            allows.insert(rule);
        }
    }
    if stripped.is_allowed("L001", line) {
        allows.insert("L012");
    }
    Event { kind, line, allows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::strip;

    fn parse(src: &str) -> Vec<FnInfo> {
        parse_file("crates/x/src/lib.rs", &strip(src))
    }

    #[test]
    fn free_and_method_fns_are_qualified() {
        let fns = parse(
            "pub fn free() {}\n\
             struct T;\n\
             impl T { fn m(&self) {} }\n\
             impl Clone for T { fn clone(&self) -> T { T } }\n",
        );
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["free", "T::m", "T::clone"]);
        assert!(fns[0].is_pub && !fns[1].is_pub);
        assert!(!fns[1].is_trait_impl && fns[2].is_trait_impl);
    }

    #[test]
    fn impl_with_generics_and_paths_resolves_self_type() {
        let fns = parse(
            "impl<'a> View<'a> { fn norm(&self) {} }\n\
             impl fmt::Display for Wide<f32> { fn fmt(&self) {} }\n",
        );
        assert_eq!(fns[0].qual, "View::norm");
        assert_eq!(fns[1].qual, "Wide::fmt");
        assert!(fns[1].is_trait_impl);
    }

    #[test]
    fn cfg_test_fns_are_excluded() {
        let fns = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "lib");
    }

    #[test]
    fn events_capture_calls_panics_locks_noise_and_seeds() {
        let fns = parse(
            "fn f(&self) {\n\
                 helper(1);\n\
                 self.entries.lock();\n\
                 x.unwrap();\n\
                 y.expect(\"m\");\n\
                 panic!(\"boom\");\n\
                 let n = rng.normal_with(0.0, sd);\n\
                 let r = Rng::seed_from(42);\n\
                 dp::clip_l2(p, c);\n\
                 obj.method(2);\n\
             }\n",
        );
        let kinds: Vec<&EventKind> = fns[0].events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            [
                &EventKind::Call(CallKind::Free("helper".into())),
                &EventKind::Lock("entries".into()),
                &EventKind::Panic(".unwrap()"),
                &EventKind::Panic(".expect("),
                &EventKind::Panic("panic!"),
                &EventKind::NoiseDraw("normal_with".into()),
                &EventKind::SeedLiteral,
                &EventKind::Call(CallKind::Qualified("dp".into(), "clip_l2".into())),
                &EventKind::Call(CallKind::Method("method".into())),
            ]
        );
    }

    #[test]
    fn derived_seed_is_not_a_literal_seed() {
        let fns = parse("fn f(cfg: &C) { let r = Rng::seed_from(cfg.seed ^ 3); }");
        assert!(fns[0]
            .events
            .iter()
            .all(|e| e.kind != EventKind::SeedLiteral));
    }

    #[test]
    fn allows_cover_events() {
        let fns = parse(
            "fn f() {\n\
                 x.unwrap(); // lint: allow(L001, invariant)\n\
                 rng.normal(); // lint: allow(L010, masks cancel)\n\
                 y.unwrap();\n\
             }\n",
        );
        let panics: Vec<&Event> = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Panic(_)))
            .collect();
        assert!(panics[0].allowed("L012") && !panics[1].allowed("L012"));
        let noise = fns[0]
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::NoiseDraw(_)))
            .unwrap();
        assert!(noise.allowed("L010"));
    }

    #[test]
    fn nested_fn_events_stay_with_the_nested_fn() {
        let fns = parse(
            "fn outer() {\n\
                 fn inner() { x.unwrap(); }\n\
                 inner();\n\
             }\n",
        );
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::Panic(_))));
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.events.len(), 1);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let fns = parse("trait T { fn sig(&self); fn with_default(&self) { helper(); } }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with_default");
    }
}
