//! Lexical preprocessing: comment/string stripping and annotation capture.
//!
//! The rules in [`crate::rules`] are token-level — they must not fire on a
//! mention of `unwrap()` inside a doc comment or a string literal. This
//! module rewrites a source file so that every comment and string-literal
//! character becomes a space (preserving line and column structure exactly),
//! while extracting two side channels the rules need:
//!
//! * `// lint: allow(RULE, reason)` annotations, which suppress a rule on
//!   the annotated line and the line immediately below it, and
//! * `#[cfg(test)]`-gated regions, which the non-test rules skip.

use std::collections::{BTreeMap, BTreeSet};

/// A source file after lexical preprocessing.
#[derive(Debug, Clone)]
pub struct Stripped {
    /// The stripped source, split into lines (1-based indexing via
    /// [`Stripped::line`]).
    pub lines: Vec<String>,
    /// `line -> rules` explicitly allowed on that line and the next.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
    /// Per line, whether it sits inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
}

impl Stripped {
    /// The stripped text of a 1-based line (empty for out-of-range).
    pub fn line(&self, number: usize) -> &str {
        number
            .checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// `true` if `rule` is allowed on `line` — by an annotation on the line
    /// itself or on the line directly above.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|set| set.contains(rule)))
    }

    /// `true` if the 1-based line is inside a `#[cfg(test)]` region.
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.in_test.get(i))
            .copied()
            .unwrap_or(false)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Strips comments and string literals from `source`, replacing their
/// contents with spaces so offsets survive, and records lint annotations.
pub fn strip(source: &str) -> Stripped {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let mut comment_buf = String::new();
    let mut allows: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    comment_buf.clear();
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    out.push('"');
                    i += 1;
                    continue;
                }
                // Raw/byte string openers: r", r#", br", b".
                if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    if let Some((hashes, consumed)) = raw_string_open(&chars, i) {
                        state = if hashes == u32::MAX {
                            State::Str
                        } else {
                            State::RawStr(hashes)
                        };
                        for _ in 0..consumed {
                            out.push(' ');
                        }
                        out.push('"');
                        i += consumed + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Distinguish char literals from lifetimes.
                    if next == Some('\\') {
                        // Escaped char literal: scan to the closing quote.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        out.push('\'');
                        for k in i + 1..j.min(chars.len()) {
                            out.push(if chars[k] == '\n' { '\n' } else { ' ' });
                        }
                        if j < chars.len() {
                            out.push('\'');
                        }
                        line += chars[i..=j.min(chars.len() - 1)]
                            .iter()
                            .filter(|&&x| x == '\n')
                            .count();
                        i = j + 1;
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') {
                        // Plain char literal 'x'.
                        out.push_str("' '");
                        i += 3;
                        continue;
                    }
                    // Lifetime: keep the tick, continue as code.
                    out.push('\'');
                    i += 1;
                    continue;
                }
                if c == '\n' {
                    line += 1;
                }
                out.push(c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    record_allows(&comment_buf, line, &mut allows);
                    state = State::Code;
                    out.push('\n');
                    line += 1;
                } else {
                    comment_buf.push(c);
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else {
                    if c == '\n' {
                        line += 1;
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && next == Some('\n') {
                    // A line continuation: keep the newline, so stripped
                    // line numbers stay the source's.
                    out.push_str(" \n");
                    line += 1;
                    i += 2;
                } else if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    out.push('"');
                    i += 1;
                } else {
                    if c == '\n' {
                        line += 1;
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Code;
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    if c == '\n' {
                        line += 1;
                        out.push('\n');
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment {
        record_allows(&comment_buf, line, &mut allows);
    }

    let lines: Vec<String> = out.lines().map(str::to_string).collect();
    let in_test = mark_test_regions(&lines);
    Stripped {
        lines,
        allows,
        in_test,
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|p| chars.get(p))
        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// If `chars[i..]` opens a raw or byte string, returns `(hash_count,
/// chars_before_the_quote)`. A plain `b"` (no hashes, escapes active)
/// returns `u32::MAX` as a marker for ordinary-string lexing.
fn raw_string_open(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    let mut raw = false;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        raw = true;
        j += 1;
    }
    if j == i {
        return None;
    }
    let mut hashes = 0u32;
    while chars.get(j + hashes as usize) == Some(&'#') {
        hashes += 1;
    }
    let quote_at = j + hashes as usize;
    if chars.get(quote_at) != Some(&'"') {
        return None;
    }
    if !raw {
        if hashes != 0 {
            return None;
        }
        return Some((u32::MAX, quote_at - i));
    }
    Some((hashes, quote_at - i))
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Parses `lint: allow(RULE, reason)` out of a line comment's text.
fn record_allows(comment: &str, line: usize, allows: &mut BTreeMap<usize, BTreeSet<String>>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        let after = &rest[pos + "lint: allow(".len()..];
        let rule: String = after.chars().take_while(|c| c.is_alphanumeric()).collect();
        if !rule.is_empty() {
            allows.entry(line).or_default().insert(rule);
        }
        rest = after;
    }
}

/// Marks every line belonging to a `#[cfg(test)]`- or `#[cfg(all(test,…))]`-
/// gated item by tracking the brace depth of the block that follows the
/// attribute.
fn mark_test_regions(lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut idx = 0usize;
    while idx < lines.len() {
        let trimmed = lines[idx].trim_start();
        let gated = trimmed.starts_with("#[cfg(")
            && !trimmed.contains("not(test")
            && (trimmed.contains("(test") || trimmed.contains(" test"));
        if !gated {
            idx += 1;
            continue;
        }
        // Consume lines until the gated item's block closes.
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = idx;
        while j < lines.len() {
            in_test[j] = true;
            for c in lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == 0 => {
                        // Braceless gated item (e.g. a gated `use`).
                        opened = true;
                        depth = 0;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        idx = j + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_become_spaces() {
        let s = strip("let x = \"unwrap()\"; // unwrap()\nlet y = 1; /* unwrap() */");
        assert!(!s.line(1).contains("unwrap"));
        assert!(!s.line(2).contains("unwrap"));
        assert!(s.line(1).contains("let x ="));
    }

    #[test]
    fn line_structure_is_preserved() {
        let src = "a\n/* c1\nc2 */\nb \"s\ntr\" c\n";
        let s = strip(src);
        assert_eq!(s.lines.len(), src.lines().count());
        assert_eq!(s.line(1), "a");
        assert!(s.line(5).contains('c'));
    }

    #[test]
    fn line_continuations_keep_line_numbers() {
        let s = strip("let a = \"one \\\n two\";\nlet b = x.unwrap();\n");
        assert_eq!(s.lines.len(), 3);
        assert!(s.line(3).contains("unwrap"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let s = strip("let x = r#\"unwrap() \"inner\" \"#; let ok = 1;");
        assert!(!s.line(1).contains("unwrap"));
        assert!(s.line(1).contains("let ok = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes_survive() {
        let s = strip("fn f<'a>(x: &'a str) -> char { '}' }");
        assert!(s.line(1).contains("fn f<'a>"));
        // The brace inside the char literal must not unbalance the code.
        let opens = s.line(1).matches('{').count();
        let closes = s.line(1).matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn allow_annotations_are_captured() {
        let s = strip("let t = now(); // lint: allow(L002, timer by design)\nlet u = 1;\n");
        assert!(s.is_allowed("L002", 1));
        assert!(s.is_allowed("L002", 2));
        assert!(!s.is_allowed("L002", 3));
        assert!(!s.is_allowed("L001", 1));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = strip(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }
}
