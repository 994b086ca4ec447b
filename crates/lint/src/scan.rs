//! Token-stream scanning utilities shared by the lint passes.
//!
//! The shimmed `syn` lexer emits multi-character operators as single punct
//! tokens (`::` is two `:`), so all matchers here work at that granularity.

use syn::{Token, TokenKind};

/// A `.name(` method-call site. `idx` points at the `.`.
#[derive(Debug, Clone, Copy)]
pub struct MethodCall<'a> {
    pub idx: usize,
    pub name: &'a str,
    pub line: u32,
}

/// Every `.ident(` site in the token slice.
pub fn method_calls(toks: &[Token]) -> Vec<MethodCall<'_>> {
    let mut out = Vec::new();
    if toks.len() < 3 {
        return out;
    }
    for i in 0..toks.len() - 2 {
        if toks[i].is_punct('.')
            && toks[i + 1].kind == TokenKind::Ident
            && toks[i + 2].is_punct('(')
        {
            out.push(MethodCall {
                idx: i,
                name: &toks[i + 1].text,
                line: toks[i + 1].line,
            });
        }
    }
    out
}

/// A free or path-qualified call site `name(` that is not a method call.
/// `idx` points at the name; for `a::b::c(...)` the name is `c`.
#[derive(Debug, Clone, Copy)]
pub struct FreeCall<'a> {
    pub idx: usize,
    pub name: &'a str,
    pub line: u32,
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "as", "loop", "else", "move", "fn", "let",
];

/// Every `ident(` call site that is not a method call, a definition, or a
/// keyword followed by a parenthesized expression.
pub fn free_calls(toks: &[Token]) -> Vec<FreeCall<'_>> {
    let mut out = Vec::new();
    if toks.len() < 2 {
        return out;
    }
    for i in 0..toks.len() - 1 {
        if toks[i].kind != TokenKind::Ident || !toks[i + 1].is_punct('(') {
            continue;
        }
        if CALL_KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if i > 0 {
            let prev = &toks[i - 1];
            // `.name(` is a method call; `fn name(` is a definition;
            // `name!` cannot reach here (the `!` breaks the adjacency).
            if prev.is_punct('.') || prev.is_ident("fn") {
                continue;
            }
        }
        out.push(FreeCall {
            idx: i,
            name: &toks[i].text,
            line: toks[i].line,
        });
    }
    out
}

/// Index of the opening delimiter matching the closer at `close`.
pub fn open_of(toks: &[Token], close: usize) -> Option<usize> {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i32;
    for i in (0..=close).rev() {
        if toks[i].is_punct(c) {
            depth += 1;
        } else if toks[i].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the closing delimiter matching the opener at `open`, or the
/// slice end when unbalanced.
pub fn close_of(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return toks.len(),
    };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// The identifier chain to the left of the `.` at `dot_idx`, leftmost
/// first: for `state.db.table(users::T).iter()` at `.iter` this returns
/// `["state", "db", "table"]`. Stops at anything that is not a `.`/`::`
/// chain of identifiers, calls, or index expressions.
pub fn receiver_idents(toks: &[Token], dot_idx: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = dot_idx as isize - 1;
    while i >= 0 {
        let t = &toks[i as usize];
        if t.is_punct(')') || t.is_punct(']') {
            match open_of(toks, i as usize) {
                // Skip the argument/index group; the callee identifier (if
                // any) is picked up on the next iteration.
                Some(open) => i = open as isize - 1,
                None => break,
            }
            continue;
        }
        if t.is_punct('?') {
            i -= 1;
            continue;
        }
        if t.kind == TokenKind::Ident {
            out.push(t.text.clone());
            if i >= 1 && toks[i as usize - 1].is_punct('.') {
                i -= 2;
                continue;
            }
            if i >= 2 && toks[i as usize - 1].is_punct(':') && toks[i as usize - 2].is_punct(':') {
                i -= 3;
                continue;
            }
            break;
        }
        break;
    }
    out.reverse();
    out
}

/// Index one past the end of the innermost brace block containing `idx`
/// (i.e. the index of its closing `}`), or `toks.len()` when `idx` is at
/// the body's top level.
pub fn block_end(toks: &[Token], idx: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(idx + 1) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        }
    }
    toks.len()
}

/// Index of the `;` ending the statement containing `idx` (at the same
/// delimiter depth), or the end of the enclosing block when none is found.
pub fn statement_end(toks: &[Token], idx: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(idx + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
    }
    toks.len()
}

/// True when `toks[idx..]` starts with the given sequence of identifiers
/// separated by `::` (e.g. `path_starts(toks, i, &["std", "fs"])` matches
/// `std::fs`).
pub fn path_starts(toks: &[Token], idx: usize, segs: &[&str]) -> bool {
    let mut i = idx;
    for (n, seg) in segs.iter().enumerate() {
        if i >= toks.len() || !toks[i].is_ident(seg) {
            return false;
        }
        i += 1;
        if n + 1 < segs.len() {
            if i + 1 >= toks.len() || !toks[i].is_punct(':') || !toks[i + 1].is_punct(':') {
                return false;
            }
            i += 2;
        }
    }
    true
}

/// The string-literal arguments at the top nesting level of the call whose
/// opening paren is at `open`, with their positional argument index
/// (0-based, split on top-level commas).
pub fn str_args(toks: &[Token], open: usize) -> Vec<(usize, String, u32)> {
    let close = close_of(toks, open);
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg = 0usize;
    for t in toks.iter().take(close).skip(open + 1) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            arg += 1;
        } else if t.kind == TokenKind::Str && depth == 0 {
            out.push((arg, t.text.clone(), t.line));
        }
    }
    out
}

/// Walks back from `idx` to the start of the enclosing statement and
/// returns the name bound by a leading `let`, if the statement is a `let`
/// binding. Handles `let x =`, `let mut x =`, `let Some(x) =`,
/// `let Ok(x) =`.
pub fn let_binding_before(toks: &[Token], idx: usize) -> Option<String> {
    // Find statement start: the token after the previous `;`, `{` or `}`
    // at the same delimiter depth.
    let mut depth = 0i32;
    let mut start = 0usize;
    for j in (0..idx).rev() {
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth -= 1;
            if depth < 0 {
                start = j + 1;
                break;
            }
        } else if t.is_punct(';') && depth == 0 {
            start = j + 1;
            break;
        }
    }
    let stmt = &toks[start..idx];
    let let_pos = stmt.iter().position(|t| t.is_ident("let"))?;
    let mut k = let_pos + 1;
    if k < stmt.len() && stmt[k].is_ident("mut") {
        k += 1;
    }
    if k >= stmt.len() || stmt[k].kind != TokenKind::Ident {
        return None;
    }
    // `let name =`
    if k + 1 < stmt.len() && stmt[k + 1].is_punct('=') {
        return Some(stmt[k].text.clone());
    }
    // `let Some(name) =` / `let Ok(name) =`
    if (stmt[k].is_ident("Some") || stmt[k].is_ident("Ok"))
        && k + 3 < stmt.len()
        && stmt[k + 1].is_punct('(')
        && stmt[k + 2].kind == TokenKind::Ident
        && stmt[k + 3].is_punct(')')
    {
        return Some(stmt[k + 2].text.clone());
    }
    None
}
