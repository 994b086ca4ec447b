//! Pass 3 — delta-path scan ban.
//!
//! PR 3's incremental DCM claims (EXPERIMENTS.md E14) hold only if the
//! delta path never enumerates whole driver tables:
//!
//! - in `incremental.rs`, `.table(..).iter()` and `changed_since(0)` are
//!   forbidden; every `full_rebuild_rows(..)` call must carry the
//!   `full-rebuild fallback` marker comment (same line or adjacent line),
//!   keeping explicit the only place a full enumeration is allowed;
//! - in each generator, the delta-fragment functions named by `Section`
//!   literals (`SectionKind::Lines(f)`, `SectionKind::Members(f)`,
//!   `affected: Some(f)`) must stay per-row: no `.table(..).iter()`, no
//!   `Pred::True` selects, and no call that reaches one. The fragments are
//!   the only renderers — a from-scratch `generate` is the same fragments
//!   over `full_rebuild_rows` — so nothing in a generator may scan.
//!
//! The pass runs on the call-graph engine's `Scans` summaries: a fragment
//! that reaches a whole-table enumeration through any chain of helpers —
//! in any file — is denied, with the full call chain in the diagnostic.
//! Call sites carrying the `full-rebuild fallback` marker stop the
//! propagation (the engine does not flow `Scans` over marked edges).

use std::collections::HashSet;

use crate::engine::{is_table_iter, table_locals, Effect, Engine, FnId};
use crate::scan;
use crate::{Diagnostic, SourceFile, Workspace};
use syn::TokenKind;

pub const NAME: &str = "delta-scan";

const GENERATORS_DIR: &str = "crates/dcm/src/generators/";
const INCREMENTAL: &str = "crates/dcm/src/generators/incremental.rs";

pub fn run(ws: &Workspace, eng: &Engine<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        if !sf.rel.starts_with(GENERATORS_DIR) {
            continue;
        }
        if sf.rel == INCREMENTAL {
            check_incremental(sf, eng, fi, &mut out);
        } else {
            check_generator(sf, eng, fi, &mut out);
        }
    }
    out
}

fn check_incremental(sf: &SourceFile, eng: &Engine<'_>, fi: usize, out: &mut Vec<Diagnostic>) {
    // Marker lines: comments containing "full-rebuild fallback".
    let markers: HashSet<u32> = sf
        .ast
        .comments
        .iter()
        .filter(|c| c.text.contains("full-rebuild fallback"))
        .map(|c| c.line)
        .collect();
    for f in sf.ast.functions() {
        if f.in_test {
            continue;
        }
        let body = &f.func.body;
        let locals = table_locals(body);
        for mc in scan::method_calls(body) {
            if mc.name == "iter" && is_table_iter(body, mc.idx, &locals) {
                out.push(Diagnostic::new(
                    NAME,
                    sf.rel.clone(),
                    mc.line,
                    format!(
                        "`{}` iterates a whole table — the incremental path must read row \
                         deltas via changed_since",
                        f.func.name
                    ),
                ));
            }
            // `changed_since(0)` replays every row ever written: a full
            // scan in delta clothing.
            if mc.name == "changed_since"
                && body.get(mc.idx + 3).is_some_and(|t| t.text == "0")
                && body.get(mc.idx + 4).is_some_and(|t| t.is_punct(')'))
            {
                out.push(Diagnostic::new(
                    NAME,
                    sf.rel.clone(),
                    mc.line,
                    format!(
                        "`{}` calls changed_since(0) — that is a full scan; use \
                         full_rebuild_rows with its marker instead",
                        f.func.name
                    ),
                ));
            }
        }
        for fc in scan::free_calls(body) {
            if fc.name == "full_rebuild_rows" {
                let l = fc.line;
                if !(markers.contains(&l)
                    || markers.contains(&(l + 1))
                    || (l > 0 && markers.contains(&(l - 1))))
                {
                    out.push(Diagnostic::new(
                        NAME,
                        sf.rel.clone(),
                        l,
                        format!(
                            "`{}` calls full_rebuild_rows without a `full-rebuild fallback` \
                             marker comment — full enumerations must be explicit",
                            f.func.name
                        ),
                    ));
                }
            }
        }
    }
    // Transitive walk: calls out of incremental.rs whose callee summary
    // scans — unless the call site carries the fallback marker.
    for &id in eng.fns_in_file(fi) {
        if eng.fns[id].in_test {
            continue;
        }
        let fname = &eng.fns[id].func.name;
        for c in eng.calls(id) {
            if c.marked {
                continue;
            }
            for &t in &c.targets {
                // Scans *inside* this file are caught token-exactly above.
                if eng.fns[t].file == fi || !eng.effects(t).has(Effect::Scans) {
                    continue;
                }
                let (chain, prim) = eng.chain_through(id, c.line, t, Effect::Scans);
                out.push(
                    Diagnostic::new(
                        NAME,
                        sf.rel.clone(),
                        c.line,
                        format!(
                            "`{}` calls `{}`, which transitively enumerates a whole table \
                             (`{prim}`) — the incremental path must stay per-row",
                            fname, c.name
                        ),
                    )
                    .with_chain(chain),
                );
                break;
            }
        }
    }
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message && a.file == b.file);
}

fn check_generator(sf: &SourceFile, eng: &Engine<'_>, fi: usize, out: &mut Vec<Diagnostic>) {
    // Fragment functions named by Section literals inside delta plans.
    let mut fragments: Vec<&str> = Vec::new();
    let toks = &sf.tokens;
    for i in 0..toks.len() {
        // SectionKind::Lines(f) / SectionKind::Members(f)
        if toks[i].is_ident("SectionKind")
            && toks
                .get(i + 3)
                .is_some_and(|t| t.is_ident("Lines") || t.is_ident("Members"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            fragments.push(&toks[i + 5].text);
        }
        // affected: Some(f)
        if toks[i].is_ident("affected")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("Some"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            fragments.push(&toks[i + 4].text);
        }
    }
    fragments.sort_unstable();
    fragments.dedup();

    for name in &fragments {
        let Some(id) = eng.fn_in_file(fi, name) else {
            continue;
        };
        check_fragment(sf, eng, id, name, out);
    }
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message && a.file == b.file);
}

/// One delta fragment: its own body must be scan-free token-exactly, and
/// every call out of it must not transitively reach a whole-table
/// enumeration.
fn check_fragment(
    sf: &SourceFile,
    eng: &Engine<'_>,
    id: FnId,
    frag: &str,
    out: &mut Vec<Diagnostic>,
) {
    let body = &eng.fns[id].func.body;
    let locals = table_locals(body);
    for mc in scan::method_calls(body) {
        if mc.name == "iter" && is_table_iter(body, mc.idx, &locals) {
            out.push(Diagnostic::new(
                NAME,
                sf.rel.clone(),
                mc.line,
                format!(
                    "delta fragment `{frag}` iterates a whole driver table — fragments must \
                     stay per-row"
                ),
            ));
        }
    }
    // Pred::True selects are full scans.
    for i in 0..body.len() {
        if scan::path_starts(body, i, &["Pred", "True"]) {
            out.push(Diagnostic::new(
                NAME,
                sf.rel.clone(),
                body[i].line,
                format!("delta fragment `{frag}` selects with Pred::True — a full scan"),
            ));
        }
    }
    // Transitive walk: calls whose callee summary scans, at any depth, in
    // any file. (Direct sites in the fragment's own body are caught
    // token-exactly above.)
    for c in eng.calls(id) {
        if c.marked {
            continue;
        }
        for &t in &c.targets {
            if !eng.effects(t).has(Effect::Scans) {
                continue;
            }
            let (chain, prim) = eng.chain_through(id, c.line, t, Effect::Scans);
            out.push(
                Diagnostic::new(
                    NAME,
                    sf.rel.clone(),
                    c.line,
                    format!(
                        "delta fragment `{frag}` calls `{}`, which transitively enumerates a \
                         whole table (`{prim}`) — fragments must stay per-row",
                        c.name
                    ),
                )
                .with_chain(chain),
            );
            break;
        }
    }
}
