//! Pass 1 — lock-discipline.
//!
//! While a `SharedState` RwLock guard is live in a function body, the code
//! must not (a) acquire a second state guard — an instant self-deadlock
//! under parking_lot's non-reentrant locks — or (b) perform blocking I/O
//! (`std::net`, `std::fs`, blocking channel receives, connect/bind/accept),
//! which would stall every other session on the daemon.
//!
//! The pass runs on the workspace call-graph engine: a call made while the
//! guard is live is denied if the callee *transitively* acquires a state
//! guard or blocks — through any number of hops, in any file. The
//! diagnostic prints the full witness chain down to the primitive site.
//!
//! Guard liveness is scoped conservatively from the token stream:
//!
//! - an acquisition that is immediately `.method()`-chained is a temporary
//!   dropped at the end of its statement;
//! - a bound acquisition (`let g = ...`, `if let Some(g) = ...`) is live to
//!   the end of its innermost enclosing brace block, or to `drop(g)`.

use crate::engine::{Effect, Engine, FnId};
use crate::scan;
use crate::{Diagnostic, Workspace};
use syn::Token;

pub const NAME: &str = "lock-discipline";

/// The measurement harness is exempt: benches hold guards deliberately to
/// time lock contention itself.
fn in_scope(rel: &str) -> bool {
    !rel.starts_with("crates/bench/")
}

pub fn run(ws: &Workspace, eng: &Engine<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        if !in_scope(&sf.rel) {
            continue;
        }
        for &id in eng.fns_in_file(fi) {
            let node = &eng.fns[id];
            if node.in_test || !node.func.has_body {
                continue;
            }
            check_fn(eng, id, &sf.rel, &mut out);
        }
    }
    out
}

/// An acquisition site in a body: the index range of the call and its
/// source line. Shared with the reactor-discipline pass, which applies the
/// same liveness model to reactor waits.
pub(crate) struct Acquisition {
    /// Index of the `.` (method form) or the callee identifier (helper
    /// form).
    pub(crate) start: usize,
    /// Index of the call's closing `)`.
    pub(crate) close: usize,
    pub(crate) line: u32,
    pub(crate) what: String,
}

/// Guard-opening sites in `id`'s body: direct `.read()`/`.write()` on the
/// state, plus calls to guard-returning acquirers (`read_or_busy` /
/// `write_or_busy`) resolved through the call graph.
pub(crate) fn acquisition_sites(eng: &Engine<'_>, id: FnId) -> Vec<Acquisition> {
    let body = &eng.fns[id].func.body;
    let mut out = Vec::new();
    for mc in scan::method_calls(body) {
        if !crate::engine::is_state_acquire(body, mc.idx, mc.name) {
            continue;
        }
        let recv = scan::receiver_idents(body, mc.idx);
        let last = recv.last().map(String::as_str).unwrap_or("");
        out.push(Acquisition {
            start: mc.idx,
            close: scan::close_of(body, mc.idx + 2),
            line: mc.line,
            what: format!("{last}.{}()", mc.name),
        });
    }
    for c in eng.calls(id) {
        if c.method {
            continue;
        }
        let opens_guard = c
            .targets
            .iter()
            .any(|&t| eng.fns[t].returns_guard && eng.effects(t).acquires());
        if opens_guard {
            out.push(Acquisition {
                start: c.idx,
                close: c.close,
                line: c.line,
                what: format!("{}(...)", c.name),
            });
        }
    }
    out.sort_by_key(|a| a.start);
    out
}

fn check_fn(eng: &Engine<'_>, id: FnId, rel: &str, out: &mut Vec<Diagnostic>) {
    let body = &eng.fns[id].func.body;
    let fname = &eng.fns[id].func.name;
    let acqs = acquisition_sites(eng, id);
    if acqs.is_empty() {
        return;
    }
    let blocking = crate::engine::blocking_prim_sites(body);

    for acq in &acqs {
        let scope_end = guard_scope_end(body, acq);
        let scope_start = acq.close + 1;
        if scope_start >= scope_end {
            continue;
        }
        // Second acquisition while live.
        for other in &acqs {
            if other.start > scope_start && other.start < scope_end {
                out.push(Diagnostic::new(
                    NAME,
                    rel.to_string(),
                    other.line,
                    format!(
                        "`{}` in `{}` acquires a state guard while the guard from `{}` (line \
                         {}) is still live — non-reentrant RwLock, this self-deadlocks",
                        other.what, fname, acq.what, acq.line
                    ),
                ));
            }
        }
        // Blocking I/O while live (direct sites).
        for (idx, line, what) in &blocking {
            if *idx > scope_start && *idx < scope_end {
                out.push(Diagnostic::new(
                    NAME,
                    rel.to_string(),
                    *line,
                    format!(
                        "blocking call `{what}` in `{}` while the state guard from `{}` (line \
                         {}) is live — every other session stalls behind it",
                        fname, acq.what, acq.line
                    ),
                ));
            }
        }
        // Transitive walk: any resolved call inside the live scope whose
        // callee summary acquires or blocks, at any depth, in any file.
        for c in eng.calls(id) {
            if c.idx <= scope_start || c.idx >= scope_end {
                continue;
            }
            for &t in &c.targets {
                let eff = eng.effects(t);
                // Guard-returning acquirers are already counted as
                // acquisitions above.
                if eng.fns[t].returns_guard && eff.acquires() {
                    continue;
                }
                let effect = if eff.has(Effect::AcquiresWrite) {
                    Some(Effect::AcquiresWrite)
                } else if eff.has(Effect::AcquiresRead) {
                    Some(Effect::AcquiresRead)
                } else if eff.has(Effect::Blocks) {
                    Some(Effect::Blocks)
                } else if eff.has(Effect::BlocksNet) {
                    Some(Effect::BlocksNet)
                } else {
                    None
                };
                let Some(effect) = effect else { continue };
                let (chain, prim) = eng.chain_through(id, c.line, t, effect);
                out.push(
                    Diagnostic::new(
                        NAME,
                        rel.to_string(),
                        c.line,
                        format!(
                            "`{}` calls `{}` — which transitively {} (`{}`) — while the state \
                             guard from `{}` (line {}) is live",
                            fname,
                            c.name,
                            effect.describe(),
                            prim,
                            acq.what,
                            acq.line
                        ),
                    )
                    .with_chain(chain),
                );
                break; // one diagnostic per call site
            }
        }
    }
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message && a.file == b.file);
}

/// Where the guard from `acq` stops being live.
pub(crate) fn guard_scope_end(body: &[Token], acq: &Acquisition) -> usize {
    // Temporary: the acquisition is immediately chained (`state.read().x`),
    // so the guard drops at the end of the statement.
    if body.get(acq.close + 1).is_some_and(|t| t.is_punct('.')) {
        return scan::statement_end(body, acq.close);
    }
    // Bound (or used as a scrutinee): live to the end of the innermost
    // enclosing block, or to an explicit `drop(name)`.
    let end = scan::block_end(body, acq.start);
    if let Some(name) = scan::let_binding_before(body, acq.start) {
        for i in acq.close + 1..end.min(body.len().saturating_sub(2)) {
            if body[i].is_ident("drop") && body[i + 1].is_punct('(') && body[i + 2].is_ident(&name)
            {
                return i;
            }
        }
    }
    end
}
