//! Pass 2 — reactor-discipline.
//!
//! The connection tier has exactly one blocking point: the reactor wait in
//! `MoiraServer::poll_with_timeout`. Two invariants keep it honest:
//!
//! - **No `SharedState` guard live across a reactor wait.** A guard held
//!   into `reactor.wait(..)` — directly or through any chain of calls that
//!   eventually waits — parks every other thread that needs the state for
//!   as long as the wait blocks — up to the full timeout on an idle
//!   server. The guard liveness model is shared with the lock-discipline
//!   pass.
//!
//! - **No blocking syscalls on the wait path.** A function whose summary
//!   contains a reactor wait is loop code; a `sleep`, blocking channel
//!   receive, or `std::fs` access in its body (or transitively reachable
//!   from it) stalls every live connection, not just one session.
//!   Non-blocking socket calls (`accept`/`connect` on the loop's
//!   non-blocking fds) are fine and deliberately not matched — the engine
//!   tracks those as a separate `BlocksNet` effect.
//!
//! `crates/core/src/server/` carries no allow for this pass: the
//! selector-less scan loop whose pacing sleep needed one is gone, and
//! every wait the loop makes is the reactor's. The one allow naming the
//! pass sits on the WAL journaling boundary in `registry.rs`.

use crate::engine::{self, Effect, Engine, FnId};
use crate::{Diagnostic, Workspace};

use super::locks::{acquisition_sites, guard_scope_end};

pub const NAME: &str = "reactor-discipline";

pub fn run(ws: &Workspace, eng: &Engine<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (fi, sf) in ws.files.iter().enumerate() {
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

fn check_fn(eng: &Engine<'_>, id: FnId, rel: &str, out: &mut Vec<Diagnostic>) {
    let body = &eng.fns[id].func.body;
    let fname = &eng.fns[id].func.name;
    let waits = engine::wait_prim_sites(body);

    // (a) No guard live across a wait — direct wait sites plus calls whose
    // callee summary transitively waits.
    let acqs = acquisition_sites(eng, id);
    for acq in &acqs {
        let scope_end = guard_scope_end(body, acq);
        let scope_start = acq.close + 1;
        if scope_start >= scope_end {
            continue;
        }
        for (idx, line, what) in &waits {
            if *idx > scope_start && *idx < scope_end {
                out.push(Diagnostic::new(
                    NAME,
                    rel.to_string(),
                    *line,
                    format!(
                        "reactor wait `{what}` in `{}` while the state guard from `{}` (line \
                         {}) is live — every thread needing the state parks for the full wait",
                        fname, acq.what, acq.line
                    ),
                ));
            }
        }
        for c in eng.calls(id) {
            if c.idx <= scope_start || c.idx >= scope_end {
                continue;
            }
            for &t in &c.targets {
                if !eng.effects(t).has(Effect::Waits) {
                    continue;
                }
                let (chain, prim) = eng.chain_through(id, c.line, t, Effect::Waits);
                out.push(
                    Diagnostic::new(
                        NAME,
                        rel.to_string(),
                        c.line,
                        format!(
                            "`{}` calls `{}` — which transitively reaches the reactor wait \
                             (`{prim}`) — while the state guard from `{}` (line {}) is live",
                            fname, c.name, acq.what, acq.line
                        ),
                    )
                    .with_chain(chain),
                );
                break;
            }
        }
    }

    // (b) No blocking syscalls anywhere on the wait path: a function that
    // waits (directly — its own body contains the wait) must not block,
    // directly or through any call chain.
    if !waits.is_empty() {
        for (_, line, what) in engine::hard_blocking_prim_sites(body) {
            out.push(Diagnostic::new(
                NAME,
                rel.to_string(),
                line,
                format!(
                    "blocking call `{what}` in `{}`, which performs a reactor wait — loop \
                     code must stay non-blocking; every live connection stalls behind it",
                    fname
                ),
            ));
        }
        for c in eng.calls(id) {
            for &t in &c.targets {
                if !eng.effects(t).has(Effect::Blocks) {
                    continue;
                }
                let (chain, prim) = eng.chain_through(id, c.line, t, Effect::Blocks);
                out.push(
                    Diagnostic::new(
                        NAME,
                        rel.to_string(),
                        c.line,
                        format!(
                            "`{}` performs a reactor wait but calls `{}`, which transitively \
                             blocks (`{prim}`) — loop code must stay non-blocking",
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
