//! Pass 5 — panic-path audit.
//!
//! One panic in the server request loop, the client connection glue, or
//! the DCM update leg kills the daemon every Athena workstation depends
//! on. In those files, non-test code must not call `.unwrap()`,
//! `.expect(..)`, or `panic!` — errors must surface as
//! `MoiraError`/`UpdateError` returns. (`unwrap_or` / `unwrap_or_else`
//! and `unreachable!` on genuinely impossible arms are fine; matching is
//! token-exact, not substring.)
//!
//! The durable-storage modules are held to the same bar for a stronger
//! reason: WAL scan and snapshot decode run on whatever bytes a crash
//! left behind, so a panic there doesn't just kill the daemon — it makes
//! the database unbootable until someone hand-edits the log. Recovery
//! code must treat arbitrary bytes as a valid (if empty) history.

use crate::engine::Engine;
use crate::scan;
use crate::{Diagnostic, Workspace};

pub const NAME: &str = "panic-path";

/// The audited files, by workspace-relative path. A listed path that does
/// not exist is silently unaudited, so the fixtures suite asserts each one
/// does.
pub const FILES: &[&str] = &[
    "crates/core/src/server/mod.rs",
    "crates/core/src/server/collect.rs",
    "crates/core/src/server/classify.rs",
    "crates/core/src/server/tiers.rs",
    "crates/core/src/server/reply.rs",
    "crates/client/src/conn.rs",
    "crates/dcm/src/update.rs",
    "crates/core/src/recovery.rs",
    "crates/db/src/storage.rs",
    "crates/db/src/wal.rs",
    "crates/db/src/snapshot.rs",
];

pub fn run(ws: &Workspace, _eng: &Engine<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rel in FILES {
        let Some(sf) = ws.file(rel) else { continue };
        for f in sf.ast.functions() {
            if f.in_test {
                continue;
            }
            let body = &f.func.body;
            for mc in scan::method_calls(body) {
                if mc.name == "unwrap" || mc.name == "expect" {
                    out.push(Diagnostic {
                        chain: Vec::new(),
                        pass: NAME,
                        file: sf.rel.clone(),
                        line: mc.line,
                        message: format!(
                            "`.{}()` in `{}` — a panic here kills the daemon; return a \
                             proper error instead",
                            mc.name, f.func.name
                        ),
                    });
                }
            }
            for (i, t) in body.iter().enumerate() {
                if t.is_ident("panic") && body.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    out.push(Diagnostic {
                        chain: Vec::new(),
                        pass: NAME,
                        file: sf.rel.clone(),
                        line: t.line,
                        message: format!(
                            "`panic!` in `{}` — a panic here kills the daemon; return a \
                             proper error instead",
                            f.func.name
                        ),
                    });
                }
            }
        }
    }
    out
}
