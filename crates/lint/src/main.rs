//! `moira-lint` CLI.
//!
//! ```text
//! cargo run -p moira-lint                  # run all passes on the workspace
//! cargo run -p moira-lint -- --deny-all    # CI mode: stale allows also fail the run
//! cargo run -p moira-lint -- --github      # GitHub Actions ::error annotations
//! cargo run -p moira-lint -- --list        # print pass names and descriptions
//! cargo run -p moira-lint -- --pass lock-discipline
//! cargo run -p moira-lint -- --root /path/to/workspace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use moira_lint::{Workspace, PASSES};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut pass: Option<String> = None;
    let mut list = false;
    let mut deny_all = false;
    let mut github = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--deny-all" => deny_all = true,
            "--github" => github = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--pass" => pass = args.next(),
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if list {
        for p in PASSES {
            println!("{:<18} {}", p.name, p.description);
        }
        return ExitCode::SUCCESS;
    }
    let root = root.unwrap_or_else(|| {
        // Works both from the workspace root (CI) and from a crate dir.
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });
    let started = Instant::now();
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("moira-lint: {e}");
            return ExitCode::from(2);
        }
    };
    // Stale-allow detection is only meaningful on a full run: a single-pass
    // run would see every other pass's allows as unused.
    let (diags, stale) = match &pass {
        Some(name) => match ws.run_pass(name) {
            Some(d) => (d, Vec::new()),
            None => {
                eprintln!("moira-lint: unknown pass `{name}` (see --list)");
                return ExitCode::from(2);
            }
        },
        None => {
            let report = ws.run_full();
            (report.diagnostics, report.stale_allows)
        }
    };
    let wall_ms = started.elapsed().as_millis();

    let failed = !diags.is_empty() || (deny_all && !stale.is_empty());
    if github {
        for d in &diags {
            // ::error file=...,line=...::message — one annotation per
            // finding, with the witness chain folded into the message.
            let mut msg = format!("[{}] {}", d.pass, d.message);
            if !d.chain.is_empty() {
                msg.push_str(&format!(" (call chain: {})", d.chain_display()));
            }
            println!(
                "::error file={},line={}::{}",
                d.file,
                d.line,
                gh_escape(&msg)
            );
        }
        for s in &stale {
            println!(
                "::warning file={},line={}::lint:allow({}) no longer suppresses any \
                 diagnostic — remove it",
                s.file, s.line, s.pass
            );
        }
    } else {
        for d in &diags {
            println!("{d}");
        }
        for s in &stale {
            println!("{s}");
        }
        if failed {
            println!(
                "moira-lint: {} violation(s), {} stale allow(s)",
                diags.len(),
                stale.len()
            );
        } else {
            println!(
                "moira-lint: {} file(s) clean across {} pass(es) in {} ms{}",
                ws.files.len(),
                pass.as_ref().map_or(PASSES.len(), |_| 1),
                wall_ms,
                if stale.is_empty() {
                    String::new()
                } else {
                    format!(" ({} stale allow(s) — warning)", stale.len())
                }
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// GitHub annotation messages: `%`, `\r`, `\n` are the only escapes.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

fn print_help() {
    println!(
        "moira-lint — static analyzer for the Moira workspace invariants\n\n\
         USAGE: moira-lint [--deny-all] [--github] [--list] [--pass <name>] \
         [--root <dir>]\n\n\
         OPTIONS:\n\
         \x20 --deny-all     CI mode: stale lint:allow comments also fail the run\n\
         \x20 --github       GitHub Actions ::error / ::warning annotations\n\
         \x20 --list         print pass names and descriptions\n\
         \x20 --pass <name>  run a single pass (skips stale-allow detection)\n\
         \x20 --root <dir>   workspace root (default: cwd, or the manifest's)"
    );
}
