//! Fixture harness: every `bad_*.rs` under `tests/fixtures/<pass>/` must
//! trip exactly its pass, every `good_*.rs` must stay clean, and the real
//! workspace at HEAD must be clean across all passes.
//!
//! A fixture file holds one or more virtual sources, each introduced by a
//! `//@ file: <workspace-relative-path>` line; the path decides which
//! scope rules apply (queries/, generators/, incremental.rs...).

use std::fs;
use std::path::{Path, PathBuf};

use moira_lint::{Workspace, PASSES};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixture(path: &Path) -> Workspace {
    let text = fs::read_to_string(path).unwrap();
    let mut sources: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if let Some(rel) = line.strip_prefix("//@ file: ") {
            sources.push((rel.trim().to_string(), String::new()));
        } else if let Some((_, body)) = sources.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    assert!(
        !sources.is_empty(),
        "{} has no `//@ file:` directive",
        path.display()
    );
    let refs: Vec<(&str, &str)> = sources
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    Workspace::from_sources(&refs).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fixture_files(pass: &str, prefix: &str) -> Vec<PathBuf> {
    let dir = fixtures_root().join(pass);
    let mut out: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".rs"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_pass_has_enough_fixtures() {
    for pass in PASSES {
        let bad = fixture_files(pass.name, "bad_");
        let good = fixture_files(pass.name, "good_");
        assert!(
            bad.len() >= 2,
            "{}: want >= 2 bad fixtures, have {}",
            pass.name,
            bad.len()
        );
        assert!(!good.is_empty(), "{}: want >= 1 good fixture", pass.name);
    }
}

#[test]
fn bad_fixtures_trip_their_pass() {
    for pass in PASSES {
        for path in fixture_files(pass.name, "bad_") {
            let ws = load_fixture(&path);
            let diags = ws.run_pass(pass.name).unwrap();
            assert!(
                !diags.is_empty(),
                "{} did not trip pass {}",
                path.display(),
                pass.name
            );
        }
    }
}

#[test]
fn good_fixtures_stay_clean() {
    for pass in PASSES {
        for path in fixture_files(pass.name, "good_") {
            let ws = load_fixture(&path);
            let diags = ws.run_pass(pass.name).unwrap();
            assert!(
                diags.is_empty(),
                "{} tripped pass {}: {:?}",
                path.display(),
                pass.name,
                diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn lint_allow_suppresses_a_finding() {
    // Two blocking calls under the guard, with an allow comment on the line
    // above the first: that finding must disappear — and only that one.
    let src = "\
fn persist(state: &SharedState) {
    let mut guard = state.write();
    // lint:allow(lock-discipline)
    std::fs::write(\"/var/moira/dump\", guard.render()).ok();
    std::thread::sleep(std::time::Duration::from_millis(50));
}
";
    let ws = Workspace::from_sources(&[("crates/dcm/src/dcm/mod.rs", src)]).unwrap();
    let diags = ws.run_pass("lock-discipline").unwrap();
    assert_eq!(
        diags.len(),
        1,
        "allow should suppress the write but keep the sleep: {:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(diags[0].line, 5);
}

#[test]
fn transitive_diagnostics_carry_full_chains() {
    // The two-hop lock fixture must produce a witness chain naming every
    // file on the path down to the primitive, in order.
    let path = fixtures_root().join("lock-discipline/bad_two_hop_cross_file.rs");
    let ws = load_fixture(&path);
    let diags = ws.run_pass("lock-discipline").unwrap();
    let chained: Vec<String> = diags.iter().map(|d| d.chain_display()).collect();
    assert!(
        diags.iter().any(|d| {
            let files: Vec<&str> = d.chain.iter().map(|(f, _)| f.as_str()).collect();
            files
                == [
                    "crates/core/src/server.rs",
                    "crates/core/src/persist.rs",
                    "crates/core/src/media.rs",
                ]
        }),
        "no three-file chain in: {chained:?}"
    );
}

#[test]
fn allow_on_chain_hop_suppresses_transitive_finding() {
    // A reviewed allow at the primitive covers every caller whose chain
    // passes through it — callers do not need their own allows.
    let src_caller = "\
use crate::persist::flush_side_table;

fn commit(&mut self) {
    let mut guard = self.state.write();
    flush_side_table(&guard);
}
";
    let src_leaf = "\
pub fn flush_side_table(snapshot: &MoiraState) {
    // Bounded dump on the maintenance path, reviewed.
    // lint:allow(lock-discipline)
    std::thread::sleep(std::time::Duration::from_millis(1));
}
";
    let ws = Workspace::from_sources(&[
        ("crates/core/src/server.rs", src_caller),
        ("crates/core/src/persist.rs", src_leaf),
    ])
    .unwrap();
    let diags = ws.run_pass("lock-discipline").unwrap();
    assert!(
        diags.is_empty(),
        "allow at the primitive hop did not suppress: {:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
    // Stale-allow detection must still count that allow as used.
    let report = ws.run_full();
    assert!(
        report.stale_allows.is_empty(),
        "chain-hop allow wrongly reported stale: {:?}",
        report
            .stale_allows
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn stale_allow_is_reported() {
    let src = "\
fn quiet(&self) -> usize {
    // lint:allow(lock-discipline)
    self.counter + 1
}
";
    let ws = Workspace::from_sources(&[("crates/core/src/server.rs", src)]).unwrap();
    let report = ws.run_full();
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.stale_allows.len(), 1, "expected one stale allow");
    assert_eq!(report.stale_allows[0].pass, "lock-discipline");
    assert_eq!(report.stale_allows[0].line, 2);
}

#[test]
fn unknown_pass_is_rejected() {
    let ws = Workspace::from_sources(&[]).unwrap();
    assert!(ws.run_pass("no-such-pass").is_none());
}

/// The self-check the tentpole demands: the tree at HEAD is clean, so CI
/// can deny-by-default without any allows in the audited files.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).unwrap();
    assert!(ws.files.len() > 50, "workspace walk looks broken");
    let diags = ws.run_full().diagnostics;
    assert!(
        diags.is_empty(),
        "workspace is not lint-clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// No stale `lint:allow` comments in the audited tree: every escape still
/// suppresses at least one raw finding.
#[test]
fn real_workspace_has_no_stale_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).unwrap();
    let report = ws.run_full();
    assert!(
        report.stale_allows.is_empty(),
        "stale allows:\n{}",
        report
            .stale_allows
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The reviewed escapes are an inventory, not a habit. The tree holds this
/// many `lint:allow` comment lines (DESIGN.md lists them); deleting one
/// lowers the number here, and nothing raises it without a review of why
/// the flagged code cannot be restructured instead.
#[test]
fn allow_inventory_only_shrinks() {
    const REVIEWED_ALLOW_LINES: usize = 1;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).unwrap();
    let mut lines: Vec<String> = ws
        .files
        .iter()
        .flat_map(|sf| {
            sf.allows
                .iter()
                .map(|(line, _)| format!("{}:{line}", sf.rel))
        })
        .collect();
    lines.sort();
    lines.dedup();
    assert_eq!(
        lines.len(),
        REVIEWED_ALLOW_LINES,
        "lint:allow inventory changed:\n{}",
        lines.join("\n")
    );
}

/// The lint budget: a full workspace run (load + every pass, including the
/// call-graph fixpoint) must stay interactive. CI asserts the same bound.
#[test]
fn full_lint_run_stays_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let started = std::time::Instant::now();
    let ws = Workspace::load(&root).unwrap();
    let _ = ws.run_full();
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "full lint run took {elapsed:?} — over the 30 s budget"
    );
}
