//! Kill -9 / resurrect: the durable server restarts without losing the
//! delta-DCM machinery.
//!
//! The property under test is the tentpole claim: recovery restores the
//! database *epoch* and per-row generation counters, so the DCM's cached
//! generation cursors (cut before the crash) remain valid and the first
//! post-restart cycle ships incremental patches — not full rebuilds, not
//! full member transfers.

use moira_core::schema::users;
use moira_core::state::Caller;
use moira_db::storage::GroupCommitConfig;
use moira_dcm::retry::RetryPolicy;
use moira_sim::{Deployment, PopulationSpec};

/// Every append fsyncs; no automatic snapshots (the initial seal is
/// enough for these scenarios).
fn eager_cfg() -> GroupCommitConfig {
    GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1,
        snapshot_every: 0,
    }
}

fn change_shell(d: &Deployment, login: &str, shell: &str) {
    let mut s = d.state.write();
    d.registry
        .execute(
            &mut s,
            &Caller::root("ops"),
            "update_user_shell",
            &[login.into(), shell.into()],
        )
        .expect("shell update");
}

#[test]
fn post_restart_dcm_cycle_ships_patches_not_fulls() {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.enable_durable_storage(eager_cfg());
    d.run_dcm_once(); // baseline full push; generator caches + cursors warm
    let full_rebuilds_before = d.dcm.stats.full_rebuilds;

    // A ~1% mutation: a few users change shells.
    d.advance(60);
    let n = (d.population.active_logins.len() / 100).max(1);
    let victims: Vec<String> = d.population.active_logins[..n].to_vec();
    for login in &victims {
        change_shell(&d, login, "/bin/walsh");
    }
    let epoch_before = d.state.read().db.epoch();
    let journal_before = d.state.read().journal.len();

    // kill -9, then boot the replacement from WAL + snapshot.
    d.crash_server();
    let report = d.recover_server(eager_cfg());
    assert!(report.recovered);
    assert!(
        report.replayed > 0,
        "the shell changes were replayed from the WAL: {report:?}"
    );
    assert_eq!(report.scan.torn_tail_truncations, 0, "clean shutdown tail");
    {
        let s = d.state.read();
        assert_eq!(s.db.epoch(), epoch_before, "epoch survives the restart");
        assert_eq!(s.journal.len(), journal_before, "no committed change lost");
        let snap = s.obs.snapshot();
        assert!(
            snap.counter("db.wal.recovered_frames") > 0,
            "recovery telemetry surfaced in the new registry"
        );
    }

    // First post-restart cycle: cursors cut before the crash are still
    // valid, so every regenerated service takes the delta path and every
    // transferred member goes out as a patch.
    d.advance(25 * 3600);
    let cycle = d.run_dcm_once();
    assert!(
        cycle.generated.iter().any(|(s, _, _)| s == "HESIOD"),
        "the shell change regenerated hesiod: {cycle:?}"
    );
    assert_eq!(
        d.dcm.stats.full_rebuilds, full_rebuilds_before,
        "no generator fell back to a full rebuild after recovery"
    );
    let snap = d.state.read().obs.snapshot();
    assert!(
        snap.counter("dcm.transfer.patch_members") > 0,
        "post-restart cycle shipped patches: {:?}",
        snap.counters
    );
    assert_eq!(
        snap.counter("dcm.transfer.full_members"),
        0,
        "no member needed a full transfer: {:?}",
        snap.counters
    );

    // And the patched bits are real: the hesiod host serves the new shell.
    let host = d.population.hesiod_servers[0].clone();
    let passwd = d.hosts[&host]
        .lock()
        .read_file("/var/hesiod/passwd.db")
        .expect("hesiod installed")
        .to_vec();
    assert!(
        String::from_utf8_lossy(&passwd).contains("/bin/walsh"),
        "host received the recovered-and-patched shell change"
    );
}

/// Enabling durable storage seals the populated database and the journal
/// populate logged: memory keeps none of those entries from then on, and
/// the journal file reads every one of them back.
#[test]
fn enabling_durable_storage_leaves_the_journal_tail_empty() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let populated = d.state.read().journal.clone();
    assert!(!populated.is_empty());
    d.enable_durable_storage(eager_cfg());
    let s = d.state.read();
    assert!(
        s.journal.tail().is_empty(),
        "the seal's owner trims at once"
    );
    assert_eq!(s.journal.len(), populated.len());
    assert_eq!(s.storage.history(&s.journal), Ok(populated));
}

/// Nothing fsyncs until the group-commit policy says so; a crash then
/// loses the buffered tail — but never a prefix, and never consistency.
#[test]
fn unflushed_commits_die_with_the_crash_but_recovery_is_consistent() {
    let lazy = GroupCommitConfig {
        flush_interval_secs: 3600,
        flush_bytes: usize::MAX,
        snapshot_every: 0,
    };
    let mut d = Deployment::build(&PopulationSpec::small());
    d.enable_durable_storage(lazy);
    let login = d.population.active_logins[0].clone();

    change_shell(&d, &login, "/bin/durable");
    d.state.write().storage.flush().expect("explicit flush");
    d.advance(60);
    change_shell(&d, &login, "/bin/volatile");
    // No flush: the second change is buffered in the WAL only.
    assert_eq!(d.state.read().storage.pending_entries(), 1);

    d.crash_server();
    let report = d.recover_server(lazy);
    assert_eq!(report.replayed, 1, "only the fsynced change survived");
    let s = d.state.read();
    let row =
        s.db.table(users::T)
            .select_one(&moira_db::Pred::Eq(users::LOGIN, login.into()))
            .expect("user recovered");
    assert_eq!(
        s.db.table(users::T).row(row).unwrap().render(users::SHELL),
        "/bin/durable",
        "the durable prefix, exactly"
    );
}

/// A restarted DCM loses its caches and streaks but keeps its retry
/// policy: configuration, not state.
#[test]
fn restart_dcm_keeps_the_configured_retry_policy() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let policy = RetryPolicy {
        base_secs: 7,
        max_secs: 70,
        jitter_frac: 0.0,
        escalate_after: 3,
        per_run_budget: 5,
    };
    assert_ne!(policy, RetryPolicy::default());
    d.dcm.set_retry_policy(policy);
    d.restart_dcm();
    assert_eq!(*d.dcm.retry_book().policy(), policy);
}
