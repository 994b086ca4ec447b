//! Durable boot: open the storage engine, rebuild state, replay the WAL.
//!
//! The recovery contract the torture tests enforce:
//!
//! - **Byte-identical convergence.** A server that crashed at any point
//!   and recovered, then re-ran the mutations the crash swallowed, reaches
//!   exactly the state of a server that never crashed — same row slots,
//!   same generation stamps, same free-list order.
//! - **Epoch continuity.** The recovered database keeps the epoch it had
//!   before the crash, so [`moira_db::GenCursor`]s cut before the crash
//!   remain valid and the delta-DCM resumes with incremental patches
//!   instead of full rebuilds.
//! - **History is not re-litigated.** WAL replay goes through
//!   [`Registry::replay`], which skips ACL enforcement: the entries were
//!   authorized when they committed.
//!
//! Replay runs with the state's default [`moira_db::storage::NullStorage`]
//! installed; the durable engine is only attached afterwards, so recovered
//! entries are never re-appended to the log they came from.

// Recovery runs on whatever bytes a crash left behind; a panic here makes
// the database unbootable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use moira_common::clock::VClock;
use moira_common::errors::{MrError, MrResult};
use moira_db::storage::{DurableEngine, GroupCommitConfig, Media, Storage};
use moira_db::wal::WalScan;
use moira_db::Database;

use crate::registry::Registry;
use crate::schema;
use crate::state::MoiraState;

/// What a durable boot did.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootReport {
    /// False on first boot (no prior durable state existed).
    pub recovered: bool,
    /// Journal entries restored directly from the snapshot document.
    pub snapshot_entries: usize,
    /// WAL entries replayed on top of the snapshot.
    pub replayed: usize,
    /// What the WAL scan saw (clean frames, torn-tail truncation).
    pub scan: WalScan,
    /// Epoch of the booted database.
    pub epoch: u64,
}

/// Boots a server state from durable media.
///
/// First boot (no snapshot, no WAL) seeds a fresh state and immediately
/// seals an initial snapshot so the epoch is on disk from the start. A
/// recovering boot loads the snapshot (the base with its delta chain
/// already folded in by [`DurableEngine::open`]), replays the surviving WAL
/// tail through `registry`, seals what the replay added as one more delta,
/// and reports what happened.
pub fn boot_durable(
    clock: VClock,
    registry: &Registry,
    media: Box<dyn Media>,
    config: GroupCommitConfig,
) -> MrResult<(MoiraState, BootReport)> {
    let (mut engine, image) = DurableEngine::open(media, config)?;
    let mut report = BootReport {
        recovered: image.is_some(),
        ..BootReport::default()
    };
    let mut state = match image {
        None => MoiraState::new(clock),
        Some(image) => {
            report.scan = image.scan;
            let mut state = match image.snapshot {
                Some(snap) => {
                    clock.set(snap.now);
                    let mut db = Database::recovered(clock.clone(), snap.epoch);
                    schema::create_all_tables(&mut db);
                    snap.apply(&mut db)?;
                    report.snapshot_entries = snap.journal.len();
                    MoiraState::recovered(db, snap.journal)
                }
                // Degraded path: a WAL with no snapshot (should not happen
                // — first boot seals one — but bytes on disk outrank
                // assumptions). Replay over a freshly seeded state; the
                // epoch is new, so DCM cursors rebuild from scratch.
                None => MoiraState::new(clock.clone()),
            };
            for entry in &image.wal {
                clock.set(entry.time);
                registry
                    .replay(&mut state, entry)
                    .map_err(|_| MrError::Durability)?;
                report.replayed += 1;
            }
            state
        }
    };
    engine.set_obs(&state.obs);
    // Seal what we have — on first boot this writes the epoch to disk; on
    // recovery it moves the replayed tail out of the WAL into a delta
    // (nothing at all when there was no tail).
    engine.snapshot(&state.db, &state.journal)?;
    report.epoch = state.db.epoch();
    state.storage = Box::new(engine);
    Ok((state, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Caller;
    use moira_db::storage::SimMedia;
    use moira_db::Relation;

    fn cfg() -> GroupCommitConfig {
        GroupCommitConfig {
            flush_interval_secs: 0,
            flush_bytes: usize::MAX,
            snapshot_every: 0,
        }
    }

    fn boot(media: &SimMedia, registry: &Registry) -> (MoiraState, BootReport) {
        boot_durable(VClock::new(), registry, Box::new(media.clone()), cfg()).expect("boot")
    }

    #[test]
    fn first_boot_seeds_and_seals() {
        let media = SimMedia::new();
        let registry = Registry::standard();
        let (state, report) = boot(&media, &registry);
        assert!(!report.recovered);
        assert_eq!(state.storage.kind(), "durable");
        assert!(state.get_value("dcm_enable").is_some(), "seeded");
        assert!(
            media.durable_bytes("snapshot.moira").is_some(),
            "initial snapshot sealed on disk"
        );
    }

    #[test]
    fn recovery_preserves_epoch_rows_and_journal() {
        let media = SimMedia::new();
        let registry = Registry::standard();
        let (mut state, _) = boot(&media, &registry);
        let epoch = state.db.epoch();
        let root = Caller::root("test");
        registry
            .execute(
                &mut state,
                &root,
                "add_machine",
                &["KIWI.MIT.EDU".into(), "VAX".into()],
            )
            .expect("mutation");
        let journal_len = state.journal.len();
        state.storage.flush().expect("flush");
        drop(state);

        media.power_cycle();
        let (state, report) = boot(&media, &registry);
        assert!(report.recovered);
        assert_eq!(report.replayed, 1, "one WAL entry after the seal");
        assert_eq!(state.db.epoch(), epoch, "epoch survives restart");
        assert_eq!(state.journal.len(), journal_len);
        let rows = registry
            .execute_read(&state, &root, "get_machine", &["KIWI.MIT.EDU".into()])
            .expect("machine recovered");
        assert_eq!(rows[0][0], "KIWI.MIT.EDU");
    }

    #[test]
    fn hostile_row_ids_on_disk_are_a_durability_error_not_a_panic() {
        let media = SimMedia::new();
        let registry = Registry::standard();
        drop(boot(&media, &registry));
        let good = String::from_utf8(media.durable_bytes("snapshot.moira").expect("sealed"))
            .expect("text");
        let (head, tail) = good.split_once("\nrow:0:").expect("a first row");
        // `usize::MAX + 1` wraps; 4e15 slots would be a 96 PB slab.
        for hostile in ["18446744073709551615", "4000000000000000"] {
            let mut m = media.clone();
            m.write_new(
                "snapshot.moira",
                format!("{head}\nrow:{hostile}:{tail}").as_bytes(),
            )
            .expect("write");
            m.fsync("snapshot.moira").expect("fsync");
            let booted = boot_durable(VClock::new(), &registry, Box::new(media.clone()), cfg());
            assert_eq!(booted.map(|_| ()).unwrap_err(), MrError::Durability);
        }
    }

    #[test]
    fn unflushed_tail_is_lost_but_state_is_consistent() {
        let media = SimMedia::new();
        let registry = Registry::standard();
        let (mut state, _) = boot(&media, &registry);
        let root = Caller::root("test");
        registry
            .execute(
                &mut state,
                &root,
                "add_machine",
                &["DURABLE.MIT.EDU".into(), "VAX".into()],
            )
            .expect("mutation");
        state.storage.flush().expect("flush");
        registry
            .execute(
                &mut state,
                &root,
                "add_machine",
                &["VOLATILE.MIT.EDU".into(), "VAX".into()],
            )
            .expect("mutation");
        // No flush: the second machine is buffered only.
        drop(state);
        media.power_cycle();
        let (state, report) = boot(&media, &registry);
        assert_eq!(report.replayed, 1);
        assert!(registry
            .execute_read(&state, &root, "get_machine", &["DURABLE.MIT.EDU".into()])
            .is_ok());
        assert_eq!(
            registry
                .execute_read(&state, &root, "get_machine", &["VOLATILE.MIT.EDU".into()])
                .unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn gencursor_cut_before_crash_is_valid_after_recovery() {
        let media = SimMedia::new();
        let registry = Registry::standard();
        let (mut state, _) = boot(&media, &registry);
        let root = Caller::root("test");
        registry
            .execute(
                &mut state,
                &root,
                "add_machine",
                &["CURSOR.MIT.EDU".into(), "VAX".into()],
            )
            .expect("mutation");
        let cursor = state.generation_cursor(&[schema::machine::R::ID]);
        state.storage.flush().expect("flush");
        drop(state);
        media.power_cycle();
        let (mut state, _) = boot(&media, &registry);
        assert!(
            cursor.valid_for(&state.db),
            "pre-crash cursor remains valid: same epoch, generations moved only forward"
        );
        // And new mutations advance generations past the cursor, so a
        // delta scan sees exactly the post-crash changes.
        registry
            .execute(
                &mut state,
                &root,
                "add_machine",
                &["AFTER.MIT.EDU".into(), "VAX".into()],
            )
            .expect("mutation");
        assert!(cursor.valid_for(&state.db));
    }
}
