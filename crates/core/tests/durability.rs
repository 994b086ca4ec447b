//! Crash-recovery torture: randomized kill points, byte-identical
//! convergence.
//!
//! The gate (EXPERIMENTS.md E16): for every armed kill point — spread
//! across WAL appends, fsyncs, and checkpoint renames, and landing in every
//! gap of both checkpoint sequences (delta and base rewrite) — the server
//! crashes mid-operation, reboots from durable media, re-applies the
//! workload suffix the crash swallowed, and lands on a state
//! **byte-identical** to a server that never crashed: same rows, same row
//! slots, same per-row generation stamps, same tombstones, same free-list
//! order, same journal. The fingerprint is the full snapshot encoding
//! (epoch line excluded: each boot draws a distinct epoch by design).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use moira_common::clock::{VClock, ATHENA_EPOCH};
use moira_common::errors::{MrError, MrResult};
use moira_core::recovery::boot_durable;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{GroupCommitConfig, Media, OpKind, SimMedia, SNAPSHOT_FILE, SNAPSHOT_TMP};

/// Deterministic workload: appends, updates, and deletes touching users
/// and machines, exercising tombstones and slot reuse.
const STEPS: usize = 48;

fn step(i: usize) -> (&'static str, Vec<String>) {
    match i % 6 {
        0 => ("add_machine", vec![format!("M{i}.MIT.EDU"), "VAX".into()]),
        1 => (
            "add_user",
            vec![
                format!("tort{i}"),
                format!("{}", 9000 + i),
                "/bin/sh".into(),
                "Torture".into(),
                "Test".into(),
                String::new(),
                "1".into(),
                format!("x{i}"),
                "1990".into(),
            ],
        ),
        2 => (
            "update_user_shell",
            vec![format!("tort{}", i - 1), "/bin/csh".into()],
        ),
        3 => ("add_machine", vec![format!("T{i}.MIT.EDU"), "VAX".into()]),
        4 => ("delete_machine", vec![format!("T{}.MIT.EDU", i - 1)]),
        _ => (
            "update_user_shell",
            vec![format!("tort{}", i - 4), format!("/bin/s{i}")],
        ),
    }
}

/// Applies workload steps `from..STEPS`; returns how many applied before
/// the media died (committed steps only).
fn apply_from(registry: &Registry, state: &mut MoiraState, clock: &VClock, from: usize) -> usize {
    let root = Caller::root("torture");
    for i in from..STEPS {
        clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
        let (query, args) = step(i);
        match registry.execute(state, &root, query, &args) {
            Ok(_) => {}
            Err(MrError::Durability) => return i - from,
            Err(e) => panic!("workload step {i} ({query}) failed with {e:?}"),
        }
    }
    STEPS - from
}

/// The convergence fingerprint: the exact snapshot encoding minus the
/// epoch line (each boot allocates a fresh epoch; everything else must
/// match byte for byte).
fn fingerprint(state: &MoiraState) -> String {
    encode_snapshot(&state.db, &state.journal, 0)
        .lines()
        .filter(|l| !l.starts_with("epoch:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn cfg() -> GroupCommitConfig {
    GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1,    // every append fsyncs: maximal durable coverage
        snapshot_every: 3, // frequent snapshots: maximal rename coverage
    }
}

/// Where in the engine's call sequence an armed crash fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum KillSite {
    /// A commit's WAL append or its group-commit fsync.
    Wal,
    /// `fsync(snapshot.tmp)` holding a delta: the document is torn.
    DeltaFsync,
    /// `rename(snapshot.tmp, snapshot.delta.k)`: the delta never appears.
    DeltaRename,
    /// The WAL-truncation fsync after a delta went durable.
    DeltaWalCut,
    /// `fsync(snapshot.tmp)` holding a rewritten base.
    BaseFsync,
    /// `rename(snapshot.tmp, snapshot.moira)` over an existing chain.
    CompactionRename,
    /// The WAL-truncation fsync after a rewritten base went durable: the
    /// replaced chain's delta files are still on disk, cleanup never ran.
    CompactionCleanup,
}

/// A [`SimMedia`] that notes which call of the checkpoint sequence died.
struct Watched {
    inner: SimMedia,
    /// The checkpoint in progress is a delta (not a base).
    delta_in_flight: bool,
    /// The WAL was cut and the cut is not fsynced yet.
    wal_cut: bool,
    site: Arc<Mutex<Option<KillSite>>>,
}

impl Watched {
    fn note(&self, was_dead: bool, site: KillSite) {
        if !was_dead && self.inner.crashed() {
            *self.site.lock().unwrap() = Some(site);
        }
    }
}

impl Media for Watched {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let was_dead = self.inner.crashed();
        let r = self.inner.append(file, bytes);
        self.note(was_dead, KillSite::Wal);
        r
    }
    fn fsync(&mut self, file: &str) -> MrResult<()> {
        let was_dead = self.inner.crashed();
        let wal_cut = std::mem::take(&mut self.wal_cut);
        let r = self.inner.fsync(file);
        self.note(
            was_dead,
            match (file == SNAPSHOT_TMP, wal_cut, self.delta_in_flight) {
                (true, _, true) => KillSite::DeltaFsync,
                (true, _, false) => KillSite::BaseFsync,
                (false, true, true) => KillSite::DeltaWalCut,
                (false, true, false) => KillSite::CompactionCleanup,
                (false, false, _) => KillSite::Wal,
            },
        );
        r
    }
    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        self.inner.read(file)
    }
    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        self.delta_in_flight = bytes.starts_with(b"moira-delta:");
        self.inner.write_new(file, bytes)
    }
    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        let was_dead = self.inner.crashed();
        let r = self.inner.rename(from, to);
        self.note(
            was_dead,
            if to == SNAPSHOT_FILE {
                KillSite::CompactionRename
            } else {
                KillSite::DeltaRename
            },
        );
        r
    }
    fn fsync_dir(&mut self) -> MrResult<()> {
        self.inner.fsync_dir()
    }
    fn remove(&mut self, file: &str) -> MrResult<()> {
        self.inner.remove(file)
    }
    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        self.wal_cut = true;
        self.inner.truncate(file, len)
    }
}

fn oracle_fingerprint() -> String {
    let clock = VClock::new();
    let registry = Registry::standard();
    let media = SimMedia::new();
    let (mut state, report) =
        boot_durable(clock.clone(), &registry, Box::new(media), cfg()).expect("oracle boot");
    assert!(!report.recovered);
    let applied = apply_from(&registry, &mut state, &clock, 0);
    assert_eq!(applied, STEPS, "oracle never crashes");
    state.storage.flush().expect("oracle flush");
    // The grid below relies on the workload crossing both kinds of
    // checkpoint more than once.
    let obs = state.obs.snapshot();
    assert!(obs.counter("db.snapshot.deltas") >= 4, "{obs:?}");
    assert!(obs.counter("db.snapshot.compactions") >= 2, "{obs:?}");
    fingerprint(&state)
}

#[test]
fn kill_points_converge_byte_identical_to_no_crash_oracle() {
    let oracle = oracle_fingerprint();
    let registry = Registry::standard();

    // ≥50 kill points across the three crash-prone operation classes.
    let mut grid: Vec<(OpKind, u64)> = Vec::new();
    for nth in 0..20 {
        grid.push((OpKind::Append, nth));
    }
    for nth in 0..40 {
        grid.push((OpKind::Fsync, nth));
    }
    for nth in 0..12 {
        grid.push((OpKind::Rename, nth));
    }
    assert!(
        grid.len() >= 50,
        "the gate requires at least 50 kill points"
    );

    let mut crashes = 0u64;
    let mut sites = BTreeSet::new();
    for &(kind, nth) in &grid {
        let clock = VClock::new();
        let media = SimMedia::new();
        let site = Arc::new(Mutex::new(None));
        let watched = Watched {
            inner: media.clone(),
            delta_in_flight: false,
            wal_cut: false,
            site: site.clone(),
        };
        let (mut state, _) = boot_durable(clock.clone(), &registry, Box::new(watched), cfg())
            .unwrap_or_else(|e| panic!("boot before {kind:?}#{nth}: {e:?}"));
        let epoch = state.db.epoch();

        media.arm_crash(kind, nth);
        apply_from(&registry, &mut state, &clock, 0);
        assert!(
            media.crashed(),
            "{kind:?}#{nth} never fired — widen the workload or shrink the grid"
        );
        crashes += 1;
        sites.insert(
            site.lock()
                .unwrap()
                .expect("the watched media saw the kill"),
        );
        drop(state); // the dead server's memory is gone

        media.power_cycle();
        let (mut recovered, report) =
            boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg())
                .unwrap_or_else(|e| panic!("recovery after {kind:?}#{nth}: {e:?}"));
        assert!(report.recovered, "{kind:?}#{nth}");
        assert_eq!(
            recovered.db.epoch(),
            epoch,
            "{kind:?}#{nth}: epoch must survive recovery"
        );

        // The journal length is exactly the durable commit count; re-apply
        // the suffix the crash swallowed and demand byte-identity.
        let committed = recovered.journal.len();
        assert!(
            committed <= STEPS,
            "{kind:?}#{nth}: recovered more than was ever committed"
        );
        let reapplied = apply_from(&registry, &mut recovered, &clock, committed);
        assert_eq!(
            reapplied,
            STEPS - committed,
            "{kind:?}#{nth}: replacement server must not crash again"
        );
        recovered.storage.flush().expect("post-recovery flush");
        assert_eq!(
            fingerprint(&recovered),
            oracle,
            "{kind:?}#{nth}: crashed-at-{committed} run diverged from the oracle"
        );
    }
    assert_eq!(crashes, grid.len() as u64);
    // Every gap of both checkpoint sequences took at least one kill.
    let all = [
        KillSite::Wal,
        KillSite::DeltaFsync,
        KillSite::DeltaRename,
        KillSite::DeltaWalCut,
        KillSite::BaseFsync,
        KillSite::CompactionRename,
        KillSite::CompactionCleanup,
    ];
    assert_eq!(sites, BTreeSet::from(all));
}

/// Double-crash: a second kill while recovering from the first (during
/// the post-replay re-seal) must still recover cleanly on the third boot.
#[test]
fn crash_during_recovery_snapshot_recovers_again() {
    let registry = Registry::standard();
    let clock = VClock::new();
    let media = SimMedia::new();
    let (mut state, _) =
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg()).expect("boot");
    media.arm_crash(OpKind::Append, 7);
    apply_from(&registry, &mut state, &clock, 0);
    assert!(media.crashed());
    drop(state);

    // Second crash: the recovery boot's own snapshot rename.
    media.power_cycle();
    media.arm_crash(OpKind::Rename, 0);
    assert!(
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg()).is_err(),
        "recovery died mid-seal"
    );

    // Third boot completes and the workload finishes.
    media.power_cycle();
    let (mut recovered, report) =
        boot_durable(clock.clone(), &registry, Box::new(media), cfg()).expect("third boot");
    assert!(report.recovered);
    let committed = recovered.journal.len();
    assert_eq!(
        apply_from(&registry, &mut recovered, &clock, committed),
        STEPS - committed
    );
}
