//! Crash-recovery torture: randomized kill points, byte-identical
//! convergence.
//!
//! The gate (EXPERIMENTS.md E16): for every armed kill point — spread
//! across WAL appends, fsyncs, and checkpoint renames, and landing in every
//! gap of both checkpoint sequences (delta and base rewrite), the journal
//! file's append and fsync among them — the server crashes mid-operation,
//! reboots from durable media, re-applies the workload suffix the crash
//! swallowed, and lands on a state **byte-identical** to a server that
//! never crashed: same rows, same row slots, same per-row generation
//! stamps, same tombstones, same free-list order, same journal. The
//! fingerprint is the full snapshot encoding (epoch line excluded: each
//! boot draws a distinct epoch by design) followed by the whole history:
//! the journal file read back from media plus the live tail.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use moira_common::clock::{VClock, ATHENA_EPOCH};
use moira_common::errors::{MrError, MrResult};
use moira_core::queries::testutil::add_test_user;
use moira_core::recovery::boot_durable;
use moira_core::registry::Registry;
use moira_core::schema::{machine, members};
use moira_core::seed::seed_capacls;
use moira_core::state::{shared, Caller, MoiraState};
use moira_core::MoiraServer;
use moira_db::backup::{mrbackup, mrrestore};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{
    GroupCommitConfig, Media, OpKind, SimMedia, JOURNAL_FILE, SNAPSHOT_FILE, SNAPSHOT_TMP,
};
use moira_db::{Database, Pred};
use moira_protocol::transport::{pair, recv_blocking};
use moira_protocol::wire::{MajorRequest, Reply, Request};

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
    apply_steps(registry, state, clock, from, STEPS)
}

/// Applies workload steps `from..to`, like [`apply_from`].
fn apply_steps(
    registry: &Registry,
    state: &mut MoiraState,
    clock: &VClock,
    from: usize,
    to: usize,
) -> usize {
    let root = Caller::root("torture");
    for i in from..to {
        clock.set(ATHENA_EPOCH + 60 * (i as i64 + 1));
        let (query, args) = step(i);
        match registry.execute(state, &root, query, &args) {
            Ok(_) => {}
            Err(MrError::Durability) => return i - from,
            Err(e) => panic!("workload step {i} ({query}) failed with {e:?}"),
        }
    }
    to - from
}

/// The convergence fingerprint: the exact snapshot encoding minus the
/// epoch line (each boot allocates a fresh epoch; everything else must
/// match byte for byte), then the whole history as the journal file and
/// the live tail give it back — one line per committed entry.
fn fingerprint(state: &MoiraState) -> String {
    let history = state
        .storage
        .history(&state.journal)
        .expect("the journal file holds what the chain records");
    assert_eq!(
        history.len(),
        state.journal.len(),
        "every entry exactly once"
    );
    let image = encode_snapshot(&state.db, &state.journal, 0)
        .lines()
        .filter(|l| !l.starts_with("epoch:"))
        .collect::<Vec<_>>()
        .join("\n");
    format!("{image}\n{}", history.to_text())
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
    /// The journal append of a delta checkpoint: torn lines past the end
    /// the chain records.
    DeltaJournalAppend,
    /// The journal fsync of a delta checkpoint: the lines half-land.
    DeltaJournalFsync,
    /// `fsync(snapshot.tmp)` holding a delta: the document is torn.
    DeltaFsync,
    /// `rename(snapshot.tmp, snapshot.delta.k)`: the delta never appears.
    DeltaRename,
    /// The WAL-truncation fsync after a delta went durable.
    DeltaWalCut,
    /// The journal append of a base rewrite.
    BaseJournalAppend,
    /// The journal fsync of a base rewrite.
    BaseJournalFsync,
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
        self.note(
            was_dead,
            match (file == JOURNAL_FILE, self.delta_in_flight) {
                (true, true) => KillSite::DeltaJournalAppend,
                (true, false) => KillSite::BaseJournalAppend,
                (false, _) => KillSite::Wal,
            },
        );
        r
    }
    fn fsync(&mut self, file: &str) -> MrResult<()> {
        let was_dead = self.inner.crashed();
        let wal_cut = std::mem::take(&mut self.wal_cut);
        let r = self.inner.fsync(file);
        self.note(
            was_dead,
            match (file, wal_cut, self.delta_in_flight) {
                (SNAPSHOT_TMP, _, true) => KillSite::DeltaFsync,
                (SNAPSHOT_TMP, _, false) => KillSite::BaseFsync,
                (JOURNAL_FILE, _, true) => KillSite::DeltaJournalFsync,
                (JOURNAL_FILE, _, false) => KillSite::BaseJournalFsync,
                (_, true, true) => KillSite::DeltaWalCut,
                (_, true, false) => KillSite::CompactionCleanup,
                (_, false, _) => KillSite::Wal,
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
        self.wal_cut = file != JOURNAL_FILE;
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
    for nth in 0..60 {
        grid.push((OpKind::Append, nth));
    }
    for nth in 0..90 {
        grid.push((OpKind::Fsync, nth));
    }
    for nth in 0..15 {
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
        KillSite::DeltaJournalAppend,
        KillSite::DeltaJournalFsync,
        KillSite::DeltaFsync,
        KillSite::DeltaRename,
        KillSite::DeltaWalCut,
        KillSite::BaseJournalAppend,
        KillSite::BaseJournalFsync,
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

/// §5.2.2 on the durable engine: a backup taken at time T, then commits
/// through at least two compactions, a crash and a boot. The history read
/// back from the journal file, replayed from T onto the restored backup,
/// must give the recovered database — no base rewrote or dropped any of it.
#[test]
fn journal_read_back_replays_onto_a_backup_across_compactions() {
    let registry = Registry::standard();
    let clock = VClock::new();
    let media = SimMedia::new();
    let (mut state, _) =
        boot_durable(clock.clone(), &registry, Box::new(media.clone()), cfg()).expect("boot");
    assert_eq!(apply_steps(&registry, &mut state, &clock, 0, 12), 12);
    let backup_time = clock.now();
    let backup = mrbackup(&state.db);
    let compactions = |s: &MoiraState| s.obs.snapshot().counter("db.snapshot.compactions");
    let before = compactions(&state);
    assert_eq!(apply_from(&registry, &mut state, &clock, 12), STEPS - 12);
    assert!(compactions(&state) >= before + 2, "{}", compactions(&state));
    state.storage.flush().expect("flush");
    drop(state);

    media.power_cycle();
    let (recovered, report) =
        boot_durable(clock.clone(), &registry, Box::new(media), cfg()).expect("reboot");
    assert_eq!(
        report.snapshot_entries, STEPS,
        "all of it sealed, none of it read"
    );
    assert!(recovered.journal.tail().is_empty());
    let history = recovered
        .storage
        .history(&recovered.journal)
        .expect("read back");
    assert_eq!(history.len(), STEPS);

    let mut restored = MoiraState::new(clock.clone());
    let mut db = Database::new(clock.clone());
    moira_core::schema::create_all_tables(&mut db);
    mrrestore(&mut db, &backup).expect("restore");
    restored.db = db;
    let replay: Vec<_> = history.since(backup_time).collect();
    assert_eq!(replay.len(), STEPS - 12);
    for entry in &replay {
        clock.set(entry.time);
        registry.replay(&mut restored, entry).expect("replay");
    }
    assert_eq!(mrbackup(&restored.db), mrbackup(&recovered.db));
}

/// Sends one request through `server` and returns its final status.
fn call(
    client: &mut dyn moira_protocol::transport::Channel,
    server: &mut MoiraServer,
    major: MajorRequest,
    args: &[&str],
) -> i32 {
    client.send(Request::new(major, args).encode()).unwrap();
    server.run_until_idle(2);
    loop {
        let reply = Reply::decode(recv_blocking(client, 100).expect("reply")).unwrap();
        if !reply.is_more_data() {
            return reply.code;
        }
    }
}

/// A group-commit flush that fails answers every write it covered with
/// `MR_DURABILITY`: no write a crash then loses was acknowledged.
#[test]
fn failed_group_commit_flush_acknowledges_no_write() {
    let lazy = GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: usize::MAX, // no eager fsync: the batch flush is the only one
        snapshot_every: 0,
    };
    let registry = Arc::new(Registry::standard());
    let media = SimMedia::new();
    let (mut state, _) =
        boot_durable(VClock::new(), &registry, Box::new(media.clone()), lazy).expect("boot");
    seed_capacls(&mut state, &registry);
    let uid = add_test_user(&mut state, "ops", 1);
    state
        .db
        .append(members::T, vec![2.into(), "USER".into(), uid.into()])
        .unwrap();
    state
        .storage
        .snapshot(&state.db, &state.journal)
        .expect("seal seed");
    let obs = state.obs.clone();
    let mut server = MoiraServer::new(shared(state), registry.clone(), None);
    let (mut client, end) = pair();
    server.attach(Box::new(end), "local", 0);
    let auth = ["ops", "ack"];
    assert_eq!(call(&mut client, &mut server, MajorRequest::Auth, &auth), 0);

    media.arm_crash(OpKind::Fsync, 0);
    let args = ["add_machine", "UNACKED.MIT.EDU", "VAX"];
    let code = call(&mut client, &mut server, MajorRequest::Query, &args);
    assert_eq!(code, MrError::Durability.code(), "a write the flush lost");
    assert_eq!(obs.snapshot().counter("db.wal.flush_errors"), 1);

    drop(server);
    media.power_cycle();
    let (back, _) = boot_durable(VClock::new(), &registry, Box::new(media), lazy).expect("reboot");
    let name = Pred::Eq(machine::NAME, "UNACKED.MIT.EDU".into());
    assert!(back.db.table(machine::T).select_one(&name).is_none());
}
