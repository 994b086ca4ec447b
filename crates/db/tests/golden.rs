//! Golden bytes of the two checkpoint documents.
//!
//! `golden/base.txt` was written by `encode_snapshot` at the commit before
//! delta checkpoints existed: the base format (`moira-snapshot:1`) did not
//! change, so an image that commit left on disk still boots. `golden/delta.txt`
//! pins the one on-disk format this engine added (`moira-delta:1`); a later
//! codec change shows up here as a diff, not as a recovery failure in the
//! field.

use moira_common::VClock;
use moira_db::journal::{Journal, JournalEntry};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{
    delta_file, DurableEngine, GroupCommitConfig, Media, SimMedia, Storage, SNAPSHOT_FILE,
};
use moira_db::Database;

const BASE: &str = include_str!("golden/base.txt");
const DELTA: &str = include_str!("golden/delta.txt");

const EPOCH: u64 = 7;
const T0: i64 = 600_000_000;

moira_db::relations! {
    users { LOGIN: str "login" unique, UID: int "uid" indexed, ACTIVE: boolean "active" }
    values { NAME: str "name", V: int "v" }
}

fn empty_db(clock: &VClock) -> Database {
    let mut db = Database::recovered(clock.clone(), EPOCH);
    create_all_tables(&mut db);
    db
}

fn entry(db: &Database, query: &str, args: &[&str]) -> JournalEntry {
    JournalEntry {
        time: db.now(),
        who: "ops:root".into(),
        with: "golden".into(),
        query: query.into(),
        args: args.iter().map(|a| (*a).to_owned()).collect(),
    }
}

/// The three commits the base seals: escapes of every kind, an update, a
/// tombstone and a free slot.
fn first_commits(db: &mut Database, clock: &VClock) -> Vec<JournalEntry> {
    let a = db
        .append(users::T, vec!["co:lon".into(), 1.into(), true.into()])
        .unwrap();
    db.append(users::T, vec!["b\\ck".into(), 2.into(), false.into()])
        .unwrap();
    db.append(users::T, vec!["caf\u{e9}".into(), (-3).into(), true.into()])
        .unwrap();
    let e1 = entry(db, "add_users", &["co:lon", "b\\ck", "caf\u{e9}"]);
    clock.advance(60);
    db.update(a, &[(users::UID, 9.into())]).unwrap();
    db.delete(users::T, a).unwrap();
    let e2 = entry(db, "drop_user", &["co:lon", ""]);
    db.append(values::T, vec!["dcm\nenable".into(), 1.into()])
        .unwrap();
    let e3 = entry(db, "set_value", &["dcm\nenable", "1"]);
    vec![e1, e2, e3]
}

/// The two commits the delta seals: the free slot reused, an in-place
/// update, a fresh tombstone; `values` does not move.
fn later_commits(db: &mut Database, clock: &VClock) -> Vec<JournalEntry> {
    clock.advance(60);
    db.append(users::T, vec!["new:bie".into(), 4.into(), true.into()])
        .unwrap();
    db.update(1, &[(users::ACTIVE, true.into())]).unwrap();
    let e4 = entry(db, "add_user", &["new:bie"]);
    db.delete(users::T, 2).unwrap();
    let e5 = entry(db, "drop_user", &["caf\u{e9}", "x\ny"]);
    vec![e4, e5]
}

fn config() -> GroupCommitConfig {
    GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: usize::MAX,
        snapshot_every: 0,
    }
}

fn commit(engine: &mut DurableEngine, journal: &mut Journal, entries: Vec<JournalEntry>) {
    for e in entries {
        engine.append(&e, e.time).unwrap();
        journal.log(e);
    }
}

fn file(media: &SimMedia, name: &str) -> String {
    String::from_utf8(media.durable_bytes(name).expect(name)).unwrap()
}

#[test]
fn base_and_delta_documents_are_the_recorded_bytes() {
    let clock = VClock::starting_at(T0);
    let mut db = empty_db(&clock);
    let mut journal = Journal::new();
    let media = SimMedia::new();
    let (mut engine, _) = DurableEngine::open(Box::new(media.clone()), config()).unwrap();

    let entries = first_commits(&mut db, &clock);
    commit(&mut engine, &mut journal, entries);
    assert_eq!(encode_snapshot(&db, &journal, 3), BASE);
    engine.snapshot(&db, &journal).unwrap();
    assert_eq!(file(&media, SNAPSHOT_FILE), BASE);

    let entries = later_commits(&mut db, &clock);
    commit(&mut engine, &mut journal, entries);
    engine.snapshot(&db, &journal).unwrap();
    assert_eq!(
        file(&media, SNAPSHOT_FILE),
        BASE,
        "the base is not rewritten"
    );
    assert_eq!(file(&media, &delta_file(1)), DELTA);

    // And the pair recovers to the live image, byte for byte.
    drop(engine);
    media.power_cycle();
    let (_, recovered) = DurableEngine::open(Box::new(media), config()).unwrap();
    let image = recovered.unwrap().snapshot.unwrap();
    assert_eq!(image.seq, 5);
    let mut back = empty_db(&VClock::starting_at(image.now));
    image.apply(&mut back).unwrap();
    assert_eq!(
        encode_snapshot(&back, &image.journal, 5),
        encode_snapshot(&db, &journal, 5)
    );
}

#[test]
fn a_base_written_before_deltas_existed_boots_unmodified() {
    let mut media = SimMedia::new();
    media.write_new(SNAPSHOT_FILE, BASE.as_bytes()).unwrap();
    media.fsync(SNAPSHOT_FILE).unwrap();
    let (_, recovered) = DurableEngine::open(Box::new(media.clone()), config()).unwrap();
    let recovered = recovered.unwrap();
    assert!(recovered.wal.is_empty());
    let image = recovered.snapshot.unwrap();
    assert_eq!((image.epoch, image.seq), (EPOCH, 3));
    let mut back = empty_db(&VClock::starting_at(image.now));
    image.apply(&mut back).unwrap();
    assert_eq!(encode_snapshot(&back, &image.journal, image.seq), BASE);
    assert_eq!(file(&media, SNAPSHOT_FILE), BASE, "open rewrites nothing");
}
