//! Golden bytes of the durable files: the two checkpoint documents and the
//! journal file.
//!
//! `golden/base.txt` (`moira-snapshot:2`) and `golden/delta.txt`
//! (`moira-delta:2`) carry the journal's count and the journal file's end
//! where version 1 carried the entries; `golden/journal.txt` is the journal
//! file those two checkpoints leave. A later codec change shows up here as
//! a diff, not as a recovery failure in the field.

use moira_common::VClock;
use moira_db::journal::{Journal, JournalEntry};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{
    delta_file, DurableEngine, GroupCommitConfig, Media, SimMedia, Storage, JOURNAL_FILE,
    SNAPSHOT_FILE,
};
use moira_db::Database;

const BASE: &str = include_str!("golden/base.txt");
const DELTA: &str = include_str!("golden/delta.txt");
const JOURNAL: &str = include_str!("golden/journal.txt");

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
    db.update(a, &[users::UID.set(9)]).unwrap();
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
    db.update(1, &[users::ACTIVE.set(true)]).unwrap();
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
        engine.append(journal.log(&e), e.time).unwrap();
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
    assert_eq!(file(&media, JOURNAL_FILE), JOURNAL);
    assert_eq!(
        journal.to_text(),
        JOURNAL,
        "the file's format is `to_text`'s"
    );

    // And the pair recovers to the live image, byte for byte.
    drop(engine);
    media.power_cycle();
    let (engine, recovered) = DurableEngine::open(Box::new(media), config()).unwrap();
    let image = recovered.unwrap().snapshot.unwrap();
    assert_eq!(image.seq, 5);
    assert!(image.journal.tail().is_empty(), "a boot reads no history");
    assert_eq!(engine.history(&image.journal), Ok(journal.clone()));
    let mut back = empty_db(&VClock::starting_at(image.now));
    image.apply(&mut back).unwrap();
    assert_eq!(
        encode_snapshot(&back, &image.journal, 5),
        encode_snapshot(&db, &journal, 5)
    );
}

#[test]
fn a_recorded_base_boots_unmodified_and_a_version_1_one_is_refused() {
    let mut media = SimMedia::new();
    let v1 = BASE.replace("moira-snapshot:2", "moira-snapshot:1");
    media.write_new(SNAPSHOT_FILE, v1.as_bytes()).unwrap();
    media.fsync(SNAPSHOT_FILE).unwrap();
    let opened = DurableEngine::open(Box::new(media.clone()), config());
    assert_eq!(
        opened.map(|_| ()).unwrap_err(),
        moira_common::MrError::Durability
    );

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
