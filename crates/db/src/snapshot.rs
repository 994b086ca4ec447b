//! Durable checkpoint documents: the full database image a recovering
//! server boots from (the *base*), and the *deltas* that carry it forward
//! between full rewrites, before the WAL tail is replayed.
//!
//! A base extends the `mrbackup` ASCII philosophy (§5.2.2 — text files
//! are the only dump format whose corruption is always curable) to the
//! *mutation state* the delta-DCM machinery depends on: the database epoch,
//! per-table statistics, per-row generation stamps, tombstones, and
//! free-list order, plus the in-memory journal so the recovered server's
//! change history is complete. Field values use the same `\:`, `\\`, `\nnn`
//! escapes as the backup dumps.
//!
//! A delta is the same document restricted to what moved since the
//! checkpoint it names in `prev:`: only the tables whose generation
//! advanced, in each only the rows and tombstones stamped after that
//! checkpoint (plus the whole free list and the statistics, which are
//! small), and only the journal entries logged since. §5.7's DCM skips a
//! generator whose tables have not changed (`MR_NO_CHANGE`); this is the
//! same rule applied to the checkpoint, down to rows. One table-section
//! encoder writes both, so the two formats cannot drift.
//! [`SnapshotImage::fold`] replays a delta onto the image it extends while
//! the rows are still escaped text.
//!
//! Both documents are line-oriented and end with an explicit end marker, so
//! a torn file (impossible under the temp-file + rename + dir-fsync write
//! protocol, but disks lie) is detected rather than half-applied. A delta's
//! marker also carries a CRC-32 of everything before it: a delta is only
//! ever read as a link of a chain, where silently accepting a damaged one
//! would lose acknowledged commits.

// Snapshot decode runs on whatever bytes a crash left behind; a panic here
// makes the database unbootable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fmt::Write;

use moira_common::crc::crc32;
use moira_common::errors::{MrError, MrResult};

use crate::backup::{column_types, decode_row, encode_row, split_unescaped_colons};
use crate::database::{Database, GenCursor};
use crate::journal::{Journal, JournalEntry};
use crate::table::{RowId, Table, TableImage, TableStats};

/// Magic first line of a base; the `:1` is the format version.
const MAGIC: &str = "moira-snapshot:1";
/// Magic first line of a delta.
const DELTA_MAGIC: &str = "moira-delta:1";
/// Length of a delta's end marker, `end:` + eight hex digits + newline.
const DELTA_END_LEN: usize = 13;

/// One table's raw (still-escaped-text) image inside a checkpoint document.
#[derive(Debug, Clone, Default)]
struct RawTable {
    stats: TableStats,
    /// `slot id -> (generation stamp, escaped fields)`.
    rows: BTreeMap<RowId, (u64, Vec<String>)>,
    /// `slot id -> generation of the delete`.
    dead: BTreeMap<RowId, u64>,
    free: Vec<RowId>,
}

/// A parsed snapshot document — a base with every delta of its chain folded
/// in — ready to apply to a schema-created database.
#[derive(Debug, Clone)]
pub struct SnapshotImage {
    /// Epoch of the database the snapshot was cut from.
    pub epoch: u64,
    /// Clock reading at snapshot time.
    pub now: i64,
    /// Last WAL sequence number the snapshot covers; recovery replays only
    /// frames with a higher sequence.
    pub seq: u64,
    /// The journal as of snapshot time.
    pub journal: Journal,
    tables: BTreeMap<String, RawTable>,
}

/// Appends one table section: the statistics, then the rows and tombstones
/// stamped after `since` straight from the slab, then the whole free list.
/// A base is `since = 0`.
fn encode_table(out: &mut String, name: &str, table: &Table, since: u64) {
    let s = table.stats();
    let _ = writeln!(
        out,
        "table:{name}:{}:{}:{}:{}:{}",
        s.appends, s.updates, s.deletes, s.modtime, s.generation
    );
    for (id, gen, row) in table.rows_since(since) {
        let _ = write!(out, "row:{id}:{gen}:");
        encode_row(out, row);
        out.push('\n');
    }
    for (id, gen) in table.dead_since(since) {
        let _ = writeln!(out, "dead:{id}:{gen}");
    }
    out.push_str("free:");
    for (i, id) in table.free_list().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out.push_str("\nendtable\n");
}

fn encode_journal(out: &mut String, entries: &[JournalEntry]) {
    for entry in entries {
        out.push_str("journal:");
        entry.write_line(out);
        out.push('\n');
    }
}

/// Serializes the database (plus journal) into a base document sealing
/// every WAL frame up to and including `seq`.
pub fn encode_snapshot(db: &Database, journal: &Journal, seq: u64) -> String {
    let ids = db.table_ids();
    // About 96 bytes to a row and to a journal line on the paper's
    // population; close enough that the document is written into one
    // allocation instead of doubling its way up.
    let lines = ids.iter().map(|&id| db.at(id).len()).sum::<usize>() + journal.len();
    let mut out = String::with_capacity(lines * 96 + 1024);
    let _ = write!(
        out,
        "{MAGIC}\nepoch:{}\nnow:{}\nseq:{seq}\n",
        db.epoch(),
        db.now()
    );
    for id in ids {
        encode_table(&mut out, id.name(), db.at(id), 0);
    }
    encode_journal(&mut out, journal.entries());
    out.push_str("end\n");
    out
}

/// Serializes what changed since the checkpoint `cursor` and `sealed_len`
/// describe (the one sealing WAL frame `prev`) into a delta document sealing
/// every frame up to and including `seq`. The caller has checked
/// `cursor.valid_for(db)` and that the journal only grew.
pub(crate) fn encode_delta(
    db: &Database,
    journal: &Journal,
    cursor: &GenCursor,
    sealed_len: usize,
    prev: u64,
    seq: u64,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{DELTA_MAGIC}\nepoch:{}\nnow:{}\nprev:{prev}\nseq:{seq}\n",
        db.epoch(),
        db.now()
    );
    for id in cursor.advanced_tables(db) {
        let since = cursor.gens.get(&id).copied().unwrap_or(0);
        encode_table(&mut out, id.name(), db.at(id), since);
    }
    encode_journal(&mut out, journal.entries().get(sealed_len..).unwrap_or(&[]));
    let crc = crc32(out.as_bytes());
    let _ = writeln!(out, "end:{crc:08x}");
    out
}

fn parse<T: std::str::FromStr>(s: &str) -> MrResult<T> {
    s.parse().map_err(|_| MrError::Durability)
}

/// Parses everything before the end marker of either document kind; the
/// second value is the `prev:` link, which only a delta carries.
fn parse_body(body: &str, magic: &str) -> MrResult<(SnapshotImage, Option<u64>)> {
    if !body.ends_with('\n') {
        return Err(MrError::Durability); // a line was cut short
    }
    let mut lines = body.lines();
    if lines.next() != Some(magic) {
        return Err(MrError::Durability);
    }
    let mut epoch = None;
    let mut now = None;
    let mut seq = None;
    let mut prev = None;
    let mut journal = Journal::new();
    let mut tables: BTreeMap<String, RawTable> = BTreeMap::new();
    let mut current: Option<(String, RawTable)> = None;
    for line in lines {
        let (tag, rest) = line.split_once(':').unwrap_or((line, ""));
        match tag {
            "epoch" => epoch = Some(parse(rest)?),
            "now" => now = Some(parse(rest)?),
            "seq" => seq = Some(parse(rest)?),
            "prev" => prev = Some(parse(rest)?),
            "table" if current.is_none() => {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 6 {
                    return Err(MrError::Durability);
                }
                let stats = TableStats {
                    appends: parse(parts[1])?,
                    updates: parse(parts[2])?,
                    deletes: parse(parts[3])?,
                    modtime: parse(parts[4])?,
                    generation: parse(parts[5])?,
                };
                current = Some((
                    parts[0].to_owned(),
                    RawTable {
                        stats,
                        ..RawTable::default()
                    },
                ));
            }
            "row" => {
                let t = current.as_mut().ok_or(MrError::Durability)?;
                let fields = split_unescaped_colons(rest);
                if fields.len() < 2 {
                    return Err(MrError::Durability);
                }
                let id = parse(fields[0])?;
                let gen = parse(fields[1])?;
                let values = fields[2..].iter().map(|f| (*f).to_owned()).collect();
                if t.1.rows.insert(id, (gen, values)).is_some() {
                    return Err(MrError::Durability);
                }
            }
            "dead" => {
                let t = current.as_mut().ok_or(MrError::Durability)?;
                let (id, gen) = rest.split_once(':').ok_or(MrError::Durability)?;
                t.1.dead.insert(parse(id)?, parse(gen)?);
            }
            "free" => {
                let t = current.as_mut().ok_or(MrError::Durability)?;
                if !rest.is_empty() {
                    for id in rest.split(',') {
                        t.1.free.push(parse(id)?);
                    }
                }
            }
            "endtable" if rest.is_empty() => {
                let (name, done) = current.take().ok_or(MrError::Durability)?;
                if tables.insert(name, done).is_some() {
                    return Err(MrError::Durability);
                }
            }
            "journal" => {
                journal.log(JournalEntry::from_line(rest).map_err(|_| MrError::Durability)?);
            }
            // Includes a second end marker and anything after the first.
            _ => return Err(MrError::Durability),
        }
    }
    if current.is_some() {
        return Err(MrError::Durability);
    }
    match (epoch, now, seq) {
        (Some(epoch), Some(now), Some(seq)) => Ok((
            SnapshotImage {
                epoch,
                now,
                seq,
                journal,
                tables,
            },
            prev,
        )),
        _ => Err(MrError::Durability),
    }
}

/// Parses a base document. Rejects (with `MR_DURABILITY`) anything
/// malformed or missing the trailing `end` marker.
pub fn decode_snapshot(text: &str) -> MrResult<SnapshotImage> {
    let body = text.strip_suffix("end\n").ok_or(MrError::Durability)?;
    match parse_body(body, MAGIC)? {
        (image, None) => Ok(image),
        (_, Some(_)) => Err(MrError::Durability),
    }
}

/// Parses a delta document into the `prev:` link it extends and its
/// (partial) image. Rejects anything malformed, cut short, or whose bytes
/// do not match the checksum in the end marker.
pub(crate) fn decode_delta(text: &str) -> MrResult<(u64, SnapshotImage)> {
    let split = text
        .len()
        .checked_sub(DELTA_END_LEN)
        .ok_or(MrError::Durability)?;
    let (Some(body), Some(end)) = (text.get(..split), text.get(split..)) else {
        return Err(MrError::Durability);
    };
    if end != format!("end:{:08x}\n", crc32(body.as_bytes())) {
        return Err(MrError::Durability);
    }
    match parse_body(body, DELTA_MAGIC)? {
        (image, Some(prev)) => Ok((prev, image)),
        (_, None) => Err(MrError::Durability),
    }
}

impl SnapshotImage {
    /// Folds in the delta that extends this image (the caller matched its
    /// `prev:` against [`SnapshotImage::seq`]): per table, rows replace by
    /// id, newer tombstones drop the rows they name, the free list and the
    /// statistics are replaced; the journal tail is appended. The rows stay
    /// escaped text, so [`SnapshotImage::apply`] remains the only place
    /// disk bytes become live rows — and the only validation they need.
    pub(crate) fn fold(&mut self, delta: SnapshotImage) -> MrResult<()> {
        if delta.epoch != self.epoch || delta.seq <= self.seq {
            return Err(MrError::Durability);
        }
        for (name, d) in delta.tables {
            // A base lists every table, so a delta cannot introduce one.
            let t = self.tables.get_mut(&name).ok_or(MrError::Durability)?;
            for (id, row) in d.rows {
                t.dead.remove(&id);
                t.rows.insert(id, row);
            }
            for (id, gen) in d.dead {
                t.rows.remove(&id);
                t.dead.insert(id, gen);
            }
            t.free = d.free;
            t.stats = d.stats;
        }
        self.journal.append(delta.journal);
        self.now = delta.now;
        self.seq = delta.seq;
        Ok(())
    }

    /// `table name -> generation` as of this image: the cursor the next
    /// delta is cut against.
    pub(crate) fn generations(&self) -> BTreeMap<String, u64> {
        self.tables
            .iter()
            .map(|(name, t)| (name.clone(), t.stats.generation))
            .collect()
    }

    /// Applies the image to a database whose schema has already been
    /// created (and whose epoch the caller set via [`Database::recovered`]).
    /// Every table named in the snapshot must exist and be pristine, and
    /// every row must decode against its table's column types — the rows
    /// stay escaped text until here, where the types are known.
    pub fn apply(&self, db: &mut Database) -> MrResult<()> {
        for (name, raw) in &self.tables {
            let table = db.lookup(name).ok_or(MrError::Durability)?;
            let types = column_types(db.at(table));
            let mut rows = Vec::with_capacity(raw.rows.len());
            for (id, (gen, fields)) in &raw.rows {
                let values = decode_row(fields, &types).map_err(|_| MrError::Durability)?;
                rows.push((*id, *gen, values));
            }
            let image = TableImage {
                rows,
                dead: raw.dead.iter().map(|(&id, &gen)| (id, gen)).collect(),
                free: raw.free.clone(),
                stats: raw.stats,
            };
            db.at_mut(table)
                .import_image(&image)
                .map_err(|_| MrError::Durability)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Relation;
    use moira_common::clock::VClock;

    crate::relations! {
        users { LOGIN: str "login" unique, UID: int "uid" indexed, ACTIVE: boolean "active" }
        values { NAME: str "name", V: int "v" }
    }

    fn build_db() -> (Database, Journal) {
        let clock = VClock::new();
        let mut db = Database::new(clock.clone());
        create_all_tables(&mut db);
        let a = db
            .append(users::T, vec!["co:lon".into(), 1.into(), true.into()])
            .unwrap();
        db.append(users::T, vec!["b\\ck".into(), 2.into(), false.into()])
            .unwrap();
        clock.advance(60);
        db.update(a, &[(users::UID, 9.into())]).unwrap();
        db.delete(users::T, a).unwrap();
        db.append(values::T, vec!["dcm\nenable".into(), 1.into()])
            .unwrap();
        let mut journal = Journal::new();
        journal.log(JournalEntry {
            time: db.now(),
            who: "ops:root".into(),
            with: "maint".into(),
            query: "add_user".into(),
            args: vec!["x\ny".into(), String::new()],
        });
        (db, journal)
    }

    fn rebuild(image: &SnapshotImage) -> Database {
        let mut back = Database::recovered(VClock::starting_at(image.now), image.epoch);
        create_all_tables(&mut back);
        image.apply(&mut back).unwrap();
        back
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let (db, journal) = build_db();
        let text = encode_snapshot(&db, &journal, 17);
        let image = decode_snapshot(&text).unwrap();
        assert_eq!(image.epoch, db.epoch());
        assert_eq!(image.now, db.now());
        assert_eq!(image.seq, 17);
        assert_eq!(image.journal.entries(), journal.entries());

        let back = rebuild(&image);
        assert_eq!(back.epoch(), db.epoch());
        for id in db.table_ids() {
            assert_eq!(
                back.at(id).export_image(),
                db.at(id).export_image(),
                "table {}",
                id.name()
            );
        }
        // Re-encoding the rebuilt database is byte-identical.
        assert_eq!(encode_snapshot(&back, &journal, 17), text);
    }

    #[test]
    fn truncated_or_mangled_documents_are_rejected() {
        let (db, journal) = build_db();
        let text = encode_snapshot(&db, &journal, 3);
        // Any prefix missing the end marker is rejected.
        let cut = text.len() - 5;
        assert!(decode_snapshot(&text[..cut]).is_err());
        assert!(decode_snapshot("").is_err());
        assert!(decode_snapshot("moira-snapshot:9\nend\n").is_err());
        let mangled = text.replace("seq:3", "seq:banana");
        assert!(decode_snapshot(&mangled).is_err());
        let trailing = format!("{text}junk\n");
        assert!(decode_snapshot(&trailing).is_err());
    }

    #[test]
    fn a_row_id_off_disk_cannot_panic_or_size_an_allocation() {
        let (db, journal) = build_db();
        let text = encode_snapshot(&db, &journal, 3);
        assert!(text.contains("\nrow:1:2:"), "{text}");
        // `usize::MAX + 1` wraps; 4e15 slots would be a 96 PB slab. Both
        // must be refused before anything is sized by them.
        for hostile in ["18446744073709551615", "4000000000000000"] {
            let bad = text.replace("\nrow:1:2:", &format!("\nrow:{hostile}:2:"));
            let image = decode_snapshot(&bad).unwrap();
            let mut back = Database::recovered(VClock::new(), image.epoch);
            create_all_tables(&mut back);
            assert_eq!(
                image.apply(&mut back),
                Err(MrError::Durability),
                "{hostile}"
            );
            let bad = text.replace("\nfree:0\n", &format!("\nfree:{hostile}\n"));
            assert_eq!(
                decode_snapshot(&bad).unwrap().apply(&mut back),
                Err(MrError::Durability)
            );
        }
        // One free slot listed twice; one row id listed twice.
        let bad = text.replace("\nfree:0\n", "\nfree:0,0\n");
        let mut back = Database::recovered(VClock::new(), db.epoch());
        create_all_tables(&mut back);
        assert_eq!(
            decode_snapshot(&bad).unwrap().apply(&mut back),
            Err(MrError::Durability)
        );
        let bad = text.replace("\nrow:1:2:", "\nrow:1:2:x:1:1\nrow:1:2:");
        assert!(decode_snapshot(&bad).is_err());
    }

    #[test]
    fn delta_folds_onto_its_base_and_neither_decodes_as_the_other() {
        let (mut db, mut journal) = build_db();
        let base = encode_snapshot(&db, &journal, 3);
        let cursor = db.cursor(&db.table_ids());
        let sealed_len = journal.len();
        // Reuse the freed slot, touch a row, tombstone another; `values`
        // stays put and must not appear in the delta.
        db.append(users::T, vec!["new".into(), 5.into(), true.into()])
            .unwrap();
        db.update(1, &[(users::UID, 8.into())]).unwrap();
        db.delete(users::T, 1).unwrap();
        journal.log(JournalEntry {
            time: db.now(),
            who: "ops".into(),
            with: "maint".into(),
            query: "churn".into(),
            args: vec![],
        });
        let delta = encode_delta(&db, &journal, &cursor, sealed_len, 3, 4);
        assert!(!delta.contains("table:values"), "{delta}");
        assert!(decode_snapshot(&delta).is_err());
        assert!(decode_delta(&base).is_err());

        let mut image = decode_snapshot(&base).unwrap();
        let (prev, tail) = decode_delta(&delta).unwrap();
        assert_eq!((prev, tail.seq), (3, 4));
        image.fold(tail).unwrap();
        assert_eq!(image.seq, 4);
        assert_eq!(image.journal.entries(), journal.entries());
        assert_eq!(
            encode_snapshot(&rebuild(&image), &journal, 4),
            encode_snapshot(&db, &journal, 4)
        );
        // A delta must move the sequence on, within one epoch.
        let (_, again) = decode_delta(&delta).unwrap();
        assert_eq!(image.fold(again), Err(MrError::Durability));
    }

    #[test]
    fn apply_requires_known_pristine_tables() {
        let (db, journal) = build_db();
        let image = decode_snapshot(&encode_snapshot(&db, &journal, 0)).unwrap();
        // Missing table.
        let mut missing = Database::recovered(VClock::new(), image.epoch);
        missing.create_table(users::R::schema());
        assert_eq!(image.apply(&mut missing), Err(MrError::Durability));
        // Non-pristine table.
        let mut dirty = Database::recovered(VClock::new(), image.epoch);
        create_all_tables(&mut dirty);
        dirty
            .append(users::T, vec!["z".into(), 99.into(), true.into()])
            .unwrap();
        assert_eq!(image.apply(&mut dirty), Err(MrError::Durability));
    }
}
