//! Durable snapshot documents: the full database image a recovering server
//! boots from before replaying the WAL tail.
//!
//! A snapshot extends the `mrbackup` ASCII philosophy (§5.2.2 — text files
//! are the only dump format whose corruption is always curable) to the
//! *mutation state* the delta-DCM machinery depends on: the database epoch,
//! per-table statistics, per-row generation stamps, tombstones, and
//! free-list order, plus the in-memory journal so the recovered server's
//! change history is complete. Field values use the same `\:`, `\\`, `\nnn`
//! escapes as the backup dumps.
//!
//! The document is line-oriented and ends with an explicit `end` marker, so
//! a torn file (impossible under the temp-file + rename + dir-fsync write
//! protocol, but disks lie) is detected rather than half-applied.

// Snapshot decode runs on whatever bytes a crash left behind; a panic here
// makes the database unbootable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use moira_common::errors::{MrError, MrResult};

use crate::backup::{column_types, decode_row, encode_row, split_unescaped_colons};
use crate::database::Database;
use crate::journal::{Journal, JournalEntry};
use crate::table::{RowId, TableImage, TableStats};

/// Magic first line; the `:1` is the format version.
const MAGIC: &str = "moira-snapshot:1";

/// One table's raw (still-escaped-text) image inside a snapshot document.
#[derive(Debug, Clone, Default)]
struct RawTable {
    stats: TableStats,
    rows: Vec<(RowId, u64, Vec<String>)>,
    dead: Vec<(RowId, u64)>,
    free: Vec<RowId>,
}

/// A parsed snapshot document, ready to apply to a schema-created database.
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
    tables: Vec<(String, RawTable)>,
}

/// Serializes the database (plus journal) into a snapshot document sealing
/// every WAL frame up to and including `seq`.
pub fn encode_snapshot(db: &Database, journal: &Journal, seq: u64) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("epoch:{}\n", db.epoch()));
    out.push_str(&format!("now:{}\n", db.now()));
    out.push_str(&format!("seq:{seq}\n"));
    for name in db.table_names() {
        let image = db.table(name).export_image();
        let s = image.stats;
        out.push_str(&format!(
            "table:{name}:{}:{}:{}:{}:{}\n",
            s.appends, s.updates, s.deletes, s.modtime, s.generation
        ));
        for (id, gen, row) in &image.rows {
            out.push_str(&format!("row:{id}:{gen}:"));
            encode_row(&mut out, row);
            out.push('\n');
        }
        for (id, gen) in &image.dead {
            out.push_str(&format!("dead:{id}:{gen}\n"));
        }
        let free: Vec<String> = image.free.iter().map(|id| id.to_string()).collect();
        out.push_str(&format!("free:{}\n", free.join(",")));
        out.push_str("endtable\n");
    }
    for entry in journal.entries() {
        out.push_str("journal:");
        out.push_str(&entry.to_line());
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

fn parse_u64(s: &str) -> MrResult<u64> {
    s.parse().map_err(|_| MrError::Durability)
}

fn parse_i64(s: &str) -> MrResult<i64> {
    s.parse().map_err(|_| MrError::Durability)
}

/// Parses a snapshot document. Rejects (with `MR_DURABILITY`) anything
/// malformed or missing the trailing `end` marker.
pub fn decode_snapshot(text: &str) -> MrResult<SnapshotImage> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(MrError::Durability);
    }
    let mut epoch = None;
    let mut now = None;
    let mut seq = None;
    let mut journal = Journal::new();
    let mut tables: Vec<(String, RawTable)> = Vec::new();
    let mut current: Option<(String, RawTable)> = None;
    let mut sealed = false;
    for line in lines {
        if sealed {
            return Err(MrError::Durability); // trailing garbage
        }
        let (tag, rest) = line.split_once(':').unwrap_or((line, ""));
        match tag {
            "epoch" => epoch = Some(parse_u64(rest)?),
            "now" => now = Some(parse_i64(rest)?),
            "seq" => seq = Some(parse_u64(rest)?),
            "table" => {
                if let Some(done) = current.take() {
                    tables.push(done);
                }
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 6 {
                    return Err(MrError::Durability);
                }
                let stats = TableStats {
                    appends: parse_u64(parts[1])?,
                    updates: parse_u64(parts[2])?,
                    deletes: parse_u64(parts[3])?,
                    modtime: parse_i64(parts[4])?,
                    generation: parse_u64(parts[5])?,
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
                let id = parse_u64(fields[0])? as RowId;
                let gen = parse_u64(fields[1])?;
                let values = fields[2..].iter().map(|f| (*f).to_owned()).collect();
                t.1.rows.push((id, gen, values));
            }
            "dead" => {
                let t = current.as_mut().ok_or(MrError::Durability)?;
                let (id, gen) = rest.split_once(':').ok_or(MrError::Durability)?;
                t.1.dead.push((parse_u64(id)? as RowId, parse_u64(gen)?));
            }
            "free" => {
                let t = current.as_mut().ok_or(MrError::Durability)?;
                if !rest.is_empty() {
                    for id in rest.split(',') {
                        t.1.free.push(parse_u64(id)? as RowId);
                    }
                }
            }
            "endtable" if rest.is_empty() => {
                let done = current.take().ok_or(MrError::Durability)?;
                tables.push(done);
            }
            "journal" => {
                journal.log(JournalEntry::from_line(rest).map_err(|_| MrError::Durability)?);
            }
            "end" if rest.is_empty() => sealed = true,
            _ => return Err(MrError::Durability),
        }
    }
    if !sealed || current.is_some() {
        return Err(MrError::Durability);
    }
    match (epoch, now, seq) {
        (Some(epoch), Some(now), Some(seq)) => Ok(SnapshotImage {
            epoch,
            now,
            seq,
            journal,
            tables,
        }),
        _ => Err(MrError::Durability),
    }
}

impl SnapshotImage {
    /// Applies the image to a database whose schema has already been
    /// created (and whose epoch the caller set via [`Database::recovered`]).
    /// Every table named in the snapshot must exist and be pristine, and
    /// every row must decode against its table's column types — the rows
    /// stay escaped text until here, where the types are known.
    pub fn apply(&self, db: &mut Database) -> MrResult<()> {
        for (name, raw) in &self.tables {
            if !db.has_table(name) {
                return Err(MrError::Durability);
            }
            let types = column_types(db, name);
            let mut rows = Vec::with_capacity(raw.rows.len());
            for (id, gen, fields) in &raw.rows {
                let values = decode_row(fields, &types).map_err(|_| MrError::Durability)?;
                rows.push((*id, *gen, values));
            }
            let image = TableImage {
                rows,
                dead: raw.dead.clone(),
                free: raw.free.clone(),
                stats: raw.stats,
            };
            db.table_mut(name)
                .import_image(&image)
                .map_err(|_| MrError::Durability)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use moira_common::clock::VClock;

    fn schema() -> Vec<TableSchema> {
        vec![
            TableSchema::new(
                "users",
                vec![
                    ColumnDef::str("login").unique(),
                    ColumnDef::int("uid").indexed(),
                    ColumnDef::boolean("active"),
                ],
            ),
            TableSchema::new("values", vec![ColumnDef::str("name"), ColumnDef::int("v")]),
        ]
    }

    fn build_db() -> (Database, Journal) {
        let clock = VClock::new();
        let mut db = Database::new(clock.clone());
        for s in schema() {
            db.create_table(s);
        }
        let a = db
            .append("users", vec!["co:lon".into(), 1.into(), true.into()])
            .unwrap();
        db.append("users", vec!["b\\ck".into(), 2.into(), false.into()])
            .unwrap();
        clock.advance(60);
        db.update("users", a, &[("uid", 9.into())]).unwrap();
        db.delete("users", a).unwrap();
        db.append("values", vec!["dcm\nenable".into(), 1.into()])
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
        for s in schema() {
            back.create_table(s);
        }
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
        for name in db.table_names() {
            assert_eq!(
                back.table(name).export_image(),
                db.table(name).export_image(),
                "table {name}"
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
    fn apply_requires_known_pristine_tables() {
        let (db, journal) = build_db();
        let image = decode_snapshot(&encode_snapshot(&db, &journal, 0)).unwrap();
        // Missing table.
        let mut missing = Database::recovered(VClock::new(), image.epoch);
        missing.create_table(schema().remove(0));
        assert_eq!(image.apply(&mut missing), Err(MrError::Durability));
        // Non-pristine table.
        let mut dirty = Database::recovered(VClock::new(), image.epoch);
        for s in schema() {
            dirty.create_table(s);
        }
        dirty
            .append("users", vec!["z".into(), 99.into(), true.into()])
            .unwrap();
        assert_eq!(image.apply(&mut dirty), Err(MrError::Durability));
    }
}
