//! `mrbackup` / `mrrestore` — the ASCII dump format of §5.2.2.
//!
//! Each relation is copied to an ASCII file, one line per row, fields
//! separated by colons. Colons and backslashes inside fields become `\:` and
//! `\\`; non-printing characters become `\nnn` with `nnn` the octal ASCII
//! code. The paper chose this over INGRES's own checkpointing because "the
//! only known cure \[for binary corruption\] is to dump the entire database
//! to text files, and recreate it from scratch from the text files".
//!
//! [`MediaRotation`] reproduces the `nightly.sh` rotation that keeps the last
//! three backups on line.

// Decodes backup and snapshot rows from disk: malformed input is an error,
// never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;

use moira_common::errors::{MrError, MrResult};

use crate::database::Database;
use crate::schema::TableId;
use crate::storage::Media;
use crate::table::Table;
use crate::value::{ColType, Symbols, Value};

/// Escapes one field: `\:`, `\\`, and `\nnn` octal for non-printing bytes.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape_field`] appended to `out` — the form the row and journal-line
/// encoders use, so a checkpoint allocates no string per field.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b':' => out.push_str("\\:"),
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => {
                let _ = write!(out, "\\{b:03o}");
            }
        }
    }
}

/// Reverses [`escape_field`].
pub fn unescape_field(s: &str) -> MrResult<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            if i + 1 >= bytes.len() {
                return Err(MrError::Internal);
            }
            match bytes[i + 1] {
                b':' => {
                    out.push(b':');
                    i += 2;
                }
                b'\\' => {
                    out.push(b'\\');
                    i += 2;
                }
                d if d.is_ascii_digit() => {
                    // Three octal digits, read as bytes: a `str` slice here
                    // could land inside a multi-byte character.
                    let val = bytes
                        .get(i + 1..i + 4)
                        .and_then(|oct| {
                            oct.iter().try_fold(0u32, |acc, b| {
                                matches!(b, b'0'..=b'7').then(|| acc * 8 + u32::from(b - b'0'))
                            })
                        })
                        .and_then(|v| u8::try_from(v).ok())
                        .ok_or(MrError::Internal)?;
                    out.push(val);
                    i += 4;
                }
                _ => return Err(MrError::Internal),
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| MrError::Internal)
}

/// Appends one row in the dump format — every value rendered, escaped and
/// colon-separated, no newline. The one row encoding: a table dump line
/// and a snapshot `row:` line both end in it.
pub(crate) fn encode_row(out: &mut String, row: &[Value]) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(':');
        }
        // What `escape_field(&v.render())` produces, without the two
        // temporaries: digits, `-`, `0` and `1` need no escaping.
        match v {
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => escape_into(out, s),
            Value::Bool(b) => out.push(if *b { '1' } else { '0' }),
        }
    }
}

/// Reverses [`encode_row`]: splits `line` at its unescaped colons, then
/// unescapes and parses one field per column as its column's type. Every
/// string comes back as `symbols`' canonical `Arc`, and the row is sized to
/// its arity exactly, since the slab keeps it as it is. Any mismatch is
/// [`MrError::Internal`].
pub(crate) fn decode_row(line: &str, types: &[ColType], symbols: &Symbols) -> MrResult<Vec<Value>> {
    let fields = split_unescaped_colons(line);
    if fields.len() != types.len() {
        return Err(MrError::Internal);
    }
    let mut row = Vec::with_capacity(types.len());
    for (field, &ty) in fields.into_iter().zip(types) {
        // Most fields hold no escape, and unescaping one changes nothing.
        let text = if field.contains('\\') {
            Cow::Owned(unescape_field(field)?)
        } else {
            Cow::Borrowed(field)
        };
        row.push(match ty {
            ColType::Str => Value::Str(symbols.intern(&text)),
            _ => Value::parse(ty, &text).ok_or(MrError::Internal)?,
        });
    }
    Ok(row)
}

/// A table's column types, in schema order — what [`decode_row`] parses
/// against.
pub(crate) fn column_types(table: &Table) -> Vec<ColType> {
    table.schema().columns.iter().map(|c| c.ty).collect()
}

/// Dumps one table to its ASCII representation.
pub fn dump_table(table: &Table) -> String {
    let mut out = String::new();
    for (_, row) in table.iter() {
        encode_row(&mut out, row);
        out.push('\n');
    }
    out
}

/// Dumps every table; returns `relation name -> ASCII contents`.
pub fn mrbackup(db: &Database) -> BTreeMap<String, String> {
    db.table_ids()
        .into_iter()
        .map(|id| (id.name().to_owned(), dump_table(db.at(id))))
        .collect()
}

/// Total size in bytes of a backup (the paper reports ~3.2 MB for the full
/// production database).
pub fn backup_size(backup: &BTreeMap<String, String>) -> usize {
    backup.values().map(|v| v.len()).sum()
}

/// Restores one table's rows from its ASCII dump into an *empty* table of
/// the same schema (the `mrrestore` precondition: "Have you initialized an
/// empty database?").
pub fn restore_table(db: &mut Database, table: TableId, dump: &str) -> MrResult<usize> {
    let now = db.now();
    let symbols = db.symbols().clone();
    let table = db.at_mut(table);
    if !table.is_empty() {
        return Err(MrError::Exists);
    }
    let types = column_types(table);
    let mut count = 0;
    for line in dump.lines().filter(|l| !l.is_empty()) {
        let row = decode_row(line, &types, &symbols)?;
        table.append(row, now)?;
        count += 1;
    }
    Ok(count)
}

/// Restores a full backup into an empty database with the schema already
/// created.
pub fn mrrestore(db: &mut Database, backup: &BTreeMap<String, String>) -> MrResult<usize> {
    let mut total = 0;
    for (name, dump) in backup {
        let table = db.lookup(name).ok_or(MrError::Internal)?;
        total += restore_table(db, table, dump)?;
    }
    Ok(total)
}

pub(crate) fn split_unescaped_colons(line: &str) -> Vec<&str> {
    let bytes = line.as_bytes();
    let mut fields = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b':' => {
                fields.push(&line[start..i]);
                start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    fields.push(&line[start..]);
    fields
}

/// One-file encoding of a full backup, suitable for atomic replacement on
/// durable media.
pub fn encode_backup(backup: &BTreeMap<String, String>) -> String {
    let mut out = String::from("moira-backup:1\n");
    for (table, dump) in backup {
        out.push_str("table:");
        out.push_str(&escape_field(table));
        out.push('\n');
        out.push_str(dump);
        out.push_str("endtable\n");
    }
    out.push_str("end\n");
    out
}

/// Reverses [`encode_backup`]. Every failure is [`MrError::Durability`]: a
/// backup that does not parse in full — including a missing `end` seal —
/// is treated as media corruption, never partially trusted.
pub fn decode_backup(text: &str) -> MrResult<BTreeMap<String, String>> {
    let mut lines = text.lines();
    if lines.next() != Some("moira-backup:1") {
        return Err(MrError::Durability);
    }
    let mut backup = BTreeMap::new();
    let mut sealed = false;
    while let Some(line) = lines.next() {
        if line == "end" {
            sealed = true;
            break;
        }
        let name = line.strip_prefix("table:").ok_or(MrError::Durability)?;
        let name = unescape_field(name).map_err(|_| MrError::Durability)?;
        let mut dump = String::new();
        loop {
            match lines.next() {
                Some("endtable") => break,
                Some(row) => {
                    dump.push_str(row);
                    dump.push('\n');
                }
                None => return Err(MrError::Durability),
            }
        }
        if backup.insert(name, dump).is_some() {
            return Err(MrError::Durability);
        }
    }
    if !sealed || lines.next().is_some() {
        return Err(MrError::Durability);
    }
    Ok(backup)
}

/// On-line backup file names, newest first — `nightly.sh`'s three
/// generations.
pub const BACKUP_GENERATIONS: [&str; 3] = ["backup.1", "backup.2", "backup.3"];
/// Scratch name for the atomic-replace protocol.
pub const BACKUP_TMP: &str = "backup.tmp";

/// The three-generation rotation written to durable [`Media`] with the
/// same crash discipline as the snapshot path: the new backup is written
/// to a temp file and fsynced *before* any rename, the generation shifts
/// are renames (atomic, made durable by the closing directory fsync), and
/// a crash at any point leaves every surviving generation fully decodable
/// — never a torn or half-rotated file.
#[derive(Debug)]
pub struct MediaRotation<M: Media> {
    media: M,
}

impl<M: Media> MediaRotation<M> {
    /// Wraps `media`; existing generations on it are picked up as-is.
    pub fn new(media: M) -> Self {
        Self { media }
    }

    /// Takes a backup of `db` and rotates it in as `backup.1`, shifting
    /// the older generations down and discarding the fourth-oldest.
    pub fn run_nightly(&mut self, db: &Database) -> MrResult<()> {
        // A stale temp file from a crashed previous run is garbage.
        if self.media.read(BACKUP_TMP)?.is_some() {
            self.media.remove(BACKUP_TMP)?;
        }
        let encoded = encode_backup(&mrbackup(db));
        self.media.write_new(BACKUP_TMP, encoded.as_bytes())?;
        self.media.fsync(BACKUP_TMP)?;
        // Shift oldest-first so no generation is overwritten before it has
        // been moved out of the way.
        if self.media.read(BACKUP_GENERATIONS[1])?.is_some() {
            self.media
                .rename(BACKUP_GENERATIONS[1], BACKUP_GENERATIONS[2])?;
        }
        if self.media.read(BACKUP_GENERATIONS[0])?.is_some() {
            self.media
                .rename(BACKUP_GENERATIONS[0], BACKUP_GENERATIONS[1])?;
        }
        self.media.rename(BACKUP_TMP, BACKUP_GENERATIONS[0])?;
        self.media.fsync_dir()
    }

    /// Decodes every generation present on the media, newest first. A
    /// generation that fails to decode is an error — rotation crashes must
    /// never leave a torn file behind.
    pub fn generations(&self) -> MrResult<Vec<BTreeMap<String, String>>> {
        let mut out = Vec::new();
        for name in BACKUP_GENERATIONS {
            if let Some(bytes) = self.media.read(name)? {
                let text = String::from_utf8(bytes).map_err(|_| MrError::Durability)?;
                out.push(decode_backup(&text)?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Relation;
    use crate::storage::{OpKind, SimMedia};
    use moira_common::clock::VClock;

    crate::relations! {
        users {
            LOGIN: str "login" unique,
            UID: int "uid",
            ACTIVE: boolean "active",
            FULLNAME: str "fullname",
        }
    }

    fn sample_db() -> Database {
        let mut db = Database::new(VClock::new());
        create_all_tables(&mut db);
        db
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a:b\\c\nd\te";
        let escaped = escape_field(nasty);
        assert!(!escaped.contains('\n'));
        assert_eq!(escaped, "a\\:b\\\\c\\012d\\011e");
        assert_eq!(unescape_field(&escaped).unwrap(), nasty);
    }

    #[test]
    fn encode_row_equals_escaped_render_of_each_value() {
        let row: Vec<Value> = vec![
            "a:b\\c\nd\u{e9}".into(),
            i64::MIN.into(),
            0.into(),
            true.into(),
            false.into(),
            "".into(),
        ];
        let reference: Vec<String> = row.iter().map(|v| escape_field(&v.render())).collect();
        let mut out = String::from("row:");
        encode_row(&mut out, &row);
        assert_eq!(out, format!("row:{}", reference.join(":")));
    }

    #[test]
    fn unescape_rejects_garbage() {
        assert!(unescape_field("trailing\\").is_err());
        assert!(unescape_field("bad\\x").is_err());
        assert!(unescape_field("short\\01").is_err());
    }

    #[test]
    fn dump_and_restore_round_trip() {
        let mut db = sample_db();
        db.append(
            users::T,
            vec![
                "babette".into(),
                6530.into(),
                true.into(),
                "Harmon C Fowler".into(),
            ],
        )
        .unwrap();
        db.append(
            users::T,
            vec![
                "co:lon".into(),
                6531.into(),
                false.into(),
                "Weird: Name\\".into(),
            ],
        )
        .unwrap();
        let backup = mrbackup(&db);
        assert!(backup_size(&backup) > 0);

        let mut fresh = sample_db();
        let restored = mrrestore(&mut fresh, &backup).unwrap();
        assert_eq!(restored, 2);
        let t = fresh.table(users::T);
        let rows: Vec<_> = t.iter().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r[0] == Value::Str("co:lon".into())
            && r[3] == Value::Str("Weird: Name\\".into())
            && r[2] == Value::Bool(false)));
    }

    #[test]
    fn restore_requires_empty_table() {
        let mut db = sample_db();
        db.append(
            users::T,
            vec!["x".into(), 1.into(), true.into(), "X".into()],
        )
        .unwrap();
        let backup = mrbackup(&db);
        assert_eq!(mrrestore(&mut db, &backup), Err(MrError::Exists));
    }

    #[test]
    fn restore_rejects_wrong_arity() {
        let mut db = sample_db();
        assert_eq!(
            restore_table(&mut db, users::R::ID, "only:two\n"),
            Err(MrError::Internal)
        );
    }

    #[test]
    fn backup_document_round_trip_and_rejects_torn() {
        let mut db = sample_db();
        db.append(
            users::T,
            vec!["co:lon".into(), 1.into(), true.into(), "A\\B".into()],
        )
        .unwrap();
        let backup = mrbackup(&db);
        let text = encode_backup(&backup);
        assert_eq!(decode_backup(&text).unwrap(), backup);
        // Any truncation — a torn write — must fail, not half-parse.
        for cut in 0..text.len() - 1 {
            assert!(decode_backup(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_backup(&format!("{text}junk\n")).is_err());
    }

    #[test]
    fn media_rotation_keeps_three_decodable_generations() {
        let mut db = sample_db();
        let mut rot = MediaRotation::new(SimMedia::new());
        for i in 0..5 {
            db.append(
                users::T,
                vec![format!("u{i}").into(), i.into(), true.into(), "U".into()],
            )
            .unwrap();
            rot.run_nightly(&db).unwrap();
        }
        let gens = rot.generations().unwrap();
        assert_eq!(gens.len(), 3);
        assert_eq!(gens[0]["users"].lines().count(), 5);
        assert_eq!(gens[2]["users"].lines().count(), 3);
    }

    #[test]
    fn crash_between_renames_preserves_old_generations() {
        let mut db = sample_db();
        let media = SimMedia::new();
        let mut rot = MediaRotation::new(media.clone());
        for i in 0..3 {
            db.append(
                users::T,
                vec![format!("u{i}").into(), i.into(), true.into(), "U".into()],
            )
            .unwrap();
            rot.run_nightly(&db).unwrap();
        }
        let before = rot.generations().unwrap();

        // Every rename in the rotation is a kill point: shift 2→3, shift
        // 1→2, and the tmp→1 replacement itself.
        for nth in 0..3 {
            media.arm_crash(OpKind::Rename, nth);
            db.append(
                users::T,
                vec![
                    format!("crash{nth}").into(),
                    (100 + nth as i64).into(),
                    true.into(),
                    "C".into(),
                ],
            )
            .unwrap();
            assert_eq!(
                rot.run_nightly(&db),
                Err(MrError::Durability),
                "rename #{nth}"
            );
            media.power_cycle();
            // The directory fsync never ran, so no rename became durable:
            // the old trio is intact and every file still decodes.
            assert_eq!(rot.generations().unwrap(), before, "rename #{nth}");
        }

        // The next nightly run converges: stale tmp is discarded and the
        // new backup (with all crash-era rows) becomes generation one.
        rot.run_nightly(&db).unwrap();
        let after = rot.generations().unwrap();
        assert_eq!(after.len(), 3);
        assert!(after[0]["users"].contains("crash2"));
        assert_eq!(after[1], before[0]);
    }
}
