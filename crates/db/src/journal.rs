//! The journal of successful database changes (§5.2.2).
//!
//! "To improve this \[day-granularity backup\], the journal file kept by the
//! Moira server daemon contains a listing of all successful changes to the
//! database." Entries record who changed what, with which query, and when;
//! replaying a journal over a restored backup recovers the transactions the
//! backup missed.
//!
//! The history lives in a file, not in memory: a durable engine appends
//! every checkpoint's new entries to its journal file
//! ([`crate::storage::JOURNAL_FILE`], one [`JournalEntry::to_line`] per
//! line) and the checkpoint documents record only how far that file
//! reaches ([`JournalMark`]). A [`Journal`] therefore holds the mark of
//! what is already on media plus the *tail* logged after it; its owner
//! drops the tail a seal covered ([`Journal::trim`]). Under `NullStorage`
//! nothing is ever sealed, so the tail is the whole journal.
//! [`crate::storage::Storage::history`] reads the whole history back.
//!
//! The serialized form reuses the backup escaping so journal lines survive
//! arbitrary argument bytes.

// Decodes journal lines from disk: malformed input is an error, never a
// panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt::Write;

use moira_common::errors::{MrError, MrResult};

use crate::backup::{escape_into, split_unescaped_colons, unescape_field};

/// One successful, side-effecting operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Unix time the change committed.
    pub time: i64,
    /// Authenticated principal that made the change.
    pub who: String,
    /// Client program (`modwith`) that made the change.
    pub with: String,
    /// Query handle name (e.g. `update_user_shell`).
    pub query: String,
    /// The query's arguments.
    pub args: Vec<String>,
}

impl JournalEntry {
    /// Serializes the entry to one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    /// [`JournalEntry::to_line`] appended to `out`, no newline.
    pub(crate) fn write_line(&self, out: &mut String) {
        let _ = write!(out, "{}", self.time);
        for field in [&self.who, &self.with, &self.query]
            .into_iter()
            .chain(&self.args)
        {
            out.push(':');
            escape_into(out, field);
        }
    }

    /// Parses one journal line.
    pub fn from_line(line: &str) -> MrResult<JournalEntry> {
        let parts = split_unescaped_colons(line);
        if parts.len() < 4 {
            return Err(MrError::Internal);
        }
        Ok(JournalEntry {
            time: parts[0].parse().map_err(|_| MrError::Internal)?,
            who: unescape_field(parts[1])?,
            with: unescape_field(parts[2])?,
            query: unescape_field(parts[3])?,
            args: parts[4..]
                .iter()
                .map(|p| unescape_field(p))
                .collect::<MrResult<_>>()?,
        })
    }
}

/// How far a journal file reaches: the entries on it and the bytes their
/// lines take. Checkpoint documents record one; recovery truncates the
/// file to its `bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalMark {
    /// Entries on media, counted from the first ever logged.
    pub entries: usize,
    /// Length of the journal file holding exactly those entries.
    pub bytes: usize,
}

/// The journal's in-memory part: the [`JournalMark`] of the entries
/// already on media and the tail logged after them.
///
/// [`Journal::len`] counts every entry ever logged; [`Journal::entries`],
/// [`Journal::since`] and [`Journal::to_text`] cover the tail only.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Journal {
    sealed: JournalMark,
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal whose first `mark.entries` entries are on media and
    /// whose tail is empty: what a recovered checkpoint describes.
    pub fn sealed_at(mark: JournalMark) -> Journal {
        Journal {
            sealed: mark,
            entries: Vec::new(),
        }
    }

    /// Appends an entry and returns it as stored.
    pub fn log(&mut self, entry: JournalEntry) -> &JournalEntry {
        self.entries.push(entry);
        &self.entries[self.entries.len() - 1]
    }

    /// The entries logged after [`Journal::sealed`], in commit order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled changes, on media or not.
    pub fn len(&self) -> usize {
        self.sealed.entries + self.entries.len()
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What is on media, as far as this journal knows.
    pub fn sealed(&self) -> JournalMark {
        self.sealed
    }

    /// Drops the tail entries `mark` says are on media. A mark at or below
    /// [`Journal::sealed`] drops nothing.
    pub fn trim(&mut self, mark: JournalMark) {
        if mark.entries > self.sealed.entries {
            let covered = (mark.entries - self.sealed.entries).min(self.entries.len());
            self.entries.drain(..covered);
            self.sealed = mark;
        }
    }

    /// Where a journal file holding every entry of this journal would end.
    pub fn end(&self) -> JournalMark {
        let mut line = String::new();
        let mut bytes = self.sealed.bytes;
        for e in &self.entries {
            line.clear();
            e.write_line(&mut line);
            bytes += line.len() + 1;
        }
        JournalMark {
            entries: self.len(),
            bytes,
        }
    }

    /// Tail entries strictly after `time` — the ones a backup taken at
    /// `time` does not contain. For the whole history, use this on
    /// [`crate::storage::Storage::history`].
    pub fn since(&self, time: i64) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter().filter(move |e| e.time > time)
    }

    /// Serializes the tail, one line per entry: the journal file's format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_lines(&mut out, &self.entries);
        out
    }

    /// Parses a serialized journal.
    pub fn from_text(text: &str) -> MrResult<Journal> {
        let entries = text
            .lines()
            .filter(|l| !l.is_empty())
            .map(JournalEntry::from_line)
            .collect::<MrResult<Vec<_>>>()?;
        Ok(Journal {
            sealed: JournalMark::default(),
            entries,
        })
    }

    /// Parses the bytes of a journal file, which must end on a whole line.
    /// Anything else is `MR_DURABILITY`, never a panic.
    pub fn from_file(bytes: &[u8]) -> MrResult<Journal> {
        let text = std::str::from_utf8(bytes).map_err(|_| MrError::Durability)?;
        if !text.is_empty() && !text.ends_with('\n') {
            return Err(MrError::Durability); // a line was cut short
        }
        Journal::from_text(text).map_err(|_| MrError::Durability)
    }
}

/// Appends `entries` to `out` as journal-file lines.
pub(crate) fn write_lines(out: &mut String, entries: &[JournalEntry]) {
    for e in entries {
        e.write_line(out);
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: i64, q: &str, args: &[&str]) -> JournalEntry {
        JournalEntry {
            time: t,
            who: "ops".into(),
            with: "usermaint".into(),
            query: q.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn line_round_trip() {
        let e = entry(100, "update_user_shell", &["babette", "/bin/csh"]);
        let line = e.to_line();
        assert_eq!(JournalEntry::from_line(&line).unwrap(), e);
    }

    #[test]
    fn nasty_args_survive() {
        let e = JournalEntry {
            time: 5,
            who: "a:b".into(),
            with: "c\\d".into(),
            query: "q".into(),
            args: vec!["x:y\nz".into(), String::new()],
        };
        let round = JournalEntry::from_line(&e.to_line()).unwrap();
        assert_eq!(round, e);
    }

    #[test]
    fn zero_arg_queries() {
        let e = entry(9, "trigger_dcm", &[]);
        let line = e.to_line();
        let parsed = JournalEntry::from_line(&line).unwrap();
        // A trailing empty field parses as one empty arg; normalize check.
        assert_eq!(parsed.query, "trigger_dcm");
        assert_eq!(parsed.time, 9);
    }

    #[test]
    fn journal_text_round_trip() {
        let mut j = Journal::new();
        j.log(entry(1, "add_user", &["a", "1"]));
        j.log(entry(2, "delete_user", &["a"]));
        let text = j.to_text();
        let back = Journal::from_text(&text).unwrap();
        assert_eq!(back.entries(), j.entries());
    }

    #[test]
    fn since_filters() {
        let mut j = Journal::new();
        for t in 1..=10 {
            j.log(entry(t, "q", &[]));
        }
        assert_eq!(j.since(7).count(), 3);
        assert_eq!(j.since(0).count(), 10);
        assert_eq!(j.since(10).count(), 0);
    }

    #[test]
    fn trimming_keeps_the_count_and_drops_the_sealed_tail() {
        let mut j = Journal::new();
        for t in 1..=4 {
            j.log(entry(t, "q", &["a"]));
        }
        let end = j.end();
        assert_eq!(end.bytes, j.to_text().len());
        let after_two = JournalMark {
            entries: 2,
            bytes: entry(1, "q", &["a"]).to_line().len() * 2 + 2,
        };
        j.trim(after_two);
        assert_eq!((j.len(), j.entries().len(), j.sealed()), (4, 2, after_two));
        assert_eq!(j.entries()[0].time, 3);
        assert_eq!(j.end(), end, "trimming moves no entry's place in the file");
        j.trim(JournalMark::default());
        assert_eq!(j.entries().len(), 2, "an older mark drops nothing");
        j.trim(end);
        assert!(j.entries().is_empty());
        assert_eq!(j, Journal::sealed_at(end));
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn the_file_reader_wants_whole_lines() {
        let mut j = Journal::new();
        j.log(entry(1, "add_user", &["a", "1"]));
        j.log(entry(2, "delete_user", &["a"]));
        let text = j.to_text();
        assert_eq!(Journal::from_file(text.as_bytes()), Ok(j));
        assert_eq!(Journal::from_file(b""), Ok(Journal::new()));
        assert_eq!(
            Journal::from_file(&text.as_bytes()[..text.len() - 1]),
            Err(MrError::Durability)
        );
        assert_eq!(Journal::from_file(b"\xff\n"), Err(MrError::Durability));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(JournalEntry::from_line("1:only:three").is_err());
        assert!(JournalEntry::from_line("notanint:a:b:c").is_err());
        assert!(Journal::from_text("1:a:b:c\ngarbage").is_err());
    }
}
