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
//! The tail is kept as the journal file's own bytes. A commit's line is
//! encoded once, by [`Journal::record`], and that one encoding is what the
//! tail holds, what the WAL frame carries after its sequence number
//! ([`crate::wal::encode_frame`]) and what a checkpoint appends to the
//! file. Entries are decoded only when a cold reader asks
//! ([`Journal::entries`], [`Journal::since`]).
//!
//! The serialized form reuses the backup escaping so journal lines survive
//! arbitrary argument bytes, and hold no raw newline.

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
        write_line(
            &mut out,
            self.time,
            [&self.who, &self.with, &self.query],
            &self.args,
        );
        out
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

/// Appends the journal line of an entry, given by its fields, to `out`: no
/// newline, and no copy of a field beyond its escaped bytes.
fn write_line(out: &mut String, time: i64, head: [&str; 3], args: &[String]) {
    let _ = write!(out, "{time}");
    for field in head.into_iter().chain(args.iter().map(String::as_str)) {
        out.push(':');
        escape_into(out, field);
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
/// already on media and the tail logged after them, held as the journal
/// file's own bytes.
///
/// The tail is one newline-terminated [`JournalEntry::to_line`] per entry:
/// what the journal file will hold once the tail is sealed, and what a WAL
/// frame carries after its sequence number. Every line is encoded once, by
/// [`Journal::record`]; [`Journal::entries`] and [`Journal::since`] decode on
/// demand for the cold readers (tests, §5.2.2 replay).
///
/// [`Journal::len`] counts every entry ever logged; [`Journal::entries`],
/// [`Journal::since`] and [`Journal::to_text`] cover the tail only.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Journal {
    sealed: JournalMark,
    /// Journal-file lines logged after `sealed`, each ending in `\n`.
    tail: String,
    /// Lines in `tail`.
    count: usize,
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
            ..Journal::default()
        }
    }

    /// Appends the entry `who` made through `with` when `query` with `args`
    /// committed at `time`, and returns its line as stored, without the
    /// newline: the payload a WAL frame carries.
    pub fn record(
        &mut self,
        time: i64,
        who: &str,
        with: &str,
        query: &str,
        args: &[String],
    ) -> &str {
        let start = self.tail.len();
        write_line(&mut self.tail, time, [who, with, query], args);
        self.tail.push('\n');
        self.count += 1;
        &self.tail[start..self.tail.len() - 1]
    }

    /// [`Journal::record`] of an entry already decoded.
    pub fn log(&mut self, e: &JournalEntry) -> &str {
        self.record(e.time, &e.who, &e.with, &e.query, &e.args)
    }

    /// The entries logged after [`Journal::sealed`], in commit order,
    /// decoded from the tail.
    pub fn entries(&self) -> impl Iterator<Item = JournalEntry> + '_ {
        // Every line is the encoder's own output, so every line decodes.
        self.tail
            .lines()
            .filter_map(|line| JournalEntry::from_line(line).ok())
    }

    /// Number of journaled changes, on media or not.
    pub fn len(&self) -> usize {
        self.sealed.entries + self.count
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What is on media, as far as this journal knows.
    pub fn sealed(&self) -> JournalMark {
        self.sealed
    }

    /// The tail's lines past `mark`, when `mark` falls on a line boundary
    /// of the tail: at or past [`Journal::sealed`], at or before
    /// [`Journal::end`], with its entries counting the lines before it.
    pub(crate) fn lines_after(&self, mark: JournalMark) -> Option<&str> {
        let cut = mark.bytes.checked_sub(self.sealed.bytes)?;
        let lines = mark.entries.checked_sub(self.sealed.entries)?;
        let (head, rest) = self.tail.split_at_checked(cut)?;
        let whole = head.is_empty() || head.ends_with('\n');
        (whole && head.matches('\n').count() == lines).then_some(rest)
    }

    /// Drops the tail lines `mark` says are on media. A mark at or below
    /// [`Journal::sealed`], or one that is not a line boundary of the tail
    /// with as many lines before it as the mark counts, drops nothing.
    pub fn trim(&mut self, mark: JournalMark) {
        if mark.entries <= self.sealed.entries {
            return;
        }
        let Some(rest) = self.lines_after(mark) else {
            return;
        };
        let cut = self.tail.len() - rest.len();
        self.tail.drain(..cut);
        // A seal usually covers the whole tail: give its buffer back.
        self.tail.shrink_to_fit();
        self.count -= mark.entries - self.sealed.entries;
        self.sealed = mark;
    }

    /// Where a journal file holding every entry of this journal ends.
    pub fn end(&self) -> JournalMark {
        JournalMark {
            entries: self.len(),
            bytes: self.sealed.bytes + self.tail.len(),
        }
    }

    /// Tail entries strictly after `time` — the ones a backup taken at
    /// `time` does not contain. For the whole history, use this on
    /// [`crate::storage::Storage::history`].
    pub fn since(&self, time: i64) -> impl Iterator<Item = JournalEntry> + '_ {
        self.entries().filter(move |e| e.time > time)
    }

    /// The tail as journal-file text, one line per entry.
    pub fn tail(&self) -> &str {
        &self.tail
    }

    /// [`Journal::tail`], owned.
    pub fn to_text(&self) -> String {
        self.tail.clone()
    }

    /// Parses a serialized journal. Every line must decode; the journal
    /// holds their canonical re-encoding.
    pub fn from_text(text: &str) -> MrResult<Journal> {
        let mut journal = Journal::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            journal.log(&JournalEntry::from_line(line)?);
        }
        Ok(journal)
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
        j.log(&entry(1, "add_user", &["a", "1"]));
        j.log(&entry(2, "delete_user", &["a"]));
        let text = j.to_text();
        let back = Journal::from_text(&text).unwrap();
        assert_eq!(back, j);
        assert!(back.entries().eq(j.entries()));
    }

    #[test]
    fn the_tail_is_the_journal_file_text() {
        let mut j = Journal::new();
        let e = entry(1, "add_user", &["a:b", ""]);
        assert_eq!(j.log(&e), e.to_line(), "log returns the WAL payload");
        assert_eq!(j.tail(), format!("{}\n", e.to_line()));
        assert_eq!(j.end().bytes, j.tail().len());
        // A line with a needless escape decodes; the journal keeps the
        // canonical form, so it equals the one that logged the entry.
        let back = Journal::from_text("1:ops:usermaint:add_user:\\141\\:b:\n").unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn since_filters() {
        let mut j = Journal::new();
        for t in 1..=10 {
            j.log(&entry(t, "q", &[]));
        }
        assert_eq!(j.since(7).count(), 3);
        assert_eq!(j.since(0).count(), 10);
        assert_eq!(j.since(10).count(), 0);
    }

    #[test]
    fn trimming_keeps_the_count_and_drops_the_sealed_tail() {
        let mut j = Journal::new();
        for t in 1..=4 {
            j.log(&entry(t, "q", &["a"]));
        }
        let end = j.end();
        assert_eq!(end.bytes, j.to_text().len());
        let after_two = JournalMark {
            entries: 2,
            bytes: entry(1, "q", &["a"]).to_line().len() * 2 + 2,
        };
        let mid_line = JournalMark {
            entries: 2,
            bytes: after_two.bytes - 1,
        };
        j.trim(mid_line);
        assert_eq!(j.entries().count(), 4, "a cut inside a line drops nothing");
        j.trim(JournalMark {
            entries: 3,
            ..after_two
        });
        assert_eq!(j.entries().count(), 4, "a miscounted cut drops nothing");
        j.trim(JournalMark {
            entries: 5,
            bytes: end.bytes + 10,
        });
        assert_eq!(j.entries().count(), 4, "a cut past the tail drops nothing");
        j.trim(after_two);
        assert_eq!(
            (j.len(), j.entries().count(), j.sealed()),
            (4, 2, after_two)
        );
        assert_eq!(j.entries().next().unwrap().time, 3);
        assert_eq!(j.end(), end, "trimming moves no entry's place in the file");
        j.trim(JournalMark::default());
        assert_eq!(j.entries().count(), 2, "an older mark drops nothing");
        j.trim(end);
        assert!(j.tail().is_empty());
        assert_eq!(j, Journal::sealed_at(end));
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn the_file_reader_wants_whole_lines() {
        let mut j = Journal::new();
        j.log(&entry(1, "add_user", &["a", "1"]));
        j.log(&entry(2, "delete_user", &["a"]));
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
