//! The journal of successful database changes (§5.2.2).
//!
//! "To improve this \[day-granularity backup\], the journal file kept by the
//! Moira server daemon contains a listing of all successful changes to the
//! database." Entries record who changed what, with which query, and when;
//! replaying a journal over a restored backup recovers the transactions the
//! backup missed.
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

/// An in-memory journal with text serialization.
#[derive(Debug, Default, Clone)]
pub struct Journal {
    entries: Vec<JournalEntry>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn log(&mut self, entry: JournalEntry) {
        self.entries.push(entry);
    }

    /// Appends every entry of `tail`, in order.
    pub fn append(&mut self, tail: Journal) {
        self.entries.extend(tail.entries);
    }

    /// All entries in commit order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled changes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries strictly after `time` — the ones a backup taken at `time`
    /// does not contain.
    pub fn since(&self, time: i64) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter().filter(move |e| e.time > time)
    }

    /// Serializes the whole journal.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            e.write_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a serialized journal.
    pub fn from_text(text: &str) -> MrResult<Journal> {
        let entries = text
            .lines()
            .filter(|l| !l.is_empty())
            .map(JournalEntry::from_line)
            .collect::<MrResult<Vec<_>>>()?;
        Ok(Journal { entries })
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
    fn malformed_lines_rejected() {
        assert!(JournalEntry::from_line("1:only:three").is_err());
        assert!(JournalEntry::from_line("notanint:a:b:c").is_err());
        assert!(Journal::from_text("1:a:b:c\ngarbage").is_err());
    }
}
