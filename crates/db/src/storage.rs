//! Durable storage backends: the WAL + snapshot engine and its media seam.
//!
//! The paper's server kept its durability in INGRES plus nightly ASCII
//! dumps and a journal file (§5.2.2). This module closes the gap between
//! "no more than a day's transactions" and "no committed transaction":
//! every committed mutation is framed into a write-ahead log
//! ([`crate::wal`]), group-committed with one fsync per batch, and
//! periodically sealed into an atomic checkpoint document
//! ([`crate::snapshot`]): a delta carrying the rows that changed since the
//! last one, or — first time, and whenever the deltas have cost as much as
//! it did — the base image they all extend. The change history is §5.2.2's
//! journal file ([`JOURNAL_FILE`]): every checkpoint appends the entries
//! logged since the last one and records only where the file then ends, so
//! neither a checkpoint nor a boot touches old history, and
//! [`Storage::history`] reads it back. The in-memory [`Journal`] already
//! holds those entries as journal-file lines: [`Storage::append`] frames
//! the line [`Journal::record`] wrote, and a checkpoint appends the tail's
//! bytes past the file's mark without re-encoding them. DESIGN.md
//! "Durability" has the file layout, the chain rule and the crash argument
//! for each gap between media calls.
//!
//! Two seams keep the engine testable:
//!
//! - [`Media`] abstracts the byte-level operations (append, fsync, atomic
//!   rename, directory fsync). [`DiskMedia`] maps them onto `std::fs`;
//!   [`SimMedia`] keeps a durable/volatile split in memory and can be
//!   armed to *crash* — partially apply an operation, then fail
//!   everything until "reboot" — which is what the recovery torture tests
//!   drive.
//! - [`Storage`] abstracts the commit-time hooks the server calls.
//!   [`NullStorage`] is the historical in-memory behavior (every call a
//!   no-op); [`DurableEngine`] is the real thing.
//!
//! Nothing in this module panics on bad bytes or failed I/O: corruption
//! and media failure surface as `MR_DURABILITY`, and a torn WAL tail is
//! truncated, never trusted.

// Recovery runs on whatever bytes a crash left behind; a panic here makes
// the database unbootable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use moira_common::errors::{MrError, MrResult};
use moira_obs::{Counter, Histo, Registry};
use parking_lot::Mutex;

use crate::database::{Database, GenCursor};
use crate::journal::{Journal, JournalEntry, JournalMark};
use crate::snapshot::{decode_delta, decode_snapshot, encode_base, encode_delta, SnapshotImage};
use crate::wal::{encode_frame, scan_frames, WalScan};

/// WAL file name inside the storage root.
pub const WAL_FILE: &str = "wal.log";
/// Sealed base snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.moira";
/// Temporary snapshot name; only ever visible after a crash mid-write.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// The journal file: every sealed [`JournalEntry`], one line each, in
/// commit order. Only appended to, and cut back only to where the
/// recovered chain says it ends.
pub const JOURNAL_FILE: &str = "journal";

/// File name of the `k`-th delta (`k` from 1) of the chain over
/// [`SNAPSHOT_FILE`]. [`Media`] cannot list a directory, so recovery probes
/// `k = 1, 2, …` until a file is missing.
pub fn delta_file(k: u64) -> String {
    format!("snapshot.delta.{k}")
}

fn utf8(bytes: &[u8]) -> MrResult<&str> {
    std::str::from_utf8(bytes).map_err(|_| MrError::Durability)
}

// ---------------------------------------------------------------------------
// Media

/// Byte-level operations a durable engine needs from its backing store.
///
/// The contract mirrors POSIX durability rules: appended bytes are durable
/// only after `fsync(file)`; a `rename` is durable only after `fsync_dir`;
/// `write_new` contents are durable only after `fsync` of that file.
pub trait Media: Send + Sync {
    /// Appends bytes to the (possibly new) file.
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()>;
    /// Forces the file's current contents to stable storage.
    fn fsync(&mut self, file: &str) -> MrResult<()>;
    /// Reads the whole file; `Ok(None)` when it does not exist.
    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>>;
    /// Creates (or replaces) a file with the given contents.
    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&mut self, from: &str, to: &str) -> MrResult<()>;
    /// Forces directory entries (renames, removals) to stable storage.
    fn fsync_dir(&mut self) -> MrResult<()>;
    /// Removes a file if it exists.
    fn remove(&mut self, file: &str) -> MrResult<()>;
    /// Truncates a file to `len` bytes, creating it empty if missing.
    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()>;
}

/// [`Media`] over a real directory via `std::fs`.
#[derive(Debug)]
pub struct DiskMedia {
    root: PathBuf,
}

impl DiskMedia {
    /// Opens (creating if needed) a storage directory.
    pub fn open(root: impl Into<PathBuf>) -> MrResult<DiskMedia> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|_| MrError::Durability)?;
        Ok(DiskMedia { root })
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }
}

impl Media for DiskMedia {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(file))
            .map_err(|_| MrError::Durability)?;
        f.write_all(bytes).map_err(|_| MrError::Durability)
    }

    fn fsync(&mut self, file: &str) -> MrResult<()> {
        fs::File::open(self.path(file))
            .and_then(|f| f.sync_all())
            .map_err(|_| MrError::Durability)
    }

    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        match fs::read(self.path(file)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(_) => Err(MrError::Durability),
        }
    }

    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        fs::write(self.path(file), bytes).map_err(|_| MrError::Durability)
    }

    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        fs::rename(self.path(from), self.path(to)).map_err(|_| MrError::Durability)
    }

    fn fsync_dir(&mut self) -> MrResult<()> {
        fs::File::open(&self.root)
            .and_then(|d| d.sync_all())
            .map_err(|_| MrError::Durability)
    }

    fn remove(&mut self, file: &str) -> MrResult<()> {
        match fs::remove_file(self.path(file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(_) => Err(MrError::Durability),
        }
    }

    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false) // set_len below does the (partial) truncation
            .open(self.path(file))
            .and_then(|f| f.set_len(len as u64))
            .map_err(|_| MrError::Durability)
    }
}

// ---------------------------------------------------------------------------
// SimMedia — in-memory media with a durable/volatile split and crash points

/// The media operation classes a crash point can be armed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A WAL append (`Media::append`).
    Append,
    /// A file fsync (`Media::fsync`).
    Fsync,
    /// An atomic rename (`Media::rename`).
    Rename,
}

#[derive(Debug, Default, Clone)]
struct SimState {
    /// What survives a crash: contents as of the last relevant fsync.
    durable: BTreeMap<String, Vec<u8>>,
    /// The live view: everything written, synced or not.
    volatile: BTreeMap<String, Vec<u8>>,
    /// Renames applied to the live view but not yet directory-synced,
    /// in application order.
    pending_renames: Vec<(String, String)>,
    /// Removes applied to the live view but not yet directory-synced.
    pending_removes: Vec<String>,
    /// Armed crash point: fail the `n`-th upcoming op of this kind.
    armed: Option<(OpKind, u64)>,
    /// After a crash fires every op fails until [`SimMedia::power_cycle`].
    dead: bool,
}

impl SimState {
    /// True when an op of `kind` should crash now (decrements the fuse).
    fn should_crash(&mut self, kind: OpKind) -> bool {
        match &mut self.armed {
            Some((k, n)) if *k == kind => {
                if *n == 0 {
                    self.armed = None;
                    self.dead = true;
                    true
                } else {
                    *n -= 1;
                    false
                }
            }
            _ => false,
        }
    }
}

/// In-memory [`Media`] tracking what is durable versus merely written,
/// with armable crash points. Cloning shares the underlying store, so
/// tests keep a handle while the engine owns a boxed clone.
#[derive(Debug, Clone, Default)]
pub struct SimMedia {
    state: Arc<Mutex<SimState>>,
}

impl SimMedia {
    /// An empty simulated store.
    pub fn new() -> SimMedia {
        SimMedia::default()
    }

    /// Arms a crash at the `nth` (0-based) upcoming operation of `kind`:
    /// that operation partially applies, then every operation fails until
    /// [`SimMedia::power_cycle`].
    pub fn arm_crash(&self, kind: OpKind, nth: u64) {
        let mut st = self.state.lock();
        st.armed = Some((kind, nth));
    }

    /// Simulates reboot after power loss: the volatile view is discarded,
    /// un-synced renames/removes are lost, and the media accepts
    /// operations again.
    pub fn power_cycle(&self) {
        let mut st = self.state.lock();
        st.volatile = st.durable.clone();
        st.pending_renames.clear();
        st.pending_removes.clear();
        st.armed = None;
        st.dead = false;
    }

    /// True once an armed crash point has fired (and the media is dead
    /// until the next [`SimMedia::power_cycle`]).
    pub fn crashed(&self) -> bool {
        self.state.lock().dead
    }

    /// The durable contents of a file — what a post-crash reboot reads.
    pub fn durable_bytes(&self, file: &str) -> Option<Vec<u8>> {
        self.state.lock().durable.get(file).cloned()
    }
}

impl Media for SimMedia {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        if st.should_crash(OpKind::Append) {
            // Torn write: only half the bytes reach the (volatile) file,
            // and nothing was fsynced — the classic crash-during-append.
            let half = &bytes[..bytes.len() / 2];
            st.volatile.entry(file.to_owned()).or_default().extend(half);
            return Err(MrError::Durability);
        }
        st.volatile
            .entry(file.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn fsync(&mut self, file: &str) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        let live = st.volatile.get(file).cloned().unwrap_or_default();
        if st.should_crash(OpKind::Fsync) {
            // Crash mid-fsync: the durable file lands an arbitrary way
            // between its old state and the live one — half the appended
            // tail when growing, half the cut when the fsync follows a
            // truncation.
            let old = st.durable.get(file).cloned().unwrap_or_default();
            let torn = if live.len() >= old.len() {
                live[..old.len() + (live.len() - old.len()) / 2].to_vec()
            } else {
                old[..live.len() + (old.len() - live.len()) / 2].to_vec()
            };
            st.durable.insert(file.to_owned(), torn);
            return Err(MrError::Durability);
        }
        st.durable.insert(file.to_owned(), live);
        Ok(())
    }

    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        let st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        Ok(st.volatile.get(file).cloned())
    }

    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        st.volatile.insert(file.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        if st.should_crash(OpKind::Rename) {
            // Crash mid-rename: the durable directory never sees it.
            return Err(MrError::Durability);
        }
        let Some(bytes) = st.volatile.remove(from) else {
            return Err(MrError::Durability);
        };
        st.volatile.insert(to.to_owned(), bytes);
        st.pending_renames.push((from.to_owned(), to.to_owned()));
        Ok(())
    }

    fn fsync_dir(&mut self) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        let renames = std::mem::take(&mut st.pending_renames);
        for (from, to) in renames {
            if let Some(bytes) = st.durable.remove(&from) {
                st.durable.insert(to, bytes);
            }
        }
        let removes = std::mem::take(&mut st.pending_removes);
        for file in removes {
            st.durable.remove(&file);
        }
        Ok(())
    }

    fn remove(&mut self, file: &str) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        st.volatile.remove(file);
        st.pending_removes.push(file.to_owned());
        Ok(())
    }

    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(MrError::Durability);
        }
        st.volatile
            .entry(file.to_owned())
            .or_default()
            .truncate(len);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Storage

/// Commit-time hooks the server drives. Implementations must never panic:
/// a durability failure is an error the caller decides how to survive.
pub trait Storage: Send + Sync {
    /// Implementation name, for logs and statistics.
    fn kind(&self) -> &'static str;

    /// Records one committed mutation, given as its journal line
    /// ([`Journal::record`]'s return). May fsync eagerly if the group
    /// commit byte threshold is reached.
    fn append(&mut self, line: &str, now: i64) -> MrResult<()>;

    /// Group-commit tick: fsync buffered appends if the flush interval
    /// has elapsed (or `flush_interval_secs` is 0). Returns whether a
    /// flush happened.
    fn maybe_flush(&mut self, now: i64) -> MrResult<bool>;

    /// Unconditionally fsyncs any buffered appends.
    fn flush(&mut self) -> MrResult<()>;

    /// True when enough has been appended that the caller should cut a
    /// snapshot.
    fn wants_snapshot(&self) -> bool;

    /// Seals `db` + `journal` into an atomic checkpoint — what changed
    /// since the last one, when the backend can tell; otherwise the whole
    /// image — and truncates the sealed WAL prefix. `journal` must extend
    /// what is already sealed: [`Storage::sealed_journal`] is one of its
    /// tail's line boundaries.
    fn snapshot(&mut self, db: &Database, journal: &Journal) -> MrResult<()>;

    /// How much of the journal the backend has made durable. The journal's
    /// owner drops the entries this covers ([`Journal::trim`]);
    /// [`NullStorage`] seals nothing, so its journals keep every entry.
    fn sealed_journal(&self) -> JournalMark;

    /// The whole history: the sealed journal read back from media, then the
    /// entries of `journal`'s tail past it. [`Journal::since`] on the result
    /// is §5.2.2's replay input. `MR_DURABILITY` when the media does not hold
    /// what the last checkpoint recorded.
    fn history(&self, journal: &Journal) -> MrResult<Journal>;

    /// Appends buffered (not yet fsynced) — 0 means everything committed
    /// so far is durable.
    fn pending_entries(&self) -> usize;
}

/// The no-op backend: the historical purely-in-memory server.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStorage;

impl Storage for NullStorage {
    fn kind(&self) -> &'static str {
        "null"
    }

    fn append(&mut self, _line: &str, _now: i64) -> MrResult<()> {
        Ok(())
    }

    fn maybe_flush(&mut self, _now: i64) -> MrResult<bool> {
        Ok(false)
    }

    fn flush(&mut self) -> MrResult<()> {
        Ok(())
    }

    fn wants_snapshot(&self) -> bool {
        false
    }

    fn snapshot(&mut self, _db: &Database, _journal: &Journal) -> MrResult<()> {
        Ok(())
    }

    fn sealed_journal(&self) -> JournalMark {
        JournalMark::default()
    }

    fn history(&self, journal: &Journal) -> MrResult<Journal> {
        // Entries sealed elsewhere are on media this backend cannot read.
        if journal.sealed().entries > 0 {
            return Err(MrError::Durability);
        }
        Ok(journal.clone())
    }

    fn pending_entries(&self) -> usize {
        0
    }
}

/// Group-commit and snapshot policy for a [`DurableEngine`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Seconds between group-commit fsyncs; 0 flushes on every
    /// [`Storage::maybe_flush`] call.
    pub flush_interval_secs: i64,
    /// Byte threshold that forces an eager fsync from inside
    /// [`Storage::append`].
    pub flush_bytes: usize,
    /// Cut a snapshot after this many appends; 0 disables automatic
    /// snapshots (explicit [`Storage::snapshot`] calls still work).
    pub snapshot_every: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            flush_interval_secs: 0,
            flush_bytes: 256 * 1024,
            snapshot_every: 1024,
        }
    }
}

/// What [`DurableEngine::open`] recovered from the media.
#[derive(Debug, Clone)]
pub struct RecoveredImage {
    /// The sealed snapshot, if one had been cut.
    pub snapshot: Option<SnapshotImage>,
    /// WAL entries *after* the snapshot seal, in commit order.
    pub wal: Vec<JournalEntry>,
    /// What the WAL scan saw (torn tail, clean frame count).
    pub scan: WalScan,
}

#[derive(Clone)]
struct EngineObs {
    registry: Registry,
    appends: Counter,
    fsyncs: Counter,
    group_commit_size: Histo,
    deltas: Counter,
    compactions: Counter,
    snapshot_bytes: Histo,
}

/// The checkpoint chain as the engine last made it durable: what the next
/// delta is cut against, and what the chain has cost since its base.
#[derive(Debug)]
struct Seal {
    /// Epoch of the database the chain describes.
    epoch: u64,
    /// WAL sequence the chain's last document seals: the next delta's
    /// `prev`.
    seq: u64,
    /// `table -> generation` at that document. Owned names, because `open`
    /// rebuilds the seal from disk bytes and those cannot mint the
    /// `&'static str` keys of a [`GenCursor`]; [`Seal::cursor`] resolves
    /// them against the live database at each cut.
    gens: BTreeMap<String, u64>,
    /// Delta files in the chain; the next is `delta_file(deltas + 1)`.
    deltas: u64,
    /// Size of the base document.
    base_bytes: usize,
    /// Summed sizes of the chain's deltas.
    delta_bytes: usize,
}

/// What [`Seal::plan`] decided the next checkpoint is.
enum Checkpoint {
    /// Nothing was committed since the seal: there is nothing to write.
    Nothing,
    /// The rows that moved past this cursor.
    Delta(GenCursor),
    /// The whole image.
    Base,
}

impl Seal {
    /// The seal after a document of `bytes` bytes sealing `seq` was made
    /// durable: the chain's next delta when `chain` names the seal it
    /// extends, otherwise a fresh base.
    fn after(db: &Database, seq: u64, bytes: usize, chain: Option<&Seal>) -> Seal {
        Seal {
            epoch: db.epoch(),
            seq,
            gens: db
                .table_ids()
                .into_iter()
                .map(|id| (id.name().to_owned(), db.at(id).generation()))
                .collect(),
            deltas: chain.map_or(0, |c| c.deltas + 1),
            base_bytes: chain.map_or(bytes, |c| c.base_bytes),
            delta_bytes: chain.map_or(0, |c| c.delta_bytes + bytes),
        }
    }

    /// The seal as a cursor over `db`, when a delta against it means
    /// anything: the same tables, the same epoch and no generation moved
    /// backwards ([`GenCursor::valid_for`]).
    fn cursor(&self, db: &Database) -> Option<GenCursor> {
        let ids = db.table_ids();
        if ids.len() != self.gens.len() {
            return None;
        }
        let gens = ids
            .into_iter()
            .map(|id| self.gens.get(id.name()).map(|&gen| (id, gen)))
            .collect::<Option<BTreeMap<_, _>>>()?;
        let cursor = GenCursor {
            epoch: self.epoch,
            gens,
        };
        cursor.valid_for(db).then_some(cursor)
    }

    /// Chooses the checkpoint that seals `seq`. A delta must move the
    /// sequence forward: links are matched by sequence number, so a chain
    /// whose numbers strictly increase can never pick up a stale file left
    /// over from the chain before the last compaction. The base is
    /// rewritten once the deltas since it have cost as much as it did,
    /// which bounds both the write amplification (2x, amortised) and what
    /// recovery folds, without a setting. `journaled` says whether entries
    /// were logged since the seal.
    fn plan(&self, db: &Database, seq: u64, journaled: bool) -> Checkpoint {
        let Some(cursor) = self.cursor(db) else {
            return Checkpoint::Base;
        };
        if seq == self.seq && cursor.unchanged_in(db) && !journaled {
            Checkpoint::Nothing
        } else if seq > self.seq && self.delta_bytes < self.base_bytes {
            Checkpoint::Delta(cursor)
        } else {
            Checkpoint::Base
        }
    }
}

/// The durable backend: CRC-framed WAL with group commit plus atomic
/// checkpoints (temp file + rename + directory fsync) — a base image and
/// the chain of deltas over it — built on a [`Media`].
pub struct DurableEngine {
    media: Box<dyn Media>,
    config: GroupCommitConfig,
    /// Sequence number the next appended frame gets.
    next_seq: u64,
    /// Appends since the last fsync.
    pending: usize,
    /// Bytes appended since the last fsync.
    pending_bytes: usize,
    /// Clock reading at the last interval-driven flush.
    last_flush: i64,
    /// Appends since the last snapshot seal.
    since_snapshot: u64,
    /// The chain on disk, when the engine knows it: recovered by `open`,
    /// replaced by every checkpoint, forgotten when one fails part-way.
    sealed: Option<Seal>,
    /// Where the journal file ends by the newest chain the disk may hold:
    /// recovered by `open`, moved on by each checkpoint's rename.
    journal: JournalMark,
    /// The journal file may hold bytes past `journal`: a checkpoint
    /// appended and did not reach its rename. The next one cuts them.
    journal_torn: bool,
    /// What `open` recovered (telemetry only; the image itself is handed
    /// to the caller).
    scan: WalScan,
    obs: Option<EngineObs>,
}

impl DurableEngine {
    /// Opens the engine on a media, recovering any previous state.
    ///
    /// Recovery order: discard a leftover `snapshot.tmp` (a crash before
    /// the rename), decode the base if present and fold in its delta chain
    /// (`snapshot.delta.1`, `.2`, … while each file's `prev:` is the
    /// sequence the image has reached; the first that does not continue
    /// the chain is a leftover of an earlier one and ends it), scan the WAL
    /// tolerating a torn tail (the file is truncated to its clean prefix),
    /// and keep only frames the chain does not already cover. The journal
    /// file is cut back to where the chain says it ends, which drops the
    /// lines of a checkpoint that never became durable (the WAL still holds
    /// their entries); it is not read.
    pub fn open(
        mut media: Box<dyn Media>,
        config: GroupCommitConfig,
    ) -> MrResult<(DurableEngine, Option<RecoveredImage>)> {
        media.remove(SNAPSHOT_TMP)?;
        let mut sealed = None;
        let snapshot = match media.read(SNAPSHOT_FILE)? {
            Some(bytes) => {
                let mut image = decode_snapshot(utf8(&bytes)?)?;
                let (mut deltas, mut delta_bytes) = (0, 0);
                while let Some(bytes) = media.read(&delta_file(deltas + 1))? {
                    // A delta that does not decode may be in the chain, and
                    // skipping it would drop commits the WAL no longer has.
                    let (prev, delta) = decode_delta(utf8(&bytes)?)?;
                    if prev != image.seq {
                        break;
                    }
                    image.fold(delta)?;
                    deltas += 1;
                    delta_bytes += bytes.len();
                }
                sealed = Some(Seal {
                    epoch: image.epoch,
                    seq: image.seq,
                    gens: image.generations(),
                    deltas,
                    base_bytes: bytes.len(),
                    delta_bytes,
                });
                Some(image)
            }
            None => None,
        };
        let journal = snapshot
            .as_ref()
            .map_or(JournalMark::default(), |s| s.journal.sealed());
        media.truncate(JOURNAL_FILE, journal.bytes)?;
        let sealed_seq = snapshot.as_ref().map(|s| s.seq).unwrap_or(0);
        let wal_bytes = media.read(WAL_FILE)?;
        let had_state = snapshot.is_some() || wal_bytes.is_some();
        let (frames, scan) = scan_frames(wal_bytes.as_deref().unwrap_or(&[]));
        if scan.torn_tail_truncations > 0 {
            media.truncate(WAL_FILE, scan.clean_len)?;
            media.fsync(WAL_FILE)?;
        }
        let mut next_seq = sealed_seq.saturating_add(1);
        let mut wal = Vec::new();
        for (seq, entry) in frames {
            if seq > sealed_seq {
                wal.push(entry);
            }
            next_seq = next_seq.max(seq.saturating_add(1));
        }
        let engine = DurableEngine {
            media,
            config,
            next_seq,
            pending: 0,
            pending_bytes: 0,
            last_flush: 0,
            since_snapshot: 0,
            sealed,
            journal,
            journal_torn: false,
            scan,
            obs: None,
        };
        let recovered = had_state.then_some(RecoveredImage {
            snapshot,
            wal,
            scan,
        });
        Ok((engine, recovered))
    }

    /// Wires the engine's statistics into an observability registry and
    /// retro-credits what `open` recovered.
    pub fn set_obs(&mut self, registry: &Registry) {
        let obs = EngineObs {
            registry: registry.clone(),
            appends: registry.counter("db.wal.appends"),
            fsyncs: registry.counter("db.wal.fsyncs"),
            group_commit_size: registry.histogram("db.wal.group_commit_size"),
            deltas: registry.counter("db.snapshot.deltas"),
            compactions: registry.counter("db.snapshot.compactions"),
            snapshot_bytes: registry.histogram("db.snapshot.bytes"),
        };
        registry
            .counter("db.wal.recovered_frames")
            .add(self.scan.recovered_frames);
        registry
            .counter("db.wal.torn_tail_truncations")
            .add(self.scan.torn_tail_truncations);
        self.obs = Some(obs);
    }

    fn fsync_wal(&mut self) -> MrResult<()> {
        self.media.fsync(WAL_FILE)?;
        if let Some(obs) = &self.obs {
            obs.fsyncs.inc();
            obs.group_commit_size.record(self.pending as u64);
        }
        self.pending = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// `journal`'s lines past the journal file's end, as the file will hold
    /// them; `MR_DURABILITY` when `journal` does not extend the file.
    fn unsealed<'j>(&self, journal: &'j Journal) -> MrResult<&'j str> {
        journal.lines_after(self.journal).ok_or(MrError::Durability)
    }

    /// Appends a checkpoint's journal lines at the end the chain records
    /// and makes them durable.
    fn append_journal(&mut self, lines: &str) -> MrResult<()> {
        if self.journal_torn {
            self.media.truncate(JOURNAL_FILE, self.journal.bytes)?;
            self.journal_torn = false;
        }
        if lines.is_empty() {
            return Ok(());
        }
        self.journal_torn = true;
        self.media.append(JOURNAL_FILE, lines.as_bytes())?;
        self.media.fsync(JOURNAL_FILE)
    }
}

impl Storage for DurableEngine {
    fn kind(&self) -> &'static str {
        "durable"
    }

    fn append(&mut self, line: &str, now: i64) -> MrResult<()> {
        let frame = encode_frame(self.next_seq, line);
        self.media.append(WAL_FILE, &frame)?;
        self.next_seq = self.next_seq.saturating_add(1);
        self.pending += 1;
        self.pending_bytes += frame.len();
        self.since_snapshot += 1;
        if let Some(obs) = &self.obs {
            obs.appends.inc();
        }
        if self.pending_bytes >= self.config.flush_bytes {
            self.fsync_wal()?;
            self.last_flush = now;
        }
        Ok(())
    }

    fn maybe_flush(&mut self, now: i64) -> MrResult<bool> {
        if self.pending == 0 {
            self.last_flush = now;
            return Ok(false);
        }
        if now.saturating_sub(self.last_flush) >= self.config.flush_interval_secs {
            self.fsync_wal()?;
            self.last_flush = now;
            return Ok(true);
        }
        Ok(false)
    }

    fn flush(&mut self) -> MrResult<()> {
        if self.pending > 0 {
            self.fsync_wal()?;
        }
        Ok(())
    }

    fn wants_snapshot(&self) -> bool {
        self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every
    }

    fn snapshot(&mut self, db: &Database, journal: &Journal) -> MrResult<()> {
        let span = self
            .obs
            .as_ref()
            .map(|o| o.registry.span("db.snapshot.duration"));
        // Make every frame the snapshot seals durable first: the seal seq
        // asserts "everything up to here is in the snapshot", and a sealed
        // WAL must never be ahead of the durable one.
        self.flush()?;
        let seq = self.next_seq.saturating_sub(1);
        let lines = self.unsealed(journal)?;
        let mark = journal.end();
        // Forgotten until the new document is durable: if a call below
        // fails the disk may hold either chain, and the base the next
        // checkpoint then writes is right whichever it is.
        let old = self.sealed.take();
        let plan = old.as_ref().map_or(Checkpoint::Base, |seal| {
            seal.plan(db, seq, mark.entries != self.journal.entries)
        });
        if matches!(plan, Checkpoint::Nothing) {
            self.sealed = old;
            self.since_snapshot = 0;
            return Ok(());
        }
        // `chain` is the seal a delta extends, `None` for a base.
        let (chain, file, doc) = match (&plan, &old) {
            (Checkpoint::Delta(cursor), Some(seal)) => (
                Some(seal),
                delta_file(seal.deltas + 1),
                encode_delta(db, mark, cursor, seal.seq, seq),
            ),
            _ => (None, SNAPSHOT_FILE.to_owned(), encode_base(db, mark, seq)),
        };
        self.media.write_new(SNAPSHOT_TMP, doc.as_bytes())?;
        // The lines are durable before the document naming their end is
        // renamed into the chain: a chain never reaches past its file.
        self.append_journal(lines)?;
        self.media.fsync(SNAPSHOT_TMP)?;
        self.media.rename(SNAPSHOT_TMP, &file)?;
        // From here the disk may hold the new chain: a later checkpoint
        // must append after these lines, never cut them.
        self.journal = mark;
        self.journal_torn = false;
        self.media.fsync_dir()?;
        self.sealed = Some(Seal::after(db, seq, doc.len(), chain));
        // A crash from here on is harmless: stale WAL frames carry seqs
        // the chain already covers, so recovery filters them.
        self.media.truncate(WAL_FILE, 0)?;
        self.media.fsync(WAL_FILE)?;
        self.since_snapshot = 0;
        self.pending = 0;
        self.pending_bytes = 0;
        // A new base orphans the deltas of the chain it replaces. They are
        // harmless — each names a `prev:` below the new base's sequence, so
        // recovery stops at the first — and go last, off the crash-critical
        // part of the sequence.
        let replaced = match chain {
            Some(_) => 0,
            None => old.as_ref().map_or(0, |seal| seal.deltas),
        };
        for k in 1..=replaced {
            self.media.remove(&delta_file(k))?;
        }
        if replaced > 0 {
            self.media.fsync_dir()?;
        }
        if let Some(obs) = &self.obs {
            obs.snapshot_bytes.record(doc.len() as u64);
            if chain.is_some() {
                obs.deltas.inc();
            } else if replaced > 0 {
                obs.compactions.inc();
            }
        }
        if let Some(span) = span {
            span.finish();
        }
        Ok(())
    }

    fn pending_entries(&self) -> usize {
        self.pending
    }

    fn sealed_journal(&self) -> JournalMark {
        self.journal
    }

    fn history(&self, journal: &Journal) -> MrResult<Journal> {
        let tail = self.unsealed(journal)?;
        let mut file = self.media.read(JOURNAL_FILE)?.unwrap_or_default();
        // The sealed prefix must end on a whole line, or its last line
        // would run into the tail's first.
        let end = self.journal.bytes;
        if end > 0 && file.get(end - 1) != Some(&b'\n') {
            return Err(MrError::Durability);
        }
        file.truncate(end);
        file.extend_from_slice(tail.as_bytes());
        let history = Journal::from_file(&file)?;
        if history.len() != journal.len() {
            return Err(MrError::Durability);
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Relation, TableSchema};
    use crate::snapshot::encode_snapshot;
    use moira_common::clock::VClock;

    crate::relations! {
        t { NAME: str "name" unique, V: int "v" }
    }

    fn t_schema() -> TableSchema {
        t::R::schema()
    }

    /// The journal line of [`entry`]`(t, q, args)`.
    fn line(t: i64, q: &str, args: &[&str]) -> String {
        entry(t, q, args).to_line()
    }

    fn entry(t: i64, q: &str, args: &[&str]) -> JournalEntry {
        JournalEntry {
            time: t,
            who: "ops".into(),
            with: "maint".into(),
            query: q.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn config() -> GroupCommitConfig {
        GroupCommitConfig {
            flush_interval_secs: 0,
            flush_bytes: usize::MAX,
            snapshot_every: 0,
        }
    }

    fn open_sim(
        media: &SimMedia,
        cfg: GroupCommitConfig,
    ) -> (DurableEngine, Option<RecoveredImage>) {
        DurableEngine::open(Box::new(media.clone()), cfg).expect("open")
    }

    #[test]
    fn fresh_media_recovers_nothing() {
        let media = SimMedia::new();
        let (engine, recovered) = open_sim(&media, config());
        assert!(recovered.is_none());
        assert_eq!(engine.kind(), "durable");
        assert_eq!(engine.pending_entries(), 0);
    }

    #[test]
    fn flushed_appends_survive_power_cycle() {
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        engine.append(&line(1, "add_user", &["a"]), 1).unwrap();
        engine.append(&line(2, "add_user", &["b"]), 2).unwrap();
        assert_eq!(engine.pending_entries(), 2);
        engine.flush().unwrap();
        assert_eq!(engine.pending_entries(), 0);
        // A third append is committed but never fsynced: lost on crash.
        engine.append(&line(3, "add_user", &["c"]), 3).unwrap();
        drop(engine);
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("wal existed");
        assert!(image.snapshot.is_none());
        let queries: Vec<&str> = image.wal.iter().map(|e| e.args[0].as_str()).collect();
        assert_eq!(queries, ["a", "b"]);
        assert_eq!(image.scan.recovered_frames, 2);
        assert_eq!(image.scan.torn_tail_truncations, 0);
    }

    #[test]
    fn byte_threshold_forces_eager_fsync() {
        let media = SimMedia::new();
        let mut cfg = config();
        cfg.flush_bytes = 1; // every append flushes itself
        let (mut engine, _) = open_sim(&media, cfg);
        engine.append(&line(1, "q", &[]), 1).unwrap();
        assert_eq!(engine.pending_entries(), 0);
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        assert_eq!(recovered.expect("wal").wal.len(), 1);
    }

    #[test]
    fn interval_group_commit() {
        let media = SimMedia::new();
        let mut cfg = config();
        cfg.flush_interval_secs = 10;
        let (mut engine, _) = open_sim(&media, cfg);
        assert!(!engine.maybe_flush(100).unwrap()); // idle tick: nothing to do
        engine.append(&line(1, "q", &[]), 100).unwrap();
        assert!(!engine.maybe_flush(105).unwrap()); // interval not elapsed
        assert_eq!(engine.pending_entries(), 1);
        assert!(engine.maybe_flush(110).unwrap());
        assert_eq!(engine.pending_entries(), 0);
    }

    #[test]
    fn snapshot_seals_wal_and_recovery_filters_stale_frames() {
        let clock = VClock::new();
        let mut db = Database::new(clock.clone());
        db.create_table(t_schema());
        let mut journal = Journal::new();

        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        for i in 0..3 {
            let e = entry(i, "add", &[&format!("n{i}")]);
            db.append(t::T, vec![format!("n{i}").into(), 0.into()])
                .unwrap();
            journal.log(&e);
            engine.append(&e.to_line(), i).unwrap();
        }
        engine.snapshot(&db, &journal).unwrap();
        // Two more entries after the seal.
        for i in 3..5 {
            let e = entry(i, "add", &[&format!("n{i}")]);
            engine.append(&e.to_line(), i).unwrap();
        }
        engine.flush().unwrap();
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("state");
        let snap = image.snapshot.expect("snapshot");
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.journal.len(), 3);
        assert_eq!(image.wal.len(), 2);
        assert_eq!(image.wal[0].args[0], "n3");

        // Rebuild and check the table contents arrived via the snapshot.
        let mut back = Database::recovered(VClock::starting_at(snap.now), snap.epoch);
        back.create_table(t_schema());
        snap.apply(&mut back).unwrap();
        assert_eq!(back.table(t::T).len(), 3);
    }

    #[test]
    fn torn_append_truncates_on_recovery() {
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        engine.append(&line(1, "good", &[]), 1).unwrap();
        engine.flush().unwrap();
        media.arm_crash(OpKind::Append, 0);
        assert_eq!(
            engine.append(&line(2, "torn", &[]), 2),
            Err(MrError::Durability)
        );
        assert!(media.crashed());
        // Engine is now useless; every media-touching call errors.
        assert_eq!(
            engine.append(&line(3, "dead", &[]), 3),
            Err(MrError::Durability)
        );
        media.power_cycle();
        // The torn half-frame was volatile only — durable log is clean. A
        // crash mid-fsync, though, leaves a genuinely torn durable tail.
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("wal");
        assert_eq!(image.wal.len(), 1);
        assert_eq!(image.scan.torn_tail_truncations, 0);
    }

    #[test]
    fn torn_fsync_leaves_recoverable_prefix() {
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        engine.append(&line(1, "good", &["x"]), 1).unwrap();
        engine.flush().unwrap();
        engine.append(&line(2, "half", &["y"]), 2).unwrap();
        media.arm_crash(OpKind::Fsync, 0);
        assert_eq!(engine.flush(), Err(MrError::Durability));
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("wal");
        assert_eq!(image.wal.len(), 1, "only the first fsync'd frame");
        assert_eq!(image.scan.torn_tail_truncations, 1);
        // Re-opening after the truncation sees a clean log again.
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        assert_eq!(recovered.expect("wal").scan.torn_tail_truncations, 0);
    }

    #[test]
    fn crash_between_rename_and_truncate_is_harmless() {
        let clock = VClock::new();
        let mut db = Database::new(clock.clone());
        db.create_table(t_schema());
        let mut journal = Journal::new();
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        let e = entry(1, "add", &["a"]);
        db.append(t::T, vec!["a".into(), 0.into()]).unwrap();
        journal.log(&e);
        engine.append(&e.to_line(), 1).unwrap();

        // Crash on the fsync of the WAL truncation (the 3rd fsync after
        // flush-inside-snapshot: [wal flush, journal fsync, tmp fsync,
        // wal truncate]).
        media.arm_crash(OpKind::Fsync, 3);
        assert_eq!(engine.snapshot(&db, &journal), Err(MrError::Durability));
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("state");
        let snap = image.snapshot.expect("snapshot sealed before crash");
        assert_eq!(snap.seq, 1);
        // The stale WAL frame (seq 1) is filtered, not replayed twice.
        assert_eq!(image.wal.len(), 0);
    }

    #[test]
    fn crash_during_snapshot_rename_keeps_old_state() {
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        let e = entry(1, "add", &["a"]);
        let clock = VClock::new();
        let mut db = Database::new(clock);
        db.create_table(t_schema());
        db.append(t::T, vec!["a".into(), 0.into()]).unwrap();
        let mut journal = Journal::new();
        journal.log(&e);
        engine.append(&e.to_line(), 1).unwrap();
        media.arm_crash(OpKind::Rename, 0);
        assert_eq!(engine.snapshot(&db, &journal), Err(MrError::Durability));
        media.power_cycle();
        let (_, recovered) = open_sim(&media, config());
        let image = recovered.expect("wal survived");
        assert!(image.snapshot.is_none(), "rename never became durable");
        assert_eq!(image.wal.len(), 1, "wal still has the entry");
    }

    #[test]
    fn wants_snapshot_follows_policy() {
        let media = SimMedia::new();
        let mut cfg = config();
        cfg.snapshot_every = 2;
        let (mut engine, _) = open_sim(&media, cfg);
        assert!(!engine.wants_snapshot());
        engine.append(&line(1, "q", &[]), 1).unwrap();
        assert!(!engine.wants_snapshot());
        engine.append(&line(2, "q", &[]), 2).unwrap();
        assert!(engine.wants_snapshot());
        let db = Database::new(VClock::new());
        engine.snapshot(&db, &Journal::new()).unwrap();
        assert!(!engine.wants_snapshot());
    }

    #[test]
    fn obs_counters_track_commits() {
        let registry = Registry::new();
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        engine.set_obs(&registry);
        for i in 0..5 {
            engine.append(&line(i, "q", &[]), i).unwrap();
        }
        engine.flush().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("db.wal.appends"), 5);
        assert_eq!(snap.counter("db.wal.fsyncs"), 1);
        let h = snap.histogram("db.wal.group_commit_size").expect("histo");
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 5, "five entries in one group commit");
    }

    /// A live database, its journal and the engine under them, committing
    /// the way `Registry::execute` does: mutate, journal, WAL-append.
    struct Live {
        db: Database,
        journal: Journal,
        engine: DurableEngine,
        media: SimMedia,
        commits: i64,
    }

    impl Live {
        fn on(db: Database, media: &SimMedia) -> Live {
            let (engine, _) = open_sim(media, config());
            Live {
                db,
                journal: Journal::new(),
                engine,
                media: media.clone(),
                commits: 0,
            }
        }

        fn new() -> Live {
            let mut db = Database::new(VClock::new());
            db.create_table(t_schema());
            Live::on(db, &SimMedia::new())
        }

        fn commit(&mut self, query: &str, mutate: impl FnOnce(&mut Database)) {
            mutate(&mut self.db);
            self.commits += 1;
            let e = entry(self.commits, query, &[]);
            self.journal.log(&e);
            self.engine.append(&e.to_line(), self.commits).unwrap();
        }

        fn add(&mut self, name: &str) {
            self.commit("add", |db| {
                db.append(t::T, vec![name.into(), 0.into()]).unwrap();
            });
        }

        /// Seals, then drops the sealed tail the way the journal's owner
        /// does.
        fn seal(&mut self) {
            self.engine.snapshot(&self.db, &self.journal).unwrap();
            self.journal.trim(self.engine.sealed_journal());
        }

        fn chain(&self) -> &Seal {
            self.engine.sealed.as_ref().expect("sealed")
        }

        fn text(&self) -> String {
            encode_snapshot(&self.db, &self.journal, 0)
        }

        /// Commits and seals until the next seal would rewrite the base,
        /// with at least two deltas in the chain.
        fn fill_chain(&mut self) {
            for i in 0..32 {
                self.add(&format!("base{i}"));
            }
            self.seal();
            assert_eq!(self.chain().deltas, 0);
            let mut i = 0;
            while self.chain().delta_bytes < self.chain().base_bytes {
                self.add(&format!("d{i}"));
                self.seal();
                i += 1;
            }
            assert!(self.chain().deltas >= 2, "{:?}", self.chain());
        }
    }

    /// Power-cycles, reopens, and re-encodes what recovery hands back (the
    /// WAL tail is not replayed: callers seal first or expect it empty).
    fn recovered_text(media: &SimMedia) -> (String, RecoveredImage) {
        media.power_cycle();
        let (_, recovered) = open_sim(media, config());
        let recovered = recovered.expect("state");
        let snap = recovered.snapshot.clone().expect("snapshot");
        let mut back = Database::recovered(VClock::starting_at(snap.now), snap.epoch);
        back.create_table(t_schema());
        snap.apply(&mut back).unwrap();
        (encode_snapshot(&back, &snap.journal, 0), recovered)
    }

    fn durable_text(media: &SimMedia, file: &str) -> Option<String> {
        media
            .durable_bytes(file)
            .map(|b| String::from_utf8(b).unwrap())
    }

    fn overwrite(media: &SimMedia, file: &str, bytes: &[u8]) {
        let mut m = media.clone();
        m.write_new(file, bytes).unwrap();
        m.fsync(file).unwrap();
    }

    #[test]
    fn deltas_carry_only_what_moved_and_fold_back_exactly() {
        let mut live = Live::new();
        for name in ["a", "b", "c"] {
            live.add(name);
        }
        live.seal();
        let base = durable_text(&live.media, SNAPSHOT_FILE).unwrap();
        // Slot reuse, an in-place update and a fresh tombstone.
        live.commit("del", |db| db.delete(t::T, 0).unwrap());
        live.add("d");
        live.commit("upd", |db| db.update(1, &[t::V.set(7)]).unwrap());
        live.commit("del", |db| db.delete(t::T, 2).unwrap());
        live.seal();
        assert_eq!(
            durable_text(&live.media, SNAPSHOT_FILE).unwrap(),
            base,
            "the base is not rewritten"
        );
        let delta = durable_text(&live.media, &delta_file(1)).unwrap();
        assert!(delta.contains("\nprev:3\nseq:7\n"), "{delta}");
        assert!(delta.contains("\nrow:0:5:d:0\nrow:1:6:b:7\ndead:2:7\nfree:2\n"));
        let journal = durable_text(&live.media, JOURNAL_FILE).unwrap();
        assert!(delta.contains(&format!("\njournal:7:{}\n", journal.len())));
        assert_eq!(
            journal.lines().count(),
            7,
            "three sealed by the base, four since"
        );
        let (text, recovered) = recovered_text(&live.media);
        assert_eq!(text, live.text());
        assert_eq!(recovered.snapshot.unwrap().seq, 7);
        assert!(recovered.wal.is_empty());
    }

    #[test]
    fn an_unchanged_database_seals_without_rewriting_rows() {
        let mut live = Live::new();
        live.add("a");
        live.seal();
        // Nothing committed: nothing to write.
        live.seal();
        assert_eq!(durable_text(&live.media, &delta_file(1)), None);
        // A commit that left the tables alone: the journal mark moves, no
        // table does.
        live.commit("noop", |_| {});
        live.seal();
        let delta = durable_text(&live.media, &delta_file(1)).unwrap();
        assert!(
            !delta.contains("table:") && !delta.contains("row:"),
            "{delta}"
        );
        assert!(delta.contains("\njournal:2:"), "{delta}");
        assert_eq!(recovered_text(&live.media).0, live.text());
    }

    #[test]
    fn chain_compacts_once_deltas_cost_as_much_as_the_base() {
        let mut live = Live::new();
        live.fill_chain();
        let deltas = live.chain().deltas;
        live.add("tip");
        live.seal();
        assert_eq!(live.chain().deltas, 0, "the base was rewritten");
        assert_eq!(live.chain().delta_bytes, 0);
        for k in 1..=deltas {
            assert_eq!(durable_text(&live.media, &delta_file(k)), None, "delta {k}");
        }
        let (text, recovered) = recovered_text(&live.media);
        assert_eq!(text, live.text());
        assert_eq!(
            recovered.snapshot.unwrap().journal.len(),
            live.journal.len()
        );
        // The compaction rewrote no history: every entry is on file once.
        let journal = durable_text(&live.media, JOURNAL_FILE).unwrap();
        assert_eq!(journal.lines().count(), live.journal.len());
    }

    /// The history a fresh engine on `media` reads back.
    fn history_on(media: &SimMedia) -> Journal {
        let (engine, recovered) = open_sim(media, config());
        let journal = recovered
            .and_then(|r| r.snapshot)
            .map_or(Journal::new(), |s| s.journal);
        engine.history(&journal).unwrap()
    }

    #[test]
    fn the_journal_file_holds_each_sealed_entry_once_and_reads_back_whole() {
        let mut live = Live::new();
        let mut all = Journal::new();
        for i in 0..3 {
            live.add(&format!("a{i}"));
            all.log(&live.journal.entries().last().unwrap());
        }
        live.seal();
        assert!(live.journal.tail().is_empty(), "the seal's owner trims");
        assert_eq!(live.journal.len(), 3);
        live.commit("noop", |_| {});
        all.log(&live.journal.entries().next().unwrap());
        // The live tail follows what the file holds.
        assert_eq!(live.engine.history(&live.journal), Ok(all.clone()));
        live.seal();
        assert_eq!(durable_text(&live.media, JOURNAL_FILE), Some(all.to_text()));
        live.media.power_cycle();
        assert_eq!(history_on(&live.media), all);
        // A journal that does not extend the file cannot be sealed or read.
        let (mut engine, _) = open_sim(&live.media, config());
        assert_eq!(
            engine.snapshot(&live.db, &Journal::new()),
            Err(MrError::Durability)
        );
        assert_eq!(engine.history(&Journal::new()), Err(MrError::Durability));
        // Under `NullStorage` the journal is the whole history.
        assert_eq!(NullStorage.history(&all), Ok(all.clone()));
        assert_eq!(NullStorage.history(&live.journal), Err(MrError::Durability));
    }

    #[test]
    fn open_cuts_journal_lines_no_durable_checkpoint_names() {
        let mut live = Live::new();
        live.add("a");
        live.seal();
        let sealed = durable_text(&live.media, JOURNAL_FILE).unwrap();
        live.add("b");
        // [wal flush, journal fsync, tmp fsync]: the journal line is
        // durable, the delta naming it is not.
        live.media.arm_crash(OpKind::Fsync, 2);
        assert_eq!(
            live.engine.snapshot(&live.db, &live.journal),
            Err(MrError::Durability)
        );
        assert!(durable_text(&live.media, JOURNAL_FILE).unwrap().len() > sealed.len());
        live.media.power_cycle();
        let (mut engine, recovered) = open_sim(&live.media, config());
        let recovered = recovered.unwrap();
        assert_eq!(recovered.wal.len(), 1, "the WAL still holds the entry");
        let mut journal = recovered.snapshot.unwrap().journal;
        assert_eq!(engine.history(&journal).unwrap().to_text(), sealed);
        // Re-sealing the replayed entry appends it once, after the cut.
        journal.log(&recovered.wal[0]);
        engine.snapshot(&live.db, &journal).unwrap();
        live.media.power_cycle();
        let history = history_on(&live.media);
        assert_eq!(history.len(), 2);
        assert_eq!(
            history.to_text(),
            format!("{sealed}{}\n", recovered.wal[0].to_line())
        );
    }

    /// A [`SimMedia`] whose rename fails once when armed, leaving the media
    /// alive: an I/O error rather than a crash.
    struct FailingRename(SimMedia, Arc<std::sync::atomic::AtomicBool>);

    impl Media for FailingRename {
        fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
            self.0.append(file, bytes)
        }
        fn fsync(&mut self, file: &str) -> MrResult<()> {
            self.0.fsync(file)
        }
        fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
            self.0.read(file)
        }
        fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
            self.0.write_new(file, bytes)
        }
        fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
            if self.1.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(MrError::Durability);
            }
            self.0.rename(from, to)
        }
        fn fsync_dir(&mut self) -> MrResult<()> {
            self.0.fsync_dir()
        }
        fn remove(&mut self, file: &str) -> MrResult<()> {
            self.0.remove(file)
        }
        fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
            self.0.truncate(file, len)
        }
    }

    #[test]
    fn a_checkpoint_that_failed_after_its_append_is_cut_by_the_next() {
        let media = SimMedia::new();
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wrapped = FailingRename(media.clone(), fail.clone());
        let (engine, _) = DurableEngine::open(Box::new(wrapped), config()).unwrap();
        let mut db = Database::new(VClock::new());
        db.create_table(t_schema());
        let mut live = Live {
            engine,
            ..Live::on(db, &media)
        };
        live.add("a");
        live.seal();
        live.add("b");
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(
            live.engine.snapshot(&live.db, &live.journal),
            Err(MrError::Durability)
        );
        // b's line is on file past the end the chain names; the next
        // checkpoint cuts it and appends b again, then c.
        live.add("c");
        let tail = live.journal.to_text();
        assert_eq!(
            live.journal.entries().count(),
            2,
            "the failed seal trimmed nothing"
        );
        live.seal();
        media.power_cycle();
        let history = history_on(&media);
        assert_eq!(history.len(), 3);
        assert!(history.to_text().ends_with(&tail), "{}", history.to_text());
    }

    #[test]
    fn stale_deltas_after_a_crashed_cleanup_are_ignored_then_overwritten() {
        let mut live = Live::new();
        live.fill_chain();
        let deltas = live.chain().deltas;
        live.add("tip");
        // [wal flush, journal fsync, tmp fsync, wal-truncation fsync]: the
        // new base is renamed and directory-synced, the old chain's files
        // still there.
        live.media.arm_crash(OpKind::Fsync, 3);
        assert_eq!(
            live.engine.snapshot(&live.db, &live.journal),
            Err(MrError::Durability)
        );
        let (text, recovered) = recovered_text(&live.media);
        for k in 1..=deltas {
            assert!(live.media.durable_bytes(&delta_file(k)).is_some(), "{k}");
        }
        assert_eq!(text, live.text(), "the stale chain was not folded in");
        assert!(recovered.wal.is_empty(), "stale frames are filtered");

        // The replacement engine's first delta takes the first stale
        // file's name; the second stale file stays ignored.
        let (engine, _) = open_sim(&live.media, config());
        live.engine = engine;
        assert_eq!(live.chain().deltas, 0);
        live.add("after");
        live.seal();
        assert_eq!(live.chain().deltas, 1);
        assert!(live.media.durable_bytes(&delta_file(2)).is_some());
        assert_eq!(recovered_text(&live.media).0, live.text());
    }

    #[test]
    fn a_database_the_seal_does_not_describe_gets_a_base() {
        let mut live = Live::new();
        live.add("a");
        live.seal();
        live.add("b");
        live.seal();
        assert_eq!(live.chain().deltas, 1);

        // Another epoch (a restore built a new database) with every
        // generation ahead of the seal: only the epoch gives it away.
        let mut other = Database::new(VClock::new());
        other.create_table(t_schema());
        for name in ["x", "y", "z"] {
            other.append(t::T, vec![name.into(), 1.into()]).unwrap();
        }
        let e = entry(9, "restore", &[]);
        live.journal.log(&e);
        live.engine.append(&e.to_line(), 9).unwrap();
        live.engine.snapshot(&other, &live.journal).unwrap();
        assert_eq!(live.chain().deltas, 0);
        assert_eq!(live.chain().epoch, other.epoch());
        assert_eq!(durable_text(&live.media, &delta_file(1)), None);
        let base = durable_text(&live.media, SNAPSHOT_FILE).unwrap();
        assert!(base.contains(&format!("\nepoch:{}\n", other.epoch())));

        // The sealed epoch, but a table behind the seal (rebuilt under us).
        live.db = other;
        live.add("w");
        live.seal();
        assert_eq!(live.chain().deltas, 1);
        let mut behind = Database::recovered(VClock::new(), live.db.epoch());
        behind.create_table(t_schema());
        behind.append(t::T, vec!["only".into(), 1.into()]).unwrap();
        live.db = behind;
        live.commit("rebuilt", |_| {});
        live.seal();
        assert_eq!(live.chain().deltas, 0, "a base, never a delta");
        assert_eq!(recovered_text(&live.media).0, live.text());
    }

    #[test]
    fn a_damaged_delta_in_the_chain_is_a_durability_error() {
        let mut live = Live::new();
        live.add("a");
        live.seal();
        live.add("b");
        live.seal();
        let good = live.media.durable_bytes(&delta_file(1)).unwrap();
        drop(live.engine);
        let open = |bytes: &[u8]| {
            overwrite(&live.media, &delta_file(1), bytes);
            DurableEngine::open(Box::new(live.media.clone()), config()).map(|_| ())
        };
        for at in 0..good.len() {
            let mut flipped = good.clone();
            flipped[at] ^= 1;
            assert_eq!(open(&flipped), Err(MrError::Durability), "byte {at}");
        }
        for len in 0..good.len() {
            assert_eq!(open(&good[..len]), Err(MrError::Durability), "cut at {len}");
        }
        assert_eq!(open(&good), Ok(()));
    }

    #[test]
    fn obs_counters_tell_deltas_from_compactions() {
        let registry = Registry::new();
        let mut live = Live::new();
        live.engine.set_obs(&registry);
        live.fill_chain();
        let deltas = live.chain().deltas;
        live.add("tip");
        live.seal();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("db.snapshot.deltas"), deltas);
        assert_eq!(snap.counter("db.snapshot.compactions"), 1);
        let h = snap.histogram("db.snapshot.bytes").expect("histo");
        assert_eq!(h.count, deltas + 2, "first base, deltas, compaction");
        assert_eq!(h.max, live.chain().base_bytes as u64);
    }

    #[test]
    fn recovered_scan_stats_credit_obs() {
        let media = SimMedia::new();
        let (mut engine, _) = open_sim(&media, config());
        engine.append(&line(1, "q", &[]), 1).unwrap();
        engine.append(&line(2, "q", &[]), 2).unwrap();
        engine.flush().unwrap();
        engine.append(&line(3, "q", &[]), 3).unwrap();
        media.arm_crash(OpKind::Fsync, 0);
        assert!(engine.flush().is_err());
        media.power_cycle();
        let (mut engine, _) = open_sim(&media, config());
        let registry = Registry::new();
        engine.set_obs(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("db.wal.recovered_frames"), 2);
        assert_eq!(snap.counter("db.wal.torn_tail_truncations"), 1);
    }

    #[test]
    fn disk_media_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "moira-storage-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut media = DiskMedia::open(&dir).unwrap();
        assert_eq!(media.read("missing").unwrap(), None);
        media.append("wal.log", b"hello ").unwrap();
        media.append("wal.log", b"world").unwrap();
        media.fsync("wal.log").unwrap();
        assert_eq!(media.read("wal.log").unwrap().unwrap(), b"hello world");
        media.truncate("wal.log", 5).unwrap();
        assert_eq!(media.read("wal.log").unwrap().unwrap(), b"hello");
        media.write_new("snap.tmp", b"snapshot").unwrap();
        media.fsync("snap.tmp").unwrap();
        media.rename("snap.tmp", "snap").unwrap();
        media.fsync_dir().unwrap();
        assert_eq!(media.read("snap").unwrap().unwrap(), b"snapshot");
        assert_eq!(media.read("snap.tmp").unwrap(), None);
        media.remove("snap").unwrap();
        media.remove("snap").unwrap(); // idempotent
        assert_eq!(media.read("snap").unwrap(), None);

        // A real engine over disk media: write, reopen, recover.
        let (mut engine, _) = DurableEngine::open(
            Box::new(DiskMedia::open(&dir).unwrap()),
            GroupCommitConfig::default(),
        )
        .unwrap();
        engine.append(&line(1, "q", &["disk"]), 1).unwrap();
        engine.flush().unwrap();
        drop(engine);
        let (_, recovered) = DurableEngine::open(
            Box::new(DiskMedia::open(&dir).unwrap()),
            GroupCommitConfig::default(),
        )
        .unwrap();
        // The first open's truncate of "wal.log" left from the raw media
        // exercise above means only our engine frame is present.
        let image = recovered.expect("wal on disk");
        assert_eq!(image.wal.len(), 1);
        assert_eq!(image.wal[0].args[0], "disk");
        let _ = fs::remove_dir_all(&dir);
    }
}
