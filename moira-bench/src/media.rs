//! `MeteredMedia`: the harness's seat on the `moira_db::storage::Media` seam.
//!
//! It forwards every call to the media it wraps, and on the way counts and
//! times each operation, remembers how much of every file has been fsynced,
//! and recognises the engine's snapshot sequence so a stall is measured from
//! outside. [`MediaHandle::crash`] then plays power loss: killing a process
//! leaves the OS cache intact, so the durability check discards the bytes
//! that were never flushed itself.
//!
//! Where the files live: in this process ([`RamMedia`]). A benchmark run may
//! write only inside its checkout, and on the sandbox's virtual disk two
//! identical runs differed 4x in write latency with `fsync` issued and 2x in
//! recovery time without it. Every engine call still happens, in order, and
//! the device is characterised by exact counts (appends, bytes, flushes)
//! rather than by a latency that belongs to the sandbox. A flush's position
//! in the call sequence decides what survives a crash.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use moira_common::errors::{MrError, MrResult};
use moira_db::storage::{Media, SNAPSHOT_TMP, WAL_FILE};
use serde_json::{json, Value};

use crate::trace;

/// Count, bytes and time of one operation class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Calls.
    pub count: u64,
    /// Bytes handed over (0 for operations without a payload).
    pub bytes: u64,
    /// Time spent inside the wrapped media.
    pub nanos: u64,
}

impl OpStat {
    fn add(&mut self, bytes: usize, since: Instant) {
        self.count += 1;
        self.bytes += bytes as u64;
        self.nanos += since.elapsed().as_nanos() as u64;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.nanos as f64 / self.count as f64
        }
    }
}

/// Counters by operation; `wal_*` are the subset that touched the WAL file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// `Media::append`.
    pub append: OpStat,
    /// `Media::fsync`.
    pub fsync: OpStat,
    /// `Media::write_new`.
    pub write_new: OpStat,
    /// `Media::rename`.
    pub rename: OpStat,
    /// `Media::fsync_dir`.
    pub fsync_dir: OpStat,
    /// `Media::truncate`.
    pub truncate: OpStat,
    /// `Media::read`.
    pub read: OpStat,
    /// Appends to the WAL file.
    pub wal_append: OpStat,
    /// Fsyncs of the WAL file outside a snapshot (the group commits).
    pub wal_fsync: OpStat,
}

impl MediaStats {
    /// Bytes handed to the media for storing (WAL appends + snapshot files).
    pub fn bytes_written(&self) -> u64 {
        self.append.bytes + self.write_new.bytes
    }

    /// Count, bytes and mean time per operation class, for the result file.
    pub fn json(self) -> Value {
        let ops = [
            ("append", self.append),
            ("fsync", self.fsync),
            ("write_new", self.write_new),
            ("rename", self.rename),
            ("fsync_dir", self.fsync_dir),
            ("truncate", self.truncate),
            ("read", self.read),
            ("wal_append", self.wal_append),
            ("wal_fsync", self.wal_fsync),
        ];
        Value::Object(
            ops.into_iter()
                .map(|(name, s)| {
                    let v = json!({ "count": s.count, "bytes": s.bytes, "mean_ns": s.mean_ns() });
                    (name.to_owned(), v)
                })
                .collect(),
        )
    }
}

/// One snapshot as the seam saw it.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotEvent {
    /// End of the media call before the snapshot file was written: the
    /// encode of the database image happens in this gap.
    pub start: Instant,
    /// Return of the WAL-truncation fsync that ends the sequence.
    pub end: Instant,
    /// Size of the snapshot document.
    pub bytes: u64,
    /// [`MediaStats::bytes_written`] when the sequence ended.
    pub bytes_written: u64,
    /// WAL appends seen when the sequence ended.
    pub wal_appends: u64,
}

impl SnapshotEvent {
    /// Wall time of the stall, milliseconds.
    pub fn millis(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug, Clone, Copy)]
struct FileLen {
    len: usize,
    /// Length as of the last fsync; `None` if never fsynced since creation.
    durable: Option<usize>,
}

#[derive(Default)]
struct Log {
    stats: MediaStats,
    files: BTreeMap<String, FileLen>,
    snapshots: Vec<SnapshotEvent>,
    /// WAL appends covered by each group-commit fsync, in order.
    group_sizes: Vec<u32>,
    unflushed_appends: u32,
    last_op_end: Option<Instant>,
    /// Start and size of the snapshot being written, between the
    /// `write_new` of the temp file and the fsync after the WAL truncation.
    snap_open: Option<(Instant, u64)>,
    snap_truncated_wal: bool,
}

/// A shared view of what a [`MeteredMedia`] has seen; outlives the engine
/// that owns the media.
#[derive(Clone, Default)]
pub struct MediaHandle(Arc<Mutex<Log>>);

impl MediaHandle {
    fn lock(&self) -> MutexGuard<'_, Log> {
        // Every update leaves the counters valid, so a poisoned lock
        // (a panicking server thread) still holds usable data.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counters so far.
    pub fn stats(&self) -> MediaStats {
        self.lock().stats
    }

    /// Snapshots completed so far, oldest first.
    pub fn snapshots(&self) -> Vec<SnapshotEvent> {
        self.lock().snapshots.clone()
    }

    /// How many WAL appends each group-commit fsync covered, oldest first.
    pub fn group_sizes(&self) -> Vec<u32> {
        self.lock().group_sizes.clone()
    }

    /// Bytes of `file` that would survive a crash now (`None`: the file
    /// would not exist).
    #[cfg(test)]
    pub fn durable_len(&self, file: &str) -> Option<usize> {
        self.lock().files.get(file).and_then(|f| f.durable)
    }

    /// Power loss: cuts every file of `media` (a handle on the files the
    /// metered media wrote) back to its last-fsynced length and removes
    /// files that were never fsynced. Directory operations are taken as durable
    /// at once; the engine fsyncs the directory right after its one rename.
    pub fn crash(&self, media: &mut RamMedia) -> MrResult<()> {
        let mut log = self.lock();
        let mut gone = Vec::new();
        for (name, f) in log.files.iter_mut() {
            match f.durable {
                Some(len) => {
                    media.truncate(name, len)?;
                    f.len = len;
                }
                None => {
                    media.remove(name)?;
                    gone.push(name.clone());
                }
            }
        }
        for name in gone {
            log.files.remove(&name);
        }
        log.snap_open = None;
        log.unflushed_appends = 0;
        Ok(())
    }
}

/// The wrapper itself; give it to `DurableEngine::open` boxed.
pub struct MeteredMedia {
    inner: RamMedia,
    log: MediaHandle,
    snap_span: Option<trace::Guard>,
}

impl MeteredMedia {
    /// Wraps `inner`.
    pub fn new(inner: RamMedia) -> (MeteredMedia, MediaHandle) {
        let log = MediaHandle::default();
        (MeteredMedia::resume(inner, &log), log)
    }

    /// Like [`MeteredMedia::new`] but continuing an existing log — the
    /// recovery boot after [`MediaHandle::crash`] on the same files.
    pub fn resume(inner: RamMedia, log: &MediaHandle) -> MeteredMedia {
        MeteredMedia {
            inner,
            log: log.clone(),
            snap_span: None,
        }
    }
}

impl Media for MeteredMedia {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let _span = trace::span(if file == WAL_FILE {
            "db.wal.append"
        } else {
            "db.media.append"
        });
        let t0 = Instant::now();
        let result = self.inner.append(file, bytes);
        let mut log = self.log.lock();
        log.stats.append.add(bytes.len(), t0);
        if file == WAL_FILE {
            log.stats.wal_append.add(bytes.len(), t0);
            log.unflushed_appends += 1;
        }
        if result.is_ok() {
            let f = log.files.entry(file.to_owned()).or_insert(FileLen {
                len: 0,
                durable: None,
            });
            f.len += bytes.len();
        }
        log.last_op_end = Some(Instant::now());
        result
    }

    fn fsync(&mut self, file: &str) -> MrResult<()> {
        let in_snapshot = self.log.lock().snap_open.is_some();
        let span = trace::span(if in_snapshot {
            "db.snapshot.fsync"
        } else if file == WAL_FILE {
            "db.wal.fsync"
        } else {
            "db.media.fsync"
        });
        let t0 = Instant::now();
        let result = self.inner.fsync(file);
        let mut log = self.log.lock();
        log.stats.fsync.add(0, t0);
        if file == WAL_FILE && !in_snapshot {
            log.stats.wal_fsync.add(0, t0);
            let group = std::mem::take(&mut log.unflushed_appends);
            log.group_sizes.push(group);
        }
        if result.is_ok() {
            if let Some(f) = log.files.get_mut(file) {
                f.durable = Some(f.len);
            }
        }
        let now = Instant::now();
        log.last_op_end = Some(now);
        // The engine ends a snapshot with `truncate(WAL, 0)` + `fsync(WAL)`.
        if file == WAL_FILE && log.snap_truncated_wal {
            if let Some((start, bytes)) = log.snap_open.take() {
                let event = SnapshotEvent {
                    start,
                    end: now,
                    bytes,
                    bytes_written: log.stats.bytes_written(),
                    wal_appends: log.stats.wal_append.count,
                };
                log.snapshots.push(event);
            }
            log.snap_truncated_wal = false;
            drop(log);
            drop(span);
            self.snap_span = None;
        }
        result
    }

    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        let _span = trace::span("db.media.read");
        let t0 = Instant::now();
        let result = self.inner.read(file);
        let len = match &result {
            Ok(Some(bytes)) => bytes.len(),
            _ => 0,
        };
        self.log.lock().stats.read.add(len, t0);
        result
    }

    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        let entered = Instant::now();
        if file == SNAPSHOT_TMP {
            let mut log = self.log.lock();
            let start = log.last_op_end.unwrap_or(entered);
            log.snap_open = Some((start, bytes.len() as u64));
            log.snap_truncated_wal = false;
            drop(log);
            // The image was encoded between the previous media call and
            // this one; the seam sees that only as a gap.
            trace::closed("db.snapshot.encode", start, entered, None);
            self.snap_span = Some(trace::span("db.snapshot.write"));
        }
        let _span = trace::span("db.snapshot.write_new");
        let t0 = Instant::now();
        let result = self.inner.write_new(file, bytes);
        let mut log = self.log.lock();
        log.stats.write_new.add(bytes.len(), t0);
        if result.is_ok() {
            log.files.insert(
                file.to_owned(),
                FileLen {
                    len: bytes.len(),
                    durable: None,
                },
            );
        }
        log.last_op_end = Some(Instant::now());
        result
    }

    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        let _span = trace::span("db.snapshot.rename");
        let t0 = Instant::now();
        let result = self.inner.rename(from, to);
        let mut log = self.log.lock();
        log.stats.rename.add(0, t0);
        if result.is_ok() {
            if let Some(f) = log.files.remove(from) {
                log.files.insert(to.to_owned(), f);
            }
        }
        log.last_op_end = Some(Instant::now());
        result
    }

    fn fsync_dir(&mut self) -> MrResult<()> {
        let _span = trace::span("db.snapshot.fsync_dir");
        let t0 = Instant::now();
        let result = self.inner.fsync_dir();
        let mut log = self.log.lock();
        log.stats.fsync_dir.add(0, t0);
        log.last_op_end = Some(Instant::now());
        result
    }

    fn remove(&mut self, file: &str) -> MrResult<()> {
        let result = self.inner.remove(file);
        if result.is_ok() {
            self.log.lock().files.remove(file);
        }
        result
    }

    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        let _span = trace::span(if self.snap_span.is_some() {
            "db.snapshot.truncate"
        } else {
            "db.media.truncate"
        });
        let t0 = Instant::now();
        let result = self.inner.truncate(file, len);
        let mut log = self.log.lock();
        log.stats.truncate.add(0, t0);
        if result.is_ok() {
            // A cut is taken as durable at once: the engine tolerates the
            // old frames coming back (their seqs are below the seal), so
            // modelling the loss is the stricter choice.
            let f = log.files.entry(file.to_owned()).or_insert(FileLen {
                len: 0,
                durable: None,
            });
            f.len = len;
            f.durable = f.durable.map(|d| d.min(len));
            if file == WAL_FILE && log.snap_open.is_some() {
                log.snap_truncated_wal = true;
            }
        }
        log.last_op_end = Some(Instant::now());
        result
    }
}

/// Files held in this process. Cloning shares them, so a fresh handle
/// after a crash sees what the dropped engine wrote.
#[derive(Clone, Default)]
pub struct RamMedia(Arc<Mutex<BTreeMap<String, Vec<u8>>>>);

impl RamMedia {
    fn files(&self) -> MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Media for RamMedia {
    fn append(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        self.files()
            .entry(file.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn fsync(&mut self, _file: &str) -> MrResult<()> {
        Ok(())
    }

    fn read(&self, file: &str) -> MrResult<Option<Vec<u8>>> {
        Ok(self.files().get(file).cloned())
    }

    fn write_new(&mut self, file: &str, bytes: &[u8]) -> MrResult<()> {
        self.files().insert(file.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> MrResult<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or(MrError::Durability)?;
        files.insert(to.to_owned(), bytes);
        Ok(())
    }

    fn fsync_dir(&mut self) -> MrResult<()> {
        Ok(())
    }

    fn remove(&mut self, file: &str) -> MrResult<()> {
        self.files().remove(file);
        Ok(())
    }

    fn truncate(&mut self, file: &str, len: usize) -> MrResult<()> {
        self.files()
            .entry(file.to_owned())
            .or_default()
            .truncate(len);
        Ok(())
    }
}

impl RamMedia {
    /// Files of its own with the same contents.
    pub fn copy(&self) -> RamMedia {
        RamMedia(Arc::new(Mutex::new(self.files().clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_db::storage::SNAPSHOT_FILE;

    fn metered() -> (MeteredMedia, MediaHandle, RamMedia) {
        let files = RamMedia::default();
        let (m, h) = MeteredMedia::new(files.clone());
        (m, h, files)
    }

    #[test]
    fn unflushed_append_disappears_and_flushed_one_survives() {
        let (mut m, h, files) = metered();
        m.append(WAL_FILE, b"acked-").unwrap();
        m.fsync(WAL_FILE).unwrap();
        m.append(WAL_FILE, b"lost").unwrap();
        assert_eq!(h.durable_len(WAL_FILE), Some(6));
        assert_eq!(m.read(WAL_FILE).unwrap().unwrap(), b"acked-lost");
        drop(m);
        let mut fresh = files.clone();
        h.crash(&mut fresh).unwrap();
        assert_eq!(fresh.read(WAL_FILE).unwrap().unwrap(), b"acked-");
    }

    #[test]
    fn never_fsynced_file_does_not_exist_after_a_crash() {
        let (mut m, h, files) = metered();
        m.write_new(SNAPSHOT_TMP, b"half a snapshot").unwrap();
        let mut fresh = files.clone();
        h.crash(&mut fresh).unwrap();
        assert_eq!(fresh.read(SNAPSHOT_TMP).unwrap(), None);
        assert_eq!(h.durable_len(SNAPSHOT_TMP), None);
    }

    #[test]
    fn counts_are_exact() {
        let (mut m, h, _) = metered();
        m.append(WAL_FILE, &[0; 10]).unwrap();
        m.append(WAL_FILE, &[0; 5]).unwrap();
        m.append("other", &[0; 3]).unwrap();
        m.fsync(WAL_FILE).unwrap();
        m.fsync("other").unwrap();
        m.write_new("doc", &[0; 100]).unwrap();
        m.rename("doc", "doc2").unwrap();
        m.fsync_dir().unwrap();
        m.truncate("other", 1).unwrap();
        let _ = m.read("doc2").unwrap();
        let s = h.stats();
        assert_eq!((s.append.count, s.append.bytes), (3, 18));
        assert_eq!((s.wal_append.count, s.wal_append.bytes), (2, 15));
        assert_eq!((s.fsync.count, s.wal_fsync.count), (2, 1));
        assert_eq!((s.write_new.count, s.write_new.bytes), (1, 100));
        assert_eq!(
            (s.rename.count, s.fsync_dir.count, s.truncate.count),
            (1, 1, 1)
        );
        assert_eq!((s.read.count, s.read.bytes), (1, 100));
        assert_eq!(s.bytes_written(), 118);
        assert_eq!(
            h.durable_len("other"),
            Some(1),
            "a cut shortens the durable length"
        );
        assert_eq!(h.stats(), s, "reading the counters does not move them");
    }

    #[test]
    fn engine_snapshot_sequence_is_recognised_as_one_event() {
        let (mut m, h, _) = metered();
        m.append(WAL_FILE, &[1; 40]).unwrap();
        m.fsync(WAL_FILE).unwrap(); // flush inside snapshot()
        m.write_new(SNAPSHOT_TMP, &[2; 1000]).unwrap();
        m.fsync(SNAPSHOT_TMP).unwrap();
        m.rename(SNAPSHOT_TMP, SNAPSHOT_FILE).unwrap();
        m.fsync_dir().unwrap();
        m.truncate(WAL_FILE, 0).unwrap();
        m.fsync(WAL_FILE).unwrap();
        let snaps = h.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].bytes, 1000);
        assert_eq!(snaps[0].bytes_written, 1040);
        assert_eq!(snaps[0].wal_appends, 1);
        assert!(snaps[0].end >= snaps[0].start);
        // Only the group commit counts as a WAL fsync; the two inside the
        // snapshot sequence belong to the snapshot.
        assert_eq!(h.stats().wal_fsync.count, 1);
        assert_eq!(h.stats().fsync.count, 3);
        assert_eq!(h.group_sizes(), [1]);
        assert_eq!(h.durable_len(SNAPSHOT_FILE), Some(1000));
        assert_eq!(h.durable_len(WAL_FILE), Some(0));
        // A later plain group commit opens no event.
        m.append(WAL_FILE, &[1; 8]).unwrap();
        m.fsync(WAL_FILE).unwrap();
        assert_eq!(h.snapshots().len(), 1);
    }

    #[test]
    fn a_clone_shares_the_files_and_a_copy_does_not() {
        let files = RamMedia::default();
        let mut m = files.clone();
        m.append(WAL_FILE, b"frames").unwrap();
        m.write_new(SNAPSHOT_TMP, b"doc").unwrap();
        m.rename(SNAPSHOT_TMP, SNAPSHOT_FILE).unwrap();
        assert!(m.rename("missing", "x").is_err());
        let copy = files.copy();
        m.truncate(WAL_FILE, 2).unwrap();
        m.remove(SNAPSHOT_FILE).unwrap();
        assert_eq!(files.read(WAL_FILE).unwrap().unwrap(), b"fr");
        assert_eq!(files.read(SNAPSHOT_FILE).unwrap(), None);
        assert_eq!(copy.read(WAL_FILE).unwrap().unwrap(), b"frames");
        assert_eq!(copy.read(SNAPSHOT_FILE).unwrap().unwrap(), b"doc");
    }
}
