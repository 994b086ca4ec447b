//! The write-ahead-log frame codec.
//!
//! Each committed mutation becomes one frame in the log:
//!
//! ```text
//! frame := len(u32 LE) ++ crc(u32 LE) ++ payload
//! payload := "<seq>:" ++ journal line (the escaped wire form of
//!            [`JournalEntry::to_line`])
//! ```
//!
//! `len` counts the payload bytes and `crc` is CRC-32 (IEEE 802.3) over the
//! payload, so a scan can detect both a torn tail (fewer bytes on disk than
//! the header promises — the classic crash-during-append shape) and bit rot.
//! `seq` is the global commit sequence number; recovery uses it to skip
//! frames a snapshot already covers, which makes a crash *between*
//! snapshot-rename and WAL-truncate harmless (the stale frames are simply
//! filtered out on replay).
//!
//! Decoding is total: a scan never panics, it truncates. Everything from the
//! first bad frame onward is discarded — after a torn append there is no
//! trustworthy framing to resynchronize on.

// The WAL scan runs on whatever bytes a crash left behind; a panic here
// makes the database unbootable.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Write;

use moira_common::crc::crc32;

use crate::journal::JournalEntry;

/// Upper bound on a single frame payload. A length prefix beyond this is
/// treated as corruption rather than an instruction to allocate gigabytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// What a WAL scan found, beyond the frames themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Frames that decoded cleanly.
    pub recovered_frames: u64,
    /// 1 if the scan stopped early at a torn/corrupt tail, else 0.
    pub torn_tail_truncations: u64,
    /// Byte offset at which the clean prefix ends — the truncation point a
    /// recovering engine resumes appending from.
    pub clean_len: usize,
}

/// Encodes one journal line (a [`JournalEntry::to_line`], no newline) as
/// the WAL frame of commit `seq`.
pub fn encode_frame(seq: u64, line: &str) -> Vec<u8> {
    // Header, then the widest `u64` and its colon, then the line.
    let mut frame = Vec::with_capacity(8 + 21 + line.len());
    frame.extend_from_slice(&[0; 8]);
    let _ = write!(frame, "{seq}:");
    frame.extend_from_slice(line.as_bytes());
    let payload = &frame[8..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

fn decode_payload(payload: &[u8]) -> Option<(u64, JournalEntry)> {
    let text = std::str::from_utf8(payload).ok()?;
    let (seq, line) = text.split_once(':')?;
    let seq = seq.parse().ok()?;
    let entry = JournalEntry::from_line(line).ok()?;
    Some((seq, entry))
}

/// Scans a WAL byte stream into `(seq, entry)` frames.
///
/// Tolerates a torn tail: the scan stops at the first short header, short
/// payload, over-long length prefix, CRC mismatch, or unparseable payload,
/// reporting how many bytes of clean prefix precede it. It never panics —
/// arbitrary bytes are a valid (if mostly empty) log.
pub fn scan_frames(bytes: &[u8]) -> (Vec<(u64, JournalEntry)>, WalScan) {
    let mut frames = Vec::new();
    let mut stats = WalScan::default();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            break; // clean end
        }
        let Some(header) = bytes.get(pos..pos + 8) else {
            stats.torn_tail_truncations = 1;
            break;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_FRAME_LEN {
            stats.torn_tail_truncations = 1;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            stats.torn_tail_truncations = 1;
            break;
        };
        if crc32(payload) != crc {
            stats.torn_tail_truncations = 1;
            break;
        }
        let Some(frame) = decode_payload(payload) else {
            stats.torn_tail_truncations = 1;
            break;
        };
        frames.push(frame);
        pos += 8 + len as usize;
        stats.recovered_frames += 1;
        stats.clean_len = pos;
    }
    (frames, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: i64, q: &str, args: &[&str]) -> JournalEntry {
        JournalEntry {
            time: t,
            who: "ops".into(),
            with: "maint".into(),
            query: q.into(),
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The exact bytes of two frames: one with no arguments, one whose
    /// arguments need every escape (`:`, `\\`, a newline) and end on an
    /// empty one. The WAL on disk must not move.
    #[test]
    fn frame_bytes_are_pinned() {
        let bare = frame_of(1, &entry(9, "trigger_dcm", &[]));
        let mut want = vec![25, 0, 0, 0, 147, 108, 13, 249];
        want.extend_from_slice(b"1:9:ops:maint:trigger_dcm");
        assert_eq!(bare, want);

        let nasty = JournalEntry {
            time: 1_700_000_000,
            who: "ops".into(),
            with: "maint".into(),
            query: "add_member_to_list".into(),
            args: vec!["a:b".into(), "c\\d".into(), "e\nf".into(), String::new()],
        };
        let mut want = vec![60, 0, 0, 0, 226, 150, 234, 156];
        want.extend_from_slice(b"42:1700000000:ops:maint:add_member_to_list:a\\:b:c\\\\d:e\\012f:");
        assert_eq!(frame_of(42, &nasty), want);
    }

    /// The frame [`encode_frame`] makes of `e`.
    fn frame_of(seq: u64, e: &JournalEntry) -> Vec<u8> {
        encode_frame(seq, &e.to_line())
    }

    #[test]
    fn frame_round_trip() {
        let e = entry(100, "update_user_shell", &["babette", "/bin/csh"]);
        let mut log = frame_of(7, &e);
        log.extend(frame_of(8, &entry(101, "add_machine", &["K", "VAX"])));
        let (frames, stats) = scan_frames(&log);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (7, e));
        assert_eq!(frames[1].0, 8);
        assert_eq!(stats.recovered_frames, 2);
        assert_eq!(stats.torn_tail_truncations, 0);
        assert_eq!(stats.clean_len, log.len());
    }

    #[test]
    fn torn_tail_truncates_without_panic() {
        let e = entry(5, "q", &["a:b", "c\\d", "e\nf"]);
        let good = frame_of(1, &e);
        let mut log = good.clone();
        log.extend(frame_of(2, &e));
        // Tear the second frame at every possible byte boundary. A cut at
        // exactly the first frame's end is a clean log, so start one past.
        for cut in good.len() + 1..log.len() {
            let (frames, stats) = scan_frames(&log[..cut]);
            assert_eq!(frames.len(), 1, "cut at {cut}");
            assert_eq!(stats.torn_tail_truncations, 1, "cut at {cut}");
            assert_eq!(stats.clean_len, good.len());
        }
    }

    #[test]
    fn crc_mismatch_truncates() {
        let mut log = frame_of(1, &entry(1, "q", &[]));
        log.extend(frame_of(2, &entry(2, "q", &[])));
        let tail = log.len() - 1;
        log[tail] ^= 0x40; // flip a bit in the second payload
        let (frames, stats) = scan_frames(&log);
        assert_eq!(frames.len(), 1);
        assert_eq!(stats.torn_tail_truncations, 1);
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let mut log = Vec::new();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(b"whatever");
        let (frames, stats) = scan_frames(&log);
        assert!(frames.is_empty());
        assert_eq!(stats.torn_tail_truncations, 1);
        assert_eq!(stats.clean_len, 0);
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        let garbage: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let (frames, _) = scan_frames(&garbage);
        assert!(frames.is_empty() || !frames.is_empty()); // totality only
        scan_frames(&[]);
        scan_frames(&[0x01]);
    }
}
