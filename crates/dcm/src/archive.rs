//! The tar-like archive the DCM transfers, and its integrity checksum.
//!
//! §5.9: "The file transfer includes a checksum to insure data integrity.
//! Only one file is transferred, although it may be a tar file containing
//! many more." The format is a simple length-prefixed member list; the
//! checksum is CRC-32 (IEEE), computed over the serialized bytes.
//!
//! The [`Manifest`] extends the checksum story with per-member CRCs so the
//! update protocol can ship only stale members (the delta transfer of the
//! extraction-dataflow refactor) while still verifying the whole-archive
//! checksum before installing.

use std::collections::{HashMap, HashSet};

use moira_common::errors::{MrError, MrResult};

/// A named-member archive.
///
/// Member names are unique: [`Archive::add`] rejects duplicates as a hard
/// error (first-match-wins lookups hid generator bugs), and lookups go
/// through a name index rather than a linear scan.
#[derive(Debug, Clone, Default)]
pub struct Archive {
    /// `(member name, contents)` in insertion order.
    members: Vec<(String, Vec<u8>)>,
    /// `name -> position in members`.
    index: HashMap<String, usize>,
}

impl PartialEq for Archive {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
    }
}

impl Eq for Archive {}

impl Archive {
    /// An empty archive.
    pub fn new() -> Archive {
        Archive::default()
    }

    /// Builds an archive from members; `MR_EXISTS` on a duplicate name.
    pub fn from_members(members: Vec<(String, Vec<u8>)>) -> MrResult<Archive> {
        let mut a = Archive::new();
        for (name, data) in members {
            a.add(&name, data)?;
        }
        Ok(a)
    }

    /// Adds a member; `MR_EXISTS` if the name is already present.
    pub fn add(&mut self, name: &str, data: impl Into<Vec<u8>>) -> MrResult<()> {
        if self.index.contains_key(name) {
            return Err(MrError::Exists);
        }
        self.index.insert(name.to_owned(), self.members.len());
        self.members.push((name.to_owned(), data.into()));
        Ok(())
    }

    /// Looks a member up by name (indexed, O(1)).
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.index.get(name).map(|&i| self.members[i].1.as_slice())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the archive has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates `(name, contents)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.members.iter().map(|(n, d)| (n.as_str(), d.as_slice()))
    }

    /// Member names in order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Total payload size in bytes (the paper's File Organization table
    /// reports per-file sizes; this is their sum plus framing).
    pub fn payload_size(&self) -> usize {
        self.members.iter().map(|(n, d)| n.len() + d.len()).sum()
    }

    /// The per-member CRC manifest plus the whole-archive CRC. The full
    /// CRC is taken over the serialized form without building it.
    pub fn manifest(&self) -> Manifest {
        let mut full = Crc32::new();
        self.write_to(|bytes| full.update(bytes));
        Manifest {
            entries: self
                .members
                .iter()
                .map(|(n, d)| (n.clone(), crc32(d)))
                .collect(),
            full_crc: full.finish(),
        }
    }

    /// Serializes: `u32 member count | per member: u32 name len | name |
    /// u32 data len | data`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_size() + 16);
        self.write_to(|bytes| out.extend_from_slice(bytes));
        out
    }

    /// Hands the [`to_bytes`](Archive::to_bytes) encoding to `put`, piece by
    /// piece — the one place the framing is written.
    fn write_to(&self, mut put: impl FnMut(&[u8])) {
        put(&(self.members.len() as u32).to_be_bytes());
        for (name, data) in &self.members {
            put(&(name.len() as u32).to_be_bytes());
            put(name.as_bytes());
            put(&(data.len() as u32).to_be_bytes());
            put(data);
        }
    }

    /// Parses serialized bytes; `None` on any framing violation or a
    /// duplicate member name.
    pub fn from_bytes(bytes: &[u8]) -> Option<Archive> {
        let mut pos = 0usize;
        let take_u32 = |pos: &mut usize| -> Option<u32> {
            let v = u32::from_be_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?);
            *pos += 4;
            Some(v)
        };
        let count = take_u32(&mut pos)? as usize;
        if count > 1 << 20 {
            return None;
        }
        let mut out = Archive::new();
        for _ in 0..count {
            let name_len = take_u32(&mut pos)? as usize;
            let name = String::from_utf8(bytes.get(pos..pos + name_len)?.to_vec()).ok()?;
            pos += name_len;
            let data_len = take_u32(&mut pos)? as usize;
            let data = bytes.get(pos..pos + data_len)?.to_vec();
            pos += data_len;
            out.add(&name, data).ok()?;
        }
        if pos != bytes.len() {
            return None;
        }
        Some(out)
    }
}

/// Per-member CRC-32 summary of an archive, sent ahead of the data so the
/// receiving host can name exactly the members it is missing or holds stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// `(member name, crc32 of member contents)` in archive order.
    pub entries: Vec<(String, u32)>,
    /// CRC-32 of the complete serialized archive — the install-time check.
    pub full_crc: u32,
}

impl Manifest {
    /// Serializes: `u32 entry count | per entry: u32 name len | name |
    /// u32 crc | u32 full_crc | u32 self-crc over everything before it`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (name, crc) in &self.entries {
            out.extend_from_slice(&(name.len() as u32).to_be_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&crc.to_be_bytes());
        }
        out.extend_from_slice(&self.full_crc.to_be_bytes());
        let self_crc = crc32(&out);
        out.extend_from_slice(&self_crc.to_be_bytes());
        out
    }

    /// Parses serialized bytes; `None` on framing violations, a failed
    /// self-CRC (in-flight corruption), or duplicate member names.
    pub fn from_bytes(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() < 4 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let self_crc = u32::from_be_bytes(tail.try_into().ok()?);
        if crc32(body) != self_crc {
            return None;
        }
        let mut pos = 0usize;
        let take_u32 = |pos: &mut usize| -> Option<u32> {
            let v = u32::from_be_bytes(body.get(*pos..*pos + 4)?.try_into().ok()?);
            *pos += 4;
            Some(v)
        };
        let count = take_u32(&mut pos)? as usize;
        if count > 1 << 20 {
            return None;
        }
        let mut entries = Vec::with_capacity(count.min(64));
        let mut seen: HashSet<&str> = HashSet::with_capacity(count.min(64));
        for _ in 0..count {
            let name_len = take_u32(&mut pos)? as usize;
            let name = std::str::from_utf8(body.get(pos..pos + name_len)?).ok()?;
            pos += name_len;
            if !seen.insert(name) {
                return None;
            }
            let crc = take_u32(&mut pos)?;
            entries.push((name.to_owned(), crc));
        }
        let full_crc = take_u32(&mut pos)?;
        if pos != body.len() {
            return None;
        }
        Some(Manifest { entries, full_crc })
    }
}

/// CRC-32 (IEEE 802.3) over a byte slice — the shared implementation in
/// `moira_common`, re-exported here because the update protocol's manifest
/// checksums predate the common module.
pub use moira_common::crc::crc32;
use moira_common::crc::Crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut a = Archive::new();
        a.add("passwd.db", b"babette:*:6530\n".to_vec()).unwrap();
        a.add("uid.db", b"6530.uid HS CNAME babette.passwd\n".to_vec())
            .unwrap();
        a.add("empty", Vec::new()).unwrap();
        let bytes = a.to_bytes();
        let back = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.get("empty"), Some(&[][..]));
        assert_eq!(back.get("passwd.db").unwrap(), b"babette:*:6530\n");
        assert_eq!(back.get("missing"), None);
        assert_eq!(back.member_names(), vec!["passwd.db", "uid.db", "empty"]);
        assert_eq!(back.len(), 3);
        assert!(!back.is_empty());
    }

    #[test]
    fn duplicate_member_is_hard_error() {
        let mut a = Archive::new();
        a.add("passwd.db", vec![1]).unwrap();
        assert_eq!(a.add("passwd.db", vec![2]), Err(MrError::Exists));
        // The failed add leaves the archive unchanged.
        assert_eq!(a.get("passwd.db"), Some(&[1][..]));
        assert_eq!(a.len(), 1);
        assert_eq!(
            Archive::from_members(vec![("f".into(), vec![]), ("f".into(), vec![])]),
            Err(MrError::Exists)
        );
    }

    #[test]
    fn from_bytes_rejects_duplicate_names() {
        // Hand-build a frame with two members named "f".
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_be_bytes());
        for _ in 0..2 {
            bytes.extend_from_slice(&1u32.to_be_bytes());
            bytes.push(b'f');
            bytes.extend_from_slice(&0u32.to_be_bytes());
        }
        assert!(Archive::from_bytes(&bytes).is_none());
    }

    #[test]
    fn truncation_detected() {
        let mut a = Archive::new();
        a.add("f", vec![1, 2, 3, 4, 5]).unwrap();
        let bytes = a.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Archive::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let a = Archive::from_members(vec![("f".into(), vec![9])]).unwrap();
        let mut bytes = a.to_bytes();
        bytes.push(0);
        assert!(Archive::from_bytes(&bytes).is_none());
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let a = Archive::from_members(vec![
            ("passwd.db".into(), b"babette:*:6530\n".to_vec()),
            ("uid.db".into(), b"6530.uid\n".to_vec()),
        ])
        .unwrap();
        let m = a.manifest();
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.entries[0].1, crc32(b"babette:*:6530\n"));
        assert_eq!(m.full_crc, crc32(&a.to_bytes()));
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes), Some(m));
        // Any single-byte flip fails the self-CRC.
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert!(Manifest::from_bytes(&flipped).is_none(), "byte {i}");
        }
        // Truncation too.
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn streamed_full_crc_equals_crc_of_serialized_archive() {
        let empty = Archive::new();
        assert_eq!(empty.manifest().full_crc, crc32(&empty.to_bytes()));
        let a = Archive::from_members(
            (0..50)
                .map(|i| (format!("m{i}.db"), vec![i as u8; i * 7]))
                .collect(),
        )
        .unwrap();
        assert_eq!(a.manifest().full_crc, crc32(&a.to_bytes()));
    }

    #[test]
    fn large_manifest_decodes_and_duplicates_are_rejected() {
        let entries: Vec<(String, u32)> = (0..200_000u32).map(|i| (format!("m{i}"), i)).collect();
        let m = Manifest {
            entries,
            full_crc: 7,
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()), Some(m.clone()));
        let mut dup = m;
        dup.entries[199_999].0 = "m0".to_owned();
        assert!(Manifest::from_bytes(&dup.to_bytes()).is_none());
    }

    #[test]
    fn manifest_member_crcs_localize_changes() {
        let a = Archive::from_members(vec![
            ("x".into(), vec![1, 2, 3]),
            ("y".into(), vec![4, 5, 6]),
        ])
        .unwrap();
        let b = Archive::from_members(vec![
            ("x".into(), vec![1, 2, 3]),
            ("y".into(), vec![4, 5, 7]),
        ])
        .unwrap();
        let (ma, mb) = (a.manifest(), b.manifest());
        assert_eq!(ma.entries[0], mb.entries[0]);
        assert_ne!(ma.entries[1], mb.entries[1]);
        assert_ne!(ma.full_crc, mb.full_crc);
    }

    #[test]
    fn crc_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_detects_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 1;
            assert_ne!(crc32(&flipped), base, "byte {i}");
        }
    }
}
