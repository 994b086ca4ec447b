//! CRC-32 (IEEE 802.3, reflected, polynomial `0xedb88320`), shared by the
//! DCM archive manifest, the update protocol's host side and the
//! write-ahead log and checkpoint codec.
//!
//! One implementation so a WAL frame checksum and an archive member
//! checksum computed over the same bytes always agree — the recovery
//! torture tests compare both.
//!
//! The kernel is table-driven *slicing-by-8*: eight 256-entry tables,
//! built at compile time, fold eight input bytes per step with eight
//! lookups instead of the bitwise loop's 64 shift-and-mask steps; the
//! sub-8-byte tail goes through the first table one byte at a time.
//! [`Crc32`] is the incremental form and [`crc32`] its one-shot call —
//! both run the same kernel, so a checksum fed in pieces equals the
//! checksum of the concatenation.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0][b]` is the CRC of byte `b`; `TABLES[k][b]` is the CRC of
/// `b` followed by `k` zero bytes, so one step can fold byte `i` of an
/// 8-byte block through `TABLES[7 - i]`.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Folds `data` into a running (pre-inverted) CRC register.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<8>();
    for b in blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    crc
}

/// An incremental CRC-32: [`update`](Crc32::update) any number of slices,
/// then [`finish`](Crc32::finish). The result equals [`crc32`] over the
/// concatenated input.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds the next bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3) over a byte slice — [`Crc32`] in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Mt;

    /// The bitwise loop the tables replaced: eight shift-and-mask steps
    /// per byte. The oracle the kernel is checked against.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Mt::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"moira wal frame");
        let mut flipped = b"moira wal frame".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(crc32(&flipped), base);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn kernel_matches_bitwise_at_every_length_and_alignment() {
        let buf = seeded(64 + 8, 1);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn kernel_matches_bitwise_on_one_mib() {
        let buf = seeded(1 << 20, 2);
        assert_eq!(crc32(&buf), bitwise(&buf));
    }

    #[test]
    fn incremental_matches_one_shot_at_random_splits() {
        let buf = seeded(4096 + 13, 3);
        let want = crc32(&buf);
        let mut rng = Mt::new(4);
        for _ in 0..200 {
            let mut c = Crc32::new();
            let mut pos = 0;
            while pos < buf.len() {
                let step = rng.below(40) as usize;
                let end = (pos + step).min(buf.len());
                c.update(&buf[pos..end]);
                pos = end;
            }
            assert_eq!(c.finish(), want);
        }
    }
}
