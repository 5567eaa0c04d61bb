//! On-disk format constants, checksumming, and the error type.
//!
//! Two artifact kinds share the framing conventions defined here:
//!
//! * `snapshot-<generation>.skad` — a full checkpoint of one shard's
//!   detector state (magic `SKAD`).
//! * `wal-<segment>.skwl` — an append-only log of ingested rows since the
//!   last checkpoint (magic `SKWL`), one frame per logged micro-batch.
//!
//! Both start with a 4-byte magic and a format-version byte, and end every
//! integrity-protected region with a [`checksum64`] of the bytes it covers.
//! Readers check the magic and the version before the checksum, so a file
//! of another version fails as "unsupported format version", not as
//! corrupt. The format is self-contained: no external serializer,
//! fixed-width little-endian fields only (see `sketchad_sketch::wire`).

use sketchad_sketch::wire::WireError;

/// Magic bytes opening every snapshot file.
pub const MAGIC_SNAPSHOT: [u8; 4] = *b"SKAD";

/// Magic bytes opening every WAL segment file.
pub const MAGIC_WAL: [u8; 4] = *b"SKWL";

/// Version of the on-disk format. Bump on any incompatible layout change;
/// readers reject files whose version they do not understand.
///
/// Version 2 (`sketchad-wal/v2`): one WAL frame per logged micro-batch, and
/// the word-at-a-time [`checksum64`] on both file kinds. Files of any other
/// version are rejected.
pub const FORMAT_VERSION: u8 = 2;

/// File extension for snapshot files.
pub const SNAPSHOT_EXT: &str = "skad";

/// File extension for WAL segment files.
pub const WAL_EXT: &str = "skwl";

/// Odd multiplier of the checksum step (2⁶⁴ / φ, rounded to odd).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: absorbs the word `w` into the state `h`.
///
/// For a fixed `w` the step is a bijection of `h` (xor, multiply by an odd
/// constant, rotate), and for a fixed `h` it is injective in `w`. So two
/// inputs of the same length that differ in exactly one word (or tail
/// byte) reach different states at that word and keep them different to
/// the end.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MUL).rotate_left(31)
}

/// 64-bit checksum of `bytes`: one mixing step per little-endian u64 word,
/// one per byte of the tail, then a bijective 64-bit finalizer. The
/// length seeds the state.
///
/// Any single changed byte — hence any single flipped bit — changes the
/// checksum, whatever the buffer. One multiply covers eight bytes, so a
/// WAL frame is checksummed at a fraction of a nanosecond per byte. This
/// is an integrity check against torn or bit-rotted files, not an
/// adversarial MAC.
pub fn checksum64(bytes: &[u8]) -> u64 {
    finish(absorb(seed(bytes), bytes))
}

/// [`checksum64`] of four buffers at once, bit for bit the four serial
/// sums.
///
/// Each sum is one dependent chain of multiplies, so a single checksum
/// runs at the multiply's latency. Here the four chains advance together
/// over the words all four buffers have, which keeps four multiplies in
/// flight; each buffer's words past the shortest one's, and its tail
/// bytes, then finish serially. With an empty buffer among the four, all
/// of them finish serially.
pub(crate) fn checksum64x4(bufs: [&[u8]; 4]) -> [u64; 4] {
    let mut h = bufs.map(seed);
    let common = bufs.iter().map(|b| b.len() / 8).min().unwrap_or(0) * 8;
    let [a, b, c, d] = bufs.map(|buf| buf[..common].chunks_exact(8));
    for (((a, b), c), d) in a.zip(b).zip(c).zip(d) {
        h[0] = step(h[0], word(a));
        h[1] = step(h[1], word(b));
        h[2] = step(h[2], word(c));
        h[3] = step(h[3], word(d));
    }
    std::array::from_fn(|lane| finish(absorb(h[lane], &bufs[lane][common..])))
}

/// The state a checksum of `bytes` starts from: the length, absorbed.
#[inline(always)]
fn seed(bytes: &[u8]) -> u64 {
    step(0x2545_f491_4f6c_dd1d, bytes.len() as u64)
}

/// The little-endian u64 in an 8-byte chunk.
#[inline(always)]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Absorbs `bytes` into the state `h`: one step per whole word, then one
/// per tail byte.
#[inline(always)]
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    for &b in words.remainder() {
        h = step(h, u64::from(b));
    }
    h
}

/// The splitmix64 finalizer: xor-shifts and odd multiplies, each a
/// bijection, so distinct states stay distinct.
#[inline(always)]
fn finish(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Everything that can go wrong reading or writing durable state.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is structurally invalid: bad magic, unsupported version,
    /// checksum mismatch, or an implausible field.
    Corrupt {
        /// What the reader was validating when it failed.
        context: &'static str,
    },
    /// A wire-level decode ran out of bytes or hit a hostile length.
    Wire(WireError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable state I/O error: {e}"),
            DurableError::Corrupt { context } => {
                write!(f, "corrupt durable state file: {context}")
            }
            DurableError::Wire(e) => write!(f, "durable state decode error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Wire(e) => Some(e),
            DurableError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<WireError> for DurableError {
    fn from(e: WireError) -> Self {
        DurableError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 512 bytes of varied content, so every word sees a non-trivial state.
    fn buffer() -> Vec<u8> {
        (0..512u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
            .collect()
    }

    /// Exhaustive over a 512-byte buffer and, for the byte-wise tail, its
    /// 509-byte prefix: every change of one byte to any other value.
    #[test]
    fn every_single_byte_change_is_detected() {
        let data = buffer();
        for len in [data.len(), data.len() - 3] {
            let data = &data[..len];
            let base = checksum64(data);
            let mut changed = data.to_vec();
            for i in 0..len {
                for value in (0..=255u8).filter(|&v| v != data[i]) {
                    changed[i] = value;
                    assert_ne!(
                        checksum64(&changed),
                        base,
                        "byte {i} set to {value:#04x} undetected (len {len})"
                    );
                }
                changed[i] = data[i];
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        for data in [buffer(), vec![0u8; 512]] {
            let base = checksum64(&data);
            let mut flipped = data.clone();
            for i in 0..data.len() {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        checksum64(&flipped),
                        base,
                        "bit {bit} of byte {i} undetected"
                    );
                    flipped[i] ^= 1 << bit;
                }
            }
        }
    }

    /// Every length from 0 to 40 bytes in every lane, against the other
    /// lanes at other lengths: the lockstep part covers the shortest
    /// buffer's words, the serial finish everything past them.
    #[test]
    fn four_lane_checksum_equals_four_serial_sums() {
        let data = buffer();
        let serial = |bufs: [&[u8]; 4]| bufs.map(checksum64);
        for len in 0..=40 {
            for lane in 0..4 {
                for other in [0, 7, 8, 9, 17, 40] {
                    let mut bufs: [&[u8]; 4] =
                        std::array::from_fn(|i| &data[i * 41..i * 41 + other + i]);
                    bufs[lane] = &data[lane..lane + len];
                    assert_eq!(
                        checksum64x4(bufs),
                        serial(bufs),
                        "lane {lane} of {len} bytes, others near {other}"
                    );
                }
            }
        }
    }

    /// Frame-sized buffers (~100 KB, the size of a 256-row frame at
    /// d = 48) of unequal lengths.
    #[test]
    fn four_lane_checksum_equals_serial_on_frame_sized_buffers() {
        let data: Vec<u8> = (0..100_003u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 11) as u8)
            .collect();
        for lens in [
            [98_320, 98_320, 98_320, 98_320],
            [98_320, 100_003, 99_999, 98_321],
            [100_000, 16, 98_320, 0],
        ] {
            let bufs: [&[u8]; 4] = std::array::from_fn(|i| &data[100_003 - lens[i]..]);
            assert_eq!(checksum64x4(bufs), bufs.map(checksum64), "{lens:?}");
        }
    }

    #[test]
    fn length_is_part_of_the_checksum() {
        // Trailing zeros are not free: every prefix of a zero buffer has a
        // checksum of its own.
        let zeros = [0u8; 64];
        let sums: std::collections::BTreeSet<u64> =
            (0..=zeros.len()).map(|n| checksum64(&zeros[..n])).collect();
        assert_eq!(sums.len(), zeros.len() + 1);
    }
}
