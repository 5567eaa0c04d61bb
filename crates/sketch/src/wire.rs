//! The one module that knows the workspace's byte layout.
//!
//! Every binary format the workspace reads or writes is framed here:
//!
//! * `sketchad-rows/v1` stream files (`sketchad_core::rowfmt`): a
//!   magic-and-version preamble, fixed header fields, then rows of `f64`s;
//! * WAL segments (`sketchad_durable::wal`): a checksummed header, then
//!   one checksummed frame of `f64` rows per logged micro-batch;
//! * `.skad` snapshots (`sketchad_durable::snapshot`): a preamble, fixed
//!   fields and an opaque payload under one trailing checksum;
//! * the detector state inside that payload: the sketches' `encode_state`
//!   and `SketchDetector::save_state`, with its model and score quantile.
//!
//! The encoding is deliberately boring: fixed-width little-endian integers
//! and `f64::to_bits` for floats, so a value round-trips **bitwise** (NaN
//! payloads included) and recovery is deterministic across platforms.
//! There is no varint cleverness and no external dependency. The pieces:
//!
//! * [`ByteWriter`] / [`ByteReader`]: fixed-width [`Field`]s one at a
//!   time, and whole `f64` blocks ([`ByteWriter::put_f64s`],
//!   [`ByteReader::get_f64s_into`]) bounds-checked once per block: the
//!   state codecs, and the hot loops that frame WAL rows and decode `.rows`
//!   rows;
//! * [`iter_f64s`]: a block's values straight off the bytes, for WAL
//!   replay to append to its reused buffer;
//! * [`ByteReader::get_preamble`]: the magic-then-version check every
//!   format opens with, magic first;
//! * [`checksum64`], written by [`ByteWriter::put_checksum`] and verified
//!   through [`split_checksum`]: the trailer of every integrity-protected
//!   region.

/// Appends fixed-width little-endian values to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer around an existing buffer (appends to its end).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forgets everything written, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub(crate) fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Appends each `f64`'s bit pattern (no length prefix): the block
    /// [`ByteReader::get_f64s_into`] reads back.
    pub fn put_f64s(&mut self, values: &[f64]) {
        let at = self.buf.len();
        self.buf.resize(at + values.len() * 8, 0);
        for (cell, v) in self.buf[at..].chunks_exact_mut(8).zip(values) {
            cell.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a `u64` length prefix followed by each `f64`'s bit pattern.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_u64(values.len() as u64);
        self.put_f64s(values);
    }

    /// Appends a format's preamble: the four magic bytes, then the version
    /// in its own width.
    pub fn put_preamble<V: Field>(&mut self, magic: [u8; 4], version: V) {
        self.put_bytes(&magic);
        version.put(self);
    }

    /// Appends the [`checksum64`] of the bytes written since offset `from`:
    /// the trailer [`split_checksum`] verifies.
    pub fn put_checksum(&mut self, from: usize) {
        self.put_u64(checksum64(&self.buf[from..]));
    }
}

/// Error produced when a [`ByteReader`] runs out of bytes or reads an
/// implausible length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the reader was trying to decode.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire data while reading {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// A fixed-width unsigned integer, written little-endian: the fields of
/// every format, and the version a preamble stores (a `u8` in the durable
/// files, a `u16` in `.rows` files).
pub trait Field: Copy + Eq {
    /// Appends the value.
    fn put(self, w: &mut ByteWriter);
    /// Reads a value.
    fn get(r: &mut ByteReader<'_>, context: &'static str) -> Result<Self, WireError>;
}

/// Implements [`Field`] for each integer type, with the named
/// `ByteWriter::put_*` / `ByteReader::get_*` pair for it.
macro_rules! fields {
    ($($t:ident: $put:ident, $get:ident;)*) => {
        $(impl Field for $t {
            fn put(self, w: &mut ByteWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut ByteReader<'_>, context: &'static str) -> Result<Self, WireError> {
                r.get_array(context).map(Self::from_le_bytes)
            }
        })*
        impl ByteWriter {$(
            #[doc = concat!("Appends a `", stringify!($t), "`, little-endian.")]
            pub fn $put(&mut self, v: $t) {
                v.put(self);
            }
        )*}
        impl ByteReader<'_> {$(
            #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
            pub fn $get(&mut self, context: &'static str) -> Result<$t, WireError> {
                $t::get(self, context)
            }
        )*}
    };
}

fields! {
    u8: put_u8, get_u8;
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
}

/// Why [`ByteReader::get_preamble`] refused a preamble. Magic is checked
/// before the version, so a file of another format reads as a bad magic
/// and a file of another version of this one as a bad version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreambleError<V> {
    /// Fewer bytes than the magic and the version take.
    Short,
    /// The first four bytes, which are not the expected magic.
    Magic([u8; 4]),
    /// The version found, which is not the expected one.
    Version(V),
}

/// Reads fixed-width little-endian values from a byte slice, tracking the
/// cursor position.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads the next `n` bytes as they are.
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn get_array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        Ok(self.get_bytes(N, context)?.try_into().expect("N bytes"))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Reads a field and fails unless it holds `value`: a tag, a version
    /// or a shape the reader must match.
    pub fn require<V: Field>(&mut self, value: V, context: &'static str) -> Result<(), WireError> {
        (V::get(self, context)? == value)
            .then_some(())
            .ok_or(WireError { context })
    }

    /// Reads a `u64` length prefix as a `usize`.
    fn get_len(&mut self, context: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.get_u64(context)?).map_err(|_| WireError { context })
    }

    /// Reads a `u64` length prefix followed by that many raw bytes.
    pub fn get_len_bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_len(context)?;
        self.get_bytes(len, context)
    }

    /// Fills `out` from a block of `f64` bit patterns (no length prefix),
    /// checking once that the whole block is there; on an error nothing is
    /// read.
    pub fn get_f64s_into(
        &mut self,
        out: &mut [f64],
        context: &'static str,
    ) -> Result<(), WireError> {
        let bytes = self.get_bytes(out.len().saturating_mul(8), context)?;
        for (v, x) in out.iter_mut().zip(iter_f64s(bytes)) {
            *v = x;
        }
        Ok(())
    }

    /// Reads a block of `n` `f64` bit patterns (no length prefix). The
    /// block's bytes are checked before anything is reserved for it.
    pub fn get_f64s(&mut self, n: usize, context: &'static str) -> Result<Vec<f64>, WireError> {
        let bytes = self.get_bytes(n.checked_mul(8).ok_or(WireError { context })?, context)?;
        Ok(iter_f64s(bytes).collect())
    }

    /// Reads a `u64` length prefix followed by that many `f64` bit patterns.
    pub fn get_f64_vec(&mut self, context: &'static str) -> Result<Vec<f64>, WireError> {
        let len = self.get_len(context)?;
        self.get_f64s(len, context)
    }

    /// Reads a format's preamble (see [`ByteWriter::put_preamble`]) and
    /// checks the magic, then the version, against the expected ones.
    pub fn get_preamble<V: Field>(
        &mut self,
        magic: [u8; 4],
        version: V,
    ) -> Result<(), PreambleError<V>> {
        let found = self.get_array("preamble magic");
        match (found, V::get(self, "preamble version")) {
            (Ok(found), _) if found != magic => Err(PreambleError::Magic(found)),
            (Ok(_), Ok(found)) if found != version => Err(PreambleError::Version(found)),
            (Ok(_), Ok(_)) => Ok(()),
            _ => Err(PreambleError::Short),
        }
    }
}

/// The `f64`s whose little-endian bit patterns fill `bytes`, in order; a
/// tail shorter than eight bytes is ignored.
#[inline]
pub fn iter_f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|cell| f64::from_le_bytes(cell.try_into().expect("8-byte cell")))
}

/// Splits a region into the bytes its trailing [`checksum64`] covers and
/// whether that checksum holds. A region shorter than the trailer has
/// nothing covered and fails.
pub fn split_checksum(bytes: &[u8]) -> (&[u8], bool) {
    match bytes.split_last_chunk::<8>() {
        Some((body, sum)) => (body, checksum64(body) == u64::from_le_bytes(*sum)),
        None => (&[], false),
    }
}

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
pub fn checksum64x4(bufs: [&[u8]; 4]) -> [u64; 4] {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7ff8_0000_0000_1234)); // NaN with payload
        w.put_f64_slice(&[1.5, -2.25, 1e-300]);
        w.put_len_bytes(b"skad");
        let bytes = w.into_vec();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert_eq!(r.get_u32("t").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64("t").unwrap().to_bits(), 0x7ff8_0000_0000_1234);
        assert_eq!(r.get_f64_vec("t").unwrap(), vec![1.5, -2.25, 1e-300]);
        assert_eq!(r.get_len_bytes("t").unwrap(), b"skad");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(r.get_u64("truncated").is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~2^64 f64s follow
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64_vec("hostile").is_err());
        let mut r2 = ByteReader::new(&bytes);
        assert!(r2.get_len_bytes("hostile").is_err());
    }

    #[test]
    fn linear_sketch_decoders_survive_truncation_and_byte_flips() {
        use crate::{CountSketch, MatrixSketch, MergeableSketch, RandomProjection};
        use std::time::{Duration, Instant};

        // Every prefix and every single-byte corruption (each bit, and all
        // eight at once) of a valid blob must decode to `Ok` or `Err`
        // promptly: no panic, and no replay loop driven by a corrupt count.
        fn probe<S: MatrixSketch>(live: &S, fresh: impl Fn() -> S) {
            let mut w = ByteWriter::new();
            assert!(live.encode_state(&mut w));
            let blob = w.into_vec();
            let started = Instant::now();
            for len in 0..blob.len() {
                let mut r = ByteReader::new(&blob[..len]);
                assert!(fresh().decode_state(&mut r).is_err(), "{len}-byte prefix");
            }
            let mut bytes = blob.clone();
            for i in 0..blob.len() {
                for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xff] {
                    bytes[i] = blob[i] ^ mask;
                    let _ = fresh().decode_state(&mut ByteReader::new(&bytes));
                }
                bytes[i] = blob[i];
            }
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{}: corrupt blobs decoded too slowly",
                live.name()
            );
        }

        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| (0..3).map(|j| ((i * 3 + j) as f64).sin()).collect())
            .collect();
        let mut cs = CountSketch::new(4, 3, 2, 7);
        let mut rp = RandomProjection::new(4, 3, 7);
        // A merged RP has drawn fewer columns than it has seen rows.
        let mut other = RandomProjection::new(4, 3, 8);
        for r in &rows {
            cs.update(r);
            rp.update(r);
            other.update(r);
        }
        rp.merge_from(&other);
        probe(&cs, || CountSketch::new(4, 3, 2, 7));
        probe(&rp, || RandomProjection::new(4, 3, 7));
    }

    #[test]
    fn blocks_and_preambles_roundtrip() {
        let values = [1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_1234), 1e-300];
        let mut w = ByteWriter::new();
        w.put_preamble(*b"TEST", 3u16);
        w.put_f64s(&values);
        w.put_checksum(0);
        let bytes = w.into_vec();
        assert_eq!(bytes.len(), 4 + 2 + 32 + 8);

        let (body, ok) = split_checksum(&bytes);
        assert!(ok);
        let mut r = ByteReader::new(body);
        assert_eq!(r.get_preamble(*b"TEST", 3u16), Ok(()));
        let mut out = [0.0; 4];
        r.get_f64s_into(&mut out, "t").unwrap();
        assert_eq!(out.map(f64::to_bits), values.map(f64::to_bits));
        assert!(r.is_exhausted());

        let decoded: Vec<u64> = iter_f64s(&body[6..]).map(f64::to_bits).collect();
        assert_eq!(decoded, values.map(f64::to_bits));
    }

    #[test]
    fn preamble_checks_magic_before_version() {
        let mut w = ByteWriter::new();
        w.put_preamble(*b"SKWL", 2u8);
        let bytes = w.into_vec();
        let check = |magic, version: u8| ByteReader::new(&bytes).get_preamble(magic, version);
        assert_eq!(check(*b"SKWL", 2), Ok(()));
        assert_eq!(check(*b"SKWL", 1), Err(PreambleError::Version(2)));
        assert_eq!(check(*b"SKAD", 1), Err(PreambleError::Magic(*b"SKWL")));
        let mut r = ByteReader::new(&bytes[..4]);
        assert_eq!(r.get_preamble(*b"SKWL", 2u8), Err(PreambleError::Short));
        // Two-byte versions read little-endian.
        let mut r = ByteReader::new(b"SKRW\x01\x02");
        assert_eq!(
            r.get_preamble(*b"SKRW", 1u16),
            Err(PreambleError::Version(0x0201))
        );
    }

    #[test]
    fn a_damaged_or_missing_trailer_fails() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        let from = w.len();
        w.put_bytes(b"payload");
        w.put_checksum(from);
        let bytes = w.into_vec();
        assert_eq!(split_checksum(&bytes[4..]), (&b"payload"[..], true));
        let (_, whole) = split_checksum(&bytes);
        assert!(!whole, "the sum covers only the bytes after `from`");
        let mut bad = bytes[4..].to_vec();
        bad[2] ^= 1;
        assert!(!split_checksum(&bad).1);
        for cut in 0..8 {
            assert!(!split_checksum(&bytes[4..4 + cut]).1);
        }
    }

    #[test]
    fn short_blocks_read_nothing() {
        let mut w = ByteWriter::new();
        w.put_f64s(&[1.0, 2.0]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes[..15]);
        let mut out = [9.0; 2];
        assert!(r.get_f64s_into(&mut out, "short").is_err());
        assert_eq!((out, r.remaining()), ([9.0; 2], 15));
        assert!(r.get_f64s(usize::MAX, "hostile").is_err());
        assert_eq!(r.get_f64s(1, "one").unwrap(), vec![1.0]);
    }

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
