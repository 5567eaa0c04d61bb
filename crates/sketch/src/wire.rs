//! Minimal little-endian binary codec shared by the persistence tier.
//!
//! Everything the durable state tier writes to disk — sketch state inside
//! snapshots, detector counters, WAL rows — goes through these two types.
//! The encoding is deliberately boring: fixed-width little-endian integers
//! and `f64::to_bits` for floats, so a value round-trips **bitwise** (NaN
//! payloads included) and recovery is deterministic across platforms of the
//! same endianness-normalized wire format. There is no varint cleverness and
//! no external dependency.

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

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Appends a `u64` length prefix followed by each `f64`'s bit pattern.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_f64(v);
        }
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

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    /// Reads a `u64` length prefix followed by that many raw bytes.
    pub fn get_len_bytes(&mut self, context: &'static str) -> Result<&'a [u8], WireError> {
        let len = self.get_u64(context)?;
        if len > self.remaining() as u64 {
            return Err(WireError { context });
        }
        self.take(len as usize, context)
    }

    /// Reads a `u64` length prefix followed by that many `f64` bit patterns.
    pub fn get_f64_vec(&mut self, context: &'static str) -> Result<Vec<f64>, WireError> {
        let len = self.get_u64(context)?;
        if len
            .checked_mul(8)
            .is_none_or(|b| b > self.remaining() as u64)
        {
            return Err(WireError { context });
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(self.get_f64(context)?);
        }
        Ok(out)
    }
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
}
