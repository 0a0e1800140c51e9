//! Canonical binary encoding substrate for the persistence layer and the
//! wire protocol.
//!
//! A type gets a byte format only if something reads it back. Nine do, each
//! a canonical `encode`/`decode` pair built on the little-endian
//! [`ByteWriter`]/[`ByteReader`] helpers here:
//!
//! | tag | format | decoded by |
//! |---|---|---|
//! | `0x03` | `MgSummary` | `ParallelFrequencyEstimator` |
//! | `0x04` | `ParallelFrequencyEstimator` | `InfiniteHeavyHitters` |
//! | `0x05` | `InfiniteHeavyHitters` | `ShardState` |
//! | `0x07` | `AtomicCountMin` | `ShardState` |
//! | `0x09` | `PaneWindow` | `ShardState` |
//! | `0x10` | `EpochRecord` | `SnapshotStore` (`psfa-store`) |
//! | `0x11` | `ShardState` | `EpochRecord` |
//! | `0xA0` | `Request` | `psfa-serve`'s server |
//! | `0xA1` | `Response` | `psfa-serve`'s client |
//!
//! The design goals, in order:
//!
//! 1. **Never panic on untrusted bytes.** `decode` must return a typed
//!    [`CodecError`] for truncated or corrupted input; length-prefixed
//!    collections are validated against the bytes actually remaining before
//!    anything is allocated, so a corrupted length field cannot trigger an
//!    out-of-memory abort.
//! 2. **Determinism.** Encoding the same logical state twice produces
//!    identical bytes (hash-map contents are sorted before writing), so
//!    byte-level comparison and checksumming are meaningful.
//! 3. **Self-description.** Every top-level type writes a one-byte tag and a
//!    one-byte version, so a reader pointed at the wrong blob fails with
//!    [`CodecError::BadTag`], and one pointed at another version of the
//!    right type with [`CodecError::UnsupportedVersion`], instead of
//!    misinterpreting counters.
//!
//! Checksums and file framing are *not* handled here — that is the segment
//! log's job (`psfa-store`); this module is only about turning one summary
//! into bytes and back.

use std::fmt;

/// Typed decoding failure. Carried upward by `psfa-store` as the `Codec`
/// variant of its `StoreError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-width field or payload could be read.
    UnexpectedEof {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes that were actually remaining.
        remaining: usize,
    },
    /// The leading type tag did not match the expected summary type.
    BadTag {
        /// Tag the decoder expected.
        expected: u8,
        /// Tag found in the input.
        found: u8,
    },
    /// The encoding version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the input.
        found: u8,
    },
    /// A decoded field failed a structural validity check.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::BadTag { expected, found } => {
                write!(
                    f,
                    "bad type tag: expected {expected:#04x}, found {found:#04x}"
                )
            }
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported encoding version {found}")
            }
            CodecError::Invalid(what) => write!(f, "invalid encoded state: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian append-only byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a run of little-endian `u64`s with one resize (no length
    /// prefix; the byte-for-byte equivalent of `put_u64` on each).
    pub fn put_u64s(&mut self, vs: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= u32::MAX as usize);
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }
}

impl From<Vec<u8>> for ByteWriter {
    /// A writer that appends after `buf`'s contents, in its allocation —
    /// for sizing a writer up front or reusing one buffer across encodes.
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

/// Little-endian cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a run of `n` little-endian `u64`s with one bounds check. The
    /// bytes are checked to be present before the result is allocated.
    pub fn get_u64s(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        let b = self.take(n.saturating_mul(8))?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u32`-length-prefixed byte run.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32` collection length and validates it against the bytes
    /// remaining (each element occupying at least `min_elem_bytes`), so a
    /// corrupted length cannot drive a huge allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_u32()? as usize;
        let needed = len.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::UnexpectedEof {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads and checks a type tag followed by a version byte. The version
    /// must be exactly `version`: no decoder reads an older layout, so any
    /// other version — older or newer — is
    /// [`CodecError::UnsupportedVersion`].
    pub fn expect_header(&mut self, tag: u8, version: u8) -> Result<(), CodecError> {
        let found = self.get_u8()?;
        if found != tag {
            return Err(CodecError::BadTag {
                expected: tag,
                found,
            });
        }
        let found = self.get_u8()?;
        if found != version {
            return Err(CodecError::UnsupportedVersion { found });
        }
        Ok(())
    }

    /// Errors unless every byte has been consumed — catches trailing
    /// garbage after a top-level decode.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes after encoded value"));
        }
        Ok(())
    }
}

/// Writes a type tag and version byte (the counterpart of
/// [`ByteReader::expect_header`]).
pub fn put_header(w: &mut ByteWriter, tag: u8, version: u8) {
    w.put_u8(tag);
    w.put_u8(version);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        put_header(&mut w, 0x42, 1);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(0.125);
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        r.expect_header(0x42, 1).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), 0.125);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        r.expect_end().unwrap();
    }

    #[test]
    fn bulk_u64_runs_match_the_scalar_layout() {
        let values = [0, 1, u64::MAX, 0x0102_0304_0506_0708, 42];
        let mut scalar = ByteWriter::new();
        scalar.put_u8(9);
        for &v in &values {
            scalar.put_u64(v);
        }
        let mut bulk = ByteWriter::from(vec![9]);
        bulk.put_u64s(&values);
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, scalar.into_bytes());

        let mut r = ByteReader::new(&bytes[1..]);
        assert_eq!(r.get_u64s(values.len()).unwrap(), values);
        r.expect_end().unwrap();
        // A run longer than the bytes present, or one whose byte count
        // overflows, is refused before anything is allocated.
        for n in [values.len() + 1, usize::MAX] {
            let mut r = ByteReader::new(&bytes[1..]);
            assert!(matches!(
                r.get_u64s(n),
                Err(CodecError::UnexpectedEof { remaining: 40, .. })
            ));
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_u64(99);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::UnexpectedEof {
                needed: 8,
                remaining: 5
            })
        ));
    }

    #[test]
    fn bad_tag_and_version_are_rejected() {
        let mut w = ByteWriter::new();
        put_header(&mut w, 0x01, 9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.expect_header(0x02, 9),
            Err(CodecError::BadTag {
                expected: 0x02,
                found: 0x01
            })
        ));
        // The version must match exactly: newer and older both fail.
        for expected in [8, 10] {
            let mut r = ByteReader::new(&bytes);
            assert!(matches!(
                r.expect_header(0x01, expected),
                Err(CodecError::UnsupportedVersion { found: 9 })
            ));
        }
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.expect_header(0x01, 9), Ok(()));
    }

    #[test]
    fn corrupted_length_cannot_demand_absurd_allocations() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // claims 4 billion elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get_len(16),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(CodecError::Invalid(_))));
    }
}
