//! Canonical byte serialization for checkpointable state.
//!
//! The `.nsck` snapshot format (netshed-service) persists every piece of
//! *essential* monitor state — predictor histories, sketch tables, RNG
//! positions, interval accumulators — and restores it bit-identically. The
//! encoding rules live here, at the bottom of the dependency graph, so every
//! crate can serialize its own state without knowing about the container:
//!
//! * all integers are little-endian; `usize` widens to `u64`;
//! * `f64` round-trips through [`f64::to_bits`] (bit-exact, NaN-preserving);
//! * strings and byte blobs are length-prefixed (`u64`);
//! * optionals carry a `u8` presence tag (0 = absent, 1 = present).
//!
//! [`StateWriter`] appends to an in-memory buffer; [`StateReader`] consumes
//! one, failing with a typed [`StateError`] on truncation, domain violations
//! or geometry mismatches. Readers are expected to call
//! [`StateReader::finish`] (or be framed by a length-prefixed blob) so
//! trailing garbage cannot hide.

/// Errors produced while serializing or restoring checkpointable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The buffer ended before the value could be read.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A decoded value violates its domain (bad tag, bad UTF-8, …).
    Corrupt(String),
    /// The component does not support checkpointing.
    Unsupported(String),
    /// Restored state disagrees with the live object it must load into.
    Mismatch {
        /// What is being compared (e.g. "policy name").
        what: String,
        /// The value found in the snapshot.
        found: String,
        /// The value the live object expected.
        expected: String,
    },
    /// A reader finished with bytes left over (framing bug or corruption).
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl StateError {
    /// Convenience constructor for [`StateError::Unsupported`].
    pub fn unsupported(component: impl Into<String>) -> Self {
        StateError::Unsupported(component.into())
    }

    /// Convenience constructor for [`StateError::Corrupt`].
    pub fn corrupt(message: impl Into<String>) -> Self {
        StateError::Corrupt(message.into())
    }

    /// Convenience constructor for [`StateError::Mismatch`].
    pub fn mismatch(
        what: impl Into<String>,
        found: impl std::fmt::Display,
        expected: impl std::fmt::Display,
    ) -> Self {
        StateError::Mismatch {
            what: what.into(),
            found: found.to_string(),
            expected: expected.to_string(),
        }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated { needed, remaining } => {
                write!(f, "state ends early: needed {needed} bytes, {remaining} left")
            }
            StateError::Corrupt(message) => write!(f, "corrupt state: {message}"),
            StateError::Unsupported(component) => {
                write!(f, "{component} does not support checkpointing")
            }
            StateError::Mismatch { what, found, expected } => {
                write!(f, "state mismatch: snapshot {what} is {found}, live object has {expected}")
            }
            StateError::TrailingBytes { remaining } => {
                write!(f, "state has {remaining} unconsumed trailing bytes")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Appends canonically-encoded values to a byte buffer.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes an optional `u64` (presence tag + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    /// Writes an optional `f64` (presence tag + value).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f64(v);
            }
        }
    }

    /// Writes an optional string (presence tag + value).
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.str(v);
            }
        }
    }
}

/// Consumes a buffer written by [`StateWriter`].
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`StateError::TrailingBytes`] unless fully consumed.
    pub fn finish(self) -> Result<(), StateError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(StateError::TrailingBytes { remaining }),
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < len {
            return Err(StateError::Truncated { needed: len, remaining: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        let bytes = self.take(2)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        let bytes = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(word))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, StateError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StateError::corrupt(format!("length {v} overflows usize")))
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean; any byte other than 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StateError::corrupt(format!("bool tag {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StateError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StateError::corrupt("string is not UTF-8".to_string()))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(StateError::corrupt(format!("option tag {other}"))),
        }
    }

    /// Reads an optional `f64`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, StateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(StateError::corrupt(format!("option tag {other}"))),
        }
    }

    /// Reads an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>, StateError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(StateError::corrupt(format!("option tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_covers_every_primitive() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("hälló");
        w.bytes(&[1, 2, 3]);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.opt_f64(Some(2.5));
        w.opt_str(Some("x"));
        w.opt_str(None);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hälló");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.opt_str().unwrap().as_deref(), Some("x"));
        assert_eq!(r.opt_str().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_reports_needed_and_remaining() {
        let mut w = StateWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(
            r.u64().unwrap_err(),
            StateError::Truncated { needed: 8, remaining: 4 },
            "an 8-byte read over 4 bytes must name both numbers"
        );
    }

    #[test]
    fn bad_tags_are_corrupt_not_panics() {
        let mut r = StateReader::new(&[7]);
        assert!(matches!(r.bool().unwrap_err(), StateError::Corrupt(_)));
        let mut r = StateReader::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(r.opt_u64().unwrap_err(), StateError::Corrupt(_)));
        // A length prefix larger than the buffer truncates, never allocates.
        let mut huge = StateWriter::new();
        huge.u64(u64::MAX);
        let bytes = huge.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = StateWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let _ = r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err(), StateError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut w = StateWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(r.str().unwrap_err(), StateError::Corrupt(_)));
    }
}
