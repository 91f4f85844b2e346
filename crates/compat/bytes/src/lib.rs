//! Offline stand-in for the `bytes` crate.
//!
//! Provides the subset netshed uses: [`Bytes`], a cheaply cloneable,
//! reference-counted, immutable byte slice with O(1) sub-slicing. The storage
//! is a shared `Arc<Vec<u8>>` plus a window, so cloning a payload or slicing a
//! template never copies the underlying bytes, and — as upstream — turning a
//! `Vec<u8>` into `Bytes` takes the vector's buffer without copying it.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty byte slice.
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Wraps a static slice. (Unlike upstream `bytes` this copies once into
    /// shared storage; netshed only uses it for short signature constants.)
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `bytes` into new shared storage.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from_vec(bytes.to_vec())
    }

    /// Shares `vec`'s buffer as the storage (no byte copy).
    fn from_vec(vec: Vec<u8>) -> Self {
        let end = vec.len();
        Bytes { data: Arc::new(vec), start: 0, end }
    }

    /// Number of bytes in the slice.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` if the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-slice sharing the same storage (O(1), no copy).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice {begin}..{end} out of bounds of {len}");
        Bytes { data: Arc::clone(&self.data), start: self.start + begin, end: self.start + end }
    }

    /// Number of `Bytes` sharing this one's storage (itself included).
    /// Not part of the upstream API: ownership tests use it to count the
    /// windows a decoder keeps onto a buffer.
    pub fn strong_count(this: &Bytes) -> usize {
        Arc::strong_count(&this.data)
    }

    /// The slice contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Self {
        Bytes::from_vec(vec)
    }
}

impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "..")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_shares_storage_without_copying() {
        let bytes = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let slice = bytes.slice(1..4);
        assert_eq!(&slice[..], &[2, 3, 4]);
        assert_eq!(slice.len(), 3);
        let nested = slice.slice(..2);
        assert_eq!(&nested[..], &[2, 3]);
    }

    #[test]
    fn a_vector_becomes_the_storage_without_a_copy() {
        let vec = vec![7u8; 64];
        let at = vec.as_ptr();
        let bytes = Bytes::from(vec);
        assert_eq!(bytes.as_slice().as_ptr(), at);
        assert_eq!(Bytes::strong_count(&bytes), 1);
        let window = bytes.slice(8..16);
        assert_eq!(Bytes::strong_count(&bytes), 2);
        assert_eq!(window.as_slice().as_ptr(), at.wrapping_add(8));
    }

    #[test]
    fn equality_compares_contents() {
        let a = Bytes::from_static(b"hello");
        let b = Bytes::from(b"hello".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, b"hello" as &[u8]);
    }

    #[test]
    fn open_ended_slices() {
        let bytes = Bytes::from_static(b"abcdef");
        assert_eq!(&bytes.slice(3..)[..], b"def");
        assert_eq!(&bytes.slice(..3)[..], b"abc");
        assert_eq!(&bytes.slice(..)[..], b"abcdef");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let bytes = Bytes::from_static(b"abc");
        let _ = bytes.slice(1..5);
    }
}
