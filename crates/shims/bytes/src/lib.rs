//! Offline stand-in for [`bytes`](https://crates.io/crates/bytes).
//!
//! This build environment has no access to a cargo registry, so the subset
//! of the `bytes` 1.x API this workspace uses is re-implemented here:
//! a cheaply cloneable, reference-counted, sliceable byte container. The key
//! property the workspace relies on — `clone()` and `slice()` are O(1) and
//! never copy the underlying buffer — is preserved.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

enum Storage {
    /// Borrowed from a `'static` slice (no refcount traffic at all).
    Static(&'static [u8]),
    /// Shared ownership of a heap buffer. The `Vec` is kept as it arrived:
    /// `Arc<[u8]>::from(Vec)` would allocate and copy every byte to put the
    /// refcount beside them.
    Shared(Arc<Vec<u8>>),
}

impl Clone for Storage {
    fn clone(&self) -> Self {
        match self {
            Storage::Static(s) => Storage::Static(s),
            Storage::Shared(a) => Storage::Shared(a.clone()),
        }
    }
}

/// A cheaply cloneable and sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes`. Does not allocate.
    pub const fn new() -> Self {
        Bytes {
            data: Storage::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Creates `Bytes` from a `'static` slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            data: Storage::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn backing(&self) -> &[u8] {
        match &self.data {
            Storage::Static(s) => s,
            Storage::Shared(a) => a,
        }
    }

    /// Returns a slice of self for the provided range — O(1), no copy; the
    /// result shares the same backing buffer.
    ///
    /// # Panics
    /// Panics when the range is out of bounds, like `bytes::Bytes::slice`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
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
        assert!(
            begin <= end && end <= len,
            "range out of bounds: {begin}..{end} of {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
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
        &self.backing()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Storage::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_backing_without_copy() {
        let b = Bytes::from(b"hello world".to_vec());
        let s = b.slice(6..11);
        assert_eq!(s.as_ref(), b"world");
        // Slicing a slice composes offsets.
        assert_eq!(s.slice(1..3).as_ref(), b"or");
        // Cloning is refcount-only: the backing pointer is identical.
        let c = b.clone();
        assert_eq!(c.backing().as_ptr(), b.backing().as_ptr());
    }

    #[test]
    fn from_vec_takes_the_buffer_without_copying() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.slice(100..).as_ptr(), ptr.wrapping_add(100));
    }

    #[test]
    fn static_roundtrip() {
        let b = Bytes::from_static(b"abc");
        assert_eq!(b.len(), 3);
        assert_eq!(b.slice(..2).as_ref(), b"ab");
        assert_eq!(b, Bytes::from(b"abc".to_vec()));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Bytes::from_static(b"abc").slice(1..5);
    }

    #[test]
    fn empty_and_eq() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default(), Bytes::from_static(b""));
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n")), "b\"a\\n\"");
    }
}
