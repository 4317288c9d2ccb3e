//! Data-plane payloads: real bytes or "ghost" lengths.
//!
//! Cluster-scale experiments move tens of gigabytes between hundreds of
//! simulated nodes; materializing those bytes would dwarf available memory
//! without adding information (the fluid flow model only needs sizes). A
//! [`Payload`] therefore carries either real [`bytes::Bytes`] (live mode,
//! functional tests) or just a length. All store/FS code paths are written
//! against this type, so the control plane is identical in both cases.

use bytes::Bytes;

/// A chunk of data moving through the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real bytes (zero-copy slicing via [`bytes::Bytes`]).
    Bytes(Bytes),
    /// Size-only stand-in used by cluster-scale simulations.
    Ghost(u64),
}

impl Payload {
    /// An empty real payload.
    pub fn empty() -> Self {
        Payload::Bytes(Bytes::new())
    }

    /// A ghost payload of `len` bytes.
    pub fn ghost(len: u64) -> Self {
        Payload::Ghost(len)
    }

    /// Wrap an owned byte vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Payload::Bytes(Bytes::from(v))
    }

    /// Wrap a static byte slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Payload::Bytes(Bytes::from_static(s))
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Ghost(n) => *n,
        }
    }

    /// True when the payload holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for ghost payloads.
    pub fn is_ghost(&self) -> bool {
        matches!(self, Payload::Ghost(_))
    }

    /// Borrow the real bytes.
    ///
    /// # Panics
    /// Panics on ghost payloads — callers that may legitimately receive
    /// ghosts must branch on [`Payload::is_ghost`] first.
    pub fn bytes(&self) -> &Bytes {
        match self {
            Payload::Bytes(b) => b,
            Payload::Ghost(n) => panic!("attempted to read bytes of a ghost payload ({n} B)"),
        }
    }

    /// Sub-range `[start, start+len)` of this payload (cheap: ghost payloads
    /// just shrink their length; real payloads share the underlying buffer).
    ///
    /// # Panics
    /// Panics when the range exceeds the payload.
    pub fn slice(&self, start: u64, len: u64) -> Payload {
        let total = self.len();
        assert!(
            start.checked_add(len).is_some_and(|end| end <= total),
            "slice [{start}, {start}+{len}) out of payload of {total} B"
        );
        match self {
            Payload::Bytes(b) => Payload::Bytes(b.slice(start as usize..(start + len) as usize)),
            Payload::Ghost(_) => Payload::Ghost(len),
        }
    }

    /// Split into consecutive chunks of at most `chunk` bytes, preserving
    /// order. An empty payload yields no chunks.
    pub fn chunks(&self, chunk: u64) -> Vec<Payload> {
        assert!(chunk > 0, "chunk size must be positive");
        let mut out = Vec::with_capacity(self.len().div_ceil(chunk.max(1)) as usize);
        let mut off = 0;
        while off < self.len() {
            let n = chunk.min(self.len() - off);
            out.push(self.slice(off, n));
            off += n;
        }
        out
    }

    /// Concatenate payloads. Mixing real and ghost parts produces a ghost of
    /// the combined length (information about the bytes is already lost).
    pub fn concat(parts: &[Payload]) -> Payload {
        if let [only] = parts {
            return only.clone();
        }
        if parts.iter().any(Payload::is_ghost) {
            return Payload::Ghost(parts.iter().map(Payload::len).sum());
        }
        let total: u64 = parts.iter().map(Payload::len).sum();
        let mut v = Vec::with_capacity(total as usize);
        for p in parts {
            v.extend_from_slice(p.bytes());
        }
        Payload::from_vec(v)
    }

    /// FNV-1a fingerprint of the content (ghosts hash their length tagged
    /// separately so a ghost never collides with real bytes by accident).
    /// Used by tests to compare data without keeping copies around.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        match self {
            Payload::Bytes(b) => {
                let mut h = OFFSET;
                for &byte in b.iter() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(PRIME);
                }
                h
            }
            Payload::Ghost(n) => OFFSET ^ n.wrapping_mul(PRIME) ^ 0xDEAD_BEEF,
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_vec(v)
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload::from_vec(s.as_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_real_and_ghost() {
        let p = Payload::from_vec(b"hello world".to_vec());
        assert_eq!(p.len(), 11);
        assert_eq!(p.slice(6, 5).bytes().as_ref(), b"world");
        let g = Payload::ghost(100);
        assert_eq!(g.slice(10, 30).len(), 30);
        assert!(g.slice(10, 30).is_ghost());
    }

    #[test]
    #[should_panic(expected = "out of payload")]
    fn slice_out_of_range_panics() {
        Payload::ghost(10).slice(5, 6);
    }

    #[test]
    #[should_panic(expected = "ghost payload")]
    fn bytes_of_ghost_panics() {
        Payload::ghost(1).bytes();
    }

    #[test]
    fn chunking() {
        let p = Payload::from_vec((0u8..=9).collect());
        let cs = p.chunks(4);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].len(), 4);
        assert_eq!(cs[2].len(), 2);
        assert_eq!(Payload::concat(&cs), p);
        assert!(Payload::empty().chunks(4).is_empty());
    }

    #[test]
    fn concat_of_one_part_shares_its_buffer() {
        let p = Payload::from_vec(vec![9; 64]);
        let one = Payload::concat(std::slice::from_ref(&p));
        assert_eq!(one.bytes().as_ptr(), p.bytes().as_ptr());
        assert_eq!(Payload::concat(&[Payload::ghost(5)]), Payload::ghost(5));
    }

    #[test]
    fn concat_mixed_degrades_to_ghost() {
        let mixed = Payload::concat(&[Payload::from_vec(vec![1, 2]), Payload::ghost(3)]);
        assert!(mixed.is_ghost());
        assert_eq!(mixed.len(), 5);
    }

    #[test]
    fn fingerprints_differ() {
        let a = Payload::from_vec(b"aaa".to_vec());
        let b = Payload::from_vec(b"aab".to_vec());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Payload::from_vec(b"aaa".to_vec()).fingerprint()
        );
        assert_ne!(Payload::ghost(3).fingerprint(), a.fingerprint());
    }
}
