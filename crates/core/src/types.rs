//! Core identifiers and the write-descriptor algebra.
//!
//! BlobSeer's concurrency story rests on a small amount of arithmetic:
//! every write/append is summarized by a [`WriteDesc`] `(version, page range,
//! byte range)`. From the ordered list of descriptors alone a writer can
//! compute, *without reading any other writer's metadata*,
//!
//! * which version owns any page ([`owner_of_page`]),
//! * the byte offset of any page boundary ([`byte_offset_of_page`]),
//! * which earlier version's metadata node covers any canonical page range
//!   ([`latest_toucher`]).
//!
//! That is what allows concurrent appenders to link their new metadata trees
//! to each other's *not-yet-written* nodes by deterministic node ids
//! (paper §3.1.2: "synchronization is required only when writing the
//! metadata, but this overhead is low").

/// Identifier of a BLOB, assigned by the version manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(pub u64);

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blob#{}", self.0)
    }
}

/// A snapshot version of a BLOB. Version 0 is the empty BLOB; the first
/// write produces version 1.
pub type Version = u64;

/// Globally-unique identifier of a stored page (random 128 bits drawn from
/// the writer's RNG stream; pages are content-addressed by id, not offset,
/// because ids must be chosen *before* the version is known).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId(pub u64, pub u64);

/// What kind of update produced a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Pages added at the end of the BLOB.
    Append,
    /// Pages replaced (and possibly extended) starting at an existing page
    /// boundary.
    Write,
}

/// A write request presented to the version manager's `assign`.
#[derive(Debug, Clone, Copy)]
pub enum UpdateKind {
    /// Append `nbytes` at the end.
    Append,
    /// Overwrite starting at byte `offset` (must be an existing page
    /// boundary; see crate docs for the alignment rules).
    WriteAt { offset: u64 },
}

/// Summary of one committed or pending update, as recorded by the version
/// manager and shipped to writers/readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteDesc {
    pub version: Version,
    pub kind: WriteKind,
    /// Pages written: `[page_lo, page_hi)`.
    pub page_lo: u64,
    pub page_hi: u64,
    /// Bytes written: `[byte_lo, byte_hi)` in the BLOB's byte space.
    pub byte_lo: u64,
    pub byte_hi: u64,
    /// Total pages in the BLOB as of this version.
    pub total_pages: u64,
    /// Total bytes in the BLOB as of this version.
    pub total_bytes: u64,
}

impl WriteDesc {
    /// Number of pages this update wrote.
    pub(crate) fn page_count(&self) -> u64 {
        self.page_hi - self.page_lo
    }

    /// True when this update wrote page `page`.
    pub(crate) fn touches_page(&self, page: u64) -> bool {
        (self.page_lo..self.page_hi).contains(&page)
    }

    /// True when this update wrote any page in `[lo, hi)`.
    pub(crate) fn touches_range(&self, lo: u64, hi: u64) -> bool {
        self.page_lo < hi && lo < self.page_hi
    }
}

/// Smallest power of two `>= n` (and `>= 1`).
pub(crate) fn next_pow2(n: u64) -> u64 {
    n.max(1).next_power_of_two()
}

/// Tree span (number of leaf slots) for a BLOB with `total_pages` pages.
pub fn tree_span(total_pages: u64) -> u64 {
    next_pow2(total_pages)
}

/// The version that last wrote `page`, looking at descriptors with
/// `version <= up_to`. `descs` must be ordered by version ascending.
/// Returns `None` when the page does not exist at `up_to` (tail-replacing
/// writes may shrink the page count, so existence is checked against the
/// snapshot's total, not just against who ever touched the page).
///
/// These scan functions are O(V) and nothing under `src/` calls them: they
/// are the oracle `tests/desc_index_proptest.rs` holds
/// [`crate::desc_index::DescIndex`] (the O(log) index) against.
pub fn owner_of_page(descs: &[WriteDesc], up_to: Version, page: u64) -> Option<&WriteDesc> {
    let cur = descs.iter().rev().find(|d| d.version <= up_to)?;
    if page >= cur.total_pages {
        return None;
    }
    descs
        .iter()
        .rev()
        .filter(|d| d.version <= up_to)
        .find(|d| d.touches_page(page))
}

/// The latest version `<= up_to` that wrote any *live* page in `[lo, hi)`
/// (the range is clamped to the snapshot's page count, mirroring
/// [`owner_of_page`]'s existence rule).
pub fn latest_toucher(descs: &[WriteDesc], up_to: Version, lo: u64, hi: u64) -> Option<&WriteDesc> {
    let cur = descs.iter().rev().find(|d| d.version <= up_to)?;
    let hi = hi.min(cur.total_pages);
    if lo >= hi {
        return None;
    }
    descs
        .iter()
        .rev()
        .filter(|d| d.version <= up_to)
        .find(|d| d.touches_range(lo, hi))
}

/// Byte offset of the start of page `page` as of version `up_to`.
///
/// Within a single update only the *last* page may be short, so offsets
/// interior to an update are affine in the page index; `page ==
/// total_pages` maps to the BLOB's byte length.
pub fn byte_offset_of_page(
    descs: &[WriteDesc],
    up_to: Version,
    page_size: u64,
    page: u64,
) -> Option<u64> {
    let cur = descs.iter().rev().find(|d| d.version <= up_to)?;
    if page > cur.total_pages {
        return None;
    }
    if page == cur.total_pages {
        return Some(cur.total_bytes);
    }
    let d = owner_of_page(descs, up_to, page)?;
    Some(d.byte_lo + (page - d.page_lo) * page_size)
}

/// Byte length of the page-range `[lo, hi)` clamped to the BLOB end, as of
/// version `up_to`.
pub fn byte_len_of_range(
    descs: &[WriteDesc],
    up_to: Version,
    page_size: u64,
    lo: u64,
    hi: u64,
) -> Option<u64> {
    let cur = descs.iter().rev().find(|d| d.version <= up_to)?;
    let hi = hi.min(cur.total_pages);
    if lo >= hi {
        return Some(0);
    }
    let a = byte_offset_of_page(descs, up_to, page_size, lo)?;
    let b = byte_offset_of_page(descs, up_to, page_size, hi)?;
    Some(b - a)
}

/// Locate the page index whose byte offset is exactly `offset`
/// (`total_pages` for `offset == total_bytes`). Page start offsets are
/// strictly increasing, so binary search works. O(V·log) — the scan-based
/// oracle twin of [`crate::desc_index::DescIndex::page_at_boundary`].
pub fn page_at_boundary(
    descs: &[WriteDesc],
    up_to: Version,
    page_size: u64,
    offset: u64,
) -> Option<u64> {
    let total = descs.iter().rev().find(|d| d.version <= up_to)?.total_pages;
    let (mut lo, mut hi) = (0u64, total);
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let off = byte_offset_of_page(descs, up_to, page_size, mid)?;
        match off.cmp(&offset) {
            std::cmp::Ordering::Equal => return Some(mid),
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => {
                if mid == 0 {
                    return None;
                }
                hi = mid - 1;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(version: Version, pl: u64, ph: u64, bl: u64, bh: u64, tp: u64, tb: u64) -> WriteDesc {
        WriteDesc {
            version,
            kind: WriteKind::Append,
            page_lo: pl,
            page_hi: ph,
            byte_lo: bl,
            byte_hi: bh,
            total_pages: tp,
            total_bytes: tb,
        }
    }

    // Three appends with page_size 100: v1 = 250 B (3 pages, short tail),
    // v2 = 100 B (1 page), v3 = 150 B (2 pages, short tail).
    fn history() -> Vec<WriteDesc> {
        vec![
            d(1, 0, 3, 0, 250, 3, 250),
            d(2, 3, 4, 250, 350, 4, 350),
            d(3, 4, 6, 350, 500, 6, 500),
        ]
    }

    #[test]
    fn pow2_helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(tree_span(6), 8);
    }

    #[test]
    fn ownership_respects_version_ceiling() {
        let h = history();
        assert_eq!(owner_of_page(&h, 3, 0).unwrap().version, 1);
        assert_eq!(owner_of_page(&h, 3, 3).unwrap().version, 2);
        assert_eq!(owner_of_page(&h, 3, 5).unwrap().version, 3);
        assert!(owner_of_page(&h, 2, 5).is_none()); // page 5 does not exist at v2
        assert!(owner_of_page(&h, 3, 6).is_none());
    }

    #[test]
    fn ownership_with_overwrites() {
        let mut h = history();
        h.push(WriteDesc {
            version: 4,
            kind: WriteKind::Write,
            page_lo: 0,
            page_hi: 2,
            byte_lo: 0,
            byte_hi: 200,
            total_pages: 6,
            total_bytes: 500,
        });
        assert_eq!(owner_of_page(&h, 4, 0).unwrap().version, 4);
        assert_eq!(owner_of_page(&h, 4, 2).unwrap().version, 1); // untouched
        assert_eq!(owner_of_page(&h, 3, 0).unwrap().version, 1); // old snapshot intact
        assert_eq!(latest_toucher(&h, 4, 0, 4).unwrap().version, 4);
        assert_eq!(latest_toucher(&h, 4, 2, 3).unwrap().version, 1);
    }

    #[test]
    fn byte_offsets_account_for_short_tails() {
        let h = history();
        let ps = 100;
        assert_eq!(byte_offset_of_page(&h, 3, ps, 0), Some(0));
        assert_eq!(byte_offset_of_page(&h, 3, ps, 1), Some(100));
        assert_eq!(byte_offset_of_page(&h, 3, ps, 2), Some(200)); // short page holds [200,250)
        assert_eq!(byte_offset_of_page(&h, 3, ps, 3), Some(250));
        assert_eq!(byte_offset_of_page(&h, 3, ps, 4), Some(350));
        assert_eq!(byte_offset_of_page(&h, 3, ps, 5), Some(450));
        assert_eq!(byte_offset_of_page(&h, 3, ps, 6), Some(500)); // == total bytes
        assert_eq!(byte_offset_of_page(&h, 3, ps, 7), None);
        // At version 1 the blob is 250 bytes / 3 pages.
        assert_eq!(byte_offset_of_page(&h, 1, ps, 3), Some(250));
        assert_eq!(byte_offset_of_page(&h, 1, ps, 4), None);
    }

    #[test]
    fn shrunk_pages_are_not_owned() {
        // Tail-replacing writes may reduce the page count; pages beyond the
        // new total must not resolve to their pre-shrink writers.
        // v1: pages [0,100), [100,130); v2: page [130,200); v3 replaces the
        // tail from offset 100 with one full page -> 2 pages, 200 bytes.
        let h = vec![
            d(1, 0, 2, 0, 130, 2, 130),
            d(2, 2, 3, 130, 200, 3, 200),
            WriteDesc {
                version: 3,
                kind: WriteKind::Write,
                page_lo: 1,
                page_hi: 2,
                byte_lo: 100,
                byte_hi: 200,
                total_pages: 2,
                total_bytes: 200,
            },
        ];
        assert!(owner_of_page(&h, 3, 2).is_none());
        assert_eq!(owner_of_page(&h, 2, 2).unwrap().version, 2);
        assert!(latest_toucher(&h, 3, 2, 4).is_none());
        assert_eq!(latest_toucher(&h, 3, 1, 4).unwrap().version, 3);
    }

    #[test]
    fn boundary_lookup_round_trips_offsets() {
        let h = history();
        let ps = 100;
        for page in 0..=6 {
            let off = byte_offset_of_page(&h, 3, ps, page).unwrap();
            assert_eq!(page_at_boundary(&h, 3, ps, off), Some(page));
        }
        assert_eq!(page_at_boundary(&h, 3, ps, 125), None); // mid-page
        assert_eq!(page_at_boundary(&h, 3, ps, 501), None); // past EOF
        assert_eq!(page_at_boundary(&h, 1, ps, 250), Some(3));
        assert_eq!(page_at_boundary(&[], 1, ps, 0), None); // empty BLOB
    }

    #[test]
    fn range_byte_lengths_clamp_to_eof() {
        let h = history();
        let ps = 100;
        assert_eq!(byte_len_of_range(&h, 3, ps, 0, 8), Some(500)); // full span clamped
        assert_eq!(byte_len_of_range(&h, 3, ps, 2, 4), Some(150)); // short page + full page
        assert_eq!(byte_len_of_range(&h, 3, ps, 6, 8), Some(0));
        assert_eq!(byte_len_of_range(&h, 1, ps, 0, 4), Some(250));
    }
}
