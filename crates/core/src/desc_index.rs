//! Incremental descriptor index: O(log N) latest-version queries over the
//! write-descriptor history, with O(1) immutable snapshots.
//!
//! The scan-based algebra in [`crate::types`] answers every query by walking
//! the full descriptor list backwards — O(V) per call, invoked per tree node
//! from [`crate::meta::plan_write`], so a long-lived blob pays O(V·log) per
//! append and degrades quadratically over its lifetime. This module keeps the
//! same answers available in O(log) by maintaining a *persistent* segment
//! tree over page-index space, mirroring the shape of BlobSeer's own
//! metadata trees:
//!
//! * leaves hold the owning version and byte length of one page,
//! * inner nodes aggregate `max_version` (== the latest toucher of their
//!   range, because the latest toucher of any range is the newest owner of
//!   some page inside it) and `byte_len` (clamped subtree byte count, which
//!   makes byte↔page navigation a root-to-leaf descent).
//!
//! Applying one descriptor rebuilds only the root-to-leaf paths covering the
//! written pages — O(pages written + log span) new nodes — and shares every
//! untouched subtree with the previous state via `Arc`. Cloning a
//! [`DescIndex`] is therefore O(1) and yields an immutable snapshot pinned
//! at its version: the version manager hands one to each writer at `assign`
//! time, the client desc-cache keeps the freshest one, and
//! [`crate::meta::plan_write`] runs entirely against it. Nothing under
//! `src/` calls the linear scans in [`crate::types`] any more: they stay as
//! the oracle `tests/desc_index_proptest.rs` compares this index against,
//! and as nothing else.

use std::sync::Arc;

use crate::types::{tree_span, Version, WriteDesc};

#[derive(Debug)]
enum IxKind {
    /// One page: `max_version` is its owner, `byte_len` its stored bytes.
    Leaf,
    Inner {
        left: Option<Arc<IxNode>>,
        right: Option<Arc<IxNode>>,
    },
}

#[derive(Debug)]
struct IxNode {
    /// Latest version that wrote any live page in this subtree.
    max_version: Version,
    /// Bytes held by live pages in this subtree (clamped to the BLOB end).
    byte_len: u64,
    kind: IxKind,
}

/// Snapshot of page ownership and byte layout as of one version.
///
/// Mutating (`apply`) is O(pages written + log span); `clone()` is O(1) and
/// produces an independent immutable snapshot (persistent structure — the
/// clone is unaffected by later `apply` calls on the original).
#[derive(Debug, Clone)]
pub struct DescIndex {
    page_size: u64,
    version: Version,
    total_pages: u64,
    total_bytes: u64,
    /// Power-of-two page capacity of `root`; grows, never shrinks.
    span: u64,
    root: Option<Arc<IxNode>>,
}

impl DescIndex {
    /// Empty index (version 0).
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        DescIndex {
            page_size,
            version: 0,
            total_pages: 0,
            total_bytes: 0,
            span: 1,
            root: None,
        }
    }

    pub fn version(&self) -> Version {
        self.version
    }

    pub(crate) fn page_size(&self) -> u64 {
        self.page_size
    }

    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Fold the next descriptor into the index. Descriptors must arrive in
    /// version order; snapshots taken before this call are unaffected.
    pub fn apply(&mut self, d: &WriteDesc) {
        assert_eq!(
            d.version,
            self.version + 1,
            "descriptors must be applied in version order"
        );
        let target = tree_span(d.total_pages);
        while self.span < target {
            // Grow like the metadata tree: the old root becomes the left
            // child of a root covering twice the page span.
            self.root = self.root.take().map(|old| {
                Arc::new(IxNode {
                    max_version: old.max_version,
                    byte_len: old.byte_len,
                    kind: IxKind::Inner {
                        left: Some(old),
                        right: None,
                    },
                })
            });
            self.span *= 2;
        }
        self.root = rebuild(self.root.as_ref(), 0, self.span, d, self.page_size);
        self.version = d.version;
        self.total_pages = d.total_pages;
        self.total_bytes = d.total_bytes;
    }

    /// Version that owns `page` (the latest writer of that page), or `None`
    /// when the page does not exist. Mirrors [`crate::types::owner_of_page`]
    /// at `up_to == self.version()`.
    pub fn owner_of_page(&self, page: u64) -> Option<Version> {
        if page >= self.total_pages {
            return None;
        }
        let (mut lo, mut hi) = (0u64, self.span);
        let mut node = self.root.as_deref()?;
        loop {
            match &node.kind {
                IxKind::Leaf => return Some(node.max_version),
                IxKind::Inner { left, right } => {
                    let mid = lo + (hi - lo) / 2;
                    if page < mid {
                        node = left.as_deref()?;
                        hi = mid;
                    } else {
                        node = right.as_deref()?;
                        lo = mid;
                    }
                }
            }
        }
    }

    /// Latest version that wrote any live page in `[lo, hi)` (clamped to the
    /// BLOB end). Mirrors [`crate::types::latest_toucher`] at
    /// `up_to == self.version()`.
    pub fn latest_toucher(&self, lo: u64, hi: u64) -> Option<Version> {
        let hi = hi.min(self.total_pages);
        if lo >= hi {
            return None;
        }
        max_in(self.root.as_deref(), 0, self.span, lo, hi)
    }

    /// Byte offset of the start of page `page` (`page == total_pages` maps
    /// to the BLOB length). Mirrors [`crate::types::byte_offset_of_page`].
    pub fn byte_offset_of_page(&self, page: u64) -> Option<u64> {
        if self.version == 0 || page > self.total_pages {
            return None;
        }
        Some(prefix(self.root.as_deref(), 0, self.span, page))
    }

    /// Byte length of the page range `[lo, hi)` clamped to the BLOB end.
    /// Mirrors [`crate::types::byte_len_of_range`].
    pub fn byte_len_of_range(&self, lo: u64, hi: u64) -> Option<u64> {
        if self.version == 0 {
            return None;
        }
        let hi = hi.min(self.total_pages);
        if lo >= hi {
            return Some(0);
        }
        Some(self.byte_offset_of_page(hi)? - self.byte_offset_of_page(lo)?)
    }

    /// Page whose byte range contains `offset`, or `None` when the BLOB is
    /// empty or `offset >= total_bytes`. The interior-offset counterpart of
    /// [`Self::page_at_boundary`]: this is what lets the client answer
    /// offset→page mapping locally (index-backed `page_locations`) instead
    /// of descending the DHT tree.
    pub fn page_containing(&self, offset: u64) -> Option<u64> {
        if self.version == 0 || offset >= self.total_bytes {
            return None;
        }
        let (mut lo, mut hi) = (0u64, self.span);
        let mut node = self.root.as_deref()?;
        let mut rem = offset;
        loop {
            match &node.kind {
                IxKind::Leaf => return Some(lo),
                IxKind::Inner { left, right } => {
                    let mid = lo + (hi - lo) / 2;
                    let left_len = left.as_deref().map_or(0, |l| l.byte_len);
                    if rem < left_len {
                        node = left.as_deref()?;
                        hi = mid;
                    } else {
                        // rem < node.byte_len throughout, so the right child
                        // exists whenever this branch is taken.
                        rem -= left_len;
                        node = right.as_deref()?;
                        lo = mid;
                    }
                }
            }
        }
    }

    /// Count the tree nodes of this snapshot that are not already recorded
    /// in `seen` (a set of node addresses), inserting every node visited.
    /// Calling this across a family of snapshots measures their true
    /// combined heap footprint: structurally-shared subtrees are counted
    /// once no matter how many snapshots pin them, and a subtree whose root
    /// was already seen is skipped entirely (its descendants are shared
    /// too). This is the diagnostic behind the desc-index memory bound.
    pub(crate) fn count_nodes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        fn walk(node: &Arc<IxNode>, seen: &mut std::collections::HashSet<usize>) -> usize {
            if !seen.insert(Arc::as_ptr(node) as usize) {
                return 0;
            }
            match &node.kind {
                IxKind::Leaf => 1,
                IxKind::Inner { left, right } => {
                    1 + left.as_ref().map_or(0, |n| walk(n, seen))
                        + right.as_ref().map_or(0, |n| walk(n, seen))
                }
            }
        }
        self.root.as_ref().map_or(0, |r| walk(r, seen))
    }

    /// Page index whose byte offset is exactly `offset` (`total_pages` for
    /// `offset == total_bytes`), or `None` when `offset` is not a page
    /// boundary. Mirrors [`crate::types::page_at_boundary`].
    pub fn page_at_boundary(&self, offset: u64) -> Option<u64> {
        if self.version == 0 {
            return None;
        }
        if offset == self.total_bytes {
            return Some(self.total_pages);
        }
        if offset > self.total_bytes {
            return None;
        }
        let (mut lo, mut hi) = (0u64, self.span);
        let mut node = self.root.as_deref()?;
        let mut rem = offset;
        loop {
            match &node.kind {
                IxKind::Leaf => return if rem == 0 { Some(lo) } else { None },
                IxKind::Inner { left, right } => {
                    let mid = lo + (hi - lo) / 2;
                    let left_len = left.as_deref().map_or(0, |l| l.byte_len);
                    if rem < left_len {
                        node = left.as_deref()?;
                        hi = mid;
                    } else {
                        // rem < node.byte_len throughout, so the right child
                        // exists whenever this branch is taken.
                        rem -= left_len;
                        node = right.as_deref()?;
                        lo = mid;
                    }
                }
            }
        }
    }
}

/// Bytes stored in pages `[page_lo, page_lo + i)` of descriptor `d`, where
/// only the last page of a descriptor may be short.
fn page_byte_len(d: &WriteDesc, page: u64, page_size: u64) -> u64 {
    let start = d.byte_lo + (page - d.page_lo) * page_size;
    (d.byte_hi - start).min(page_size)
}

fn rebuild(
    old: Option<&Arc<IxNode>>,
    lo: u64,
    hi: u64,
    d: &WriteDesc,
    page_size: u64,
) -> Option<Arc<IxNode>> {
    if lo >= d.total_pages {
        // Slots beyond the (possibly shrunk) end of the BLOB.
        return None;
    }
    if !d.touches_range(lo, hi) {
        // Untouched live subtree: share it with the previous snapshot. Any
        // node straddling the old end of the BLOB also straddles the new
        // write (appends and tail replaces end exactly at `total_pages`),
        // so shared subtrees never carry stale byte lengths.
        return old.cloned();
    }
    if hi - lo == 1 {
        return Some(Arc::new(IxNode {
            max_version: d.version,
            byte_len: page_byte_len(d, lo, page_size),
            kind: IxKind::Leaf,
        }));
    }
    let mid = lo + (hi - lo) / 2;
    let (old_l, old_r) = match old.map(|n| &n.kind) {
        Some(IxKind::Inner { left, right }) => (left.as_ref(), right.as_ref()),
        _ => (None, None),
    };
    let left = rebuild(old_l, lo, mid, d, page_size);
    let right = rebuild(old_r, mid, hi, d, page_size);
    let max_version = left
        .as_deref()
        .map_or(0, |n| n.max_version)
        .max(right.as_deref().map_or(0, |n| n.max_version));
    let byte_len =
        left.as_deref().map_or(0, |n| n.byte_len) + right.as_deref().map_or(0, |n| n.byte_len);
    Some(Arc::new(IxNode {
        max_version,
        byte_len,
        kind: IxKind::Inner { left, right },
    }))
}

fn max_in(node: Option<&IxNode>, lo: u64, hi: u64, a: u64, b: u64) -> Option<Version> {
    let n = node?;
    if b <= lo || hi <= a {
        return None;
    }
    if a <= lo && hi <= b {
        return Some(n.max_version);
    }
    match &n.kind {
        // A leaf is one page; any overlap is full overlap.
        IxKind::Leaf => Some(n.max_version),
        IxKind::Inner { left, right } => {
            let mid = lo + (hi - lo) / 2;
            let l = max_in(left.as_deref(), lo, mid, a, b);
            let r = max_in(right.as_deref(), mid, hi, a, b);
            match (l, r) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
    }
}

/// Bytes stored in pages `[node range start, page)` of this subtree.
fn prefix(node: Option<&IxNode>, lo: u64, hi: u64, page: u64) -> u64 {
    let Some(n) = node else { return 0 };
    if page >= hi {
        return n.byte_len;
    }
    if page <= lo {
        return 0;
    }
    match &n.kind {
        IxKind::Leaf => 0, // unreachable: lo < page < hi needs hi - lo > 1
        IxKind::Inner { left, right } => {
            let mid = lo + (hi - lo) / 2;
            prefix(left.as_deref(), lo, mid, page) + prefix(right.as_deref(), mid, hi, page)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{
        byte_len_of_range, byte_offset_of_page, latest_toucher, owner_of_page, page_at_boundary,
        WriteKind,
    };

    const PS: u64 = 100;

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

    /// The three-append history shared with the `types` tests: v1 = 250 B
    /// (short tail), v2 = 100 B, v3 = 150 B (short tail).
    fn history() -> Vec<WriteDesc> {
        vec![
            d(1, 0, 3, 0, 250, 3, 250),
            d(2, 3, 4, 250, 350, 4, 350),
            d(3, 4, 6, 350, 500, 6, 500),
        ]
    }

    fn index_of(descs: &[WriteDesc]) -> DescIndex {
        let mut ix = DescIndex::new(PS);
        for d in descs {
            ix.apply(d);
        }
        ix
    }

    fn assert_matches_oracle(ix: &DescIndex, descs: &[WriteDesc]) {
        let v = ix.version();
        let tp = ix.total_pages();
        for page in 0..tp + 2 {
            assert_eq!(
                ix.owner_of_page(page),
                owner_of_page(descs, v, page).map(|d| d.version),
                "owner_of_page({page}) diverged at v{v}"
            );
            assert_eq!(
                ix.byte_offset_of_page(page),
                byte_offset_of_page(descs, v, PS, page),
                "byte_offset_of_page({page}) diverged at v{v}"
            );
        }
        for lo in 0..=tp {
            for hi in lo..=tp + 2 {
                assert_eq!(
                    ix.latest_toucher(lo, hi),
                    latest_toucher(descs, v, lo, hi).map(|d| d.version),
                    "latest_toucher({lo}, {hi}) diverged at v{v}"
                );
                assert_eq!(
                    ix.byte_len_of_range(lo, hi),
                    byte_len_of_range(descs, v, PS, lo, hi),
                    "byte_len_of_range({lo}, {hi}) diverged at v{v}"
                );
            }
        }
        for off in 0..ix.total_bytes() + 2 {
            assert_eq!(
                ix.page_at_boundary(off),
                page_at_boundary(descs, v, PS, off),
                "page_at_boundary({off}) diverged at v{v}"
            );
            // page_containing: the largest page whose byte offset is <= off
            // (None at or past EOF).
            let want = if off < ix.total_bytes() {
                (0..tp)
                    .rev()
                    .find(|&pg| byte_offset_of_page(descs, v, PS, pg).unwrap() <= off)
            } else {
                None
            };
            assert_eq!(
                ix.page_containing(off),
                want,
                "page_containing({off}) diverged at v{v}"
            );
        }
    }

    #[test]
    fn empty_index_answers_like_empty_history() {
        let ix = DescIndex::new(PS);
        assert_eq!(ix.version(), 0);
        assert_eq!(ix.owner_of_page(0), None);
        assert_eq!(ix.latest_toucher(0, 10), None);
        assert_eq!(ix.byte_offset_of_page(0), None);
        assert_eq!(ix.byte_len_of_range(0, 1), None);
        assert_eq!(ix.page_at_boundary(0), None);
        assert_eq!(ix.page_containing(0), None);
    }

    #[test]
    fn appends_match_oracle_at_every_prefix() {
        let h = history();
        let mut ix = DescIndex::new(PS);
        for (i, desc) in h.iter().enumerate() {
            ix.apply(desc);
            assert_matches_oracle(&ix, &h[..=i]);
        }
    }

    #[test]
    fn overwrites_match_oracle() {
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
        assert_matches_oracle(&index_of(&h), &h);
    }

    #[test]
    fn tail_replace_can_shrink_the_page_count() {
        // Pages [0,100), [100,130), [130,200); replacing from offset 100
        // with one 100 B page shrinks the BLOB from 3 pages to 2.
        let mut h = vec![
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
        let ix = index_of(&h);
        assert_eq!(ix.total_pages(), 2);
        assert_eq!(ix.owner_of_page(2), None);
        assert_matches_oracle(&ix, &h);
        // And the BLOB can grow again afterwards.
        h.push(d(4, 2, 4, 200, 350, 4, 350));
        assert_matches_oracle(&index_of(&h), &h);
    }

    #[test]
    fn snapshots_are_immutable_and_share_structure() {
        let h = history();
        let mut ix = index_of(&h[..2]);
        let snap = ix.clone();
        ix.apply(&h[2]);
        // The snapshot still answers as of v2...
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.total_bytes(), 350);
        assert_eq!(snap.owner_of_page(4), None);
        assert_matches_oracle(&snap, &h[..2]);
        // ...while the original moved on to v3,
        assert_eq!(ix.version(), 3);
        assert_eq!(ix.owner_of_page(4), Some(3));
        // ...and untouched subtrees are physically shared, not copied: v3
        // grows the span from 4 to 8, so its root's left child IS the whole
        // v2 tree (pages [0,4) untouched by the append of pages [4,6)).
        let (Some(old_root), Some(new_root)) = (snap.root.as_ref(), ix.root.as_ref()) else {
            panic!("both snapshots have roots");
        };
        let IxKind::Inner {
            left: Some(new_l), ..
        } = &new_root.kind
        else {
            panic!("v3 root is inner");
        };
        assert!(
            Arc::ptr_eq(old_root, new_l),
            "append to pages [4,6) must share the untouched [0,4) subtree"
        );
    }

    #[test]
    fn apply_out_of_order_panics() {
        let h = history();
        let mut ix = DescIndex::new(PS);
        ix.apply(&h[0]);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ix2 = ix.clone();
            ix2.apply(&h[2]);
        }));
        assert!(res.is_err(), "skipping v2 must panic");
    }
}
