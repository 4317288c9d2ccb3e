//! Distributed versioned segment trees — BlobSeer's metadata scheme.
//!
//! Each version `v` of a BLOB is described by a binary segment tree over
//! *page-index* space `[0, 2^k)`. Nodes are identified by the deterministic
//! triple `(version, page_lo, page_hi)`; inner nodes hold references to their
//! two children (which may belong to *older* versions — subtree sharing is
//! what makes snapshots cheap), leaves describe one page (its id, byte
//! length and replica providers).
//!
//! A writer for version `v` creates exactly the nodes on the root-to-leaf
//! paths covering its own pages and *references* everything else. Because
//! node ids are deterministic and the version manager hands out the write
//! descriptors of all previously-assigned versions, a writer can link to the
//! nodes of a concurrent writer that has not finished writing them yet —
//! no reads, no locks, full write parallelism (paper §3.1.2).
//!
//! Trees live over page indices rather than byte offsets so appends of
//! arbitrary byte sizes (short tail pages) never require read-modify-write
//! of a neighbour's metadata. Byte navigation works because every child
//! reference carries the byte length of its subtree.
//!
//! All functions here are pure: I/O (the metadata-provider DHT) is abstracted
//! as a `fetch` closure, so the same code is exercised by in-memory unit
//! tests and by the costed distributed path in `crate::client`.
//!
//! This module also hosts `BlobState`, the per-BLOB control-plane state
//! machine that is the lock unit of the sharded
//! [`crate::version_manager::VersionManager`] and the one place the
//! publication protocol is written: like the tree planners above it performs
//! no I/O — the version manager wraps one `Mutex<BlobState>` per BLOB and
//! keeps RPC charging, DHT traffic, gate waits and gate firing outside the
//! lock.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use fabric::sync::Gate;
use fabric::{NodeId, SimTime};

use crate::desc_index::DescIndex;
use crate::error::{BlobError, BlobResult};
use crate::types::{tree_span, BlobId, PageId, UpdateKind, Version, WriteDesc, WriteKind};

/// Deterministic identity of a metadata tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeKey {
    pub blob: BlobId,
    pub version: Version,
    pub page_lo: u64,
    pub page_hi: u64,
}

impl NodeKey {
    pub(crate) fn is_leaf(&self) -> bool {
        self.page_hi - self.page_lo == 1
    }

    /// Durable-store key: the `n/` namespace tag followed by the four id
    /// fields big-endian, so a prefix scan enumerates nodes in a stable
    /// (blob, version, range) order.
    pub(crate) fn encode(&self) -> [u8; NODE_KEY_BYTES] {
        let mut k = [0u8; NODE_KEY_BYTES];
        k[..2].copy_from_slice(NODE_KEY_PREFIX);
        k[2..10].copy_from_slice(&self.blob.0.to_be_bytes());
        k[10..18].copy_from_slice(&self.version.to_be_bytes());
        k[18..26].copy_from_slice(&self.page_lo.to_be_bytes());
        k[26..].copy_from_slice(&self.page_hi.to_be_bytes());
        k
    }
}

/// Key namespace for metadata tree nodes inside a server's durable store.
pub(crate) const NODE_KEY_PREFIX: &[u8] = b"n/";
/// Encoded [`NodeKey`] length: prefix + 4×u64.
pub(crate) const NODE_KEY_BYTES: usize = 34;

/// Reference from an inner node to a child subtree (possibly of an older
/// version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildRef {
    pub version: Version,
    pub page_lo: u64,
    pub page_hi: u64,
    /// Bytes held by this subtree (clamped to the BLOB length of the
    /// referencing version) — this is what makes byte-offset navigation
    /// possible without consulting the descriptor history again.
    pub byte_len: u64,
}

/// Leaf payload: where one page lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRef {
    pub id: PageId,
    /// Bytes stored in this page (== page size except for tail pages).
    pub byte_len: u64,
    /// Replica holders, primary first.
    pub providers: Vec<NodeId>,
}

/// Content of a metadata node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeBody {
    Inner {
        left: Option<ChildRef>,
        right: Option<ChildRef>,
    },
    Leaf(PageRef),
}

impl NodeBody {
    /// Approximate wire size, used to charge the fabric for metadata
    /// messages.
    pub(crate) fn encoded_size(&self) -> u64 {
        match self {
            NodeBody::Inner { .. } => 96,
            NodeBody::Leaf(p) => 48 + 8 * p.providers.len() as u64,
        }
    }

    /// Durable-store value: a tag byte (0 = inner, 1 = leaf) followed by
    /// the variant's fields in fixed-width little-endian.
    pub(crate) fn encode(&self) -> Vec<u8> {
        fn child(out: &mut Vec<u8>, c: &Option<ChildRef>) {
            match c {
                None => out.push(0),
                Some(c) => {
                    out.push(1);
                    for v in [c.version, c.page_lo, c.page_hi, c.byte_len] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        let mut out = Vec::new();
        match self {
            NodeBody::Inner { left, right } => {
                out.push(0);
                child(&mut out, left);
                child(&mut out, right);
            }
            NodeBody::Leaf(p) => {
                out.push(1);
                out.extend_from_slice(&p.id.0.to_le_bytes());
                out.extend_from_slice(&p.id.1.to_le_bytes());
                out.extend_from_slice(&p.byte_len.to_le_bytes());
                out.extend_from_slice(&(p.providers.len() as u32).to_le_bytes());
                for n in &p.providers {
                    out.extend_from_slice(&n.0.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`Self::encode`]; `None` on any structural mismatch
    /// (wrong tag, truncation, trailing bytes).
    #[expect(
        clippy::unwrap_used,
        reason = "each unwrap turns the N-byte slice that `get(at..at + N)?` just returned into `[u8; N]`"
    )]
    pub(crate) fn decode(v: &[u8]) -> Option<NodeBody> {
        fn u64_at(v: &[u8], at: &mut usize) -> Option<u64> {
            let out = u64::from_le_bytes(v.get(*at..*at + 8)?.try_into().unwrap());
            *at += 8;
            Some(out)
        }
        fn child(v: &[u8], at: &mut usize) -> Option<Option<ChildRef>> {
            let tag = *v.get(*at)?;
            *at += 1;
            match tag {
                0 => Some(None),
                1 => Some(Some(ChildRef {
                    version: u64_at(v, at)?,
                    page_lo: u64_at(v, at)?,
                    page_hi: u64_at(v, at)?,
                    byte_len: u64_at(v, at)?,
                })),
                _ => None,
            }
        }
        let mut at = 1;
        let body = match *v.first()? {
            0 => NodeBody::Inner {
                left: child(v, &mut at)?,
                right: child(v, &mut at)?,
            },
            1 => {
                let id = PageId(u64_at(v, &mut at)?, u64_at(v, &mut at)?);
                let byte_len = u64_at(v, &mut at)?;
                let count = u32::from_le_bytes(v.get(at..at + 4)?.try_into().unwrap());
                at += 4;
                let mut providers = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    providers.push(NodeId(u32::from_le_bytes(
                        v.get(at..at + 4)?.try_into().unwrap(),
                    )));
                    at += 4;
                }
                NodeBody::Leaf(PageRef {
                    id,
                    byte_len,
                    providers,
                })
            }
            _ => return None,
        };
        (at == v.len()).then_some(body)
    }
}

/// A leaf reached by a read, positioned in the BLOB's byte space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafHit {
    pub page_index: u64,
    /// Byte offset of the page's first byte within the BLOB.
    pub blob_byte_off: u64,
    pub page: PageRef,
}

/// Compute every metadata node version `new.version` must publish, given an
/// immutable descriptor-index snapshot that *includes* the new version
/// (`ix.version() == new.version` — the version manager hands exactly this
/// snapshot out at `assign` time), the new descriptor, and the manifest of
/// freshly-written pages (`manifest[i]` describes page `new.page_lo + i`).
///
/// Every subtree query (`byte_len_of_range`, `latest_toucher`) is O(log)
/// against the index, so planning costs O((pages written + tree depth)·log)
/// regardless of how many versions precede this one.
///
/// Nodes are returned leaves-first so that writing them in order never
/// publishes a parent before its children.
pub fn plan_write(
    blob: BlobId,
    ix: &DescIndex,
    new: &WriteDesc,
    manifest: &[PageRef],
) -> Vec<(NodeKey, NodeBody)> {
    assert_eq!(
        manifest.len() as u64,
        new.page_count(),
        "manifest must describe exactly the written pages"
    );
    assert_eq!(
        ix.version(),
        new.version,
        "the index snapshot must be pinned at the new version"
    );
    let span = tree_span(new.total_pages);
    let mut out = Vec::new();
    build_node(&mut out, blob, ix, new, manifest, 0, span);
    out
}

fn build_node(
    out: &mut Vec<(NodeKey, NodeBody)>,
    blob: BlobId,
    ix: &DescIndex,
    new: &WriteDesc,
    manifest: &[PageRef],
    lo: u64,
    hi: u64,
) {
    debug_assert!(
        new.touches_range(lo, hi),
        "only nodes on the write path are built"
    );
    let key = NodeKey {
        blob,
        version: new.version,
        page_lo: lo,
        page_hi: hi,
    };
    if hi - lo == 1 {
        let idx = (lo - new.page_lo) as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "plan_write asserted the manifest has new.page_count() entries and build_node recurses only inside new.page_lo..page_hi"
        )]
        out.push((key, NodeBody::Leaf(manifest[idx].clone())));
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let left = child_ref(out, blob, ix, new, manifest, lo, mid);
    let right = child_ref(out, blob, ix, new, manifest, mid, hi);
    out.push((key, NodeBody::Inner { left, right }));
}

fn child_ref(
    out: &mut Vec<(NodeKey, NodeBody)>,
    blob: BlobId,
    ix: &DescIndex,
    new: &WriteDesc,
    manifest: &[PageRef],
    lo: u64,
    hi: u64,
) -> Option<ChildRef> {
    #[expect(
        clippy::expect_used,
        reason = "planner precondition: plan_write asserted the index snapshot is pinned at the new version"
    )]
    let byte_len = ix
        .byte_len_of_range(lo, hi)
        .expect("index snapshot covers the new version");
    if new.touches_range(lo, hi) {
        build_node(out, blob, ix, new, manifest, lo, hi);
        Some(ChildRef {
            version: new.version,
            page_lo: lo,
            page_hi: hi,
            byte_len,
        })
    } else if lo >= new.total_pages {
        // Slots beyond the end of the BLOB.
        None
    } else {
        // Untouched, existing subtree: reference the newest version whose
        // write path crosses it. Its node is guaranteed to exist by the
        // time this version publishes (see crate::version_manager).
        #[expect(
            clippy::expect_used,
            reason = "planner invariant: every page below total_pages was written by some version in the index"
        )]
        let version = ix
            .latest_toucher(lo, hi)
            .expect("pages below total_pages have a writer");
        Some(ChildRef {
            version,
            page_lo: lo,
            page_hi: hi,
            byte_len,
        })
    }
}

/// Snapshot facts needed to start a read: produced by the version manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    pub version: Version,
    pub total_pages: u64,
    pub total_bytes: u64,
    pub page_size: u64,
}

impl SnapshotInfo {
    /// Root node key for this snapshot (`None` for the empty version 0).
    pub(crate) fn root(&self, blob: BlobId) -> Option<NodeKey> {
        if self.version == 0 {
            return None;
        }
        Some(NodeKey {
            blob,
            version: self.version,
            page_lo: 0,
            page_hi: tree_span(self.total_pages),
        })
    }
}

/// Everything the version manager retains about one assigned-but-unpublished
/// version of a BLOB: one slot of [`BlobState`]'s window.
struct PendingWrite {
    /// The writer's page manifest, shared (not copied) for force-complete.
    manifest: Arc<Vec<PageRef>>,
    /// Descriptor-index snapshot pinned at exactly this version — an O(1)
    /// clone of the persistent tree, so force-complete can rebuild the
    /// writer's exact metadata plan without copying any history.
    index: DescIndex,
    assigned_at: SimTime,
    gate: Gate,
    /// Committed, waiting for its predecessors to publish.
    committed: bool,
    /// Handed to a reaper by [`BlobState::take_expired`] and not given back:
    /// no second reaper is handed the same version.
    reaping: bool,
}

/// What [`BlobState::orphan`] hands a force-completer: the descriptor, the
/// index snapshot pinned at it and the page manifest of a version whose
/// writer is presumed dead — everything `plan_write` needs, all `Arc` shares.
pub(crate) type Orphan = (WriteDesc, DescIndex, Arc<Vec<PageRef>>);

/// Per-BLOB control-plane state: the **lock unit** of the sharded version
/// manager and the only place that knows the publication protocol. One
/// `Mutex<BlobState>` guards exactly one BLOB, so operations on distinct
/// BLOBs never contend. It takes no lock, charges no RPC and fires no gate;
/// the clock and the gates come in as arguments of [`Self::assign`]. Every
/// field is private and the version manager calls exactly one method per
/// lock hold. The transitions: [`Self::assign`], [`Self::commit`],
/// [`Self::take_expired`] / [`Self::give_back`]; everything else —
/// [`Self::orphan`], [`Self::retire`], [`Self::waiter`], [`Self::snapshot`],
/// [`Self::share_published`], [`Self::pending_len`], [`Self::footprint`] —
/// only reads.
///
/// **The window is dense by construction.** `window` holds exactly the
/// versions `published + 1 ..= assigned`, in order, the entry for `v` at
/// `v - published - 1`: `assign` pushes version `assigned + 1` at the back,
/// `commit` pops `published + 1` off the front, nothing else adds or
/// removes. Hence `window.len() == assigned - published`; every version in
/// `(published, assigned]` has its entry; `assigned_at` is monotone along
/// the window (the clock is read under the lock), so if the front has not
/// expired nothing has; and the front is never `committed` — a committed
/// front publishes before `commit` returns.
pub(crate) struct BlobState {
    blob: BlobId,
    /// Descriptors of every *assigned* version, dense: `descs[v-1]`.
    descs: Vec<WriteDesc>,
    /// Index snapshot pinned at the latest *published* version — what
    /// `VersionManager::sync_index` ships to readers, so their locality
    /// queries never observe assigned-but-unpublished versions.
    published_index: DescIndex,
    /// Assigned but not yet published versions, oldest first.
    window: VecDeque<PendingWrite>,
    published: Version,
}

impl BlobState {
    pub(crate) fn new(blob: BlobId, page_size: u64) -> Self {
        BlobState {
            blob,
            descs: Vec::new(),
            published_index: DescIndex::new(page_size),
            window: VecDeque::new(),
            published: 0,
        }
    }

    /// Highest assigned version (0 when nothing was ever assigned).
    fn assigned(&self) -> Version {
        self.descs.len() as Version
    }

    fn no_such_version(&self, version: Version) -> BlobError {
        BlobError::NoSuchVersion {
            blob: self.blob,
            version,
        }
    }

    /// Descriptor of an assigned version; `None` for 0 and for versions never
    /// assigned.
    fn desc(&self, version: Version) -> Option<&WriteDesc> {
        self.descs.get(version.checked_sub(1)? as usize)
    }

    /// The window entry of `version`; `None` once it published.
    fn pending(&self, version: Version) -> Option<&PendingWrite> {
        let slot = version.checked_sub(self.published + 1)?;
        self.window.get(slot as usize)
    }

    fn pending_mut(&mut self, version: Version) -> Option<&mut PendingWrite> {
        let slot = version.checked_sub(self.published + 1)?;
        self.window.get_mut(slot as usize)
    }

    /// The index at the highest assigned version: the newest pending
    /// write's pinned snapshot, or the published one when none is pending.
    fn latest_index(&self) -> &DescIndex {
        self.window
            .back()
            .map_or(&self.published_index, |pw| &pw.index)
    }

    /// Reserve the next version for an update of `nbytes` in
    /// `manifest.len()` pages: compute its descriptor, fold it into a share of
    /// the latest index and park the pending write at the back of the
    /// window. Returns the descriptor and the index snapshot pinned at the
    /// new version (an O(1) `Arc` share). The manifest's length is validated
    /// lock-free by the caller against the immutable page size;
    /// `assigned_at` must be read under the same lock hold (monotone along
    /// the window).
    pub(crate) fn assign(
        &mut self,
        kind: UpdateKind,
        nbytes: u64,
        manifest: Arc<Vec<PageRef>>,
        assigned_at: SimTime,
        gate: Gate,
    ) -> BlobResult<(WriteDesc, DescIndex)> {
        let desc = self.describe(kind, nbytes, manifest.len() as u64)?;
        let mut index = self.latest_index().clone();
        index.apply(&desc);
        self.descs.push(desc);
        self.window.push_back(PendingWrite {
            manifest,
            index: index.clone(),
            assigned_at,
            gate,
            committed: false,
            reaping: false,
        });
        Ok((desc, index))
    }

    /// The descriptor the next update would get.
    fn describe(&self, kind: UpdateKind, nbytes: u64, k_pages: u64) -> BlobResult<WriteDesc> {
        let index = self.latest_index();
        let ps = index.page_size();
        let (cur_pages, cur_bytes) = self
            .descs
            .last()
            .map(|d| (d.total_pages, d.total_bytes))
            .unwrap_or((0, 0));
        let version = self.assigned() + 1;
        match kind {
            UpdateKind::Append => Ok(WriteDesc {
                version,
                kind: WriteKind::Append,
                page_lo: cur_pages,
                page_hi: cur_pages + k_pages,
                byte_lo: cur_bytes,
                byte_hi: cur_bytes + nbytes,
                total_pages: cur_pages + k_pages,
                total_bytes: cur_bytes + nbytes,
            }),
            UpdateKind::WriteAt { offset } => {
                // `index` is at version - 1, so these are O(log) lookups
                // against the pre-update snapshot.
                let Some(page_lo) = index.page_at_boundary(offset) else {
                    return Err(BlobError::UnalignedWrite {
                        detail: format!("offset {offset} is not an existing page boundary"),
                    });
                };
                if offset + nbytes >= cur_bytes {
                    // Tail-replacing / extending write.
                    Ok(WriteDesc {
                        version,
                        kind: WriteKind::Write,
                        page_lo,
                        page_hi: page_lo + k_pages,
                        byte_lo: offset,
                        byte_hi: offset + nbytes,
                        total_pages: page_lo + k_pages,
                        total_bytes: offset + nbytes,
                    })
                } else {
                    // Interior overwrite: must replace whole existing pages
                    // with an identical layout.
                    if !nbytes.is_multiple_of(ps) {
                        return Err(BlobError::UnalignedWrite {
                            detail: format!(
                                "interior overwrite of {nbytes} B is not a multiple of the {ps} B page size"
                            ),
                        });
                    }
                    let end_page = page_lo + k_pages;
                    if index.byte_offset_of_page(end_page) != Some(offset + nbytes) {
                        return Err(BlobError::UnalignedWrite {
                            detail: format!(
                                "overwrite end {} does not coincide with page boundary {end_page}",
                                offset + nbytes
                            ),
                        });
                    }
                    Ok(WriteDesc {
                        version,
                        kind: WriteKind::Write,
                        page_lo,
                        page_hi: end_page,
                        byte_lo: offset,
                        byte_hi: offset + nbytes,
                        total_pages: cur_pages,
                        total_bytes: cur_bytes,
                    })
                }
            }
        }
    }

    /// Mark `version` committed and publish every version that became
    /// publishable (publication is strictly in order). Returns the gates of
    /// newly-published versions, in version order, for the caller to set
    /// outside the lock. Idempotent; a version never assigned is an error.
    pub(crate) fn commit(&mut self, version: Version) -> BlobResult<Vec<Gate>> {
        if version > self.assigned() {
            return Err(self.no_such_version(version));
        }
        if let Some(pw) = self.pending_mut(version) {
            pw.committed = true;
        }
        let mut gates = Vec::new();
        while let Some(pw) = self.window.pop_front_if(|pw| pw.committed) {
            self.published += 1;
            gates.push(pw.gate);
            // The pending write's snapshot is pinned at exactly the version
            // that just published — an O(1) hand-off.
            self.published_index = pw.index;
        }
        Ok(gates)
    }

    /// The gate a caller waiting for `version` to publish parks on; `None`
    /// when it already is published.
    pub(crate) fn waiter(&self, version: Version) -> BlobResult<Option<Gate>> {
        if version > self.assigned() {
            return Err(self.no_such_version(version));
        }
        Ok(self.pending(version).map(|pw| pw.gate.clone()))
    }

    /// Snapshot facts for `version` (`None` = latest published). Pending
    /// versions are invisible, matching the paper's reader semantics.
    pub(crate) fn snapshot(&self, version: Option<Version>) -> BlobResult<SnapshotInfo> {
        let version = version.unwrap_or(self.published);
        if version > self.published {
            return Err(self.no_such_version(version));
        }
        let (total_pages, total_bytes) = self
            .desc(version)
            .map_or((0, 0), |d| (d.total_pages, d.total_bytes));
        Ok(SnapshotInfo {
            version,
            total_pages,
            total_bytes,
            page_size: self.published_index.page_size(),
        })
    }

    /// What a force-completer needs to finish `version` for its writer;
    /// `None` when there is nothing left to do (committed or published).
    pub(crate) fn orphan(&self, version: Version) -> BlobResult<Option<Orphan>> {
        if version > self.assigned() {
            return Err(self.no_such_version(version));
        }
        let (Some(desc), Some(pw)) = (self.desc(version), self.pending(version)) else {
            return Ok(None);
        };
        Ok((!pw.committed).then(|| (*desc, pw.index.clone(), pw.manifest.clone())))
    }

    /// The BLOB is deleted: the gates of every pending version, in version
    /// order, so parked waiters can be woken to a typed `NoSuchBlob`.
    pub(crate) fn retire(&self) -> Vec<Gate> {
        self.window.iter().map(|pw| pw.gate.clone()).collect()
    }

    /// Hand out every uncommitted version whose write timeout has expired,
    /// oldest first, each to exactly one caller (until given back). O(1)
    /// when nothing expired (the common case): `assigned_at` is monotone
    /// along the window, so the walk stops at the first live entry — the
    /// front.
    pub(crate) fn take_expired(&mut self, now: SimTime, timeout: u64) -> Vec<Version> {
        let mut out = Vec::new();
        for (version, pw) in (self.published + 1..).zip(&mut self.window) {
            if now.saturating_sub(pw.assigned_at) <= timeout {
                break;
            }
            if !pw.committed && !pw.reaping {
                pw.reaping = true;
                out.push(version);
            }
        }
        out
    }

    /// Give versions taken by [`Self::take_expired`] back, so a failed
    /// force-complete is retried on the next VM interaction instead of being
    /// silently dropped. Versions that published meanwhile are skipped.
    pub(crate) fn give_back(&mut self, versions: &[Version]) {
        for &v in versions {
            if let Some(pw) = self.pending_mut(v) {
                pw.reaping = false;
            }
        }
    }

    /// An O(1) share of the index pinned at the latest published version.
    pub(crate) fn share_published(&self) -> DescIndex {
        self.published_index.clone()
    }

    /// Number of assigned-but-unpublished versions.
    pub(crate) fn pending_len(&self) -> usize {
        self.window.len()
    }

    /// `(pending writes, distinct index nodes)` retained: the published
    /// index and every pending write's pinned snapshot, with structurally
    /// shared subtrees counted once.
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let mut seen = HashSet::new();
        let pinned = self.window.iter().map(|pw| &pw.index);
        let nodes = std::iter::once(&self.published_index)
            .chain(pinned)
            .map(|ix| ix.count_nodes(&mut seen))
            .sum();
        (self.window.len(), nodes)
    }
}

/// Batch node resolver used by [`collect_leaves`]: answers `keys[i]` at
/// `out[i]` (`None` = node not stored). The DHT-backed implementation is
/// [`crate::dht::MetaDht::get_batch`].
pub(crate) type BatchFetch<'a> = dyn FnMut(&[NodeKey]) -> BlobResult<Vec<Option<NodeBody>>> + 'a;

/// Walk the tree of `snap` and collect the leaves overlapping the byte range
/// `[byte_lo, byte_hi)`, left to right.
///
/// The descent is breadth-first: each tree level's surviving children are
/// resolved through a single `fetch` call, so a DHT-backed fetch (see
/// [`crate::dht::MetaDht::get_batch`]) issues one RPC per (level, server)
/// pair instead of one per node. A missing node is a hard error — it means
/// the version was not published or metadata was lost.
pub fn collect_leaves(
    fetch: &mut BatchFetch<'_>,
    blob: BlobId,
    snap: &SnapshotInfo,
    byte_lo: u64,
    byte_hi: u64,
) -> BlobResult<Vec<LeafHit>> {
    let mut hits = Vec::new();
    if byte_lo >= byte_hi {
        return Ok(hits);
    }
    if byte_hi > snap.total_bytes {
        return Err(BlobError::OutOfBounds {
            offset: byte_lo,
            len: byte_hi - byte_lo,
            size: snap.total_bytes,
        });
    }
    let Some(root) = snap.root(blob) else {
        return Err(BlobError::OutOfBounds {
            offset: byte_lo,
            len: byte_hi - byte_lo,
            size: 0,
        });
    };
    // (key, byte offset of the node's first byte in the BLOB), kept in
    // left-to-right order; leaves all sit at the bottom level, so hits come
    // out ordered.
    let mut frontier: Vec<(NodeKey, u64)> = vec![(root, 0)];
    while !frontier.is_empty() {
        let keys: Vec<NodeKey> = frontier.iter().map(|(k, _)| *k).collect();
        let bodies = fetch(&keys)?;
        // Hard invariant (not debug-only): a short answer would silently
        // truncate the zip below and drop whole subtrees from the read.
        assert_eq!(bodies.len(), keys.len(), "fetch must answer every key");
        let mut next = Vec::new();
        for ((key, node_byte_start), body) in frontier.into_iter().zip(bodies) {
            let body = body.ok_or(BlobError::MetadataMissing {
                blob: key.blob,
                version: key.version,
                page_lo: key.page_lo,
                page_hi: key.page_hi,
            })?;
            match body {
                NodeBody::Leaf(page) => {
                    debug_assert!(key.is_leaf());
                    hits.push(LeafHit {
                        page_index: key.page_lo,
                        blob_byte_off: node_byte_start,
                        page,
                    });
                }
                NodeBody::Inner { left, right } => {
                    let left_len = left.as_ref().map_or(0, |c| c.byte_len);
                    for (child, start) in
                        [(left, node_byte_start), (right, node_byte_start + left_len)]
                    {
                        let Some(c) = child else { continue };
                        let (a, b) = (start, start + c.byte_len);
                        if a < byte_hi && byte_lo < b {
                            next.push((
                                NodeKey {
                                    blob: key.blob,
                                    version: c.version,
                                    page_lo: c.page_lo,
                                    page_hi: c.page_hi,
                                },
                                a,
                            ));
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const PS: u64 = 100;

    #[test]
    fn node_codec_roundtrips() {
        let keys = [
            NodeKey {
                blob: BlobId(7),
                version: 3,
                page_lo: 0,
                page_hi: 8,
            },
            NodeKey {
                blob: BlobId(u64::MAX),
                version: u64::MAX,
                page_lo: u64::MAX - 1,
                page_hi: u64::MAX,
            },
        ];
        for k in keys {
            assert!(k.encode().starts_with(NODE_KEY_PREFIX));
        }
        assert!(
            keys[0].encode() < keys[1].encode(),
            "store keys sort in (blob, version, range) order"
        );

        let bodies = [
            NodeBody::Inner {
                left: None,
                right: None,
            },
            NodeBody::Inner {
                left: Some(ChildRef {
                    version: 2,
                    page_lo: 0,
                    page_hi: 4,
                    byte_len: 400,
                }),
                right: Some(ChildRef {
                    version: 3,
                    page_lo: 4,
                    page_hi: 8,
                    byte_len: 137,
                }),
            },
            NodeBody::Leaf(PageRef {
                id: PageId(0xAB, 0xCD),
                byte_len: 64,
                providers: vec![],
            }),
            NodeBody::Leaf(PageRef {
                id: PageId(1, 2),
                byte_len: 100,
                providers: vec![NodeId(5), NodeId(9), NodeId(200)],
            }),
        ];
        for b in bodies {
            assert_eq!(NodeBody::decode(&b.encode()), Some(b));
        }
        assert_eq!(NodeBody::decode(&[]), None);
        assert_eq!(NodeBody::decode(&[9]), None, "unknown tag");
        let mut trailing = bodies_last_encode();
        trailing.push(0);
        assert_eq!(NodeBody::decode(&trailing), None, "trailing bytes");
        fn bodies_last_encode() -> Vec<u8> {
            NodeBody::Inner {
                left: None,
                right: None,
            }
            .encode()
        }
    }

    /// In-memory harness that plays version manager + DHT + providers for
    /// the pure metadata logic: appends real byte vectors, keeps reference
    /// snapshots, and checks every read against them.
    struct Harness {
        blob: BlobId,
        descs: Vec<WriteDesc>,
        ix: DescIndex,
        nodes: HashMap<NodeKey, NodeBody>,
        pages: HashMap<PageId, Vec<u8>>,
        snapshots: Vec<Vec<u8>>, // snapshots[v] = content at version v
        next_page: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                blob: BlobId(7),
                descs: Vec::new(),
                ix: DescIndex::new(PS),
                nodes: HashMap::new(),
                pages: HashMap::new(),
                snapshots: vec![Vec::new()],
                next_page: 0,
            }
        }

        fn total(&self) -> (u64, u64) {
            self.descs
                .last()
                .map(|d| (d.total_pages, d.total_bytes))
                .unwrap_or((0, 0))
        }

        fn store_pages(&mut self, data: &[u8]) -> Vec<PageRef> {
            data.chunks(PS as usize)
                .map(|chunk| {
                    let id = PageId(0xABCD, self.next_page);
                    self.next_page += 1;
                    self.pages.insert(id, chunk.to_vec());
                    PageRef {
                        id,
                        byte_len: chunk.len() as u64,
                        providers: vec![NodeId(0)],
                    }
                })
                .collect()
        }

        fn append(&mut self, data: &[u8]) -> Version {
            assert!(!data.is_empty());
            let (tp, tb) = self.total();
            let manifest = self.store_pages(data);
            let v = self.descs.len() as Version + 1;
            let desc = WriteDesc {
                version: v,
                kind: WriteKind::Append,
                page_lo: tp,
                page_hi: tp + manifest.len() as u64,
                byte_lo: tb,
                byte_hi: tb + data.len() as u64,
                total_pages: tp + manifest.len() as u64,
                total_bytes: tb + data.len() as u64,
            };
            self.ix.apply(&desc);
            let nodes = plan_write(self.blob, &self.ix, &desc, &manifest);
            for (k, b) in nodes {
                assert!(
                    self.nodes.insert(k, b).is_none(),
                    "node {k:?} written twice"
                );
            }
            self.descs.push(desc);
            let mut snap = self.snapshots.last().unwrap().clone();
            snap.extend_from_slice(data);
            self.snapshots.push(snap);
            v
        }

        /// Overwrite whole pages starting at page `page_lo`.
        fn overwrite(&mut self, page_lo: u64, data: &[u8]) -> Version {
            let (tp, tb) = self.total();
            let byte_lo = page_lo * PS; // valid only below the short tail, asserted below
            assert!(
                byte_lo + data.len() as u64 <= tb,
                "test uses interior overwrites"
            );
            assert_eq!(data.len() as u64 % PS, 0, "interior overwrite keeps layout");
            let manifest = self.store_pages(data);
            let v = self.descs.len() as Version + 1;
            let desc = WriteDesc {
                version: v,
                kind: WriteKind::Write,
                page_lo,
                page_hi: page_lo + manifest.len() as u64,
                byte_lo,
                byte_hi: byte_lo + data.len() as u64,
                total_pages: tp,
                total_bytes: tb,
            };
            self.ix.apply(&desc);
            let nodes = plan_write(self.blob, &self.ix, &desc, &manifest);
            for (k, b) in nodes {
                self.nodes.insert(k, b);
            }
            self.descs.push(desc);
            let mut snap = self.snapshots.last().unwrap().clone();
            snap[byte_lo as usize..byte_lo as usize + data.len()].copy_from_slice(data);
            self.snapshots.push(snap);
            v
        }

        fn read(&self, version: Version, off: u64, len: u64) -> Vec<u8> {
            let d = self
                .descs
                .iter()
                .rev()
                .find(|d| d.version <= version)
                .expect("version exists");
            let snap = SnapshotInfo {
                version: d.version,
                total_pages: d.total_pages,
                total_bytes: d.total_bytes,
                page_size: PS,
            };
            let mut fetch =
                |keys: &[NodeKey]| Ok(keys.iter().map(|k| self.nodes.get(k).cloned()).collect());
            let hits = collect_leaves(&mut fetch, self.blob, &snap, off, off + len).unwrap();
            let mut out = Vec::new();
            for h in &hits {
                let page = &self.pages[&h.page.id];
                let a = off.max(h.blob_byte_off);
                let b = (off + len).min(h.blob_byte_off + h.page.byte_len);
                out.extend_from_slice(
                    &page[(a - h.blob_byte_off) as usize..(b - h.blob_byte_off) as usize],
                );
            }
            out
        }

        fn check_all_versions(&self) {
            for (v, want) in self.snapshots.iter().enumerate().skip(1) {
                let got = self.read(v as Version, 0, want.len() as u64);
                assert_eq!(&got, want, "full read of version {v} diverged");
            }
        }
    }

    fn pattern(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn single_append_roundtrip() {
        let mut h = Harness::new();
        h.append(&pattern(250, 1)); // 3 pages, short tail
        h.check_all_versions();
        assert_eq!(h.read(1, 150, 60), pattern(250, 1)[150..210]);
    }

    #[test]
    fn appends_share_subtrees() {
        let mut h = Harness::new();
        h.append(&pattern(300, 1));
        let nodes_after_v1 = h.nodes.len();
        h.append(&pattern(100, 50));
        // v2 adds one page: one leaf plus the path to the (possibly grown)
        // root — not a whole new tree.
        let added = h.nodes.len() - nodes_after_v1;
        assert!(added <= 3, "expected a short path, got {added} nodes");
        h.check_all_versions();
    }

    #[test]
    fn tree_growth_references_old_roots() {
        let mut h = Harness::new();
        h.append(&pattern(100, 1)); // 1 page, span 1
        h.append(&pattern(100, 2)); // span 2
        h.append(&pattern(100, 3)); // span 4
        h.append(&pattern(100, 4));
        h.append(&pattern(100, 5)); // span 8
        h.check_all_versions();
        // Old snapshots still fully readable mid-history.
        assert_eq!(h.read(2, 0, 200), h.snapshots[2]);
    }

    #[test]
    fn short_tail_pages_then_more_appends() {
        let mut h = Harness::new();
        h.append(&pattern(130, 1)); // pages: 100 + 30 (short, interior after next append)
        h.append(&pattern(70, 9)); // 1 short page
        h.append(&pattern(250, 17)); // 3 pages
        h.check_all_versions();
        // Cross-append range read spanning the short pages.
        let want = &h.snapshots[3][90..260];
        assert_eq!(h.read(3, 90, 170), want);
    }

    #[test]
    fn overwrite_creates_new_snapshot_and_preserves_old() {
        let mut h = Harness::new();
        h.append(&pattern(400, 1)); // 4 full pages
        h.overwrite(1, &pattern(200, 99)); // replace pages 1..3
        h.check_all_versions();
        assert_ne!(h.snapshots[1], h.snapshots[2]);
        assert_eq!(h.read(1, 0, 400), h.snapshots[1]); // versioning isolation
    }

    #[test]
    fn concurrent_appenders_can_link_to_pending_versions() {
        // Simulates two writers A (v1) and B (v2) racing: B plans its tree
        // from descriptors alone, *before* A's nodes are visible, then A and
        // B publish in any order. The combined tree must be complete.
        let blob = BlobId(1);
        let a_pages: Vec<PageRef> = (0..3)
            .map(|i| PageRef {
                id: PageId(1, i),
                byte_len: 100,
                providers: vec![NodeId(0)],
            })
            .collect();
        let b_pages: Vec<PageRef> = (0..2)
            .map(|i| PageRef {
                id: PageId(2, i),
                byte_len: 100,
                providers: vec![NodeId(1)],
            })
            .collect();
        let d1 = WriteDesc {
            version: 1,
            kind: WriteKind::Append,
            page_lo: 0,
            page_hi: 3,
            byte_lo: 0,
            byte_hi: 300,
            total_pages: 3,
            total_bytes: 300,
        };
        let d2 = WriteDesc {
            version: 2,
            kind: WriteKind::Append,
            page_lo: 3,
            page_hi: 5,
            byte_lo: 300,
            byte_hi: 500,
            total_pages: 5,
            total_bytes: 500,
        };
        // B plans first (sees only descriptors), then A plans. Each builds
        // its index snapshot from the descriptors alone.
        let mut ix_a = DescIndex::new(PS);
        ix_a.apply(&d1);
        let mut ix_b = ix_a.clone();
        ix_b.apply(&d2);
        let b_nodes = plan_write(blob, &ix_b, &d2, &b_pages);
        let a_nodes = plan_write(blob, &ix_a, &d1, &a_pages);
        let mut store: HashMap<NodeKey, NodeBody> = HashMap::new();
        for (k, v) in b_nodes.into_iter().chain(a_nodes) {
            store.insert(k, v);
        }
        // Version 2's full tree must resolve every reference.
        let snap = SnapshotInfo {
            version: 2,
            total_pages: 5,
            total_bytes: 500,
            page_size: PS,
        };
        let mut fetch = |keys: &[NodeKey]| Ok(keys.iter().map(|k| store.get(k).cloned()).collect());
        let hits = collect_leaves(&mut fetch, blob, &snap, 0, 500).unwrap();
        assert_eq!(hits.len(), 5);
        assert_eq!(hits[0].page.id, PageId(1, 0));
        assert_eq!(hits[4].page.id, PageId(2, 1));
        let offs: Vec<u64> = hits.iter().map(|h| h.blob_byte_off).collect();
        assert_eq!(offs, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn out_of_bounds_reads_fail() {
        let mut h = Harness::new();
        h.append(&pattern(100, 1));
        let snap = SnapshotInfo {
            version: 1,
            total_pages: 1,
            total_bytes: 100,
            page_size: PS,
        };
        let mut fetch =
            |keys: &[NodeKey]| Ok(keys.iter().map(|k| h.nodes.get(k).cloned()).collect());
        let err = collect_leaves(&mut fetch, h.blob, &snap, 50, 151).unwrap_err();
        assert!(matches!(err, BlobError::OutOfBounds { .. }));
    }

    #[test]
    fn missing_node_is_reported() {
        let mut h = Harness::new();
        h.append(&pattern(300, 1));
        let snap = SnapshotInfo {
            version: 1,
            total_pages: 3,
            total_bytes: 300,
            page_size: PS,
        };
        let mut fetch = |keys: &[NodeKey]| Ok(vec![None; keys.len()]);
        let err = collect_leaves(&mut fetch, h.blob, &snap, 0, 10).unwrap_err();
        assert!(matches!(err, BlobError::MetadataMissing { .. }));
    }

    #[test]
    fn blob_state_reap_queue_is_lazy_and_ordered() {
        use fabric::{ClusterSpec, Fabric};
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        let mut st = BlobState::new(BlobId(1), PS);
        let mani = |tag: u64| {
            Arc::new(vec![PageRef {
                id: PageId(tag, 0),
                byte_len: PS,
                providers: vec![NodeId(0)],
            }])
        };
        // Three appends assigned at t = 10, 20, 30.
        for (i, t) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let (d, _) = st
                .assign(UpdateKind::Append, PS, mani(i), t, fx.gate())
                .unwrap();
            assert_eq!(d.version, i);
        }
        // Nothing expired yet: O(1) front peek, empty result.
        assert!(st.take_expired(40, 100).is_empty());
        // v1 and v2 expired; v3 not yet. Order is oldest-first.
        assert_eq!(st.take_expired(125, 100), vec![1, 2]);
        // Taken versions are not handed out again until given back.
        assert!(st.take_expired(125, 100).is_empty());
        st.give_back(&[1, 2]);
        // A committed version is skipped, not force-completed.
        let gates = st.commit(1).unwrap();
        assert_eq!(gates.len(), 1, "v1 publishes immediately");
        assert_eq!(st.published, 1);
        assert_eq!(st.take_expired(125, 100), vec![2]);
        // Giving back skips versions that are no longer pending.
        st.commit(2).unwrap();
        st.give_back(&[2]);
        // v3 eventually expires too (v2's entry is long gone).
        assert_eq!(st.take_expired(131, 100), vec![3]);
        // Publishing v3 hands the published index over at its version.
        let gates = st.commit(3).unwrap();
        assert_eq!(gates.len(), 1);
        assert_eq!(st.published_index.version(), 3);
        assert!(st.window.is_empty());
    }

    #[test]
    fn blob_state_commit_out_of_order_returns_gates_in_publication_order() {
        use fabric::{ClusterSpec, Fabric};
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        let mut st = BlobState::new(BlobId(1), PS);
        let mani = |tag: u64| {
            Arc::new(vec![PageRef {
                id: PageId(tag, 0),
                byte_len: PS,
                providers: vec![NodeId(0)],
            }])
        };
        for i in 1..=3u64 {
            st.assign(UpdateKind::Append, PS, mani(i), i * 10, fx.gate())
                .unwrap();
        }
        assert!(
            st.commit(3).unwrap().is_empty(),
            "v3 waits for predecessors"
        );
        assert!(st.commit(2).unwrap().is_empty(), "v2 waits for v1");
        assert_eq!(st.published, 0);
        let gates = st.commit(1).unwrap();
        assert_eq!(gates.len(), 3, "v1 unlocks the whole chain");
        assert_eq!(st.published, 3);
        assert_eq!(st.published_index.version(), 3);
        // Idempotent re-commit of published versions is a no-op.
        assert!(st.commit(2).unwrap().is_empty());
    }

    /// The index `assign` hands out, the one an orphan carries and
    /// `share_published()` each answer exactly like an index rebuilt from
    /// the descriptors up to its version, through appends, interior and
    /// tail overwrites, out-of-order commits, a drained window and a
    /// refused write.
    #[test]
    fn blob_state_indexes_match_a_rebuild_from_the_descriptors() {
        use fabric::{ClusterSpec, Fabric};
        fn check(ix: &DescIndex, descs: &[WriteDesc]) {
            let mut want = DescIndex::new(PS);
            for d in descs {
                want.apply(d);
            }
            assert_eq!(ix.version(), want.version());
            assert_eq!(ix.total_bytes(), want.total_bytes());
            for page in 0..=want.total_pages() + 1 {
                assert_eq!(
                    ix.owner_of_page(page),
                    want.owner_of_page(page),
                    "page {page}"
                );
                assert_eq!(
                    ix.byte_offset_of_page(page),
                    want.byte_offset_of_page(page),
                    "page {page}"
                );
            }
        }
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        let mut st = BlobState::new(BlobId(1), PS);
        let mut tag = 0;
        let mut assign = |st: &mut BlobState, kind, nbytes: u64| {
            tag += 1;
            let mani = (0..nbytes.div_ceil(PS))
                .map(|i| PageRef {
                    id: PageId(tag, i),
                    byte_len: PS.min(nbytes - i * PS),
                    providers: vec![NodeId(0)],
                })
                .collect();
            let got = st.assign(kind, nbytes, Arc::new(mani), tag, fx.gate());
            if let Ok((desc, ix)) = &got {
                check(ix, &st.descs[..desc.version as usize]);
            }
            check(&st.share_published(), &st.descs[..st.published as usize]);
            got
        };
        let write_at = |offset| UpdateKind::WriteAt { offset };
        let committed = |st: &mut BlobState, v| {
            st.commit(v).unwrap();
            check(&st.share_published(), &st.descs[..st.published as usize]);
        };

        check(&st.share_published(), &[]);
        assign(&mut st, UpdateKind::Append, 250).unwrap(); // v1: pages 0..3, short tail
        assign(&mut st, UpdateKind::Append, 100).unwrap(); // v2: page 3
        assign(&mut st, write_at(100), 100).unwrap(); // v3: interior, page 1
        assign(&mut st, UpdateKind::Append, 300).unwrap(); // v4: pages 4..7
        assert!(
            assign(&mut st, write_at(150), 100).is_err(),
            "not a boundary"
        );
        assert_eq!(st.assigned(), 4, "a refused write assigns nothing");
        committed(&mut st, 3);
        committed(&mut st, 2);
        assert_eq!(st.published, 0);
        let (desc, ix, _) = st.orphan(1).unwrap().unwrap();
        assert_eq!(desc.version, 1);
        check(&ix, &st.descs[..1]);
        committed(&mut st, 1);
        assert_eq!(st.published, 3);
        assign(&mut st, write_at(550), 200).unwrap(); // v5: tail-extending
        committed(&mut st, 4);
        committed(&mut st, 5);
        assert_eq!(st.pending_len(), 0);
        // A drained window: the next version builds on the published index.
        assign(&mut st, UpdateKind::Append, 100).unwrap(); // v6
        assign(&mut st, write_at(0), 200).unwrap(); // v7: interior, pages 0..2
        committed(&mut st, 6);
        committed(&mut st, 7);
        assert_eq!(st.published, 7);
    }

    #[test]
    fn nodes_are_emitted_children_first() {
        let mut h = Harness::new();
        let (tp, tb) = h.total();
        let manifest = h.store_pages(&pattern(500, 3));
        let desc = WriteDesc {
            version: 1,
            kind: WriteKind::Append,
            page_lo: tp,
            page_hi: tp + 5,
            byte_lo: tb,
            byte_hi: tb + 500,
            total_pages: 5,
            total_bytes: 500,
        };
        let mut ix = DescIndex::new(PS);
        ix.apply(&desc);
        let nodes = plan_write(h.blob, &ix, &desc, &manifest);
        let mut seen = std::collections::HashSet::new();
        for (k, b) in &nodes {
            if let NodeBody::Inner { left, right } = b {
                for c in [left, right].into_iter().flatten() {
                    if c.version == 1 {
                        assert!(
                            seen.contains(&(c.page_lo, c.page_hi)),
                            "child [{}, {}) of {k:?} emitted after parent",
                            c.page_lo,
                            c.page_hi
                        );
                    }
                }
            }
            seen.insert((k.page_lo, k.page_hi));
        }
    }
}
