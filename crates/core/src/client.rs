//! The BlobSeer client: implements the full write and read protocols on top
//! of the provider manager, providers, metadata DHT and version manager.
//!
//! Writes (paper §3.1.2): split into pages → store pages on providers — the
//! page streams of one update are *grouped by target provider* into one
//! batched `put_pages` per provider — → obtain a version + descriptor-index
//! snapshot from the version manager → write the metadata tree (batched,
//! one RPC per metadata server) → commit. Reads: snapshot lookup → resolve
//! the overlapped leaves — locally from a descriptor-index snapshot pinned
//! at the read version when one is available (fresh-snapshot shortcut: one
//! batched leaf get per metadata server, zero inner tree-node fetches), or
//! by breadth-first descent of the version's segment tree (one batched DHT
//! round per level) for historical versions — → fetch pages, grouped by
//! chosen replica into one batched `get_pages` per provider, with per-page
//! replica failover for the subset that fails → assemble.

use std::collections::BTreeMap;
use std::sync::Arc;

use fabric::{run_parallel, NodeId, Payload, Proc, TaskFn};
use parking_lot::Mutex;
use rand::Rng;

use crate::cluster::Services;
use crate::desc_index::DescIndex;
use crate::error::{BlobError, BlobResult};
use crate::lock_ranks;
use crate::meta::{collect_leaves, plan_write, LeafHit, NodeBody, NodeKey, PageRef, SnapshotInfo};
use crate::provider::Provider;
use crate::provider_manager::LeaseId;
use crate::read_cache::{LruMap, ReadCache, ReadCacheStats};
use crate::types::{BlobId, PageId, Version};
use crate::version_manager::UpdateKind;

/// Byte range + holders of one page, as reported by
/// [`BlobClient::page_locations`] — the primitive added for Hadoop's
/// data-location-aware scheduler (paper §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageLocation {
    pub byte_off: u64,
    pub byte_len: u64,
    pub hosts: Vec<NodeId>,
}

/// Pages stored on providers for an update that has no BLOB or version yet:
/// step 1 of the write protocol, which needs neither the namespace nor the
/// version manager. [`BlobClient::publish`] makes them a version.
#[derive(Debug)]
pub struct Staged {
    page_size: u64,
    nbytes: u64,
    manifest: Arc<Vec<PageRef>>,
}

impl Staged {
    /// The page size the data was cut at.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }
}

/// A client handle; cheap to create, one per logical client. Caches the
/// freshest descriptor-index snapshot per BLOB so the version manager only
/// ships descriptor deltas past the cached watermark, and keeps a bounded
/// snapshot-scoped [`ReadCache`] of published pages and metadata leaves.
///
/// Every per-client cache is bounded: the per-BLOB views evict by LRU at
/// `client_index_cache_entries`, the read cache at `read_cache_bytes` —
/// client memory stays flat under many-thousand-blob churn.
pub struct BlobClient {
    svc: Arc<Services>,
    views: Mutex<LruMap<BlobId, BlobView>>,
    cache: ReadCache,
}

/// What a client remembers about one BLOB.
#[derive(Default)]
struct BlobView {
    /// Fixed at creation; `None` until first learned.
    page_size: Option<u64>,
    /// Freshest descriptor-index snapshot seen.
    index: Option<DescIndex>,
    /// Highest version this client has *observed published* (from a VM
    /// snapshot answer or its own awaited write); 0 = none. The read cache
    /// is only ever consulted — or fed — at or below this floor; pending
    /// versions can still be rewritten by a write-timeout force-complete,
    /// so nothing about them is cacheable.
    published: Version,
}

impl BlobClient {
    pub(crate) fn new(svc: Arc<Services>) -> Self {
        let cache = ReadCache::new(svc.config.read_cache_bytes);
        Self::with_cache(svc, cache)
    }

    /// A client whose read cache never holds anything — every read takes
    /// the full fabric path. Used to compare cached vs uncached reads.
    pub(crate) fn uncached(svc: Arc<Services>) -> Self {
        Self::with_cache(svc, ReadCache::disabled())
    }

    fn with_cache(svc: Arc<Services>, cache: ReadCache) -> Self {
        let index_cap = svc.config.client_index_cache_entries;
        BlobClient {
            svc,
            views: Mutex::with_rank(LruMap::new(index_cap), lock_ranks::READ_CACHE),
            cache,
        }
    }

    /// Read-cache counters (hits/misses/evictions/residency) — deterministic
    /// currencies for benches and tests.
    pub fn cache_stats(&self) -> ReadCacheStats {
        self.cache.stats()
    }

    /// BLOBs currently held by the bounded per-BLOB view cache (page size,
    /// descriptor index, published watermark).
    pub fn index_cache_entries(&self) -> usize {
        self.views.lock().len()
    }

    /// Update this client's view of `blob`, creating it on first touch.
    fn with_view(&self, blob: BlobId, update: impl FnOnce(&mut BlobView)) {
        let mut views = self.views.lock();
        let mut view = views.remove(&blob).unwrap_or_default();
        update(&mut view);
        views.insert(blob, view, 1);
    }

    /// Record that `version` of `blob` is published (monotone floor).
    fn note_published(&self, blob: BlobId, version: Version) {
        if version > 0 {
            self.with_view(blob, |v| v.published = v.published.max(version));
        }
    }

    /// Has this client observed `version` of `blob` as published? Purely
    /// local — the gate that keeps pending versions out of the read cache.
    fn is_published(&self, blob: BlobId, version: Version) -> bool {
        version > 0
            && self
                .views
                .lock()
                .get(&blob)
                .is_some_and(|v| version <= v.published)
    }

    /// Create a new BLOB (page size defaults to the deployment config).
    pub fn create(&self, p: &Proc, page_size: Option<u64>) -> BlobId {
        let id = self.svc.vm.create_blob(p, page_size);
        let ps = page_size.unwrap_or(self.svc.config.page_size);
        self.with_view(id, |v| v.page_size = Some(ps));
        id
    }

    /// Page size of `blob` (cached after first lookup).
    pub(crate) fn page_size(&self, p: &Proc, blob: BlobId) -> BlobResult<u64> {
        if let Some(ps) = self.views.lock().get(&blob).and_then(|v| v.page_size) {
            return Ok(ps);
        }
        let ps = self.svc.vm.page_size_of(p, blob)?;
        self.with_view(blob, |v| v.page_size = Some(ps));
        Ok(ps)
    }

    /// Append `data` to the BLOB; returns the version this update created.
    pub fn append(&self, p: &Proc, blob: BlobId, data: Payload) -> BlobResult<Version> {
        self.update(p, blob, None, data)
    }

    /// Overwrite starting at byte `offset` (see crate docs for alignment
    /// rules); returns the version created.
    pub fn write(&self, p: &Proc, blob: BlobId, offset: u64, data: Payload) -> BlobResult<Version> {
        self.update(p, blob, Some(offset), data)
    }

    fn update(
        &self,
        p: &Proc,
        blob: BlobId,
        offset: Option<u64>,
        data: Payload,
    ) -> BlobResult<Version> {
        if data.is_empty() {
            return Err(BlobError::EmptyWrite);
        }
        let ps = self.page_size(p, blob)?;
        self.publish(p, blob, offset, self.stage(p, ps, data)?)
    }

    /// Step 1 of an update: cut `data` into pages of `page_size` and store
    /// them on providers, fully in parallel, under a lease that is settled
    /// before this returns. Until [`Self::publish`] the pages belong to no
    /// BLOB; if it never comes, they stay where a writer that died between
    /// steps 1 and 2 leaves its pages: stored, accounted, unreferenced.
    pub fn stage(&self, p: &Proc, page_size: u64, data: Payload) -> BlobResult<Staged> {
        if data.is_empty() {
            return Err(BlobError::EmptyWrite);
        }
        let nbytes = data.len();
        let manifest = Arc::new(self.store_pages(p, &data.chunks(page_size))?);
        Ok(Staged {
            page_size,
            nbytes,
            manifest,
        })
    }

    /// Steps 2–4 of an update: make `staged` the next version of `blob`,
    /// appended (`offset` = `None`) or written at `offset`, and wait until
    /// it is published. The pages must have been cut at `blob`'s page size.
    pub fn publish(
        &self,
        p: &Proc,
        blob: BlobId,
        offset: Option<u64>,
        staged: Staged,
    ) -> BlobResult<Version> {
        let Staged {
            page_size,
            nbytes,
            manifest,
        } = staged;
        let ps = self.page_size(p, blob)?;
        if ps != page_size {
            return Err(BlobError::UnalignedWrite {
                detail: format!("pages staged at {page_size} bytes, blob {blob:?} has {ps}"),
            });
        }

        // Step 2: get a version plus an index snapshot pinned at it. The VM
        // only ships (and charges for) descriptors after the cached
        // watermark; the snapshot itself is an O(1) Arc share.
        let known = self.known_desc_version(blob);
        let kind = match offset {
            None => UpdateKind::Append,
            Some(o) => UpdateKind::WriteAt { offset: o },
        };
        let (desc, index) = self
            .svc
            .vm
            .assign(p, blob, kind, nbytes, manifest.clone(), known)?;
        self.refresh_desc_cache(blob, &index);

        // Step 3: write the metadata tree, batched — one RPC per metadata
        // server instead of one per node.
        self.svc
            .dht
            .put_batch(p, plan_write(blob, &index, &desc, &manifest))?;

        // Step 4: commit, then wait for publication (read-your-writes).
        self.svc.vm.commit(p, blob, desc.version)?;
        self.svc.vm.wait_published(p, blob, desc.version)?;
        self.note_published(blob, desc.version);
        Ok(desc.version)
    }

    fn store_pages(&self, p: &Proc, chunks: &[Payload]) -> BlobResult<Vec<PageRef>> {
        let repl = self.svc.config.replication;
        let ids: Vec<PageId> = chunks
            .iter()
            .map(|_| {
                let mut rng = p.rng();
                PageId(rng.gen(), rng.gen())
            })
            .collect();
        // Reserve exact per-chunk byte counts (the tail chunk may be short),
        // so the release paths — which hand back `chunk.len()` — balance.
        // Every reservation rides the returned lease: if this writer dies
        // anywhere below, the provider manager's reaper reclaims whatever
        // never became a stored page.
        let pages: Vec<(PageId, u64)> = ids
            .iter()
            .zip(chunks)
            .map(|(&id, c)| (id, c.len()))
            .collect();
        let (lease, placements) = self.svc.pm.allocate(p, &pages, repl, &[])?;
        let landed = self.stream_pages(p, chunks, &ids, lease, &placements);
        // However the stores ended, the lease is settled: landed pages
        // consumed their reservations at the providers, failed ones were
        // released inline — nothing is left for the reaper.
        self.svc.pm.settle(p, lease);
        let landed = landed?;

        // Emit manifests with replicas in allocation order (primary first),
        // failover replacements after.
        Ok(ids
            .into_iter()
            .zip(chunks)
            .zip(placements)
            .zip(landed)
            .map(|(((id, chunk), replicas), landed)| {
                let mut providers: Vec<NodeId> = replicas
                    .iter()
                    .map(|pr| pr.node())
                    .filter(|n| landed.contains(n))
                    .collect();
                let replacements: Vec<NodeId> = landed
                    .iter()
                    .filter(|n| !providers.contains(n))
                    .copied()
                    .collect();
                providers.extend(replacements);
                PageRef {
                    id,
                    byte_len: chunk.len(),
                    providers,
                }
            })
            .collect())
    }

    /// Step 1's data movement: stream every (page, replica) to its target
    /// and fail over the subset that did not land. Returns, per page, the
    /// nodes now holding it. Reservation bookkeeping is exact on every exit
    /// path — the caller settles the lease afterwards.
    #[expect(
        clippy::indexing_slicing,
        reason = "`ids`, `chunks`, `placements`, `landed` are parallel arrays and every `i` enumerates one; `provider_map` holds every placement's node"
    )]
    fn stream_pages(
        &self,
        p: &Proc,
        chunks: &[Payload],
        ids: &[PageId],
        lease: LeaseId,
        placements: &[Vec<Arc<Provider>>],
    ) -> BlobResult<Vec<Vec<NodeId>>> {
        let repl = self.svc.config.replication;
        // Group every (page, replica) stream by its target provider: one
        // batched put_pages per provider carries that provider's whole share
        // of the update, instead of one RPC per page-replica. BTreeMap keeps
        // the grouping deterministic across runs.
        let mut batches: BTreeMap<u32, (Arc<Provider>, Vec<usize>)> = BTreeMap::new();
        for (i, replicas) in placements.iter().enumerate() {
            for prov in replicas {
                batches
                    .entry(prov.node().0)
                    .or_insert_with(|| (prov.clone(), Vec::new()))
                    .1
                    .push(i);
            }
        }
        type BatchResult = (NodeId, Vec<(usize, BlobResult<()>)>);
        let mut tasks: Vec<TaskFn<BatchResult>> = Vec::with_capacity(batches.len());
        for (_, (prov, idxs)) in batches {
            let pages: Vec<(PageId, Payload)> =
                idxs.iter().map(|&i| (ids[i], chunks[i].clone())).collect();
            tasks.push(Box::new(move |wp: &Proc| {
                let node = prov.node();
                let results = prov.put_pages(wp, pages);
                (node, idxs.into_iter().zip(results).collect())
            }));
        }

        // Collect per-(page, replica) outcomes. Failed streams hand their
        // capacity reservation back immediately and queue for failover.
        let mut landed: Vec<Vec<NodeId>> = vec![Vec::new(); chunks.len()];
        let mut failures: Vec<(usize, Vec<NodeId>)> = Vec::new(); // (page, dead nodes)
        for (node, results) in run_parallel(p, "page-write", tasks) {
            for (i, res) in results {
                match res {
                    Ok(()) => landed[i].push(node),
                    Err(_) => {
                        self.svc.pm.release(
                            p,
                            lease,
                            &self.svc.provider_map[&node],
                            ids[i],
                            chunks[i].len(),
                        );
                        match failures.iter_mut().find(|(pg, _)| *pg == i) {
                            Some((_, dead)) => dead.push(node),
                            None => failures.push((i, vec![node])),
                        }
                    }
                }
            }
        }

        // Failover, page by page: re-place each missing replica on a fresh
        // provider, excluding nodes observed dead and replicas already
        // holding this page (a replacement must not collide with them).
        for (i, mut dead) in failures {
            while landed[i].len() < repl {
                let mut attempts = 1; // the batched stream already failed once
                loop {
                    let mut exclude = dead.clone();
                    exclude.extend(landed[i].iter().copied());
                    let target = self.svc.pm.any_alive(p, &exclude)?;
                    // The replacement reservation inherits the write's
                    // lease, keeping a mid-failover death reclaimable.
                    self.svc
                        .pm
                        .adopt(p, lease, &target, ids[i], chunks[i].len());
                    match target.put_page(p, ids[i], chunks[i].clone()) {
                        Ok(()) => {
                            landed[i].push(target.node());
                            break;
                        }
                        Err(BlobError::ProviderDown { node }) => {
                            self.svc
                                .pm
                                .release(p, lease, &target, ids[i], chunks[i].len());
                            dead.push(NodeId(node));
                            attempts += 1;
                            if attempts > 3 {
                                return Err(BlobError::PageUnavailable {
                                    detail: format!(
                                        "could not place page {:?} after {attempts} attempts",
                                        ids[i]
                                    ),
                                });
                            }
                        }
                        Err(e) => {
                            self.svc
                                .pm
                                .release(p, lease, &target, ids[i], chunks[i].len());
                            return Err(e);
                        }
                    }
                }
            }
        }
        Ok(landed)
    }

    /// Read `len` bytes at `offset` from `version` (`None` = latest
    /// published snapshot).
    ///
    /// A read of the latest snapshot takes the fresh-snapshot shortcut: the
    /// offset→page mapping is answered locally from the descriptor-index
    /// cache (refreshed with one descriptor-delta sync when stale) and only
    /// the leaf nodes are fetched from the DHT — the inner tree levels are
    /// skipped entirely, the same shape [`Self::page_locations`] uses.
    /// Historical versions keep the tree walk, the only structure that can
    /// answer them.
    pub fn read(
        &self,
        p: &Proc,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        len: u64,
    ) -> BlobResult<Payload> {
        let snap = self.svc.vm.snapshot(p, blob, version)?;
        // The VM only answers snapshots for published versions — this read's
        // version is now known-published and its pages/leaves cacheable.
        self.note_published(blob, snap.version);
        self.read_snapshot_inner(p, blob, &snap, offset, len, version.is_none())
    }

    /// Read against an already-resolved snapshot (saves the VM round-trip;
    /// BSFS pins snapshots at open time).
    ///
    /// The requested range is clamped to the snapshot end, exactly like
    /// [`Self::page_locations`]: a read at or past EOF returns a short
    /// (possibly empty) payload instead of an error, and `offset + len`
    /// cannot overflow. When the client's cached descriptor-index snapshot
    /// is pinned at exactly `snap.version` (writers after their own append,
    /// readers after a locality query), the leaf keys are computed locally
    /// and the inner tree levels are never fetched; a pinned snapshot is
    /// never *synced* for here, though, because `snap` may be historical.
    pub fn read_snapshot(
        &self,
        p: &Proc,
        blob: BlobId,
        snap: &SnapshotInfo,
        offset: u64,
        len: u64,
    ) -> BlobResult<Payload> {
        self.read_snapshot_inner(p, blob, snap, offset, len, false)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`parts` is sized to `hits.len()` and every `i` is an enumerate() index over `hits`"
    )]
    fn read_snapshot_inner(
        &self,
        p: &Proc,
        blob: BlobId,
        snap: &SnapshotInfo,
        offset: u64,
        len: u64,
        latest_requested: bool,
    ) -> BlobResult<Payload> {
        let end = offset.saturating_add(len).min(snap.total_bytes);
        if offset >= end {
            return Ok(Payload::empty());
        }
        // Published versions are immutable, so the read cache is consulted
        // before any fabric traffic — but only at or below this client's
        // published-version floor: a pending version's tree can still be
        // rewritten (write-timeout force-complete), so it is never cached.
        let published = self.is_published(blob, snap.version);
        let hits = match self.leaves_via_index(p, blob, snap, offset, end, latest_requested)? {
            Some(hits) => hits,
            None => self.leaves(p, blob, snap, offset, end)?,
        };
        let slice_to_range = |hit: &LeafHit, full: &Payload| {
            let (a, b) = (
                offset.max(hit.blob_byte_off),
                end.min(hit.blob_byte_off + hit.page.byte_len),
            );
            full.slice(a - hit.blob_byte_off, b - a)
        };
        let mut parts: Vec<Option<Payload>> = vec![None; hits.len()];
        if published {
            for (i, hit) in hits.iter().enumerate() {
                if let Some(full) = self.cache.get_page(blob, snap.version, hit.page.id) {
                    parts[i] = Some(slice_to_range(hit, &full));
                }
            }
        }
        // Choose one replica per remaining page up front — a dedicated read
        // replica holding the page when the deployment runs them (published
        // versions only; shields primaries from reader storms), else the
        // local provider short-circuit, else a random primary replica — and
        // group the fetches by chosen provider: one batched get_pages RPC
        // per provider moves its whole share of the range. Only the pages
        // that fail inside a batch fall back to per-page replica failover.
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, hit) in hits.iter().enumerate() {
            if parts[i].is_some() {
                continue;
            }
            let node = if published {
                pick_read_node(p, &self.svc, hit)
            } else {
                pick_replica(p, hit)
            };
            groups.entry(node).or_default().push(i);
        }
        type GroupResult = Vec<(usize, BlobResult<Payload>)>;
        let mut tasks: Vec<TaskFn<GroupResult>> = Vec::with_capacity(groups.len());
        for (node, idxs) in groups {
            let node = NodeId(node);
            let svc = self.svc.clone();
            let group_hits: Vec<LeafHit> = idxs.iter().map(|&i| hits[i].clone()).collect();
            tasks.push(Box::new(move |wp: &Proc| {
                fetch_group(wp, &svc, node, &group_hits)
                    .into_iter()
                    .zip(idxs)
                    .map(|(r, i)| (i, r))
                    .collect()
            }));
        }
        for group in run_parallel(p, "page-read", tasks) {
            for (i, res) in group {
                let hit = &hits[i];
                let full = res?;
                if published {
                    self.cache
                        .put_page(blob, snap.version, hit.page.id, full.clone());
                }
                parts[i] = Some(slice_to_range(hit, &full));
            }
        }
        let parts: Vec<Payload> = parts
            .into_iter()
            .map(|o| {
                o.ok_or_else(|| BlobError::Internal {
                    detail: "page-read batch answered fewer results than requested".into(),
                })
            })
            .collect::<BlobResult<_>>()?;
        Ok(Payload::concat(&parts))
    }

    fn leaves(
        &self,
        p: &Proc,
        blob: BlobId,
        snap: &SnapshotInfo,
        byte_lo: u64,
        byte_hi: u64,
    ) -> BlobResult<Vec<LeafHit>> {
        // Breadth-first descent: one batched DHT round per tree level, one
        // RPC per (level, server) pair.
        let dht = &self.svc.dht;
        let mut fetch = |keys: &[crate::meta::NodeKey]| dht.get_batch(p, keys);
        collect_leaves(&mut fetch, blob, snap, byte_lo, byte_hi)
    }

    /// The fresh-snapshot shortcut shared by [`Self::read`] and
    /// [`Self::page_locations`]: when a descriptor-index snapshot pinned at
    /// exactly `snap.version` is available, answer which pages overlap
    /// `[byte_lo, byte_hi)` — and where each starts — locally, and fetch
    /// *only* the leaf (provider-set) nodes in one batched DHT get per
    /// metadata server: zero inner tree-node gets. `None` means no pinned
    /// index can be had (historical version, empty BLOB, or a publication
    /// race) and the caller must walk the tree.
    ///
    /// The caller clamps: requires `byte_lo < byte_hi <= snap.total_bytes`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`keys`, `byte_offs`, `pages` are parallel arrays and `missing` holds indices drawn from `0..keys.len()`"
    )]
    fn leaves_via_index(
        &self,
        p: &Proc,
        blob: BlobId,
        snap: &SnapshotInfo,
        byte_lo: u64,
        byte_hi: u64,
        latest_requested: bool,
    ) -> BlobResult<Option<Vec<LeafHit>>> {
        let Some(ix) = self.index_at(p, blob, snap, latest_requested)? else {
            return Ok(None);
        };
        // The index answers which pages overlap the range and who owns each
        // (the owner version's tree is the one holding the live leaf).
        // The caller clamps the range below EOF, so a miss here means the
        // pinned index disagrees with its own snapshot descriptor — an
        // internal contract breach, not a user error.
        let index_gap = |what: &str| BlobError::Internal {
            detail: format!("pinned index at v{} has no {what}", snap.version),
        };
        let page_lo = ix
            .page_containing(byte_lo)
            .ok_or_else(|| index_gap("page containing the clamped offset"))?;
        let page_hi = ix
            .page_containing(byte_hi - 1)
            .ok_or_else(|| index_gap("page containing the clamped end"))?
            + 1;
        let mut keys = Vec::with_capacity((page_hi - page_lo) as usize);
        let mut byte_offs = Vec::with_capacity(keys.capacity());
        for page in page_lo..page_hi {
            let owner = ix
                .owner_of_page(page)
                .ok_or_else(|| index_gap("owner for a live page"))?;
            keys.push(NodeKey {
                blob,
                version: owner,
                page_lo: page,
                page_hi: page + 1,
            });
            byte_offs.push(
                ix.byte_offset_of_page(page)
                    .ok_or_else(|| index_gap("byte offset for a live page"))?,
            );
        }
        // Leaf nodes of published versions are immutable: probe the read
        // cache first and fetch only the misses from the DHT (one batched
        // get per metadata server). A leaf's NodeKey names its owner
        // version, so entries are shared by every later snapshot that still
        // maps the page — the gate stays the *read* version's publication.
        let published = self.is_published(blob, snap.version);
        let mut pages: Vec<Option<PageRef>> = vec![None; keys.len()];
        if published {
            for (i, key) in keys.iter().enumerate() {
                pages[i] = self.cache.get_leaf(*key);
            }
        }
        let missing: Vec<usize> = (0..keys.len()).filter(|&i| pages[i].is_none()).collect();
        if !missing.is_empty() {
            let miss_keys: Vec<NodeKey> = missing.iter().map(|&i| keys[i]).collect();
            let bodies = self.svc.dht.get_batch(p, &miss_keys)?;
            for (&i, body) in missing.iter().zip(bodies) {
                match body {
                    Some(NodeBody::Leaf(page)) => {
                        if published {
                            self.cache.put_leaf(keys[i], page.clone());
                        }
                        pages[i] = Some(page);
                    }
                    _ => {
                        return Err(BlobError::MetadataMissing {
                            blob: keys[i].blob,
                            version: keys[i].version,
                            page_lo: keys[i].page_lo,
                            page_hi: keys[i].page_hi,
                        })
                    }
                }
            }
        }
        keys.iter()
            .zip(byte_offs)
            .zip(pages)
            .map(|((key, blob_byte_off), page)| {
                let page = page.ok_or_else(|| BlobError::Internal {
                    detail: "leaf resolution left a hole in the page list".into(),
                })?;
                Ok(LeafHit {
                    page_index: key.page_lo,
                    blob_byte_off,
                    page,
                })
            })
            .collect::<BlobResult<Vec<LeafHit>>>()
            .map(Some)
    }

    /// Snapshot facts for a version (`None` = latest published).
    pub fn snapshot(
        &self,
        p: &Proc,
        blob: BlobId,
        version: Option<Version>,
    ) -> BlobResult<SnapshotInfo> {
        let snap = self.svc.vm.snapshot(p, blob, version)?;
        self.note_published(blob, snap.version);
        Ok(snap)
    }

    /// Byte size of a snapshot.
    pub fn size(&self, p: &Proc, blob: BlobId, version: Option<Version>) -> BlobResult<u64> {
        Ok(self.snapshot(p, blob, version)?.total_bytes)
    }

    /// Latest published version number.
    pub fn latest(&self, p: &Proc, blob: BlobId) -> BlobResult<Version> {
        let v = self.svc.vm.latest(p, blob)?;
        self.note_published(blob, v);
        Ok(v)
    }

    /// Retire a BLOB: every subsequent operation on it answers
    /// [`BlobError::NoSuchBlob`], its pending writes are abandoned (their
    /// provider reservations fall to the lease reaper), and its registry
    /// slot is gone when the call returns — see
    /// [`crate::version_manager::VersionManager::delete_blob`]. BSFS calls
    /// this when a file is deleted from the namespace.
    pub fn delete(&self, p: &Proc, blob: BlobId) -> BlobResult<()> {
        self.svc.vm.delete_blob(p, blob)?;
        // Read-cache entries for the deleted blob age out by LRU; the view
        // (with its published floor) goes now so a recreated registry can
        // never be confused (blob ids are never reused, this is
        // belt-and-braces).
        self.views.lock().remove(&blob);
        Ok(())
    }

    /// Page→provider distribution for a byte range — the primitive the
    /// paper adds so the Hadoop scheduler can see data locality (§3.2).
    ///
    /// The offset→page mapping is answered *locally* from the client's
    /// descriptor-index snapshot whenever one pinned at the queried version
    /// is available (refreshing the cache with one descriptor-delta sync
    /// from the version manager when the latest snapshot was asked for), so
    /// only the leaf (provider-set) nodes are fetched from the DHT — in one
    /// batched get per metadata server, with zero inner tree-node gets.
    /// Historical versions fall back to the tree walk, which is the only
    /// structure that can answer them.
    pub fn page_locations(
        &self,
        p: &Proc,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        len: u64,
    ) -> BlobResult<Vec<PageLocation>> {
        let snap = self.svc.vm.snapshot(p, blob, version)?;
        self.note_published(blob, snap.version);
        if len == 0 {
            return Ok(Vec::new());
        }
        let end = offset.saturating_add(len).min(snap.total_bytes);
        if offset >= end {
            return Ok(Vec::new());
        }
        let hits = match self.leaves_via_index(p, blob, &snap, offset, end, version.is_none())? {
            Some(hits) => hits,
            // Historical version (or a publication race): walk the tree.
            None => self.leaves(p, blob, &snap, offset, end)?,
        };
        Ok(hits
            .into_iter()
            .map(|h| PageLocation {
                byte_off: h.blob_byte_off,
                byte_len: h.page.byte_len,
                hosts: h.page.providers,
            })
            .collect())
    }

    /// A descriptor-index snapshot pinned at exactly `snap.version`, if one
    /// can be had: the cached one when fresh, else — only when the caller
    /// asked for the latest snapshot — a one-RPC descriptor-delta sync from
    /// the version manager. `None` means the caller must walk the tree.
    fn index_at(
        &self,
        p: &Proc,
        blob: BlobId,
        snap: &SnapshotInfo,
        latest_requested: bool,
    ) -> BlobResult<Option<DescIndex>> {
        if snap.version == 0 {
            return Ok(None);
        }
        let known = {
            let mut views = self.views.lock();
            match views.get(&blob).and_then(|v| v.index.as_ref()) {
                Some(ix) if ix.version() == snap.version => return Ok(Some(ix.clone())),
                Some(ix) => ix.version(),
                None => 0,
            }
        };
        if !latest_requested {
            return Ok(None);
        }
        let ix = self.svc.vm.sync_index(p, blob, known)?;
        self.refresh_desc_cache(blob, &ix);
        // A publication racing between the snapshot call and the sync can
        // skew the two apart; then only the tree can answer.
        Ok((ix.version() == snap.version).then_some(ix))
    }

    /// Highest descriptor-index version this client has cached for `blob`
    /// (0 when none). The guard lives only for this probe — callers go on to
    /// put wire traffic down, which must never happen under a cache lock.
    fn known_desc_version(&self, blob: BlobId) -> Version {
        let mut views = self.views.lock();
        let index = views.get(&blob).and_then(|v| v.index.as_ref());
        index.map_or(0, |ix| ix.version())
    }

    /// Install `ix` as the cached snapshot for `blob` unless a newer one is
    /// already there: concurrent refreshers race, snapshots are cumulative,
    /// so the highest version wins.
    fn refresh_desc_cache(&self, blob: BlobId, ix: &DescIndex) {
        self.with_view(blob, |v| {
            let cur = v.index.as_ref();
            if cur.is_none_or(|cur| cur.version() < ix.version()) {
                v.index = Some(ix.clone());
            }
        });
    }
}

/// Choose where a batched read of a **published** page goes when the
/// deployment runs dedicated read replicas: the local primary when it holds
/// the page (a short-circuit read is free), else the page's hash-designated
/// read replica if it is alive and has synced the page — spreading reader
/// load across the replica tier and off the primaries — else the ordinary
/// primary-replica choice. A replica is only ever *preferred*, never
/// required: one that has not synced the page yet (or sits crash-wiped) is
/// skipped here and by failover, so a stale replica can never serve a
/// version it lacks.
#[expect(
    clippy::indexing_slicing,
    reason = "the subscript is `% n`, the length of the non-empty replica vector"
)]
fn pick_read_node(p: &Proc, svc: &Services, hit: &LeafHit) -> u32 {
    if hit.page.providers.contains(&p.node()) {
        return p.node().0;
    }
    let replicas = &svc.replicas;
    let n = replicas.len();
    if n > 0 {
        let id = hit.page.id;
        let start = ((id.0 ^ id.1) % n as u64) as usize;
        for k in 0..n {
            let r = &replicas[(start + k) % n];
            if r.is_alive() && r.has_page(id) {
                return r.node().0;
            }
        }
    }
    pick_replica(p, hit)
}

/// Choose the replica a batched read pulls `hit` from: the local provider
/// when one holds the page (short-circuit read), a uniformly random replica
/// otherwise. Returns the raw node id; pages with no replicas group under
/// `u32::MAX` and resolve to a loud failover error.
#[expect(
    clippy::indexing_slicing,
    reason = "subscript 0 under the `len == 1` arm, `gen_range(0..n)` under the `len == n` arm"
)]
fn pick_replica(p: &Proc, hit: &LeafHit) -> u32 {
    let providers = &hit.page.providers;
    if providers.contains(&p.node()) {
        return p.node().0;
    }
    match providers.len() {
        0 => u32::MAX,
        1 => providers[0].0,
        n => providers[p.rng().gen_range(0..n)].0,
    }
}

/// Fetch a group of pages whose chosen replica is `node`, in one batched
/// `get_pages` exchange. Pages the batch could not serve (or an unknown
/// chosen node) fall back to per-page replica failover.
pub(crate) fn fetch_group(
    p: &Proc,
    svc: &Services,
    node: NodeId,
    hits: &[LeafHit],
) -> Vec<BlobResult<Payload>> {
    let Some(prov) = svc.provider_map.get(&node) else {
        // The chosen replica is not a known provider (misrouted metadata or
        // a page with no replicas at all): resolve page by page; failover
        // reports the unknown nodes in its error detail.
        return hits
            .iter()
            .map(|h| fetch_with_failover(p, svc, h, &[]))
            .collect();
    };
    let ids: Vec<PageId> = hits.iter().map(|h| h.page.id).collect();
    prov.get_pages(p, &ids)
        .into_iter()
        .zip(hits)
        .map(|(res, hit)| match res {
            Ok(data) => {
                debug_assert_eq!(data.len(), hit.page.byte_len);
                Ok(data)
            }
            // Only this page failed inside the batch: retry the remaining
            // replicas, excluding the provider just tried.
            Err(_) => fetch_with_failover(p, svc, hit, &[node]),
        })
        .collect()
}

fn fetch_with_failover(
    p: &Proc,
    svc: &Services,
    hit: &LeafHit,
    exclude: &[NodeId],
) -> BlobResult<Payload> {
    // Prefer a local replica (short-circuit read), then random order.
    let mut order: Vec<NodeId> = hit
        .page
        .providers
        .iter()
        .copied()
        .filter(|n| !exclude.contains(n))
        .collect();
    // Read replicas that have synced this page widen the failover set:
    // pages are content-addressed by globally unique id, so any holder
    // serves identical bytes. `has_page` keeps a stale replica out.
    for r in &svc.replicas {
        let n = r.node();
        if !exclude.contains(&n) && !order.contains(&n) && r.has_page(hit.page.id) {
            order.push(n);
        }
    }
    {
        let mut rng = p.rng();
        use rand::seq::SliceRandom;
        order.shuffle(&mut *rng);
    }
    if let Some(i) = order.iter().position(|n| *n == p.node()) {
        order.swap(0, i);
    }
    // Replica nodes the provider map cannot resolve: almost certainly
    // misrouted/corrupt metadata, so they must show up in the diagnostics
    // rather than being skipped silently.
    let mut unknown: Vec<NodeId> = Vec::new();
    let mut last_err: Option<BlobError> = None;
    for node in order {
        let Some(prov) = svc.provider_map.get(&node) else {
            unknown.push(node);
            continue;
        };
        match prov.get_page(p, hit.page.id) {
            Ok(data) => {
                debug_assert_eq!(data.len(), hit.page.byte_len);
                return Ok(data);
            }
            Err(e) => last_err = Some(e),
        }
    }
    let mut detail = match (&last_err, hit.page.providers.is_empty()) {
        (_, true) => format!("page {:?} has no replicas", hit.page.id),
        (Some(e), _) => format!(
            "all replicas failed for page {:?}: last error: {e}",
            hit.page.id
        ),
        (None, _) => format!("no reachable replica of page {:?} was tried", hit.page.id),
    };
    let join = |nodes: &[NodeId]| {
        nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    if !exclude.is_empty() {
        detail.push_str(&format!(
            "; batched fetch already failed on [{}]",
            join(exclude)
        ));
    }
    if !unknown.is_empty() {
        detail.push_str(&format!(
            "; replica nodes [{}] are not in the provider map (misrouted metadata?)",
            join(&unknown)
        ));
    }
    Err(BlobError::PageUnavailable { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Layout;
    use crate::config::BlobSeerConfig;
    use crate::dht::{MetaDht, MetaServer};
    use crate::provider_manager::ProviderManager;
    use crate::version_manager::VersionManager;
    use fabric::{ClusterSpec, Fabric};
    use std::collections::HashMap;

    /// Hand-built service bundle whose provider map deliberately misses a
    /// node, simulating misrouted/corrupt metadata.
    fn services_with_unmapped_node(fx: &Fabric) -> Arc<Services> {
        let providers: Vec<Arc<Provider>> = vec![Arc::new(Provider::new_mem(NodeId(1)))];
        let provider_map: HashMap<NodeId, Arc<Provider>> =
            providers.iter().map(|pr| (pr.node(), pr.clone())).collect();
        let dht = Arc::new(MetaDht::new(vec![Arc::new(MetaServer::new(NodeId(0)))], 0));
        let config = BlobSeerConfig::test_small(100);
        Arc::new(Services {
            vm: Arc::new(VersionManager::new(
                NodeId(0),
                dht.clone(),
                100,
                0,
                u64::MAX, // a write timeout no run reaches
            )),
            pm: Arc::new(ProviderManager::new(NodeId(0), providers.clone(), u64::MAX)),
            dht,
            providers,
            replicas: Vec::new(),
            provider_map,
            config,
            layout: Layout::compact(fx.spec()),
            reaper: crate::service::Service::new(crate::service::REAPER, NodeId(0)),
            replica_watermarks: Default::default(),
        })
    }

    #[test]
    fn failover_error_surfaces_unknown_replica_nodes() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let svc = services_with_unmapped_node(&fx);
        svc.providers[0].kill(); // the one known replica is down too
        let h = fx.spawn(NodeId(0), "t", move |p| {
            let hit = LeafHit {
                page_index: 0,
                blob_byte_off: 0,
                page: PageRef {
                    id: PageId(7, 7),
                    byte_len: 10,
                    // Node 9 is not in the provider map; node 1 is but dead.
                    providers: vec![NodeId(9), NodeId(1)],
                },
            };
            let msg = fetch_with_failover(p, &svc, &hit, &[])
                .unwrap_err()
                .to_string();
            assert!(
                msg.contains("not in the provider map"),
                "unknown replicas must be diagnosable, got: {msg}"
            );
            assert!(
                msg.contains("n9"),
                "the unknown node id must be named: {msg}"
            );
            assert!(
                msg.contains("down"),
                "the dead replica's error must survive as last error: {msg}"
            );
            // Only unknown replicas: still a loud, specific diagnosis.
            let hit2 = LeafHit {
                page_index: 0,
                blob_byte_off: 0,
                page: PageRef {
                    id: PageId(8, 8),
                    byte_len: 10,
                    providers: vec![NodeId(9)],
                },
            };
            let msg2 = fetch_with_failover(p, &svc, &hit2, &[])
                .unwrap_err()
                .to_string();
            assert!(msg2.contains("no reachable replica"), "got: {msg2}");
            assert!(msg2.contains("not in the provider map"), "got: {msg2}");
            // No replicas at all.
            let hit3 = LeafHit {
                page_index: 0,
                blob_byte_off: 0,
                page: PageRef {
                    id: PageId(9, 9),
                    byte_len: 10,
                    providers: vec![],
                },
            };
            let msg3 = fetch_with_failover(p, &svc, &hit3, &[])
                .unwrap_err()
                .to_string();
            assert!(msg3.contains("no replicas"), "got: {msg3}");
        });
        fx.run();
        h.take().unwrap();
    }
}
