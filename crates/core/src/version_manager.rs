//! The version manager — BlobSeer's only centralized data-path entity
//! (paper §3.1.1: "versions are assigned by a centralized version manager,
//! which is also responsible for ensuring consistency when concurrent writes
//! to the same BLOB are issued").
//!
//! Protocol (paper §3.1.2), per update:
//!
//! 1. the writer stores its pages on providers (fully parallel, no VM
//!    involvement);
//! 2. [`VersionManager::assign`] — the writer presents the *manifest* of its
//!    pages and receives a version number, its byte/page placement, and the
//!    descriptors of every previously-assigned version (enough to build its
//!    metadata tree without reading anyone else's);
//! 3. the writer stores its metadata tree nodes in the DHT;
//! 4. [`VersionManager::commit`] — the VM publishes versions strictly in
//!    order: version v becomes visible only once v and all versions below it
//!    committed. Readers only ever observe published versions, which is why
//!    concurrent reads and appends do not disturb each other (Figures 4/5).
//!
//! Because the manifest is handed over *before* the version number exists,
//! the VM can finish the job of a writer that crashes between steps 2 and 4
//! ([`VersionManager::force_complete`] / lazy reaping with
//! `write_timeout_ns`), so a dead client cannot stall publication forever.
//!
//! # Sharded control plane
//!
//! The paper's whole point is sustained throughput under heavy access
//! concurrency, so serialization at the VM must only ever be the
//! *protocol's* (per-BLOB version ordering), never an implementation
//! artifact. The state is therefore two-level:
//!
//! * a registry (`RwLock<HashMap<BlobId, Arc<BlobSlot>>>`) handing out
//!   per-BLOB slots — read-locked briefly on every operation, write-locked
//!   only by `create_blob`;
//! * one `Mutex<BlobState>` per BLOB — operations on distinct BLOBs
//!   never contend.
//!
//! The lock unit, `BlobState`, lives in [`crate::meta`] and is the only
//! place that knows the publication protocol: its fields are private, its
//! pending versions are one dense window (`published + 1 ..= assigned`, the
//! invariant is stated beside the struct), and every verb below calls
//! exactly one of its methods per lock hold. This file is the shell around
//! it — the registry and its epoch GC, the `retired` flag, the pause
//! barrier, lock acquisition, and everything that must *not* happen under
//! the lock: the wire charge (`charge`, written once),
//! manifest validation (against the immutable page size), `plan_write` for
//! force-complete, DHT traffic, gate waits and gate firing. No lock is ever
//! held across a blocking fabric call, so the same code is safe in live
//! mode where processes genuinely run in parallel
//! (`tests/control_plane_concurrency.rs` races it on real threads).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fabric::sync::Gate;
use fabric::{Fabric, NodeId, Proc};
use parking_lot::{Mutex, RwLock};

use crate::desc_index::DescIndex;
use crate::dht::MetaDht;
use crate::error::{BlobError, BlobResult};
use crate::meta::{plan_write, BlobState, PageRef, SnapshotInfo};
use crate::types::{BlobId, Version, WriteDesc};

pub use crate::types::UpdateKind;

/// Modeled wire size of one [`WriteDesc`] in the `assign` response — the VM
/// ships the caller every descriptor after its `known` watermark.
const DESC_WIRE_BYTES: u64 = 48;

/// One BLOB's slot in the sharded registry: the immutable facts live outside
/// the lock (so `page_size_of` and manifest validation never take it), the
/// mutable control-plane state inside. `retired` flips when the BLOB is
/// deleted — readers observe it without any registry write lock; the slot
/// itself is dropped later by an epoch-based GC pass.
struct BlobSlot {
    page_size: u64,
    retired: AtomicBool,
    state: Mutex<BlobState>,
}

/// Registry garbage collection: retired slots are removed in *epochs*. A
/// `delete_blob` records the current epoch; a GC pass removes only slots
/// retired in an earlier epoch, then advances the epoch — so a slot survives
/// at least one full pass after its retirement (operations that already
/// fetched the `Arc` run out harmlessly) and the registry write lock is
/// taken once per pass for the whole ready batch, never on the read path.
#[derive(Default)]
struct RegistryGc {
    epoch: u64,
    retired: Vec<(u64, BlobId)>,
}

/// The centralized version manager service.
pub struct VersionManager {
    node: NodeId,
    fabric: Fabric,
    dht: Arc<MetaDht>,
    ctl_msg_bytes: u64,
    /// CPU charged on the VM node per request — models the serialization
    /// point the paper calls "low overhead" and lets benches observe it.
    vm_cpu_ops: u64,
    write_timeout_ns: u64,
    /// Fault injection: while set, every request stalls at entry (the VM is
    /// alive but mute — a GC pause). Set via `BlobSeer::inject`.
    paused: AtomicBool,
    default_page_size: u64,
    next_blob: AtomicU64,
    blobs: RwLock<HashMap<BlobId, Arc<BlobSlot>>>,
    gc: Mutex<RegistryGc>,
}

impl VersionManager {
    pub fn new(
        node: NodeId,
        fabric: Fabric,
        dht: Arc<MetaDht>,
        default_page_size: u64,
        ctl_msg_bytes: u64,
        vm_cpu_ops: u64,
        write_timeout_ns: u64,
    ) -> Self {
        VersionManager {
            node,
            fabric,
            dht,
            ctl_msg_bytes,
            vm_cpu_ops,
            write_timeout_ns,
            paused: AtomicBool::new(false),
            default_page_size,
            next_blob: AtomicU64::new(1),
            blobs: RwLock::with_rank(HashMap::new(), crate::lock_ranks::REGISTRY),
            gc: Mutex::new(RegistryGc::default()),
        }
    }

    /// Fault injection: freeze (`true`) or resume (`false`) the service.
    /// While frozen, every request that reaches the VM stalls at entry until
    /// the next poll after the heal. Idempotent.
    pub(crate) fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Release);
    }

    /// Poll cadence of processes parked behind a paused service; bounds how
    /// long after a heal the service resumes.
    const PAUSE_POLL_NS: u64 = 5 * fabric::MILLIS;

    /// Entry gate of every request: a paused VM answers nothing, so the
    /// caller's process sleeps in poll steps until the service is healed.
    /// Deliberately *before* `charge` — a frozen service does not even ack.
    fn pause_barrier(&self, p: &Proc) {
        while self.paused.load(Ordering::Acquire) {
            p.sleep(Self::PAUSE_POLL_NS);
        }
    }

    /// One request/response exchange with the service, plus its CPU charge.
    /// `extra_response_bytes` is what rides the answer beyond the plain
    /// control message (the descriptor delta of `assign` / `sync_index`).
    fn charge(&self, p: &Proc, extra_response_bytes: u64) {
        p.rpc(
            self.node,
            self.ctl_msg_bytes,
            self.ctl_msg_bytes + extra_response_bytes,
        );
        if self.vm_cpu_ops > 0 {
            p.compute(self.node, self.vm_cpu_ops);
        }
    }

    /// Wake the waiters of newly published (or retired) versions — always
    /// called with no lock held, in the order the state machine returned.
    fn fire(gates: Vec<Gate>) {
        for gate in gates {
            gate.set();
        }
    }

    /// The registry slot for `blob`: a brief read lock on the registry, then
    /// lock-free access to the immutable facts and the per-blob mutex. A
    /// retired (deleted) BLOB answers `NoSuchBlob` whether or not its slot
    /// was already swept by the epoch GC.
    fn slot(&self, blob: BlobId) -> BlobResult<Arc<BlobSlot>> {
        let slot = self
            .blobs
            .read()
            .get(&blob)
            .cloned()
            .ok_or(BlobError::NoSuchBlob(blob))?;
        if slot.retired.load(Ordering::Acquire) {
            return Err(BlobError::NoSuchBlob(blob));
        }
        Ok(slot)
    }

    /// Create a BLOB with the given page size (or the deployment default).
    pub fn create_blob(&self, p: &Proc, page_size: Option<u64>) -> BlobId {
        self.pause_barrier(p);
        self.charge(p, 0);
        let id = BlobId(self.next_blob.fetch_add(1, Ordering::Relaxed));
        let ps = page_size.unwrap_or(self.default_page_size);
        let slot = Arc::new(BlobSlot {
            page_size: ps,
            retired: AtomicBool::new(false),
            state: Mutex::with_rank(BlobState::new(id, ps), crate::lock_ranks::BLOB_STATE),
        });
        self.blobs.write().insert(id, slot);
        id
    }

    /// Retire a BLOB (the namespace deleted its file). The slot flips to
    /// retired — no registry write lock, so the lock-free read path is never
    /// touched — and is recorded for a later [`Self::gc_registry`] pass.
    /// Every subsequent operation answers `NoSuchBlob`; pending writes are
    /// abandoned (their provider reservations fall to the lease reaper) and
    /// their gates fire so parked [`Self::wait_published`] callers wake to a
    /// typed `NoSuchBlob` instead of hanging on versions that can never
    /// publish.
    pub fn delete_blob(&self, p: &Proc, blob: BlobId) -> BlobResult<()> {
        self.pause_barrier(p);
        self.charge(p, 0);
        let slot = self.slot(blob)?;
        slot.retired.store(true, Ordering::Release);
        {
            let mut gc = self.gc.lock();
            let epoch = gc.epoch;
            gc.retired.push((epoch, blob));
        }
        // The retired flag is set before the gates fire: a woken waiter
        // re-checks it and reports the deletion. Gate wakeups are
        // replay-visible (they reschedule parked fibers): they fire in
        // version order, outside the per-blob lock like every other gate set.
        let gates = slot.state.lock().retire();
        Self::fire(gates);
        Ok(())
    }

    /// One epoch-based GC pass over the registry: drop the slots of BLOBs
    /// retired in an earlier epoch, then advance the epoch. A freshly
    /// retired slot therefore survives exactly one pass before its memory is
    /// reclaimed, and the registry write lock is taken once per pass for the
    /// whole ready batch — the read path never pays for deletions. Returns
    /// the number of slots dropped. Run by the background reaper, or
    /// directly by tests.
    pub fn gc_registry(&self) -> usize {
        let ready: Vec<BlobId> = {
            let mut gc = self.gc.lock();
            let epoch = gc.epoch;
            gc.epoch += 1;
            let (ready, keep) = gc.retired.drain(..).partition(|&(e, _)| e < epoch);
            gc.retired = keep;
            ready.into_iter().map(|(_, b)| b).collect()
        };
        if !ready.is_empty() {
            let mut reg = self.blobs.write();
            for b in &ready {
                reg.remove(b);
            }
        }
        ready.len()
    }

    /// Number of registry slots currently held (live + retired-but-unswept).
    /// Diagnostics for the GC tests.
    pub fn registry_len(&self) -> usize {
        self.blobs.read().len()
    }

    /// Ids of every live (non-retired) BLOB — the reaper's work list.
    /// Sorted: callers sweep blobs (and issue any resulting DHT traffic) in
    /// a deterministic order, never the registry map's iteration order.
    pub fn blob_ids(&self) -> Vec<BlobId> {
        #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
        let mut ids: Vec<BlobId> = self
            .blobs
            .read()
            .iter()
            .filter(|(_, s)| !s.retired.load(Ordering::Acquire))
            .map(|(&b, _)| b)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Reap every live BLOB (see [`Self::reap_expired`]): the background
    /// reaper's per-tick sweep, so a blob whose writers all died and that
    /// nobody touches again still publishes without waiting for the next
    /// `assign`/`commit`. Every blob is attempted; the first error (e.g. a
    /// metadata outage mid-force-complete — the affected blob is given its
    /// expired versions back and retries next tick) is reported after the
    /// sweep.
    pub(crate) fn reap_all(&self, p: &Proc) -> BlobResult<()> {
        let mut first_err = None;
        for blob in self.blob_ids() {
            if let Err(e) = self.reap_expired(p, blob) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Page size of a BLOB. Immutable, so no per-blob lock is taken.
    pub(crate) fn page_size_of(&self, p: &Proc, blob: BlobId) -> BlobResult<u64> {
        self.pause_barrier(p);
        self.charge(p, 0);
        Ok(self.slot(blob)?.page_size)
    }

    /// Step 2 of the write protocol: reserve a version for an update of
    /// `nbytes` described by `manifest`, and return its descriptor plus an
    /// immutable descriptor-index snapshot pinned at the new version. The
    /// snapshot is an O(1) `Arc` share of the VM's persistent index — no
    /// history is copied — while the modeled wire cost still covers every
    /// descriptor after the caller's `known` watermark. The new version
    /// stays invisible until committed and all its predecessors published.
    ///
    /// The per-blob lock is held only for the descriptor computation and
    /// state splice; empty-write and manifest-shape validation run lock-free
    /// against the immutable page size, and the wire charge happens after
    /// the lock is released.
    pub fn assign(
        &self,
        p: &Proc,
        blob: BlobId,
        kind: UpdateKind,
        nbytes: u64,
        manifest: Arc<Vec<PageRef>>,
        known: Version,
    ) -> BlobResult<(WriteDesc, DescIndex)> {
        self.pause_barrier(p);
        self.reap_expired(p, blob)?;
        let result = (|| {
            if nbytes == 0 {
                return Err(BlobError::EmptyWrite);
            }
            let slot = self.slot(blob)?;
            let k_pages = nbytes.div_ceil(slot.page_size);
            if manifest.len() as u64 != k_pages {
                return Err(BlobError::UnalignedWrite {
                    detail: format!(
                        "manifest has {} pages but {} bytes need {} pages of {}",
                        manifest.len(),
                        nbytes,
                        k_pages,
                        slot.page_size
                    ),
                });
            }
            let gate = self.fabric.gate();
            let mut st = slot.state.lock();
            // The assignment timestamp is read under the blob lock: the
            // window's O(1) expiry peek relies on per-blob monotone times,
            // which a pre-lock read would break in live mode (preempted
            // writer admits an older timestamp second).
            st.assign(kind, nbytes, manifest, self.fabric.now(), gate)
        })();
        // The descriptor delta rides the assign response (the caller learns
        // every version after its `known` watermark and pays for it on the
        // wire, even though the in-process hand-off is an Arc share). Errors
        // pay the plain control exchange.
        let unseen = result
            .as_ref()
            .map_or(0, |(desc, _)| desc.version.saturating_sub(known));
        self.charge(p, unseen * DESC_WIRE_BYTES);
        result
    }

    /// Step 4: the writer finished storing its metadata. Publishes the
    /// version once all predecessors are published. Idempotent.
    pub fn commit(&self, p: &Proc, blob: BlobId, version: Version) -> BlobResult<()> {
        self.pause_barrier(p);
        self.charge(p, 0);
        self.reap_expired(p, blob)?;
        let slot = self.slot(blob)?;
        let gates = slot.state.lock().commit(version)?;
        Self::fire(gates);
        Ok(())
    }

    /// Block until `version` is published. Returns immediately when it
    /// already is. The gate wait happens outside the per-blob lock; a BLOB
    /// deleted while the caller was parked yields `NoSuchBlob` — deletion
    /// fires every pending gate precisely so no waiter hangs on a version
    /// that can never publish.
    pub fn wait_published(&self, p: &Proc, blob: BlobId, version: Version) -> BlobResult<()> {
        self.pause_barrier(p);
        let slot = self.slot(blob)?;
        let Some(gate) = slot.state.lock().waiter(version)? else {
            return Ok(());
        };
        gate.wait(p);
        if slot.retired.load(Ordering::Acquire) {
            return Err(BlobError::NoSuchBlob(blob));
        }
        Ok(())
    }

    /// Snapshot facts for `version` (`None` = latest published). Pending
    /// versions are invisible, matching the paper's reader semantics.
    pub fn snapshot(
        &self,
        p: &Proc,
        blob: BlobId,
        version: Option<Version>,
    ) -> BlobResult<SnapshotInfo> {
        self.pause_barrier(p);
        self.charge(p, 0);
        self.slot(blob)?.state.lock().snapshot(version)
    }

    /// Latest published version.
    pub fn latest(&self, p: &Proc, blob: BlobId) -> BlobResult<Version> {
        Ok(self.snapshot(p, blob, None)?.version)
    }

    /// Ship the caller a descriptor-index snapshot pinned at the latest
    /// *published* version (an O(1) `Arc` share in-process). The modeled
    /// wire cost covers every descriptor past the caller's `known`
    /// watermark, exactly like the delta that rides an [`Self::assign`]
    /// response — this is how a read-only client gets an index fresh enough
    /// to answer offset→page locality queries without walking the DHT tree.
    pub fn sync_index(&self, p: &Proc, blob: BlobId, known: Version) -> BlobResult<DescIndex> {
        self.pause_barrier(p);
        let slot = self.slot(blob)?;
        let index = slot.state.lock().share_published();
        self.charge(p, index.version().saturating_sub(known) * DESC_WIRE_BYTES);
        Ok(index)
    }

    /// Number of assigned-but-unpublished versions (diagnostics).
    pub fn pending_count(&self, blob: BlobId) -> usize {
        self.slot(blob)
            .map_or(0, |slot| slot.state.lock().pending_len())
    }

    /// Memory-bound diagnostics: `(pending writes, distinct index nodes)`
    /// retained by this blob's control plane — the live index, the published
    /// index, and every pending write's pinned snapshot, with structurally
    /// shared subtrees counted exactly once. This is the number the
    /// desc-index memory-bound stress tests hold proportional to the live
    /// pending count (× tree depth), not to pending × pages.
    pub fn pending_footprint(&self, blob: BlobId) -> (usize, usize) {
        self.slot(blob)
            .map_or((0, 0), |slot| slot.state.lock().footprint())
    }

    /// Complete a version on behalf of its (presumably dead) writer: build
    /// and store its metadata tree from the manifest and pinned index
    /// snapshot it handed over at `assign` time (both `Arc` shares — no
    /// history copy), then commit it. Idempotent; concurrent invocations and
    /// races with a resurrected writer are harmless because node writes are
    /// idempotent. The planning and DHT traffic run with no lock held.
    pub fn force_complete(&self, p: &Proc, blob: BlobId, version: Version) -> BlobResult<()> {
        self.pause_barrier(p);
        let slot = self.slot(blob)?;
        let Some((desc, index, manifest)) = slot.state.lock().orphan(version)? else {
            return Ok(());
        };
        self.dht
            .put_batch(p, plan_write(blob, &index, &desc, &manifest))?;
        let gates = slot.state.lock().commit(version)?;
        Self::fire(gates);
        Ok(())
    }

    /// Force-complete every pending version older than the configured write
    /// timeout. Called lazily from `assign`/`commit`; also usable directly
    /// by tests and by an optional reaper daemon. The common no-expiry case
    /// peeks the front of the blob's window under its lock — O(1), never a
    /// scan of the pending versions.
    pub fn reap_expired(&self, p: &Proc, blob: BlobId) -> BlobResult<()> {
        self.pause_barrier(p);
        let Ok(slot) = self.slot(blob) else {
            return Ok(());
        };
        let now = self.fabric.now();
        let expired = slot.state.lock().take_expired(now, self.write_timeout_ns);
        // A concurrent force-completer or a resurrected writer racing us
        // here is fine: node writes are idempotent, commit is too.
        let mut left = expired.as_slice();
        while let Some((&version, rest)) = left.split_first() {
            if let Err(e) = self.force_complete(p, blob, version) {
                // Give the unprocessed tail back so the next interaction
                // retries instead of silently dropping the reap.
                slot.state.lock().give_back(left);
                return Err(e);
            }
            left = rest;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dht::MetaServer;
    use crate::types::PageId;
    use fabric::{ClusterSpec, Fabric};

    const PS: u64 = 100;

    fn setup(fx: &Fabric) -> Arc<VersionManager> {
        let dht = Arc::new(MetaDht::new(vec![Arc::new(MetaServer::new(NodeId(1)))], 0));
        Arc::new(VersionManager::new(
            NodeId(0),
            fx.clone(),
            dht,
            PS,
            64,
            0,
            1_000_000_000,
        ))
    }

    fn manifest(n: u64, tag: u64, last_len: u64) -> Arc<Vec<PageRef>> {
        Arc::new(
            (0..n)
                .map(|i| PageRef {
                    id: PageId(tag, i),
                    byte_len: if i == n - 1 { last_len } else { PS },
                    providers: vec![NodeId(2)],
                })
                .collect(),
        )
    }

    #[test]
    fn append_assign_and_publish_in_order() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            let (d1, ix1) = vm2
                .assign(p, blob, UpdateKind::Append, 250, manifest(3, 1, 50), 0)
                .unwrap();
            assert_eq!(d1.version, 1);
            assert_eq!(ix1.version(), 1); // snapshot pinned at the new version
            assert_eq!(ix1.total_bytes(), 250);
            let (d2, ix2) = vm2
                .assign(p, blob, UpdateKind::Append, 100, manifest(1, 2, 100), 0)
                .unwrap();
            assert_eq!(d2.version, 2);
            assert_eq!(ix2.version(), 2); // snapshot covers v1 and v2
            assert_eq!(ix2.owner_of_page(0), Some(1));
            assert_eq!(ix2.owner_of_page(3), Some(2));
            assert_eq!(d2.byte_lo, 250);
            assert_eq!(d2.page_lo, 3);
            // ix1 is immutable: v2's assignment did not leak into it.
            assert_eq!(ix1.version(), 1);
            assert_eq!(ix1.owner_of_page(3), None);

            // Committing v2 first publishes nothing.
            vm2.commit(p, blob, 2).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 0);
            // v1 commits -> both publish.
            vm2.commit(p, blob, 1).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 2);
            let snap = vm2.snapshot(p, blob, None).unwrap();
            assert_eq!(snap.total_bytes, 350);
            assert_eq!(snap.total_pages, 4);
            // Historical snapshot.
            let s1 = vm2.snapshot(p, blob, Some(1)).unwrap();
            assert_eq!(s1.total_bytes, 250);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn sync_index_ships_published_snapshots_only() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            assert_eq!(vm2.sync_index(p, blob, 0).unwrap().version(), 0);
            let (d1, _) = vm2
                .assign(p, blob, UpdateKind::Append, 250, manifest(3, 1, 50), 0)
                .unwrap();
            // Assigned but unpublished: readers must not see it.
            assert_eq!(vm2.sync_index(p, blob, 0).unwrap().version(), 0);
            vm2.commit(p, blob, d1.version).unwrap();
            let ix = vm2.sync_index(p, blob, 0).unwrap();
            assert_eq!(ix.version(), 1);
            assert_eq!(ix.total_bytes(), 250);
            assert_eq!(ix.owner_of_page(2), Some(1));
            let (d2, _) = vm2
                .assign(p, blob, UpdateKind::Append, 100, manifest(1, 2, 100), 1)
                .unwrap();
            vm2.commit(p, blob, d2.version).unwrap();
            assert_eq!(vm2.sync_index(p, blob, 1).unwrap().version(), 2);
            assert!(matches!(
                vm2.sync_index(p, BlobId(999), 0),
                Err(BlobError::NoSuchBlob(_))
            ));
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn pending_versions_are_invisible() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            vm2.assign(p, blob, UpdateKind::Append, 100, manifest(1, 1, 100), 0)
                .unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 0);
            assert!(matches!(
                vm2.snapshot(p, blob, Some(1)),
                Err(BlobError::NoSuchVersion { .. })
            ));
            assert_eq!(vm2.pending_count(blob), 1);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn waiters_unblock_on_publication() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let (vma, vmb) = (vm.clone(), vm.clone());
        let blob_gate = fx.gate();
        let (bg1, bg2) = (blob_gate.clone(), blob_gate.clone());
        let shared: Arc<Mutex<Option<BlobId>>> = Arc::new(Mutex::new(None));
        let (s1, s2) = (shared.clone(), shared.clone());
        let writer = fx.spawn(NodeId(2), "writer", move |p| {
            let blob = vma.create_blob(p, None);
            *s1.lock() = Some(blob);
            bg1.set();
            let (d, _) = vma
                .assign(p, blob, UpdateKind::Append, 100, manifest(1, 1, 100), 0)
                .unwrap();
            p.sleep(50 * fabric::MILLIS);
            vma.commit(p, blob, d.version).unwrap();
            d.version
        });
        let waiter = fx.spawn(NodeId(3), "waiter", move |p| {
            bg2.wait(p);
            let blob = s2.lock().unwrap();
            // Wait for version 1 explicitly.
            loop {
                // The version may not be assigned yet; poll cheaply.
                match vmb.wait_published(p, blob, 1) {
                    Ok(()) => break,
                    Err(BlobError::NoSuchVersion { .. }) => p.sleep(fabric::MILLIS),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            p.now()
        });
        fx.run();
        writer.take().unwrap();
        let woke_at = waiter.take().unwrap();
        assert!(woke_at >= 50 * fabric::MILLIS);
    }

    #[test]
    fn interior_overwrite_validation() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            let (d1, _) = vm2
                .assign(p, blob, UpdateKind::Append, 400, manifest(4, 1, 100), 0)
                .unwrap();
            vm2.commit(p, blob, d1.version).unwrap();

            // Valid: replace pages 1..3.
            let (d2, _) = vm2
                .assign(
                    p,
                    blob,
                    UpdateKind::WriteAt { offset: 100 },
                    200,
                    manifest(2, 2, 100),
                    1,
                )
                .unwrap();
            assert_eq!((d2.page_lo, d2.page_hi), (1, 3));
            assert_eq!(d2.total_bytes, 400);

            // Invalid: offset not a boundary.
            assert!(matches!(
                vm2.assign(
                    p,
                    blob,
                    UpdateKind::WriteAt { offset: 150 },
                    100,
                    manifest(1, 3, 100),
                    2
                ),
                Err(BlobError::UnalignedWrite { .. })
            ));
            // Invalid: interior length not page-multiple.
            assert!(matches!(
                vm2.assign(
                    p,
                    blob,
                    UpdateKind::WriteAt { offset: 0 },
                    150,
                    manifest(2, 4, 50),
                    2
                ),
                Err(BlobError::UnalignedWrite { .. })
            ));
            // Valid: tail-extending write from a boundary.
            let (d3, _) = vm2
                .assign(
                    p,
                    blob,
                    UpdateKind::WriteAt { offset: 300 },
                    250,
                    manifest(3, 5, 50),
                    2,
                )
                .unwrap();
            assert_eq!(d3.total_bytes, 550);
            assert_eq!(d3.total_pages, 6);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn force_complete_unsticks_a_dead_writer() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            // Writer A assigns v1 then "dies" (never commits).
            vm2.assign(p, blob, UpdateKind::Append, 100, manifest(1, 1, 100), 0)
                .unwrap();
            // Writer B does a full append of v2.
            let (d2, _) = vm2
                .assign(p, blob, UpdateKind::Append, 100, manifest(1, 2, 100), 1)
                .unwrap();
            vm2.commit(p, blob, d2.version).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 0); // stuck behind v1

            // Not expired yet: reap does nothing.
            vm2.reap_expired(p, blob).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 0);

            // After the timeout the next VM interaction reaps v1.
            p.sleep(2_000_000_000);
            vm2.reap_expired(p, blob).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 2);
            assert_eq!(vm2.pending_count(blob), 0);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn zero_byte_appends_rejected() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            assert!(matches!(
                vm2.assign(p, blob, UpdateKind::Append, 0, Arc::new(vec![]), 0),
                Err(BlobError::EmptyWrite)
            ));
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn disjoint_blobs_use_disjoint_locks() {
        // Operations on one blob proceed while another blob's state mutex is
        // held hostage *by a different process* — the registry hands out
        // independent per-blob locks, so nothing funnels through a global
        // one (which would park the worker on the hostage below).
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let locked = fx.gate();
        let vm2 = vm.clone();
        let a = std::sync::Arc::new(std::sync::OnceLock::new());
        let b = std::sync::Arc::new(std::sync::OnceLock::new());
        let (a2, b2) = (a.clone(), b.clone());
        let locked2 = locked.clone();
        let hostage = fx.spawn(NodeId(2), "hostage", move |p| {
            a2.set(vm2.create_blob(p, None)).unwrap();
            b2.set(vm2.create_blob(p, None)).unwrap();
            let slot_a = vm2.slot(*a2.get().unwrap()).unwrap();
            // Leaked, so a's lock stays held for the worker's whole run; a
            // proc may not park under a ranked guard to the same end (the
            // shim's wire-while-locked assertion).
            std::mem::forget(slot_a.state.lock());
            locked2.set();
        });
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            locked.wait(p);
            let b = *b.get().unwrap();
            // Every control-plane verb on b completes despite a's lock being
            // held elsewhere (a global lock would deadlock right here).
            let (d, _) = vm2
                .assign(p, b, UpdateKind::Append, 100, manifest(1, 7, 100), 0)
                .unwrap();
            vm2.commit(p, b, d.version).unwrap();
            vm2.wait_published(p, b, d.version).unwrap();
            assert_eq!(vm2.latest(p, b).unwrap(), 1);
            assert_eq!(vm2.sync_index(p, b, 0).unwrap().version(), 1);
        });
        fx.run();
        h.take().unwrap();
        hostage.take().unwrap();
    }

    #[test]
    fn delete_wakes_parked_waiters_in_version_order() {
        // A gate wakeup is a replay-visible event: eight waiters, parked out
        // of order on eight uncommitted versions, wake 1, 2, … 8 when the
        // BLOB goes — the window's order, never the order they parked in.
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let vm = setup(&fx);
        let woken = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let woken2 = woken.clone();
        fx.spawn(NodeId(3), "owner", move |p| {
            let blob = vm.create_blob(p, None);
            for tag in 1..=8 {
                vm.assign(p, blob, UpdateKind::Append, 100, manifest(1, tag, 100), 0)
                    .unwrap();
            }
            for v in [5, 2, 8, 1, 7, 3, 6, 4] {
                let (vm, woken) = (vm.clone(), woken2.clone());
                p.fabric().spawn(NodeId(2), format!("w{v}"), move |p| {
                    let gone = vm.wait_published(p, blob, v);
                    assert!(matches!(gone, Err(BlobError::NoSuchBlob(_))), "{gone:?}");
                    woken.lock().push(v);
                });
            }
            p.sleep(1_000_000);
            vm.delete_blob(p, blob).unwrap();
        });
        fx.run();
        assert_eq!(*woken.lock(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn reap_retries_after_metadata_outage() {
        // A reap that fails mid-way (metadata server down) must keep the
        // expired version reapable and succeed on a later interaction, not
        // silently drop it.
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let server = Arc::new(MetaServer::new(NodeId(1)));
        let dht = Arc::new(MetaDht::new(vec![server.clone()], 0));
        let vm = Arc::new(VersionManager::new(
            NodeId(0),
            fx.clone(),
            dht,
            PS,
            64,
            0,
            1_000_000_000,
        ));
        let vm2 = vm.clone();
        let h = fx.spawn(NodeId(3), "t", move |p| {
            let blob = vm2.create_blob(p, None);
            vm2.assign(p, blob, UpdateKind::Append, 100, manifest(1, 1, 100), 0)
                .unwrap();
            p.sleep(2_000_000_000);
            server.kill();
            assert!(vm2.reap_expired(p, blob).is_err());
            assert_eq!(vm2.pending_count(blob), 1, "failed reap keeps the write");
            server.revive();
            vm2.reap_expired(p, blob).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 1);
            assert_eq!(vm2.pending_count(blob), 0);
        });
        fx.run();
        h.take().unwrap();
    }
}
