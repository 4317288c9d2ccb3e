//! Data providers: the nodes that physically store pages (paper §3.1.1:
//! "the providers store the pages, as assigned by the provider manager").
//!
//! A provider is a passive service object; clients invoke it with their
//! [`Proc`] context, which charges the network transfer (client→provider for
//! stores, provider→client for fetches) and, when persistence is enabled,
//! the provider-side disk I/O. Pages live either in memory (the
//! configuration the paper benchmarks — BlobSeer persisted to BerkeleyDB
//! asynchronously) or in a [`pstore::Store`].
//!
//! The wire protocol is *batched*, mirroring the metadata plane's
//! [`crate::dht::MetaDht::put_batch`]/`get_batch`: [`Provider::put_pages`]
//! and [`Provider::get_pages`] move N pages in one costed exchange per
//! provider, with per-page error granularity so replica failover still works
//! page by page. [`Provider::op_counts`] counts pages served,
//! [`Provider::rpc_counts`] counts wire round-trips — the gap between the
//! two is the batching win, and the data-plane regression tests pin it.
//!
//! The page store is *lock-striped*: the in-memory backend is a fixed array
//! of `RwLock<HashMap>` stripes keyed by page id, so concurrent `get_pages`
//! / `put_pages` from distinct clients touch distinct stripes (or share a
//! read lock) instead of funneling through one provider-wide mutex — in
//! live mode N clients hitting one node genuinely proceed in parallel. The
//! persistent backend ([`pstore::Store`]) is internally synchronized and
//! needs no outer lock at all. All counters (`stored_*`, `op_counts`,
//! `rpc_counts`, reservations) are atomics, so nothing about the accounting
//! relies on a global lock either.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fabric::{NodeId, Payload, Proc};
use parking_lot::RwLock;

use crate::error::{BlobError, BlobResult, PersistenceKind};
use crate::types::PageId;

/// Stripe count of the in-memory page map. Page ids are random 128-bit
/// values, so a cheap xor spreads them uniformly; 16 stripes is plenty to
/// decorrelate the handful of OS threads live mode runs per node.
const MEM_STRIPES: usize = 16;

fn stripe_of(id: PageId) -> usize {
    ((id.0 ^ id.1.rotate_left(32)) % MEM_STRIPES as u64) as usize
}

enum Backend {
    /// Lock-striped in-memory page map (the configuration the paper
    /// benchmarks).
    Mem(Vec<RwLock<HashMap<PageId, Payload>>>),
    /// BerkeleyDB-substitute store; internally synchronized (`put`/`get`
    /// take `&self`), so data-path calls share a read guard. The outer
    /// `RwLock<Option<..>>` exists only for the crash-restart lifecycle:
    /// `crash_wipe` takes the write guard (serializing against in-flight
    /// batches) and drops the store; `recover` reopens it from `dir`.
    /// Boxed to keep the common `Mem` variant lean.
    Persistent(Box<PersistentBackend>),
}

struct PersistentBackend {
    /// `None` while crash-wiped (between `crash_wipe` and `recover`).
    store: RwLock<Option<pstore::Store>>,
    dir: PathBuf,
    opts: pstore::StoreOptions,
}

/// Key namespace for pages inside a provider's store (recovery rebuilds the
/// page counters from exactly this prefix).
const PAGE_PREFIX: &[u8] = b"p/";

/// One page-storage service instance.
pub struct Provider {
    node: NodeId,
    alive: AtomicBool,
    backend: Backend,
    stored_bytes: AtomicU64,
    stored_pages: AtomicU64,
    /// Bytes promised to in-flight writes by the provider manager; lets the
    /// least-loaded policy spread concurrent writers before their data lands.
    reserved_bytes: AtomicU64,
    put_ops: AtomicU64,
    get_ops: AtomicU64,
    put_rpcs: AtomicU64,
    get_rpcs: AtomicU64,
    /// Completed crash-restart recoveries (diagnostics).
    recoveries: AtomicU64,
}

/// Modeled per-page framing overhead riding a batched page transfer.
const PAGE_HDR_BYTES: u64 = 32;
/// Modeled wire size of one page id in a batched fetch request.
const PAGE_REQ_BYTES: u64 = 16;

fn page_key(id: PageId) -> [u8; 18] {
    let mut k = [0u8; 18];
    k[..2].copy_from_slice(PAGE_PREFIX);
    k[2..10].copy_from_slice(&id.0.to_be_bytes());
    k[10..].copy_from_slice(&id.1.to_be_bytes());
    k
}

impl Provider {
    fn with_backend(node: NodeId, backend: Backend) -> Self {
        Provider {
            node,
            alive: AtomicBool::new(true),
            backend,
            stored_bytes: AtomicU64::new(0),
            stored_pages: AtomicU64::new(0),
            reserved_bytes: AtomicU64::new(0),
            put_ops: AtomicU64::new(0),
            get_ops: AtomicU64::new(0),
            put_rpcs: AtomicU64::new(0),
            get_rpcs: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// In-memory provider on `node`.
    pub fn new_mem(node: NodeId) -> Self {
        let stripes =
            (0..MEM_STRIPES).map(|_| RwLock::with_rank(HashMap::new(), crate::lock_ranks::STRIPES));
        Self::with_backend(node, Backend::Mem(stripes.collect()))
    }

    /// Provider backed by the BerkeleyDB-substitute [`pstore::Store`] with
    /// default store options (real payload bytes only).
    pub fn new_persistent(node: NodeId, dir: &Path) -> BlobResult<Self> {
        Self::new_persistent_with(node, dir, pstore::StoreOptions::default())
    }

    /// Provider backed by [`pstore::Store`] with explicit store options
    /// (segment size, fsync policy, checkpoint cadence). Opening a
    /// non-empty directory *recovers* it: the page index replays from the
    /// newest checkpoint and `stored_bytes`/`stored_pages` are reconstructed
    /// from the index — never trusted from the dead process.
    pub fn new_persistent_with(
        node: NodeId,
        dir: &Path,
        opts: pstore::StoreOptions,
    ) -> BlobResult<Self> {
        let store = pstore::Store::open_with(dir, opts.clone())
            .map_err(|e| BlobError::persistence(dir, &e))?;
        let prov = Self::with_backend(
            node,
            Backend::Persistent(Box::new(PersistentBackend {
                store: RwLock::new(Some(store)),
                dir: dir.to_path_buf(),
                opts,
            })),
        );
        prov.rebuild_counters();
        Ok(prov)
    }

    /// Reconstruct `stored_pages`/`stored_bytes` from the store's page index
    /// (metadata only — no value reads) and zero the reservation book: a
    /// freshly (re)opened provider has no in-flight writers yet; the
    /// provider manager re-reserves for leases that straddled the restart
    /// (`ProviderManager::reinstate`).
    fn rebuild_counters(&self) {
        let Backend::Persistent(pb) = &self.backend else {
            return;
        };
        let g = pb.store.read();
        if let Some(s) = g.as_ref() {
            let meta = s.prefix_meta(PAGE_PREFIX);
            self.stored_pages
                .store(meta.len() as u64, Ordering::Relaxed);
            self.stored_bytes
                .store(meta.iter().map(|(_, n)| *n).sum(), Ordering::Relaxed);
        }
        self.reserved_bytes.store(0, Ordering::Relaxed);
    }

    /// Process-crash injection for persistent providers: stop serving, drop
    /// ALL in-memory state (index, counters, buffered unacknowledged
    /// records) and keep only the on-disk store directory — the state a real
    /// restart would find. Memory-backed providers cannot model this
    /// (nothing would survive) and answer `UnsupportedFault`.
    pub fn crash_wipe(&self) -> BlobResult<()> {
        let Backend::Persistent(pb) = &self.backend else {
            return Err(BlobError::UnsupportedFault(format!(
                "provider on {} holds pages in memory only; \
                 CrashRestart requires a persist_dir deployment",
                self.node
            )));
        };
        self.kill();
        // The write guard serializes against in-flight batches: a batch
        // that acknowledged before the wipe has already flushed to the OS
        // and survives; one that lost the race observes `None` and fails
        // with `ProviderDown`, exactly like a mid-stream crash.
        if let Some(s) = pb.store.write().take() {
            s.abandon();
        }
        for c in [
            &self.stored_bytes,
            &self.stored_pages,
            &self.reserved_bytes,
            &self.put_ops,
            &self.get_ops,
            &self.put_rpcs,
            &self.get_rpcs,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Restart a crash-wiped provider from its store directory: replay from
    /// the newest checkpoint, rebuild counters from the recovered index, and
    /// resume serving. Returns the bytes replayed past the checkpoint (the
    /// recovery cost the checkpoint cadence bounds). Idempotent: recovering
    /// a provider that was never wiped just revives it.
    pub fn recover(&self) -> BlobResult<u64> {
        let Backend::Persistent(pb) = &self.backend else {
            return Err(BlobError::UnsupportedFault(format!(
                "provider on {} holds pages in memory only; nothing to recover",
                self.node
            )));
        };
        let mut g = pb.store.write();
        let replayed = if g.is_none() {
            let store = pstore::Store::open_with(&pb.dir, pb.opts.clone())
                .map_err(|e| BlobError::persistence(&pb.dir, &e))?;
            let replayed = store.replayed_bytes();
            *g = Some(store);
            drop(g);
            self.rebuild_counters();
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            replayed
        } else {
            0
        };
        self.revive();
        Ok(replayed)
    }

    /// True between [`Self::crash_wipe`] and [`Self::recover`].
    pub fn is_wiped(&self) -> bool {
        matches!(&self.backend, Backend::Persistent(pb) if pb.store.read().is_none())
    }

    /// Completed crash-restart recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// The node hosting this provider.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Is the provider accepting requests?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Failure injection: stop serving (simulates a crashed provider).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Bring a killed provider back (its pages survived — crash, not wipe).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes.load(Ordering::Relaxed)
    }

    /// Pages currently stored.
    pub fn stored_pages(&self) -> u64 {
        self.stored_pages.load(Ordering::Relaxed)
    }

    /// Load metric used by the least-loaded allocation policy.
    pub fn load_estimate(&self) -> u64 {
        self.stored_bytes() + self.reserved_bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn reserve(&self, bytes: u64) {
        self.reserved_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn unreserve(&self, bytes: u64) {
        let mut cur = self.reserved_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.reserved_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// (put, get) operations served, counted per *page* however the pages
    /// were shipped (a batch of k pages counts k).
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.put_ops.load(Ordering::Relaxed),
            self.get_ops.load(Ordering::Relaxed),
        )
    }

    /// (put, get) wire round-trips served — a batch counts once. The gap
    /// between [`Self::op_counts`] and this is the batching win.
    pub fn rpc_counts(&self) -> (u64, u64) {
        (
            self.put_rpcs.load(Ordering::Relaxed),
            self.get_rpcs.load(Ordering::Relaxed),
        )
    }

    /// Store a page. Charges the client→provider transfer and (if
    /// persistent) provider disk I/O. Fails when the provider is down.
    pub fn put_page(&self, p: &Proc, id: PageId, data: Payload) -> BlobResult<()> {
        self.put_pages(p, vec![(id, data)])
            .pop()
            .unwrap_or_else(|| {
                Err(BlobError::Internal {
                    detail: "put_pages answered zero results for one page".into(),
                })
            })
    }

    /// Store a batch of pages in ONE costed wire exchange: a single bulk
    /// client→provider stream carries every page (plus per-page framing),
    /// instead of one round-trip per page. Results answer `pages[i]` at
    /// `out[i]` — per-page granularity, so a caller can fail over only the
    /// pages that did not land. Successful pages release their capacity
    /// reservation here; the caller releases reservations of failed ones.
    pub fn put_pages(&self, p: &Proc, pages: Vec<(PageId, Payload)>) -> Vec<BlobResult<()>> {
        let n = pages.len();
        if n == 0 {
            return Vec::new();
        }
        let all_down = || -> Vec<BlobResult<()>> {
            (0..n)
                .map(|_| Err(BlobError::ProviderDown { node: self.node.0 }))
                .collect()
        };
        if !self.is_alive() {
            return all_down();
        }
        self.put_rpcs.fetch_add(1, Ordering::Relaxed);
        self.put_ops.fetch_add(n as u64, Ordering::Relaxed);
        let total: u64 = pages.iter().map(|(_, d)| d.len()).sum();
        p.transfer(p.node(), self.node, total + PAGE_HDR_BYTES * n as u64);
        // The transfer took (virtual) time; the provider may have died
        // mid-stream — then nothing of the batch is acknowledged.
        if !self.is_alive() {
            return all_down();
        }
        let mut out = Vec::with_capacity(n);
        match &self.backend {
            Backend::Mem(stripes) => {
                for (id, data) in pages {
                    let len = data.len();
                    // Only this page's stripe is write-locked; concurrent
                    // batches for other stripes proceed in parallel.
                    #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
                    let mut m = stripes[stripe_of(id)].write();
                    if m.insert(id, data).is_none() {
                        self.stored_pages.fetch_add(1, Ordering::Relaxed);
                        self.stored_bytes.fetch_add(len, Ordering::Relaxed);
                    }
                    drop(m);
                    // A page that landed consumes its capacity reservation
                    // here — failed pages keep theirs for the caller to
                    // release.
                    self.unreserve(len);
                    out.push(Ok(()));
                }
            }
            Backend::Persistent(pb) => {
                // The read guard is held across the whole batch INCLUDING
                // the flush: a concurrent crash_wipe serializes before the
                // batch (every page answers ProviderDown) or after it
                // (every acknowledged page is already on the OS side of a
                // process crash). No page is ever acked and then lost.
                let g = pb.store.read();
                let Some(s) = g.as_ref() else {
                    return all_down();
                };
                // Stage every page into the store first...
                let mut staged: Vec<(u64, BlobResult<bool>)> = Vec::with_capacity(n);
                for (id, data) in pages {
                    let len = data.len();
                    let res = match &data {
                        Payload::Bytes(b) => s
                            .put(&page_key(id), b.as_ref())
                            .map(|replaced| !replaced)
                            .map_err(|e| BlobError::persistence(&pb.dir, &e)),
                        Payload::Ghost(_) => Err(BlobError::Persistence {
                            kind: PersistenceKind::Unsupported,
                            path: pb.dir.display().to_string(),
                            detail: "persistent providers require real payload bytes".into(),
                        }),
                    };
                    staged.push((len, res));
                }
                // ...then make them process-crash durable before a single
                // acknowledgement leaves this provider. A failed flush
                // fails the batch: nothing unflushed is ever acked.
                let flush_err = s
                    .flush_buffered()
                    .err()
                    .map(|e| BlobError::persistence(&pb.dir, &e));
                drop(g);
                let mut landed_bytes = 0u64;
                for (len, res) in staged {
                    let res = match (&flush_err, res) {
                        (Some(fe), Ok(_)) => Err(fe.clone()),
                        (_, r) => r,
                    };
                    match res {
                        Ok(newly_stored) => {
                            if newly_stored {
                                self.stored_pages.fetch_add(1, Ordering::Relaxed);
                                self.stored_bytes.fetch_add(len, Ordering::Relaxed);
                            }
                            landed_bytes += len;
                            self.unreserve(len);
                            out.push(Ok(()));
                        }
                        Err(e) => out.push(Err(e)),
                    }
                }
                p.disk_write(self.node, landed_bytes);
            }
        }
        out
    }

    /// Fetch a page. Charges the provider→client transfer (and provider disk
    /// read when persistent).
    pub fn get_page(&self, p: &Proc, id: PageId) -> BlobResult<Payload> {
        self.get_pages(p, std::slice::from_ref(&id))
            .pop()
            .unwrap_or_else(|| {
                Err(BlobError::Internal {
                    detail: "get_pages answered zero results for one page".into(),
                })
            })
    }

    /// Fetch a batch of pages in ONE costed wire exchange: the id list rides
    /// a single request, and every page found comes back in a single bulk
    /// provider→client stream. `out[i]` answers `ids[i]`; pages the provider
    /// does not hold answer `PageUnavailable` individually, so replica
    /// failover stays page-by-page.
    pub fn get_pages(&self, p: &Proc, ids: &[PageId]) -> Vec<BlobResult<Payload>> {
        let n = ids.len();
        if n == 0 {
            return Vec::new();
        }
        if !self.is_alive() {
            return (0..n)
                .map(|_| Err(BlobError::ProviderDown { node: self.node.0 }))
                .collect();
        }
        self.get_rpcs.fetch_add(1, Ordering::Relaxed);
        self.get_ops.fetch_add(n as u64, Ordering::Relaxed);
        p.transfer(p.node(), self.node, PAGE_REQ_BYTES * n as u64);
        let mut out = Vec::with_capacity(n);
        let mut found_bytes = 0u64;
        match &self.backend {
            Backend::Mem(stripes) => {
                for id in ids {
                    // Read lock on one stripe: concurrent readers of the
                    // same stripe share it, writers to other stripes never
                    // touch it.
                    #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
                    let data = stripes[stripe_of(*id)].read().get(id).cloned();
                    out.push(match data {
                        Some(d) => {
                            found_bytes += d.len();
                            Ok(d)
                        }
                        None => Err(BlobError::PageUnavailable {
                            detail: format!("page {id:?} not on provider {}", self.node),
                        }),
                    });
                }
            }
            Backend::Persistent(pb) => {
                let g = pb.store.read();
                let Some(s) = g.as_ref() else {
                    // Crash-wiped mid-exchange: the whole batch is lost.
                    return (0..n)
                        .map(|_| Err(BlobError::ProviderDown { node: self.node.0 }))
                        .collect();
                };
                for id in ids {
                    let data = s
                        .get(&page_key(*id))
                        .map_err(|e| BlobError::persistence(&pb.dir, &e))
                        .map(|b| b.map(Payload::from_vec));
                    out.push(match data {
                        Ok(Some(d)) => {
                            found_bytes += d.len();
                            Ok(d)
                        }
                        Ok(None) => Err(BlobError::PageUnavailable {
                            detail: format!("page {id:?} not on provider {}", self.node),
                        }),
                        Err(e) => Err(e),
                    });
                }
                drop(g);
                p.disk_read(self.node, found_bytes);
            }
        }
        p.transfer(self.node, p.node(), found_bytes + PAGE_HDR_BYTES * n as u64);
        out
    }

    /// Does the provider hold this page? (control query, uncosted — also
    /// answers while the provider is down: the lease reaper uses it to tell
    /// consumed reservations from stranded ones)
    pub fn has_page(&self, id: PageId) -> bool {
        match &self.backend {
            #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
            Backend::Mem(stripes) => stripes[stripe_of(id)].read().contains_key(&id),
            // A crash-wiped store holds nothing in memory; any reaper
            // misaccounting in the wipe window is erased when `recover`
            // rebuilds the counters from disk.
            Backend::Persistent(pb) => pb
                .store
                .read()
                .as_ref()
                .is_some_and(|s| s.contains(&page_key(id))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{ClusterSpec, Fabric};

    fn with_proc<T: Send + 'static>(f: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let h = fx.spawn(NodeId(0), "t", f);
        fx.run();
        h.take().unwrap()
    }

    #[test]
    fn mem_put_get_roundtrip() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            let id = PageId(1, 2);
            prov.put_page(p, id, Payload::from_vec(vec![9u8; 64 * 1024]))
                .unwrap();
            assert_eq!(prov.stored_pages(), 1);
            assert_eq!(prov.stored_bytes(), 64 * 1024);
            let got = prov.get_page(p, id).unwrap();
            assert_eq!(got.bytes().as_ref(), &[9u8; 64 * 1024][..]);
            assert!(prov.has_page(id));
            assert!(!prov.has_page(PageId(9, 9)));
        });
    }

    #[test]
    fn ghost_pages_are_stored_by_size() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            prov.put_page(p, PageId(1, 1), Payload::ghost(1 << 20))
                .unwrap();
            assert_eq!(prov.stored_bytes(), 1 << 20);
            assert_eq!(prov.get_page(p, PageId(1, 1)).unwrap().len(), 1 << 20);
        });
    }

    #[test]
    fn dead_provider_rejects() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            prov.put_page(p, PageId(1, 1), Payload::ghost(10)).unwrap();
            prov.kill();
            assert!(matches!(
                prov.put_page(p, PageId(1, 2), Payload::ghost(10)),
                Err(BlobError::ProviderDown { .. })
            ));
            assert!(matches!(
                prov.get_page(p, PageId(1, 1)),
                Err(BlobError::ProviderDown { .. })
            ));
            prov.revive();
            assert_eq!(prov.get_page(p, PageId(1, 1)).unwrap().len(), 10);
        });
    }

    #[test]
    fn missing_page_reports_unavailable() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            assert!(matches!(
                prov.get_page(p, PageId(5, 5)),
                Err(BlobError::PageUnavailable { .. })
            ));
        });
    }

    #[test]
    fn reservation_tracks_inflight_writes() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            prov.reserve(1000);
            assert_eq!(prov.load_estimate(), 1000);
            prov.put_page(p, PageId(1, 1), Payload::ghost(1000))
                .unwrap();
            assert_eq!(prov.load_estimate(), 1000); // reserved released, stored added
            prov.unreserve(5000); // over-release saturates at zero
            assert_eq!(prov.load_estimate(), 1000);
        });
    }

    #[test]
    fn batched_puts_and_gets_cost_one_rpc() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            let pages: Vec<(PageId, Payload)> = (0..16)
                .map(|i| (PageId(1, i), Payload::ghost(100)))
                .collect();
            let ids: Vec<PageId> = pages.iter().map(|(id, _)| *id).collect();
            let res = prov.put_pages(p, pages);
            assert!(res.iter().all(Result::is_ok));
            assert_eq!(prov.stored_pages(), 16);
            assert_eq!(prov.op_counts(), (16, 0));
            assert_eq!(prov.rpc_counts(), (1, 0), "16 puts ride one RPC");
            let got = prov.get_pages(p, &ids);
            assert_eq!(got.len(), 16);
            for g in &got {
                assert_eq!(g.as_ref().unwrap().len(), 100);
            }
            assert_eq!(prov.op_counts(), (16, 16));
            assert_eq!(prov.rpc_counts(), (1, 1), "16 gets ride one RPC");
        });
    }

    #[test]
    fn batched_get_reports_missing_pages_individually() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            prov.put_page(p, PageId(1, 1), Payload::ghost(10)).unwrap();
            prov.put_page(p, PageId(1, 3), Payload::ghost(20)).unwrap();
            let got = prov.get_pages(p, &[PageId(1, 1), PageId(1, 2), PageId(1, 3)]);
            assert_eq!(got[0].as_ref().unwrap().len(), 10);
            assert!(matches!(got[1], Err(BlobError::PageUnavailable { .. })));
            assert_eq!(got[2].as_ref().unwrap().len(), 20);
        });
    }

    #[test]
    fn batched_put_to_dead_provider_fails_every_page() {
        with_proc(|p| {
            let prov = Provider::new_mem(NodeId(1));
            prov.kill();
            let res = prov.put_pages(
                p,
                vec![
                    (PageId(1, 1), Payload::ghost(10)),
                    (PageId(1, 2), Payload::ghost(10)),
                ],
            );
            assert_eq!(res.len(), 2);
            assert!(res
                .iter()
                .all(|r| matches!(r, Err(BlobError::ProviderDown { .. }))));
            // A rejected batch never counts as a served round-trip.
            assert_eq!(prov.rpc_counts(), (0, 0));
        });
    }

    #[test]
    fn partial_batch_failure_keeps_per_page_books_exact() {
        // A batch that partially fails under the striped backend must keep
        // the PR 2/3 contract bit-for-bit: failed pages answer their own
        // error, landed pages consume exactly their reservation, and the
        // failed pages' reservations stay for the caller to release. The
        // persistent backend rejects ghosts per page, which makes a genuine
        // intra-batch partial failure.
        let dir = std::env::temp_dir().join(format!("prov-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d2).unwrap();
            prov.reserve(30); // 3 pages x 10 B, as the provider manager would
            let res = prov.put_pages(
                p,
                vec![
                    (PageId(1, 1), Payload::from_vec(vec![7u8; 10])),
                    (PageId(1, 2), Payload::ghost(10)), // cannot persist
                    (PageId(1, 3), Payload::from_vec(vec![9u8; 10])),
                ],
            );
            assert!(res[0].is_ok());
            assert!(matches!(
                res[1],
                Err(BlobError::Persistence {
                    kind: PersistenceKind::Unsupported,
                    ..
                })
            ));
            assert!(res[2].is_ok());
            assert_eq!(prov.stored_pages(), 2, "only the landed pages count");
            assert_eq!(prov.stored_bytes(), 20);
            // Landed pages consumed 20 B of the reservation; the failed
            // page's 10 B remain until the caller hands them back.
            assert_eq!(prov.load_estimate(), 30);
            prov.unreserve(10);
            assert_eq!(prov.load_estimate(), prov.stored_bytes());
            // Error granularity stayed per page: the batch still counted as
            // one served round-trip.
            assert_eq!(prov.rpc_counts(), (1, 0));
            assert_eq!(prov.op_counts(), (3, 0));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_provider_roundtrip_and_recovery() {
        let dir = std::env::temp_dir().join(format!("prov-pstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d2).unwrap();
            prov.put_page(p, PageId(3, 4), Payload::from_vec(b"durable".to_vec()))
                .unwrap();
            assert_eq!(
                prov.get_page(p, PageId(3, 4)).unwrap().bytes().as_ref(),
                b"durable"
            );
            // Ghosts cannot be persisted.
            assert!(matches!(
                prov.put_page(p, PageId(3, 5), Payload::ghost(10)),
                Err(BlobError::Persistence { .. })
            ));
        });
        // Reopen: pages survive "process restart".
        let d3 = dir.clone();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d3).unwrap();
            assert_eq!(
                prov.get_page(p, PageId(3, 4)).unwrap().bytes().as_ref(),
                b"durable"
            );
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_persistent_provider_reconstructs_counters() {
        // Satellite: the books must balance after open → put → reopen — a
        // fresh process on a non-empty directory reconstructs
        // stored_bytes/stored_pages from the index instead of starting at
        // zero, and load_estimate equals stored_bytes (no phantom
        // reservations).
        let dir = std::env::temp_dir().join(format!("prov-books-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d2).unwrap();
            assert_eq!(prov.stored_bytes(), 0);
            for i in 0..5u64 {
                prov.put_page(p, PageId(7, i), Payload::from_vec(vec![i as u8; 100]))
                    .unwrap();
            }
            assert_eq!(prov.stored_pages(), 5);
            assert_eq!(prov.stored_bytes(), 500);
        });
        let d3 = dir.clone();
        with_proc(move |_p| {
            let prov = Provider::new_persistent(NodeId(1), &d3).unwrap();
            assert_eq!(prov.stored_pages(), 5, "page count rebuilt from index");
            assert_eq!(prov.stored_bytes(), 500, "byte count rebuilt from index");
            assert_eq!(
                prov.load_estimate(),
                prov.stored_bytes(),
                "no reservations cross a restart"
            );
            assert_eq!(prov.op_counts(), (0, 0), "op counters are per-process");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_wipe_then_recover_roundtrip() {
        let dir = std::env::temp_dir().join(format!("prov-wipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d2).unwrap();
            prov.reserve(64);
            prov.put_page(p, PageId(1, 1), Payload::from_vec(vec![1u8; 64]))
                .unwrap();
            prov.put_page(p, PageId(1, 2), Payload::from_vec(vec![2u8; 32]))
                .unwrap();
            prov.reserve(1000); // in-flight writer that will die with the crash

            prov.crash_wipe().unwrap();
            assert!(prov.is_wiped());
            assert!(!prov.is_alive());
            assert_eq!(prov.stored_bytes(), 0, "wipe drops all in-memory state");
            assert!(!prov.has_page(PageId(1, 1)), "wiped store answers nothing");
            assert!(matches!(
                prov.get_page(p, PageId(1, 1)),
                Err(BlobError::ProviderDown { .. })
            ));

            let replayed = prov.recover().unwrap();
            assert!(replayed > 0, "no checkpoint was taken: all bytes replay");
            assert!(!prov.is_wiped());
            assert!(prov.is_alive());
            assert_eq!(prov.recoveries(), 1);
            assert_eq!(prov.stored_pages(), 2);
            assert_eq!(prov.stored_bytes(), 96);
            assert_eq!(
                prov.load_estimate(),
                prov.stored_bytes(),
                "crash erased the stale reservation"
            );
            assert_eq!(
                prov.get_page(p, PageId(1, 2)).unwrap().bytes().as_ref(),
                &[2u8; 32][..]
            );
            // Idempotent: recovering a live provider is a no-op revive.
            assert_eq!(prov.recover().unwrap(), 0);
            assert_eq!(prov.recoveries(), 1);

            // Memory-backed providers cannot model a restart.
            let mem = Provider::new_mem(NodeId(2));
            assert!(matches!(
                mem.crash_wipe(),
                Err(BlobError::UnsupportedFault(_))
            ));
            assert!(matches!(mem.recover(), Err(BlobError::UnsupportedFault(_))));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
