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
//! page by page. `Service::op_counts` counts pages served,
//! `Service::rpc_counts` counts wire round-trips — the gap between the
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
//!
//! How a provider counts what it served, dies and comes back is not written
//! here: that lifecycle is `crate::service`'s, shared with the metadata
//! servers, and a `Provider` derefs to it. This file says only what a crash
//! empties and a restart reconstructs (`Books`), and the hot paths.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{NodeId, Payload, Proc};
use parking_lot::RwLock;

use crate::error::{BlobError, BlobResult, PersistenceKind};
use crate::service::{Durable, Service, State};
use crate::types::PageId;

/// Stripe count of the in-memory page map. Page ids are random 128-bit
/// values, so a cheap xor spreads them uniformly; 16 stripes is plenty to
/// decorrelate the handful of OS threads live mode runs per node.
const MEM_STRIPES: usize = 16;

fn stripe_of(id: PageId) -> usize {
    ((id.0 ^ id.1.rotate_left(32)) % MEM_STRIPES as u64) as usize
}

/// Key namespace for pages inside a provider's store (recovery rebuilds the
/// page counters from exactly this prefix).
const PAGE_PREFIX: &[u8] = b"p/";

/// One page-storage service instance: a `Service` (node, liveness, served
/// counters, crash-restart — all reached by deref) that stores pages.
pub struct Provider {
    svc: Service,
    /// Lock-striped in-memory page map (the configuration the paper
    /// benchmarks). A durable provider keeps its pages in the
    /// BerkeleyDB-substitute store instead and leaves the stripes empty.
    stripes: Vec<RwLock<HashMap<PageId, Payload>>>,
    books: Arc<Books>,
}

impl std::ops::Deref for Provider {
    type Target = Service;

    fn deref(&self) -> &Service {
        &self.svc
    }
}

/// What a provider holds and what it has promised.
#[derive(Default)]
struct Books {
    stored_bytes: AtomicU64,
    stored_pages: AtomicU64,
    /// Bytes promised to in-flight writes by the provider manager; lets the
    /// least-loaded policy spread concurrent writers before their data lands.
    reserved_bytes: AtomicU64,
}

impl State for Books {
    fn clear(&self) {
        for c in [&self.stored_bytes, &self.stored_pages, &self.reserved_bytes] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Reconstruct `stored_pages`/`stored_bytes` from the store's page index
    /// (metadata only — no value reads) and zero the reservation book: a
    /// freshly (re)opened provider has no in-flight writers yet; the
    /// provider manager re-reserves for leases that straddled the restart
    /// (`ProviderManager::reinstate`).
    fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()> {
        let meta = store.prefix_meta(PAGE_PREFIX);
        self.stored_pages
            .store(meta.len() as u64, Ordering::Relaxed);
        self.stored_bytes
            .store(meta.iter().map(|(_, n)| *n).sum(), Ordering::Relaxed);
        self.reserved_bytes.store(0, Ordering::Relaxed);
        Ok(())
    }
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
    fn with(node: NodeId, books: Arc<Books>, durable: Option<Durable>) -> Self {
        Provider {
            svc: Service::new("provider", node, durable),
            stripes: (0..MEM_STRIPES)
                .map(|_| RwLock::with_rank(HashMap::new(), crate::lock_ranks::STRIPES))
                .collect(),
            books,
        }
    }

    /// In-memory provider on `node`.
    pub fn new_mem(node: NodeId) -> Self {
        Self::with(node, Arc::default(), None)
    }

    /// Provider backed by the BerkeleyDB-substitute [`pstore::Store`] with
    /// default store options (real payload bytes only).
    pub fn new_persistent(node: NodeId, dir: &Path) -> BlobResult<Self> {
        Self::new_persistent_with(node, dir, pstore::StoreOptions::default())
    }

    /// Provider backed by [`pstore::Store`] with explicit store options
    /// (segment size, checkpoint cadence). Opening a
    /// non-empty directory *recovers* it: the page index replays from the
    /// newest checkpoint and `stored_bytes`/`stored_pages` are reconstructed
    /// from the index — never trusted from the dead process.
    pub(crate) fn new_persistent_with(
        node: NodeId,
        dir: &Path,
        opts: pstore::StoreOptions,
    ) -> BlobResult<Self> {
        let books = Arc::new(Books::default());
        let durable = Durable::open(dir, opts, books.clone())?;
        Ok(Self::with(node, books, Some(durable)))
    }

    /// Bytes currently stored.
    pub fn stored_bytes(&self) -> u64 {
        self.books.stored_bytes.load(Ordering::Relaxed)
    }

    /// Pages currently stored.
    pub fn stored_pages(&self) -> u64 {
        self.books.stored_pages.load(Ordering::Relaxed)
    }

    /// Load metric used by the least-loaded allocation policy.
    pub fn load_estimate(&self) -> u64 {
        self.stored_bytes() + self.books.reserved_bytes.load(Ordering::Relaxed)
    }

    pub(crate) fn reserve(&self, bytes: u64) {
        self.books
            .reserved_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn unreserve(&self, bytes: u64) {
        let mut cur = self.books.reserved_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.books.reserved_bytes.compare_exchange_weak(
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
        let all_down = || -> Vec<BlobResult<()>> { (0..n).map(|_| Err(self.down())).collect() };
        if !self.is_alive() {
            return all_down();
        }
        self.served_put(n as u64);
        let total: u64 = pages.iter().map(|(_, d)| d.len()).sum();
        p.transfer(p.node(), self.node(), total + PAGE_HDR_BYTES * n as u64);
        // The transfer took (virtual) time; the provider may have died
        // mid-stream — then nothing of the batch is acknowledged.
        if !self.is_alive() {
            return all_down();
        }
        let mut out = Vec::with_capacity(n);
        match self.store() {
            None => {
                for (id, data) in pages {
                    let len = data.len();
                    // Only this page's stripe is write-locked; concurrent
                    // batches for other stripes proceed in parallel.
                    #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
                    let mut m = self.stripes[stripe_of(id)].write();
                    if m.insert(id, data).is_none() {
                        self.books.stored_pages.fetch_add(1, Ordering::Relaxed);
                        self.books.stored_bytes.fetch_add(len, Ordering::Relaxed);
                    }
                    drop(m);
                    // A page that landed consumes its capacity reservation
                    // here — failed pages keep theirs for the caller to
                    // release.
                    self.unreserve(len);
                    out.push(Ok(()));
                }
            }
            Some(d) => {
                // Held across the whole batch INCLUDING the flush — see
                // `crate::service`: no page is ever acked and then lost —
                // and the books: a crash-and-restart cycle landing between
                // "the index holds the batch" and "the books count it"
                // would rebuild the books from that index and the late bump
                // would count the batch twice.
                let g = d.read();
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
                            .map_err(|e| d.err(&e)),
                        Payload::Ghost(_) => Err(BlobError::Persistence {
                            kind: PersistenceKind::Unsupported,
                            path: d.dir.display().to_string(),
                            detail: "persistent providers require real payload bytes".into(),
                        }),
                    };
                    staged.push((len, res));
                }
                // ...then make them process-crash durable before a single
                // acknowledgement leaves this provider. A failed flush
                // fails the batch: nothing unflushed is ever acked.
                let flush_err = s.flush_buffered().err().map(|e| d.err(&e));
                let mut landed_bytes = 0u64;
                for (len, res) in staged {
                    let res = match (&flush_err, res) {
                        (Some(fe), Ok(_)) => Err(fe.clone()),
                        (_, r) => r,
                    };
                    match res {
                        Ok(newly_stored) => {
                            if newly_stored {
                                self.books.stored_pages.fetch_add(1, Ordering::Relaxed);
                                self.books.stored_bytes.fetch_add(len, Ordering::Relaxed);
                            }
                            landed_bytes += len;
                            self.unreserve(len);
                            out.push(Ok(()));
                        }
                        Err(e) => out.push(Err(e)),
                    }
                }
                drop(g);
                p.disk_write(self.node(), landed_bytes);
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
            return (0..n).map(|_| Err(self.down())).collect();
        }
        self.served_get(n as u64);
        p.transfer(p.node(), self.node(), PAGE_REQ_BYTES * n as u64);
        let mut out = Vec::with_capacity(n);
        let mut found_bytes = 0u64;
        match self.store() {
            None => {
                for id in ids {
                    // Read lock on one stripe: concurrent readers of the
                    // same stripe share it, writers to other stripes never
                    // touch it.
                    #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
                    let data = self.stripes[stripe_of(*id)].read().get(id).cloned();
                    out.push(match data {
                        Some(d) => {
                            found_bytes += d.len();
                            Ok(d)
                        }
                        None => Err(BlobError::PageUnavailable {
                            detail: format!("page {id:?} not on provider {}", self.node()),
                        }),
                    });
                }
            }
            Some(d) => {
                let g = d.read();
                let Some(s) = g.as_ref() else {
                    // Crash-wiped mid-exchange: the whole batch is lost.
                    return (0..n).map(|_| Err(self.down())).collect();
                };
                for id in ids {
                    let data = s
                        .get(&page_key(*id))
                        .map_err(|e| d.err(&e))
                        .map(|b| b.map(Payload::from_vec));
                    out.push(match data {
                        Ok(Some(d)) => {
                            found_bytes += d.len();
                            Ok(d)
                        }
                        Ok(None) => Err(BlobError::PageUnavailable {
                            detail: format!("page {id:?} not on provider {}", self.node()),
                        }),
                        Err(e) => Err(e),
                    });
                }
                drop(g);
                p.disk_read(self.node(), found_bytes);
            }
        }
        p.transfer(
            self.node(),
            p.node(),
            found_bytes + PAGE_HDR_BYTES * n as u64,
        );
        out
    }

    /// Does the provider hold this page? (control query, uncosted — also
    /// answers while the provider is down: the lease reaper uses it to tell
    /// consumed reservations from stranded ones)
    pub(crate) fn has_page(&self, id: PageId) -> bool {
        match self.store() {
            #[expect(clippy::indexing_slicing, reason = "stripe_of is `% MEM_STRIPES`")]
            None => self.stripes[stripe_of(id)].read().contains_key(&id),
            // A crash-wiped store holds nothing in memory; any reaper
            // misaccounting in the wipe window is erased when `recover`
            // rebuilds the counters from disk.
            Some(d) => d.read().as_ref().is_some_and(|s| s.contains(&page_key(id))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{with_proc, ScratchDir};

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
        let dir = ScratchDir::new("prov-partial");
        let d2 = dir.to_path_buf();
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
    }

    #[test]
    fn persistent_provider_roundtrip_and_recovery() {
        let dir = ScratchDir::new("prov-pstore");
        let d2 = dir.to_path_buf();
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
        let d3 = dir.to_path_buf();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d3).unwrap();
            assert_eq!(
                prov.get_page(p, PageId(3, 4)).unwrap().bytes().as_ref(),
                b"durable"
            );
        });
    }

    #[test]
    fn reopened_persistent_provider_reconstructs_counters() {
        // Satellite: the books must balance after open → put → reopen — a
        // fresh process on a non-empty directory reconstructs
        // stored_bytes/stored_pages from the index instead of starting at
        // zero, and load_estimate equals stored_bytes (no phantom
        // reservations).
        let dir = ScratchDir::new("prov-books");
        let d2 = dir.to_path_buf();
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
        let d3 = dir.to_path_buf();
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
    }

    #[test]
    fn crash_wipe_then_recover_roundtrip() {
        let dir = ScratchDir::new("prov-wipe");
        let d2 = dir.to_path_buf();
        with_proc(move |p| {
            let prov = Provider::new_persistent(NodeId(1), &d2).unwrap();
            prov.reserve(64);
            prov.put_page(p, PageId(1, 1), Payload::from_vec(vec![1u8; 64]))
                .unwrap();
            prov.put_page(p, PageId(1, 2), Payload::from_vec(vec![2u8; 32]))
                .unwrap();
            prov.reserve(1000); // in-flight writer that will die with the crash

            // The lifecycle itself (wiped / down / recoveries / idempotence /
            // memory flavour rejects) is asserted once, in `service.rs`;
            // here: what a provider loses and what it gets back.
            prov.crash_wipe().unwrap();
            assert_eq!(prov.stored_bytes(), 0, "wipe drops all in-memory state");
            assert!(!prov.has_page(PageId(1, 1)), "wiped store answers nothing");
            assert!(matches!(
                prov.get_page(p, PageId(1, 1)),
                Err(BlobError::ProviderDown { .. })
            ));

            prov.recover().unwrap();
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
        });
    }
}
