//! The provider manager: decides which providers receive the pages of each
//! write (paper §3.1.1: placement "aims at achieving load-balancing").
//!
//! # Leased reservations
//!
//! Every allocation reserves capacity on the chosen providers *before* any
//! byte moves, so the least-loaded policy spreads concurrent writers. That
//! opens a failure window the version manager's write timeout cannot see: a
//! writer that dies *between* allocation and its page stores never consumed
//! its reservations, and nothing in the VM's pending-write reap (which only
//! knows writers that reached `assign`) will ever hand them back. Since this
//! refactor, every [`ProviderManager::allocate`] therefore registers a
//! **lease** over its page-replica reservations, with a deadline mirroring
//! the VM's write timeout. A live writer [`ProviderManager::settle`]s the
//! lease when its page stores finish (landed pages consumed their
//! reservations at the provider; failed ones were released inline). A dead
//! writer's lease expires: [`ProviderManager::reap_expired_leases`] — run by
//! the optional background reaper, or lazily by the next `allocate` — asks
//! each holder whether the page landed ([`Provider::has_page`]) and releases
//! exactly the reservations that never became stored bytes. The deadline
//! queue is peeked O(1) in the common no-expiry case, mirroring the version
//! manager's per-blob reap queues.
//!
//! Like the VM's write timeout, the lease deadline embeds a liveness
//! assumption: a writer slower than the timeout is indistinguishable from a
//! dead one. The lease *entry* is the token for returning a reservation
//! ([`ProviderManager::release`] is a no-op once the reaper took it, and a
//! mid-failover [`ProviderManager::adopt`] re-acquires an expired lease), so
//! a resurrecting writer
//! never double-releases through the manager — the one residual race is a
//! page landing *after* its reservation was reclaimed, which is why the
//! deadline must comfortably exceed one update's store time (the default
//! mirrors the VM's 30 s against sub-second page streams).
//!
//! # No global locks
//!
//! The old `Mutex<usize>` round-robin cursor is an atomic counter, the
//! capacity books live in per-provider atomics ([`Provider::load_estimate`]),
//! and the lease book's mutex guards only queue/table splices — never a
//! fabric call — so concurrent allocations from distinct clients serialize
//! on nothing but the modeled control RPC itself. Placement stays
//! deterministic in sim mode: candidates keep deployment order, the cursor
//! advances in scheduler order, and tie-breaks draw from the caller's seeded
//! RNG stream.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{Fabric, NodeId, Proc, SimTime};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::AllocStrategy;
use crate::error::{BlobError, BlobResult};
use crate::provider::Provider;
use crate::types::PageId;

/// Key namespace for lease records inside the manager's durable store.
const LEASE_PREFIX: &[u8] = b"l/";

fn lease_key(id: u64) -> [u8; 10] {
    let mut k = [0u8; 10];
    k[..2].copy_from_slice(LEASE_PREFIX);
    k[2..].copy_from_slice(&id.to_be_bytes());
    k
}

/// One lease record is the concatenation of its outstanding entries, 28
/// bytes each: provider node (u32 LE), page id (2×u64 LE), bytes (u64 LE).
const LEASE_ENTRY_BYTES: usize = 28;

fn encode_lease(entries: &[(NodeId, PageId, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * LEASE_ENTRY_BYTES);
    for &(node, page, bytes) in entries {
        out.extend_from_slice(&node.0.to_le_bytes());
        out.extend_from_slice(&page.0.to_le_bytes());
        out.extend_from_slice(&page.1.to_le_bytes());
        out.extend_from_slice(&bytes.to_le_bytes());
    }
    out
}

#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "chunks_exact(LEASE_ENTRY_BYTES) yields 28-byte chunks; the four ranges tile 0..28 in widths 4, 8, 8, 8"
)]
fn decode_lease(v: &[u8]) -> Option<Vec<(NodeId, PageId, u64)>> {
    if !v.len().is_multiple_of(LEASE_ENTRY_BYTES) {
        return None;
    }
    Some(
        v.chunks_exact(LEASE_ENTRY_BYTES)
            .map(|c| {
                (
                    NodeId(u32::from_le_bytes(c[..4].try_into().unwrap())),
                    PageId(
                        u64::from_le_bytes(c[4..12].try_into().unwrap()),
                        u64::from_le_bytes(c[12..20].try_into().unwrap()),
                    ),
                    u64::from_le_bytes(c[20..].try_into().unwrap()),
                )
            })
            .collect(),
    )
}

/// Handle to the lease covering one update's page-replica reservations.
/// Returned by [`ProviderManager::allocate`]; the writer settles it after
/// its page stores, the reaper expires it if the writer never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseId(u64);

/// Outstanding page-replica reservations of one lease:
/// `(provider node, page, bytes)` — one entry per replica stream.
struct Lease {
    entries: Vec<(NodeId, PageId, u64)>,
}

#[derive(Default)]
struct LeaseBook {
    table: HashMap<u64, Lease>,
    /// Lease ids in deadline order. Deadlines are computed under this lock
    /// (see [`ProviderManager::register_lease`]), so they are monotone and
    /// the no-expiry reap check peeks one entry — O(1), never a table scan.
    /// Entries settled by their writer are dropped lazily at the peek.
    queue: VecDeque<(SimTime, u64)>,
}

/// Centralized placement service (one instance per deployment, like the
/// paper's single provider manager node).
pub struct ProviderManager {
    node: NodeId,
    fabric: Fabric,
    providers: Vec<Arc<Provider>>,
    by_node: HashMap<NodeId, Arc<Provider>>,
    strategy: AllocStrategy,
    ctl_msg_bytes: u64,
    /// Reservation lease lifetime; `None` disables leasing (tests that want
    /// reservations pinned forever).
    lease_timeout_ns: Option<u64>,
    rr: AtomicU64,
    next_lease: AtomicU64,
    leases: Mutex<LeaseBook>,
    expired_leases: AtomicU64,
    reclaimed_bytes: AtomicU64,
    /// Durable copy of the lease book (see [`Self::with_persistence`]).
    /// Writes are best-effort: the in-memory book stays authoritative, and a
    /// store hiccup must never fail an allocation.
    persist: Option<pstore::Store>,
}

impl ProviderManager {
    pub fn new(
        node: NodeId,
        fabric: Fabric,
        providers: Vec<Arc<Provider>>,
        strategy: AllocStrategy,
        ctl_msg_bytes: u64,
        lease_timeout_ns: Option<u64>,
    ) -> Self {
        let by_node = providers.iter().map(|pr| (pr.node(), pr.clone())).collect();
        ProviderManager {
            node,
            fabric,
            providers,
            by_node,
            strategy,
            ctl_msg_bytes,
            lease_timeout_ns,
            rr: AtomicU64::new(0),
            next_lease: AtomicU64::new(0),
            leases: Mutex::with_rank(LeaseBook::default(), crate::lock_ranks::LEASE_BOOK),
            expired_leases: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            persist: None,
        }
    }

    /// Enable the durable lease book: every lease mutation is mirrored into
    /// a [`pstore::Store`] at `dir`, and a manager constructed over a
    /// non-empty directory *recovers* the leases a dead predecessor left
    /// behind — each reloaded lease gets a fresh deadline (the predecessor's
    /// clock died with it), `next_lease` resumes past the highest recovered
    /// id, and unlanded reservations are re-taken on their providers so the
    /// capacity books balance from the first allocation. A lease that
    /// straddled the crash is then settled / adopted / reaped exactly like
    /// one registered in this life. No-op book-keeping when leasing is
    /// disabled (`lease_timeout_ns == None`).
    pub fn with_persistence(mut self, dir: &Path, opts: pstore::StoreOptions) -> BlobResult<Self> {
        let store =
            pstore::Store::open_with(dir, opts).map_err(|e| BlobError::persistence(dir, &e))?;
        if let Some(timeout) = self.lease_timeout_ns {
            let records = store
                .scan_prefix(LEASE_PREFIX)
                .map_err(|e| BlobError::persistence(dir, &e))?;
            let mut book = self.leases.lock();
            // All recovered leases share one fresh deadline, keeping the
            // queue monotone; scan order is ascending key = ascending id.
            let deadline = self.fabric.now() + timeout;
            let mut max_id = 0u64;
            for (k, v) in records {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "scan_prefix(LEASE_PREFIX) returned `k` because it starts with that prefix"
                )]
                let (Ok(id_bytes), Some(entries)) = (
                    <[u8; 8]>::try_from(&k[LEASE_PREFIX.len()..]),
                    decode_lease(&v),
                ) else {
                    continue; // malformed record: drop it, never panic
                };
                let id = u64::from_be_bytes(id_bytes);
                max_id = max_id.max(id);
                for &(node, page, bytes) in &entries {
                    if let Some(pr) = self.by_node.get(&node) {
                        if !pr.has_page(page) {
                            pr.reserve(bytes);
                        }
                    }
                }
                book.queue.push_back((deadline, id));
                book.table.insert(id, Lease { entries });
            }
            drop(book);
            self.next_lease.store(max_id, Ordering::Relaxed);
        }
        self.persist = Some(store);
        Ok(self)
    }

    /// Mirror one lease's current entries into the durable book
    /// (best-effort, flushed to the OS so it survives a process crash).
    fn persist_lease(&self, id: u64, entries: &[(NodeId, PageId, u64)]) {
        if let Some(s) = &self.persist {
            let _ = s.put(&lease_key(id), &encode_lease(entries));
            let _ = s.flush_buffered();
        }
    }

    /// Drop one lease from the durable book (settled or reaped).
    fn persist_drop(&self, id: u64) {
        if let Some(s) = &self.persist {
            let _ = s.delete(&lease_key(id));
            let _ = s.flush_buffered();
        }
    }

    /// The node hosting this service.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// All managed providers.
    pub fn providers(&self) -> &[Arc<Provider>] {
        &self.providers
    }

    /// Choose `replication` distinct providers for each page of an update,
    /// where `pages[i]` is the page's id and the exact byte count it will
    /// store (tail pages may be short). `exclude` removes nodes observed
    /// failing by the caller (retry paths). Reserves exactly the planned
    /// bytes on each chosen provider — and registers a lease over every
    /// reservation, so a writer that dies before its page stores is
    /// reclaimable (see the module docs). Expired leases of *other* dead
    /// writers are reaped lazily here, mirroring the VM's lazy reap.
    pub fn allocate(
        &self,
        p: &Proc,
        pages: &[(PageId, u64)],
        replication: usize,
        exclude: &[NodeId],
    ) -> BlobResult<(LeaseId, Vec<Vec<Arc<Provider>>>)> {
        self.reap_expired_leases(p);
        p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
        let mut candidates: Vec<Arc<Provider>> = self
            .providers
            .iter()
            .filter(|pr| pr.is_alive() && !exclude.contains(&pr.node()))
            .cloned()
            .collect();
        if candidates.len() < replication {
            return Err(BlobError::NoProviders);
        }
        let mut out = Vec::with_capacity(pages.len());
        let mut entries = Vec::with_capacity(pages.len() * replication);
        for &(id, bytes) in pages {
            let chosen = self.pick(p, &mut candidates, replication);
            for pr in &chosen {
                pr.reserve(bytes);
                entries.push((pr.node(), id, bytes));
            }
            out.push(chosen);
        }
        Ok((self.register_lease(entries), out))
    }

    fn register_lease(&self, entries: Vec<(NodeId, PageId, u64)>) -> LeaseId {
        let id = self.next_lease.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(timeout) = self.lease_timeout_ns {
            self.persist_lease(id, &entries);
            let mut book = self.leases.lock();
            // The deadline is read under the book lock: the O(1) front peek
            // relies on monotone queue order, which a pre-lock read would
            // break in live mode (a preempted allocator enqueueing an older
            // deadline second).
            let deadline = self.fabric.now() + timeout;
            book.queue.push_back((deadline, id));
            book.table.insert(id, Lease { entries });
        }
        LeaseId(id)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "every subscript is `% candidates.len()` or a member of a permutation of `0..candidates.len()`"
    )]
    fn pick(
        &self,
        p: &Proc,
        candidates: &mut [Arc<Provider>],
        replication: usize,
    ) -> Vec<Arc<Provider>> {
        match self.strategy {
            AllocStrategy::RoundRobin => {
                // Atomic cursor: concurrent allocators interleave without a
                // lock, and in sim mode the scheduler order makes the
                // sequence (and hence placement) reproducible per seed.
                let base = self.rr.fetch_add(replication as u64, Ordering::Relaxed) as usize;
                (0..replication)
                    .map(|i| candidates[(base + i) % candidates.len()].clone())
                    .collect()
            }
            AllocStrategy::LeastLoaded => {
                // Random tie-break via a pre-shuffle, then stable sort by load.
                let mut rng = p.rng();
                let mut idx: Vec<usize> = (0..candidates.len()).collect();
                idx.shuffle(&mut *rng);
                idx.sort_by_key(|&i| candidates[i].load_estimate());
                idx.iter()
                    .take(replication)
                    .map(|&i| candidates[i].clone())
                    .collect()
            }
        }
    }

    /// Hand back a reservation taken by [`Self::allocate`] (or adopted by a
    /// failover [`Self::adopt`]) that will never be fulfilled — the target
    /// died before the page landed, or the write was abandoned. Without
    /// this, failover permanently inflates the dead provider's load estimate
    /// and the deployment's capacity accounting never balances again.
    ///
    /// The lease entry is the *token* for returning the reservation: the
    /// bytes go back only if this call removes the entry. If the lease
    /// already expired, the reaper took the token and released the bytes —
    /// a second unconditional unreserve here would silently drain *other*
    /// writers' live reservations (unreserve saturates across the shared
    /// per-provider pool). With leasing disabled there is no token and the
    /// release is unconditional, as before.
    pub fn release(
        &self,
        p: &Proc,
        lease: LeaseId,
        provider: &Arc<Provider>,
        page: PageId,
        bytes: u64,
    ) {
        p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
        let owned = if self.lease_timeout_ns.is_none() {
            true
        } else {
            let mut book = self.leases.lock();
            match book.table.get_mut(&lease.0) {
                Some(l) => match l
                    .entries
                    .iter()
                    .position(|&(n, pg, _)| n == provider.node() && pg == page)
                {
                    Some(at) => {
                        l.entries.swap_remove(at);
                        self.persist_lease(lease.0, &l.entries);
                        true
                    }
                    None => false,
                },
                // Lease expired: the reaper already returned these bytes.
                None => false,
            }
        };
        if owned {
            provider.unreserve(bytes);
        }
    }

    /// Reserve `bytes` on a failover replacement target *under the caller's
    /// existing lease*: the replacement reservation inherits the original
    /// write's deadline, so a writer that dies mid-failover is exactly as
    /// reclaimable as one that dies mid-first-attempt. A writer that
    /// outlived its lease (the reaper expired it mid-failover) re-acquires
    /// under the same id with a fresh deadline, so the new reservation is
    /// tracked rather than orphaned.
    pub fn adopt(
        &self,
        p: &Proc,
        lease: LeaseId,
        provider: &Arc<Provider>,
        page: PageId,
        bytes: u64,
    ) {
        p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
        provider.reserve(bytes);
        if let Some(timeout) = self.lease_timeout_ns {
            let mut book = self.leases.lock();
            let entry = (provider.node(), page, bytes);
            match book.table.get_mut(&lease.0) {
                Some(l) => {
                    l.entries.push(entry);
                    self.persist_lease(lease.0, &l.entries);
                }
                None => {
                    let deadline = self.fabric.now() + timeout;
                    book.queue.push_back((deadline, lease.0));
                    self.persist_lease(lease.0, &[entry]);
                    book.table.insert(
                        lease.0,
                        Lease {
                            entries: vec![entry],
                        },
                    );
                }
            }
        }
    }

    /// The writer's page stores are done (each page either landed — consuming
    /// its reservation at the provider — or was released inline): close the
    /// lease so the reaper never considers this write again. Idempotent.
    pub fn settle(&self, p: &Proc, lease: LeaseId) {
        p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
        if self.leases.lock().table.remove(&lease.0).is_some() {
            self.persist_drop(lease.0);
        }
        // The deadline-queue entry is dropped lazily at the next front peek.
    }

    /// Expire every lease past its deadline and reclaim the reservations
    /// whose pages never landed; returns the bytes reclaimed. Called by the
    /// background reaper and lazily from [`Self::allocate`]. O(1) when
    /// nothing expired: only the deadline-queue front is examined.
    pub fn reap_expired_leases(&self, p: &Proc) -> u64 {
        if self.lease_timeout_ns.is_none() {
            return 0;
        }
        let mut reclaimed = 0u64;
        loop {
            let expired = {
                let mut book = self.leases.lock();
                let now = self.fabric.now();
                let mut expired = None;
                while let Some(&(deadline, id)) = book.queue.front() {
                    if !book.table.contains_key(&id) {
                        // Settled by its writer: forget it lazily.
                        book.queue.pop_front();
                        continue;
                    }
                    if now >= deadline {
                        book.queue.pop_front();
                        expired = book.table.remove(&id).map(|l| (id, l));
                    }
                    break;
                }
                expired
            };
            let Some((id, lease)) = expired else { break };
            self.persist_drop(id);
            self.expired_leases.fetch_add(1, Ordering::Relaxed);
            // One control exchange per expired lease: the manager confirms
            // with the holders which reservations were consumed. A page that
            // landed (`has_page`) consumed its reservation in `put_pages`;
            // everything else is a stranded reservation — hand it back.
            p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
            for (node, page, bytes) in lease.entries {
                let Some(pr) = self.by_node.get(&node) else {
                    continue;
                };
                if !pr.has_page(page) {
                    pr.unreserve(bytes);
                    reclaimed += bytes;
                }
            }
        }
        if reclaimed > 0 {
            self.reclaimed_bytes.fetch_add(reclaimed, Ordering::Relaxed);
        }
        reclaimed
    }

    /// Re-reserve, on provider `node`, every outstanding lease entry whose
    /// page has not landed there. Called right after a crash-restarted
    /// provider [`crate::service::Service::recover`]s: recovery zeroes the reservation
    /// counter (a restarted process has no memory of promises), but leases
    /// that straddled the crash are still live — their writers may yet store
    /// pages, and the reaper will expect the reservations to be there when
    /// the deadlines lapse. Entries whose pages DID land consumed their
    /// reservations (recovery already counts them as stored bytes), so only
    /// the unlanded remainder is restored. Returns the bytes re-reserved.
    pub fn reinstate(&self, node: NodeId) -> u64 {
        let Some(pr) = self.by_node.get(&node) else {
            return 0;
        };
        let book = self.leases.lock();
        let mut restored = 0u64;
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "commutative: each entry's reserve() and its share of the sum are independent of visit order"
        )]
        for lease in book.table.values() {
            for &(n, page, bytes) in &lease.entries {
                if n == node && !pr.has_page(page) {
                    pr.reserve(bytes);
                    restored += bytes;
                }
            }
        }
        restored
    }

    /// Leases currently outstanding (allocated, neither settled nor
    /// expired). Diagnostics.
    pub fn outstanding_leases(&self) -> usize {
        self.leases.lock().table.len()
    }

    /// `(leases expired, reservation bytes reclaimed)` over this manager's
    /// lifetime. Diagnostics for the reaper tests.
    pub fn lease_reap_stats(&self) -> (u64, u64) {
        (
            self.expired_leases.load(Ordering::Relaxed),
            self.reclaimed_bytes.load(Ordering::Relaxed),
        )
    }

    /// A uniformly random *alive* provider (used by retry paths wanting a
    /// fresh target).
    #[expect(
        clippy::indexing_slicing,
        reason = "gen_range(0..alive.len()) on the vector the is_empty() test just passed"
    )]
    pub fn any_alive(&self, p: &Proc, exclude: &[NodeId]) -> BlobResult<Arc<Provider>> {
        let mut rng = p.rng();
        let alive: Vec<&Arc<Provider>> = self
            .providers
            .iter()
            .filter(|pr| pr.is_alive() && !exclude.contains(&pr.node()))
            .collect();
        if alive.is_empty() {
            return Err(BlobError::NoProviders);
        }
        Ok((*alive[rng.gen_range(0..alive.len())]).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{with_proc, ScratchDir};
    use fabric::{ClusterSpec, Fabric, Payload};

    fn providers(n: u32) -> Vec<Arc<Provider>> {
        (0..n)
            .map(|i| Arc::new(Provider::new_mem(NodeId(i))))
            .collect()
    }

    fn pg(i: u64) -> PageId {
        PageId(0xA110C, i)
    }

    fn pages(sizes: &[u64]) -> Vec<(PageId, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| (pg(i as u64), b))
            .collect()
    }

    fn pm_on(
        fx: &Fabric,
        provs: Vec<Arc<Provider>>,
        strategy: AllocStrategy,
        lease_timeout_ns: Option<u64>,
    ) -> ProviderManager {
        ProviderManager::new(NodeId(0), fx.clone(), provs, strategy, 64, lease_timeout_ns)
    }

    fn with_pm<T: Send + 'static>(
        n_providers: u32,
        strategy: AllocStrategy,
        f: impl FnOnce(&Proc, &ProviderManager, &[Arc<Provider>]) -> T + Send + 'static,
    ) -> T {
        with_proc(move |p| {
            let provs = providers(n_providers);
            let pm = pm_on(p.fabric(), provs.clone(), strategy, None);
            f(p, &pm, &provs)
        })
    }

    #[test]
    fn round_robin_cycles() {
        with_pm(3, AllocStrategy::RoundRobin, |p, pm, _| {
            let (_, a) = pm.allocate(p, &pages(&[100; 4]), 1, &[]).unwrap();
            let nodes: Vec<u32> = a.iter().map(|r| r[0].node().0).collect();
            assert_eq!(nodes, vec![0, 1, 2, 0]);
        });
    }

    #[test]
    fn round_robin_stays_deterministic_across_seeded_runs() {
        // The atomic cursor must not cost reproducibility: two identically
        // seeded sims with concurrent allocators produce identical
        // placements.
        let run = |seed: u64| -> Vec<Vec<u32>> {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(8), seed);
            let pm = Arc::new(pm_on(&fx, providers(5), AllocStrategy::RoundRobin, None));
            let mut handles = Vec::new();
            for w in 0..4u64 {
                let pm2 = pm.clone();
                handles.push(fx.spawn(NodeId(w as u32), format!("alloc{w}"), move |p| {
                    let mut picked = Vec::new();
                    for i in 0..8u64 {
                        let (_, a) = pm2.allocate(p, &[(PageId(w, i), 10)], 1, &[]).unwrap();
                        picked.push(a[0][0].node().0);
                        p.sleep((w + 1) * fabric::MICROS);
                    }
                    picked
                }));
            }
            fx.run();
            handles.iter().map(|h| h.take().unwrap()).collect()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn least_loaded_spreads_concurrent_reservations() {
        with_pm(4, AllocStrategy::LeastLoaded, |p, pm, _| {
            // 4 single-page allocations *before any data lands* must pick 4
            // distinct providers thanks to reservations.
            let mut nodes = std::collections::HashSet::new();
            for i in 0..4 {
                let (_, a) = pm.allocate(p, &[(pg(i), 1000)], 1, &[]).unwrap();
                nodes.insert(a[0][0].node().0);
            }
            assert_eq!(nodes.len(), 4);
        });
    }

    #[test]
    fn reservations_match_exact_page_bytes() {
        with_pm(2, AllocStrategy::RoundRobin, |p, pm, provs| {
            // A full page plus a short 37 B tail: exactly 137 B reserved in
            // total, so releasing actual page bytes balances to zero.
            let (lease, placements) = pm.allocate(p, &pages(&[100, 37]), 1, &[]).unwrap();
            let reserved: u64 = provs.iter().map(|pr| pr.load_estimate()).sum();
            assert_eq!(reserved, 137);
            pm.release(p, lease, &placements[0][0], pg(0), 100);
            pm.release(p, lease, &placements[1][0], pg(1), 37);
            assert_eq!(provs.iter().map(|pr| pr.load_estimate()).sum::<u64>(), 0);
        });
    }

    #[test]
    fn replication_yields_distinct_nodes() {
        with_pm(5, AllocStrategy::LeastLoaded, |p, pm, _| {
            let (_, a) = pm.allocate(p, &pages(&[100; 3]), 3, &[]).unwrap();
            for replicas in &a {
                let mut ns: Vec<u32> = replicas.iter().map(|r| r.node().0).collect();
                ns.sort_unstable();
                ns.dedup();
                assert_eq!(ns.len(), 3, "replicas must be distinct providers");
            }
        });
    }

    #[test]
    fn excludes_and_dead_are_skipped() {
        with_pm(4, AllocStrategy::LeastLoaded, |p, pm, provs| {
            provs[1].kill();
            for i in 0..8 {
                let (_, a) = pm.allocate(p, &[(pg(i), 10)], 1, &[NodeId(2)]).unwrap();
                let n = a[0][0].node().0;
                assert!(n != 1 && n != 2, "picked dead or excluded provider {n}");
            }
        });
    }

    #[test]
    fn insufficient_providers_error() {
        with_pm(2, AllocStrategy::LeastLoaded, |p, pm, provs| {
            provs[0].kill();
            assert!(matches!(
                pm.allocate(p, &pages(&[10]), 2, &[]),
                Err(BlobError::NoProviders)
            ));
        });
    }

    #[test]
    fn expired_lease_reclaims_only_unlanded_reservations() {
        let timeout = 100 * fabric::MILLIS;
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let provs = providers(3);
        let pm = pm_on(&fx, provs.clone(), AllocStrategy::RoundRobin, Some(timeout));
        let h = fx.spawn(NodeId(0), "t", move |p| {
            // Two pages allocated under one lease; only the first lands.
            let (_, a) = pm.allocate(p, &pages(&[100, 60]), 1, &[]).unwrap();
            a[0][0].put_page(p, pg(0), Payload::ghost(100)).unwrap();
            // The writer "dies": no settle. Before expiry nothing changes.
            pm.reap_expired_leases(p);
            assert_eq!(pm.outstanding_leases(), 1);
            p.sleep(2 * timeout);
            let reclaimed = pm.reap_expired_leases(p);
            assert_eq!(reclaimed, 60, "only the unlanded page's bytes return");
            assert_eq!(pm.outstanding_leases(), 0);
            for pr in &provs {
                assert_eq!(
                    pr.load_estimate(),
                    pr.stored_bytes(),
                    "books must balance after the lease reap"
                );
            }
            assert_eq!(pm.lease_reap_stats(), (1, 60));
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn settled_and_released_leases_never_expire() {
        let timeout = 50 * fabric::MILLIS;
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let provs = providers(2);
        let pm = pm_on(&fx, provs.clone(), AllocStrategy::RoundRobin, Some(timeout));
        let h = fx.spawn(NodeId(0), "t", move |p| {
            // Lease A: page lands, writer settles.
            let (la, a) = pm.allocate(p, &pages(&[40]), 1, &[]).unwrap();
            a[0][0].put_page(p, pg(0), Payload::ghost(40)).unwrap();
            pm.settle(p, la);
            // Lease B: the write is abandoned and released inline (the
            // PR 2 contract), then settled.
            let (lb, b) = pm.allocate(p, &[(pg(9), 70)], 1, &[]).unwrap();
            pm.release(p, lb, &b[0][0], pg(9), 70);
            pm.settle(p, lb);
            p.sleep(4 * timeout);
            assert_eq!(pm.reap_expired_leases(p), 0, "nothing left to reclaim");
            assert_eq!(pm.lease_reap_stats(), (0, 0));
            for pr in &provs {
                assert_eq!(pr.load_estimate(), pr.stored_bytes());
            }
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn lease_codec_roundtrips() {
        let entries = vec![
            (NodeId(3), PageId(0xDEAD, 0xBEEF), 4096),
            (NodeId(0), PageId(0, 1), 7),
            (NodeId(u32::MAX), PageId(u64::MAX, 0), u64::MAX),
        ];
        assert_eq!(decode_lease(&encode_lease(&entries)), Some(entries));
        assert_eq!(decode_lease(&[]), Some(vec![]));
        assert_eq!(decode_lease(&[1, 2, 3]), None, "truncated record");
    }

    #[test]
    fn persisted_leases_survive_a_manager_restart() {
        let dir = ScratchDir::new("pm-lease");
        let timeout = 100 * fabric::MILLIS;

        // Life 1: allocate three leases; settle one, partially store another,
        // then "crash" (drop the manager without settling).
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let provs = providers(2);
        let pm = pm_on(&fx, provs.clone(), AllocStrategy::RoundRobin, Some(timeout))
            .with_persistence(&dir, pstore::StoreOptions::default())
            .unwrap();
        let d2 = dir.to_path_buf();
        let h = fx.spawn(NodeId(0), "t", move |p| {
            let (la, a) = pm.allocate(p, &pages(&[40]), 1, &[]).unwrap();
            a[0][0].put_page(p, pg(0), Payload::ghost(40)).unwrap();
            pm.settle(p, la);
            let (_, b) = pm.allocate(p, &[(pg(1), 60)], 1, &[]).unwrap();
            b[0][0].put_page(p, pg(1), Payload::ghost(60)).unwrap();
            let (_, _) = pm.allocate(p, &[(pg(2), 90)], 1, &[]).unwrap();
            (a[0][0].node(), b[0][0].node())
        });
        fx.run();
        let (_n_a, n_b) = h.take().unwrap();

        // Life 2: fresh fabric, fresh providers (pages are gone — these are
        // mem providers, modeling the worst case), fresh manager over the
        // same lease directory.
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let provs = providers(2);
        let pm = pm_on(&fx, provs.clone(), AllocStrategy::RoundRobin, Some(timeout))
            .with_persistence(&d2, pstore::StoreOptions::default())
            .unwrap();
        // The settled lease is gone; the two unsettled ones were recovered
        // and their unlanded reservations re-taken.
        assert_eq!(pm.outstanding_leases(), 2);
        let reserved: u64 = provs.iter().map(|pr| pr.load_estimate()).sum();
        assert_eq!(reserved, 150, "pg(1)+pg(2) bytes re-reserved");
        let _ = n_b;
        let h = fx.spawn(NodeId(0), "t", move |p| {
            // New allocations never reuse a recovered lease id.
            let (lease, _) = pm.allocate(p, &[(pg(9), 10)], 1, &[]).unwrap();
            assert!(lease.0 > 3, "id sequence resumes past recovery");
            // The recovered leases expire like natives (their writers died
            // with the old manager) and the reaper balances the books.
            p.sleep(2 * timeout);
            pm.reap_expired_leases(p);
            assert_eq!(pm.outstanding_leases(), 0);
            for pr in pm.providers() {
                assert_eq!(pr.load_estimate(), pr.stored_bytes());
            }
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn reinstate_restores_only_unlanded_reservations() {
        let dir = ScratchDir::new("pm-reinstate");
        let pdir = dir.join("prov");
        let ldir = dir.join("pm");
        let timeout = 100 * fabric::MILLIS;
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let pr = Arc::new(Provider::new_persistent(NodeId(1), &pdir).unwrap());
        let pm = pm_on(
            &fx,
            vec![pr.clone()],
            AllocStrategy::RoundRobin,
            Some(timeout),
        )
        .with_persistence(&ldir, pstore::StoreOptions::default())
        .unwrap();
        let h = fx.spawn(NodeId(0), "t", move |p| {
            // One lease, two pages: the first lands, the second is still in
            // flight when the provider crash-restarts.
            let (lease, a) = pm.allocate(p, &pages(&[100, 60]), 1, &[]).unwrap();
            a[0][0]
                .put_page(p, pg(0), Payload::from_vec(vec![1u8; 100]))
                .unwrap();
            assert_eq!(pr.load_estimate(), 160, "100 stored + 60 reserved");

            pr.crash_wipe().unwrap();
            pr.recover().unwrap();
            assert_eq!(
                pr.load_estimate(),
                100,
                "recovery rebuilt stored bytes but forgot the reservation"
            );
            let restored = pm.reinstate(pr.node());
            assert_eq!(restored, 60, "only the unlanded entry is re-reserved");
            assert_eq!(pr.load_estimate(), 160, "books match pre-crash state");

            // The straddling lease stays fully functional: the writer's late
            // release and settle balance the books to zero outstanding.
            pm.release(p, lease, &a[1][0], pg(1), 60);
            pm.settle(p, lease);
            assert_eq!(pr.load_estimate(), pr.stored_bytes());
            assert_eq!(pm.outstanding_leases(), 0);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn allocate_reaps_lazily_like_the_vm() {
        let timeout = 50 * fabric::MILLIS;
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let provs = providers(2);
        let pm = pm_on(
            &fx,
            provs.clone(),
            AllocStrategy::LeastLoaded,
            Some(timeout),
        );
        let h = fx.spawn(NodeId(0), "t", move |p| {
            let (_, _) = pm.allocate(p, &pages(&[500]), 1, &[]).unwrap();
            // Writer dies. A later allocation (no reaper running) reclaims
            // the corpse's reservation on entry, so the least-loaded policy
            // is not skewed by ghost load.
            p.sleep(2 * timeout);
            let (_, _) = pm.allocate(p, &[(pg(7), 10)], 1, &[]).unwrap();
            let (expired, reclaimed) = pm.lease_reap_stats();
            assert_eq!((expired, reclaimed), (1, 500));
            let reserved: u64 = provs.iter().map(|pr| pr.load_estimate()).sum();
            assert_eq!(reserved, 10, "only the live allocation remains");
        });
        fx.run();
        h.take().unwrap();
    }
}
