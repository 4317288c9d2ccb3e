//! The provider manager: decides which providers receive the pages of each
//! write (paper §3.1.1: placement "aims at achieving load-balancing") — the
//! least-loaded alive providers, counting the bytes reserved for writes still
//! in flight as load.
//!
//! # Leased reservations
//!
//! Every allocation reserves capacity on the chosen providers *before* any
//! byte moves, so the least-loaded policy spreads concurrent writers. That
//! opens a failure window the version manager's write timeout cannot see: a
//! writer that dies *between* allocation and its page stores never consumed
//! its reservations, and nothing in the VM's pending-write reap (which only
//! knows writers that reached `assign`) will ever hand them back. Every
//! [`ProviderManager::allocate`] therefore registers a **lease** over its
//! page-replica reservations, with a deadline on the VM's write timeout. A
//! live writer [`ProviderManager::settle`]s the lease when its page stores
//! finish (landed pages consumed their reservations at the provider; failed
//! ones were released inline). A dead writer's lease expires:
//! [`ProviderManager::reap_expired_leases`] — run by the optional background
//! reaper, or lazily by the next `allocate` — asks each holder whether the
//! page landed (`Provider::has_page`) and releases exactly the reservations
//! that never became stored bytes. The deadline queue is peeked O(1) in the
//! common no-expiry case, mirroring the version manager's per-blob window.
//!
//! Like the VM's write timeout, the lease deadline embeds a liveness
//! assumption: a writer slower than the timeout is indistinguishable from a
//! dead one. The lease *entry* is the token for returning a reservation
//! ([`ProviderManager::release`] is a no-op once the reaper took it, and a
//! mid-failover [`ProviderManager::adopt`] re-acquires an expired lease), so
//! a resurrecting writer never double-releases through the manager — the one
//! residual race is a page landing *after* its reservation was reclaimed,
//! which is why the deadline must comfortably exceed one update's store time
//! (the default mirrors the VM's 30 s against sub-second page streams).
//!
//! # One book, one shell
//!
//! The leases live in one `LeaseBook`: private fields, one method per
//! transition (`register`, `release`, `adopt`, `settle`, `take_expired`,
//! `entries_on`), the clock passed in. `ProviderManager` is the shell around
//! it: it takes the lock and calls one method. The RPC charges and the
//! providers' capacity books (`reserve` / `unreserve` / `has_page`) stay
//! outside the book.
//!
//! The book lives in memory only. Every lease belongs to a writer of this
//! deployment, so a redeploy over the same `persist_dir` starts with an
//! empty book: the old writers died with the old deployment, and the
//! providers reopen with no reservations, so there is nothing to hand back.
//!
//! # No global locks
//!
//! The capacity books live in per-provider atomics
//! ([`Provider::load_estimate`]), and the lease book's mutex guards one
//! transition — never a fabric call — so concurrent allocations from
//! distinct clients serialize on nothing but the modeled control RPC
//! itself. Placement stays deterministic in sim mode: candidates
//! keep deployment order and tie-breaks draw from the caller's seeded RNG
//! stream.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{NodeId, Proc, ResourceKind, SimTime, CTL_MSG_BYTES};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::{BlobError, BlobResult};
use crate::provider::Provider;
use crate::types::PageId;

/// One reservation a lease holds — provider node, page, bytes — one per
/// page-replica stream.
type Entry = (NodeId, PageId, u64);

/// Handle to the lease covering one update's page-replica reservations.
/// Returned by [`ProviderManager::allocate`]; the writer settles it after
/// its page stores, the reaper expires it if the writer never does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseId(u64);

/// Every outstanding lease and the order their deadlines fall due in. The
/// fields are private and each transition is one method taking the time it
/// happens at, so nothing else can break the facts stated on them.
#[derive(Default)]
struct LeaseBook {
    /// How long a lease lives: the deployment's write timeout.
    timeout: u64,
    /// The outstanding leases by id, each with its unreturned entries.
    leases: BTreeMap<u64, Vec<Entry>>,
    /// Lease ids in deadline order. Deadlines are stamped under the book's
    /// lock, so they are monotone and the no-expiry check peeks one entry —
    /// O(1), never a scan. Ids settled by their writer are dropped lazily at
    /// the peek.
    deadlines: VecDeque<(SimTime, u64)>,
    /// The highest id issued.
    last_id: u64,
}

impl LeaseBook {
    fn new(timeout: u64) -> LeaseBook {
        LeaseBook {
            timeout,
            ..LeaseBook::default()
        }
    }

    /// Open a lease over `entries`, due one timeout after `now`.
    fn register(&mut self, now: SimTime, entries: Vec<Entry>) -> LeaseId {
        self.last_id += 1;
        let id = self.last_id;
        self.deadlines
            .push_back((now.saturating_add(self.timeout), id));
        self.leases.insert(id, entries);
        LeaseId(id)
    }

    /// Take the token for `lease`'s reservation of `page` on `node`: true
    /// if the entry was there, false if the reaper already took it (and
    /// returned its bytes) or the lease never held it.
    fn release(&mut self, lease: LeaseId, node: NodeId, page: PageId) -> bool {
        let Some(entries) = self.leases.get_mut(&lease.0) else {
            return false;
        };
        let at = entries
            .iter()
            .position(|&(n, pg, _)| n == node && pg == page);
        at.map(|at| entries.swap_remove(at)).is_some()
    }

    /// Add `entry` to `lease`. A lease the reaper already took is re-opened
    /// under the same id, due one timeout after `now`.
    fn adopt(&mut self, now: SimTime, lease: LeaseId, entry: Entry) {
        let (deadlines, due) = (&mut self.deadlines, now.saturating_add(self.timeout));
        self.leases
            .entry(lease.0)
            .or_insert_with(|| {
                deadlines.push_back((due, lease.0));
                Vec::new()
            })
            .push(entry);
    }

    /// Close `lease`, if it is outstanding.
    fn settle(&mut self, lease: LeaseId) {
        self.leases.remove(&lease.0);
    }

    /// Remove and hand out the entries of the first lease due at `now`, or
    /// `None`.
    fn take_expired(&mut self, now: SimTime) -> Option<Vec<Entry>> {
        while let Some(&(due, id)) = self.deadlines.front() {
            if !self.leases.contains_key(&id) {
                self.deadlines.pop_front();
                continue;
            }
            if now < due {
                return None;
            }
            self.deadlines.pop_front();
            return self.leases.remove(&id);
        }
        None
    }

    /// `(page, bytes)` of every outstanding reservation on `node`, in lease
    /// order.
    fn entries_on(&self, node: NodeId) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.leases
            .values()
            .flatten()
            .filter(move |e| e.0 == node)
            .map(|&(_, page, bytes)| (page, bytes))
    }

    fn len(&self) -> usize {
        self.leases.len()
    }
}

/// Centralized placement service (one instance per deployment, like the
/// paper's single provider manager node).
pub struct ProviderManager {
    node: NodeId,
    providers: Vec<Arc<Provider>>,
    by_node: HashMap<NodeId, Arc<Provider>>,
    leases: Mutex<LeaseBook>,
    expired_leases: AtomicU64,
    reclaimed_bytes: AtomicU64,
}

impl ProviderManager {
    /// A manager whose leases expire `lease_timeout_ns` after they are
    /// opened (the deployment's write timeout).
    pub fn new(node: NodeId, providers: Vec<Arc<Provider>>, lease_timeout_ns: u64) -> Self {
        let by_node = providers.iter().map(|pr| (pr.node(), pr.clone())).collect();
        let book = LeaseBook::new(lease_timeout_ns);
        ProviderManager {
            node,
            providers,
            by_node,
            leases: Mutex::with_rank(book, crate::lock_ranks::LEASE_BOOK),
            expired_leases: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
        }
    }

    /// One exchange with the manager: its request, then `f`, the manager's
    /// work (a live scope on its node's CPU, [`Proc::serve`]).
    fn serve<T>(&self, p: &Proc, f: impl FnOnce() -> T) -> T {
        p.request(self.node, CTL_MSG_BYTES, CTL_MSG_BYTES, 0)
            .wait(p);
        p.serve(self.node, ResourceKind::Cpu, f)
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
        self.serve(p, || {
            let candidates: Vec<&Arc<Provider>> = self
                .providers
                .iter()
                .filter(|pr| pr.is_alive() && !exclude.contains(&pr.node()))
                .collect();
            if candidates.len() < replication {
                return Err(BlobError::NoProviders);
            }
            let mut out = Vec::with_capacity(pages.len());
            let mut entries = Vec::with_capacity(pages.len() * replication);
            for &(id, bytes) in pages {
                let chosen = least_loaded(p, &candidates, replication);
                for pr in &chosen {
                    pr.reserve(bytes);
                    entries.push((pr.node(), id, bytes));
                }
                out.push(chosen);
            }
            let lease = self.leases.lock().register(p.now(), entries);
            Ok((lease, out))
        })
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
    /// per-provider pool).
    pub fn release(
        &self,
        p: &Proc,
        lease: LeaseId,
        provider: &Arc<Provider>,
        page: PageId,
        bytes: u64,
    ) {
        self.serve(p, || {
            if self.leases.lock().release(lease, provider.node(), page) {
                provider.unreserve(bytes);
            }
        })
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
        self.serve(p, || {
            provider.reserve(bytes);
            let entry = (provider.node(), page, bytes);
            self.leases.lock().adopt(p.now(), lease, entry);
        })
    }

    /// The writer's page stores are done (each page either landed — consuming
    /// its reservation at the provider — or was released inline): close the
    /// lease so the reaper never considers this write again. Idempotent.
    pub fn settle(&self, p: &Proc, lease: LeaseId) {
        self.serve(p, || {
            self.leases.lock().settle(lease);
        })
    }

    /// Expire every lease past its deadline and reclaim the reservations
    /// whose pages never landed; returns the bytes reclaimed. Called by the
    /// background reaper and lazily from [`Self::allocate`]. O(1) when
    /// nothing expired: only the deadline-queue front is examined.
    pub fn reap_expired_leases(&self, p: &Proc) -> u64 {
        p.serve(self.node, ResourceKind::Cpu, || {
            let mut reclaimed = 0u64;
            loop {
                let expired = self.leases.lock().take_expired(p.now());
                let Some(entries) = expired else { break };
                self.expired_leases.fetch_add(1, Ordering::Relaxed);
                // One control exchange per expired lease: the manager confirms
                // with the holders which reservations were consumed. A page that
                // landed (`has_page`) consumed its reservation in `put_pages`;
                // everything else is a stranded reservation — hand it back.
                p.request(self.node, CTL_MSG_BYTES, CTL_MSG_BYTES, 0)
                    .wait(p);
                for (node, page, bytes) in entries {
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
        })
    }

    /// Re-reserve, on provider `node`, every outstanding lease entry whose
    /// page has not landed there. Called right after a crash-restarted
    /// provider [`crate::service::Service::recover`]s: a restarted provider zeroes
    /// its reservation counter (it has no memory of promises), but leases
    /// that straddled the crash are still live — their writers may yet store
    /// pages, and the reaper will expect the reservations to be there when
    /// the deadlines lapse. Entries whose pages DID land consumed their
    /// reservations (recovery already counts them as stored bytes), so only
    /// the unlanded remainder is restored. Returns the bytes re-reserved.
    pub(crate) fn reinstate(&self, node: NodeId) -> u64 {
        let Some(pr) = self.by_node.get(&node) else {
            return 0;
        };
        let book = self.leases.lock();
        let mut restored = 0u64;
        for (page, bytes) in book.entries_on(node) {
            if !pr.has_page(page) {
                pr.reserve(bytes);
                restored += bytes;
            }
        }
        restored
    }

    /// Leases currently outstanding (allocated, neither settled nor
    /// expired). Diagnostics.
    pub fn outstanding_leases(&self) -> usize {
        self.leases.lock().len()
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
    pub(crate) fn any_alive(&self, p: &Proc, exclude: &[NodeId]) -> BlobResult<Arc<Provider>> {
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

/// `replication` distinct candidates, least loaded first (stored bytes plus
/// bytes reserved for writes in flight); ties are broken by the caller's
/// seeded RNG stream through a pre-shuffle and a stable sort.
fn least_loaded(p: &Proc, candidates: &[&Arc<Provider>], replication: usize) -> Vec<Arc<Provider>> {
    let mut order = candidates.to_vec();
    order.shuffle(&mut *p.rng());
    order.sort_by_key(|pr| pr.load_estimate());
    order.into_iter().take(replication).cloned().collect()
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

    /// A lease lifetime no run reaches.
    const NEVER: u64 = u64::MAX;

    fn pm_on(provs: Vec<Arc<Provider>>, lease_timeout_ns: u64) -> ProviderManager {
        ProviderManager::new(NodeId(0), provs, lease_timeout_ns)
    }

    fn with_pm<T: Send + 'static>(
        n_providers: u32,
        f: impl FnOnce(&Proc, &ProviderManager, &[Arc<Provider>]) -> T + Send + 'static,
    ) -> T {
        with_proc(move |p| {
            let provs = providers(n_providers);
            let pm = pm_on(provs.clone(), NEVER);
            f(p, &pm, &provs)
        })
    }

    #[test]
    fn placement_stays_deterministic_across_seeded_runs() {
        // Concurrent allocators must not cost reproducibility: tie-breaks
        // draw from each caller's seeded stream, so two identically seeded
        // sims produce identical placements.
        let run = |seed: u64| -> Vec<Vec<u32>> {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(8), seed);
            let pm = Arc::new(pm_on(providers(5), NEVER));
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
        with_pm(4, |p, pm, _| {
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
        with_pm(2, |p, pm, provs| {
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
        with_pm(5, |p, pm, _| {
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
        with_pm(4, |p, pm, provs| {
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
        with_pm(2, |p, pm, provs| {
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
        let pm = pm_on(provs.clone(), timeout);
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
        let pm = pm_on(provs.clone(), timeout);
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
    fn reinstate_restores_only_unlanded_reservations() {
        let dir = ScratchDir::new("pm-reinstate");
        let timeout = 100 * fabric::MILLIS;
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let pr = Arc::new(Provider::new_persistent(NodeId(1), &dir).unwrap());
        let pm = pm_on(vec![pr.clone()], timeout);
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
        let pm = pm_on(provs.clone(), timeout);
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
