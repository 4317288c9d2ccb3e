//! Tier-1 pins for the sharded storage plane and the lease-governed
//! writer-failure lifecycle — the mirror of `control_plane_concurrency`.
//!
//! PR 4 made the *control* plane shard per BLOB; these tests pin the same
//! property for the plane that moves bytes:
//!
//! * **independence** — N writers streaming to N disjoint providers (and N
//!   writers fanning into ONE provider) complete in sim-time within a small
//!   constant factor of a single writer: no provider-wide mutex, no global
//!   allocation lock, no shared books serialize them;
//! * **lease lifecycle** — a writer that dies *between* provider allocation
//!   and its page stores leaves zero stranded reservation bytes once its
//!   lease expires, with the background reaper doing the reclaim (no
//!   subsequent VM/PM interaction required); a writer that dies between
//!   `assign` and `commit` publishes through the same reaper without any
//!   control-plane interaction; a sweep that fails on a metadata outage is
//!   counted (`ReaperHandle::failed_sweeps`) and retried after heal;
//! * **registry drain** — a deleted BLOB is unreachable and its registry
//!   slot gone the moment `delete` returns;
//! * **acknowledged means durable, under a race** — on real threads, a
//!   process crash landing in the middle of four writers' batch streams
//!   loses nothing a provider or a metadata server acknowledged, tears
//!   nothing it refused, and the restart's rebuilt books match the store;
//!   in a second mode the crash and the restart land back to back, six
//!   times, under writers that never stop, and the books still equal the
//!   store's index (a batch's books are bumped under the store guard).
//!
//! The live-mode (real OS threads) variants drive the same machinery
//! through BSFS in `crates/bsfs/tests/bsfs_integration.rs`.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use blobseer::dht::{MetaDht, MetaServer};
use blobseer::meta::{NodeBody, NodeKey, PageRef};
use blobseer::provider::Provider;
use blobseer::version_manager::UpdateKind;
use blobseer::{
    BlobError, BlobId, BlobResult, BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout, PageId,
};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use parking_lot::Mutex;

const PS: u64 = 4 * 1024; // below the small-message cutoff: page streams
                          // cost latency only, so timing isolates the
                          // storage plane from bandwidth sharing.

fn config() -> BlobSeerConfig {
    let mut cfg = BlobSeerConfig::test_small(PS);
    // Zero modeled CPU charges: any sim-time growth with N can only come
    // from an accidental shared bottleneck in the planes themselves.
    cfg.vm_cpu_ops = 0;
    cfg.meta_cpu_ops = 0;
    cfg
}

/// Services on node 0, writers on nodes `1..=n_writers`, providers on their
/// own dedicated nodes — every page stream is a uniform remote transfer.
fn storage_deploy(n_writers: u32, n_providers: u32, cfg: BlobSeerConfig) -> (Fabric, BlobSeer) {
    let nodes = 1 + n_writers + n_providers;
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let layout = Layout {
        vm: NodeId(0),
        pm: NodeId(0),
        namespace: NodeId(0),
        meta: vec![NodeId(0)],
        providers: (1 + n_writers..nodes).map(NodeId).collect(),
        read_replicas: vec![],
    };
    let bs = BlobSeer::deploy(&fx, cfg, layout).unwrap();
    (fx, bs)
}

/// Run `n` writers (each appending `appends` one-page updates to its own
/// BLOB from its own node) against `n_providers` data providers; returns
/// the slowest writer's elapsed sim-time ns.
fn storage_write_time(n: u32, n_providers: u32, appends: u32) -> u64 {
    let (fx, bs) = storage_deploy(n, n_providers, config());
    let elapsed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..n {
        let bs2 = bs.clone();
        let t2 = elapsed.clone();
        fx.spawn(NodeId(i + 1), format!("writer{i}"), move |p| {
            let c = bs2.client();
            let blob = c.create(p, None);
            let t0 = p.now();
            for _ in 0..appends {
                c.append(p, blob, Payload::ghost(PS)).unwrap();
            }
            t2.lock().push(p.now() - t0);
        });
    }
    fx.run();
    let elapsed = elapsed.lock();
    assert_eq!(elapsed.len(), n as usize);
    elapsed.iter().copied().max().unwrap()
}

/// N writers on N disjoint providers complete in the same sim-time as one
/// writer on one provider: allocation (atomic cursor, per-provider atomic
/// books, lease splices) and the page stores themselves share no
/// serializing resource across writers.
#[test]
fn disjoint_provider_writers_are_independent() {
    let t1 = storage_write_time(1, 1, 8);
    for n in [4u32, 16] {
        let tn = storage_write_time(n, n, 8);
        assert!(
            tn as f64 <= t1 as f64 * 1.25,
            "{n} writers on {n} disjoint providers took {tn} ns vs {t1} ns for one — \
             the storage plane is serializing disjoint writers"
        );
    }
}

/// The same pin with every writer fanning into ONE provider: with
/// latency-only transfers, N-way fan-in costs the same sim-time as a single
/// writer. The sim runs one proc at a time, so no lock is ever contended
/// here and none can move this pin: it holds because the provider's costed
/// work shares no serializing resource across clients.
#[test]
fn single_provider_fanin_stays_unserialized() {
    let t1 = storage_write_time(1, 1, 8);
    for n in [4u32, 16] {
        let tn = storage_write_time(n, 1, 8);
        assert!(
            tn as f64 <= t1 as f64 * 1.25,
            "{n} writers fanning into one provider took {tn} ns vs {t1} ns for one — \
             the provider serializes concurrent clients"
        );
    }
}

/// The acceptance pin for the stranded-reservation lease: a writer dies
/// after `allocate` but before any page store. With the background reaper
/// on, its lease expires and every reservation byte returns — with **no**
/// subsequent VM or PM interaction from anyone. A second corpse whose page
/// DID land proves the reaper tells consumed reservations from stranded
/// ones.
#[test]
fn dead_writer_leaves_zero_stranded_bytes_once_lease_expires() {
    let timeout = 300 * fabric::MILLIS;
    let mut cfg = config();
    cfg.timeouts.write_timeout_ns = timeout;
    cfg.timeouts.reaper_interval_ns = 100 * fabric::MILLIS;
    let (fx, bs) = storage_deploy(2, 3, cfg);
    let reaper = bs.start_reaper(&fx);

    // Corpse 1: allocates two pages, stores nothing, dies.
    let bs1 = bs.clone();
    let w1 = fx.spawn(NodeId(1), "corpse-prestore", move |p| {
        let pm = bs1.provider_manager().clone();
        let pages = [(PageId(0xDEAD, 1), PS), (PageId(0xDEAD, 2), 137)];
        pm.allocate(p, &pages, 1, &[]).unwrap();
        // dies here: no page store, no settle
    });
    // Corpse 2: allocates one page, stores it, then dies before settling.
    let bs2 = bs.clone();
    let w2 = fx.spawn(NodeId(2), "corpse-poststore", move |p| {
        let pm = bs2.provider_manager().clone();
        let id = PageId(0xDEAD, 3);
        let (_, placements) = pm.allocate(p, &[(id, PS)], 1, &[]).unwrap();
        placements[0][0]
            .put_page(p, id, Payload::ghost(PS))
            .unwrap();
    });

    let bs3 = bs.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p| {
        w1.join(p);
        w2.join(p);
        let reserved_before: u64 = bs3
            .providers()
            .iter()
            .map(|pr| pr.load_estimate() - pr.stored_bytes())
            .sum();
        assert_eq!(
            reserved_before,
            PS + 137,
            "both corpses' unconsumed reservations are outstanding pre-expiry"
        );
        // Nothing below touches the VM or PM: only the reaper may act.
        p.sleep(2 * timeout);
        let pm = bs3.provider_manager();
        for (i, pr) in bs3.providers().iter().enumerate() {
            assert_eq!(
                pr.load_estimate(),
                pr.stored_bytes(),
                "provider {i} holds stranded reservation bytes after lease expiry"
            );
        }
        let (expired, reclaimed) = pm.lease_reap_stats();
        assert_eq!(expired, 2, "both corpses' leases expired");
        assert_eq!(
            reclaimed,
            PS + 137,
            "exactly the unlanded bytes were reclaimed (the landed page's \
             reservation was consumed by its store)"
        );
        assert_eq!(pm.outstanding_leases(), 0);
        reaper.stop();
    });
    fx.run();
    driver.take().unwrap();
}

/// The reaper's control-plane half: a writer that dies between `assign` and
/// `commit` publishes through the background sweep alone — no later
/// `assign`/`commit` on the blob needed (`latest` never reaps).
#[test]
fn reaper_publishes_dead_writers_without_vm_interaction() {
    let timeout = 300 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let mut cfg = config();
    cfg.timeouts.write_timeout_ns = timeout;
    cfg.timeouts.reaper_interval_ns = 100 * fabric::MILLIS;
    let bs = BlobSeer::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    let reaper = bs.start_reaper(&fx);
    let bs2 = bs.clone();
    let driver = fx.spawn(NodeId(1), "driver", move |p| {
        let vm = bs2.version_manager();
        let blob = vm.create_blob(p, None);
        let manifest = Arc::new(vec![PageRef {
            id: PageId(7, 0),
            byte_len: PS,
            providers: vec![NodeId(2)],
        }]);
        vm.assign(p, blob, UpdateKind::Append, PS, manifest, 0)
            .unwrap();
        // The writer "dies". Wait out the timeout without any reaping
        // interaction (snapshot/latest never piggyback a reap).
        p.sleep(2 * timeout);
        assert_eq!(
            vm.latest(p, blob).unwrap(),
            1,
            "the background reaper must have force-completed the corpse"
        );
        assert_eq!(vm.pending_count(blob), 0);
        reaper.stop();
    });
    fx.run();
    driver.take().unwrap();
}

/// A sweep that fails is counted, not dropped, and retried: a writer dies
/// between `assign` and `commit`, then every metadata server crashes, so
/// the reaper cannot write the corpse's tree. After heal the next tick
/// publishes it, and the failure count stops growing.
#[test]
fn reaper_counts_failed_sweeps_and_retries_them() {
    let timeout = 300 * fabric::MILLIS;
    let interval = 100 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let mut cfg = config();
    cfg.timeouts.write_timeout_ns = timeout;
    cfg.timeouts.reaper_interval_ns = interval;
    let bs = BlobSeer::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    let reaper = bs.start_reaper(&fx);
    let bs2 = bs.clone();
    let driver = fx.spawn(NodeId(1), "driver", move |p| {
        let vm = bs2.version_manager();
        let blob = vm.create_blob(p, None);
        let manifest = Arc::new(vec![PageRef {
            id: PageId(7, 0),
            byte_len: PS,
            providers: vec![NodeId(2)],
        }]);
        vm.assign(p, blob, UpdateKind::Append, PS, manifest, 0)
            .unwrap();
        let meta = (0..bs2.metadata_dht().servers().len()).map(FaultTarget::MetaServer);
        for target in meta.clone() {
            bs2.inject(target, Fault::Crash).unwrap();
        }
        p.sleep(2 * timeout);
        let failed = reaper.failed_sweeps();
        assert!(failed >= 1, "an expired corpse under a metadata outage");
        assert_eq!(vm.latest(p, blob).unwrap(), 0);
        assert_eq!(vm.pending_count(blob), 1, "the failed sweep kept it");

        for target in meta {
            bs2.heal(target).unwrap();
        }
        p.sleep(interval);
        assert_eq!(vm.latest(p, blob).unwrap(), 1, "the next tick publishes");
        assert_eq!(vm.pending_count(blob), 0);
        let ticks = reaper.ticks();
        p.sleep(3 * interval);
        assert_eq!(reaper.failed_sweeps(), failed, "no failure after heal");
        assert!(reaper.ticks() >= ticks + 3);
        reaper.stop();
    });
    fx.run();
    driver.take().unwrap();
}

/// Deleting a BLOB with writers mid-protocol must strand no one: a waiter
/// parked on a version that can now never publish (its predecessor's
/// writer died, then the BLOB was deleted) wakes to a typed `NoSuchBlob`
/// instead of hanging forever, and the straggler's late commit gets the
/// same typed answer.
#[test]
fn delete_blob_fails_parked_waiters_instead_of_stranding_them() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let bs = BlobSeer::deploy(&fx, config(), Layout::compact(fx.spec())).unwrap();
    let manifest = |tag: u64| {
        Arc::new(vec![PageRef {
            id: PageId(tag, 0),
            byte_len: PS,
            providers: vec![NodeId(2)],
        }])
    };
    let bs_w = bs.clone();
    let blob_cell: Arc<Mutex<Option<blobseer::BlobId>>> = Arc::new(Mutex::new(None));
    let assigned = fx.gate();
    let (b2, g2) = (blob_cell.clone(), assigned.clone());
    let mani = manifest(1);
    fx.spawn(NodeId(1), "setup", move |p| {
        let vm = bs_w.version_manager();
        let blob = vm.create_blob(p, None);
        // v1's writer dies uncommitted; v2 commits but cannot publish
        // behind it.
        vm.assign(p, blob, UpdateKind::Append, PS, mani, 0).unwrap();
        let (d2, _) = vm
            .assign(p, blob, UpdateKind::Append, PS, manifest(2), 1)
            .unwrap();
        vm.commit(p, blob, d2.version).unwrap();
        *b2.lock() = Some(blob);
        g2.set();
    });
    // A waiter parks on v2 (unpublishable until v1 resolves).
    let bs_waiter = bs.clone();
    let (b3, g3) = (blob_cell.clone(), assigned.clone());
    let waiter = fx.spawn(NodeId(2), "waiter", move |p| {
        g3.wait(p);
        let blob = b3.lock().unwrap();
        bs_waiter.version_manager().wait_published(p, blob, 2)
    });
    // The file is deleted while the waiter is parked.
    let bs_del = bs.clone();
    let (b4, g4) = (blob_cell.clone(), assigned.clone());
    fx.spawn(NodeId(3), "deleter", move |p| {
        g4.wait(p);
        p.sleep(50 * fabric::MILLIS);
        let blob = b4.lock().unwrap();
        let vm = bs_del.version_manager();
        vm.delete_blob(p, blob).unwrap();
        // The straggler's late commit answers typed, like every other verb.
        assert!(matches!(
            vm.commit(p, blob, 1),
            Err(BlobError::NoSuchBlob(_))
        ));
    });
    fx.run();
    let woken = waiter.take().unwrap();
    assert!(
        matches!(woken, Err(BlobError::NoSuchBlob(_))),
        "parked waiter must wake to NoSuchBlob on deletion, got {woken:?}"
    );
}

/// A deleted BLOB leaves the version manager's registry at once: it is
/// unreachable for every verb and its slot is gone when `delete` returns,
/// while live BLOBs are never disturbed.
#[test]
fn deleted_blob_slots_leave_the_registry_at_delete() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let bs = BlobSeer::deploy(&fx, config(), Layout::compact(fx.spec())).unwrap();
    let bs2 = bs.clone();
    let driver = fx.spawn(NodeId(1), "driver", move |p| {
        let vm = bs2.version_manager();
        let c = bs2.client();
        let keep = c.create(p, None);
        let doomed = c.create(p, None);
        c.append(p, keep, Payload::ghost(PS)).unwrap();
        c.append(p, doomed, Payload::ghost(PS)).unwrap();
        assert_eq!(vm.registry_len(), 2);

        c.delete(p, doomed).unwrap();
        // Immediately unreachable, for every verb...
        assert!(matches!(c.latest(p, doomed), Err(BlobError::NoSuchBlob(_))));
        assert!(matches!(
            c.append(p, doomed, Payload::ghost(PS)),
            Err(BlobError::NoSuchBlob(_))
        ));
        // ...and its slot is already gone.
        assert_eq!(vm.registry_len(), 1, "the slot left at delete");

        // The live BLOB never noticed; double delete is a typed error.
        assert_eq!(c.latest(p, keep).unwrap(), 1);
        assert_eq!(c.read(p, keep, None, 0, PS).unwrap().len(), PS);
        assert!(matches!(c.delete(p, doomed), Err(BlobError::NoSuchBlob(_))));
    });
    fx.run();
    driver.take().unwrap();
}

/// A storage service as the crash race below sees it: items are numbered,
/// and an item's content is a pure function of its number.
trait Plane: Send + Sync + 'static {
    fn open(dir: &Path) -> Self;
    /// Store `items` as ONE batch; one answer per item.
    fn put(&self, p: &Proc, items: &[u64]) -> Vec<BlobResult<()>>;
    /// `None` if the service does not hold `item`, else whether what it
    /// holds is exactly what was sent.
    fn intact(&self, p: &Proc, item: u64) -> Option<bool>;
    fn crash(&self);
    fn restart(&self);
    /// The service's own books: (items, bytes) it believes it holds.
    fn books(&self) -> (u64, u64);
    /// What holding `item` adds to the byte book.
    fn booked_bytes(item: u64) -> u64;
}

const HOST: NodeId = NodeId(5);

fn page_bytes(item: u64) -> Vec<u8> {
    vec![(item % 251) as u8 + 1; 48 + (item % 17) as usize]
}

impl Plane for Provider {
    fn open(dir: &Path) -> Self {
        Provider::new_persistent(HOST, dir).unwrap()
    }
    fn put(&self, p: &Proc, items: &[u64]) -> Vec<BlobResult<()>> {
        let pages = items
            .iter()
            .map(|&i| (PageId(0xACED, i), Payload::from_vec(page_bytes(i))));
        self.put_pages(p, pages.collect())
    }
    fn intact(&self, p: &Proc, item: u64) -> Option<bool> {
        match self.get_page(p, PageId(0xACED, item)) {
            Ok(data) => Some(data.bytes().as_ref() == &page_bytes(item)[..]),
            Err(BlobError::PageUnavailable { .. }) => None,
            Err(e) => panic!("page {item}: {e}"),
        }
    }
    fn crash(&self) {
        self.crash_wipe().unwrap();
    }
    fn restart(&self) {
        self.recover().unwrap();
    }
    fn books(&self) -> (u64, u64) {
        (self.stored_pages(), self.stored_bytes())
    }
    fn booked_bytes(item: u64) -> u64 {
        page_bytes(item).len() as u64
    }
}

fn node(item: u64) -> (NodeKey, NodeBody) {
    let key = NodeKey {
        blob: BlobId(7),
        version: item,
        page_lo: 0,
        page_hi: 1,
    };
    let leaf = PageRef {
        id: PageId(item, !item),
        byte_len: item,
        providers: vec![HOST],
    };
    (key, NodeBody::Leaf(leaf))
}

/// One metadata server behind its client-side view (the batch entry point).
impl Plane for MetaDht {
    fn open(dir: &Path) -> Self {
        let server = MetaServer::new_persistent(HOST, dir, pstore::StoreOptions::default());
        MetaDht::new(vec![Arc::new(server.unwrap())], 0)
    }
    fn put(&self, p: &Proc, items: &[u64]) -> Vec<BlobResult<()>> {
        // A server group lands or fails as a whole.
        let res = self.put_batch(p, items.iter().map(|&i| node(i)).collect());
        items.iter().map(|_| res.clone()).collect()
    }
    fn intact(&self, p: &Proc, item: u64) -> Option<bool> {
        let (key, body) = node(item);
        self.get(p, &key).unwrap().map(|held| held == body)
    }
    fn crash(&self) {
        self.servers()[0].crash_wipe().unwrap();
    }
    fn restart(&self) {
        self.servers()[0].recover().unwrap();
    }
    fn books(&self) -> (u64, u64) {
        (self.total_nodes() as u64, 0)
    }
    fn booked_bytes(_: u64) -> u64 {
        0
    }
}

/// The invariant the store guard exists for (`service.rs`: the guard is held
/// across a whole batch including its flush), raced on real threads: four
/// writers stream batches of eight while a fifth process kills the service
/// mid-stream and restarts it. The interleaving is forced by gates, not
/// sleeps — the crash lands only once every writer is streaming, the restart
/// only once every writer has run into the outage, and the writers resume
/// only once the restart is through.
fn acked_items_survive_a_racing_crash_restart<S: Plane>(tag: &str) {
    const WRITERS: u64 = 4;
    const WARM: u64 = 8; // batches every writer lands before the crash may
    const TAIL: u64 = 8; // batches every writer lands after the restart

    let dir = std::env::temp_dir().join(format!("blobseer-race-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fx = Fabric::live(ClusterSpec::tiny(6));
    let svc = Arc::new(S::open(&dir));
    let (streaming, outage, restarted) = (fx.gate(), fx.gate(), fx.gate());
    let (warm, stalled) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let svc = svc.clone();
            let (streaming, outage, restarted) =
                (streaming.clone(), outage.clone(), restarted.clone());
            let (warm, stalled) = (warm.clone(), stalled.clone());
            fx.spawn(NodeId(1 + w as u32), format!("writer{w}"), move |p| {
                // (item, acknowledged) for everything this writer sent.
                let mut log: Vec<(u64, bool)> = Vec::new();
                let mut batch = |k: u64| send_batch(&*svc, p, w, k, &mut log);
                // Stream until the crash hits this writer.
                let mut k = 0;
                while batch(k) {
                    k += 1;
                    if k == WARM && warm.fetch_add(1, Ordering::SeqCst) + 1 == WRITERS {
                        streaming.set();
                    }
                }
                assert!(k >= WARM, "writer {w} saw an outage before the crash");
                if stalled.fetch_add(1, Ordering::SeqCst) + 1 == WRITERS {
                    outage.set();
                }
                restarted.wait(p);
                for t in 1..=TAIL {
                    assert!(batch(k + t), "writer {w} refused after the restart");
                }
                log
            })
        })
        .collect();

    let svc2 = svc.clone();
    let crasher = fx.spawn(NodeId(0), "crasher", move |p| {
        streaming.wait(p);
        svc2.crash();
        outage.wait(p);
        svc2.restart();
        restarted.set();

        audit(p, &*svc2, writers)
    });
    fx.run();
    let (acked, refused, held) = crasher.take().unwrap();
    assert!(acked >= WRITERS * (WARM + TAIL) * BATCH);
    assert!(
        refused >= WRITERS * BATCH,
        "every writer ran into the outage"
    );
    assert_books_match_the_store(svc, &dir, held);
}

/// Items per batch in the crash races.
const BATCH: u64 = 8;

/// Writer `w` sends its `k`-th batch as ONE exchange and logs (item,
/// acknowledged) per item; `false` if the service refused any of it as down.
fn send_batch<S: Plane>(svc: &S, p: &Proc, w: u64, k: u64, log: &mut Vec<(u64, bool)>) -> bool {
    let items: Vec<u64> = (0..BATCH).map(|i| (w << 32) | (k * BATCH + i)).collect();
    let answers = svc.put(p, &items);
    assert_eq!(answers.len(), items.len());
    let mut all_acked = true;
    for (&item, answer) in items.iter().zip(answers) {
        match answer {
            Ok(()) => log.push((item, true)),
            Err(BlobError::ProviderDown { .. }) => {
                log.push((item, false));
                all_acked = false;
            }
            Err(e) => panic!("writer {w} item {item}: {e}"),
        }
    }
    all_acked
}

/// Join the writers and check every item they sent against what the service
/// serves now: nothing torn, nothing acknowledged and then lost. Returns
/// (acknowledged, refused, (items, bytes) held).
fn audit<S: Plane>(
    p: &Proc,
    svc: &S,
    writers: Vec<fabric::JoinHandle<Vec<(u64, bool)>>>,
) -> (u64, u64, (u64, u64)) {
    let (mut acked, mut refused, mut held) = (0u64, 0u64, (0u64, 0u64));
    for writer in writers {
        for (item, was_acked) in writer.join(p) {
            let intact = svc.intact(p, item);
            assert_ne!(intact, Some(false), "item {item} is torn");
            if was_acked {
                assert!(intact.is_some(), "item {item} was acknowledged, then lost");
                acked += 1;
            } else {
                refused += 1;
            }
            if intact.is_some() {
                held = (held.0 + 1, held.1 + S::booked_bytes(item));
            }
        }
    }
    (acked, refused, held)
}

/// The restarts rebuilt the books from the store's index and the batches
/// after them kept the books: they match what is held, and what a fresh
/// process over the same directory reconstructs.
fn assert_books_match_the_store<S: Plane>(svc: Arc<S>, dir: &Path, held: (u64, u64)) {
    assert_eq!(svc.books(), held, "books drifted from what is held");
    assert_eq!(Arc::strong_count(&svc), 1);
    drop(svc);
    assert_eq!(S::open(dir).books(), held, "books differ from the store");
    let _ = std::fs::remove_dir_all(dir);
}

/// The second race mode: crash and restart land back to back, with no gate
/// between them, under writers that never stop. A batch's books are bumped
/// under the same store guard as its flush (`Provider::put_pages`), so a
/// whole crash-and-restart cycle can never fit between "the index holds the
/// batch" and "the books count it" — if it could, the restart would rebuild
/// the books from an index that already holds the batch and the late bump
/// would count it twice.
fn books_survive_back_to_back_crash_restarts<S: Plane>(tag: &str) {
    const WRITERS: u64 = 4;
    const WARM: u64 = 4; // batches every writer lands before the first crash
    const CYCLES: u64 = 6;

    let dir = std::env::temp_dir().join(format!("blobseer-cycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fx = Fabric::live(ClusterSpec::tiny(6));
    let svc = Arc::new(S::open(&dir));
    let streaming = fx.gate();
    let (warm, stop) = (
        Arc::new(AtomicU64::new(0)),
        Arc::new(AtomicBool::new(false)),
    );

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (svc, streaming) = (svc.clone(), streaming.clone());
            let (warm, stop) = (warm.clone(), stop.clone());
            fx.spawn(NodeId(1 + w as u32), format!("writer{w}"), move |p| {
                let mut log: Vec<(u64, bool)> = Vec::new();
                let mut landed = 0;
                for k in 0.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if !send_batch(&*svc, p, w, k, &mut log) {
                        // Keep knocking, but do not spin the log full while
                        // the store reopens.
                        p.sleep(50 * fabric::MICROS);
                        continue;
                    }
                    landed += 1;
                    if landed == WARM && warm.fetch_add(1, Ordering::SeqCst) + 1 == WRITERS {
                        streaming.set();
                    }
                }
                log
            })
        })
        .collect();

    let svc2 = svc.clone();
    let crasher = fx.spawn(NodeId(0), "crasher", move |p| {
        streaming.wait(p);
        for _ in 0..CYCLES {
            svc2.crash();
            svc2.restart();
            // Let the writers land batches on the restarted service.
            p.sleep(2 * fabric::MILLIS);
        }
        stop.store(true, Ordering::SeqCst);
        audit(p, &*svc2, writers)
    });
    fx.run();
    let (acked, _, held) = crasher.take().unwrap();
    assert!(acked >= WRITERS * WARM * BATCH);
    assert_books_match_the_store(svc, &dir, held);
}

#[test]
fn provider_acks_survive_a_racing_crash_restart() {
    acked_items_survive_a_racing_crash_restart::<Provider>("provider");
}

#[test]
fn meta_server_acks_survive_a_racing_crash_restart() {
    acked_items_survive_a_racing_crash_restart::<MetaDht>("meta");
}

#[test]
fn provider_books_survive_back_to_back_crash_restarts() {
    books_survive_back_to_back_crash_restarts::<Provider>("provider");
}

#[test]
fn meta_server_books_survive_back_to_back_crash_restarts() {
    books_survive_back_to_back_crash_restarts::<MetaDht>("meta");
}
