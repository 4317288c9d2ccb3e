//! Crash-recovery integration tests over the durable storage plane: full
//! deployments with `persist_dir` set, `Fault::CrashRestart` injected
//! through the public fault API, and recovery audited end-to-end — books
//! balanced (`load_estimate == stored_bytes`, no stranded reservations) and
//! every published version byte-identical through a fresh client, including
//! a live-mode (real threads) provider kill/restart mid-workload. The
//! paper's BlobSeer providers persist pages in BerkeleyDB (§3.1.1); these
//! tests prove our equivalent actually comes back from disk.
//!
//! The provider manager's lease book has its rail here too: one scripted
//! scenario whose whole transcript (every provider's books, the lease book,
//! the fabric's totals) is pinned to literals.

use std::path::PathBuf;
use std::sync::Arc;

use blobseer::provider::Provider;
use blobseer::{
    BlobError, BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout, PageId, PersistenceKind,
    Version,
};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use parking_lot::Mutex;

const PS: u64 = 64;

/// Deterministic byte pattern for append `k` (never zero, so a lost page
/// of zeroes cannot masquerade as correct data).
fn block(k: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (k as u8 + 1).wrapping_add(i as u8).max(1))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blobseer-crashrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_config() -> BlobSeerConfig {
    BlobSeerConfig::test_small(PS)
        .with_replication(2)
        .with_persist_checkpoint_bytes(Some(4 * 1024))
}

/// Append `count` pattern blocks, returning `(version, total_len)` after
/// each publish — the oracle for "every published version readable".
fn publish_blocks(
    p: &Proc,
    c: &blobseer::BlobClient,
    blob: blobseer::BlobId,
    count: usize,
    len: usize,
) -> Vec<(Version, u64)> {
    let mut published = Vec::new();
    let mut total = 0u64;
    for k in 0..count {
        let v = c.append(p, blob, Payload::from_vec(block(k, len))).unwrap();
        total += len as u64;
        published.push((v, total));
    }
    published
}

/// Re-read every published version through a fresh client and compare it
/// byte-for-byte against the append oracle.
fn audit_versions(
    p: &Proc,
    bs: &BlobSeer,
    blob: blobseer::BlobId,
    published: &[(Version, u64)],
    len: usize,
) {
    let fresh = bs.client();
    for &(v, total) in published {
        let got = fresh.read(p, blob, Some(v), 0, total).unwrap();
        assert_eq!(got.len(), total, "version {v} lost bytes");
        let bytes = got.bytes();
        for (k, chunk) in bytes.chunks(len).enumerate() {
            assert_eq!(
                chunk,
                &block(k, len)[..],
                "version {v}, append {k} corrupted"
            );
        }
    }
}

/// Zero stranded capacity anywhere: every provider's load estimate equals
/// its stored bytes and the lease book is empty.
fn assert_books_balanced(bs: &BlobSeer) {
    for pr in bs.providers() {
        assert_eq!(
            pr.load_estimate(),
            pr.stored_bytes(),
            "provider {} strands reservation bytes",
            pr.node()
        );
    }
    assert_eq!(
        bs.provider_manager().outstanding_leases(),
        0,
        "lease book not empty at quiescence"
    );
}

/// A provider process dies mid-history and loses all memory; the heal
/// restarts it from its pstore directory. Reads keep working off replicas
/// while it is down, appends fail over, and after recovery the provider
/// serves exactly its pre-crash pages again.
#[test]
fn provider_crash_restart_recovers_pages_and_books() {
    let dir = scratch_dir("provider");
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let cfg = persistent_config().with_persist_dir(Some(dir.clone()));
    let bs = BlobSeer::deploy(&fx, cfg, layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        const LEN: usize = 200;
        let c = bs2.client();
        let blob = c.create(p, None);
        let mut published = publish_blocks(p, &c, blob, 4, LEN);

        let victim = &bs2.providers()[0];
        let pre_wipe = victim.stored_bytes();
        assert!(pre_wipe > 0, "least-loaded placement left provider 0 empty");

        bs2.inject(FaultTarget::Provider(0), Fault::CrashRestart)
            .unwrap();
        assert!(victim.is_wiped());
        assert_eq!(
            victim.stored_bytes(),
            0,
            "wipe must drop the in-memory index"
        );

        // Replication 2: the latest version stays readable off replicas...
        let (latest, total) = *published.last().unwrap();
        let got = c.read(p, blob, Some(latest), 0, total).unwrap();
        assert_eq!(got.len(), total);
        // ...and a new append fails over around the dead provider.
        let v = c.append(p, blob, Payload::from_vec(block(4, LEN))).unwrap();
        published.push((v, total + LEN as u64));

        bs2.heal(FaultTarget::Provider(0)).unwrap();
        assert!(!victim.is_wiped());
        assert_eq!(victim.recoveries(), 1);
        assert_eq!(
            victim.stored_bytes(),
            pre_wipe,
            "recovery must rebuild exactly the acknowledged pre-crash pages"
        );
        // Idempotent: healing a healthy service changes nothing.
        bs2.heal(FaultTarget::Provider(0)).unwrap();
        assert_eq!(victim.recoveries(), 1);

        audit_versions(p, &bs2, blob, &published, LEN);
        assert_books_balanced(&bs2);
    });
    fx.run();
    h.take().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A metadata server dies and is wiped; while it is down reads needing its
/// tree nodes fail typed (not garbage), and after the heal every historical
/// version reads byte-identically from the nodes its store kept.
#[test]
fn meta_server_crash_restart_recovers_every_version() {
    let dir = scratch_dir("meta");
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let cfg = persistent_config().with_persist_dir(Some(dir.clone()));
    let bs = BlobSeer::deploy(&fx, cfg, layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        const LEN: usize = 200;
        let c = bs2.client();
        let blob = c.create(p, None);
        let published = publish_blocks(p, &c, blob, 5, LEN);

        bs2.inject(FaultTarget::MetaServer(0), Fault::CrashRestart)
            .unwrap();
        let ms = &bs2.metadata_dht().servers()[0];
        assert!(ms.is_wiped());
        // The sole metadata server is down: a historical read cannot resolve
        // its tree and must error, never fabricate bytes.
        let (v0, l0) = published[0];
        assert!(bs2.client().read(p, blob, Some(v0), 0, l0).is_err());

        bs2.heal(FaultTarget::MetaServer(0)).unwrap();
        assert!(!ms.is_wiped());
        assert_eq!(ms.recoveries(), 1);

        audit_versions(p, &bs2, blob, &published, LEN);
        assert_books_balanced(&bs2);
    });
    fx.run();
    h.take().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What `inject` / `heal` answered, without the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Ok,
    Unsupported,
    NoSuchTarget,
}

/// Sort `res` into its [`Answer`]; a refusal's text must name the target,
/// by its fault-target name or by the node it runs on (`on n5`), and a
/// read replica's refusal must call it one.
fn answer(res: Result<(), BlobError>, target: FaultTarget, node: NodeId) -> Answer {
    let (got, text) = match res {
        Ok(()) => return Answer::Ok,
        Err(BlobError::UnsupportedFault(text)) => (Answer::Unsupported, text),
        Err(BlobError::NoSuchTarget(text)) => (Answer::NoSuchTarget, text),
        Err(e) => panic!("{target}: unexpected error {e}"),
    };
    assert!(
        text.contains(&target.to_string()) || text.contains(&format!("on {node}")),
        "{target} on {node}: refusal does not name the target: {text}"
    );
    if let (FaultTarget::ReadReplica(_), Answer::Unsupported) = (target, got) {
        assert!(
            text.contains("read replica"),
            "{target}: refusal names another service: {text}"
        );
    }
    got
}

/// The whole fault matrix, on a memory-only and on a persistent
/// deployment: every target kind × every fault answers a pinned outcome,
/// every refusal names its target, and every injection heals. Each service
/// runs on a node of its own (version manager n0, metadata servers n3–n4,
/// providers n5–n6, read replica n7), so naming a node names one target.
/// Out-of-range indices answer `NoSuchTarget` on `inject` and on `heal`;
/// healing a target that was never faulted answers `Ok`.
#[test]
fn fault_matrix_is_pinned_on_both_deployments() {
    use Answer::{NoSuchTarget, Ok as Yes, Unsupported as No};
    use Fault::{Crash, CrashRestart, Pause};
    use FaultTarget::{MetaServer, Provider, ReadReplica, Reaper, VersionManager};

    let dir = scratch_dir("matrix");
    for persistent in [false, true] {
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let layout = Layout::paper_with_meta(fx.spec(), 2).with_read_replicas_from_tail(1);
        let cfg = BlobSeerConfig::test_small(PS)
            .with_persist_dir(persistent.then(|| dir.join("deployment")));
        let bs = BlobSeer::deploy(&fx, cfg, layout).unwrap();
        let restart = if persistent { Yes } else { No };
        // (target, its node, answers to [Crash, Pause, CrashRestart])
        let matrix = [
            (Provider(0), NodeId(5), [Yes, No, restart]),
            (Provider(1), NodeId(6), [Yes, No, restart]),
            (ReadReplica(0), NodeId(7), [Yes, No, restart]),
            (MetaServer(0), NodeId(3), [Yes, No, restart]),
            (MetaServer(1), NodeId(4), [Yes, No, restart]),
            (VersionManager, NodeId(0), [No, Yes, No]),
            (Reaper, NodeId(0), [Yes, Yes, No]),
        ];
        let storage_alive = |target: FaultTarget| match target {
            Provider(i) => Some(bs.providers()[i].is_alive()),
            ReadReplica(i) => Some(bs.read_replicas()[i].is_alive()),
            MetaServer(i) => Some(bs.metadata_dht().servers()[i].is_alive()),
            VersionManager | Reaper => None,
        };
        for &(target, node, answers) in &matrix {
            assert_eq!(
                answer(bs.heal(target), target, node),
                Yes,
                "{target}: healing a never-faulted target"
            );
            for (fault, want) in [Crash, Pause, CrashRestart].into_iter().zip(answers) {
                let case = format!("{target} {fault} (persistent: {persistent})");
                assert_eq!(
                    answer(bs.inject(target, fault), target, node),
                    want,
                    "{case}"
                );
                if let Some(alive) = storage_alive(target) {
                    assert_eq!(alive, want != Yes, "{case}: liveness after inject");
                }
                assert_eq!(answer(bs.heal(target), target, node), Yes, "{case}: heal");
                assert_ne!(storage_alive(target), Some(false), "{case}: heal revives");
            }
        }
        for target in [Provider(2), ReadReplica(1), MetaServer(2), Provider(99)] {
            let node = NodeId(u32::MAX);
            for fault in [Crash, Pause, CrashRestart] {
                assert_eq!(
                    answer(bs.inject(target, fault), target, node),
                    NoSuchTarget,
                    "inject {fault} into {target}"
                );
            }
            assert_eq!(
                answer(bs.heal(target), target, node),
                NoSuchTarget,
                "heal {target}"
            );
        }
        assert!(bs.heal_all().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `create` issued while the version manager is paused stalls until the
/// heal, then resumes on the next `PAUSE_POLL_NS` (5 ms) step: paused at
/// 0, healed at 12 ms, the create passes the barrier at 15 ms and answers
/// 0.7 ms later, what a create costs on a healthy version manager.
#[test]
fn a_paused_version_manager_answers_on_the_poll_after_heal() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let bs = BlobSeer::deploy(
        &fx,
        BlobSeerConfig::test_small(PS),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    bs.inject(FaultTarget::VersionManager, Fault::Pause)
        .unwrap();
    let done: Arc<Mutex<Option<u64>>> = Arc::default();
    let (bs2, done2) = (bs.clone(), done.clone());
    fx.spawn(NodeId(1), "creator", move |p| {
        let c = bs2.client();
        c.create(p, None);
        *done2.lock() = Some(p.now());
        let healthy = p.now();
        c.create(p, None);
        assert_eq!(p.now() - healthy, 700_000);
    });
    let (bs2, done2) = (bs.clone(), done.clone());
    let h = fx.spawn(NodeId(2), "healer", move |p| {
        p.sleep(12 * fabric::MILLIS);
        assert_eq!(*done2.lock(), None, "the create answered inside the pause");
        bs2.heal(FaultTarget::VersionManager).unwrap();
    });
    fx.run();
    h.take().unwrap();
    assert_eq!(*done.lock(), Some(15_700_000));
}

/// While the reaper is paused its ticks pass without sweeping: each of
/// the twenty wakes counts as skipped, and a lease whose writer died
/// expires and stays in the book. The first tick after the heal sweeps it.
#[test]
fn a_paused_reaper_reaps_on_the_first_tick_after_heal() {
    const TICK: u64 = 100 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let mut cfg = BlobSeerConfig::test_small(PS);
    cfg.timeouts.write_timeout_ns = 10 * TICK;
    cfg.timeouts.reaper_interval_ns = TICK;
    let bs = BlobSeer::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    bs.inject(FaultTarget::Reaper, Fault::Pause).unwrap();
    let reaper = bs.start_reaper(&fx);
    let (bs2, reaper2) = (bs.clone(), reaper.clone());
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        let pm = bs2.provider_manager();
        pm.allocate(p, &[(PageId(0xDEAD, 1), PS)], 1, &[]).unwrap();
        // Twenty ticks in, ten past the lease's expiry.
        p.sleep(20 * TICK);
        assert_eq!(reaper2.ticks(), 0, "a paused reaper swept");
        assert_eq!(reaper2.skipped(), 20, "a paused reaper still wakes");
        assert_eq!(pm.outstanding_leases(), 1);
        assert_eq!(pm.lease_reap_stats(), (0, 0));
        bs2.heal(FaultTarget::Reaper).unwrap();
        p.sleep(TICK);
        assert_eq!(reaper2.ticks(), 1, "one tick since the heal");
        assert_eq!(reaper2.skipped(), 20);
        assert_eq!(pm.outstanding_leases(), 0);
        assert_eq!(pm.lease_reap_stats(), (1, PS));
        reaper2.stop();
    });
    fx.run();
    h.take().unwrap();
    assert_eq!((reaper.ticks(), reaper.skipped()), (1, 20));
}

/// The acceptance run, on the live fabric (real threads, wall-clock time):
/// kill a persistent provider mid-workload, restart it from its pstore
/// directory, and audit that the books balance and every published version
/// reads back byte-identically through a fresh client.
#[test]
fn live_mode_provider_kill_and_restart_mid_workload() {
    let dir = scratch_dir("live");
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let cfg = persistent_config().with_persist_dir(Some(dir.clone()));
    let bs = BlobSeer::deploy(&fx, cfg, layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        const LEN: usize = 500;
        const APPENDS: usize = 12;
        let c = bs2.client();
        let blob = c.create(p, None);
        let mut published = Vec::new();
        let mut total = 0u64;
        for k in 0..APPENDS {
            if k == APPENDS / 2 {
                // Mid-workload process death: the provider loses its index,
                // counters and buffered state; appends keep flowing off the
                // surviving replicas.
                bs2.inject(FaultTarget::Provider(0), Fault::CrashRestart)
                    .unwrap();
            }
            if k == 3 * APPENDS / 4 {
                // Restart from the pstore directory while the workload is
                // still running.
                bs2.heal(FaultTarget::Provider(0)).unwrap();
                assert_eq!(bs2.providers()[0].recoveries(), 1);
            }
            let v = c.append(p, blob, Payload::from_vec(block(k, LEN))).unwrap();
            total += LEN as u64;
            published.push((v, total));
        }
        audit_versions(p, &bs2, blob, &published, LEN);
        assert_books_balanced(&bs2);
    });
    fx.run();
    h.take().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart that cannot read its state back is a *failed* restart: one
/// bit flipped in a checkpoint-covered record lets the store open (the
/// checkpoint vouches for the record without re-reading it) but fails the
/// pass that reads every node record back before the server serves from
/// the store again. The server must stay wiped and down —
/// never come up alive and empty, answering `Ok(None)` for nodes it
/// acknowledged — and `heal` must return the cause instead of reviving it;
/// `heal_all` reports it by target where it used to discard it.
#[test]
fn failed_meta_restart_stays_wiped_and_down() {
    use blobseer::meta::{NodeBody, NodeKey, PageRef};

    let dir = scratch_dir("halfrecover");
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let cfg = BlobSeerConfig::test_small(PS)
        .with_persist_dir(Some(dir.clone()))
        .with_persist_checkpoint_bytes(Some(256));
    let bs = BlobSeer::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    let seg = dir.join("meta-0").join("00000000.seg");
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        let key = |v: u64| NodeKey {
            blob: blobseer::BlobId(1),
            version: v,
            page_lo: 0,
            page_hi: 1,
        };
        let leaf = |n: u64| {
            NodeBody::Leaf(PageRef {
                id: PageId(n, n),
                byte_len: 10,
                providers: vec![NodeId(0)],
            })
        };
        let dht = bs.metadata_dht();
        let ms = &dht.servers()[0];
        for v in 1..40u64 {
            dht.put(p, key(v), leaf(v)).unwrap();
        }
        assert_eq!(ms.node_count(), 39);
        ms.crash_wipe().unwrap();

        let clean = std::fs::read(&seg).unwrap();
        let mut flipped = clean.clone();
        flipped[20] ^= 1;
        std::fs::write(&seg, &flipped).unwrap();

        let is_corrupt = |r: Result<(), BlobError>| {
            matches!(
                r,
                Err(BlobError::Persistence {
                    kind: PersistenceKind::Corrupt,
                    ..
                })
            )
        };
        assert!(is_corrupt(ms.recover().map(drop)));
        assert!(
            ms.is_wiped(),
            "a failed restart must leave the server wiped"
        );
        assert!(
            !ms.is_alive(),
            "a failed restart must leave the server down"
        );
        assert_eq!(ms.recoveries(), 0);
        assert!(
            is_corrupt(bs.heal(FaultTarget::MetaServer(0))),
            "heal must return the restart's error"
        );
        assert!(ms.is_wiped() && !ms.is_alive(), "heal must not revive it");
        let unhealed = bs.heal_all();
        assert_eq!(unhealed.len(), 1, "every other target heals as a no-op");
        let (target, cause) = &unhealed[0];
        assert_eq!(target.to_string(), "meta-server[0]");
        assert!(is_corrupt(Err(cause.clone())));
        assert!(cause
            .to_string()
            .starts_with("persistence layer (corrupt) at "));
        assert!(matches!(
            dht.get(p, &key(1)),
            Err(BlobError::ProviderDown { .. })
        ));

        std::fs::write(&seg, &clean).unwrap();
        assert_eq!(bs.heal_all(), vec![]);
        assert!(!ms.is_wiped() && ms.is_alive());
        assert_eq!(ms.recoveries(), 1);
        assert_eq!(ms.node_count(), 39);
        for v in 1..40u64 {
            assert_eq!(dht.get(p, &key(v)).unwrap(), Some(leaf(v)));
        }
    });
    fx.run();
    h.take().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A redeploy over a directory starts with an empty lease book: every
/// lease of the old deployment belonged to a writer that died with it, and
/// the providers reopen with no reservations, so nothing is re-reserved and
/// every provider's load is its stored bytes. The provider manager keeps no
/// store, so no `pm/` appears under the directory.
#[test]
fn a_redeploy_starts_clean() {
    let dir = scratch_dir("redeploy");
    let cfg = BlobSeerConfig::test_small(PS).with_persist_dir(Some(dir.clone()));
    let deploy = |cfg: &BlobSeerConfig| {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let bs = BlobSeer::deploy(&fx, cfg.clone(), Layout::compact(fx.spec())).unwrap();
        (fx, bs)
    };
    let (fx, bs) = deploy(&cfg);
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        // Twelve writers allocate and die.
        for i in 0..12u64 {
            bs2.provider_manager()
                .allocate(p, &[(PageId(0xC0, i), PS)], 1, &[])
                .unwrap();
        }
        assert_eq!(bs2.provider_manager().outstanding_leases(), 12);
    });
    fx.run();
    h.take().unwrap();
    drop(bs);

    let (_fx, bs) = deploy(&cfg);
    assert_eq!(bs.provider_manager().outstanding_leases(), 0);
    for pr in bs.providers() {
        assert_eq!(
            pr.load_estimate(),
            pr.stored_bytes(),
            "provider {} carries a dead writer's reservation",
            pr.node()
        );
    }
    assert!(
        !dir.join("pm").exists(),
        "the provider manager opened a store"
    );
    drop(bs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One line of the lease rail: virtual time, what happened, then every
/// provider's `load_estimate/stored_bytes`, the lease book and the fabric's
/// transfer count.
fn lease_line(bs: &BlobSeer, p: &Proc, what: impl std::fmt::Display) -> String {
    let pm = bs.provider_manager();
    let books: Vec<String> = bs
        .providers()
        .iter()
        .map(|pr| format!("{}/{}", pr.load_estimate(), pr.stored_bytes()))
        .collect();
    let st = p.fabric().stats();
    format!(
        "{:>11} {what} | books [{}] leases {} reaped {:?}, {} transfers",
        st.now_ns,
        books.join(" "),
        pm.outstanding_leases(),
        pm.lease_reap_stats(),
        st.transfers
    )
}

/// The rail under the lease book: one scripted scenario on a persistent
/// deployment, every observable pinned to a literal. Recorded before the
/// book's representation was touched; a change that moves any line of the
/// transcript changed what the provider manager does, not just its code.
///
/// 1. three leases (A: two pages × two replicas, B: one page, C: two
///    pages); pages land, one of A's replicas is released (twice: the
///    second finds no token), A settles;
/// 2. the 30 s write timeout passes: B and C expire and the reaper hands
///    back what never landed; C's writer resurrects (its release and settle
///    are no-ops), B's fails over and `adopt`s a page under its expired id;
/// 3. the provider holding B's adopted page crash-restarts and is healed,
///    which reinstates the reservation; a fourth lease D lands half;
/// 4. a fresh deployment over the same directory starts with an empty lease
///    book: B's and D's writers died with the old deployment, so nothing is
///    re-reserved, ids restart at `LeaseId(1)`, lease E is placed by the
///    providers' stored bytes alone, and the reap finds nothing to reclaim.
#[test]
fn scripted_lease_scenario_is_pinned_to_literals() {
    // Past the default 30 s write timeout (= lease lifetime).
    const EXPIRE: u64 = 31_000 * fabric::MILLIS;
    let pg = |i: u64| PageId(0x1EA5E, i);
    let dir = scratch_dir("lease-rail");
    let cfg = BlobSeerConfig::test_small(PS).with_persist_dir(Some(dir.clone()));
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let fx = Fabric::sim_seeded(ClusterSpec::tiny(4), 0x5EED_0025);
    let bs = BlobSeer::deploy(&fx, cfg.clone(), Layout::compact(fx.spec())).unwrap();
    let (bs2, log2) = (bs.clone(), log.clone());
    let h = fx.spawn(NodeId(1), "script", move |p| {
        let (bs, pm) = (&bs2, bs2.provider_manager());
        let note = |what: String| log2.lock().push(lease_line(bs, p, what));
        let land = |pr: &Arc<Provider>, page: PageId, len: u64| {
            pr.put_page(p, page, Payload::from_vec(vec![7u8; len as usize]))
                .unwrap();
        };
        let nodes = |placed: &[Vec<Arc<Provider>>]| -> Vec<Vec<u32>> {
            placed
                .iter()
                .map(|r| r.iter().map(|pr| pr.node().0).collect())
                .collect()
        };
        note("deployed".into());

        // 1.
        let (a, pa) = pm.allocate(p, &[(pg(1), 64), (pg(2), 40)], 2, &[]).unwrap();
        note(format!("A = {a:?} on {:?}", nodes(&pa)));
        let (b, pb) = pm.allocate(p, &[(pg(3), 64)], 1, &[]).unwrap();
        note(format!("B = {b:?} on {:?}", nodes(&pb)));
        let (c, pc) = pm.allocate(p, &[(pg(4), 64), (pg(5), 24)], 1, &[]).unwrap();
        note(format!("C = {c:?} on {:?}", nodes(&pc)));
        land(&pa[0][0], pg(1), 64);
        land(&pa[0][1], pg(1), 64);
        land(&pa[1][0], pg(2), 40);
        land(&pb[0][0], pg(3), 64);
        land(&pc[0][0], pg(4), 64);
        note("landed all but one replica of pg2 and pg5".into());
        pm.release(p, a, &pa[1][1], pg(2), 40);
        note("A released pg2's second replica".into());
        pm.release(p, a, &pa[1][1], pg(2), 40);
        note("A released it again".into());
        pm.settle(p, a);
        note("A settled".into());

        // 2.
        p.sleep(EXPIRE);
        let reclaimed = pm.reap_expired_leases(p);
        note(format!("reap reclaimed {reclaimed} B"));
        pm.release(p, c, &pc[1][0], pg(5), 24);
        pm.settle(p, c);
        note("C's late release and settle".into());
        let (victim, target) = bs
            .providers()
            .iter()
            .enumerate()
            .find(|(_, pr)| pr.node() != pb[0][0].node() && pr.node() != pc[1][0].node())
            .unwrap();
        pm.adopt(p, b, target, pg(6), 48);
        note(format!(
            "B adopted pg6 on n{} after expiry",
            target.node().0
        ));

        // 3.
        bs.inject(FaultTarget::Provider(victim), Fault::CrashRestart)
            .unwrap();
        note(format!("provider[{victim}] crash-wiped"));
        bs.heal(FaultTarget::Provider(victim)).unwrap();
        note(format!("provider[{victim}] healed"));
        let (d, pd) = pm.allocate(p, &[(pg(7), 64), (pg(8), 32)], 1, &[]).unwrap();
        land(&pd[0][0], pg(7), 64);
        note(format!("D = {d:?} on {:?}, pg7 landed", nodes(&pd)));
    });
    fx.run();
    h.take().unwrap();
    drop(bs);

    // 4.
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(4), 0x5EED_0025);
    let bs = BlobSeer::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    let (bs2, log2) = (bs.clone(), log.clone());
    let h = fx.spawn(NodeId(1), "reopened", move |p| {
        let (bs, pm) = (&bs2, bs2.provider_manager());
        let note = |what: String| log2.lock().push(lease_line(bs, p, what));
        note("fresh manager over the same directory".into());
        let (e, pe) = pm.allocate(p, &[(pg(9), 16)], 1, &[]).unwrap();
        note(format!(
            "first lease after the restart: {e:?} on n{}",
            pe[0][0].node().0
        ));
        pe[0][0]
            .put_page(p, pg(9), Payload::from_vec(vec![9u8; 16]))
            .unwrap();
        pm.settle(p, e);
        note("E landed and settled".into());
        p.sleep(EXPIRE);
        let reclaimed = pm.reap_expired_leases(p);
        note(format!("reap reclaimed {reclaimed} B"));
    });
    fx.run();
    h.take().unwrap();
    drop(bs);
    let _ = std::fs::remove_dir_all(&dir);

    let got = log.lock().clone();
    #[rustfmt::skip]
    let want: &[&str] = &[
        "          0 deployed | books [0/0 0/0 0/0 0/0] leases 0 reaped (0, 0), 0 transfers",
        "     200000 A = LeaseId(1) on [[0, 2], [1, 3]] | books [64/0 40/0 64/0 40/0] leases 1 reaped (0, 0), 2 transfers",
        "     400000 B = LeaseId(2) on [[1]] | books [64/0 104/0 64/0 40/0] leases 2 reaped (0, 0), 4 transfers",
        "     600000 C = LeaseId(3) on [[3], [0]] | books [88/0 104/0 64/0 104/0] leases 3 reaped (0, 0), 6 transfers",
        "     900740 landed all but one replica of pg2 and pg5 | books [88/64 104/104 64/64 104/64] leases 3 reaped (0, 0), 11 transfers",
        "    1100740 A released pg2's second replica | books [88/64 104/104 64/64 64/64] leases 3 reaped (0, 0), 13 transfers",
        "    1300740 A released it again | books [88/64 104/104 64/64 64/64] leases 3 reaped (0, 0), 15 transfers",
        "    1500740 A settled | books [88/64 104/104 64/64 64/64] leases 2 reaped (0, 0), 17 transfers",
        "31001900740 reap reclaimed 24 B | books [64/64 104/104 64/64 64/64] leases 0 reaped (2, 24), 21 transfers",
        "31002300740 C's late release and settle | books [64/64 104/104 64/64 64/64] leases 0 reaped (2, 24), 25 transfers",
        "31002500740 B adopted pg6 on n2 after expiry | books [64/64 104/104 112/64 64/64] leases 1 reaped (2, 24), 27 transfers",
        "31002500740 provider[2] crash-wiped | books [64/64 104/104 0/0 64/64] leases 1 reaped (2, 24), 27 transfers",
        "31002500740 provider[2] healed | books [64/64 104/104 112/64 64/64] leases 1 reaped (2, 24), 27 transfers",
        "31002800900 D = LeaseId(4) on [[0], [3]], pg7 landed | books [128/128 104/104 112/64 96/64] leases 2 reaped (2, 24), 30 transfers",
        "          0 fresh manager over the same directory | books [128/128 104/104 64/64 64/64] leases 0 reaped (0, 0), 0 transfers",
        "     200000 first lease after the restart: LeaseId(1) on n2 | books [128/128 104/104 80/64 64/64] leases 1 reaped (0, 0), 2 transfers",
        "     500040 E landed and settled | books [128/128 104/104 80/80 64/64] leases 0 reaped (0, 0), 5 transfers",
        "31000500040 reap reclaimed 0 B | books [128/128 104/104 80/80 64/64] leases 0 reaped (0, 0), 5 transfers",
    ];
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got, want, "transcript line {i}");
    }
    assert_eq!(got.len(), want.len(), "transcript length");
}
