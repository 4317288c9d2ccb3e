//! Crash-recovery integration tests over the durable storage plane: full
//! deployments with `persist_dir` set, `Fault::CrashRestart` injected
//! through the public fault API, and recovery audited end-to-end — books
//! balanced (`load_estimate == stored_bytes`, no stranded reservations) and
//! every published version byte-identical through a fresh client, including
//! a live-mode (real threads) provider kill/restart mid-workload. The
//! paper's BlobSeer providers persist pages in BerkeleyDB (§3.1.1); these
//! tests prove our equivalent actually comes back from disk.

use std::path::PathBuf;

use blobseer::{BlobError, BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout, Version};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};

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

/// A metadata server dies and loses its stripes; while it is down reads
/// needing its tree nodes fail typed (not garbage), and after the heal every
/// historical version walks the rebuilt tree byte-identically.
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

/// On a memory-only deployment there is no disk to come back from:
/// `CrashRestart` answers a typed `UnsupportedFault` on every target, and
/// it is never supported on the version manager or reaper.
#[test]
fn memory_deployment_rejects_crash_restart() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(PS), layout).unwrap();
    for target in [
        FaultTarget::Provider(0),
        FaultTarget::MetaServer(0),
        FaultTarget::VersionManager,
        FaultTarget::Reaper,
    ] {
        assert!(
            matches!(
                bs.inject(target, Fault::CrashRestart),
                Err(BlobError::UnsupportedFault { .. })
            ),
            "{target} accepted CrashRestart on a memory-only deployment"
        );
    }
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

/// A restart that cannot rebuild its state is a *failed* restart: one bit
/// flipped in a checkpoint-covered record lets the store open (the
/// checkpoint vouches for the record without re-reading it) but fails the
/// scan that reloads the node map. The server must stay wiped and down —
/// never come up alive and empty, answering `Ok(None)` for nodes it
/// acknowledged — and `heal` must return the cause instead of reviving it;
/// `heal_all` reports it by target where it used to discard it.
#[test]
fn failed_meta_restart_stays_wiped_and_down() {
    use blobseer::meta::{NodeBody, NodeKey, PageRef};
    use blobseer::{PageId, PersistenceKind};

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
