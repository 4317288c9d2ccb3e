//! Integration suite for the snapshot-scoped read cache and the dedicated
//! read-replica tier: bounded client memory under blob churn, hit/miss
//! accounting, the published-only feeding rule, replica preference for
//! published reads, and per-page failover around dead or stale replicas.

use blobseer::{BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

const PS: u64 = 64;

fn pattern(len: u64, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 253) as u8))
        .collect()
}

/// Churning through 10 000 blobs must leave every client-side cache at its
/// configured bound: the per-blob views (descriptor index, page size,
/// published floor) at their entry cap, the page/leaf cache at its byte cap — client memory is flat in the
/// number of blobs ever touched, not proportional to it.
#[test]
fn client_memory_stays_bounded_over_10k_blob_churn() {
    const INDEX_CAP: u64 = 128;
    const CACHE_BYTES: u64 = 64 * 1024;
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let config = BlobSeerConfig::test_small(PS)
        .with_client_index_cache_entries(INDEX_CAP)
        .with_read_cache_bytes(CACHE_BYTES);
    let bs = BlobSeer::deploy(&fx, config, Layout::compact(fx.spec())).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "churner", move |p| {
        let c = bs2.client();
        for i in 0..10_000u64 {
            let blob = c.create(p, None);
            c.append(p, blob, Payload::from_vec(vec![i as u8; 16]))
                .unwrap();
            c.read(p, blob, None, 0, 16).unwrap();
        }
        let views = c.index_cache_entries();
        assert!(
            views as u64 <= INDEX_CAP,
            "per-blob view cache (descriptor index, page size, published \
             floor) holds {views} entries, cap is {INDEX_CAP}"
        );
        let stats = c.cache_stats();
        assert!(
            stats.resident_bytes <= CACHE_BYTES,
            "read cache holds {} bytes, cap is {CACHE_BYTES}",
            stats.resident_bytes
        );
        assert!(
            stats.evictions > 0,
            "a 10k-blob churn over a {CACHE_BYTES}-byte cache must evict"
        );
    });
    fx.run();
    h.take().unwrap();
}

/// A warm re-read of a published version is answered entirely from the
/// client cache: zero provider get RPCs, zero metadata-DHT get RPCs, and
/// the hit counters account for every page and leaf.
#[test]
fn warm_published_reads_touch_no_services() {
    let fx = Fabric::sim(ClusterSpec::tiny(6));
    let bs = BlobSeer::deploy(
        &fx,
        BlobSeerConfig::test_small(PS),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "reader", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data = pattern(8 * PS, 3);
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();

        let provider_gets = |bs: &BlobSeer| {
            bs.providers()
                .iter()
                .map(|pr| pr.rpc_counts().1)
                .sum::<u64>()
        };
        let dht_gets = |bs: &BlobSeer| {
            bs.metadata_dht()
                .servers()
                .iter()
                .map(|s| s.rpc_counts().1)
                .sum::<u64>()
        };

        // Cold read: fills the cache from the fabric.
        let got = c.read(p, blob, None, 0, 8 * PS).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        let (pg, dg) = (provider_gets(&bs2), dht_gets(&bs2));

        // Warm read: byte-identical, and not a single get RPC anywhere.
        let got = c.read(p, blob, None, 0, 8 * PS).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        assert_eq!(
            provider_gets(&bs2),
            pg,
            "warm read must not fetch pages from providers"
        );
        assert_eq!(
            dht_gets(&bs2),
            dg,
            "warm read must not fetch leaves from the metadata DHT"
        );

        let stats = c.cache_stats();
        assert_eq!(stats.page_hits, 8, "every page of the warm read hit");
        assert_eq!(stats.page_misses, 8, "every page of the cold read missed");
        assert!((stats.page_hit_rate() - 0.5).abs() < 1e-9);
        assert!(stats.leaf_hits >= 8, "warm read leaves served from cache");
    });
    fx.run();
    h.take().unwrap();
}

/// The cache is fed only by reads of published versions — the write path
/// never inserts (a pending version's tree can still be rewritten by a
/// write-timeout force-complete, so write-side caching would be unsound).
#[test]
fn cache_is_fed_only_by_published_reads() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let bs = BlobSeer::deploy(
        &fx,
        BlobSeerConfig::test_small(PS),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "writer", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        for k in 0..4u8 {
            c.append(p, blob, Payload::from_vec(pattern(2 * PS, k)))
                .unwrap();
        }
        let stats = c.cache_stats();
        assert_eq!(stats.insertions, 0, "writes must never feed the cache");
        assert_eq!(stats.resident_entries, 0);

        c.read(p, blob, None, 0, 8 * PS).unwrap();
        let stats = c.cache_stats();
        assert!(
            stats.insertions > 0,
            "a published read must populate the cache"
        );
    });
    fx.run();
    h.take().unwrap();
}

/// With a synced replica tier, published reads are served by the replicas
/// (zero primary get traffic); with every replica dead they fail over to
/// the primaries and still return the right bytes.
#[test]
fn published_reads_prefer_replicas_and_fail_over() {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let layout = Layout::compact(fx.spec()).with_read_replicas_from_tail(2);
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(PS), layout).unwrap();
    let bs2 = bs.clone();
    // Node 7 hosts a replica but no primary, so no read short-circuits to a
    // local primary.
    let h = fx.spawn(NodeId(7), "reader", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data = pattern(8 * PS, 7);
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        let (pages, bytes) = bs2.sync_read_replicas(p);
        assert!(pages >= 8, "sync copied {pages} pages, expected the blob");
        assert!(bytes >= 8 * PS);

        let prim_gets = |bs: &BlobSeer| {
            bs.providers()
                .iter()
                .map(|pr| pr.op_counts().1)
                .sum::<u64>()
        };
        let rep_gets = |bs: &BlobSeer| {
            bs.read_replicas()
                .iter()
                .map(|r| r.op_counts().1)
                .sum::<u64>()
        };

        // Sync itself reads from primaries; baseline after it.
        let (p0, r0) = (prim_gets(&bs2), rep_gets(&bs2));
        let reader = bs2.uncached_client();
        let got = reader.read(p, blob, None, 0, 8 * PS).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        let (p1, r1) = (prim_gets(&bs2), rep_gets(&bs2));
        assert_eq!(p1, p0, "replica-tier read must not touch primaries");
        assert!(r1 > r0, "replica tier served no pages");

        // Both replicas dead: reads fail over to the primaries.
        bs2.inject(FaultTarget::ReadReplica(0), Fault::Crash)
            .unwrap();
        bs2.inject(FaultTarget::ReadReplica(1), Fault::Crash)
            .unwrap();
        let reader = bs2.uncached_client();
        let got = reader.read(p, blob, None, 0, 8 * PS).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        let (p2, r2) = (prim_gets(&bs2), rep_gets(&bs2));
        assert!(p2 > p1, "failover read must come from primaries");
        assert_eq!(r2, r1, "dead replicas must serve nothing");
        bs2.heal(FaultTarget::ReadReplica(0)).unwrap();
        bs2.heal(FaultTarget::ReadReplica(1)).unwrap();

        // A version the replicas have not synced yet is served by the
        // primaries page-by-page (`has_page` gate) — never wrongly by a
        // stale replica.
        let data2 = pattern(4 * PS, 9);
        c.append(p, blob, Payload::from_vec(data2.clone())).unwrap();
        let reader = bs2.uncached_client();
        let got = reader.read(p, blob, None, 0, 12 * PS).unwrap();
        assert_eq!(&got.bytes()[..8 * PS as usize], &data[..]);
        assert_eq!(&got.bytes()[8 * PS as usize..], &data2[..]);

        // After the next sync round the new version is replica-served too.
        bs2.sync_read_replicas(p);
        let (p3, _) = (prim_gets(&bs2), rep_gets(&bs2));
        let reader = bs2.uncached_client();
        let got = reader.read(p, blob, None, 0, 12 * PS).unwrap();
        assert_eq!(&got.bytes()[8 * PS as usize..], &data2[..]);
        assert_eq!(
            p3,
            prim_gets(&bs2),
            "resynced tier serves without primaries"
        );
    });
    fx.run();
    h.take().unwrap();
}

/// A crash-wiped replica recovers its durable pages on heal, is skipped
/// while down, and pages published after the wipe reach it on the next
/// sync round — reads stay byte-correct throughout.
#[test]
fn crash_restarted_replica_recovers_and_resyncs() {
    let dir = std::env::temp_dir().join(format!("blobseer-replica-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let layout = Layout::compact(fx.spec()).with_read_replicas_from_tail(2);
    let config = BlobSeerConfig::test_small(PS).with_persist_dir(Some(dir.clone()));
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(7), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let v1 = pattern(4 * PS, 11);
        c.append(p, blob, Payload::from_vec(v1.clone())).unwrap();
        bs2.sync_read_replicas(p);

        bs2.inject(FaultTarget::ReadReplica(0), Fault::CrashRestart)
            .unwrap();
        // Published while replica 0 is down-and-wiped.
        let v2 = pattern(3 * PS, 13);
        c.append(p, blob, Payload::from_vec(v2.clone())).unwrap();
        let reader = bs2.uncached_client();
        let got = reader.read(p, blob, None, 0, 7 * PS).unwrap();
        assert_eq!(&got.bytes()[..4 * PS as usize], &v1[..]);
        assert_eq!(&got.bytes()[4 * PS as usize..], &v2[..]);

        // Heal restores the durable pages; the books must balance and the
        // missed pages arrive with the next sync round.
        bs2.heal(FaultTarget::ReadReplica(0)).unwrap();
        let rep = &bs2.read_replicas()[0];
        assert_eq!(rep.load_estimate(), rep.stored_bytes());
        bs2.sync_read_replicas(p);
        let reader = bs2.uncached_client();
        let prim_before: u64 = bs2.providers().iter().map(|pr| pr.op_counts().1).sum();
        let got = reader.read(p, blob, None, 0, 7 * PS).unwrap();
        assert_eq!(&got.bytes()[4 * PS as usize..], &v2[..]);
        let prim_after: u64 = bs2.providers().iter().map(|pr| pr.op_counts().1).sum();
        assert_eq!(
            prim_after, prim_before,
            "resynced replica tier must serve the whole read"
        );
    });
    fx.run();
    h.take().unwrap();
    drop(bs);
    let _ = std::fs::remove_dir_all(&dir);
}
