//! Stress tests for the desc-index memory bound (ROADMAP item): persistent
//! index snapshots are pinned per pending write, so thousands of concurrent
//! pending writers must cost O(pending × tree depth) retained nodes — the
//! structural sharing of the persistent tree — never O(pending × pages),
//! and everything pinned must drop the moment the versions publish. The
//! mass-reap test additionally holds the provider reservation books to
//! zero outstanding after a horde of dead writers is force-completed.

use std::sync::Arc;

use blobseer::dht::{MetaDht, MetaServer};
use blobseer::meta::{collect_leaves, NodeKey, PageRef};
use blobseer::provider::Provider;
use blobseer::provider_manager::ProviderManager;
use blobseer::version_manager::{UpdateKind, VersionManager};
use blobseer::PageId;
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};

const PS: u64 = 1024;

fn vm_only(timeout_ns: u64) -> Arc<VersionManager> {
    let dht = Arc::new(MetaDht::new(vec![Arc::new(MetaServer::new(NodeId(1)))], 0));
    Arc::new(VersionManager::new(NodeId(0), dht, PS, 0, timeout_ns))
}

fn one_page_manifest(tag: u64) -> Arc<Vec<PageRef>> {
    Arc::new(vec![PageRef {
        id: PageId(tag, 0),
        byte_len: PS,
        providers: vec![NodeId(2)],
    }])
}

/// Thousands of pending single-page appends on ONE blob: the retained index
/// nodes stay proportional to pending × tree depth (structural sharing),
/// nowhere near the pending × pages a copying implementation would pay, and
/// the whole overhang drops to one live tree the moment everything
/// publishes — including the pinned manifests.
#[test]
fn one_blob_thousand_pending_writers_bounded_retention() {
    const W: u64 = 2_000;
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let vm = vm_only(u64::MAX); // no reaping: keep every write pending
    let vm2 = vm.clone();
    let h = fx.spawn(NodeId(3), "horde", move |p| {
        let blob = vm2.create_blob(p, None);
        let held = one_page_manifest(0);
        for w in 0..W {
            let m = if w == 0 {
                held.clone()
            } else {
                one_page_manifest(w)
            };
            vm2.assign(p, blob, UpdateKind::Append, PS, m, w).unwrap();
        }
        let (pending, nodes) = vm2.pending_footprint(blob);
        assert_eq!(pending, W as usize);
        // Tree span for 2 000 pages is 2 048 (depth 12): each pending
        // snapshot pins one fresh root-to-leaf path and shares the rest.
        // Naive per-snapshot copies would retain ~W × 4 095 ≈ 8 M nodes.
        let bound = (W as usize) * 20;
        assert!(
            nodes <= bound,
            "{W} pending writers retain {nodes} index nodes; \
             proportional bound is {bound} (a copying index would need ~8M)"
        );

        // Publish everything, in order.
        for v in 1..=W {
            vm2.commit(p, blob, v).unwrap();
        }
        let (pending, nodes) = vm2.pending_footprint(blob);
        assert_eq!(pending, 0, "nothing pending after full publication");
        assert!(
            nodes <= 4_096,
            "after publication only the live tree remains, got {nodes} nodes"
        );
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "published writes must drop their pinned manifests"
        );
        assert_eq!(vm2.latest(p, blob).unwrap(), W);
    });
    fx.run();
    h.take().unwrap();
}

/// The same pressure spread over many blobs: every blob's retention obeys
/// its own proportional bound (the registry shards state — no cross-blob
/// accumulation), and publication collapses each independently.
#[test]
fn many_blobs_pending_writers_bounded_retention() {
    const BLOBS: u64 = 64;
    const W: u64 = 32; // pending writers per blob
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let vm = vm_only(u64::MAX);
    let vm2 = vm.clone();
    let h = fx.spawn(NodeId(3), "horde", move |p| {
        let blobs: Vec<_> = (0..BLOBS).map(|_| vm2.create_blob(p, None)).collect();
        for w in 0..W {
            for (i, &blob) in blobs.iter().enumerate() {
                let m = one_page_manifest(w * BLOBS + i as u64);
                vm2.assign(p, blob, UpdateKind::Append, PS, m, w).unwrap();
            }
        }
        let mut total_nodes = 0usize;
        for &blob in &blobs {
            let (pending, nodes) = vm2.pending_footprint(blob);
            assert_eq!(pending, W as usize);
            // span(32 pages) = 32, depth 6: a generous per-path constant.
            assert!(
                nodes <= (W as usize) * 12,
                "blob retains {nodes} nodes for {W} pending writers"
            );
            total_nodes += nodes;
        }
        assert!(
            total_nodes <= (BLOBS * W) as usize * 12,
            "aggregate retention {total_nodes} exceeds the proportional bound"
        );
        for &blob in &blobs {
            for v in 1..=W {
                vm2.commit(p, blob, v).unwrap();
            }
            let (pending, nodes) = vm2.pending_footprint(blob);
            assert_eq!(pending, 0);
            assert!(nodes <= 2 * 32, "post-publication blob keeps {nodes} nodes");
        }
    });
    fx.run();
    h.take().unwrap();
}

/// A horde of writers stores real pages, gets versions assigned, and dies
/// before step 3. After the mass reap: every version published, the
/// force-completed metadata fully readable from the DHT, and the provider
/// reservation books balanced — reservations were consumed by the page
/// stores and nothing stays stranded.
#[test]
fn provider_books_balance_after_mass_reap() {
    const WRITERS: u64 = 40;
    const BLOBS: usize = 8;
    let timeout = 500 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let providers: Vec<Arc<Provider>> = (2..6)
        .map(|i| Arc::new(Provider::new_mem(NodeId(i))))
        .collect();
    let pm = Arc::new(ProviderManager::new(NodeId(1), providers.clone(), timeout));
    let dht = Arc::new(MetaDht::new(vec![Arc::new(MetaServer::new(NodeId(1)))], 0));
    let vm = Arc::new(VersionManager::new(NodeId(0), dht.clone(), PS, 0, timeout));
    let vm2 = vm.clone();
    let provs = providers.clone();
    let h = fx.spawn(NodeId(7), "driver", move |p| {
        let blobs: Vec<_> = (0..BLOBS).map(|_| vm2.create_blob(p, None)).collect();
        for w in 0..WRITERS {
            let blob = blobs[w as usize % BLOBS];
            // Step 1: store the page for real (consumes the reservation)...
            let id = PageId(0xDEAD, w);
            let (_, placements) = pm.allocate(p, &[(id, PS)], 1, &[]).unwrap();
            let target = placements[0][0].clone();
            target.put_page(p, id, Payload::ghost(PS)).unwrap();
            // ...step 2: get a version assigned...
            let manifest = Arc::new(vec![PageRef {
                id,
                byte_len: PS,
                providers: vec![target.node()],
            }]);
            vm2.assign(p, blob, UpdateKind::Append, PS, manifest, 0)
                .unwrap();
            // ...and die before steps 3/4.
        }
        p.sleep(2 * timeout);
        for &blob in &blobs {
            vm2.reap_expired(p, blob).unwrap();
            let per_blob = WRITERS / BLOBS as u64;
            assert_eq!(vm2.latest(p, blob).unwrap(), per_blob);
            assert_eq!(vm2.pending_count(blob), 0);
            // The force-completed metadata answers a full-range read.
            let snap = vm2.snapshot(p, blob, None).unwrap();
            let fetch_proc: &Proc = p;
            let mut fetch = |keys: &[NodeKey]| dht.get_batch(fetch_proc, keys);
            let hits = collect_leaves(&mut fetch, blob, &snap, 0, snap.total_bytes).unwrap();
            assert_eq!(hits.len() as u64, snap.total_pages);
        }
        // Books: every reservation was either consumed by its page store or
        // released; nothing is stranded after the mass reap.
        let mut stored_total = 0u64;
        for pr in &provs {
            assert_eq!(
                pr.load_estimate(),
                pr.stored_bytes(),
                "provider {} holds stranded reservations",
                pr.node()
            );
            stored_total += pr.stored_bytes();
        }
        assert_eq!(
            stored_total,
            WRITERS * PS,
            "every dead writer's page landed once"
        );
    });
    fx.run();
    h.take().unwrap();
}
