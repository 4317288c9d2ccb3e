//! Op-count regression tests for the *data* plane, the mirror of
//! `metadata_ops.rs`: pin the grouped-by-provider page transfers and the
//! index-backed locality API with `Provider::op_counts`/`rpc_counts` and
//! `MetaServer` counters, so a page-at-a-time RPC loop or a reintroduced
//! DHT tree walk fails tier-1 tests instead of only bending bench curves.

use blobseer::{BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

const PS: u64 = 64;

fn deploy(nodes: u32, config: BlobSeerConfig) -> (Fabric, BlobSeer) {
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let layout = Layout::compact(fx.spec());
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    (fx, bs)
}

fn meta_layout(fx: &Fabric, n_meta: u32) -> Layout {
    Layout {
        vm: NodeId(0),
        pm: NodeId(0),
        namespace: NodeId(0),
        meta: (0..n_meta).map(NodeId).collect(),
        providers: fx.spec().all_nodes().collect(),
        read_replicas: vec![],
    }
}

fn provider_counts(bs: &BlobSeer) -> (u64, u64, u64, u64) {
    bs.providers().iter().fold((0, 0, 0, 0), |acc, pr| {
        let (po, go) = pr.op_counts();
        let (pr_, gr) = pr.rpc_counts();
        (acc.0 + po, acc.1 + go, acc.2 + pr_, acc.3 + gr)
    })
}

/// A read of K pages resident on S providers issues at most S data-plane
/// RPCs (one batched get_pages per provider), never one per page.
#[test]
fn read_of_k_pages_costs_at_most_s_rpcs() {
    const K: u64 = 32;
    let (fx, bs) = deploy(4, BlobSeerConfig::test_small(PS));
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "reader", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        c.append(p, blob, Payload::ghost(K * PS)).unwrap();
        let (_, go0, _, gr0) = provider_counts(&bs2);
        let got = c.read(p, blob, None, 0, K * PS).unwrap();
        assert_eq!(got.len(), K * PS);
        let (_, go1, _, gr1) = provider_counts(&bs2);
        assert_eq!(go1 - go0, K, "every page fetched exactly once");
        let s = bs2.providers().len() as u64;
        assert!(
            gr1 - gr0 <= s,
            "a {K}-page read must group fetches by provider: used {} RPCs, bound is {s}",
            gr1 - gr0
        );
    });
    fx.run();
    h.take().unwrap();
}

/// An R-replica write of K pages costs at most S put RPCs in total (the
/// replica streams of the whole update group by target provider) — and
/// certainly never K·R.
#[test]
fn replicated_write_of_k_pages_costs_at_most_s_rpcs() {
    const K: u64 = 16;
    const R: usize = 3;
    let (fx, bs) = deploy(6, BlobSeerConfig::test_small(PS).with_replication(R));
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "writer", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let (po0, _, pr0, _) = provider_counts(&bs2);
        c.append(p, blob, Payload::ghost(K * PS)).unwrap();
        let (po1, _, pr1, _) = provider_counts(&bs2);
        assert_eq!(po1 - po0, K * R as u64, "every replica stream landed");
        let s = bs2.providers().len() as u64;
        assert!(
            pr1 - pr0 <= s,
            "a {K}-page {R}-replica write must group streams by provider: \
             used {} put RPCs, bound is {s} (and K*R would be {})",
            pr1 - pr0,
            K * R as u64
        );
        // All three replicas readable after one failure: kill a provider
        // holding page replicas and re-read (failover stays page-level).
        bs2.providers()[0].kill();
        let got = c.read(p, blob, None, 0, K * PS).unwrap();
        assert_eq!(got.len(), K * PS);
    });
    fx.run();
    h.take().unwrap();
}

/// With a fresh DescIndex snapshot, `page_locations` answers the
/// offset→page mapping locally: the only DHT activity is ONE batched get of
/// the leaf (provider-set) nodes — zero inner tree-node gets, one RPC per
/// metadata server. A full tree walk would fetch ~2K nodes for K leaves.
#[test]
fn page_locations_fetches_only_leaves_when_index_is_fresh() {
    const K: u64 = 64;
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let n_meta = 2u32;
    let layout = meta_layout(&fx, n_meta);
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(PS), layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "writer", move |p| {
        let dht = bs2.metadata_dht().clone();
        let counts = |d: &blobseer::dht::MetaDht| -> (u64, u64) {
            d.servers().iter().fold((0, 0), |(g, r), s| {
                (g + s.op_counts().1, r + s.rpc_counts().1)
            })
        };
        // The writing client holds the index snapshot its append returned:
        // zero extra VM syncs, zero inner-node gets.
        let c = bs2.client();
        let blob = c.create(p, None);
        c.append(p, blob, Payload::ghost(K * PS)).unwrap();
        let (g0, r0) = counts(&dht);
        let locs = c.page_locations(p, blob, None, 0, K * PS).unwrap();
        assert_eq!(locs.len(), K as usize);
        let (g1, r1) = counts(&dht);
        assert_eq!(
            g1 - g0,
            K,
            "index-backed page_locations must fetch exactly the {K} leaves"
        );
        assert!(
            r1 - r0 <= n_meta as u64,
            "leaf fetches must batch per server: {} RPCs, bound {n_meta}",
            r1 - r0
        );

        // A fresh, read-only client syncs the index once from the VM
        // (descriptor delta) and then also touches only leaves.
        let reader = bs2.client();
        let (g2, r2) = counts(&dht);
        let locs2 = reader
            .page_locations(p, blob, None, 10 * PS, 5 * PS)
            .unwrap();
        assert_eq!(locs2.len(), 5);
        let (g3, r3) = counts(&dht);
        assert_eq!(
            g3 - g2,
            5,
            "read-only client must fetch exactly the 5 overlapping leaves"
        );
        assert!(r3 - r2 <= n_meta as u64);
        assert_eq!(&locs2[..], &locs[10..15], "index route matches tree data");

        // Historical versions fall back to the tree walk and still answer.
        c.append(p, blob, Payload::ghost(PS)).unwrap();
        let hist = c.page_locations(p, blob, Some(1), 0, K * PS).unwrap();
        assert_eq!(&hist[..], &locs[..], "tree-walk fallback matches");
    });
    fx.run();
    h.take().unwrap();
}

/// Reads spanning or starting past EOF clamp exactly like `page_locations`
/// does: short read at the boundary, empty past it, no u64 overflow.
#[test]
fn reads_clamp_at_eof_like_page_locations() {
    let (fx, bs) = deploy(4, BlobSeerConfig::test_small(100));
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "reader", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();

        // Spanning EOF: short read of the available tail.
        let got = c.read(p, blob, None, 200, 100).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[200..250]);
        let locs = c.page_locations(p, blob, None, 200, 100).unwrap();
        assert_eq!(locs.len(), 1, "locality API agrees: one overlapping page");

        // At EOF: empty read, empty locations.
        assert!(c.read(p, blob, None, 250, 10).unwrap().is_empty());
        assert!(c.page_locations(p, blob, None, 250, 10).unwrap().is_empty());

        // Zero length, inside the blob and at EOF: empty, like a range past EOF.
        for offset in [100, 250] {
            assert!(c.read(p, blob, None, offset, 0).unwrap().is_empty());
            let locs = c.page_locations(p, blob, None, offset, 0).unwrap();
            assert!(locs.is_empty());
        }

        // Past EOF: empty, not an error.
        assert!(c.read(p, blob, None, 300, 10).unwrap().is_empty());
        assert!(c.page_locations(p, blob, None, 300, 10).unwrap().is_empty());

        // len near u64::MAX: offset + len must not overflow.
        let got = c.read(p, blob, None, 100, u64::MAX - 1).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[100..250]);
        let locs = c.page_locations(p, blob, None, 100, u64::MAX - 1).unwrap();
        assert_eq!(locs.len(), 2);
        // And from offset 0 with the full u64 range.
        assert_eq!(c.read(p, blob, None, 0, u64::MAX).unwrap().len(), 250);

        // Empty blob: every read is an empty payload.
        let empty = c.create(p, None);
        assert!(c.read(p, empty, None, 0, 10).unwrap().is_empty());
        assert!(c.page_locations(p, empty, None, 0, 10).unwrap().is_empty());
    });
    fx.run();
    h.take().unwrap();
}
