//! Tier-1 pins for the sharded version-manager control plane.
//!
//! The paper's claim is sustained throughput under *heavy access
//! concurrency* (Figures 3/5); the control-plane property behind it is that
//! the version manager serializes only what the protocol demands — per-BLOB
//! version ordering — and nothing across BLOBs. These tests pin that:
//!
//! * **independence** — N appenders on N disjoint BLOBs complete in
//!   sim-time within a small constant factor of a single appender on a
//!   single BLOB (nothing funnels through a shared control-plane resource);
//! * **race safety** — concurrent reap / commit / force-complete /
//!   wait-published interleavings on the same version produce clean results
//!   or typed errors, never panics, and a reaped dead writer cannot wedge
//!   its successors.

use std::sync::Arc;

use blobseer::meta::PageRef;
use blobseer::version_manager::{UpdateKind, VersionManager};
use blobseer::{BlobError, BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use parking_lot::Mutex;

const PS: u64 = 4 * 1024; // below the small-message cutoff: control + data
                          // cost latency only, so timing isolates the
                          // control plane from bandwidth sharing.

fn config() -> BlobSeerConfig {
    let mut cfg = BlobSeerConfig::test_small(PS);
    // Zero modeled VM/metadata CPU: the *intentional* serialization charge
    // is ablated so that any sim-time growth with N can only come from an
    // accidental shared bottleneck in the control plane itself.
    cfg.vm_cpu_ops = 0;
    cfg.meta_cpu_ops = 0;
    cfg
}

/// Run `n` appenders, each doing `appends` one-page appends to its own
/// fresh BLOB from its own node; returns the slowest appender's elapsed
/// sim-time ns.
fn disjoint_append_time(n: u32, appends: u32) -> u64 {
    let fx = Fabric::sim(ClusterSpec::tiny(n + 1));
    let bs = BlobSeer::deploy(&fx, config(), Layout::compact(fx.spec())).unwrap();
    let elapsed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..n {
        let bs2 = bs.clone();
        let t2 = elapsed.clone();
        fx.spawn(NodeId(i + 1), format!("appender{i}"), move |p| {
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

/// N appenders on N disjoint BLOBs run in the same sim-time as one appender
/// on one BLOB: the control plane shards per BLOB, so disjoint writers
/// share no lock, no gate and no protocol-level resource. (The modeled VM
/// CPU charge is zeroed here on purpose — with it, the remaining growth is
/// exactly the paper's intentional centralized-VM serialization point.)
#[test]
fn disjoint_blob_appenders_are_independent() {
    let t1 = disjoint_append_time(1, 8);
    for n in [4u32, 16] {
        let tn = disjoint_append_time(n, 8);
        assert!(
            tn as f64 <= t1 as f64 * 1.25,
            "{n} appenders on {n} disjoint blobs took {tn} ns vs {t1} ns for one — \
             the control plane is serializing disjoint blobs"
        );
    }
}

/// Shared-file appenders (the paper's fig3 shape) still publish strictly in
/// version order while disjoint-blob appenders proceed alongside — sharding
/// must not weaken the per-BLOB ordering the protocol demands.
#[test]
fn per_blob_ordering_survives_sharding() {
    let fx = Fabric::sim(ClusterSpec::tiny(10));
    let bs = BlobSeer::deploy(&fx, config(), Layout::compact(fx.spec())).unwrap();
    let client0 = bs.client();
    let shared: Arc<Mutex<Option<blobseer::BlobId>>> = Arc::new(Mutex::new(None));
    let ready = fx.gate();
    {
        let s2 = shared.clone();
        let g = ready.clone();
        let bs2 = bs.clone();
        fx.spawn(NodeId(0), "setup", move |p| {
            *s2.lock() = Some(bs2.client().create(p, None));
            g.set();
        });
    }
    let mut handles = Vec::new();
    for i in 0..8u32 {
        let bs2 = bs.clone();
        let s2 = shared.clone();
        let g = ready.clone();
        handles.push(fx.spawn(NodeId(i + 1), format!("w{i}"), move |p| {
            g.wait(p);
            let c = bs2.client();
            let shared_blob = s2.lock().unwrap();
            // Interleave appends to the shared blob with a private one.
            let own = c.create(p, None);
            let v_shared = c.append(p, shared_blob, Payload::ghost(PS)).unwrap();
            let v_own = c.append(p, own, Payload::ghost(2 * PS)).unwrap();
            (v_shared, v_own)
        }));
    }
    let s3 = shared.clone();
    let checker = fx.spawn(NodeId(9), "check", move |p| {
        let mut shared_versions: Vec<u64> = handles
            .iter()
            .map(|h| {
                let (vs, vo) = h.join(p);
                assert_eq!(vo, 1, "private blobs see exactly their own version");
                vs
            })
            .collect();
        shared_versions.sort_unstable();
        let blob = s3.lock().unwrap();
        let latest = client0.latest(p, blob).unwrap();
        let size = client0.size(p, blob, None).unwrap();
        (shared_versions, latest, size)
    });
    fx.run();
    let (shared_versions, latest, size) = checker.take().unwrap();
    assert_eq!(
        shared_versions,
        (1..=8).collect::<Vec<u64>>(),
        "shared-blob versions are dense and unique"
    );
    assert_eq!(latest, 8);
    assert_eq!(size, 8 * PS);
}

fn vm_setup(fx: &Fabric, timeout_ns: Option<u64>) -> Arc<VersionManager> {
    let dht = Arc::new(blobseer::dht::MetaDht::new(
        vec![Arc::new(blobseer::dht::MetaServer::new(NodeId(1)))],
        0,
    ));
    Arc::new(VersionManager::new(
        NodeId(0),
        fx.clone(),
        dht,
        PS,
        64,
        0,
        timeout_ns,
    ))
}

fn one_page_manifest(tag: u64) -> Arc<Vec<PageRef>> {
    Arc::new(vec![PageRef {
        id: blobseer::PageId(tag, 0),
        byte_len: PS,
        providers: vec![NodeId(2)],
    }])
}

/// The race the reap queue must survive: a writer assigns, stalls past the
/// timeout, and then *resurrects* — its late commit races the reaper's
/// force-complete, concurrent force-completers race each other, and a
/// waiter blocked on the version must wake. Every interleaving ends with
/// the version published and no panic; a lost race surfaces as
/// `VersionRaced` (typed), which `wait_published` resolves by re-checking.
#[test]
fn reap_commit_wait_races_end_published_not_panicked() {
    let timeout = 500 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let vm = vm_setup(&fx, Some(timeout));
    let blob_cell: Arc<Mutex<Option<blobseer::BlobId>>> = Arc::new(Mutex::new(None));
    let assigned = fx.gate();

    // The stalling writer: assigns v1, sleeps far past the timeout, then
    // commits late and waits for publication.
    {
        let vm2 = vm.clone();
        let (b2, g2) = (blob_cell.clone(), assigned.clone());
        fx.spawn(NodeId(2), "late-writer", move |p| {
            let blob = vm2.create_blob(p, None);
            *b2.lock() = Some(blob);
            let (d, _) = vm2
                .assign(p, blob, UpdateKind::Append, PS, one_page_manifest(1), 0)
                .unwrap();
            g2.set();
            p.sleep(4 * timeout);
            // Late commit of an already force-completed version: idempotent.
            vm2.commit(p, blob, d.version).unwrap();
            vm2.wait_published(p, blob, d.version).unwrap();
        });
    }
    // A waiter parked on v1 before anything published.
    {
        let vm2 = vm.clone();
        let (b2, g2) = (blob_cell.clone(), assigned.clone());
        fx.spawn(NodeId(3), "waiter", move |p| {
            g2.wait(p);
            let blob = b2.lock().unwrap();
            vm2.wait_published(p, blob, 1).unwrap();
            assert!(p.now() >= timeout, "nothing published before the timeout");
        });
    }
    // Two concurrent reapers / force-completers racing on the same version.
    for (i, node) in [(0u32, 4u32), (1, 5)] {
        let vm2 = vm.clone();
        let (b2, g2) = (blob_cell.clone(), assigned.clone());
        fx.spawn(NodeId(node), format!("reaper{i}"), move |p| {
            g2.wait(p);
            let blob = b2.lock().unwrap();
            p.sleep(2 * timeout);
            // Either path may win the race; both must end clean.
            vm2.reap_expired(p, blob).unwrap();
            match vm2.force_complete(p, blob, 1) {
                Ok(()) | Err(BlobError::VersionRaced { .. }) => {}
                Err(e) => panic!("force-complete race leaked {e}"),
            }
            assert_eq!(vm2.latest(p, blob).unwrap(), 1);
        });
    }
    fx.run();
    let blob = blob_cell.lock().unwrap();
    assert_eq!(vm.pending_count(blob), 0);
}

/// A dead writer between live ones, across many BLOBs at once: every BLOB
/// independently reaps its own corpse and publishes its survivors — one
/// BLOB's stall never delays another's reap (per-blob deadline queues).
#[test]
fn each_blob_reaps_independently() {
    let timeout = 200 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let vm = vm_setup(&fx, Some(timeout));
    let vm2 = vm.clone();
    let h = fx.spawn(NodeId(2), "driver", move |p| {
        let blobs: Vec<_> = (0..16).map(|_| vm2.create_blob(p, None)).collect();
        for (i, &blob) in blobs.iter().enumerate() {
            // v1 dies on even blobs; v2 commits everywhere.
            let (d1, _) = vm2
                .assign(p, blob, UpdateKind::Append, PS, one_page_manifest(1), 0)
                .unwrap();
            let (d2, _) = vm2
                .assign(p, blob, UpdateKind::Append, PS, one_page_manifest(2), 1)
                .unwrap();
            vm2.commit(p, blob, d2.version).unwrap();
            if i % 2 == 1 {
                vm2.commit(p, blob, d1.version).unwrap();
            }
        }
        for (i, &blob) in blobs.iter().enumerate() {
            let want = if i % 2 == 1 { 2 } else { 0 };
            assert_eq!(vm2.latest(p, blob).unwrap(), want, "pre-reap blob {i}");
        }
        p.sleep(2 * timeout);
        // Any control-plane interaction reaps lazily, per blob.
        for &blob in &blobs {
            vm2.reap_expired(p, blob).unwrap();
            assert_eq!(vm2.latest(p, blob).unwrap(), 2);
            assert_eq!(vm2.pending_count(blob), 0);
        }
        blobs.len()
    });
    fx.run();
    assert_eq!(h.take().unwrap(), 16);
}
