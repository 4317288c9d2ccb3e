//! End-to-end tests of the full BlobSeer stack (client + version manager +
//! DHT + providers) on simulated clusters, exercising the exact behaviours
//! the paper claims: parallel appends to a shared BLOB, version isolation
//! between readers and appenders, replication failover.

use std::sync::Arc;

use blobseer::{BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use parking_lot::Mutex;

fn pattern(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 251) as u8))
        .collect()
}

fn sim_deploy(nodes: u32, page_size: u64) -> (Fabric, BlobSeer) {
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let layout = Layout::compact(fx.spec());
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(page_size), layout).unwrap();
    (fx, bs)
}

#[test]
fn append_read_roundtrip_real_bytes() {
    let (fx, bs) = sim_deploy(4, 128);
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "client", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data = pattern(1000, 3); // 8 pages (7 full + short tail)
        let v = c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        assert_eq!(v, 1);
        assert_eq!(c.size(p, blob, None).unwrap(), 1000);
        let got = c.read(p, blob, None, 0, 1000).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        // Sub-range crossing page boundaries.
        let got = c.read(p, blob, None, 100, 300).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[100..400]);
        // Second append; both versions readable.
        let more = pattern(300, 77);
        let v2 = c.append(p, blob, Payload::from_vec(more.clone())).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(c.size(p, blob, None).unwrap(), 1300);
        let got = c.read(p, blob, None, 900, 400).unwrap();
        let mut want = data[900..].to_vec();
        want.extend_from_slice(&more[..300]);
        assert_eq!(got.bytes().as_ref(), &want[..]);
        let got_v1 = c.read(p, blob, Some(1), 0, 1000).unwrap();
        assert_eq!(got_v1.bytes().as_ref(), &data[..]);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn concurrent_appenders_all_land_atomically() {
    let (fx, bs) = sim_deploy(12, 256);
    // Create the blob up front from a setup process.
    let bs_setup = bs.clone();
    let blob_cell = Arc::new(Mutex::new(None));
    let bc = blob_cell.clone();
    fx.spawn(NodeId(0), "setup", move |p| {
        let c = bs_setup.client();
        *bc.lock() = Some(c.create(p, None));
    });
    let ready = fx.gate();
    // 8 concurrent appenders, each appends a distinctive block.
    let n = 8usize;
    let block = 700usize; // 3 pages each
    for i in 0..n {
        let bs2 = bs.clone();
        let bc = blob_cell.clone();
        let ready2 = ready.clone();
        fx.spawn(NodeId(1 + i as u32), format!("appender{i}"), move |p| {
            ready2.wait(p);
            let c = bs2.client();
            let blob = bc.lock().unwrap();
            let data = pattern(block, i as u8 * 31 + 1);
            c.append(p, blob, Payload::from_vec(data)).unwrap();
        });
    }
    // Kick off the appenders once the blob id exists.
    let bc2 = blob_cell.clone();
    let ready3 = ready.clone();
    fx.spawn(NodeId(0), "starter", move |p| {
        while bc2.lock().is_none() {
            p.sleep(fabric::MILLIS);
        }
        ready3.set();
    });
    fx.run();

    // Verify from a fresh run context.
    let (fx2, check_bs) = (Fabric::sim(ClusterSpec::tiny(1)), bs);
    let _ = fx2;
    let fx3 = Fabric::sim(ClusterSpec::tiny(12));
    let blob = blob_cell.lock().unwrap();
    let h = fx3.spawn(NodeId(0), "verify", move |p| {
        let c = check_bs.client();
        assert_eq!(c.latest(p, blob).unwrap(), n as u64);
        let total = c.size(p, blob, None).unwrap();
        assert_eq!(total, (n * block) as u64);
        let got = c.read(p, blob, None, 0, total).unwrap();
        let bytes = got.bytes();
        // Each appended block must appear contiguously (atomic append),
        // in *some* order.
        let mut seen = std::collections::HashSet::new();
        for j in 0..n {
            let at = j * block;
            let slice = &bytes[at..at + block];
            let tag = slice[0];
            let i = (0..n)
                .find(|&i| pattern(block, i as u8 * 31 + 1)[0] == tag)
                .expect("block starts with a known tag");
            assert_eq!(
                slice,
                &pattern(block, i as u8 * 31 + 1)[..],
                "block {j} intact"
            );
            assert!(seen.insert(i), "block {i} appeared twice");
        }
        assert_eq!(seen.len(), n);
    });
    fx3.run();
    h.take().unwrap();
}

#[test]
fn readers_pinned_to_snapshots_are_isolated_from_appends() {
    let (fx, bs) = sim_deploy(6, 128);
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let first = pattern(500, 1);
        c.append(p, blob, Payload::from_vec(first.clone())).unwrap();
        let snap = c.snapshot(p, blob, None).unwrap();
        // Appends happen after the snapshot was taken.
        for round in 0..5u8 {
            c.append(p, blob, Payload::from_vec(pattern(300, 100 + round)))
                .unwrap();
            // The pinned snapshot keeps returning version-1 data.
            let got = c.read_snapshot(p, blob, &snap, 0, 500).unwrap();
            assert_eq!(got.bytes().as_ref(), &first[..]);
        }
        assert_eq!(c.latest(p, blob).unwrap(), 6);
        assert_eq!(c.size(p, blob, Some(1)).unwrap(), 500);
        assert_eq!(c.size(p, blob, None).unwrap(), 500 + 5 * 300);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn replicated_pages_survive_provider_failure() {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let layout = Layout::compact(fx.spec());
    let config = BlobSeerConfig::test_small(256).with_replication(3);
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "driver", move |p| {
        // Uncached on purpose: this test is about provider failover, and a
        // cached client would (correctly) keep serving the published bytes
        // after every provider replica is dead.
        let c = bs2.uncached_client();
        let blob = c.create(p, None);
        let data = pattern(1000, 9);
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        // Total stored = 3 replicas of 1000 bytes.
        assert_eq!(bs2.total_stored_bytes(), 3000);
        // Kill providers one by one; reads keep working until all replicas
        // of some page are gone.
        let locs = c.page_locations(p, blob, None, 0, 1000).unwrap();
        assert!(locs.iter().all(|l| l.hosts.len() == 3));
        // Kill two specific hosts of the first page.
        let victims = [locs[0].hosts[0], locs[0].hosts[1]];
        for pr in bs2.providers() {
            if victims.contains(&pr.node()) {
                pr.kill();
            }
        }
        let got = c.read(p, blob, None, 0, 1000).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        // Kill the last replica: the read must now fail loudly.
        for pr in bs2.providers() {
            if pr.node() == locs[0].hosts[2] {
                pr.kill();
            }
        }
        assert!(c.read(p, blob, None, 0, 1000).is_err());
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn writes_fail_over_to_healthy_providers() {
    let fx = Fabric::sim(ClusterSpec::tiny(6));
    let layout = Layout::compact(fx.spec());
    let config = BlobSeerConfig::test_small(128);
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    // Kill half the providers before any write.
    bs.inject(FaultTarget::Provider(1), Fault::Crash).unwrap();
    bs.inject(FaultTarget::Provider(3), Fault::Crash).unwrap();
    bs.inject(FaultTarget::Provider(5), Fault::Crash).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data = pattern(640, 4); // 5 pages
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        let got = c.read(p, blob, None, 0, 640).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        // Nothing landed on dead providers.
        for i in [1usize, 3, 5] {
            assert_eq!(bs2.providers()[i].stored_pages(), 0);
        }
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn failover_releases_reservations_on_dead_providers() {
    // A provider that dies *after* the provider manager reserved capacity on
    // it but *before* the page lands keeps its reservation forever unless
    // the failover path hands it back. Kill the allocated provider while the
    // client's transfer is in flight, let the write fail over, and require
    // the capacity books to balance: every provider's load estimate must
    // equal its stored bytes afterwards.
    const PAGE: u64 = 4 * 1024 * 1024;
    let fx = Fabric::sim(ClusterSpec::tiny(3));
    // Providers on remote nodes only, so the page transfer takes modeled
    // time and the kill can land mid-flight.
    let layout = Layout {
        vm: NodeId(0),
        pm: NodeId(0),
        namespace: NodeId(0),
        meta: vec![NodeId(0)],
        providers: vec![NodeId(1), NodeId(2)],
        read_replicas: vec![],
    };
    let config = BlobSeerConfig::test_small(PAGE);
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    let victim: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));
    let (bs_writer, victim_w) = (bs.clone(), victim.clone());
    let writer = fx.spawn(NodeId(0), "writer", move |p| {
        let c = bs_writer.client();
        let blob = c.create(p, None);
        // One 4 MB page: the killer takes its allocated provider down
        // mid-transfer and the write must fail over to the other.
        c.append(p, blob, Payload::ghost(PAGE)).unwrap();
        let v = victim_w
            .lock()
            .expect("the killer found the allocated provider");
        assert_eq!(bs_writer.providers()[v].stored_pages(), 0);
        assert_eq!(bs_writer.providers()[1 - v].stored_pages(), 1);
    });
    let bs_killer = bs.clone();
    fx.spawn(NodeId(2), "killer", move |p| {
        // Well inside the multi-ms transfer window, well after allocation:
        // the allocated provider is the one whose books show bytes reserved
        // that have not landed.
        p.sleep(5 * fabric::MILLIS);
        let providers = bs_killer.providers();
        let v = providers
            .iter()
            .position(|pr| pr.load_estimate() > pr.stored_bytes())
            .unwrap();
        providers[v].kill();
        *victim.lock() = Some(v);
    });
    fx.run();
    writer.take().unwrap();
    for (i, pr) in bs.providers().iter().enumerate() {
        assert_eq!(
            pr.load_estimate(),
            pr.stored_bytes(),
            "provider {i} has stranded reservations after failover"
        );
    }
}

#[test]
fn abandoned_writes_release_all_reservations() {
    // When every provider dies mid-write the append must fail loudly AND
    // hand back each reservation it was still holding. The payload is NOT
    // page-aligned: the short tail chunk pins the reservation units (exact
    // chunk bytes, not whole pages) across allocate/release.
    const PAGE: u64 = 4 * 1024 * 1024;
    let fx = Fabric::sim(ClusterSpec::tiny(3));
    let layout = Layout {
        vm: NodeId(0),
        pm: NodeId(0),
        namespace: NodeId(0),
        meta: vec![NodeId(0)],
        providers: vec![NodeId(1), NodeId(2)],
        read_replicas: vec![],
    };
    let config = BlobSeerConfig::test_small(PAGE);
    let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
    let bs_writer = bs.clone();
    let writer = fx.spawn(NodeId(0), "writer", move |p| {
        let c = bs_writer.client();
        let blob = c.create(p, None);
        // One full page plus a 1000 B tail; the big transfer dies mid-flight
        // (the tail may land before the kill — that replica is then stored
        // and correctly unreserved).
        assert!(c.append(p, blob, Payload::ghost(PAGE + 1000)).is_err());
    });
    let bs_killer = bs.clone();
    fx.spawn(NodeId(0), "killer", move |p| {
        p.sleep(5 * fabric::MILLIS);
        for pr in bs_killer.providers() {
            pr.kill();
        }
    });
    fx.run();
    writer.take().unwrap();
    for (i, pr) in bs.providers().iter().enumerate() {
        assert_eq!(
            pr.load_estimate(),
            pr.stored_bytes(),
            "provider {i} has stranded reservations after an abandoned write"
        );
    }
}

#[test]
fn overwrite_creates_isolated_snapshots() {
    let (fx, bs) = sim_deploy(4, 100);
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let base = pattern(400, 1);
        c.append(p, blob, Payload::from_vec(base.clone())).unwrap();
        let patch = pattern(200, 200);
        let v2 = c
            .write(p, blob, 100, Payload::from_vec(patch.clone()))
            .unwrap();
        assert_eq!(v2, 2);
        let mut want = base.clone();
        want[100..300].copy_from_slice(&patch);
        assert_eq!(
            c.read(p, blob, None, 0, 400).unwrap().bytes().as_ref(),
            &want[..]
        );
        assert_eq!(
            c.read(p, blob, Some(1), 0, 400).unwrap().bytes().as_ref(),
            &base[..]
        );
        // Unaligned overwrite is rejected.
        assert!(c
            .write(p, blob, 150, Payload::from_vec(pattern(100, 9)))
            .is_err());
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn ghost_payloads_at_paper_scale() {
    // 270-node cluster, paper layout, 64 MB pages, ghost data: a smoke test
    // that the full protocol runs at the paper's scale in simulation.
    let fx = Fabric::sim(ClusterSpec::orsay_270());
    let bs = BlobSeer::deploy_paper(&fx, BlobSeerConfig::paper()).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(100), "client", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let start = p.now();
        for _ in 0..4 {
            c.append(p, blob, Payload::ghost(64 * 1024 * 1024)).unwrap();
        }
        let elapsed = fabric::ns_to_secs(p.now() - start);
        let size = c.size(p, blob, None).unwrap();
        assert_eq!(size, 4 * 64 * 1024 * 1024);
        // Sequential 64 MB appends over a 117 MB/s NIC: ~0.55 s each.
        assert!(
            (2.0..4.0).contains(&elapsed),
            "4 sequential 64MB appends took {elapsed}s"
        );
        let got = c.read(p, blob, None, 0, size).unwrap();
        assert!(got.is_ghost());
        assert_eq!(got.len(), size);
        (elapsed, bs2.total_stored_bytes())
    });
    fx.run();
    let (_, stored) = h.take().unwrap();
    assert_eq!(stored, 4 * 64 * 1024 * 1024);
}

#[test]
fn page_locations_expose_distribution() {
    let (fx, bs) = sim_deploy(8, 100);
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        c.append(p, blob, Payload::from_vec(pattern(850, 3)))
            .unwrap();
        let locs = c.page_locations(p, blob, None, 0, 850).unwrap();
        assert_eq!(locs.len(), 9); // 8 full + 1 short page
        assert_eq!(locs[8].byte_len, 50);
        let offs: Vec<u64> = locs.iter().map(|l| l.byte_off).collect();
        assert_eq!(offs, (0..9).map(|i| i * 100).collect::<Vec<_>>());
        // Sub-range query returns only overlapping pages.
        let locs = c.page_locations(p, blob, None, 250, 100).unwrap();
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].byte_off, 200);
        // Load balancing: no provider got everything.
        let (min, max) = bs2.load_spread();
        assert!(
            max < 850,
            "one provider hoarded all pages (min={min}, max={max})"
        );
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn live_mode_roundtrip() {
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(4096), layout).unwrap();
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data = pattern(100_000, 5);
        c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        let got = c.read(p, blob, None, 0, 100_000).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
    });
    fx.run();
    h.take().unwrap();
}
