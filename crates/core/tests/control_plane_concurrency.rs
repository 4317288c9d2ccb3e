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
//!   its successors;
//! * **the rail** — one scripted sim scenario on a bare `VersionManager`
//!   whose whole transcript (watermarks, wake-up times and order, every
//!   verb's answer, the fabric's totals) is pinned to literals;
//! * **real threads** — the same verbs raced on `Fabric::live`: a storm of
//!   writers, reapers and parked waiters on one BLOB ends dense, published
//!   and quiet, and a BLOB deleted mid-storm answers `NoSuchBlob` to all.
//!   `flake-loop.yml` loops this binary nightly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use blobseer::meta::PageRef;
use blobseer::version_manager::{UpdateKind, VersionManager};
use blobseer::{BlobError, BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use parking_lot::Mutex;
use rand::Rng;

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

fn vm_setup(timeout_ns: u64) -> Arc<VersionManager> {
    let dht = Arc::new(blobseer::dht::MetaDht::new(
        vec![Arc::new(blobseer::dht::MetaServer::new(NodeId(1)))],
        0,
    ));
    Arc::new(VersionManager::new(NodeId(0), dht, PS, 0, timeout_ns))
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
/// the version published, every verb `Ok` and no panic.
#[test]
fn reap_commit_wait_races_end_published_not_panicked() {
    let timeout = 500 * fabric::MILLIS;
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let vm = vm_setup(timeout);
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
            if let Err(e) = vm2.force_complete(p, blob, 1) {
                panic!("force-complete race leaked {e}");
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
    let vm = vm_setup(timeout);
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

/// One line of the rail's transcript: virtual time, process, what happened.
fn note(log: &Mutex<Vec<String>>, p: &fabric::Proc, what: impl std::fmt::Display) {
    log.lock()
        .push(format!("{:>9} {} {what}", p.now(), p.name()));
}

fn verdict<T>(r: &Result<T, BlobError>) -> String {
    match r {
        Ok(_) => "Ok".into(),
        Err(e) => format!("Err({e:?})"),
    }
}

/// The rail under the per-BLOB version state machine: one scripted scenario
/// on a bare `VersionManager`, every observable pinned to a literal — the
/// published watermark after every step, the virtual time and order of every
/// wake-up, every verb's `Ok` / typed `Err`, `pending_count` /
/// `pending_footprint` at three points, and the fabric's final totals.
/// Recorded before the state machine's representation was touched; a change
/// that moves any line of the transcript changed the protocol's observable
/// behaviour, not just its code.
///
/// 1. six writers × four appends on one BLOB, committing out of order;
/// 2. a writer that never commits (v25) ahead of one that does (v26), two
///    waiters parked on them; the write timeout expires during a metadata
///    outage, so the first force-complete fails and the next interaction
///    retries it — while the resurrected writer's late `commit` races it;
/// 3. `delete_blob` with four versions pending (one committed) and three
///    waiters parked out of order on the uncommitted ones.
#[test]
fn scripted_window_scenario_is_pinned_to_literals() {
    const TIMEOUT: u64 = 500 * fabric::MILLIS;
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(12), 0x5EED_0023);
    let server = Arc::new(blobseer::dht::MetaServer::new(NodeId(1)));
    let dht = Arc::new(blobseer::dht::MetaDht::new(vec![server.clone()], 0));
    let vm = Arc::new(VersionManager::new(NodeId(0), dht, PS, 20_000, TIMEOUT));
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let (vm0, log0) = (vm.clone(), log.clone());
    fx.spawn(NodeId(2), "script", move |p| {
        let (vm, log) = (vm0, log0);
        let fx = p.fabric().clone();
        let blob = vm.create_blob(p, None);
        let pending = |p: &fabric::Proc, tag: &str| {
            let (count, footprint) = (vm.pending_count(blob), vm.pending_footprint(blob));
            note(
                &log,
                p,
                format!("{tag}: pending {count} footprint {footprint:?}"),
            );
        };
        let latest = |p: &fabric::Proc, tag: &str| {
            let v = vm.latest(p, blob);
            note(&log, p, format!("{tag}: latest {v:?}"));
        };
        let waiter = |node: u32, name: &str, version: u64| {
            let (vm, log) = (vm.clone(), log.clone());
            fx.spawn(NodeId(node), name, move |p| {
                let r = vm.wait_published(p, blob, version);
                note(&log, p, format!("woke on v{version}: {}", verdict(&r)));
            })
        };

        // 1. Six writers, four appends each, stalls chosen so commits land
        //    out of version order; a probe samples the window mid-storm.
        let writers: Vec<_> = (0..6u64)
            .map(|w| {
                let (vm, log) = (vm.clone(), log.clone());
                fx.spawn(NodeId(3 + w as u32), format!("w{w}"), move |p| {
                    let mut known = 0;
                    for r in 0..4u64 {
                        let (d, ix) = vm
                            .assign(
                                p,
                                blob,
                                UpdateKind::Append,
                                PS,
                                one_page_manifest(w * 10 + r),
                                known,
                            )
                            .unwrap();
                        note(
                            &log,
                            p,
                            format!("assigned v{} (index at v{})", d.version, ix.version()),
                        );
                        known = d.version;
                        p.sleep(((w * 5 + r * 7) % 6) * 150 * fabric::MICROS + 50 * fabric::MICROS);
                        let c = vm.commit(p, blob, d.version);
                        let seen = vm.latest(p, blob);
                        note(
                            &log,
                            p,
                            format!("commit v{}: {}, latest {seen:?}", d.version, verdict(&c)),
                        );
                        let r = vm.wait_published(p, blob, d.version);
                        note(&log, p, format!("woke on v{}: {}", d.version, verdict(&r)));
                    }
                })
            })
            .collect();
        let probe = {
            let (vm, log) = (vm.clone(), log.clone());
            fx.spawn(NodeId(9), "probe", move |p| {
                p.sleep(1500 * fabric::MICROS);
                let (count, footprint) = (vm.pending_count(blob), vm.pending_footprint(blob));
                note(
                    &log,
                    p,
                    format!("mid-storm: pending {count} footprint {footprint:?}"),
                );
            })
        };
        for w in &writers {
            w.join(p);
        }
        probe.join(p);
        latest(p, "storm over");
        pending(p, "storm over");

        // 2. v25's writer stalls; v26 commits behind it; two waiters park.
        let (stalled, go) = (fx.gate(), fx.gate());
        let corpse = {
            let (vm, log) = (vm.clone(), log.clone());
            let (stalled, go) = (stalled.clone(), go.clone());
            fx.spawn(NodeId(9), "corpse", move |p| {
                let (d, _) = vm
                    .assign(p, blob, UpdateKind::Append, PS, one_page_manifest(100), 24)
                    .unwrap();
                note(&log, p, format!("assigned v{}, then silence", d.version));
                stalled.set();
                go.wait(p);
                // Resurrected: lands inside the retried force-complete.
                p.sleep(20 * fabric::MICROS);
                let c = vm.commit(p, blob, d.version);
                let seen = vm.latest(p, blob);
                note(
                    &log,
                    p,
                    format!(
                        "late commit v{}: {}, latest {seen:?}",
                        d.version,
                        verdict(&c)
                    ),
                );
            })
        };
        stalled.wait(p);
        let (d26, _) = vm
            .assign(p, blob, UpdateKind::Append, PS, one_page_manifest(101), 24)
            .unwrap();
        let c = vm.commit(p, blob, d26.version);
        note(&log, p, format!("commit v{}: {}", d26.version, verdict(&c)));
        latest(p, "v26 waits behind v25");
        let parked = [waiter(10, "waiter-a", 25), waiter(11, "waiter-b", 26)];
        p.sleep(fabric::MILLIS);
        pending(p, "two parked");
        p.sleep(TIMEOUT);
        server.kill();
        let r = vm.reap_expired(p, blob);
        note(&log, p, format!("reap during the outage: {}", verdict(&r)));
        pending(p, "failed reap keeps the window");
        latest(p, "failed reap publishes nothing");
        server.revive();
        go.set();
        let c = vm.commit(p, blob, d26.version);
        note(
            &log,
            p,
            format!("re-commit v26 retries the reap: {}", verdict(&c)),
        );
        latest(p, "after the retry");
        corpse.join(p);
        for w in &parked {
            w.join(p);
        }
        pending(p, "reaped");

        // 3. Four pending (v30 committed), every typed refusal, then delete
        //    under three waiters parked out of order.
        for tag in 0..4u64 {
            let a = vm.assign(
                p,
                blob,
                UpdateKind::Append,
                PS,
                one_page_manifest(200 + tag),
                26 + tag,
            );
            note(
                &log,
                p,
                format!(
                    "assign: {}",
                    verdict(&a.map(|(d, _)| assert_eq!(d.version, 27 + tag)))
                ),
            );
        }
        let c = vm.commit(p, blob, 30);
        note(&log, p, format!("commit v30: {}", verdict(&c)));
        latest(p, "v30 waits behind v27");
        note(
            &log,
            p,
            format!("commit v31: {}", verdict(&vm.commit(p, blob, 31))),
        );
        note(
            &log,
            p,
            format!("wait v31: {}", verdict(&vm.wait_published(p, blob, 31))),
        );
        note(
            &log,
            p,
            format!("wait v3: {}", verdict(&vm.wait_published(p, blob, 3))),
        );
        note(
            &log,
            p,
            format!("snapshot v27: {}", verdict(&vm.snapshot(p, blob, Some(27)))),
        );
        note(
            &log,
            p,
            format!("snapshot v26: {:?}", vm.snapshot(p, blob, Some(26))),
        );
        note(
            &log,
            p,
            format!(
                "force-complete v31: {}",
                verdict(&vm.force_complete(p, blob, 31))
            ),
        );
        note(
            &log,
            p,
            format!(
                "force-complete v3: {}",
                verdict(&vm.force_complete(p, blob, 3))
            ),
        );
        note(
            &log,
            p,
            format!(
                "force-complete v30: {}",
                verdict(&vm.force_complete(p, blob, 30))
            ),
        );
        let empty = vm.assign(p, blob, UpdateKind::Append, 0, Arc::new(vec![]), 30);
        note(&log, p, format!("assign 0 B: {}", verdict(&empty)));
        let ix = vm.sync_index(p, blob, 20).map(|ix| ix.version());
        note(&log, p, format!("sync_index: {ix:?}"));
        let doomed = [
            waiter(10, "waiter-c", 29),
            waiter(11, "waiter-d", 27),
            waiter(3, "waiter-e", 28),
        ];
        p.sleep(fabric::MILLIS);
        pending(p, "before delete");
        note(
            &log,
            p,
            format!("delete: {}", verdict(&vm.delete_blob(p, blob))),
        );
        note(
            &log,
            p,
            format!("commit v27: {}", verdict(&vm.commit(p, blob, 27))),
        );
        let a = vm.assign(p, blob, UpdateKind::Append, PS, one_page_manifest(300), 30);
        note(&log, p, format!("assign: {}", verdict(&a)));
        note(
            &log,
            p,
            format!("wait v28: {}", verdict(&vm.wait_published(p, blob, 28))),
        );
        note(
            &log,
            p,
            format!("snapshot: {}", verdict(&vm.snapshot(p, blob, None))),
        );
        note(
            &log,
            p,
            format!("sync_index: {}", verdict(&vm.sync_index(p, blob, 0))),
        );
        note(
            &log,
            p,
            format!(
                "force-complete v27: {}",
                verdict(&vm.force_complete(p, blob, 27))
            ),
        );
        note(
            &log,
            p,
            format!("reap: {}", verdict(&vm.reap_expired(p, blob))),
        );
        note(
            &log,
            p,
            format!("delete again: {}", verdict(&vm.delete_blob(p, blob))),
        );
        for w in &doomed {
            w.join(p);
        }
        pending(p, "deleted");
    });
    fx.run();

    let stats = fx.stats();
    log.lock().push(format!(
        "fabric: {} transfers, {} bytes, {} ns",
        stats.transfers, stats.bytes_requested, stats.now_ns
    ));
    let got = log.lock().clone();
    #[rustfmt::skip]
    let want: &[&str] = &[
        "   470000 w0 assigned v1 (index at v1)",
        "   470000 w1 assigned v2 (index at v2)",
        "   470000 w2 assigned v3 (index at v3)",
        "   470000 w3 assigned v4 (index at v4)",
        "   470000 w4 assigned v5 (index at v5)",
        "   470000 w5 assigned v6 (index at v6)",
        "   940000 w0 commit v1: Ok, latest Ok(1)",
        "   940000 w0 woke on v1: Ok",
        "  1090000 w5 commit v6: Ok, latest Ok(1)",
        "  1150000 w0 assigned v7 (index at v7)",
        "  1240000 w4 commit v5: Ok, latest Ok(1)",
        "  1390000 w3 commit v4: Ok, latest Ok(1)",
        "  1480000 w3 woke on v4: Ok",
        "  1480000 w4 woke on v5: Ok",
        "  1480000 w5 woke on v6: Ok",
        "  1540000 w2 commit v3: Ok, latest Ok(6)",
        "  1540000 w2 woke on v3: Ok",
        "  1710000 probe mid-storm: pending 4 footprint (4, 33)",
        "  1720000 w1 commit v2: Ok, latest Ok(7)",
        "  1720000 w1 woke on v2: Ok",
        "  1720000 w3 assigned v8 (index at v8)",
        "  1720000 w4 assigned v9 (index at v9)",
        "  1720000 w5 assigned v10 (index at v10)",
        "  1750000 w2 assigned v11 (index at v11)",
        "  1770000 w0 commit v7: Ok, latest Ok(7)",
        "  1770000 w0 woke on v7: Ok",
        "  1930000 w1 assigned v12 (index at v12)",
        "  1980000 w0 assigned v13 (index at v13)",
        "  2400000 w1 commit v12: Ok, latest Ok(7)",
        "  2490000 w5 commit v10: Ok, latest Ok(7)",
        "  2580000 w5 woke on v10: Ok",
        "  2640000 w4 commit v9: Ok, latest Ok(10)",
        "  2640000 w4 woke on v9: Ok",
        "  2750000 w0 commit v13: Ok, latest Ok(10)",
        "  2760000 w1 woke on v12: Ok",
        "  2760000 w0 woke on v13: Ok",
        "  2800000 w3 commit v8: Ok, latest Ok(13)",
        "  2800000 w3 woke on v8: Ok",
        "  2800000 w5 assigned v14 (index at v14)",
        "  2850000 w4 assigned v15 (index at v15)",
        "  2990000 w2 commit v11: Ok, latest Ok(13)",
        "  2990000 w2 woke on v11: Ok",
        "  2990000 w1 assigned v16 (index at v16)",
        "  2990000 w0 assigned v17 (index at v17)",
        "  3010000 w3 assigned v18 (index at v18)",
        "  3200000 w2 assigned v19 (index at v19)",
        "  3610000 w1 commit v16: Ok, latest Ok(14)",
        "  3670000 w2 commit v19: Ok, latest Ok(14)",
        "  3710000 w1 woke on v16: Ok",
        "  3720000 w5 commit v14: Ok, latest Ok(17)",
        "  3720000 w5 woke on v14: Ok",
        "  3910000 w0 commit v17: Ok, latest Ok(17)",
        "  3910000 w0 woke on v17: Ok",
        "  3935000 w4 commit v15: Ok, latest Ok(17)",
        "  3935000 w4 woke on v15: Ok",
        "  3935000 w1 assigned v20 (index at v20)",
        "  3940000 w5 assigned v21 (index at v21)",
        "  4020000 w2 woke on v19: Ok",
        "  4145000 w4 assigned v22 (index at v22)",
        "  4240000 w3 commit v18: Ok, latest Ok(19)",
        "  4240000 w3 woke on v18: Ok",
        "  4240000 w2 assigned v23 (index at v23)",
        "  4450000 w3 assigned v24 (index at v24)",
        "  4710000 w1 commit v20: Ok, latest Ok(20)",
        "  4710000 w1 woke on v20: Ok",
        "  4860000 w2 commit v23: Ok, latest Ok(21)",
        "  4925000 w3 commit v24: Ok, latest Ok(21)",
        "  5010000 w5 commit v21: Ok, latest Ok(21)",
        "  5010000 w5 woke on v21: Ok",
        "  5155000 w2 woke on v23: Ok",
        "  5155000 w3 woke on v24: Ok",
        "  5365000 w4 commit v22: Ok, latest Ok(24)",
        "  5365000 w4 woke on v22: Ok",
        "  5575000 script storm over: latest Ok(24)",
        "  5575000 script storm over: pending 0 footprint (0, 48)",
        "  5785000 corpse assigned v25, then silence",
        "  6205000 script commit v26: Ok",
        "  6415000 script v26 waits behind v25: latest Ok(24)",
        "  7415000 script two parked: pending 2 footprint (2, 60)",
        "507415000 script reap during the outage: Err(ProviderDown { node: 1 })",
        "507415000 script failed reap keeps the window: pending 2 footprint (2, 60)",
        "507625000 script failed reap publishes nothing: latest Ok(24)",
        "507855000 waiter-a woke on v25: Ok",
        "507855000 waiter-b woke on v26: Ok",
        "508035000 script re-commit v26 retries the reap: Ok",
        "508065000 corpse late commit v25: Ok, latest Ok(26)",
        "508245000 script after the retry: latest Ok(26)",
        "508245000 script reaped: pending 0 footprint (0, 53)",
        "508455000 script assign: Ok",
        "508665000 script assign: Ok",
        "508875000 script assign: Ok",
        "509085000 script assign: Ok",
        "509295000 script commit v30: Ok",
        "509505000 script v30 waits behind v27: latest Ok(26)",
        "509715000 script commit v31: Err(NoSuchVersion { blob: BlobId(1), version: 31 })",
        "509715000 script wait v31: Err(NoSuchVersion { blob: BlobId(1), version: 31 })",
        "509715000 script wait v3: Ok",
        "509925000 script snapshot v27: Err(NoSuchVersion { blob: BlobId(1), version: 27 })",
        "510135000 script snapshot v26: Ok(SnapshotInfo { version: 26, total_pages: 26, total_bytes: 106496, page_size: 4096 })",
        "510135000 script force-complete v31: Err(NoSuchVersion { blob: BlobId(1), version: 31 })",
        "510135000 script force-complete v3: Ok",
        "510135000 script force-complete v30: Ok",
        "510345000 script assign 0 B: Err(EmptyWrite)",
        "510555000 script sync_index: Ok(26)",
        "511555000 script before delete: pending 4 footprint (4, 77)",
        "511765000 script delete: Ok",
        "511765000 waiter-d woke on v27: Err(NoSuchBlob(BlobId(1)))",
        "511765000 waiter-e woke on v28: Err(NoSuchBlob(BlobId(1)))",
        "511765000 waiter-c woke on v29: Err(NoSuchBlob(BlobId(1)))",
        "511975000 script commit v27: Err(NoSuchBlob(BlobId(1)))",
        "512185000 script assign: Err(NoSuchBlob(BlobId(1)))",
        "512185000 script wait v28: Err(NoSuchBlob(BlobId(1)))",
        "512395000 script snapshot: Err(NoSuchBlob(BlobId(1)))",
        "512395000 script sync_index: Err(NoSuchBlob(BlobId(1)))",
        "512395000 script force-complete v27: Err(NoSuchBlob(BlobId(1)))",
        "512395000 script reap: Ok",
        "512605000 script delete again: Err(NoSuchBlob(BlobId(1)))",
        "512605000 script deleted: pending 0 footprint (0, 0)",
        "fabric: 200 transfers, 32856 bytes, 512605000 ns",
    ];
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got, want, "transcript line {i}");
    }
    assert_eq!(got.len(), want.len(), "transcript length");
}

/// What one storm process saw.
#[derive(Default)]
struct Seen {
    /// Versions this process was assigned.
    assigned: Vec<u64>,
    /// `wait_published` calls that returned `Ok`.
    published: u64,
    /// `wait_published` calls that returned `NoSuchBlob`.
    gone: u64,
}

/// The version manager on real threads (the module header's "safe in live
/// mode where processes genuinely run in parallel", checked): eight writers
/// × fifty rounds on ONE blob — assign, a seeded 0–200 µs stall, commit,
/// `wait_published`, every seventh assignment abandoned to the reaper — two
/// processes looping `reap_expired` against a 50 ms write timeout, and four
/// waiters that poll until their version is assigned and then park on it.
///
/// With `delete_mid_storm` the blob is deleted 30 ms in, right after four
/// more waiters parked on four fresh, uncommitted versions: its registry
/// slot is gone when `delete_blob` returns, and every verb that starts after
/// the deletion and every waiter it wakes answers `NoSuchBlob`.
/// Either way nothing hangs: `fx.run()` returns.
fn live_storm(delete_mid_storm: bool) {
    const WRITERS: u64 = 8;
    const ROUNDS: u64 = 50;
    const N: u64 = WRITERS * ROUNDS;
    let fx = Fabric::live_seeded(ClusterSpec::tiny(17), 0x5EED_0023);
    let vm = vm_setup(50 * fabric::MILLIS);
    let seen: Arc<Mutex<Vec<Seen>>> = Arc::new(Mutex::new(Vec::new()));
    // 0 while the blob lives, 1 once `delete_blob` was called, 2 once it
    // returned.
    let phase = Arc::new(AtomicU64::new(0));

    let (vm0, seen0, phase0) = (vm.clone(), seen.clone(), phase.clone());
    fx.spawn(NodeId(2), "storm", move |p| {
        let (vm, seen, phase) = (vm0, seen0, phase0);
        let fx = p.fabric().clone();
        let blob = vm.create_blob(p, None);
        // A verb that started after the deletion returned answers
        // `NoSuchBlob`; one that started before may have landed either way;
        // nobody hears `NoSuchBlob` before the deletion was even called.
        let deleted = {
            let phase = phase.clone();
            move || phase.load(Ordering::SeqCst) == 2
        };
        let check = {
            let phase = phase.clone();
            move |started_after: bool, what: &str, r: Result<(), BlobError>| match r {
                Ok(()) if !started_after => true,
                Err(BlobError::NoSuchBlob(_)) if phase.load(Ordering::SeqCst) >= 1 => false,
                r => panic!("{what}: {r:?} (started after the deletion: {started_after})"),
            }
        };

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (vm, seen, deleted, check) =
                    (vm.clone(), seen.clone(), deleted.clone(), check.clone());
                fx.spawn(NodeId(3 + w as u32), format!("w{w}"), move |p| {
                    let mut mine = Seen::default();
                    for r in 0..ROUNDS {
                        let after = deleted();
                        let manifest = one_page_manifest(w * ROUNDS + r);
                        let a = vm.assign(p, blob, UpdateKind::Append, PS, manifest, 0);
                        let version = a.as_ref().map_or(0, |(d, _)| d.version);
                        if !check(after, "assign", a.map(|_| ())) {
                            continue;
                        }
                        mine.assigned.push(version);
                        if r % 7 == 6 {
                            continue; // abandoned: the reaper's to finish
                        }
                        let stall = p.rng().gen_range(0..200 * fabric::MICROS);
                        p.sleep(stall);
                        let after = deleted();
                        if !check(after, "commit", vm.commit(p, blob, version)) {
                            continue;
                        }
                        let after = deleted();
                        match check(after, "wait", vm.wait_published(p, blob, version)) {
                            true => mine.published += 1,
                            false => mine.gone += 1,
                        }
                    }
                    seen.lock().push(mine);
                })
            })
            .collect();
        // Set on the way out, also when an assertion above unwinds: a failure
        // must not leave the reapers looping and the run hanging.
        struct StopOnDrop(Arc<AtomicBool>);
        impl Drop for StopOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop_reapers = StopOnDrop(stop.clone());
        let reapers: Vec<_> = (0..2u32)
            .map(|i| {
                let (vm, stop) = (vm.clone(), stop.clone());
                fx.spawn(NodeId(11 + i), format!("reaper{i}"), move |p| {
                    while !stop.load(Ordering::SeqCst) {
                        vm.reap_expired(p, blob).unwrap();
                        p.sleep(fabric::MILLIS);
                    }
                })
            })
            .collect();
        // Park on `version` once it exists; exactly one answer each.
        let waiter = |node: u32, version: u64| {
            let (vm, seen, deleted, check) =
                (vm.clone(), seen.clone(), deleted.clone(), check.clone());
            fx.spawn(NodeId(node), format!("waiter-v{version}"), move |p| {
                let mut mine = Seen::default();
                loop {
                    let after = deleted();
                    match vm.wait_published(p, blob, version) {
                        Err(BlobError::NoSuchVersion { .. }) if !after => {
                            p.sleep(100 * fabric::MICROS);
                        }
                        r => {
                            match check(after, "parked wait", r) {
                                true => mine.published += 1,
                                false => mine.gone += 1,
                            }
                            break;
                        }
                    }
                }
                seen.lock().push(mine);
            })
        };
        let mut waiters: Vec<_> = (1..=4).map(|i| waiter(12 + i as u32, i * N / 4)).collect();

        if delete_mid_storm {
            p.sleep(30 * fabric::MILLIS);
            let fresh: Vec<u64> = (0..4)
                .map(|i| {
                    let manifest = one_page_manifest(N + i);
                    let (d, _) = vm
                        .assign(p, blob, UpdateKind::Append, PS, manifest, 0)
                        .unwrap();
                    d.version
                })
                .collect();
            waiters.extend(fresh.iter().map(|&v| waiter(2, v)));
            // Long enough for them to park, far short of the write timeout.
            p.sleep(5 * fabric::MILLIS);
            phase.store(1, Ordering::SeqCst);
            vm.delete_blob(p, blob).unwrap();
            phase.store(2, Ordering::SeqCst);
            // The slot left the registry before `delete_blob` returned; the
            // writers, reapers and waiters still holding it run out below.
            assert_eq!(vm.registry_len(), 0, "a deleted blob keeps no slot");
            for w in waiters.drain(4..) {
                w.join(p);
            }
            let woken: u64 = seen.lock().iter().map(|s| s.gone).sum();
            assert!(woken >= 4, "the four fresh waiters woke to NoSuchBlob");
            let gone = |r: Result<(), BlobError>| matches!(r, Err(BlobError::NoSuchBlob(_)));
            assert!(gone(vm.commit(p, blob, fresh[0])));
            assert!(gone(vm.wait_published(p, blob, fresh[1])));
            assert!(gone(vm.force_complete(p, blob, fresh[2])));
            assert!(gone(vm.snapshot(p, blob, None).map(|_| ())));
            assert!(gone(vm.sync_index(p, blob, 0).map(|_| ())));
            assert!(gone(vm.delete_blob(p, blob)));
            let manifest = one_page_manifest(N + 4);
            let a = vm.assign(p, blob, UpdateKind::Append, PS, manifest, 0);
            assert!(gone(a.map(|_| ())));
        }
        for w in writers.iter().chain(&waiters) {
            w.join(p);
        }
        if !delete_mid_storm {
            // The last abandoned versions are still the reapers' to finish.
            vm.wait_published(p, blob, N).unwrap();
            assert_eq!(vm.latest(p, blob).unwrap(), N);
        }
        drop(stop_reapers);
        for r in &reapers {
            r.join(p);
        }
        assert_eq!(vm.pending_count(blob), 0);
    });
    fx.run();

    let seen = seen.lock();
    if !delete_mid_storm {
        let mut assigned: Vec<u64> = seen.iter().flat_map(|s| &s.assigned).copied().collect();
        assigned.sort_unstable();
        assert_eq!(assigned, (1..=N).collect::<Vec<_>>(), "dense and unique");
        let abandoned = WRITERS * (ROUNDS / 7);
        let returned: u64 = seen.iter().map(|s| s.published).sum();
        assert_eq!(returned, N - abandoned + 4, "every wait returned once");
        assert_eq!(seen.iter().map(|s| s.gone).sum::<u64>(), 0);
    }
    assert_eq!(
        seen.len() as u64,
        WRITERS + if delete_mid_storm { 8 } else { 4 }
    );
}

#[test]
fn live_version_manager_storm_publishes_every_version_once() {
    live_storm(false);
}

#[test]
fn live_version_manager_storm_survives_a_mid_storm_delete() {
    live_storm(true);
}
