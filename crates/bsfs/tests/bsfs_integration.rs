//! BSFS end-to-end tests: the dfs contract, plus the behaviours specific to
//! the paper — concurrent appends to a shared file and reader/appender
//! isolation through versioning.

use std::sync::Arc;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};

fn d(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

fn deploy_sim(nodes: u32, block: u64) -> (Fabric, Bsfs) {
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let fs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(block),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    (fx, fs)
}

fn pattern(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 249) as u8))
        .collect()
}

#[test]
fn satisfies_the_filesystem_contract() {
    let (fx, fs) = deploy_sim(6, 4096);
    let h = fx.spawn(NodeId(0), "contract", move |p| {
        dfs::contract::exercise_filesystem(&fs, p);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn satisfies_the_contract_in_live_mode() {
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let fs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(4096),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let h = fx.spawn(NodeId(0), "contract", move |p| {
        dfs::contract::exercise_filesystem(&fs, p);
    });
    fx.run();
    h.take().unwrap();
}

/// The handle cases of the dfs contract on 4 KiB blocks. BSFS ships every
/// buffered whole block as one append while writing and what is left as
/// one more at `close`, so a file's appends are its BLOB's versions:
/// three blocks in one `write` are one append.
#[test]
fn handles_buffer_and_window_by_the_contract() {
    let (fx, fs) = deploy_sim(6, 4096);
    let h = fx.spawn(NodeId(0), "handles", move |p| {
        let client = fs.store().client();
        let appends = |p: &Proc, path: &DfsPath| {
            let blob = fs.blob_of(p, path).unwrap();
            client.latest(p, blob).unwrap()
        };
        dfs::contract::exercise_handles(&fs, p, &appends)
    });
    fx.run();
    let want = [
        ("below", 1, 6_150_000),
        ("at", 1, 5_150_000),
        ("across", 2, 6_350_000),
        ("several:write", 1, 4_400_000),
        ("several:close", 2, 3_250_000),
        ("empty", 0, 4_000_000),
        ("reads", 2, 2_800_000),
        ("snapshot", 3, 4_950_000),
    ];
    assert_eq!(h.take().unwrap(), want);
}

/// A flush that cannot land: with every provider down, the `write` that
/// fills a block fails with the append's error and the block it carried is
/// gone; the half block behind it stays buffered, so the first `close`
/// fails the same way, and the second finds nothing left and closes.
#[test]
fn a_failed_flush_returns_the_append_error() {
    let (fx, fs) = deploy_sim(4, 1000);
    let h = fx.spawn(NodeId(0), "writer", move |p| {
        let path = d("/down");
        let mut w = fs.create(p, &path).unwrap();
        let store = fs.store();
        for i in 0..store.providers().len() {
            store
                .inject(blobseer::FaultTarget::Provider(i), blobseer::Fault::Crash)
                .unwrap();
        }
        let mut results = Vec::new();
        results.push(format!(
            "{:?}",
            w.write(p, Payload::from_vec(pattern(1500, 1)))
        ));
        results.push(format!("{:?}", w.close(p)));
        results.push(format!("{:?}", w.close(p)));
        results.push(format!(
            "{:?}",
            w.write(p, Payload::from_vec(pattern(1, 2)))
        ));
        results.push(format!("written {}", w.written()));
        store.heal_all();
        results.push(format!("len {}", fs.status(p, &path).unwrap().len));
        results.push(format!("time {}", p.now()));
        results
    });
    fx.run();
    let down = "Err(Storage(\"no live providers available\"))";
    let want = [
        down,
        down,
        "Ok(())",
        "Err(HandleClosed)",
        "written 1500",
        "len 0",
        "time 2000000",
    ];
    assert_eq!(h.take().unwrap(), want);
}

#[test]
fn write_behind_buffers_until_block_boundary() {
    let (fx, fs) = deploy_sim(4, 1000);
    let h = fx.spawn(NodeId(0), "writer", move |p| {
        let mut w = fs.create(p, &d("/buffered")).unwrap();
        // 600 bytes: below the block size, nothing committed yet.
        w.write(p, Payload::from_vec(pattern(600, 1))).unwrap();
        assert_eq!(fs.status(p, &d("/buffered")).unwrap().len, 0);
        // 600 more: one full block flushes (1000), 200 stay buffered.
        w.write(p, Payload::from_vec(pattern(600, 2))).unwrap();
        assert_eq!(fs.status(p, &d("/buffered")).unwrap().len, 1000);
        // Close flushes the 200-byte tail.
        w.close(p).unwrap();
        assert_eq!(fs.status(p, &d("/buffered")).unwrap().len, 1200);
        let mut want = pattern(600, 1);
        want.extend_from_slice(&pattern(600, 2));
        let got = fs.read_file(p, &d("/buffered")).unwrap();
        assert_eq!(got.bytes().as_ref(), &want[..]);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn concurrent_appenders_to_one_shared_file() {
    // The paper's headline scenario: N clients appending whole blocks to the
    // same file; all blocks land atomically.
    let (fx, fs) = deploy_sim(10, 512);
    let fs_setup = fs.clone();
    let ready = fx.gate();
    let r2 = ready.clone();
    fx.spawn(NodeId(0), "setup", move |p| {
        let mut w = fs_setup.create(p, &d("/shared")).unwrap();
        w.close(p).unwrap();
        r2.set();
    });
    let n = 6usize;
    let block = 512usize;
    let per_appender = 4usize; // blocks each
    for i in 0..n {
        let fs2 = fs.clone();
        let ready2 = ready.clone();
        fx.spawn(NodeId(1 + i as u32), format!("appender{i}"), move |p| {
            ready2.wait(p);
            let mut w = fs2.append(p, &d("/shared")).unwrap();
            for b in 0..per_appender {
                w.write(
                    p,
                    Payload::from_vec(pattern(block, (i * per_appender + b) as u8 + 1)),
                )
                .unwrap();
            }
            w.close(p).unwrap();
        });
    }
    let fs3 = fs.clone();
    let result = Arc::new(parking_lot::Mutex::new(None));
    let res2 = result.clone();
    let fxc = fx.clone();
    let ready_v = ready.clone();
    fx.spawn(NodeId(9), "verifier", move |p: &Proc| {
        ready_v.wait(p);
        // Wait for all appenders (crude: poll the size).
        let want = (n * per_appender * block) as u64;
        loop {
            if fs3.status(p, &d("/shared")).unwrap().len == want {
                break;
            }
            p.sleep(10 * fabric::MILLIS);
        }
        let got = fs3.read_file(p, &d("/shared")).unwrap();
        let bytes = got.bytes().clone();
        // Every 512-byte block is intact (atomic appends).
        let mut seen = std::collections::HashSet::new();
        for chunk in bytes.chunks(block) {
            let tag = chunk[0];
            assert_eq!(
                chunk,
                &pattern(block, tag)[..],
                "block with tag {tag} corrupted"
            );
            assert!(seen.insert(tag), "tag {tag} duplicated");
        }
        assert_eq!(seen.len(), n * per_appender);
        *res2.lock() = Some(seen.len());
        let _ = &fxc;
    });
    fx.run();
    assert_eq!(result.lock().unwrap(), n * per_appender);
}

#[test]
fn readers_see_open_time_snapshot_while_appends_continue() {
    let (fx, fs) = deploy_sim(6, 256);
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        let base = pattern(1024, 5);
        fs.write_file(p, &d("/log"), Payload::from_vec(base.clone()))
            .unwrap();
        let mut reader = fs.open(p, &d("/log")).unwrap();
        assert_eq!(reader.len(), 1024);
        // Concurrent appends (same proc for determinism; versioning is what
        // isolates, not scheduling).
        let mut w = fs.append(p, &d("/log")).unwrap();
        w.write(p, Payload::from_vec(pattern(512, 9))).unwrap();
        w.close(p).unwrap();
        // The pinned reader still sees exactly the old bytes.
        assert_eq!(reader.len(), 1024);
        let got = reader.read_at(p, 0, 1024).unwrap();
        assert_eq!(got.bytes().as_ref(), &base[..]);
        // A fresh open sees the appended data.
        let mut r2 = fs.open(p, &d("/log")).unwrap();
        assert_eq!(r2.len(), 1536);
        let tail = r2.read_at(p, 1024, 512).unwrap();
        assert_eq!(tail.bytes().as_ref(), &pattern(512, 9)[..]);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn block_locations_enable_locality() {
    let (fx, fs) = deploy_sim(8, 512);
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        fs.write_file(p, &d("/data"), Payload::from_vec(pattern(2048, 3)))
            .unwrap();
        let locs = fs.block_locations(p, &d("/data"), 0, 2048).unwrap();
        assert_eq!(locs.len(), 4);
        for (i, l) in locs.iter().enumerate() {
            assert_eq!(l.offset, i as u64 * 512);
            assert_eq!(l.len, 512);
            assert_eq!(l.hosts.len(), 1); // replication = 1
        }
        // Locations must point at actual providers.
        let provider_nodes: std::collections::HashSet<_> =
            fs.store().providers().iter().map(|pr| pr.node()).collect();
        for l in &locs {
            assert!(provider_nodes.contains(&l.hosts[0]));
        }
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn prefetch_serves_small_reads_from_cache() {
    let (fx, fs) = deploy_sim(4, 4096);
    let h = fx.spawn(NodeId(0), "driver", move |p| {
        // One block of data; many small sequential reads (the paper: Hadoop
        // reads ~4 KB records) must hit the metadata DHT only once.
        fs.write_file(p, &d("/records"), Payload::from_vec(pattern(4096, 8)))
            .unwrap();
        let gets_before: u64 = fs
            .store()
            .metadata_dht()
            .servers()
            .iter()
            .map(|s| s.op_counts().1)
            .sum();
        let mut r = fs.open(p, &d("/records")).unwrap();
        let mut assembled = Vec::new();
        loop {
            let chunk = r.read(p, 128).unwrap();
            if chunk.is_empty() {
                break;
            }
            assembled.extend_from_slice(chunk.bytes());
        }
        assert_eq!(assembled, pattern(4096, 8));
        let gets_after: u64 = fs
            .store()
            .metadata_dht()
            .servers()
            .iter()
            .map(|s| s.op_counts().1)
            .sum();
        let tree_gets = gets_after - gets_before;
        assert!(
            tree_gets <= 3,
            "expected one cached block fetch (few tree gets), saw {tree_gets}"
        );
    });
    fx.run();
    h.take().unwrap();
}

/// The namespace → blob mapping under *real* parallelism: in live mode
/// (genuine OS threads, no one-proc-at-a-time scheduler) a horde of writers
/// concurrently creates disjoint files and appends to them through the
/// sharded version-manager control plane. Every file must map to its own
/// BLOB, hold exactly its own bytes, and the shared-file appenders must
/// still interleave at whole-append granularity.
#[test]
fn parallel_writers_disjoint_files_live_mode() {
    const WRITERS: u32 = 12;
    const APPENDS: usize = 6;
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let fs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(256),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs2 = fs.clone();
        handles.push(fx.spawn(
            NodeId(w % 4),
            format!("writer{w}"),
            move |p: &Proc| -> (DfsPath, Vec<u8>) {
                let path = d(&format!("/par/file-{w}"));
                let mut want = Vec::new();
                {
                    let mut wtr = fs2.create(p, &path).unwrap();
                    wtr.close(p).unwrap();
                }
                for a in 0..APPENDS {
                    let chunk = pattern(100 + w as usize + a, w as u8);
                    want.extend_from_slice(&chunk);
                    fs2.append_all(p, &path, Payload::from_vec(chunk)).unwrap();
                }
                (path, want)
            },
        ));
    }
    fx.run();
    let results: Vec<(DfsPath, Vec<u8>)> = handles.iter().map(|h| h.take().unwrap()).collect();
    // Live worlds accept post-run spawns: verify from a fresh process after
    // every writer has finished.
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(0), "verify", move |p: &Proc| {
        let mut blobs = std::collections::HashSet::new();
        for (path, want) in &results {
            // Each file maps to a distinct BLOB...
            assert!(
                blobs.insert(fs2.blob_of(p, path).unwrap()),
                "two files share a BLOB"
            );
            // ...whose published content is exactly what its writer sent.
            let status = fs2.status(p, path).unwrap();
            assert_eq!(status.len, want.len() as u64, "length of {path}");
            let mut r = fs2.open(p, path).unwrap();
            let got = r.read_at(p, 0, want.len() as u64).unwrap();
            assert_eq!(got.bytes(), &want[..], "content of {path}");
        }
        results.len()
    });
    fx.run();
    assert_eq!(h.take().unwrap(), WRITERS as usize);
}

/// Concurrent appenders to one shared file *and* private files at once, in
/// live mode: per-BLOB ordering (dense versions on the shared file) must
/// hold while disjoint files proceed independently on their own locks.
#[test]
fn parallel_shared_and_private_appends_live_mode() {
    const WRITERS: u32 = 8;
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let fs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(256),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    {
        let fs2 = fs.clone();
        fx.spawn(NodeId(0), "setup", move |p: &Proc| {
            let mut w = fs2.create(p, &d("/shared")).unwrap();
            w.close(p).unwrap();
        });
    }
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs2 = fs.clone();
        handles.push(fx.spawn(NodeId(w % 4), format!("w{w}"), move |p: &Proc| {
            // Live mode has no start barrier; create() on the shared path
            // may race setup, so retry, bounded by elapsed time (an
            // iteration bound would flake when a loaded machine deschedules
            // the setup thread).
            let t0 = p.now();
            while fs2.status(p, &d("/shared")).is_err() {
                assert!(
                    p.now() - t0 < 10 * fabric::SECS,
                    "setup never created /shared"
                );
                p.sleep(fabric::MILLIS);
            }
            let private = d(&format!("/private-{w}"));
            let mut wtr = fs2.create(p, &private).unwrap();
            wtr.close(p).unwrap();
            fs2.append_all(p, &d("/shared"), Payload::from_vec(pattern(256, w as u8)))
                .unwrap();
            fs2.append_all(p, &private, Payload::from_vec(pattern(64, w as u8)))
                .unwrap();
        }));
    }
    fx.run();
    for h in &handles {
        h.take().unwrap();
    }
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(0), "verify", move |p: &Proc| {
        let shared_blob = fs2.blob_of(p, &d("/shared")).unwrap();
        let latest = fs2.store().client().latest(p, shared_blob).unwrap();
        assert_eq!(latest, WRITERS as u64, "shared-file versions are dense");
        assert_eq!(
            fs2.status(p, &d("/shared")).unwrap().len,
            WRITERS as u64 * 256
        );
        for w in 0..WRITERS {
            assert_eq!(fs2.status(p, &d(&format!("/private-{w}"))).unwrap().len, 64);
        }
    });
    fx.run();
    h.take().unwrap();
}

/// Registry drain end to end through the namespace: a deleted file's BLOB
/// is unreachable and its registry slot gone the moment `delete` returns,
/// and live files are never disturbed.
#[test]
fn deleted_files_drop_their_blob_slots_at_delete() {
    let (fx, fs) = deploy_sim(4, 4096);
    let fs2 = fs.clone();
    let driver = fx.spawn(NodeId(1), "driver", move |p| {
        let vm = fs2.store().version_manager().clone();
        for name in ["/gc/a", "/gc/b", "/gc/c"] {
            let mut w = fs2.create(p, &d(name)).unwrap();
            w.write(p, Payload::from_vec(pattern(100, 3))).unwrap();
            w.close(p).unwrap();
        }
        assert_eq!(vm.registry_len(), 3);
        let doomed = fs2.blob_of(p, &d("/gc/b")).unwrap();
        assert!(fs2.delete(p, &d("/gc/b"), false).unwrap());
        // The BLOB is unreachable immediately...
        assert!(matches!(
            fs2.store().client().latest(p, doomed),
            Err(blobseer::BlobError::NoSuchBlob(_))
        ));
        // ...and its slot is already gone.
        assert_eq!(vm.registry_len(), 2);
        // Recreating the path binds a fresh BLOB; the survivors are intact.
        let mut w = fs2.create(p, &d("/gc/b")).unwrap();
        w.close(p).unwrap();
        assert_ne!(fs2.blob_of(p, &d("/gc/b")).unwrap(), doomed);
        let mut r = fs2.open(p, &d("/gc/a")).unwrap();
        assert_eq!(r.read_at(p, 0, 100).unwrap().bytes(), &pattern(100, 3)[..]);
        // A recursive directory delete retires every file inside at once.
        assert!(fs2.delete(p, &d("/gc"), true).unwrap());
        assert_eq!(vm.registry_len(), 0);
    });
    fx.run();
    driver.take().unwrap();
}

/// Live-mode (real OS threads) storage-plane variant: concurrent writers
/// drive the page maps of in-memory providers and the node maps of
/// in-memory metadata servers in genuine parallelism while the background
/// reaper reclaims a dead
/// allocator's lease on the wall clock. Content, capacity books and the
/// lease table all come out exact.
#[test]
fn live_mode_writers_and_reaper_reclaim_storage_plane() {
    const WRITERS: u32 = 8;
    const APPENDS: usize = 4;
    // Generous wall-clock lease: a healthy writer thread must be able to
    // finish allocate→store→settle well inside it even on a loaded CI
    // runner, so only the deliberate corpse's lease ever expires.
    let timeout = 500 * fabric::MILLIS;
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let mut cfg = BlobSeerConfig::test_small(256);
    cfg.timeouts.write_timeout_ns = timeout;
    cfg.timeouts.reaper_interval_ns = 25 * fabric::MILLIS;
    let fs = Bsfs::deploy(&fx, cfg, Layout::compact(fx.spec())).unwrap();
    let reaper = fs.start_reaper(&fx);
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs2 = fs.clone();
        handles.push(
            fx.spawn(NodeId(w % 4), format!("writer{w}"), move |p: &Proc| {
                let path = d(&format!("/live/f{w}"));
                {
                    let mut wtr = fs2.create(p, &path).unwrap();
                    wtr.close(p).unwrap();
                }
                let mut total = 0u64;
                for a in 0..APPENDS {
                    let n = 100 + (w as usize * APPENDS + a);
                    total += n as u64;
                    fs2.append_all(p, &path, Payload::from_vec(vec![w as u8; n]))
                        .unwrap();
                }
                (path, total)
            }),
        );
    }
    // A corpse that dies pre-page-store, concurrently with the writers.
    let fs_corpse = fs.clone();
    let corpse = fx.spawn(NodeId(0), "corpse", move |p: &Proc| {
        let pm = fs_corpse.store().provider_manager().clone();
        pm.allocate(p, &[(blobseer::PageId(0xDEAD, 0), 512)], 1, &[])
            .unwrap();
    });
    let fs_check = fs.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        let results: Vec<(DfsPath, u64)> = handles.iter().map(|h| h.join(p)).collect();
        corpse.join(p);
        for (path, total) in &results {
            assert_eq!(fs_check.status(p, path).unwrap().len, *total);
        }
        // Give the reaper a few wall-clock ticks past the lease deadline.
        p.sleep(2 * timeout);
        let pm = fs_check.store().provider_manager();
        assert_eq!(pm.outstanding_leases(), 0, "all leases settled or reaped");
        // At least the corpse's lease expired and returned its 512 B. A
        // writer thread descheduled past the (generous) deadline would add
        // to these counters, so the bounds are >= rather than == — the
        // token semantics of release keep the books exact either way.
        let (expired, reclaimed) = pm.lease_reap_stats();
        assert!(expired >= 1, "the corpse's lease must have expired");
        assert!(reclaimed >= 512, "the corpse's 512 B must have returned");
        for pr in fs_check.store().providers() {
            assert_eq!(
                pr.load_estimate(),
                pr.stored_bytes(),
                "live-mode books must balance after the reap"
            );
        }
        reaper.stop();
        results.len()
    });
    fx.run();
    assert_eq!(driver.take().unwrap(), WRITERS as usize);
}
