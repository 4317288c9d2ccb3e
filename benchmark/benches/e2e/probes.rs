//! Per-layer probes: single-threaded timing loops that call one layer's
//! public functions directly, with the shape the live workloads produce
//! (4 KiB and 64 KiB pages, 16 KiB appends, 256 KiB reads). Each reports the
//! median nanoseconds of a call. They run after the workload in the traced
//! run only, on deployments of their own, and never feed an end-to-end
//! number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use blobseer::meta::{plan_write, NodeKey};
use blobseer::provider::Provider;
use blobseer::types::UpdateKind;
use blobseer::{DescIndex, PageId, PageRef, ReadCache, WriteDesc, WriteKind};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use mapreduce::shuffle::{SegmentKey, SegmentSource};
use mapreduce::{record, MapOutputRegistry, KV};

use crate::gen::{append_record, BlobContent, Rng, ZipfText, BLOCK};
use crate::live::{on_fabric, Deployment, MIB, RECORD};
use crate::stats::{median, percentile};
use crate::sys;

type Out = BTreeMap<String, f64>;

/// Median ns per call over `batches` timed batches of `per_batch` calls
/// (batching keeps the clock reads out of sub-microsecond calls).
fn per_call(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Time one call.
fn timed<T>(samples: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_nanos() as u64);
    out
}

fn med(samples: &mut [u64]) -> f64 {
    percentile(samples, 0.5) as f64
}

fn page_id(rng: &mut Rng) -> PageId {
    PageId(rng.next_u64(), rng.next_u64())
}

/// Iteration counts shrink 20x under `--quick`.
struct Scale(usize);

impl Scale {
    fn n(&self, full: usize) -> usize {
        (full / self.0).max(20)
    }
}

pub fn run_all(out: &mut Out, seed: u64, quick: bool) {
    let scale = Scale(if quick { 20 } else { 1 });
    fabric_probes(out, &scale);
    pstore_probes(out, seed, &scale);
    write_path_probes(out, seed, &scale);
    read_path_probes(out, seed, &scale, quick);
    structure_probes(out, seed, &scale);
    bsfs_probes(out, seed, &scale);
    mapreduce_probes(out, seed, quick);
}

fn fabric_probes(out: &mut Out, scale: &Scale) {
    // Two sim processes ping-pong over a pair of queues: every message is
    // one engine hand-off from the running process to the next.
    let rounds = scale.n(2000);
    let fx = Fabric::sim(ClusterSpec::tiny(2));
    let (ping, pong) = (fx.queue::<u32>(), fx.queue::<u32>());
    {
        let (ping, pong) = (ping.clone(), pong.clone());
        fx.spawn(NodeId(0), "ping", move |p| {
            for i in 0..rounds as u32 {
                ping.send(i);
                pong.recv(p);
            }
            ping.close();
        });
    }
    fx.spawn(NodeId(1), "pong", move |p| {
        while let Some(i) = ping.recv(p) {
            pong.send(i);
        }
    });
    let t = Instant::now();
    fx.run();
    out.insert(
        "fabric.sim_handoff_ns".into(),
        t.elapsed().as_nanos() as f64 / (2 * rounds) as f64,
    );

    // 100 processes each moving 1 MB between node pairs at once: the fluid
    // model re-shares bandwidth at every flow start and end.
    let (flows, each) = (100u32, scale.n(100) / 20);
    let fx = Fabric::sim(ClusterSpec::tiny(flows));
    for i in 0..flows {
        fx.spawn(NodeId(i), format!("flow{i}"), move |p| {
            for k in 0..each as u32 {
                p.send_to(NodeId((i + 1 + k) % flows), 1_000_000);
            }
        });
    }
    let t = Instant::now();
    fx.run();
    out.insert(
        "fabric.sim_transfer_ns".into(),
        t.elapsed().as_nanos() as f64 / (flows as usize * each) as f64,
    );

    // Live mode: spawn a process (an OS thread) and wait for it — what every
    // multi-provider page batch pays through `run_parallel`.
    let fx = Fabric::live(ClusterSpec::tiny(1));
    out.insert(
        "fabric.live_spawn_ns".into(),
        per_call(10, scale.n(400) / 20, || {
            fx.spawn(NodeId(0), "noop", |_| ());
            fx.run();
        }),
    );
}

fn pstore_probes(out: &mut Out, seed: u64, scale: &Scale) {
    let dir = sys::fresh_work_dir("probe-pstore");
    let mut rng = Rng::lane(seed, 40);
    for (label, size, n) in [
        ("4k", 4096usize, scale.n(4000)),
        ("64k", 65536, scale.n(400)),
    ] {
        let store = pstore::Store::open(dir.join(label)).expect("open store");
        let value = append_record(seed, 0, 0, size);
        let keys: Vec<[u8; 18]> = (0..n)
            .map(|_| {
                let mut k = [0u8; 18];
                k[..2].copy_from_slice(b"p/");
                k[2..10].copy_from_slice(&rng.next_u64().to_be_bytes());
                k[10..].copy_from_slice(&rng.next_u64().to_be_bytes());
                k
            })
            .collect();
        // put = encode + checksum + index insert into the write buffer;
        // the buffer reaches the OS every 4 records, as one append's batch
        // does on a provider.
        let (mut puts, mut flushes) = (Vec::with_capacity(n), Vec::with_capacity(n / 4));
        for (i, k) in keys.iter().enumerate() {
            timed(&mut puts, || store.put(k, &value).expect("put"));
            if i % 4 == 3 {
                timed(&mut flushes, || store.flush_buffered().expect("flush"));
            }
        }
        store.flush_buffered().expect("flush");
        out.insert(format!("pstore.put_{label}_ns"), med(&mut puts));
        if label == "4k" {
            out.insert("pstore.flush_ns".into(), med(&mut flushes));
        }
        let mut gets = Vec::with_capacity(n);
        for _ in 0..n {
            let k = &keys[rng.below(n as u64) as usize];
            let v = timed(&mut gets, || store.get(k).expect("get"));
            assert_eq!(v.map(|v| v.len()), Some(size));
        }
        out.insert(format!("pstore.get_{label}_ns"), med(&mut gets));
        if label == "4k" {
            // Recovery of one provider's share of a `live_append` round:
            // replay the whole log (no checkpoint, the deployment default).
            drop(store);
            let t = Instant::now();
            let reopened = pstore::Store::open(dir.join(label)).expect("reopen store");
            out.insert("pstore.reopen_ms".into(), t.elapsed().as_secs_f64() * 1e3);
            assert_eq!(reopened.len(), n);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One append taken apart from outside, step by step through the public
/// function of each layer it crosses, then the whole `BlobClient::append` on
/// the same deployment. `client.append_unattributed_ns` is what the outside
/// view cannot name: page grouping, thread hand-offs, waiting for
/// publication, glue.
fn write_path_probes(out: &mut Out, seed: u64, scale: &Scale) {
    let dep = Deployment::live("probe-write", seed, 4, 4096, 0);
    let bs = dep.bs.clone();
    let n = scale.n(2000);
    let n_whole = scale.n(1000);
    let results = on_fabric(&dep.fx, "probe", move |p| {
        let (pm, vm, dht) = (
            bs.provider_manager(),
            bs.version_manager(),
            bs.metadata_dht(),
        );
        let client = bs.client();
        let blob = client.create(p, None);
        let mut rng = Rng::lane(seed, 41);
        let mut t: [Vec<u64>; 7] = Default::default();
        for seq in 0..n as u64 {
            let data = Payload::from_vec(append_record(seed, 0, seq, RECORD));
            let pages: Vec<(PageId, Payload)> = data
                .chunks(4096)
                .into_iter()
                .map(|c| (page_id(&mut rng), c))
                .collect();
            let sizes: Vec<(PageId, u64)> = pages.iter().map(|(id, c)| (*id, c.len())).collect();
            let (lease, placements) =
                timed(&mut t[0], || pm.allocate(p, &sizes, 1, &[])).expect("allocate");
            // All four pages to the first page's provider: one persistent
            // put_pages batch, the unit the client sends per provider.
            let target: Arc<Provider> = placements[0][0].clone();
            let manifest: Arc<Vec<PageRef>> = Arc::new(
                sizes
                    .iter()
                    .map(|&(id, byte_len)| PageRef {
                        id,
                        byte_len,
                        providers: vec![target.node()],
                    })
                    .collect(),
            );
            let stored = timed(&mut t[1], || target.put_pages(p, pages));
            assert!(stored.iter().all(Result::is_ok));
            timed(&mut t[2], || pm.settle(p, lease));
            let (desc, index) = timed(&mut t[3], || {
                vm.assign(
                    p,
                    blob,
                    UpdateKind::Append,
                    RECORD as u64,
                    manifest.clone(),
                    seq,
                )
            })
            .expect("assign");
            let nodes = timed(&mut t[4], || plan_write(blob, &index, &desc, &manifest));
            timed(&mut t[5], || dht.put_batch(p, nodes)).expect("put_batch");
            timed(&mut t[6], || vm.commit(p, blob, desc.version)).expect("commit");
        }

        // Reads of the control plane against the history just built.
        let latest = n as u64;
        let snapshot = per_call(20, n / 20, || {
            black_box(vm.snapshot(p, blob, None).expect("snapshot"));
        });
        let sync = |behind: u64| {
            per_call(20, n / 20, || {
                black_box(
                    vm.sync_index(p, blob, latest.saturating_sub(behind))
                        .expect("sync"),
                );
            })
        };
        let (sync_1, sync_1000) = (sync(1), sync(1000));
        // Four leaves, as one 16 KiB read of 4 KiB pages resolves: version v
        // owns pages 4(v-1)..4v.
        let mut gets = Vec::with_capacity(n);
        for _ in 0..n {
            let v = 1 + rng.below(latest);
            let keys: Vec<NodeKey> = (4 * (v - 1)..4 * v)
                .map(|page| NodeKey {
                    blob,
                    version: v,
                    page_lo: page,
                    page_hi: page + 1,
                })
                .collect();
            let got = timed(&mut gets, || dht.get_batch(p, &keys)).expect("get_batch");
            assert!(got.iter().all(Option::is_some));
        }

        // The whole operation, one thread, on a blob of its own.
        let whole_blob = client.create(p, None);
        let mut whole = Vec::with_capacity(n_whole);
        for seq in 0..n_whole as u64 {
            let data = Payload::from_vec(append_record(seed, 1, seq, RECORD));
            timed(&mut whole, || client.append(p, whole_blob, data)).expect("append");
        }
        (t, snapshot, sync_1, sync_1000, gets, whole)
    });
    let (mut t, snapshot, sync_1, sync_1000, mut gets, mut whole) = results;
    let names = [
        "provider_manager.allocate_ns",
        "provider.put_pages_ns",
        "provider_manager.settle_ns",
        "version_manager.assign_ns",
        "meta.plan_write_ns",
        "dht.put_batch_ns",
        "version_manager.commit_ns",
    ];
    let mut attributed = 0.0;
    for (name, samples) in names.iter().zip(t.iter_mut()) {
        let v = med(samples);
        attributed += v;
        out.insert(name.to_string(), v);
    }
    let append = med(&mut whole);
    out.insert("client.append_ns".into(), append);
    out.insert("client.append_unattributed_ns".into(), append - attributed);
    out.insert("version_manager.snapshot_ns".into(), snapshot);
    out.insert("version_manager.sync_index_1_ns".into(), sync_1);
    out.insert("version_manager.sync_index_1000_ns".into(), sync_1000);
    out.insert("dht.get_batch_ns".into(), med(&mut gets));
}

/// `live_read_cold` / `live_read_warm` in small, one reader: the provider's
/// batched get, then whole client reads with a cache an eighth of the blob
/// (cold) and over a region that fits it (warm).
fn read_path_probes(out: &mut Out, seed: u64, scale: &Scale, quick: bool) {
    let (page, read_len) = (64 * 1024u64, 256 * 1024u64);
    let blob_bytes = if quick { 8 * MIB } else { 32 * MIB };
    let cache = blob_bytes / 8;
    let dep = Deployment::live("probe-read", seed, 4, page, cache);
    let content = Arc::new(BlobContent::new(seed, blob_bytes));
    let blob = {
        let content = content.clone();
        dep.preload(blob_bytes, move |i| content.bytes(i * MIB, MIB))
    };
    let bs = dep.bs.clone();
    let (n_cold, n_warm) = (scale.n(240), scale.n(3000));
    let (get_pages, cold, warm) = on_fabric(&dep.fx, "probe", move |p| {
        let mut rng = Rng::lane(seed, 42);
        let mut get_pages = Vec::new();
        // Four 64 KiB pages from one persistent provider in one batch. Page
        // ids are private to the metadata, so the probe stores pages of its
        // own on a provider of its own.
        let dir = sys::fresh_work_dir("probe-provider");
        let provider = Provider::new_persistent(NodeId(0), &dir).expect("provider");
        let ids: Vec<PageId> = (0..256).map(|_| page_id(&mut rng)).collect();
        let value = Payload::from_vec(vec![7u8; page as usize]);
        for batch in ids.chunks(4) {
            let stored =
                provider.put_pages(p, batch.iter().map(|&id| (id, value.clone())).collect());
            assert!(stored.iter().all(Result::is_ok));
        }
        for _ in 0..n_cold {
            let at = rng.below(ids.len() as u64 / 4) as usize * 4;
            let got = timed(&mut get_pages, || provider.get_pages(p, &ids[at..at + 4]));
            assert!(got.iter().all(Result::is_ok));
        }
        drop(provider);
        let _ = std::fs::remove_dir_all(&dir);

        let read =
            |client: &blobseer::BlobClient, rng: &mut Rng, region: u64, samples: &mut Vec<u64>| {
                let off = rng.below((region - read_len) / BLOCK + 1) * BLOCK;
                let data =
                    timed(samples, || client.read(p, blob, None, off, read_len)).expect("read");
                assert_eq!(
                    crate::gen::word_sum(data.bytes()),
                    content.expected_sum(off, read_len)
                );
            };
        let cold_client = bs.client();
        let mut cold = Vec::with_capacity(n_cold);
        for i in 0..n_cold + n_cold / 4 {
            read(&cold_client, &mut rng, blob_bytes, &mut cold);
            if i + 1 == n_cold / 4 {
                cold.clear(); // the first quarter filled the cache
            }
        }
        let warm_client = bs.client();
        let hot = cache / 2;
        let mut warm = Vec::with_capacity(n_warm);
        let mut off = 0;
        while off < hot {
            warm_client
                .read(p, blob, None, off, read_len)
                .expect("warm pass");
            off += read_len;
        }
        for _ in 0..n_warm {
            read(&warm_client, &mut rng, hot, &mut warm);
        }
        (get_pages, cold, warm)
    });
    let (mut get_pages, mut cold, mut warm) = (get_pages, cold, warm);
    out.insert("provider.get_pages_ns".into(), med(&mut get_pages));
    out.insert("client.read_cold_ns".into(), med(&mut cold));
    out.insert("client.read_warm_ns".into(), med(&mut warm));
}

/// The in-memory structures: descriptor index and read cache.
fn structure_probes(out: &mut Out, seed: u64, scale: &Scale) {
    let mut rng = Rng::lane(seed, 43);
    // A history of 16 KiB appends of 4 KiB pages, as `live_append` builds.
    let versions = scale.n(30_000) as u64;
    let desc = |v: u64| WriteDesc {
        version: v,
        kind: WriteKind::Append,
        page_lo: 4 * (v - 1),
        page_hi: 4 * v,
        byte_lo: 16384 * (v - 1),
        byte_hi: 16384 * v,
        total_pages: 4 * v,
        total_bytes: 16384 * v,
    };
    let mut index = DescIndex::new(4096);
    let mut v = 0;
    out.insert(
        "desc_index.apply_ns".into(),
        per_call(20, versions as usize / 20, || {
            v += 1;
            index.apply(&desc(v));
        }),
    );
    let total = index.total_bytes();
    out.insert(
        "desc_index.page_containing_ns".into(),
        per_call(20, 5000, || {
            black_box(index.page_containing(rng.below(total)));
        }),
    );

    // 32 MiB cache, 64 KiB pages, eight times as many keys as fit: every
    // insert past the first 500 evicts. Then hits on what is resident.
    let cache = ReadCache::new(32 * MIB);
    let page = Payload::from_vec(vec![1u8; 65536]);
    let blob = blobseer::BlobId(1);
    let ids: Vec<PageId> = (0..4096).map(|_| page_id(&mut rng)).collect();
    let mut at = 0;
    out.insert(
        "read_cache.put_page_ns".into(),
        per_call(20, scale.n(2000), || {
            cache.put_page(blob, 1, ids[at % ids.len()], page.clone());
            at += 1;
        }),
    );
    let resident: Vec<PageId> = ids
        .iter()
        .copied()
        .filter(|&id| cache.get_page(blob, 1, id).is_some())
        .collect();
    assert!(!resident.is_empty());
    out.insert(
        "read_cache.get_page_ns".into(),
        per_call(20, scale.n(5000), || {
            let id = resident[rng.below(resident.len() as u64) as usize];
            black_box(cache.get_page(blob, 1, id));
        }),
    );
}

fn bsfs_probes(out: &mut Out, seed: u64, scale: &Scale) {
    let dep = Deployment::live("probe-bsfs", seed, 4, 4096, 0);
    let fs = Bsfs::new(dep.bs.clone(), NodeId(0));
    let n = scale.n(600);
    let results = on_fabric(&dep.fx, "probe", move |p| {
        let mut rng = Rng::lane(seed, 44);
        let file = DfsPath::new("/bench/dir/file").expect("valid path");
        fs.write_file(
            p,
            &file,
            Payload::from_vec(append_record(seed, 0, 0, RECORD)),
        )
        .expect("create file");
        let mut appends = Vec::with_capacity(n);
        for seq in 1..=n as u64 {
            let data = Payload::from_vec(append_record(seed, 0, seq, RECORD));
            timed(&mut appends, || fs.append_all(p, &file, data)).expect("append_all");
        }
        let size = (n as u64 + 1) * RECORD as u64;
        let mut opens = Vec::with_capacity(n);
        let mut reads = Vec::with_capacity(n);
        for _ in 0..n {
            let mut reader = timed(&mut opens, || fs.open(p, &file)).expect("open");
            let off = rng.below(size / 65536) * 65536;
            let data = timed(&mut reads, || reader.read_at(p, off, 65536)).expect("read_at");
            assert_eq!(data.len(), 65536);
        }
        let lookup = per_call(20, n, || {
            black_box(fs.namespace().lookup(p, &file).expect("lookup"));
        });
        (appends, opens, reads, lookup)
    });
    let (mut appends, mut opens, mut reads, lookup) = results;
    out.insert("bsfs.append_all_ns".into(), med(&mut appends));
    out.insert("bsfs.open_ns".into(), med(&mut opens));
    out.insert("bsfs.read_at_ns".into(), med(&mut reads));
    out.insert("bsfs.namespace_lookup_ns".into(), lookup);
}

/// Record plumbing and the wordcount functions on 512 KiB of the workload's
/// text, and the shuffle registry with 4 KiB segments.
fn mapreduce_probes(out: &mut Out, seed: u64, quick: bool) {
    let text = ZipfText::new(50_000).generate(
        &mut Rng::lane(seed, 45),
        if quick { 64 * 1024 } else { MIB as usize / 2 },
    );
    let reps = if quick { 2 } else { 3 };
    let per_mb = |bytes: usize, ns: f64| ns / (bytes as f64 / 1e6);
    let fns = workloads::wordcount::user_fns();

    let lines = record::split_records(text.as_bytes(), 0, text.len() as u64);
    out.insert(
        "record.split_records_ns_per_mb".into(),
        per_mb(
            text.len(),
            per_call(reps, 1, || {
                black_box(record::split_records(text.as_bytes(), 0, text.len() as u64));
            }),
        ),
    );
    let map_all = || {
        let mut kvs: Vec<KV> = Vec::new();
        for line in &lines {
            fns.mapper.map(b"", line, &mut |kv| kvs.push(kv));
        }
        kvs
    };
    out.insert(
        "workloads.wordcount_map_ns_per_mb".into(),
        per_mb(text.len(), per_call(reps, 1, || drop(black_box(map_all())))),
    );
    let kvs = map_all();
    let encoded = record::encode_kvs(&kvs);
    let encoded_len = encoded.len() as usize;
    out.insert(
        "record.encode_kvs_ns_per_mb".into(),
        per_mb(
            encoded_len,
            per_call(reps, 1, || drop(black_box(record::encode_kvs(&kvs)))),
        ),
    );
    out.insert(
        "record.decode_kvs_ns_per_mb".into(),
        per_mb(
            encoded_len,
            per_call(reps, 1, || {
                drop(black_box(record::decode_kvs(encoded.bytes())))
            }),
        ),
    );
    // Inputs are cloned outside the timed call.
    let mut sorted_runs: Vec<Vec<KV>> = kvs.chunks(kvs.len() / 4 + 1).map(<[KV]>::to_vec).collect();
    for run in &mut sorted_runs {
        run.sort();
    }
    let mut samples = Vec::new();
    let mut merge_samples = Vec::new();
    let mut reduce_samples = Vec::new();
    for _ in 0..reps {
        let input = kvs.clone();
        let grouped = timed(&mut samples, || record::sort_and_group(input));
        let runs = sorted_runs.clone();
        black_box(timed(&mut merge_samples, || {
            record::merge_sorted_runs(runs)
        }));
        timed(&mut reduce_samples, || {
            let mut reduced = 0usize;
            for (key, values) in &grouped {
                fns.reducer
                    .reduce(key, &mut values.iter().map(Vec::as_slice), &mut |_| {
                        reduced += 1
                    });
            }
            black_box(reduced)
        });
    }
    let mb = encoded_len as f64 / 1e6;
    out.insert(
        "record.sort_and_group_ns_per_mb".into(),
        med(&mut samples) / mb,
    );
    out.insert(
        "record.merge_sorted_runs_ns_per_mb".into(),
        med(&mut merge_samples) / mb,
    );
    out.insert(
        "workloads.wordcount_reduce_ns_per_mb".into(),
        med(&mut reduce_samples) / mb,
    );

    // Shuffle registry: publish 4 KiB segments from 4 hosts, then fetch 8 at
    // a time (two per host) as a reducer does.
    let n = if quick { 400 } else { 4000 };
    let registry = MapOutputRegistry::new();
    let segment = Payload::from_vec(vec![3u8; 4096]);
    let key = |i: u32| SegmentKey {
        job: 1,
        source: SegmentSource::Task(i),
        partition: 0,
    };
    let mut i = 0u32;
    out.insert(
        "shuffle.publish_ns".into(),
        per_call(20, n / 20, || {
            registry.publish(key(i), NodeId(i % 4), segment.clone());
            i += 1;
        }),
    );
    let fx = Fabric::live(ClusterSpec::tiny(4));
    let fetch = on_fabric(&fx, "probe", move |p: &Proc| {
        let mut rng = Rng::lane(seed, 46);
        per_call(20, n / 160, || {
            let first = rng.below(n as u64 - 8) as u32;
            let keys: Vec<SegmentKey> = (first..first + 8).map(key).collect();
            let got = registry.fetch_many(p, &keys);
            assert!(got.iter().all(Option::is_some));
        })
    });
    out.insert("shuffle.fetch_many_ns".into(), fetch);
}
