//! Criterion microbenchmarks of the core data structures: the versioned
//! segment-tree metadata (plan/traverse), the pstore persistence layer, the
//! partitioner and record codecs, the Map/Reduce run path (map-side collect,
//! sort and combine; streaming merge-reduce), and the max-min fair-sharing
//! engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use blobseer::meta::{collect_leaves, plan_write, NodeBody, NodeKey, PageRef, SnapshotInfo};
use blobseer::{BlobId, DescIndex, PageId, WriteDesc, WriteKind};
use fabric::NodeId;
use std::collections::HashMap;

const PS: u64 = 64 * 1024;

/// Build a history of `n` appends of 3 pages each; returns descriptors, the
/// incrementally-maintained descriptor index, and the complete node store.
fn history(n: u64) -> (Vec<WriteDesc>, DescIndex, HashMap<NodeKey, NodeBody>) {
    let blob = BlobId(1);
    let mut descs: Vec<WriteDesc> = Vec::new();
    let mut ix = DescIndex::new(PS);
    let mut store = HashMap::new();
    for v in 1..=n {
        let (tp, tb) = descs
            .last()
            .map(|d| (d.total_pages, d.total_bytes))
            .unwrap_or((0, 0));
        let k = 3u64;
        let desc = WriteDesc {
            version: v,
            kind: WriteKind::Append,
            page_lo: tp,
            page_hi: tp + k,
            byte_lo: tb,
            byte_hi: tb + k * PS,
            total_pages: tp + k,
            total_bytes: tb + k * PS,
        };
        let manifest: Vec<PageRef> = (0..k)
            .map(|i| PageRef {
                id: PageId(v, i),
                byte_len: PS,
                providers: vec![NodeId((v % 200) as u32)],
            })
            .collect();
        ix.apply(&desc);
        for (key, body) in plan_write(blob, &ix, &desc, &manifest) {
            store.insert(key, body);
        }
        descs.push(desc);
    }
    (descs, ix, store)
}

fn bench_meta(c: &mut Criterion) {
    let (descs, ix, store) = history(512);
    let last = *descs.last().unwrap();
    let manifest: Vec<PageRef> = (0..3)
        .map(|i| PageRef {
            id: PageId(9999, i),
            byte_len: PS,
            providers: vec![NodeId(7)],
        })
        .collect();
    let next = WriteDesc {
        version: last.version + 1,
        kind: WriteKind::Append,
        page_lo: last.total_pages,
        page_hi: last.total_pages + 3,
        byte_lo: last.total_bytes,
        byte_hi: last.total_bytes + 3 * PS,
        total_pages: last.total_pages + 3,
        total_bytes: last.total_bytes + 3 * PS,
    };

    c.bench_function("meta/index_apply_snapshot_after_512_versions", |b| {
        b.iter(|| {
            let mut ix2 = black_box(&ix).clone();
            ix2.apply(&next);
            black_box(ix2.version())
        });
    });

    c.bench_function("meta/plan_append_after_512_versions", |b| {
        let mut ix_next = ix.clone();
        ix_next.apply(&next);
        b.iter(|| {
            let nodes = plan_write(BlobId(1), black_box(&ix_next), &next, &manifest);
            black_box(nodes.len())
        });
    });

    c.bench_function("meta/traverse_full_snapshot_1536_pages", |b| {
        let snap = SnapshotInfo {
            version: last.version,
            total_pages: last.total_pages,
            total_bytes: last.total_bytes,
            page_size: PS,
        };
        b.iter(|| {
            let mut fetch =
                |keys: &[NodeKey]| Ok(keys.iter().map(|k| store.get(k).cloned()).collect());
            let hits = collect_leaves(&mut fetch, BlobId(1), &snap, 0, snap.total_bytes).unwrap();
            black_box(hits.len())
        });
    });

    c.bench_function("meta/point_lookup_one_page", |b| {
        let snap = SnapshotInfo {
            version: last.version,
            total_pages: last.total_pages,
            total_bytes: last.total_bytes,
            page_size: PS,
        };
        let off = snap.total_bytes / 2;
        b.iter(|| {
            let mut fetch =
                |keys: &[NodeKey]| Ok(keys.iter().map(|k| store.get(k).cloned()).collect());
            let hits = collect_leaves(&mut fetch, BlobId(1), &snap, off, off + 100).unwrap();
            black_box(hits.len())
        });
    });
}

fn bench_pstore(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("pstore-bench-{}", std::process::id()));
    let page = vec![0xABu8; 64 * 1024];
    for (label, size) in [("4k", 4096usize), ("64k", 64 * 1024)] {
        let data = &page[..size];
        c.bench_function(&format!("crc32/{label}"), |b| {
            b.iter(|| black_box(pstore::crc32(black_box(data))));
        });
    }
    for (label, size) in [("4k", 4096usize), ("64k", 64 * 1024)] {
        let value = &page[..size];
        // A put with its share of the flush a provider issues per 4-page
        // batch; unflushed, the write buffer's growth would be the cost. A
        // fresh store per sample bounds what one run leaves in the page cache.
        c.bench_function(&format!("pstore/put_{label}"), |b| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = pstore::Store::open(&dir).unwrap();
            let mut i = 0u64;
            b.iter(|| {
                store.put(&i.to_le_bytes(), value).unwrap();
                i += 1;
                if i.is_multiple_of(4) {
                    store.flush_buffered().unwrap();
                }
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
        let store = pstore::Store::open(&dir).unwrap();
        store.put(b"probe", value).unwrap();
        store.flush_buffered().unwrap();
        c.bench_function(&format!("pstore/get_{label}"), |b| {
            b.iter(|| black_box(store.get(b"probe").unwrap()));
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_records(c: &mut Criterion) {
    use mapreduce::record::{decode_kvs, encode_kvs, sort_and_group};
    use mapreduce::KV;
    let kvs: Vec<KV> = (0..1000)
        .map(|i| KV::new(format!("user_{:04}", i % 200), format!("value-{i}")))
        .collect();
    c.bench_function("record/encode_1k", |b| {
        b.iter(|| black_box(encode_kvs(&kvs)));
    });
    let enc = encode_kvs(&kvs);
    c.bench_function("record/decode_1k", |b| {
        b.iter(|| black_box(decode_kvs(enc.bytes())));
    });
    c.bench_function("record/sort_group_1k", |b| {
        b.iter(|| black_box(sort_and_group(kvs.clone())));
    });
    c.bench_function("record/partitioner", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for kv in &kvs {
                acc = acc.wrapping_add(mapreduce::partition_for(&kv.key, 230));
            }
            black_box(acc)
        });
    });
}

/// `bytes` of Zipf(1) text over `vocabulary` words `w<rank>`, 12 per line
/// (the shape of the benchmark's `live_wordcount` input).
fn zipf_text(bytes: usize, vocabulary: usize, seed: u64) -> Vec<u8> {
    let mut cdf = Vec::with_capacity(vocabulary);
    let mut acc = 0.0;
    for r in 1..=vocabulary {
        acc += 1.0 / r as f64;
        cdf.push(acc);
    }
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(bytes + 128);
    let mut in_line = 0;
    while out.len() < bytes || in_line != 0 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = (state >> 11) as f64 / (1u64 << 53) as f64 * acc;
        let rank = cdf.partition_point(|&c| c < u).min(vocabulary - 1);
        out.extend_from_slice(format!("w{rank}").as_bytes());
        in_line = (in_line + 1) % 12;
        out.push(if in_line == 0 { b'\n' } else { b' ' });
    }
    out
}

/// `bytes` of datajoin-shaped lines, `user_NNNNNN TAB a:artist_NNNNN,<serial>`:
/// keys repeat over 20 000 users, and the serial makes every record
/// distinct.
fn distinct_join_text(bytes: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(bytes + 64);
    let mut serial = 0u64;
    while out.len() < bytes {
        let (user, artist) = (next() % 20_000, next() % 100_000);
        out.extend_from_slice(
            format!("user_{user:06}\ta:artist_{artist:05},{serial}\n").as_bytes(),
        );
        serial += 1;
    }
    out
}

/// The engine's record path on wordcount, without the cluster around it:
/// what a map task does to one 1 MiB split between reading it and handing
/// two partitions to the shuffle, and what a reducer does to four fetched
/// runs. `map_side_1mib_distinct` is the map side on a datajoin-shaped
/// split where no record repeats and there is no combiner.
fn bench_mapreduce(c: &mut Criterion) {
    use mapreduce::record::{put_text, reduce_runs, split_records, split_tab, Collector};
    let fns = workloads::wordcount::user_fns();
    let map_side_of = |fns: &mapreduce::UserFns, text: &[u8]| {
        let mut collectors = [Collector::default(), Collector::default()];
        for line in split_records(text, 0, text.len() as u64) {
            let (k, v) = split_tab(line);
            fns.mapper.map_into(k, v, &mut |key, value| {
                collectors[mapreduce::partition_for(key, 2) as usize].push(key, value);
            });
        }
        collectors.map(|c| c.into_run(fns.combiner.as_deref()).unwrap())
    };
    let map_side = |text: &[u8]| map_side_of(&fns, text);
    let text = zipf_text(1 << 20, 50_000, 1);
    c.bench_function("mapreduce/map_side_1mib", |b| {
        b.iter(|| black_box(map_side(&text)));
    });
    let join = workloads::datajoin::user_fns();
    let text = distinct_join_text(1 << 20, 7);
    c.bench_function("mapreduce/map_side_1mib_distinct", |b| {
        b.iter(|| black_box(map_side_of(&join, &text)));
    });
    let fetched: Vec<fabric::Payload> = (1..=4)
        .map(|seed| {
            let [run, _] = map_side(&zipf_text(1 << 20, 50_000, seed));
            run
        })
        .collect();
    let runs: Vec<&[u8]> = fetched.iter().map(|run| &run.bytes()[..]).collect();
    c.bench_function("mapreduce/merge_reduce_4runs", |b| {
        b.iter(|| {
            let mut text = Vec::new();
            let reducer = Some(fns.reducer.as_ref());
            reduce_runs(&runs, reducer, &mut |k, v| put_text(&mut text, k, v)).unwrap();
            black_box(text)
        });
    });
}

fn bench_fabric(c: &mut Criterion) {
    use fabric::{ClusterSpec, Fabric, Payload};
    c.bench_function("fabric/100_concurrent_transfers_sim", |b| {
        b.iter(|| {
            let fx = Fabric::sim(ClusterSpec::tiny(64));
            for i in 0..100u32 {
                fx.spawn(NodeId(i % 64), format!("t{i}"), move |p| {
                    p.send_to(NodeId((i + 1) % 64), 10_000_000);
                });
            }
            fx.run();
            black_box(fx.now())
        });
    });
    // One live proc, spawned on a thread of its own and waited for. A live
    // `run_parallel` spawns none: its tasks run on the caller.
    c.bench_function("fabric/live_spawn", |b| {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        b.iter(|| {
            fx.spawn(NodeId(0), "noop", |_| ());
            fx.run();
        });
    });
    c.bench_function("fabric/payload_slice_ghost", |b| {
        let p = Payload::ghost(1 << 30);
        b.iter(|| black_box(p.slice(12345, 4096).len()));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_meta, bench_records, bench_mapreduce, bench_fabric
);
// Short samples: a `pstore/put_*` sample writes (iterations x value) bytes.
criterion_group!(
    name = storage;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(500)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_pstore
);
criterion_main!(benches, storage);
