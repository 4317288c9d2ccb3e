//! Property test: cached reads are byte-identical to uncached reads — and
//! to a plain reference model — across random interleavings of appends,
//! aligned overwrites, tail replaces and read-replica crash-restarts, for
//! the latest and every historical version. The deployment runs a
//! replica-bearing persistent layout, so every read exercises the full
//! read stack: published-floor gating, the page/leaf cache, replica
//! preference and the per-page `has_page` staleness gate. The cache budget
//! is drawn from a few pages up to the default, so most cases compare the
//! three while the cached client's LRU evicts.

use std::sync::atomic::{AtomicU64, Ordering};

use blobseer::{BlobSeer, BlobSeerConfig, Fault, FaultTarget, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use proptest::prelude::*;

const PS: u64 = 64;

/// Distinguishes concurrent proptest cases inside one test process so their
/// pstore directories never collide (the path never feeds the simulation).
static CASE_SERIAL: AtomicU64 = AtomicU64::new(0);

#[derive(Debug, Clone)]
enum Op {
    /// Append `len` bytes of `tag` pattern (and pump the replica sync when
    /// the tag is even, so replica freshness interleaves with writes).
    Append { len: u64, tag: u8 },
    /// Overwrite starting at page boundary `page` (modulo the current page
    /// count) with `pages` pages; becomes a tail replace when it runs off
    /// the end — mirroring the model in `blob_model_proptest`.
    Overwrite { page: u64, pages: u64, tag: u8 },
    /// Read `len` bytes at `off` from version `v_pick` through the cached
    /// client (all reduced modulo the current state).
    Read { off: u64, len: u64, v_pick: u64 },
    /// Crash-wipe one read replica and heal it from its durable store; an
    /// uncached read in between proves failover, reads after prove the
    /// stale replica is never served for versions it lacks.
    ReplicaCrashRestart { which: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u64..260, any::<u8>()).prop_map(|(len, tag)| Op::Append { len, tag }),
        2 => (any::<u64>(), 1u64..4, any::<u8>()).prop_map(|(page, pages, tag)| Op::Overwrite {
            page,
            pages,
            tag
        }),
        3 => (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(off, len, v_pick)| Op::Read {
            off,
            len,
            v_pick
        }),
        1 => any::<u64>().prop_map(|which| Op::ReplicaCrashRestart { which }),
    ]
}

/// A read-cache budget: mostly 3–47 full pages (a page's budget weight is
/// its bytes plus the cache's 64-byte entry overhead), else the default.
fn budget_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (3u64..48).prop_map(|pages| pages * (PS + 64)),
        1 => Just(BlobSeerConfig::default().read_cache_bytes),
    ]
}

fn pattern(len: u64, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 253) as u8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn cached_reads_match_uncached_and_model(
        ops in prop::collection::vec(op_strategy(), 1..28),
        budget in budget_strategy(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "blobseer-read-cache-prop-{}-{}",
            std::process::id(),
            CASE_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let layout = Layout::compact(fx.spec()).with_read_replicas_from_tail(2);
        let config = BlobSeerConfig::test_small(PS)
            .with_read_cache_bytes(budget)
            .with_persist_dir(Some(dir.clone()));
        let bs = BlobSeer::deploy(&fx, config, layout).unwrap();
        let bs2 = bs.clone();
        let h = fx.spawn(NodeId(7), "driver", move |p| {
            let cached = bs2.client();
            let uncached = bs2.uncached_client();
            let blob = cached.create(p, None);
            // snapshots[v] = reference content at version v.
            let mut snapshots: Vec<Vec<u8>> = vec![Vec::new()];
            let mut page_lens: Vec<u64> = Vec::new();
            let append_layout = |page_lens: &mut Vec<u64>, len: u64| {
                let mut rest = len;
                while rest > 0 {
                    let n = rest.min(PS);
                    page_lens.push(n);
                    rest -= n;
                }
            };
            for op in ops {
                match op {
                    Op::Append { len, tag } => {
                        let data = pattern(len, tag);
                        let v = cached.append(p, blob, Payload::from_vec(data.clone())).unwrap();
                        assert_eq!(v as usize, snapshots.len());
                        append_layout(&mut page_lens, len);
                        let mut next = snapshots.last().unwrap().clone();
                        next.extend_from_slice(&data);
                        snapshots.push(next);
                        if tag % 2 == 0 {
                            bs2.sync_read_replicas(p);
                        }
                    }
                    Op::Overwrite { page, pages, tag } => {
                        let cur = snapshots.last().unwrap().clone();
                        if page_lens.is_empty() { continue; }
                        let start = (page % page_lens.len() as u64) as usize;
                        let k = (pages as usize).min(page_lens.len() - start);
                        let off: u64 = page_lens[..start].iter().sum();
                        let tail_replacing = start + k >= page_lens.len();
                        let data_len = if tail_replacing {
                            (k as u64 - 1) * PS + 1 + (tag as u64 % PS)
                        } else {
                            if page_lens[start..start + k].iter().any(|&l| l != PS) {
                                continue; // interior overwrite needs full pages
                            }
                            k as u64 * PS
                        };
                        let remaining: u64 = page_lens[start..].iter().sum();
                        if tail_replacing && data_len < remaining {
                            continue; // would leave a gap; not a tail replace
                        }
                        let data = pattern(data_len, tag);
                        let v = cached
                            .write(p, blob, off, Payload::from_vec(data.clone()))
                            .unwrap();
                        assert_eq!(v as usize, snapshots.len());
                        let mut next = cur;
                        let end = off + data_len;
                        if tail_replacing {
                            page_lens.truncate(start);
                            append_layout(&mut page_lens, data_len);
                            next.truncate(off as usize);
                            next.extend_from_slice(&data);
                        } else {
                            next[off as usize..end as usize].copy_from_slice(&data);
                        }
                        snapshots.push(next);
                    }
                    Op::Read { off, len, v_pick } => {
                        let v = (v_pick % snapshots.len() as u64) as usize;
                        let want = &snapshots[v];
                        if want.is_empty() { continue; }
                        let off = off % want.len() as u64;
                        let len = (len % (want.len() as u64 - off)).min(220);
                        if len == 0 { continue; }
                        let got = cached.read(p, blob, Some(v as u64), off, len).unwrap();
                        assert_eq!(
                            got.bytes().as_ref(),
                            &want[off as usize..(off + len) as usize],
                            "cached read v{v} [{off}, {off}+{len}) diverged"
                        );
                    }
                    Op::ReplicaCrashRestart { which } => {
                        let i = (which % 2) as usize;
                        bs2.inject(FaultTarget::ReadReplica(i), Fault::CrashRestart)
                            .unwrap();
                        // Mid-outage uncached read: must fail over around
                        // the dead replica and stay byte-correct.
                        let want = snapshots.last().unwrap();
                        if !want.is_empty() {
                            let got = uncached
                                .read(p, blob, None, 0, want.len() as u64)
                                .unwrap();
                            assert_eq!(
                                got.bytes().as_ref(),
                                &want[..],
                                "read during replica outage diverged"
                            );
                        }
                        bs2.heal(FaultTarget::ReadReplica(i)).unwrap();
                    }
                }
            }
            // Final sweep: every version, through both clients. The cached
            // client re-reads versions it may have cached long ago (and
            // versions it never saw); the uncached client re-fetches
            // everything through the replica-preferring wire path.
            for (v, want) in snapshots.iter().enumerate().skip(1) {
                for (label, client) in [("cached", &cached), ("uncached", &uncached)] {
                    let got = client
                        .read(p, blob, Some(v as u64), 0, want.len() as u64)
                        .unwrap();
                    assert_eq!(
                        got.bytes().as_ref(),
                        &want[..],
                        "final {label} check of v{v} diverged"
                    );
                }
            }
            let resident = cached.cache_stats().resident_bytes;
            assert!(resident <= budget, "cache holds {resident} > {budget} bytes");
        });
        fx.run();
        h.take().unwrap();
        drop(bs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
