//! Reader scaling past the paper's axis — the read-replica tier and the
//! snapshot-scoped client cache under a reader storm. The paper's Figure 4
//! fixes 100 readers and scales appenders; here the readers themselves
//! scale (250 and 1000 of them) across a replica axis the paper never had:
//! published pages are synced to 0/4/8 dedicated read replicas, and the
//! replica-preferring read path must turn each added replica NIC into
//! aggregate read bandwidth while the primaries go quiet.
//!
//! Two passes per point. The **cold** pass reads the whole pre-filled blob
//! through per-reader caching clients: with any replicas deployed, the
//! primaries must serve *zero* get round-trips — every byte comes off the
//! replica tier. The **warm** pass re-reads through the same clients: the
//! snapshot-scoped cache answers everything, so no provider (primary or
//! replica) sees a single get. The driver records its deterministic
//! currencies — aggregate cold MB/s, primary/replica get round-trips per
//! pass, warm hit rate, virtual seconds, wire transfers — into
//! `BENCH_fig4_readers.json` at the repo root and gates each run against
//! the committed baseline (`bench_suite::baseline`), like fig3/fig5/fig6.
//!
//! Topology intuition (tiny/grid5000 NICs are 117 MB/s, non-blocking
//! switch): 2 primaries cap the no-replica ceiling at ~234 MB/s; 4 and 8
//! replicas raise the serving tier to ~468 and ~936 MB/s. The monotone /
//! >= 2x assertions below are that capacity argument, measured.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bench_suite::{mbps, print_table, Baseline, Gate, Op};
use blobseer::{BlobSeer, BlobSeerConfig, Layout};
use fabric::prelude::*;
use fabric::ClusterSpec;
use parking_lot::Mutex;

/// Page size and page count of the shared blob every reader scans:
/// 64 x 4 MB = 256 MB. Many small-ish pages spread the page->replica hash
/// evenly, so the replica tier's aggregate NIC capacity is actually
/// reachable.
const PAGE: u64 = 4 * 1024 * 1024;
const PAGES: u64 = 64;
const BLOB_BYTES: u64 = PAGE * PAGES;

/// Reader procs spread over these nodes (disjoint from every service node,
/// so no read ever short-circuits to a local primary).
const READER_NODES: u32 = 16;
const FIRST_READER_NODE: u32 = 16;

#[derive(Debug, Clone, Copy)]
struct Fig4Point {
    readers: u32,
    replicas: usize,
    /// Aggregate cold-pass read throughput, MB/s (virtual time).
    cold_mbps: f64,
    /// Primary-provider get round-trips during the cold pass.
    cold_primary_gets: u64,
    /// Read-replica get round-trips during the cold pass.
    cold_replica_gets: u64,
    /// Provider get round-trips (primaries + replicas) during the warm
    /// pass — the cache makes this zero.
    warm_gets: u64,
    /// Warm-pass page hit rate across every reader's cache.
    hit_rate: f64,
    /// Virtual completion time of the whole run, seconds.
    sim_secs: f64,
    /// Wire transfers issued across the run (every message counts).
    transfers: u64,
}

fn main() {
    let grid: [(u32, usize); 6] = [
        (250, 0),
        (250, 4),
        (250, 8),
        (1000, 0),
        (1000, 4),
        (1000, 8),
    ];
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &(readers, replicas) in &grid {
        let d = fig4_point(readers, replicas, 4000 + readers as u64 + replicas as u64);
        rows.push(vec![
            readers.to_string(),
            replicas.to_string(),
            format!("{:.1}", d.cold_mbps),
            format!("{}/{}", d.cold_primary_gets, d.cold_replica_gets),
            d.warm_gets.to_string(),
            format!("{:.3}", d.hit_rate),
            format!("{:.1}", d.sim_secs),
            d.transfers.to_string(),
        ]);
        points.push(d);
    }
    print_table(
        "Reader scaling: aggregate read throughput vs dedicated read replicas",
        &[
            "readers",
            "replicas",
            "cold agg MB/s",
            "cold primary/replica gets",
            "warm gets",
            "warm hit rate",
            "sim secs",
            "transfers",
        ],
        &rows,
    );

    for d in &points {
        if d.replicas > 0 {
            assert_eq!(
                d.cold_primary_gets, 0,
                "readers={}, replicas={}: primaries served {} cold get round-trips — \
                 published reads must come off the replica tier",
                d.readers, d.replicas, d.cold_primary_gets
            );
        }
        assert_eq!(
            d.warm_gets, 0,
            "readers={}, replicas={}: warm pass reached providers {} times — \
             cache-hot published reads must touch no service",
            d.readers, d.replicas, d.warm_gets
        );
        assert!(
            d.hit_rate >= 0.99,
            "readers={}, replicas={}: warm hit rate {:.3} < 0.99",
            d.readers,
            d.replicas,
            d.hit_rate
        );
    }
    for readers in [250u32, 1000] {
        let series: Vec<f64> = points
            .iter()
            .filter(|d| d.readers == readers)
            .map(|d| d.cold_mbps)
            .collect();
        for w in series.windows(2) {
            assert!(
                w[1] >= w[0],
                "{readers} readers: throughput fell when replicas were added: {series:?}"
            );
        }
        let scaling = series.last().unwrap() / series.first().unwrap();
        println!("\nshape: {readers} readers, aggregate throughput 0 -> 8 replicas: {scaling:.2}x");
        if readers == 1000 {
            assert!(
                scaling >= 2.0,
                "1000 readers: 8 replicas bought only {scaling:.2}x over none (need >= 2x)"
            );
        }
    }

    Baseline::new("fig4_readers")
        .sweep(&points)
        .axis("readers", |d| d.readers)
        .axis("replicas", |d| d.replicas)
        .series("cold_mbps", Gate::Higher, 2, |d| d.cold_mbps)
        .series("cold_primary_gets", Gate::Exact, 0, |d| d.cold_primary_gets)
        .series("cold_replica_gets", Gate::Exact, 0, |d| d.cold_replica_gets)
        .series("warm_gets", Gate::Exact, 0, |d| d.warm_gets)
        .series("hit_rate", Gate::Record, 4, |d| d.hit_rate)
        .series("sim_secs", Gate::Lower, 2, |d| d.sim_secs)
        .series("transfers", Gate::Exact, 0, |d| d.transfers)
        .check_and_record("BENCH_fig4_readers.json");
}

/// One grid point: deploy fresh, prefill and replica-sync the shared blob,
/// then run the cold and warm passes back to back inside one fabric run.
fn fig4_point(readers: u32, replicas: usize, seed: u64) -> Fig4Point {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(FIRST_READER_NODE + READER_NODES), seed);
    // 2 primaries on nodes 5-6, replicas from node 7; readers from node 16.
    let layout = Layout {
        vm: NodeId(0),
        pm: NodeId(1),
        namespace: NodeId(2),
        meta: vec![NodeId(3), NodeId(4)],
        providers: vec![NodeId(5), NodeId(6)],
        read_replicas: (7..7 + replicas as u32).map(NodeId).collect(),
    };
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(PAGE), layout).expect("deploy");

    let cold_gate = fx.gate();
    let warm_gate = fx.gate();
    // (primary gets, replica gets) snapshotted after prefill and after the
    // cold pass, so each pass's round-trips are an exact delta.
    let snaps: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let blob_cell = Arc::new(Mutex::new(None));
    {
        let bs2 = bs.clone();
        let g = cold_gate.clone();
        let snaps2 = snaps.clone();
        let blob2 = blob_cell.clone();
        fx.spawn(NodeId(15), "setup", move |p| {
            let w = bs2.client();
            let blob = w.create(p, None);
            w.append(p, blob, Payload::ghost(BLOB_BYTES)).unwrap();
            let mut synced = 0;
            loop {
                let (pages, _) = bs2.sync_read_replicas(p);
                if pages == 0 {
                    break;
                }
                synced += pages;
            }
            assert_eq!(
                synced,
                PAGES * bs2.read_replicas().len() as u64,
                "replica sync must copy every page to every replica"
            );
            *blob2.lock() = Some(blob);
            snaps2.lock().push(get_counts(&bs2));
            g.set();
        });
    }
    let cold_spans: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let hits: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let cold_done = Arc::new(AtomicUsize::new(0));
    for i in 0..readers {
        let bs2 = bs.clone();
        let (g1, g2) = (cold_gate.clone(), warm_gate.clone());
        let (snaps2, spans2, hits2) = (snaps.clone(), cold_spans.clone(), hits.clone());
        let done = cold_done.clone();
        let blob2 = blob_cell.clone();
        let node = NodeId(FIRST_READER_NODE + i % READER_NODES);
        fx.spawn(node, format!("reader{i}"), move |p| {
            g1.wait(p);
            let blob = blob_cell_get(&blob2);
            let client = bs2.client();
            let t0 = p.now();
            let (got, op) = Op::time(p, || client.read(p, blob, None, 0, BLOB_BYTES));
            assert_eq!(got.unwrap().len(), BLOB_BYTES);
            assert_eq!(op.ledger.total(), op.ns, "ledger identity broken");
            spans2.lock().push((t0, p.now()));
            // The last reader out of the cold pass snapshots the round-trip
            // counters and opens the warm pass for everyone.
            if done.fetch_add(1, Ordering::SeqCst) + 1 == readers as usize {
                snaps2.lock().push(get_counts(&bs2));
                g2.set();
            }
            g2.wait(p);
            let got = client.read(p, blob, None, 0, BLOB_BYTES).unwrap();
            assert_eq!(got.len(), BLOB_BYTES);
            let s = client.cache_stats();
            hits2.lock().push((s.page_hits, s.page_misses));
        });
    }
    fx.run();

    let spans = cold_spans.lock();
    let start = spans.iter().map(|&(a, _)| a).min().unwrap();
    let end = spans.iter().map(|&(_, b)| b).max().unwrap();
    let snaps = snaps.lock();
    let (prefill, after_cold) = (snaps[0], snaps[1]);
    let final_counts = get_counts(&bs);
    // Page hits are warm-pass only (the cold pass runs against an empty
    // cache), so the hit rate is hits / one warm blob-scan per reader.
    let (page_hits, _): (u64, u64) = {
        let h = hits.lock();
        assert_eq!(h.len(), readers as usize);
        h.iter().fold((0, 0), |(a, b), &(h_, m_)| (a + h_, b + m_))
    };
    Fig4Point {
        readers,
        replicas,
        cold_mbps: mbps(readers as u64 * BLOB_BYTES, end - start),
        cold_primary_gets: after_cold.0 - prefill.0,
        cold_replica_gets: after_cold.1 - prefill.1,
        warm_gets: (final_counts.0 - after_cold.0) + (final_counts.1 - after_cold.1),
        hit_rate: page_hits as f64 / (readers as u64 * PAGES) as f64,
        sim_secs: fx.now() as f64 / 1e9,
        transfers: fx.stats().transfers,
    }
}

/// Get wire round-trips as (primaries total, replicas total).
fn get_counts(bs: &BlobSeer) -> (u64, u64) {
    let sum =
        |provs: &[Arc<blobseer::provider::Provider>]| provs.iter().map(|p| p.rpc_counts().1).sum();
    (sum(bs.providers()), sum(bs.read_replicas()))
}

fn blob_cell_get(cell: &Mutex<Option<blobseer::BlobId>>) -> blobseer::BlobId {
    cell.lock().expect("setup published the blob id")
}
