//! Ablation A2 — page-level replication (paper §3.1.1 mentions BlobSeer
//! implements fault tolerance through page replication; the benchmarks run
//! unreplicated). Sweep the replication factor under 64 concurrent
//! appenders and verify the cost model: each replica is one more
//! client→provider stream.

use bench_suite::{fig3_point_on, paper_bsfs_with, print_table};
use blobseer::BlobSeerConfig;

fn main() {
    let mut rows = Vec::new();
    let mut first = None;
    for r in 1..=3usize {
        let config = BlobSeerConfig::paper().with_replication(r);
        let (fx, fs) = paper_bsfs_with(9100 + r as u64, config);
        let (t, _) = fig3_point_on(&fx, &fs, 64);
        let stored = fs.store().total_stored_bytes();
        first.get_or_insert(t);
        rows.push(vec![
            r.to_string(),
            format!("{t:.1}"),
            format!("{:.2}", first.unwrap() / t),
            format!("{:.1} GB", stored as f64 / 1e9),
        ]);
    }
    print_table(
        "Ablation A2: replication factor vs append throughput (64 appenders x 64 MB)",
        &[
            "replicas",
            "per-client MB/s",
            "slowdown vs r=1",
            "bytes stored",
        ],
        &rows,
    );
    println!(
        "\nnote: replicas are written by the client in parallel page streams, so r replicas \
         divide the writer's TX bandwidth roughly r ways — durability costs exactly what the \
         model predicts."
    );
}
