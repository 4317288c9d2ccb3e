//! Figure 3 — "Performance of BSFS when concurrent clients append data to
//! the same file": N ∈ [1, 246] clients each append a 64 MB chunk to one
//! shared file on the 270-node cluster; the paper reports that the average
//! per-client throughput stays high as N grows.
//!
//! This is the figure the sharded version-manager control plane exists
//! for: under N-way append concurrency the only serialization left is the
//! protocol's own per-BLOB version ordering (plus the modeled VM CPU
//! charge), never a VM-wide lock. The driver records its deterministic
//! currencies — per-client MB/s, virtual completion seconds, wire
//! transfers, DHT puts and put-RPCs, all exact for fixed seeds — into
//! `BENCH_fig3_appends.json` at the repo root and gates each run against
//! the committed baseline (`bench_suite::baseline`), so a control-plane
//! regression fails the build the same way A4 and fig6 regressions do.

use bench_suite::{fig3_point_detail, print_table, relative_spread, Baseline, Gate};

fn main() {
    let clients = [1u32, 20, 40, 80, 120, 160, 200, 246];
    let reps = 3u64;
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut details = Vec::new();
    for &n in &clients {
        // Rep 0 carries the recorded deterministic currencies; the printed
        // throughput averages all reps (each rep deterministic on its seed).
        let d0 = fig3_point_detail(n, 1000);
        let avg: f64 = (d0.per_client_mbps
            + (1..reps)
                .map(|r| fig3_point_detail(n, 1000 + r).per_client_mbps)
                .sum::<f64>())
            / reps as f64;
        series.push(avg);
        details.push(d0);
        rows.push(vec![
            n.to_string(),
            format!("{avg:.1}"),
            format!("{:.1}", avg * n as f64),
            format!("{:.1}", d0.sim_secs),
            d0.transfers.to_string(),
            format!("{}/{}", d0.dht_put_rpcs, d0.dht_puts),
        ]);
    }
    print_table(
        "Figure 3: concurrent appends to the same file (BSFS, 64 MB chunks, page = 64 MB)",
        &[
            "appenders",
            "per-client MB/s",
            "aggregate MB/s",
            "sim secs",
            "transfers",
            "put rpcs/nodes",
        ],
        &rows,
    );
    let retention = series.last().unwrap() / series.first().unwrap();
    println!(
        "\nshape: throughput retention at N=246 vs N=1: {:.2} (paper: \"BSFS maintains a good \
         throughput as the number of appenders increases\"); spread {:.2}",
        retention,
        relative_spread(&series)
    );
    assert!(
        retention > 0.35,
        "append throughput collapsed under concurrency: retention {retention:.2}"
    );

    Baseline::new("fig3_concurrent_appends")
        .sweep(&clients)
        .axis("clients", |n| *n)
        .sweep(&series)
        .series("per_client_mbps", Gate::Higher, 2, |avg| *avg)
        .sweep(&details)
        .series("sim_secs", Gate::Lower, 2, |d| d.sim_secs)
        .series("transfers", Gate::Lower, 0, |d| d.transfers)
        .series("dht_puts", Gate::Record, 0, |d| d.dht_puts)
        .series("dht_put_rpcs", Gate::Lower, 0, |d| d.dht_put_rpcs)
        .check_and_record("BENCH_fig3_appends.json");
}
