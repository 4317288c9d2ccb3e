//! Figure 4 — "Impact of concurrent appends on concurrent reads from the
//! same file": 100 readers (10 × 64 MB each, disjoint regions) measure
//! their average read throughput while 0→140 appenders (16 × 64 MB each)
//! hammer the same file. The paper: read throughput is sustained — the
//! versioning-based concurrency control isolates readers from appenders.
//!
//! The mirror of Figure 5 with the roles swapped, and gated the same way:
//! the driver records its deterministic currencies — per-reader and
//! per-appender MB/s, virtual completion seconds, wire transfers, provider
//! put/get round-trips, all exact for fixed seeds — into
//! `BENCH_fig4_reads_under_appends.json` at the repo root and diffs each run
//! against the committed baseline (`bench_suite::baseline`).

use bench_suite::{mixed_point_detail, print_table, relative_spread, Baseline, Gate};

fn main() {
    let appenders = [0u32, 20, 40, 60, 80, 100, 120, 140];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut details = Vec::new();
    for &a in &appenders {
        let d = mixed_point_detail(100, 10, a, 16, 2000 + a as u64);
        series.push(d.read_mbps);
        details.push(d);
        rows.push(vec![
            a.to_string(),
            format!("{:.1}", d.read_mbps),
            if a == 0 {
                "-".into()
            } else {
                format!("{:.1}", d.append_mbps)
            },
            format!("{:.1}", d.sim_secs),
            d.transfers.to_string(),
            format!("{}/{}", d.put_rpcs, d.get_rpcs),
        ]);
    }
    print_table(
        "Figure 4: read throughput of 100 readers vs number of concurrent appenders",
        &[
            "appenders",
            "read MB/s (avg of 100 readers)",
            "append MB/s",
            "sim secs",
            "transfers",
            "put/get rpcs",
        ],
        &rows,
    );
    let retention = series.last().unwrap() / series.first().unwrap();
    println!(
        "\nshape: read throughput with 140 appenders vs none: {:.2} (paper: \"the average \
         throughput of BSFS reads is sustained even when the same file is accessed by multiple \
         concurrent appenders\"); spread {:.2}",
        retention,
        relative_spread(&series)
    );
    assert!(
        retention > 0.5,
        "readers were not isolated from appenders: retention {retention:.2}"
    );

    Baseline::new("fig4_reads_under_appends")
        .sweep(&appenders)
        .axis("appenders", |a| *a)
        .sweep(&details)
        .series("read_mbps", Gate::Higher, 2, |d| d.read_mbps)
        .series("append_mbps", Gate::Higher, 2, |d| d.append_mbps)
        .series("sim_secs", Gate::Lower, 2, |d| d.sim_secs)
        .series("transfers", Gate::Exact, 0, |d| d.transfers)
        .series("put_rpcs", Gate::Exact, 0, |d| d.put_rpcs)
        .series("get_rpcs", Gate::Exact, 0, |d| d.get_rpcs)
        .check_and_record("BENCH_fig4_reads_under_appends.json");
}
