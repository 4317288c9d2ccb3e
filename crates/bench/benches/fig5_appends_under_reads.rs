//! Figure 5 — "Impact of concurrent reads on concurrent appends to the
//! same file": 100 appenders (10 × 64 MB each) measure their average append
//! throughput while 0→140 readers (10 × 64 MB each) scan the same file.
//! The paper: appenders maintain their throughput as readers are added.
//!
//! This is the storage-plane contention figure: appender page streams
//! (batched `put_pages`, leased reservations) and reader fetches (batched
//! `get_pages`) meet at the very same providers, and reader metadata
//! traffic (snapshot lookups, index syncs, leaf gets) rides the same
//! sharded control plane the appenders use — if any of those planes grew a
//! shared lock or a per-page RPC loop back, this curve bends. The driver
//! records its deterministic currencies — per-appender and per-reader MB/s,
//! virtual completion seconds, wire transfers, provider put/get round-trips,
//! all exact for fixed seeds — into `BENCH_fig5_mixed.json` at the repo
//! root and gates each run against the committed baseline
//! (`bench_suite::baseline`), exactly like A4/fig3/fig6.

use bench_suite::{mixed_point_detail, print_table, relative_spread, Baseline, Gate, RoleMs};

fn main() {
    let readers = [0u32, 20, 40, 60, 80, 100, 120, 140];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut details = Vec::new();
    for &r in &readers {
        // Readers scan a pre-filled region; the point prefills r*10 chunks.
        let d = mixed_point_detail(r, 10, 100, 10, 3000 + r as u64);
        series.push(d.append_mbps);
        details.push(d);
        rows.push(vec![
            r.to_string(),
            format!("{:.1}", d.append_mbps),
            if r == 0 {
                "-".into()
            } else {
                format!("{:.1}", d.read_mbps)
            },
            format!("{:.1}", d.sim_secs),
            d.transfers.to_string(),
            format!("{}/{}", d.put_rpcs, d.get_rpcs),
            d.append_roles.cells(),
        ]);
    }
    print_table(
        "Figure 5: append throughput of 100 appenders vs number of concurrent readers",
        &[
            "readers",
            "append MB/s (avg of 100 appenders)",
            "read MB/s",
            "sim secs",
            "transfers",
            "put/get rpcs",
            "appender ms by role (ledger)",
        ],
        &rows,
    );
    let retention = series.last().unwrap() / series.first().unwrap();
    println!(
        "\nshape: append throughput with 140 readers vs none: {:.2} (paper: \"concurrent \
         appenders maintain their throughput as well, when the number of concurrent readers \
         from a shared file increases\"); spread {:.2}",
        retention,
        relative_spread(&series)
    );
    assert!(
        retention > 0.5,
        "appenders were not isolated from readers: retention {retention:.2}"
    );

    let record = Baseline::new("fig5_appends_under_reads")
        .sweep(&readers)
        .axis("readers", |r| *r)
        .sweep(&details)
        .series("append_mbps", Gate::Higher, 2, |d| d.append_mbps)
        .series("read_mbps", Gate::Higher, 2, |d| d.read_mbps)
        .series("sim_secs", Gate::Lower, 2, |d| d.sim_secs)
        .series("transfers", Gate::Exact, 0, |d| d.transfers)
        .series("put_rpcs", Gate::Exact, 0, |d| d.put_rpcs)
        .series("get_rpcs", Gate::Exact, 0, |d| d.get_rpcs);
    // One op is an appender's run of 10 appends.
    RoleMs::record(record, "append_ledger_ms", |d| d.append_roles)
        .check_and_record("BENCH_fig5_mixed.json");
}
