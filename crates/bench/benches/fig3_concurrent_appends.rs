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
//!
//! Beside them it prints and records where an append's virtual time went:
//! each appender's ledger, folded into the deployment's roles (the
//! appender's own node, the version manager, the namespace manager, …).
//! `RoleMs::fold` asserts on every point that they sum to the mean append
//! time, and the roles are gated exactly.
//!
//! Three sections rerun the workload with one of the paper's unjustified
//! constants changed, each asserting its claim and gated like the rest:
//! `page_size` (64 MB pages, §4.1), `replication` (page replication,
//! §3.1.1, unreplicated in the paper's runs) and `meta_providers` (20
//! metadata providers, §4.1).

use bench_suite::{
    fig3_point_detail, print_table, relative_spread, Baseline, Fig3Point, Gate, RoleMs,
};
use blobseer::{BlobSeerConfig, Layout};
use fabric::ClusterSpec;

fn main() {
    let clients = [1u32, 20, 40, 80, 120, 160, 200, 246];
    let reps = 3u64;
    let paper_point = |n, seed| fig3_point_detail(n, seed, BlobSeerConfig::paper(), paper_layout());
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut details = Vec::new();
    for &n in &clients {
        // Rep 0 carries the recorded deterministic currencies; the printed
        // throughput averages all reps (each rep deterministic on its seed).
        let d0 = paper_point(n, 1000);
        let avg: f64 = (d0.per_client_mbps
            + (1..reps)
                .map(|r| paper_point(n, 1000 + r).per_client_mbps)
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
            format!("{:.1}", d0.roles.op_ms),
            d0.roles.cells(),
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
            "ms/append",
            "ms by role (ledger)",
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

    let record = Baseline::new("fig3_concurrent_appends")
        .sweep(&clients)
        .axis("clients", |n| *n)
        .sweep(&series)
        .series("per_client_mbps", Gate::Higher, 2, |avg| *avg)
        .sweep(&details)
        .series("sim_secs", Gate::Lower, 2, |d| d.sim_secs)
        .series("transfers", Gate::Lower, 0, |d| d.transfers)
        .series("dht_puts", Gate::Exact, 0, |d| d.dht_puts)
        .series("dht_put_rpcs", Gate::Exact, 0, |d| d.dht_put_rpcs);
    let pages = page_size();
    let replicas = replication();
    let metas = meta_providers();
    let mbps = |(_, d): &(u64, Fig3Point)| d.per_client_mbps;
    RoleMs::record(record, "ledger_ms", |d| d.roles)
        .section("page_size")
        .sweep(&pages)
        .axis("page_mb", |(mb, _)| *mb)
        .series("per_client_mbps", Gate::Higher, 2, mbps)
        .series("dht_puts", Gate::Exact, 0, |(_, d)| d.dht_puts)
        .section("replication")
        .sweep(&replicas)
        .axis("replicas", |(r, _)| *r)
        .series("per_client_mbps", Gate::Higher, 2, mbps)
        .series("stored_bytes", Gate::Exact, 0, |(_, d)| d.stored_bytes)
        .section("meta_providers")
        .sweep(&metas)
        .axis("meta_providers", |(n, _)| *n)
        .series("per_client_mbps", Gate::Higher, 2, mbps)
        .series("total_nodes", Gate::Exact, 0, |(_, d)| d.meta_nodes)
        .series("max_server_nodes", Gate::Exact, 0, |(_, d)| {
            d.max_server_nodes
        })
        .check_and_record("BENCH_fig3_appends.json");
}

/// Figure 3's workload, `n` appenders of one 64 MB chunk each, once per `x`
/// on the deployment `at(x)` with seed `seed + x`; printed with `x` and the
/// per-client MB/s first, then `cells`.
fn ablate(
    title: &str,
    headers: &[&str],
    (xs, n, seed): (&[u64], u32, u64),
    at: impl Fn(u64) -> (BlobSeerConfig, Layout),
    cells: impl Fn(&Fig3Point) -> Vec<String>,
) -> Vec<(u64, Fig3Point)> {
    let points: Vec<(u64, Fig3Point)> = (xs.iter())
        .map(|&x| {
            let (config, layout) = at(x);
            (x, fig3_point_detail(n, seed + x, config, layout))
        })
        .collect();
    let row = |(x, d): &(u64, Fig3Point)| {
        [
            vec![x.to_string(), format!("{:.1}", d.per_client_mbps)],
            cells(d),
        ]
        .concat()
    };
    print_table(title, headers, &points.iter().map(row).collect::<Vec<_>>());
    points
}

fn paper_layout() -> Layout {
    Layout::paper(&ClusterSpec::orsay_270())
}

/// A1, page size: smaller pages stripe an append over more providers but
/// multiply its metadata tree nodes. Claim: the DHT puts never rise with the
/// page size and fall strictly up to the paper's 64 MB, while per-client
/// throughput stays flat, so 64 MB costs no throughput here.
fn page_size() -> Vec<(u64, Fig3Point)> {
    let points = ablate(
        "Ablation A1: page size (64 appenders x one 64 MB chunk; paper: 64 MB)",
        &["page MB", "per-client MB/s", "metadata puts"],
        (&[4, 16, 32, 64, 128], 64, 9000),
        |mb| {
            (
                BlobSeerConfig::paper().with_page_size(mb << 20),
                paper_layout(),
            )
        },
        |d| vec![d.dht_puts.to_string()],
    );
    let puts: Vec<u64> = points.iter().map(|(_, d)| d.dht_puts).collect();
    assert!(
        puts.windows(2).all(|w| w[1] <= w[0]) && puts[..4].windows(2).all(|w| w[1] < w[0]),
        "metadata puts must fall as pages grow to 64 MB and never rise: {puts:?}"
    );
    let mbps: Vec<f64> = points.iter().map(|(_, d)| d.per_client_mbps).collect();
    assert!(
        relative_spread(&mbps) < 0.05,
        "per-client throughput must not depend on the page size: {mbps:?}"
    );
    points
}

/// A2, page replication: each replica is one more page stream out of the
/// writer's NIC. Claim: the store holds exactly r copies, and the cost grows
/// linearly in r, the slowdown against r = 1 lying in [0.85 r, r].
fn replication() -> Vec<(u64, Fig3Point)> {
    let points = ablate(
        "Ablation A2: replication factor (64 appenders x 64 MB; paper: unreplicated)",
        &["replicas", "per-client MB/s", "bytes stored"],
        (&[1, 2, 3], 64, 9100),
        |r| {
            (
                BlobSeerConfig::paper().with_replication(r as usize),
                paper_layout(),
            )
        },
        |d| vec![format!("{:.1} GB", d.stored_bytes as f64 / 1e9)],
    );
    let one = points[0].1;
    for (r, d) in &points[1..] {
        let slowdown = one.per_client_mbps / d.per_client_mbps;
        println!("slowdown at r = {r} vs r = 1: {slowdown:.2}");
        assert_eq!(
            d.stored_bytes,
            r * one.stored_bytes,
            "r = {r} must store r copies"
        );
        assert!(
            (0.85 * *r as f64..=*r as f64).contains(&slowdown),
            "r = {r} must cost between 0.85 r and r: slowdown {slowdown:.2}"
        );
    }
    points
}

/// A3, metadata providers. Claim: the tree is the same size however it is
/// spread, the busiest server's share falls strictly as servers are added,
/// and the paper's 20 are within 1 % of 64 and no slower than one.
fn meta_providers() -> Vec<(u64, Fig3Point)> {
    let points = ablate(
        "Ablation A3: metadata providers (128 appenders x 64 MB; paper: 20)",
        &[
            "meta providers",
            "per-client MB/s",
            "tree nodes",
            "max on one server",
        ],
        (&[1, 5, 20, 64], 128, 9200),
        |n| {
            let layout = Layout::paper_with_meta(&ClusterSpec::orsay_270(), n as u32);
            (BlobSeerConfig::paper(), layout)
        },
        |d| vec![d.meta_nodes.to_string(), d.max_server_nodes.to_string()],
    );
    let total: Vec<usize> = points.iter().map(|(_, d)| d.meta_nodes).collect();
    let max: Vec<usize> = points.iter().map(|(_, d)| d.max_server_nodes).collect();
    assert!(
        total.windows(2).all(|w| w[0] == w[1]) && max.windows(2).all(|w| w[1] < w[0]),
        "the tree must keep its size while its busiest server's share falls as \
         servers are added: nodes {total:?}, on the busiest {max:?}"
    );
    let [one, _, paper, most] = [0, 1, 2, 3].map(|i| points[i].1.per_client_mbps);
    assert!(
        paper >= 0.99 * most && paper >= one,
        "20 metadata providers must be within 1 % of 64 and no slower than 1: \
         {paper:.1} vs {most:.1} and {one:.1} MB/s"
    );
    points
}
