//! Figure 6 — "Completion time of the data join application when varying
//! the number of reducers": the data join contrib application (2 × 320 MB
//! Last.fm-like input, ≈6.3 GB join output) on the 270-node cluster,
//! comparing original Hadoop + HDFS (one output file per reducer) against
//! modified Hadoop + BSFS (all reducers append to one shared file).
//!
//! Paper claims: (a) BSFS finishes in approximately the same time as HDFS —
//! the single shared output file costs nothing; (b) both curves stay
//! roughly constant because data join is computation-dominated; (c) BSFS
//! leaves ONE file where HDFS leaves R.
//!
//! On top of the paper sweep, a *shuffle-stress* point (maps ≫ nodes, the
//! regime fig6's 10-map workload never enters) measures the combined
//! shuffle: with the tier-2 node combine on, reducers pull at most one
//! segment per (map-node, partition) instead of one per (map task,
//! partition), so 48 maps on 8 nodes collapse 384 naive pulls into ≤ 64.
//! Results land in `BENCH_fig6_shuffle.json` at the repo root; the
//! committed copy is the baseline this driver is gated against
//! (deterministic sim currencies only; `bench_suite::baseline`), so a
//! data-plane regression fails the build.

use bench_suite::{
    fig6_combiners_point, fig6_point, print_table, relative_spread, Baseline, CombineWorkload,
    Fig6System, Gate, RoleMs,
};
use mapreduce::ShuffleTuning;

fn main() {
    let reducers = [1u32, 10, 25, 50, 100, 150, 200, 230];
    let mut rows = Vec::new();
    let mut hdfs_points = Vec::new();
    let mut bsfs_points = Vec::new();
    for &r in &reducers {
        let hdfs = fig6_point(Fig6System::HdfsPerReducer, r, 4000 + r as u64);
        let bsfs = fig6_point(Fig6System::BsfsSharedAppend, r, 4000 + r as u64);
        hdfs_points.push(hdfs);
        bsfs_points.push(bsfs);
        // With 10 maps spread over 247 tasktrackers every map lands on its
        // own node, so tier-2 combining leaves one segment per (map, r).
        assert_eq!(
            bsfs.shuffle_segments,
            10 * u64::from(r),
            "every reducer pulls every map-node's combined output"
        );
        assert!(
            bsfs.shuffle_transfers <= bsfs.shuffle_segments,
            "host grouping can never add transfers"
        );
        rows.push(vec![
            r.to_string(),
            format!("{:.0}", hdfs.secs),
            format!("{:.0}", bsfs.secs),
            format!("{:.3}", bsfs.secs / hdfs.secs),
            hdfs.output_files.to_string(),
            bsfs.output_files.to_string(),
            format!("{}/{}", bsfs.shuffle_transfers, bsfs.shuffle_segments),
            format!("{:.0}", hdfs.roles.op_ms),
            format!("{:.0}", bsfs.roles.op_ms),
        ]);
    }
    let hdfs_series: Vec<f64> = hdfs_points.iter().map(|h| h.secs).collect();
    let bsfs_series: Vec<f64> = bsfs_points.iter().map(|b| b.secs).collect();
    print_table(
        "Figure 6: data join completion time vs number of reducers (270 nodes, 640 MB in, ~6.3 GB out)",
        &[
            "reducers",
            "HDFS multi-file (s)",
            "BSFS single-file (s)",
            "BSFS/HDFS",
            "HDFS files",
            "BSFS files",
            "shuffle xfers/segs",
            "HDFS commit ms",
            "BSFS commit ms",
        ],
        &rows,
    );
    let last = reducers.len() - 1;
    println!(
        "\nreducer output commit at {} reducers, ms by role (ledger):\n  HDFS: {}\n  BSFS: {}",
        reducers[last],
        hdfs_points[last].roles.cells(),
        bsfs_points[last].roles.cells()
    );
    let worst_ratio = hdfs_series
        .iter()
        .zip(&bsfs_series)
        .map(|(h, b)| (b / h - 1.0).abs())
        .fold(0.0f64, f64::max);
    println!(
        "\nshape: max |BSFS-HDFS| completion-time gap: {:.1}% (paper: \"BSFS finishes the job in \
         approximately the same amount of time as HDFS\");",
        worst_ratio * 100.0
    );
    println!(
        "shape: completion-time spread over reducer counts: HDFS {:.2}, BSFS {:.2} (paper: \
         \"the completion time in both scenarios remains constant\", dominated by the map phase);",
        relative_spread(&hdfs_series),
        relative_spread(&bsfs_series)
    );
    println!(
        "file-count: HDFS leaves R files, BSFS always leaves 1 — the paper's simplicity argument."
    );
    assert!(
        worst_ratio < 0.25,
        "append support should come at no extra cost; gap {worst_ratio:.2}"
    );

    // Shuffle-stress point: 48 maps on 8 nodes, 8 reducers. fig6's own
    // 10-map workload spreads across 247 tasktrackers, so per-node combining
    // only shows once maps outnumber nodes — here the tier-2 combine folds
    // every node's 6 map outputs into one segment per partition, so each
    // reducer pulls at most 8 segments instead of 48.
    let maps = 48;
    let stress = fig6_combiners_point(
        CombineWorkload::ShuffleStress,
        8,
        maps,
        8,
        ShuffleTuning::default(),
        4242,
    );
    let (segments, transfers, stress_secs) = (
        stress.shuffle_segments,
        stress.shuffle_transfers,
        stress.secs,
    );
    let naive = u64::from(maps) * 8;
    let reduction = naive as f64 / segments.max(1) as f64;
    println!(
        "\nshuffle stress ({maps} maps / 8 nodes / 8 reducers): tier-2 combine published \
         {segments} segments where per-task shuffle would pull {naive} ({reduction:.1}x fewer), \
         {transfers} wire transfers, {stress_secs:.1}s"
    );
    assert!(
        segments <= 8 * 8,
        "tier-2 combine must bound segments by map-nodes x reducers: {segments}"
    );
    assert!(
        segments * 2 <= naive,
        "with maps >> nodes the combined shuffle must at least halve the segment pulls: \
         {segments} segments for {naive} naive per-task pulls"
    );
    assert!(
        transfers <= 80,
        "streaming fetch must not exceed the per-(node, partition) delivery budget: {transfers}"
    );

    // Virtual completion seconds and wire counts are exact for a fixed seed;
    // wall clock never enters this file.
    // One op is a reducer's output commit.
    let record = Baseline::new("fig6_datajoin")
        .sweep(&reducers)
        .axis("reducers", |r| *r)
        .sweep(&hdfs_series)
        .series("hdfs_secs", Gate::Record, 1, |secs| *secs)
        .sweep(&bsfs_points)
        .series("bsfs_secs", Gate::Lower, 1, |b| b.secs)
        .series("bsfs_shuffle_transfers", Gate::Exact, 0, |b| {
            b.shuffle_transfers
        });
    let record = RoleMs::record(record, "bsfs_commit_ledger_ms", |b| b.roles);
    let record = RoleMs::record(record.sweep(&hdfs_points), "hdfs_commit_ledger_ms", |h| {
        h.roles
    });
    record
        .section("shuffle_stress")
        .param("nodes", 8)
        .param("maps", maps)
        .param("reducers", 8)
        .param("naive_pulls", naive)
        .scalar("segments", Gate::Exact, 0, segments)
        .scalar("transfers", Gate::Exact, 0, transfers)
        .scalar("segment_reduction", Gate::Record, 2, reduction)
        .scalar("secs", Gate::Record, 1, stress_secs)
        .check_and_record("BENCH_fig6_shuffle.json");
}
