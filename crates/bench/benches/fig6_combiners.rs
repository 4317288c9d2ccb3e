//! fig6_combiners — combiner-ablation companion to Figure 6: how many
//! shuffle *bytes* (not just round-trips) the two-tier combine removes, at
//! the shuffle-stress shape (48 maps / 8 nodes / 8 reducers, maps ≫ nodes).
//!
//! The tuning axis sweeps the tier-2 flush cadence: `off` (no node
//! combine), `eager1` (flush after every buffered task — maximum overlap,
//! minimum cross-task combining), `tasks2` (flush every 2 tasks) and `node`
//! (flush only at node map-phase completion — maximum combining). Both
//! workloads run each point: wordcount's combiner collapses repeated keys
//! (calibrated ghost ratio 0.15, so full-node combining cuts bytes ≳5x),
//! while datajoin has no combiner — tier-2 only merges segments per node,
//! so its bytes must NOT move (the ablation's control arm).
//!
//! Results land in `BENCH_fig6_combiners.json` at the repo root; the
//! committed copy is the baseline this driver is gated against (shuffle
//! bytes exact — they are sim-exact for a fixed seed; completion seconds no
//! worse than 1.25x; `bench_suite::baseline`), so a combine regression fails
//! the build.

use bench_suite::{
    fig6_combiners_point, print_table, Baseline, CombinePoint, CombineWorkload, Gate,
};
use mapreduce::ShuffleTuning;

const NODES: u32 = 8;
const MAPS: u32 = 48;
const REDUCERS: u32 = 8;
const SEED: u64 = 6464;

/// The swept flush cadences, mildest to most aggressive combining.
fn tunings() -> Vec<(&'static str, ShuffleTuning)> {
    let every = |flush_tasks: Option<u32>| ShuffleTuning {
        node_combine: flush_tasks.is_some(),
        flush_tasks,
        flush_bytes: None,
    };
    vec![
        ("off", every(None)),
        ("eager1", every(Some(1))),
        ("tasks2", every(Some(2))),
        // Default tuning: 64 MiB byte threshold never fires at this input
        // size, so nodes flush exactly once, at map-phase completion.
        ("node", ShuffleTuning::default()),
    ]
}

fn main() {
    let mut rows = Vec::new();
    let mut wc_points: Vec<CombinePoint> = Vec::new();
    let mut dj_points: Vec<CombinePoint> = Vec::new();
    for (label, tuning) in tunings() {
        let wc = fig6_combiners_point(
            CombineWorkload::Wordcount,
            NODES,
            MAPS,
            REDUCERS,
            tuning,
            SEED,
        );
        let dj = fig6_combiners_point(
            CombineWorkload::Datajoin,
            NODES,
            MAPS,
            REDUCERS,
            tuning,
            SEED,
        );
        rows.push(vec![
            label.to_string(),
            mb(wc.shuffle_bytes),
            mb(wc.combine_saved_bytes),
            wc.combined_segments.to_string(),
            wc.early_shuffle_fetches.to_string(),
            format!("{:.1}", wc.secs),
            mb(dj.shuffle_bytes),
            dj.combined_segments.to_string(),
            format!("{:.1}", dj.secs),
        ]);
        wc_points.push(wc);
        dj_points.push(dj);
    }
    print_table(
        "fig6_combiners: shuffle bytes vs combine flush cadence (48 maps / 8 nodes / 8 reducers)",
        &[
            "tuning",
            "wc bytes (MB)",
            "wc saved (MB)",
            "wc segs",
            "wc early",
            "wc secs",
            "dj bytes (MB)",
            "dj segs",
            "dj secs",
        ],
        &rows,
    );

    let (wc_off, wc_node) = (&wc_points[0], &wc_points[3]);
    let byte_cut = wc_off.shuffle_bytes as f64 / wc_node.shuffle_bytes.max(1) as f64;
    println!(
        "\nwordcount: full-node combining shuffles {:.1}x fewer bytes than combiner-off \
         ({} -> {} bytes, {} saved);",
        byte_cut, wc_off.shuffle_bytes, wc_node.shuffle_bytes, wc_node.combine_saved_bytes
    );
    println!(
        "datajoin control: no combiner, so bytes stay put ({} across every tuning) while \
         segments collapse {} -> {};",
        dj_points[0].shuffle_bytes, dj_points[0].shuffle_segments, dj_points[3].combined_segments
    );

    // The headline claim: combining cuts wordcount shuffle BYTES >= 5x at
    // the stress shape (ghost ratio 0.15 over whole-node runs gives ~6.7x).
    assert!(
        byte_cut >= 5.0,
        "node combining must cut wordcount shuffle bytes >= 5x, got {byte_cut:.2}x \
         ({} vs {})",
        wc_off.shuffle_bytes,
        wc_node.shuffle_bytes
    );
    assert!(
        wc_node.combine_saved_bytes > 0 && wc_node.combined_segments > 0,
        "combined run must account its savings"
    );
    assert_eq!(
        wc_off.combined_segments, 0,
        "combiner-off run published combined segments"
    );
    assert!(
        wc_node.combined_segments <= u64::from(NODES) * u64::from(REDUCERS),
        "tier-2 publishes at most one segment per (node, partition): {}",
        wc_node.combined_segments
    );
    // Every combined cadence earns the cut, eager included (per-flush ghost
    // rounding makes the exact byte counts differ by a few bytes between
    // cadences, so no strict monotonicity across them — just the bound).
    for (i, wc) in wc_points.iter().enumerate().skip(1) {
        assert!(
            wc.shuffle_bytes * 5 <= wc_off.shuffle_bytes,
            "combined tuning #{i} must cut wordcount shuffle bytes >= 5x: {} vs {}",
            wc.shuffle_bytes,
            wc_off.shuffle_bytes
        );
    }
    // Control arm: datajoin has no combiner, so tier-2 must move segments,
    // not bytes — byte-identical shuffle volume across the whole sweep.
    for dj in &dj_points {
        assert_eq!(
            dj.shuffle_bytes, dj_points[0].shuffle_bytes,
            "datajoin shuffle bytes moved under a combiner-less tuning sweep"
        );
    }
    assert!(
        dj_points[3].combined_segments <= u64::from(NODES) * u64::from(REDUCERS),
        "datajoin node-flush segments exceed nodes x reducers"
    );
    // Streaming: the eager cadence demonstrably overlaps shuffle with the
    // map phase.
    assert!(
        wc_points[1].early_shuffle_fetches > 0,
        "eager flushing produced no early reducer fetches"
    );

    // Shuffle bytes are exact sim currencies: any drift is a combine-pipeline
    // change and must be re-recorded deliberately. Seconds get tolerance.
    Baseline::new("fig6_combiners")
        .param("nodes", NODES)
        .param("maps", MAPS)
        .param("reducers", REDUCERS)
        .sweep(&tunings())
        .axis("tunings", |(label, _)| *label)
        .sweep(&wc_points)
        .series("wordcount_shuffle_bytes", Gate::Exact, 0, |wc| {
            wc.shuffle_bytes
        })
        .series("wordcount_secs", Gate::Lower, 1, |wc| wc.secs)
        .sweep(&dj_points)
        .series("datajoin_shuffle_bytes", Gate::Exact, 0, |dj| {
            dj.shuffle_bytes
        })
        .series("datajoin_secs", Gate::Lower, 1, |dj| dj.secs)
        .scalar("wordcount_byte_reduction", Gate::Record, 2, byte_cut)
        .check_and_record("BENCH_fig6_combiners.json");
}

fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}
