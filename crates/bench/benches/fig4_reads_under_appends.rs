//! Figure 4 — "Impact of concurrent appends on concurrent reads from the
//! same file": 100 readers (10 × 64 MB each, disjoint regions) measure
//! their average read throughput while 0→140 appenders (16 × 64 MB each)
//! hammer the same file. The paper: read throughput is sustained — the
//! versioning-based concurrency control isolates readers from appenders.

use bench_suite::{mixed_point_detail, print_table, relative_spread, MixedPoint};

fn main() {
    let appenders = [0u32, 20, 40, 60, 80, 100, 120, 140];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &a in &appenders {
        let MixedPoint {
            read_mbps,
            append_mbps,
            ..
        } = mixed_point_detail(100, 10, a, 16, 2000 + a as u64);
        series.push(read_mbps);
        rows.push(vec![
            a.to_string(),
            format!("{read_mbps:.1}"),
            if a == 0 {
                "-".into()
            } else {
                format!("{append_mbps:.1}")
            },
        ]);
    }
    print_table(
        "Figure 4: read throughput of 100 readers vs number of concurrent appenders",
        &["appenders", "read MB/s (avg of 100 readers)", "append MB/s"],
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
}
