//! Ablation A4 — append cost vs version-history depth.
//!
//! BlobSeer's promise is that an update pays for a root-to-leaf path, never
//! for the BLOB's history. This bench pins that: it drives one blob to
//! 10 000 versions and samples the per-append cost at depth 1 / 100 /
//! 1 000 / 10 000, in three currencies:
//!
//! * wall-clock ns per append (the planning CPU the descriptor index
//!   removed from O(V) to O(log V)),
//! * simulated ns per append (the modeled wire cost, batched),
//! * DHT node puts per append (== metadata tree path length).
//!
//! Appends necessarily grow the page count, so the tree deepens
//! logarithmically with depth; the flatness assertion therefore checks
//! wall-clock *per tree node written*. A second series does fixed-size
//! interior overwrites (constant tree depth) where raw per-update cost must
//! stay flat. Results land in `BENCH_history_depth.json` at the repo root —
//! the perf-trajectory baseline CI uploads, gated through
//! `bench_suite::baseline` (sim ns/op no worse than 1.25x, DHT puts exact).

use std::time::Instant;

use bench_suite::{print_table, Baseline, Gate};
use blobseer::{BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

const PS: u64 = 1024;
const DEPTHS: [u64; 4] = [1, 100, 1_000, 10_000];
const WINDOW: u64 = 64;

#[derive(Clone, Copy)]
struct Point {
    depth: u64,
    wall_ns_per_op: f64,
    sim_ns_per_op: f64,
    puts_per_op: f64,
}

/// Wall-clock planning cost per metadata tree node written.
fn per_node(pt: &Point) -> f64 {
    pt.wall_ns_per_op / pt.puts_per_op.max(1.0)
}

/// One depth series of the record. Sim time and DHT puts are deterministic
/// for the fixed seed; wall-clock fields are recorded but never gated.
fn declare<'a>(record: Baseline<'a, Point>, name: &'static str) -> Baseline<'a, Point> {
    record
        .section(name)
        .axis("depth", |pt| pt.depth)
        .series("wall_ns_per_op", Gate::Record, 1, |pt| pt.wall_ns_per_op)
        .series("wall_ns_per_node", Gate::Record, 1, per_node)
        .series("sim_ns_per_op", Gate::Lower, 1, |pt| pt.sim_ns_per_op)
        .series("dht_puts_per_op", Gate::Exact, 2, |pt| pt.puts_per_op)
}

fn deploy() -> (Fabric, BlobSeer) {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let layout = Layout::compact(fx.spec());
    let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(PS), layout).expect("deploy");
    (fx, bs)
}

fn total_puts(bs: &BlobSeer) -> u64 {
    bs.metadata_dht()
        .servers()
        .iter()
        .map(|s| s.op_counts().0)
        .sum()
}

/// Run `ops` updates via `step`, measuring the trailing `WINDOW` before each
/// checkpoint depth.
#[expect(
    clippy::disallowed_methods,
    reason = "reports wall vs sim time on purpose"
)]
fn run_series(
    bs: &BlobSeer,
    p: &fabric::Proc,
    step: &mut dyn FnMut(u64),
    checkpoints: &[u64],
) -> Vec<Point> {
    let mut points = Vec::new();
    let mut done = 0u64;
    for &depth in checkpoints {
        while done < depth.saturating_sub(WINDOW) {
            step(done);
            done += 1;
        }
        let window = depth - done;
        let puts0 = total_puts(bs);
        let sim0 = p.now();
        let wall0 = Instant::now();
        while done < depth {
            step(done);
            done += 1;
        }
        let w = window.max(1) as f64;
        points.push(Point {
            depth,
            wall_ns_per_op: wall0.elapsed().as_nanos() as f64 / w,
            sim_ns_per_op: (p.now() - sim0) as f64 / w,
            puts_per_op: (total_puts(bs) - puts0) as f64 / w,
        });
    }
    points
}

fn main() {
    // Series 1: appends (one page each); history depth == page count, so
    // the tree depth grows logarithmically alongside.
    let (fx, bs) = deploy();
    let bs2 = bs.clone();
    let append_points = {
        let h = fx.spawn(NodeId(1), "appender", move |p| {
            let c = bs2.client();
            let blob = c.create(p, None);
            let mut step = |_v: u64| {
                c.append(p, blob, Payload::ghost(PS)).unwrap();
            };
            run_series(&bs2, p, &mut step, &DEPTHS)
        });
        fx.run();
        h.take().unwrap()
    };

    // Series 2: interior overwrites of a fixed 128-page blob — constant
    // tree depth, so per-update cost must be flat in history depth alone.
    let (fx, bs) = deploy();
    let bs2 = bs.clone();
    let overwrite_points = {
        let h = fx.spawn(NodeId(1), "overwriter", move |p| {
            let c = bs2.client();
            let blob = c.create(p, None);
            c.append(p, blob, Payload::ghost(128 * PS)).unwrap();
            let mut step = |v: u64| {
                let page = v % 127; // keep the tail page out of play
                c.write(p, blob, page * PS, Payload::ghost(PS)).unwrap();
            };
            run_series(&bs2, p, &mut step, &[100, 1_000, 10_000])
        });
        fx.run();
        h.take().unwrap()
    };

    let table = |title: &str, pts: &[Point]| {
        let row = |pt: &Point| {
            vec![
                pt.depth.to_string(),
                format!("{:.0}", pt.wall_ns_per_op),
                format!("{:.0}", per_node(pt)),
                format!("{:.0}", pt.sim_ns_per_op),
                format!("{:.1}", pt.puts_per_op),
            ]
        };
        let headers = [
            "depth",
            "wall ns/op",
            "wall ns/node",
            "sim ns/op",
            "DHT puts/op",
        ];
        print_table(title, &headers, &pts.iter().map(row).collect::<Vec<_>>());
    };
    table(
        "Ablation A4a: append cost vs history depth (1 page per append)",
        &append_points,
    );
    table(
        "Ablation A4b: interior-overwrite cost vs history depth (128-page blob, constant tree)",
        &overwrite_points,
    );

    let record = Baseline::new("abl_history_depth")
        .param("page_size", PS)
        .param("window", WINDOW);
    let record = declare(record.sweep(&append_points), "append_series");
    declare(record.sweep(&overwrite_points), "overwrite_series")
        .check_and_record("BENCH_history_depth.json");

    // Acceptance gates, flat (within 2x) from depth 100 to 10 000 instead
    // of the ~100x a linear rescan would cost. The hard 2x gates use the
    // DETERMINISTIC currencies (simulated wire time, DHT node puts) so a
    // noisy CI runner cannot fail them; wall-clock gets a loose 5x backstop
    // that still catches an O(V) regression (which would be ~50-100x) while
    // the committed JSON baseline records the precise wall numbers.
    let (a100, a10k) = (&append_points[1], &append_points[3]);
    let (o100, o10k) = (&overwrite_points[0], &overwrite_points[2]);
    assert!(
        a10k.sim_ns_per_op <= 2.0 * a100.sim_ns_per_op,
        "simulated append cost grew {:.0} -> {:.0} ns from depth 100 to 10k",
        a100.sim_ns_per_op,
        a10k.sim_ns_per_op,
    );
    assert!(
        o10k.sim_ns_per_op <= 2.0 * o100.sim_ns_per_op,
        "simulated fixed-tree overwrite cost grew {:.0} -> {:.0} ns from depth 100 to 10k",
        o100.sim_ns_per_op,
        o10k.sim_ns_per_op,
    );
    // The wire side: node puts per append track tree depth (~log), never V.
    assert!(
        a10k.puts_per_op <= 2.0 * a100.puts_per_op,
        "DHT puts per append grew {:.1} -> {:.1} from depth 100 to 10k",
        a100.puts_per_op,
        a10k.puts_per_op,
    );
    assert!(
        per_node(a10k) <= 5.0 * per_node(a100),
        "append planning wall cost per tree node grew {:.0} -> {:.0} ns from depth 100 to 10k",
        per_node(a100),
        per_node(a10k),
    );
    assert!(
        o10k.wall_ns_per_op <= 5.0 * o100.wall_ns_per_op,
        "fixed-tree overwrite wall cost grew {:.0} -> {:.0} ns from depth 100 to 10k",
        o100.wall_ns_per_op,
        o10k.wall_ns_per_op,
    );
    println!(
        "flatness gates passed: sim {:.2}x, puts {:.2}x, wall/node {:.2}x (append, depth 100 -> 10k)",
        a10k.sim_ns_per_op / a100.sim_ns_per_op,
        a10k.puts_per_op / a100.puts_per_op,
        per_node(a10k) / per_node(a100),
    );
}
