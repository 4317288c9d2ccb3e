//! Extension E1 (paper §5, future work) — pipelined Map/Reduce stages:
//! "the reducers generate the data and append it to a file that is at the
//! same time, read and processed by the mappers [of the next stage]".
//!
//! Setup: stage 1 is a reduce-heavy job on a 16-worker sub-cluster whose 64
//! reducers append ~6.3 GB to one shared BSFS file in 4 waves; stage 2 is a
//! set of 16 consumers (the next stage's mappers) that process the file
//! chunk-by-chunk (strided ownership). In the *sequential* schedule the
//! consumers wait for stage 1 to finish; in the *pipelined* schedule they
//! tail the file and process each wave while the next is still computing —
//! exactly the overlap the paper argues Figures 4/5 make safe.

use std::sync::Arc;

use bench_suite::{path, print_table, CHUNK};
use blobseer::BlobSeerConfig;
use bsfs::Bsfs;
use dfs::FileSystem;
use fabric::prelude::*;
use fabric::ClusterSpec;
use mapreduce::{GhostProfile, JobConf, MrCluster, MrConfig, OutputMode};

const CONSUMERS: u32 = 16;
const REDUCERS: u32 = 64;
/// Stage-2 per-byte CPU (same ballpark as a scan-heavy map phase).
const STAGE2_CPU_PER_BYTE: f64 = 1000.0;

/// Stage-1 profile: light maps, heavy reducers -> the append stream spreads
/// over several reduce waves instead of one synchronized burst.
fn stage1_profile() -> GhostProfile {
    GhostProfile {
        input_record_bytes: 32,
        map_output_ratio: 10.08,
        map_cpu_per_byte: 1_000.0,
        reduce_output_ratio: 1.0,
        reduce_cpu_per_byte: 1_500.0,
        combine_output_ratio: 1.0, // inert: datajoin has no combiner
    }
}

fn pipeline_run(overlap: bool, seed: u64) -> (f64, f64) {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let bsfs = Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).expect("bsfs");
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    // A 16-worker sub-cluster with one reduce slot each: 64 reducers run in
    // 4 waves, so the shared file grows in bursts.
    let mr_cfg = MrConfig {
        jobtracker: NodeId(2),
        tasktrackers: (23..39).map(NodeId).collect(),
        map_slots: 2,
        reduce_slots: 1,
        heartbeat_ns: 3_000 * fabric::MILLIS,
    };
    let mr = MrCluster::start(&fx, fs.clone(), mr_cfg);

    let stage1_done = fx.gate();
    let stage1_secs: Arc<parking_lot::Mutex<f64>> = Arc::new(parking_lot::Mutex::new(0.0));

    {
        let fs2 = fs.clone();
        let mr2 = mr.clone();
        let done = stage1_done.clone();
        let s1 = stage1_secs.clone();
        fx.spawn(NodeId(23), "stage1-driver", move |p| {
            for name in ["/in/a", "/in/b"] {
                let mut w = fs2.create(p, &path(name)).unwrap();
                w.write(p, Payload::ghost(320 * 1024 * 1024)).unwrap();
                w.close(p).unwrap();
            }
            let job = JobConf {
                name: "stage1".into(),
                inputs: vec![path("/in/a"), path("/in/b")],
                output_dir: path("/stage1"),
                num_reducers: REDUCERS,
                output_mode: OutputMode::SharedAppendFile,
                user: workloads::datajoin::user_fns(),
                ghost: Some(stage1_profile()),
                shuffle: mapreduce::ShuffleTuning::default(),
            };
            let r = mr2.submit(job).wait(p);
            *s1.lock() = r.elapsed_secs();
            done.set();
        });
    }

    // Stage-2 consumers: strided chunk ownership (consumer i processes
    // chunks c with c % CONSUMERS == i), so every append wave spreads work
    // over all consumers.
    let consumers_done = fx.queue::<u64>();
    for i in 0..CONSUMERS {
        let fs2 = fs.clone();
        let d2 = stage1_done.clone();
        let q2 = consumers_done.clone();
        fx.spawn(NodeId(40 + i), format!("stage2-consumer{i}"), move |p| {
            if !overlap {
                d2.wait(p);
            }
            let out = path("/stage1/result");
            let mut next = i as u64;
            // Process owned chunks as they become visible; the end of the
            // stream is known only once stage 1 completes (per-reducer
            // rounding makes the exact final size data-dependent).
            loop {
                let visible = fs2.status(p, &out).map(|s| s.len).unwrap_or(0);
                let off = next * CHUNK;
                if off < visible && (off + CHUNK <= visible || d2.is_set()) {
                    let n = CHUNK.min(visible - off);
                    let mut r = fs2.open(p, &out).unwrap();
                    let got = r.read_at(p, off, n).unwrap();
                    debug_assert_eq!(got.len(), n);
                    p.compute(p.node(), (n as f64 * STAGE2_CPU_PER_BYTE) as u64);
                    next += CONSUMERS as u64;
                    continue;
                }
                if d2.is_set() && off >= visible {
                    break; // stream complete and fully consumed
                }
                p.sleep(2_000 * fabric::MILLIS);
            }
            q2.send(p.now());
        });
    }

    // Coordinator: wait for consumers + stage 1, then stop the framework.
    let makespan: Arc<parking_lot::Mutex<u64>> = Arc::new(parking_lot::Mutex::new(0));
    {
        let mr2 = mr.clone();
        let q = consumers_done;
        let m2 = makespan.clone();
        let d3 = stage1_done;
        fx.spawn(NodeId(22), "coordinator", move |p| {
            let mut latest = 0u64;
            for _ in 0..CONSUMERS {
                latest = latest.max(q.recv(p).expect("consumer finished"));
            }
            d3.wait(p);
            *m2.lock() = latest.max(p.now());
            mr2.shutdown();
        });
    }
    fx.run();
    let total = fabric::ns_to_secs(*makespan.lock());
    let s1 = *stage1_secs.lock();
    (total, s1)
}

fn main() {
    let (sequential, stage1_a) = pipeline_run(false, 7001);
    let (pipelined, stage1_b) = pipeline_run(true, 7001);
    print_table(
        "Extension E1 (paper §5): two-stage pipeline over the shared append file",
        &["schedule", "stage 1 (s)", "pipeline makespan (s)"],
        &[
            vec![
                "sequential (stage2 after stage1)".into(),
                format!("{stage1_a:.0}"),
                format!("{sequential:.0}"),
            ],
            vec![
                "pipelined (stage2 tails stage1)".into(),
                format!("{stage1_b:.0}"),
                format!("{pipelined:.0}"),
            ],
        ],
    );
    let speedup = sequential / pipelined;
    println!(
        "\nshape: pipelining speedup {speedup:.2}x — overlapping the stages hides most of \
         stage 2 inside stage 1's reduce waves, as the paper's §5 anticipates; stage 1 itself is \
         barely disturbed by the concurrent readers (Figures 4/5)."
    );
    let disturbance = (stage1_b - stage1_a) / stage1_a;
    println!(
        "shape: stage-1 slowdown caused by concurrent stage-2 readers: {:.1}%",
        disturbance * 100.0
    );
    assert!(
        speedup > 1.1,
        "pipelining should beat the sequential schedule (got {speedup:.2}x)"
    );
    assert!(
        disturbance < 0.15,
        "stage 1 should be barely disturbed (got {:.1}%)",
        disturbance * 100.0
    );
}
