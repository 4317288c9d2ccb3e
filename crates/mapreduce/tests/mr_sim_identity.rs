//! Virtual-number rail for the Map/Reduce control plane in sim mode: five
//! job shapes pinned to literals — virtual completion time, wire transfers,
//! the job's counters and its output fingerprint. If a literal here moves, a
//! scheduling decision or a tick time moved: find out which before
//! re-recording.
//!
//! Recorded on the tracker whose jobtracker answered heartbeats through its
//! inbox (PR 15's), before scheduling moved behind `tracker::Scheduler`.
//! Across that change (a) and (b) kept every number but `events`, which fell
//! as intended (a heartbeat is three engine events, not four: 16 186 →
//! 12 604 and 124 → 112). (c) was re-recorded twice, once per reason, and
//! says so at its literals.
//!
//! Re-recorded once more, on purpose, when a BSFS append began resolving
//! its path while its pages stream (`Bsfs::append_all`): every reducer's
//! output append ends sooner by its namespace lookup, which moves the
//! literals marked "lookup hidden". The shared file's fingerprints move
//! because the reducers' appends now reach the version manager in another
//! order: the file holds the same records in another order.

use std::sync::Arc;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc, MILLIS};
use mapreduce::{GhostProfile, JobConf, JobResult, MrCluster, MrConfig, OutputMode, ShuffleTuning};

mod common;
use common::{d, wordcount, CORPUS};

/// What a run is pinned by.
#[derive(Debug, PartialEq)]
struct Pin {
    now_ns: u64,
    transfers: u64,
    events: u64,
    /// Per job: `[started_ns, finished_ns, maps, map_output_bytes,
    /// shuffle_bytes, reduce_output_bytes, data_local_maps, remote_maps,
    /// combined_segments, early_shuffle_fetches, output_files]`.
    jobs: Vec<[u64; 11]>,
    /// Fingerprint of each job's `result` file.
    outputs: Vec<u64>,
}

fn counters(r: &JobResult) -> [u64; 11] {
    [
        r.started_ns,
        r.finished_ns,
        u64::from(r.maps),
        r.map_output_bytes,
        r.shuffle_bytes,
        r.reduce_output_bytes,
        r.data_local_maps,
        r.remote_maps,
        r.combined_segments,
        r.early_shuffle_fetches,
        r.output_files,
    ]
}

/// Run `driver` (which submits, waits and shuts the cluster down) to
/// completion, then read every `<out>/result` back.
fn pin(
    fx: &Fabric,
    fs: Arc<dyn FileSystem>,
    node: NodeId,
    outs: &[&str],
    driver: impl FnOnce(&Proc) -> Vec<JobResult> + Send + 'static,
) -> Pin {
    let h = fx.spawn(node, "driver", driver);
    fx.run();
    let results = h.take().expect("driver finished");
    let stats = fx.stats();
    let (now_ns, transfers, events) = (fx.now(), stats.transfers, stats.events);
    let paths: Vec<DfsPath> = outs.iter().map(|o| d(&format!("{o}/result"))).collect();
    let reader = fx.spawn(node, "reader", move |p: &Proc| {
        paths
            .iter()
            .map(|f| fs.read_file(p, f).unwrap().fingerprint())
            .collect::<Vec<u64>>()
    });
    fx.run();
    Pin {
        now_ns,
        transfers,
        events,
        jobs: results.iter().map(counters).collect(),
        outputs: reader.take().expect("reader finished"),
    }
}

/// (a) Figure 6 in small: a ghost data join, 2 × 5 chunks → 10 maps, 20
/// reducers appending to one file, 17 tasktrackers on 3 s heartbeats.
#[test]
fn ghost_datajoin_on_40_nodes_is_pinned() {
    let fx = Fabric::sim(ClusterSpec::grid5000(40));
    let bsfs = Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let cfg = MrConfig::paper(fx.spec()).with_heartbeat_ns(3_000 * MILLIS);
    let mr = MrCluster::start(&fx, fs.clone(), cfg);
    let fs2 = fs.clone();
    let got = pin(&fx, fs, NodeId(23), &["/out"], move |p| {
        for name in ["/in/a", "/in/b"] {
            fs2.write_file(p, &d(name), Payload::ghost(320 * 1024 * 1024))
                .unwrap();
        }
        let job = JobConf {
            name: "datajoin".into(),
            inputs: vec![d("/in/a"), d("/in/b")],
            output_dir: d("/out"),
            num_reducers: 20,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(), // unused in ghost mode
            // `workloads::datajoin::fig6_profile`, which this crate cannot
            // depend on.
            ghost: Some(GhostProfile {
                input_record_bytes: 32,
                map_output_ratio: 10.08,
                map_cpu_per_byte: 17_000.0,
                reduce_output_ratio: 1.0,
                reduce_cpu_per_byte: 4.0,
                combine_output_ratio: 1.0,
            }),
            shuffle: ShuffleTuning::default(),
        };
        let r = mr.submit(job).wait(p);
        mr.shutdown();
        vec![r]
    });
    assert_eq!(
        got,
        Pin {
            now_ns: 597_039_800_000,
            transfers: 7_898,
            events: 12_604,
            jobs: vec![[
                5_182_322_770,
                // Lookup hidden: 595 968 963 927 (20 reducers' appends end
                // sooner, the last one by 10.2 ms).
                595_958_772_040,
                10,
                6_764_573_490,
                6_764_573_490,
                6_764_573_490,
                10,
                0,
                200,
                20,
                1
            ]],
            outputs: vec![17_924_817_213_818_167_356],
        }
    );
}

fn tiny_bsfs(nodes: u32, block: u64) -> (Fabric, Arc<dyn FileSystem>) {
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let bsfs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(block),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    (fx, Arc::new(bsfs))
}

fn wordcount_job(name: &str, inputs: &[String], out: &str) -> JobConf {
    JobConf {
        name: name.into(),
        inputs: inputs.iter().map(|i| d(i)).collect(),
        output_dir: d(out),
        num_reducers: 2,
        output_mode: OutputMode::SharedAppendFile,
        user: wordcount(),
        ghost: None,
        shuffle: ShuffleTuning::default(),
    }
}

/// (b) Real records: wordcount on four nodes, 10 ms heartbeats.
#[test]
fn wordcount_on_tiny_4_is_pinned() {
    let (fx, fs) = tiny_bsfs(4, 32);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let got = pin(&fx, fs, NodeId(0), &["/out"], move |p| {
        fs2.write_file(p, &d("/in"), Payload::from_vec(CORPUS.into()))
            .unwrap();
        let r = mr
            .submit(wordcount_job("wc", &["/in".into()], "/out"))
            .wait(p);
        mr.shutdown();
        vec![r]
    });
    assert_eq!(
        got,
        Pin {
            now_ns: 20_400_000,
            transfers: 118,
            // Lookup hidden: 112 events, 6 656 920 618 415 253 593.
            events: 111,
            jobs: vec![[7_150_000, 18_600_001, 3, 226, 202, 82, 3, 0, 6, 2, 1]],
            outputs: vec![12_923_017_224_315_487_801],
        }
    );
}

/// (c) Two jobs submitted back to back, each with enough input files that
/// planning it outlasts a heartbeat period: every tracker ticks while the
/// jobtracker is inside `plan_job`.
#[test]
fn two_jobs_with_ticks_inside_the_plan_window_are_pinned() {
    const HB: u64 = 2 * MILLIS;
    let (fx, fs) = tiny_bsfs(4, 32);
    let cfg = MrConfig::compact(fx.spec()).with_heartbeat_ns(HB);
    let mr = MrCluster::start(&fx, fs.clone(), cfg);
    let fs2 = fs.clone();
    let inputs = |job: &str| -> Vec<String> { (0..8).map(|i| format!("/in-{job}/{i}")).collect() };
    let (in_a, in_b) = (inputs("a"), inputs("b"));
    let got = pin(&fx, fs, NodeId(0), &["/out-a", "/out-b"], move |p| {
        for f in in_a.iter().chain(&in_b) {
            fs2.write_file(p, &d(f), Payload::from_vec(CORPUS.into()))
                .unwrap();
        }
        let submitted = p.now();
        let ha = mr.submit(wordcount_job("a", &in_a, "/out-a"));
        let hb = mr.submit(wordcount_job("b", &in_b, "/out-b"));
        let (ra, rb) = (ha.wait(p), hb.wait(p));
        mr.shutdown();
        // `started_ns` is stamped when planning ends.
        assert!(
            ra.started_ns - submitted > HB + MILLIS && rb.started_ns - ra.started_ns > HB + MILLIS,
            "plan windows too short for a tick to land inside: {submitted} {} {}",
            ra.started_ns,
            rb.started_ns
        );
        vec![ra, rb]
    });
    // Two deliberate re-records, each applied and measured on its own:
    // 1. "one map per heartbeat" now holds across jobs, not per job (the old
    //    counter was reset inside the per-job loop), still on the inbox
    //    tracker: now 155 800 001 → 156 700 008, transfers 1 424 → 1 410,
    //    events 1 622 → 1 608, job a done at 151.8 → 140.3 ms (24/24 local,
    //    was 22), job b at 153.8 → 154.7 ms.
    // 2. A tick inside a plan window is answered from current state instead
    //    of queueing behind the jobtracker's file-system calls: trackers
    //    keep ticking through both windows (transfers 1 410 → 1 554), job
    //    a's tasks start while job b is still being planned, so b's planning
    //    shares node 0 with them (its `started_ns` 93.0 → 117.0 ms), a
    //    finishes at 143.7 and b at 152.0 ms.
    // Then the lookup hidden: a's appends end sooner and a finishes at
    // 140.4 ms (was 143.7). The heartbeats that hand out b's maps see a
    // different cluster, and two of b's maps run remote (24 local → 22 + 2);
    // transfers 1 554 → 1 558, events 1 474 → 1 467, and both
    // fingerprints move.
    assert_eq!(
        got,
        Pin {
            now_ns: 154_000_000,
            transfers: 1_558,
            events: 1_467,
            jobs: vec![
                [74_300_000, 140_368_074, 24, 1_808, 616, 85, 24, 0, 8, 0, 1],
                [117_000_003, 152_000_008, 24, 1_808, 616, 85, 22, 2, 8, 4, 1],
            ],
            outputs: vec![2_598_855_143_407_743_111; 2],
        }
    );
}

/// (d) The shuffle re-execution rail: wordcount on an eager flush cadence
/// while two map-output losses wipe one node's spool each, at fixed virtual
/// instants — the first buries a buffer's pending runs, the second a
/// published flush. Every buried task re-runs and publishes per task; the
/// output is the loss-free one.
#[test]
fn wordcount_through_two_map_output_losses_is_pinned() {
    // Node 1 holds task 1 pending (added at 14.4 ms, no flush before 24.2 ms);
    // node 0 published its first flush, tasks 3 and 9, at 21.6 ms.
    const LOSSES: [(u64, u32); 2] = [(20 * MILLIS, 1), (23 * MILLIS, 0)];
    let (fx, fs) = tiny_bsfs(4, 32);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let mr_loss = mr.clone();
    let losser = fx.spawn(NodeId(0), "map-output-losser", move |p: &Proc| {
        (LOSSES.iter())
            .map(|&(at, node)| {
                p.sleep(at - p.now());
                mr_loss.lose_map_outputs(NodeId(node))
            })
            .collect::<Vec<_>>()
    });
    let (fs2, mr2) = (fs.clone(), mr.clone());
    let got = pin(&fx, fs, NodeId(0), &["/out"], move |p| {
        fs2.write_file(p, &d("/in"), Payload::from_vec(CORPUS.repeat(4).into()))
            .unwrap();
        let job = JobConf {
            shuffle: ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(2),
                flush_bytes: None,
            },
            ..wordcount_job("wc-loss", &["/in".into()], "/out")
        };
        let r = mr2.submit(job).wait(p);
        mr2.shutdown();
        vec![r]
    });
    let lost = losser
        .take()
        .expect("both losses fired before the job ended");
    for (i, l) in lost.iter().enumerate() {
        assert!(
            l.iter().any(|(_, tasks)| !tasks.is_empty()),
            "loss {i} re-queued nothing: {l:?}"
        );
    }
    assert_eq!(
        got,
        Pin {
            now_ns: 51_000_000,
            transfers: 218,
            // Lookup hidden: 262 events, done at 47.9 ms,
            // 4 823 281 549 984 078 881.
            events: 261,
            jobs: vec![[8_550_000, 47_800_000, 11, 1_202, 710, 84, 12, 2, 14, 10, 1]],
            // The loss-free run's bytes.
            outputs: vec![2_216_548_167_587_753_633],
        }
    );
    assert_eq!(lost, [[(1, vec![1])], [(1, vec![3, 9])]]);
    let (reg, stats) = (mr.registry(), mr.registry().stats());
    assert_eq!(
        (
            reg.fetch_counts(),
            stats.fetch_bytes,
            stats.combined_segments,
            stats.combine_saved_bytes
        ),
        ((16, 16), 710, 14, 74)
    );
}

/// A heartbeat never leaves the tracker's proc: with no job, a beat is the
/// RPC's two latency legs and the sleep to the next one. Those events are
/// walked by the engine without waking the tracker's thread.
#[test]
fn an_idle_beat_costs_three_engine_events() {
    const TRACKERS: u64 = 8;
    const HB: u64 = 10 * MILLIS; // `MrConfig::compact`
    const IDLE: u64 = 1_000 * MILLIS;
    let (fx, fs) = tiny_bsfs(TRACKERS as u32, 32);
    let before = fx.stats();
    let mr = MrCluster::start(&fx, fs, MrConfig::compact(fx.spec()));
    fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        p.sleep(IDLE);
        mr.shutdown();
    });
    fx.run();
    let after = fx.stats();
    let (events, wakes) = (after.events - before.events, after.wakes - before.wakes);
    // Beyond the beats: one start per proc (trackers, jobtracker, driver),
    // the driver's sleep, the jobtracker's wake at shutdown.
    let bound = 3 * TRACKERS * IDLE.div_ceil(HB) + TRACKERS + 4;
    // Each tracker wakes to start, at the end of its first rpc and at
    // shutdown; the jobtracker to start and at shutdown; the driver to
    // start and after its sleep.
    let wake_bound = 3 * TRACKERS + 4;
    println!("{events} events, bound {bound}; {wakes} wakes, bound {wake_bound}");
    assert!(
        events <= bound,
        "{events} events for an idle second, bound {bound}"
    );
    assert!(events > bound / 2, "beats are missing: {events} events");
    assert!(
        wakes <= wake_bound,
        "{wakes} thread wakes for an idle second, bound {wake_bound}"
    );
}

/// (e) The edges of a tracker's idle beats. Trackers beat with no job for
/// twelve periods before the first job is submitted, at an instant that is
/// on no tracker's beat; a second job is admitted while the first one's
/// reducers are still running; and `shutdown` lands 150 µs after the
/// remote trackers' sleep ended, in the second latency leg of their rpc.
#[test]
fn idle_beats_around_late_jobs_and_a_mid_rpc_shutdown_are_pinned() {
    // Remote trackers beat every 10 ms plus two 100 µs legs, all in step
    // from their spawn at 0; the tracker on the jobtracker's node beats
    // every 10 ms (its rpc is node-local and free).
    const CYCLE: u64 = 10_200_000;
    const SUBMIT_A: u64 = 123_456_700;
    const SUBMIT_B: u64 = 147_100_000;
    const LEG2: u64 = 150_000;
    let (fx, fs) = tiny_bsfs(4, 32);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let got = pin(&fx, fs, NodeId(0), &["/out-a", "/out-b"], move |p| {
        for f in ["/in-a", "/in-b"] {
            fs2.write_file(p, &d(f), Payload::from_vec(CORPUS.repeat(3).into()))
                .unwrap();
        }
        p.sleep(SUBMIT_A - p.now());
        let ha = mr.submit(wordcount_job("a", &["/in-a".into()], "/out-a"));
        p.sleep(SUBMIT_B.saturating_sub(p.now()));
        let hb = mr.submit(wordcount_job("b", &["/in-b".into()], "/out-b"));
        let (ra, rb) = (ha.wait(p), hb.wait(p));
        let shutdown_at = (p.now() / CYCLE + 1) * CYCLE + LEG2;
        p.sleep(shutdown_at - p.now());
        mr.shutdown();
        vec![ra, rb]
    });
    // Job a's last map reports at 146.4 ms; b is admitted (its
    // `started_ns`) at 153.8 ms, before a finishes at 155.8 ms.
    assert_eq!(
        got,
        Pin {
            now_ns: 190_000_000,
            transfers: 426,
            // Lookup hidden: 463 events, b done at 182.6 ms,
            // 7 577 304 142 197 963 170.
            events: 462,
            jobs: vec![
                [127_356_700, 155_800_002, 8, 678, 472, 83, 8, 0, 8, 2, 1],
                [153_800_002, 182_500_000, 8, 678, 456, 83, 8, 0, 8, 2, 1],
            ],
            outputs: vec![14_126_948_059_931_035_082; 2],
        }
    );
}
