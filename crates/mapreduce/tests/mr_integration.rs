//! Full-cluster Map/Reduce integration tests: jobtracker + tasktrackers +
//! real jobs over BSFS and the HDFS baseline, in both output modes.

use std::collections::HashMap;
use std::sync::Arc;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::FileSystem;
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use hdfs_sim::{HdfsConfig, HdfsLayout, HdfsSim};
use mapreduce::{JobConf, MrCluster, MrConfig, OutputMode, ShuffleTuning};

mod common;
use common::{d, wordcount, CORPUS};

/// Expected wordcount of `CORPUS`.
fn expected_counts() -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for w in CORPUS.split_whitespace() {
        *m.entry(w.to_string()).or_insert(0) += 1;
    }
    m
}

/// Parse `word TAB count` output text into a map.
fn parse_counts(text: &[u8]) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let tab = line.iter().position(|&b| b == b'\t').expect("tab");
        let word = String::from_utf8(line[..tab].to_vec()).unwrap();
        let count: u64 = std::str::from_utf8(&line[tab + 1..])
            .unwrap()
            .parse()
            .unwrap();
        let prev = m.insert(word.clone(), count);
        assert!(prev.is_none(), "word {word} appears twice in output");
    }
    m
}

fn run_wordcount(
    fs: Arc<dyn FileSystem>,
    fx: &Fabric,
    mode: OutputMode,
    reducers: u32,
) -> mapreduce::JobResult {
    run_wordcount_tuned(fs, fx, mode, reducers, ShuffleTuning::default())
}

fn run_wordcount_tuned(
    fs: Arc<dyn FileSystem>,
    fx: &Fabric,
    mode: OutputMode,
    reducers: u32,
    shuffle: ShuffleTuning,
) -> mapreduce::JobResult {
    let mr = MrCluster::start(fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        // Small blocks so the corpus makes several splits.
        fs2.write_file(p, &d("/input/corpus"), Payload::from_vec(CORPUS.into()))
            .unwrap();
        let job = JobConf {
            name: format!("wordcount-{}", mode.label()),
            inputs: vec![d("/input/corpus")],
            output_dir: d("/out"),
            num_reducers: reducers,
            output_mode: mode,
            user: wordcount(),
            ghost: None,
            shuffle,
        };
        let handle = mr2.submit(job);
        let result = handle.wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    driver.take().unwrap()
}

fn read_all_output(fs: Arc<dyn FileSystem>, fx: &Fabric, mode: OutputMode) -> Vec<u8> {
    let h = fx.spawn(NodeId(0), "reader", move |p: &Proc| {
        let mut buf = Vec::new();
        match mode {
            OutputMode::SharedAppendFile => {
                let data = fs.read_file(p, &d("/out/result")).unwrap();
                buf.extend_from_slice(data.bytes());
            }
            OutputMode::PerReducerFiles => {
                for st in fs.list(p, &d("/out")).unwrap() {
                    if !st.is_dir {
                        let data = fs.read_file(p, &st.path).unwrap();
                        buf.extend_from_slice(data.bytes());
                    }
                }
            }
        }
        buf
    });
    fx.run();
    h.take().unwrap()
}

fn bsfs_fixture(block: u64) -> (Fabric, Arc<dyn FileSystem>, Bsfs) {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let bsfs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(block),
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs.clone());
    (fx, fs, bsfs)
}

#[test]
fn wordcount_on_bsfs_shared_append_single_output_file() {
    let (fx, fs, _bsfs) = bsfs_fixture(32);
    let result = run_wordcount(fs.clone(), &fx, OutputMode::SharedAppendFile, 4);
    assert_eq!(result.reduces, 4);
    assert!(result.maps > 1, "corpus should split into several maps");
    // THE paper's point: a single logical output file.
    assert_eq!(result.output_files, 1);
    let out = read_all_output(fs, &fx, OutputMode::SharedAppendFile);
    assert_eq!(parse_counts(&out), expected_counts());
}

#[test]
fn wordcount_on_bsfs_per_reducer_files() {
    let (fx, fs, _bsfs) = bsfs_fixture(32);
    let result = run_wordcount(fs.clone(), &fx, OutputMode::PerReducerFiles, 4);
    // Original Hadoop: one file per reducer.
    assert_eq!(result.output_files, 4);
    let out = read_all_output(fs, &fx, OutputMode::PerReducerFiles);
    assert_eq!(parse_counts(&out), expected_counts());
}

#[test]
fn wordcount_on_hdfs_per_reducer_files() {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let hdfs = HdfsSim::deploy(
        &fx,
        HdfsConfig::test_small(32),
        HdfsLayout::compact(fx.spec()),
    );
    let fs: Arc<dyn FileSystem> = Arc::new(hdfs);
    let result = run_wordcount(fs.clone(), &fx, OutputMode::PerReducerFiles, 3);
    assert_eq!(result.output_files, 3);
    let out = read_all_output(fs, &fx, OutputMode::PerReducerFiles);
    assert_eq!(parse_counts(&out), expected_counts());
}

#[test]
#[should_panic(expected = "does not support the append operation")]
fn shared_append_mode_on_hdfs_fails_loudly() {
    // The whole premise of the paper: you cannot run the modified framework
    // on stock HDFS.
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let hdfs = HdfsSim::deploy(
        &fx,
        HdfsConfig::test_small(32),
        HdfsLayout::compact(fx.spec()),
    );
    let fs: Arc<dyn FileSystem> = Arc::new(hdfs);
    run_wordcount(fs, &fx, OutputMode::SharedAppendFile, 2);
}

/// Submit a wordcount job with no reducers over `input` on BSFS.
fn run_without_reducers(input: &'static str) {
    let (fx, fs, _bsfs) = bsfs_fixture(32);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        fs.write_file(p, &d("/input/corpus"), Payload::from_vec(input.into()))
            .unwrap();
        let job = JobConf {
            name: "no-reducers".into(),
            inputs: vec![d("/input/corpus")],
            output_dir: d("/out"),
            num_reducers: 0,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        };
        mr.submit(job).wait(p);
        mr.shutdown();
    });
    fx.run();
}

/// A map has no partition to write into, so the job is refused when it is
/// planned, by name, before any map divides by the reducer count.
#[test]
#[should_panic(expected = "num_reducers")]
fn a_job_without_reducers_is_refused() {
    run_without_reducers(CORPUS);
}

/// With no map to fail, a job without reducers would wait for reduces that
/// never run.
#[test]
#[should_panic(expected = "num_reducers")]
fn a_job_without_reducers_over_empty_input_is_refused() {
    run_without_reducers("");
}

#[test]
fn map_tasks_prefer_local_blocks() {
    let (fx, fs, _bsfs) = bsfs_fixture(64);
    // Write a many-block file, then run a job; with a tasktracker on every
    // node, most maps should be data-local.
    let result = run_wordcount(fs, &fx, OutputMode::PerReducerFiles, 2);
    assert!(
        result.data_local_maps > 0,
        "locality scheduling never hit: local={} remote={}",
        result.data_local_maps,
        result.remote_maps
    );
    assert_eq!(
        result.data_local_maps + result.remote_maps,
        result.maps as u64
    );
}

/// Under default tuning the tier-2 combine publishes one segment per
/// (map-node, partition): once maps outnumber nodes, the job-wide transfer
/// count is bounded by (nodes that ran maps) × reducers, never
/// maps × reducers.
#[test]
fn shuffle_moves_one_transfer_per_map_node_reducer_pair() {
    let nodes = 2u32;
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let bsfs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(8), // 8 B blocks -> ~11 maps on 2 nodes
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let reducers = 2u32;
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        fs2.write_file(p, &d("/input/corpus"), Payload::from_vec(CORPUS.into()))
            .unwrap();
        let job = JobConf {
            name: "shuffle-pin".into(),
            inputs: vec![d("/input/corpus")],
            output_dir: d("/out"),
            num_reducers: reducers,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        };
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    let result = driver.take().unwrap();
    assert!(
        result.maps > nodes,
        "need more maps ({}) than nodes ({nodes}) to observe grouping",
        result.maps
    );
    let (segments, transfers) = mr.registry().fetch_counts();
    assert_eq!(
        segments, result.combined_segments,
        "every reducer pulled exactly the combined (node, partition) segments"
    );
    assert!(
        segments <= u64::from(nodes) * u64::from(reducers),
        "tier-2 publishes at most one segment per (node, partition): {segments}"
    );
    assert!(
        transfers <= u64::from(nodes) * u64::from(reducers),
        "shuffle must move one transfer per (map-node, reducer) pair: \
         {transfers} transfers for {segments} segments on {nodes} nodes"
    );
    let out = read_all_output(fs, &fx, OutputMode::SharedAppendFile);
    assert_eq!(parse_counts(&out), expected_counts());
}

/// Tier-2 combining must be invisible in the output: combiner-on and
/// combiner-off runs produce byte-identical results, while the combined
/// run ships fewer shuffle bytes and accounts its savings.
#[test]
fn node_combine_output_byte_identical_and_saves_shuffle_bytes() {
    let run = |node_combine: bool| {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let bsfs = Bsfs::deploy(
            &fx,
            BlobSeerConfig::test_small(8), // 8 B blocks → ~11 maps on 2 nodes
            Layout::compact(fx.spec()),
        )
        .unwrap();
        let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
        let result = run_wordcount_tuned(
            fs.clone(),
            &fx,
            OutputMode::SharedAppendFile,
            2,
            ShuffleTuning {
                node_combine,
                ..ShuffleTuning::default()
            },
        );
        let out = read_all_output(fs, &fx, OutputMode::SharedAppendFile);
        (result, out)
    };
    let (on, out_on) = run(true);
    let (off, out_off) = run(false);
    assert_eq!(out_on, out_off, "tier-2 combine changed the job output");
    assert_eq!(parse_counts(&out_on), expected_counts());
    assert!(on.combined_segments > 0, "no combined segments published");
    assert!(
        on.combined_segments <= 2 * 2,
        "at most one combined segment per (node, partition): {}",
        on.combined_segments
    );
    assert!(on.combine_saved_bytes > 0, "combine saved nothing");
    assert!(
        on.shuffle_bytes < off.shuffle_bytes,
        "combined run shuffled {} bytes, uncombined {}",
        on.shuffle_bytes,
        off.shuffle_bytes
    );
    assert_eq!(off.combined_segments, 0);
    assert_eq!(off.combine_saved_bytes, 0);
}

/// Streaming shuffle: with an eager flush cadence, reducers demonstrably
/// issue fetches while the map phase is still running (impossible under
/// the old reduce barrier, where this counter pinned at 0).
#[test]
fn reducers_fetch_before_map_phase_completes() {
    let fx = Fabric::sim(ClusterSpec::tiny(2));
    let bsfs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(8), // many maps → many early deliveries
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let result = run_wordcount_tuned(
        fs.clone(),
        &fx,
        OutputMode::SharedAppendFile,
        2,
        ShuffleTuning {
            node_combine: true,
            flush_tasks: Some(1), // publish after every buffered task
            flush_bytes: None,
        },
    );
    assert!(result.maps > 2, "need several maps: {}", result.maps);
    assert!(
        result.early_shuffle_fetches > 0,
        "no reducer fetch overlapped the map phase"
    );
    let out = read_all_output(fs, &fx, OutputMode::SharedAppendFile);
    assert_eq!(parse_counts(&out), expected_counts());
}

#[test]
fn two_jobs_run_concurrently() {
    let (fx, fs, _bsfs) = bsfs_fixture(32);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        fs2.write_file(p, &d("/input/a"), Payload::from_vec(CORPUS.into()))
            .unwrap();
        fs2.write_file(p, &d("/input/b"), Payload::from_vec(CORPUS.into()))
            .unwrap();
        let mk = |name: &str, input: &str, out: &str| JobConf {
            name: name.into(),
            inputs: vec![d(input)],
            output_dir: d(out),
            num_reducers: 2,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        };
        let h1 = mr2.submit(mk("job-a", "/input/a", "/out-a"));
        let h2 = mr2.submit(mk("job-b", "/input/b", "/out-b"));
        let r1 = h1.wait(p);
        let r2 = h2.wait(p);
        mr2.shutdown();
        let out_a = fs2.read_file(p, &d("/out-a/result")).unwrap();
        let out_b = fs2.read_file(p, &d("/out-b/result")).unwrap();
        (r1, r2, out_a.bytes().to_vec(), out_b.bytes().to_vec())
    });
    fx.run();
    let (r1, r2, out_a, out_b) = driver.take().unwrap();
    assert_eq!(r1.output_files, 1);
    assert_eq!(r2.output_files, 1);
    assert_eq!(parse_counts(&out_a), expected_counts());
    assert_eq!(parse_counts(&out_b), expected_counts());
}

#[test]
fn ghost_job_at_paper_scale_smoke() {
    // 270 nodes, paper layouts, ghost payloads: the full framework runs a
    // profile-mode job end to end in simulation.
    let fx = Fabric::sim(ClusterSpec::orsay_270());
    let bsfs = Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::paper(fx.spec()));
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(23), "driver", move |p: &Proc| {
        // 320 MB ghost input = 5 blocks of 64 MB.
        let mut w = fs2.create(p, &d("/in")).unwrap();
        w.write(p, Payload::ghost(320 * 1024 * 1024)).unwrap();
        w.close(p).unwrap();
        let job = JobConf {
            name: "ghost-smoke".into(),
            inputs: vec![d("/in")],
            output_dir: d("/out"),
            num_reducers: 8,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(), // unused in ghost mode
            ghost: Some(mapreduce::GhostProfile {
                input_record_bytes: 100,
                map_output_ratio: 1.0,
                map_cpu_per_byte: 2.0,
                reduce_output_ratio: 1.0,
                reduce_cpu_per_byte: 1.0,
                // Ratio 1.0: combining removes nothing, so the 320 MB
                // shuffle-byte pin below still holds with tier-2 on.
                combine_output_ratio: 1.0,
            }),
            shuffle: ShuffleTuning::default(),
        };
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    let r = driver.take().unwrap();
    assert_eq!(r.maps, 5);
    assert_eq!(r.output_files, 1);
    assert_eq!(r.map_input_bytes, 320 * 1024 * 1024);
    assert_eq!(r.shuffle_bytes, 320 * 1024 * 1024);
    assert_eq!(r.reduce_output_bytes, 320 * 1024 * 1024);
    assert!(r.elapsed_secs() > 1.0, "moving 3x320MB takes real time");
    assert!(r.elapsed_secs() < 120.0, "took {}s", r.elapsed_secs());
}

/// The engine's record path may change; what a job publishes may not. The
/// byte counters and the output file of the shapes above, as the
/// owned-`KV` engine (PR 12) produced them.
#[test]
fn job_counters_and_output_are_pinned() {
    let run = |nodes: u32, block: u64, reducers: u32, shuffle: ShuffleTuning| {
        let fx = Fabric::sim(ClusterSpec::tiny(nodes));
        let bsfs = Bsfs::deploy(
            &fx,
            BlobSeerConfig::test_small(block),
            Layout::compact(fx.spec()),
        )
        .unwrap();
        let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
        let r = run_wordcount_tuned(
            fs.clone(),
            &fx,
            OutputMode::SharedAppendFile,
            reducers,
            shuffle,
        );
        let out = read_all_output(fs, &fx, OutputMode::SharedAppendFile);
        (
            [
                r.map_output_bytes,
                r.shuffle_bytes,
                r.combine_saved_bytes,
                r.combined_segments,
                out.len() as u64,
            ],
            Payload::from_vec(out).fingerprint(),
        )
    };
    let tuned = |node_combine, flush_tasks| ShuffleTuning {
        node_combine,
        flush_tasks,
        flush_bytes: None,
    };
    // [map_output_bytes, shuffle_bytes, combine_saved_bytes,
    //  combined_segments, output bytes], output fingerprint.
    assert_eq!(
        run(8, 32, 4, ShuffleTuning::default()),
        ([226, 202, 0, 12, 82], 0x2095_1a3c_1bbf_0331)
    );
    assert_eq!(
        run(2, 8, 2, tuned(true, None)),
        ([226, 154, 72, 4, 82], 0xb357_c7b2_4994_4639)
    );
    assert_eq!(
        run(2, 8, 2, tuned(false, None)),
        ([226, 226, 0, 0, 82], 0xb357_c7b2_4994_4639)
    );
    assert_eq!(
        run(2, 8, 2, tuned(true, Some(1))),
        ([226, 226, 0, 22, 82], 0xb357_c7b2_4994_4639)
    );
}
