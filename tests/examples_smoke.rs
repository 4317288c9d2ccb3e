//! Smoke tests for the `blobseer_repro::testbed` builders that every
//! `examples/` program starts from. Each test constructs the exact world the
//! corresponding example builds (same builder, same node count, same block
//! size) and drives one trivial end-to-end op through it, on both the BSFS
//! and the HDFS-sim stacks — so an example can never rot silently because a
//! testbed builder broke.

use std::sync::Arc;

use blobseer_repro::testbed;
use dfs::{DfsPath, FileSystem};
use fabric::{NodeId, Payload};
use mapreduce::{JobConf, OutputMode};

fn p(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

/// `examples/quickstart.rs`: live BSFS, one node per service, 4 KB blocks,
/// the client on the node that runs none.
#[test]
fn quickstart_testbed_builds_and_appends() {
    let (fx, fs) = testbed::live_bsfs_spread(4096, None);
    let fs2 = fs.clone();
    fx.spawn(NodeId(6), "smoke", move |pr| {
        let path = p("/smoke/log.txt");
        fs2.write_file(pr, &path, Payload::from("first\n")).unwrap();
        // The op the paper adds to the Hadoop world: append.
        assert!(fs2.supports_append());
        fs2.append_all(pr, &path, Payload::from("second\n"))
            .unwrap();
        let got = fs2.read_file(pr, &path).unwrap();
        assert_eq!(got.bytes().as_ref(), b"first\nsecond\n");
    });
    fx.run();
}

/// `examples/concurrent_log.rs`: live BSFS, 6 nodes, 64 KB blocks.
#[test]
fn concurrent_log_testbed_supports_two_appenders() {
    let (fx, fs) = testbed::live_bsfs(6, 1 << 16);
    // Create the shared log first, as the example does (append requires an
    // existing file).
    let fs2 = fs.clone();
    let setup = fx.spawn(NodeId(0), "setup", move |pr| {
        let mut w = fs2.create(pr, &p("/smoke/shared.log")).unwrap();
        w.close(pr).unwrap();
    });
    // take() is non-blocking; run() is the barrier that waits for setup.
    fx.run();
    setup.take().unwrap();
    for w in 0..2u32 {
        let fs2 = fs.clone();
        fx.spawn(NodeId(w), format!("appender-{w}"), move |pr| {
            let path = p("/smoke/shared.log");
            fs2.append_all(pr, &path, Payload::from_vec(vec![b'a' + w as u8; 8]))
                .unwrap();
        });
    }
    fx.run();
    let fs2 = fs.clone();
    let fx2 = fx.clone();
    fx2.spawn(NodeId(0), "checker", move |pr| {
        let got = fs2.read_file(pr, &p("/smoke/shared.log")).unwrap();
        // Both appends landed, atomically, in some order.
        assert_eq!(got.len(), 16);
    });
    fx2.run();
}

/// `examples/wordcount.rs`: live BSFS (6 nodes, tiny blocks) plus a
/// Map/Reduce cluster; runs a minimal job end to end.
#[test]
fn wordcount_testbed_runs_a_tiny_job() {
    let (fx, bsfs) = testbed::live_bsfs(6, 128);
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let mr = testbed::live_mapreduce(&fx, fs.clone());
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    fx.spawn(NodeId(0), "driver", move |pr| {
        let input = p("/in/tiny.txt");
        fs2.write_file(pr, &input, Payload::from("to be or not to be\n"))
            .unwrap();
        let job = JobConf {
            name: "smoke-wordcount".into(),
            inputs: vec![input],
            output_dir: p("/out"),
            num_reducers: 1,
            output_mode: OutputMode::SharedAppendFile,
            user: workloads::wordcount::user_fns(),
            ghost: None,
            shuffle: mapreduce::ShuffleTuning::default(),
        };
        let result = mr2.submit(job).wait(pr);
        assert_eq!(result.output_files, 1, "shared-append mode => one file");
        let out = fs2.read_file(pr, &p("/out/result")).unwrap();
        let text = String::from_utf8(out.bytes().to_vec()).unwrap();
        assert!(text.lines().any(|l| l == "to\t2"), "bad output:\n{text}");
        mr2.shutdown();
    });
    fx.run();
}

/// `examples/pipeline.rs`: live BSFS (8 nodes, 512 B blocks) plus a
/// Map/Reduce cluster over it.
#[test]
fn pipeline_testbed_starts_mr_over_bsfs() {
    let (fx, bsfs) = testbed::live_bsfs(8, 512);
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let mr = testbed::live_mapreduce(&fx, fs.clone());
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    fx.spawn(NodeId(0), "driver", move |pr| {
        // Trivial op through the same fs handle the MR cluster uses.
        let path = p("/stage0/data");
        fs2.write_file(pr, &path, Payload::from("x\ty\n")).unwrap();
        assert!(fs2.exists(pr, &path));
        mr2.shutdown();
    });
    fx.run();
}

/// `examples/datajoin.rs`: one live HDFS-sim world and one live BSFS world,
/// both 8 nodes / 4 KB blocks — the two stacks the paper compares.
#[test]
fn datajoin_testbeds_cover_both_stacks() {
    let (fx1, hdfs) = testbed::live_hdfs(8, 4096);
    fx1.spawn(NodeId(0), "hdfs-smoke", move |pr| {
        // HDFS 0.20 semantics: write-once works, append is refused.
        assert!(!hdfs.supports_append());
        let path = p("/smoke/part-0");
        hdfs.write_file(pr, &path, Payload::from("hdfs\n")).unwrap();
        assert_eq!(
            hdfs.read_file(pr, &path).unwrap().bytes().as_ref(),
            b"hdfs\n"
        );
        assert!(hdfs.append(pr, &path).is_err());
    });
    fx1.run();

    let (fx2, bsfs) = testbed::live_bsfs(8, 4096);
    fx2.spawn(NodeId(0), "bsfs-smoke", move |pr| {
        let path = p("/smoke/result");
        bsfs.write_file(pr, &path, Payload::from("bsfs\n")).unwrap();
        bsfs.append_all(pr, &path, Payload::from("more\n")).unwrap();
        assert_eq!(
            bsfs.read_file(pr, &path).unwrap().bytes().as_ref(),
            b"bsfs\nmore\n"
        );
    });
    fx2.run();
}
