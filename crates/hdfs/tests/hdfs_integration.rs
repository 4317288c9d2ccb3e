//! HDFS baseline end-to-end tests: the shared dfs contract (with append
//! disabled) plus HDFS-specific semantics the paper leans on.

use dfs::{DfsPath, FileSystem, FsError};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use hdfs_sim::{HdfsConfig, HdfsLayout, HdfsSim};

fn d(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

fn pattern(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| tag.wrapping_add((i % 241) as u8))
        .collect()
}

fn deploy(nodes: u32, block: u64) -> (Fabric, HdfsSim) {
    let fx = Fabric::sim(ClusterSpec::tiny(nodes));
    let fs = HdfsSim::deploy(
        &fx,
        HdfsConfig::test_small(block),
        HdfsLayout::compact(fx.spec()),
    );
    (fx, fs)
}

#[test]
fn satisfies_the_filesystem_contract_without_append() {
    let (fx, fs) = deploy(6, 4096);
    let h = fx.spawn(NodeId(0), "contract", move |p| {
        assert!(!fs.supports_append());
        dfs::contract::exercise_filesystem(&fs, p);
    });
    fx.run();
    h.take().unwrap();
}

/// The handle cases of the dfs contract on 4 KiB blocks. HDFS ships one
/// replication pipeline per whole block, then the tail at `close`, so a
/// file's commit units are its blocks: three blocks in one `write` are
/// three pipelines.
#[test]
fn handles_buffer_and_window_by_the_contract() {
    let (fx, fs) = deploy(6, 4096);
    let h = fx.spawn(NodeId(1), "handles", move |p| {
        let blocks = |p: &Proc, path: &DfsPath| {
            let locs = fs.block_locations(p, path, 0, u64::MAX).unwrap();
            locs.len() as u64
        };
        dfs::contract::exercise_handles(&fs, p, &blocks)
    });
    fx.run();
    let want = [
        ("below", 1, 1_700_000),
        ("at", 1, 1_500_000),
        ("across", 2, 2_000_000),
        ("several:write", 3, 2_100_000),
        ("several:close", 4, 1_100_000),
        ("empty", 0, 1_000_000),
        ("reads", 4, 1_200_000),
    ];
    assert_eq!(h.take().unwrap(), want);
}

/// A pipeline that cannot land: with every datanode in every pipeline
/// (replication = all four) and one of them dead, each block's pipeline
/// fails at that replica. The failed block is gone from the buffer, but
/// the blocks behind it stay, so each `close` ships one more block and
/// fails, until nothing is left and `close` completes the file. Each
/// failed block is abandoned: the namenode forgets it and the replicas
/// that stored it drop it, so nothing of the file is left on a datanode.
#[test]
fn a_failed_pipeline_keeps_the_blocks_behind_it() {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let fs = HdfsSim::deploy(
        &fx,
        HdfsConfig::test_small(1000).with_replication(4),
        HdfsLayout::compact(fx.spec()),
    );
    let h = fx.spawn(NodeId(0), "writer", move |p| {
        let path = d("/down");
        let mut w = fs.create(p, &path).unwrap();
        fs.datanodes()[3].kill();
        let mut results = Vec::new();
        results.push(format!(
            "{:?}",
            w.write(p, Payload::from_vec(pattern(2500, 1)))
        ));
        for _ in 0..3 {
            results.push(format!("{:?}", w.close(p)));
        }
        results.push(format!(
            "{:?}",
            w.write(p, Payload::from_vec(pattern(1, 2)))
        ));
        results.push(format!("written {}", w.written()));
        let locs = fs.block_locations(p, &path, 0, u64::MAX).unwrap();
        results.push(format!(
            "len {} blocks {}",
            fs.status(p, &path).unwrap().len,
            locs.len()
        ));
        let blocks: Vec<usize> = fs.datanodes().iter().map(|d| d.block_count()).collect();
        results.push(format!("stored {} in {blocks:?}", fs.total_stored_bytes()));
        results.push(format!("time {}", p.now()));
        results
    });
    fx.run();
    let down = "Err(Storage(\"datanode n3 is down\"))";
    let want = [
        down,
        down,
        down,
        "Ok(())",
        "Err(HandleClosed)",
        "written 2500",
        "len 0 blocks 0",
        "stored 0 in [0, 0, 0, 0]",
        "time 1200000",
    ];
    assert_eq!(h.take().unwrap(), want);
}

#[test]
fn append_is_rejected_like_hdfs_020() {
    let (fx, fs) = deploy(4, 1024);
    let h = fx.spawn(NodeId(0), "t", move |p| {
        fs.write_file(p, &d("/f"), Payload::from_vec(pattern(100, 1)))
            .unwrap();
        match fs.append(p, &d("/f")) {
            Err(FsError::AppendUnsupported { fs: scheme }) => assert_eq!(scheme, "hdfs"),
            other => panic!("expected AppendUnsupported, got {:?}", other.err()),
        }
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn files_are_write_once() {
    let (fx, fs) = deploy(4, 1024);
    let h = fx.spawn(NodeId(0), "t", move |p| {
        fs.write_file(p, &d("/immutable"), Payload::from_vec(pattern(10, 1)))
            .unwrap();
        // Re-creating the same path fails; the data cannot be overwritten.
        assert!(matches!(
            fs.create(p, &d("/immutable")),
            Err(FsError::AlreadyExists(_))
        ));
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn blocks_are_replicated_and_pipelined() {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let fs = HdfsSim::deploy(
        &fx,
        HdfsConfig::test_small(1000).with_replication(3),
        HdfsLayout::compact(fx.spec()),
    );
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(0), "t", move |p| {
        let data = pattern(2500, 5); // 3 blocks (1000/1000/500)
        fs2.write_file(p, &d("/r3"), Payload::from_vec(data.clone()))
            .unwrap();
        // 3 replicas of 2500 bytes total.
        assert_eq!(fs2.total_stored_bytes(), 3 * 2500);
        let locs = fs2.block_locations(p, &d("/r3"), 0, 2500).unwrap();
        assert_eq!(locs.len(), 3);
        for l in &locs {
            assert_eq!(l.hosts.len(), 3);
        }
        // Content survives: read it back whole.
        let got = fs2.read_file(p, &d("/r3")).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
        // Kill two replica holders of block 0: still readable.
        for host in &locs[0].hosts[..2] {
            for dn in fs2.datanodes() {
                if dn.node() == *host {
                    dn.kill();
                }
            }
        }
        let got = fs2.read_file(p, &d("/r3")).unwrap();
        assert_eq!(got.bytes().as_ref(), &data[..]);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn random_placement_is_not_perfectly_balanced() {
    // Paper §2.2: random placement "will often lead to a layout that is not
    // load balanced" — verify the mechanism (and that data still spreads).
    let (fx, fs) = deploy(16, 100);
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(0), "t", move |p| {
        for i in 0..20 {
            fs2.write_file(
                p,
                &d(&format!("/f{i}")),
                Payload::from_vec(pattern(500, i as u8)),
            )
            .unwrap();
        }
        let counts: Vec<usize> = fs2.datanodes().iter().map(|dn| dn.block_count()).collect();
        let total: usize = counts.iter().sum();
        assert_eq!(total, 100); // 20 files x 5 blocks
        assert!(counts.iter().any(|&c| c > 0));
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn deleting_files_frees_datanode_space() {
    let (fx, fs) = deploy(4, 256);
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(0), "t", move |p| {
        fs2.write_file(p, &d("/gc"), Payload::from_vec(pattern(1024, 2)))
            .unwrap();
        assert_eq!(fs2.total_stored_bytes(), 1024);
        assert!(fs2.delete(p, &d("/gc"), false).unwrap());
        assert_eq!(fs2.total_stored_bytes(), 0);
    });
    fx.run();
    h.take().unwrap();
}

#[test]
fn paper_scale_ghost_write_throughput() {
    // One client writing 4 chunks of 64 MB through a 3-replica pipeline on
    // the 270-node cluster: each chunk moves at single-link speed.
    let fx = Fabric::sim(ClusterSpec::orsay_270());
    let fs = HdfsSim::deploy_paper(&fx, HdfsConfig::paper());
    let h = fx.spawn(NodeId(50), "writer", move |p| {
        let start = p.now();
        let mut w = fs.create(p, &d("/big")).unwrap();
        for _ in 0..4 {
            w.write(p, Payload::ghost(64 * 1024 * 1024)).unwrap();
        }
        w.close(p).unwrap();
        let elapsed = fabric::ns_to_secs(p.now() - start);
        assert!(
            (2.0..5.0).contains(&elapsed),
            "4x64MB pipelined chunks took {elapsed}s"
        );
        assert_eq!(fs.total_stored_bytes(), 3 * 4 * 64 * 1024 * 1024);
    });
    fx.run();
    h.take().unwrap();
}
