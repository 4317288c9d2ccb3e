//! `blobseer-repro` — umbrella crate of the reproduction of
//! *"Improving the Hadoop Map/Reduce Framework to Support Concurrent
//! Appends through the BlobSeer BLOB management system"* (Moise, Antoniu &
//! Bougé, HPDC'10 MapReduce workshop).
//!
//! Everything lives in the member crates and is re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`fabric`] | execution substrate: deterministic 270-node cluster simulation (max-min fair fluid flows) + live-thread mode |
//! | [`pstore`] | embedded log-structured KV store (BerkeleyDB substitute) |
//! | [`dfs`] | the Hadoop-`FileSystem`-style interface |
//! | [`blobseer`] | the BLOB store: versioned segment-tree metadata, provider manager, version manager |
//! | [`bsfs`] | the BlobSeer File System: namespace manager + client caching + **concurrent append** |
//! | [`hdfs_sim`] | the HDFS 0.20 baseline: write-once, no append |
//! | [`mapreduce`] | jobtracker/tasktrackers, locality scheduling, shuffle, both output committers |
//! | [`workloads`] | data join (contrib semantics), wordcount, Last.fm-like generator |
//!
//! Run the examples (`cargo run --release --example quickstart`) for guided
//! tours, and `cargo bench` to regenerate every figure of the paper's
//! evaluation (see `EXPERIMENTS.md`).

// The source disciplines as lints: see EXPERIMENTS.md, "Static analysis".
#![warn(
    unreachable_pub,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub use blobseer;
pub use bsfs;
pub use dfs;
pub use fabric;
pub use hdfs_sim;
pub use mapreduce;
pub use pstore;
pub use workloads;

/// Convenience testbed builders shared by examples and integration tests.
pub mod testbed {
    use std::sync::Arc;

    use blobseer::{BlobSeerConfig, Layout};
    use bsfs::Bsfs;
    use dfs::FileSystem;
    use fabric::{ClusterSpec, Fabric};
    use hdfs_sim::{HdfsConfig, HdfsLayout, HdfsSim};
    use mapreduce::{MrCluster, MrConfig};

    /// A small live-mode BSFS world for interactive examples: real threads,
    /// real bytes, `nodes` logical nodes, `block_size`-byte pages.
    #[expect(
        clippy::expect_used,
        reason = "test/example deployment helper: panicking on a failed deploy is its contract"
    )]
    pub fn live_bsfs(nodes: u32, block_size: u64) -> (Fabric, Bsfs) {
        let fx = Fabric::live(ClusterSpec::tiny(nodes));
        let fs = Bsfs::deploy(
            &fx,
            BlobSeerConfig::test_small(block_size),
            Layout::compact(fx.spec()),
        )
        .expect("deploy BSFS");
        (fx, fs)
    }

    /// Like [`live_bsfs`], but every service persists to a per-service
    /// subdirectory of `dir` (providers their pages, metadata servers their
    /// tree nodes, the provider manager its lease book), which makes
    /// `blobseer::Fault::CrashRestart` injectable: a killed service heals
    /// by replaying its pstore directory.
    #[expect(
        clippy::expect_used,
        reason = "test/example deployment helper: panicking on a failed deploy is its contract"
    )]
    pub fn live_bsfs_persistent(
        nodes: u32,
        block_size: u64,
        dir: &std::path::Path,
    ) -> (Fabric, Bsfs) {
        let fx = Fabric::live(ClusterSpec::tiny(nodes));
        let fs = Bsfs::deploy(
            &fx,
            BlobSeerConfig::test_small(block_size).with_persist_dir(Some(dir.to_path_buf())),
            Layout::compact(fx.spec()),
        )
        .expect("deploy persistent BSFS");
        (fx, fs)
    }

    /// A small live-mode HDFS world.
    pub fn live_hdfs(nodes: u32, block_size: u64) -> (Fabric, HdfsSim) {
        let fx = Fabric::live(ClusterSpec::tiny(nodes));
        let fs = HdfsSim::deploy(
            &fx,
            HdfsConfig::test_small(block_size),
            HdfsLayout::compact(fx.spec()),
        );
        (fx, fs)
    }

    /// Start a Map/Reduce cluster over `fs` with fast heartbeats (live
    /// examples want snappy scheduling).
    pub fn live_mapreduce(fx: &Fabric, fs: Arc<dyn FileSystem>) -> MrCluster {
        let cfg = MrConfig::compact(fx.spec()).with_heartbeat_ns(2 * fabric::MILLIS);
        MrCluster::start(fx, fs, cfg)
    }
}
