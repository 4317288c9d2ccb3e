//! `hdfs-sim` — the baseline distributed file system of the comparison: a
//! faithful model of HDFS 0.20 semantics as described in paper §2.2.
//!
//! * centralized [`Namenode`] (namespace + chunk locations, single-writer
//!   leases, random block placement);
//! * [`Datanode`]s storing 64 MB chunks, written through a replication
//!   pipeline (modeled as one cut-through flow over all hops);
//! * client-side buffering of a full chunk before writing, whole-chunk
//!   readahead on reads;
//! * write-once-read-many: once closed, files are immutable, and
//!   **`append` is not supported** — the exact limitation the paper
//!   addresses with BSFS.

// The source disciplines as lints: see EXPERIMENTS.md, "Static analysis".
#![warn(
    unreachable_pub,
    unsafe_code,
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

mod datanode;
mod fs;
mod namenode;

pub use datanode::Datanode;
pub use fs::{HdfsConfig, HdfsLayout, HdfsSim};
pub use namenode::{BlockInfo, Lease, Namenode};
