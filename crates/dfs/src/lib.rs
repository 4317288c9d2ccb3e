//! `dfs` — the distributed-file-system API shared by BSFS and the HDFS
//! baseline.
//!
//! The Hadoop Map/Reduce framework "accesses the storage layer through an
//! interface that exposes the basic functions of a file system" (paper §3.2);
//! swapping HDFS for BSFS is possible precisely because both implement that
//! interface. This crate is our equivalent of
//! `org.apache.hadoop.fs.FileSystem`:
//!
//! * [`FileSystem`] — create/open/append/rename/delete/mkdirs/list/status
//!   plus [`FileSystem::block_locations`], the primitive the jobtracker uses
//!   for data-location-aware scheduling;
//! * [`FileWriter`] / [`FileReader`] — streaming handles;
//! * [`DfsPath`] — normalized absolute paths;
//! * [`Namespace`] — the directory tree both metadata services keep;
//! * [`FsError`] — the error vocabulary (including
//!   [`FsError::AppendUnsupported`], which is exactly what stock HDFS returns
//!   and what motivates the paper).
//!
//! Notably, `append` is *in* the interface — as the paper observes, the
//! operation was present in Hadoop's `FileSystem` API but unimplemented in
//! the HDFS release of the time. Our HDFS baseline faithfully rejects it;
//! BSFS implements it.

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

// The BSFS and HDFS integration tests run `contract` by path.
pub mod contract;
mod error;
mod fs;
mod namespace;
mod path;

pub use error::{FsError, FsResult};
pub use fs::{BlockLocation, FileReader, FileStatus, FileSystem, FileWriter};
pub use namespace::{Entry, Namespace};
pub use path::DfsPath;
