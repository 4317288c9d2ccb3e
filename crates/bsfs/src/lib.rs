//! `bsfs` — the BlobSeer File System (paper §3.2).
//!
//! BSFS turns the [`blobseer`] BLOB store into a Hadoop-compatible file
//! system: a centralized *namespace manager* maps hierarchical file names to
//! BLOBs, client handles add the caching the paper describes (whole-block
//! prefetch on read, write-behind until a block fills), and — the point of
//! the paper — `append` **works**, including many concurrent appenders on
//! one shared file. Readers pin the snapshot current at `open` and are
//! never disturbed by in-flight appends.
//!
//! Use [`Bsfs::deploy`] (or [`Bsfs::deploy_paper`] for the 270-node layout
//! of §4.1) and program against [`dfs::FileSystem`].

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

mod file;
mod fs;
mod namespace;

pub use file::{BsfsReader, BsfsWriter};
pub use fs::Bsfs;
pub use namespace::{NamespaceManager, NsEntry, NsFile};
