//! `pstore` — an embedded, log-structured key/value store.
//!
//! BlobSeer "offers persistence through a BerkeleyDB layer" (paper §3.1.1):
//! each node keeps its state in a local embedded database. This crate is
//! that substitute, and three services persist through it: the providers
//! (pages), the metadata servers (tree nodes) and the provider manager
//! (its lease log). It is a crash-consistent, CRC-checksummed, append-only
//! segmented log with an ordered in-memory index and recovery-by-scan — the
//! same design family as Bitcask/BDB's logs, small enough to audit. The log
//! keeps every record it is given: nothing rewrites or reclaims a segment.
//! Pages and tree nodes are written once, so its dead records are mostly
//! the lease log's rewrites and tombstones.
//!
//! Guarantees:
//! * `put`/`delete` are durable after [`Store::flush`];
//!   [`Store::flush_buffered`] gives the weaker process-crash contract;
//! * recovery replays segments in order and stops at the first torn/corrupt
//!   record (prefix consistency), discarding the damaged tail;
//! * checkpoints ([`Store::checkpoint`] or `checkpoint_every_bytes`) bound
//!   recovery replay to data-since-last-checkpoint; a damaged checkpoint is
//!   skipped, never trusted;
//! * [`Store::scan_prefix`] and [`Store::prefix_meta`] answer in key order.
//!
//! The store is `Sync`; all operations take `&self`.

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

mod crc;
mod error;
mod store;

pub use crc::crc32;
pub use error::{PStoreError, PStoreErrorKind, Result};
pub use store::{Store, StoreOptions};
