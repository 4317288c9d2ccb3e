//! `pstore` — an embedded, log-structured key/value store.
//!
//! BlobSeer "offers persistence through a BerkeleyDB layer" (paper §3.1.1):
//! providers and the namespace manager keep their state in a local embedded
//! database. This crate is that substitute: a crash-consistent,
//! CRC-checksummed, append-only segmented log with an in-memory index,
//! on-demand compaction and recovery-by-scan — the same design family as
//! Bitcask/BDB's logs, small enough to audit.
//!
//! Guarantees:
//! * `put`/`delete` are durable after [`Store::flush`] (or `fsync` mode);
//!   [`Store::flush_buffered`] gives the weaker process-crash contract;
//! * recovery replays segments in order and stops at the first torn/corrupt
//!   record (prefix consistency), discarding the damaged tail;
//! * checkpoints ([`Store::checkpoint`] or `checkpoint_every_bytes`) bound
//!   recovery replay to data-since-last-checkpoint; a damaged checkpoint is
//!   skipped, never trusted;
//! * [`Store::compact`] rewrites live records and reclaims dead space while
//!   preserving the latest value of every key.
//!
//! The store is `Sync`; all operations take `&self`.

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

mod crc;
mod error;
mod store;

pub use crc::crc32;
pub use error::{PStoreError, PStoreErrorKind, Result};
pub use store::{Store, StoreOptions};
