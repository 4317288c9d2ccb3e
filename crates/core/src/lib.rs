//! `blobseer` — a from-scratch implementation of the BlobSeer BLOB
//! management system (Nicolae, Antoniu & Bougé), the storage substrate of
//! the paper *"Improving the Hadoop Map/Reduce Framework to Support
//! Concurrent Appends through the BlobSeer BLOB management system"*
//! (HPDC'10 MapReduce workshop).
//!
//! A BLOB is a large sequence of bytes split into fixed-size *pages*:
//!
//! * [`provider::Provider`]s store pages (in memory, or durably through the
//!   [`pstore`] BerkeleyDB-substitute);
//! * the [`provider_manager::ProviderManager`] load-balances page placement;
//! * page locations per version live in versioned segment trees
//!   ([`meta`]) sharded over a DHT of metadata providers ([`dht`]);
//! * the centralized [`version_manager::VersionManager`] orders concurrent
//!   updates and publishes versions strictly in sequence;
//! * [`client::BlobClient`] ties it together: `create` / `append` / `write`
//!   / `read` / `page_locations`.
//!
//! Data is never overwritten in place: every update produces a new snapshot
//! version, and readers only ever see published snapshots. That is the
//! mechanism behind the paper's headline microbenchmarks: massively
//! concurrent appends to a shared BLOB proceed in parallel (Figure 3) and
//! do not disturb concurrent readers (Figures 4/5).
//!
//! Everything runs on a [`fabric::Fabric`] — real threads in live mode, a
//! deterministic 270-node cluster simulation for paper-scale experiments.

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

/// The declared lock hierarchy, outermost first:
///
/// | rank | lock | where |
/// |------|------|-------|
/// | 1 | `blobs` — VM registry `RwLock<HashMap<BlobId, Arc<BlobSlot>>>` | `version_manager.rs` |
/// | 2 | `state` — per-BLOB `Mutex<BlobState>`; the lock unit and its dense pending window live in `meta.rs`, one method call per hold | `version_manager.rs` |
/// | 3 | `leases` — provider-manager lease book `Mutex<LeaseBook>` | `provider_manager.rs` |
/// | 4 | `pages` / `nodes` — an in-memory provider's page map, an in-memory metadata server's node map (a durable one leaves its map empty) | `provider.rs`, `dht.rs` |
/// | 5 | `inner` / `views` — a client's read cache, its per-BLOB index views | `read_cache.rs`, `client.rs` |
///
/// Two rules, both enforced by the debug-only assertions in the
/// `parking_lot` shim ([`parking_lot::lock_order`]) on every path a debug
/// test executes — tier-1 and the chaos sweep — and by nothing else:
///
/// * **Order.** A thread never acquires a rank at or below one it holds,
///   so two locks of one rank never nest. A violation panics with
///   `lock-order violation` and both ranks.
/// * **Wire.** No fabric call that spends virtual time or parks — `request`,
///   `transfer*`, `sleep`, `disk_*`, `compute`, `Gate::wait`, `Queue::recv`,
///   `JoinHandle::join` — runs while any ranked guard is live: the version
///   manager keeps RPC charging and gate waits outside the `BlobState`
///   critical section (the paper's "serialize only at version assignment"),
///   and the lease book and the caches follow suit. A violation panics with
///   `wire-while-locked`, the call and the held rank; in sim mode it would
///   otherwise be a hang.
pub(crate) mod lock_ranks {
    /// Version-manager BLOB registry.
    pub(crate) const REGISTRY: u8 = 1;
    /// Per-blob control state (`BlobSlot::state` — the `meta.rs` lock unit).
    pub(crate) const BLOB_STATE: u8 = 2;
    /// Provider-manager lease book.
    pub(crate) const LEASE_BOOK: u8 = 3;
    /// The page map of an in-memory provider and the node map of an
    /// in-memory metadata server, one per service; durable ones leave
    /// theirs empty (their store is the one copy).
    pub(crate) const MAPS: u8 = 4;
    /// A client's read cache and its index views (`read_cache.rs`,
    /// `client.rs`) — leaves of the hierarchy: nothing else is ever taken
    /// under them, and no wire traffic happens while one is held.
    pub(crate) const READ_CACHE: u8 = 5;
}

mod client;
mod cluster;
mod config;
mod desc_index;
// Integration tests build `MetaDht` / `MetaServer` by path.
pub mod dht;
mod error;
mod fault;
// Tests, the micro bench and `benchmark/` reach tree nodes and `plan_write` by path.
pub mod meta;
// Tests, `fig4_readers` and `benchmark/` name `provider::Provider`.
pub mod provider;
// `tests/pending_pressure.rs` builds a `ProviderManager` by path.
pub mod provider_manager;
mod read_cache;
mod service;
#[cfg(test)]
mod testutil;
// Tests and `benchmark/` reach `tree_span` and `UpdateKind` by path.
pub mod types;
// Integration tests build a `VersionManager` by path.
pub mod version_manager;

pub use client::{BlobClient, PageLocation, Staged};
pub use cluster::{BlobSeer, Layout, ReaperHandle};
pub use config::{BlobSeerConfig, Timeouts};
pub use desc_index::DescIndex;
pub use error::{BlobError, BlobResult, PersistenceKind};
pub use fault::{Fault, FaultTarget};
pub use meta::{PageRef, SnapshotInfo};
pub use provider_manager::LeaseId;
pub use read_cache::{ReadCache, ReadCacheStats};
pub use types::{BlobId, PageId, Version, WriteDesc, WriteKind};
