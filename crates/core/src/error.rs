//! Error vocabulary for the BLOB store.

use std::fmt;
use std::path::Path;

use crate::types::{BlobId, Version};

/// Cause class of a [`BlobError::Persistence`] failure. Typed (not a string)
/// so chaos/recovery tests can assert on the cause rather than
/// substring-match a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistenceKind {
    /// Underlying filesystem error.
    Io,
    /// On-disk data failed checksum or structural validation.
    Corrupt,
    /// The operation is not representable on the durable backend (e.g.
    /// storing a ghost payload, which has no bytes to persist).
    Unsupported,
}

impl fmt::Display for PersistenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistenceKind::Io => write!(f, "io"),
            PersistenceKind::Corrupt => write!(f, "corrupt"),
            PersistenceKind::Unsupported => write!(f, "unsupported"),
        }
    }
}

impl From<pstore::PStoreErrorKind> for PersistenceKind {
    fn from(k: pstore::PStoreErrorKind) -> Self {
        match k {
            pstore::PStoreErrorKind::Io => PersistenceKind::Io,
            pstore::PStoreErrorKind::Corrupt => PersistenceKind::Corrupt,
        }
    }
}

impl BlobError {
    /// Wrap a [`pstore::PStoreError`] raised while operating on the store
    /// rooted at `path`, preserving its cause class.
    pub fn persistence(path: &Path, e: &pstore::PStoreError) -> BlobError {
        BlobError::Persistence {
            kind: e.kind().into(),
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

/// Errors surfaced by BlobSeer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// Unknown BLOB id.
    NoSuchBlob(BlobId),
    /// Requested version does not exist (yet).
    NoSuchVersion { blob: BlobId, version: Version },
    /// Read beyond the end of the snapshot.
    OutOfBounds { offset: u64, len: u64, size: u64 },
    /// A write at an offset that is not an existing page boundary, or an
    /// interior overwrite whose length does not cover whole pages.
    UnalignedWrite { detail: String },
    /// Zero-byte updates are not versions.
    EmptyWrite,
    /// A metadata tree node could not be found — the version is unpublished
    /// or metadata was lost.
    MetadataMissing {
        blob: BlobId,
        version: Version,
        page_lo: u64,
        page_hi: u64,
    },
    /// A page could not be fetched from any replica.
    PageUnavailable { detail: String },
    /// A provider rejected an operation because it is down.
    ProviderDown { node: u32 },
    /// No providers available to place pages on.
    NoProviders,
    /// Local persistence failure: the cause class, the store directory it
    /// happened in, and a human-readable detail line.
    Persistence {
        kind: PersistenceKind,
        path: String,
        detail: String,
    },
    /// A deployment was asked for that cannot work (no providers,
    /// replication above the provider count, service nodes outside the
    /// cluster, ...). Returned by `BlobSeer::deploy` instead of panicking
    /// deep inside the engine — fault-schedule generators probe these
    /// corners on purpose.
    InvalidTopology(String),
    /// `inject`/`heal` named a target index that does not exist in this
    /// deployment.
    NoSuchTarget(String),
    /// The (target, fault) combination is not modeled (e.g. crashing the
    /// version manager — failover is a separate roadmap item).
    UnsupportedFault(String),
    /// An internal contract between two components was broken — e.g. a
    /// batch RPC answered with a different number of results than it was
    /// asked for. Surfaced instead of panicking so one wedged peer cannot
    /// take the whole process down; seeing this is always a bug.
    Internal { detail: String },
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::NoSuchBlob(b) => write!(f, "no such BLOB: {b}"),
            BlobError::NoSuchVersion { blob, version } => {
                write!(f, "{blob} has no version {version}")
            }
            BlobError::OutOfBounds { offset, len, size } => write!(
                f,
                "range [{offset}, {offset}+{len}) exceeds snapshot of {size} bytes"
            ),
            BlobError::UnalignedWrite { detail } => write!(f, "unaligned write: {detail}"),
            BlobError::EmptyWrite => write!(f, "empty writes are not allowed"),
            BlobError::MetadataMissing {
                blob,
                version,
                page_lo,
                page_hi,
            } => write!(
                f,
                "metadata node ({blob}, v{version}, pages [{page_lo}, {page_hi})) missing"
            ),
            BlobError::PageUnavailable { detail } => write!(f, "page unavailable: {detail}"),
            BlobError::ProviderDown { node } => write!(f, "provider on node n{node} is down"),
            BlobError::NoProviders => write!(f, "no live providers available"),
            BlobError::Persistence { kind, path, detail } => {
                write!(f, "persistence layer ({kind}) at {path}: {detail}")
            }
            BlobError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            BlobError::NoSuchTarget(msg) => write!(f, "no such fault target: {msg}"),
            BlobError::UnsupportedFault(msg) => write!(f, "unsupported fault: {msg}"),
            BlobError::Internal { detail } => {
                write!(f, "internal contract violation (a bug): {detail}")
            }
        }
    }
}

impl std::error::Error for BlobError {}

pub type BlobResult<T> = std::result::Result<T, BlobError>;
