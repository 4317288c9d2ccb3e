//! What BSFS supplies to the shared [`dfs::FileWriter`] / [`dfs::FileReader`]:
//! the client-side caching layer of paper §3.2 — "a caching mechanism ...
//! prefetches a whole block when the requested data is not already cached,
//! and delays committing writes until a whole block has been filled in the
//! cache" — over one BLOB.

use std::sync::Arc;

use blobseer::{BlobClient, BlobId, SnapshotInfo};
use dfs::{BlockSink, FsError, FsResult, WindowSource};
use fabric::{Payload, Proc};

pub(crate) fn to_fs_err(e: blobseer::BlobError) -> FsError {
    FsError::Storage(e.to_string())
}

/// Every run the writer flushes is one atomic BLOB append: all buffered
/// whole blocks at once while writing, the short tail page at close. So
/// concurrent writers on the same file interleave at block granularity and
/// never corrupt each other.
pub(crate) struct Appends {
    pub(crate) client: Arc<BlobClient>,
    pub(crate) blob: BlobId,
}

impl BlockSink for Appends {
    fn ship(&mut self, p: &Proc, run: Payload) -> FsResult<()> {
        self.client.append(p, self.blob, run).map_err(to_fs_err)?;
        Ok(())
    }
}

/// The whole block-aligned window around a position, read from the
/// snapshot pinned at open time: concurrent appenders produce new versions
/// that the reader deliberately does not see (reopen to observe growth) —
/// the isolation behind the paper's Figure 4.
pub(crate) struct SnapshotBlocks {
    pub(crate) client: Arc<BlobClient>,
    pub(crate) blob: BlobId,
    pub(crate) snap: SnapshotInfo,
}

impl WindowSource for SnapshotBlocks {
    fn window(&self, p: &Proc, pos: u64) -> FsResult<(u64, Payload)> {
        let start = pos - pos % self.snap.page_size;
        let len = self.snap.page_size.min(self.snap.total_bytes - start);
        let data = self
            .client
            .read_snapshot(p, self.blob, &self.snap, start, len)
            .map_err(to_fs_err)?;
        Ok((start, data))
    }
}
