//! BSFS file handles: the client-side caching layer of paper §3.2 —
//! "a caching mechanism ... prefetches a whole block when the requested
//! data is not already cached, and delays committing writes until a whole
//! block has been filled in the cache".

use std::sync::Arc;

use blobseer::{BlobClient, BlobId, SnapshotInfo};
use dfs::{FileReader, FileWriter, FsError, FsResult};
use fabric::{Payload, Proc};

pub(crate) fn to_fs_err(e: blobseer::BlobError) -> FsError {
    FsError::Storage(e.to_string())
}

/// Write-behind buffered writer: data accumulates client-side and is shipped
/// to BlobSeer as whole blocks (`block_size` = the BLOB's page size); the
/// final partial block flushes at close as a short tail page. Because every
/// flush is an atomic BLOB append, concurrent writers on the same file
/// interleave at block granularity and never corrupt each other.
pub struct BsfsWriter {
    client: Arc<BlobClient>,
    blob: BlobId,
    block_size: u64,
    pending: Vec<Payload>,
    pending_len: u64,
    written: u64,
    closed: bool,
}

impl BsfsWriter {
    pub(crate) fn new(client: Arc<BlobClient>, blob: BlobId, block_size: u64) -> Self {
        BsfsWriter {
            client,
            blob,
            block_size,
            pending: Vec::new(),
            pending_len: 0,
            written: 0,
            closed: false,
        }
    }

    /// Flush any buffered whole blocks; when `all` also flush the partial
    /// tail.
    fn flush_blocks(&mut self, p: &Proc, all: bool) -> FsResult<()> {
        let whole = (self.pending_len / self.block_size) * self.block_size;
        let flush_len = if all { self.pending_len } else { whole };
        if flush_len == 0 {
            return Ok(());
        }
        let buffered = Payload::concat(&self.pending);
        let head = buffered.slice(0, flush_len);
        let rest_len = self.pending_len - flush_len;
        self.pending.clear();
        if rest_len > 0 {
            self.pending.push(buffered.slice(flush_len, rest_len));
        }
        self.pending_len = rest_len;
        self.client.append(p, self.blob, head).map_err(to_fs_err)?;
        Ok(())
    }
}

impl FileWriter for BsfsWriter {
    fn write(&mut self, p: &Proc, data: Payload) -> FsResult<()> {
        if self.closed {
            return Err(FsError::HandleClosed);
        }
        if data.is_empty() {
            return Ok(());
        }
        self.written += data.len();
        self.pending_len += data.len();
        self.pending.push(data);
        if self.pending_len >= self.block_size {
            self.flush_blocks(p, false)?;
        }
        Ok(())
    }

    fn close(&mut self, p: &Proc) -> FsResult<()> {
        if self.closed {
            return Ok(());
        }
        self.flush_blocks(p, true)?;
        self.closed = true;
        Ok(())
    }

    fn written(&self) -> u64 {
        self.written
    }
}

/// Snapshot-pinned reader with whole-block prefetch. The snapshot is fixed
/// at open time: concurrent appenders produce new versions that this reader
/// deliberately does not see (reopen to observe growth) — the isolation
/// behind the paper's Figure 4.
pub struct BsfsReader {
    client: Arc<BlobClient>,
    blob: BlobId,
    snap: SnapshotInfo,
    block_size: u64,
    pos: u64,
    /// `(start_offset, data)` of the most recently fetched block window.
    cache: Option<(u64, Payload)>,
}

impl BsfsReader {
    pub(crate) fn new(client: Arc<BlobClient>, blob: BlobId, snap: SnapshotInfo) -> Self {
        let block_size = snap.page_size;
        BsfsReader {
            client,
            blob,
            snap,
            block_size,
            pos: 0,
            cache: None,
        }
    }

    /// The snapshot version this reader is pinned to.
    pub fn version(&self) -> blobseer::Version {
        self.snap.version
    }

    fn cached_range(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|(s, d)| (*s, *s + d.len()))
    }
}

impl FileReader for BsfsReader {
    fn read(&mut self, p: &Proc, len: u64) -> FsResult<Payload> {
        let total = self.snap.total_bytes;
        if self.pos >= total || len == 0 {
            return Ok(Payload::empty());
        }
        let in_cache = matches!(self.cached_range(), Some((s, e)) if self.pos >= s && self.pos < e);
        if !in_cache {
            // Prefetch the whole block-aligned window around `pos`.
            let start = self.pos - self.pos % self.block_size;
            let window = self.block_size.min(total - start);
            let data = self
                .client
                .read_snapshot(p, self.blob, &self.snap, start, window)
                .map_err(to_fs_err)?;
            self.cache = Some((start, data));
        }
        #[expect(clippy::expect_used, reason = "the branch above populated the cache")]
        let (s, data) = self.cache.as_ref().expect("just populated");
        let end_cached = s + data.len();
        let n = len.min(end_cached - self.pos).min(total - self.pos);
        let out = data.slice(self.pos - s, n);
        self.pos += n;
        Ok(out)
    }

    fn seek(&mut self, pos: u64) -> FsResult<()> {
        self.pos = pos;
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn len(&self) -> u64 {
        self.snap.total_bytes
    }
}
