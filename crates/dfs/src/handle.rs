//! The file handles both file systems return: a block-buffered writer and
//! a block-window reader. The caching is the same on both sides — BSFS
//! "prefetches a whole block ... and delays committing writes until a whole
//! block has been filled" (paper §3.2), as HDFS buffers a chunk and reads
//! ahead (§2.2) — so it is written once here. A file system supplies only
//! where a flushed run of bytes goes ([`BlockSink`]) and where the window
//! holding a position comes from ([`WindowSource`]).

use fabric::{Payload, Proc};

use crate::error::{FsError, FsResult};

/// Where a [`FileWriter`] ships what it buffered.
pub trait BlockSink: Send {
    /// Ship one run of bytes: whole blocks while writing, what is left at
    /// `close`.
    fn ship(&mut self, p: &Proc, run: Payload) -> FsResult<()>;

    /// Called by `close` after the last run shipped; a `close` that failed
    /// here calls it again.
    fn seal(&mut self, _p: &Proc) -> FsResult<()> {
        Ok(())
    }
}

/// Where a [`FileReader`] fetches the window holding a position.
pub trait WindowSource: Send {
    /// The window holding `pos` (below the reader's length): its start
    /// offset and its bytes.
    fn window(&self, p: &Proc, pos: u64) -> FsResult<(u64, Payload)>;
}

/// Streaming writer returned by `FileSystem::create` / `append`. Data
/// accumulates client-side and ships as whole blocks, at most `max_run`
/// bytes per [`BlockSink::ship`]; the partial tail ships at `close`, which
/// must be called to make it visible.
///
/// A run is taken out of the buffer before it ships, so a failed ship
/// loses that run and only that run: the bytes behind it stay buffered,
/// and the next `write` or `close` ships them.
pub struct FileWriter {
    sink: Box<dyn BlockSink>,
    block_size: u64,
    max_run: u64,
    pending: Vec<Payload>,
    pending_len: u64,
    written: u64,
    closed: bool,
}

impl FileWriter {
    /// A writer shipping `block_size` blocks to `sink`, at most `max_run`
    /// bytes at a time (`u64::MAX`: every buffered whole block at once).
    pub fn new(sink: Box<dyn BlockSink>, block_size: u64, max_run: u64) -> FileWriter {
        FileWriter {
            sink,
            block_size,
            max_run,
            pending: Vec::new(),
            pending_len: 0,
            written: 0,
            closed: false,
        }
    }

    /// Append `data` at the writer's current position.
    pub fn write(&mut self, p: &Proc, data: Payload) -> FsResult<()> {
        if self.closed {
            return Err(FsError::HandleClosed);
        }
        if data.is_empty() {
            return Ok(());
        }
        self.written += data.len();
        self.pending_len += data.len();
        self.pending.push(data);
        self.flush(p, false)
    }

    /// Flush buffered data and release the handle. Idempotent.
    pub fn close(&mut self, p: &Proc) -> FsResult<()> {
        if self.closed {
            return Ok(());
        }
        self.flush(p, true)?;
        self.sink.seal(p)?;
        self.closed = true;
        Ok(())
    }

    /// Bytes accepted through this writer so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Ship the buffered whole blocks; when `all`, the partial tail too.
    fn flush(&mut self, p: &Proc, all: bool) -> FsResult<()> {
        loop {
            let whole = self.pending_len - self.pending_len % self.block_size;
            let n = if all { self.pending_len } else { whole }.min(self.max_run);
            if n == 0 {
                return Ok(());
            }
            let buffered = Payload::concat(&self.pending);
            let rest = self.pending_len - n;
            self.pending.clear();
            if rest > 0 {
                self.pending.push(buffered.slice(n, rest));
            }
            self.pending_len = rest;
            self.sink.ship(p, buffered.slice(0, n))?;
        }
    }
}

/// Streaming reader returned by `FileSystem::open`. It observes the file
/// as of `open` (BSFS pins the BLOB version; HDFS files are immutable
/// anyway) and keeps the last window it fetched, so sequential reads fetch
/// each window once.
pub struct FileReader {
    source: Box<dyn WindowSource>,
    len: u64,
    pos: u64,
    /// `(start offset, bytes)` of the window fetched last.
    cache: Option<(u64, Payload)>,
}

impl FileReader {
    /// A reader over `len` bytes whose windows come from `source`.
    pub fn new(source: Box<dyn WindowSource>, len: u64) -> FileReader {
        FileReader {
            source,
            len,
            pos: 0,
            cache: None,
        }
    }

    /// Read up to `len` bytes from the current position, never past the
    /// end of the window holding it; an empty payload signals end-of-file.
    pub fn read(&mut self, p: &Proc, len: u64) -> FsResult<Payload> {
        let pos = self.pos;
        if pos >= self.len || len == 0 {
            return Ok(Payload::empty());
        }
        let (start, data) = match &self.cache {
            Some((s, d)) if (*s..s + d.len()).contains(&pos) => (*s, d),
            _ => {
                let (s, d) = self.cache.insert(self.source.window(p, pos)?);
                (*s, &*d)
            }
        };
        let n = len.min(start + data.len() - pos).min(self.len - pos);
        let out = data.slice(pos - start, n);
        self.pos += n;
        Ok(out)
    }

    /// Reposition the stream.
    pub fn seek(&mut self, pos: u64) -> FsResult<()> {
        self.pos = pos;
        Ok(())
    }

    /// Current position.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Snapshot length of the file at open time.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the snapshot holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Positioned read: `seek(offset)` then read exactly `min(len, remaining)`.
    pub fn read_at(&mut self, p: &Proc, offset: u64, len: u64) -> FsResult<Payload> {
        self.seek(offset)?;
        let mut parts = Vec::new();
        let mut got = 0;
        while got < len {
            let chunk = self.read(p, len - got)?;
            if chunk.is_empty() {
                break;
            }
            got += chunk.len();
            parts.push(chunk);
        }
        Ok(Payload::concat(&parts))
    }
}
