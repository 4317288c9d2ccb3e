//! The store proper: segmented append-only log + in-memory index.
//!
//! Disk layout: a directory of `NNNNNNNN.seg` files written strictly
//! append-only. Each record is
//!
//! ```text
//! +-------+---------+---------+----------+----------+
//! | crc32 | key_len | val_len | key      | value    |
//! | u32le | u32le   | u32le   | key_len  | val_len  |
//! +-------+---------+---------+----------+----------+
//! ```
//!
//! with `val_len == u32::MAX` marking a tombstone (delete). The CRC covers
//! everything after itself. The in-memory index is ordered by key and maps
//! each key to the segment and offset of its newest record; recovery
//! rebuilds it by scanning segments in id order.
//!
//! Optionally, `NNNNNNNN.ckpt` checkpoint files snapshot the index (in key
//! order) together with a `(segment, flushed_len)` watermark. Recovery then
//! loads the newest valid checkpoint and replays only the records written
//! after its watermark, bounding open cost by data-since-last-checkpoint
//! rather than total log length. A checkpoint that fails validation (bad
//! CRC, missing segment, watermark past end-of-file) is skipped silently —
//! older checkpoints and finally a full scan always remain as fallbacks, so
//! a damaged checkpoint can never make data unreachable.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Bound;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crc::{crc32, crc32_multi};
use crate::error::{PStoreError, Result};

const TOMBSTONE: u32 = u32::MAX;
const HEADER: usize = 12; // crc + key_len + val_len

const CKPT_MAGIC: [u8; 4] = *b"PSCK";
const CKPT_VERSION: u32 = 1;
/// Fixed checkpoint prelude: magic + version + watermark (seg, len) + count.
const CKPT_HEAD: usize = 4 + 4 + 8 + 8 + 8;
/// Per-entry fixed part: key_len + seg + offset + rec_len.
const CKPT_ENTRY: usize = 4 + 8 + 8 + 8;

/// Tunables for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate to a new segment once the active one exceeds this size.
    pub max_segment_bytes: u64,
    /// Write a checkpoint after this many appended bytes, bounding recovery
    /// replay to data-since-last-checkpoint. `None` (default) disables
    /// automatic checkpoints; [`Store::checkpoint`] stays available.
    pub checkpoint_every_bytes: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_segment_bytes: 64 * 1024 * 1024,
            checkpoint_every_bytes: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u64,
    offset: u64,
    rec_len: u64,
}

struct Inner {
    dir: PathBuf,
    opts: StoreOptions,
    index: BTreeMap<Vec<u8>, Loc>,
    /// Handles for sealed + active segments, keyed by id. Shared, so `get`
    /// can read a record outside the store mutex: segments are append-only,
    /// so flushed bytes never change under a reader.
    files: BTreeMap<u64, Arc<File>>,
    active: u64,
    /// The active segment's handle (also in `files`).
    active_file: Arc<File>,
    /// Bytes appended to the active segment not yet written to the file.
    buf: Vec<u8>,
    /// Bytes of the active segment already in the file.
    flushed: u64,
    /// Bytes appended since the last checkpoint (or open).
    since_ckpt: u64,
    /// Id for the next checkpoint file (strictly monotone).
    next_ckpt: u64,
    /// Log bytes scanned past the newest valid checkpoint when this store
    /// was opened — the recovery cost the checkpoint cadence bounds.
    replayed_at_open: u64,
}

/// An embedded log-structured KV store; see the crate docs.
pub struct Store {
    inner: Mutex<Inner>,
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:08}.seg"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:08}.ckpt"))
}

fn open_segment(dir: &Path, id: u64) -> Result<File> {
    Ok(OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(seg_path(dir, id))?)
}

/// The `N` bytes at `data[pos..]`, or `None` if they run past the end.
fn le<const N: usize>(data: &[u8], pos: usize) -> Option<[u8; N]> {
    data.get(pos..pos.checked_add(N)?)?.try_into().ok()
}

/// A decoded, validated checkpoint: index snapshot plus the replay watermark
/// `(segment, flushed_len)` it was taken at.
struct Checkpoint {
    wseg: u64,
    wlen: u64,
    index: BTreeMap<Vec<u8>, Loc>,
}

/// Decode + validate a checkpoint file. Any failure — I/O, bad CRC, bad
/// structure, a referenced segment missing or shorter than claimed — returns
/// `None`: checkpoints are an optimization, never an authority.
#[expect(
    clippy::indexing_slicing,
    reason = "the magic and body are cut after `len >= CKPT_HEAD + 4`, each key after its own `body.len() < pos + key_len` test"
)]
fn load_checkpoint(path: &Path, seg_disk_len: &BTreeMap<u64, u64>) -> Option<Checkpoint> {
    let data = std::fs::read(path).ok()?;
    if data.len() < CKPT_HEAD + 4 || data[..4] != CKPT_MAGIC {
        return None;
    }
    let body = &data[..data.len() - 4];
    let stored_crc = u32::from_le_bytes(le(&data, body.len())?);
    if crc32(body) != stored_crc {
        return None;
    }
    let u32_at = |p: usize| le(body, p).map(u32::from_le_bytes);
    let u64_at = |p: usize| le(body, p).map(u64::from_le_bytes);
    if u32_at(4)? != CKPT_VERSION {
        return None;
    }
    let wseg = u64_at(8)?;
    let wlen = u64_at(16)?;
    let count = u64_at(24)?;
    if seg_disk_len.get(&wseg).copied().unwrap_or(0) < wlen {
        return None;
    }
    let mut index = BTreeMap::new();
    let mut pos = CKPT_HEAD;
    for _ in 0..count {
        let key_len = u32_at(pos)? as usize;
        let loc = Loc {
            seg: u64_at(pos + 4)?,
            offset: u64_at(pos + 12)?,
            rec_len: u64_at(pos + 20)?,
        };
        pos += CKPT_ENTRY;
        if body.len() < pos + key_len {
            return None;
        }
        // Every referenced record must lie within a segment that still
        // exists at (at least) its checkpointed length.
        let seg_len = seg_disk_len.get(&loc.seg).copied()?;
        if loc.offset.checked_add(loc.rec_len)? > seg_len {
            return None;
        }
        index.insert(body[pos..pos + key_len].to_vec(), loc);
        pos += key_len;
    }
    if pos != body.len() {
        return None;
    }
    Some(Checkpoint { wseg, wlen, index })
}

/// Refuse a key or value the record header cannot carry: its length field
/// is a `u32`, and a value length of `u32::MAX` marks a tombstone.
fn check_len(what: &str, len: usize) -> Result<()> {
    if len < TOMBSTONE as usize {
        return Ok(());
    }
    Err(PStoreError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{what} of {len} bytes: a record holds under {TOMBSTONE} bytes"),
    )))
}

fn encode_record(out: &mut Vec<u8>, key: &[u8], val: Option<&[u8]>) -> u64 {
    let key_len = (key.len() as u32).to_le_bytes();
    let val_len = match val {
        Some(v) => (v.len() as u32).to_le_bytes(),
        None => TOMBSTONE.to_le_bytes(),
    };
    let crc = crc32_multi(&[&key_len, &val_len, key, val.unwrap_or(&[])]);
    let start = out.len();
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&key_len);
    out.extend_from_slice(&val_len);
    out.extend_from_slice(key);
    if let Some(v) = val {
        out.extend_from_slice(v);
    }
    (out.len() - start) as u64
}

/// Parse one record at `data[pos..]`. Returns `(key, value, record_len)`
/// where `value == None` is a tombstone, or `Err(detail)` for torn/corrupt
/// data.
#[expect(
    clippy::indexing_slicing,
    reason = "the body is cut after `len >= end`, and `end` is past the header the `le` reads found"
)]
#[expect(
    clippy::type_complexity,
    reason = "one private caller; a named type would say no more"
)]
fn parse_record(
    data: &[u8],
    pos: usize,
) -> std::result::Result<(&[u8], Option<&[u8]>, u64), String> {
    let field = |at: usize| {
        le(data, pos + at)
            .map(u32::from_le_bytes)
            .ok_or("truncated header")
    };
    let crc = field(0)?;
    let key_len = field(4)? as usize;
    let val_len_raw = field(8)?;
    let val_len = if val_len_raw == TOMBSTONE {
        0
    } else {
        val_len_raw as usize
    };
    let body = pos + HEADER;
    let end = body
        .checked_add(key_len)
        .and_then(|x| x.checked_add(val_len))
        .ok_or("absurd record length")?;
    if data.len() < end {
        return Err("truncated body".into());
    }
    let key = &data[body..body + key_len];
    let val = &data[body + key_len..end];
    let actual = crc32(&data[pos + 4..end]);
    if actual != crc {
        return Err(format!(
            "checksum mismatch (stored {crc:#x}, computed {actual:#x})"
        ));
    }
    let value = if val_len_raw == TOMBSTONE {
        None
    } else {
        Some(val)
    };
    Ok((key, value, (end - pos) as u64))
}

/// Replay segment `id`'s records from byte `start` into `index`; returns
/// the segment's length. A torn or corrupt record ends the replay: in the
/// newest segment (`torn_ok`) it is a crash mid-append and the tail is cut
/// off, anywhere else it is an error.
fn replay(
    f: &mut File,
    id: u64,
    start: u64,
    torn_ok: bool,
    index: &mut BTreeMap<Vec<u8>, Loc>,
) -> Result<u64> {
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    let mut pos = start as usize;
    while pos < data.len() {
        match parse_record(&data, pos) {
            Ok((key, val, rec_len)) => {
                if val.is_some() {
                    let loc = Loc {
                        seg: id,
                        offset: pos as u64,
                        rec_len,
                    };
                    index.insert(key.to_vec(), loc);
                } else {
                    index.remove(key);
                }
                pos += rec_len as usize;
            }
            Err(_) if torn_ok => {
                f.set_len(pos as u64)?;
                return Ok(pos as u64);
            }
            Err(detail) => {
                return Err(PStoreError::Corrupt {
                    segment: id,
                    offset: pos as u64,
                    detail,
                })
            }
        }
    }
    Ok(data.len() as u64)
}

impl Store {
    /// Open (or create) a store in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open (or create) a store in `dir`.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ids: Vec<u64> = Vec::new();
        let mut ckpt_ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".seg") {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push(id);
                }
            } else if let Some(stem) = name.strip_suffix(".ckpt") {
                if let Ok(id) = stem.parse::<u64>() {
                    ckpt_ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        ckpt_ids.sort_unstable();

        // Segment lengths up front: checkpoint validation needs them.
        let mut disk_len: BTreeMap<u64, u64> = BTreeMap::new();
        for &id in &ids {
            disk_len.insert(id, std::fs::metadata(seg_path(&dir, id))?.len());
        }

        // Newest valid checkpoint wins; damaged ones are skipped and the
        // full scan remains the final fallback.
        let mut ckpt = None;
        for &cid in ckpt_ids.iter().rev() {
            if let Some(c) = load_checkpoint(&ckpt_path(&dir, cid), &disk_len) {
                ckpt = Some(c);
                break;
            }
        }
        let (mut index, watermark) = match ckpt {
            Some(c) => (c.index, Some((c.wseg, c.wlen))),
            None => (BTreeMap::new(), None),
        };

        let mut files = BTreeMap::new();
        let mut replayed = 0u64;
        // The last segment listed becomes the active one.
        let mut newest = None;
        for &id in &ids {
            let mut f = open_segment(&dir, id)?;
            // Segments fully covered by the checkpoint are not rescanned;
            // the watermark segment replays from its checkpointed length.
            let start = match watermark {
                Some((wseg, _)) if id < wseg => None,
                Some((wseg, wlen)) if id == wseg => Some(wlen),
                _ => Some(0),
            };
            let len = match start {
                Some(start) => {
                    let torn_ok = Some(&id) == ids.last();
                    let len = replay(&mut f, id, start, torn_ok, &mut index)?;
                    replayed += len - start;
                    len
                }
                None => disk_len.get(&id).copied().unwrap_or(0),
            };
            let f = Arc::new(f);
            files.insert(id, f.clone());
            newest = Some((id, f, len));
        }

        let (active, active_file, flushed) = match newest {
            Some(n) => n,
            None => {
                let f = Arc::new(open_segment(&dir, 0)?);
                files.insert(0, f.clone());
                (0, f, 0)
            }
        };
        let next_ckpt = ckpt_ids.last().map_or(0, |c| c + 1);
        Ok(Store {
            inner: Mutex::new(Inner {
                dir,
                opts,
                index,
                files,
                active,
                active_file,
                buf: Vec::new(),
                flushed,
                // Replayed-but-uncheckpointed bytes count against the
                // checkpoint budget, so crash loops with short uptimes
                // still converge on bounded replay.
                since_ckpt: replayed,
                next_ckpt,
                replayed_at_open: replayed,
            }),
        })
    }

    /// Insert or replace `key`; returns whether an older value was replaced.
    /// A key or value of `u32::MAX` bytes or more is refused with an
    /// `InvalidInput` I/O error before anything is buffered.
    pub fn put(&self, key: &[u8], val: &[u8]) -> Result<bool> {
        check_len("key", key.len())?;
        check_len("value", val.len())?;
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let loc = inner.append(key, Some(val))?;
        let replaced = inner.index.insert(key.to_vec(), loc).is_some();
        inner.maybe_checkpoint()?;
        Ok(replaced)
    }

    /// Fetch the newest value of `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Only the index lookup (and a copy out of the write buffer, for a
        // record not yet flushed) needs the store mutex; the read and the
        // checksum — the bulk of a get — run beside other gets and puts.
        let (loc, src) = {
            let g = self.inner.lock();
            let Some(loc) = g.index.get(key).copied() else {
                return Ok(None);
            };
            (loc, g.record_src(loc)?)
        };
        let mut data = src.read(loc)?;
        let (k, v, _) = parse_record(&data, 0).map_err(|detail| PStoreError::Corrupt {
            segment: loc.seg,
            offset: loc.offset,
            detail,
        })?;
        debug_assert_eq!(k, key);
        let Some(v) = v else {
            return Ok(None);
        };
        // The value is the record's tail: shift it to the front of the
        // buffer it was read into rather than copying it into a second one.
        let val_start = data.len() - v.len();
        data.drain(..val_start);
        Ok(Some(data))
    }

    /// Remove `key`; returns whether it existed.
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        if !inner.index.contains_key(key) {
            return Ok(false);
        }
        inner.append(key, None)?;
        inner.index.remove(key);
        inner.maybe_checkpoint()?;
        Ok(true)
    }

    /// Log bytes this store had to scan past the newest valid checkpoint
    /// when it was opened (0 for a brand-new store, or when a checkpoint
    /// covered the whole log). Deterministic for a given directory state —
    /// recovery benchmarks gate on it instead of wall-clock.
    pub fn replayed_bytes(&self) -> u64 {
        self.inner.lock().replayed_at_open
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.inner.lock().index.contains_key(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// True when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, sorted by key.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let keys: Vec<Vec<u8>> = {
            let g = self.inner.lock();
            g.with_prefix(prefix).map(|(k, _)| k.clone()).collect()
        };
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(v) = self.get(&k)? {
                out.push((k, v));
            }
        }
        Ok(out)
    }

    /// All `(key, value_length)` pairs whose key starts with `prefix`,
    /// sorted by key — index metadata only, no value reads. Lets recovery
    /// reconstruct byte counters without touching record bodies.
    pub fn prefix_meta(&self, prefix: &[u8]) -> Vec<(Vec<u8>, u64)> {
        let g = self.inner.lock();
        g.with_prefix(prefix)
            .map(|(k, l)| (k.clone(), l.rec_len - (HEADER + k.len()) as u64))
            .collect()
    }

    /// Write buffered records to disk and `fsync`.
    pub fn flush(&self) -> Result<()> {
        self.inner.lock().flush(true)
    }

    /// Write buffered records to the OS without `fsync`: survives process
    /// crashes (the page cache outlives the process) but not power loss.
    /// Use [`Store::flush`] for the stronger contract.
    pub fn flush_buffered(&self) -> Result<()> {
        self.inner.lock().flush(false)
    }

    /// Snapshot the index + watermark into a checkpoint file, bounding the
    /// next open's replay to records appended after this call. Flushes and
    /// `fsync`s first so the watermark only covers durable bytes.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().write_checkpoint()
    }

    /// Drop the store *without* the clean-close flush, discarding buffered
    /// (unacknowledged) records — exactly what a process crash would do.
    /// Chaos harnesses use this to model `CrashRestart` honestly.
    pub fn abandon(self) {
        self.inner.lock().buf.clear();
    }
}

impl Drop for Store {
    /// Clean close: write out buffered records (crash safety before this
    /// point is covered by an explicit `flush` plus recovery).
    fn drop(&mut self) {
        let _ = self.inner.lock().flush(false);
    }
}

impl Inner {
    /// Buffer one record for `key` (a tombstone when `val` is `None`),
    /// rotating first if the active segment is full; returns where it lands.
    fn append(&mut self, key: &[u8], val: Option<&[u8]>) -> Result<Loc> {
        self.maybe_rotate()?;
        let offset = self.flushed + self.buf.len() as u64;
        let rec_len = encode_record(&mut self.buf, key, val);
        self.since_ckpt += rec_len;
        Ok(Loc {
            seg: self.active,
            offset,
            rec_len,
        })
    }

    fn flush(&mut self, sync: bool) -> Result<()> {
        let mut f: &File = &self.active_file;
        if !self.buf.is_empty() {
            f.write_all(&self.buf)?;
            self.flushed += self.buf.len() as u64;
            self.buf.clear();
        }
        if sync {
            f.sync_all()?;
        }
        Ok(())
    }

    fn maybe_rotate(&mut self) -> Result<()> {
        let active_len = self.flushed + self.buf.len() as u64;
        if active_len < self.opts.max_segment_bytes {
            return Ok(());
        }
        self.flush(true)?;
        let id = self.active + 1;
        let f = Arc::new(open_segment(&self.dir, id)?);
        self.files.insert(id, f.clone());
        self.active = id;
        self.active_file = f;
        self.flushed = 0;
        Ok(())
    }

    /// Checkpoint when the appended-bytes budget is exhausted.
    fn maybe_checkpoint(&mut self) -> Result<()> {
        match self.opts.checkpoint_every_bytes {
            Some(limit) if self.since_ckpt >= limit => self.write_checkpoint(),
            _ => Ok(()),
        }
    }

    /// Write a checkpoint: flush + fsync (the watermark must only cover
    /// durable bytes), snapshot the index in key order, write to a temp
    /// file, rename into place, then retire older checkpoint files.
    fn write_checkpoint(&mut self) -> Result<()> {
        self.flush(true)?;
        let mut body = Vec::with_capacity(CKPT_HEAD + self.index.len() * (CKPT_ENTRY + 16));
        body.extend_from_slice(&CKPT_MAGIC);
        body.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        body.extend_from_slice(&self.active.to_le_bytes());
        body.extend_from_slice(&self.flushed.to_le_bytes());
        body.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        for (key, loc) in &self.index {
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            body.extend_from_slice(&loc.seg.to_le_bytes());
            body.extend_from_slice(&loc.offset.to_le_bytes());
            body.extend_from_slice(&loc.rec_len.to_le_bytes());
            body.extend_from_slice(key);
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let id = self.next_ckpt;
        self.next_ckpt += 1;
        let tmp = self.dir.join("ckpt.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, ckpt_path(&self.dir, id))?;
        self.drop_checkpoints(id);
        self.since_ckpt = 0;
        Ok(())
    }

    /// Remove every checkpoint file with id below `keep`.
    fn drop_checkpoints(&self, keep: u64) {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in rd.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".ckpt") {
                if let Ok(id) = stem.parse::<u64>() {
                    if id < keep {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
    }

    /// The index entries whose key starts with `prefix`, in key order.
    fn with_prefix<'a>(&'a self, prefix: &'a [u8]) -> impl Iterator<Item = (&'a Vec<u8>, &'a Loc)> {
        self.index
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }

    /// Where the record at `loc` is right now: still in the write buffer
    /// (copied out here, under the caller's lock) or in a segment file.
    #[expect(
        clippy::indexing_slicing,
        reason = "a buffered record was appended to `buf` whole: `offset >= flushed` and `rec_len` ends inside it"
    )]
    fn record_src(&self, loc: Loc) -> Result<RecordSrc> {
        if loc.seg == self.active && loc.offset >= self.flushed {
            let start = (loc.offset - self.flushed) as usize;
            let rec = &self.buf[start..start + loc.rec_len as usize];
            return Ok(RecordSrc::Buffered(rec.to_vec()));
        }
        match self.files.get(&loc.seg) {
            Some(f) => Ok(RecordSrc::Segment(f.clone())),
            None => Err(PStoreError::Corrupt {
                segment: loc.seg,
                offset: loc.offset,
                detail: "the index names a segment the store has no file for".into(),
            }),
        }
    }
}

/// A record's raw bytes, or the handle to read them from without the store
/// mutex (flushed bytes never change and the handle keeps the file alive).
enum RecordSrc {
    Buffered(Vec<u8>),
    Segment(Arc<File>),
}

impl RecordSrc {
    fn read(self, loc: Loc) -> Result<Vec<u8>> {
        match self {
            RecordSrc::Buffered(data) => Ok(data),
            RecordSrc::Segment(f) => {
                let mut out = vec![0u8; loc.rec_len as usize];
                f.read_exact_at(&mut out, loc.offset)?;
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "pstore-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&p);
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Number of files in `dir` whose name ends with `suffix`.
    fn files_ending(dir: &Path, suffix: &str) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().ends_with(suffix)
            })
            .count()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let td = TempDir::new("basic");
        let s = Store::open(&td.0).unwrap();
        assert!(s.is_empty());
        s.put(b"alpha", b"1").unwrap();
        s.put(b"beta", b"2").unwrap();
        assert_eq!(s.get(b"alpha").unwrap().unwrap(), b"1");
        s.put(b"alpha", b"updated").unwrap();
        assert_eq!(s.get(b"alpha").unwrap().unwrap(), b"updated");
        assert!(s.delete(b"beta").unwrap());
        assert!(!s.delete(b"beta").unwrap());
        assert_eq!(s.get(b"beta").unwrap(), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn survives_reopen() {
        let td = TempDir::new("reopen");
        {
            let s = Store::open(&td.0).unwrap();
            for i in 0..100u32 {
                s.put(format!("k{i}").as_bytes(), &i.to_le_bytes()).unwrap();
            }
            s.delete(b"k42").unwrap();
            s.flush().unwrap();
        }
        let s = Store::open(&td.0).unwrap();
        assert_eq!(s.len(), 99);
        assert_eq!(s.get(b"k7").unwrap().unwrap(), 7u32.to_le_bytes());
        assert_eq!(s.get(b"k42").unwrap(), None);
    }

    #[test]
    fn unflushed_reads_come_from_buffer() {
        let td = TempDir::new("buffer");
        let s = Store::open(&td.0).unwrap();
        s.put(b"hot", b"unflushed-value").unwrap();
        assert_eq!(s.get(b"hot").unwrap().unwrap(), b"unflushed-value");
    }

    #[test]
    fn rotates_segments() {
        let td = TempDir::new("rotate");
        let opts = StoreOptions {
            max_segment_bytes: 256,
            ..Default::default()
        };
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        for i in 0..50u32 {
            s.put(format!("key-{i}").as_bytes(), &[7u8; 64]).unwrap();
        }
        s.flush().unwrap();
        assert!(files_ending(&td.0, ".seg") > 1);
        drop(s);
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 50);
        assert_eq!(s.get(b"key-49").unwrap().unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn torn_tail_is_discarded_on_recovery() {
        let td = TempDir::new("torn");
        {
            let s = Store::open(&td.0).unwrap();
            s.put(b"good", b"value").unwrap();
            s.put(b"torn", b"this record will be cut in half").unwrap();
            s.flush().unwrap();
        }
        // Chop bytes off the end, simulating a crash mid-append.
        let path = seg_path(&td.0, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let s = Store::open(&td.0).unwrap();
        assert_eq!(s.get(b"good").unwrap().unwrap(), b"value");
        assert_eq!(s.get(b"torn").unwrap(), None);
        // The store remains writable after tail repair.
        s.put(b"after", b"crash").unwrap();
        s.flush().unwrap();
        drop(s);
        let s = Store::open(&td.0).unwrap();
        assert_eq!(s.get(b"after").unwrap().unwrap(), b"crash");
    }

    #[test]
    fn corruption_in_sealed_segment_is_an_error() {
        let td = TempDir::new("corrupt");
        let opts = StoreOptions {
            max_segment_bytes: 64,
            ..Default::default()
        };
        {
            let s = Store::open_with(&td.0, opts.clone()).unwrap();
            for i in 0..20u32 {
                s.put(format!("k{i}").as_bytes(), &[0u8; 32]).unwrap();
            }
            s.flush().unwrap();
            assert!(files_ending(&td.0, ".seg") >= 3);
        }
        // Flip a byte in the middle of the first (sealed) segment.
        let path = seg_path(&td.0, 0);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, data).unwrap();
        match Store::open_with(&td.0, opts) {
            Err(PStoreError::Corrupt { segment: 0, .. }) => {}
            Err(other) => panic!("expected segment-0 corruption error, got {other}"),
            Ok(_) => panic!("expected corruption error, store opened cleanly"),
        }
    }

    #[test]
    fn scan_prefix_is_sorted_and_filtered() {
        let td = TempDir::new("scan");
        let s = Store::open(&td.0).unwrap();
        s.put(b"blob/2", b"two").unwrap();
        s.put(b"blob/1", b"one").unwrap();
        s.put(b"file/1", b"other").unwrap();
        let got = s.scan_prefix(b"blob/").unwrap();
        assert_eq!(
            got,
            vec![
                (b"blob/1".to_vec(), b"one".to_vec()),
                (b"blob/2".to_vec(), b"two".to_vec())
            ]
        );
    }

    #[test]
    fn checkpoint_bounds_replay_and_survives_reopen() {
        let td = TempDir::new("ckpt");
        let opts = StoreOptions {
            max_segment_bytes: 512,
            ..Default::default()
        };
        {
            let s = Store::open_with(&td.0, opts.clone()).unwrap();
            for i in 0..60u32 {
                s.put(format!("k{i}").as_bytes(), &[i as u8; 40]).unwrap();
            }
            s.delete(b"k3").unwrap();
            s.checkpoint().unwrap();
            assert_eq!(files_ending(&td.0, ".ckpt"), 1);
            // Records after the checkpoint must replay on top of it.
            s.put(b"k7", b"post-ckpt").unwrap();
            s.put(b"late", b"appended-after").unwrap();
            s.flush().unwrap();
        }
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        assert_eq!(s.len(), 60); // 60 puts - k3 + late
        assert_eq!(s.get(b"k3").unwrap(), None);
        assert_eq!(s.get(b"k7").unwrap().unwrap(), b"post-ckpt");
        assert_eq!(s.get(b"late").unwrap().unwrap(), b"appended-after");
        assert_eq!(s.get(b"k5").unwrap().unwrap(), vec![5u8; 40]);
        drop(s);

        // A corrupted checkpoint is skipped, not trusted: flip one byte and
        // recovery must still produce the same state via full scan.
        let ck = ckpt_path(&td.0, 0);
        let mut data = std::fs::read(&ck).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&ck, data).unwrap();
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 60);
        assert_eq!(s.get(b"k7").unwrap().unwrap(), b"post-ckpt");
    }

    #[test]
    fn auto_checkpoint_fires_and_retires_older_ones() {
        let td = TempDir::new("auto-ckpt");
        let opts = StoreOptions {
            max_segment_bytes: 1024,
            checkpoint_every_bytes: Some(256),
        };
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        for i in 0..40u32 {
            s.put(format!("k{i}").as_bytes(), &[1u8; 32]).unwrap();
        }
        // Budget 256 with ~44-byte records: many checkpoints written, only
        // the newest retained.
        assert_eq!(files_ending(&td.0, ".ckpt"), 1);
        drop(s);
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 40);
        assert_eq!(s.get(b"k39").unwrap().unwrap(), vec![1u8; 32]);
    }

    #[test]
    fn abandon_discards_buffered_records() {
        let td = TempDir::new("abandon");
        {
            let s = Store::open(&td.0).unwrap();
            s.put(b"durable", b"flushed").unwrap();
            s.flush_buffered().unwrap();
            s.put(b"lost", b"never-acked").unwrap();
            s.abandon();
        }
        let s = Store::open(&td.0).unwrap();
        assert_eq!(s.get(b"durable").unwrap().unwrap(), b"flushed");
        assert_eq!(s.get(b"lost").unwrap(), None, "abandon must not flush");
    }

    #[test]
    fn prefix_meta_reports_value_lengths_without_reading_values() {
        let td = TempDir::new("meta");
        let s = Store::open(&td.0).unwrap();
        s.put(b"p/b", &[0u8; 100]).unwrap();
        s.put(b"p/a", &[0u8; 7]).unwrap();
        s.put(b"l/1", &[0u8; 3]).unwrap();
        s.put(b"p/a", &[0u8; 9]).unwrap(); // overwrite: newest wins
        assert_eq!(
            s.prefix_meta(b"p/"),
            vec![(b"p/a".to_vec(), 9), (b"p/b".to_vec(), 100)]
        );
        assert_eq!(s.prefix_meta(b"l/"), vec![(b"l/1".to_vec(), 3)]);
    }

    #[test]
    fn lengths_the_header_cannot_carry_are_refused() {
        assert!(check_len("key", 0).is_ok());
        assert!(check_len("value", u32::MAX as usize - 1).is_ok());
        // `u32::MAX` would read back as a tombstone; anything longer would
        // be truncated by the length field.
        for len in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            match check_len("value", len) {
                Err(PStoreError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
                    assert!(
                        e.to_string().contains(&format!("value of {len} bytes")),
                        "{e}"
                    );
                }
                other => panic!("len {len}: expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_flipped_bit_anywhere_in_a_page_record_is_corrupt() {
        // `page` = 64 KiB + 7: the checksum covers record bytes 4..65_559,
        // folded as four 16 KiB lanes from byte 4 and a 19-byte tail from
        // 65_540. One flip in the stored checksum, one in the value length,
        // one inside each lane, one in the tail.
        let value: Vec<u8> = (0..65_536u32 + 7).map(|i| (i * 31 + 7) as u8).collect();
        let opts = StoreOptions {
            max_segment_bytes: 1024,
            ..Default::default()
        };
        for at in [
            1usize,
            8,
            4 + 8192,
            16_388 + 5,
            32_772 + 16_000,
            49_156 + 9,
            65_550,
        ] {
            let td = TempDir::new("page-flip");
            let s = Store::open_with(&td.0, opts.clone()).unwrap();
            s.put(b"page", &value).unwrap();
            // The next put rotates: the page record is sealed in segment 0.
            s.put(b"next", b"x").unwrap();
            s.flush().unwrap();
            assert_eq!(s.get(b"page").unwrap().unwrap(), value);
            let path = seg_path(&td.0, 0);
            let mut data = std::fs::read(&path).unwrap();
            assert_eq!(data.len(), 12 + 4 + value.len());
            data[at] ^= 0x04;
            std::fs::write(&path, &data).unwrap();
            match s.get(b"page") {
                Err(PStoreError::Corrupt {
                    segment: 0,
                    offset: 0,
                    ..
                }) => {}
                other => panic!("flip at {at}: get answered {other:?}"),
            }
            drop(s);
            match Store::open_with(&td.0, opts.clone()) {
                Err(PStoreError::Corrupt { segment: 0, .. }) => {}
                Err(other) => panic!("flip at {at}: open answered {other}"),
                Ok(_) => panic!("flip at {at}: the store opened cleanly"),
            }
        }
    }

    #[test]
    fn empty_and_binary_values() {
        let td = TempDir::new("binary");
        let s = Store::open(&td.0).unwrap();
        s.put(b"", b"empty-key").unwrap();
        s.put(b"zero", b"").unwrap();
        let blob: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        s.put(b"bin", &blob).unwrap();
        assert_eq!(s.get(b"").unwrap().unwrap(), b"empty-key");
        assert_eq!(s.get(b"zero").unwrap().unwrap(), b"");
        assert_eq!(s.get(b"bin").unwrap().unwrap(), blob);
    }
}
