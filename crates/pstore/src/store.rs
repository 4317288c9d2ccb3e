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
//! everything after itself. The in-memory index maps keys to the segment and
//! offset of their newest record; recovery rebuilds it by scanning segments
//! in id order.
//!
//! Optionally, `NNNNNNNN.ckpt` checkpoint files snapshot the index together
//! with a `(segment, flushed_len)` watermark. Recovery then loads the newest
//! valid checkpoint and replays only the records written after its
//! watermark, bounding open cost by data-since-last-checkpoint rather than
//! total log length. A checkpoint that fails validation (bad CRC, missing
//! segment, watermark past end-of-file) is skipped silently — older
//! checkpoints and finally a full scan always remain as fallbacks, so a
//! damaged checkpoint can never make data unreachable.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "each unwrap is a fixed-width slice `try_into` or a lookup of a live segment in maps `open_with` / `roll` keep total; corrupt bytes are rejected earlier as PStoreError"
)]

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
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
    /// `fsync` after every write (slow, maximally durable). Default: rely on
    /// explicit [`Store::flush`].
    pub fsync_each_write: bool,
    /// Write a checkpoint after this many appended bytes, bounding recovery
    /// replay to data-since-last-checkpoint. `None` (default) disables
    /// automatic checkpoints; [`Store::checkpoint`] stays available.
    pub checkpoint_every_bytes: Option<u64>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            max_segment_bytes: 64 * 1024 * 1024,
            fsync_each_write: false,
            checkpoint_every_bytes: None,
        }
    }
}

/// Occupancy counters (see [`Store::stats`]).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoreStats {
    /// Number of live keys.
    pub keys: usize,
    /// Bytes occupied by the newest record of each live key.
    pub live_bytes: u64,
    /// Total bytes across all segments, dead records included.
    pub disk_bytes: u64,
    /// Number of segment files.
    pub segments: usize,
}

#[cfg(test)]
impl StoreStats {
    /// Fraction of on-disk bytes not referenced by the index.
    pub(crate) fn dead_ratio(&self) -> f64 {
        if self.disk_bytes == 0 {
            0.0
        } else {
            1.0 - (self.live_bytes as f64 / self.disk_bytes as f64)
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
    index: HashMap<Vec<u8>, Loc>,
    /// Handles for sealed + active segments, keyed by id. Shared, so a
    /// reader can take one out from under the store mutex: segments are
    /// append-only and a handle outlives compaction's unlink.
    files: BTreeMap<u64, Arc<File>>,
    /// On-disk length per segment.
    seg_len: BTreeMap<u64, u64>,
    active: u64,
    /// Bytes appended to the active segment not yet written to the file.
    buf: Vec<u8>,
    /// Bytes of the active segment already in the file.
    flushed: u64,
    live_bytes: u64,
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

/// A decoded, validated checkpoint: index snapshot plus the replay watermark
/// `(segment, flushed_len)` it was taken at.
struct Checkpoint {
    wseg: u64,
    wlen: u64,
    index: HashMap<Vec<u8>, Loc>,
}

/// Decode + validate a checkpoint file. Any failure — I/O, bad CRC, bad
/// structure, a referenced segment missing or shorter than claimed — returns
/// `None`: checkpoints are an optimization, never an authority.
#[expect(
    clippy::indexing_slicing,
    reason = "the head is read after `len >= CKPT_HEAD + 4`, each entry and each key after its own `body.len() < pos + …` test"
)]
fn load_checkpoint(path: &Path, seg_disk_len: &BTreeMap<u64, u64>) -> Option<Checkpoint> {
    let data = std::fs::read(path).ok()?;
    if data.len() < CKPT_HEAD + 4 || data[..4] != CKPT_MAGIC {
        return None;
    }
    let body = &data[..data.len() - 4];
    let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return None;
    }
    let u32_at = |p: usize| u32::from_le_bytes(body[p..p + 4].try_into().unwrap());
    let u64_at = |p: usize| u64::from_le_bytes(body[p..p + 8].try_into().unwrap());
    if u32_at(4) != CKPT_VERSION {
        return None;
    }
    let wseg = u64_at(8);
    let wlen = u64_at(16);
    let count = u64_at(24) as usize;
    if seg_disk_len.get(&wseg).copied().unwrap_or(0) < wlen {
        return None;
    }
    let mut index = HashMap::with_capacity(count);
    let mut pos = CKPT_HEAD;
    for _ in 0..count {
        if body.len() < pos + CKPT_ENTRY {
            return None;
        }
        let key_len = u32_at(pos) as usize;
        let loc = Loc {
            seg: u64_at(pos + 4),
            offset: u64_at(pos + 12),
            rec_len: u64_at(pos + 20),
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
    reason = "the header is read after `len >= pos + HEADER`, the body after `len >= end`"
)]
#[expect(
    clippy::type_complexity,
    reason = "one private caller; a named type would say no more"
)]
fn parse_record(
    data: &[u8],
    pos: usize,
) -> std::result::Result<(&[u8], Option<&[u8]>, u64), String> {
    if data.len() < pos + HEADER {
        return Err("truncated header".into());
    }
    let crc = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
    let key_len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
    let val_len_raw = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().unwrap());
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

impl Store {
    /// Open (or create) a store in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open (or create) a store in `dir`.
    #[expect(
        clippy::indexing_slicing,
        reason = "every member of `ids` was inserted into `disk_len`, and into `seg_len` by the scan loop; `active` is the newest of them, or the 0 just inserted"
    )]
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
        let (mut index, mut live_bytes, watermark) = match ckpt {
            Some(c) => {
                #[expect(clippy::disallowed_methods, reason = "commutative sum")]
                let live = c.index.values().map(|l| l.rec_len).sum();
                (c.index, live, Some((c.wseg, c.wlen)))
            }
            None => (HashMap::new(), 0u64, None),
        };

        let mut files = BTreeMap::new();
        let mut seg_len = BTreeMap::new();
        let mut replayed = 0u64;
        let newest = ids.last().copied();
        for &id in &ids {
            let path = seg_path(&dir, id);
            let mut f = OpenOptions::new().read(true).append(true).open(&path)?;
            // Segments fully covered by the checkpoint are not rescanned;
            // the watermark segment replays from its checkpointed length.
            let start = match watermark {
                Some((wseg, _)) if id < wseg => None,
                Some((wseg, wlen)) if id == wseg => Some(wlen as usize),
                _ => Some(0usize),
            };
            let Some(start) = start else {
                seg_len.insert(id, disk_len[&id]);
                files.insert(id, Arc::new(f));
                continue;
            };
            let mut data = Vec::new();
            f.read_to_end(&mut data)?;
            let mut pos = start;
            while pos < data.len() {
                match parse_record(&data, pos) {
                    Ok((key, val, rec_len)) => {
                        let old = if val.is_some() {
                            index.insert(
                                key.to_vec(),
                                Loc {
                                    seg: id,
                                    offset: pos as u64,
                                    rec_len,
                                },
                            )
                        } else {
                            index.remove(key)
                        };
                        if let Some(o) = old {
                            live_bytes -= o.rec_len;
                        }
                        if val.is_some() {
                            live_bytes += rec_len;
                        }
                        pos += rec_len as usize;
                    }
                    Err(detail) => {
                        if Some(id) == newest {
                            // Torn tail from a crash mid-append: discard it.
                            f.set_len(pos as u64)?;
                            data.truncate(pos);
                            break;
                        }
                        return Err(PStoreError::Corrupt {
                            segment: id,
                            offset: pos as u64,
                            detail,
                        });
                    }
                }
            }
            replayed += (data.len() - start) as u64;
            seg_len.insert(id, data.len() as u64);
            files.insert(id, Arc::new(f));
        }

        let active = match newest {
            Some(id) => id,
            None => {
                let f = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(seg_path(&dir, 0))?;
                files.insert(0, Arc::new(f));
                seg_len.insert(0, 0);
                0
            }
        };
        let flushed = seg_len[&active];
        let next_ckpt = ckpt_ids.last().map_or(0, |c| c + 1);
        Ok(Store {
            inner: Mutex::new(Inner {
                dir,
                opts,
                index,
                files,
                seg_len,
                active,
                buf: Vec::new(),
                flushed,
                live_bytes,
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
        inner.maybe_rotate()?;
        let offset = inner.flushed + inner.buf.len() as u64;
        let rec_len = encode_record(&mut inner.buf, key, Some(val));
        let old = inner.index.insert(
            key.to_vec(),
            Loc {
                seg: inner.active,
                offset,
                rec_len,
            },
        );
        if let Some(o) = old {
            inner.live_bytes -= o.rec_len;
        }
        inner.live_bytes += rec_len;
        *inner.seg_len.get_mut(&inner.active).unwrap() = offset + rec_len;
        inner.since_ckpt += rec_len;
        if inner.opts.fsync_each_write {
            inner.flush(true)?;
        }
        inner.maybe_checkpoint()?;
        Ok(old.is_some())
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
            (loc, g.record_src(loc))
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
        inner.maybe_rotate()?;
        let offset = inner.flushed + inner.buf.len() as u64;
        let rec_len = encode_record(&mut inner.buf, key, None);
        if let Some(o) = inner.index.remove(key) {
            inner.live_bytes -= o.rec_len;
        }
        *inner.seg_len.get_mut(&inner.active).unwrap() = offset + rec_len;
        inner.since_ckpt += rec_len;
        if inner.opts.fsync_each_write {
            inner.flush(true)?;
        }
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

    /// All live keys (unordered).
    #[expect(
        clippy::disallowed_methods,
        reason = "documented unordered; its one caller (model_proptest) sorts"
    )]
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.inner.lock().index.keys().cloned().collect()
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, sorted by key.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let keys: Vec<Vec<u8>> = {
            let g = self.inner.lock();
            #[expect(clippy::disallowed_methods, reason = "sorted two lines down")]
            let mut ks: Vec<_> = g
                .index
                .keys()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect();
            ks.sort();
            ks
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
        #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
        let mut out: Vec<(Vec<u8>, u64)> = g
            .index
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, l)| (k.clone(), l.rec_len - (HEADER + k.len()) as u64))
            .collect();
        out.sort();
        out
    }

    /// Write buffered records to disk and `fsync`.
    pub fn flush(&self) -> Result<()> {
        self.inner.lock().flush(true)
    }

    /// Write buffered records to the OS without `fsync`: survives process
    /// crashes (the page cache outlives the process) but not power loss.
    /// Use [`Store::flush`] or `fsync_each_write` for the stronger contract.
    pub fn flush_buffered(&self) -> Result<()> {
        self.inner.lock().flush(false)
    }

    /// Snapshot the index + watermark into a checkpoint file, bounding the
    /// next open's replay to records appended after this call. Flushes and
    /// `fsync`s first so the watermark only covers durable bytes.
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().write_checkpoint()
    }

    /// Number of checkpoint files currently on disk.
    #[cfg(test)]
    pub(crate) fn checkpoint_count(&self) -> usize {
        let g = self.inner.lock();
        std::fs::read_dir(&g.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Drop the store *without* the clean-close flush, discarding buffered
    /// (unacknowledged) records — exactly what a process crash would do.
    /// Chaos harnesses use this to model `CrashRestart` honestly.
    pub fn abandon(self) {
        self.inner.lock().buf.clear();
    }

    /// Occupancy counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> StoreStats {
        let g = self.inner.lock();
        StoreStats {
            keys: g.index.len(),
            live_bytes: g.live_bytes,
            disk_bytes: g.seg_len.values().sum(),
            segments: g.seg_len.len(),
        }
    }

    /// Rewrite all live records into fresh segments and delete the old ones,
    /// reclaiming space held by overwritten/deleted records.
    pub fn compact(&self) -> Result<()> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        inner.flush(false)?;

        // Stream live records into fresh segments, oldest location first so
        // relative age is preserved.
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted by (segment, offset) on the next line"
        )]
        let mut locs: Vec<(Vec<u8>, Loc)> =
            inner.index.iter().map(|(k, l)| (k.clone(), *l)).collect();
        locs.sort_by_key(|(_, l)| (l.seg, l.offset));

        let old_ids: Vec<u64> = inner.seg_len.keys().copied().collect();
        let first_new = inner.active + 1;
        let mut new_index: HashMap<Vec<u8>, Loc> = HashMap::with_capacity(locs.len());
        let mut new_files = BTreeMap::new();
        let mut new_lens = BTreeMap::new();
        let mut cur = first_new;
        let mut cur_file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(seg_path(&inner.dir, cur))?;
        let mut cur_len = 0u64;
        let mut live = 0u64;
        let mut buf = Vec::new();
        for (key, loc) in locs {
            let data = inner.record_src(loc).read(loc)?;
            let (_, val, _) = parse_record(&data, 0).map_err(|detail| PStoreError::Corrupt {
                segment: loc.seg,
                offset: loc.offset,
                detail,
            })?;
            buf.clear();
            let rec_len = encode_record(&mut buf, &key, val);
            if cur_len > 0 && cur_len + rec_len > inner.opts.max_segment_bytes {
                cur_file.sync_all()?;
                new_files.insert(cur, Arc::new(cur_file));
                new_lens.insert(cur, cur_len);
                cur += 1;
                cur_file = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(seg_path(&inner.dir, cur))?;
                cur_len = 0;
            }
            cur_file.write_all(&buf)?;
            new_index.insert(
                key,
                Loc {
                    seg: cur,
                    offset: cur_len,
                    rec_len,
                },
            );
            cur_len += rec_len;
            live += rec_len;
        }
        cur_file.sync_all()?;
        new_files.insert(cur, Arc::new(cur_file));
        new_lens.insert(cur, cur_len);

        inner.index = new_index;
        inner.files = new_files;
        inner.seg_len = new_lens;
        inner.active = cur;
        inner.buf.clear();
        inner.flushed = cur_len;
        inner.live_bytes = live;
        for id in old_ids {
            let _ = std::fs::remove_file(seg_path(&inner.dir, id));
        }
        // Existing checkpoints reference the deleted segments; drop them.
        // Until the next checkpoint, recovery is a full (all-live) scan.
        inner.drop_checkpoints(u64::MAX);
        inner.since_ckpt = live;
        Ok(())
    }
}

impl Drop for Store {
    /// Clean close: write out buffered records (crash safety before this
    /// point is covered by explicit `flush`/fsync mode plus recovery).
    fn drop(&mut self) {
        let _ = self.inner.lock().flush(false);
    }
}

impl Inner {
    fn flush(&mut self, sync: bool) -> Result<()> {
        let mut f: &File = self.files.get(&self.active).unwrap();
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
        let f = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(seg_path(&self.dir, id))?;
        self.files.insert(id, Arc::new(f));
        self.seg_len.insert(id, 0);
        self.active = id;
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
    /// durable bytes), snapshot the index, write to a temp file, rename into
    /// place, then retire older checkpoint files.
    fn write_checkpoint(&mut self) -> Result<()> {
        self.flush(true)?;
        let mut body = Vec::with_capacity(CKPT_HEAD + self.index.len() * (CKPT_ENTRY + 16));
        body.extend_from_slice(&CKPT_MAGIC);
        body.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        body.extend_from_slice(&self.active.to_le_bytes());
        body.extend_from_slice(&self.flushed.to_le_bytes());
        body.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        #[expect(clippy::disallowed_methods, reason = "sorted by key on the next line")]
        let mut entries: Vec<(&Vec<u8>, &Loc)> = self.index.iter().collect();
        entries.sort_by_key(|(k, _)| k.as_slice());
        for (key, loc) in entries {
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

    /// Where the record at `loc` is right now: still in the write buffer
    /// (copied out here, under the caller's lock) or in a segment file.
    #[expect(
        clippy::indexing_slicing,
        reason = "a buffered record was appended to `buf` whole: `offset >= flushed` and `rec_len` ends inside it"
    )]
    fn record_src(&self, loc: Loc) -> RecordSrc {
        if loc.seg == self.active && loc.offset >= self.flushed {
            let start = (loc.offset - self.flushed) as usize;
            return RecordSrc::Buffered(self.buf[start..start + loc.rec_len as usize].to_vec());
        }
        let f = self.files.get(&loc.seg).expect("segment file missing");
        RecordSrc::Segment(f.clone())
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
        assert!(s.stats().segments > 1, "{:?}", s.stats());
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
            assert!(s.stats().segments >= 3);
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
    fn compaction_reclaims_space_and_preserves_data() {
        let td = TempDir::new("compact");
        let opts = StoreOptions {
            max_segment_bytes: 1024,
            ..Default::default()
        };
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        for round in 0..10u32 {
            for i in 0..20u32 {
                s.put(
                    format!("k{i}").as_bytes(),
                    format!("r{round}-{i}").as_bytes(),
                )
                .unwrap();
            }
        }
        s.delete(b"k0").unwrap();
        let before = s.stats();
        assert!(before.dead_ratio() > 0.5, "{before:?}");
        s.compact().unwrap();
        let after = s.stats();
        assert!(after.disk_bytes < before.disk_bytes / 2, "{after:?}");
        assert!(after.dead_ratio() < 0.01);
        assert_eq!(s.get(b"k0").unwrap(), None);
        for i in 1..20u32 {
            assert_eq!(
                s.get(format!("k{i}").as_bytes()).unwrap().unwrap(),
                format!("r9-{i}").as_bytes()
            );
        }
        // And it survives reopen after compaction.
        drop(s);
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 19);
        assert_eq!(s.get(b"k19").unwrap().unwrap(), b"r9-19");
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
            assert_eq!(s.checkpoint_count(), 1);
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
            ..Default::default()
        };
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        for i in 0..40u32 {
            s.put(format!("k{i}").as_bytes(), &[1u8; 32]).unwrap();
        }
        // Budget 256 with ~44-byte records: many checkpoints written, only
        // the newest retained.
        assert_eq!(s.checkpoint_count(), 1);
        drop(s);
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 40);
        assert_eq!(s.get(b"k39").unwrap().unwrap(), vec![1u8; 32]);
    }

    #[test]
    fn compaction_invalidates_checkpoints() {
        let td = TempDir::new("ckpt-compact");
        let opts = StoreOptions {
            max_segment_bytes: 512,
            ..Default::default()
        };
        let s = Store::open_with(&td.0, opts.clone()).unwrap();
        for round in 0..5u32 {
            for i in 0..10u32 {
                s.put(format!("k{i}").as_bytes(), format!("r{round}").as_bytes())
                    .unwrap();
            }
        }
        s.checkpoint().unwrap();
        s.compact().unwrap();
        // The old checkpoint referenced deleted segments; it must be gone.
        assert_eq!(s.checkpoint_count(), 0);
        drop(s);
        let s = Store::open_with(&td.0, opts).unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.get(b"k9").unwrap().unwrap(), b"r4");
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
