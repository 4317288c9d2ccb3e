//! Record formats: newline-delimited text input (with the Hadoop
//! record-boundary rule for splits) and the binary *run format* every
//! intermediate byte of a job travels in.
//!
//! **The run format.** A *segment* is `[key_len u32 LE][val_len u32 LE]
//! [key][value]`*; a *sorted run* is a segment whose records ascend by
//! `(key, value)` — the order of `KV: Ord`. It is the ONE representation of
//! intermediate data from the map collector to the final reduce: a map task
//! emits one run per partition, the tier-2 node combine merges runs into
//! runs, the registry publishes runs, and the reducer merges fetched runs
//! straight into the user's `reduce`. Nothing in between decodes a run into
//! owned records: `RunCursor` walks a segment as borrowed `(key, value)`
//! slices (a torn segment is a typed [`SegmentError`], never a panic or a
//! silently dropped tail), [`reduce_runs`] k-way-merges cursors and groups
//! equal keys on the fly, and [`merge_into_run`] writes the result back out
//! as a run.
//!
//! **The collector.** [`Collector`] is Hadoop's map-side buffer with
//! in-mapper combining of identical records: each distinct `(key, value)` is
//! copied once into a byte arena already laid out in run format, next to a
//! fixed-size index entry (offset, key length, the first 8 key bytes as a
//! big-endian integer, and a `count` of the pushes it stands for). A push
//! finds an earlier copy through an open-addressing table over the index
//! and counts it instead of copying it. A wordcount split emits each
//! distinct record about 7 times; a join emits each once, where looking
//! would be pure cost. So the table keeps doubling only while at least 1
//! push in 8 since it last grew found a repeat; otherwise it is dropped and
//! later pushes append, a later repeat becoming one more entry. Sorting
//! moves index entries only, and most comparisons are decided by the
//! integer prefix without touching the arena. The run is byte-identical to
//! sorting every emission, because equal records are indistinguishable: a
//! gather pass writes each entry's record `count` times, and a combiner
//! reads the sorted entries in place through the same group-and-reduce
//! loop as a run, each value served `count` times. It gets the same calls
//! as over the expanded run: once per key, values in order, same
//! multiplicity.
//!
//! **Owned [`KV`]s exist only at the user-function boundary**: the mapper's
//! and reducer's `FnMut(KV)` callbacks receive them, and the engine copies
//! them into a collector or the output text at once.
//!
//! [`encode_kvs`], [`decode_kvs`], [`sort_and_group`] and
//! [`merge_sorted_runs`] are the owned-record reference implementation the
//! run path is property-tested against (`tests/run_oracle_proptest.rs`) and
//! that `benchmark/`'s `record.*` probes time; the engine no longer calls
//! them.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

use bytes::Bytes;
use fabric::Payload;

use crate::api::{Reducer, KV};

/// Parse `key TAB value` from a text line (Hadoop's
/// `KeyValueTextInputFormat`); lines without a tab map to `(line, "")`.
#[expect(clippy::indexing_slicing, reason = "`i` is a position() inside `line`")]
pub fn split_tab(line: &[u8]) -> (&[u8], &[u8]) {
    match line.iter().position(|&b| b == b'\t') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => (line, &[][..]),
    }
}

/// Iterate the non-empty lines of `data`, without their newline bytes:
/// empty lines are skipped, a final unterminated line is yielded. The
/// reference that [`split_records`] is checked against.
#[cfg(test)]
pub(crate) fn lines(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    data.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

/// Extract the records of a *split* per Hadoop's `LineRecordReader` rule:
/// a non-first split discards everything through the first newline (the
/// tail of a record owned by its predecessor — or a whole record that
/// started exactly at the boundary), then consumes records as long as they
/// *start at or before* the split end. Net effect: a record starting at
/// offset `o` belongs to the split `[s, e)` with `s < o <= e` (offset 0 to
/// the first split), so every record is owned exactly once for any split
/// size.
///
/// `window` must hold the file bytes from `start` through at least the end
/// of the last owned record (callers over-read past the split end).
#[expect(
    clippy::indexing_slicing,
    reason = "`pos < window.len()` is the loop condition and `i` is a position() inside `rest`"
)]
pub fn split_records(window: &[u8], start: u64, len: u64) -> Vec<&[u8]> {
    let mut pos: usize = if start == 0 {
        0
    } else {
        match window.iter().position(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => return Vec::new(), // no record boundary in the window
        }
    };
    let mut out = Vec::new();
    while (pos as u64) <= len && pos < window.len() {
        let rest = &window[pos..];
        let (line, consumed) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], i + 1),
            None => (rest, rest.len()),
        };
        if !line.is_empty() {
            out.push(line);
        }
        pos += consumed;
    }
    out
}

/// Refuse a record the run format cannot carry: its length fields are
/// `u32`s, and a longer key or value would get a header that misdescribes
/// it. As in `pstore`'s records, a field holds under `u32::MAX` bytes.
pub(crate) fn check_fits(key_len: usize, value_len: usize) -> Result<(), String> {
    for (what, len) in [("key", key_len), ("value", value_len)] {
        if len >= u32::MAX as usize {
            return Err(format!("{what} of {len} bytes does not fit the run format"));
        }
    }
    Ok(())
}

/// Append one record in run format (see [`check_fits`]).
fn put_record(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
    buf.extend_from_slice(key);
    buf.extend_from_slice(value);
}

/// Append one record as `key TAB value NL` text (job output format).
pub fn put_text(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    buf.extend_from_slice(key);
    buf.push(b'\t');
    buf.extend_from_slice(value);
    buf.push(b'\n');
}

/// A segment that does not parse: the record at byte `at` of run `run`
/// needs `need` bytes (8 when not even its header fits) but the segment
/// ends at `len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentError {
    /// Position of the torn run in the caller's run list.
    pub run: usize,
    pub at: usize,
    pub need: usize,
    pub len: usize,
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "torn segment: record at byte {} needs {} bytes, segment ends at {}",
            self.at, self.need, self.len
        )
    }
}

/// A `(key, value)` borrowed from the segment that holds it.
pub(crate) type Record<'a> = (&'a [u8], &'a [u8]);

/// Borrowing cursor over one segment.
pub(crate) struct RunCursor<'a> {
    data: &'a [u8],
    pos: usize,
    run: usize,
}

impl<'a> RunCursor<'a> {
    /// `run` is only reported back in errors.
    pub(crate) fn new(run: usize, data: &'a [u8]) -> Self {
        RunCursor { data, pos: 0, run }
    }

    /// The next `(key, value)`, `None` at the end of the segment.
    pub(crate) fn next_record(&mut self) -> Result<Option<Record<'a>>, SegmentError> {
        let rest = self.data.get(self.pos..).unwrap_or_default();
        if rest.is_empty() {
            return Ok(None);
        }
        let torn = |need| SegmentError {
            run: self.run,
            at: self.pos,
            need,
            len: self.data.len(),
        };
        let len_at = |at: usize| {
            let field: [u8; 4] = rest.get(at..at + 4)?.try_into().ok()?;
            Some(u32::from_le_bytes(field) as usize)
        };
        let (Some(klen), Some(vlen)) = (len_at(0), len_at(4)) else {
            return Err(torn(8));
        };
        let need = 8 + klen + vlen;
        let (Some(key), Some(value)) = (rest.get(8..8 + klen), rest.get(8 + klen..need)) else {
            return Err(torn(need));
        };
        self.pos += need;
        Ok(Some((key, value)))
    }
}

/// Index entry of one distinct collected record: everything a comparison
/// needs without touching the arena unless two keys share their first 8
/// bytes, and how many pushes the record stands for. 24 bytes: the value
/// length is read from the record's header in the arena, which every value
/// comparison reads next to anyway.
#[derive(Clone, Copy)]
struct Entry {
    /// First 8 key bytes, big-endian, zero-padded. Padding can make the
    /// prefixes of different keys equal (`"a"`, `"a\0"`) but never orders
    /// them wrongly: a smaller prefix implies a smaller key.
    prefix: u64,
    /// Offset of the key in the arena (its header sits 8 bytes before).
    at: usize,
    klen: u32,
    /// Pushes of this `(key, value)` the entry stands for.
    count: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

#[expect(
    clippy::indexing_slicing,
    reason = "every Entry was made by `Collector::push`: `at` and `klen` delimit the key it appended to `arena` at `at`, after the header whose last 4 bytes are the value length"
)]
impl Entry {
    fn key<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at..self.at + self.klen as usize]
    }

    /// One past the record's last byte.
    fn end(&self, arena: &[u8]) -> usize {
        let mut vlen = [0u8; 4];
        vlen.copy_from_slice(&arena[self.at - 4..self.at]);
        self.at + self.klen as usize + u32::from_le_bytes(vlen) as usize
    }

    fn value<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at + self.klen as usize..self.end(arena)]
    }

    /// The record in run format, header included.
    fn bytes<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at - 8..self.end(arena)]
    }

    /// Whether this is the record `(key, value)` whose key starts `prefix`.
    /// A key of at most 8 bytes is its prefix and its length.
    fn holds(&self, arena: &[u8], prefix: u64, key: &[u8], value: &[u8]) -> bool {
        self.prefix == prefix
            && self.klen as usize == key.len()
            && (key.len() <= 8 || self.key(arena) == key)
            && self.value(arena) == value
    }
}

/// A 32-bit hash of a record: its lengths, its key prefix, then the rest
/// of the key and the value 8 bytes at a time. Equal records hash equal; a
/// hit is confirmed on the bytes.
fn hash_record(prefix: u64, key: &[u8], value: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let lens = (key.len() as u64) << 32 | value.len() as u64;
    let rest = key
        .get(8..)
        .unwrap_or_default()
        .chunks(8)
        .chain(value.chunks(8));
    let h = rest.fold(mix(lens, prefix), |h, chunk| {
        mix(h, chunk.iter().fold(0, |w, &b| w << 8 | u64::from(b)))
    });
    (h >> 32) as u32
}

/// The repeat table starts with this many slots.
const FIRST_SLOTS: usize = 512;
/// The table stops growing here (positions come from a 32-bit hash, and an
/// entry's number must fit a `u32`).
const MAX_SLOTS: usize = 1 << 31;

/// Where [`Collector::push`] finds an earlier copy of a record: open
/// addressing with linear probing over the index, at most half full.
#[derive(Default)]
struct Repeats {
    /// `(hash, entry + 1)`; entry 0 marks an empty slot. The length is 0 or
    /// a power of two.
    slots: Vec<(u32, u32)>,
    /// Pushes, and pushes that found a repeat, since the table last grew.
    pushes: u64,
    found: u64,
}

#[expect(
    clippy::indexing_slicing,
    reason = "a position is `home` (below the length) or masked by the length minus 1, a power of two"
)]
impl Repeats {
    /// The first slot to try for `hash`: its high bits scaled to the table.
    fn home(hash: u32, len: usize) -> usize {
        ((u64::from(hash) * len as u64) >> 32) as usize
    }

    /// Make room for entry number `entries`, doubling the table when it is
    /// half full, but only if at least 1 push in 8 since the last doubling
    /// found a repeat. `false`: repeats are too rare to keep looking.
    fn reserve(&mut self, entries: usize) -> bool {
        if entries < self.slots.len() / 2 {
            return true;
        }
        if !self.slots.is_empty() && (self.found * 8 < self.pushes || self.slots.len() >= MAX_SLOTS)
        {
            return false;
        }
        let mut grown = Repeats {
            slots: vec![(0, 0); (self.slots.len() * 2).max(FIRST_SLOTS)],
            pushes: 0,
            found: 0,
        };
        for &(hash, entry) in self.slots.iter().filter(|(_, entry)| *entry != 0) {
            let (pos, _) = grown.probe(hash, |_| false);
            grown.slots[pos] = (hash, entry);
        }
        *self = grown;
        true
    }

    /// The slot of the entry with `hash` that is `same`, or the empty slot
    /// where it would go.
    fn probe(&self, hash: u32, same: impl Fn(usize) -> bool) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut pos = Self::home(hash, self.slots.len());
        loop {
            match self.slots[pos] {
                (_, 0) => return (pos, None),
                (h, entry) if h == hash && same(entry as usize - 1) => {
                    return (pos, Some(entry as usize - 1))
                }
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    fn set(&mut self, pos: usize, hash: u32, entry: usize) {
        self.slots[pos] = (hash, entry as u32 + 1);
    }
}

/// Map-side output buffer: each distinct `(key, value)` once in a byte
/// arena in run format, plus a sortable index whose entries count the
/// record's pushes. A push looks for an earlier copy only while that pays:
/// once fewer than 1 push in 8 since the table last doubled found one, the
/// table is dropped and pushes append (a constant read off the input, not
/// an option). The run is the one every push sorted would make, since
/// equal records are indistinguishable, and a combiner reads the counts in
/// place through the same loop as [`reduce_runs`] (see the module docs).
/// Also the sink of every combine stage, where records usually arrive
/// already sorted and the arena is the run.
pub struct Collector {
    arena: Vec<u8>,
    index: Vec<Entry>,
    /// `None` once repeats proved too rare to look for.
    repeats: Option<Repeats>,
    /// Length of the run the collected records make, repeats included.
    run_len: usize,
}

impl Default for Collector {
    fn default() -> Self {
        Collector {
            arena: Vec::new(),
            index: Vec::new(),
            repeats: Some(Repeats::default()),
            run_len: 0,
        }
    }
}

impl Collector {
    #[expect(
        clippy::indexing_slicing,
        reason = "`n` is min(key.len(), 8): inside `key` and inside the 8-byte prefix"
    )]
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let mut prefix = [0u8; 8];
        let n = key.len().min(8);
        prefix[..n].copy_from_slice(&key[..n]);
        let prefix = u64::from_be_bytes(prefix);
        let entry = self.index.len();
        self.run_len += 8 + key.len() + value.len();
        if self.repeats.as_mut().is_some_and(|r| !r.reserve(entry)) {
            self.repeats = None;
        }
        if let Some(repeats) = &mut self.repeats {
            let hash = hash_record(prefix, key, value);
            let (arena, index) = (&self.arena, &self.index);
            let (pos, found) = repeats.probe(hash, |i| {
                index
                    .get(i)
                    .is_some_and(|e| e.holds(arena, prefix, key, value))
            });
            repeats.pushes += 1;
            if let Some(e) = found.and_then(|i| self.index.get_mut(i)) {
                if e.count < u32::MAX {
                    e.count += 1;
                    repeats.found += 1;
                    return;
                }
            }
            // New, or its entry's count is full: the slot takes this one.
            repeats.set(pos, hash, entry);
        }
        self.index.push(Entry {
            prefix,
            at: self.arena.len() + 8,
            klen: key.len() as u32,
            count: 1,
        });
        put_record(&mut self.arena, key, value);
    }

    /// The collected records as one sorted run — through `combiner`, if the
    /// job has one (a map task's published output for one partition). The
    /// combiner reads the sorted index in place: each value `count` times,
    /// never an expanded run.
    pub fn into_run(mut self, combiner: Option<&dyn Reducer>) -> Result<Payload, SegmentError> {
        let Some(combiner) = combiner else {
            return Ok(Payload::from_vec(self.into_sorted_run()));
        };
        self.sort_index();
        let source = Counted {
            arena: &self.arena,
            entries: self.index.iter(),
            count: 0,
        };
        combine_into_run(Merge::new(vec![source])?, combiner)
    }

    /// The sorted run: each entry's record written `count` times, or the
    /// arena itself when it already is the run (records pushed in order,
    /// none repeated).
    fn into_sorted_run(mut self) -> Vec<u8> {
        if self.sort_index() && self.run_len == self.arena.len() {
            return self.arena;
        }
        let mut run = Vec::with_capacity(self.run_len);
        for e in &self.index {
            let record = e.bytes(&self.arena);
            for _ in 0..e.count {
                run.extend_from_slice(record);
            }
        }
        run
    }

    /// Sort the index by `(key, value)`; returns whether it already was.
    /// The order is total (equal records are indistinguishable), so the
    /// unstable sorts are deterministic.
    ///
    /// The sort compares integers first: `(prefix, min(klen, 9))` orders
    /// any two keys that differ in their first 8 bytes or in their length
    /// below 9. Two keys under 9 bytes with equal ranks are equal: the key is
    /// its padded prefix, and the length says how much of the padding is key.
    /// So one pass over runs of equal rank finishes the job, reading the
    /// arena only inside a run: by value for a run of one short key, by
    /// `(key, value)` for a run of long keys. The clamp at 9 keeps every
    /// long key with a shared prefix in one run (`"12345678ab"` sorts before
    /// `"12345678z"`, though it is longer).
    fn sort_index(&mut self) -> bool {
        let arena = &self.arena;
        let by_value = |a: &Entry, b: &Entry| a.value(arena).cmp(b.value(arena));
        let by_key_value =
            |a: &Entry, b: &Entry| a.key(arena).cmp(b.key(arena)).then_with(|| by_value(a, b));
        let in_order = |a: &Entry, b: &Entry| {
            a.prefix.cmp(&b.prefix).then_with(|| by_key_value(a, b)) != Ordering::Greater
        };
        if self.index.is_sorted_by(in_order) {
            return true;
        }
        let rank = |e: &Entry| (e.prefix, e.klen.min(9));
        self.index.sort_unstable_by_key(rank);
        for run in self.index.chunk_by_mut(|a, b| rank(a) == rank(b)) {
            if run.first().is_some_and(|e| e.klen < 9) {
                sort_unless_sorted(run, by_value);
            } else {
                sort_unless_sorted(run, by_key_value);
            }
        }
        false
    }
}

/// Sort `run` by `cmp` unless it already is.
fn sort_unless_sorted(run: &mut [Entry], cmp: impl Fn(&Entry, &Entry) -> Ordering) {
    if !run.is_sorted_by(|a, b| cmp(a, b) != Ordering::Greater) {
        run.sort_unstable_by(cmp);
    }
}

/// A stream of records in `(key, value)` order, each repeated some number
/// of times: what [`Merge`] merges.
trait Source<'a> {
    fn next(&mut self) -> Result<Option<Record<'a>>, SegmentError>;
    /// How many times the record `next` returned last repeats.
    fn count(&self) -> u32;
}

/// A run holds every repeat as its own record.
impl<'a> Source<'a> for RunCursor<'a> {
    fn next(&mut self) -> Result<Option<Record<'a>>, SegmentError> {
        self.next_record()
    }

    fn count(&self) -> u32 {
        1
    }
}

/// A collector's sorted index, read in place.
struct Counted<'a> {
    arena: &'a [u8],
    entries: std::slice::Iter<'a, Entry>,
    count: u32,
}

impl<'a> Source<'a> for Counted<'a> {
    fn next(&mut self) -> Result<Option<Record<'a>>, SegmentError> {
        let Some(e) = self.entries.next() else {
            return Ok(None);
        };
        self.count = e.count;
        Ok(Some((e.key(self.arena), e.value(self.arena))))
    }

    fn count(&self) -> u32 {
        self.count
    }
}

/// K-way merge over sources: a heap of each source's current record,
/// ordered by `(key, value, source index)` — byte-identical to sorting the
/// concatenation. A torn run ends the stream; [`Merge::finish`] reports it.
struct Merge<'a, S> {
    sources: Vec<S>,
    heap: BinaryHeap<Reverse<(Record<'a>, usize)>>,
    records: u64,
    torn: Option<SegmentError>,
}

impl<'a> Merge<'a, RunCursor<'a>> {
    fn of_runs(runs: &[&'a [u8]]) -> Result<Self, SegmentError> {
        Self::new(
            runs.iter()
                .enumerate()
                .map(|(i, run)| RunCursor::new(i, run))
                .collect(),
        )
    }
}

impl<'a, S: Source<'a>> Merge<'a, S> {
    fn new(mut sources: Vec<S>) -> Result<Self, SegmentError> {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some(record) = s.next()? {
                heap.push(Reverse((record, i)));
            }
        }
        Ok(Merge {
            sources,
            heap,
            records: 0,
            torn: None,
        })
    }

    fn peek_key(&self) -> Option<&'a [u8]> {
        self.heap.peek().map(|Reverse(((key, _), _))| *key)
    }

    /// The next record and how many times it repeats.
    fn pop(&mut self) -> Option<(Record<'a>, u32)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((record, i)) = *top;
        let count = self.sources.get(i).map_or(1, S::count);
        match self.sources.get_mut(i).map(S::next) {
            // Replacing the top in place sifts once instead of pop + push.
            Some(Ok(Some(next))) => *top = Reverse((next, i)),
            Some(Err(e)) => {
                drop(top);
                self.torn = Some(e);
                self.heap.clear();
            }
            _ => {
                PeekMut::pop(top);
            }
        }
        self.records += u64::from(count);
        Some((record, count))
    }

    fn finish(self) -> Result<u64, SegmentError> {
        self.torn.map_or(Ok(self.records), Err)
    }
}

/// The values of one key, served straight from the merge: a value that
/// repeats is served again from where it is, `left` more times.
struct Group<'m, 'a, S> {
    merge: &'m mut Merge<'a, S>,
    key: &'a [u8],
    value: &'a [u8],
    left: u32,
}

impl<'a, S: Source<'a>> Iterator for Group<'_, 'a, S> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left > 0 {
            self.left -= 1;
            return Some(self.value);
        }
        if self.merge.peek_key()? != self.key {
            return None;
        }
        let ((_, value), count) = self.merge.pop()?;
        self.value = value;
        self.left = count - 1;
        Some(value)
    }
}

/// Merge sorted runs and feed `sink` — the one group-and-reduce loop behind
/// the per-task combiner (which reads a [`Collector`]'s counted records the
/// same way), the node combine and the final reduce. With a `reducer`,
/// equal keys form a group whose values it reads from the runs in place
/// (whatever it leaves unread is skipped) and `sink` receives its emissions
/// in emission order; without one, `sink` receives the merged records.
/// Returns the number of records read.
pub fn reduce_runs(
    runs: &[&[u8]],
    reducer: Option<&dyn Reducer>,
    sink: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<u64, SegmentError> {
    reduce_merge(Merge::of_runs(runs)?, reducer, sink)
}

/// [`reduce_runs`] over any sources: a record that repeats is read `count`
/// times, as if it were that many records of a run.
fn reduce_merge<'a, S: Source<'a>>(
    mut merge: Merge<'a, S>,
    reducer: Option<&dyn Reducer>,
    sink: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<u64, SegmentError> {
    match reducer {
        None => {
            while let Some(((k, v), count)) = merge.pop() {
                for _ in 0..count {
                    sink(k, v);
                }
            }
        }
        Some(reducer) => {
            while let Some(key) = merge.peek_key() {
                let mut group = Group {
                    merge: &mut merge,
                    key,
                    value: &[],
                    left: 0,
                };
                reducer.reduce(key, &mut group, &mut |kv| sink(&kv.key, &kv.value));
                // Skip what the reducer left unread, a value's repeats at once.
                group.left = 0;
                group.for_each(drop);
            }
        }
    }
    merge.finish()
}

/// `merge` through `combiner` into one new sorted run: the combiner's
/// emissions go through a [`Collector`], which re-sorts them only if they
/// arrive out of order.
fn combine_into_run<'a, S: Source<'a>>(
    merge: Merge<'a, S>,
    combiner: &dyn Reducer,
) -> Result<Payload, SegmentError> {
    let mut out = Collector::default();
    reduce_merge(merge, Some(combiner), &mut |k, v| out.push(k, v))?;
    Ok(Payload::from_vec(out.into_sorted_run()))
}

/// [`reduce_runs`] into one new sorted run: what every stage short of the
/// final reduce does. A merge is sorted as it comes; a combiner's emissions
/// are collected and sorted as in [`Collector::into_run`].
pub fn merge_into_run(
    runs: &[&[u8]],
    combiner: Option<&dyn Reducer>,
) -> Result<Payload, SegmentError> {
    if let Some(combiner) = combiner {
        return combine_into_run(Merge::of_runs(runs)?, combiner);
    }
    let mut run = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    reduce_runs(runs, None, &mut |k, v| put_record(&mut run, k, v))?;
    Ok(Payload::from_vec(run))
}

/// Reference encoder of the run format.
pub fn encode_kvs(kvs: &[KV]) -> Payload {
    let total: usize = kvs.iter().map(|kv| 8 + kv.key.len() + kv.value.len()).sum();
    let mut buf = Vec::with_capacity(total);
    for kv in kvs {
        put_record(&mut buf, &kv.key, &kv.value);
    }
    Payload::from_vec(buf)
}

/// Reference decoder of the run format (panics on a torn record and
/// ignores a torn trailing header — `RunCursor` reports both).
#[expect(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    reason = "reference decoder, documented to panic on a torn record: the header is read under `pos + 8 <= len`, the body after the assert"
)]
pub fn decode_kvs(data: &Bytes) -> Vec<KV> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let klen = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        pos += 8;
        assert!(pos + klen + vlen <= data.len(), "torn intermediate record");
        out.push(KV {
            key: data[pos..pos + klen].to_vec(),
            value: data[pos + klen..pos + klen + vlen].to_vec(),
        });
        pos += klen + vlen;
    }
    out
}

/// Reference grouping: sort records by key (then value, for determinism)
/// and group equal keys.
pub fn sort_and_group(mut kvs: Vec<KV>) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
    kvs.sort();
    let mut out: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
    for kv in kvs {
        match out.last_mut() {
            Some((k, vals)) if *k == kv.key => vals.push(kv.value),
            _ => out.push((kv.key, vec![kv.value])),
        }
    }
    out
}

/// Reference k-way merge of sorted owned runs into one fully
/// `(key, value)`-sorted stream. Equal records tie-break by run index, so
/// the result is deterministic and byte-identical to `sort`ing the
/// concatenation (KV ordering is total: key, then value).
pub fn merge_sorted_runs(runs: Vec<Vec<KV>>) -> Vec<KV> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<KV>> = runs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<(KV, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some(kv) = it.next() {
            heap.push(Reverse((kv, i)));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((kv, i))) = heap.pop() {
        if let Some(next) = iters.get_mut(i).and_then(Iterator::next) {
            heap.push(Reverse((next, i)));
        }
        out.push(kv);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab_splitting() {
        assert_eq!(split_tab(b"k\tv"), (&b"k"[..], &b"v"[..]));
        assert_eq!(split_tab(b"k\tv\tw"), (&b"k"[..], &b"v\tw"[..]));
        assert_eq!(split_tab(b"plain"), (&b"plain"[..], &b""[..]));
    }

    #[test]
    fn kv_codec_roundtrip() {
        let kvs = vec![
            KV::new("a", "1"),
            KV::new("", ""),
            KV::new("key with spaces", "value\twith\ttabs"),
        ];
        let enc = encode_kvs(&kvs);
        let dec = decode_kvs(enc.bytes());
        assert_eq!(dec, kvs);
    }

    #[test]
    fn grouping_merges_equal_keys() {
        let kvs = vec![
            KV::new("b", "2"),
            KV::new("a", "1"),
            KV::new("b", "1"),
            KV::new("a", "0"),
        ];
        let grouped = sort_and_group(kvs);
        assert_eq!(
            grouped,
            vec![
                (b"a".to_vec(), vec![b"0".to_vec(), b"1".to_vec()]),
                (b"b".to_vec(), vec![b"1".to_vec(), b"2".to_vec()]),
            ]
        );
    }

    #[test]
    fn split_records_cover_file_exactly_once() {
        // The Hadoop invariant: any split size covers every record exactly
        // once across all splits.
        let file = b"one\ntwo\nthree\nfour\nfive\nsix7890\nlast";
        for split_len in [5u64, 7, 10, 13, 100] {
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut start = 0u64;
            while start < file.len() as u64 {
                let len = split_len.min(file.len() as u64 - start);
                let window = &file[start as usize..];
                for r in split_records(window, start, len) {
                    got.push(r.to_vec());
                }
                start += len;
            }
            let want: Vec<Vec<u8>> = lines(file).map(|l| l.to_vec()).collect();
            assert_eq!(got, want, "split_len={split_len}");
        }
    }

    #[test]
    fn merge_sorted_runs_matches_global_sort() {
        // Byte-identity contract: merging sorted runs must equal sorting the
        // concatenation, for any run shapes (incl. empty runs / no runs).
        let cases: Vec<Vec<Vec<KV>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![KV::new("a", "1")], vec![]],
            vec![
                vec![KV::new("a", "1"), KV::new("c", "3")],
                vec![KV::new("a", "0"), KV::new("b", "2")],
                vec![KV::new("c", "1"), KV::new("c", "2")],
            ],
            vec![
                vec![KV::new("x", "1"), KV::new("x", "1")],
                vec![KV::new("x", "1")],
            ],
        ];
        for runs in cases {
            let mut flat: Vec<KV> = runs.iter().flatten().cloned().collect();
            flat.sort();
            let mut sorted_runs = runs;
            for r in &mut sorted_runs {
                r.sort();
            }
            assert_eq!(merge_sorted_runs(sorted_runs), flat);
        }
    }

    fn cursor_records(data: &[u8]) -> Result<Vec<KV>, SegmentError> {
        let mut c = RunCursor::new(3, data);
        let mut out = Vec::new();
        while let Some((k, v)) = c.next_record()? {
            out.push(KV::new(k, v));
        }
        Ok(out)
    }

    #[test]
    fn cursor_reads_what_the_encoder_wrote_and_rejects_every_truncation() {
        let kvs = vec![KV::new("a", "1"), KV::new("", ""), KV::new("long key", "v")];
        let enc = encode_kvs(&kvs);
        let enc = enc.bytes();
        assert_eq!(cursor_records(enc), Ok(kvs.clone()));
        // Record boundaries: a cut there is a shorter, valid segment; a cut
        // anywhere else is an error naming the torn record.
        let starts = [0usize, 10, 18, enc.len()];
        for cut in 0..enc.len() {
            let got = cursor_records(&enc[..cut]);
            match starts.iter().position(|&s| s == cut) {
                Some(n) => assert_eq!(got, Ok(kvs[..n].to_vec()), "cut={cut}"),
                None => {
                    let at = *starts.iter().rfind(|&&s| s < cut).unwrap();
                    let next = *starts.iter().find(|&&s| s > cut).unwrap();
                    let need = if cut - at < 8 { 8 } else { next - at };
                    let want = SegmentError {
                        run: 3,
                        at,
                        need,
                        len: cut,
                    };
                    assert_eq!(got, Err(want), "cut={cut}");
                }
            }
        }
    }

    #[test]
    fn cursor_rejects_a_length_pointing_past_the_end() {
        let mut seg = encode_kvs(&[KV::new("k", "v"), KV::new("x", "y")])
            .bytes()
            .to_vec();
        // Second record's value length claims 4 GiB.
        seg[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = cursor_records(&seg).unwrap_err();
        assert_eq!((err.at, err.len), (10, 20));
        assert_eq!(err.need, 8 + 1 + u32::MAX as usize);
        assert!(reduce_runs(&[&seg], None, &mut |_, _| {}).is_err());
        assert!(err.to_string().contains("record at byte 10"), "{err}");
    }

    #[test]
    fn collector_sorts_by_prefix_then_key_then_value() {
        // "a" and "a\0" share a padded prefix; the "12345678…" keys agree
        // through byte 8, and "12345678ab" sorts before the shorter
        // "12345678z".
        let keys: [&[u8]; 8] = [
            b"12345678z",
            b"a\0",
            b"",
            b"a",
            b"12345678",
            b"12345678a",
            b"12345678ab",
            b"12345678\0",
        ];
        let mut c = Collector::default();
        let mut want = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            for v in [b"2", b"1"] {
                c.push(k, v);
                want.push(KV::new(*k, *v));
            }
            c.push(k, &[i as u8]);
            want.push(KV::new(*k, [i as u8]));
        }
        want.sort();
        assert_eq!(&c.into_sorted_run()[..], &encode_kvs(&want).bytes()[..]);
    }

    #[test]
    fn records_pushed_in_order_with_repeats_are_expanded() {
        let mut c = Collector::default();
        let mut want = Vec::new();
        for (k, v, n) in [("a", "1", 3), ("b", "1", 1), ("b", "2", 2)] {
            for _ in 0..n {
                c.push(k.as_bytes(), v.as_bytes());
                want.push(KV::new(k, v));
            }
        }
        // Three distinct records, each stored once, in order.
        assert_eq!((c.index.len(), c.arena.len()), (3, 30));
        assert_eq!(&c.into_sorted_run()[..], &encode_kvs(&want).bytes()[..]);
    }

    #[test]
    fn lengths_the_run_header_cannot_carry_are_refused() {
        let max = u32::MAX as usize;
        assert_eq!(check_fits(0, max - 1), Ok(()));
        assert_eq!(check_fits(max - 1, 0), Ok(()));
        for len in [max, max + 1, usize::MAX] {
            assert_eq!(
                check_fits(len, 1),
                Err(format!("key of {len} bytes does not fit the run format"))
            );
            assert_eq!(
                check_fits(1, len),
                Err(format!("value of {len} bytes does not fit the run format"))
            );
        }
    }

    #[test]
    fn reduce_runs_groups_across_runs_and_skips_unread_values() {
        let a = encode_kvs(&[KV::new("a", "1"), KV::new("b", "1"), KV::new("b", "3")]);
        let b = encode_kvs(&[KV::new("b", "2"), KV::new("c", "9")]);
        let first_only =
            |key: &[u8], vals: &mut dyn Iterator<Item = &[u8]>, out: &mut dyn FnMut(KV)| {
                out(KV::new(key, vals.next().unwrap()));
            };
        let mut got = Vec::new();
        let read = reduce_runs(
            &[a.bytes(), &[], b.bytes()],
            Some(&first_only),
            &mut |k, v| got.push(KV::new(k, v)),
        );
        assert_eq!(read, Ok(5));
        assert_eq!(
            got,
            vec![KV::new("a", "1"), KV::new("b", "1"), KV::new("c", "9")]
        );
    }

    #[test]
    fn text_rendering() {
        let mut out = Vec::new();
        put_text(&mut out, b"k", b"v");
        put_text(&mut out, b"x", b"y");
        assert_eq!(out, b"k\tv\nx\ty\n");
    }
}
