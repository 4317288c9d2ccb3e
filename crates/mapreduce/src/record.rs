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
//! owned records: [`RunCursor`] walks a segment as borrowed `(key, value)`
//! slices (a torn segment is a typed [`SegmentError`], never a panic or a
//! silently dropped tail), [`reduce_runs`] k-way-merges cursors and groups
//! equal keys on the fly, and [`merge_into_run`] writes the result back out
//! as a run.
//!
//! **The collector.** [`Collector`] is Hadoop's map-side buffer: records are
//! copied once into a byte arena already laid out in run format, next to a
//! fixed-size index entry (offset, lengths, the first 8 key bytes as a
//! big-endian integer). Sorting moves index entries only, and most
//! comparisons are decided by the integer prefix without touching the
//! arena; one gather pass then turns the arena into a sorted run.
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

/// Iterate complete lines of `data` (without trailing newline bytes).
/// A final unterminated line is yielded too.
pub fn lines(data: &[u8]) -> impl Iterator<Item = &[u8]> {
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

/// Append one record in run format.
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
pub type Record<'a> = (&'a [u8], &'a [u8]);

/// Borrowing cursor over one segment.
pub struct RunCursor<'a> {
    data: &'a [u8],
    pos: usize,
    run: usize,
}

impl<'a> RunCursor<'a> {
    /// `run` is only reported back in errors.
    pub fn new(run: usize, data: &'a [u8]) -> Self {
        RunCursor { data, pos: 0, run }
    }

    /// The next `(key, value)`, `None` at the end of the segment.
    pub fn next_record(&mut self) -> Result<Option<Record<'a>>, SegmentError> {
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

/// Index entry of one collected record: everything a comparison needs
/// without touching the arena unless two keys share their first 8 bytes.
#[derive(Clone, Copy)]
struct Entry {
    /// First 8 key bytes, big-endian, zero-padded. Padding can make the
    /// prefixes of different keys equal (`"a"`, `"a\0"`) but never orders
    /// them wrongly: a smaller prefix implies a smaller key.
    prefix: u64,
    /// Offset of the key in the arena (its header sits 8 bytes before).
    at: usize,
    klen: u32,
    vlen: u32,
}

/// Map-side output buffer: a byte arena in run format plus a sortable index
/// (see the module docs). Also the sink of every combine stage, where
/// records usually arrive already sorted and the arena is the run.
#[derive(Default)]
pub struct Collector {
    arena: Vec<u8>,
    index: Vec<Entry>,
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
        self.index.push(Entry {
            prefix: u64::from_be_bytes(prefix),
            at: self.arena.len() + 8,
            klen: key.len() as u32,
            vlen: value.len() as u32,
        });
        put_record(&mut self.arena, key, value);
    }

    /// The collected records as one sorted run — through `combiner`, if the
    /// job has one (a map task's published output for one partition).
    pub fn into_run(self, combiner: Option<&dyn Reducer>) -> Result<Payload, SegmentError> {
        let run = self.into_sorted_run();
        match combiner {
            Some(combiner) => merge_into_run(&[&run], Some(combiner)),
            None => Ok(Payload::from_vec(run)),
        }
    }

    /// The order is total (equal records are indistinguishable), so the
    /// unstable sorts are deterministic; records pushed in order cost no
    /// copy.
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
    #[expect(
        clippy::indexing_slicing,
        reason = "every Entry was made by `push`: `at`, `klen`, `vlen` delimit the record it appended to `arena` at `at - 8`"
    )]
    fn into_sorted_run(mut self) -> Vec<u8> {
        let arena = &self.arena;
        let key = |e: &Entry| &arena[e.at..e.at + e.klen as usize];
        let value = |e: &Entry| {
            let k = e.at + e.klen as usize;
            &arena[k..k + e.vlen as usize]
        };
        let by_value = |a: &Entry, b: &Entry| value(a).cmp(value(b));
        let by_key_value = |a: &Entry, b: &Entry| key(a).cmp(key(b)).then_with(|| by_value(a, b));
        let in_order = |a: &Entry, b: &Entry| {
            a.prefix.cmp(&b.prefix).then_with(|| by_key_value(a, b)) != Ordering::Greater
        };
        if self.index.is_sorted_by(in_order) {
            return self.arena;
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
        let mut run = Vec::with_capacity(arena.len());
        for e in &self.index {
            run.extend_from_slice(&arena[e.at - 8..e.at + e.klen as usize + e.vlen as usize]);
        }
        run
    }
}

/// Sort `run` by `cmp` unless it already is.
fn sort_unless_sorted(run: &mut [Entry], cmp: impl Fn(&Entry, &Entry) -> Ordering) {
    if !run.is_sorted_by(|a, b| cmp(a, b) != Ordering::Greater) {
        run.sort_unstable_by(cmp);
    }
}

/// K-way merge over run cursors: a heap of each run's current record,
/// ordered by `(key, value, run index)` — byte-identical to sorting the
/// concatenation. A torn run ends the stream; [`Merge::finish`] reports it.
struct Merge<'a> {
    cursors: Vec<RunCursor<'a>>,
    heap: BinaryHeap<Reverse<(Record<'a>, usize)>>,
    records: u64,
    torn: Option<SegmentError>,
}

impl<'a> Merge<'a> {
    fn new(runs: &[&'a [u8]]) -> Result<Self, SegmentError> {
        let mut cursors: Vec<RunCursor<'a>> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| RunCursor::new(i, run))
            .collect();
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            if let Some(record) = c.next_record()? {
                heap.push(Reverse((record, i)));
            }
        }
        Ok(Merge {
            cursors,
            heap,
            records: 0,
            torn: None,
        })
    }

    fn peek_key(&self) -> Option<&'a [u8]> {
        self.heap.peek().map(|Reverse(((key, _), _))| *key)
    }

    fn pop(&mut self) -> Option<Record<'a>> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((record, i)) = *top;
        match self.cursors.get_mut(i).map(RunCursor::next_record) {
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
        self.records += 1;
        Some(record)
    }

    fn finish(self) -> Result<u64, SegmentError> {
        self.torn.map_or(Ok(self.records), Err)
    }
}

/// The values of one key, served straight from the merge.
struct Group<'m, 'a> {
    merge: &'m mut Merge<'a>,
    key: &'a [u8],
}

impl<'a> Iterator for Group<'_, 'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.merge.peek_key()? != self.key {
            return None;
        }
        self.merge.pop().map(|(_, v)| v)
    }
}

/// Merge sorted runs and feed `sink` — the one group-and-reduce loop behind
/// the per-task combiner, the node combine and the final reduce. With a
/// `reducer`, equal keys form a group whose values it reads from the runs
/// in place (whatever it leaves unread is skipped) and `sink` receives its
/// emissions in emission order; without one, `sink` receives the merged
/// records. Returns the number of records read.
pub fn reduce_runs(
    runs: &[&[u8]],
    reducer: Option<&dyn Reducer>,
    sink: &mut dyn FnMut(&[u8], &[u8]),
) -> Result<u64, SegmentError> {
    let mut merge = Merge::new(runs)?;
    match reducer {
        None => {
            while let Some((k, v)) = merge.pop() {
                sink(k, v);
            }
        }
        Some(reducer) => {
            while let Some(key) = merge.peek_key() {
                let mut group = Group {
                    merge: &mut merge,
                    key,
                };
                reducer.reduce(key, &mut group, &mut |kv| sink(&kv.key, &kv.value));
                group.for_each(drop);
            }
        }
    }
    merge.finish()
}

/// [`reduce_runs`] into one new sorted run: what every stage short of the
/// final reduce does. A merge is sorted as it comes; a combiner's emissions
/// go through a [`Collector`], which re-sorts them only if they arrive out
/// of order.
pub fn merge_into_run(
    runs: &[&[u8]],
    combiner: Option<&dyn Reducer>,
) -> Result<Payload, SegmentError> {
    let run = if combiner.is_some() {
        let mut out = Collector::default();
        reduce_runs(runs, combiner, &mut |k, v| out.push(k, v))?;
        out.into_sorted_run()
    } else {
        let mut run = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
        reduce_runs(runs, None, &mut |k, v| put_record(&mut run, k, v))?;
        run
    };
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
/// ignores a torn trailing header — [`RunCursor`] reports both).
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
