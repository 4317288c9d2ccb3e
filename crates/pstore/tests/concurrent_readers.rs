//! Real threads on the store's lock-free read path.
//!
//! `get` takes the store mutex only to find a record and to copy it out of
//! the write buffer; a flushed record is read and checksummed outside the
//! mutex, from a segment handle the reader holds on its own. Here four
//! writers put and delete their own keys while segments rotate every few
//! records and checkpoints fire, and four readers `get` keys whose last op
//! has returned. Every such get must answer exactly that op's value —
//! never an older one, never an error — and a reopen afterwards must equal
//! the writers' models.
//!
//! A key's `gen` is `2 × ops done`, plus one while an op is in flight. A
//! reader checks a get only when `gen` was even before it and unchanged
//! after it: then no op on that key overlapped the get, and the answer is
//! fixed by `gen` alone.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

use pstore::{Store, StoreOptions};

const WRITERS: usize = 4;
const READERS: usize = 4;
const KEYS: usize = 8;
const OPS: u64 = 400;

const OPTS: StoreOptions = StoreOptions {
    // A put's record is 12 header bytes, a 6-byte key and an 8–103-byte
    // value, a delete's 18 bytes: a segment holds about four records.
    max_segment_bytes: 256,
    checkpoint_every_bytes: Some(2048),
};

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        let p = std::env::temp_dir().join(format!("pstore-threads-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn key(w: usize, i: usize) -> Vec<u8> {
    format!("w{w}/k{i:02}").into_bytes()
}

/// What op `n` on writer `w`'s key `i` does: `None` deletes, else it puts
/// this value (the op's number, then filler).
fn op(w: usize, i: usize, n: u64) -> Option<Vec<u8>> {
    let h = splitmix(((w * KEYS + i) as u64) << 32 | n);
    if h.is_multiple_of(5) {
        return None;
    }
    let mut v = n.to_le_bytes().to_vec();
    v.extend((0..h % 96).map(|j| (h >> (j % 8 * 8)) as u8 ^ j as u8));
    Some(v)
}

/// The value a key holds after `done` ops.
fn expected(w: usize, i: usize, done: u64) -> Option<Vec<u8>> {
    done.checked_sub(1).and_then(|n| op(w, i, n))
}

#[test]
fn readers_see_the_last_acknowledged_value_beside_writers() {
    let td = TempDir::new();
    let store = Store::open_with(&td.0, OPTS).unwrap();
    let gens: Vec<Vec<AtomicU64>> = (0..WRITERS)
        .map(|_| (0..KEYS).map(|_| AtomicU64::new(0)).collect())
        .collect();
    let done = AtomicBool::new(false);

    let checked: u64 = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, gens) = (&store, &gens[w]);
                s.spawn(move || {
                    for step in 0..OPS {
                        let i = (splitmix(1000 + w as u64 * OPS + step) % KEYS as u64) as usize;
                        let n = gens[i].load(SeqCst) / 2;
                        gens[i].store(2 * n + 1, SeqCst);
                        match op(w, i, n) {
                            Some(v) => store.put(&key(w, i), &v),
                            None => store.delete(&key(w, i)),
                        }
                        .unwrap();
                        // Some acks follow a write-out, as a provider's do;
                        // the rest leave their records in the write buffer.
                        if step.is_multiple_of(4) {
                            store.flush_buffered().unwrap();
                        }
                        gens[i].store(2 * n + 2, SeqCst);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (store, gens, done) = (&store, &gens, &done);
                s.spawn(move || {
                    let mut checked = 0u64;
                    let mut draw = 0u64;
                    while !done.load(SeqCst) {
                        draw += 1;
                        let h = splitmix(((r as u64) << 40) | draw);
                        let (w, i) = ((h % WRITERS as u64) as usize, (h >> 8) as usize % KEYS);
                        let before = gens[w][i].load(SeqCst);
                        if before % 2 == 1 {
                            continue;
                        }
                        let got = match store.get(&key(w, i)) {
                            Ok(got) => got,
                            Err(e) => panic!("w{w}/k{i} after {} ops: {e}", before / 2),
                        };
                        if gens[w][i].load(SeqCst) != before {
                            continue;
                        }
                        assert_eq!(
                            got,
                            expected(w, i, before / 2),
                            "w{w}/k{i} after {} ops",
                            before / 2
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, SeqCst);
        readers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(checked >= 100, "only {checked} gets were checked");

    let mut model = BTreeMap::new();
    for (w, keys) in gens.iter().enumerate() {
        for (i, g) in keys.iter().enumerate() {
            if let Some(v) = expected(w, i, g.load(SeqCst) / 2) {
                model.insert(key(w, i), v);
            }
        }
    }
    drop(store);
    let store = Store::open_with(&td.0, OPTS).unwrap();
    let contents: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(store.scan_prefix(b"").unwrap(), contents);
}
