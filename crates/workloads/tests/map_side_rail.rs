//! Rail for the map-side collector at the scale of a real split: what a map
//! task publishes per partition for three 1 MiB inputs, pinned to literals
//! (run length and a 64-bit FNV-1a digest of the run bytes).
//!
//! * a Zipf wordcount split (≈ 220 K emissions, each distinct record
//!   repeated ≈ 7 times per partition), without the combiner;
//! * the same split through the wordcount combiner;
//! * a datajoin-shaped split in which every record is distinct.
//!
//! The map side is `run_map_task`'s: `split_records` → `split_tab` → the
//! user's `map_into` → `partition_for` over 2 reducers → one `Collector` per
//! partition → `into_run`. The run format is the contract every later stage
//! reads, so these bytes may not move when the collector's internals do.
//! `run_oracle_proptest` checks the same contract on small inputs; this
//! rail reaches the collector's behaviour that only shows at thousands of
//! distinct records. The input generators live here, not in a shared
//! helper, because the literals depend on every byte they produce.

use std::collections::BTreeSet;

use fabric::Payload;
use mapreduce::record::{split_records, split_tab, Collector};
use mapreduce::{partition_for, UserFns};

const REDUCERS: u32 = 2;

/// A small xorshift64 generator: the inputs are fixed by the seed alone.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `bytes` of Zipf(1) text over `vocabulary` words `w<rank>`, 12 per line
/// (the shape of the benchmark's `live_wordcount` input).
fn zipf_text(bytes: usize, vocabulary: usize, seed: u64) -> Vec<u8> {
    let mut cdf = Vec::with_capacity(vocabulary);
    let mut acc = 0.0;
    for r in 1..=vocabulary {
        acc += 1.0 / r as f64;
        cdf.push(acc);
    }
    let mut rng = XorShift(seed | 1);
    let mut out = Vec::with_capacity(bytes + 128);
    let mut in_line = 0;
    while out.len() < bytes || in_line != 0 {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * acc;
        let rank = cdf.partition_point(|&c| c < u).min(vocabulary - 1);
        out.extend_from_slice(format!("w{rank}").as_bytes());
        in_line = (in_line + 1) % 12;
        out.push(if in_line == 0 { b'\n' } else { b' ' });
    }
    out
}

/// `bytes` of `user_NNNNNN TAB a:artist_NNNNN,<serial>` lines: keys repeat
/// over 20 000 users, and the serial makes every record distinct.
fn distinct_join_text(bytes: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift(seed | 1);
    let mut out = Vec::with_capacity(bytes + 64);
    let mut serial = 0u64;
    while out.len() < bytes {
        let user = rng.next() % 20_000;
        let artist = rng.next() % 100_000;
        out.extend_from_slice(
            format!("user_{user:06}\ta:artist_{artist:05},{serial}\n").as_bytes(),
        );
        serial += 1;
    }
    out
}

/// One partition's published run, with the emissions and distinct
/// `(key, value)` records that went into it.
#[derive(Debug, PartialEq, Eq)]
struct Partition {
    emissions: usize,
    distinct: usize,
    run_len: u64,
    fnv: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn map_side(text: &[u8], fns: &UserFns, combine: bool) -> Vec<Partition> {
    let mut collectors: Vec<Collector> = (0..REDUCERS).map(|_| Collector::default()).collect();
    let mut emissions = vec![0usize; REDUCERS as usize];
    let mut distinct = vec![BTreeSet::new(); REDUCERS as usize];
    for line in split_records(text, 0, text.len() as u64) {
        let (k, v) = split_tab(line);
        fns.mapper.map_into(k, v, &mut |key, value| {
            let i = partition_for(key, REDUCERS) as usize;
            collectors[i].push(key, value);
            emissions[i] += 1;
            distinct[i].insert((key.to_vec(), value.to_vec()));
        });
    }
    let combiner = if combine {
        fns.combiner.as_deref()
    } else {
        None
    };
    collectors
        .into_iter()
        .zip(emissions)
        .zip(distinct)
        .map(|((c, emissions), distinct)| {
            let run: Payload = c.into_run(combiner).unwrap();
            Partition {
                emissions,
                distinct: distinct.len(),
                run_len: run.len(),
                fnv: fnv1a(run.bytes()),
            }
        })
        .collect()
}

fn partition(emissions: usize, distinct: usize, run_len: u64, fnv: u64) -> Partition {
    Partition {
        emissions,
        distinct,
        run_len,
        fnv,
    }
}

#[test]
fn zipf_wordcount_split_without_combiner_is_pinned() {
    let text = zipf_text(1 << 20, 50_000, 1);
    let got = map_side(&text, &workloads::wordcount::user_fns(), false);
    assert_eq!(
        got,
        vec![
            partition(115_940, 14_978, 1_469_884, 16_455_025_967_373_355_451),
            partition(103_828, 15_041, 1_336_872, 3_059_016_979_969_763_845),
        ]
    );
}

#[test]
fn zipf_wordcount_split_through_the_combiner_is_pinned() {
    let text = zipf_text(1 << 20, 50_000, 1);
    let got = map_side(&text, &workloads::wordcount::user_fns(), true);
    assert_eq!(
        got,
        vec![
            partition(115_940, 14_978, 220_507, 12_525_145_288_405_413_926),
            partition(103_828, 15_041, 221_462, 9_062_007_759_775_766_029),
        ]
    );
}

#[test]
fn distinct_datajoin_split_is_pinned() {
    let text = distinct_join_text(1 << 20, 7);
    let got = map_side(&text, &workloads::datajoin::user_fns(), false);
    assert_eq!(
        got,
        vec![
            partition(16_054, 16_054, 620_656, 16_995_708_882_500_580_043),
            partition(16_058, 16_058, 620_602, 8_488_940_201_157_766_870),
        ]
    );
}
