//! Property test: the run path (arena collector, borrowing cursor, streaming
//! merge-reduce) is byte-identical to the owned-`KV` engine it replaced.
//! The oracle is that engine's code — `sort`, `sort_and_group`,
//! `merge_sorted_runs`, `encode_kvs` over `Vec<KV>` — kept in
//! `mapreduce::record` for exactly this purpose.

use fabric::Payload;
use mapreduce::record::{
    encode_kvs, merge_into_run, merge_sorted_runs, put_text, reduce_runs, sort_and_group, Collector,
};
use mapreduce::task::MERGE_FANIN;
use mapreduce::{Reducer, KV};
use proptest::prelude::*;

/// Combiner shapes that stress the grouping adapter and the output sink.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// Wordcount-like: one record per key, in key order.
    Sum,
    Nothing,
    /// Two records per key, the second sorting before the first.
    TwoOutOfOrder,
    /// A different key that reverses the group order.
    OtherKey,
    /// Leaves all but the first value unread.
    FirstOnly,
}

impl Reducer for Combine {
    fn reduce_into(
        &self,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        match self {
            Combine::Sum => {
                let total: usize = values.map(|v| 1 + v.len()).sum();
                out(key, total.to_string().as_bytes());
            }
            Combine::Nothing => {}
            Combine::TwoOutOfOrder => {
                let n = values.count();
                out(key, format!("z{n}").as_bytes());
                out(key, b"a");
            }
            Combine::OtherKey => {
                let flipped: Vec<u8> = key.iter().map(|b| !b).collect();
                out(&flipped, values.last().unwrap_or_default());
            }
            Combine::FirstOnly => {
                let first = values.next().unwrap_or_default();
                out(key, first);
            }
        }
    }
}

/// No combiner, then every shape.
const SHAPES: [Option<Combine>; 6] = [
    None,
    Some(Combine::Sum),
    Some(Combine::Nothing),
    Some(Combine::TwoOutOfOrder),
    Some(Combine::OtherKey),
    Some(Combine::FirstOnly),
];

fn combine_strategy() -> impl Strategy<Value = Option<Combine>> {
    (0..SHAPES.len()).prop_map(|i| SHAPES[i])
}

/// Keys that collide in every way the index prefix can: empty, shorter than
/// 8 bytes with embedded and trailing zeros (`"a"` vs `"a\0"` pad to the
/// same prefix), equal through byte 8 and differing after, and a few random
/// ones. Tiny alphabets keep duplicates heavy.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    let tiny = || prop_oneof![Just(0u8), Just(b'a'), Just(b'b')];
    prop_oneof![
        1 => Just(Vec::new()),
        4 => prop::collection::vec(tiny(), 0..4),
        4 => prop::collection::vec(tiny(), 0..3)
            .prop_map(|tail| [&b"12345678"[..], &tail].concat()),
        1 => prop::collection::vec(any::<u8>(), 0..12),
    ]
}

fn record_strategy() -> impl Strategy<Value = KV> {
    let value = prop::collection::vec(prop_oneof![Just(0u8), Just(b'1'), Just(b'2')], 0..3);
    (key_strategy(), value).prop_map(|(k, v)| KV::new(k, v))
}

/// Mostly short lists; two long arms reach what the collector does only at
/// scale. Thousands of pushes over at most 8 distinct records make counts
/// far above 1 (`FirstOnly` leaves the repeats unread, `Sum` counts them).
/// A repeated prefix followed by thousands of distinct records grows the
/// repeat table once and then stops it looking for repeats mid-collector.
fn records_strategy() -> impl Strategy<Value = Vec<KV>> {
    let pool = || prop::collection::vec(record_strategy(), 1..9);
    let picks = |len| prop::collection::vec(0usize..8, len);
    prop_oneof![
        14 => prop::collection::vec(record_strategy(), 0..120),
        1 => (pool(), picks(2000..6000)).prop_map(|(pool, picks)| {
            picks.iter().map(|i| pool[i % pool.len()].clone()).collect()
        }),
        1 => (
            pool(),
            picks(500..501),
            prop::collection::vec(key_strategy(), 2000..6000),
        )
            .prop_map(|(pool, picks, keys)| {
                let repeated = picks.iter().map(|i| pool[i % pool.len()].clone());
                // A 4-byte value never equals a pool value (at most 2 bytes).
                let distinct = keys
                    .into_iter()
                    .enumerate()
                    .map(|(i, k)| KV::new(k, (i as u32).to_be_bytes()));
                repeated.chain(distinct).collect()
            }),
    ]
}

/// The parent's per-partition map-side code, verbatim.
fn oracle_map_side(mut buf: Vec<KV>, combiner: Option<&dyn Reducer>) -> Payload {
    buf.sort();
    match combiner {
        Some(combiner) => encode_kvs(&oracle_combine(buf, combiner, true)),
        None => encode_kvs(&buf),
    }
}

/// The parent's "group → `reduce` → collect (→ sort)" loop.
fn oracle_combine(sorted: Vec<KV>, reducer: &dyn Reducer, sort_output: bool) -> Vec<KV> {
    let mut out = Vec::new();
    for (key, values) in sort_and_group(sorted) {
        let mut it = values.iter().map(|v| v.as_slice());
        reducer.reduce(&key, &mut it, &mut |kv| out.push(kv));
    }
    if sort_output {
        out.sort();
    }
    out
}

fn to_text(kvs: &[KV]) -> Vec<u8> {
    let mut text = Vec::new();
    for kv in kvs {
        put_text(&mut text, &kv.key, &kv.value);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Map side: what `run_map_task` publishes per partition, under every
    /// combiner shape. Records are dealt over three partitions of which the
    /// last stays empty.
    #[test]
    fn collector_output_equals_the_owned_record_map_side(records in records_strategy()) {
        for combine in SHAPES {
            let combiner = combine.as_ref().map(|c| c as &dyn Reducer);
            let mut collectors = [Collector::default(), Collector::default(), Collector::default()];
            let mut buffers = [Vec::new(), Vec::new(), Vec::new()];
            for (i, kv) in records.iter().enumerate() {
                collectors[i % 2].push(&kv.key, &kv.value);
                buffers[i % 2].push(kv.clone());
            }
            for (collected, buf) in collectors.into_iter().zip(buffers) {
                let got = collected.into_run(combiner).unwrap();
                prop_assert_eq!(got, oracle_map_side(buf, combiner), "{:?}", combine);
            }
        }
    }

    /// Tier 2 and the final reduce: any split of the records into sorted
    /// runs (empty ones included, enough of them to force the reducer's
    /// `MERGE_FANIN` collapse) merges, groups and reduces to the same bytes
    /// as `merge_sorted_runs` + the old loops.
    #[test]
    fn reduce_runs_equals_merge_sorted_runs_plus_the_old_loop(
        records in records_strategy(),
        cuts in prop::collection::vec(0usize..10, 0..120),
        run_count in 0usize..10,
        combine in combine_strategy(),
    ) {
        let mut owned: Vec<Vec<KV>> = vec![Vec::new(); run_count];
        for (i, kv) in records.iter().enumerate() {
            let run = cuts.get(i).copied().unwrap_or(i) % run_count.max(1);
            if let Some(r) = owned.get_mut(run) {
                r.push(kv.clone());
            }
        }
        for r in &mut owned {
            r.sort();
        }
        let encoded: Vec<Payload> = owned.iter().map(|r| encode_kvs(r)).collect();
        let runs: Vec<&[u8]> = encoded.iter().map(|p| &p.bytes()[..]).collect();
        let merged = merge_sorted_runs(owned);

        // Tier 2 (`combine_flush`): merge, combine, re-sort, encode.
        let combiner = combine.as_ref().map(|c| c as &dyn Reducer);
        let want = match combiner {
            Some(c) => encode_kvs(&oracle_combine(merged.clone(), c, true)),
            None => encode_kvs(&merged),
        };
        prop_assert_eq!(merge_into_run(&runs, combiner).unwrap(), want);

        // Final reduce (`run_reduce_task`): runs arrive one by one, collapse
        // every MERGE_FANIN, and the reducer's emissions become text in
        // emission order.
        let reducer = combine.unwrap_or(Combine::Sum);
        let want = to_text(&oracle_combine(merged.clone(), &reducer, false));
        let mut held: Vec<Payload> = Vec::new();
        for run in &encoded {
            held.push(run.clone());
            if held.len() >= MERGE_FANIN {
                let slices: Vec<&[u8]> = held.iter().map(|p| &p.bytes()[..]).collect();
                held = vec![merge_into_run(&slices, None).unwrap()];
            }
        }
        let slices: Vec<&[u8]> = held.iter().map(|p| &p.bytes()[..]).collect();
        let mut got = Vec::new();
        let read = reduce_runs(&slices, Some(&reducer), &mut |k, v| put_text(&mut got, k, v));
        prop_assert_eq!(read, Ok(merged.len() as u64));
        prop_assert_eq!(got, want);
    }
}
