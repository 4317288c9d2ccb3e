//! Rail for the wordcount and datajoin user functions: what each emits, in
//! emission order, pinned to literals, plus two properties on random input.
//!
//! * The wordcount mapper's tokens on mixed case, digits, non-ASCII UTF-8,
//!   tabs, a trailing word with no delimiter and empty key or value parts.
//!   A word never spans the key and the value.
//! * The wordcount reducer's totals on counts `u64::from_str` accepts
//!   (`"+7"`, `"007"`), refuses (`""`, an overflow, non-digits) and on
//!   totals whose digit count changes (0, 9, 10, `u64::MAX`).
//! * The datajoin mapper (identity) and reducer (cross product of the two
//!   tagged sources, untagged values ignored).
//! * On random byte lines, the mapper emits exactly what the reference
//!   tokenizer below emits, and the reducer's total of one value is that
//!   value under `u64::from_str`, or 0 where it refuses it.
//!
//! The literal cases go through the owned `map` / `reduce` adapters, the
//! random ones through `map_into` / `reduce_into`, the methods the engine
//! calls.

use mapreduce::record::split_tab;
use mapreduce::{UserFns, KV};
use proptest::prelude::*;

fn map(fns: &UserFns, key: &[u8], value: &[u8]) -> Vec<KV> {
    let mut out = Vec::new();
    fns.mapper.map(key, value, &mut |kv| out.push(kv));
    out
}

fn reduce(fns: &UserFns, key: &[u8], values: &[&[u8]]) -> Vec<KV> {
    let mut out = Vec::new();
    fns.reducer
        .reduce(key, &mut values.iter().copied(), &mut |kv| out.push(kv));
    out
}

/// `map_into`'s borrowed emissions, copied as they arrive.
fn map_into(fns: &UserFns, key: &[u8], value: &[u8]) -> Vec<KV> {
    let mut out = Vec::new();
    fns.mapper
        .map_into(key, value, &mut |k, v| out.push(KV::new(k, v)));
    out
}

fn reduce_into(fns: &UserFns, key: &[u8], values: &[&[u8]]) -> Vec<KV> {
    let mut out = Vec::new();
    fns.reducer
        .reduce_into(key, &mut values.iter().copied(), &mut |k, v| {
            out.push(KV::new(k, v))
        });
    out
}

fn words(kvs: &[KV]) -> Vec<String> {
    kvs.iter()
        .map(|kv| {
            assert_eq!(kv.value, b"1", "a wordcount emission counts 1");
            String::from_utf8(kv.key.clone()).unwrap()
        })
        .collect()
}

/// The tokenizer the wordcount mapper must agree with: ASCII alphanumeric
/// runs of the key, then of the value, lowercased.
fn reference_tokens(key: &[u8], value: &[u8]) -> Vec<KV> {
    let mut out = Vec::new();
    for part in [key, value] {
        for w in part
            .split(|b| !b.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            out.push(KV::new(w.to_ascii_lowercase(), b"1".to_vec()));
        }
    }
    out
}

#[test]
fn wordcount_mapper_lowercases_ascii_and_splits_on_everything_else() {
    let fns = workloads::wordcount::user_fns();
    assert_eq!(
        words(&map(
            &fns,
            b"Hello",
            "WoRlD 42abc A1b2 \u{dc}n\u{ef}code caf\u{e9} na\u{ef}ve ZZ".as_bytes()
        )),
        ["hello", "world", "42abc", "a1b2", "n", "code", "caf", "na", "ve", "zz"]
    );
    // Bytes that are not UTF-8 at all delimit like any other.
    assert_eq!(words(&map(&fns, b"", b"\xffab\x80CD\xc3")), ["ab", "cd"]);
}

#[test]
fn wordcount_mapper_pins_tabs_trailing_words_and_empty_parts() {
    let fns = workloads::wordcount::user_fns();
    // A tab inside the value delimits; the last word needs no delimiter.
    assert_eq!(words(&map(&fns, b"", b"a\tb\t\tc")), ["a", "b", "c"]);
    // The key's last word and the value's first stay two words.
    assert_eq!(words(&map(&fns, b"ab", b"cd")), ["ab", "cd"]);
    assert_eq!(words(&map(&fns, b"x ", b" Y")), ["x", "y"]);
    assert_eq!(words(&map(&fns, b"only", b"")), ["only"]);
    assert_eq!(words(&map(&fns, b"", b"only")), ["only"]);
    assert!(map(&fns, b"", b"").is_empty());
    assert!(map(&fns, b" \t", b"-- ,\t").is_empty());
    // A line as the engine splits it at its first tab.
    let (k, v) = split_tab(b"Key\tvalue\twith TABS");
    assert_eq!(words(&map(&fns, k, v)), ["key", "value", "with", "tabs"]);
}

#[test]
fn wordcount_reducer_pins_its_count_parse() {
    let fns = workloads::wordcount::user_fns();
    let total = |values: &[&[u8]]| -> String {
        let out = reduce(&fns, b"w", values);
        assert_eq!(out.len(), 1, "one total per key");
        assert_eq!(out[0].key, b"w");
        String::from_utf8(out[0].value.clone()).unwrap()
    };
    // What `u64::from_str` accepts counts, what it refuses counts 0.
    assert_eq!(total(&[b""]), "0");
    assert_eq!(total(&[b"+7"]), "7");
    assert_eq!(total(&[b"007"]), "7");
    assert_eq!(total(&[b"18446744073709551616"]), "0");
    assert_eq!(
        total(&[b"+", b"-1", b"-0", b" 1", b"1 ", b"1x", b"x", b"\xff"]),
        "0"
    );
    assert_eq!(
        total(&[b"++1", b"0x10", b"1.0", b"1e3", b"\xef\xbc\x91"]),
        "0"
    );
    // Totals at the widths of their decimal form.
    assert_eq!(total(&[]), "0");
    assert_eq!(total(&[b"0", b"00"]), "0");
    assert_eq!(total(&[b"4", b"5"]), "9");
    assert_eq!(total(&[b"9", b"1"]), "10");
    assert_eq!(total(&[&b"1"[..]; 12]), "12");
    assert_eq!(total(&[b"18446744073709551615"]), "18446744073709551615");
    assert_eq!(
        total(&[b"18446744073709551614", b"+1", b"x"]),
        "18446744073709551615"
    );
}

#[test]
fn datajoin_mapper_emits_its_input() {
    let fns = workloads::datajoin::user_fns();
    assert_eq!(map(&fns, b"u1", b"a:x"), [KV::new("u1", "a:x")]);
    assert_eq!(map(&fns, b"", b""), [KV::new("", "")]);
    assert_eq!(map(&fns, b"k", b"b:y\tz"), [KV::new("k", "b:y\tz")]);
    assert!(fns.combiner.is_none());
}

#[test]
fn datajoin_reducer_emits_the_cross_product_in_order() {
    let fns = workloads::datajoin::user_fns();
    let out = reduce(
        &fns,
        b"u",
        &[
            b"b:y1", b"a:x1", b"junk", b"a:", b"b:y2\tt", b"c:z", b"a:x3",
        ],
    );
    assert_eq!(
        out,
        [
            KV::new("u", "x1\ty1"),
            KV::new("u", "x1\ty2\tt"),
            KV::new("u", "\ty1"),
            KV::new("u", "\ty2\tt"),
            KV::new("u", "x3\ty1"),
            KV::new("u", "x3\ty2\tt"),
        ]
    );
    assert!(reduce(&fns, b"u", &[b"a:x", b"a:y"]).is_empty());
    assert!(reduce(&fns, b"u", &[b"b:x"]).is_empty());
    assert!(reduce(&fns, b"u", &[]).is_empty());
}

/// Bytes that reach every branch of the tokenizer: lowercase, uppercase,
/// digits, delimiters (tab, space, punctuation) and non-ASCII.
fn line_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        4 => b'a'..b'{',
        2 => b'A'..b'[',
        2 => b'0'..b':',
        1 => Just(b'\t'),
        2 => Just(b' '),
        1 => b'!'..b'0',
        1 => 0x80u8..0xff,
        1 => any::<u8>(),
    ]
}

/// Strings near what a count parse must get right: signs, leading zeros,
/// the edge of `u64`, and anything else.
fn count_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        12 => b'0'..b':',
        1 => Just(b'+'),
        1 => Just(b'-'),
        1 => Just(b' '),
        1 => any::<u8>(),
    ]
}

proptest! {
    #[test]
    fn wordcount_mapper_matches_the_reference_tokenizer(
        line in prop::collection::vec(line_byte(), 0..120),
    ) {
        let fns = workloads::wordcount::user_fns();
        let (k, v) = split_tab(&line);
        prop_assert_eq!(map_into(&fns, k, v), reference_tokens(k, v));
    }

    #[test]
    fn wordcount_reducer_counts_what_u64_from_str_accepts(
        value in prop::collection::vec(count_byte(), 0..24),
        near_max in 0u64..1000,
        ones in 0usize..4,
    ) {
        let fns = workloads::wordcount::user_fns();
        let parsed = std::str::from_utf8(&value).ok().and_then(|s| s.parse::<u64>().ok());
        let total = reduce_into(&fns, b"w", &[&value]);
        prop_assert_eq!(total, [KV::new("w", parsed.unwrap_or(0).to_string())]);
        // Totals near `u64::MAX`, where the decimal form is widest.
        let big = (u64::MAX - near_max - ones as u64).to_string();
        let mut values: Vec<&[u8]> = vec![big.as_bytes()];
        values.extend(std::iter::repeat_n(&b"1"[..], ones));
        let total = reduce_into(&fns, b"w", &values);
        prop_assert_eq!(total, [KV::new("w", (u64::MAX - near_max).to_string())]);
    }
}
