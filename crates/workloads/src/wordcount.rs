//! The classic wordcount application (with combiner), usable over any
//! input text; the canonical Hadoop example.

use std::sync::Arc;

use mapreduce::{GhostProfile, UserFns};

/// Emits `(word, "1")` for each run of ASCII alphanumerics in the key, then
/// in the value, lowercased. A word ends with its part, so none spans the
/// key and the value.
struct WcMapper;

impl mapreduce::Mapper for WcMapper {
    fn map_into(&self, key: &[u8], value: &[u8], out: &mut dyn FnMut(&[u8], &[u8])) {
        let mut word = Vec::new();
        for part in [key, value] {
            for &b in part {
                if b.is_ascii_alphanumeric() {
                    word.push(b.to_ascii_lowercase());
                } else if !word.is_empty() {
                    out(&word, b"1");
                    word.clear();
                }
            }
            if !word.is_empty() {
                out(&word, b"1");
                word.clear();
            }
        }
    }
}

/// Sums the counts of a word; a value that is not a count adds nothing.
struct WcReducer;

impl mapreduce::Reducer for WcReducer {
    fn reduce_into(
        &self,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        let total: u64 = values.filter_map(parse_count).sum();
        let mut digits = [0; 20];
        out(key, format_count(total, &mut digits));
    }
}

/// `value` as `u64::from_str` reads it, without UTF-8 validation: an
/// optional `+`, then at least one decimal digit, and no overflow.
fn parse_count(value: &[u8]) -> Option<u64> {
    let digits = value.strip_prefix(b"+").unwrap_or(value);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &d| {
        let digit = char::from(d).to_digit(10)?;
        n.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// `n` in decimal, written into the tail of `buf` (20 digits hold
/// `u64::MAX`).
fn format_count(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        start -= 1;
        if n == 0 {
            break;
        }
    }
    buf.get(start..).unwrap_or_default()
}

/// Wordcount user functions (the reducer doubles as the combiner, as in
/// Hadoop's example).
pub fn user_fns() -> UserFns {
    UserFns {
        mapper: Arc::new(WcMapper),
        reducer: Arc::new(WcReducer),
        combiner: Some(Arc::new(WcReducer)),
    }
}

/// A ghost profile for wordcount-like text analytics (heavy combining, tiny
/// output).
pub fn ghost_profile() -> GhostProfile {
    GhostProfile {
        input_record_bytes: 80,
        map_output_ratio: 0.05, // combiner squashes counts per split
        map_cpu_per_byte: 4.0,
        reduce_output_ratio: 0.5,
        reduce_cpu_per_byte: 1.0,
        // Tier-2 combining across a node's tasks collapses repeated words
        // again — text corpora share most of their vocabulary.
        combine_output_ratio: 0.15,
    }
}

/// Reference implementation for verification.
pub fn reference_counts(text: &str) -> std::collections::HashMap<String, u64> {
    let mut m = std::collections::HashMap::new();
    for w in text
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
    {
        *m.entry(w.to_ascii_lowercase()).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{Mapper, Reducer, KV};
    use proptest::prelude::*;

    #[test]
    fn mapper_tokenizes_and_lowercases() {
        let m = WcMapper;
        let mut out = Vec::new();
        m.map(b"", b"Hello, hello WORLD-42!", &mut |kv| out.push(kv));
        let words: Vec<String> = out
            .iter()
            .map(|kv| String::from_utf8(kv.key.clone()).unwrap())
            .collect();
        assert_eq!(words, vec!["hello", "hello", "world", "42"]);
    }

    #[test]
    fn reducer_sums() {
        let r = WcReducer;
        let values: Vec<&[u8]> = vec![b"2", b"3", b"5"];
        let mut out = Vec::new();
        r.reduce(b"w", &mut values.into_iter(), &mut |kv| out.push(kv));
        assert_eq!(out, vec![KV::new("w", "10")]);
    }

    #[test]
    fn counts_format_at_every_width() {
        let mut buf = [0; 20];
        for n in [0, 9, 10, 99, 100, 1 << 32, u64::MAX / 10, u64::MAX] {
            assert_eq!(format_count(n, &mut buf), n.to_string().as_bytes());
        }
    }

    proptest! {
        #[test]
        fn count_parse_agrees_with_u64_from_str(
            value in prop::collection::vec(
                prop_oneof![8 => b'0'..b':', 1 => Just(b'+'), 1 => any::<u8>()],
                0..24,
            ),
        ) {
            let std = std::str::from_utf8(&value).ok().and_then(|s| s.parse::<u64>().ok());
            prop_assert_eq!(parse_count(&value), std);
        }

        #[test]
        fn counts_format_as_display_does(n in any::<u64>(), shift in 0u32..64) {
            let n = n >> shift;
            let mut buf = [0; 20];
            let std = n.to_string();
            prop_assert_eq!(format_count(n, &mut buf), std.as_bytes());
        }
    }

    #[test]
    fn reference_counts_work() {
        let c = reference_counts("a b a");
        assert_eq!(c["a"], 2);
        assert_eq!(c["b"], 1);
    }
}
