//! The `data join` application (paper §4.3): "similar to the outer join
//! operation from the database context. Data join takes as input two files
//! consisting of key-value pairs, and merges them based on the keys from
//! the first file that appear in the second file as well. ... If a key in
//! the first file appears more than once in either one of the two files,
//! the output will contain all the possible combinations."
//!
//! Implementation follows Hadoop contrib's `datajoin` pattern: map outputs
//! are tagged with their source (the tag is embedded in the value, as
//! `TaggedMapOutput` does); the reducer groups per key, separates the two
//! sources and emits the cross product. Keys present in only one source are
//! dropped.

use std::collections::HashMap;
use std::sync::Arc;

use mapreduce::{GhostProfile, UserFns};

/// Map function: identity on (key, tagged value) — the tag travels in the
/// value, exactly like contrib datajoin's TaggedMapOutput.
struct JoinMapper;

impl mapreduce::Mapper for JoinMapper {
    fn map_into(&self, key: &[u8], value: &[u8], out: &mut dyn FnMut(&[u8], &[u8])) {
        out(key, value);
    }
}

/// Reduce function: split values by source tag; emit all (a, b) combos as
/// `key TAB a-value TAB b-value`.
struct JoinReducer;

impl mapreduce::Reducer for JoinReducer {
    fn reduce_into(
        &self,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        let mut from_a: Vec<&[u8]> = Vec::new();
        let mut from_b: Vec<&[u8]> = Vec::new();
        for v in values {
            if let Some(rest) = v.strip_prefix(b"a:" as &[u8]) {
                from_a.push(rest);
            } else if let Some(rest) = v.strip_prefix(b"b:" as &[u8]) {
                from_b.push(rest);
            }
            // Untagged values are ignored (malformed input).
        }
        let mut combined = Vec::new();
        for a in &from_a {
            for b in &from_b {
                combined.clear();
                combined.extend_from_slice(a);
                combined.push(b'\t');
                combined.extend_from_slice(b);
                out(key, &combined);
            }
        }
    }
}

/// The data join user functions. No combiner: combining would need the full
/// per-key value sets.
pub fn user_fns() -> UserFns {
    UserFns {
        mapper: Arc::new(JoinMapper),
        reducer: Arc::new(JoinReducer),
        combiner: None,
    }
}

/// In-memory reference implementation ("oracle") for verification: returns
/// the multiset of output lines `key \t a \t b`, sorted.
pub fn reference_join(a: &[(String, String)], b: &[(String, String)]) -> Vec<String> {
    let strip = |v: &str| -> String {
        v.strip_prefix("a:")
            .or_else(|| v.strip_prefix("b:"))
            .unwrap_or(v)
            .to_string()
    };
    let mut by_key_b: HashMap<&str, Vec<String>> = HashMap::new();
    for (k, v) in b {
        by_key_b.entry(k.as_str()).or_default().push(strip(v));
    }
    let mut out = Vec::new();
    for (k, va) in a {
        if let Some(vbs) = by_key_b.get(k.as_str()) {
            for vb in vbs {
                out.push(format!("{k}\t{}\t{vb}", strip(va)));
            }
        }
    }
    out.sort();
    out
}

/// The ghost profile used by the Figure 6 cluster-scale runs, calibrated so
/// that (a) map output ≈ join output volume matches the paper's 640 MB →
/// 6.3 GB ratio and (b) the job is computation-dominated as §4.3 reports
/// ("most of the time is spent on searching and matching keys in the map
/// phase, and on combining key-value pairs in the reduce phase").
///
/// With 2 GOps/s nodes, 17 kOps/B over a 64 MB split gives a ~570 s map
/// phase (10 concurrent mappers — the split count fixes the parallelism),
/// matching the order of the paper's ~650 s completion times and its
/// explanation that the curve is flat because "most of the time is spent on
/// searching and matching keys in the map phase". Reduce-side CPU is kept
/// light so even the single-reducer point stays within the paper's flat
/// band (its reduce cost is network-dominated).
pub fn fig6_profile() -> GhostProfile {
    GhostProfile {
        input_record_bytes: 32,
        map_output_ratio: 10.08, // 640 MB in -> 6.3 GB of tagged join pairs
        map_cpu_per_byte: 17_000.0,
        reduce_output_ratio: 1.0,
        reduce_cpu_per_byte: 4.0,
        // Join pairs carry unique composite keys; the job has no combiner,
        // so this ratio is inert — kept at 1.0 for documentation.
        combine_output_ratio: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::{Mapper, Reducer, KV};

    fn kv(k: &str, v: &str) -> (String, String) {
        (k.into(), v.into())
    }

    #[test]
    fn reducer_emits_cross_product() {
        let r = JoinReducer;
        let values: Vec<&[u8]> = vec![b"a:x1", b"a:x2", b"b:y1", b"b:y2", b"b:y3"];
        let mut out = Vec::new();
        r.reduce(b"k", &mut values.into_iter(), &mut |kv| out.push(kv));
        assert_eq!(out.len(), 6);
        assert!(out.contains(&KV::new("k", "x1\ty2")));
        assert!(out.contains(&KV::new("k", "x2\ty3")));
    }

    #[test]
    fn keys_in_one_source_only_are_dropped() {
        let r = JoinReducer;
        let values: Vec<&[u8]> = vec![b"a:x1", b"a:x2"];
        let mut out = Vec::new();
        r.reduce(b"k", &mut values.into_iter(), &mut |kv| out.push(kv));
        assert!(out.is_empty());
    }

    #[test]
    fn mapper_is_identity() {
        let m = JoinMapper;
        let mut out = Vec::new();
        m.map(b"k", b"a:v", &mut |kv| out.push(kv));
        assert_eq!(out, vec![KV::new("k", "a:v")]);
    }

    #[test]
    fn oracle_matches_hand_computed_join() {
        let a = vec![kv("u1", "a:p"), kv("u2", "a:q"), kv("u1", "a:r")];
        let b = vec![kv("u1", "b:x"), kv("u3", "b:y"), kv("u1", "b:z")];
        let j = reference_join(&a, &b);
        assert_eq!(
            j,
            vec![
                "u1\tp\tx".to_string(),
                "u1\tp\tz".to_string(),
                "u1\tr\tx".to_string(),
                "u1\tr\tz".to_string(),
            ]
        );
    }

    #[test]
    fn fig6_profile_matches_paper_ratio() {
        let p = fig6_profile();
        let input = 2.0 * 320.0 * 1024.0 * 1024.0;
        let output = input * p.map_output_ratio * p.reduce_output_ratio;
        let gb = output / (1024.0 * 1024.0 * 1024.0);
        assert!(
            (6.0..6.6).contains(&gb),
            "join output {gb:.2} GB, paper says 6.3 GB"
        );
    }
}
