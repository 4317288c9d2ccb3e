//! Deterministic Last.fm-shaped dataset generator.
//!
//! The paper's §4.3 input is "two files of 320 MB each; the input files
//! contain key-value pairs extracted from the datasets made public by
//! Last.fm". Those dumps are user→artist listening records. We cannot ship
//! them, so this generator synthesizes the same *shape*: tab-separated
//! `user_NNNNNN \t <source-tag>:<artist, playcount>` lines with Zipf-like
//! key multiplicity and a configurable key overlap between the two files —
//! the two knobs that determine the join's output volume.
//!
//! Values are pre-tagged with their source file (`a:` / `b:`), which is how
//! Hadoop's contrib `datajoin` works too (its `TaggedMapOutput` embeds the
//! source tag in the map output value).

use dfs::{DfsPath, FileSystem, FsResult};
use fabric::{Payload, Proc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct LastFmSpec {
    /// Number of records in file A.
    pub records_a: usize,
    /// Number of records in file B.
    pub records_b: usize,
    /// Number of distinct keys (users). Smaller = more duplicates = larger
    /// join output.
    pub distinct_keys: usize,
    /// Fraction of the key space shared by both files (0.0..=1.0).
    pub overlap: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LastFmSpec {
    fn default() -> Self {
        LastFmSpec {
            records_a: 4_000,
            records_b: 4_000,
            distinct_keys: 1_000,
            overlap: 0.5,
            seed: 0x001A_57F0,
        }
    }
}

/// A generated record `(key, tagged_value)`.
pub type Record = (String, String);

fn key_for(spec: &LastFmSpec, rng: &mut StdRng, side: u8) -> String {
    // Keys 0..shared are common to both files; each file also has a private
    // tail of the key space.
    let shared = ((spec.distinct_keys as f64) * spec.overlap) as usize;
    let private = spec.distinct_keys - shared;
    // Zipf-ish skew: square the uniform sample so low ids dominate.
    let u: f64 = rng.gen();
    let idx = ((u * u) * spec.distinct_keys as f64) as usize;
    if idx < shared {
        format!("user_{idx:06}")
    } else if private == 0 {
        format!("user_{:06}", idx % spec.distinct_keys)
    } else {
        // Private range, disjoint between the sides.
        let off = (idx - shared) % private;
        format!("user_{}_{off:06}", if side == 0 { "a" } else { "b" })
    }
}

/// Generate the records of file A (`tag == "a"`) or B (`tag == "b"`).
pub fn generate(spec: &LastFmSpec, side: u8) -> Vec<Record> {
    assert!(side < 2);
    assert!(spec.distinct_keys > 0);
    assert!((0.0..=1.0).contains(&spec.overlap));
    let mut rng = StdRng::seed_from_u64(spec.seed ^ (side as u64 + 1).wrapping_mul(0x9E37));
    let n = if side == 0 {
        spec.records_a
    } else {
        spec.records_b
    };
    let tag = if side == 0 { "a" } else { "b" };
    (0..n)
        .map(|_| {
            let key = key_for(spec, &mut rng, side);
            let artist = rng.gen_range(0..100_000u32);
            let plays = rng.gen_range(1..1000u32);
            (key, format!("{tag}:artist_{artist:05},{plays}"))
        })
        .collect()
}

/// Render records as `key TAB value` lines.
pub fn to_text(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in records {
        out.extend_from_slice(k.as_bytes());
        out.push(b'\t');
        out.extend_from_slice(v.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Write both input files to a file system; returns their paths.
pub fn write_inputs(
    fs: &dyn FileSystem,
    p: &Proc,
    dir: &DfsPath,
    spec: &LastFmSpec,
) -> FsResult<(DfsPath, DfsPath)> {
    fs.mkdirs(p, dir)?;
    let a = dir.child("lastfm-a.txt")?;
    let b = dir.child("lastfm-b.txt")?;
    fs.write_file(p, &a, Payload::from_vec(to_text(&generate(spec, 0))))?;
    fs.write_file(p, &b, Payload::from_vec(to_text(&generate(spec, 1))))?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = LastFmSpec::default();
        assert_eq!(generate(&spec, 0), generate(&spec, 0));
        assert_ne!(generate(&spec, 0), generate(&spec, 1));
        let other = LastFmSpec {
            seed: 99,
            ..LastFmSpec::default()
        };
        assert_ne!(generate(&spec, 0), generate(&other, 0));
    }

    #[test]
    fn sides_are_tagged_and_overlap() {
        let spec = LastFmSpec {
            records_a: 2000,
            records_b: 2000,
            distinct_keys: 100,
            overlap: 0.5,
            ..Default::default()
        };
        let a = generate(&spec, 0);
        let b = generate(&spec, 1);
        assert!(a.iter().all(|(_, v)| v.starts_with("a:")));
        assert!(b.iter().all(|(_, v)| v.starts_with("b:")));
        let ka: std::collections::HashSet<_> = a.iter().map(|(k, _)| k.clone()).collect();
        let kb: std::collections::HashSet<_> = b.iter().map(|(k, _)| k.clone()).collect();
        let both = ka.intersection(&kb).count();
        assert!(both > 10, "no overlapping keys generated ({both})");
        // Private keys exist on both sides.
        assert!(a.iter().any(|(k, _)| k.starts_with("user_a_")));
        assert!(b.iter().any(|(k, _)| k.starts_with("user_b_")));
    }

    #[test]
    fn text_lines_are_well_formed() {
        let spec = LastFmSpec {
            records_a: 50,
            ..Default::default()
        };
        let text = to_text(&generate(&spec, 0));
        let lines: Vec<&[u8]> = text
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(lines.len(), 50);
        for l in lines {
            assert_eq!(l.iter().filter(|&&b| b == b'\t').count(), 1);
        }
    }
}
