//! Fixtures shared by this crate's cluster-level test binaries.

use std::sync::Arc;

use dfs::DfsPath;
use mapreduce::UserFns;

pub fn d(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

/// Classic wordcount user functions.
pub fn wordcount() -> UserFns {
    let mapper = |_k: &[u8], v: &[u8], out: &mut dyn FnMut(&[u8], &[u8])| {
        // Input format: key = line (no tab); count words of the whole line.
        for w in _k
            .split(|&b| b == b' ')
            .chain(v.split(|&b| b == b' '))
            .filter(|w| !w.is_empty())
        {
            out(w, b"1");
        }
    };
    let reducer =
        |key: &[u8], values: &mut dyn Iterator<Item = &[u8]>, out: &mut dyn FnMut(&[u8], &[u8])| {
            let total: u64 = values
                .map(|v| std::str::from_utf8(v).unwrap().parse::<u64>().unwrap())
                .sum();
            out(key, total.to_string().as_bytes());
        };
    UserFns {
        mapper: Arc::new(mapper),
        reducer: Arc::new(reducer),
        combiner: Some(Arc::new(reducer)),
    }
}

pub const CORPUS: &str =
    "the quick brown fox\njumps over the lazy dog\nthe dog barks\nfox and dog run\nthe end\n";
