//! User-facing Map/Reduce programming interface (paper §1: "the user ...
//! expresses the computation through two functions: map ... and reduce").

use std::sync::Arc;

/// An owned key/value record: what the owned-record reference code in
/// [`crate::record`] and the [`Mapper::map`] / [`Reducer::reduce`] adapters
/// hand around. The engine itself never builds one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct KV {
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

impl KV {
    pub fn new(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> KV {
        KV {
            key: key.into(),
            value: value.into(),
        }
    }
}

/// The `map` function: consumes one input record, emits intermediate
/// records through `out` as borrowed `(key, value)` slices. The slices need
/// to live only for the call to `out`, which copies them at once, so a
/// mapper may emit from its input or from one buffer it reuses.
pub trait Mapper: Send + Sync {
    fn map_into(&self, key: &[u8], value: &[u8], out: &mut dyn FnMut(&[u8], &[u8]));

    /// [`Mapper::map_into`] with owned emissions. The engine never calls
    /// it: it stays for `benchmark/benches/e2e/probes.rs` and the tests that
    /// compare owned records, and goes when the probe moves (ROADMAP C(g)).
    fn map(&self, key: &[u8], value: &[u8], out: &mut dyn FnMut(KV)) {
        self.map_into(key, value, &mut |k, v| out(KV::new(k, v)))
    }
}

/// The `reduce` function: merges all intermediate values of one key and
/// emits through `out` as [`Mapper::map_into`] does. Also used for optional
/// combiners. The values, like the emissions, live only for the call.
pub trait Reducer: Send + Sync {
    fn reduce_into(
        &self,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut dyn FnMut(&[u8], &[u8]),
    );

    /// [`Reducer::reduce_into`] with owned emissions. The engine never
    /// calls it: it stays for `benchmark/benches/e2e/probes.rs` and the tests
    /// that compare owned records, and goes when the probe moves (ROADMAP
    /// C(g)).
    fn reduce(&self, key: &[u8], values: &mut dyn Iterator<Item = &[u8]>, out: &mut dyn FnMut(KV)) {
        self.reduce_into(key, values, &mut |k, v| out(KV::new(k, v)))
    }
}

/// Blanket impls so closures can be used in tests and examples.
impl<F> Mapper for F
where
    F: Fn(&[u8], &[u8], &mut dyn FnMut(&[u8], &[u8])) + Send + Sync,
{
    fn map_into(&self, key: &[u8], value: &[u8], out: &mut dyn FnMut(&[u8], &[u8])) {
        self(key, value, out)
    }
}

/// Blanket impl for reducer closures.
impl<F> Reducer for F
where
    F: Fn(&[u8], &mut dyn Iterator<Item = &[u8]>, &mut dyn FnMut(&[u8], &[u8])) + Send + Sync,
{
    fn reduce_into(
        &self,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        out: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        self(key, values, out)
    }
}

/// Hash partitioner (Hadoop's default): key → reducer index.
pub fn partition_for(key: &[u8], reducers: u32) -> u32 {
    // FNV-1a, stable across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % reducers as u64) as u32
}

/// Cost/volume profile of an application, used when a job runs on ghost
/// payloads at cluster scale: the *engine* (splits, scheduling, shuffle
/// transfers, commit paths) executes for real, while record processing is
/// replaced by its measured profile. Profiles are calibrated against the
/// real implementation on small inputs (see `workloads`).
#[derive(Debug, Clone, Copy)]
pub struct GhostProfile {
    /// Mean input record length in bytes (drives record counts).
    pub input_record_bytes: u64,
    /// Map output bytes per input byte.
    pub map_output_ratio: f64,
    /// Abstract CPU operations per input byte in the map phase.
    pub map_cpu_per_byte: f64,
    /// Reduce output bytes per shuffled byte.
    pub reduce_output_ratio: f64,
    /// Abstract CPU operations per shuffled byte in the reduce phase.
    pub reduce_cpu_per_byte: f64,
    /// Bytes surviving a node-local (tier-2) combine per buffered byte,
    /// applied only when the job has a combiner. 1.0 = combining saves
    /// nothing (e.g. unique keys); wordcount-shaped workloads sit far below.
    pub combine_output_ratio: f64,
}

/// Shared handle to the pair of user functions plus the optional combiner.
#[derive(Clone)]
pub struct UserFns {
    pub mapper: Arc<dyn Mapper>,
    pub reducer: Arc<dyn Reducer>,
    pub combiner: Option<Arc<dyn Reducer>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for r in [1u32, 2, 7, 230] {
            for key in [&b"alpha"[..], b"", b"zz", b"user-12345"] {
                let p1 = partition_for(key, r);
                let p2 = partition_for(key, r);
                assert_eq!(p1, p2);
                assert!(p1 < r);
            }
        }
    }

    #[test]
    fn partitioner_spreads_keys() {
        let r = 16u32;
        let mut hit = vec![false; r as usize];
        for i in 0..1000 {
            let key = format!("key-{i}");
            hit[partition_for(key.as_bytes(), r) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "some partition never hit");
    }

    #[test]
    fn closure_mappers_work() {
        let m = |_k: &[u8], v: &[u8], out: &mut dyn FnMut(&[u8], &[u8])| out(v, b"1");
        let mut got = Vec::new();
        Mapper::map(&m, b"k", b"hello", &mut |kv| got.push(kv));
        assert_eq!(got, vec![KV::new("hello", "1")]);
    }
}
