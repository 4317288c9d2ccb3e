//! Property-based test: a `pstore::Store` driven by a random sequence of
//! operations (including flushes, compactions and full close/reopen cycles)
//! must behave exactly like an in-memory `HashMap`.

use std::collections::HashMap;
use std::path::PathBuf;

use proptest::prelude::*;
use pstore::{Store, StoreOptions};

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
    Get(u8),
    Flush,
    Compact,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        3 => any::<u8>().prop_map(Op::Get),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "pstore-prop-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key-{k}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_hashmap_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let td = TempDir::new();
        let opts = StoreOptions { max_segment_bytes: 512, ..Default::default() };
        let mut store = Store::open_with(&td.0, opts.clone()).unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put(&key_bytes(k), &v).unwrap();
                    model.insert(key_bytes(k), v);
                }
                Op::Delete(k) => {
                    let existed = store.delete(&key_bytes(k)).unwrap();
                    prop_assert_eq!(existed, model.remove(&key_bytes(k)).is_some());
                }
                Op::Get(k) => {
                    prop_assert_eq!(store.get(&key_bytes(k)).unwrap(), model.get(&key_bytes(k)).cloned());
                }
                Op::Flush => store.flush().unwrap(),
                Op::Compact => store.compact().unwrap(),
                Op::Reopen => {
                    store.flush().unwrap();
                    drop(store);
                    store = Store::open_with(&td.0, opts.clone()).unwrap();
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
        // Final full comparison.
        for (k, v) in &model {
            let got = store.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let mut keys = store.keys();
        keys.sort();
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted on the next line"
        )]
        let mut mkeys: Vec<_> = model.keys().cloned().collect();
        mkeys.sort();
        prop_assert_eq!(keys, mkeys);
    }
}
