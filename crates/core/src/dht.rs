//! The metadata-provider DHT (paper §3.1.1: "the information concerning the
//! location of the pages for each BLOB version is kept in a Distributed
//! HashTable, managed by several metadata providers").
//!
//! Node keys are deterministic `(blob, version, page range)` triples
//! (see [`crate::meta`]); a key hashes to exactly one metadata provider, so
//! concurrent writers updating different tree paths talk to different
//! servers and scale out — the paper deploys 20 of them on 270 nodes.
//!
//! How a metadata server counts what it served, dies and comes back is its
//! `crate::service::Service` shell's, the one every service has, and a
//! `MetaServer` derefs to it; this file says where a server keeps its nodes
//! (in memory, or only in its store when durable), and the hot paths.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use fabric::{NodeId, Proc, ResourceKind};
use parking_lot::RwLock;

use crate::error::{BlobError, BlobResult, PersistenceKind};
use crate::meta::{NodeBody, NodeKey, NODE_KEY_PREFIX};
use crate::service::{Service, State, META_SERVER};

/// One metadata server holding a shard of the tree-node space: a `Service`
/// shell (node, liveness, served counters, store, crash-restart — all
/// reached by deref) that stores tree nodes.
///
/// An in-memory server keeps its nodes in one `RwLock<HashMap>`, taken
/// once per server group: a `get_batch` takes its read side, so concurrent
/// readers never block each other. A durable server (see
/// [`Self::new_persistent`]) leaves the map empty: its store holds the one
/// copy, read and written under the shell's store guard, as a durable
/// provider's does.
pub struct MetaServer {
    svc: Service,
    nodes: RwLock<HashMap<NodeKey, NodeBody>>,
}

impl std::ops::Deref for MetaServer {
    type Target = Service;

    fn deref(&self) -> &Service {
        &self.svc
    }
}

/// What a durable server rebuilds at a (re)start: nothing, since it serves
/// from its store. It still reads every node record back once: the store's
/// open does not re-read a record a checkpoint vouches for, and a restart
/// over a corrupt one must fail rather than come up serving it.
struct ReadBack;

impl State for ReadBack {
    fn clear(&self) {}

    fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()> {
        store.scan_prefix(NODE_KEY_PREFIX).map(drop)
    }
}

impl MetaServer {
    pub fn new(node: NodeId) -> Self {
        MetaServer {
            svc: Service::new(META_SERVER, node),
            nodes: RwLock::with_rank(HashMap::new(), crate::lock_ranks::MAPS),
        }
    }

    /// Metadata server whose nodes live only in a [`pstore::Store`] at
    /// `dir`. Opening a non-empty directory *recovers* it, so a restarted
    /// server answers exactly what it acknowledged before the crash.
    pub fn new_persistent(
        node: NodeId,
        dir: &Path,
        opts: pstore::StoreOptions,
    ) -> BlobResult<Self> {
        let svc = Service::open(META_SERVER, node, dir, opts, Arc::new(ReadBack))?;
        Ok(MetaServer {
            svc,
            nodes: RwLock::with_rank(HashMap::new(), crate::lock_ranks::MAPS),
        })
    }

    /// Store one server group of tree nodes. A durable server writes them
    /// in one live `Disk` scope and holds the store read guard across the
    /// whole group INCLUDING the flush — see [`crate::service`]: no node is
    /// ever acked and then lost.
    pub(crate) fn store_nodes(&self, p: &Proc, nodes: Vec<(NodeKey, NodeBody)>) -> BlobResult<()> {
        const REWRITE: &str = "rewritten with different content";
        let Some(g) = self.store_guard() else {
            let mut map = self.nodes.write();
            for (key, body) in nodes {
                debug_assert!(
                    map.get(&key).is_none_or(|prev| *prev == body),
                    "metadata node {key:?} {REWRITE}"
                );
                map.insert(key, body);
            }
            return Ok(());
        };
        let Some(s) = g.as_ref() else {
            return Err(self.down());
        };
        p.serve(self.node(), ResourceKind::Disk, || {
            for (key, body) in &nodes {
                let k = key.encode();
                debug_assert!(
                    (s.get(&k).ok().flatten())
                        .and_then(|prev| NodeBody::decode(&prev))
                        .is_none_or(|prev| prev == *body),
                    "metadata node {key:?} {REWRITE}"
                );
                s.put(&k, &body.encode()).map_err(|e| self.err(&e))?;
            }
            s.flush_buffered().map_err(|e| self.err(&e))
        })
    }

    /// The nodes stored under `keys`, in order. A durable server reads them
    /// in one live `Disk` scope under the store read guard; a record that
    /// fails its checksum or does not decode answers a `Corrupt`
    /// persistence error, never `None`.
    fn load_nodes<'k>(
        &self,
        p: &Proc,
        keys: impl Iterator<Item = &'k NodeKey>,
    ) -> BlobResult<Vec<Option<NodeBody>>> {
        let Some(g) = self.store_guard() else {
            let map = self.nodes.read();
            return Ok(keys.map(|k| map.get(k).cloned()).collect());
        };
        let Some(s) = g.as_ref() else {
            return Err(self.down());
        };
        p.serve(self.node(), ResourceKind::Disk, || {
            keys.map(|key| {
                let Some(v) = s.get(&key.encode()).map_err(|e| self.err(&e))? else {
                    return Ok(None);
                };
                let corrupt = || BlobError::Persistence {
                    kind: PersistenceKind::Corrupt,
                    path: self.dir.display().to_string(),
                    detail: format!("metadata node {key:?} does not decode"),
                };
                NodeBody::decode(&v).map(Some).ok_or_else(corrupt)
            })
            .collect()
        })
    }

    /// Number of tree nodes stored on this server (a durable server's store
    /// holds nothing else; a wiped one holds none).
    pub fn node_count(&self) -> usize {
        match self.store_guard() {
            None => self.nodes.read().len(),
            Some(g) => g.as_ref().map_or(0, |s| s.len()),
        }
    }
}

/// Client-side view of the metadata DHT.
pub struct MetaDht {
    servers: Vec<Arc<MetaServer>>,
    /// Abstract CPU cost charged on the serving node per operation — models
    /// the (small but nonzero) metadata-serialization overhead the paper
    /// mentions in §3.1.2.
    server_cpu_ops: u64,
}

fn hash_key(k: &NodeKey) -> u64 {
    // FNV-1a over the key fields: deterministic placement across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [k.blob.0, k.version, k.page_lo, k.page_hi] {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

impl MetaDht {
    pub fn new(servers: Vec<Arc<MetaServer>>, server_cpu_ops: u64) -> Self {
        assert!(!servers.is_empty(), "need at least one metadata provider");
        MetaDht {
            servers,
            server_cpu_ops,
        }
    }

    fn server_index(&self, key: &NodeKey) -> usize {
        (hash_key(key) % self.servers.len() as u64) as usize
    }

    pub fn servers(&self) -> &[Arc<MetaServer>] {
        &self.servers
    }

    /// Store a tree node. Idempotent: node ids are deterministic and their
    /// content is a pure function of the id, so double-writes (e.g. a
    /// force-completed version whose original writer later finishes) are
    /// harmless.
    pub fn put(&self, p: &Proc, key: NodeKey, body: NodeBody) -> BlobResult<()> {
        self.put_batch(p, vec![(key, body)])
    }

    /// Store many tree nodes, grouped by responsible server: one costed RPC
    /// per server carries that server's whole share, instead of one
    /// round-trip per node. This is what keeps a writer's step-3 metadata
    /// publish at O(servers) wire latency regardless of tree-path length.
    ///
    /// Node writes are idempotent (see [`Self::put`]), so partial
    /// application when a server is down mid-batch is harmless: a retry or
    /// force-complete simply rewrites the same content.
    #[expect(
        clippy::indexing_slicing,
        reason = "subscripts are server_index() (`% servers.len()`) or enumerate() over a vector built with servers.len() entries"
    )]
    pub fn put_batch(&self, p: &Proc, nodes: Vec<(NodeKey, NodeBody)>) -> BlobResult<()> {
        let mut groups: Vec<Vec<(NodeKey, NodeBody)>> =
            (0..self.servers.len()).map(|_| Vec::new()).collect();
        for (key, body) in nodes {
            groups[self.server_index(&key)].push((key, body));
        }
        for (i, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let server = &self.servers[i];
            if !server.is_alive() {
                return Err(server.down());
            }
            let req: u64 = group.iter().map(|(_, b)| b.encoded_size() + 40).sum();
            let ops = self.server_cpu_ops * group.len() as u64;
            p.request(server.node(), req, 16, ops).wait(p);
            p.serve(server.node(), ResourceKind::Cpu, || {
                server.served_put(group.len() as u64);
                server.store_nodes(p, group)
            })?;
        }
        Ok(())
    }

    /// Fetch a tree node.
    pub fn get(&self, p: &Proc, key: &NodeKey) -> BlobResult<Option<NodeBody>> {
        self.get_batch(p, std::slice::from_ref(key))?
            .pop()
            .ok_or_else(|| BlobError::Internal {
                detail: "get_batch answered zero results for one key".into(),
            })
    }

    /// Fetch many tree nodes in responsible-server groups (one costed RPC
    /// per server touched). `out[i]` answers `keys[i]`. The breadth-first
    /// read path ([`crate::meta::collect_leaves`]) calls this once per tree
    /// level.
    #[expect(
        clippy::indexing_slicing,
        reason = "`out` is sized to keys.len() and `i` enumerates `keys`; the rest are server_index() or enumerate() over a vector sized to servers"
    )]
    pub fn get_batch(&self, p: &Proc, keys: &[NodeKey]) -> BlobResult<Vec<Option<NodeBody>>> {
        let mut out: Vec<Option<NodeBody>> = vec![None; keys.len()];
        let mut groups: Vec<Vec<usize>> = (0..self.servers.len()).map(|_| Vec::new()).collect();
        for (i, key) in keys.iter().enumerate() {
            groups[self.server_index(key)].push(i);
        }
        for (si, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let server = &self.servers[si];
            if !server.is_alive() {
                return Err(server.down());
            }
            let resp = p.serve(server.node(), ResourceKind::Cpu, || {
                server.served_get(group.len() as u64);
                let found = server.load_nodes(p, group.iter().map(|&i| &keys[i]))?;
                let mut resp = 0u64;
                for (&i, body) in group.iter().zip(found) {
                    resp += body.as_ref().map_or(16, |b| b.encoded_size() + 16);
                    out[i] = body;
                }
                Ok::<_, BlobError>(resp)
            })?;
            let n = group.len() as u64;
            let ops = self.server_cpu_ops * n;
            p.request(server.node(), 56 * n, resp, ops).wait(p);
        }
        Ok(out)
    }

    /// Total nodes across all servers.
    pub fn total_nodes(&self) -> usize {
        self.servers.iter().map(|s| s.node_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PageRef;
    use crate::testutil::{with_proc, ScratchDir};
    use crate::types::{BlobId, PageId};

    fn key(v: u64, lo: u64, hi: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: v,
            page_lo: lo,
            page_hi: hi,
        }
    }

    fn leaf(n: u64) -> NodeBody {
        NodeBody::Leaf(PageRef {
            id: PageId(n, n),
            byte_len: 10,
            providers: vec![NodeId(0)],
        })
    }

    fn dht(n: u32) -> MetaDht {
        MetaDht::new(
            (0..n)
                .map(|i| Arc::new(MetaServer::new(NodeId(i))))
                .collect(),
            0,
        )
    }

    #[test]
    fn put_get_roundtrip() {
        with_proc(|p| {
            let d = dht(3);
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();
            assert_eq!(d.get(p, &key(1, 0, 1)).unwrap(), Some(leaf(1)));
            assert_eq!(d.get(p, &key(1, 1, 2)).unwrap(), None);
        });
    }

    #[test]
    fn keys_spread_across_servers() {
        with_proc(|p| {
            let d = dht(4);
            for v in 1..200u64 {
                d.put(p, key(v, 0, 1), leaf(v)).unwrap();
            }
            let counts: Vec<usize> = d.servers().iter().map(|s| s.node_count()).collect();
            assert_eq!(counts.iter().sum::<usize>(), 199);
            for c in counts {
                assert!(c > 20, "suspiciously unbalanced shard: {c}");
            }
        });
    }

    #[test]
    fn placement_is_deterministic() {
        let d1 = dht(5);
        let d2 = dht(5);
        for v in 1..50 {
            let k = key(v, 2, 4);
            assert_eq!(d1.server_index(&k), d2.server_index(&k));
        }
    }

    #[test]
    fn dead_server_errors() {
        with_proc(|p| {
            let d = dht(1);
            d.servers()[0].kill();
            assert!(matches!(
                d.put(p, key(1, 0, 1), leaf(1)),
                Err(BlobError::ProviderDown { .. })
            ));
            d.servers()[0].revive();
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();
        });
    }

    #[test]
    fn batches_issue_one_rpc_per_server() {
        with_proc(|p| {
            let d = dht(4);
            let items: Vec<(NodeKey, NodeBody)> =
                (1..64u64).map(|v| (key(v, 0, 1), leaf(v))).collect();
            let n = items.len() as u64;
            d.put_batch(p, items.clone()).unwrap();
            let put_rpcs: u64 = d.servers().iter().map(|s| s.rpc_counts().0).sum();
            let puts: u64 = d.servers().iter().map(|s| s.op_counts().0).sum();
            assert_eq!(puts, n, "every node stored");
            assert!(put_rpcs <= 4, "one wire RPC per server, got {put_rpcs}");

            let keys: Vec<NodeKey> = items.iter().map(|(k, _)| *k).collect();
            let got = d.get_batch(p, &keys).unwrap();
            assert_eq!(got.len(), keys.len());
            for (i, body) in got.iter().enumerate() {
                assert_eq!(body.as_ref(), Some(&items[i].1), "answer order preserved");
            }
            assert_eq!(d.get_batch(p, &[key(999, 0, 1)]).unwrap(), vec![None]);
            let get_rpcs: u64 = d.servers().iter().map(|s| s.rpc_counts().1).sum();
            assert!(get_rpcs <= 5, "batched gets, got {get_rpcs} RPCs");
        });
    }

    #[test]
    fn empty_batches_are_free() {
        with_proc(|p| {
            let d = dht(3);
            d.put_batch(p, Vec::new()).unwrap();
            assert_eq!(d.get_batch(p, &[]).unwrap(), Vec::<Option<NodeBody>>::new());
            let rpcs: u64 = d
                .servers()
                .iter()
                .map(|s| s.rpc_counts().0 + s.rpc_counts().1)
                .sum();
            assert_eq!(rpcs, 0);
        });
    }

    #[test]
    fn persistent_meta_server_survives_crash_restart() {
        let dir = ScratchDir::new("meta-pstore");
        let d2 = dir.to_path_buf();
        with_proc(move |p| {
            let server = Arc::new(
                MetaServer::new_persistent(NodeId(0), &d2, pstore::StoreOptions::default())
                    .unwrap(),
            );
            let d = MetaDht::new(vec![server.clone()], 0);
            let items: Vec<(NodeKey, NodeBody)> =
                (1..40u64).map(|v| (key(v, 0, 1), leaf(v))).collect();
            d.put_batch(p, items.clone()).unwrap();
            assert_eq!(server.node_count(), 39);

            // The lifecycle itself is asserted once, in `service.rs`; here:
            // what a metadata server loses and what it gets back.
            server.crash_wipe().unwrap();
            assert_eq!(server.node_count(), 0, "wipe drops the whole map");
            assert!(matches!(
                d.get(p, &key(1, 0, 1)),
                Err(BlobError::ProviderDown { .. })
            ));

            server.recover().unwrap();
            assert_eq!(server.node_count(), 39, "every acked node came back");
            for (k, body) in &items {
                assert_eq!(d.get(p, k).unwrap().as_ref(), Some(body));
            }
        });
    }

    #[test]
    fn persistent_meta_server_reopens_from_directory() {
        let dir = ScratchDir::new("meta-reopen");
        let d2 = dir.to_path_buf();
        with_proc(move |p| {
            let server = Arc::new(
                MetaServer::new_persistent(NodeId(0), &d2, pstore::StoreOptions::default())
                    .unwrap(),
            );
            let d = MetaDht::new(vec![server], 0);
            d.put(p, key(5, 0, 1), leaf(5)).unwrap();
        });
        // A brand-new server object over the same directory (full process
        // restart) serves the old nodes.
        let d3 = dir.to_path_buf();
        with_proc(move |p| {
            let server = Arc::new(
                MetaServer::new_persistent(NodeId(0), &d3, pstore::StoreOptions::default())
                    .unwrap(),
            );
            assert_eq!(server.node_count(), 1);
            let d = MetaDht::new(vec![server], 0);
            assert_eq!(d.get(p, &key(5, 0, 1)).unwrap(), Some(leaf(5)));
        });
    }

    #[test]
    fn duplicate_put_is_idempotent() {
        with_proc(|p| {
            let d = dht(2);
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();
            assert_eq!(d.total_nodes(), 1);
        });
    }

    /// A durable server keeps no memory copy to answer from: a node record
    /// that rots on disk after the store opened answers a `Corrupt`
    /// persistence error, never `Ok(None)` and never a panic.
    #[test]
    fn a_node_record_corrupted_after_open_answers_corrupt() {
        let dir = ScratchDir::new("meta-rot");
        let d2 = dir.to_path_buf();
        with_proc(move |p| {
            let opts = pstore::StoreOptions::default();
            let server = MetaServer::new_persistent(NodeId(0), &d2, opts).unwrap();
            let d = MetaDht::new(vec![Arc::new(server)], 0);
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();

            // The put flushed its record; its last byte ends the value.
            let seg = d2.join("00000000.seg");
            let mut bytes = std::fs::read(&seg).unwrap();
            *bytes.last_mut().unwrap() ^= 1;
            std::fs::write(&seg, &bytes).unwrap();

            let got = d.get_batch(p, &[key(1, 0, 1)]);
            assert!(
                matches!(
                    got,
                    Err(BlobError::Persistence {
                        kind: PersistenceKind::Corrupt,
                        ..
                    })
                ),
                "{got:?}"
            );
        });
    }

    /// A node's content is a pure function of its key, so rewriting one
    /// with other content is a bug the debug build catches on either kind
    /// of server.
    #[cfg(debug_assertions)]
    fn rewrite_with_other_content(server: MetaServer) {
        let d = MetaDht::new(vec![Arc::new(server)], 0);
        with_proc(move |p| {
            d.put(p, key(1, 0, 1), leaf(1)).unwrap();
            d.put(p, key(1, 0, 1), leaf(2)).unwrap();
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rewritten with different content")]
    fn a_rewrite_with_other_content_panics_in_memory() {
        rewrite_with_other_content(MetaServer::new(NodeId(0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rewritten with different content")]
    fn a_rewrite_with_other_content_panics_on_a_durable_server() {
        let dir = ScratchDir::new("meta-rewrite");
        let opts = pstore::StoreOptions::default();
        rewrite_with_other_content(MetaServer::new_persistent(NodeId(0), &dir, opts).unwrap());
    }
}
