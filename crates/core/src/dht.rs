//! The metadata-provider DHT (paper §3.1.1: "the information concerning the
//! location of the pages for each BLOB version is kept in a Distributed
//! HashTable, managed by several metadata providers").
//!
//! Node keys are deterministic `(blob, version, page range)` triples
//! (see [`crate::meta`]); a key hashes to exactly one metadata provider, so
//! concurrent writers updating different tree paths talk to different
//! servers and scale out — the paper deploys 20 of them on 270 nodes.
//!
//! How a metadata server counts what it served, dies and comes back is
//! `crate::service`'s, shared with the data providers, and a `MetaServer`
//! derefs to it; this file says only what a crash empties and a restart
//! reloads (the `Nodes` map), and the hot paths.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use fabric::{NodeId, Proc};
use parking_lot::RwLock;

use crate::error::{BlobError, BlobResult};
use crate::meta::{NodeBody, NodeKey, NODE_KEY_PREFIX};
use crate::service::{Durable, Service, State};

/// Stripe count of one server's node map. Keys spread via the upper bits of
/// the same FNV hash that routes them to a server (the lower bits picked the
/// server, so within a server the upper bits stay uniform).
const NODE_STRIPES: usize = 16;

fn stripe_of(key: &NodeKey) -> usize {
    ((hash_key(key) >> 32) % NODE_STRIPES as u64) as usize
}

/// One metadata server holding a shard of the tree-node space: a
/// `Service` (node, liveness, served counters, crash-restart — all reached
/// by deref) that stores tree nodes.
///
/// The node map is lock-striped (`RwLock<HashMap>` per stripe): a batched
/// `get_batch` takes only read locks — concurrent readers never block each
/// other — and a `put_batch` write-locks exactly the stripes its share of
/// nodes hashes to, never the whole server for the whole batch.
pub struct MetaServer {
    /// When durable (see [`Self::new_persistent`]), the store is a
    /// write-through mirror that exists to survive a crash-restart; the
    /// striped in-memory map stays the authoritative read path.
    svc: Service,
    nodes: Arc<Nodes>,
}

impl std::ops::Deref for MetaServer {
    type Target = Service;

    fn deref(&self) -> &Service {
        &self.svc
    }
}

struct Nodes(Vec<RwLock<HashMap<NodeKey, NodeBody>>>);

impl Default for Nodes {
    fn default() -> Self {
        let stripe = || RwLock::with_rank(HashMap::new(), crate::lock_ranks::STRIPES);
        Nodes((0..NODE_STRIPES).map(|_| stripe()).collect())
    }
}

impl State for Nodes {
    fn clear(&self) {
        for stripe in &self.0 {
            stripe.write().clear();
        }
    }

    /// Reload the striped map from the store's `n/` namespace (replacing
    /// whatever the stripes hold). The scan is the fallible step and runs
    /// first, so a failed reload changes nothing.
    fn rebuild(&self, store: &pstore::Store) -> pstore::Result<()> {
        let records = store.scan_prefix(NODE_KEY_PREFIX)?;
        self.clear();
        for (k, v) in records {
            let (Some(key), Some(body)) = (NodeKey::decode(&k), NodeBody::decode(&v)) else {
                // Malformed record: skip it — the write path only ever
                // stores codec output, so this is corruption the CRC
                // already let through; losing one node degrades to a
                // MetadataMissing read error, never a panic.
                continue;
            };
            #[expect(clippy::indexing_slicing, reason = "stripe_of is `% NODE_STRIPES`")]
            self.0[stripe_of(&key)].write().insert(key, body);
        }
        Ok(())
    }
}

impl MetaServer {
    fn with(node: NodeId, nodes: Arc<Nodes>, durable: Option<Durable>) -> Self {
        MetaServer {
            svc: Service::new("metadata server", node, durable),
            nodes,
        }
    }

    pub fn new(node: NodeId) -> Self {
        Self::with(node, Arc::default(), None)
    }

    /// Metadata server whose node map is write-through mirrored into a
    /// [`pstore::Store`] at `dir`. Opening a non-empty directory *recovers*
    /// it: every stored tree node is decoded back into the striped map, so
    /// a restarted server answers exactly what it acknowledged before the
    /// crash.
    pub fn new_persistent(
        node: NodeId,
        dir: &Path,
        opts: pstore::StoreOptions,
    ) -> BlobResult<Self> {
        let nodes = Arc::new(Nodes::default());
        let durable = Durable::open(dir, opts, nodes.clone())?;
        Ok(Self::with(node, nodes, Some(durable)))
    }

    /// Store one server group of tree nodes: durably first (when
    /// persistent), then into the striped memory map. The store read guard
    /// is held across the whole group INCLUDING the flush — see
    /// [`crate::service`]: no node is ever acked and then lost.
    #[expect(
        clippy::indexing_slicing,
        reason = "subscripts are stripe_of() (`% NODE_STRIPES`) or enumerate() over a vector built with NODE_STRIPES entries, as `nodes` is"
    )]
    pub(crate) fn store_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> BlobResult<()> {
        if let Some(d) = self.store() {
            let g = d.read();
            let Some(s) = g.as_ref() else {
                return Err(self.down());
            };
            for (key, body) in &nodes {
                s.put(&key.encode(), &body.encode())
                    .map_err(|e| d.err(&e))?;
            }
            s.flush_buffered().map_err(|e| d.err(&e))?;
        }
        // Write-lock each touched stripe once for its share; untouched
        // stripes (and their concurrent readers) are never blocked.
        let mut by_stripe: Vec<Vec<(NodeKey, NodeBody)>> =
            (0..NODE_STRIPES).map(|_| Vec::new()).collect();
        for (key, body) in nodes {
            by_stripe[stripe_of(&key)].push((key, body));
        }
        for (si, share) in by_stripe.into_iter().enumerate() {
            if share.is_empty() {
                continue;
            }
            let mut stored = self.nodes.0[si].write();
            for (key, body) in share {
                if let Some(prev) = stored.get(&key) {
                    debug_assert_eq!(
                        prev, &body,
                        "metadata node {key:?} rewritten with different content"
                    );
                }
                stored.insert(key, body);
            }
        }
        Ok(())
    }

    /// Number of tree nodes stored on this server.
    pub fn node_count(&self) -> usize {
        self.nodes.0.iter().map(|s| s.read().len()).sum()
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
            p.rpc(server.node(), req, 16);
            if self.server_cpu_ops > 0 {
                p.compute(server.node(), self.server_cpu_ops * group.len() as u64);
            }
            server.served_put(group.len() as u64);
            server.store_nodes(group)?;
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
        reason = "`out` is sized to keys.len() and `i` enumerates `keys`; the rest are server_index() / stripe_of() or enumerate() over vectors sized to servers / stripes"
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
            server.served_get(group.len() as u64);
            let mut resp = 0u64;
            {
                // Read locks only, one per touched stripe: batched readers
                // share every stripe and never block each other.
                let mut by_stripe: Vec<Vec<usize>> =
                    (0..NODE_STRIPES).map(|_| Vec::new()).collect();
                for &i in &group {
                    by_stripe[stripe_of(&keys[i])].push(i);
                }
                for (si, idxs) in by_stripe.into_iter().enumerate() {
                    if idxs.is_empty() {
                        continue;
                    }
                    let stored = server.nodes.0[si].read();
                    for i in idxs {
                        let body = stored.get(&keys[i]).cloned();
                        resp += body.as_ref().map_or(16, |b| b.encoded_size() + 16);
                        out[i] = body;
                    }
                }
            }
            p.rpc(server.node(), 56 * group.len() as u64, resp);
            if self.server_cpu_ops > 0 {
                p.compute(server.node(), self.server_cpu_ops * group.len() as u64);
            }
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
}
