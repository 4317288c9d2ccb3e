//! The metadata-provider DHT (paper §3.1.1: "the information concerning the
//! location of the pages for each BLOB version is kept in a Distributed
//! HashTable, managed by several metadata providers").
//!
//! Node keys are deterministic `(blob, version, page range)` triples
//! (see [`crate::meta`]); a key hashes to exactly one metadata provider, so
//! concurrent writers updating different tree paths talk to different
//! servers and scale out — the paper deploys 20 of them on 270 nodes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{NodeId, Proc};
use parking_lot::RwLock;

use crate::error::{BlobError, BlobResult};
use crate::meta::{NodeBody, NodeKey, NODE_KEY_PREFIX};

/// Stripe count of one server's node map. Keys spread via the upper bits of
/// the same FNV hash that routes them to a server (the lower bits picked the
/// server, so within a server the upper bits stay uniform).
const NODE_STRIPES: usize = 16;

fn stripe_of(key: &NodeKey) -> usize {
    ((hash_key(key) >> 32) % NODE_STRIPES as u64) as usize
}

/// One metadata server holding a shard of the tree-node space.
///
/// The node map is lock-striped (`RwLock<HashMap>` per stripe): a batched
/// `get_batch` takes only read locks — concurrent readers never block each
/// other — and a `put_batch` write-locks exactly the stripes its share of
/// nodes hashes to, never the whole server for the whole batch.
pub struct MetaServer {
    node: NodeId,
    alive: AtomicBool,
    nodes: Vec<RwLock<HashMap<NodeKey, NodeBody>>>,
    puts: AtomicU64,
    gets: AtomicU64,
    put_rpcs: AtomicU64,
    get_rpcs: AtomicU64,
    /// Durable write-through of the node map (see [`Self::new_persistent`]).
    /// The striped in-memory map stays the authoritative read path; the
    /// store exists to survive a crash-restart.
    persist: Option<MetaPersist>,
    /// Completed crash-restart recoveries (diagnostics).
    recoveries: AtomicU64,
}

struct MetaPersist {
    /// `None` while crash-wiped (between `crash_wipe` and `recover`).
    store: RwLock<Option<pstore::Store>>,
    dir: PathBuf,
    opts: pstore::StoreOptions,
}

impl MetaServer {
    pub fn new(node: NodeId) -> Self {
        MetaServer {
            node,
            alive: AtomicBool::new(true),
            nodes: (0..NODE_STRIPES)
                .map(|_| RwLock::with_rank(HashMap::new(), crate::lock_ranks::STRIPES))
                .collect(),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            put_rpcs: AtomicU64::new(0),
            get_rpcs: AtomicU64::new(0),
            persist: None,
            recoveries: AtomicU64::new(0),
        }
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
        let store = pstore::Store::open_with(dir, opts.clone())
            .map_err(|e| BlobError::persistence(dir, &e))?;
        let mut server = Self::new(node);
        server.load_stripes(&store, dir)?;
        server.persist = Some(MetaPersist {
            store: RwLock::new(Some(store)),
            dir: dir.to_path_buf(),
            opts,
        });
        Ok(server)
    }

    /// Rebuild the striped in-memory map from the `n/` namespace of `store`
    /// (replacing whatever the stripes currently hold). Takes the store
    /// *before* it is installed: a restart that cannot read its nodes back
    /// must fail as a whole, not come up alive and empty. The scan is the
    /// fallible step and runs first, so a failed reload changes nothing.
    fn load_stripes(&self, store: &pstore::Store, dir: &Path) -> BlobResult<()> {
        let records = store
            .scan_prefix(NODE_KEY_PREFIX)
            .map_err(|e| BlobError::persistence(dir, &e))?;
        for stripe in &self.nodes {
            stripe.write().clear();
        }
        for (k, v) in records {
            let (Some(key), Some(body)) = (NodeKey::decode(&k), NodeBody::decode(&v)) else {
                // Malformed record: skip it — the write path only ever
                // stores codec output, so this is corruption the CRC
                // already let through; losing one node degrades to a
                // MetadataMissing read error, never a panic.
                continue;
            };
            #[expect(clippy::indexing_slicing, reason = "stripe_of is `% NODE_STRIPES`")]
            self.nodes[stripe_of(&key)].write().insert(key, body);
        }
        Ok(())
    }

    /// Store one server group of tree nodes: durably first (when
    /// persistent), then into the striped memory map. The store read guard
    /// is held across the whole group INCLUDING the flush, so a concurrent
    /// [`Self::crash_wipe`] serializes entirely before the group (it fails
    /// `ProviderDown`) or entirely after (every acknowledged node is on the
    /// OS side of a process crash).
    #[expect(
        clippy::indexing_slicing,
        reason = "subscripts are stripe_of() (`% NODE_STRIPES`) or enumerate() over a vector built with NODE_STRIPES entries, as `nodes` is"
    )]
    pub(crate) fn store_nodes(&self, nodes: Vec<(NodeKey, NodeBody)>) -> BlobResult<()> {
        if let Some(mp) = &self.persist {
            let g = mp.store.read();
            let Some(s) = g.as_ref() else {
                return Err(BlobError::ProviderDown { node: self.node.0 });
            };
            for (key, body) in &nodes {
                s.put(&key.encode(), &body.encode())
                    .map_err(|e| BlobError::persistence(&mp.dir, &e))?;
            }
            s.flush_buffered()
                .map_err(|e| BlobError::persistence(&mp.dir, &e))?;
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
            let mut stored = self.nodes[si].write();
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

    /// Process-crash injection for persistent metadata servers: stop
    /// serving, drop the striped map, all counters and any buffered
    /// unacknowledged records — keep only the on-disk store directory.
    /// Memory-only servers answer `UnsupportedFault`.
    pub fn crash_wipe(&self) -> BlobResult<()> {
        let Some(mp) = &self.persist else {
            return Err(BlobError::UnsupportedFault(format!(
                "metadata server on {} holds its node map in memory only; \
                 CrashRestart requires a persist_dir deployment",
                self.node
            )));
        };
        self.kill();
        if let Some(s) = mp.store.write().take() {
            s.abandon();
        }
        for stripe in &self.nodes {
            stripe.write().clear();
        }
        for c in [&self.puts, &self.gets, &self.put_rpcs, &self.get_rpcs] {
            c.store(0, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Restart a crash-wiped metadata server from its store directory:
    /// replay from the newest checkpoint, rebuild the striped map, resume
    /// serving. Returns the bytes replayed past the checkpoint. Idempotent:
    /// recovering a server that was never wiped just revives it. A restart
    /// that fails leaves the server wiped and down.
    pub fn recover(&self) -> BlobResult<u64> {
        let Some(mp) = &self.persist else {
            return Err(BlobError::UnsupportedFault(format!(
                "metadata server on {} holds its node map in memory only; nothing to recover",
                self.node
            )));
        };
        let mut g = mp.store.write();
        let replayed = if g.is_none() {
            let store = pstore::Store::open_with(&mp.dir, mp.opts.clone())
                .map_err(|e| BlobError::persistence(&mp.dir, &e))?;
            let replayed = store.replayed_bytes();
            self.load_stripes(&store, &mp.dir)?;
            *g = Some(store);
            drop(g);
            self.recoveries.fetch_add(1, Ordering::Relaxed);
            replayed
        } else {
            0
        };
        self.revive();
        Ok(replayed)
    }

    /// True between [`Self::crash_wipe`] and [`Self::recover`].
    pub fn is_wiped(&self) -> bool {
        matches!(&self.persist, Some(mp) if mp.store.read().is_none())
    }

    /// Completed crash-restart recoveries.
    pub fn recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Number of tree nodes stored on this server.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().map(|s| s.read().len()).sum()
    }

    /// (puts, gets) served — counted per *node*, however the nodes were
    /// shipped (a batch of k nodes counts k).
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
        )
    }

    /// (put, get) wire round-trips served — a batch counts once. The gap
    /// between [`Self::op_counts`] and this is the batching win.
    pub fn rpc_counts(&self) -> (u64, u64) {
        (
            self.put_rpcs.load(Ordering::Relaxed),
            self.get_rpcs.load(Ordering::Relaxed),
        )
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

    /// The server responsible for `key`.
    #[expect(
        clippy::indexing_slicing,
        reason = "server_index() is `% servers.len()`"
    )]
    pub fn server_for(&self, key: &NodeKey) -> &Arc<MetaServer> {
        &self.servers[self.server_index(key)]
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
                return Err(BlobError::ProviderDown {
                    node: server.node.0,
                });
            }
            let req: u64 = group.iter().map(|(_, b)| b.encoded_size() + 40).sum();
            p.rpc(server.node, req, 16);
            if self.server_cpu_ops > 0 {
                p.compute(server.node, self.server_cpu_ops * group.len() as u64);
            }
            server.put_rpcs.fetch_add(1, Ordering::Relaxed);
            server.puts.fetch_add(group.len() as u64, Ordering::Relaxed);
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
                return Err(BlobError::ProviderDown {
                    node: server.node.0,
                });
            }
            server.get_rpcs.fetch_add(1, Ordering::Relaxed);
            server.gets.fetch_add(group.len() as u64, Ordering::Relaxed);
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
                    let stored = server.nodes[si].read();
                    for i in idxs {
                        let body = stored.get(&keys[i]).cloned();
                        resp += body.as_ref().map_or(16, |b| b.encoded_size() + 16);
                        out[i] = body;
                    }
                }
            }
            p.rpc(server.node, 56 * group.len() as u64, resp);
            if self.server_cpu_ops > 0 {
                p.compute(server.node, self.server_cpu_ops * group.len() as u64);
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
    use crate::types::{BlobId, PageId};
    use fabric::{ClusterSpec, Fabric};

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

    fn with_proc<T: Send + 'static>(f: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let h = fx.spawn(NodeId(0), "t", f);
        fx.run();
        h.take().unwrap()
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
            assert_eq!(d1.server_for(&k).node(), d2.server_for(&k).node());
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
        let dir = std::env::temp_dir().join(format!("meta-pstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
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

            server.crash_wipe().unwrap();
            assert!(server.is_wiped());
            assert_eq!(server.node_count(), 0, "wipe drops the whole map");
            assert!(matches!(
                d.get(p, &key(1, 0, 1)),
                Err(BlobError::ProviderDown { .. })
            ));

            let replayed = server.recover().unwrap();
            assert!(replayed > 0, "no checkpoint: the whole log replays");
            assert_eq!(server.recoveries(), 1);
            assert_eq!(server.node_count(), 39, "every acked node came back");
            for (k, body) in &items {
                assert_eq!(d.get(p, k).unwrap().as_ref(), Some(body));
            }
            // Idempotent on a live server.
            assert_eq!(server.recover().unwrap(), 0);
            assert_eq!(server.recoveries(), 1);

            // Memory-only servers cannot model a restart.
            let mem = MetaServer::new(NodeId(1));
            assert!(matches!(
                mem.crash_wipe(),
                Err(BlobError::UnsupportedFault(_))
            ));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_meta_server_reopens_from_directory() {
        let dir = std::env::temp_dir().join(format!("meta-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d2 = dir.clone();
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
        let d3 = dir.clone();
        with_proc(move |p| {
            let server = Arc::new(
                MetaServer::new_persistent(NodeId(0), &d3, pstore::StoreOptions::default())
                    .unwrap(),
            );
            assert_eq!(server.node_count(), 1);
            let d = MetaDht::new(vec![server], 0);
            assert_eq!(d.get(p, &key(5, 0, 1)).unwrap(), Some(leaf(5)));
        });
        let _ = std::fs::remove_dir_all(&dir);
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
