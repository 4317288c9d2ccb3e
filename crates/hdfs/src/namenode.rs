//! The HDFS namenode: "a centralized namenode is responsible for keeping
//! the file metadata and the chunk location" (paper §2.2).
//!
//! Semantics follow HDFS 0.20, the release the paper evaluates:
//! write-once-read-many, single-writer leases, random block placement
//! ("HDFS picks random servers to store the data, which will often lead to
//! a layout that is not load balanced"), and **no append** — that error is
//! raised at the FileSystem layer.

use dfs::{DfsPath, Entry, FsError, FsResult, Namespace};
use fabric::{NodeId, Proc};
use parking_lot::Mutex;
use rand::seq::SliceRandom;

/// One block of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    pub id: u64,
    pub len: u64,
    pub replicas: Vec<NodeId>,
}

/// Lease token proving write ownership of an under-construction file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease(pub u64);

#[derive(Debug, Clone)]
struct NnFile {
    blocks: Vec<BlockInfo>,
    /// `Some(lease)` while under construction; `None` once closed
    /// (immutable from then on).
    lease: Option<Lease>,
    block_size: u64,
}

/// `(is_dir, len, block_size)` of a path.
pub(crate) type NnStatus = (bool, u64, u64);

fn entry_status(entry: &Entry<NnFile>) -> NnStatus {
    match entry {
        Entry::Dir => (true, 0, 0),
        Entry::File(f) => (false, f.blocks.iter().map(|b| b.len).sum(), f.block_size),
    }
}

struct NnState {
    entries: Namespace<NnFile>,
    next_block: u64,
    next_lease: u64,
}

impl NnState {
    /// The under-construction file at `path`, if `lease` owns it.
    fn leased(&mut self, path: &DfsPath, lease: Lease) -> FsResult<&mut NnFile> {
        let file = self.entries.file_mut(path)?;
        if file.lease != Some(lease) {
            return Err(FsError::LeaseConflict(path.clone()));
        }
        Ok(file)
    }
}

/// The centralized metadata service.
pub struct Namenode {
    node: NodeId,
    datanodes: Vec<NodeId>,
    replication: usize,
    ctl_msg_bytes: u64,
    cpu_ops: u64,
    state: Mutex<NnState>,
}

impl Namenode {
    pub(crate) fn new(
        node: NodeId,
        datanodes: Vec<NodeId>,
        replication: usize,
        ctl_msg_bytes: u64,
        cpu_ops: u64,
    ) -> Self {
        assert!(!datanodes.is_empty(), "namenode needs datanodes");
        let replication = replication.min(datanodes.len()).max(1);
        Namenode {
            node,
            datanodes,
            replication,
            ctl_msg_bytes,
            cpu_ops,
            state: Mutex::new(NnState {
                entries: Namespace::default(),
                next_block: 1,
                next_lease: 1,
            }),
        }
    }

    fn charge(&self, p: &Proc) {
        p.rpc(self.node, self.ctl_msg_bytes, self.ctl_msg_bytes);
        if self.cpu_ops > 0 {
            p.compute(self.node, self.cpu_ops);
        }
    }

    /// Start a new file under construction; returns the write lease.
    pub(crate) fn create_file(&self, p: &Proc, path: &DfsPath, block_size: u64) -> FsResult<Lease> {
        self.charge(p);
        let mut st = self.state.lock();
        let lease = Lease(st.next_lease);
        let file = NnFile {
            blocks: Vec::new(),
            lease: Some(lease),
            block_size,
        };
        st.entries.insert_file(path, file)?;
        st.next_lease += 1;
        Ok(lease)
    }

    /// Allocate the next block of an under-construction file on
    /// `replication` random datanodes.
    pub(crate) fn add_block(&self, p: &Proc, path: &DfsPath, lease: Lease) -> FsResult<BlockInfo> {
        self.charge(p);
        let replicas: Vec<NodeId> = {
            let mut rng = p.rng();
            self.datanodes
                .choose_multiple(&mut *rng, self.replication)
                .copied()
                .collect()
        };
        let mut st = self.state.lock();
        let id = st.next_block;
        st.next_block += 1;
        let info = BlockInfo {
            id,
            len: 0,
            replicas,
        };
        st.leased(path, lease)?.blocks.push(info.clone());
        Ok(info)
    }

    /// Record the final length of a block once its pipeline finished.
    pub(crate) fn complete_block(
        &self,
        p: &Proc,
        path: &DfsPath,
        lease: Lease,
        block_id: u64,
        len: u64,
    ) -> FsResult<()> {
        self.charge(p);
        let mut st = self.state.lock();
        let b = st
            .leased(path, lease)?
            .blocks
            .iter_mut()
            .find(|b| b.id == block_id)
            .ok_or_else(|| FsError::Storage(format!("unknown block {block_id}")))?;
        b.len = len;
        Ok(())
    }

    /// Close the file: release the lease and freeze it forever.
    pub(crate) fn complete_file(&self, p: &Proc, path: &DfsPath, lease: Lease) -> FsResult<()> {
        self.charge(p);
        self.state.lock().leased(path, lease)?.lease = None;
        Ok(())
    }

    /// Blocks of a file (readers; includes under-construction files, whose
    /// completed prefix is readable, matching 0.20 behaviour).
    pub(crate) fn get_blocks(&self, p: &Proc, path: &DfsPath) -> FsResult<(Vec<BlockInfo>, u64)> {
        self.charge(p);
        let st = self.state.lock();
        let file = st.entries.file(path)?;
        Ok((file.blocks.clone(), file.block_size))
    }

    pub(crate) fn status(&self, p: &Proc, path: &DfsPath) -> FsResult<NnStatus> {
        self.charge(p);
        self.state.lock().entries.get(path).map(entry_status)
    }

    pub(crate) fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()> {
        self.charge(p);
        self.state.lock().entries.mkdirs(path)
    }

    /// Children of a directory with their status, in name order.
    pub(crate) fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<(DfsPath, NnStatus)>> {
        self.charge(p);
        let st = self.state.lock();
        let children = st.entries.children(path)?.into_iter();
        Ok(children
            .map(|(k, v)| (k.clone(), entry_status(v)))
            .collect())
    }

    pub(crate) fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        self.charge(p);
        self.state.lock().entries.rename(src, dst)
    }

    /// Delete; returns `(removed, block ids to GC)`, the ids in path order.
    pub(crate) fn delete(
        &self,
        p: &Proc,
        path: &DfsPath,
        recursive: bool,
    ) -> FsResult<(bool, Vec<u64>)> {
        self.charge(p);
        let removed = self.state.lock().entries.remove(path, recursive)?;
        let blocks = removed.iter().flatten().flat_map(|f| &f.blocks);
        let gc = blocks.map(|b| b.id).collect();
        Ok((removed.is_some(), gc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{ClusterSpec, Fabric};

    fn d(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    fn with_proc<T: Send + 'static>(f: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let h = fx.spawn(NodeId(0), "t", f);
        fx.run();
        h.take().unwrap()
    }

    fn nn() -> Namenode {
        Namenode::new(NodeId(0), (1..8).map(NodeId).collect(), 3, 64, 0)
    }

    #[test]
    fn create_write_close_lifecycle() {
        with_proc(|p| {
            let nn = nn();
            let lease = nn.create_file(p, &d("/f"), 1000).unwrap();
            let b1 = nn.add_block(p, &d("/f"), lease).unwrap();
            assert_eq!(b1.replicas.len(), 3);
            nn.complete_block(p, &d("/f"), lease, b1.id, 1000).unwrap();
            let b2 = nn.add_block(p, &d("/f"), lease).unwrap();
            nn.complete_block(p, &d("/f"), lease, b2.id, 400).unwrap();
            nn.complete_file(p, &d("/f"), lease).unwrap();
            let (is_dir, len, bs) = nn.status(p, &d("/f")).unwrap();
            assert!(!is_dir);
            assert_eq!(len, 1400);
            assert_eq!(bs, 1000);
            // Lease is gone: further writes rejected.
            assert!(matches!(
                nn.add_block(p, &d("/f"), lease),
                Err(FsError::LeaseConflict(_))
            ));
        });
    }

    #[test]
    fn stale_lease_is_rejected() {
        with_proc(|p| {
            let nn = nn();
            let lease = nn.create_file(p, &d("/f"), 1000).unwrap();
            let fake = Lease(lease.0 + 999);
            assert!(matches!(
                nn.add_block(p, &d("/f"), fake),
                Err(FsError::LeaseConflict(_))
            ));
        });
    }

    #[test]
    fn random_placement_uses_distinct_nodes() {
        with_proc(|p| {
            let nn = nn();
            let lease = nn.create_file(p, &d("/f"), 1000).unwrap();
            for _ in 0..10 {
                let b = nn.add_block(p, &d("/f"), lease).unwrap();
                let mut r: Vec<u32> = b.replicas.iter().map(|n| n.0).collect();
                r.sort_unstable();
                r.dedup();
                assert_eq!(r.len(), 3);
            }
        });
    }

    #[test]
    fn replication_clamped_to_cluster_size() {
        let nn = Namenode::new(NodeId(0), vec![NodeId(1), NodeId(2)], 3, 64, 0);
        assert_eq!(nn.replication, 2);
    }

    #[test]
    fn delete_returns_blocks_for_gc() {
        with_proc(|p| {
            let nn = nn();
            let lease = nn.create_file(p, &d("/dir/f"), 1000).unwrap();
            let b = nn.add_block(p, &d("/dir/f"), lease).unwrap();
            nn.complete_block(p, &d("/dir/f"), lease, b.id, 10).unwrap();
            nn.complete_file(p, &d("/dir/f"), lease).unwrap();
            let (removed, gc) = nn.delete(p, &d("/dir"), true).unwrap();
            assert!(removed);
            assert_eq!(gc, vec![b.id]);
        });
    }
}
