//! Datanodes: block storage servers (paper §2.2: "a file is split into
//! 64 MB chunks that are placed on storage nodes, called datanodes").

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fabric::{NodeId, Payload, Proc};
use parking_lot::Mutex;

use dfs::{FsError, FsResult};

/// One block-storage server.
pub struct Datanode {
    node: NodeId,
    alive: AtomicBool,
    blocks: Mutex<HashMap<u64, Payload>>,
    stored_bytes: AtomicU64,
}

impl Datanode {
    pub(crate) fn new(node: NodeId) -> Self {
        Datanode {
            node,
            alive: AtomicBool::new(true),
            blocks: Mutex::new(HashMap::new()),
            stored_bytes: AtomicU64::new(0),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    pub(crate) fn stored_bytes(&self) -> u64 {
        self.stored_bytes.load(Ordering::Relaxed)
    }

    pub fn block_count(&self) -> usize {
        self.blocks.lock().len()
    }

    /// Store a replica. The network cost of the write pipeline is charged by
    /// the client (a single chained flow), so this only records the data.
    pub(crate) fn store_replica(&self, id: u64, data: Payload) -> FsResult<()> {
        if !self.is_alive() {
            return Err(FsError::Storage(format!("datanode {} is down", self.node)));
        }
        let mut blocks = self.blocks.lock();
        if blocks.insert(id, data.clone()).is_none() {
            self.stored_bytes.fetch_add(data.len(), Ordering::Relaxed);
        }
        Ok(())
    }

    /// Serve a whole block to the calling client (charges the
    /// datanode→client transfer).
    pub(crate) fn read_block(&self, p: &Proc, id: u64) -> FsResult<Payload> {
        if !self.is_alive() {
            return Err(FsError::Storage(format!("datanode {} is down", self.node)));
        }
        let data =
            self.blocks.lock().get(&id).cloned().ok_or_else(|| {
                FsError::Storage(format!("block {id} not on datanode {}", self.node))
            })?;
        p.transfer(self.node, p.node(), data.len());
        Ok(data)
    }

    /// Drop a block (GC after file deletion).
    pub(crate) fn drop_block(&self, id: u64) {
        let mut blocks = self.blocks.lock();
        if let Some(b) = blocks.remove(&id) {
            self.stored_bytes.fetch_sub(b.len(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{ClusterSpec, Fabric};

    #[test]
    fn store_read_drop() {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let h = fx.spawn(NodeId(0), "t", |p| {
            let dn = Datanode::new(NodeId(1));
            dn.store_replica(7, Payload::from_vec(vec![1, 2, 3]))
                .unwrap();
            assert_eq!(dn.stored_bytes(), 3);
            assert_eq!(dn.read_block(p, 7).unwrap().bytes().as_ref(), &[1, 2, 3]);
            assert!(dn.read_block(p, 8).is_err());
            dn.drop_block(7);
            assert_eq!(dn.stored_bytes(), 0);
            assert_eq!(dn.block_count(), 0);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn dead_datanode_rejects() {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let h = fx.spawn(NodeId(0), "t", |p| {
            let dn = Datanode::new(NodeId(1));
            dn.store_replica(1, Payload::ghost(10)).unwrap();
            dn.kill();
            assert!(dn.read_block(p, 1).is_err());
            assert!(dn.store_replica(2, Payload::ghost(5)).is_err());
            dn.alive.store(true, Ordering::Release);
            assert_eq!(dn.read_block(p, 1).unwrap().len(), 10);
        });
        fx.run();
        h.take().unwrap();
    }
}
