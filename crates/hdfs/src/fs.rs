//! `HdfsSim`: the [`dfs::FileSystem`] implementation of the HDFS baseline.
//!
//! Client-side behaviour follows paper §2.2: [`dfs`]'s shared handles
//! buffer writes until a full 64 MB chunk, which this file's sink streams
//! through a replication pipeline (modeled as one cut-through chained
//! flow), and prefetch whole chunks on reads from this file's source
//! ("readahead buffering"); `append` is not supported.

use std::collections::HashMap;
use std::sync::Arc;

use dfs::{
    BlockLocation, BlockSink, DfsPath, FileReader, FileStatus, FileSystem, FileWriter, FsError,
    FsResult, WindowSource,
};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use rand::seq::SliceRandom;

use crate::datanode::Datanode;
use crate::namenode::{BlockInfo, Lease, Namenode, NnStatus};

/// Deployment tunables.
#[derive(Debug, Clone)]
pub struct HdfsConfig {
    /// Chunk size; 64 MB in the paper (§2.2).
    pub block_size: u64,
    /// Replication factor (HDFS default 3; clamped to the datanode count).
    pub replication: usize,
    /// CPU charged on the namenode per request.
    pub nn_cpu_ops: u64,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            nn_cpu_ops: 1_000_000,
        }
    }
}

impl HdfsConfig {
    /// Paper-style deployment config.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Small blocks for functional tests.
    pub fn test_small(block_size: u64) -> Self {
        HdfsConfig {
            block_size,
            replication: 1,
            nn_cpu_ops: 0,
        }
    }

    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r.max(1);
        self
    }
}

/// Node placement for an HDFS deployment.
#[derive(Debug, Clone)]
pub struct HdfsLayout {
    pub namenode: NodeId,
    pub datanodes: Vec<NodeId>,
}

impl HdfsLayout {
    /// Paper layout (§4.1): "for HDFS we deployed the namenode on a
    /// dedicated machine and the datanodes on the remaining nodes". The
    /// datanode set mirrors the BSFS provider set (nodes 23..N) so both
    /// systems store data on identical machines in comparisons.
    pub fn paper(spec: &ClusterSpec) -> HdfsLayout {
        assert!(spec.nodes >= 30, "paper layout needs >= 30 nodes");
        HdfsLayout {
            namenode: NodeId(0),
            datanodes: (23..spec.nodes).map(NodeId).collect(),
        }
    }

    /// Tiny layout for tests.
    pub fn compact(spec: &ClusterSpec) -> HdfsLayout {
        HdfsLayout {
            namenode: NodeId(0),
            datanodes: spec.all_nodes().collect(),
        }
    }
}

struct Inner {
    nn: Arc<Namenode>,
    datanodes: Vec<Arc<Datanode>>,
    dn_map: HashMap<NodeId, Arc<Datanode>>,
    config: HdfsConfig,
}

/// A deployed HDFS instance (cheap to clone; clones share the deployment).
#[derive(Clone)]
pub struct HdfsSim {
    inner: Arc<Inner>,
}

impl HdfsSim {
    pub fn deploy(_fabric: &Fabric, config: HdfsConfig, layout: HdfsLayout) -> HdfsSim {
        let datanodes: Vec<Arc<Datanode>> = layout
            .datanodes
            .iter()
            .map(|&n| Arc::new(Datanode::new(n)))
            .collect();
        let dn_map = datanodes.iter().map(|d| (d.node(), d.clone())).collect();
        let nn = Arc::new(Namenode::new(
            layout.namenode,
            layout.datanodes.clone(),
            config.replication,
            config.nn_cpu_ops,
        ));
        HdfsSim {
            inner: Arc::new(Inner {
                nn,
                datanodes,
                dn_map,
                config,
            }),
        }
    }

    /// Deploy with the paper layout.
    pub fn deploy_paper(fabric: &Fabric, config: HdfsConfig) -> HdfsSim {
        let layout = HdfsLayout::paper(fabric.spec());
        Self::deploy(fabric, config, layout)
    }

    pub fn datanodes(&self) -> &[Arc<Datanode>] {
        &self.inner.datanodes
    }

    /// Total bytes stored across datanodes (all replicas).
    pub fn total_stored_bytes(&self) -> u64 {
        self.inner.datanodes.iter().map(|d| d.stored_bytes()).sum()
    }

    /// A directory reports the deployment's block size, a file its own.
    fn file_status(&self, path: DfsPath, (is_dir, len, block_size): NnStatus) -> FileStatus {
        let dir_block_size = self.inner.config.block_size;
        FileStatus {
            path,
            len,
            is_dir,
            block_size: if is_dir { dir_block_size } else { block_size },
        }
    }
}

/// Each run the writer flushes is one block, streamed through its own
/// replication pipeline: the namenode allocates it, the client streams it
/// through the replica chain as one cut-through flow, the replicas store
/// it and the namenode records its length. A pipeline that fails abandons
/// its block: the namenode forgets it and the datanodes drop it, as
/// `delete` does. Closing completes the file.
struct Pipelines {
    inner: Arc<Inner>,
    path: DfsPath,
    lease: Lease,
}

impl BlockSink for Pipelines {
    fn ship(&mut self, p: &Proc, run: Payload) -> FsResult<()> {
        let nn = &self.inner.nn;
        let block = nn.add_block(p, &self.path, self.lease)?;
        let mut chain = Vec::with_capacity(block.replicas.len() + 1);
        chain.push(p.node());
        chain.extend_from_slice(&block.replicas);
        p.transfer_chain(&chain, run.len());
        let stored = block.replicas.iter().try_for_each(|replica| {
            let dn = (self.inner.dn_map.get(replica))
                .ok_or_else(|| FsError::Storage(format!("no datanode on {replica}")))?;
            dn.store_replica(block.id, run.clone())
        });
        if let Err(e) = stored {
            nn.abandon_block(p, &self.path, self.lease, block.id)?;
            for dn in &self.inner.datanodes {
                dn.drop_block(block.id);
            }
            return Err(e);
        }
        nn.complete_block(p, &self.path, self.lease, block.id, run.len())
    }

    fn seal(&mut self, p: &Proc) -> FsResult<()> {
        self.inner.nn.complete_file(p, &self.path, self.lease)
    }
}

/// Readahead (paper §2.2): the window holding a position is the whole
/// block containing it, from the local replica if there is one, else from
/// the replicas in random order.
struct Blocks {
    inner: Arc<Inner>,
    /// Each block with its start offset in the file.
    blocks: Vec<(u64, BlockInfo)>,
}

impl WindowSource for Blocks {
    fn window(&self, p: &Proc, pos: u64) -> FsResult<(u64, Payload)> {
        let idx = self.blocks.partition_point(|(start, _)| *start <= pos);
        let Some((start, block)) = idx.checked_sub(1).and_then(|i| self.blocks.get(i)) else {
            return Err(FsError::Storage(format!("no block holds offset {pos}")));
        };
        let mut order = block.replicas.clone();
        {
            let mut rng = p.rng();
            order.shuffle(&mut *rng);
        }
        if let Some(i) = order.iter().position(|n| *n == p.node()) {
            order.swap(0, i);
        }
        let mut last = FsError::Storage(format!("block {} has no replicas", block.id));
        for node in order {
            let Some(dn) = self.inner.dn_map.get(&node) else {
                continue;
            };
            match dn.read_block(p, block.id) {
                Ok(data) => return Ok((*start, data)),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

impl FileSystem for HdfsSim {
    fn create(&self, p: &Proc, path: &DfsPath) -> FsResult<FileWriter> {
        let block_size = self.inner.config.block_size;
        let lease = self.inner.nn.create_file(p, path, block_size)?;
        let sink = Pipelines {
            inner: self.inner.clone(),
            path: path.clone(),
            lease,
        };
        Ok(FileWriter::new(Box::new(sink), block_size, block_size))
    }

    fn append(&self, _p: &Proc, _path: &DfsPath) -> FsResult<FileWriter> {
        // Faithful to the evaluated HDFS release: the API exists, the
        // implementation refuses (paper §2.1).
        Err(FsError::AppendUnsupported { fs: "hdfs" })
    }

    fn open(&self, p: &Proc, path: &DfsPath) -> FsResult<FileReader> {
        let (infos, _) = self.inner.nn.get_blocks(p, path)?;
        let mut blocks = Vec::with_capacity(infos.len());
        let mut total = 0;
        for b in infos {
            let len = b.len;
            blocks.push((total, b));
            total += len;
        }
        let inner = self.inner.clone();
        Ok(FileReader::new(Box::new(Blocks { inner, blocks }), total))
    }

    fn delete(&self, p: &Proc, path: &DfsPath, recursive: bool) -> FsResult<bool> {
        let (removed, gc) = self.inner.nn.delete(p, path, recursive)?;
        for id in gc {
            for dn in &self.inner.datanodes {
                dn.drop_block(id);
            }
        }
        Ok(removed)
    }

    fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        self.inner.nn.rename(p, src, dst)
    }

    fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()> {
        self.inner.nn.mkdirs(p, path)
    }

    fn status(&self, p: &Proc, path: &DfsPath) -> FsResult<FileStatus> {
        let status = self.inner.nn.status(p, path)?;
        Ok(self.file_status(path.clone(), status))
    }

    fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<FileStatus>> {
        let children = self.inner.nn.list(p, path)?.into_iter();
        Ok(children
            .map(|(child, status)| self.file_status(child, status))
            .collect())
    }

    fn block_locations(
        &self,
        p: &Proc,
        path: &DfsPath,
        offset: u64,
        len: u64,
    ) -> FsResult<Vec<BlockLocation>> {
        let (blocks, _) = self.inner.nn.get_blocks(p, path)?;
        let mut out = Vec::new();
        let mut off = 0;
        for b in &blocks {
            if off < offset + len && offset < off + b.len {
                out.push(BlockLocation {
                    offset: off,
                    len: b.len,
                    hosts: b.replicas.clone(),
                });
            }
            off += b.len;
        }
        Ok(out)
    }

    fn default_block_size(&self) -> u64 {
        self.inner.config.block_size
    }

    fn supports_append(&self) -> bool {
        false
    }

    fn scheme(&self) -> &'static str {
        "hdfs"
    }
}
