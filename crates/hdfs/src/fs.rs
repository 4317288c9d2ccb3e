//! `HdfsSim`: the [`dfs::FileSystem`] implementation of the HDFS baseline.
//!
//! Client-side behaviour follows paper §2.2: writes buffer until a full
//! 64 MB chunk, which is then streamed through a replication pipeline
//! (modeled as one cut-through chained flow); reads prefetch whole chunks
//! ("readahead buffering"); `append` is not supported.

use std::collections::HashMap;
use std::sync::Arc;

use dfs::{
    BlockLocation, DfsPath, FileReader, FileStatus, FileSystem, FileWriter, FsError, FsResult,
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
    /// Modeled size of a control RPC.
    pub ctl_msg_bytes: u64,
    /// CPU charged on the namenode per request.
    pub nn_cpu_ops: u64,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            ctl_msg_bytes: 128,
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
            ..Self::default()
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
            config.ctl_msg_bytes,
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

struct HdfsWriter {
    inner: Arc<Inner>,
    path: DfsPath,
    lease: Lease,
    pending: Vec<Payload>,
    pending_len: u64,
    written: u64,
    closed: bool,
}

impl HdfsWriter {
    fn flush_blocks(&mut self, p: &Proc, all: bool) -> FsResult<()> {
        let bs = self.inner.config.block_size;
        loop {
            let flush_len = if self.pending_len >= bs {
                bs
            } else if all && self.pending_len > 0 {
                self.pending_len
            } else {
                return Ok(());
            };
            let buffered = Payload::concat(&self.pending);
            let block_data = buffered.slice(0, flush_len);
            let rest = self.pending_len - flush_len;
            self.pending.clear();
            if rest > 0 {
                self.pending.push(buffered.slice(flush_len, rest));
            }
            self.pending_len = rest;

            // Pipeline: namenode allocates, the client streams through the
            // replica chain as one cut-through flow, replicas store.
            let block = self.inner.nn.add_block(p, &self.path, self.lease)?;
            let mut chain = Vec::with_capacity(block.replicas.len() + 1);
            chain.push(p.node());
            chain.extend_from_slice(&block.replicas);
            p.transfer_chain(&chain, flush_len);
            for replica in &block.replicas {
                let dn = self
                    .inner
                    .dn_map
                    .get(replica)
                    .ok_or_else(|| FsError::Storage(format!("no datanode on {replica}")))?;
                dn.store_replica(block.id, block_data.clone())?;
            }
            self.inner
                .nn
                .complete_block(p, &self.path, self.lease, block.id, flush_len)?;
        }
    }
}

impl FileWriter for HdfsWriter {
    fn write(&mut self, p: &Proc, data: Payload) -> FsResult<()> {
        if self.closed {
            return Err(FsError::HandleClosed);
        }
        if data.is_empty() {
            return Ok(());
        }
        self.written += data.len();
        self.pending_len += data.len();
        self.pending.push(data);
        if self.pending_len >= self.inner.config.block_size {
            self.flush_blocks(p, false)?;
        }
        Ok(())
    }

    fn close(&mut self, p: &Proc) -> FsResult<()> {
        if self.closed {
            return Ok(());
        }
        self.flush_blocks(p, true)?;
        self.inner.nn.complete_file(p, &self.path, self.lease)?;
        self.closed = true;
        Ok(())
    }

    fn written(&self) -> u64 {
        self.written
    }
}

struct HdfsReader {
    inner: Arc<Inner>,
    blocks: Vec<BlockInfo>,
    /// Cumulative start offset of each block.
    offsets: Vec<u64>,
    total: u64,
    pos: u64,
    cache: Option<(u64, Payload)>,
}

impl HdfsReader {
    #[expect(
        clippy::indexing_slicing,
        reason = "`idx` is read()'s binary-search result over `offsets`, which parallels `blocks`"
    )]
    fn fetch_block(&self, p: &Proc, idx: usize) -> FsResult<Payload> {
        let block = &self.blocks[idx];
        // Prefer the local replica (short-circuit read), else random order.
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
                Ok(data) => return Ok(data),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

impl FileReader for HdfsReader {
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "binary search over `offsets` (offsets[0] == 0 <= pos): Ok(i) is in range and Err(i) lands on i - 1; the branch above populated the cache"
    )]
    fn read(&mut self, p: &Proc, len: u64) -> FsResult<Payload> {
        if self.pos >= self.total || len == 0 {
            return Ok(Payload::empty());
        }
        let cached =
            matches!(&self.cache, Some((s, d)) if self.pos >= *s && self.pos < s + d.len());
        if !cached {
            // Readahead: fetch the whole chunk containing `pos` (paper §2.2).
            let idx = match self.offsets.binary_search(&self.pos) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let data = self.fetch_block(p, idx)?;
            self.cache = Some((self.offsets[idx], data));
        }
        let (s, data) = self.cache.as_ref().expect("populated");
        let end = s + data.len();
        let n = len.min(end - self.pos).min(self.total - self.pos);
        let out = data.slice(self.pos - s, n);
        self.pos += n;
        Ok(out)
    }

    fn seek(&mut self, pos: u64) -> FsResult<()> {
        self.pos = pos;
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn len(&self) -> u64 {
        self.total
    }
}

impl FileSystem for HdfsSim {
    fn create(&self, p: &Proc, path: &DfsPath) -> FsResult<Box<dyn FileWriter>> {
        let lease = self
            .inner
            .nn
            .create_file(p, path, self.inner.config.block_size)?;
        Ok(Box::new(HdfsWriter {
            inner: self.inner.clone(),
            path: path.clone(),
            lease,
            pending: Vec::new(),
            pending_len: 0,
            written: 0,
            closed: false,
        }))
    }

    fn append(&self, _p: &Proc, _path: &DfsPath) -> FsResult<Box<dyn FileWriter>> {
        // Faithful to the evaluated HDFS release: the API exists, the
        // implementation refuses (paper §2.1).
        Err(FsError::AppendUnsupported { fs: "hdfs" })
    }

    fn open(&self, p: &Proc, path: &DfsPath) -> FsResult<Box<dyn FileReader>> {
        let (blocks, _) = self.inner.nn.get_blocks(p, path)?;
        let mut offsets = Vec::with_capacity(blocks.len());
        let mut total = 0;
        for b in &blocks {
            offsets.push(total);
            total += b.len;
        }
        Ok(Box::new(HdfsReader {
            inner: self.inner.clone(),
            blocks,
            offsets,
            total,
            pos: 0,
            cache: None,
        }))
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
