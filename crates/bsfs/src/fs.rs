//! `Bsfs`: the [`dfs::FileSystem`] implementation over BlobSeer.

use std::sync::Arc;

use blobseer::{BlobId, BlobSeer, BlobSeerConfig, Layout, ReaperHandle};
use dfs::{
    BlockLocation, DfsPath, FileReader, FileStatus, FileSystem, FileWriter, FsError, FsResult,
};
use fabric::{Fabric, NodeId, Payload, Proc};

use crate::file::{to_fs_err, Appends, SnapshotBlocks};
use crate::namespace::{NamespaceManager, NsEntry, NsFile};

/// The BlobSeer File System (paper §3.2): a namespace manager mapping files
/// to BLOBs plus client-side block caching, exposing the Hadoop
/// `FileSystem` surface *including* `append`.
#[derive(Clone)]
pub struct Bsfs {
    ns: Arc<NamespaceManager>,
    client: Arc<blobseer::BlobClient>,
    store: BlobSeer,
}

impl Bsfs {
    /// Wrap an already-deployed BlobSeer store; the namespace manager is
    /// hosted on `ns_node` (the paper gives it a dedicated node, §4.1).
    pub fn new(store: BlobSeer, ns_node: NodeId) -> Bsfs {
        let cfg = store.config();
        let ns = Arc::new(NamespaceManager::new(ns_node, cfg.vm_cpu_ops));
        let client = Arc::new(store.client());
        Bsfs { ns, client, store }
    }

    /// Deploy BlobSeer + BSFS in one call.
    pub fn deploy(fabric: &Fabric, config: BlobSeerConfig, layout: Layout) -> FsResult<Bsfs> {
        let ns_node = layout.namespace;
        let store = BlobSeer::deploy(fabric, config, layout)
            .map_err(|e| FsError::Storage(e.to_string()))?;
        Ok(Bsfs::new(store, ns_node))
    }

    /// Deploy with the paper's 270-node layout.
    pub fn deploy_paper(fabric: &Fabric, config: BlobSeerConfig) -> FsResult<Bsfs> {
        let layout = Layout::paper(fabric.spec());
        Self::deploy(fabric, config, layout)
    }

    pub fn namespace(&self) -> &Arc<NamespaceManager> {
        &self.ns
    }

    pub fn store(&self) -> &BlobSeer {
        &self.store
    }

    /// Start the store's background reaper (expired pending writes, expired
    /// provider leases) as an opt-in service — see
    /// [`BlobSeer::start_reaper`]. Deployments that skip it keep the lazy
    /// piggybacked reaping.
    pub fn start_reaper(&self, fabric: &Fabric) -> ReaperHandle {
        self.store.start_reaper(fabric)
    }

    /// The BLOB backing `path` (tests/diagnostics).
    pub fn blob_of(&self, p: &Proc, path: &DfsPath) -> FsResult<BlobId> {
        Ok(self.file_entry(p, path)?.0)
    }

    fn entry_status(&self, p: &Proc, path: DfsPath, entry: NsEntry) -> FsResult<FileStatus> {
        Ok(match entry {
            NsEntry::Dir => FileStatus {
                path,
                len: 0,
                is_dir: true,
                block_size: self.default_block_size(),
            },
            NsEntry::File(NsFile { blob, block_size }) => FileStatus {
                path,
                // Size is authoritative at the version manager: length of the
                // latest *published* version.
                len: self.client.size(p, blob, None).map_err(to_fs_err)?,
                is_dir: false,
                block_size,
            },
        })
    }

    fn file_entry(&self, p: &Proc, path: &DfsPath) -> FsResult<(BlobId, u64)> {
        Self::as_file(path, self.ns.lookup(p, path)?)
    }

    /// A writer appending whole blocks to `blob`, all buffered ones at once.
    fn writer(&self, blob: BlobId, block_size: u64) -> FileWriter {
        let client = self.client.clone();
        FileWriter::new(Box::new(Appends { client, blob }), block_size, u64::MAX)
    }

    fn as_file(path: &DfsPath, entry: NsEntry) -> FsResult<(BlobId, u64)> {
        match entry {
            NsEntry::File(f) => Ok((f.blob, f.block_size)),
            NsEntry::Dir => Err(FsError::IsADirectory(path.clone())),
        }
    }
}

impl FileSystem for Bsfs {
    fn create(&self, p: &Proc, path: &DfsPath) -> FsResult<FileWriter> {
        let block_size = self.default_block_size();
        // Namespace insertion first (it owns the AlreadyExists/NotADirectory
        // checks), then bind the fresh BLOB.
        let blob = self.client.create(p, Some(block_size));
        self.ns.create_file(p, path, blob, block_size)?;
        Ok(self.writer(blob, block_size))
    }

    fn append(&self, p: &Proc, path: &DfsPath) -> FsResult<FileWriter> {
        let (blob, block_size) = self.file_entry(p, path)?;
        Ok(self.writer(blob, block_size))
    }

    fn open(&self, p: &Proc, path: &DfsPath) -> FsResult<FileReader> {
        let (blob, _) = self.file_entry(p, path)?;
        let snap = self.client.snapshot(p, blob, None).map_err(to_fs_err)?;
        let len = snap.total_bytes;
        let client = self.client.clone();
        Ok(FileReader::new(
            Box::new(SnapshotBlocks { client, blob, snap }),
            len,
        ))
    }

    fn delete(&self, p: &Proc, path: &DfsPath, recursive: bool) -> FsResult<bool> {
        // Retire the backing BLOBs of every removed file: their registry
        // slots leave the version manager at once. Versions of *live* files
        // are still kept forever, as in the paper — a BLOB only ever goes
        // after a namespace delete.
        let (removed, blobs) = self.ns.delete(p, path, recursive)?;
        for blob in blobs {
            // A double delete (e.g. racing clients) is not an FS error.
            let _ = self.client.delete(p, blob);
        }
        Ok(removed)
    }

    fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        self.ns.rename(p, src, dst)
    }

    fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()> {
        self.ns.mkdirs(p, path)
    }

    fn status(&self, p: &Proc, path: &DfsPath) -> FsResult<FileStatus> {
        let entry = self.ns.lookup(p, path)?;
        self.entry_status(p, path.clone(), entry)
    }

    fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<FileStatus>> {
        let entries = self.ns.list(p, path)?;
        let statuses = entries
            .into_iter()
            .map(|(child, entry)| self.entry_status(p, child, entry));
        statuses.collect()
    }

    fn block_locations(
        &self,
        p: &Proc,
        path: &DfsPath,
        offset: u64,
        len: u64,
    ) -> FsResult<Vec<BlockLocation>> {
        let (blob, _) = self.file_entry(p, path)?;
        let locs = self
            .client
            .page_locations(p, blob, None, offset, len)
            .map_err(to_fs_err)?;
        Ok(locs
            .into_iter()
            .map(|l| BlockLocation {
                offset: l.byte_off,
                len: l.byte_len,
                hosts: l.hosts,
            })
            .collect())
    }

    /// One BLOB append = one atomic version, regardless of size: exactly
    /// what concurrent reduce committers need (paper Figure 2).
    ///
    /// The path is resolved while the pages stream. Step 1 of BlobSeer's
    /// write protocol stores pages on providers the provider manager picks,
    /// with no BLOB id and no version, so the namespace lookup goes out as
    /// a request, the pages are staged at the default block size meanwhile,
    /// and only publishing (steps 2–4) waits for the answer. An append
    /// costs the longer of the two, not their sum.
    ///
    /// A failed lookup returns its error as before, and its staged pages
    /// stay where a writer that died between steps 1 and 2 leaves them:
    /// the lease settled, the providers' books balanced, the bytes
    /// referenced by no version. A file whose block size is not the one the
    /// pages were cut at is refused with [`FsError::Unaligned`].
    fn append_all(&self, p: &Proc, path: &DfsPath, data: Payload) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let lookup = self.ns.begin_lookup(p, path);
        let staged = self.client.stage(p, self.default_block_size(), data);
        let (blob, block_size) = Self::as_file(path, lookup.finish(p)?)?;
        let staged = staged.map_err(to_fs_err)?;
        if block_size != staged.page_size() {
            return Err(FsError::Unaligned {
                detail: format!(
                    "{path} has {block_size}-byte blocks, the append was staged in {}-byte pages",
                    staged.page_size()
                ),
            });
        }
        self.client
            .publish(p, blob, None, staged)
            .map_err(to_fs_err)?;
        Ok(())
    }

    fn default_block_size(&self) -> u64 {
        self.store.config().page_size
    }

    fn supports_append(&self) -> bool {
        true
    }

    fn scheme(&self) -> &'static str {
        "bsfs"
    }
}
