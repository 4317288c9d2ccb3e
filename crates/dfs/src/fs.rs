//! The `FileSystem` trait and its companion types.

use fabric::{NodeId, Payload, Proc};

use crate::error::FsResult;
use crate::handle::{FileReader, FileWriter};
use crate::path::DfsPath;

/// Metadata of a file or directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    pub path: DfsPath,
    /// Logical length in bytes (0 for directories).
    pub len: u64,
    pub is_dir: bool,
    /// Block/page size used for this file.
    pub block_size: u64,
}

/// Location of one block of a file — what the jobtracker consumes to place
/// map tasks close to their data (paper §2.2 / §3.2: BlobSeer was extended
/// with "a new primitive that exposes the pages distribution to providers").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLocation {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length of the block in bytes.
    pub len: u64,
    /// Nodes holding a replica of this block.
    pub hosts: Vec<NodeId>,
}

/// The storage-layer interface the Map/Reduce framework programs against —
/// our `org.apache.hadoop.fs.FileSystem`.
///
/// One `FileSystem` value serves clients on any node: operations take the
/// calling process's [`Proc`], whose node identity determines where transfer
/// costs are charged (and enables short-circuit local reads).
pub trait FileSystem: Send + Sync {
    /// Create a new file and open it for writing. Fails with
    /// [`crate::FsError::AlreadyExists`] if the path exists.
    fn create(&self, p: &Proc, path: &DfsPath) -> FsResult<FileWriter>;

    /// Open an existing file for appending at its end. File systems without
    /// append support return [`crate::FsError::AppendUnsupported`].
    fn append(&self, p: &Proc, path: &DfsPath) -> FsResult<FileWriter>;

    /// Open a file for reading (snapshot semantics).
    fn open(&self, p: &Proc, path: &DfsPath) -> FsResult<FileReader>;

    /// Delete a file or directory. Deleting a non-empty directory requires
    /// `recursive`. Returns `true` when something was removed.
    fn delete(&self, p: &Proc, path: &DfsPath, recursive: bool) -> FsResult<bool>;

    /// Atomically rename a file or directory (what the original Hadoop
    /// output committer relies on).
    fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()>;

    /// Create a directory and any missing ancestors.
    fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()>;

    /// Metadata for a path.
    fn status(&self, p: &Proc, path: &DfsPath) -> FsResult<FileStatus>;

    /// Children of a directory, sorted by name.
    fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<FileStatus>>;

    /// Block locations overlapping `[offset, offset+len)`.
    fn block_locations(
        &self,
        p: &Proc,
        path: &DfsPath,
        offset: u64,
        len: u64,
    ) -> FsResult<Vec<BlockLocation>>;

    /// Default block (chunk/page) size of this file system.
    fn default_block_size(&self) -> u64;

    /// Whether `append` is implemented.
    fn supports_append(&self) -> bool;

    /// Short scheme name ("bsfs", "hdfs").
    fn scheme(&self) -> &'static str;

    /// Convenience: does the path exist?
    fn exists(&self, p: &Proc, path: &DfsPath) -> bool {
        self.status(p, path).is_ok()
    }

    /// Append `data` to an existing file as a single atomic unit: no other
    /// concurrent appender's data can interleave *inside* `data`. The
    /// default goes through the buffered writer (which flushes at block
    /// granularity — fine for a single writer); stores with natively atomic
    /// appends of arbitrary size (BSFS) override this so that concurrent
    /// committers never tear each other's records.
    fn append_all(&self, p: &Proc, path: &DfsPath, data: Payload) -> FsResult<()> {
        let mut w = self.append(p, path)?;
        w.write(p, data)?;
        w.close(p)
    }

    /// Convenience: write a whole payload as a new file.
    fn write_file(&self, p: &Proc, path: &DfsPath, data: Payload) -> FsResult<()> {
        let mut w = self.create(p, path)?;
        w.write(p, data)?;
        w.close(p)
    }

    /// Convenience: read a whole file.
    fn read_file(&self, p: &Proc, path: &DfsPath) -> FsResult<Payload> {
        let mut r = self.open(p, path)?;
        let len = r.len();
        if len == 0 {
            return Ok(Payload::empty());
        }
        r.read_at(p, 0, len)
    }

    /// Convenience: number of *files* (not directories) under `path`,
    /// recursively. Used to quantify the paper's "file-count problem".
    fn count_files(&self, p: &Proc, path: &DfsPath) -> FsResult<u64> {
        let st = self.status(p, path)?;
        if !st.is_dir {
            return Ok(1);
        }
        let mut n = 0;
        for child in self.list(p, path)? {
            if child.is_dir {
                n += self.count_files(p, &child.path)?;
            } else {
                n += 1;
            }
        }
        Ok(n)
    }
}

impl std::fmt::Debug for dyn FileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FileSystem({})", self.scheme())
    }
}
