//! The centralized BSFS namespace manager (paper §3.2: "this layer consists
//! in a centralized namespace manager, which is responsible for maintaining
//! a file system namespace, and for mapping files to BLOBs").
//!
//! The namespace holds directories and `file → BLOB` mappings only; file
//! *sizes* are authoritative at the version manager (the size of the latest
//! published version), which keeps concurrent appenders from racing on a
//! cached size field.

use dfs::{DfsPath, FsResult, Namespace};
use fabric::{NodeId, Pending, Proc};
use parking_lot::Mutex;

use blobseer::BlobId;

/// What the namespace records per file: the BLOB holding its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsFile {
    pub blob: BlobId,
    pub block_size: u64,
}

/// One namespace entry.
pub type NsEntry = dfs::Entry<NsFile>;

/// Centralized namespace service: the shared [`Namespace`] tree behind one
/// charged request per operation (an rpc plus `cpu_ops` on the manager's
/// node).
pub struct NamespaceManager {
    node: NodeId,
    ctl_msg_bytes: u64,
    cpu_ops: u64,
    state: Mutex<Namespace<NsFile>>,
}

impl NamespaceManager {
    pub(crate) fn new(node: NodeId, ctl_msg_bytes: u64, cpu_ops: u64) -> Self {
        NamespaceManager {
            node,
            ctl_msg_bytes,
            cpu_ops,
            state: Mutex::default(),
        }
    }

    /// Start the request one namespace operation costs.
    fn start(&self, p: &Proc) -> Pending {
        let bytes = self.ctl_msg_bytes;
        p.request(self.node, bytes, bytes, self.cpu_ops)
    }

    fn charge(&self, p: &Proc) {
        self.start(p).wait(p);
    }

    /// Create all missing directories down to `path`.
    pub(crate) fn mkdirs(&self, p: &Proc, path: &DfsPath) -> FsResult<()> {
        self.charge(p);
        self.state.lock().mkdirs(path)
    }

    /// Register a new file mapped to `blob`. Auto-creates parent directories
    /// (Hadoop `create` semantics).
    pub fn create_file(
        &self,
        p: &Proc,
        path: &DfsPath,
        blob: BlobId,
        block_size: u64,
    ) -> FsResult<()> {
        self.charge(p);
        let file = NsFile { blob, block_size };
        self.state.lock().insert_file(path, file)
    }

    /// Look up an entry.
    pub fn lookup(&self, p: &Proc, path: &DfsPath) -> FsResult<NsEntry> {
        self.begin_lookup(p, path).finish(p)
    }

    /// Send a lookup of `path` and return at once; [`Lookup::finish`]
    /// waits for the answer. The caller works meanwhile.
    pub(crate) fn begin_lookup<'a>(&'a self, p: &Proc, path: &'a DfsPath) -> Lookup<'a> {
        Lookup {
            ns: self,
            path,
            pending: self.start(p),
        }
    }

    /// Children names + entries of a directory, sorted by name.
    pub(crate) fn list(&self, p: &Proc, path: &DfsPath) -> FsResult<Vec<(DfsPath, NsEntry)>> {
        self.charge(p);
        let st = self.state.lock();
        let children = st.children(path)?;
        Ok(children
            .into_iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect())
    }

    /// Atomic rename of a file or directory subtree. Fails when `dst`
    /// exists (Hadoop 0.20 semantics) or `src` is missing.
    pub(crate) fn rename(&self, p: &Proc, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        self.charge(p);
        self.state.lock().rename(src, dst)
    }

    /// Delete a file or directory. Non-empty directories require
    /// `recursive`. Returns whether anything was removed and the BLOBs of
    /// all deleted files, in path order (so callers garbage-collect them in
    /// the same order in every process).
    pub(crate) fn delete(
        &self,
        p: &Proc,
        path: &DfsPath,
        recursive: bool,
    ) -> FsResult<(bool, Vec<BlobId>)> {
        self.charge(p);
        let removed = self.state.lock().remove(path, recursive)?;
        let blobs = removed.iter().flatten().map(|f| f.blob).collect();
        Ok((removed.is_some(), blobs))
    }
}

/// A lookup in flight ([`NamespaceManager::begin_lookup`]).
#[must_use = "a lookup is answered by `finish`"]
pub(crate) struct Lookup<'a> {
    ns: &'a NamespaceManager,
    path: &'a DfsPath,
    pending: Pending,
}

impl Lookup<'_> {
    /// Wait for the answer. The namespace is read now, when the answer
    /// arrives, not when the lookup was sent.
    pub(crate) fn finish(self, p: &Proc) -> FsResult<NsEntry> {
        self.pending.wait(p);
        self.ns.state.lock().get(self.path).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::FsError;
    use fabric::{ClusterSpec, Fabric};

    fn d(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    fn with_proc<T: Send + 'static>(f: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let h = fx.spawn(NodeId(0), "t", f);
        fx.run();
        h.take().unwrap()
    }

    #[test]
    fn create_auto_creates_parents() {
        with_proc(|p| {
            let ns = NamespaceManager::new(NodeId(1), 64, 0);
            ns.create_file(p, &d("/a/b/f"), BlobId(1), 100).unwrap();
            assert!(ns.lookup(p, &d("/a")).unwrap().is_dir());
            assert!(ns.lookup(p, &d("/a/b")).unwrap().is_dir());
            assert_eq!(
                ns.lookup(p, &d("/a/b/f")).unwrap(),
                NsEntry::File(NsFile {
                    blob: BlobId(1),
                    block_size: 100
                })
            );
        });
    }

    #[test]
    fn file_as_directory_component_rejected() {
        with_proc(|p| {
            let ns = NamespaceManager::new(NodeId(1), 64, 0);
            ns.create_file(p, &d("/f"), BlobId(1), 100).unwrap();
            assert!(matches!(
                ns.create_file(p, &d("/f/child"), BlobId(2), 100),
                Err(FsError::NotADirectory(_))
            ));
            assert!(matches!(
                ns.mkdirs(p, &d("/f/sub")),
                Err(FsError::NotADirectory(_))
            ));
        });
    }

    #[test]
    fn rename_moves_subtrees() {
        with_proc(|p| {
            let ns = NamespaceManager::new(NodeId(1), 64, 0);
            ns.create_file(p, &d("/x/one"), BlobId(1), 100).unwrap();
            ns.create_file(p, &d("/x/deep/two"), BlobId(2), 100)
                .unwrap();
            ns.rename(p, &d("/x"), &d("/y")).unwrap();
            assert!(ns.lookup(p, &d("/y/one")).is_ok());
            assert!(ns.lookup(p, &d("/y/deep/two")).is_ok());
            assert!(ns.lookup(p, &d("/x")).is_err());
            // dst inside src is rejected
            assert!(ns.rename(p, &d("/y"), &d("/y/inner")).is_err());
        });
    }

    #[test]
    fn delete_returns_blobs_for_gc() {
        with_proc(|p| {
            let ns = NamespaceManager::new(NodeId(1), 64, 0);
            // Created out of path order: `Bsfs::delete` retires the BLOBs in
            // the order returned, which must be the same in every process.
            let names = ["m", "c", "k", "a", "sub/z", "h", "b", "sub/y", "j", "e"];
            for (i, name) in names.iter().enumerate() {
                let path = d(&format!("/dir/{name}"));
                ns.create_file(p, &path, BlobId(i as u64), 100).unwrap();
            }
            assert!(matches!(
                ns.delete(p, &d("/dir"), false),
                Err(FsError::DirectoryNotEmpty(_))
            ));
            let (removed, blobs) = ns.delete(p, &d("/dir"), true).unwrap();
            assert!(removed);
            // a b c e h j k m sub/y sub/z
            let ids: Vec<u64> = blobs.iter().map(|b| b.0).collect();
            assert_eq!(ids, vec![3, 6, 1, 9, 5, 8, 2, 0, 7, 4]);
            let (removed, _) = ns.delete(p, &d("/dir"), true).unwrap();
            assert!(!removed);
        });
    }

    #[test]
    fn list_is_sorted_and_shallow() {
        with_proc(|p| {
            let ns = NamespaceManager::new(NodeId(1), 64, 0);
            ns.create_file(p, &d("/dir/b"), BlobId(1), 100).unwrap();
            ns.create_file(p, &d("/dir/a"), BlobId(2), 100).unwrap();
            ns.create_file(p, &d("/dir/sub/deep"), BlobId(3), 100)
                .unwrap();
            let names: Vec<String> = ns
                .list(p, &d("/dir"))
                .unwrap()
                .iter()
                .map(|(k, _)| k.name().unwrap().to_string())
                .collect();
            assert_eq!(names, vec!["a", "b", "sub"]);
        });
    }
}
