//! The directory tree both file systems keep at their centralized metadata
//! service: BSFS's namespace manager maps files to BLOBs, the HDFS namenode
//! maps them to block lists, and everything else — implicit parent
//! creation, sorted listings, subtree rename, recursive delete and their
//! error cases — is the same tree. Pure data: no `Proc`, no clock; the
//! services charge their RPCs around it.
//!
//! Entries live in a `BTreeMap`, so every walk (listing, rename, the files a
//! recursive delete hands back for garbage collection) is in path order —
//! the same in every process, which a seeded replay depends on.

use std::collections::BTreeMap;

use crate::error::{FsError, FsResult};
use crate::path::DfsPath;

/// One namespace entry; `F` is what the file system records per file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry<F> {
    Dir,
    File(F),
}

impl<F> Entry<F> {
    pub fn is_dir(&self) -> bool {
        matches!(self, Entry::Dir)
    }
}

/// A namespace tree; the root directory always exists.
#[derive(Debug)]
pub struct Namespace<F> {
    entries: BTreeMap<DfsPath, Entry<F>>,
}

impl<F> Default for Namespace<F> {
    fn default() -> Self {
        Namespace {
            entries: BTreeMap::from([(DfsPath::root(), Entry::Dir)]),
        }
    }
}

impl<F> Namespace<F> {
    /// Number of entries, directories and the root included.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, path: &DfsPath) -> FsResult<&Entry<F>> {
        self.entries
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.clone()))
    }

    /// The file at `path`; a directory there is an error.
    pub fn file(&self, path: &DfsPath) -> FsResult<&F> {
        match self.get(path)? {
            Entry::Dir => Err(FsError::IsADirectory(path.clone())),
            Entry::File(f) => Ok(f),
        }
    }

    pub fn file_mut(&mut self, path: &DfsPath) -> FsResult<&mut F> {
        match self.entries.get_mut(path) {
            None => Err(FsError::NotFound(path.clone())),
            Some(Entry::Dir) => Err(FsError::IsADirectory(path.clone())),
            Some(Entry::File(f)) => Ok(f),
        }
    }

    /// Create all missing directories down to `path`.
    pub fn mkdirs(&mut self, path: &DfsPath) -> FsResult<()> {
        let mut cur = DfsPath::root();
        for comp in path.components() {
            cur = cur.child(comp)?;
            match self.entries.get(&cur) {
                None => {
                    self.entries.insert(cur.clone(), Entry::Dir);
                }
                Some(Entry::Dir) => {}
                Some(Entry::File(_)) => return Err(FsError::NotADirectory(cur)),
            }
        }
        Ok(())
    }

    /// Register a new file, creating its parent directories (Hadoop
    /// `create` semantics).
    pub fn insert_file(&mut self, path: &DfsPath, file: F) -> FsResult<()> {
        if path.is_root() {
            return Err(FsError::IsADirectory(path.clone()));
        }
        if self.entries.contains_key(path) {
            return Err(FsError::AlreadyExists(path.clone()));
        }
        if let Some(parent) = path.parent() {
            self.mkdirs(&parent)?;
        }
        self.entries.insert(path.clone(), Entry::File(file));
        Ok(())
    }

    /// Direct children of a directory, in name order.
    pub fn children(&self, dir: &DfsPath) -> FsResult<Vec<(&DfsPath, &Entry<F>)>> {
        if !self.get(dir)?.is_dir() {
            return Err(FsError::NotADirectory(dir.clone()));
        }
        Ok(self
            .entries
            .iter()
            .filter(|(k, _)| k.parent().as_ref() == Some(dir))
            .collect())
    }

    /// Atomic rename of a file or a directory subtree. Fails when `dst`
    /// exists (Hadoop 0.20 semantics) or `src` is missing.
    pub fn rename(&mut self, src: &DfsPath, dst: &DfsPath) -> FsResult<()> {
        if src.is_root() {
            return Err(FsError::InvalidPath {
                path: src.to_string(),
                reason: "cannot rename the root".into(),
            });
        }
        if dst.starts_with(src) {
            return Err(FsError::InvalidPath {
                path: dst.to_string(),
                reason: "destination lies inside the source".into(),
            });
        }
        self.get(src)?;
        if self.entries.contains_key(dst) {
            return Err(FsError::AlreadyExists(dst.clone()));
        }
        if let Some(parent) = dst.parent() {
            self.mkdirs(&parent)?;
        }
        let moves = self
            .entries
            .keys()
            .filter(|k| k.starts_with(src))
            .map(|old| Ok((old.clone(), old.rebase(src, dst)?)))
            .collect::<FsResult<Vec<_>>>()?;
        for (old, new) in moves {
            if let Some(entry) = self.entries.remove(&old) {
                self.entries.insert(new, entry);
            }
        }
        Ok(())
    }

    /// Remove a file, or a directory with (`recursive`) everything under
    /// it. `None` when nothing is at `path`; otherwise the removed files in
    /// path order, for the caller to garbage-collect.
    pub fn remove(&mut self, path: &DfsPath, recursive: bool) -> FsResult<Option<Vec<F>>> {
        if path.is_root() {
            return Err(FsError::InvalidPath {
                path: path.to_string(),
                reason: "cannot delete the root".into(),
            });
        }
        if !self.entries.contains_key(path) {
            return Ok(None);
        }
        // Only a directory has anything underneath it.
        let doomed: Vec<DfsPath> = self
            .entries
            .keys()
            .filter(|k| k.starts_with(path))
            .cloned()
            .collect();
        if doomed.len() > 1 && !recursive {
            return Err(FsError::DirectoryNotEmpty(path.clone()));
        }
        let removed = doomed.iter().filter_map(|k| self.entries.remove(k));
        Ok(Some(
            removed
                .filter_map(|entry| match entry {
                    Entry::Dir => None,
                    Entry::File(f) => Some(f),
                })
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DfsPath {
        DfsPath::new(s).unwrap()
    }

    /// The services' own tests and `contract` drive the tree through
    /// `NamespaceManager` / `Namenode`; this pins what they do not reach:
    /// the file accessors' errors, and that `/dir-x` — which sorts between
    /// `/dir` and `/dir/a` — is not under `/dir`.
    #[test]
    fn accessors_and_subtree_walks_respect_component_boundaries() {
        let mut ns = Namespace::default();
        for (i, f) in ["/dir/b", "/dir/a", "/dir-x"].iter().enumerate() {
            ns.insert_file(&d(f), i).unwrap();
        }
        assert_eq!(ns.file_mut(&d("/dir/a")), Ok(&mut 1));
        assert_eq!(ns.file(&d("/dir")), Err(FsError::IsADirectory(d("/dir"))));
        assert_eq!(ns.file_mut(&d("/no")), Err(FsError::NotFound(d("/no"))));
        let names = |ns: &Namespace<usize>, dir: &str| -> Vec<String> {
            let children = ns.children(&d(dir)).unwrap();
            children.iter().map(|(k, _)| k.to_string()).collect()
        };
        assert_eq!(names(&ns, "/dir"), ["/dir/a", "/dir/b"]);
        ns.rename(&d("/dir"), &d("/moved")).unwrap();
        assert_eq!(names(&ns, "/"), ["/dir-x", "/moved"]);
        assert_eq!(ns.remove(&d("/moved"), true).unwrap(), Some(vec![1, 0]));
        assert_eq!(ns.file(&d("/dir-x")), Ok(&2));
        assert_eq!(ns.entry_count(), 2);
    }
}
