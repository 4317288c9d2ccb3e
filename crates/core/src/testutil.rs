//! Plumbing shared by this crate's unit tests.

use std::path::{Path, PathBuf};

use fabric::{ClusterSpec, Fabric, NodeId, Proc};

/// Run `f` as one process on node 0 of a small simulated cluster.
pub(crate) fn with_proc<T: Send + 'static>(f: impl FnOnce(&Proc) -> T + Send + 'static) -> T {
    let fx = Fabric::sim(ClusterSpec::tiny(8));
    let h = fx.spawn(NodeId(0), "t", f);
    fx.run();
    h.take().unwrap()
}

/// A fresh directory under the system temp dir, removed again on drop — so a
/// failing assertion leaves nothing behind.
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    pub(crate) fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
