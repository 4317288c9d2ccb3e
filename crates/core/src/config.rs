//! BlobSeer deployment configuration.

use std::path::PathBuf;

use fabric::MILLIS;

/// The deadline and the cadence of a deployment in one place — a fault
/// window that must stay "well under the write timeout" reads the same
/// struct the version manager enforces it from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeouts {
    /// The one clock of a write, always running: a version left uncommitted
    /// for this long may be force-completed from its manifest by the version
    /// manager (lazily, from within other requests, or by the background
    /// reaper) so one crashed writer cannot stall publication forever, and a
    /// provider reservation lease expires this long after it was opened —
    /// both sides of a write (version + capacity) share one deadline.
    /// Positive (`crate::Layout::validate` rejects 0, which would expire
    /// every write the instant it is assigned).
    pub write_timeout_ns: u64,
    /// Sleep between background-reaper sweeps (`BlobSeer::start_reaper`).
    /// Positive (`crate::Layout::validate` rejects 0).
    pub reaper_interval_ns: u64,
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts {
            write_timeout_ns: 30_000 * MILLIS,
            reaper_interval_ns: 100 * MILLIS,
        }
    }
}

/// Tunables of a BlobSeer deployment.
#[derive(Debug, Clone)]
pub struct BlobSeerConfig {
    /// Page size in bytes. The paper's evaluation sets this to 64 MB to
    /// match HDFS's chunk size (§4.1).
    pub page_size: u64,
    /// Number of replicas per page (page-level replication, §3.1.1).
    pub replication: usize,
    /// The deadline and cadence of the deployment (write timeout = lease
    /// expiry, reaper cadence).
    pub timeouts: Timeouts,
    /// Directory for pstore-backed persistence: providers keep pages and
    /// the metadata servers their tree nodes under per-service
    /// subdirectories, and `Fault::CrashRestart` becomes injectable. The
    /// provider manager's leases stay in memory: a redeploy starts with
    /// none. `None` keeps everything in memory, which matches the BlobSeer
    /// deployments measured in the paper — BerkeleyDB persisted lazily.
    pub persist_dir: Option<PathBuf>,
    /// Checkpoint cadence of every durable store in the deployment: after
    /// this many appended log bytes, the store snapshots its index, bounding
    /// crash-recovery replay to the bytes since the last checkpoint. `None`
    /// (default) never checkpoints — recovery replays the whole log.
    pub persist_checkpoint_bytes: Option<u64>,
    /// Abstract CPU operations charged per control request, as the server
    /// side of its `Proc::request`: on the version-manager node for every
    /// version-manager request, and on the BSFS namespace manager's node
    /// for every namespace operation (`bsfs::NamespaceManager`, which
    /// `Bsfs::new` builds with this value). The version manager is the
    /// serialization point of the design; a nonzero cost lets the
    /// benchmarks observe the (small) contention the paper reports under
    /// hundreds of concurrent appenders.
    pub vm_cpu_ops: u64,
    /// Abstract CPU operations charged on a metadata provider per tree-node
    /// operation.
    pub meta_cpu_ops: u64,
    /// Byte budget of each client's snapshot-scoped read cache (published
    /// pages + metadata leaves, logical bytes). Published versions are
    /// immutable, so entries can only go cold, never stale. `0` disables
    /// the cache.
    pub read_cache_bytes: u64,
    /// How many BLOBs each client remembers (page size, descriptor index,
    /// published watermark; LRU). Bounds client memory under many-blob churn.
    pub client_index_cache_entries: u64,
}

impl Default for BlobSeerConfig {
    fn default() -> Self {
        BlobSeerConfig {
            page_size: 64 * 1024 * 1024,
            replication: 1,
            timeouts: Timeouts::default(),
            persist_dir: None,
            persist_checkpoint_bytes: None,
            vm_cpu_ops: 1_000_000,
            meta_cpu_ops: 100_000,
            // Room for a handful of paper-scale 64 MB pages per shard.
            read_cache_bytes: 1024 * 1024 * 1024,
            client_index_cache_entries: 1024,
        }
    }
}

impl BlobSeerConfig {
    /// Config matching the paper's microbenchmark deployment: 64 MB pages,
    /// no replication (throughput benchmarks), memory-resident pages.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Small pages for functional tests on real bytes.
    pub fn test_small(page_size: u64) -> Self {
        BlobSeerConfig {
            page_size,
            ..Self::default()
        }
    }

    pub fn with_page_size(mut self, ps: u64) -> Self {
        assert!(ps > 0, "page size must be positive");
        self.page_size = ps;
        self
    }

    pub fn with_replication(mut self, r: usize) -> Self {
        assert!(r >= 1, "replication factor must be at least 1");
        self.replication = r;
        self
    }

    pub fn with_persist_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.persist_dir = dir;
        self
    }

    pub fn with_persist_checkpoint_bytes(mut self, bytes: Option<u64>) -> Self {
        assert!(
            bytes != Some(0),
            "a zero checkpoint cadence would checkpoint after every record; \
             use None to disable checkpointing"
        );
        self.persist_checkpoint_bytes = bytes;
        self
    }

    /// [`pstore::StoreOptions`] every durable store of this deployment opens
    /// with.
    pub(crate) fn store_options(&self) -> pstore::StoreOptions {
        pstore::StoreOptions {
            checkpoint_every_bytes: self.persist_checkpoint_bytes,
            ..pstore::StoreOptions::default()
        }
    }

    /// Set the client read-cache byte budget (`0` disables caching).
    pub fn with_read_cache_bytes(mut self, bytes: u64) -> Self {
        self.read_cache_bytes = bytes;
        self
    }

    /// Set how many BLOBs each client remembers.
    pub fn with_client_index_cache_entries(mut self, entries: u64) -> Self {
        assert!(entries >= 1, "index caches need room for at least one blob");
        self.client_index_cache_entries = entries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = BlobSeerConfig::paper();
        assert_eq!(c.page_size, 64 * 1024 * 1024);
        assert_eq!(c.replication, 1);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        let _ = BlobSeerConfig::default().with_replication(0);
    }
}
