//! Deployment wiring: build a full BlobSeer service bundle on a fabric,
//! following the paper's layout (§4.1): "we deployed one version manager,
//! one provider manager, one node for the namespace manager and 20 metadata
//! providers. The remaining nodes are used as data providers."

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use parking_lot::Mutex;

use crate::client::{fetch_group, BlobClient};
use crate::config::BlobSeerConfig;
use crate::dht::{MetaDht, MetaServer};
use crate::error::{BlobError, BlobResult};
use crate::fault::{Fault, FaultTarget};
use crate::meta::{collect_leaves, LeafHit, NodeKey, SnapshotInfo};
use crate::provider::Provider;
use crate::provider_manager::ProviderManager;
use crate::service::Service;
use crate::types::{BlobId, PageId, Version};
use crate::version_manager::VersionManager;

/// Which node hosts which service.
#[derive(Debug, Clone)]
pub struct Layout {
    pub vm: NodeId,
    pub pm: NodeId,
    /// Reserved for the BSFS namespace manager (deployed by the `bsfs`
    /// crate; kept in the layout so the paper's node budget is explicit).
    pub namespace: NodeId,
    pub meta: Vec<NodeId>,
    pub providers: Vec<NodeId>,
    /// Dedicated read-replica providers: never allocated writes, fed by
    /// opt-in background sync that copies *published* pages off the
    /// primaries, preferred by published reads. Must be disjoint from
    /// `providers` (node ids double as provider-map keys). Empty by
    /// default — the paper's deployment runs none.
    pub read_replicas: Vec<NodeId>,
}

impl Layout {
    /// The paper's deployment: dedicated nodes for the version manager,
    /// provider manager and namespace manager, 20 metadata providers, and
    /// every remaining node a data provider.
    pub fn paper(spec: &ClusterSpec) -> Layout {
        assert!(
            spec.nodes >= 30,
            "paper layout needs >= 30 nodes, got {}",
            spec.nodes
        );
        Self::paper_with_meta(spec, 20)
    }

    /// Everything-on-few-nodes layout for unit tests and live-mode examples.
    pub fn compact(spec: &ClusterSpec) -> Layout {
        assert!(spec.nodes >= 1);
        Layout {
            vm: NodeId(0),
            pm: NodeId(0),
            namespace: NodeId(0),
            meta: vec![NodeId(0)],
            providers: spec.all_nodes().collect(),
            read_replicas: Vec::new(),
        }
    }

    /// Carve `n` nodes off the tail of the provider set and run them as
    /// dedicated read replicas instead. Panics if fewer than `n + 1`
    /// providers remain (a deployment still needs a primary).
    pub fn with_read_replicas_from_tail(mut self, n: usize) -> Layout {
        assert!(
            self.providers.len() > n,
            "cannot carve {n} read replicas out of {} providers",
            self.providers.len()
        );
        let at = self.providers.len() - n;
        self.read_replicas = self.providers.split_off(at);
        self
    }

    /// Custom number of metadata providers (for the metadata-scaling
    /// ablation), keeping the rest of the paper layout.
    pub fn paper_with_meta(spec: &ClusterSpec, n_meta: u32) -> Layout {
        assert!(spec.nodes >= n_meta + 4);
        Layout {
            vm: NodeId(0),
            pm: NodeId(1),
            namespace: NodeId(2),
            meta: (3..3 + n_meta).map(NodeId).collect(),
            providers: (3 + n_meta..spec.nodes).map(NodeId).collect(),
            read_replicas: Vec::new(),
        }
    }

    /// Can this layout run on `spec` with `config`? Checked by
    /// [`BlobSeer::deploy`]; generated topologies (chaos sweeps) probe the
    /// impossible corners on purpose and want a typed rejection, not a panic
    /// deep inside a service.
    pub(crate) fn validate(&self, spec: &ClusterSpec, config: &BlobSeerConfig) -> BlobResult<()> {
        spec.validate()
            .map_err(|e| BlobError::InvalidTopology(e.to_string()))?;
        if self.providers.is_empty() {
            return Err(BlobError::InvalidTopology(
                "deployment needs at least one data provider".into(),
            ));
        }
        if self.meta.is_empty() {
            return Err(BlobError::InvalidTopology(
                "deployment needs at least one metadata provider".into(),
            ));
        }
        if config.replication > self.providers.len() {
            return Err(BlobError::InvalidTopology(format!(
                "replication factor {} exceeds the {} data providers",
                config.replication,
                self.providers.len()
            )));
        }
        let t = &config.timeouts;
        for (field, ns) in [
            ("write_timeout_ns", t.write_timeout_ns),
            ("reaper_interval_ns", t.reaper_interval_ns),
        ] {
            if ns == 0 {
                return Err(BlobError::InvalidTopology(format!(
                    "timeouts.{field} must be positive, got 0"
                )));
            }
        }
        let mut seen = HashSet::new();
        for &n in &self.providers {
            if !seen.insert(n) {
                return Err(BlobError::InvalidTopology(format!(
                    "duplicate provider node {n} in layout"
                )));
            }
        }
        // Read replicas share the provider map's NodeId keyspace with the
        // primaries, so the two sets must be disjoint (and duplicate-free).
        for &n in &self.read_replicas {
            if !seen.insert(n) {
                return Err(BlobError::InvalidTopology(format!(
                    "read-replica node {n} collides with another provider in layout"
                )));
            }
        }
        for (role, node) in std::iter::once(("version manager", self.vm))
            .chain([("provider manager", self.pm), ("namespace", self.namespace)])
            .chain(self.meta.iter().map(|&n| ("metadata provider", n)))
            .chain(self.providers.iter().map(|&n| ("data provider", n)))
            .chain(self.read_replicas.iter().map(|&n| ("read replica", n)))
        {
            if node.0 >= spec.nodes {
                return Err(BlobError::InvalidTopology(format!(
                    "{role} placed on {node} but the cluster has {} nodes",
                    spec.nodes
                )));
            }
        }
        Ok(())
    }
}

/// Shared service handles (one bundle per deployment).
pub(crate) struct Services {
    pub vm: Arc<VersionManager>,
    pub pm: Arc<ProviderManager>,
    pub dht: Arc<MetaDht>,
    pub providers: Vec<Arc<Provider>>,
    /// Dedicated read replicas (possibly empty). Also present in
    /// `provider_map` so batched fetches resolve them, but **never** handed
    /// to the provider manager: they take no allocations, hold no leases,
    /// and are fed exclusively by [`Services::sync_read_replicas`].
    pub replicas: Vec<Arc<Provider>>,
    pub provider_map: HashMap<NodeId, Arc<Provider>>,
    pub config: BlobSeerConfig,
    pub layout: Layout,
    /// Fault injection: while set, background-reaper sweeps are skipped
    /// (the daemon is down); lazy reaping from request paths still runs.
    pub reaper_paused: AtomicBool,
    /// Progress of the read-replica sync: the published version the
    /// replica tier has caught up to, per live blob.
    pub replica_watermarks: Mutex<BTreeMap<BlobId, Version>>,
}

impl Services {
    /// One round of read-replica sync: for every live blob whose latest
    /// published version is past the replica tier's watermark, walk the
    /// snapshot's leaves and copy every page some replica is missing from a
    /// primary onto that replica (batched per provider on both sides).
    ///
    /// The watermark only advances when a blob syncs completely, so a
    /// failed copy (crashed primary, crash-wiped replica) retries on the
    /// next round; pages already landed are deduplicated by `has_page`.
    /// Pending versions are invisible here by construction — the walk
    /// starts from the latest *published* snapshot, and pages are
    /// content-addressed by globally unique id, so a replica can never
    /// serve stale bytes: it either has the exact page or it is skipped.
    ///
    /// Returns `(pages, bytes)` copied this round. Runs on the reaper tick
    /// when [`BlobSeer::start_reaper`] is active, or whenever
    /// [`BlobSeer::sync_read_replicas`] pumps it explicitly.
    pub(crate) fn sync_read_replicas(&self, p: &Proc) -> (u64, u64) {
        if self.replicas.is_empty() {
            return (0, 0);
        }
        let mut pages_total = 0u64;
        let mut bytes_total = 0u64;
        // blob_ids is sorted — the sync order is deterministic.
        let live = self.vm.blob_ids();
        for &blob in &live {
            // Deleted blobs (or a VM pause) skip; retry next round.
            let Ok(snap) = self.vm.snapshot(p, blob, None) else {
                continue;
            };
            let synced = self.replica_watermarks.lock().get(&blob).copied();
            if synced.unwrap_or(0) >= snap.version {
                continue;
            }
            if snap.version == 0 || snap.total_bytes == 0 {
                self.replica_watermarks.lock().insert(blob, snap.version);
                continue;
            }
            if let Ok((pages, bytes)) = self.sync_blob(p, blob, &snap) {
                pages_total += pages;
                bytes_total += bytes;
                self.replica_watermarks.lock().insert(blob, snap.version);
            }
        }
        // A deleted blob leaves `live` for good: drop its watermark too.
        self.replica_watermarks
            .lock()
            .retain(|b, _| live.binary_search(b).is_ok());
        (pages_total, bytes_total)
    }

    /// Copy every page of `snap` that some replica misses. Fails (and the
    /// caller leaves the watermark untouched) if any page can neither be
    /// read from a holder nor landed on a replica.
    fn sync_blob(&self, p: &Proc, blob: BlobId, snap: &SnapshotInfo) -> BlobResult<(u64, u64)> {
        let mut fetch = |keys: &[NodeKey]| self.dht.get_batch(p, keys);
        let hits = collect_leaves(&mut fetch, blob, snap, 0, snap.total_bytes)?;
        // Pull each missing page once through the read path's fetch: one
        // batched get per primary (first listed holder; a page with none
        // groups under `u32::MAX` and fails loudly), failing over page by
        // page to the other holders. One group at a time.
        let mut groups: BTreeMap<u32, Vec<LeafHit>> = BTreeMap::new();
        for h in hits {
            if self.replicas.iter().any(|r| !r.has_page(h.page.id)) {
                let first = h.page.providers.first().map_or(u32::MAX, |n| n.0);
                groups.entry(first).or_default().push(h);
            }
        }
        let mut fetched: Vec<(&LeafHit, Payload)> = Vec::new();
        for (&node, group) in &groups {
            for (h, res) in group.iter().zip(fetch_group(p, self, NodeId(node), group)) {
                fetched.push((h, res?));
            }
        }
        fetched.sort_by_key(|(h, _)| h.page_index);
        // Land the copies in blob order, batched per replica; only pages
        // that replica is actually missing. `put_pages` on an unmanaged
        // replica is book-safe: it stores and counts, with no reservation
        // to consume.
        let mut pages_copied = 0u64;
        let mut bytes_copied = 0u64;
        for r in &self.replicas {
            let batch: Vec<(PageId, Payload)> = fetched
                .iter()
                .filter(|(h, _)| !r.has_page(h.page.id))
                .map(|(h, d)| (h.page.id, d.clone()))
                .collect();
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            let bytes: u64 = batch.iter().map(|(_, d)| d.len()).sum();
            for res in r.put_pages(p, batch) {
                res?;
            }
            pages_copied += n;
            bytes_copied += bytes;
        }
        Ok((pages_copied, bytes_copied))
    }
}

/// A deployed BlobSeer instance.
#[derive(Clone)]
pub struct BlobSeer {
    svc: Arc<Services>,
}

/// What a [`FaultTarget`] names in one deployment.
enum Resolved<'a> {
    /// A data provider, read replica or metadata server: they die and come
    /// back through one lifecycle ([`crate::service`]).
    Storage(&'a Service),
    VersionManager,
    Reaper,
}

/// The two ways to start one kind of storage service: in memory, or durable
/// in a directory.
type Open<S> = (
    fn(NodeId) -> S,
    fn(NodeId, &Path, pstore::StoreOptions) -> BlobResult<S>,
);

/// One storage service per node of a tier: in memory, or durable under
/// `persist_dir/<name>-<i>`.
fn deploy_tier<S>(
    config: &BlobSeerConfig,
    name: &str,
    nodes: &[NodeId],
    (memory, durable): Open<S>,
) -> BlobResult<Vec<Arc<S>>> {
    let opts = config.store_options();
    let tier = nodes.iter().enumerate().map(|(i, &node)| {
        Ok(Arc::new(match &config.persist_dir {
            None => memory(node),
            Some(dir) => durable(node, &dir.join(format!("{name}-{i}")), opts.clone())?,
        }))
    });
    tier.collect()
}

/// Handle to a running background reaper (see [`BlobSeer::start_reaper`]).
#[derive(Clone)]
pub struct ReaperHandle {
    stop: fabric::prelude::Gate,
    counts: Arc<ReaperCounts>,
}

#[derive(Default)]
struct ReaperCounts {
    ticks: AtomicU64,
    failed_sweeps: AtomicU64,
}

impl ReaperHandle {
    /// Ask the reaper to exit; it finishes its current sleep/sweep first.
    /// Callable from any process or the coordinating thread. Idempotent.
    pub fn stop(&self) {
        self.stop.set();
    }

    /// Completed sweep count (diagnostics).
    pub fn ticks(&self) -> u64 {
        self.counts.ticks.load(Ordering::Relaxed)
    }

    /// Ticks whose `VersionManager::reap_all` failed, e.g. on a metadata
    /// outage mid-force-complete (diagnostics). The failed blob keeps its
    /// expired versions and the next tick retries them.
    pub fn failed_sweeps(&self) -> u64 {
        self.counts.failed_sweeps.load(Ordering::Relaxed)
    }
}

impl BlobSeer {
    /// Deploy all services on `fabric` according to `layout`. Impossible
    /// topologies come back as [`BlobError::InvalidTopology`] (see
    /// `Layout::validate`), never a panic.
    pub fn deploy(fabric: &Fabric, config: BlobSeerConfig, layout: Layout) -> BlobResult<BlobSeer> {
        layout.validate(fabric.spec(), &config)?;
        let pages: Open<Provider> = (Provider::new_mem, Provider::new_persistent_with);
        let providers = deploy_tier(&config, "provider", &layout.providers, pages)?;
        let replicas = deploy_tier(&config, "replica", &layout.read_replicas, pages)?;
        // Replicas resolve through the same map as primaries (reads are
        // addressed by node id) but are never listed with the provider
        // manager — they take no write allocations.
        let provider_map: HashMap<NodeId, Arc<Provider>> = providers
            .iter()
            .chain(replicas.iter())
            .map(|pr| (pr.node(), pr.clone()))
            .collect();
        let nodes: Open<MetaServer> = (MetaServer::new, MetaServer::new_persistent);
        let meta_servers = deploy_tier(&config, "meta", &layout.meta, nodes)?;
        let dht = Arc::new(MetaDht::new(meta_servers, config.meta_cpu_ops));
        let mut pm = ProviderManager::new(
            layout.pm,
            fabric.clone(),
            providers.clone(),
            config.ctl_msg_bytes,
            // Reservation leases expire on the VM's write timeout: both
            // sides of a write (version + capacity) share one clock.
            config.timeouts.write_timeout_ns,
        );
        if let Some(dir) = &config.persist_dir {
            pm = pm.with_persistence(&dir.join("pm"), config.store_options())?;
        }
        let pm = Arc::new(pm);
        let vm = Arc::new(VersionManager::new(
            layout.vm,
            fabric.clone(),
            dht.clone(),
            config.page_size,
            config.ctl_msg_bytes,
            config.vm_cpu_ops,
            config.timeouts.write_timeout_ns,
        ));
        Ok(BlobSeer {
            svc: Arc::new(Services {
                vm,
                pm,
                dht,
                providers,
                replicas,
                provider_map,
                config,
                layout,
                reaper_paused: AtomicBool::new(false),
                replica_watermarks: Mutex::default(),
            }),
        })
    }

    /// Deploy with the paper layout on a fabric whose spec allows it.
    pub fn deploy_paper(fabric: &Fabric, config: BlobSeerConfig) -> BlobResult<BlobSeer> {
        let layout = Layout::paper(fabric.spec());
        Self::deploy(fabric, config, layout)
    }

    /// New client handle.
    pub fn client(&self) -> BlobClient {
        BlobClient::new(self.svc.clone())
    }

    /// A client whose read cache is disabled — every read takes the full
    /// fabric path. The reference point for cache-correctness tests.
    pub fn uncached_client(&self) -> BlobClient {
        BlobClient::uncached(self.svc.clone())
    }

    pub fn config(&self) -> &BlobSeerConfig {
        &self.svc.config
    }

    pub fn layout(&self) -> &Layout {
        &self.svc.layout
    }

    pub fn version_manager(&self) -> &Arc<VersionManager> {
        &self.svc.vm
    }

    pub fn provider_manager(&self) -> &Arc<ProviderManager> {
        &self.svc.pm
    }

    pub fn metadata_dht(&self) -> &Arc<MetaDht> {
        &self.svc.dht
    }

    /// Start the optional background reaper on the version-manager node:
    /// every `config.timeouts.reaper_interval_ns` it force-completes expired
    /// pending writes on every BLOB (`VersionManager::reap_all`), reclaims
    /// expired provider reservation leases
    /// (`ProviderManager::reap_expired_leases`) and runs one registry GC
    /// epoch (`VersionManager::gc_registry`) — so dead writers and deleted
    /// BLOBs are cleaned up without waiting for the next `assign`/`commit`.
    /// Cheap per tick: both reap checks are O(1) front peeks of deadline
    /// queues when nothing expired.
    ///
    /// The service runs until [`ReaperHandle::stop`]; in sim mode a driver
    /// process must stop it once the workload is done, or virtual time never
    /// runs out of events. While `inject(FaultTarget::Reaper, ..)` holds the
    /// daemon down, ticks pass without sweeping.
    pub fn start_reaper(&self, fabric: &Fabric) -> ReaperHandle {
        let interval_ns = self.svc.config.timeouts.reaper_interval_ns;
        let stop = fabric.gate();
        let svc = self.svc.clone();
        let stop2 = stop.clone();
        let counts = Arc::new(ReaperCounts::default());
        let counts2 = counts.clone();
        fabric.spawn(self.svc.layout.vm, "reaper", move |p| {
            while !stop2.is_set() {
                p.sleep(interval_ns);
                if stop2.is_set() {
                    break;
                }
                if svc.reaper_paused.load(Ordering::Acquire) {
                    continue;
                }
                // A failed sweep (metadata outage mid-force-complete) keeps
                // the blob's reap queue intact; the next tick retries.
                if svc.vm.reap_all(p).is_err() {
                    counts2.failed_sweeps.fetch_add(1, Ordering::Relaxed);
                }
                svc.pm.reap_expired_leases(p);
                svc.vm.gc_registry();
                // Read-replica sync rides the same tick: copy newly
                // published pages onto the replica tier (no-op without
                // replicas; failed copies retry next tick).
                svc.sync_read_replicas(p);
                counts2.ticks.fetch_add(1, Ordering::Relaxed);
            }
        });
        ReaperHandle { stop, counts }
    }

    pub fn providers(&self) -> &[Arc<Provider>] {
        &self.svc.providers
    }

    /// The dedicated read-replica providers (empty unless the layout runs
    /// some).
    pub fn read_replicas(&self) -> &[Arc<Provider>] {
        &self.svc.replicas
    }

    /// Pump one round of read-replica sync from `p` (see
    /// `Services::sync_read_replicas`). The background reaper runs the
    /// same round every tick; tests and benches call this for explicit
    /// control. Returns `(pages, bytes)` copied.
    pub fn sync_read_replicas(&self, p: &Proc) -> (u64, u64) {
        self.svc.sync_read_replicas(p)
    }

    /// Inject `fault` into `target`. One surface for hand-written failure
    /// tests and generated chaos schedules; see `crate::fault` for the
    /// supported (target, fault) matrix. Unknown indices come back as
    /// [`BlobError::NoSuchTarget`], unmodeled combinations as
    /// [`BlobError::UnsupportedFault`]. Idempotent; undo with
    /// [`Self::heal`].
    pub fn inject(&self, target: FaultTarget, fault: Fault) -> BlobResult<()> {
        match (self.resolve(target)?, fault) {
            (Resolved::Storage(s), Fault::Crash) => s.kill(),
            (Resolved::Storage(s), Fault::CrashRestart) => s.crash_wipe()?,
            (Resolved::Storage(_), Fault::Pause) => {
                return Err(BlobError::UnsupportedFault(format!(
                    "{target} cannot pause: storage services model crash-stop \
                     failures; use Fault::Crash"
                )))
            }
            (Resolved::VersionManager, Fault::Pause) => self.svc.vm.set_paused(true),
            (Resolved::VersionManager, Fault::Crash) => {
                return Err(BlobError::UnsupportedFault(
                    "version-manager crash needs the failover subsystem (roadmap); \
                     use Fault::Pause to model an unresponsive VM"
                        .into(),
                ))
            }
            (Resolved::Reaper, Fault::Crash | Fault::Pause) => {
                self.svc.reaper_paused.store(true, Ordering::Release);
            }
            (Resolved::VersionManager | Resolved::Reaper, Fault::CrashRestart) => {
                return Err(BlobError::UnsupportedFault(format!(
                    "{target} has no durable store to restart from; \
                     CrashRestart targets providers and metadata servers"
                )))
            }
        }
        Ok(())
    }

    /// Undo every fault injected into `target` (revive a crashed service,
    /// resume a paused one, restart a crash-wiped one from its durable
    /// store). Idempotent; healing a target that was never faulted is a
    /// no-op.
    ///
    /// A crash-wiped provider recovers in two steps whose order matters:
    /// first `Service::recover` rebuilds the page index and counters from
    /// disk (zeroing reservations — the restarted process has no memory of
    /// promises), then `ProviderManager::reinstate` re-reserves the
    /// outstanding lease entries that straddled the crash, so the capacity
    /// books balance at the next quiescence check.
    pub fn heal(&self, target: FaultTarget) -> BlobResult<()> {
        match self.resolve(target)? {
            Resolved::Storage(s) if s.is_wiped() => {
                s.recover()?;
                // Only a primary holds leases. A replica or a metadata
                // server restarts from its durable state and nothing more
                // (pages a replica lost beyond disk are re-copied by the
                // next sync round).
                if matches!(target, FaultTarget::Provider(_)) {
                    self.svc.pm.reinstate(s.node());
                }
            }
            Resolved::Storage(s) => s.revive(),
            Resolved::VersionManager => self.svc.vm.set_paused(false),
            Resolved::Reaper => self.svc.reaper_paused.store(false, Ordering::Release),
        }
        Ok(())
    }

    /// Heal every possible target — chaos harnesses call this at the end of
    /// a schedule so quiescence is always reached with a whole cluster.
    /// Returns the targets that could not be healed, each with its cause (a
    /// restart that failed leaves its service wiped and down).
    pub fn heal_all(&self) -> Vec<(FaultTarget, BlobError)> {
        let svc = &self.svc;
        (0..svc.providers.len())
            .map(FaultTarget::Provider)
            .chain((0..svc.dht.servers().len()).map(FaultTarget::MetaServer))
            .chain((0..svc.replicas.len()).map(FaultTarget::ReadReplica))
            .chain([FaultTarget::VersionManager, FaultTarget::Reaper])
            .filter_map(|t| self.heal(t).err().map(|e| (t, e)))
            .collect()
    }

    /// The one lookup from a fault target to the service it names.
    fn resolve(&self, target: FaultTarget) -> BlobResult<Resolved<'_>> {
        fn at<S: std::ops::Deref<Target = Service>>(
            tier: &[Arc<S>],
            i: usize,
        ) -> (Option<&Service>, usize) {
            (tier.get(i).map(|s| &***s), tier.len())
        }
        let (found, deployed) = match target {
            FaultTarget::Provider(i) => at(&self.svc.providers, i),
            FaultTarget::ReadReplica(i) => at(&self.svc.replicas, i),
            FaultTarget::MetaServer(i) => at(self.svc.dht.servers(), i),
            FaultTarget::VersionManager => return Ok(Resolved::VersionManager),
            FaultTarget::Reaper => return Ok(Resolved::Reaper),
        };
        found
            .map(Resolved::Storage)
            .ok_or_else(|| BlobError::NoSuchTarget(format!("{target} (deployment has {deployed})")))
    }

    /// Total bytes stored across providers (all replicas counted).
    pub fn total_stored_bytes(&self) -> u64 {
        self.svc.providers.iter().map(|p| p.stored_bytes()).sum()
    }

    /// Spread of provider loads: (min, max) stored bytes — used by the
    /// load-balancing tests and benches.
    pub fn load_spread(&self) -> (u64, u64) {
        let loads: Vec<u64> = self
            .svc
            .providers
            .iter()
            .map(|p| p.stored_bytes())
            .collect();
        (
            loads.iter().copied().min().unwrap_or(0),
            loads.iter().copied().max().unwrap_or(0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_matches_section_4_1() {
        let spec = ClusterSpec::orsay_270();
        let l = Layout::paper(&spec);
        assert_eq!(l.meta.len(), 20);
        assert_eq!(l.providers.len(), 247); // 270 - vm - pm - namespace - 20 meta
                                            // No overlap between service nodes and provider nodes.
        assert!(!l.providers.contains(&l.vm));
        assert!(!l.providers.contains(&l.pm));
        assert!(!l.providers.contains(&l.namespace));
        for m in &l.meta {
            assert!(!l.providers.contains(m));
        }
    }

    #[test]
    fn deploy_on_tiny_cluster() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let layout = Layout::compact(fx.spec());
        let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(1024), layout).unwrap();
        assert_eq!(bs.providers().len(), 4);
        assert_eq!(bs.total_stored_bytes(), 0);
    }

    /// A deployment whose `timeouts` has `field` zeroed is refused with a
    /// typed error naming the field.
    fn rejects_zero(field: &str, zero: impl FnOnce(&mut crate::config::Timeouts)) {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let mut config = BlobSeerConfig::test_small(1024);
        zero(&mut config.timeouts);
        let Err(BlobError::InvalidTopology(text)) =
            BlobSeer::deploy(&fx, config, Layout::compact(fx.spec()))
        else {
            panic!("a zero {field} was not refused as an invalid topology");
        };
        assert!(text.contains(field), "{text}");
    }

    #[test]
    fn zero_write_timeout_is_rejected() {
        rejects_zero("write_timeout_ns", |t| t.write_timeout_ns = 0);
    }

    #[test]
    fn zero_reaper_interval_is_rejected() {
        rejects_zero("reaper_interval_ns", |t| t.reaper_interval_ns = 0);
    }

    /// Replica sync keeps a watermark only for blobs the version manager
    /// still lists: a deleted, collected blob's entry goes on the next round.
    #[test]
    fn replica_sync_forgets_a_deleted_blob() {
        let fx = Fabric::sim(ClusterSpec::tiny(8));
        let layout = Layout::compact(fx.spec()).with_read_replicas_from_tail(2);
        let bs = BlobSeer::deploy(&fx, BlobSeerConfig::test_small(1024), layout).unwrap();
        fx.spawn(NodeId(0), "t", move |p| {
            let c = bs.client();
            let blob = c.create(p, None);
            c.append(p, blob, Payload::from_vec(vec![7; 4096])).unwrap();
            bs.sync_read_replicas(p);
            assert_eq!(bs.svc.replica_watermarks.lock().len(), 1);
            c.delete(p, blob).unwrap();
            bs.version_manager().gc_registry();
            bs.version_manager().gc_registry();
            bs.sync_read_replicas(p);
            assert!(bs.svc.replica_watermarks.lock().is_empty());
        });
        fx.run();
    }
}
