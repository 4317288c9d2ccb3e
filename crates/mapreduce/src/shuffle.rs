//! Map-output storage, the node-local (tier-2) combine stage, and shuffle
//! serving.
//!
//! **One format.** Everything buffered, published and fetched here is a
//! *sorted run* in the format of [`crate::record`]: refcounted bytes that
//! are merged as bytes. A flush hands its runs to
//! [`crate::record::merge_into_run`] — the same group-and-reduce loop the
//! map task and the reducer use — and publishes the run that comes back;
//! owned `KV`s exist only inside the user's combiner call. A run that does
//! not parse fails the flush with an error naming job, node, flush,
//! partition and task instead of panicking.
//!
//! **Two-tier combine.** Tier 1 is Hadoop's classic per-task combiner (run
//! inside `run_map_task` over one task's collected output). Tier 2 is the
//! in-node combine stage of Lee et al. ("Hadoop MapReduce Performance
//! Enhancement Using In-node Combiners"): every node accumulates its map
//! tasks' partitioned, sorted outputs in a [`NodeCombiner`] buffer; when a
//! configurable threshold of tasks/bytes lands — and always at node
//! map-phase completion — the node k-way-merges the buffered runs, runs the
//! job's combiner across the *merged* stream, and publishes ONE combined
//! segment per (node, partition) instead of one per (map task, partition).
//! High key-repeat workloads (wordcount) collapse by the node's task count;
//! combiner-less jobs (datajoin) still merge runs, cutting segment count
//! (and fetch round-trips) without changing bytes.
//!
//! **Streaming handoff.** Publication no longer waits for the job's map
//! phase: every flush yields a [`DeliverySpec`] that rides the tasktracker's
//! `MapDone`/`FlushDone` message to the jobtracker, which forwards it to
//! every reducer's delivery feed (see `tracker.rs`). Reducers fetch and
//! merge segments as they are announced — shuffle overlaps the map phase.
//!
//! **Lock scope.** The buffer lock (one for all nodes and jobs) covers only
//! bookkeeping: recording which node buffered a task, moving the pending
//! set into a numbered flush, and — once the flush is combined — checking
//! that no loss buried it meanwhile *and* publishing it, in one hold. The
//! merge and the combiner run before that hold, so one node's flush never
//! stalls another node's `add`. A loss (`NodeCombiner::lose_node`) takes
//! the same lock across burying the buffers and dropping the host's
//! segments, so on real threads as in sim a flush either publishes before
//! the loss (and its segments go with the tasks it reports) or finds its
//! generation stale and publishes nothing. The lock order is buffer lock →
//! registry `segments`; nothing takes them the other way round.
//!
//! **One re-execution path.** A map task is buffered at most once per job:
//! a second `NodeCombiner::add` of it is refused. A task runs twice only
//! after a loss reported its output gone (`NodeCombiner::lose_node`); the
//! re-run ([`MapTaskSpec::rerun`]) bypasses tier 2 and publishes per-task
//! segments, so the replacement lands promptly and never overlaps a flushed
//! set. A reducer counts each task once, so a flush it fetched before the
//! loss and the re-run's delivery are never both merged.
//!
//! [`MapTaskSpec::rerun`]: crate::task::MapTaskSpec::rerun
//!
//! The fetch path is *batched by host*: [`MapOutputRegistry::fetch_many`]
//! groups a reducer's segment pulls by the node that holds them and moves
//! each group in ONE transfer per (map-node, reduce-node) pair — the same
//! grouped-RPC pattern the storage client applies to page fetches.
//! [`MapOutputRegistry::stats`] exposes segments, transfers and *bytes*
//! served plus the tier-2 combine's savings, so tests can pin both the
//! batching and the volume reduction.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{run_parallel, NodeId, Payload, Proc, TaskFn};
use parking_lot::Mutex;

use crate::job::JobCtx;
use crate::record::merge_into_run;

/// Who produced a published segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SegmentSource {
    /// A single map task's own output (tier-2 combining off, or a re-run
    /// that bypasses the node buffer so its replacement lands promptly).
    Task(u32),
    /// The `seq`-th node-local combine flush of `node`, merging several of
    /// that node's tasks into one segment per partition.
    Flush { node: u32, seq: u32 },
}

impl fmt::Display for SegmentSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentSource::Task(t) => write!(f, "task {t}"),
            SegmentSource::Flush { node, seq } => write!(f, "node {node} flush {seq}"),
        }
    }
}

/// Key of one published map-output partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentKey {
    pub job: u64,
    pub source: SegmentSource,
    pub partition: u32,
}

/// One publication a reducer should fetch: segment `source` holds the
/// output of `tasks` (one task for direct publications, a whole node batch
/// for combine flushes). Forwarded to every reducer's delivery feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliverySpec {
    pub source: SegmentSource,
    /// Map task ids whose output the segment carries (sorted, disjoint
    /// across a node's flushes).
    pub tasks: Vec<u32>,
}

/// Snapshot of the registry's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Segments served to reducers (one per key found).
    pub fetched_segments: u64,
    /// Host-grouped wire transfers that carried them.
    pub fetch_transfers: u64,
    /// Bytes those transfers moved (the shuffle *volume*).
    pub fetch_bytes: u64,
    /// Combined (node, partition) segments the tier-2 stage published.
    pub combined_segments: u64,
    /// Bytes the tier-2 combine removed before publication.
    pub combine_saved_bytes: u64,
}

struct Segment {
    host: NodeId,
    data: Payload,
}

/// Cluster-wide registry of map outputs (the aggregate of all tasktrackers'
/// local output stores; lookups are free, data movement is charged).
#[derive(Default)]
pub struct MapOutputRegistry {
    segments: Mutex<HashMap<SegmentKey, Segment>>,
    fetched_segments: AtomicU64,
    fetch_transfers: AtomicU64,
    fetch_bytes: AtomicU64,
    combined_segments: AtomicU64,
    combine_saved_bytes: AtomicU64,
}

impl MapOutputRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Store a partition produced on `host`. A key is published once: a
    /// flush's key carries its node and sequence number, a task's its id,
    /// and a task's re-run publishes only after a loss removed the original
    /// (`NodeCombiner::lose_node`).
    pub fn publish(&self, key: SegmentKey, host: NodeId, data: Payload) {
        self.segments.lock().insert(key, Segment { host, data });
    }

    /// Fetch many partitions into the calling reducer's node, grouped by
    /// holding node: every group moves in ONE (map-node → reduce-node)
    /// transfer carrying that host's whole share (node-local groups ride the
    /// loopback), with the groups themselves fetched in parallel (Hadoop's
    /// parallel fetchers, minus the per-segment round-trips). `out[i]`
    /// answers `keys[i]`; a key not (or no longer) published answers `None`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`out` is sized to `keys.len()` and every `i` enumerates `keys`"
    )]
    pub fn fetch_many(&self, p: &Proc, keys: &[SegmentKey]) -> Vec<Option<Payload>> {
        let mut out: Vec<Option<Payload>> = vec![None; keys.len()];
        if keys.is_empty() {
            return out;
        }
        // Resolve every key under one lock; data clones are cheap (ghosts
        // or refcounted bytes) and movement is charged per host below.
        // BTreeMap keeps the host grouping deterministic across runs.
        let mut groups: BTreeMap<u32, Vec<(usize, Payload)>> = BTreeMap::new();
        {
            let seg = self.segments.lock();
            for (i, key) in keys.iter().enumerate() {
                if let Some(s) = seg.get(key) {
                    groups
                        .entry(s.host.0)
                        .or_default()
                        .push((i, s.data.clone()));
                }
            }
        }
        self.fetched_segments.fetch_add(
            groups.values().map(|g| g.len() as u64).sum(),
            Ordering::Relaxed,
        );
        self.fetch_bytes.fetch_add(
            groups.values().flatten().map(|(_, d)| d.len()).sum::<u64>(),
            Ordering::Relaxed,
        );
        self.fetch_transfers
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        type GroupResult = Vec<(usize, Payload)>;
        let mut tasks: Vec<TaskFn<GroupResult>> = Vec::with_capacity(groups.len());
        for (host, group) in groups {
            tasks.push(Box::new(move |wp: &Proc| {
                let total: u64 = group.iter().map(|(_, d)| d.len()).sum();
                wp.transfer(NodeId(host), wp.node(), total);
                group
            }));
        }
        for group in run_parallel(p, "shuffle-fetch", tasks) {
            for (i, data) in group {
                out[i] = Some(data);
            }
        }
        out
    }

    /// (segments served, host-grouped transfers that carried them). The gap
    /// is the shuffle-batching win; tests pin one transfer per
    /// (map-node, reduce-node) pair.
    pub fn fetch_counts(&self) -> (u64, u64) {
        (
            self.fetched_segments.load(Ordering::Relaxed),
            self.fetch_transfers.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of every counter (volume included).
    pub fn stats(&self) -> ShuffleStats {
        ShuffleStats {
            fetched_segments: self.fetched_segments.load(Ordering::Relaxed),
            fetch_transfers: self.fetch_transfers.load(Ordering::Relaxed),
            fetch_bytes: self.fetch_bytes.load(Ordering::Relaxed),
            combined_segments: self.combined_segments.load(Ordering::Relaxed),
            combine_saved_bytes: self.combine_saved_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drop all segments of a finished job (Hadoop cleans map outputs after
    /// job completion).
    pub(crate) fn drop_job(&self, job: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the predicate reads only the entry it is given"
        )]
        self.segments.lock().retain(|k, _| k.job != job);
    }

    /// Drop every segment hosted on `host` (the node lost its local output
    /// store). Returns the `(job, task)` pairs of direct per-task segments
    /// that went with it, sorted; lost *flush* segments are reported from
    /// the combine buffers, which know their task sets (see
    /// [`NodeCombiner::lose_node`], the only caller).
    fn drop_host(&self, host: NodeId) -> Vec<(u64, u32)> {
        let mut lost = Vec::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "`lost` is sorted below; nothing else sees the visit order"
        )]
        self.segments.lock().retain(|k, s| {
            if s.host != host {
                return true;
            }
            if let SegmentSource::Task(t) = k.source {
                lost.push((k.job, t));
            }
            false
        });
        lost.sort_unstable();
        lost.dedup();
        lost
    }

    /// Total bytes currently held.
    #[cfg(test)]
    #[expect(clippy::disallowed_methods, reason = "commutative sum")]
    pub(crate) fn total_bytes(&self) -> u64 {
        self.segments.lock().values().map(|s| s.data.len()).sum()
    }
}

/// One node's combine buffer for one job.
#[derive(Default)]
struct NodeBuffer {
    /// task → per-partition tier-1 sorted runs, awaiting the next flush.
    pending: BTreeMap<u32, Vec<Payload>>,
    pending_bytes: u64,
    next_seq: u32,
    /// Bumped by every loss of the node's spool: a flush taken out under an
    /// older generation was buried with it.
    generation: u64,
}

impl NodeBuffer {
    /// Move the pending set into a new flush: all the bookkeeping a flush
    /// needs under the buffer lock. Neither merges nor publishes.
    fn take_flush(&mut self) -> Option<FlushPlan> {
        if self.pending.is_empty() {
            return None;
        }
        self.next_seq += 1;
        Some(FlushPlan {
            seq: self.next_seq - 1,
            generation: self.generation,
            set: std::mem::take(&mut self.pending),
            buffered: std::mem::take(&mut self.pending_bytes),
        })
    }
}

/// One job's tier-2 state across all nodes.
#[derive(Default)]
struct JobBuffers {
    /// task → the node that buffered it, pending or flushed. A task is
    /// buffered once; a loss forgets the node's tasks, whose re-runs
    /// publish per task.
    home: BTreeMap<u32, u32>,
    nodes: BTreeMap<u32, NodeBuffer>,
}

/// One flush to merge, combine and publish: taken out of the buffer under
/// the buffer lock, carried out after releasing it.
struct FlushPlan {
    seq: u32,
    /// The buffer's generation when the flush was taken.
    generation: u64,
    /// task → per-partition runs.
    set: BTreeMap<u32, Vec<Payload>>,
    buffered: u64,
}

/// The node-local (tier-2) combine stage: accumulates map tasks' partitioned
/// outputs per (job, node) and publishes combined per-(node, partition)
/// segments to the wrapped [`MapOutputRegistry`]. See the module docs for
/// the full protocol.
pub struct NodeCombiner {
    registry: Arc<MapOutputRegistry>,
    jobs: Mutex<BTreeMap<u64, JobBuffers>>,
}

impl NodeCombiner {
    pub(crate) fn new(registry: Arc<MapOutputRegistry>) -> Arc<NodeCombiner> {
        Arc::new(NodeCombiner {
            registry,
            jobs: Mutex::new(BTreeMap::new()),
        })
    }

    /// The wrapped registry (direct publications and fetches go through it).
    pub(crate) fn registry(&self) -> &Arc<MapOutputRegistry> {
        &self.registry
    }

    /// Buffer one completed map task's per-partition outputs on the calling
    /// node. Returns the deliveries this call published (a threshold flush,
    /// or nothing while the buffer accumulates). A task the job already
    /// buffered is refused: a map runs twice only as a per-task re-run.
    pub(crate) fn add(
        &self,
        p: &Proc,
        ctx: &Arc<JobCtx>,
        task: u32,
        parts: Vec<Payload>,
    ) -> Result<Vec<DeliverySpec>, String> {
        let node = p.node().0;
        let tuning = ctx.conf.shuffle;
        let flush = {
            let mut jobs = self.jobs.lock();
            let jb = jobs.entry(ctx.id).or_default();
            if let Some(home) = jb.home.get(&task) {
                return Err(format!(
                    "job {} map {task}: buffered on node {home}, added again on node {node}",
                    ctx.id
                ));
            }
            jb.home.insert(task, node);
            let nb = jb.nodes.entry(node).or_default();
            nb.pending_bytes += parts.iter().map(Payload::len).sum::<u64>();
            nb.pending.insert(task, parts);
            let hit_tasks = tuning
                .flush_tasks
                .is_some_and(|n| nb.pending.len() >= n.max(1) as usize);
            let hit_bytes = tuning.flush_bytes.is_some_and(|b| nb.pending_bytes >= b);
            if hit_tasks || hit_bytes {
                nb.take_flush()
            } else {
                None
            }
        };
        Ok(self.run_flush(p, ctx, flush)?.into_iter().collect())
    }

    /// Flush whatever the calling node still buffers for this job (called
    /// by the tracker once the node's map share is complete). Returns the
    /// delivery to announce, or `None` if the buffer was empty.
    pub(crate) fn complete_node(
        &self,
        p: &Proc,
        ctx: &Arc<JobCtx>,
    ) -> Result<Option<DeliverySpec>, String> {
        let flush = (self.jobs.lock().get_mut(&ctx.id))
            .and_then(|jb| jb.nodes.get_mut(&p.node().0))
            .and_then(NodeBuffer::take_flush);
        self.run_flush(p, ctx, flush)
    }

    /// The node lost its local output store: empty its buffers for every
    /// job, bury any flush still on its way to publication, and drop every
    /// segment it published (flushes and per-task re-runs alike). Returns,
    /// per job, the sorted task ids whose output went with it — the tracker
    /// re-queues them. All of it happens in one hold of the buffer lock,
    /// under which a flush also checks its generation and publishes: a
    /// flush's segments either go with the loss that reports its tasks, or
    /// are never published.
    pub(crate) fn lose_node(&self, node: NodeId) -> Vec<(u64, Vec<u32>)> {
        let mut lost: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut jobs = self.jobs.lock();
        for (job, jb) in jobs.iter_mut() {
            let Some(nb) = jb.nodes.get_mut(&node.0) else {
                continue;
            };
            *nb = NodeBuffer {
                next_seq: nb.next_seq,
                generation: nb.generation + 1,
                ..NodeBuffer::default()
            };
            let tasks = (jb.home.iter())
                .filter(|&(_, &home)| home == node.0)
                .map(|(&t, _)| t);
            lost.entry(*job).or_default().extend(tasks);
            jb.home.retain(|_, home| *home != node.0);
        }
        for (job, task) in self.registry.drop_host(node) {
            lost.entry(job).or_default().push(task);
        }
        drop(jobs);
        (lost.into_iter())
            .filter(|(_, tasks)| !tasks.is_empty())
            .map(|(job, mut tasks)| {
                tasks.sort_unstable();
                tasks.dedup();
                (job, tasks)
            })
            .collect()
    }

    /// Drop a finished job's buffers (pairs with
    /// [`MapOutputRegistry::drop_job`]).
    pub(crate) fn drop_job(&self, job: u64) {
        self.jobs.lock().remove(&job);
    }

    /// Merge and combine the planned flush and charge ghost compute outside
    /// the buffer lock (the merge of a node's whole map share must not stall
    /// every other node's `add`), then check its generation and publish its
    /// segments in one hold of it, *before* the returned delivery is
    /// announced. A flush that a loss buried meanwhile publishes and
    /// announces nothing: its tasks were reported lost and re-run.
    fn run_flush(
        &self,
        p: &Proc,
        ctx: &Arc<JobCtx>,
        flush: Option<FlushPlan>,
    ) -> Result<Option<DeliverySpec>, String> {
        let Some(flush) = flush else {
            return Ok(None);
        };
        let node = p.node().0;
        let (combined, compute) = combine_flush(ctx, node, &flush)?;
        if compute > 0 {
            p.compute(p.node(), compute);
        }
        let n = combined.len() as u64;
        let combined_bytes: u64 = combined.iter().map(|(_, data)| data.len()).sum();
        {
            let jobs = self.jobs.lock();
            let live = (jobs.get(&ctx.id))
                .and_then(|jb| jb.nodes.get(&node))
                .is_some_and(|nb| nb.generation == flush.generation);
            if !live {
                return Ok(None);
            }
            for (key, data) in combined {
                self.registry.publish(key, p.node(), data);
            }
        }
        let saved_bytes = flush.buffered.saturating_sub(combined_bytes);
        self.registry
            .combined_segments
            .fetch_add(n, Ordering::Relaxed);
        self.registry
            .combine_saved_bytes
            .fetch_add(saved_bytes, Ordering::Relaxed);
        let c = &ctx.counters;
        c.add(&c.combined_segments, n);
        c.add(&c.combine_saved_bytes, saved_bytes);
        Ok(Some(DeliverySpec {
            source: SegmentSource::Flush {
                node,
                seq: flush.seq,
            },
            tasks: flush.set.into_keys().collect(),
        }))
    }
}

/// Merge + combine one flush's task runs into per-partition segments (and
/// the ghost compute to charge). Ghost jobs scale buffered lengths by the
/// profile's combine ratio; real jobs k-way-merge the sorted runs and run
/// the combiner over the merged stream (byte-identical to sorting the
/// concatenation when no combiner).
fn combine_flush(
    ctx: &Arc<JobCtx>,
    node: u32,
    flush: &FlushPlan,
) -> Result<(Vec<(SegmentKey, Payload)>, u64), String> {
    let r = ctx.conf.num_reducers;
    let combiner = ctx.conf.user.combiner.as_deref();
    let seq = flush.seq;
    let mut segments = Vec::with_capacity(r as usize);
    for i in 0..r {
        let runs: Vec<(u32, &Payload)> = flush
            .set
            .iter()
            .filter_map(|(task, parts)| Some((*task, parts.get(i as usize)?)))
            .collect();
        let data = if let Some(profile) = ctx.conf.ghost {
            let ratio = if combiner.is_some() {
                profile.combine_output_ratio
            } else {
                1.0
            };
            let total: u64 = runs.iter().map(|(_, run)| run.len()).sum();
            Payload::ghost((total as f64 * ratio) as u64)
        } else {
            let bytes: Vec<&[u8]> = runs.iter().map(|(_, run)| &run.bytes()[..]).collect();
            merge_into_run(&bytes, combiner).map_err(|e| {
                let task = runs.get(e.run).map_or("?".into(), |(t, _)| t.to_string());
                format!(
                    "job {} node {node} flush {seq} partition {i}: run of task {task}: {e}",
                    ctx.id
                )
            })?
        };
        segments.push((seg_key(ctx.id, node, seq, i), data));
    }
    let compute = match (ctx.conf.ghost, combiner) {
        (Some(profile), Some(_)) => (flush.buffered as f64 * profile.reduce_cpu_per_byte) as u64,
        _ => 0,
    };
    Ok((segments, compute))
}

fn seg_key(job: u64, node: u32, seq: u32, partition: u32) -> SegmentKey {
    SegmentKey {
        job,
        source: SegmentSource::Flush { node, seq },
        partition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GhostProfile, Mapper, Reducer, UserFns, KV};
    use crate::job::{JobConf, JobCounters, OutputMode, ShuffleTuning};
    use crate::record::{decode_kvs, encode_kvs};
    use dfs::DfsPath;
    use fabric::{ClusterSpec, Fabric};

    fn key(map_task: u32, partition: u32) -> SegmentKey {
        SegmentKey {
            job: 1,
            source: SegmentSource::Task(map_task),
            partition,
        }
    }

    fn flush_key(node: u32, seq: u32, partition: u32) -> SegmentKey {
        seg_key(1, node, seq, partition)
    }

    /// One key through the one fetch path; `None` when not published.
    fn fetch(reg: &MapOutputRegistry, p: &Proc, key: SegmentKey) -> Option<Payload> {
        let mut got = reg.fetch_many(p, &[key]);
        assert_eq!(got.len(), 1, "one answer per key");
        got.pop().flatten()
    }

    struct Nop;
    impl Mapper for Nop {
        fn map_into(&self, _: &[u8], _: &[u8], _: &mut dyn FnMut(&[u8], &[u8])) {}
    }
    impl Reducer for Nop {
        fn reduce_into(
            &self,
            _: &[u8],
            _: &mut dyn Iterator<Item = &[u8]>,
            _: &mut dyn FnMut(&[u8], &[u8]),
        ) {
        }
    }

    /// Wordcount-style combiner: sums integer values per key.
    struct SumReduce;
    impl Reducer for SumReduce {
        fn reduce_into(
            &self,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            out: &mut dyn FnMut(&[u8], &[u8]),
        ) {
            let sum: u64 = values
                .map(|v| std::str::from_utf8(v).unwrap().parse::<u64>().unwrap())
                .sum();
            out(key, sum.to_string().as_bytes());
        }
    }

    fn ctx(reducers: u32, combiner: bool, tuning: ShuffleTuning) -> Arc<JobCtx> {
        Arc::new(JobCtx {
            id: 1,
            conf: JobConf {
                name: "shuffle-unit".into(),
                inputs: vec![],
                output_dir: DfsPath::new("/out").unwrap(),
                num_reducers: reducers,
                output_mode: OutputMode::PerReducerFiles,
                user: UserFns {
                    mapper: Arc::new(Nop),
                    reducer: Arc::new(Nop),
                    combiner: combiner.then(|| Arc::new(SumReduce) as Arc<dyn Reducer>),
                },
                ghost: None,
                shuffle: tuning,
            },
            counters: Arc::new(JobCounters::default()),
        })
    }

    fn enc(kvs: &[(&str, &str)]) -> Payload {
        let mut v: Vec<KV> = kvs.iter().map(|(k, val)| KV::new(*k, *val)).collect();
        v.sort();
        encode_kvs(&v)
    }

    #[test]
    fn publish_fetch_drop() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let reg2 = reg.clone();
        let h = fx.spawn(NodeId(2), "reducer", move |p| {
            let k = key(0, 3);
            reg2.publish(k, NodeId(1), Payload::from_vec(vec![7; 100]));
            assert_eq!(reg2.total_bytes(), 100);
            let got = fetch(&reg2, p, k).unwrap();
            assert_eq!(got.len(), 100);
            assert!(fetch(&reg2, p, key(9, 0)).is_none());
            reg2.drop_job(1);
            assert_eq!(reg2.total_bytes(), 0);
        });
        fx.run();
        h.take().unwrap();
    }

    #[test]
    fn fetch_many_moves_one_transfer_per_host_and_counts_bytes() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let reg = MapOutputRegistry::new();
        let reg2 = reg.clone();
        let fx2 = fx.clone();
        let h = fx.spawn(NodeId(3), "reducer", move |p| {
            // 6 map outputs on 2 distinct hosts.
            for m in 0..6u32 {
                reg2.publish(key(m, 0), NodeId(1 + m % 2), Payload::ghost(1_000_000));
            }
            let t0 = fx2.stats().transfers;
            let keys: Vec<SegmentKey> = (0..6).map(|m| key(m, 0)).collect();
            let got = reg2.fetch_many(p, &keys);
            assert!(got
                .iter()
                .all(|g| g.as_ref().is_some_and(|d| d.len() == 1_000_000)));
            let wire = fx2.stats().transfers - t0;
            assert_eq!(
                wire, 2,
                "6 segments on 2 hosts must ride 2 transfers, used {wire}"
            );
            assert_eq!(reg2.fetch_counts(), (6, 2));
            assert_eq!(reg2.stats().fetch_bytes, 6_000_000, "volume counter");
            // Missing keys answer None without extra transfers.
            let got = reg2.fetch_many(p, &[key(0, 0), key(99, 0)]);
            assert!(got[0].is_some() && got[1].is_none());
            assert_eq!(reg2.fetch_counts(), (7, 3));
            assert_eq!(reg2.stats().fetch_bytes, 7_000_000);
        });
        fx.run();
        h.take().unwrap();
    }

    /// The tier-2 pin: 4 tasks on 2 nodes with 2 partitions publish exactly
    /// one combined segment per (node, partition), with the saved bytes
    /// accounted on both the registry and the job counters.
    #[test]
    fn node_combine_publishes_one_segment_per_node_partition() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let jctx = ctx(2, true, ShuffleTuning::default());
        let done1 = fx.gate();
        let (nc1, ctx1, d1) = (nc.clone(), jctx.clone(), done1.clone());
        let h1 = fx.spawn(NodeId(1), "node1", move |p| {
            // Each task: partition 0 carries a=1, partition 1 carries b=<id+1>.
            for t in 0..2u32 {
                let parts = vec![enc(&[("a", "1")]), enc(&[("b", &format!("{}", t + 1))])];
                let got = nc1.add(p, &ctx1, t, parts).unwrap();
                assert!(got.is_empty(), "default tuning flushes only at completion");
            }
            let d = nc1.complete_node(p, &ctx1).unwrap().expect("one flush");
            assert_eq!(d.source, SegmentSource::Flush { node: 1, seq: 0 });
            assert_eq!(d.tasks, vec![0, 1]);
            d1.set();
        });
        let (nc2, ctx2, reg2) = (nc.clone(), jctx.clone(), reg.clone());
        let h2 = fx.spawn(NodeId(2), "node2", move |p| {
            done1.wait(p);
            for t in 2..4u32 {
                let parts = vec![enc(&[("a", "1")]), enc(&[("b", &format!("{}", t + 1))])];
                nc2.add(p, &ctx2, t, parts).unwrap();
            }
            let d = nc2.complete_node(p, &ctx2).unwrap().expect("one flush");
            assert_eq!(d.tasks, vec![2, 3]);

            // Exactly one combined segment per (node, partition).
            let s = reg2.stats();
            assert_eq!(s.combined_segments, 4, "2 nodes x 2 partitions");
            // Each task buffered 20 bytes (two 10-byte records); each node's
            // combine folds 2 records per partition into 1 → 20 saved/node.
            assert_eq!(s.combine_saved_bytes, 40);
            let c = &ctx2.counters;
            assert_eq!(c.combined_segments.load(Ordering::Relaxed), 4);
            assert_eq!(c.combine_saved_bytes.load(Ordering::Relaxed), 40);

            // Combined contents match the model: a summed, b summed per node.
            let p0 = fetch(&reg2, p, flush_key(1, 0, 0)).unwrap();
            assert_eq!(decode_kvs(p0.bytes()), vec![KV::new("a", "2")]);
            let p1 = fetch(&reg2, p, flush_key(1, 0, 1)).unwrap();
            assert_eq!(decode_kvs(p1.bytes()), vec![KV::new("b", "3")]);
            let p1b = fetch(&reg2, p, flush_key(2, 0, 1)).unwrap();
            assert_eq!(decode_kvs(p1b.bytes()), vec![KV::new("b", "7")]);
        });
        fx.run();
        h1.take().unwrap();
        h2.take().unwrap();
    }

    /// A task is buffered once per job: a second `add`, on its node or on
    /// another, is refused by name, and the first copy is what flushes.
    #[test]
    fn a_task_is_buffered_once() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        // No combiner: the flush is a pure merge, so the flushed copy shows.
        let jctx = ctx(
            1,
            false,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: None,
                flush_bytes: None,
            },
        );
        let (added, refused) = (fx.gate(), fx.gate());
        let (nc1, ctx1, added1, refused1) =
            (nc.clone(), jctx.clone(), added.clone(), refused.clone());
        let h1 = fx.spawn(NodeId(1), "node1", move |p| {
            assert_eq!(nc1.add(p, &ctx1, 0, vec![enc(&[("a", "1")])]), Ok(vec![]));
            assert_eq!(
                nc1.add(p, &ctx1, 0, vec![enc(&[("a", "9")])]),
                Err("job 1 map 0: buffered on node 1, added again on node 1".to_string())
            );
            added1.set();
            refused1.wait(p);
            let d = nc1.complete_node(p, &ctx1).unwrap().expect("flush");
            assert_eq!(d.tasks, vec![0]);
            let got = fetch(&reg, p, flush_key(1, 0, 0)).unwrap();
            assert_eq!(decode_kvs(got.bytes()), vec![KV::new("a", "1")]);
        });
        let h2 = fx.spawn(NodeId(2), "node2", move |p| {
            added.wait(p);
            assert_eq!(
                nc.add(p, &jctx, 0, vec![enc(&[("a", "7")])]),
                Err("job 1 map 0: buffered on node 1, added again on node 2".to_string())
            );
            assert_eq!(
                nc.complete_node(p, &jctx),
                Ok(None),
                "node 2 buffered nothing"
            );
            refused.set();
        });
        fx.run();
        h1.take().unwrap();
        h2.take().unwrap();
    }

    /// A buffered run that does not parse fails the flush with an error
    /// naming where it came from — no panic, no silently shorter segment.
    #[test]
    fn torn_run_fails_the_flush_with_its_origin() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let nc = NodeCombiner::new(MapOutputRegistry::new());
        let jctx = ctx(1, true, ShuffleTuning::default());
        let h = fx.spawn(NodeId(1), "node1", move |p| {
            nc.add(p, &jctx, 0, vec![enc(&[("a", "1")])]).unwrap();
            let torn = enc(&[("a", "1")]).slice(0, 9);
            nc.add(p, &jctx, 4, vec![torn]).unwrap();
            let err = nc.complete_node(p, &jctx).unwrap_err();
            assert_eq!(
                err,
                "job 1 node 1 flush 0 partition 0: run of task 4: torn segment: \
                 record at byte 0 needs 10 bytes, segment ends at 9"
            );
        });
        fx.run();
        h.take().unwrap();
    }

    /// Threshold flushes: `flush_tasks` bounds how many tasks a buffer
    /// holds before publishing mid-phase (the streaming knob).
    #[test]
    fn threshold_flush_publishes_mid_phase() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let jctx = ctx(
            1,
            true,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(2),
                flush_bytes: None,
            },
        );
        let reg2 = reg.clone();
        let h = fx.spawn(NodeId(1), "node1", move |p| {
            assert!(nc
                .add(p, &jctx, 0, vec![enc(&[("a", "1")])])
                .unwrap()
                .is_empty());
            let d = nc.add(p, &jctx, 1, vec![enc(&[("a", "1")])]).unwrap();
            assert_eq!(d.len(), 1, "second task hits the flush_tasks=2 bound");
            assert_eq!(d[0].tasks, vec![0, 1]);
            let d = nc.add(p, &jctx, 2, vec![enc(&[("a", "1")])]).unwrap();
            assert!(d.is_empty());
            let fin = nc.complete_node(p, &jctx).unwrap().expect("tail flush");
            assert_eq!(fin.source, SegmentSource::Flush { node: 1, seq: 1 });
            assert_eq!(fin.tasks, vec![2]);
            // Two flushes → two combined segments for the one partition.
            assert_eq!(reg2.stats().combined_segments, 2);
            let s0 = fetch(&reg2, p, flush_key(1, 0, 0)).unwrap();
            assert_eq!(decode_kvs(s0.bytes()), vec![KV::new("a", "2")]);
            let s1 = fetch(&reg2, p, flush_key(1, 1, 0)).unwrap();
            assert_eq!(decode_kvs(s1.bytes()), vec![KV::new("a", "1")]);
        });
        fx.run();
        h.take().unwrap();
    }

    /// A loss that lands while a flush is combining buries that flush: its
    /// tasks are reported lost and re-run per task, so the flush publishes
    /// and announces nothing when it comes back.
    #[test]
    fn a_flush_overtaken_by_a_loss_publishes_nothing() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let base = ctx(
            1,
            true,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(1),
                flush_bytes: None,
            },
        );
        // A ghost job with a combiner charges the combine as compute.
        let profile = GhostProfile {
            input_record_bytes: 100,
            map_output_ratio: 1.0,
            map_cpu_per_byte: 1.0,
            reduce_output_ratio: 1.0,
            reduce_cpu_per_byte: 1_000.0,
            combine_output_ratio: 1.0,
        };
        let jctx = Arc::new(JobCtx {
            id: base.id,
            conf: JobConf {
                ghost: Some(profile),
                ..base.conf.clone()
            },
            counters: Arc::new(JobCounters::default()),
        });
        let (nc1, reg1) = (nc.clone(), reg.clone());
        let flusher = fx.spawn(NodeId(1), "node1", move |p| {
            let d = nc1.add(p, &jctx, 0, vec![Payload::ghost(1_000_000)]);
            assert_eq!(d, Ok(vec![]), "a buried flush announces nothing");
            assert_eq!(reg1.total_bytes(), 0, "a buried flush publishes nothing");
            assert_eq!(reg1.stats().combined_segments, 0);
        });
        let losser = fx.spawn(NodeId(2), "losser", move |p| {
            p.sleep(1_000); // inside the flush's combine
            assert_eq!(nc.lose_node(NodeId(1)), vec![(1, vec![0])]);
            assert_eq!(reg.total_bytes(), 0, "nothing published yet");
        });
        fx.run();
        losser.take().unwrap();
        flusher.take().unwrap();
    }

    /// A loss does not restart a node's flush numbering: a reducer still
    /// holding the lost flush's delivery finds nothing under its key, not
    /// the next flush's tasks.
    #[test]
    fn a_flush_after_a_loss_takes_a_fresh_key() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let jctx = ctx(
            1,
            false,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(1),
                flush_bytes: None,
            },
        );
        let h = fx.spawn(NodeId(1), "node1", move |p| {
            let lost = nc.add(p, &jctx, 0, vec![enc(&[("a", "1")])]).unwrap();
            assert_eq!(nc.lose_node(p.node()), vec![(1, vec![0])]);
            let next = nc.add(p, &jctx, 5, vec![enc(&[("b", "1")])]).unwrap();
            assert_eq!(lost[0].source, SegmentSource::Flush { node: 1, seq: 0 });
            assert_eq!(next[0].source, SegmentSource::Flush { node: 1, seq: 1 });
            assert!(fetch(&reg, p, flush_key(1, 0, 0)).is_none());
        });
        fx.run();
        h.take().unwrap();
    }

    /// Losing a node's outputs drops its buffers and segments and reports
    /// the buried task ids, flushed and direct, so the tracker can re-queue
    /// them.
    #[test]
    fn drop_node_reports_buffered_tasks() {
        let fx = Fabric::sim(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let jctx = ctx(
            1,
            false,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(1),
                flush_bytes: None,
            },
        );
        let reg2 = reg.clone();
        let h = fx.spawn(NodeId(1), "node1", move |p| {
            // Flushed at once (threshold 1).
            nc.add(p, &jctx, 0, vec![enc(&[("a", "1")])]).unwrap();
            // A direct per-task publication on the same node (rerun path).
            reg2.publish(key(7, 0), p.node(), enc(&[("z", "1")]));
            assert_eq!(nc.lose_node(p.node()), vec![(1, vec![0, 7])]);
            assert_eq!(reg2.total_bytes(), 0);
            assert!(
                fetch(&reg2, p, flush_key(1, 0, 0)).is_none(),
                "flush segment gone with the host"
            );
            // A fresh run of task 0 lands cleanly (task_loc was cleared).
            let d = nc.add(p, &jctx, 0, vec![enc(&[("a", "1")])]).unwrap();
            assert_eq!(d.len(), 1);
        });
        fx.run();
        h.take().unwrap();
    }

    /// On real threads, losses race flushes that each check their
    /// generation and publish: a flush's segments must never survive a loss
    /// that reported its tasks (the tracker would re-run them beside a
    /// published copy), and no task may vanish unreported. So every task
    /// ends up in exactly one of a still-published flush and a loss's list.
    #[test]
    fn live_losses_never_leave_a_buried_flush_published() {
        const TASKS: u32 = 400;
        let fx = Fabric::live(ClusterSpec::tiny(3));
        let reg = MapOutputRegistry::new();
        let nc = NodeCombiner::new(reg.clone());
        let jctx = ctx(
            1,
            true,
            ShuffleTuning {
                node_combine: true,
                flush_tasks: Some(1),
                flush_bytes: None,
            },
        );
        let (racing, done) = (fx.gate(), fx.gate());
        let (nc1, racing1, done1) = (nc.clone(), racing.clone(), done.clone());
        let flusher = fx.spawn(NodeId(1), "flusher", move |p| {
            racing1.wait(p);
            let mut published = Vec::new();
            for t in 0..TASKS {
                published.extend(nc1.add(p, &jctx, t, vec![enc(&[("a", "1")])]).unwrap());
            }
            done1.set();
            published
        });
        let loser = fx.spawn(NodeId(2), "loser", move |p| {
            racing.set();
            let mut lost = Vec::new();
            while !done.is_set() {
                for (job, tasks) in nc.lose_node(NodeId(1)) {
                    assert_eq!(job, 1);
                    lost.extend(tasks);
                }
                p.sleep(20 * fabric::MICROS);
            }
            lost
        });
        fx.run();
        let lost = loser.take().unwrap();
        // Only once both are done is what is still published final.
        let published = flusher.take().unwrap();
        let checker = fx.spawn(NodeId(0), "checker", move |p| {
            let still_there = |d: &DeliverySpec| {
                let key = SegmentKey {
                    job: 1,
                    source: d.source,
                    partition: 0,
                };
                fetch(&reg, p, key).is_some()
            };
            (published.into_iter())
                .filter(still_there)
                .flat_map(|d| d.tasks)
                .collect::<Vec<u32>>()
        });
        fx.run();
        let survived = checker.take().unwrap();
        let both: Vec<&u32> = survived.iter().filter(|t| lost.contains(t)).collect();
        assert!(
            both.is_empty(),
            "tasks {both:?} were reported lost, yet their flush is still published"
        );
        let mut all: Vec<u32> = survived.into_iter().chain(lost).collect();
        all.sort_unstable();
        assert_eq!(all, (0..TASKS).collect::<Vec<u32>>(), "a task vanished");
    }
}
