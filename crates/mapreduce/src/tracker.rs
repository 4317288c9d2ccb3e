//! The framework's control plane (paper §2.2): "the framework consists of a
//! single master jobtracker, and multiple slave tasktrackers, one per node.
//! A Map/Reduce job is split into a set of tasks, which are executed by the
//! tasktrackers, as assigned by the jobtracker."
//!
//! Tasktrackers heartbeat the jobtracker asking for work; the jobtracker
//! assigns map tasks with data-locality preference (it reads block
//! locations from the file system — HDFS's namenode or BSFS's new
//! page-distribution primitive).
//!
//! **Streaming handoff (no reduce barrier).** Reduce tasks are assigned
//! from the first heartbeat; each carries a delivery *feed* the jobtracker
//! fills as map outputs publish. A completed map's `MapDone` carries the
//! [`DeliverySpec`]s its publication produced (a tier-2 threshold flush, or
//! a direct per-task segment), and the jobtracker forwards them to every
//! reducer — reducers fetch and merge while the map phase is still
//! running. When a node's share of the map phase completes (no pending
//! maps remain and the node has no map in flight), the jobtracker spawns a
//! final combine flush on that node; its `FlushDone` announces the last
//! combined segments. See `shuffle.rs` for the two-tier combine itself.
//!
//! **Output loss and re-runs.** [`MrCluster::lose_map_outputs`] models a
//! node losing its local map-output store mid-shuffle (the chaos harness's
//! shuffle-storm fault): the node's published segments and combine buffers
//! are dropped, and the tasks whose output they carried are re-queued as
//! [`MapTaskSpec::rerun`]s that publish per-task segments. Reducers treat a
//! fetch that answers `None` as exactly this loss and wait for the re-run's
//! replacement delivery; completion bookkeeping is idempotent under
//! duplicate `MapDone`s.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dfs::FileSystem;
use fabric::sync::{Gate, Queue};
use fabric::{ClusterSpec, Fabric, NodeId, Proc, SimTime};
use parking_lot::Mutex;

use crate::job::{JobConf, JobCounters, JobCtx, JobResult, OutputMode};
use crate::shuffle::{DeliverySpec, MapOutputRegistry, NodeCombiner};
use crate::task::{run_map_task, run_reduce_task, MapTaskSpec, ReduceTaskSpec};

/// Cluster-level framework configuration.
#[derive(Debug, Clone)]
pub struct MrConfig {
    pub jobtracker: NodeId,
    pub tasktrackers: Vec<NodeId>,
    /// Concurrent map tasks per tasktracker (Hadoop default: 2).
    pub map_slots: u32,
    /// Concurrent reduce tasks per tasktracker (Hadoop default: 2).
    pub reduce_slots: u32,
    /// Heartbeat period.
    pub heartbeat_ns: u64,
    /// A pending map task is held for data-local tasktrackers for this long
    /// after becoming available; afterwards any node may take it (a light
    /// form of delay scheduling; 0 = fully greedy like Hadoop 0.20).
    pub locality_delay_ns: u64,
}

impl MrConfig {
    /// Paper deployment (§4.3): "one dedicated machine acted as the
    /// jobtracker, while the tasktrackers were co-deployed with the
    /// datanodes/providers" — i.e. on nodes 23.. of the 270-node layouts.
    pub fn paper(spec: &ClusterSpec) -> MrConfig {
        assert!(spec.nodes >= 30);
        MrConfig {
            jobtracker: NodeId(2),
            tasktrackers: (23..spec.nodes).map(NodeId).collect(),
            map_slots: 2,
            reduce_slots: 2,
            heartbeat_ns: 1_000 * fabric::MILLIS,
            locality_delay_ns: 1_500 * fabric::MILLIS,
        }
    }

    /// Small layout for functional tests (fast heartbeats).
    pub fn compact(spec: &ClusterSpec) -> MrConfig {
        MrConfig {
            jobtracker: NodeId(0),
            tasktrackers: spec.all_nodes().collect(),
            map_slots: 2,
            reduce_slots: 2,
            heartbeat_ns: 10 * fabric::MILLIS,
            locality_delay_ns: 15 * fabric::MILLIS,
        }
    }

    pub fn with_slots(mut self, map: u32, reduce: u32) -> Self {
        self.map_slots = map;
        self.reduce_slots = reduce;
        self
    }

    pub fn with_heartbeat_ns(mut self, hb: u64) -> Self {
        self.heartbeat_ns = hb;
        self.locality_delay_ns = hb + hb / 2;
        self
    }
}

enum Assignment {
    Map(MapTaskSpec),
    Reduce(ReduceTaskSpec),
}

enum JtMsg {
    Submit {
        conf: JobConf,
        done: Gate,
        slot: Arc<Mutex<Option<JobResult>>>,
    },
    Heartbeat {
        node: NodeId,
        free_map: u32,
        free_reduce: u32,
        reply: Queue<Vec<Assignment>>,
    },
    MapDone {
        job: u64,
        task: u32,
        node: NodeId,
        /// Deliveries this task's publication produced (threshold flush or
        /// direct per-task segment), forwarded to every reducer feed.
        deliveries: Vec<DeliverySpec>,
    },
    /// A node's final combine flush finished (spawned by the jobtracker
    /// once the node's map share completed).
    FlushDone {
        job: u64,
        delivery: Option<DeliverySpec>,
    },
    /// `node` lost its local map-output store; `lost` lists, per job, the
    /// completed tasks whose output went with it.
    OutputsLost {
        node: NodeId,
        lost: Vec<(u64, Vec<u32>)>,
    },
    ReduceDone {
        job: u64,
    },
    TaskFailed {
        job: u64,
        detail: String,
    },
}

struct JobState {
    ctx: Arc<JobCtx>,
    done: Gate,
    slot: Arc<Mutex<Option<JobResult>>>,
    /// `(task, available_since_ns)`
    pending_maps: Vec<(MapTaskSpec, u64)>,
    /// Every planned map spec, kept for re-queuing after output loss.
    specs: BTreeMap<u32, MapTaskSpec>,
    /// Tasks whose completion is currently counted (removed on re-queue, so
    /// duplicate `MapDone`s stay idempotent).
    completed: BTreeSet<u32>,
    maps_total: u32,
    maps_done: u32,
    pending_reduces: Vec<u32>,
    reduces_done: u32,
    /// One delivery feed per reduce partition, filled as outputs publish.
    feeds: Vec<Queue<DeliverySpec>>,
    /// Maps in flight per tasktracker node (gates the final flush).
    node_outstanding: BTreeMap<u32, u32>,
    /// Nodes that received at least one map of this job.
    seen_nodes: BTreeSet<u32>,
    /// Nodes whose final flush was already spawned (cleared when a node
    /// gets new work, e.g. a re-queued task).
    flushed_nodes: BTreeSet<u32>,
    started_ns: SimTime,
}

/// Handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    done: Gate,
    slot: Arc<Mutex<Option<JobResult>>>,
}

impl JobHandle {
    /// Block the calling process until the job completes; panics if it
    /// failed.
    pub fn wait(&self, p: &Proc) -> JobResult {
        self.done.wait(p);
        self.result().expect("job finished without a result")
    }

    /// Non-blocking result probe.
    pub fn result(&self) -> Option<JobResult> {
        self.slot.lock().clone()
    }

    /// Has the job finished?
    pub fn is_done(&self) -> bool {
        self.done.is_set()
    }
}

/// A running Map/Reduce deployment bound to one file system.
#[derive(Clone)]
pub struct MrCluster {
    fabric: Fabric,
    fs: Arc<dyn FileSystem>,
    config: MrConfig,
    inbox: Queue<JtMsg>,
    registry: Arc<MapOutputRegistry>,
    combiner: Arc<NodeCombiner>,
    shutdown: Gate,
}

impl MrCluster {
    /// Spawn the jobtracker and all tasktrackers. Call
    /// [`MrCluster::shutdown`] when done so `fabric.run()` can terminate.
    pub fn start(fabric: &Fabric, fs: Arc<dyn FileSystem>, config: MrConfig) -> MrCluster {
        let inbox: Queue<JtMsg> = fabric.queue();
        let registry = MapOutputRegistry::new();
        let combiner = NodeCombiner::new(registry.clone());
        let shutdown = fabric.gate();
        let cluster = MrCluster {
            fabric: fabric.clone(),
            fs,
            config,
            inbox,
            registry,
            combiner,
            shutdown,
        };
        cluster.spawn_jobtracker();
        for (i, &node) in cluster.config.tasktrackers.clone().iter().enumerate() {
            cluster.spawn_tasktracker(i as u32, node);
        }
        cluster
    }

    /// Submit a job; the returned handle completes when the job does.
    pub fn submit(&self, conf: JobConf) -> JobHandle {
        let done = self.fabric.gate();
        let slot = Arc::new(Mutex::new(None));
        let handle = JobHandle {
            done: done.clone(),
            slot: slot.clone(),
        };
        self.inbox.send(JtMsg::Submit { conf, done, slot });
        handle
    }

    /// Stop the tasktracker heartbeat loops and the jobtracker. In-flight
    /// jobs must be waited on *before* calling this.
    pub fn shutdown(&self) {
        self.shutdown.set();
        self.inbox.close();
    }

    /// The shuffle registry (diagnostics).
    pub fn registry(&self) -> &Arc<MapOutputRegistry> {
        &self.registry
    }

    /// The tier-2 node-combine stage (diagnostics).
    pub fn node_combiner(&self) -> &Arc<NodeCombiner> {
        &self.combiner
    }

    /// Model `node` losing its local map-output store mid-job (a tasktracker
    /// crash that keeps the process but wipes the shuffle spool). Drops the
    /// node's published segments and combine buffers and tells the
    /// jobtracker to re-queue the tasks whose output was buried there.
    pub fn lose_map_outputs(&self, node: NodeId) {
        let mut lost: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (job, task) in self.registry.drop_host(node) {
            lost.entry(job).or_default().push(task);
        }
        for (job, tasks) in self.combiner.drop_node(node) {
            lost.entry(job).or_default().extend(tasks);
        }
        let lost: Vec<(u64, Vec<u32>)> = lost
            .into_iter()
            .map(|(job, mut tasks)| {
                tasks.sort_unstable();
                tasks.dedup();
                (job, tasks)
            })
            .collect();
        self.inbox.send(JtMsg::OutputsLost { node, lost });
    }

    fn spawn_jobtracker(&self) {
        let inbox = self.inbox.clone();
        let fs = self.fs.clone();
        let fabric = self.fabric.clone();
        let registry = self.registry.clone();
        let combiner = self.combiner.clone();
        let jt_node = self.config.jobtracker;
        let locality_delay = self.config.locality_delay_ns;
        self.fabric.spawn(jt_node, "jobtracker", move |p| {
            let mut jobs: HashMap<u64, JobState> = HashMap::new();
            let mut order: Vec<u64> = Vec::new(); // FIFO priority
            let mut next_job: u64 = 1;
            while let Some(msg) = inbox.recv(p) {
                match msg {
                    JtMsg::Submit { conf, done, slot } => {
                        let id = next_job;
                        next_job += 1;
                        match plan_job(p, &fs, id, conf, done.clone(), slot) {
                            Ok(state) => {
                                order.push(id);
                                jobs.insert(id, state);
                            }
                            Err(e) => panic!("job planning failed: {e}"),
                        }
                    }
                    JtMsg::Heartbeat {
                        node,
                        free_map,
                        free_reduce,
                        reply,
                    } => {
                        let mut out = Vec::new();
                        let mut free_map = free_map;
                        let mut free_reduce = free_reduce;
                        for id in &order {
                            let st = jobs.get_mut(id).expect("job in order map");
                            // Map tasks: node-local first; non-local only
                            // after the task waited `locality_delay` for a
                            // local taker (light delay scheduling). At most
                            // one map is handed out per heartbeat, as in
                            // Hadoop 0.20 — this also stops one tracker
                            // hoarding several co-located compute-heavy maps.
                            let now = p.now();
                            let mut maps_this_hb = 0u32;
                            while free_map > 0 && maps_this_hb == 0 && !st.pending_maps.is_empty() {
                                let local = st
                                    .pending_maps
                                    .iter()
                                    .position(|(t, _)| t.hosts.contains(&node));
                                let idx = match local {
                                    Some(i) => i,
                                    None => {
                                        let Some(i) =
                                            st.pending_maps.iter().position(|(_, since)| {
                                                now.saturating_sub(*since) > locality_delay
                                            })
                                        else {
                                            break; // all held for local takers
                                        };
                                        i
                                    }
                                };
                                let (task, _) = st.pending_maps.swap_remove(idx);
                                *st.node_outstanding.entry(node.0).or_insert(0) += 1;
                                st.seen_nodes.insert(node.0);
                                st.flushed_nodes.remove(&node.0);
                                out.push(Assignment::Map(task));
                                free_map -= 1;
                                maps_this_hb += 1;
                            }
                            // This heartbeat may have drained the map queue;
                            // idle nodes can flush without waiting for the
                            // last in-flight map elsewhere.
                            maybe_flush_idle_nodes(&fabric, &combiner, &inbox, *id, st);
                            // Reduce tasks stream: assigned from the first
                            // heartbeat (no map-phase barrier) — each carries
                            // its delivery feed and fetches as maps publish.
                            while free_reduce > 0 && !st.pending_reduces.is_empty() {
                                let r = st.pending_reduces.pop().expect("nonempty");
                                let feed = st
                                    .feeds
                                    .get(r as usize)
                                    .cloned()
                                    .expect("one feed per partition");
                                out.push(Assignment::Reduce(ReduceTaskSpec {
                                    job: st.ctx.clone(),
                                    partition: r,
                                    map_count: st.maps_total,
                                    feed,
                                }));
                                free_reduce -= 1;
                            }
                        }
                        reply.send(out);
                    }
                    JtMsg::MapDone {
                        job,
                        task,
                        node,
                        deliveries,
                    } => {
                        if let Some(st) = jobs.get_mut(&job) {
                            if st.completed.insert(task) {
                                st.maps_done += 1;
                                st.ctx.counters.add(&st.ctx.counters.maps_completed, 1);
                            }
                            if let Some(o) = st.node_outstanding.get_mut(&node.0) {
                                *o = o.saturating_sub(1);
                            }
                            for d in &deliveries {
                                announce(st, d);
                            }
                            maybe_flush_idle_nodes(&fabric, &combiner, &inbox, job, st);
                        }
                    }
                    JtMsg::FlushDone { job, delivery } => {
                        if let Some(st) = jobs.get_mut(&job) {
                            if let Some(d) = delivery {
                                announce(st, &d);
                            }
                        }
                    }
                    JtMsg::OutputsLost { node, lost } => {
                        for (job, tasks) in lost {
                            let Some(st) = jobs.get_mut(&job) else {
                                continue;
                            };
                            for t in tasks {
                                let Some(orig) = st.specs.get(&t) else {
                                    continue;
                                };
                                let mut spec = orig.clone();
                                spec.rerun = true;
                                if st.completed.remove(&t) {
                                    st.maps_done -= 1;
                                    st.ctx
                                        .counters
                                        .maps_completed
                                        .fetch_sub(1, Ordering::Relaxed);
                                }
                                st.pending_maps.push((spec, p.now()));
                            }
                            st.flushed_nodes.remove(&node.0);
                        }
                    }
                    JtMsg::ReduceDone { job } => {
                        let finished = {
                            let st = jobs.get_mut(&job).expect("reduce for known job");
                            st.reduces_done += 1;
                            st.reduces_done == st.ctx.conf.num_reducers
                        };
                        if finished {
                            let st = jobs.remove(&job).expect("known job");
                            order.retain(|&x| x != job);
                            finalize_job(p, &fs, &fabric, &registry, &combiner, st);
                        }
                    }
                    JtMsg::TaskFailed { job, detail } => {
                        // Production Hadoop retries; here a task failure is a
                        // correctness bug, so fail loudly with context.
                        panic!("task of job {job} failed: {detail}");
                    }
                }
            }
        });
    }

    fn spawn_tasktracker(&self, tt_id: u32, node: NodeId) {
        let inbox = self.inbox.clone();
        let fs = self.fs.clone();
        let registry = self.registry.clone();
        let combiner = self.combiner.clone();
        let shutdown = self.shutdown.clone();
        let fabric = self.fabric.clone();
        let config = self.config.clone();
        self.fabric
            .spawn(node, format!("tasktracker-{tt_id}"), move |p| {
                let running_maps = Arc::new(AtomicU32::new(0));
                let running_reduces = Arc::new(AtomicU32::new(0));
                let reply: Queue<Vec<Assignment>> = p.fabric().queue();
                loop {
                    if shutdown.is_set() {
                        break;
                    }
                    // Heartbeat: a small control RPC to the jobtracker node.
                    p.rpc(config.jobtracker, 128, 128);
                    let hb = JtMsg::Heartbeat {
                        node,
                        free_map: config
                            .map_slots
                            .saturating_sub(running_maps.load(Ordering::Relaxed)),
                        free_reduce: config
                            .reduce_slots
                            .saturating_sub(running_reduces.load(Ordering::Relaxed)),
                        reply: reply.clone(),
                    };
                    if !inbox.send(hb) {
                        break; // jobtracker shut down
                    }
                    let Some(assignments) = reply.recv(p) else {
                        break;
                    };
                    for a in assignments {
                        match a {
                            Assignment::Map(spec) => {
                                running_maps.fetch_add(1, Ordering::Relaxed);
                                let fs2 = fs.clone();
                                let comb2 = combiner.clone();
                                let inbox2 = inbox.clone();
                                let rm = running_maps.clone();
                                fabric.spawn(
                                    node,
                                    format!("map-{}-{}", spec.job.id, spec.task_id),
                                    move |tp| {
                                        let res = run_map_task(tp, &fs2, &comb2, &spec);
                                        let msg = match res {
                                            Ok(deliveries) => JtMsg::MapDone {
                                                job: spec.job.id,
                                                task: spec.task_id,
                                                node: tp.node(),
                                                deliveries,
                                            },
                                            Err(e) => JtMsg::TaskFailed {
                                                job: spec.job.id,
                                                detail: e,
                                            },
                                        };
                                        rm.fetch_sub(1, Ordering::Relaxed);
                                        inbox2.send(msg);
                                    },
                                );
                            }
                            Assignment::Reduce(spec) => {
                                running_reduces.fetch_add(1, Ordering::Relaxed);
                                let fs2 = fs.clone();
                                let reg2 = registry.clone();
                                let inbox2 = inbox.clone();
                                let rr = running_reduces.clone();
                                fabric.spawn(
                                    node,
                                    format!("reduce-{}-{}", spec.job.id, spec.partition),
                                    move |tp| {
                                        let res = run_reduce_task(tp, &fs2, &reg2, &spec);
                                        let msg = match res {
                                            Ok(()) => JtMsg::ReduceDone { job: spec.job.id },
                                            Err(e) => JtMsg::TaskFailed {
                                                job: spec.job.id,
                                                detail: e,
                                            },
                                        };
                                        rr.fetch_sub(1, Ordering::Relaxed);
                                        inbox2.send(msg);
                                    },
                                );
                            }
                        }
                    }
                    p.sleep(config.heartbeat_ns);
                }
            });
    }
}

/// Forward a delivery to every reducer's feed.
fn announce(st: &JobState, d: &DeliverySpec) {
    for feed in &st.feeds {
        feed.send(d.clone());
    }
}

/// Once the map queue is drained, spawn the final combine flush on every
/// node whose map share is complete (no map in flight) and not yet flushed.
/// A node that later receives re-queued work is cleared from
/// `flushed_nodes` and will flush again.
fn maybe_flush_idle_nodes(
    fabric: &Fabric,
    combiner: &Arc<NodeCombiner>,
    inbox: &Queue<JtMsg>,
    job: u64,
    st: &mut JobState,
) {
    if !st.pending_maps.is_empty() || !st.ctx.conf.shuffle.node_combine {
        return;
    }
    let idle: Vec<u32> = st
        .seen_nodes
        .iter()
        .copied()
        .filter(|n| {
            st.node_outstanding.get(n).copied().unwrap_or(0) == 0 && !st.flushed_nodes.contains(n)
        })
        .collect();
    for n in idle {
        st.flushed_nodes.insert(n);
        let comb2 = combiner.clone();
        let inbox2 = inbox.clone();
        let ctx = st.ctx.clone();
        fabric.spawn(NodeId(n), format!("combine-flush-{job}-{n}"), move |tp| {
            inbox2.send(match comb2.complete_node(tp, &ctx, tp.node()) {
                Ok(delivery) => JtMsg::FlushDone { job, delivery },
                Err(detail) => JtMsg::TaskFailed { job, detail },
            });
        });
    }
}

/// Plan a job: compute input splits from block locations, prepare the
/// output directory (and, in shared-append mode, the single output file),
/// and create the per-reducer delivery feeds.
fn plan_job(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    id: u64,
    conf: JobConf,
    done: Gate,
    slot: Arc<Mutex<Option<JobResult>>>,
) -> Result<JobState, String> {
    fs.mkdirs(p, &conf.output_dir)
        .map_err(|e| format!("mkdir {}: {e}", conf.output_dir))?;
    if conf.output_mode == OutputMode::SharedAppendFile {
        let shared = conf.shared_output_file();
        let mut w = fs
            .create(p, &shared)
            .map_err(|e| format!("create shared output {shared}: {e}"))?;
        w.close(p)
            .map_err(|e| format!("close shared output: {e}"))?;
    }

    let ctx = Arc::new(JobCtx {
        id,
        conf,
        counters: Arc::new(JobCounters::default()),
    });
    let mut pending_maps = Vec::new();
    for input in &ctx.conf.inputs {
        let st = fs
            .status(p, input)
            .map_err(|e| format!("input {input}: {e}"))?;
        if st.len == 0 {
            continue;
        }
        // One map task per block, as the paper describes ("the Hadoop
        // framework starts a mapper to process each input chunk").
        let locs = fs
            .block_locations(p, input, 0, st.len)
            .map_err(|e| format!("locations of {input}: {e}"))?;
        for loc in locs {
            let task_id = pending_maps.len() as u32;
            pending_maps.push((
                MapTaskSpec {
                    job: ctx.clone(),
                    task_id,
                    file: input.clone(),
                    offset: loc.offset,
                    len: loc.len,
                    hosts: loc.hosts,
                    rerun: false,
                },
                p.now(),
            ));
        }
    }
    let specs: BTreeMap<u32, MapTaskSpec> = pending_maps
        .iter()
        .map(|(t, _)| (t.task_id, t.clone()))
        .collect();
    let maps_total = pending_maps.len() as u32;
    let pending_reduces: Vec<u32> = (0..ctx.conf.num_reducers).rev().collect();
    let feeds: Vec<Queue<DeliverySpec>> = (0..ctx.conf.num_reducers)
        .map(|_| p.fabric().queue())
        .collect();
    Ok(JobState {
        ctx,
        done,
        slot,
        pending_maps,
        specs,
        completed: BTreeSet::new(),
        maps_total,
        maps_done: 0,
        pending_reduces,
        reduces_done: 0,
        feeds,
        node_outstanding: BTreeMap::new(),
        seen_nodes: BTreeSet::new(),
        flushed_nodes: BTreeSet::new(),
        started_ns: p.now(),
    })
}

fn finalize_job(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    fabric: &Fabric,
    registry: &Arc<MapOutputRegistry>,
    combiner: &Arc<NodeCombiner>,
    st: JobState,
) {
    let conf = &st.ctx.conf;
    // Remove the _temporary staging dir (original mode) and count the files
    // the job left behind — the paper's file-count metric.
    let tmp = conf
        .output_dir
        .child("_temporary")
        .expect("valid component");
    let _ = fs.delete(p, &tmp, true);
    let output_files = fs.count_files(p, &conf.output_dir).unwrap_or(0);

    registry.drop_job(st.ctx.id);
    combiner.drop_job(st.ctx.id);
    let c = &st.ctx.counters;
    use std::sync::atomic::Ordering::Relaxed;
    let result = JobResult {
        name: conf.name.clone(),
        job_id: st.ctx.id,
        maps: st.maps_total,
        reduces: conf.num_reducers,
        started_ns: st.started_ns,
        finished_ns: fabric.now(),
        map_input_bytes: c.map_input_bytes.load(Relaxed),
        map_output_bytes: c.map_output_bytes.load(Relaxed),
        shuffle_bytes: c.shuffle_bytes.load(Relaxed),
        reduce_output_bytes: c.reduce_output_bytes.load(Relaxed),
        data_local_maps: c.data_local_maps.load(Relaxed),
        remote_maps: c.remote_maps.load(Relaxed),
        combined_segments: c.combined_segments.load(Relaxed),
        combine_saved_bytes: c.combine_saved_bytes.load(Relaxed),
        early_shuffle_fetches: c.early_shuffle_fetches.load(Relaxed),
        output_files,
    };
    *st.slot.lock() = Some(result);
    st.done.set();
}
