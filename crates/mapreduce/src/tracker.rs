//! The framework's control plane (paper §2.2): "the framework consists of a
//! single master jobtracker, and multiple slave tasktrackers, one per node.
//! A Map/Reduce job is split into a set of tasks, which are executed by the
//! tasktrackers, as assigned by the jobtracker."
//!
//! Tasktrackers heartbeat the jobtracker asking for work (pull scheduling,
//! as in Hadoop 0.20); map tasks are assigned with data-locality preference
//! (block locations come from the file system — HDFS's namenode or BSFS's
//! new page-distribution primitive).
//!
//! **Who owns what.** The jobtracker is two things. Its *state* — the jobs
//! that are planned and not yet finished, their FIFO order, their pending
//! tasks — is one `Mutex<Scheduler>`, a passive caller-pays object like the
//! version manager, the provider manager or the namespace manager: a
//! heartbeat is `p.request(jobtracker, 128, 128, 0).wait(p)` paid by the
//! tasktracker's own proc, which then calls `Scheduler::assign` itself and
//! spawns what it is handed. It costs two latency legs and the sleep to the next beat, never
//! leaves the tracker's thread, and is answered from the scheduler's state
//! at that instant — in particular, while the jobtracker is busy planning
//! or finalising some job, the others keep being scheduled. Its *proc* (on
//! the jobtracker's node, fed by an inbox) remains for what spends virtual
//! time there or arrives from a task: `Submit` (planning reads the file
//! system), `ReduceDone` (finalising does too), `MapDone`, `FlushDone`,
//! `OutputsLost`, `TaskFailed`. In sim mode one proc runs at a time, so
//! heartbeats take the lock in event order — the order the inbox used to
//! give them.
//!
//! **Idle beats.** A beat is idle when `assign` handed out no task and no
//! flush, and either no job has a pending map or the tracker had no free
//! map slot: the locality delay is the only input of `assign` that changes
//! with time alone, and it matters only to a free slot facing pending
//! maps. Until something else changes, every later beat gets the same
//! empty answer. So after an idle beat the tracker calls
//! [`Proc::heartbeat`] with the scheduler's [`Epoch`] and the value it
//! read before asking, and in sim mode the engine repeats the sleep and the
//! rpc itself. It wakes the tracker only at the first check that finds the
//! epoch moved — after a sleep, or after an rpc: the two places where this
//! loop looks at the shutdown gate — and the tracker does there exactly
//! what its loop would have done. The epoch is bumped at every change that
//! can turn an idle answer into work:
//! - every scheduler mutation: `admit`, an `assign` that hands something
//!   out, `map_done`, `outputs_lost`, `reduce_done`;
//! - every slot release in `spawn_task`;
//! - [`MrCluster::shutdown`].
//!
//! In live mode `heartbeat` is a plain sleep and the loop beats as before.
//!
//! **The lock** is held for one state update and released before anything
//! that spends virtual time or spawns: `p.*`, a file-system call, a
//! `Fabric::spawn`. A sim proc that parked while holding it would leave the
//! next proc the engine wakes blocked on an OS mutex the engine cannot see,
//! with nobody left to take a step — a hang. It is unranked, like the
//! shuffle registry's `segments` and the node combiner's `jobs`, and never
//! held together with either: the scheduler hands out work and flush
//! orders, the code that touches the registry runs after the guard is gone.
//! Reducer feeds are the one thing sent to under it (`Queue::send` does not
//! block), which is what keeps a delivery and the assignment of the reducer
//! that needs it in one order.
//!
//! **Streaming handoff (no reduce barrier).** Reduce tasks are assigned
//! from the first heartbeat; each carries a delivery *feed* the jobtracker
//! fills as map outputs publish. A completed map's `MapDone` carries the
//! [`DeliverySpec`]s its publication produced (a tier-2 threshold flush, or
//! a direct per-task segment), and the jobtracker forwards them to every
//! reducer — reducers fetch and merge while the map phase is still
//! running. When a node's share of the map phase completes (no pending
//! maps remain and the node has no map in flight), the scheduler hands its
//! caller a final combine flush to spawn on that node; its `FlushDone`
//! announces the last combined segments. See `shuffle.rs` for the two-tier
//! combine itself.
//!
//! **Output loss and re-runs.** [`MrCluster::lose_map_outputs`] models a
//! node losing its local map-output store mid-shuffle (the chaos harness's
//! shuffle-storm fault): the node's published segments and combine buffers
//! are dropped, a flush still combining there is buried with them, and the
//! tasks whose output they carried are re-queued as [`MapTaskSpec::rerun`]s
//! that bypass the combine buffer and publish per-task segments — the only
//! way a map task runs twice. Reducers treat a fetch that answers `None` as
//! exactly this loss and wait for the re-run's replacement delivery; their
//! `obtained` set merges each task once, and the scheduler's `completed`
//! set counts it once.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "fail-loud policy: Hadoop retries, this driver treats a failed task or plan, or a broken scheduler invariant, as a bug in the experiment (ROADMAP A(2): typed JobError)"
)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use dfs::FileSystem;
use fabric::sync::{Gate, Queue};
use fabric::{ClusterSpec, Epoch, Fabric, NodeId, Proc, SimTime};
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
    /// Heartbeat period. A pending map task is also held for data-local
    /// tasktrackers for 1.5 heartbeats after becoming available; afterwards
    /// any node may take it (a light form of delay scheduling).
    pub heartbeat_ns: u64,
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
        }
    }

    pub fn with_slots(mut self, map: u32, reduce: u32) -> Self {
        self.map_slots = map;
        self.reduce_slots = reduce;
        self
    }

    pub fn with_heartbeat_ns(mut self, hb: u64) -> Self {
        self.heartbeat_ns = hb;
        self
    }
}

enum Assignment {
    Map(MapTaskSpec),
    Reduce(ReduceTaskSpec),
}

/// A node whose final combine flush came due: its share of `ctx`'s map
/// phase is complete.
type Flush = (Arc<JobCtx>, NodeId);

/// The request and the response of a heartbeat, in bytes.
const BEAT_BYTES: u64 = fabric::CTL_MSG_BYTES;

/// The answer to one heartbeat.
#[derive(Default)]
struct Beat {
    tasks: Vec<Assignment>,
    /// Due because this beat drained a job's map queue.
    flushes: Vec<Flush>,
    /// A free map slot passed over pending maps, which the locality delay
    /// may release to it later with nothing else changing.
    waits_on_clock: bool,
}

impl Beat {
    /// Nothing handed out, and the same question would get the same answer
    /// until the scheduler's epoch moves.
    fn is_idle(&self) -> bool {
        self.tasks.is_empty() && self.flushes.is_empty() && !self.waits_on_clock
    }
}

enum JtMsg {
    Submit {
        conf: JobConf,
        handle: JobHandle,
    },
    MapDone {
        job: u64,
        task: u32,
        node: NodeId,
        /// Deliveries this task's publication produced (threshold flush or
        /// direct per-task segment), forwarded to every reducer feed.
        deliveries: Vec<DeliverySpec>,
    },
    /// A node's final combine flush finished.
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
    handle: JobHandle,
    /// `(task, available_since_ns)`
    pending_maps: Vec<(MapTaskSpec, u64)>,
    /// Every planned map spec, kept for re-queuing after output loss.
    specs: BTreeMap<u32, MapTaskSpec>,
    /// Tasks whose completion is currently counted (removed on re-queue, so
    /// duplicate `MapDone`s stay idempotent).
    completed: BTreeSet<u32>,
    maps_total: u32,
    pending_reduces: Vec<u32>,
    reduces_done: u32,
    /// One delivery feed per reduce partition, filled as outputs publish.
    feeds: Vec<Queue<DeliverySpec>>,
    /// Maps in flight per tasktracker node (gates the final flush).
    node_outstanding: BTreeMap<u32, u32>,
    /// Nodes that received at least one map of this job.
    seen_nodes: BTreeSet<u32>,
    /// Nodes whose final flush was already handed out (cleared when a node
    /// gets new work, e.g. a re-queued task).
    flushed_nodes: BTreeSet<u32>,
    started_ns: SimTime,
}

impl JobState {
    /// A planned job at `now`: every split pending (each since the instant
    /// planning located it), every partition unassigned, one feed per
    /// partition.
    fn new(
        ctx: Arc<JobCtx>,
        handle: JobHandle,
        pending_maps: Vec<(MapTaskSpec, u64)>,
        feeds: Vec<Queue<DeliverySpec>>,
        now: SimTime,
    ) -> JobState {
        JobState {
            specs: (pending_maps.iter())
                .map(|(t, _)| (t.task_id, t.clone()))
                .collect(),
            maps_total: pending_maps.len() as u32,
            pending_maps,
            completed: BTreeSet::new(),
            pending_reduces: (0..ctx.conf.num_reducers).rev().collect(),
            reduces_done: 0,
            feeds,
            node_outstanding: BTreeMap::new(),
            seen_nodes: BTreeSet::new(),
            flushed_nodes: BTreeSet::new(),
            started_ns: now,
            ctx,
            handle,
        }
    }

    /// Forward a delivery to every reducer's feed.
    fn announce(&self, d: &DeliverySpec) {
        for feed in &self.feeds {
            feed.send(d.clone());
        }
    }

    /// Once the map queue is drained: every node whose map share is
    /// complete (no map in flight) and that has not flushed yet, marked
    /// flushed. A node that later receives re-queued work is cleared from
    /// `flushed_nodes` and will come due again.
    fn take_due_flushes(&mut self) -> Vec<Flush> {
        if !self.pending_maps.is_empty() || !self.ctx.conf.shuffle.node_combine {
            return Vec::new();
        }
        let due: Vec<Flush> = (self.seen_nodes.difference(&self.flushed_nodes))
            .filter(|n| self.node_outstanding.get(n).copied().unwrap_or(0) == 0)
            .map(|&n| (self.ctx.clone(), NodeId(n)))
            .collect();
        self.flushed_nodes.extend(due.iter().map(|(_, n)| n.0));
        due
    }
}

/// The jobtracker's scheduling state and the decision itself. A passive
/// object: whoever holds the lock runs the code, on its own thread, after
/// paying the wire cost itself.
struct Scheduler {
    jobs: HashMap<u64, JobState>,
    /// FIFO priority.
    order: Vec<u64>,
    next_job: u64,
    locality_delay: u64,
    /// Bumped by every change that can turn an idle beat's answer into work.
    epoch: Epoch,
}

impl Scheduler {
    fn new(locality_delay: u64) -> Scheduler {
        Scheduler {
            jobs: HashMap::new(),
            order: Vec::new(),
            next_job: 1,
            locality_delay,
            epoch: Epoch::new(),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job - 1
    }

    /// Make a planned job schedulable.
    fn admit(&mut self, st: JobState) {
        self.epoch.bump();
        self.order.push(st.ctx.id);
        self.jobs.insert(st.ctx.id, st);
    }

    /// Answer a heartbeat from `node` at `now`. A job that is still being
    /// planned, or already being finalised, is not in `jobs` and gets
    /// nothing.
    fn assign(&mut self, node: NodeId, free_map: u32, free_reduce: u32, now: SimTime) -> Beat {
        let mut beat = Beat::default();
        // At most one map is handed out per heartbeat, as in Hadoop 0.20 —
        // this also stops one tracker hoarding several co-located
        // compute-heavy maps.
        let mut map_wanted = free_map > 0;
        let mut free_reduce = free_reduce;
        for id in &self.order {
            let st = self.jobs.get_mut(id).expect("job in order map");
            // Node-local first; non-local only after the task waited
            // `locality_delay` for a local taker (light delay scheduling).
            let (maps, delay) = (&st.pending_maps, self.locality_delay);
            let pick = if map_wanted {
                (maps.iter())
                    .position(|(t, _)| t.hosts.contains(&node))
                    .or_else(|| {
                        maps.iter()
                            .position(|(_, t0)| now.saturating_sub(*t0) > delay)
                    })
            } else {
                None
            };
            if let Some(idx) = pick {
                let (task, _) = st.pending_maps.swap_remove(idx);
                *st.node_outstanding.entry(node.0).or_insert(0) += 1;
                st.seen_nodes.insert(node.0);
                st.flushed_nodes.remove(&node.0);
                beat.tasks.push(Assignment::Map(task));
                map_wanted = false;
            }
            beat.waits_on_clock |= free_map > 0 && !st.pending_maps.is_empty();
            // This beat may have drained the map queue; idle nodes can
            // flush without waiting for the last in-flight map elsewhere.
            beat.flushes.extend(st.take_due_flushes());
            // Reduce tasks stream: assigned from the first heartbeat (no
            // map-phase barrier) — each carries its delivery feed and
            // fetches as maps publish.
            while free_reduce > 0 {
                let Some(r) = st.pending_reduces.pop() else {
                    break;
                };
                let feed = st.feeds.get(r as usize).expect("one feed per partition");
                beat.tasks.push(Assignment::Reduce(ReduceTaskSpec {
                    job: st.ctx.clone(),
                    partition: r,
                    map_count: st.maps_total,
                    feed: feed.clone(),
                }));
                free_reduce -= 1;
            }
        }
        if !beat.tasks.is_empty() || !beat.flushes.is_empty() {
            self.epoch.bump();
        }
        beat
    }

    fn map_done(
        &mut self,
        job: u64,
        task: u32,
        node: NodeId,
        deliveries: &[DeliverySpec],
    ) -> Vec<Flush> {
        self.epoch.bump();
        let Some(st) = self.jobs.get_mut(&job) else {
            return Vec::new();
        };
        if st.completed.insert(task) {
            st.ctx.counters.add(&st.ctx.counters.maps_completed, 1);
        }
        if let Some(o) = st.node_outstanding.get_mut(&node.0) {
            *o = o.saturating_sub(1);
        }
        for d in deliveries {
            st.announce(d);
        }
        st.take_due_flushes()
    }

    fn flush_done(&mut self, job: u64, delivery: Option<DeliverySpec>) {
        if let (Some(st), Some(d)) = (self.jobs.get(&job), delivery) {
            st.announce(&d);
        }
    }

    /// Re-queue the tasks whose output `node` lost, as re-runs.
    fn outputs_lost(&mut self, node: NodeId, lost: Vec<(u64, Vec<u32>)>, now: SimTime) {
        self.epoch.bump();
        for (job, tasks) in lost {
            let Some(st) = self.jobs.get_mut(&job) else {
                continue;
            };
            for t in tasks {
                let Some(orig) = st.specs.get(&t) else {
                    continue;
                };
                let mut spec = orig.clone();
                spec.rerun = true;
                if st.completed.remove(&t) {
                    let done = &st.ctx.counters.maps_completed;
                    done.fetch_sub(1, Ordering::Relaxed);
                }
                st.pending_maps.push((spec, now));
            }
            st.flushed_nodes.remove(&node.0);
        }
    }

    /// Count a finished reducer; the job's state leaves the scheduler with
    /// its last one, for the caller to finalise.
    fn reduce_done(&mut self, job: u64) -> Option<JobState> {
        self.epoch.bump();
        let st = self.jobs.get_mut(&job).expect("reduce for known job");
        st.reduces_done += 1;
        if st.reduces_done < st.ctx.conf.num_reducers {
            return None;
        }
        self.order.retain(|&x| x != job);
        self.jobs.remove(&job)
    }
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
    pub(crate) fn result(&self) -> Option<JobResult> {
        self.slot.lock().clone()
    }
}

/// A running Map/Reduce deployment bound to one file system.
#[derive(Clone)]
pub struct MrCluster {
    fabric: Fabric,
    fs: Arc<dyn FileSystem>,
    config: Arc<MrConfig>,
    scheduler: Arc<Mutex<Scheduler>>,
    /// The scheduler's epoch, also bumped by slot releases and shutdown.
    epoch: Epoch,
    inbox: Queue<JtMsg>,
    registry: Arc<MapOutputRegistry>,
    combiner: Arc<NodeCombiner>,
    shutdown: Gate,
}

impl MrCluster {
    /// Spawn the jobtracker and all tasktrackers. Call
    /// [`MrCluster::shutdown`] when done so `fabric.run()` can terminate.
    pub fn start(fabric: &Fabric, fs: Arc<dyn FileSystem>, config: MrConfig) -> MrCluster {
        let registry = MapOutputRegistry::new();
        let hb = config.heartbeat_ns;
        let scheduler = Scheduler::new(hb + hb / 2);
        let cluster = MrCluster {
            fabric: fabric.clone(),
            fs,
            epoch: scheduler.epoch.clone(),
            scheduler: Arc::new(Mutex::new(scheduler)),
            config: Arc::new(config),
            inbox: fabric.queue(),
            combiner: NodeCombiner::new(registry.clone()),
            registry,
            shutdown: fabric.gate(),
        };
        cluster.spawn_jobtracker();
        for (i, &node) in cluster.config.tasktrackers.iter().enumerate() {
            cluster.spawn_tasktracker(i as u32, node);
        }
        cluster
    }

    /// Submit a job; the returned handle completes when the job does.
    pub fn submit(&self, conf: JobConf) -> JobHandle {
        let handle = JobHandle {
            done: self.fabric.gate(),
            slot: Arc::new(Mutex::new(None)),
        };
        self.inbox.send(JtMsg::Submit {
            conf,
            handle: handle.clone(),
        });
        handle
    }

    /// Stop the tasktracker heartbeat loops and the jobtracker. In-flight
    /// jobs must be waited on *before* calling this.
    pub fn shutdown(&self) {
        self.shutdown.set();
        self.epoch.bump();
        self.inbox.close();
    }

    /// The shuffle registry (diagnostics).
    pub fn registry(&self) -> &Arc<MapOutputRegistry> {
        &self.registry
    }

    /// Model `node` losing its local map-output store mid-job (a tasktracker
    /// crash that keeps the process but wipes the shuffle spool). Drops the
    /// node's published segments and combine buffers and tells the
    /// jobtracker to re-queue the tasks whose output was buried there.
    /// Returns, per job, the sorted task ids it re-queues.
    pub fn lose_map_outputs(&self, node: NodeId) -> Vec<(u64, Vec<u32>)> {
        let lost = self.combiner.lose_node(node);
        self.inbox.send(JtMsg::OutputsLost {
            node,
            lost: lost.clone(),
        });
        lost
    }

    /// Spawn the final combine flush of each due node, on that node; its
    /// `FlushDone` announces the last combined segments.
    fn spawn_flushes(&self, flushes: Vec<Flush>) {
        for (ctx, node) in flushes {
            let (combiner, inbox, job) = (self.combiner.clone(), self.inbox.clone(), ctx.id);
            let name = format!("combine-flush-{job}-{}", node.0);
            self.fabric.spawn(node, name, move |tp| {
                inbox.send(match combiner.complete_node(tp, &ctx) {
                    Ok(delivery) => JtMsg::FlushDone { job, delivery },
                    Err(detail) => JtMsg::TaskFailed { job, detail },
                });
            });
        }
    }

    fn spawn_jobtracker(&self) {
        let mr = self.clone();
        self.fabric
            .spawn(self.config.jobtracker, "jobtracker", move |p| {
                while let Some(msg) = mr.inbox.recv(p) {
                    match msg {
                        JtMsg::Submit { conf, handle } => {
                            let id = mr.scheduler.lock().next_id();
                            match plan_job(p, &mr.fs, id, conf, handle) {
                                Ok(state) => mr.scheduler.lock().admit(state),
                                Err(e) => panic!("job planning failed: {e}"),
                            }
                        }
                        JtMsg::MapDone {
                            job,
                            task,
                            node,
                            deliveries,
                        } => {
                            let due = mr.scheduler.lock().map_done(job, task, node, &deliveries);
                            mr.spawn_flushes(due);
                        }
                        JtMsg::FlushDone { job, delivery } => {
                            mr.scheduler.lock().flush_done(job, delivery);
                        }
                        JtMsg::OutputsLost { node, lost } => {
                            mr.scheduler.lock().outputs_lost(node, lost, p.now());
                        }
                        JtMsg::ReduceDone { job } => {
                            // Bound first: an `if let` on the call would keep
                            // the guard alive across finalising.
                            let finished = mr.scheduler.lock().reduce_done(job);
                            if let Some(st) = finished {
                                mr.finalize_job(p, st);
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
        let mr = self.clone();
        self.fabric
            .spawn(node, format!("tasktracker-{tt_id}"), move |p| {
                let running_maps = Arc::new(AtomicU32::new(0));
                let running_reduces = Arc::new(AtomicU32::new(0));
                let free = |slots: u32, running: &AtomicU32| {
                    slots.saturating_sub(running.load(Ordering::Relaxed))
                };
                let (hb, jt) = (mr.config.heartbeat_ns, mr.config.jobtracker);
                let mut after_rpc = false;
                loop {
                    // Heartbeat: a small control RPC to the jobtracker node,
                    // then the scheduling decision, run here. An idle beat's
                    // successors already paid their RPC inside `heartbeat`.
                    if !after_rpc {
                        if mr.shutdown.is_set() {
                            break;
                        }
                        p.request(jt, BEAT_BYTES, BEAT_BYTES, 0).wait(p);
                    }
                    if mr.shutdown.is_set() {
                        break; // the jobtracker went away mid-beat
                    }
                    let seen = mr.epoch.get();
                    let beat = mr.scheduler.lock().assign(
                        node,
                        free(mr.config.map_slots, &running_maps),
                        free(mr.config.reduce_slots, &running_reduces),
                        p.now(),
                    );
                    let idle = beat.is_idle().then_some((&mr.epoch, seen));
                    mr.spawn_flushes(beat.flushes);
                    for a in beat.tasks {
                        match a {
                            Assignment::Map(spec) => {
                                let name = format!("map-{}-{}", spec.job.id, spec.task_id);
                                mr.spawn_task(node, name, &running_maps, move |mr, tp| {
                                    let job = spec.job.id;
                                    match run_map_task(tp, &mr.fs, &mr.combiner, &spec) {
                                        Ok(deliveries) => JtMsg::MapDone {
                                            job,
                                            task: spec.task_id,
                                            node: tp.node(),
                                            deliveries,
                                        },
                                        Err(detail) => JtMsg::TaskFailed { job, detail },
                                    }
                                });
                            }
                            Assignment::Reduce(spec) => {
                                let name = format!("reduce-{}-{}", spec.job.id, spec.partition);
                                mr.spawn_task(node, name, &running_reduces, move |mr, tp| {
                                    let job = spec.job.id;
                                    match run_reduce_task(tp, &mr.fs, &mr.registry, &spec) {
                                        Ok(()) => JtMsg::ReduceDone { job },
                                        Err(detail) => JtMsg::TaskFailed { job, detail },
                                    }
                                });
                            }
                        }
                    }
                    after_rpc = p.heartbeat(hb, jt, BEAT_BYTES, BEAT_BYTES, idle);
                }
            });
    }

    /// Run `task` as a proc of its own on `node`, holding one of the
    /// tracker's `running` slots until it reports to the jobtracker.
    fn spawn_task(
        &self,
        node: NodeId,
        name: String,
        running: &Arc<AtomicU32>,
        task: impl FnOnce(&MrCluster, &Proc) -> JtMsg + Send + 'static,
    ) {
        running.fetch_add(1, Ordering::Relaxed);
        let (mr, running) = (self.clone(), running.clone());
        self.fabric.spawn(node, name, move |tp| {
            let msg = task(&mr, tp);
            running.fetch_sub(1, Ordering::Relaxed);
            mr.epoch.bump();
            mr.inbox.send(msg);
        });
    }

    /// Clean the job's staging state up, report its counters and release
    /// its waiters.
    fn finalize_job(&self, p: &Proc, st: JobState) {
        let conf = &st.ctx.conf;
        // Remove the _temporary staging dir (original mode) and count the files
        // the job left behind — the paper's file-count metric.
        let tmp = conf
            .output_dir
            .child("_temporary")
            .expect("valid component");
        let _ = self.fs.delete(p, &tmp, true);
        let output_files = self.fs.count_files(p, &conf.output_dir).unwrap_or(0);

        self.registry.drop_job(st.ctx.id);
        self.combiner.drop_job(st.ctx.id);
        let c = &st.ctx.counters;
        use std::sync::atomic::Ordering::Relaxed;
        let result = JobResult {
            name: conf.name.clone(),
            job_id: st.ctx.id,
            maps: st.maps_total,
            reduces: conf.num_reducers,
            started_ns: st.started_ns,
            finished_ns: self.fabric.now(),
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
            commits: std::mem::take(&mut *c.commits.lock()),
        };
        *st.handle.slot.lock() = Some(result);
        st.handle.done.set();
    }
}

/// Plan a job: compute input splits from block locations, prepare the
/// output directory (and, in shared-append mode, the single output file),
/// and create the per-reducer delivery feeds. A job without reducers is
/// refused.
fn plan_job(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    id: u64,
    conf: JobConf,
    handle: JobHandle,
) -> Result<JobState, String> {
    // Every map output goes to one of the reducers' partitions, and the job
    // finishes when the last reducer does: neither exists without one.
    if conf.num_reducers == 0 {
        return Err(format!(
            "job {}: num_reducers is 0, needs at least 1",
            conf.name
        ));
    }
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
            let task = MapTaskSpec {
                job: ctx.clone(),
                task_id: pending_maps.len() as u32,
                file: input.clone(),
                offset: loc.offset,
                len: loc.len,
                hosts: loc.hosts,
                rerun: false,
            };
            pending_maps.push((task, p.now()));
        }
    }
    let feeds = (0..ctx.conf.num_reducers)
        .map(|_| p.fabric().queue())
        .collect();
    Ok(JobState::new(ctx, handle, pending_maps, feeds, p.now()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::UserFns;
    use crate::job::ShuffleTuning;
    use crate::shuffle::SegmentSource;
    use dfs::DfsPath;

    /// Mints feeds and gates; never run.
    fn mint() -> Fabric {
        Fabric::sim(ClusterSpec::tiny(1))
    }

    /// A planned job: one pending map per entry of `hosts` (the nodes holding
    /// its block), all available since `since`.
    fn job(fx: &Fabric, id: u64, reducers: u32, hosts: &[&[u32]], since: u64) -> JobState {
        let map = |_: &[u8], _: &[u8], _: &mut dyn FnMut(&[u8], &[u8])| {};
        let reduce =
            |_: &[u8], _: &mut dyn Iterator<Item = &[u8]>, _: &mut dyn FnMut(&[u8], &[u8])| {};
        let ctx = Arc::new(JobCtx {
            id,
            conf: JobConf {
                name: format!("job-{id}"),
                inputs: vec![],
                output_dir: DfsPath::new("/out").unwrap(),
                num_reducers: reducers,
                output_mode: OutputMode::SharedAppendFile,
                user: UserFns {
                    mapper: Arc::new(map),
                    reducer: Arc::new(reduce),
                    combiner: None,
                },
                ghost: None,
                shuffle: ShuffleTuning::default(),
            },
            counters: Arc::new(JobCounters::default()),
        });
        let maps = (hosts.iter().enumerate())
            .map(|(i, h)| {
                let task = MapTaskSpec {
                    job: ctx.clone(),
                    task_id: i as u32,
                    file: DfsPath::new("/in").unwrap(),
                    offset: 64 * i as u64,
                    len: 64,
                    hosts: h.iter().copied().map(NodeId).collect(),
                    rerun: false,
                };
                (task, since)
            })
            .collect();
        let handle = JobHandle {
            done: fx.gate(),
            slot: Arc::new(Mutex::new(None)),
        };
        let feeds = (0..reducers).map(|_| fx.queue()).collect();
        JobState::new(ctx, handle, maps, feeds, since)
    }

    /// `m<job>.<task>` / `r<job>.<partition>`, in hand-out order.
    fn tasks(beat: &Beat) -> Vec<String> {
        (beat.tasks.iter())
            .map(|a| match a {
                Assignment::Map(t) => format!("m{}.{}", t.job.id, t.task_id),
                Assignment::Reduce(t) => format!("r{}.{}", t.job.id, t.partition),
            })
            .collect()
    }

    fn nodes(flushes: &[Flush]) -> Vec<(u64, u32)> {
        flushes.iter().map(|(ctx, n)| (ctx.id, n.0)).collect()
    }

    #[test]
    fn a_local_map_goes_first_and_a_remote_one_waits_out_the_locality_delay() {
        let fx = mint();
        let mut s = Scheduler::new(15);
        s.admit(job(&fx, 1, 0, &[&[5], &[7, 8]], 100));
        // Node 7 holds the second split: it skips the head of the queue.
        assert_eq!(tasks(&s.assign(NodeId(7), 2, 0, 100)), ["m1.1"]);
        // Node 9 holds neither: held back until the split has waited
        // *longer* than the delay for a local taker.
        assert!(tasks(&s.assign(NodeId(9), 2, 0, 115)).is_empty());
        assert_eq!(tasks(&s.assign(NodeId(9), 2, 0, 116)), ["m1.0"]);
        assert!(tasks(&s.assign(NodeId(5), 2, 0, 117)).is_empty());
    }

    #[test]
    fn no_free_map_slot_no_map() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        s.admit(job(&fx, 1, 0, &[&[5]], 0));
        assert!(tasks(&s.assign(NodeId(5), 0, 2, 10)).is_empty());
    }

    #[test]
    fn one_map_per_beat_holds_across_jobs() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        s.admit(job(&fx, 1, 0, &[&[5]], 0));
        s.admit(job(&fx, 2, 0, &[&[5]], 0));
        // Two free slots, two jobs with a local split each: FIFO wins the
        // beat, the second job waits for the next one.
        assert_eq!(tasks(&s.assign(NodeId(5), 2, 0, 0)), ["m1.0"]);
        assert_eq!(tasks(&s.assign(NodeId(5), 1, 0, 1)), ["m2.0"]);
    }

    #[test]
    fn reducers_stream_from_the_first_beat() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        s.admit(job(&fx, 1, 3, &[&[5], &[5]], 0));
        // No map has run, none is even assigned here: reducers go out anyway,
        // as many as there are free slots, lowest partition first.
        let beat = s.assign(NodeId(9), 0, 2, 0);
        assert_eq!(tasks(&beat), ["r1.0", "r1.1"]);
        assert_eq!(tasks(&s.assign(NodeId(8), 1, 5, 1)), ["m1.0", "r1.2"]);
        // Each carries its own partition's feed and the job's map count.
        let Assignment::Reduce(r1) = &beat.tasks[1] else {
            panic!("the second task of the beat is a reduce")
        };
        assert_eq!(r1.map_count, 2);
        let d = DeliverySpec {
            source: SegmentSource::Task(0),
            tasks: vec![0],
        };
        assert!(s
            .map_done(1, 0, NodeId(8), std::slice::from_ref(&d))
            .is_empty());
        assert_eq!(r1.feed.drain(), [d]);
    }

    #[test]
    fn the_beat_that_drains_the_map_queue_orders_the_idle_nodes_final_flushes() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        s.admit(job(&fx, 1, 0, &[&[5], &[7]], 0));
        assert_eq!(tasks(&s.assign(NodeId(5), 1, 0, 0)), ["m1.0"]);
        // Node 5 is done, but a split is still queued: no flush yet.
        assert!(s.map_done(1, 0, NodeId(5), &[]).is_empty());
        // Node 7 takes the last split: node 5 can flush now, node 7 has a
        // map in flight.
        let beat = s.assign(NodeId(7), 1, 0, 1);
        assert_eq!(tasks(&beat), ["m1.1"]);
        assert_eq!(nodes(&beat.flushes), [(1, 5)]);
        assert_eq!(nodes(&s.map_done(1, 1, NodeId(7), &[])), [(1, 7)]);
        // Each node is told once, duplicates of a `MapDone` included.
        assert!(s.map_done(1, 1, NodeId(7), &[]).is_empty());
        assert!(s.assign(NodeId(5), 1, 0, 2).flushes.is_empty());
        assert_eq!(
            s.jobs[&1]
                .ctx
                .counters
                .maps_completed
                .load(Ordering::Relaxed),
            2
        );

        // Node 5 loses its output: task 0 is re-queued as a re-run, and the
        // node that takes it flushes again afterwards.
        s.outputs_lost(NodeId(5), vec![(1, vec![0])], 3);
        assert_eq!(
            s.jobs[&1]
                .ctx
                .counters
                .maps_completed
                .load(Ordering::Relaxed),
            1
        );
        let beat = s.assign(NodeId(5), 1, 0, 4);
        assert!(matches!(&beat.tasks[..], [Assignment::Map(t)] if t.rerun && t.task_id == 0));
        assert!(beat.flushes.is_empty());
        assert_eq!(nodes(&s.map_done(1, 0, NodeId(5), &[])), [(1, 5)]);
    }

    /// The epoch moves at every mutation, and an empty answer moves
    /// nothing. Each bump here is also one an idle tracker may be waiting
    /// for; `mr_sim_identity`'s shapes cannot tell most of them apart from
    /// the bumps that follow them within a beat.
    #[test]
    fn every_scheduler_mutation_moves_the_epoch() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        let epoch = s.epoch.clone();
        let moved = |s: &mut Scheduler, what: &str, f: &dyn Fn(&mut Scheduler)| {
            let before = epoch.get();
            f(s);
            assert_eq!(epoch.get(), before + 1, "{what}");
        };
        moved(&mut s, "admit", &|s| s.admit(job(&fx, 1, 1, &[&[5]], 0)));
        moved(&mut s, "assign", &|s| {
            assert!(!s.assign(NodeId(5), 1, 1, 0).is_idle())
        });
        let before = epoch.get();
        assert!(s.assign(NodeId(5), 1, 1, 1).is_idle());
        assert_eq!(epoch.get(), before, "an idle answer");
        moved(&mut s, "map_done", &|s| {
            s.map_done(1, 0, NodeId(5), &[]);
        });
        moved(&mut s, "outputs_lost", &|s| {
            s.outputs_lost(NodeId(5), vec![(1, vec![0])], 2)
        });
        moved(&mut s, "reduce_done", &|s| {
            assert!(s.reduce_done(1).is_some())
        });
    }

    #[test]
    fn a_job_outside_the_scheduler_is_assigned_nothing() {
        let fx = mint();
        let mut s = Scheduler::new(0);
        let nothing = |s: &mut Scheduler| {
            let beat = s.assign(NodeId(5), 2, 2, 10);
            beat.tasks.is_empty() && beat.flushes.is_empty()
        };
        // Being planned: it has an id and nothing else.
        assert_eq!(s.next_id(), 1);
        assert!(nothing(&mut s));
        s.admit(job(&fx, 1, 1, &[], 0));
        assert_eq!(tasks(&s.assign(NodeId(5), 2, 2, 10)), ["r1.0"]);
        // Being finalised: its last reducer took it out.
        assert_eq!(s.reduce_done(1).expect("last reducer").ctx.id, 1);
        assert!(nothing(&mut s));
        // Stragglers addressed to it, or to a job that never was, are dropped.
        for id in [1, 7] {
            assert!(s.map_done(id, 0, NodeId(5), &[]).is_empty());
            s.flush_done(id, None);
            s.outputs_lost(NodeId(5), vec![(id, vec![0])], 11);
        }
        assert!(nothing(&mut s));
        assert_eq!(s.next_id(), 2);
    }
}
