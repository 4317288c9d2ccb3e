//! The discrete-event simulation core.
//!
//! Model (SimGrid-style "fluid" network model):
//!
//! * Every node contributes TX/RX/disk/CPU/loopback *resources* with fixed
//!   capacities ([`ClusterSpec`]). An optional backplane resource is shared
//!   by all remote flows.
//! * A *flow* is a quantity of work (bytes, CPU ops) that simultaneously
//!   claims a set of resources. Active flows share each resource max-min
//!   fairly (progressive filling); a flow's rate is the minimum of its
//!   per-resource allocations. When flows start or finish, all rates and
//!   completion instants are recomputed.
//! * *Processes* are real OS threads that run **one at a time**: a process
//!   executes until it blocks on a flow, a sleep, a queue or a gate; the
//!   virtual clock then advances to the next event, which wakes exactly one
//!   process. All wakeups travel through that one ordered sequence of
//!   events, so a simulation is deterministic for a fixed seed and spawn
//!   order.
//!
//! # Who runs the engine step
//!
//! There is no engine thread. The process that blocks (or finishes) is by
//! construction the last runnable one, so it takes the engine step itself.
//! The step *decides* under the state lock: settle the flows, advance
//! `now`, pick the next process and mark it runnable. It does not wake
//! that process; it returns its parker as a [`Baton`]. The blocking process
//! passes the baton only after every lock the decision ran under is
//! dropped — the state lock, and the lock of the queue or gate it filed a
//! waiter with — and then parks.
//!
//! Why the wake waits for the unlock: on one CPU, a thread unparked while
//! its waker still holds a lock preempts the waker, runs into that lock and
//! blocks, and the waker must be scheduled again only to release the lock
//! and park — three context switches per event where one will do. Since
//! the choice is made under the lock, when the baton lands changes nothing
//! about the order of events. A process whose own wake is next passes the
//! baton to itself and never leaves its thread.
//!
//! [`SimCore::run`] takes the first step, passes its baton and parks on a
//! parker of its own until the *halt*: every process finished, one
//! panicked, or nothing is left that could wake anybody (a deadlock, which
//! `run` reports by name and, for a process inside a script, by step). The
//! halting step's baton is `run`'s, and the permit keeps it if the world
//! runs to the end before `run` parks.
//!
//! # Scripts: one block for a run of events
//!
//! Most events are no business of the process they belong to. A message is
//! a fault penalty, a latency and a flow, one after the other; an rpc is
//! two messages; a tasktracker's heartbeat that has nothing to hand out is
//! a sleep and an rpc, again and again. So `Proc::transfer`,
//! `transfer_chain` and `rpc` hand the engine a [`Script`] and block once,
//! and an idle `Proc::heartbeat` hands it one that repeats [sleep, check,
//! rpc, check] until a check finds its [`Epoch`] moved. The engine walks
//! the script inside `step`: when the event a script waits on comes up,
//! the step takes the script's next action itself and goes on to the next
//! event. Only the script's end makes the process runnable and passes it
//! the baton.
//!
//! Every `seq` a script takes is the one the process's own call would have
//! taken, because the script acts at the same point of the event sequence.
//! A process resumed after an event is the only one running, and its next
//! call comes before any other event is processed. So a message is
//! expanded when it *starts* — count it, take the net-fault penalty for
//! that instant (Drop draw included), sleep the penalty, sleep the latency,
//! start the flow — not when the rpc was called; and a heartbeat's checks
//! fall exactly where the tracker's loop looked at its shutdown flag.
//! Events, seqs, transfers, fault draws and per-resource sums stay bit for
//! bit what the process's own calls made them.
//!
//! Under its own lock the engine reads nothing but the epoch, an atomic. A
//! check that locked a gate or a service's mutex from inside `step` would
//! take a second lock under the state lock, against the order every
//! blocking primitive takes the two in (its own lock, then the state lock,
//! in `Proc::waiter`), and the process that holds that lock may be the one
//! that took the step. The woken process reads whatever it likes; the
//! epoch only tells the engine *when* to wake it, and its writers bump it
//! at every change that could turn an idle answer into work.
//!
//! # Why the order of events is what it is
//!
//! Every schedulable thing gets a `seq` from one counter at the moment it is
//! scheduled, and the step takes the smallest `(time, seq)`. There are two
//! sources:
//!
//! * **Wakes** (sleeps, queue/gate notifications, spawns) sit in a binary
//!   heap. Each carries the block generation it targets; one whose
//!   generation has passed is dropped when it surfaces.
//! * **Flow completions** are *not* in the heap. A flow start or finish
//!   changes every rate, hence every completion instant, so `recompute`
//!   writes a fresh `(eta, seq)` onto each [`Flow`] — in flow-id order, from
//!   the same counter — and keeps the minimum as `next_flow`. A flow has
//!   exactly one completion at any time, so none is ever stale, and the heap
//!   holds at most one entry per blocked process however many flows churn.
//!
//! The sequence of valid `(time, seq)` pairs is the one a single heap would
//! produce if every recompute pushed one completion per flow into it and
//! superseded completions were skipped as they surfaced — the textbook
//! arrangement, at O(flows) heap traffic per flow start or finish (17 stale
//! pops per valid event on a 200-reducer data join). The schedule pinned in
//! `tests/sim_bit_identity.rs` was recorded from exactly that arrangement, so
//! the two are known to agree to the bit.
//!
//! Flows live in a slab and are addressed by slot: `res_flows` and
//! `next_flow` hold slots, so the progressive-filling loop reaches a flow
//! in O(1), and a finished flow's slot goes to a later one. Slot order is
//! therefore not start order, and no pass whose order can reach a virtual
//! number walks the slab. Each walks `live`, the slots in flow-id order:
//!
//! * `recompute` hands out completion seqs, and seqs break ties between
//!   equal ETAs;
//! * `recompute` lists the active resources, and that list breaks ties
//!   between equal shares: the first of two tied resources freezes its
//!   flows at the share, the other divides what is left, which in floating
//!   point need not be the same number;
//! * the refill freezes tied bottlenecks in that list's order too: one scan
//!   collects every resource at the lowest share, in `active` order, and
//!   they freeze one after another. That is the order a scan per freeze
//!   would take, because a freeze moves only the resources it touches: the
//!   next tie still at the minimum is what a fresh scan would return,
//!   unless a touched resource fell to the minimum or below, and then the
//!   refill scans again (`recompute` has the argument);
//! * `settle` adds each flow's work into the per-resource sums, and a
//!   floating-point sum depends on the order of its terms.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::net::{NetFault, NetFaultKind};
use crate::parker::Parker;
use crate::stats::FabricStats;
use crate::sync::Epoch;
use crate::time::SimTime;
use crate::topology::{ClusterSpec, NodeId, ResourceKind};

/// Salt xor'd into the fabric seed for the network-fault RNG stream, so
/// fault draws never perturb the per-process RNG streams.
const NET_SALT: u64 = 0x4E45_545F_4641_554C; // "NET_FAUL"

/// Reasons a process can be blocked — used in deadlock diagnostics.
pub(crate) type BlockReason = &'static str;

/// One message of a [`Script`], expanded when it starts.
pub(crate) enum Msg {
    /// `Proc::transfer`: a loopback flow on one node; latency and a
    /// `[TX, RX, backplane]` flow between two.
    Pair {
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    },
    /// `Proc::transfer_chain`: one latency per remote hop (at least one) and
    /// one cut-through flow over every hop's resources, sorted.
    Chain { nodes: Vec<NodeId>, bytes: u64 },
}

impl Msg {
    fn bytes(&self) -> u64 {
        match self {
            Msg::Pair { bytes, .. } | Msg::Chain { bytes, .. } => *bytes,
        }
    }

    /// The remote hops, in order.
    fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let (pair, chain) = match self {
            Msg::Pair { src, dst, .. } => ((src != dst).then_some((*src, *dst)), &[][..]),
            Msg::Chain { nodes, .. } => (None, &nodes[..]),
        };
        pair.into_iter().chain(
            chain
                .windows(2)
                .map(|w| (w[0], w[1]))
                .filter(|(a, b)| a != b),
        )
    }

    /// The latency sleep, if the message pays one.
    fn latency(&self, spec: &ClusterSpec) -> Option<u64> {
        match self {
            Msg::Pair { src, dst, .. } => (src != dst).then_some(spec.latency_ns),
            Msg::Chain { .. } => Some(spec.latency_ns * self.hops().count().max(1) as u64),
        }
    }

    /// The resources of the message's flow, if it is large enough for one.
    fn route(&self, spec: &ClusterSpec) -> Option<Vec<u32>> {
        let bytes = self.bytes();
        if bytes < spec.small_msg_cutoff || bytes == 0 {
            return None;
        }
        let hop = |(from, to): (NodeId, NodeId)| {
            [
                Some(spec.resource(from, ResourceKind::Tx)),
                Some(spec.resource(to, ResourceKind::Rx)),
                spec.backplane_resource(),
            ]
        };
        match self {
            Msg::Pair { src, dst, .. } if src == dst => {
                Some(vec![spec.resource(*src, ResourceKind::Loopback)])
            }
            Msg::Pair { src, dst, .. } => Some(hop((*src, *dst)).into_iter().flatten().collect()),
            Msg::Chain { .. } => {
                let mut res: Vec<u32> = self.hops().flat_map(hop).flatten().collect();
                res.sort_unstable();
                res.dedup();
                (!res.is_empty()).then_some(res)
            }
        }
    }
}

enum Op {
    Sleep(u64),
    Send(Msg),
    /// End the script if its epoch moved; the flag says whether that end
    /// comes after the messages of the round.
    Check(bool),
}

/// A short program a proc blocks on once: its messages, and for an idle
/// heartbeat the sleep before them. The engine walks it inside `step`, so
/// its inner events wake no thread (module header, "Scripts").
pub(crate) struct Script {
    ops: Vec<Op>,
    /// The node an rpc or a heartbeat asks, for the deadlock report.
    peer: Option<NodeId>,
    /// An idle heartbeat walks `ops` again and again while the epoch reads
    /// the value it was given.
    idle: Option<(Epoch, u64)>,
    /// The op under way, and how far it got: a `Sleep` is 1 while it
    /// waits; a `Send` is 1 in its fault penalty, 2 in its latency, 3 in
    /// its flow.
    pc: usize,
    sub: u8,
}

/// A script's next wait.
enum Act {
    Sleep(u64),
    Flow(Vec<u32>, f64),
}

enum Next {
    Act(Act),
    /// The script ended; `true` if after its messages.
    End(bool),
}

impl Script {
    fn new(ops: Vec<Op>, peer: Option<NodeId>, idle: Option<(Epoch, u64)>) -> Script {
        Script {
            ops,
            peer,
            idle,
            pc: 0,
            sub: 0,
        }
    }

    pub(crate) fn transfer(src: NodeId, dst: NodeId, bytes: u64) -> Script {
        Script::new(vec![Op::Send(Msg::Pair { src, dst, bytes })], None, None)
    }

    pub(crate) fn chain(nodes: &[NodeId], bytes: u64) -> Script {
        let nodes = nodes.to_vec();
        Script::new(vec![Op::Send(Msg::Chain { nodes, bytes })], None, None)
    }

    /// `node` asks `dst` and waits for the answer.
    fn legs(node: NodeId, dst: NodeId, req: u64, resp: u64) -> [Op; 2] {
        [
            Op::Send(Msg::Pair {
                src: node,
                dst,
                bytes: req,
            }),
            Op::Send(Msg::Pair {
                src: dst,
                dst: node,
                bytes: resp,
            }),
        ]
    }

    pub(crate) fn rpc(node: NodeId, dst: NodeId, req: u64, resp: u64) -> Script {
        Script::new(Self::legs(node, dst, req, resp).into(), Some(dst), None)
    }

    /// Idle heartbeats: [sleep `period`, check, rpc, check] until a check
    /// finds `epoch` no longer reading `seen`.
    pub(crate) fn heartbeat(
        period: u64,
        (node, dst): (NodeId, NodeId),
        (req, resp): (u64, u64),
        epoch: &Epoch,
        seen: u64,
    ) -> Script {
        let [leg1, leg2] = Self::legs(node, dst, req, resp);
        let ops = vec![
            Op::Sleep(period),
            Op::Check(false),
            leg1,
            leg2,
            Op::Check(true),
        ];
        Script::new(ops, Some(dst), Some((epoch.clone(), seen)))
    }

    /// Take the script on, at the current instant, to its next wait or its
    /// end. Every transfer count, fault draw, wake and flow it makes is
    /// made here, at the point of the event sequence where the proc's own
    /// call would have made it.
    fn walk(&mut self, st: &mut SimState, spec: &ClusterSpec) -> Next {
        loop {
            if self.pc == self.ops.len() {
                if self.idle.is_none() {
                    return Next::End(true);
                }
                self.pc = 0;
            }
            self.sub += 1;
            match &self.ops[self.pc] {
                Op::Sleep(period) if self.sub == 1 => return Next::Act(Act::Sleep(*period)),
                Op::Check(after) => {
                    let (epoch, seen) = self.idle.as_ref().expect("checks are an idle beat's");
                    if epoch.get() != *seen {
                        return Next::End(*after);
                    }
                }
                Op::Send(m) if self.sub == 1 => {
                    // The message starts: count it, then take the fault
                    // penalty for this instant (the worst over its hops; a
                    // cut-through chain stalls on its worst hop once).
                    st.transfers += 1;
                    st.bytes_requested += m.bytes() as f64;
                    let penalty = (m.hops())
                        .map(|(src, dst)| SimCore::net_penalty(st, src, dst))
                        .max()
                        .unwrap_or(0);
                    if penalty > 0 {
                        return Next::Act(Act::Sleep(penalty));
                    }
                    continue;
                }
                Op::Send(m) if self.sub == 2 => {
                    if let Some(latency) = m.latency(spec) {
                        return Next::Act(Act::Sleep(latency));
                    }
                    continue;
                }
                Op::Send(m) if self.sub == 3 => {
                    if let Some(route) = m.route(spec) {
                        return Next::Act(Act::Flow(route, m.bytes() as f64));
                    }
                    continue;
                }
                Op::Sleep(_) | Op::Send(_) => {}
            }
            self.pc += 1;
            self.sub = 0;
        }
    }

    /// The step the script waits in, for a deadlock report: e.g.
    /// `heartbeat (idle, epoch 42): rpc leg 2/2 to n17 (latency)`. Only an
    /// idle heartbeat can be found waiting there; every other script has
    /// its next event pending.
    fn describe(&self) -> String {
        let sends = |ops: &[Op]| ops.iter().filter(|op| matches!(op, Op::Send(_))).count();
        let step = match (&self.ops[self.pc], self.peer) {
            (Op::Send(_), peer) => {
                let phase = ["fault penalty", "latency", "flow"][usize::from(self.sub - 1)];
                let (leg, legs) = (sends(&self.ops[..=self.pc]), sends(&self.ops));
                let to = peer.map_or(String::new(), |peer| format!(" to {peer}"));
                format!("rpc leg {leg}/{legs}{to} ({phase})")
            }
            (Op::Sleep(_) | Op::Check(_), _) => "sleep".to_string(),
        };
        match &self.idle {
            Some((_, seen)) => format!("heartbeat (idle, epoch {seen}): {step}"),
            None => step,
        }
    }
}

/// A scheduled wake of a blocked process (sleeps, queue/gate notifications,
/// spawns), ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wake {
    time: SimTime,
    seq: u64,
    proc: u64,
    gen: u64,
}

impl Ord for Wake {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Wake {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Flow {
    id: u64,
    resources: Vec<u32>,
    remaining: f64,
    rate: f64,
    /// Progressive-filling mark: `rate` is final for the current recompute.
    frozen: bool,
    /// When this flow runs out under its current rate, and the place of
    /// that completion in the `(time, seq)` order. Rewritten by every
    /// recompute.
    eta: SimTime,
    seq: u64,
    waiter: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Blocked(&'static str),
}

/// A live process; the entry is removed when the process finishes.
struct ProcInfo {
    name: String,
    node: NodeId,
    parker: Arc<Parker>,
    state: ProcState,
    /// Incremented on every block; wakes carry the generation they target
    /// so stale ones are discarded.
    block_gen: u64,
    /// The script the process is blocked on, walked by the engine.
    script: Option<Script>,
    /// How the process's last idle heartbeat ended: after its rpc?
    beat_end: bool,
}

struct SimState {
    now: SimTime,
    seq: u64,
    /// Pending wakes. Flow completions are not in here, see `next_flow`.
    wakes: BinaryHeap<Reverse<Wake>>,
    /// Flow places: a flow keeps its slot from start to completion, and a
    /// later start reuses the slot from `free_slots`. Slot order is not
    /// flow-id order; `live` is.
    flows: Vec<Flow>,
    free_slots: Vec<usize>,
    /// Slots of the live flows in flow-id order. Ids only grow, so a start
    /// pushes and a completion finds its entry by binary search on the id.
    live: Vec<usize>,
    /// The earliest flow completion as `(eta, seq, slot)`.
    next_flow: Option<(SimTime, u64, usize)>,
    next_flow_id: u64,
    /// resource -> slots of the live flows crossing it
    res_flows: Vec<Vec<usize>>,
    /// resource -> accumulated work done (bytes / ops)
    res_done: Vec<f64>,
    last_settle: SimTime,
    runnable: u32,
    live_procs: u32,
    procs: HashMap<u64, ProcInfo>,
    next_proc_id: u64,
    panics: Vec<String>,
    transfers: u64,
    flows_started: u64,
    bytes_requested: f64,
    events_processed: u64,
    /// Events that made a process runnable, i.e. woke its thread.
    wakes_handed: u64,
    /// `active` entries walked by `recompute`'s bottleneck scans.
    fill_scans: u64,
    /// Processes blocked in an idle heartbeat. Each has exactly one event
    /// pending; when those are all the events there are, nothing can end
    /// them (see [`SimCore::step`]).
    idle_beats: usize,
    /// True from `run()`'s first step until the step that halts the engine.
    running: bool,
    // scratch buffers for recompute (reused to avoid per-event allocation)
    scratch_cap: Vec<f64>,
    scratch_nf: Vec<u32>,
    scratch_active: Vec<u32>,
    scratch_ties: Vec<u32>,
    scratch_touched: Vec<u32>,
    /// Installed network-fault windows (expired ones are pruned lazily).
    net_faults: Vec<NetFault>,
    /// Dedicated RNG stream for Drop draws; decoupled from process RNGs so
    /// installing faults never shifts workload randomness.
    net_rng: StdRng,
    net_fault_hits: u64,
}

/// The thread an engine step chose to run next: a process, or `run()`'s on
/// the halt. The step hands it out under the state lock; whoever took the
/// step passes it once every lock it holds is dropped.
#[must_use = "a baton that is never passed hangs the simulation"]
#[derive(Default)]
pub(crate) struct Baton(Option<Arc<Parker>>);

impl Baton {
    /// Wake the chosen thread. Call with no lock held.
    pub(crate) fn pass(self) {
        if let Some(parker) = self.0 {
            parker.unpark();
        }
    }
}

/// A resource's max-min fair share: the capacity its frozen flows left,
/// split over its `n` unfrozen ones.
fn fair_share(cap: f64, n: u32) -> f64 {
    (cap / n as f64).max(0.0)
}

pub(crate) struct SimCore {
    pub spec: ClusterSpec,
    pub seed: u64,
    state: Mutex<SimState>,
    /// `run()`'s own parker: the step that halts the engine passes it the
    /// baton.
    runner: Arc<Parker>,
    /// Resumes from a park that found a lock of the baton's sender still
    /// held (see [`Self::note_resume`]).
    #[cfg(test)]
    resumed_under_lock: AtomicU64,
}

impl SimCore {
    pub fn new(spec: ClusterSpec, seed: u64) -> Arc<Self> {
        let nres = spec.resource_count();
        Arc::new(SimCore {
            spec,
            seed,
            state: Mutex::new(SimState {
                now: 0,
                seq: 0,
                wakes: BinaryHeap::new(),
                flows: Vec::new(),
                free_slots: Vec::new(),
                live: Vec::new(),
                next_flow: None,
                next_flow_id: 0,
                res_flows: vec![Vec::new(); nres],
                res_done: vec![0.0; nres],
                last_settle: 0,
                runnable: 0,
                live_procs: 0,
                procs: HashMap::new(),
                next_proc_id: 0,
                panics: Vec::new(),
                transfers: 0,
                flows_started: 0,
                bytes_requested: 0.0,
                events_processed: 0,
                wakes_handed: 0,
                fill_scans: 0,
                idle_beats: 0,
                running: false,
                scratch_cap: vec![0.0; nres],
                scratch_nf: vec![0; nres],
                scratch_active: Vec::new(),
                scratch_ties: Vec::new(),
                scratch_touched: Vec::new(),
                net_faults: Vec::new(),
                net_rng: StdRng::seed_from_u64(seed ^ NET_SALT),
                net_fault_hits: 0,
            }),
            runner: Arc::new(Parker::new()),
            #[cfg(test)]
            resumed_under_lock: AtomicU64::new(0),
        })
    }

    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Register a new process in Blocked state and schedule its initial wake
    /// at the current virtual time. Returns the process id.
    pub fn register_proc(&self, node: NodeId, name: &str, parker: Arc<Parker>) -> u64 {
        let mut st = self.state.lock();
        let pid = st.next_proc_id;
        st.next_proc_id += 1;
        st.procs.insert(
            pid,
            ProcInfo {
                name: name.to_string(),
                node,
                parker,
                state: ProcState::Blocked("spawn"),
                block_gen: 0,
                script: None,
                beat_end: false,
            },
        );
        st.live_procs += 1;
        let now = st.now;
        Self::push_wake(&mut st, now, pid, 0);
        pid
    }

    fn push_wake(st: &mut SimState, time: SimTime, proc: u64, gen: u64) {
        let seq = st.seq;
        st.seq += 1;
        st.wakes.push(Reverse(Wake {
            time,
            seq,
            proc,
            gen,
        }));
    }

    /// Mark the calling process blocked, let `register` arrange under the
    /// state lock whatever will eventually wake the fresh block generation it
    /// is handed, then take the engine step. Returns with the state lock
    /// released; the caller must pass the baton once it holds no other lock
    /// either, then [`Self::park`].
    fn block<R>(
        &self,
        pid: u64,
        reason: BlockReason,
        register: impl FnOnce(&mut SimState, u64) -> R,
    ) -> (R, Baton) {
        self.block_locked(&mut self.state.lock(), pid, reason, register)
    }

    /// [`Self::block`] with the state lock already held.
    fn block_locked<R>(
        &self,
        st: &mut SimState,
        pid: u64,
        reason: BlockReason,
        register: impl FnOnce(&mut SimState, u64) -> R,
    ) -> (R, Baton) {
        let p = st.procs.get_mut(&pid).expect("blocking unknown process");
        debug_assert_eq!(
            p.state,
            ProcState::Runnable,
            "process must be running to block"
        );
        p.block_gen += 1;
        p.state = ProcState::Blocked(reason);
        let gen = p.block_gen;
        let out = register(st, gen);
        st.runnable -= 1;
        let baton = if st.runnable == 0 {
            self.step(st)
        } else {
            Baton::default()
        };
        (out, baton)
    }

    /// [`Self::block`] for the queue/gate paths, which register the returned
    /// generation with their own waiter list (under their own lock, which
    /// they hold across this call), and pass the baton and park only after
    /// releasing that lock.
    pub(crate) fn block_prepare(&self, pid: u64, reason: BlockReason) -> (u64, Baton) {
        self.block(pid, reason, |_, gen| gen)
    }

    /// Park a process's thread (or `run()`'s) until a step passes it the
    /// baton.
    pub(crate) fn park(&self, parker: &Parker) {
        parker.park();
        #[cfg(test)]
        self.note_resume(&self.state);
    }

    /// Count a resume that finds `lock` held. While the simulation runs,
    /// only the thread that holds the baton takes the engine's or a
    /// primitive's lock, so a held lock here means the baton was passed
    /// before its sender dropped that lock.
    #[cfg(test)]
    pub(crate) fn note_resume<T>(&self, lock: &Mutex<T>) {
        if lock.try_lock().is_none() {
            self.resumed_under_lock.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[cfg(test)]
    pub(crate) fn resumed_under_lock(&self) -> u64 {
        self.resumed_under_lock.load(Ordering::Relaxed)
    }

    /// Schedule a wake for `(pid, gen)` at the current virtual time.
    /// Harmless if stale — the engine discards mismatched generations.
    pub(crate) fn schedule_wake(&self, pid: u64, gen: u64) {
        let mut st = self.state.lock();
        let now = st.now;
        Self::push_wake(&mut st, now, pid, gen);
    }

    /// Block the calling process for `dur` nanoseconds of virtual time.
    pub fn sleep(&self, pid: u64, parker: &Parker, dur: u64) {
        let ((), baton) = self.block(pid, "sleep", |st, gen| {
            Self::start(st, &self.spec, pid, gen, Act::Sleep(dur));
        });
        baton.pass();
        self.park(parker);
    }

    /// Block the calling process on a fluid flow of `work` units across
    /// `resources`.
    pub fn flow(&self, pid: u64, parker: &Parker, resources: &[u32], work: f64) {
        if work <= 0.0 {
            return;
        }
        let ((), baton) = self.block(pid, "flow", |st, gen| {
            Self::start(
                st,
                &self.spec,
                pid,
                gen,
                Act::Flow(resources.to_vec(), work),
            );
        });
        baton.pass();
        self.park(parker);
    }

    /// Schedule what wakes block generation `gen` of `pid`: a wake after a
    /// sleep, or the completion of a new flow.
    fn start(st: &mut SimState, spec: &ClusterSpec, pid: u64, gen: u64, act: Act) {
        match act {
            Act::Sleep(dur) => {
                let t = st.now.saturating_add(dur);
                Self::push_wake(st, t, pid, gen);
            }
            Act::Flow(resources, work) => {
                let now = st.now;
                Self::settle(st, now);
                Self::add_flow(st, resources, work, pid);
                st.flows_started += 1;
                Self::recompute(st, spec);
            }
        }
    }

    /// Run `script` for the calling process: start it now and, if it has
    /// to wait, block once while the engine walks the rest. Returns how
    /// the script ended (see [`Next::End`]).
    pub(crate) fn run_script(&self, pid: u64, parker: &Parker, mut script: Script) -> bool {
        let mut st = self.state.lock();
        let act = match script.walk(&mut st, &self.spec) {
            Next::End(after) => return after,
            Next::Act(act) => act,
        };
        let idle = script.idle.is_some();
        st.idle_beats += usize::from(idle);
        let ((), baton) = self.block_locked(&mut st, pid, "script", |st, gen| {
            Self::start(st, &self.spec, pid, gen, act);
            let p = st.procs.get_mut(&pid).expect("a blocking process");
            p.script = Some(script);
        });
        drop(st);
        baton.pass();
        self.park(parker);
        idle && self.state.lock().procs[&pid].beat_end
    }

    /// The event `pid` waited on happened: walk its script on (blocking it
    /// again, as its own next call would have), or wake it.
    fn resume(&self, st: &mut SimState, pid: u64) -> Option<Baton> {
        let p = st.procs.get_mut(&pid).expect("resuming unknown process");
        let Some(mut script) = p.script.take() else {
            return Some(Self::wake_proc(st, pid));
        };
        match script.walk(st, &self.spec) {
            Next::End(after) => {
                if script.idle.is_some() {
                    st.idle_beats -= 1;
                    st.procs.get_mut(&pid).expect("a blocked process").beat_end = after;
                }
                Some(Self::wake_proc(st, pid))
            }
            Next::Act(act) => {
                let p = st.procs.get_mut(&pid).expect("a blocked process");
                p.block_gen += 1;
                p.script = Some(script);
                let gen = p.block_gen;
                Self::start(st, &self.spec, pid, gen, act);
                None
            }
        }
    }

    /// Give a new flow the next id and a place (a freed slot if there is
    /// one); rates are stale until the next [`Self::recompute`].
    fn add_flow(st: &mut SimState, resources: Vec<u32>, work: f64, waiter: u64) -> usize {
        let slot = st.free_slots.pop().unwrap_or(st.flows.len());
        for &r in &resources {
            st.res_flows[r as usize].push(slot);
        }
        let flow = Flow {
            id: st.next_flow_id,
            resources,
            remaining: work,
            rate: 0.0,
            frozen: false,
            eta: 0,
            seq: 0,
            waiter,
        };
        st.next_flow_id += 1;
        if slot == st.flows.len() {
            st.flows.push(flow);
        } else {
            st.flows[slot] = flow;
        }
        st.live.push(slot);
        slot
    }

    /// Take the flow at `slot` off every list and free its place; returns
    /// the process it was blocking.
    fn remove_flow(st: &mut SimState, slot: usize) -> u64 {
        let f = &st.flows[slot];
        for &r in &f.resources {
            st.res_flows[r as usize].retain(|&s| s != slot);
        }
        let at = st
            .live
            .binary_search_by_key(&f.id, |&s| st.flows[s].id)
            .expect("a live flow is listed in `live`");
        st.live.remove(at);
        st.free_slots.push(slot);
        f.waiter
    }

    /// Install a network-fault window. Takes effect immediately; transfers
    /// starting inside `[from_ns, until_ns)` that match the rule pay the
    /// fault's cost.
    pub fn inject_net_fault(&self, fault: NetFault) {
        assert!(
            fault.from_ns < fault.until_ns,
            "net fault window is empty: [{}, {})",
            fault.from_ns,
            fault.until_ns
        );
        self.state.lock().net_faults.push(fault);
    }

    /// Remove every installed network fault (heal the network).
    pub fn clear_net_faults(&self) {
        self.state.lock().net_faults.clear();
    }

    /// Extra nanoseconds a transfer `src`→`dst` starting now must wait for
    /// active network faults: partition stalls until the latest matching
    /// window closes, then delay/drop penalties apply on top. Returns 0 when
    /// no fault matches. Expired windows are pruned as a side effect.
    fn net_penalty(st: &mut SimState, src: NodeId, dst: NodeId) -> u64 {
        if st.net_faults.is_empty() {
            return 0;
        }
        let now = st.now;
        st.net_faults.retain(|f| f.until_ns > now);
        let mut stall_until: SimTime = 0;
        let mut extra: u64 = 0;
        let mut hits: u64 = 0;
        // Split borrows: faults are read while the RNG draws.
        let SimState {
            net_faults,
            net_rng,
            ..
        } = st;
        for f in net_faults.iter() {
            if now < f.from_ns || !f.matches(src, dst) {
                continue;
            }
            match f.kind {
                NetFaultKind::Delay { extra_ns } => {
                    extra += extra_ns;
                    hits += 1;
                }
                NetFaultKind::Drop {
                    prob,
                    retransmit_ns,
                } => {
                    if net_rng.gen_bool(prob) {
                        extra += retransmit_ns;
                        hits += 1;
                    }
                }
                NetFaultKind::Partition => {
                    stall_until = stall_until.max(f.until_ns);
                    hits += 1;
                }
            }
        }
        st.net_fault_hits += hits;
        stall_until.saturating_sub(now) + extra
    }

    /// Process finished normally.
    pub fn proc_finished(&self, pid: u64) {
        self.finish(self.state.lock(), pid);
    }

    /// Process panicked; the panic is re-raised from `run()`.
    pub fn proc_panicked(&self, pid: u64, msg: String) {
        let mut st = self.state.lock();
        let name = st
            .procs
            .get(&pid)
            .map(|p| p.name.clone())
            .unwrap_or_default();
        st.panics.push(format!("process '{name}' panicked: {msg}"));
        self.finish(st, pid);
    }

    /// Retire the process, take the engine step if it was the last runnable
    /// one, and pass the baton once `st` is dropped.
    fn finish(&self, mut st: MutexGuard<'_, SimState>, pid: u64) {
        let p = st.procs.remove(&pid).expect("finishing unknown process");
        debug_assert_eq!(p.state, ProcState::Runnable);
        st.runnable -= 1;
        st.live_procs -= 1;
        let baton = if st.runnable == 0 {
            self.step(&mut st)
        } else {
            Baton::default()
        };
        drop(st);
        baton.pass();
    }

    /// Advance all flows' remaining work to time `to`.
    fn settle(st: &mut SimState, to: SimTime) {
        debug_assert!(to >= st.last_settle);
        let dt = (to - st.last_settle) as f64 / 1e9;
        if dt > 0.0 {
            // Flow-id order: it is the order of each resource's sum.
            for &slot in &st.live {
                let f = &mut st.flows[slot];
                let done = f.rate * dt;
                f.remaining = (f.remaining - done).max(0.0);
                for &r in &f.resources {
                    st.res_done[r as usize] += done;
                }
            }
        }
        st.last_settle = to;
    }

    /// Max-min fair rate allocation (progressive filling), then a fresh
    /// completion `(eta, seq)` for every flow under its new rate.
    ///
    /// Progressive filling freezes, one resource at a time, the unfrozen
    /// flows of the resource with the lowest fair share (`cap / n`), the
    /// first in `active` order among equal shares, and subtracts their rate
    /// from every resource they cross. Scanning for that resource once per
    /// freeze costs flows × resources when many shares tie, as disjoint
    /// TX -> RX pairs all do at one NIC. So one scan finds the lowest share
    /// *and* every resource at exactly that share, in `active` order, and
    /// the loop freezes those ties one after another:
    ///
    /// * a tie whose `n` a freeze took to 0, or whose share it moved off the
    ///   minimum (up, by an ulp of rounding), is skipped;
    /// * after each freeze, if a resource it touched is left with `n > 0`
    ///   and a share at or below the minimum (a subtraction can round a
    ///   share down by an ulp), the loop scans again.
    ///
    /// That is the order a scan per freeze takes, bit for bit. A freeze
    /// changes only the resources it touches. When no rescan is due, those
    /// are above the minimum or empty, and every other resource keeps the
    /// share the scan saw, at or above the minimum. The minimum is still
    /// the lowest share, and the resources that hold it are the ties not
    /// yet reached or skipped, so a fresh scan would return the next tie in
    /// the list. Each tie's share is recomputed with the same expression
    /// before it freezes, so every rate is the scan's number. Disjoint
    /// pairs refill in one scan; `fill_scans` counts the entries walked.
    fn recompute(st: &mut SimState, spec: &ClusterSpec) {
        let SimState {
            now,
            seq,
            flows,
            live,
            next_flow,
            res_flows,
            scratch_cap: cap,
            scratch_nf: nf,
            scratch_active: active,
            scratch_ties: ties,
            scratch_touched: touched,
            fill_scans,
            ..
        } = st;

        // Collect resources that currently carry flows, in flow-id order:
        // the first of two resources with equal shares freezes first.
        active.clear();
        for &slot in live.iter() {
            let f = &mut flows[slot];
            f.frozen = false;
            f.rate = 0.0;
            for &r in &f.resources {
                if nf[r as usize] == 0 {
                    active.push(r);
                }
                nf[r as usize] += 1;
            }
        }
        for &r in active.iter() {
            cap[r as usize] = spec.capacity(r);
        }

        // Progressive filling: find the lowest fair share and the resources
        // that tie at it, freeze their flows at that rate, subtract.
        let mut unfrozen = live.len();
        while unfrozen > 0 {
            let mut share = f64::INFINITY;
            ties.clear();
            *fill_scans += active.len() as u64;
            for &r in active.iter() {
                let n = nf[r as usize];
                if n == 0 {
                    continue;
                }
                let s = fair_share(cap[r as usize], n);
                if s < share {
                    share = s;
                    ties.clear();
                }
                if s == share {
                    ties.push(r);
                }
            }
            if ties.is_empty() {
                break;
            }
            for &bottleneck in ties.iter() {
                let n = nf[bottleneck as usize];
                if n == 0 || fair_share(cap[bottleneck as usize], n) != share {
                    continue;
                }
                // Freeze all unfrozen flows crossing the bottleneck.
                touched.clear();
                for &slot in &res_flows[bottleneck as usize] {
                    let f = &mut flows[slot];
                    if f.frozen {
                        continue;
                    }
                    f.frozen = true;
                    f.rate = share;
                    unfrozen -= 1;
                    for &r in &f.resources {
                        cap[r as usize] = (cap[r as usize] - share).max(0.0);
                        nf[r as usize] -= 1;
                    }
                    touched.extend_from_slice(&f.resources);
                }
                // Checked once the freeze is whole: a resource two of its
                // flows cross sits at the minimum between the subtractions.
                let at_or_below = |&r: &u32| {
                    let n = nf[r as usize];
                    n > 0 && fair_share(cap[r as usize], n) <= share
                };
                if touched.iter().any(at_or_below) {
                    break;
                }
            }
        }

        // New completion instants, sequenced in flow-id order.
        *next_flow = None;
        for &slot in live.iter() {
            let f = &mut flows[slot];
            f.eta = if f.remaining <= 0.0 {
                *now
            } else if f.rate <= 0.0 {
                // Fully starved flow (capacity exhausted by frozen flows due
                // to fp rounding): retry shortly; progressive filling
                // guarantees this cannot persist.
                *now + 1_000
            } else {
                *now + ((f.remaining / f.rate) * 1e9).ceil() as u64
            };
            f.seq = *seq;
            *seq += 1;
            let completion = (f.eta, f.seq, slot);
            if next_flow.is_none_or(|first| completion < first) {
                *next_flow = Some(completion);
            }
        }

        // Clear scratch.
        for &r in active.iter() {
            nf[r as usize] = 0;
            cap[r as usize] = 0.0;
        }
    }

    fn wake_proc(st: &mut SimState, pid: u64) -> Baton {
        let p = st.procs.get_mut(&pid).expect("waking unknown process");
        debug_assert!(matches!(p.state, ProcState::Blocked(_)));
        p.state = ProcState::Runnable;
        st.runnable += 1;
        st.wakes_handed += 1;
        Baton(Some(p.parker.clone()))
    }

    /// Does this wake still target a blocked process at the generation it
    /// was scheduled for? (A finished process is no longer in `procs`.)
    fn wake_valid(st: &SimState, w: &Wake) -> bool {
        st.procs
            .get(&w.proc)
            .is_some_and(|p| matches!(p.state, ProcState::Blocked(_)) && p.block_gen == w.gen)
    }

    /// One engine step, taken under the state lock by whoever just drove
    /// `runnable` to 0: process events in `(time, seq)` order — the earlier
    /// of the first valid wake and the first flow completion — walking
    /// scripts on, until one event makes a process runnable; or halt the
    /// engine when there is nothing to run and hand control back to
    /// [`Self::run`]. Either way the thread to run next is the returned
    /// baton's.
    ///
    /// Idle heartbeats alone never end: each ends only at a check that
    /// finds its epoch moved, and only a running process moves an epoch.
    /// So when every pending event is an idle heartbeat's and none of their
    /// epochs has moved yet, the world is deadlocked too.
    fn step(&self, st: &mut SimState) -> Baton {
        debug_assert_eq!(st.runnable, 0);
        loop {
            if !st.panics.is_empty() || st.live_procs == 0 {
                return self.halt(st);
            }
            while st
                .wakes
                .peek()
                .is_some_and(|Reverse(w)| !Self::wake_valid(st, w))
            {
                st.wakes.pop();
            }
            if Self::only_idle_beats_left(st) {
                return self.halt(st);
            }
            let wake = st.wakes.peek().map(|Reverse(w)| (w.time, w.seq));
            let flow = match (st.next_flow, wake) {
                // Deadlock: processes are blocked and nothing will wake them.
                (None, None) => return self.halt(st),
                (Some(flow), None) => Some(flow),
                (None, Some(_)) => None,
                (Some(flow), Some(wake)) => ((flow.0, flow.1) < wake).then_some(flow),
            };
            let woken = if let Some((eta, _, slot)) = flow {
                Self::advance(st, eta);
                debug_assert!(
                    st.flows[slot].remaining <= 1.0,
                    "flow completed with {} units left",
                    st.flows[slot].remaining
                );
                let waiter = Self::remove_flow(st, slot);
                Self::recompute(st, &self.spec);
                waiter
            } else {
                let Reverse(w) = st.wakes.pop().expect("a wake is next");
                Self::advance(st, w.time);
                w.proc
            };
            if let Some(baton) = self.resume(st, woken) {
                return baton;
            }
        }
    }

    /// Is every pending event an idle heartbeat's, with its epoch unmoved?
    /// Each idle heartbeat has exactly one event pending, so the count
    /// settles the first half (a stale wake in the heap only delays the
    /// verdict until it surfaces); the scan runs only when it does.
    fn only_idle_beats_left(st: &SimState) -> bool {
        st.idle_beats > 0
            && st.wakes.len() + st.live.len() == st.idle_beats
            && (st.wakes.iter().map(|Reverse(w)| w.proc))
                .chain(st.live.iter().map(|&slot| st.flows[slot].waiter))
                .all(|pid| {
                    let script = st.procs.get(&pid).and_then(|p| p.script.as_ref());
                    script
                        .is_some_and(|s| s.idle.as_ref().is_some_and(|(e, seen)| e.get() == *seen))
                })
    }

    /// Move the clock (and every flow) to the instant of the event being
    /// processed.
    fn advance(st: &mut SimState, time: SimTime) {
        debug_assert!(time >= st.now, "time must be monotonic");
        Self::settle(st, time);
        st.now = time;
        st.events_processed += 1;
    }

    fn halt(&self, st: &mut SimState) -> Baton {
        st.running = false;
        Baton(Some(self.runner.clone()))
    }

    /// Run the simulation until every process has finished. Panics are
    /// collected from processes and re-raised here, and so is a deadlock.
    /// Must be called from a thread that is *not* a fabric process
    /// (typically the test/bench main thread).
    pub fn run(&self) {
        let mut st = self.state.lock();
        assert!(!st.running, "SimCore::run is not reentrant");
        st.running = true;
        let baton = self.step(&mut st);
        drop(st);
        baton.pass();
        self.park(&self.runner);
        let mut st = self.state.lock();
        debug_assert!(!st.running, "run() resumed before the halt");
        let panics = std::mem::take(&mut st.panics);
        if !panics.is_empty() {
            drop(st);
            panic!("{}", panics.join("\n"));
        }
        if st.live_procs > 0 {
            #[expect(clippy::disallowed_methods, reason = "sorted before it is reported")]
            let mut blocked: Vec<_> = st
                .procs
                .values()
                .filter_map(|p| match p.state {
                    ProcState::Blocked(r) => {
                        let on = p.script.as_ref().map_or(r.to_string(), Script::describe);
                        Some(format!("  - '{}' on {} blocked on {on}\n", p.name, p.node))
                    }
                    ProcState::Runnable => None,
                })
                .collect();
            blocked.sort();
            let but = if st.idle_beats > 0 {
                " but idle heartbeats"
            } else {
                ""
            };
            drop(st);
            panic!(
                "fabric deadlock: no runnable process and no pending events{but}.\nBlocked processes:\n{}",
                blocked.concat()
            );
        }
    }

    /// `(wakes in the heap, processes currently blocked)`.
    #[cfg(test)]
    fn pending_wakes_and_blocked_procs(&self) -> (usize, usize) {
        let st = self.state.lock();
        #[expect(clippy::disallowed_methods, reason = "only counted")]
        let blocked = st.procs.values().filter(|p| p.state != ProcState::Runnable);
        (st.wakes.len(), blocked.count())
    }

    pub fn stats(&self) -> FabricStats {
        let st = self.state.lock();
        FabricStats {
            per_resource: st.res_done.clone(),
            transfers: st.transfers,
            flows: st.flows_started,
            bytes_requested: st.bytes_requested,
            events: st.events_processed,
            wakes: st.wakes_handed,
            fill_scans: st.fill_scans,
            now_ns: st.now,
            net_fault_hits: st.net_fault_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ResourceKind;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn spawn_raw(
        core: &Arc<SimCore>,
        node: NodeId,
        name: &str,
        f: impl FnOnce(u64, &Parker) + Send + 'static,
    ) {
        let parker = Arc::new(Parker::new());
        let pid = core.register_proc(node, name, parker.clone());
        let core2 = core.clone();
        std::thread::spawn(move || {
            core2.park(&parker);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(pid, &parker)));
            match r {
                Ok(()) => core2.proc_finished(pid),
                Err(e) => {
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic".into());
                    core2.proc_panicked(pid, msg);
                }
            }
        });
    }

    #[test]
    fn single_flow_takes_size_over_bandwidth() {
        let spec = ClusterSpec::tiny(2);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64; // exactly 1 second at nic_bw
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let rx = spec.resource(NodeId(1), ResourceKind::Rx);
        let done = Arc::new(Mutex::new(0u64));
        let d2 = done.clone();
        let c2 = core.clone();
        spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
            c2.flow(pid, parker, &[tx, rx], bytes as f64);
            *d2.lock() = c2.now();
        });
        core.run();
        let t = *done.lock();
        assert!((t as f64 - 1e9).abs() < 2.0e3, "expected ~1e9 ns, got {t}");
    }

    #[test]
    fn two_flows_share_a_tx_link_fairly() {
        let spec = ClusterSpec::tiny(3);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64;
        // Both flows leave node 0 -> shared TX -> each gets half the rate.
        let times = Arc::new(Mutex::new(Vec::new()));
        for dst in [1u32, 2u32] {
            let tx = spec.resource(NodeId(0), ResourceKind::Tx);
            let rx = spec.resource(NodeId(dst), ResourceKind::Rx);
            let c2 = core.clone();
            let t2 = times.clone();
            spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
                c2.flow(pid, parker, &[tx, rx], bytes as f64);
                t2.lock().push(c2.now());
            });
        }
        core.run();
        for &t in times.lock().iter() {
            assert!(
                (t as f64 - 2e9).abs() < 5.0e3,
                "expected ~2e9 ns (half rate), got {t}"
            );
        }
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let spec = ClusterSpec::tiny(4);
        let core = SimCore::new(spec.clone(), 0);
        let bytes = 117_000_000u64;
        let times = Arc::new(Mutex::new(Vec::new()));
        for (src, dst) in [(0u32, 1u32), (2, 3)] {
            let tx = spec.resource(NodeId(src), ResourceKind::Tx);
            let rx = spec.resource(NodeId(dst), ResourceKind::Rx);
            let c2 = core.clone();
            let t2 = times.clone();
            spawn_raw(&core, NodeId(src), "xfer", move |pid, parker| {
                c2.flow(pid, parker, &[tx, rx], bytes as f64);
                t2.lock().push(c2.now());
            });
        }
        core.run();
        for &t in times.lock().iter() {
            assert!((t as f64 - 1e9).abs() < 2.0e3, "expected ~1e9 ns, got {t}");
        }
    }

    #[test]
    fn sleep_orders_events() {
        let core = SimCore::new(ClusterSpec::tiny(1), 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in [(0u32, 30u64), (1, 10), (2, 20)] {
            let c2 = core.clone();
            let o2 = order.clone();
            spawn_raw(&core, NodeId(0), "sleeper", move |pid, parker| {
                c2.sleep(pid, parker, d * 1_000_000);
                o2.lock().push(i);
            });
        }
        core.run();
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    fn deterministic_event_counts() {
        let run_once = || {
            let spec = ClusterSpec::tiny(8);
            let core = SimCore::new(spec.clone(), 42);
            for i in 0..6u32 {
                let tx = spec.resource(NodeId(i % 4), ResourceKind::Tx);
                let rx = spec.resource(NodeId((i + 1) % 8), ResourceKind::Rx);
                let c2 = core.clone();
                spawn_raw(&core, NodeId(i % 4), "x", move |pid, parker| {
                    c2.sleep(pid, parker, (i as u64) * 1000);
                    c2.flow(pid, parker, &[tx, rx], 1e6 * (i + 1) as f64);
                });
            }
            core.run();
            let s = core.stats();
            (s.events, s.now_ns)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "panicked: boom")]
    fn process_panics_propagate() {
        let core = SimCore::new(ClusterSpec::tiny(1), 0);
        spawn_raw(&core, NodeId(0), "bomb", |_pid, _parker| panic!("boom"));
        core.run();
    }

    /// 64 procs × 16 flows each — 1 024 flow starts and as many finishes,
    /// all 64 in flight at once over 8 TX links, 4 RX links and 64 disks,
    /// every one of them re-timing every other flow's completion.
    #[test]
    fn flow_churn_never_reaches_the_wake_heap() {
        let spec = ClusterSpec::tiny(64);
        let core = SimCore::new(spec.clone(), 1);
        let worst = Arc::new(Mutex::new((0usize, 0usize)));
        for i in 0..64u32 {
            let tx = spec.resource(NodeId(i % 8), ResourceKind::Tx);
            let rx = spec.resource(NodeId(8 + i % 4), ResourceKind::Rx);
            let disk = spec.resource(NodeId(i), ResourceKind::Disk);
            let (c2, worst) = (core.clone(), worst.clone());
            spawn_raw(&core, NodeId(i), "churn", move |pid, parker| {
                for round in 0..16u32 {
                    let work = 1e5 * (1 + (i + round) % 5) as f64;
                    if round % 4 == 3 {
                        c2.flow(pid, parker, &[disk], work);
                    } else {
                        c2.flow(pid, parker, &[tx, rx], work);
                    }
                    let (pending, blocked) = c2.pending_wakes_and_blocked_procs();
                    assert!(
                        pending <= blocked,
                        "{pending} heap entries for {blocked} blocked procs"
                    );
                    let mut worst = worst.lock();
                    *worst = (worst.0.max(pending), worst.1.max(blocked));
                }
            });
        }
        core.run();
        // Only the initial wakes of procs that had not started yet were ever
        // in the heap; all 63 others were blocked on flows at some point.
        let (most_pending, most_blocked) = *worst.lock();
        assert!(most_pending < 64, "{most_pending}");
        assert_eq!(most_blocked, 63);
        // 64 spawn wakes + 1 024 completions, ending at the instant recorded
        // with completions still scheduled through the heap.
        let s = core.stats();
        assert_eq!((s.events, s.now_ns, s.flows), (1088, 494_412_401, 1024));
    }

    /// Progressive filling written the obvious way, with sets: the oracle
    /// for `recompute`'s in-place marks. `flows` is in flow-id order, and so
    /// is the tie-break: of two resources with equal shares, the one an
    /// earlier flow crosses first freezes first.
    fn reference_rates(capacity: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
        let mut order: Vec<u32> = Vec::new();
        for &r in flows.iter().flatten() {
            if !order.contains(&r) {
                order.push(r);
            }
        }
        let mut cap = capacity.to_vec();
        let mut unfrozen: std::collections::BTreeSet<usize> = (0..flows.len()).collect();
        let mut rate = vec![0.0; flows.len()];
        while !unfrozen.is_empty() {
            let mut best: Option<(u32, f64)> = None;
            for &r in &order {
                let n = unfrozen.iter().filter(|&&f| flows[f].contains(&r)).count();
                if n == 0 {
                    continue;
                }
                let share = (cap[r as usize] / n as f64).max(0.0);
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((r, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            for f in unfrozen.clone() {
                if flows[f].contains(&bottleneck) {
                    unfrozen.remove(&f);
                    rate[f] = share;
                    for &r in &flows[f] {
                        cap[r as usize] = (cap[r as usize] - share).max(0.0);
                    }
                }
            }
        }
        rate
    }

    /// The live flows as `(slot, flow)`, in flow-id order.
    fn live_flows(st: &SimState) -> Vec<(usize, &Flow)> {
        st.live.iter().map(|&s| (s, &st.flows[s])).collect()
    }

    /// What `recompute` must leave behind: the oracle's rates bit for bit,
    /// seqs ascending in flow-id order, `next_flow` their minimum, and the
    /// scratch counters cleared.
    fn check_recompute(st: &SimState, spec: &ClusterSpec) -> Result<(), TestCaseError> {
        let live = live_flows(st);
        prop_assert!(live.windows(2).all(|w| w[0].1.id < w[1].1.id));
        let capacity: Vec<f64> = (0..spec.resource_count() as u32)
            .map(|r| spec.capacity(r))
            .collect();
        let routes: Vec<Vec<u32>> = live.iter().map(|(_, f)| f.resources.clone()).collect();
        let want: Vec<u64> = reference_rates(&capacity, &routes)
            .iter()
            .map(|r| r.to_bits())
            .collect();
        let got: Vec<u64> = live.iter().map(|(_, f)| f.rate.to_bits()).collect();
        prop_assert_eq!(got, want);
        prop_assert!(live.windows(2).all(|w| w[0].1.seq < w[1].1.seq));
        let first = live.iter().map(|&(s, f)| (f.eta, f.seq, s)).min();
        prop_assert_eq!(st.next_flow, first);
        prop_assert!(st.scratch_nf.iter().all(|&n| n == 0));
        prop_assert!(st.scratch_cap.iter().all(|&c| c == 0.0));
        Ok(())
    }

    #[test]
    fn recompute_matches_reference_progressive_filling() {
        // Three resources of different capacity on one node, five flows:
        // TX saturates first (three ways), the disk then limits the one flow
        // that also crosses the CPU, whose other flow gets the remainder.
        let spec = ClusterSpec::tiny(1)
            .with_nic_bw(100.0)
            .with_disk_bw(400.0)
            .with_cpu_ops(1000.0);
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let disk = spec.resource(NodeId(0), ResourceKind::Disk);
        let cpu = spec.resource(NodeId(0), ResourceKind::Cpu);
        let fixture = [
            vec![tx],
            vec![tx, disk],
            vec![tx, disk],
            vec![disk, cpu],
            vec![cpu],
        ];
        let core = SimCore::new(spec.clone(), 0);
        let mut st = core.state.lock();
        for (id, resources) in fixture.iter().enumerate() {
            SimCore::add_flow(&mut st, resources.clone(), 1e6 * (5 - id) as f64, 0);
        }
        SimCore::recompute(&mut st, &spec);
        check_recompute(&st, &spec).unwrap();

        let rates: Vec<f64> = live_flows(&st).iter().map(|(_, f)| f.rate).collect();
        let third = 100.0 / 3.0;
        let squeezed = 400.0 - third - third;
        assert_eq!(rates, [third, third, third, squeezed, 1000.0 - squeezed]);
        // Flow 4 has the least work and the highest rate.
        let seqs: Vec<u64> = live_flows(&st).iter().map(|(_, f)| f.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
        assert_eq!(st.next_flow.map(|(_, _, slot)| st.flows[slot].id), Some(4));
    }

    /// Two resources tie at 1000 / 3, which rounds down: n0's TX and n1's
    /// RX, sharing one flow. Freezing the TX leaves the RX two flows and
    /// 1000 - 1000 / 3, whose half rounds *up*, an ulp above the tie. The
    /// RX must not freeze at the tie's share: a fresh scan finds it at its
    /// own, higher one.
    #[test]
    fn a_tie_that_a_freeze_raised_freezes_at_its_own_share() {
        let spec = ClusterSpec::tiny(6).with_nic_bw(1000.0);
        let tx = |n: u32| spec.resource(NodeId(n), ResourceKind::Tx);
        let rx = |n: u32| spec.resource(NodeId(n), ResourceKind::Rx);
        let fixture = [
            vec![tx(0), rx(1)],
            vec![tx(0), rx(2)],
            vec![tx(0), rx(3)],
            vec![tx(4), rx(1)],
            vec![tx(5), rx(1)],
        ];
        let core = SimCore::new(spec.clone(), 0);
        let mut st = core.state.lock();
        for resources in fixture {
            SimCore::add_flow(&mut st, resources, 1e6, 0);
        }
        SimCore::recompute(&mut st, &spec);
        check_recompute(&st, &spec).unwrap();

        let tie = 1000.0 / 3.0;
        let raised = (1000.0 - tie) / 2.0;
        assert!(raised > tie);
        let rates: Vec<f64> = live_flows(&st).iter().map(|(_, f)| f.rate).collect();
        assert_eq!(rates, [tie, tie, tie, raised, raised]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random starts and finishes over four nodes and a backplane, so
        /// finished flows' places are reused out of id order: after every
        /// step `recompute` passes [`check_recompute`]. With a NIC of 100
        /// units, three flows' share is inexact, so which of two tied
        /// resources freezes first shows in the last bits of the rates.
        #[test]
        fn recompute_matches_the_oracle_under_churn(
            steps in prop::collection::vec((0u8..8, 0u32..4, 0u32..4, 0u32..4, 1u32..50), 1..80),
        ) {
            let spec = ClusterSpec::tiny(4)
                .with_nic_bw(100.0)
                .with_disk_bw(300.0)
                .with_cpu_ops(1000.0)
                .with_backplane(Some(250.0));
            let bp = spec.backplane_resource().expect("backplane configured");
            let res = |n: u32, kind| spec.resource(NodeId(n), kind);
            let core = SimCore::new(spec.clone(), 0);
            let mut st = core.state.lock();
            for (action, a, b, c, work) in steps {
                let route = match action {
                    0 if a == b => vec![res(a, ResourceKind::Loopback)],
                    0 => vec![res(a, ResourceKind::Tx), res(b, ResourceKind::Rx), bp],
                    1 => {
                        // A cut-through chain a -> b -> c, as `transfer_chain`.
                        let mut r = vec![bp];
                        for (from, to) in [(a, b), (b, c)].into_iter().filter(|(f, t)| f != t) {
                            r.extend([res(from, ResourceKind::Tx), res(to, ResourceKind::Rx)]);
                        }
                        r.sort_unstable();
                        r.dedup();
                        r
                    }
                    2 => vec![res(a, ResourceKind::Disk)],
                    3 => vec![res(a, ResourceKind::Cpu), res(b, ResourceKind::Disk)],
                    _ if st.live.is_empty() => continue,
                    _ => {
                        let k = (a + 4 * b + 16 * c) as usize % st.live.len();
                        let slot = st.live[k];
                        SimCore::remove_flow(&mut st, slot);
                        SimCore::recompute(&mut st, &spec);
                        check_recompute(&st, &spec)?;
                        continue;
                    }
                };
                SimCore::add_flow(&mut st, route, 1e6 * work as f64, 0);
                SimCore::recompute(&mut st, &spec);
                check_recompute(&st, &spec)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Wide ties: 32 nodes and no backplane, so most flows are TX -> RX
        /// pairs whose shares tie at a whole NIC or at the same fraction of
        /// one, among some disk, CPU + disk and chain flows and random
        /// finishes. With a NIC of 100 units a three-way share is inexact,
        /// and freezing one tied resource can move another tied one by an
        /// ulp either way. After every step `recompute` passes
        /// [`check_recompute`].
        #[test]
        fn recompute_matches_the_oracle_across_wide_ties(
            steps in prop::collection::vec((0u8..12, 0u32..32, 0u32..32, 0u32..32, 1u32..50), 1..128),
        ) {
            let spec = ClusterSpec::tiny(32)
                .with_nic_bw(100.0)
                .with_disk_bw(300.0)
                .with_cpu_ops(1000.0);
            let res = |n: u32, kind| spec.resource(NodeId(n), kind);
            let core = SimCore::new(spec.clone(), 0);
            let mut st = core.state.lock();
            for (action, a, b, c, work) in steps {
                let route = match action {
                    0..=4 if a == b => vec![res(a, ResourceKind::Loopback)],
                    0..=4 => vec![res(a, ResourceKind::Tx), res(b, ResourceKind::Rx)],
                    5 => {
                        let mut r = Vec::new();
                        for (from, to) in [(a, b), (b, c)].into_iter().filter(|(f, t)| f != t) {
                            r.extend([res(from, ResourceKind::Tx), res(to, ResourceKind::Rx)]);
                        }
                        r.sort_unstable();
                        r.dedup();
                        if r.is_empty() {
                            continue;
                        }
                        r
                    }
                    6 => vec![res(a, ResourceKind::Disk)],
                    7 => vec![res(a, ResourceKind::Cpu), res(b, ResourceKind::Disk)],
                    _ if st.live.is_empty() => continue,
                    _ => {
                        let k = (a + 32 * b + 1024 * c) as usize % st.live.len();
                        let slot = st.live[k];
                        SimCore::remove_flow(&mut st, slot);
                        SimCore::recompute(&mut st, &spec);
                        check_recompute(&st, &spec)?;
                        continue;
                    }
                };
                SimCore::add_flow(&mut st, route, 1e6 * work as f64, 0);
                SimCore::recompute(&mut st, &spec);
                check_recompute(&st, &spec)?;
            }
        }
    }

    /// 200 flows, each a TX -> RX pair on two nodes of its own: every
    /// resource's share is one NIC, so all 400 tie. One refill walks them
    /// a bounded number of times, not once per flow.
    #[test]
    fn disjoint_ties_refill_without_a_scan_per_flow() {
        let spec = ClusterSpec::tiny(400);
        let core = SimCore::new(spec.clone(), 0);
        let mut st = core.state.lock();
        for i in 0..200u32 {
            let tx = spec.resource(NodeId(2 * i), ResourceKind::Tx);
            let rx = spec.resource(NodeId(2 * i + 1), ResourceKind::Rx);
            SimCore::add_flow(&mut st, vec![tx, rx], 1e6, 0);
        }
        SimCore::recompute(&mut st, &spec);
        assert!(live_flows(&st).iter().all(|(_, f)| f.rate == spec.nic_bw));
        let active = st.scratch_active.len() as u64;
        assert_eq!(active, 400);
        assert!(
            st.fill_scans <= 2 * active,
            "{} active entries walked for {active} active resources",
            st.fill_scans
        );
    }

    #[test]
    fn stats_account_flow_bytes() {
        let spec = ClusterSpec::tiny(2);
        let core = SimCore::new(spec.clone(), 0);
        let tx = spec.resource(NodeId(0), ResourceKind::Tx);
        let rx = spec.resource(NodeId(1), ResourceKind::Rx);
        let c2 = core.clone();
        spawn_raw(&core, NodeId(0), "xfer", move |pid, parker| {
            c2.flow(pid, parker, &[tx, rx], 5e6);
        });
        core.run();
        let s = core.stats();
        assert!((s.per_resource[tx as usize] - 5e6).abs() < 1.0);
        assert!((s.per_resource[rx as usize] - 5e6).abs() < 1.0);
    }
}
