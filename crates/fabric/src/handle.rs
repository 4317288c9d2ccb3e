//! Public facade: [`Fabric`] (the world), [`Proc`] (a process's capability to
//! act in it) and [`JoinHandle`] (await a spawned process).

use std::cell::{Cell, RefCell, RefMut};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use parking_lot::lock_order::assert_none_held;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::Ledger;
use crate::live::LiveCore;
use crate::net::NetFault;
use crate::parker::Parker;
use crate::sim::{Baton, BlockReason, Script, SimCore};
use crate::stats::FabricStats;
use crate::sync::{Epoch, Gate, Queue};
use crate::time::SimTime;
use crate::topology::{ClusterSpec, NodeId, ResourceKind};

#[derive(Clone)]
pub(crate) enum FabricInner {
    Sim(Arc<SimCore>),
    Live(Arc<LiveCore>),
}

/// Handle to an execution world (simulated cluster or live threads).
/// Cheap to clone; all clones refer to the same world.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: FabricInner,
}

const DEFAULT_SEED: u64 = 0xB10B_5EE8;

impl Fabric {
    /// A simulated cluster with the default seed.
    pub fn sim(spec: ClusterSpec) -> Fabric {
        Self::sim_seeded(spec, DEFAULT_SEED)
    }

    /// A simulated cluster with an explicit seed (process RNG streams derive
    /// from it; two runs with equal seeds and spawn orders are identical).
    pub fn sim_seeded(spec: ClusterSpec, seed: u64) -> Fabric {
        Fabric {
            inner: FabricInner::Sim(SimCore::new(spec, seed)),
        }
    }

    /// A live world: processes are real threads, time is the wall clock,
    /// modeled costs are free. `spec.nodes` still defines the set of logical
    /// node ids used for placement decisions.
    pub fn live(spec: ClusterSpec) -> Fabric {
        Self::live_seeded(spec, DEFAULT_SEED)
    }

    /// Live world with an explicit RNG seed.
    pub fn live_seeded(spec: ClusterSpec, seed: u64) -> Fabric {
        Fabric {
            inner: FabricInner::Live(LiveCore::new(spec, seed)),
        }
    }

    /// The cluster description.
    pub fn spec(&self) -> &ClusterSpec {
        match &self.inner {
            FabricInner::Sim(c) => &c.spec,
            FabricInner::Live(c) => &c.spec,
        }
    }

    /// Current time in nanoseconds (virtual in sim mode, wall in live mode).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            FabricInner::Sim(c) => c.now(),
            FabricInner::Live(c) => c.now(),
        }
    }

    /// Spawn a process on `node`. In sim mode the process starts when the
    /// engine first schedules it; in live mode it starts immediately, on a
    /// reusable worker thread (see `crate::live`).
    pub fn spawn<T, F>(&self, node: NodeId, name: impl Into<String>, f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Proc) -> T + Send + 'static,
    {
        assert!(
            node.0 < self.spec().nodes,
            "spawn on {node} but cluster has {} nodes",
            self.spec().nodes
        );
        let name = name.into();
        let result: Arc<Mutex<Option<Result<T, String>>>> = Arc::new(Mutex::new(None));
        let done = self.gate();
        match &self.inner {
            FabricInner::Sim(core) => {
                let parker = Arc::new(Parker::new());
                let pid = core.register_proc(node, &name, parker.clone());
                let fabric = self.clone();
                let core2 = core.clone();
                let r2 = result.clone();
                let d2 = done.clone();
                let seed = core.seed ^ pid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let pname: Arc<str> = name.clone().into();
                std::thread::Builder::new()
                    .name(format!("sim:{name}"))
                    .stack_size(1 << 20)
                    .spawn(move || {
                        core2.park(&parker);
                        let p = Proc {
                            fabric,
                            node,
                            name: pname,
                            pid,
                            parker: parker.clone(),
                            baton: Cell::default(),
                            rng: RefCell::new(StdRng::seed_from_u64(seed)),
                        };
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(&p))) {
                            Ok(v) => {
                                *r2.lock() = Some(Ok(v));
                                d2.set();
                                core2.proc_finished(pid);
                            }
                            Err(e) => {
                                let msg = panic_msg(e);
                                *r2.lock() = Some(Err(msg.clone()));
                                d2.set();
                                core2.proc_panicked(pid, msg);
                            }
                        }
                    })
                    .expect("failed to spawn sim process thread");
            }
            FabricInner::Live(core) => {
                let fabric = self.clone();
                let r2 = result.clone();
                let d2 = done.clone();
                let base_seed = core.seed;
                let pname: Arc<str> = name.into();
                core.spawn(pname.clone(), move |pid| {
                    let p = Proc {
                        fabric,
                        node,
                        name: pname,
                        pid,
                        parker: Arc::new(Parker::new()),
                        baton: Cell::default(),
                        rng: RefCell::new(StdRng::seed_from_u64(
                            base_seed ^ pid.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        )),
                    };
                    let outcome =
                        std::panic::catch_unwind(AssertUnwindSafe(|| f(&p))).map_err(panic_msg);
                    // The proc's handle to the world goes before anyone can
                    // learn that the proc has finished.
                    drop(p);
                    let panicked = outcome.as_ref().err().cloned();
                    *r2.lock() = Some(outcome);
                    d2.set();
                    panicked
                });
            }
        }
        JoinHandle { result, done }
    }

    /// Drive the world to completion: in sim mode, run the event loop until
    /// every process finished; in live mode, wait for all threads. Process
    /// panics are re-raised here. Call from the coordinating (non-process)
    /// thread after spawning the initial processes.
    pub fn run(&self) {
        match &self.inner {
            FabricInner::Sim(c) => c.run(),
            FabricInner::Live(c) => c.run(),
        }
    }

    /// New unbounded MPMC queue for this world's procs.
    pub fn queue<T: Send + 'static>(&self) -> Queue<T> {
        Queue::new()
    }

    /// New one-shot broadcast gate for this world's procs.
    pub fn gate(&self) -> Gate {
        Gate::new()
    }

    /// Snapshot of fabric counters.
    pub fn stats(&self) -> FabricStats {
        match &self.inner {
            FabricInner::Sim(c) => c.stats(),
            FabricInner::Live(c) => c.stats(),
        }
    }

    /// Install a network-fault window ([`NetFault`]) in sim mode: matching
    /// remote transfers starting inside the window pay its cost (extra
    /// delay, a retransmission penalty, or a stall until a partition heals).
    /// No-op in live mode, where real packets cannot be shaped.
    pub fn inject_net_fault(&self, fault: NetFault) {
        if let FabricInner::Sim(c) = &self.inner {
            c.inject_net_fault(fault);
        }
    }

    /// Remove every installed network fault (sim mode; no-op in live mode).
    pub fn clear_net_faults(&self) {
        if let FabricInner::Sim(c) = &self.inner {
            c.clear_net_faults();
        }
    }
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// A process's execution context: its identity (node), its clock, and its
/// ability to spend time on modeled resources. Methods that block must be
/// called from the thread running this process — and, in debug builds, panic
/// (`wire-while-locked`) if that thread holds a ranked lock
/// ([`parking_lot::lock_order`]).
pub struct Proc {
    fabric: Fabric,
    node: NodeId,
    name: Arc<str>,
    pid: u64,
    parker: Arc<Parker>,
    /// The engine step [`Proc::waiter`] took, held until [`Proc::park`].
    baton: Cell<Baton>,
    rng: RefCell<StdRng>,
}

impl Proc {
    /// The world this process lives in.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Process name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mark this proc blocked on `reason` and return what wakes it. Called
    /// under the lock of the [`crate::sync`] primitive that files the
    /// waiter, which then releases its lock and must call [`Proc::park`]:
    /// in sim mode this takes the engine step (this proc is the last
    /// runnable), and the baton it yields waits in the proc until `park`
    /// passes it, so the next proc starts with both locks free.
    pub(crate) fn waiter(&self, reason: BlockReason) -> Waiter {
        match &self.fabric.inner {
            FabricInner::Sim(core) => {
                let (gen, baton) = core.block_prepare(self.pid, reason);
                self.baton.set(baton);
                Waiter::Sim {
                    core: core.clone(),
                    pid: self.pid,
                    gen,
                }
            }
            FabricInner::Live(_) => Waiter::Live(self.parker.clone()),
        }
    }

    /// Follows every [`Proc::waiter`], with the primitive's lock released:
    /// pass the baton the waiter took, then park until woken.
    pub(crate) fn park(&self) {
        match &self.fabric.inner {
            FabricInner::Sim(core) => {
                self.baton.take().pass();
                core.park(&self.parker);
            }
            FabricInner::Live(_) => self.parker.park(),
        }
    }

    /// See [`SimCore::note_resume`]; live procs share locks by design.
    #[cfg(test)]
    pub(crate) fn note_resume<T>(&self, lock: &Mutex<T>) {
        if let FabricInner::Sim(core) = &self.fabric.inner {
            core.note_resume(lock);
        }
    }

    /// Current time, ns.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }

    /// Where this process's virtual time went so far (module
    /// `crate::ledger`); the difference of two snapshots sums to the
    /// virtual time between them. Empty in live mode.
    pub fn ledger(&self) -> Ledger {
        match &self.fabric.inner {
            FabricInner::Sim(core) => core.ledger(self.pid),
            FabricInner::Live(_) => Ledger::default(),
        }
    }

    /// Deterministic per-process RNG stream.
    pub fn rng(&self) -> RefMut<'_, StdRng> {
        self.rng.borrow_mut()
    }

    /// Block for `ns` nanoseconds (virtual in sim mode, real in live mode).
    pub fn sleep(&self, ns: u64) {
        assert_none_held("Proc::sleep");
        match &self.fabric.inner {
            FabricInner::Sim(c) => c.sleep(self.pid, &self.parker, ns),
            FabricInner::Live(_) => std::thread::sleep(std::time::Duration::from_nanos(ns)),
        }
    }

    /// Move `bytes` from `src` to `dst`, blocking until the (modeled)
    /// transfer completes. Node-local moves use the loopback path. Messages
    /// below the cluster's `small_msg_cutoff` are charged latency only.
    pub fn transfer(&self, src: NodeId, dst: NodeId, bytes: u64) {
        assert_none_held("Proc::transfer");
        match &self.fabric.inner {
            FabricInner::Sim(c) => {
                let send = Script::transfer(self.node, src, dst, bytes);
                c.run_script(self.pid, &self.parker, send);
            }
            FabricInner::Live(c) => c.note_transfer(bytes),
        }
    }

    /// Move `bytes` along a store-and-forward pipeline visiting `nodes` in
    /// order with cut-through semantics: one fluid flow claims every hop's
    /// TX/RX, so the pipeline runs at the rate of its slowest hop (this is
    /// how HDFS's replication pipeline behaves for large writes). The whole
    /// chain stalls once, on its worst-afflicted hop, rather than paying each
    /// hop's fault penalty in sequence.
    pub fn transfer_chain(&self, nodes: &[NodeId], bytes: u64) {
        assert!(!nodes.is_empty(), "transfer chain needs at least one node");
        assert_none_held("Proc::transfer_chain");
        match &self.fabric.inner {
            FabricInner::Sim(c) => {
                let chain = Script::chain(self.node, nodes, bytes);
                c.run_script(self.pid, &self.parker, chain);
            }
            FabricInner::Live(c) => c.note_transfer(bytes),
        }
    }

    /// Convenience: transfer from this process's node to `dst`.
    pub fn send_to(&self, dst: NodeId, bytes: u64) {
        self.transfer(self.node, dst, bytes);
    }

    /// Convenience: transfer from `src` to this process's node.
    pub fn fetch_from(&self, src: NodeId, bytes: u64) {
        self.transfer(src, self.node, bytes);
    }

    /// A request/response control exchange with `dst` (two latency-dominated
    /// messages, the response sent when the request arrives).
    pub fn rpc(&self, dst: NodeId, req_bytes: u64, resp_bytes: u64) {
        assert_none_held("Proc::transfer");
        match &self.fabric.inner {
            FabricInner::Sim(c) => {
                let rpc = Script::rpc(self.node, dst, req_bytes, resp_bytes);
                c.run_script(self.pid, &self.parker, rpc);
            }
            FabricInner::Live(c) => {
                c.note_transfer(req_bytes);
                c.note_transfer(resp_bytes);
            }
        }
    }

    /// Start a request to `dst`: an rpc of `req_bytes` out and
    /// `resp_bytes` back, then `server_ops` on `dst`'s CPU — what [`Proc::rpc`]
    /// followed by [`Proc::compute`] charge, in that order. The engine walks
    /// it without a thread while this proc goes on; [`Pending::wait`]
    /// collects it. A request nobody waits for still runs to its end. In
    /// live mode this only notes the bytes, as `rpc` does.
    pub fn request(
        &self,
        dst: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        server_ops: u64,
    ) -> Pending {
        assert_none_held("Proc::request");
        let id = match &self.fabric.inner {
            FabricInner::Sim(c) => {
                let cpu = c.spec.resource(dst, ResourceKind::Cpu);
                let legs = (self.node, dst);
                let request = Script::request(legs, (req_bytes, resp_bytes), cpu, server_ops);
                c.request(self.node, request)
            }
            FabricInner::Live(c) => {
                c.note_transfer(req_bytes);
                c.note_transfer(resp_bytes);
                None
            }
        };
        Pending { id, dst }
    }

    /// Sleep `period`, then — in sim mode, while `idle` says this proc's
    /// last heartbeat was idle — keep beating: an [`Proc::rpc`] to `dst`,
    /// then the next sleep, for as long as `idle`'s epoch still reads the
    /// value given with it. The engine walks those beats without waking
    /// this proc's thread, and wakes it where a beat finds the epoch moved:
    /// after a sleep (returns `false`) or after an rpc (returns `true`), the
    /// two instants at which the caller's own loop would have looked. In
    /// live mode, or with `idle` = `None`, this is a plain sleep.
    pub fn heartbeat(
        &self,
        period: u64,
        dst: NodeId,
        req_bytes: u64,
        resp_bytes: u64,
        idle: Option<(&Epoch, u64)>,
    ) -> bool {
        match (&self.fabric.inner, idle) {
            (FabricInner::Sim(c), Some((epoch, seen))) => {
                assert_none_held("Proc::heartbeat");
                let beat = Script::heartbeat(
                    period,
                    (self.node, dst),
                    (req_bytes, resp_bytes),
                    epoch,
                    seen,
                );
                c.run_script(self.pid, &self.parker, beat)
            }
            _ => {
                self.sleep(period);
                false
            }
        }
    }

    /// Charge a disk write of `bytes` on `node`.
    pub fn disk_write(&self, node: NodeId, bytes: u64) {
        self.disk_io(node, bytes)
    }

    /// Charge a disk read of `bytes` on `node`.
    pub fn disk_read(&self, node: NodeId, bytes: u64) {
        self.disk_io(node, bytes)
    }

    fn disk_io(&self, node: NodeId, bytes: u64) {
        assert_none_held("Proc::disk_io");
        if let FabricInner::Sim(c) = &self.fabric.inner {
            if bytes > 0 {
                let res = [c.spec.resource(node, ResourceKind::Disk)];
                c.flow(self.pid, &self.parker, &res, bytes as f64);
            }
        }
    }

    /// Charge `ops` abstract CPU operations on `node` (shared max-min with
    /// other computations on the same node).
    pub fn compute(&self, node: NodeId, ops: u64) {
        assert_none_held("Proc::compute");
        if let FabricInner::Sim(c) = &self.fabric.inner {
            if ops > 0 {
                let res = [c.spec.resource(node, ResourceKind::Cpu)];
                c.flow(self.pid, &self.parker, &res, ops as f64);
            }
        }
    }
}

/// A request in flight ([`Proc::request`]).
#[must_use = "a request is collected with `wait`"]
pub struct Pending {
    /// The request's id while the engine walks it; `None` once it ended
    /// inside `request`, and in live mode.
    id: Option<u64>,
    dst: NodeId,
}

impl Pending {
    /// Block until the request has ended; returns at once if it has. The
    /// wait is charged to the request's target in `p`'s ledger.
    pub fn wait(self, p: &Proc) {
        assert_none_held("Pending::wait");
        if let (FabricInner::Sim(core), Some(id)) = (&p.fabric.inner, self.id) {
            core.wait_request(p.pid, &p.parker, id, self.dst);
        }
    }
}

/// A blocked proc's wake-up, filed with the [`crate::sync`] primitive it
/// waits on: the one place a queue or gate differs between the modes.
pub(crate) enum Waiter {
    /// An engine event at the current virtual instant, aimed at the block
    /// generation the proc parked under.
    Sim {
        core: Arc<SimCore>,
        pid: u64,
        gen: u64,
    },
    /// The proc's own parker; its permit covers an unpark that lands
    /// before the park.
    Live(Arc<Parker>),
}

impl Waiter {
    /// Wake the proc. Call after releasing the primitive's lock.
    pub(crate) fn wake(self) {
        match self {
            Waiter::Sim { core, pid, gen } => core.schedule_wake(pid, gen),
            Waiter::Live(parker) => parker.unpark(),
        }
    }
}

/// A boxed unit of work for [`run_parallel`].
pub type TaskFn<R> = Box<dyn FnOnce(&Proc) -> R + Send>;

/// Run `tasks` concurrently as sibling processes of `p` on the same node,
/// blocking until all complete; results come back in task order. A single
/// task runs inline (no spawn overhead). This is the building block for
/// client-side parallel I/O (parallel page writes/fetches, shuffle fans).
pub fn run_parallel<R: Send + 'static>(p: &Proc, label: &str, tasks: Vec<TaskFn<R>>) -> Vec<R> {
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        let t = tasks.into_iter().next().unwrap();
        return vec![t(p)];
    }
    let q: crate::sync::Queue<(usize, R)> = p.fabric().queue();
    for (i, t) in tasks.into_iter().enumerate() {
        let q2 = q.clone();
        p.fabric()
            .spawn(p.node(), format!("{label}#{i}"), move |wp| {
                q2.send((i, t(wp)));
            });
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, r) = q.recv(p).expect("parallel worker queue closed");
        out[i] = Some(r);
    }
    out.into_iter().map(|o| o.expect("worker result")).collect()
}

/// Handle to a spawned process; lets other processes (or the main thread,
/// after [`Fabric::run`]) retrieve its result.
pub struct JoinHandle<T> {
    result: Arc<Mutex<Option<Result<T, String>>>>,
    done: Gate,
}

impl<T> JoinHandle<T> {
    /// Block the calling process until the target finishes, then take its
    /// result. Panics if the target panicked or the result was already taken.
    pub fn join(&self, p: &Proc) -> T {
        self.done.wait(p);
        self.take().expect("process result already taken")
    }

    /// Non-blocking: take the result if the process has finished.
    /// Panics if the target panicked.
    pub fn take(&self) -> Option<T> {
        match self.result.lock().take() {
            None => None,
            Some(Ok(v)) => Some(v),
            Some(Err(e)) => panic!("joined process panicked: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MICROS, MILLIS, SECS};

    #[test]
    fn sim_ping_pong_through_queues() {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let ping: Queue<u64> = fx.queue();
        let pong: Queue<u64> = fx.queue();
        let (p2, q2) = (ping.clone(), pong.clone());
        let server = fx.spawn(NodeId(1), "server", move |p| {
            let mut served = 0;
            while let Some(x) = p2.recv(p) {
                q2.send(x * 2);
                served += 1;
            }
            served
        });
        let (p3, q3) = (ping, pong);
        let client = fx.spawn(NodeId(0), "client", move |p| {
            let mut total = 0u64;
            for i in 1..=10 {
                p3.send(i);
                total += q3.recv(p).unwrap();
            }
            p3.close();
            total
        });
        fx.run();
        assert_eq!(client.take(), Some(110));
        assert_eq!(server.take(), Some(10));
    }

    #[test]
    fn sim_transfer_times_match_model() {
        let spec = ClusterSpec::tiny(2);
        let bw = spec.nic_bw;
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        let h = fx.spawn(NodeId(0), "xfer", move |p| {
            let start = p.now();
            p.send_to(NodeId(1), 117_000_000); // 1s at nic_bw=117MB/s
            p.now() - start
        });
        fx.run();
        let took = h.take().unwrap();
        let expect = lat + (117_000_000.0 / bw * 1e9) as u64;
        assert!(
            (took as i64 - expect as i64).unsigned_abs() < 10_000,
            "took {took}, expected ~{expect}"
        );
    }

    #[test]
    fn small_messages_cost_latency_only() {
        let spec = ClusterSpec::tiny(2);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        let h = fx.spawn(NodeId(0), "rpc", move |p| {
            let start = p.now();
            p.rpc(NodeId(1), 100, 100);
            p.now() - start
        });
        fx.run();
        assert_eq!(h.take().unwrap(), 2 * lat);
    }

    #[test]
    fn chain_transfer_is_bottlenecked_once() {
        // A 3-hop pipeline of equal links moves data at single-link speed
        // and pays one latency per hop — also when every hop claims a
        // (here ample) backplane as a third resource.
        for backplane in [None, Some(1e12)] {
            let spec = ClusterSpec {
                backplane_bw: backplane,
                ..ClusterSpec::tiny(4)
            };
            let bw = spec.nic_bw;
            let lat = spec.latency_ns;
            let fx = Fabric::sim(spec);
            let h = fx.spawn(NodeId(0), "pipe", move |p| {
                let chain = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
                let start = p.now();
                p.transfer_chain(&chain, 100); // below the cutoff: latency only
                let small = p.now() - start;
                p.transfer_chain(&chain, 117_000_000);
                (small, p.now() - start - small)
            });
            fx.run();
            let (small, took) = h.take().unwrap();
            assert_eq!(small, 3 * lat, "backplane {backplane:?}");
            let expect = 3 * lat + (117_000_000.0 / bw * 1e9) as u64;
            assert!(
                (took as i64 - expect as i64).unsigned_abs() < 10_000,
                "took {took}, expected ~{expect} (backplane {backplane:?})"
            );
        }
    }

    #[test]
    fn compute_shares_cpu() {
        let spec = ClusterSpec {
            cpu_ops: 1e9,
            ..ClusterSpec::tiny(1)
        };
        let fx = Fabric::sim(spec);
        let mut hs = Vec::new();
        for i in 0..2 {
            hs.push(fx.spawn(NodeId(0), format!("cpu{i}"), move |p| {
                p.compute(NodeId(0), 1_000_000_000); // 1s alone, 2s shared
                p.now()
            }));
        }
        fx.run();
        for h in hs {
            let t = h.take().unwrap();
            assert!((t as f64 - 2e9).abs() < 1e4, "finished at {t}");
        }
    }

    #[test]
    fn gate_broadcasts_to_all_waiters() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let g = fx.gate();
        let mut hs = Vec::new();
        for i in 0..3u32 {
            let g2 = g.clone();
            hs.push(fx.spawn(NodeId(i), format!("w{i}"), move |p| {
                g2.wait(p);
                p.now()
            }));
        }
        let g3 = g;
        fx.spawn(NodeId(3), "setter", move |p| {
            p.sleep(5 * MILLIS);
            g3.set();
        });
        fx.run();
        for h in hs {
            assert_eq!(h.take().unwrap(), 5 * MILLIS);
        }
    }

    #[test]
    fn fabric_level_determinism() {
        let run = |seed| {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(16), seed);
            let q = fx.queue::<u32>();
            for i in 0..8u32 {
                let q2 = q.clone();
                fx.spawn(NodeId(i), format!("p{i}"), move |p| {
                    let jitter = {
                        let mut rng = p.rng();
                        rand::Rng::gen_range(&mut *rng, 0..1000u64)
                    };
                    p.sleep(jitter * MILLIS);
                    p.send_to(NodeId((i + 1) % 16), 10_000_000);
                    q2.send(i);
                });
            }
            let q3 = q.clone();
            let collector = fx.spawn(NodeId(15), "collector", move |p| {
                let mut order = Vec::new();
                for _ in 0..8 {
                    order.push(q3.recv(p).unwrap());
                }
                order
            });
            fx.run();
            let s = fx.stats();
            (collector.take().unwrap(), s.events, s.now_ns)
        };
        assert_eq!(run(7), run(7));
        // A different seed shifts the jitters and hence the arrival order.
        let a = run(7);
        let b = run(8);
        assert!(a.0 != b.0 || a.2 != b.2);
    }

    #[test]
    fn live_mode_smoke() {
        let fx = Fabric::live(ClusterSpec::tiny(2));
        let q = fx.queue::<u32>();
        let q2 = q.clone();
        let h = fx.spawn(NodeId(0), "recv", move |p| {
            let mut sum = 0;
            while let Some(x) = q2.recv(p) {
                sum += x;
            }
            sum
        });
        let q3 = q;
        fx.spawn(NodeId(1), "send", move |p| {
            for i in 1..=4 {
                q3.send(i);
                p.sleep(MILLIS);
            }
            q3.close();
        });
        fx.run();
        assert_eq!(h.take(), Some(10));
        assert!(fx.now() > 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_and_reported() {
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        let g = fx.gate();
        fx.spawn(NodeId(0), "stuck", move |p| g.wait(p));
        fx.run();
    }

    /// The message of the panic `fx.run()` raises.
    fn run_panic_message(fx: &Fabric) -> String {
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| fx.run()));
        panic_msg(err.expect_err("run() must panic"))
    }

    #[test]
    fn deadlock_inside_queue_recv_names_only_the_blocked() {
        // The last runnable proc takes the engine step inside `recv`, with
        // the queue's own lock held, finds nothing left to wake, and hands
        // the halt to `run()`, which reports it. Finished procs are gone
        // from the report.
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let q: Queue<u32> = fx.queue();
        let q2 = q.clone();
        fx.spawn(NodeId(0), "done-early", move |_| {
            q2.send(1);
        });
        fx.spawn(NodeId(1), "starved", move |p| {
            assert_eq!(q.recv(p), Some(1));
            p.sleep(MILLIS);
            q.recv(p);
        });
        let msg = run_panic_message(&fx);
        assert!(msg.contains("fabric deadlock"), "{msg}");
        assert!(
            msg.contains("'starved' on n1 blocked on queue.recv"),
            "{msg}"
        );
        assert!(!msg.contains("done-early"), "{msg}");
        assert_eq!(fx.now(), MILLIS);
    }

    #[test]
    fn deadlock_report_names_the_script_step() {
        // A heartbeat idle at an epoch nobody moves, beside a proc that parks
        // on a gate nobody sets while the beat is in its rpc's second leg:
        // from then on the beat's events are all there is.
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let epoch = Epoch::new();
        (0..42).for_each(|_| epoch.bump());
        fx.spawn(NodeId(0), "beater", move |p| {
            p.heartbeat(MILLIS, NodeId(1), 128, 128, Some((&epoch, epoch.get())));
            unreachable!("nothing moves the epoch");
        });
        let never = fx.gate();
        fx.spawn(NodeId(1), "stuck", move |p| {
            p.sleep(MILLIS + 150 * MICROS);
            never.wait(p);
        });
        let msg = run_panic_message(&fx);
        assert!(
            msg.starts_with(
                "fabric deadlock: no runnable process and no pending events but idle heartbeats."
            ),
            "{msg}"
        );
        let beat =
            "'beater' on n0 blocked on heartbeat (idle, epoch 42): rpc leg 2/2 to n1 (latency)";
        assert!(msg.contains(beat), "{msg}");
        assert!(msg.contains("'stuck' on n1 blocked on gate.wait"), "{msg}");
        assert_eq!(fx.now(), MILLIS + 150 * MICROS);
    }

    /// A tracker-style loop beats through `heartbeat` or by hand, while a
    /// second proc moves the epoch mid-sleep, mid-leg and mid-leg again
    /// (the third move stops the loop) and a lossy window draws for every
    /// request leg. Both worlds see each epoch value first at the same
    /// instants and end with the same counters; only the thread wakes
    /// differ.
    #[test]
    fn idle_heartbeats_match_the_loop_they_replace() {
        const HB: u64 = 10 * MILLIS;
        let run = |scripted: bool| {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(2), 34);
            fx.inject_net_fault(crate::NetFault::drop(
                0,
                SECS,
                crate::NodeSet::One(NodeId(0)),
                crate::NodeSet::Any,
                0.5,
                MILLIS,
            ));
            let epoch = Epoch::new();
            let e2 = epoch.clone();
            let beater = fx.spawn(NodeId(0), "beater", move |p| {
                let stop = || e2.get() >= 3;
                let mut seen_at = Vec::new();
                let mut after_rpc = false;
                loop {
                    if !after_rpc {
                        if stop() {
                            break;
                        }
                        p.rpc(NodeId(1), 128, 128);
                    }
                    if stop() {
                        break;
                    }
                    let seen = e2.get();
                    if seen_at.last().is_none_or(|&(e, _)| e != seen) {
                        seen_at.push((seen, p.now()));
                    }
                    after_rpc = if scripted {
                        p.heartbeat(HB, NodeId(1), 128, 128, Some((&e2, seen)))
                    } else {
                        p.sleep(HB);
                        false
                    };
                }
                (seen_at, p.now())
            });
            fx.spawn(NodeId(1), "bumper", move |p| {
                for at in [35 * MILLIS, 61_250 * MICROS, 81_750 * MICROS] {
                    p.sleep(at - p.now());
                    epoch.bump();
                }
            });
            fx.run();
            let s = fx.stats();
            let counters = (s.events, s.now_ns, s.transfers, s.net_fault_hits);
            (beater.take().unwrap(), counters, s.wakes)
        };
        let (by_hand, scripted) = (run(false), run(true));
        assert_eq!(scripted.0, by_hand.0, "epochs seen, and when");
        assert_eq!(scripted.1, by_hand.1, "events, now, transfers, fault hits");
        assert!(scripted.1 .3 > 0, "the lossy window drew");
        // By hand: both starts, the bumper's three sleeps, and a sleep and
        // an rpc per beat. Scripted: the starts, the bumper's sleeps, the
        // first rpc, and per epoch move the check that saw it plus, when
        // that check ended a sleep and the loop goes on, the rpc the woken
        // loop sends itself.
        assert_eq!((by_hand.2, scripted.2), (21, 11), "thread wakes");
    }

    #[test]
    fn panic_beside_blocked_procs_is_raised_by_name() {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let never = fx.gate();
        for i in 0..3 {
            let g = never.clone();
            fx.spawn(NodeId(0), format!("parked{i}"), move |p| g.wait(p));
        }
        fx.spawn(NodeId(1), "bomb", |p| {
            p.sleep(2 * MILLIS);
            panic!("boom at {}", p.now());
        });
        let msg = run_panic_message(&fx);
        assert_eq!(
            msg,
            format!("process 'bomb' panicked: boom at {}", 2 * MILLIS)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    fn wire_or_wait_under_a_ranked_guard_is_raised_by_name() {
        type Body = fn(&Proc, &Gate);
        let cases: [(u8, &str, Body); 2] = [
            (3, "Proc::transfer", |p, _| p.rpc(NodeId(1), 64, 64)),
            (2, "Gate::wait", |p, gate| gate.wait(p)),
        ];
        for fx in [
            Fabric::sim(ClusterSpec::tiny(2)),
            Fabric::live(ClusterSpec::tiny(2)),
        ] {
            for (rank, what, body) in cases {
                let (lock, gate) = (Mutex::with_rank((), rank), fx.gate());
                fx.spawn(NodeId(0), "caller", move |p| {
                    let _guard = lock.lock();
                    body(p, &gate);
                });
                let msg = run_panic_message(&fx);
                let expect = format!(
                    "process 'caller' panicked: wire-while-locked: {what} while holding a \
                     rank-{rank} lock"
                );
                assert!(msg.starts_with(&expect), "{msg}");
            }
        }
    }

    #[test]
    fn run_twice_on_one_fabric() {
        let fx = Fabric::sim(ClusterSpec::tiny(2));
        let first = fx.spawn(NodeId(0), "first", |p| {
            p.send_to(NodeId(1), 117_000);
            p.now()
        });
        fx.run();
        let t1 = first.take().unwrap();
        assert_eq!(fx.now(), t1);
        let events = fx.stats().events;

        // The second batch starts at the instant the first one ended.
        let second = fx.spawn(NodeId(1), "second", |p| {
            let start = p.now();
            p.sleep(5 * MILLIS);
            (start, p.now())
        });
        fx.run();
        assert_eq!(second.take().unwrap(), (t1, t1 + 5 * MILLIS));
        assert_eq!(fx.stats().events, events + 2);
        fx.run(); // nothing to do: returns at once
        assert_eq!(fx.now(), t1 + 5 * MILLIS);
    }

    #[test]
    fn finishing_proc_hands_the_engine_on() {
        // `quick` finishes as the only runnable proc while `slow` sleeps: the
        // step that wakes `slow` is taken by `quick`'s thread on its way out.
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        let slow = fx.spawn(NodeId(0), "slow", |p| {
            p.sleep(10 * MILLIS);
            p.now()
        });
        let quick = fx.spawn(NodeId(0), "quick", |p| p.now());
        fx.run();
        assert_eq!(quick.take(), Some(0));
        assert_eq!(slow.take(), Some(10 * MILLIS));
        assert_eq!(fx.stats().events, 3);
    }

    fn resumed_under_lock(fx: &Fabric) -> u64 {
        match &fx.inner {
            FabricInner::Sim(core) => core.resumed_under_lock(),
            FabricInner::Live(_) => unreachable!("a sim fabric"),
        }
    }

    /// The baton is passed only after its sender dropped every lock it took
    /// the engine step under: every thread that resumes from a park — a
    /// proc or `run()` — finds the engine's state lock free, and a proc
    /// woken inside `Queue::recv` / `Gate::wait` finds that primitive's lock
    /// free too. The world below resumes procs after `sleep`, `flow`,
    /// `Queue::recv` (four receivers that drain one queue and hand the baton
    /// to each other from inside `recv`), `Gate::wait` and a finishing
    /// proc; a second world ends with a panicking proc; and a thousand
    /// `run()`s of one idle proc race the halt against `run()` parking.
    /// A baton passed under a lock is a race, not a certainty: on one CPU
    /// the woken thread usually preempts its waker and finds the lock held,
    /// across CPUs it mostly arrives too late, so the test loops nightly.
    #[test]
    fn sim_batons_pass_after_every_lock_is_dropped() {
        const ROUNDS: u32 = 1_000;
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let q: Queue<u32> = fx.queue();
        let gates: Arc<Vec<Gate>> = Arc::new((0..ROUNDS).map(|_| fx.gate()).collect());
        let receivers: Vec<JoinHandle<u32>> = (0..4u32)
            .map(|r| {
                let q = q.clone();
                fx.spawn(NodeId(r), format!("receiver{r}"), move |p| {
                    let mut got = 0;
                    while let Some(x) = q.recv(p) {
                        got += 1;
                        match x % 8 {
                            0 => p.sleep(MILLIS / 2),
                            1 => p.send_to(NodeId((r + 1) % 4), 1 << 20),
                            _ => {}
                        }
                    }
                    got
                })
            })
            .collect();
        let waiters: Vec<JoinHandle<()>> = (0..4u32)
            .map(|w| {
                let gates = gates.clone();
                fx.spawn(NodeId(w), format!("waiter{w}"), move |p| {
                    for g in gates.iter() {
                        g.wait(p);
                        p.compute(NodeId(w), 1_000);
                    }
                })
            })
            .collect();
        let q2 = q.clone();
        fx.spawn(NodeId(0), "sender", move |p| {
            for round in 0..ROUNDS {
                for k in 0..4 {
                    assert!(q2.send(round * 4 + k));
                }
                p.sleep(MILLIS);
                gates[round as usize].set();
            }
            q2.close();
        });
        fx.run();
        assert_eq!(
            receivers.iter().map(|h| h.take().unwrap()).sum::<u32>(),
            ROUNDS * 4
        );
        assert!(waiters.iter().all(|h| h.take().is_some()));
        assert_eq!(resumed_under_lock(&fx), 0, "resumed while a lock was held");

        let fx = Fabric::sim(ClusterSpec::tiny(2));
        fx.spawn(NodeId(0), "sleeper", |p| p.sleep(SECS));
        fx.spawn(NodeId(1), "bomb", |p| {
            p.sleep(MILLIS);
            panic!("boom");
        });
        assert_eq!(run_panic_message(&fx), "process 'bomb' panicked: boom");
        assert_eq!(resumed_under_lock(&fx), 0, "resumed while a lock was held");

        let fx = Fabric::sim(ClusterSpec::tiny(1));
        for _ in 0..1_000 {
            let idle = fx.spawn(NodeId(0), "idle", |_| ());
            fx.run();
            assert!(idle.done.is_set());
        }
        assert_eq!(resumed_under_lock(&fx), 0, "resumed while a lock was held");
    }

    #[test]
    fn net_delay_fault_slows_matching_transfers() {
        let spec = ClusterSpec::tiny(3);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        fx.inject_net_fault(crate::NetFault::delay(
            0,
            SECS,
            crate::NodeSet::One(NodeId(0)),
            crate::NodeSet::One(NodeId(1)),
            7 * MILLIS,
        ));
        let hit = fx.spawn(NodeId(0), "hit", move |p| {
            let start = p.now();
            p.rpc(NodeId(1), 100, 100); // request matches, response doesn't
            p.now() - start
        });
        let miss = fx.spawn(NodeId(2), "miss", move |p| {
            let start = p.now();
            p.send_to(NodeId(1), 100);
            p.now() - start
        });
        fx.run();
        assert_eq!(hit.take().unwrap(), 2 * lat + 7 * MILLIS);
        assert_eq!(miss.take().unwrap(), lat);
        assert_eq!(fx.stats().net_fault_hits, 1);
    }

    #[test]
    fn net_partition_stalls_until_heal() {
        let spec = ClusterSpec::tiny(2);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        fx.inject_net_fault(crate::NetFault::partition(
            0,
            50 * MILLIS,
            crate::NodeSet::One(NodeId(0)),
            crate::NodeSet::One(NodeId(1)),
        ));
        // Both directions stall; a transfer started mid-window waits only
        // for the remainder of the window.
        let h = fx.spawn(NodeId(1), "cut", move |p| {
            p.sleep(10 * MILLIS);
            p.send_to(NodeId(0), 100);
            let healed_at = p.now();
            p.send_to(NodeId(0), 100); // window over: plain latency
            (healed_at, p.now())
        });
        fx.run();
        let (healed_at, after) = h.take().unwrap();
        assert_eq!(healed_at, 50 * MILLIS + lat);
        assert_eq!(after, healed_at + lat);
    }

    #[test]
    fn net_drop_fault_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(2), seed);
            fx.inject_net_fault(crate::NetFault::drop(
                0,
                10 * SECS,
                crate::NodeSet::Any,
                crate::NodeSet::Any,
                0.5,
                MILLIS,
            ));
            let h = fx.spawn(NodeId(0), "lossy", move |p| {
                for _ in 0..50 {
                    p.send_to(NodeId(1), 100);
                }
                p.now()
            });
            fx.run();
            (h.take().unwrap(), fx.stats().net_fault_hits)
        };
        let (t1, hits1) = run(7);
        assert_eq!((t1, hits1), run(7));
        assert!(hits1 > 0 && hits1 < 50, "p=0.5 over 50 sends, got {hits1}");
        assert_ne!(run(8).1, hits1, "different seed, different losses");
    }

    #[test]
    fn clear_net_faults_heals_immediately() {
        let spec = ClusterSpec::tiny(2);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        fx.inject_net_fault(crate::NetFault::delay(
            0,
            SECS,
            crate::NodeSet::Any,
            crate::NodeSet::Any,
            MILLIS,
        ));
        fx.clear_net_faults();
        let h = fx.spawn(NodeId(0), "fine", move |p| {
            let start = p.now();
            p.send_to(NodeId(1), 100);
            p.now() - start
        });
        fx.run();
        assert_eq!(h.take().unwrap(), lat);
        assert_eq!(fx.stats().net_fault_hits, 0);
    }

    /// Each wait lands in its own bucket: an rpc's latencies at the server,
    /// a compute at the CPU that ran it, a transfer at the NIC that froze
    /// it (the receiver's, once a second sender shares it), a gate wait and
    /// a sleep at home; the buckets sum to the proc's lifetime.
    #[test]
    fn the_ledger_charges_each_wait_where_it_waited() {
        use crate::ledger::{Charge, Waited};
        let spec = ClusterSpec::tiny(3);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        let gate = fx.gate();
        let g2 = gate.clone();
        let h = fx.spawn(NodeId(0), "client", move |p| {
            let t0 = p.now();
            p.rpc(NodeId(1), 100, 100);
            p.compute(NodeId(1), 2_000_000_000);
            p.send_to(NodeId(2), 117_000_000);
            g2.wait(p);
            p.sleep(3 * MILLIS);
            (p.ledger(), p.now() - t0)
        });
        fx.spawn(NodeId(1), "sharer", move |p| {
            p.sleep(2 * lat + 3 * SECS / 2);
            p.send_to(NodeId(2), 117_000_000);
            gate.set();
        });
        fx.run();
        let (ledger, lifetime) = h.take().unwrap();
        assert_eq!(ledger.total(), lifetime);
        let at = |node: u32, waited| {
            let c = ledger.charges().iter();
            c.filter(|c: &&Charge| c.node == NodeId(node) && c.waited == waited)
                .map(|c| c.ns)
                .sum::<u64>()
        };
        assert_eq!(at(1, Waited::Latency), 2 * lat);
        assert_eq!(at(1, Waited::Resource(ResourceKind::Cpu)), SECS);
        assert_eq!(at(2, Waited::Latency), lat);
        // Half the bytes alone (the TX is the first of two tied
        // bottlenecks), the other half at half rate behind the shared RX.
        let tx = at(0, Waited::Resource(ResourceKind::Tx));
        let rx = at(2, Waited::Resource(ResourceKind::Rx));
        assert_eq!(tx, SECS / 2);
        assert!(rx.abs_diff(SECS) < MICROS, "{ledger:?}");
        assert_eq!(at(0, Waited::Sleep), 3 * MILLIS);
        assert_eq!(
            at(0, Waited::Wait) + tx + rx + 3 * lat + SECS + 3 * MILLIS,
            lifetime
        );
    }

    fn sim_core(fx: &Fabric) -> &Arc<SimCore> {
        match &fx.inner {
            FabricInner::Sim(core) => core,
            FabricInner::Live(_) => unreachable!("a sim fabric"),
        }
    }

    /// A request runs while its caller streams: the caller pays the longer
    /// of the two, and its ledger charges the rest of the request's time to
    /// the request's target.
    #[test]
    fn a_request_beside_a_flow_costs_the_longer_not_the_sum() {
        use crate::ledger::Waited;
        let spec = ClusterSpec {
            cpu_ops: 1e9,
            ..ClusterSpec::tiny(3)
        };
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        let h = fx.spawn(NodeId(0), "caller", move |p| {
            let mut took = Vec::new();
            for (ops, bytes) in [(500_000_000, 117_000_000), (2_000_000_000, 117_000_000)] {
                let t0 = p.now();
                let pending = p.request(NodeId(1), 128, 128, ops);
                p.send_to(NodeId(2), bytes);
                pending.wait(p);
                took.push(p.now() - t0);
            }
            (took, p.ledger())
        });
        fx.run();
        let (took, ledger) = h.take().unwrap();
        // A 1 s stream beside a 0.5 s request; a 2 s request beside it.
        let stream = lat + SECS;
        assert_eq!(took, [stream, 2 * lat + 2 * SECS]);
        let waited: u64 = (ledger.charges().iter())
            .filter(|c| c.node == NodeId(1) && c.waited == Waited::Request)
            .map(|c| c.ns)
            .sum();
        assert_eq!(waited, 2 * lat + 2 * SECS - stream);
        assert_eq!(fx.stats().requests, 2);
    }

    /// `request(..).wait()` issued at once is `rpc` + `compute` to the
    /// event: the same events, seqs, instants and transfers. Only the
    /// thread wakes differ: the request wakes its caller once.
    #[test]
    fn an_awaited_request_is_an_rpc_and_a_compute() {
        let run = |as_request: bool| {
            let fx = Fabric::sim_seeded(ClusterSpec::tiny(3), 36);
            let mut hs = Vec::new();
            for i in 0..3u32 {
                hs.push(fx.spawn(NodeId(i), format!("c{i}"), move |p| {
                    let mut at = Vec::new();
                    for round in 0..3u64 {
                        let (dst, ops) = (NodeId((i + 1) % 3), 1_000_000 * (round + 1));
                        if as_request {
                            p.request(dst, 128, 20_000, ops).wait(p);
                        } else {
                            p.rpc(dst, 128, 20_000);
                            p.compute(dst, ops);
                        }
                        at.push(p.now());
                    }
                    at
                }));
            }
            fx.run();
            let s = fx.stats();
            let at: Vec<Vec<u64>> = hs.iter().map(|h| h.take().unwrap()).collect();
            let counters = (
                s.events,
                sim_core(&fx).seq(),
                s.now_ns,
                s.transfers,
                s.flows,
            );
            (at, counters, s.per_resource, s.wakes)
        };
        let (by_rpc, by_request) = (run(false), run(true));
        assert_eq!(by_request.0, by_rpc.0, "every op's end");
        assert_eq!(by_request.1, by_rpc.1, "events, seq, now, transfers, flows");
        assert_eq!(by_request.2, by_rpc.2, "per-resource work");
        assert_eq!((by_rpc.3, by_request.3), (21, 12), "thread wakes");
    }

    /// A request whose caller returns without waiting still runs to its
    /// end, and `run` returns cleanly at that end.
    #[test]
    fn an_orphan_request_finishes_and_run_returns() {
        let spec = ClusterSpec {
            cpu_ops: 1e9,
            ..ClusterSpec::tiny(2)
        };
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        let h = fx.spawn(NodeId(0), "orphaner", |p| {
            drop(p.request(NodeId(1), 128, 128, 1_000_000));
            p.now()
        });
        fx.run();
        assert_eq!(h.take(), Some(0));
        assert_eq!(fx.now(), 2 * lat + MILLIS);
        let s = fx.stats();
        assert_eq!((s.requests, s.transfers, s.flows, s.events), (1, 2, 1, 4));
        // Requests to a proc's own node with no compute end inside the call.
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        fx.spawn(NodeId(0), "local", |p| {
            p.request(NodeId(0), 128, 128, 0).wait(p)
        });
        fx.run();
        assert_eq!(
            (fx.now(), fx.stats().requests, fx.stats().events),
            (0, 1, 1)
        );
    }

    /// A request's legs are expanded when they start, not when the request
    /// is made: a delay window that opens during the first leg's latency
    /// catches the second leg.
    #[test]
    fn a_request_takes_a_fault_penalty_when_its_leg_starts() {
        let spec = ClusterSpec::tiny(2);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        fx.inject_net_fault(crate::NetFault::delay(
            lat / 2,
            SECS,
            crate::NodeSet::Any,
            crate::NodeSet::Any,
            7 * MILLIS,
        ));
        let h = fx.spawn(NodeId(0), "caller", move |p| {
            p.request(NodeId(1), 128, 128, 0).wait(p);
            (p.now(), p.ledger())
        });
        fx.run();
        let (took, ledger) = h.take().unwrap();
        assert_eq!(took, 2 * lat + 7 * MILLIS);
        assert_eq!(fx.stats().net_fault_hits, 1);
        assert_eq!(ledger.total(), took);
    }

    /// A proc blocked on a request is reported with the request's step.
    #[test]
    fn the_blocked_report_names_a_proc_waiting_on_a_request() {
        let spec = ClusterSpec::tiny(3);
        let lat = spec.latency_ns;
        let fx = Fabric::sim(spec);
        fx.spawn(NodeId(0), "owner", |p| {
            p.request(NodeId(1), 128, 128, 2_000_000).wait(p)
        });
        let fx2 = fx.clone();
        let at = [lat + lat / 2, 2 * lat + 10 * MICROS];
        let h = fx.spawn(NodeId(2), "watcher", move |p| {
            at.map(|t| {
                p.sleep(t - p.now());
                sim_core(&fx2).report_blocked()
            })
        });
        fx.run();
        let [in_leg, in_compute] = h.take().unwrap();
        assert_eq!(
            in_leg,
            "  - 'owner' on n0 blocked on request: rpc leg 2/2 to n1 (latency)\n"
        );
        assert_eq!(
            in_compute,
            "  - 'owner' on n0 blocked on request: compute on n1\n"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Procs sleep, stream, call, compute, wait on a gate and make
        /// requests they collect at once, later or never: every proc's
        /// ledger sums to its virtual lifetime.
        #[test]
        fn every_procs_ledger_sums_to_its_lifetime(
            plans in proptest::collection::vec(
                proptest::collection::vec((0u8..7, 0u32..4, 1u64..40), 1..12),
                1..5,
            ),
            seed in 0u64..1_000,
        ) {
            let fx = Fabric::sim_seeded(ClusterSpec { cpu_ops: 1e9, ..ClusterSpec::tiny(4) }, seed);
            let gate = fx.gate();
            let mut hs = Vec::new();
            let last = plans.len() - 1;
            for (i, plan) in plans.into_iter().enumerate() {
                let gate = gate.clone();
                hs.push(fx.spawn(NodeId(i as u32 % 4), format!("p{i}"), move |p| {
                    let t0 = p.now();
                    let mut held: Option<Pending> = None;
                    for (action, node, size) in plan {
                        let node = NodeId(node);
                        match action {
                            0 => p.sleep(size * MICROS),
                            1 => p.send_to(node, size * 100_000),
                            2 => p.rpc(node, 128, size * 1_000),
                            3 => p.compute(node, size * 100_000),
                            4 => p.request(node, 128, size * 1_000, size * 100_000).wait(p),
                            5 => {
                                let pending = p.request(node, 128, 128, size * 100_000);
                                if let Some(old) = held.replace(pending) {
                                    old.wait(p);
                                }
                            }
                            _ => drop(p.request(node, 128, 128, size * 100_000)),
                        }
                    }
                    if let Some(pending) = held {
                        pending.wait(p);
                    }
                    if i == last {
                        gate.set();
                    } else {
                        gate.wait(p);
                    }
                    (p.ledger().total(), p.now() - t0)
                }));
            }
            fx.run();
            for h in hs {
                let (total, lifetime) = h.take().unwrap();
                proptest::prop_assert_eq!(total, lifetime);
            }
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "measures host time on purpose")]
    fn virtual_time_is_free() {
        // A year of virtual idling must simulate instantly.
        let fx = Fabric::sim(ClusterSpec::tiny(1));
        fx.spawn(NodeId(0), "rip-van-winkle", move |p| {
            p.sleep(365 * 24 * 3600 * SECS);
        });
        let wall = std::time::Instant::now();
        fx.run();
        assert!(wall.elapsed().as_secs() < 2);
        assert_eq!(fx.now(), 365 * 24 * 3600 * SECS);
    }
}
