//! Live execution mode: the same [`crate::Proc`] API mapped onto real OS
//! threads and the wall clock. Transfers, disk charges and compute charges
//! are free — in live mode the *actual* work performed on real payload bytes
//! is the cost. This is the mode used by functional tests and the runnable
//! examples; nodes are purely logical placement labels.
//!
//! A live proc is a job on a reusable thread. Spawning hands the job to a
//! parked worker, or starts a new worker when none is parked — never queues
//! behind a busy one — so the set of threads grows to the peak number of
//! concurrently live procs (what thread-per-proc would have had alive at
//! that moment) and a proc that fans out and waits for its children cannot
//! starve them. A worker between jobs is parked, is not a live proc as far
//! as [`crate::Fabric::run`] is concerned, and holds no handle to the world;
//! when the last handle drops, the workers are told to exit and are joined.
//! Identity — pid, rng stream, name, panic report — belongs to the job.
//! A proc's fan-out ([`crate::run_parallel`]) starts no proc here: its tasks
//! run on the caller's thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::stats::FabricStats;
use crate::time::SimTime;
use crate::topology::ClusterSpec;

/// A proc's body, ready to run; returns its panic report if it panicked.
type Job = Box<dyn FnOnce() -> Option<String> + Send>;

#[derive(Default)]
struct LiveState {
    live: u32,
    next_proc_id: u64,
    panics: Vec<String>,
    /// Jobs handed to parked workers that none has picked up yet.
    jobs: VecDeque<Job>,
    /// Parked workers not spoken for by a queued job.
    idle: usize,
    /// Every worker ever started; they run until `shutdown`.
    workers: Vec<thread::JoinHandle<()>>,
    shutdown: bool,
}

/// The part of a live world its worker threads share. Workers hold this and
/// not the [`LiveCore`], so parked workers do not keep the world alive.
struct LiveShared {
    state: Mutex<LiveState>,
    /// Signalled when the last live proc finishes (for `run`).
    all_done: Condvar,
    /// Signalled when a job is queued or the world shuts down (for workers).
    work: Condvar,
}

pub(crate) struct LiveCore {
    pub spec: ClusterSpec,
    pub seed: u64,
    start: Instant,
    transfers: AtomicU64,
    bytes_requested: AtomicU64,
    shared: Arc<LiveShared>,
}

impl LiveCore {
    // Live mode IS the time boundary: this Instant anchors the wall clock
    // every live-mode timestamp derives from.
    #[expect(clippy::disallowed_methods, reason = "live mode is the time boundary")]
    pub(crate) fn new(spec: ClusterSpec, seed: u64) -> Arc<Self> {
        Arc::new(LiveCore {
            spec,
            seed,
            start: Instant::now(),
            transfers: AtomicU64::new(0),
            bytes_requested: AtomicU64::new(0),
            shared: Arc::new(LiveShared {
                state: Mutex::new(LiveState::default()),
                all_done: Condvar::new(),
                work: Condvar::new(),
            }),
        })
    }

    pub(crate) fn now(&self) -> SimTime {
        self.start.elapsed().as_nanos() as SimTime
    }

    /// Start a live proc called `name`: `body` runs on a worker thread with
    /// the new proc's id and returns the panic message if the proc panicked.
    /// `body` must have dropped every handle to this world by the time it
    /// returns — the proc is reported finished only after that, so whoever
    /// `run` wakes holds the last handle and joins the workers.
    pub(crate) fn spawn(
        &self,
        name: Arc<str>,
        body: impl FnOnce(u64) -> Option<String> + Send + 'static,
    ) {
        let mut st = self.shared.state.lock();
        st.live += 1;
        let pid = st.next_proc_id;
        st.next_proc_id += 1;
        let job: Job =
            Box::new(move || body(pid).map(|msg| format!("process '{name}' panicked: {msg}")));
        if st.idle > 0 {
            st.idle -= 1;
            st.jobs.push_back(job);
            drop(st);
            self.shared.work.notify_one();
        } else {
            drop(st);
            let shared = self.shared.clone();
            let worker = thread::Builder::new()
                .name("live-worker".into())
                .spawn(move || shared.work_loop(job))
                .expect("failed to spawn live worker thread");
            self.shared.state.lock().workers.push(worker);
        }
    }

    pub(crate) fn note_transfer(&self, bytes: u64) {
        // Statistics only: nothing is published through these counters.
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Wait for all spawned processes to finish; re-raise collected panics.
    pub(crate) fn run(&self) {
        let mut st = self.shared.state.lock();
        while st.live > 0 {
            self.shared.all_done.wait(&mut st);
        }
        let panics = std::mem::take(&mut st.panics);
        drop(st);
        if !panics.is_empty() {
            panic!("{}", panics.join("\n"));
        }
    }

    pub(crate) fn stats(&self) -> FabricStats {
        FabricStats {
            per_resource: vec![0.0; self.spec.resource_count()],
            transfers: self.transfers.load(Ordering::Relaxed),
            flows: 0,
            bytes_requested: self.bytes_requested.load(Ordering::Relaxed) as f64,
            events: 0,
            wakes: 0,
            fill_scans: 0,
            requests: 0,
            now_ns: self.now(),
            net_fault_hits: 0,
        }
    }
}

impl LiveShared {
    /// A worker thread: run `job`, then park for the next until shutdown.
    fn work_loop(&self, mut job: Job) {
        loop {
            let panicked = job();
            let mut st = self.state.lock();
            st.panics.extend(panicked);
            st.live -= 1;
            if st.live == 0 {
                self.all_done.notify_all();
            }
            // Finished and parked in one critical section: whoever `run`
            // wakes finds this worker ready for the next spawn.
            st.idle += 1;
            job = loop {
                if let Some(next) = st.jobs.pop_front() {
                    break next;
                }
                if st.shutdown {
                    return;
                }
                self.work.wait(&mut st);
            };
        }
    }
}

impl Drop for LiveCore {
    /// The last handle to the world is gone, so no proc is live or can be
    /// spawned: release the parked workers and wait for them to exit.
    fn drop(&mut self) {
        let workers = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            std::mem::take(&mut st.workers)
        };
        self.shared.work.notify_all();
        let me = thread::current().id();
        for worker in workers {
            // A proc that kept a handle past its own end drops it on its
            // worker: that thread exits on its own once it sees `shutdown`.
            if worker.thread().id() != me {
                // Workers catch their jobs' panics; a join error has nothing
                // to report and a panic in drop would abort.
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{run_parallel, Fabric, FabricInner, JoinHandle, Proc, TaskFn};
    use crate::time::MILLIS;
    use crate::topology::NodeId;
    use std::sync::Weak;

    fn shared_of(fx: &Fabric) -> &Arc<LiveShared> {
        match &fx.inner {
            FabricInner::Live(core) => &core.shared,
            FabricInner::Sim(_) => unreachable!("live tests"),
        }
    }

    fn workers_started(fx: &Fabric) -> usize {
        shared_of(fx).state.lock().workers.len()
    }

    /// `width`-way fan-out of spawned procs, `depth` levels deep, every
    /// parent joining its children; runs `leaf` in each leaf and returns the
    /// leaf count.
    fn fan_out(
        p: &Proc,
        width: usize,
        depth: usize,
        leaf: &Arc<dyn Fn(&Proc) + Send + Sync>,
    ) -> usize {
        if depth == 0 {
            leaf(p);
            return 1;
        }
        let children: Vec<JoinHandle<usize>> = (0..width)
            .map(|i| {
                let leaf = leaf.clone();
                p.fabric().spawn(p.node(), format!("fan#{i}"), move |wp| {
                    fan_out(wp, width, depth - 1, &leaf)
                })
            })
            .collect();
        children.iter().map(|c| c.join(p)).sum()
    }

    fn no_op() -> Arc<dyn Fn(&Proc) + Send + Sync> {
        Arc::new(|_| ())
    }

    /// A leaf that returns only once `n` leaves have started, so all `n`
    /// (and their waiting parents) are live at once and none can be handed
    /// a sibling's worker.
    fn rendezvous(fx: &Fabric, n: u64) -> Arc<dyn Fn(&Proc) + Send + Sync> {
        let arrived = AtomicU64::new(0);
        let all_here = fx.gate();
        Arc::new(move |p| {
            if arrived.fetch_add(1, Ordering::SeqCst) + 1 == n {
                all_here.set();
            }
            all_here.wait(p);
        })
    }

    /// Leave exactly three parked workers behind: a proc and its two
    /// children, both alive at once.
    fn park_three_workers(fx: &Fabric) {
        let both = rendezvous(fx, 2);
        fx.spawn(NodeId(0), "warm", move |p| fan_out(p, 2, 1, &both));
        fx.run();
        assert_eq!(workers_started(fx), 3);
    }

    #[test]
    fn sequential_fan_outs_reuse_a_constant_number_of_threads() {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        let h = fx.spawn(NodeId(0), "driver", |p| {
            (0..1000).map(|_| fan_out(p, 4, 1, &no_op())).sum::<usize>()
        });
        fx.run();
        assert_eq!(h.take(), Some(4000));
        // The driver plus four children. A child has answered before it is
        // parked again, so a round can find up to four of them still on
        // their way back and start a thread instead; with eight child
        // workers four are always parked.
        let started = workers_started(&fx);
        assert!(started <= 9, "{started} threads for 4001 procs");
    }

    #[test]
    fn a_live_fan_out_runs_its_tasks_in_order_on_the_caller() {
        let fx = Fabric::live(ClusterSpec::tiny(2));
        let h = fx.spawn(NodeId(1), "caller", |p| {
            let (caller, order) = (thread::current().id(), Arc::new(Mutex::new(Vec::new())));
            let tasks: Vec<TaskFn<(usize, String)>> = (0..4usize)
                .map(|i| {
                    let order = order.clone();
                    Box::new(move |wp: &Proc| {
                        assert_eq!(thread::current().id(), caller);
                        order.lock().push(i);
                        (i, wp.name().to_string())
                    }) as TaskFn<(usize, String)>
                })
                .collect();
            let out = run_parallel(p, "fan", tasks);
            let doomed: Vec<TaskFn<()>> = vec![Box::new(|_| ()), Box::new(|_| panic!("task 1"))];
            let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_parallel(p, "doomed", doomed)
            }));
            let order = order.lock().clone();
            (out, order, raised.is_err())
        });
        fx.run();
        let (out, order, raised) = h.take().expect("the caller finished");
        let named = |i| (i, "caller".to_string());
        assert_eq!(out, (0..4).map(named).collect::<Vec<_>>());
        assert_eq!(order, [0, 1, 2, 3]);
        assert!(raised, "a task's panic is the caller's");
        assert_eq!(workers_started(&fx), 1, "the caller's worker only");
    }

    #[test]
    fn nested_fan_out_grows_the_set_to_the_peak_and_cannot_starve() {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        park_three_workers(&fx);
        // Three levels, each wider than what is parked, every parent blocked
        // on its children, and no leaf returns before all 27 have started:
        // 1 + 3 + 9 + 27 procs are live at once. A bounded set of workers
        // would deadlock here.
        let leaf = rendezvous(&fx, 27);
        let h = fx.spawn(NodeId(0), "root", move |p| fan_out(p, 3, 3, &leaf));
        fx.run();
        assert_eq!(h.take(), Some(27));
        assert_eq!(workers_started(&fx), 1 + 3 + 9 + 27);
    }

    #[test]
    fn pooled_panic_is_reraised_by_name_and_the_fabric_stays_usable() {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        fx.spawn(NodeId(0), "fine", |_| ());
        fx.run();
        let doomed = fx.spawn(NodeId(0), "doomed", |_| -> u32 { panic!("boom {}", 7) });
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fx.run()))
            .expect_err("run must re-raise");
        let msg = raised.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "process 'doomed' panicked: boom 7");
        // The proc finished: its handle holds the panic and re-raises it.
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.take()));
        assert!(joined.is_err(), "the doomed proc never finished");
        // Same fabric, same worker thread: the next proc runs, and `run`
        // does not raise the old panic again.
        assert_eq!(workers_started(&fx), 1);
        let h = fx.spawn(NodeId(0), "after", |p| p.name().to_string());
        fx.run();
        assert_eq!(h.take().as_deref(), Some("after"));
        assert_eq!(workers_started(&fx), 1);
    }

    #[test]
    fn workers_exit_when_the_last_handle_drops() {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        let h = fx.spawn(NodeId(0), "root", |p| fan_out(p, 3, 2, &no_op()));
        fx.run();
        assert_eq!(h.take(), Some(9));
        assert!(workers_started(&fx) >= 2);
        let pool: Weak<LiveShared> = Arc::downgrade(shared_of(&fx));
        let keeps_world_alive = fx.clone();
        drop(fx);
        assert!(pool.upgrade().is_some());
        // Every worker owns a reference to the shared state for as long as
        // its thread exists; dropping the world joins them, so it is freed.
        drop(keeps_world_alive);
        assert!(
            pool.upgrade().is_none(),
            "worker threads outlived the world"
        );
    }

    #[test]
    fn join_gate_and_queue_work_for_pooled_procs() {
        let fx = Fabric::live(ClusterSpec::tiny(2));
        // Three parked workers, so the procs below are pooled.
        park_three_workers(&fx);

        let q = fx.queue::<u32>();
        let go = fx.gate();
        let (q2, go2) = (q.clone(), go.clone());
        let recv = fx.spawn(NodeId(0), "recv", move |p| {
            go2.wait(p);
            let mut sum = 0;
            while let Some(x) = q2.recv(p) {
                sum += x;
            }
            sum
        });
        let send = fx.spawn(NodeId(1), "send", move |p| {
            for i in 1..=4 {
                q.send(i);
                p.sleep(MILLIS);
            }
            q.close();
            go.set();
            p.name().to_string()
        });
        // A third proc joins the other two from inside the world.
        let joined = fx.spawn(NodeId(0), "joiner", move |p| (recv.join(p), send.join(p)));
        fx.run();
        assert_eq!(joined.take(), Some((10, "send".to_string())));
        assert_eq!(workers_started(&fx), 3);
        assert!(fx.now() > 0);
    }
}
