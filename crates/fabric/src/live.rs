//! Live execution mode: the same [`crate::Proc`] API mapped onto real OS
//! threads and the wall clock. Transfers, disk charges and compute charges
//! are free — in live mode the *actual* work performed on real payload bytes
//! is the cost. This is the mode used by functional tests and the runnable
//! examples; nodes are purely logical placement labels.
//!
//! A live proc is an OS thread of its own, started by [`crate::Fabric::spawn`]
//! as a sim proc's is. This core hands out pids, counts procs in and out so
//! that [`crate::Fabric::run`] can wait for the last one, and keeps their
//! panics. A proc's fan-out ([`crate::run_parallel`]) starts no proc here:
//! its tasks run on the caller's thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::stats::FabricStats;
use crate::time::SimTime;
use crate::topology::ClusterSpec;

#[derive(Default)]
struct LiveState {
    live: u32,
    next_proc_id: u64,
    panics: Vec<String>,
}

pub(crate) struct LiveCore {
    pub spec: ClusterSpec,
    pub seed: u64,
    start: Instant,
    transfers: AtomicU64,
    bytes_requested: AtomicU64,
    state: Mutex<LiveState>,
    /// Signalled when the last live proc ends (for `run`).
    all_done: Condvar,
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
            state: Mutex::new(LiveState::default()),
            all_done: Condvar::new(),
        })
    }

    pub(crate) fn now(&self) -> SimTime {
        self.start.elapsed().as_nanos() as SimTime
    }

    /// Count a new proc in and return its pid.
    pub(crate) fn proc_started(&self) -> u64 {
        let mut st = self.state.lock();
        st.live += 1;
        let pid = st.next_proc_id;
        st.next_proc_id += 1;
        pid
    }

    /// Count the proc called `name` out; `run` re-raises its panic, if any.
    pub(crate) fn proc_ended(&self, name: &str, panicked: Option<String>) {
        let mut st = self.state.lock();
        st.panics
            .extend(panicked.map(|msg| format!("process '{name}' panicked: {msg}")));
        st.live -= 1;
        if st.live == 0 {
            self.all_done.notify_all();
        }
    }

    pub(crate) fn note_transfer(&self, bytes: u64) {
        // Statistics only: nothing is published through these counters.
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Wait for all spawned processes to finish; re-raise collected panics.
    pub(crate) fn run(&self) {
        let mut st = self.state.lock();
        while st.live > 0 {
            self.all_done.wait(&mut st);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{run_parallel, Fabric, JoinHandle, Proc, TaskFn};
    use crate::time::MILLIS;
    use crate::topology::NodeId;
    use std::thread;

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

    /// A leaf that returns only once `n` leaves have started, so all `n`
    /// (and their waiting parents) are live at once.
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
    }

    #[test]
    fn nested_fan_out_grows_the_set_to_the_peak_and_cannot_starve() {
        let fx = Fabric::live(ClusterSpec::tiny(1));
        // Three levels, every parent blocked on its children, and no leaf
        // returns before all 27 have started: 1 + 3 + 9 + 27 procs are live
        // at once. A bounded set of threads would deadlock here.
        let leaf = rendezvous(&fx, 27);
        let h = fx.spawn(NodeId(0), "root", move |p| fan_out(p, 3, 3, &leaf));
        fx.run();
        assert_eq!(h.take(), Some(27));
    }

    #[test]
    fn a_live_panic_is_reraised_by_name_and_the_fabric_stays_usable() {
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
        // Same fabric: the next proc runs, and `run` does not raise the old
        // panic again.
        let h = fx.spawn(NodeId(0), "after", |p| p.name().to_string());
        fx.run();
        assert_eq!(h.take().as_deref(), Some("after"));
    }

    #[test]
    fn join_gate_and_queue_work_for_live_procs() {
        let fx = Fabric::live(ClusterSpec::tiny(2));
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
        assert!(fx.now() > 0);
    }
}
