//! Blocking primitives, one implementation for both fabric modes.
//!
//! * [`Queue`] — an unbounded multi-producer/multi-consumer queue. Service
//!   inboxes, heartbeat channels and work queues are built from it.
//! * [`Gate`] — a one-shot broadcast flag ("this is done", "shut down now").
//! * [`Epoch`] — a change counter that never blocks; an idle heartbeat
//!   ([`Proc::heartbeat`]) sleeps until it moves.
//!
//! Each primitive is one state behind one `Mutex`: a queue holds its items,
//! its `closed` flag and a FIFO list of blocked receivers; a gate holds its
//! flag and its waiters. A caller that must block takes a waiter from its
//! [`Proc`], files it under that lock, releases the lock and parks. `send`,
//! `close` and `set` take out the waiters they satisfy under the lock and
//! wake them only after dropping it.
//!
//! The waiter is the only part that knows the mode. In sim mode it wakes
//! the proc through an engine event at the current virtual instant, so
//! wakes keep the one-runnable-process-at-a-time discipline and their FIFO
//! order (and hence determinism). In live mode it unparks the proc's own
//! thread parker, whose permit covers a wake that lands before the park.
//!
//! Receiving/waiting requires a [`Proc`] context; sending, closing and
//! non-blocking probes can be done from anywhere (including the main thread
//! before the simulation starts).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::lock_order::assert_none_held;
use parking_lot::Mutex;

use crate::handle::{Proc, Waiter};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Blocked receivers, woken first come first served.
    waiters: VecDeque<Waiter>,
}

/// Unbounded MPMC queue usable from fabric processes.
pub struct Queue<T> {
    state: Arc<Mutex<QueueState<T>>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            state: self.state.clone(),
        }
    }
}

impl<T: Send + 'static> Queue<T> {
    pub(crate) fn new() -> Self {
        Queue {
            state: Arc::new(Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Enqueue an item. Returns `false` (dropping the item) if the queue has
    /// been closed.
    pub fn send(&self, item: T) -> bool {
        let waiter = {
            let mut st = self.state.lock();
            if st.closed {
                return false;
            }
            st.items.push_back(item);
            st.waiters.pop_front()
        };
        if let Some(w) = waiter {
            w.wake();
        }
        true
    }

    /// Blocking receive. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn recv(&self, p: &Proc) -> Option<T> {
        assert_none_held("Queue::recv");
        loop {
            {
                let mut st = self.state.lock();
                if let Some(x) = st.items.pop_front() {
                    return Some(x);
                }
                if st.closed {
                    return None;
                }
                st.waiters.push_back(p.waiter("queue.recv"));
            }
            p.park();
            #[cfg(test)]
            p.note_resume(&self.state);
        }
    }

    /// Non-blocking receive (usable from any thread).
    pub fn try_recv(&self) -> Option<T> {
        self.state.lock().items.pop_front()
    }

    /// Close the queue: pending items remain receivable; subsequent sends are
    /// rejected; blocked receivers wake and observe `None` after draining.
    pub fn close(&self) {
        let waiters = {
            let mut st = self.state.lock();
            st.closed = true;
            std::mem::take(&mut st.waiters)
        };
        waiters.into_iter().for_each(Waiter::wake);
    }

    /// Number of currently buffered items.
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all currently buffered items (non-blocking).
    pub fn drain(&self) -> Vec<T> {
        self.state.lock().items.drain(..).collect()
    }
}

struct GateState {
    set: bool,
    waiters: Vec<Waiter>,
}

/// One-shot broadcast flag: `set` once, every past and future `wait` returns.
#[derive(Clone)]
pub struct Gate {
    state: Arc<Mutex<GateState>>,
}

impl Gate {
    pub(crate) fn new() -> Self {
        Gate {
            state: Arc::new(Mutex::new(GateState {
                set: false,
                waiters: Vec::new(),
            })),
        }
    }

    /// Raise the flag and wake all waiters. Idempotent.
    pub fn set(&self) {
        let waiters = {
            let mut st = self.state.lock();
            st.set = true;
            std::mem::take(&mut st.waiters)
        };
        waiters.into_iter().for_each(Waiter::wake);
    }

    /// True once [`Gate::set`] has been called.
    pub fn is_set(&self) -> bool {
        self.state.lock().set
    }

    /// Block until the gate is set (no-op when already set).
    pub fn wait(&self, p: &Proc) {
        assert_none_held("Gate::wait");
        loop {
            {
                let mut st = self.state.lock();
                if st.set {
                    return;
                }
                st.waiters.push(p.waiter("gate.wait"));
            }
            p.park();
            #[cfg(test)]
            p.note_resume(&self.state);
        }
    }
}

/// A change counter shared by whoever changes some state and whoever waits
/// for it to change. Lock-free, so the sim engine can read it under its own
/// lock: an idle heartbeat's script checks it between its steps, and ends
/// once it no longer reads the value the beat was idle at.
#[derive(Clone, Debug, Default)]
pub struct Epoch(Arc<AtomicU64>);

impl Epoch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a change.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    /// The number of changes so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSpec, Fabric, JoinHandle, NodeId};

    /// Every wake path on real threads. 8 producers × 1 000 items into one
    /// queue drained by 4 consumers, closed once every producer has been
    /// joined; 16 waiters racing one `set` on each of 200 gates in turn, so
    /// some arrive before the set and park while others find it raised.
    /// Each producer waits for a consumer's acknowledgement of every item
    /// before sending the next, so receivers on both sides block and are
    /// woken thousands of times, and none is rescued by a later send or by
    /// `close`: a wake lost in `send`, or a waiter filed after the lock that
    /// saw the queue empty was released, hangs here.
    #[test]
    fn live_queue_and_gate_lose_no_wakeup() {
        const PRODUCERS: u32 = 8;
        const CONSUMERS: u32 = 4;
        const ITEMS: u32 = 1_000;
        const GATE_WAITERS: u32 = 16;
        const GATES: usize = 200;
        let fx = Fabric::live(ClusterSpec::tiny(4));
        let q: Queue<u32> = fx.queue();
        let acks: Arc<Vec<Queue<()>>> = Arc::new((0..PRODUCERS).map(|_| fx.queue()).collect());

        let consumers: Vec<JoinHandle<Vec<u32>>> = (0..CONSUMERS)
            .map(|c| {
                let (q, acks) = (q.clone(), acks.clone());
                fx.spawn(NodeId(c), format!("consumer{c}"), move |p| {
                    let mut got = Vec::new();
                    while let Some(x) = q.recv(p) {
                        got.push(x);
                        assert!(acks[(x / ITEMS) as usize].send(()));
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<JoinHandle<()>> = (0..PRODUCERS)
            .map(|i| {
                let (q, acks) = (q.clone(), acks.clone());
                fx.spawn(NodeId(i % 4), format!("producer{i}"), move |p| {
                    for k in 0..ITEMS {
                        assert!(q.send(i * ITEMS + k));
                        acks[i as usize].recv(p).expect("ack queue stays open");
                    }
                })
            })
            .collect();
        let closer = fx.spawn(NodeId(0), "closer", move |p| {
            producers.iter().for_each(|h| h.join(p));
            q.close();
        });

        let gates: Arc<Vec<Gate>> = Arc::new((0..GATES).map(|_| fx.gate()).collect());
        let waiters: Vec<JoinHandle<()>> = (0..GATE_WAITERS)
            .map(|w| {
                let gates = gates.clone();
                fx.spawn(NodeId(w % 4), format!("waiter{w}"), move |p| {
                    for g in gates.iter() {
                        g.wait(p);
                        assert!(g.is_set(), "a waiter returned before its set");
                    }
                })
            })
            .collect();
        fx.spawn(NodeId(3), "setter", move |p| {
            for g in gates.iter() {
                g.set();
                p.yield_now();
            }
        });

        fx.run();
        closer.take().expect("closer finished");
        assert!(waiters.iter().all(|h| h.take().is_some()));
        let mut all: Vec<u32> = (consumers.iter())
            .flat_map(|h| h.take().expect("consumer saw None"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * ITEMS).collect::<Vec<u32>>());
    }
}
