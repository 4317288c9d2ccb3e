//! Blocking primitives that integrate with both fabric modes.
//!
//! * [`Queue`] — an unbounded multi-producer/multi-consumer queue. Service
//!   inboxes, heartbeat channels and work queues are built from it.
//! * [`Gate`] — a one-shot broadcast flag ("this is done", "shut down now").
//!
//! In sim mode, blocking goes through the engine: the caller parks and is
//! woken by an event scheduled at the current virtual instant, preserving the
//! one-runnable-process-at-a-time discipline (and hence determinism). In
//! live mode these degrade to ordinary Mutex+Condvar implementations.
//!
//! Receiving/waiting requires a [`Proc`] context; sending, closing and
//! non-blocking probes can be done from anywhere (including the main thread
//! before the simulation starts).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::lock_order::assert_none_held;
use parking_lot::{Condvar, Mutex};

use crate::handle::{Fabric, FabricInner, Proc};
use crate::sim::SimCore;

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

struct SimQ<T> {
    buf: VecDeque<T>,
    waiters: VecDeque<(u64, u64)>,
    closed: bool,
}

struct LiveQ<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

enum QueueInner<T> {
    Sim {
        core: Arc<SimCore>,
        q: Arc<Mutex<SimQ<T>>>,
    },
    Live(Arc<LiveQ<T>>),
}

impl<T> Clone for QueueInner<T> {
    fn clone(&self) -> Self {
        match self {
            QueueInner::Sim { core, q } => QueueInner::Sim {
                core: core.clone(),
                q: q.clone(),
            },
            QueueInner::Live(l) => QueueInner::Live(l.clone()),
        }
    }
}

/// Unbounded MPMC queue usable from fabric processes.
pub struct Queue<T> {
    inner: QueueInner<T>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Queue<T> {
    pub(crate) fn new(fabric: &Fabric) -> Self {
        let inner = match &fabric.inner {
            FabricInner::Sim(core) => QueueInner::Sim {
                core: core.clone(),
                q: Arc::new(Mutex::new(SimQ {
                    buf: VecDeque::new(),
                    waiters: VecDeque::new(),
                    closed: false,
                })),
            },
            FabricInner::Live(_) => QueueInner::Live(Arc::new(LiveQ {
                state: Mutex::new((VecDeque::new(), false)),
                cv: Condvar::new(),
            })),
        };
        Queue { inner }
    }

    /// Enqueue an item. Returns `false` (dropping the item) if the queue has
    /// been closed.
    pub fn send(&self, item: T) -> bool {
        match &self.inner {
            QueueInner::Sim { core, q } => {
                let waiter = {
                    let mut q = q.lock();
                    if q.closed {
                        return false;
                    }
                    q.buf.push_back(item);
                    q.waiters.pop_front()
                };
                if let Some((pid, gen)) = waiter {
                    core.schedule_wake(pid, gen);
                }
                true
            }
            QueueInner::Live(l) => {
                let mut st = l.state.lock();
                if st.1 {
                    return false;
                }
                st.0.push_back(item);
                l.cv.notify_one();
                true
            }
        }
    }

    /// Blocking receive. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn recv(&self, p: &Proc) -> Option<T> {
        assert_none_held("Queue::recv");
        match &self.inner {
            QueueInner::Sim { core, q } => loop {
                {
                    let mut qg = q.lock();
                    if let Some(x) = qg.buf.pop_front() {
                        return Some(x);
                    }
                    if qg.closed {
                        return None;
                    }
                    let gen = core.block_prepare(p.pid(), "queue.recv");
                    qg.waiters.push_back((p.pid(), gen));
                }
                p.park();
            },
            QueueInner::Live(l) => {
                let mut st = l.state.lock();
                loop {
                    if let Some(x) = st.0.pop_front() {
                        return Some(x);
                    }
                    if st.1 {
                        return None;
                    }
                    l.cv.wait(&mut st);
                }
            }
        }
    }

    /// Non-blocking receive (usable from any thread).
    pub fn try_recv(&self) -> Option<T> {
        match &self.inner {
            QueueInner::Sim { q, .. } => q.lock().buf.pop_front(),
            QueueInner::Live(l) => l.state.lock().0.pop_front(),
        }
    }

    /// Close the queue: pending items remain receivable; subsequent sends are
    /// rejected; blocked receivers wake and observe `None` after draining.
    pub fn close(&self) {
        match &self.inner {
            QueueInner::Sim { core, q } => {
                let waiters = {
                    let mut qg = q.lock();
                    qg.closed = true;
                    std::mem::take(&mut qg.waiters)
                };
                for (pid, gen) in waiters {
                    core.schedule_wake(pid, gen);
                }
            }
            QueueInner::Live(l) => {
                let mut st = l.state.lock();
                st.1 = true;
                l.cv.notify_all();
            }
        }
    }

    /// Number of currently buffered items.
    pub fn len(&self) -> usize {
        match &self.inner {
            QueueInner::Sim { q, .. } => q.lock().buf.len(),
            QueueInner::Live(l) => l.state.lock().0.len(),
        }
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all currently buffered items (non-blocking).
    pub fn drain(&self) -> Vec<T> {
        match &self.inner {
            QueueInner::Sim { q, .. } => q.lock().buf.drain(..).collect(),
            QueueInner::Live(l) => l.state.lock().0.drain(..).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

struct SimG {
    set: bool,
    waiters: Vec<(u64, u64)>,
}

struct LiveG {
    state: Mutex<bool>,
    cv: Condvar,
}

enum GateInner {
    Sim {
        core: Arc<SimCore>,
        g: Arc<Mutex<SimG>>,
    },
    Live(Arc<LiveG>),
}

impl Clone for GateInner {
    fn clone(&self) -> Self {
        match self {
            GateInner::Sim { core, g } => GateInner::Sim {
                core: core.clone(),
                g: g.clone(),
            },
            GateInner::Live(l) => GateInner::Live(l.clone()),
        }
    }
}

/// One-shot broadcast flag: `set` once, every past and future `wait` returns.
#[derive(Clone)]
pub struct Gate {
    inner: GateInner,
}

impl Gate {
    pub(crate) fn new(fabric: &Fabric) -> Self {
        let inner = match &fabric.inner {
            FabricInner::Sim(core) => GateInner::Sim {
                core: core.clone(),
                g: Arc::new(Mutex::new(SimG {
                    set: false,
                    waiters: Vec::new(),
                })),
            },
            FabricInner::Live(_) => GateInner::Live(Arc::new(LiveG {
                state: Mutex::new(false),
                cv: Condvar::new(),
            })),
        };
        Gate { inner }
    }

    /// Raise the flag and wake all waiters. Idempotent.
    pub fn set(&self) {
        match &self.inner {
            GateInner::Sim { core, g } => {
                let waiters = {
                    let mut gg = g.lock();
                    gg.set = true;
                    std::mem::take(&mut gg.waiters)
                };
                for (pid, gen) in waiters {
                    core.schedule_wake(pid, gen);
                }
            }
            GateInner::Live(l) => {
                *l.state.lock() = true;
                l.cv.notify_all();
            }
        }
    }

    /// True once [`Gate::set`] has been called.
    pub fn is_set(&self) -> bool {
        match &self.inner {
            GateInner::Sim { g, .. } => g.lock().set,
            GateInner::Live(l) => *l.state.lock(),
        }
    }

    /// Block until the gate is set (no-op when already set).
    pub fn wait(&self, p: &Proc) {
        assert_none_held("Gate::wait");
        match &self.inner {
            GateInner::Sim { core, g } => loop {
                {
                    let mut gg = g.lock();
                    if gg.set {
                        return;
                    }
                    let gen = core.block_prepare(p.pid(), "gate.wait");
                    gg.waiters.push((p.pid(), gen));
                }
                p.park();
            },
            GateInner::Live(l) => {
                let mut st = l.state.lock();
                while !*st {
                    l.cv.wait(&mut st);
                }
            }
        }
    }
}
