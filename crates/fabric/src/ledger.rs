//! Where a process's time went: virtual time in sim mode, wall time in
//! live mode.
//!
//! In sim mode the engine charges every interval a process spends blocked
//! to one bucket of that process's [`Ledger`], keyed by the node and the
//! kind of thing it waited on ([`Waited`]). A runnable process spends no
//! virtual time, so a process's buckets sum to its virtual lifetime
//! exactly, and the difference of two snapshots a process reads with
//! [`crate::Proc::ledger`] sums to the virtual time between the reads.
//!
//! Services are not processes: a service's exchange is a
//! [`crate::Proc::request`] waited on inside the *caller's* process. So the
//! ledger says what a process waited on, not who did the work:
//!
//! * a wait on a request ([`crate::Pending`]) goes to its target whole,
//!   one `Request` bucket for its legs, faults and the server's CPU (even
//!   a leg's flow that the caller's own NIC froze);
//! * a message's latency and any network-fault penalty go to the far end
//!   of the message (for a bare `rpc`, the server);
//! * a flow goes to the resource that froze it at each refill, its
//!   bottleneck, with the interval split whenever a refill moves it;
//! * a queue or gate wait and any other sleep go to the process's own node.
//!
//! Live mode has no engine to charge waits, so a process names its time
//! from inside ([`LiveBook`]): a service's work is a scope on the service's
//! node ([`crate::Proc::serve`]), a park is a `Wait` scope and a sleep a
//! `Sleep` scope on the process's own node, and a scope is charged its wall
//! time less that of the scopes nested in it. Whatever no scope covers is
//! the process's own CPU, so the buckets sum to its wall-clock lifetime.

use crate::time::SimTime;
use crate::topology::{NodeId, ResourceKind};

/// What a blocked interval waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waited {
    /// A message's latency.
    Latency,
    /// A network fault's penalty: a stall, a delay or a retransmission.
    Fault,
    /// A flow, while a resource of this kind on the node was its
    /// bottleneck. A compute is `Resource(Cpu)`. In live mode, a scope of
    /// a service's work ([`crate::Proc::serve`]), and the process's own
    /// unscoped time as `Resource(Cpu)` on its node.
    Resource(ResourceKind),
    /// A flow, while the shared backplane was its bottleneck (charged to
    /// the waiting process's own node).
    Backplane,
    /// A queue receive or a gate wait (in live mode, any park).
    Wait,
    /// A wait for a request to end.
    Request,
    /// Any other sleep: a plain `sleep`, a heartbeat's period, a spawn.
    Sleep,
}

/// One bucket of a [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    pub node: NodeId,
    pub waited: Waited,
    pub ns: u64,
}

/// A process's time, bucketed by `(node, what it waited on)`.
/// Buckets appear in the order they were first charged; a process touches
/// few, so they live in a small `Vec` searched from the back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    charges: Vec<Charge>,
}

impl Ledger {
    /// Add `ns` to the `(node, waited)` bucket.
    pub(crate) fn charge(&mut self, node: NodeId, waited: Waited, ns: u64) {
        if ns == 0 {
            return;
        }
        let bucket = self
            .charges
            .iter_mut()
            .rev()
            .find(|c| c.node == node && c.waited == waited);
        match bucket {
            Some(c) => c.ns += ns,
            None => self.charges.push(Charge { node, waited, ns }),
        }
    }

    /// The buckets, in the order they were first charged.
    pub fn charges(&self) -> &[Charge] {
        &self.charges
    }

    /// Every bucket summed: the time the ledger covers.
    pub fn total(&self) -> u64 {
        self.charges.iter().map(|c| c.ns).sum()
    }

    /// What was charged after `earlier`, an older snapshot of the same
    /// process: the buckets that grew, by how much.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut delta = Ledger::default();
        for c in &self.charges {
            let before = (earlier.charges.iter())
                .find(|e| e.node == c.node && e.waited == c.waited)
                .map_or(0, |e| e.ns);
            delta.charge(c.node, c.waited, c.ns - before);
        }
        delta
    }
}

/// A live process's ledger: what its closed scopes charged, the scopes still
/// open (innermost last), and the instants that bound the unscoped rest.
#[derive(Debug, Default)]
pub(crate) struct LiveBook {
    born: SimTime,
    /// The process's latest clock reading; a snapshot covers time up to it.
    seen: SimTime,
    ledger: Ledger,
    open: Vec<Scope>,
}

#[derive(Debug)]
struct Scope {
    node: NodeId,
    waited: Waited,
    start: SimTime,
    /// The time of the closed scopes nested in this one.
    nested: u64,
}

impl LiveBook {
    pub(crate) fn new(born: SimTime) -> Self {
        LiveBook {
            born,
            seen: born,
            ..LiveBook::default()
        }
    }

    /// The process read the clock.
    pub(crate) fn saw(&mut self, now: SimTime) {
        self.seen = now;
    }

    /// Open a scope charged to `(node, waited)` at `clock()`. Answers
    /// `false`, and neither opens a scope nor reads the clock, when the
    /// innermost open scope charges the same bucket: a nested scope there
    /// would change no bucket.
    pub(crate) fn open(
        &mut self,
        node: NodeId,
        waited: Waited,
        clock: impl FnOnce() -> SimTime,
    ) -> bool {
        if (self.open.last()).is_some_and(|s| s.node == node && s.waited == waited) {
            return false;
        }
        let now = clock();
        self.seen = now;
        self.open.push(Scope {
            node,
            waited,
            start: now,
            nested: 0,
        });
        true
    }

    /// Close the innermost open scope at `now`.
    pub(crate) fn close(&mut self, now: SimTime) {
        let s = self
            .open
            .pop()
            .expect("a live scope closed that was never opened");
        let elapsed = now - s.start;
        self.ledger.charge(s.node, s.waited, elapsed - s.nested);
        if let Some(outer) = self.open.last_mut() {
            outer.nested += elapsed;
        }
        self.seen = now;
    }

    /// The ledger as of the latest clock reading: the open scopes' time so
    /// far, and the rest since birth to `(own, Resource(Cpu))`.
    pub(crate) fn snapshot(&self, own: NodeId) -> Ledger {
        let mut ledger = self.ledger.clone();
        let mut inner_start = self.seen;
        for s in self.open.iter().rev() {
            ledger.charge(s.node, s.waited, inner_start - s.start - s.nested);
            inner_start = s.start;
        }
        let rest = self.seen - self.born - ledger.total();
        ledger.charge(own, Waited::Resource(ResourceKind::Cpu), rest);
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_merge_and_differences_subtract() {
        let mut l = Ledger::default();
        l.charge(NodeId(1), Waited::Latency, 5);
        l.charge(NodeId(2), Waited::Resource(ResourceKind::Cpu), 7);
        l.charge(NodeId(1), Waited::Latency, 3);
        l.charge(NodeId(1), Waited::Sleep, 0);
        assert_eq!(l.charges().len(), 2);
        assert_eq!(l.total(), 15);
        let before = l.clone();
        l.charge(NodeId(2), Waited::Resource(ResourceKind::Cpu), 1);
        l.charge(NodeId(3), Waited::Wait, 4);
        let delta = l.since(&before);
        let cpu = Waited::Resource(ResourceKind::Cpu);
        assert_eq!(
            delta.charges(),
            [
                Charge {
                    node: NodeId(2),
                    waited: cpu,
                    ns: 1
                },
                Charge {
                    node: NodeId(3),
                    waited: Waited::Wait,
                    ns: 4
                },
            ]
        );
        assert_eq!(delta.total(), l.total() - before.total());
    }

    #[test]
    fn a_live_scope_is_charged_its_time_less_what_nests_in_it() {
        let cpu = Waited::Resource(ResourceKind::Cpu);
        let disk = Waited::Resource(ResourceKind::Disk);
        let mut b = LiveBook::new(100);
        assert!(b.open(NodeId(1), cpu, || 110));
        assert!(
            !b.open(NodeId(1), cpu, || unreachable!()),
            "same bucket: no scope"
        );
        assert!(b.open(NodeId(2), disk, || 115));
        assert!(b.open(NodeId(0), Waited::Wait, || 130));
        b.saw(134);
        let open = b.snapshot(NodeId(0));
        let at = |l: &Ledger, node, waited| {
            let mut c = l.charges().iter();
            c.find(|c| c.node == NodeId(node) && c.waited == waited)
                .map_or(0, |c| c.ns)
        };
        assert_eq!(open.total(), 34);
        assert_eq!(at(&open, 0, Waited::Wait), 4);
        assert_eq!(at(&open, 2, disk), 15);
        assert_eq!(at(&open, 1, cpu), 5);
        assert_eq!(at(&open, 0, cpu), 10);
        b.close(140);
        b.close(141);
        b.close(150);
        b.saw(155);
        let done = b.snapshot(NodeId(0));
        assert_eq!(done.total(), 55);
        assert_eq!(at(&done, 0, Waited::Wait), 10);
        assert_eq!(at(&done, 2, disk), 16);
        assert_eq!(at(&done, 1, cpu), 14);
        assert_eq!(at(&done, 0, cpu), 15);
    }
}
