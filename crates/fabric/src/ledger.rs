//! Where a process's virtual time went.
//!
//! In sim mode the engine charges every interval a process spends blocked
//! to one bucket of that process's [`Ledger`], keyed by the node and the
//! kind of thing it waited on ([`Waited`]). A runnable process spends no
//! virtual time, so a process's buckets sum to its virtual lifetime
//! exactly, and the difference of two snapshots a process reads with
//! [`crate::Proc::ledger`] sums to the virtual time between the reads.
//!
//! Services are not processes: an rpc charges the wire legs and the
//! server's CPU inside the *caller's* process. So the ledger says what a
//! process waited on, not who did the work:
//!
//! * a message's latency and any network-fault penalty go to the far end
//!   of the message (for an rpc, the server);
//! * a flow goes to the resource that froze it at each refill, its
//!   bottleneck, with the interval split whenever a refill moves it;
//! * a queue or gate wait and any other sleep go to the process's own
//!   node; a wait on a request ([`crate::Pending`]) to the request's
//!   target.
//!
//! Live mode keeps no ledger: every snapshot is empty.

use crate::topology::{NodeId, ResourceKind};

/// What a blocked interval waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waited {
    /// A message's latency.
    Latency,
    /// A network fault's penalty: a stall, a delay or a retransmission.
    Fault,
    /// A flow, while a resource of this kind on the node was its
    /// bottleneck. A compute is `Resource(Cpu)`.
    Resource(ResourceKind),
    /// A flow, while the shared backplane was its bottleneck (charged to
    /// the waiting process's own node).
    Backplane,
    /// A queue receive or a gate wait.
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

/// A process's virtual time, bucketed by `(node, what it waited on)`.
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

    /// Every bucket summed: the virtual time the ledger covers.
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
}
