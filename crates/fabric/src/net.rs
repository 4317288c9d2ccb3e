//! Deterministic network-fault model for the simulator.
//!
//! A [`NetFault`] is a *windowed* rule over transfers: while the virtual
//! clock is inside `[from_ns, until_ns)`, transfers matching the rule's
//! endpoint sets pay an extra cost before their normal latency/flow:
//!
//! * [`NetFaultKind::Delay`] — a fixed extra latency (congestion, a slow
//!   switch port, a GC-pausing peer).
//! * [`NetFaultKind::Drop`] — each matching message is lost with probability
//!   `prob` and retransmitted after `retransmit_ns` (the transport recovers;
//!   the cost is the retry timeout). Draws come from a dedicated RNG stream
//!   seeded from the fabric seed, so a given seed yields the same losses.
//! * [`NetFaultKind::Partition`] — the two sides cannot talk at all: a
//!   matching transfer stalls until the window closes (TCP keeps the
//!   connection open across a transient partition), then proceeds.
//!
//! Faults only shape *when* modeled messages complete — they never corrupt
//! payloads and never affect live mode, where real threads move real bytes.
//! Because every penalty is either a pure function of the window or a draw
//! from the seeded fault stream, a simulation with faults is exactly as
//! deterministic as one without.

use crate::time::SimTime;
use crate::topology::NodeId;

/// A set of nodes used to scope a fault to part of the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeSet {
    /// Every node.
    Any,
    /// A single node.
    One(NodeId),
    /// An explicit group of nodes.
    Group(Vec<NodeId>),
}

impl NodeSet {
    pub(crate) fn contains(&self, n: NodeId) -> bool {
        match self {
            NodeSet::Any => true,
            NodeSet::One(m) => *m == n,
            NodeSet::Group(g) => g.contains(&n),
        }
    }
}

/// What a matching transfer suffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetFaultKind {
    /// Add `extra_ns` of latency to every matching transfer.
    Delay { extra_ns: u64 },
    /// Lose each matching message with probability `prob`; a lost message
    /// costs one `retransmit_ns` retry timeout (repeated losses of the same
    /// message are folded into the single draw — the shape chaos cares
    /// about is "this link is lossy and slow", not TCP minutiae).
    Drop { prob: f64, retransmit_ns: u64 },
    /// No traffic crosses between the two sides; matching transfers stall
    /// until the window closes. Matching is symmetric (`a`→`b` and `b`→`a`).
    Partition,
}

/// One windowed fault rule. Construct via [`NetFault::delay`],
/// [`NetFault::drop`] or [`NetFault::partition`] and install it with
/// `Fabric::inject_net_fault`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFault {
    /// Window start (virtual ns, inclusive).
    pub from_ns: SimTime,
    /// Window end (virtual ns, exclusive). Also the heal instant for
    /// partitions.
    pub until_ns: SimTime,
    /// Source side (directional for Delay/Drop; either side for Partition).
    pub a: NodeSet,
    /// Destination side.
    pub b: NodeSet,
    pub kind: NetFaultKind,
}

impl NetFault {
    /// Extra latency on `a`→`b` transfers during the window.
    pub fn delay(
        from_ns: SimTime,
        until_ns: SimTime,
        a: NodeSet,
        b: NodeSet,
        extra_ns: u64,
    ) -> Self {
        NetFault {
            from_ns,
            until_ns,
            a,
            b,
            kind: NetFaultKind::Delay { extra_ns },
        }
    }

    /// Probabilistic loss (modeled as a retransmit timeout) on `a`→`b`
    /// transfers during the window.
    pub fn drop(
        from_ns: SimTime,
        until_ns: SimTime,
        a: NodeSet,
        b: NodeSet,
        prob: f64,
        retransmit_ns: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "drop probability {prob} not in [0, 1]"
        );
        NetFault {
            from_ns,
            until_ns,
            a,
            b,
            kind: NetFaultKind::Drop {
                prob,
                retransmit_ns,
            },
        }
    }

    /// Transient partition between the `a` and `b` sides during the window.
    pub fn partition(from_ns: SimTime, until_ns: SimTime, a: NodeSet, b: NodeSet) -> Self {
        NetFault {
            from_ns,
            until_ns,
            a,
            b,
            kind: NetFaultKind::Partition,
        }
    }

    /// Does this rule apply to a transfer `src`→`dst` (window already
    /// checked by the caller)?
    pub(crate) fn matches(&self, src: NodeId, dst: NodeId) -> bool {
        match self.kind {
            // Partitions cut both directions of the link.
            NetFaultKind::Partition => {
                (self.a.contains(src) && self.b.contains(dst))
                    || (self.a.contains(dst) && self.b.contains(src))
            }
            _ => self.a.contains(src) && self.b.contains(dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sets_match() {
        assert!(NodeSet::Any.contains(NodeId(7)));
        assert!(NodeSet::One(NodeId(3)).contains(NodeId(3)));
        assert!(!NodeSet::One(NodeId(3)).contains(NodeId(4)));
        let g = NodeSet::Group(vec![NodeId(1), NodeId(2)]);
        assert!(g.contains(NodeId(2)));
        assert!(!g.contains(NodeId(0)));
    }

    #[test]
    fn partitions_match_symmetrically() {
        let f = NetFault::partition(0, 10, NodeSet::One(NodeId(0)), NodeSet::One(NodeId(1)));
        assert!(f.matches(NodeId(0), NodeId(1)));
        assert!(f.matches(NodeId(1), NodeId(0)));
        assert!(!f.matches(NodeId(0), NodeId(2)));
    }

    #[test]
    fn delays_are_directional() {
        let f = NetFault::delay(0, 10, NodeSet::One(NodeId(0)), NodeSet::Any, 5);
        assert!(f.matches(NodeId(0), NodeId(1)));
        assert!(!f.matches(NodeId(1), NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn drop_probability_validated() {
        let _ = NetFault::drop(0, 1, NodeSet::Any, NodeSet::Any, 1.5, 100);
    }
}
