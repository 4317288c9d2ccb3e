//! Aggregate counters maintained by the fabric: how many bytes moved through
//! each resource, how many transfers/flows/events were processed. Tests use
//! these to assert that work really flowed through the modeled cluster.

use crate::topology::{ClusterSpec, NodeId, ResourceKind};

/// Snapshot of fabric-level counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricStats {
    /// Bytes (or CPU ops) accounted per resource, indexed like
    /// [`ClusterSpec::resource`].
    pub per_resource: Vec<f64>,
    /// Number of `transfer`-like operations issued (including latency-only
    /// small messages).
    pub transfers: u64,
    /// Number of those that were modeled as fluid flows.
    pub flows: u64,
    /// Total bytes requested across all transfers.
    pub bytes_requested: f64,
    /// Events processed by the simulation engine (0 in live mode).
    pub events: u64,
    /// Thread hand-offs the simulation engine made: events that made a
    /// process runnable (0 in live mode). At most `events`; the rest moved
    /// a script on without waking its thread.
    pub wakes: u64,
    /// Active resources the max-min refills' bottleneck scans walked,
    /// summed over every scan (0 in live mode). Every flow start and finish
    /// refills once, so `flows` already counts the refills.
    pub fill_scans: u64,
    /// Requests started ([`crate::Proc::request`]); 0 in live mode.
    pub requests: u64,
    /// Current virtual/wall time in nanoseconds.
    pub now_ns: u64,
    /// Times an installed network fault actually penalized a transfer
    /// (0 in live mode and in fault-free simulations).
    pub net_fault_hits: u64,
}

impl FabricStats {
    /// Bytes accounted to a node's resource.
    pub fn resource_total(&self, spec: &ClusterSpec, node: NodeId, kind: ResourceKind) -> f64 {
        let idx = spec.resource(node, kind) as usize;
        self.per_resource.get(idx).copied().unwrap_or(0.0)
    }
}
