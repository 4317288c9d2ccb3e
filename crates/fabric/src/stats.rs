//! Aggregate counters maintained by the fabric: how many bytes moved through
//! each resource, how many transfers/flows/events were processed. Tests use
//! these to assert that work really flowed through the modeled cluster, and
//! the benchmark harnesses report utilization from them.

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

    /// Mean utilization of a resource kind across all nodes over `[0, now]`.
    pub fn mean_utilization(&self, spec: &ClusterSpec, kind: ResourceKind) -> f64 {
        if self.now_ns == 0 {
            return 0.0;
        }
        let elapsed = self.now_ns as f64 / 1e9;
        let mut total = 0.0;
        let mut cap = 0.0;
        for n in spec.all_nodes() {
            total += self.resource_total(spec, n, kind);
            cap += spec.capacity(spec.resource(n, kind)) * elapsed;
        }
        if cap == 0.0 {
            0.0
        } else {
            total / cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_zero_when_idle() {
        let spec = ClusterSpec::tiny(2);
        let st = FabricStats {
            per_resource: vec![0.0; spec.resource_count()],
            now_ns: 1_000_000_000,
            ..Default::default()
        };
        assert_eq!(st.mean_utilization(&spec, ResourceKind::Tx), 0.0);
    }

    #[test]
    fn utilization_accounts_capacity() {
        let spec = ClusterSpec::tiny(1);
        let mut per = vec![0.0; spec.resource_count()];
        per[spec.resource(NodeId(0), ResourceKind::Tx) as usize] = spec.nic_bw; // 1s at full rate
        let st = FabricStats {
            per_resource: per,
            now_ns: 2_000_000_000, // 2s elapsed -> 50% utilization
            ..Default::default()
        };
        let u = st.mean_utilization(&spec, ResourceKind::Tx);
        assert!((u - 0.5).abs() < 1e-9, "{u}");
    }
}
