//! Cluster description: nodes and the capacities of their shared resources.
//!
//! The simulated cluster mirrors the paper's environment (§4.1): one
//! switched cluster (Grid'5000 Orsay) where each machine has a full-duplex
//! GigE NIC, a local disk and a handful of cores. Each node therefore
//! contributes five fluid resources to the flow model: NIC transmit, NIC
//! receive, disk, CPU and a loopback path for node-local copies. An optional
//! switch backplane resource models oversubscribed aggregation.

use crate::time::MICROS;

/// Identifier of a cluster node (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The kinds of fluid resource attached to every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// NIC transmit direction.
    Tx,
    /// NIC receive direction.
    Rx,
    /// Local disk bandwidth (reads and writes share it).
    Disk,
    /// CPU, in "operations per second" (cores folded into the capacity).
    Cpu,
    /// Node-local memory copy path used when source == destination.
    Loopback,
}

/// Number of per-node resources.
pub const RES_PER_NODE: usize = 5;

/// Why a [`ClusterSpec`] cannot describe a runnable cluster.
/// Returned by [`ClusterSpec::validate`] so generators (chaos schedules,
/// sweep harnesses) get a typed rejection instead of a panic deep inside
/// the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The cluster has zero nodes.
    NoNodes,
    /// A capacity is zero, negative, NaN or infinite.
    BadCapacity { what: &'static str, value: f64 },
    /// The configured backplane capacity is not a positive finite number.
    BadBackplane { value: f64 },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoNodes => write!(f, "cluster spec has zero nodes"),
            SpecError::BadCapacity { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            SpecError::BadBackplane { value } => {
                write!(
                    f,
                    "backplane bandwidth must be positive and finite, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Static description of the simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// NIC bandwidth per direction, bytes/second.
    pub nic_bw: f64,
    /// Disk bandwidth, bytes/second.
    pub disk_bw: f64,
    /// Loopback (memcpy) bandwidth, bytes/second.
    pub loopback_bw: f64,
    /// CPU capacity, abstract operations/second (all cores combined).
    pub cpu_ops: f64,
    /// One-way latency charged per message/flow start, nanoseconds.
    pub latency_ns: u64,
    /// Optional aggregate switch backplane capacity shared by *all* remote
    /// flows, bytes/second. `None` = non-blocking switch.
    pub backplane_bw: Option<f64>,
    /// Messages strictly smaller than this many bytes are charged latency
    /// only instead of creating a bandwidth flow. Control-plane RPCs are tiny
    /// compared to 64 MB pages; skipping their flows keeps the event count
    /// (and hence simulation cost) proportional to data movement.
    pub small_msg_cutoff: u64,
}

impl ClusterSpec {
    /// A cluster shaped like the paper's deployment on the Orsay site:
    /// GigE network (~117 MB/s of goodput per direction), commodity disks
    /// whose page store is memory-buffered (BlobSeer providers keep pages in
    /// RAM and persist asynchronously, so the disk does not throttle the
    /// benchmarks), and a non-blocking switch.
    pub fn grid5000(nodes: u32) -> Self {
        ClusterSpec {
            nodes,
            nic_bw: 117.0e6,
            disk_bw: 400.0e6,
            loopback_bw: 2.0e9,
            cpu_ops: 2.0e9,
            latency_ns: 100 * MICROS,
            backplane_bw: None,
            small_msg_cutoff: 16 * 1024,
        }
    }

    /// The exact scale used in the paper's evaluation (§4.1): 270 nodes.
    pub fn orsay_270() -> Self {
        Self::grid5000(270)
    }

    /// Tiny cluster for unit tests.
    pub fn tiny(nodes: u32) -> Self {
        Self::grid5000(nodes)
    }

    /// Check that this spec describes a runnable cluster: at least one node
    /// and positive, finite capacities everywhere. Call this before handing
    /// a generated spec to [`crate::Fabric::sim`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nodes == 0 {
            return Err(SpecError::NoNodes);
        }
        for (what, value) in [
            ("nic bandwidth", self.nic_bw),
            ("disk bandwidth", self.disk_bw),
            ("loopback bandwidth", self.loopback_bw),
            ("cpu capacity", self.cpu_ops),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SpecError::BadCapacity { what, value });
            }
        }
        if let Some(bp) = self.backplane_bw {
            if !(bp.is_finite() && bp > 0.0) {
                return Err(SpecError::BadBackplane { value: bp });
            }
        }
        Ok(())
    }

    /// Total number of fluid resources for this spec.
    pub(crate) fn resource_count(&self) -> usize {
        self.nodes as usize * RES_PER_NODE + usize::from(self.backplane_bw.is_some())
    }

    /// Resource index for `(node, kind)`.
    #[inline]
    pub fn resource(&self, node: NodeId, kind: ResourceKind) -> u32 {
        debug_assert!(node.0 < self.nodes, "node {node} out of range");
        let k = match kind {
            ResourceKind::Tx => 0,
            ResourceKind::Rx => 1,
            ResourceKind::Disk => 2,
            ResourceKind::Cpu => 3,
            ResourceKind::Loopback => 4,
        };
        node.0 * RES_PER_NODE as u32 + k
    }

    /// The node and kind of resource `idx`; `None` for the backplane.
    pub(crate) fn resource_owner(&self, idx: u32) -> Option<(NodeId, ResourceKind)> {
        const KINDS: [ResourceKind; RES_PER_NODE] = [
            ResourceKind::Tx,
            ResourceKind::Rx,
            ResourceKind::Disk,
            ResourceKind::Cpu,
            ResourceKind::Loopback,
        ];
        let per_node = RES_PER_NODE as u32;
        let kind = KINDS.get((idx % per_node) as usize)?;
        (idx < self.nodes * per_node).then_some((NodeId(idx / per_node), *kind))
    }

    /// Resource index of the backplane, if configured.
    #[inline]
    pub fn backplane_resource(&self) -> Option<u32> {
        self.backplane_bw
            .is_some()
            .then(|| self.nodes * RES_PER_NODE as u32)
    }

    /// Capacity of resource `idx` in units/second.
    pub(crate) fn capacity(&self, idx: u32) -> f64 {
        let per_node = self.nodes * RES_PER_NODE as u32;
        if idx >= per_node {
            return self.backplane_bw.expect("backplane not configured");
        }
        match idx % RES_PER_NODE as u32 {
            0 | 1 => self.nic_bw,
            2 => self.disk_bw,
            3 => self.cpu_ops,
            4 => self.loopback_bw,
            _ => unreachable!(),
        }
    }

    /// All node ids in this cluster.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_indexing_is_dense_and_disjoint() {
        let spec = ClusterSpec {
            backplane_bw: Some(1e9),
            ..ClusterSpec::tiny(3)
        };
        let mut seen = std::collections::BTreeSet::new();
        for n in spec.all_nodes() {
            for k in [
                ResourceKind::Tx,
                ResourceKind::Rx,
                ResourceKind::Disk,
                ResourceKind::Cpu,
                ResourceKind::Loopback,
            ] {
                assert!(seen.insert(spec.resource(n, k)));
            }
        }
        assert!(seen.insert(spec.backplane_resource().unwrap()));
        assert_eq!(seen.len(), spec.resource_count());
        let max = seen.iter().copied().max().unwrap() as usize;
        assert_eq!(max + 1, spec.resource_count());
    }

    #[test]
    fn capacities_match_kinds() {
        let spec = ClusterSpec::tiny(2);
        let n = NodeId(1);
        assert_eq!(
            spec.capacity(spec.resource(n, ResourceKind::Tx)),
            spec.nic_bw
        );
        assert_eq!(
            spec.capacity(spec.resource(n, ResourceKind::Rx)),
            spec.nic_bw
        );
        assert_eq!(
            spec.capacity(spec.resource(n, ResourceKind::Disk)),
            spec.disk_bw
        );
        assert_eq!(
            spec.capacity(spec.resource(n, ResourceKind::Cpu)),
            spec.cpu_ops
        );
        assert_eq!(
            spec.capacity(spec.resource(n, ResourceKind::Loopback)),
            spec.loopback_bw
        );
    }

    #[test]
    fn orsay_is_270_nodes() {
        assert_eq!(ClusterSpec::orsay_270().nodes, 270);
    }

    #[test]
    fn validate_accepts_stock_specs() {
        assert_eq!(ClusterSpec::tiny(1).validate(), Ok(()));
        assert_eq!(ClusterSpec::orsay_270().validate(), Ok(()));
        assert_eq!(
            ClusterSpec {
                backplane_bw: Some(1e9),
                ..ClusterSpec::tiny(4)
            }
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_impossible_topologies() {
        assert_eq!(ClusterSpec::tiny(0).validate(), Err(SpecError::NoNodes));
        assert!(matches!(
            ClusterSpec {
                nic_bw: 0.0,
                ..ClusterSpec::tiny(2)
            }
            .validate(),
            Err(SpecError::BadCapacity {
                what: "nic bandwidth",
                ..
            })
        ));
        assert!(matches!(
            ClusterSpec {
                disk_bw: -1.0,
                ..ClusterSpec::tiny(2)
            }
            .validate(),
            Err(SpecError::BadCapacity { .. })
        ));
        assert!(matches!(
            ClusterSpec {
                cpu_ops: f64::NAN,
                ..ClusterSpec::tiny(2)
            }
            .validate(),
            Err(SpecError::BadCapacity { .. })
        ));
        assert!(matches!(
            ClusterSpec {
                backplane_bw: Some(f64::INFINITY),
                ..ClusterSpec::tiny(2)
            }
            .validate(),
            Err(SpecError::BadBackplane { .. })
        ));
        // Errors render a human-readable reason.
        let msg = ClusterSpec::tiny(0).validate().unwrap_err().to_string();
        assert!(msg.contains("zero nodes"), "{msg}");
    }
}
