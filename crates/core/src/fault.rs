//! Role-typed fault vocabulary for a deployed [`crate::BlobSeer`].
//!
//! Faults address services by *role*, not by raw handle or index-into-some-
//! internal-vec: `inject(FaultTarget::Provider(3), Fault::Crash)` reads the
//! same whether it comes from a hand-written regression test or a seeded
//! chaos schedule, and a schedule rendered to text names exactly what it
//! broke. Injection is always paired with [`crate::BlobSeer::heal`]; both
//! are idempotent.
//!
//! Both resolve the target to its service shell; the stop fault each kind
//! models is the shell's `service::Kind` constant. Anything else is the
//! shell's typed [`crate::BlobError::UnsupportedFault`], never a panic:
//!
//! | target            | `Crash`                         | `Pause`                    | `CrashRestart`                      |
//! |-------------------|---------------------------------|----------------------------|-------------------------------------|
//! | `Provider(i)`     | rejects stores/fetches          | —                          | wipes memory; heal replays disk ¹   |
//! | `ReadReplica(i)`  | rejects fetches; reads fail over to primaries | —            | wipes memory; heal replays disk ¹ ² |
//! | `MetaServer(i)`   | rejects tree-node puts/gets     | —                          | wipes memory; heal replays disk ¹   |
//! | `VersionManager`  | —                               | requests stall until heal  | —                                   |
//! | `Reaper`          | sweeps skipped until heal       | sweeps skipped until heal  | —                                   |
//!
//! ¹ `CrashRestart` requires a persistent deployment (`persist_dir` set):
//! the process loses everything in memory and the paired heal restarts it
//! from its [`pstore`] directory. On a memory-only deployment there is no
//! disk to come back from, so injection answers `UnsupportedFault`. A
//! restart that fails (the directory cannot be opened or read back) leaves
//! the target wiped and down, and `heal` returns the error.
//!
//! ² A read replica holds no leases, so its heal is pure `recover()` —
//! there is no `reinstate` step; pages the wipe lost beyond disk are
//! re-copied by the next background sync round, and until then the stale
//! replica is skipped per-page (`has_page`), never served.
//!
//! Network-level faults (delays, drops, partitions) live one layer down, on
//! the fabric: see `fabric::NetFault`.

use std::fmt;

/// Which service of a deployment a fault addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The i-th data provider (deployment order, same index space as
    /// `BlobSeer::providers()`).
    Provider(usize),
    /// The i-th dedicated read replica (same index space as
    /// `BlobSeer::read_replicas()`). Losing one degrades read capacity,
    /// never durability — primaries keep every byte.
    ReadReplica(usize),
    /// The i-th metadata server of the DHT.
    MetaServer(usize),
    /// The centralized version manager.
    VersionManager,
    /// The background reaper service (lazy reaping from request paths is
    /// unaffected — this models the *daemon* dying, not the protocol).
    Reaper,
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Provider(i) => write!(f, "provider[{i}]"),
            FaultTarget::ReadReplica(i) => write!(f, "read-replica[{i}]"),
            FaultTarget::MetaServer(i) => write!(f, "meta-server[{i}]"),
            FaultTarget::VersionManager => write!(f, "version-manager"),
            FaultTarget::Reaper => write!(f, "reaper"),
        }
    }
}

/// What happens to the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The service fails: requests against it error until healed.
    Crash,
    /// The service freezes: requests against it stall until healed (a
    /// GC pause, an overloaded box — the process is alive but mute).
    Pause,
    /// The process dies and loses ALL in-memory state (index, counters,
    /// buffered unacknowledged writes); the paired heal restarts it from
    /// its durable store directory, replaying from the newest checkpoint.
    /// Only meaningful on persistent deployments — `Crash` merely makes a
    /// service unresponsive, `CrashRestart` proves its *recovery* path.
    CrashRestart,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash => write!(f, "crash"),
            Fault::Pause => write!(f, "pause"),
            Fault::CrashRestart => write!(f, "crash-restart"),
        }
    }
}
