//! Execution substrate for the BlobSeer/Hadoop reproduction.
//!
//! The paper evaluates on 270 nodes of the Grid'5000 Orsay cluster. That
//! testbed is not available here, so this crate provides the substitute: a
//! *process-oriented discrete-event simulator* in the style of SimGrid.
//! Distributed-system code (version managers, providers, namenodes, job
//! trackers, clients, ...) is written as ordinary concurrent Rust against the
//! [`Proc`] API; the same code runs in two modes:
//!
//! * **Sim** ([`Fabric::sim`]): every node has TX/RX NIC, disk, CPU and
//!   loopback resources with configurable capacities. Data movement
//!   ([`Proc::transfer`]), disk I/O and computation become *fluid flows* that
//!   share resources max-min fairly; a virtual clock advances through an
//!   event queue. Exactly one simulated process executes at a time and all
//!   wakeups are routed through the event queue, so simulations are
//!   deterministic and cheap: hundreds of simulated nodes moving tens of
//!   simulated gigabytes run in seconds on a laptop.
//! * **Live** ([`Fabric::live`]): processes run on real OS threads (reused
//!   from proc to proc, see `live`), transfers and disk charges are free
//!   (the real work on real bytes *is* the cost) and the clock is the wall
//!   clock. Functional tests and the runnable examples use this mode.
//!
//! The [`Payload`] type carries either real bytes (live mode / small sims) or
//! a *ghost* length (cluster-scale sims), so experiments that shuffle 6.3 GB
//! across 270 nodes do not need 6.3 GB of RAM while still exercising every
//! control-plane code path.
//!
//! Blocking primitives live in [`sync`]: unbounded MPMC [`sync::Queue`]s
//! (service inboxes, heartbeat channels) and one-shot broadcast
//! [`sync::Gate`]s (completion signals, shutdown flags). Each is one
//! implementation for both modes — one state behind one lock, with blocked
//! callers filed there as waiters and woken only after the lock is dropped.
//! The mode lives in the waiter alone: an engine event in sim mode, the
//! proc's own thread parker in live mode.

// The determinism and waiver lints of the production crates (EXPERIMENTS.md,
// "Static analysis"). The panic-path family is off: the engine fails loud by
// contract, a broken scheduler invariant invalidates every result.
#![warn(
    unreachable_pub,
    unsafe_code,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

mod handle;
mod ledger;
mod live;
mod net;
mod payload;
mod sim;
mod stats;
// Downstream crates and `sim_bit_identity` name `sync::{Gate, Queue}`.
pub mod sync;
mod time;
// Fabric's integration tests name `ResourceKind` and `RES_PER_NODE` by path.
pub mod topology;

mod parker;

pub use handle::{run_parallel, Fabric, JoinHandle, Pending, Proc, TaskFn};
pub use ledger::{Charge, Ledger, Waited};
pub use net::{NetFault, NetFaultKind, NodeSet};
pub use payload::Payload;
pub use stats::FabricStats;
pub use sync::Epoch;
pub use time::{ns_to_secs, secs_to_ns, SimTime, MICROS, MILLIS, SECS};
pub use topology::{ClusterSpec, NodeId, ResourceKind, SpecError};

/// The size, in bytes, of one control message: the request or the response
/// of a [`Proc::rpc`] that carries no payload. Every control exchange of
/// both storage stacks and the Map/Reduce heartbeat charges it, so BSFS and
/// HDFS pay the same control message by construction.
pub const CTL_MSG_BYTES: u64 = 128;

/// Convenience prelude for downstream crates. `benchmark/` names
/// `prelude::Gate`, so it stays until that package next changes.
pub mod prelude {
    pub use crate::sync::{Gate, Queue};
    pub use crate::{
        ns_to_secs, run_parallel, secs_to_ns, ClusterSpec, Epoch, Fabric, FabricStats, JoinHandle,
        NetFault, NetFaultKind, NodeId, NodeSet, Payload, Pending, Proc, SimTime, MICROS, MILLIS,
        SECS,
    };
}
