//! `chaos` — seeded fault schedules over full workloads.
//!
//! The fault-tolerance counterpart to the paper's performance experiments:
//! instead of hand-written "kill provider 3, assert X" regressions, a
//! [`ChaosSchedule`] is *generated* from a seed — provider and meta-server
//! crash windows, version-manager pauses, reaper pauses, network delays,
//! drops and transient partitions — and injected into a complete MapReduce
//! job (wordcount, data join) or a concurrent BSFS churn workload running
//! on the deterministic fabric simulation. At quiescence (every fault
//! healed, reaper settled) the deployment is audited against global
//! `invariants`: provider books balance, no lease outstanding, versions
//! dense with none pending, every published version readable through a
//! fresh client, registry drained.
//!
//! Everything derives from the seed, so a failing run is a *coordinate*:
//! `(workload, seed)` replays byte-identically — same schedule digest, same
//! fabric counters, same first violation. Failure messages print the exact
//! replay command.

// The source disciplines as lints: see EXPERIMENTS.md, "Static analysis".
#![warn(
    unreachable_pub,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

mod invariants;
mod runner;
mod schedule;

pub use runner::{budget_for, run_chaos, run_quiet, RunReport, Workload};
pub use schedule::{ChaosAction, ChaosConfig, ChaosEvent, ChaosSchedule};
