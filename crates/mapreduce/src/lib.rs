//! `mapreduce` — a Hadoop-style Map/Reduce framework (paper §2.2) able to
//! run over any [`dfs::FileSystem`] (HDFS baseline or BSFS).
//!
//! Architecture mirrors Hadoop 0.20: a single [`tracker::MrCluster`] spawns
//! one *jobtracker* and one *tasktracker* per worker node; tasktrackers
//! heartbeat for work; map tasks are placed near their input blocks using
//! [`dfs::FileSystem::block_locations`]; reducers pull sorted map-output
//! partitions (shuffle), merge, reduce and commit their output.
//!
//! The paper's modification is captured by [`job::OutputMode`]:
//! [`job::OutputMode::PerReducerFiles`] is stock Hadoop (unique temp file +
//! rename per reducer → R output files), [`job::OutputMode::SharedAppendFile`]
//! is the modified framework (all reducers append to one shared file →
//! exactly 1 output file — requires a store with concurrent append).
//!
//! Jobs run on real records in live mode and on calibrated
//! [`api::GhostProfile`]s for cluster-scale simulations; the engine code is
//! identical in both cases.
//!
//! Intermediate data has one representation from the map collector to the
//! final reduce — the sorted run of [`record`] — and one group-and-reduce
//! loop ([`record::reduce_runs`]) behind the per-task combiner, the node
//! combine and the reducer. The user functions emit borrowed `(key, value)`
//! slices that live only for the call ([`Mapper::map_into`],
//! [`Reducer::reduce_into`]), so no record is owned anywhere on the way;
//! [`KV`] is left to the owned-record reference code and adapters. The
//! map-side collector stores a repeated record once with a count, and the
//! same loop reads the counts in place.
//!
//! Shuffle *bytes* (not just round-trips) are cut by a two-tier combine:
//! per-task combiners plus a node-local [`shuffle::NodeCombiner`] that
//! merges a node's whole map share before publication, while reducers
//! stream-fetch published segments before the map phase finishes (see
//! `shuffle.rs` and `tracker.rs` module docs). [`job::ShuffleTuning`]
//! holds the knobs.

// The source disciplines as lints: see EXPERIMENTS.md, "Static analysis".
#![warn(
    unreachable_pub,
    unsafe_code,
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

mod api;
mod job;
// The micro bench and the run-oracle and map-side rail tests reach `record` by path.
pub mod record;
// `benchmark/` names `shuffle::{SegmentKey, SegmentSource}`.
pub mod shuffle;
// `tests/run_oracle_proptest.rs` names `task::MERGE_FANIN`.
pub mod task;
mod tracker;

pub use api::{partition_for, GhostProfile, Mapper, Reducer, UserFns, KV};
pub use job::{JobConf, JobResult, OutputMode, ShuffleTuning};
pub use shuffle::{DeliverySpec, MapOutputRegistry, NodeCombiner, SegmentSource, ShuffleStats};
pub use task::{MapTaskSpec, ReduceTaskSpec};
pub use tracker::{JobHandle, MrCluster, MrConfig};
