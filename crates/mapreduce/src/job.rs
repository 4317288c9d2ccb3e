//! Job description, counters and results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dfs::DfsPath;
use fabric::{Ledger, NodeId, SimTime};
use parking_lot::Mutex;

use crate::api::{GhostProfile, UserFns};

/// How reducers write their output — the paper's experimental variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Original Hadoop (paper Figure 1): every reducer writes a uniquely
    /// named temporary file, then renames it into the output directory —
    /// the job ends with one file *per reducer*.
    PerReducerFiles,
    /// Modified Hadoop (paper Figure 2): every reducer appends its output
    /// to one shared file — requires a storage layer with concurrent
    /// append (BSFS).
    SharedAppendFile,
}

impl OutputMode {
    pub fn label(&self) -> &'static str {
        match self {
            OutputMode::PerReducerFiles => "per-reducer-files",
            OutputMode::SharedAppendFile => "shared-append",
        }
    }
}

/// Knobs of the node-local (tier-2) combine stage and the streaming
/// shuffle's flush cadence. Defaults buffer a node's whole map share and
/// flush once at node map-phase completion — maximum byte reduction, one
/// combined segment per (node, partition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleTuning {
    /// Buffer map outputs per node and combine across tasks before
    /// publication. Off = every map task publishes its own segments
    /// directly (pre-tier-2 behavior).
    pub node_combine: bool,
    /// Flush the node buffer early once this many tasks are buffered
    /// (`None` = only at node completion). Smaller values trade combine
    /// ratio for earlier reducer fetches.
    pub flush_tasks: Option<u32>,
    /// Flush the node buffer early once its buffered bytes reach this bound
    /// (`None` = unbounded). Caps buffer memory on huge map outputs.
    pub flush_bytes: Option<u64>,
}

impl Default for ShuffleTuning {
    fn default() -> Self {
        ShuffleTuning {
            node_combine: true,
            flush_tasks: None,
            flush_bytes: Some(64 * 1024 * 1024),
        }
    }
}

/// A Map/Reduce job description.
#[derive(Clone)]
pub struct JobConf {
    pub name: String,
    /// Input files (each is split at block granularity).
    pub inputs: Vec<DfsPath>,
    /// Output directory; `PerReducerFiles` creates `part-NNNNN` files in it,
    /// `SharedAppendFile` creates a single `result` file.
    pub output_dir: DfsPath,
    /// At least 1: a job without reducers is refused when it is planned.
    pub num_reducers: u32,
    pub output_mode: OutputMode,
    pub user: UserFns,
    /// When set, tasks process ghost payloads through this profile instead
    /// of running the user functions on real bytes (cluster-scale sims).
    pub ghost: Option<GhostProfile>,
    /// Node-local combine + streaming shuffle knobs.
    pub shuffle: ShuffleTuning,
}

#[expect(
    clippy::expect_used,
    reason = "the names are literals or `part-NNNNN`: non-empty, no '/', not a dot name — all `child` rejects"
)]
impl JobConf {
    /// Name of the single shared output file in [`OutputMode::SharedAppendFile`].
    pub(crate) fn shared_output_file(&self) -> DfsPath {
        self.output_dir.child("result").expect("valid name")
    }

    /// Final name of reducer `r`'s output in [`OutputMode::PerReducerFiles`].
    pub(crate) fn part_file(&self, r: u32) -> DfsPath {
        self.output_dir
            .child(&format!("part-{r:05}"))
            .expect("valid name")
    }

    /// Temporary attempt file for reducer `r` before the rename commit.
    pub(crate) fn temp_part_file(&self, r: u32) -> DfsPath {
        self.output_dir
            .child("_temporary")
            .and_then(|d| d.child(&format!("attempt-part-{r:05}")))
            .expect("valid name")
    }
}

/// Live counters of a running job (updated by tasks, read by the result).
#[derive(Debug, Default)]
pub struct JobCounters {
    pub map_input_bytes: AtomicU64,
    pub map_input_records: AtomicU64,
    pub map_output_bytes: AtomicU64,
    pub map_output_records: AtomicU64,
    pub shuffle_bytes: AtomicU64,
    pub reduce_input_records: AtomicU64,
    pub reduce_output_bytes: AtomicU64,
    pub reduce_output_records: AtomicU64,
    pub data_local_maps: AtomicU64,
    pub remote_maps: AtomicU64,
    /// Map tasks reported done to the tracker so far (decremented when a
    /// node's outputs are lost and its tasks re-queued). Reducers compare
    /// against the map total to detect fetches that beat the map phase.
    pub maps_completed: AtomicU64,
    /// Reducer fetches issued while the map phase was still running — the
    /// streaming-shuffle overlap the old reduce barrier made impossible.
    pub early_shuffle_fetches: AtomicU64,
    /// Combined (node, partition) segments published by the tier-2 stage.
    pub combined_segments: AtomicU64,
    /// Bytes the tier-2 combine removed before publication
    /// (buffered input bytes minus combined output bytes).
    pub combine_saved_bytes: AtomicU64,
    /// Every reducer's output commit, in completion order.
    pub commits: Mutex<Vec<Commit>>,
}

/// One reducer's output commit: the node it ran on, its virtual time and
/// what the reducer's ledger gained over it (empty in live mode).
pub(crate) type Commit = (NodeId, u64, Ledger);

impl JobCounters {
    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// Final report of a completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub name: String,
    pub job_id: u64,
    pub maps: u32,
    pub reduces: u32,
    pub started_ns: SimTime,
    pub finished_ns: SimTime,
    pub map_input_bytes: u64,
    pub map_output_bytes: u64,
    pub shuffle_bytes: u64,
    pub reduce_output_bytes: u64,
    pub data_local_maps: u64,
    pub remote_maps: u64,
    /// Combined (node, partition) segments the tier-2 stage published.
    pub combined_segments: u64,
    /// Bytes the node-local combine kept off the wire.
    pub combine_saved_bytes: u64,
    /// Reducer fetches issued before the map phase completed (streaming
    /// shuffle overlap; 0 under the old barrier).
    pub early_shuffle_fetches: u64,
    /// Files the job left in its output directory (the paper's file-count
    /// argument: R for original Hadoop, 1 for the append mode).
    pub output_files: u64,
    /// Every reducer's output commit, in completion order.
    pub commits: Vec<Commit>,
}

impl JobResult {
    /// Completion time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        fabric::ns_to_secs(self.finished_ns - self.started_ns)
    }
}

/// Runtime handle pairing a job's configuration with its live counters
/// (shared between the jobtracker and every task of the job).
pub struct JobCtx {
    pub id: u64,
    pub conf: JobConf,
    pub counters: Arc<JobCounters>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_user() -> UserFns {
        struct Nop;
        impl crate::api::Mapper for Nop {
            fn map_into(&self, _: &[u8], _: &[u8], _: &mut dyn FnMut(&[u8], &[u8])) {}
        }
        impl crate::api::Reducer for Nop {
            fn reduce_into(
                &self,
                _: &[u8],
                _: &mut dyn Iterator<Item = &[u8]>,
                _: &mut dyn FnMut(&[u8], &[u8]),
            ) {
            }
        }
        UserFns {
            mapper: Arc::new(Nop),
            reducer: Arc::new(Nop),
            combiner: None,
        }
    }

    #[test]
    fn output_paths() {
        let conf = JobConf {
            name: "t".into(),
            inputs: vec![],
            output_dir: DfsPath::new("/out").unwrap(),
            num_reducers: 3,
            output_mode: OutputMode::PerReducerFiles,
            user: dummy_user(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        };
        assert_eq!(conf.shared_output_file().as_str(), "/out/result");
        assert_eq!(conf.part_file(2).as_str(), "/out/part-00002");
        assert_eq!(
            conf.temp_part_file(2).as_str(),
            "/out/_temporary/attempt-part-00002"
        );
    }
}
