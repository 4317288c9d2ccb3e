//! `bench-suite` — harnesses that regenerate every figure of the paper's
//! evaluation (§4), plus ablations and the §5 pipeline extension.
//!
//! Each `benches/figN_*.rs` target is a plain `main` (no criterion harness)
//! that runs the experiment on the simulated 270-node Orsay cluster and
//! prints the series the paper plots; `benches/micro.rs` holds criterion
//! microbenchmarks of the core data structures. Absolute numbers depend on
//! the fluid network model, not the authors' 2009 testbed — the *shapes*
//! (who wins, what stays flat, where crossings happen) are the reproduction
//! targets; see EXPERIMENTS.md.
//!
//! Seven drivers also record their run into a committed `BENCH_*.json` and
//! are gated against it. A driver only *declares* that record — axis,
//! series, and per series one of three gates (exact / no worse than 1.25× /
//! record-only); recording, comparing and promoting is `baseline`'s one
//! job, so a new gated series is one declaration line.

mod baseline;

use std::sync::Arc;

pub use baseline::{Baseline, Gate};
use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::prelude::*;
use fabric::{ClusterSpec, Ledger};
use hdfs_sim::{HdfsConfig, HdfsLayout, HdfsSim};
use mapreduce::{JobConf, MrCluster, MrConfig, OutputMode, ShuffleTuning};
use parking_lot::Mutex;

/// One chunk, as in the paper: 64 MB (page size == HDFS chunk size, §4.1).
pub const CHUNK: u64 = 64 * 1024 * 1024;

/// MB/s from bytes and nanoseconds.
pub fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (bytes as f64 / 1.0e6) / (ns as f64 / 1e9)
}

/// Print a formatted results table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Deploy BSFS with the paper layout on a fresh 270-node simulated cluster.
pub(crate) fn paper_bsfs(seed: u64) -> (Fabric, Bsfs) {
    paper_bsfs_with(seed, BlobSeerConfig::paper())
}

/// Deploy BSFS with a custom BlobSeer config (ablations).
pub fn paper_bsfs_with(seed: u64, config: BlobSeerConfig) -> (Fabric, Bsfs) {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let fs = Bsfs::deploy_paper(&fx, config).expect("deploy bsfs");
    (fx, fs)
}

/// Deploy BSFS with a custom layout (metadata-provider ablation).
pub fn paper_bsfs_with_layout(seed: u64, config: BlobSeerConfig, layout: Layout) -> (Fabric, Bsfs) {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let fs = Bsfs::deploy(&fx, config, layout).expect("deploy bsfs");
    (fx, fs)
}

/// Clients are "launched on the same machines as the datanodes (data
/// providers, respectively)" (§4.2): nodes 23..270 in the paper layout.
pub(crate) fn provider_node(i: usize) -> NodeId {
    NodeId(23 + (i as u32 % 247))
}

pub fn path(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

/// The roles a client op's virtual time folds into (ROADMAP G(1)): the
/// client's own node first, then the services of the deployment. HDFS folds
/// its namenode into `namespace` and its datanodes into `providers`.
pub(crate) const ROLES: [&str; 7] = [
    "client",
    "vm",
    "pm",
    "namespace",
    "meta",
    "providers",
    "read_replicas",
];

/// Where a role of `ROLES` sits: its index, or `None` for a node no
/// service runs on.
pub type RoleOf = Box<dyn Fn(NodeId) -> Option<usize>>;

/// The BSFS deployment's roles.
pub(crate) fn bsfs_roles(layout: Layout) -> RoleOf {
    Box::new(move |n| {
        let services = [
            n == layout.vm,
            n == layout.pm,
            n == layout.namespace,
            layout.meta.contains(&n),
            layout.providers.contains(&n),
            layout.read_replicas.contains(&n),
        ];
        services.iter().position(|&is| is).map(|i| i + 1)
    })
}

/// The HDFS deployment's roles.
pub(crate) fn hdfs_roles(layout: HdfsLayout) -> RoleOf {
    // `namespace` and `providers` in [`ROLES`].
    Box::new(move |n| {
        if n == layout.namenode {
            Some(3)
        } else {
            layout.datanodes.contains(&n).then_some(5)
        }
    })
}

/// One client op: the node it ran on, its virtual time and what its proc's
/// ledger gained over it.
#[derive(Debug, Clone)]
pub struct Op {
    pub node: NodeId,
    pub ns: u64,
    pub ledger: Ledger,
}

impl Op {
    /// Run `f` as one op of `p`.
    pub fn time<T>(p: &Proc, f: impl FnOnce() -> T) -> (T, Op) {
        let (before, t0) = (p.ledger(), p.now());
        let out = f();
        let op = Op {
            node: p.node(),
            ns: p.now() - t0,
            ledger: p.ledger().since(&before),
        };
        (out, op)
    }
}

/// The clients' mean op time, in virtual ms, and its split by `ROLES`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleMs {
    pub op_ms: f64,
    pub ms: [f64; ROLES.len()],
}

impl RoleMs {
    /// Fold `ops` into roles, checking the ledger identity on the way: each
    /// op's buckets sum to its time exactly, so the roles sum to the mean
    /// op time up to rounding. A charge on the op's own node, or on a node
    /// no service runs on, is the client's. Sim mode only: a live ledger is
    /// empty.
    pub(crate) fn fold(ops: &[Op], role_of: &RoleOf) -> RoleMs {
        let mut out = RoleMs::default();
        if ops.is_empty() {
            return out;
        }
        let per_op = 1e6 * ops.len() as f64;
        for op in ops {
            assert_eq!(op.ledger.total(), op.ns, "ledger identity broken: {op:?}");
            out.op_ms += op.ns as f64 / per_op;
            for c in op.ledger.charges() {
                let role = if c.node == op.node {
                    None
                } else {
                    role_of(c.node)
                };
                out.ms[role.unwrap_or(0)] += c.ns as f64 / per_op;
            }
        }
        let sum: f64 = out.ms.iter().sum();
        assert!(
            (sum - out.op_ms).abs() <= 1e-9 * out.op_ms.max(1.0),
            "roles sum to {sum} ms, ops take {} ms",
            out.op_ms
        );
        out
    }

    /// The roles as table cells, `role ms` for the nonzero ones.
    pub fn cells(&self) -> String {
        let parts = ROLES.iter().zip(self.ms).filter(|(_, ms)| *ms >= 0.005);
        let parts: Vec<String> = parts.map(|(r, ms)| format!("{r} {ms:.1}")).collect();
        parts.join(", ")
    }

    /// Declare one record-only series per role in a section of its own.
    pub fn record<'a, P>(
        b: Baseline<'a, P>,
        section: &'static str,
        roles: impl Fn(&P) -> RoleMs,
    ) -> Baseline<'a, P> {
        let b = b
            .section(section)
            .series("op", Gate::Record, 2, |p| roles(p).op_ms);
        (ROLES.iter().enumerate()).fold(b, |b, (i, role)| {
            b.series(role, Gate::Record, 2, |p| roles(p).ms[i])
        })
    }
}

/// One Figure 3 measurement with the deterministic sim currencies the
/// control-plane baseline (`BENCH_fig3_appends.json`) records and diffs:
/// everything here is exact for a fixed seed — wall clock never enters.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Average per-client append throughput, MB/s (virtual time).
    pub per_client_mbps: f64,
    /// Virtual completion time of the whole run, seconds.
    pub sim_secs: f64,
    /// Wire transfers issued across the run (every message counts).
    pub transfers: u64,
    /// Metadata tree-node puts across the DHT.
    pub dht_puts: u64,
    /// Put wire round-trips that carried them (batching win visible).
    pub dht_put_rpcs: u64,
    /// Where the appends' virtual time went.
    pub roles: RoleMs,
}

/// Figure 3 point: N concurrent clients each append one 64 MB chunk to the
/// same BSFS file; the average per-client throughput plus the deterministic
/// currencies of the run.
pub fn fig3_point_detail(n_clients: u32, seed: u64) -> Fig3Point {
    let (fx, fs) = paper_bsfs(seed);
    let (per_client_mbps, roles) = fig3_point_on(&fx, &fs, n_clients);
    let (dht_puts, dht_put_rpcs) = fs
        .store()
        .metadata_dht()
        .servers()
        .iter()
        .fold((0, 0), |(n, r), s| {
            (n + s.op_counts().0, r + s.rpc_counts().0)
        });
    Fig3Point {
        per_client_mbps,
        sim_secs: fx.now() as f64 / 1e9,
        transfers: fx.stats().transfers,
        dht_puts,
        dht_put_rpcs,
        roles,
    }
}

/// Figure 3 body against an existing deployment (used by ablations too):
/// the mean per-client MB/s, and where the appends' time went.
pub fn fig3_point_on(fx: &Fabric, fs: &Bsfs, n_clients: u32) -> (f64, RoleMs) {
    let start_gate = fx.gate();
    let file = path("/bench/shared");
    {
        let fs2 = fs.clone();
        let g = start_gate.clone();
        let f2 = file.clone();
        fx.spawn(NodeId(23), "setup", move |p| {
            let mut w = fs2.create(p, &f2).unwrap();
            w.close(p).unwrap();
            g.set();
        });
    }
    let ops: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..n_clients {
        let fs2 = fs.clone();
        let g = start_gate.clone();
        let o2 = ops.clone();
        let f2 = file.clone();
        fx.spawn(
            provider_node(i as usize),
            format!("appender{i}"),
            move |p| {
                g.wait(p);
                let chunk = fs2.default_block_size();
                let (done, op) = Op::time(p, || fs2.append_all(p, &f2, Payload::ghost(chunk)));
                done.unwrap();
                o2.lock().push(op);
            },
        );
    }
    fx.run();
    let ops = ops.lock();
    assert_eq!(ops.len(), n_clients as usize);
    let chunk = fs.default_block_size();
    let mean = ops.iter().map(|op| mbps(chunk, op.ns)).sum::<f64>() / n_clients as f64;
    let roles = RoleMs::fold(&ops, &bsfs_roles(fs.store().layout().clone()));
    (mean, roles)
}

/// One mixed-workload measurement with the deterministic sim currencies the
/// storage-plane baseline (`BENCH_fig5_mixed.json`) records and diffs:
/// everything here is exact for a fixed seed — wall clock never enters.
#[derive(Debug, Clone, Copy)]
pub struct MixedPoint {
    /// Average per-reader throughput, MB/s (virtual time); 0 at readers=0.
    pub read_mbps: f64,
    /// Average per-appender throughput, MB/s (virtual time).
    pub append_mbps: f64,
    /// Virtual completion time of the whole run, seconds.
    pub sim_secs: f64,
    /// Wire transfers issued across the run (every message counts).
    pub transfers: u64,
    /// Provider put wire round-trips (the appenders' page streams).
    pub put_rpcs: u64,
    /// Provider get wire round-trips (the readers' batched fetches).
    pub get_rpcs: u64,
    /// Where the readers' and the appenders' time went; one op is a
    /// client's whole run of reads or of appends.
    pub read_roles: RoleMs,
    pub append_roles: RoleMs,
}

/// Figures 4/5 point: `readers` concurrent readers (each reading
/// `read_chunks` chunks of a pre-filled region) run against `appenders`
/// concurrent appenders (each appending `append_chunks` chunks); both average
/// throughputs plus the deterministic currencies of the run.
pub fn mixed_point_detail(
    readers: u32,
    read_chunks: u64,
    appenders: u32,
    append_chunks: u64,
    seed: u64,
) -> MixedPoint {
    let (fx, fs) = paper_bsfs(seed);
    let start_gate = fx.gate();
    let file = path("/bench/shared");
    let prefill_chunks = readers as u64 * read_chunks;
    {
        let fs2 = fs.clone();
        let g = start_gate.clone();
        let f2 = file.clone();
        fx.spawn(NodeId(23), "setup", move |p| {
            let mut w = fs2.create(p, &f2).unwrap();
            w.close(p).unwrap();
            // Pre-fill the disjoint regions the readers will scan,
            // 100 chunks per append (setup cost, not measured).
            let mut left = prefill_chunks;
            while left > 0 {
                let n = left.min(100);
                fs2.append_all(p, &f2, Payload::ghost(n * CHUNK)).unwrap();
                left -= n;
            }
            g.set();
        });
    }
    let read_ops: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
    let append_ops: Arc<Mutex<Vec<Op>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..readers {
        let fs2 = fs.clone();
        let g = start_gate.clone();
        let o2 = read_ops.clone();
        let f2 = file.clone();
        fx.spawn(provider_node(i as usize), format!("reader{i}"), move |p| {
            g.wait(p);
            let mut r = fs2.open(p, &f2).unwrap();
            let region_start = i as u64 * read_chunks * CHUNK;
            let ((), op) = Op::time(p, || {
                for c in 0..read_chunks {
                    let got = r.read_at(p, region_start + c * CHUNK, CHUNK).unwrap();
                    assert_eq!(got.len(), CHUNK);
                }
            });
            o2.lock().push(op);
        });
    }
    for i in 0..appenders {
        let fs2 = fs.clone();
        let g = start_gate.clone();
        let o2 = append_ops.clone();
        let f2 = file.clone();
        fx.spawn(
            provider_node(readers as usize + i as usize),
            format!("appender{i}"),
            move |p| {
                g.wait(p);
                let ((), op) = Op::time(p, || {
                    for _ in 0..append_chunks {
                        fs2.append_all(p, &f2, Payload::ghost(CHUNK)).unwrap();
                    }
                });
                o2.lock().push(op);
            },
        );
    }
    fx.run();
    let avg = |v: &[Op], chunks: u64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(|op| mbps(chunks * CHUNK, op.ns)).sum::<f64>() / v.len() as f64
    };
    let reads = read_ops.lock().clone();
    let appends = append_ops.lock().clone();
    let roles = bsfs_roles(fs.store().layout().clone());
    let (put_rpcs, get_rpcs) = fs.store().providers().iter().fold((0, 0), |(pu, ge), pr| {
        let (p_, g_) = pr.rpc_counts();
        (pu + p_, ge + g_)
    });
    MixedPoint {
        read_mbps: avg(&reads, read_chunks),
        append_mbps: avg(&appends, append_chunks),
        sim_secs: fx.now() as f64 / 1e9,
        transfers: fx.stats().transfers,
        put_rpcs,
        get_rpcs,
        read_roles: RoleMs::fold(&reads, &roles),
        append_roles: RoleMs::fold(&appends, &roles),
    }
}

/// Which storage system a Figure 6 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6System {
    /// Original Hadoop on HDFS: one output file per reducer.
    HdfsPerReducer,
    /// Modified Hadoop on BSFS: all reducers append to one shared file.
    BsfsSharedAppend,
}

/// One Figure 6 measurement, including the shuffle-wire observability the
/// data-plane batching work added.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    pub secs: f64,
    pub output_files: u64,
    pub shuffle_bytes: u64,
    /// Map-output segments reducers pulled. With the tier-2 node combine
    /// (the default) these are combined (node, partition) segments, bounded
    /// by map-nodes × reducers rather than maps × reducers.
    pub shuffle_segments: u64,
    /// Host-grouped wire transfers that carried them — one per
    /// (map-node, reducer) pair.
    pub shuffle_transfers: u64,
    /// Where the reducers' output commits spent their time.
    pub roles: RoleMs,
}

/// Figure 6 point: the data join application with ghost payloads calibrated
/// to the paper's volumes (2×320 MB in, ≈6.3 GB out), on the 270-node
/// cluster.
pub fn fig6_point(system: Fig6System, reducers: u32, seed: u64) -> Fig6Point {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let fs: Arc<dyn FileSystem> = match system {
        Fig6System::BsfsSharedAppend => {
            Arc::new(Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).expect("bsfs"))
        }
        Fig6System::HdfsPerReducer => Arc::new(HdfsSim::deploy_paper(&fx, HdfsConfig::paper())),
    };
    let role_of = match system {
        Fig6System::BsfsSharedAppend => bsfs_roles(Layout::paper(fx.spec())),
        Fig6System::HdfsPerReducer => hdfs_roles(HdfsLayout::paper(fx.spec())),
    };
    let mode = match system {
        Fig6System::BsfsSharedAppend => OutputMode::SharedAppendFile,
        Fig6System::HdfsPerReducer => OutputMode::PerReducerFiles,
    };
    let mr_cfg = MrConfig::paper(fx.spec()).with_heartbeat_ns(3_000 * fabric::MILLIS);
    let mr = MrCluster::start(&fx, fs.clone(), mr_cfg);
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(23), "driver", move |p| {
        // Two 320 MB input files (5 chunks each -> 10 map tasks, §4.3).
        for name in ["/in/a", "/in/b"] {
            let mut w = fs2.create(p, &path(name)).unwrap();
            w.write(p, Payload::ghost(320 * 1024 * 1024)).unwrap();
            w.close(p).unwrap();
        }
        let job = JobConf {
            name: format!("datajoin-{}", mode.label()),
            inputs: vec![path("/in/a"), path("/in/b")],
            output_dir: path("/out"),
            num_reducers: reducers,
            output_mode: mode,
            user: workloads::datajoin::user_fns(),
            ghost: Some(workloads::datajoin::fig6_profile()),
            shuffle: ShuffleTuning::default(),
        };
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    let result = driver.take().unwrap();
    assert_eq!(result.maps, 10, "fixed input must make 10 map tasks");
    let (shuffle_segments, shuffle_transfers) = mr.registry().fetch_counts();
    let commits: Vec<Op> = (result.commits.iter())
        .map(|(node, ns, ledger)| Op {
            node: *node,
            ns: *ns,
            ledger: ledger.clone(),
        })
        .collect();
    Fig6Point {
        secs: result.elapsed_secs(),
        output_files: result.output_files,
        shuffle_bytes: result.shuffle_bytes,
        shuffle_segments,
        shuffle_transfers,
        roles: RoleMs::fold(&commits, &role_of),
    }
}

/// Which workload profile a combiner-ablation point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineWorkload {
    /// Wordcount profile: has a combiner, heavy cross-task key repetition —
    /// the tier-2 combine's best case.
    Wordcount,
    /// Datajoin profile: no combiner (unique composite keys) — tier-2 only
    /// groups segments per node, bytes stay put.
    Datajoin,
    /// Datajoin's user functions under a shuffle-dominated profile: the
    /// regime where Hadoop's per-segment pulls hurt most ("Only Aggressive
    /// Elephants are Fast Elephants"). fig6_datajoin's stress point reports
    /// how far the tier-2 combine collapses the per-task segment population
    /// (maps x reducers naive pulls down to at most nodes x reducers).
    ShuffleStress,
}

impl CombineWorkload {
    /// The job name the point runs under.
    pub(crate) fn job_name(&self) -> &'static str {
        match self {
            CombineWorkload::Wordcount => "fig6-combiners-wordcount",
            CombineWorkload::Datajoin => "fig6-combiners-datajoin",
            CombineWorkload::ShuffleStress => "datajoin-shuffle-stress",
        }
    }
}

/// One combiner-ablation measurement (fig6_combiners baseline currencies).
#[derive(Debug, Clone, Copy)]
pub struct CombinePoint {
    /// Bytes reducers actually pulled over the wire.
    pub shuffle_bytes: u64,
    /// Bytes the tier-2 combine removed before publication.
    pub combine_saved_bytes: u64,
    /// Combined (node, partition) segments published.
    pub combined_segments: u64,
    /// Reducer fetches issued before the map phase completed.
    pub early_shuffle_fetches: u64,
    /// Virtual job completion seconds.
    pub secs: f64,
    /// Segments reducers pulled and host-grouped transfers that carried them.
    pub shuffle_segments: u64,
    pub shuffle_transfers: u64,
}

/// Combiner-ablation point at the fig6 stress shape: `maps` 1 MB-block map
/// tasks over `nodes` nodes (maps ≫ nodes), `reducers` reducers, ghost
/// payloads with the named workload's calibrated profile, under the given
/// [`ShuffleTuning`]. The fig6_combiners bench sweeps the tuning axis and
/// records bytes shuffled + job seconds for both workloads.
pub fn fig6_combiners_point(
    workload: CombineWorkload,
    nodes: u32,
    maps: u32,
    reducers: u32,
    shuffle: ShuffleTuning,
    seed: u64,
) -> CombinePoint {
    const BLOCK: u64 = 1024 * 1024;
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(nodes), seed);
    let fs: Arc<dyn FileSystem> = Arc::new(
        Bsfs::deploy(
            &fx,
            BlobSeerConfig::test_small(BLOCK),
            Layout::compact(fx.spec()),
        )
        .expect("bsfs"),
    );
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let (user, ghost) = match workload {
        CombineWorkload::Wordcount => (
            workloads::wordcount::user_fns(),
            workloads::wordcount::ghost_profile(),
        ),
        CombineWorkload::Datajoin => (
            workloads::datajoin::user_fns(),
            workloads::datajoin::fig6_profile(),
        ),
        CombineWorkload::ShuffleStress => (
            workloads::datajoin::user_fns(),
            mapreduce::GhostProfile {
                input_record_bytes: 32,
                map_output_ratio: 1.0,
                map_cpu_per_byte: 10.0, // shuffle-dominated on purpose
                reduce_output_ratio: 1.0,
                reduce_cpu_per_byte: 2.0,
                combine_output_ratio: 1.0, // inert: datajoin has no combiner
            },
        ),
    };
    let driver = fx.spawn(NodeId(0), "driver", move |p| {
        let mut w = fs2.create(p, &path("/in")).unwrap();
        w.write(p, Payload::ghost(u64::from(maps) * BLOCK)).unwrap();
        w.close(p).unwrap();
        let job = JobConf {
            name: workload.job_name().into(),
            inputs: vec![path("/in")],
            output_dir: path("/out"),
            num_reducers: reducers,
            output_mode: OutputMode::SharedAppendFile,
            user,
            ghost: Some(ghost),
            shuffle,
        };
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    let result = driver.take().unwrap();
    assert_eq!(result.maps, maps, "block count must fix the map count");
    let (shuffle_segments, shuffle_transfers) = mr.registry().fetch_counts();
    CombinePoint {
        shuffle_bytes: result.shuffle_bytes,
        combine_saved_bytes: result.combine_saved_bytes,
        combined_segments: result.combined_segments,
        early_shuffle_fetches: result.early_shuffle_fetches,
        secs: result.elapsed_secs(),
        shuffle_segments,
        shuffle_transfers,
    }
}

/// Shape check helper: max relative spread of a series (0 = perfectly flat).
pub fn relative_spread(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    if max <= 0.0 {
        0.0
    } else {
        (max - min) / max
    }
}
