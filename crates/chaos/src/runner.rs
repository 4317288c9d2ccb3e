//! Chaos runs: a full workload (MapReduce job or BSFS file churn) on a
//! simulated cluster while a seeded [`ChaosSchedule`] injects faults, then
//! a quiescence phase (heal everything, let the reaper settle the books)
//! and the global [`invariants`](crate::invariants) check.
//!
//! Everything is deterministic per `(workload, seed)`: the fabric, the
//! schedule, the workload's own randomness all derive from the seed, so a
//! failing run replays byte-identically from its report's replay line.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "chaos harness fails loudly on a broken deployment or invariant; errors are reserved for injected faults"
)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, FabricStats, NodeId, Payload, Proc, MILLIS};
use mapreduce::{JobConf, MrCluster, MrConfig, OutputMode};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::invariants;
use crate::schedule::{ChaosAction, ChaosConfig, ChaosSchedule};

/// The workloads a chaos schedule runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Wordcount MapReduce job (shared-append output), verified against
    /// `workloads::wordcount::reference_counts`.
    Wordcount,
    /// Data-join MapReduce job over last.fm-style inputs, verified against
    /// `workloads::datajoin::reference_join`.
    DataJoin,
    /// Concurrent BSFS file churn: private and shared append streams plus
    /// delete/recreate, verified for append atomicity and ordering.
    BsfsChurn,
    /// Reader storm on a replica-bearing layout: a small writer pool
    /// appends tagged blocks while a larger reader pool hammers full-file
    /// reads through the cached, replica-preferring path — with replica
    /// crash/crash-restart faults in the budget.
    ReaderStorm,
    /// Shuffle storm: a wordcount job with maps ≫ nodes, tier-2 node
    /// combining on and an eager flush cadence (maximally streaming
    /// shuffle), while map-output-loss faults wipe node spools mid-shuffle
    /// and force per-task re-runs of the buried tasks. Output must match
    /// the fault-free oracle exactly.
    ShuffleStorm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Wordcount,
        Workload::DataJoin,
        Workload::BsfsChurn,
        Workload::ReaderStorm,
        Workload::ShuffleStorm,
    ];

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Workload::Wordcount => "wordcount",
            Workload::DataJoin => "datajoin",
            Workload::BsfsChurn => "bsfs-churn",
            Workload::ReaderStorm => "reader-storm",
            Workload::ShuffleStorm => "shuffle-storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.name() == s)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a chaos run reports. Two runs with the same `(workload,
/// seed)` produce equal reports — the replay tests assert exactly that.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    /// Fingerprint of the generated schedule (`ChaosSchedule::digest`).
    pub schedule_digest: u64,
    /// Service fault injections in the schedule.
    pub injections: usize,
    /// Fabric counters at the end of the run (deterministic per seed).
    pub stats: FabricStats,
    /// Invariant violations plus workload-level correctness failures
    /// (empty = the run survived its faults).
    pub violations: Vec<String>,
    /// Operations that failed *during* the faulted window and were
    /// tolerated by the workload (expected under crashes/outages).
    pub tolerated_errors: u64,
}

impl RunReport {
    /// The exact command that replays this run, for failure messages.
    pub(crate) fn replay_command(&self) -> String {
        format!(
            "CHAOS_WORKLOAD={} CHAOS_SEED={} cargo test -q -p chaos --test chaos_sweep \
             replay_from_env -- --nocapture",
            self.workload, self.seed
        )
    }

    /// Panic with the seed and replay command if any violation was found.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "chaos run failed (workload={}, seed={}, schedule digest {:#x}, {} injections):\n  {}\n\
             replay with:\n  {}",
            self.workload,
            self.seed,
            self.schedule_digest,
            self.injections,
            self.violations.join("\n  "),
            self.replay_command()
        );
    }
}

/// Run `workload` under the seeded fault schedule. The schedule is scaled
/// to the workload's survivability envelope (see [`budget_for`]).
pub fn run_chaos(workload: Workload, seed: u64) -> RunReport {
    run(workload, seed, true)
}

/// Fault-free control run: same harness, same seed-derived workload, empty
/// schedule. Anything this reports is a workload or harness bug, not chaos.
pub fn run_quiet(workload: Workload, seed: u64) -> RunReport {
    run(workload, seed, false)
}

/// Cluster shape shared by all chaos workloads.
const NODES: u32 = 8;
const REPLICATION: usize = 2;
const WRITE_TIMEOUT_NS: u64 = 2_000 * MILLIS;
const REAPER_INTERVAL_NS: u64 = 50 * MILLIS;
const HORIZON_NS: u64 = 2_000 * MILLIS;

/// The fault budget for a workload. MapReduce jobs abort the whole run on a
/// task failure, so they only get *survivable* faults: short net faults,
/// `replication - 1` concurrent provider crashes, VM pauses, reaper pauses.
/// The BSFS churn workload tolerates per-operation errors, so it also gets
/// metadata-server outages.
pub fn budget_for(workload: Workload, layout: &Layout) -> ChaosConfig {
    let mut cfg = ChaosConfig::quiet(HORIZON_NS, NODES, layout.providers.len(), layout.meta.len());
    cfg.provider_crashes = 2;
    cfg.max_concurrent_provider_crashes = REPLICATION - 1;
    // Providers deploy persistently (see `run`), so full process deaths are
    // survivable too: while wiped the provider is down like a `Crash`, and
    // the heal must rebuild it byte-for-byte from its pstore directory.
    cfg.provider_restarts = 2;
    cfg.vm_pauses = 1;
    cfg.reaper_pauses = 1;
    cfg.net_faults = 4;
    cfg.max_service_fault_ns = 200 * MILLIS;
    // Net fault windows stay two orders of magnitude under the write
    // timeout so a stalled transfer can never expire a lease mid-write.
    cfg.max_net_fault_ns = 40 * MILLIS;
    if workload == Workload::BsfsChurn {
        cfg.meta_crashes = 2;
        cfg.meta_restarts = 1;
    }
    if workload == Workload::ReaderStorm {
        // The storm runs the replica-bearing layout: replica crashes and
        // crash-restarts only degrade read capacity (reads fail over to the
        // primaries), so they are survivable for any workload — the storm
        // is the one that actually keeps the replica read path hot.
        cfg.read_replicas = layout.read_replicas.len();
        cfg.replica_crashes = 2;
        cfg.replica_restarts = 2;
    }
    if workload == Workload::ShuffleStorm {
        // Wiping a node's shuffle spool is survivable by design: the
        // jobtracker re-queues the buried tasks and reducers wait for the
        // replacement deliveries.
        cfg.map_output_losses = 3;
    }
    cfg
}

/// Layout for a workload: the reader storm carves two dedicated read
/// replicas off the provider tail; every other workload runs the plain
/// compact layout.
fn layout_for(workload: Workload, spec: &ClusterSpec) -> Layout {
    let layout = Layout::compact(spec);
    if workload == Workload::ReaderStorm {
        layout.with_read_replicas_from_tail(2)
    } else {
        layout
    }
}

/// Serial number distinguishing concurrent runs of the same `(workload,
/// seed)` inside one test process (sweep vs. replay test threads), so their
/// pstore directories never collide. The path never feeds the simulation,
/// so reports stay deterministic.
static RUN_SERIAL: AtomicU64 = AtomicU64::new(0);

fn run(workload: Workload, seed: u64, faulted: bool) -> RunReport {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(NODES), seed);
    // Every chaos run deploys on the durable storage plane: pstore disk I/O
    // is wall-clock-only (never simulated time), so determinism per seed
    // holds, and `Fault::CrashRestart` becomes injectable everywhere. A
    // small checkpoint cadence makes recovery exercise checkpoint loading,
    // not just full-log replay.
    let persist_dir = std::env::temp_dir().join(format!(
        "blobseer-chaos-{}-{workload}-{seed}-{}",
        std::process::id(),
        RUN_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&persist_dir);
    let mut cfg = BlobSeerConfig::test_small(256)
        .with_replication(REPLICATION)
        .with_persist_dir(Some(persist_dir.clone()))
        .with_persist_checkpoint_bytes(Some(16 * 1024));
    cfg.timeouts.write_timeout_ns = WRITE_TIMEOUT_NS;
    cfg.timeouts.reaper_interval_ns = REAPER_INTERVAL_NS;
    let layout = layout_for(workload, fx.spec());
    let bsfs = Bsfs::deploy(&fx, cfg, layout).unwrap();
    let bs = bsfs.store().clone();

    let schedule = if faulted {
        ChaosSchedule::generate(&budget_for(workload, bs.layout()), seed)
    } else {
        ChaosSchedule {
            seed,
            events: Vec::new(),
        }
    };
    let digest = schedule.digest();
    let injections = schedule.injections();

    let reaper = bsfs.start_reaper(&fx);

    // The injector walks the schedule in virtual time; each event is a
    // direct control-plane flip, so it never blocks on a faulted service.
    let bs_inj = bs.clone();
    let sched = schedule.clone();
    let injector = fx.spawn(NodeId(0), "chaos-injector", move |p: &Proc| {
        for ev in &sched.events {
            let now = p.now();
            if ev.at_ns > now {
                p.sleep(ev.at_ns - now);
            }
            match &ev.action {
                ChaosAction::Inject(t, f) => bs_inj
                    .inject(*t, *f)
                    .expect("schedule generator emitted an unsupported fault"),
                ChaosAction::Heal(t) => bs_inj.heal(*t).expect("heal of a valid target"),
                ChaosAction::Net(nf) => p.fabric().inject_net_fault(nf.clone()),
                // Applied by the MapReduce workload driver, which owns the
                // MrCluster handle; nothing to flip at the storage plane.
                ChaosAction::LoseMapOutputs(_) => {}
            }
        }
        // Belt and braces: the generator already heals every window, but a
        // quiescence phase must never start with residual faults — and one
        // that cannot be healed is the violation to report, by target and
        // cause, before the quiescence audits trip over its consequences.
        let unhealed = bs_inj.heal_all();
        p.fabric().clear_net_faults();
        unhealed
            .into_iter()
            .map(|(target, cause)| format!("heal of {target} failed: {cause}"))
            .collect::<Vec<String>>()
    });

    let violations: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let tolerated = Arc::new(AtomicU64::new(0));

    let fs: Arc<dyn FileSystem> = Arc::new(bsfs.clone());
    let viols = violations.clone();
    let tol = tolerated.clone();
    // The map-output-loss events are the workload driver's to apply — only
    // it owns the MrCluster handle the wipe goes through.
    let losses: Vec<(u64, NodeId)> = schedule
        .events
        .iter()
        .filter_map(|e| match e.action {
            ChaosAction::LoseMapOutputs(n) => Some((e.at_ns, n)),
            _ => None,
        })
        .collect();
    let driver = fx.spawn(NodeId(0), "chaos-driver", move |p: &Proc| {
        match workload {
            Workload::Wordcount => drive_wordcount(p, &fs, seed, &viols),
            Workload::DataJoin => drive_datajoin(p, &fs, seed, &viols),
            Workload::BsfsChurn => drive_churn(p, &fs, seed, &viols, &tol),
            Workload::ReaderStorm => drive_reader_storm(p, &fs, seed, &viols, &tol),
            Workload::ShuffleStorm => drive_shuffle_storm(p, &fs, seed, &viols, &losses),
        }
        // Quiescence: everything is healed by the horizon; give the reaper
        // a full write-timeout plus slack to settle leases, pendings and
        // registry tombstones before the books are audited.
        let settle = HORIZON_NS.max(p.now()) + WRITE_TIMEOUT_NS + 10 * REAPER_INTERVAL_NS;
        let now = p.now();
        if settle > now {
            p.sleep(settle - now);
        }
        reaper.stop();
    });

    fx.run();
    let unhealed = injector.take().expect("injector finished");
    driver.take().expect("driver finished");

    // The fabric returning from `run` is itself invariant #6 (no parked
    // waiter). Now audit the healed deployment with fresh clients.
    let bs_chk = bs.clone();
    let checker = fx.spawn(NodeId(0), "invariant-checker", move |p: &Proc| {
        invariants::check(p, &bs_chk)
    });
    fx.run();
    let mut all = unhealed;
    all.extend(violations.lock().iter().cloned());
    all.extend(checker.take().expect("checker finished"));

    let report = RunReport {
        workload,
        seed,
        schedule_digest: digest,
        injections,
        stats: fx.stats(),
        violations: all,
        tolerated_errors: tolerated.load(Ordering::Relaxed),
    };
    drop(bsfs);
    let _ = std::fs::remove_dir_all(&persist_dir);
    report
}

fn d(s: &str) -> DfsPath {
    DfsPath::new(s).expect("static path")
}

/// Seed-derived wordcount corpus: a few hundred lines over a small
/// vocabulary, so reduce keys collide heavily (the interesting case).
#[expect(
    clippy::indexing_slicing,
    reason = "gen_range(0..VOCAB.len()) into VOCAB"
)]
fn corpus(seed: u64) -> String {
    const VOCAB: [&str; 12] = [
        "append", "blob", "chunk", "commit", "fault", "lease", "page", "quiesce", "reaper",
        "shard", "snapshot", "version",
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_97_05);
    let mut text = String::new();
    for _ in 0..300 {
        for i in 0..6 {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(VOCAB[rng.gen_range(0..VOCAB.len())]);
        }
        text.push('\n');
    }
    text
}

fn drive_wordcount(p: &Proc, fs: &Arc<dyn FileSystem>, seed: u64, viols: &Mutex<Vec<String>>) {
    let text = corpus(seed);
    let mr = MrCluster::start(p.fabric(), fs.clone(), MrConfig::compact(p.fabric().spec()));
    fs.write_file(
        p,
        &d("/in/corpus"),
        Payload::from_vec(text.clone().into_bytes()),
    )
    .expect("input write precedes the fault window");
    let job = JobConf {
        name: "chaos-wordcount".into(),
        inputs: vec![d("/in/corpus")],
        output_dir: d("/out"),
        num_reducers: 2,
        output_mode: OutputMode::SharedAppendFile,
        user: workloads::wordcount::user_fns(),
        ghost: None,
        shuffle: mapreduce::ShuffleTuning::default(),
    };
    let _ = mr.submit(job).wait(p);
    let out = fs
        .read_file(p, &d("/out/result"))
        .expect("job output readable");
    mr.shutdown();
    verify_wordcount_output(&text, out.bytes(), viols);
}

/// Compare a wordcount job's `word TAB count` output against the model
/// oracle (which is also, exactly, the fault-free run's content).
#[expect(
    clippy::indexing_slicing,
    reason = "`tab` is a position() inside `line`"
)]
fn verify_wordcount_output(text: &str, out: &[u8], viols: &Mutex<Vec<String>>) {
    let expected = workloads::wordcount::reference_counts(text);
    let mut got: HashMap<String, u64> = HashMap::new();
    for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let Some(tab) = line.iter().position(|&b| b == b'\t') else {
            viols.lock().push(format!(
                "wordcount output line without tab: {:?}",
                String::from_utf8_lossy(line)
            ));
            continue;
        };
        let word = String::from_utf8_lossy(&line[..tab]).into_owned();
        let count: u64 = match std::str::from_utf8(&line[tab + 1..]).unwrap_or("").parse() {
            Ok(c) => c,
            Err(_) => {
                viols
                    .lock()
                    .push(format!("wordcount count unparsable for {word:?}"));
                continue;
            }
        };
        if got.insert(word.clone(), count).is_some() {
            viols
                .lock()
                .push(format!("wordcount word {word:?} appears twice in output"));
        }
    }
    if got != expected {
        viols.lock().push(format!(
            "wordcount output disagrees with oracle: {} words counted, {} expected",
            got.len(),
            expected.len()
        ));
    }
}

/// Shuffle storm: wordcount over the seed corpus with maps ≫ nodes (the
/// 256-byte chaos blocks split it ~40 ways on 8 nodes), tier-2 combining on
/// an eager flush cadence so combined segments stream out mid-phase, while
/// the scheduled map-output losses wipe node spools mid-shuffle and force
/// per-task re-runs that bypass the buffer. The quiescence invariant is exact:
/// the surviving output must equal the fault-free oracle.
fn drive_shuffle_storm(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    seed: u64,
    viols: &Mutex<Vec<String>>,
    losses: &[(u64, NodeId)],
) {
    let text = corpus(seed);
    let mr = MrCluster::start(p.fabric(), fs.clone(), MrConfig::compact(p.fabric().spec()));
    fs.write_file(
        p,
        &d("/in/corpus"),
        Payload::from_vec(text.clone().into_bytes()),
    )
    .expect("input write precedes the fault window");
    // Losses fire on the schedule regardless of job progress: a wipe before
    // the first map or after the shuffle drained is a no-op by construction.
    let mr_loss = mr.clone();
    let losses2 = losses.to_vec();
    let losser = p
        .fabric()
        .spawn(NodeId(0), "map-output-losser", move |p: &Proc| {
            for (at, node) in losses2 {
                let now = p.now();
                if at > now {
                    p.sleep(at - now);
                }
                mr_loss.lose_map_outputs(node);
            }
        });
    let job = JobConf {
        name: "chaos-shuffle-storm".into(),
        inputs: vec![d("/in/corpus")],
        output_dir: d("/out"),
        num_reducers: 3,
        output_mode: OutputMode::SharedAppendFile,
        user: workloads::wordcount::user_fns(),
        ghost: None,
        shuffle: mapreduce::ShuffleTuning {
            node_combine: true,
            flush_tasks: Some(2), // eager: combined segments stream mid-phase
            flush_bytes: None,
        },
    };
    let result = mr.submit(job).wait(p);
    // Join before shutdown so no wipe races the inbox close.
    losser.join(p);
    let out = fs
        .read_file(p, &d("/out/result"))
        .expect("job output readable");
    mr.shutdown();
    if u64::from(result.maps) <= u64::from(NODES) {
        viols.lock().push(format!(
            "shuffle storm needs maps ({}) over nodes ({NODES}) to stress the spool",
            result.maps
        ));
    }
    verify_wordcount_output(&text, out.bytes(), viols);
}

fn lastfm_spec(seed: u64) -> workloads::lastfm::LastFmSpec {
    workloads::lastfm::LastFmSpec {
        records_a: 200,
        records_b: 160,
        distinct_keys: 40,
        overlap: 0.5,
        seed: seed ^ 0x1A_57_F0,
    }
}

fn drive_datajoin(p: &Proc, fs: &Arc<dyn FileSystem>, seed: u64, viols: &Mutex<Vec<String>>) {
    let spec = lastfm_spec(seed);
    let mr = MrCluster::start(p.fabric(), fs.clone(), MrConfig::compact(p.fabric().spec()));
    let (a, b) = workloads::lastfm::write_inputs(&**fs, p, &d("/in"), &spec)
        .expect("input writes precede the fault window");
    let job = JobConf {
        name: "chaos-datajoin".into(),
        inputs: vec![a, b],
        output_dir: d("/out"),
        num_reducers: 2,
        output_mode: OutputMode::SharedAppendFile,
        user: workloads::datajoin::user_fns(),
        ghost: None,
        shuffle: mapreduce::ShuffleTuning::default(),
    };
    let _ = mr.submit(job).wait(p);
    let out = fs
        .read_file(p, &d("/out/result"))
        .expect("job output readable");
    mr.shutdown();

    let mut lines: Vec<String> = out
        .bytes()
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .collect();
    lines.sort();
    let oracle = workloads::datajoin::reference_join(
        &workloads::lastfm::generate(&spec, 0),
        &workloads::lastfm::generate(&spec, 1),
    );
    if lines != oracle {
        viols.lock().push(format!(
            "datajoin output disagrees with oracle: {} lines joined, {} expected",
            lines.len(),
            oracle.len()
        ));
    }
}

const CHURN_WRITERS: u32 = 4;
const CHURN_APPENDS: u32 = 8;
const BLOCK: usize = 64;

/// Tag byte of writer `w`'s `k`-th append: unique across the whole run.
fn tag(w: u32, k: u32) -> u8 {
    (w * 16 + k) as u8
}

/// Concurrent BSFS churn under faults, tolerating per-operation errors:
/// each writer appends tagged uniform blocks to a private file and to one
/// shared file, reads verify nothing tore, writer 0 deletes and recreates
/// its private file mid-run. The paper's atomic-append claim, adversarial.
fn drive_churn(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    _seed: u64,
    viols: &Mutex<Vec<String>>,
    tolerated: &Arc<AtomicU64>,
) {
    let mut handles = Vec::new();
    for w in 0..CHURN_WRITERS {
        let fs = fs.clone();
        let tol = tolerated.clone();
        let viols_w: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let vw = viols_w.clone();
        let h = p.fabric().spawn(
            NodeId(1 + w % (NODES - 1)),
            format!("churn-writer-{w}"),
            move |p: &Proc| {
                let private = d(&format!("/chaos/private-{w}"));
                let shared = d("/chaos/shared");
                let step = HORIZON_NS / (CHURN_APPENDS as u64 + 2);
                for k in 0..CHURN_APPENDS {
                    // Spread appends across the fault horizon, staggered
                    // per writer so injections land mid-operation.
                    p.sleep(step / 2 + (w as u64 * step) / CHURN_WRITERS as u64);
                    for (path, is_shared) in [(&private, false), (&shared, true)] {
                        // A failed create is tolerated: either the create
                        // race on the shared file was lost or a namespace
                        // op hit a faulted service.
                        if !fs.exists(p, path) && fs.write_file(p, path, Payload::empty()).is_err()
                        {
                            tol.fetch_add(1, Ordering::Relaxed);
                        }
                        let block = Payload::from_vec(vec![tag(w, k); BLOCK]);
                        if fs.append_all(p, path, block).is_err() {
                            tol.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        if k % 3 == 2 && !is_shared {
                            match fs.read_file(p, path) {
                                Ok(data) => {
                                    check_blocks(&vw, path, data.bytes(), Some(w));
                                }
                                Err(_) => {
                                    tol.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    if w == 0 && k == CHURN_APPENDS / 2 {
                        // Delete mid-run; the file is recreated on the next
                        // iteration, exercising registry retire + GC.
                        if fs.delete(p, &private, false).is_err() {
                            tol.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                p.sleep(HORIZON_NS.saturating_sub(p.now()) + 50 * MILLIS);
                // Final audit, after every fault healed: both files must be
                // readable and well-formed.
                for (path, writer) in [(&private, Some(w)), (&shared, None)] {
                    match fs.read_file(p, path) {
                        Ok(data) => check_blocks(&vw, path, data.bytes(), writer),
                        Err(e) => vw
                            .lock()
                            .push(format!("churn: {path} unreadable after heal: {e}")),
                    }
                }
            },
        );
        handles.push((h, viols_w));
    }
    for (h, vw) in handles {
        h.join(p);
        viols.lock().extend(vw.lock().iter().cloned());
    }
}

const STORM_WRITERS: u32 = 2;
const STORM_READERS: u32 = 6;
const STORM_ROUNDS: u64 = 12;

/// Reader storm: `STORM_WRITERS` writers append tagged blocks to one file
/// each during the first half of the horizon, while `STORM_READERS` readers
/// loop full-file reads across the whole horizon — the cached,
/// replica-preferring read path under replica crashes and restarts. Reads
/// that fail mid-storm are tolerated; every successful read must parse as
/// well-formed tagged blocks of the owning writer, and a post-heal audit
/// requires every file readable.
fn drive_reader_storm(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    _seed: u64,
    viols: &Mutex<Vec<String>>,
    tolerated: &Arc<AtomicU64>,
) {
    let mut handles = Vec::new();
    for w in 0..STORM_WRITERS {
        let fs = fs.clone();
        let tol = tolerated.clone();
        let h = p.fabric().spawn(
            NodeId(1 + w % (NODES - 1)),
            format!("storm-writer-{w}"),
            move |p: &Proc| {
                let path = d(&format!("/storm/file-{w}"));
                let step = (HORIZON_NS / 2) / (CHURN_APPENDS as u64 + 1);
                for k in 0..CHURN_APPENDS {
                    p.sleep(step);
                    // A failed create/append under a faulted service is
                    // tolerated; the create retries next iteration.
                    if !fs.exists(p, &path) && fs.write_file(p, &path, Payload::empty()).is_err() {
                        tol.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let block = Payload::from_vec(vec![tag(w, k); BLOCK]);
                    if fs.append_all(p, &path, block).is_err() {
                        tol.fetch_add(1, Ordering::Relaxed);
                    }
                }
            },
        );
        handles.push((h, Arc::new(Mutex::new(Vec::new()))));
    }
    for r in 0..STORM_READERS {
        let fs = fs.clone();
        let tol = tolerated.clone();
        let vw: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let vw2 = vw.clone();
        let h = p.fabric().spawn(
            NodeId(1 + r % (NODES - 1)),
            format!("storm-reader-{r}"),
            move |p: &Proc| {
                let step = HORIZON_NS / (STORM_ROUNDS + 2);
                for i in 0..STORM_ROUNDS {
                    // Stagger readers so fault windows land mid-read for
                    // some of them every round.
                    p.sleep(step / 2 + (r as u64 * step) / (2 * STORM_READERS as u64));
                    let w = (i as u32 + r) % STORM_WRITERS;
                    let path = d(&format!("/storm/file-{w}"));
                    if !fs.exists(p, &path) {
                        continue; // writer hasn't created it yet
                    }
                    match fs.read_file(p, &path) {
                        Ok(data) => check_blocks(&vw2, &path, data.bytes(), Some(w)),
                        Err(_) => {
                            tol.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Post-heal audit: every storm file that exists must be
                // readable and well-formed (a file can only be missing if
                // every one of its writer's creates was tolerated away).
                p.sleep(HORIZON_NS.saturating_sub(p.now()) + 50 * MILLIS);
                for w in 0..STORM_WRITERS {
                    let path = d(&format!("/storm/file-{w}"));
                    if !fs.exists(p, &path) {
                        continue;
                    }
                    match fs.read_file(p, &path) {
                        Ok(data) => check_blocks(&vw2, &path, data.bytes(), Some(w)),
                        Err(e) => vw2
                            .lock()
                            .push(format!("storm: {path} unreadable after heal: {e}")),
                    }
                }
            },
        );
        handles.push((h, vw));
    }
    for (h, vw) in handles {
        h.join(p);
        viols.lock().extend(vw.lock().iter().cloned());
    }
}

/// Verify a churn file's bytes: length a multiple of the block size (no
/// torn append), every block uniform (no interleaving inside a block), tags
/// valid, per-writer sequence numbers strictly increasing (publication
/// order), no duplicate blocks.
#[expect(
    clippy::indexing_slicing,
    reason = "chunks() never yields an empty block"
)]
fn check_blocks(
    viols: &Mutex<Vec<String>>,
    path: &DfsPath,
    bytes: &[u8],
    only_writer: Option<u32>,
) {
    if !bytes.len().is_multiple_of(BLOCK) {
        viols.lock().push(format!(
            "churn: {path} length {} is not a multiple of the {BLOCK}-byte block (torn append)",
            bytes.len()
        ));
        return;
    }
    let mut last_k: HashMap<u32, u32> = HashMap::new();
    let mut seen: Vec<u8> = Vec::new();
    for (i, block) in bytes.chunks(BLOCK).enumerate() {
        let t = block[0];
        if block.iter().any(|&b| b != t) {
            viols.lock().push(format!(
                "churn: {path} block {i} is not uniform (torn append)"
            ));
            continue;
        }
        let (w, k) = (t as u32 / 16, t as u32 % 16);
        if w >= CHURN_WRITERS || k >= CHURN_APPENDS {
            viols
                .lock()
                .push(format!("churn: {path} block {i} has invalid tag {t:#x}"));
            continue;
        }
        if let Some(ow) = only_writer {
            if w != ow {
                viols.lock().push(format!(
                    "churn: {path} block {i} written by writer {w}, expected only {ow}"
                ));
            }
        }
        if seen.contains(&t) {
            viols.lock().push(format!(
                "churn: {path} block {i} duplicates append (w={w}, k={k})"
            ));
        }
        seen.push(t);
        if let Some(&prev) = last_k.get(&w) {
            if k <= prev {
                viols.lock().push(format!(
                    "churn: {path} writer {w}'s appends out of order (k={k} after k={prev})"
                ));
            }
        }
        last_k.insert(w, k);
    }
}

#[cfg(test)]
mod tests {
    use blobseer::{Fault, FaultTarget};

    use super::*;

    /// The sweep's own budgets must actually draw crash-restart windows —
    /// otherwise the recovery path would pass the sweep vacuously.
    #[test]
    fn runner_budgets_draw_crash_restarts() {
        let spec = ClusterSpec::tiny(NODES);
        let (mut provider_restarts, mut meta_restarts, mut replica_restarts) =
            (0usize, 0usize, 0usize);
        for seed in 0..16 {
            for w in Workload::ALL {
                let layout = layout_for(w, &spec);
                let sched = ChaosSchedule::generate(&budget_for(w, &layout), seed);
                for ev in &sched.events {
                    if let ChaosAction::Inject(t, Fault::CrashRestart) = ev.action {
                        match t {
                            FaultTarget::Provider(_) => provider_restarts += 1,
                            FaultTarget::MetaServer(_) => {
                                assert_eq!(w, Workload::BsfsChurn, "meta restarts are churn-only");
                                meta_restarts += 1;
                            }
                            FaultTarget::ReadReplica(_) => {
                                assert_eq!(
                                    w,
                                    Workload::ReaderStorm,
                                    "replica restarts are storm-only"
                                );
                                replica_restarts += 1;
                            }
                            t => panic!("crash-restart drawn for unsupported target {t}"),
                        }
                    }
                }
            }
        }
        assert!(provider_restarts > 0, "no provider crash-restart drawn");
        assert!(meta_restarts > 0, "no meta-server crash-restart drawn");
        assert!(replica_restarts > 0, "no read-replica crash-restart drawn");
    }
}
