//! The two MapReduce workloads: `live_wordcount` on real bytes over a
//! persisting BSFS, `sim_datajoin` (Figure 6) on ghost payloads over the
//! simulated 270-node cluster. Both write their output the paper's way:
//! every reducer appends to ONE shared file.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use mapreduce::{JobConf, JobResult, MrCluster, MrConfig, OutputMode, ShuffleTuning};

use crate::gen::{Rng, ZipfText};
use crate::harness::{ClientLog, Counters, Round, Workload};
use crate::live::{store_counters, store_gauges, MIB};
use crate::sim::paper_bsfs;
use crate::sys;

fn path(s: &str) -> DfsPath {
    DfsPath::new(s).expect("valid path")
}

/// Job counters, cumulative over the run, by per-layer metric name.
#[derive(Default)]
struct JobTotals(Counters);

impl JobTotals {
    fn add(&mut self, r: &JobResult) {
        for (k, v) in [
            ("mapreduce.map_output_bytes", r.map_output_bytes),
            ("mapreduce.shuffle_bytes", r.shuffle_bytes),
            ("mapreduce.combine_saved_bytes", r.combine_saved_bytes),
            ("mapreduce.combined_segments", r.combined_segments),
            ("mapreduce.early_shuffle_fetches", r.early_shuffle_fetches),
            ("mapreduce.data_local_maps", r.data_local_maps),
            ("mapreduce.remote_maps", r.remote_maps),
        ] {
            *self.0.entry(k).or_insert(0.0) += v as f64;
        }
    }

    /// The deployment's counters with the job totals and shuffle-registry
    /// counts merged in.
    fn merged(&self, mut c: Counters, mr: Option<&MrCluster>) -> Counters {
        c.extend(self.0.iter().map(|(k, v)| (*k, *v)));
        if let Some(mr) = mr {
            let (fetches, rpcs) = mr.registry().fetch_counts();
            c.insert("shuffle.fetches", fetches as f64);
            c.insert("shuffle.fetch_rpcs", rpcs as f64);
        }
        c
    }
}

/// Run `f` as a process of a live fabric whose services keep running
/// (`Fabric::run` would wait for them too).
fn call_live<T: Send + 'static>(
    fx: &Fabric,
    name: &str,
    f: impl FnOnce(&Proc) -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    fx.spawn(NodeId(0), name, move |p| {
        let _ = tx.send(f(p));
    });
    rx.recv()
        .unwrap_or_else(|_| panic!("live process '{name}' died"))
}

struct LiveState {
    fx: Fabric,
    fs: Arc<Bsfs>,
    mr: MrCluster,
    dir: PathBuf,
    jobs: u64,
    last_output: Option<DfsPath>,
}

pub struct LiveWordcount {
    name: &'static str,
    seed: u64,
    text: Arc<String>,
    warm_text: Arc<String>,
    /// `reference_counts(text)`, computed at the first check.
    reference: Option<HashMap<String, u64>>,
    state: Option<LiveState>,
    totals: JobTotals,
}

/// BSFS block (BlobSeer page) size: one map task per block.
const BLOCK: u64 = MIB;
const VOCABULARY: usize = 50_000;
const REDUCERS: u32 = 2;

impl LiveWordcount {
    pub fn new(name: &'static str, seed: u64, quick: bool) -> LiveWordcount {
        let input = (if quick { MIB / 2 } else { 8 * MIB }) as usize;
        let zipf = ZipfText::new(VOCABULARY);
        let mut rng = Rng::lane(seed, 7);
        LiveWordcount {
            name,
            seed,
            text: Arc::new(zipf.generate(&mut rng, input)),
            warm_text: Arc::new(zipf.generate(&mut rng, input / 20)),
            reference: None,
            state: None,
            totals: JobTotals::default(),
        }
    }

    fn job(input: &str, output: &DfsPath) -> JobConf {
        JobConf {
            name: "wordcount".into(),
            inputs: vec![path(input)],
            output_dir: output.clone(),
            num_reducers: REDUCERS,
            output_mode: OutputMode::SharedAppendFile,
            user: workloads::wordcount::user_fns(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        }
    }

    /// Submit, wait, and time one job from a driver process.
    fn run_job(st: &LiveState, input: &'static str, output: DfsPath) -> (JobResult, u64, u64) {
        let mr = st.mr.clone();
        call_live(&st.fx, "driver", move |p| {
            let t0 = p.now();
            let result = mr.submit(Self::job(input, &output)).wait(p);
            (result, t0, p.now())
        })
    }
}

impl Workload for LiveWordcount {
    fn setup(&mut self) {
        let dir = sys::fresh_work_dir(self.name);
        let fx = Fabric::live_seeded(ClusterSpec::tiny(2), self.seed);
        let fs = Arc::new(
            Bsfs::deploy(
                &fx,
                BlobSeerConfig::test_small(BLOCK).with_persist_dir(Some(dir.clone())),
                Layout::compact(fx.spec()),
            )
            .expect("deploy bsfs"),
        );
        {
            let (fs, text, warm) = (fs.clone(), self.text.clone(), self.warm_text.clone());
            call_live(&fx, "load", move |p| {
                for (name, data) in [("/in/text", text), ("/in/warm", warm)] {
                    fs.write_file(p, &path(name), Payload::from_vec(data.as_bytes().to_vec()))
                        .expect("write input");
                }
            });
        }
        // One map and one reduce slot per node: 2 of each on this 2-core box.
        let mr = MrCluster::start(
            &fx,
            fs.clone(),
            MrConfig::compact(fx.spec()).with_slots(1, 1),
        );
        let st = LiveState {
            fx,
            fs,
            mr,
            dir,
            jobs: 0,
            last_output: None,
        };
        // Untimed warm-up: the same job on 5 % of the input.
        let (warm, _, _) = Self::run_job(&st, "/in/warm", path("/warm"));
        assert_eq!(warm.output_files, 1, "warm-up job output");
        self.state = Some(st);
    }

    fn round(&mut self) -> Round {
        let st = self.state.as_mut().expect("set up");
        st.jobs += 1;
        let output = path(&format!("/out{}", st.jobs));
        let t = Instant::now();
        let (result, t0, t1) = Self::run_job(st, "/in/text", output.clone());
        let wall_s = t.elapsed().as_secs_f64();
        self.totals.add(&result);
        st.last_output = Some(output);
        let mut log = ClientLog::new("driver", true, 1);
        log.record(t0, t1, self.text.len() as u64, result.output_files == 1);
        Round {
            wall_s,
            clients: vec![log],
        }
    }

    fn fresh_each_round(&self) -> bool {
        true
    }

    fn check(&mut self) -> Result<(), String> {
        let text = self.text.clone();
        let reference = self
            .reference
            .get_or_insert_with(|| workloads::wordcount::reference_counts(&text));
        let st = self.state.as_ref().expect("set up");
        let output = st.last_output.clone().expect("a job ran");
        let fs = st.fs.clone();
        let out = call_live(&st.fx, "check", move |p| {
            let files = fs.count_files(p, &output)?;
            let data = fs.read_file(p, &output.child("result").expect("valid name"))?;
            Ok::<_, dfs::FsError>((files, data))
        })
        .map_err(|e| format!("reading the job output: {e}"))?;
        let (files, data) = out;
        if files != 1 {
            return Err(format!("{files} output files, expected 1"));
        }
        let text = std::str::from_utf8(data.bytes()).map_err(|e| e.to_string())?;
        let mut seen = 0usize;
        for line in text.lines() {
            let (word, count) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed output line {line:?}"))?;
            if reference.get(word).map(u64::to_string).as_deref() != Some(count) {
                return Err(format!(
                    "count of {word:?} is {count}, reference says {:?}",
                    reference.get(word)
                ));
            }
            seen += 1;
        }
        if seen != reference.len() {
            return Err(format!(
                "{seen} words in the output, reference has {}",
                reference.len()
            ));
        }
        Ok(())
    }

    fn space_amp(&self) -> f64 {
        let st = self.state.as_ref().expect("set up");
        // User bytes written: both inputs plus what the jobs appended.
        let outputs = st.fs.store().total_stored_bytes();
        sys::dir_bytes(&st.dir) as f64 / outputs.max(1) as f64
    }

    fn counters(&self) -> Counters {
        let st = self.state.as_ref().expect("set up");
        let mut c = store_counters(&st.fx, st.fs.store(), Some(&st.dir));
        c.insert(
            "client.user_bytes_written",
            st.fs.store().total_stored_bytes() as f64,
        );
        self.totals.merged(c, Some(&st.mr))
    }

    fn gauges(&self) -> Counters {
        store_gauges(self.state.as_ref().expect("set up").fs.store(), &[])
    }

    fn teardown(&mut self) {
        if let Some(st) = self.state.take() {
            st.mr.shutdown();
            st.fx.run();
            let _ = std::fs::remove_dir_all(&st.dir);
        }
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("input_bytes", self.text.len() as u64),
            ("block_bytes", BLOCK),
            ("vocabulary", VOCABULARY as u64),
            ("reducers", REDUCERS as u64),
            ("nodes", 2),
        ]
    }
}

/// Figure 6: two 320 MB Last.fm-like inputs (5 chunks each, 10 maps).
const DATAJOIN_INPUT: u64 = 320 * 1024 * 1024;

pub struct SimDatajoin {
    seed: u64,
    reducers: u32,
    state: Option<(Fabric, Arc<Bsfs>, Option<MrCluster>)>,
    result: Option<JobResult>,
    totals: JobTotals,
    wall_s: f64,
}

impl SimDatajoin {
    pub fn new(seed: u64, quick: bool) -> SimDatajoin {
        SimDatajoin {
            seed,
            reducers: if quick { 4 } else { 200 },
            state: None,
            result: None,
            totals: JobTotals::default(),
            wall_s: 0.0,
        }
    }

    /// The Figure 6 driver's run (`bench_suite::fig6_point`, BSFS side):
    /// load both inputs, submit the join, wait. Returns the result with the
    /// driver's submit and completion times in virtual ns.
    fn run_job(&self) -> (MrCluster, JobResult, u64, u64) {
        let (fx, fs, _) = self.state.as_ref().expect("set up");
        let reducers = self.reducers;
        // The seeded input: the driver arrives within the first virtual
        // microsecond. (Ghost payloads have no bytes to seed, and anything
        // coarser — input sizes jittered by up to 1 MB were tried — flips
        // scheduling decisions: peak RSS then read 87 or 104 MB by seed.)
        let arrival_ns = Rng::lane(self.seed, 300).below(1000);
        let mr_cfg = MrConfig::paper(fx.spec()).with_heartbeat_ns(3_000 * fabric::MILLIS);
        let mr = MrCluster::start(fx, fs.clone(), mr_cfg);
        let (fs2, mr2) = (fs.clone(), mr.clone());
        let driver = fx.spawn(NodeId(23), "driver", move |p| {
            p.sleep(arrival_ns);
            for name in ["/in/a", "/in/b"] {
                fs2.write_file(p, &path(name), Payload::ghost(DATAJOIN_INPUT))
                    .expect("write input");
            }
            let job = JobConf {
                name: "datajoin-shared-append".into(),
                inputs: vec![path("/in/a"), path("/in/b")],
                output_dir: path("/out"),
                num_reducers: reducers,
                output_mode: OutputMode::SharedAppendFile,
                user: workloads::datajoin::user_fns(),
                ghost: Some(workloads::datajoin::fig6_profile()),
                shuffle: ShuffleTuning::default(),
            };
            let t0 = p.now();
            let result = mr2.submit(job).wait(p);
            let t1 = p.now();
            mr2.shutdown();
            (result, t0, t1)
        });
        fx.run();
        let (result, t0, t1) = driver.take().expect("driver finished");
        (mr, result, t0, t1)
    }
}

impl Workload for SimDatajoin {
    fn setup(&mut self) {
        // A join at 5 % of the reducers costs as much host time as the whole
        // one (tasktracker heartbeats over the same virtual minutes dominate),
        // so the host warm-up is `sim_append_246`'s: a few ghost appends on
        // a fabric of its own.
        crate::sim::warm_up(self.seed, 12);
        let (fx, fs) = paper_bsfs(self.seed);
        self.state = Some((fx, Arc::new(fs), None));
    }

    fn round(&mut self) -> Round {
        let t = Instant::now();
        let (mr, result, t0, t1) = self.run_job();
        let wall_s = t.elapsed().as_secs_f64();
        self.wall_s += wall_s;
        self.totals.add(&result);
        self.state.as_mut().expect("set up").2 = Some(mr);
        let mut log = ClientLog::new("driver", true, 1);
        log.record(t0, t1, 2 * DATAJOIN_INPUT, result.maps == 10);
        self.result = Some(result);
        Round {
            wall_s,
            clients: vec![log],
        }
    }

    fn fresh_each_round(&self) -> bool {
        true
    }

    fn check(&mut self) -> Result<(), String> {
        let (fx, fs, _) = self.state.as_ref().expect("set up");
        let result = self.result.as_ref().expect("a job ran");
        if result.output_files != 1 {
            return Err(format!("{} output files, expected 1", result.output_files));
        }
        let fs2 = fs.clone();
        let h = fx.spawn(NodeId(23), "check", move |p| {
            let out = path("/out/result");
            let blob = fs2.blob_of(p, &out).expect("output file exists");
            (
                fs2.status(p, &out).expect("status").len,
                fs2.store().client().latest(p, blob).expect("latest"),
            )
        });
        fx.run();
        let (len, versions) = h.take().expect("check finished");
        if len != result.reduce_output_bytes || len == 0 {
            return Err(format!(
                "output file holds {len} bytes, reducers wrote {}",
                result.reduce_output_bytes
            ));
        }
        // Every reducer commits its whole partition as one atomic append.
        if versions != self.reducers as u64 {
            return Err(format!(
                "output file has {versions} versions, expected one per reducer ({})",
                self.reducers
            ));
        }
        Ok(())
    }

    fn space_amp(&self) -> f64 {
        let (_, fs, _) = self.state.as_ref().expect("set up");
        let written =
            2 * DATAJOIN_INPUT + self.result.as_ref().map_or(0, |r| r.reduce_output_bytes);
        fs.store().total_stored_bytes() as f64 / written as f64
    }

    fn counters(&self) -> Counters {
        let (fx, fs, mr) = self.state.as_ref().expect("set up");
        let mut c = store_counters(fx, fs.store(), None);
        c.insert("fabric.virtual_s", fx.now() as f64 / 1e9);
        c.insert("fabric.sim_wall_s", self.wall_s);
        self.totals.merged(c, mr.as_ref())
    }

    fn gauges(&self) -> Counters {
        let (_, fs, _) = self.state.as_ref().expect("set up");
        store_gauges(fs.store(), &[])
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("input_bytes", 2 * DATAJOIN_INPUT),
            ("reducers", self.reducers as u64),
            ("maps", 10),
            ("nodes", 270),
        ]
    }
}
