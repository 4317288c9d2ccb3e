//! `sim_append_246`: Figure 3's last point on the simulated 270-node
//! cluster. The measured phase is exactly what the figure driver
//! (`bench_suite::fig3_point_detail`) runs — a fresh seeded fabric, create
//! the shared file, N clients on the provider nodes each append one 64 MB
//! ghost chunk — so with `--seed 1000` its counters reproduce the N = 246
//! row of `BENCH_fig3_appends.json`.

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use blobseer::BlobSeerConfig;
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

use crate::gen::Rng;
use crate::harness::{ClientLog, Counters, Round, Workload};
use crate::live::{store_counters, store_gauges};

/// One chunk, as in the paper: 64 MB (page size == HDFS chunk size, §4.1).
const CHUNK: u64 = 64 * 1024 * 1024;

/// Deploy BSFS with the paper layout on a fresh 270-node simulated cluster.
pub fn paper_bsfs(seed: u64) -> (Fabric, Bsfs) {
    let fx = Fabric::sim_seeded(ClusterSpec::orsay_270(), seed);
    let fs = Bsfs::deploy_paper(&fx, BlobSeerConfig::paper()).expect("deploy bsfs");
    (fx, fs)
}

/// Clients run on the data-provider nodes (23..270 in the paper layout).
fn provider_node(i: u32) -> NodeId {
    NodeId(23 + i % 247)
}

pub struct SimAppend {
    seed: u64,
    clients: u32,
    state: Option<(Fabric, Bsfs)>,
    /// Host seconds spent in, and appends issued by, measured rounds.
    wall_s: f64,
    appends: u64,
}

impl SimAppend {
    pub fn new(seed: u64, quick: bool) -> SimAppend {
        SimAppend {
            seed,
            clients: if quick { 5 } else { 246 },
            state: None,
            wall_s: 0.0,
            appends: 0,
        }
    }

    fn file() -> DfsPath {
        DfsPath::new("/bench/shared").expect("valid path")
    }
}

/// Create the shared file, then `clients` concurrent one-chunk appends;
/// returns every client's `(start, end)` in virtual ns.
///
/// The seeded input: every client arrives within the same virtual
/// millisecond, at an offset of its own. (Ghost payloads have no bytes to
/// seed; without this the virtual latencies are the same for most seeds.)
fn run_appends(fx: &Fabric, fs: &Bsfs, clients: u32, seed: u64) -> Vec<(u64, u64)> {
    let start = fx.gate();
    let file = SimAppend::file();
    {
        let (fs, start, file) = (fs.clone(), start.clone(), file.clone());
        fx.spawn(NodeId(23), "setup", move |p| {
            let mut w = fs.create(p, &file).expect("create");
            w.close(p).expect("close");
            start.set();
        });
    }
    let times = Arc::new(Mutex::new(Vec::with_capacity(clients as usize)));
    let mut arrivals = Rng::lane(seed, 200);
    for i in 0..clients {
        let (fs, start, file, times) = (fs.clone(), start.clone(), file.clone(), times.clone());
        let arrival_ns = arrivals.below(fabric::MILLIS);
        fx.spawn(provider_node(i), format!("appender{i}"), move |p| {
            start.wait(p);
            p.sleep(arrival_ns);
            let t0 = p.now();
            fs.append_all(p, &file, Payload::ghost(CHUNK))
                .expect("append");
            times.lock().expect("times").push((t0, p.now()));
        });
    }
    fx.run();
    let times = times.lock().expect("times").clone();
    assert_eq!(times.len(), clients as usize);
    times
}

/// Warm the host (allocator, thread stacks) with `clients` appends on a
/// fabric of its own, so the measured fabric starts at virtual time zero with
/// zeroed counters.
pub fn warm_up(seed: u64, clients: u32) {
    let (fx, fs) = paper_bsfs(seed);
    run_appends(&fx, &fs, clients, seed);
}

impl Workload for SimAppend {
    fn setup(&mut self) {
        warm_up(self.seed, (self.clients / 20).max(1));
        self.state = Some(paper_bsfs(self.seed));
    }

    fn round(&mut self) -> Round {
        let (fx, fs) = self.state.as_ref().expect("set up");
        let t = Instant::now();
        let ops = run_appends(fx, fs, self.clients, self.seed);
        let wall_s = t.elapsed().as_secs_f64();
        self.wall_s += wall_s;
        self.appends += ops.len() as u64;
        // One log per client: throughput is the sum of per-client rates.
        let clients = ops
            .into_iter()
            .enumerate()
            .map(|(i, (s, e))| {
                let mut c = ClientLog::new(format!("appender{i}"), true, 1);
                c.record(s, e, CHUNK, true);
                c
            })
            .collect();
        Round { wall_s, clients }
    }

    fn fresh_each_round(&self) -> bool {
        true
    }

    fn check(&mut self) -> Result<(), String> {
        let (fx, fs) = self.state.as_ref().expect("set up");
        let expect = (self.clients as u64 * CHUNK, self.clients as u64);
        let fs2 = fs.clone();
        let h = fx.spawn(NodeId(23), "check", move |p| {
            let blob = fs2.blob_of(p, &SimAppend::file()).expect("file exists");
            let client = fs2.store().client();
            (
                fs2.status(p, &SimAppend::file()).expect("status").len,
                client.latest(p, blob).expect("latest"),
                fs2.count_files(p, &DfsPath::root()).expect("count"),
            )
        });
        fx.run();
        let (len, versions, files) = h.take().expect("check finished");
        if (len, versions) != expect {
            return Err(format!(
                "file holds {len} bytes in {versions} versions, expected {} in {}",
                expect.0, expect.1
            ));
        }
        if files != 1 {
            return Err(format!("{files} files in the namespace, expected 1"));
        }
        Ok(())
    }

    fn space_amp(&self) -> f64 {
        let (_, fs) = self.state.as_ref().expect("set up");
        fs.store().total_stored_bytes() as f64 / (self.clients as u64 * CHUNK) as f64
    }

    fn counters(&self) -> Counters {
        let (fx, fs) = self.state.as_ref().expect("set up");
        let mut c = store_counters(fx, fs.store(), None);
        c.insert("fabric.virtual_s", fx.now() as f64 / 1e9);
        c.insert("fabric.sim_wall_s", self.wall_s);
        c.insert("client.appends", self.appends as f64);
        c
    }

    fn gauges(&self) -> Counters {
        let (_, fs) = self.state.as_ref().expect("set up");
        store_gauges(fs.store(), &[])
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        vec![("clients", self.clients as u64), ("append_bytes", CHUNK)]
    }
}
