//! The four live storage workloads: real threads, real bytes, every service
//! persisting through `pstore` into `benchmark/work/`.
//!
//! Closed loop: each client issues its next operation when the previous one
//! returned (plus the think time of generating the input and checking the
//! output, which is outside every latency).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blobseer::{BlobClient, BlobId, BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, JoinHandle, NodeId, Payload, Proc};

use crate::gen::{append_record, check_record, word_sum, BlobContent, Rng, BLOCK};
use crate::harness::{ClientLog, Counters, Round, Workload};
use crate::sys;

/// Run `f` as one process on `fx` and return its result.
pub fn on_fabric<T: Send + 'static>(
    fx: &Fabric,
    name: &str,
    f: impl FnOnce(&Proc) -> T + Send + 'static,
) -> T {
    let h = fx.spawn(NodeId(0), name, f);
    fx.run();
    h.take().expect("process finished")
}

/// Release the start gate, wait for every client, and time the round on the
/// host clock.
pub fn run_clients(
    fx: &Fabric,
    gate: &fabric::prelude::Gate,
    clients: Vec<JoinHandle<ClientLog>>,
) -> Round {
    let t = Instant::now();
    gate.set();
    fx.run();
    let wall_s = t.elapsed().as_secs_f64();
    Round {
        wall_s,
        clients: clients
            .into_iter()
            .map(|h| h.take().expect("client finished"))
            .collect(),
    }
}

/// A live BlobSeer deployment persisting under a scratch directory.
pub struct Deployment {
    pub fx: Fabric,
    pub bs: BlobSeer,
    pub dir: PathBuf,
}

impl Deployment {
    pub fn live(name: &str, seed: u64, nodes: u32, page: u64, cache_bytes: u64) -> Deployment {
        let dir = sys::fresh_work_dir(name);
        let fx = Fabric::live_seeded(ClusterSpec::tiny(nodes), seed);
        let config = BlobSeerConfig::test_small(page)
            .with_persist_dir(Some(dir.clone()))
            .with_read_cache_bytes(cache_bytes);
        let bs = BlobSeer::deploy(&fx, config, Layout::compact(fx.spec())).expect("deploy");
        Deployment { fx, bs, dir }
    }

    /// Create a blob and fill it with `bytes` (a multiple of 1 MiB) in 1 MiB
    /// appends; `chunk(i)` makes the i-th.
    pub fn preload(&self, bytes: u64, chunk: impl Fn(u64) -> Vec<u8> + Send + 'static) -> BlobId {
        let client = self.bs.client();
        on_fabric(&self.fx, "preload", move |p| {
            let blob = client.create(p, None);
            for i in 0..bytes / MIB {
                client
                    .append(p, blob, Payload::from_vec(chunk(i)))
                    .expect("preload append");
            }
            blob
        })
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Cumulative public counters of a deployment, by per-layer metric name.
pub fn store_counters(fx: &Fabric, bs: &BlobSeer, dir: Option<&Path>) -> Counters {
    let stats = fx.stats();
    let (mut page_puts, mut page_gets, mut put_rpcs, mut get_rpcs) = (0, 0, 0, 0);
    for pr in bs.providers() {
        let (ops, rpcs) = (pr.op_counts(), pr.rpc_counts());
        page_puts += ops.0;
        page_gets += ops.1;
        put_rpcs += rpcs.0;
        get_rpcs += rpcs.1;
    }
    let (mut node_puts, mut node_gets, mut dput_rpcs, mut dget_rpcs) = (0, 0, 0, 0);
    for s in bs.metadata_dht().servers() {
        let (ops, rpcs) = (s.op_counts(), s.rpc_counts());
        node_puts += ops.0;
        node_gets += ops.1;
        dput_rpcs += rpcs.0;
        dget_rpcs += rpcs.1;
    }
    Counters::from([
        ("fabric.transfers", stats.transfers as f64),
        ("fabric.bytes_requested", stats.bytes_requested),
        ("fabric.sim_events", stats.events as f64),
        ("provider.page_puts", page_puts as f64),
        ("provider.page_gets", page_gets as f64),
        ("provider.put_rpcs", put_rpcs as f64),
        ("provider.get_rpcs", get_rpcs as f64),
        ("provider.stored_bytes", bs.total_stored_bytes() as f64),
        ("dht.node_puts", node_puts as f64),
        ("dht.node_gets", node_gets as f64),
        ("dht.put_rpcs", dput_rpcs as f64),
        ("dht.get_rpcs", dget_rpcs as f64),
        (
            "provider_manager.leases_reaped",
            bs.provider_manager().lease_reap_stats().0 as f64,
        ),
        ("pstore.disk_bytes", dir.map_or(0, sys::dir_bytes) as f64),
    ])
}

/// Gauges of a deployment after its last round.
pub fn store_gauges(bs: &BlobSeer, blobs: &[BlobId]) -> Counters {
    let (min, max) = bs.load_spread();
    let pending: usize = blobs
        .iter()
        .map(|&b| bs.version_manager().pending_count(b))
        .sum();
    Counters::from([
        (
            "provider_manager.outstanding_leases",
            bs.provider_manager().outstanding_leases() as f64,
        ),
        ("version_manager.pending_at_end", pending as f64),
        ("dht.total_nodes", bs.metadata_dht().total_nodes() as f64),
        (
            "provider.load_spread",
            if max == 0 {
                0.0
            } else {
                (max - min) as f64 / max as f64
            },
        ),
    ])
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Append,
    ReadCold,
    ReadWarm,
    Mixed,
}

/// Size of one append and of one self-describing record in the blob.
pub const RECORD: usize = 16 * 1024;
/// Writer id of the preloaded records in `live_mixed`.
const PRELOAD_WRITER: u64 = 9;
pub const MIB: u64 = 1024 * 1024;

/// Sizes and counts of one workload, after `--quick` scaling.
#[derive(Clone, Copy)]
struct Shape {
    page: u64,
    cache: u64,
    /// Bytes preloaded in set-up.
    preload: u64,
    /// Region the reads are confined to.
    read_region: u64,
    read_len: u64,
    clients: u32,
    /// Operations per client per round (the appender's, in `Mixed`).
    ops: u64,
    warmup_ops: u64,
}

impl Shape {
    fn of(kind: Kind, quick: bool) -> Shape {
        // --quick: 1/50 of the operations on 1/8 of the data.
        let (op_div, size_div) = if quick { (50, 8) } else { (1, 1) };
        let s = match kind {
            Kind::Append => Shape {
                page: 4096,
                cache: 0,
                preload: 0,
                read_region: 0,
                read_len: 0,
                clients: 2,
                ops: 4000,
                warmup_ops: 200,
            },
            // Working set 8x the cache: ~0.12 of the pages hit, the cache
            // churns (insert + evict) on every miss.
            Kind::ReadCold => Shape {
                page: 64 * 1024,
                cache: 32 * MIB,
                preload: 256 * MIB,
                read_region: 256 * MIB,
                read_len: 256 * 1024,
                clients: 2,
                ops: 750,
                warmup_ops: 250,
            },
            // Hot region half the cache: after the warm pass, no read leaves
            // the client.
            Kind::ReadWarm => Shape {
                page: 64 * 1024,
                cache: 32 * MIB,
                preload: 256 * MIB,
                read_region: 16 * MIB,
                read_len: 256 * 1024,
                clients: 2,
                ops: 30_000,
                warmup_ops: 1500,
            },
            Kind::Mixed => Shape {
                page: 4096,
                cache: 0,
                preload: 64 * MIB,
                read_region: 0,
                read_len: 64 * 1024,
                clients: 2,
                ops: 2000,
                warmup_ops: 100,
            },
        };
        Shape {
            cache: s.cache / size_div,
            preload: s.preload / size_div,
            read_region: s.read_region / size_div,
            ops: (s.ops / op_div).max(1),
            warmup_ops: (s.warmup_ops / op_div).max(1),
            ..s
        }
    }
}

struct State {
    dep: Deployment,
    blob: BlobId,
    /// One caching client per reader (read workloads).
    readers: Vec<Arc<BlobClient>>,
    /// Appends issued so far per writer (sequence numbers continue across
    /// warm-up and rounds).
    next_seq: Vec<u64>,
    user_bytes_written: u64,
}

pub struct LiveStorage {
    kind: Kind,
    name: &'static str,
    seed: u64,
    shape: Shape,
    content: Option<Arc<BlobContent>>,
    state: Option<State>,
    /// Measured rounds so far; gives every read round its own offset stream.
    rounds_run: u64,
}

impl LiveStorage {
    pub fn new(kind: Kind, name: &'static str, seed: u64, quick: bool) -> LiveStorage {
        let shape = Shape::of(kind, quick);
        let content = matches!(kind, Kind::ReadCold | Kind::ReadWarm)
            .then(|| Arc::new(BlobContent::new(seed, shape.preload)));
        LiveStorage {
            kind,
            name,
            seed,
            shape,
            content,
            state: None,
            rounds_run: 0,
        }
    }

    fn state(&self) -> &State {
        self.state.as_ref().expect("set up")
    }

    /// `ops` appends per writer, all writers concurrently. In `Mixed`, one
    /// appender beside one reader that reads until the appender is done.
    fn append_round(&mut self, ops: u64) -> Round {
        let (seed, kind, read_len) = (self.seed, self.kind, self.shape.read_len);
        let writers = if kind == Kind::Mixed {
            1
        } else {
            self.shape.clients
        };
        let st = self.state.as_mut().expect("set up");
        let fx = st.dep.fx.clone();
        let gate = fx.gate();
        let blob = st.blob;
        let mut handles = Vec::new();
        // Published records, for the mixed reader to pick offsets below.
        let published = Arc::new(AtomicU64::new(st.user_bytes_written / RECORD as u64));
        let done = Arc::new(AtomicBool::new(false));
        for w in 0..writers {
            let client = st.dep.bs.client();
            let first_seq = st.next_seq[w as usize];
            st.next_seq[w as usize] += ops;
            let (gate, published, done) = (gate.clone(), published.clone(), done.clone());
            handles.push(fx.spawn(NodeId(w), format!("appender{w}"), move |p| {
                let mut log = ClientLog::new(format!("appender{w}"), true, ops as usize);
                gate.wait(p);
                for seq in first_seq..first_seq + ops {
                    let data = Payload::from_vec(append_record(seed, w as u64, seq, RECORD));
                    let t0 = p.now();
                    let res = client.append(p, blob, data);
                    let t1 = p.now();
                    log.record(t0, t1, RECORD as u64, res.is_ok());
                    published.fetch_add(1, Ordering::Release);
                }
                done.store(true, Ordering::Release);
                log
            }));
        }
        if kind == Kind::Mixed {
            let client = st.dep.bs.client();
            let (gate, published, done) = (gate.clone(), published.clone(), done.clone());
            let preload_records = self.shape.preload / RECORD as u64;
            let mut rng = Rng::lane(seed, 100 + st.next_seq[0]);
            handles.push(fx.spawn(NodeId(1), "mixed_read", move |p| {
                let mut log = ClientLog::new("mixed_read", false, 4 * ops as usize);
                let per_read = read_len / RECORD as u64;
                gate.wait(p);
                while !done.load(Ordering::Acquire) {
                    let records = published.load(Ordering::Acquire);
                    let first = rng.below(records - per_read + 1);
                    let t0 = p.now();
                    let res = client.read(p, blob, None, first * RECORD as u64, read_len);
                    let t1 = p.now();
                    // Every 16 KiB piece must be the whole record its
                    // position implies.
                    let ok = res.is_ok_and(|data| {
                        data.len() == read_len
                            && data.bytes().chunks(RECORD).zip(first..).all(|(piece, i)| {
                                let expect = if i < preload_records {
                                    (PRELOAD_WRITER, i, RECORD)
                                } else {
                                    (0, i - preload_records, RECORD)
                                };
                                check_record(seed, piece) == Some(expect)
                            })
                    });
                    log.record(t0, t1, read_len, ok);
                }
                log
            }));
        }
        let round = run_clients(&fx, &gate, handles);
        st.user_bytes_written += writers as u64 * ops * RECORD as u64;
        round
    }

    fn read_round(&mut self, ops: u64, lane: u64) -> Round {
        let (seed, shape) = (self.seed, self.shape);
        // Warm readers hand the CPU over between reads, not inside one. They
        // share one CPU (see `sys.rs`) and a warm read never blocks, so left
        // alone they alternate only when a 4 ms time slice runs out — inside
        // a 25 us read, which then reads 4 ms. That hit 0.5 to 1 % of the
        // reads, so p99 sat on the edge of it (0.065 ms and 4.07 ms were a
        // few ranks apart) and measured the scheduler's slice: its spread
        // over ten runs was 0.16 to 0.30. Cold reads block on provider
        // threads and overlap there; they are left to.
        let take_turns = self.kind == Kind::ReadWarm;
        let content = self.content.clone().expect("read workloads have content");
        let st = self.state();
        let fx = st.dep.fx.clone();
        let gate = fx.gate();
        let blob = st.blob;
        let handles = st
            .readers
            .iter()
            .enumerate()
            .map(|(r, client)| {
                let (client, content, gate) = (client.clone(), content.clone(), gate.clone());
                let mut rng = Rng::lane(seed, lane * 16 + r as u64);
                fx.spawn(NodeId(r as u32), format!("reader{r}"), move |p| {
                    let mut log = ClientLog::new(format!("reader{r}"), true, ops as usize);
                    let slots = (shape.read_region - shape.read_len) / BLOCK + 1;
                    gate.wait(p);
                    for _ in 0..ops {
                        let off = rng.below(slots) * BLOCK;
                        let t0 = p.now();
                        let res = client.read(p, blob, None, off, shape.read_len);
                        let t1 = p.now();
                        let ok = res.is_ok_and(|data| {
                            data.len() == shape.read_len
                                && word_sum(data.bytes())
                                    == content.expected_sum(off, shape.read_len)
                        });
                        log.record(t0, t1, shape.read_len, ok);
                        if take_turns {
                            std::thread::yield_now();
                        }
                    }
                    log
                })
            })
            .collect();
        run_clients(&fx, &gate, handles)
    }

    fn provider_get_rpcs(&self) -> u64 {
        let bs = &self.state().dep.bs;
        bs.providers().iter().map(|p| p.rpc_counts().1).sum()
    }

    /// Read the whole blob back and require every record to be whole,
    /// generated by this seed, and in sequence for its writer.
    fn check_records(&self) -> Result<(), String> {
        let st = self.state();
        let (seed, blob) = (self.seed, st.blob);
        let client = st.dep.bs.uncached_client();
        let expect_bytes = st.user_bytes_written;
        let mut expect_next: Vec<(u64, u64)> = st
            .next_seq
            .iter()
            .enumerate()
            .map(|(w, &n)| (w as u64, n))
            .collect();
        if self.shape.preload > 0 {
            expect_next.push((PRELOAD_WRITER, self.shape.preload / RECORD as u64));
        }
        let expect_versions: u64 =
            st.next_seq.iter().sum::<u64>() + self.shape.preload.div_ceil(MIB);
        on_fabric(&st.dep.fx, "check", move |p| {
            let snap = client.snapshot(p, blob, None).map_err(|e| e.to_string())?;
            if snap.total_bytes != expect_bytes {
                return Err(format!(
                    "blob holds {} bytes, {expect_bytes} were appended",
                    snap.total_bytes
                ));
            }
            if snap.version != expect_versions {
                return Err(format!(
                    "latest version is {}, {expect_versions} appends were issued",
                    snap.version
                ));
            }
            let mut seen: Vec<(u64, u64)> = expect_next.iter().map(|&(w, _)| (w, 0)).collect();
            let mut off = 0;
            while off < snap.total_bytes {
                let data = client
                    .read_snapshot(p, blob, &snap, off, MIB)
                    .map_err(|e| format!("read-back at {off}: {e}"))?;
                for (i, piece) in data.bytes().chunks(RECORD).enumerate() {
                    let at = off + (i * RECORD) as u64;
                    let Some((w, seq, _)) = check_record(seed, piece) else {
                        return Err(format!("torn or foreign record at byte {at}"));
                    };
                    let Some(slot) = seen.iter_mut().find(|(sw, _)| *sw == w) else {
                        return Err(format!("record of unknown writer {w} at byte {at}"));
                    };
                    if seq != slot.1 {
                        return Err(format!(
                            "writer {w}: record {seq} at byte {at}, expected {} (lost, duplicated or reordered)",
                            slot.1
                        ));
                    }
                    slot.1 += 1;
                }
                off += data.len();
            }
            if seen != expect_next {
                return Err(format!(
                    "records per writer {seen:?}, expected {expect_next:?}"
                ));
            }
            Ok(())
        })
    }
}

impl Workload for LiveStorage {
    fn setup(&mut self) {
        let (shape, seed) = (self.shape, self.seed);
        let dep = Deployment::live(self.name, seed, 4, shape.page, shape.cache);
        let content = self.content.clone();
        // Generated content for the read workloads, self-describing records
        // for `Mixed`.
        let blob = dep.preload(shape.preload, move |chunk| match &content {
            Some(c) => c.bytes(chunk * MIB, MIB),
            None => {
                let per_chunk = MIB / RECORD as u64;
                (chunk * per_chunk..(chunk + 1) * per_chunk)
                    .flat_map(|seq| append_record(seed, PRELOAD_WRITER, seq, RECORD))
                    .collect()
            }
        });
        let readers = match self.kind {
            Kind::ReadCold | Kind::ReadWarm => (0..shape.clients)
                .map(|_| Arc::new(dep.bs.client()))
                .collect(),
            _ => Vec::new(),
        };
        self.state = Some(State {
            dep,
            blob,
            readers,
            next_seq: vec![
                0;
                if self.kind == Kind::Mixed {
                    1
                } else {
                    shape.clients as usize
                }
            ],
            user_bytes_written: shape.preload,
        });
        // Untimed warm-up: the workload's own loop at 5 % of a round.
        let warm = match self.kind {
            Kind::Append | Kind::Mixed => self.append_round(shape.warmup_ops),
            Kind::ReadCold => self.read_round(shape.warmup_ops, 0),
            Kind::ReadWarm => {
                // One sequential pass per reader over the hot region fills
                // its cache; then the random warm-up.
                let st = self.state();
                let (blob, readers) = (st.blob, st.readers.clone());
                on_fabric(&st.dep.fx, "warm_pass", move |p| {
                    for client in &readers {
                        let mut off = 0;
                        while off < shape.read_region {
                            client
                                .read(p, blob, None, off, shape.read_len)
                                .expect("warm pass read");
                            off += shape.read_len;
                        }
                    }
                });
                self.read_round(shape.warmup_ops, 0)
            }
        };
        assert!(
            warm.clients.iter().all(|c| c.failed == 0),
            "{}: warm-up operations failed",
            self.name
        );
    }

    fn round(&mut self) -> Round {
        self.rounds_run += 1;
        match self.kind {
            Kind::Append | Kind::Mixed => self.append_round(self.shape.ops),
            Kind::ReadCold => self.read_round(self.shape.ops, self.rounds_run),
            Kind::ReadWarm => {
                let before = self.provider_get_rpcs();
                let mut round = self.read_round(self.shape.ops, self.rounds_run);
                // The warm workload's contract: no read reaches a provider.
                // A round that did is counted as failed whole.
                if self.provider_get_rpcs() != before {
                    for c in &mut round.clients {
                        c.failed = c.attempted;
                        c.ops.clear();
                        c.bytes = 0;
                    }
                }
                round
            }
        }
    }

    fn fresh_each_round(&self) -> bool {
        matches!(self.kind, Kind::Append | Kind::Mixed)
    }

    fn check(&mut self) -> Result<(), String> {
        let st = self.state();
        let leases = st.dep.bs.provider_manager().outstanding_leases();
        if leases != 0 {
            return Err(format!("{leases} provider leases left outstanding"));
        }
        let pending = st.dep.bs.version_manager().pending_count(st.blob);
        if pending != 0 {
            return Err(format!("{pending} versions left unpublished"));
        }
        match self.kind {
            Kind::Append | Kind::Mixed => self.check_records(),
            // Every read was checked against the generator as it returned.
            Kind::ReadCold | Kind::ReadWarm => Ok(()),
        }
    }

    fn space_amp(&self) -> f64 {
        let st = self.state();
        sys::dir_bytes(&st.dep.dir) as f64 / st.user_bytes_written as f64
    }

    fn counters(&self) -> Counters {
        let st = self.state();
        let mut c = store_counters(&st.dep.fx, &st.dep.bs, Some(&st.dep.dir));
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        for r in &st.readers {
            let s = r.cache_stats();
            hits += s.page_hits;
            misses += s.page_misses;
            evictions += s.evictions;
        }
        c.insert("read_cache.page_hits", hits as f64);
        c.insert("read_cache.page_misses", misses as f64);
        c.insert("read_cache.evictions", evictions as f64);
        c.insert("client.user_bytes_written", st.user_bytes_written as f64);
        if matches!(self.kind, Kind::Append | Kind::Mixed) {
            c.insert("client.appends", st.next_seq.iter().sum::<u64>() as f64);
        }
        c
    }

    fn gauges(&self) -> Counters {
        let st = self.state();
        store_gauges(&st.dep.bs, &[st.blob])
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn shape(&self) -> Vec<(&'static str, u64)> {
        let s = self.shape;
        vec![
            ("clients", s.clients as u64),
            ("ops_per_client_per_round", s.ops),
            ("warmup_ops_per_client", s.warmup_ops),
            ("page_bytes", s.page),
            ("cache_bytes", s.cache),
            ("preload_bytes", s.preload),
            ("read_region_bytes", s.read_region),
            ("read_bytes", s.read_len),
            ("append_bytes", RECORD as u64),
        ]
    }
}
