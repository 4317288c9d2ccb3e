//! The measuring loop shared by every workload: set up (several times, so
//! set-up time has a median), run fixed-size rounds until `--seconds` of
//! measured time have passed, check outputs, reduce the rounds to one number
//! per metric (see [`best`]).
//!
//! Rounds have a fixed operation count, so counters compare across commits;
//! the number of rounds, not their size, adapts to `--seconds`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, percentile};
use crate::sys;
use crate::trace::Trace;

/// One client's share of a round. Times are fabric nanoseconds
/// (`Proc::now`): wall clock in live mode, virtual clock in sim mode.
pub struct ClientLog {
    pub name: String,
    /// `(start, end)` of every operation that succeeded and passed its check.
    pub ops: Vec<(u64, u64)>,
    /// User bytes moved by those operations.
    pub bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Whether this client's latencies feed `op_p50_ms` / `op_p95_ms` (all
    /// clients feed `throughput_mbps`).
    pub primary: bool,
}

impl ClientLog {
    pub fn new(name: impl Into<String>, primary: bool, capacity: usize) -> ClientLog {
        ClientLog {
            name: name.into(),
            ops: Vec::with_capacity(capacity),
            bytes: 0,
            attempted: 0,
            failed: 0,
            primary,
        }
    }

    /// Record one operation: `ok` is "returned Ok *and* passed its output
    /// check"; anything else counts as failed and gets no latency.
    pub fn record(&mut self, start: u64, end: u64, bytes: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.ops.push((start, end));
            self.bytes += bytes;
        } else {
            self.failed += 1;
        }
    }

    fn busy_ns(&self) -> u64 {
        self.ops.iter().map(|&(s, e)| e - s).sum()
    }

    /// User MB/s (1e6) while inside operations.
    pub fn mbps(&self) -> f64 {
        let busy = self.busy_ns();
        if busy == 0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / (busy as f64 / 1e9)
        }
    }

    pub fn latencies(&self) -> Vec<u64> {
        self.ops.iter().map(|&(s, e)| e - s).collect()
    }
}

/// One measured round: every client's log plus the host wall time from the
/// start barrier to the last client finishing.
pub struct Round {
    pub wall_s: f64,
    pub clients: Vec<ClientLog>,
}

/// Cumulative public counters of the current deployment, by per-layer metric
/// name. The harness differences them across each round.
pub type Counters = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Build the deployment and its inputs, preload, and warm up. Timed by
    /// the harness as `setup_s`.
    fn setup(&mut self);
    /// One measured round of the workload's fixed operation count.
    fn round(&mut self) -> Round;
    /// True when a round leaves state behind that would make the next round
    /// different (a longer blob, a used output directory): the harness then
    /// sets up afresh before every round.
    fn fresh_each_round(&self) -> bool;
    /// Output checks on what the rounds since the last `setup` left behind.
    fn check(&mut self) -> Result<(), String>;
    /// Stored bytes per user byte written, for the current deployment.
    fn space_amp(&self) -> f64;
    fn counters(&self) -> Counters;
    /// Gauges and ratios that are not differences of counters (read once
    /// after the deployment's last round), by per-layer metric name.
    fn gauges(&self) -> Counters;
    /// Drop the deployment and delete what it wrote.
    fn teardown(&mut self);
    /// Operation counts and sizes, for the record.
    fn shape(&self) -> Vec<(&'static str, u64)>;
}

/// Everything one run measured.
pub struct Outcome {
    pub correct: bool,
    pub check_errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub setups: usize,
    pub measured_s: f64,
    /// `[throughput_mbps, op_p50_ms, op_p95_ms, round_wall_s]` of each round,
    /// for the record: the end-to-end numbers are the best of each.
    pub per_round: Vec<[f64; 4]>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-round counter differences averaged over rounds, gauges, and the
    /// workload-derived per-layer numbers (tail latencies, secondary
    /// clients).
    pub layer_counts: BTreeMap<String, f64>,
}

/// Throwaway set-ups before the measured one, so that `setup_s` is a median
/// of at least three even when a single round fills the whole budget.
const EXTRA_SETUPS: usize = 2;

pub fn run(w: &mut dyn Workload, seconds: f64, trace: &mut Trace) -> Outcome {
    let mut setup_s = Vec::new();
    let mut timed_setup = |w: &mut dyn Workload, trace: &mut Trace| {
        trace.begin("setup");
        let t = Instant::now();
        w.setup();
        setup_s.push(t.elapsed().as_secs_f64());
        trace.end();
    };
    for _ in 0..EXTRA_SETUPS {
        timed_setup(w, trace);
        w.teardown();
    }

    let mut rounds: Vec<Round> = Vec::new();
    let mut counts: Counters = Counters::new();
    let mut gauges: Counters = Counters::new();
    let mut space_amp = Vec::new();
    let mut check_errors = Vec::new();
    let mut peak_rss_mb = None;
    let mut measured = 0.0;
    let mut more = true;
    while more {
        timed_setup(w, trace);
        loop {
            let before = w.counters();
            let span = trace.begin("round");
            let round = w.round();
            trace.end();
            trace.ops(span, &round);
            for (name, after) in w.counters() {
                let delta = after - before.get(name).copied().unwrap_or(0.0);
                *counts.entry(name).or_insert(0.0) += delta;
            }
            measured += round.wall_s;
            // Round to the nearest whole round: stop once less than half a
            // round of the budget is left.
            more = seconds - measured > round.wall_s / 2.0;
            rounds.push(round);
            if !more || w.fresh_each_round() {
                break;
            }
        }
        if let Err(e) = w.check() {
            check_errors.push(e);
        }
        // Peak memory of a fixed amount of work — the set-ups, the first
        // deployment's rounds and their check — so that a faster commit,
        // which fits more rounds into `--seconds`, is not charged for them.
        peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
        space_amp.push(w.space_amp());
        gauges = w.gauges();
        w.teardown();
    }

    let n = rounds.len() as f64;
    let mut layer_counts: BTreeMap<String, f64> = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v / n))
        .chain(gauges.into_iter().map(|(k, v)| (k.to_string(), v)))
        .collect();

    // Per-round reductions first; across rounds below.
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut p99 = Vec::new();
    let mut p999 = Vec::new();
    let mut mbps = Vec::new();
    // Per secondary client: its p50, p99 and MB/s of every round.
    let mut secondary: BTreeMap<String, [Vec<f64>; 3]> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in &rounds {
        let mut ops: Vec<(u64, u64)> = Vec::new();
        for c in &r.clients {
            attempted += c.attempted;
            failed += c.failed;
            if c.primary {
                ops.extend(&c.ops);
            } else if !c.ops.is_empty() {
                let mut l = c.latencies();
                let e = secondary.entry(c.name.clone()).or_default();
                e[0].push(percentile(&mut l, 0.5) as f64 / 1e6);
                e[1].push(percentile(&mut l, 0.99) as f64 / 1e6);
                e[2].push(c.mbps());
            }
        }
        mbps.push(r.clients.iter().map(ClientLog::mbps).sum());
        if !ops.is_empty() {
            // In the order they were issued, so a window is a stretch of time.
            ops.sort_unstable();
            let mut lat: Vec<u64> = ops.iter().map(|&(s, e)| e - s).collect();
            let (w50, w95): (Vec<f64>, Vec<f64>) = windows(&mut lat)
                .map(|w| {
                    let tail = tail_quantile(w.len());
                    (percentile(w, 0.5) as f64, percentile(w, tail) as f64)
                })
                .unzip();
            p50.push(best(&w50, false) / 1e6);
            p95.push(best(&w95, false) / 1e6);
            p99.push(percentile(&mut lat, 0.99) as f64 / 1e6);
            p999.push(percentile(&mut lat, 0.999) as f64 / 1e6);
        }
    }
    for (name, [a, b, c]) in secondary {
        layer_counts.insert(format!("client.{name}_p50_ms"), median(&a));
        layer_counts.insert(format!("client.{name}_p99_ms"), median(&b));
        layer_counts.insert(format!("client.{name}_mbps"), median(&c));
    }
    let wall: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    layer_counts.insert("client.op_p99_ms".into(), med(&p99));
    layer_counts.insert("client.op_p999_ms".into(), med(&p999));

    let end_to_end = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("throughput_mbps", best(&mbps, true)),
        ("op_p50_ms", best(&p50, false)),
        ("op_p95_ms", best(&p95, false)),
        ("round_wall_s", best(&wall, false)),
        ("space_amp", median(&space_amp)),
        ("peak_rss_mb", peak_rss_mb.unwrap_or_default()),
    ]);
    Outcome {
        correct: check_errors.is_empty() && failed == 0,
        check_errors,
        attempted,
        failed,
        rounds: rounds.len(),
        setups: setup_s.len(),
        measured_s: measured,
        per_round: (0..rounds.len())
            .map(|i| [&mbps, &p50, &p95, &wall].map(|v| v.get(i).copied().unwrap_or(0.0)))
            .collect(),
        end_to_end,
        layer_counts,
    }
}

/// A run's number from its rounds: the best one (highest throughput,
/// shortest time).
///
/// Why not the median: rounds are identical work, and the host only ever
/// slows one down — in phases of seconds to minutes (rounds of one
/// `live_append` run read 79, 76, 77, 76, 83, 83 MB/s). The median inherits
/// any phase that covers half the run; the best round is the one the host
/// left alone. Over eight runs of three workloads it also repeated better
/// than the median or the better quartile on every metric but one. Every
/// round's values are kept in the run record for whoever wants the median.
fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Operations per latency window.
const WINDOW: usize = 2000;

/// A round's latencies, in issue order, cut into equal windows of at least
/// [`WINDOW`] operations (one window when the round has fewer than two of
/// them). `op_p50_ms` and `op_p95_ms` are taken per window and the best
/// window is reported — [`best`]'s reasoning at a finer grain: between its
/// slow phases the host takes the CPU away in bursts of 0.1 to 0.3 s (the
/// steal column of `/proc/stat` shows them), and one burst anywhere in a
/// round of 60 000 reads moves its tail. Over ten runs of `live_read_warm` the best
/// window repeated twice as well as the best round (p50 0.02 against 0.04,
/// p95 0.05 against 0.14).
fn windows(lat: &mut [u64]) -> impl Iterator<Item = &mut [u64]> {
    let n = (lat.len() / WINDOW).max(1);
    lat.chunks_mut(lat.len().div_ceil(n).max(1))
}

/// The tail percentile `n` latencies support. A window of 2 000 has 100
/// samples beyond p95; the 246 virtual latencies of `sim_append_246` have 12
/// and repeat exactly. A round of one job has a single latency: its tail is
/// its median.
///
/// Why not p99: a warm read is 25 us of CPU on a shared core, and its p99
/// (0.06 ms) is made of the reads a timer tick or a kernel thread landed in.
/// The driver refused it for spreading 0.16 and 0.30 over ten runs, and it
/// still spread by 0.14 to 0.38 whatever the reduction; p95 spreads by 0.05
/// to 0.14 on a quiet host. p99 and p99.9 of whole rounds are per-layer
/// numbers (`client.op_p99_ms`, `client.op_p999_ms`).
fn tail_quantile(n: usize) -> f64 {
    if n >= 100 {
        0.95
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_round_sides_with_the_undisturbed_rounds() {
        assert_eq!(best(&[79.0, 76.0, 77.0, 76.0, 83.0, 84.0], true), 84.0);
        assert_eq!(best(&[0.375, 0.397, 0.358, 0.353], false), 0.353);
        assert_eq!(best(&[5.0], true), 5.0);
        assert_eq!(best(&[], false), 0.0);
    }

    #[test]
    fn windows_are_equal_stretches_of_at_least_window_operations() {
        let sizes = |n: usize| -> Vec<usize> {
            windows(&mut vec![0; n]).map(|w| w.len()).collect()
        };
        assert_eq!(sizes(1), [1]);
        assert_eq!(sizes(246), [246]);
        assert_eq!(sizes(2 * WINDOW - 1), [2 * WINDOW - 1]);
        assert_eq!(sizes(8000), [2000; 4]);
        assert_eq!(sizes(5000), [2500; 2]);
        assert_eq!(sizes(4001), [2001, 2000]);
    }

    #[test]
    fn client_log_counts_failures_and_keeps_them_out_of_latency() {
        let mut log = ClientLog::new("c", true, 4);
        log.record(0, 1_000_000, 1_000_000, true);
        log.record(1_000_000, 3_000_000, 1_000_000, true);
        log.record(3_000_000, 9_000_000, 1_000_000, false);
        assert_eq!((log.attempted, log.failed), (3, 1));
        assert_eq!(log.latencies(), vec![1_000_000, 2_000_000]);
        // 2 MB in 3 ms of busy time.
        assert!((log.mbps() - 2.0 / 0.003).abs() < 1e-9);
    }
}
