//! End-to-end and per-layer benchmark of the BlobSeer / BSFS / MapReduce
//! stack. See `benchmark/README.md` for the workloads, the metrics and how
//! they are expected to interact.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! e2e [--quick] [--runs <n>] [--seed <n>]     (the suite)
//! e2e repeat [--runs <n>] [--seed <n>]
//! e2e spec                                  (prints BENCHMARK.json)
//! ```
//!
//! A workload run prints human-readable lines on stderr and, as the last
//! line of stdout, one JSON object: `correct`, `attempted`, `failed`,
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

// The root clippy.toml bans wall-clock reads so that replay-critical code
// stays deterministic; a benchmark harness is made of them.
#![allow(clippy::disallowed_methods)]

mod gen;
mod harness;
mod jobs;
mod json;
mod live;
mod probes;
mod sim;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Outcome, Workload};
use json::{obj, Json};
use trace::Trace;

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(())
        }
        Some("repeat") => suite::repeat(&Args::parse(&args[1..])),
        _ if args.iter().any(|a| a == "--workload") => run_workload(&Args::parse(&args), t0),
        _ => suite::suite(&Args::parse(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs and bare `--flags`.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut map = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("e2e: ignoring stray argument {a:?}");
                continue;
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Args(map)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} {v:?} is not a number")),
        }
    }

    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "0")
    }
}

fn make_workload(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    use live::{Kind, LiveStorage};
    let w = spec::WORKLOADS.iter().find(|w| w.name == name)?.name;
    Some(match w {
        "live_append" => Box::new(LiveStorage::new(Kind::Append, w, seed, quick)),
        "live_read_cold" => Box::new(LiveStorage::new(Kind::ReadCold, w, seed, quick)),
        "live_read_warm" => Box::new(LiveStorage::new(Kind::ReadWarm, w, seed, quick)),
        "live_mixed" => Box::new(LiveStorage::new(Kind::Mixed, w, seed, quick)),
        "live_wordcount" => Box::new(jobs::LiveWordcount::new(w, seed, quick)),
        "sim_append_246" => Box::new(sim::SimAppend::new(seed, quick)),
        "sim_datajoin" => Box::new(jobs::SimDatajoin::new(seed, quick)),
        _ => return None,
    })
}

fn run_workload(args: &Args, t0: Instant) -> Result<(), String> {
    let name = args.get("workload").ok_or_else(|| {
        format!(
            "--workload is required; one of: {}",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", 10.0)?;
    let traced = args.flag("trace");
    let quick = args.flag("quick");
    let env = sys::Env::capture();
    let mut w =
        make_workload(name, seed, quick).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut trace = Trace::new(traced, t0);
    trace.begin("run");
    let outcome = harness::run(w.as_mut(), seconds, &mut trace);
    let mut layers = spec::derive_layers(&outcome);
    if traced {
        trace.begin("probes");
        probes::run_all(&mut layers, seed, quick);
        trace.end();
    }
    trace.end();
    layers.insert("trace.spans".into(), trace.span_count() as f64);
    layers.insert("trace.client_think_frac".into(), trace.think_frac());

    let noisy = env.noisy(t0.elapsed().as_secs_f64());
    let record = obj([
        ("workload", Json::from(name)),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("quick", quick.into()),
        ("commit", env.commit.as_str().into()),
        ("rustc", env.rustc.as_str().into()),
        ("nproc", env.nproc.into()),
        ("pinned_cpu", env.pinned_cpu.map_or(Json::Null, Json::from)),
        ("persist_tmpfs", env.persist_tmpfs.into()),
        ("load_1m_at_start", env.load_1m_at_start.into()),
        ("stolen_s", env.stolen_s().into()),
        ("noisy", noisy.into()),
        (
            "shape",
            obj(w.shape().into_iter().map(|(k, v)| (k, Json::from(v)))),
        ),
        ("rounds", outcome.rounds.into()),
        ("setups", outcome.setups.into()),
        ("measured_s", outcome.measured_s.into()),
        ("total_s", t0.elapsed().as_secs_f64().into()),
        (
            "per_round",
            Json::Arr(
                outcome
                    .per_round
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(|&v| Json::from(v)).collect()))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            obj(outcome.end_to_end.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ]);
    report(name, noisy, &outcome, &layers, traced);
    if traced {
        let path = sys::bench_dir()
            .join("results")
            .join(format!("{name}.trace.json"));
        std::fs::create_dir_all(path.parent().expect("results dir")).map_err(|e| e.to_string())?;
        let doc = obj([
            ("run", record.clone()),
            (
                "end_to_end",
                metrics_json(
                    outcome.end_to_end.iter().map(|(k, v)| (*k, *v)),
                    &spec::END_TO_END,
                ),
            ),
            (
                "per_layer",
                metrics_json(
                    layers.iter().map(|(k, v)| (k.as_str(), *v)),
                    &spec::PER_LAYER,
                ),
            ),
            ("trace", trace.to_json()),
        ]);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    eprintln!("run: {}", record.emit());

    // The contract's result line: exactly these four keys, last on stdout.
    let metrics = if traced {
        metrics_json(
            spec::PER_LAYER
                .iter()
                .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0))),
            &spec::PER_LAYER,
        )
    } else {
        metrics_json(
            outcome.end_to_end.iter().map(|(k, v)| (*k, *v)),
            &spec::END_TO_END,
        )
    };
    println!(
        "{}",
        obj([
            ("correct", Json::from(outcome.correct)),
            ("attempted", outcome.attempted.into()),
            ("failed", outcome.failed.into()),
            ("metrics", metrics),
        ])
        .emit()
    );
    Ok(())
}

/// `{name: {"value": v, "unit": u}}` with units from the metric tables.
fn metrics_json<'a>(values: impl Iterator<Item = (&'a str, f64)>, table: &[spec::Metric]) -> Json {
    obj(values.map(|(name, v)| {
        let unit = table.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        (name, obj([("value", Json::from(v)), ("unit", unit.into())]))
    }))
}

fn report(name: &str, noisy: bool, o: &Outcome, layers: &BTreeMap<String, f64>, traced: bool) {
    eprintln!(
        "== {name}: {} rounds, {:.2} s measured, {} ops attempted, {} failed, correct={}{}",
        o.rounds,
        o.measured_s,
        o.attempted,
        o.failed,
        o.correct,
        if noisy { " [noisy]" } else { "" },
    );
    for e in &o.check_errors {
        eprintln!("   CHECK FAILED: {e}");
    }
    for m in &spec::END_TO_END {
        if let Some(v) = o.end_to_end.get(m.name) {
            eprintln!("   {:<28} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    if traced {
        for m in &spec::PER_LAYER {
            let v = layers.get(m.name).copied().unwrap_or(0.0);
            eprintln!("   {:<36} {:>16.3} {}", m.name, v, m.unit);
        }
    }
}
