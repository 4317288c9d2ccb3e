//! `suite`: every workload several times (one process per run, order
//! alternating), then the traced run; prints every metric by name and writes
//! `results/summary.json`. `repeat`: two such sets of the same build,
//! compared metric by metric against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{sys, Args};

struct RunResult {
    workload: &'static str,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    noisy: bool,
    metrics: BTreeMap<String, f64>,
    /// The child's own record (commit, shape, environment).
    record: Json,
}

/// One workload run in a process of its own.
fn run_child(
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stderr}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    let result = Json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let record = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("run: "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(RunResult {
        workload,
        seed,
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: num("attempted"),
        failed: num("failed"),
        noisy: record.get("noisy").and_then(Json::as_bool) == Some(true),
        metrics: result
            .get("metrics")
            .map(Json::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        record,
    })
}

/// `runs` untraced runs of every workload, run `i` with seed `seed0 + i`,
/// walking the workloads forwards on even runs and backwards on odd ones so
/// that no workload always follows the same neighbour.
fn run_set(runs: u64, seed0: u64, seconds: u64, quick: bool) -> Result<Vec<RunResult>, String> {
    let mut out = Vec::new();
    for i in 0..runs {
        let mut order: Vec<&'static str> = WORKLOADS.iter().map(|w| w.name).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let r = run_child(w, seed0 + i, seconds, false, quick)?;
            eprintln!(
                "  {w:<16} seed {:<5} {} ops, {} failed, correct={}{}  {}",
                r.seed,
                r.attempted,
                r.failed,
                r.correct,
                if r.noisy { " [noisy]" } else { "" },
                END_TO_END
                    .iter()
                    .map(|m| format!(
                        "{}={:.4}",
                        m.name,
                        r.metrics.get(m.name).copied().unwrap_or(0.0)
                    ))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            out.push(r);
        }
    }
    Ok(out)
}

/// Values of one metric on one workload, and whether noisy runs had to be
/// kept: a noisy run (persist directory not on tmpfs, or a loaded machine)
/// is left out of the median whenever a quiet one exists.
fn values_of(set: &[RunResult], workload: &str, metric: &str) -> (Vec<f64>, bool) {
    let of = |keep_noisy: bool| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload && (keep_noisy || !r.noisy))
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let quiet = of(false);
    if quiet.is_empty() {
        (of(true), true)
    } else {
        (quiet, false)
    }
}

pub fn suite(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let runs: u64 = args.num("runs", if quick { 1 } else { 5 })?;
    let seed0: u64 = args.num("seed", 1)?;
    // --quick: one round per run at 1/50 of the operation count.
    let seconds = if quick { 0 } else { spec::RUN_SECONDS };
    eprintln!("suite: {runs} run(s) per workload, {seconds} s each, seeds from {seed0}");
    let set = run_set(runs, seed0, seconds, quick)?;
    eprintln!("suite: traced runs");
    let traced: Vec<RunResult> = WORKLOADS
        .iter()
        .map(|w| run_child(w.name, seed0, seconds, true, quick))
        .collect::<Result<_, _>>()?;

    let mut workloads_json = Vec::new();
    let mut all_correct = true;
    for (w, t) in WORKLOADS.iter().zip(&traced) {
        let mine: Vec<&RunResult> = set.iter().filter(|r| r.workload == w.name).collect();
        let ok = mine.iter().all(|r| r.correct && r.failed == 0) && t.correct;
        all_correct &= ok;
        println!(
            "\n{} — {} run(s), {} ops attempted, {} failed, outputs {}",
            w.name,
            mine.len(),
            mine.iter().map(|r| r.attempted).sum::<u64>(),
            mine.iter().map(|r| r.failed).sum::<u64>(),
            if ok { "correct" } else { "WRONG" },
        );
        let mut e2e = Vec::new();
        let mut all_noisy = false;
        for m in &END_TO_END {
            let (values, noisy) = values_of(&set, w.name, m.name);
            all_noisy |= noisy;
            let med = median(&values);
            let (q1, q3) = if values.len() >= 2 {
                quartiles(&values)
            } else {
                (med, med)
            };
            println!(
                "  {:<18} {:>14.4} {:<5} [q1 {:.4}, q3 {:.4}, n={}]  {} is better, bound {}",
                m.name,
                med,
                m.unit,
                q1,
                q3,
                values.len(),
                m.better,
                m.bound,
            );
            e2e.push((
                m.name,
                obj([
                    ("median", Json::from(med)),
                    ("q1", q1.into()),
                    ("q3", q3.into()),
                    ("samples", values.len().into()),
                ]),
            ));
        }
        if all_noisy {
            println!("  (every run was noisy: persist directory not on tmpfs, or load above 1.0)");
        }
        // End-to-end numbers never come from the traced run; its difference
        // from the untraced median is the cost of tracing.
        let untraced = median(&values_of(&set, w.name, "throughput_mbps").0);
        let traced_mbps = t
            .record
            .get("end_to_end")
            .and_then(|e| e.get("throughput_mbps"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let overhead = 1.0 - traced_mbps / untraced;
        println!("  {:<18} {:>14.4}", "trace_overhead_frac", overhead);
        for m in &PER_LAYER {
            println!(
                "  {:<36} {:>18.3} {}",
                m.name,
                t.metrics.get(m.name).copied().unwrap_or(0.0),
                m.unit
            );
        }
        workloads_json.push(obj([
            ("name", Json::from(w.name)),
            ("correct", ok.into()),
            ("all_runs_noisy", all_noisy.into()),
            ("end_to_end", obj(e2e)),
            ("trace_overhead_frac", overhead.into()),
            (
                "per_layer",
                obj(t.metrics.iter().map(|(k, v)| (k.as_str(), Json::from(*v)))),
            ),
            (
                "runs",
                Json::Arr(mine.iter().map(|r| r.record.clone()).collect()),
            ),
        ]));
    }
    let summary = obj([
        ("quick", Json::from(quick)),
        ("runs_per_workload", runs.into()),
        ("run_seconds", seconds.into()),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    let path = sys::bench_dir().join("results").join("summary.json");
    std::fs::create_dir_all(path.parent().expect("results dir")).map_err(|e| e.to_string())?;
    std::fs::write(&path, summary.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nsummary written to {}", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("an output check failed".into())
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// Metrics of the sim workloads that are functions of the seed alone: they
/// must repeat bit for bit.
fn exact(workload: &str, metric: &str) -> bool {
    workload.starts_with("sim_")
        && matches!(
            metric,
            "throughput_mbps" | "op_p50_ms" | "op_p95_ms" | "space_amp"
        )
}

pub fn repeat(args: &Args) -> Result<(), String> {
    let runs: u64 = args.num("runs", 10)?;
    let seed0: u64 = args.num("seed", 1)?;
    let seconds = spec::RUN_SECONDS;
    let mut sets = Vec::new();
    for label in ["first", "second"] {
        eprintln!("repeat: {label} set, {runs} run(s) per workload, seeds from {seed0}");
        sets.push(run_set(runs, seed0, seconds, false)?);
    }
    let (a, b) = (&sets[0], &sets[1]);
    let mut failures = Vec::new();
    if let Some(r) = a.iter().chain(b).find(|r| !r.correct || r.failed > 0) {
        failures.push(format!(
            "{} seed {}: output check failed",
            r.workload, r.seed
        ));
    }
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>9} {:>9} {:>6}",
        "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, _) = values_of(a, w.name, m.name);
            let (vb, _) = values_of(b, w.name, m.name);
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (spread(&va), spread(&vb));
            // Either set may be the worse one.
            let worse = worsening(m, ma, mb).max(worsening(m, mb, ma));
            let mut verdict = "";
            if exact(w.name, m.name) {
                let pairs = a
                    .iter()
                    .filter(|r| r.workload == w.name)
                    .zip(b.iter().filter(|r| r.workload == w.name));
                if pairs.into_iter().any(|(x, y)| {
                    x.metrics.get(m.name).map(|v| v.to_bits())
                        != y.metrics.get(m.name).map(|v| v.to_bits())
                }) {
                    verdict = "  NOT EXACT";
                    failures.push(format!(
                        "{} {}: differs between runs of one seed",
                        w.name, m.name
                    ));
                }
            } else if worse > m.bound {
                verdict = "  OUT OF BOUND";
                failures.push(format!(
                    "{} {}: medians {ma} and {mb} differ by {worse:.3}, bound {}",
                    w.name, m.name, m.bound
                ));
            } else if m.name != "setup_s" && sa.max(sb) > m.bound {
                // The driver refuses a spread beyond the bound; show it here
                // rather than find out there.
                verdict = "  SPREAD OVER BOUND";
                failures.push(format!(
                    "{} {}: spread {:.3} exceeds bound {}",
                    w.name,
                    m.name,
                    sa.max(sb),
                    m.bound
                ));
            }
            println!(
                "{:<16} {:<16} {:>12.4} {:>12.4} {:>9.4} {:>9.4} {:>9.4} {:>6}{}",
                w.name, m.name, ma, mb, sa, sb, worse, m.bound, verdict
            );
        }
    }
    if failures.is_empty() {
        println!("\nrepeat: both sets agree within every bound");
        Ok(())
    } else {
        Err(format!(
            "repeat found {} problem(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}
