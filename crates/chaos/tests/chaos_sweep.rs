//! Tier-1 chaos suite: fault-free control runs, a seeded sweep across all
//! workloads, byte-exact replay determinism, and an env-var replay hook.
//!
//! The sweep is 80 pinned-seed fault schedules — provider and meta-server
//! crashes and full crash-restarts from pstore, read-replica crashes and
//! restarts, VM/reaper pauses, net delays/drops/partitions — over whole
//! workload runs on persistent deployments, each audited by the quiescence
//! invariants.
//!
//! Every failure message carries `(workload, seed)` and the exact command
//! that replays that single run:
//!
//! ```text
//! CHAOS_WORKLOAD=wordcount CHAOS_SEED=17 cargo test -q -p chaos \
//!     --test chaos_sweep replay_from_env -- --nocapture
//! ```

use chaos::{run_chaos, run_quiet, Workload};

/// Seeds per workload: 16 x 5 = 80 faulted runs in the sweep.
fn seeds_for(w: Workload) -> std::ops::Range<u64> {
    match w {
        Workload::Wordcount => 0..16,
        Workload::DataJoin => 0..16,
        Workload::BsfsChurn => 0..16,
        Workload::ReaderStorm => 0..16,
        Workload::ShuffleStorm => 0..16,
    }
}

/// A fault-free chaos run per workload must pass every invariant and
/// tolerate zero errors: anything it reports is a harness bug, not chaos.
#[test]
fn fault_free_runs_are_clean() {
    for w in Workload::ALL {
        let report = run_quiet(w, 1);
        report.assert_clean();
        assert_eq!(
            report.tolerated_errors, 0,
            "fault-free {w} run tolerated errors"
        );
        assert_eq!(report.injections, 0);
        assert_eq!(report.stats.net_fault_hits, 0);
    }
}

#[test]
fn sweep_wordcount() {
    sweep(Workload::Wordcount);
}

#[test]
fn sweep_datajoin() {
    sweep(Workload::DataJoin);
}

#[test]
fn sweep_bsfs_churn() {
    sweep(Workload::BsfsChurn);
}

#[test]
fn sweep_reader_storm() {
    sweep(Workload::ReaderStorm);
}

#[test]
fn sweep_shuffle_storm() {
    sweep(Workload::ShuffleStorm);
}

fn sweep(w: Workload) {
    let mut injections = 0;
    for seed in seeds_for(w) {
        let report = run_chaos(w, seed);
        report.assert_clean();
        injections += report.injections;
    }
    // The sweep must actually exercise faults: a generator regression that
    // silently empties every schedule would otherwise pass vacuously.
    let runs = seeds_for(w).count();
    assert!(
        injections >= runs,
        "{w} sweep injected only {injections} service faults over {runs} runs"
    );
}

/// Same `(workload, seed)` ⇒ identical schedule digest, identical fabric
/// counters (events, transfers, virtual time, fault hits — the whole
/// struct), identical violation list. This is the replay guarantee the
/// failure messages rely on.
#[test]
fn same_seed_replays_byte_identically() {
    for w in Workload::ALL {
        let a = run_chaos(w, 7);
        let b = run_chaos(w, 7);
        assert_eq!(
            a.schedule_digest, b.schedule_digest,
            "{w}: schedule digests diverged"
        );
        assert_eq!(a.stats, b.stats, "{w}: fabric counters diverged on replay");
        assert_eq!(
            a.violations, b.violations,
            "{w}: violations diverged on replay"
        );
        assert_eq!(a.tolerated_errors, b.tolerated_errors);
        let c = run_chaos(w, 8);
        assert_ne!(
            a.schedule_digest, c.schedule_digest,
            "{w}: different seeds produced the same schedule"
        );
    }
}

/// Replay hook: `CHAOS_WORKLOAD=<name> CHAOS_SEED=<n>` reruns exactly one
/// faulted run with its schedule printed. A no-op when the variables are
/// unset, so it is free in normal suite runs.
#[test]
fn replay_from_env() {
    let (Ok(w), Ok(s)) = (std::env::var("CHAOS_WORKLOAD"), std::env::var("CHAOS_SEED")) else {
        return;
    };
    let workload = Workload::parse(&w).unwrap_or_else(|| {
        panic!(
            "unknown CHAOS_WORKLOAD {w:?} \
             (want wordcount|datajoin|bsfs-churn|reader-storm|shuffle-storm)"
        )
    });
    let seed: u64 = s.parse().expect("CHAOS_SEED must be an integer");
    let report = run_chaos(workload, seed);
    println!(
        "replayed workload={workload} seed={seed}: digest={:#x}, {} injections, \
         {} tolerated errors, {} violations",
        report.schedule_digest,
        report.injections,
        report.tolerated_errors,
        report.violations.len()
    );
    report.assert_clean();
}
