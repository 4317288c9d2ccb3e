//! Durability bench — what the durable storage plane costs and buys.
//!
//! The paper's BlobSeer providers persist pages through BerkeleyDB
//! (§3.1.1); its published numbers run with the cache hot, so persistence
//! is a retention cost off the critical path. This bench pins our
//! equivalent in two series:
//!
//! * **retention**: per-append cost of a memory-only vs a pstore-backed
//!   deployment, in wall-clock ns (the real buffered-log write) and
//!   simulated ns (the modeled disk charge on the provider);
//! * **recovery**: crash-wiping and recovering every provider and metadata
//!   server, sweeping the checkpoint cadence — replayed log bytes must
//!   shrink as checkpoints tighten (that is the entire point of
//!   checkpointing), while recovery wall time is recorded for the record.
//!
//! Results land in `BENCH_durability.json`; the DETERMINISTIC currencies
//! are gated against the committed baseline (`bench_suite::baseline`):
//! simulated ns at 1.25x, replayed bytes exactly. Wall-clock is recorded,
//! never gated.

use std::path::PathBuf;
use std::time::Instant;

use bench_suite::{print_table, Baseline, Gate};
use blobseer::{BlobSeer, BlobSeerConfig, Layout};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};

const PS: u64 = 1024;
const APPENDS: usize = 256;
/// Checkpoint cadences swept by the recovery series; 0 encodes "never
/// checkpoint" (recovery replays the whole log).
const CADENCES: [u64; 4] = [0, 64 * 1024, 16 * 1024, 4 * 1024];

struct RetentionPoint {
    persist: bool,
    wall_ns_per_op: f64,
    sim_ns_per_op: f64,
}

struct RecoveryPoint {
    checkpoint_bytes: u64,
    provider_replayed_bytes: u64,
    meta_replayed_bytes: u64,
    recovery_wall_ns: u64,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blobseer-bench-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn deploy(persist_dir: Option<PathBuf>, checkpoint: Option<u64>) -> (Fabric, BlobSeer) {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let layout = Layout::compact(fx.spec());
    let cfg = BlobSeerConfig::test_small(PS)
        .with_persist_dir(persist_dir)
        .with_persist_checkpoint_bytes(checkpoint);
    let bs = BlobSeer::deploy(&fx, cfg, layout).expect("deploy");
    (fx, bs)
}

/// Drive the fixed append workload (real bytes — a durable provider has to
/// retain them) and return (wall ns, sim ns) across all appends.
#[expect(
    clippy::disallowed_methods,
    reason = "reports wall vs sim time on purpose"
)]
fn run_appends(fx: &Fabric, bs: &BlobSeer) -> (u64, u64) {
    let bs2 = bs.clone();
    let h = fx.spawn(NodeId(1), "appender", move |p| {
        let c = bs2.client();
        let blob = c.create(p, None);
        let data: Vec<u8> = (0..PS).map(|i| (i % 251) as u8 + 1).collect();
        let sim0 = p.now();
        let wall0 = Instant::now();
        for _ in 0..APPENDS {
            c.append(p, blob, Payload::from_vec(data.clone())).unwrap();
        }
        (wall0.elapsed().as_nanos() as u64, p.now() - sim0)
    });
    fx.run();
    h.take().unwrap()
}

fn retention_point(persist: bool) -> RetentionPoint {
    let dir = persist.then(|| scratch_dir("retention"));
    let (fx, bs) = deploy(dir.clone(), None);
    let (wall, sim) = run_appends(&fx, &bs);
    drop(bs);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    RetentionPoint {
        persist,
        wall_ns_per_op: wall as f64 / APPENDS as f64,
        sim_ns_per_op: sim as f64 / APPENDS as f64,
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "reports wall-clock recovery cost"
)]
fn recovery_point(checkpoint_bytes: u64) -> RecoveryPoint {
    let dir = scratch_dir(&format!("recovery-{checkpoint_bytes}"));
    let cadence = (checkpoint_bytes > 0).then_some(checkpoint_bytes);
    let (fx, bs) = deploy(Some(dir.clone()), cadence);
    run_appends(&fx, &bs);

    // Kill and recover the full storage plane, summing how much log each
    // service had to replay past its newest checkpoint — the deterministic
    // recovery cost that checkpoint cadence exists to bound.
    let wall0 = Instant::now();
    let mut provider_replayed = 0u64;
    for pr in bs.providers() {
        let stored = pr.stored_bytes();
        pr.crash_wipe().expect("persistent provider wipes");
        provider_replayed += pr.recover().expect("provider recovers");
        assert_eq!(pr.stored_bytes(), stored, "recovery lost pages");
    }
    let mut meta_replayed = 0u64;
    for ms in bs.metadata_dht().servers() {
        ms.crash_wipe().expect("persistent meta server wipes");
        meta_replayed += ms.recover().expect("meta server recovers");
    }
    let recovery_wall_ns = wall0.elapsed().as_nanos() as u64;
    drop(bs);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryPoint {
        checkpoint_bytes,
        provider_replayed_bytes: provider_replayed,
        meta_replayed_bytes: meta_replayed,
        recovery_wall_ns,
    }
}

fn main() {
    let retention: Vec<RetentionPoint> = vec![retention_point(false), retention_point(true)];
    let recovery: Vec<RecoveryPoint> = CADENCES.iter().map(|&c| recovery_point(c)).collect();

    print_table(
        "Durability: per-append retention cost, memory vs pstore backend",
        &["backend", "wall ns/op", "sim ns/op"],
        &retention
            .iter()
            .map(|pt| {
                vec![
                    if pt.persist { "pstore" } else { "mem" }.to_string(),
                    format!("{:.0}", pt.wall_ns_per_op),
                    format!("{:.0}", pt.sim_ns_per_op),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Durability: full-plane crash recovery vs checkpoint cadence",
        &[
            "ckpt bytes",
            "provider replay B",
            "meta replay B",
            "recovery wall ns",
        ],
        &recovery
            .iter()
            .map(|pt| {
                vec![
                    if pt.checkpoint_bytes == 0 {
                        "never".to_string()
                    } else {
                        pt.checkpoint_bytes.to_string()
                    },
                    pt.provider_replayed_bytes.to_string(),
                    pt.meta_replayed_bytes.to_string(),
                    pt.recovery_wall_ns.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    Baseline::new("durability")
        .param("page_size", PS)
        .param("appends", APPENDS)
        .section("retention_series")
        .sweep(&retention)
        .axis("persist", |pt| u8::from(pt.persist))
        .series("wall_ns_per_op", Gate::Record, 1, |pt| pt.wall_ns_per_op)
        .series("sim_ns_per_op", Gate::Lower, 1, |pt| pt.sim_ns_per_op)
        .section("recovery_series")
        .sweep(&recovery)
        .axis("checkpoint_bytes", |pt| pt.checkpoint_bytes)
        .series("provider_replayed_bytes", Gate::Exact, 0, |pt| {
            pt.provider_replayed_bytes
        })
        .series("meta_replayed_bytes", Gate::Exact, 0, |pt| {
            pt.meta_replayed_bytes
        })
        .series("recovery_wall_ns", Gate::Record, 0, |pt| {
            pt.recovery_wall_ns
        })
        .check_and_record("BENCH_durability.json");

    // Acceptance gate on the deterministic currency: the tightest cadence
    // must bound replay to well under the no-checkpoint full-log scan, or
    // checkpointing is not doing its one job.
    let full = recovery.first().expect("no-checkpoint point");
    let tight = recovery.last().expect("tightest-cadence point");
    assert!(
        2 * tight.provider_replayed_bytes <= full.provider_replayed_bytes,
        "checkpoints failed to bound provider replay: {} B at {} B cadence vs {} B unbounded",
        tight.provider_replayed_bytes,
        tight.checkpoint_bytes,
        full.provider_replayed_bytes,
    );
    assert!(
        2 * tight.meta_replayed_bytes <= full.meta_replayed_bytes,
        "checkpoints failed to bound meta replay: {} B at {} B cadence vs {} B unbounded",
        tight.meta_replayed_bytes,
        tight.checkpoint_bytes,
        full.meta_replayed_bytes,
    );
    println!(
        "recovery gates passed: provider replay {} -> {} B, meta replay {} -> {} B (never -> {} B cadence)",
        full.provider_replayed_bytes,
        tight.provider_replayed_bytes,
        full.meta_replayed_bytes,
        tight.meta_replayed_bytes,
        tight.checkpoint_bytes,
    );
}
