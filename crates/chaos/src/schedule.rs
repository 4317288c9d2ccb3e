//! Seeded fault schedules: a [`ChaosSchedule`] is a deterministic function
//! of `(ChaosConfig, seed)` — the same seed always produces the byte-same
//! schedule, so any chaos failure replays exactly from its seed.
//!
//! A schedule is a time-ordered list of events over a fault *budget*:
//! service crash/pause windows (each `Inject` paired with a `Heal`, all
//! healed before the horizon) plus windowed network faults (delays, drops,
//! transient partitions — self-expiring by construction). The generator
//! enforces the survivability constraints the workloads rely on:
//!
//! * per-target windows never overlap (heals are flag flips, not
//!   reference-counted — overlapping windows on one target would heal
//!   early);
//! * at most `max_concurrent_provider_crashes` providers are down at any
//!   instant (callers set this to `replication - 1`, so every page keeps a
//!   live replica);
//! * network fault windows are bounded by `max_net_fault_ns` (callers keep
//!   this far under the write timeout, so a stalled transfer never expires
//!   a reservation lease).

use blobseer::{Fault, FaultTarget};
use fabric::{NetFault, NodeId, NodeSet, MILLIS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain-separates the schedule RNG from the fabric's own seed streams.
const SCHEDULE_SALT: u64 = 0x5EED_5C4E_D01E_0001;

/// Fault budget for one chaos run. Counts are *attempts*: a draw that would
/// violate an overlap constraint is retried a few times, then dropped, so
/// the realized schedule may be slightly smaller.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// All fault windows fall inside `[0, horizon_ns)`.
    pub horizon_ns: u64,
    /// Nodes in the cluster (network fault endpoints are drawn from these).
    pub nodes: u32,
    /// Data providers in the deployment (crash targets).
    pub providers: usize,
    /// Metadata servers in the deployment (crash targets).
    pub meta_servers: usize,
    /// Provider crash/revive windows to attempt.
    pub provider_crashes: usize,
    /// Hard cap on simultaneously-crashed providers (`replication - 1` for
    /// read survivability; 0 disables provider crashes entirely).
    pub max_concurrent_provider_crashes: usize,
    /// Meta-server crash windows to attempt (only error-tolerant workloads
    /// should allow these — a metadata outage fails in-flight writes).
    pub meta_crashes: usize,
    /// Version-manager pause windows to attempt.
    pub vm_pauses: usize,
    /// Reaper pause windows to attempt.
    pub reaper_pauses: usize,
    /// Provider crash-restart windows to attempt (`Fault::CrashRestart`:
    /// the process loses all memory, the heal restarts it from its pstore
    /// directory). Only meaningful on persistent deployments; counts
    /// against the same concurrency cap as plain provider crashes — a wiped
    /// provider is just as down as a crashed one.
    pub provider_restarts: usize,
    /// Meta-server crash-restart windows to attempt (persistent
    /// deployments; a metadata outage fails in-flight writes, so only
    /// error-tolerant workloads should allow these).
    pub meta_restarts: usize,
    /// Dedicated read replicas in the deployment (crash targets for the
    /// replica fault classes; 0 when the layout runs none).
    pub read_replicas: usize,
    /// Read-replica crash windows to attempt. Losing a replica only
    /// degrades read capacity — reads fail over to the primaries — so these
    /// never count against the provider crash concurrency cap.
    pub replica_crashes: usize,
    /// Read-replica crash-restart windows to attempt (persistent
    /// deployments; the wiped replica recovers its durable pages on heal
    /// and the next background sync round re-copies the rest).
    pub replica_restarts: usize,
    /// Network fault windows (delay / drop / partition) to attempt.
    pub net_faults: usize,
    /// Map-output-loss events to attempt (a node's shuffle spool is wiped
    /// mid-job; the jobtracker re-queues the buried tasks). Instantaneous —
    /// no heal window. Applied by MapReduce workload drivers via
    /// `MrCluster::lose_map_outputs`; the generic injector skips them.
    pub map_output_losses: usize,
    /// Service fault windows last `[max/4, max]` of this.
    pub max_service_fault_ns: u64,
    /// Network fault windows last `[max/4, max]` of this. Keep far below
    /// the write timeout: a partition stalls transfers for its whole window.
    pub max_net_fault_ns: u64,
}

impl ChaosConfig {
    /// A budget with every fault class disabled (fault-free control runs).
    pub(crate) fn quiet(
        horizon_ns: u64,
        nodes: u32,
        providers: usize,
        meta_servers: usize,
    ) -> Self {
        ChaosConfig {
            horizon_ns,
            nodes,
            providers,
            meta_servers,
            provider_crashes: 0,
            max_concurrent_provider_crashes: 0,
            meta_crashes: 0,
            vm_pauses: 0,
            reaper_pauses: 0,
            provider_restarts: 0,
            meta_restarts: 0,
            read_replicas: 0,
            replica_crashes: 0,
            replica_restarts: 0,
            net_faults: 0,
            map_output_losses: 0,
            max_service_fault_ns: 200 * MILLIS,
            max_net_fault_ns: 50 * MILLIS,
        }
    }
}

/// One scheduled action.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Inject a service fault (always paired with a later [`Self::Heal`]).
    Inject(FaultTarget, Fault),
    /// Heal a previously injected service fault.
    Heal(FaultTarget),
    /// Install a windowed network fault (self-expiring).
    Net(NetFault),
    /// Wipe a node's map-output spool (instantaneous, no heal). Only
    /// MapReduce workload drivers act on this; the injector skips it.
    LoseMapOutputs(NodeId),
}

/// An action at a point in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    pub at_ns: u64,
    pub action: ChaosAction,
}

/// A deterministic, time-ordered fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    pub seed: u64,
    pub events: Vec<ChaosEvent>,
}

/// A service fault window accepted by the generator.
struct Window {
    target: FaultTarget,
    fault: Fault,
    start: u64,
    end: u64,
}

fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

impl ChaosSchedule {
    /// Generate the schedule for `(cfg, seed)`. Pure function of its
    /// arguments: same inputs, byte-same schedule.
    pub(crate) fn generate(cfg: &ChaosConfig, seed: u64) -> ChaosSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ SCHEDULE_SALT);
        let mut windows: Vec<Window> = Vec::new();
        let draw_window = |rng: &mut StdRng, max_ns: u64| -> (u64, u64) {
            let lo = (max_ns / 4).max(1);
            let dur = rng.gen_range(lo..max_ns.max(lo + 1));
            let latest_start = cfg.horizon_ns.saturating_sub(dur).max(1);
            let start = rng.gen_range(0..latest_start);
            (start, start + dur)
        };

        // Service fault windows, one class at a time. Draw order is part of
        // the schedule's identity — never reorder these; new classes are
        // only ever APPENDED, so a budget that zeroes them reproduces the
        // schedules generated before they existed.
        let classes: [(usize, Fault); 8] = [
            (cfg.provider_crashes, Fault::Crash),
            (cfg.meta_crashes, Fault::Crash),
            (cfg.vm_pauses, Fault::Pause),
            (cfg.reaper_pauses, Fault::Pause),
            (cfg.provider_restarts, Fault::CrashRestart),
            (cfg.meta_restarts, Fault::CrashRestart),
            (cfg.replica_crashes, Fault::Crash),
            (cfg.replica_restarts, Fault::CrashRestart),
        ];
        for (class, &(count, fault)) in classes.iter().enumerate() {
            for _ in 0..count {
                for _attempt in 0..8 {
                    let target = match class {
                        // A wiped provider is as down as a crashed one:
                        // restarts share the crash concurrency cap so every
                        // page keeps a live replica either way.
                        0 | 4 => {
                            if cfg.providers == 0 || cfg.max_concurrent_provider_crashes == 0 {
                                break;
                            }
                            FaultTarget::Provider(rng.gen_range(0..cfg.providers))
                        }
                        1 | 5 => {
                            if cfg.meta_servers == 0 {
                                break;
                            }
                            FaultTarget::MetaServer(rng.gen_range(0..cfg.meta_servers))
                        }
                        2 => FaultTarget::VersionManager,
                        3 => FaultTarget::Reaper,
                        // Replica faults never touch durability (primaries
                        // keep every byte), so they skip the provider
                        // concurrency cap entirely.
                        _ => {
                            if cfg.read_replicas == 0 {
                                break;
                            }
                            FaultTarget::ReadReplica(rng.gen_range(0..cfg.read_replicas))
                        }
                    };
                    let (start, end) = draw_window(&mut rng, cfg.max_service_fault_ns);
                    let same_target_clash = windows
                        .iter()
                        .any(|w| w.target == target && overlaps((w.start, w.end), (start, end)));
                    let concurrent_provider_crashes = windows
                        .iter()
                        .filter(|w| {
                            matches!(w.target, FaultTarget::Provider(_))
                                && overlaps((w.start, w.end), (start, end))
                        })
                        .count();
                    let provider_cap_hit = matches!(target, FaultTarget::Provider(_))
                        && concurrent_provider_crashes >= cfg.max_concurrent_provider_crashes;
                    if same_target_clash || provider_cap_hit {
                        continue;
                    }
                    windows.push(Window {
                        target,
                        fault,
                        start,
                        end,
                    });
                    break;
                }
            }
        }

        let mut events: Vec<ChaosEvent> = Vec::new();
        for w in &windows {
            events.push(ChaosEvent {
                at_ns: w.start,
                action: ChaosAction::Inject(w.target, w.fault),
            });
            events.push(ChaosEvent {
                at_ns: w.end,
                action: ChaosAction::Heal(w.target),
            });
        }

        // Network fault windows: self-expiring, so no pairing or overlap
        // bookkeeping needed. Partitions are kept node<->node (never
        // node<->Any) so no service is ever fully unreachable.
        for _ in 0..cfg.net_faults {
            if cfg.nodes < 2 {
                break;
            }
            let (from, until) = {
                let lo = (cfg.max_net_fault_ns / 4).max(1);
                let dur = rng.gen_range(lo..cfg.max_net_fault_ns.max(lo + 1));
                let start = rng.gen_range(0..cfg.horizon_ns.saturating_sub(dur).max(1));
                (start, start + dur)
            };
            let a = NodeId(rng.gen_range(0..cfg.nodes));
            let mut b = NodeId(rng.gen_range(0..cfg.nodes));
            while b == a {
                b = NodeId(rng.gen_range(0..cfg.nodes));
            }
            let fault = match rng.gen_range(0..3u32) {
                0 => NetFault::delay(
                    from,
                    until,
                    NodeSet::One(a),
                    NodeSet::Any,
                    rng.gen_range(MILLIS..5 * MILLIS),
                ),
                1 => NetFault::drop(
                    from,
                    until,
                    NodeSet::One(a),
                    NodeSet::Any,
                    rng.gen_range(0.05..0.30),
                    rng.gen_range(MILLIS..3 * MILLIS),
                ),
                _ => NetFault::partition(from, until, NodeSet::One(a), NodeSet::One(b)),
            };
            events.push(ChaosEvent {
                at_ns: from,
                action: ChaosAction::Net(fault),
            });
        }

        // Map-output losses: instantaneous wipes of one node's shuffle
        // spool, drawn APPENDED to every earlier class so a zero budget
        // reproduces pre-existing schedules byte-for-byte.
        for _ in 0..cfg.map_output_losses {
            if cfg.nodes == 0 {
                break;
            }
            let at_ns = rng.gen_range(0..cfg.horizon_ns.max(1));
            let node = NodeId(rng.gen_range(0..cfg.nodes));
            events.push(ChaosEvent {
                at_ns,
                action: ChaosAction::LoseMapOutputs(node),
            });
        }

        // Stable sort: simultaneous events keep generation order.
        events.sort_by_key(|e| e.at_ns);
        ChaosSchedule { seed, events }
    }

    /// Human-readable rendering, one line per event. This text *is* the
    /// schedule's identity: [`Self::digest`] hashes it.
    pub(crate) fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "chaos schedule seed={:#x}", self.seed);
        for ev in &self.events {
            match &ev.action {
                ChaosAction::Inject(t, f) => {
                    let _ = writeln!(out, "  t={:>12}ns inject {t} {f}", ev.at_ns);
                }
                ChaosAction::Heal(t) => {
                    let _ = writeln!(out, "  t={:>12}ns heal   {t}", ev.at_ns);
                }
                ChaosAction::Net(nf) => {
                    let _ = writeln!(out, "  t={:>12}ns net    {nf:?}", ev.at_ns);
                }
                ChaosAction::LoseMapOutputs(n) => {
                    let _ = writeln!(out, "  t={:>12}ns lose-map-outputs node{}", ev.at_ns, n.0);
                }
            }
        }
        out
    }

    /// FNV-1a over [`Self::render`]: a stable fingerprint for replay
    /// assertions ("same seed, same schedule").
    pub(crate) fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Number of service fault injections (not heals, not net faults).
    pub(crate) fn injections(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Inject(..)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_cfg() -> ChaosConfig {
        ChaosConfig {
            horizon_ns: 2_000 * MILLIS,
            nodes: 8,
            providers: 6,
            meta_servers: 2,
            provider_crashes: 3,
            max_concurrent_provider_crashes: 1,
            meta_crashes: 2,
            vm_pauses: 2,
            reaper_pauses: 1,
            provider_restarts: 2,
            meta_restarts: 1,
            read_replicas: 2,
            replica_crashes: 2,
            replica_restarts: 1,
            net_faults: 5,
            map_output_losses: 2,
            max_service_fault_ns: 200 * MILLIS,
            max_net_fault_ns: 50 * MILLIS,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = busy_cfg();
        let a = ChaosSchedule::generate(&cfg, 42);
        let b = ChaosSchedule::generate(&cfg, 42);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.digest(), b.digest());
        let c = ChaosSchedule::generate(&cfg, 43);
        assert_ne!(a.digest(), c.digest(), "different seeds must differ");
    }

    #[test]
    fn every_injection_is_healed_inside_the_horizon() {
        let cfg = busy_cfg();
        for seed in 0..50 {
            let s = ChaosSchedule::generate(&cfg, seed);
            let mut open: Vec<FaultTarget> = Vec::new();
            for ev in &s.events {
                assert!(ev.at_ns < cfg.horizon_ns, "event past horizon");
                match &ev.action {
                    ChaosAction::Inject(t, _) => {
                        assert!(!open.contains(t), "overlapping windows on {t}");
                        open.push(*t);
                    }
                    ChaosAction::Heal(t) => {
                        let i = open.iter().position(|x| x == t).expect("heal w/o inject");
                        open.remove(i);
                    }
                    ChaosAction::Net(nf) => {
                        assert!(nf.until_ns <= cfg.horizon_ns, "net window past horizon");
                    }
                    ChaosAction::LoseMapOutputs(_) => {} // instantaneous, no heal
                }
            }
            assert!(open.is_empty(), "unhealed faults at horizon: {open:?}");
        }
    }

    #[test]
    fn provider_crash_concurrency_never_exceeds_cap() {
        // Crash-restart windows count against the same cap: a wiped
        // provider is down exactly like a crashed one.
        let mut cfg = busy_cfg();
        cfg.provider_crashes = 6;
        cfg.provider_restarts = 6;
        for seed in 0..50 {
            let s = ChaosSchedule::generate(&cfg, seed);
            let mut down = 0usize;
            for ev in &s.events {
                match &ev.action {
                    ChaosAction::Inject(FaultTarget::Provider(_), _) => {
                        down += 1;
                        assert!(down <= cfg.max_concurrent_provider_crashes);
                    }
                    ChaosAction::Heal(FaultTarget::Provider(_)) => down -= 1,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn zero_restart_budget_reproduces_pre_restart_schedules() {
        // The restart classes were APPENDED to the draw sequence, so a
        // budget that zeroes them must leave the RNG stream — and hence the
        // whole schedule — untouched relative to a config that never knew
        // about them.
        let mut with = busy_cfg();
        with.provider_restarts = 0;
        with.meta_restarts = 0;
        with.replica_restarts = 0;
        for seed in 0..20 {
            let s = ChaosSchedule::generate(&with, seed);
            assert!(s
                .events
                .iter()
                .all(|e| !matches!(e.action, ChaosAction::Inject(_, Fault::CrashRestart))));
        }
    }

    #[test]
    fn restart_budgets_draw_crash_restart_windows() {
        let cfg = busy_cfg();
        let mut saw_provider = false;
        let mut saw_meta = false;
        for seed in 0..20 {
            let s = ChaosSchedule::generate(&cfg, seed);
            for ev in &s.events {
                match ev.action {
                    ChaosAction::Inject(FaultTarget::Provider(_), Fault::CrashRestart) => {
                        saw_provider = true;
                    }
                    ChaosAction::Inject(FaultTarget::MetaServer(_), Fault::CrashRestart) => {
                        saw_meta = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_provider, "provider restarts never drawn in 20 seeds");
        assert!(saw_meta, "meta restarts never drawn in 20 seeds");
    }

    #[test]
    fn replica_budgets_draw_replica_windows() {
        let cfg = busy_cfg();
        let (mut crashes, mut restarts) = (false, false);
        for seed in 0..20 {
            let s = ChaosSchedule::generate(&cfg, seed);
            for ev in &s.events {
                if let ChaosAction::Inject(FaultTarget::ReadReplica(i), f) = ev.action {
                    assert!(i < cfg.read_replicas, "replica index out of range");
                    match f {
                        Fault::Crash => crashes = true,
                        Fault::CrashRestart => restarts = true,
                        Fault::Pause => panic!("replica pause is unsupported"),
                    }
                }
            }
        }
        assert!(crashes, "replica crashes never drawn in 20 seeds");
        assert!(restarts, "replica restarts never drawn in 20 seeds");
    }

    #[test]
    fn zero_replica_budget_draws_no_replica_faults() {
        // The replica classes were APPENDED to the draw sequence (schedule
        // identity is append-only): a budget that zeroes them must produce
        // schedules with no replica events at all.
        let mut cfg = busy_cfg();
        cfg.replica_crashes = 0;
        cfg.replica_restarts = 0;
        for seed in 0..20 {
            let s = ChaosSchedule::generate(&cfg, seed);
            assert!(s.events.iter().all(|e| !matches!(
                e.action,
                ChaosAction::Inject(FaultTarget::ReadReplica(_), _)
            )));
        }
    }

    #[test]
    fn map_output_loss_budget_draws_losses_and_zero_budget_draws_none() {
        let cfg = busy_cfg();
        let mut seen = false;
        for seed in 0..20 {
            let s = ChaosSchedule::generate(&cfg, seed);
            for ev in &s.events {
                if let ChaosAction::LoseMapOutputs(n) = ev.action {
                    assert!(n.0 < cfg.nodes, "loss node out of range");
                    seen = true;
                }
            }
        }
        assert!(seen, "map-output losses never drawn in 20 seeds");

        // The class was APPENDED to the draw sequence: a zero budget must
        // reproduce pre-existing schedules byte-for-byte.
        let mut without = busy_cfg();
        without.map_output_losses = 0;
        for seed in 0..20 {
            let a = ChaosSchedule::generate(&without, seed);
            assert!(a
                .events
                .iter()
                .all(|e| !matches!(e.action, ChaosAction::LoseMapOutputs(_))));
        }
    }

    #[test]
    fn quiet_config_yields_empty_schedule() {
        let s = ChaosSchedule::generate(&ChaosConfig::quiet(MILLIS, 8, 6, 2), 7);
        assert!(s.events.is_empty());
        assert_eq!(s.injections(), 0);
    }
}
