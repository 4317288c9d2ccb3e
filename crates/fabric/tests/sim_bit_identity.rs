//! The sim engine's schedule, pinned to literals.
//!
//! Every virtual number in the repo (eight `BENCH_*.json` baselines, the
//! chaos sweep's schedule digests, the `sim_*` benchmark workloads) rests on
//! one property of `fabric::sim`: valid events are processed in `(time, seq)`
//! order, `seq` being the order in which they were scheduled. A change that
//! only makes the engine cheaper on the host must leave that order — and so
//! every number below — exactly as it is. The literals were recorded at the
//! commit *before* flow completions left the event heap (PR 15); a diff here
//! means schedules moved, not that the test needs re-recording. (The two
//! places re-recorded since, for a model bugfix, say so at the literal.)

use std::sync::Arc;

use fabric::sync::{Gate, Queue};
use fabric::topology::{ResourceKind, RES_PER_NODE};
use fabric::{run_parallel, ClusterSpec, Fabric, NetFault, NodeId, NodeSet, TaskFn, MILLIS};
use parking_lot::Mutex;

const NODES: u32 = 12;
const SENDERS: u32 = 36;

/// 36 senders whose flows share 8 TX links, 3 RX links and a backplane, in
/// groups of equal size started at equal instants (tied ETAs); latency-only
/// RPCs; a lossy window (seeded draws) over part of the run; a queue fan-in,
/// a gate fan-out, a replication chain and two levels of `run_parallel`.
fn scenario() -> (fabric::FabricStats, Vec<u64>, Vec<u32>) {
    let spec = ClusterSpec::tiny(NODES).with_backplane(Some(4.0 * 117.0e6));
    let fx = Fabric::sim_seeded(spec, 0x5EED_0015);
    fx.inject_net_fault(NetFault::drop(
        2 * MILLIS,
        400 * MILLIS,
        NodeSet::Group(vec![NodeId(0), NodeId(1), NodeId(2)]),
        NodeSet::Any,
        0.5,
        3 * MILLIS,
    ));

    let arrivals: Queue<u32> = fx.queue();
    let all_in: Gate = fx.gate();
    let mut handles = Vec::new();

    for i in 0..SENDERS {
        let q = arrivals.clone();
        handles.push(fx.spawn(NodeId(i % 8), format!("send{i}"), move |p| {
            p.sleep((i % 4) as u64 * MILLIS);
            p.rpc(NodeId(11), 200, 300);
            p.send_to(NodeId(8 + i % 3), 2_000_000 * (1 + (i % 3) as u64));
            if i % 6 == 0 {
                p.transfer_chain(&[p.node(), NodeId(9), NodeId(10), NodeId(11)], 1_500_000);
            }
            q.send(i);
            p.now()
        }));
    }

    let order = Arc::new(Mutex::new(Vec::new()));
    let (q, g, o) = (arrivals, all_in.clone(), order.clone());
    handles.push(fx.spawn(NodeId(11), "collector", move |p| {
        for _ in 0..SENDERS {
            let i = q.recv(p).expect("queue stays open");
            o.lock().push(i);
        }
        g.set();
        p.now()
    }));

    for w in 0..4u32 {
        let g = all_in.clone();
        handles.push(fx.spawn(NodeId(w), format!("fan{w}"), move |p| {
            g.wait(p);
            let outer: Vec<TaskFn<u64>> = (0..3u32)
                .map(|a| {
                    Box::new(move |p: &fabric::Proc| {
                        let inner: Vec<TaskFn<u64>> = (0..2u32)
                            .map(|b| {
                                Box::new(move |p: &fabric::Proc| {
                                    p.disk_write(p.node(), 1_000_000);
                                    p.compute(p.node(), 50_000_000);
                                    p.fetch_from(NodeId(8 + (a + b) % 3), 3_000_000);
                                    p.transfer(p.node(), p.node(), 5_000_000);
                                    p.now()
                                }) as TaskFn<u64>
                            })
                            .collect();
                        run_parallel(p, "inner", inner).into_iter().sum()
                    }) as TaskFn<u64>
                })
                .collect();
            run_parallel(p, "outer", outer).into_iter().sum::<u64>() + p.now()
        }));
    }

    fx.run();
    let finish = handles
        .iter()
        .map(|h| h.take().expect("proc finished"))
        .collect();
    let order = order.lock().clone();
    (fx.stats(), finish, order)
}

/// Per-kind totals of `per_resource` (Tx, Rx, Disk, Cpu, Loopback, backplane).
fn kind_sums(per_resource: &[f64]) -> [f64; 6] {
    let mut sums = [0.0; 6];
    let per_node = NODES as usize * RES_PER_NODE;
    for (i, v) in per_resource.iter().enumerate() {
        sums[if i < per_node { i % RES_PER_NODE } else { 5 }] += v;
    }
    sums
}

#[test]
fn schedule_is_bit_identical_to_the_recorded_one() {
    let (stats, finish, order) = scenario();
    assert_eq!(
        (stats.events, stats.now_ns, stats.transfers, stats.flows),
        (444, 1_078_185_903, 162, 138),
        "FabricStats {{ events, now_ns, transfers, flows }}"
    );
    assert_eq!(stats.net_fault_hits, 3);
    assert_eq!(stats.bytes_requested, 345_018_000.0);
    assert_eq!(
        kind_sums(&stats.per_resource),
        [
            243000000.83444118,
            // Re-recorded (…118 → …113) with the finish times below: the chain
            // flows start 100 µs earlier, so the RX settle steps round apart.
            243000000.83444113,
            24000001.599999998,
            1200000007.9999998,
            120000007.99999999,
            225000000.76455894,
        ]
    );
    // 36 senders, the collector, then the four fan-out procs (whose value is
    // the sum of their six workers' finish times plus their own). Senders 0,
    // 6, … 30 (the first column) were re-recorded 100 000 ns earlier when
    // `transfer_chain` stopped counting the backplane as half a hop: their
    // 3-hop chain pays 3 × 100 µs of latency, not ⌊9 / 2⌋ = 4.
    #[rustfmt::skip]
    let recorded_finish: [u64; 41] = [
        433111796, 485824943, 692275875, 205778206, 483524943, 691275875,
        435911796, 487324943, 689475875, 204444872, 487870398, 692775875,
        432392565, 485824943, 692275875, 205778206, 484024943, 691275875,
        435911796, 487324943, 688925875, 204444872, 486824943, 692775875,
        433111796, 485824943, 692957694, 205778206, 483524943, 691275875,
        435911796, 487324943, 689475875, 204444872, 486824943, 692775875,
        692957694,
        7547301321, 7547301321, 7547301321, 7547301321,
    ];
    assert_eq!(finish, recorded_finish, "per-proc finish times");
    #[rustfmt::skip]
    let recorded_order: [u32; 36] = [
        9, 21, 33, 3, 15, 27, 12, 0, 24, 6, 18, 30, 4, 28, 16, 1, 13, 25,
        22, 34, 7, 19, 31, 10, 20, 8, 32, 5, 17, 29, 2, 14, 11, 23, 35, 26,
    ];
    assert_eq!(order, recorded_order, "queue arrival order");
}

/// Wakes through a queue and a gate, in the order the woken procs ran:
/// four receivers block at staggered instants, an item sent from the main
/// thread before `run` is waiting for the first, a proc sends five more
/// (two pairs back to back, so one send wakes one receiver in FIFO order)
/// and closes the queue with two receivers still blocked; three procs park
/// on a gate and a fourth reaches it after `set`.
fn queue_and_gate_transcript() -> Vec<String> {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(8), 0x5EED_0029);
    let log = Arc::new(Mutex::new(Vec::new()));
    let q: Queue<u32> = fx.queue();
    let g: Gate = fx.gate();
    assert!(q.send(100), "the main thread sends before run");

    for r in 0..4u32 {
        let (q, log) = (q.clone(), log.clone());
        fx.spawn(NodeId(r), format!("recv{r}"), move |p| {
            p.sleep(r as u64 * MILLIS);
            loop {
                let got = q.recv(p);
                log.lock().push(format!("recv{r} {got:?} at {}", p.now()));
                if got.is_none() {
                    return;
                }
                p.sleep((3 + 4 * r as u64) * MILLIS);
            }
        });
    }
    let (q2, g2) = (q.clone(), g.clone());
    fx.spawn(NodeId(4), "sender", move |p| {
        p.sleep(5 * MILLIS);
        for batch in [&[1, 2][..], &[3], &[4, 5]] {
            for &i in batch {
                assert!(q2.send(i));
            }
            p.sleep(2 * MILLIS);
        }
        g2.set();
        p.sleep(6 * MILLIS);
        q2.close();
        assert!(!q2.send(6), "a closed queue refuses");
    });
    for w in 0..4u32 {
        let (g, log) = (g.clone(), log.clone());
        let arrive = if w < 3 { w as u64 } else { 20 } * MILLIS;
        fx.spawn(NodeId(5 + w % 3), format!("gate{w}"), move |p| {
            p.sleep(arrive);
            g.wait(p);
            log.lock().push(format!("gate{w} through at {}", p.now()));
        });
    }
    fx.run();
    let mut out = log.lock().clone();
    let s = fx.stats();
    out.push(format!("events {} now {}", s.events, fx.now()));
    out
}

#[test]
fn queue_and_gate_wakes_are_pinned() {
    // recv3 and recv0 both block at 3 ms, recv3 first (its sleep was
    // scheduled before recv0's); item 5 finds no waiter and stays buffered
    // until recv1 comes back; `close` at 17 ms wakes recv0 and recv2.
    let recorded = [
        "recv0 Some(100) at 0",
        "recv1 Some(1) at 5000000",
        "recv2 Some(2) at 5000000",
        "recv3 Some(3) at 7000000",
        "recv0 Some(4) at 9000000",
        "gate0 through at 11000000",
        "gate1 through at 11000000",
        "gate2 through at 11000000",
        "recv1 Some(5) at 12000000",
        "recv0 None at 17000000",
        "recv2 None at 17000000",
        "recv1 None at 19000000",
        "gate3 through at 20000000",
        "recv3 None at 22000000",
        "events 37 now 22000000",
    ];
    assert_eq!(queue_and_gate_transcript(), recorded);
}

/// Symmetric flows through one TX link all run out at the same instant; the
/// engine must complete them in flow-id order — the order the flows were
/// *started* in, here deliberately not the order of the procs' labels.
#[test]
fn tied_flows_complete_in_flow_id_order() {
    let start_order = [5u32, 2, 7, 0, 3, 6, 1, 4];
    let spec = ClusterSpec::tiny(9);
    let tx = spec.resource(NodeId(0), ResourceKind::Tx) as usize;
    let fx = Fabric::sim(spec);
    let done = Arc::new(Mutex::new(Vec::new()));
    for label in start_order {
        let d = done.clone();
        // Spawn order is wake order at t = 0, hence flow-id order.
        fx.spawn(NodeId(0), format!("tied{label}"), move |p| {
            p.send_to(NodeId(1 + label), 8_000_000);
            d.lock().push((label, p.now()));
        });
    }
    fx.run();
    let done = done.lock().clone();
    let labels: Vec<u32> = done.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, start_order);
    assert!(
        done.iter().all(|&(_, t)| t == done[0].1),
        "symmetric flows must tie: {done:?}"
    );
    // Recorded, like the order: settle charges `rate * dt` of the last step
    // in full, so the link's counter runs a fraction of a byte over.
    assert_eq!(fx.stats().per_resource[tx], 64_000_000.116);
}

/// Flows that start after earlier flows finished out of id order. Five
/// flows on separate links finish in the order 2, 0, 4, 1, 3, which frees
/// their places in an order that no reuse policy (last in first out, or
/// first in first out) maps back to id order. At 100 ms a second wave
/// starts at one instant: a cut-through chain, seven tied flows out of
/// node 0's TX link (two of them into node 9) and five flows from other
/// nodes into node 9. Node 0's TX and node 9's RX then offer the same
/// share, so the tie-break between resources decides which freezes first;
/// the tied flows must complete in flow-id order; and every resource adds
/// up its flows' work in flow-id order.
#[test]
fn flows_that_reuse_a_finished_flows_place_keep_flow_id_order() {
    let spec = ClusterSpec::tiny(16).with_backplane(Some(4.0 * 117.0e6));
    let latency = spec.latency_ns;
    let fx = Fabric::sim(spec.clone());
    let done = Arc::new(Mutex::new(Vec::new()));
    let spawn = |name: String, src: u32, path: Vec<u32>, delay: u64, mb: u64| {
        let d = done.clone();
        fx.spawn(NodeId(src), name.clone(), move |p| {
            p.sleep(delay);
            let path: Vec<NodeId> = path.into_iter().map(NodeId).collect();
            p.transfer_chain(&path, mb * 1_000_000);
            d.lock().push((name, p.now()));
        });
    };
    for (i, mb) in [2, 4, 1, 5, 3].into_iter().enumerate() {
        let i = i as u32;
        spawn(format!("first{i}"), i, vec![i, 5 + i], 0, mb);
    }
    // Flows that start at one instant get their ids in spawn order. The
    // chain pays two latencies, so it sleeps one less to start with the
    // rest. `into9_0` starts fourth: if finished places are reused last
    // freed first, it lands in place 0, where a walk in place order would
    // reach node 9's RX before node 0's TX.
    let start = 100 * MILLIS;
    spawn("chain".into(), 1, vec![1, 5, 6], start - latency, 6);
    let into9 = [(2, 4), (3, 1), (4, 5), (7, 2), (8, 3)];
    let to9 = |k: usize| {
        let (src, mb) = into9[k];
        spawn(format!("into9_{k}"), src, vec![src, 9], start, mb);
    };
    for t in 0..7u32 {
        let dst = if t < 2 { 9 } else { 8 + t };
        spawn(format!("tied{t}"), 0, vec![0, dst], start, 8);
        if t == 1 {
            to9(0);
        }
    }
    (1..into9.len()).for_each(to9);
    fx.run();

    let done = done.lock().clone();
    let names: Vec<&str> = done.iter().map(|(n, _)| n.as_str()).collect();
    #[rustfmt::skip]
    let recorded_names = [
        "first2", "first0", "first4", "first1", "first3",
        "chain", "into9_1", "into9_3", "into9_4", "into9_0", "into9_2",
        "tied0", "tied1", "tied2", "tied3", "tied4", "tied5", "tied6",
    ];
    assert_eq!(names, recorded_names, "completion order");
    let times: Vec<u64> = done.iter().map(|&(_, t)| t).collect();
    #[rustfmt::skip]
    let recorded_times = [
        10783761, 19330770, 27877778, 36424787, 44971795,
        151382052, 159929060, 207792308, 243689744, 267621368, 279587180,
    ];
    assert_eq!(times[..11], recorded_times, "completion instants");
    let tie = 578_732_479;
    assert!(times[11..].iter().all(|&t| t == tie), "the tie: {times:?}");

    let s = fx.stats();
    assert_eq!((s.events, s.now_ns), (72, tie), "events, now");
    let sum = |n: u32, kind| s.per_resource[spec.resource(NodeId(n), kind) as usize];
    let bp = spec.backplane_resource().expect("backplane configured") as usize;
    assert_eq!(
        [
            sum(0, ResourceKind::Tx),
            sum(9, ResourceKind::Rx),
            sum(2, ResourceKind::Tx),
            sum(1, ResourceKind::Tx),
            sum(6, ResourceKind::Rx),
            s.per_resource[bp],
        ],
        [
            58000000.12560002,
            34000000.07374285,
            5000000.04102857,
            10000000.1556,
            10000000.1556,
            92000000.37985712,
        ],
        "per_resource: TX 0, RX 9, TX 2, TX 1, RX 6, backplane"
    );
}

/// Messages whose legs start after the call that sent them. The first
/// rpc's request leaves at 0; a Delay window (n1 → n0) and a Partition
/// (n0 ↔ n1) open at 50 and 60 µs, so only its response, which starts at
/// 100 µs, pays for them. A second rpc has both legs above the small-message
/// cutoff (latency, then a flow per leg) while a lossy window on node 5
/// draws for every leg of a third caller's rpcs, interleaved with the
/// others' legs. A node-local rpc (a small request, then a loopback flow)
/// and chains of one node, of a repeated node and of three nodes run beside
/// them. Each leg's penalty, Drop draw and flow must be taken when that leg
/// starts, not when its rpc was called.
fn wire_legs_under_faults() -> (fabric::FabricStats, Vec<u64>) {
    let spec = ClusterSpec::tiny(NODES).with_backplane(Some(2.0 * 117.0e6));
    let fx = Fabric::sim_seeded(spec, 0x5EED_0034);
    let us = MILLIS / 1_000;
    fx.inject_net_fault(NetFault::delay(
        50 * us,
        10 * MILLIS,
        NodeSet::One(NodeId(1)),
        NodeSet::One(NodeId(0)),
        7 * MILLIS,
    ));
    fx.inject_net_fault(NetFault::partition(
        60 * us,
        3 * MILLIS,
        NodeSet::One(NodeId(0)),
        NodeSet::One(NodeId(1)),
    ));
    fx.inject_net_fault(NetFault::drop(
        0,
        50 * MILLIS,
        NodeSet::One(NodeId(5)),
        NodeSet::Any,
        0.5,
        2 * MILLIS,
    ));
    let mut handles = Vec::new();
    handles.push(fx.spawn(NodeId(0), "faulted", |p| {
        p.rpc(NodeId(1), 200, 300);
        let healed = p.now();
        p.rpc(NodeId(1), 200, 300);
        healed * 1_000 + (p.now() - healed) / 1_000
    }));
    handles.push(fx.spawn(NodeId(3), "bulk", move |p| {
        p.rpc(NodeId(4), 1_000_000, 2_000_000);
        let first = p.now();
        p.sleep(150 * us);
        p.rpc(NodeId(4), 3_000_000, 20_000);
        first * 1_000 + (p.now() - first) / 1_000
    }));
    handles.push(fx.spawn(NodeId(5), "lossy", move |p| {
        for i in 0..6u64 {
            p.rpc(NodeId(4), 4_000 + 100_000 * (i % 2), 500_000 * (i % 3));
            p.sleep(i * 70 * us);
        }
        p.now()
    }));
    handles.push(fx.spawn(NodeId(6), "local", |p| {
        let start = p.now();
        p.rpc(NodeId(6), 100, 40_000);
        assert!(p.now() > start, "the loopback leg is a flow");
        let t = p.now();
        p.rpc(NodeId(6), 100, 100);
        assert_eq!(p.now(), t, "a node-local small rpc does not block");
        p.transfer_chain(&[NodeId(6)], 50_000);
        p.transfer_chain(&[NodeId(6), NodeId(6)], 60_000);
        p.transfer_chain(&[NodeId(6), NodeId(5), NodeId(4)], 1_200_000);
        p.now()
    }));
    fx.run();
    let finish = handles
        .iter()
        .map(|h| h.take().expect("proc finished"))
        .collect();
    (fx.stats(), finish)
}

#[test]
fn wire_legs_take_their_faults_and_flows_when_they_start() {
    let (stats, finish) = wire_legs_under_faults();
    assert_eq!(
        (stats.events, stats.now_ns, stats.transfers, stats.flows),
        (51, 72_344_448, 27, 13),
        "FabricStats {{ events, now_ns, transfers, flows }}"
    );
    // The faulted response pays both windows (2.9 ms of partition, 7 ms of
    // delay); three of the seven legs out of node 5 lose a packet.
    assert_eq!(stats.net_fault_hits, 5);
    assert_eq!(stats.bytes_requested, 10_695_300.0);
    assert_eq!(
        kind_sums(&stats.per_resource),
        [
            11732000.553000001,
            11732000.553000001,
            0.0,
            0.0,
            40000.0,
            10532000.5245,
        ]
    );
    // `faulted` and `bulk` return `first * 1000 + second / 1000`: the end
    // of their first rpc in ns, then the second one's length in µs.
    assert_eq!(
        finish,
        [10_100_000_200, 45_787_849_556, 55_824_148, 21_821_710],
        "per-proc finish times"
    );
}
