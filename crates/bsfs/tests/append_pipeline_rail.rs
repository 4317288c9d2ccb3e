//! Rail: the virtual time of a BSFS append, pinned per op, for one and for
//! two appenders arriving together at one shared file.
//!
//! The layout gives the namespace manager, the version manager and the
//! provider manager a node each (the paper's deployment, shrunk to 12
//! nodes), and every appender sits on a data-provider node, as in Fig. 3.
//! Each appender stores one 64 MB ghost page. Any change to what an append
//! waits on moves these numbers, so a change that means to move them says
//! by how much, as a formula over the cluster's constants.
//!
//! The literals are the op times of an append that looked its path up
//! before storing a page. `append_all` now resolves the path while the
//! page streams, and the lookup is shorter than the stream, so every op
//! falls by exactly the lookup it hid: two latency legs, plus the
//! namespace manager's CPU charge for the lookups that share its CPU.

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::SimTime;
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use parking_lot::Mutex;
use std::sync::Arc;

const PAGE: u64 = 64 * 1024 * 1024;

/// The lookup an append no longer waits for when `n` appenders arrive
/// together: an rpc's two legs, then `n` lookups' CPU charges shared on the
/// namespace node (the engine rounds a flow's end up to the nanosecond).
fn hidden_lookup(n: u64) -> SimTime {
    let spec = ClusterSpec::tiny(12);
    let ops = (n * BlobSeerConfig::paper().vm_cpu_ops) as f64;
    2 * spec.latency_ns + (ops / spec.cpu_ops * 1e9).ceil() as SimTime
}

/// Op times (ns) of `n` appenders that start together, in appender order.
fn op_times(n: u32) -> Vec<u64> {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(12), 36);
    let layout = Layout::paper_with_meta(fx.spec(), 2);
    let fs = Bsfs::deploy(&fx, BlobSeerConfig::paper(), layout).unwrap();
    let file = DfsPath::new("/rail/shared").unwrap();
    let ready = fx.gate();
    {
        let (fs, file, ready) = (fs.clone(), file.clone(), ready.clone());
        fx.spawn(NodeId(5), "setup", move |p| {
            fs.create(p, &file).unwrap().close(p).unwrap();
            ready.set();
        });
    }
    let times = Arc::new(Mutex::new(vec![0; n as usize]));
    for i in 0..n {
        let (fs, file, ready, times) = (fs.clone(), file.clone(), ready.clone(), times.clone());
        fx.spawn(NodeId(6 + i), format!("appender{i}"), move |p| {
            ready.wait(p);
            let t0 = p.now();
            fs.append_all(p, &file, Payload::ghost(PAGE)).unwrap();
            times.lock()[i as usize] = p.now() - t0;
        });
    }
    fx.run();
    let times = times.lock().clone();
    times
}

#[test]
fn one_appender_op_time_is_pinned() {
    assert_eq!(hidden_lookup(1), 700_000);
    assert_eq!(op_times(1), [576_430_308 - hidden_lookup(1)]);
}

#[test]
fn two_appenders_op_times_are_pinned() {
    let hidden = hidden_lookup(2);
    assert_eq!(hidden, 1_200_000);
    assert_eq!(op_times(2), [577_730_308 - hidden, 577_980_308 - hidden]);
}

/// A failed lookup fails the append as before, and the page it staged stays
/// where a writer that died between steps 1 and 2 leaves its pages: stored
/// and accounted on its provider, under no lease, in no version.
#[test]
fn an_append_to_a_missing_path_leaves_its_pages_unreferenced() {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(12), 36);
    let layout = Layout::paper_with_meta(fx.spec(), 2);
    let fs = Bsfs::deploy(&fx, BlobSeerConfig::paper(), layout).unwrap();
    let fs2 = fs.clone();
    let h = fx.spawn(NodeId(6), "appender", move |p| {
        let missing = DfsPath::new("/rail/missing").unwrap();
        fs2.append_all(p, &missing, Payload::ghost(PAGE))
    });
    fx.run();
    let missing = DfsPath::new("/rail/missing").unwrap();
    assert_eq!(h.take().unwrap(), Err(dfs::FsError::NotFound(missing)));
    let store = fs.store();
    for prov in store.providers() {
        assert_eq!(
            prov.load_estimate(),
            prov.stored_bytes(),
            "{:?}",
            prov.node()
        );
    }
    assert_eq!(store.provider_manager().outstanding_leases(), 0);
    // Nothing reclaims a page no version names: ROADMAP F(2)'s walk will.
    assert_eq!(store.total_stored_bytes(), PAGE);
}

/// A file whose block size is not the page size the append was staged at
/// is refused with a typed error, not published with misfit pages.
#[test]
fn an_append_staged_at_another_block_size_is_refused() {
    let fx = Fabric::sim_seeded(ClusterSpec::tiny(12), 36);
    let layout = Layout::paper_with_meta(fx.spec(), 2);
    let fs = Bsfs::deploy(&fx, BlobSeerConfig::paper(), layout).unwrap();
    let h = fx.spawn(NodeId(6), "appender", move |p| {
        let path = DfsPath::new("/rail/half").unwrap();
        let blob = fs.store().client().create(p, Some(PAGE / 2));
        fs.namespace()
            .create_file(p, &path, blob, PAGE / 2)
            .unwrap();
        fs.append_all(p, &path, Payload::ghost(PAGE))
    });
    fx.run();
    assert!(
        matches!(h.take().unwrap(), Err(dfs::FsError::Unaligned { .. })),
        "a misfit append must be refused"
    );
}
