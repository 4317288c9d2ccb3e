//! Quickstart: deploy a live in-process BSFS cluster, exercise the API the
//! paper adds to the Hadoop world — including `append` — and peek at the
//! versioning underneath.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Each service runs on a node of its own and the client on one running
//! none, so the live ledger can say where the append's and the read's wall
//! time went: each service names its work on its node (`Proc::serve`), the
//! rest is the client's, and the parts sum to the op.
//!
//! Set `QUICKSTART_PERSIST_DIR=/some/dir` to deploy the durable storage
//! plane instead: the providers (pages) and the metadata servers (tree
//! nodes) persist to pstore subdirectories, and the demo kills a provider
//! mid-session and restarts it from disk. The control services keep their
//! state in memory: the provider manager's leases belong to this
//! deployment's writers, and the version manager and the namespace do not
//! persist yet (ROADMAP item R).

use bench_suite::{bsfs_roles, Op, RoleMs, ROLES};
use blobseer::{Fault, FaultTarget};
use blobseer_repro::testbed;
use dfs::{DfsPath, FileSystem};
use fabric::{NodeId, Payload};

fn main() {
    // 7 logical nodes, 4 KB blocks (small so the output is interesting).
    let persist_dir = std::env::var_os("QUICKSTART_PERSIST_DIR").map(std::path::PathBuf::from);
    let (fx, fs) = testbed::live_bsfs_spread(4096, persist_dir.as_deref());
    let persistent = persist_dir.is_some();
    let fs2 = fs.clone();
    fx.spawn(NodeId(6), "quickstart", move |p| {
        let path = DfsPath::new("/demo/log.txt").unwrap();

        // Create a file and write some data.
        let mut w = fs2.create(p, &path).unwrap();
        w.write(p, Payload::from("first line\n")).unwrap();
        w.write(p, Payload::from("second line\n")).unwrap();
        w.close(p).unwrap();
        println!(
            "created {path} ({} bytes)",
            fs2.status(p, &path).unwrap().len
        );

        // Append — the operation HDFS of the era refused.
        let ((), append) = Op::time(p, || {
            fs2.append_all(p, &path, Payload::from("appended line\n"))
                .unwrap()
        });
        println!(
            "appended; file is now {} bytes",
            fs2.status(p, &path).unwrap().len
        );

        // Read it back.
        let (content, read) = Op::time(p, || fs2.read_file(p, &path).unwrap());
        print!(
            "--- {path} ---\n{}",
            String::from_utf8_lossy(content.bytes())
        );

        // Where the two ops' wall time went, by role. `fold` asserts that
        // each op's parts sum to its time.
        let roles = bsfs_roles(fs2.store().layout().clone());
        for (what, op) in [("append", append), ("read", read)] {
            let split = RoleMs::fold(&[op], &roles);
            println!("--- where the {what} went: {:.1} us ---", split.op_ms * 1e3);
            for (role, ms) in ROLES.iter().zip(split.ms) {
                if ms > 0.0 {
                    println!("  {role:<10} {:>7.1} us", ms * 1e3);
                }
            }
        }

        // Versioning: the BLOB behind the file keeps every snapshot.
        let blob = fs2.blob_of(p, &path).unwrap();
        let client = fs2.store().client();
        let latest = client.latest(p, blob).unwrap();
        println!("--- BLOB {blob} has {latest} published versions ---");
        for v in 1..=latest {
            let size = client.size(p, blob, Some(v)).unwrap();
            println!("  version {v}: {size} bytes");
        }

        // Block locations: what the Map/Reduce scheduler uses for locality.
        for loc in fs2.block_locations(p, &path, 0, 1 << 20).unwrap() {
            println!(
                "  block @{:>5} ({} B) on {:?}",
                loc.offset,
                loc.len,
                loc.hosts.iter().map(|h| h.0).collect::<Vec<_>>()
            );
        }
        // On the durable plane, prove the recovery path: kill provider 0
        // (it loses every in-memory page), restart it from its pstore
        // directory, and re-read the file through the healed deployment.
        if persistent {
            let bs = fs2.store();
            bs.inject(FaultTarget::Provider(0), Fault::CrashRestart)
                .unwrap();
            bs.heal(FaultTarget::Provider(0)).unwrap();
            let again = fs2.read_file(p, &path).unwrap();
            assert_eq!(
                again.bytes(),
                content.bytes(),
                "file changed across provider restart"
            );
            println!(
                "provider 0 died, restarted from its pstore directory ({} recovery), file intact",
                bs.providers()[0].recoveries()
            );
        }
        println!("quickstart done.");
    });
    fx.run();
}
