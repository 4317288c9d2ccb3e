//! The live ledger's identity (ROADMAP P). On a live deployment whose
//! client node runs no service, an append, a cold read and a wordcount
//! job's reduce commits each fold through `RoleMs::fold` (which asserts
//! that every op's buckets sum to its wall time) into roles where the
//! services the op crossed are charged.

use std::sync::Arc;

use bench_suite::{bsfs_roles, Op, RoleMs, ROLES};
use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload};
use mapreduce::{JobConf, MrCluster, MrConfig, OutputMode, ShuffleTuning};

/// One node per service, two providers, and node 6 for the client.
fn layout() -> Layout {
    Layout {
        vm: NodeId(0),
        pm: NodeId(1),
        namespace: NodeId(2),
        meta: vec![NodeId(3)],
        providers: vec![NodeId(4), NodeId(5)],
        read_replicas: Vec::new(),
    }
}

const CLIENT: NodeId = NodeId(6);

fn path(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

/// Assert that each of `roles` got time, and that the roles sum to the op
/// (`fold` checked each op exactly; this is the rounded sum).
fn charged(what: &str, ms: &RoleMs, roles: &[&str]) {
    for role in roles {
        let i = ROLES.iter().position(|r| r == role).unwrap();
        assert!(ms.ms[i] > 0.0, "{what}: no time on {role}: {}", ms.cells());
    }
    let sum: f64 = ms.ms.iter().sum();
    assert!((sum - ms.op_ms).abs() <= 1e-9 * ms.op_ms.max(1.0));
}

#[test]
fn live_ops_fold_into_roles_that_sum_to_their_wall_time() {
    let fx = Fabric::live(ClusterSpec::tiny(7));
    let fs = Bsfs::deploy(&fx, BlobSeerConfig::test_small(4096), layout()).unwrap();
    let fs2 = fs.clone();
    let h = fx.spawn(CLIENT, "client", move |p| {
        let file = path("/ledger/log");
        fs2.write_file(p, &file, Payload::from_vec(vec![7; 64 << 10]))
            .unwrap();
        let ((), append) = Op::time(p, || {
            fs2.append_all(p, &file, Payload::from_vec(vec![8; 16 << 10]))
                .unwrap()
        });
        let (bytes, read) = Op::time(p, || fs2.read_file(p, &file).unwrap());
        assert_eq!(bytes.len(), 80 << 10);
        (append, read)
    });
    fx.run();
    let (append, read) = h.take().unwrap();
    let roles = bsfs_roles(layout());
    let services = ["vm", "pm", "namespace", "meta", "providers"];
    charged("append", &RoleMs::fold(&[append], &roles), &services);
    let read_services = ["vm", "namespace", "meta", "providers"];
    charged("cold read", &RoleMs::fold(&[read], &roles), &read_services);

    // A wordcount job whose tasks all run on the client's node: each
    // reducer's commit is one append to the shared output file.
    let fs: Arc<dyn FileSystem> = Arc::new(fs);
    let conf = MrConfig {
        jobtracker: CLIENT,
        tasktrackers: vec![CLIENT],
        map_slots: 2,
        reduce_slots: 2,
        heartbeat_ns: 2 * fabric::MILLIS,
    };
    let mr = MrCluster::start(&fx, fs.clone(), conf);
    let mr2 = mr.clone();
    let driver = fx.spawn(CLIENT, "driver", move |p| {
        let input = path("/in/words");
        let text = "to be or not to be that is the question\n".repeat(64);
        fs.write_file(p, &input, Payload::from(text.as_str()))
            .unwrap();
        let job = JobConf {
            name: "wordcount".into(),
            inputs: vec![input],
            output_dir: path("/out"),
            num_reducers: 2,
            output_mode: OutputMode::SharedAppendFile,
            user: workloads::wordcount::user_fns(),
            ghost: None,
            shuffle: ShuffleTuning::default(),
        };
        let result = mr2.submit(job).wait(p);
        mr2.shutdown();
        result
    });
    fx.run();
    let result = driver.take().unwrap();
    let commits: Vec<Op> = (result.commits.iter())
        .map(|(node, ns, ledger)| Op {
            node: *node,
            ns: *ns,
            ledger: ledger.clone(),
        })
        .collect();
    assert_eq!(commits.len(), 2, "one commit per reducer");
    let commit = RoleMs::fold(&commits, &roles);
    charged("wordcount commit", &commit, &services);
}
