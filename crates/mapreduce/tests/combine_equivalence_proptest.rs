//! Property test: the two-tier combine pipeline is semantically invisible.
//! Across random key distributions, flush thresholds and injected map-output
//! losses (which re-queue the buried tasks as per-task re-runs that bypass
//! the combine buffer), a wordcount job produces exactly the counts of an in-memory reference
//! model — and with no faults, the combiner-on run is byte-identical to the
//! combiner-off run.

use std::collections::HashMap;
use std::sync::Arc;

use blobseer::{BlobSeerConfig, Layout};
use bsfs::Bsfs;
use dfs::{DfsPath, FileSystem};
use fabric::{ClusterSpec, Fabric, NodeId, Payload, Proc};
use mapreduce::{JobConf, MrCluster, MrConfig, OutputMode, ShuffleTuning, UserFns};
use proptest::prelude::*;

fn d(s: &str) -> DfsPath {
    DfsPath::new(s).unwrap()
}

/// Wordcount with a combiner: the workload whose combine stage actually
/// shrinks data, so tier-2 bugs (lost runs, double counts, re-run leaks)
/// surface as wrong totals.
fn wordcount() -> UserFns {
    let mapper = |k: &[u8], v: &[u8], out: &mut dyn FnMut(&[u8], &[u8])| {
        for w in k
            .split(|&b| b == b' ')
            .chain(v.split(|&b| b == b' '))
            .filter(|w| !w.is_empty())
        {
            out(w, b"1");
        }
    };
    let reducer =
        |key: &[u8], values: &mut dyn Iterator<Item = &[u8]>, out: &mut dyn FnMut(&[u8], &[u8])| {
            let total: u64 = values
                .map(|v| std::str::from_utf8(v).unwrap().parse::<u64>().unwrap())
                .sum();
            out(key, total.to_string().as_bytes());
        };
    UserFns {
        mapper: Arc::new(mapper),
        reducer: Arc::new(reducer),
        combiner: Some(Arc::new(reducer)),
    }
}

/// Render a word index as text; a small vocabulary keeps key collisions
/// (the interesting combine case) frequent under every distribution.
fn word(i: u8) -> String {
    format!("w{i}")
}

fn corpus_text(lines: &[Vec<u8>]) -> String {
    let mut text = String::new();
    for line in lines {
        for (i, w) in line.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&word(*w));
        }
        text.push('\n');
    }
    text
}

fn model_counts(lines: &[Vec<u8>]) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for line in lines {
        for w in line {
            *m.entry(word(*w)).or_insert(0) += 1;
        }
    }
    m
}

fn parse_counts(text: &[u8]) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let tab = line.iter().position(|&b| b == b'\t').expect("tab");
        let w = String::from_utf8(line[..tab].to_vec()).unwrap();
        let n: u64 = std::str::from_utf8(&line[tab + 1..])
            .unwrap()
            .parse()
            .unwrap();
        assert!(m.insert(w.clone(), n).is_none(), "{w} appears twice");
    }
    m
}

#[derive(Debug, Clone)]
struct Case {
    /// Lines of word indices; vocabulary capped so keys collide heavily.
    lines: Vec<Vec<u8>>,
    /// Tier-2 flush-after-N-tasks threshold (None = flush only at node
    /// map-phase completion).
    flush_tasks: Option<u32>,
    /// Tier-2 flush-after-N-buffered-bytes threshold.
    flush_bytes: Option<u64>,
    reducers: u32,
    /// Map-output wipes `(at_ns, node)` that force re-runs mid-shuffle.
    losses: Vec<(u64, u32)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let line = prop::collection::vec(0u8..24, 1..10);
    let lines = prop::collection::vec(line, 1..60);
    let flush_tasks = prop_oneof![
        2 => Just(None),
        3 => (1u32..5).prop_map(Some),
    ];
    let flush_bytes = prop_oneof![
        2 => Just(None),
        2 => (16u64..512).prop_map(Some),
    ];
    let losses = prop::collection::vec((0u64..40_000_000, 0u32..4), 0..3);
    (lines, flush_tasks, flush_bytes, 1u32..4, losses).prop_map(
        |(lines, flush_tasks, flush_bytes, reducers, losses)| Case {
            lines,
            flush_tasks,
            flush_bytes,
            reducers,
            losses,
        },
    )
}

/// Run wordcount over the case's corpus; returns the job output bytes.
fn run_case(case: &Case, node_combine: bool, with_losses: bool) -> Vec<u8> {
    let fx = Fabric::sim(ClusterSpec::tiny(4));
    let bsfs = Bsfs::deploy(
        &fx,
        BlobSeerConfig::test_small(16), // tiny blocks: several maps per node
        Layout::compact(fx.spec()),
    )
    .unwrap();
    let fs: Arc<dyn FileSystem> = Arc::new(bsfs);
    let mr = MrCluster::start(&fx, fs.clone(), MrConfig::compact(fx.spec()));
    let text = corpus_text(&case.lines);
    let shuffle = ShuffleTuning {
        node_combine,
        flush_tasks: case.flush_tasks,
        flush_bytes: case.flush_bytes,
    };
    let losses: Vec<(u64, u32)> = if with_losses {
        case.losses.clone()
    } else {
        Vec::new()
    };
    let reducers = case.reducers;
    let fs2 = fs.clone();
    let mr2 = mr.clone();
    let driver = fx.spawn(NodeId(0), "driver", move |p: &Proc| {
        fs2.write_file(p, &d("/in/corpus"), Payload::from_vec(text.into_bytes()))
            .unwrap();
        let mr_loss = mr2.clone();
        let losser = p
            .fabric()
            .spawn(NodeId(0), "map-output-losser", move |p: &Proc| {
                for (at, node) in losses {
                    let now = p.now();
                    if at > now {
                        p.sleep(at - now);
                    }
                    mr_loss.lose_map_outputs(NodeId(node));
                }
            });
        let job = JobConf {
            name: "combine-prop".into(),
            inputs: vec![d("/in/corpus")],
            output_dir: d("/out"),
            num_reducers: reducers,
            output_mode: OutputMode::SharedAppendFile,
            user: wordcount(),
            ghost: None,
            shuffle,
        };
        mr2.submit(job).wait(p);
        losser.join(p);
        mr2.shutdown();
        fs2.read_file(p, &d("/out/result"))
            .unwrap()
            .bytes()
            .to_vec()
    });
    fx.run();
    driver.take().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn combine_on_equals_combine_off_equals_model(case in case_strategy()) {
        let want = model_counts(&case.lines);

        // Fault-free: tier-2 on and off must agree byte-for-byte, and both
        // must match the model.
        let on = run_case(&case, true, false);
        let off = run_case(&case, false, false);
        prop_assert_eq!(&on, &off, "tier-2 combine changed job output");
        prop_assert_eq!(parse_counts(&on), want.clone());

        // Under map-output loss the buried tasks re-run and publish per
        // task; counts must still match the model exactly (no lost or
        // doubled keys).
        let lossy = run_case(&case, true, true);
        prop_assert_eq!(parse_counts(&lossy), want);
    }
}
