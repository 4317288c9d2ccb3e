//! Task execution: the work a tasktracker performs for one map or reduce
//! task, against any [`dfs::FileSystem`].

use std::sync::Arc;

use dfs::{DfsPath, FileSystem};
use fabric::sync::Queue;
use fabric::{NodeId, Payload, Proc};

use crate::api::partition_for;
use crate::job::{JobCtx, OutputMode};
use crate::record::{
    check_fits, merge_into_run, put_text, reduce_runs, split_records, Collector, SegmentError,
};
use crate::shuffle::{DeliverySpec, MapOutputRegistry, NodeCombiner, SegmentKey, SegmentSource};

/// Assignment of one input split to a map task.
#[derive(Clone)]
pub struct MapTaskSpec {
    pub job: Arc<JobCtx>,
    pub task_id: u32,
    pub file: DfsPath,
    pub offset: u64,
    pub len: u64,
    /// Nodes holding the split's block (for locality accounting).
    pub hosts: Vec<NodeId>,
    /// Re-queued after the original's output was lost: bypass the tier-2
    /// buffer and publish per-task so the replacement lands promptly and
    /// never overlaps an already-announced flush set. The only way a map
    /// task runs twice: the buffer refuses a task it already holds.
    pub rerun: bool,
}

/// Assignment of one partition to a reduce task.
#[derive(Clone)]
pub struct ReduceTaskSpec {
    pub job: Arc<JobCtx>,
    pub partition: u32,
    /// Number of map tasks whose output must be obtained.
    pub map_count: u32,
    /// Streaming delivery feed: the jobtracker forwards every published
    /// [`DeliverySpec`] here as the map phase progresses.
    pub feed: Queue<DeliverySpec>,
}

/// How far past the split end the reader looks for the record delimiter per
/// extension round.
const LOOKAHEAD: u64 = 64 * 1024;

/// Execute a map task: read the split, run the mapper (+ tier-1 combiner),
/// hand the partitioned output to the tier-2 node buffer (or publish
/// per-task when re-running / tier-2 off). Returns the deliveries this task
/// published — the tasktracker ships them to the jobtracker on `MapDone`
/// for streaming announcement; an error string means loud job failure.
#[expect(
    clippy::indexing_slicing,
    reason = "partition_for is `% r` and `collectors` has `r` entries"
)]
pub(crate) fn run_map_task(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    shuffle: &Arc<NodeCombiner>,
    spec: &MapTaskSpec,
) -> Result<Vec<DeliverySpec>, String> {
    let ctx = &spec.job;
    let conf = &ctx.conf;
    let r = conf.num_reducers;
    let counters = &ctx.counters;

    if spec.hosts.contains(&p.node()) {
        counters.add(&counters.data_local_maps, 1);
    } else {
        counters.add(&counters.remote_maps, 1);
    }

    let mut reader = fs
        .open(p, &spec.file)
        .map_err(|e| format!("map open {}: {e}", spec.file))?;
    let file_len = reader.len();
    let end = (spec.offset + spec.len).min(file_len);
    let split_len = end.saturating_sub(spec.offset);
    counters.add(&counters.map_input_bytes, split_len);

    let partitions: Vec<Payload> = if let Some(profile) = conf.ghost {
        // Profile mode: charge the read, the CPU, and emit sized ghosts.
        let data = reader
            .read_at(p, spec.offset, split_len)
            .map_err(|e| format!("map read: {e}"))?;
        debug_assert_eq!(data.len(), split_len);
        let records = split_len / profile.input_record_bytes.max(1);
        counters.add(&counters.map_input_records, records);
        p.compute(
            p.node(),
            (split_len as f64 * profile.map_cpu_per_byte) as u64,
        );
        let out_total = (split_len as f64 * profile.map_output_ratio) as u64;
        counters.add(&counters.map_output_bytes, out_total);
        counters.add(
            &counters.map_output_records,
            (out_total as f64 / profile.input_record_bytes.max(1) as f64) as u64,
        );
        let base = out_total / r as u64;
        let extra = (out_total % r as u64) as u32;
        (0..r)
            .map(|i| Payload::ghost(base + u64::from(i < extra)))
            .collect()
    } else {
        // Real mode: honor record boundaries across splits (read a window
        // that extends past the split end until a newline or EOF).
        let mut parts = vec![reader
            .read_at(p, spec.offset, split_len)
            .map_err(|e| format!("map read: {e}"))?];
        let mut probe = end;
        'extend: while probe < file_len {
            let n = LOOKAHEAD.min(file_len - probe);
            let chunk = reader
                .read_at(p, probe, n)
                .map_err(|e| format!("map lookahead: {e}"))?;
            let has_newline = chunk.bytes().contains(&b'\n');
            parts.push(chunk);
            probe += n;
            if has_newline {
                break 'extend;
            }
        }
        let window = Payload::concat(&parts);
        let window = window.bytes();

        let mut collectors: Vec<Collector> = (0..r).map(|_| Collector::default()).collect();
        let mut in_records = 0u64;
        let mut out_records = 0u64;
        let mut out_bytes = 0u64;
        // The first emission the run format cannot carry stops collection.
        let mut unfit = Ok(());
        for line in split_records(window, spec.offset, spec.len) {
            in_records += 1;
            let (k, v) = crate::record::split_tab(line);
            conf.user.mapper.map_into(k, v, &mut |key, value| {
                if unfit.is_ok() {
                    unfit = check_fits(key.len(), value.len());
                }
                if unfit.is_err() {
                    return;
                }
                out_records += 1;
                out_bytes += 8 + key.len() as u64 + value.len() as u64;
                collectors[partition_for(key, r) as usize].push(key, value);
            });
            unfit
                .as_ref()
                .map_err(|e| format!("job {} map {}: {e}", ctx.id, spec.task_id))?;
        }
        counters.add(&counters.map_input_records, in_records);
        counters.add(&counters.map_output_records, out_records);
        counters.add(&counters.map_output_bytes, out_bytes);

        let combiner = conf.user.combiner.as_deref();
        let mut partitions = Vec::with_capacity(collectors.len());
        for (i, collected) in collectors.into_iter().enumerate() {
            partitions.push(collected.into_run(combiner).map_err(|e| {
                format!(
                    "job {} map {} partition {i}: tier-1 combine: {e}",
                    ctx.id, spec.task_id
                )
            })?);
        }
        partitions
    };

    let deliveries = if conf.shuffle.node_combine && !spec.rerun {
        shuffle.add(p, ctx, spec.task_id, partitions)?
    } else {
        let registry = shuffle.registry();
        for (i, data) in partitions.into_iter().enumerate() {
            registry.publish(
                SegmentKey {
                    job: ctx.id,
                    source: SegmentSource::Task(spec.task_id),
                    partition: i as u32,
                },
                p.node(),
                data,
            );
        }
        vec![DeliverySpec {
            source: SegmentSource::Task(spec.task_id),
            tasks: vec![spec.task_id],
        }]
    };
    Ok(deliveries)
}

/// Collapse the reducer's buffered runs once this many accumulate, keeping
/// reduce-side memory bounded (Hadoop's merge factor, scaled down).
pub const MERGE_FANIN: usize = 8;

/// Execute a reduce task: *stream* the shuffle (fetch and merge deliveries
/// as the jobtracker announces them — no map-phase barrier), then group,
/// reduce and commit the output.
pub(crate) fn run_reduce_task(
    p: &Proc,
    fs: &Arc<dyn FileSystem>,
    registry: &Arc<MapOutputRegistry>,
    spec: &ReduceTaskSpec,
) -> Result<(), String> {
    let ctx = &spec.job;
    let conf = &ctx.conf;
    let counters = &ctx.counters;

    // Streaming shuffle: obtain every map task's contribution exactly once
    // by consuming announced deliveries. Each fetch batches whatever the
    // feed holds and rides one transfer per (holding-node, this reducer)
    // pair. A `None` answer means the segment was lost with its node — the
    // re-queued tasks' replacement deliveries cover it later.
    let map_count = spec.map_count as usize;
    let mut obtained = vec![false; map_count];
    let mut obtained_count = 0usize;
    // Fetched runs stay refcounted bytes, each beside where it came from
    // (`None`: an earlier collapse of this reducer's own).
    let mut runs: Vec<(Option<SegmentSource>, Payload)> = Vec::new();
    let mut ghost_bytes = 0u64;
    while obtained_count < map_count {
        let first = spec
            .feed
            .recv(p)
            .ok_or_else(|| format!("reduce {}: delivery feed closed early", spec.partition))?;
        let mut batch = vec![first];
        while let Some(d) = spec.feed.try_recv() {
            batch.push(d);
        }
        let mut keys = Vec::new();
        let mut pend: Vec<DeliverySpec> = Vec::new();
        for d in batch {
            let done = d
                .tasks
                .iter()
                .filter(|&&t| obtained.get(t as usize).copied().unwrap_or(false))
                .count();
            if done == d.tasks.len() {
                continue; // duplicate announcement (re-run); already merged
            }
            if done > 0 {
                // Structurally prevented (flush sets are disjoint and
                // re-runs are per-task); a partial overlap would silently
                // double-count records, so fail loudly.
                return Err(format!(
                    "reduce {}: delivery {} partially obtained — combine invariant broken",
                    spec.partition, d.source
                ));
            }
            keys.push(SegmentKey {
                job: ctx.id,
                source: d.source,
                partition: spec.partition,
            });
            pend.push(d);
        }
        if keys.is_empty() {
            continue;
        }
        if (counters
            .maps_completed
            .load(std::sync::atomic::Ordering::Relaxed) as usize)
            < map_count
        {
            counters.add(&counters.early_shuffle_fetches, 1);
        }
        for (d, seg) in pend.into_iter().zip(registry.fetch_many(p, &keys)) {
            let Some(seg) = seg else {
                continue; // lost with its node; replacements will arrive
            };
            counters.add(&counters.shuffle_bytes, seg.len());
            for &t in &d.tasks {
                if let Some(slot) = obtained.get_mut(t as usize) {
                    if !*slot {
                        *slot = true;
                        obtained_count += 1;
                    }
                }
            }
            if conf.ghost.is_some() {
                ghost_bytes += seg.len();
            } else {
                // Every published segment is a sorted run, so it joins the
                // incremental k-way merge as it is.
                runs.push((Some(d.source), seg));
                if runs.len() >= MERGE_FANIN {
                    let merged = merge_into_run(&run_bytes(&runs), None)
                        .map_err(|e| torn_run(spec, &runs, e))?;
                    runs = vec![(None, merged)];
                }
            }
        }
    }

    // Final merge + reduce.
    let output: Payload = if let Some(profile) = conf.ghost {
        let shuffled = ghost_bytes;
        p.compute(
            p.node(),
            (shuffled as f64 * profile.reduce_cpu_per_byte) as u64,
        );
        let out = (shuffled as f64 * profile.reduce_output_ratio) as u64;
        counters.add(
            &counters.reduce_input_records,
            shuffled / profile.input_record_bytes.max(1),
        );
        counters.add(&counters.reduce_output_bytes, out);
        Payload::ghost(out)
    } else {
        let mut text = Vec::new();
        let mut out_records = 0u64;
        let in_records = reduce_runs(
            &run_bytes(&runs),
            Some(conf.user.reducer.as_ref()),
            &mut |k, v| {
                put_text(&mut text, k, v);
                out_records += 1;
            },
        )
        .map_err(|e| torn_run(spec, &runs, e))?;
        counters.add(&counters.reduce_input_records, in_records);
        counters.add(&counters.reduce_output_records, out_records);
        counters.add(&counters.reduce_output_bytes, text.len() as u64);
        Payload::from_vec(text)
    };

    // Commit, timed with the reducer's ledger (each snapshot after a clock
    // reading, so a live one is as of that instant).
    let t0 = p.now();
    let before = p.ledger();
    match conf.output_mode {
        OutputMode::PerReducerFiles => {
            // Original Hadoop (paper Figure 1): unique temp file, then rename
            // into the output directory.
            let tmp = conf.temp_part_file(spec.partition);
            let mut w = fs
                .create(p, &tmp)
                .map_err(|e| format!("reduce create {tmp}: {e}"))?;
            w.write(p, output)
                .map_err(|e| format!("reduce write: {e}"))?;
            w.close(p).map_err(|e| format!("reduce close: {e}"))?;
            fs.rename(p, &tmp, &conf.part_file(spec.partition))
                .map_err(|e| format!("reduce commit rename: {e}"))?;
        }
        OutputMode::SharedAppendFile => {
            // Modified Hadoop (paper Figure 2): append to the single shared
            // output file — atomically, so concurrent reducers cannot tear
            // each other's records. Skip the append entirely for empty
            // outputs.
            if !output.is_empty() {
                let target = conf.shared_output_file();
                fs.append_all(p, &target, output)
                    .map_err(|e| format!("reduce append {target}: {e}"))?;
            }
        }
    }
    let ns = p.now() - t0;
    let commit = (p.node(), ns, p.ledger().since(&before));
    counters.commits.lock().push(commit);
    Ok(())
}

fn run_bytes(runs: &[(Option<SegmentSource>, Payload)]) -> Vec<&[u8]> {
    runs.iter().map(|(_, run)| &run.bytes()[..]).collect()
}

/// A reduce task's error for a fetched segment that does not parse.
fn torn_run(
    spec: &ReduceTaskSpec,
    runs: &[(Option<SegmentSource>, Payload)],
    e: SegmentError,
) -> String {
    let source = match runs.get(e.run) {
        Some((Some(source), _)) => source.to_string(),
        _ => "an earlier merge".to_string(),
    };
    format!(
        "job {} reduce {}: segment of {source}: {e}",
        spec.job.id, spec.partition
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Mapper, Reducer, UserFns, KV};
    use crate::job::{JobConf, JobCounters};
    use bsfs::Bsfs;
    use fabric::{ClusterSpec, Fabric};

    struct IdentityMap;
    impl Mapper for IdentityMap {
        fn map_into(&self, k: &[u8], v: &[u8], out: &mut dyn FnMut(&[u8], &[u8])) {
            out(k, v);
        }
    }
    struct ConcatReduce;
    impl Reducer for ConcatReduce {
        fn reduce_into(
            &self,
            key: &[u8],
            values: &mut dyn Iterator<Item = &[u8]>,
            out: &mut dyn FnMut(&[u8], &[u8]),
        ) {
            let joined: Vec<u8> = values.collect::<Vec<_>>().join(&b","[..]);
            out(key, &joined);
        }
    }

    #[test]
    fn map_then_reduce_end_to_end_single_tasks() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let fs = Bsfs::deploy(
            &fx,
            blobseer::BlobSeerConfig::test_small(4096),
            blobseer::Layout::compact(fx.spec()),
        )
        .unwrap();
        let h = fx.spawn(NodeId(0), "driver", move |p| {
            let fs: Arc<dyn FileSystem> = Arc::new(fs);
            fs.write_file(
                p,
                &DfsPath::new("/in").unwrap(),
                Payload::from_vec(b"b\t2\na\t1\nb\t3\n".to_vec()),
            )
            .unwrap();
            fs.mkdirs(p, &DfsPath::new("/out").unwrap()).unwrap();
            let conf = JobConf {
                name: "unit".into(),
                inputs: vec![DfsPath::new("/in").unwrap()],
                output_dir: DfsPath::new("/out").unwrap(),
                num_reducers: 1,
                output_mode: OutputMode::PerReducerFiles,
                user: UserFns {
                    mapper: Arc::new(IdentityMap),
                    reducer: Arc::new(ConcatReduce),
                    combiner: None,
                },
                ghost: None,
                shuffle: crate::job::ShuffleTuning::default(),
            };
            let ctx = Arc::new(JobCtx {
                id: 1,
                conf,
                counters: Arc::new(JobCounters::default()),
            });
            let registry = MapOutputRegistry::new();
            let shuffle = NodeCombiner::new(registry.clone());
            let mut deliveries = run_map_task(
                p,
                &fs,
                &shuffle,
                &MapTaskSpec {
                    job: ctx.clone(),
                    task_id: 0,
                    file: DfsPath::new("/in").unwrap(),
                    offset: 0,
                    len: 14,
                    hosts: vec![],
                    rerun: false,
                },
            )
            .unwrap();
            assert!(deliveries.is_empty(), "buffered until node completion");
            deliveries.extend(shuffle.complete_node(p, &ctx).unwrap());
            let feed = p.fabric().queue();
            for d in deliveries {
                feed.send(d);
            }
            run_reduce_task(
                p,
                &fs,
                &registry,
                &ReduceTaskSpec {
                    job: ctx.clone(),
                    partition: 0,
                    map_count: 1,
                    feed,
                },
            )
            .unwrap();
            let out = fs
                .read_file(p, &DfsPath::new("/out/part-00000").unwrap())
                .unwrap();
            assert_eq!(out.bytes().as_ref(), b"a\t1\nb\t2,3\n");
            assert_eq!(
                ctx.counters
                    .map_input_records
                    .load(std::sync::atomic::Ordering::Relaxed),
                3
            );
        });
        fx.run();
        h.take().unwrap();
    }

    /// The one re-execution path: a flushed task's output is lost with its
    /// node, the task re-runs with `rerun: true` and publishes per task, and
    /// the reducer — fed both deliveries — finds the flush gone and counts
    /// every record once.
    #[test]
    fn a_lost_flush_is_replaced_by_a_per_task_rerun() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let fs = Bsfs::deploy(
            &fx,
            blobseer::BlobSeerConfig::test_small(4096),
            blobseer::Layout::compact(fx.spec()),
        )
        .unwrap();
        let h = fx.spawn(NodeId(0), "driver", move |p| {
            let fs: Arc<dyn FileSystem> = Arc::new(fs);
            fs.write_file(
                p,
                &DfsPath::new("/in").unwrap(),
                Payload::from_vec(b"b\t2\na\t1\nb\t3\n".to_vec()),
            )
            .unwrap();
            fs.mkdirs(p, &DfsPath::new("/out").unwrap()).unwrap();
            let conf = JobConf {
                name: "rerun".into(),
                inputs: vec![DfsPath::new("/in").unwrap()],
                output_dir: DfsPath::new("/out").unwrap(),
                num_reducers: 1,
                output_mode: OutputMode::PerReducerFiles,
                user: UserFns {
                    mapper: Arc::new(IdentityMap),
                    reducer: Arc::new(ConcatReduce),
                    combiner: None,
                },
                ghost: None,
                shuffle: crate::job::ShuffleTuning::default(),
            };
            let ctx = Arc::new(JobCtx {
                id: 1,
                conf,
                counters: Arc::new(JobCounters::default()),
            });
            let registry = MapOutputRegistry::new();
            let shuffle = NodeCombiner::new(registry.clone());
            let mut spec = MapTaskSpec {
                job: ctx.clone(),
                task_id: 0,
                file: DfsPath::new("/in").unwrap(),
                offset: 0,
                len: 14,
                hosts: vec![],
                rerun: false,
            };
            assert!(run_map_task(p, &fs, &shuffle, &spec).unwrap().is_empty());
            let flushed = shuffle.complete_node(p, &ctx).unwrap().expect("flush");
            assert_eq!(shuffle.lose_node(p.node()), vec![(1, vec![0])]);
            spec.rerun = true;
            let rerun = run_map_task(p, &fs, &shuffle, &spec).unwrap();
            assert_eq!(
                rerun,
                vec![DeliverySpec {
                    source: SegmentSource::Task(0),
                    tasks: vec![0],
                }]
            );
            let feed = p.fabric().queue();
            for d in std::iter::once(flushed).chain(rerun) {
                feed.send(d);
            }
            run_reduce_task(
                p,
                &fs,
                &registry,
                &ReduceTaskSpec {
                    job: ctx.clone(),
                    partition: 0,
                    map_count: 1,
                    feed,
                },
            )
            .unwrap();
            assert_eq!(registry.fetch_counts(), (1, 1), "the flush is gone");
            let records = &ctx.counters.reduce_input_records;
            assert_eq!(records.load(std::sync::atomic::Ordering::Relaxed), 3);
            let out = fs
                .read_file(p, &DfsPath::new("/out/part-00000").unwrap())
                .unwrap();
            assert_eq!(
                out.bytes().as_ref(),
                b"a\t1\nb\t2,3\n",
                "the re-run's output, merged once"
            );
        });
        fx.run();
        h.take().unwrap();
    }

    /// A fetched segment with trailing garbage fails the reduce task with
    /// an error naming job, partition and source.
    #[test]
    fn torn_segment_fails_the_reduce_task_with_its_source() {
        let fx = Fabric::sim(ClusterSpec::tiny(4));
        let fs = Bsfs::deploy(
            &fx,
            blobseer::BlobSeerConfig::test_small(4096),
            blobseer::Layout::compact(fx.spec()),
        )
        .unwrap();
        let h = fx.spawn(NodeId(0), "driver", move |p| {
            let fs: Arc<dyn FileSystem> = Arc::new(fs);
            let ctx = Arc::new(JobCtx {
                id: 7,
                conf: JobConf {
                    name: "torn".into(),
                    inputs: vec![],
                    output_dir: DfsPath::new("/out").unwrap(),
                    num_reducers: 3,
                    output_mode: OutputMode::PerReducerFiles,
                    user: UserFns {
                        mapper: Arc::new(IdentityMap),
                        reducer: Arc::new(ConcatReduce),
                        combiner: None,
                    },
                    ghost: None,
                    shuffle: crate::job::ShuffleTuning::default(),
                },
                counters: Arc::new(JobCounters::default()),
            });
            let registry = MapOutputRegistry::new();
            let feed = p.fabric().queue();
            for (task, tail) in [(0u32, &b""[..]), (1, &b"\x01\0\0"[..])] {
                let mut seg = crate::record::encode_kvs(&[KV::new("k", "v")])
                    .bytes()
                    .to_vec();
                seg.extend_from_slice(tail);
                let source = SegmentSource::Task(task);
                registry.publish(
                    SegmentKey {
                        job: ctx.id,
                        source,
                        partition: 2,
                    },
                    p.node(),
                    Payload::from_vec(seg),
                );
                feed.send(DeliverySpec {
                    source,
                    tasks: vec![task],
                });
            }
            let spec = ReduceTaskSpec {
                job: ctx,
                partition: 2,
                map_count: 2,
                feed,
            };
            assert_eq!(
                run_reduce_task(p, &fs, &registry, &spec),
                Err(
                    "job 7 reduce 2: segment of task 1: torn segment: record at byte 10 \
                     needs 8 bytes, segment ends at 13"
                        .to_string()
                )
            );
        });
        fx.run();
        h.take().unwrap();
    }
}
