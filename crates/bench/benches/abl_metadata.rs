//! Ablation A3 — number of metadata providers. The paper deploys 20 (§4.1)
//! without justifying the number; this sweep shows the metadata DHT's share
//! of the append path and where it saturates. 128 concurrent appenders of
//! one 64 MB chunk each (small pages would stress metadata much more; the
//! 64 MB pages of the paper make metadata cheap — which is the point).

use bench_suite::{fig3_point_on, paper_bsfs_with_layout, print_table};
use blobseer::{BlobSeerConfig, Layout};
use fabric::ClusterSpec;

fn main() {
    let mut rows = Vec::new();
    for &n_meta in &[1u32, 5, 20, 64] {
        let spec = ClusterSpec::orsay_270();
        let layout = Layout::paper_with_meta(&spec, n_meta);
        let (fx, fs) =
            paper_bsfs_with_layout(9200 + n_meta as u64, BlobSeerConfig::paper(), layout);
        let (t, _) = fig3_point_on(&fx, &fs, 128);
        let dht = fs.store().metadata_dht();
        let max_server_nodes = dht
            .servers()
            .iter()
            .map(|s| s.node_count())
            .max()
            .unwrap_or(0);
        rows.push(vec![
            n_meta.to_string(),
            format!("{t:.1}"),
            dht.total_nodes().to_string(),
            max_server_nodes.to_string(),
        ]);
    }
    print_table(
        "Ablation A3: metadata providers vs append throughput (128 appenders x 64 MB; paper deploys 20)",
        &["meta providers", "per-client MB/s", "total tree nodes", "max nodes on one server"],
        &rows,
    );
    println!(
        "\nnote: with 64 MB pages each append writes O(log P) tree nodes, so even one metadata \
         provider is far from saturation at this scale — consistent with the paper's \"this \
         overhead is low\" (§3.1.2)."
    );
}
