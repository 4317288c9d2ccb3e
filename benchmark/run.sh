#!/usr/bin/env bash
# Build the benchmark from source (offline, release) and run it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload run; the last line of stdout is the result object
#   bash benchmark/run.sh [--quick] [--runs <n>]
#       the whole suite: every workload 5 times in alternating order, then the
#       traced run; prints every metric and writes benchmark/results/summary.json
#       (--quick: 1/50 of the operation counts, same checks, under 30 s)
#   bash benchmark/run.sh repeat [--runs <n>]
#       two full sets of runs of this build, compared against the bounds
#   bash benchmark/run.sh spec
#       prints BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
# Build chatter goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/e2e"
exec "$bin" "$@"
