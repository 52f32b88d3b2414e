#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
# Applies BENCHMARK.json's per-metric bounds to two results files written
# by run.sh: one row per (workload, end-to-end metric), each ok, worse, or
# unresolved (its repeats spread wider than its bound). Exits 1 if any row
# is worse.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: benchmark/compare.sh A.json B.json" >&2; exit 2; }
a="$(realpath "$1")"
b="$(realpath "$2")"
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$target/release/netrs-benchmark" compare BENCHMARK.json "$a" "$b"
