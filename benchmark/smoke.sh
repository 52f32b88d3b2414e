#!/usr/bin/env bash
# Runs the whole benchmark pipeline at SimConfig::small() scale in a few
# seconds: input generation, both passes, every output check, and the
# manifest's metric names against the harness's. The numbers it prints
# mean nothing. Not wired into ci.sh yet.
set -euo pipefail
cd "$(dirname "$0")/.."
out="benchmark/out/smoke"
mkdir -p "$out"
benchmark/run.sh --small --seconds 1 --out "$out" >"$out.log" 2>&1 || {
    cat "$out.log" >&2
    exit 1
}
target="${CARGO_TARGET_DIR:-target}"
"$target/release/netrs-benchmark" check-manifest BENCHMARK.json
"$target/release/netrs-benchmark" compare BENCHMARK.json "$out/results.json" "$out/results.json" >/dev/null
echo "benchmark smoke: ok"
