#!/usr/bin/env bash
# The repo benchmark's one command. Builds `simulate` and the harness in
# release mode, then hands every argument to the harness:
#
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#       one pass over one workload; the last line printed is the result
#   benchmark/run.sh [--seed N] [--out DIR]
#       every workload, both passes; results in DIR/results.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both builds (the harness is its own workspace
# and would default to benchmark/target).
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p netrs-sim --bin simulate
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec "$target/release/netrs-benchmark" --simulate "$target/release/simulate" "$@"
