#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> Cargo.lock is current (a stale lock fails here instead of being rewritten)"
cargo metadata --offline --locked --format-version 1 > /dev/null

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test --release (simcore)"
# Release-only branches: the calendar proptest's phase that clamps a past
# `at` to now (debug builds panic on it instead) and the profiler's clock
# calibration at release speed.
cargo test --release -q -p netrs-simcore

echo "==> cargo test --release (selection)"
# The C3 table's differential proptest compares f64 scores bit for bit:
# run it under release codegen too.
cargo test --release -q -p netrs-selection

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> observability smoke (simulate + netrs-analyze)"
# NB: a --bin filter would apply across both -p flags and silently skip
# the netrs-analyze binary, leaving a stale copy in target/debug.
cargo build -q -p netrs-sim -p netrs-analyze
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
for scheme in clirs netrs-ilp; do
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 5 \
        --trace "$SMOKE/$scheme.jsonl" --trace-hops \
        --timeseries "$SMOKE/$scheme-ts.jsonl" \
        --devices "$SMOKE/$scheme-dev.jsonl" --json > "$SMOKE/$scheme-stats.json"
done
./target/debug/netrs-analyze report \
    --trace "clirs=$SMOKE/clirs.jsonl" --trace "netrs-ilp=$SMOKE/netrs-ilp.jsonl" \
    --devices "$SMOKE/netrs-ilp-dev.jsonl" --timeseries "$SMOKE/netrs-ilp-ts.jsonl" \
    --top 5 > "$SMOKE/report.txt"
grep -q "Per-phase latency comparison" "$SMOKE/report.txt"

echo "==> analyzer misuse smoke (a misused flag exits 2 naming it)"
analyze_status() { # ARGS... -> exit code; stderr in $SMOKE/misuse.err
    local status=0
    ./target/debug/netrs-analyze "$@" > /dev/null 2> "$SMOKE/misuse.err" || status=$?
    echo "$status"
}
[ "$(analyze_status report --trace "$SMOKE/clirs.jsonl" \
    --devices "$SMOKE/clirs-dev.jsonl" --devices "$SMOKE/netrs-ilp-dev.jsonl")" -eq 2 ]
grep -q -e "--devices" "$SMOKE/misuse.err"
[ "$(analyze_status report --trace "$SMOKE/clirs.jsonl" --no-such-flag)" -eq 2 ]
grep -q -e "--no-such-flag" "$SMOKE/misuse.err"
[ "$(analyze_status sweep)" -eq 2 ]

# Same-seed-twice byte diffs live in the test suite (golden_runs,
# shard_equiv, faults, rw, observability), not here. The smokes below drive
# the binaries: artifacts the analyzer must read, count gates, and sinks
# that must not perturb a run.

echo "==> config round-trip smoke (an emitted config is the same run; a stray key fails)"
# The benchmark builds its inputs by patching `--emit-config` output, so an
# emitted config must parse back into the run it came from, and a key the
# config does not have (misspelled, or retired like `selector` and
# `rate_control`) must exit 1 rather than run the defaults.
./target/debug/simulate --small --emit-config > "$SMOKE/cfg.json"
# A config is one base plus overrides: where a flag stands never matters.
./target/debug/simulate --emit-config --small --seed 5 --scheme netrs-ilp > "$SMOKE/emit-first.json"
./target/debug/simulate --small --scheme netrs-ilp --seed 5 --emit-config > "$SMOKE/emit-last.json"
cmp "$SMOKE/emit-first.json" "$SMOKE/emit-last.json"
./target/debug/simulate --config "$SMOKE/cfg.json" --requests 5000 --seed 5 \
    --json > "$SMOKE/cfg-stats.json"
./target/debug/simulate --small --requests 5000 --seed 5 --json > "$SMOKE/small-stats.json"
cmp "$SMOKE/cfg-stats.json" "$SMOKE/small-stats.json"
for retired in 'selector="Random"' 'rate_control=null'; do
    key=${retired%%=*}
    sed "s/^{\$/{\n  \"$key\": ${retired#*=},/" "$SMOKE/cfg.json" > "$SMOKE/cfg-$key.json"
    status=0
    ./target/debug/simulate --config "$SMOKE/cfg-$key.json" --requests 5000 --json \
        > /dev/null 2> "$SMOKE/cfg-$key.err" || status=$?
    [ "$status" -eq 1 ]
    grep -q "unknown field \`$key\`" "$SMOKE/cfg-$key.err"
done

echo "==> control-plane smoke (stream renders, run unperturbed)"
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --control "$SMOKE/ctl-a.jsonl" --json > "$SMOKE/ctl-stats-a.json"
# Without --control the run itself must not change: identical stats.
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --json > "$SMOKE/ctl-stats-plain.json"
diff -u "$SMOKE/ctl-stats-a.json" "$SMOKE/ctl-stats-plain.json"
./target/debug/netrs-analyze control "netrs-ilp=$SMOKE/ctl-a.jsonl" \
    | grep -q "plan churn"

echo "==> placement-solve smoke (paper-scale ILP proven at the root, by deterministic counts)"
# The default 16-ary config: the greedy plan must be proven optimal by the
# cover bound alone, before any tableau is built. Gated on the plan
# record's counts, not on wall clock — a solve that falls back to the LP
# or branches again shows up as iterations and nodes on any box, and a
# model build that drops or adds a variable or row shows up as its size.
./target/debug/simulate --scheme netrs-ilp --requests 1000 \
    --control "$SMOKE/placement.jsonl" --json > /dev/null
plan=$(grep -m 1 '"kind":"plan"' "$SMOKE/placement.jsonl")
plan_field() { echo "$plan" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
[ "$(plan_field variables)" -eq 1769 ]
[ "$(plan_field constraints)" -eq 641 ]
[ "$(plan_field branch_nodes)" -eq 0 ]
[ "$(plan_field lp_iterations)" -eq 0 ]
[ "$(plan_field bound)" -eq 2 ]
[ "$(plan_field rsnodes)" -eq 2 ]
grep -q '"proven_optimal":true' <<< "$plan"

echo "==> memory smoke (paper-scale set-up stays small; only CliRS-R95 keeps per-client histograms)"
# Peak RSS of a 1 000-request run on the default 16-ary config is all
# set-up. 500 per-client latency histograms are 29 MB of it, and only
# CliRS-R95 reads them: with them resident for every scheme these runs
# peak at 29 MB, without at 6-7 MB. NetRS-ILP's set-up holds no simplex
# tableau (12 MB) when the cover bound proves the greedy plan.
peak_rss_kb() { # BUILD SCHEME REQUESTS [SIMULATE ARGS...]
    "./target/$1/simulate" --scheme "$2" --requests "$3" "${@:4}" --json 2>&1 >/dev/null \
        | sed -n 's/^engine: .*peak RSS \([0-9]*\) kB$/\1/p'
}
for scheme in clirs netrs-tor netrs-ilp; do
    [ "$(peak_rss_kb debug "$scheme" 1000)" -le 12288 ]
done
[ "$(peak_rss_kb debug clirs-r95 1000)" -le 49152 ]
# Past warm-up, memory is a function of what is in flight, not of how long
# the run is: three times the requests may not cost 15 % more. (ToR
# monitors keyed by the ring's replication-group ids instead of their own
# traffic groups grew a map entry per id and read 1.46x here.) Release
# build: 300 000 requests are 2 M events.
cargo build -q --release -p netrs-sim --bin simulate
short=$(peak_rss_kb release netrs-tor 100000)
long=$(peak_rss_kb release netrs-tor 300000)
[ $((100 * long)) -le $((115 * short)) ]
# The same on the fault path (the benchmark's rw-faults-netrs-tor shape): a
# completed read can leave a copy queued at an overloaded replica for
# seconds, and a request table sized by the id span back to the oldest such
# straggler doubles with the run (2.03x here; 262 144 slots for 3 652 live
# requests at 400 000). Gated on the table's own counts, and on peak RSS:
# hot-key caches are allocated at capacity when built, so none of this is
# caches warming up. Measured 8 300-8 380 kB short and 11 064-11 184 kB
# long (1.32-1.35x; the counting allocator's heap peak grows 5.7 -> 8.8 MB
# between the two); the gate is 1.37x, the ratio before 16-byte cache slots
# and 80-byte copy tokens, + 15 %.
cat > "$SMOKE/rw-plan.json" <<'PLAN'
{"events": [
  {"at": 200000000, "fault": {"ServerCrash": {"server": 0}}},
  {"at": 400000000, "fault": {"ServerRecover": {"server": 0}}},
  {"at": 600000000, "fault": {"PacketLossBurst": {"probability": 0.02, "duration": 100000000}}}
]}
PLAN
rw_faults=(--utilization 0.7 --write-fraction 0.1 --consistency quorum:2 --hot-cache 1024
    --faults "$SMOKE/rw-plan.json")
short=$(peak_rss_kb release netrs-tor 100000 "${rw_faults[@]}")
long=$(peak_rss_kb release netrs-tor 300000 "${rw_faults[@]}" --perf "$SMOKE/rw-faults-perf.json")
[ $((100 * long)) -le $((158 * short)) ]
table_field() {
    grep -A 3 '"request_table"' "$SMOKE/rw-faults-perf.json" \
        | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p"
}
[ "$(table_field live_high_water)" -gt 0 ]
[ "$(table_field slots)" -le $((8 * $(table_field live_high_water))) ]
# Cache lookups, admissions and coherence batches skip the operators the
# holder bank says hold no key of the class. A debug build asserts every
# skipped operator's index lacks the key, that a chain hop's token agrees
# with its request and that every request completed or timed out; a
# release build checks none of it and must write the same bytes (a crash
# flush, a dead uplink and a loss burst in overlap.json), for every write
# path.
for consistency in all quorum:2 chain; do
    for build in debug release; do
        "./target/$build/simulate" --small --scheme netrs-tor --requests 20000 --seed 7 \
            --write-fraction 0.1 --consistency "$consistency" --hot-cache 128 \
            --faults tests/fixtures/faults/overlap.json \
            --devices "$SMOKE/overlap-$build-dev.jsonl" --json > "$SMOKE/overlap-$build.json"
    done
    cmp "$SMOKE/overlap-debug.json" "$SMOKE/overlap-release.json"
    cmp "$SMOKE/overlap-debug-dev.jsonl" "$SMOKE/overlap-release-dev.jsonl"
done

echo "==> perf-profile smoke (simulate --perf, profiler must not perturb)"
# A profiled run must produce byte-identical stats to the plain run above
# and a schema-valid profile the analyzer can render.
./target/debug/simulate --small --scheme netrs-ilp --requests 5000 --seed 5 \
    --perf "$SMOKE/perf-profile.json" --json > "$SMOKE/perf-prof-stats.json"
diff -u "$SMOKE/ctl-stats-plain.json" "$SMOKE/perf-prof-stats.json"
grep -q '"schema_version": 2' "$SMOKE/perf-profile.json"
./target/debug/netrs-analyze perf "$SMOKE/perf-profile.json" > "$SMOKE/perf-profile.txt"
grep -q "by layer" "$SMOKE/perf-profile.txt"

echo "==> parallel-sweep smoke (grid artifact, renderer, cells match solo runs)"
# No wall-clock gating (CI boxes are too noisy and may be single-core);
# the measured speedup lands in the artifact for EXPERIMENTS.md instead.
./target/debug/simulate sweep --small --requests 5000 --seeds 5,7 --schemes all \
    --baseline --out "$SMOKE/sweep.json"
grep -q '"schema_version": 2' "$SMOKE/sweep.json"
grep -q '"speedup"' "$SMOKE/sweep.json"
./target/debug/netrs-analyze sweep "$SMOKE/sweep.json" > "$SMOKE/sweep.txt"
grep -q "## Sweep: 8 cells" "$SMOKE/sweep.txt"
grep -q "speedup" "$SMOKE/sweep.txt"
# A sweep cell is the same simulation as a solo run of the same config:
# the netrs-tor/seed-7 cell must carry the mean a sequential solo run
# reports (sweep cells run the sequential engine).
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 7 \
    --json > "$SMOKE/shard-seq.json"
mean_solo=$(grep -A 2 '"latency"' "$SMOKE/shard-seq.json" | grep '"mean"' | head -1 | tr -dc 0-9)
grep -q "\"mean\": $mean_solo" "$SMOKE/sweep.json"

echo "==> repro smoke (a figure's grid is one sweep artifact the analyzer reads)"
# repro writes target/repro/<id>.json under its working directory.
cargo build -q -p netrs-bench --bin repro
repro_bin="$PWD/target/debug/repro"
(cd "$SMOKE" && "$repro_bin" fig4 --requests 2000 --seeds 1,2 > fig4.txt 2> fig4.err)
grep -q "== Impact of the number of clients (Fig. 4) ==" "$SMOKE/fig4.txt"
./target/debug/netrs-analyze sweep "$SMOKE/target/repro/fig4.json" \
    | grep -qF "## Sweep: 32 cells (16 configs × 2 seeds)"

echo "==> RSP-EX smoke (the worked placement example runs and prints its three plans)"
# `cargo test` builds the example but never runs it.
cargo run -q -p netrs-sim --example placement_planner > "$SMOKE/planner.txt"
[ "$(grep -c "RSNodes:" "$SMOKE/planner.txt")" -eq 3 ]

echo "==> link-fault smoke (the chaos example degrades and fails links; every request is accounted for)"
# The only example that degrades a link. Captured to a file first: `grep -q`
# closing the pipe early would fail the example's later prints.
cargo run -q -p netrs-sim --example chaos > "$SMOKE/chaos.txt"
grep -q "(accounted: true)" "$SMOKE/chaos.txt"

echo "==> shard fallback smoke (an ineligible run is the sequential engine and says why)"
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 7 \
    --shards 4 --json > "$SMOKE/shard-four.json" 2> "$SMOKE/shard-four.err"
cmp "$SMOKE/shard-seq.json" "$SMOKE/shard-four.json"
grep -qx -e "--shards 4 not applied: in-network scheme; sequential engine" "$SMOKE/shard-four.err"

echo "==> parallel smoke (replica engine: clean window accounting, bytes independent of threads)"
# nproc-aware: more workers where the box has the cores.
T=2
[ "$(nproc)" -ge 4 ] && T=4
for t in 1 "$T"; do
    ./target/debug/simulate --small --scheme clirs --requests 5000 --seed 7 \
        --shards 4 --threads "$t" --json > "$SMOKE/par-$t.json"
done
cmp "$SMOKE/par-1.json" "$SMOKE/par-$T.json"
grep -q '"parallel"' "$SMOKE/par-1.json"
grep -q '"mailbox_late": 0' "$SMOKE/par-1.json"

echo "==> alloc-profile feature (counting allocator, integration test)"
cargo test -q -p netrs-sim --features alloc-profile --test alloc_profile

echo "==> fault-injection smoke (scripted plan file, availability block, analyzer table)"
for scheme in clirs netrs-tor; do
    ./target/debug/simulate --small --scheme "$scheme" --requests 5000 --seed 7 \
        --faults tests/fixtures/faults/smoke.json --json > "$SMOKE/$scheme-faults-a.json"
    grep -q '"availability"' "$SMOKE/$scheme-faults-a.json"
done
./target/debug/netrs-analyze availability \
    --stats "clirs=$SMOKE/clirs-faults-a.json" --stats "netrs-tor=$SMOKE/netrs-tor-faults-a.json" \
    | grep -q "Availability under faults"

echo "==> rw smoke (writes + hot-key cache: rw block, batched coherence, analyzer tables)"
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
    --write-fraction 0.1 --consistency quorum:2 --hot-cache 128 \
    --json > "$SMOKE/rw-a.json"
grep -q '"rw"' "$SMOKE/rw-a.json"
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
    --write-fraction 0.1 --consistency quorum:2 --hot-cache 128 \
    --devices "$SMOKE/rw-dev.jsonl" --perf "$SMOKE/rw-perf.json" --json > /dev/null
# A write's coherence messages travel as one event per arrival time (own
# ToR, own pod, other pods on a healthy fat-tree), not one per RSNode.
# Counts, not clocks: the per-operator fan-out coming back shows here on
# any box (6 RSNodes on this topology).
writes=$(sed -n 's/.*"writes_issued": \([0-9]*\).*/\1/p' "$SMOKE/rw-a.json")
batches=$(grep -A 2 '"kind": "CacheInvalidate"' "$SMOKE/rw-perf.json" \
    | sed -n 's/.*"count": \([0-9]*\).*/\1/p')
[ "$batches" -gt 0 ]
[ "$batches" -le $((4 * writes)) ]
./target/debug/netrs-analyze rw --stats "netrs-tor=$SMOKE/rw-a.json" \
    --devices "$SMOKE/rw-dev.jsonl" > "$SMOKE/rw-report.txt"
grep -q "Read/write mix" "$SMOKE/rw-report.txt"
grep -q "Per-operator cache" "$SMOKE/rw-report.txt"

echo "==> cache-invalidation-under-fault smoke (lost coherence => stale reads)"
# Half the packets die mid-run: invalidations are lost with everything
# else, so stale reads must appear.
./target/debug/simulate --small --scheme netrs-tor --requests 5000 --seed 9 \
    --write-fraction 0.2 --hot-cache 128 \
    --faults tests/fixtures/faults/invalidation-loss.json \
    --json > "$SMOKE/rw-faults-a.json"
stale=$(sed -n 's/.*"stale_reads": \([0-9]*\).*/\1/p' "$SMOKE/rw-faults-a.json")
[ "$stale" -gt 50 ]

echo "==> benchmark smoke (the harness builds against the workspace and its checks pass)"
# Building the harness prunes benchmark/Cargo.lock: put the committed file
# back afterwards, pass or fail, so a CI run leaves benchmark/ as it was.
cp benchmark/Cargo.lock "$SMOKE/benchmark-Cargo.lock"
trap 'cp "$SMOKE/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$SMOKE"' EXIT
benchmark/smoke.sh

echo "==> CI green"
