#!/usr/bin/env bash
# Tier-1 CI: build, lint, test, and verify every experiment reproduces
# its committed quick-scale golden at one and at two workers.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --release --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== test =="
cargo test -q --workspace

echo "== quick-scale goldens (every figure and breakdown CSV, --jobs 1 and --jobs 2) =="
# Every experiment is deterministic (fault injection and arrival gaps are
# seeded), so each CSV a quick-scale `all` run writes must reproduce its
# committed golden bit-for-bit, whatever the worker count.
serial_dir=target/ci-repro/serial
parallel_dir=target/ci-repro/parallel
rm -rf "$serial_dir" "$parallel_dir"
for run in "1 $serial_dir" "2 $parallel_dir"; do
    read -r jobs dir <<<"$run"
    cargo run --release -p proteus-bench --bin repro -- \
        --quick --jobs "$jobs" --out "$dir" all >/dev/null
    test -s "$dir/summary.json" || { echo "missing $dir/summary.json" >&2; exit 1; }
    for golden in scripts/golden/*_quick.csv; do
        test -f "$dir/$(basename "$golden" _quick.csv).csv" \
            || { echo "--jobs $jobs wrote no CSV for $golden" >&2; exit 1; }
    done
    for csv in "$dir"/*.csv; do
        diff "scripts/golden/$(basename "$csv" .csv)_quick.csv" "$csv"
    done
done
echo "all quick-scale CSVs match their goldens at --jobs 1 and --jobs 2; summary.json emitted"

echo "== profiling exports (folded determinism, golden diff, Chrome trace) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" --flame fig3 >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" --flame fig3 >/dev/null
diff "$serial_dir/flamegraph_fig3.folded" "$parallel_dir/flamegraph_fig3.folded"
# Attribution is deterministic, so the quick-scale folded profile must
# reproduce the committed golden bit-for-bit on every host.
diff scripts/golden/flamegraph_fig3_quick.folded "$serial_dir/flamegraph_fig3.folded"
echo "folded profile byte-identical across job counts and matches the golden"

echo "== event-stream goldens (JSON-lines traces, Chrome trace) =="
# The demo timelines are deterministic, so each event, its cycle stamp
# and its attribution tag must reproduce the committed golden exactly.
trace_dir=target/ci-repro/traces
rm -rf "$trace_dir"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --out "$trace_dir" --trace alpha --trace twofish --trace echo \
    --chrome-trace alpha >/dev/null
for app in alpha twofish echo; do
    diff "scripts/golden/trace_${app}_quick.jsonl" "$trace_dir/trace_$app.jsonl"
done
diff scripts/golden/chrome_trace_alpha_quick.json "$trace_dir/chrome_trace_alpha.json"
echo "event streams and the Chrome trace match their goldens"

echo "== benchmark correctness gate (perfbench, makespan golden diff) =="
# Every benchmark workload must pass perfbench's own gate (checksums,
# conservation, no kills); the traced thrash and fig3_sweep runs add the
# probe replay and the traced-vs-untraced fingerprints. Simulated
# makespans are deterministic, so the untraced runs must reproduce the
# golden exactly.
mkdir -p target/ci-repro
makespans=target/ci-repro/perfbench_makespan.txt
: >"$makespans"
for run in "resident 0" "thrash 0" "fig3_sweep 0" "thrash 1" "fig3_sweep 1"; do
    read -r workload trace <<<"$run"
    log="target/ci-repro/perfbench_${workload}_trace$trace.log"
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 0.1 --trace "$trace" 2>"$log" | tail -n 1)
    case "$last" in
        '{"correct": true, '*'"failed": 0, '*) ;;
        *)
            echo "perfbench $workload --trace $trace failed its gate (stderr in $log): $last" >&2
            exit 1
            ;;
    esac
    if [ "$trace" = 0 ]; then
        makespan=$(sed -n 's/.*"sim_makespan_mcycles": {"value": \([0-9.]*\).*/\1/p' <<<"$last")
        echo "$workload $makespan" >>"$makespans"
    fi
done
diff scripts/golden/perfbench_makespan.txt "$makespans"
echo "benchmark workloads pass their correctness gate and match the makespan golden"

echo "== ci.sh OK =="
