#!/usr/bin/env bash
# Tier-1 CI: build, test, and verify the parallel experiment runner is
# deterministic (a --jobs 2 run must produce byte-identical CSVs to a
# --jobs 1 run).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
cargo build --release --workspace

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== test =="
cargo test -q --workspace

echo "== repro determinism (fig2, --jobs 1 vs --jobs 2) =="
serial_dir=target/ci-repro/serial
parallel_dir=target/ci-repro/parallel
rm -rf "$serial_dir" "$parallel_dir"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" fig2 >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" fig2 >/dev/null
diff "$serial_dir/fig2.csv" "$parallel_dir/fig2.csv"
diff "$serial_dir/breakdown_fig2.csv" "$parallel_dir/breakdown_fig2.csv"
for f in "$serial_dir/summary.json" "$parallel_dir/summary.json"; do
    test -s "$f" || { echo "missing $f" >&2; exit 1; }
done
echo "CSVs byte-identical across job counts; summary.json emitted"

echo "== fault-campaign smoke (quick scale, --jobs 1 vs --jobs 2, golden diff) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" faults >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" faults >/dev/null
diff "$serial_dir/fault_campaign.csv" "$parallel_dir/fault_campaign.csv"
diff "$serial_dir/breakdown_fault_campaign.csv" "$parallel_dir/breakdown_fault_campaign.csv"
# Fault injection is seeded: the quick-scale campaign must reproduce the
# committed golden matrix bit-for-bit on every host.
diff scripts/golden/fault_campaign_quick.csv "$serial_dir/fault_campaign.csv"
echo "fault campaign deterministic and matches the golden matrix"

echo "== dynamic-load smoke (quick scale, --jobs 1 vs --jobs 2, golden diff) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" dynamic >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" dynamic >/dev/null
diff "$serial_dir/dynamic_load.csv" "$parallel_dir/dynamic_load.csv"
diff "$serial_dir/breakdown_dynamic_load.csv" "$parallel_dir/breakdown_dynamic_load.csv"
# Arrival gaps are seeded: the quick-scale turnaround curves and their
# cycle attribution must reproduce the committed goldens bit-for-bit.
diff scripts/golden/dynamic_load_quick.csv "$serial_dir/dynamic_load.csv"
diff scripts/golden/breakdown_dynamic_load_quick.csv "$serial_dir/breakdown_dynamic_load.csv"
echo "dynamic load deterministic and matches the goldens"

echo "== quick-scale goldens (every figure and breakdown CSV) =="
# Every experiment is deterministic, so each CSV a quick-scale `all` run
# writes must have a committed golden and reproduce it bit-for-bit.
golden_dir=target/ci-repro/golden
rm -rf "$golden_dir"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$golden_dir" all >/dev/null
for csv in "$golden_dir"/*.csv; do
    diff "scripts/golden/$(basename "$csv" .csv)_quick.csv" "$csv"
done
echo "all quick-scale CSVs match their goldens"

echo "== profiling exports (folded determinism, golden diff, Chrome trace) =="
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 1 --out "$serial_dir" --flame fig3 >/dev/null
cargo run --release -p proteus-bench --bin repro -- \
    --quick --jobs 2 --out "$parallel_dir" --flame fig3 >/dev/null
diff "$serial_dir/flamegraph_fig3.folded" "$parallel_dir/flamegraph_fig3.folded"
# Attribution is deterministic, so the quick-scale folded profile must
# reproduce the committed golden bit-for-bit on every host.
diff scripts/golden/flamegraph_fig3_quick.folded "$serial_dir/flamegraph_fig3.folded"
cargo run --release -p proteus-bench --bin repro -- \
    --quick --out "$serial_dir" --chrome-trace alpha >/dev/null
test -s "$serial_dir/chrome_trace_alpha.json" \
    || { echo "missing chrome_trace_alpha.json" >&2; exit 1; }
grep -q '"traceEvents"' "$serial_dir/chrome_trace_alpha.json"
echo "folded profile byte-identical across job counts and matches the golden"

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
