#!/usr/bin/env bash
# Benchmark trajectory runner: regenerates the committed BENCH_*.json
# snapshots at the repo root.
#
#   ./scripts/bench.sh            # full run, snapshots -> repo root
#   ./scripts/bench.sh --smoke    # 1-iteration schema check -> target/bench-smoke
#
# Drives the `micro` and `headline_summary` bench targets (both built on
# `ecofl_bench::time_case`), then validates the emitted snapshots with
# the `validate_bench` schema gate — a malformed snapshot fails the run
# instead of landing in the trajectory. Iteration counts honor
# ECOFL_BENCH_ITERS / ECOFL_BENCH_WARMUP; `--smoke` pins them to 1/0
# unless the caller overrode them, so CI can assert the plumbing without
# asserting machine-dependent timings.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
for arg in "$@"; do
    case "$arg" in
        --smoke) smoke=1 ;;
        *)
            echo "usage: $0 [--smoke]" >&2
            exit 2
            ;;
    esac
done

if [ "$smoke" -eq 1 ]; then
    out_dir="$PWD/target/bench-smoke"
    export ECOFL_BENCH_ITERS="${ECOFL_BENCH_ITERS:-1}"
    export ECOFL_BENCH_WARMUP="${ECOFL_BENCH_WARMUP:-0}"
    rm -rf "$out_dir"
else
    out_dir="$PWD"
fi
export ECOFL_BENCH_DIR="$out_dir"

# Stamp records with the current revision even where the git binary is
# unavailable inside the bench process.
if [ -z "${ECOFL_GIT_REV:-}" ]; then
    ECOFL_GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
    export ECOFL_GIT_REV
fi

echo "==> bench trajectory: iters=${ECOFL_BENCH_ITERS:-default}" \
    "warmup=${ECOFL_BENCH_WARMUP:-default} rev=$ECOFL_GIT_REV -> $out_dir"

echo "==> cargo bench --offline -p ecofl-bench --bench micro"
cargo bench --offline -p ecofl-bench --bench micro

echo "==> cargo bench --offline -p ecofl-bench --bench headline_summary"
cargo bench --offline -p ecofl-bench --bench headline_summary

for topic in micro headline; do
    if [ ! -s "$out_dir/BENCH_$topic.json" ]; then
        echo "ERROR: bench run produced no $out_dir/BENCH_$topic.json" >&2
        exit 1
    fi
done

echo "==> validate_bench"
cargo build --release --offline -q -p ecofl-bench --bin validate_bench
./target/release/validate_bench "$out_dir/BENCH_micro.json" "$out_dir/BENCH_headline.json"

# The headline snapshot must carry the Table-2-style schedule matrix:
# one sched_<kind>_* case per registered schedule.
for kind in 1f1b gpipe async interleaved zb; do
    if ! grep -q "\"sched_${kind}_" "$out_dir/BENCH_headline.json"; then
        echo "ERROR: BENCH_headline.json is missing the sched_${kind}_* schedule-matrix cases" >&2
        exit 1
    fi
done

# The metrics instrumentation must stay in the trajectory: the micro
# snapshot carries the hub hot-path cases and the headline snapshot the
# hub-attached twin of the 1F1B round (the committed overhead record).
for case in metrics_hub_counter_inc_1024 metrics_hub_histogram_record_1024 \
    metrics_hub_snapshot_48_series; do
    if ! grep -q "\"$case\"" "$out_dir/BENCH_micro.json"; then
        echo "ERROR: BENCH_micro.json is missing the $case metrics case" >&2
        exit 1
    fi
done
if ! grep -q "\"pipeline_1f1b_round_b2_m16_metered\"" "$out_dir/BENCH_headline.json"; then
    echo "ERROR: BENCH_headline.json is missing the hub-attached 1F1B round case" >&2
    exit 1
fi

# The census-scale scheduler cases must stay in the trajectory: the
# event queue, million-point mini-batch k-means and the million-client
# association over 64 shared histograms in the micro snapshot, the
# 100k-virtual-client end-to-end dispatch in the headline snapshot.
for case in eventqueue_schedule_pop kmeans_minibatch_1m grouper_initial_1m_64rows; do
    if ! grep -q "\"$case\"" "$out_dir/BENCH_micro.json"; then
        echo "ERROR: BENCH_micro.json is missing the $case scale case" >&2
        exit 1
    fi
done
if ! grep -q "\"sched_dispatch_100k\"" "$out_dir/BENCH_headline.json"; then
    echo "ERROR: BENCH_headline.json is missing the sched_dispatch_100k scale case" >&2
    exit 1
fi

# The §4.3 plan search must stay in the trajectory: the six-stage Eq. 1
# DP in the micro snapshot, the whole six-device B6 search in the
# headline snapshot.
if ! grep -q "\"partition_dp_b6_6stage\"" "$out_dir/BENCH_micro.json"; then
    echo "ERROR: BENCH_micro.json is missing the partition_dp_b6_6stage case" >&2
    exit 1
fi
if ! grep -q "\"plan_search_b6_6dev\"" "$out_dir/BENCH_headline.json"; then
    echo "ERROR: BENCH_headline.json is missing the plan_search_b6_6dev case" >&2
    exit 1
fi

# The FL training step must stay in the trajectory: the whole
# `local_train` call, one steady-state step of it, and the three
# L1-resident products of the MLP's widest layer next to the 64² cases
# and a 256² product far past any shipped model's (same pack-free tiles).
for case in local_train_60samples_3epochs train_step_mlp_b10 matmul_10x32x64 \
    matmul_tn_10x32x64 matmul_nt_10x64x32 matmul_64x64 matmul_256x256; do
    if ! grep -q "\"$case\"" "$out_dir/BENCH_micro.json"; then
        echo "ERROR: BENCH_micro.json is missing the $case training-step case" >&2
        exit 1
    fi
done

echo "==> bench snapshots written to $out_dir"
