#!/usr/bin/env bash
# A/B pairs of the repo benchmark between two revisions.
#
#   scripts/ab.sh <parent-rev> <change-rev> [--workload W[,W...]|all] [--pairs N]
#
# Builds each revision once from `git archive` into a fresh directory of
# its own (two siblings under one `mktemp -d`, so both checkouts have
# paths of equal length). Then, for each workload named — a comma list,
# or `all`, run in the order BENCHMARK.json lists them — it runs the
# unmodified `benchmark/run.sh --workload W --seconds 12 --trace 0` of
# each side N times (default 10) on the seeds below, alternating which
# side goes first in a pair. Per workload it prints, for every
# end-to-end metric of BENCHMARK.json, each side's median [q1, q3] over
# the pairs and in how many pairs the change read lower; then
# `e2e compare` judges the change's medians against the parent's under
# BENCHMARK.json's bounds and gives that workload's verdict (a result
# line carries no `sim_digest`, so compare's digest line says nothing
# here — the repo's goldens pin the answers). It exits 1 if any
# workload's verdict is a breach. Every run's result line is appended to
# BENCH_history.jsonl at the repo root, tagged with the revisions, the
# workload, the pair, the seed and the side.
#
# The build directories are removed on exit. Set TMPDIR to put them on
# another disk.
set -euo pipefail
REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"
# Each side builds into its own checkout, never into a shared target dir.
unset CARGO_TARGET_DIR

# One seed per pair, the same on both sides of it.
SEEDS=(11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30)

usage() {
    echo "usage: scripts/ab.sh <parent-rev> <change-rev> [--workload W[,W...]|all] [--pairs N]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$(git rev-parse --verify "$1^{commit}")
change_rev=$(git rev-parse --verify "$2^{commit}")
shift 2
requested=pipeline_plan
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) requested="${2:?--workload needs a name}"; shift 2 ;;
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        *) usage ;;
    esac
done
if ! [ "$pairs" -ge 1 ] 2>/dev/null || [ "$pairs" -gt "${#SEEDS[@]}" ]; then
    echo "ab.sh: --pairs must be 1..${#SEEDS[@]}, got '$pairs'" >&2
    exit 2
fi
# The workloads and their order, from the contract.
known=$(sed -n '/"workloads"/,/\]/p' BENCHMARK.json |
    grep -oE '"name": *"[a-z_0-9]+"' | sed -E 's/.*"([a-z_0-9]+)"$/\1/')
for name in ${requested//,/ }; do
    if [ "$name" != all ] && ! grep -qx "$name" <<<"$known"; then
        echo "ab.sh: unknown workload '$name' (all, or a comma list of: $(echo $known))" >&2
        exit 2
    fi
done
workloads=()
for name in $known; do
    if [ "$requested" = all ] || [[ ",$requested," == *",$name,"* ]]; then
        workloads+=("$name")
    fi
done
[ ${#workloads[@]} -gt 0 ] || usage

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
history="$REPO/BENCH_history.jsonl"
# The end-to-end metrics and their order, from the contract.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    grep -oE '"name": *"[a-z_0-9]+"' | sed -E 's/.*"([a-z_0-9]+)"$/\1/')

for side in parent change; do
    rev=${side}_rev
    mkdir -p "$work/$side"
    git archive "${!rev}" | tar -x -C "$work/$side"
    echo "==> building $side ${!rev:0:10} in $work/$side" >&2
    # run.sh builds what it runs; build once here so no pair pays for it
    # (run.sh tolerates a `layers` that does not build, and so does this).
    (cd "$work/$side" && cargo build --release --offline --bin ecofl >&2 &&
        CARGO_TARGET_DIR=target/benchmark cargo build --release --offline \
            --manifest-path benchmark/Cargo.toml --bin e2e >&2 &&
        { CARGO_TARGET_DIR=target/benchmark cargo build --release --offline \
            --manifest-path benchmark/layers/Cargo.toml --bin layers >&2 || true; })
done

# run_side <workload> <side> <pair> <seed> <order>: one benchmark run, its
# result line appended to the history and kept as
# $work/<workload>.<side>.<pair>.json.
run_side() {
    local workload=$1 side=$2 pair=$3 seed=$4 order=$5 rev result
    rev=${side}_rev
    echo "==> $workload pair $pair/$pairs seed $seed: $side" >&2
    result=$(cd "$work/$side" &&
        benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 12 --trace 0 | tail -n 1)
    printf '%s\n' "$result" >"$work/$workload.$side.$pair.json"
    printf '{"parent":"%s","change":"%s","workload":"%s","pair":%d,"seed":%d,"side":"%s","order":%d,"result":%s}\n' \
        "$parent_rev" "$change_rev" "$workload" "$pair" "$seed" "$side" "$order" "$result" >>"$history"
}

# value <file> <metric>: the metric's value in one result line.
value() {
    grep -oE "\"$2\":\\{[^}]*\\}" "$1" | grep -oE '"value":[-0-9.eE+]+' | cut -d: -f2
}

# quartiles: median [q1, q3] of the numbers on stdin (nearest rank).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function at(q,  r) { r = int(q * NR); if (r < q * NR) r++; if (r < 1) r = 1; return v[r] }
        END { printf "%.6g [%.6g, %.6g]", at(0.5), at(0.25), at(0.75) }'
}

# ab <workload>: the pairs, the table and the verdict of one workload; a
# breach adds the workload to `breached`.
ab() {
    local workload=$1 i seed side metric lower a b qa qb medians
    local medians_parent="" medians_change=""
    for ((i = 1; i <= pairs; i++)); do
        seed=${SEEDS[i - 1]}
        if ((i % 2)); then
            run_side "$workload" parent "$i" "$seed" 1
            run_side "$workload" change "$i" "$seed" 2
        else
            run_side "$workload" change "$i" "$seed" 1
            run_side "$workload" parent "$i" "$seed" 2
        fi
    done
    echo
    echo "$workload: $pairs pair(s), parent ${parent_rev:0:10} vs change ${change_rev:0:10}"
    printf '%-12s %-34s %-34s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "change lower"
    for metric in $metrics; do
        lower=0
        for ((i = 1; i <= pairs; i++)); do
            a=$(value "$work/$workload.parent.$i.json" "$metric")
            b=$(value "$work/$workload.change.$i.json" "$metric")
            if awk -v a="$a" -v b="$b" 'BEGIN { exit !(b < a) }'; then
                lower=$((lower + 1))
            fi
        done
        qa=$(for ((i = 1; i <= pairs; i++)); do value "$work/$workload.parent.$i.json" "$metric"; done | quartiles)
        qb=$(for ((i = 1; i <= pairs; i++)); do value "$work/$workload.change.$i.json" "$metric"; done | quartiles)
        printf '%-12s %-34s %-34s in %d/%d\n' "$metric" "$qa" "$qb" "$lower" "$pairs"
        medians_parent+="${medians_parent:+,}\"$metric\":{\"value\":${qa%% *}}"
        medians_change+="${medians_change:+,}\"$metric\":{\"value\":${qb%% *}}"
    done
    # The verdict: the change's medians against the parent's, under the
    # contract's bounds, by the benchmark's own comparator.
    for side in parent change; do
        medians=medians_$side
        printf '{"workloads":{"%s":{"e2e":{"metrics":{%s}}}}}\n' "$workload" "${!medians}" \
            >"$work/$workload.$side.medians.json"
    done
    echo
    if ! "$work/change/target/benchmark/release/e2e" compare \
        "$work/$workload.parent.medians.json" "$work/$workload.change.medians.json" \
        --benchmark BENCHMARK.json; then
        breached+=("$workload")
    fi
}

breached=()
for workload in "${workloads[@]}"; do
    ab "$workload"
done
if [ ${#breached[@]} -gt 0 ]; then
    echo
    echo "ab.sh: breach in ${breached[*]}" >&2
    exit 1
fi
