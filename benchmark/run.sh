#!/usr/bin/env bash
# The repo benchmark's one command (see README.md next to this file).
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--passes P]
#                    [--smoke] [--out FILE]
#       Builds `ecofl` and the two benchmark packages offline, runs every
#       workload (or W) end to end, then its traced `layers` run (not
#       with --smoke: one pass, one op per class, no traced run), prints
#       every metric as `name value unit`, writes one JSON record to
#       --out (default: target/benchmark/runs/<time>-<rev>.json — never
#       into the tree) and exits non-zero if any check failed.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       The form BENCHMARK.json's `command` is driven with: one workload,
#       untraced (`e2e`, end-to-end metrics) or traced (`layers`,
#       per-layer metrics); the last stdout line is the result object.
set -euo pipefail
REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO"

trace=""
out=""
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
        --out) out="${2:?--out needs a file}"; shift 2 ;;
        --workload | --seed | --seconds | --passes)
            args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --smoke) args+=("$1"); shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

# A caller's CARGO_TARGET_DIR (relative to the repo root, as the
# benchmark driver sets it) holds both builds; otherwise the benchmark
# package builds under target/benchmark so it never touches target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) root_target="$CARGO_TARGET_DIR" ;;
        *) root_target="$REPO/$CARGO_TARGET_DIR" ;;
    esac
    bench_target="$root_target"
else
    root_target="$REPO/target"
    bench_target="$REPO/target/benchmark"
fi

# Builds talk on stderr; stdout is the benchmark's. `e2e` and `layers`
# are packages apart: `e2e` depends on nothing, so a change under crates/
# which breaks `layers` leaves the end-to-end gate standing.
if [ ! -f "$REPO/Cargo.toml" ]; then
    echo "run.sh: no workspace at $REPO — the benchmark builds ecofl from source" >&2
    exit 2
fi
CARGO_TARGET_DIR="$root_target" cargo build --release --offline \
    --manifest-path "$REPO/Cargo.toml" --bin ecofl >&2
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml --bin e2e >&2
layers_built=1
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline \
    --manifest-path benchmark/layers/Cargo.toml --bin layers >&2 || layers_built=0

ecofl="$root_target/release/ecofl"
e2e="$bench_target/release/e2e"
layers="$bench_target/release/layers"
work="$bench_target/ecofl-benchmark-work"
common=(--ecofl "$ecofl" --work-dir "$work")

case "$trace" in
    0)
        "$e2e" run "${args[@]}" "${common[@]}"
        exit $?
        ;;
    1)
        if [ "$layers_built" -ne 1 ]; then
            echo "run.sh: the layers binary does not build; no traced run" >&2
            exit 1
        fi
        "$layers" "${args[@]}" "${common[@]}"
        exit $?
        ;;
    "") ;;
    *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

if [ "$layers_built" -ne 1 ]; then
    echo "run.sh: the layers binary does not build; fix it or run with --trace 0" >&2
    exit 1
fi
rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -z "$out" ]; then
    out="$bench_target/runs/$(date -u +%Y%m%dT%H%M%SZ)-$rev.json"
fi
"$e2e" suite "${args[@]}" "${common[@]}" --layers "$layers" --out "$out" \
    --rustc "$(rustc --version)" --git-rev "$rev"
