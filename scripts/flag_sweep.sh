#!/usr/bin/env bash
# Flag sweep: every numeric flag of every command that runs something,
# at the values a typo or a script bug hands it — 0, -1, NaN, 1e300 and
# 2^63 — one flag at a time on small base flags.
#
#   scripts/flag_sweep.sh [path/to/ecofl]     # default ./target/release/ecofl
#
# A run passes when it exits 0, or fails with error lines that each name
# the `--flag` at fault. It fails the sweep on a panic, a death by signal,
# a timeout (10 s), or an `error:` line that names no `--flag`. Every run
# gets a fresh store directory and a 1 GiB address-space cap (`ulimit -v`),
# so an allocation blow-up aborts it instead of swapping the host. No run
# lengthens `--devices`: each pipeline stage of the kill demo is a thread.
#
# Each trace scenario also runs with `--store` at three paths no store can
# open: a regular file, a path under a regular file, and a directory whose
# `trace.seg` is garbage. The store opens before the run, so such a run
# passes only when it exits 1 and its stderr is one `error:` line that
# names the `--store` path, under the same cap and timeout; a panic, a
# signal, a timeout, a success or any other stderr fails the sweep.
set -u

bin=${1:-./target/release/ecofl}
if [ ! -x "$bin" ]; then
    echo "flag sweep: no executable at $bin (cargo build --release first)" >&2
    exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
values=(0 -1 NaN 1e300 9223372036854775808)
vm_kib=1048576
runs=0
failed=0
seed_store=""
# Set to file, under-file or garbage: STORE is then a path no store opens.
bad_store=""

run() { # <ecofl args...>; STORE in an argument becomes the run's store dir
    runs=$((runs + 1))
    local dir="$work/$runs" store="$work/$runs/store" args=() status=0 why=""
    mkdir -p "$dir"
    if [ -n "$seed_store" ]; then
        cp -r "$seed_store" "$store"
    fi
    case $bad_store in
        file) printf 'not a store\n' >"$store" ;;
        under-file)
            printf 'not a store\n' >"$dir/file"
            store="$dir/file/store"
            ;;
        garbage)
            mkdir -p "$store"
            printf 'not a segment, and long enough to hold a trailer\n' >"$store/trace.seg"
            ;;
    esac
    for arg in "$@"; do
        args+=("${arg//STORE/$store}")
    done
    (
        ulimit -v "$vm_kib"
        ECOFL_TRACE_DIR="$dir/default" exec timeout 10 "$bin" "${args[@]}"
    ) >/dev/null 2>"$dir/stderr" || status=$?
    if grep -q 'panicked' "$dir/stderr"; then
        why="panicked"
    elif [ "$status" -eq 124 ]; then
        why="timed out after 10 s"
    elif [ "$status" -gt 124 ] || [ "$status" -eq 101 ]; then
        why="died with exit status $status"
    elif [ -n "$bad_store" ]; then
        if [ "$status" -ne 1 ]; then
            why="exit status $status at a $bad_store --store"
        elif [ "$(wc -l <"$dir/stderr")" -ne 1 ] || ! grep -q '^error:' "$dir/stderr"; then
            why="not one error line at a $bad_store --store"
        elif ! grep -qF -- "$store" "$dir/stderr"; then
            why="the error names no --store path"
        fi
    elif grep '^error:' "$dir/stderr" | grep -qv -- '--[a-z]'; then
        why="an error names no --flag"
    fi
    if [ -n "$why" ]; then
        failed=$((failed + 1))
        echo "FAIL ($why): ecofl $*" >&2
        head -n 5 "$dir/stderr" | sed 's/^/    /' >&2
    fi
    rm -rf "$dir"
}

sweep() { # <base args...> : <numeric flags...>
    local base=()
    while [ "$1" != ":" ]; do
        base+=("$1")
        shift
    done
    shift
    local flag value
    for flag in "$@"; do
        for value in "${values[@]}"; do
            run "${base[@]}" "--$flag" "$value"
        done
    done
}

pipeline=(--model effnet-b0 --devices tx2q,nanoh)
fl=(clients horizon comm-latency seed shards clients-per-round groups grouping-batch)
small_fl=(--clients 12 --horizon 60)

sweep plan "${pipeline[@]}" --batch 32 : batch
sweep gantt "${pipeline[@]}" : mbs micro-batches width
sweep spike "${pipeline[@]}" : load at device horizon
sweep spike --devices tx2q,nanoh --kill-stage 1 : kill-stage kill-round kill-micro rounds seed
sweep fl "${small_fl[@]}" : "${fl[@]}"
sweep trace "${pipeline[@]}" --store STORE : rounds top mbs micro-batches block-records
sweep trace --scenario spike "${pipeline[@]}" --store STORE : \
    load at device horizon block-records
sweep trace --scenario fl "${small_fl[@]}" --store STORE : "${fl[@]}" block-records
for bad_store in file under-file garbage; do
    run trace "${pipeline[@]}" --store STORE
    run trace --scenario spike "${pipeline[@]}" --store STORE
    run trace --scenario fl "${small_fl[@]}" --store STORE
done
bad_store=""

# The query side reads a store one small pipeline trace wrote.
seed_store="$work/seed"
if ! "$bin" trace "${pipeline[@]}" --rounds 3 --store "$seed_store" >/dev/null; then
    echo "flag sweep: could not write the store the query runs read" >&2
    exit 1
fi
sweep trace --store STORE --limit 1 : limit min-duration
for value in "${values[@]}"; do
    run trace --store STORE --rounds "0..$value"
done

echo "flag sweep: $runs run(s), $failed failure(s)"
[ "$failed" -eq 0 ]
