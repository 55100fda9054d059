#!/usr/bin/env bash
# CI gate: hermetic offline build + tests + formatting + examples.
#
#   ./scripts/ci.sh
#
# The workspace must build from a clean checkout with NO network and no
# crates-io registry: every dependency is an in-repo `ecofl-*` crate
# (see crates/compat for the std-only replacements of the usual
# ecosystem crates). The hermeticity guard below fails the build the
# moment anyone reintroduces an external dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity guard: no non-ecofl dependencies, and no unused ecofl-* ones, in any Cargo.toml"
bad=0
unused=0
covered_obs=0
covered_fl=0
covered_tensor=0
covered_bench=0
covered_store=0
covered_metrics=0
while IFS= read -r manifest; do
    case "$manifest" in
        # The streaming-metrics module ships inside crates/obs; the
        # sentinel pins it to the manifest the walk covers so a future
        # move into its own crate must move the coverage check too.
        */crates/obs/Cargo.toml)
            covered_obs=1
            [ -f "${manifest%Cargo.toml}src/metrics.rs" ] && covered_metrics=1
            ;;
        */crates/fl/Cargo.toml) covered_fl=1 ;;
        */crates/tensor/Cargo.toml) covered_tensor=1 ;;
        */crates/bench/Cargo.toml) covered_bench=1 ;;
        */crates/store/Cargo.toml) covered_store=1 ;;
    esac
    # Collect dependency names from every [*dependencies*] section:
    # lines like `foo = ...` or `foo.workspace = true` between a
    # dependencies header and the next section header.
    deps=$(awk '
        /^\[.*dependencies.*\]/ { in_deps = 1; next }
        /^\[/                   { in_deps = 0 }
        in_deps && /^[a-zA-Z0-9_-]+[ .]/ { split($0, a, /[ .=]/); print a[1] }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            ecofl-*) ;;
            *)
                echo "ERROR: non-hermetic dependency '$dep' in $manifest" >&2
                bad=1
                ;;
        esac
    done
    # No unused in-repo edge in a workspace package, and each edge in the
    # section its users need: an ecofl-* line under [dependencies] is
    # named, as ecofl_*, by the package's own src/ (or build.rs); one under
    # [dev-dependencies] by any .rs file of the package (the root
    # package's files are src/, tests/ and examples/; crates/ and
    # benchmark/ hold other packages). An edge only tests, benches or
    # examples name belongs under [dev-dependencies]. The frozen
    # benchmark/ packages are outside the workspace and not checked.
    dir=${manifest%Cargo.toml}
    case "$manifest" in
        ./Cargo.toml) pkg_rs=$(find src tests examples -name '*.rs') ;;
        ./crates/*/Cargo.toml) pkg_rs=$(find "$dir" -name '*.rs') ;;
        *) continue ;;
    esac
    lib_rs=$(find "${dir}src" "${dir}build.rs" -name '*.rs' 2>/dev/null || true)
    while read -r section dep; do
        if [ "$section" = "[dependencies]" ]; then
            users=$lib_rs where="src/ file"
        else
            users=$pkg_rs where=".rs file of its package"
        fi
        if [ -z "$users" ] || ! grep -qw "${dep//-/_}" $users; then
            echo "ERROR: $manifest lists '$dep' under $section but no $where names ${dep//-/_}" >&2
            unused=1
        fi
    done < <(awk '
        /^\[workspace/            { in_deps = 0; next }
        /^\[.*dependencies.*\]/   { in_deps = 1; section = $1; next }
        /^\[/                     { in_deps = 0 }
        in_deps && /^ecofl-[a-zA-Z0-9_-]+[ .]/ { split($0, a, /[ .=]/); print section, a[1] }
    ' "$manifest")
done < <(find . -name Cargo.toml -not -path "./target/*")
if [ "$bad" -ne 0 ]; then
    echo "Hermeticity guard failed: the workspace must only depend on in-repo ecofl-* crates." >&2
    exit 1
fi
if [ "$unused" -ne 0 ]; then
    echo "Dependency guard failed: drop the unused ecofl-* lines above, or move a test-only one to [dev-dependencies]." >&2
    exit 1
fi
if [ "$covered_obs" -ne 1 ] || [ "$covered_fl" -ne 1 ] ||
    [ "$covered_tensor" -ne 1 ] || [ "$covered_bench" -ne 1 ] ||
    [ "$covered_store" -ne 1 ]; then
    echo "ERROR: hermeticity guard never saw the crates/obs, crates/fl, crates/tensor, crates/bench and crates/store manifests — the manifest walk is broken." >&2
    exit 1
fi
if [ "$covered_metrics" -ne 1 ]; then
    echo "ERROR: hermeticity guard did not find crates/obs/src/metrics.rs — the streaming-metrics module moved without updating its sentinel." >&2
    exit 1
fi
echo "    ok"

# Surface ledger: the four numbers the ROADMAP tracks downward, ratcheted
# against scripts/ledger.txt (a PR that must grow one raises the committed
# number in the same diff, where a reviewer sees it; one that shrinks it
# lowers the number so the gain is kept), and a guard that the run /
# run_traced / run_metered twins and the second event-queue backend
# (folded into `Obs` and deleted by PR 16) stay gone — as do the executor's
# second and third task records (`TaskSpan`, the busy / throughput
# trackers: a task is one `SpanRecord`, busy time a fold over them), the
# span-slice Gantt entry points and the unused plan validator.
echo "==> surface ledger"
rust_lines=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
prelude_exports=$(sed -e 's://.*::' crates/core/src/prelude.rs | tr -d '\n' |
    grep -oE 'pub use [^;]+;' | sed -E 's/^pub use ([A-Za-z0-9_:]*\{)?//; s/\}?;$//' |
    tr ',' '\n' | grep -cE '[A-Za-z0-9_]')
pub_items=$(grep -rhE --include='*.rs' \
    '^\s*pub (fn|struct|enum|trait|mod|const|type|use|static) ' crates/*/src | wc -l)
# Serde derives outside the compat layer itself: a type derives
# Serialize only if something writes it, Deserialize only if something
# reads it back (bench rows, Table 1's DeviceSpec, obs records and
# metrics snapshots). Newlines are dropped so a wrapped derive counts.
serde_derives=$(find crates src tests examples -name '*.rs' -not -path 'crates/compat*' -print0 |
    xargs -0 cat | tr -d '\n' | grep -oE '#\[derive\([^)]*\)\]' |
    grep -oE '\b(Serialize|Deserialize)\b' | wc -l)
echo "    $rust_lines Rust lines under crates/ src/ tests/ examples/"
echo "    $prelude_exports names exported by ecofl_core::prelude"
echo "    $pub_items pub items declared under crates/*/src"
echo "    $serde_derives Serialize / Deserialize derives outside crates/compat*"
ratchet() {
    local committed
    committed=$(awk -v name="$1" '$1 == name { print $2 }' scripts/ledger.txt)
    if ! [ "$committed" -ge 0 ] 2>/dev/null; then
        echo "ERROR: scripts/ledger.txt has no number for $1." >&2
        exit 1
    fi
    if [ "$2" -gt "$committed" ]; then
        echo "ERROR: $1 is $2, above the $committed committed in scripts/ledger.txt — shrink the change or raise the number on purpose." >&2
        exit 1
    fi
}
ratchet rust_lines "$rust_lines"
ratchet prelude_exports "$prelude_exports"
ratchet pub_items "$pub_items"
ratchet serde_derives "$serde_derives"
twins='run_metered|run_strategy_metered|run_strategy_traced|drive_metered|with_metrics\(|simulate_load_spike_traced|with_reference_backend'
twins="$twins|TaskSpan|TaskPhase|BusyTracker|ThroughputTracker|spans_to_view|render_round|validate_plan"
if grep -rnE --include='*.rs' "$twins" crates src tests examples benchmark/src benchmark/layers/src; then
    echo "ERROR: a folded twin is back — observation goes through ecofl_obs::Obs, an executed task is one SpanRecord." >&2
    exit 1
fi
# One training path: tensors go through `Layer` by value (the compiler
# holds every impl to the trait, so the trait's two signatures are the
# guard), and every consumer — FL clients, the evaluator, the threaded
# runtime — trains through the one `Network::train_step` and the one
# `local_train`. The allocating by-reference step survives only as the
# oracle under tests/.
if ! grep -qF 'fn forward(&mut self, input: Tensor) -> Tensor;' crates/tensor/src/layers.rs ||
    ! grep -qF 'fn backward(&mut self, grad_out: Tensor) -> Tensor;' crates/tensor/src/layers.rs; then
    echo "ERROR: Layer::forward / Layer::backward no longer take and return Tensor by value." >&2
    exit 1
fi
for entry in train_step local_train; do
    if [ "$(grep -rhoE --include='*.rs' "fn ${entry}[a-z0-9_]*" crates/*/src src | sort -u | wc -l)" -ne 1 ]; then
        echo "ERROR: expected exactly one ${entry}* function in production code, found:" >&2
        grep -rnE --include='*.rs' "fn ${entry}[a-z0-9_]*" crates/*/src src >&2
        exit 1
    fi
done
if grep -rnE --include='*.rs' '(struct|enum) +(Fused|Fast)[A-Za-z0-9]*(Mlp|Net|Network|Trainer)\b' crates/*/src src; then
    echo "ERROR: a second trainer type is back — Network is the one trainer for every ModelArch." >&2
    exit 1
fi
# No compute fan-out: kernels and FL local training run on the calling
# thread, one client at a time, and each update is folded before the next
# client trains. Two threads did not pay for the cohort worker pool
# (DESIGN.md §6 item 9), so it, its thread-count knob and its fold chunk stay
# gone. The threaded pipeline runtime's stage threads are not a fan-out.
# (benchmark/ is frozen and still sets the knob, which nothing reads.)
if grep -rnE 'par_map|par_chunks_mut|max_threads|ECOFL_THREADS|TRAIN_FOLD_CHUNK|train_cohort\b' \
    crates src tests examples; then
    echo "ERROR: a compute fan-out is back — FL clients train one at a time on the calling thread." >&2
    exit 1
fi
# One timing authority: performance across commits is measured by the
# benchmark under benchmark/ (BENCHMARK.json) and nowhere else. The
# second, snapshot-writing harness — its case timer, its iteration /
# output-dir / revision env vars, its schema validator and the root
# BENCH_*.json files it committed — stays gone.
if grep -rnE --exclude=ci.sh 'time_case|ECOFL_BENCH_|ECOFL_GIT_REV|validate_bench' \
    crates src tests examples scripts .github ||
    [ -n "$(find . -maxdepth 1 -name 'BENCH_*.json')" ]; then
    echo "ERROR: the snapshot timing harness is back — time it with benchmark/run.sh." >&2
    exit 1
fi
# One compressor: the byte-at-a-time LZ matcher survives only as the
# differential oracle in crates/store/tests/oracle/, which holds the
# word-wide `lz::compress` to its bytes.
if grep -rn 'bytewise_compress' crates/store/src; then
    echo "ERROR: the oracle compressor is back in crates/store/src — lz::compress is the one compressor." >&2
    exit 1
fi

echo "==> cargo build --workspace --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test --workspace -q --offline"
cargo test --workspace -q --offline

# Fault-injection gate: killing any pipeline stage must surface a typed
# error in bounded time, and recovery must replay bit-identically. A
# reintroduced deadlock would hang the suite, so it sits under a watchdog
# timeout.
echo "==> fault-injection gate: ecofl-pipeline --test fault_injection (watchdog 300s)"
timeout 300 cargo test -q --release --offline -p ecofl-pipeline --test fault_injection || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: fault-injection suite hit the watchdog — a crash path deadlocked." >&2
    fi
    exit "$status"
}

# Schedule-conformance gate: every registered pipeline schedule must
# recover from injected stage kills with a bit-identical replay and run
# deterministically in the virtual-time executor (a schedule whose step
# program deadlocks the round-synchronous runtime would hang, hence the
# watchdog), plus one pass of the randomized legality property suite.
echo "==> schedule-conformance gate: ecofl-pipeline --test schedule_conformance (watchdog 300s)"
timeout 300 cargo test -q --release --offline -p ecofl-pipeline --test schedule_conformance || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: schedule-conformance suite hit the watchdog — a step program deadlocked the runtime." >&2
    fi
    exit "$status"
}
echo "    schedule-legality property suite"
cargo test -q --release --offline --test schedule_legality

# Single-CPU gate: what a channel back-off is sensitive to is the *core*
# count — one that spins without yielding passes on two cores and crawls
# on one, where the peer it waits for needs the spinner's core. Pin the
# channel's own suite and the two runtime suites to CPU 0 under the same
# watchdog (the runtime suites were built by the gates above; the compiler
# is not what is pinned).
if command -v taskset >/dev/null; then
    echo "==> single-CPU gate: ecofl-compat + fault_injection + schedule_conformance under taskset -c 0 (watchdog 300s)"
    cargo test -q --release --offline -p ecofl-compat --no-run
    timeout 300 taskset -c 0 bash -c '
        cargo test -q --release --offline -p ecofl-compat &&
        cargo test -q --release --offline -p ecofl-pipeline \
            --test fault_injection --test schedule_conformance' || {
        status=$?
        if [ "$status" -eq 124 ]; then
            echo "ERROR: the single-CPU gate hit the watchdog — a back-off starves its peer, or a wake-up was lost." >&2
        fi
        exit "$status"
    }
else
    echo "==> single-CPU gate skipped: no taskset on this host"
fi

# Plan-search gates: the §4.3 search skips repeated device orders, reads
# Eq. 1 from tables built once per micro-batch size, reuses the DP rows
# of the device prefix an order shares with the previous one (the last
# row only at j = L), and runs the executor best bound first with an
# explicit walk-position tie rule (DESIGN.md §12, reductions 1–5). It
# must still return the exhaustive search's plan bit for bit.
# (1) The differential suites — fast search vs the exhaustive loop (exact
# ties included), table DP and prefix-row reuse vs the naive reference
# DP, bound soundness — rerun optimized with the case count raised (the
# plain `cargo test` above runs a handful).
# (2) The stdout of the benchmark's ten `pipeline_plan` invocations (the
# flags of benchmark/src/workloads.rs, copied here) plus one run per
# non-default --schedule is diffed against goldens captured from the
# pre-optimization search (commit 658b7d3).
echo "==> plan-search differential gate: ecofl-pipeline orchestrator/partition suites, release, ECOFL_CHECK_CASES=300"
ECOFL_CHECK_CASES=300 cargo test -q --release --offline -p ecofl-pipeline --lib -- \
    orchestrator::tests partition::tests
# Block-decoder mutation gate: the trace block decoder reads what a disk
# hands it. The harness (truncate at every offset, flip bits, splice two
# blocks, inflate the length fields; a counting allocator holds every
# allocation to a multiple of the payload) runs one seeded case under
# the plain `cargo test` above; here it runs optimized over many.
echo "==> block-decoder mutation gate: ecofl-obs --test block_mutation, release, ECOFL_CHECK_CASES=100"
ECOFL_CHECK_CASES=100 cargo test -q --release --offline -p ecofl-obs --test block_mutation
# The checkpoint decoder reads a disk too, and sits under the same harness.
echo "==> checkpoint-decoder mutation gate: ecofl-pipeline --test checkpoint_mutation, release, ECOFL_CHECK_CASES=100"
ECOFL_CHECK_CASES=100 cargo test -q --release --offline -p ecofl-pipeline --test checkpoint_mutation
echo "==> plan-golden gate: ecofl plan stdout vs tests/golden/plan"
plan_golden() { # <golden name> <plan flags...>
    local name=$1
    shift
    if ! ./target/release/ecofl plan "$@" | diff "tests/golden/plan/$name.txt" - >&2; then
        echo "ERROR: 'ecofl plan $*' no longer prints tests/golden/plan/$name.txt" >&2
        exit 1
    fi
}
for home in "5dev tx2q,tx2n,nanoh,nanoh,nanol" "6dev tx2q,tx2n,tx2n,nanoh,nanoh,nanol"; do
    for model in effnet-b4 effnet-b6 effnet-b6@380 mobilenet-w3 mobilenet-w3@380; do
        plan_golden "${home%% *}_$model" --model "$model" --batch 256 --devices "${home#* }"
    done
done
for schedule in gpipe async interleaved zb; do
    plan_golden "5dev_effnet-b2_$schedule" --model effnet-b2 --batch 256 \
        --devices tx2q,tx2n,nanoh,nanoh,nanol --schedule "$schedule"
done
echo "    ok (14 plans byte-identical)"

# Kernel-equivalence gate: every GEMM must be bit-identical to the one
# scalar chain on every tier (DESIGN.md §7), and the training step built
# on them bit-identical to the allocating oracle and to the parent binary.
# One configuration: the tiers compute the same chain and the kernels are
# sequential, so there is no tier and no thread count to sweep. Optimized:
# the kernel unit tests (every tier the host supports, portable included,
# against the same chain; the operand-length `should_panic`s, which must
# hold without debug assertions), the public-API sweep, the `train_step`
# differential against tests/oracle, the 486-call `local_train`
# fingerprint, and the allocations-per-step bound.
echo "==> kernel-equivalence gate: kernel tests, train_step oracle, fingerprint, allocation bound"
cargo test -q --release --offline -p ecofl-tensor --lib kernel::tests
cargo test -q --release --offline -p ecofl-tensor \
    --test kernel_equivalence --test train_step_oracle
cargo test -q --release --offline -p ecofl-fl \
    --test train_fingerprint --test alloc_bound

# Metrics-perturbation gate: attaching a MetricsHub must leave FL run
# results, executor reports/traces and threaded-runtime parameters
# bit-identical to a detached run. Optimized, and watchdogged because the
# suite drives the threaded runtime.
echo "==> metrics-perturbation gate: --test metrics_perturbation (watchdog 300s)"
timeout 300 cargo test -q --release --offline --test metrics_perturbation || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: metrics-perturbation suite hit the watchdog — the instrumented runtime deadlocked." >&2
    fi
    exit "$status"
}

# Metrics-overhead smoke gate: the hub-enabled 1F1B round must stay
# within a fixed median ratio of the hub-disabled round (the test is
# #[ignore]d because wall-clock ratios are meaningless under the
# parallel test runner — it only runs here, serially, in release).
echo "==> metrics-overhead gate: --test metrics_overhead -- --ignored (watchdog 300s)"
timeout 300 cargo test -q --release --offline --test metrics_overhead -- --ignored || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: metrics-overhead gate hit the watchdog." >&2
    fi
    exit "$status"
}

# Scale-smoke gate: the CLI must drive a 100k-virtual-client population
# (64 data shards, event queue, streaming folds) to completion in
# bounded time, and the grouped runs must print the stdout committed
# under tests/golden/fl/ — the 100k Eco-FL run and the benchmark's 1M
# census ops. A regression to per-client event handling or O(n²)
# grouping trips the watchdog; any change to what sampling, grouping,
# training or Algorithm 1 compute trips the diff. The goldens were captured before the O(k)
# sampler, the flat-array association and the prefiltered rejoin sweep,
# on x86-64 Linux (datasets and latencies go through the platform's
# libm): recapture one only for a declared behaviour change, with
# `./target/release/ecofl fl <the flags below> > tests/golden/fl/<name>.txt`.
echo "==> scale-smoke gate: 100k and 1M virtual clients via the CLI vs tests/golden/fl (watchdog 300s / 60s)"
scale_dir=$(mktemp -d)
trap 'rm -rf "$scale_dir"' EXIT
fl_golden() { # <golden name> <output file>
    if ! diff "tests/golden/fl/$1.txt" "$2" >&2; then
        echo "ERROR: $(basename "$2" .txt) differs from tests/golden/fl/$1.txt" >&2
        exit 1
    fi
}
echo "    fedavg 100k"
timeout 300 ./target/release/ecofl fl --strategy fedavg --clients 100000 --shards 64 \
    --clients-per-round 256 --horizon 200 --dataset mnist --seed 7 \
    >"$scale_dir/fedavg.txt" || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: 100k FedAvg run hit the watchdog — the scheduler no longer scales." >&2
    fi
    exit "$status"
}
echo "    ecofl 100k"
timeout 300 ./target/release/ecofl fl --strategy ecofl \
    --clients 100000 --shards 64 --clients-per-round 256 --groups 4 \
    --horizon 400 --dataset mnist --seed 7 >"$scale_dir/ecofl.txt" || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: 100k Eco-FL run hit the watchdog — the scheduler no longer scales." >&2
    fi
    exit "$status"
}
fl_golden ecofl_100k "$scale_dir/ecofl.txt"
if ! grep -q "updates" "$scale_dir/fedavg.txt"; then
    echo "ERROR: 100k FedAvg run produced no summary line." >&2
    exit 1
fi
# The benchmark's own census ops (fl_census_1m, benchmark/src/workloads.rs).
# Each run takes well under a second; the watchdog is for a hang or a
# quadratic regression, not for a slowdown (the benchmark times it).
echo "    ecofl / fedat / fedavg 1M on 64 shards (watchdog 60s for the three runs)"
SCALE_DIR=$scale_dir timeout 60 bash -c '
    for strategy in ecofl fedat fedavg; do
        ./target/release/ecofl fl --strategy $strategy \
            --clients 1000000 --shards 64 --horizon 800 --seed 7 \
            >"$SCALE_DIR/census_$strategy.txt" || exit
    done' || {
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "ERROR: the 1M-client runs hit the watchdog — census-scale grouping no longer scales." >&2
    fi
    exit "$status"
}
for strategy in ecofl fedat fedavg; do
    fl_golden "census_1m_$strategy" "$scale_dir/census_$strategy.txt"
done
echo "    ok (outputs match tests/golden/fl)"

# Benchmark-probe gate: benchmark/ and benchmark/layers/ are packages
# outside this workspace, so nothing above compiles them; `layers` links
# the pipeline/FL crates' public API, and run.sh tolerates it failing to
# build. Build both here so an API refactor learns it broke the frozen
# probe now, not when the benchmark runs; then one smoke pass checks
# the CLI's stdout invariants (no timings). The shared target dir is
# the one run.sh uses, so nothing builds twice. The smoke pass is `e2e`
# only, and `layers` must also still *run* against the crates it links:
# its store probes decode raw `trace.seg` blocks through
# `ecofl_obs::store::jsonl_to_records` and check every in-process count
# against the CLI's, so one traced second of each store workload runs
# too, and any failed check fails the gate.
echo "==> benchmark-probe gate: build benchmark/ + benchmark/layers/, run.sh --smoke, traced trace_write / trace_query"
for manifest in benchmark/Cargo.toml benchmark/layers/Cargo.toml; do
    CARGO_TARGET_DIR=target/benchmark \
        cargo build --release --offline --manifest-path "$manifest"
done
benchmark/run.sh --smoke --out "$scale_dir/benchmark-smoke.json" >"$scale_dir/benchmark-smoke.txt" || {
    echo "ERROR: benchmark/run.sh --smoke failed a check:" >&2
    tail -n 40 "$scale_dir/benchmark-smoke.txt" >&2
    exit 1
}
for workload in trace_write trace_query; do
    traced="$scale_dir/benchmark-traced-$workload.txt"
    if ! benchmark/run.sh --workload "$workload" --seconds 1 --trace 1 >"$traced" ||
        grep -q 'FAILED CHECK' "$traced" ||
        ! grep -q '"correct":true' "$traced"; then
        echo "ERROR: the traced $workload probe (benchmark/layers) failed a check:" >&2
        grep -v '^{' "$traced" | tail -n 40 >&2
        exit 1
    fi
done

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --examples --offline"
cargo build --examples --offline

echo "==> ci passed"
