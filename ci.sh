#!/usr/bin/env sh
# Offline multi-stage CI gate for the KGAG workspace.
#
# The workspace has zero external dependencies (see DESIGN.md §8), so
# every cargo invocation runs with --offline: if anyone reintroduces a
# crates.io dependency, the gate fails on the first stage instead of
# only on a network-less machine.
#
# The gate is a stage *manifest* plus a generic runner: each stage is a
# name in $STAGES with a description and a shell function, the runner
# prints generated "N/M" banners, times every stage, and writes the
# machine-readable run summary to results/ci_summary.json (via the
# kgag-bench ci_summary binary) whether the run passes or fails.
#
# Stages (./ci.sh --list prints this table):
#   fmt        — cargo fmt --check
#   build      — release build with RUSTFLAGS="-D warnings", plus the
#                serving benchmark (perfbench/, a workspace of its own
#                that compiles against the serve API): its release
#                build and its unit tests
#   test       — full suite at KGAG_THREADS=1 and KGAG_THREADS=4; the
#                determinism suite additionally compares both thread
#                counts bit-for-bit inside one process (DESIGN.md §9)
#   cache      — the batched-inference oracle suite again, at both
#                thread counts, with the *environment* knobs forced to
#                their non-default paths (KGAG_RF_CACHE=0,
#                KGAG_EVAL_BATCH=7): batched scores must stay
#                bit-identical to the per-case path however the engine
#                is configured (DESIGN.md §11)
#   serve      — the serve_check gate, at both thread counts: a fixed
#                request slice fanned out through 4 concurrent clients
#                of the in-process server and over loopback TCP must
#                score bit-identically to the offline BatchScorer, the
#                full evaluation protocol must reproduce
#                evaluate_batched exactly with the server in the scorer
#                seat, and graceful shutdown must answer every accepted
#                request (DESIGN.md §12)
#   shard      — sharded-serving gate (DESIGN.md §15): the shard_check
#                binary at both thread counts. It spawns 2 real shard
#                processes, proves router-fused scatter-gather scores
#                bit-identical to the single-node BatchScorer and to
#                the tape forward, round-trips the TCP front door, then
#                SIGKILLs a shard mid-stream: affected requests must
#                fail with typed errors while untouched ones stay
#                bit-identical — no panic, no hang
#   registry   — multi-tenant registry gate (DESIGN.md §16): the
#                registry_check binary at both thread counts. Against a
#                real serve_tcp_registry server it LOADs two
#                checkpoints by path, proves a shadow candidate on live
#                traffic (every mirrored request bit-identical to the
#                candidate's offline scores), promotes with zero
#                downtime, storms wire ROLLBACKs under 4 concurrent
#                clients (every response must match exactly one
#                checkpoint's bits — never a torn mix), and pins the
#                burst-5 no-refill governor to exactly 5 admissions +
#                3 Quota rejections per tenant with obs counters
#                matching
#   backend    — propagation-backend parity gate (DESIGN.md §17): the
#                backend_oracle suite at KGAG_THREADS=1 and 4. All four
#                backends must be self-identical across the cache ×
#                chunk × thread matrix, KGNN-LS at ls_weight=0 must
#                reproduce GCN training bit-for-bit, checkpoints must
#                refuse cross-backend restores typed, and the served
#                engine must equal the tape forward for KGNN-LS and
#                interaction-pattern
#   lifecycle  — dynamic-group gate (DESIGN.md §13): the
#                mutate-equals-rebuild oracle suite re-run with the
#                receptive-field cache disabled (the cached paths run
#                in the test stage; both must agree bit-for-bit), then
#                the lifecycle_check binary at both thread counts — 4
#                concurrent TCP clients creating/joining/leaving
#                disjoint groups while scoring, every response
#                bit-identical to the roster-level reference and every
#                malformed mutation a typed rejection
#   telemetry  — smoke training with the JSONL telemetry sink enabled:
#                model outputs must be bit-identical with telemetry on
#                vs off, and every emitted line must pass the testkit
#                JSON parser plus the per-kind schema checks (§10)
#   golden     — fixed-seed smoke training compared *bit-identically*
#                against results/golden_smoke.json; any numeric drift
#                fails. After an intentional numerics change:
#                  ./ci.sh --golden-baseline
#   accuracy   — engine bit-identity gate (DESIGN.md §14): the
#                accuracy_check gate at KGAG_THREADS=1 and 4. Every
#                served score of the smoke model must equal the tape
#                forward's to the bit (max |Δscore| = 0), and the
#                batched evaluation metrics must equal the per-case
#                ones exactly
#   bench      — only with --bench (or --stage bench): regenerate the
#                micro-benchmark JSON artifacts into a scratch dir,
#                move them into crates/bench/results atomically (an
#                interrupted run never leaves a partial artifact set),
#                and compare medians against the committed
#                results/bench_baseline.json; fails on regressions
#                beyond KGAG_BENCH_TOLERANCE (default 25%) and on any
#                baseline suite with no artifact at all. Regenerate the
#                baseline after intentional perf changes with:
#                  ./ci.sh --bench-baseline
#
# Usage:
#   ./ci.sh                      # every stage except bench
#   ./ci.sh --list               # print the stage table and exit
#   ./ci.sh --stage golden       # run exactly one stage
#   ./ci.sh --stage fmt,test     # run a comma-separated subset
#   ./ci.sh --bench              # …default stages plus the bench gate
#   ./ci.sh --bench-baseline     # …instead rewrite results/bench_baseline.json
#   ./ci.sh --golden-baseline    # …instead rewrite results/golden_smoke.json
set -eu

cd "$(dirname "$0")"

# ----------------------------------------------------------------- manifest

STAGES="fmt build test cache serve shard registry backend lifecycle telemetry golden accuracy bench"
# bench is opt-in: excluded from a default run, included by --bench /
# --bench-baseline or an explicit --stage selection
DEFAULT_STAGES="fmt build test cache serve shard registry backend lifecycle telemetry golden accuracy"

stage_desc() {
    case "$1" in
    fmt) echo "cargo fmt --check" ;;
    build) echo "release build, deny warnings; perfbench build + unit tests" ;;
    test) echo "full test suite at KGAG_THREADS=1 and 4" ;;
    cache) echo "batched-inference cache equivalence (env knobs forced)" ;;
    serve) echo "serving gate: concurrent bit-identity + drain" ;;
    shard) echo "sharded gate: scatter-gather bit-identity + shard kill" ;;
    registry) echo "registry gate: shadow-proven swap + quota determinism" ;;
    backend) echo "backend gate: 4-backend parity oracle" ;;
    lifecycle) echo "lifecycle gate: mutate-equals-rebuild + TCP mutations" ;;
    telemetry) echo "telemetry gate: passivity + JSONL schema" ;;
    golden) echo "golden-file gate: bit-identical smoke metrics" ;;
    accuracy) echo "engine ≡ tape bit-identity at KGAG_THREADS=1 and 4" ;;
    bench) echo "bench regression gate (opt-in: --bench)" ;;
    esac
}

run_fmt() {
    cargo fmt --check
}

run_build() {
    RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
}

run_test() {
    KGAG_THREADS=1 cargo test -q --offline --workspace
    KGAG_THREADS=4 cargo test -q --offline --workspace
}

run_cache() {
    KGAG_THREADS=1 KGAG_RF_CACHE=0 KGAG_EVAL_BATCH=7 \
        cargo test -q --offline -p kgag --test batched_oracle
    KGAG_THREADS=4 KGAG_RF_CACHE=0 KGAG_EVAL_BATCH=7 \
        cargo test -q --offline -p kgag --test batched_oracle
}

run_serve() {
    KGAG_THREADS=1 cargo run -q --release --offline -p kgag-bench --bin serve_check
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin serve_check
}

run_shard() {
    KGAG_THREADS=1 cargo run -q --release --offline -p kgag-bench --bin shard_check
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin shard_check
}

run_registry() {
    KGAG_THREADS=1 cargo run -q --release --offline -p kgag-bench --bin registry_check
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin registry_check
}

run_backend() {
    KGAG_THREADS=1 cargo test -q --release --offline -p kgag --test backend_oracle
    KGAG_THREADS=4 cargo test -q --release --offline -p kgag --test backend_oracle
}

run_lifecycle() {
    KGAG_THREADS=1 KGAG_RF_CACHE=0 \
        cargo test -q --release --offline -p kgag --test lifecycle_oracle
    KGAG_THREADS=4 KGAG_RF_CACHE=0 \
        cargo test -q --release --offline -p kgag --test lifecycle_oracle
    KGAG_THREADS=1 cargo run -q --release --offline -p kgag-bench --bin lifecycle_check
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin lifecycle_check
}

run_telemetry() {
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin telemetry_check
}

run_golden() {
    if [ "$GOLDEN_MODE" = "write" ]; then
        KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin golden_check -- \
            --write-baseline
    else
        KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin golden_check
    fi
}

run_accuracy() {
    KGAG_THREADS=1 cargo run -q --release --offline -p kgag-bench --bin accuracy_check
    KGAG_THREADS=4 cargo run -q --release --offline -p kgag-bench --bin accuracy_check
}

# Bench settings shared by the gate and baseline generation — the 25%
# tolerance only means something when both sides use identical
# iteration counts.
BENCH_ENV="KGAG_BENCH_ITERS=5 KGAG_BENCH_WARMUP=1 KGAG_THREADS=4"

run_bench() {
    # regenerate into a scratch dir, then move finished artifacts into
    # place one by one: the committed artifact set is either the old
    # run or the new run, never a partially overwritten mix — and
    # bench_check hard-fails if a whole suite ends up missing anyway
    scratch="crates/bench/results/.regen.$$"
    rm -rf "$scratch"
    mkdir -p "$scratch"
    # KGAG_BENCH_DIR is resolved from the bench processes' cwd
    # (crates/bench), hence the shorter relative path
    env $BENCH_ENV KGAG_BENCH_DIR="results/.regen.$$" cargo bench --offline -p kgag-bench
    for f in "$scratch"/bench_*.json; do
        [ -e "$f" ] || continue
        mv -f "$f" "crates/bench/results/$(basename "$f")"
    done
    rmdir "$scratch"
    if [ "$BENCH_MODE" = "write" ]; then
        cargo run -q --release --offline -p kgag-bench --bin bench_check -- --write-baseline
    else
        cargo run -q --release --offline -p kgag-bench --bin bench_check
    fi
}

# ------------------------------------------------------------------- runner

GOLDEN_MODE=check
BENCH_MODE=check
SELECTED="$DEFAULT_STAGES"

usage() {
    echo "usage: ./ci.sh [--list] [--stage name[,name...]] [--bench |" >&2
    echo "               --bench-baseline | --golden-baseline]" >&2
}

list_stages() {
    echo "available stages:"
    for s in $STAGES; do
        printf '  %-10s %s\n' "$s" "$(stage_desc "$s")"
    done
}

known_stage() {
    # distinct loop variable: sh functions share the caller's scope, and
    # the validation loop below iterates with `s` too
    for ks in $STAGES; do
        [ "$ks" = "$1" ] && return 0
    done
    return 1
}

while [ $# -gt 0 ]; do
    case "$1" in
    --list)
        list_stages
        exit 0
        ;;
    --stage)
        [ $# -ge 2 ] || {
            echo "--stage needs a comma-separated stage list" >&2
            usage
            exit 2
        }
        SELECTED=$(echo "$2" | tr ',' ' ')
        for s in $SELECTED; do
            known_stage "$s" || {
                echo "unknown stage: $s" >&2
                list_stages >&2
                exit 2
            }
        done
        [ -n "$SELECTED" ] || {
            echo "--stage selected nothing" >&2
            exit 2
        }
        shift
        ;;
    --bench) SELECTED="$SELECTED bench" ;;
    --bench-baseline)
        BENCH_MODE=write
        SELECTED="$SELECTED bench"
        ;;
    --golden-baseline) GOLDEN_MODE=write ;;
    *)
        echo "unknown argument: $1" >&2
        usage
        exit 2
        ;;
    esac
    shift
done

# per-stage timing log consumed by the ci_summary binary; the EXIT trap
# turns it into results/ci_summary.json even when a stage fails
STAGE_LOG=$(mktemp)
write_summary() {
    if [ -s "$STAGE_LOG" ]; then
        cargo run -q --release --offline -p kgag-bench --bin ci_summary -- \
            --stages "$STAGE_LOG" ||
            echo "warning: could not write results/ci_summary.json" >&2
    fi
    rm -f "$STAGE_LOG"
}
trap write_summary EXIT

TOTAL=0
for s in $SELECTED; do
    TOTAL=$((TOTAL + 1))
done

N=0
for s in $SELECTED; do
    N=$((N + 1))
    echo "==> stage $N/$TOTAL: $s — $(stage_desc "$s")"
    T0=$(date +%s)
    if "run_$s"; then
        STATUS=pass
    else
        STATUS=fail
    fi
    echo "$s $STATUS $(($(date +%s) - T0))" >>"$STAGE_LOG"
    if [ "$STATUS" = "fail" ]; then
        echo "==> CI gate FAILED at stage $N/$TOTAL: $s" >&2
        exit 1
    fi
done

echo "==> CI gate passed ($TOTAL stage(s))"
