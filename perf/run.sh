#!/usr/bin/env bash
# The benchmark's one entry point; works from any directory, always offline,
# always against the stand-ins in perf/stubs (one build mode).
#
#   perf/run.sh all       [--seed N] [--seconds S]   the six workloads, untraced
#   perf/run.sh <workload> [--seed N] [--seconds S] [--trace 0|1]
#   perf/run.sh trace     [--seed N] [--seconds S]   traced runs + per-layer probes
#   perf/run.sh calibrate [runs]                     10 runs each -> baseline/BENCH_13.json
#   perf/run.sh check     [runs]                     10 runs each, compared pair by pair with the baseline
#   perf/run.sh selftest                             the instruments' own tests
#   perf/run.sh bench --workload W --seed N --seconds S --trace 0|1
#                                                    (what BENCHMARK.json's command runs)
set -euo pipefail

PERF_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver points CARGO_TARGET_DIR at a directory of its own, possibly
# relative to where it starts us; by hand the build lands in perf/target.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PERF_DIR/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR
BIN="$CARGO_TARGET_DIR/release/jsym-perf"
WORKLOADS="rmi_sync_local rmi_sync_remote rmi_pipelined lifecycle fig5_cells swarm"

build() {
    cargo build --release --offline --quiet --manifest-path "$PERF_DIR/Cargo.toml" >&2
}

run() {
    "$BIN" --out "$PERF_DIR/out" "$@"
}

cmd="${1:-all}"
[ $# -gt 0 ] && shift
case "$cmd" in
    bench)
        build
        run "$@"
        ;;
    all)
        build
        for w in $WORKLOADS; do
            run --workload "$w" "$@"
            echo
        done
        ;;
    trace)
        build
        # fig5_cells boots its deployments inside the program, so a traced
        # run of it has no counters to add; its cells are in the cluster probe.
        for w in ${WORKLOADS/fig5_cells /}; do
            run --workload "$w" --seconds 3 --trace 1 "$@"
            echo
        done
        ;;
    calibrate | check)
        build
        exec python3 "$PERF_DIR/calibrate.py" "$BIN" "$PERF_DIR" "$cmd" "$@"
        ;;
    selftest)
        cargo test --release --offline --manifest-path "$PERF_DIR/Cargo.toml" "$@"
        ;;
    -h | --help | help)
        sed -n '2,13p' "${BASH_SOURCE[0]}"
        ;;
    *)
        build
        run --workload "$cmd" "$@"
        ;;
esac
