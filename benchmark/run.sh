#!/usr/bin/env bash
# The repo benchmark's one command (BENCHMARK.json names it).
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#   benchmark/run.sh --self-test
#
# Builds the benchmark package from source (release, offline) and runs one
# process per workload; without --workload, every workload in turn. Each
# run prints its metrics by name with their units and ends with the
# one-line JSON result. --trace 0 (what the driver gates on) reports the
# end-to-end table; --trace 1, the default here, adds the traced iteration
# and the layer probes, reports the per-layer table too and writes
# benchmark/out/<workload>.layers.json and <workload>.trace.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        --out "$here/out" "$@"
}

case " $* " in
*" --trace "*) ;;
*) set -- "$@" --trace 1 ;;
esac

case " $* " in
*" --self-test "*)
    # The helpers' unit tests, then the injected-slowdown check.
    cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
    bench --self-test
    ;;
*" --workload "*)
    bench "$@"
    ;;
*)
    for workload in $(bench --list); do
        bench --workload "$workload" "$@"
    done
    ;;
esac
