#!/usr/bin/env bash
# Lints, the tier-1 gate and an observability smoke check.
#
#   scripts/ci.sh            # lints + build + every test suite + expt smoke
#   SKIP_SMOKE=1 scripts/ci.sh
#
# The determinism, chaos, serve-replay and frozen-counter gates are Rust
# tests (crates/bench/tests/), so the tier-1 command below runs them.
#
# The build is fully offline: every external dependency resolves to a
# path stub under third_party/ (see third_party/README.md), so this
# script must work with no network at all.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== lint: rustdoc (deny warnings) =="
# Dangling or ambiguous intra-doc links (e.g. to a deleted type) fail here.
# `--lib`: without it cargo reports an output-filename collision between
# the ssj-serve library and the ssj-serve binary of ssj-bench.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "== lint: every library crate forbids unsafe =="
# The compiler, not a grep, keeps `unsafe` out of the library crates: each
# crate root carries #![forbid(unsafe_code)], which no inner #[allow] can
# lift. This gate keeps a new crate from opting out silently.
missing=0
for root in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "unsafe gate FAILED: $root lacks #![forbid(unsafe_code)]" >&2
        missing=1
    fi
done
if [[ "$missing" != 0 ]]; then
    exit 1
fi

echo "== lint: threshold verify sites go through ssj_similarity::verify =="
# Deciding sim >= theta from two whole records is the Verifier cascade's
# job (alpha -> bitmap bound -> early-exit intersection -> score). A full
# intersection kernel called from one of these sites is a second verify
# path: it merges every token of pairs the cascade rejects early.
if grep -rnE 'intersect_count_(adaptive|merge|chunked|gallop)' \
    crates/core/src/pf.rs crates/core/src/rsjoin.rs crates/serve/src crates/baselines/src; then
    echo "verify gate FAILED: full intersection kernel at a threshold site (use ssj_similarity::Verifier)" >&2
    exit 1
fi

echo "== lint: one prefix index outside serve (crates/similarity/src/index.rs) =="
# FS-Join's Index and Prefix kernels, PF discovery and PPJoin (so
# RIDPairs' reducers) share the length-ordered CellIndex of
# ssj_similarity::index (columns + CSR postings): StrL is a slot window
# there, and the positional bound and the record signature are compares
# inside the posting walk. A token -> Vec-of-postings map next to it is a
# private arrival-order index again: it tests per pair what the window
# never visits. Serve's PostingBlock is the one other posting type.
if grep -rnE 'FxHashMap<u32, *Vec<' \
    crates/core/src crates/similarity/src crates/baselines/src; then
    echo "index gate FAILED: hand-rolled posting map (use ssj_similarity::index::CellIndex)" >&2
    exit 1
fi

echo "== lint: one engine (task bodies live in plan.rs only) =="
# A standalone job is a one-stage plan; the second executor (run_tasks*,
# its UnsafeCell slot vector, its own mr.task spans) was deleted. Keep a
# copy of the engine from growing back next to the one production runs.
if grep -rn 'span("mr.task"' crates/mapreduce/src | grep -v '^crates/mapreduce/src/plan.rs:'; then
    echo "engine gate FAILED: mr.task span emitted outside plan.rs (second task body?)" >&2
    exit 1
fi
if grep -rnE 'run_tasks|UnsafeCell' crates/mapreduce/src; then
    echo "engine gate FAILED: run_tasks / UnsafeCell under crates/mapreduce/src (second executor?)" >&2
    exit 1
fi

echo "== lint: one simulator (event loop in crates/mapreduce/src/cluster.rs) =="
# The barriered chain, the pipelined plan and the fault run are three calls
# into one discrete-event loop; sim_faults.rs holds only the fault
# vocabulary. Keep the list scheduler and the per-phase fault engine from
# growing back next to it.
if grep -rn 'BinaryHeap' crates/mapreduce/src | grep -v '^crates/mapreduce/src/cluster.rs:' \
    || grep -rnE '\b(PhaseSim|schedule_slots|simulate_job_schedule)\b' crates/mapreduce/src; then
    echo "simulator gate FAILED: second scheduler loop under crates/mapreduce/src" >&2
    exit 1
fi

echo "== lint: one perf harness (benchmark/) =="
# The repo benchmark (BENCHMARK.json, benchmark/) is the only perf gate, and
# logical counters are frozen in crates/bench/tests/gates.rs. Keep the
# calibrated wall-unit probe and the report-diffing binaries from returning.
if grep -rnE '\bbench_probe\b|\bBenchReport\b' crates \
    || grep -rn -A1 '^\[\[bin\]\]' crates --include=Cargo.toml | grep -E 'name = "determinism"'; then
    echo "harness gate FAILED: second perf harness or report-diff binary under crates/" >&2
    exit 1
fi

echo "== lint: encode copies nothing =="
# The encoder reads the raw documents in place and appends each record
# straight into its collection's pool, and the one R×S join reads R's and
# S's pools in place. A corpus clone, an owned-record staging vector or a
# concatenated pool is the copy this gate keeps out: no non-test code of
# the join crate may concatenate pools (tests may, to build an oracle;
# serve compaction is the one production caller).
if grep -nE 'docs\.clone\(\)|Vec<Record>' crates/text/src/encode.rs \
    || awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 }
            live { print FILENAME ":" FNR ":" $0 }' crates/core/src/*.rs \
        | grep -E 'TokenPool::(try_)?concat|\btry_concat\b'; then
    echo "copy gate FAILED: corpus clone or owned records in encode.rs, or a concatenated pool in crates/core/src" >&2
    exit 1
fi

echo "== lint: FS-Join-family joins decide each pair once (crates/core/src) =="
# PF and the R×S join emit a similar pair only where its smallest shared
# token is found (the repeat check), so no join in crates/core needs a
# dedup stage. A KeepFirst reducer there is one growing back; the
# baselines keep theirs.
if grep -rn 'KeepFirst' crates/core/src; then
    echo "decide-once gate FAILED: KeepFirst dedup stage under crates/core/src (use the repeat check)" >&2
    exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q =="
# The root manifest's default-members cover the whole workspace. (`|| exit`:
# set -e does not stop on the left side of a failing `&&`.)
cargo build --release && cargo test -q || exit 1

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
    echo "== smoke: skipped (SKIP_SMOKE=1) =="
    exit 0
fi

echo "== smoke: expt table1 --trace-out =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release -p ssj-bench --bin expt -- table1 --trace-out "$trace_dir" >/dev/null

for f in trace.json metrics.jsonl; do
    if [[ ! -s "$trace_dir/$f" ]]; then
        echo "smoke FAILED: $trace_dir/$f missing or empty" >&2
        exit 1
    fi
done

# Structural validation when a Python is around; plain existence check
# (above) otherwise, so the gate still passes on minimal hosts.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace_dir" <<'EOF'
import json, sys, collections
d = sys.argv[1]
trace = json.load(open(f"{d}/trace.json"))
events = trace["traceEvents"]
cats = collections.Counter(e.get("cat") for e in events if e.get("ph") == "X")
for needed in ("mr.job", "mr.phase", "mr.task", "fsjoin.stage", "sim.task"):
    assert cats[needed] > 0, f"no {needed} events in trace.json"
last = {}
for e in events:
    if e.get("ph") != "X":
        continue
    lane = (e["pid"], e["tid"])
    assert e["ts"] >= last.get(lane, 0), f"lane {lane} not monotonic"
    last[lane] = e["ts"]
metrics = [json.loads(l) for l in open(f"{d}/metrics.jsonl") if l.strip()]
names = {m["metric"] for m in metrics}
for needed in ("fsjoin.filter.segl_pruned", "fsjoin.filter.segi_pruned",
               "fsjoin.filter.segd_pruned", "fsjoin.sweep.survivors",
               "mr.shuffle.records"):
    assert needed in names, f"no {needed} in metrics.jsonl"
print(f"smoke OK: {len(events)} trace events, {len(metrics)} metrics")
EOF
else
    echo "smoke OK (python3 unavailable; structural validation skipped)"
fi

echo "== smoke: ssj-prof critical-path + determinism gate =="
# The profiler must (a) reconstruct every plan-tagged run in the trace
# with a critical path spanning >= 95% of its makespan (--check), and
# (b) be byte-deterministic on a fixed input: two invocations on the
# same trace directory must print identical reports.
prof_a="$(cargo run --release -p ssj-bench --bin ssj-prof -- "$trace_dir" --check 2>/dev/null)"
prof_b="$(cargo run --release -p ssj-bench --bin ssj-prof -- "$trace_dir" --check 2>/dev/null)"
if [[ "$prof_a" != "$prof_b" ]]; then
    echo "ssj-prof gate FAILED: output not deterministic" >&2
    diff <(printf '%s\n' "$prof_a") <(printf '%s\n' "$prof_b") >&2 || true
    exit 1
fi
grep '^CHECK ' <<<"$prof_a" | sed 's/^/  /'
if ! grep -q '^CHECK .* OK$' <<<"$prof_a"; then
    echo "ssj-prof gate FAILED: no profiles passed the coverage check" >&2
    exit 1
fi
# Every reduce stage must publish its skew telemetry into metrics.jsonl.
if ! grep -q '^reduce-stage skew' <<<"$prof_a"; then
    echo "ssj-prof gate FAILED: no skew section (metrics.jsonl unwired?)" >&2
    exit 1
fi
