#!/usr/bin/env bash
# Tier-1 gate plus an observability smoke check.
#
#   scripts/ci.sh            # build + full test suite + expt smoke
#   SKIP_SMOKE=1 scripts/ci.sh
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

echo "== lint: one posting index on the reduce side (crates/core/src/cell_index.rs) =="
# The fragment join's Index and Prefix kernels and PF discovery share the
# length-ordered CellIndex (columns + CSR postings): StrL is a slot window
# there and the record signature a compare inside the posting walk. A
# token -> Vec-of-slots map next to it is a private arrival-order index
# again: it tests per pair what the window never visits.
if grep -nE 'FxHashMap<u32, *Vec<u32>>' \
    crates/core/src/fragment.rs crates/core/src/pf.rs crates/core/src/cell_index.rs; then
    echo "index gate FAILED: hand-rolled posting map on the reduce side (use cell_index::CellIndex)" >&2
    exit 1
fi

echo "== lint: one engine (task bodies live in plan.rs only) =="
# JobBuilder is a one-stage plan; the second executor (run_tasks*, its
# UnsafeCell slot vector, its own mr.task spans) was deleted. Keep a copy
# of the engine from growing back next to the one production runs.
if grep -rn 'span("mr.task"' crates/mapreduce/src | grep -v '^crates/mapreduce/src/plan.rs:'; then
    echo "engine gate FAILED: mr.task span emitted outside plan.rs (second task body?)" >&2
    exit 1
fi
if grep -rnE 'run_tasks|UnsafeCell' crates/mapreduce/src; then
    echo "engine gate FAILED: run_tasks / UnsafeCell under crates/mapreduce/src (second executor?)" >&2
    exit 1
fi

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
    echo "== smoke: skipped (SKIP_SMOKE=1) =="
    exit 0
fi

echo "== smoke: chaos determinism gate (seed 42, 5% failures) =="
# Fault injection must never change results, and the same seed must
# reproduce the exact same retry counters: run the seeded chaos smoke
# twice and require byte-identical reports (pairs digest, retry and
# injection counters, identical=true verdict).
chaos_a="$(cargo run --release -p ssj-bench --bin chaos -- 42 0.05 2>/dev/null)"
chaos_b="$(cargo run --release -p ssj-bench --bin chaos -- 42 0.05 2>/dev/null)"
if [[ "$chaos_a" != "$chaos_b" ]]; then
    echo "chaos gate FAILED: two runs with the same seed diverged" >&2
    diff <(printf '%s\n' "$chaos_a") <(printf '%s\n' "$chaos_b") >&2 || true
    exit 1
fi
if ! grep -q '^identical=true$' <<<"$chaos_a"; then
    echo "chaos gate FAILED: fault injection changed the join output" >&2
    printf '%s\n' "$chaos_a" >&2
    exit 1
fi
echo "$chaos_a" | sed 's/^/  /'

echo "== smoke: shuffle determinism gate (workers 2 vs 7) =="
# The worker-thread count parallelizes map/shuffle/reduce but must never
# change output, metrics, or byte accounting: the streaming shuffle
# merges spill runs in deterministic map-task order no matter which
# thread transposed them. Run the fig6-style probe with two different
# worker counts and require byte-identical reports (result digest,
# candidate counts, every filter and kernel counter, per-job shuffle
# records/bytes).
det_a="$(cargo run --release -p ssj-bench --bin determinism -- 2 2>/dev/null)"
det_b="$(cargo run --release -p ssj-bench --bin determinism -- 7 2>/dev/null)"
if [[ "$det_a" != "$det_b" ]]; then
    echo "shuffle determinism gate FAILED: worker count changed the report" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$det_b") >&2 || true
    exit 1
fi
echo "$det_a" | sed 's/^/  /'

echo "== smoke: plan equivalence gate (pipelined vs sequential, workers 2 and 7) =="
# Partition-granular pipelining changes when tasks run, never what they
# compute: at every worker count the pipelined plan must produce the
# exact report (result digest, candidates, filter counters, per-job
# logical metrics) of the barriered sequential plan. det_a above is the
# pipelined workers=2 report; reuse it.
plan_seq2="$(cargo run --release -p ssj-bench --bin determinism -- 2 sequential 2>/dev/null)"
if [[ "$det_a" != "$plan_seq2" ]]; then
    echo "plan equivalence gate FAILED: mode changed the report at workers=2" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$plan_seq2") >&2 || true
    exit 1
fi
plan_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined 2>/dev/null)"
plan_seq7="$(cargo run --release -p ssj-bench --bin determinism -- 7 sequential 2>/dev/null)"
if [[ "$plan_pipe7" != "$plan_seq7" ]]; then
    echo "plan equivalence gate FAILED: mode changed the report at workers=7" >&2
    diff <(printf '%s\n' "$plan_pipe7") <(printf '%s\n' "$plan_seq7") >&2 || true
    exit 1
fi
echo "  plan modes agree at workers 2 and 7"

echo "== smoke: rsjoin plan equivalence gate (two-input fan-in, workers 2 vs 7, both modes) =="
# The two-input R×S plan adds multi-upstream fan-in scheduling and
# broadcast edges to the surface under test: its report (digest,
# candidates, per-stage shuffle records/bytes) must also be invariant
# across worker counts and plan modes.
rs_pipe2="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin 2>/dev/null)"
rs_seq2="$(cargo run --release -p ssj-bench --bin determinism -- 2 sequential rsjoin 2>/dev/null)"
rs_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined rsjoin 2>/dev/null)"
for variant in rs_seq2 rs_pipe7; do
    if [[ "$rs_pipe2" != "${!variant}" ]]; then
        echo "rsjoin plan equivalence gate FAILED: $variant diverged" >&2
        diff <(printf '%s\n' "$rs_pipe2") <(printf '%s\n' "${!variant}") >&2 || true
        exit 1
    fi
done
echo "$rs_pipe2" | sed 's/^/  /'

echo "== smoke: rsjoin join-path equivalence gate (cogroup vs rekey, workers 2 vs 7) =="
# The co-group join stage (DESIGN.md §13) consumes the sealed prefix
# partitions in place; the legacy rekey fan-in re-shuffles them. The two
# paths must agree on every result line (digest, candidates, filter
# counters) at every worker count — only the per-job shuffle accounting
# may differ, and it must differ in the co-group path's favour: its join
# stage moves zero shuffle bytes. rs_pipe2/rs_pipe7 above are the
# co-group (default) reports; reuse them.
rk_pipe2="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin prune rekey 2>/dev/null)"
rk_pipe7="$(cargo run --release -p ssj-bench --bin determinism -- 7 pipelined rsjoin prune rekey 2>/dev/null)"
if [[ "$rk_pipe2" != "$rk_pipe7" ]]; then
    echo "rsjoin join-path gate FAILED: rekey path not worker-invariant" >&2
    diff <(printf '%s\n' "$rk_pipe2") <(printf '%s\n' "$rk_pipe7") >&2 || true
    exit 1
fi
results_only() { grep -E '^(result|filters):' <<<"$1"; }
if [[ "$(results_only "$rs_pipe2")" != "$(results_only "$rk_pipe2")" ]]; then
    echo "rsjoin join-path gate FAILED: cogroup and rekey paths disagree" >&2
    diff <(results_only "$rs_pipe2") <(results_only "$rk_pipe2") >&2 || true
    exit 1
fi
if ! grep -q '^job rsjoin-join: shuffle_records=0 shuffle_bytes=0 ' <<<"$rs_pipe2"; then
    echo "rsjoin join-path gate FAILED: cogroup join stage still shuffles" >&2
    grep '^job rsjoin-join:' <<<"$rs_pipe2" >&2 || true
    exit 1
fi
echo "  cogroup and rekey join paths agree at workers 2 and 7 (cogroup join: zero shuffle)"

echo "== smoke: kernel equivalence gate (bitmap prune on vs off) =="
# The XOR-Hamming bound over the pool's hashed record bitmaps is a true
# upper bound on overlap, so pruning on it is lossless by construction:
# pairs and score bits (the result digest) must not move with the prune
# disabled. What else may move depends on the site. The two-input R×S
# plan consults the bitmaps in front of whole-record verification, where
# a pruned pair was a candidate either way: everything but the kernel
# counters on the filters: line must be byte-identical. The self-join
# consults them in the fragment join, right after StrL, where a pruned
# pair never becomes a candidate: candidates (and with them the verify
# job's shuffle) must be strictly fewer with the prune on. det_a /
# rs_pipe2 above are the prune-on reports; reuse them.
pairs_digest() { sed -n 's/^result: \(pairs=[0-9]* digest=0x[0-9a-f]*\) .*/\1/p' <<<"$1"; }
candidates() { sed -n 's/^result: .* candidates=\([0-9]*\)$/\1/p' <<<"$1"; }
# The fragment join's conservation law (crates/core/src/keys.rs) on a
# report's filters: line.
conserved() {
    awk '/^filters:/ {
        for (i = 2; i <= NF; i++) { split($i, kv, "="); v[kv[1]] = kv[2] }
        settled = v["strl_pruned"] + v["bitmap_pruned"] + v["segl_pruned"] + v["segi_pruned"] \
            + v["segd_pruned"] + v["policy_dropped"] + v["emitted"]
        ok = (v["pairs_considered"] > 0 && v["pairs_considered"] == settled \
            && v["bitmap_pruned"] <= v["bitmap_checks"])
    } END { exit !ok }' <<<"$1"
}
noprune_self="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined selfjoin noprune 2>/dev/null)"
if [[ -z "$(pairs_digest "$det_a")" || "$(pairs_digest "$det_a")" != "$(pairs_digest "$noprune_self")" ]]; then
    echo "kernel equivalence gate FAILED: bitmap prune changed the selfjoin result" >&2
    diff <(printf '%s\n' "$det_a") <(printf '%s\n' "$noprune_self") >&2 || true
    exit 1
fi
if (( $(candidates "$det_a") >= $(candidates "$noprune_self") )); then
    echo "kernel equivalence gate FAILED: the record-signature step removed no selfjoin candidate" >&2
    grep '^result:' <<<"$det_a"$'\n'"$noprune_self" >&2
    exit 1
fi
for report in "$det_a" "$noprune_self"; do
    if ! conserved "$report"; then
        echo "kernel equivalence gate FAILED: selfjoin filter counters break the conservation law" >&2
        grep '^filters:' <<<"$report" >&2 || true
        exit 1
    fi
done
noprune_rs="$(cargo run --release -p ssj-bench --bin determinism -- 2 pipelined rsjoin noprune 2>/dev/null)"
if [[ "$(grep -v '^filters:' <<<"$rs_pipe2")" != "$(grep -v '^filters:' <<<"$noprune_rs")" ]]; then
    echo "kernel equivalence gate FAILED: bitmap prune changed the rsjoin report" >&2
    diff <(printf '%s\n' "$rs_pipe2") <(printf '%s\n' "$noprune_rs") >&2 || true
    exit 1
fi
echo "  selfjoin: same pairs and digest, candidates $(candidates "$noprune_self") -> $(candidates "$det_a") with the prune, counters conserved"
echo "  rsjoin: prune on/off reports byte-identical outside the kernel counters"

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
               "fsjoin.filter.segd_pruned", "mr.shuffle.records"):
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

echo "== smoke: serve replay determinism gate (build workers 2 vs 7) =="
# The serving plane builds its index with a batch plan, so the build
# worker count parallelizes construction — but index content and probe
# answers must not depend on it. Replay every record (including an
# insert/compaction interleave) under both worker counts and require
# byte-identical reports: result digest, probe-cascade counters, index
# shape, and the post-compaction digest.
serve_a="$(cargo run --release -p ssj-bench --bin ssj-serve -- --digest --workers 2 2>/dev/null)"
serve_b="$(cargo run --release -p ssj-bench --bin ssj-serve -- --digest --workers 7 2>/dev/null)"
if [[ "$serve_a" != "$serve_b" ]]; then
    echo "serve gate FAILED: build worker count changed the replay report" >&2
    diff <(printf '%s\n' "$serve_a") <(printf '%s\n' "$serve_b") >&2 || true
    exit 1
fi
echo "$serve_a" | sed 's/^/  /'

echo "== perf: bench_probe regression gate =="
# Fresh probe runs must stay within tolerance of the committed baselines
# (wall units are calibration-normalized, so this is machine-portable),
# and the gate itself is self-tested: an injected 2x slowdown must fail.
cargo run --release -p ssj-bench --bin bench_probe -- --check results/bench | sed 's/^/  /'
if cargo run --release -p ssj-bench --bin bench_probe -- --check results/bench --handicap 2.0 >/dev/null 2>&1; then
    echo "bench_probe gate FAILED: injected 2x slowdown was not detected" >&2
    exit 1
fi
echo "  self-test OK: 2x handicap trips the gate"
