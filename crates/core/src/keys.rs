//! Canonical `fsjoin.*` and `serve.*` metric-key names.
//!
//! Every counter, gauge or histogram the join drivers record in a
//! [`MetricsRegistry`](ssj_observe::MetricsRegistry) uses one of these
//! constants — never an inline string — so the key namespace documented in
//! DESIGN.md §8 ("Profiling") is enforced by the compiler and `ssj-prof`
//! can rely on the names. The engine-side `mr.*` namespace lives in
//! `ssj_mapreduce::telemetry`; the serving plane (`ssj-serve`) records
//! under `serve.*`, declared here alongside the batch keys so the whole
//! application-level namespace sits in one file.

/// Segment pairs considered by the fragment join (counter; post kernel
/// candidate generation, pre filters): distinct admissible pairs that reach
/// the filter cascade. Under the indexed kernels that is every pair
/// inside the length window that shares an indexed token.
pub const FILTER_PAIRS_CONSIDERED: &str = "fsjoin.filter.pairs_considered";
/// Posting entries the length window skipped (counter). The indexed
/// kernels and PF discovery apply the string-length filter as a slot range
/// on each posting list, so out-of-window partners are never visited and
/// never become considered pairs; this counts what was skipped — in
/// **postings, not pairs** (a pair sharing k indexed tokens is skipped k
/// times), which is why it sits outside the conservation law below.
pub const FILTER_WINDOW_SKIPPED: &str = "fsjoin.filter.window_skipped";
/// Pairs pruned by the string-length filter, Lemma 1, tested pair by pair
/// (counter): the Loop kernel only. 0 where the filter is a length window
/// (`window_skipped`), the two-input R×S join included.
pub const FILTER_STRL_PRUNED: &str = "fsjoin.filter.strl_pruned";
/// Pairs pruned by the segment-length filter, Lemma 2 (counter).
pub const FILTER_SEGL_PRUNED: &str = "fsjoin.filter.segl_pruned";
/// Pairs pruned by the segment-intersection filter, Lemma 3 (counter).
pub const FILTER_SEGI_PRUNED: &str = "fsjoin.filter.segi_pruned";
/// Pairs pruned by the segment-difference filter, Lemma 4 (counter).
pub const FILTER_SEGD_PRUNED: &str = "fsjoin.filter.segd_pruned";
/// Surviving pair-fragments the emit policy did not emit (counter): no
/// common token (Loop kernel only), or no lemma demands them under
/// [`EmitPolicy::PositiveBoundOnly`](crate::EmitPolicy).
pub const FILTER_POLICY_DROPPED: &str = "fsjoin.filter.policy_dropped";
/// Candidate records emitted by the filter stage (counter).
///
/// **Conservation law** of the fragment join (asserted in
/// `tests/metrics_invariants.rs` and `crates/bench/tests/gates.rs`): every
/// considered pair ends in exactly one outcome,
/// `pairs_considered = strl_pruned + bitmap_pruned + segl_pruned +
/// segi_pruned + segd_pruned + policy_dropped + emitted`, with
/// `bitmap_pruned ≤ bitmap_checks` and `emitted` = the run's candidates.
/// `window_skipped` is not a term: it counts postings, and a pair the
/// length window skips is never considered in the first place.
pub const FILTER_EMITTED: &str = "fsjoin.filter.emitted";
/// Pairs the positional bound pruned (counter). R×S cross pairs: in the
/// group of token `t` at positions `pos_r`, `pos_s`, the pair shares at
/// most `1 + min(|r| − pos_r − 1, |s| − pos_s − 1)` tokens from `t` on.
/// FS-Join-PF pairs: at a meet of the cell probe, the tokens shared so far
/// plus that remainder fall below α (one count per pair and probe).
///
/// **Conservation law** of the two-input R×S join (asserted in
/// `crates/bench/tests/gates.rs`): every cross pair inside a group's
/// length window ends in exactly one step of the cascade,
/// `pairs_considered = position_pruned + bitmap_pruned + repeat_skipped +
/// intersections`, and `emitted` = the run's pairs = its candidates.
/// FS-Join-PF's law (same file): `pairs_considered = position_pruned +
/// bitmap_pruned + intersections`, and `emitted` = the run's pairs.
pub const FILTER_POSITION_PRUNED: &str = "fsjoin.filter.position_pruned";
/// Pairs whose records share a token before the point where they were
/// found (counter): R×S cross pairs sharing one before the group's token,
/// and FS-Join-PF's similar pairs sharing one before their segments' heads.
/// The group or fragment of their smallest shared token decides them, so
/// every other one skips them.
pub const FILTER_REPEAT_SKIPPED: &str = "fsjoin.filter.repeat_skipped";

/// Exact intersection-kernel calls (counter): every segment intersection
/// of a fragment kernel, and every whole-record verify that reaches the
/// early-exit kernel — one per call, however early it exits. A pair whose
/// bitmap upper bound settles the verdict (DESIGN.md §12) never reaches
/// the kernel and is tallied under `bitmap_pruned` instead. The Index kernel accumulates overlaps while
/// probing and never runs an exact intersection, so it legitimately
/// reports 0.
pub const KERNEL_INTERSECTIONS: &str = "fsjoin.kernel.intersections";
/// Tokens fed to those exact intersections — the sum of both input slice
/// lengths per call, not the steps an early exit actually took (counter;
/// the quantity the bitmap prune exists to shrink).
pub const KERNEL_INTERSECT_TOKENS: &str = "fsjoin.kernel.intersect_tokens";
/// Pairs whose record bitmaps were read (counter; the bitmap prune's
/// denominator): before whole-record verification, and at the fragment
/// join's record-signature step — there once per fragment the pair is
/// considered in, after StrL.
pub const KERNEL_BITMAP_CHECKS: &str = "fsjoin.kernel.bitmap_checks";
/// Pairs settled by the bitmap upper bound alone — no exact intersection
/// ran (counter; always ≤ `bitmap_checks`, lossless by construction). At
/// the fragment join: segment pairs dropped because the bound on their two
/// *records* is below the pair's global α.
pub const KERNEL_BITMAP_PRUNED: &str = "fsjoin.kernel.bitmap_pruned";

/// Record pairs the Sweep kernel's pass met (counter): a record's probe
/// prefix shares a token with the index prefix of a record before it in
/// its StrL window. Each unordered pair is met at most once.
///
/// **Conservation laws** of the sweep (asserted in
/// `crates/bench/tests/gates.rs`): every met pair ends in one step,
/// `considered = position_pruned + bitmap_pruned + survivors`, and every
/// listed `(pair, cell)` meeting ends in the collision test or the segment
/// steps, `listed = prefix_missed + fsjoin.filter.pairs_considered`
/// ([`SweepStats`](crate::sweep::SweepStats)).
pub const SWEEP_CONSIDERED: &str = "fsjoin.sweep.considered";
/// Met pairs the pass's positional bound dropped (counter).
pub const SWEEP_POSITION_PRUNED: &str = "fsjoin.sweep.position_pruned";
/// Met pairs the record signature dropped (counter).
pub const SWEEP_BITMAP_PRUNED: &str = "fsjoin.sweep.bitmap_pruned";
/// Met pairs that survived both bounds (counter).
pub const SWEEP_SURVIVORS: &str = "fsjoin.sweep.survivors";
/// `(pair, cell)` meetings the sweep listed to the fragment reducers
/// (counter), each once.
pub const SWEEP_LISTED: &str = "fsjoin.sweep.listed";
/// Listed meetings whose local prefixes share no token (counter): dropped
/// before the segment steps, as the Prefix kernel never discovers them.
pub const SWEEP_PREFIX_MISSED: &str = "fsjoin.sweep.prefix_missed";
/// Segments the sweep shipped to a cell (counter).
pub const SWEEP_SEGMENTS_SHIPPED: &str = "fsjoin.sweep.segments_shipped";
/// Segments the walk kernels would have shipped that met no survivor in
/// their cell (counter).
pub const SWEEP_SEGMENTS_CUT: &str = "fsjoin.sweep.segments_cut";

/// Per-cell pair-comparison load of the fragment join (histogram).
pub const FRAGMENT_PAIRS: &str = "fsjoin.fragment.pairs";
/// Per-cell candidate emission of the fragment join (histogram).
pub const FRAGMENT_CANDIDATES: &str = "fsjoin.fragment.candidates";

/// Candidate records produced by the filter/discovery job (gauge; the
/// paper's Table IV quantity).
pub const CANDIDATES: &str = "fsjoin.candidates";
/// Final similar pairs (gauge).
pub const PAIRS: &str = "fsjoin.pairs";

// ---------------------------------------------------------------------------
// Engine per-stage co-group keys (`mr.stage.<job>.*`).
//
// Emitted by `ssj_mapreduce::telemetry::record_job_telemetry` for every
// co-group stage (that crate sits below this one, so it cannot import
// these constants; the suffixes are pinned here — with the builders
// `ssj-prof` uses — so the full application-level namespace stays
// documented in one file and drift breaks a test, not a dashboard).
// ---------------------------------------------------------------------------

/// Suffix of the per-stage co-group marker gauge: `mr.stage.<job>.cogroup`
/// is set to 1 for a stage that consumed its upstreams' sealed reduce
/// partitions in place (no map phase, no fan-in shuffle).
pub const MR_STAGE_COGROUP_SUFFIX: &str = "cogroup";
/// Suffix of the per-stage bytes-saved counter:
/// `mr.stage.<job>.cogroup.shuffle_bytes_saved` accumulates the shuffle
/// volume an identity-rekey fan-in over the same inputs would have
/// re-transferred (= the co-group tasks' input bytes).
pub const MR_STAGE_COGROUP_BYTES_SAVED_SUFFIX: &str = "cogroup.shuffle_bytes_saved";

/// Full name of a stage's co-group marker gauge.
pub fn mr_stage_cogroup_key(stage: &str) -> String {
    format!("mr.stage.{stage}.{MR_STAGE_COGROUP_SUFFIX}")
}

/// Full name of a stage's co-group bytes-saved counter.
pub fn mr_stage_cogroup_bytes_saved_key(stage: &str) -> String {
    format!("mr.stage.{stage}.{MR_STAGE_COGROUP_BYTES_SAVED_SUFFIX}")
}

// ---------------------------------------------------------------------------
// Serving plane (`serve.*`) — recorded by the `ssj-serve` crate.
// ---------------------------------------------------------------------------

/// Point/top-k probes answered (counter).
pub const SERVE_PROBE_QUERIES: &str = "serve.probe.queries";
/// Distinct candidate records that entered a probe's accumulator — i.e.
/// shared at least one probe-prefix token and survived the length window
/// (counter).
pub const SERVE_PROBE_CANDIDATES: &str = "serve.probe.candidates";
/// Postings rejected by the length-window filter before accumulation
/// (counter).
pub const SERVE_PROBE_LENGTH_PRUNED: &str = "serve.probe.length_pruned";
/// Records inside the query's length window that shared **no** probe-prefix
/// token — the prefix filter's pruning power (counter).
pub const SERVE_PROBE_PREFIX_PRUNED: &str = "serve.probe.prefix_pruned";
/// Candidates killed by the positional upper bound before verification
/// (counter).
pub const SERVE_PROBE_POSITION_PRUNED: &str = "serve.probe.position_pruned";
/// Survivors whose bitmaps were consulted before verification (counter).
pub const SERVE_PROBE_BITMAP_CHECKS: &str = "serve.probe.bitmap_checks";
/// Survivors the bitmap upper bound rejected without an exact
/// intersection (counter; lossless — the bound is ≥ the true overlap).
pub const SERVE_PROBE_BITMAP_PRUNED: &str = "serve.probe.bitmap_pruned";
/// Candidates that reached exact verification (counter).
pub const SERVE_PROBE_VERIFIED: &str = "serve.probe.verified";
/// Verified candidates at or above the probe threshold (counter).
pub const SERVE_PROBE_HITS: &str = "serve.probe.hits";
/// End-to-end probe latency in microseconds (histogram) — p50/p99 come
/// from [`LogHistogram::quantile`](ssj_observe::LogHistogram::quantile).
pub const SERVE_PROBE_LATENCY_US: &str = "serve.probe.latency_us";

/// Records accepted into the delta pool (counter).
pub const SERVE_INSERTS: &str = "serve.insert.records";
/// Tokens ingested through delta inserts (counter).
pub const SERVE_INSERT_TOKENS: &str = "serve.insert.tokens";
/// Delta→main compactions executed (counter).
pub const SERVE_COMPACTIONS: &str = "serve.compact.runs";
/// Postings (main + delta) folded into the resealed main index during
/// compactions (counter).
pub const SERVE_COMPACT_POSTINGS: &str = "serve.compact.postings";
/// Records currently servable: main arena + delta pool (gauge).
pub const SERVE_RECORDS: &str = "serve.records";
/// Records currently in the (uncompacted) delta pool (gauge).
pub const SERVE_DELTA_RECORDS: &str = "serve.delta.records";
/// Postings resident in the sealed main index (gauge).
pub const SERVE_MAIN_POSTINGS: &str = "serve.main.postings";

#[cfg(test)]
mod tests {
    use super::*;

    /// The builders must spell the keys exactly as
    /// `ssj_mapreduce::telemetry::record_job_telemetry` emits them (its
    /// own test pins the literal strings from the emitting side).
    #[test]
    fn cogroup_key_builders_match_telemetry_namespace() {
        assert_eq!(
            mr_stage_cogroup_key("rsjoin-join"),
            "mr.stage.rsjoin-join.cogroup"
        );
        assert_eq!(
            mr_stage_cogroup_bytes_saved_key("rsjoin-join"),
            "mr.stage.rsjoin-join.cogroup.shuffle_bytes_saved"
        );
    }
}
