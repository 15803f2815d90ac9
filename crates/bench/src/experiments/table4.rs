//! Table IV — pruning power of each filter combination.
//!
//! The paper counts the records output by the filter job under StrL alone,
//! StrL + one segment filter each, StrL + prefix, and all filters, on
//! Email(10%), Wiki(1%) and PubMed(1%). We mirror those rows on the small
//! corpora with two measurements per row:
//!
//! * **examined** — segment pairs that reached the fragment join's filter
//!   cascade (where the Prefix kernel's pruning shows up): every
//!   admissible pair under Loop, which tests StrL pair by pair; under
//!   Prefix only co-prefix-token pairs inside the length window — the cell
//!   index applies StrL as a slot range, so pairs it excludes are never
//!   examined;
//! * **emitted** — candidate records written by the filter job (only pairs
//!   with ≥ 1 common token are ever materialized here, so our absolute
//!   dynamic range is smaller than the paper's — they appear to count
//!   zero-overlap survivors too).
//!
//! The paper's rows run with the record-signature step off
//! (`bitmap_prune(false)`): they measure the paper's filters. The extra
//! `All + Sig` row adds the step (DESIGN.md §12), which is what
//! `FsJoinConfig::default()` runs.
//!
//! Reproduction finding (proved in `fsjoin::filters` tests): with the
//! information available inside one reducer, SegI and SegD are the *same*
//! predicate, so their rows are identical by mathematics — the paper's
//! differing SegI/SegD counts imply their implementations used different
//! information for the two.

use crate::datasets::{corpus, Scale};
use fsjoin::{FilterSet, FsJoinConfig, JoinKernel};
use ssj_common::table::{fmt_count, Table};
use ssj_text::{Collection, CorpusProfile};

fn run_combo(
    c: &Collection,
    kernel: JoinKernel,
    filters: FilterSet,
    signatures: bool,
) -> (u64, u64) {
    let cfg = FsJoinConfig::default()
        .with_theta(0.8)
        .with_kernel(kernel)
        .with_filters(filters)
        .with_bitmap_prune(signatures);
    let res = fsjoin::run_self_join(c, &cfg);
    (res.filter_stats.pairs_considered, res.candidates as u64)
}

/// Run the experiment; returns markdown.
pub fn run() -> String {
    let strl = FilterSet::STRL_ONLY;
    let rows: Vec<(&str, JoinKernel, FilterSet, bool)> = vec![
        ("StrL", JoinKernel::Loop, strl, false),
        (
            "StrL + SegL",
            JoinKernel::Loop,
            FilterSet { segl: true, ..strl },
            false,
        ),
        (
            "StrL + SegI",
            JoinKernel::Loop,
            FilterSet { segi: true, ..strl },
            false,
        ),
        (
            "StrL + SegD",
            JoinKernel::Loop,
            FilterSet { segd: true, ..strl },
            false,
        ),
        ("StrL + Prefix", JoinKernel::Prefix, strl, false),
        ("All", JoinKernel::Prefix, FilterSet::ALL, false),
        ("All + Sig", JoinKernel::Prefix, FilterSet::ALL, true),
    ];

    let mut out = String::from(
        "# Table IV analogue — filter pruning power\n\n\
         θ = 0.8, Jaccard. `examined` = segment pairs that reached the \
         fragment join's filter cascade (Loop rows: every pair, StrL tested \
         per pair; Prefix rows: co-prefix-token pairs inside the StrL length \
         window — the index never visits the others); `emitted` = candidate \
         records written (pairs with ≥ 1 common token surviving the active \
         filters). `All + Sig` adds \
         the record-signature step (128-bit bitmap bound against the \
         pair's global α, DESIGN.md §12) to the paper's filters.\n\n",
    );
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Small);
        let mut t = Table::new(["Filter", "examined", "emitted"]);
        for &(label, kernel, filters, signatures) in &rows {
            let (examined, emitted) = run_combo(&c, kernel, filters, signatures);
            t.push_row([label.to_string(), fmt_count(examined), fmt_count(emitted)]);
        }
        out.push_str(&format!(
            "## {} (small)\n\n{}\n",
            profile.name(),
            t.to_markdown()
        ));
    }
    // Emission-policy ablation: what it takes to reach the paper's
    // Table IV magnitudes, and what it costs.
    out.push_str("## Emission-policy ablation (see `fsjoin::EmitPolicy`)\n\n");
    let mut t = Table::new([
        "Dataset",
        "emitted (Exact)",
        "emitted (PositiveBoundOnly)",
        "results (Exact)",
        "results (PBO)",
    ]);
    for profile in CorpusProfile::all() {
        let c = corpus(profile, Scale::Small);
        // The paper's filters and kernel, as in its Table IV: no
        // signature step.
        let exact_cfg = FsJoinConfig::default()
            .with_theta(0.8)
            .with_kernel(JoinKernel::Prefix)
            .with_bitmap_prune(false);
        let pbo_cfg = exact_cfg
            .clone()
            .with_emit_policy(fsjoin::EmitPolicy::PositiveBoundOnly);
        let exact = fsjoin::run_self_join(&c, &exact_cfg);
        let pbo = fsjoin::run_self_join(&c, &pbo_cfg);
        t.push_row([
            profile.name().to_string(),
            fmt_count(exact.candidates as u64),
            fmt_count(pbo.candidates as u64),
            exact.pairs.len().to_string(),
            pbo.pairs.len().to_string(),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "\nPaper expectation: every added filter shrinks the filter-job \
         output; the prefix filter slashes the *examined* pairs; \"All\" \
         is the smallest of the paper's rows. \"All + Sig\" is not in the \
         paper: it asks the records' bitmaps whether the pair can reach θ \
         at all, stays exact, and lands at the paper's magnitudes. \
         Divergences (both proved in code): (1) our \
         SegI and SegD rows are identical — with reducer-local information \
         the two lemmas are the same predicate (fsjoin::filters tests); \
         (2) the paper's output magnitudes (e.g. 6,840 records from 74k \
         abstracts) require dropping fragment contributions that exact \
         count-verification provably needs — the PositiveBoundOnly column \
         reproduces those magnitudes and the results column shows the \
         recall it costs.\n",
    );
    out
}
