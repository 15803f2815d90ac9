//! Determinism and counter gates for the batch and serving planes.
//!
//! Each test compares typed values — pair digests, [`FilterStats`],
//! [`ProbeStats`] and per-job [`LogicalJob`]s — across settings that must
//! not move them: worker count, plan mode, the lossless bitmap prune and
//! the index-build worker count. Each also pins the counters of a fixed
//! workload as literals. A change to what the engine computes or ships
//! therefore fails here. An intended change updates the literals in the
//! same commit.

use fsjoin::{FilterStats, FsJoinConfig, FsJoinResult, JoinKernel, SweepStats};
use ssj_bench::datasets::{bench_corpus, corpus, rs_corpus, tuned_fsjoin, Scale};
use ssj_bench::serve_load::{prefix_collection, probe_all_pairs};
use ssj_mapreduce::{LogicalJob, PlanMode};
use ssj_serve::{build_index, ProbeStats, ServeConfig};
use ssj_similarity::{pair_digest, Measure};
use ssj_text::{Collection, CorpusProfile, Record};

/// Everything a batch run must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Report {
    pairs: usize,
    digest: u64,
    candidates: usize,
    filters: FilterStats,
    sweep: SweepStats,
    jobs: Vec<LogicalJob>,
}

impl Report {
    fn of(res: &FsJoinResult) -> Report {
        Report {
            pairs: res.pairs.len(),
            digest: pair_digest(&res.pairs),
            candidates: res.candidates,
            filters: res.filter_stats,
            sweep: res.sweep_stats,
            jobs: res.chain.jobs.iter().map(|j| j.logical()).collect(),
        }
    }

    /// `(job, shuffle records, shuffle bytes)` per job.
    fn shuffle(&self) -> Vec<(&str, usize, usize)> {
        self.jobs
            .iter()
            .map(|j| (j.name.as_str(), j.shuffle_records, j.shuffle_bytes))
            .collect()
    }
}

/// The Fig. 6-style self-join on the 400-record WikiLike bench corpus.
fn selfjoin(kernel: JoinKernel, workers: usize, mode: PlanMode, prune: bool) -> Report {
    let cfg = tuned_fsjoin(CorpusProfile::WikiLike)
        .with_kernel(kernel)
        .with_theta(0.8)
        .with_measure(Measure::Jaccard)
        .with_tasks(8, 12)
        .with_workers(workers)
        .with_plan_mode(mode)
        .with_bitmap_prune(prune);
    Report::of(&fsjoin::run_self_join(&bench_corpus(), &cfg))
}

/// The two-input R×S plan on the asymmetric bench-scale WikiLike pair. It
/// runs no fragment kernel.
fn rsjoin(workers: usize, mode: PlanMode, prune: bool) -> Report {
    let (r, s) = rs_corpus(CorpusProfile::WikiLike, Scale::Bench);
    let cfg = FsJoinConfig::default()
        .with_theta(0.8)
        .with_measure(Measure::Jaccard)
        .with_tasks(8, 12)
        .with_workers(workers)
        .with_plan_mode(mode)
        .with_bitmap_prune(prune);
    Report::of(&fsjoin::run_rs_join_two_input(&r, &s, &cfg))
}

/// The fragment join's conservation law (`fsjoin::keys`): every considered
/// pair ends in exactly one outcome.
fn assert_conserved(fs: &FilterStats) {
    assert!(fs.pairs_considered > 0, "{fs:?}");
    assert_eq!(fs.unaccounted(), 0, "{fs:?}");
    assert!(fs.bitmap_pruned <= fs.bitmap_checks, "{fs:?}");
}

/// The Sweep kernel's laws (`fsjoin::keys`): every pair its pass meets
/// ends in one step, every listed meeting in the collision test or the
/// segment steps, and shipped plus cut segments are what a walk kernel
/// ships.
fn assert_sweep_conserved(report: &Report, walk_segments: usize) {
    let sweep = &report.sweep;
    assert!(sweep.survivors > 0, "{sweep:?}");
    assert_eq!(sweep.undecided(), 0, "{sweep:?}");
    assert_eq!(sweep.unlisted(&report.filters), 0, "{sweep:?}");
    assert_eq!(
        sweep.segments_shipped + sweep.segments_cut,
        walk_segments as u64,
        "{sweep:?}"
    );
    assert_eq!(report.shuffle()[0].1 as u64, sweep.segments_shipped);
    assert_conserved(&report.filters);
}

/// The self-join report is frozen, and neither the worker count nor the
/// plan mode moves any of it: result, filter counters, per-task counts.
/// It runs the Prefix kernel, whose walk the literals were taken from.
#[test]
fn selfjoin_is_frozen_across_workers_and_plan_modes() {
    let base = selfjoin(JoinKernel::Prefix, 2, PlanMode::Pipelined, true);
    assert_eq!(
        (base.pairs, base.digest, base.candidates),
        (16, 0x2db8_2992_da95_ce00, 352)
    );
    assert_eq!(
        base.filters,
        FilterStats {
            pairs_considered: 87_737,
            window_skipped: 19_935,
            strl_pruned: 0,
            segl_pruned: 0,
            segi_pruned: 0,
            segd_pruned: 0,
            policy_dropped: 0,
            emitted: 352,
            intersections: 352,
            intersect_tokens: 2_453,
            bitmap_checks: 87_737,
            bitmap_pruned: 87_385,
            position_pruned: 0,
            repeat_skipped: 0,
        }
    );
    assert_conserved(&base.filters);
    assert_eq!(
        base.shuffle(),
        [
            ("fsjoin-filter", 37_616, 1_287_516),
            ("fsjoin-verify", 194, 3_880)
        ]
    );
    for (workers, mode) in [
        (7, PlanMode::Pipelined),
        (2, PlanMode::Sequential),
        (7, PlanMode::Sequential),
    ] {
        assert_eq!(
            selfjoin(JoinKernel::Prefix, workers, mode, true),
            base,
            "workers={workers} {mode:?}"
        );
    }
}

/// The same self-join under the Sweep kernel: Prefix's pairs and digest
/// (every pair at or above θ is listed wherever it meets), from fewer
/// candidates (Sweep's are a subset of Prefix's: the pass also drops pairs
/// below θ by the prefix and positional bounds) and a filter shuffle that
/// carries only the segments where a surviving pair meets. Frozen, and
/// worker- and mode-invariant.
#[test]
fn selfjoin_sweep_is_frozen_across_workers_and_plan_modes() {
    let base = selfjoin(JoinKernel::Sweep, 2, PlanMode::Pipelined, true);
    let prefix = selfjoin(JoinKernel::Prefix, 2, PlanMode::Pipelined, true);
    assert_eq!((base.pairs, base.digest), (prefix.pairs, prefix.digest));
    assert!(base.candidates <= prefix.candidates);
    assert_eq!(
        (base.pairs, base.digest, base.candidates),
        (16, 0x2db8_2992_da95_ce00, 352)
    );
    // The segment steps on the pairs the pass let through, in every cell
    // where their local prefixes collide. The pass read the bitmaps
    // instead of the reducers, once per pair.
    assert_eq!(
        base.filters,
        FilterStats {
            pairs_considered: 352,
            emitted: 352,
            intersections: 352,
            intersect_tokens: 2_453,
            ..FilterStats::default()
        }
    );
    assert_eq!(
        base.sweep,
        SweepStats {
            considered: 26,
            position_pruned: 1,
            bitmap_pruned: 8,
            survivors: 17,
            listed: 352,
            prefix_missed: 0,
            segments_shipped: 704,
            segments_cut: 36_912,
        }
    );
    assert_sweep_conserved(&base, 37_616);
    assert_eq!(
        base.shuffle(),
        [
            ("fsjoin-filter", 704, 30_932),
            ("fsjoin-verify", 194, 3_880)
        ]
    );
    for (workers, mode) in [
        (7, PlanMode::Pipelined),
        (2, PlanMode::Sequential),
        (7, PlanMode::Sequential),
    ] {
        assert_eq!(
            selfjoin(JoinKernel::Sweep, workers, mode, true),
            base,
            "workers={workers} {mode:?}"
        );
    }
}

/// The R×S join's conservation law (`fsjoin::keys`): every considered
/// cross pair ends in exactly one step of the cascade, and each similar
/// pair is emitted once.
fn assert_rs_conserved(report: &Report) {
    let fs = &report.filters;
    assert!(fs.pairs_considered > 0, "{fs:?}");
    assert_eq!(
        fs.pairs_considered,
        fs.position_pruned + fs.bitmap_pruned + fs.repeat_skipped + fs.intersections,
        "{fs:?}"
    );
    assert_eq!(fs.emitted, report.pairs as u64, "{fs:?}");
    assert_eq!(report.candidates, report.pairs, "{fs:?}");
    assert_eq!(fs.strl_pruned, 0, "{fs:?}");
    assert!(fs.bitmap_pruned <= fs.bitmap_checks, "{fs:?}");
}

/// The same for the two-input R×S plan, whose co-group join stage reads
/// the sealed prefix partitions in place: it ships zero shuffle bytes and
/// reports the bytes a re-shuffle would have moved as saved.
#[test]
fn rsjoin_is_frozen_across_workers_and_plan_modes() {
    let base = rsjoin(2, PlanMode::Pipelined, true);
    assert_eq!(
        (base.pairs, base.digest, base.candidates),
        (57, 0x91b2_8378_846f_3162, 57)
    );
    assert_eq!(
        base.filters,
        FilterStats {
            pairs_considered: 772,
            window_skipped: 9,
            emitted: 57,
            intersections: 59,
            intersect_tokens: 7_411,
            bitmap_checks: 417,
            bitmap_pruned: 9,
            position_pruned: 355,
            repeat_skipped: 349,
            ..FilterStats::default()
        }
    );
    assert_rs_conserved(&base);
    assert_eq!(
        base.shuffle(),
        [
            ("rsjoin-r-prefix", 629, 221_240),
            ("rsjoin-s-prefix", 4_508, 1_417_520),
            ("rsjoin-join", 0, 0),
        ]
    );
    let join = &base.jobs[2];
    assert!(join.cogroup && join.map_tasks.is_empty());
    assert_eq!((join.pre_combine_records, join.pre_combine_bytes), (0, 0));
    let saved: usize = join.reduce_tasks.iter().map(|t| t.input_bytes).sum();
    assert_eq!(saved, 221_240 + 1_417_520);
    for (workers, mode) in [
        (7, PlanMode::Pipelined),
        (2, PlanMode::Sequential),
        (7, PlanMode::Sequential),
    ] {
        let run = rsjoin(workers, mode, true);
        assert_rs_conserved(&run);
        assert_eq!(run, base, "workers={workers} {mode:?}");
    }
}

/// The bitmap bound is lossless, so the prune never moves pairs or
/// scores. In the self-join it drops pairs before they become candidates,
/// so candidates must fall. In the R×S cascade the bitmap sits between the
/// positional bound and the repeat check, so a pair it prunes is otherwise
/// skipped as a repeat or intersected: only those counters may move.
#[test]
fn bitmap_prune_is_lossless() {
    let on = selfjoin(JoinKernel::Prefix, 2, PlanMode::Pipelined, true);
    let off = selfjoin(JoinKernel::Prefix, 2, PlanMode::Pipelined, false);
    assert_eq!((off.pairs, off.digest), (on.pairs, on.digest));
    assert!(
        on.candidates < off.candidates,
        "the record-signature step removed no candidate: {} vs {}",
        on.candidates,
        off.candidates
    );
    // Sweep's pass reads the signature once per pair, and with the step
    // on or off gives the same pairs from a subset of Prefix's candidates
    // (step on: of the step-on walk's).
    let sweep_on = selfjoin(JoinKernel::Sweep, 2, PlanMode::Pipelined, true);
    let sweep_off = selfjoin(JoinKernel::Sweep, 2, PlanMode::Pipelined, false);
    for sweep in [&sweep_on, &sweep_off] {
        assert_eq!((sweep.pairs, sweep.digest), (off.pairs, off.digest));
    }
    assert!(sweep_on.candidates <= on.candidates);
    assert!(sweep_off.candidates <= off.candidates);
    assert!(sweep_on.candidates <= sweep_off.candidates);
    assert!(sweep_on.sweep.bitmap_pruned > 0);
    assert_eq!(sweep_off.sweep.bitmap_pruned, 0);

    let on = rsjoin(2, PlanMode::Pipelined, true);
    let mut off = rsjoin(2, PlanMode::Pipelined, false);
    assert_eq!(off.filters.bitmap_checks, 0);
    assert_rs_conserved(&off);
    let kernel = |fs: &mut FilterStats, from: &FilterStats| {
        fs.intersections = from.intersections;
        fs.intersect_tokens = from.intersect_tokens;
        fs.bitmap_checks = from.bitmap_checks;
        fs.bitmap_pruned = from.bitmap_pruned;
        fs.repeat_skipped = from.repeat_skipped;
    };
    kernel(&mut off.filters, &on.filters);
    assert_eq!(off, on);
}

/// Default-config FS-Join on the 1.2k-record WikiLike corpus, under the
/// Prefix kernel whose walk the literals were taken from.
#[test]
fn fsjoin_wiki_counters_are_frozen() {
    let c = corpus(CorpusProfile::WikiLike, Scale::Small);
    let cfg = FsJoinConfig::default()
        .with_theta(0.8)
        .with_kernel(JoinKernel::Prefix);
    let res = fsjoin::run_self_join(&c, &cfg);
    assert_eq!(
        (
            res.pairs.len(),
            res.candidates,
            res.chain.total_shuffle_bytes()
        ),
        (72, 1_037, 1_238_868)
    );
    assert_eq!(
        res.filter_stats,
        FilterStats {
            pairs_considered: 538_805,
            window_skipped: 722_755,
            strl_pruned: 0,
            segl_pruned: 1,
            segi_pruned: 2,
            segd_pruned: 0,
            policy_dropped: 0,
            emitted: 1_037,
            intersections: 1_039,
            intersect_tokens: 9_364,
            bitmap_checks: 538_805,
            bitmap_pruned: 537_765,
            position_pruned: 0,
            repeat_skipped: 0,
        }
    );
    assert_conserved(&res.filter_stats);
    let shuffle: Vec<_> = Report::of(&res)
        .jobs
        .iter()
        .map(|j| (j.shuffle_records, j.shuffle_bytes))
        .collect();
    assert_eq!(shuffle, [(30_261, 1_220_608), (913, 18_260)]);
}

/// Default-config FS-Join — the Sweep kernel — on the same corpus: Prefix's
/// pairs and digest from a subset of its candidates, frozen sweep
/// counters, worker- and mode-invariant.
#[test]
fn fsjoin_wiki_sweep_counters_are_frozen() {
    let c = corpus(CorpusProfile::WikiLike, Scale::Small);
    let run = |workers, mode| {
        let cfg = FsJoinConfig::default()
            .with_theta(0.8)
            .with_workers(workers)
            .with_plan_mode(mode);
        Report::of(&fsjoin::run_self_join(&c, &cfg))
    };
    let base = run(2, PlanMode::Pipelined);
    let prefix = Report::of(&fsjoin::run_self_join(
        &c,
        &FsJoinConfig::default()
            .with_theta(0.8)
            .with_kernel(JoinKernel::Prefix),
    ));
    assert_eq!((base.pairs, base.digest), (prefix.pairs, prefix.digest));
    assert!(base.candidates <= prefix.candidates);
    assert_eq!((base.pairs, base.candidates), (72, 1_037));
    assert_eq!(
        base.filters,
        FilterStats {
            pairs_considered: 1_040,
            segl_pruned: 1,
            segi_pruned: 2,
            emitted: 1_037,
            intersections: 1_039,
            intersect_tokens: 9_364,
            ..FilterStats::default()
        }
    );
    assert_eq!(
        base.sweep,
        SweepStats {
            considered: 130,
            position_pruned: 21,
            bitmap_pruned: 25,
            survivors: 84,
            listed: 1_052,
            prefix_missed: 12,
            segments_shipped: 1_938,
            segments_cut: 28_323,
        }
    );
    assert_sweep_conserved(&base, 30_261);
    // Prefix ships 1,220,608 filter bytes and 18,260 verify bytes.
    assert_eq!(
        base.shuffle(),
        [
            ("fsjoin-filter", 1_938, 92_780),
            ("fsjoin-verify", 913, 18_260)
        ]
    );
    for (workers, mode) in [
        (7, PlanMode::Pipelined),
        (2, PlanMode::Sequential),
        (7, PlanMode::Sequential),
    ] {
        assert_eq!(run(workers, mode), base, "workers={workers} {mode:?}");
    }
}

/// FS-Join-PF on the same corpus: prefix-filter discovery, the positional
/// bound, verification in the discovery task and the repeat check, in one
/// stage.
#[test]
fn pf_wiki_counters_are_frozen() {
    let c = corpus(CorpusProfile::WikiLike, Scale::Small);
    let res = fsjoin::run_self_join_pf(&c, &FsJoinConfig::default().with_theta(0.8));
    assert_eq!(
        (
            res.pairs.len(),
            res.candidates,
            res.chain.total_shuffle_bytes()
        ),
        (72, 386, 1_220_608)
    );
    let stats = res.filter_stats;
    assert_eq!(
        stats,
        FilterStats {
            pairs_considered: 386,
            window_skipped: 125,
            emitted: 72,
            intersections: 135,
            intersect_tokens: 15_684,
            bitmap_checks: 167,
            bitmap_pruned: 32,
            position_pruned: 219,
            repeat_skipped: 48,
            ..FilterStats::default()
        }
    );
    // PF's law: every discovered pair ends at the positional bound, the
    // bitmap or the intersection kernel, and each emission is a result
    // pair.
    assert_eq!(
        (
            stats.position_pruned + stats.bitmap_pruned + stats.intersections,
            stats.emitted
        ),
        (stats.pairs_considered, res.pairs.len() as u64)
    );
}

/// The two-input R×S plan against the incumbent way of answering the
/// same query: RIDPairsPPJoin over the concatenated collection, cross-side
/// pairs kept. Same pairs and scores, with a frozen shuffle footprint each.
#[test]
fn rsjoin_wiki_matches_ridpairs_over_concat() {
    let (r, s) = rs_corpus(CorpusProfile::WikiLike, Scale::Bench);
    let res = fsjoin::run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
    assert_eq!(
        (
            res.chain.total_shuffle_records(),
            res.chain.total_shuffle_bytes(),
            res.chain.jobs[2].cogroup_shuffle_bytes_saved()
        ),
        (5_137, 1_638_760, 1_638_760)
    );

    let offset = r.len() as u32;
    let records: Vec<Record> = r
        .iter()
        .map(|v| Record::from_sorted(v.id, v.tokens.to_vec()))
        .chain(
            s.iter()
                .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec())),
        )
        .collect();
    let concat = Collection::new(records, r.token_freqs.clone(), None);
    let rid = ssj_baselines::ridpairs::ridpairs_ppjoin(
        &concat,
        Measure::Jaccard,
        0.8,
        &ssj_baselines::BaselineConfig::default(),
    );
    let cross: Vec<_> = rid
        .pairs
        .into_iter()
        .filter(|p| p.a < offset && p.b >= offset)
        .collect();
    assert_eq!(cross.len(), 57);
    assert_eq!(pair_digest(&cross), pair_digest(&res.pairs));
    assert_eq!(
        (
            rid.chain.total_shuffle_records(),
            rid.chain.total_shuffle_bytes()
        ),
        (6_070, 1_653_688)
    );
}

/// Replay every record of the 1.2k-record corpus against a sealed index:
/// frozen probe cascade and index shape.
#[test]
fn serve_wiki_counters_are_frozen() {
    let c = corpus(CorpusProfile::WikiLike, Scale::Small);
    let index = build_index(&c, &ServeConfig::default().with_theta_min(0.7));
    assert_eq!((index.len(), index.main_postings()), (1_200, 20_463));
    let (pairs, stats) = probe_all_pairs(&index, 0.8);
    assert_eq!(pairs.len(), 72);
    assert_eq!(
        stats,
        ProbeStats {
            candidates: 840,
            length_pruned: 2_866,
            prefix_pruned: 268_928,
            position_pruned: 626,
            bitmap_checks: 214,
            bitmap_pruned: 48,
            verified: 166,
            hits: 144,
        }
    );
    assert_serve_conserved(&stats);
}

/// The serve cascade's conservation law: every candidate ends
/// position-pruned, bitmap-pruned or verified, and only verified ones hit.
fn assert_serve_conserved(stats: &ProbeStats) {
    assert_eq!(stats.unaccounted(), 0, "{stats:?}");
    assert!(stats.hits <= stats.verified, "{stats:?}");
}

/// What a serving replay must reproduce exactly.
#[derive(Debug, PartialEq)]
struct Replay {
    records: usize,
    main_postings: usize,
    delta_records: usize,
    digest: u64,
    stats: ProbeStats,
    compacted_digest: u64,
}

/// Build on the first 80 % of the bench corpus with `workers` build
/// workers, insert the rest with a compaction every seventh insert, and
/// replay every record before and after a final compaction.
fn serve_replay(workers: usize) -> Replay {
    let full = bench_corpus();
    let n = full.len();
    let base = n * 4 / 5;
    let cfg = ServeConfig::default()
        .with_theta_min(0.7)
        .with_workers(workers);
    let mut index = build_index(&prefix_collection(&full, base), &cfg);
    for rid in base..n {
        index
            .insert(full.tokens(rid as u32))
            .expect("corpus records are well-formed");
        if (rid - base) % 7 == 6 {
            index.compact();
        }
    }
    let (records, main_postings, delta_records) =
        (index.len(), index.main_postings(), index.delta_len());
    let (pairs, stats) = probe_all_pairs(&index, 0.8);
    assert_serve_conserved(&stats);
    index.compact();
    assert_eq!(index.delta_len(), 0);
    let (compacted, _) = probe_all_pairs(&index, 0.8);
    Replay {
        records,
        main_postings,
        delta_records,
        digest: pair_digest(&pairs),
        stats,
        compacted_digest: pair_digest(&compacted),
    }
}

/// Build workers parallelize index construction but never change index
/// content or answers, through inserts and compactions.
#[test]
fn serve_replay_is_build_worker_invariant() {
    let two = serve_replay(2);
    assert_eq!(
        two,
        Replay {
            records: 400,
            main_postings: 6_566,
            delta_records: 3,
            digest: 0x2db8_2992_da95_ce00,
            stats: ProbeStats {
                candidates: 69,
                length_pruned: 116,
                prefix_pruned: 30_513,
                position_pruned: 19,
                bitmap_checks: 50,
                bitmap_pruned: 16,
                verified: 34,
                hits: 32,
            },
            compacted_digest: 0x2db8_2992_da95_ce00,
        }
    );
    assert_eq!(serve_replay(7), two);
}
