//! Shuffle-determinism probe: run the fig6-style FS-Join comparison
//! workload at bench scale with a caller-chosen worker-thread count and
//! print a deterministic report — result digest, candidate count, and
//! per-job shuffle record/byte accounting.
//!
//! ```text
//! cargo run --release -p ssj-bench --bin determinism -- [workers] [mode] [target] [prune] [joinpath]
//! ```
//!
//! Worker count parallelizes the map/shuffle/reduce phases but must never
//! change output, metrics, or byte accounting (the engine's streaming
//! shuffle merges spill runs in deterministic map-task order regardless of
//! which thread transposed them). `mode` is `pipelined` (default) or
//! `sequential` and selects how the plan runner sequences the chain —
//! pipelining overlaps stages but must be equally invisible in this
//! report. `target` is `selfjoin` (default, the fig6-style two-stage
//! FS-Join) or `rsjoin` (the two-input R×S plan, exercising per-split
//! multi-upstream scheduling and broadcast edges). `prune` is `prune`
//! (default) or `noprune` and toggles the bitmap prune — lossless, so the
//! `pairs` and `digest` of the `result:` line must not move with it. What
//! else may move depends on the site: at a whole-record verify site
//! (`rsjoin`) only the kernel counters on the `filters:` line do; at the
//! self-join's fragment join the prune drops dissimilar pairs before they
//! become candidates, so candidates and the verify job's shuffle shrink.
//! The `filters:` line prints every `FilterStats` field, so CI can check
//! the fragment join's conservation law (`fsjoin::keys`) on it. `joinpath`
//! is `cogroup` (default) or `rekey` and selects the rsjoin join-stage
//! execution path (DESIGN.md §13); the two
//! paths produce identical `result:`/`filters:` lines but legitimately
//! different per-job shuffle accounting — the rekey path pays a second
//! shuffle the co-group path eliminates — so the cross-path CI gate diffs
//! only the result lines. The CI gates run this binary across worker
//! counts and across plan modes and diff the outputs byte-for-byte, and
//! across the prune toggle and the join path and diff what each may not
//! move.

use ssj_bench::datasets::{bench_corpus, rs_corpus, tuned_fsjoin};
use ssj_bench::Scale;
use ssj_mapreduce::PlanMode;
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::CorpusProfile;

/// FNV-1a over the canonically sorted pair list (ids + exact score bits).
fn digest(pairs: &[SimilarPair]) -> u64 {
    let mut sorted: Vec<(u32, u32, u64)> =
        pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (a, b, s) in sorted {
        mix(a as u64);
        mix(b as u64);
        mix(s);
    }
    h
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers: usize = args
        .first()
        .map_or(2, |s| s.parse().expect("workers: usize"));
    let mode = match args.get(1).map(String::as_str) {
        None | Some("pipelined") => PlanMode::Pipelined,
        Some("sequential") => PlanMode::Sequential,
        Some(other) => panic!("mode must be `pipelined` or `sequential`, got `{other}`"),
    };

    let prune = match args.get(3).map(String::as_str) {
        None | Some("prune") => true,
        Some("noprune") => false,
        Some(other) => panic!("prune must be `prune` or `noprune`, got `{other}`"),
    };

    let cogroup = match args.get(4).map(String::as_str) {
        None | Some("cogroup") => true,
        Some("rekey") => false,
        Some(other) => panic!("joinpath must be `cogroup` or `rekey`, got `{other}`"),
    };

    let res = match args.get(2).map(String::as_str) {
        None | Some("selfjoin") => {
            let corpus = bench_corpus();
            let cfg = tuned_fsjoin(CorpusProfile::WikiLike)
                .with_theta(0.8)
                .with_measure(Measure::Jaccard)
                .with_tasks(8, 12)
                .with_workers(workers)
                .with_plan_mode(mode)
                .with_bitmap_prune(prune);
            fsjoin::run_self_join(&corpus, &cfg)
        }
        Some("rsjoin") => {
            let (r, s) = rs_corpus(CorpusProfile::WikiLike, Scale::Bench);
            let cfg = fsjoin::FsJoinConfig::default()
                .with_theta(0.8)
                .with_measure(Measure::Jaccard)
                .with_tasks(8, 12)
                .with_workers(workers)
                .with_plan_mode(mode)
                .with_bitmap_prune(prune)
                .with_rs_cogroup(cogroup);
            fsjoin::run_rs_join_two_input(&r, &s, &cfg)
        }
        Some(other) => panic!("target must be `selfjoin` or `rsjoin`, got `{other}`"),
    };

    // Every line below must be byte-identical across worker counts.
    println!(
        "result: pairs={} digest={:#018x} candidates={}",
        res.pairs.len(),
        digest(&res.pairs),
        res.candidates
    );
    let filters: Vec<String> = res
        .filter_stats
        .fields()
        .iter()
        .map(|(key, value)| format!("{}={value}", key.rsplit('.').next().unwrap_or(key)))
        .collect();
    println!("filters: {}", filters.join(" "));
    for job in &res.chain.jobs {
        println!(
            "job {}: shuffle_records={} shuffle_bytes={} pre_combine_records={} \
             pre_combine_bytes={} map_out={} reduce_out={}",
            job.name,
            job.shuffle_records,
            job.shuffle_bytes,
            job.pre_combine_records,
            job.pre_combine_bytes,
            job.map_output_records(),
            job.reduce_output_records()
        );
    }
}
