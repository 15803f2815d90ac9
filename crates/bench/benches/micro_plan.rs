//! Micro-benchmark of plan-level pipelining: the same multi-stage chains
//! executed by [`PlanRunner`] in pipelined vs sequential (barriered) mode.
//!
//! Two real chains are measured end-to-end:
//!
//! - **FS-Join** (2 stages): fragment filtering → verification.
//! - **MassJoin Merge+Light** (3 stages): signature generation →
//!   candidate dedup → verification (the paper's 4-job pipeline, with the
//!   shared ordering job run once at encode time).
//!
//! Pipelining never changes results or logical metrics — only *when* tasks
//! run — so both modes produce bit-identical pairs (asserted here). The
//! report lines print three observables per chain: wall-clock, simulated
//! cluster makespan ([`ClusterModel::simulate_plan`] vs the barriered
//! [`ClusterModel::chain_makespan`]), and the peak live
//! intermediate bytes held between stages (eager partition dropping).

use criterion::{criterion_group, criterion_main, Criterion};
use fsjoin::FsJoinResult;
use ssj_baselines::massjoin::{massjoin, MassJoinVariant};
use ssj_baselines::{BaselineConfig, JoinRunResult};
use ssj_bench::datasets::{bench_corpus, tuned_fsjoin};
use ssj_mapreduce::{ChainMetrics, ClusterModel, PlanMode};
use ssj_similarity::Measure;
use ssj_text::{Collection, CorpusProfile};
use std::hint::black_box;
use std::time::Instant;

const THETA: f64 = 0.8;

fn fsjoin_cfg(mode: PlanMode) -> fsjoin::FsJoinConfig {
    tuned_fsjoin(CorpusProfile::WikiLike)
        .with_theta(THETA)
        .with_measure(Measure::Jaccard)
        .with_tasks(8, 12)
        .with_plan_mode(mode)
}

fn massjoin_cfg(mode: PlanMode) -> BaselineConfig {
    BaselineConfig::default()
        .with_tasks(8, 12)
        .with_plan_mode(mode)
}

fn run_fsjoin(coll: &Collection, mode: PlanMode) -> FsJoinResult {
    fsjoin::run_self_join(coll, &fsjoin_cfg(mode))
}

fn run_massjoin(coll: &Collection, mode: PlanMode) -> JoinRunResult {
    massjoin(
        coll,
        Measure::Jaccard,
        THETA,
        MassJoinVariant::MergeLight,
        &massjoin_cfg(mode),
    )
    .expect("bench corpus fits the signature budget")
}

/// Linear chain: stage `i` consumes stage `i − 1`.
fn linear_deps(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| i.checked_sub(1).into_iter().collect())
        .collect()
}

/// Median wall-clock of `runs` timed invocations (after one warm-up).
fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Simulated makespans on a modelled cluster from ONE chain's logical
/// metrics (mode-invariant, so the comparison isolates the schedule):
/// partition-granular pipelined vs whole-job barriered.
fn simulated_secs(chain: &ChainMetrics) -> (f64, f64) {
    // Two nodes (6 slots) against 12 reduce partitions: each phase runs in
    // waves, so a downstream map can start on wave-1 partitions while
    // wave 2 is still reducing — the schedule pipelining exploits.
    let cluster = ClusterModel::paper_default(2);
    let deps = linear_deps(chain.jobs.len());
    let piped = cluster
        .simulate_plan(chain, &deps)
        .iter()
        .map(|s| s.end_secs)
        .fold(0.0f64, f64::max);
    (piped, cluster.chain_makespan(chain))
}

fn report_chain(
    name: &str,
    chain: &ChainMetrics,
    wall_piped_ms: f64,
    wall_seq_ms: f64,
    peak_piped: usize,
    peak_seq: usize,
) {
    let (sim_piped, sim_barrier) = simulated_secs(chain);
    println!(
        "plan-report: chain={name} stages={} wall_piped_ms={wall_piped_ms:.1} \
         wall_seq_ms={wall_seq_ms:.1} sim_piped_ms={:.2} \
         sim_barrier_ms={:.2} peak_piped_bytes={peak_piped} \
         peak_seq_bytes={peak_seq}",
        chain.jobs.len(),
        sim_piped * 1e3,
        sim_barrier * 1e3,
    );
    assert!(
        peak_piped <= peak_seq,
        "{name}: eager dropping must not raise the high-water mark \
         ({peak_piped} > {peak_seq})"
    );
    assert!(
        sim_piped <= sim_barrier + 1e-9,
        "{name}: pipelined simulated makespan must not exceed barriered"
    );
}

fn report_plan_modes(coll: &Collection) {
    // FS-Join: 2-stage filter → verify chain.
    let piped = run_fsjoin(coll, PlanMode::Pipelined);
    let seq = run_fsjoin(coll, PlanMode::Sequential);
    assert_eq!(piped.pairs, seq.pairs, "fsjoin results are mode-invariant");
    let wall_p = median_ms(3, || run_fsjoin(coll, PlanMode::Pipelined));
    let wall_s = median_ms(3, || run_fsjoin(coll, PlanMode::Sequential));
    report_chain(
        "fsjoin",
        &seq.chain,
        wall_p,
        wall_s,
        piped.peak_live_bytes,
        seq.peak_live_bytes,
    );

    // MassJoin Merge+Light: 3-stage signatures → dedup → verify chain.
    let piped = run_massjoin(coll, PlanMode::Pipelined);
    let seq = run_massjoin(coll, PlanMode::Sequential);
    assert_eq!(
        piped.pairs, seq.pairs,
        "massjoin results are mode-invariant"
    );
    let wall_p = median_ms(3, || run_massjoin(coll, PlanMode::Pipelined));
    let wall_s = median_ms(3, || run_massjoin(coll, PlanMode::Sequential));
    report_chain(
        "massjoin-light",
        &seq.chain,
        wall_p,
        wall_s,
        piped.peak_live_bytes,
        seq.peak_live_bytes,
    );
}

fn bench_plan_modes(c: &mut Criterion) {
    let coll = bench_corpus();
    report_plan_modes(&coll);

    let mut g = c.benchmark_group("plan_fsjoin");
    g.sample_size(10);
    g.bench_function("pipelined", |b| {
        b.iter(|| black_box(run_fsjoin(&coll, PlanMode::Pipelined)))
    });
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(run_fsjoin(&coll, PlanMode::Sequential)))
    });
    g.finish();

    let mut g = c.benchmark_group("plan_massjoin_light");
    g.sample_size(10);
    g.bench_function("pipelined", |b| {
        b.iter(|| black_box(run_massjoin(&coll, PlanMode::Pipelined)))
    });
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(run_massjoin(&coll, PlanMode::Sequential)))
    });
    g.finish();
}

criterion_group!(benches, bench_plan_modes);
criterion_main!(benches);
