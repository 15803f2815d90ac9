//! Unified runner over FS-Join and the baselines, producing comparable
//! outcomes (real time, simulated cluster time, shuffle volume, balance).

use fsjoin::FsJoinConfig;
use ssj_baselines::massjoin::{massjoin, MassJoinVariant};
use ssj_baselines::ridpairs::ridpairs_ppjoin;
use ssj_baselines::vsmart::vsmart_join;
use ssj_baselines::BaselineConfig;
use ssj_mapreduce::{ChainMetrics, ClusterModel};
use ssj_similarity::Measure;
use ssj_text::Collection;
use std::time::Instant;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// FS-Join with defaults (Even-TF, Prefix kernel, all filters,
    /// horizontal partitioning on).
    FsJoin,
    /// FS-Join without horizontal partitioning (the paper's FS-Join-V).
    FsJoinV,
    /// RIDPairsPPJoin (Vernica et al.).
    RidPairs,
    /// V-Smart-Join, Online-Aggregation.
    VSmart,
    /// MassJoin, Merge variant.
    MassJoinMerge,
    /// MassJoin, Merge+Light variant.
    MassJoinLight,
}

impl Algorithm {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::FsJoin => "FS-Join",
            Algorithm::FsJoinV => "FS-Join-V",
            Algorithm::RidPairs => "RIDPairsPPJoin",
            Algorithm::VSmart => "V-Smart-Join",
            Algorithm::MassJoinMerge => "MassJoin(Merge)",
            Algorithm::MassJoinLight => "MassJoin(Merge+Light)",
        }
    }

    /// The five externally comparable algorithms (paper Figure 7 order).
    pub fn all_five() -> [Algorithm; 5] {
        [
            Algorithm::FsJoin,
            Algorithm::RidPairs,
            Algorithm::VSmart,
            Algorithm::MassJoinMerge,
            Algorithm::MassJoinLight,
        ]
    }
}

/// Did the run complete?
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Completed.
    Ok,
    /// Did not finish (budget exceeded — the paper's "cannot run
    /// completely"), with the reason.
    Dnf(String),
}

/// A comparable outcome of one algorithm run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Completion status.
    pub status: RunStatus,
    /// Number of result pairs.
    pub result_pairs: usize,
    /// Real single-machine wall-clock seconds.
    pub real_secs: f64,
    /// Simulated makespan on the given cluster.
    pub sim_secs: f64,
    /// Total shuffled bytes across the pipeline.
    pub shuffle_bytes: usize,
    /// Byte-level duplication factor of the pipeline's first job (the
    /// signature/filter job, where the algorithms differ): shuffled bytes ÷
    /// map input bytes. FS-Join stays near 1 (disjoint segments, metadata
    /// only); signature joins re-ship records per signature.
    pub duplication: f64,
    /// Max/mean skew of reduce-task input bytes of the first job.
    pub reduce_skew: f64,
    /// Full per-job metrics when the run completed.
    pub chain: Option<ChainMetrics>,
}

/// Makespan of `chain` run job after job on `cluster`.
fn chain_secs(cluster: &ClusterModel, chain: &ChainMetrics) -> f64 {
    let schedules = cluster.simulate_chain_schedule(chain);
    schedules.last().map_or(0.0, |s| s.end_secs)
}

impl RunOutcome {
    /// Simulated makespan on an arbitrary cluster model (NaN for DNFs).
    pub fn sim_secs_on(&self, cluster: &ClusterModel) -> f64 {
        self.chain
            .as_ref()
            .map_or(f64::NAN, |ch| chain_secs(cluster, ch))
    }

    fn dnf(algorithm: &'static str, reason: String) -> Self {
        RunOutcome {
            algorithm,
            status: RunStatus::Dnf(reason),
            result_pairs: 0,
            real_secs: f64::NAN,
            sim_secs: f64::NAN,
            shuffle_bytes: 0,
            duplication: f64::NAN,
            reduce_skew: f64::NAN,
            chain: None,
        }
    }

    fn from_chain(
        algorithm: &'static str,
        pairs: usize,
        real_secs: f64,
        chain: ChainMetrics,
        cluster: &ClusterModel,
    ) -> Self {
        Self::from_chain_with_deps(algorithm, pairs, real_secs, chain, cluster, None)
    }

    /// Like [`Self::from_chain`], but when the run came from a declared
    /// `Plan` its dependency vector rides along: the recorded simulated
    /// timeline is then the *pipelined* [`ClusterModel::simulate_plan`]
    /// schedule, stamped with the same `(plan, run, stage, partition)` args
    /// the real `PlanRunner` puts on its spans — so `ssj-prof` analyses it
    /// identically. `sim_secs` stays the sequential chain makespan either
    /// way (the cross-algorithm comparable quantity).
    fn from_chain_with_deps(
        algorithm: &'static str,
        pairs: usize,
        real_secs: f64,
        chain: ChainMetrics,
        cluster: &ClusterModel,
        deps: Option<(&str, &[Vec<usize>])>,
    ) -> Self {
        let sim_secs = chain_secs(cluster, &chain);
        // When tracing is on, also render the simulated cluster occupancy
        // for this run next to the real host spans.
        match deps {
            Some((plan_name, deps)) => {
                if let Some(collector) = ssj_observe::collector() {
                    let schedules = cluster.simulate_plan(&chain, deps);
                    crate::simtrace::record_plan_schedule(
                        &collector, plan_name, cluster, &schedules, deps,
                    );
                }
            }
            None => {
                crate::simtrace::record_chain(algorithm, cluster, &chain);
            }
        }
        let first = chain.jobs.first().expect("non-empty chain");
        RunOutcome {
            algorithm,
            status: RunStatus::Ok,
            result_pairs: pairs,
            real_secs,
            sim_secs,
            shuffle_bytes: chain.total_shuffle_bytes(),
            duplication: first.byte_expansion(),
            reduce_skew: first.reduce_input_balance().skew,
            chain: Some(chain),
        }
    }
}

/// Run one algorithm on one collection, with `reduce_tasks = 3 × nodes`
/// (the paper's setting) and cluster simulation at `nodes`.
pub fn run_algorithm(
    algo: Algorithm,
    collection: &Collection,
    measure: Measure,
    theta: f64,
    nodes: usize,
) -> RunOutcome {
    run_algorithm_cfg(
        algo,
        collection,
        measure,
        theta,
        nodes,
        &FsJoinConfig::default(),
    )
}

/// Like [`run_algorithm`], but with an FS-Join configuration template
/// (kernel / pivots / filters / horizontal are taken from it; θ, measure
/// and task counts are overridden here).
pub fn run_algorithm_cfg(
    algo: Algorithm,
    collection: &Collection,
    measure: Measure,
    theta: f64,
    nodes: usize,
    fs_template: &FsJoinConfig,
) -> RunOutcome {
    let cluster = ClusterModel::paper_default(nodes);
    let reduce_tasks = 3 * nodes;
    let map_tasks = 2 * nodes;
    let base_cfg = BaselineConfig::default().with_tasks(map_tasks, reduce_tasks);
    let start = Instant::now();
    match algo {
        Algorithm::FsJoin | Algorithm::FsJoinV => {
            let mut cfg = fs_template
                .clone()
                .with_theta(theta)
                .with_measure(measure)
                .with_tasks(map_tasks, reduce_tasks);
            if algo == Algorithm::FsJoinV {
                cfg = cfg.with_horizontal(0);
            }
            let res = fsjoin::run_self_join(collection, &cfg);
            RunOutcome::from_chain_with_deps(
                algo.name(),
                res.pairs.len(),
                start.elapsed().as_secs_f64(),
                res.chain,
                &cluster,
                Some(("fsjoin", &res.deps)),
            )
        }
        Algorithm::RidPairs => {
            let res = ridpairs_ppjoin(collection, measure, theta, &base_cfg);
            RunOutcome::from_chain(
                algo.name(),
                res.pairs.len(),
                start.elapsed().as_secs_f64(),
                res.chain,
                &cluster,
            )
        }
        Algorithm::VSmart => match vsmart_join(collection, measure, theta, &base_cfg) {
            Ok(res) => RunOutcome::from_chain(
                algo.name(),
                res.pairs.len(),
                start.elapsed().as_secs_f64(),
                res.chain,
                &cluster,
            ),
            Err(e) => RunOutcome::dnf(algo.name(), e.to_string()),
        },
        Algorithm::MassJoinMerge | Algorithm::MassJoinLight => {
            let variant = if algo == Algorithm::MassJoinMerge {
                MassJoinVariant::Merge
            } else {
                MassJoinVariant::MergeLight
            };
            match massjoin(collection, measure, theta, variant, &base_cfg) {
                Ok(res) => RunOutcome::from_chain(
                    algo.name(),
                    res.pairs.len(),
                    start.elapsed().as_secs_f64(),
                    res.chain,
                    &cluster,
                ),
                Err(e) => RunOutcome::dnf(algo.name(), e.to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{corpus, Scale};
    use ssj_text::CorpusProfile;

    #[test]
    fn all_algorithms_agree_on_bench_corpus() {
        let c = corpus(CorpusProfile::WikiLike, Scale::Bench);
        let mut result_counts = Vec::new();
        for algo in Algorithm::all_five() {
            let out = run_algorithm(algo, &c, Measure::Jaccard, 0.8, 10);
            assert_eq!(out.status, RunStatus::Ok, "{algo:?}");
            assert!(out.sim_secs.is_finite());
            result_counts.push(out.result_pairs);
        }
        assert!(
            result_counts.windows(2).all(|w| w[0] == w[1]),
            "algorithms disagree: {result_counts:?}"
        );
    }

    #[test]
    fn dnf_reported_on_tiny_budget() {
        let c = corpus(CorpusProfile::WikiLike, Scale::Bench);
        // Simulate the paper's "cannot run on large data" by shrinking the
        // budget instead of growing the data.
        let out = {
            let cfg = BaselineConfig::default().with_budget(10);
            match ssj_baselines::vsmart::vsmart_join(&c, Measure::Jaccard, 0.8, &cfg) {
                Ok(_) => panic!("expected budget error"),
                Err(e) => RunOutcome::dnf(Algorithm::VSmart.name(), e.to_string()),
            }
        };
        assert!(matches!(out.status, RunStatus::Dnf(_)));
        assert!(out.real_secs.is_nan());
    }
}
