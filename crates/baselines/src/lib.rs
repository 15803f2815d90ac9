//! Distributed baselines from the FS-Join paper (§II-C, §VI-A), all running
//! on the same [`ssj_mapreduce`] engine and producing the same result type
//! so end-to-end comparisons are apples-to-apples:
//!
//! * [`ridpairs`] — **RIDPairsPPJoin** (Vernica, Carey, Li — SIGMOD'10):
//!   prefix tokens as signatures, whole records shuffled per signature
//!   token, PPJoin inside each reduce group, then a dedup job;
//! * [`vsmart`] — **V-Smart-Join** (Metwally, Faloutsos — VLDB'12),
//!   Online-Aggregation variant: a full inverted index is materialized in
//!   the shuffle and every posting-list pair is enumerated — no filtering,
//!   faithful to the intermediate-result blow-up the paper reports;
//! * [`massjoin`] — **MassJoin** (Deng et al. — ICDE'14) adapted to set
//!   similarity on globally-ordered token sequences, with both the `Merge`
//!   (full records ride the shuffle) and `Merge+Light` (rids only, records
//!   re-attached from a distributed cache) verification variants.
//!
//! Every baseline is tested for exact agreement with the brute-force
//! oracle; they are real competitors, not strawmen.

#![forbid(unsafe_code)]

pub mod dedup;
pub mod massjoin;
pub mod ridpairs;
pub mod vsmart;

use ssj_mapreduce::{ChainMetrics, PlanMode};
use ssj_similarity::SimilarPair;

/// Result of a baseline run: exact pairs plus full engine metrics.
#[derive(Debug, Clone)]
pub struct JoinRunResult {
    /// Similar pairs with exact scores, sorted by id pair.
    pub pairs: Vec<SimilarPair>,
    /// Metrics of every MapReduce job in the pipeline, in order.
    pub chain: ChainMetrics,
    /// High-water mark of live intermediate bytes held between the
    /// pipeline's stages (`PlanOutcome::peak_live_bytes`).
    pub peak_live_bytes: usize,
}

impl JoinRunResult {
    /// Total simulated time on a modelled cluster.
    pub fn simulated_secs(&self, cluster: &ssj_mapreduce::ClusterModel) -> f64 {
        cluster
            .simulate_chain_schedule(&self.chain)
            .last()
            .map_or(0.0, |s| s.end_secs)
    }
}

/// Common tuning knobs shared by the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Map tasks per job.
    pub map_tasks: usize,
    /// Reduce tasks per job.
    pub reduce_tasks: usize,
    /// Host worker threads.
    pub workers: usize,
    /// Safety budget on intermediate *bytes* for explosion-prone
    /// algorithms (V-Smart-Join pair enumeration, MassJoin signatures) —
    /// the stand-in for a cluster's aggregate shuffle capacity. Exceeding
    /// it aborts the run with [`BudgetExceeded`], the analogue of the
    /// paper's "cannot run completely on the large datasets".
    pub intermediate_budget: u64,
    /// How the execution plan sequences each baseline's jobs (default
    /// [`PlanMode::Pipelined`]). Affects wall-clock and peak intermediate
    /// memory only — results and logical metrics are mode-invariant.
    pub plan_mode: PlanMode,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            map_tasks: 8,
            reduce_tasks: 12,
            workers: ssj_mapreduce::executor::default_workers(),
            intermediate_budget: 1_200_000_000,
            plan_mode: PlanMode::default(),
        }
    }
}

impl BaselineConfig {
    /// Override the intermediate-record budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.intermediate_budget = budget;
        self
    }

    /// Override task counts.
    pub fn with_tasks(mut self, map: usize, reduce: usize) -> Self {
        self.map_tasks = map;
        self.reduce_tasks = reduce;
        self
    }

    /// Override worker threads.
    pub fn with_workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Set the plan sequencing mode (pipelined vs stage-barriered).
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }
}

/// An explosion-prone baseline exceeded its intermediate-byte budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Which algorithm hit the budget.
    pub algorithm: &'static str,
    /// Estimated intermediate bytes required.
    pub estimated: u64,
    /// The configured budget in bytes.
    pub budget: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} would materialize ~{} intermediate bytes (budget {})",
            self.algorithm, self.estimated, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}
