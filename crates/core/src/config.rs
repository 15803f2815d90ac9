//! FS-Join configuration.

pub use crate::filters::{EmitPolicy, FilterSet};
pub use crate::fragment::JoinKernel;
use crate::pivots::PivotStrategy;
use ssj_mapreduce::PlanMode;
use ssj_similarity::Measure;

/// Full configuration of an FS-Join run. Build with the `with_*` methods:
///
/// ```
/// use fsjoin::{FsJoinConfig, JoinKernel, PivotStrategy};
/// use ssj_similarity::Measure;
///
/// let cfg = FsJoinConfig::default()
///     .with_theta(0.9)
///     .with_measure(Measure::Cosine)
///     .with_fragments(20)
///     .with_pivot_strategy(PivotStrategy::EvenTf)
///     .with_kernel(JoinKernel::Prefix)
///     .with_horizontal(6);
/// assert_eq!(cfg.theta, 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FsJoinConfig {
    /// Similarity measure (default Jaccard, as in all paper experiments).
    pub measure: Measure,
    /// Similarity threshold θ ∈ (0, 1].
    pub theta: f64,
    /// Number of vertical fragments (`pivots + 1`; paper's experiments use
    /// 30; scaled default 16).
    pub num_fragments: usize,
    /// Vertical pivot selection strategy (default Even-TF, §IV).
    pub pivot_strategy: PivotStrategy,
    /// Fragment join kernel (default [`JoinKernel::Sweep`]; the paper's
    /// three are the §V-A Figure 12 switches).
    pub kernel: JoinKernel,
    /// Pruning filters (default all, §V-A).
    pub filters: FilterSet,
    /// Candidate emission policy (default [`EmitPolicy::Exact`]; the
    /// alternative reproduces the paper's Table IV magnitudes at the cost
    /// of exactness — see its docs).
    pub emit_policy: EmitPolicy,
    /// Number of horizontal length pivots `t` (0 disables horizontal
    /// partitioning — the paper's FS-Join-V variant).
    pub horizontal_pivots: usize,
    /// Map tasks for the filtering job.
    pub map_tasks: usize,
    /// Reduce tasks per job (the paper uses 3 × node count).
    pub reduce_tasks: usize,
    /// Host worker threads (affects wall-clock only, never results).
    pub workers: usize,
    /// How the execution plan sequences the run's jobs (default
    /// [`PlanMode::Pipelined`]). Affects wall-clock and peak intermediate
    /// memory only — results and logical metrics are mode-invariant.
    pub plan_mode: PlanMode,
    /// Use the pool's hashed record bitmaps as a sound upper bound on a
    /// pair's overlap (default true; DESIGN.md §12), at all three sites
    /// that can ask whether two *records* can reach θ: the fragment join
    /// of [`crate::run_self_join`] (the record-signature step after StrL,
    /// which drops a dissimilar pair in every fragment at once — in the
    /// driver's pass under [`JoinKernel::Sweep`]), FS-Join-PF's cached
    /// verification and the R×S join stage of
    /// [`crate::run_rs_join_two_input`]. Lossless: pairs and scores are identical
    /// with it off. At the two verify sites nothing else moves either; at
    /// the fragment join the candidate volume, the verify job's shuffle
    /// and the segment-filter counters shrink with it on, because pairs
    /// it drops never reach them. The prune-on/off gate in
    /// `crates/bench/tests/gates.rs` pins both.
    pub bitmap_prune: bool,
    /// Seed for the Random pivot strategy.
    pub seed: u64,
}

impl Default for FsJoinConfig {
    /// Jaccard at θ = 0.8, 16 Even-TF fragments, 4 horizontal pivots, all
    /// filters, exact emission, the record-signature step on, and the
    /// [`JoinKernel::Sweep`] kernel: one pass over the prefix index on the
    /// driver decides each record pair once, and the filter stage's map
    /// tasks ship segments only where a surviving pair meets. The paper's
    /// kernels (Loop / Index / Prefix) give the same pairs; Sweep's
    /// candidates are a subset of Prefix's, equal on every pair at or
    /// above θ.
    fn default() -> Self {
        FsJoinConfig {
            measure: Measure::Jaccard,
            theta: 0.8,
            num_fragments: 16,
            pivot_strategy: PivotStrategy::EvenTf,
            kernel: JoinKernel::Sweep,
            filters: FilterSet::ALL,
            emit_policy: EmitPolicy::Exact,
            horizontal_pivots: 4,
            map_tasks: 8,
            reduce_tasks: 12,
            workers: ssj_mapreduce::executor::default_workers(),
            plan_mode: PlanMode::default(),
            bitmap_prune: true,
            seed: 42,
        }
    }
}

impl FsJoinConfig {
    /// Set the threshold θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Set the similarity measure.
    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Set the number of vertical fragments (pivots + 1).
    pub fn with_fragments(mut self, n: usize) -> Self {
        self.num_fragments = n;
        self
    }

    /// Set the vertical pivot strategy.
    pub fn with_pivot_strategy(mut self, s: PivotStrategy) -> Self {
        self.pivot_strategy = s;
        self
    }

    /// Set the fragment join kernel.
    pub fn with_kernel(mut self, k: JoinKernel) -> Self {
        self.kernel = k;
        self
    }

    /// Set the filter set.
    pub fn with_filters(mut self, f: FilterSet) -> Self {
        self.filters = f;
        self
    }

    /// Set the candidate emission policy.
    pub fn with_emit_policy(mut self, p: EmitPolicy) -> Self {
        self.emit_policy = p;
        self
    }

    /// Set the number of horizontal pivots (0 = FS-Join-V).
    pub fn with_horizontal(mut self, t: usize) -> Self {
        self.horizontal_pivots = t;
        self
    }

    /// Set map/reduce task counts.
    pub fn with_tasks(mut self, map: usize, reduce: usize) -> Self {
        self.map_tasks = map;
        self.reduce_tasks = reduce;
        self
    }

    /// Set host worker threads.
    pub fn with_workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Set the plan sequencing mode (pipelined vs stage-barriered).
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// Enable or disable the bitmap prune (fragment join under every
    /// kernel, PF and two-input R×S). Off is only useful for equivalence
    /// gates, A/B measurements and reproducing the paper's
    /// segment-filter-only volumes — results are identical either way.
    pub fn with_bitmap_prune(mut self, on: bool) -> Self {
        self.bitmap_prune = on;
        self
    }

    /// Set the random-pivot seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics with a description of the invalid field: θ outside (0, 1],
    /// no fragment, no map or reduce task, or no worker.
    pub fn validate(&self) {
        assert!(
            self.theta > 0.0 && self.theta <= 1.0,
            "θ must be in (0,1], got {}",
            self.theta
        );
        assert!(self.num_fragments >= 1, "need at least one fragment");
        assert!(self.map_tasks >= 1 && self.reduce_tasks >= 1, "need tasks");
        assert!(self.workers >= 1, "need at least one worker");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = FsJoinConfig::default()
            .with_theta(0.75)
            .with_measure(Measure::Dice)
            .with_fragments(8)
            .with_pivot_strategy(PivotStrategy::Random)
            .with_kernel(JoinKernel::Loop)
            .with_filters(FilterSet::NONE)
            .with_horizontal(0)
            .with_tasks(2, 3)
            .with_workers(2)
            .with_seed(7);
        cfg.validate();
        assert_eq!(cfg.theta, 0.75);
        assert_eq!(cfg.measure, Measure::Dice);
        assert_eq!(cfg.num_fragments, 8);
        assert_eq!(cfg.kernel, JoinKernel::Loop);
        assert_eq!(cfg.horizontal_pivots, 0);
        assert_eq!((cfg.map_tasks, cfg.reduce_tasks), (2, 3));
    }

    #[test]
    #[should_panic(expected = "θ must be in")]
    fn invalid_theta_rejected() {
        FsJoinConfig::default().with_theta(1.5).validate();
    }

    /// Sweep's pass reads signatures only when the step is on: without
    /// them it decides by the prefix and positional bounds alone.
    #[test]
    fn sweep_without_signatures_matches_the_oracle() {
        use ssj_similarity::naive::naive_self_join;
        use ssj_similarity::pair::compare_results;
        use ssj_text::{encode, CorpusProfile};

        let c = encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(300)
                .generate(),
        );
        let want = naive_self_join(&c.views(), Measure::Jaccard, 0.8);
        assert!(!want.is_empty());
        let cfg = FsJoinConfig::default()
            .with_kernel(JoinKernel::Sweep)
            .with_bitmap_prune(false);
        let got = crate::run_self_join(&c, &cfg);
        compare_results(&got.pairs, &want, 0.0).unwrap();
        let sweep = got.sweep_stats;
        assert_eq!(sweep.bitmap_pruned, 0, "{sweep:?}");
        assert!(sweep.survivors >= want.len() as u64, "{sweep:?}");
        assert_eq!(sweep.undecided(), 0, "{sweep:?}");
    }

    #[test]
    #[should_panic(expected = "at least one fragment")]
    fn zero_fragments_rejected() {
        FsJoinConfig::default().with_fragments(0).validate();
    }
}
