//! Serving-plane configuration.

use ssj_mapreduce::PlanMode;
use ssj_similarity::Measure;

/// Configuration of a [`ServeIndex`](crate::ServeIndex) and its build plan.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Similarity measure the index answers queries under.
    pub measure: Measure,
    /// Smallest probe threshold the index supports. Index prefixes are
    /// sized for `theta_min`; probes may use any `θ ≥ theta_min` (a higher
    /// θ only shortens the probe prefix — the longer index prefix stays
    /// sound). Lower `theta_min` means longer prefixes: more index, more
    /// candidates, more thresholds servable.
    pub theta_min: f64,
    /// Reduce tasks of the build plan = sealed posting partitions of the
    /// main index (token-range partitioned, so concatenating partitions in
    /// order yields ascending tokens).
    pub build_partitions: usize,
    /// Map tasks of the build plan.
    pub map_tasks: usize,
    /// Worker threads for the build plan (query-path concurrency is the
    /// caller's: probes take `&self`).
    pub workers: usize,
    /// Plan sequencing mode for the build.
    pub plan_mode: PlanMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            measure: Measure::Jaccard,
            theta_min: 0.7,
            build_partitions: 8,
            map_tasks: 8,
            workers: 4,
            plan_mode: PlanMode::Pipelined,
        }
    }
}

impl ServeConfig {
    /// Set the measure.
    pub fn with_measure(mut self, m: Measure) -> Self {
        self.measure = m;
        self
    }

    /// Set the minimum supported probe threshold.
    pub fn with_theta_min(mut self, theta: f64) -> Self {
        self.theta_min = theta;
        self
    }

    /// Set the build plan's reduce-task / sealed-partition count.
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.build_partitions = n;
        self
    }

    /// Set the build plan's map-task count.
    pub fn with_map_tasks(mut self, n: usize) -> Self {
        self.map_tasks = n;
        self
    }

    /// Set the build plan's worker-thread count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Set the build plan's sequencing mode.
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            self.theta_min > 0.0 && self.theta_min <= 1.0,
            "theta_min must be in (0, 1]"
        );
        assert!(self.build_partitions > 0, "need at least one partition");
        assert!(self.map_tasks > 0, "need at least one map task");
    }
}
