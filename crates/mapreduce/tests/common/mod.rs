//! Shared by the engine's integration tests that run a standalone job.

use ssj_mapreduce::{Dataset, JobMetrics, Key, Plan, PlanRunner, StageHandle, Value};

/// Runs a one-stage plan and returns its output with its job metrics.
pub fn run_solo<K: Key, V: Value>(plan: Plan, h: StageHandle<K, V>) -> (Dataset<K, V>, JobMetrics) {
    let mut outcome = PlanRunner::pipelined().run(plan);
    let out = outcome.take_output(h);
    (out, outcome.metrics.jobs.remove(0))
}
