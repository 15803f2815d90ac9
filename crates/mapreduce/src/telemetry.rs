//! Registry telemetry emitted once per finished job/stage.
//!
//! The plan runner's `finalize_stage` funnels every stage — including the
//! single stage of a standalone job's one-stage plan — through
//! [`record_job_telemetry`]. Two namespaces:
//!
//! * `mr.*` — global accumulators across all jobs of the process-level
//!   registry (shuffle volume, attempts, queue-delay histograms).
//! * `mr.stage.<job>.*` — per-stage shuffle-skew telemetry: per-reduce-
//!   partition records/bytes/keys histograms, imbalance factors
//!   (max/mean, p99/p50, Gini) over partition bytes, map-output skew
//!   over map tasks, and a straggler count (task slower than
//!   [`STRAGGLER_FACTOR`] × its stage's median).

use ssj_common::stats::Summary;
use ssj_observe::{LogHistogram, MetricsRegistry};

use crate::metrics::JobMetrics;

/// A task counts as a straggler when its duration exceeds this multiple of
/// its stage's median task duration.
pub const STRAGGLER_FACTOR: f64 = 2.0;

/// Count tasks whose duration exceeds `STRAGGLER_FACTOR ×` the median of
/// `durations_us` (bucket-interpolated median, so the detector matches
/// what an offline reader reconstructs from the exported histogram).
pub fn straggler_count(durations_us: &[u64]) -> u64 {
    if durations_us.len() < 2 {
        return 0;
    }
    let mut h = LogHistogram::default();
    for &d in durations_us {
        h.record(d);
    }
    let cutoff = STRAGGLER_FACTOR * h.quantile(0.5);
    durations_us.iter().filter(|&&d| d as f64 > cutoff).count() as u64
}

/// p99/p50 imbalance factor of a count distribution via the same log
/// histogram the registry exports (1.0 for empty/degenerate input).
pub fn p99_over_p50(values: &[u64]) -> f64 {
    let mut h = LogHistogram::default();
    for &v in values {
        h.record(v);
    }
    let p50 = h.quantile(0.5);
    if p50 <= 0.0 {
        return 1.0;
    }
    h.quantile(0.99) / p50
}

/// Record a plan stage's shuffle fan-in (number of upstream edges; 0 =
/// external input) as `mr.stage.<job>.fan_in`, so the skew namespace
/// tells a two-input join-reduce stage apart from a plain chain stage.
pub fn record_stage_fan_in(reg: &MetricsRegistry, stage: &str, fan_in: usize) {
    reg.gauge_set(&format!("mr.stage.{stage}.fan_in"), fan_in as f64);
}

/// Emit the full per-job registry block: global `mr.*` accumulators plus
/// the `mr.stage.<job>.*` skew/straggler namespace.
pub fn record_job_telemetry(reg: &MetricsRegistry, m: &JobMetrics) {
    let exec = &m.exec;
    reg.counter_add("mr.jobs", 1);
    reg.counter_add("mr.shuffle.records", m.shuffle_records as u64);
    reg.counter_add("mr.shuffle.bytes", m.shuffle_bytes as u64);
    reg.counter_add("mr.task.attempts", exec.attempts);
    reg.counter_add("mr.task.retries", exec.retries);
    reg.counter_add("mr.faults.injected.errors", exec.injected_errors);
    reg.counter_add("mr.faults.injected.panics", exec.injected_panics);
    reg.counter_add("mr.faults.injected.stragglers", exec.injected_stragglers);
    reg.counter_add("mr.pre_combine.records", m.pre_combine_records as u64);
    for t in &m.map_tasks {
        reg.histogram_record("mr.map.output_records", t.output_records as u64);
        reg.histogram_record("mr.task.queue_us", t.queue.as_micros() as u64);
    }
    for t in &m.reduce_tasks {
        reg.histogram_record("mr.reduce.input_records", t.input_records as u64);
        reg.histogram_record("mr.reduce.input_bytes", t.input_bytes as u64);
        reg.histogram_record("mr.reduce.input_keys", t.input_keys as u64);
        reg.histogram_record("mr.task.queue_us", t.queue.as_micros() as u64);
    }

    // ---- Per-stage skew namespace ------------------------------------
    let stage = &m.name;
    // Co-group stages announce themselves: the gauge tells readers why
    // the stage has no map tasks, and the saved-bytes counter is the
    // shuffle volume an identity-rekey fan-in over the same inputs
    // would have re-transferred.
    if m.cogroup {
        reg.gauge_set(&format!("mr.stage.{stage}.cogroup"), 1.0);
        reg.counter_add(
            &format!("mr.stage.{stage}.cogroup.shuffle_bytes_saved"),
            m.cogroup_shuffle_bytes_saved() as u64,
        );
    }
    let records: Vec<u64> = m
        .reduce_tasks
        .iter()
        .map(|t| t.input_records as u64)
        .collect();
    let bytes: Vec<u64> = m
        .reduce_tasks
        .iter()
        .map(|t| t.input_bytes as u64)
        .collect();
    let keys: Vec<u64> = m.reduce_tasks.iter().map(|t| t.input_keys as u64).collect();
    for ((r, b), k) in records.iter().zip(&bytes).zip(&keys) {
        reg.histogram_record(&format!("mr.stage.{stage}.reduce.records"), *r);
        reg.histogram_record(&format!("mr.stage.{stage}.reduce.bytes"), *b);
        reg.histogram_record(&format!("mr.stage.{stage}.reduce.keys"), *k);
    }
    let byte_balance = Summary::of_counts(m.reduce_tasks.iter().map(|t| t.input_bytes));
    reg.gauge_set(
        &format!("mr.stage.{stage}.skew.max_over_mean"),
        byte_balance.skew,
    );
    reg.gauge_set(&format!("mr.stage.{stage}.skew.gini"), byte_balance.gini);
    reg.gauge_set(
        &format!("mr.stage.{stage}.skew.p99_over_p50"),
        p99_over_p50(&bytes),
    );

    // Map-output skew: how unevenly the map tasks themselves produced
    // shuffle data (distinct from how the partitioner spread it).
    let map_out = Summary::of_counts(m.map_tasks.iter().map(|t| t.output_records));
    reg.gauge_set(
        &format!("mr.stage.{stage}.map.skew.max_over_mean"),
        map_out.skew,
    );

    // Straggler annotation over all task durations of the stage.
    let durations: Vec<u64> = m
        .map_tasks
        .iter()
        .chain(&m.reduce_tasks)
        .map(|t| t.duration.as_micros() as u64)
        .collect();
    reg.counter_add(
        &format!("mr.stage.{stage}.stragglers"),
        straggler_count(&durations),
    );
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::metrics::{ExecSummary, TaskKind, TaskStat};

    fn stat(kind: TaskKind, index: usize, ms: u64, bytes: usize, keys: usize) -> TaskStat {
        TaskStat {
            kind,
            index,
            duration: Duration::from_millis(ms),
            queue: Duration::ZERO,
            input_records: bytes / 8,
            input_bytes: bytes,
            input_keys: keys,
            output_records: 1,
            output_bytes: 8,
        }
    }

    fn job(reduce_bytes: &[usize], reduce_ms: &[u64]) -> JobMetrics {
        JobMetrics {
            name: "probe".into(),
            plan_stage: None,
            cogroup: false,
            map_tasks: vec![stat(TaskKind::Map, 0, 5, 100, 0)],
            reduce_tasks: reduce_bytes
                .iter()
                .zip(reduce_ms)
                .enumerate()
                .map(|(i, (&b, &ms))| stat(TaskKind::Reduce, i, ms, b, 3))
                .collect(),
            shuffle_records: 10,
            shuffle_bytes: reduce_bytes.iter().sum(),
            pre_combine_records: 10,
            pre_combine_bytes: 100,
            elapsed: Duration::from_millis(50),
            map_elapsed: Duration::from_millis(10),
            shuffle_elapsed: Duration::from_millis(5),
            reduce_elapsed: Duration::from_millis(30),
            exec: ExecSummary::default(),
        }
    }

    #[test]
    fn fan_in_gauge_lands_in_stage_namespace() {
        let reg = MetricsRegistry::new();
        record_stage_fan_in(&reg, "join", 2);
        let jsonl = reg.to_jsonl();
        assert!(jsonl.contains("mr.stage.join.fan_in"), "{jsonl}");
    }

    #[test]
    fn stragglers_need_clear_outliers() {
        // Uniform durations: no stragglers.
        assert_eq!(straggler_count(&[100, 100, 100, 100]), 0);
        // One task 10× the median trips the detector.
        assert_eq!(straggler_count(&[100, 100, 100, 1000]), 1);
        // Degenerate inputs never divide by zero.
        assert_eq!(straggler_count(&[]), 0);
        assert_eq!(straggler_count(&[500]), 0);
    }

    #[test]
    fn imbalance_factor_tracks_skew() {
        let even = p99_over_p50(&[1000, 1000, 1000, 1000]);
        assert!(even <= 2.0, "balanced load factor {even}");
        let skewed = p99_over_p50(&[100, 100, 100, 100_000]);
        assert!(skewed > 10.0, "skewed load factor {skewed}");
        assert_eq!(p99_over_p50(&[]), 1.0);
    }

    #[test]
    fn telemetry_emits_stage_namespace() {
        let reg = MetricsRegistry::new();
        let m = job(&[800, 800, 800, 80_000], &[10, 10, 10, 200]);
        record_job_telemetry(&reg, &m);
        let jsonl = reg.to_jsonl();
        for needed in [
            "mr.stage.probe.reduce.records",
            "mr.stage.probe.reduce.bytes",
            "mr.stage.probe.reduce.keys",
            "mr.stage.probe.skew.max_over_mean",
            "mr.stage.probe.skew.p99_over_p50",
            "mr.stage.probe.skew.gini",
            "mr.stage.probe.map.skew.max_over_mean",
            "mr.stage.probe.stragglers",
            "mr.reduce.input_keys",
            "mr.shuffle.records",
        ] {
            assert!(jsonl.contains(needed), "missing {needed} in:\n{jsonl}");
        }
        // The hot partition shows up in the gauges and straggler count.
        let snap = reg.snapshot();
        let gauge = |name: &str| {
            snap.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| match v {
                    ssj_observe::MetricValue::Gauge(g) => *g,
                    _ => panic!("{name} not a gauge"),
                })
                .unwrap()
        };
        assert!(gauge("mr.stage.probe.skew.max_over_mean") > 1.5);
        assert!(gauge("mr.stage.probe.skew.gini") > 0.3);
        let stragglers = snap
            .iter()
            .find(|(n, _)| n == "mr.stage.probe.stragglers")
            .map(|(_, v)| match v {
                ssj_observe::MetricValue::Counter(c) => *c,
                _ => panic!("not a counter"),
            })
            .unwrap();
        assert_eq!(stragglers, 1);
    }

    #[test]
    fn cogroup_stage_emits_gauge_and_bytes_saved() {
        let reg = MetricsRegistry::new();
        let mut m = job(&[800, 1200], &[10, 10]);
        m.cogroup = true;
        m.map_tasks.clear();
        for t in &mut m.reduce_tasks {
            t.kind = TaskKind::CoGroup;
        }
        record_job_telemetry(&reg, &m);
        let snap = reg.snapshot();
        let find = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
        match find("mr.stage.probe.cogroup") {
            Some(ssj_observe::MetricValue::Gauge(g)) => assert_eq!(g, 1.0),
            other => panic!("cogroup gauge missing/wrong: {other:?}"),
        }
        match find("mr.stage.probe.cogroup.shuffle_bytes_saved") {
            Some(ssj_observe::MetricValue::Counter(c)) => assert_eq!(c, 2000),
            other => panic!("bytes-saved counter missing/wrong: {other:?}"),
        }
        // A plain map-reduce stage emits neither.
        let reg2 = MetricsRegistry::new();
        record_job_telemetry(&reg2, &job(&[800], &[10]));
        assert!(!reg2.to_jsonl().contains("cogroup"));
    }
}
