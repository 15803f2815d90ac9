//! The metric tables (`BENCHMARK.json` mirrors them; a unit test holds the
//! two together) and the result writer: a human-readable table of every
//! metric by name and unit, then the one-line JSON object the contract
//! asks for as the last line of standard output.

use ssj_observe::json::{escape, fmt_f64};
use std::collections::BTreeMap;

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change counts as a regression
/// (`NOISE.md` derives the bounds).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// Measured with tracing off; every workload reports every one, and none
/// can be 0. Lower is better for all five.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.15,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.15,
    },
    EndToEnd {
        name: "shuffle_mb",
        unit: "MB",
        bound: 0.10,
    },
];

/// Single-layer metrics, named `<crate>.<what>`. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("text.generate_s", "s"),
    ("text.encode_s", "s"),
    ("text.records", "count"),
    ("text.tokens", "count"),
    ("text.pool_mb", "MB"),
    ("similarity.verify_ns_per_pair", "ns"),
    ("similarity.bitmap_ns_per_pair", "ns"),
    ("similarity.bitmap_prune_share", "ratio"),
    ("similarity.ppjoin_ref_s", "s"),
    ("mapreduce.map_task_s", "s"),
    ("mapreduce.reduce_task_s", "s"),
    ("mapreduce.shuffle_s", "s"),
    ("mapreduce.queue_wait_s", "s"),
    ("mapreduce.idle_s", "s"),
    ("mapreduce.busy_share", "ratio"),
    ("mapreduce.reduce_skew", "ratio"),
    ("mapreduce.shuffle_records", "count"),
    ("mapreduce.shuffle_bytes", "bytes"),
    ("mapreduce.task_attempts", "count"),
    ("mapreduce.task_retries", "count"),
    ("mapreduce.span_self_s", "s"),
    ("core.stage.fsjoin-filter_s", "s"),
    ("core.stage.fsjoin-verify_s", "s"),
    ("core.stage.fsjoin-pf-discover_s", "s"),
    ("core.stage.fsjoin-pf-dedup_s", "s"),
    ("core.stage.fsjoin-pf-verify_s", "s"),
    ("core.stage.rsjoin-r-prefix_s", "s"),
    ("core.stage.rsjoin-s-prefix_s", "s"),
    ("core.stage.rsjoin-join_s", "s"),
    ("core.stage.rsjoin-dedup_s", "s"),
    ("core.split_s", "s"),
    ("core.pairs", "count"),
    ("core.candidates", "count"),
    ("core.candidates_per_pair", "ratio"),
    ("core.pairs_considered", "count"),
    ("core.filter_pruned_share", "ratio"),
    ("core.kernel_intersections", "count"),
    ("core.kernel_intersect_tokens", "count"),
    ("core.bitmap_checks", "count"),
    ("core.bitmap_pruned", "count"),
    ("core.peak_live_mb", "MB"),
    ("core.span_self_s", "s"),
    ("serve.build_s", "s"),
    ("serve.probe_p50_us", "us"),
    ("serve.probe_p99_us", "us"),
    ("serve.probe_p999_us", "us"),
    ("serve.probe_qps", "1/s"),
    ("serve.candidates_per_probe", "count"),
    ("serve.length_pruned", "count"),
    ("serve.prefix_pruned", "count"),
    ("serve.position_pruned", "count"),
    ("serve.bitmap_checks", "count"),
    ("serve.bitmap_pruned", "count"),
    ("serve.verified", "count"),
    ("serve.hits", "count"),
    ("serve.hit_share", "ratio"),
    ("serve.write_s", "s"),
    ("serve.insert_p50_us", "us"),
    ("serve.insert_s", "s"),
    ("serve.compact_s", "s"),
    ("serve.compact_max_ms", "ms"),
    ("serve.delta_records_max", "count"),
    ("serve.main_postings", "count"),
    ("serve.topk_p50_us", "us"),
    ("serve.span_self_s", "s"),
    ("observe.trace_overhead_frac", "ratio"),
    ("observe.trace_events", "count"),
    ("observe.span_coverage", "ratio"),
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("process.minor_faults", "count"),
    ("host.steal_s", "s"),
    ("host.ctx_switches", "count"),
    ("bench.iter_spread", "ratio"),
    ("bench.wall_min_s", "s"),
    ("bench.check_s", "s"),
    ("bench.span_self_s", "s"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record one metric.
    ///
    /// # Panics
    /// Panics on a name that is in neither table, a value recorded twice,
    /// or a non-finite value — each is a harness bug that would otherwise
    /// surface as a silently missing or `null` metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|spec| spec.name == name)
                || PER_LAYER.iter().any(|(n, _)| *n == name),
            "metric {name:?} is not in the metric tables"
        );
        assert!(value.is_finite(), "metric {name:?} is {value}");
        let old = self.values.insert(name, value);
        assert!(old.is_none(), "metric {name:?} recorded twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` rows of the end-to-end table, in table order.
    /// An unmeasured end-to-end metric is a bug.
    pub fn end_to_end(&self) -> Vec<Row> {
        END_TO_END
            .iter()
            .map(|spec| {
                let value = self
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("{:?} was not measured", spec.name));
                (spec.name, value, spec.unit)
            })
            .collect()
    }

    /// Rows of the per-layer table. An unmeasured per-layer metric is 0:
    /// the layer did not run.
    pub fn per_layer(&self) -> Vec<Row> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

/// `(name, value, unit)`.
pub type Row = (&'static str, f64, &'static str);

/// Outcome counts of a run: operations attempted and how many of them
/// disagreed with the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The contract's result object, on one line.
pub fn result_json(tally: Tally, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(name),
            fmt_f64(*value),
            escape(unit)
        ));
    }
    out.push_str("}}");
    out
}

/// Aligned `name value unit` lines for people.
pub fn table_text(rows: &[Row]) -> String {
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    rows.iter()
        .map(|(name, value, unit)| format!("{name:<width$}  {value:>16.6}  {unit}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_observe::json::Value;

    #[test]
    fn json_line_round_trips_through_the_repo_parser() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        m.set("wall_s", 2.0);
        m.set("cpu_s", 3.5);
        m.set("peak_rss_mb", 384.125);
        m.set("shuffle_mb", 245.5);
        let line = result_json(
            Tally {
                attempted: 9,
                failed: 0,
            },
            &m.end_to_end(),
        );
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(9));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = v.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn failed_operations_make_the_run_incorrect() {
        let line = result_json(
            Tally {
                attempted: 5,
                failed: 2,
            },
            &[],
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn unmeasured_layer_metrics_read_zero() {
        let rows = Metrics::default().per_layer();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().all(|r| r.1 == 0.0));
    }

    #[test]
    #[should_panic(expected = "not in the metric tables")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("no.such_metric", 1.0);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must list the same names and units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = Value::parse(&doc).unwrap();
        let listed = |key: &str| -> Vec<(String, String, Option<f64>)> {
            v.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), Some(s.bound)))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string(), None))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_u64),
            Some(crate::protocol::RUN_SECONDS)
        );
    }
}
