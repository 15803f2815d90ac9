//! What the traced iteration says about the layers: self time per layer
//! and how much of the iteration the program's own spans cover.
//!
//! Spans come from two places: the harness (`bench` / `bench.layer`
//! categories, opened in this crate around calls into a layer) and the
//! program (`mr.*`, `fsjoin.stage`, `serve.stage`, emitted by the crates
//! whenever a collector is installed). No span is added inside the crates.

use ssj_observe::TraceEvent;
use std::collections::BTreeMap;

/// The layer (crate) a span category belongs to.
fn layer_of(cat: &str) -> &'static str {
    if cat.starts_with("mr.") {
        "mapreduce"
    } else if cat == "fsjoin.stage" {
        "core"
    } else if cat == "serve.stage" {
        "serve"
    } else {
        "bench"
    }
}

#[derive(Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Spans recorded over the whole traced part of the run.
    pub events: usize,
    /// Share of the traced iteration's wall covered by the union of the
    /// program's spans (any thread).
    pub iteration_coverage: f64,
    /// Self time per layer inside the traced iteration, seconds: a span's
    /// duration minus what its child spans on the same thread cover,
    /// summed over spans and threads.
    self_us: BTreeMap<&'static str, u64>,
}

impl TraceSummary {
    pub fn self_s(&self, layer: &str) -> f64 {
        self.self_us.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn of(events: &[TraceEvent]) -> TraceSummary {
        let mut summary = TraceSummary {
            events: events.len(),
            ..TraceSummary::default()
        };
        let Some(iteration) = events
            .iter()
            .find(|e| e.cat == "bench" && e.name == "iteration")
        else {
            return summary;
        };
        let (lo, hi) = (iteration.ts_us, iteration.ts_us + iteration.dur_us);
        let inside: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.ts_us >= lo && e.ts_us + e.dur_us <= hi)
            .collect();

        // Coverage: union of program spans on the wall-clock axis.
        let mut program: Vec<(u64, u64)> = inside
            .iter()
            .filter(|e| layer_of(e.cat) != "bench")
            .map(|e| (e.ts_us, e.ts_us + e.dur_us))
            .collect();
        program.sort_unstable();
        let (mut covered, mut reach) = (0u64, lo);
        for (start, end) in program {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        if hi > lo {
            summary.iteration_coverage = covered as f64 / (hi - lo) as f64;
        }

        // Self time: spans on one thread nest (RAII guards), so within a
        // lane a stack recovers each span's direct children.
        let mut lanes: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
        for e in inside {
            lanes.entry(e.tid).or_default().push(e);
        }
        for lane in lanes.values_mut() {
            lane.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
            // (end, layer, duration, time covered by direct children)
            let mut stack: Vec<(u64, &'static str, u64, u64)> = Vec::new();
            let close = |top: (u64, &'static str, u64, u64),
                         self_us: &mut BTreeMap<&'static str, u64>| {
                *self_us.entry(top.1).or_default() += top.2.saturating_sub(top.3);
            };
            for e in lane.iter() {
                while stack.last().is_some_and(|top| top.0 <= e.ts_us) {
                    close(stack.pop().expect("checked"), &mut summary.self_us);
                }
                if let Some(parent) = stack.last_mut() {
                    parent.3 += (e.ts_us + e.dur_us).min(parent.0) - e.ts_us;
                }
                stack.push((e.ts_us + e.dur_us, layer_of(e.cat), e.dur_us, 0));
            }
            while let Some(top) = stack.pop() {
                close(top, &mut summary.self_us);
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &'static str, name: &str, tid: u32, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat,
            pid: 1,
            tid,
            ts_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_lane() {
        let events = vec![
            ev("bench", "setup", 1, 0, 50), // outside the iteration
            ev("bench", "iteration", 1, 100, 1000),
            ev("fsjoin.stage", "run", 1, 150, 900),
            ev("mr.plan", "fsjoin", 1, 200, 800),
            ev("mr.job", "filter", 1, 200, 300),
            ev("mr.job", "verify", 1, 500, 400),
            // A worker lane: two tasks, no parent on that lane.
            ev("mr.task", "map", 2, 210, 100),
            ev("mr.task", "reduce", 2, 320, 150),
        ];
        let s = TraceSummary::of(&events);
        assert_eq!(s.events, 8);
        // bench: 1000 - 900; core: 900 - 800;
        // mapreduce: plan 800 - 700, jobs 300 + 400, tasks 100 + 150.
        assert_eq!(s.self_s("bench"), 100e-6);
        assert_eq!(s.self_s("core"), 100e-6);
        assert_eq!(s.self_s("mapreduce"), 1050e-6);
        assert_eq!(s.self_s("serve"), 0.0);
        // Program spans cover [150, 1050) of [100, 1100).
        assert_eq!(s.iteration_coverage, 0.9);
    }

    #[test]
    fn coverage_is_a_union_not_a_sum() {
        let events = vec![
            ev("bench", "iteration", 1, 0, 100),
            ev("mr.task", "map", 2, 10, 40),
            ev("mr.task", "map", 3, 30, 40),
            ev("serve.stage", "compact", 1, 80, 10),
        ];
        let s = TraceSummary::of(&events);
        assert_eq!(s.iteration_coverage, 0.7);
        assert_eq!(s.self_s("serve"), 10e-6);
    }

    #[test]
    fn no_iteration_span_means_nothing_to_attribute() {
        let s = TraceSummary::of(&[ev("mr.task", "map", 1, 0, 10)]);
        assert_eq!(s.events, 1);
        assert_eq!(s.iteration_coverage, 0.0);
        assert_eq!(s.self_s("mapreduce"), 0.0);
    }
}
