//! `ssj-observe`: observability primitives for the FS-Join suite.
//!
//! Three independent facilities, all std-only and dependency-free:
//!
//! * **[`trace`]** — a span/event tracer. Code under instrumentation calls
//!   [`span`], which returns an RAII guard recording a Chrome
//!   trace-event-compatible interval on drop. When no collector is
//!   installed (the default) the fast path is one relaxed atomic load and
//!   performs **zero allocations** — instrumentation can stay on
//!   permanently in hot paths.
//! * **[`metrics`]** — a [`MetricsRegistry`] of named counters, gauges and
//!   log-scale histograms with merge semantics and JSONL export. The
//!   FS-Join filter statistics and the MapReduce engine's per-job
//!   distributions flow through it.
//! * **[`log`]** — a leveled stderr logger ([`warn!`]/[`info!`]/
//!   [`debug!`]) gated by the `SSJ_LOG` environment variable
//!   (`quiet` | `warn` | `info` | `debug`, default `info`). Messages print
//!   verbatim, so converting an `eprintln!` call site to [`info!`] is
//!   byte-identical by default.
//!
//! [`chrome`] turns a collector's spans (plus any synthetic events, e.g.
//! simulated cluster schedules) into a Perfetto-loadable
//! `{"traceEvents": [...]}` JSON document; the JSON writer is hand-rolled
//! in [`json`] because the build environment is offline.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use chrome::ChromeTrace;
pub use log::Level;
pub use metrics::{LogHistogram, MetricValue, MetricsRegistry};
pub use profile::{
    decode_upstreams, encode_upstreams, spans_from_chrome_json, spans_from_events, PlanProfile,
    ProfSpan, StageSummary, TaskKind, TaskRec,
};
pub use trace::{
    collector, install_collector, span, tracing_enabled, uninstall_collector, Collector,
    FieldValue, Span, TraceEvent,
};
pub use trace::{global_registry, install_registry, uninstall_registry};
