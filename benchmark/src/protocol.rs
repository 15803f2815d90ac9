//! The run protocol, identical for every workload (README.md, "Run
//! protocol"): generate → first set-up → warm-up → `K` timed iterations
//! with the other `P − 1` set-ups spread between them → peak RSS → oracle
//! check → (layer runs only) traced iteration → layer probes → traced
//! set-up.
//!
//! Everything that is timed is repeated, and a run reports the **median**
//! of the repetitions: a single shot of a 1–2 s operation varies by
//! 15–25 % on the 2-vCPU reference box (ISSUE 12; README.md, "Why
//! repetitions and medians").

use crate::layers::TraceSummary;
use crate::procfs;
use crate::report::{Metrics, Tally};
use crate::stats::{iqr_share, median, quartiles};
use ssj_observe::span;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `run_seconds` in `BENCHMARK.json`: the length of the timed phase the
/// frozen iteration counts (`Sizes::k`) were sized for on the reference
/// box. The driver passes it as `--seconds`; another value scales `K` in
/// proportion, so a given argument always means the same amount of work on
/// both sides of a comparison.
pub const RUN_SECONDS: u64 = 15;

/// Engine worker threads, everywhere. A constant, never
/// `default_workers()`: the reference box has two vCPUs and the work done
/// must not depend on where the benchmark runs.
pub const WORKERS: usize = 2;

/// Frozen repetition counts of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Set-up repetitions, at least 1: one before the warm-up, the others
    /// between the timed iterations.
    pub p: usize,
    /// Timed iterations (phase 4) at `--seconds` = [`RUN_SECONDS`].
    pub k: usize,
}

/// Named samples a workload hands back from one repetition; the protocol
/// reports each name's median over the repetitions. Every repetition of a
/// workload reports the same names in the same order.
pub type Samples = Vec<(&'static str, f64)>;

/// The exact count behind `shuffle_mb`: batch workloads report it from
/// every join, serve workloads from every index build.
const SHUFFLE_BYTES: &str = "mapreduce.shuffle_bytes";

/// One benchmark workload. The protocol owns all timing; a workload only
/// does the work it is asked for and keeps its own state between calls.
pub trait Workload {
    /// Phase 1: build the raw inputs from `seed` (harness work, untimed).
    fn generate(&mut self, seed: u64);

    /// Phase 2: one repetition of the system's own preparation, replacing
    /// the previous repetition's result. Returns the named parts of this
    /// repetition: the sum of the times (`text.encode_s`, `serve.build_s`;
    /// names ending in `_s`) is the repetition's set-up time.
    fn setup(&mut self) -> Samples;

    /// Untimed preparation of one iteration (serve_mixed rebuilds its index).
    fn before_iteration(&mut self) {}

    /// One complete operation — one full join, or one full op stream.
    /// Nothing but the operation: bookkeeping belongs in
    /// [`Workload::after_iteration`], outside the timed region.
    fn iterate(&mut self);

    /// Digest the iteration just run: operations attempted and failed in
    /// it, and its layer samples.
    fn after_iteration(&mut self) -> (Tally, Samples);

    /// Phase 6: compare the iterations' outputs with the oracle. Returns
    /// the operations the check itself attempted and failed.
    fn check(&mut self) -> Tally;

    /// Phase 8: direct timed calls into layer functions on this workload's
    /// data, plus input facts (`text.records`, …).
    fn probes(&mut self, m: &mut Metrics);
}

pub struct Options<'a> {
    pub name: &'static str,
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 1`: also run the traced iteration and the layer probes.
    pub layers: bool,
    /// Self-test only: busy-spin this share of each timed iteration inside
    /// the timed region.
    pub spin: f64,
    pub out_dir: &'a Path,
}

/// `K` for a `--seconds` argument: proportional to the frozen count, at
/// least 3 so there is still a distribution to take a median of.
fn iterations_for(k: usize, seconds: u64) -> usize {
    let scaled = (k as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS;
    scaled.max(3) as usize
}

/// Each name's median over the repetitions, in the first one's order.
fn median_samples(repetitions: &[Samples]) -> Samples {
    let Some(first) = repetitions.first() else {
        return Samples::new();
    };
    (0..first.len())
        .map(|i| {
            let name = first[i].0;
            let values: Vec<f64> = repetitions
                .iter()
                .map(|samples| {
                    let (n, v) = samples[i];
                    assert_eq!(n, name, "repetitions report different samples");
                    v
                })
                .collect();
            (name, median(&values))
        })
        .collect()
}

/// Shuffle volume is a count: every repetition must move exactly the same
/// bytes, or the run has a failed operation.
fn shuffle_repeats(name: &str, repetitions: &[Samples]) -> bool {
    let mut bytes = repetitions
        .iter()
        .flatten()
        .filter(|(n, _)| *n == SHUFFLE_BYTES)
        .map(|&(_, v)| v);
    let first = bytes.next();
    let repeats = bytes.all(|v| Some(v) == first);
    if !repeats {
        eprintln!("FAILED: [{name}] shuffle bytes differ between repetitions");
    }
    repeats
}

/// The set-up repetitions run so far: each one's time and named parts.
#[derive(Default)]
struct Setups {
    totals: Vec<f64>,
    parts: Vec<Samples>,
}

impl Setups {
    fn run(&mut self, w: &mut dyn Workload) {
        let parts = w.setup();
        // The timed parts are the samples in seconds; counts ride along.
        let timed = parts.iter().filter(|(name, _)| name.ends_with("_s"));
        self.totals.push(timed.map(|(_, v)| v).sum());
        self.parts.push(parts);
    }
}

fn spin_for(secs: f64) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs {
        std::hint::spin_loop();
    }
}

/// Run the whole protocol on one workload.
pub fn run(w: &mut dyn Workload, sizes: Sizes, opts: &Options) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let run_id = format!("{}-{}", opts.name, opts.seed);
    let k = iterations_for(sizes.k, opts.seconds);

    // Seconds per phase, for people sizing the workload table.
    let phase = |what: &str, since: Instant| {
        eprintln!(
            "[{}] {what}: {:.2} s",
            opts.name,
            since.elapsed().as_secs_f64()
        );
    };

    // Phase 1: inputs.
    let start = Instant::now();
    w.generate(opts.seed);
    m.set("text.generate_s", start.elapsed().as_secs_f64());
    phase("generate", start);

    // Phase 2: the first of the P set-ups; the rest are spread evenly
    // between the timed iterations, so that a noisy few seconds cannot hold
    // most of them.
    let mut setups = Setups::default();
    let start = Instant::now();
    setups.run(w);
    phase("first set-up", start);

    // Phase 3: warm-up, discarded except for its oracle tally.
    let start = Instant::now();
    w.before_iteration();
    w.iterate();
    tally.add(w.after_iteration().0);
    phase("warm-up", start);

    // Phase 4: K timed iterations, tracing off.
    let phase_start = Instant::now();
    let (mut walls, mut cpus, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steals, mut peaks) = (Vec::new(), Vec::new());
    let (mut user_s, mut sys_s, mut minor_faults, mut ctx_switches) = (0.0, 0.0, 0, 0);
    for i in 0..k {
        while setups.totals.len() < 1 + (i + 1) * (sizes.p - 1) / k {
            setups.run(w);
        }
        w.before_iteration();
        let cpu0 = procfs::proc_stat();
        let host0 = procfs::host_stat();
        let start = Instant::now();
        w.iterate();
        if opts.spin > 0.0 {
            spin_for(start.elapsed().as_secs_f64() * opts.spin);
        }
        walls.push(start.elapsed().as_secs_f64());
        let cpu1 = procfs::proc_stat();
        let host1 = procfs::host_stat();
        cpus.push(cpu1.cpu_s() - cpu0.cpu_s());
        steals.push(host1.steal_s - host0.steal_s);
        peaks.push(procfs::vm_hwm_mb());
        user_s += cpu1.user_s - cpu0.user_s;
        sys_s += cpu1.sys_s - cpu0.sys_s;
        minor_faults += cpu1.minor_faults - cpu0.minor_faults;
        ctx_switches += host1.ctx_switches - host0.ctx_switches;
        let (t, s) = w.after_iteration();
        tally.add(t);
        samples.push(s);
    }
    phase("timed iterations and set-ups", phase_start);
    eprintln!("[{}] iteration wall s:  {walls:.3?}", opts.name);
    eprintln!("[{}] iteration cpu s:   {cpus:.2?}", opts.name);
    eprintln!("[{}] iteration steal s: {steals:.2?}", opts.name);
    eprintln!("[{}] peak RSS MB so far: {peaks:.0?}", opts.name);
    let [q1, q2, q3] = quartiles(&setups.totals);
    eprintln!(
        "[{}] set-up s, {} repetitions: quartiles {q1:.4} {q2:.4} {q3:.4}",
        opts.name,
        setups.totals.len()
    );
    m.set("setup_s", median(&setups.totals));
    for (name, value) in median_samples(&setups.parts) {
        m.set(name, value);
    }
    m.set("wall_s", median(&walls));
    m.set("cpu_s", median(&cpus));
    for (name, value) in median_samples(&samples) {
        m.set(name, value);
    }
    // Exactly one of set-up (serve: the index build's plan) and the
    // iterations (batch: the join's plan) shuffles.
    let shuffle_ok =
        shuffle_repeats(opts.name, &setups.parts) & shuffle_repeats(opts.name, &samples);
    tally.add(Tally {
        attempted: 0,
        failed: u64::from(!shuffle_ok),
    });
    let shuffle_bytes = m
        .get(SHUFFLE_BYTES)
        .expect("every workload runs a plan that shuffles");
    m.set("shuffle_mb", shuffle_bytes / 1e6);
    m.set("process.user_s", user_s);
    m.set("process.sys_s", sys_s);
    m.set("process.minor_faults", minor_faults as f64);
    m.set("host.steal_s", steals.iter().sum());
    m.set("host.ctx_switches", ctx_switches as f64);
    m.set("bench.iter_spread", iqr_share(&walls));
    m.set(
        "bench.wall_min_s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );

    // Phase 5: peak RSS now, before the oracle or the probes can raise it.
    m.set("peak_rss_mb", procfs::vm_hwm_mb());

    // Phase 6: the oracle. A layer run traces from here on; in an
    // end-to-end run the spans below stay inert and the run ends here.
    let collector = opts.layers.then(ssj_observe::install_collector);
    let start = Instant::now();
    {
        let _s = span("bench", "check").field("run", run_id.as_str());
        tally.add(w.check());
    }
    m.set("bench.check_s", start.elapsed().as_secs_f64());
    phase("oracle check", start);
    let Some(collector) = collector else {
        return (m, tally);
    };

    // Phase 7: one traced iteration on the warm state. Harness spans wrap
    // the calls into the layers; the program's own spans nest inside.
    w.before_iteration();
    let start = Instant::now();
    {
        let _s = span("bench", "iteration").field("run", run_id.as_str());
        w.iterate();
    }
    let traced_wall = start.elapsed().as_secs_f64();
    phase("traced iteration", start);
    tally.add(w.after_iteration().0);
    // One traced shot against the typical untraced one.
    m.set(
        "observe.trace_overhead_frac",
        traced_wall / median(&walls) - 1.0,
    );

    // Phases 8 and 9: layer probes (the similarity probe runs on the
    // oracle's pairs), then a traced set-up — last, because it replaces
    // the state the probes read.
    let start = Instant::now();
    {
        let _s = span("bench", "probes").field("run", run_id.as_str());
        w.probes(&mut m);
    }
    phase("layer probes", start);
    {
        let _s = span("bench", "setup").field("run", run_id.as_str());
        black_box(w.setup());
    }
    ssj_observe::uninstall_collector();

    let summary = TraceSummary::of(&collector.events());
    m.set("observe.trace_events", summary.events as f64);
    m.set("observe.span_coverage", summary.iteration_coverage);
    m.set("mapreduce.span_self_s", summary.self_s("mapreduce"));
    m.set("core.span_self_s", summary.self_s("core"));
    m.set("serve.span_self_s", summary.self_s("serve"));
    m.set("bench.span_self_s", summary.self_s("bench"));

    std::fs::create_dir_all(opts.out_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", opts.out_dir.display()));
    let trace_path = opts.out_dir.join(format!("{}.trace.json", opts.name));
    std::fs::write(
        &trace_path,
        ssj_observe::ChromeTrace::from_collector(&collector).to_json(),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));

    (m, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_count_scales_with_seconds() {
        assert_eq!(iterations_for(8, RUN_SECONDS), 8);
        assert_eq!(iterations_for(8, 2 * RUN_SECONDS), 16);
        assert_eq!(iterations_for(8, 1), 3);
        assert_eq!(iterations_for(11, RUN_SECONDS), 11);
    }

    #[test]
    fn samples_report_each_names_median() {
        let reps = vec![
            vec![("text.encode_s", 3.0), ("text.records", 7.0)],
            vec![("text.encode_s", 1.0), ("text.records", 7.0)],
            vec![("text.encode_s", 2.0), ("text.records", 7.0)],
        ];
        assert_eq!(
            median_samples(&reps),
            vec![("text.encode_s", 2.0), ("text.records", 7.0)]
        );
        assert!(median_samples(&[]).is_empty());
    }

    #[test]
    fn shuffle_bytes_must_repeat_exactly() {
        let rep = |bytes: f64| vec![("text.encode_s", bytes / 7.0), (SHUFFLE_BYTES, bytes)];
        assert!(shuffle_repeats("t", &[rep(10.0), rep(10.0), rep(10.0)]));
        assert!(!shuffle_repeats("t", &[rep(10.0), rep(10.0), rep(11.0)]));
        // A workload part that does not shuffle has nothing to repeat.
        assert!(shuffle_repeats("t", &[vec![("text.encode_s", 1.0)]]));
    }
}
