//! The repo benchmark (see `benchmark/README.md` and `/BENCHMARK.json`).
//!
//! ```text
//! ssj-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]
//! ssj-benchmark --list
//! ssj-benchmark --self-test
//! ssj-benchmark --noise RUNS [--workload W]
//! ```
//!
//! One process runs one workload through the fixed protocol of
//! `protocol.rs`, prints every metric by name with its unit, and ends with
//! the one-line JSON result object. A failed operation (output differing
//! from the oracle) makes the exit code non-zero.

mod layers;
mod procfs;
mod protocol;
mod report;
mod selfrun;
mod stats;
mod workloads;

use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage: ssj-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--out DIR]\n\
         \x20      ssj-benchmark --list | --self-test | --noise RUNS\n\
         workloads: {}",
        workloads::NAMES.join(" ")
    );
    ExitCode::from(2)
}

/// `value` as a `T` inside `range`.
fn parse_in<T: FromStr + PartialOrd>(value: &str, range: RangeInclusive<T>) -> Option<T> {
    value.parse().ok().filter(|v| range.contains(v))
}

/// Store a parsed flag value; false when it did not parse.
fn set<T>(slot: &mut T, parsed: Option<T>) -> bool {
    parsed.map(|v| *slot = v).is_some()
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = protocol::RUN_SECONDS;
    let mut layers = false;
    let mut spin = 0.0f64;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut self_test = false;
    let mut noise_runs: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--list" => {
                println!("{}", workloads::NAMES.join("\n"));
                return ExitCode::SUCCESS;
            }
            "--self-test" => {
                self_test = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => set(&mut workload, Some(Some(value.clone()))),
            "--seed" => set(&mut seed, value.parse().ok()),
            "--seconds" => set(&mut seconds, parse_in(&value, 1..=60)),
            "--trace" => set(
                &mut layers,
                match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                },
            ),
            // Self-test only: harness-side slowdown inside the timed region.
            "--spin" => set(&mut spin, parse_in(&value, 0.0..=1.0)),
            "--out" => set(&mut out_dir, Some(PathBuf::from(&value))),
            "--noise" => set(&mut noise_runs, parse_in(&value, 2..=100).map(Some)),
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    if self_test {
        return selfrun::self_test();
    }
    if let Some(runs) = noise_runs {
        return selfrun::noise_study(runs, workload.as_deref());
    }

    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(&name) = workloads::NAMES.iter().find(|n| **n == name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let (mut workload, sizes) = workloads::build(name).expect("listed workloads build");
    let opts = protocol::Options {
        name,
        seed,
        seconds,
        layers,
        spin,
        out_dir: &out_dir,
    };
    let (metrics, tally) = protocol::run(workload.as_mut(), sizes, &opts);

    // People read every metric measured; the result line holds the one
    // table `--trace` selects.
    println!(
        "workload {name}  seed {seed}  workers {}  cpus {}",
        protocol::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let end_to_end = metrics.end_to_end();
    print!("{}", report::table_text(&end_to_end));
    let rows = if layers {
        let per_layer = metrics.per_layer();
        print!("{}", report::table_text(&per_layer));
        let path = out_dir.join(format!("{name}.layers.json"));
        let all = [end_to_end, per_layer.clone()].concat();
        if let Err(e) = std::fs::write(&path, report::result_json(tally, &all) + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        per_layer
    } else {
        end_to_end
    };
    println!("{}", report::result_json(tally, &rows));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations failed the oracle",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}
