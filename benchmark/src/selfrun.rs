//! Modes in which the benchmark runs itself as child processes (one
//! process per workload run, exactly as the driver starts it): the
//! sensitivity self-test and the noise study.

use crate::report::END_TO_END;
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::NAMES;
use ssj_observe::json::Value;
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics of one child run (`--trace 0`), by name.
fn run_child(workload: &str, seed: u64, extra: &[&str]) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", "0"])
        .args(extra)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: child {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Value::parse(line)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{workload} seed {seed}: run not correct"));
    }
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect()
}

fn metric(run: &[(String, f64)], name: &str) -> f64 {
    run.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("child did not report {name}"))
        .1
}

/// Harness-side slowdown the self-test injects: a busy-spin of this share
/// of every timed iteration, inside the timed region — `wall_s`'s bound
/// plus 0.05 (a unit test holds the two together).
const SPIN: &str = "0.20";
/// Alternating (plain, slowed) pairs of runs per workload.
const PAIRS: usize = 3;

/// `--self-test`: show that the gate trips on a slowdown its bounds claim
/// to catch. With every timed iteration slowed by [`SPIN`], the median
/// `wall_s` of the slowed runs must exceed the plain runs' by more than
/// `wall_s`'s bound — on the kernel-bound batch workload and on the
/// two-client serving workload.
pub fn self_test() -> ExitCode {
    let bound = END_TO_END
        .iter()
        .find(|m| m.name == "wall_s")
        .expect("wall_s is an end-to-end metric")
        .bound;
    let mut ok = true;
    for workload in ["pf_email", "serve_read"] {
        let wall = |extra: &[&str]| run_child(workload, 1, extra).map(|run| metric(&run, "wall_s"));
        let (mut plain, mut slowed) = (Vec::new(), Vec::new());
        for _ in 0..PAIRS {
            match (wall(&[]), wall(&["--spin", SPIN])) {
                (Ok(p), Ok(s)) => {
                    plain.push(p);
                    slowed.push(s);
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("self-test {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let (base, spun) = (median(&plain), median(&slowed));
        let rise = spun / base - 1.0;
        let tripped = rise > bound;
        println!(
            "self-test {workload}: median wall_s of {PAIRS} runs {base:.4} s -> {spun:.4} s with a \
             {SPIN} spin ({:+.1} %, bound {:.0} %): {}",
            rise * 100.0,
            bound * 100.0,
            if tripped {
                "gate trips"
            } else {
                "GATE DID NOT TRIP"
            }
        );
        ok &= tripped;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--noise RUNS`: two alternating sets (A1 B1 A2 B2 …) of `RUNS` runs of
/// every workload on this one build, run `i` of either set with seed `i` —
/// what the driver does twice with ten seeds. Prints, per workload and
/// end-to-end metric, both set medians, how far B's is from A's, and each
/// set's interquartile distance as a share of its median, as a Markdown
/// table (`noise.sh` commits it as `NOISE.md`).
pub fn noise_study(runs: usize, only: Option<&str>) -> ExitCode {
    let workloads: Vec<&str> = NAMES
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    // sets[set][workload][run] -> metrics
    let mut sets = [
        vec![Vec::new(); workloads.len()],
        vec![Vec::new(); workloads.len()],
    ];
    for seed in 1..=runs as u64 {
        for set in &mut sets {
            for (w, workload) in workloads.iter().enumerate() {
                match run_child(workload, seed, &[]) {
                    Ok(run) => set[w].push(run),
                    Err(e) => {
                        eprintln!("noise study: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        eprintln!("noise study: seed {seed} of {runs} done");
    }

    println!("| workload | metric | median A | median B | B vs A | IQR/median A | IQR/median B | quartiles A | bound |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        for spec in END_TO_END {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w]
                    .iter()
                    .map(|run| metric(run, spec.name))
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let (med_a, med_b) = (median(&a), median(&b));
            let diff = med_b / med_a - 1.0;
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            let [q1, q2, q3] = quartiles(&a);
            // The driver's acceptance rule; set-up time is exempt from the
            // spread rule only.
            let steady = spec.name == "setup_s" || spread_a.max(spread_b) <= spec.bound;
            ok &= steady && diff.abs() <= spec.bound;
            println!(
                "| {workload} | {} ({}) | {med_a:.4} | {med_b:.4} | {:+.2} % | {:.2} % | {:.2} % | {q1:.4} / {q2:.4} / {q3:.4} | {:.0} % |",
                spec.name,
                spec.unit,
                diff * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                spec.bound * 100.0
            );
        }
    }

    println!("\nEvery run, in seed order:\n");
    println!("| workload | metric | set | values |");
    println!("|---|---|---|---|");
    for (w, workload) in workloads.iter().enumerate() {
        for spec in END_TO_END {
            for (set, label) in sets.iter().zip(["A", "B"]) {
                let values: Vec<String> = set[w]
                    .iter()
                    .map(|run| format!("{:.4}", metric(run, spec.name)))
                    .collect();
                println!(
                    "| {workload} | {} | {label} | {} |",
                    spec.name,
                    values.join(" ")
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("noise study: a spread or a set-to-set difference exceeds its bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_is_just_beyond_the_wall_bound() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .bound;
        let spin: f64 = SPIN.parse().unwrap();
        assert!((spin - (bound + 0.05)).abs() < 1e-9);
    }
}
