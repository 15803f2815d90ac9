//! Chaos smoke: run FS-Join fault-free, then under a globally installed
//! seeded fault plan, and print a deterministic report.
//!
//! ```text
//! cargo run --release -p ssj-bench --bin chaos -- [seed] [rate]
//! ```
//!
//! The pipeline itself is *unmodified* — the fault plan is installed
//! process-globally ([`ssj_faults::install_plan`]) and picked up by the
//! plan runner for every stage, exactly how the CI determinism gate drives
//! it. Output lines are stable for a given (seed, rate): the CI smoke runs
//! this binary twice and asserts the outputs are byte-identical.

use ssj_bench::datasets::{bench_corpus, tuned_fsjoin};
use ssj_faults::FaultPlan;
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::CorpusProfile;

/// FNV-1a over the canonically sorted pair list (ids + exact score bits).
fn digest(pairs: &[SimilarPair]) -> u64 {
    let mut sorted: Vec<(u32, u32, u64)> =
        pairs.iter().map(|p| (p.a, p.b, p.sim.to_bits())).collect();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (a, b, s) in sorted {
        mix(a as u64);
        mix(b as u64);
        mix(s);
    }
    h
}

fn join() -> (Vec<SimilarPair>, ssj_mapreduce::ExecSummary) {
    let corpus = bench_corpus();
    let cfg = tuned_fsjoin(CorpusProfile::WikiLike)
        .with_theta(0.8)
        .with_measure(Measure::Jaccard)
        .with_tasks(8, 12);
    let res = fsjoin::run_self_join(&corpus, &cfg);
    (res.pairs, res.chain.total_exec())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = args.first().map_or(42, |s| s.parse().expect("seed: u64"));
    let rate: f64 = args.get(1).map_or(0.05, |s| s.parse().expect("rate: f64"));

    ssj_faults::silence_injected_panics();

    let (clean_pairs, clean_exec) = join();
    println!(
        "clean: pairs={} digest={:#018x} retries={}",
        clean_pairs.len(),
        digest(&clean_pairs),
        clean_exec.retries
    );

    ssj_faults::install_plan(FaultPlan::chaos(seed, rate));
    let (chaos_pairs, exec) = join();
    ssj_faults::uninstall_plan();

    println!(
        "chaos: seed={seed} rate={rate} pairs={} digest={:#018x}",
        chaos_pairs.len(),
        digest(&chaos_pairs)
    );
    println!(
        "counters: attempts={} retries={} injected_errors={} injected_panics={} \
         injected_stragglers={}",
        exec.attempts,
        exec.retries,
        exec.injected_errors,
        exec.injected_panics,
        exec.injected_stragglers
    );
    let identical = digest(&clean_pairs) == digest(&chaos_pairs);
    println!("identical={identical}");
    if !identical {
        eprintln!("FATAL: fault injection changed the join result");
        std::process::exit(1);
    }
}
