//! Quickstart: find near-duplicate sentences with FS-Join.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fsjoin_suite::prelude::*;

fn main() {
    let documents = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumped over the lazy dog",
        "a completely different sentence about databases",
        "set similarity joins find all pairs of similar records",
        "set similarity joins find all pairs of similar records efficiently",
        "mapreduce is a programming model for large clusters",
    ];

    // 1. Tokenize and encode: tokens become global-order ranks
    //    (ascending frequency) — FS-Join's "ordering" phase.
    let corpus = RawCorpus::from_texts(&documents, &Tokenizer::Words);
    let collection = encode(&corpus);
    println!(
        "encoded {} records over {} distinct tokens",
        collection.len(),
        collection.universe()
    );

    // 2. Run the join. The default configuration is the paper's — Even-TF
    //    pivots, all four filters, horizontal partitioning on — plus the
    //    record-signature step and the Sweep kernel, which decides each
    //    record pair once before the fragment joins.
    let config = FsJoinConfig::default()
        .with_theta(0.6)
        .with_measure(Measure::Jaccard);
    let result = fsjoin_suite::fsjoin::run_self_join(&collection, &config);

    println!("\nsimilar pairs (Jaccard ≥ 0.6):");
    for pair in &result.pairs {
        println!(
            "  #{} ↔ #{}  sim={:.3}\n    {:?}\n    {:?}",
            pair.a, pair.b, pair.sim, documents[pair.a as usize], documents[pair.b as usize]
        );
    }

    // 3. Inspect what the engine did.
    let filter_job = result.chain.job("fsjoin-filter").expect("filter job ran");
    println!("\nengine metrics:");
    println!(
        "  candidates emitted by the filter job: {}",
        result.candidates
    );
    println!(
        "  shuffled bytes (filter job):          {}",
        filter_job.shuffle_bytes
    );
    println!(
        "  vertical pivots used:                 {:?}",
        result.pivots
    );
    println!(
        "  simulated 10-node cluster time:       {:.1} ms",
        result.simulated_secs(&ClusterModel::paper_default(10)) * 1e3
    );

    assert!(!result.pairs.is_empty(), "expected near-duplicates");
}
