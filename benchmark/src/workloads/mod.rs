//! The workload table: five workloads, their frozen sizes and why each
//! exists. Sizes, `P` and `K` are constants — never adapted at run time —
//! so two commits under comparison always do the same work.

mod batch;
mod serve;
mod simprobe;

use crate::protocol::{Sizes, Workload};
use batch::{Batch, Join};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::Serve;
use ssj_text::{Collection, CorpusProfile};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "fsjoin_wiki",
    "pf_email",
    "rsjoin_wiki",
    "serve_read",
    "serve_mixed",
];

/// Build a workload by name with its frozen sizes.
pub fn build(name: &str) -> Option<(Box<dyn Workload>, Sizes)> {
    Some(match name {
        // The paper's algorithm proper: fragment joins under the segment
        // filters, then shuffling and summing the candidate partial counts.
        "fsjoin_wiki" => (
            Box::new(Batch::new(Join::Fragments, CorpusProfile::WikiLike, 7_000)),
            Sizes { p: 101, k: 9 },
        ),
        // Long records, few candidates: almost all work is whole-record
        // verification in `similarity`; the engine does little.
        "pf_email" => (
            Box::new(Batch::new(
                Join::PrefixFilter,
                CorpusProfile::EmailLike,
                9_000,
            )),
            Sizes { p: 25, k: 9 },
        ),
        // Many short records through the co-group plan: per-record engine
        // overhead, `encode_two` and memory dominate.
        "rsjoin_wiki" => (
            Box::new(Batch::new(
                Join::RsTwoInput,
                CorpusProfile::WikiLike,
                400_000,
            )),
            Sizes { p: 3, k: 11 },
        ),
        // Read path only, index past L2, two closed-loop clients.
        "serve_read" => (
            Box::new(Serve::read(150_000, 200_000)),
            Sizes { p: 4, k: 9 },
        ),
        // Inserts, compactions and probes of a delta-heavy index, one client.
        "serve_mixed" => (Box::new(Serve::mixed(100_000)), Sizes { p: 6, k: 9 }),
        _ => return None,
    })
}

/// The harness's own seeded choices — query order, sampled records — each
/// from a stream of `seed` distinct from every other `stream` number. The
/// inputs themselves come from `ssj_text::GeneratorConfig::with_seed`.
fn harness_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `text.*` input facts of the collections a workload prepared.
fn text_facts(collections: &[&Collection], m: &mut crate::report::Metrics) {
    let records: usize = collections.iter().map(|c| c.len()).sum();
    let tokens: u64 = collections.iter().map(|c| c.total_tokens()).sum();
    // Token plane + CSR offsets + bitmap plane, from the pool's public
    // accessors.
    let bytes: usize = collections
        .iter()
        .map(|c| {
            let pool = c.pool();
            pool.total_tokens() * 4 + (pool.len() + 1) * 4 + pool.len() * pool.bitmap_bits() / 8
        })
        .sum();
    m.set("text.records", records as f64);
    m.set("text.tokens", tokens as f64);
    m.set("text.pool_mb", bytes as f64 / 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds() {
        for name in NAMES {
            assert!(build(name).is_some(), "{name}");
        }
        assert!(build("nope").is_none());
    }
}
