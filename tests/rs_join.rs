//! R×S (two-collection) joins end-to-end, including the shared-ordering
//! encoding path and the id-offset convention.

use fsjoin_suite::fsjoin::run_rs_join_two_input;
use fsjoin_suite::prelude::*;
use fsjoin_suite::similarity::naive::naive_rs_join;
use fsjoin_suite::similarity::pair::compare_results;
use fsjoin_suite::text::encode::encode_two;

/// Build two overlapping synthetic corpora in a shared raw-id namespace.
fn two_corpora(seed: u64) -> (RawCorpus, RawCorpus) {
    let base = CorpusProfile::WikiLike
        .config()
        .with_records(120)
        .with_seed(seed)
        .generate();
    // S: half copied (perturbed) from R, half fresh.
    let fresh = CorpusProfile::WikiLike
        .config()
        .with_records(60)
        .with_seed(seed ^ 0xFFFF)
        .generate();
    let mut s_docs = Vec::new();
    for (i, doc) in base.docs.iter().take(60).enumerate() {
        let mut copy = doc.clone();
        if i % 2 == 0 && copy.len() > 2 {
            copy.pop();
        }
        s_docs.push(copy);
    }
    s_docs.extend(fresh.docs);
    (
        base,
        RawCorpus {
            docs: s_docs,
            vocab: None,
        },
    )
}

#[test]
fn rs_join_matches_oracle_across_measures() {
    let (r_raw, s_raw) = two_corpora(99);
    let (r, s) = encode_two(&r_raw, &s_raw);
    let offset = r.len() as u32;
    let s_shifted: Vec<Record> = s
        .iter()
        .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
        .collect();
    for measure in Measure::all() {
        for theta in [0.7, 0.9] {
            let want = naive_rs_join(&r.views(), &s_shifted, measure, theta);
            let got = run_rs_join_two_input(
                &r,
                &s,
                &FsJoinConfig::default()
                    .with_theta(theta)
                    .with_measure(measure),
            );
            compare_results(&got.pairs, &want, 1e-9)
                .unwrap_or_else(|e| panic!("{measure:?} θ={theta}: {e}"));
            // Every pair must actually cross the collections.
            for p in &got.pairs {
                assert!(
                    p.a < offset && p.b >= offset,
                    "non-crossing pair {:?}",
                    p.ids()
                );
            }
        }
    }
}

#[test]
fn rs_join_finds_planted_links() {
    let (r_raw, s_raw) = two_corpora(7);
    let (r, s) = encode_two(&r_raw, &s_raw);
    let got = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
    // Half of S (60 records, odd indices exact copies) must link back.
    assert!(
        got.pairs.len() >= 30,
        "expected the planted R→S copies to link, got {}",
        got.pairs.len()
    );
}

#[test]
fn rs_join_with_text_corpora() {
    let tokenizer = Tokenizer::Words;
    let r_raw = RawCorpus::from_texts(
        &["alpha beta gamma delta epsilon", "one two three four five"],
        &tokenizer,
    );
    let s_raw = RawCorpus::from_texts(
        &[
            "alpha beta gamma delta epsilon zeta",
            "six seven eight nine ten",
            "one two three four five",
        ],
        &tokenizer,
    );
    let (r, s) = encode_two(&r_raw, &s_raw);
    let got = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
    let offset = r.len() as u32;
    let links: Vec<(u32, u32)> = got.pairs.iter().map(|p| (p.a, p.b - offset)).collect();
    assert_eq!(links, vec![(0, 0), (1, 2)]);
}
