//! End-to-end tests of the beyond-the-paper extensions: FS-Join-PF
//! (prefix discovery + cached verification) and the MinHash/LSH
//! approximate join.

use fsjoin_suite::fsjoin::{run_self_join, run_self_join_pf};
use fsjoin_suite::prelude::*;
use fsjoin_suite::similarity::minhash::{lsh_self_join, LshConfig};
use fsjoin_suite::similarity::pair::id_pairs;
use fsjoin_suite::text::encode;

fn corpus(profile: CorpusProfile, records: usize) -> Collection {
    encode(&profile.config().with_records(records).generate())
}

#[test]
fn pf_variant_matches_exact_fsjoin_on_all_profiles() {
    for (profile, records) in [
        (CorpusProfile::EmailLike, 60),
        (CorpusProfile::PubMedLike, 200),
        (CorpusProfile::WikiLike, 200),
    ] {
        let c = corpus(profile, records);
        for theta in [0.7, 0.85] {
            let cfg = FsJoinConfig::default().with_theta(theta);
            let exact = run_self_join(&c, &cfg);
            let pf = run_self_join_pf(&c, &cfg);
            assert_eq!(
                id_pairs(&exact.pairs),
                id_pairs(&pf.pairs),
                "{profile:?} θ={theta}"
            );
            for (a, b) in exact.pairs.iter().zip(&pf.pairs) {
                assert!((a.sim - b.sim).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn pf_variant_slashes_intermediate_volume_on_zipf_data() {
    let c = corpus(CorpusProfile::WikiLike, 1_000);
    let cfg = FsJoinConfig::default().with_theta(0.8);
    // Against exact counting under the paper's segment filters alone: the
    // record-signature step closes most of this gap.
    let exact = run_self_join(&c, &cfg.clone().with_bitmap_prune(false));
    let pf = run_self_join_pf(&c, &cfg);
    assert_eq!(id_pairs(&exact.pairs), id_pairs(&pf.pairs));
    assert!(
        (pf.candidates as f64) < exact.candidates as f64 / 10.0,
        "pf {} vs exact {}",
        pf.candidates,
        exact.candidates
    );
}

#[test]
fn lsh_join_is_precise_and_recalls_planted_duplicates() {
    let mut gen = CorpusProfile::WikiLike.config().with_records(600);
    gen.near_dup_fraction = 0.2;
    let c = encode(&gen.generate());
    let theta = 0.85;
    let exact = run_self_join(&c, &FsJoinConfig::default().with_theta(theta));
    let truth = id_pairs(&exact.pairs);
    let approx = id_pairs(&lsh_self_join(
        &c.views(),
        Measure::Jaccard,
        theta,
        &LshConfig::default(),
    ));
    // Perfect precision: approx ⊆ truth.
    for p in &approx {
        assert!(truth.contains(p), "false positive {p:?}");
    }
    // High recall at the default 32×4 banding for θ=0.85.
    if !truth.is_empty() {
        let recall = approx.len() as f64 / truth.len() as f64;
        assert!(recall >= 0.9, "recall {recall} over {} pairs", truth.len());
    }
}
