//! Record linkage across two collections (R×S join) — the data-integration
//! workload from the paper's introduction.
//!
//! Two "product catalogs" describe overlapping items with slightly
//! different wording; the R×S join links records describing the same item.
//! Demonstrates [`encode_two`] (shared global ordering) and
//! [`run_rs_join_two_input`]'s id-offset convention.
//!
//! ```text
//! cargo run --release --example record_linkage
//! ```

use fsjoin_suite::fsjoin::run_rs_join_two_input;
use fsjoin_suite::prelude::*;
use fsjoin_suite::text::encode::encode_two;

fn main() {
    let catalog_a = [
        "apple iphone 15 pro max 256gb natural titanium smartphone",
        "samsung galaxy s24 ultra 512gb titanium gray smartphone",
        "sony wh-1000xm5 wireless noise canceling headphones black",
        "dell xps 13 laptop intel core i7 16gb ram 512gb ssd",
        "bose quietcomfort ultra wireless earbuds white",
    ];
    let catalog_b = [
        "apple iphone 15 pro max smartphone 256gb titanium natural", // = A0
        "sony wh 1000xm5 noise canceling wireless headphones",       // = A2
        "lenovo thinkpad x1 carbon laptop 14 inch",
        "samsung galaxy s24 ultra smartphone 512gb gray titanium", // = A1
    ];

    // Both sides must share one global ordering: encode them together.
    let tokenizer = Tokenizer::Words;
    let r_corpus = RawCorpus::from_texts(&catalog_a, &tokenizer);
    let s_corpus = RawCorpus::from_texts(&catalog_b, &tokenizer);
    let (r, s) = encode_two(&r_corpus, &s_corpus);

    let theta = 0.7;
    let result = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(theta));

    // S-side ids come back offset by |R|.
    let offset = r.len() as u32;
    println!("links at Jaccard ≥ {theta}:");
    let mut links = Vec::new();
    for p in &result.pairs {
        let (a_id, b_id) = (p.a, p.b - offset);
        println!(
            "  A{a_id} ↔ B{b_id}  sim={:.3}\n    {:?}\n    {:?}",
            p.sim, catalog_a[a_id as usize], catalog_b[b_id as usize]
        );
        links.push((a_id, b_id));
    }
    links.sort_unstable();
    assert_eq!(
        links,
        vec![(0, 0), (1, 3), (2, 1)],
        "expected exactly the three true links"
    );

    // Threshold sweep: precision/recall trade-off for linkage.
    println!("\nthreshold sweep:");
    for theta in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(theta));
        println!("  θ = {theta}: {} links", res.pairs.len());
    }
}
