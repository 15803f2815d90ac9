//! Every join driver's registry agrees with its result.
//!
//! A run records its counters into a per-run registry, sets the
//! `fsjoin.candidates` and `fsjoin.pairs` gauges there and merges it into
//! the process-global registry when one is installed. This test runs each
//! driver in turn against one global registry and checks, after each run,
//! that the gauges equal the result's candidate and pair counts and that
//! the global `FilterStats` counters grew by exactly the result's
//! `filter_stats`. The global registry is process-wide, so the test has a
//! binary of its own.

use fsjoin::{keys, FilterStats, FsJoinConfig, FsJoinResult};
use ssj_text::encode::encode_two;
use ssj_text::{encode, CorpusProfile};

#[test]
fn every_driver_records_its_result_in_the_global_registry() {
    let wiki = |records| {
        CorpusProfile::WikiLike
            .config()
            .with_records(records)
            .generate()
    };
    let c = encode(&wiki(300));
    // One seed on both sides: R's documents recur in S, so R×S has pairs.
    let (r, s) = encode_two(&wiki(100), &wiki(300));
    let cfg = FsJoinConfig::default().with_theta(0.8);
    let runs: [(&str, &dyn Fn() -> FsJoinResult); 3] = [
        ("run_self_join", &|| fsjoin::run_self_join(&c, &cfg)),
        ("run_self_join_pf", &|| fsjoin::run_self_join_pf(&c, &cfg)),
        ("run_rs_join_two_input", &|| {
            fsjoin::run_rs_join_two_input(&r, &s, &cfg)
        }),
    ];

    let global = ssj_observe::install_registry();
    for (name, run) in runs {
        let before = FilterStats::from_registry(&global);
        let res = run();
        assert!(!res.pairs.is_empty(), "{name}: no pairs to count");
        assert_eq!(
            global.gauge_get(keys::CANDIDATES),
            Some(res.candidates as f64),
            "{name}"
        );
        assert_eq!(
            global.gauge_get(keys::PAIRS),
            Some(res.pairs.len() as f64),
            "{name}"
        );
        let mut want = before;
        want.merge(&res.filter_stats);
        assert_eq!(FilterStats::from_registry(&global), want, "{name}");
    }
    ssj_observe::uninstall_registry();
}
