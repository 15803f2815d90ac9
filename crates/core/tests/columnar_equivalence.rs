//! End-to-end equivalence pins for the columnar token data plane.
//!
//! The arena-backed [`TokenPool`] replaced per-record / per-segment owned
//! `Vec<TokenId>` storage, but the change is required to be *observationally
//! invisible*: join results, candidate counts, filter pruning counters and
//! every per-job shuffle-volume metric must be bit-identical to the
//! owned-vector implementation. The constants below were captured by
//! running the pre-refactor code on this exact seeded corpus, and later
//! lowered by exactly one byte per shuffled segment and per map-input
//! record when segments and map inputs lost their R×S side tag; any drift in
//! partitioning, filtering, or — most subtly — logical byte accounting
//! (a span must cost what the tokens it denotes would cost on the wire)
//! shows up here as a hard failure.

use fsjoin::{run_self_join, run_self_join_pf, FsJoinConfig, JoinKernel};
use ssj_common::ByteSize;
use ssj_mapreduce::JobMetrics;
use ssj_text::{encode, CorpusProfile, TokenPool};

/// Order- and score-sensitive FNV digest of a result set.
fn digest_pairs(pairs: &[ssj_similarity::SimilarPair]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for p in pairs {
        let (a, b) = p.ids();
        let sim_bits = (p.sim * 1e9).round() as u64;
        for v in [a as u64, b as u64, sim_bits] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn corpus() -> ssj_text::Collection {
    encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(300)
            .generate(),
    )
}

fn assert_job(job: &JobMetrics, shuffle_records: usize, shuffle_bytes: usize, map_input: usize) {
    assert_eq!(
        job.shuffle_records, shuffle_records,
        "{} shuffle_records",
        job.name
    );
    assert_eq!(
        job.shuffle_bytes, shuffle_bytes,
        "{} shuffle_bytes",
        job.name
    );
    let map_in: usize = job.map_tasks.iter().map(|t| t.input_bytes).sum();
    assert_eq!(map_in, map_input, "{} map_input_bytes", job.name);
}

#[test]
fn corpus_is_the_one_the_goldens_were_captured_on() {
    let c = corpus();
    assert_eq!(c.len(), 300);
    assert_eq!(c.universe(), 5631);
    assert_eq!(c.total_tokens(), 15929);
}

/// One run's pinned counters: the record-signature step and everything
/// downstream of it. Pairs considered and the filter job's shuffle sit
/// upstream of the step and are pinned once per config.
struct Golden {
    candidates: usize,
    bitmap_checks: u64,
    bitmap_pruned: u64,
    segl_pruned: u64,
    segi_pruned: u64,
    /// fsjoin-verify: shuffle records, shuffle bytes, map input bytes.
    verify_job: (usize, usize, usize),
}

/// The owned-vector goldens were captured before the fragment join had a
/// record-signature step, so they are pinned with the step off
/// (`bitmap_prune(false)`): nothing but that step may have moved them.
/// With it on, the same pairs come out of far fewer candidates. They pin
/// the walk's wire format, so `cfg` runs the Prefix kernel; the Sweep
/// kernel must then reproduce the pairs and digest from a subset of the
/// step-on run's candidates, a smaller verify job and a smaller filter
/// shuffle.
///
/// `arrival_order` is what the arrival-order posting index counted before
/// StrL became a length window on the posting lists: every co-token pair
/// considered, then StrL's prunes among them. The window never visits
/// those pairs, so exactly that many fewer are considered now, none is
/// StrL-pruned, and nothing downstream moves.
fn assert_goldens(
    cfg: FsJoinConfig,
    (pairs, digest): (usize, u64),
    arrival_order: (u64, u64),
    filter_job: (usize, usize, usize),
    signature_off: Golden,
    signature_on: Golden,
) {
    for (prune, want) in [(false, signature_off), (true, signature_on)] {
        let res = run_self_join(&corpus(), &cfg.clone().with_bitmap_prune(prune));
        assert_eq!(res.pairs.len(), pairs, "prune={prune}");
        assert_eq!(digest_pairs(&res.pairs), digest, "prune={prune}");
        assert_eq!(res.candidates, want.candidates, "prune={prune}");

        let fs = &res.filter_stats;
        let (old_pairs_considered, old_strl_pruned) = arrival_order;
        assert_eq!(
            fs.pairs_considered,
            old_pairs_considered - old_strl_pruned,
            "prune={prune}"
        );
        assert_eq!(fs.strl_pruned, 0, "prune={prune}");
        assert!(fs.window_skipped > 0, "prune={prune}");
        assert_eq!(fs.bitmap_checks, want.bitmap_checks, "prune={prune}");
        assert_eq!(fs.bitmap_pruned, want.bitmap_pruned, "prune={prune}");
        assert_eq!(fs.segl_pruned, want.segl_pruned, "prune={prune}");
        assert_eq!(fs.segi_pruned, want.segi_pruned, "prune={prune}");
        assert_eq!(fs.segd_pruned, 0, "prune={prune}");
        assert_eq!(fs.policy_dropped, 0, "prune={prune}");
        assert_eq!(fs.emitted, want.candidates as u64, "prune={prune}");
        assert_eq!(fs.unaccounted(), 0, "prune={prune}");

        let (records, bytes, map_input) = filter_job;
        assert_job(
            res.chain.job("fsjoin-filter").unwrap(),
            records,
            bytes,
            map_input,
        );
        let (records, bytes, map_input) = want.verify_job;
        assert_job(
            res.chain.job("fsjoin-verify").unwrap(),
            records,
            bytes,
            map_input,
        );
        if prune {
            let sweep = run_self_join(&corpus(), &cfg.clone().with_kernel(JoinKernel::Sweep));
            assert_eq!(
                (sweep.pairs.len(), digest_pairs(&sweep.pairs)),
                (pairs, digest)
            );
            assert!(sweep.candidates <= want.candidates);
            let (records, bytes, _) = want.verify_job;
            let verify = sweep.chain.job("fsjoin-verify").unwrap();
            assert!(verify.shuffle_records <= records);
            assert!(verify.shuffle_bytes <= bytes);
            let walk = res.chain.job("fsjoin-filter").unwrap();
            let swept = sweep.chain.job("fsjoin-filter").unwrap();
            assert!(swept.shuffle_bytes < walk.shuffle_bytes);
        }
    }
}

#[test]
fn default_config_matches_owned_vec_goldens() {
    assert_goldens(
        FsJoinConfig::default()
            .with_kernel(JoinKernel::Prefix)
            .with_theta(0.8),
        (13, 0x947e907426c9f3c7),
        (53720, 21944),
        (7324, 297404, 67316),
        Golden {
            candidates: 20814,
            bitmap_checks: 0,
            bitmap_pruned: 0,
            segl_pruned: 5005,
            segi_pruned: 5957,
            verify_job: (20808, 416160, 416280),
        },
        Golden {
            candidates: 179,
            bitmap_checks: 31776,
            bitmap_pruned: 31596,
            segl_pruned: 0,
            segi_pruned: 1,
            verify_job: (177, 3540, 3580),
        },
    );
}

#[test]
fn fragmented_horizontal_config_matches_owned_vec_goldens() {
    assert_goldens(
        FsJoinConfig::default()
            .with_kernel(JoinKernel::Prefix)
            .with_theta(0.7)
            .with_fragments(8)
            .with_horizontal(3),
        (20, 0xec25473913792d83),
        (50464, 19098),
        (4359, 240080, 67316),
        Golden {
            candidates: 18137,
            bitmap_checks: 0,
            bitmap_pruned: 0,
            segl_pruned: 2720,
            segi_pruned: 10509,
            verify_job: (18137, 362740, 362740),
        },
        Golden {
            candidates: 122,
            bitmap_checks: 31366,
            bitmap_pruned: 31244,
            segl_pruned: 0,
            segi_pruned: 0,
            verify_job: (122, 2440, 2440),
        },
    );
}

/// PF discovers by global prefix and verifies whole records: the bitmap
/// prune settles verdicts there, never candidates, so its goldens hold
/// with the prune on and off. Its one job, discovery, verifies in place.
#[test]
fn pf_variant_matches_owned_vec_goldens() {
    for prune in [false, true] {
        let cfg = FsJoinConfig::default()
            .with_kernel(JoinKernel::Prefix)
            .with_theta(0.8)
            .with_bitmap_prune(prune);
        let res = run_self_join_pf(&corpus(), &cfg);
        assert_eq!(res.pairs.len(), 13);
        assert_eq!(digest_pairs(&res.pairs), 0x947e907426c9f3c7);
        assert_eq!(res.candidates, 45);
        assert_job(
            res.chain.job("fsjoin-pf-discover").unwrap(),
            7324,
            297404,
            67316,
        );
        assert_eq!(res.chain.jobs.len(), 1);
    }
}

/// The byte-accounting invariant in isolation: a spanned segment's logical
/// [`ByteSize`] must equal the pre-columnar owned-vector layout less its
/// R×S side tag — metadata (rid 4 + len/head/tail 12) plus a
/// length-prefixed token vector (4 + 4n) — for every segment the vertical
/// partitioner produces.
#[test]
fn spanned_segment_byte_size_equals_owned_segment_size() {
    let c = corpus();
    let pool: &TokenPool = c.pool();
    let pivots = [40u32, 400, 2000];
    let mut checked = 0usize;
    for v in c.iter() {
        let segs = fsjoin::vertical::split_record(v.id, 0, v.tokens, c.span(v.id), &pivots);
        for (_, seg) in segs {
            let owned_layout = 16 + 4 + 4 * seg.tokens(pool).len();
            assert_eq!(seg.byte_size(), owned_layout);
            checked += 1;
        }
    }
    assert!(checked > 300, "expected multiple segments per record");
}
