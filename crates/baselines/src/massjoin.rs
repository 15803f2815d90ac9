//! MassJoin (Deng, Li, Hao, Wang, Feng — ICDE 2014), adapted from edit
//! distance to set similarity over globally-ordered token sequences.
//!
//! The scheme is Pass-Join's pigeonhole argument: if `sim(s,t) ≥ θ` with
//! `|s| ≤ |t|`, the symmetric difference obeys
//! `|s Δ t| ≤ τ(|s|,|t|) = |s|+|t| − 2·minoverlap(θ,|s|,|t|)`; partitioning
//! `s` into `m = τmax(|s|)+1` even segments guarantees at least one segment
//! is untouched by the Δ edits and therefore appears *contiguously* in `t`,
//! shifted by at most τ positions. So:
//!
//! * the shorter side emits its `m` segments as signatures;
//! * the longer side emits, for every admissible partner length `l` and
//!   segment index, all position-windowed substrings of that segment's
//!   length (this enumeration is the signature explosion the paper
//!   measures — MassJoin's first job turned 1.65 GB of Wiki into 105 GB);
//! * matching signatures yield candidates, deduplicated and verified.
//!
//! Two verification variants from the paper's experiments:
//! * **Merge** — full token vectors ride the shuffle; reducers verify
//!   in-place;
//! * **Merge+Light** — signatures carry rids only; a dedup job collapses
//!   candidates and a final job re-attaches records from a read-only
//!   replica (Hadoop distributed-cache style) to verify.

use crate::dedup::{add_dedup_stage, collect_pairs};
use crate::{BaselineConfig, BudgetExceeded, JoinRunResult};
use ssj_mapreduce::{
    Dataset, Emitter, IdentityMapper, KeepFirst, Mapper, Plan, PlanRunner, Reducer,
};
use ssj_similarity::{Measure, SimilarPair, Verifier};
use ssj_text::{Collection, Record};
use std::sync::Arc;

/// Verification variant (paper §VI-A: "Merge" and "Merge+Light").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MassJoinVariant {
    /// Full records ride the shuffle with every signature.
    Merge,
    /// Signatures carry rids only; records re-attached at verification.
    MergeLight,
}

impl MassJoinVariant {
    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            MassJoinVariant::Merge => "Merge",
            MassJoinVariant::MergeLight => "Merge+Light",
        }
    }
}

/// Maximum symmetric difference of any θ-admissible partner pair where the
/// shorter side has length `l`.
fn tau_max(measure: Measure, theta: f64, l: usize) -> usize {
    let lmax = measure.max_partner_len(theta, l);
    l + lmax - 2 * measure.min_overlap(theta, l, lmax)
}

/// Symmetric-difference budget for the exact pair of lengths.
fn tau(measure: Measure, theta: f64, l: usize, lt: usize) -> usize {
    l + lt - 2 * measure.min_overlap(theta, l, lt)
}

/// Number of segments for a shorter-side record of length `l`.
///
/// # Panics
/// Panics when the pigeonhole scheme is inapplicable (`τmax ≥ l`), i.e.
/// the threshold is too low for this measure (Jaccard needs θ > 0.5).
fn m_segments(measure: Measure, theta: f64, l: usize) -> usize {
    let t = tau_max(measure, theta, l);
    assert!(
        t < l,
        "MassJoin's segment scheme needs τmax < record length; θ={theta} is \
         too low for {measure:?} at length {l} (τmax={t})"
    );
    t + 1
}

/// Even partition of `0..l` into `m` segments: `(start, len)` per segment,
/// the first `l % m` segments one longer.
fn even_partition(l: usize, m: usize) -> Vec<(usize, usize)> {
    let base = l / m;
    let rem = l % m;
    let mut out = Vec::with_capacity(m);
    let mut start = 0usize;
    for i in 0..m {
        let len = base + usize::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Signature key: (shorter-side length, segment index, segment tokens).
type SigKey = (u32, u32, Vec<u32>);
/// Signature value: (role, rid, record length, tokens-if-Merge).
type SigValue = (u8, u32, u32, Vec<u32>);

const ROLE_INDEXED: u8 = 0;
const ROLE_PROBE: u8 = 1;

/// Multi-match-aware start-position window (PassJoin's substring
/// selection, which MassJoin inherits) for segment `i0` (0-based) starting
/// at `start` with length `len` in an `l`-length partner, probed inside a
/// record of length `lt ≥ l` with difference budget `t = τ`.
///
/// The shift `start_t − start` is bounded by
/// `[max(−i0, Δ − (τ − i0)), min(i0, Δ + (τ − i0))]` with `Δ = lt − l`:
/// a larger left/right shift implies ≥ i0+1 edits before the segment (or
/// `> τ − i0` after it), and the pigeonhole recursion then guarantees a
/// *different* untouched segment matches within its own window, so
/// completeness holds globally (exercised by the oracle-agreement tests).
/// Empty windows return `None`.
fn substring_window(
    i0: usize,
    start: usize,
    len: usize,
    l: usize,
    lt: usize,
    t: usize,
) -> Option<(usize, usize)> {
    let delta = (lt - l) as i64;
    let i = i0 as i64;
    let tau = t as i64;
    let lo_shift = (-i).max(delta - (tau - i));
    let hi_shift = i.min(delta + (tau - i));
    let lo = (start as i64 + lo_shift).max(0) as usize;
    let hi = ((start as i64 + hi_shift).min((lt - len) as i64)).max(0) as usize;
    (hi >= lo && start as i64 + hi_shift >= 0).then_some((lo, hi))
}

/// Exact count and byte volume of the signature records the map phase will
/// emit (used for the budget guard; this is the quantity that exploded to
/// 105 GB in the paper's Wiki run). Byte accounting matches the engine's
/// [`ssj_common::ByteSize`] encoding exactly (verified in tests).
pub fn signature_volume(
    collection: &Collection,
    measure: Measure,
    theta: f64,
    carry_tokens: bool,
) -> (u64, u64) {
    let mut records = 0u64;
    let mut bytes = 0u64;
    // key (l, idx, tokens) = 4 + 4 + (4 + 4·seg_len);
    // value (role, rid, len, tokens) = 1 + 4 + 4 + (4 + 4·carried).
    let mut account = |seg_len: usize, rec_len: usize| {
        records += 1;
        let carried = if carry_tokens { rec_len } else { 0 };
        bytes += (12 + 4 * seg_len + 13 + 4 * carried) as u64;
    };
    for r in collection.iter() {
        let lt = r.len();
        if lt == 0 {
            continue;
        }
        let m = m_segments(measure, theta, lt);
        for (_, len) in even_partition(lt, m) {
            account(len, lt); // indexed role
        }
        let lmin = measure.min_partner_len(theta, lt).max(1);
        for l in lmin..=lt {
            let m = m_segments(measure, theta, l);
            let t = tau(measure, theta, l, lt);
            for (i0, (start, len)) in even_partition(l, m).into_iter().enumerate() {
                if len == 0 {
                    continue;
                }
                if let Some((lo, hi)) = substring_window(i0, start, len, l, lt, t) {
                    for _ in lo..=hi {
                        account(len, lt);
                    }
                }
            }
        }
    }
    (records, bytes)
}

/// Exact count of signature records the map phase will emit.
pub fn estimate_signatures(collection: &Collection, measure: Measure, theta: f64) -> u64 {
    signature_volume(collection, measure, theta, false).0
}

/// Map: emit indexed segments and probe substrings.
struct SignatureMapper {
    measure: Measure,
    theta: f64,
    carry_tokens: bool,
}

impl Mapper for SignatureMapper {
    type InKey = u32;
    type InValue = Record;
    type OutKey = SigKey;
    type OutValue = SigValue;

    fn map(&mut self, _rid: u32, record: Record, out: &mut Emitter<SigKey, SigValue>) {
        let lt = record.len();
        if lt == 0 {
            return;
        }
        let payload = |toks: &Vec<u32>| {
            if self.carry_tokens {
                toks.clone()
            } else {
                Vec::new()
            }
        };
        // Indexed role: own even segments at own length.
        let m = m_segments(self.measure, self.theta, lt);
        for (i, (start, len)) in even_partition(lt, m).into_iter().enumerate() {
            out.emit(
                (
                    lt as u32,
                    i as u32,
                    record.tokens[start..start + len].to_vec(),
                ),
                (ROLE_INDEXED, record.id, lt as u32, payload(&record.tokens)),
            );
        }
        // Probe role: windowed substrings for every admissible shorter
        // partner length.
        let lmin = self.measure.min_partner_len(self.theta, lt).max(1);
        for l in lmin..=lt {
            let m = m_segments(self.measure, self.theta, l);
            let t = tau(self.measure, self.theta, l, lt);
            for (i, (start, len)) in even_partition(l, m).into_iter().enumerate() {
                if len == 0 {
                    continue;
                }
                let Some((lo, hi)) = substring_window(i, start, len, l, lt, t) else {
                    continue;
                };
                for st in lo..=hi {
                    out.emit(
                        (l as u32, i as u32, record.tokens[st..st + len].to_vec()),
                        (ROLE_PROBE, record.id, lt as u32, payload(&record.tokens)),
                    );
                }
            }
        }
    }
}

/// Merge-variant reducer: match indexed × probe and verify in place.
struct MergeReducer {
    verifier: Verifier,
}

impl Reducer for MergeReducer {
    type InKey = SigKey;
    type InValue = SigValue;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce(&mut self, _key: &SigKey, values: Vec<SigValue>, out: &mut Emitter<(u32, u32), f64>) {
        let (indexed, probes): (Vec<&SigValue>, Vec<&SigValue>) =
            values.iter().partition(|v| v.0 == ROLE_INDEXED);
        for &&(_, rid_s, _, ref toks_s) in &indexed {
            for &&(_, rid_t, _, ref toks_t) in &probes {
                if rid_s == rid_t {
                    continue;
                }
                if let Some((_, sim)) = self.verifier.verify(toks_s, toks_t, None).similar {
                    let (a, b) = if rid_s < rid_t {
                        (rid_s, rid_t)
                    } else {
                        (rid_t, rid_s)
                    };
                    out.emit((a, b), sim);
                }
            }
        }
    }
}

/// Light-variant reducer: emit unverified candidates (rids only).
struct LightReducer;

impl Reducer for LightReducer {
    type InKey = SigKey;
    type InValue = SigValue;
    type OutKey = (u32, u32);
    type OutValue = u8;

    fn reduce(&mut self, _key: &SigKey, values: Vec<SigValue>, out: &mut Emitter<(u32, u32), u8>) {
        let (indexed, probes): (Vec<&SigValue>, Vec<&SigValue>) =
            values.iter().partition(|v| v.0 == ROLE_INDEXED);
        for &&(_, rid_s, _, _) in &indexed {
            for &&(_, rid_t, _, _) in &probes {
                if rid_s == rid_t {
                    continue;
                }
                let (a, b) = if rid_s < rid_t {
                    (rid_s, rid_t)
                } else {
                    (rid_t, rid_s)
                };
                out.emit((a, b), 0);
            }
        }
    }
}

/// Light-variant verification mapper: re-attach records from a read-only
/// replica (distributed-cache analogue) and verify exactly.
struct CachedVerifyMapper {
    records: Arc<Vec<Record>>,
    verifier: Verifier,
}

impl Mapper for CachedVerifyMapper {
    type InKey = (u32, u32);
    type InValue = u8;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn map(&mut self, (a, b): (u32, u32), _v: u8, out: &mut Emitter<(u32, u32), f64>) {
        let s = &self.records[a as usize];
        let t = &self.records[b as usize];
        if let Some((_, sim)) = self.verifier.verify(&s.tokens, &t.tokens, None).similar {
            out.emit((a, b), sim);
        }
    }
}

/// Run MassJoin end-to-end.
///
/// Requires record ids to be dense `0..n` (as produced by the encoders).
/// Returns [`BudgetExceeded`] when the (exactly predictable) signature
/// volume exceeds the configured budget.
pub fn massjoin(
    collection: &Collection,
    measure: Measure,
    theta: f64,
    variant: MassJoinVariant,
    cfg: &BaselineConfig,
) -> Result<JoinRunResult, BudgetExceeded> {
    assert!(theta > 0.0 && theta <= 1.0, "θ must be in (0,1]");
    let (_, estimated) = signature_volume(
        collection,
        measure,
        theta,
        variant == MassJoinVariant::Merge,
    );
    if estimated > cfg.intermediate_budget {
        return Err(BudgetExceeded {
            algorithm: "MassJoin",
            estimated,
            budget: cfg.intermediate_budget,
        });
    }

    let input: Dataset<u32, Record> = Dataset::from_records(
        collection
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| (v.id, v.to_record()))
            .collect(),
        cfg.map_tasks,
    );
    let (pairs, peak_live_bytes, chain) = match variant {
        MassJoinVariant::Merge => {
            let mut plan = Plan::new("massjoin").with_workers(cfg.workers);
            let raw = plan.add(
                "massjoin-signatures",
                input,
                cfg.reduce_tasks,
                move |_| SignatureMapper {
                    measure,
                    theta,
                    carry_tokens: true,
                },
                move |_| MergeReducer {
                    verifier: Verifier { measure, theta },
                },
            );
            let unique = add_dedup_stage(&mut plan, raw, cfg.reduce_tasks, "massjoin-dedup");
            let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
            let pairs = collect_pairs(outcome.take_output(unique));
            (pairs, outcome.peak_live_bytes, outcome.metrics)
        }
        MassJoinVariant::MergeLight => {
            let mut plan = Plan::new("massjoin-light").with_workers(cfg.workers);
            let candidates = plan.add(
                "massjoin-signatures",
                input,
                cfg.reduce_tasks,
                move |_| SignatureMapper {
                    measure,
                    theta,
                    carry_tokens: false,
                },
                |_| LightReducer,
            );
            let unique = plan.add(
                "massjoin-candidate-dedup",
                candidates,
                cfg.reduce_tasks,
                // Candidates carry a constant payload: identity map,
                // keep-first reduce (the group's tail is never read).
                |_| IdentityMapper::default(),
                |_| KeepFirst::default(),
            );
            let records = Arc::new(collection.to_records());
            let verified = plan.add(
                "massjoin-verify",
                unique,
                cfg.reduce_tasks,
                move |_| CachedVerifyMapper {
                    records: Arc::clone(&records),
                    verifier: Verifier { measure, theta },
                },
                |_| KeepFirst::default(),
            );
            let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
            let mut pairs: Vec<SimilarPair> = outcome
                .take_output(verified)
                .into_records()
                .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
                .collect();
            pairs.sort_unstable_by_key(|p| p.ids());
            (pairs, outcome.peak_live_bytes, outcome.metrics)
        }
    };

    Ok(JoinRunResult {
        pairs,
        chain,
        peak_live_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_similarity::naive::naive_self_join;
    use ssj_similarity::pair::compare_results;
    use ssj_text::{encode, CorpusProfile};

    fn small_collection() -> Collection {
        encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(100)
                .generate(),
        )
    }

    #[test]
    fn even_partition_covers_exactly() {
        for l in 1usize..30 {
            for m in 1..=l {
                let parts = even_partition(l, m);
                assert_eq!(parts.len(), m);
                let mut pos = 0;
                for (start, len) in parts {
                    assert_eq!(start, pos);
                    pos += len;
                }
                assert_eq!(pos, l);
            }
        }
    }

    #[test]
    fn m_segments_within_length() {
        for l in 1usize..200 {
            for &theta in &[0.6, 0.75, 0.9] {
                let m = m_segments(Measure::Jaccard, theta, l);
                assert!(m >= 1 && m <= l, "l={l} θ={theta} m={m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn theta_half_rejected_for_jaccard() {
        // θ=0.5 ⇒ τmax = l for Jaccard: the pigeonhole needs τmax < l.
        let _ = m_segments(Measure::Jaccard, 0.5, 40);
    }

    #[test]
    fn both_variants_match_oracle() {
        let c = small_collection();
        for variant in [MassJoinVariant::Merge, MassJoinVariant::MergeLight] {
            for &theta in &[0.7, 0.8, 0.9] {
                let want = naive_self_join(&c.views(), Measure::Jaccard, theta);
                let got = massjoin(
                    &c,
                    Measure::Jaccard,
                    theta,
                    variant,
                    &BaselineConfig::default(),
                )
                .expect("within budget");
                compare_results(&got.pairs, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("{variant:?} θ={theta}: {e}"));
            }
        }
    }

    #[test]
    fn signature_estimate_is_exact() {
        let c = small_collection();
        for (variant, carry) in [
            (MassJoinVariant::Merge, true),
            (MassJoinVariant::MergeLight, false),
        ] {
            let got = massjoin(
                &c,
                Measure::Jaccard,
                0.8,
                variant,
                &BaselineConfig::default(),
            )
            .unwrap();
            let sig = got.chain.job("massjoin-signatures").unwrap();
            let (records, bytes) = signature_volume(&c, Measure::Jaccard, 0.8, carry);
            assert_eq!(sig.map_output_records() as u64, records, "{variant:?}");
            assert_eq!(sig.pre_combine_bytes as u64, bytes, "{variant:?}");
        }
    }

    #[test]
    fn light_shuffles_fewer_bytes_than_merge() {
        let c = small_collection();
        let merge = massjoin(
            &c,
            Measure::Jaccard,
            0.8,
            MassJoinVariant::Merge,
            &BaselineConfig::default(),
        )
        .unwrap();
        let light = massjoin(
            &c,
            Measure::Jaccard,
            0.8,
            MassJoinVariant::MergeLight,
            &BaselineConfig::default(),
        )
        .unwrap();
        let sig_bytes =
            |r: &JoinRunResult| r.chain.job("massjoin-signatures").unwrap().shuffle_bytes;
        assert!(
            sig_bytes(&light) < sig_bytes(&merge) / 2,
            "light {} merge {}",
            sig_bytes(&light),
            sig_bytes(&merge)
        );
    }

    #[test]
    fn lower_theta_explodes_signatures() {
        let c = small_collection();
        let hi = estimate_signatures(&c, Measure::Jaccard, 0.9);
        let lo = estimate_signatures(&c, Measure::Jaccard, 0.6);
        assert!(lo > 3 * hi, "lo={lo} hi={hi}");
    }

    #[test]
    fn budget_aborts() {
        let c = small_collection();
        let tight = BaselineConfig::default().with_budget(100);
        let err = massjoin(&c, Measure::Jaccard, 0.8, MassJoinVariant::Merge, &tight).unwrap_err();
        assert_eq!(err.algorithm, "MassJoin");
    }
}
