//! V-Smart-Join, Online-Aggregation variant (Metwally & Faloutsos,
//! VLDB 2012).
//!
//! Phase "Join": every token of every record is emitted as a key — the
//! shuffle materializes a full inverted index — and each reduce group
//! enumerates *all* pairs in its posting list, emitting a partial count per
//! pair. Phase "Similarity": partial counts are aggregated per pair and the
//! threshold is applied at the very end. No filtering anywhere, which is
//! why the paper finds it cannot complete on large inputs: the pair
//! enumeration is Σ_token C(df_token, 2). We compute that sum up front and
//! refuse to run past [`BaselineConfig::intermediate_budget`], mirroring
//! "cannot run completely" without hanging the test suite.

use crate::{record_input, BaselineConfig, BudgetExceeded, JoinRunResult};
use ssj_mapreduce::{Emitter, GroupValues, IdentityMapper, Mapper, Plan, StreamingReducer};
use ssj_similarity::Measure;
use ssj_text::{Collection, Record};

/// Join-phase mapper: `(token, (rid, len))` for every token.
struct TokenMapper;

impl Mapper for TokenMapper {
    type InKey = u32;
    type InValue = Record;
    type OutKey = u32;
    type OutValue = (u32, u32);

    fn map(&mut self, _rid: u32, record: Record, out: &mut Emitter<u32, (u32, u32)>) {
        for &t in &record.tokens {
            out.emit(t, (record.id, record.len() as u32));
        }
    }
}

/// Join-phase reducer: enumerate all pairs of the posting list. Streams
/// each posting list into a scratch buffer reused across tokens (pair
/// enumeration needs random access, so the list must be materialized, but
/// its allocation is amortized over the whole task).
#[derive(Default)]
struct PairEnumReducer {
    scratch: Vec<(u32, u32)>,
}

impl StreamingReducer for PairEnumReducer {
    type InKey = u32;
    type InValue = (u32, u32);
    type OutKey = (u32, u32);
    type OutValue = (u32, u32, u32);

    fn reduce_group(
        &mut self,
        _token: &u32,
        values: &mut GroupValues<'_, '_, u32, (u32, u32)>,
        out: &mut Emitter<(u32, u32), (u32, u32, u32)>,
    ) {
        self.scratch.clear();
        self.scratch.extend(values.copied());
        let postings = &self.scratch;
        for i in 0..postings.len() {
            let (rid_a, len_a) = postings[i];
            for &(rid_b, len_b) in &postings[i + 1..] {
                let ((a, la), (b, lb)) = if rid_a < rid_b {
                    ((rid_a, len_a), (rid_b, len_b))
                } else {
                    ((rid_b, len_b), (rid_a, len_a))
                };
                out.emit((a, b), (1, la, lb));
            }
        }
    }
}

/// Similarity-phase reducer: aggregate counts, apply θ at the end.
/// Streams — the count folds partial-by-partial, nothing is buffered.
struct AggregateReducer {
    measure: Measure,
    theta: f64,
}

impl StreamingReducer for AggregateReducer {
    type InKey = (u32, u32);
    type InValue = (u32, u32, u32);
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        pair: &(u32, u32),
        partials: &mut GroupValues<'_, '_, (u32, u32), (u32, u32, u32)>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        let (mut c, mut la, mut lb) = (0usize, 0usize, 0usize);
        for &(n, a, b) in partials {
            c += n as usize;
            la = a as usize;
            lb = b as usize;
        }
        if self.measure.passes(c, la, lb, self.theta) {
            out.emit(*pair, self.measure.score(c, la, lb));
        }
    }
}

/// Exact number of pair records the join phase would emit:
/// `Σ_token C(df_token, 2)`.
pub fn estimate_pair_emissions(collection: &Collection) -> u64 {
    collection
        .token_freqs
        .iter()
        .map(|&df| df * df.saturating_sub(1) / 2)
        .sum()
}

/// Bytes the pair enumeration would materialize: each pair record is an
/// 8-byte key plus a 12-byte payload.
pub fn estimate_pair_bytes(collection: &Collection) -> u64 {
    estimate_pair_emissions(collection) * 20
}

/// Run V-Smart-Join Online-Aggregation end-to-end.
///
/// Returns [`BudgetExceeded`] when the (exactly predictable) pair
/// enumeration would exceed the configured budget.
pub fn vsmart_join(
    collection: &Collection,
    measure: Measure,
    theta: f64,
    cfg: &BaselineConfig,
) -> Result<JoinRunResult, BudgetExceeded> {
    assert!(theta > 0.0 && theta <= 1.0, "θ must be in (0,1]");
    let estimated = estimate_pair_bytes(collection);
    if estimated > cfg.intermediate_budget {
        return Err(BudgetExceeded {
            algorithm: "V-Smart-Join",
            estimated,
            budget: cfg.intermediate_budget,
        });
    }

    let input = record_input(collection, cfg.map_tasks);
    let mut plan = Plan::new("vsmart").with_workers(cfg.workers);
    let partials = plan.add(
        "vsmart-join",
        input,
        cfg.reduce_tasks,
        |_| TokenMapper,
        |_| PairEnumReducer::default(),
    );
    let aggregated = plan.add(
        "vsmart-similarity",
        partials,
        cfg.reduce_tasks,
        |_| IdentityMapper::default(),
        move |_| AggregateReducer { measure, theta },
    );
    Ok(JoinRunResult::run(plan, aggregated, cfg.plan_mode))
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
                .with_records(120)
                .generate(),
        )
    }

    #[test]
    fn matches_oracle() {
        let c = small_collection();
        for &theta in &[0.6, 0.8, 0.9] {
            let want = naive_self_join(&c.views(), Measure::Jaccard, theta);
            let got = vsmart_join(&c, Measure::Jaccard, theta, &BaselineConfig::default())
                .expect("within budget");
            compare_results(&got.pairs, &want, 1e-9).unwrap_or_else(|e| panic!("θ={theta}: {e}"));
        }
    }

    #[test]
    fn emission_estimate_is_exact() {
        let c = small_collection();
        let got = vsmart_join(&c, Measure::Jaccard, 0.8, &BaselineConfig::default()).unwrap();
        let join = got.chain.job("vsmart-join").unwrap();
        assert_eq!(
            join.reduce_tasks
                .iter()
                .map(|t| t.output_records)
                .sum::<usize>() as u64,
            estimate_pair_emissions(&c)
        );
    }

    #[test]
    fn theta_insensitive_intermediates() {
        // The paper notes V-Smart-Join's cost barely varies with θ: the
        // threshold is applied only in the last reduce.
        let c = small_collection();
        let lo = vsmart_join(&c, Measure::Jaccard, 0.6, &BaselineConfig::default()).unwrap();
        let hi = vsmart_join(&c, Measure::Jaccard, 0.95, &BaselineConfig::default()).unwrap();
        let inter = |r: &JoinRunResult| r.chain.job("vsmart-join").unwrap().shuffle_bytes;
        assert_eq!(inter(&lo), inter(&hi));
    }

    #[test]
    fn budget_aborts_before_materializing() {
        let c = small_collection();
        let tight = BaselineConfig::default().with_budget(10);
        let err = vsmart_join(&c, Measure::Jaccard, 0.8, &tight).unwrap_err();
        assert_eq!(err.algorithm, "V-Smart-Join");
        assert!(err.estimated > 10);
        assert!(err.to_string().contains("V-Smart-Join"));
    }
}
