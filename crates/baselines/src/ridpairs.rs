//! RIDPairsPPJoin (Vernica, Carey, Li — SIGMOD 2010), the paper's main
//! competitor.
//!
//! Stage "kernel": the map side emits the *whole record* once per prefix
//! token (the duplication FS-Join eliminates — a record with prefix length
//! `p` is shuffled `p` times); the reduce side groups by token and runs an
//! in-memory PPJoin over each group. Stage "dedup": identical pairs found
//! in multiple groups are collapsed.
//!
//! Load-balancing note reproduced from the paper: reduce groups are keyed
//! by tokens, so group sizes follow the token-frequency distribution — no
//! balance guarantee (contrast with FS-Join's `Even-TF` fragments).

use crate::dedup::add_dedup_stage;
use crate::{record_input, BaselineConfig, JoinRunResult};
use ssj_mapreduce::{Emitter, GroupValues, Mapper, Plan, StreamingReducer};
use ssj_similarity::index::CellIndex;
use ssj_similarity::ppjoin::ppjoin_self_join_stats;
use ssj_similarity::Measure;
use ssj_text::{Collection, Record};

/// Kernel mapper: `(prefix token, record)` per prefix token.
struct SignatureMapper {
    measure: Measure,
    theta: f64,
}

impl Mapper for SignatureMapper {
    type InKey = u32;
    type InValue = Record;
    type OutKey = u32;
    type OutValue = Record;

    fn map(&mut self, _rid: u32, record: Record, out: &mut Emitter<u32, Record>) {
        let prefix = self.measure.probe_prefix_len(self.theta, record.len());
        for i in 0..prefix {
            let token = record.tokens[i];
            out.emit(token, record.clone());
        }
    }
}

/// Kernel reducer: PPJoin within each token group, copied into a scratch
/// buffer and indexed into a [`CellIndex`], both reused across the task's
/// groups.
struct GroupPPJoinReducer {
    measure: Measure,
    theta: f64,
    group: Vec<Record>,
    index: CellIndex,
}

impl StreamingReducer for GroupPPJoinReducer {
    type InKey = u32;
    type InValue = Record;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        _token: &u32,
        records: &mut GroupValues<'_, '_, u32, Record>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.group.clear();
        self.group.extend(records.cloned());
        if self.group.len() < 2 {
            return;
        }
        let (measure, theta) = (self.measure, self.theta);
        for pair in ppjoin_self_join_stats(&self.group, measure, theta, &mut self.index).0 {
            out.emit(pair.ids(), pair.sim);
        }
    }
}

/// Run RIDPairsPPJoin end-to-end (a two-stage kernel + dedup plan; the
/// dedup stage's maps start partition-by-partition while kernel reducers
/// are still running when [`BaselineConfig::plan_mode`] is pipelined).
pub fn ridpairs_ppjoin(
    collection: &Collection,
    measure: Measure,
    theta: f64,
    cfg: &BaselineConfig,
) -> JoinRunResult {
    assert!(theta > 0.0 && theta <= 1.0, "θ must be in (0,1]");
    let input = record_input(collection, cfg.map_tasks);
    let mut plan = Plan::new("ridpairs").with_workers(cfg.workers);
    let raw = plan.add(
        "ridpairs-kernel",
        input,
        cfg.reduce_tasks,
        move |_| SignatureMapper { measure, theta },
        move |_| GroupPPJoinReducer {
            measure,
            theta,
            group: Vec::new(),
            index: CellIndex::default(),
        },
    );
    let unique = add_dedup_stage(&mut plan, raw, cfg.reduce_tasks, "ridpairs-dedup");
    JoinRunResult::run(plan, unique, cfg.plan_mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_similarity::naive::naive_self_join;
    use ssj_similarity::pair::compare_results;
    use ssj_text::{encode, CorpusProfile, RawCorpus, Tokenizer};

    fn small_collection() -> Collection {
        encode(
            &CorpusProfile::WikiLike
                .config()
                .with_records(150)
                .generate(),
        )
    }

    #[test]
    fn matches_oracle_across_thetas_and_measures() {
        let c = small_collection();
        for m in Measure::all() {
            for &theta in &[0.6, 0.75, 0.85, 0.95] {
                let want = naive_self_join(&c.views(), m, theta);
                let got = ridpairs_ppjoin(&c, m, theta, &BaselineConfig::default());
                compare_results(&got.pairs, &want, 1e-9)
                    .unwrap_or_else(|e| panic!("{m:?} θ={theta}: {e}"));
            }
        }
    }

    #[test]
    fn duplication_factor_exceeds_one() {
        // The defining inefficiency: records are shuffled once per prefix
        // token, so map output records ≫ input records at moderate θ.
        let c = small_collection();
        let got = ridpairs_ppjoin(&c, Measure::Jaccard, 0.75, &BaselineConfig::default());
        let kernel = got.chain.job("ridpairs-kernel").unwrap();
        assert!(
            kernel.record_expansion() > 2.0,
            "expansion {}",
            kernel.record_expansion()
        );
        assert!(kernel.byte_expansion() > 2.0);
    }

    #[test]
    fn lower_theta_means_more_duplication() {
        let c = small_collection();
        let hi = ridpairs_ppjoin(&c, Measure::Jaccard, 0.9, &BaselineConfig::default());
        let lo = ridpairs_ppjoin(&c, Measure::Jaccard, 0.6, &BaselineConfig::default());
        let bytes = |r: &JoinRunResult| r.chain.job("ridpairs-kernel").unwrap().shuffle_bytes;
        assert!(bytes(&lo) > bytes(&hi));
    }

    #[test]
    fn exact_duplicates_in_text() {
        let corpus =
            RawCorpus::from_texts(&["a b c d e", "a b c d e", "f g h i j"], &Tokenizer::Words);
        let c = encode(&corpus);
        let got = ridpairs_ppjoin(&c, Measure::Jaccard, 0.99, &BaselineConfig::default());
        assert_eq!(got.pairs.len(), 1);
        assert_eq!(got.pairs[0].ids(), (0, 1));
        assert!((got.pairs[0].sim - 1.0).abs() < 1e-12);
    }
}
