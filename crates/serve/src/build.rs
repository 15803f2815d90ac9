//! The index-build plan: batch construction of the sealed main index.
//!
//! Building a serving index *is* a batch job, so it runs as a one-stage
//! [`Plan`] on the same engine as the joins: mappers walk their record
//! split and emit `(token, posting)` for each record's `theta_min` probe
//! prefix (tokens resolved from the shared `Arc<TokenPool>`, distributed-
//! cache style — no tokens travel through the shuffle); a streaming
//! reducer seals each token group into a columnar [`PostingBlock`]
//! ordered by `(len, rec)`. The
//! partitioner is **token-range** (monotonic in rank), so concatenating
//! the reduce partitions in task order yields ascending tokens — exactly
//! the layout [`MainIndex`](crate::index) serves from, adopted by `Arc`
//! via [`PlanOutcome::take_sealed`] without a materialize-then-reindex
//! copy.

use std::sync::Arc;

use ssj_mapreduce::{
    Dataset, DirectPartitioner, Emitter, GroupValues, IdentityCombiner, Mapper, Plan, PlanOutcome,
    PlanRunner, StageHandle, StreamingReducer,
};
use ssj_observe::span;
use ssj_similarity::Measure;
use ssj_text::{Collection, PooledRecord, TokenId, TokenPool};

use crate::config::ServeConfig;
use crate::index::ServeIndex;
use crate::posting::{Posting, PostingBlock};

/// Monotonic token-range partition function shared by the build plan and
/// compaction: rank `t` of a `universe`-token vocabulary goes to partition
/// `t·parts/universe`. Monotonic in `t`, so partition concatenation is
/// token-ascending.
pub(crate) fn token_partition(t: TokenId, universe: usize, parts: usize) -> usize {
    debug_assert!(parts > 0);
    let u = universe.max(1) as u64;
    (((t as u64).min(u - 1) * parts as u64) / u) as usize
}

/// Map task: emit the `theta_min` probe prefix of each record as
/// `(token, posting)` rows.
struct PrefixMapper {
    pool: Arc<TokenPool>,
    measure: Measure,
    theta_min: f64,
}

impl Mapper for PrefixMapper {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = TokenId;
    type OutValue = Posting;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<TokenId, Posting>) {
        let tokens = self.pool.resolve(record.span);
        let prefix = self.measure.probe_prefix_len(self.theta_min, tokens.len());
        for (pos, &t) in tokens[..prefix].iter().enumerate() {
            out.emit(
                t,
                Posting {
                    rec: record.id,
                    pos: pos as u32,
                    len: tokens.len() as u32,
                },
            );
        }
    }
}

/// Streaming reduce task: seal one token's postings into a columnar
/// block, ordered by `(len, rec)` — the order the probe's length window
/// needs. The shuffle key stays the bare token; the order is made here,
/// in buffers the task reuses across groups.
#[derive(Default)]
struct BlockReducer {
    rows: Vec<Posting>,
}

impl StreamingReducer for BlockReducer {
    type InKey = TokenId;
    type InValue = Posting;
    type OutKey = TokenId;
    type OutValue = PostingBlock;

    fn reduce_group(
        &mut self,
        key: &TokenId,
        values: &mut GroupValues<'_, '_, TokenId, Posting>,
        out: &mut Emitter<TokenId, PostingBlock>,
    ) {
        self.rows.clear();
        self.rows.extend(values.copied());
        let block = self.seal();
        debug_assert!(block.is_ordered());
        out.emit(*key, block);
    }
}

impl BlockReducer {
    /// `rows` as a `(len, rec)`-ordered block.
    fn seal(&mut self) -> PostingBlock {
        self.rows.sort_unstable_by_key(|p| (p.len, p.rec));
        let mut block = PostingBlock::with_capacity(self.rows.len());
        for &p in &self.rows {
            block.push(p);
        }
        block
    }
}

/// A prepared (not yet run) index build: the plan plus everything
/// [`ServeIndex::from_plan`] needs to adopt its output.
///
/// The two-step shape (`new` → `run`) exposes the plan and stage handle,
/// so callers embedding the build into a larger DAG — or the zero-copy
/// harness timing only the adoption step — can run the plan themselves
/// and hand the outcome to [`ServeIndex::from_plan`].
pub struct ServeIndexBuild {
    plan: Plan,
    handle: StageHandle<TokenId, PostingBlock>,
    pool: Arc<TokenPool>,
    freqs: Vec<u64>,
    cfg: ServeConfig,
}

impl ServeIndexBuild {
    /// Stage the build plan over `collection` (records keep their ids;
    /// the pool is shared, not copied).
    pub fn new(collection: &Collection, cfg: ServeConfig) -> ServeIndexBuild {
        cfg.validate();
        let pool = collection.share_pool();
        let universe = collection.token_freqs.len();
        let parts = cfg.build_partitions;

        let input: Vec<(u32, PooledRecord)> = (0..collection.len() as u32)
            .map(|rid| {
                (
                    rid,
                    PooledRecord {
                        id: rid,
                        span: pool.span_of(rid),
                    },
                )
            })
            .collect();

        let mut plan = Plan::new("serve").with_workers(cfg.workers);
        let handle = plan.add_full(
            "serve-build",
            Dataset::from_records(input, cfg.map_tasks),
            parts,
            {
                let pool = Arc::clone(&pool);
                let (measure, theta_min) = (cfg.measure, cfg.theta_min);
                move |_| PrefixMapper {
                    pool: Arc::clone(&pool),
                    measure,
                    theta_min,
                }
            },
            |_| BlockReducer::default(),
            DirectPartitioner::new(move |t: &TokenId| token_partition(*t, universe, parts)),
            None::<IdentityCombiner>,
        );

        ServeIndexBuild {
            plan,
            handle,
            pool,
            freqs: collection.token_freqs.clone(),
            cfg,
        }
    }

    /// The sealed-output handle (`from_plan`'s second argument).
    pub fn handle(&self) -> StageHandle<TokenId, PostingBlock> {
        self.handle
    }

    /// Take the staged plan, leaving an empty one — for callers running
    /// the plan themselves (e.g. under a profiler).
    pub fn take_plan(&mut self) -> Plan {
        std::mem::replace(&mut self.plan, Plan::new("serve"))
    }

    /// Adopt an already-run plan's outcome (pairs with
    /// [`take_plan`](Self::take_plan)).
    pub fn adopt(self, outcome: &mut PlanOutcome) -> ServeIndex {
        ServeIndex::from_plan(outcome, self.handle, self.pool, self.freqs, self.cfg)
    }

    /// Run the plan and seal the index.
    pub fn run(self) -> ServeIndex {
        let _span = span("serve.stage", "build")
            .field("records", self.pool.len() as u64)
            .field("partitions", self.cfg.build_partitions as u64);
        let mut outcome = PlanRunner::new(self.cfg.plan_mode).run(self.plan);
        ServeIndex::from_plan(&mut outcome, self.handle, self.pool, self.freqs, self.cfg)
    }
}

/// Build a serving index over `collection` — the one-call path.
pub fn build_index(collection: &Collection, cfg: &ServeConfig) -> ServeIndex {
    ServeIndexBuild::new(collection, cfg.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_blocks_are_len_rec_ordered() {
        let mut reducer = BlockReducer::default();
        for lens in [vec![5u32, 3, 5, 1, 3, 4], vec![100, 3]] {
            reducer.rows = lens
                .iter()
                .enumerate()
                .map(|(rec, &len)| Posting {
                    rec: rec as u32,
                    pos: rec as u32 % 2,
                    len,
                })
                .collect();
            let mut want = reducer.rows.clone();
            want.sort_by_key(|p| (p.len, p.rec));
            let block = reducer.seal();
            assert!(block.is_ordered());
            assert_eq!(block.iter().collect::<Vec<_>>(), want);
        }
    }
}
