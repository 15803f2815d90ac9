//! Core MapReduce task traits: [`Mapper`], the two reduce shapes
//! ([`StreamingReducer`] for one upstream, [`CoGroupReducer`] for a
//! co-group stage), [`Combiner`] and the [`Key`]/[`Value`] marker traits
//! their key/value types must satisfy. Reducers and combiners see each key
//! group as a stream of values, as Hadoop's `reduce(key, Iterable)` does;
//! one that needs the whole group copies it into a scratch buffer it owns.

use crate::emitter::Emitter;
use crate::merge::{GroupValues, SideGroups};
use ssj_common::ByteSize;
use std::hash::Hash;
use std::marker::PhantomData;

/// Requirements on intermediate and output keys.
///
/// Keys must be totally ordered (the shuffle is sort-based, matching
/// Hadoop's guarantee that a reducer sees its keys in ascending order),
/// hashable (for [`HashPartitioner`](crate::HashPartitioner)), cloneable
/// (group boundaries hand the reducer a borrowed key), and byte-accountable.
pub trait Key: Ord + Hash + Clone + Send + Sync + ByteSize + 'static {}
impl<T: Ord + Hash + Clone + Send + Sync + ByteSize + 'static> Key for T {}

/// Requirements on intermediate and output values.
///
/// `Clone` lets the engine checkpoint map outputs in a
/// [`SpillStore`](crate::SpillStore): a failed reduce attempt re-fetches its
/// input runs instead of re-running the whole map phase (Hadoop's
/// materialized-map-output recovery).
/// (`Sync` because checkpointed runs are *shared* with every concurrent
/// reduce attempt rather than moved into one.)
pub trait Value: Clone + Send + Sync + ByteSize + 'static {}
impl<T: Clone + Send + Sync + ByteSize + 'static> Value for T {}

/// A map task.
///
/// One instance is created per map task *attempt* (via the factory closure
/// passed to [`Plan::add`](crate::Plan::add)), so implementations may keep
/// per-task state across `map` calls — e.g. FS-Join's mapper caches the
/// pivot array loaded in [`Mapper::setup`].
pub trait Mapper: Send {
    /// Input key type (e.g. record id).
    type InKey: Send + 'static;
    /// Input value type (e.g. record body).
    type InValue: Send + 'static;
    /// Intermediate key type routed by the shuffle.
    type OutKey: Key;
    /// Intermediate value type.
    type OutValue: Value;

    /// Called once before the first `map` call of the task.
    fn setup(&mut self) {}

    /// Process one input record, emitting any number of intermediate pairs.
    fn map(
        &mut self,
        key: Self::InKey,
        value: Self::InValue,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );

    /// Called once after the last `map` call; may emit trailing pairs
    /// (used by in-mapper-combining patterns).
    fn cleanup(&mut self, _out: &mut Emitter<Self::OutKey, Self::OutValue>) {}
}

/// A streaming reduce task: sees each key group's values as a by-reference
/// iterator straight off the k-way merge of the sorted spill runs, with
/// **no per-key `Vec` materialization on the engine side**.
///
/// One instance is created per reduce task. A reducer either folds values
/// as they stream (counts, sums) or, when it needs the whole group
/// (FS-Join's fragment join, the baselines' per-token joins), copies them
/// into a scratch buffer it owns and reuses across groups.
///
/// Contract: `reduce_group` is invoked once per distinct key, keys ascend
/// within the task (sort-based shuffle), and a key's values arrive in
/// map-task order (within a map task, in emission order). Values left
/// unread when `reduce_group` returns are skipped, not redelivered.
pub trait StreamingReducer: Send {
    /// Intermediate key type (must match the mapper's `OutKey`).
    type InKey: Key;
    /// Intermediate value type (must match the mapper's `OutValue`).
    type InValue: Value;
    /// Output key type.
    type OutKey: Key;
    /// Output value type.
    type OutValue: Value;

    /// Called once before the first `reduce_group` call of the task.
    fn setup(&mut self) {}

    /// Process one key group, consuming its values as a stream.
    fn reduce_group(
        &mut self,
        key: &Self::InKey,
        values: &mut GroupValues<'_, '_, Self::InKey, Self::InValue>,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );

    /// Called once after the last group; may emit trailing pairs.
    fn cleanup(&mut self, _out: &mut Emitter<Self::OutKey, Self::OutValue>) {}
}

/// A co-group reduce task: the reduce side of a
/// [`Plan::add_cogroup`](crate::Plan::add_cogroup) stage.
///
/// One instance is created per co-group task (= per reduce partition of
/// the co-partitioned upstreams). `cogroup` is invoked once per distinct
/// key across **all** upstream sides, keys ascending within the task;
/// the group's values stream by reference as `(side, &value)` with side
/// tags non-decreasing (side = position of the upstream in the stage's
/// edge list), and within one side in upstream reduce-partition emission
/// order — exactly what an identity-rekey fan-in map over the same
/// sealed partitions would have delivered, minus the second shuffle.
pub trait CoGroupReducer: Send {
    /// Key type of every upstream's reduce output.
    type InKey: Key;
    /// Value type of every upstream's reduce output.
    type InValue: Value;
    /// Output key type.
    type OutKey: Key;
    /// Output value type.
    type OutValue: Value;

    /// Called once before the first `cogroup` call of the task.
    fn setup(&mut self) {}

    /// Process one key group, consuming its side-tagged values as a
    /// stream. Values left unread are skipped, not redelivered.
    fn cogroup(
        &mut self,
        key: &Self::InKey,
        values: &mut SideGroups<'_, '_, Self::InKey, Self::InValue>,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );

    /// Called once after the last group; may emit trailing pairs.
    fn cleanup(&mut self, _out: &mut Emitter<Self::OutKey, Self::OutValue>) {}
}

/// A map-side combiner, applied to each map task's sorted output before the
/// shuffle (Hadoop semantics: an optimization that must be semantically
/// transparent — the reducer must produce the same result with or without
/// it).
pub trait Combiner<K: Key, V: Value>: Send + Sync {
    /// Fold one key group of a single map task's output, *streamed* off
    /// the sorted bucket, into fewer values appended to `out`. Fold-style
    /// combiners (sums, counts) consume the iterator directly, so the
    /// engine's map-side spill path runs with no per-key allocation.
    ///
    /// Contract: should leave `values` exhausted; the engine drains any
    /// values left unread, so they are dropped, never carried into the
    /// next key group.
    fn combine_into(&self, key: &K, values: &mut dyn Iterator<Item = V>, out: &mut Vec<V>);

    /// Whether `combine_into`'s output is a function of the input **multiset**
    /// only — the values' order never affects the combined output (count
    /// and content), bit-for-bit.
    ///
    /// When true, the engine may sort map-side buckets with an *unstable*
    /// sort: an unstable sort only ever permutes equal-key pairs, and a
    /// commutative combiner erases that permutation before anything else
    /// observes it. Defaults to `false` (order preserved via stable sort).
    /// Floating-point folds must stay `false`: `f64` addition is not
    /// associative, so a reorder can flip result bits.
    fn is_commutative(&self) -> bool {
        false
    }
}

/// Combiner that sums numeric values — the common case for counting jobs
/// (token frequency, common-token aggregation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumCombiner;

macro_rules! impl_sum_combiner {
    ($commutative:literal; $($t:ty),*) => {
        $(impl<K: Key> Combiner<K, $t> for SumCombiner {
            fn combine_into(
                &self,
                _key: &K,
                values: &mut dyn Iterator<Item = $t>,
                out: &mut Vec<$t>,
            ) {
                out.push(values.sum());
            }
            fn is_commutative(&self) -> bool {
                $commutative
            }
        })*
    };
}

// Integer sums are order-independent; f64 addition is not associative, so
// its combiner must keep the stable map-side sort (see `is_commutative`).
impl_sum_combiner!(true; u32, u64, usize, i32, i64);
impl_sum_combiner!(false; f64);

/// A combiner that passes values through unchanged (no combining).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCombiner;

impl<K: Key, V: Value> Combiner<K, V> for IdentityCombiner {
    fn combine_into(&self, _key: &K, values: &mut dyn Iterator<Item = V>, out: &mut Vec<V>) {
        out.extend(values);
    }
}

/// One key run drained straight off a sorted bucket iterator: yields the
/// values of `key` and stops at the first pair with a different key,
/// leaving it in the underlying iterator.
struct RunValues<'a, K: Key, V: Value, I: Iterator<Item = (K, V)>> {
    first: Option<V>,
    key: &'a K,
    rest: &'a mut std::iter::Peekable<I>,
}

impl<K: Key, V: Value, I: Iterator<Item = (K, V)>> Iterator for RunValues<'_, K, V, I> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        if let Some(v) = self.first.take() {
            return Some(v);
        }
        if self.rest.peek().is_some_and(|(k, _)| k == self.key) {
            return self.rest.next().map(|(_, v)| v);
        }
        None
    }
}

/// Apply a combiner to every key run of a sorted bucket.
///
/// Key groups stream off the bucket through [`Combiner::combine_into`]:
/// fold-style combiners ([`crate::SumCombiner`], the verification-count
/// combiner) run with **no per-key allocation** — one reused scratch vector
/// amortizes over the whole bucket.
pub(crate) fn combine_runs<K: Key, V: Value, C: Combiner<K, V>>(
    bucket: Vec<(K, V)>,
    combiner: &C,
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(bucket.len());
    let mut vals: Vec<V> = Vec::new(); // reused across key groups
    let mut it = bucket.into_iter().peekable();
    while let Some((key, first)) = it.next() {
        {
            let mut run = RunValues {
                first: Some(first),
                key: &key,
                rest: &mut it,
            };
            combiner.combine_into(&key, &mut run, &mut vals);
            // The contract says the combiner exhausts the run; drain any
            // leftovers so a lazy combiner cannot leak values into the
            // next group.
            for _leftover in run {}
        }
        flush_combined(key, &mut vals, &mut out);
    }
    out
}

/// Move one combined key group out of the scratch buffer, cloning the key
/// only for the first `n - 1` pairs and moving it into the last (the
/// common single-value case clones nothing).
fn flush_combined<K: Key, V: Value>(key: K, vals: &mut Vec<V>, out: &mut Vec<(K, V)>) {
    let n = vals.len();
    if n == 0 {
        return;
    }
    let mut drained = vals.drain(..);
    for _ in 0..n - 1 {
        out.push((key.clone(), drained.next().expect("n values")));
    }
    let last = drained.next().expect("n values");
    drop(drained);
    out.push((key, last));
}

/// Identity mapper: re-emits every `(key, value)` unchanged. The map
/// side of dedup and rekey stages, whose work is all in the shuffle.
pub struct IdentityMapper<K, V>(PhantomData<fn() -> (K, V)>);

impl<K, V> Default for IdentityMapper<K, V> {
    fn default() -> Self {
        IdentityMapper(PhantomData)
    }
}

impl<K: Key, V: Value> Mapper for IdentityMapper<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn map(&mut self, key: K, value: V, out: &mut Emitter<K, V>) {
        out.emit(key, value);
    }
}

/// Pass-through reducer: re-emits every value of every group, in
/// arrival order, under its key. For stages that exist only to *route*
/// records into co-partitioned groups.
pub struct PassThrough<K, V>(PhantomData<fn() -> (K, V)>);

impl<K, V> Default for PassThrough<K, V> {
    fn default() -> Self {
        PassThrough(PhantomData)
    }
}

impl<K: Key, V: Value> StreamingReducer for PassThrough<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn reduce_group(
        &mut self,
        key: &K,
        values: &mut GroupValues<'_, '_, K, V>,
        out: &mut Emitter<K, V>,
    ) {
        for v in values {
            out.emit(key.clone(), v.clone());
        }
    }
}

/// Co-group form of the pass-through: drops the side tags.
impl<K: Key, V: Value> CoGroupReducer for PassThrough<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn cogroup(&mut self, key: &K, values: &mut SideGroups<'_, '_, K, V>, out: &mut Emitter<K, V>) {
        for (_side, v) in values {
            out.emit(key.clone(), v.clone());
        }
    }
}

/// Keep-first reducer: emits each key once, with the first value of
/// its group — the dedup reducer for stages whose duplicates all carry
/// the same value. Only the head of each group is read; the engine
/// skips the rest without buffering it.
pub struct KeepFirst<K, V>(PhantomData<fn() -> (K, V)>);

impl<K, V> Default for KeepFirst<K, V> {
    fn default() -> Self {
        KeepFirst(PhantomData)
    }
}

impl<K: Key, V: Value> StreamingReducer for KeepFirst<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn reduce_group(
        &mut self,
        key: &K,
        values: &mut GroupValues<'_, '_, K, V>,
        out: &mut Emitter<K, V>,
    ) {
        let first = values.next().expect("group has at least one value");
        out.emit(key.clone(), first.clone());
    }
}

/// Co-group form of the keep-first, for inputs that are already
/// partitioned by the dedup key: the sealed partition groups in place.
impl<K: Key, V: Value> CoGroupReducer for KeepFirst<K, V> {
    type InKey = K;
    type InValue = V;
    type OutKey = K;
    type OutValue = V;

    fn cogroup(&mut self, key: &K, values: &mut SideGroups<'_, '_, K, V>, out: &mut Emitter<K, V>) {
        let (_side, first) = values.next().expect("group has at least one value");
        out.emit(key.clone(), first.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_into(values: Vec<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        Combiner::<u32, u64>::combine_into(&SumCombiner, &7, &mut values.into_iter(), &mut out);
        out
    }

    #[test]
    fn sum_combiner_folds_to_single_value() {
        assert_eq!(sum_into(vec![1, 2, 3]), vec![6]);
    }

    #[test]
    fn sum_combiner_empty_group_is_zero() {
        assert_eq!(sum_into(vec![]), vec![0]);
    }
}
