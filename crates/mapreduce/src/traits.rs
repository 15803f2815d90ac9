//! Core MapReduce task traits: [`Mapper`], [`Reducer`], [`StreamingReducer`],
//! [`Combiner`] and the [`Key`]/[`Value`] marker traits their key/value
//! types must satisfy.

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
/// passed to [`Plan::add`](crate::Plan::add) or
/// [`JobBuilder::run`](crate::JobBuilder::run)), so implementations may keep
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

/// A reduce task.
///
/// One instance is created per reduce task. `reduce` is invoked once per
/// distinct key, with all values for that key; keys arrive in ascending
/// order within the task (sort-based shuffle).
pub trait Reducer: Send {
    /// Intermediate key type (must match the mapper's `OutKey`).
    type InKey: Key;
    /// Intermediate value type (must match the mapper's `OutValue`).
    type InValue: Value;
    /// Output key type.
    type OutKey: Key;
    /// Output value type.
    type OutValue: Value;

    /// Called once before the first `reduce` call of the task.
    fn setup(&mut self) {}

    /// Process one key group.
    fn reduce(
        &mut self,
        key: &Self::InKey,
        values: Vec<Self::InValue>,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );

    /// Called once after the last group; may emit trailing pairs.
    fn cleanup(&mut self, _out: &mut Emitter<Self::OutKey, Self::OutValue>) {}
}

/// A streaming reduce task: sees each key group's values as a by-reference
/// iterator straight off the k-way merge of the sorted spill runs, with
/// **no per-key `Vec` materialization on the engine side**.
///
/// This is the engine's native reduce interface; every [`Reducer`] is also
/// a `StreamingReducer` through a blanket adapter that collects the group
/// into the `Vec` its signature requires. Hot reducers (FS-Join's fragment
/// join, count/fold-style aggregation) implement this trait directly and
/// either fold values as they stream or copy them into a reused scratch
/// buffer.
///
/// Contract (identical to [`Reducer`]): `reduce_group` is invoked once per
/// distinct key, keys ascend within the task, and a key's values arrive in
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

/// Every batch [`Reducer`] reduces streamed groups by materializing each
/// group into the `Vec` its signature requires — one clone per value (what
/// the old deep-cloning fetch paid for the *whole run* up front), one
/// `Vec` per key (inherent to the batch signature).
impl<R: Reducer> StreamingReducer for R {
    type InKey = R::InKey;
    type InValue = R::InValue;
    type OutKey = R::OutKey;
    type OutValue = R::OutValue;

    fn setup(&mut self) {
        Reducer::setup(self);
    }

    fn reduce_group(
        &mut self,
        key: &R::InKey,
        values: &mut GroupValues<'_, '_, R::InKey, R::InValue>,
        out: &mut Emitter<R::OutKey, R::OutValue>,
    ) {
        let materialized: Vec<R::InValue> = values.cloned().collect();
        Reducer::reduce(self, key, materialized, out);
    }

    fn cleanup(&mut self, out: &mut Emitter<R::OutKey, R::OutValue>) {
        Reducer::cleanup(self, out);
    }
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
    /// Fold one key group of a single map task's output into fewer values.
    fn combine(&self, key: &K, values: Vec<V>) -> Vec<V>;

    /// Fold one key group *streamed* off the sorted bucket into `out`,
    /// without requiring a `Vec` per distinct key. The default adapter
    /// collects and delegates to [`Combiner::combine`]; fold-style
    /// combiners (sums, counts) override it to consume the iterator
    /// directly, which lets the engine's map-side spill path run with no
    /// per-key allocation at all.
    ///
    /// Contract: must append exactly what `combine(key, values.collect())`
    /// would return, and must leave `values` exhausted.
    fn combine_into(&self, key: &K, values: &mut dyn Iterator<Item = V>, out: &mut Vec<V>) {
        let collected: Vec<V> = values.collect();
        out.extend(self.combine(key, collected));
    }

    /// Whether `combine`'s output is a function of the input **multiset**
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
            fn combine(&self, _key: &K, values: Vec<$t>) -> Vec<$t> {
                vec![values.into_iter().sum()]
            }
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

    #[test]
    fn sum_combiner_folds_to_single_value() {
        let c = SumCombiner;
        let out: Vec<u64> = Combiner::<u32, u64>::combine(&c, &7, vec![1, 2, 3]);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn sum_combiner_empty_group_is_zero() {
        let c = SumCombiner;
        let out: Vec<u64> = Combiner::<u32, u64>::combine(&c, &7, vec![]);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn combine_into_matches_combine() {
        let c = SumCombiner;
        let mut streamed: Vec<u64> = Vec::new();
        Combiner::<u32, u64>::combine_into(
            &c,
            &7,
            &mut vec![1u64, 2, 3].into_iter(),
            &mut streamed,
        );
        assert_eq!(
            streamed,
            Combiner::<u32, u64>::combine(&c, &7, vec![1, 2, 3])
        );
        // Empty groups fold to the additive identity on both paths.
        streamed.clear();
        Combiner::<u32, u64>::combine_into(&c, &7, &mut std::iter::empty(), &mut streamed);
        assert_eq!(streamed, vec![0]);
    }

    /// A combiner that relies on the default `combine_into` adapter must
    /// behave identically to its batch `combine`.
    #[test]
    fn default_combine_into_adapter_delegates() {
        struct KeepMax;
        impl Combiner<u32, u64> for KeepMax {
            fn combine(&self, _key: &u32, values: Vec<u64>) -> Vec<u64> {
                values.into_iter().max().into_iter().collect()
            }
        }
        let mut out = Vec::new();
        KeepMax.combine_into(&1, &mut vec![4u64, 9, 2].into_iter(), &mut out);
        assert_eq!(out, vec![9]);
    }
}
