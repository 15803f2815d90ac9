//! Deterministic scoped randomness for fault decisions.
//!
//! Fault injection must be a *pure function of the seed and the decision
//! scope* — never of thread scheduling or call order — so that a chaos run
//! is reproducible and a retried attempt cannot shift the fault
//! pattern of unrelated tasks. Every decision therefore derives its own
//! generator from `(seed, scope words...)` instead of drawing from one
//! shared stream.

/// SplitMix64 — the standard 64-bit mixing PRNG (Steele et al., OOPSLA'14).
/// Tiny, full-period, and excellent avalanche behaviour; exactly what a
/// hash-derived decision stream needs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded directly.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Generator scoped to `(seed, words...)`: the words are folded into
    /// the state with the SplitMix finalizer, so nearby scopes (task 3
    /// attempt 0 vs task 3 attempt 1) produce unrelated streams.
    pub fn scoped(seed: u64, words: &[u64]) -> Self {
        let mut g = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        for &w in words {
            g.state ^= mix(w);
            g.next_u64();
        }
        g
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform draw in `[0, 1)` (53-bit mantissa precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 output finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a string — used to fold job names into decision scopes
/// (dependency-free; stability across runs is all that matters here).
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_streams_are_reproducible() {
        let a = SplitMix64::scoped(42, &[1, 2, 3]).next_f64();
        let b = SplitMix64::scoped(42, &[1, 2, 3]).next_f64();
        assert_eq!(a, b);
    }

    #[test]
    fn nearby_scopes_decorrelate() {
        let mut seen = Vec::new();
        for task in 0..50u64 {
            for attempt in 0..3u64 {
                seen.push(SplitMix64::scoped(7, &[task, attempt]).next_u64());
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 150, "scoped draws must not collide");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = SplitMix64::new(1);
        for _ in 0..1000 {
            let u = g.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_draws_look_uniform() {
        let mut g = SplitMix64::new(99);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn hash_str_is_stable_and_discriminating() {
        assert_eq!(hash_str("fsjoin-filter"), hash_str("fsjoin-filter"));
        assert_ne!(hash_str("fsjoin-filter"), hash_str("fsjoin-verify"));
        assert_ne!(hash_str(""), hash_str("a"));
    }
}
