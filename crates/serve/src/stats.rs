//! Per-probe pruning statistics, mirroring the batch side's
//! `FilterStats` pattern: accumulate locally (no registry contention on
//! the query hot path), flush to a [`MetricsRegistry`] when the caller
//! chooses — per query for the convenience API, per worker thread for the
//! closed-loop harness.

use fsjoin::keys;
use ssj_observe::MetricsRegistry;

/// Counters for one probe (or an accumulation of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Distinct records that entered the candidate accumulator.
    pub candidates: u64,
    /// Postings rejected by the length window before accumulation.
    pub length_pruned: u64,
    /// Records inside the length window that shared no probe-prefix token.
    pub prefix_pruned: u64,
    /// Candidates killed by the positional upper bound.
    pub position_pruned: u64,
    /// Position-filter survivors whose bitmaps were consulted.
    pub bitmap_checks: u64,
    /// Survivors the bitmap upper bound rejected before verification
    /// (lossless — the bound is ≥ the true overlap).
    pub bitmap_pruned: u64,
    /// Candidates that reached exact verification.
    pub verified: u64,
    /// Verified candidates at or above the threshold.
    pub hits: u64,
}

impl ProbeStats {
    /// Fold another accumulation into this one.
    pub fn add(&mut self, other: &ProbeStats) {
        self.candidates += other.candidates;
        self.length_pruned += other.length_pruned;
        self.prefix_pruned += other.prefix_pruned;
        self.position_pruned += other.position_pruned;
        self.bitmap_checks += other.bitmap_checks;
        self.bitmap_pruned += other.bitmap_pruned;
        self.verified += other.verified;
        self.hits += other.hits;
    }

    /// `candidates` minus the three outcomes a candidate can end in:
    /// position-pruned, bitmap-pruned, verified. 0 for any accumulation
    /// of probes (and `hits ≤ verified`). `bitmap_checks` is not an
    /// outcome: a survivor whose bitmaps saturate is verified unchecked.
    pub fn unaccounted(&self) -> i64 {
        let settled = self.position_pruned + self.bitmap_pruned + self.verified;
        self.candidates as i64 - settled as i64
    }

    /// Canonical `serve.probe.*` key/value pairs, in cascade order (the
    /// order `results/serve.md` reports them in).
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            (keys::SERVE_PROBE_CANDIDATES, self.candidates),
            (keys::SERVE_PROBE_LENGTH_PRUNED, self.length_pruned),
            (keys::SERVE_PROBE_PREFIX_PRUNED, self.prefix_pruned),
            (keys::SERVE_PROBE_POSITION_PRUNED, self.position_pruned),
            (keys::SERVE_PROBE_BITMAP_CHECKS, self.bitmap_checks),
            (keys::SERVE_PROBE_BITMAP_PRUNED, self.bitmap_pruned),
            (keys::SERVE_PROBE_VERIFIED, self.verified),
            (keys::SERVE_PROBE_HITS, self.hits),
        ]
    }

    /// Flush into a registry as additive counters.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        for (key, value) in self.fields() {
            registry.counter_add(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_record_agree_with_fields() {
        let mut a = ProbeStats {
            candidates: 1,
            length_pruned: 2,
            prefix_pruned: 3,
            position_pruned: 4,
            bitmap_checks: 7,
            bitmap_pruned: 8,
            verified: 5,
            hits: 6,
        };
        let b = a;
        a.add(&b);
        let registry = MetricsRegistry::new();
        a.record_to(&registry);
        for (key, value) in a.fields() {
            assert_eq!(registry.counter_get(key), value);
            assert_eq!(value % 2, 0, "doubled by add");
        }
    }

    #[test]
    fn unaccounted_subtracts_the_three_candidate_outcomes() {
        let s = ProbeStats {
            candidates: 840,
            position_pruned: 626,
            bitmap_checks: 214,
            bitmap_pruned: 40,
            verified: 174,
            ..ProbeStats::default()
        };
        assert_eq!(s.unaccounted(), 0);
        let leak = ProbeStats { verified: 170, ..s };
        assert_eq!(leak.unaccounted(), 4);
    }
}
