//! Deterministic latency accounting shared by the closed-loop
//! [`crate::RuntimeSimulator`] and the open-loop `hadas-serve` engine.
//!
//! Percentile semantics are pinned here (and by unit tests below) so every
//! report in the workspace means the same thing by "p95": **nearest-rank
//! with a zero-based floor index** over the sorted samples —
//! `sorted[floor(n · p)]`, clamped to the last sample. This matches the
//! inline computation the simulator shipped with, so extracting it changed
//! no report bytes.

use serde::{Deserialize, Serialize};

/// An exact (sample-keeping) latency histogram with deterministic
/// percentile queries.
///
/// Samples are kept in insertion order and ranked by selection on
/// demand; all queries are pure functions of the recorded multiset, so
/// two runs that record the same values in any order summarize
/// identically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
}

/// The latency summary every workspace report embeds: mean plus the three
/// tail percentiles the serving literature quotes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Arithmetic mean (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Largest recorded sample (ms).
    pub max_ms: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Builds a histogram from an existing sample vector.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Histogram { samples }
    }

    /// Records one latency sample (ms).
    pub fn record(&mut self, value_ms: f64) {
        self.samples.push(value_ms);
    }

    /// Absorbs every sample of `other` into this histogram.
    ///
    /// Because queries are pure functions of the recorded *multiset*,
    /// merging per-shard histograms yields exactly the percentiles of the
    /// whole stream — the property the sharded serve reduction and the
    /// proptests in `crates/runtime/tests/props.rs` rely on. (The mean is
    /// a floating-point sum, so it agrees with the whole-stream mean up
    /// to summation-order rounding.)
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The recorded samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `p`-th percentile (`p` in `[0, 1]`) under the pinned
    /// nearest-rank semantics: `sorted[floor(n · p)]` clamped to the last
    /// sample; `0.0` when empty. Non-finite or out-of-range `p` clamps
    /// into `[0, 1]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let p = if p.is_finite() { p.clamp(0.0, 1.0) } else { 1.0 };
        let mut samples = self.samples.clone();
        let idx = nearest_rank(samples.len(), p);
        *samples.select_nth_unstable_by(idx, f64::total_cmp).1
    }

    /// Mean, p50/p95/p99 and max by selection — the summary embedded in
    /// [`crate::RuntimeReport`] and `hadas-serve`'s `ServeReport`. Works
    /// on a copy of the samples; [`Histogram::into_summary`] does not.
    pub fn summary(&self) -> LatencySummary {
        self.clone().into_summary()
    }

    /// [`Histogram::summary`], reordering this histogram's own samples
    /// instead of copying them. Each percentile is a selection over the
    /// part of the samples the previous one left above it: p50 over all,
    /// p95 from p50's index up, p99 from p95's, max from p99's. Under
    /// `total_cmp` equal means equal bits, so every value is bit for bit
    /// the one a full sort would put at that index. The mean sums in
    /// insertion order, before anything moves.
    pub fn into_summary(mut self) -> LatencySummary {
        let n = self.samples.len();
        if n == 0 {
            return LatencySummary::default();
        }
        let mean_ms = self.mean();
        let (i50, i95, i99) = (nearest_rank(n, 0.5), nearest_rank(n, 0.95), nearest_rank(n, 0.99));
        let s = &mut self.samples[..];
        let p50_ms = *s.select_nth_unstable_by(i50, f64::total_cmp).1;
        let p95_ms = *s[i50..].select_nth_unstable_by(i95 - i50, f64::total_cmp).1;
        let p99_ms = *s[i95..].select_nth_unstable_by(i99 - i95, f64::total_cmp).1;
        let max_ms = s[i99..].iter().copied().max_by(f64::total_cmp).unwrap_or(p99_ms);
        LatencySummary { mean_ms, p50_ms, p95_ms, p99_ms, max_ms }
    }
}

/// The zero-based nearest-rank index of `p` in `[0, 1]` over `n > 0`
/// sorted samples: `floor(n · p)`, clamped to the last. Monotone in `p`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((n as f64 * p) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based percentile that selection replaced: the
    /// differential reference.
    fn sorted_percentile(h: &Histogram, p: f64) -> f64 {
        if h.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = h.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p = if p.is_finite() { p.clamp(0.0, 1.0) } else { 1.0 };
        let idx = (sorted.len() as f64 * p) as usize;
        sorted.get(idx).or(sorted.last()).copied().unwrap_or(0.0)
    }

    /// The sort-based summary that selection replaced.
    fn sorted_summary(h: &Histogram) -> LatencySummary {
        if h.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = h.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let nearest = |p: f64| -> f64 {
            let idx = (sorted.len() as f64 * p) as usize;
            sorted.get(idx).or(sorted.last()).copied().unwrap_or(0.0)
        };
        LatencySummary {
            mean_ms: h.mean(),
            p50_ms: nearest(0.5),
            p95_ms: nearest(0.95),
            p99_ms: nearest(0.99),
            max_ms: sorted.last().copied().unwrap_or(0.0),
        }
    }

    fn summary_bits(s: &LatencySummary) -> [u64; 5] {
        [s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms].map(f64::to_bits)
    }

    /// One sample: mostly a few small integers (heavy duplicates), else a
    /// signed zero, an infinity, a NaN of either sign or payload, or any
    /// value in a wide range.
    fn sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u8..4).prop_map(f64::from),
            (0u8..4).prop_map(f64::from),
            (0u8..4).prop_map(f64::from),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::from_bits(0x7ff8_0000_0000_0001)),
            -1e6f64..1e6,
        ]
    }

    /// Sizes over 1..=2000, with extra weight around 1, 20 and 100,
    /// where the nearest-rank indices sit at the ends of the vector.
    fn samples() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![1usize..=2000, 1usize..=3, 18usize..=22, 98usize..=102]
            .prop_flat_map(|n| proptest::collection::vec(sample(), n))
    }

    fn any_p() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -2.0f64..0.0,
            1.0f64..3.0,
            0.0f64..=1.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selection answers every field with the bits the full sort did.
        #[test]
        fn selection_matches_the_sorted_reference_bit_for_bit(
            xs in samples(),
            p in any_p(),
        ) {
            let h = Histogram::from_samples(xs);
            let want = summary_bits(&sorted_summary(&h));
            prop_assert_eq!(summary_bits(&h.summary()), want);
            prop_assert_eq!(summary_bits(&h.clone().into_summary()), want);
            for q in [p, 0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(h.percentile(q).to_bits(), sorted_percentile(&h, q).to_bits());
            }
        }
    }

    #[test]
    fn empty_histogram_summarizes_to_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        assert_eq!(h.percentile(0.95), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn percentile_semantics_are_pinned_on_known_inputs() {
        // 1..=100: floor-index nearest rank ⇒ p50 = sorted[50] = 51.0,
        // p95 = sorted[95] = 96.0, p99 = sorted[99] = 100.0.
        let h = Histogram::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(h.percentile(0.5), 51.0);
        assert_eq!(h.percentile(0.95), 96.0);
        assert_eq!(h.percentile(0.99), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(1.0), 100.0, "p=1 clamps to the last sample");
        let s = h.summary();
        assert_eq!((s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms), (51.0, 96.0, 100.0, 100.0));
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_answers_every_percentile() {
        let mut h = Histogram::new();
        h.record(42.0);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 42.0);
        }
    }

    #[test]
    fn recording_order_does_not_matter() {
        let a = Histogram::from_samples(vec![3.0, 1.0, 2.0, 9.0, 5.0]);
        let b = Histogram::from_samples(vec![9.0, 5.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn matches_the_simulators_historical_p95_formula() {
        // The formula sim.rs used inline before extraction:
        // sorted[(len as f64 * 0.95) as usize] or last.
        for n in [1usize, 7, 20, 99, 1000] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            let h = Histogram::from_samples(vals.clone());
            let mut sorted = vals;
            sorted.sort_by(f64::total_cmp);
            let expect = sorted
                .get((sorted.len() as f64 * 0.95) as usize)
                .or(sorted.last())
                .copied()
                .unwrap();
            assert_eq!(h.percentile(0.95), expect, "n = {n}");
        }
    }

    #[test]
    fn merging_shards_equals_the_whole_stream() {
        let whole: Vec<f64> = (0..100).map(|i| f64::from(i) * 1.7).collect();
        let mut merged = Histogram::new();
        for shard in whole.chunks(7) {
            merged.merge(&Histogram::from_samples(shard.to_vec()));
        }
        let reference = Histogram::from_samples(whole);
        assert_eq!(merged.len(), reference.len());
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.percentile(p), reference.percentile(p));
        }
        let empty = Histogram::new();
        merged.merge(&empty);
        assert_eq!(merged.summary(), reference.summary());
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let h = Histogram::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(h.percentile(-0.5), 1.0);
        assert_eq!(h.percentile(7.0), 3.0);
        assert_eq!(h.percentile(f64::NAN), 3.0);
    }
}
