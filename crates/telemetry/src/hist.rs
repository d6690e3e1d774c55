//! Log-bucketed latency histogram.
//!
//! Values land in buckets whose width grows geometrically: exact buckets
//! below `2^SUB_BITS`, then `2^SUB_BITS` sub-buckets per power of two.
//! That bounds the relative quantile error at `2^-SUB_BITS` (12.5%)
//! while keeping the whole `u64` range in under 500 atomic cells, so
//! recording is one index computation plus one relaxed `fetch_add` —
//! safe for concurrent producers and cheap enough for hot paths.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Exact buckets 0..SUB_COUNT, then (64-SUB_BITS) octaves × SUB_COUNT.
pub(crate) const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// Maps a value to its bucket index.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // msb >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB_COUNT - 1);
    SUB_COUNT + (msb - SUB_BITS) as usize * SUB_COUNT + sub
}

/// The inclusive lower bound of a bucket — the value reported for any
/// sample that landed in it (so estimates never exceed the exact
/// statistic and the relative error stays below one sub-bucket width).
pub(crate) fn bucket_lo(index: usize) -> u64 {
    if index < SUB_COUNT {
        return index as u64;
    }
    let off = index - SUB_COUNT;
    let octave = (off / SUB_COUNT) as u32; // msb - SUB_BITS
    let sub = (off % SUB_COUNT) as u64;
    (SUB_COUNT as u64 + sub) << octave
}

/// A concurrent log-bucketed histogram of `u64` samples (microseconds,
/// bytes, queue depths — any nonnegative magnitude).
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

struct HistInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        HistInner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let i = &self.inner;
        i.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(v, Ordering::Relaxed);
        i.max.fetch_max(v, Ordering::Relaxed);
        i.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.inner.max.load(Ordering::Relaxed)
        }
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.inner.min.load(Ordering::Relaxed)
        }
    }

    /// The `pct`-th percentile (0–100), as the lower bound of the bucket
    /// holding that order statistic; the top percentile reports the
    /// exact max. Returns 0 when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        let buckets = self.nonzero_buckets();
        let n = buckets.iter().map(|&(_, c)| c).sum();
        order_statistic(&buckets, n, self.max(), pct)
    }

    /// Per-bucket nonzero counts as `(bucket_lo, count)` pairs, in
    /// ascending value order (the mergeable raw form of the histogram).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(ix, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_lo(ix), c))
            })
            .collect()
    }
}

/// The `pct`-th percentile (0–100) of `n` samples held as ascending
/// `(bucket_lo, count)` pairs: the lower bound of the bucket where the
/// running count passes the order statistic's rank, and the exact `max`
/// for the top rank. 0 when empty.
pub(crate) fn order_statistic(buckets: &[(u64, u64)], n: u64, max: u64, pct: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    // Same convention as a sorted-Vec order statistic:
    // index = ceil(n * pct/100) - 1, clamped into range.
    let rank = ((n as f64 * pct / 100.0).ceil() as u64)
        .saturating_sub(1)
        .min(n - 1);
    if rank == n - 1 {
        return max;
    }
    let mut cum = 0u64;
    for &(lo, c) in buckets {
        cum += c;
        if cum > rank {
            return lo;
        }
    }
    max
}

/// Inclusive upper bound of a bucket.
#[cfg(test)]
pub(crate) fn bucket_hi(index: usize) -> u64 {
    if index + 1 < BUCKETS {
        bucket_lo(index + 1) - 1
    } else {
        u64::MAX
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_within_bounds() {
        let mut last = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for v in [v, v + v / 3, v + v / 2] {
                let ix = bucket_index(v);
                assert!(ix < BUCKETS, "{v} -> {ix}");
                assert!(ix >= last, "index must not decrease at {v}");
                last = ix;
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_lo_inverts_index() {
        for v in (0..1000u64).chain([1 << 20, 1 << 40, u64::MAX / 2]) {
            let ix = bucket_index(v);
            let lo = bucket_lo(ix);
            assert!(lo <= v, "lo {lo} > v {v}");
            assert_eq!(bucket_index(lo), ix, "lo of bucket {ix} maps back");
            assert!(v <= bucket_hi(ix));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn percentile_matches_order_statistics_within_bucket() {
        let h = Histogram::new();
        let mut samples: Vec<u64> = (1..=1000u64).map(|i| i * 37).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for pct in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0] {
            let exact_ix = ((samples.len() as f64 * pct / 100.0).ceil() as usize)
                .saturating_sub(1)
                .min(samples.len() - 1);
            let exact = samples[exact_ix];
            let est = h.percentile(pct);
            assert_eq!(
                bucket_index(est),
                bucket_index(exact),
                "pct {pct}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(h.percentile(100.0), *samples.last().unwrap());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
