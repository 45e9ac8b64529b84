//! Metric primitives: monotonic counters, gauges, and log-bucketed
//! histograms. All recording paths are lock-free (plain atomics) so hot
//! loops and many threads can record concurrently without contention;
//! snapshots are relaxed and therefore approximate only while writers
//! are actively racing, exact once they quiesce.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Values `0..LINEAR_MAX` get one exact bucket each.
const LINEAR_MAX: u64 = 8;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// 8 exact buckets + 61 octaves (msb position 3..=63) × 8 sub-buckets.
pub const NUM_BUCKETS: usize = LINEAR_MAX as usize + (64 - SUB_BITS as usize) * SUBS;

/// Bucket index for a value. Exact below `LINEAR_MAX` (8); above it the
/// bucket width is `2^(msb-3)`, so the relative quantization error is
/// bounded by `1/8 = 12.5%` (midpoint reporting halves that).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        LINEAR_MAX as usize + (msb - SUB_BITS) as usize * SUBS + sub
    }
}

/// Inclusive `(low, high)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket {i} out of range");
    if i < LINEAR_MAX as usize {
        return (i as u64, i as u64);
    }
    let rel = i - LINEAR_MAX as usize;
    let shift = (rel / SUBS) as u32;
    let sub = (rel % SUBS) as u64;
    let low = (1u64 << (shift + SUB_BITS)) + (sub << shift);
    // Add the width-minus-one, not width-then-minus: the top bucket's
    // `low + width` is exactly 2^64 and would overflow.
    let high = low + ((1u64 << shift) - 1);
    (low, high)
}

/// Log-bucketed histogram over `u64` values (typically microseconds).
///
/// Recording is one atomic add into a fixed bucket array; quantile
/// estimates carry a ≤ 6.25% relative error from midpoint reporting
/// (bucket width is ≤ 12.5% of the value), verified by the test suite.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.max.load(Ordering::Relaxed)
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Quantile estimate: the midpoint of the bucket holding the
    /// `q`-quantile observation, clamped to the recorded min/max.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            if cum >= target {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..LINEAR_MAX {
            let i = bucket_index(v);
            assert_eq!(bucket_bounds(i), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Buckets tile u64 without gaps or overlaps.
        let mut expected_low = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(
                lo,
                expected_low,
                "bucket {i} must start where {} ended",
                i.wrapping_sub(1)
            );
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, NUM_BUCKETS - 1);
                return;
            }
            expected_low = hi + 1;
        }
        panic!("last bucket must end at u64::MAX");
    }

    #[test]
    fn values_land_in_their_bucket() {
        for v in [
            0,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} not in [{lo}, {hi}]");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_error_is_within_documented_bound() {
        // Above the linear range the bucket width is 1/8 of the bucket
        // base and we report the midpoint, so the estimate must be
        // within 6.25% of the true quantile.
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.50f64, 0.90, 0.99] {
            let truth = (q * 100_000.0).ceil() as u64;
            let est = h.percentile(q);
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(
                err <= 0.0625,
                "p{:.0}: estimate {est} vs true {truth} (relative error {err:.4})",
                q * 100.0
            );
        }
        assert_eq!(h.percentile(1.0).max(h.max()), 100_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // 8 threads hammering the same counter and histogram must not
        // lose a single increment (the recording path is atomic adds).
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(h.max(), THREADS as u64 * PER_THREAD - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_value_statistics() {
        let h = Histogram::new();
        h.record(100);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.percentile(0.5), 100);
        assert_eq!(h.percentile(0.99), 100);
    }
}
