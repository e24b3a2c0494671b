//! Log-linear histograms with cheap recording and quantile extraction.
//!
//! Values are bucketed HdrHistogram-style: exact buckets below 16, then 16
//! linear sub-buckets per power of two, giving a worst-case relative
//! quantile error of ~6%. Recording is O(1) (a couple of shifts plus an
//! array increment), which keeps the hot-path cost of an enabled sink flat.

/// Linear sub-buckets per power of two (2^4).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Largest value stored in a regular bucket; anything above lands in the
/// overflow bucket. 2^40 ns is ~18 minutes of sojourn time, far beyond any
/// simulated queue delay; byte/frame magnitudes fit comfortably too.
pub const OVERFLOW_THRESHOLD: u64 = 1 << 40;

const GROUPS: usize = (40 - SUB_BITS as usize) + 1;
const BUCKETS: usize = GROUPS * SUB as usize;

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        (((msb - SUB_BITS as u64 + 1) * SUB) + ((v >> shift) & (SUB - 1))) as usize
    }
}

/// Inclusive upper bound of the value range covered by `index`.
fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        i
    } else {
        let msb = i / SUB + SUB_BITS as u64 - 1;
        let sub = i % SUB;
        let width = 1u64 << (msb - SUB_BITS as u64);
        (1u64 << msb) + sub * width + (width - 1)
    }
}

/// A log-linear histogram over `u64` magnitudes (nanoseconds, bytes,
/// frames, ...).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Empty until the first sample below [`OVERFLOW_THRESHOLD`]: a key
    /// that is resolved but never recorded costs no bucket array.
    counts: Vec<u32>,
    /// Samples at or above [`OVERFLOW_THRESHOLD`].
    overflow: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v >= OVERFLOW_THRESHOLD {
            self.overflow += 1;
        } else {
            if self.counts.is_empty() {
                self.counts = vec![0; BUCKETS];
            }
            self.counts[bucket_index(v)] += 1;
        }
    }

    /// Folds another histogram into this one. Buckets are summed, so the
    /// merge of per-shard histograms answers quantile queries exactly as
    /// if every sample had been recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            for (c, &o) in self.counts.iter_mut().zip(other.counts.iter()) {
                *c += o;
            }
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of samples that landed in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q` in [0, 1]: an upper bound of the bucket holding the
    /// sample of that rank, clamped to the observed min/max. Returns 0 for
    /// an empty histogram. Quantiles that fall into the overflow bucket
    /// report the exact observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += u64::from(c);
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        // Rank lies in the overflow bucket.
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_contiguous_and_ordered() {
        let mut prev_upper = None;
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            if let Some(p) = prev_upper {
                assert!(upper > p, "bucket {i} upper {upper} <= prev {p}");
            }
            prev_upper = Some(upper);
            assert_eq!(
                bucket_index(upper),
                i,
                "upper bound {upper} maps back to its own bucket"
            );
        }
        assert_eq!(bucket_upper(BUCKETS - 1), OVERFLOW_THRESHOLD - 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(123_456);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 123_456, "q={q}");
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 123_456);
        assert_eq!(h.max(), 123_456);
    }

    #[test]
    fn overflow_bucket_counts_and_reports_max() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(OVERFLOW_THRESHOLD);
        h.record(OVERFLOW_THRESHOLD * 3);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), OVERFLOW_THRESHOLD * 3);
        // p99 ranks into the overflow bucket and reports the exact max.
        assert_eq!(h.quantile(0.99), OVERFLOW_THRESHOLD * 3);
        // Rank 1 (q <= 1/3) still resolves from the regular buckets, within
        // one sub-bucket of the sample.
        let q33 = h.quantile(0.33);
        assert!((100..104).contains(&q33), "q33={q33}");
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.07, "q={q}: got {got}, exact {exact}, rel {rel}");
            assert!(got >= exact, "bucket upper bound never under-reports");
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn zero_and_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 16.0), 0);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn buckets_are_allocated_on_first_record_and_merge_either_way() {
        let mut empty = Histogram::new();
        assert_eq!(empty.counts.capacity(), 0, "no buckets before a sample");
        let mut full = Histogram::new();
        for v in [3u64, 300, 30_000] {
            full.record(v);
        }
        // Into an unallocated histogram, and an unallocated one into a
        // recorded one: both answer as if every sample were recorded here.
        empty.merge(&full);
        full.merge(&Histogram::new());
        for h in [&empty, &full] {
            assert_eq!((h.count(), h.min(), h.max()), (3, 3, 30_000));
            assert!((300..=303).contains(&h.quantile(0.5)));
        }
        // Only-overflow samples never allocate buckets, and still merge.
        let mut over = Histogram::new();
        over.record(OVERFLOW_THRESHOLD);
        assert!(over.counts.is_empty());
        over.merge(&full);
        assert_eq!((over.count(), over.overflow_count()), (4, 1));
    }
}
