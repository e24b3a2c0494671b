//! Sample summaries: percentiles, CDFs, means.

use serde::Serialize;

/// Summary statistics over a set of latency (or other scalar) samples.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub median: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarises a slice of samples. Returns an all-zero summary for an
    /// empty slice (experiments report "no data" rather than panicking).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                median: 0.0,
                p5: 0.0,
                p95: 0.0,
                p99: 0.0,
                min: 0.0,
                max: 0.0,
                stddev: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / sorted.len() as f64;
        Summary {
            count: sorted.len(),
            mean,
            median: percentile_sorted(&sorted, 50.0),
            p5: percentile_sorted(&sorted, 5.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            stddev: var.sqrt(),
        }
    }
}

/// Linear-interpolated percentile over *sorted* samples; `p` in [0, 100].
///
/// # Panics
///
/// Panics if `p` is outside [0, 100] or `sorted` is empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// An empirical CDF as `(value, cumulative_probability)` points, suitable
/// for regenerating the paper's latency CDF figures.
#[derive(Debug, Clone, Serialize)]
pub struct Cdf {
    /// The CDF points, sorted by value.
    pub points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Builds an ECDF from samples, downsampled to at most `max_points`
    /// evenly spaced quantiles.
    pub fn of(samples: &[f64], max_points: usize) -> Cdf {
        assert!(max_points >= 2, "need at least two CDF points");
        if samples.is_empty() {
            return Cdf { points: Vec::new() };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = sorted.len();
        let step = (n.max(2) - 1) as f64 / (max_points.min(n).max(2) - 1) as f64;
        let mut points = Vec::new();
        let mut i = 0.0;
        while (i as usize) < n {
            let idx = i as usize;
            points.push((sorted[idx], (idx + 1) as f64 / n as f64));
            i += step.max(1.0);
        }
        if points.last().map(|&(v, _)| v) != Some(sorted[n - 1]) {
            points.push((sorted[n - 1], 1.0));
        }
        Cdf { points }
    }

    /// The value at cumulative probability `q` (0–1), by scanning points.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.points.iter().find(|&&(_, p)| p >= q).map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert!((percentile_sorted(&sorted, 50.0) - 5.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 7919.0) % 100.0).collect();
        let cdf = Cdf::of(&samples, 50);
        assert!(cdf.points.len() <= 51);
        for w in cdf.points.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must be sorted");
            assert!(w[0].1 <= w[1].1, "probabilities must be monotone");
        }
        assert!((cdf.points.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_lookup() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let cdf = Cdf::of(&samples, 100);
        let median = cdf.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 1.0, "{median}");
        assert_eq!(cdf.quantile(1.0), Some(100.0));
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(Cdf::of(&[], 10).points.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_of_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
