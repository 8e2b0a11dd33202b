//! Percentile summaries and empirical CDFs.
//!
//! Every figure harness reports either box-plot statistics (Fig 4, Fig 11)
//! or CDF series (Fig 1, Fig 15); this module is their common vocabulary.

/// Five-number-plus summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes a sample (empty input yields an all-NaN summary with
    /// `count == 0`).
    pub fn from_values(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                min: f64::NAN,
                p25: f64::NAN,
                p50: f64::NAN,
                p75: f64::NAN,
                p90: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Summary {
            count: sorted.len(),
            min: sorted[0],
            p25: percentile_sorted(&sorted, 0.25),
            p50: percentile_sorted(&sorted, 0.50),
            p75: percentile_sorted(&sorted, 0.75),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
            mean,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.2} p25={:.2} p50={:.2} p75={:.2} p90={:.2} p99={:.2} max={:.2} mean={:.2}",
            self.count,
            self.min,
            self.p25,
            self.p50,
            self.p75,
            self.p90,
            self.p99,
            self.max,
            self.mean
        )
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice
/// (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// An empirical CDF, reducible to a fixed number of plot points.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from a sample (values need not be sorted).
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
        Cdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no observation was added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` (linear interpolation).
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// Downsamples to at most `n` evenly spaced `(value, fraction)` points
    /// for printing a plot series.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let n = n.min(self.sorted.len());
        (0..n)
            .map(|i| {
                let q = if n == 1 {
                    1.0
                } else {
                    i as f64 / (n - 1) as f64
                };
                (self.quantile(q), q)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let values: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::from_values(&values);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p25 - 25.75).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_flagged() {
        let s = Summary::from_values(&[]);
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert!((percentile_sorted(&sorted, 0.5) - 5.0).abs() < 1e-12);
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn cdf_fraction_and_quantile_agree() {
        let cdf = Cdf::from_values((1..=1000).map(|x| x as f64));
        assert!((cdf.fraction_le(500.0) - 0.5).abs() < 1e-3);
        assert!((cdf.quantile(0.5) - 500.5).abs() < 1.0);
        assert_eq!(cdf.fraction_le(0.0), 0.0);
        assert_eq!(cdf.fraction_le(1e9), 1.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let cdf = Cdf::from_values([5.0, 1.0, 3.0, 2.0, 4.0]);
        let pts = cdf.points(5);
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts[0].0, 1.0);
        assert_eq!(pts[4].0, 5.0);
    }

    #[test]
    fn cdf_handles_empty_and_single() {
        let empty = Cdf::from_values(std::iter::empty());
        assert!(empty.is_empty());
        assert!(empty.points(5).is_empty());
        let single = Cdf::from_values([7.0]);
        assert_eq!(single.points(3), vec![(7.0, 1.0)]);
    }
}
