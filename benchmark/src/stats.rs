//! Order statistics: nearest-rank percentiles with the "ten samples
//! beyond" rule, medians (of rounds and of runs), and quartiles.

/// A percentile that the sample cannot support: fewer than
/// [`MIN_BEYOND`] samples lie beyond it, so it is one outlier away from
/// being the maximum. Carries the nearest-rank value anyway, for callers
/// (the smoke run) that only need *a* number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unsupported {
    /// The nearest-rank value of the too-small sample (0 when empty).
    pub nearest: u64,
    /// Samples in the set.
    pub samples: usize,
}

/// A reported percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p · n)` (1-based). `p` is a fraction in `(0, 1]`.
///
/// # Errors
///
/// [`Unsupported`] when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank (so p99 needs n ≥ 1000, p50 needs n ≥ 20).
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, Unsupported> {
    let n = sorted.len();
    if n == 0 {
        return Err(Unsupported {
            nearest: 0,
            samples: 0,
        });
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    if n - rank >= MIN_BEYOND {
        Ok(value)
    } else {
        Err(Unsupported {
            nearest: value,
            samples: n,
        })
    }
}

/// Median of a set of per-round (or per-run) values; the mean of the two
/// middle values for an even count. 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns as `[0]` and
/// `[2]`, which is what the acceptance check computes its spread from.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        // Position q·(n+1)/4 on a 1-based axis; the interval is clamped
        // into the sample and the remainder extrapolates past its ends,
        // exactly as CPython does.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// `(max − min) / median` of a set of per-round values: how far a host
/// disturbance pulled the rounds apart. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Ok(50));
        assert_eq!(percentile(&v, 0.90), Ok(90));
        // p99 of 100 samples has one sample beyond it: unsupported, but
        // the nearest-rank value is still reported inside the error.
        assert_eq!(
            percentile(&v, 0.99),
            Err(Unsupported {
                nearest: 99,
                samples: 100
            })
        );
    }

    #[test]
    fn ten_beyond_rule_boundary() {
        // n = 1000: rank 990, exactly ten beyond — the smallest sample
        // that supports a p99.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990));
        let v: Vec<u64> = (1..=999).collect();
        assert!(percentile(&v, 0.99).is_err());
        // p50 needs twenty samples.
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 0.5), Ok(10));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(
            percentile(&[], 0.5),
            Err(Unsupported {
                nearest: 0,
                samples: 0
            })
        );
    }

    #[test]
    fn median_of_rounds_ignores_one_spoiled_round() {
        assert_eq!(median(&[100.0, 101.0, 20.0, 99.0, 102.0]), 100.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn round_spread() {
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
