//! The paper's §4.3 availability model (Eq 1–3).
//!
//! An object is erasure-coded into `n = d + p` chunks on distinct nodes out
//! of `Nλ`; it is lost when at least `m = p + 1` of its chunks sit on
//! simultaneously reclaimed nodes. Given the distribution `pd(r)` of the
//! number of nodes reclaimed per observation window (measured empirically in
//! §4.1), Eq 2 integrates the hypergeometric loss probability over `r`.

use crate::comb::hypergeometric_pmf;

/// Eq 1–2 inner term: probability that an object is lost **given** exactly
/// `r` of the `n_lambda` nodes were reclaimed: `P(r) = Σ_{i=m}^{n} p_i`.
pub fn object_loss_given_reclaims(n_lambda: u64, n: u64, m: u64, r: u64) -> f64 {
    (m..=n.min(r))
        .map(|i| hypergeometric_pmf(n_lambda, r, n, i))
        .sum()
}

/// Eq 3 approximation: `P(r) ≈ p_m` (the first term dominates; the paper
/// notes `p_m / p_{m+1}` is often > 10).
pub fn object_loss_given_reclaims_approx(n_lambda: u64, n: u64, m: u64, r: u64) -> f64 {
    hypergeometric_pmf(n_lambda, r, n, m)
}

/// Eq 2: the probability `P_l` of losing an object in one observation
/// window, given the reclaim-count distribution `pd` where `pd[r]` is the
/// probability that exactly `r` nodes are reclaimed in the window.
///
/// `pd` may be shorter than `n_lambda + 1`; missing entries are zero.
pub fn object_loss_probability(n_lambda: u64, n: u64, m: u64, pd: &[f64]) -> f64 {
    pd.iter()
        .enumerate()
        .skip(m as usize)
        .map(|(r, &p)| object_loss_given_reclaims(n_lambda, n, m, r as u64) * p)
        .sum()
}

/// Availability over a window of `intervals` back-to-back observation
/// windows, each with per-window loss probability `p_loss`: `(1 − P_l)^k`.
///
/// The paper quotes per-minute P_l (Twarm = 1 min) and derives one-hour
/// availability with `k = 60`.
pub fn availability_over(p_loss: f64, intervals: u32) -> f64 {
    (1.0 - p_loss).powi(intervals as i32)
}

/// The paper's §4.3 case study configuration: `Nλ = 400`, RS(10+2) so
/// `n = 12`, `m = 3`, warm-up every minute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CaseStudy {
    /// Total Lambda nodes.
    pub n_lambda: u64,
    /// Chunks per object (`d + p`).
    pub n: u64,
    /// Minimum simultaneous chunk losses that destroy an object (`p + 1`).
    pub m: u64,
}

impl CaseStudy {
    /// The configuration used for all §4.3 numbers.
    pub fn paper() -> Self {
        CaseStudy {
            n_lambda: 400,
            n: 12,
            m: 3,
        }
    }

    /// Per-window loss probability under a reclaim-count distribution.
    pub fn loss(&self, pd: &[f64]) -> f64 {
        object_loss_probability(self.n_lambda, self.n, self.m, pd)
    }

    /// One-hour availability when the window is one minute.
    pub fn hourly_availability(&self, pd_per_minute: &[f64]) -> f64 {
        availability_over(self.loss(pd_per_minute), 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{poisson_pmf, zipf_pmf};

    #[test]
    fn loss_zero_when_fewer_reclaims_than_m() {
        assert_eq!(object_loss_given_reclaims(400, 12, 3, 2), 0.0);
        assert_eq!(object_loss_given_reclaims(400, 12, 3, 0), 0.0);
    }

    #[test]
    fn loss_grows_with_reclaim_count() {
        let mut last = 0.0;
        for r in 3..50 {
            let p = object_loss_given_reclaims(400, 12, 3, r);
            assert!(p >= last, "P(r) must be nondecreasing in r");
            last = p;
        }
    }

    #[test]
    fn total_reclaim_means_certain_loss() {
        let p = object_loss_given_reclaims(400, 12, 3, 400);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn approximation_close_for_paper_case() {
        // §4.3: for r=12, P(r) is "only about 5% larger" than p3.
        let exact = object_loss_given_reclaims(400, 12, 3, 12);
        let approx = object_loss_given_reclaims_approx(400, 12, 3, 12);
        let rel = (exact - approx) / exact;
        assert!(rel > 0.0 && rel < 0.07, "relative gap {rel}");
    }

    #[test]
    fn paper_availability_range_reproduced() {
        // The paper derives P_l = 0.0039% .. 0.11% per minute across the
        // empirical reclaim distributions of §4.1, i.e. hourly availability
        // 93.36% .. 99.76%. A gentle Zipf over reclaim counts (most minutes
        // reclaim nothing) should give a loss inside/below that band, and a
        // harsh Poisson(36/60≈0.6... but spiky) near the top.
        let cs = CaseStudy::paper();

        // Benign regime: ~97% of minutes reclaim 0 nodes, tail to 30.
        let mut benign = vec![0.0; 31];
        benign[0] = 0.97;
        let tail: f64 = (1..=30).map(|r| zipf_pmf(r, 2.0, 30)).sum();
        for (r, slot) in benign.iter_mut().enumerate().skip(1) {
            *slot = 0.03 * zipf_pmf(r as u64, 2.0, 30) / tail;
        }
        let p_benign = cs.loss(&benign);

        // Harsh regime: Poisson with mean 7 reclaims per minute (the spiky
        // December/January policies average far fewer, but burst high).
        let harsh: Vec<f64> = (0..=120).map(|r| poisson_pmf(r, 7.0)).collect();
        let p_harsh = cs.loss(&harsh);

        assert!(p_benign < p_harsh);
        assert!(
            p_benign > 1e-7 && p_benign < 2e-3,
            "benign per-minute loss {p_benign}"
        );
        assert!(p_harsh < 3e-3, "harsh per-minute loss {p_harsh}");

        let avail_benign = cs.hourly_availability(&benign);
        let avail_harsh = cs.hourly_availability(&harsh);
        assert!(avail_benign > avail_harsh);
        assert!(
            avail_benign > 0.99,
            "benign hourly availability {avail_benign}"
        );
        assert!(
            avail_harsh > 0.90,
            "harsh hourly availability {avail_harsh}"
        );
    }

    #[test]
    fn availability_window_composition() {
        let p = 0.0011; // paper's worst per-minute loss
        let hourly = availability_over(p, 60);
        assert!((hourly - 0.9361).abs() < 0.001, "hourly {hourly}");
        let best = availability_over(0.000039, 60);
        assert!((best - 0.99766).abs() < 0.0005, "best {best}");
    }
}
