//! Provider reclamation policies (§4.1, Fig 8/9).
//!
//! The paper's six-month black-box study found two qualitative regimes:
//! *spike* days where almost the whole fleet is reclaimed every ~6 hours
//! (with per-minute counts following a Zipf-like distribution), and
//! *churn* days where reclaims arrive continuously (per-minute counts
//! Poisson-distributed, e.g. ~36 reclaims/hour in Dec'19/Jan'20). Policies
//! here produce "how many instances to reclaim this minute"; the platform
//! picks victims uniformly at random among idle instances.

use ic_analytics::dist::{poisson_sample, ZipfSampler};
use rand::rngs::SmallRng;
use rand::Rng;

/// A reclamation policy queried once per simulated minute.
pub trait ReclaimPolicy: Send {
    /// Number of instances to reclaim during `minute`.
    fn reclaims_for_minute(&mut self, minute: u64, rng: &mut SmallRng) -> usize;

    /// Label for reports (matches the paper's legend strings).
    fn name(&self) -> &str;
}

/// Never reclaims (instances still die to the idle timeout).
#[derive(Clone, Debug, Default)]
pub struct NoReclaim;

impl ReclaimPolicy for NoReclaim {
    fn reclaims_for_minute(&mut self, _minute: u64, _rng: &mut SmallRng) -> usize {
        0
    }
    fn name(&self) -> &str {
        "none"
    }
}

/// Continuous churn: per-minute counts are Poisson(`per_hour`/60) — the
/// Oct/Dec/Jan regime.
#[derive(Clone, Debug)]
pub struct HourlyPoisson {
    /// Mean reclaims per hour.
    pub per_hour: f64,
    label: String,
}

impl HourlyPoisson {
    /// Creates the policy with a display label.
    pub fn new(per_hour: f64, label: impl Into<String>) -> Self {
        HourlyPoisson {
            per_hour,
            label: label.into(),
        }
    }
}

impl ReclaimPolicy for HourlyPoisson {
    fn reclaims_for_minute(&mut self, _minute: u64, rng: &mut SmallRng) -> usize {
        poisson_sample(rng, self.per_hour / 60.0) as usize
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// Mass-reclaim spikes every ~`period_mins` (±`jitter_mins`), reclaiming
/// `spike_fraction` of the fleet across a short burst window, plus light
/// Poisson background churn — the Aug/Sep regime.
#[derive(Clone, Debug)]
pub struct PeriodicSpike {
    /// Fleet size the spike fraction applies to.
    pub fleet: usize,
    /// Minutes between spikes (the paper observed ≈ 6 h).
    pub period_mins: u64,
    /// Fraction of the fleet reclaimed per spike.
    pub spike_fraction: f64,
    /// Spike spread: the burst is smeared over this many minutes.
    pub burst_mins: u64,
    /// Background churn rate per hour.
    pub base_per_hour: f64,
    /// Spike-center jitter in minutes (deterministic per spike index).
    pub jitter_mins: u64,
    label: String,
}

impl PeriodicSpike {
    /// Creates the policy with a display label.
    pub fn new(
        fleet: usize,
        period_mins: u64,
        spike_fraction: f64,
        label: impl Into<String>,
    ) -> Self {
        PeriodicSpike {
            fleet,
            period_mins,
            spike_fraction,
            burst_mins: 20,
            base_per_hour: 2.0,
            jitter_mins: 25,
            label: label.into(),
        }
    }

    fn spike_center(&self, spike_idx: u64) -> u64 {
        // Mid-period center with deterministic jitter from the spike index
        // (the paper saw spikes around hours 6, 12, 20 — roughly periodic
        // but not on the dot).
        let j = ic_common::hash::splitmix64(spike_idx.wrapping_mul(0x9e37))
            % (2 * self.jitter_mins + 1);
        self.period_mins * spike_idx + self.period_mins / 2 + j - self.jitter_mins
    }
}

impl ReclaimPolicy for PeriodicSpike {
    fn reclaims_for_minute(&mut self, minute: u64, rng: &mut SmallRng) -> usize {
        let mut n = poisson_sample(rng, self.base_per_hour / 60.0) as usize;
        let spike_idx = minute / self.period_mins;
        for idx in spike_idx.saturating_sub(1)..=spike_idx {
            let center = self.spike_center(idx);
            let start = center.saturating_sub(self.burst_mins / 2);
            if (start..start + self.burst_mins).contains(&minute) {
                let per_minute = self.fleet as f64 * self.spike_fraction / self.burst_mins as f64;
                n += poisson_sample(rng, per_minute) as usize;
            }
        }
        n
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// Bursty churn with Zipf-distributed burst sizes — the Sep/Nov regime in
/// Fig 9 (most minutes reclaim nothing; occasional tens).
#[derive(Debug)]
pub struct ZipfBurst {
    /// Per-minute probability that a burst happens at all.
    pub p_burst: f64,
    sampler: ZipfSampler,
    label: String,
}

impl ZipfBurst {
    /// Burst sizes 1..=`max_burst` with Zipf exponent `s`.
    pub fn new(p_burst: f64, s: f64, max_burst: usize, label: impl Into<String>) -> Self {
        ZipfBurst {
            p_burst,
            sampler: ZipfSampler::new(max_burst, s),
            label: label.into(),
        }
    }
}

impl ReclaimPolicy for ZipfBurst {
    fn reclaims_for_minute(&mut self, _minute: u64, rng: &mut SmallRng) -> usize {
        if rng.gen::<f64>() < self.p_burst {
            self.sampler.sample(rng) + 1
        } else {
            0
        }
    }
    fn name(&self) -> &str {
        &self.label
    }
}

/// The six policy regimes of Fig 8/9, labelled like the paper's legend.
/// `fleet` is the deployed function count (the paper used 300–400).
pub fn paper_presets(fleet: usize) -> Vec<Box<dyn ReclaimPolicy>> {
    vec![
        Box::new(PeriodicSpike::new(fleet, 360, 0.95, "9 min (08/21/19)")),
        Box::new(ZipfBurst::new(0.035, 1.4, 40, "1 min (09/15/19)")),
        Box::new(HourlyPoisson::new(22.0, "1 min (10/20/19)")),
        Box::new(ZipfBurst::new(0.05, 1.3, 36, "1 min (11/06/19)")),
        Box::new(HourlyPoisson::new(36.0, "1 min (12/26/19)")),
        Box::new(HourlyPoisson::new(36.0, "1 min (01/09/20)")),
    ]
}

/// The production study's regime (§5.2, Fig 14's reclaim line): the
/// Dec'19 background churn of 36 reclaims/hour per 400 functions, scaled
/// to `fleet`, plus ~6-hourly spikes sweeping 85% of the fleet.
pub fn production_churn(fleet: usize) -> PeriodicSpike {
    let mut spike = PeriodicSpike::new(fleet, 360, 0.85, "trace churn+spikes");
    spike.base_per_hour = 36.0 * fleet as f64 / 400.0;
    spike
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn day_counts(policy: &mut dyn ReclaimPolicy, seed: u64) -> Vec<usize> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..24 * 60)
            .map(|m| policy.reclaims_for_minute(m, &mut rng))
            .collect()
    }

    #[test]
    fn no_reclaim_is_always_zero() {
        let mut p = NoReclaim;
        assert!(day_counts(&mut p, 1).iter().all(|&c| c == 0));
    }

    #[test]
    fn hourly_poisson_hits_its_hourly_mean() {
        let mut p = HourlyPoisson::new(36.0, "dec");
        let counts = day_counts(&mut p, 2);
        let total: usize = counts.iter().sum();
        let per_hour = total as f64 / 24.0;
        assert!((per_hour - 36.0).abs() < 6.0, "observed {per_hour}/h");
    }

    #[test]
    fn periodic_spike_reclaims_most_of_fleet_each_period() {
        let fleet = 400;
        let mut p = PeriodicSpike::new(fleet, 360, 0.95, "aug");
        let counts = day_counts(&mut p, 3);
        // Four 6-hour windows in a day; each should reclaim ~380.
        for w in 0..4 {
            let total: usize = counts[w * 360..(w + 1) * 360].iter().sum();
            assert!(
                (300..520).contains(&total),
                "window {w} reclaimed {total}, expected ≈380"
            );
        }
        // Off-spike minutes are mostly quiet.
        let quiet = counts.iter().filter(|&&c| c == 0).count();
        assert!(quiet > 24 * 60 / 2, "only {quiet} quiet minutes");
    }

    #[test]
    fn zipf_burst_is_quiet_with_heavy_tail() {
        let mut p = ZipfBurst::new(0.04, 1.4, 40, "sep");
        let counts = day_counts(&mut p, 4);
        let quiet = counts.iter().filter(|&&c| c == 0).count() as f64 / counts.len() as f64;
        assert!(quiet > 0.9, "quiet fraction {quiet}");
        let max = *counts.iter().max().unwrap();
        assert!(max >= 5, "no heavy bursts seen (max {max})");
    }

    #[test]
    fn presets_carry_paper_labels() {
        let presets = paper_presets(400);
        assert_eq!(presets.len(), 6);
        assert!(presets[0].name().contains("08/21/19"));
        assert!(
            presets
                .iter()
                .filter(|p| p.name().contains("1 min"))
                .count()
                == 5
        );
    }

    #[test]
    fn policies_are_deterministic_under_seed() {
        let mut a = HourlyPoisson::new(36.0, "x");
        let mut b = HourlyPoisson::new(36.0, "x");
        assert_eq!(day_counts(&mut a, 9), day_counts(&mut b, 9));
    }
}
