//! The paper's §4.3 cost model (Eq 4–6) and the Fig 17 crossover analysis.
//!
//! Hourly tenant cost is `C = Cser + Cw + Cbak`:
//!
//! * `Cser = n_ser·c_req + n_ser·ceil100(t_ser)/1000·M·c_d` — serving chunk
//!   requests (`n_ser` is the hourly *function invocation* rate; one object
//!   GET/PUT invokes `d + p` functions);
//! * `Cw = Nλ·f_w·c_req + Nλ·f_w·0.1·M·c_d` — warm-ups, `f_w = 60/T_warm`;
//! * `Cbak = Nλ·f_bak·c_req + Nλ·f_bak·t_bak·M·c_d` — delta-sync backups,
//!   `f_bak = 60/T_bak`.

use ic_common::pricing::Pricing;
use serde::{Deserialize, Serialize};

/// Rounds a duration in milliseconds up to the nearest 100 ms billing cycle
/// and converts to seconds (the paper's `ceil100(.)/1000`).
pub fn ceil100_secs(duration_ms: f64) -> f64 {
    if duration_ms <= 0.0 {
        return 0.1;
    }
    (duration_ms / 100.0).ceil() * 0.1
}

/// The hourly cost model of an InfiniCache deployment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Platform prices (`c_req`, `c_d`).
    pub pricing: Pricing,
    /// Function memory `M` in decimal gigabytes.
    pub memory_gb: f64,
    /// Pool size `Nλ`.
    pub n_lambda: u64,
    /// Warm-up interval `T_warm` in minutes.
    pub warmup_interval_mins: f64,
    /// Backup interval `T_bak` in minutes.
    pub backup_interval_mins: f64,
    /// Billed duration of one warm-up invocation in seconds (the paper uses
    /// one billing cycle, 0.1 s).
    pub warmup_duration_secs: f64,
    /// Billed duration `t_bak` of one backup round in seconds (depends on
    /// the delta size; 2 s reproduces Fig 13's backup share).
    pub backup_duration_secs: f64,
    /// Whether backups run at all (Fig 13d disables them).
    pub backup_enabled: bool,
}

impl CostModel {
    /// The §5.2 production configuration: 400 × 1.5 GB functions, 1-minute
    /// warm-ups, 5-minute backups.
    pub fn paper_production() -> Self {
        CostModel {
            pricing: Pricing::AWS_LAMBDA,
            memory_gb: 1.5,
            n_lambda: 400,
            warmup_interval_mins: 1.0,
            backup_interval_mins: 5.0,
            warmup_duration_secs: 0.1,
            backup_duration_secs: 2.0,
            backup_enabled: true,
        }
    }

    /// Eq 4: hourly cost of serving `invocations_per_hour` chunk requests
    /// whose mean duration is `invocation_ms` (billed per 100 ms cycle).
    pub fn serving_cost_hourly(&self, invocations_per_hour: f64, invocation_ms: f64) -> f64 {
        let billed_secs = ceil100_secs(invocation_ms);
        invocations_per_hour
            * (self.pricing.per_invocation
                + billed_secs * self.memory_gb * self.pricing.per_gb_second)
    }

    /// Eq 5: hourly warm-up cost.
    pub fn warmup_cost_hourly(&self) -> f64 {
        let fw = 60.0 / self.warmup_interval_mins;
        self.n_lambda as f64
            * fw
            * (self.pricing.per_invocation
                + self.warmup_duration_secs * self.memory_gb * self.pricing.per_gb_second)
    }

    /// Eq 6: hourly backup cost (zero when backups are disabled).
    pub fn backup_cost_hourly(&self) -> f64 {
        if !self.backup_enabled {
            return 0.0;
        }
        let fbak = 60.0 / self.backup_interval_mins;
        self.n_lambda as f64
            * fbak
            * (self.pricing.per_invocation
                + self.backup_duration_secs * self.memory_gb * self.pricing.per_gb_second)
    }

    /// Fixed hourly cost independent of traffic: `Cw + Cbak`.
    pub fn fixed_cost_hourly(&self) -> f64 {
        self.warmup_cost_hourly() + self.backup_cost_hourly()
    }

    /// Total hourly cost at an *object-level* access rate.
    ///
    /// Each object request fans out to `chunks_per_object` function
    /// invocations of `invocation_ms` each (Fig 17 uses RS(10+2) ⇒ 12, one
    /// billing cycle each).
    pub fn hourly_cost(
        &self,
        objects_per_hour: f64,
        chunks_per_object: u32,
        invocation_ms: f64,
    ) -> f64 {
        self.serving_cost_hourly(objects_per_hour * chunks_per_object as f64, invocation_ms)
            + self.fixed_cost_hourly()
    }

    /// Marginal cost of one more object request per hour.
    pub fn cost_per_object(&self, chunks_per_object: u32, invocation_ms: f64) -> f64 {
        let billed_secs = ceil100_secs(invocation_ms);
        chunks_per_object as f64
            * (self.pricing.per_invocation
                + billed_secs * self.memory_gb * self.pricing.per_gb_second)
    }

    /// Fig 17 crossover: the object access rate (requests/hour) at which
    /// InfiniCache's hourly cost overtakes a flat `elasticache_hourly` price.
    ///
    /// The cost is affine in the rate, so the crossover is closed-form.
    /// Returns `None` if the fixed cost alone already exceeds ElastiCache.
    pub fn crossover_rate(
        &self,
        elasticache_hourly: f64,
        chunks_per_object: u32,
        invocation_ms: f64,
    ) -> Option<f64> {
        let fixed = self.fixed_cost_hourly();
        if fixed >= elasticache_hourly {
            return None;
        }
        Some((elasticache_hourly - fixed) / self.cost_per_object(chunks_per_object, invocation_ms))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::pricing::CACHE_R5_24XLARGE;

    #[test]
    fn ceil100_matches_billing_semantics() {
        assert!((ceil100_secs(1.0) - 0.1).abs() < 1e-12);
        assert!((ceil100_secs(100.0) - 0.1).abs() < 1e-12);
        assert!((ceil100_secs(101.0) - 0.2).abs() < 1e-12);
        assert!((ceil100_secs(0.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn warmup_cost_matches_eq5_by_hand() {
        let m = CostModel::paper_production();
        // Nλ·fw·(c_req + 0.1·M·c_d) = 400·60·(2e-7 + 0.1·1.5·1.66667e-5)
        let expected = 400.0 * 60.0 * (0.2e-6 + 0.1 * 1.5 * 0.0000166667);
        assert!((m.warmup_cost_hourly() - expected).abs() < 1e-9);
        // ≈ $0.065/hour: warming 400 functions is cheap.
        assert!(m.warmup_cost_hourly() < 0.1);
    }

    #[test]
    fn backup_cost_respects_toggle() {
        let mut m = CostModel::paper_production();
        assert!(m.backup_cost_hourly() > 0.0);
        m.backup_enabled = false;
        assert_eq!(m.backup_cost_hourly(), 0.0);
    }

    #[test]
    fn backup_dominates_fixed_cost_as_in_fig13() {
        // §5.2: for the large-object-only workload the backup + warm-up
        // cost dominates. Backup alone should exceed warm-up.
        let m = CostModel::paper_production();
        assert!(m.backup_cost_hourly() > 2.0 * m.warmup_cost_hourly());
    }

    #[test]
    fn fig17_crossover_near_paper_value() {
        // Paper: hourly cost overtakes cache.r5.24xlarge at ≈312 K req/hour
        // (86 req/s) with 400 × 1.5 GB functions and RS(10+2).
        let m = CostModel::paper_production();
        let x = m
            .crossover_rate(CACHE_R5_24XLARGE.hourly_price, 12, 100.0)
            .expect("fixed cost below ElastiCache");
        assert!(
            (260_000.0..360_000.0).contains(&x),
            "crossover {x:.0} req/h, paper says ≈312K"
        );
    }

    #[test]
    fn hourly_cost_is_affine_in_rate() {
        let m = CostModel::paper_production();
        let c0 = m.hourly_cost(0.0, 12, 100.0);
        let c1 = m.hourly_cost(10_000.0, 12, 100.0);
        let c2 = m.hourly_cost(20_000.0, 12, 100.0);
        assert!(((c2 - c1) - (c1 - c0)).abs() < 1e-9);
        assert!((c0 - m.fixed_cost_hourly()).abs() < 1e-12);
    }

    #[test]
    fn no_crossover_when_fixed_cost_too_high() {
        let mut m = CostModel::paper_production();
        m.n_lambda = 4_000_000; // absurd pool: fixed cost alone > ElastiCache
        assert!(m
            .crossover_rate(CACHE_R5_24XLARGE.hourly_price, 12, 100.0)
            .is_none());
    }

    #[test]
    fn paper_literal_pricing_shifts_crossover_right() {
        // With the paper's literal $0.02/1M the crossover moves outward —
        // the sensitivity check `reproduce fig17_cost_crossover` prints.
        let mut m = CostModel::paper_production();
        let x_aws = m
            .crossover_rate(CACHE_R5_24XLARGE.hourly_price, 12, 100.0)
            .unwrap();
        m.pricing = Pricing::PAPER_LITERAL;
        let x_lit = m
            .crossover_rate(CACHE_R5_24XLARGE.hourly_price, 12, 100.0)
            .unwrap();
        assert!(x_lit > x_aws);
    }
}
