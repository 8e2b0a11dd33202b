//! Cloud pricing constants used by the billing meter and the cost model.
//!
//! The paper's Eq 4–6 use `c_req` (price per invocation) and `c_d` (price
//! per GB-second, billed in 100 ms cycles). The text prints "$0.02 per 1
//! million invocations", which contradicts AWS's published $0.20 per 1M; the
//! paper's own Fig 13 totals and Fig 17 crossover (~312 K requests/hour)
//! only reproduce with $0.20/1M, so that is our default (`reproduce
//! fig17_cost_crossover` prints the sensitivity check).

/// Why an invocation ran — the categories of Fig 13's stacked cost bars.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CostCategory {
    /// Serving GET/PUT chunk requests.
    Serving,
    /// Keep-alive warm-up invocations (`Twarm`).
    Warmup,
    /// Delta-sync backup rounds (`Tbak`).
    Backup,
}

impl CostCategory {
    /// All categories, in display order.
    pub const ALL: [CostCategory; 3] = [
        CostCategory::Serving,
        CostCategory::Warmup,
        CostCategory::Backup,
    ];

    /// Stable array index.
    pub fn index(self) -> usize {
        match self {
            CostCategory::Serving => 0,
            CostCategory::Warmup => 1,
            CostCategory::Backup => 2,
        }
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::Serving => "PUT/GET",
            CostCategory::Warmup => "Warm-up",
            CostCategory::Backup => "Backup",
        }
    }
}

/// Prices for the serverless platform and the baselines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pricing {
    /// Dollars per function invocation (`c_req`).
    pub per_invocation: f64,
    /// Dollars per GB-second of billed duration (`c_d`).
    pub per_gb_second: f64,
}

impl Pricing {
    /// AWS Lambda pricing as used to reproduce the paper's numbers.
    pub const AWS_LAMBDA: Pricing = Pricing {
        per_invocation: 0.20 / 1_000_000.0,
        per_gb_second: 0.000_016_666_7,
    };

    /// The constant exactly as printed in the paper's §2.2 ($0.02 per 1M);
    /// kept for the sensitivity check in the cost benches.
    pub const PAPER_LITERAL: Pricing = Pricing {
        per_invocation: 0.02 / 1_000_000.0,
        per_gb_second: 0.000_016_666_7,
    };

    /// Cost of one invocation whose duration was billed as `billed_secs`
    /// (already rounded up to 100 ms cycles) on a function of `memory_gb`
    /// *decimal* gigabytes.
    pub fn invocation_cost(&self, billed_secs: f64, memory_gb: f64) -> f64 {
        self.per_invocation + billed_secs * memory_gb * self.per_gb_second
    }
}

impl Default for Pricing {
    fn default() -> Self {
        Pricing::AWS_LAMBDA
    }
}

/// An ElastiCache (Redis) instance type from the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElastiCacheInstance {
    /// AWS instance type name.
    pub name: &'static str,
    /// Usable memory in decimal gigabytes (AWS publishes GiB-ish figures;
    /// we use the values the paper quotes, e.g. 635.61 for r5.24xlarge).
    pub memory_gb: f64,
    /// On-demand price in dollars per hour.
    pub hourly_price: f64,
    /// Network baseline bandwidth in gigabits per second.
    pub network_gbps: f64,
}

/// `cache.r5.xlarge`: the node type of the paper's 10-node scale-out
/// deployment (Fig 11f).
pub const CACHE_R5_XLARGE: ElastiCacheInstance = ElastiCacheInstance {
    name: "cache.r5.xlarge",
    memory_gb: 26.04,
    hourly_price: 0.432,
    network_gbps: 10.0,
};

/// `cache.r5.8xlarge`: the paper's 1-node microbenchmark deployment
/// (Fig 11f).
pub const CACHE_R5_8XLARGE: ElastiCacheInstance = ElastiCacheInstance {
    name: "cache.r5.8xlarge",
    memory_gb: 209.55,
    hourly_price: 3.456,
    network_gbps: 10.0,
};

/// `cache.r5.24xlarge`: the production-workload comparison instance; 50 h ×
/// $10.368/h = $518.40, the paper's Fig 13 ElastiCache total.
pub const CACHE_R5_24XLARGE: ElastiCacheInstance = ElastiCacheInstance {
    name: "cache.r5.24xlarge",
    memory_gb: 635.61,
    hourly_price: 10.368,
    network_gbps: 25.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticache_fifty_hours_matches_fig13() {
        let total = CACHE_R5_24XLARGE.hourly_price * 50.0;
        assert!((total - 518.40).abs() < 1e-9);
    }

    #[test]
    fn invocation_cost_composition() {
        let p = Pricing::AWS_LAMBDA;
        // One 100 ms invocation of a 1.5 GB function.
        let c = p.invocation_cost(0.1, 1.5);
        let expected = 0.2e-6 + 0.1 * 1.5 * 0.0000166667;
        assert!((c - expected).abs() < 1e-15);
    }

    #[test]
    fn paper_literal_is_ten_times_cheaper_per_request() {
        assert!(
            (Pricing::AWS_LAMBDA.per_invocation / Pricing::PAPER_LITERAL.per_invocation - 10.0)
                .abs()
                < 1e-9
        );
    }
}
