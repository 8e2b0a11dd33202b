//! Shared plumbing for the `reproduce` binary: the run scale, the lazily
//! built Dallas trace and production study, and table formatting. The
//! production study is what Fig 13/14/15/16 and Table 1 all read from, so
//! one run computes it at most once.
//!
//! Two scales:
//!
//! * [`Scale::Full`] (default) — the paper's parameters (50-hour trace,
//!   full sweeps);
//! * [`Scale::Quick`] (`reproduce --quick`) — scaled-down runs for
//!   smoke-testing the harness.

use std::cell::OnceCell;

use ic_analytics::Summary;
use ic_baselines::ElastiCacheDeployment;
use ic_common::{DeploymentConfig, SimDuration};
use ic_simfaas::reclaim::production_churn;
use ic_workload::{generate, Trace, WorkloadSpec, LARGE_OBJECT_BYTES};
use infinicache::experiments::{
    replay_elasticache, replay_s3, trace_replay, BaselineRecord, TraceReport,
};
use infinicache::params::SimParams;

/// Run scale of one `reproduce` run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Paper-scale parameters.
    Full,
    /// Scaled-down smoke run.
    Quick,
}

/// What every artifact reads: the run's scale and the inputs shared
/// between artifacts, each built on first use.
pub struct Ctx {
    /// The run's scale.
    pub scale: Scale,
    trace: OnceCell<Trace>,
    study: OnceCell<ProductionStudy>,
}

impl Ctx {
    /// A context with nothing built yet.
    pub fn new(scale: Scale) -> Self {
        Ctx {
            scale,
            trace: OnceCell::new(),
            study: OnceCell::new(),
        }
    }

    /// `full` at full scale, `quick` at quick scale.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }

    /// Standard "what figure is this" banner.
    pub fn banner(&self, fig: &str, what: &str) {
        println!("############################################################");
        println!("# {fig}: {what}");
        println!("# scale: {:?}", self.scale);
        println!("############################################################");
    }

    /// The Dallas trace for the run's scale.
    pub fn dallas_trace(&self) -> &Trace {
        self.trace.get_or_init(|| match self.scale {
            Scale::Full => generate(&WorkloadSpec::dallas(), 2020),
            Scale::Quick => {
                let mut spec = WorkloadSpec::dallas();
                // 1/10 of the objects and accesses over a 10-hour horizon.
                spec.objects /= 10;
                spec.accesses /= 10;
                spec.rate = ic_workload::model::RateProfile::dallas_50h();
                spec.rate.hourly.truncate(10);
                generate(&spec, 2020)
            }
        })
    }

    /// The production study for the run's scale.
    pub fn production_study(&self) -> &ProductionStudy {
        self.study.get_or_init(|| ProductionStudy::run(self))
    }
}

/// One workload setting's full replay results.
pub struct StudyArm {
    /// Label ("all objects", "large only", ...).
    pub label: &'static str,
    /// InfiniCache replay report.
    pub report: TraceReport,
    /// Working-set size (GB, decimal) of the workload arm.
    pub wss_gb: f64,
    /// Mean GETs/hour of the workload arm.
    pub hourly_rate: f64,
}

/// The production study: IC under three settings plus the baselines.
pub struct ProductionStudy {
    /// `all objects`, `large only`, `large only w/o backup`.
    pub arms: Vec<StudyArm>,
    /// ElastiCache hit ratio and per-request records on the all-objects
    /// trace.
    pub ec_all: (f64, Vec<BaselineRecord>),
    /// ElastiCache on the large-only trace.
    pub ec_large: (f64, Vec<BaselineRecord>),
    /// Raw S3 on the all-objects trace.
    pub s3_all: Vec<BaselineRecord>,
    /// Horizon hours of the replay.
    pub hours: usize,
    /// ElastiCache total cost over the horizon (one cache.r5.24xlarge).
    pub elasticache_cost: f64,
}

impl ProductionStudy {
    fn run(ctx: &Ctx) -> Self {
        let trace = ctx.dallas_trace();
        let large = trace.filter_large(LARGE_OBJECT_BYTES);
        let hours = (trace.horizon.as_secs_f64() / 3600.0).round() as usize;
        let cfg = match ctx.scale {
            Scale::Full => DeploymentConfig::paper_production(),
            // Scaled with the trace.
            Scale::Quick => DeploymentConfig {
                lambdas_per_proxy: 40,
                ..DeploymentConfig::paper_production()
            },
        };
        // The paper's 50-hour run saw both continuous churn and mass
        // reclaim spikes (Fig 14's reclaim line peaks above the fleet
        // size); `production_churn` models both.
        let fleet = cfg.total_lambdas() as usize;

        let arm = |label: &'static str, t: &Trace, cfg: DeploymentConfig, seed: u64| {
            let stats = ic_workload::stats::TraceStats::compute(t);
            StudyArm {
                label,
                report: trace_replay(
                    t,
                    cfg,
                    Box::new(production_churn(fleet)),
                    SimParams::paper().with_seed(seed),
                ),
                wss_gb: stats.working_set_bytes as f64 / 1e9,
                hourly_rate: stats.hourly_rate,
            }
        };

        let no_backup = DeploymentConfig {
            backup_enabled: false,
            ..cfg.clone()
        };
        let arms = vec![
            arm("all objects", trace, cfg.clone(), 11),
            arm("large only", &large, cfg.clone(), 12),
            arm("large only w/o backup", &large, no_backup, 13),
        ];
        ProductionStudy {
            ec_all: replay_elasticache(trace, ElastiCacheDeployment::one_node_24xl(), 21),
            ec_large: replay_elasticache(&large, ElastiCacheDeployment::one_node_24xl(), 22),
            s3_all: replay_s3(trace, 23),
            hours,
            elasticache_cost: ElastiCacheDeployment::one_node_24xl().hourly_price() * hours as f64,
            arms,
        }
    }
}

// ---------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------

/// Prints an aligned table.
pub fn print_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(|h| h.as_ref().to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers);
    for row in rows {
        line(row);
    }
}

/// `value (paper: x)` formatting.
pub fn vs_paper(value: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{value} (paper: {paper})")
}

/// Millisecond summary cell: `p50 [p25..p75]`.
pub fn ms_cell(s: &Summary) -> String {
    if s.count == 0 {
        return "-".into();
    }
    format!("{:.0} [{:.0}..{:.0}]", s.p50, s.p25, s.p75)
}

/// A compact quantile row from latency samples (milliseconds).
pub fn quantile_row(label: &str, ms: &[f64]) -> Vec<String> {
    let mut row = vec![label.to_string()];
    if ms.is_empty() {
        row.resize(6, "-".into());
    } else {
        let s = Summary::from_values(ms);
        row.extend([s.p25, s.p50, s.p75, s.p90, s.p99].map(|v| format!("{v:.1}")));
    }
    row
}

/// Minutes → SimDuration helper for ablations.
pub fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_does_not_panic_on_ragged_rows() {
        print_table(
            "demo",
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["22".into(), "333".into(), "extra".into()],
            ],
        );
    }

    #[test]
    fn quantile_row_handles_empty() {
        let r = quantile_row("x", &[]);
        assert_eq!(r[1], "-");
    }
}
