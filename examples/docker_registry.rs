//! Docker-registry scenario: replay a synthetic registry workload (the
//! paper's motivating application) through a simulated InfiniCache
//! deployment and compare cost and hit ratio against an ElastiCache
//! deployment sized like the paper's.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example docker_registry
//! ```

use ic_baselines::ElastiCacheDeployment;
use ic_common::DeploymentConfig;
use ic_trace::replay::{compare_baselines, replay_sim, ChurnProfile, SimReplayConfig};
use ic_trace::{synthesize, TraceGenConfig, TraceStats};
use infinicache::params::SimParams;

fn main() {
    // A scaled-down Dallas-like registry workload (full scale lives in the
    // `reproduce` binary): ~6 hours, thousands of layer pulls.
    let mut gen = TraceGenConfig::dallas();
    gen.objects /= 12;
    gen.accesses /= 8;
    gen.rate.hourly.truncate(6);
    let trace = synthesize(&gen, 99);
    let stats = TraceStats::compute(&trace);
    println!(
        "registry workload: {} GETs over {:.0} h, {} distinct layers, working set {:.0} GB",
        trace.records.len(),
        trace.horizon.as_secs_f64() / 3600.0,
        stats.unique_objects,
        stats.working_set_bytes as f64 / 1e9,
    );

    let cfg = DeploymentConfig {
        lambdas_per_proxy: 60,
        ..DeploymentConfig::paper_production()
    };
    println!(
        "\nreplaying against InfiniCache ({} x {} MB functions, RS{}, backups every {}s)...",
        cfg.lambdas_per_proxy,
        cfg.lambda_memory_mb,
        cfg.ec,
        cfg.backup_interval.as_secs_f64()
    );
    let report = replay_sim(
        &trace,
        &SimReplayConfig {
            deployment: cfg,
            seed: SimParams::paper().seed,
            churn: ChurnProfile::Poisson { per_hour: 36 },
            ..SimReplayConfig::production(0)
        },
    );
    println!(
        "InfiniCache: hit ratio {:.1}%, availability {:.1}%, total cost ${:.2} \
         (serving ${:.2} / warm-up ${:.2} / backup ${:.2})",
        report.hit_ratio * 100.0,
        report.availability * 100.0,
        report.total_cost,
        report.category_cost[0],
        report.category_cost[1],
        report.category_cost[2],
    );

    let deployment = ElastiCacheDeployment::one_node_24xl();
    let ec = compare_baselines(&trace, deployment);
    println!(
        "ElastiCache ({}): hit ratio {:.1}%, cost ${:.2} for the same window",
        deployment.instance.name,
        ec.elasticache_hit_ratio * 100.0,
        ec.elasticache_cost
    );
    println!(
        "\ntenant-side cost ratio: {:.0}x in InfiniCache's favour (the paper's Fig 13 \
         measures 31x at full scale)",
        ec.cost_vs_elasticache(report.total_cost)
    );
}
