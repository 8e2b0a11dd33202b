//! The `BENCH_trace.json` artifact: deterministic rendering of a sim
//! replay (plus its baseline comparison and hourly curves) and a net
//! replay, and a schema validator the CI smoke leg and the workspace
//! tests both call.
//!
//! The sim block is a pure function of `(trace bytes, config)` — no wall
//! clocks, no map-iteration order — so regenerating the artifact from
//! the same inputs is byte-identical, which is what the replay
//! determinism test pins. The net block carries wall-clock readings and
//! is validated structurally instead.

use ic_common::DeploymentConfig;

use crate::replay::{BaselineComparison, NetReplayReport, SimReplayConfig, SimReplayReport};

/// The schema tag every artifact carries; the validator requires it.
pub const SCHEMA: &str = "ic-trace-bench/v1";

fn curve_f64(values: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = values.map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(", "))
}

fn curve_u64(values: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn deployment_json(d: &DeploymentConfig) -> String {
    format!(
        "{{\"proxies\": {}, \"lambdas_per_proxy\": {}, \"lambda_memory_mb\": {}, \"ec\": \"{}\"}}",
        d.proxies, d.lambdas_per_proxy, d.lambda_memory_mb, d.ec
    )
}

/// Renders the sim half of the artifact (deterministic; see module docs).
pub fn render_sim(
    cfg: &SimReplayConfig,
    seed: u64,
    report: &SimReplayReport,
    baselines: &BaselineComparison,
) -> String {
    let vs_ec = baselines.cost_vs_elasticache(report.total_cost);
    let vs_s3 = if report.total_cost <= 0.0 {
        f64::INFINITY
    } else {
        baselines.s3_cost / report.total_cost
    };
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    format!(
        "{{\n    \"trace\": \"{trace}\",\n    \"seed\": {seed},\n    \"ops\": {ops},\n    \
         \"gets\": {gets},\n    \"puts\": {puts},\n    \"hours\": {hours},\n    \
         \"deployment\": {deployment},\n    \"churn\": \"{churn:?}\",\n    \
         \"hit_ratio\": {hit:.6},\n    \"availability\": {avail:.6},\n    \
         \"resets\": {resets},\n    \"recoveries\": {recoveries},\n    \
         \"get_latency_ms\": {{\"p50\": {l50:.3}, \"p90\": {l90:.3}, \"p99\": {l99:.3}}},\n    \
         \"cost\": {{\"total\": {total:.6}, \"serving\": {serving:.6}, \"warmup\": {warmup:.6}, \
         \"backup\": {backup:.6}}},\n    \
         \"baselines\": {{\"elasticache_node\": \"{node}\", \"elasticache_hit_ratio\": {echit:.6}, \
         \"elasticache_cost\": {eccost:.6}, \"s3_cost\": {s3cost:.6}, \
         \"cost_vs_elasticache\": {vsec:.4}, \"cost_vs_s3\": {vss3:.4}}},\n    \
         \"curves\": {{\n      \"hit_ratio\": {hit_curve},\n      \
         \"availability\": {avail_curve},\n      \"cost\": {cost_curve},\n      \
         \"reclaims\": {reclaim_curve}\n    }}\n  }}",
        trace = report.trace,
        ops = report.ops,
        gets = report.gets,
        puts = report.puts,
        hours = report.hours,
        deployment = deployment_json(&cfg.deployment),
        churn = cfg.churn,
        hit = report.hit_ratio,
        avail = report.availability,
        resets = report.resets,
        recoveries = report.recoveries,
        l50 = report.get_latency_ms[0],
        l90 = report.get_latency_ms[1],
        l99 = report.get_latency_ms[2],
        total = report.total_cost,
        serving = report.category_cost[0],
        warmup = report.category_cost[1],
        backup = report.category_cost[2],
        node = baselines.elasticache_node,
        echit = baselines.elasticache_hit_ratio,
        eccost = baselines.elasticache_cost,
        s3cost = baselines.s3_cost,
        vsec = finite(vs_ec),
        vss3 = finite(vs_s3),
        hit_curve = curve_f64(report.hourly.iter().map(|h| h.hit_ratio())),
        avail_curve = curve_f64(report.hourly.iter().map(|h| h.availability())),
        cost_curve = curve_f64(report.hourly.iter().map(|h| h.cost.iter().sum::<f64>())),
        reclaim_curve = curve_u64(report.hourly.iter().map(|h| h.reclaims)),
    )
}

/// Renders the net half of the artifact (the net replay runs on the
/// single-proxy parity deployment).
pub fn render_net(trace: &str, report: &NetReplayReport) -> String {
    format!(
        "{{\n    \"trace\": \"{trace}\",\n    \"deployment\": {deployment},\n    \
         \"ops\": {ops},\n    \"stored\": {stored},\n    \"hits\": {hits},\n    \
         \"misses\": {misses},\n    \"verify_failures\": {failures},\n    \
         \"clamped\": {clamped},\n    \"wall_seconds\": {wall:.3},\n    \
         \"get_latency_us\": {{\"p50\": {l50}, \"p90\": {l90}, \"p99\": {l99}}}\n  }}",
        deployment = deployment_json(&ic_net::replay::parity_config(1)),
        ops = report.ops,
        stored = report.stored,
        hits = report.hits,
        misses = report.misses,
        failures = report.verify_failures,
        clamped = report.clamped,
        wall = report.wall_seconds,
        l50 = report.get_latency_us[0],
        l90 = report.get_latency_us[1],
        l99 = report.get_latency_us[2],
    )
}

/// Assembles the full artifact from the two rendered halves.
pub fn render(sim: &str, net: &str) -> String {
    format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"sim\": {sim},\n  \"net\": {net}\n}}\n")
}

/// Structural validation of a `BENCH_trace.json` candidate: the schema
/// tag, both substrate blocks, every headline metric, the curve arrays,
/// and balanced JSON nesting. Returns every missing piece, so a CI
/// failure names them all at once.
///
/// # Errors
///
/// A list of human-readable problems (empty ⇒ `Ok`).
pub fn validate(json: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        problems.push(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in [
        "\"sim\":",
        "\"net\":",
        "\"hit_ratio\":",
        "\"availability\":",
        "\"cost\":",
        "\"cost_vs_elasticache\":",
        "\"cost_vs_s3\":",
        "\"curves\":",
        "\"reclaims\":",
        "\"verify_failures\":",
        "\"wall_seconds\":",
        "\"get_latency_ms\":",
        "\"get_latency_us\":",
    ] {
        if !json.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_string = false,
                _ => escaped = false,
            }
            if c != '\\' {
                escaped = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            problems.push("unbalanced braces (closing before opening)".into());
            break;
        }
    }
    if depth > 0 {
        problems.push(format!("unbalanced braces (depth {depth} at EOF)"));
    }
    if in_string {
        problems.push("unterminated string".into());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Extracts the artifact's total verify-failure count (the net block's
/// `verify_failures` field) — the CI smoke leg asserts it is zero.
pub fn verify_failures(json: &str) -> Option<u64> {
    let idx = json.find("\"verify_failures\":")?;
    let rest = json[idx + "\"verify_failures\":".len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{compare_baselines, replay_sim};
    use crate::synth::{synthesize, TraceGenConfig};
    use ic_baselines::ElastiCacheDeployment;
    use ic_net::replay::StepOutcome;

    fn net_report() -> NetReplayReport {
        NetReplayReport {
            ops: 3,
            stored: 1,
            hits: 1,
            misses: 1,
            verify_failures: 0,
            clamped: 0,
            wall_seconds: 0.5,
            get_latency_us: [100, 200, 300],
            outcomes: vec![StepOutcome::Stored, StepOutcome::Hit, StepOutcome::Miss],
        }
    }

    #[test]
    fn rendered_artifact_validates() {
        let data = synthesize(&TraceGenConfig::smoke(), 5);
        let cfg = SimReplayConfig::smoke(5);
        let report = replay_sim(&data, &cfg);
        let baselines = compare_baselines(&data, ElastiCacheDeployment::one_node_24xl());
        let sim = render_sim(&cfg, 5, &report, &baselines);
        let net = render_net("sample", &net_report());
        let json = render(&sim, &net);
        validate(&json).unwrap_or_else(|p| panic!("invalid artifact: {p:?}"));
        assert_eq!(verify_failures(&json), Some(0));
    }

    #[test]
    fn sim_rendering_is_deterministic() {
        let data = synthesize(&TraceGenConfig::smoke(), 5);
        let cfg = SimReplayConfig::smoke(5);
        let baselines = compare_baselines(&data, ElastiCacheDeployment::one_node_24xl());
        let a = render_sim(&cfg, 5, &replay_sim(&data, &cfg), &baselines);
        let b = render_sim(&cfg, 5, &replay_sim(&data, &cfg), &baselines);
        assert_eq!(a, b);
    }

    #[test]
    fn validator_names_every_problem() {
        match validate("{\"schema\": \"other\"") {
            Ok(()) => panic!("garbage must not validate"),
            Err(problems) => {
                assert!(problems.len() > 3, "{problems:?}");
                assert!(problems.iter().any(|p| p.contains("unbalanced")));
            }
        }
    }
}
