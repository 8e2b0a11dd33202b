//! `tracebench`: the trace engine's command-line face.
//!
//! ```text
//! tracebench [--mode full|smoke|gen|sim|net] [--profile dallas|sample|smoke]
//!            [--seed N] [--tenants N] [--trace PATH] [--out PATH]
//!            [--wall-secs F] [--churn none|production]
//! ```
//!
//! * `--mode full` (default) — the paper's §5.2 story: synthesize the
//!   Dallas-like 50-hour production trace (≥100 k GETs), replay it on
//!   the sim substrate under production churn with billing on, price the
//!   same trace on ElastiCache, then replay the committed sample
//!   trace against a real loopback socket cluster with byte verification.
//! * `--mode smoke` — the CI leg: a tiny generated trace through the sim
//!   replay plus the committed sample through the net replay.
//! * `--mode gen` — synthesize `--profile` under `--seed` and write the
//!   trace file to `--out`.
//! * `--mode sim` — replay `--trace` (or a generated `--profile`) on the
//!   sim substrate and print the headline numbers.
//! * `--mode net` — replay `--trace` (default: the committed sample)
//!   against a loopback cluster with paced arrivals and verification.
//!
//! In `full` and `smoke` the sim side is generated, so `--trace` names
//! the net replay's trace there too.
//!
//! Every mode prints its summaries to stdout; a net replay whose byte
//! verification fails exits nonzero.

use std::time::Duration;

use ic_baselines::ElastiCacheDeployment;
use ic_common::{Error, Result};
use ic_net::args::Args;
use ic_trace::replay::{self, ChurnProfile, NetReplayConfig, SimReplayConfig};
use ic_trace::synth::{synthesize, TraceGenConfig};
use ic_trace::TraceData;

/// Default location of the committed sample trace (repo-root relative).
const SAMPLE_PATH: &str = "tests/data/sample.ictrace";

fn trace_err(e: ic_trace::TraceError) -> Error {
    Error::Config(e.to_string())
}

fn profile(name: &str, tenants: u16) -> Result<TraceGenConfig> {
    let mut cfg = match name {
        "dallas" => TraceGenConfig::dallas(),
        "sample" => TraceGenConfig::sample(),
        "smoke" => TraceGenConfig::smoke(),
        other => {
            return Err(Error::Config(format!(
                "--profile {other}: expected dallas, sample, or smoke"
            )))
        }
    };
    if tenants > 0 {
        cfg.tenants = tenants;
    }
    Ok(cfg)
}

fn load_or_generate(args: &Args, seed: u64) -> Result<TraceData> {
    match args.opt("trace") {
        Some(path) => TraceData::load(path).map_err(trace_err),
        None => Ok(synthesize(
            &profile(&args.get("profile", "smoke"), args.num("tenants", 0)?)?,
            seed,
        )),
    }
}

fn sim_config(args: &Args, seed: u64, production: bool) -> Result<SimReplayConfig> {
    let mut cfg = if production {
        SimReplayConfig::production(seed)
    } else {
        SimReplayConfig::smoke(seed)
    };
    match args.get("churn", "").as_str() {
        "" => {}
        "none" => cfg.churn = ChurnProfile::None,
        "production" => cfg.churn = ChurnProfile::ProductionChurnSpikes,
        other => {
            return Err(Error::Config(format!(
                "--churn {other}: expected none or production"
            )))
        }
    }
    Ok(cfg)
}

/// Replays `data` on the sim substrate, prices the same trace on
/// ElastiCache and prints the headline.
fn sim_replay(data: &TraceData, cfg: &SimReplayConfig) {
    let r = replay::replay_sim(data, cfg);
    let vs_ec = replay::compare_baselines(data, ElastiCacheDeployment::one_node_24xl())
        .cost_vs_elasticache(r.total_cost);
    println!(
        "sim: {} ops over {} h — hit {:.4}, availability {:.4}, cost ${:.4} \
         ({:.0}× cheaper than ElastiCache)",
        r.ops, r.hours, r.hit_ratio, r.availability, r.total_cost, vs_ec
    );
}

/// Net-replays `--trace` (default: the committed sample) over
/// `--wall-secs` of wall clock and prints the summary.
fn net_replay(args: &Args) -> Result<()> {
    let path = args.get("trace", SAMPLE_PATH);
    let data = TraceData::load(&path).map_err(|e| Error::Config(format!("--trace {path}: {e}")))?;
    let cfg = NetReplayConfig {
        target_wall: Duration::from_secs_f64(args.num("wall-secs", 4.0)?),
    };
    println!(
        "tracebench: net-replaying {} ({} records) over {:.1}s of wall clock",
        data.name,
        data.records.len(),
        cfg.target_wall.as_secs_f64()
    );
    let r = replay::replay_net(&data, &cfg)?;
    println!(
        "net: {} ops in {:.2}s — {} stored, {} hits, {} misses, {} verify failures, \
         GET p50 {} µs",
        r.ops, r.wall_seconds, r.stored, r.hits, r.misses, r.verify_failures, r.get_latency_us[0]
    );
    Ok(())
}

/// The full/smoke flow: the sim replay of `data`, then the net replay of
/// the committed sample.
fn sim_then_net(args: &Args, data: &TraceData, sim_cfg: &SimReplayConfig) -> Result<()> {
    println!(
        "tracebench: sim-replaying {} ({} records, {} h horizon)",
        data.name,
        data.records.len(),
        data.hours()
    );
    sim_replay(data, sim_cfg);
    net_replay(args)
}

fn run() -> Result<()> {
    let args = Args::parse();
    let mode = args.get("mode", "full");
    let seed = args.num("seed", 2020u64)?;
    match mode.as_str() {
        "gen" => {
            let name = args.get("profile", "sample");
            let cfg = profile(&name, args.num("tenants", 0)?)?;
            let data = synthesize(&cfg, seed);
            let out = args.get("out", &format!("{name}.ictrace"));
            data.save(&out).map_err(trace_err)?;
            println!(
                "wrote {out}: {} records ({} GET / {} PUT), {} h horizon, {} tenant(s), \
                 {:.1} MB working set",
                data.records.len(),
                data.gets(),
                data.puts(),
                data.hours(),
                data.tenants,
                data.working_set_bytes() as f64 / 1e6
            );
            Ok(())
        }
        "sim" => {
            let data = load_or_generate(&args, seed)?;
            sim_replay(&data, &sim_config(&args, seed, false)?);
            Ok(())
        }
        "net" => net_replay(&args),
        "smoke" => {
            let data = synthesize(&profile("smoke", args.num("tenants", 0)?)?, seed);
            let cfg = sim_config(&args, seed, false)?;
            sim_then_net(&args, &data, &cfg)
        }
        "full" => {
            let data = synthesize(
                &profile(&args.get("profile", "dallas"), args.num("tenants", 0)?)?,
                seed,
            );
            let cfg = sim_config(&args, seed, true)?;
            sim_then_net(&args, &data, &cfg)
        }
        other => Err(Error::Config(format!(
            "--mode {other}: expected full, smoke, gen, sim, or net"
        ))),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("tracebench: {e}");
        std::process::exit(1);
    }
}
