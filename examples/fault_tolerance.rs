//! Fault-tolerance scenario: watch InfiniCache ride out aggressive
//! function reclamation — erasure-coded recovery, read repair, delta-sync
//! backups, and RESETs when losses exceed parity.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use ic_common::{
    ClientId, DeploymentConfig, EcConfig, ObjectKey, Payload, ProxyId, SimDuration, SimTime,
};
use ic_simfaas::reclaim::PeriodicSpike;
use infinicache::event::Op;
use infinicache::metrics::Outcome;
use infinicache::params::SimParams;
use infinicache::world::SimWorld;

fn main() {
    let ec = EcConfig::new(10, 2).expect("valid code");
    let cfg = DeploymentConfig {
        lambdas_per_proxy: 60,
        backup_interval: SimDuration::from_mins(3),
        ..DeploymentConfig::small(60, ec)
    };
    // A spiky reclamation regime: half the fleet dies every simulated hour.
    let policy = Box::new(PeriodicSpike::new(60, 60, 0.5, "hourly spikes"));
    let mut w = SimWorld::new(cfg, SimParams::paper(), policy, 1);

    println!("populating 40 objects of 20 MB under RS{ec} with 3-minute backups...");
    let size = 20_000_000u64;
    for i in 0..40 {
        w.submit(
            SimTime::from_secs(1 + i),
            ClientId(0),
            Op::Put {
                key: ObjectKey::new(format!("obj{i}")),
                payload: Payload::synthetic(size),
            },
        );
    }

    // Read everything every 20 minutes for 3 hours while spikes hit.
    for round in 0..9u64 {
        let at = SimTime::from_secs(300 + round * 1200);
        for i in 0..40 {
            w.submit(
                at,
                ClientId(0),
                Op::Get {
                    key: ObjectKey::new(format!("obj{i}")),
                    size,
                },
            );
        }
    }
    w.run_until(SimTime::from_secs(3 * 3600 + 1800));

    let mut clean = 0;
    let mut recovered = 0;
    let mut reset = 0;
    let mut cold = 0;
    for r in &w.metrics.requests {
        match r.outcome {
            Outcome::Hit { lost_chunks: 0, .. } => clean += 1,
            Outcome::Hit { .. } => recovered += 1,
            Outcome::Reset => reset += 1,
            Outcome::ColdMiss => cold += 1,
            Outcome::Stored | Outcome::PutAborted => {}
        }
    }
    println!("\nGET outcomes over 3 simulated hours of hourly half-fleet reclaim spikes:");
    println!("  clean hits:               {clean}");
    println!("  EC recoveries (<=p lost): {recovered}");
    println!("  RESETs (>p chunks lost):  {reset}");
    println!("  cold misses:              {cold}");
    let backup_rounds: u64 = (0..w.cfg.proxies)
        .map(|p| w.proxy_stats(ProxyId(p)).backup_rounds)
        .sum();
    println!(
        "\nfunctions reclaimed: {}, backup rounds coordinated: {backup_rounds}",
        w.platform.reclaim_log().len(),
    );
    println!(
        "availability (paper's §5.2 metric): {:.1}%",
        w.metrics.availability() * 100.0
    );
    println!(
        "\nthe delta-sync backup keeps a warm peer replica per node, so even an\n\
         aggressive reclaim spike usually loses fewer than p chunks per object —\n\
         exactly the mechanism Fig 14 measures at production scale."
    );
}
