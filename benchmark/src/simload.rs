//! The simulator workload: the first hours of the Dallas-like
//! production trace through the discrete-event world, billing on, under
//! the production churn-and-spikes regime — no sockets, no real bytes.
//!
//! The end-to-end run calls the product's own `ic_trace::replay_sim`.
//! The traced run needs event counts that function does not return, so
//! it drives a `SimWorld` of its own, hour by hour, and then checks its
//! results against `replay_sim` on the same trace: if the two ever
//! disagree, the copy of the churn regime below has drifted from the
//! product's and the run reports itself incorrect.

use std::time::Instant;

use ic_baselines::ElastiCacheDeployment;
use ic_common::pricing::CostCategory;
use ic_common::{ClientId, Payload, SimDuration, SimTime};
use ic_simfaas::reclaim::PeriodicSpike;
use ic_simfaas::EventQueue;
use ic_trace::replay::{compare_baselines, replay_sim, BaselineComparison, SimReplayConfig};
use ic_trace::synth::{synthesize, TraceGenConfig};
use ic_trace::{SimReplayReport, TraceData, TraceOp};
use infinicache::{Op, SimParams, SimWorld};

use crate::procfs;
use crate::stats;
use crate::workloads::{Rng, SIM_HOURS_PER_SECOND, SIM_WORLD_SEED};

/// Trace hours a run of `seconds` replays (at least one).
pub fn horizon_hours(seconds: f64) -> u64 {
    ((seconds * SIM_HOURS_PER_SECOND).round() as u64).max(1)
}

/// One set-up: the trace a run replays, its baseline pricing, and how
/// long each stage took.
pub struct Setup {
    /// The trace, after an encode → decode round trip.
    pub data: TraceData,
    /// The same trace priced on ElastiCache and S3.
    pub baselines: BaselineComparison,
    /// Seconds to synthesize the 50 h trace and cut it to the horizon.
    pub synth_s: f64,
    /// Seconds to encode it to ICTR bytes.
    pub encode_s: f64,
    /// Seconds to decode the bytes back.
    pub decode_s: f64,
    /// Seconds for the baseline LRU pass and pricing.
    pub pricing_s: f64,
    /// Whether the decoded trace equals the synthesized one.
    pub roundtrip_ok: bool,
}

impl Setup {
    /// All four stages.
    pub fn total_s(&self) -> f64 {
        self.synth_s + self.encode_s + self.decode_s + self.pricing_s
    }
}

/// Synthesizes `seed`'s Dallas trace, keeps its first `hours`, and runs
/// it through the trace codec and the baseline pricing.
pub fn setup(seed: u64, hours: u64) -> Setup {
    let t0 = Instant::now();
    let mut data = synthesize(&TraceGenConfig::dallas(), seed);
    let cut = SimTime::from_secs(hours * 3600).min(data.horizon);
    data.records.retain(|r| r.at < cut);
    data.horizon = cut;
    let t1 = Instant::now();
    let bytes = data.to_bytes().expect("a synthesized trace encodes");
    let t2 = Instant::now();
    let decoded = TraceData::from_bytes(&bytes).expect("and decodes");
    let t3 = Instant::now();
    let baselines = compare_baselines(&decoded, ElastiCacheDeployment::one_node_24xl());
    let t4 = Instant::now();
    Setup {
        roundtrip_ok: decoded == data,
        data: decoded,
        baselines,
        synth_s: (t1 - t0).as_secs_f64(),
        encode_s: (t2 - t1).as_secs_f64(),
        decode_s: (t3 - t2).as_secs_f64(),
        pricing_s: (t4 - t3).as_secs_f64(),
    }
}

fn config() -> SimReplayConfig {
    SimReplayConfig::production(SIM_WORLD_SEED)
}

/// One timed `replay_sim`.
pub struct Replay {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// What the product reported.
    pub report: SimReplayReport,
}

/// Replays the trace with the product's entry point, timed.
pub fn replay(setup: &Setup) -> Replay {
    let (t0, cpu0) = (Instant::now(), procfs::read_process_cpu_seconds());
    let report = replay_sim(&setup.data, &config());
    Replay {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::read_process_cpu_seconds() - cpu0,
        report,
    }
}

/// What the hour-by-hour replay of the traced run saw.
pub struct Traced {
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// Events the world processed.
    pub events: u64,
    /// Mean pending-event count, sampled at every hour boundary.
    pub mean_queue_depth: f64,
    /// Instances reclaimed.
    pub reclaims: u64,
    /// Degraded GETs recovered through parity.
    pub recoveries: u64,
    /// Dollars billed, `[serving, warmup, backup]`.
    pub cost: [f64; 3],
    /// Overall hit ratio, for the cross-check.
    pub hit_ratio: f64,
    /// Overall availability, for the cross-check.
    pub availability: f64,
}

impl Traced {
    /// Whether this replay and the product's agree on every number both
    /// report. They are the same deterministic computation, so any
    /// difference means this module's world set-up has drifted.
    pub fn agrees_with(&self, r: &SimReplayReport) -> bool {
        self.hit_ratio == r.hit_ratio
            && self.availability == r.availability
            && self.recoveries == r.recoveries
            && self.cost == r.category_cost
            && self.reclaims == r.hourly.iter().map(|h| h.reclaims).sum::<u64>()
    }
}

/// The same replay as [`replay`], driven from here one trace hour at a
/// time so events can be counted.
pub fn replay_traced(setup: &Setup) -> Traced {
    let cfg = config();
    let fleet = cfg.deployment.total_lambdas() as usize;
    // `ChurnProfile::ProductionChurnSpikes`, whose constructor is private
    // to ic-trace: Poisson background churn plus a 6-hourly spike sweeping
    // 85% of the fleet. `Traced::agrees_with` guards this copy.
    let mut churn = PeriodicSpike::new(fleet, 360, 0.85, "trace churn+spikes");
    churn.base_per_hour = 36.0 * fleet as f64 / 400.0;
    let mut w = SimWorld::new(
        cfg.deployment.clone(),
        SimParams::paper().with_seed(cfg.seed),
        Box::new(churn),
        1,
    );
    w.write_through = cfg.write_through;
    for r in &setup.data.records {
        let op = match r.op {
            TraceOp::Get => Op::Get {
                key: r.key(),
                size: r.size,
            },
            TraceOp::Put => Op::Put {
                key: r.key(),
                payload: Payload::synthetic(r.size),
            },
        };
        w.submit(r.at, ClientId(0), op);
    }
    let last = setup.data.records.last().map_or(SimTime::ZERO, |r| r.at);
    let end = setup.data.horizon.max(last) + cfg.drain;
    let t0 = Instant::now();
    let mut depths = Vec::new();
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SimDuration::from_secs(3600)).min(end);
        w.run_until(t);
        depths.push(w.pending_events().len() as f64);
    }
    w.platform.finalize(end, CostCategory::Serving);
    let wall_s = t0.elapsed().as_secs_f64();
    let billing = &w.platform.billing;
    Traced {
        wall_s,
        events: w.events_processed(),
        mean_queue_depth: depths.iter().sum::<f64>() / depths.len() as f64,
        reclaims: w.platform.reclaim_log().len() as u64,
        recoveries: w.metrics.recoveries(),
        cost: [
            billing.category(CostCategory::Serving).dollars,
            billing.category(CostCategory::Warmup).dollars,
            billing.category(CostCategory::Backup).dollars,
        ],
        hit_ratio: w.metrics.hit_ratio(),
        availability: w.metrics.availability(),
    }
}

/// Nanoseconds per `EventQueue` push + pop with `depth` events pending —
/// the simulator's inner loop with everything but the queue removed.
/// Median of five timed batches.
pub fn queue_ns_per_event(depth: usize) -> f64 {
    const BATCH: usize = 200_000;
    let mut rng = Rng::new(depth as u64);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.push(SimTime::from_micros(rng.below(3_600_000_000)), i as u64);
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let (at, e) = q.pop().expect("the queue never drains");
                q.push(
                    at + SimDuration::from_micros(1 + rng.below(3_600_000_000)),
                    e,
                );
            }
            t0.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    std::hint::black_box(q.len());
    stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_scales_with_seconds() {
        assert_eq!(horizon_hours(20.0), 8);
        assert_eq!(horizon_hours(0.4), 1);
        assert_eq!(horizon_hours(5.0), 2);
    }

    #[test]
    fn setup_is_a_pure_function_of_the_seed() {
        let a = setup(11, 1);
        let b = setup(11, 1);
        assert!(a.roundtrip_ok);
        assert_eq!(a.data, b.data);
        assert_eq!(a.baselines, b.baselines);
        assert_ne!(a.data, setup(12, 1).data);
        assert!(a
            .data
            .records
            .iter()
            .all(|r| r.at < SimTime::from_secs(3600)));
        assert_eq!(a.data.hours(), 1);
    }

    #[test]
    fn own_replay_agrees_with_the_products() {
        let s = setup(5, 1);
        let product = replay(&s);
        let own = replay_traced(&s);
        assert!(own.agrees_with(&product.report));
        assert!(own.events > product.report.gets as u64);
        assert!(queue_ns_per_event(1000) > 0.0);
    }
}
