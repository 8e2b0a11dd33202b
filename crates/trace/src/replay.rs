//! The replay engine: drive one trace deterministically against the
//! discrete-event sim substrate (virtual time, per-100 ms billing via
//! `ic-simfaas`) and against the net substrate (real sockets on loopback,
//! arrivals paced by compressing trace time onto the wall clock).
//!
//! The sim replay is the paper's §5.2 evaluation: the full deployment
//! under production churn, hourly cost / hit-ratio / availability curves,
//! the cost-vs-ElastiCache/S3 comparison and the baselines' per-GET
//! latencies. The net replay is the byte-level end of the same story:
//! [`schedule`] turns the records into the harnesses' one [`Schedule`]
//! language and `ic_net::replay::run` moves verified bytes through the
//! readiness event loop, so sim-vs-net divergence on a committed trace is
//! a one-line assert over the same [`StepOutcome`]s.

use std::time::Duration;

use ic_baselines::{ElastiCacheDeployment, ElastiCacheModel, LruCache, S3Model, S3Pricing};
use ic_common::pricing::CostCategory;
use ic_common::{
    ClientId, DeploymentConfig, Error, ObjectKey, Payload, Result, SimDuration, SimTime,
};
use ic_net::replay::{run, StepOutcome, Substrate};
use ic_simfaas::reclaim::{production_churn, HourlyPoisson, NoReclaim, ReclaimPolicy};
use infinicache::event::Op;
use infinicache::metrics::{Metrics, OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::schedule::{Action, Schedule, Step};
use infinicache::world::SimWorld;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::format::{TraceData, TraceOp, TraceRecord};

// ---------------------------------------------------------------------
// Shared: trace → schedule
// ---------------------------------------------------------------------

/// Projects a trace onto the harnesses' [`Schedule`] language: one
/// client-0 step per record, the trace's time axis linearly compressed
/// onto `span` at millisecond resolution, so production inter-arrival
/// structure lands inside a chaos run's tight eviction/reclaim windows
/// or a net replay's wall-clock budget. Take a
/// [`prefix`](TraceData::prefix) first to replay part of a trace.
pub fn schedule(data: &TraceData, span: SimDuration) -> Schedule {
    let last_us = data.records.last().map_or(0, |r| r.at.as_micros()).max(1);
    let span_ms = u128::from(span.as_millis());
    let steps = data
        .records
        .iter()
        .map(|r| {
            let key = r.key().as_str().to_string();
            Step {
                at: SimTime::from_millis(
                    (u128::from(r.at.as_micros()) * span_ms / u128::from(last_us)) as u64,
                ),
                client: 0,
                action: match r.op {
                    TraceOp::Put => Action::Put { key, size: r.size },
                    TraceOp::Get => Action::Get { key },
                },
            }
        })
        .collect();
    Schedule { steps }
}

// ---------------------------------------------------------------------
// Sim replay
// ---------------------------------------------------------------------

/// Reclaim regime of a sim replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnProfile {
    /// No reclamation (fault-free).
    None,
    /// The production-study regime: Poisson background churn plus
    /// ~6-hourly mass-reclaim spikes sweeping most of the fleet (the
    /// reclaim line of the paper's Fig 14).
    ProductionChurnSpikes,
    /// Continuous churn only: Poisson reclaims at a mean rate per hour
    /// (the Oct/Dec/Jan regime of §4.1).
    Poisson {
        /// Mean reclaims per hour.
        per_hour: u32,
    },
}

impl ChurnProfile {
    fn policy(self, fleet: usize) -> Box<dyn ReclaimPolicy> {
        match self {
            ChurnProfile::None => Box::new(NoReclaim),
            ChurnProfile::ProductionChurnSpikes => Box::new(production_churn(fleet)),
            ChurnProfile::Poisson { per_hour } => {
                Box::new(HourlyPoisson::new(f64::from(per_hour), "poisson churn"))
            }
        }
    }
}

/// Everything a sim replay needs beyond the trace.
#[derive(Clone, Debug)]
pub struct SimReplayConfig {
    /// Deployment shape.
    pub deployment: DeploymentConfig,
    /// Seed for the world's stochastic service model.
    pub seed: u64,
    /// Reclaim regime.
    pub churn: ChurnProfile,
    /// Whether misses refetch from the backing store and re-insert
    /// (the paper's §5.2 replay semantics for GET-only traces).
    pub write_through: bool,
    /// Quiet time appended after the last record before billing is
    /// finalized.
    pub drain: SimDuration,
}

impl SimReplayConfig {
    /// The paper's production setting: the full §5.2 deployment under
    /// churn + spikes, write-through misses.
    pub fn production(seed: u64) -> Self {
        SimReplayConfig {
            deployment: DeploymentConfig::paper_production(),
            seed,
            churn: ChurnProfile::ProductionChurnSpikes,
            write_through: true,
            drain: SimDuration::from_mins(5),
        }
    }

    /// A small fault-free deployment for smoke runs and tests.
    pub fn smoke(seed: u64) -> Self {
        SimReplayConfig {
            deployment: DeploymentConfig {
                lambdas_per_proxy: 40,
                lambda_memory_mb: 512,
                ..DeploymentConfig::small(40, ic_common::EcConfig::new(4, 2).expect("valid code"))
            },
            seed,
            churn: ChurnProfile::None,
            write_through: true,
            drain: SimDuration::from_mins(5),
        }
    }
}

/// Per-hour slice of a sim replay (curve point `hour` covers
/// `[hour, hour+1)` of trace time).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HourPoint {
    /// GETs issued this hour.
    pub gets: u64,
    /// GETs served from the cache.
    pub hits: u64,
    /// GETs lost to reclaimed/unrecoverable data (the availability
    /// denominator's failure half).
    pub resets: u64,
    /// Tenant dollars billed this hour: `[serving, warmup, backup]`.
    pub cost: [f64; 3],
    /// Instances reclaimed this hour.
    pub reclaims: u64,
}

impl HourPoint {
    /// Hit ratio of the hour (1.0 on an idle hour).
    pub fn hit_ratio(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// §5.2 availability of the hour: hits / (hits + resets).
    pub fn availability(&self) -> f64 {
        let denom = self.hits + self.resets;
        if denom == 0 {
            1.0
        } else {
            self.hits as f64 / denom as f64
        }
    }
}

/// What one sim replay produced. Everything here is a pure function of
/// `(trace bytes, SimReplayConfig)` — byte-identical across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReplayReport {
    /// Trace name.
    pub trace: String,
    /// Records replayed.
    pub ops: usize,
    /// GET records.
    pub gets: usize,
    /// PUT records.
    pub puts: usize,
    /// Horizon hours.
    pub hours: usize,
    /// Overall GET hit ratio.
    pub hit_ratio: f64,
    /// Overall §5.2 availability.
    pub availability: f64,
    /// GETs lost to faults.
    pub resets: u64,
    /// Degraded GETs recovered through parity decode.
    pub recoveries: u64,
    /// Total tenant cost in dollars.
    pub total_cost: f64,
    /// Dollar totals per category in `[serving, warmup, backup]` order.
    pub category_cost: [f64; 3],
    /// GET latency percentiles in milliseconds `[p50, p90, p99]`.
    pub get_latency_ms: [f64; 3],
    /// One point per horizon hour; the drain window after the horizon is
    /// folded into the last point.
    pub hourly: Vec<HourPoint>,
    /// Dollars billed per hour, `[serving, warmup, backup]`, drain hours
    /// included (not folded): the rows sum to `total_cost`.
    pub billing_hours: Vec<[f64; 3]>,
    /// Instances reclaimed per hour, drain hours included (not folded),
    /// and at least `hours` long.
    pub reclaim_hours: Vec<u64>,
    /// The world's per-request records and fault-tolerance events.
    pub metrics: Metrics,
}

/// Replays a trace on the discrete-event world, billing included.
pub fn replay_sim(data: &TraceData, cfg: &SimReplayConfig) -> SimReplayReport {
    let fleet = cfg.deployment.total_lambdas() as usize;
    let mut w = SimWorld::new(
        cfg.deployment.clone(),
        SimParams::paper().with_seed(cfg.seed),
        cfg.churn.policy(fleet),
        1,
    );
    w.write_through = cfg.write_through;
    for r in &data.records {
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
    let last = data.records.last().map_or(SimTime::ZERO, |r| r.at);
    let end = data.horizon.max(last) + cfg.drain;
    w.run_until(end);
    w.platform.finalize(end, CostCategory::Serving);

    let hours = data.hours();
    let mut hourly = vec![HourPoint::default(); hours];
    for r in &w.metrics.requests {
        if r.kind != OpKind::Get {
            continue;
        }
        let h = (r.issued.hour() as usize).min(hours - 1);
        hourly[h].gets += 1;
        match r.outcome {
            Outcome::Hit { .. } => hourly[h].hits += 1,
            Outcome::Reset => hourly[h].resets += 1,
            _ => {}
        }
    }
    for (h, row) in w.platform.billing.hourly_breakdown().iter().enumerate() {
        let h = h.min(hours - 1);
        for (c, dollars) in row.iter().enumerate() {
            hourly[h].cost[c] += dollars;
        }
    }
    let mut reclaim_hours = vec![0u64; hours];
    for (t, _, _) in w.platform.reclaim_log() {
        let h = t.hour() as usize;
        hourly[h.min(hours - 1)].reclaims += 1;
        if h >= reclaim_hours.len() {
            reclaim_hours.resize(h + 1, 0);
        }
        reclaim_hours[h] += 1;
    }

    let mut lat: Vec<f64> = w.metrics.get_latencies_ms(0);
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            0.0
        } else {
            lat[(((lat.len() - 1) as f64) * p).round() as usize]
        }
    };
    let billing = &w.platform.billing;
    SimReplayReport {
        trace: data.name.clone(),
        ops: data.records.len(),
        gets: data.gets(),
        puts: data.puts(),
        hours,
        hit_ratio: w.metrics.hit_ratio(),
        availability: w.metrics.availability(),
        resets: w.metrics.resets(),
        recoveries: w.metrics.recoveries(),
        total_cost: billing.total_dollars(),
        category_cost: [
            billing.category(CostCategory::Serving).dollars,
            billing.category(CostCategory::Warmup).dollars,
            billing.category(CostCategory::Backup).dollars,
        ],
        get_latency_ms: [pct(0.50), pct(0.90), pct(0.99)],
        hourly,
        billing_hours: billing.hourly_breakdown().to_vec(),
        reclaim_hours,
        metrics: w.metrics,
    }
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

/// The cost-vs story: the same trace priced on ElastiCache and S3.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineComparison {
    /// ElastiCache node type the comparison provisions (the paper's
    /// Table 1 uses one cache.r5.24xlarge).
    pub elasticache_node: String,
    /// ElastiCache hit ratio on the trace (byte-capacity LRU).
    pub elasticache_hit_ratio: f64,
    /// ElastiCache cost over the horizon (hourly price × hours — the
    /// instance bills whether or not requests arrive).
    pub elasticache_cost: f64,
    /// Raw-S3 cost of the same workload (requests + prorated storage).
    pub s3_cost: f64,
}

impl BaselineComparison {
    /// The headline ratio: ElastiCache dollars per InfiniCache dollar.
    pub fn cost_vs_elasticache(&self, ic_cost: f64) -> f64 {
        if ic_cost <= 0.0 {
            f64::INFINITY
        } else {
            self.elasticache_cost / ic_cost
        }
    }
}

/// Bytes an ElastiCache deployment caches (its LRU capacity).
fn cache_bytes(node: ElastiCacheDeployment) -> u64 {
    (node.total_memory_gb() * 1e9) as u64
}

/// The one ElastiCache LRU walk: every PUT and every missed GET inserts,
/// and `on_get` sees each GET with whether it hit.
fn lru_walk(
    data: &TraceData,
    capacity: u64,
    mut on_get: impl FnMut(&TraceRecord, &ObjectKey, bool),
) {
    let mut lru = LruCache::new(capacity);
    for r in &data.records {
        let key = r.key();
        let hit = r.op == TraceOp::Get && lru.get(&key);
        if r.op == TraceOp::Get {
            on_get(r, &key, hit);
        }
        if !hit {
            lru.insert(key, r.size);
        }
    }
}

/// Prices the trace on the baselines. Fully deterministic: the LRU pass
/// needs no randomness and pricing is arithmetic.
pub fn compare_baselines(data: &TraceData, node: ElastiCacheDeployment) -> BaselineComparison {
    let mut get_hits = 0u64;
    lru_walk(data, cache_bytes(node), |_, _, hit| {
        get_hits += u64::from(hit)
    });
    let gets = data.gets() as u64;
    let hours = data.hours() as f64;
    let s3 = S3Pricing::AWS;
    BaselineComparison {
        elasticache_node: format!("{}×{}", node.nodes, node.instance.name),
        elasticache_hit_ratio: if gets == 0 {
            1.0
        } else {
            get_hits as f64 / gets as f64
        },
        elasticache_cost: node.hourly_price() * hours,
        s3_cost: s3.workload_cost(gets, data.puts() as u64, data.working_set_bytes(), hours),
    }
}

/// One GET of a baseline latency replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineRecord {
    /// Object size.
    pub size: u64,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Whether ElastiCache served it (always false for raw S3).
    pub hit: bool,
}

/// Per-GET latencies of a baseline on the trace (Fig 15/16's ElastiCache
/// and S3 series), with its hit ratio. `Some(node)` is ElastiCache: the
/// [`compare_baselines`] LRU walk, hits timed by the ElastiCache model,
/// misses by S3. `None` is raw S3: a zero-byte cache, so every GET is
/// timed by S3. `seed` drives the S3 latency draws.
pub fn baseline_latencies(
    data: &TraceData,
    cache: Option<ElastiCacheDeployment>,
    seed: u64,
) -> (f64, Vec<BaselineRecord>) {
    let mut model = cache.map(ElastiCacheModel::new);
    let s3 = S3Model::paper_era();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(data.records.len());
    lru_walk(data, cache.map_or(0, cache_bytes), |r, key, hit| {
        let (latency, hit) = match model.as_mut() {
            Some(m) if hit => (m.request_latency(r.at, key, r.size), true),
            _ => (s3.get_latency(&mut rng, r.size), false),
        };
        records.push(BaselineRecord {
            size: r.size,
            latency_ms: latency.as_millis_f64(),
            hit,
        });
    });
    let hits = records.iter().filter(|r| r.hit).count();
    (hits as f64 / records.len().max(1) as f64, records)
}

// ---------------------------------------------------------------------
// Net replay
// ---------------------------------------------------------------------

/// Safety clamp on the object sizes a net replay stores (a production
/// trace replayed here by accident would otherwise push multi-GB objects
/// through loopback).
pub const MAX_OBJECT_BYTES: u64 = 256 * 1024;

/// Everything a net replay needs beyond the trace.
#[derive(Clone, Debug)]
pub struct NetReplayConfig {
    /// Wall-clock duration the trace's time axis is compressed onto;
    /// arrivals are paced to land at their scaled instants.
    pub target_wall: Duration,
}

/// What one net replay observed.
#[derive(Clone, Debug)]
pub struct NetReplayReport {
    /// Records replayed.
    pub ops: usize,
    /// PUTs stored.
    pub stored: u64,
    /// GET hits.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
    /// Hits whose bytes did not match what was stored (zero: a replay
    /// with any fails).
    pub verify_failures: u64,
    /// Records whose size exceeded [`MAX_OBJECT_BYTES`].
    pub clamped: u64,
    /// Wall seconds of the replay.
    pub wall_seconds: f64,
    /// GET latency percentiles in microseconds `[p50, p90, p99]`.
    pub get_latency_us: [u64; 3],
    /// Per-record outcomes, for parity against a sim replay of the same
    /// schedule.
    pub outcomes: Vec<StepOutcome>,
}

/// Replays a trace against a fresh single-proxy loopback socket cluster
/// (the parity deployment) with paced arrivals, every hit verified
/// byte-for-byte against what was stored.
///
/// # Errors
///
/// Fails when a GET returned other bytes than were stored or an op
/// failed on transport (a fault-free loopback run does neither).
pub fn replay_net(data: &TraceData, cfg: &NetReplayConfig) -> Result<NetReplayReport> {
    let mut schedule = schedule(
        data,
        SimDuration::from_micros(cfg.target_wall.as_micros() as u64),
    );
    for step in &mut schedule.steps {
        if let Action::Put { size, .. } = &mut step.action {
            *size = (*size).min(MAX_OBJECT_BYTES);
        }
    }
    let replay = run(&schedule, 1, Substrate::Net { time_scale: 1.0 });
    let count = |o: StepOutcome| replay.outcomes.iter().filter(|&&x| x == o).count() as u64;
    let [stored, hits, misses] =
        [StepOutcome::Stored, StepOutcome::Hit, StepOutcome::Miss].map(count);
    let failed = replay.outcomes.len() as u64 - stored - hits - misses;
    if failed > 0 {
        return Err(Error::Protocol(format!(
            "{failed} trace ops failed byte verification or transport"
        )));
    }
    let mut get_lat: Vec<u64> = replay
        .latency
        .iter()
        .zip(&schedule.steps)
        .filter(|(_, step)| matches!(step.action, Action::Get { .. }))
        .map(|(took, _)| took.as_micros() as u64)
        .collect();
    get_lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if get_lat.is_empty() {
            0
        } else {
            get_lat[(((get_lat.len() - 1) as f64) * p).round() as usize]
        }
    };
    Ok(NetReplayReport {
        ops: data.records.len(),
        stored,
        hits,
        misses,
        verify_failures: 0,
        clamped: data
            .records
            .iter()
            .filter(|r| r.size > MAX_OBJECT_BYTES)
            .count() as u64,
        wall_seconds: replay.elapsed.as_secs_f64(),
        get_latency_us: [pct(0.50), pct(0.90), pct(0.99)],
        outcomes: replay.outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, TraceGenConfig};

    #[test]
    fn sim_replay_reports_are_identical_across_runs() {
        let data = synthesize(&TraceGenConfig::smoke(), 8);
        let cfg = SimReplayConfig::smoke(8);
        let a = replay_sim(&data, &cfg);
        let b = replay_sim(&data, &cfg);
        assert_eq!(a, b, "same trace + seed must reproduce bit-identical stats");
        assert!(
            a.hit_ratio > 0.1 && a.hit_ratio < 1.0,
            "hit {}",
            a.hit_ratio
        );
        assert!(a.total_cost > 0.0);
        assert_eq!(a.hourly.len(), a.hours);
        let hourly_gets: u64 = a.hourly.iter().map(|h| h.gets).sum();
        assert_eq!(hourly_gets as usize, a.gets);
    }

    #[test]
    fn drain_window_bills_and_reclaims_unfolded() {
        let data = synthesize(&TraceGenConfig::smoke(), 8);
        let cfg = SimReplayConfig {
            churn: ChurnProfile::Poisson { per_hour: 120 },
            drain: SimDuration::from_mins(30),
            ..SimReplayConfig::smoke(8)
        };
        let r = replay_sim(&data, &cfg);
        // Billing: the drain's warm-ups bill an hour past the horizon,
        // and the unfolded rows still sum to the total.
        assert!(r.billing_hours.len() > r.hours);
        let billed: f64 = r.billing_hours.iter().flatten().sum();
        assert!((billed - r.total_cost).abs() < 1e-9 * r.total_cost.max(1.0));
        assert!(r.billing_hours[r.hours..].iter().flatten().sum::<f64>() > 0.0);
        // Reclaims: in-horizon plus drain equals the folded curve's sum.
        let in_horizon: u64 = r.reclaim_hours[..r.hours].iter().sum();
        let drain: u64 = r.reclaim_hours[r.hours..].iter().sum();
        assert!(drain > 0, "a 30-minute drain at 120/h must reclaim");
        let folded: u64 = r.hourly.iter().map(|h| h.reclaims).sum();
        assert_eq!(in_horizon + drain, folded);
        // The per-request metrics are the ones the summary came from.
        assert_eq!(r.metrics.hit_ratio(), r.hit_ratio);
        assert_eq!(r.metrics.recoveries(), r.recoveries);
    }

    #[test]
    fn baseline_comparison_is_deterministic_and_priced() {
        let data = synthesize(&TraceGenConfig::smoke(), 8);
        let a = compare_baselines(&data, ElastiCacheDeployment::one_node_24xl());
        let b = compare_baselines(&data, ElastiCacheDeployment::one_node_24xl());
        assert_eq!(a, b);
        assert!(a.elasticache_cost > 0.0);
        assert!(a.s3_cost > 0.0);
        assert!((0.0..=1.0).contains(&a.elasticache_hit_ratio));
        // One cache.r5.24xlarge bills $10.368 per horizon hour.
        let expected = 10.368 * data.hours() as f64;
        assert!((a.elasticache_cost - expected).abs() < 1e-9);
    }

    #[test]
    fn schedule_projection_matches_ops_and_compresses_time() {
        let data = synthesize(&TraceGenConfig::sample(), 4);
        let s = schedule(&data, SimDuration::from_secs(4));
        assert_eq!(s.steps.len(), data.records.len());
        let puts = s
            .steps
            .iter()
            .filter(|x| matches!(x.action, Action::Put { .. }))
            .count();
        assert_eq!(puts, data.puts());
        assert!(s.steps.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(s.steps.last().map(|x| x.at), Some(SimTime::from_secs(4)));
    }
}
