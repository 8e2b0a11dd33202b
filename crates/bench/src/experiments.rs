//! The figure drivers that are not trace replays — one per family of
//! paper artifacts (Fig 4, 8/9, 11, 12).
//!
//! Each driver builds a [`SimWorld`] (or a baseline model), drives it,
//! and returns plain data that `reproduce` formats into the rows and
//! series of the corresponding table or figure. Everything is seeded and
//! deterministic. The production-trace figures (13–16, Table 1) replay
//! through `ic_trace::replay` instead.

use ic_analytics::Summary;
use ic_baselines::{ElastiCacheDeployment, ElastiCacheModel};
use ic_common::{ClientId, DeploymentConfig, EcConfig, ObjectKey, Payload, SimDuration, SimTime};
use ic_simfaas::platform::PlatformConfig;
use ic_simfaas::reclaim::{NoReclaim, ReclaimPolicy};
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::world::SimWorld;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Microbenchmarks (Fig 11)
// ---------------------------------------------------------------------

/// One microbenchmark configuration's latency distribution.
#[derive(Clone, Debug)]
pub struct MicrobenchRow {
    /// Function memory (MB).
    pub memory_mb: u32,
    /// The RS code.
    pub ec: EcConfig,
    /// Object size in bytes.
    pub object_size: u64,
    /// GET latency summary (milliseconds).
    pub latency_ms: Summary,
}

/// Fig 11: GET latency for every (code × object size) on a given function
/// memory. Pre-populates once, then issues `trials` spaced sequential GETs.
pub fn microbenchmark(
    memory_mb: u32,
    codes: &[EcConfig],
    sizes: &[u64],
    trials: usize,
    seed: u64,
) -> Vec<MicrobenchRow> {
    let mut rows = Vec::new();
    for &ec in codes {
        for &size in sizes {
            let cfg = DeploymentConfig {
                lambda_memory_mb: memory_mb,
                backup_enabled: false,
                lambdas_per_proxy: (ec.shards() as u32 * 3).max(40),
                ..DeploymentConfig::small(40, ec)
            };
            let mut w = SimWorld::new(
                cfg,
                SimParams::paper()
                    .with_seed(seed ^ (memory_mb as u64) << 32 ^ (ec.shards() as u64) << 8 ^ size),
                Box::new(NoReclaim),
                1,
            );
            w.write_through = false;
            let key = ObjectKey::new("bench");
            // Let the first warm-up tick place the whole pool on hosts
            // before measuring (the paper benchmarks a deployed pool).
            w.submit(
                SimTime::from_secs(70),
                ClientId(0),
                Op::Put {
                    key: key.clone(),
                    payload: Payload::synthetic(size),
                },
            );
            // Spaced sequential GETs (close enough to keep functions warm,
            // far enough not to overlap).
            for t in 0..trials {
                w.submit(
                    SimTime::from_secs(80 + 2 * t as u64),
                    ClientId(0),
                    Op::Get {
                        key: key.clone(),
                        size,
                    },
                );
            }
            w.run_until(SimTime::from_secs(80 + 2 * trials as u64 + 30));
            let lats = w.metrics.get_latencies_ms(0);
            rows.push(MicrobenchRow {
                memory_mb,
                ec,
                object_size: size,
                latency_ms: Summary::from_values(&lats),
            });
        }
    }
    rows
}

/// Fig 11(f)'s ElastiCache series: sequential GET latency per object size.
pub fn elasticache_microbenchmark(
    deployment: ElastiCacheDeployment,
    sizes: &[u64],
    trials: usize,
) -> Vec<(u64, Summary)> {
    sizes
        .iter()
        .map(|&size| {
            let mut model = ElastiCacheModel::new(deployment);
            let lats: Vec<f64> = (0..trials)
                .map(|t| {
                    let at = SimTime::from_secs(2 * t as u64);
                    let key = ObjectKey::new(format!("k{t}"));
                    model.request_latency(at, &key, size).as_millis_f64()
                })
                .collect();
            (size, Summary::from_values(&lats))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig 4: co-location contention
// ---------------------------------------------------------------------

/// Latency grouped by the number of VM hosts a request touched.
#[derive(Clone, Debug)]
pub struct ColocationReport {
    /// `(hosts_touched, latency summary in ms, samples)` in ascending
    /// hosts order.
    pub by_hosts: Vec<(u32, Summary)>,
}

/// Fig 4: 100 MB objects, RS(10+1), 256 MB functions, pool scaled from
/// `pool_min` to `pool_max`; GET latency as a function of VM hosts touched.
pub fn colocation_study(
    pool_sizes: &[u32],
    objects_per_pool: usize,
    seed: u64,
) -> ColocationReport {
    use std::collections::BTreeMap;
    let ec = EcConfig::new(10, 1).expect("valid code");
    let size = 100 * 1000 * 1000u64;
    let mut grouped: BTreeMap<u32, Vec<f64>> = BTreeMap::new();

    for (i, &pool) in pool_sizes.iter().enumerate() {
        let cfg = DeploymentConfig {
            lambda_memory_mb: 256,
            backup_enabled: false,
            ..DeploymentConfig::small(pool, ec)
        };
        // 256 MB-function-era hosts: a tighter shared uplink than the
        // modern default, which is what makes co-location contention bite
        // (the effect Fig 4 measures).
        let mut platform_cfg = PlatformConfig::aws_like(pool, 256);
        platform_cfg.host.uplink_bytes_per_sec = 130.0e6;
        let mut w = SimWorld::with_platform(
            cfg,
            SimParams::paper().with_seed(seed + i as u64),
            Box::new(NoReclaim),
            1,
            platform_cfg,
        );
        w.write_through = false;
        for obj in 0..objects_per_pool {
            let key = ObjectKey::new(format!("o{obj}"));
            // Start after the first warm-up tick so the whole pool is
            // bin-packed onto its hosts, as in the paper's deployment.
            let base = SimTime::from_secs(70 + obj as u64 * 6);
            w.submit(
                base,
                ClientId(0),
                Op::Put {
                    key: key.clone(),
                    payload: Payload::synthetic(size),
                },
            );
            w.submit(
                base + SimDuration::from_secs(3),
                ClientId(0),
                Op::Get { key, size },
            );
        }
        w.run_until(SimTime::from_secs(70 + objects_per_pool as u64 * 6 + 60));
        for r in &w.metrics.requests {
            if r.kind == OpKind::Get && matches!(r.outcome, Outcome::Hit { .. }) {
                grouped
                    .entry(r.hosts_touched)
                    .or_default()
                    .push(r.latency().as_millis_f64());
            }
        }
    }
    ColocationReport {
        by_hosts: grouped
            .into_iter()
            .map(|(h, v)| (h, Summary::from_values(&v)))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig 12: scalability
// ---------------------------------------------------------------------

/// Throughput at one client count.
#[derive(Clone, Copy, Debug)]
pub struct ScalabilityPoint {
    /// Number of concurrent clients.
    pub clients: u16,
    /// Aggregate goodput in GB/s (decimal).
    pub throughput_gbps: f64,
}

/// Fig 12: aggregate GET throughput as the client count grows. Each client
/// runs `rounds` closed-loop batches of `batch` concurrent 100 MB GETs
/// against a 5-proxy × 50-node pool of 1024 MB functions.
pub fn scalability_study(
    client_counts: &[u16],
    batch: usize,
    rounds: usize,
    seed: u64,
) -> Vec<ScalabilityPoint> {
    let ec = EcConfig::new(10, 1).expect("valid code");
    let size = 100 * 1000 * 1000u64;
    let mut out = Vec::new();
    for &n_clients in client_counts {
        let cfg = DeploymentConfig {
            proxies: 5,
            lambdas_per_proxy: 50,
            lambda_memory_mb: 1024,
            backup_enabled: false,
            ec,
            ..DeploymentConfig::default()
        };
        let mut w = SimWorld::new(
            cfg,
            SimParams::paper().with_seed(seed),
            Box::new(NoReclaim),
            n_clients,
        );
        w.write_through = false;

        // Pre-populate a shared object set, spread across proxies by the
        // ring: enough keys that concurrent GETs hit distinct nodes.
        let keys: Vec<ObjectKey> = (0..batch * 4)
            .map(|i| ObjectKey::new(format!("s{i}")))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            w.submit(
                SimTime::from_millis(70_000 + 40 * i as u64),
                ClientId(0),
                Op::Put {
                    key: k.clone(),
                    payload: Payload::synthetic(size),
                },
            );
        }
        let mut t = SimTime::from_secs(130);
        w.run_until(t);
        let start = t;
        let mut rng = SmallRng::seed_from_u64(seed ^ n_clients as u64);
        use rand::Rng;
        for _ in 0..rounds {
            for c in 0..n_clients {
                for _ in 0..batch {
                    let k = keys[rng.gen_range(0..keys.len())].clone();
                    w.submit(t, ClientId(c), Op::Get { key: k, size });
                }
            }
            // Closed-loop batch: a tight round interval keeps the offered
            // load at the deployment's capacity rather than idling between
            // rounds.
            t += SimDuration::from_millis(1_000);
            w.run_until(t);
        }
        w.run_until(t + SimDuration::from_secs(30));
        let bytes: u64 = w
            .metrics
            .requests
            .iter()
            .filter(|r| {
                r.kind == OpKind::Get
                    && matches!(r.outcome, Outcome::Hit { .. })
                    && r.issued >= start
            })
            .map(|r| r.size)
            .sum();
        let elapsed = (w.now() - start).as_secs_f64();
        out.push(ScalabilityPoint {
            clients: n_clients,
            throughput_gbps: bytes as f64 / 1e9 / elapsed.max(1e-9),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Fig 8/9: reclaim timelines
// ---------------------------------------------------------------------

/// Reclaim counts from a 24-hour idle deployment under one policy.
#[derive(Clone, Debug)]
pub struct ReclaimTimeline {
    /// Policy label (paper legend string).
    pub label: String,
    /// Reclaims per hour, 24 entries.
    pub per_hour: Vec<u64>,
    /// Reclaims per minute, 1440 entries (Fig 9's distribution source).
    pub per_minute: Vec<u64>,
}

/// Fig 8/9: run a 400-function fleet for 24 h with only warm-ups under a
/// reclamation policy; count reclaim events over time.
pub fn reclaim_study(
    policy: Box<dyn ReclaimPolicy>,
    label: &str,
    warmup: SimDuration,
    fleet: u32,
    seed: u64,
) -> ReclaimTimeline {
    let cfg = DeploymentConfig {
        lambdas_per_proxy: fleet,
        warmup_interval: warmup,
        backup_enabled: false,
        ..DeploymentConfig::default()
    };
    let mut w = SimWorld::new(cfg, SimParams::paper().with_seed(seed), policy, 1);
    w.run_until(SimTime::from_secs(24 * 3600));
    let mut per_hour = vec![0u64; 24];
    let mut per_minute = vec![0u64; 24 * 60];
    for (t, _, _) in w.platform.reclaim_log() {
        let h = t.hour() as usize;
        if h < 24 {
            per_hour[h] += 1;
        }
        let m = t.minute() as usize;
        if m < per_minute.len() {
            per_minute[m] += 1;
        }
    }
    ReclaimTimeline {
        label: label.to_string(),
        per_hour,
        per_minute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_simfaas::reclaim::HourlyPoisson;
    use ic_trace::replay::{baseline_latencies, replay_sim, ChurnProfile, SimReplayConfig};
    use ic_trace::synth::{synthesize, TraceGenConfig};
    use ic_trace::LARGE_OBJECT_BYTES;

    #[test]
    fn microbenchmark_latency_orders_by_memory() {
        let codes = [EcConfig::new(10, 1).unwrap()];
        let sizes = [100 * 1000 * 1000u64];
        let small = microbenchmark(512, &codes, &sizes, 12, 1);
        let big = microbenchmark(2048, &codes, &sizes, 12, 1);
        assert!(
            small[0].latency_ms.p50 > big[0].latency_ms.p50,
            "512 MB {} ms vs 2048 MB {} ms",
            small[0].latency_ms.p50,
            big[0].latency_ms.p50
        );
    }

    #[test]
    fn elasticache_rows_grow_with_size() {
        let rows = elasticache_microbenchmark(
            ElastiCacheDeployment::one_node_8xl(),
            &[10_000_000, 100_000_000],
            10,
        );
        assert!(rows[0].1.p50 < rows[1].1.p50);
    }

    #[test]
    fn colocation_latency_improves_with_more_hosts() {
        let report = colocation_study(&[20, 120], 10, 3);
        assert!(report.by_hosts.len() >= 2, "need a spread of host counts");
        let first = &report.by_hosts.first().unwrap();
        let last = &report.by_hosts.last().unwrap();
        assert!(first.0 < last.0);
        assert!(
            first.1.p50 > last.1.p50,
            "few hosts {} ms vs many hosts {} ms",
            first.1.p50,
            last.1.p50
        );
    }

    #[test]
    fn scalability_grows_with_clients() {
        let pts = scalability_study(&[1, 4], 4, 3, 5);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].throughput_gbps > pts[0].throughput_gbps * 2.0,
            "1 client {} GB/s, 4 clients {} GB/s",
            pts[0].throughput_gbps,
            pts[1].throughput_gbps
        );
    }

    #[test]
    fn reclaim_study_counts_policy_events() {
        let tl = reclaim_study(
            Box::new(HourlyPoisson::new(36.0, "dec")),
            "dec",
            SimDuration::from_mins(1),
            50,
            7,
        );
        let total: u64 = tl.per_hour.iter().sum();
        let per_hour = total as f64 / 24.0;
        // The fleet only has 50 idle candidates but λ=36/h should land
        // close to its mean.
        assert!((20.0..55.0).contains(&per_hour), "observed {per_hour}/h");
        assert_eq!(tl.per_minute.iter().sum::<u64>(), total);
    }

    #[test]
    fn mini_trace_replay_produces_consistent_report() {
        let trace = synthesize(&TraceGenConfig::mini(), 3);
        let cfg = SimReplayConfig {
            deployment: DeploymentConfig {
                lambdas_per_proxy: 40,
                lambda_memory_mb: 512,
                ..DeploymentConfig::small(40, EcConfig::new(4, 2).unwrap())
            },
            seed: SimParams::paper().seed,
            churn: ChurnProfile::Poisson { per_hour: 10 },
            ..SimReplayConfig::production(0)
        };
        let report = replay_sim(&trace, &cfg);
        assert!(report.total_cost > 0.0);
        assert!(
            report.hit_ratio > 0.2 && report.hit_ratio < 1.0,
            "hit {}",
            report.hit_ratio
        );
        assert!(report.availability > 0.5);
        let gets = report
            .metrics
            .requests
            .iter()
            .filter(|r| r.kind == OpKind::Get)
            .count();
        assert!(
            gets as f64 > trace.records.len() as f64 * 0.95,
            "{gets} of {} GETs completed",
            trace.records.len()
        );
        let cat_sum: f64 = report.category_cost.iter().sum();
        assert!((cat_sum - report.total_cost).abs() < 1e-9);
    }

    #[test]
    fn elasticache_replay_hits_more_with_more_memory() {
        let trace = synthesize(&TraceGenConfig::mini(), 4);
        let (small_ratio, _) =
            baseline_latencies(&trace, Some(ElastiCacheDeployment::ten_node_xl()), 1);
        let (big_ratio, recs) =
            baseline_latencies(&trace, Some(ElastiCacheDeployment::one_node_24xl()), 1);
        assert!(big_ratio >= small_ratio);
        assert_eq!(recs.len(), trace.records.len());
    }

    #[test]
    fn s3_replay_covers_all_requests_slowly() {
        let trace = synthesize(&TraceGenConfig::mini(), 5);
        let (hit_ratio, recs) = baseline_latencies(&trace, None, 2);
        assert_eq!(hit_ratio, 0.0);
        assert_eq!(recs.len(), trace.records.len());
        let large_lat: Vec<f64> = recs
            .iter()
            .filter(|r| r.size > LARGE_OBJECT_BYTES)
            .map(|r| r.latency_ms)
            .collect();
        let s = Summary::from_values(&large_lat);
        assert!(
            s.p50 > 500.0,
            "large objects from S3 are slow: {} ms",
            s.p50
        );
    }
}
