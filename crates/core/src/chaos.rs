//! Chaos-schedule fault injection and the request-lifecycle invariant
//! auditor.
//!
//! InfiniCache's value proposition rests on surviving adversarial
//! lifecycle events — function reclaims mid-GET, connection resets,
//! CLOCK-LRU evictions racing open requests, overwrites racing in-flight
//! acks (§3.2, Fig 10, Fig 14 of the paper). Happy-path tests never reach
//! those interleavings; this module does, deterministically.
//!
//! [`run_chaos`] drives a [`SimWorld`] with a seeded, randomized schedule
//! that interleaves GET/PUT/overwrite traffic from multiple clients
//! across multiple proxies with injected instance reclaims (which also
//! produce delivery failures and connection resets for anything in
//! flight), warm-up ticks, optional delta-sync backup rounds, and
//! capacity-pressure evictions (the pool is deliberately sized a handful
//! of objects small). After every batch of drained events the **invariant
//! auditor** checks:
//!
//! * **request termination** — every application GET/PUT eventually
//!   concludes (`Deliver`/`Miss`/`Unrecoverable`/`PutComplete`/
//!   `PutFailed`): no dangling world-level pending entries, no open
//!   client `GetState`/`PutState`, no proxy `inflight_gets` waiters,
//!   held-back parity or `puts` progress for dead objects, and no
//!   leftover aborted-PUT tombstones once traffic drains;
//! * **byte accounting** — each proxy's `used_bytes` equals the summed
//!   stored length of its live objects;
//! * **mapping consistency** — every mapped chunk belongs to a live
//!   object and points at a pool member, and PUT progress counters never
//!   exceed the stripe.
//!
//! The same seed always reproduces the same schedule, so a violation
//! reported by CI is replayable locally with
//! `run_chaos(&ChaosConfig::small(seed))`. A [`Schedule`] (a trace
//! prefix, say) can replace the sampled traffic; the faults stay
//! seeded.

use std::collections::HashMap;

use ic_common::{ClientId, DeploymentConfig, EcConfig, ObjectKey, Payload, SimDuration, SimTime};
use ic_simfaas::reclaim::{HourlyPoisson, NoReclaim, ReclaimPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::Op;
use crate::params::SimParams;
use crate::schedule::Schedule;
use crate::world::SimWorld;

/// Shape and intensity of one chaos schedule.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the schedule, the world, and victim selection.
    pub seed: u64,
    /// Proxies in the deployment.
    pub proxies: u16,
    /// Clients issuing traffic.
    pub clients: u16,
    /// Pool size per proxy.
    pub lambdas_per_proxy: u32,
    /// Erasure code.
    pub ec: EcConfig,
    /// Distinct keys; small spaces maximize overwrite/eviction races.
    pub key_space: usize,
    /// Operations to inject.
    pub steps: usize,
    /// Inter-operation gap, drawn uniformly from this range (ms).
    pub gap_ms: (u64, u64),
    /// Object sizes, drawn uniformly from this range (bytes).
    pub object_bytes: (u64, u64),
    /// Fraction of steps (on known keys) that are GETs; the rest are
    /// PUTs, which overwrite whenever the key already exists.
    pub get_fraction: f64,
    /// Per-step probability of reclaiming a burst of idle instances.
    pub reclaim_prob: f64,
    /// Maximum instances reclaimed per burst.
    pub max_reclaim_burst: usize,
    /// Background churn fed to the platform's per-minute policy tick
    /// (reclaims/hour; 0 disables it).
    pub churn_per_hour: f64,
    /// Fraction of function memory usable for chunks — deliberately tiny
    /// so the pool only holds a few objects and CLOCK eviction races the
    /// traffic constantly.
    pub cache_memory_fraction: f64,
    /// Whether nodes run delta-sync backup rounds during the schedule.
    pub backup_enabled: bool,
    /// Whether misses refetch from the backing store and re-insert.
    pub write_through: bool,
    /// Audit the invariants every this many steps (1 = every step).
    pub audit_every: usize,
    /// Quiet time after the last operation before the termination audit;
    /// must span a few warm-up ticks so queued messages flush.
    pub drain: SimDuration,
    /// Externally-sourced schedule: when set, traffic (keys, sizes, op
    /// kinds, arrival times after a one-second base) comes from its
    /// steps instead of the seeded sampler — `steps`, `gap_ms`,
    /// `key_space`, `object_bytes` and `get_fraction` are ignored, and
    /// clients take the steps in rotation. Fault injection (reclaim
    /// bursts, policy churn) and the invariant audits stay seeded
    /// exactly as in sampled mode; the schedule's own fault steps are
    /// skipped.
    pub trace: Option<Schedule>,
}

impl ChaosConfig {
    /// A small but adversarial deployment: 2 proxies × 8 nodes, 4
    /// clients, a 10-key space over a pool that only fits a handful of
    /// objects, with reclaim bursts and background churn. Odd seeds run
    /// with delta-sync backups enabled.
    pub fn small(seed: u64) -> Self {
        ChaosConfig {
            seed,
            proxies: 2,
            clients: 4,
            lambdas_per_proxy: 8,
            ec: EcConfig::new(4, 2).expect("valid code"),
            key_space: 10,
            steps: 150,
            gap_ms: (20, 400),
            object_bytes: (4_000, 40_000),
            get_fraction: 0.55,
            reclaim_prob: 0.25,
            max_reclaim_burst: 4,
            churn_per_hour: 60.0,
            cache_memory_fraction: 0.0001,
            backup_enabled: seed % 2 == 1,
            write_through: true,
            audit_every: 4,
            drain: SimDuration::from_mins(5),
            trace: None,
        }
    }

    /// [`ChaosConfig::small`] driven by a trace-sourced schedule instead
    /// of the seeded sampler (see [`ChaosConfig::trace`]).
    pub fn from_trace(seed: u64, trace: Schedule) -> Self {
        ChaosConfig {
            trace: Some(trace),
            ..ChaosConfig::small(seed)
        }
    }

    /// The same deployment with near-zero inter-operation gaps and twice
    /// the steps: operations overlap aggressively, so evictions and
    /// overwrites land *inside* open request windows (this is the
    /// schedule that exposes stranded `inflight_gets` waiters and
    /// stranded writers within a handful of seeds).
    pub fn tight(seed: u64) -> Self {
        ChaosConfig {
            gap_ms: (0, 30),
            steps: 300,
            ..ChaosConfig::small(seed)
        }
    }
}

/// What one chaos run did and found.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Operations submitted.
    pub ops: usize,
    /// Instances reclaimed by injected bursts (policy churn is extra).
    pub injected_reclaims: usize,
    /// Invariant violations, prefixed with the step they surfaced at.
    pub violations: Vec<String>,
    /// CLOCK evictions across all proxies.
    pub evictions: u64,
    /// Overwrite invalidations across all proxies.
    pub overwrites: u64,
    /// Delivery failures (connection resets) across all proxies.
    pub delivery_failures: u64,
    /// GETs admitted data-first (parity requests held back) across all
    /// proxies.
    pub data_first_gets: u64,
    /// Held parity requests released mid-GET, by a data-chunk miss or a
    /// bounced data query, across all proxies.
    pub parity_releases: u64,
    /// PUTs aborted mid-flight across all clients.
    pub failed_puts: u64,
    /// EC recoveries across all clients.
    pub recoveries: u64,
    /// GETs lost beyond parity across all clients.
    pub unrecoverable: u64,
}

impl ChaosReport {
    /// `true` when every audited invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one seeded chaos schedule and audits the invariants throughout.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let deployment = DeploymentConfig {
        proxies: cfg.proxies,
        lambdas_per_proxy: cfg.lambdas_per_proxy,
        lambda_memory_mb: 128,
        ec: cfg.ec,
        backup_interval: SimDuration::from_mins(2),
        backup_enabled: cfg.backup_enabled,
        cache_memory_fraction: cfg.cache_memory_fraction,
        ring_vnodes: 64,
        ..DeploymentConfig::default()
    };
    let policy: Box<dyn ReclaimPolicy> = if cfg.churn_per_hour > 0.0 {
        Box::new(HourlyPoisson::new(cfg.churn_per_hour, "chaos-churn"))
    } else {
        Box::new(NoReclaim)
    };
    let mut world = SimWorld::new(
        deployment,
        SimParams::paper().with_seed(cfg.seed),
        policy,
        cfg.clients,
    );
    world.write_through = cfg.write_through;

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x00c4_a05c);
    let mut sizes: HashMap<ObjectKey, u64> = HashMap::new();
    let mut violations = Vec::new();
    let mut injected = 0usize;
    let mut t = SimTime::from_secs(1);

    let base = t;
    let trace: Option<Vec<_>> = cfg
        .trace
        .as_ref()
        .map(|s| s.ops().map(|(step, op)| (step.at, op)).collect());
    let steps = trace.as_ref().map_or(cfg.steps, Vec::len);
    for step in 0..steps {
        if let Some(trace) = &trace {
            // Trace-sourced schedule: arrivals, keys, sizes and op kinds
            // come from the trace; clients rotate deterministically.
            let (at, op) = &trace[step];
            t = (base + at.since(SimTime::ZERO)).max(t);
            let client = ClientId((step % cfg.clients as usize) as u16);
            if let Some(op) = op {
                world.submit(t, client, op.clone());
            }
        } else {
            t += SimDuration::from_millis(rng.gen_range(cfg.gap_ms.0..=cfg.gap_ms.1));
            let client = ClientId(rng.gen_range(0..cfg.clients));
            let key = ObjectKey::new(format!("k{}", rng.gen_range(0..cfg.key_space)));
            let known = sizes.contains_key(&key);
            if known && rng.gen::<f64>() < cfg.get_fraction {
                world.submit(
                    t,
                    client,
                    Op::Get {
                        key: key.clone(),
                        size: sizes[&key],
                    },
                );
            } else {
                let size = rng.gen_range(cfg.object_bytes.0..=cfg.object_bytes.1);
                sizes.insert(key.clone(), size);
                world.submit(
                    t,
                    client,
                    Op::Put {
                        key,
                        payload: Payload::synthetic(size),
                    },
                );
            }
        }
        world.run_until(t);
        if rng.gen::<f64>() < cfg.reclaim_prob {
            let burst = rng.gen_range(1..=cfg.max_reclaim_burst);
            injected += world.inject_reclaims(burst);
        }
        if step % cfg.audit_every.max(1) == 0 {
            for v in world.check_invariants() {
                violations.push(format!("step {step}: {v}"));
            }
        }
    }

    // Drain: no new traffic; everything in flight must conclude.
    world.run_until(t + cfg.drain);
    for v in world.check_invariants() {
        violations.push(format!("drain: {v}"));
    }
    violations.extend(audit_termination(&world));

    let mut report = ChaosReport {
        seed: cfg.seed,
        ops: steps,
        injected_reclaims: injected,
        violations,
        evictions: 0,
        overwrites: 0,
        delivery_failures: 0,
        data_first_gets: 0,
        parity_releases: 0,
        failed_puts: 0,
        recoveries: 0,
        unrecoverable: 0,
    };
    for p in world.proxies() {
        report.evictions += p.stats.evictions;
        report.overwrites += p.stats.overwrites;
        report.delivery_failures += p.stats.delivery_failures;
        report.data_first_gets += p.stats.data_first_gets;
        report.parity_releases += p.stats.parity_releases_miss + p.stats.parity_releases_bounce;
    }
    for c in world.clients() {
        report.failed_puts += c.stats.failed_puts;
        report.recoveries += c.stats.recoveries;
        report.unrecoverable += c.stats.unrecoverable;
    }
    report
}

/// The termination half of the auditor: after a drained, traffic-free
/// window, every request-lifecycle table must be empty. Anything left is
/// a request that will hang forever.
pub fn audit_termination(world: &SimWorld) -> Vec<String> {
    let mut violations = Vec::new();
    for (client, key) in world.pending_get_keys() {
        violations.push(format!(
            "termination: GET of {key} by {client} never concluded"
        ));
    }
    for (client, key) in world.pending_put_keys() {
        violations.push(format!(
            "termination: PUT of {key} by {client} never concluded"
        ));
    }
    for c in world.clients() {
        if world.is_client_dead(c.id) {
            // A disconnected session's frozen half-open requests are
            // expected (the application lost its connection mid-call,
            // nothing will conclude them); not a leak.
            continue;
        }
        if c.open_gets() + c.open_puts() > 0 {
            violations.push(format!(
                "termination: {} still tracks {} GETs / {} PUTs ({:?})",
                c.id,
                c.open_gets(),
                c.open_puts(),
                c.open_request_keys()
            ));
        }
    }
    for p in world.proxies() {
        if p.inflight_total() > 0 {
            violations.push(format!(
                "termination: {} holds {} in-flight GET waiters",
                p.id(),
                p.inflight_total()
            ));
        }
        if p.held_parity_total() > 0 {
            violations.push(format!(
                "termination: {} holds back the parity of {} GETs",
                p.id(),
                p.held_parity_total()
            ));
        }
        if p.open_puts() > 0 {
            violations.push(format!(
                "termination: {} holds {} unfinished PUT progress entries",
                p.id(),
                p.open_puts()
            ));
        }
        if p.aborted_put_tombstones() > 0 {
            violations.push(format!(
                "termination: {} holds {} undrained aborted-PUT tombstones",
                p.id(),
                p.aborted_put_tombstones()
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let a = run_chaos(&ChaosConfig::small(7));
        let b = run_chaos(&ChaosConfig::small(7));
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.overwrites, b.overwrites);
        assert_eq!(a.injected_reclaims, b.injected_reclaims);
        assert_eq!(a.violations, b.violations);
    }
}
