//! The substrate-parity replay harness: push one `ScriptStep` schedule
//! through each execution substrate — the discrete-event world and the
//! loopback socket cluster — and reduce every step to its
//! application-visible outcome.
//!
//! This is the *single* definition of the parity semantics: the
//! workspace tests (`tests/end_to_end.rs`, `tests/chaos.rs` via
//! `tests/common/`) and the `dbg_replay` reproduction binary all call
//! these functions, so a divergence reported by CI replays bit-for-bit
//! with the same deployment shape, payload pattern, and outcome mapping.

use std::collections::HashMap;

use bytes::Bytes;
use ic_common::{
    ClientId, DeploymentConfig, EcConfig, Error, ObjectKey, Payload, ProxyId, SimTime,
};
use ic_simfaas::reclaim::NoReclaim;
use infinicache::chaos::{ProxyKillPlan, ScriptStep};
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::world::SimWorld;

use crate::cluster::LoopbackCluster;

/// What a step produced, reduced to the application-visible outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A PUT was stored.
    Stored,
    /// A GET was served from cache.
    Hit,
    /// A GET missed.
    Miss,
}

impl std::fmt::Display for StepOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StepOutcome::Stored => "stored",
            StepOutcome::Hit => "hit",
            StepOutcome::Miss => "miss",
        })
    }
}

/// The deployment every substrate replays the script on.
pub fn parity_config() -> DeploymentConfig {
    parity_config_proxies(1)
}

/// The parity deployment scaled out to a proxy fleet (each proxy owns
/// its own 10-node pool).
pub fn parity_config_proxies(proxies: u16) -> DeploymentConfig {
    DeploymentConfig {
        proxies,
        backup_enabled: false,
        ..DeploymentConfig::small(10, EcConfig::new(4, 2).expect("valid code"))
    }
}

/// The deterministic object content the byte-level substrates store, so
/// their GETs can be checked for byte-identity.
pub fn script_payload(len: u64) -> Bytes {
    (0..len)
        .map(|i| ((i * 131 + 17) % 256) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Replays the script through the discrete-event world.
///
/// # Panics
///
/// Panics if a step fails to record an outcome or records one a
/// fault-free schedule cannot produce — that is the divergence signal.
pub fn replay_sim(script: &[ScriptStep]) -> Vec<StepOutcome> {
    replay_sim_proxies(script, 1)
}

/// [`replay_sim`] on a multi-proxy deployment (the client ring-routes
/// keys across the fleet; application-visible outcomes are unchanged by
/// the proxy count on a fault-free schedule, which is exactly what the
/// multi-proxy parity legs assert).
pub fn replay_sim_proxies(script: &[ScriptStep], proxies: u16) -> Vec<StepOutcome> {
    let mut w = SimWorld::new(
        parity_config_proxies(proxies),
        SimParams::paper(),
        Box::new(NoReclaim),
        1,
    );
    w.write_through = false; // as on sockets: a miss stays a miss
    let mut sizes: HashMap<String, u64> = HashMap::new();
    for (i, step) in script.iter().enumerate() {
        let at = SimTime::from_secs(10 + 10 * i as u64);
        match step {
            ScriptStep::Put { key, size } => {
                sizes.insert(key.clone(), *size);
                w.submit(
                    at,
                    ClientId(0),
                    Op::Put {
                        key: ObjectKey::new(key),
                        payload: Payload::synthetic(*size),
                    },
                );
            }
            ScriptStep::Get { key } => {
                let size = sizes.get(key).copied().unwrap_or(0);
                w.submit(
                    at,
                    ClientId(0),
                    Op::Get {
                        key: ObjectKey::new(key),
                        size,
                    },
                );
            }
        }
    }
    w.run_until(SimTime::from_secs(10 + 10 * script.len() as u64 + 120));
    let mut records: Vec<_> = w.metrics.requests.iter().collect();
    records.sort_by_key(|r| r.issued);
    assert_eq!(records.len(), script.len(), "every step must be recorded");
    records
        .iter()
        .map(|r| match (r.kind, r.outcome) {
            (OpKind::Put, Outcome::Stored) => StepOutcome::Stored,
            (OpKind::Get, Outcome::Hit { .. }) => StepOutcome::Hit,
            (OpKind::Get, Outcome::ColdMiss | Outcome::Reset) => StepOutcome::Miss,
            other => panic!("unexpected record {other:?} in a fault-free schedule"),
        })
        .collect()
}

/// Replays the script through a loopback socket cluster: real TCP
/// between the (in-process) proxy, node daemons, and client. Beyond the
/// outcome reduction, every hit is asserted byte-identical to the most
/// recently stored content of its key.
///
/// # Panics
///
/// Panics on operation failure or on a hit whose bytes differ from what
/// was stored.
pub fn replay_net(script: &[ScriptStep]) -> Vec<StepOutcome> {
    replay_net_proxies(script, 1)
}

/// [`replay_net`] against a multi-proxy loopback fleet: the client holds
/// one connection per proxy and spreads the script's keys across the
/// rings by consistent hashing.
pub fn replay_net_proxies(script: &[ScriptStep], proxies: u16) -> Vec<StepOutcome> {
    let cluster =
        LoopbackCluster::start(parity_config_proxies(proxies)).expect("net cluster starts");
    let mut cache = cluster.client().expect("net client connects");
    let mut expected: HashMap<String, Bytes> = HashMap::new();
    let outcomes = script
        .iter()
        .map(|step| match step {
            ScriptStep::Put { key, size } => {
                let data = script_payload(*size);
                cache.put(key, data.clone()).expect("net put succeeds");
                expected.insert(key.clone(), data);
                StepOutcome::Stored
            }
            ScriptStep::Get { key } => match cache.get(key).expect("net get succeeds") {
                Some(bytes) => {
                    assert_eq!(
                        &bytes,
                        expected.get(key).expect("hit implies an earlier put"),
                        "net GET of {key} returned different bytes than were stored"
                    );
                    StepOutcome::Hit
                }
                None => StepOutcome::Miss,
            },
        })
        .collect();
    cluster.shutdown();
    outcomes
}

/// What [`replay_net_proxy_kill`] observed; both sides must be non-empty
/// for the run to have proven anything.
#[derive(Debug, Clone, Copy)]
pub struct ProxyKillReport {
    /// Post-kill steps on surviving proxies that matched the simulator
    /// (byte-identical payloads on hits).
    pub survivor_steps: usize,
    /// Post-kill steps on the victim that failed fast with a transport
    /// error.
    pub victim_steps: usize,
}

/// The multi-proxy fault-parity leg: replays `plan.script` against a
/// `proxies`-proxy loopback fleet, killing proxy `plan.victim` (its
/// listener threads and node daemons, no goodbye frames) just before
/// step `plan.kill_after`, and checks the paper's availability story at
/// the fleet level:
///
/// * every pre-kill step matches the simulator's outcome for the same
///   schedule (hits byte-identical to what was stored);
/// * post-kill steps on keys the *surviving* proxies own still match
///   the simulator — one proxy's death must not disturb the other
///   rings' data or liveness;
/// * post-kill steps on the victim's keys fail fast with
///   [`Error::Transport`] — never a hang, never another proxy's data;
/// * the client has marked exactly the victim down.
///
/// # Panics
///
/// Panics on any divergence — that is the signal the chaos suite
/// reports, replayable by seed via
/// [`infinicache::chaos::sample_proxy_kill_plan`].
pub fn replay_net_proxy_kill(plan: &ProxyKillPlan, proxies: u16) -> ProxyKillReport {
    assert!(plan.victim < proxies, "victim must be in the deployment");
    let sim = replay_sim_proxies(&plan.script, proxies);
    let mut cluster =
        LoopbackCluster::start(parity_config_proxies(proxies)).expect("net cluster starts");
    let mut cache = cluster.client().expect("net client connects");
    let victim = ProxyId(plan.victim);
    let mut expected: HashMap<String, Bytes> = HashMap::new();
    let mut report = ProxyKillReport {
        survivor_steps: 0,
        victim_steps: 0,
    };
    for (i, step) in plan.script.iter().enumerate() {
        if i == plan.kill_after {
            cluster.kill_proxy(victim).expect("victim is running");
        }
        let key = match step {
            ScriptStep::Put { key, .. } | ScriptStep::Get { key } => key,
        };
        let on_victim = cache.proxy_for(key) == victim;
        let dead = i >= plan.kill_after && on_victim;
        match step {
            ScriptStep::Put { key, size } => {
                let data = script_payload(*size);
                match cache.put(key, data.clone()) {
                    Ok(()) if !dead => {
                        assert_eq!(
                            sim[i],
                            StepOutcome::Stored,
                            "step {i}: net stored {key} but the sim did not"
                        );
                        expected.insert(key.clone(), data);
                        if i >= plan.kill_after {
                            report.survivor_steps += 1;
                        }
                    }
                    Err(Error::Transport(_)) if dead => report.victim_steps += 1,
                    other => panic!(
                        "step {i}: PUT of {key} (victim-owned: {on_victim}, post-kill: {}) \
                         ended as {other:?}",
                        i >= plan.kill_after
                    ),
                }
            }
            ScriptStep::Get { key } => match cache.get(key) {
                Ok(got) if !dead => {
                    let outcome = match got {
                        Some(bytes) => {
                            assert_eq!(
                                &bytes,
                                expected.get(key).expect("hit implies an earlier put"),
                                "step {i}: net GET of {key} returned different bytes than stored"
                            );
                            StepOutcome::Hit
                        }
                        None => StepOutcome::Miss,
                    };
                    assert_eq!(
                        outcome, sim[i],
                        "step {i}: survivor-key GET of {key} diverged from the sim"
                    );
                    if i >= plan.kill_after {
                        report.survivor_steps += 1;
                    }
                }
                Err(Error::Transport(_)) if dead => report.victim_steps += 1,
                other => panic!(
                    "step {i}: GET of {key} (victim-owned: {on_victim}, post-kill: {}) \
                     ended as {other:?}",
                    i >= plan.kill_after
                ),
            },
        }
    }
    assert!(
        cache.proxy_down(victim),
        "the client must have marked the killed proxy down"
    );
    for p in 0..proxies {
        if p != plan.victim {
            assert!(
                !cache.proxy_down(ProxyId(p)),
                "survivor ProxyId({p}) must not be poisoned by the victim's death"
            );
        }
    }
    cluster.shutdown();
    report
}
