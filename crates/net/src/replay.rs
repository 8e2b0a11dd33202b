//! The substrate-parity driver: [`run`] pushes one [`Schedule`] through
//! the discrete-event world or a loopback socket cluster and reduces
//! every step to its application-visible [`StepOutcome`].
//!
//! This is the *single* definition of the parity semantics. The
//! workspace tests (`tests/end_to_end.rs`, `tests/chaos.rs`,
//! `tests/mc.rs`, `tests/trace.rs`), the trace engine's net replay and
//! the `dbg_replay` binary all call it, so a divergence reported by CI
//! replays bit-for-bit with the same deployment shape, payloads and
//! outcome mapping. Both substrates run the steps one at a time, in
//! order, each no earlier than its `at`:
//!
//! * a PUT stores `pattern_bytes(key, version, size)` (versions count
//!   the key's PUTs from 0), and a GET that returns anything but the key's
//!   last stored version is [`StepOutcome::Corrupt`] — a stale
//!   overwrite is visible, not just a wrong length;
//! * a GET expects the size of its key's last PUT
//!   ([`Schedule::ops`]);
//! * after a `kill-proxy P` step, every op on a key that P owns is
//!   [`StepOutcome::Unavailable`]: the sockets see the transport error,
//!   the simulator routes the key through the same `ClientLib::route`
//!   and skips the op.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ic_common::{ClientId, DeploymentConfig, EcConfig, Error, ObjectKey, ProxyId};
use ic_simfaas::reclaim::NoReclaim;
use infinicache::event::Op;
use infinicache::metrics::{OpKind, Outcome};
use infinicache::params::SimParams;
use infinicache::schedule::{Action, Schedule, Step};
use infinicache::scheduler::Choice;
use infinicache::world::SimWorld;

use crate::bench::pattern_bytes;
use crate::client::NetClient;
use crate::cluster::LoopbackCluster;

/// What a step produced, reduced to the application-visible outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A PUT was stored.
    Stored,
    /// A GET returned the key's last stored version.
    Hit,
    /// A GET missed.
    Miss,
    /// A GET returned bytes other than the key's last stored version.
    Corrupt,
    /// The op's key belongs to a killed proxy.
    Unavailable,
    /// A `kill-proxy` step killed its proxy.
    Killed,
}

/// The deployment every substrate replays a schedule on: `proxies`
/// proxies, each with its own 10-node pool, 4+2 erasure code, no
/// backups, and the 64-vnode ring a `NetClient` routes keys by.
pub fn parity_config(proxies: u16) -> DeploymentConfig {
    DeploymentConfig {
        proxies,
        backup_enabled: false,
        ring_vnodes: 64,
        ..DeploymentConfig::small(10, EcConfig::new(4, 2).expect("valid code"))
    }
}

/// Where [`run`] executes a schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Substrate {
    /// The discrete-event world (no write-through: a miss stays a miss,
    /// as on the sockets).
    Sim,
    /// A loopback socket cluster: real TCP between the in-process
    /// proxies, node daemons and one client connection per schedule
    /// client.
    Net {
        /// Wall seconds per schedule second: a step starts no earlier
        /// than `at × time_scale` after the run began. At 0 the steps
        /// run back to back.
        time_scale: f64,
    },
}

/// What one [`run`] observed.
#[derive(Clone, Debug)]
pub struct Replay {
    /// One outcome per schedule step.
    pub outcomes: Vec<StepOutcome>,
    /// How long each step took on the substrate's clock (simulated time
    /// in the world, wall time on sockets; zero for a fault or an
    /// unavailable op).
    pub latency: Vec<Duration>,
    /// The substrate's clock from the run's start to its last step's
    /// conclusion.
    pub elapsed: Duration,
}

/// One substrate, part-way through a run.
enum Leg {
    Sim {
        world: Box<SimWorld>,
        killed: Vec<ProxyId>,
    },
    Net {
        cluster: LoopbackCluster,
        clients: Vec<NetClient>,
        /// Each key's last stored `(version, length)`.
        stored: HashMap<ObjectKey, (u64, usize)>,
        time_scale: f64,
        start: Instant,
    },
}

impl Leg {
    fn start(schedule: &Schedule, proxies: u16, substrate: Substrate) -> Leg {
        let cfg = parity_config(proxies);
        let clients = schedule
            .steps
            .iter()
            .map(|s| s.client + 1)
            .max()
            .unwrap_or(1);
        match substrate {
            Substrate::Sim => {
                let mut world =
                    SimWorld::new(cfg, SimParams::paper(), Box::new(NoReclaim), clients);
                world.write_through = false;
                Leg::Sim {
                    world: Box::new(world),
                    killed: Vec::new(),
                }
            }
            Substrate::Net { time_scale } => {
                let cluster = LoopbackCluster::start(cfg).expect("net cluster starts");
                let clients = (0..clients)
                    .map(|c| cluster.client_seeded(7 + u64::from(c)))
                    .collect::<Result<_, _>>()
                    .expect("net clients connect");
                Leg::Net {
                    cluster,
                    clients,
                    stored: HashMap::new(),
                    time_scale,
                    start: Instant::now(),
                }
            }
        }
    }

    fn kill(&mut self, proxy: ProxyId) {
        match self {
            Leg::Sim { killed, .. } => killed.push(proxy),
            Leg::Net { cluster, .. } => cluster.kill_proxy(proxy).expect("the proxy is running"),
        }
    }

    /// Executes one op; the step's index `i` names it in panics.
    fn exec(&mut self, i: usize, step: &Step, op: Op) -> (StepOutcome, Duration) {
        match self {
            Leg::Sim { world, killed } => {
                let client = ClientId(step.client);
                if killed.contains(&world.clients()[client.0 as usize].route(op.key())) {
                    return (StepOutcome::Unavailable, Duration::ZERO);
                }
                let n = world.metrics.requests.len();
                world.submit(step.at.max(world.now()), client, op);
                while world.metrics.requests.len() == n {
                    let seq = world.peek_event_seq().expect("a submitted op concludes");
                    world.apply(Choice::Deliver { seq });
                }
                let r = &world.metrics.requests[n];
                let outcome = match (r.kind, r.outcome) {
                    (OpKind::Put, Outcome::Stored) => StepOutcome::Stored,
                    (OpKind::Get, Outcome::Hit { .. }) => StepOutcome::Hit,
                    (OpKind::Get, Outcome::ColdMiss | Outcome::Reset) => StepOutcome::Miss,
                    other => panic!("step {i}: unexpected sim record {other:?}"),
                };
                (outcome, Duration::from_micros(r.latency().as_micros()))
            }
            Leg::Net {
                clients,
                stored,
                time_scale,
                start,
                ..
            } => {
                if *time_scale > 0.0 {
                    let due = *start + Duration::from_secs_f64(step.at.as_secs_f64() * *time_scale);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                let client = &mut clients[step.client as usize];
                let (result, took) = match op {
                    Op::Put { key, payload } => {
                        let version = stored.get(&key).map_or(0, |&(v, _)| v + 1);
                        let len = payload.len() as usize;
                        let data = pattern_bytes(key.as_str(), version, len);
                        let (put, took) = timed(|| client.put(key.as_str(), data));
                        let stored = put.map(|()| {
                            stored.insert(key, (version, len));
                            StepOutcome::Stored
                        });
                        (stored, took)
                    }
                    Op::Get { key, .. } => {
                        let (got, took) = timed(|| client.get(key.as_str()));
                        let verified = got.map(|got| match (got, stored.get(&key)) {
                            (None, _) => StepOutcome::Miss,
                            (Some(bytes), Some(&(v, len)))
                                if bytes == pattern_bytes(key.as_str(), v, len) =>
                            {
                                StepOutcome::Hit
                            }
                            (Some(_), _) => StepOutcome::Corrupt,
                        });
                        (verified, took)
                    }
                };
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(Error::Transport(_)) => StepOutcome::Unavailable,
                    Err(e) => panic!("step {i} ({}) failed on the sockets: {e}", step.action),
                };
                (outcome, took)
            }
        }
    }

    fn finish(self) -> Duration {
        match self {
            Leg::Sim { world, .. } => Duration::from_micros(world.now().as_micros()),
            Leg::Net { cluster, start, .. } => {
                let elapsed = start.elapsed();
                cluster.shutdown();
                elapsed
            }
        }
    }
}

/// `f()` and the wall time it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let issued = Instant::now();
    let out = f();
    (out, issued.elapsed())
}

/// Runs `schedule` on a `proxies`-proxy [`parity_config`] deployment on
/// `substrate` (see the module docs for the semantics).
///
/// # Panics
///
/// Panics if the cluster does not start, if an op fails with anything
/// but a transport error, or if the simulator records an outcome a
/// fault-free world cannot produce.
pub fn run(schedule: &Schedule, proxies: u16, substrate: Substrate) -> Replay {
    let mut leg = Leg::start(schedule, proxies, substrate);
    let (mut outcomes, mut latency) = (Vec::new(), Vec::new());
    for (i, (step, op)) in schedule.ops().enumerate() {
        let (outcome, took) = match (&step.action, op) {
            (Action::KillProxy(p), _) => {
                leg.kill(ProxyId(*p));
                (StepOutcome::Killed, Duration::ZERO)
            }
            (_, op) => leg.exec(i, step, op.expect("a PUT or GET is an op")),
        };
        outcomes.push(outcome);
        latency.push(took);
    }
    Replay {
        outcomes,
        latency,
        elapsed: leg.finish(),
    }
}
