//! "Request races BYE", on both substrates.
//!
//! A proxy sends on a live node connection without a preflight PING, so
//! the one validation-failure path is the bounce: an instance returns at
//! the end of its billing cycle with requests already in flight to it,
//! the transport hands them back (`Proxy::on_delivery_failed`), and the
//! proxy re-invokes once and re-sends them in their original order. Here
//! one node returns with a `ChunkGet` *and* a `ChunkPut` in flight: under
//! the simulator (a scheduler delays the two deliveries past the
//! instance's return timer) and over real sockets (a scripted daemon
//! holds the two frames, ends the cycle, then delivers them). On both the
//! node holds a *data* chunk of the object being read: a healthy stripe
//! is read data-first, so a parity home would see no `ChunkGet` at all.
//!
//! One `#[test]` on purpose: the socket leg takes a census of this
//! process's proxy threads.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ic_common::msg::Msg;
use ic_common::{
    ChunkId, ClientId, DeploymentConfig, EcConfig, InstanceId, LambdaId, ObjectKey, Payload,
    ProxyId, SimDuration, SimTime,
};
use ic_lambda::runtime::RuntimeConfig;
use ic_net::bench::pattern_bytes;
use ic_net::{Frame, FrameStream, LoopbackCluster};
use ic_simfaas::reclaim::NoReclaim;
use infinicache::event::{Ev, Op};
use infinicache::metrics::{OpKind, Outcome};
use infinicache::nodehost::{NodeHost, NodeIo};
use infinicache::scheduler::{Choice, Scheduler};
use infinicache::{SimParams, SimWorld};

/// The node the socket leg scripts (the simulator leg picks its own).
const VICTIM: LambdaId = LambdaId(0);

/// Six nodes under a 4+2 code: every stripe has a chunk on every node,
/// so the victim holds one chunk of each object.
fn deployment() -> DeploymentConfig {
    DeploymentConfig {
        backup_enabled: false,
        ..DeploymentConfig::small(6, EcConfig::new(4, 2).expect("valid code"))
    }
}

fn is_request(msg: &Msg) -> bool {
    matches!(msg, Msg::ChunkGet { .. } | Msg::ChunkPut { .. })
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

/// Time-ordered delivery, except that requests addressed to the victim
/// instance stay in flight — a slow network, in effect — and its return
/// timer waits with them until both a `ChunkGet` and a `ChunkPut` are on
/// the way. Then the billing cycle ends, and only then do they land.
struct ReturnUnderRequests {
    node: LambdaId,
    victim: InstanceId,
    until: SimTime,
    returned: bool,
    /// Requests that landed on the returned instance (`true` = a
    /// `ChunkPut`), in landing order.
    bounced: Vec<bool>,
    /// Invocations of the victim node since its return.
    reinvokes: usize,
}

impl ReturnUnderRequests {
    fn is_timer(&self, ev: &Ev) -> bool {
        matches!(ev, Ev::LambdaTimer { instance, .. } if *instance == self.victim)
    }

    fn is_request(&self, ev: &Ev) -> bool {
        matches!(ev, Ev::InstanceRx { instance, msg, .. }
            if *instance == self.victim && is_request(msg))
    }
}

impl Scheduler for ReturnUnderRequests {
    fn next(&mut self, world: &SimWorld) -> Option<Choice> {
        let pending = world.pending_events();
        if !self.returned {
            let in_flight = |put: bool| {
                pending.iter().any(|(_, _, ev)| {
                    let is_put = matches!(
                        ev,
                        Ev::InstanceRx {
                            msg: Msg::ChunkPut { .. },
                            ..
                        }
                    );
                    self.is_request(ev) && is_put == put
                })
            };
            if in_flight(false) && in_flight(true) {
                // The cycle ends: run the victim's timers (stale tokens
                // among them are no-ops), then let everything land.
                match pending.iter().find(|(_, _, ev)| self.is_timer(ev)) {
                    Some(&(seq, _, _)) => return Some(Choice::Deliver { seq }),
                    None => self.returned = true,
                }
            }
        }
        let &(seq, at, ev) = pending
            .iter()
            .find(|(_, _, ev)| self.returned || !(self.is_timer(ev) || self.is_request(ev)))?;
        if at > self.until {
            return None;
        }
        if self.returned {
            match ev {
                Ev::InvokeReady { lambda, .. } if *lambda == self.node => self.reinvokes += 1,
                Ev::InstanceRx { msg, .. } if self.is_request(ev) && self.reinvokes == 0 => {
                    self.bounced.push(matches!(msg, Msg::ChunkPut { .. }));
                }
                _ => {}
            }
        }
        Some(Choice::Deliver { seq })
    }
}

fn sim_leg() {
    let mut w = SimWorld::new(deployment(), SimParams::paper(), Box::new(NoReclaim), 2);
    w.write_through = false;
    let (reader, writer) = (ClientId(0), ClientId(1));
    let put = |key: &str, size| Op::Put {
        key: ObjectKey::new(key),
        payload: Payload::synthetic(size),
    };
    let get = |key: &str, size| Op::Get {
        key: ObjectKey::new(key),
        size,
    };
    w.submit(SimTime::from_secs(10), reader, put("r", 300_000));
    w.submit(SimTime::from_secs(11), writer, put("w", 200_000));
    // A GET wakes every node; the race starts inside that billing cycle,
    // with every connection live.
    let wake = SimTime::from_secs(20);
    w.submit(wake, reader, get("r", 300_000));
    w.run_until(wake + SimDuration::from_millis(30));
    assert_eq!(w.metrics.requests.len(), 3, "preload and wake-up finished");
    let node = w.proxies()[0]
        .chunk_owner(&ChunkId::new(ObjectKey::new("r"), 0))
        .expect("stored");
    let conn = w.proxies()[0].member(node).expect("pool member");
    assert_eq!(conn.liveness(), ic_proxy::Liveness::Active);
    let victim = conn.instance().expect("answered the wake-up");
    let before = w.proxy_stats(ProxyId(0));

    let now = w.now();
    w.submit(now + SimDuration::from_millis(1), reader, get("r", 300_000));
    w.submit(now + SimDuration::from_millis(1), writer, put("w", 250_000));
    let mut sched = ReturnUnderRequests {
        node,
        victim,
        until: now + SimDuration::from_secs(5),
        returned: false,
        bounced: Vec::new(),
        reinvokes: 0,
    };
    w.run_with(&mut sched);

    sched.bounced.sort_unstable();
    assert_eq!(
        sched.bounced,
        [false, true],
        "a ChunkGet and a ChunkPut bounced"
    );
    assert_eq!(sched.reinvokes, 1, "two bounces, one re-invoke");
    let stats = w.proxy_stats(ProxyId(0));
    // On the victim: the ChunkGet, and the overwrite's lazy ChunkDelete
    // and ChunkPut. The read was data-first, so r's two parity homes saw
    // one request this cycle — not a busy one — and returned as well:
    // the overwrite's ChunkDelete and ChunkPut bounce off each, and so do
    // the parity queries the victim's bounce released.
    assert_eq!(
        stats.delivery_failures - before.delivery_failures,
        3 + 4 + 2
    );
    assert_eq!(stats.parity_releases_bounce, 1);
    let raced = &w.metrics.requests[3..];
    assert_eq!(raced.len(), 2, "both racing operations completed");
    for r in raced {
        match r.kind {
            OpKind::Get => assert!(matches!(r.outcome, Outcome::Hit { .. }), "{r:?}"),
            OpKind::Put => assert_eq!(r.outcome, Outcome::Stored, "{r:?}"),
        }
    }
    // The overwrite is what a later reader sees, on every node.
    let later = w.now() + SimDuration::from_secs(5);
    w.submit(later, reader, get("w", 250_000));
    w.run_until(later + SimDuration::from_secs(5));
    let last = w.metrics.requests.last().expect("recorded");
    assert!(matches!(last.outcome, Outcome::Hit { .. }), "{last:?}");
    assert_eq!(w.check_invariants(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

/// The scripted daemon's proxy channel: frames pile up until the loop
/// writes them out.
#[derive(Default)]
struct Outbox(Vec<(InstanceId, Msg)>);

impl NodeIo for Outbox {
    fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg) {
        self.0.push((instance, msg));
    }
}

/// What the scripted daemon saw.
#[derive(Debug, Default)]
struct DaemonLog {
    invokes: usize,
    /// Kinds of the requests it bounced, in arrival order.
    bounced: Vec<&'static str>,
    /// Kinds of the requests it served after the re-invoke, in order.
    served_after: Vec<&'static str>,
}

/// A node daemon over a real socket that never returns on its own. Once
/// `armed`, it holds request frames until a `ChunkGet` and a `ChunkPut`
/// are both in hand, ends the instance's billing cycle (BYE), and only
/// then delivers them. `r_seq` reports which shard of object `r` it was
/// last given to store.
fn scripted_daemon(proxy: SocketAddr, armed: Arc<AtomicBool>, r_seq: Arc<AtomicU32>) -> DaemonLog {
    let stream = TcpStream::connect(proxy).expect("proxy node port");
    stream.set_nodelay(true).expect("nodelay");
    let mut stream = FrameStream::new(stream);
    stream
        .send(&Frame::HelloNode { lambda: VICTIM })
        .expect("hello");
    let rt_cfg = RuntimeConfig::for_deployment(&deployment());
    let mut host = NodeHost::new(VICTIM, rt_cfg, Outbox::default());
    let mut log = DaemonLog::default();
    let mut held: Vec<(InstanceId, Msg)> = Vec::new();
    let epoch = std::time::Instant::now();
    let now = || SimTime::from_micros(epoch.elapsed().as_micros() as u64);
    loop {
        let frame = match stream.recv() {
            Ok(Frame::Shutdown) | Err(_) => return log,
            Ok(frame) => frame,
        };
        let mut bounces = Vec::new();
        match frame {
            Frame::Invoke { payload } => {
                log.invokes += 1;
                host.invoke(now(), &payload);
            }
            Frame::ToInstance { instance, msg }
                if armed.load(Ordering::SeqCst) && is_request(&msg) =>
            {
                held.push((instance, msg));
                let puts = held
                    .iter()
                    .filter(|(_, m)| matches!(m, Msg::ChunkPut { .. }))
                    .count();
                if puts > 0 && puts < held.len() {
                    armed.store(false, Ordering::SeqCst);
                    // A busy cycle (the two preloads) rides one more;
                    // an idle one returns and disarms the timer.
                    while let Some(cycle_end) = host.next_timer_at() {
                        host.fire_due_timers(cycle_end);
                    }
                    for (instance, msg) in held.drain(..) {
                        log.bounced.push(msg.kind());
                        let bounced = host.deliver(now(), instance, msg);
                        bounces.push(bounced.expect_err("the instance has returned"));
                    }
                }
            }
            Frame::ToInstance { instance, msg } => {
                if !log.bounced.is_empty() && is_request(&msg) {
                    log.served_after.push(msg.kind());
                }
                if let Msg::ChunkPut { id, .. } = &msg {
                    if id.key.as_str() == "r" {
                        r_seq.store(id.seq, Ordering::SeqCst);
                    }
                }
                host.deliver(now(), instance, msg)
                    .expect("only the scripted return stops the instance");
            }
            _ => {}
        }
        for (instance, msg) in std::mem::take(&mut host.io.0) {
            let frame = Frame::FromInstance { instance, msg };
            stream.send(&frame).expect("proxy reads");
        }
        for msg in bounces {
            let frame = Frame::Unreachable { msg };
            stream.send(&frame).expect("proxy reads");
        }
    }
}

fn net_leg() {
    let mut cluster = LoopbackCluster::start(deployment()).expect("cluster starts");
    cluster.kill_node(VICTIM);
    let armed = Arc::new(AtomicBool::new(false));
    let r_seq = Arc::new(AtomicU32::new(u32::MAX));
    let daemon = {
        let (addr, armed, r_seq) = (cluster.node_addr(), armed.clone(), r_seq.clone());
        std::thread::spawn(move || scripted_daemon(addr, armed, r_seq))
    };

    let mut reader = cluster.client_seeded(1).expect("client connects");
    let mut writer = cluster.client_seeded(2).expect("client connects");
    let (r, w2) = (
        pattern_bytes("r", 0, 300_000),
        pattern_bytes("w", 1, 250_000),
    );
    // Placement is random per PUT: store `r` until the victim holds one
    // of its data chunks, or a healthy read would never ask the victim
    // (4 of 6 homes are data homes: 64 tries all miss once in 10^30).
    let mut tries = 0;
    while r_seq.load(Ordering::SeqCst) >= 4 {
        tries += 1;
        assert!(tries <= 64, "the victim never gets a data chunk of r");
        reader.put("r", r.clone()).expect("preload");
    }
    writer
        .put("w", pattern_bytes("w", 0, 200_000))
        .expect("preload");

    // Both clients go at once; the daemon releases neither request until
    // it holds both.
    armed.store(true, Ordering::SeqCst);
    let overwrite = w2.clone();
    let put = std::thread::spawn(move || {
        writer.put("w", overwrite).expect("PUT completes");
        writer
    });
    let got = reader.get("r").expect("GET completes").expect("cached");
    assert_eq!(got, r, "GET racing the BYE returned other bytes");
    let mut writer = put.join().expect("writer thread");
    assert_eq!(
        ic_net::bench::proxy_thread_count(),
        Some(1),
        "the proxy is one thread"
    );

    // Lose two *other* nodes' chunks: both objects now decode only with
    // the victim's chunk, so it must hold the overwrite, not stale bytes.
    // (These nodes lose running instances: their daemons say so, and the
    // next requests to them go behind a fresh invoke.)
    cluster.reclaim_node(LambdaId(1));
    cluster.reclaim_node(LambdaId(2));
    std::thread::sleep(Duration::from_millis(50));
    for (key, stored) in [("w", &w2), ("r", &r)] {
        let got = writer.get(key).expect("GET completes").expect("cached");
        assert_eq!(&got, stored, "{key} after losing two other chunks");
    }

    cluster.shutdown();
    let log = daemon.join().expect("daemon thread");
    assert_eq!(
        log.invokes, 2,
        "the wake-up and exactly one re-invoke: {log:?}"
    );
    assert_eq!(log.bounced.len(), 2, "{log:?}");
    assert_eq!(
        log.served_after[..2],
        log.bounced[..],
        "bounced requests are re-sent first, in their original order"
    );
}

#[test]
fn request_racing_a_bye_bounces_and_reinvokes_once() {
    sim_leg();
    net_leg();
}
