//! Live mode: the InfiniCache protocol on OS threads with real bytes.
//!
//! [`LiveCluster`] runs each Lambda cache node as a thread that owns the
//! node's instances (the same [`ic_lambda::Runtime`] state machine the
//! simulator uses, including billed-duration timers on *real* 100 ms
//! cycles), one thread per proxy, and a synchronous client facade on the
//! caller's thread. Payloads are real [`bytes::Bytes`] through the real
//! Reed–Solomon codec, so `get` returns byte-identical objects and EC
//! recovery actually reconstructs data.
//!
//! Protocol actions are executed by the shared [`crate::dispatch`]
//! engine — the same action-by-action semantics as the simulator — with
//! the substrate-specific side effects supplied by this module's
//! [`crate::dispatch::Transport`] role impls: the private `NodeThread`
//! (a [`crate::nodehost::NodeHost`] driven by channel events) implements
//! the lambda role, `ProxyThread` the proxy role, and [`LiveCluster`]
//! itself the client role (collecting terminal
//! [`ClientOutcome`]s for its blocking `put`/`get`).
//!
//! Differences from the simulator (by design): there is no bandwidth
//! model (channel sends are instant), and the backup relay is collapsed —
//! peer replicas of a node live on the same thread, so relay messages
//! short-circuit locally while the proxy-visible protocol (InitBackup /
//! BackupCmd / HelloProxy / connection replacement) stays identical.
//!
//! Fault injection: [`LiveCluster::reclaim_node`] destroys a node's
//! instances, losing their cached chunks — exactly what a provider reclaim
//! does — so examples can demonstrate EC recovery end to end. A *running*
//! instance takes its connection down with it, and the proxy hears of
//! that as it would of a dropped socket
//! ([`ic_proxy::Proxy::on_connection_lost`]).

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_client::{ClientLib, GetReport};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{
    ClientId, DeploymentConfig, Error, InstanceId, LambdaId, ObjectKey, Payload, ProxyId, RelayId,
    Result, SimTime,
};
use ic_lambda::runtime::RuntimeConfig;
use ic_proxy::{Proxy, ProxyAction, ProxyConfig, ProxyStats};

use crate::dispatch::{self, ClientOutcome, ClientTransport, LambdaCtx, ProxyTransport};
use crate::nodehost::{NodeHost, NodeIo};

/// Messages between live threads.
enum Wire {
    /// Client → proxy.
    FromClient(ClientId, Msg),
    /// Lambda → proxy (with the sending instance for connection logic).
    FromLambda(LambdaId, InstanceId, Msg),
    /// Proxy failed to reach the instance it believed active.
    LambdaUnreachable(LambdaId, Msg),
    /// A running instance was reclaimed: its connection broke with it.
    ConnectionLost(LambdaId),
    /// Stop the thread.
    Quit,
}

/// Messages to a lambda-node thread.
enum NodeCmd {
    /// Invoke the function (platform-style routing to an idle instance).
    Invoke(InvokePayload),
    /// Deliver to the node's instance (fails back to the proxy if dead).
    ToInstance(InstanceId, Msg),
    /// Provider reclaim: destroy instances (state loss).
    Reclaim,
    /// Stop the thread.
    Quit,
}

/// The live substrate's [`NodeIo`]: node → proxy messages ride the
/// in-process channel.
struct LiveNodeIo {
    lambda: LambdaId,
    proxy_tx: Sender<Wire>,
}

impl NodeIo for LiveNodeIo {
    fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg) {
        let _ = self
            .proxy_tx
            .send(Wire::FromLambda(self.lambda, instance, msg));
    }
}

/// One node's thread: the shared [`NodeHost`] core driven by channel
/// commands and real timers.
struct NodeThread {
    rx: Receiver<NodeCmd>,
    epoch: Instant,
    host: NodeHost<LiveNodeIo>,
}

impl NodeThread {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Destroys the node's instances; a running one takes its proxy
    /// connection with it, which the proxy is told.
    fn reclaim(&mut self) {
        if self.host.reclaim() {
            let lost = Wire::ConnectionLost(self.host.lambda);
            let _ = self.host.io.proxy_tx.send(lost);
        }
    }

    fn run(mut self) {
        loop {
            // Wait until the earliest timer across instances (or a message).
            let cmd = match self.host.next_timer_at() {
                Some(at) => {
                    let now = self.now();
                    let wait =
                        Duration::from_micros(at.as_micros().saturating_sub(now.as_micros()));
                    match self.rx.recv_timeout(wait) {
                        Ok(c) => Some(c),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
                None => match self.rx.recv() {
                    Ok(c) => Some(c),
                    Err(_) => return,
                },
            };
            let now = self.now();
            match cmd {
                None => self.host.fire_due_timers(now),
                Some(NodeCmd::Invoke(payload)) => self.host.invoke(now, &payload),
                Some(NodeCmd::ToInstance(instance, msg)) => {
                    if let Err(msg) = self.host.deliver(now, instance, msg) {
                        let lambda = self.host.lambda;
                        let _ = self
                            .host
                            .io
                            .proxy_tx
                            .send(Wire::LambdaUnreachable(lambda, msg));
                    }
                }
                Some(NodeCmd::Reclaim) => self.reclaim(),
                Some(NodeCmd::Quit) => return,
            }
        }
    }
}

struct ProxyThread {
    proxy: Proxy,
    rx: Receiver<Wire>,
    node_tx: HashMap<LambdaId, Sender<NodeCmd>>,
    client_tx: Sender<Msg>,
    relay_sources: HashMap<RelayId, LambdaId>,
    epoch: Instant,
}

impl ProxyThread {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Serves until told to quit; hands the state machine's final
    /// counters to whoever joins the thread.
    fn run(mut self) -> ProxyStats {
        while let Ok(wire) = self.rx.recv() {
            let actions = match wire {
                Wire::FromClient(c, msg) => self.proxy.on_client(c, msg),
                Wire::FromLambda(l, _i, msg) => self.proxy.on_lambda(l, msg),
                Wire::LambdaUnreachable(l, msg) => self.proxy.on_delivery_failed(l, msg),
                Wire::ConnectionLost(l) => self.proxy.on_connection_lost(l),
                Wire::Quit => break,
            };
            let now = self.now();
            let proxy = self.proxy.id();
            dispatch::run_proxy_actions(&mut self, now, proxy, actions, None);
        }
        self.proxy.stats
    }
}

impl ProxyTransport for ProxyThread {
    fn invoke(&mut self, _now: SimTime, _proxy: ProxyId, lambda: LambdaId, payload: InvokePayload) {
        let _ = self.node_tx[&lambda].send(NodeCmd::Invoke(payload));
    }

    fn proxy_send(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> std::result::Result<(), Msg> {
        match self.proxy.member(lambda).and_then(|m| m.instance()) {
            Some(instance) => {
                let _ = self.node_tx[&lambda].send(NodeCmd::ToInstance(instance, msg));
                Ok(())
            }
            None => Err(msg),
        }
    }

    fn delivery_failed(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Vec<ProxyAction> {
        self.proxy.on_delivery_failed(lambda, msg)
    }

    fn proxy_reply(&mut self, _now: SimTime, _proxy: ProxyId, _client: ClientId, msg: Msg) {
        let _ = self.client_tx.send(msg);
    }

    fn proxy_stream(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        _client: ClientId,
        msg: Msg,
        _ctx: LambdaCtx,
    ) {
        // No bandwidth model: streamed chunks are plain messages.
        let _ = self.client_tx.send(msg);
    }

    fn spawn_relay(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        relay: RelayId,
        source: LambdaId,
        _ctx: LambdaCtx,
    ) {
        self.relay_sources.insert(relay, source);
    }
}

/// A running in-process InfiniCache deployment with a synchronous client.
pub struct LiveCluster {
    client: ClientLib,
    proxy_tx: Sender<Wire>,
    client_rx: Receiver<Msg>,
    node_tx: HashMap<LambdaId, Sender<NodeCmd>>,
    handles: Vec<JoinHandle<()>>,
    proxy_handle: JoinHandle<ProxyStats>,
    op_timeout: Duration,
    epoch: Instant,
    /// Terminal outcomes collected by the client-role transport, drained
    /// by the blocking `put`/`get` loops.
    outcomes: Vec<ClientOutcome>,
    /// First transport failure observed while dispatching (cluster down).
    send_error: Option<String>,
}

impl LiveCluster {
    /// Starts the cluster: one proxy thread plus one thread per node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid deployments (live mode
    /// supports exactly one proxy).
    pub fn start(cfg: DeploymentConfig) -> Result<LiveCluster> {
        LiveCluster::start_with(cfg, NodeThread::run)
    }

    /// [`LiveCluster::start`] with the body of the node threads supplied
    /// by the caller (the tests script one node's returns).
    fn start_with(
        cfg: DeploymentConfig,
        run_node: impl Fn(NodeThread) + Clone + Send + 'static,
    ) -> Result<LiveCluster> {
        cfg.validate()?;
        if cfg.proxies != 1 {
            return Err(Error::Config("live mode runs a single proxy".into()));
        }
        let epoch = Instant::now();
        let (proxy_tx, proxy_rx) = channel::<Wire>();
        let (client_tx, client_rx) = channel::<Msg>();

        let rt_cfg = RuntimeConfig::for_deployment(&cfg);

        let mut node_tx = HashMap::new();
        let mut handles = Vec::new();
        for l in 0..cfg.lambdas_per_proxy {
            let lambda = LambdaId(l);
            let (tx, rx) = channel::<NodeCmd>();
            node_tx.insert(lambda, tx);
            let io = LiveNodeIo {
                lambda,
                proxy_tx: proxy_tx.clone(),
            };
            let nt = NodeThread {
                rx,
                epoch,
                host: NodeHost::new(lambda, rt_cfg, io),
            };
            let run_node = run_node.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ic-node-{l}"))
                    .spawn(move || run_node(nt))
                    .expect("spawn node thread"),
            );
        }

        let proxy = Proxy::new(
            ProxyConfig {
                id: ProxyId(0),
                capacity_bytes: cfg.pool_capacity(),
            },
            (0..cfg.lambdas_per_proxy).map(LambdaId),
        );
        let pool: Vec<LambdaId> = proxy.pool().to_vec();
        let pt = ProxyThread {
            proxy,
            rx: proxy_rx,
            node_tx: node_tx.clone(),
            client_tx,
            relay_sources: HashMap::new(),
            epoch,
        };
        let proxy_handle = std::thread::Builder::new()
            .name("ic-proxy-0".into())
            .spawn(move || pt.run())
            .expect("spawn proxy thread");

        let client = ClientLib::new(
            ClientId(0),
            cfg.ec,
            vec![(ProxyId(0), pool)],
            cfg.ring_vnodes,
            7,
        );
        Ok(LiveCluster {
            client,
            proxy_tx,
            client_rx,
            node_tx,
            handles,
            proxy_handle,
            op_timeout: Duration::from_secs(10),
            epoch,
            outcomes: Vec::new(),
            send_error: None,
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Stores `object` under `key`, blocking until fully acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Transport`] if the cluster is down or the
    /// operation times out.
    pub fn put(&mut self, key: impl AsRef<str>, object: Bytes) -> Result<()> {
        let key = ObjectKey::new(key);
        let actions = self.client.put(key.clone(), Payload::Bytes(object));
        self.drive(actions)?;
        let deadline = Instant::now() + self.op_timeout;
        loop {
            for outcome in self.take_outcomes() {
                match outcome {
                    ClientOutcome::PutComplete { key: k } if k == key => return Ok(()),
                    ClientOutcome::PutFailed { key: k } if k == key => {
                        return Err(Error::PutAborted(key));
                    }
                    _ => {}
                }
            }
            let msg = self.recv(deadline)?;
            let actions = self.client.on_proxy(msg);
            self.drive(actions)?;
        }
    }

    /// Fetches `key`; `Ok(None)` on a cache miss, an error when the object
    /// is unrecoverable (more than `p` chunks lost).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ChunkUnavailable`] when too many chunks are lost
    /// and [`Error::Transport`] on cluster failure/timeout.
    pub fn get(&mut self, key: impl AsRef<str>) -> Result<Option<Bytes>> {
        let key = ObjectKey::new(key);
        let actions = self.client.get(key.clone());
        self.drive(actions)?;
        let deadline = Instant::now() + self.op_timeout;
        loop {
            for outcome in self.take_outcomes() {
                match outcome {
                    ClientOutcome::Delivered { key: k, object, .. } if k == key => {
                        let Payload::Bytes(b) = object else {
                            return Err(Error::Protocol("live mode delivers real bytes".into()));
                        };
                        return Ok(Some(b));
                    }
                    ClientOutcome::Miss { key: k } if k == key => return Ok(None),
                    ClientOutcome::Unrecoverable {
                        key: k,
                        available,
                        needed,
                    } if k == key => return Err(Error::ChunkUnavailable { needed, available }),
                    // Outcomes for other in-flight keys cannot occur on
                    // this synchronous client; drop them.
                    _ => {}
                }
            }
            let msg = self.recv(deadline)?;
            let actions = self.client.on_proxy(msg);
            self.drive(actions)?;
        }
    }

    /// Client-side statistics (recoveries, repairs, hits...).
    pub fn stats(&self) -> ic_client::ClientStats {
        self.client.stats
    }

    /// Provider-style reclaim of one node: its instances and cached chunks
    /// vanish.
    pub fn reclaim_node(&self, lambda: LambdaId) {
        if let Some(tx) = self.node_tx.get(&lambda) {
            let _ = tx.send(NodeCmd::Reclaim);
        }
    }

    /// Where a chunk of `key` would be placed is client-internal; expose
    /// the EC config for examples that want to reason about tolerance.
    pub fn ec(&self) -> ic_common::EcConfig {
        self.client.ec()
    }

    /// Stops all threads.
    pub fn shutdown(self) {
        self.shutdown_with_stats();
    }

    /// [`LiveCluster::shutdown`], returning the proxy's final protocol
    /// counters (zeroes if its thread panicked).
    pub fn shutdown_with_stats(mut self) -> ProxyStats {
        let _ = self.proxy_tx.send(Wire::Quit);
        for tx in self.node_tx.values() {
            let _ = tx.send(NodeCmd::Quit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.proxy_handle.join().unwrap_or_default()
    }

    /// Runs client actions through the shared dispatch engine, surfacing
    /// any transport failure recorded by the client-role hooks.
    fn drive(&mut self, actions: Vec<ic_client::ClientAction>) -> Result<()> {
        let now = self.now();
        dispatch::run_client_actions(self, now, ClientId(0), actions);
        match self.send_error.take() {
            Some(e) => Err(Error::Transport(e)),
            None => Ok(()),
        }
    }

    fn take_outcomes(&mut self) -> Vec<ClientOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    fn recv(&self, deadline: Instant) -> Result<Msg> {
        let now = Instant::now();
        if now >= deadline {
            return Err(Error::Transport("operation timed out".into()));
        }
        self.client_rx
            .recv_timeout(deadline - now)
            .map_err(|e| Error::Transport(e.to_string()))
    }
}

impl ClientTransport for LiveCluster {
    fn client_send(&mut self, _now: SimTime, client: ClientId, _proxy: ProxyId, msg: Msg) {
        if let Err(e) = self.proxy_tx.send(Wire::FromClient(client, msg)) {
            self.send_error.get_or_insert_with(|| e.to_string());
        }
    }

    fn deliver(
        &mut self,
        _now: SimTime,
        _client: ClientId,
        key: ObjectKey,
        object: Payload,
        report: GetReport,
    ) {
        self.outcomes.push(ClientOutcome::Delivered {
            key,
            object,
            report,
        });
    }

    fn unrecoverable(
        &mut self,
        _now: SimTime,
        _client: ClientId,
        key: ObjectKey,
        available: usize,
        needed: usize,
    ) {
        self.outcomes.push(ClientOutcome::Unrecoverable {
            key,
            available,
            needed,
        });
    }

    fn miss(&mut self, _now: SimTime, _client: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::Miss { key });
    }

    fn put_complete(&mut self, _now: SimTime, _client: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::PutComplete { key });
    }

    fn put_failed(&mut self, _now: SimTime, _client: ClientId, key: ObjectKey) {
        self.outcomes.push(ClientOutcome::PutFailed { key });
    }
}

impl std::fmt::Debug for LiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCluster")
            .field("nodes", &self.node_tx.len())
            .field("stats", &self.client.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::EcConfig;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Arc, Mutex};

    fn cluster(nodes: u32, d: usize, p: usize) -> LiveCluster {
        let cfg = DeploymentConfig {
            backup_enabled: false,
            ..DeploymentConfig::small(nodes, EcConfig::new(d, p).unwrap())
        };
        LiveCluster::start(cfg).expect("cluster starts")
    }

    fn pattern(len: usize) -> Bytes {
        Bytes::from(
            (0..len)
                .map(|i| ((i * 31 + 7) % 256) as u8)
                .collect::<Vec<u8>>(),
        )
    }

    #[test]
    fn live_put_get_roundtrip() {
        let mut c = cluster(8, 4, 2);
        let data = pattern(1 << 20);
        c.put("hello", data.clone()).unwrap();
        let back = c.get("hello").unwrap().expect("cached");
        assert_eq!(back, data);
        c.shutdown();
    }

    #[test]
    fn live_miss_returns_none() {
        let mut c = cluster(8, 4, 1);
        assert!(c.get("absent").unwrap().is_none());
        c.shutdown();
    }

    #[test]
    fn live_overwrite_returns_new_value() {
        let mut c = cluster(8, 4, 2);
        c.put("k", pattern(100_000)).unwrap();
        let v2 = Bytes::from(vec![9u8; 50_000]);
        c.put("k", v2.clone()).unwrap();
        assert_eq!(c.get("k").unwrap().unwrap(), v2);
        c.shutdown();
    }

    #[test]
    fn live_survives_reclaims_within_parity() {
        let mut c = cluster(10, 4, 2);
        let data = pattern(400_000);
        c.put("tough", data.clone()).unwrap();
        // Kill two arbitrary nodes; at most 2 chunks die: within parity.
        c.reclaim_node(LambdaId(0));
        c.reclaim_node(LambdaId(1));
        std::thread::sleep(Duration::from_millis(50));
        let back = c.get("tough").unwrap().expect("recoverable");
        assert_eq!(back, data);
        c.shutdown();
    }

    #[test]
    fn live_total_loss_is_unrecoverable_or_reset() {
        let mut c = cluster(6, 4, 1);
        c.put("fragile", pattern(100_000)).unwrap();
        for l in 0..6 {
            c.reclaim_node(LambdaId(l));
        }
        std::thread::sleep(Duration::from_millis(50));
        match c.get("fragile") {
            Err(Error::ChunkUnavailable { .. }) => {}
            other => panic!("expected unrecoverable, got {other:?}"),
        }
        c.shutdown();
    }

    #[test]
    fn live_many_objects() {
        let mut c = cluster(10, 5, 1);
        let objects: Vec<(String, Bytes)> = (0..20)
            .map(|i| (format!("obj-{i}"), pattern(10_000 + i * 137)))
            .collect();
        for (k, v) in &objects {
            c.put(k, v.clone()).unwrap();
        }
        for (k, v) in &objects {
            assert_eq!(c.get(k).unwrap().unwrap(), *v, "{k}");
        }
        c.shutdown();
    }

    /// No request is armed to race the instance's return.
    const UNARMED: u8 = 0;
    const ARM_GET: u8 = 1;
    const ARM_PUT: u8 = 2;

    /// A node thread that never returns on its own; when the next
    /// `ChunkGet` (or `ChunkPut`) is armed, the instance's billing cycle
    /// ends — BYE — just before that request is delivered, so from the
    /// proxy's side the request was in flight when the instance returned.
    /// Logs `"Invoke"` and the kinds of the requests it bounced.
    fn scripted_node(mut nt: NodeThread, arm: &AtomicU8, log: &Mutex<Vec<&'static str>>) {
        while let Ok(cmd) = nt.rx.recv() {
            let now = nt.now();
            match cmd {
                NodeCmd::Invoke(payload) => {
                    log.lock().expect("log").push("Invoke");
                    nt.host.invoke(now, &payload);
                }
                NodeCmd::ToInstance(instance, msg) => {
                    let armed = match msg {
                        Msg::ChunkGet { .. } => ARM_GET,
                        Msg::ChunkPut { .. } => ARM_PUT,
                        _ => u8::MAX,
                    };
                    if arm
                        .compare_exchange(armed, UNARMED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        // A busy cycle rides one more; an idle one
                        // returns and disarms the timer.
                        while let Some(cycle_end) = nt.host.next_timer_at() {
                            nt.host.fire_due_timers(cycle_end);
                        }
                        log.lock().expect("log").push(msg.kind());
                    }
                    if let Err(msg) = nt.host.deliver(now, instance, msg) {
                        let unreachable = Wire::LambdaUnreachable(nt.host.lambda, msg);
                        let _ = nt.host.io.proxy_tx.send(unreachable);
                    }
                }
                NodeCmd::Reclaim => nt.reclaim(),
                NodeCmd::Quit => return,
            }
        }
    }

    /// The read policy without a wall clock in it: on nodes that never
    /// return, every home of the stripe is a live connection when a GET
    /// is admitted, so it asks for the data chunks alone and decodes no
    /// parity. A reclaim takes a *running* instance then, whose broken
    /// connection the proxy hears of: the next read asks for the whole
    /// stripe and repairs the chunk — also on the two nodes holding
    /// parity, which no data-first read would have missed. A cluster per
    /// node (six homes for a 4+2 stripe: each holds one chunk), so the
    /// repair awaited is the first there is.
    #[test]
    fn a_warm_reclaim_ends_data_first_reads_until_repaired() {
        for l in 0..6 {
            let arm = Arc::new(AtomicU8::new(UNARMED));
            let log = Arc::new(Mutex::new(Vec::new()));
            let run_node = move |nt: NodeThread| scripted_node(nt, &arm, &log);
            let cfg = DeploymentConfig {
                backup_enabled: false,
                ..DeploymentConfig::small(6, EcConfig::new(4, 2).unwrap())
            };
            let mut c = LiveCluster::start_with(cfg, run_node).expect("cluster starts");
            let data = pattern(300_000);
            c.put("k", data.clone()).unwrap();
            assert_eq!(c.get("k").unwrap().expect("cached"), data);
            assert_eq!(c.stats().parity_decodes, 0, "a healthy read is systematic");

            c.reclaim_node(LambdaId(l));
            // The notice travels the node's channel, the read the
            // client's: read until the loss has been seen and repaired.
            let deadline = Instant::now() + Duration::from_secs(10);
            while c.stats().repaired_chunks == 0 {
                assert!(Instant::now() < deadline, "λ{l}'s chunk is never missed");
                assert_eq!(c.get("k").unwrap().expect("recoverable"), data);
            }
            let proxy = c.shutdown_with_stats();
            assert!(proxy.data_first_gets >= 1, "{proxy:?}");
            assert_eq!(
                proxy.data_first_gets + proxy.parity_releases_admission,
                proxy.get_hits
            );
        }
    }

    /// The live leg of `tests/bye_race.rs`: with no preflight PING, a
    /// request that crosses the instance's BYE comes back through
    /// `Wire::LambdaUnreachable`, and the proxy re-invokes once and
    /// re-sends it. One synchronous client, so the `ChunkGet` and the
    /// `ChunkPut` race a return each.
    #[test]
    fn request_racing_a_bye_bounces_and_reinvokes_once() {
        let arm = Arc::new(AtomicU8::new(UNARMED));
        let log = Arc::new(Mutex::new(Vec::new()));
        let run_node = {
            let (arm, log) = (arm.clone(), log.clone());
            move |nt: NodeThread| match nt.host.lambda {
                LambdaId(0) => scripted_node(nt, &arm, &log),
                _ => nt.run(),
            }
        };
        // 4+2 over six nodes: node 0 holds a chunk of every object.
        let cfg = DeploymentConfig {
            backup_enabled: false,
            ..DeploymentConfig::small(6, EcConfig::new(4, 2).unwrap())
        };
        let mut c = LiveCluster::start_with(cfg, run_node).expect("cluster starts");
        let (r, v2) = (pattern(300_000), pattern(250_000));
        c.put("r", r.clone()).unwrap();
        c.put("w", pattern(200_000)).unwrap();

        arm.store(ARM_GET, Ordering::SeqCst);
        assert_eq!(c.get("r").unwrap().expect("cached"), r);
        arm.store(ARM_PUT, Ordering::SeqCst);
        c.put("w", v2.clone()).expect("a PUT needs node 0's ack");

        // Lose two other nodes' chunks: both objects now decode only
        // with node 0's chunk, which must be the overwrite's.
        c.reclaim_node(LambdaId(1));
        c.reclaim_node(LambdaId(2));
        assert_eq!(c.get("w").unwrap().expect("cached"), v2);
        assert_eq!(c.get("r").unwrap().expect("cached"), r);
        c.shutdown();
        assert_eq!(
            *log.lock().unwrap(),
            ["Invoke", "ChunkGet", "Invoke", "ChunkPut", "Invoke"],
            "each bounce re-invokes exactly once"
        );
    }
}
