//! The emulated Lambda node daemon: one OS thread (in its own process,
//! or inside the loopback cluster) hosting the instances of any number
//! of logical cache nodes.
//!
//! In the paper, a Lambda node is a function the provider runs on
//! demand; the proxy *invokes* it and the instance dials the proxy back
//! (§2.2). Here the daemon plays the provider's role for the nodes it
//! hosts: per node id it holds a long-lived TCP connection to the proxy,
//! receives [`Frame::Invoke`] and [`Frame::ToInstance`] frames, and runs
//! the channel-independent [`NodeHost`] core — the instance container,
//! invoke routing, billed-duration timers (real 100 ms cycles), and
//! backup-relay plumbing, executing protocol actions through the shared
//! dispatch engine. This module adds only the byte transport: frames
//! over TCP.
//!
//! The daemon is a single readiness loop over N node *slots*. One
//! [`Poller`] watches every slot's (nonblocking) proxy socket and one
//! [`Waker`]; each slot has its own socket, [`NbFrameReader`],
//! [`FrameWriteQueue`] and [`NodeHost`], exactly as a one-node daemon
//! would — the slots share the thread and nothing else. A slot's queued
//! answers are written in one vectored write right after the frames that
//! caused them are read, so a GET's queries to several nodes of one
//! daemon are answered in one wake-up. The in-process control handles
//! ([`NodeHandle`], one per node id) interrupt the poll through the waker
//! for reclaims and stops. A one-node daemon is N = 1; the loopback
//! cluster runs one loop per proxy, holding that proxy's whole pool, so a
//! 400-node fleet costs one node thread, not 400.
//!
//! **Reclaim semantics** stay per node id. The daemon persists nothing:
//! killing the process (SIGTERM, SIGKILL, a crash) loses every instance
//! and every cached chunk of every id it hosts — exactly what a provider
//! reclaim does, once per id, and the proxy sees one lost connection per
//! id. In-process embeddings can instead stop one id
//! ([`NodeHandle::kill`]: that id's socket closes and its instances go,
//! its siblings keep serving), or reclaim one ([`NodeHandle::reclaim`]):
//! its instances are dropped while its connection stays up, which makes
//! the node answer `ChunkMiss` like a freshly re-invoked function. A
//! running instance's own connection would have broken with it; the
//! slot's socket carries every instance of its node, so it reports that
//! with [`Frame::Reclaimed`].

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ic_common::frame::{FrameWriteQueue, NbFrameReader, NbRead};
use ic_common::msg::Msg;
use ic_common::{Error, InstanceId, LambdaId, Result, SimTime};
use ic_lambda::runtime::RuntimeConfig;
use infinicache::nodehost::{NodeHost, NodeIo};
use polling::{Events, Interest, Mode, Poller, Token, Waker};

use crate::wire::Frame;

/// Poller token of the control waker; slot `i` is token `i + 1`.
const TOKEN_WAKER: usize = 0;

/// In-process control events for a running daemon, addressed to one of
/// its node ids (sent through [`NodeHandle`]; socket traffic never takes
/// this path).
enum NodeEvent {
    /// Provider-style reclaim: the id's instances and their cached
    /// chunks vanish; its connection stays up and tells the proxy if one
    /// of them was running.
    Reclaim(LambdaId),
    /// Close the id's connection and drop its instances, then signal the
    /// sender. A real deployment just kills the process.
    Stop(LambdaId, Sender<()>),
}

/// The net substrate's [`NodeIo`]: node → proxy messages are frames
/// queued on the slot's socket, drained by the run loop in vectored
/// writes (a whole dispatch batch — e.g. a backup relay's chunk fan-out —
/// leaves in one syscall). A queueing failure marks the connection dead
/// so the run loop closes it.
struct NetNodeIo {
    stream: TcpStream,
    queue: FrameWriteQueue,
    dead: bool,
}

impl NetNodeIo {
    fn send(&mut self, frame: Frame) {
        if self.queue.push(frame.encode_parts()).is_err() {
            self.dead = true;
        }
    }
}

impl NodeIo for NetNodeIo {
    fn send_to_proxy(&mut self, instance: InstanceId, msg: Msg) {
        self.send(Frame::FromInstance { instance, msg });
    }
}

/// One hosted node id: its proxy connection and its instances.
struct Slot {
    reader: NbFrameReader,
    /// Whether the socket registration currently includes WRITABLE.
    want_write: bool,
    host: NodeHost<NetNodeIo>,
}

impl Slot {
    /// Decodes and dispatches every buffered inbound frame; `true` to
    /// keep the connection.
    fn read(&mut self, epoch: Instant) -> bool {
        loop {
            let now = since(epoch);
            match self.reader.read(&mut self.host.io.stream) {
                Ok(NbRead::Frame(body)) => match Frame::decode_shared(&body) {
                    Ok(Frame::Invoke { payload }) => {
                        self.host.invoke(now, &payload);
                    }
                    Ok(Frame::ToInstance { instance, msg }) => {
                        if let Err(msg) = self.host.deliver(now, instance, msg) {
                            self.host.io.send(Frame::Unreachable { msg });
                        }
                    }
                    Ok(Frame::Shutdown) => return false,
                    Ok(_) => {} // not addressed to a node
                    Err(_) => return false,
                },
                Ok(NbRead::WouldBlock) => return true,
                Ok(NbRead::Closed) | Err(_) => return false,
            }
        }
    }

    /// Writes as much of the outbound queue as the socket accepts and
    /// keeps WRITABLE interest armed exactly while a backlog remains;
    /// `true` to keep the connection.
    fn flush(&mut self, poller: &Poller, token: usize) -> bool {
        let io = &mut self.host.io;
        if io.dead {
            return false;
        }
        if io.queue.is_empty() && !self.want_write {
            return true;
        }
        let Ok(flush) = io.queue.write_to(&mut io.stream) else {
            return false;
        };
        let want_write = !flush.drained;
        if want_write != self.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if poller
                .reregister(&io.stream, Token(token), interest, Mode::Level)
                .is_err()
            {
                return false;
            }
            self.want_write = want_write;
        }
        true
    }
}

fn since(epoch: Instant) -> SimTime {
    SimTime::from_micros(epoch.elapsed().as_micros() as u64)
}

/// A connected node daemon, ready to [`NetNode::run`].
pub struct NetNode {
    epoch: Instant,
    events: Receiver<NodeEvent>,
    control: Sender<NodeEvent>,
    poller: Poller,
    waker: Arc<Waker>,
    /// Indexed by poller token − 1; `None` once that id's connection
    /// ended.
    slots: Vec<Option<Slot>>,
    /// Slots still open; the loop ends with the last one.
    open: usize,
}

/// The loop thread behind a set of [`NodeHandle`]s, joined when the last
/// of them goes (by then every id it hosted has been stopped).
struct LoopThread(Option<JoinHandle<()>>);

impl Drop for LoopThread {
    fn drop(&mut self) {
        if let Some(j) = self.0.take() {
            let _ = j.join();
        }
    }
}

/// Control of one node id of an in-process daemon spawned with
/// [`NetNode::spawn_many`] (or [`NetNode::spawn`]).
pub struct NodeHandle {
    /// The node this handle controls.
    pub lambda: LambdaId,
    control: Sender<NodeEvent>,
    waker: Arc<Waker>,
    stopped: bool,
    _thread: Arc<LoopThread>,
}

impl NodeHandle {
    /// Injects a provider-style reclaim of this node: its instances and
    /// cached chunks vanish, its connection stays up.
    pub fn reclaim(&self) {
        let _ = self.control.send(NodeEvent::Reclaim(self.lambda));
        self.waker.wake();
    }

    /// Closes this node's proxy connection and drops its instances, and
    /// waits until that is done — the in-process equivalent of killing
    /// an `ic-node` process that hosts this id alone. Other ids on the
    /// same loop keep serving.
    pub fn kill(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        let (done, wait) = channel();
        if self
            .control
            .send(NodeEvent::Stop(self.lambda, done))
            .is_ok()
        {
            self.waker.wake();
            // An error means the loop ended before it got to the stop.
            let _ = wait.recv();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

impl NetNode {
    /// Dials the proxy's node port once per id in `lambdas` (retrying
    /// within `retry_for`, so daemons can start before the proxy) and
    /// performs each connection's handshake.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for an empty id list; [`Error::Transport`] when
    /// a connection could not be established within the retry window or
    /// a handshake fails.
    pub fn connect(
        lambdas: &[LambdaId],
        proxy: impl ToSocketAddrs + std::fmt::Debug,
        rt_cfg: RuntimeConfig,
        retry_for: Duration,
    ) -> Result<NetNode> {
        if lambdas.is_empty() {
            return Err(Error::Config("a node daemon hosts at least one id".into()));
        }
        let trans = |e: std::io::Error| Error::Transport(e.to_string());
        let poller = Poller::new().map_err(trans)?;
        let waker = Arc::new(Waker::new().map_err(trans)?);
        poller
            .register(&*waker, Token(TOKEN_WAKER), Interest::READABLE, Mode::Level)
            .map_err(trans)?;
        let deadline = Instant::now() + retry_for;
        let mut slots = Vec::with_capacity(lambdas.len());
        for (i, &lambda) in lambdas.iter().enumerate() {
            let stream = dial(&proxy, deadline)?;
            stream.set_nonblocking(true).map_err(trans)?;
            poller
                .register(&stream, Token(i + 1), Interest::READABLE, Mode::Level)
                .map_err(trans)?;
            let mut slot = Slot {
                reader: NbFrameReader::new(),
                want_write: false,
                host: NodeHost::new(
                    lambda,
                    rt_cfg,
                    NetNodeIo {
                        stream,
                        queue: FrameWriteQueue::new(),
                        dead: false,
                    },
                ),
            };
            // The hello leaves like every other frame: queued, then
            // flushed (the loop finishes it if the socket is full).
            slot.host.io.send(Frame::HelloNode { lambda });
            if !slot.flush(&poller, i + 1) {
                return Err(Error::Transport(format!(
                    "{lambda}'s hello to {proxy:?} failed"
                )));
            }
            slots.push(Some(slot));
        }
        let (control, events) = channel::<NodeEvent>();
        Ok(NetNode {
            epoch: Instant::now(),
            events,
            control,
            poller,
            waker,
            open: slots.len(),
            slots,
        })
    }

    /// [`NetNode::spawn_many`] for a daemon hosting one id.
    ///
    /// # Errors
    ///
    /// See [`NetNode::connect`].
    pub fn spawn(
        lambda: LambdaId,
        proxy: impl ToSocketAddrs + std::fmt::Debug,
        rt_cfg: RuntimeConfig,
        retry_for: Duration,
    ) -> Result<NodeHandle> {
        let mut handles = NetNode::spawn_many(&[lambda], proxy, rt_cfg, retry_for)?;
        Ok(handles.pop().expect("one handle per id"))
    }

    /// Connects and runs the daemon on a background thread (used by the
    /// loopback cluster and the tests; the `ic-node` binary calls
    /// [`NetNode::run`] on the main thread instead). Returns one handle
    /// per id, in `lambdas` order.
    ///
    /// # Errors
    ///
    /// See [`NetNode::connect`].
    pub fn spawn_many(
        lambdas: &[LambdaId],
        proxy: impl ToSocketAddrs + std::fmt::Debug,
        rt_cfg: RuntimeConfig,
        retry_for: Duration,
    ) -> Result<Vec<NodeHandle>> {
        let node = NetNode::connect(lambdas, proxy, rt_cfg, retry_for)?;
        let control = node.control.clone();
        let waker = node.waker.clone();
        // `procfs`-based accounting books node CPU by this name prefix.
        let join = std::thread::Builder::new()
            .name(format!("ic-node-{}", lambdas[0].0))
            .spawn(move || node.run())
            .map_err(|e| Error::Transport(e.to_string()))?;
        let thread = Arc::new(LoopThread(Some(join)));
        Ok(lambdas
            .iter()
            .map(|&lambda| NodeHandle {
                lambda,
                control: control.clone(),
                waker: waker.clone(),
                stopped: false,
                _thread: thread.clone(),
            })
            .collect())
    }

    /// Runs the daemon until every hosted id's connection has ended: the
    /// proxy closed it or announced shutdown, or its handle stopped it.
    /// Each connection that ends is shut down on both halves, so the
    /// proxy observes the death on its next poll
    /// ([`ic_proxy::Proxy::on_connection_lost`]) instead of discovering
    /// it on its next write.
    pub fn run(mut self) {
        let mut events = Events::with_capacity(self.slots.len() + 1);
        while self.open > 0 {
            // Wait for readiness, bounded by the earliest
            // duration-control timer of any slot.
            let due = self
                .slots
                .iter()
                .flatten()
                .filter_map(|s| s.host.next_timer_at())
                .min();
            let timeout = due.map(|at| {
                Duration::from_micros(at.as_micros().saturating_sub(self.now().as_micros()))
            });
            if self.poller.poll(&mut events, timeout).is_err() {
                break;
            }
            // Control first: a reclaim or stop requested before the
            // frames that arrived with it applies before them.
            if events.iter().any(|ev| ev.token().0 == TOKEN_WAKER) {
                self.waker.ack();
                self.drain_control();
            }
            for ev in &events {
                match ev.token().0 {
                    TOKEN_WAKER => {}
                    token => self.serve(token - 1, ev.is_readable()),
                }
            }
            let now = self.now();
            if due.is_some_and(|at| at <= now) {
                for i in 0..self.slots.len() {
                    if let Some(slot) = self.slots[i].as_mut() {
                        slot.host.fire_due_timers(now);
                        if !slot.flush(&self.poller, i + 1) {
                            self.close(i);
                        }
                    }
                }
            }
        }
        for i in 0..self.slots.len() {
            self.close(i);
        }
    }

    fn now(&self) -> SimTime {
        since(self.epoch)
    }

    /// A slot's socket is ready: read (when readable) and answer.
    fn serve(&mut self, i: usize, readable: bool) {
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return; // closed earlier in this iteration
        };
        let keep = (!readable || slot.read(self.epoch)) && slot.flush(&self.poller, i + 1);
        if !keep {
            self.close(i);
        }
    }

    /// Ends one id's connection: both halves shut down, its instances
    /// dropped with the slot.
    fn close(&mut self, i: usize) {
        if let Some(slot) = self.slots[i].take() {
            let stream = &slot.host.io.stream;
            let _ = self.poller.deregister(stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            self.open -= 1;
        }
    }

    fn slot_of(&self, lambda: LambdaId) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.host.lambda == lambda))
    }

    /// Applies every pending control event.
    fn drain_control(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            match event {
                NodeEvent::Reclaim(lambda) => {
                    let Some(i) = self.slot_of(lambda) else {
                        continue;
                    };
                    let slot = self.slots[i].as_mut().expect("open slot");
                    if slot.host.reclaim() {
                        slot.host.io.send(Frame::Reclaimed);
                    }
                    if !slot.flush(&self.poller, i + 1) {
                        self.close(i);
                    }
                }
                NodeEvent::Stop(lambda, done) => {
                    if let Some(i) = self.slot_of(lambda) {
                        self.close(i);
                    }
                    let _ = done.send(());
                }
            }
        }
    }
}

/// Connects to the proxy's node port, retrying until `deadline`.
fn dial(proxy: &(impl ToSocketAddrs + std::fmt::Debug), deadline: Instant) -> Result<TcpStream> {
    let stream = loop {
        match TcpStream::connect(proxy) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(Error::Transport(format!(
                        "cannot reach proxy at {proxy:?}: {e}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    stream
        .set_nodelay(true)
        .map_err(|e| Error::Transport(e.to_string()))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::net::TcpListener;

    use ic_common::frame::FrameError;
    use ic_common::msg::InvokePayload;
    use ic_common::ProxyId;

    use super::*;
    use crate::wire::FrameStream;

    type Peer = FrameStream<TcpStream>;

    /// The daemon tells the proxy of a reclaim exactly when it took a
    /// running instance — whose own connection would have broken — and
    /// says nothing when the instances were idle or there were none.
    #[test]
    fn reclaim_is_reported_only_when_an_instance_was_running() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let rt_cfg = RuntimeConfig {
            backup_enabled: false,
            ..RuntimeConfig::paper()
        };
        let addr = listener.local_addr().unwrap();
        let node = NetNode::spawn(LambdaId(3), addr, rt_cfg, Duration::from_secs(5)).unwrap();
        let (proxy, _) = listener.accept().unwrap();
        proxy
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut proxy = FrameStream::new(proxy);
        let hello = proxy.recv().unwrap();
        assert_eq!(
            hello,
            Frame::HelloNode {
                lambda: LambdaId(3)
            }
        );
        let invoke = Frame::Invoke {
            payload: InvokePayload::ping(ProxyId(0)),
        };
        let next_pong = |proxy: &mut Peer| {
            proxy.send(&invoke).unwrap();
            match proxy.recv().unwrap() {
                Frame::FromInstance {
                    instance,
                    msg: Msg::Pong { .. },
                } => instance,
                other => panic!("expected a PONG, got {other:?}"),
            }
        };

        // Nothing runs yet: a reclaim is silent, so the next frame is the
        // first invoke's PONG.
        node.reclaim();
        let first = next_pong(&mut proxy);
        // That instance is running now: its reclaim is reported, and the
        // next invoke cold-starts another.
        node.reclaim();
        assert_eq!(proxy.recv().unwrap(), Frame::Reclaimed);
        let second = next_pong(&mut proxy);
        assert_ne!(first, second);
        // Once it has returned (BYE) it is idle: reclaimed silently again
        // (if the invoke overtakes the reclaim it wakes the same instance;
        // either way a PONG is the next frame).
        match proxy.recv().unwrap() {
            Frame::FromInstance {
                msg: Msg::Bye { .. },
                ..
            } => {}
            other => panic!("expected the BYE, got {other:?}"),
        }
        node.reclaim();
        next_pong(&mut proxy);
    }

    /// Accepts one daemon connection (reads bounded) and reads its hello.
    fn accept_node(listener: &TcpListener) -> (LambdaId, Peer) {
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut conn = FrameStream::new(conn);
        match conn.recv().unwrap() {
            Frame::HelloNode { lambda } => (lambda, conn),
            other => panic!("expected a hello, got {other:?}"),
        }
    }

    /// Invokes a node and waits for the PONG, passing over the BYEs of
    /// instances whose billing cycle ended meanwhile.
    fn pong(conn: &mut Peer) {
        let invoke = Frame::Invoke {
            payload: InvokePayload::ping(ProxyId(0)),
        };
        conn.send(&invoke).unwrap();
        loop {
            match conn.recv().unwrap() {
                Frame::FromInstance {
                    msg: Msg::Pong { .. },
                    ..
                } => return,
                Frame::FromInstance {
                    msg: Msg::Bye { .. },
                    ..
                } => {}
                other => panic!("expected a PONG, got {other:?}"),
            }
        }
    }

    /// `Reclaimed` notices that arrive on `conn` within 50 ms.
    fn reclaim_notices(conn: &mut Peer) -> usize {
        let timeout = |conn: &Peer, t| conn.stream().set_read_timeout(Some(t)).unwrap();
        timeout(conn, Duration::from_millis(50));
        let mut notices = 0;
        while let Ok(frame) = conn.recv() {
            notices += usize::from(frame == Frame::Reclaimed);
        }
        timeout(conn, Duration::from_secs(5));
        notices
    }

    /// Eight ids on one loop thread keep their faults to themselves: each
    /// has its own connection; a reclaim is reported on the reclaimed
    /// id's connection alone; a kill closes exactly that id's connection
    /// while its seven siblings keep answering; and a fresh daemon for
    /// the killed id connects anew.
    #[test]
    fn faults_stay_per_node_id_on_a_shared_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let rt_cfg = RuntimeConfig {
            backup_enabled: false,
            ..RuntimeConfig::paper()
        };
        let ids: Vec<LambdaId> = (10..18).map(LambdaId).collect();
        let mut handles = NetNode::spawn_many(&ids, addr, rt_cfg, Duration::from_secs(5)).unwrap();
        let mut conns: HashMap<LambdaId, Peer> =
            ids.iter().map(|_| accept_node(&listener)).collect();
        assert_eq!(conns.len(), 8, "one connection per id");
        for conn in conns.values_mut() {
            pong(conn);
        }

        // λ12's instance is running: its reclaim is reported on λ12's
        // connection, and on no other.
        handles[2].reclaim();
        for (lambda, conn) in &mut conns {
            let expected = usize::from(*lambda == LambdaId(12));
            assert_eq!(reclaim_notices(conn), expected, "{lambda}");
        }

        // Killing λ15 ends λ15's connection, and only that one.
        handles[5].kill();
        let mut dead = conns.remove(&LambdaId(15)).unwrap();
        loop {
            match dead.recv() {
                Ok(_) => {} // sent before the kill
                Err(FrameError::Closed) => break,
                Err(e) => panic!("expected λ15's connection to close, got {e}"),
            }
        }
        for conn in conns.values_mut() {
            pong(conn);
        }

        // λ15 comes back, on a loop of its own.
        let _fresh = NetNode::spawn(LambdaId(15), addr, rt_cfg, Duration::from_secs(5)).unwrap();
        let (lambda, mut conn) = accept_node(&listener);
        assert_eq!(lambda, LambdaId(15));
        pong(&mut conn);
        for conn in conns.values_mut() {
            pong(conn);
        }
        handles.clear();
    }
}
