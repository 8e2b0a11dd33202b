//! The socket-backed proxy: real TCP listeners in front of the same
//! [`Proxy`] state machine the simulator drives.
//!
//! **One thread, run to completion** (plain `std::net` over the
//! [`polling`] readiness shim, no async runtime). The proxy's single
//! `ic-proxy-io-N` thread owns the [`Poller`], both listeners, every
//! client and node socket (nonblocking) *and* the [`Proxy`] state
//! machine. One loop iteration is:
//!
//! 1. **poll** — block until a socket is ready, the warm-up tick is due
//!    (the poll timeout), or the handle asks the loop to stop (the only
//!    cross-thread signal there is);
//! 2. **read and dispatch** — each readable connection's
//!    [`NbFrameReader`] yields the frames one `read` staged; each frame
//!    is decoded and handed *inline* to the state machine, whose actions
//!    run through the shared [`infinicache::dispatch`] engine with this
//!    module's [`ProxyTransport`]. A send is a push onto the target
//!    connection's [`FrameWriteQueue`] — scatter/gather parts, payloads
//!    uncopied — and nothing else: no socket is written and no
//!    connection is torn down inside dispatch;
//! 3. **flush** — every connection that gained frames is written with
//!    one vectored write (byte-precise `WouldBlock` resumption, WRITABLE
//!    interest armed exactly while a backlog remains), except a client
//!    still waiting on the data chunks of a data-first GET: its answers
//!    are held until the last one is in and then leave together (see
//!    `EventLoop::holds`). A connection found dead while reading or
//!    flushing is removed and its `on_client_disconnected` /
//!    `on_connection_lost` actions go back through dispatch; the pass
//!    repeats until no connection is dirty.
//!
//! A message therefore crosses no thread, channel, mutex or waker on its
//! way through the proxy. More cores are used the way the paper uses
//! them: more proxies ([`DeploymentConfig::proxies`]), each with its own
//! loop and its own slice of the node-id space.
//!
//! Backpressure: a peer that stops reading accumulates bytes in its own
//! write queue only (writes are nonblocking, sends are queue pushes).
//! When what the socket would not take exceeds
//! [`NetProxyConfig::max_peer_backlog`] the flush pass closes the
//! connection as a slow consumer; every other connection is unaffected.
//!
//! The per-node connection lifecycle maps onto real socket events:
//! *invoke-on-demand* becomes a [`Frame::Invoke`] to the node's daemon
//! (parked until the daemon connects, mirroring the provider's queueing);
//! *validation* is the answer to the request itself, or its bounce,
//! riding [`Frame::ToInstance`]/[`Frame::FromInstance`]/
//! [`Frame::Unreachable`]; *connection replacement during backup* is the
//! ordinary `HelloProxy` flow, since every instance of a node shares the
//! daemon's socket; and a daemon's socket dropping (its process was
//! killed — a reclaim), or its [`Frame::Reclaimed`] notice that a
//! running instance was taken from under it, resets the member
//! connection via [`Proxy::on_connection_lost`], exactly the Fig 6
//! "timeout ‖ returned" edge.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ic_common::frame::{FrameWriteQueue, NbFrameReader, NbRead, STAGE_LEN};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{ClientId, DeploymentConfig, Error, LambdaId, ProxyId, RelayId, Result, SimTime};
use ic_proxy::{Proxy, ProxyAction, ProxyConfig, ProxyStats};
use infinicache::dispatch::{self, LambdaCtx, ProxyTransport};
use polling::{Events, Interest, Mode, Poller, Token, Waker};

use crate::wire::Frame;

/// Configuration of one socket-backed proxy.
#[derive(Clone, Debug)]
pub struct NetProxyConfig {
    /// Deployment shape (proxy count, pool size, capacity, warm-up
    /// interval). The deployment may name several proxies; this instance
    /// serves exactly the ring slice [`DeploymentConfig::proxy_pool`]
    /// assigns to [`NetProxyConfig::proxy`].
    pub deployment: DeploymentConfig,
    /// Which of the deployment's proxies this instance is.
    pub proxy: ProxyId,
    /// Address to accept client connections on (port 0 picks one).
    pub client_addr: SocketAddr,
    /// Address to accept node-daemon connections on (port 0 picks one).
    pub node_addr: SocketAddr,
    /// Warm-up tick period, `None` to disable (tests disable it; the
    /// `ic-proxy` binary defaults to the deployment's `Twarm`).
    pub warmup: Option<Duration>,
    /// Per-connection outbound buffering bound in bytes: a peer whose
    /// unwritten queue exceeds this is closed as a slow consumer.
    pub max_peer_backlog: usize,
}

/// Default [`NetProxyConfig::max_peer_backlog`]: a few hundred chunk
/// frames — bursts of streamed chunks at one client ride it out, a
/// genuinely stalled reader trips it quickly.
pub const DEFAULT_PEER_BACKLOG: usize = 64 * 1024 * 1024;

impl NetProxyConfig {
    /// Loopback config for proxy 0 on ephemeral ports with warm-ups off.
    pub fn loopback(deployment: DeploymentConfig) -> Self {
        NetProxyConfig::loopback_proxy(deployment, ProxyId(0))
    }

    /// Loopback config for one proxy of a multi-proxy deployment.
    pub fn loopback_proxy(deployment: DeploymentConfig, proxy: ProxyId) -> Self {
        NetProxyConfig {
            deployment,
            proxy,
            client_addr: "127.0.0.1:0".parse().expect("static addr"),
            node_addr: "127.0.0.1:0".parse().expect("static addr"),
            warmup: None,
            max_peer_backlog: DEFAULT_PEER_BACKLOG,
        }
    }
}

/// Socket-write telemetry, written by the loop thread and read through
/// [`NetProxyHandle::wire_stats`].
#[derive(Default)]
struct WireStats {
    vectored_writes: AtomicU64,
    frames_written: AtomicU64,
}

/// Snapshot of the proxy's socket-write coalescing counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireSnapshot {
    /// Vectored writes (syscalls) the event loop issued.
    pub vectored_writes: u64,
    /// Frames those writes carried; the ratio is the coalescing factor.
    pub frames_written: u64,
}

impl WireSnapshot {
    /// Frames per vectored write (1.0 when nothing was written).
    pub fn frames_per_write(&self) -> f64 {
        if self.vectored_writes == 0 {
            1.0
        } else {
            self.frames_written as f64 / self.vectored_writes as f64
        }
    }
}

/// [`Control::stop`] values: keep running; stop after notifying peers
/// with [`Frame::Shutdown`]; stop with sockets dropping unannounced (the
/// test harness's `kill -9` equivalent).
const RUN: u8 = 0;
const QUIT: u8 = 1;
const DIE: u8 = 2;

/// The handle's stop request — the only cross-thread signal the loop
/// receives.
struct Control {
    stop: AtomicU8,
    waker: Waker,
}

/// A running socket-backed proxy. Dropping the handle kills the proxy.
pub struct NetProxyHandle {
    /// Address clients connect to.
    pub client_addr: SocketAddr,
    /// Address node daemons connect to.
    pub node_addr: SocketAddr,
    control: Arc<Control>,
    wire: Arc<WireStats>,
    join: Option<JoinHandle<ProxyStats>>,
}

impl NetProxyHandle {
    /// Stops the proxy: notifies peers, flushes what it can, and joins
    /// the loop thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the loop thread (a debug-build invariant
    /// audit that failed), here and in [`NetProxyHandle::kill`].
    pub fn shutdown(self) {
        self.shutdown_with_stats();
    }

    /// [`NetProxyHandle::shutdown`], returning the state machine's final
    /// counters: the loop thread hands them over as it exits, so reading
    /// them costs the running proxy nothing.
    pub fn shutdown_with_stats(mut self) -> ProxyStats {
        // `None` only when the loop thread panicked while this thread is
        // itself unwinding: nobody reads counters then.
        self.stop(QUIT).unwrap_or_default()
    }

    /// Kills the proxy abruptly: no [`Frame::Shutdown`] notices — every
    /// peer observes its socket dropping, exactly as if the `ic-proxy`
    /// process had been `kill -9`ed. Used by the multi-proxy fault tests.
    pub fn kill(mut self) {
        self.stop(DIE);
    }

    /// Socket-write coalescing counters accumulated so far.
    pub fn wire_stats(&self) -> WireSnapshot {
        WireSnapshot {
            vectored_writes: self.wire.vectored_writes.load(Ordering::Relaxed),
            frames_written: self.wire.frames_written.load(Ordering::Relaxed),
        }
    }

    fn stop(&mut self, how: u8) -> Option<ProxyStats> {
        let join = self.join.take()?;
        self.control.stop.store(how, Ordering::SeqCst);
        self.control.waker.wake();
        match join.join() {
            Ok(stats) => Some(stats),
            Err(panic) => {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
                None
            }
        }
    }
}

impl Drop for NetProxyHandle {
    fn drop(&mut self) {
        self.stop(DIE);
    }
}

/// Starts a proxy: binds both listeners and spawns its event loop.
///
/// In a multi-proxy deployment each instance serves the disjoint slice of
/// the global node-id space that [`DeploymentConfig::proxy_pool`] derives
/// for it; clients spread keys over the instances with the consistent-hash
/// ring, exactly as in the other substrates.
///
/// # Errors
///
/// [`Error::Config`] for invalid deployments (including a `proxy` id
/// outside the deployment) and [`Error::Transport`] when a listener
/// cannot bind or the thread/poller cannot start.
pub fn start(cfg: NetProxyConfig) -> Result<NetProxyHandle> {
    let transport = |e: std::io::Error| Error::Transport(e.to_string());
    let event_loop = EventLoop::bind(&cfg)?;
    let client_addr = event_loop.client_listener.local_addr().map_err(transport)?;
    let node_addr = event_loop.node_listener.local_addr().map_err(transport)?;
    let control = event_loop.control.clone();
    let wire = event_loop.wire.clone();
    let join = std::thread::Builder::new()
        .name(format!("ic-proxy-io-{}", cfg.proxy.0))
        .spawn(move || event_loop.run(cfg.warmup))
        .map_err(transport)?;
    Ok(NetProxyHandle {
        client_addr,
        node_addr,
        control,
        wire,
        join: Some(join),
    })
}

/// Client-identity allocator: ids of disconnected clients are recycled,
/// and allocation refuses (dropping the connection) rather than wrap the
/// `u16` space — a wrap would silently hand a live client's identity to
/// a newcomer and cross-wire their replies.
#[derive(Default)]
struct ClientIds {
    /// Ids returned by disconnected clients, reused first.
    free: Vec<u16>,
    /// Next never-used id; `u16::MAX + 1` means the space is exhausted.
    next: u32,
}

impl ClientIds {
    fn alloc(&mut self) -> Option<ClientId> {
        if let Some(id) = self.free.pop() {
            return Some(ClientId(id));
        }
        if self.next > u16::MAX as u32 {
            return None; // 65,536 concurrent clients: refuse, never reuse
        }
        let id = self.next as u16;
        self.next += 1;
        Some(ClientId(id))
    }

    fn release(&mut self, id: ClientId) {
        self.free.push(id.0);
    }
}

/// Reserved poller tokens; connections count up from
/// [`TOKEN_FIRST_CONN`] and a token is never reused, so it doubles as the
/// connection's *generation*.
const TOKEN_WAKER: usize = 0;
const TOKEN_CLIENT_LISTENER: usize = 1;
const TOKEN_NODE_LISTENER: usize = 2;
const TOKEN_FIRST_CONN: usize = 3;

/// Frames dispatched per connection per readable event before yielding to
/// the other connections; level-triggered readiness re-fires, so a
/// firehose peer cannot monopolize the loop.
const READ_FAIRNESS_FRAMES: usize = 1024;

/// How long an orderly shutdown keeps retrying a not-yet-drained write
/// queue before dropping the socket anyway.
const DRAIN_GRACE: Duration = Duration::from_millis(100);

/// Which listener a connection arrived on (fixes the expected hello).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Port {
    Client,
    Node,
}

/// Handshake / identity state of one connection.
#[derive(Clone, Copy)]
enum PeerState {
    /// Waiting for the hello frame appropriate to the arrival port.
    AwaitHello(Port),
    Client(ClientId),
    Node(LambdaId),
}

/// One nonblocking peer connection.
struct PeerConn {
    stream: TcpStream,
    reader: NbFrameReader,
    queue: FrameWriteQueue,
    state: PeerState,
    /// Whether the poller registration currently includes WRITABLE.
    want_write: bool,
    /// A frame could not be queued (it exceeds the wire's frame bound):
    /// the peer's stream would be missing a message, so the flush pass
    /// closes the connection.
    broken: bool,
}

/// The proxy's event loop: every socket and the state machine, on one
/// thread.
struct EventLoop {
    proxy: Proxy,
    pool: Vec<LambdaId>,
    poller: Poller,
    control: Arc<Control>,
    client_listener: TcpListener,
    node_listener: TcpListener,
    /// Every open connection, by poller token.
    conns: HashMap<usize, PeerConn>,
    next_token: usize,
    /// Connections awaiting the flush pass: their queue went from empty
    /// to nonempty, broke or outgrew the backlog bound, or their socket
    /// reported writable. Duplicates are harmless.
    dirty: Vec<usize>,
    /// Client connections the flush pass held back (see
    /// [`EventLoop::holds`]); every flush pass looks at them again.
    held: Vec<usize>,
    client_ids: ClientIds,
    /// Handshaken clients' connections.
    clients: HashMap<ClientId, usize>,
    /// Each node's *current* connection. A daemon that reconnects
    /// replaces the entry, so the old connection's eventual death — its
    /// token no longer matches — cannot clobber the fresh one.
    nodes: HashMap<LambdaId, usize>,
    /// Invocations requested while a node's daemon was unreachable,
    /// delivered the moment it (re)connects — the socket equivalent of
    /// the provider queueing an invoke.
    pending_invokes: HashMap<LambdaId, InvokePayload>,
    epoch: Instant,
    /// Action batches dispatched so far; drives the periodic debug-build
    /// audit.
    events_seen: u64,
    wire: Arc<WireStats>,
    max_backlog: usize,
}

impl EventLoop {
    /// Binds both listeners and registers them, and the stop waker, with
    /// a fresh poller; the loop is ready to [`EventLoop::run`].
    fn bind(cfg: &NetProxyConfig) -> Result<EventLoop> {
        cfg.deployment.validate()?;
        if cfg.proxy.0 >= cfg.deployment.proxies {
            return Err(Error::Config(format!(
                "proxy id {} outside the deployment's {} proxies",
                cfg.proxy.0, cfg.deployment.proxies
            )));
        }
        let transport = |e: std::io::Error| Error::Transport(e.to_string());
        let client_listener = TcpListener::bind(cfg.client_addr).map_err(transport)?;
        let node_listener = TcpListener::bind(cfg.node_addr).map_err(transport)?;
        client_listener.set_nonblocking(true).map_err(transport)?;
        node_listener.set_nonblocking(true).map_err(transport)?;
        let control = Arc::new(Control {
            stop: AtomicU8::new(RUN),
            waker: Waker::new().map_err(transport)?,
        });
        let poller = Poller::new().map_err(transport)?;
        for (fd, token) in [
            (control.waker.as_raw_fd(), TOKEN_WAKER),
            (client_listener.as_raw_fd(), TOKEN_CLIENT_LISTENER),
            (node_listener.as_raw_fd(), TOKEN_NODE_LISTENER),
        ] {
            poller
                .register(&fd, Token(token), Interest::READABLE, Mode::Level)
                .map_err(transport)?;
        }
        let pool: Vec<LambdaId> = cfg.deployment.proxy_pool(cfg.proxy).collect();
        Ok(EventLoop {
            proxy: Proxy::new(
                ProxyConfig {
                    id: cfg.proxy,
                    capacity_bytes: cfg.deployment.pool_capacity(),
                },
                pool.iter().copied(),
            ),
            pool,
            poller,
            control,
            client_listener,
            node_listener,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            dirty: Vec::new(),
            held: Vec::new(),
            client_ids: ClientIds::default(),
            clients: HashMap::new(),
            nodes: HashMap::new(),
            pending_invokes: HashMap::new(),
            epoch: Instant::now(),
            events_seen: 0,
            wire: Arc::new(WireStats::default()),
            max_backlog: cfg.max_peer_backlog,
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn run(mut self, warmup: Option<Duration>) -> ProxyStats {
        let mut events = Events::with_capacity(256);
        let mut next_tick = warmup.map(|w| Instant::now() + w);
        loop {
            let timeout = next_tick.map(|at| at.saturating_duration_since(Instant::now()));
            let _ = self.poller.poll(&mut events, timeout);
            // A stop request wins over pending I/O.
            match self.control.stop.load(Ordering::SeqCst) {
                RUN => {}
                how => return self.stop(how == QUIT),
            }
            self.read_ready(&events);
            if next_tick.is_some_and(|at| Instant::now() >= at) {
                next_tick = warmup.map(|w| Instant::now() + w);
                let actions = self.proxy.on_warmup_tick();
                self.dispatch(actions);
            }
            self.flush_dirty();
        }
    }

    /// The read pass: accepts, reads and dispatches whatever the poll
    /// reported; sockets reported writable join the flush pass.
    fn read_ready(&mut self, events: &Events) {
        for ev in events {
            match ev.token().0 {
                TOKEN_WAKER => {} // only ever a stop request, taken by `run`
                TOKEN_CLIENT_LISTENER => self.accept_ready(Port::Client),
                TOKEN_NODE_LISTENER => self.accept_ready(Port::Node),
                token => {
                    if ev.is_readable() {
                        self.read_conn(token);
                    }
                    if ev.is_writable() {
                        self.dirty.push(token);
                    }
                }
            }
        }
    }

    /// Accepts every pending connection on one listener and starts its
    /// handshake state.
    fn accept_ready(&mut self, port: Port) {
        loop {
            let listener = match port {
                Port::Client => &self.client_listener,
                Port::Node => &self.node_listener,
            };
            // On error (WouldBlock or transient) stop and retry next poll.
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            if stream.set_nonblocking(true).is_err()
                || self
                    .poller
                    .register(&stream, Token(token), Interest::READABLE, Mode::Level)
                    .is_err()
            {
                continue; // dead socket: drop it
            }
            self.next_token += 1;
            self.conns.insert(
                token,
                PeerConn {
                    stream,
                    reader: NbFrameReader::new(),
                    queue: FrameWriteQueue::new(),
                    state: PeerState::AwaitHello(port),
                    want_write: false,
                    broken: false,
                },
            );
        }
    }

    /// Decodes and dispatches the frames a readable connection holds —
    /// bounded per event for fairness: level-triggered readiness re-fires
    /// for bytes still in the socket. Frames the reader has already
    /// staged raise no event, so those are finished past the bound.
    fn read_conn(&mut self, token: usize) {
        let mut frames = 0;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if frames >= READ_FAIRNESS_FRAMES && !conn.reader.has_staged() {
                return;
            }
            frames += 1;
            let keep = match conn.reader.read(&mut conn.stream) {
                Ok(NbRead::Frame(body)) => {
                    Frame::decode_shared(&body).is_ok_and(|frame| self.on_frame(token, frame))
                }
                Ok(NbRead::WouldBlock) => return,
                Ok(NbRead::Closed) | Err(_) => false,
            };
            if !keep {
                return self.close_conn(token);
            }
        }
    }

    /// Reacts to one inbound frame; `false` means drop the connection.
    fn on_frame(&mut self, token: usize, frame: Frame) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let actions = match (conn.state, frame) {
            (PeerState::AwaitHello(Port::Client), Frame::HelloClient) => {
                let Some(client) = self.client_ids.alloc() else {
                    return false; // id space exhausted: refuse
                };
                conn.state = PeerState::Client(client);
                self.clients.insert(client, token);
                let welcome = Frame::Welcome {
                    client,
                    proxy: self.proxy.id(),
                    pool: self.pool.clone(),
                };
                self.send(token, welcome);
                return true;
            }
            (PeerState::AwaitHello(Port::Node), Frame::HelloNode { lambda })
                if self.pool.contains(&lambda) =>
            {
                conn.state = PeerState::Node(lambda);
                self.nodes.insert(lambda, token);
                if let Some(payload) = self.pending_invokes.remove(&lambda) {
                    // The queued invoke fires now that the daemon is
                    // reachable.
                    self.send(token, Frame::Invoke { payload });
                }
                return true;
            }
            (PeerState::AwaitHello(_), _) => return false, // wrong hello: drop
            (PeerState::Client(client), Frame::App { msg }) => self.proxy.on_client(client, msg),
            (PeerState::Node(lambda), Frame::FromInstance { msg, .. }) => {
                self.proxy.on_lambda(lambda, msg)
            }
            (PeerState::Node(lambda), Frame::Unreachable { msg }) => {
                self.proxy.on_delivery_failed(lambda, msg)
            }
            (PeerState::Node(lambda), Frame::Reclaimed) => self.proxy.on_connection_lost(lambda),
            // Peers send nothing else; ignore strays (forward compat).
            _ => return true,
        };
        self.dispatch(actions);
        true
    }

    /// Runs one batch of state-machine actions; every send it makes is a
    /// queue push (see [`EventLoop::send`]).
    fn dispatch(&mut self, actions: Vec<ProxyAction>) {
        let now = self.now();
        let proxy = self.proxy.id();
        dispatch::run_proxy_actions(self, now, proxy, actions, None);
        self.events_seen += 1;
        if self.events_seen.is_multiple_of(64) {
            self.audit();
        }
    }

    /// Queues a frame on a live connection for the flush pass. Never
    /// writes and never tears down: dispatch may be running on behalf of
    /// any connection, including this one.
    fn send(&mut self, token: usize, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // `clients`/`nodes` only name open connections
        };
        let was_empty = conn.queue.is_empty();
        conn.broken |= conn.queue.push(frame.encode_parts()).is_err();
        // A nonempty queue is already in `dirty` or waiting on WRITABLE —
        // unless it has outgrown the backlog bound, which only the flush
        // pass (one more write attempt, then the cut) may act on.
        if was_empty || conn.broken || conn.queue.queued_bytes() > self.max_backlog {
            self.dirty.push(token);
        }
    }

    /// The flush pass: one vectored write per dirty connection, except
    /// those it [holds](EventLoop::holds). Closing a dead one dispatches
    /// its disconnect actions, which may dirty others or end a hold; the
    /// pass ends when none is left.
    fn flush_dirty(&mut self) {
        self.dirty.append(&mut self.held);
        while let Some(token) = self.dirty.pop() {
            if self.holds(token) {
                self.held.push(token);
            } else if !self.flush_conn(token) {
                self.close_conn(token);
                self.dirty.append(&mut self.held);
            }
        }
    }

    /// Whether the flush pass skips this connection for now: its client
    /// still waits on a data chunk of a GET admitted data-first. Such a
    /// client cannot decode before the last data chunk lands, so holding
    /// its answers costs it nothing, and they then reach it in one write
    /// and one wake-up instead of trickling in. Anything that ends the
    /// wait — the last data chunk, or a release on a miss, a bounce or a
    /// lost connection — ends the hold. A queue of a reader stage or
    /// more goes out anyway (the reader gains nothing from waiting:
    /// large chunks stream), and so does one whose socket is already
    /// backlogged (WRITABLE is armed, and level-triggered readiness
    /// would spin the loop).
    fn holds(&self, token: usize) -> bool {
        let Some(conn) = self.conns.get(&token) else {
            return false;
        };
        match conn.state {
            PeerState::Client(client) => {
                !conn.broken
                    && !conn.want_write
                    && conn.queue.queued_bytes() < STAGE_LEN
                    && self.proxy.holds_parity_for(client)
            }
            _ => false,
        }
    }

    /// Writes as much of a connection's queue as the socket accepts and
    /// keeps WRITABLE interest armed exactly while a backlog remains.
    /// `false` means the connection must go: the write failed, a frame
    /// was unqueueable, or the peer is a slow consumer.
    fn flush_conn(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true; // closed earlier in this iteration
        };
        if conn.broken {
            return false;
        }
        let Ok(flush) = conn.queue.write_to(&mut conn.stream) else {
            return false;
        };
        if flush.vectored_writes > 0 {
            self.proxy.stats.vectored_writes += flush.vectored_writes;
            self.proxy.stats.frames_written += flush.frames;
            self.wire
                .vectored_writes
                .fetch_add(flush.vectored_writes, Ordering::Relaxed);
            self.wire
                .frames_written
                .fetch_add(flush.frames, Ordering::Relaxed);
        }
        if conn.queue.queued_bytes() > self.max_backlog {
            // The peer stopped reading: cut it loose rather than buffer
            // without bound. Only this connection pays.
            return false;
        }
        let want_write = !flush.drained;
        if want_write != conn.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poller
                .reregister(&conn.stream, Token(token), interest, Mode::Level)
                .is_err()
            {
                return false;
            }
            conn.want_write = want_write;
        }
        true
    }

    /// Removes one connection and runs what its death means to the state
    /// machine. Called from the read and flush passes only, never from
    /// inside dispatch.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(&conn.stream);
        match conn.state {
            PeerState::AwaitHello(_) => {}
            PeerState::Client(client) => {
                self.clients.remove(&client);
                // The id goes back only after the session's writer
                // affinity is forgotten and its aborts are on their way:
                // a recycled id restarts its PUT epochs and must not
                // look like a reordered older writer.
                let actions = self.proxy.on_client_disconnected(client);
                self.dispatch(actions);
                self.client_ids.release(client);
            }
            PeerState::Node(lambda) => {
                // Only the node's current connection counts; a replaced
                // one dying must not reset the fresh daemon's member.
                if self.nodes.get(&lambda) == Some(&token) {
                    self.nodes.remove(&lambda);
                    let actions = self.proxy.on_connection_lost(lambda);
                    self.dispatch(actions);
                }
            }
        }
    }

    /// Final teardown. With `notify`, every handshaken peer is sent
    /// [`Frame::Shutdown`] and the queues get a brief best-effort flush;
    /// then (either way) the sockets drop with the loop.
    fn stop(mut self, notify: bool) -> ProxyStats {
        if notify {
            for conn in self.conns.values_mut() {
                if !matches!(conn.state, PeerState::AwaitHello(_)) {
                    let _ = conn.queue.push(Frame::Shutdown.encode_parts());
                }
            }
            let deadline = Instant::now() + DRAIN_GRACE;
            loop {
                let mut pending = false;
                for conn in self.conns.values_mut() {
                    if let Ok(flush) = conn.queue.write_to(&mut conn.stream) {
                        pending |= !flush.drained;
                    }
                }
                if !pending || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.audit();
        self.proxy.stats
    }

    /// Debug-build invariant audit — every 64 dispatches and once at
    /// exit, the same structural checks the chaos harness runs against
    /// the simulator are asserted against this live state machine (byte
    /// accounting, mapping consistency, PUT progress bounds). A failure
    /// panics the loop thread; the handle re-raises it when it joins.
    /// Release builds skip it.
    fn audit(&self) {
        if cfg!(debug_assertions) {
            let violations = self.proxy.check_invariants();
            assert!(
                violations.is_empty(),
                "proxy invariant violation on the socket substrate: {violations:?}"
            );
        }
    }
}

impl ProxyTransport for EventLoop {
    fn invoke(&mut self, _now: SimTime, _proxy: ProxyId, lambda: LambdaId, payload: InvokePayload) {
        match self.nodes.get(&lambda) {
            Some(&token) => self.send(token, Frame::Invoke { payload }),
            None => {
                self.pending_invokes.insert(lambda, payload);
            }
        }
    }

    fn proxy_send(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> std::result::Result<(), Msg> {
        let instance = self.proxy.member(lambda).and_then(|m| m.instance());
        match (instance, self.nodes.get(&lambda)) {
            (Some(instance), Some(&token)) => {
                self.send(token, Frame::ToInstance { instance, msg });
                Ok(())
            }
            _ => Err(msg),
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

    fn proxy_reply(&mut self, _now: SimTime, _proxy: ProxyId, client: ClientId, msg: Msg) {
        if let Some(&token) = self.clients.get(&client) {
            self.send(token, Frame::App { msg });
        }
    }

    fn proxy_stream(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        client: ClientId,
        msg: Msg,
        _ctx: LambdaCtx,
    ) {
        // TCP is the bandwidth model: streamed chunks are plain frames.
        self.proxy_reply(now, proxy, client, msg);
    }

    fn spawn_relay(
        &mut self,
        _now: SimTime,
        _proxy: ProxyId,
        _relay: RelayId,
        _source: LambdaId,
        _ctx: LambdaCtx,
    ) {
        // Relay traffic short-circuits inside the node daemon (the
        // NodeHost tracks each round's endpoint pair); the proxy-side
        // protocol state machine already records what it needs.
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use bytes::Bytes;
    use ic_common::{ChunkId, EcConfig, InstanceId, ObjectKey, Payload};
    use ic_lambda::runtime::RuntimeConfig;

    use super::*;
    use crate::client::NetClient;
    use crate::node::NetNode;
    use crate::wire::FrameStream;

    /// A peer the test plays by hand.
    type Peer = FrameStream<TcpStream>;

    /// Cranks the loop by hand — poll, read pass, flush pass — until a
    /// read pass leaves `cond` true, and returns *before* that
    /// iteration's flush pass: the window in which the tests below make
    /// a peer die.
    fn read_until(
        lp: &mut EventLoop,
        events: &mut Events,
        what: &str,
        cond: impl Fn(&EventLoop) -> bool,
    ) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let _ = lp.poller.poll(events, Some(Duration::from_millis(5)));
            lp.read_ready(events);
            if cond(lp) {
                return;
            }
            lp.flush_dirty();
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
        }
    }

    /// Closing a socket that holds unread bytes sends a RST, so the
    /// proxy's *next write* to it fails — the one teardown no read pass
    /// announces first.
    fn die_with_unread_bytes(peer: Peer) {
        drop(peer);
        std::thread::sleep(Duration::from_millis(20));
    }

    /// A client that dies mid-PUT with a GET's answer unread, and a node
    /// connection that dies mid-GET, both between a read pass and its
    /// flush pass, are torn down *by the flush pass*: their disconnect
    /// actions run, a bystander's reads stay byte-identical throughout,
    /// and the state machine's invariants hold.
    #[test]
    fn peers_dying_before_the_flush_pass_are_torn_down_by_it() {
        let dep = DeploymentConfig {
            backup_enabled: false,
            ..DeploymentConfig::small(6, EcConfig::new(4, 2).unwrap())
        };
        let mut lp = EventLoop::bind(&NetProxyConfig::loopback(dep.clone())).unwrap();
        let client_addr = lp.client_listener.local_addr().unwrap();
        let node_addr = lp.node_listener.local_addr().unwrap();
        let mut events = Events::with_capacity(64);
        let pool: Vec<LambdaId> = dep.proxy_pool(ProxyId(0)).collect();
        let rt = RuntimeConfig::for_deployment(&dep);
        let _daemons = NetNode::spawn_many(&pool, node_addr, rt, Duration::from_secs(5)).unwrap();

        // The bystander: one PUT, then verified GETs until told to stop.
        let stored = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let verified = Arc::new(AtomicU64::new(0));
        let bystander = {
            let (stored, done, verified) = (stored.clone(), done.clone(), verified.clone());
            std::thread::spawn(move || {
                let object =
                    Bytes::from((0..256 * 1024).map(|i| (i % 251) as u8).collect::<Vec<_>>());
                let mut client = NetClient::connect(client_addr, dep.ec, 7).unwrap();
                client.put("kept", object.clone()).unwrap();
                client.put("for-x", object.clone()).unwrap();
                stored.store(true, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) {
                    assert_eq!(client.get("kept").unwrap().expect("cached"), object);
                    verified.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        read_until(&mut lp, &mut events, "the bystander's PUTs", |_| {
            stored.load(Ordering::SeqCst)
        });

        // --- A client dies mid-PUT -----------------------------------
        let mut x = FrameStream::new(TcpStream::connect(client_addr).unwrap());
        x.send(&Frame::HelloClient).unwrap();
        read_until(&mut lp, &mut events, "X's Welcome", |lp| {
            lp.clients.len() == 2
        });
        lp.flush_dirty();
        let Frame::Welcome { client: x_id, .. } = x.recv().unwrap() else {
            panic!("expected Welcome");
        };
        let x_token = lp.clients[&x_id];
        // A GET whose answer X never reads (of an object nobody else is
        // fetching: X must not ride another GET's in-flight chunks), and
        // a third of a PUT stripe.
        let get = Msg::GetObject {
            key: ObjectKey::new("for-x"),
            data_chunks: dep.ec.data as u32,
        };
        x.send(&Frame::App { msg: get }).unwrap();
        for seq in 0..2 {
            let msg = Msg::PutChunk {
                id: ChunkId::new(ObjectKey::new("doomed"), seq),
                lambda: LambdaId(seq),
                payload: Payload::bytes(vec![seq as u8; 4096]),
                object_size: 4 * 4096,
                total_chunks: 6,
                repair: false,
                put_epoch: 1,
            };
            x.send(&Frame::App { msg }).unwrap();
        }
        // Wait for the GET's last data chunk: from then on nothing holds
        // X's answer back.
        let x_answered = |lp: &EventLoop| {
            !lp.conns[&x_token].queue.is_empty() && !lp.proxy.holds_parity_for(x_id)
        };
        read_until(&mut lp, &mut events, "X's answer", x_answered);
        lp.flush_dirty(); // the answer now sits unread in X's socket
                          // A miss holds nothing back: its answer is due in the very flush
                          // pass X dies before.
        let miss = Msg::GetObject {
            key: ObjectKey::new("absent"),
            data_chunks: dep.ec.data as u32,
        };
        x.send(&Frame::App { msg: miss }).unwrap();
        read_until(&mut lp, &mut events, "X's miss", |lp| {
            !lp.conns[&x_token].queue.is_empty()
        });
        die_with_unread_bytes(x);
        lp.flush_dirty();
        assert!(!lp.conns.contains_key(&x_token), "the flush pass closes X");
        assert!(!lp.clients.contains_key(&x_id));
        assert!(lp.client_ids.free.contains(&x_id.0), "X's id is recycled");
        assert_eq!(lp.proxy.check_invariants(), Vec::<String>::new());

        // --- A silent node connection dies mid-GET -------------------
        // A second connection claiming the home of the bystander's data
        // chunk 0 replaces the daemon's (newest wins). It never reads; it
        // PONGs once, unasked, as a fresh instance, so the victim looks
        // alive to the state machine whatever it was doing before.
        let victim = lp
            .proxy
            .chunk_owner(&ChunkId::new(ObjectKey::new("kept"), 0))
            .expect("stored");
        let daemon_token = lp.nodes[&victim];
        let mut fake = FrameStream::new(TcpStream::connect(node_addr).unwrap());
        fake.send(&Frame::HelloNode { lambda: victim }).unwrap();
        let instance = InstanceId(77);
        let pong = Msg::Pong {
            instance,
            stored_bytes: 0,
        };
        fake.send(&Frame::FromInstance {
            instance,
            msg: pong,
        })
        .unwrap();
        read_until(&mut lp, &mut events, "the replacement's PONG", |lp| {
            lp.proxy.member(victim).and_then(|m| m.instance()) == Some(instance)
        });
        let fake_token = lp.nodes[&victim];
        assert_ne!(fake_token, daemon_token);
        // Reads admitted with a home asleep ask for the whole stripe and
        // first-d masks the silent victim. The first one admitted on six
        // live connections asks for the data chunks alone and waits on
        // the victim's: nothing says yet that the chunk will not come.
        let fake_has_frames = |lp: &EventLoop| !lp.conns[&fake_token].queue.is_empty();
        read_until(&mut lp, &mut events, "a data-first GET", |lp| {
            lp.proxy.held_parity_total() == 1 && fake_has_frames(lp)
        });
        lp.flush_dirty(); // the query now sits unread in the fake's socket
        let stalled_at = verified.load(Ordering::SeqCst);
        let stall = Instant::now() + Duration::from_millis(150);
        while Instant::now() < stall {
            read_until(&mut lp, &mut events, "one more turn", |_| true);
            lp.flush_dirty();
        }
        assert_eq!(
            verified.load(Ordering::SeqCst),
            stalled_at,
            "a silent node on a live connection is waited on"
        );
        assert_eq!(lp.proxy.held_parity_total(), 1);
        // A second reader asks for the same object — data-first too, or
        // for the whole stripe if the homes the stall left idle have
        // returned: either way one more query for the victim, still
        // queued when the victim dies.
        let mut y = FrameStream::new(TcpStream::connect(client_addr).unwrap());
        y.send(&Frame::HelloClient).unwrap();
        let get = Msg::GetObject {
            key: ObjectKey::new("kept"),
            data_chunks: dep.ec.data as u32,
        };
        y.send(&Frame::App { msg: get }).unwrap();
        read_until(&mut lp, &mut events, "Y's query", fake_has_frames);
        die_with_unread_bytes(fake);
        let closed = Instant::now();
        lp.flush_dirty();
        assert!(
            !lp.conns.contains_key(&fake_token),
            "the flush pass closes the victim"
        );
        assert!(
            !lp.nodes.contains_key(&victim),
            "the victim's connection is reset"
        );
        // The lost connection is the evidence the stalled read was
        // waiting for: its parity requests went out with the teardown,
        // and it completes — bounded by the connection's death, not by
        // the client's timeout. The teardown also ended the hold on the
        // reader's answers, which left in that same flush pass: nothing
        // is left for a later loop iteration that may never come.
        assert_eq!(lp.proxy.held_parity_total(), 0);
        assert!(lp.held.is_empty(), "the reader's answers are flushed");
        read_until(&mut lp, &mut events, "the stalled GET", |_| {
            verified.load(Ordering::SeqCst) > stalled_at
        });
        assert!(closed.elapsed() < Duration::from_secs(5));
        // The replaced daemon connection is still open, and its death
        // later must not count: the victim has no current connection to
        // lose.
        assert!(lp.conns.contains_key(&daemon_token));
        assert_eq!(lp.proxy.check_invariants(), Vec::<String>::new());
        drop(y);

        // From here on the bystander does not notice: every GET finds the
        // victim down, asks for the whole stripe, and first-d masks it.
        let so_far = verified.load(Ordering::SeqCst);
        read_until(&mut lp, &mut events, "20 more verified GETs", |_| {
            verified.load(Ordering::SeqCst) >= so_far + 20
        });
        done.store(true, Ordering::SeqCst);
        while !bystander.is_finished() {
            read_until(&mut lp, &mut events, "one more turn", |_| true);
            lp.flush_dirty();
        }
        bystander.join().expect("every bystander GET verified");
        assert_eq!(lp.proxy.check_invariants(), Vec::<String>::new());
    }

    /// One full loop iteration: poll, read pass, flush pass.
    fn crank(lp: &mut EventLoop, events: &mut Events) {
        let _ = lp.poller.poll(events, Some(Duration::from_millis(1)));
        lp.read_ready(events);
        lp.flush_dirty();
    }

    /// `true` while `peer` has nothing to read: no bytes in its reader,
    /// none in its socket.
    fn nothing_to_read(peer: &Peer) -> bool {
        let socket = peer.stream();
        socket.set_nonblocking(true).unwrap();
        let empty = matches!(
            socket.peek(&mut [0u8]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        socket.set_nonblocking(false).unwrap();
        empty && !peer.buffered()
    }

    /// Cranks the loop until `peer` has a frame, and reads it.
    fn next_frame(lp: &mut EventLoop, events: &mut Events, peer: &mut Peer) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(10);
        while nothing_to_read(peer) {
            assert!(Instant::now() < deadline, "no frame came");
            crank(lp, events);
        }
        peer.recv().unwrap()
    }

    /// The object every [`Scripted`] proxy stores.
    fn o(seq: u32) -> ChunkId {
        ChunkId::new(ObjectKey::new("o"), seq)
    }

    /// A hand-cranked proxy whose client and node connections are plain
    /// sockets the test writes every frame of, so each protocol step
    /// happens exactly when the test says. Node `λl` holds chunk `l` of
    /// object `o`, stored through the real PUT path, and answers as
    /// instance `100 + l`.
    struct Scripted {
        lp: EventLoop,
        events: Events,
        client: Peer,
        client_id: ClientId,
        nodes: Vec<Peer>,
        chunk: usize,
    }

    impl Scripted {
        fn start(d: usize, p: usize, chunk: usize) -> Scripted {
            let n = d + p;
            let dep = DeploymentConfig {
                backup_enabled: false,
                ..DeploymentConfig::small(n as u32, EcConfig::new(d, p).unwrap())
            };
            let mut lp = EventLoop::bind(&NetProxyConfig::loopback(dep)).unwrap();
            let mut events = Events::with_capacity(64);
            let connect = |addr: SocketAddr, hello: Frame| {
                let peer = TcpStream::connect(addr).unwrap();
                peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut peer = FrameStream::new(peer);
                peer.send(&hello).unwrap();
                peer
            };
            let node_addr = lp.node_listener.local_addr().unwrap();
            let mut nodes: Vec<Peer> = (0..n as u32)
                .map(|l| {
                    connect(
                        node_addr,
                        Frame::HelloNode {
                            lambda: LambdaId(l),
                        },
                    )
                })
                .collect();
            let client_addr = lp.client_listener.local_addr().unwrap();
            let mut client = connect(client_addr, Frame::HelloClient);
            let Frame::Welcome {
                client: client_id, ..
            } = next_frame(&mut lp, &mut events, &mut client)
            else {
                panic!("expected Welcome");
            };
            for seq in 0..n as u32 {
                let msg = Msg::PutChunk {
                    id: o(seq),
                    lambda: LambdaId(seq),
                    payload: Payload::bytes(vec![seq as u8; chunk]),
                    object_size: (d * chunk) as u64,
                    total_chunks: n as u32,
                    repair: false,
                    put_epoch: 1,
                };
                client.send(&Frame::App { msg }).unwrap();
            }
            for (l, node) in nodes.iter_mut().enumerate() {
                let invoke = next_frame(&mut lp, &mut events, node);
                assert!(matches!(invoke, Frame::Invoke { .. }), "{invoke:?}");
                let instance = InstanceId(100 + l as u64);
                let msg = Msg::Pong {
                    instance,
                    stored_bytes: 0,
                };
                node.send(&Frame::FromInstance { instance, msg }).unwrap();
            }
            for node in &mut nodes {
                let Frame::ToInstance {
                    instance,
                    msg: Msg::ChunkPut { id, epoch, .. },
                } = next_frame(&mut lp, &mut events, node)
                else {
                    panic!("expected a ChunkPut");
                };
                let msg = Msg::PutAck {
                    id,
                    stored_bytes: chunk as u64,
                    epoch,
                };
                node.send(&Frame::FromInstance { instance, msg }).unwrap();
            }
            let done = next_frame(&mut lp, &mut events, &mut client);
            assert!(
                matches!(
                    done,
                    Frame::App {
                        msg: Msg::PutDone { .. }
                    }
                ),
                "{done:?}"
            );
            Scripted {
                lp,
                events,
                client,
                client_id,
                nodes,
                chunk,
            }
        }

        fn client_token(&self) -> usize {
            self.lp.clients[&self.client_id]
        }

        fn crank_until(&mut self, what: &str, cond: impl Fn(&EventLoop) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond(&self.lp) {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                crank(&mut self.lp, &mut self.events);
            }
        }

        /// A data-first GET of `o`: the `d` data homes get their
        /// queries, and the client's `GetAccepted` is held.
        fn get(&mut self, d: u32) {
            let msg = Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: d,
            };
            self.client.send(&Frame::App { msg }).unwrap();
            for l in 0..d {
                let query = next_frame(&mut self.lp, &mut self.events, &mut self.nodes[l as usize]);
                assert!(
                    matches!(&query, Frame::ToInstance { msg: Msg::ChunkGet { id }, .. } if *id == o(l)),
                    "{query:?}"
                );
            }
            assert!(self.lp.proxy.holds_parity_for(self.client_id));
            assert!(self.lp.held.contains(&self.client_token()));
            assert!(nothing_to_read(&self.client), "GetAccepted is held");
        }

        /// Node `λl` answers `msg` as its instance; returns once the loop
        /// has read it.
        fn answer(&mut self, l: u32, msg: Msg) {
            let instance = InstanceId(100 + l as u64);
            let frame = Frame::FromInstance { instance, msg };
            self.nodes[l as usize].send(&frame).unwrap();
            self.crank_until("the answer", |lp| lp.proxy.inflight_for(&o(l)) == 0);
        }

        fn answer_data(&mut self, l: u32) {
            let payload = Payload::bytes(vec![l as u8; self.chunk]);
            self.answer(l, Msg::ChunkData { id: o(l), payload });
        }

        fn client_frame(&mut self) -> Msg {
            match next_frame(&mut self.lp, &mut self.events, &mut self.client) {
                Frame::App { msg } => msg,
                other => panic!("expected an App frame, got {other:?}"),
            }
        }

        /// Reads what the client has been sent: `GetAccepted` and then
        /// `ChunkToClient` for each of `chunks`.
        fn expect_answers(&mut self, chunks: impl IntoIterator<Item = u32>) {
            let accepted = self.client_frame();
            assert!(
                matches!(accepted, Msg::GetAccepted { requested: 4, .. }),
                "{accepted:?}"
            );
            for l in chunks {
                let chunk = self.client_frame();
                assert!(
                    matches!(&chunk, Msg::ChunkToClient { id, .. } if *id == o(l)),
                    "{chunk:?}"
                );
            }
        }
    }

    /// A 4+2 GET admitted data-first reaches its client in exactly one
    /// `writev`: `GetAccepted` and the four `ChunkToClient`s, held back
    /// until the last data chunk is in.
    #[test]
    fn a_data_first_get_reaches_its_client_in_one_write() {
        let mut s = Scripted::start(4, 2, 1024);
        s.get(4);
        for l in 0..3 {
            s.answer_data(l);
            assert!(nothing_to_read(&s.client), "held after chunk {l}");
            assert_eq!(s.lp.conns[&s.client_token()].queue.len(), 2 + l as usize);
        }
        let before = s.lp.proxy.stats;
        s.answer_data(3);
        let after = s.lp.proxy.stats;
        assert_eq!(after.vectored_writes - before.vectored_writes, 1);
        assert_eq!(after.frames_written - before.frames_written, 5);
        assert!(!s.lp.proxy.holds_parity_for(s.client_id));
        s.expect_answers(0..4);
        assert!(s.lp.held.is_empty());
        assert!(
            s.nodes[4..].iter().all(nothing_to_read),
            "parity never asked"
        );
    }

    /// Evidence that a data chunk may not come — a miss, a bounce, a lost
    /// connection — releases the parity requests and ends the hold: the
    /// answers held so far leave in the flush pass of the very iteration
    /// that read the evidence.
    #[test]
    fn a_miss_a_bounce_or_a_lost_connection_flushes_at_once() {
        for case in ["miss", "bounce", "lost connection"] {
            let mut s = Scripted::start(4, 2, 1024);
            s.get(4);
            s.answer_data(0);
            assert!(nothing_to_read(&s.client), "{case}: held");
            let node = &mut s.nodes[1];
            match case {
                "miss" => {
                    let instance = InstanceId(101);
                    let msg = Msg::ChunkMiss { id: o(1) };
                    node.send(&Frame::FromInstance { instance, msg }).unwrap();
                }
                "bounce" => {
                    let msg = Msg::ChunkGet { id: o(1) };
                    node.send(&Frame::Unreachable { msg }).unwrap();
                }
                _ => node.stream().shutdown(std::net::Shutdown::Both).unwrap(),
            }
            let id = s.client_id;
            s.crank_until(case, |lp| !lp.proxy.holds_parity_for(id));
            assert!(
                s.lp.conns[&s.client_token()].queue.is_empty(),
                "{case}: flushed in the iteration that ended the hold"
            );
            s.expect_answers([0]);
            if case == "miss" {
                let miss = s.client_frame();
                assert!(
                    matches!(&miss, Msg::ChunkMiss { id } if *id == o(1)),
                    "{miss:?}"
                );
            }
            for l in [4, 5] {
                let query = next_frame(&mut s.lp, &mut s.events, &mut s.nodes[l as usize]);
                assert!(
                    matches!(&query, Frame::ToInstance { msg: Msg::ChunkGet { id }, .. } if *id == o(l)),
                    "{case}: {query:?}"
                );
            }
        }
    }

    /// Holding buys nothing once a client's queue fills a reader stage
    /// (the reader takes that in one `read` either way), so it goes out
    /// at once — chunks of large objects stream — and the hold resumes
    /// for what comes after.
    #[test]
    fn a_held_queue_of_one_reader_stage_goes_out_at_once() {
        let mut s = Scripted::start(4, 2, STAGE_LEN / 2);
        s.get(4);
        s.answer_data(0);
        assert!(nothing_to_read(&s.client), "below one stage: held");
        s.answer_data(1);
        assert!(s.lp.proxy.holds_parity_for(s.client_id));
        s.expect_answers([0, 1]);
        s.answer_data(2);
        assert!(nothing_to_read(&s.client), "below one stage again: held");
        s.answer_data(3);
        let last = s.client_frame();
        assert!(matches!(&last, Msg::ChunkToClient { id, .. } if *id == o(2)));
        let last = s.client_frame();
        assert!(matches!(&last, Msg::ChunkToClient { id, .. } if *id == o(3)));
    }

    /// A data home whose death only the flush pass finds (its socket
    /// fails the write) releases the parity of the GETs waiting on it,
    /// and the answers those GETs held leave in that same pass — the loop
    /// may block in its next poll for a long time.
    #[test]
    fn a_teardown_in_the_flush_pass_flushes_what_it_releases() {
        let mut s = Scripted::start(4, 2, 1024);
        s.get(4);
        s.answer_data(0);
        // A second reader's query sits unread in λ1's socket, and its
        // re-issued GET queues another one behind the read pass.
        let client_addr = s.lp.client_listener.local_addr().unwrap();
        let b = TcpStream::connect(client_addr).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut b = FrameStream::new(b);
        b.send(&Frame::HelloClient).unwrap();
        let welcome = next_frame(&mut s.lp, &mut s.events, &mut b);
        assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
        let get = Frame::App {
            msg: Msg::GetObject {
                key: ObjectKey::new("o"),
                data_chunks: 4,
            },
        };
        b.send(&get).unwrap();
        while nothing_to_read(&s.nodes[1]) {
            crank(&mut s.lp, &mut s.events);
        }
        b.send(&get).unwrap();
        let node1 = s.lp.nodes[&LambdaId(1)];
        read_until(&mut s.lp, &mut s.events, "the re-issued query", |lp| {
            !lp.conns[&node1].queue.is_empty()
        });
        die_with_unread_bytes(s.nodes.remove(1));
        s.lp.flush_dirty();
        assert!(
            !s.lp.nodes.contains_key(&LambdaId(1)),
            "the flush pass closes λ1"
        );
        assert!(!s.lp.proxy.holds_parity_for(s.client_id));
        assert!(s.lp.held.is_empty(), "released answers are flushed at once");
        s.expect_answers([0]);
    }

    /// An orderly shutdown drains held answers too, and its `Shutdown`
    /// notice follows them rather than waiting behind the hold.
    #[test]
    fn shutdown_drains_held_answers_and_then_says_so() {
        let mut s = Scripted::start(4, 2, 1024);
        s.get(4);
        s.answer_data(0);
        assert!(nothing_to_read(&s.client), "held");
        let Scripted { lp, mut client, .. } = s;
        lp.stop(true);
        let frames: Vec<Frame> = (0..3).map(|_| client.recv().unwrap()).collect();
        assert!(
            matches!(
                &frames[0],
                Frame::App {
                    msg: Msg::GetAccepted { .. }
                }
            ),
            "{frames:?}"
        );
        assert!(
            matches!(&frames[1], Frame::App { msg: Msg::ChunkToClient { id, .. } } if *id == o(0)),
            "{frames:?}"
        );
        assert_eq!(frames[2], Frame::Shutdown);
    }

    /// Eight node ids on one daemon loop against a hand-cranked proxy:
    /// killing one id is exactly one lost connection, the seven siblings
    /// keep serving data-first reads of the stripes that avoid it, every
    /// read stays byte-identical, and the id comes back on restart.
    #[test]
    fn a_killed_node_id_is_one_lost_connection_and_its_siblings_serve_on() {
        let dep = DeploymentConfig {
            backup_enabled: false,
            ..DeploymentConfig::small(8, EcConfig::new(4, 2).unwrap())
        };
        let mut lp = EventLoop::bind(&NetProxyConfig::loopback(dep.clone())).unwrap();
        let client_addr = lp.client_listener.local_addr().unwrap();
        let node_addr = lp.node_listener.local_addr().unwrap();
        let mut events = Events::with_capacity(64);
        let pool: Vec<LambdaId> = dep.proxy_pool(ProxyId(0)).collect();
        let rt = RuntimeConfig::for_deployment(&dep);
        let mut daemons =
            NetNode::spawn_many(&pool, node_addr, rt, Duration::from_secs(5)).unwrap();

        // The reader: stores 16 objects, then reads whatever key lists
        // it is sent, verifying every byte; each finished batch counts.
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        let (batches, batch_rx) = std::sync::mpsc::channel::<Vec<String>>();
        let done = Arc::new(AtomicU64::new(0));
        let reader = {
            let (keys, done) = (keys.clone(), done.clone());
            std::thread::spawn(move || {
                let object = |key: &str| crate::bench::pattern_bytes(key, 0, 4096);
                let mut client = NetClient::connect(client_addr, dep.ec, 7).unwrap();
                for key in &keys {
                    client.put(key, object(key)).unwrap();
                }
                done.fetch_add(1, Ordering::SeqCst);
                for batch in batch_rx {
                    for key in batch {
                        let got = client.get(&key).unwrap().expect("cached");
                        assert_eq!(got, object(&key), "{key}");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        let mut batch = 0;
        let mut read = |lp: &mut EventLoop, events: &mut Events, keys: Vec<String>| {
            batches.send(keys).unwrap();
            batch += 1;
            let want = batch + 1;
            read_until(lp, events, "a read batch", |_| {
                done.load(Ordering::SeqCst) >= want
            });
            lp.flush_dirty();
        };
        read_until(&mut lp, &mut events, "the PUTs", |_| {
            done.load(Ordering::SeqCst) == 1
        });
        lp.flush_dirty();

        // The victim: the node the most stripes avoid (16 stripes of 6
        // over 8 nodes avoid 32 times, so some node at least 4 times).
        let homes = |lp: &EventLoop, key: &str| -> Vec<LambdaId> {
            (0..6)
                .filter_map(|seq| {
                    lp.proxy
                        .chunk_owner(&ChunkId::new(ObjectKey::new(key), seq))
                })
                .collect()
        };
        let avoiding = |lp: &EventLoop, l: LambdaId| -> Vec<String> {
            keys.iter()
                .filter(|k| !homes(lp, k).contains(&l))
                .cloned()
                .collect()
        };
        let victim = *pool
            .iter()
            .max_by_key(|&&l| avoiding(&lp, l).len())
            .unwrap();
        let spared = avoiding(&lp, victim);
        assert!(spared.len() >= 4, "{spared:?}");

        // Kill it with no traffic in flight: exactly one connection is
        // lost, and it is the victim's.
        let lost_before = lp.proxy.stats.delivery_failures;
        daemons[victim.0 as usize].kill();
        read_until(&mut lp, &mut events, "the lost connection", |lp| {
            !lp.nodes.contains_key(&victim)
        });
        lp.flush_dirty();
        assert_eq!(lp.proxy.stats.delivery_failures, lost_before + 1);
        assert_eq!(lp.nodes.len(), 7);

        // The siblings serve the stripes that avoid the victim data-first.
        let data_first = lp.proxy.stats.data_first_gets;
        for _ in 0..3 {
            read(&mut lp, &mut events, spared.clone());
        }
        assert!(
            lp.proxy.stats.data_first_gets >= data_first + spared.len() as u64,
            "{} data-first GETs of {} stripes read three times",
            lp.proxy.stats.data_first_gets - data_first,
            spared.len()
        );
        // Every other stripe is read around the victim.
        read(&mut lp, &mut events, keys.clone());
        assert_eq!(lp.nodes.len(), 7);

        // The victim comes back and is read again (its chunks are gone:
        // missed and repaired).
        let _restarted = NetNode::spawn(victim, node_addr, rt, Duration::from_secs(5)).unwrap();
        read_until(&mut lp, &mut events, "the reconnect", |lp| {
            lp.nodes.contains_key(&victim)
        });
        read(&mut lp, &mut events, keys.clone());
        read(&mut lp, &mut events, keys.clone());
        assert_eq!(lp.nodes.len(), 8);

        drop(batches);
        while !reader.is_finished() {
            read_until(&mut lp, &mut events, "one more turn", |_| true);
            lp.flush_dirty();
        }
        reader.join().expect("every read verified");
        assert_eq!(lp.proxy.check_invariants(), Vec::<String>::new());
    }
}
