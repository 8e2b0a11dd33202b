//! The synchronous socket client: the InfiniCache client library over
//! one TCP connection *per proxy* of the deployment.
//!
//! A blocking facade: `put` and `get` drive the pure
//! [`ClientLib`] state machine, execute its actions through the shared
//! [`infinicache::dispatch`] engine (this type implements the client
//! role), and block reading framed proxy replies until the operation
//! reaches a terminal [`ClientOutcome`]. Erasure coding happens here, on
//! the client, exactly as the paper prescribes (§3.1) — the proxies only
//! ever see encoded chunks.
//!
//! ## One polled loop, zero background threads
//!
//! All proxy connections are nonblocking sockets registered with a
//! single [`Poller`]; the blocking facade *is* the event loop. Waiting
//! for a reply polls every connection at once: inbound frames are
//! decoded by per-connection [`NbFrameReader`] state machines into a
//! local event buffer, outbound frames sit in per-connection
//! [`FrameWriteQueue`]s drained on writable readiness (vectored,
//! coalesced, `WouldBlock`-safe). Earlier revisions spawned one reader
//! thread per proxy; a client of a large fleet now costs one thread
//! total, and a whole benchmark fleet of clients stays O(clients), not
//! O(clients × proxies).
//!
//! ## Multi-proxy routing
//!
//! A deployment is a *fleet* of proxies (§3.1, Fig 2); the client
//! spreads keys over them with the same consistent-hash ring the
//! simulator uses ([`ic_common::ring::Ring`], inside
//! [`ClientLib`]). Concretely:
//!
//! * [`NetClient::connect_multi`] dials every proxy (addresses in
//!   `ProxyId` order — position `i` must be the proxy started with id
//!   `i`), performs the [`Frame::HelloClient`]/[`Frame::Welcome`]
//!   handshake on each, and learns each proxy's disjoint Lambda pool;
//! * every connection owns its own framing state, so a slow or dead
//!   proxy never desynchronizes another connection's stream;
//! * failure is **per-connection**: a timeout, write failure, or socket
//!   drop marks only that proxy down. Keys routed to a down proxy fail
//!   fast with [`Error::Transport`]; keys owned by the surviving proxies
//!   are unaffected. A proxy that is unreachable already at connect time
//!   is tolerated the same way (it stays on the ring, marked down), as
//!   long as at least one proxy answers.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ic_client::{ClientLib, GetReport};
use ic_common::frame::{FrameWriteQueue, NbFrameReader, NbRead};
use ic_common::msg::Msg;
use ic_common::{
    ClientId, EcConfig, Error, LambdaId, ObjectKey, Payload, ProxyId, Result, SimTime,
};
use infinicache::dispatch::{self, ClientOutcome, ClientTransport};
use polling::{Events, Interest, Mode, Poller, Token};

use crate::wire::{Frame, FrameStream};

/// How long an operation — and a connection's handshake — may take
/// before the client gives up on it (see [`NetClient::set_op_timeout`]).
const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// What the polled I/O pass feeds the blocking facade.
enum ClientEvent {
    /// An application-protocol message from one proxy.
    Msg(ProxyId, Msg),
    /// One proxy's connection is gone (socket drop, decode failure, or
    /// an orderly [`Frame::Shutdown`]); the string says why.
    Down(ProxyId, String),
}

/// One proxy connection's client-side state.
struct Conn {
    proxy: ProxyId,
    /// The nonblocking socket; `None` once the connection is dead (or
    /// was unreachable at connect).
    stream: Option<TcpStream>,
    /// Incremental inbound frame decoder (survives `WouldBlock`).
    reader: NbFrameReader,
    /// Outbound frames queued by dispatch batches, drained in vectored
    /// writes — a PUT's whole stripe (d+p `PutChunk`s) leaves in one
    /// syscall, payload bytes borrowed from the object allocation.
    queue: FrameWriteQueue,
    /// Whether the poller registration currently includes WRITABLE.
    want_write: bool,
    /// Why this connection can no longer be trusted (`None` while
    /// healthy). Set by socket errors, decode failures, op timeouts, or
    /// failed writes — a timeout or partial write leaves the stream
    /// state indeterminate, so the connection is dead for good; other
    /// proxies' connections are unaffected.
    down: Option<String>,
}

/// A connected synchronous client over the deployment's proxy fleet.
pub struct NetClient {
    lib: ClientLib,
    /// Indexed by `ProxyId.0`; the poller token is the index.
    conns: Vec<Conn>,
    poller: Poller,
    /// Readiness buffer reused by every [`NetClient::poll_io`] pass.
    events: Events,
    /// Events decoded by [`NetClient::poll_io`] ahead of consumption.
    pending: VecDeque<ClientEvent>,
    client: ClientId,
    epoch: Instant,
    op_timeout: Duration,
    /// Terminal outcomes collected by the client-role transport, drained
    /// by the blocking `put`/`get` loops.
    outcomes: Vec<ClientOutcome>,
}

impl NetClient {
    /// Connects to a single proxy's client port (a one-proxy deployment)
    /// and performs the handshake.
    ///
    /// The proxy assigns the client identity and announces its Lambda
    /// pool; `ec` is the client-side erasure-coding choice (the proxy
    /// never inspects it) and `seed` drives placement randomness.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] when the connection or handshake fails.
    pub fn connect(addr: impl ToSocketAddrs, ec: EcConfig, seed: u64) -> Result<NetClient> {
        // Like `TcpStream::connect`, try every address the name resolves
        // to (e.g. `localhost` → both `::1` and `127.0.0.1`) until one
        // completes the handshake.
        let mut last_err = Error::Transport("address resolves to nothing".into());
        for addr in addr
            .to_socket_addrs()
            .map_err(|e| Error::Transport(e.to_string()))?
        {
            match NetClient::connect_multi(&[addr], ec, seed) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Connects to every proxy of a multi-proxy deployment.
    ///
    /// `addrs[i]` must be the client port of the proxy started with id
    /// `i` (the `Welcome` handshake verifies the announced identity). An
    /// unreachable proxy is tolerated — it stays on the ring marked
    /// *down*, and keys it owns fail fast — as long as at least one
    /// proxy completes the handshake.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] when no proxy is reachable, and
    /// [`Error::Protocol`]/[`Error::Config`] on handshake violations
    /// (wrong frame, misnumbered proxy, a pool too small for `ec`).
    pub fn connect_multi(addrs: &[SocketAddr], ec: EcConfig, seed: u64) -> Result<NetClient> {
        if addrs.is_empty() {
            return Err(Error::Config("a client needs at least one proxy".into()));
        }
        let poller = Poller::new().map_err(|e| Error::Transport(e.to_string()))?;
        let mut conns = Vec::with_capacity(addrs.len());
        let mut pools: Vec<(ProxyId, Vec<LambdaId>)> = Vec::with_capacity(addrs.len());
        let mut client = None;
        for (i, addr) in addrs.iter().enumerate() {
            let expected = ProxyId(i as u16);
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let (conn, pool, id) = handshake(stream, expected, ec)?;
                    client.get_or_insert(id);
                    pools.push((expected, pool));
                    conns.push(conn);
                }
                Err(e) => {
                    // Down from the start: the proxy keeps its ring slice
                    // (its keys must not silently reroute) but every
                    // operation on it fails fast.
                    pools.push((expected, Vec::new()));
                    conns.push(Conn {
                        proxy: expected,
                        stream: None,
                        reader: NbFrameReader::new(),
                        queue: FrameWriteQueue::new(),
                        want_write: false,
                        down: Some(format!("unreachable at connect: {e}")),
                    });
                }
            }
        }
        let Some(client) = client else {
            return Err(Error::Transport(format!(
                "none of the {} proxies is reachable",
                addrs.len()
            )));
        };
        // Handshakes were blocking; the steady state is polled. Flip
        // every live socket to nonblocking and register it under its
        // index.
        for (i, conn) in conns.iter_mut().enumerate() {
            let Some(stream) = conn.stream.as_ref() else {
                continue;
            };
            let registered = stream
                .set_nonblocking(true)
                .and_then(|()| poller.register(stream, Token(i), Interest::READABLE, Mode::Level));
            if let Err(e) = registered {
                conn.down = Some(format!("poller registration failed: {e}"));
                conn.stream = None;
            }
        }
        let lib = ClientLib::new(client, ec, pools, 64, seed);
        let mut net = NetClient {
            lib,
            conns,
            poller,
            events: Events::with_capacity(64),
            pending: VecDeque::new(),
            client,
            epoch: Instant::now(),
            op_timeout: DEFAULT_OP_TIMEOUT,
            outcomes: Vec::new(),
        };
        // Frames that arrived with a `Welcome` are staged in the reader
        // the handshake handed over, and staged bytes raise no readiness.
        for i in 0..net.conns.len() {
            if net.conns[i].reader.has_staged() {
                net.read_conn(i);
            }
        }
        Ok(net)
    }

    /// The identity the first reachable proxy assigned to this client.
    /// (Each proxy numbers its own client connections independently; the
    /// id is per-connection bookkeeping, never carried in protocol
    /// messages.)
    pub fn id(&self) -> ClientId {
        self.client
    }

    /// Client-side statistics (recoveries, repairs, hits...).
    pub fn stats(&self) -> ic_client::ClientStats {
        self.lib.stats
    }

    /// The erasure-coding configuration in use.
    pub fn ec(&self) -> EcConfig {
        self.lib.ec()
    }

    /// Number of proxies on this client's ring (down ones included).
    pub fn proxies(&self) -> usize {
        self.conns.len()
    }

    /// The proxy `key` routes to on this client's consistent-hash ring.
    pub fn proxy_for(&self, key: impl AsRef<str>) -> ProxyId {
        self.lib.route(&ObjectKey::new(key))
    }

    /// `true` once `proxy`'s connection has been marked down (socket
    /// drop, timeout, failed write, or unreachable at connect).
    pub fn proxy_down(&self, proxy: ProxyId) -> bool {
        self.conns
            .get(proxy.0 as usize)
            .is_none_or(|c| c.down.is_some())
    }

    /// Overrides the per-operation timeout (default 10 s).
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Stores `object` under `key`, blocking until fully acknowledged.
    ///
    /// # Errors
    ///
    /// [`Error::PutAborted`] when the proxy aborted the write (evicted or
    /// overwritten mid-flight), [`Error::Transport`] when the key's proxy
    /// is down, on connection failure, or on timeout.
    pub fn put(&mut self, key: impl AsRef<str>, object: Bytes) -> Result<()> {
        let key = ObjectKey::new(key);
        let target = self.lib.route(&key);
        self.check_up(target)?;
        let deadline = Instant::now() + self.op_timeout;
        let actions = self.lib.put(key.clone(), Payload::Bytes(object));
        self.drive(target, actions, deadline)?;
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
            let msg = self.recv(target, deadline)?;
            let actions = self.lib.on_proxy(msg);
            self.drive(target, actions, deadline)?;
        }
    }

    /// Fetches `key`; `Ok(None)` on a cache miss.
    ///
    /// # Errors
    ///
    /// [`Error::ChunkUnavailable`] when more than `p` chunks are lost,
    /// [`Error::Transport`] when the key's proxy is down, on connection
    /// failure, or on timeout.
    pub fn get(&mut self, key: impl AsRef<str>) -> Result<Option<Bytes>> {
        Ok(self.get_reported(key)?.map(|(b, _)| b))
    }

    /// Like [`NetClient::get`], returning the decode/repair report with
    /// the bytes (used by tests asserting EC recovery actually happened).
    ///
    /// # Errors
    ///
    /// See [`NetClient::get`].
    pub fn get_reported(&mut self, key: impl AsRef<str>) -> Result<Option<(Bytes, GetReport)>> {
        let key = ObjectKey::new(key);
        let target = self.lib.route(&key);
        self.check_up(target)?;
        let deadline = Instant::now() + self.op_timeout;
        let actions = self.lib.get(key.clone());
        self.drive(target, actions, deadline)?;
        loop {
            for outcome in self.take_outcomes() {
                match outcome {
                    ClientOutcome::Delivered {
                        key: k,
                        object,
                        report,
                    } if k == key => {
                        let Payload::Bytes(b) = object else {
                            return Err(Error::Protocol(
                                "the socket substrate delivers real bytes".into(),
                            ));
                        };
                        return Ok(Some((b, report)));
                    }
                    ClientOutcome::Miss { key: k } if k == key => return Ok(None),
                    ClientOutcome::Unrecoverable {
                        key: k,
                        available,
                        needed,
                    } if k == key => return Err(Error::ChunkUnavailable { needed, available }),
                    // Outcomes for other keys cannot occur on this
                    // synchronous client; drop them.
                    _ => {}
                }
            }
            let msg = self.recv(target, deadline)?;
            let actions = self.lib.on_proxy(msg);
            self.drive(target, actions, deadline)?;
        }
    }

    /// Runs client actions through the shared dispatch engine, then
    /// drains the `target` connection's queued frames (polling for
    /// writable readiness — and buffering any inbound frames meanwhile,
    /// so a simultaneously-full pipe in both directions cannot
    /// deadlock). Other connections flush opportunistically on their own
    /// writable events. A connection failure downs only that connection;
    /// it fails the call only for the operation's `target` (a
    /// synchronous op talks to exactly one proxy — its key's ring
    /// owner).
    fn drive(
        &mut self,
        target: ProxyId,
        actions: Vec<ic_client::ClientAction>,
        deadline: Instant,
    ) -> Result<()> {
        let now = self.now();
        let client = self.client;
        dispatch::run_client_actions(self, now, client, actions);
        for i in 0..self.conns.len() {
            self.flush_conn(i);
        }
        // Wait out the target's backlog: replies cannot be expected
        // before the requests have left.
        loop {
            let conn = &self.conns[target.0 as usize];
            if conn.down.is_some() || conn.queue.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                self.mark_down(target, "operation timed out".into());
                break;
            }
            self.poll_io(Some(deadline - now));
        }
        match &self.conns[target.0 as usize].down {
            Some(reason) => Err(Error::Transport(reason.clone())),
            None => Ok(()),
        }
    }

    fn take_outcomes(&mut self) -> Vec<ClientOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Fails fast when the proxy owning the current operation's key is
    /// down — its keys are unavailable until a new client reconnects, but
    /// keys on the surviving proxies keep working.
    fn check_up(&self, proxy: ProxyId) -> Result<()> {
        if let Some(reason) = self
            .conns
            .get(proxy.0 as usize)
            .and_then(|c| c.down.as_ref())
        {
            return Err(Error::Transport(format!("{proxy} is down: {reason}")));
        }
        Ok(())
    }

    fn mark_down(&mut self, proxy: ProxyId, reason: String) {
        if let Some(conn) = self.conns.get_mut(proxy.0 as usize) {
            conn.down.get_or_insert(reason);
            if let Some(s) = conn.stream.take() {
                let _ = self.poller.deregister(&s);
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Waits for the next proxy message (from any connection), bounded by
    /// `deadline`.
    ///
    /// A timeout downs the `target` connection: the operation's protocol
    /// state is indeterminate, so later traffic on that connection cannot
    /// be trusted. A `Down` event for a non-target proxy is recorded and
    /// waiting continues.
    fn recv(&mut self, target: ProxyId, deadline: Instant) -> Result<Msg> {
        loop {
            while let Some(event) = self.pending.pop_front() {
                match event {
                    ClientEvent::Msg(p, msg) => {
                        // Frames decoded before a connection was marked
                        // down are untrusted (the op that downed it left
                        // the protocol exchange half-finished): drop them.
                        if self
                            .conns
                            .get(p.0 as usize)
                            .is_some_and(|c| c.down.is_none())
                        {
                            return Ok(msg);
                        }
                    }
                    ClientEvent::Down(p, reason) => {
                        if p == target {
                            return Err(Error::Transport(reason));
                        }
                    }
                }
            }
            if self.conns.iter().all(|c| c.down.is_some()) {
                // No live socket can produce further events.
                return Err(Error::Transport("every proxy connection is gone".into()));
            }
            let now = Instant::now();
            if now >= deadline {
                self.mark_down(target, "operation timed out".into());
                return Err(Error::Transport("operation timed out".into()));
            }
            self.poll_io(Some(deadline - now));
        }
    }

    /// One pass of the event loop: polls every registered connection and
    /// services readiness — decoding inbound frames into `pending`,
    /// flushing outbound queues, arming/disarming writable interest.
    fn poll_io(&mut self, timeout: Option<Duration>) {
        // Borrowed out of `self` for the pass: servicing an event needs
        // `&mut self`.
        let mut events = std::mem::replace(&mut self.events, Events::with_capacity(0));
        if self.poller.poll(&mut events, timeout).is_ok() {
            for ev in &events {
                if ev.is_readable() {
                    self.read_conn(ev.token().0);
                }
                if ev.is_writable() {
                    self.flush_conn(ev.token().0);
                }
            }
        }
        self.events = events;
    }

    /// Decodes every buffered inbound frame on one connection.
    fn read_conn(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(i) else {
                return;
            };
            if conn.down.is_some() {
                return;
            }
            let Some(stream) = conn.stream.as_mut() else {
                return;
            };
            let proxy = conn.proxy;
            match conn.reader.read(stream) {
                Ok(NbRead::Frame(body)) => match Frame::decode_shared(&body) {
                    Ok(Frame::App { msg }) => {
                        self.pending.push_back(ClientEvent::Msg(proxy, msg));
                    }
                    Ok(Frame::Shutdown) => {
                        self.fail_conn(i, "proxy shut down".into());
                        return;
                    }
                    Ok(_) => {} // nothing else addresses a client
                    Err(e) => {
                        self.fail_conn(i, e.to_string());
                        return;
                    }
                },
                Ok(NbRead::WouldBlock) => return,
                Ok(NbRead::Closed) => {
                    self.fail_conn(i, "proxy closed the connection".into());
                    return;
                }
                Err(e) => {
                    self.fail_conn(i, e.to_string());
                    return;
                }
            }
        }
    }

    /// Writes as much of one connection's queue as the socket accepts;
    /// arms WRITABLE interest exactly while a backlog remains.
    fn flush_conn(&mut self, i: usize) {
        let mut failure = None;
        if let Some(conn) = self.conns.get_mut(i) {
            if conn.down.is_some() || conn.queue.is_empty() && !conn.want_write {
                return;
            }
            let Some(stream) = conn.stream.as_mut() else {
                return;
            };
            match conn.queue.write_to(stream) {
                Ok(flush) => {
                    let want_write = !flush.drained;
                    if want_write != conn.want_write {
                        let interest = if want_write {
                            Interest::READABLE | Interest::WRITABLE
                        } else {
                            Interest::READABLE
                        };
                        if self
                            .poller
                            .reregister(stream, Token(i), interest, Mode::Level)
                            .is_ok()
                        {
                            conn.want_write = want_write;
                        } else {
                            failure = Some("poller reregistration failed".to_string());
                        }
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
        if let Some(reason) = failure {
            self.fail_conn(i, reason);
        }
    }

    /// Downs one connection and records the event for `recv`.
    fn fail_conn(&mut self, i: usize, reason: String) {
        let Some(conn) = self.conns.get(i) else {
            return;
        };
        let proxy = conn.proxy;
        self.mark_down(proxy, reason.clone());
        self.pending.push_back(ClientEvent::Down(proxy, reason));
    }
}

/// Performs the (blocking) client handshake on a fresh connection. A
/// proxy that does not answer within [`DEFAULT_OP_TIMEOUT`] fails it.
/// The reader that took the `Welcome` stays the connection's reader, so
/// whatever arrived behind it is kept.
fn handshake(
    stream: TcpStream,
    expected: ProxyId,
    ec: EcConfig,
) -> Result<(Conn, Vec<LambdaId>, ClientId)> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(DEFAULT_OP_TIMEOUT)))
        .map_err(|e| Error::Transport(e.to_string()))?;
    let mut framed = FrameStream::new(stream);
    framed.send(&Frame::HelloClient)?;
    let (client, proxy, pool) = match framed.recv()? {
        Frame::Welcome {
            client,
            proxy,
            pool,
        } => (client, proxy, pool),
        other => {
            return Err(Error::Protocol(format!(
                "expected Welcome from the proxy, got {other:?}"
            )))
        }
    };
    if proxy != expected {
        return Err(Error::Config(format!(
            "proxy at position {} announced itself as {proxy}; \
             list addresses in ProxyId order",
            expected.0
        )));
    }
    if pool.len() < ec.shards() {
        return Err(Error::Config(format!(
            "{proxy}'s pool of {} nodes cannot place {} distinct chunks",
            pool.len(),
            ec.shards()
        )));
    }
    let (stream, reader) = framed.into_parts();
    Ok((
        Conn {
            proxy,
            stream: Some(stream),
            reader,
            queue: FrameWriteQueue::new(),
            want_write: false,
            down: None,
        },
        pool,
        client,
    ))
}

impl Drop for NetClient {
    fn drop(&mut self) {
        for conn in &self.conns {
            if let Some(s) = &conn.stream {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl ClientTransport for NetClient {
    fn client_send(&mut self, _now: SimTime, _client: ClientId, proxy: ProxyId, msg: Msg) {
        // Queued, not written: `drive` flushes each connection's whole
        // dispatch batch in vectored writes.
        let mut failure = None;
        if let Some(conn) = self.conns.get_mut(proxy.0 as usize) {
            if conn.down.is_some() {
                return;
            }
            if let Err(e) = conn.queue.push(Frame::App { msg }.encode_parts()) {
                failure = Some(e.to_string());
            }
        }
        if let Some(reason) = failure {
            self.fail_conn(proxy.0 as usize, reason);
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

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("client", &self.client)
            .field("proxies", &self.conns.len())
            .field(
                "down",
                &self
                    .conns
                    .iter()
                    .filter(|c| c.down.is_some())
                    .map(|c| c.proxy)
                    .collect::<Vec<_>>(),
            )
            .field("stats", &self.lib.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::mpsc::channel;

    use super::*;

    fn one_node() -> EcConfig {
        EcConfig::new(1, 0).unwrap()
    }

    /// A listener that takes the connection into its backlog but never
    /// answers fails `connect` once the handshake deadline passes,
    /// instead of hanging it.
    #[test]
    fn connect_to_a_silent_listener_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, outcome) = channel();
        let connecting = std::thread::spawn(move || {
            let _ = done.send(NetClient::connect(addr, one_node(), 1).map(drop));
        });
        let result = outcome
            .recv_timeout(Duration::from_secs(15))
            .expect("connect hung on a silent listener");
        assert!(matches!(result, Err(Error::Transport(_))), "{result:?}");
        connecting.join().unwrap();
        drop(listener);
    }

    /// The reader that took the `Welcome` stays the connection's reader:
    /// a `Shutdown` that arrived in the same write is not lost with the
    /// handshake, and the proxy is down from the start.
    #[test]
    fn a_shutdown_sent_with_the_welcome_downs_the_proxy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let proxy = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut conn = FrameStream::new(conn);
            assert_eq!(conn.recv().unwrap(), Frame::HelloClient);
            let welcome = Frame::Welcome {
                client: ClientId(0),
                proxy: ProxyId(0),
                pool: vec![LambdaId(0)],
            };
            let mut queue = FrameWriteQueue::new();
            for frame in [welcome, Frame::Shutdown] {
                queue.push(frame.encode_parts()).unwrap();
            }
            let (mut conn, _) = conn.into_parts();
            let flush = queue.write_to(&mut conn).unwrap();
            assert_eq!(flush.vectored_writes, 1, "both frames in one write");
            // Stay connected until the client hangs up.
            let _ = std::io::copy(&mut conn, &mut std::io::sink());
        });
        let mut client = NetClient::connect(addr, one_node(), 1).unwrap();
        assert!(client.proxy_down(ProxyId(0)));
        let err = client.get("k").unwrap_err();
        assert!(err.to_string().contains("proxy shut down"), "{err}");
        drop(client);
        proxy.join().unwrap();
    }
}
