//! The emulated Lambda node daemon: one OS process (or in-process
//! thread) hosting the instances of one logical cache node.
//!
//! In the paper, a Lambda node is a function the provider runs on
//! demand; the proxy *invokes* it and the instance dials the proxy back
//! (§2.2). Here the daemon plays the provider's role for its own node:
//! it holds a long-lived TCP connection to the proxy, receives
//! [`Frame::Invoke`] and [`Frame::ToInstance`] frames, and runs the
//! channel-independent [`NodeHost`] core — the instance container,
//! invoke routing, billed-duration timers (real 100 ms cycles), and
//! backup-relay plumbing, executing protocol actions through the shared
//! dispatch engine. This module adds only the byte transport: frames
//! over TCP.
//!
//! The daemon is a single thread: its run loop owns the (nonblocking)
//! proxy socket through a [`Poller`], decoding inbound frames with an
//! [`NbFrameReader`] and draining queued outbound frames in vectored
//! writes when the socket reports writable. A [`Waker`] lets the
//! in-process control handle ([`NodeHandle`]) interrupt the poll for
//! reclaims and stops. Earlier revisions paired every daemon with a
//! dedicated reader thread; a 100-node loopback cluster now costs 100
//! threads, not 200.
//!
//! **Reclaim semantics**: the daemon persists nothing. Killing the
//! process (SIGTERM, SIGKILL, a crash) loses every instance and every
//! cached chunk — exactly what a provider reclaim does. In-process
//! embeddings (the loopback cluster) can additionally inject
//! [`NodeEvent::Reclaim`] to drop instances while keeping the daemon
//! and its connection alive, which makes the node answer `ChunkMiss`
//! like a freshly re-invoked function. A running instance's own
//! connection would have broken with it; the daemon's socket carries
//! every instance, so it reports that with [`Frame::Reclaimed`].

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
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

/// Poller token of the control waker.
const TOKEN_WAKER: usize = 0;
/// Poller token of the proxy connection.
const TOKEN_SOCKET: usize = 1;

/// In-process control events for a running daemon (sent through
/// [`NodeHandle`]; socket traffic never takes this path).
pub enum NodeEvent {
    /// In-process control: provider-style reclaim (all instances and
    /// their cached chunks vanish; the daemon stays connected and tells
    /// the proxy if one of them was running).
    Reclaim,
    /// In-process control: stop the daemon. A real deployment just kills
    /// the process.
    Stop,
}

/// The net substrate's [`NodeIo`]: node → proxy messages are frames
/// queued on the daemon's socket, drained by the run loop in vectored
/// writes (a whole dispatch batch — e.g. a backup relay's chunk fan-out —
/// leaves in one syscall). A queueing failure marks the connection dead
/// so the run loop exits.
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

/// A connected node daemon, ready to [`NetNode::run`].
pub struct NetNode {
    epoch: Instant,
    events: Receiver<NodeEvent>,
    control: Sender<NodeEvent>,
    poller: Poller,
    waker: Arc<Waker>,
    reader: NbFrameReader,
    /// Whether the socket registration currently includes WRITABLE.
    want_write: bool,
    host: NodeHost<NetNodeIo>,
}

/// Handle to an in-process daemon spawned with [`NetNode::spawn`].
pub struct NodeHandle {
    /// The node this handle controls.
    pub lambda: LambdaId,
    control: Sender<NodeEvent>,
    waker: Arc<Waker>,
    join: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// Injects a provider-style reclaim: instances and cached chunks
    /// vanish, the daemon stays up.
    pub fn reclaim(&self) {
        let _ = self.control.send(NodeEvent::Reclaim);
        self.waker.wake();
    }

    /// Stops the daemon and waits for it, dropping its proxy connection —
    /// the in-process equivalent of killing an `ic-node` process.
    pub fn kill(&mut self) {
        let _ = self.control.send(NodeEvent::Stop);
        self.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

impl NetNode {
    /// Dials the proxy's node port (retrying within `retry_for`, so
    /// daemons can start before the proxy) and performs the handshake.
    ///
    /// # Errors
    ///
    /// [`Error::Transport`] when no connection could be established
    /// within the retry window or the handshake fails.
    pub fn connect(
        lambda: LambdaId,
        proxy: impl ToSocketAddrs + std::fmt::Debug,
        rt_cfg: RuntimeConfig,
        retry_for: Duration,
    ) -> Result<NetNode> {
        let deadline = Instant::now() + retry_for;
        let mut stream = loop {
            match TcpStream::connect(&proxy) {
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
        // The hello is the only blocking write; the steady state is
        // polled and nonblocking.
        Frame::HelloNode { lambda }.write_to(&mut stream)?;
        stream
            .set_nonblocking(true)
            .map_err(|e| Error::Transport(e.to_string()))?;

        let trans = |e: std::io::Error| Error::Transport(e.to_string());
        let poller = Poller::new().map_err(trans)?;
        let waker = Arc::new(Waker::new().map_err(trans)?);
        poller
            .register(&*waker, Token(TOKEN_WAKER), Interest::READABLE, Mode::Level)
            .map_err(trans)?;
        poller
            .register(
                &stream,
                Token(TOKEN_SOCKET),
                Interest::READABLE,
                Mode::Level,
            )
            .map_err(trans)?;

        let (tx, rx) = channel::<NodeEvent>();
        Ok(NetNode {
            epoch: Instant::now(),
            events: rx,
            control: tx,
            poller,
            waker,
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
        })
    }

    /// Connects and runs the daemon on a background thread (used by the
    /// loopback cluster and the tests; the `ic-node` binary calls
    /// [`NetNode::run`] on the main thread instead).
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
        let node = NetNode::connect(lambda, proxy, rt_cfg, retry_for)?;
        let control = node.control.clone();
        let waker = node.waker.clone();
        let join = std::thread::Builder::new()
            .name(format!("ic-node-{}", lambda.0))
            .spawn(move || node.run())
            .map_err(|e| Error::Transport(e.to_string()))?;
        Ok(NodeHandle {
            lambda,
            control,
            waker,
            join: Some(join),
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Runs the daemon until the proxy connection closes, a
    /// [`NodeEvent::Stop`] arrives, or the proxy announces shutdown.
    /// On exit the socket is shut down on both halves, so the proxy
    /// observes the death on its next poll
    /// ([`ic_proxy::Proxy::on_connection_lost`]) instead of discovering
    /// it on its next write.
    pub fn run(mut self) {
        self.run_loop();
        let _ = self.host.io.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Drains pending control events; `true` to keep running.
    fn drain_control(&mut self) -> bool {
        loop {
            match self.events.try_recv() {
                Ok(NodeEvent::Reclaim) => {
                    if self.host.reclaim() {
                        self.host.io.send(Frame::Reclaimed);
                    }
                }
                Ok(NodeEvent::Stop) => return false,
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Decodes and dispatches every buffered inbound frame; `true` to
    /// keep running.
    fn read_socket(&mut self) -> bool {
        loop {
            let now = self.now();
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
    /// `true` to keep running.
    fn flush_socket(&mut self) -> bool {
        let io = &mut self.host.io;
        if io.queue.is_empty() && !self.want_write {
            return true;
        }
        match io.queue.write_to(&mut io.stream) {
            Ok(flush) => {
                let want_write = !flush.drained;
                if want_write != self.want_write {
                    let interest = if want_write {
                        Interest::READABLE | Interest::WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    if self
                        .poller
                        .reregister(&io.stream, Token(TOKEN_SOCKET), interest, Mode::Level)
                        .is_err()
                    {
                        return false;
                    }
                    self.want_write = want_write;
                }
                true
            }
            Err(_) => false,
        }
    }

    fn run_loop(&mut self) {
        let mut events = Events::with_capacity(8);
        loop {
            if self.host.io.dead || !self.flush_socket() {
                return;
            }
            // Wait for readiness, bounded by the earliest
            // duration-control timer.
            let timeout = self.host.next_timer_at().map(|at| {
                Duration::from_micros(at.as_micros().saturating_sub(self.now().as_micros()))
            });
            if self.poller.poll(&mut events, timeout).is_err() {
                return;
            }
            let mut readable = false;
            let mut writable = false;
            let mut woken = false;
            for ev in &events {
                match ev.token().0 {
                    TOKEN_WAKER => woken = true,
                    TOKEN_SOCKET => {
                        readable |= ev.is_readable();
                        writable |= ev.is_writable();
                    }
                    _ => {}
                }
            }
            if woken {
                self.waker.ack();
                if !self.drain_control() {
                    return;
                }
            }
            if readable && !self.read_socket() {
                return;
            }
            if writable && !self.flush_socket() {
                return;
            }
            self.host.fire_due_timers(self.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use ic_common::msg::InvokePayload;
    use ic_common::ProxyId;

    use super::*;

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
        let (mut proxy, _) = listener.accept().unwrap();
        proxy
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let hello = Frame::read_from(&mut proxy).unwrap();
        assert_eq!(
            hello,
            Frame::HelloNode {
                lambda: LambdaId(3)
            }
        );
        let invoke = Frame::Invoke {
            payload: InvokePayload::ping(ProxyId(0)),
        };
        let next_pong = |proxy: &mut TcpStream| {
            invoke.write_to(proxy).unwrap();
            match Frame::read_from(proxy).unwrap() {
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
        assert_eq!(Frame::read_from(&mut proxy).unwrap(), Frame::Reclaimed);
        let second = next_pong(&mut proxy);
        assert_ne!(first, second);
        // Once it has returned (BYE) it is idle: reclaimed silently again
        // (if the invoke overtakes the reclaim it wakes the same instance;
        // either way a PONG is the next frame).
        match Frame::read_from(&mut proxy).unwrap() {
            Frame::FromInstance {
                msg: Msg::Bye { .. },
                ..
            } => {}
            other => panic!("expected the BYE, got {other:?}"),
        }
        node.reclaim();
        next_pong(&mut proxy);
    }
}
