//! The socket-level frame vocabulary of the net substrate.
//!
//! [`Msg`] is the *protocol*; [`Frame`] is the *transport envelope* the
//! processes actually exchange: connection handshakes, function
//! invocations (in a real deployment the provider's control plane; here
//! a frame to the node daemon emulating the platform), instance-addressed
//! delivery, and the connection-reset back-channel. Frames are encoded
//! with the shared [`ic_common::frame`] codec — same version byte, same
//! length prefix, same max-frame guard. The event loops read and write
//! frames through its [`NbFrameReader`] and [`FrameWriteQueue`];
//! [`FrameStream`] drives the same two over a blocking socket.
//!
//! Connection establishment:
//!
//! * a **client** connects to the proxy's client port, sends
//!   [`Frame::HelloClient`], and receives [`Frame::Welcome`] with its
//!   assigned identity and the proxy's Lambda pool (which the client
//!   library needs for chunk placement); afterwards both directions
//!   carry [`Frame::App`] protocol messages;
//! * a **node daemon** connects to the proxy's node port and sends
//!   [`Frame::HelloNode`]; the proxy then drives it with
//!   [`Frame::Invoke`]/[`Frame::ToInstance`] and the daemon answers with
//!   [`Frame::FromInstance`] (or [`Frame::Unreachable`] when the
//!   addressed instance no longer runs — the connection-reset path);
//!   [`Frame::Reclaimed`] reports a running instance lost to the
//!   provider.

use std::io::{ErrorKind, Read, Write};

use bytes::Bytes;
use ic_common::frame::{
    Dec, Enc, FrameError, FrameParts, FrameResult, FrameWriteQueue, NbFrameReader, NbRead,
};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::{ClientId, InstanceId, LambdaId, ProxyId};

/// One socket-level frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → proxy: first frame on a client connection.
    HelloClient,
    /// Proxy → client: handshake reply with the assigned identity and
    /// the placement pool.
    Welcome {
        /// Identity assigned to this connection.
        client: ClientId,
        /// The proxy's identity (keys the client's consistent-hash ring).
        proxy: ProxyId,
        /// Node ids of the proxy's Lambda pool, in placement order.
        pool: Vec<LambdaId>,
    },
    /// Node daemon → proxy: first frame on a node connection.
    HelloNode {
        /// The logical node this daemon serves.
        lambda: LambdaId,
    },
    /// Proxy → node daemon: invoke the function (the daemon routes to an
    /// idle instance or cold-starts a fresh one, like the platform).
    Invoke {
        /// Invocation parameters.
        payload: InvokePayload,
    },
    /// Proxy → node daemon: deliver a message to a specific instance.
    ToInstance {
        /// The addressed instance.
        instance: InstanceId,
        /// The message.
        msg: Msg,
    },
    /// Node daemon → proxy: a message from one of its instances.
    FromInstance {
        /// The sending instance.
        instance: InstanceId,
        /// The message.
        msg: Msg,
    },
    /// Node daemon → proxy: the addressed instance is gone; the message
    /// bounces back for the proxy's delivery-failure path.
    Unreachable {
        /// The undeliverable message.
        msg: Msg,
    },
    /// Client ↔ proxy application-protocol message.
    App {
        /// The message.
        msg: Msg,
    },
    /// Orderly shutdown notice (proxy → peers on exit).
    Shutdown,
    /// Node daemon → proxy: the provider reclaimed the node while an
    /// instance was running. Every instance shares the daemon's socket,
    /// so the instance's own connection breaking — what a real proxy
    /// would see — has to be said in a frame.
    Reclaimed,
}

impl Frame {
    /// Encodes the frame body as scatter/gather parts: chunk payloads
    /// inside `msg` fields are *borrowed* [`bytes::Bytes`] segments, so
    /// relaying an already-decoded payload re-wraps the same allocation
    /// instead of memcpying it into a fresh body.
    pub fn encode_parts(&self) -> FrameParts {
        let mut e = Enc::new();
        match self {
            Frame::HelloClient => e.u8(0),
            Frame::Welcome {
                client,
                proxy,
                pool,
            } => {
                e.u8(1);
                e.u16(client.0);
                e.u16(proxy.0);
                e.u32(pool.len() as u32);
                for l in pool {
                    e.u32(l.0);
                }
            }
            Frame::HelloNode { lambda } => {
                e.u8(2);
                e.u32(lambda.0);
            }
            Frame::Invoke { payload } => {
                e.u8(3);
                e.invoke(payload);
            }
            Frame::ToInstance { instance, msg } => {
                e.u8(4);
                e.u64(instance.0);
                e.msg(msg);
            }
            Frame::FromInstance { instance, msg } => {
                e.u8(5);
                e.u64(instance.0);
                e.msg(msg);
            }
            Frame::Unreachable { msg } => {
                e.u8(6);
                e.msg(msg);
            }
            Frame::App { msg } => {
                e.u8(7);
                e.msg(msg);
            }
            Frame::Shutdown => e.u8(8),
            Frame::Reclaimed => e.u8(9),
        }
        e.into_parts()
    }

    /// Decodes one shared frame body: chunk payloads inside `msg` fields
    /// are zero-copy slices of `frame`'s allocation.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on unknown tags, parse failures, or
    /// trailing bytes.
    pub fn decode_shared(frame: &Bytes) -> FrameResult<Frame> {
        let mut d = Dec::new_shared(frame);
        let decoded = match d.u8()? {
            0 => Frame::HelloClient,
            1 => {
                let client = ClientId(d.u16()?);
                let proxy = ProxyId(d.u16()?);
                let n = d.u32()? as usize;
                if n > 1 << 20 {
                    return Err(FrameError::TooLarge(n as u64));
                }
                let mut pool = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    pool.push(LambdaId(d.u32()?));
                }
                Frame::Welcome {
                    client,
                    proxy,
                    pool,
                }
            }
            2 => Frame::HelloNode {
                lambda: LambdaId(d.u32()?),
            },
            3 => Frame::Invoke {
                payload: d.invoke()?,
            },
            4 => Frame::ToInstance {
                instance: InstanceId(d.u64()?),
                msg: d.msg()?,
            },
            5 => Frame::FromInstance {
                instance: InstanceId(d.u64()?),
                msg: d.msg()?,
            },
            6 => Frame::Unreachable { msg: d.msg()? },
            7 => Frame::App { msg: d.msg()? },
            8 => Frame::Shutdown,
            9 => Frame::Reclaimed,
            _ => return Err(FrameError::Malformed("unknown frame tag")),
        };
        d.finish()?;
        Ok(decoded)
    }
}

/// Blocking frame I/O over one blocking stream: the client handshake,
/// and tests that play a peer by hand. It runs on the event loops' own
/// framing — each frame leaves through a [`FrameWriteQueue`], and
/// frames arrive through one [`NbFrameReader`] per connection, so bytes
/// read past a frame wait for the next [`FrameStream::recv`] (or, after
/// [`FrameStream::into_parts`], for the event loop that takes the
/// connection over).
pub struct FrameStream<S> {
    stream: S,
    reader: NbFrameReader,
}

impl<S: Read + Write> FrameStream<S> {
    /// Wraps a stream positioned at a frame boundary.
    pub fn new(stream: S) -> FrameStream<S> {
        FrameStream {
            stream,
            reader: NbFrameReader::new(),
        }
    }

    /// The wrapped stream (socket options, shutdown).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// `true` while bytes read off the stream wait in the reader: the
    /// next [`FrameStream::recv`] may not need the stream at all.
    pub fn buffered(&self) -> bool {
        self.reader.mid_frame()
    }

    /// The stream and its reader, with whatever the reader holds.
    pub fn into_parts(self) -> (S, NbFrameReader) {
        (self.stream, self.reader)
    }

    /// Writes one frame; returns once every byte is written.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] for an oversized body, [`FrameError::Io`]
    /// on a write failure — `TimedOut` when a write timeout expires.
    pub fn send(&mut self, frame: &Frame) -> FrameResult<()> {
        let mut queue = FrameWriteQueue::new();
        queue.push(frame.encode_parts())?;
        if queue.write_to(&mut self.stream)?.drained {
            Ok(())
        } else {
            Err(FrameError::Io(ErrorKind::TimedOut.into()))
        }
    }

    /// Reads the next frame, blocking until it is complete.
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] when the peer closed the stream at a frame
    /// boundary, [`FrameError::Io`] with `TimedOut` when the stream's read
    /// timeout expires (the frame in progress is kept; calling again
    /// resumes it), and otherwise as [`NbFrameReader::read`] and
    /// [`Frame::decode_shared`].
    pub fn recv(&mut self) -> FrameResult<Frame> {
        loop {
            let mut src = WouldBlockProbe {
                inner: &mut self.stream,
                would_block: false,
            };
            match self.reader.read(&mut src)? {
                NbRead::Frame(body) => return Frame::decode_shared(&body),
                NbRead::Closed => return Err(FrameError::Closed),
                // After a short read the reader answers `WouldBlock`
                // without reading; only the stream's own is a timeout.
                NbRead::WouldBlock if src.would_block => {
                    return Err(FrameError::Io(ErrorKind::TimedOut.into()))
                }
                NbRead::WouldBlock => {}
            }
        }
    }
}

/// A reader that notes whether its last `read` reported `WouldBlock`.
struct WouldBlockProbe<'a, R> {
    inner: &'a mut R,
    would_block: bool,
}

impl<R: Read> Read for WouldBlockProbe<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let got = self.inner.read(buf);
        self.would_block = matches!(&got, Err(e) if e.kind() == ErrorKind::WouldBlock);
        got
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    use super::*;
    use ic_common::msg::BackupInvoke;
    use ic_common::{ObjectKey, Payload, RelayId};

    #[test]
    fn every_frame_kind_roundtrips() {
        let frames = [
            Frame::HelloClient,
            Frame::Welcome {
                client: ClientId(3),
                proxy: ProxyId(0),
                pool: (0..10).map(LambdaId).collect(),
            },
            Frame::HelloNode {
                lambda: LambdaId(7),
            },
            Frame::Invoke {
                payload: InvokePayload::ping(ProxyId(0)),
            },
            Frame::Invoke {
                payload: InvokePayload {
                    proxy: ProxyId(1),
                    piggyback_ping: false,
                    backup: Some(BackupInvoke {
                        relay: RelayId(4),
                        source: LambdaId(2),
                    }),
                },
            },
            Frame::ToInstance {
                instance: InstanceId(9),
                msg: Msg::ChunkDelete { ids: Vec::new() },
            },
            Frame::FromInstance {
                instance: InstanceId(9),
                msg: Msg::Pong {
                    instance: InstanceId(9),
                    stored_bytes: 100,
                },
            },
            Frame::Unreachable {
                msg: Msg::ChunkGet {
                    id: ic_common::ChunkId::new(ObjectKey::new("k"), 0),
                },
            },
            Frame::App {
                msg: Msg::GetObject {
                    key: ObjectKey::new("obj"),
                    data_chunks: 4,
                },
            },
            Frame::Shutdown,
            Frame::Reclaimed,
        ];
        // A `VecDeque` reads back what was written to it, then ends.
        let mut echo = FrameStream::new(VecDeque::new());
        for f in &frames {
            echo.send(f).unwrap();
        }
        for f in &frames {
            assert_eq!(&echo.recv().unwrap(), f);
        }
        assert!(matches!(echo.recv(), Err(FrameError::Closed)));
    }

    #[test]
    fn app_frames_carry_bulk_payloads() {
        let f = Frame::App {
            msg: Msg::ChunkToClient {
                id: ic_common::ChunkId::new(ObjectKey::new("big"), 1),
                payload: Payload::bytes(vec![0xABu8; 1 << 16]),
            },
        };
        let mut echo = FrameStream::new(VecDeque::new());
        echo.send(&f).unwrap();
        assert_eq!(echo.recv().unwrap(), f);
    }

    #[test]
    fn unknown_frame_tag_is_malformed() {
        assert!(matches!(
            Frame::decode_shared(&Bytes::from_static(&[99])),
            Err(FrameError::Malformed(_))
        ));
    }

    /// A read timeout on a silent peer is an error, reported once the
    /// timeout has run out — not at once (the reader's `WouldBlock` after
    /// a short read is not the socket's), and not never (no spinning).
    #[test]
    fn a_read_timeout_is_an_error_not_a_spin() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer =
            FrameStream::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let (conn, _) = listener.accept().unwrap();
        let timeout = Duration::from_millis(50);
        conn.set_read_timeout(Some(timeout)).unwrap();
        let mut conn = FrameStream::new(conn);
        // One frame first: its short read leaves the reader expecting
        // `WouldBlock`, which must not pass for the timeout.
        peer.send(&Frame::Shutdown).unwrap();
        assert_eq!(conn.recv().unwrap(), Frame::Shutdown);
        let start = Instant::now();
        match conn.recv() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected a timeout, got {other:?}"),
        }
        let waited = start.elapsed();
        assert!(waited >= timeout * 9 / 10, "gave up after {waited:?}");
        assert!(waited < timeout * 2, "took {waited:?}");
        // The connection survives the timeout.
        peer.send(&Frame::Reclaimed).unwrap();
        assert_eq!(conn.recv().unwrap(), Frame::Reclaimed);
    }
}
