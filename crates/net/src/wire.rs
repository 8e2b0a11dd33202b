//! The socket-level frame vocabulary of the net substrate.
//!
//! [`Msg`] is the *protocol*; [`Frame`] is the *transport envelope* the
//! processes actually exchange: connection handshakes, function
//! invocations (in a real deployment the provider's control plane; here
//! a frame to the node daemon emulating the platform), instance-addressed
//! delivery, and the connection-reset back-channel. Frames are encoded
//! with the shared [`ic_common::frame`] codec — same version byte, same
//! length prefix, same max-frame guard.
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

use std::io::{Read, Write};

use bytes::Bytes;
use ic_common::frame::{
    read_frame, write_frame_parts, Dec, Enc, FrameError, FrameParts, FrameReader, FrameResult,
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
    /// Encodes the frame body as one contiguous buffer (copies chunk
    /// payloads; tests and diagnostics only — the wire path uses
    /// [`Frame::encode_parts`]).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_parts().to_vec()
    }

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

    /// Decodes one frame body (payloads are copied out of `body`).
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on unknown tags, parse failures, or
    /// trailing bytes.
    pub fn decode(body: &[u8]) -> FrameResult<Frame> {
        Frame::decode_with(Dec::new(body))
    }

    /// Decodes one shared frame body: chunk payloads inside `msg` fields
    /// are zero-copy slices of `frame`'s allocation.
    ///
    /// # Errors
    ///
    /// See [`Frame::decode`].
    pub fn decode_shared(frame: &Bytes) -> FrameResult<Frame> {
        Frame::decode_with(Dec::new_shared(frame))
    }

    fn decode_with(mut d: Dec<'_>) -> FrameResult<Frame> {
        let frame = match d.u8()? {
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
        Ok(frame)
    }

    /// Writes the frame (version byte + length prefix + body) to `w` in
    /// one vectored write; chunk payloads go out uncopied.
    ///
    /// # Errors
    ///
    /// See [`ic_common::frame::write_frame_parts`].
    pub fn write_to<W: Write>(&self, w: &mut W) -> FrameResult<()> {
        write_frame_parts(w, &self.encode_parts())
    }

    /// Reads one frame from `r`; chunk payloads alias the frame buffer.
    ///
    /// # Errors
    ///
    /// See [`ic_common::frame::read_frame`] and [`Frame::decode`].
    pub fn read_from<R: Read>(r: &mut R) -> FrameResult<Frame> {
        Frame::decode_shared(&read_frame(r)?)
    }

    /// Reads one frame through a per-connection [`FrameReader`] (reused
    /// header buffer; the hot-loop form of [`Frame::read_from`]).
    ///
    /// # Errors
    ///
    /// See [`Frame::read_from`].
    pub fn read(reader: &mut FrameReader<impl Read>) -> FrameResult<Frame> {
        Frame::decode_shared(&reader.read_frame()?)
    }
}

#[cfg(test)]
mod tests {
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
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        assert!(matches!(Frame::read_from(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn app_frames_carry_bulk_payloads() {
        let f = Frame::App {
            msg: Msg::ChunkToClient {
                id: ic_common::ChunkId::new(ObjectKey::new("big"), 1),
                payload: Payload::bytes(vec![0xABu8; 1 << 16]),
            },
        };
        let mut wire = Vec::new();
        f.write_to(&mut wire).unwrap();
        assert_eq!(Frame::read_from(&mut &wire[..]).unwrap(), f);
    }

    #[test]
    fn unknown_frame_tag_is_malformed() {
        assert!(matches!(
            Frame::decode(&[99]),
            Err(FrameError::Malformed(_))
        ));
    }
}
