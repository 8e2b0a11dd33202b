//! Length-prefixed binary framing for the wire protocol.
//!
//! The net substrate (`crates/net`) moves [`Msg`] values between real OS
//! processes over TCP, so the protocol needs an actual byte encoding. A
//! frame on the wire is:
//!
//! ```text
//! [ version: u8 ] [ body_len: u32 LE ] [ body: body_len bytes ]
//! ```
//!
//! The version byte guards against skew between binaries built from
//! different revisions, and [`MAX_FRAME_LEN`] bounds the allocation a
//! malformed or hostile length prefix could cause. Bodies are encoded
//! with the [`Enc`]/[`Dec`] pair: fixed-width little-endian integers,
//! length-prefixed strings, and tag bytes for enums. Every [`Msg`]
//! variant round-trips exactly (`tests/proptest_frame.rs` checks random
//! messages); synthetic payloads cross the wire as their length only, so
//! trace-scale object sizes (terabytes) never materialize.
//!
//! ## One frame path, zero-copy
//!
//! There is one encoder, one decoder, one reader and one writer, and
//! chunk payloads — the bulk of every frame — are never memcpy'd by any
//! of them:
//!
//! * **Encode** — [`Enc`] builds a scatter/gather [`FrameParts`]: small
//!   owned buffers for headers and metadata, interleaved with borrowed
//!   [`Bytes`] payload segments (an O(1) refcount bump each). (Payloads
//!   under [`INLINE_PAYLOAD_MAX`] are inlined: for a few dozen bytes the
//!   memcpy is cheaper than an extra scatter segment.)
//! * **Write** — [`FrameWriteQueue`] prebuilds each frame's envelope and
//!   pushes envelopes, metadata and payload segments through batched
//!   vectored writes, so a 256 KiB chunk reaches the socket without ever
//!   being copied into a contiguous body buffer. It resumes partial
//!   writes byte-exactly and reports `WouldBlock` instead of blocking.
//! * **Read** — [`NbFrameReader`] returns each frame body as a shared
//!   [`Bytes`] allocation and keeps its progress across `WouldBlock`.
//! * **Decode** — [`Dec`] (via [`decode_msg_shared`]) decodes
//!   `Payload::Bytes` as zero-copy *slices* of that allocation. The one
//!   unavoidable copy per direction is the socket read itself.
//!
//! Nothing here performs socket I/O beyond `Read`/`Write`; the framing is
//! equally usable over in-memory buffers (which is how the round-trip
//! tests exercise it). A blocking caller — a handshake, a test peer —
//! drives the same reader and writer; `ic_net::wire` has the helper.

#[doc = include_str!("../../../docs/WIRE.md")]
pub mod wire_spec {}

use std::io::{ErrorKind, IoSlice, Read, Write};

use bytes::Bytes;

use crate::error::Error;
use crate::ids::{ChunkId, InstanceId, LambdaId, ObjectKey, RelayId};
use crate::msg::{BackupInvoke, BackupKey, InvokePayload, Msg};
use crate::payload::Payload;

/// Current wire-format version; bump on any incompatible encoding change.
/// (v2: `GetAccepted` carries the stored object's proxy-assigned
/// version, guarding read-repair against overwrites. v3: message tag 7,
/// the preflight `Ping`, is retired — a v2 peer would still send it.
/// v4: `GetObject` carries the reader's `data_chunks` and `GetAccepted`
/// how many leading chunks were `requested`, for data-first reads.)
pub const FRAME_VERSION: u8 = 4;

/// Upper bound on one frame's body. A frame carries at most one chunk
/// payload; 64 MiB comfortably covers the largest chunk of the paper's
/// workloads while keeping a hostile length prefix from allocating
/// unbounded memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Payloads shorter than this are copied into the metadata buffer during
/// encode instead of becoming a scatter/gather segment: below a cache
/// line or two, the memcpy is cheaper than carrying an extra refcount +
/// iovec through the writer. The zero-copy invariant targets chunk-scale
/// payloads, which are always far above this.
pub const INLINE_PAYLOAD_MAX: usize = 512;

/// Wire envelope ahead of every body: version byte + `u32` length.
const HEADER_LEN: usize = 5;

/// Upper bound on decoded sequence lengths (chunk lists, backup key
/// lists); independent of the byte budget so a tiny frame cannot claim a
/// multi-gigabyte element count.
const MAX_SEQ_ITEMS: u32 = 1 << 20;

/// Everything that can go wrong framing or parsing wire bytes.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The peer speaks a different wire-format version.
    Version(u8),
    /// A length prefix exceeded [`MAX_FRAME_LEN`] (or a sequence count
    /// exceeded its cap).
    TooLarge(u64),
    /// The body bytes do not parse as the expected structure.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Version(v) => {
                write!(f, "unsupported wire version {v} (expected {FRAME_VERSION})")
            }
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the frame cap"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for Error {
    fn from(e: FrameError) -> Self {
        Error::Transport(e.to_string())
    }
}

/// Specialized result for framing operations.
pub type FrameResult<T> = std::result::Result<T, FrameError>;

// ----------------------------------------------------------------------
// Body encoding
// ----------------------------------------------------------------------

/// One scatter/gather segment of an encoded body.
#[derive(Clone, Debug)]
enum Seg {
    /// Headers, metadata, and inlined small payloads.
    Owned(Vec<u8>),
    /// A borrowed chunk payload — shares the caller's allocation.
    Shared(Bytes),
}

impl Seg {
    fn as_slice(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
        }
    }
}

/// Append-only scatter/gather encoder for frame bodies.
///
/// Fixed-width fields accumulate in owned buffers; payload bytes are
/// recorded as borrowed [`Bytes`] segments (see the module docs);
/// [`Enc::into_parts`] hands the body over for writing.
#[derive(Default)]
pub struct Enc {
    segs: Vec<Seg>,
    len: usize,
}

impl Enc {
    /// A fresh, empty body.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Total encoded length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded body as scatter/gather parts, ready for
    /// [`FrameWriteQueue::push`].
    pub fn into_parts(self) -> FrameParts {
        FrameParts {
            segs: self.segs,
            len: self.len,
        }
    }

    /// The owned buffer new fixed-width fields append to.
    fn tail(&mut self) -> &mut Vec<u8> {
        if !matches!(self.segs.last(), Some(Seg::Owned(_))) {
            self.segs.push(Seg::Owned(Vec::new()));
        }
        match self.segs.last_mut() {
            Some(Seg::Owned(v)) => v,
            _ => unreachable!("just ensured an owned tail"),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.tail().extend_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }

    /// Appends an object key.
    pub fn key(&mut self, k: &ObjectKey) {
        self.str(k.as_str());
    }

    /// Appends a chunk id (key + sequence number).
    pub fn chunk(&mut self, c: &ChunkId) {
        self.key(&c.key);
        self.u32(c.seq);
    }

    /// Appends a payload: real bytes length-prefixed, synthetic as its
    /// represented length only. Chunk-scale byte payloads are *borrowed*
    /// (an O(1) [`Bytes`] clone), never copied.
    pub fn payload(&mut self, p: &Payload) {
        match p {
            Payload::Bytes(b) => {
                self.u8(0);
                self.u32(b.len() as u32);
                if b.len() < INLINE_PAYLOAD_MAX {
                    self.put(b);
                } else {
                    self.len += b.len();
                    self.segs.push(Seg::Shared(b.clone()));
                }
            }
            Payload::Synthetic { len } => {
                self.u8(1);
                self.u64(*len);
            }
        }
    }

    /// Appends a function-invocation parameter block.
    pub fn invoke(&mut self, p: &InvokePayload) {
        self.u16(p.proxy.0);
        self.bool(p.piggyback_ping);
        match &p.backup {
            None => self.u8(0),
            Some(b) => {
                self.u8(1);
                self.u64(b.relay.0);
                self.u32(b.source.0);
            }
        }
    }

    /// Appends a protocol message (tag byte + fields in declaration
    /// order).
    pub fn msg(&mut self, m: &Msg) {
        match m {
            Msg::GetObject { key, data_chunks } => {
                self.u8(0);
                self.key(key);
                self.u32(*data_chunks);
            }
            Msg::GetAccepted {
                key,
                object_size,
                version,
                requested,
                chunks,
            } => {
                self.u8(1);
                self.key(key);
                self.u64(*object_size);
                self.u64(*version);
                self.u32(*requested);
                self.u32(chunks.len() as u32);
                for c in chunks {
                    self.chunk(c);
                }
            }
            Msg::GetMiss { key } => {
                self.u8(2);
                self.key(key);
            }
            Msg::PutChunk {
                id,
                lambda,
                payload,
                object_size,
                total_chunks,
                repair,
                put_epoch,
            } => {
                self.u8(3);
                self.chunk(id);
                self.u32(lambda.0);
                self.payload(payload);
                self.u64(*object_size);
                self.u32(*total_chunks);
                self.bool(*repair);
                self.u64(*put_epoch);
            }
            Msg::PutDone { key, put_epoch } => {
                self.u8(4);
                self.key(key);
                self.u64(*put_epoch);
            }
            Msg::PutFailed { key, put_epoch } => {
                self.u8(5);
                self.key(key);
                self.u64(*put_epoch);
            }
            Msg::ChunkToClient { id, payload } => {
                self.u8(6);
                self.chunk(id);
                self.payload(payload);
            }
            Msg::Pong {
                instance,
                stored_bytes,
            } => {
                self.u8(8);
                self.u64(instance.0);
                self.u64(*stored_bytes);
            }
            Msg::Bye { instance } => {
                self.u8(9);
                self.u64(instance.0);
            }
            Msg::ChunkGet { id } => {
                self.u8(10);
                self.chunk(id);
            }
            Msg::ChunkPut { id, payload, epoch } => {
                self.u8(11);
                self.chunk(id);
                self.payload(payload);
                self.u64(*epoch);
            }
            Msg::ChunkDelete { ids } => {
                self.u8(12);
                self.u32(ids.len() as u32);
                for id in ids {
                    self.chunk(id);
                }
            }
            Msg::ChunkData { id, payload } => {
                self.u8(13);
                self.chunk(id);
                self.payload(payload);
            }
            Msg::ChunkMiss { id } => {
                self.u8(14);
                self.chunk(id);
            }
            Msg::PutAck {
                id,
                stored_bytes,
                epoch,
            } => {
                self.u8(15);
                self.chunk(id);
                self.u64(*stored_bytes);
                self.u64(*epoch);
            }
            Msg::InitBackup => self.u8(16),
            Msg::BackupCmd { relay } => {
                self.u8(17);
                self.u64(relay.0);
            }
            Msg::HelloSource { have_version } => {
                self.u8(18);
                self.u64(*have_version);
            }
            Msg::HelloProxy { instance, source } => {
                self.u8(19);
                self.u64(instance.0);
                self.u32(source.0);
            }
            Msg::BackupKeys { keys } => {
                self.u8(20);
                self.u32(keys.len() as u32);
                for k in keys {
                    self.chunk(&k.id);
                    self.u64(k.version);
                    self.u64(k.len);
                }
            }
            Msg::BackupFetch { id } => {
                self.u8(21);
                self.chunk(id);
            }
            Msg::BackupMiss { id } => {
                self.u8(22);
                self.chunk(id);
            }
            Msg::BackupChunk {
                id,
                payload,
                version,
            } => {
                self.u8(23);
                self.chunk(id);
                self.payload(payload);
                self.u64(*version);
            }
            Msg::BackupDone { delta_bytes } => {
                self.u8(24);
                self.u64(*delta_bytes);
            }
        }
    }
}

/// A fully encoded frame body as scatter/gather segments: owned
/// header/metadata buffers interleaved with borrowed payload [`Bytes`].
///
/// Produced by [`Enc::into_parts`], consumed by [`FrameWriteQueue`] via
/// vectored writes — the payload bytes travel from the producer's
/// allocation straight into the socket.
#[derive(Clone, Debug, Default)]
pub struct FrameParts {
    segs: Vec<Seg>,
    len: usize,
}

impl FrameParts {
    /// Total body length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for an empty body.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The body segments in wire order.
    pub fn as_slices(&self) -> impl Iterator<Item = &[u8]> {
        self.segs.iter().map(Seg::as_slice)
    }

    /// The borrowed (zero-copy) payload segments, in wire order — used
    /// by benches and tests asserting the no-memcpy invariant.
    pub fn shared_segments(&self) -> impl Iterator<Item = &Bytes> {
        self.segs.iter().filter_map(|s| match s {
            Seg::Shared(b) => Some(b),
            Seg::Owned(_) => None,
        })
    }

    /// Concatenates the body into one contiguous buffer (tests and
    /// in-memory stand-ins for a socket; copies payload segments).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for s in self.as_slices() {
            out.extend_from_slice(s);
        }
        out
    }
}

// ----------------------------------------------------------------------
// Body decoding
// ----------------------------------------------------------------------

/// Cursor over a shared frame body: it holds the frame's [`Bytes`]
/// allocation, and [`Dec::payload`] yields zero-copy slices of it.
pub struct Dec<'a> {
    buf: &'a [u8],
    /// Backing allocation for zero-copy payload slices.
    frame: &'a Bytes,
    /// Offset of `buf[0]` within `frame`.
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts decoding a shared frame body; payloads alias `frame`.
    pub fn new_shared(frame: &'a Bytes) -> Self {
        Dec {
            buf: frame,
            frame,
            pos: 0,
        }
    }

    /// Errors unless every body byte was consumed (catches skewed field
    /// layouts that happen to parse).
    pub fn finish(&self) -> FrameResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after message"))
        }
    }

    fn take(&mut self, n: usize) -> FrameResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed("field extends past frame end"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        self.pos += n;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> FrameResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> FrameResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> FrameResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> FrameResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> FrameResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> FrameResult<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| FrameError::Malformed("invalid UTF-8 string"))
    }

    /// Reads an object key.
    pub fn key(&mut self) -> FrameResult<ObjectKey> {
        Ok(ObjectKey::new(self.str()?))
    }

    /// Reads a chunk id.
    pub fn chunk(&mut self) -> FrameResult<ChunkId> {
        let key = self.key()?;
        let seq = self.u32()?;
        Ok(ChunkId::new(key, seq))
    }

    /// Reads a sequence length, bounded by [`MAX_SEQ_ITEMS`].
    fn seq_len(&mut self) -> FrameResult<usize> {
        let n = self.u32()?;
        if n > MAX_SEQ_ITEMS {
            return Err(FrameError::TooLarge(n as u64));
        }
        Ok(n as usize)
    }

    /// Reads a payload; byte payloads are zero-copy slices of the frame
    /// allocation.
    pub fn payload(&mut self) -> FrameResult<Payload> {
        match self.u8()? {
            0 => {
                let len = self.u32()? as usize;
                let start = self.pos;
                self.take(len)?;
                Ok(Payload::Bytes(self.frame.slice(start..start + len)))
            }
            1 => Ok(Payload::synthetic(self.u64()?)),
            _ => Err(FrameError::Malformed("unknown payload kind")),
        }
    }

    /// Reads a function-invocation parameter block.
    pub fn invoke(&mut self) -> FrameResult<InvokePayload> {
        let proxy = crate::ids::ProxyId(self.u16()?);
        let piggyback_ping = self.bool()?;
        let backup = match self.u8()? {
            0 => None,
            1 => Some(BackupInvoke {
                relay: RelayId(self.u64()?),
                source: LambdaId(self.u32()?),
            }),
            _ => return Err(FrameError::Malformed("unknown backup-invoke tag")),
        };
        Ok(InvokePayload {
            proxy,
            piggyback_ping,
            backup,
        })
    }

    /// Reads a protocol message.
    pub fn msg(&mut self) -> FrameResult<Msg> {
        let tag = self.u8()?;
        Ok(match tag {
            0 => Msg::GetObject {
                key: self.key()?,
                data_chunks: self.u32()?,
            },
            1 => {
                let key = self.key()?;
                let object_size = self.u64()?;
                let version = self.u64()?;
                let requested = self.u32()?;
                let n = self.seq_len()?;
                let mut chunks = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    chunks.push(self.chunk()?);
                }
                Msg::GetAccepted {
                    key,
                    object_size,
                    version,
                    requested,
                    chunks,
                }
            }
            2 => Msg::GetMiss { key: self.key()? },
            3 => Msg::PutChunk {
                id: self.chunk()?,
                lambda: LambdaId(self.u32()?),
                payload: self.payload()?,
                object_size: self.u64()?,
                total_chunks: self.u32()?,
                repair: self.bool()?,
                put_epoch: self.u64()?,
            },
            4 => Msg::PutDone {
                key: self.key()?,
                put_epoch: self.u64()?,
            },
            5 => Msg::PutFailed {
                key: self.key()?,
                put_epoch: self.u64()?,
            },
            6 => Msg::ChunkToClient {
                id: self.chunk()?,
                payload: self.payload()?,
            },
            8 => Msg::Pong {
                instance: InstanceId(self.u64()?),
                stored_bytes: self.u64()?,
            },
            9 => Msg::Bye {
                instance: InstanceId(self.u64()?),
            },
            10 => Msg::ChunkGet { id: self.chunk()? },
            11 => Msg::ChunkPut {
                id: self.chunk()?,
                payload: self.payload()?,
                epoch: self.u64()?,
            },
            12 => {
                let n = self.seq_len()?;
                let mut ids = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ids.push(self.chunk()?);
                }
                Msg::ChunkDelete { ids }
            }
            13 => Msg::ChunkData {
                id: self.chunk()?,
                payload: self.payload()?,
            },
            14 => Msg::ChunkMiss { id: self.chunk()? },
            15 => Msg::PutAck {
                id: self.chunk()?,
                stored_bytes: self.u64()?,
                epoch: self.u64()?,
            },
            16 => Msg::InitBackup,
            17 => Msg::BackupCmd {
                relay: RelayId(self.u64()?),
            },
            18 => Msg::HelloSource {
                have_version: self.u64()?,
            },
            19 => Msg::HelloProxy {
                instance: InstanceId(self.u64()?),
                source: LambdaId(self.u32()?),
            },
            20 => {
                let n = self.seq_len()?;
                let mut keys = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    keys.push(BackupKey {
                        id: self.chunk()?,
                        version: self.u64()?,
                        len: self.u64()?,
                    });
                }
                Msg::BackupKeys { keys }
            }
            21 => Msg::BackupFetch { id: self.chunk()? },
            22 => Msg::BackupMiss { id: self.chunk()? },
            23 => Msg::BackupChunk {
                id: self.chunk()?,
                payload: self.payload()?,
                version: self.u64()?,
            },
            24 => Msg::BackupDone {
                delta_bytes: self.u64()?,
            },
            _ => return Err(FrameError::Malformed("unknown message tag")),
        })
    }
}

// ----------------------------------------------------------------------
// Framed I/O
// ----------------------------------------------------------------------

/// Builds the 5-byte envelope for a body of `len` bytes.
fn header_for(len: usize) -> FrameResult<[u8; HEADER_LEN]> {
    let len = u32::try_from(len).map_err(|_| FrameError::TooLarge(len as u64))?;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len as u64));
    }
    let mut h = [0u8; HEADER_LEN];
    h[0] = FRAME_VERSION;
    h[1..].copy_from_slice(&len.to_le_bytes());
    Ok(h)
}

/// Outcome of one [`NbFrameReader::read`] attempt against a nonblocking
/// stream.
#[derive(Debug)]
pub enum NbRead {
    /// A complete frame body, in its own shared allocation.
    Frame(Bytes),
    /// The stream has no more bytes right now; the decoder holds its
    /// partial state — call again on the next readable event.
    WouldBlock,
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
}

/// Size of [`NbFrameReader`]'s staging buffer: one `read` drains every
/// small frame a peer has queued (a GET's whole fan-in of control frames
/// is a few hundred bytes), while chunk-scale bodies bypass the stage.
/// A writer that batches small frames for such a reader has nothing to
/// gain past this size: the reader takes it in one `read` either way.
pub const STAGE_LEN: usize = 16 * 1024;

/// Incremental (resumable) frame decoder — the one frame reader.
///
/// An event loop cannot block until a frame completes, so this decoder
/// *persists* its progress across `WouldBlock` and resumes on the next
/// readiness event (a blocking caller simply calls again). Bytes are
/// pulled through a fixed staging buffer, so
/// a burst of small frames costs one `read`, not two or three each: a
/// frame that is complete in the stage is copied out into its own
/// right-sized allocation; a frame whose body is not (a body larger than
/// the stage, or one straddling its end) gets its allocation up front,
/// takes the staged prefix, and has the remainder read straight into it —
/// so chunk-scale payloads are still written once, by the kernel, into
/// the buffer the decoded [`Payload`] aliases. The framing rules: clean
/// EOF only at a frame boundary ([`NbRead::Closed`]), EOF inside a frame
/// is [`FrameError::Malformed`], version skew is diagnosed before
/// truncation, and the [`MAX_FRAME_LEN`] guard applies to the length
/// prefix before anything is allocated.
pub struct NbFrameReader {
    /// `stage[start..end]` holds bytes read but not yet returned.
    stage: Box<[u8]>,
    start: usize,
    end: usize,
    /// A frame whose body outgrew the stage, partially filled.
    body: Option<NbBody>,
    /// The previous `read` came back short: the stream is drained, so
    /// the next need for bytes reports `WouldBlock` without a syscall.
    drained: bool,
}

struct NbBody {
    buf: Vec<u8>,
    got: usize,
}

impl Default for NbFrameReader {
    fn default() -> Self {
        NbFrameReader::new()
    }
}

impl NbFrameReader {
    /// A decoder positioned at a frame boundary.
    pub fn new() -> NbFrameReader {
        NbFrameReader {
            stage: vec![0u8; STAGE_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            body: None,
            drained: false,
        }
    }

    /// `true` while bytes have been received that no returned frame
    /// accounts for. Once [`NbFrameReader::read`] has reported
    /// `WouldBlock` that is a partial frame — EOF now would be
    /// truncation, not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.start != self.end || self.body.is_some()
    }

    /// `true` while a whole envelope is staged: the next
    /// [`NbFrameReader::read`] makes progress before touching the
    /// stream. A loop that stops reading early (a fairness bound) must
    /// keep going while this holds — staged frames raise no further
    /// readiness event.
    pub fn has_staged(&self) -> bool {
        self.end - self.start >= HEADER_LEN
    }

    /// Pulls bytes from `r` until one frame completes, the stream would
    /// block, or it ends. At most one frame is returned per call; on
    /// [`NbRead::Frame`] call again (more frames may already be staged)
    /// until `WouldBlock`.
    ///
    /// A `read` that returns fewer bytes than asked is taken to have
    /// drained the stream, and the next need for bytes reports
    /// `WouldBlock` without the confirming `EAGAIN` syscall. This relies
    /// on **level-triggered** registration (`Mode::Level`, which every
    /// loop in `ic-net` uses): bytes that arrived meanwhile re-raise
    /// readiness. It also means EOF is reported one call later than it
    /// could be — by the call after that `WouldBlock`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Version`] on wire-version skew,
    /// [`FrameError::TooLarge`] when the length prefix exceeds
    /// [`MAX_FRAME_LEN`], [`FrameError::Malformed`] on EOF inside a frame,
    /// and [`FrameError::Io`] on any stream failure other than
    /// `WouldBlock`/`Interrupted`. After an error the decoder state is
    /// unspecified; callers must discard the connection.
    pub fn read<R: Read>(&mut self, r: &mut R) -> FrameResult<NbRead> {
        loop {
            if let Some(body) = self.body.as_mut() {
                if body.got == body.buf.len() {
                    let body = self.body.take().expect("complete body");
                    return Ok(NbRead::Frame(Bytes::from(body.buf)));
                }
                if std::mem::take(&mut self.drained) {
                    return Ok(NbRead::WouldBlock);
                }
                let want = body.buf.len() - body.got;
                match r.read(&mut body.buf[body.got..]) {
                    Ok(0) => return Err(FrameError::Malformed("truncated frame body")),
                    Ok(n) => {
                        body.got += n;
                        self.drained = n < want;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(NbRead::WouldBlock),
                    Err(e) => return Err(FrameError::Io(e)),
                }
                continue;
            }

            let staged = &self.stage[self.start..self.end];
            if staged.first().is_some_and(|v| *v != FRAME_VERSION) {
                return Err(FrameError::Version(staged[0]));
            }
            if staged.len() >= HEADER_LEN {
                let len = u32::from_le_bytes(staged[1..HEADER_LEN].try_into().expect("4 bytes"));
                if len > MAX_FRAME_LEN {
                    return Err(FrameError::TooLarge(len as u64));
                }
                let len = len as usize;
                let body = &staged[HEADER_LEN..];
                if body.len() >= len {
                    let frame = Bytes::copy_from_slice(&body[..len]);
                    self.start += HEADER_LEN + len;
                    return Ok(NbRead::Frame(frame));
                }
                // The stage holds only a prefix of the body: the rest
                // goes straight into the frame's own allocation.
                let mut buf = vec![0u8; len];
                buf[..body.len()].copy_from_slice(body);
                self.body = Some(NbBody {
                    buf,
                    got: body.len(),
                });
                self.start = self.end;
                continue;
            }

            // Fewer than an envelope's bytes staged: refill.
            if std::mem::take(&mut self.drained) {
                return Ok(NbRead::WouldBlock);
            }
            self.stage.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let want = self.stage.len() - self.end;
            match r.read(&mut self.stage[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(NbRead::Closed),
                Ok(0) => return Err(FrameError::Malformed("truncated length prefix")),
                Ok(n) => {
                    self.end += n;
                    self.drained = n < want;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(NbRead::WouldBlock),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }
}

/// Per-call result of [`FrameWriteQueue::write_to`]: did the queue fully
/// drain, and how well did frames coalesce into vectored writes.
#[derive(Debug, Clone, Copy)]
pub struct Flush {
    /// `true` when every queued byte reached the sink; `false` means the
    /// sink would block — re-arm writable interest and resume later.
    pub drained: bool,
    /// Vectored writes issued (syscalls, for a socket sink).
    pub vectored_writes: u64,
    /// Frames fully written. `frames / vectored_writes` is the batch
    /// coalescing factor the readiness loop achieves.
    pub frames: u64,
}

/// How many slices (envelopes and body segments) one vectored write may
/// carry: a frame is 2–4 of them, so a burst of a few dozen frames still
/// leaves in one syscall. Far below Linux's `UIO_MAXIOV` of 1024, and
/// small enough that the slice array lives on the stack — no allocation
/// per write.
const WRITE_BATCH_SLICES: usize = 128;

/// Per-connection outbound frame queue — the one frame writer,
/// `WouldBlock`-safe for nonblocking sinks.
///
/// Frames are queued as scatter/gather [`FrameParts`] (payloads stay
/// uncopied) with their envelopes prebuilt; [`FrameWriteQueue::write_to`]
/// drains as much as the sink accepts in batched vectored writes,
/// recording a byte-precise resume offset on partial progress. The
/// queue's byte size ([`FrameWriteQueue::queued_bytes`]) is the
/// per-connection buffering a backpressure policy bounds.
#[derive(Default)]
pub struct FrameWriteQueue {
    frames: std::collections::VecDeque<([u8; HEADER_LEN], FrameParts)>,
    /// Bytes of the front frame (envelope + body) already written.
    front_written: usize,
    queued_bytes: usize,
}

impl FrameWriteQueue {
    /// An empty queue.
    pub fn new() -> FrameWriteQueue {
        FrameWriteQueue::default()
    }

    /// Queues one encoded frame body for writing.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the body exceeds [`MAX_FRAME_LEN`];
    /// the queue is unchanged.
    pub fn push(&mut self, parts: FrameParts) -> FrameResult<()> {
        let header = header_for(parts.len())?;
        self.queued_bytes += HEADER_LEN + parts.len();
        self.frames.push_back((header, parts));
        Ok(())
    }

    /// Frames waiting (the front one possibly partially written).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes across all queued frames, envelopes included.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes - self.front_written
    }

    /// Writes queued frames to `w` until the queue drains or the sink
    /// would block. Safe to call with an empty queue (reports a drained
    /// no-op). Partial progress — even mid-envelope — is recorded and
    /// resumed by the next call.
    ///
    /// # Errors
    ///
    /// Sink failures other than `WouldBlock`/`Interrupted`; a write that
    /// accepts zero bytes reports [`ErrorKind::WriteZero`]. After an
    /// error the connection must be discarded.
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> std::io::Result<Flush> {
        let mut flush = Flush {
            drained: true,
            vectored_writes: 0,
            frames: 0,
        };
        while !self.frames.is_empty() {
            let wrote = {
                // The unwritten bytes as one flat slice sequence; `skip`
                // steps over what earlier calls already wrote (it can
                // end mid-envelope or mid-segment).
                let mut slices = [IoSlice::new(&[]); WRITE_BATCH_SLICES];
                let mut filled = 0;
                let mut skip = self.front_written;
                'fill: for (header, parts) in &self.frames {
                    for s in std::iter::once(&header[..]).chain(parts.as_slices()) {
                        if skip >= s.len() {
                            skip -= s.len();
                            continue;
                        }
                        if filled == slices.len() {
                            break 'fill;
                        }
                        slices[filled] = IoSlice::new(&s[skip..]);
                        filled += 1;
                        skip = 0;
                    }
                }
                match w.write_vectored(&slices[..filled]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::WriteZero,
                            "sink accepted zero bytes",
                        ))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        flush.drained = false;
                        return Ok(flush);
                    }
                    Err(e) => return Err(e),
                }
            };
            flush.vectored_writes += 1;
            self.front_written += wrote;
            while let Some((_, parts)) = self.frames.front() {
                let frame_total = HEADER_LEN + parts.len();
                if self.front_written < frame_total {
                    break;
                }
                self.front_written -= frame_total;
                self.queued_bytes -= frame_total;
                self.frames.pop_front();
                flush.frames += 1;
            }
        }
        Ok(flush)
    }
}

/// Encodes `msg` as scatter/gather parts — payload bytes are borrowed,
/// not copied.
pub fn encode_msg_parts(msg: &Msg) -> FrameParts {
    let mut e = Enc::new();
    e.msg(msg);
    e.into_parts()
}

/// Decodes a shared frame body as exactly one message; byte payloads
/// alias the frame allocation.
///
/// # Errors
///
/// [`FrameError::Malformed`] on parse failure or trailing bytes.
pub fn decode_msg_shared(frame: &Bytes) -> FrameResult<Msg> {
    let mut d = Dec::new_shared(frame);
    let msg = d.msg()?;
    d.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProxyId;

    /// The wire bytes of `msgs`, framed through the one writer.
    fn wire_of(msgs: &[Msg]) -> Vec<u8> {
        let mut queue = FrameWriteQueue::new();
        for m in msgs {
            queue.push(encode_msg_parts(m)).unwrap();
        }
        let mut wire = Vec::new();
        assert!(queue.write_to(&mut wire).unwrap().drained);
        wire
    }

    /// Every frame body in `wire`, read through the one reader; the
    /// stream must end cleanly at a frame boundary.
    fn read_all(wire: &[u8]) -> Vec<Bytes> {
        let mut reader = NbFrameReader::new();
        let mut src = wire;
        let mut frames = Vec::new();
        loop {
            match reader.read(&mut src).unwrap() {
                NbRead::Frame(body) => frames.push(body),
                NbRead::WouldBlock => {}
                NbRead::Closed => return frames,
            }
        }
    }

    /// Decodes a body given as plain bytes.
    fn decode(body: &[u8]) -> FrameResult<Msg> {
        decode_msg_shared(&Bytes::copy_from_slice(body))
    }

    fn roundtrip(msg: Msg) {
        let body = encode_msg_parts(&msg).to_vec();
        assert_eq!(decode(&body).expect("decodes"), msg);
    }

    #[test]
    fn representative_messages_roundtrip() {
        roundtrip(Msg::InitBackup);
        roundtrip(Msg::GetObject {
            key: ObjectKey::new("sha256:deadbeef"),
            data_chunks: 10,
        });
        roundtrip(Msg::GetAccepted {
            key: ObjectKey::new("k"),
            object_size: 123_456,
            version: 17,
            requested: 4,
            chunks: (0..6)
                .map(|s| ChunkId::new(ObjectKey::new("k"), s))
                .collect(),
        });
        roundtrip(Msg::PutChunk {
            id: ChunkId::new(ObjectKey::new("obj"), 3),
            lambda: LambdaId(17),
            payload: Payload::bytes(vec![1u8, 2, 3, 255]),
            object_size: 4,
            total_chunks: 6,
            repair: true,
            put_epoch: 9,
        });
        roundtrip(Msg::ChunkPut {
            id: ChunkId::new(ObjectKey::new("s"), 0),
            payload: Payload::synthetic(u64::MAX / 2),
            epoch: 0,
        });
        roundtrip(Msg::BackupKeys {
            keys: vec![BackupKey {
                id: ChunkId::new(ObjectKey::new("b"), 1),
                version: 7,
                len: 42,
            }],
        });
        roundtrip(Msg::HelloProxy {
            instance: InstanceId(99),
            source: LambdaId(4),
        });
    }

    /// The zero-copy invariants of the data plane: encode borrows
    /// chunk-scale payload allocations; decode yields slices of the frame
    /// allocation.
    #[test]
    fn payloads_are_borrowed_on_encode_and_aliased_on_decode() {
        let payload = Bytes::from(vec![0x5Au8; 256 * 1024]);
        let msg = Msg::ChunkData {
            id: ChunkId::new(ObjectKey::new("zc"), 0),
            payload: Payload::Bytes(payload.clone()),
        };

        // Encode: the payload appears as a borrowed segment at the same
        // address — zero payload-byte copies.
        let parts = encode_msg_parts(&msg);
        let shared: Vec<&Bytes> = parts.shared_segments().collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].as_ptr(), payload.as_ptr(), "encode must borrow");

        // Decode: the payload is a sub-slice of the frame buffer.
        let frames = read_all(&wire_of(std::slice::from_ref(&msg)));
        let frame = &frames[0];
        let back = decode_msg_shared(frame).unwrap();
        let Msg::ChunkData {
            payload: Payload::Bytes(got),
            ..
        } = &back
        else {
            panic!("wrong message decoded");
        };
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(
            frame_range.contains(&(got.as_ptr() as usize))
                && got.as_ptr() as usize + got.len() <= frame_range.end,
            "decoded payload must alias the frame allocation"
        );
        assert_eq!(back, msg);
    }

    #[test]
    fn small_payloads_are_inlined_not_segmented() {
        let msg = Msg::ChunkData {
            id: ChunkId::new(ObjectKey::new("s"), 0),
            payload: Payload::bytes(vec![1u8; INLINE_PAYLOAD_MAX - 1]),
        };
        let parts = encode_msg_parts(&msg);
        assert_eq!(parts.shared_segments().count(), 0);
        assert_eq!(decode(&parts.to_vec()).unwrap(), msg);
    }

    #[test]
    fn invoke_payload_roundtrips() {
        for p in [
            InvokePayload::ping(ProxyId(3)),
            InvokePayload {
                proxy: ProxyId(0),
                piggyback_ping: false,
                backup: Some(BackupInvoke {
                    relay: RelayId(8),
                    source: LambdaId(2),
                }),
            },
        ] {
            let mut e = Enc::new();
            e.invoke(&p);
            let body = Bytes::from(e.into_parts().to_vec());
            let mut d = Dec::new_shared(&body);
            assert_eq!(d.invoke().unwrap(), p);
            d.finish().unwrap();
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_msg_parts(&Msg::InitBackup).to_vec();
        body.push(0);
        assert!(matches!(decode(&body), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(decode(&[200]), Err(FrameError::Malformed(_))));
        // Tag 7 was the preflight `Ping`, retired in v3 and never reused.
        assert!(matches!(decode(&[7]), Err(FrameError::Malformed(_))));
        assert!(decode(&[]).is_err());
    }

    /// Tiny deterministic LCG so the chaos tests need no RNG dependency.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// A `Write` sink that accepts a random prefix of each write and
    /// interleaves `WouldBlock`/`Interrupted` — the worst-case
    /// nonblocking socket.
    struct FlakySink {
        accepted: Vec<u8>,
        rng: Lcg,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.rng.next() % 5 {
                0 => Err(std::io::Error::from(ErrorKind::WouldBlock)),
                1 => Err(std::io::Error::from(ErrorKind::Interrupted)),
                _ => {
                    let n = (self.rng.next() as usize % buf.len().max(1))
                        .max(1)
                        .min(buf.len());
                    self.accepted.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_msgs(rng: &mut Lcg, n: usize) -> Vec<Msg> {
        (0..n)
            .map(|i| match rng.next() % 3 {
                0 => Msg::InitBackup,
                1 => Msg::GetObject {
                    key: ObjectKey::new(format!("key-{i}")),
                    data_chunks: 0,
                },
                _ => Msg::ChunkToClient {
                    id: ChunkId::new(ObjectKey::new(format!("obj-{i}")), (i % 7) as u32),
                    payload: Payload::bytes(vec![i as u8; 1 + (rng.next() as usize % 3000)]),
                },
            })
            .collect()
    }

    #[test]
    fn write_queue_resumes_partial_writes_byte_identically() {
        for seed in 0..20u64 {
            let mut rng = Lcg(seed);
            let count = 1 + (rng.next() as usize % 40);
            let msgs = sample_msgs(&mut rng, count);
            let parts: Vec<FrameParts> = msgs.iter().map(encode_msg_parts).collect();

            // Reference byte stream, straight from the envelope rule.
            let mut reference = Vec::new();
            for p in &parts {
                reference.push(FRAME_VERSION);
                reference.extend_from_slice(&(p.len() as u32).to_le_bytes());
                reference.extend_from_slice(&p.to_vec());
            }

            let mut queue = FrameWriteQueue::new();
            let mut expect_bytes = 0usize;
            for p in parts {
                expect_bytes += HEADER_LEN + p.len();
                queue.push(p).unwrap();
            }
            assert_eq!(queue.queued_bytes(), expect_bytes);

            let mut sink = FlakySink {
                accepted: Vec::new(),
                rng: Lcg(seed ^ 0xABCD),
            };
            let mut frames_written = 0u64;
            let mut spins = 0;
            loop {
                let flush = queue.write_to(&mut sink).unwrap();
                frames_written += flush.frames;
                if flush.drained {
                    break;
                }
                spins += 1;
                assert!(spins < 100_000, "queue failed to drain");
            }
            assert_eq!(sink.accepted, reference, "seed {seed}");
            assert_eq!(frames_written as usize, msgs.len());
            assert!(queue.is_empty());
            assert_eq!(queue.queued_bytes(), 0);
        }
    }

    #[test]
    fn write_queue_coalesces_into_vectored_writes() {
        let msgs = sample_msgs(&mut Lcg(7), 10);
        let mut queue = FrameWriteQueue::new();
        for m in &msgs {
            queue.push(encode_msg_parts(m)).unwrap();
        }
        // A sink that accepts everything: one vectored write suffices.
        let mut sink = Vec::new();
        let flush = queue.write_to(&mut sink).unwrap();
        assert!(flush.drained);
        assert_eq!(flush.frames, msgs.len() as u64);
        assert_eq!(
            flush.vectored_writes, 1,
            "10 frames coalesce into one syscall"
        );
        assert_eq!(decode_all(&read_all(&sink)), msgs);
    }

    #[test]
    fn write_queue_rejects_oversized_frames_without_queueing() {
        let mut e = Enc::new();
        e.payload(&Payload::bytes(vec![0u8; MAX_FRAME_LEN as usize + 1]));
        let mut queue = FrameWriteQueue::new();
        assert!(matches!(
            queue.push(e.into_parts()),
            Err(FrameError::TooLarge(_))
        ));
        assert!(queue.is_empty());
    }

    /// A `Read` source that hands out random-sized chunks of a byte
    /// stream with `WouldBlock` between them.
    struct ChaoticSource {
        data: Vec<u8>,
        pos: usize,
        rng: Lcg,
    }

    impl Read for ChaoticSource {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            match self.rng.next() % 4 {
                0 => Err(std::io::Error::from(ErrorKind::WouldBlock)),
                1 => Err(std::io::Error::from(ErrorKind::Interrupted)),
                _ => {
                    let avail = self.data.len() - self.pos;
                    let n = (self.rng.next() as usize % avail.max(1))
                        .max(1)
                        .min(avail)
                        .min(buf.len());
                    buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn nb_reader_reassembles_chunked_streams() {
        for seed in 0..20u64 {
            let mut rng = Lcg(seed.wrapping_add(99));
            let count = 1 + (rng.next() as usize % 30);
            let msgs = sample_msgs(&mut rng, count);
            let wire = wire_of(&msgs);
            let mut src = ChaoticSource {
                data: wire,
                pos: 0,
                rng: Lcg(seed ^ 0x5EED),
            };
            let mut reader = NbFrameReader::new();
            let mut decoded = Vec::new();
            let mut spins = 0;
            loop {
                match reader.read(&mut src).unwrap() {
                    NbRead::Frame(body) => decoded.push(decode_msg_shared(&body).unwrap()),
                    NbRead::WouldBlock => {
                        spins += 1;
                        assert!(spins < 1_000_000, "reader failed to make progress");
                    }
                    NbRead::Closed => break,
                }
            }
            assert_eq!(decoded, msgs, "seed {seed}");
            assert!(!reader.mid_frame());
        }
    }

    /// A nonblocking-socket stand-in: serves `data` in reads of at most
    /// `max_read` bytes, then `WouldBlock` (or EOF once `eof` is set),
    /// logging every call's destination address and byte count.
    struct MockSocket {
        data: Vec<u8>,
        pos: usize,
        max_read: usize,
        eof: bool,
        /// `(destination address, bytes returned)` per `read` call.
        reads: Vec<(usize, usize)>,
    }

    impl MockSocket {
        fn new(data: Vec<u8>) -> MockSocket {
            MockSocket {
                data,
                pos: 0,
                max_read: usize::MAX,
                eof: false,
                reads: Vec::new(),
            }
        }
    }

    impl Read for MockSocket {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.data.len() - self.pos)
                .min(buf.len())
                .min(self.max_read);
            if n == 0 && !self.eof {
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.reads.push((buf.as_ptr() as usize, n));
            Ok(n)
        }
    }

    /// Decodes until the reader reports `WouldBlock`, `Closed` or an
    /// error, returning the frames and that terminal result.
    fn drain<R: Read>(
        reader: &mut NbFrameReader,
        src: &mut R,
    ) -> (Vec<Bytes>, FrameResult<NbRead>) {
        let mut frames = Vec::new();
        loop {
            match reader.read(src) {
                Ok(NbRead::Frame(body)) => frames.push(body),
                end => return (frames, end),
            }
        }
    }

    fn decode_all(frames: &[Bytes]) -> Vec<Msg> {
        frames
            .iter()
            .map(|f| decode_msg_shared(f).expect("decodes"))
            .collect()
    }

    /// The first non-`WouldBlock` result over an at-EOF source: the
    /// short-read shortcut may defer the verdict by one call.
    fn verdict(wire: &[u8]) -> FrameResult<NbRead> {
        let mut reader = NbFrameReader::new();
        let mut src = wire;
        for _ in 0..3 {
            match reader.read(&mut src) {
                Ok(NbRead::WouldBlock) => continue,
                other => return other,
            }
        }
        panic!("reader never settled on {wire:?}");
    }

    /// The end-of-stream and envelope rules of the wire format, as the
    /// one reader applies them.
    #[test]
    fn nb_reader_maps_boundary_cases_like_the_blocking_reader() {
        // Clean close at a frame boundary — also after whole frames.
        assert!(matches!(verdict(&[]).unwrap(), NbRead::Closed));
        let unit = wire_of(&[Msg::InitBackup]);
        let mut reader = NbFrameReader::new();
        let mut src = &unit[..];
        let (frames, end) = drain(&mut reader, &mut src);
        assert_eq!(frames.len(), 1);
        assert!(matches!(end.unwrap(), NbRead::WouldBlock));
        assert!(matches!(reader.read(&mut src).unwrap(), NbRead::Closed));
        // EOF inside the envelope: version skew wins, else truncation.
        assert!(matches!(
            verdict(&[FRAME_VERSION + 1]),
            Err(FrameError::Version(_))
        ));
        assert!(matches!(
            verdict(&[FRAME_VERSION, 9]),
            Err(FrameError::Malformed("truncated length prefix"))
        ));
        // EOF inside the body is truncation.
        assert!(matches!(
            verdict(&unit[..unit.len() - 1]),
            Err(FrameError::Malformed("truncated frame body"))
        ));
        // Oversized length prefix rejected before allocating.
        let mut wire = vec![FRAME_VERSION];
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(verdict(&wire), Err(FrameError::TooLarge(_))));
        // mid_frame flips while a frame is in flight and the decoder
        // resumes across the WouldBlock.
        let mut reader = NbFrameReader::new();
        assert!(!reader.mid_frame());
        let split = 3; // inside the 5-byte envelope
        let mut src = MockSocket::new(unit[..split].to_vec());
        assert!(matches!(reader.read(&mut src).unwrap(), NbRead::WouldBlock));
        assert!(reader.mid_frame());
        src.data.extend_from_slice(&unit[split..]);
        match reader.read(&mut src).unwrap() {
            NbRead::Frame(body) => assert_eq!(decode_msg_shared(&body).unwrap(), Msg::InitBackup),
            other => panic!("expected resumed frame, got {other:?}"),
        }
        assert!(!reader.mid_frame());
    }

    /// The short-read shortcut skips the `EAGAIN` probe, never the EOF:
    /// a stream that ends mid-frame answers `WouldBlock` once (no
    /// syscall), then truncation — not a clean close, not a hang.
    #[test]
    fn nb_reader_reports_eof_after_a_partial_frame_on_the_next_call() {
        let mut wire = wire_of(&[
            Msg::InitBackup,
            Msg::GetObject {
                key: ObjectKey::new("cut-short"),
                data_chunks: 0,
            },
        ]);
        wire.truncate(wire.len() - 4);
        let mut src = MockSocket::new(wire);
        src.eof = true;
        let mut reader = NbFrameReader::new();
        let (frames, end) = drain(&mut reader, &mut src);
        assert_eq!(frames.len(), 1, "the whole frame before the cut decodes");
        assert!(matches!(end.unwrap(), NbRead::WouldBlock));
        assert_eq!(src.reads.len(), 1, "the WouldBlock cost no syscall");
        assert!(reader.mid_frame());
        assert!(matches!(
            reader.read(&mut src),
            Err(FrameError::Malformed("truncated frame body"))
        ));
    }

    #[test]
    fn nb_reader_decodes_byte_at_a_time_delivery_identically() {
        let msgs = sample_msgs(&mut Lcg(31), 25);
        let wire = wire_of(&msgs);
        let mut src = MockSocket::new(wire);
        src.max_read = 1;
        src.eof = true;
        let mut reader = NbFrameReader::new();
        let mut decoded = Vec::new();
        loop {
            match reader.read(&mut src).unwrap() {
                NbRead::Frame(body) => decoded.push(decode_msg_shared(&body).unwrap()),
                NbRead::WouldBlock => {}
                NbRead::Closed => break,
            }
        }
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn nb_reader_takes_a_burst_of_small_frames_in_one_read() {
        let msgs: Vec<Msg> = (0..200)
            .map(|i| Msg::GetObject {
                key: ObjectKey::new(format!("key-{i}")),
                data_chunks: 0,
            })
            .collect();
        let wire = wire_of(&msgs);
        assert!(wire.len() < STAGE_LEN, "the burst must fit the stage");
        let mut src = MockSocket::new(wire);
        let mut reader = NbFrameReader::new();
        let (frames, end) = drain(&mut reader, &mut src);
        assert!(matches!(end.unwrap(), NbRead::WouldBlock));
        let decoded = decode_all(&frames);
        assert_eq!(decoded, msgs);
        assert_eq!(
            src.reads.len(),
            1,
            "200 frames, one read — and no EAGAIN probe after the short read"
        );
        assert!(!reader.mid_frame());
    }

    #[test]
    fn nb_reader_reassembles_a_frame_straddling_the_stage_end() {
        // Small frames up to just short of the stage's end, then one
        // whose envelope — or body — is cut by it, at every offset.
        let filler = Msg::GetObject {
            key: ObjectKey::new("filler-filler-filler"),
            data_chunks: 0,
        };
        let straddler = Msg::ChunkToClient {
            id: ChunkId::new(ObjectKey::new("straddler"), 3),
            payload: Payload::bytes((0..=255u8).cycle().take(700).collect::<Vec<u8>>()),
        };
        let filler_len = HEADER_LEN + encode_msg_parts(&filler).len();
        for pad in 0..filler_len {
            let mut msgs = vec![Msg::ChunkToClient {
                id: ChunkId::new(ObjectKey::new("pad"), 0),
                payload: Payload::bytes(vec![9u8; pad]),
            }];
            msgs.extend(std::iter::repeat_n(filler.clone(), STAGE_LEN / filler_len));
            msgs.push(straddler.clone());
            msgs.push(Msg::InitBackup);
            let wire = wire_of(&msgs);
            let mut src = MockSocket::new(wire);
            let mut reader = NbFrameReader::new();
            let (frames, end) = drain(&mut reader, &mut src);
            assert!(matches!(end.unwrap(), NbRead::WouldBlock));
            let decoded = decode_all(&frames);
            assert_eq!(decoded, msgs, "pad {pad}");
        }
    }

    /// A chunk-scale body is one allocation, filled by the stream: only
    /// the prefix that shared the stage with the envelope is copied, the
    /// remainder is read straight into the buffer the decoded payload
    /// aliases.
    #[test]
    fn nb_reader_reads_large_bodies_directly_into_the_aliased_allocation() {
        let payload: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect();
        let msg = Msg::ChunkData {
            id: ChunkId::new(ObjectKey::new("big"), 1),
            payload: Payload::bytes(payload.clone()),
        };
        let mut wire = wire_of(&[Msg::InitBackup]);
        let big_at = wire.len();
        wire.extend(wire_of(&[msg]));
        let body_len = wire.len() - big_at - HEADER_LEN;
        let mut src = MockSocket::new(wire);
        src.max_read = 100_000; // the body arrives over several wake-ups
        let mut reader = NbFrameReader::new();
        let mut frames = Vec::new();
        while frames.len() < 2 {
            let (more, end) = drain(&mut reader, &mut src);
            assert!(matches!(end.unwrap(), NbRead::WouldBlock));
            frames.extend(more);
        }
        let frame = &frames[1];
        assert_eq!(frame.len(), body_len);
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();

        // Read 1 filled the stage (InitBackup + envelope + body prefix); every
        // later read landed inside the frame's own allocation, back to
        // back, and together they carried exactly the unstaged remainder.
        let staged_prefix = STAGE_LEN - big_at - HEADER_LEN;
        assert_eq!(src.reads[0].1, STAGE_LEN);
        let mut expect_at = frame_range.start + staged_prefix;
        for &(at, n) in &src.reads[1..] {
            assert_eq!(at, expect_at, "direct reads fill the body in place");
            expect_at += n;
        }
        assert_eq!(expect_at, frame_range.end);

        let Msg::ChunkData {
            payload: Payload::Bytes(got),
            ..
        } = decode_msg_shared(frame).unwrap()
        else {
            panic!("wrong message decoded");
        };
        assert!(
            frame_range.contains(&(got.as_ptr() as usize))
                && got.as_ptr() as usize + got.len() <= frame_range.end,
            "decoded payload must alias the frame allocation"
        );
        assert_eq!(&got[..], &payload[..]);
    }
}
