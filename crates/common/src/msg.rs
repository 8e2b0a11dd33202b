//! Wire protocol between clients, proxies, Lambda nodes, and backup relays.
//!
//! One message enum covers the whole deployment so that the discrete-event
//! simulator and the socket substrate can share a single routing layer.
//! The variants follow the paper's protocol vocabulary: the wake-up
//! `PONG` (§3.3; the per-request preflight `PING` is not reproduced, see
//! ARCHITECTURE.md), chunk requests and streamed chunk data (§3.2), `BYE`
//! on voluntary return (Fig 6/7), and the eleven-step delta-sync backup
//! protocol of Fig 10.

use crate::ids::InstanceId;
use crate::ids::{ChunkId, ClientId, LambdaId, ObjectKey, ProxyId, RelayId};
use crate::payload::Payload;

/// Any party that can send or receive a [`Msg`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// An application client (holds the client library).
    Client(ClientId),
    /// A proxy server.
    Proxy(ProxyId),
    /// A Lambda cache node (logical; messages reach its live instance).
    Lambda(LambdaId),
    /// A backup relay process co-located with a proxy.
    Relay(RelayId),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Client(c) => write!(f, "{c}"),
            Endpoint::Proxy(p) => write!(f, "{p}"),
            Endpoint::Lambda(l) => write!(f, "{l}"),
            Endpoint::Relay(r) => write!(f, "{r}"),
        }
    }
}

/// A routed message with its source (the destination is supplied to the
/// transport separately, mirroring a connected socket).
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sender of the message.
    pub src: Endpoint,
    /// The message body.
    pub msg: Msg,
}

/// Metadata for one chunk offered during backup key exchange (Fig 10 step
/// 11: λs sends stored chunk keys ordered MRU → LRU).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackupKey {
    /// The chunk being offered.
    pub id: ChunkId,
    /// Store version of the chunk at λs; the destination fetches only keys
    /// newer than what it already holds (the "delta" of delta-sync).
    pub version: u64,
    /// Chunk length in bytes (lets λd budget memory before fetching).
    pub len: u64,
}

/// Parameters carried by a function invocation (the paper passes the proxy's
/// connection information — and for backup, the relay's — as Lambda
/// invocation parameters).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvokePayload {
    /// Proxy the function must dial back to (functions cannot accept inbound
    /// connections, §2.2).
    pub proxy: ProxyId,
    /// `true` when the invocation itself carries the PING, so the runtime
    /// answers PONG immediately on wake-up (§3.3).
    pub piggyback_ping: bool,
    /// Present when this invocation asks the instance to act as the backup
    /// *destination* (λd) of its peer replica (Fig 10 step 6).
    pub backup: Option<BackupInvoke>,
}

impl InvokePayload {
    /// A plain data-path invocation with a piggybacked PING.
    pub fn ping(proxy: ProxyId) -> Self {
        InvokePayload {
            proxy,
            piggyback_ping: true,
            backup: None,
        }
    }
}

/// The backup-destination half of an [`InvokePayload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackupInvoke {
    /// Relay bridging λs and λd.
    pub relay: RelayId,
    /// The logical node being backed up (λd is a peer replica of it).
    pub source: LambdaId,
}

/// Every message of the deployment protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Client ↔ proxy (the client library encodes/decodes; the proxy
    // streams chunks between the client and the Lambda pool, §3.1–3.2).
    // ------------------------------------------------------------------
    /// Client asks the proxy for an object.
    GetObject {
        /// Object key.
        key: ObjectKey,
        /// How many leading chunks of the stripe rebuild the object on
        /// their own (the reader's *d*, at least 1). While every home of
        /// the stripe is healthy the proxy asks for exactly those and
        /// holds the parity requests back. A code without parity makes
        /// this the stripe size and there is nothing to hold back; a
        /// count that fits no stripe (0, or more than the stripe) is
        /// malformed input and is clamped to the stripe size as well.
        data_chunks: u32,
    },
    /// Proxy accepts a GET: the stripe's chunk set, and how much of it was
    /// asked for (any *d* of the chunks suffice to decode).
    GetAccepted {
        /// Object key.
        key: ObjectKey,
        /// Total object size in bytes.
        object_size: u64,
        /// Proxy-assigned version of the stored object (the proxy epoch
        /// of the PUT that wrote it). Read-repair chunks echo it as
        /// their `put_epoch`, so a repair re-encoded from a version the
        /// client fetched *before* an overwrite is recognized as stale
        /// and dropped instead of clobbering the newer version.
        version: u64,
        /// How many leading chunks the proxy asked the pool for at
        /// admission: the reader's `data_chunks` on a healthy stripe,
        /// `chunks.len()` otherwise. Every one of them is answered
        /// (data or miss); chunks past this count are answered only if
        /// the proxy later releases the held-back parity requests.
        requested: u32,
        /// All chunk ids of the object, in shard order.
        chunks: Vec<ChunkId>,
    },
    /// Proxy reports a cache miss for the object.
    GetMiss {
        /// Object key.
        key: ObjectKey,
    },
    /// Client streams one encoded chunk to the proxy, piggybacking the
    /// destination node id (`<ID_obj_chunk, IDλ>`, §3.1).
    PutChunk {
        /// Chunk id (object key + shard index).
        id: ChunkId,
        /// Destination Lambda node chosen by the client's placement vector.
        lambda: LambdaId,
        /// The encoded shard.
        payload: Payload,
        /// Size of the whole (un-encoded) object, for proxy metadata.
        object_size: u64,
        /// Total shard count `d + p` of the object.
        total_chunks: u32,
        /// `true` for read-repair re-insertion of a single lost chunk
        /// (must not invalidate the object like an overwrite PUT would).
        repair: bool,
        /// Client-assigned PUT instance number (monotonic per client; 0
        /// for repair traffic). Lets the proxy tell the chunks of two
        /// overlapping PUTs of the same key apart, and lets the client
        /// match completion/failure notices to the right PUT.
        put_epoch: u64,
    },
    /// Proxy acknowledges that a whole object PUT has been stored.
    PutDone {
        /// Object key.
        key: ObjectKey,
        /// The client-assigned epoch of the PUT that completed.
        put_epoch: u64,
    },
    /// Proxy aborted a PUT before completion: the object was evicted under
    /// capacity pressure or superseded by an overwrite while chunks (or
    /// their acks) were still in flight. Without this notice the writer
    /// would wait for a `PutDone` that can never come.
    PutFailed {
        /// Object key.
        key: ObjectKey,
        /// The client-assigned epoch of the PUT that was aborted.
        put_epoch: u64,
    },
    /// Proxy forwards one chunk to the client (first-*d* streaming, §3.2).
    ChunkToClient {
        /// Chunk id.
        id: ChunkId,
        /// The shard data.
        payload: Payload,
    },

    // ------------------------------------------------------------------
    // Proxy ↔ Lambda node (control plane).
    // ------------------------------------------------------------------
    /// Runtime's answer to an invocation's piggybacked PING; carries the
    /// instance id so the proxy (and our experiments) can detect reclaims.
    Pong {
        /// Identity of the physical instance answering.
        instance: InstanceId,
        /// Bytes currently cached by this instance (pool accounting).
        stored_bytes: u64,
    },
    /// Runtime announces it is about to return voluntarily (billed-duration
    /// control expired with no pending work).
    Bye {
        /// Identity of the returning instance.
        instance: InstanceId,
    },
    /// Proxy asks a node for a chunk.
    ChunkGet {
        /// Chunk id.
        id: ChunkId,
    },
    /// Proxy stores a chunk on a node.
    ChunkPut {
        /// Chunk id.
        id: ChunkId,
        /// Shard data.
        payload: Payload,
        /// Proxy-assigned epoch of the client PUT this store belongs to
        /// (0 for traffic outside any PUT, e.g. read repair). Echoed in
        /// the matching [`Msg::PutAck`] so the proxy never counts a stale
        /// ack — one from an overwritten previous version — toward the
        /// current PUT's progress.
        epoch: u64,
    },
    /// Proxy deletes chunks (object eviction is proxy-driven, §3.2).
    ChunkDelete {
        /// Chunk ids to drop.
        ids: Vec<ChunkId>,
    },
    /// Node returns chunk data to the proxy.
    ChunkData {
        /// Chunk id.
        id: ChunkId,
        /// Shard data.
        payload: Payload,
    },
    /// Node does not hold the chunk (lost to a reclaim, or never stored).
    ChunkMiss {
        /// Chunk id.
        id: ChunkId,
    },
    /// Node acknowledges a `ChunkPut`.
    PutAck {
        /// Chunk id.
        id: ChunkId,
        /// Bytes cached on the instance after the insert.
        stored_bytes: u64,
        /// The epoch carried by the acknowledged [`Msg::ChunkPut`].
        epoch: u64,
    },

    // ------------------------------------------------------------------
    // Delta-sync backup protocol (Fig 10).
    // ------------------------------------------------------------------
    /// Step 1: λs asks its proxy to start a backup round.
    InitBackup,
    /// Step 4: proxy tells λs which relay to use.
    BackupCmd {
        /// Relay spawned for this round (step 2–3).
        relay: RelayId,
    },
    /// Step 8/11: λd greets λs through the relay and reports the newest
    /// store version it already holds (enables the delta computation).
    HelloSource {
        /// λd's current high-water store version for this node's data.
        have_version: u64,
    },
    /// Step 9: λd greets the proxy (so the proxy can switch the active
    /// connection to λd, step 10).
    HelloProxy {
        /// λd's instance id.
        instance: InstanceId,
        /// Node the instance replicates.
        source: LambdaId,
    },
    /// λs streams its key metadata, ordered MRU → LRU (step 11).
    BackupKeys {
        /// Chunk metadata; λd fetches the subset it is missing.
        keys: Vec<BackupKey>,
    },
    /// λd requests one missing chunk from λs.
    BackupFetch {
        /// Chunk id.
        id: ChunkId,
    },
    /// λs no longer holds a requested chunk (evicted mid-round); λd skips
    /// it.
    BackupMiss {
        /// Chunk id.
        id: ChunkId,
    },
    /// λs ships one chunk to λd.
    BackupChunk {
        /// Chunk id.
        id: ChunkId,
        /// Shard data.
        payload: Payload,
        /// Store version of the shipped chunk.
        version: u64,
    },
    /// λd signals that delta retrieval completed; the round is over and λd
    /// will return (Fig 10 end).
    BackupDone {
        /// Bytes actually transferred this round (the delta).
        delta_bytes: u64,
    },
}

impl Msg {
    /// Bytes of bulk data this message carries. Control messages are "small"
    /// (their size is dominated by per-message latency, not bandwidth); the
    /// network model treats any message with `data_len() > 0` as a flow.
    pub fn data_len(&self) -> u64 {
        match self {
            Msg::PutChunk { payload, .. }
            | Msg::ChunkToClient { payload, .. }
            | Msg::ChunkPut { payload, .. }
            | Msg::ChunkData { payload, .. }
            | Msg::BackupChunk { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// Short tag for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::GetObject { .. } => "GetObject",
            Msg::GetAccepted { .. } => "GetAccepted",
            Msg::GetMiss { .. } => "GetMiss",
            Msg::PutChunk { .. } => "PutChunk",
            Msg::PutDone { .. } => "PutDone",
            Msg::PutFailed { .. } => "PutFailed",
            Msg::ChunkToClient { .. } => "ChunkToClient",
            Msg::Pong { .. } => "Pong",
            Msg::Bye { .. } => "Bye",
            Msg::ChunkGet { .. } => "ChunkGet",
            Msg::ChunkPut { .. } => "ChunkPut",
            Msg::ChunkDelete { .. } => "ChunkDelete",
            Msg::ChunkData { .. } => "ChunkData",
            Msg::ChunkMiss { .. } => "ChunkMiss",
            Msg::PutAck { .. } => "PutAck",
            Msg::InitBackup => "InitBackup",
            Msg::BackupCmd { .. } => "BackupCmd",
            Msg::HelloSource { .. } => "HelloSource",
            Msg::HelloProxy { .. } => "HelloProxy",
            Msg::BackupKeys { .. } => "BackupKeys",
            Msg::BackupFetch { .. } => "BackupFetch",
            Msg::BackupMiss { .. } => "BackupMiss",
            Msg::BackupChunk { .. } => "BackupChunk",
            Msg::BackupDone { .. } => "BackupDone",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_len_distinguishes_bulk_from_control() {
        assert_eq!(Msg::InitBackup.data_len(), 0);
        let chunk = Msg::ChunkData {
            id: ChunkId::new(ObjectKey::new("k"), 0),
            payload: Payload::synthetic(4096),
        };
        assert_eq!(chunk.data_len(), 4096);
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(Msg::InitBackup.kind(), "InitBackup");
        assert_eq!(
            Msg::GetObject {
                key: ObjectKey::new("x"),
                data_chunks: 0,
            }
            .kind(),
            "GetObject"
        );
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Lambda(LambdaId(4)).to_string(), "λ4");
        assert_eq!(Endpoint::Proxy(ProxyId(0)).to_string(), "proxy0");
    }

    #[test]
    fn invoke_payload_ping_constructor() {
        let p = InvokePayload::ping(ProxyId(2));
        assert!(p.piggyback_ping);
        assert!(p.backup.is_none());
        assert_eq!(p.proxy, ProxyId(2));
    }
}
