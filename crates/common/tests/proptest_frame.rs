//! Property tests for the wire-frame codec: every randomly generated
//! message must survive encode → write → read → decode exactly, and the
//! framing must reject corrupted headers without panicking.

use bytes::Bytes;
use ic_common::frame::{
    decode_msg_shared, encode_msg_parts, FrameError, FrameWriteQueue, NbFrameReader, NbRead,
    FRAME_VERSION, INLINE_PAYLOAD_MAX,
};
use ic_common::msg::{BackupKey, Msg};
use ic_common::{ChunkId, InstanceId, LambdaId, ObjectKey, Payload, RelayId};
use proptest::collection::vec;
use proptest::prelude::*;

/// A random object key (non-empty, printable-ish).
fn arb_key() -> impl Strategy<Value = ObjectKey> {
    (0u32..1_000_000, 1usize..24)
        .prop_map(|(n, len)| ObjectKey::new(format!("obj-{n:0len$}", len = len)))
}

fn arb_chunk() -> impl Strategy<Value = ChunkId> {
    (arb_key(), 0u32..64).prop_map(|(k, s)| ChunkId::new(k, s))
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        // Straddle INLINE_PAYLOAD_MAX so both the inlined and the
        // scatter/gather encode paths are exercised.
        vec(0u8..=255, 0..2048).prop_map(Payload::from),
        (0u64..u64::MAX).prop_map(Payload::synthetic),
    ]
}

/// One random message of any protocol variant.
fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (arb_key(), 0u32..64).prop_map(|(key, data_chunks)| Msg::GetObject { key, data_chunks }),
        (
            arb_key(),
            0u64..1 << 40,
            0u64..1 << 32,
            0u32..64,
            vec(arb_chunk(), 0..16)
        )
            .prop_map(
                |(key, object_size, version, requested, chunks)| Msg::GetAccepted {
                    key,
                    object_size,
                    version,
                    requested,
                    chunks
                }
            ),
        arb_key().prop_map(|key| Msg::GetMiss { key }),
        (
            (arb_chunk(), 0u32..4096, arb_payload()),
            (0u64..1 << 40, 1u32..64, 0u8..2, 0u64..1 << 32)
        )
            .prop_map(
                |((id, lambda, payload), (object_size, total_chunks, repair, put_epoch))| {
                    Msg::PutChunk {
                        id,
                        lambda: LambdaId(lambda),
                        payload,
                        object_size,
                        total_chunks,
                        repair: repair == 1,
                        put_epoch,
                    }
                }
            ),
        (arb_key(), 0u64..1 << 32).prop_map(|(key, put_epoch)| Msg::PutDone { key, put_epoch }),
        (arb_key(), 0u64..1 << 32).prop_map(|(key, put_epoch)| Msg::PutFailed { key, put_epoch }),
        (arb_chunk(), arb_payload()).prop_map(|(id, payload)| Msg::ChunkToClient { id, payload }),
        (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(i, b)| Msg::Pong {
            instance: InstanceId(i),
            stored_bytes: b
        }),
        (0u64..u64::MAX).prop_map(|i| Msg::Bye {
            instance: InstanceId(i)
        }),
        arb_chunk().prop_map(|id| Msg::ChunkGet { id }),
        (arb_chunk(), arb_payload(), 0u64..1 << 32)
            .prop_map(|(id, payload, epoch)| Msg::ChunkPut { id, payload, epoch }),
        vec(arb_chunk(), 0..32).prop_map(|ids| Msg::ChunkDelete { ids }),
        (arb_chunk(), arb_payload()).prop_map(|(id, payload)| Msg::ChunkData { id, payload }),
        arb_chunk().prop_map(|id| Msg::ChunkMiss { id }),
        (arb_chunk(), 0u64..u64::MAX, 0u64..1 << 32).prop_map(|(id, stored_bytes, epoch)| {
            Msg::PutAck {
                id,
                stored_bytes,
                epoch,
            }
        }),
        Just(Msg::InitBackup),
        (0u64..u64::MAX).prop_map(|r| Msg::BackupCmd { relay: RelayId(r) }),
        (0u64..u64::MAX).prop_map(|v| Msg::HelloSource { have_version: v }),
        (0u64..u64::MAX, 0u32..4096).prop_map(|(i, s)| Msg::HelloProxy {
            instance: InstanceId(i),
            source: LambdaId(s)
        }),
        vec((arb_chunk(), 0u64..1 << 48, 0u64..1 << 40), 0..24).prop_map(|ks| Msg::BackupKeys {
            keys: ks
                .into_iter()
                .map(|(id, version, len)| BackupKey { id, version, len })
                .collect()
        }),
        arb_chunk().prop_map(|id| Msg::BackupFetch { id }),
        arb_chunk().prop_map(|id| Msg::BackupMiss { id }),
        (arb_chunk(), arb_payload(), 0u64..1 << 48).prop_map(|(id, payload, version)| {
            Msg::BackupChunk {
                id,
                payload,
                version,
            }
        }),
        (0u64..u64::MAX).prop_map(|d| Msg::BackupDone { delta_bytes: d }),
    ]
}

/// The byte payload carried by a message, if its variant has one.
fn payload_of(msg: &Msg) -> Option<&Payload> {
    match msg {
        Msg::PutChunk { payload, .. }
        | Msg::ChunkToClient { payload, .. }
        | Msg::ChunkPut { payload, .. }
        | Msg::ChunkData { payload, .. }
        | Msg::BackupChunk { payload, .. } => Some(payload),
        _ => None,
    }
}

/// `inner` points into the allocation `outer` views.
fn aliases(outer: &[u8], inner: &[u8]) -> bool {
    let o = outer.as_ptr() as usize;
    let i = inner.as_ptr() as usize;
    o <= i && i + inner.len() <= o + outer.len()
}

/// The wire bytes of `msgs`, framed through the frame writer.
fn wire_of(msgs: &[Msg]) -> Vec<u8> {
    let mut queue = FrameWriteQueue::new();
    for m in msgs {
        queue.push(encode_msg_parts(m)).expect("frame fits");
    }
    let mut wire = Vec::new();
    queue.write_to(&mut wire).expect("a Vec takes every byte");
    wire
}

/// The frame reader's first verdict on the complete stream `wire` (its
/// short-read shortcut may defer a verdict by one call).
fn first_read(wire: &[u8]) -> Result<NbRead, FrameError> {
    let mut reader = NbFrameReader::new();
    let mut src = wire;
    loop {
        match reader.read(&mut src) {
            Ok(NbRead::WouldBlock) => {}
            verdict => return verdict,
        }
    }
}

/// A nonblocking stream delivering `data` in pieces of the given sizes
/// (cycled), `WouldBlock` between pieces, EOF after the last byte.
struct Pieces<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    next: usize,
    /// Bytes left in the current piece; 0 = the next read blocks first.
    piece_left: usize,
}

impl std::io::Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() {
            return Ok(0);
        }
        if self.piece_left == 0 {
            self.piece_left = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.piece_left.min(self.data.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.piece_left -= n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// However the byte stream is cut into deliveries, the staged
    /// nonblocking reader yields exactly the frames written, then a clean
    /// close.
    #[test]
    fn nb_reader_is_insensitive_to_delivery_splits(
        msgs in vec(arb_msg(), 1..12),
        sizes in vec(1usize..6000, 1..24),
    ) {
        let wire = wire_of(&msgs);
        let mut src = Pieces { data: &wire, sizes: &sizes, next: 0, piece_left: 0 };
        let mut reader = NbFrameReader::new();
        let mut decoded = Vec::new();
        loop {
            match reader.read(&mut src).expect("well-formed stream") {
                NbRead::Frame(body) => decoded.push(decode_msg_shared(&body).expect("decodes")),
                NbRead::WouldBlock => {}
                NbRead::Closed => break,
            }
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert!(!reader.mid_frame());
    }

    /// Encode → decode is the identity on every message variant.
    #[test]
    fn any_message_roundtrips_the_body_codec(msg in arb_msg()) {
        let body = Bytes::from(encode_msg_parts(&msg).to_vec());
        let back = decode_msg_shared(&body).expect("well-formed body must decode");
        prop_assert_eq!(back, msg);
    }

    /// The zero-copy regression guard: for every message variant that
    /// carries a byte payload, the shared decode path must yield a
    /// `Payload::Bytes` that *aliases* the frame allocation (a
    /// pointer-range check, not just equality), and the scatter/gather
    /// encoder must carry chunk-scale payloads as borrowed segments of
    /// the caller's allocation. If either path silently reverts to
    /// copying, this fails.
    #[test]
    fn decoded_payloads_alias_the_frame_allocation(msg in arb_msg()) {
        // Encode side: payloads at or above the inline threshold appear
        // as a borrowed segment of the original allocation.
        let parts = encode_msg_parts(&msg);
        if let Some(Payload::Bytes(b)) = payload_of(&msg) {
            if b.len() >= INLINE_PAYLOAD_MAX {
                let shared: Vec<_> = parts.shared_segments().collect();
                prop_assert_eq!(shared.len(), 1, "one borrowed payload segment");
                prop_assert_eq!(
                    shared[0].as_ptr(), b.as_ptr(),
                    "encode must borrow the payload, not copy it"
                );
            } else {
                prop_assert_eq!(parts.shared_segments().count(), 0);
            }
        }
        // Decode side: the payload is a slice of the frame buffer.
        let Ok(NbRead::Frame(frame)) = first_read(&wire_of(std::slice::from_ref(&msg))) else {
            panic!("frame reads back");
        };
        let back = decode_msg_shared(&frame).expect("decodes");
        if let Some(Payload::Bytes(b)) = payload_of(&back) {
            prop_assert!(
                aliases(&frame, b),
                "decoded payload must alias the frame allocation"
            );
        }
        prop_assert_eq!(back, msg);
    }

    /// Decoding arbitrary garbage never panics (it may error, or — for
    /// prefixes that happen to be valid — succeed).
    #[test]
    fn garbage_bodies_never_panic(body in vec(0u8..=255, 0..128)) {
        let _ = decode_msg_shared(&Bytes::from(body));
    }

    /// A flipped version byte is always rejected.
    #[test]
    fn wrong_version_is_always_rejected(msg in arb_msg(), v in 0u8..=255) {
        let v = if v == FRAME_VERSION { v.wrapping_add(1) } else { v };
        let mut wire = wire_of(&[msg]);
        wire[0] = v;
        prop_assert!(matches!(first_read(&wire), Err(FrameError::Version(_))));
    }
}
