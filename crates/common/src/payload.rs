//! Object/chunk payloads: real bytes or size-only synthetic data.
//!
//! The socket substrate and the functional tests move real [`bytes::Bytes`]
//! through the erasure coder; the trace-scale simulation replays a working
//! set of more than a terabyte (Table 1), which obviously cannot be
//! materialized, so there every payload is [`Payload::Synthetic`] — carrying
//! only its length. All cache-management code (stores, eviction, backup
//! deltas, billing, the network model) is written against this enum and is
//! exercised identically in both modes.

use bytes::Bytes;

/// A chunk or object payload.
#[derive(Clone, PartialEq, Eq)]
pub enum Payload {
    /// Real data (sockets, functional tests, EC correctness checks).
    Bytes(Bytes),
    /// Size-only stand-in for trace-scale simulation.
    Synthetic {
        /// Length in bytes of the data this payload stands for.
        len: u64,
    },
}

impl Payload {
    /// Wraps real bytes.
    pub fn bytes(data: impl Into<Bytes>) -> Self {
        Payload::Bytes(data.into())
    }

    /// Creates a size-only payload of `len` bytes.
    pub fn synthetic(len: u64) -> Self {
        Payload::Synthetic { len }
    }

    /// Length in bytes (real or represented).
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Synthetic { len } => *len,
        }
    }

    /// Returns `true` for a zero-length payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the real bytes, if this payload carries any.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Returns `true` if this payload is synthetic (size-only).
    pub fn is_synthetic(&self) -> bool {
        matches!(self, Payload::Synthetic { .. })
    }

    /// Re-slices the payload to `len` bytes (clamped), preserving its kind.
    ///
    /// Used by the erasure-coding splitter to trim the final chunk of an
    /// object whose size is not a multiple of the chunk length.
    pub fn truncated(&self, len: u64) -> Payload {
        match self {
            Payload::Bytes(b) => {
                let end = (len as usize).min(b.len());
                Payload::Bytes(b.slice(..end))
            }
            Payload::Synthetic { len: l } => Payload::Synthetic { len: len.min(*l) },
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Bytes(b) => write!(f, "Payload::Bytes({} B)", b.len()),
            Payload::Synthetic { len } => write!(f, "Payload::Synthetic({len} B)"),
        }
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Bytes(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Bytes(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_agree_across_kinds() {
        let real = Payload::bytes(vec![0u8; 1000]);
        let synth = Payload::synthetic(1000);
        assert_eq!(real.len(), synth.len());
        assert!(!real.is_synthetic());
        assert!(synth.is_synthetic());
        assert!(real.as_bytes().is_some());
        assert!(synth.as_bytes().is_none());
    }

    #[test]
    fn truncation_clamps() {
        let real = Payload::bytes(vec![7u8; 10]);
        assert_eq!(real.truncated(4).len(), 4);
        assert_eq!(real.truncated(100).len(), 10);
        let synth = Payload::synthetic(10);
        assert_eq!(synth.truncated(4).len(), 4);
        assert_eq!(synth.truncated(100).len(), 10);
    }

    #[test]
    fn empty_detection() {
        assert!(Payload::synthetic(0).is_empty());
        assert!(!Payload::synthetic(1).is_empty());
        assert!(Payload::bytes(Vec::new()).is_empty());
    }

    #[test]
    fn debug_mentions_kind_and_len() {
        assert_eq!(
            format!("{:?}", Payload::synthetic(5)),
            "Payload::Synthetic(5 B)"
        );
        assert_eq!(
            format!("{:?}", Payload::bytes(vec![1, 2])),
            "Payload::Bytes(2 B)"
        );
    }
}
