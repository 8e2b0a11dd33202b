//! Identifiers for the entities of an InfiniCache deployment.
//!
//! The paper's naming is kept where it exists: an *object* is addressed by a
//! tenant-chosen key, a *chunk* is one erasure-coded shard of an object
//! (identified by the object key plus the chunk sequence number, §3.1), a
//! *Lambda node* is one logical cache node (the paper's `IDλ`), and an
//! *instance* is one physical incarnation of a node — reclaiming a function
//! and re-invoking it yields a fresh instance with a fresh [`InstanceId`],
//! which is exactly how the paper's §4.1 study detects reclamation events.

use std::fmt;
use std::sync::Arc;

/// A tenant-visible object key, e.g. a Docker layer digest.
///
/// Cheap to clone (`Arc<str>` internally); ordered and hashable so it can key
/// mapping tables and LRU structures.
///
/// # Example
///
/// ```
/// use ic_common::ObjectKey;
/// let k = ObjectKey::new("sha256:deadbeef");
/// assert_eq!(k.as_str(), "sha256:deadbeef");
/// assert_eq!(k.to_string(), "sha256:deadbeef");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectKey(Arc<str>);

impl ObjectKey {
    /// Creates a key from anything string-like.
    pub fn new(key: impl AsRef<str>) -> Self {
        ObjectKey(Arc::from(key.as_ref()))
    }

    /// Returns the key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectKey({})", self.0)
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::new(s)
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey::new(s)
    }
}

/// Identifies one erasure-coded chunk of an object.
///
/// The paper computes `ID_obj_chunk` as the concatenation of the object key
/// and the chunk's sequence number (§3.1); we keep the two parts explicit.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId {
    /// Key of the object this chunk belongs to.
    pub key: ObjectKey,
    /// Zero-based shard index; `0..d` are data shards, `d..d+p` parity.
    pub seq: u32,
}

impl ChunkId {
    /// Creates the chunk identifier for shard `seq` of object `key`.
    pub fn new(key: ObjectKey, seq: u32) -> Self {
        ChunkId { key, seq }
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.key, self.seq)
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkId({}#{})", self.key, self.seq)
    }
}

macro_rules! small_id {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw numeric value.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

small_id!(
    /// A logical Lambda cache node (the paper's `IDλ`), unique across the
    /// whole deployment. Each proxy manages a contiguous range of these.
    LambdaId,
    u32,
    "λ"
);

small_id!(
    /// One proxy in a multi-proxy deployment (Fig 2).
    ProxyId,
    u16,
    "proxy"
);

small_id!(
    /// One application client holding the InfiniCache client library.
    ClientId,
    u16,
    "client"
);

small_id!(
    /// A relay process spawned by a proxy for the backup protocol (Fig 10).
    RelayId,
    u64,
    "relay"
);

/// One physical incarnation of a Lambda node.
///
/// A fresh instance is born on every cold start; the provider reclaiming a
/// function kills its instance (and the cached chunks with it). Comparing the
/// instance id across invocations is how reclamation is observed, mirroring
/// the paper's §4.1 methodology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// Sentinel for "no instance has ever run".
    pub const NONE: InstanceId = InstanceId(0);

    /// Returns `true` unless this is the [`InstanceId::NONE`] sentinel.
    pub fn is_live(self) -> bool {
        self != InstanceId::NONE
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn object_key_roundtrip_and_display() {
        let k = ObjectKey::new("abc");
        assert_eq!(k.as_str(), "abc");
        assert_eq!(format!("{k}"), "abc");
        assert_eq!(format!("{k:?}"), "ObjectKey(abc)");
        let k2 = k.clone();
        assert_eq!(k, k2);
    }

    #[test]
    fn chunk_id_display_concatenates_key_and_seq() {
        let c = ChunkId::new(ObjectKey::new("img"), 7);
        assert_eq!(c.to_string(), "img#7");
    }

    #[test]
    fn chunk_ids_are_distinct_per_seq() {
        let key = ObjectKey::new("k");
        let set: HashSet<_> = (0..12u32).map(|s| ChunkId::new(key.clone(), s)).collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn small_ids_format_with_prefix() {
        assert_eq!(LambdaId(3).to_string(), "λ3");
        assert_eq!(ProxyId(1).to_string(), "proxy1");
        assert_eq!(ClientId(0).to_string(), "client0");
        assert_eq!(RelayId(9).to_string(), "relay9");
        assert_eq!(LambdaId(3).index(), 3);
    }

    #[test]
    fn instance_id_liveness() {
        assert!(!InstanceId::NONE.is_live());
        assert!(InstanceId(1).is_live());
    }

    #[test]
    fn object_key_orders_lexicographically() {
        assert!(ObjectKey::new("a") < ObjectKey::new("b"));
    }
}
