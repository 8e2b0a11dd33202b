//! The in-function chunk store.
//!
//! Keys are chunk ids; values carry the payload plus a *version* — the
//! insertion timestamp in microseconds (tie-broken by a per-store counter)
//! — which is what the delta-sync backup compares to ship only new data.
//! Each chunk also carries a recency *stamp*, the store's counter at its
//! last insert or hit, so the backup key exchange streams metadata
//! MRU→LRU (§4.2) with one pass over the chunks and one sort by stamp.

use std::cmp::Reverse;
use std::collections::HashMap;

use ic_common::msg::BackupKey;
use ic_common::{ChunkId, Payload, SimTime};

/// One stored chunk.
#[derive(Clone, Debug)]
pub struct StoredChunk {
    /// The shard data (real or synthetic).
    pub payload: Payload,
    /// Monotonic version used by delta-sync (time-derived).
    pub version: u64,
    /// Recency: the store's stamp counter at the last insert or hit.
    stamp: u64,
}

/// The chunk store of one function instance.
#[derive(Clone, Debug, Default)]
pub struct ChunkStore {
    chunks: HashMap<ChunkId, StoredChunk>,
    used_bytes: u64,
    version_seq: u64,
    stamp: u64,
}

impl ChunkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ChunkStore::default()
    }

    /// Number of chunks held.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Feeds the store's contents into a state hash (model checking).
    /// Chunk *versions* are excluded: they embed the wall-clock insert
    /// time, so two interleavings holding identical data would hash
    /// differently and the checker's state dedup would never fire. So
    /// are the stamps themselves: only the MRU→LRU order they give is
    /// hashed.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut chunks: Vec<_> = self.chunks.iter().collect();
        chunks.sort_by_key(|(id, _)| (*id).clone());
        for (id, chunk) in chunks {
            id.hash(h);
            format!("{:?}", chunk.payload).hash(h);
        }
        let ids: Vec<&ChunkId> = self.mru_to_lru().into_iter().map(|(id, _)| id).collect();
        ids.hash(h);
        self.used_bytes.hash(h);
    }

    /// Chunks ordered most recently used first (stamps are unique, so
    /// the order is total).
    fn mru_to_lru(&self) -> Vec<(&ChunkId, &StoredChunk)> {
        let mut chunks: Vec<_> = self.chunks.iter().collect();
        chunks.sort_unstable_by_key(|(_, c)| Reverse(c.stamp));
        chunks
    }

    /// Inserts (or overwrites) a chunk at time `now`, returning its version.
    pub fn insert(&mut self, now: SimTime, id: ChunkId, payload: Payload) -> u64 {
        self.version_seq = (self.version_seq + 1) & 0xF;
        let version = now.as_micros() * 16 + self.version_seq;
        self.insert_with_version(id, payload, version)
    }

    /// Inserts a chunk with an explicit version (the backup destination
    /// preserves the source's versions so later deltas stay correct).
    /// The chunk becomes the most recently used.
    pub fn insert_with_version(&mut self, id: ChunkId, payload: Payload, version: u64) -> u64 {
        let new_bytes = payload.len();
        self.stamp += 1;
        let chunk = StoredChunk {
            payload,
            version,
            stamp: self.stamp,
        };
        if let Some(old) = self.chunks.insert(id, chunk) {
            self.used_bytes -= old.payload.len();
        }
        self.used_bytes += new_bytes;
        version
    }

    /// Fetches a chunk, making it the most recently used.
    pub fn get(&mut self, id: &ChunkId) -> Option<&StoredChunk> {
        let chunk = self.chunks.get_mut(id)?;
        self.stamp += 1;
        chunk.stamp = self.stamp;
        Some(chunk)
    }

    /// Fetches without touching recency (used by the backup data pump).
    pub fn peek(&self, id: &ChunkId) -> Option<&StoredChunk> {
        self.chunks.get(id)
    }

    /// Removes a chunk (proxy-driven eviction), returning its size.
    pub fn remove(&mut self, id: &ChunkId) -> Option<u64> {
        let old = self.chunks.remove(id)?;
        self.used_bytes -= old.payload.len();
        Some(old.payload.len())
    }

    /// `true` if the chunk is present.
    pub fn contains(&self, id: &ChunkId) -> bool {
        self.chunks.contains_key(id)
    }

    /// Highest version held (0 when empty): the `have_version` a backup
    /// destination reports.
    pub fn max_version(&self) -> u64 {
        self.chunks.values().map(|c| c.version).max().unwrap_or(0)
    }

    /// Backup key metadata ordered MRU→LRU (Fig 10 step 11).
    pub fn backup_keys(&self) -> Vec<BackupKey> {
        self.mru_to_lru()
            .into_iter()
            .map(|(id, c)| BackupKey {
                id: id.clone(),
                version: c.version,
                len: c.payload.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::ObjectKey;

    fn cid(key: &str, seq: u32) -> ChunkId {
        ChunkId::new(ObjectKey::new(key), seq)
    }

    #[test]
    fn insert_get_remove_accounting() {
        let mut s = ChunkStore::new();
        s.insert(SimTime::from_secs(1), cid("a", 0), Payload::synthetic(100));
        s.insert(SimTime::from_secs(2), cid("a", 1), Payload::synthetic(50));
        assert_eq!(s.len(), 2);
        assert_eq!(s.used_bytes(), 150);
        assert!(s.get(&cid("a", 0)).is_some());
        assert_eq!(s.remove(&cid("a", 0)), Some(100));
        assert_eq!(s.used_bytes(), 50);
        assert!(s.get(&cid("a", 0)).is_none());
        assert!(s.remove(&cid("a", 0)).is_none());
    }

    #[test]
    fn overwrite_replaces_bytes_not_duplicates() {
        let mut s = ChunkStore::new();
        s.insert(SimTime::from_secs(1), cid("k", 0), Payload::synthetic(100));
        s.insert(SimTime::from_secs(2), cid("k", 0), Payload::synthetic(300));
        assert_eq!(s.len(), 1);
        assert_eq!(s.used_bytes(), 300);
    }

    #[test]
    fn versions_are_monotonic_in_time() {
        let mut s = ChunkStore::new();
        let v1 = s.insert(SimTime::from_secs(1), cid("k", 0), Payload::synthetic(1));
        let v2 = s.insert(SimTime::from_secs(1), cid("k", 1), Payload::synthetic(1));
        let v3 = s.insert(SimTime::from_secs(2), cid("k", 2), Payload::synthetic(1));
        assert!(v1 < v2, "same-instant inserts still order");
        assert!(v2 < v3);
        assert_eq!(s.max_version(), v3);
    }

    #[test]
    fn backup_keys_are_mru_first() {
        let mut s = ChunkStore::new();
        s.insert(SimTime::from_secs(1), cid("a", 0), Payload::synthetic(10));
        s.insert(SimTime::from_secs(2), cid("b", 0), Payload::synthetic(20));
        s.insert(SimTime::from_secs(3), cid("c", 0), Payload::synthetic(30));
        s.get(&cid("a", 0)); // touch "a": now MRU
        let keys: Vec<String> = s.backup_keys().iter().map(|k| k.id.to_string()).collect();
        assert_eq!(keys, vec!["a#0", "c#0", "b#0"]);
        let lens: Vec<u64> = s.backup_keys().iter().map(|k| k.len).collect();
        assert_eq!(lens, vec![10, 30, 20]);
    }

    #[test]
    fn explicit_versions_survive_for_delta_chains() {
        let mut s = ChunkStore::new();
        s.insert_with_version(cid("x", 0), Payload::synthetic(5), 777);
        assert_eq!(s.peek(&cid("x", 0)).unwrap().version, 777);
        assert_eq!(s.max_version(), 777);
    }

    #[test]
    fn real_payloads_roundtrip() {
        let mut s = ChunkStore::new();
        let data = Payload::bytes(vec![1u8, 2, 3, 4]);
        s.insert(SimTime::ZERO, cid("r", 0), data);
        let got = s.get(&cid("r", 0)).unwrap();
        assert_eq!(got.payload.as_bytes().unwrap().as_ref(), &[1, 2, 3, 4]);
    }
}
