//! Delta-sync backup roles (§4.2, Fig 10).
//!
//! A backup round synchronizes two *peer replicas* of the same logical
//! function: the running source λs and a destination λd that the source
//! invokes through the platform's auto-scaling. The source streams its key
//! metadata MRU→LRU; the destination fetches exactly the chunks it lacks
//! (the delta), prunes chunks the source no longer holds (evictions and
//! overwrites propagate), and returns. Afterwards either replica can serve
//! the node's data.

use std::collections::HashSet;

use ic_common::msg::BackupKey;
use ic_common::{ChunkId, RelayId};

use crate::store::ChunkStore;

/// Which side of a backup round (if any) this runtime is playing.
#[derive(Clone, Debug, Default)]
pub enum BackupRole {
    /// Not participating.
    #[default]
    None,
    /// Source (λs) side.
    Source(SourceState),
    /// Destination (λd) side.
    Dest(DestState),
}

impl BackupRole {
    /// `true` while a round is in progress (holds the duration-control
    /// timer so the function does not return mid-backup).
    pub fn is_active(&self) -> bool {
        !matches!(self, BackupRole::None)
    }

    /// Feeds the role into a state hash (model checking), field by field
    /// with the id sets in sorted order, so two runtimes in the same
    /// protocol state hash alike whatever order their sets were filled
    /// in.
    pub(crate) fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        fn sorted(ids: &HashSet<ChunkId>) -> Vec<&ChunkId> {
            let mut ids: Vec<_> = ids.iter().collect();
            ids.sort_unstable();
            ids
        }
        std::mem::discriminant(self).hash(h);
        match self {
            BackupRole::None => {}
            BackupRole::Source(s) => {
                s.relay.hash(h);
                s.stage.hash(h);
            }
            BackupRole::Dest(d) => {
                d.relay.hash(h);
                sorted(&d.pending).hash(h);
                sorted(&d.serve_on_arrival).hash(h);
                d.delta_bytes.hash(h);
            }
        }
    }
}

/// Progress of the source side.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SourceStage {
    /// Sent `InitBackup`, waiting for the proxy's `BackupCmd` (steps 1–4).
    AwaitCmd,
    /// Invoked the peer, waiting for its `HelloSource` (steps 5–8).
    AwaitHello,
    /// Serving `BackupFetch` requests until `BackupDone` (steps 11+).
    Streaming,
}

/// Source-side state.
#[derive(Clone, Debug)]
pub struct SourceState {
    /// Relay assigned by the proxy (none until `BackupCmd`).
    pub relay: Option<RelayId>,
    /// Protocol stage.
    pub stage: SourceStage,
}

impl SourceState {
    /// Fresh source state (just sent `InitBackup`).
    pub fn new() -> Self {
        SourceState {
            relay: None,
            stage: SourceStage::AwaitCmd,
        }
    }
}

impl Default for SourceState {
    fn default() -> Self {
        SourceState::new()
    }
}

/// Destination-side state.
#[derive(Clone, Debug)]
pub struct DestState {
    /// Relay bridging to the source.
    pub relay: RelayId,
    /// Chunks still to fetch.
    pub pending: HashSet<ChunkId>,
    /// Chunks a client asked for mid-migration: answer the proxy as soon
    /// as the fetch lands (the paper's forwarding behaviour).
    pub serve_on_arrival: HashSet<ChunkId>,
    /// Bytes fetched this round (the delta).
    pub delta_bytes: u64,
}

impl DestState {
    /// Fresh destination state for a round over `relay`.
    pub fn new(relay: RelayId) -> Self {
        DestState {
            relay,
            pending: HashSet::new(),
            serve_on_arrival: HashSet::new(),
            delta_bytes: 0,
        }
    }
}

/// What a destination must do upon receiving the source's key list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaPlan {
    /// Chunks to fetch (missing here, or stale versions).
    pub fetch: Vec<ChunkId>,
    /// Chunks to drop (the source no longer holds them).
    pub drop: Vec<ChunkId>,
    /// Bytes the fetch will move.
    pub fetch_bytes: u64,
}

/// Computes the delta between the source's offer and the destination's
/// store. `offered` holds distinct ids, as [`ChunkStore::backup_keys`]
/// gives them, so when every chunk held here was offered nothing is
/// dropped and the offer set is never built.
pub fn compute_delta(offered: &[BackupKey], store: &ChunkStore) -> DeltaPlan {
    let mut fetch = Vec::new();
    let mut fetch_bytes = 0;
    let mut held_offered = 0;
    for key in offered {
        let stale = match store.peek(&key.id) {
            Some(existing) => {
                held_offered += 1;
                existing.version < key.version
            }
            None => true,
        };
        if stale {
            fetch.push(key.id.clone());
            fetch_bytes += key.len;
        }
    }
    let drop = if held_offered == store.len() {
        Vec::new()
    } else {
        let offered_ids: HashSet<&ChunkId> = offered.iter().map(|k| &k.id).collect();
        store
            .backup_keys()
            .into_iter()
            .map(|k| k.id)
            .filter(|id| !offered_ids.contains(id))
            .collect()
    };
    DeltaPlan {
        fetch,
        drop,
        fetch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{ObjectKey, Payload, SimTime};

    fn key(name: &str, version: u64, len: u64) -> BackupKey {
        BackupKey {
            id: ChunkId::new(ObjectKey::new(name), 0),
            version,
            len,
        }
    }

    fn cid(name: &str) -> ChunkId {
        ChunkId::new(ObjectKey::new(name), 0)
    }

    #[test]
    fn empty_destination_fetches_everything() {
        let store = ChunkStore::new();
        let offered = vec![key("a", 5, 100), key("b", 7, 200)];
        let plan = compute_delta(&offered, &store);
        assert_eq!(plan.fetch.len(), 2);
        assert_eq!(plan.fetch_bytes, 300);
        assert!(plan.drop.is_empty());
    }

    #[test]
    fn up_to_date_chunks_are_skipped() {
        let mut store = ChunkStore::new();
        store.insert_with_version(cid("a"), Payload::synthetic(100), 5);
        let offered = vec![key("a", 5, 100), key("b", 9, 50)];
        let plan = compute_delta(&offered, &store);
        assert_eq!(plan.fetch, vec![cid("b")]);
        assert_eq!(plan.fetch_bytes, 50);
    }

    #[test]
    fn stale_versions_are_refetched() {
        let mut store = ChunkStore::new();
        store.insert_with_version(cid("a"), Payload::synthetic(100), 3);
        let offered = vec![key("a", 8, 120)];
        let plan = compute_delta(&offered, &store);
        assert_eq!(plan.fetch, vec![cid("a")]);
        assert_eq!(plan.fetch_bytes, 120);
    }

    #[test]
    fn chunks_absent_from_offer_are_dropped() {
        let mut store = ChunkStore::new();
        store.insert(SimTime::from_secs(1), cid("gone"), Payload::synthetic(10));
        store.insert_with_version(cid("kept"), Payload::synthetic(10), 4);
        let offered = vec![key("kept", 4, 10)];
        let plan = compute_delta(&offered, &store);
        assert!(plan.fetch.is_empty());
        assert_eq!(plan.drop, vec![cid("gone")]);
    }

    #[test]
    fn second_round_after_sync_is_empty() {
        let mut src = ChunkStore::new();
        src.insert(SimTime::from_secs(1), cid("x"), Payload::synthetic(64));
        src.insert(SimTime::from_secs(2), cid("y"), Payload::synthetic(64));

        // Round 1: sync everything into dst.
        let mut dst = ChunkStore::new();
        let offered = src.backup_keys();
        let plan = compute_delta(&offered, &dst);
        for id in &plan.fetch {
            let c = src.peek(id).unwrap();
            dst.insert_with_version(id.clone(), c.payload.clone(), c.version);
        }
        // Round 2 with no new writes: nothing to do.
        let plan2 = compute_delta(&src.backup_keys(), &dst);
        assert!(plan2.fetch.is_empty() && plan2.drop.is_empty());

        // A new write at the source shows up as a 1-chunk delta.
        src.insert(SimTime::from_secs(3), cid("z"), Payload::synthetic(32));
        let plan3 = compute_delta(&src.backup_keys(), &dst);
        assert_eq!(plan3.fetch, vec![cid("z")]);
        assert_eq!(plan3.fetch_bytes, 32);
    }

    #[test]
    fn role_activity_flag() {
        assert!(!BackupRole::None.is_active());
        assert!(BackupRole::Source(SourceState::new()).is_active());
        assert!(BackupRole::Dest(DestState::new(RelayId(1))).is_active());
    }

    /// The parent implementation, verbatim: a store that keeps MRU order
    /// in a private `ClockQueue` beside its chunk map, and a delta that
    /// always builds the offer set and re-sorts the store for drops. The
    /// differential test below holds the stamped store to it.
    mod reference {
        use std::collections::{HashMap, HashSet};

        use ic_common::clock::ClockQueue;
        use ic_common::msg::BackupKey;
        use ic_common::{ChunkId, Payload, SimTime};

        use crate::backup::DeltaPlan;

        /// One stored chunk.
        #[derive(Clone, Debug)]
        pub struct StoredChunk {
            /// The shard data (real or synthetic).
            pub payload: Payload,
            /// Monotonic version used by delta-sync (time-derived).
            pub version: u64,
        }

        /// The chunk store of one function instance.
        #[derive(Clone, Debug, Default)]
        pub struct ChunkStore {
            chunks: HashMap<ChunkId, StoredChunk>,
            clock: ClockQueue<ChunkId>,
            used_bytes: u64,
            version_seq: u64,
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
            /// differently and the checker's state dedup would never fire.
            pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
                use std::hash::Hash;
                let mut chunks: Vec<_> = self.chunks.iter().collect();
                chunks.sort_by_key(|(id, _)| (*id).clone());
                for (id, chunk) in chunks {
                    id.hash(h);
                    format!("{:?}", chunk.payload).hash(h);
                }
                self.clock.keys_mru_to_lru().hash(h);
                self.used_bytes.hash(h);
            }

            /// Inserts (or overwrites) a chunk at time `now`, returning its version.
            pub fn insert(&mut self, now: SimTime, id: ChunkId, payload: Payload) -> u64 {
                self.version_seq = (self.version_seq + 1) & 0xF;
                let version = now.as_micros() * 16 + self.version_seq;
                self.insert_with_version(id, payload, version)
            }

            /// Inserts a chunk with an explicit version (the backup destination
            /// preserves the source's versions so later deltas stay correct).
            pub fn insert_with_version(
                &mut self,
                id: ChunkId,
                payload: Payload,
                version: u64,
            ) -> u64 {
                let new_bytes = payload.len();
                if let Some(old) = self
                    .chunks
                    .insert(id.clone(), StoredChunk { payload, version })
                {
                    self.used_bytes -= old.payload.len();
                }
                self.used_bytes += new_bytes;
                self.clock.insert(id);
                version
            }

            /// Fetches a chunk, marking it referenced.
            pub fn get(&mut self, id: &ChunkId) -> Option<&StoredChunk> {
                if self.chunks.contains_key(id) {
                    self.clock.touch(id);
                }
                self.chunks.get(id)
            }

            /// Fetches without touching recency (used by the backup data pump).
            pub fn peek(&self, id: &ChunkId) -> Option<&StoredChunk> {
                self.chunks.get(id)
            }

            /// Removes a chunk (proxy-driven eviction), returning its size.
            pub fn remove(&mut self, id: &ChunkId) -> Option<u64> {
                let old = self.chunks.remove(id)?;
                self.clock.remove(id);
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
                self.clock
                    .keys_mru_to_lru()
                    .into_iter()
                    .map(|id| {
                        let c = &self.chunks[&id];
                        BackupKey {
                            id,
                            version: c.version,
                            len: c.payload.len(),
                        }
                    })
                    .collect()
            }
        }

        /// Computes the delta between the source's offer and the destination's
        /// store.
        pub fn compute_delta(offered: &[BackupKey], store: &ChunkStore) -> DeltaPlan {
            let offered_ids: HashSet<&ChunkId> = offered.iter().map(|k| &k.id).collect();
            let mut fetch = Vec::new();
            let mut fetch_bytes = 0;
            for key in offered {
                let stale = match store.peek(&key.id) {
                    Some(existing) => existing.version < key.version,
                    None => true,
                };
                if stale {
                    fetch.push(key.id.clone());
                    fetch_bytes += key.len;
                }
            }
            let drop = store
                .backup_keys()
                .into_iter()
                .map(|k| k.id)
                .filter(|id| !offered_ids.contains(id))
                .collect();
            DeltaPlan {
                fetch,
                drop,
                fetch_bytes,
            }
        }
    }

    mod differential {
        use std::hash::{DefaultHasher, Hasher};

        use proptest::collection::vec;
        use proptest::prelude::*;

        use super::reference;
        use super::*;

        fn id_of(pick: usize) -> ChunkId {
            ChunkId::new(ObjectKey::new(format!("k{}", pick / 3)), (pick % 3) as u32)
        }

        fn payload_of(pick: usize) -> Payload {
            match pick {
                0 => Payload::bytes(vec![7u8; 3]),
                1 => Payload::bytes(vec![1u8, 2, 3]),
                n => Payload::synthetic(n as u64 * 64),
            }
        }

        /// Asserts the two stores read the same through every accessor:
        /// MRU→LRU keys (ids, versions, lens, order), size, bytes, highest
        /// version and state hash.
        fn assert_same(store: &ChunkStore, oracle: &reference::ChunkStore) {
            assert_eq!(store.backup_keys(), oracle.backup_keys());
            assert_eq!(store.len(), oracle.len());
            assert_eq!(store.is_empty(), oracle.is_empty());
            assert_eq!(store.used_bytes(), oracle.used_bytes());
            assert_eq!(store.max_version(), oracle.max_version());
            let (mut a, mut b) = (DefaultHasher::new(), DefaultHasher::new());
            store.fingerprint(&mut a);
            oracle.fingerprint(&mut b);
            assert_eq!(a.finish(), b.finish(), "fingerprint");
        }

        fn meta(c: Option<&crate::store::StoredChunk>) -> Option<(Payload, u64)> {
            c.map(|c| (c.payload.clone(), c.version))
        }

        fn oracle_meta(c: Option<&reference::StoredChunk>) -> Option<(Payload, u64)> {
            c.map(|c| (c.payload.clone(), c.version))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// A source and a destination store, each beside its
            /// reference, take random inserts (timed and versioned),
            /// hits, peeks and removes over a pool of 12 ids (so
            /// overwrites, hits, misses and drops all occur), and random
            /// backup rounds: the delta of the source's keys against the
            /// destination, applied as the runtime applies it. Every
            /// answer, every delta plan and every store's state equal
            /// the reference's after every step.
            #[test]
            fn stamped_store_and_delta_equal_clock_queue_reference(
                ops in vec((0u8..8, 0usize..2, 0usize..12, 0usize..5, 0u64..1_000), 1..200),
            ) {
                let mut stores = [ChunkStore::new(), ChunkStore::new()];
                let mut oracles = [reference::ChunkStore::new(), reference::ChunkStore::new()];
                for (kind, side, pick, size, t) in ops {
                    let (store, oracle) = (&mut stores[side], &mut oracles[side]);
                    let id = id_of(pick);
                    match kind {
                        0 => {
                            let now = SimTime::from_micros(t);
                            prop_assert_eq!(
                                store.insert(now, id.clone(), payload_of(size)),
                                oracle.insert(now, id, payload_of(size))
                            );
                        }
                        1 => {
                            prop_assert_eq!(
                                store.insert_with_version(id.clone(), payload_of(size), t),
                                oracle.insert_with_version(id, payload_of(size), t)
                            );
                        }
                        2 | 3 => {
                            prop_assert_eq!(meta(store.get(&id)), oracle_meta(oracle.get(&id)));
                        }
                        4 => {
                            prop_assert_eq!(meta(store.peek(&id)), oracle_meta(oracle.peek(&id)));
                            prop_assert_eq!(store.contains(&id), oracle.contains(&id));
                        }
                        5 => prop_assert_eq!(store.remove(&id), oracle.remove(&id)),
                        _ => {
                            // A backup round from `side` into the other store.
                            let offered = stores[side].backup_keys();
                            let dst = &mut stores[1 - side];
                            let oracle_dst = &mut oracles[1 - side];
                            let plan = compute_delta(&offered, dst);
                            prop_assert_eq!(&plan, &reference::compute_delta(&offered, oracle_dst));
                            for id in &plan.drop {
                                prop_assert_eq!(dst.remove(id), oracle_dst.remove(id));
                            }
                            for id in &plan.fetch {
                                let c = stores[side].peek(id).expect("offered chunk held");
                                let (payload, version) = (c.payload.clone(), c.version);
                                stores[1 - side].insert_with_version(id.clone(), payload.clone(), version);
                                oracles[1 - side].insert_with_version(id.clone(), payload, version);
                            }
                        }
                    }
                    for (store, oracle) in stores.iter().zip(&oracles) {
                        assert_same(store, oracle);
                    }
                }
            }
        }
    }
}
