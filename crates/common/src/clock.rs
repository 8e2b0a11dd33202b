//! A CLOCK (second-chance) replacement queue.
//!
//! The paper uses CLOCK twice, for unrelated purposes (§3.3 footnote 6):
//! per-proxy to pick eviction victims at object granularity (§3.2), and
//! per-node to order chunks MRU→LRU for the backup key exchange (§4.2).
//! This queue serves the proxy: classic hand-sweep victim selection over
//! reference bits, plus recency stamps for an MRU→LRU listing. A node
//! needs only the order, so its chunk store stamps each chunk itself
//! (`ic_lambda::store`) rather than keeping a second index here.

use std::collections::HashMap;
use std::hash::Hash;

/// A CLOCK queue over keys of type `K`.
///
/// # Example
///
/// ```
/// use ic_common::clock::ClockQueue;
///
/// let mut q = ClockQueue::new();
/// q.insert("a");
/// q.insert("b");
/// q.touch(&"a"); // reference "a": it survives the first sweep
/// assert_eq!(q.evict(), Some("b"));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct ClockQueue<K> {
    /// Ring of slots; `None` marks a tombstone awaiting compaction.
    ring: Vec<Option<K>>,
    /// Key → (ring index, referenced bit, recency stamp).
    index: HashMap<K, Slot>,
    hand: usize,
    stamp: u64,
    tombstones: usize,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    pos: usize,
    referenced: bool,
    stamp: u64,
}

impl<K: Eq + Hash + Clone> ClockQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ClockQueue {
            ring: Vec::new(),
            index: HashMap::new(),
            hand: 0,
            stamp: 0,
            tombstones: 0,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` if the key is tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts a key with its reference bit clear; inserting an existing
    /// key counts as a touch (sets the bit).
    pub fn insert(&mut self, key: K) {
        self.stamp += 1;
        if let Some(slot) = self.index.get_mut(&key) {
            slot.referenced = true;
            slot.stamp = self.stamp;
            return;
        }
        let pos = self.ring.len();
        self.ring.push(Some(key.clone()));
        self.index.insert(
            key,
            Slot {
                pos,
                referenced: false,
                stamp: self.stamp,
            },
        );
    }

    /// Marks a key referenced (a cache hit gives it a second chance).
    /// Returns `false` if the key is not tracked.
    pub fn touch(&mut self, key: &K) -> bool {
        self.stamp += 1;
        match self.index.get_mut(key) {
            Some(slot) => {
                slot.referenced = true;
                slot.stamp = self.stamp;
                true
            }
            None => false,
        }
    }

    /// Removes a key (e.g. the object was overwritten or deleted).
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(slot) => {
                self.ring[slot.pos] = None;
                self.tombstones += 1;
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    /// CLOCK sweep: clears reference bits until an unreferenced key is
    /// found; removes and returns it. `None` on an empty queue.
    pub fn evict(&mut self) -> Option<K> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            if self.ring.is_empty() {
                return None;
            }
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let pos = self.hand;
            self.hand += 1;
            let Some(key) = self.ring[pos].clone() else {
                continue;
            };
            let slot = self.index.get_mut(&key).expect("ring/index in sync");
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.index.remove(&key);
                self.ring[pos] = None;
                self.tombstones += 1;
                self.maybe_compact();
                return Some(key);
            }
        }
    }

    /// Keys ordered most-recently-used first (the backup key exchange
    /// ships metadata in this order, §4.2).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut entries: Vec<(&K, u64)> = self.index.iter().map(|(k, s)| (k, s.stamp)).collect();
        entries.sort_by_key(|e| std::cmp::Reverse(e.1));
        entries.into_iter().map(|(k, _)| k.clone()).collect()
    }

    fn maybe_compact(&mut self) {
        if self.tombstones < 32 || self.tombstones * 2 < self.ring.len() {
            return;
        }
        let survivors: Vec<K> = self.ring.drain(..).flatten().collect();
        for (pos, k) in survivors.iter().enumerate() {
            self.index.get_mut(k).expect("live key indexed").pos = pos;
        }
        self.ring = survivors.into_iter().map(Some).collect();
        self.hand = 0;
        self.tombstones = 0;
    }
}

impl<K: Eq + Hash + Clone> Default for ClockQueue<K> {
    fn default() -> Self {
        ClockQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order_without_touches() {
        let mut q = ClockQueue::new();
        for i in 0..5 {
            q.insert(i);
        }
        // All have the reference bit set; first sweep clears, second evicts
        // in ring order.
        let order: Vec<i32> = std::iter::from_fn(|| q.evict()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn touched_keys_get_a_second_chance() {
        let mut q = ClockQueue::new();
        q.insert("a");
        q.insert("b");
        q.insert("c");
        // Sweep once so all bits are cleared, then re-reference "a".
        assert_eq!(q.evict(), Some("a")); // a,b,c cleared; a evicted
        q.insert("a"); // back, referenced
        q.touch(&"b");
        assert_eq!(q.evict(), Some("c"), "c is the only unreferenced key");
    }

    #[test]
    fn remove_prevents_future_eviction() {
        let mut q = ClockQueue::new();
        q.insert(1);
        q.insert(2);
        assert!(q.remove(&1));
        assert!(!q.remove(&1));
        assert_eq!(q.evict(), Some(2));
        assert_eq!(q.evict(), None);
    }

    #[test]
    fn mru_ordering_follows_touches() {
        let mut q = ClockQueue::new();
        q.insert("x");
        q.insert("y");
        q.insert("z");
        q.touch(&"x");
        assert_eq!(q.keys_mru_to_lru(), vec!["x", "z", "y"]);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut q = ClockQueue::new();
        for i in 0..200 {
            q.insert(i);
        }
        for i in 0..150 {
            q.remove(&i);
        }
        assert_eq!(q.len(), 50);
        let mut left: Vec<i32> = std::iter::from_fn(|| q.evict()).collect();
        left.sort_unstable();
        assert_eq!(left, (150..200).collect::<Vec<_>>());
    }

    #[test]
    fn insert_existing_key_touches_instead_of_duplicating() {
        let mut q = ClockQueue::new();
        q.insert("a");
        q.insert("a");
        assert_eq!(q.len(), 1);
        assert_eq!(q.evict(), Some("a"));
        assert!(q.is_empty());
    }

    #[test]
    fn eviction_cycles_many_rounds() {
        // Regression guard for hand wrap-around with tombstones.
        let mut q = ClockQueue::new();
        for round in 0..50 {
            for i in 0..20 {
                q.insert((round, i));
            }
            for _ in 0..20 {
                assert!(q.evict().is_some());
            }
        }
        assert!(q.is_empty());
    }
}
