//! Insertion-ordered deterministic hash containers.
//!
//! `std::collections::HashMap` — even with a fixed hasher — iterates in an
//! order that depends on its internal table layout (capacity growth history,
//! probe displacement), which cannot be reconstructed from a serialized list
//! of entries. That breaks the checkpoint/restore contract: query state
//! tables are folded and ranked in iteration order at interval boundaries,
//! so a restored run must iterate *exactly* like the uninterrupted one.
//!
//! [`DetHashMap`] and [`DetHashSet`] therefore keep their entries in a plain
//! `Vec` in **insertion order** and maintain a separate open-addressed hash
//! index (seeded with [`DetHasher`](crate::hash::DetHasher)) for O(1)
//! lookup. Iteration walks the entry vector, so the order is a pure function
//! of the insertion history: re-inserting a map's entries in iteration order
//! reproduces a map with identical iteration order — which is precisely what
//! `.nsck` snapshot restore does.
//!
//! Where the index places a key is therefore unobservable: lookups compare
//! keys, iteration and `drain` walk the entry vector, and a snapshot stores
//! the entries in that order and nothing of the index. The index hash
//! ([`DetHasher`](crate::hash::DetHasher)) can change — as it did when
//! integer keys went from byte-serial FNV to one multiply — without moving
//! an output, a digest or a checkpoint byte; it only has to be the same
//! function for the lifetime of a map.
//!
//! The API mirrors the subset of `std::collections::HashMap` the query state
//! tables use (`entry`, `get`, `insert`, `values`, `drain`, `clear`), with
//! this module's own [`Entry`] type standing in for
//! `std::collections::hash_map::Entry`. Removal of individual keys is
//! deliberately unsupported: the monitor's tables only ever grow within an
//! interval and are cleared at its end, so an entry's position (its
//! insertion rank) is stable until the next `clear`/`drain` — a contract
//! callers rely on: query kernels look a key up once per flow
//! ([`DetHashMap::position_or_insert`]) and add each packet at the position
//! found ([`DetHashMap::value_at_mut`]).

use crate::hash::DetBuildHasher;
use std::hash::{BuildHasher, Hash};

/// Index slots hold `entry_index + 1`; 0 marks an empty slot.
const EMPTY: u64 = 0;

/// A deterministic, insertion-ordered hash map (see the module docs).
#[derive(Debug, Clone)]
pub struct DetHashMap<K, V> {
    entries: Vec<(K, V)>,
    /// Open-addressed index over `entries`, always a power of two in size.
    index: Vec<u64>,
    hasher: DetBuildHasher,
}

impl<K, V> Default for DetHashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: PartialEq> PartialEq for DetHashMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<K, V> DetHashMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self { entries: Vec::new(), index: Vec::new(), hasher: DetBuildHasher::default() }
    }

    /// Creates an empty map sized for `capacity` entries without reindexing.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut map = Self::new();
        map.entries.reserve(capacity);
        map.index = vec![EMPTY; index_size_for(capacity)];
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The value at a position [`DetHashMap::position_or_insert`] returned;
    /// panics if `position >= len()`.
    #[inline]
    pub fn value_at_mut(&mut self, position: usize) -> &mut V {
        &mut self.entries[position].1
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.iter_mut().for_each(|slot| *slot = EMPTY);
    }

    /// Removes and yields every entry in insertion order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (K, V)> {
        self.index.iter_mut().for_each(|slot| *slot = EMPTY);
        self.entries.drain(..)
    }
}

impl<K: Hash + Eq, V> DetHashMap<K, V> {
    fn hash_key(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Finds the entry index for `key`, or — the key being absent — the hash
    /// an insertion will place it by, so no caller hashes a key twice.
    fn find(&self, key: &K) -> Result<usize, u64> {
        let hash = self.hash_key(key);
        if self.index.is_empty() {
            return Err(hash);
        }
        let mask = self.index.len() as u64 - 1;
        let mut slot = (hash & mask) as usize;
        loop {
            match self.index[slot] {
                EMPTY => return Err(hash),
                stored => {
                    let entry = (stored - 1) as usize;
                    if self.entries[entry].0 == *key {
                        return Ok(entry);
                    }
                }
            }
            slot = ((slot as u64 + 1) & mask) as usize;
        }
    }

    /// Rebuilds the index for the current entry count (plus headroom).
    fn reindex(&mut self, capacity: usize) {
        self.index.clear();
        self.index.resize(index_size_for(capacity), EMPTY);
        let mask = self.index.len() as u64 - 1;
        for (position, (key, _)) in self.entries.iter().enumerate() {
            let mut slot = (self.hash_key(key) & mask) as usize;
            while self.index[slot] != EMPTY {
                slot = ((slot as u64 + 1) & mask) as usize;
            }
            self.index[slot] = position as u64 + 1;
        }
    }

    /// Appends a key known to be absent, whose hash [`find`](Self::find)
    /// returned; grows the index as needed.
    fn push_new(&mut self, key: K, value: V, hash: u64) -> usize {
        if (self.entries.len() + 1) * 4 > self.index.len() * 3 {
            self.reindex(self.entries.len() + 1);
        }
        let mask = self.index.len() as u64 - 1;
        let mut slot = (hash & mask) as usize;
        while self.index[slot] != EMPTY {
            slot = ((slot as u64 + 1) & mask) as usize;
        }
        self.entries.push((key, value));
        self.index[slot] = self.entries.len() as u64;
        self.entries.len() - 1
    }

    /// Inserts a key-value pair, returning the previous value if the key was
    /// already present (the key keeps its original insertion position).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(entry) => Some(std::mem::replace(&mut self.entries[entry].1, value)),
            Err(hash) => {
                self.push_new(key, value, hash);
                None
            }
        }
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|entry| &self.entries[entry].1)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|entry| &mut self.entries[entry].1)
    }

    /// Returns `true` when `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// The position of `key`'s entry — inserting `default` first when the
    /// key is absent — and whether it inserted.
    pub fn position_or_insert(&mut self, key: K, default: V) -> (usize, bool) {
        match self.find(&key) {
            Ok(entry) => (entry, false),
            Err(hash) => (self.push_new(key, default, hash), true),
        }
    }

    /// Looks up `key` for in-place manipulation (the deterministic stand-in
    /// for `std::collections::hash_map::Entry`).
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        match self.find(&key) {
            Ok(entry) => Entry::Occupied(OccupiedEntry { map: self, entry }),
            Err(hash) => Entry::Vacant(VacantEntry { map: self, key, hash }),
        }
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for DetHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = Self::with_capacity(iter.size_hint().0);
        for (key, value) in iter {
            map.insert(key, value);
        }
        map
    }
}

/// Smallest power-of-two index size holding `entries` below ~75% load.
fn index_size_for(entries: usize) -> usize {
    let needed = entries.saturating_mul(4) / 3 + 1;
    needed.next_power_of_two().max(8)
}

/// A view into a single map slot, occupied or vacant.
pub enum Entry<'a, K, V> {
    /// The key is absent.
    Vacant(VacantEntry<'a, K, V>),
    /// The key is present.
    Occupied(OccupiedEntry<'a, K, V>),
}

impl<'a, K: Hash + Eq, V> Entry<'a, K, V> {
    /// Inserts `default` if the key is vacant; returns the value either way.
    pub fn or_insert(self, default: V) -> &'a mut V {
        match self {
            Entry::Vacant(vacant) => vacant.insert(default),
            Entry::Occupied(occupied) => occupied.into_mut(),
        }
    }

    /// Inserts `default()` if the key is vacant; returns the value either way.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        match self {
            Entry::Vacant(vacant) => vacant.insert(default()),
            Entry::Occupied(occupied) => occupied.into_mut(),
        }
    }
}

/// An [`Entry`] whose key is absent.
pub struct VacantEntry<'a, K, V> {
    map: &'a mut DetHashMap<K, V>,
    key: K,
    /// The key's hash, carried over from the lookup that found it absent.
    hash: u64,
}

impl<'a, K: Hash + Eq, V> VacantEntry<'a, K, V> {
    /// Inserts a value for the key and returns a reference to it.
    pub fn insert(self, value: V) -> &'a mut V {
        let entry = self.map.push_new(self.key, value, self.hash);
        &mut self.map.entries[entry].1
    }

    /// The key that would be inserted.
    pub fn key(&self) -> &K {
        &self.key
    }
}

/// An [`Entry`] whose key is present.
pub struct OccupiedEntry<'a, K, V> {
    map: &'a mut DetHashMap<K, V>,
    entry: usize,
}

impl<'a, K, V> OccupiedEntry<'a, K, V> {
    /// A reference to the stored value.
    pub fn get(&self) -> &V {
        &self.map.entries[self.entry].1
    }

    /// A mutable reference to the stored value.
    pub fn get_mut(&mut self) -> &mut V {
        &mut self.map.entries[self.entry].1
    }

    /// Converts the entry into a mutable reference tied to the map.
    pub fn into_mut(self) -> &'a mut V {
        &mut self.map.entries[self.entry].1
    }

    /// Replaces the stored value, returning the previous one.
    pub fn insert(&mut self, value: V) -> V {
        std::mem::replace(&mut self.map.entries[self.entry].1, value)
    }
}

/// A deterministic, insertion-ordered hash set (see the module docs).
#[derive(Debug, Clone)]
pub struct DetHashSet<T> {
    map: DetHashMap<T, ()>,
}

impl<T> Default for DetHashSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Hash + Eq> PartialEq for DetHashSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T> DetHashSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { map: DetHashMap::new() }
    }

    /// Creates an empty set sized for `capacity` items.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { map: DetHashMap::with_capacity(capacity) }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the set holds no items.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }

    /// Removes every item, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

impl<T: Hash + Eq> DetHashSet<T> {
    /// Inserts an item; returns `true` when it was not already present.
    pub fn insert(&mut self, item: T) -> bool {
        self.map.insert(item, ()).is_none()
    }

    /// Returns `true` when `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.map.contains_key(item)
    }

    /// Removes and yields every item in insertion order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.map.drain().map(|(item, ())| item)
    }
}

impl<T: Hash + Eq> FromIterator<T> for DetHashSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = Self::new();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_follows_insertion_order() {
        let mut map: DetHashMap<u64, u64> = DetHashMap::new();
        let keys: Vec<u64> = (0u64..1000).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
        for (position, &key) in keys.iter().enumerate() {
            map.insert(key, position as u64);
        }
        let seen: Vec<u64> = map.keys().copied().collect();
        assert_eq!(seen, keys);
        let values: Vec<u64> = map.values().copied().collect();
        assert_eq!(values, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn reinserting_entries_in_iteration_order_reproduces_the_order() {
        // The checkpoint/restore property: serialize = iterate, restore =
        // re-insert, and the restored map must iterate identically.
        let mut original: DetHashMap<u64, f64> = DetHashMap::new();
        for i in 0..5000u64 {
            original.insert(i.wrapping_mul(0x2545f4914f6cdd1d) ^ (i >> 3), i as f64 * 0.5);
        }
        let snapshot: Vec<(u64, f64)> = original.iter().map(|(k, v)| (*k, *v)).collect();
        let mut restored: DetHashMap<u64, f64> = DetHashMap::with_capacity(snapshot.len());
        for (k, v) in &snapshot {
            restored.insert(*k, *v);
        }
        let restored_entries: Vec<(u64, f64)> = restored.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(snapshot, restored_entries);
        // The order-sensitive fold the monitor relies on must agree bit-wise.
        let a: f64 = original.values().sum();
        let b: f64 = restored.values().sum();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn insert_returns_previous_value_and_keeps_position() {
        let mut map = DetHashMap::new();
        assert_eq!(map.insert(1u64, "a"), None);
        assert_eq!(map.insert(2, "b"), None);
        assert_eq!(map.insert(1, "c"), Some("a"));
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(map.get(&1), Some(&"c"));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn entry_api_matches_std_semantics() {
        let mut map: DetHashMap<u32, u32> = DetHashMap::new();
        if let Entry::Vacant(vacant) = map.entry(7) {
            assert_eq!(*vacant.key(), 7);
            vacant.insert(1);
        } else {
            panic!("expected vacant");
        }
        match map.entry(7) {
            Entry::Occupied(mut occupied) => {
                assert_eq!(*occupied.get(), 1);
                *occupied.get_mut() += 10;
                assert_eq!(occupied.insert(99), 11);
            }
            Entry::Vacant(_) => panic!("expected occupied"),
        }
        *map.entry(8).or_insert(0) += 5;
        *map.entry(8).or_insert(0) += 5;
        assert_eq!(map.get(&8), Some(&10));
        assert_eq!(*map.entry(9).or_insert_with(|| 42), 42);
        assert_eq!(map.get(&7), Some(&99));
    }

    #[test]
    fn positions_are_insertion_ranks_and_survive_growth() {
        let mut map: DetHashMap<u64, f64> = DetHashMap::new();
        assert_eq!(map.position_or_insert(7, 0.0), (0, true));
        assert_eq!(map.position_or_insert(9, 0.0), (1, true));
        *map.value_at_mut(0) += 1.5;
        // Enough keys to reindex several times: the early positions hold.
        for key in 100..2_000u64 {
            map.position_or_insert(key, key as f64);
        }
        assert_eq!(map.position_or_insert(7, -1.0), (0, false), "a present key keeps its value");
        assert_eq!(map.position_or_insert(9, -1.0), (1, false));
        assert_eq!(map.get(&7), Some(&1.5));
        assert_eq!(map.position_or_insert(1_999, 0.0), (1_901, false));
        *map.value_at_mut(1_901) += 1.0;
        assert_eq!(map.get(&1_999), Some(&2_000.0));
        map.clear();
        assert_eq!(map.position_or_insert(9, 0.0), (0, true), "positions restart after a clear");
    }

    #[test]
    fn drain_yields_insertion_order_and_empties_the_map() {
        let mut map = DetHashMap::new();
        for i in (0..100u64).rev() {
            map.insert(i, i * 2);
        }
        let drained: Vec<(u64, u64)> = map.drain().collect();
        assert_eq!(drained.first(), Some(&(99, 198)));
        assert_eq!(drained.len(), 100);
        assert!(map.is_empty());
        // The map is fully reusable after a drain.
        map.insert(5, 1);
        assert_eq!(map.get(&5), Some(&1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn clear_resets_lookup_state() {
        let mut map = DetHashMap::new();
        for i in 0..50u64 {
            map.insert(i, i);
        }
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(&10), None);
        for i in 0..50u64 {
            map.insert(i, i + 1);
        }
        assert_eq!(map.get(&10), Some(&11));
    }

    #[test]
    fn set_tracks_membership_in_insertion_order() {
        let mut set = DetHashSet::new();
        assert!(set.insert(3u64));
        assert!(set.insert(1));
        assert!(!set.insert(3));
        assert!(set.contains(&1));
        assert!(!set.contains(&2));
        assert_eq!(set.iter().copied().collect::<Vec<_>>(), vec![3, 1]);
        let drained: Vec<u64> = set.drain().collect();
        assert_eq!(drained, vec![3, 1]);
        assert!(set.is_empty());
        assert!(set.insert(3));
    }

    #[test]
    fn tuple_and_composite_keys_work() {
        let mut map: DetHashMap<(u32, u8), f64> = DetHashMap::new();
        *map.entry((0x0a000000, 8)).or_insert(0.0) += 1.5;
        *map.entry((0x0a000000, 16)).or_insert(0.0) += 2.5;
        *map.entry((0x0a000000, 8)).or_insert(0.0) += 1.0;
        assert_eq!(map.get(&(0x0a000000, 8)), Some(&2.5));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn growth_keeps_all_entries_reachable() {
        let mut map = DetHashMap::with_capacity(4);
        for i in 0..10_000u64 {
            map.insert(i ^ 0xdead, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(map.get(&(i ^ 0xdead)), Some(&i), "lost key {i}");
        }
    }
}
