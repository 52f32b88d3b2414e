//! Dense, hash-free state tables for the simulator hot path.
//!
//! The event loop touches per-request and per-switch state on every
//! packet; `HashMap` put a SipHash round and a cache-hostile probe on
//! that path, and its unordered iteration forced sort-before-iterate
//! workarounds wherever float summation order mattered. Both tables here
//! exploit structure the simulator guarantees:
//!
//! * [`RequestTable`] — request ids are the monotonically increasing
//!   issue index, and the young end of the in-flight window is dense, so
//!   `id & mask` over a power-of-two ring holds it without collisions.
//!   The old end is not dense: a completed read can keep one copy queued
//!   at an overloaded replica for seconds, thousands of ids behind the
//!   window. When a new id finds its slot held by such a straggler the
//!   straggler moves to a small overflow map keyed by id, and the ring
//!   doubles only when the live entries would fill more than half of it
//!   (ids a ≡ b mod 2n implies a ≡ b mod n, so ring entries never
//!   re-collide). The table is therefore sized by what is live — never
//!   more ring slots than the larger of its initial capacity and
//!   `4 × live high water`, and no more overflow entries than were ever
//!   live — not by the id span back to the oldest straggler. Lookups
//!   probe the ring first and the overflow only on a ring miss while it
//!   holds anything.
//! * [`SwitchTable`] — switch ids are dense (`0..num_switches`), so a
//!   `Vec<Option<T>>` plus a sorted occupancy list gives O(1) access and
//!   naturally ascending iteration, which *is* the determinism contract
//!   the old sort workarounds bolted onto `HashMap`.

use netrs_topology::SwitchId;

use crate::perf::RequestTableStats;

/// Ring-slab keyed by the monotonically increasing request id, with an
/// overflow map for the stragglers the ring has lapped.
#[derive(Debug, Clone)]
pub(crate) struct RequestTable<T> {
    /// Power-of-two slot ring; each occupied slot stores the exact id it
    /// holds so stale slots never alias a different request.
    slots: Vec<Option<(u64, T)>>,
    mask: u64,
    /// Live entries, ring and overflow together.
    len: usize,
    overflow: Overflow<T>,
    live_high_water: usize,
    overflow_high_water: usize,
}

impl<T> RequestTable<T> {
    /// At least `cap` slots (rounded up to a power of two). The table
    /// grows itself when the live entries outgrow the ring.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(16).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        RequestTable {
            slots,
            mask: cap as u64 - 1,
            len: 0,
            overflow: Overflow::default(),
            live_high_water: 0,
            overflow_high_water: 0,
        }
    }

    #[inline]
    fn slot(&self, id: u64) -> usize {
        (id & self.mask) as usize
    }

    /// Stores `value` under `id`. Ids are issued once and in increasing
    /// order, so `id` is never one the ring has already lapped.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        debug_assert!(
            self.overflow.len == 0 || self.overflow.get(id).is_none(),
            "request id {id} inserted after the ring lapped it"
        );
        while matches!(&self.slots[self.slot(id)], Some((other, _)) if *other != id) {
            // Every live entry counts, lapped ones too: strided ids
            // (replica mode issues `shard + k·shards`) reach only every
            // `shards`-th slot and could never half-fill the ring alone.
            if self.len * 2 > self.slots.len() {
                self.grow();
            } else {
                // The ring has room for what is live: the occupant is a
                // straggler the window has lapped.
                let s = self.slot(id);
                let (old, v) = self.slots[s].take().expect("slot matched as occupied");
                self.overflow.insert(old, v);
                self.overflow_high_water = self.overflow_high_water.max(self.overflow.len);
            }
        }
        let s = self.slot(id);
        if self.slots[s].replace((id, value)).is_none() {
            self.len += 1;
            self.live_high_water = self.live_high_water.max(self.len);
        }
    }

    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        match &self.slots[self.slot(id)] {
            Some((stored, v)) if *stored == id => Some(v),
            _ if self.overflow.len != 0 => self.overflow.get(id),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let s = self.slot(id);
        match &mut self.slots[s] {
            Some((stored, v)) if *stored == id => Some(v),
            _ if self.overflow.len != 0 => self.overflow.get_mut(id),
            _ => None,
        }
    }

    #[inline]
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let s = self.slot(id);
        let removed = match &self.slots[s] {
            Some((stored, _)) if *stored == id => self.slots[s].take().map(|(_, v)| v),
            _ if self.overflow.len != 0 => self.overflow.remove(id),
            _ => None,
        };
        self.len -= usize::from(removed.is_some());
        removed
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How big the table got, for the run's host profile.
    pub(crate) fn stats(&self) -> RequestTableStats {
        RequestTableStats {
            slots: self.slots.len() as u64,
            live_high_water: self.live_high_water as u64,
            overflow_high_water: self.overflow_high_water as u64,
        }
    }

    /// Doubles the ring. Overflow entries stay where they are: they are
    /// old, and the window would lap them again.
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap as u64 - 1;
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        for (id, v) in self.slots.drain(..).flatten() {
            let s = (id & mask) as usize;
            debug_assert!(slots[s].is_none(), "doubling cannot introduce collisions");
            slots[s] = Some((id, v));
        }
        self.slots = slots;
        self.mask = mask;
    }
}

/// The entries a [`RequestTable`]'s ring has lapped: an open-addressing
/// map (linear probing, backward-shift deletion, at most half full) that
/// stores entries in its buckets, so a bucket vacated by one straggler is
/// the next one's and nothing is allocated below the high-water mark.
#[derive(Debug, Clone)]
struct Overflow<T> {
    /// Empty until the first straggler, then a power of two long.
    buckets: Vec<Option<(u64, T)>>,
    len: usize,
}

impl<T> Default for Overflow<T> {
    fn default() -> Self {
        Overflow {
            buckets: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Overflow<T> {
    /// Home bucket of `id` among `buckets` (a power of two): Fibonacci
    /// hashing, because lapped ids are congruent modulo the ring size and
    /// their low bits alone would pile into one probe run.
    fn home(id: u64, buckets: usize) -> usize {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - buckets.trailing_zeros())) as usize
    }

    /// The bucket holding `id`. Callers check `len != 0` first, so there
    /// are buckets to probe.
    fn find(&self, id: u64) -> Option<usize> {
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(id, self.buckets.len());
        loop {
            match &self.buckets[b] {
                None => return None,
                Some((stored, _)) if *stored == id => return Some(b),
                Some(_) => b = (b + 1) & mask,
            }
        }
    }

    fn get(&self, id: u64) -> Option<&T> {
        let b = self.find(id)?;
        self.buckets[b].as_ref().map(|(_, v)| v)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let b = self.find(id)?;
        self.buckets[b].as_mut().map(|(_, v)| v)
    }

    /// Stores an absent `id`.
    fn insert(&mut self, id: u64, value: T) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let cap = (self.buckets.len() * 2).max(16);
            let mut grown = Vec::with_capacity(cap);
            grown.resize_with(cap, || None);
            for entry in std::mem::replace(&mut self.buckets, grown)
                .into_iter()
                .flatten()
            {
                self.place(entry);
            }
        }
        self.place((id, value));
        self.len += 1;
    }

    /// Puts `entry` in the first vacant bucket of its probe run.
    fn place(&mut self, entry: (u64, T)) {
        let mask = self.buckets.len() - 1;
        let mut b = Self::home(entry.0, self.buckets.len());
        while self.buckets[b].is_some() {
            b = (b + 1) & mask;
        }
        self.buckets[b] = Some(entry);
    }

    fn remove(&mut self, id: u64) -> Option<T> {
        let mut hole = self.find(id)?;
        let (_, value) = self.buckets[hole].take()?;
        self.len -= 1;
        // Shift later members of the probe run back over the hole so no
        // run is ever broken (no tombstones to clean up).
        let mask = self.buckets.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let Some((moved, _)) = &self.buckets[b] else {
                break;
            };
            let home = Self::home(*moved, self.buckets.len());
            // The entry may fill the hole unless its home lies cyclically
            // after the hole (it would become unreachable).
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.buckets[hole] = self.buckets[b].take();
                hole = b;
            }
        }
        Some(value)
    }
}

/// `Vec<Option<T>>` keyed by [`SwitchId`], with a sorted occupancy list
/// so iteration runs in ascending switch order — the order every
/// float-summing consumer needs for run-to-run determinism.
#[derive(Debug, Clone)]
pub(crate) struct SwitchTable<T> {
    slots: Vec<Option<T>>,
    /// Occupied switch ids, kept sorted ascending.
    occupied: Vec<SwitchId>,
}

impl<T> SwitchTable<T> {
    /// A table covering switch ids `0..num_switches`.
    pub(crate) fn new(num_switches: u32) -> Self {
        let mut slots = Vec::with_capacity(num_switches as usize);
        slots.resize_with(num_switches as usize, || None);
        SwitchTable {
            slots,
            occupied: Vec::new(),
        }
    }

    #[inline]
    fn idx(sw: SwitchId) -> usize {
        sw.0 as usize
    }

    pub(crate) fn insert(&mut self, sw: SwitchId, value: T) -> Option<T> {
        let prev = self.slots[Self::idx(sw)].replace(value);
        if prev.is_none() {
            let at = self.occupied.partition_point(|&s| s < sw);
            self.occupied.insert(at, sw);
        }
        prev
    }

    pub(crate) fn remove(&mut self, sw: SwitchId) -> Option<T> {
        let prev = self.slots[Self::idx(sw)].take();
        if prev.is_some() {
            let at = self.occupied.partition_point(|&s| s < sw);
            self.occupied.remove(at);
        }
        prev
    }

    #[inline]
    #[allow(dead_code)] // API symmetry with `get_mut`; exercised in tests
    pub(crate) fn get(&self, sw: SwitchId) -> Option<&T> {
        self.slots[Self::idx(sw)].as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, sw: SwitchId) -> Option<&mut T> {
        self.slots[Self::idx(sw)].as_mut()
    }

    pub(crate) fn get_or_insert_with(&mut self, sw: SwitchId, f: impl FnOnce() -> T) -> &mut T {
        if self.slots[Self::idx(sw)].is_none() {
            self.insert(sw, f());
        }
        self.slots[Self::idx(sw)].as_mut().expect("just ensured")
    }

    pub(crate) fn len(&self) -> usize {
        self.occupied.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Occupied switch ids in ascending order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.occupied.iter().copied()
    }

    /// Entries in ascending switch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SwitchId, &T)> + '_ {
        self.occupied
            .iter()
            .map(|&sw| (sw, self.slots[Self::idx(sw)].as_ref().expect("occupied")))
    }

    /// Mutable entries in ascending switch order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SwitchId, &mut T)> + '_ {
        let occupied = &self.occupied;
        // Walk the slots alongside the sorted occupancy list; the list
        // holds distinct indices so each slot is yielded at most once.
        let mut next = 0;
        self.slots.iter_mut().enumerate().filter_map(move |(i, v)| {
            if next < occupied.len() && Self::idx(occupied[next]) == i {
                next += 1;
                Some((SwitchId(i as u32), v.as_mut().expect("occupied")))
            } else {
                None
            }
        })
    }

    /// Values in ascending switch order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Empties the table, yielding entries in ascending switch order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (SwitchId, T)> + '_ {
        let slots = &mut self.slots;
        self.occupied
            .drain(..)
            .map(|sw| (sw, slots[Self::idx(sw)].take().expect("occupied")))
    }

    /// The id range this table covers (`0..capacity`).
    pub(crate) fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Rebuilds the table from an unordered map (a controller `deploy`
    /// boundary); dense storage makes the input order irrelevant.
    pub(crate) fn from_map(num_switches: u32, map: std::collections::HashMap<SwitchId, T>) -> Self {
        let mut table = SwitchTable::new(num_switches);
        for (sw, v) in map {
            table.insert(sw, v);
        }
        table
    }

    /// Replaces every entry with the map's contents, keeping the
    /// allocated slots.
    pub(crate) fn reset_from_map(&mut self, map: std::collections::HashMap<SwitchId, T>) {
        for s in &mut self.slots {
            *s = None;
        }
        self.occupied.clear();
        for (sw, v) in map {
            self.insert(sw, v);
        }
    }
}

impl<T> std::ops::Index<SwitchId> for SwitchTable<T> {
    type Output = T;

    fn index(&self, sw: SwitchId) -> &T {
        self.slots[Self::idx(sw)]
            .as_ref()
            .expect("indexed switch has an entry")
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The table is a map, and stays the size of what is live: under
        /// monotonically increasing inserts, a sliding removal window,
        /// stragglers removed late or never, and probes of present,
        /// stale, absent and far-future ids it answers exactly as a
        /// `BTreeMap` does, and its ring never exceeds four times the
        /// live high water (the doubling-only table this replaced grew
        /// with the id span back to the oldest straggler).
        #[test]
        fn request_table_matches_a_map_and_stays_the_size_of_what_is_live(
            window in 1usize..48,
            straggler_every in 2u64..12,
            ops in collection::vec((0u8..10, any::<u64>()), 1..600),
        ) {
            let mut table: RequestTable<u64> = RequestTable::with_capacity(1);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut young: VecDeque<u64> = VecDeque::new();
            let mut stragglers: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let mut high_water = 0usize;
            for (i, (op, arg)) in ops.into_iter().enumerate() {
                // An id the probe ops aim at: present, stale or never
                // issued, a few past the newest, or far in the future.
                let aimed = match arg % 4 {
                    0 => model.keys().nth((arg / 4) as usize % model.len().max(1)).copied(),
                    1 => Some((arg / 4) % (next_id + 1)),
                    2 => Some(next_id + (arg / 4) % 4),
                    _ => Some(next_id + arg / 4),
                }
                .unwrap_or(next_id);
                match op {
                    0..=4 => {
                        table.insert(next_id, next_id * 7);
                        model.insert(next_id, next_id * 7);
                        high_water = high_water.max(model.len());
                        if arg % straggler_every == 0 {
                            stragglers.push(next_id);
                        } else {
                            young.push_back(next_id);
                        }
                        next_id += 1;
                        while young.len() > window {
                            let old = young.pop_front().expect("non-empty");
                            prop_assert_eq!(table.remove(old), model.remove(&old), "op {}", i);
                        }
                    }
                    5 if !stragglers.is_empty() => {
                        let late = stragglers.swap_remove(arg as usize % stragglers.len());
                        prop_assert_eq!(table.remove(late), model.remove(&late), "op {}", i);
                    }
                    6 => {
                        prop_assert_eq!(table.get(aimed), model.get(&aimed), "op {}", i);
                        prop_assert_eq!(table.contains(aimed), model.contains_key(&aimed));
                    }
                    7 => {
                        let (got, want) = (table.get_mut(aimed), model.get_mut(&aimed));
                        prop_assert_eq!(got.as_deref(), want.as_deref(), "op {}", i);
                        if let (Some(got), Some(want)) = (got, want) {
                            *got += 1;
                            *want += 1;
                        }
                    }
                    _ => prop_assert_eq!(table.remove(aimed), model.remove(&aimed), "op {}", i),
                }
                prop_assert_eq!(table.len(), model.len(), "op {}", i);
                prop_assert_eq!(table.is_empty(), model.is_empty());
                let stats = table.stats();
                prop_assert_eq!(stats.live_high_water, high_water as u64);
                prop_assert!(stats.overflow_high_water <= stats.live_high_water);
                prop_assert!(
                    stats.slots <= 4 * high_water.max(16) as u64,
                    "op {}: {} slots for a live high water of {}", i, stats.slots, high_water
                );
            }
            for (id, v) in &model {
                prop_assert_eq!(table.get(*id), Some(v));
            }
        }
    }

    #[test]
    fn request_table_moves_lapped_stragglers_aside_instead_of_growing() {
        let mut t: RequestTable<u64> = RequestTable::with_capacity(16);
        t.insert(0, 100); // never removed: the window laps it again and again
        for id in 1u64..10_000 {
            t.insert(id, id);
            if id >= 5 {
                assert_eq!(t.remove(id - 4), Some(id - 4));
            }
        }
        assert_eq!(t.get(0), Some(&100));
        assert_eq!(t.len(), 5);
        let stats = t.stats();
        assert_eq!((stats.slots, stats.overflow_high_water), (16, 1));
        assert_eq!(t.remove(0), Some(100));
        assert!(!t.contains(0));
    }

    #[test]
    fn request_table_basic_ops() {
        let mut t: RequestTable<u64> = RequestTable::with_capacity(4);
        assert!(t.is_empty());
        for id in 0..100 {
            t.insert(id, id * 10);
        }
        assert_eq!(t.len(), 100, "grows past the initial capacity");
        for id in 0..100 {
            assert_eq!(t.get(id), Some(&(id * 10)));
            assert!(t.contains(id));
        }
        assert_eq!(t.get(100), None);
        *t.get_mut(7).unwrap() = 99;
        assert_eq!(t.remove(7), Some(99));
        assert_eq!(t.remove(7), None);
        assert!(!t.contains(7));
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn request_table_ring_reuse_keeps_ids_distinct() {
        // A sliding in-flight window over monotonically increasing ids —
        // the simulator's actual access pattern — must never alias.
        let mut t: RequestTable<u64> = RequestTable::with_capacity(16);
        for id in 0u64..10_000 {
            t.insert(id, id);
            if id >= 8 {
                assert_eq!(t.remove(id - 8), Some(id - 8));
            }
            // An id far outside the window maps to some live slot but
            // must not be reported present.
            assert!(!t.contains(id + 1));
        }
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn switch_table_iterates_in_ascending_order() {
        let mut t: SwitchTable<&str> = SwitchTable::new(10);
        t.insert(SwitchId(7), "g");
        t.insert(SwitchId(2), "b");
        t.insert(SwitchId(5), "e");
        assert_eq!(
            t.keys().collect::<Vec<_>>(),
            vec![SwitchId(2), SwitchId(5), SwitchId(7)]
        );
        assert_eq!(t.values().copied().collect::<Vec<_>>(), vec!["b", "e", "g"]);
        assert_eq!(
            t.iter_mut().map(|(sw, v)| (sw, *v)).collect::<Vec<_>>(),
            vec![(SwitchId(2), "b"), (SwitchId(5), "e"), (SwitchId(7), "g")]
        );
        assert_eq!(t.insert(SwitchId(5), "E"), Some("e"));
        assert_eq!(t.len(), 3);
        assert_eq!(t[SwitchId(5)], "E");
        assert_eq!(t.remove(SwitchId(5)), Some("E"));
        assert_eq!(t.get(SwitchId(5)), None);
        assert_eq!(
            t.drain().collect::<Vec<_>>(),
            vec![(SwitchId(2), "b"), (SwitchId(7), "g")]
        );
        assert!(t.is_empty());
    }

    #[test]
    fn switch_table_get_or_insert_with() {
        let mut t: SwitchTable<u32> = SwitchTable::new(4);
        *t.get_or_insert_with(SwitchId(3), || 1) += 10;
        *t.get_or_insert_with(SwitchId(3), || 1) += 10;
        assert_eq!(t[SwitchId(3)], 21, "the closure runs only once");
    }
}
