//! Per-key version counters for the write path.
//!
//! The simulator bumps a key's version when a client issues a `SET`
//! (`Core::generate`), before any replica applies the write; replicas
//! keep no versions. A cached value is stale exactly when the version it
//! was captured at is older than the table's. The table is the one
//! version the in-switch hot-key caches are compared against for
//! stale-read accounting; ROADMAP item 23 is the model change that would
//! keep versions at the replicas and advance them on acknowledgement.
//!
//! Storage is a bounded open-addressed map whose slots store the `u32`
//! key and are probed from its 64-bit `hash64`: the write path touches
//! it on every `SET` and every cache hit check, so it reuses the
//! ring-slab idea of the simulator's dense tables rather than a
//! `HashMap`. Unversioned keys implicitly sit at version 0, so only
//! written keys occupy slots.
//!
//! A validated `SimConfig` has `keys <= u32::MAX` and `requests <=
//! u32::MAX`, and every write is one request, so a slot stores both the
//! key and its version as `u32`: 8 bytes. The API keeps `u64` keys and
//! narrows at the slot.

use crate::{hash64, key_rank};

/// The key of an empty slot. Workload keys are Zipf ranks, `1..=keys`,
/// so no written key is 0 and a slot needs no tag beside its key.
const EMPTY: u32 = 0;

/// Per-key version counters: key `→` number of committed writes.
///
/// Keys that were never written report version 0 without occupying a
/// slot, so memory is proportional to the *written* key population.
/// Key 0 cannot be written: it marks an empty slot.
#[derive(Debug, Clone, Default)]
pub struct VersionTable {
    /// `(key, version)`, `(EMPTY, 0)` when vacant.
    slots: Vec<(u32, u32)>,
    mask: u64,
    len: usize,
    writes: u64,
}

impl VersionTable {
    /// Bytes of one slot: a key and its version, no tag or padding.
    pub const SLOT_BYTES: usize = std::mem::size_of::<(u32, u32)>();

    /// An empty table sized for at least `cap` written keys.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(16).next_power_of_two();
        VersionTable {
            slots: vec![(EMPTY, 0); cap],
            mask: cap as u64 - 1,
            len: 0,
            writes: 0,
        }
    }

    #[inline]
    fn probe(&self, key: u32) -> usize {
        (hash64(u64::from(key)) & self.mask) as usize
    }

    /// The committed version of `key` (0 when never written).
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    #[must_use]
    pub fn get(&self, key: u64) -> u32 {
        let key = key_rank(key);
        if self.slots.is_empty() {
            return 0;
        }
        let mut i = self.probe(key);
        loop {
            // An empty slot holds version 0, so `get(EMPTY)` needs no
            // case of its own.
            match self.slots[i] {
                (k, v) if k == key => return v,
                (EMPTY, _) => return 0,
                _ => i = (i + 1) & self.mask as usize,
            }
        }
    }

    /// Commits one write to `key`, returning the new version (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `key` is 0, the empty-slot marker, or exceeds
    /// `u32::MAX`, and if the key's version would pass `u32::MAX` (more
    /// writes than a validated config issues requests).
    pub fn bump(&mut self, key: u64) -> u32 {
        let key = key_rank(key);
        assert_ne!(key, EMPTY, "key 0 marks an empty version slot");
        if self.slots.is_empty() {
            *self = VersionTable::with_capacity(16);
        }
        self.writes += 1;
        let mut i = self.probe(key);
        loop {
            match &mut self.slots[i] {
                (k, v) if *k == key => {
                    *v = v
                        .checked_add(1)
                        .expect("versions count writes <= SimConfig::requests <= u32::MAX");
                    return *v;
                }
                (EMPTY, _) => break,
                _ => i = (i + 1) & self.mask as usize,
            }
        }
        // Keep the load factor under 1/2 so probes stay short.
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            i = self.probe(key);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & self.mask as usize;
            }
        }
        self.slots[i] = (key, 1);
        self.len += 1;
        1
    }

    /// Number of distinct keys ever written.
    #[must_use]
    pub fn keys_written(&self) -> usize {
        self.len
    }

    /// Total writes committed across all keys.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); cap]);
        self.mask = cap as u64 - 1;
        for entry in old.into_iter().filter(|&(k, _)| k != EMPTY) {
            let mut i = (hash64(u64::from(entry.0)) & self.mask) as usize;
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & self.mask as usize;
            }
            self.slots[i] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_keys_are_version_zero() {
        let t = VersionTable::default();
        assert_eq!(t.get(42), 0);
        assert_eq!(t.keys_written(), 0);
        assert_eq!(t.total_writes(), 0);
    }

    #[test]
    fn bump_is_a_per_key_counter() {
        let mut t = VersionTable::with_capacity(4);
        assert_eq!(t.bump(7), 1);
        assert_eq!(t.bump(7), 2);
        assert_eq!(t.bump(9), 1);
        assert_eq!(t.get(7), 2);
        assert_eq!(t.get(9), 1);
        assert_eq!(t.get(8), 0);
        assert_eq!(t.keys_written(), 2);
        assert_eq!(t.total_writes(), 3);
    }

    #[test]
    fn grows_past_initial_capacity_without_losing_versions() {
        let mut t = VersionTable::with_capacity(4);
        for key in 1..=1000u64 {
            assert_eq!(t.bump(key), 1);
        }
        for key in 1..=1000u64 {
            assert_eq!(t.get(key), 1, "key {key} lost in growth");
        }
        assert_eq!(t.keys_written(), 1000);
        // Second round: versions advance independently.
        for key in (1..=1000u64).step_by(3) {
            assert_eq!(t.bump(key), 2);
        }
        assert_eq!(t.get(998), 1);
        assert_eq!(t.get(4), 2);
    }

    #[test]
    fn the_lowest_zipf_rank_is_a_key_and_zero_is_the_empty_marker() {
        let mut t = VersionTable::with_capacity(4);
        assert_eq!(t.get(0), 0, "probing for the marker finds an empty slot");
        assert_eq!(t.bump(1), 1);
        let top = u64::from(u32::MAX);
        assert_eq!(t.bump(top), 1);
        assert_eq!((t.get(1), t.get(top), t.get(0)), (1, 1, 0));
        assert_eq!(t.keys_written(), 2);
    }

    #[test]
    #[should_panic(expected = "keys are Zipf ranks")]
    fn a_key_past_u32_max_panics_instead_of_aliasing_a_rank() {
        // Truncated, it would be key 0, the empty marker's slot.
        VersionTable::default().bump(u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "versions count writes")]
    fn a_version_past_u32_max_panics_instead_of_wrapping_to_zero() {
        let mut t = VersionTable::with_capacity(4);
        t.bump(7);
        let slot = t.slots.iter_mut().find(|(k, _)| *k == 7).expect("written");
        slot.1 = u32::MAX;
        t.bump(7);
    }

    #[test]
    #[should_panic(expected = "key 0 marks an empty version slot")]
    fn writing_key_zero_panics() {
        VersionTable::default().bump(0);
    }
}
