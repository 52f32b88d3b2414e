//! The in-switch hot-key cache attached to an RSNode operator.
//!
//! TurboKV and NetChain (see PAPERS.md) both point at the same idea: a
//! programmable switch that already sits on the request path can answer
//! the hottest keys itself, at sub-server-RTT latency and zero server
//! load. NetRS RSNodes are exactly such a vantage point — every steered
//! `GET` and every cloned response already traverses the operator — so
//! the cache rides the existing data path: it is *populated* from
//! observed responses and *consulted* before replica selection.
//!
//! Coherence is write-driven. A `SET` to a cached key emits a coherence
//! message toward the owning RSNode; under `Invalidate` the entry is
//! dropped, under `Through` it is refreshed in place with the new
//! committed version. Either way the message travels the real (lossy)
//! network, so a lost message leaves a *stale* entry behind — served
//! hits are compared against the store's committed version and counted
//! as `stale_hits` when the cache lagged.
//!
//! Everything here is deterministic: recency is the order of the last
//! touch (a hit or an admission, not wall clock), kept as an intrusive
//! doubly-linked list through the entry slab so a hit, an admission, a
//! coherence message and an eviction each cost O(1); the
//! frequency-admission sketch is a fixed-width count-min over the key
//! hash.
//!
//! Keys are Zipf ranks and versions count writes, and a validated
//! `SimConfig` bounds both by `u32::MAX` (`keys` and `requests`), so a
//! slot stores them as `u32`. A cache holds at most
//! [`HotKeyCache::MAX_CAPACITY`] (65 535) entries, so slot ids and the
//! index buckets that name them are `u16`: a slot is 16 bytes with its
//! origin and two list links. The public API keeps `u64` keys and
//! narrows at the slot.

use netrs_kvstore::{hash64, key_rank, ServerId};
use serde::{Deserialize, Serialize};

/// How keys earn a slot in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheAdmission {
    /// Every observed response is admitted; capacity pressure evicts the
    /// least-recently-used entry.
    Lru,
    /// A key is admitted only once the admission sketch has seen it at
    /// least `threshold` times — scan-resistant, keeps one-hit wonders
    /// out of a small cache.
    Frequency {
        /// Observations required before a key may enter the cache.
        threshold: u32,
    },
}

/// How writes keep the cache coherent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheWritePolicy {
    /// The coherence message removes the cached entry; the next `GET`
    /// misses and repopulates from a server response.
    Invalidate,
    /// The coherence message refreshes the cached entry in place with
    /// the newly committed version, so the key keeps serving from the
    /// switch across writes.
    Through,
}

impl std::str::FromStr for CacheAdmission {
    type Err = String;

    /// Parses the CLI form: `lru` or `freq:N`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lru" => Ok(CacheAdmission::Lru),
            _ => s
                .strip_prefix("freq:")
                .and_then(|n| n.parse().ok())
                .map(|threshold| CacheAdmission::Frequency { threshold })
                .ok_or_else(|| "want lru or freq:N".into()),
        }
    }
}

impl std::str::FromStr for CacheWritePolicy {
    type Err = String;

    /// Parses the CLI form: `invalidate` or `through`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "invalidate" => Ok(CacheWritePolicy::Invalidate),
            "through" => Ok(CacheWritePolicy::Through),
            _ => Err("want invalidate or through".into()),
        }
    }
}

/// Hot-key cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotCacheConfig {
    /// Maximum number of cached keys per operator.
    pub capacity: usize,
    /// Admission policy.
    pub admission: CacheAdmission,
    /// Coherence policy applied by write-driven messages.
    pub write_policy: CacheWritePolicy,
}

impl Default for HotCacheConfig {
    fn default() -> Self {
        HotCacheConfig {
            capacity: 256,
            admission: CacheAdmission::Lru,
            write_policy: CacheWritePolicy::Invalidate,
        }
    }
}

/// One cached key: the version it was captured at and the server whose
/// response populated it (the hit is attributed to that origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Committed version of the value at capture time.
    pub version: u32,
    /// The server whose response populated the entry.
    pub origin: ServerId,
}

/// What [`HotKeyCache::admit`] made of an offered response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Frequency admission turned the key away; nothing changed.
    Refused,
    /// The key is cached: refreshed in place, or inserted without
    /// displacing another.
    Cached,
    /// The key is cached in place of the least-recently-used entry,
    /// which was evicted.
    Evicted,
}

/// Aggregate cache counters. `hits + misses` equals the `GET`s the
/// cache was consulted for, by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the switch.
    pub hits: u64,
    /// Lookups that fell through to replica selection.
    pub misses: u64,
    /// Hits served with a version older than the store's committed one
    /// (a coherence message was lost or still in flight).
    pub stale_hits: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Coherence messages that found (and removed or refreshed) a
    /// cached entry.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total `GET`s the cache was consulted for.
    #[must_use]
    pub fn gets_seen(&self) -> u64 {
        self.hits + self.misses
    }

    /// Folds another operator's counters into this one.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stale_hits += other.stale_hits;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

/// Width of the count-min admission sketch (two rows of this many
/// counters). Fixed so the switch-side memory model stays bounded.
const SKETCH_WIDTH: usize = 1024;

/// Presence-filter bits per unit of capacity (1 KB at 1 024 entries).
/// With at most `capacity` live keys and `capacity` stale bits between
/// rebuilds, at most one bit in four is set.
const FILTER_BITS_PER_ENTRY: usize = 8;

/// "No slot" on the recency and free lists.
const NIL: u16 = u16::MAX;

/// A vacant index bucket. Buckets store slot id + 1, so an index that is
/// never written stays on the zero pages it was allocated on.
const VACANT: u16 = 0;

/// One slab slot: a cached key threaded on the recency list, or a freed
/// slot threaded on the free list through `next`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u32,
    entry: CacheEntry,
    /// Toward the most recently used end.
    prev: u16,
    /// Toward the least recently used end.
    next: u16,
}

/// A bounded per-operator hot-key cache with deterministic LRU eviction
/// and optional frequency-sketch admission.
///
/// Entries live in a slab; an open-addressing index (linear probing,
/// backward-shift deletion, at most half full) maps keys to slots, and
/// the recency list runs `head` (most recent) → `tail` (eviction
/// victim). The slab is reserved and the index sized for `capacity` when
/// the cache is built, so no operation after [`HotKeyCache::new`] touches
/// the heap.
///
/// A write's coherence message reaches every operator and finds its key
/// cached at few of them, so [`HotKeyCache::apply_write`] first asks a
/// presence filter — one bit per key-hash class — that answers
/// "certainly absent" without touching the index. A key's bit is set
/// when it is inserted and stays set when it is removed (a stale bit is
/// a false positive that falls through to the real probe); every
/// `capacity` removals the filter is rebuilt from the recency list.
#[derive(Debug, Clone)]
pub struct HotKeyCache {
    cfg: HotCacheConfig,
    slots: Vec<Slot>,
    head: u16,
    tail: u16,
    free: u16,
    len: usize,
    /// Bucket → slot id + 1, [`VACANT`] when empty; a power of two long,
    /// at least twice `capacity`.
    index: Vec<u16>,
    /// Presence filter: a power of two of bits, at least
    /// [`FILTER_BITS_PER_ENTRY`] per unit of capacity. A clear bit means
    /// no key of that hash class is cached.
    filter: Vec<u64>,
    /// Removals since the filter was last rebuilt — an upper bound on its
    /// stale bits.
    removed_since_rebuild: usize,
    stats: CacheStats,
    /// Count-min sketch rows for `Frequency` admission; empty under LRU.
    sketch: Vec<u32>,
}

impl HotKeyCache {
    /// The largest capacity a cache can be built with: slot ids are
    /// `u16`, and `u16::MAX` is the "no slot" sentinel.
    pub const MAX_CAPACITY: usize = u16::MAX as usize;

    /// Bytes of one slab slot: key, version and origin as `u32`, and the
    /// two recency links as `u16`.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

    /// An empty cache with its slab, index and filter allocated for
    /// `cfg.capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero or above
    /// [`Self::MAX_CAPACITY`].
    #[must_use]
    pub fn new(cfg: HotCacheConfig) -> Self {
        assert!(cfg.capacity > 0, "hot-key cache needs capacity");
        assert!(
            cfg.capacity <= Self::MAX_CAPACITY,
            "hot-key cache capacity {} exceeds {} (u16 slot ids)",
            cfg.capacity,
            Self::MAX_CAPACITY
        );
        let sketch = match cfg.admission {
            CacheAdmission::Lru => Vec::new(),
            CacheAdmission::Frequency { .. } => vec![0; 2 * SKETCH_WIDTH],
        };
        let filter_bits = (cfg.capacity * FILTER_BITS_PER_ENTRY).next_power_of_two();
        HotKeyCache {
            cfg,
            slots: Vec::with_capacity(cfg.capacity),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            // At capacity the index is at most half full: short probe runs.
            index: vec![VACANT; (2 * cfg.capacity).next_power_of_two()],
            filter: vec![0; filter_bits.div_ceil(64)],
            removed_since_rebuild: 0,
            stats: CacheStats::default(),
            sketch,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &HotCacheConfig {
        &self.cfg
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Currently cached keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Consults the cache for a `GET`. A hit refreshes recency and
    /// returns the entry; a miss feeds the admission sketch. Exactly one
    /// of `hits`/`misses` is bumped per call.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn lookup(&mut self, key: u64) -> Option<CacheEntry> {
        let key = key_rank(key);
        if let Some((_, slot)) = self.find(key) {
            self.touch(slot);
            self.stats.hits += 1;
            Some(self.slots[slot as usize].entry)
        } else {
            self.stats.misses += 1;
            self.sketch_bump(key);
            None
        }
    }

    /// Records that a hit returned by [`HotKeyCache::lookup`] was stale
    /// against the store's committed version.
    pub fn note_stale(&mut self) {
        self.stats.stale_hits += 1;
    }

    /// Offers an observed response for admission, and reports whether
    /// the key is cached afterwards and whether that evicted an entry.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn admit(&mut self, key: u64, version: u32, origin: ServerId) -> AdmitOutcome {
        let key = key_rank(key);
        if let Some((_, slot)) = self.find(key) {
            // Refresh, never regress: a slower response for an older
            // version must not shadow a fresher entry.
            let e = &mut self.slots[slot as usize].entry;
            if version >= e.version {
                e.version = version;
                e.origin = origin;
            }
            self.touch(slot);
            return AdmitOutcome::Cached;
        }
        if let CacheAdmission::Frequency { threshold } = self.cfg.admission {
            if self.sketch_estimate(key) < threshold {
                return AdmitOutcome::Refused;
            }
        }
        let outcome = if self.len >= self.cfg.capacity {
            // The tail is the entry touched longest ago.
            let victim = self.tail;
            self.remove(victim);
            self.stats.evictions += 1;
            AdmitOutcome::Evicted
        } else {
            AdmitOutcome::Cached
        };
        self.insert(key, CacheEntry { version, origin });
        outcome
    }

    /// Applies a write-driven coherence message for `key` committed at
    /// `version`. Under `Invalidate` a present entry is removed; under
    /// `Through` it is refreshed in place. Returns `true` when an entry
    /// was present.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn apply_write(&mut self, key: u64, version: u32) -> bool {
        let key = key_rank(key);
        if !self.filter_test(key) {
            debug_assert!(self.find(key).is_none(), "filter false negative");
            return false;
        }
        let Some((bucket, slot)) = self.find(key) else {
            return false;
        };
        match self.cfg.write_policy {
            CacheWritePolicy::Invalidate => self.remove_at(bucket, slot),
            CacheWritePolicy::Through => {
                // A refresh is not a use: recency is untouched.
                let e = &mut self.slots[slot as usize].entry;
                if version >= e.version {
                    e.version = version;
                }
            }
        }
        self.stats.invalidations += 1;
        true
    }

    /// Drops every entry (operator fail-stop: switch memory is lost).
    /// Counters survive — they describe history, not contents.
    pub fn flush(&mut self) {
        self.slots.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
        self.len = 0;
        self.index.fill(VACANT);
        self.filter.fill(0);
        self.removed_since_rebuild = 0;
        self.sketch.fill(0);
    }

    // ---- key index ------------------------------------------------------

    /// Home bucket of `key` in an index of `buckets` (a power of two)
    /// buckets: Fibonacci hashing, the top bits of a golden-ratio
    /// multiply. Keys are workload key ids, not attacker-chosen, so a
    /// keyed hash buys nothing here.
    fn home(key: u32, buckets: usize) -> usize {
        (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - buckets.trailing_zeros()))
            as usize
    }

    /// The bucket and slot holding `key`, if cached.
    fn find(&self, key: u32) -> Option<(usize, u16)> {
        let mask = self.index.len() - 1;
        let mut b = Self::home(key, self.index.len());
        loop {
            let slot = match self.index[b] {
                VACANT => return None,
                stored => stored - 1,
            };
            if self.slots[slot as usize].key == key {
                return Some((b, slot));
            }
            b = (b + 1) & mask;
        }
    }

    /// Points the first vacant bucket of `key`'s probe run at `slot`.
    fn index_insert(&mut self, key: u32, slot: u16) {
        let mask = self.index.len() - 1;
        let mut b = Self::home(key, self.index.len());
        while self.index[b] != VACANT {
            b = (b + 1) & mask;
        }
        self.index[b] = slot + 1;
    }

    /// Vacates `bucket`, shifting later members of its probe run back so
    /// no run is ever broken by a hole (no tombstones to clean up).
    fn index_remove(&mut self, bucket: usize) {
        let mask = self.index.len() - 1;
        let mut hole = bucket;
        let mut b = bucket;
        loop {
            b = (b + 1) & mask;
            let stored = self.index[b];
            if stored == VACANT {
                break;
            }
            let home = Self::home(self.slots[stored as usize - 1].key, self.index.len());
            // The slot may fill the hole unless its home lies cyclically
            // after the hole (it would become unreachable).
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = stored;
                hole = b;
            }
        }
        self.index[hole] = VACANT;
    }

    // ---- presence filter ------------------------------------------------

    /// Word and bit of `key`'s hash class: its home among as many
    /// buckets as the filter has bits.
    fn filter_bit(&self, key: u32) -> (usize, u64) {
        let bit = Self::home(key, self.filter.len() * 64);
        (bit / 64, 1 << (bit % 64))
    }

    /// `false` only if `key` is certainly not cached.
    fn filter_test(&self, key: u32) -> bool {
        let (word, mask) = self.filter_bit(key);
        self.filter[word] & mask != 0
    }

    fn filter_set(&mut self, key: u32) {
        let (word, mask) = self.filter_bit(key);
        self.filter[word] |= mask;
    }

    /// Counts a removal and, once `capacity` of them have left stale bits
    /// behind, rebuilds the filter from the keys still cached: one list
    /// walk per `capacity` removals.
    fn filter_note_removal(&mut self) {
        self.removed_since_rebuild += 1;
        if self.removed_since_rebuild < self.cfg.capacity {
            return;
        }
        self.removed_since_rebuild = 0;
        self.filter.fill(0);
        let mut at = self.head;
        while at != NIL {
            let Slot { key, next, .. } = self.slots[at as usize];
            self.filter_set(key);
            at = next;
        }
    }

    // ---- slab + recency list --------------------------------------------

    /// Inserts an absent `key` as the most recently used entry. The
    /// caller has made room (`len < capacity`).
    fn insert(&mut self, key: u32, entry: CacheEntry) {
        let fresh = Slot {
            key,
            entry,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.free == NIL {
            // Below `capacity`, so within the reservation made by `new`,
            // and below the NIL sentinel (`new` caps the capacity).
            let slot = u16::try_from(self.slots.len()).expect("slot ids fit in u16");
            self.slots.push(fresh);
            slot
        } else {
            let slot = self.free;
            self.free = self.slots[slot as usize].next;
            self.slots[slot as usize] = fresh;
            slot
        };
        self.index_insert(key, slot);
        self.filter_set(key);
        self.link_front(slot);
        self.len += 1;
    }

    /// Removes the entry in `slot`.
    fn remove(&mut self, slot: u16) {
        let (bucket, _) = self
            .find(self.slots[slot as usize].key)
            .expect("every live slot is indexed");
        self.remove_at(bucket, slot);
    }

    /// Removes the entry in `slot`, known to be indexed at `bucket`.
    fn remove_at(&mut self, bucket: usize, slot: u16) {
        self.index_remove(bucket);
        self.unlink(slot);
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        self.filter_note_removal();
    }

    /// Marks `slot` most recently used.
    fn touch(&mut self, slot: u16) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    fn unlink(&mut self, slot: u16) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, slot: u16) {
        let old = self.head;
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    fn sketch_bump(&mut self, key: u32) {
        if self.sketch.is_empty() {
            return;
        }
        let (a, b) = Self::sketch_slots(key);
        self.sketch[a] = self.sketch[a].saturating_add(1);
        self.sketch[SKETCH_WIDTH + b] = self.sketch[SKETCH_WIDTH + b].saturating_add(1);
    }

    fn sketch_estimate(&self, key: u32) -> u32 {
        if self.sketch.is_empty() {
            return u32::MAX;
        }
        let (a, b) = Self::sketch_slots(key);
        self.sketch[a].min(self.sketch[SKETCH_WIDTH + b])
    }

    fn sketch_slots(key: u32) -> (usize, usize) {
        let h = hash64(u64::from(key));
        (
            (h as usize) % SKETCH_WIDTH,
            ((h >> 32) as usize) % SKETCH_WIDTH,
        )
    }
}

/// The scan-based cache this module used to be, kept as the reference
/// model the differential test drives the linked-list cache against:
/// a `BTreeMap` of entries stamped with a logical tick, eviction by a
/// fold over every entry for the oldest stamp.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    #[derive(Clone, Copy)]
    struct Stamped {
        version: u32,
        origin: ServerId,
        last_used: u64,
    }

    pub(super) struct ScanCache {
        cfg: HotCacheConfig,
        entries: BTreeMap<u64, Stamped>,
        stats: CacheStats,
        tick: u64,
        sketch: Vec<u32>,
    }

    impl ScanCache {
        pub(super) fn new(cfg: HotCacheConfig) -> Self {
            let sketch = match cfg.admission {
                CacheAdmission::Lru => Vec::new(),
                CacheAdmission::Frequency { .. } => vec![0; 2 * SKETCH_WIDTH],
            };
            ScanCache {
                cfg,
                entries: BTreeMap::new(),
                stats: CacheStats::default(),
                tick: 0,
                sketch,
            }
        }

        pub(super) fn stats(&self) -> CacheStats {
            self.stats
        }

        pub(super) fn contents(&self) -> BTreeMap<u64, (u32, ServerId)> {
            self.entries
                .iter()
                .map(|(&k, e)| (k, (e.version, e.origin)))
                .collect()
        }

        pub(super) fn lookup(&mut self, key: u64) -> Option<CacheEntry> {
            self.tick += 1;
            if let Some(e) = self.entries.get_mut(&key) {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(CacheEntry {
                    version: e.version,
                    origin: e.origin,
                })
            } else {
                self.stats.misses += 1;
                if !self.sketch.is_empty() {
                    let (a, b) = HotKeyCache::sketch_slots(key_rank(key));
                    self.sketch[a] = self.sketch[a].saturating_add(1);
                    self.sketch[SKETCH_WIDTH + b] = self.sketch[SKETCH_WIDTH + b].saturating_add(1);
                }
                None
            }
        }

        pub(super) fn admit(&mut self, key: u64, version: u32, origin: ServerId) -> AdmitOutcome {
            self.tick += 1;
            if let Some(e) = self.entries.get_mut(&key) {
                if version >= e.version {
                    e.version = version;
                    e.origin = origin;
                }
                e.last_used = self.tick;
                return AdmitOutcome::Cached;
            }
            if let CacheAdmission::Frequency { threshold } = self.cfg.admission {
                let (a, b) = HotKeyCache::sketch_slots(key_rank(key));
                if self.sketch[a].min(self.sketch[SKETCH_WIDTH + b]) < threshold {
                    return AdmitOutcome::Refused;
                }
            }
            let mut outcome = AdmitOutcome::Cached;
            if self.entries.len() >= self.cfg.capacity {
                // Oldest stamp; stamps are unique, so there are no ties.
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("a full cache has entries");
                self.entries.remove(&victim);
                self.stats.evictions += 1;
                outcome = AdmitOutcome::Evicted;
            }
            self.entries.insert(
                key,
                Stamped {
                    version,
                    origin,
                    last_used: self.tick,
                },
            );
            outcome
        }

        pub(super) fn apply_write(&mut self, key: u64, version: u32) -> bool {
            match self.cfg.write_policy {
                CacheWritePolicy::Invalidate => {
                    if self.entries.remove(&key).is_none() {
                        return false;
                    }
                }
                CacheWritePolicy::Through => match self.entries.get_mut(&key) {
                    Some(e) => e.version = e.version.max(version),
                    None => return false,
                },
            }
            self.stats.invalidations += 1;
            true
        }

        pub(super) fn flush(&mut self) {
            self.entries.clear();
            self.sketch.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::reference::ScanCache;
    use super::*;

    impl HotKeyCache {
        /// Key → (version, origin) of everything cached.
        fn contents(&self) -> BTreeMap<u64, (u32, ServerId)> {
            let mut out = BTreeMap::new();
            let mut at = self.head;
            while at != NIL {
                let s = &self.slots[at as usize];
                out.insert(u64::from(s.key), (s.entry.version, s.entry.origin));
                at = s.next;
            }
            assert_eq!(out.len(), self.len, "recency list and len agree");
            out
        }

        /// No false negative: every cached key's filter bit is set.
        fn assert_filter_covers_contents(&self) {
            for &key in self.contents().keys() {
                assert!(
                    self.filter_test(key_rank(key)),
                    "cached key {key} filtered out"
                );
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Lookup(u64),
        Admit(u64, u32, u32),
        ApplyWrite(u64, u32),
        Flush,
    }

    /// The `k`-th of sixteen keys scattered over the `u32` ranks by a
    /// hash, so that at these capacities (64 to 256 filter classes) some
    /// of them share a filter bit.
    fn scattered(k: u64) -> u64 {
        hash64(k) >> 32
    }

    fn op() -> impl Strategy<Value = Op> {
        let key = || (0u64..16).prop_map(scattered);
        // Lookups and admissions dominate, as on the data path; a flush
        // is the rare operator fail-stop.
        prop_oneof![
            key().prop_map(Op::Lookup),
            key().prop_map(Op::Lookup),
            (key(), 0u32..6, 0u32..4).prop_map(|(k, v, o)| Op::Admit(k, v, o)),
            (key(), 0u32..6, 0u32..4).prop_map(|(k, v, o)| Op::Admit(k, v, o)),
            (key(), 0u32..6, 0u32..4).prop_map(|(k, v, o)| Op::Admit(k, v, o)),
            (key(), 0u32..6).prop_map(|(k, v)| Op::ApplyWrite(k, v)),
            (0u32..12, key()).prop_map(|(n, k)| if n == 0 { Op::Flush } else { Op::Lookup(k) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The linked-list cache is observably the scan-based one: same
        /// return values, counters and contents over any operation
        /// sequence, for every admission × write-policy combination.
        /// Each case ends in a churn over all sixteen keys — more than
        /// `capacity` removals, a flush, then twice `capacity` more — so
        /// the presence filter is rebuilt before and after a flush, with
        /// every key's coherence message checked against the reference
        /// in between (a filter false negative is a mismatch) and every
        /// cached key's bit checked after every operation.
        #[test]
        fn linked_cache_matches_the_scan_reference(
            capacity in 1usize..=8,
            threshold in 0u32..4,
            through in any::<bool>(),
            ops in collection::vec(op(), 0..200),
        ) {
            let cfg = HotCacheConfig {
                capacity,
                admission: match threshold {
                    0 => CacheAdmission::Lru,
                    t => CacheAdmission::Frequency { threshold: t },
                },
                write_policy: if through {
                    CacheWritePolicy::Through
                } else {
                    CacheWritePolicy::Invalidate
                },
            };
            let mut fast = HotKeyCache::new(cfg);
            let mut slow = ScanCache::new(cfg);
            let mut step = |op: Op, i: usize| {
                match op {
                    Op::Lookup(k) => prop_assert_eq!(fast.lookup(k), slow.lookup(k), "op {}", i),
                    Op::Admit(k, v, o) => prop_assert_eq!(
                        fast.admit(k, v, ServerId(o)),
                        slow.admit(k, v, ServerId(o)),
                        "op {}", i
                    ),
                    Op::ApplyWrite(k, v) => {
                        prop_assert_eq!(fast.apply_write(k, v), slow.apply_write(k, v), "op {}", i);
                    }
                    Op::Flush => {
                        fast.flush();
                        slow.flush();
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats(), "op {}", i);
                prop_assert_eq!(fast.len(), slow.contents().len(), "op {}", i);
                prop_assert!(fast.len() <= capacity);
                fast.assert_filter_covers_contents();
                let s = fast.stats();
                s.evictions + if through { 0 } else { s.invalidations }
            };
            let mut removals = 0;
            let mut i = 0;
            for op in ops {
                removals = step(op, i);
                i += 1;
            }
            // Sixteen keys through at most eight slots: every admission
            // of an absent key evicts. The lookups feed the frequency
            // sketch past any threshold.
            for (goal, then) in [(capacity + 1, Some(Op::Flush)), (2 * capacity, None)] {
                let goal = removals + goal as u64;
                while removals < goal {
                    let k = i as u64 % 16;
                    for op in [
                        Op::Lookup(scattered(k)),
                        Op::Admit(scattered(k), i as u32, 0),
                        Op::ApplyWrite(scattered((k * 7 + 3) % 16), i as u32),
                    ] {
                        removals = step(op, i);
                        i += 1;
                    }
                }
                if let Some(op) = then {
                    step(op, i);
                }
            }
            prop_assert_eq!(fast.contents(), slow.contents());
        }
    }

    /// The differential test at the largest capacity, where slot ids
    /// reach `u16::MAX - 1`, one below the "no slot" sentinel: the slab
    /// fills to its last slot, the highest slots are invalidated, reused
    /// from the free list and evicted, and a churn over more keys than
    /// fit keeps every return value and counter equal to the reference.
    #[test]
    fn linked_cache_matches_the_scan_reference_at_the_largest_capacity() {
        let capacity = HotKeyCache::MAX_CAPACITY;
        let top = (capacity - 1) as u16;
        let cfg = HotCacheConfig {
            capacity,
            ..HotCacheConfig::default()
        };
        let mut fast = HotKeyCache::new(cfg);
        let mut slow = ScanCache::new(cfg);
        // Distinct keys spread over the `u32` ranks (an odd multiplier is
        // a bijection), so probe runs cross the whole index.
        let key = |k: u64| u64::from((k as u32).wrapping_mul(0x9E37_79B1));
        let step = |fast: &mut HotKeyCache, slow: &mut ScanCache, op: Op| {
            match op {
                Op::Lookup(k) => assert_eq!(fast.lookup(k), slow.lookup(k), "{op:?}"),
                Op::Admit(k, v, o) => assert_eq!(
                    fast.admit(k, v, ServerId(o)),
                    slow.admit(k, v, ServerId(o)),
                    "{op:?}"
                ),
                Op::ApplyWrite(k, v) => {
                    assert_eq!(fast.apply_write(k, v), slow.apply_write(k, v), "{op:?}");
                }
                Op::Flush => unreachable!("no flush at this capacity"),
            }
            assert_eq!(fast.stats(), slow.stats(), "{op:?}");
        };
        // Fill: the last admission takes the highest slot id.
        for k in 0..capacity as u64 {
            step(&mut fast, &mut slow, Op::Admit(key(k), 1, 0));
        }
        assert_eq!((fast.len(), fast.slots.len()), (capacity, capacity));
        assert_eq!(fast.head, top);
        // Invalidate the two highest slots; the free list hands them back
        // last-freed first.
        for k in [capacity as u64 - 1, capacity as u64 - 2] {
            step(&mut fast, &mut slow, Op::ApplyWrite(key(k), 2));
        }
        assert_eq!(fast.free, top - 1);
        step(&mut fast, &mut slow, Op::Admit(key(1 << 20), 3, 1));
        step(&mut fast, &mut slow, Op::Admit(key((1 << 20) + 1), 3, 1));
        assert_eq!((fast.head, fast.free), (top, NIL));
        // Touch every other key so the highest slot becomes the victim.
        for k in 0..capacity as u64 - 2 {
            step(&mut fast, &mut slow, Op::Lookup(key(k)));
        }
        step(&mut fast, &mut slow, Op::Lookup(key(1 << 20)));
        assert_eq!(fast.tail, top);
        step(&mut fast, &mut slow, Op::Admit(key((1 << 20) + 2), 4, 2));
        assert_eq!((fast.head, fast.stats().evictions), (top, 1));
        // Churn over a band wider than the cache, admitting faster than
        // writes invalidate so the cache stays full.
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for i in 0..16_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = key(x % (capacity as u64 + 16_384));
            match i % 16 {
                0 => step(&mut fast, &mut slow, Op::ApplyWrite(k, i)),
                n if n % 2 == 1 => step(&mut fast, &mut slow, Op::Lookup(k)),
                _ => step(&mut fast, &mut slow, Op::Admit(k, i, 3)),
            }
        }
        let s = fast.stats();
        assert!(s.evictions > 100 && s.invalidations > 100, "{s:?}");
        assert_eq!(fast.contents(), slow.contents());
        fast.assert_filter_covers_contents();
    }

    /// Past the differential test's 16 keys: probe runs that wrap the
    /// index and removals from the middle of a run, checked against a
    /// plain map, in storage that never moves from what `new` allocated.
    #[test]
    fn index_survives_wraparound_and_mid_run_removal() {
        let mut c = lru(1024);
        assert_eq!(c.index.len(), 2_048, "at most half full at capacity");
        assert_eq!(c.slots.capacity(), 1024);
        let slab = c.slots.as_ptr();
        let mut model = BTreeMap::new();
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for i in 0..20_000u32 {
            // xorshift: keys cluster in a 4 096-wide band, so the cache
            // stays under capacity pressure.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4_096;
            if i % 3 == 0 {
                assert_eq!(c.apply_write(key, i), model.remove(&key).is_some());
            } else if c.lookup(key).is_none() {
                if model.len() == 1024 && !model.contains_key(&key) {
                    // Learn the victim from the cache itself; the
                    // differential test owns eviction order.
                    let victim = u64::from(c.slots[c.tail as usize].key);
                    model.remove(&victim);
                }
                c.admit(key, i, ServerId(0));
                model.insert(key, (i, ServerId(0)));
            }
        }
        assert_eq!(c.contents(), model);
        c.assert_filter_covers_contents();
        assert!(c.stats().evictions > 0 && c.stats().invalidations > 0);
        assert_eq!(c.index.len(), 2_048);
        assert_eq!((c.slots.len(), c.slots.capacity()), (1024, 1024));
        assert_eq!(c.slots.as_ptr(), slab, "the slab was never reallocated");
    }

    fn lru(cap: usize) -> HotKeyCache {
        HotKeyCache::new(HotCacheConfig {
            capacity: cap,
            ..HotCacheConfig::default()
        })
    }

    #[test]
    fn lookup_partitions_into_hits_and_misses() {
        let mut c = lru(4);
        assert!(c.lookup(1).is_none());
        assert_eq!(c.admit(1, 1, ServerId(3)), AdmitOutcome::Cached);
        let hit = c.lookup(1).expect("admitted key hits");
        assert_eq!(hit.version, 1);
        assert_eq!(hit.origin, ServerId(3));
        assert!(c.lookup(2).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.gets_seen(), 3);
    }

    #[test]
    fn eviction_takes_the_least_recently_used() {
        let mut c = lru(2);
        c.admit(10, 1, ServerId(0));
        c.admit(20, 1, ServerId(0));
        let _ = c.lookup(10); // 20 is now the LRU victim
        assert_eq!(c.admit(30, 1, ServerId(0)), AdmitOutcome::Evicted);
        assert!(c.lookup(20).is_none(), "LRU entry evicted");
        assert!(c.lookup(10).is_some());
        assert!(c.lookup(30).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_removes_and_through_refreshes() {
        let mut c = lru(4);
        c.admit(7, 1, ServerId(0));
        assert!(c.apply_write(7, 2));
        assert!(c.lookup(7).is_none(), "write-invalidate drops the entry");
        assert!(!c.apply_write(7, 3), "absent entry: nothing to do");

        let mut t = HotKeyCache::new(HotCacheConfig {
            write_policy: CacheWritePolicy::Through,
            ..HotCacheConfig::default()
        });
        t.admit(7, 1, ServerId(0));
        assert!(t.apply_write(7, 2));
        assert_eq!(t.lookup(7).unwrap().version, 2, "write-through refreshes");
        assert_eq!(t.stats().invalidations, 1);
    }

    #[test]
    fn frequency_admission_needs_repeated_misses() {
        let mut c = HotKeyCache::new(HotCacheConfig {
            admission: CacheAdmission::Frequency { threshold: 2 },
            ..HotCacheConfig::default()
        });
        let _ = c.lookup(5); // sketch count 1
        assert_eq!(
            c.admit(5, 1, ServerId(0)),
            AdmitOutcome::Refused,
            "below threshold"
        );
        let _ = c.lookup(5); // sketch count 2
        assert_eq!(
            c.admit(5, 1, ServerId(0)),
            AdmitOutcome::Cached,
            "reached threshold"
        );
        assert!(c.lookup(5).is_some());
    }

    #[test]
    fn admit_never_regresses_a_version() {
        let mut c = lru(4);
        c.admit(9, 5, ServerId(1));
        c.admit(9, 3, ServerId(2)); // straggler response, older version
        let e = c.lookup(9).unwrap();
        assert_eq!((e.version, e.origin), (5, ServerId(1)));
    }

    #[test]
    fn flush_empties_contents_but_keeps_history() {
        let mut c = lru(4);
        c.admit(1, 1, ServerId(0));
        let _ = c.lookup(1);
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1, "counters survive a flush");
        assert!(c.lookup(1).is_none());
    }

    #[test]
    #[should_panic(expected = "keys are Zipf ranks")]
    fn a_key_past_u32_max_panics_instead_of_aliasing_a_rank() {
        lru(4).admit(u64::from(u32::MAX) + 1, 1, ServerId(0));
    }

    #[test]
    fn stale_accounting_is_explicit() {
        let mut c = lru(4);
        c.admit(1, 1, ServerId(0));
        let _ = c.lookup(1);
        c.note_stale();
        assert_eq!(c.stats().stale_hits, 1);
    }
}
