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
//! A write's coherence messages reach every operator and find the key
//! cached at few of them, and most lookups miss. A [`HolderBank`] beside
//! the caches records, per key class, which operators' caches hold a key
//! of that class, so a coherence batch visits only holders and a lookup
//! or admission at a non-holder skips the index probe.
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

/// Key classes of a [`HolderBank`] per index bucket: 16 384 classes for a
/// 1 024-entry cache, so a full cache holds at most one class in sixteen.
/// A power of two, so a key's class refines its home bucket and
/// class-mates share a probe run.
const CLASSES_PER_BUCKET: usize = 8;

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
/// the heap. A cache stands alone; [`HolderBank`] runs the same
/// operations gated by which operators hold which key classes.
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

    /// An empty cache with its slab and index allocated for
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
        HotKeyCache {
            cfg,
            slots: Vec::with_capacity(cfg.capacity),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            index: vec![VACANT; Self::buckets(cfg.capacity)],
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

    /// Whether `key` is cached. Touches neither recency nor counters.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.find(key_rank(key)).is_some()
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
        self.lookup_found(key, self.find(key).map(|(_, slot)| slot))
    }

    /// [`HotKeyCache::lookup`] of `key`, found in `slot` or absent.
    fn lookup_found(&mut self, key: u32, slot: Option<u16>) -> Option<CacheEntry> {
        if let Some(slot) = slot {
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
        let slot = self.find(key).map(|(_, slot)| slot);
        self.admit_found(key, slot, version, origin).0
    }

    /// [`HotKeyCache::admit`] of `key`, found in `slot` or absent; also
    /// returns the key class that an eviction left without a cached key,
    /// if any.
    fn admit_found(
        &mut self,
        key: u32,
        slot: Option<u16>,
        version: u32,
        origin: ServerId,
    ) -> (AdmitOutcome, Option<usize>) {
        if let Some(slot) = slot {
            // Refresh, never regress: a slower response for an older
            // version must not shadow a fresher entry.
            let e = &mut self.slots[slot as usize].entry;
            if version >= e.version {
                e.version = version;
                e.origin = origin;
            }
            self.touch(slot);
            return (AdmitOutcome::Cached, None);
        }
        if let CacheAdmission::Frequency { threshold } = self.cfg.admission {
            if self.sketch_estimate(key) < threshold {
                return (AdmitOutcome::Refused, None);
            }
        }
        let (outcome, emptied) = if self.len >= self.cfg.capacity {
            // The tail is the entry touched longest ago.
            let emptied = self.remove(self.tail);
            self.stats.evictions += 1;
            (AdmitOutcome::Evicted, emptied)
        } else {
            (AdmitOutcome::Cached, None)
        };
        self.insert(key, CacheEntry { version, origin });
        (outcome, emptied)
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
        self.write(key_rank(key), version).0
    }

    /// [`HotKeyCache::apply_write`]; also returns the key class that an
    /// invalidation left without a cached key, if any.
    fn write(&mut self, key: u32, version: u32) -> (bool, Option<usize>) {
        let Some((bucket, slot)) = self.find(key) else {
            return (false, None);
        };
        let mut emptied = None;
        match self.cfg.write_policy {
            CacheWritePolicy::Invalidate => emptied = self.remove_at(bucket, slot),
            CacheWritePolicy::Through => {
                // A refresh is not a use: recency is untouched.
                let e = &mut self.slots[slot as usize].entry;
                if version >= e.version {
                    e.version = version;
                }
            }
        }
        self.stats.invalidations += 1;
        (true, emptied)
    }

    /// Drops every entry (operator fail-stop: switch memory is lost).
    /// Counters survive — they describe history, not contents.
    pub fn flush(&mut self) {
        self.slots.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
        self.len = 0;
        self.index.fill(VACANT);
        self.sketch.fill(0);
    }

    // ---- key index ------------------------------------------------------

    /// Index buckets of a cache of `capacity`: at capacity the index is at
    /// most half full, so probe runs stay short.
    fn buckets(capacity: usize) -> usize {
        (2 * capacity).next_power_of_two()
    }

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
    /// no run is ever broken by a hole (no tombstones to clean up), and
    /// reports whether any of those later members is of `class`.
    fn index_remove(&mut self, bucket: usize, class: usize) -> bool {
        let mask = self.index.len() - 1;
        let mut hole = bucket;
        let mut b = bucket;
        let mut mate = false;
        loop {
            b = (b + 1) & mask;
            let stored = self.index[b];
            if stored == VACANT {
                break;
            }
            let theirs = self.class(self.slots[stored as usize - 1].key);
            mate |= theirs == class;
            let home = theirs / CLASSES_PER_BUCKET;
            // The slot may fill the hole unless its home lies cyclically
            // after the hole (it would become unreachable).
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = stored;
                hole = b;
            }
        }
        self.index[hole] = VACANT;
        mate
    }

    /// The key class of `key` ([`HolderBank`]'s rows): its home among
    /// [`CLASSES_PER_BUCKET`] times as many buckets as the index has. A
    /// class refines the home bucket, `class / CLASSES_PER_BUCKET`.
    fn class(&self, key: u32) -> usize {
        Self::home(key, CLASSES_PER_BUCKET * self.index.len())
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
        self.link_front(slot);
        self.len += 1;
    }

    /// Removes the entry in `slot`; returns its key class if no other
    /// cached key is of that class.
    fn remove(&mut self, slot: u16) -> Option<usize> {
        let (bucket, _) = self
            .find(self.slots[slot as usize].key)
            .expect("every live slot is indexed");
        self.remove_at(bucket, slot)
    }

    /// Removes the entry in `slot`, known to be indexed at `bucket`;
    /// returns its key class if no other cached key is of that class.
    /// Class-mates share the entry's home bucket, so they sit in its probe
    /// run: before `bucket` (read by the `find` that located it) or after
    /// it (read by the backward shift).
    fn remove_at(&mut self, bucket: usize, slot: u16) -> Option<usize> {
        let class = self.class(self.slots[slot as usize].key);
        let mask = self.index.len() - 1;
        let mut b = class / CLASSES_PER_BUCKET;
        let mut mate = false;
        while b != bucket {
            mate |= self.class(self.slots[self.index[b] as usize - 1].key) == class;
            b = (b + 1) & mask;
        }
        mate |= self.index_remove(bucket, class);
        self.unlink(slot);
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
        (!mate).then_some(class)
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

/// Which operators' caches hold a key of each class: one row per key
/// class, one bit per operator, indexed by the operator's switch id so
/// that ascending bit order is ascending switch order.
///
/// The bank is exact, not a filter: a bit is set exactly when that
/// operator's cache holds some key of that class. Its gated operations
/// keep it so — an admission sets the key's bit, an eviction or an
/// invalidation clears the removed key's bit unless a class-mate is still
/// cached, and [`HolderBank::flush`] and [`HolderBank::retire`] clear the
/// operator's column — and use it: a clear bit is a miss without an index
/// probe, and a coherence batch ANDed with the key's row
/// ([`HolderBank::word`]) names the operators that may have the key.
/// Every counter, sketch bump and recency move is the one the ungated
/// cache operation makes.
///
/// A bank serves the caches of one [`HotCacheConfig`] (its capacity fixes
/// the classes). It is allocated once, when built, and stored a word
/// plane at a time, so only the planes of words naming live operators
/// are ever touched: two of five, 256 KB, for the 126 ToR operators of
/// the 16-ary fat-tree at 1 024 entries. The default bank has no rows,
/// for a run without caches.
#[derive(Debug, Clone, Default)]
pub struct HolderBank {
    /// Key classes (rows): a power of two, [`CLASSES_PER_BUCKET`] per
    /// index bucket of a cache.
    classes: usize,
    /// Rows of `u64` words stored word-plane by word-plane: word `w` of
    /// every row, then word `w + 1` of every row. Only the planes of words
    /// that hold operators are ever touched.
    bits: Vec<u64>,
    /// `false` for [`HolderBank::saturated`], whose bits never clear.
    exact: bool,
}

impl HolderBank {
    /// An empty bank for caches built from `cfg`, on operators with ids
    /// below `operators`.
    #[must_use]
    pub fn new(cfg: &HotCacheConfig, operators: usize) -> Self {
        let classes = CLASSES_PER_BUCKET * HotKeyCache::buckets(cfg.capacity);
        HolderBank {
            classes,
            bits: vec![0; classes * operators.div_ceil(64)],
            exact: true,
        }
    }

    /// The ungated reference: every operator holds every class, always.
    /// Every lookup and admission probes the index and a coherence batch
    /// reaches every member's cache, as if no bank existed; an exact bank
    /// must be indistinguishable from it.
    #[must_use]
    pub fn saturated(cfg: &HotCacheConfig, operators: usize) -> Self {
        let mut bank = Self::new(cfg, operators);
        bank.bits.fill(u64::MAX);
        bank.exact = false;
        bank
    }

    /// Where word `w` of `class`'s row is stored.
    fn at(&self, class: usize, w: usize) -> usize {
        w * self.classes + class
    }

    /// The class of `key`: its home among as many buckets as there are
    /// classes.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    #[must_use]
    pub fn class(&self, key: u64) -> usize {
        HotKeyCache::home(key_rank(key), self.classes)
    }

    /// Word `w` of `class`'s row: the operators with ids `64 w..64 w +
    /// 64` holding a key of `class`, operator `64 w + b` at bit `b`.
    #[must_use]
    pub fn word(&self, class: usize, w: usize) -> u64 {
        self.bits[self.at(class, w)]
    }

    /// Whether operator `op`'s cache holds a key of `class`.
    fn holds(&self, class: usize, op: u32) -> bool {
        self.word(class, op as usize / 64) & (1 << (op % 64)) != 0
    }

    fn set(&mut self, class: usize, op: u32) {
        let at = self.at(class, op as usize / 64);
        self.bits[at] |= 1 << (op % 64);
    }

    /// Clears `op`'s bit for `class`, which its cache no longer holds.
    fn clear(&mut self, class: usize, op: u32) {
        if self.exact {
            let at = self.at(class, op as usize / 64);
            self.bits[at] &= !(1 << (op % 64));
        }
    }

    /// Clears operator `op`'s column: its cache left the live set.
    pub fn retire(&mut self, op: u32) {
        if !self.exact {
            return;
        }
        let plane = self.at(0, op as usize / 64);
        for word in &mut self.bits[plane..plane + self.classes] {
            *word &= !(1 << (op % 64));
        }
    }

    /// [`HotKeyCache::lookup`] on operator `op`'s cache; a clear bit is a
    /// miss without an index probe.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn lookup(&self, cache: &mut HotKeyCache, op: u32, key: u64) -> Option<CacheEntry> {
        let rank = key_rank(key);
        let slot = self.probe(cache, op, rank);
        cache.lookup_found(rank, slot)
    }

    /// [`HotKeyCache::admit`] on operator `op`'s cache; a clear bit skips
    /// the probe for the key, and the bank follows the insertion and any
    /// eviction.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn admit(
        &mut self,
        cache: &mut HotKeyCache,
        op: u32,
        key: u64,
        version: u32,
        origin: ServerId,
    ) -> AdmitOutcome {
        let rank = key_rank(key);
        let slot = self.probe(cache, op, rank);
        let (outcome, emptied) = cache.admit_found(rank, slot, version, origin);
        if let Some(class) = emptied {
            self.clear(class, op);
        }
        if outcome != AdmitOutcome::Refused {
            self.set(HotKeyCache::home(rank, self.classes), op);
        }
        outcome
    }

    /// [`HotKeyCache::apply_write`] on operator `op`'s cache, which the
    /// caller found holding the key's class; the bank follows an
    /// invalidation.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds `u32::MAX`.
    pub fn apply_write(
        &mut self,
        cache: &mut HotKeyCache,
        op: u32,
        key: u64,
        version: u32,
    ) -> bool {
        let (present, emptied) = cache.write(key_rank(key), version);
        if let Some(class) = emptied {
            self.clear(class, op);
        }
        present
    }

    /// [`HotKeyCache::flush`] of operator `op`'s cache, and its column.
    pub fn flush(&mut self, cache: &mut HotKeyCache, op: u32) {
        cache.flush();
        self.retire(op);
    }

    /// The slot holding `key` in `op`'s cache, probed only when the bank
    /// says the cache holds the key's class.
    fn probe(&self, cache: &HotKeyCache, op: u32, key: u32) -> Option<u16> {
        debug_assert_eq!(
            self.classes,
            CLASSES_PER_BUCKET * cache.index.len(),
            "the bank serves caches of one capacity"
        );
        if self.holds(HotKeyCache::home(key, self.classes), op) {
            cache.find(key).map(|(_, slot)| slot)
        } else {
            debug_assert!(
                cache.find(key).is_none(),
                "holder bank skipped operator {op}, which caches key {key}"
            );
            None
        }
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
    }

    impl HolderBank {
        /// Exactness: `op`'s bit of every class is set if and only if
        /// `cache` holds a key of that class.
        fn assert_exact_for(&self, cache: &HotKeyCache, op: u32) {
            let mut held = vec![false; self.classes];
            for &key in cache.contents().keys() {
                held[self.class(key)] = true;
            }
            for (class, held) in held.into_iter().enumerate() {
                assert_eq!(self.holds(class, op), held, "operator {op}, class {class}");
            }
        }
    }

    /// Operators of the differential test: ids in both words of a
    /// two-word row.
    const OPS: [u32; 3] = [0, 5, 70];

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A `GET` at operator `OPS[c]`.
        Lookup(usize, u64),
        /// A response observed at operator `OPS[c]`.
        Admit(usize, u64, u32, u32),
        /// A write's coherence batch: every operator.
        ApplyWrite(u64, u32),
        /// Operator `OPS[c]` fail-stops: its cache is flushed.
        Flush(usize),
        /// Operator `OPS[c]` is replaced by a fresh one.
        Retire(usize),
    }

    /// The `k`-th of sixteen keys scattered over the `u32` ranks by a
    /// hash, so that at these capacities (16 to 128 key classes) some of
    /// them share a class.
    fn scattered(k: u64) -> u64 {
        hash64(k) >> 32
    }

    fn op() -> impl Strategy<Value = Op> {
        let key = || (0u64..16).prop_map(scattered);
        let at = || 0..OPS.len();
        // Lookups and admissions dominate, as on the data path; a flush
        // and a retirement are the rare operator changes.
        prop_oneof![
            (at(), key()).prop_map(|(c, k)| Op::Lookup(c, k)),
            (at(), key()).prop_map(|(c, k)| Op::Lookup(c, k)),
            (at(), key(), 0u32..6, 0u32..4).prop_map(|(c, k, v, o)| Op::Admit(c, k, v, o)),
            (at(), key(), 0u32..6, 0u32..4).prop_map(|(c, k, v, o)| Op::Admit(c, k, v, o)),
            (at(), key(), 0u32..6, 0u32..4).prop_map(|(c, k, v, o)| Op::Admit(c, k, v, o)),
            (key(), 0u32..6).prop_map(|(k, v)| Op::ApplyWrite(k, v)),
            (0u32..24, at(), key()).prop_map(|(n, c, k)| match n {
                0 => Op::Flush(c),
                1 => Op::Retire(c),
                _ => Op::Lookup(c, k),
            }),
        ]
    }

    /// Each operator's cache three ways: alone, gated by the shared
    /// holder bank, and as the scan reference.
    struct Fleet {
        cfg: HotCacheConfig,
        alone: Vec<HotKeyCache>,
        gated: Vec<HotKeyCache>,
        slow: Vec<ScanCache>,
        bank: HolderBank,
    }

    impl Fleet {
        fn new(cfg: HotCacheConfig) -> Self {
            Fleet {
                cfg,
                alone: OPS.iter().map(|_| HotKeyCache::new(cfg)).collect(),
                gated: OPS.iter().map(|_| HotKeyCache::new(cfg)).collect(),
                slow: OPS.iter().map(|_| ScanCache::new(cfg)).collect(),
                bank: HolderBank::new(&cfg, 71),
            }
        }

        /// Applies `op` three ways; every return value, counter and
        /// length agrees with the reference and the bank is exact after
        /// it. Returns the removals so far (evictions, plus invalidations
        /// under `Invalidate`).
        fn step(&mut self, op: Op, i: usize) -> u64 {
            let bank = &mut self.bank;
            match op {
                Op::Lookup(c, k) => {
                    let want = self.slow[c].lookup(k);
                    prop_assert_eq!(self.alone[c].lookup(k), want, "op {}", i);
                    prop_assert_eq!(bank.lookup(&mut self.gated[c], OPS[c], k), want, "op {}", i);
                }
                Op::Admit(c, k, v, o) => {
                    let want = self.slow[c].admit(k, v, ServerId(o));
                    prop_assert_eq!(self.alone[c].admit(k, v, ServerId(o)), want, "op {}", i);
                    let got = bank.admit(&mut self.gated[c], OPS[c], k, v, ServerId(o));
                    prop_assert_eq!(got, want, "op {}", i);
                }
                Op::ApplyWrite(k, v) => {
                    // A batch visits the holders of the key's class only.
                    let class = bank.class(k);
                    for (c, &op) in OPS.iter().enumerate() {
                        let want = self.slow[c].apply_write(k, v);
                        prop_assert_eq!(self.alone[c].apply_write(k, v), want, "op {}", i);
                        let got =
                            bank.holds(class, op) && bank.apply_write(&mut self.gated[c], op, k, v);
                        prop_assert_eq!(got, want, "op {} at operator {}", i, op);
                    }
                }
                Op::Flush(c) => {
                    self.slow[c].flush();
                    self.alone[c].flush();
                    bank.flush(&mut self.gated[c], OPS[c]);
                }
                Op::Retire(c) => {
                    self.slow[c] = ScanCache::new(self.cfg);
                    self.alone[c] = HotKeyCache::new(self.cfg);
                    self.gated[c] = HotKeyCache::new(self.cfg);
                    bank.retire(OPS[c]);
                }
            }
            let mut removals = 0;
            for (c, &op) in OPS.iter().enumerate() {
                let want = self.slow[c].stats();
                prop_assert_eq!(self.alone[c].stats(), want, "op {}", i);
                prop_assert_eq!(self.gated[c].stats(), want, "op {}", i);
                let len = self.slow[c].contents().len();
                prop_assert_eq!((self.alone[c].len(), self.gated[c].len()), (len, len));
                prop_assert!(len <= self.cfg.capacity);
                self.bank.assert_exact_for(&self.gated[c], op);
                removals += want.evictions;
                if self.cfg.write_policy == CacheWritePolicy::Invalidate {
                    removals += want.invalidations;
                }
            }
            removals
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The linked-list cache is observably the scan-based one, alone
        /// and gated by a holder bank shared by three operators: same
        /// return values, counters and contents over any operation
        /// sequence, for every admission × write-policy combination, and
        /// after every operation each operator's bit of each key class is
        /// set exactly when its cache holds a key of that class. Each case
        /// ends in a churn over all sixteen keys — more than `capacity`
        /// removals, a flush of every operator, then twice `capacity`
        /// more — with every key's coherence batch checked against the
        /// reference in between.
        #[test]
        fn linked_cache_matches_the_scan_reference(
            capacity in 1usize..=8,
            threshold in 0u32..4,
            through in any::<bool>(),
            ops in collection::vec(op(), 0..200),
        ) {
            let mut fleet = Fleet::new(HotCacheConfig {
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
            });
            let mut removals = 0;
            let mut i = 0;
            for op in ops {
                removals = fleet.step(op, i);
                i += 1;
            }
            // Sixteen keys through at most eight slots: every admission
            // of an absent key evicts. The lookups feed the frequency
            // sketch past any threshold.
            for (goal, flush) in [(capacity + 1, true), (2 * capacity, false)] {
                let goal = removals + goal as u64;
                while removals < goal {
                    let k = i as u64 % 16;
                    let c = i % OPS.len();
                    for op in [
                        Op::Lookup(c, scattered(k)),
                        Op::Admit(c, scattered(k), i as u32, 0),
                        Op::ApplyWrite(scattered((k * 7 + 3) % 16), i as u32),
                    ] {
                        removals = fleet.step(op, i);
                        i += 1;
                    }
                }
                if flush {
                    for c in 0..OPS.len() {
                        fleet.step(Op::Flush(c), i);
                    }
                }
            }
            for c in 0..OPS.len() {
                let want = fleet.slow[c].contents();
                prop_assert_eq!(fleet.alone[c].contents(), want.clone());
                prop_assert_eq!(fleet.gated[c].contents(), want);
            }
        }

        /// The saturated bank is the ungated cache: every lookup and
        /// admission probes, and every operator takes every write.
        #[test]
        fn saturated_bank_gates_nothing(
            capacity in 1usize..=8,
            ops in collection::vec(op(), 0..200),
        ) {
            let cfg = HotCacheConfig { capacity, ..HotCacheConfig::default() };
            let mut bank = HolderBank::saturated(&cfg, 71);
            let mut gated: Vec<_> = OPS.iter().map(|_| HotKeyCache::new(cfg)).collect();
            let mut alone = gated.clone();
            for op in ops {
                match op {
                    Op::Lookup(c, k) => prop_assert_eq!(
                        bank.lookup(&mut gated[c], OPS[c], k),
                        alone[c].lookup(k)
                    ),
                    Op::Admit(c, k, v, o) => prop_assert_eq!(
                        bank.admit(&mut gated[c], OPS[c], k, v, ServerId(o)),
                        alone[c].admit(k, v, ServerId(o))
                    ),
                    Op::ApplyWrite(k, v) => {
                        for (c, &op) in OPS.iter().enumerate() {
                            prop_assert!(bank.holds(bank.class(k), op));
                            prop_assert_eq!(
                                bank.apply_write(&mut gated[c], op, k, v),
                                alone[c].apply_write(k, v)
                            );
                        }
                    }
                    Op::Flush(c) | Op::Retire(c) => {
                        bank.flush(&mut gated[c], OPS[c]);
                        alone[c].flush();
                    }
                }
            }
            prop_assert!(bank.bits.iter().all(|&w| w == u64::MAX));
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
        // One operator, gated by its bank column.
        let mut bank = HolderBank::new(&cfg, 1);
        // Distinct keys spread over the `u32` ranks (an odd multiplier is
        // a bijection), so probe runs cross the whole index.
        let key = |k: u64| u64::from((k as u32).wrapping_mul(0x9E37_79B1));
        let mut step = |fast: &mut HotKeyCache, slow: &mut ScanCache, op: Op| {
            match op {
                Op::Lookup(_, k) => assert_eq!(bank.lookup(fast, 0, k), slow.lookup(k), "{op:?}"),
                Op::Admit(_, k, v, o) => assert_eq!(
                    bank.admit(fast, 0, k, v, ServerId(o)),
                    slow.admit(k, v, ServerId(o)),
                    "{op:?}"
                ),
                Op::ApplyWrite(k, v) => {
                    let got = bank.holds(bank.class(k), 0) && bank.apply_write(fast, 0, k, v);
                    assert_eq!(got, slow.apply_write(k, v), "{op:?}");
                }
                Op::Flush(_) | Op::Retire(_) => unreachable!("no flush at this capacity"),
            }
            assert_eq!(fast.stats(), slow.stats(), "{op:?}");
        };
        // Fill: the last admission takes the highest slot id.
        for k in 0..capacity as u64 {
            step(&mut fast, &mut slow, Op::Admit(0, key(k), 1, 0));
        }
        assert_eq!((fast.len(), fast.slots.len()), (capacity, capacity));
        assert_eq!(fast.head, top);
        // Invalidate the two highest slots; the free list hands them back
        // last-freed first.
        for k in [capacity as u64 - 1, capacity as u64 - 2] {
            step(&mut fast, &mut slow, Op::ApplyWrite(key(k), 2));
        }
        assert_eq!(fast.free, top - 1);
        step(&mut fast, &mut slow, Op::Admit(0, key(1 << 20), 3, 1));
        step(&mut fast, &mut slow, Op::Admit(0, key((1 << 20) + 1), 3, 1));
        assert_eq!((fast.head, fast.free), (top, NIL));
        // Touch every other key so the highest slot becomes the victim.
        for k in 0..capacity as u64 - 2 {
            step(&mut fast, &mut slow, Op::Lookup(0, key(k)));
        }
        step(&mut fast, &mut slow, Op::Lookup(0, key(1 << 20)));
        assert_eq!(fast.tail, top);
        step(&mut fast, &mut slow, Op::Admit(0, key((1 << 20) + 2), 4, 2));
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
                n if n % 2 == 1 => step(&mut fast, &mut slow, Op::Lookup(0, k)),
                _ => step(&mut fast, &mut slow, Op::Admit(0, k, i, 3)),
            }
        }
        let s = fast.stats();
        assert!(s.evictions > 100 && s.invalidations > 100, "{s:?}");
        assert_eq!(fast.contents(), slow.contents());
        bank.assert_exact_for(&fast, 0);
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
