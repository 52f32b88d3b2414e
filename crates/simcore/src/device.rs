//! Device-level telemetry: stable device identities, per-device
//! statistics and the zero-cost-when-disabled [`DeviceProbe`] hook.
//!
//! Mirrors the engine-level [`Probe`](crate::Probe) pattern one layer
//! down: a world that models network devices (switches, links,
//! accelerators, servers, clients) is monomorphized over a
//! [`DeviceProbe`] type. With the default [`NoDeviceProbe`] every hook
//! is an empty inlined body and the simulation binary is byte-for-byte
//! what it was before the registry existed; with
//! [`DeviceStatsRegistry`] each hook lands in a [`DeviceStats`] entry
//! keyed by [`DeviceId`].
//!
//! The statistics deliberately cover the quantities the NetRS
//! evaluation argues about: packets/bytes forwarded per traffic tier
//! (the paper's Tier-0/1/2 classification), per-directed-link packet
//! counts (ECMP hash-skew visibility), RSNode selection counts and
//! waits, sim-time-weighted queue depth, busy time, and drop/clamp
//! counters.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// An endpoint of a link: an end-host or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// An end-host, by host index.
    Host(u32),
    /// A switch, by global switch index.
    Switch(u32),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Host(h) => write!(f, "h{h}"),
            NodeId::Switch(s) => write!(f, "s{s}"),
        }
    }
}

/// A stable identity for one simulated device.
///
/// The `Display` form (`switch:5`, `accel:5`, `server:3`, `client:7`,
/// `link:h3>s0`) is the device key in exported JSONL and is parsed back
/// by offline analysis; treat it as a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceId {
    /// A switch's forwarding pipeline.
    Switch(u32),
    /// The network accelerator attached to a switch (an RSNode's
    /// compute).
    Accelerator(u32),
    /// A storage server, by server index.
    Server(u32),
    /// A client, by client index.
    Client(u32),
    /// A directed link `from > to` (direction matters: the two
    /// directions of a cable are separate queues and separate ECMP
    /// victims).
    Link(NodeId, NodeId),
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceId::Switch(s) => write!(f, "switch:{s}"),
            DeviceId::Accelerator(s) => write!(f, "accel:{s}"),
            DeviceId::Server(s) => write!(f, "server:{s}"),
            DeviceId::Client(c) => write!(f, "client:{c}"),
            DeviceId::Link(a, b) => write!(f, "link:{a}>{b}"),
        }
    }
}

/// Named event counters a device can accumulate beyond the structured
/// fields of [`DeviceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceCounter {
    /// Requests handled (arrivals at a server, issues at a client).
    Op,
    /// Work abandoned at the device (e.g. a request reaching a retired
    /// RSNode and falling back to its backup replica).
    Drop,
    /// Load-induced degradations (DRS forwarding).
    Clamp,
    /// Response clones processed for selector state (no latency cost).
    CloneUpdate,
    /// Hot-key cache: a `GET` answered from the switch.
    CacheHit,
    /// Hot-key cache: a `GET` that fell through to replica selection.
    CacheMiss,
    /// Hot-key cache: a hit served with a version older than the
    /// store's committed one.
    CacheStale,
    /// Hot-key cache: an entry displaced by capacity pressure.
    CacheEvict,
    /// Hot-key cache: a write-driven coherence message applied to a
    /// cached entry.
    CacheInvalidate,
}

/// Everything one device accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Packets forwarded, indexed by traffic tier (0 = cross-pod,
    /// 1 = pod-local, 2 = rack-local — the paper's Tier-k naming).
    pub packets: [u64; 3],
    /// Bytes forwarded, same tier indexing.
    pub bytes: [u64; 3],
    /// [`DeviceCounter::Op`] total.
    pub ops: u64,
    /// Replica selections performed (RSNode accelerators only).
    pub selections: u64,
    /// Total accelerator queue wait across selections.
    pub selection_wait_ns: u128,
    /// [`DeviceCounter::CloneUpdate`] total.
    pub clone_updates: u64,
    /// Sim time the device spent doing work (accelerator core time,
    /// server slot time).
    pub busy_ns: u128,
    /// [`DeviceCounter::Drop`] total.
    pub drops: u64,
    /// [`DeviceCounter::Clamp`] total.
    pub clamps: u64,
    /// [`DeviceCounter::CacheHit`] total (switches hosting a hot-key
    /// cache only; zero everywhere else).
    pub cache_hits: u64,
    /// [`DeviceCounter::CacheMiss`] total.
    pub cache_misses: u64,
    /// [`DeviceCounter::CacheStale`] total.
    pub cache_stale_hits: u64,
    /// [`DeviceCounter::CacheEvict`] total.
    pub cache_evictions: u64,
    /// [`DeviceCounter::CacheInvalidate`] total.
    pub cache_invalidations: u64,
    /// Current queue depth (requests pending at the device).
    pub depth: u32,
    /// Deepest the queue ever got.
    pub max_depth: u32,
    depth_area_ns: u128,
    last_depth_change: SimTime,
}

impl DeviceStats {
    /// Packets forwarded across all tiers.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Bytes forwarded across all tiers.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Applies a queue depth change at `now`, accumulating the
    /// sim-time-weighted depth integral.
    pub fn queue_delta(&mut self, now: SimTime, delta: i64) {
        let dt = now.saturating_since(self.last_depth_change).as_nanos();
        self.depth_area_ns += u128::from(self.depth) * u128::from(dt);
        self.last_depth_change = now;
        let next = i64::from(self.depth) + delta;
        debug_assert!(next >= 0, "queue depth went negative");
        self.depth = next.max(0) as u32;
        self.max_depth = self.max_depth.max(self.depth);
    }

    /// Mean queue depth over `[SimTime::ZERO, end]`, weighting each
    /// depth by how long it was held.
    #[must_use]
    pub fn mean_queue_depth(&self, end: SimTime) -> f64 {
        let total = end.as_nanos();
        if total == 0 {
            return 0.0;
        }
        let tail = u128::from(self.depth)
            * u128::from(end.saturating_since(self.last_depth_change).as_nanos());
        (self.depth_area_ns + tail) as f64 / total as f64
    }

    /// Mean accelerator queue wait per selection.
    #[must_use]
    pub fn mean_selection_wait(&self) -> SimDuration {
        if self.selections == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.selection_wait_ns / u128::from(self.selections)) as u64)
    }

    /// Busy fraction over `[SimTime::ZERO, end]` given the device's
    /// parallel capacity (accelerator cores, server slots), clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, end: SimTime, capacity: u32) -> f64 {
        let denom = u128::from(end.as_nanos()) * u128::from(capacity.max(1));
        if denom == 0 {
            return 0.0;
        }
        (self.busy_ns as f64 / denom as f64).min(1.0)
    }
}

/// World-level device instrumentation hook.
///
/// Every method has a no-op default body; worlds are monomorphized over
/// the probe type, so the default [`NoDeviceProbe`] compiles to nothing.
/// Guard any *preparatory* work (path materialization, id construction)
/// behind [`DeviceProbe::ENABLED`] so the disabled configuration stays
/// zero-cost.
pub trait DeviceProbe: Default {
    /// Whether the probe records anything (lets worlds skip preparing
    /// arguments entirely).
    const ENABLED: bool;

    /// One packet of `bytes` bytes of tier-`tier` traffic crossed `dev`.
    fn packet(&mut self, dev: DeviceId, tier: usize, bytes: u64) {
        let _ = (dev, tier, bytes);
    }

    /// The queue at `dev` grew (`+`) or shrank (`-`) at `now`.
    fn queue_delta(&mut self, now: SimTime, dev: DeviceId, delta: i64) {
        let _ = (now, dev, delta);
    }

    /// `dev` spent `time` of device capacity doing work.
    fn busy(&mut self, dev: DeviceId, time: SimDuration) {
        let _ = (dev, time);
    }

    /// The accelerator at `dev` completed a replica selection that
    /// waited `waited` for a free core.
    fn selection(&mut self, dev: DeviceId, waited: SimDuration) {
        let _ = (dev, waited);
    }

    /// Adds `delta` to a named counter at `dev`.
    fn bump(&mut self, dev: DeviceId, counter: DeviceCounter, delta: u64) {
        let _ = (dev, counter, delta);
    }

    /// Extracts the accumulated registry, if this probe kept one.
    fn into_registry(self) -> Option<DeviceStatsRegistry> {
        None
    }
}

/// The default device probe: records nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoDeviceProbe;

impl DeviceProbe for NoDeviceProbe {
    const ENABLED: bool = false;
}

/// A [`DeviceProbe`] that accumulates [`DeviceStats`] per [`DeviceId`].
///
/// Backed by a `BTreeMap` so iteration (and therefore every exported
/// report) is deterministic.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DeviceStatsRegistry {
    devices: BTreeMap<DeviceId, DeviceStats>,
}

impl DeviceStatsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The stats slot for `dev`, created on first touch.
    pub fn entry(&mut self, dev: DeviceId) -> &mut DeviceStats {
        self.devices.entry(dev).or_default()
    }

    /// The stats for `dev`, if the device was ever touched.
    #[must_use]
    pub fn get(&self, dev: &DeviceId) -> Option<&DeviceStats> {
        self.devices.get(dev)
    }

    /// Devices tracked so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether no device was ever touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// All `(device, stats)` pairs in [`DeviceId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&DeviceId, &DeviceStats)> {
        self.devices.iter()
    }
}

impl DeviceProbe for DeviceStatsRegistry {
    const ENABLED: bool = true;

    fn packet(&mut self, dev: DeviceId, tier: usize, bytes: u64) {
        let s = self.entry(dev);
        s.packets[tier] += 1;
        s.bytes[tier] += bytes;
    }

    fn queue_delta(&mut self, now: SimTime, dev: DeviceId, delta: i64) {
        self.entry(dev).queue_delta(now, delta);
    }

    fn busy(&mut self, dev: DeviceId, time: SimDuration) {
        self.entry(dev).busy_ns += u128::from(time.as_nanos());
    }

    fn selection(&mut self, dev: DeviceId, waited: SimDuration) {
        let s = self.entry(dev);
        s.selections += 1;
        s.selection_wait_ns += u128::from(waited.as_nanos());
    }

    fn bump(&mut self, dev: DeviceId, counter: DeviceCounter, delta: u64) {
        let s = self.entry(dev);
        match counter {
            DeviceCounter::Op => s.ops += delta,
            DeviceCounter::Drop => s.drops += delta,
            DeviceCounter::Clamp => s.clamps += delta,
            DeviceCounter::CloneUpdate => s.clone_updates += delta,
            DeviceCounter::CacheHit => s.cache_hits += delta,
            DeviceCounter::CacheMiss => s.cache_misses += delta,
            DeviceCounter::CacheStale => s.cache_stale_hits += delta,
            DeviceCounter::CacheEvict => s.cache_evictions += delta,
            DeviceCounter::CacheInvalidate => s.cache_invalidations += delta,
        }
    }

    fn into_registry(self) -> Option<DeviceStatsRegistry> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn device_ids_display_as_stable_keys() {
        assert_eq!(DeviceId::Switch(5).to_string(), "switch:5");
        assert_eq!(DeviceId::Accelerator(5).to_string(), "accel:5");
        assert_eq!(DeviceId::Server(3).to_string(), "server:3");
        assert_eq!(DeviceId::Client(7).to_string(), "client:7");
        assert_eq!(
            DeviceId::Link(NodeId::Host(3), NodeId::Switch(0)).to_string(),
            "link:h3>s0"
        );
    }

    #[test]
    fn registry_accumulates_per_device_and_tier() {
        let mut r = DeviceStatsRegistry::new();
        let sw = DeviceId::Switch(1);
        r.packet(sw, 0, 13);
        r.packet(sw, 0, 13);
        r.packet(sw, 2, 16);
        r.packet(DeviceId::Switch(2), 1, 13);
        let s = r.get(&sw).unwrap();
        assert_eq!(s.packets, [2, 0, 1]);
        assert_eq!(s.bytes, [26, 0, 16]);
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_bytes(), 42);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn queue_depth_is_time_weighted() {
        let mut s = DeviceStats::default();
        s.queue_delta(t(0), 1); // depth 1 over [0, 100)
        s.queue_delta(t(100), 1); // depth 2 over [100, 200)
        s.queue_delta(t(200), -2); // depth 0 over [200, 400)
        assert_eq!(s.depth, 0);
        assert_eq!(s.max_depth, 2);
        // (1*100 + 2*100 + 0*200) / 400 = 0.75
        assert!((s.mean_queue_depth(t(400)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn selection_wait_and_utilization_average_correctly() {
        let mut r = DeviceStatsRegistry::new();
        let dev = DeviceId::Accelerator(9);
        r.selection(dev, SimDuration::from_nanos(100));
        r.selection(dev, SimDuration::from_nanos(300));
        r.busy(dev, SimDuration::from_nanos(500));
        let s = r.get(&dev).unwrap();
        assert_eq!(s.selections, 2);
        assert_eq!(s.mean_selection_wait(), SimDuration::from_nanos(200));
        // 500 busy ns over 1000 ns × 2 cores = 0.25
        assert!((s.utilization(t(1_000), 2) - 0.25).abs() < 1e-12);
        assert_eq!(s.utilization(SimTime::ZERO, 2), 0.0);
    }

    #[test]
    fn counters_route_to_their_fields() {
        let mut r = DeviceStatsRegistry::new();
        let dev = DeviceId::Server(0);
        r.bump(dev, DeviceCounter::Op, 3);
        r.bump(dev, DeviceCounter::Drop, 1);
        r.bump(dev, DeviceCounter::Clamp, 2);
        r.bump(dev, DeviceCounter::CloneUpdate, 4);
        let s = r.get(&dev).unwrap();
        assert_eq!((s.ops, s.drops, s.clamps, s.clone_updates), (3, 1, 2, 4));
    }

    #[test]
    fn cache_counters_route_to_their_fields() {
        let mut r = DeviceStatsRegistry::new();
        let dev = DeviceId::Switch(4);
        r.bump(dev, DeviceCounter::CacheHit, 5);
        r.bump(dev, DeviceCounter::CacheMiss, 3);
        r.bump(dev, DeviceCounter::CacheStale, 1);
        r.bump(dev, DeviceCounter::CacheEvict, 2);
        r.bump(dev, DeviceCounter::CacheInvalidate, 4);
        let s = r.get(&dev).unwrap();
        assert_eq!(
            (
                s.cache_hits,
                s.cache_misses,
                s.cache_stale_hits,
                s.cache_evictions,
                s.cache_invalidations
            ),
            (5, 3, 1, 2, 4)
        );
        // Untouched devices report all-zero cache counters.
        r.bump(DeviceId::Server(0), DeviceCounter::Op, 1);
        let plain = r.get(&DeviceId::Server(0)).unwrap();
        assert_eq!(plain.cache_hits + plain.cache_misses, 0);
    }

    #[test]
    fn no_device_probe_is_trivially_usable_and_keeps_nothing() {
        let mut p = NoDeviceProbe;
        p.packet(DeviceId::Switch(0), 0, 10);
        p.queue_delta(t(1), DeviceId::Server(0), 1);
        p.busy(DeviceId::Accelerator(0), SimDuration::from_nanos(1));
        p.selection(DeviceId::Accelerator(0), SimDuration::ZERO);
        p.bump(DeviceId::Client(0), DeviceCounter::Op, 1);
        const { assert!(!NoDeviceProbe::ENABLED) };
        assert!(p.into_registry().is_none());
    }

    #[test]
    fn registry_iterates_in_device_id_order() {
        let mut r = DeviceStatsRegistry::new();
        r.packet(DeviceId::Server(1), 0, 1);
        r.packet(DeviceId::Switch(9), 0, 1);
        r.packet(DeviceId::Switch(2), 0, 1);
        let keys: Vec<String> = r.iter().map(|(d, _)| d.to_string()).collect();
        assert_eq!(keys, vec!["switch:2", "switch:9", "server:1"]);
    }
}
