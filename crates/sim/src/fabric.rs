//! The fabric layer: packet movement over the fat-tree.
//!
//! Everything about how a packet crosses the network lives here — ECMP
//! path replay, per-link latency accounting, and the two observation
//! channels that ride along without perturbing timing: the
//! [`DeviceProbe`] (per-device counters) and the hop log (per-copy
//! [`HopSpan`] timelines for `--trace-hops`). The fabric knows nothing
//! about schemes, requests, or servers; callers hand it endpoints, a flow
//! hash, and a hop sink.
//!
//! Timing model (§V-A): every link traversal costs `link_latency`
//! (30 µs); switch forwarding itself is free, so a packet's network time
//! is `edges × link_latency` along its (possibly RSNode-detoured) path.

use std::collections::{BTreeMap, HashMap};

use netrs_simcore::{DeviceId, DeviceProbe, NodeId, SimDuration, SimTime};
use netrs_topology::{FatTree, HostId, Link, LinkSet, SwitchId};

use crate::obs::{DeviceRecord, DeviceStatsReport, HopSpan};

/// Where observed hop spans accumulate while a copy is in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HopSink {
    /// Steer-phase hops of an in-network request whose target server is
    /// not known yet; sealed into a copy log at selection time.
    Pending(u64),
    /// Hops of a concrete copy `(request, server)`.
    Copy(u64, u32),
}

/// Device capacities the fabric needs to normalize utilization in the
/// device report (it does not otherwise know what sits behind a device).
pub(crate) struct DeviceCapacities {
    pub(crate) accelerator_cores: u32,
    pub(crate) server_slots: u32,
}

/// The network fabric: topology, link timing, and passive observation.
pub(crate) struct Fabric<D: DeviceProbe> {
    pub(crate) topo: FatTree,
    link_latency: SimDuration,
    /// The device probe. Layers bump counters on it directly; with
    /// [`netrs_simcore::NoDeviceProbe`] every call compiles away.
    pub(crate) devices: D,
    /// Per-copy hop spans keyed by `(request, server)`, drained when the
    /// copy's response arrives. `None` unless hop tracing is enabled.
    hop_log: Option<HashMap<(u64, u32), Vec<HopSpan>>>,
    /// Steer-phase hops of in-network requests whose server is not yet
    /// selected, keyed by request.
    pending_hops: HashMap<u64, Vec<HopSpan>>,
    /// Links currently failed by the fault plan; packets reroute around
    /// them (or are dropped when no alternative exists). Empty in
    /// fault-free runs, keeping the integer fast path bit-identical.
    dead: LinkSet,
    /// Per-link latency multipliers from `LinkDegrade` faults.
    degraded: BTreeMap<Link, f64>,
}

impl<D: DeviceProbe> Fabric<D> {
    pub(crate) fn new(topo: FatTree, link_latency: SimDuration, devices: D) -> Self {
        Fabric {
            topo,
            link_latency,
            devices,
            hop_log: None,
            pending_hops: HashMap::new(),
            dead: LinkSet::new(),
            degraded: BTreeMap::new(),
        }
    }

    pub(crate) fn enable_hop_tracing(&mut self) {
        self.hop_log = Some(HashMap::new());
    }

    /// Whether packet paths need to be walked for observation. With the
    /// default probe and hop tracing off this is `false` and every
    /// observation site reduces to an untaken branch.
    pub(crate) fn observing(&self) -> bool {
        D::ENABLED || self.hop_log.is_some()
    }

    // ---- link faults ----------------------------------------------------

    /// Marks `link` failed: ECMP reroutes around it, and copies whose only
    /// path crosses it are dropped by the caller (the `try_*` timing
    /// helpers return `None`).
    pub(crate) fn fail_link(&mut self, link: Link) {
        self.degraded.remove(&link);
        self.dead.insert(link);
    }

    /// Multiplies the latency of `link` by `factor`.
    pub(crate) fn degrade_link(&mut self, link: Link, factor: f64) {
        self.degraded.insert(link, factor);
    }

    /// Clears any failure or degradation of `link`.
    pub(crate) fn recover_link(&mut self, link: Link) {
        self.dead.remove(&link);
        self.degraded.remove(&link);
    }

    /// Whether no link is failed or degraded: timing is then closed-form
    /// in the hop count, whatever the flow hash.
    pub(crate) fn links_healthy(&self) -> bool {
        self.dead.is_empty() && self.degraded.is_empty()
    }

    /// Latency of one traversal of `link`, honouring degradation.
    fn edge(&self, link: Link) -> SimDuration {
        match self.degraded.get(&link) {
            Some(&f) => self.link_latency.mul_f64(f),
            None => self.link_latency,
        }
    }

    fn cost_host_to_host(&self, a: HostId, p: &[SwitchId], b: HostId) -> SimDuration {
        if p.is_empty() {
            return self.edge(Link::uplink(a));
        }
        let mut t = self.edge(Link::uplink(a));
        for w in p.windows(2) {
            t += self.edge(Link::between(w[0], w[1]));
        }
        t + self.edge(Link::uplink(b))
    }

    fn cost_host_to_switch(&self, a: HostId, p: &[SwitchId]) -> SimDuration {
        if p.is_empty() {
            return SimDuration::ZERO;
        }
        let mut t = self.edge(Link::uplink(a));
        for w in p.windows(2) {
            t += self.edge(Link::between(w[0], w[1]));
        }
        t
    }

    fn cost_switch_to_host(&self, sw: SwitchId, p: &[SwitchId], b: HostId) -> SimDuration {
        let mut t = SimDuration::ZERO;
        let mut prev = sw;
        for &s in p {
            t += self.edge(Link::between(prev, s));
            prev = s;
        }
        t + self.edge(Link::uplink(b))
    }

    /// Fault-aware [`Fabric::host_to_host`]: `None` when every candidate
    /// path crosses a failed link (the copy is lost).
    pub(crate) fn try_host_to_host(&self, a: HostId, b: HostId, hash: u64) -> Option<SimDuration> {
        if self.links_healthy() {
            return Some(self.host_to_host(a, b));
        }
        let p = self.topo.path_avoiding(a, b, hash, &self.dead).ok()?;
        Some(self.cost_host_to_host(a, &p, b))
    }

    /// The (possibly rerouted) host-to-switch path, or `None` when severed.
    pub(crate) fn host_to_switch_path(
        &self,
        a: HostId,
        sw: SwitchId,
        hash: u64,
    ) -> Option<Vec<SwitchId>> {
        if self.dead.is_empty() {
            Some(self.topo.path_host_to_switch(a, sw, hash))
        } else {
            self.topo
                .path_host_to_switch_avoiding(a, sw, hash, &self.dead)
                .ok()
        }
    }

    /// Fault-aware [`Fabric::host_to_switch`].
    pub(crate) fn try_host_to_switch(
        &self,
        a: HostId,
        sw: SwitchId,
        hash: u64,
    ) -> Option<SimDuration> {
        if self.links_healthy() {
            return Some(self.host_to_switch(a, sw));
        }
        let p = self.host_to_switch_path(a, sw, hash)?;
        Some(self.cost_host_to_switch(a, &p))
    }

    /// Fault-aware [`Fabric::switch_to_host`].
    pub(crate) fn try_switch_to_host(
        &self,
        sw: SwitchId,
        b: HostId,
        hash: u64,
    ) -> Option<SimDuration> {
        if self.links_healthy() {
            return Some(self.switch_to_host(sw, b));
        }
        let p = self
            .topo
            .path_switch_to_host_avoiding(sw, b, hash, &self.dead)
            .ok()?;
        Some(self.cost_switch_to_host(sw, &p, b))
    }

    // ---- timing ---------------------------------------------------------

    pub(crate) fn link(&self, edges: u32) -> SimDuration {
        self.link_latency * u64::from(edges)
    }

    // Every ECMP candidate between two endpoints has the same hop count,
    // so healthy-fabric timing is hash-independent and allocation-free
    // (`hops_agree_with_path_lengths` in netrs-topology pins this).

    pub(crate) fn host_to_host(&self, a: HostId, b: HostId) -> SimDuration {
        self.link(self.topo.hops(a, b) + 1)
    }

    pub(crate) fn host_to_switch(&self, a: HostId, sw: SwitchId) -> SimDuration {
        self.link(self.topo.hops_host_to_switch(a, sw))
    }

    pub(crate) fn switch_to_host(&self, sw: SwitchId, b: HostId) -> SimDuration {
        self.link(self.topo.hops_switch_to_host(sw, b) + 1)
    }

    // ---- observation ----------------------------------------------------

    fn push_hops(&mut self, sink: HopSink, hops: Vec<HopSpan>) {
        let Some(log) = self.hop_log.as_mut() else {
            return;
        };
        match sink {
            HopSink::Pending(req) => self.pending_hops.entry(req).or_default().extend(hops),
            HopSink::Copy(req, server) => log.entry((req, server)).or_default().extend(hops),
        }
    }

    /// Records the copy occupying `dev` over `[arrive, depart]` (client
    /// hold, accelerator selection, server queue + service).
    pub(crate) fn push_residency_hop(
        &mut self,
        sink: HopSink,
        dev: DeviceId,
        arrive: SimTime,
        depart: SimTime,
    ) {
        if self.hop_log.is_none() {
            return;
        }
        let hop = HopSpan {
            dev: dev.to_string(),
            arrive_ns: arrive.as_nanos(),
            depart_ns: depart.as_nanos(),
        };
        self.push_hops(sink, vec![hop]);
    }

    /// Walks one network segment (consecutive `nodes`, one link latency
    /// per edge, free switch forwarding) starting at `t0`: counts a
    /// tier-`tier` packet of `bytes` bytes at every link and switch it
    /// crosses, and logs the covering hop spans.
    fn observe_nodes(
        &mut self,
        t0: SimTime,
        nodes: &[NodeId],
        tier: usize,
        sink: HopSink,
        bytes: u64,
    ) {
        let link_latency = self.link_latency;
        let logging = self.hop_log.is_some();
        let mut hops: Vec<HopSpan> = Vec::new();
        let mut t = t0;
        for pair in nodes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            self.devices.packet(DeviceId::Link(a, b), tier, bytes);
            // A packet occupies the (serialized) link for one traversal.
            self.devices.busy(DeviceId::Link(a, b), link_latency);
            let arrived = t + link_latency;
            if logging {
                hops.push(HopSpan {
                    dev: DeviceId::Link(a, b).to_string(),
                    arrive_ns: t.as_nanos(),
                    depart_ns: arrived.as_nanos(),
                });
            }
            t = arrived;
            if let NodeId::Switch(s) = b {
                self.devices.packet(DeviceId::Switch(s), tier, bytes);
                if logging {
                    // Forwarding is free in the timing model: zero-width.
                    hops.push(HopSpan {
                        dev: DeviceId::Switch(s).to_string(),
                        arrive_ns: t.as_nanos(),
                        depart_ns: t.as_nanos(),
                    });
                }
            }
        }
        if logging {
            self.push_hops(sink, hops);
        }
    }

    /// Observes a host-to-host packet leaving at `t0` along the same ECMP
    /// path the timing helper charged for.
    pub(crate) fn observe_host_to_host(
        &mut self,
        t0: SimTime,
        a: HostId,
        b: HostId,
        hash: u64,
        sink: HopSink,
        bytes: u64,
    ) {
        let p = if self.dead.is_empty() {
            self.topo.path(a, b, hash)
        } else {
            self.topo
                .path_avoiding(a, b, hash, &self.dead)
                .expect("observed copy must have had a live path")
        };
        let tier = self.topo.path_tier(&p).id() as usize;
        let mut nodes = Vec::with_capacity(p.len() + 2);
        nodes.push(NodeId::Host(a.0));
        nodes.extend(p.iter().map(|s| NodeId::Switch(s.0)));
        nodes.push(NodeId::Host(b.0));
        self.observe_nodes(t0, &nodes, tier, sink, bytes);
    }

    /// Observes a host-to-switch packet along `path` (which includes the
    /// destination switch, matching [`FatTree::path_host_to_switch`]).
    pub(crate) fn observe_host_to_switch(
        &mut self,
        t0: SimTime,
        a: HostId,
        path: &[SwitchId],
        sink: HopSink,
        bytes: u64,
    ) {
        let tier = self.topo.path_tier(path).id() as usize;
        let mut nodes = Vec::with_capacity(path.len() + 1);
        nodes.push(NodeId::Host(a.0));
        nodes.extend(path.iter().map(|s| NodeId::Switch(s.0)));
        self.observe_nodes(t0, &nodes, tier, sink, bytes);
    }

    /// Observes a switch-to-host packet (the starting switch is part of
    /// the segment for tier classification but was already counted on
    /// arrival there).
    pub(crate) fn observe_switch_to_host(
        &mut self,
        t0: SimTime,
        sw: SwitchId,
        b: HostId,
        hash: u64,
        sink: HopSink,
        bytes: u64,
    ) {
        let p = if self.dead.is_empty() {
            self.topo.path_switch_to_host(sw, b, hash)
        } else {
            self.topo
                .path_switch_to_host_avoiding(sw, b, hash, &self.dead)
                .expect("observed copy must have had a live path")
        };
        let tier = self.topo.path_tier(&p).min(self.topo.tier(sw)).id() as usize;
        let mut nodes = Vec::with_capacity(p.len() + 2);
        nodes.push(NodeId::Switch(sw.0));
        nodes.extend(p.iter().map(|s| NodeId::Switch(s.0)));
        nodes.push(NodeId::Host(b.0));
        self.observe_nodes(t0, &nodes, tier, sink, bytes);
    }

    /// Closes the steer phase of an in-network request: appends the
    /// residency at `dev` (the accelerator, or the retired operator's
    /// switch) ending at `until`, and moves the request's pending hops
    /// into the copy log under `(req, server)`.
    pub(crate) fn seal_steer_hops(&mut self, req: u64, server: u32, dev: DeviceId, until: SimTime) {
        if self.hop_log.is_none() {
            return;
        }
        let mut hops = self.pending_hops.remove(&req).unwrap_or_default();
        let arrive_ns = hops.last().map_or(until.as_nanos(), |h| h.depart_ns);
        hops.push(HopSpan {
            dev: dev.to_string(),
            arrive_ns,
            depart_ns: until.as_nanos(),
        });
        self.push_hops(HopSink::Copy(req, server), hops);
    }

    /// Drains the hop timeline of one received copy.
    pub(crate) fn take_copy_hops(&mut self, req: u64, server: u32) -> Vec<HopSpan> {
        self.hop_log
            .as_mut()
            .and_then(|log| log.remove(&(req, server)))
            .unwrap_or_default()
    }

    /// Takes the accumulated per-device statistics as export-ready
    /// records, if a recording probe was compiled in. Call after the run
    /// drains; `now` is the utilization / mean-depth denominator.
    pub(crate) fn take_device_report(
        &mut self,
        now: SimTime,
        caps: &DeviceCapacities,
    ) -> Option<DeviceStatsReport> {
        let registry = std::mem::take(&mut self.devices).into_registry()?;
        let node_tier = |n: NodeId| match n {
            NodeId::Host(_) => 3,
            NodeId::Switch(s) => self.topo.tier(SwitchId(s)).id(),
        };
        let records = registry
            .iter()
            .map(|(&dev, s)| {
                let (kind, tier, capacity) = match dev {
                    DeviceId::Switch(s) => ("switch", self.topo.tier(SwitchId(s)).id(), 1),
                    DeviceId::Accelerator(s) => (
                        "accel",
                        self.topo.tier(SwitchId(s)).id(),
                        caps.accelerator_cores,
                    ),
                    DeviceId::Server(_) => ("server", 3, caps.server_slots),
                    DeviceId::Client(_) => ("client", 3, 1),
                    DeviceId::Link(a, b) => ("link", node_tier(a).min(node_tier(b)), 1),
                };
                DeviceRecord {
                    dev: dev.to_string(),
                    kind: kind.to_string(),
                    tier,
                    packets: s.packets,
                    bytes: s.bytes,
                    ops: s.ops,
                    selections: s.selections,
                    mean_selection_wait_ns: s.mean_selection_wait().as_nanos(),
                    clone_updates: s.clone_updates,
                    busy_ns: u64::try_from(s.busy_ns).unwrap_or(u64::MAX),
                    utilization: s.utilization(now, capacity),
                    mean_queue_depth: s.mean_queue_depth(now),
                    max_queue_depth: s.max_depth,
                    drops: s.drops,
                    clamps: s.clamps,
                    cache_hits: s.cache_hits,
                    cache_misses: s.cache_misses,
                    cache_stale_hits: s.cache_stale_hits,
                    cache_evictions: s.cache_evictions,
                    cache_invalidations: s.cache_invalidations,
                }
            })
            .collect();
        Some(DeviceStatsReport {
            records,
            sim_end_ns: now.as_nanos(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrs_simcore::NoDeviceProbe;

    #[test]
    fn faulted_timing_matches_path_walk() {
        // Once a link dies the slow path walks real (rerouted) paths;
        // spot-check it against the closed-form fast path on a healthy
        // twin for endpoints the fault cannot affect.
        let topo = FatTree::new(4).unwrap();
        let mut faulted = Fabric::new(topo.clone(), SimDuration::from_micros(30), NoDeviceProbe);
        let healthy = Fabric::new(topo, SimDuration::from_micros(30), NoDeviceProbe);
        faulted.fail_link(Link::uplink(HostId(15)));
        for h in 0..32u64 {
            let (a, b) = (HostId(0), HostId(9));
            assert_eq!(
                faulted.try_host_to_host(a, b, h),
                Some(healthy.host_to_host(a, b)),
                "reroute-free pairs must keep fast-path timing"
            );
        }
        assert_eq!(
            faulted.try_host_to_host(HostId(15), HostId(0), 1),
            None,
            "a severed host has no path"
        );
    }
}
