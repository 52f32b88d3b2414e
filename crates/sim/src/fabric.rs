//! The fabric layer: packet movement over the fat-tree.
//!
//! Everything about how a packet crosses the network lives here — ECMP
//! path replay, per-link latency accounting, and the two observation
//! channels that ride along without perturbing timing: the
//! [`DeviceProbe`] (per-device counters) and the hop log (per-copy
//! [`HopSpan`] timelines for `--trace-hops`). The fabric knows nothing
//! about schemes, requests, or servers; callers hand [`Fabric::send`]
//! endpoints, a flow hash, a hop sink and the residency that led up to
//! the send, or ask [`Fabric::latency`] for timing alone.
//!
//! Timing model (§V-A): every link traversal costs `link_latency`
//! (30 µs); switch forwarding itself is free, so a packet's network time
//! is `edges × link_latency` along its (possibly RSNode-detoured) path.

use std::collections::{BTreeMap, HashMap};

use netrs_simcore::{DeviceId, DeviceProbe, NodeId, SimDuration, SimTime};
use netrs_topology::{FatTree, HostId, Link, LinkSet, SwitchId, Tier};

use crate::obs::{DeviceRecord, DeviceStatsReport, HopSpan};
use crate::server::CopyId;

/// Where a send's observed hop spans accumulate.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HopSink {
    /// The steer phase of in-network request `.0`, on its way to an
    /// RSNode: sealed into the selected copy's walk there.
    Steer(u64),
    /// The walk of a sent copy.
    Copy(CopyId),
}

/// Where a copy was before a send: the walk that leads up to it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lead {
    /// At `dev` since the given time (a client holding the copy).
    Hold(DeviceId, SimTime),
    /// At in-network device `.0` since request `.1` reached it at `.2`:
    /// that steer walk becomes the copy's.
    Steer(DeviceId, u64, SimTime),
    /// Nowhere new: the copy continues another copy's walk (a chain write
    /// forwarded to the next replica).
    Carry(CopyId),
    /// In the network: the packet left `.0` at `.1` to reach the send's
    /// source (a reply through its RSNode). That segment, timed live by
    /// the caller, is observed only if the packet goes on.
    Segment(End, SimTime),
}

/// One end of a network segment.
#[derive(Debug, Clone, Copy)]
pub(crate) enum End {
    Host(HostId),
    Switch(SwitchId),
}

impl End {
    fn node(self) -> NodeId {
        match self {
            End::Host(h) => NodeId::Host(h.0),
            End::Switch(s) => NodeId::Switch(s.0),
        }
    }
}

impl From<HostId> for End {
    fn from(h: HostId) -> Self {
        End::Host(h)
    }
}

impl From<SwitchId> for End {
    fn from(s: SwitchId) -> Self {
        End::Switch(s)
    }
}

/// The `--trace-hops` walks in progress.
#[derive(Default)]
struct HopLog {
    /// Each sent copy's walk, drained when it is received, lost or
    /// discarded.
    copies: HashMap<CopyId, Vec<HopSpan>>,
    /// The steer walks of in-network requests, by request and the instant
    /// they reach their RSNode (a retry's steer phase can overlap an
    /// earlier one's).
    steers: HashMap<(u64, SimTime), Vec<HopSpan>>,
}

/// A hop span: `dev` occupied from `arrive` to `depart`.
fn span(dev: DeviceId, arrive: SimTime, depart: SimTime) -> HopSpan {
    HopSpan {
        dev: dev.to_string(),
        arrive_ns: arrive.as_nanos(),
        depart_ns: depart.as_nanos(),
    }
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
    /// The walks in progress. `None` unless hop tracing is enabled.
    hop_log: Option<HopLog>,
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
            dead: LinkSet::new(),
            degraded: BTreeMap::new(),
        }
    }

    pub(crate) fn enable_hop_tracing(&mut self) {
        self.hop_log = Some(HopLog::default());
    }

    // ---- link faults ----------------------------------------------------

    /// Marks `link` failed: ECMP reroutes around it, and copies whose only
    /// path crosses it are dropped by the caller ([`Fabric::send`] and
    /// [`Fabric::latency`] return `None`).
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

    // ---- timing and routing ---------------------------------------------

    /// How long a packet takes from `from` to `to`, or `None` when every
    /// equal-cost path crosses a failed link (the packet is lost). Every
    /// ECMP candidate has the same hop count, so on a healthy fabric this
    /// is closed-form, hash-independent and allocation-free
    /// (`hops_agree_with_path_lengths` in netrs-topology pins this);
    /// otherwise it is the per-link cost of the masked path. Timing only:
    /// nothing is observed.
    pub(crate) fn latency(
        &self,
        from: impl Into<End>,
        to: impl Into<End>,
        hash: u64,
    ) -> Option<SimDuration> {
        let (from, to) = (from.into(), to.into());
        if !self.links_healthy() {
            return Some(self.cost(&self.route(from, to, hash)?));
        }
        let t = &self.topo;
        let edges = match (from, to) {
            (End::Host(a), End::Host(b)) => t.hops(a, b) + 1,
            (End::Host(a), End::Switch(s)) => t.hops_host_to_switch(a, s),
            (End::Switch(s), End::Host(b)) => t.hops_switch_to_host(s, b) + 1,
            (End::Switch(_), End::Switch(_)) => unreachable!("no segment joins two switches"),
        };
        Some(self.link_latency * u64::from(edges))
    }

    /// Sends a packet of `bytes` bytes from `from` to `to` at `now` and
    /// returns its latency, or `None` when no live path exists (the
    /// packet is lost, and so is the walk that led up to it). When
    /// observing, the packet is counted at every link and switch of its
    /// (possibly rerouted) path, and its hops, after the `lead` walk that
    /// ends at `now`, are logged into `sink`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        from: impl Into<End>,
        to: impl Into<End>,
        hash: u64,
        sink: HopSink,
        bytes: u64,
        lead: Option<Lead>,
    ) -> Option<SimDuration> {
        // With the default probe and hop tracing off, nothing is observed.
        if !D::ENABLED && self.hop_log.is_none() {
            return self.latency(from, to, hash);
        }
        let (from, to) = (from.into(), to.into());
        let route = self.route(from, to, hash);
        // Taken even when the packet is lost: the walk is lost with it.
        let mut hops = lead.map_or_else(Vec::new, |lead| self.lead_hops(lead, now));
        let nodes = route?;
        if let Some(Lead::Segment(start, left)) = lead {
            let before = self
                .route(start, from, hash)
                .expect("the caller timed it live");
            self.observe(left, &before, bytes, &mut hops);
        }
        let latency = self.cost(&nodes);
        self.observe(now, &nodes, bytes, &mut hops);
        self.file(sink, now + latency, hops);
        Some(latency)
    }

    /// The nodes a packet crosses from `from` to `to` over the masked ECMP
    /// path, or `None` when that segment is severed.
    fn route(&self, from: End, to: End, hash: u64) -> Option<Vec<NodeId>> {
        let (t, dead) = (&self.topo, &self.dead);
        let switches = match (from, to) {
            (End::Host(a), End::Host(b)) => t.path(a, b, hash, dead),
            (End::Host(a), End::Switch(s)) => t.path_host_to_switch(a, s, hash, dead),
            (End::Switch(s), End::Host(b)) => t.path_switch_to_host(s, b, hash, dead),
            (End::Switch(_), End::Switch(_)) => unreachable!("no segment joins two switches"),
        }
        .ok()?;
        let mut nodes = Vec::with_capacity(switches.len() + 2);
        nodes.push(from.node());
        nodes.extend(switches.iter().map(|s| NodeId::Switch(s.0)));
        // A host→switch path already ends at the destination switch.
        if let End::Host(b) = to {
            nodes.push(NodeId::Host(b.0));
        }
        Some(nodes)
    }

    /// The latency along `nodes`: switch forwarding is free.
    fn cost(&self, nodes: &[NodeId]) -> SimDuration {
        let edges = nodes.windows(2).map(|pair| self.edge(pair[0], pair[1]));
        edges.fold(SimDuration::ZERO, |t, edge| t + edge)
    }

    /// One traversal of the link between adjacent nodes `a` and `b`,
    /// honouring degradation.
    fn edge(&self, a: NodeId, b: NodeId) -> SimDuration {
        let link = match (a, b) {
            (NodeId::Host(h), _) | (_, NodeId::Host(h)) => Link::uplink(HostId(h)),
            (NodeId::Switch(a), NodeId::Switch(b)) => Link::between(SwitchId(a), SwitchId(b)),
        };
        match self.degraded.get(&link) {
            Some(&f) => self.link_latency.mul_f64(f),
            None => self.link_latency,
        }
    }

    // ---- observation ----------------------------------------------------

    /// Files `hops` into `sink`; a steer walk under the instant it reaches
    /// its RSNode, `arrival`.
    fn file(&mut self, sink: HopSink, arrival: SimTime, hops: Vec<HopSpan>) {
        let Some(log) = self.hop_log.as_mut() else {
            return;
        };
        match sink {
            HopSink::Steer(req) => log.steers.entry((req, arrival)).or_default().extend(hops),
            HopSink::Copy(copy) => log.copies.entry(copy).or_default().extend(hops),
        }
    }

    /// The walk a send continues: the one `lead` carries, if any, then the
    /// residency that ends at `now`. Empty unless hop tracing is on.
    fn lead_hops(&mut self, lead: Lead, now: SimTime) -> Vec<HopSpan> {
        let Some(log) = self.hop_log.as_mut() else {
            return Vec::new();
        };
        match lead {
            Lead::Hold(dev, since) => vec![span(dev, since, now)],
            Lead::Steer(dev, req, arrived) => {
                let mut hops = log.steers.remove(&(req, arrived)).unwrap_or_default();
                hops.push(span(dev, arrived, now));
                hops
            }
            Lead::Carry(copy) => log.copies.remove(&copy).unwrap_or_default(),
            Lead::Segment(..) => Vec::new(),
        }
    }

    /// Records `copy` occupying `dev` over `[arrive, depart]` (a server's
    /// queue and service).
    pub(crate) fn push_residency_hop(
        &mut self,
        copy: CopyId,
        dev: DeviceId,
        arrive: SimTime,
        depart: SimTime,
    ) {
        if self.hop_log.is_some() {
            self.file(HopSink::Copy(copy), depart, vec![span(dev, arrive, depart)]);
        }
    }

    /// Walks one segment (`nodes`, one link traversal per edge, free switch
    /// forwarding) starting at `t0`: counts a packet of `bytes` bytes, of
    /// the tier of the highest switch on the segment, at every link and
    /// switch it enters (a starting switch was counted on arrival there),
    /// and appends the covering hop spans to `hops`.
    fn observe(&mut self, t0: SimTime, nodes: &[NodeId], bytes: u64, hops: &mut Vec<HopSpan>) {
        let tier = nodes
            .iter()
            .filter_map(|&n| match n {
                NodeId::Switch(s) => Some(self.topo.tier(SwitchId(s))),
                NodeId::Host(_) => None,
            })
            .min()
            .unwrap_or(Tier::Tor)
            .id() as usize;
        let link_latency = self.link_latency;
        let logging = self.hop_log.is_some();
        let mut t = t0;
        for pair in nodes.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            self.devices.packet(DeviceId::Link(a, b), tier, bytes);
            // A packet occupies the (serialized) link for one nominal
            // traversal; a degraded link only delays its arrival.
            self.devices.busy(DeviceId::Link(a, b), link_latency);
            let arrived = t + self.edge(a, b);
            if logging {
                hops.push(span(DeviceId::Link(a, b), t, arrived));
            }
            t = arrived;
            if let NodeId::Switch(s) = b {
                self.devices.packet(DeviceId::Switch(s), tier, bytes);
                if logging {
                    // Forwarding is free in the timing model: zero-width.
                    hops.push(span(DeviceId::Switch(s), t, t));
                }
            }
        }
    }

    /// Drains the walk of `copy` (received, lost or discarded: a later copy
    /// in its slot must not inherit it).
    pub(crate) fn take_copy_hops(&mut self, copy: CopyId) -> Vec<HopSpan> {
        self.hop_log
            .as_mut()
            .and_then(|log| log.copies.remove(&copy))
            .unwrap_or_default()
    }

    /// Drops the steer walk of request `req` that reached its RSNode at
    /// `arrived`: the request was lost or resolved there.
    pub(crate) fn forget_steer(&mut self, req: u64, arrived: SimTime) {
        if let Some(log) = self.hop_log.as_mut() {
            log.steers.remove(&(req, arrived));
        }
    }

    /// Walks neither received nor lost yet (0 once the run drains).
    pub(crate) fn walks_in_flight(&self) -> usize {
        self.hop_log
            .as_ref()
            .map_or(0, |log| log.copies.len() + log.steers.len())
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
                faulted.latency(a, b, h),
                healthy.latency(a, b, h),
                "reroute-free pairs must keep fast-path timing"
            );
        }
        assert_eq!(
            faulted.latency(HostId(15), HostId(0), 1),
            None,
            "a severed host has no path"
        );
    }
}
