//! The data-center network substrate of the NetRS reproduction.
//!
//! NetRS (§II) assumes the multi-rooted tree topology of modern data
//! centers; the evaluation (§V-A) uses a 16-ary, 3-tier fat-tree with 1024
//! end-hosts. This crate implements the k-ary fat-tree of Al-Fares et al.
//! (SIGCOMM'08): `k` pods, each with `k/2` ToR and `k/2` aggregation
//! switches, `(k/2)²` core switches, and `k³/4` hosts, with ECMP multipath
//! routing between them.
//!
//! Besides plain shortest-path routing, the crate provides the two pieces
//! NetRS needs from the network:
//!
//! * **via-waypoint routing** ([`FatTree::path_via`]) — the path a NetRS
//!   packet takes when its RSNode is *not* on the default path, and
//! * **tier/traffic classification** (§III-B): switch tier IDs counted from
//!   the core tier downward ([`Tier`]), the Tier-0/1/2 classification of a
//!   host pair's traffic ([`FatTree::traffic_tier`]), and the extra-hop cost
//!   of detouring traffic of one tier through an RSNode of another
//!   ([`extra_hops`], Eq. 7 of the paper).
//!
//! # Examples
//!
//! ```
//! use netrs_topology::{FatTree, HostId, LinkSet, Tier};
//!
//! let net = FatTree::new(4)?;
//! assert_eq!(net.num_hosts(), 16);
//! assert_eq!(net.num_switches(), 20);
//!
//! let (a, b) = (HostId(0), HostId(15));
//! assert_eq!(net.traffic_tier(a, b), Tier::Core); // different pods
//! let path = net.path(a, b, 7, &LinkSet::new())?;
//! assert_eq!(path.len(), 5); // ToR, Agg, Core, Agg, ToR
//! # Ok::<(), netrs_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies an end-host (`0..k³/4`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HostId(pub u32);

/// Identifies a switch by its global index: ToRs first, then aggregation
/// switches, then cores.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SwitchId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Switch tiers, numbered as in §III-B of the paper: the tier ID is the
/// minimum number of hops to the top (core) tier, so core = 0,
/// aggregation = 1, ToR = 2.
///
/// The same numbers classify traffic: `Tier::Tor` ("Tier-2 traffic") is
/// rack-local, `Tier::Agg` ("Tier-1") pod-local, and `Tier::Core`
/// ("Tier-0") crosses pods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Core switches (tier ID 0, the top tier).
    Core = 0,
    /// Aggregation switches (tier ID 1).
    Agg = 1,
    /// Top-of-Rack switches (tier ID 2).
    Tor = 2,
}

impl Tier {
    /// The numeric tier ID used in the placement ILP (§III-B).
    #[must_use]
    pub fn id(self) -> u32 {
        self as u32
    }

    /// All tiers, top (core) first.
    pub const ALL: [Tier; 3] = [Tier::Core, Tier::Agg, Tier::Tor];
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Core => write!(f, "core"),
            Tier::Agg => write!(f, "agg"),
            Tier::Tor => write!(f, "tor"),
        }
    }
}

/// Errors building a topology or routing through one with failed links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The fat-tree arity must be an even integer of at least 2.
    BadArity(u32),
    /// The host's access link is down: nothing can reach it and it can
    /// reach nothing.
    HostPartitioned(HostId),
    /// Every equal-cost path between the endpoints crosses a dead link.
    NoAlivePath,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::BadArity(k) => {
                write!(f, "fat-tree arity must be even and >= 2, got {k}")
            }
            TopologyError::HostPartitioned(h) => {
                write!(f, "host {h} is partitioned (its access link is down)")
            }
            TopologyError::NoAlivePath => {
                write!(f, "every equal-cost path crosses a dead link")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected physical link of the fat-tree: a host's access link or
/// a switch-to-switch link. Switch endpoints are stored in ascending id
/// order so either naming order compares equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Link {
    /// The access link between a host and its ToR.
    HostUplink(HostId),
    /// A link between two switches (normalized: lower id first).
    SwitchLink(SwitchId, SwitchId),
}

impl Link {
    /// The access link of a host.
    #[must_use]
    pub fn uplink(h: HostId) -> Link {
        Link::HostUplink(h)
    }

    /// The link between two switches, in either naming order.
    #[must_use]
    pub fn between(a: SwitchId, b: SwitchId) -> Link {
        if a.0 <= b.0 {
            Link::SwitchLink(a, b)
        } else {
            Link::SwitchLink(b, a)
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Link::HostUplink(h) => write!(f, "{h}<->s{}", h.0),
            Link::SwitchLink(a, b) => write!(f, "{a}<->{b}"),
        }
    }
}

/// A set of links — typically the currently failed ones that routing
/// must steer around.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSet {
    links: std::collections::BTreeSet<Link>,
}

impl LinkSet {
    /// An empty set.
    #[must_use]
    pub const fn new() -> Self {
        LinkSet {
            links: std::collections::BTreeSet::new(),
        }
    }

    /// Adds a link; returns whether it was newly inserted.
    pub fn insert(&mut self, link: Link) -> bool {
        self.links.insert(link)
    }

    /// Removes a link; returns whether it was present.
    pub fn remove(&mut self, link: &Link) -> bool {
        self.links.remove(link)
    }

    /// Whether the set contains a link.
    #[must_use]
    pub fn contains(&self, link: &Link) -> bool {
        self.links.contains(link)
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of links in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether every switch-to-switch hop of `path` avoids this set.
    #[must_use]
    pub fn switch_path_avoids(&self, path: &[SwitchId]) -> bool {
        path.windows(2)
            .all(|w| !self.contains(&Link::between(w[0], w[1])))
    }
}

/// Extra forwarding hops paid by traffic whose natural highest tier is
/// `traffic` when it is detoured through an RSNode at tier `rsnode`
/// (Eq. 7 of the paper).
///
/// Climbing above the traffic's natural highest tier costs two extra
/// forwardings per tier level (up and back down); an RSNode at or above the
/// natural tier is on-path and free. E.g. rack-local (Tier-2) traffic pays
/// 4 extra hops to reach a core RSNode — the paper's own worked example.
///
/// Note: the paper's Eq. 7 prints the coefficient as `2(h(i,j) + k)`; the
/// worked example ("the extra hops of the request is 4 = 5 − 1") and a
/// direct hop count both give `2(h(i,j) − k)`, i.e. `2 · (traffic tier −
/// RSNode tier)`. We implement the version consistent with the example.
///
/// # Examples
///
/// ```
/// use netrs_topology::{extra_hops, Tier};
///
/// assert_eq!(extra_hops(Tier::Tor, Tier::Core), 4); // paper's example
/// assert_eq!(extra_hops(Tier::Tor, Tier::Agg), 2);
/// assert_eq!(extra_hops(Tier::Agg, Tier::Agg), 0);
/// assert_eq!(extra_hops(Tier::Core, Tier::Agg), 0); // on-path
/// ```
#[must_use]
pub fn extra_hops(traffic: Tier, rsnode: Tier) -> u32 {
    2 * traffic.id().saturating_sub(rsnode.id())
}

/// A k-ary, 3-tier fat-tree (Al-Fares et al., SIGCOMM'08).
///
/// All structure is computed arithmetically from `k`; the topology itself
/// needs O(1) memory regardless of scale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FatTree {
    k: u32,
}

impl FatTree {
    /// Builds a `k`-ary fat-tree.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::BadArity`] if `k` is odd or below 2.
    pub fn new(k: u32) -> Result<Self, TopologyError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(TopologyError::BadArity(k));
        }
        Ok(FatTree { k })
    }

    /// The arity `k`.
    #[must_use]
    pub fn arity(&self) -> u32 {
        self.k
    }

    /// Half the arity (`k/2`) — ports per direction, hosts per rack, racks
    /// per pod.
    #[must_use]
    fn half(&self) -> u32 {
        self.k / 2
    }

    /// Number of pods (`k`).
    #[must_use]
    pub fn num_pods(&self) -> u32 {
        self.k
    }

    /// Number of end-hosts (`k³/4`).
    #[must_use]
    pub fn num_hosts(&self) -> u32 {
        self.k * self.k * self.k / 4
    }

    /// Hosts attached to each ToR (`k/2`).
    #[must_use]
    pub fn hosts_per_rack(&self) -> u32 {
        self.half()
    }

    /// Hosts in each pod (`(k/2)²`).
    #[must_use]
    pub fn hosts_per_pod(&self) -> u32 {
        self.half() * self.half()
    }

    /// Number of ToR switches (`k²/2`).
    #[must_use]
    pub fn num_tors(&self) -> u32 {
        self.k * self.half()
    }

    /// Number of aggregation switches (`k²/2`).
    #[must_use]
    pub fn num_aggs(&self) -> u32 {
        self.k * self.half()
    }

    /// Number of core switches (`(k/2)²`).
    #[must_use]
    pub fn num_cores(&self) -> u32 {
        self.half() * self.half()
    }

    /// Total number of switches.
    #[must_use]
    pub fn num_switches(&self) -> u32 {
        self.num_tors() + self.num_aggs() + self.num_cores()
    }

    /// Iterates over all switch IDs (ToRs, then aggs, then cores).
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.num_switches()).map(SwitchId)
    }

    /// Iterates over all host IDs.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.num_hosts()).map(HostId)
    }

    /// The tier of a switch.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn tier(&self, s: SwitchId) -> Tier {
        if s.0 < self.num_tors() {
            Tier::Tor
        } else if s.0 < self.num_tors() + self.num_aggs() {
            Tier::Agg
        } else {
            assert!(s.0 < self.num_switches(), "switch {s} out of range");
            Tier::Core
        }
    }

    /// The pod of a host.
    #[must_use]
    pub fn pod_of_host(&self, h: HostId) -> u32 {
        h.0 / self.hosts_per_pod()
    }

    /// The rack (global ToR index, `0..num_tors`) of a host.
    #[must_use]
    pub fn rack_of_host(&self, h: HostId) -> u32 {
        h.0 / self.hosts_per_rack()
    }

    /// The ToR switch a host is attached to.
    #[must_use]
    pub fn tor_of_host(&self, h: HostId) -> SwitchId {
        SwitchId(self.rack_of_host(h))
    }

    /// The hosts attached to a rack (global ToR index).
    pub fn hosts_in_rack(&self, rack: u32) -> impl Iterator<Item = HostId> {
        let per = self.hosts_per_rack();
        (rack * per..(rack + 1) * per).map(HostId)
    }

    /// The pod a switch belongs to; `None` for core switches, which belong
    /// to no pod.
    #[must_use]
    pub fn pod_of_switch(&self, s: SwitchId) -> Option<u32> {
        match self.tier(s) {
            Tier::Tor => Some(s.0 / self.half()),
            Tier::Agg => Some((s.0 - self.num_tors()) / self.half()),
            Tier::Core => None,
        }
    }

    /// The ToR switch with in-pod index `i` in pod `p`.
    #[must_use]
    pub fn tor(&self, pod: u32, i: u32) -> SwitchId {
        debug_assert!(pod < self.k && i < self.half());
        SwitchId(pod * self.half() + i)
    }

    /// The aggregation switch with in-pod index `i` in pod `p`.
    #[must_use]
    pub fn agg(&self, pod: u32, i: u32) -> SwitchId {
        debug_assert!(pod < self.k && i < self.half());
        SwitchId(self.num_tors() + pod * self.half() + i)
    }

    /// The core switch with global core index `c`.
    #[must_use]
    pub fn core(&self, c: u32) -> SwitchId {
        debug_assert!(c < self.num_cores());
        SwitchId(self.num_tors() + self.num_aggs() + c)
    }

    /// The core index of a core switch, or `None` for other tiers.
    #[must_use]
    pub fn core_index(&self, s: SwitchId) -> Option<u32> {
        (self.tier(s) == Tier::Core).then(|| s.0 - self.num_tors() - self.num_aggs())
    }

    /// The in-pod index of a ToR or aggregation switch, or `None` for core
    /// switches.
    #[must_use]
    pub fn index_in_pod(&self, s: SwitchId) -> Option<u32> {
        match self.tier(s) {
            Tier::Tor => Some(s.0 % self.half()),
            Tier::Agg => Some((s.0 - self.num_tors()) % self.half()),
            Tier::Core => None,
        }
    }

    /// The in-pod index of the aggregation switches a core connects to
    /// (every pod's aggregation switch with this index links to the core).
    #[must_use]
    fn core_group(&self, core_index: u32) -> u32 {
        core_index / self.half()
    }

    /// Whether two switches are directly connected by a link.
    #[must_use]
    pub fn switches_adjacent(&self, a: SwitchId, b: SwitchId) -> bool {
        let (lo, hi) = if self.tier(a) >= self.tier(b) {
            (b, a) // lo is the higher tier (numerically smaller)
        } else {
            (a, b)
        };
        match (self.tier(lo), self.tier(hi)) {
            (Tier::Agg, Tier::Tor) => self.pod_of_switch(lo) == self.pod_of_switch(hi),
            (Tier::Core, Tier::Agg) => {
                let c = self.core_index(lo).expect("lo is core");
                self.index_in_pod(hi) == Some(self.core_group(c))
            }
            _ => false,
        }
    }

    /// Classifies the traffic between two hosts by the highest tier its
    /// default path touches: [`Tier::Tor`] (Tier-2) within a rack,
    /// [`Tier::Agg`] (Tier-1) within a pod, [`Tier::Core`] (Tier-0) across
    /// pods. Two equal hosts classify as rack-local.
    #[must_use]
    pub fn traffic_tier(&self, a: HostId, b: HostId) -> Tier {
        if self.rack_of_host(a) == self.rack_of_host(b) {
            Tier::Tor
        } else if self.pod_of_host(a) == self.pod_of_host(b) {
            Tier::Agg
        } else {
            Tier::Core
        }
    }

    /// The ECMP path between two hosts as the ordered list of switches
    /// traversed, masked over `dead` links: the equal-cost candidates are
    /// probed from the `flow_hash`-selected one onward and the first whose
    /// switch hops are all alive wins, so with an empty `dead` set this is
    /// the hash-selected default path. Empty when `src == dst`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::HostPartitioned`] when either host's access link
    /// is dead; [`TopologyError::NoAlivePath`] when every equal-cost
    /// path crosses a dead link.
    pub fn path(
        &self,
        src: HostId,
        dst: HostId,
        flow_hash: u64,
        dead: &LinkSet,
    ) -> Result<Vec<SwitchId>, TopologyError> {
        if src == dst {
            return Ok(Vec::new());
        }
        self.check_uplink(src, dead)?;
        self.check_uplink(dst, dead)?;
        // A host pair's equal-cost paths are those up to the far ToR.
        self.path_host_to_switch(src, self.tor_of_host(dst), flow_hash, dead)
    }

    /// The masked ECMP path (see [`FatTree::path`]) from a host up to a
    /// given switch, inclusive. Used to route a request toward its RSNode.
    ///
    /// # Errors
    ///
    /// See [`FatTree::path`].
    pub fn path_host_to_switch(
        &self,
        src: HostId,
        w: SwitchId,
        flow_hash: u64,
        dead: &LinkSet,
    ) -> Result<Vec<SwitchId>, TopologyError> {
        self.check_uplink(src, dead)?;
        let (n, first) = self.up_candidate(src, w, flow_hash);
        // Probe `flow_hash`, `flow_hash + 1`, … modulo the candidate count.
        std::iter::once(first)
            .chain((1..n).map(|probe| self.up_candidate(src, w, flow_hash % n + probe).1))
            .find(|p| dead.switch_path_avoids(p))
            .ok_or(TopologyError::NoAlivePath)
    }

    /// The masked ECMP path (see [`FatTree::path`]) from a switch down (or
    /// over) to a host, *excluding* the starting switch: the host-to-switch
    /// path reversed, so every consecutive pair stays directly connected.
    ///
    /// # Errors
    ///
    /// See [`FatTree::path`].
    pub fn path_switch_to_host(
        &self,
        w: SwitchId,
        dst: HostId,
        flow_hash: u64,
        dead: &LinkSet,
    ) -> Result<Vec<SwitchId>, TopologyError> {
        let mut up = self.path_host_to_switch(dst, w, flow_hash, dead)?;
        up.pop(); // drop `w` itself
        up.reverse();
        Ok(up)
    }

    /// The full path between two hosts constrained to pass through the
    /// waypoint switch `via` (the RSNode): the host-to-switch path to
    /// `via`, then the switch-to-host path on. If `via` already lies on a
    /// default path, the result is simply a default path through it.
    ///
    /// # Errors
    ///
    /// See [`FatTree::path`].
    pub fn path_via(
        &self,
        src: HostId,
        via: SwitchId,
        dst: HostId,
        flow_hash: u64,
        dead: &LinkSet,
    ) -> Result<Vec<SwitchId>, TopologyError> {
        let mut p = self.path_host_to_switch(src, via, flow_hash, dead)?;
        p.extend(self.path_switch_to_host(via, dst, flow_hash, dead)?);
        Ok(p)
    }

    /// The equal-cost candidates from `src` up to switch `w` (inclusive):
    /// how many there are, and the one `ecmp` selects (modulo that count).
    /// Every segment kind routes over these.
    fn up_candidate(&self, src: HostId, w: SwitchId, ecmp: u64) -> (u64, Vec<SwitchId>) {
        let tor_s = self.tor_of_host(src);
        let pod_s = self.pod_of_host(src);
        let half = self.half();
        let local = self.pod_of_switch(w) == Some(pod_s);
        let pick = |n: u32| (ecmp % u64::from(n)) as u32;
        match self.tier(w) {
            Tier::Tor if w == tor_s => (1, vec![w]),
            Tier::Tor if local => (u64::from(half), vec![tor_s, self.agg(pod_s, pick(half)), w]),
            Tier::Tor => {
                // Across pods every core is a candidate; its group fixes
                // the aggregation switch on either side.
                let c = pick(self.num_cores());
                let g = self.core_group(c);
                let pod_w = self.pod_of_switch(w).expect("tor has a pod");
                let path = vec![
                    tor_s,
                    self.agg(pod_s, g),
                    self.core(c),
                    self.agg(pod_w, g),
                    w,
                ];
                (u64::from(self.num_cores()), path)
            }
            // A pod's ToR reaches each of its aggs by one link.
            Tier::Agg if local => (1, vec![tor_s, w]),
            Tier::Agg => {
                // A foreign agg is reachable through the k/2 cores of its
                // group; the group is fixed by its in-pod index.
                let i_w = self.index_in_pod(w).expect("agg has an index");
                let c = i_w * half + pick(half);
                (
                    u64::from(half),
                    vec![tor_s, self.agg(pod_s, i_w), self.core(c), w],
                )
            }
            Tier::Core => {
                // Exactly one agg per pod reaches a given core.
                let c = self.core_index(w).expect("w is core");
                (1, vec![tor_s, self.agg(pod_s, self.core_group(c)), w])
            }
        }
    }

    // ---- closed-form hop counts -----------------------------------------
    //
    // Every equal-cost ECMP candidate between two endpoints has the same
    // length, so hop counts depend only on the tier classification — not
    // on the flow hash. These closed forms let timing-only callers skip
    // materializing a path `Vec` entirely; each is pinned to its path
    // builder by the `hops_agree_with_path_lengths` test.

    /// The length of any live `self.path(src, dst, _, _)` in O(1): the
    /// switches on a host-to-host path (0 same-host, 1 rack, 3 pod, 5 core).
    #[must_use]
    pub fn hops(&self, src: HostId, dst: HostId) -> u32 {
        if src == dst {
            return 0;
        }
        match self.traffic_tier(src, dst) {
            Tier::Tor => 1,
            Tier::Agg => 3,
            Tier::Core => 5,
        }
    }

    /// The length of any live `self.path_host_to_switch(src, w, _, _)`, in
    /// O(1).
    #[must_use]
    pub fn hops_host_to_switch(&self, src: HostId, w: SwitchId) -> u32 {
        let pod_s = self.pod_of_host(src);
        match self.tier(w) {
            Tier::Tor => {
                if w == self.tor_of_host(src) {
                    1
                } else if self.pod_of_switch(w) == Some(pod_s) {
                    3
                } else {
                    5
                }
            }
            Tier::Agg => {
                if self.pod_of_switch(w) == Some(pod_s) {
                    2
                } else {
                    4
                }
            }
            Tier::Core => 3,
        }
    }

    /// The length of any live `self.path_switch_to_host(w, dst, _, _)`, in
    /// O(1): the upward construction minus the starting switch itself.
    #[must_use]
    pub fn hops_switch_to_host(&self, w: SwitchId, dst: HostId) -> u32 {
        self.hops_host_to_switch(dst, w) - 1
    }

    /// The length of any live `self.path_via(src, via, dst, _, _)`, in O(1).
    #[must_use]
    pub fn hops_via(&self, src: HostId, via: SwitchId, dst: HostId) -> u32 {
        self.hops_host_to_switch(src, via) + self.hops_switch_to_host(via, dst)
    }

    /// [`TopologyError::HostPartitioned`] when the host's uplink is dead.
    fn check_uplink(&self, h: HostId, dead: &LinkSet) -> Result<(), TopologyError> {
        if dead.contains(&Link::uplink(h)) {
            Err(TopologyError::HostPartitioned(h))
        } else {
            Ok(())
        }
    }

    /// Classifies a path segment by the topologically highest tier it
    /// touches (the tier of smallest numeric ID: core = 0). For a full
    /// host-to-host default path this agrees with
    /// [`FatTree::traffic_tier`]; it also classifies partial segments
    /// (host→RSNode, RSNode→host) where no host pair exists. An empty
    /// path (same-host traffic) classifies as rack-local.
    #[must_use]
    pub fn path_tier(&self, path: &[SwitchId]) -> Tier {
        path.iter()
            .map(|&s| self.tier(s))
            .min()
            .unwrap_or(Tier::Tor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> FatTree {
        FatTree::new(4).unwrap()
    }

    /// No dead links: every builder returns the hash-selected default.
    const HEALTHY: &LinkSet = &LinkSet::new();

    #[test]
    fn path_tier_matches_traffic_tier_on_default_paths() {
        let net = net();
        for a in net.hosts() {
            for b in net.hosts() {
                if a == b {
                    continue;
                }
                for hash in [0u64, 7, 13] {
                    let p = net.path(a, b, hash, HEALTHY).unwrap();
                    assert_eq!(
                        net.path_tier(&p),
                        net.traffic_tier(a, b),
                        "{a}->{b} hash {hash}"
                    );
                }
            }
        }
        assert_eq!(net.path_tier(&[]), Tier::Tor, "same-host is rack-local");
    }

    #[test]
    fn hops_agree_with_path_lengths() {
        // The closed-form hop counts must equal the materialized path
        // lengths for every endpoint pair and several ECMP hashes — the
        // allocation-free Fabric timing fast path leans on this.
        for net in [FatTree::new(4).unwrap(), FatTree::new(8).unwrap()] {
            for a in net.hosts() {
                for b in net.hosts() {
                    for hash in [0u64, 7, 13] {
                        assert_eq!(
                            net.hops(a, b),
                            net.path(a, b, hash, HEALTHY).unwrap().len() as u32,
                            "hops {a}->{b} hash {hash}"
                        );
                    }
                    for w in net.switches() {
                        assert_eq!(
                            net.hops_host_to_switch(a, w),
                            net.path_host_to_switch(a, w, 5, HEALTHY).unwrap().len() as u32,
                            "host_to_switch {a}->{w}"
                        );
                        assert_eq!(
                            net.hops_switch_to_host(w, a),
                            net.path_switch_to_host(w, a, 5, HEALTHY).unwrap().len() as u32,
                            "switch_to_host {w}->{a}"
                        );
                        assert_eq!(
                            net.hops_via(a, w, b),
                            net.path_via(a, w, b, 5, HEALTHY).unwrap().len() as u32,
                            "via {a}->{w}->{b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn path_tier_classifies_partial_segments() {
        let net = net();
        // Host 0 up to its own ToR: rack-local.
        let tor = net.tor_of_host(HostId(0));
        assert_eq!(
            net.path_tier(&net.path_host_to_switch(HostId(0), tor, 0, HEALTHY).unwrap()),
            Tier::Tor
        );
        // Host 0 up to an agg in its pod: pod-local.
        let agg = net.agg(0, 0);
        assert_eq!(
            net.path_tier(&net.path_host_to_switch(HostId(0), agg, 0, HEALTHY).unwrap()),
            Tier::Agg
        );
        // Host 0 up to a core: cross-pod class.
        let core = net.core(0);
        assert_eq!(
            net.path_tier(
                &net.path_host_to_switch(HostId(0), core, 0, HEALTHY)
                    .unwrap()
            ),
            Tier::Core
        );
    }

    #[test]
    fn arity_validation() {
        assert_eq!(FatTree::new(3), Err(TopologyError::BadArity(3)));
        assert_eq!(FatTree::new(0), Err(TopologyError::BadArity(0)));
        assert!(FatTree::new(2).is_ok());
        let err = FatTree::new(5).unwrap_err();
        assert!(err.to_string().contains("5"));
    }

    #[test]
    fn counts_match_fat_tree_formulas() {
        let n = net();
        assert_eq!(n.num_hosts(), 16);
        assert_eq!(n.num_tors(), 8);
        assert_eq!(n.num_aggs(), 8);
        assert_eq!(n.num_cores(), 4);
        assert_eq!(n.num_pods(), 4);

        let paper = FatTree::new(16).unwrap();
        assert_eq!(
            paper.num_hosts(),
            1024,
            "paper's 16-ary tree has 1024 hosts"
        );
        assert_eq!(paper.num_cores(), 64);
        assert_eq!(paper.num_tors(), 128);
    }

    #[test]
    fn tiers_partition_switches() {
        let n = net();
        let mut counts = [0u32; 3];
        for s in n.switches() {
            counts[n.tier(s).id() as usize] += 1;
        }
        assert_eq!(counts, [4, 8, 8]); // core, agg, tor
    }

    #[test]
    fn host_coordinates() {
        let n = net();
        assert_eq!(n.pod_of_host(HostId(0)), 0);
        assert_eq!(n.pod_of_host(HostId(15)), 3);
        assert_eq!(n.rack_of_host(HostId(5)), 2);
        assert_eq!(n.tor_of_host(HostId(5)), SwitchId(2));
        let rack: Vec<_> = n.hosts_in_rack(2).collect();
        assert_eq!(rack, vec![HostId(4), HostId(5)]);
    }

    #[test]
    fn traffic_tier_classification() {
        let n = net();
        assert_eq!(n.traffic_tier(HostId(0), HostId(1)), Tier::Tor);
        assert_eq!(n.traffic_tier(HostId(0), HostId(2)), Tier::Agg);
        assert_eq!(n.traffic_tier(HostId(0), HostId(4)), Tier::Core);
        assert_eq!(n.traffic_tier(HostId(9), HostId(9)), Tier::Tor);
    }

    #[test]
    fn default_paths_have_expected_shape() {
        let n = net();
        assert_eq!(
            n.path(HostId(0), HostId(1), 0, HEALTHY).unwrap(),
            vec![SwitchId(0)]
        );

        let pod_path = n.path(HostId(0), HostId(2), 1, HEALTHY).unwrap();
        assert_eq!(pod_path.len(), 3);
        assert_eq!(n.tier(pod_path[1]), Tier::Agg);

        let core_path = n.path(HostId(0), HostId(12), 2, HEALTHY).unwrap();
        assert_eq!(core_path.len(), 5);
        assert_eq!(n.tier(core_path[2]), Tier::Core);
        assert!(core_path
            .windows(2)
            .all(|w| n.switches_adjacent(w[0], w[1])));
    }

    #[test]
    fn ecmp_spreads_over_all_cores() {
        let n = net();
        let mut seen = std::collections::HashSet::new();
        for h in 0..100 {
            let p = n.path(HostId(0), HostId(12), h, HEALTHY).unwrap();
            seen.insert(p[2]);
        }
        assert_eq!(seen.len() as u32, n.num_cores());
    }

    #[test]
    fn all_paths_are_link_connected() {
        let n = net();
        for src in n.hosts() {
            for dst in n.hosts() {
                if src == dst {
                    continue;
                }
                for hash in [0u64, 1, 7, 13] {
                    let p = n.path(src, dst, hash, HEALTHY).unwrap();
                    assert_eq!(p[0], n.tor_of_host(src));
                    assert_eq!(*p.last().unwrap(), n.tor_of_host(dst));
                    assert!(
                        p.windows(2).all(|w| n.switches_adjacent(w[0], w[1])),
                        "disconnected path {p:?} for {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn via_paths_contain_waypoint_and_are_connected() {
        let n = net();
        for src in n.hosts() {
            for via in n.switches() {
                let dst = HostId((src.0 + 5) % n.num_hosts());
                if src == dst {
                    continue;
                }
                let p = n.path_via(src, via, dst, 3, HEALTHY).unwrap();
                assert!(p.contains(&via), "{src} via {via} to {dst}: {p:?}");
                assert_eq!(p[0], n.tor_of_host(src));
                assert_eq!(*p.last().unwrap(), n.tor_of_host(dst));
                assert!(
                    p.windows(2)
                        .all(|w| w[0] == w[1] || n.switches_adjacent(w[0], w[1])),
                    "disconnected via-path {p:?} for {src} via {via} to {dst}"
                );
            }
        }
    }

    #[test]
    fn via_own_tor_equals_default_for_rack_traffic() {
        let n = net();
        let p = n
            .path_via(HostId(0), SwitchId(0), HostId(1), 0, HEALTHY)
            .unwrap();
        assert_eq!(p, vec![SwitchId(0)]);
    }

    #[test]
    fn extra_hops_matches_paper_example() {
        // §III-B: rack-local traffic to a core RSNode pays 4 extra hops.
        assert_eq!(extra_hops(Tier::Tor, Tier::Core), 4);
        assert_eq!(extra_hops(Tier::Tor, Tier::Agg), 2);
        assert_eq!(extra_hops(Tier::Tor, Tier::Tor), 0);
        assert_eq!(extra_hops(Tier::Agg, Tier::Core), 2);
        assert_eq!(extra_hops(Tier::Agg, Tier::Agg), 0);
        assert_eq!(extra_hops(Tier::Core, Tier::Core), 0);
        // RSNodes at or above the traffic tier are on-path.
        assert_eq!(extra_hops(Tier::Core, Tier::Tor), 0);
    }

    #[test]
    fn extra_hops_agrees_with_actual_path_lengths() {
        // The Eq. 7 cost model must agree with the router: detouring
        // rack-local traffic through a core adds exactly 4 forwardings.
        let n = net();
        let (src, dst) = (HostId(0), HostId(1));
        let via = n.core(0);
        let detoured = n.path_via(src, via, dst, 0, HEALTHY).unwrap().len() as u32;
        let default = n.path(src, dst, 0, HEALTHY).unwrap().len() as u32;
        assert_eq!(detoured - default, extra_hops(Tier::Tor, Tier::Core));

        // Pod-local traffic through a core adds 2.
        let (src, dst) = (HostId(0), HostId(2));
        let detoured = n.path_via(src, via, dst, 0, HEALTHY).unwrap().len() as u32;
        let default = n.path(src, dst, 0, HEALTHY).unwrap().len() as u32;
        assert_eq!(detoured - default, extra_hops(Tier::Agg, Tier::Core));

        // Cross-pod traffic through a core is free.
        let (src, dst) = (HostId(0), HostId(12));
        let detoured = n.path_via(src, via, dst, 0, HEALTHY).unwrap().len() as u32;
        let default = n.path(src, dst, 0, HEALTHY).unwrap().len() as u32;
        assert_eq!(detoured - default, 0);
    }

    #[test]
    fn adjacency_rules() {
        let n = net();
        // ToR 0 (pod 0) connects to aggs of pod 0 only.
        assert!(n.switches_adjacent(n.tor(0, 0), n.agg(0, 0)));
        assert!(n.switches_adjacent(n.tor(0, 0), n.agg(0, 1)));
        assert!(!n.switches_adjacent(n.tor(0, 0), n.agg(1, 0)));
        // Agg with index i connects to cores in group i.
        assert!(n.switches_adjacent(n.agg(0, 0), n.core(0)));
        assert!(n.switches_adjacent(n.agg(0, 0), n.core(1)));
        assert!(!n.switches_adjacent(n.agg(0, 0), n.core(2)));
        assert!(n.switches_adjacent(n.agg(3, 1), n.core(3)));
        // Same-tier switches never connect.
        assert!(!n.switches_adjacent(n.tor(0, 0), n.tor(0, 1)));
        assert!(!n.switches_adjacent(n.core(0), n.core(1)));
    }

    #[test]
    fn core_degree_is_one_agg_per_pod() {
        let n = net();
        for c in 0..n.num_cores() {
            let core = n.core(c);
            for pod in 0..n.num_pods() {
                let connected: Vec<_> = (0..n.half())
                    .filter(|&i| n.switches_adjacent(core, n.agg(pod, i)))
                    .collect();
                assert_eq!(connected.len(), 1, "core {c} pod {pod}");
            }
        }
    }

    #[test]
    fn hops_match_paper() {
        let n = net();
        assert_eq!(n.hops(HostId(0), HostId(1)), 1);
        assert_eq!(n.hops(HostId(0), HostId(2)), 3);
        assert_eq!(n.hops(HostId(0), HostId(12)), 5);
        assert_eq!(n.hops(HostId(3), HostId(3)), 0);
    }

    #[test]
    fn dead_core_link_reroutes_cross_pod_traffic() {
        let n = net();
        let (src, dst) = (HostId(0), HostId(12));
        // Find the hash-preferred path and kill its agg->core link.
        let preferred = n.path(src, dst, 3, HEALTHY).unwrap();
        let mut dead = LinkSet::new();
        dead.insert(Link::between(preferred[1], preferred[2]));
        let rerouted = n.path(src, dst, 3, &dead).unwrap();
        assert_ne!(rerouted, preferred, "route must change");
        assert_eq!(rerouted.len(), 5, "still a core-tier path");
        assert!(dead.switch_path_avoids(&rerouted));
        assert!(
            rerouted.windows(2).all(|w| n.switches_adjacent(w[0], w[1])),
            "rerouted path stays link-connected: {rerouted:?}"
        );
        // Unaffected flows keep their original route.
        let other = n.path(src, dst, 0, HEALTHY).unwrap();
        if dead.switch_path_avoids(&other) {
            assert_eq!(n.path(src, dst, 0, &dead).unwrap(), other);
        }
    }

    #[test]
    fn dead_uplink_partitions_the_host() {
        let n = net();
        let mut dead = LinkSet::new();
        dead.insert(Link::uplink(HostId(5)));
        assert_eq!(
            n.path(HostId(5), HostId(12), 0, &dead),
            Err(TopologyError::HostPartitioned(HostId(5))),
            "partitioned as source"
        );
        assert_eq!(
            n.path(HostId(0), HostId(5), 0, &dead),
            Err(TopologyError::HostPartitioned(HostId(5))),
            "partitioned as destination"
        );
        assert_eq!(
            n.path_host_to_switch(HostId(5), n.core(0), 0, &dead),
            Err(TopologyError::HostPartitioned(HostId(5)))
        );
        assert_eq!(
            n.path_switch_to_host(n.core(0), HostId(5), 0, &dead),
            Err(TopologyError::HostPartitioned(HostId(5)))
        );
        // Other hosts in the same rack are unaffected.
        assert!(n.path(HostId(4), HostId(12), 0, &dead).is_ok());
        // Recovery restores the original route.
        dead.remove(&Link::uplink(HostId(5)));
        assert_eq!(
            n.path(HostId(5), HostId(12), 0, &dead).unwrap(),
            n.path(HostId(5), HostId(12), 0, HEALTHY).unwrap()
        );
    }

    #[test]
    fn severed_tor_reports_no_alive_path() {
        let n = net();
        // Kill both uplinks of ToR 0 toward its pod's aggs: hosts 0 and 1
        // can still talk to each other but not beyond the rack.
        let mut dead = LinkSet::new();
        dead.insert(Link::between(n.tor(0, 0), n.agg(0, 0)));
        dead.insert(Link::between(n.tor(0, 0), n.agg(0, 1)));
        assert_eq!(
            n.path(HostId(0), HostId(1), 0, &dead).unwrap(),
            vec![SwitchId(0)],
            "rack-local traffic survives"
        );
        assert_eq!(
            n.path(HostId(0), HostId(2), 0, &dead),
            Err(TopologyError::NoAlivePath),
            "pod-tier traffic has no route"
        );
        assert_eq!(
            n.path(HostId(0), HostId(12), 0, &dead),
            Err(TopologyError::NoAlivePath),
            "core-tier traffic has no route"
        );
    }

    #[test]
    fn single_path_segments_fail_without_detours() {
        let n = net();
        // A ToR reaches a same-pod agg over exactly one link.
        let mut dead = LinkSet::new();
        dead.insert(Link::between(n.tor(0, 0), n.agg(0, 0)));
        assert_eq!(
            n.path_host_to_switch(HostId(0), n.agg(0, 0), 0, &dead),
            Err(TopologyError::NoAlivePath)
        );
        // The sibling agg is still reachable.
        assert!(n
            .path_host_to_switch(HostId(0), n.agg(0, 1), 0, &dead)
            .is_ok());
    }

    #[test]
    fn link_normalization_ignores_naming_order() {
        assert_eq!(
            Link::between(SwitchId(9), SwitchId(2)),
            Link::between(SwitchId(2), SwitchId(9))
        );
        let mut set = LinkSet::new();
        assert!(set.insert(Link::between(SwitchId(9), SwitchId(2))));
        assert!(set.contains(&Link::between(SwitchId(2), SwitchId(9))));
        assert!(!set.insert(Link::between(SwitchId(2), SwitchId(9))));
        assert_eq!(set.len(), 1);
        assert!(set.remove(&Link::between(SwitchId(9), SwitchId(2))));
        assert!(set.is_empty());
    }

    #[test]
    fn rerouted_paths_avoid_every_dead_candidate() {
        let n = net();
        // Kill three of the four cores' uplinks from pod 0's agg group 0;
        // flows that hashed onto them must all fall back to the survivor.
        let mut dead = LinkSet::new();
        for c in 0..3 {
            let core = n.core(c);
            let g = c / n.half();
            dead.insert(Link::between(n.agg(0, g), core));
            dead.insert(Link::between(n.agg(3, g), core));
        }
        for hash in 0..16u64 {
            let p = n.path(HostId(0), HostId(12), hash, &dead).unwrap();
            assert!(dead.switch_path_avoids(&p), "hash {hash}: {p:?}");
            assert!(p.windows(2).all(|w| n.switches_adjacent(w[0], w[1])));
        }
    }

    #[test]
    fn degenerate_two_ary_tree_works() {
        let n = FatTree::new(2).unwrap();
        assert_eq!(n.num_hosts(), 2);
        assert_eq!(n.num_cores(), 1);
        let p = n.path(HostId(0), HostId(1), 0, HEALTHY).unwrap();
        assert!(p.windows(2).all(|w| n.switches_adjacent(w[0], w[1])));
        assert_eq!(p.len(), 5); // the two hosts are in different pods
    }
}
