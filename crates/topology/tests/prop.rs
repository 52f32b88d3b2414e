//! Property-based tests of the fat-tree and its routing.

use netrs_topology::{extra_hops, FatTree, HostId, Link, LinkSet, SwitchId, Tier, TopologyError};
use proptest::prelude::*;

/// No dead links: every builder returns the hash-selected default.
const HEALTHY: &LinkSet = &LinkSet::new();

fn arb_tree() -> impl Strategy<Value = FatTree> {
    (1u32..=8).prop_map(|half| FatTree::new(half * 2).expect("even arity"))
}

/// Every link of the fat-tree: host uplinks, ToR–agg and agg–core links.
fn all_links(topo: &FatTree) -> Vec<Link> {
    let mut links: Vec<Link> = topo.hosts().map(Link::uplink).collect();
    for a in topo.switches() {
        for b in topo.switches() {
            if a < b && topo.switches_adjacent(a, b) {
                links.push(Link::between(a, b));
            }
        }
    }
    links
}

/// Brute force: every shortest switch path from `from` to `to` over the
/// adjacency relation, in ascending (lexicographic) order — the order in
/// which ECMP numbers its equal-cost candidates.
fn shortest_paths(topo: &FatTree, from: SwitchId, to: SwitchId) -> Vec<Vec<SwitchId>> {
    let mut frontier = vec![vec![from]];
    loop {
        let mut done: Vec<Vec<SwitchId>> = frontier
            .iter()
            .filter(|p| *p.last().unwrap() == to)
            .cloned()
            .collect();
        if !done.is_empty() {
            done.sort();
            return done;
        }
        frontier = frontier
            .iter()
            .flat_map(|p| {
                let last = *p.last().unwrap();
                topo.switches()
                    .filter(move |&s| topo.switches_adjacent(last, s) && !p.contains(&s))
                    .map(move |s| [p.as_slice(), &[s]].concat())
            })
            .collect();
    }
}

/// What a masked builder must return, by brute force: `HostPartitioned`
/// for the first endpoint (in `hosts` order) whose uplink is dead, else
/// the first candidate in probe order (`hash`, `hash + 1`, … modulo the
/// candidate count) whose switch hops are all alive, else `NoAlivePath`.
fn first_alive(
    candidates: &[Vec<SwitchId>],
    hosts: &[HostId],
    hash: u64,
    dead: &LinkSet,
) -> Result<Vec<SwitchId>, TopologyError> {
    if let Some(&h) = hosts.iter().find(|&&h| dead.contains(&Link::uplink(h))) {
        return Err(TopologyError::HostPartitioned(h));
    }
    let n = candidates.len() as u64;
    (0..n)
        .map(|probe| &candidates[((hash % n + probe) % n) as usize])
        .find(|p| {
            p.windows(2)
                .all(|w| !dead.contains(&Link::between(w[0], w[1])))
        })
        .cloned()
        .ok_or(TopologyError::NoAlivePath)
}

proptest! {
    /// Structural counts always satisfy the fat-tree formulas.
    #[test]
    fn counts_are_consistent(topo in arb_tree()) {
        let k = topo.arity();
        prop_assert_eq!(topo.num_hosts(), k * k * k / 4);
        prop_assert_eq!(topo.num_tors(), k * k / 2);
        prop_assert_eq!(topo.num_aggs(), k * k / 2);
        prop_assert_eq!(topo.num_cores(), k * k / 4);
        prop_assert_eq!(topo.num_switches(), topo.num_tors() + topo.num_aggs() + topo.num_cores());
        prop_assert_eq!(topo.hosts_per_rack() * topo.num_tors(), topo.num_hosts());
    }

    /// Every default path is link-connected, endpoint-correct, and has
    /// the canonical 1/3/5 switch count for its traffic tier.
    #[test]
    fn default_paths_are_valid(topo in arb_tree(), a in any::<u32>(), b in any::<u32>(), hash in any::<u64>()) {
        let n = topo.num_hosts();
        let (src, dst) = (HostId(a % n), HostId(b % n));
        prop_assume!(src != dst);
        let path = topo.path(src, dst, hash, HEALTHY).unwrap();
        prop_assert_eq!(path[0], topo.tor_of_host(src));
        prop_assert_eq!(*path.last().unwrap(), topo.tor_of_host(dst));
        prop_assert!(path.windows(2).all(|w| topo.switches_adjacent(w[0], w[1])));
        let expected = match topo.traffic_tier(src, dst) {
            Tier::Tor => 1,
            Tier::Agg => 3,
            Tier::Core => 5,
        };
        prop_assert_eq!(path.len(), expected);
        prop_assert_eq!(topo.hops(src, dst) as usize, expected);
    }

    /// Via-waypoint paths contain the waypoint, stay link-connected, and
    /// their length excess over the default path matches the Eq. 7 cost
    /// model whenever the waypoint is a legal candidate (own ToR, own-pod
    /// agg, or any core).
    #[test]
    fn via_paths_match_cost_model(topo in arb_tree(), a in any::<u32>(), b in any::<u32>(), w in any::<u32>(), hash in any::<u64>()) {
        let n = topo.num_hosts();
        let (src, dst) = (HostId(a % n), HostId(b % n));
        prop_assume!(src != dst);
        let via = SwitchId(w % topo.num_switches());
        let path = topo.path_via(src, via, dst, hash, HEALTHY).unwrap();
        prop_assert!(path.contains(&via));
        prop_assert!(path.windows(2).all(|p| p[0] == p[1] || topo.switches_adjacent(p[0], p[1])));
        prop_assert_eq!(path[0], topo.tor_of_host(src));
        prop_assert_eq!(*path.last().unwrap(), topo.tor_of_host(dst));

        // Candidate-legality: the R matrix of §III-B.
        let legal = match topo.tier(via) {
            Tier::Tor => via == topo.tor_of_host(src),
            Tier::Agg => topo.pod_of_switch(via) == Some(topo.pod_of_host(src)),
            Tier::Core => true,
        };
        if legal {
            let default_len = topo.path(src, dst, hash, HEALTHY).unwrap().len() as u32;
            let expected_extra = extra_hops(topo.traffic_tier(src, dst), topo.tier(via));
            prop_assert!(
                path.len() as u32 <= default_len + expected_extra,
                "path {} vs default {} + extra {}",
                path.len(), default_len, expected_extra
            );
        }
    }

    /// Traffic-tier classification is symmetric and consistent with
    /// rack/pod co-location.
    #[test]
    fn traffic_tiers_symmetric(topo in arb_tree(), a in any::<u32>(), b in any::<u32>()) {
        let n = topo.num_hosts();
        let (x, y) = (HostId(a % n), HostId(b % n));
        prop_assert_eq!(topo.traffic_tier(x, y), topo.traffic_tier(y, x));
        match topo.traffic_tier(x, y) {
            Tier::Tor => prop_assert_eq!(topo.rack_of_host(x), topo.rack_of_host(y)),
            Tier::Agg => {
                prop_assert_eq!(topo.pod_of_host(x), topo.pod_of_host(y));
                prop_assert_ne!(topo.rack_of_host(x), topo.rack_of_host(y));
            }
            Tier::Core => prop_assert_ne!(topo.pod_of_host(x), topo.pod_of_host(y)),
        }
    }

    /// ECMP: for fixed endpoints, varying only the flow hash never
    /// changes the path length, and all chosen paths are valid.
    #[test]
    fn ecmp_paths_are_equal_cost(topo in arb_tree(), a in any::<u32>(), b in any::<u32>()) {
        let n = topo.num_hosts();
        let (src, dst) = (HostId(a % n), HostId(b % n));
        prop_assume!(src != dst);
        let base_len = topo.path(src, dst, 0, HEALTHY).unwrap().len();
        for hash in [1u64, 99, 12345, u64::MAX] {
            prop_assert_eq!(topo.path(src, dst, hash, HEALTHY).unwrap().len(), base_len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one masked builder per segment kind against brute force, on
    /// 4-, 6- and 8-ary trees with random dead-link sets: the result is
    /// the first alive candidate in probe order, `NoAlivePath` iff none is
    /// alive, `HostPartitioned` iff an endpoint's uplink is dead, and with
    /// an empty set exactly the hash-selected default.
    #[test]
    fn masked_builders_match_brute_force(
        half in 2u32..=4,
        a in any::<u32>(),
        b in any::<u32>(),
        w in any::<u32>(),
        hash in any::<u64>(),
        picks in collection::vec(any::<u32>(), 0..12),
    ) {
        let topo = FatTree::new(half * 2).expect("even arity");
        let links = all_links(&topo);
        let mut dead = LinkSet::new();
        for p in &picks {
            dead.insert(links[*p as usize % links.len()]);
        }
        let n = topo.num_hosts();
        let (src, dst) = (HostId(a % n), HostId(b % n));
        let sw = SwitchId(w % topo.num_switches());
        let (tor_s, tor_d) = (topo.tor_of_host(src), topo.tor_of_host(dst));

        let up = shortest_paths(&topo, tor_s, sw);
        // Switch→host is the host→switch path reversed, without `sw`.
        let up_from_dst = shortest_paths(&topo, tor_d, sw);
        let downward = |mut p: Vec<SwitchId>| {
            p.pop();
            p.reverse();
            p
        };
        let across = shortest_paths(&topo, tor_s, tor_d);
        for set in [&dead, HEALTHY] {
            prop_assert_eq!(
                topo.path_host_to_switch(src, sw, hash, set),
                first_alive(&up, &[src], hash, set)
            );
            prop_assert_eq!(
                topo.path_switch_to_host(sw, dst, hash, set),
                first_alive(&up_from_dst, &[dst], hash, set).map(downward)
            );
            let want = if src == dst {
                Ok(Vec::new())
            } else {
                first_alive(&across, &[src, dst], hash, set)
            };
            prop_assert_eq!(topo.path(src, dst, hash, set), want);
        }
        // The empty set selects the `hash`-th candidate outright.
        let pick = |c: &[Vec<SwitchId>]| c[(hash % c.len() as u64) as usize].clone();
        prop_assert_eq!(topo.path_host_to_switch(src, sw, hash, HEALTHY), Ok(pick(&up)));
        prop_assert_eq!(
            topo.path_switch_to_host(sw, dst, hash, HEALTHY),
            Ok(downward(pick(&up_from_dst)))
        );
        if src != dst {
            prop_assert_eq!(topo.path(src, dst, hash, HEALTHY), Ok(pick(&across)));
        }
    }
}
