//! Property-based tests of the fat-tree and its routing.

use netrs_topology::{extra_hops, FatTree, HostId, Tier};
use proptest::prelude::*;

fn arb_tree() -> impl Strategy<Value = FatTree> {
    (1u32..=8).prop_map(|half| FatTree::new(half * 2).expect("even arity"))
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
        let path = topo.path(src, dst, hash);
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
        let via = netrs_topology::SwitchId(w % topo.num_switches());
        let path = topo.path_via(src, via, dst, hash);
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
            let default_len = topo.path(src, dst, hash).len() as u32;
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
        let base_len = topo.path(src, dst, 0).len();
        for hash in [1u64, 99, 12345, u64::MAX] {
            prop_assert_eq!(topo.path(src, dst, hash).len(), base_len);
        }
    }
}
