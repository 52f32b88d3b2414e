//! The per-group traffic composition matrix `T` of §III-B.
//!
//! `T[g][k]` is group `g`'s Tier-k request rate (requests/second): Tier-2
//! traffic stays in the rack, Tier-1 stays in the pod, Tier-0 crosses
//! pods. The controller obtains `T` either from ToR monitor snapshots
//! (§IV-D) or — in simulations, before any traffic has flowed — from a
//! workload oracle that knows where clients and servers sit.

use netrs_netdev::{GroupId, TrafficSnapshot};
use netrs_topology::{FatTree, HostId, Tier};
use serde::{Deserialize, Serialize};

use crate::group::TrafficGroups;

/// Request rates per `(group, tier)`, in requests/second. Tier indices
/// are the paper's: 0 = cross-pod, 1 = pod-local, 2 = rack-local.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    rates: Vec<[f64; 3]>,
}

/// A monitor snapshot counted traffic under a group id the controller's
/// partition does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownGroup {
    /// The id the snapshot named.
    pub group: GroupId,
    /// How many groups there are (valid ids are `0..n_groups`).
    pub n_groups: usize,
}

impl std::fmt::Display for UnknownGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot names traffic group {} of {}",
            self.group, self.n_groups
        )
    }
}

impl std::error::Error for UnknownGroup {}

impl TrafficMatrix {
    /// An all-zero matrix for `n_groups` groups.
    #[must_use]
    pub fn zero(n_groups: usize) -> Self {
        TrafficMatrix {
            rates: vec![[0.0; 3]; n_groups],
        }
    }

    /// Number of groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the matrix covers no groups.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Adds `rate` requests/second of Tier-`tier` traffic to a group.
    ///
    /// # Panics
    ///
    /// Panics if the group is out of range or the rate is negative/NaN.
    pub fn add(&mut self, group: GroupId, tier: Tier, rate: f64) {
        assert!(rate >= 0.0, "rates must be non-negative");
        self.rates[group as usize][tier.id() as usize] += rate;
    }

    /// The Tier-k rates of one group.
    #[must_use]
    pub fn tier_rates(&self, group: GroupId) -> [f64; 3] {
        self.rates[group as usize]
    }

    /// Total request rate of one group.
    #[must_use]
    pub fn group_total(&self, group: GroupId) -> f64 {
        self.rates[group as usize].iter().sum()
    }

    /// Total request rate across all groups (the paper's `A`).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.rates.iter().flatten().sum()
    }

    /// Builds `T` from ToR monitor snapshots, converting window counts to
    /// rates and summing across monitors.
    ///
    /// # Errors
    ///
    /// [`UnknownGroup`] if a snapshot counts traffic under an id outside
    /// `0..n_groups`: a matrix missing that traffic would plan for less
    /// load than the accelerators will see.
    pub fn from_snapshots(
        n_groups: usize,
        snapshots: &[TrafficSnapshot],
    ) -> Result<Self, UnknownGroup> {
        let mut m = Self::zero(n_groups);
        for snap in snapshots {
            for &(group, counts) in &snap.counts {
                let row = m
                    .rates
                    .get_mut(group as usize)
                    .ok_or(UnknownGroup { group, n_groups })?;
                for (rate, r) in row.iter_mut().zip(snap.rates(counts)) {
                    *rate += r;
                }
            }
        }
        Ok(m)
    }

    /// Builds `T` analytically from the workload: each client host sends
    /// at its given rate, spread uniformly over the server hosts (which is
    /// the long-run behaviour of an unbiased selector over a balanced
    /// ring). Tier shares follow from where the servers sit relative to
    /// the client: its rack's servers are Tier-2, the rest of its pod's
    /// Tier-1, everyone else Tier-0, counted from per-rack and per-pod
    /// server tallies.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, a server host is outside the
    /// topology, or a client host has no group.
    #[must_use]
    pub fn oracle(
        topo: &FatTree,
        groups: &TrafficGroups,
        client_rates: &[(HostId, f64)],
        servers: &[HostId],
    ) -> Self {
        assert!(!servers.is_empty(), "oracle needs at least one server");
        let mut in_rack = vec![0u32; topo.num_tors() as usize];
        let mut in_pod = vec![0u32; topo.num_pods() as usize];
        for &s in servers {
            assert!(s.0 < topo.num_hosts(), "server host {s} outside topology");
            in_rack[topo.rack_of_host(s) as usize] += 1;
            in_pod[topo.pod_of_host(s) as usize] += 1;
        }
        let mut m = Self::zero(groups.len());
        let total_servers = servers.len() as f64;
        for &(client, rate) in client_rates {
            let group = groups
                .group_of_host(client)
                .expect("every client host must belong to a group");
            let rack = in_rack[topo.rack_of_host(client) as usize];
            let pod = in_pod[topo.pod_of_host(client) as usize];
            let mut counts = [0u32; 3];
            counts[Tier::Tor.id() as usize] = rack;
            counts[Tier::Agg.id() as usize] = pod - rack;
            counts[Tier::Core.id() as usize] = servers.len() as u32 - pod;
            for (k, c) in counts.into_iter().enumerate() {
                m.rates[group as usize][k] += rate * f64::from(c) / total_servers;
            }
        }
        m
    }

    /// The reference oracle the tallies replaced: every `(client, server)`
    /// pair classified on its own.
    #[cfg(test)]
    fn oracle_by_pairs(
        topo: &FatTree,
        groups: &TrafficGroups,
        client_rates: &[(HostId, f64)],
        servers: &[HostId],
    ) -> Self {
        let mut m = Self::zero(groups.len());
        let total_servers = servers.len() as f64;
        for &(client, rate) in client_rates {
            let group = groups.group_of_host(client).unwrap();
            let mut counts = [0u32; 3];
            for &s in servers {
                counts[topo.traffic_tier(client, s).id() as usize] += 1;
            }
            for (k, c) in counts.into_iter().enumerate() {
                m.rates[group as usize][k] += rate * f64::from(c) / total_servers;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Granularity;
    use netrs_simcore::{SimDuration, SimTime};
    use netrs_wire::SourceMarker;

    #[test]
    fn add_and_totals() {
        let mut m = TrafficMatrix::zero(2);
        m.add(0, Tier::Core, 100.0);
        m.add(0, Tier::Tor, 50.0);
        m.add(1, Tier::Agg, 25.0);
        assert_eq!(m.tier_rates(0), [100.0, 0.0, 50.0]);
        assert_eq!(m.group_total(0), 150.0);
        assert_eq!(m.total(), 175.0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn from_snapshots_converts_counts_to_rates() {
        let snap = TrafficSnapshot {
            local: SourceMarker { pod: 0, rack: 0 },
            counts: vec![(0, [500, 0, 0]), (1, [0, 250, 250])],
            from: SimTime::ZERO,
            to: SimTime::ZERO + SimDuration::from_millis(500),
        };
        let m = TrafficMatrix::from_snapshots(2, &[snap.clone(), snap]).unwrap();
        // Two identical monitors double the rates: 2 * 500/0.5s = 2000/s.
        assert!((m.tier_rates(0)[0] - 2_000.0).abs() < 1e-9);
        assert!((m.tier_rates(1)[1] - 1_000.0).abs() < 1e-9);
        assert!((m.total() - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn from_snapshots_rejects_unknown_groups() {
        // A count under an id the partition lacks (say, a replication-group
        // id) must not vanish from `T`.
        let snap = TrafficSnapshot {
            local: SourceMarker { pod: 0, rack: 0 },
            counts: vec![(1, [5, 0, 0]), (7, [100, 0, 0])],
            from: SimTime::ZERO,
            to: SimTime::ZERO + SimDuration::from_secs(1),
        };
        assert_eq!(
            TrafficMatrix::from_snapshots(2, &[snap]),
            Err(UnknownGroup {
                group: 7,
                n_groups: 2
            })
        );
    }

    #[test]
    fn oracle_matches_server_placement() {
        let topo = FatTree::new(4).unwrap();
        // Client at host 0; servers: one in its rack (1), one in its pod
        // (2), two cross-pod (4, 12).
        let clients = [HostId(0)];
        let groups = TrafficGroups::rack_level(&topo, &clients);
        let servers = [HostId(1), HostId(2), HostId(4), HostId(12)];
        let m = TrafficMatrix::oracle(&topo, &groups, &[(HostId(0), 1000.0)], &servers);
        let rates = m.tier_rates(0);
        assert!((rates[2] - 250.0).abs() < 1e-9, "rack share");
        assert!((rates[1] - 250.0).abs() < 1e-9, "pod share");
        assert!((rates[0] - 500.0).abs() < 1e-9, "cross-pod share");
    }

    #[test]
    fn oracle_sums_hosts_within_a_group() {
        let topo = FatTree::new(4).unwrap();
        let clients = [HostId(0), HostId(1)];
        let groups = TrafficGroups::rack_level(&topo, &clients);
        let servers = [HostId(12)];
        let m = TrafficMatrix::oracle(
            &topo,
            &groups,
            &[(HostId(0), 10.0), (HostId(1), 30.0)],
            &servers,
        );
        assert!((m.group_total(0) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn rack_tallies_equal_the_pairwise_oracle_bit_for_bit() {
        let mut rng = netrs_simcore::SimRng::from_seed(17);
        for (arity, servers, clients) in [(4, 1, 1), (4, 5, 6), (8, 10, 40), (16, 100, 500)] {
            let topo = FatTree::new(arity).unwrap();
            for granularity in [
                Granularity::Rack,
                Granularity::Host,
                Granularity::SubRack(3),
            ] {
                let picks = rng.sample_indices(topo.num_hosts() as usize, servers + clients);
                let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
                let (servers, clients) = hosts.split_at(servers);
                let groups = TrafficGroups::build(&topo, clients, granularity);
                // Uneven rates, listed in a shuffled order with one client
                // twice: the per-group sums see the same addends in order.
                let mut rates: Vec<(HostId, f64)> =
                    clients.iter().map(|&h| (h, 1e4 * rng.f64())).collect();
                rng.shuffle(&mut rates);
                rates.push(rates[0]);
                let fast = TrafficMatrix::oracle(&topo, &groups, &rates, servers);
                let reference = TrafficMatrix::oracle_by_pairs(&topo, &groups, &rates, servers);
                let bits = |m: &TrafficMatrix| -> Vec<u64> {
                    m.rates.iter().flatten().map(|r| r.to_bits()).collect()
                };
                assert_eq!(
                    bits(&fast),
                    bits(&reference),
                    "{arity}-ary, {granularity:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let mut m = TrafficMatrix::zero(1);
        m.add(0, Tier::Core, -1.0);
    }
}
