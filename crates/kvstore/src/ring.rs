//! Consistent hashing and the replica-group database.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{hash64, hash64_pair, ServerId};

/// Errors building a [`Ring`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// Fewer servers than the replication factor.
    TooFewServers {
        /// Number of servers supplied.
        servers: u32,
        /// Requested replication factor.
        replication: u32,
    },
    /// A parameter was zero.
    ZeroParameter(&'static str),
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::TooFewServers {
                servers,
                replication,
            } => write!(
                f,
                "need at least {replication} servers for replication factor {replication}, got {servers}"
            ),
            RingError::ZeroParameter(name) => write!(f, "{name} must be positive"),
        }
    }
}

impl std::error::Error for RingError {}

/// The replica-group database of §IV-A: maps a small group ID (the RGID
/// carried in request headers) to the concrete replica set. NetRS
/// selectors hold a copy of this database on each network accelerator —
/// it is small because consistent hashing yields at most
/// `servers × vnodes` distinct replica sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaGroups {
    /// Every group's replica set back to back, `stride` servers each:
    /// group `gid` is `servers[gid * stride..(gid + 1) * stride]`.
    servers: Vec<ServerId>,
    /// Servers per group (the replication factor).
    stride: usize,
}

impl ReplicaGroups {
    /// Number of distinct replica groups.
    #[must_use]
    pub fn len(&self) -> usize {
        self.servers.len() / self.stride
    }

    /// Whether the database is empty (never true for a built ring).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The replica set of a group.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    #[must_use]
    pub fn replicas(&self, gid: u32) -> &[ServerId] {
        let start = gid as usize * self.stride;
        &self.servers[start..start + self.stride]
    }

    /// The replica set of a group, or `None` if `gid` is unknown — used by
    /// selectors to reject corrupted RGIDs.
    #[must_use]
    pub fn get(&self, gid: u32) -> Option<&[ServerId]> {
        let start = gid as usize * self.stride;
        self.servers.get(start..start + self.stride)
    }

    /// Iterates over `(gid, replica set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[ServerId])> {
        self.servers
            .chunks_exact(self.stride)
            .enumerate()
            .map(|(i, g)| (i as u32, g))
    }
}

/// A consistent-hash ring with virtual nodes.
///
/// Each server contributes `vnodes` points on a 64-bit ring; a key is
/// served by the first `replication` *distinct* servers clockwise from the
/// key's hash — the standard Dynamo/Cassandra placement the paper assumes.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The ring points' hashes, ascending and distinct.
    hashes: Vec<u64>,
    /// `directory[b]` is the index of the first point whose hash has top
    /// [`DIRECTORY_BITS`] bits `>= b` (`hashes.len()` if none): a key
    /// lookup starts there and scans forward, usually zero or one step.
    directory: Vec<u32>,
    replication: u32,
    /// Group id of the ring segment ending at `hashes[i]`.
    segment_group: Vec<u32>,
    groups: ReplicaGroups,
}

/// The lookup directory has `2^DIRECTORY_BITS` buckets keyed by the top
/// bits of the key hash (32 KB of `u32`s). At the paper's 6 400 points
/// that is under one point per bucket.
const DIRECTORY_BITS: u32 = 13;

/// The `vnodes` ring points of each of `servers` servers under `seed`.
fn vnode_points(servers: u32, vnodes: u32, seed: u64) -> Vec<(u64, ServerId)> {
    let mut points = Vec::with_capacity(servers as usize * vnodes as usize);
    for s in 0..servers {
        for v in 0..vnodes {
            let h = hash64_pair(hash64(seed ^ u64::from(s)), u64::from(v));
            points.push((h, ServerId(s)));
        }
    }
    points
}

impl Ring {
    /// Builds a ring of `servers` servers with `vnodes` virtual nodes each
    /// and the given replication factor. `seed` perturbs vnode placement
    /// so different deployments get different (but reproducible) rings.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero or if there are fewer
    /// servers than the replication factor.
    pub fn new(servers: u32, vnodes: u32, replication: u32, seed: u64) -> Result<Self, RingError> {
        if servers == 0 {
            return Err(RingError::ZeroParameter("servers"));
        }
        if vnodes == 0 {
            return Err(RingError::ZeroParameter("vnodes"));
        }
        if replication == 0 {
            return Err(RingError::ZeroParameter("replication"));
        }
        if servers < replication {
            return Err(RingError::TooFewServers {
                servers,
                replication,
            });
        }

        Ok(Ring::from_points(
            vnode_points(servers, vnodes, seed),
            replication,
        ))
    }

    /// Builds the ring over the given `(hash, server)` points (any order;
    /// points colliding on a hash keep the lowest server). The points
    /// must name at least `replication` distinct servers.
    fn from_points(mut points: Vec<(u64, ServerId)>, replication: u32) -> Self {
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);

        // Precompute the replica set of every ring segment and dedup the
        // distinct sets into the group database. Each segment's set is
        // walked onto the tail of `groups`; `table` (open addressing,
        // linear probing, at most half full) finds an earlier copy, in
        // which case the tail is dropped again. Ids follow first
        // appearance.
        let n = points.len();
        let r = replication as usize;
        let mut groups: Vec<ServerId> = Vec::with_capacity(n * r);
        let mut table = vec![u32::MAX; (2 * n).next_power_of_two()];
        let mask = table.len() - 1;
        let mut segment_group = Vec::with_capacity(n);
        for i in 0..n {
            let start = groups.len();
            let mut j = i;
            while groups.len() - start < r {
                let candidate = points[j % n].1;
                if !groups[start..].contains(&candidate) {
                    groups.push(candidate);
                }
                j += 1;
                debug_assert!(j < i + n + 1, "ring walk must terminate");
            }
            let hash = groups[start..]
                .iter()
                .fold(0, |h, s| hash64(h ^ u64::from(s.0)));
            let mut slot = hash as usize & mask;
            let gid = loop {
                let gid = table[slot];
                if gid == u32::MAX {
                    table[slot] = (start / r) as u32;
                    break table[slot];
                }
                let at = gid as usize * r;
                if groups[at..at + r] == groups[start..] {
                    groups.truncate(start);
                    break gid;
                }
                slot = (slot + 1) & mask;
            };
            segment_group.push(gid);
        }

        let hashes: Vec<u64> = points.iter().map(|p| p.0).collect();
        let mut directory = Vec::with_capacity(1 << DIRECTORY_BITS);
        let mut first = 0;
        for bucket in 0..1u64 << DIRECTORY_BITS {
            while first < n && hashes[first] >> (64 - DIRECTORY_BITS) < bucket {
                first += 1;
            }
            directory.push(first as u32);
        }

        Ring {
            hashes,
            directory,
            replication,
            segment_group,
            groups: ReplicaGroups {
                servers: groups,
                stride: replication as usize,
            },
        }
    }

    /// The replication factor.
    #[must_use]
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// The replica-group database (clone it onto each selector).
    #[must_use]
    pub fn groups(&self) -> &ReplicaGroups {
        &self.groups
    }

    /// Index of the ring segment owning `key`'s hash: the first point at
    /// or after `hash64(key)`, wrapping around.
    fn segment_of_key(&self, key: u64) -> usize {
        self.segment_of_hash(hash64(key))
    }

    /// The first point at or after `h`, wrapping around: the directory
    /// gives the first point of `h`'s bucket, and every point before the
    /// answer from there on is below `h`.
    fn segment_of_hash(&self, h: u64) -> usize {
        let mut i = self.directory[(h >> (64 - DIRECTORY_BITS)) as usize] as usize;
        while i < self.hashes.len() && self.hashes[i] < h {
            i += 1;
        }
        if i == self.hashes.len() {
            0
        } else {
            i
        }
    }

    /// The reference lookup the directory replaced.
    #[cfg(test)]
    fn segment_of_hash_by_search(&self, h: u64) -> usize {
        match self.hashes.binary_search(&h) {
            Ok(i) => i,
            Err(i) => i % self.hashes.len(),
        }
    }

    /// The reference group build the flat table replaced: one `Vec` per
    /// segment, deduped through a map keyed by the replica set. Returns
    /// each segment's group id and the group database.
    #[cfg(test)]
    fn groups_by_map(
        mut points: Vec<(u64, ServerId)>,
        replication: u32,
    ) -> (Vec<u32>, ReplicaGroups) {
        use std::collections::HashMap;

        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        let n = points.len();
        let mut group_ids: HashMap<Vec<ServerId>, u32> = HashMap::new();
        let mut groups: Vec<ServerId> = Vec::new();
        let mut segment_group = Vec::with_capacity(n);
        for i in 0..n {
            let mut set = Vec::with_capacity(replication as usize);
            let mut j = i;
            while set.len() < replication as usize {
                let candidate = points[j % n].1;
                if !set.contains(&candidate) {
                    set.push(candidate);
                }
                j += 1;
            }
            let next_id = (groups.len() / replication as usize) as u32;
            let gid = *group_ids.entry(set).or_insert_with_key(|set| {
                groups.extend_from_slice(set);
                next_id
            });
            segment_group.push(gid);
        }
        let groups = ReplicaGroups {
            servers: groups,
            stride: replication as usize,
        };
        (segment_group, groups)
    }

    /// The replica-group ID a key belongs to (the RGID a client stamps on
    /// its requests).
    #[must_use]
    pub fn group_of_key(&self, key: u64) -> u32 {
        self.segment_group[self.segment_of_key(key)]
    }

    /// The ordered replica set of a key (primary first).
    #[must_use]
    pub fn replicas_for_key(&self, key: u64) -> &[ServerId] {
        self.groups.replicas(self.group_of_key(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Ring {
        Ring::new(100, 64, 3, 42).unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(
            Ring::new(2, 8, 3, 0).unwrap_err(),
            RingError::TooFewServers {
                servers: 2,
                replication: 3
            }
        );
        assert_eq!(
            Ring::new(0, 8, 3, 0).unwrap_err(),
            RingError::ZeroParameter("servers")
        );
        assert_eq!(
            Ring::new(5, 0, 3, 0).unwrap_err(),
            RingError::ZeroParameter("vnodes")
        );
        assert_eq!(
            Ring::new(5, 8, 0, 0).unwrap_err(),
            RingError::ZeroParameter("replication")
        );
        assert!(Ring::new(3, 1, 3, 0).is_ok());
    }

    #[test]
    fn replica_sets_are_distinct_and_sized() {
        let r = ring();
        for key in 0..5_000u64 {
            let reps = r.replicas_for_key(key);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica for key {key}");
            assert!(reps.iter().all(|s| s.0 < 100));
        }
    }

    #[test]
    fn group_db_is_consistent_with_lookup() {
        let r = ring();
        for key in 0..2_000u64 {
            let gid = r.group_of_key(key);
            assert_eq!(r.groups().replicas(gid), r.replicas_for_key(key));
        }
    }

    #[test]
    fn group_db_is_small_enough_for_rgid() {
        // §IV-A: "The size of the database should be small" — and it must
        // fit the 3-byte RGID.
        let r = ring();
        assert!(r.groups().len() <= 100 * 64);
        assert!((r.groups().len() as u32) < 0x00FF_FFFF);
        assert!(!r.groups().is_empty());
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let r = Ring::new(10, 128, 3, 7).unwrap();
        let mut primary_counts = [0u32; 10];
        for key in 0..30_000u64 {
            primary_counts[r.replicas_for_key(key)[0].0 as usize] += 1;
        }
        let expected = 3_000.0;
        for (s, &c) in primary_counts.iter().enumerate() {
            assert!(
                (f64::from(c) - expected).abs() / expected < 0.5,
                "server {s} owns {c} of 30000 keys"
            );
        }
    }

    #[test]
    fn rings_are_deterministic_per_seed() {
        let a = Ring::new(20, 16, 3, 9).unwrap();
        let b = Ring::new(20, 16, 3, 9).unwrap();
        let c = Ring::new(20, 16, 3, 10).unwrap();
        for key in 0..500u64 {
            assert_eq!(a.replicas_for_key(key), b.replicas_for_key(key));
        }
        assert!(
            (0..500u64).any(|k| a.replicas_for_key(k) != c.replicas_for_key(k)),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn all_servers_appear_somewhere() {
        let r = Ring::new(10, 64, 3, 3);
        let r = r.unwrap();
        let mut seen = [false; 10];
        for (_, reps) in r.groups().iter() {
            for s in reps {
                seen[s.0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn get_rejects_unknown_gid() {
        let r = ring();
        let len = r.groups().len() as u32;
        assert!(r.groups().get(u32::MAX).is_none());
        assert!(r.groups().get(len).is_none(), "one past the last group");
        assert_eq!(r.groups().get(len - 1), Some(r.groups().replicas(len - 1)));
        assert!(r.groups().get(0).is_some());
        assert_eq!(r.groups().iter().count(), r.groups().len());
    }

    /// The directory lookup against the binary search it replaced, on
    /// every hash where the two could part: each point's hash and its
    /// neighbours, both ends of the hash space, and a Zipf key stream.
    fn assert_directory_matches_search(r: &Ring) {
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &h in &r.hashes {
            probes.extend([h.wrapping_sub(1), h, h.wrapping_add(1)]);
        }
        let zipf = netrs_simcore::Zipf::new(100_000_000, 0.99);
        let mut rng = netrs_simcore::SimRng::from_seed(5);
        probes.extend((0..100_000).map(|_| hash64(zipf.sample(&mut rng))));
        for h in probes {
            assert_eq!(
                r.segment_of_hash(h),
                r.segment_of_hash_by_search(h),
                "hash {h:#x} on a {}-point ring",
                r.hashes.len()
            );
        }
    }

    #[test]
    fn directory_lookup_equals_binary_search() {
        for (servers, vnodes, replication) in [(1, 1, 1), (3, 1, 3), (100, 64, 3)] {
            assert_directory_matches_search(&Ring::new(servers, vnodes, replication, 42).unwrap());
        }
        // Colliding points dedup to one; several points share a bucket,
        // and the first and last buckets are both occupied.
        let top = 64 - DIRECTORY_BITS;
        let points = vec![
            (0, ServerId(0)),
            (7 << top, ServerId(1)),
            (7 << top, ServerId(2)),
            ((7 << top) + 1, ServerId(0)),
            ((7 << top) + 9, ServerId(2)),
            ((8 << top) - 1, ServerId(1)),
            (u64::MAX, ServerId(2)),
            (u64::MAX, ServerId(0)),
        ];
        let r = Ring::from_points(points.clone(), 2);
        assert_eq!(r.hashes.len(), 6, "two collisions removed");
        assert_directory_matches_search(&r);
        assert_build_matches_reference(&r, points, "colliding points");
    }

    /// `r`'s segment → group map and group database against the
    /// map-based reference build over the same points.
    fn assert_build_matches_reference(r: &Ring, points: Vec<(u64, ServerId)>, at: &str) {
        let (segment_group, groups) = Ring::groups_by_map(points, r.replication);
        assert_eq!(r.segment_group, segment_group, "{at}");
        assert_eq!(r.groups, groups, "{at}");
    }

    #[test]
    fn flat_group_table_equals_the_map_build() {
        let mut rng = netrs_simcore::SimRng::from_seed(31);
        let mut shapes = vec![(100, 64, 3), (1, 1, 1), (3, 1, 3), (2, 200, 2)];
        shapes.extend((0..40).map(|_| {
            let servers = 1 + rng.below(120) as u32;
            let replication = 1 + rng.below(u64::from(servers.min(5))) as u32;
            (servers, 1 + rng.below(80) as u32, replication)
        }));
        for (servers, vnodes, replication) in shapes {
            let seed = rng.next_u64();
            let at = format!("{servers} servers x {vnodes} vnodes, rf {replication}, seed {seed}");
            let r = Ring::new(servers, vnodes, replication, seed).unwrap();
            assert_build_matches_reference(&r, vnode_points(servers, vnodes, seed), &at);
        }
        // Few servers and many points: most segments repeat a set seen
        // earlier, so the table's hit path carries the build.
        let r = Ring::new(4, 500, 3, 7).unwrap();
        assert!(r.groups().len() <= 24, "{} groups", r.groups().len());
        assert_build_matches_reference(&r, vnode_points(4, 500, 7), "4 servers");
    }

    #[test]
    fn replication_factor_one_works() {
        let r = Ring::new(5, 16, 1, 0).unwrap();
        for key in 0..100u64 {
            assert_eq!(r.replicas_for_key(key).len(), 1);
        }
    }
}
