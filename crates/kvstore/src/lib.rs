//! The distributed key-value store substrate of the NetRS reproduction.
//!
//! NetRS sits in front of a Dynamo-style replicated key-value store
//! (§V-A): keys are placed on `Ns = 100` servers by consistent hashing
//! with a replication factor of 3, each server processes `Np = 4` requests
//! in parallel with exponentially distributed service times, and server
//! performance fluctuates bimodally every 50 ms. Servers piggyback their
//! status (queue length and a service-time estimate) on responses for the
//! replica-selection algorithm.
//!
//! This crate provides those pieces:
//!
//! * [`Ring`] — a consistent-hash ring with virtual nodes, plus the
//!   replica-group database ([`ReplicaGroups`]) that maps the 3-byte RGID
//!   of the wire format to a concrete replica set,
//! * [`Server`] — the queueing model of one storage server, driven by the
//!   simulation's event loop, and
//! * [`ServerStatus`] — the byte-encoded piggyback payload carried in the
//!   SS segment of NetRS responses.
//!
//! # Examples
//!
//! ```
//! use netrs_kvstore::{Ring, ServerId};
//!
//! let ring = Ring::new(100, 64, 3, 42)?;
//! let replicas = ring.replicas_for_key(0xDEAD_BEEF);
//! assert_eq!(replicas.len(), 3);
//! let gid = ring.group_of_key(0xDEAD_BEEF);
//! assert_eq!(ring.groups().replicas(gid), replicas);
//! # Ok::<(), netrs_kvstore::RingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ring;
mod server;
mod status;
mod version;

pub use ring::{ReplicaGroups, Ring, RingError};
pub use server::{Arrival, Completion, Server, ServerConfig, ServerStats};
pub use status::{ServerStatus, StatusError, STATUS_WIRE_LEN};
pub use version::VersionTable;

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a storage server (`0..Ns`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// 64-bit key/placement hash (SplitMix64 finalizer — fast, well mixed, and
/// dependency-free).
#[must_use]
pub fn hash64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stored form of a workload key: its Zipf rank as a `u32`. Keys are
/// ranks in `1..=SimConfig::keys`, and `SimConfig::validate` refuses
/// `keys > u32::MAX`, so tables that hold keys (request slots, version
/// slots, hot-key cache slots) store this while their APIs take `u64`.
///
/// # Panics
///
/// Panics if `key` exceeds `u32::MAX`, which no validated config draws:
/// truncating would alias a smaller rank.
#[must_use]
pub fn key_rank(key: u64) -> u32 {
    u32::try_from(key).expect("keys are Zipf ranks <= SimConfig::keys <= u32::MAX")
}

/// Combines two hash streams (e.g. server id and vnode index).
#[must_use]
pub fn hash64_pair(a: u64, b: u64) -> u64 {
    hash64(a ^ hash64(b).rotate_left(17))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_is_deterministic_and_spread() {
        assert_eq!(hash64(1), hash64(1));
        assert_ne!(hash64(1), hash64(2));
        // Low bits should vary even for sequential inputs.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(hash64(i) & 0xFF);
        }
        assert!(low_bits.len() > 40);
    }

    #[test]
    fn hash64_pair_is_order_sensitive() {
        assert_ne!(hash64_pair(1, 2), hash64_pair(2, 1));
    }
}
