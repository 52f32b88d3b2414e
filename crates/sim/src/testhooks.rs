//! Test-support hooks for the allocation-freedom test.
//!
//! The crate forbids unsafe code, so the counting `#[global_allocator]`
//! that proves the timing fast path never allocates has to live in an
//! integration-test crate (`tests/no_alloc.rs`). Fabric timing is
//! crate-private; [`TimingProbe`] re-exposes its three segment kinds on a
//! healthy fabric, the timing every simulated packet pays, and
//! [`ARRIVAL_LOOKAHEAD`] how many generator firings are drawn per refill,
//! so the test can size its window past a refill; [`REQUEST_SLOT_BYTES`]
//! lets it pin the size of a request-table slot.

use netrs_simcore::{NoDeviceProbe, SimDuration};
use netrs_topology::{FatTree, HostId, SwitchId};

use crate::fabric::Fabric;

/// Workload-generator firings drawn ahead per refill of a shard's buffer.
pub const ARRIVAL_LOOKAHEAD: usize = crate::state::LOOKAHEAD;

/// Bytes of one request-table slot: the request id and its state.
pub const REQUEST_SLOT_BYTES: usize =
    std::mem::size_of::<Option<(u64, crate::state::RequestState)>>();

/// A healthy fabric plus just enough surface to drive its per-packet
/// timing from outside the crate.
pub struct TimingProbe {
    fabric: Fabric<NoDeviceProbe>,
}

impl TimingProbe {
    /// A probe over a fault-free `arity`-ary fat-tree with the paper's
    /// 30 µs link latency.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not a valid fat-tree arity.
    #[must_use]
    pub fn new(arity: u32) -> Self {
        let topo = FatTree::new(arity).expect("valid fat-tree arity");
        TimingProbe {
            fabric: Fabric::new(topo, SimDuration::from_micros(30), NoDeviceProbe),
        }
    }

    /// Number of hosts in the probe's topology.
    #[must_use]
    pub fn num_hosts(&self) -> u32 {
        self.fabric.topo.num_hosts()
    }

    /// Number of switches in the probe's topology.
    #[must_use]
    pub fn num_switches(&self) -> u32 {
        self.fabric.topo.num_switches()
    }

    /// Times the three segment kinds (host→host, host→switch,
    /// switch→host) exactly as the event loop does and returns the summed
    /// delay, or `None` if any segment is severed (never, here: the probe
    /// carries no faults).
    #[must_use]
    pub fn trio(&self, a: u32, b: u32, sw: u32, hash: u64) -> Option<SimDuration> {
        let (a, b, sw) = (HostId(a), HostId(b), SwitchId(sw));
        Some(
            self.fabric.latency(a, b, hash)?
                + self.fabric.latency(a, sw, hash)?
                + self.fabric.latency(sw, b, hash)?,
        )
    }
}
