//! Models of the programmable network devices NetRS runs on.
//!
//! §IV of the paper builds the NetRS operator out of three pieces, all
//! reproduced here:
//!
//! * [`NetRsRules`] — the match-action ingress pipeline deployed on every
//!   programmable switch (Fig. 3): classify by magic field, stamp
//!   RSNode IDs and source markers at ToRs, steer packets toward their
//!   RSNode, hand requests to the accelerator, clone responses to it, and
//!   demote Degraded-Replica-Selection traffic to non-NetRS packets.
//! * [`Accelerator`] — the network accelerator attached to each switch: a
//!   small multi-core FIFO queue with the per-packet service time and
//!   switch↔accelerator RTT the paper takes from IncBricks (5 µs and
//!   2.5 µs by default).
//! * [`Monitor`] — the egress-side counters on ToR switches that measure
//!   each traffic group's Tier-0/1/2 composition for the controller
//!   (§IV-D).
//!
//! The pipeline operates on [`PacketMeta`], a parsed view mirroring the
//! byte-exact headers of [`netrs_wire`]; the codecs themselves are
//! exercised at the hosts that build and consume packets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod cache;
mod monitor;
mod operator;
mod pipeline;

pub use accelerator::{Accelerator, AcceleratorConfig, AcceleratorStats};
pub use cache::{
    AdmitOutcome, CacheAdmission, CacheEntry, CacheStats, CacheWritePolicy, HolderBank,
    HotCacheConfig, HotKeyCache,
};
pub use monitor::{Monitor, TrafficSnapshot};
pub use operator::RsOperator;
pub use pipeline::{GroupId, IngressAction, NetRsRules, PacketMeta, TorRules};
