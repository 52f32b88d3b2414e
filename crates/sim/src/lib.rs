//! Full-cluster simulation of the NetRS evaluation (§V).
//!
//! This crate assembles every substrate of the workspace — the
//! discrete-event engine, the fat-tree network, the NetRS switch rules
//! and accelerators, the key-value servers and the C3 selector — into the
//! experiment the paper runs: an open-loop, Zipf-keyed, Poisson-arrival
//! read workload against a replicated key-value store, under four
//! replica-selection schemes:
//!
//! * [`Scheme::CliRs`] — clients select replicas (conventional),
//! * [`Scheme::CliRsR95`] — CliRS plus redundant requests after the 95th
//!   percentile expected latency,
//! * [`Scheme::NetRsToR`] — NetRS with RSNodes fixed at rack ToRs,
//! * [`Scheme::NetRsIlp`] — NetRS with ILP-placed RSNodes.
//!
//! # Examples
//!
//! ```
//! use netrs_sim::{run, Scheme, SimConfig};
//!
//! let mut cfg = SimConfig::small();
//! cfg.requests = 1_000;
//! cfg.scheme = Scheme::NetRsToR;
//! let stats = run(cfg);
//! assert_eq!(stats.completed, 1_000);
//! println!("mean latency: {}", stats.latency.mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod cluster;
mod config;
mod dense;
mod fabric;
mod obs;
pub mod perf;
mod policy;
mod runner;
mod server;
mod state;
mod stats;
pub mod sweep;
#[doc(hidden)]
pub mod testhooks;

pub use cluster::{Cluster, Ev, ReqId};
pub use config::{OverloadPolicy, PlanSource, R95Config, Scheme, SimConfig, WriteConsistency};
pub use netrs_faults::{
    AvailabilityStats, FaultEvent, FaultPlan, LinkRef, RetryPolicy, TimedFault,
};
pub use netrs_netdev::{CacheAdmission, CacheStats, CacheWritePolicy, HotCacheConfig};
pub use netrs_simcore::EngineProfile;
pub use obs::{
    CacheRecord, ControlRecord, DeviceRecord, DeviceStatsReport, DisplacedGroup, DrsSpanRecord,
    HopSpan, ObsOptions, PerfOptions, PlanEventRecord, SamplePoint, SamplerSpec, SnapshotGroup,
    SnapshotRecord, SolveRecord, TimeSeries, TraceRecord,
};
pub use perf::{
    AllocStats, HostMeta, HostProfile, KindRecord, QueueStats, RequestTableStats,
    PERF_SCHEMA_VERSION,
};
pub use policy::{NotInNetwork, OraclePlacement};
pub use runner::{run, run_observed, run_observed_sharded_parallel, ParallelOptions, RunOutput};
pub use server::{CopyId, ServerToken};
pub use stats::{LatencyBreakdown, MeanStats, ParallelStats, RunStats, RwStats};
pub use sweep::{
    cell_label, run_sweep, SweepCell, SweepJob, SweepPoint, SweepReport, SWEEP_SCHEMA_VERSION,
};
