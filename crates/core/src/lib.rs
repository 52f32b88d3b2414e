//! **NetRS** — in-network replica selection for distributed key-value
//! stores.
//!
//! This crate is the primary contribution of the ICDCS'18 paper *"NetRS:
//! Cutting Response Latency in Distributed Key-Value Stores with
//! In-Network Replica Selection"* (Su, Feng, Hua, Shi, Zhu), rebuilt as a
//! Rust library on top of the workspace substrates:
//!
//! * [`TrafficGroups`] — the controller's unit of assignment (§III-A):
//!   requests are grouped per host, per rack, or per sub-rack chunk.
//! * [`TrafficMatrix`] — each group's Tier-0/1/2 request-rate composition,
//!   measured by ToR monitors or computed from a workload oracle.
//! * [`PlacementProblem`] — the RSNode-placement ILP of §III-B (Eq. 1–7):
//!   minimize the number of RSNodes subject to single-RSNode-per-request,
//!   accelerator-capacity and extra-hop-budget constraints. Solvable
//!   exactly (branch-and-bound via [`netrs_ilp`]), greedily, or greedy-
//!   warm-started-exact ([`PlanSolver::Auto`]).
//! * [`Rsp`] — the Replica Selection Plan: which NetRS operator serves
//!   each traffic group, plus the groups degraded to client-side backup
//!   routing (DRS, §III-C).
//! * [`NetRsController`] — generates plans, compiles them into per-switch
//!   [`netrs_netdev::NetRsRules`], and handles operator failures by
//!   enabling DRS for the affected groups.
//!
//! # Examples
//!
//! Plan RSNode placement for clients spread over a small fat-tree:
//!
//! ```
//! use netrs::{
//!     ControllerConfig, NetRsController, PlanSolver, TrafficGroups, TrafficMatrix,
//! };
//! use netrs_topology::{FatTree, HostId};
//!
//! let topo = FatTree::new(4)?;
//! let clients: Vec<HostId> = (0..8).map(HostId).collect();
//! let servers: Vec<HostId> = (8..16).map(HostId).collect();
//! let groups = TrafficGroups::rack_level(&topo, &clients);
//! // Each client sends 1000 req/s; tiers follow server placement.
//! let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 1000.0)).collect();
//! let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
//!
//! let mut controller = NetRsController::new(topo, ControllerConfig::default());
//! let rsp = controller.plan(&groups, &traffic, PlanSolver::default());
//! assert!(rsp.drs.is_empty());
//! let rules = controller.deploy(&groups);
//! assert_eq!(rules.len(), 20); // one rule set per switch
//! # Ok::<(), netrs_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod group;
mod plan;
mod traffic;

pub use controller::{ControllerConfig, NetRsController};
pub use group::{Granularity, GroupInfo, TrafficGroups};
pub use plan::{
    AssignmentVars, PlacementProblem, PlanConstraints, PlanDiff, PlanSolveStats, PlanSolver, Rsp,
};
pub use traffic::{TrafficMatrix, UnknownGroup};

pub use netrs_netdev::GroupId;
