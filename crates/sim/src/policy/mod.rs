//! The policy layer: per-scheme decision points behind one trait.
//!
//! [`SchemePolicy`] captures every place the four schemes of the paper's
//! comparison differ — how a read is steered to a replica, where
//! selection state lives, how feedback propagates back to selectors, and
//! the redundant-request / control-plane timers. The fabric and server
//! layers, and the [`Core`] state they share, are scheme-blind: they call
//! into the policy object at these decision points and nowhere else
//! branch on the configured scheme.
//!
//! Adding a scheme means adding one implementation here and one arm to
//! [`build`]; see DESIGN.md for the walkthrough.

mod client;
mod netrs;

use ::netrs::Rsp;
use netrs_kvstore::{ServerId, ServerStatus};
use netrs_selection::Feedback;
use netrs_simcore::{DeviceProbe, EventQueue, SimDuration, SimRng, SimTime};
use netrs_topology::{FatTree, SwitchId};

use crate::cluster::{Ev, ReqId};
use crate::config::Scheme;
use crate::server::CopyId;
use crate::state::Core;

pub(crate) use self::client::ClientPolicy;
#[cfg(test)]
pub(crate) use self::netrs::FanoutTemplate;
pub(crate) use self::netrs::InNetwork;
pub use self::netrs::OraclePlacement;

/// Error returned by operator-fault hooks on schemes with no in-network
/// operators (CliRS, CliRS-R95).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotInNetwork;

impl std::fmt::Display for NotInNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheme has no in-network operators")
    }
}

impl std::error::Error for NotInNetwork {}

/// Scheme-owned contributions to [`crate::stats::RunStats`], all zero for
/// schemes without in-network state.
#[derive(Debug, Default)]
pub(crate) struct ControlStats {
    pub(crate) rsnode_census: [usize; 3],
    pub(crate) drs_groups: usize,
    pub(crate) mean_accel_utilization: f64,
    pub(crate) max_accel_utilization: f64,
    pub(crate) mean_selection_wait: SimDuration,
    /// Hot-key-cache counters summed over every operator that ever held
    /// a cache (live and retired); `None` when no cache was configured.
    pub(crate) cache: Option<netrs_netdev::CacheStats>,
}

/// A client's memoized ToR ingress verdict, if any, and the fresh one.
#[cfg(test)]
pub(crate) type IngressVerdicts = (
    Option<netrs_netdev::IngressAction>,
    netrs_netdev::IngressAction,
);

/// The memoized coherence fan-out of a client's rack, if any, and what a
/// fresh run of the fan-out loop gives for that client.
#[cfg(test)]
pub(crate) type FanoutTemplates = (Option<FanoutTemplate>, FanoutTemplate);

/// Context of one received (non-write) response copy, handed to
/// [`SchemePolicy::on_reply`] after [`Core::receive_reply`] has done the
/// scheme-independent accounting.
pub(crate) struct ReplyInfo {
    /// The server that answered.
    pub(crate) server: ServerId,
    /// When the copy left its last sender (client or selector).
    pub(crate) copy_sent_at: SimTime,
    pub(crate) status: ServerStatus,
    /// Index of the issuing client.
    pub(crate) client: u32,
    /// Whether this copy completed the logical request.
    pub(crate) first_completion: bool,
    /// The logical request's latency as of this copy (issue → now).
    pub(crate) latency: SimDuration,
}

/// One scheme's decision points.
///
/// Required: [`steer_read`](SchemePolicy::steer_read) (every scheme must
/// move a read toward a replica). The event hooks default to
/// `unreachable!` because each is only ever scheduled by the policy that
/// handles it; the query hooks default to the client-scheme answer
/// (no plan, no operators, zero control stats).
pub(crate) trait SchemePolicy<D: DeviceProbe>: Send {
    /// Schedules the scheme's control-plane timers (re-plan, overload)
    /// during [`crate::Cluster::prime`]. Runs after the workload
    /// generators and server timers, before the sampler.
    fn prime(&mut self, core: &mut Core<D>, queue: &mut EventQueue<Ev>) {
        let _ = (core, queue);
    }

    /// Steers a read of replica group `rgid` toward a replica — freshly
    /// issued, or re-steered after a timeout (fault runs): client-side
    /// selection over the group's replica set, borrowed from
    /// `core.ring`, or in-network forwarding, which only stamps it on
    /// the packet (the RGID header field) for the RSNode to read.
    fn steer_read(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    );

    /// A request reaches its RSNode's switch ([`Ev::RsnodeArrive`]).
    fn on_rsnode_arrive(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        op: SwitchId,
        queue: &mut EventQueue<Ev>,
    ) {
        let _ = (core, now, req, op, queue);
        unreachable!("RsnodeArrive is only scheduled by in-network policies");
    }

    /// The accelerator finishes a replica selection ([`Ev::Select`]).
    #[allow(clippy::too_many_arguments)]
    fn on_select(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        op: SwitchId,
        arrived: SimTime,
        waited: SimDuration,
        queue: &mut EventQueue<Ev>,
    ) {
        let _ = (core, now, req, op, arrived, waited, queue);
        unreachable!("Select is only scheduled by in-network policies");
    }

    /// An accelerator finishes folding a cloned response into its
    /// selector ([`Ev::SelectorUpdate`]).
    fn on_selector_update(&mut self, now: SimTime, op: SwitchId, fb: Feedback) {
        let _ = (now, op, fb);
        unreachable!("SelectorUpdate is only scheduled by in-network policies");
    }

    /// A write was issued and fanned out to its replica group
    /// ([`Ev::Generate`] tail). In-network schemes with a hot-key cache
    /// emit coherence messages toward their operators here; client
    /// schemes (no cache on the write path) do nothing.
    fn on_write_issued(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        key: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        let _ = (core, now, req, key, queue);
    }

    /// One arrival-time batch of a write's coherence messages reaches
    /// its operators' hot-key caches ([`Ev::CacheInvalidate`]).
    fn on_cache_invalidate(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        batch: u32,
        key: u64,
        version: u32,
    ) {
        let _ = (core, now, batch, key, version);
        unreachable!("CacheInvalidate is only scheduled by in-network policies");
    }

    /// Emits end-of-run per-operator cache records to the control sink
    /// (no-op for schemes without caches, and when no sink is attached).
    fn audit_caches(&mut self, core: &mut Core<D>, now: SimTime) {
        let _ = (core, now);
    }

    /// The CliRS-R95 duplicate timer fires ([`Ev::R95Check`]).
    fn on_r95_check(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        queue: &mut EventQueue<Ev>,
    ) {
        let _ = (core, now, req, queue);
        unreachable!("R95Check is only scheduled by the client policy");
    }

    /// The controller checks operator utilization ([`Ev::OverloadCheck`]).
    fn on_overload_check(&mut self, core: &mut Core<D>, now: SimTime, queue: &mut EventQueue<Ev>) {
        let _ = (core, now, queue);
        unreachable!("OverloadCheck is only scheduled by in-network policies");
    }

    /// The controller re-plans from monitor statistics ([`Ev::Replan`]).
    fn on_replan(&mut self, core: &mut Core<D>, now: SimTime, queue: &mut EventQueue<Ev>) {
        let _ = (core, now, queue);
        unreachable!("Replan is only scheduled by the NetRS-ILP policy");
    }

    /// Routes a finished copy's response back to the client (the
    /// in-network schemes detour reads through their RSNode).
    fn route_reply(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        copy: CopyId,
        status: ServerStatus,
        queue: &mut EventQueue<Ev>,
    ) {
        core.send_reply_direct(now, copy, status, queue);
    }

    /// Feedback when a response copy reaches the client: selector
    /// updates (client schemes) or ToR monitor counting (in-network
    /// schemes).
    fn on_reply(&mut self, core: &mut Core<D>, now: SimTime, info: &ReplyInfo) {
        let _ = (core, now, info);
    }

    /// The installed Replica Selection Plan, if the scheme has one.
    fn current_plan(&self) -> Option<&Rsp> {
        None
    }

    /// Injects a fail-stop operator fault (§III-C(iii)): degrade its
    /// traffic groups to DRS and redeploy. Returns the affected groups,
    /// or [`NotInNetwork`] for schemes without operators.
    fn fail_operator(&mut self, sw: SwitchId) -> Result<Vec<u32>, NotInNetwork> {
        let _ = sw;
        Err(NotInNetwork)
    }

    /// An operator fail-stops *silently* (fault plan `OperatorFail`):
    /// packets steered to it must blackhole until the controller detects
    /// the failure. Returns whether the scheme has detection to schedule.
    fn operator_crashed(&mut self, sw: SwitchId) -> bool {
        let _ = sw;
        false
    }

    /// A crashed operator comes back (fault plan `OperatorRecover`): the
    /// controller restores its traffic groups and reinstalls a fresh
    /// selector. Returns the restored groups (empty for client schemes
    /// and for operators that never failed).
    fn recover_operator(&mut self, core: &mut Core<D>, now: SimTime, sw: SwitchId) -> Vec<u32> {
        let _ = (core, now, sw);
        Vec::new()
    }

    /// A read's retry timer fired and the request is being re-steered
    /// (fault runs only): let client-side selectors penalize the replica
    /// that failed to answer.
    fn on_request_timeout(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        primary: Option<ServerId>,
    ) {
        let _ = (core, now, req, primary);
    }

    /// Census of operators by tier currently holding selector state.
    fn operator_tiers(&self, topo: &FatTree) -> [usize; 3] {
        let _ = topo;
        [0; 3]
    }

    /// Aggregate accelerator busy core-nanoseconds and accelerator count
    /// (live + retired), for the sampler's windowed utilization.
    fn accel_busy(&self) -> (u128, usize) {
        (0, 0)
    }

    /// Number of traffic groups currently degraded to DRS.
    fn drs_groups(&self) -> usize {
        0
    }

    /// Test hook: per client, the memoized ToR ingress verdict (if any)
    /// beside the one a fresh pipeline run gives. Empty for schemes that
    /// memoize nothing.
    #[cfg(test)]
    fn ingress_verdicts(&self, core: &Core<D>) -> Vec<IngressVerdicts> {
        let _ = core;
        Vec::new()
    }

    /// Test hook: per client, its rack's memoized coherence fan-out (if
    /// any) beside the one a fresh run of the fan-out loop gives. Empty
    /// for schemes that memoize nothing, and while a link is dead or
    /// degraded (no memo is consulted then).
    #[cfg(test)]
    fn fanout_templates(&self, core: &mut Core<D>) -> Vec<FanoutTemplates> {
        let _ = core;
        Vec::new()
    }

    /// The scheme's contribution to end-of-run statistics.
    fn control_stats(&self, now: SimTime, topo: &FatTree) -> ControlStats {
        let _ = (now, topo);
        ControlStats::default()
    }
}

/// Builds the policy object for the configured scheme. `root` is the same
/// seed-pure RNG root the [`Core`] forked its streams from; policies fork
/// their own selector streams from it.
pub(crate) fn build<D: DeviceProbe>(
    core: &Core<D>,
    root: &SimRng,
) -> Box<dyn SchemePolicy<D> + Send> {
    match core.cfg.scheme {
        Scheme::CliRs => Box::new(ClientPolicy::new(core, root, false)),
        Scheme::CliRsR95 => Box::new(ClientPolicy::new(core, root, true)),
        // NetRS-ToR pins an RSNode to every client ToR for good; NetRS-ILP
        // optimizes the placement from the configured plan source.
        Scheme::NetRsToR => Box::new(InNetwork::new(core, root, None)),
        Scheme::NetRsIlp => Box::new(InNetwork::new(core, root, Some(core.cfg.plan_source))),
    }
}
