//! The simulated cluster: the thin facade tying the three layers
//! together and dispatching events to them.
//!
//! The simulation is layered (see DESIGN.md):
//!
//! * [`crate::fabric`] — packet movement over the fat-tree: ECMP path
//!   replay, link timing, and passive observation (device probe, hop
//!   log).
//! * [`crate::server`] — storage-server queueing and service, and the
//!   per-copy timeline token.
//! * [`crate::policy`] — the per-scheme decision points behind
//!   [`SchemePolicy`](crate::policy::SchemePolicy): request steering,
//!   replica-selection locus, feedback propagation, redundant requests,
//!   and the control plane.
//! * [`crate::state`] — the scheme-independent [`Core`]: workload,
//!   clients, request bookkeeping, and result accounting, owning the
//!   fabric and server layers.
//!
//! [`Cluster`] owns one [`Core`] and one boxed policy and implements
//! [`World`]: each event is dispatched either to the core (workload,
//! servers, replies, sampling) or to the policy (steering, selection,
//! duplicates, control plane), never both ad hoc.
//!
//! Timing model (all constants from §V-A): every network link traversal
//! costs `link_latency` (30 µs); switch forwarding itself is free, so a
//! packet's network time is `edges × link_latency` along its (possibly
//! RSNode-detoured) path. Replica selection adds the accelerator's
//! half-RTT + queueing + service + half-RTT. Response clones consume
//! accelerator capacity but add no latency to the response itself.
//! Servers are `Np`-slot FIFO queues with exponentially distributed,
//! bimodally fluctuating service times.

use netrs::Rsp;
use netrs_kvstore::{ServerId, ServerStatus};
use netrs_selection::Feedback;
use netrs_simcore::{
    DeviceProbe, EventQueue, Histogram, NoDeviceProbe, ParallelWorld, ShardId, SimDuration, SimRng,
    SimTime, World,
};
use netrs_topology::{FatTree, SwitchId};

use netrs_faults::FaultEvent;

use crate::config::SimConfig;
use crate::obs::{DeviceStatsReport, PlanEventRecord, SamplerSpec, TimeSeries};
use crate::perf::RequestTableStats;
use crate::policy::{NotInNetwork, SchemePolicy};
use crate::server::{CopyId, ServerToken};
use crate::state::{Core, GenOutcome, RetryAction};
use crate::stats::RunStats;

/// Identifies one logical client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub u64);

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A workload generator fires.
    Generate {
        /// Generator index.
        gen: u32,
    },
    /// A request reaches its RSNode's switch and enters the accelerator.
    RsnodeArrive {
        /// The request.
        req: ReqId,
        /// The operator's switch.
        op: SwitchId,
    },
    /// The accelerator finishes a replica selection.
    Select {
        /// The request.
        req: ReqId,
        /// The operator's switch.
        op: SwitchId,
        /// When the request reached the RSNode (starts the selection
        /// phase of the latency breakdown).
        arrived: SimTime,
        /// How long the selection waited for a free accelerator core.
        waited: SimDuration,
    },
    /// A request copy arrives at a server.
    ServerArrive {
        /// The copy.
        copy: CopyId,
    },
    /// A server finishes one request copy.
    ServerDone {
        /// The server.
        server: ServerId,
        /// The finished copy.
        copy: CopyId,
    },
    /// An accelerator finishes processing a cloned response.
    SelectorUpdate {
        /// The operator's switch.
        op: SwitchId,
        /// The selector feedback derived from the clone.
        fb: Feedback,
    },
    /// A response reaches the client.
    ClientReceive {
        /// The copy.
        copy: CopyId,
        /// Piggybacked server status at response time.
        status: ServerStatus,
    },
    /// The CliRS-R95 duplicate timer fires.
    R95Check {
        /// The possibly still outstanding request.
        req: ReqId,
    },
    /// A server redraws its mean service time (every 50 ms).
    Fluctuate {
        /// The server.
        server: ServerId,
    },
    /// The controller checks operator utilization for overload
    /// (§III-C(ii)).
    OverloadCheck,
    /// The controller re-plans from monitor statistics.
    Replan,
    /// The observability sampler ticks (only scheduled when enabled).
    Sample,
    /// A scripted fault from the run's fault plan fires.
    Fault {
        /// Index into the plan's event timeline.
        idx: u32,
    },
    /// The client-side timeout machinery checks on a request (only
    /// scheduled when a fault plan is active).
    RetryCheck {
        /// The possibly still outstanding request.
        req: ReqId,
        /// How many checks have already fired for it.
        attempt: u32,
    },
    /// The controller detects an operator fail-stop (scheduled
    /// `detection_delay` after an `OperatorFail` fault).
    OperatorDetect {
        /// The dead operator's switch.
        sw: SwitchId,
    },
    /// A write's coherence messages reach the hot-key caches of every
    /// RSNode they arrive at *at this instant* (only scheduled when a
    /// cache is configured). One write fans out to every live operator,
    /// but the messages land at a handful of distinct times (own ToR, own
    /// pod, other pods on a healthy fat-tree), so the fan-out is one event
    /// per arrival time, not one per operator: the handler walks the batch
    /// in ascending switch order and does per operator what a per-message
    /// event would — loss draw, then invalidate or refresh — skipping the
    /// operators whose caches hold no key of the written key's class (the
    /// policy's holder bank) unless a loss burst needs their coin draws.
    /// Event counts (`RunStats::events`, the `CacheInvalidate` row of
    /// `--perf`) therefore count batches.
    CacheInvalidate {
        /// The batch's operator set, by id in the policy's side table
        /// (recycled on delivery; keeps the set out of the event).
        batch: u32,
        /// The written key.
        key: u64,
        /// The key's newly committed version.
        version: u32,
    },
}

/// The complete simulated cluster (implements
/// [`netrs_simcore::World`]).
///
/// Generic over a [`DeviceProbe`]: with the default [`NoDeviceProbe`]
/// every device-telemetry hook compiles away and the run is exactly what
/// it was before the registry existed; with
/// [`DeviceStatsRegistry`](netrs_simcore::DeviceStatsRegistry) the
/// cluster accumulates per-device statistics (see
/// [`Cluster::take_device_report`]). Either way the probe only records —
/// it never touches event timing or randomness, so `RunStats` are
/// identical whichever probe is compiled in.
pub struct Cluster<D: DeviceProbe = NoDeviceProbe> {
    core: Core<D>,
    policy: Box<dyn SchemePolicy<D> + Send>,
}

impl Cluster {
    /// Builds the cluster for a validated configuration, without device
    /// telemetry (the [`NoDeviceProbe`] monomorphization).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`SimConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        Cluster::with_device_probe(cfg, NoDeviceProbe)
    }

    /// A sequential engine over a fresh cluster for `cfg`, primed and
    /// ready to step.
    #[cfg(test)]
    pub(crate) fn primed_engine(cfg: SimConfig) -> netrs_simcore::Engine<Cluster> {
        let mut engine = netrs_simcore::Engine::new(Cluster::new(cfg));
        let mut queue = std::mem::take(engine.queue_mut());
        engine.world_mut().prime(&mut queue);
        *engine.queue_mut() = queue;
        engine
    }
}

/// Finalizes and validates `cfg` and builds the scheme-independent state
/// together with the root RNG every other stream forks from.
///
/// # Panics
///
/// Panics if the configuration is invalid ([`SimConfig::validate`]).
pub(crate) fn build_core<D: DeviceProbe>(
    cfg: SimConfig,
    shards: u32,
    devices: D,
) -> (Core<D>, SimRng) {
    let cfg = cfg.finalize();
    if let Err(msg) = cfg.validate() {
        panic!("invalid simulation config: {msg}");
    }
    // Every random stream is a pure fork of the root: construction
    // and scheme order never perturb each other's draws.
    let root = SimRng::from_seed(cfg.seed);
    let core = Core::new(cfg, devices, &root, shards);
    (core, root)
}

impl<D: DeviceProbe> Cluster<D> {
    /// Builds the cluster with an explicit device probe (see
    /// [`Cluster::new`] for the uninstrumented entry point).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`SimConfig::validate`]).
    #[must_use]
    pub fn with_device_probe(cfg: SimConfig, devices: D) -> Self {
        Cluster::with_shards(cfg, 1, devices)
    }

    /// Builds the cluster partitioned into `shards` event shards, the
    /// form every replica of a
    /// [`ParallelEngine`](netrs_simcore::ParallelEngine) run starts
    /// from: pods map to shards round-robin and each shard's workload
    /// generators draw from their own RNG stream ([`SimRng::split`]).
    /// `shards` is clamped to `1..=pods`; at 1 shard the cluster is
    /// byte-identical to [`Cluster::with_device_probe`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`SimConfig::validate`]).
    #[must_use]
    pub fn with_shards(cfg: SimConfig, shards: u32, devices: D) -> Self {
        let (core, root) = build_core(cfg, shards, devices);
        let policy = crate::policy::build(&core, &root);
        Cluster { core, policy }
    }

    /// Primes the event queue: generator arrivals, server fluctuation
    /// timers, the scheme's control-plane timers, and the sampler tick.
    pub fn prime(&mut self, queue: &mut EventQueue<Ev>) {
        self.core.prime_workload(queue);
        self.core.prime_faults(queue);
        self.policy.prime(&mut self.core, queue);
        self.core.prime_sampler(queue);
    }

    // ---- observability ---------------------------------------------------

    /// Streams one JSONL [`TraceRecord`](crate::obs::TraceRecord) per
    /// received request copy to `w`. Tracing only writes; it never
    /// perturbs event timing.
    pub fn set_tracer(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.core.set_tracer(w);
    }

    /// Attaches hop-by-hop route spans to every trace record (see
    /// [`HopSpan`](crate::obs::HopSpan)). Independent of the device
    /// probe; like it, this only records and never perturbs event timing.
    pub fn enable_hop_tracing(&mut self) {
        self.core.fabric.enable_hop_tracing();
    }

    /// Takes the accumulated per-device statistics as export-ready
    /// records, if a recording probe was compiled in. Call after the run
    /// drains; `now` is the utilization / mean-depth denominator.
    pub fn take_device_report(&mut self, now: SimTime) -> Option<DeviceStatsReport> {
        self.core.take_device_report(now)
    }

    /// Enables the virtual-time sampler (call before [`Cluster::prime`],
    /// which schedules its first tick).
    ///
    /// # Panics
    ///
    /// Panics if `spec.interval` is zero — a zero-interval sampler would
    /// re-arm at the current instant forever and sim time could never
    /// advance.
    pub fn enable_sampler(&mut self, spec: SamplerSpec) {
        self.core.enable_sampler(spec);
    }

    /// Takes the sampler's time series, if the sampler ran.
    pub fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.core.take_timeseries()
    }

    /// Flushes the trace sink, if any (call after the run drains).
    pub fn flush_tracer(&mut self) {
        self.core.flush_tracer();
    }

    // ---- replica mode (parallel execution) -------------------------------

    /// Switches this cluster into SPMD replica mode for `shard` (see
    /// [`Core::enable_replica`]); `quota` is the replica's share of the
    /// request budget and `lookahead_mult` widens the conservative
    /// window (`mult × link_latency`; values above 1 trade exactness for
    /// fewer barriers and are counted by `mailbox_late`).
    pub(crate) fn enable_replica(&mut self, shard: u32, quota: u64, lookahead_mult: u32) {
        self.core.enable_replica(shard, quota, lookahead_mult);
    }

    /// Whether the per-shard workload split can reproduce the global
    /// client distribution (see [`Core::replica_coverage_ok`]).
    pub(crate) fn replica_coverage_ok(&self) -> bool {
        self.core.replica_coverage_ok()
    }

    /// Buffers trace records for the post-run canonical-order merge
    /// instead of writing them inline.
    pub(crate) fn buffer_trace(&mut self) {
        self.core.buffer_trace();
    }

    /// The buffered trace lines (receive-time, line), in shard-local
    /// processing order.
    pub(crate) fn take_trace_buf(&mut self) -> Vec<(u64, String)> {
        self.core.take_trace_buf()
    }

    /// Folds another replica's results into this one (replica 0 absorbs
    /// shards 1..N after the parallel run drains).
    pub(crate) fn absorb_replica(&mut self, other: &mut Cluster<D>) {
        self.core.absorb_replica(&mut other.core);
    }

    /// Streams control-plane observability to `w`: one JSONL
    /// [`ControlRecord`](crate::obs::ControlRecord) per monitor snapshot
    /// window, controller decision, and DRS failure span. Like the
    /// tracer, the sink only writes; it never perturbs event timing,
    /// randomness or the controller's decisions.
    pub fn set_control(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.core.set_control(w);
    }

    /// Closes still-open DRS failure spans at `now`, emits end-of-run
    /// per-operator cache records, and flushes the control sink, if any
    /// (call after the run drains).
    pub fn flush_control(&mut self, now: SimTime) {
        self.policy.audit_caches(&mut self.core, now);
        self.core.flush_control(now);
    }

    /// Whether all issued requests have completed and no more will be
    /// issued.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.core.drained()
    }

    // ---- control plane ---------------------------------------------------

    /// Injects a fail-stop fault into the operator at `sw` (§III-C(iii)):
    /// its traffic groups degrade to DRS and rules are redeployed.
    /// In-flight requests already heading there are served best-effort.
    ///
    /// # Errors
    ///
    /// Returns [`NotInNetwork`] for client-side schemes, which have no
    /// operators to fail.
    pub fn fail_operator(&mut self, sw: SwitchId) -> Result<Vec<u32>, NotInNetwork> {
        self.policy.fail_operator(sw)
    }

    // ---- results ---------------------------------------------------------

    /// Collects run statistics (call after the engine drains).
    #[must_use]
    pub fn stats(&self, now: SimTime, events: u64) -> RunStats {
        let control = self.policy.control_stats(now, &self.core.fabric.topo);
        self.core.stats(now, events, control)
    }

    /// The latency histogram accumulated so far (post-warmup requests).
    #[must_use]
    pub fn latency_histogram(&self) -> &Histogram {
        &self.core.hist
    }

    /// The installed Replica Selection Plan, if the scheme has one.
    #[must_use]
    pub fn current_plan(&self) -> Option<&Rsp> {
        self.policy.current_plan()
    }

    /// The simulated topology.
    #[must_use]
    pub fn topology(&self) -> &FatTree {
        &self.core.fabric.topo
    }

    /// Census of operators by tier currently holding selector state.
    #[must_use]
    pub fn operator_tiers(&self) -> [usize; 3] {
        self.policy.operator_tiers(&self.core.fabric.topo)
    }

    /// Requests issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.core.issued
    }

    /// Builds the decision-audit record for a fault-triggered plan edit
    /// (failure detection or recovery) against the now-installed plan.
    /// No solve runs for these: the controller edits the plan directly.
    fn fault_audit(
        &self,
        now: SimTime,
        trigger: &str,
        sw: SwitchId,
        groups: &[u32],
        recovery: bool,
    ) -> PlanEventRecord {
        let (rsnodes, drs_groups) = match self.policy.current_plan() {
            Some(p) => (p.rsnodes().len() as u32, p.drs.len() as u32),
            None => (0, 0),
        };
        let touched = groups.to_vec();
        let op_change = if touched.is_empty() {
            Vec::new()
        } else {
            vec![sw.0]
        };
        let (newly_assigned, unassigned, rsnodes_added, rsnodes_removed) = if recovery {
            (touched, Vec::new(), op_change, Vec::new())
        } else {
            (Vec::new(), touched, Vec::new(), op_change)
        };
        PlanEventRecord {
            t_ns: now.as_nanos(),
            trigger: trigger.into(),
            switch: Some(sw.0),
            solve: None,
            reassigned: Vec::new(),
            newly_assigned,
            unassigned,
            rsnodes_added,
            rsnodes_removed,
            rsnodes,
            drs_groups,
            rules_recompiled: self.core.fabric.topo.num_switches(),
        }
    }

    /// Logical requests completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.core.completed
    }

    /// Request copies sent and neither delivered nor lost yet (0 once
    /// the run drains).
    pub(crate) fn copies_in_flight(&self) -> usize {
        self.core.copies.live()
    }

    /// Hop timelines neither received nor lost yet (0 once the run drains).
    pub(crate) fn walks_in_flight(&self) -> usize {
        self.core.fabric.walks_in_flight()
    }

    /// How big the request table is and how full it ever got.
    pub(crate) fn request_table_stats(&self) -> RequestTableStats {
        self.core.requests.stats()
    }

    /// See [`SchemePolicy::fanout_templates`].
    #[cfg(test)]
    pub(crate) fn fanout_templates(&mut self) -> Vec<crate::policy::FanoutTemplates> {
        self.policy.fanout_templates(&mut self.core)
    }

    /// See [`SchemePolicy::ingress_verdicts`].
    #[cfg(test)]
    pub(crate) fn ingress_verdicts(&self) -> Vec<crate::policy::IngressVerdicts> {
        self.policy.ingress_verdicts(&self.core)
    }
}

impl<D: DeviceProbe> World for Cluster<D> {
    type Event = Ev;

    fn event_kinds() -> &'static [&'static str] {
        crate::perf::kind_names()
    }

    fn event_kind(event: &Ev) -> u32 {
        event.kind_index()
    }

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Generate { gen } => match self.core.generate(now, gen, queue) {
                GenOutcome::Read { req, rgid } => {
                    self.policy
                        .steer_read(&mut self.core, now, req, rgid, queue);
                }
                GenOutcome::Write { req, key } => {
                    self.policy
                        .on_write_issued(&mut self.core, now, req, key, queue);
                }
                GenOutcome::None => {}
            },
            Ev::RsnodeArrive { req, op } => {
                self.policy
                    .on_rsnode_arrive(&mut self.core, now, req, op, queue);
            }
            Ev::Select {
                req,
                op,
                arrived,
                waited,
            } => {
                self.policy
                    .on_select(&mut self.core, now, req, op, arrived, waited, queue);
            }
            Ev::ServerArrive { copy } => {
                if self.core.packet_lost(now) {
                    self.core.lose_copy(copy);
                } else {
                    self.core.server_arrive(now, copy, queue);
                }
            }
            Ev::ServerDone { server, copy } => {
                if self
                    .core
                    .servers
                    .absorb_ghost(server, &self.core.copies[copy])
                {
                    // The copy was in service when the server crashed.
                    self.core.lose_copy(copy);
                } else if let Some(status) = self.core.finish_service(now, server, copy, queue) {
                    // Chain writes propagate server → server; only the
                    // tail's completion produces a client reply.
                    if !self.core.forward_chain_write(now, copy, queue) {
                        self.policy
                            .route_reply(&mut self.core, now, copy, status, queue);
                    }
                }
            }
            Ev::SelectorUpdate { op, fb } => self.policy.on_selector_update(now, op, fb),
            Ev::ClientReceive { copy, status } => {
                if self.core.packet_lost(now) {
                    self.core.lose_copy(copy);
                } else if let Some(info) = self.core.receive_reply(now, copy, status) {
                    self.policy.on_reply(&mut self.core, now, &info);
                }
            }
            Ev::R95Check { req } => self.policy.on_r95_check(&mut self.core, now, req, queue),
            Ev::Fluctuate { server } => {
                self.core.servers.fluctuate(server);
                if !self.core.drained() {
                    queue.schedule_after(
                        self.core.cfg.server.fluctuation_interval,
                        Ev::Fluctuate { server },
                    );
                }
            }
            Ev::OverloadCheck => self.policy.on_overload_check(&mut self.core, now, queue),
            Ev::Replan => self.policy.on_replan(&mut self.core, now, queue),
            Ev::Sample => {
                let (accel_busy, n_accels) = self.policy.accel_busy();
                let drs = self.policy.drs_groups();
                self.core.sample(now, accel_busy, n_accels, drs, queue);
            }
            Ev::Fault { idx } => match self.core.inject_fault(now, idx) {
                Some(FaultEvent::OperatorFail { switch }) => {
                    let sw = SwitchId(switch);
                    if self.policy.operator_crashed(sw) {
                        if let Some(log) = self.core.control_log() {
                            log.operator_failed(now.as_nanos(), sw.0);
                        }
                        // The controller only learns of the fail-stop
                        // after the plan's detection delay; until then
                        // steered packets blackhole.
                        queue
                            .schedule_after(self.core.detection_delay(), Ev::OperatorDetect { sw });
                    }
                }
                Some(FaultEvent::OperatorRecover { switch }) => {
                    let sw = SwitchId(switch);
                    let restored = self.policy.recover_operator(&mut self.core, now, sw);
                    if self.core.control_log().is_some() {
                        let rec = self.fault_audit(now, "operator_recover", sw, &restored, true);
                        if let Some(log) = self.core.control_log() {
                            log.operator_recovered(rec);
                        }
                    }
                }
                _ => {} // server / link / loss faults applied by the core
            },
            Ev::RetryCheck { req, attempt } => match self.core.retry_decision(req, attempt) {
                RetryAction::Done | RetryAction::Abandon => {}
                RetryAction::Retry { rgid, primary } => {
                    self.policy
                        .on_request_timeout(&mut self.core, now, req, primary);
                    self.policy
                        .steer_read(&mut self.core, now, req, rgid, queue);
                    queue.schedule_after(
                        self.core.retry_backoff(attempt + 1),
                        Ev::RetryCheck {
                            req,
                            attempt: attempt + 1,
                        },
                    );
                }
            },
            Ev::CacheInvalidate {
                batch,
                key,
                version,
            } => {
                self.policy
                    .on_cache_invalidate(&mut self.core, now, batch, key, version);
            }
            Ev::OperatorDetect { sw } => {
                // For client schemes (a cross-applied plan) there is
                // nothing to reroute.
                if let Ok(affected) = self.policy.fail_operator(sw) {
                    if self.core.control_log().is_some() {
                        let rec = self.fault_audit(now, "operator_fail", sw, &affected, false);
                        if let Some(log) = self.core.control_log() {
                            log.operator_detected(rec, &affected);
                        }
                    }
                }
            }
        }
    }
}

/// Replica-mode parallel execution: each [`Cluster`] instance is one
/// shard's SPMD replica (`Core::enable_replica`); dispatch is the same
/// [`World`] impl, and events route to the shard of the device whose
/// state their handler touches (`Core::shard_of_event`). A copy's handle
/// means nothing in another replica's slab, so a copy event crosses
/// shards with its token and is re-parked on arrival.
impl<D: DeviceProbe + Send> ParallelWorld for Cluster<D> {
    type Event = Ev;
    type Parcel = (Ev, Option<ServerToken>);

    fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        <Self as World>::handle(self, now, event, queue);
    }

    fn shard_of(&self, event: &Ev) -> ShardId {
        ShardId(self.core.shard_of_event(event))
    }

    fn lookahead(&self) -> SimDuration {
        self.core.replica_lookahead()
    }

    fn export(&mut self, mut event: Ev) -> (Ev, Option<ServerToken>) {
        let token = event.copy_mut().map(|copy| self.core.copies.remove(*copy));
        (event, token)
    }

    fn import(&mut self, (mut event, token): (Ev, Option<ServerToken>)) -> Ev {
        if let (Some(copy), Some(token)) = (event.copy_mut(), token) {
            *copy = self.core.copies.insert(token);
        }
        event
    }
}

impl Ev {
    /// The handle of the copy a per-copy event refers to.
    fn copy_mut(&mut self) -> Option<&mut CopyId> {
        match self {
            Ev::ServerArrive { copy }
            | Ev::ServerDone { copy, .. }
            | Ev::ClientReceive { copy, .. } => Some(copy),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use netrs_faults::{AvailabilityStats, FaultPlan, LinkRef, RetryPolicy, TimedFault};
    use netrs_netdev::HotCacheConfig;

    use super::*;
    use crate::config::{Scheme, WriteConsistency};

    fn ms(t: u64) -> SimDuration {
        SimDuration::from_millis(t)
    }

    /// A plan that takes every way a sent copy can be lost: a crash of a
    /// server slowed down to build a queue first (arrivals dropped at the
    /// dead server, its queue drained, copies in service turned into
    /// ghosts), a loss burst (copies lost at `ServerArrive` and
    /// `ClientReceive`), and a dead server uplink (request and reply paths
    /// severed, at the client or at the RSNode). A tight timeout with one
    /// retry abandons requests whose straggler copies are then dropped as
    /// duplicates, at the server or the client.
    fn lossy_plan(cfg: &SimConfig) -> FaultPlan {
        let cut = Cluster::new(cfg.clone()).core.server_hosts[2].0;
        let uplink = LinkRef::HostUplink { host: cut };
        let at = |t, fault| TimedFault { at: ms(t), fault };
        FaultPlan {
            events: vec![
                at(
                    150,
                    FaultEvent::ServerSlowdown {
                        server: 1,
                        factor: 0.05,
                    },
                ),
                at(200, FaultEvent::ServerCrash { server: 1 }),
                at(400, FaultEvent::ServerRecover { server: 1 }),
                at(500, FaultEvent::LinkFail { link: uplink }),
                at(550, FaultEvent::LinkRecover { link: uplink }),
                at(
                    600,
                    FaultEvent::PacketLossBurst {
                        probability: 0.02,
                        duration: ms(100),
                    },
                ),
            ],
            retry: RetryPolicy {
                timeout: ms(5),
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..FaultPlan::default()
        }
    }

    /// Runs `cfg` to the end in 10 ms slices, checking at every slice that
    /// the request table stays the size of what is live — asserted, not
    /// `debug_assert`ed, so release builds check it too — and returns the
    /// drained cluster with every copy's slab slot freed.
    fn drain(cfg: SimConfig) -> Cluster {
        let requests = cfg.requests;
        let mut engine = Cluster::primed_engine(cfg);
        let mut t = SimTime::ZERO;
        while !engine.queue().is_empty() {
            t += ms(10);
            engine.run_until(t);
            let table = engine.world().request_table_stats();
            assert!(
                table.slots <= 4 * table.live_high_water.max(16),
                "at {t}: {table:?}"
            );
            assert!(table.overflow_high_water <= table.live_high_water);
        }
        let cluster = engine.into_world();
        assert!(cluster.drained(), "simulation ended with work outstanding");
        assert_eq!(cluster.issued(), requests);
        assert_eq!(
            cluster.copies_in_flight(),
            0,
            "a delivered or lost copy kept its slab slot"
        );
        cluster
    }

    fn availability(cluster: &Cluster) -> AvailabilityStats {
        cluster.core.availability().expect("fault plan is active")
    }

    /// The benchmark's `rw-faults-netrs-tor` shape at test scale:
    /// stragglers pile up behind a crashed server and a loss burst, and
    /// the run drains.
    #[test]
    fn request_table_follows_what_is_live_through_faults_and_drains() {
        let mut cfg = SimConfig::small();
        cfg.scheme = Scheme::NetRsToR;
        cfg.seed = 3;
        cfg.requests = 20_000;
        cfg.utilization = 0.7;
        cfg.write_fraction = 0.1;
        cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
        cfg.hot_cache = Some(HotCacheConfig {
            capacity: 64,
            ..HotCacheConfig::default()
        });
        cfg.faults = Some(lossy_plan(&cfg));
        let cluster = drain(cfg);
        let table = cluster.request_table_stats();
        assert!(
            table.overflow_high_water > 0,
            "no straggler was ever lapped: {table:?}"
        );
        let lost = availability(&cluster);
        assert!(
            lost.copies_dropped > 0 && lost.duplicate_drops > 0,
            "{lost:?}"
        );
    }

    /// Chain writes hand each hop on as a new copy and free the old one;
    /// a crash or a dead uplink mid-chain loses the hop.
    #[test]
    fn chain_writes_free_every_hop_through_faults() {
        let mut cfg = SimConfig::small();
        cfg.scheme = Scheme::CliRs;
        cfg.seed = 4;
        cfg.requests = 20_000;
        cfg.utilization = 0.7;
        cfg.write_fraction = 0.2;
        cfg.write_consistency = WriteConsistency::Chain;
        cfg.faults = Some(lossy_plan(&cfg));
        let cluster = drain(cfg);
        let rw = cluster
            .stats(SimTime::ZERO, 0)
            .rw
            .expect("chain runs report writes");
        assert!(rw.writes_completed > 100, "{rw:?}");
        let lost = availability(&cluster);
        assert!(
            lost.copies_dropped > 0 && lost.duplicate_drops > 0,
            "{lost:?}"
        );
    }

    /// CliRS-R95 duplicates are copies of their own: the straggler of a
    /// pair, and the copies of an abandoned read, are freed on arrival.
    #[test]
    fn r95_duplicates_free_their_copies_through_faults() {
        let mut cfg = SimConfig::small();
        cfg.scheme = Scheme::CliRsR95;
        cfg.seed = 5;
        cfg.requests = 20_000;
        cfg.utilization = 0.5;
        cfg.faults = Some(lossy_plan(&cfg));
        let cluster = drain(cfg);
        assert!(cluster.core.duplicates > 500, "{}", cluster.core.duplicates);
        let lost = availability(&cluster);
        assert!(
            lost.copies_dropped > 0 && lost.duplicate_drops > 0,
            "{lost:?}"
        );
    }
}
