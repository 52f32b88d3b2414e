//! In-network replica selection: the NetRS-ToR and NetRS-ILP schemes.
//!
//! Both run the same data plane — requests detour through an RSNode whose
//! accelerator picks the replica, responses detour back through it so a
//! clone can update the selector — and differ only in how the controller
//! places RSNodes: NetRS-ToR pins one to every client ToR, NetRS-ILP
//! optimizes placement (from an oracle traffic matrix, or periodically
//! from ToR monitor measurements). [`InNetwork`] is the policy object of
//! both.

use std::collections::BTreeSet;

use netrs::{
    ControllerConfig, NetRsController, PlanConstraints, PlanDiff, PlanSolveStats, Rsp,
    TrafficGroups, TrafficMatrix,
};
use netrs_netdev::{
    Accelerator, CacheStats, GroupId, IngressAction, Monitor, NetRsRules, PacketMeta, RsOperator,
};
use netrs_selection::{C3Selector, Feedback, ReplicaSelector};
use netrs_simcore::{
    DeviceCounter, DeviceId, DeviceProbe, EventQueue, NoDeviceProbe, SimDuration, SimRng, SimTime,
};
use netrs_topology::{FatTree, HostId, SwitchId};
use netrs_wire::{MagicField, RsnodeId};

use crate::cluster::{Ev, ReqId};
use crate::config::{PlanSource, SimConfig};
use crate::dense::SwitchTable;
use crate::fabric::{HopSink, Lead};
use crate::obs::{CacheRecord, PlanEventRecord, SolveRecord};
use crate::server::{CopyId, ServerToken};
use crate::state::{flow_hash, Core, REQ_BYTES, RESP_BYTES};

use super::{ControlStats, NotInNetwork, ReplyInfo, SchemePolicy};

/// Builds the decision-audit record for a plan event, from the diff the
/// solve produced and the plan it installed.
fn plan_record(
    t_ns: u64,
    trigger: &str,
    switch: Option<u32>,
    stats: Option<PlanSolveStats>,
    diff: PlanDiff,
    plan: &Rsp,
    rules_recompiled: u32,
) -> PlanEventRecord {
    PlanEventRecord {
        t_ns,
        trigger: trigger.into(),
        switch,
        solve: stats.map(|s| SolveRecord {
            greedy: s.greedy,
            variables: s.variables as u64,
            constraints: s.constraints as u64,
            lp_iterations: s.lp_iterations,
            branch_nodes: s.branch_nodes,
            objective: s.objective,
            bound: s.bound,
            proven_optimal: plan.proven_optimal,
        }),
        reassigned: diff.reassigned,
        newly_assigned: diff.newly_assigned,
        unassigned: diff.unassigned,
        rsnodes_added: diff.rsnodes_added.iter().map(|sw| sw.0).collect(),
        rsnodes_removed: diff.rsnodes_removed.iter().map(|sw| sw.0).collect(),
        rsnodes: plan.rsnodes().len() as u32,
        drs_groups: plan.drs.len() as u32,
        rules_recompiled,
    }
}

/// The traffic groups of the run's clients at the configured granularity.
fn client_groups<D: DeviceProbe>(core: &Core<D>) -> TrafficGroups {
    TrafficGroups::build(&core.fabric.topo, &core.client_hosts, core.cfg.granularity)
}

/// The oracle traffic matrix: every client's configured rate, spread over
/// the servers.
fn oracle_traffic<D: DeviceProbe>(core: &Core<D>, groups: &TrafficGroups) -> TrafficMatrix {
    TrafficMatrix::oracle(
        &core.fabric.topo,
        groups,
        &core.client_rates(),
        &core.server_hosts,
    )
}

/// Runs a read freshly issued by `client`, bound for its `backup`
/// replica's host, through the ingress pipeline of the client's ToR.
fn tor_ingress(tor: &NetRsRules, client: HostId, rgid: u32, backup: HostId) -> IngressAction {
    let mut pkt = PacketMeta::Request {
        rid: RsnodeId(0),
        magic: MagicField::REQUEST,
        rgid,
        src_host: client.0,
        dst_host: backup.0,
    };
    tor.ingress(&mut pkt, true)
}

/// The placement instance an oracle-planned NetRS-ILP run solves at
/// start-up, for planner tests and probes that want the run's own
/// instance without running it.
pub struct OraclePlacement {
    /// The run's topology.
    pub topo: FatTree,
    /// Traffic groups of the run's clients.
    pub groups: TrafficGroups,
    /// The oracle traffic matrix over those groups.
    pub traffic: TrafficMatrix,
    /// The finalized plan constraints.
    pub constraints: PlanConstraints,
}

impl OraclePlacement {
    /// Builds the instance of `cfg` from the run's own host placement
    /// and client rates; no plan is solved.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`SimConfig::validate`]).
    #[must_use]
    pub fn of(cfg: SimConfig) -> Self {
        let (core, _root) = crate::cluster::build_core(cfg, 1, NoDeviceProbe);
        let groups = client_groups(&core);
        let traffic = oracle_traffic(&core, &groups);
        OraclePlacement {
            groups,
            traffic,
            constraints: core.cfg.plan.clone(),
            topo: core.fabric.topo,
        }
    }
}

/// Operator lists of the coherence batches in flight ([`Ev::CacheInvalidate`]
/// carries a batch id, not the list, so the event stays small). A
/// delivered batch's emptied list is reused by a later write, so once as
/// many lists exist as batches are ever in flight together the fan-out
/// stops allocating.
#[derive(Default)]
struct CoherenceBatches {
    /// Operator switches per batch id, ascending.
    ops: Vec<Vec<SwitchId>>,
    /// Ids whose batch was delivered.
    free: Vec<u32>,
    /// `(arrival latency, id)` of the batches the write being fanned out
    /// has opened so far; empty between writes. A handful at most (three
    /// on a healthy fat-tree), so a scan beats any map.
    open: Vec<(SimDuration, u32)>,
}

impl CoherenceBatches {
    /// Opens a batch of the current write for `latency` on a recycled
    /// operator list.
    fn open(&mut self, latency: SimDuration) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            self.ops.push(Vec::new());
            (self.ops.len() - 1) as u32
        });
        self.open.push((latency, id));
        id
    }

    /// Adds `op` to the current write's batch for `latency`, opening it
    /// if this is the first such operator.
    fn join(&mut self, latency: SimDuration, op: SwitchId) {
        let id = match self.open.iter().find(|&&(l, _)| l == latency) {
            Some(&(_, id)) => id,
            None => self.open(latency),
        };
        self.ops[id as usize].push(op);
    }

    /// A copy of the batches the current write has open.
    fn template(&self) -> FanoutTemplate {
        let open = self.open.iter();
        open.map(|&(latency, id)| (latency, self.ops[id as usize].clone()))
            .collect()
    }
}

/// The batches a write from one client rack fans out into on a healthy
/// fabric, in opening order: `(arrival latency, operators ascending)`.
pub(crate) type FanoutTemplate = Vec<(SimDuration, Vec<SwitchId>)>;

#[cfg(test)]
thread_local! {
    /// Test switch: every write runs the fan-out loop, as if the memo did
    /// not exist (the reference a memoized run must match byte for byte).
    static NO_FANOUT_MEMO: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The policy object of both in-network schemes: the controller with its
/// installed plan, the deployed switch rules, the live and retired
/// operators, and the ToR monitors. NetRS-ToR and NetRS-ILP differ only
/// in the placement source handed to `new`: which plan it installs and
/// whether the re-plan timer runs.
pub(crate) struct InNetwork {
    groups: TrafficGroups,
    /// Traffic group of each client, by client index: the id its ToR's
    /// monitor counts the client's responses under. (Not the request's
    /// replication group — that id space belongs to the ring.)
    group_of_client: Vec<GroupId>,
    controller: NetRsController,
    rules: SwitchTable<NetRsRules>,
    /// What `rules` made of each client's last freshly issued read at its
    /// ToR; `None` until the client issues one under the current rules.
    /// Exact only while `NetRsRules::ingress_request` matches on
    /// `src_host` alone (of a host-facing request with an unset RID), and
    /// while [`InNetwork::redeploy`] is the only way the rules change.
    ingress_memo: Vec<Option<IngressAction>>,
    operators: SwitchTable<RsOperator>,
    monitors: SwitchTable<Monitor>,
    /// Retired accelerators kept so end-of-run statistics still see the
    /// work they performed.
    retired_operators: Vec<RsOperator>,
    /// Per-operator busy counter at the last overload check, indexed by
    /// switch id (0 until first checked).
    last_accel_busy: Vec<u128>,
    /// Switches whose operator fail-stopped (fault plan) and has not
    /// recovered: packets steered there blackhole until the controller
    /// detects the failure and reroutes.
    dead_operators: BTreeSet<SwitchId>,
    /// The bootstrap plan's audit payload, held until `prime` (the first
    /// hook with mutable core access) can emit it. `None` afterwards.
    bootstrap: Option<(PlanDiff, Option<PlanSolveStats>)>,
    /// Coherence fan-out batches between issue and arrival.
    batches: CoherenceBatches,
    /// What the fan-out loop of [`InNetwork::on_write_issued`] made of the
    /// last write from each client rack (by ToR id); `None` until the rack
    /// writes under the current operator set. Exact only on a healthy
    /// fabric — there a message's latency is `hops × link_latency`, a
    /// function of the client's rack and the operator's switch alone —
    /// and while [`InNetwork::operators_changed`] follows every change to
    /// the live operator set.
    fanout_memo: Vec<Option<FanoutTemplate>>,
    /// How often the controller re-plans from monitor measurements;
    /// `None` when the initial plan stands for the whole run.
    replan_every: Option<SimDuration>,
}

impl InNetwork {
    /// Builds the control plane with its initial plan. `optimized` is the
    /// placement source of NetRS-ILP, `None` for NetRS-ToR: the oracle ILP
    /// placement under [`PlanSource::Oracle`]; otherwise the
    /// every-client-ToR plan — for good (NetRS-ToR), or as the bootstrap
    /// that periodic re-plans replace ([`PlanSource::Monitored`]).
    pub(crate) fn new<D: DeviceProbe>(
        core: &Core<D>,
        root: &SimRng,
        optimized: Option<PlanSource>,
    ) -> Self {
        let cfg = &core.cfg;
        let groups = client_groups(core);
        let mut controller = NetRsController::new(
            core.fabric.topo.clone(),
            ControllerConfig {
                constraints: cfg.plan.clone(),
            },
        );
        let bootstrap = if optimized == Some(PlanSource::Oracle) {
            let traffic = oracle_traffic(core, &groups);
            let (diff, stats) = controller.plan_with_stats(&groups, &traffic, cfg.plan_solver);
            (diff, Some(stats))
        } else {
            let rsp = Rsp::tor_plan(&groups);
            let diff = PlanDiff::between(&Rsp::default(), &rsp);
            controller.install(rsp);
            (diff, None)
        };
        let num_switches = core.fabric.topo.num_switches();
        let rules = SwitchTable::from_map(num_switches, controller.deploy(&groups));
        let group_of_client: Vec<GroupId> = core
            .client_hosts
            .iter()
            .map(|&h| {
                groups
                    .group_of_host(h)
                    .expect("clients always have a traffic group")
            })
            .collect();
        let mut net = InNetwork {
            groups,
            ingress_memo: vec![None; group_of_client.len()],
            group_of_client,
            controller,
            rules,
            operators: SwitchTable::new(num_switches),
            monitors: SwitchTable::new(num_switches),
            retired_operators: Vec::new(),
            last_accel_busy: vec![0; num_switches as usize],
            dead_operators: BTreeSet::new(),
            bootstrap: Some(bootstrap),
            batches: CoherenceBatches::default(),
            fanout_memo: vec![None; core.fabric.topo.num_tors() as usize],
            replan_every: match optimized {
                Some(PlanSource::Monitored { interval }) => Some(interval),
                _ => None,
            },
        };
        net.rebuild_operators(cfg, root.clone());

        // Monitors sit on every ToR with attached clients.
        for info in net.groups.iter() {
            let marker = net.controller.marker_of_rack(info.tor.0);
            net.monitors
                .get_or_insert_with(info.tor, || Monitor::new(marker));
        }
        net
    }

    /// (Re)creates operator state for the current plan: new RSNodes start
    /// with fresh selectors (the paper's §II transient), retained RSNodes
    /// keep their local information.
    fn rebuild_operators(&mut self, cfg: &SimConfig, root: SimRng) {
        let rsnodes = self.controller.current_plan().rsnodes();
        // Each RSNode's C3 concurrency estimate is the RSNode count: the
        // plan's operators contend for the same servers.
        let n = rsnodes.len().max(1) as f64;
        let mut next = SwitchTable::new(self.operators.capacity());
        for sw in rsnodes {
            let op = self.operators.remove(sw).unwrap_or_else(|| {
                let mut selector = C3Selector::with_servers(
                    cfg.c3,
                    root.fork(30_000 + u64::from(sw.0)),
                    cfg.servers,
                );
                selector.set_concurrency(n);
                let op = RsOperator::new(selector, cfg.accelerator);
                // Fresh RSNodes start with an empty hot-key cache when
                // one is configured (retained RSNodes keep theirs).
                match cfg.hot_cache {
                    Some(c) => op.with_cache(c),
                    None => op,
                }
            });
            next.insert(sw, op);
        }
        // Keep retired accelerators so end-of-run statistics still see
        // the work they performed. The drain runs in ascending switch
        // order, which fixes the float summation order in
        // `control_stats`.
        self.retired_operators
            .extend(self.operators.drain().map(|(_, op)| op));
        self.operators = next;
        self.operators_changed();
    }

    /// The live operator set changed (a re-plan, a crash, a recovery):
    /// the memoized fan-outs named the old set.
    fn operators_changed(&mut self) {
        self.fanout_memo.fill(None);
    }

    /// Sends one coherence message from `client_host` to every live
    /// operator (ascending switch order), each over the real — possibly
    /// severed or degraded — network, joining messages that arrive at the
    /// same instant into one open batch.
    fn fan_out<D: DeviceProbe>(
        operators: &SwitchTable<RsOperator>,
        batches: &mut CoherenceBatches,
        core: &mut Core<D>,
        client_host: HostId,
        hash: u64,
    ) {
        for op in operators.keys() {
            let Some(latency) = core.fabric.latency(client_host, op, hash) else {
                // No live path: the message is lost and any cached entry
                // at `op` goes stale until evicted or re-admitted.
                core.fabric
                    .devices
                    .bump(DeviceId::Switch(op.0), DeviceCounter::Drop, 1);
                continue;
            };
            batches.join(latency, op);
        }
    }

    /// Compiles the controller's current plan into the switches' rules —
    /// the one place they change, so the memoized ingress verdicts go
    /// with the rules they were computed from.
    fn redeploy(&mut self) {
        self.rules
            .reset_from_map(self.controller.deploy(&self.groups));
        self.ingress_memo.fill(None);
    }

    /// A fail-stopped operator swallows a request that reached it at
    /// `arrived`: the copy is lost, and the walk that led it there.
    fn blackhole<D: DeviceProbe>(core: &mut Core<D>, op: SwitchId, req: ReqId, arrived: SimTime) {
        core.fabric
            .devices
            .bump(DeviceId::Switch(op.0), DeviceCounter::Drop, 1);
        core.fabric.forget_steer(req.0, arrived);
        core.drop_copy(req.0);
    }

    /// Sends a request that reached the retired operator at `from` at
    /// `arrived` on to its backup replica.
    fn forward_to_backup<D: DeviceProbe>(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        from: SwitchId,
        arrived: SimTime,
        queue: &mut EventQueue<Ev>,
    ) {
        let Some(state) = core.requests.get_mut(req.0) else {
            // A straggler of a request already resolved: its walk ends here.
            core.fabric.forget_steer(req.0, arrived);
            return;
        };
        state.copies += 1;
        let backup = state.backup;
        // The hop to the retired RSNode was pure network steering.
        let token = ServerToken::new(
            req,
            backup,
            state.client,
            state.rgid,
            false,
            state.sent_at,
            now,
            SimDuration::ZERO,
            now,
            None,
        );
        let copy = core.copies.insert(token);
        let Some(latency) = core.fabric.send(
            now,
            from,
            core.server_hosts[backup.0 as usize],
            flow_hash(req, 13),
            HopSink::Copy(copy),
            REQ_BYTES,
            // Any time spent at the retired operator belongs to its
            // switch; then the copy heads for the backup replica.
            Some(Lead::Steer(DeviceId::Switch(from.0), req.0, arrived)),
        ) else {
            core.lose_copy(copy); // no live path to the backup
            return;
        };
        queue.schedule_after(latency, Ev::ServerArrive { copy });
        core.fabric
            .devices
            .bump(DeviceId::Switch(from.0), DeviceCounter::Drop, 1);
    }
}

impl<D: DeviceProbe> SchemePolicy<D> for InNetwork {
    /// Schedules the control-plane timers — the re-plan timer when the
    /// placement is re-solved from monitor measurements, the overload check
    /// when the config has an overload policy — and emits the bootstrap
    /// plan's decision-audit record, once, if a control sink is attached
    /// (this is the first hook with mutable core access; the plan itself
    /// was computed at construction, before sim time started).
    fn prime(&mut self, core: &mut Core<D>, queue: &mut EventQueue<Ev>) {
        if let Some(interval) = self.replan_every {
            queue.schedule_after(interval, Ev::Replan);
        }
        if let Some(policy) = core.cfg.overload {
            queue.schedule_after(policy.interval, Ev::OverloadCheck);
        }
        let Some((diff, stats)) = self.bootstrap.take() else {
            return;
        };
        if core.control_log().is_some() {
            let rec = plan_record(
                0,
                "initial",
                None,
                stats,
                diff,
                self.controller.current_plan(),
                core.fabric.topo.num_switches(),
            );
            if let Some(log) = core.control_log() {
                log.plan_event(rec);
            }
        }
    }

    /// Sends a freshly issued read into the network: the client's ToR
    /// classifies it and either hands it to the local accelerator,
    /// forwards it toward its RSNode, or (Degraded Replica Selection)
    /// lets it through to the client-chosen backup.
    fn steer_read(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        let state = core.requests.get_mut(req.0).expect("request just created");
        let client_idx = state.client;
        let client_host = core.client_hosts[client_idx as usize];
        let tor = core.fabric.topo.tor_of_host(client_host);
        // The ToR's verdict on a client's reads only changes with the
        // rules: run the pipeline once per client and redeploy.
        let ingress = || {
            let backup_host = core.server_hosts[state.backup.0 as usize];
            tor_ingress(&self.rules[tor], client_host, rgid, backup_host)
        };
        let action = *self.ingress_memo[client_idx as usize].get_or_insert_with(ingress);
        debug_assert_eq!(action, ingress(), "stale ingress memo, client {client_idx}");
        match action {
            IngressAction::Forward => {
                // Degraded Replica Selection: straight to the backup.
                state.copies += 1;
                let backup = state.backup;
                let token = ServerToken::new(
                    req,
                    backup,
                    state.client,
                    state.rgid,
                    false,
                    now,
                    now,
                    SimDuration::ZERO,
                    now,
                    None,
                );
                let copy = core.copies.insert(token);
                let Some(latency) = core.fabric.send(
                    now,
                    client_host,
                    core.server_hosts[backup.0 as usize],
                    flow_hash(req, 7),
                    HopSink::Copy(copy),
                    REQ_BYTES,
                    Some(Lead::Hold(DeviceId::Client(client_idx), now)),
                ) else {
                    core.lose_copy(copy); // partitioned by link faults
                    return;
                };
                queue.schedule_after(latency, Ev::ServerArrive { copy });
                core.fabric
                    .devices
                    .bump(DeviceId::Switch(tor.0), DeviceCounter::Clamp, 1);
            }
            IngressAction::ToAccelerator | IngressAction::ForwardTowardRsnode(_) => {
                // The RSNode is this very ToR, or the one the rules name.
                let op = match action {
                    IngressAction::ForwardTowardRsnode(rid) => self
                        .controller
                        .switch_of_rsnode(rid)
                        .expect("deployed rules only reference live operators"),
                    _ => tor,
                };
                let Some(latency) = core.fabric.send(
                    now,
                    client_host,
                    op,
                    flow_hash(req, 11),
                    HopSink::Steer(req.0),
                    REQ_BYTES,
                    // Held at the client since issue: a retry's walk
                    // covers the timeout it waited out.
                    Some(Lead::Hold(DeviceId::Client(client_idx), state.sent_at)),
                ) else {
                    core.drop_copy(req.0); // no live path to the RSNode
                    return;
                };
                queue.schedule_after(latency, Ev::RsnodeArrive { req, op });
            }
            IngressAction::CloneToAcceleratorAndForward => {
                unreachable!("requests are never cloned")
            }
        }
    }

    fn on_rsnode_arrive(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        op: SwitchId,
        queue: &mut EventQueue<Ev>,
    ) {
        if self.dead_operators.contains(&op) {
            // Fail-stopped operator (fault plan): the packet blackholes;
            // the client's timeout machinery recovers the request.
            Self::blackhole(core, op, req, now);
            return;
        }
        let Some(operator) = self.operators.get_mut(op) else {
            // The operator was retired by a re-plan while the request was
            // in flight; fall back to the client's backup replica (DRS
            // semantics for in-flight stragglers).
            self.forward_to_backup(core, now, req, op, now, queue);
            return;
        };
        // In-switch hot-key cache: a hit answers the read at the switch
        // itself — zero server hops, the accelerator never sees it. The
        // lookup happens only on live, current operators (dead and
        // retired ones were handled above).
        if let Some(cache) = operator.cache.as_mut() {
            let meta = core
                .requests
                .get(req.0)
                .map(|s| (u64::from(s.key), s.sent_at, s.client));
            if let Some((key, sent_at, client)) = meta {
                if let Some(entry) = cache.lookup(key) {
                    // Serve from the switch; a version behind the store's
                    // committed one is a stale read (a coherence message
                    // was lost or is still in flight) and is counted.
                    let stale = entry.version < core.versions.get(key);
                    if stale {
                        cache.note_stale();
                    }
                    let sw = DeviceId::Switch(op.0);
                    core.fabric.devices.bump(sw, DeviceCounter::CacheHit, 1);
                    if stale {
                        core.fabric.devices.bump(sw, DeviceCounter::CacheStale, 1);
                    }
                    let state = core.requests.get_mut(req.0).expect("present above");
                    state.copies += 1;
                    let origin = entry.origin;
                    let token = ServerToken::new(
                        req,
                        origin,
                        client,
                        state.rgid,
                        false,
                        sent_at,
                        now,
                        SimDuration::ZERO,
                        now,
                        None,
                    );
                    let copy = core.copies.insert(token);
                    let Some(latency) = core.fabric.send(
                        now,
                        op,
                        core.client_hosts[client as usize],
                        flow_hash(req, 23),
                        HopSink::Copy(copy),
                        RESP_BYTES,
                        // Steer hops end at this switch; the cached
                        // response heads straight for the client.
                        Some(Lead::Steer(sw, req.0, now)),
                    ) else {
                        core.lose_copy(copy); // reply path to the client severed
                        return;
                    };
                    let status = netrs_kvstore::ServerStatus::default();
                    queue.schedule_after(latency, Ev::ClientReceive { copy, status });
                    return;
                }
                core.fabric
                    .devices
                    .bump(DeviceId::Switch(op.0), DeviceCounter::CacheMiss, 1);
            }
        }
        let (done_at, waited) = operator.accel.schedule_selection_timed(now);
        queue.schedule_at(
            done_at,
            Ev::Select {
                req,
                op,
                arrived: now,
                waited,
            },
        );
    }

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
        if self.dead_operators.contains(&op) {
            // The operator died while the selection was in flight.
            Self::blackhole(core, op, req, arrived);
            return;
        }
        let Some(operator) = self.operators.get_mut(op) else {
            self.forward_to_backup(core, now, req, op, arrived, queue);
            return;
        };
        let Some(state) = core.requests.get_mut(req.0) else {
            // A straggler of a request already resolved: its walk ends here.
            core.fabric.forget_steer(req.0, arrived);
            return;
        };
        let replicas = core.ring.groups().replicas(state.rgid);
        let target = operator.selector.select(replicas, now);
        operator.selector.on_send(target, now);
        state.primary = Some(target);
        state.copies += 1;
        let token = ServerToken::new(
            req,
            target,
            state.client,
            state.rgid,
            false,
            state.sent_at,
            arrived,
            waited,
            now,
            Some(op),
        );
        let accel = DeviceId::Accelerator(op.0);
        let copy = core.copies.insert(token);
        let Some(latency) = core.fabric.send(
            now,
            op,
            core.server_hosts[target.0 as usize],
            flow_hash(req, 17),
            HopSink::Copy(copy),
            REQ_BYTES,
            // The copy occupied the RSNode from arrival through selection.
            Some(Lead::Steer(accel, req.0, arrived)),
        ) else {
            core.lose_copy(copy); // no live path to the chosen replica
            return;
        };
        queue.schedule_after(latency, Ev::ServerArrive { copy });
        core.fabric.devices.selection(accel, waited);
        core.fabric
            .devices
            .busy(accel, core.cfg.accelerator.service_time);
    }

    fn on_selector_update(&mut self, now: SimTime, op: SwitchId, fb: Feedback) {
        if let Some(operator) = self.operators.get_mut(op) {
            operator.selector.on_response(&fb, now);
        }
    }

    /// The response must traverse its RSNode (§I "Multiple Paths"):
    /// server → RSNode switch → client, with a clone peeled off to the
    /// accelerator at the RSNode. Copies without an RSNode (DRS,
    /// retired-operator fallbacks, writes) go straight back.
    fn route_reply(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        copy: CopyId,
        status: netrs_kvstore::ServerStatus,
        queue: &mut EventQueue<Ev>,
    ) {
        let token = &core.copies[copy];
        // A copy with an RSNode was last sent by that RSNode's selector.
        let (req, server, rsnode_sent_at) = (token.req, token.server, token.copy_sent_at);
        let Some(op) = token.rsnode else {
            core.send_reply_direct(now, copy, status, queue);
            return;
        };
        let Some(state) = core.requests.get(req.0) else {
            core.discard_copy(copy);
            return;
        };
        let key = u64::from(state.key);
        let client_host = core.client_hosts[state.client as usize];
        let server_host = core.server_hosts[server.0 as usize];
        let hash = flow_hash(req, 23);
        let Some(to_rsnode) = core.fabric.latency(server_host, op, hash) else {
            core.lose_copy(copy); // reply path to the RSNode severed
            return;
        };
        let at_rsnode = now + to_rsnode;
        if let Some(operator) = self.operators.get_mut(op) {
            if let Some(cache) = operator.cache.as_mut() {
                // The switch caches what it forwards: populate from the
                // observed response, stamped with the store's committed
                // version so later hits can be checked for staleness.
                let before = cache.stats().evictions;
                cache.admit(key, core.versions.get(key), server);
                let evicted = cache.stats().evictions - before;
                if evicted > 0 {
                    core.fabric.devices.bump(
                        DeviceId::Switch(op.0),
                        DeviceCounter::CacheEvict,
                        evicted,
                    );
                }
            }
            let update_at = operator.accel.schedule_clone(at_rsnode);
            let fb = Feedback {
                server,
                queue_len: status.queue_len,
                service_time: status.service_time(),
                latency: at_rsnode - rsnode_sent_at,
            };
            queue.schedule_at(update_at, Ev::SelectorUpdate { op, fb });
            let accel = DeviceId::Accelerator(op.0);
            core.fabric
                .devices
                .bump(accel, DeviceCounter::CloneUpdate, 1);
            core.fabric
                .devices
                .busy(accel, core.cfg.accelerator.service_time);
        }
        let Some(to_client) = core.fabric.send(
            at_rsnode,
            op,
            client_host,
            hash,
            HopSink::Copy(copy),
            RESP_BYTES,
            Some(Lead::Segment(server_host.into(), now)),
        ) else {
            core.lose_copy(copy); // reply path to the client severed
            return;
        };
        queue.schedule_at(at_rsnode + to_client, Ev::ClientReceive { copy, status });
    }

    /// Monitor accounting: the response leaves the network at the
    /// client's ToR (§IV-D).
    fn on_reply(&mut self, core: &mut Core<D>, _now: SimTime, info: &ReplyInfo) {
        if !info.first_completion || self.monitors.is_empty() {
            return;
        }
        let group = self.group_of_client[info.client as usize];
        let server_rack = core
            .fabric
            .topo
            .rack_of_host(core.server_hosts[info.server.0 as usize]);
        let marker = self.controller.marker_of_rack(server_rack);
        if let Some(m) = self.monitors.get_mut(self.groups.info(group).tor) {
            m.record(group, marker);
        }
    }

    /// §III-C(ii): an operator whose accelerator ran hotter than the
    /// policy's limit over the last window has its traffic groups
    /// degraded to DRS (they recover at the next re-plan, if any).
    fn on_overload_check(&mut self, core: &mut Core<D>, now: SimTime, queue: &mut EventQueue<Ev>) {
        let Some(policy) = core.cfg.overload else {
            return;
        };
        if !core.drained() {
            queue.schedule_after(policy.interval, Ev::OverloadCheck);
        }
        let window_core_ns =
            u128::from(policy.interval.as_nanos()) * u128::from(core.cfg.accelerator.cores);
        let mut overloaded = Vec::new();
        let last_busy = &mut self.last_accel_busy;
        for (sw, op) in self.operators.iter() {
            let busy = op.accel.stats().busy_core_ns;
            let last = std::mem::replace(&mut last_busy[sw.0 as usize], busy);
            // A re-plan may have recreated this operator with a fresh
            // accelerator, putting its counter behind the recorded one.
            let util = busy.saturating_sub(last) as f64 / window_core_ns as f64;
            if util > policy.utilization_limit {
                overloaded.push(sw);
            }
        }
        if overloaded.is_empty() {
            return;
        }
        for sw in overloaded {
            let affected = self.controller.on_operator_overload(sw);
            if !affected.is_empty() {
                core.overload_events += 1;
            }
            if core.control_log().is_some() {
                let diff = PlanDiff {
                    rsnodes_removed: if affected.is_empty() {
                        Vec::new()
                    } else {
                        vec![sw]
                    },
                    unassigned: affected,
                    ..PlanDiff::default()
                };
                let rec = plan_record(
                    now.as_nanos(),
                    "overload",
                    Some(sw.0),
                    None,
                    diff,
                    self.controller.current_plan(),
                    self.rules.capacity(),
                );
                if let Some(log) = core.control_log() {
                    log.plan_event(rec);
                }
            }
        }
        self.redeploy();
    }

    fn fail_operator(&mut self, sw: SwitchId) -> Result<Vec<u32>, NotInNetwork> {
        let affected = self.controller.on_operator_failure(sw);
        self.redeploy();
        Ok(affected)
    }

    /// Fault-plan `OperatorFail`: the accelerator dies silently. Its
    /// operator state retires (the work it performed stays in the
    /// statistics), its hot-key cache is flushed — switch memory is
    /// lost with the switch — and the switch blackholes steered packets
    /// until the controller's detection fires (hence `true`: there is a
    /// detection to schedule).
    fn operator_crashed(&mut self, sw: SwitchId) -> bool {
        if let Some(mut op) = self.operators.remove(sw) {
            if let Some(cache) = op.cache.as_mut() {
                cache.flush();
            }
            self.retired_operators.push(op);
            self.operators_changed();
        }
        self.dead_operators.insert(sw);
        true
    }

    /// Fault-plan `OperatorRecover`: the controller restores the
    /// operator's baseline traffic groups (unless a re-plan reassigned
    /// them meanwhile) and installs a fresh selector — the §II cold-start
    /// transient applies. Returns the restored groups.
    fn recover_operator(&mut self, core: &mut Core<D>, now: SimTime, sw: SwitchId) -> Vec<u32> {
        if !self.dead_operators.remove(&sw) {
            return Vec::new(); // never crashed (or already recovered)
        }
        let restored = self.controller.on_operator_recovery(sw);
        self.redeploy();
        let rsnodes = self.controller.current_plan().rsnodes();
        if !rsnodes.contains(&sw) {
            return restored; // a re-plan moved its groups elsewhere for good
        }
        let cfg = &core.cfg;
        let n = rsnodes.len().max(1) as f64;
        self.operators.get_or_insert_with(sw, || {
            let mut selector = C3Selector::with_servers(
                cfg.c3,
                SimRng::from_seed(
                    cfg.seed ^ 0x0DD0_FA17 ^ (u64::from(sw.0) << 32) ^ now.as_nanos(),
                ),
                cfg.servers,
            );
            selector.set_concurrency(n);
            let op = RsOperator::new(selector, cfg.accelerator);
            // The recovered switch comes back with empty cache memory.
            match cfg.hot_cache {
                Some(c) => op.with_cache(c),
                None => op,
            }
        });
        self.operators_changed();
        restored
    }

    /// A write fanned out to its replica group: emit one coherence
    /// message per live operator (ascending switch order), each riding
    /// the real — possibly lossy — network from the writing client.
    /// Messages that arrive at the same instant travel as one
    /// [`Ev::CacheInvalidate`] batch. The per-message events this
    /// replaces carried consecutive sequence numbers (nothing else
    /// schedules inside this loop), so each same-time run was already
    /// contiguous in the queue's `(time, seq)` order; delivering
    /// it as one event in ascending switch order keeps every loss draw
    /// where it was.
    ///
    /// With a link dead or degraded the per-message flow hash picks each
    /// path, so [`InNetwork::fan_out`] runs for every write. On a healthy
    /// fabric it comes out the same for every write from one rack: it
    /// runs for the rack's first write under the current operator set and
    /// later writes copy its batches — same batches, same operator order,
    /// opened and scheduled in the same order.
    fn on_write_issued(
        &mut self,
        core: &mut Core<D>,
        _now: SimTime,
        req: ReqId,
        key: u64,
        queue: &mut EventQueue<Ev>,
    ) {
        if core.cfg.hot_cache.is_none() {
            return;
        }
        let Some(state) = core.requests.get(req.0) else {
            return;
        };
        let client_host = core.client_hosts[state.client as usize];
        let version = core.versions.get(key);
        let memoize = core.fabric.links_healthy();
        #[cfg(test)]
        let memoize = memoize && !NO_FANOUT_MEMO.get();
        let rack = core.fabric.topo.rack_of_host(client_host) as usize;
        match &self.fanout_memo[rack] {
            Some(template) if memoize => {
                for (latency, ops) in template {
                    let batch = self.batches.open(*latency);
                    self.batches.ops[batch as usize].extend_from_slice(ops);
                }
            }
            _ => {
                let hash = flow_hash(req, 37);
                Self::fan_out(&self.operators, &mut self.batches, core, client_host, hash);
                if memoize {
                    self.fanout_memo[rack] = Some(self.batches.template());
                }
            }
        }
        for (latency, batch) in self.batches.open.drain(..) {
            queue.schedule_after(
                latency,
                Ev::CacheInvalidate {
                    batch,
                    key,
                    version,
                },
            );
        }
    }

    /// A batch of coherence messages arrives ([`Ev::CacheInvalidate`]
    /// mechanics): per operator, ascending, one loss draw, then the
    /// cache applies the write.
    fn on_cache_invalidate(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        batch: u32,
        key: u64,
        version: u32,
    ) {
        let InNetwork {
            batches, operators, ..
        } = self;
        for op in batches.ops[batch as usize].drain(..) {
            let counter = if core.packet_lost(now) {
                // The coherence message is lost: the cached entry stays
                // behind, stale, until evicted or re-admitted.
                DeviceCounter::Drop
            } else if operators
                .get_mut(op)
                .and_then(|o| o.cache.as_mut())
                .is_some_and(|cache| cache.apply_write(key, version))
            {
                DeviceCounter::CacheInvalidate
            } else {
                // No entry for the key — or no operator: dead and retired
                // ones were removed from the live table.
                continue;
            };
            core.fabric.devices.bump(DeviceId::Switch(op.0), counter, 1);
        }
        batches.free.push(batch);
    }

    /// Emits one end-of-run `cache` control record per live operator
    /// (ascending switch order) plus one aggregate for retired
    /// operators, when a cache and a control sink are both configured.
    fn audit_caches(&mut self, core: &mut Core<D>, now: SimTime) {
        if core.cfg.hot_cache.is_none() || core.control_log().is_none() {
            return;
        }
        let t_ns = now.as_nanos();
        let mut recs: Vec<CacheRecord> = self
            .operators
            .iter()
            .filter_map(|(sw, opr)| {
                let c = opr.cache.as_ref()?;
                let s = c.stats();
                Some(CacheRecord {
                    t_ns,
                    switch: Some(sw.0),
                    len: c.len() as u64,
                    hits: s.hits,
                    misses: s.misses,
                    stale_hits: s.stale_hits,
                    evictions: s.evictions,
                    invalidations: s.invalidations,
                })
            })
            .collect();
        let mut retired = CacheStats::default();
        let mut any_retired = false;
        for opr in &self.retired_operators {
            if let Some(c) = &opr.cache {
                any_retired = true;
                retired.absorb(&c.stats());
            }
        }
        if any_retired {
            recs.push(CacheRecord {
                t_ns,
                switch: None,
                len: 0,
                hits: retired.hits,
                misses: retired.misses,
                stale_hits: retired.stale_hits,
                evictions: retired.evictions,
                invalidations: retired.invalidations,
            });
        }
        if let Some(log) = core.control_log() {
            for rec in recs {
                log.cache(rec);
            }
        }
    }

    /// NetRS-ILP under [`PlanSource::Monitored`]: re-solves the placement
    /// from the ToR monitors' last window and redeploys it.
    fn on_replan(&mut self, core: &mut Core<D>, now: SimTime, queue: &mut EventQueue<Ev>) {
        if core.issued >= core.cfg.requests {
            return; // wind down with the workload
        }
        let interval = self
            .replan_every
            .expect("Replan is only scheduled when the placement is re-solved periodically");
        queue.schedule_after(interval, Ev::Replan);
        // The monitor table iterates in ascending switch order, so
        // the traffic matrix accumulates rates in a run-independent
        // float order.
        let snapshots: Vec<_> = self
            .monitors
            .iter_mut()
            .map(|(_, m)| m.snapshot(now))
            .collect();
        let traffic = TrafficMatrix::from_snapshots(self.groups.len(), &snapshots)
            .expect("monitors count under the traffic groups of their own ToR");
        // Windows stream out even when the re-plan below is skipped:
        // the control stream sees every snapshot the monitors took.
        if let Some(log) = core.control_log() {
            for snap in &snapshots {
                log.snapshot(snap);
            }
        }
        if traffic.total() <= 0.0 {
            return; // no signal yet
        }
        let (diff, stats) =
            self.controller
                .plan_with_stats(&self.groups, &traffic, core.cfg.plan_solver);
        self.redeploy();
        self.rebuild_operators(
            &core.cfg,
            SimRng::from_seed(core.cfg.seed ^ 0xFEED_F00D ^ now.as_nanos()),
        );
        core.replans += 1;
        if core.control_log().is_some() {
            let rec = plan_record(
                now.as_nanos(),
                "replan",
                None,
                Some(stats),
                diff,
                self.controller.current_plan(),
                self.rules.capacity(),
            );
            if let Some(log) = core.control_log() {
                log.plan_event(rec);
            }
        }
    }

    fn current_plan(&self) -> Option<&Rsp> {
        Some(self.controller.current_plan())
    }

    fn drs_groups(&self) -> usize {
        self.controller.current_plan().drs.len()
    }

    fn operator_tiers(&self, topo: &FatTree) -> [usize; 3] {
        let mut census = [0usize; 3];
        for sw in self.operators.keys() {
            census[topo.tier(sw).id() as usize] += 1;
        }
        census
    }

    fn accel_busy(&self) -> (u128, usize) {
        let busy = self
            .operators
            .values()
            .chain(self.retired_operators.iter())
            .map(|op| op.accel.stats().busy_core_ns)
            .sum();
        (busy, self.operators.len() + self.retired_operators.len())
    }

    #[cfg(test)]
    fn fanout_templates(&self, core: &mut Core<D>) -> Vec<super::FanoutTemplates> {
        if !core.fabric.links_healthy() {
            return Vec::new(); // nothing memoized is consulted
        }
        let hosts = core.client_hosts.clone();
        let fresh = hosts.into_iter().map(|client| {
            let mut scratch = CoherenceBatches::default();
            Self::fan_out(&self.operators, &mut scratch, core, client, 0);
            let rack = core.fabric.topo.rack_of_host(client) as usize;
            (self.fanout_memo[rack].clone(), scratch.template())
        });
        fresh.collect()
    }

    #[cfg(test)]
    fn ingress_verdicts(&self, core: &Core<D>) -> Vec<super::IngressVerdicts> {
        let fresh = core.client_hosts.iter().map(|&client| {
            let tor = core.fabric.topo.tor_of_host(client);
            tor_ingress(&self.rules[tor], client, 0, core.server_hosts[0])
        });
        self.ingress_memo.iter().copied().zip(fresh).collect()
    }

    fn control_stats(&self, now: SimTime, topo: &FatTree) -> ControlStats {
        let rsnode_census = self.controller.current_plan().tier_census(topo);
        // The table iterates in ascending switch order, so the float
        // summation order below never depends on run-to-run state.
        let live_accels = self.operators.values().map(|op| &op.accel);
        let retired_accels = self.retired_operators.iter().map(|op| &op.accel);
        let accels: Vec<&Accelerator> = live_accels.chain(retired_accels).collect();
        let mean_accel_utilization = if accels.is_empty() {
            0.0
        } else {
            accels.iter().map(|a| a.utilization(now)).sum::<f64>() / accels.len() as f64
        };
        let max_accel_utilization = accels
            .iter()
            .map(|a| a.utilization(now))
            .fold(0.0_f64, f64::max);
        let mean_selection_wait = if accels.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                (accels
                    .iter()
                    .map(|a| a.mean_selection_wait().as_nanos() as u128)
                    .sum::<u128>()
                    / accels.len() as u128) as u64,
            )
        };
        // Cache counters fold over every operator that ever held a
        // cache, live (ascending switch order) then retired.
        let mut cache_totals = CacheStats::default();
        let mut any_cache = false;
        for opr in self.operators.values().chain(self.retired_operators.iter()) {
            if let Some(c) = &opr.cache {
                any_cache = true;
                cache_totals.absorb(&c.stats());
            }
        }
        ControlStats {
            rsnode_census,
            drs_groups: self.controller.current_plan().drs.len(),
            mean_accel_utilization,
            max_accel_utilization,
            mean_selection_wait,
            cache: any_cache.then_some(cache_totals),
        }
    }
}

#[cfg(test)]
mod tests {
    use netrs_faults::{FaultEvent, FaultPlan, LinkRef, TimedFault};
    use netrs_netdev::HotCacheConfig;
    use netrs_topology::LinkSet;

    use super::*;
    use crate::config::{OverloadPolicy, Scheme};
    use crate::Cluster;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    /// A small monitored NetRS-ILP cluster on which the rules and the
    /// live operator set change in every way they can: `victim` (an
    /// RSNode of the every-client-ToR bootstrap plan) fails at 30 ms, is
    /// detected 1 ms later and recovers at 60 ms; the overload check at
    /// 100 ms degrades every operator that saw traffic; the monitors
    /// re-plan at 250 ms.
    fn churning_cluster() -> (SimConfig, SwitchId) {
        let mut cfg = SimConfig::small();
        cfg.scheme = Scheme::NetRsIlp;
        cfg.seed = 7;
        cfg.plan_source = PlanSource::Monitored { interval: MS(250) };
        // Any accelerator that saw traffic counts as overloaded.
        cfg.overload = Some(OverloadPolicy {
            interval: MS(100),
            utilization_limit: 0.001,
        });
        let victim = Cluster::new(cfg.clone())
            .current_plan()
            .expect("NetRS scheme has a plan")
            .rsnodes()
            .into_iter()
            .next()
            .expect("plan has RSNodes");
        cfg.faults = Some(FaultPlan {
            events: vec![
                fault_at(30, FaultEvent::OperatorFail { switch: victim.0 }),
                fault_at(60, FaultEvent::OperatorRecover { switch: victim.0 }),
            ],
            ..FaultPlan::default()
        });
        (cfg, victim)
    }

    fn fault_at(t_ms: u64, fault: FaultEvent) -> TimedFault {
        TimedFault {
            at: MS(t_ms),
            fault,
        }
    }

    /// Every way the rules change — failure detection, operator recovery,
    /// overload degradation, a monitored re-plan — on one cluster, with
    /// every client's memoized ingress verdict checked against a fresh
    /// pipeline run in between.
    #[test]
    fn ingress_memo_follows_every_redeploy() {
        let mut engine = Cluster::primed_engine(churning_cluster().0);

        // Each client reads every ~1.6 ms, so 10 ms past an event every
        // memo has been refilled under the new rules.
        let mut verdicts_at = |t| {
            engine.run_until(SimTime::ZERO + MS(t));
            let verdicts = engine.world().ingress_verdicts();
            assert!(!verdicts.is_empty());
            verdicts
                .into_iter()
                .enumerate()
                .map(|(client, (memo, fresh))| {
                    assert_eq!(memo, Some(fresh), "client {client} at {t} ms");
                    fresh
                })
                .collect::<Vec<_>>()
        };
        let bootstrap = verdicts_at(25);
        let detected = verdicts_at(50); // fail at 30, detected 1 ms later
        let recovered = verdicts_at(90);
        let degraded = verdicts_at(120); // overload check at 100
        let replanned = verdicts_at(270); // re-plan at 250
        assert!(bootstrap.contains(&IngressAction::ToAccelerator));
        assert_ne!(bootstrap, detected, "the victim's groups fall back to DRS");
        assert_eq!(bootstrap, recovered, "and return with it");
        assert!(
            degraded.iter().all(|&v| v == IngressAction::Forward),
            "every operator saw traffic, so every group degrades: {degraded:?}"
        );
        assert!(
            replanned.iter().all(|&v| v != IngressAction::Forward),
            "the re-plan re-homes every group: {replanned:?}"
        );
        engine.run();
        let cluster = engine.into_world();
        assert_eq!(cluster.completed(), cluster.issued());
    }

    /// The churning cluster with writes, a hot-key cache and two link
    /// faults: the ToR–aggregation link the first client's traffic to
    /// another pod crosses triples its latency over 130–150 ms, and that
    /// client's own uplink is dead over 170–190 ms.
    fn churning_cluster_with_writes() -> (SimConfig, SwitchId) {
        let (mut cfg, victim) = churning_cluster();
        cfg.write_fraction = 0.2;
        cfg.hot_cache = Some(HotCacheConfig {
            capacity: 64,
            ..HotCacheConfig::default()
        });
        let (core, _root) = crate::cluster::build_core(cfg.clone(), 1, NoDeviceProbe);
        let topo = &core.fabric.topo;
        let client = core.client_hosts[0];
        let far_tor =
            topo.tor_of_host(HostId((client.0 + topo.num_hosts() / 2) % topo.num_hosts()));
        let up = topo
            .path_host_to_switch(client, far_tor, 0, &LinkSet::new())
            .expect("a healthy fabric routes every pair");
        let uplink = LinkRef::SwitchLink {
            a: up[0].0,
            b: up[1].0,
        };
        let access = LinkRef::HostUplink { host: client.0 };
        let plan = cfg.faults.as_mut().expect("operator faults planned");
        plan.events.extend([
            fault_at(
                130,
                FaultEvent::LinkDegrade {
                    link: uplink,
                    factor: 3.0,
                },
            ),
            fault_at(150, FaultEvent::LinkRecover { link: uplink }),
            fault_at(170, FaultEvent::LinkFail { link: access }),
            fault_at(190, FaultEvent::LinkRecover { link: access }),
        ]);
        (cfg, victim)
    }

    /// Every way the live operator set changes — a crash, a recovery, a
    /// monitored re-plan — and every link fault and recovery in between,
    /// with each rack's memoized coherence fan-out checked against a
    /// fresh run of the fan-out loop for every client.
    #[test]
    fn fanout_memo_follows_every_operator_change() {
        let (cfg, victim) = churning_cluster_with_writes();
        let mut engine = Cluster::primed_engine(cfg);
        // Each client writes every ~8 ms, so 20 ms past a change most
        // racks have fanned out under the new operator set.
        let mut operators_at = |t, healthy: bool| {
            engine.run_until(SimTime::ZERO + MS(t));
            let templates = engine.world_mut().fanout_templates();
            if !healthy {
                assert!(templates.is_empty(), "no memo is consulted at {t} ms");
                return Vec::new();
            }
            let memoized = templates.iter().filter(|(memo, _)| memo.is_some()).count();
            assert!(memoized > 0, "no rack has written by {t} ms");
            for (client, (memo, fresh)) in templates.iter().enumerate() {
                if let Some(memo) = memo {
                    assert_eq!(memo, fresh, "client {client} at {t} ms");
                }
            }
            // The operators a write reaches, whatever the batching.
            let mut reached: Vec<SwitchId> = templates[0]
                .1
                .iter()
                .flat_map(|(_, ops)| ops.iter().copied())
                .collect();
            reached.sort_unstable();
            reached
        };
        let bootstrap = operators_at(28, true);
        let crashed = operators_at(55, true); // failed at 30
        let recovered = operators_at(95, true); // back at 60
        let degraded = operators_at(125, true); // overload check at 100
        operators_at(145, false); // ToR uplink degraded over 130–150
        let relinked = operators_at(165, true);
        operators_at(185, false); // access link dead over 170–190
        let reattached = operators_at(245, true);
        let replanned = operators_at(290, true); // re-plan at 250
        assert!(bootstrap.contains(&victim));
        assert!(
            !crashed.contains(&victim),
            "a dead operator gets no message"
        );
        assert_eq!(bootstrap, recovered);
        assert_eq!(recovered, degraded, "degraded operators stay live");
        assert_eq!(degraded, relinked);
        assert_eq!(relinked, reattached);
        assert_ne!(reattached, replanned, "the re-plan moves the RSNodes");
        engine.run();
        assert!(engine.world().drained());
    }

    /// While a link is dead or degraded the memo is bypassed, and a memo
    /// filled before the fault is still right after it: the run is, byte
    /// for byte, the run with the memo switched off.
    #[test]
    fn fanout_memo_run_matches_the_unmemoized_run() {
        let (cfg, _) = churning_cluster_with_writes();
        let run = |memo_off: bool| {
            NO_FANOUT_MEMO.set(memo_off);
            let obs = crate::ObsOptions {
                device_stats: true,
                ..crate::ObsOptions::default()
            };
            let out = crate::run_observed(cfg.clone(), obs);
            NO_FANOUT_MEMO.set(false);
            let stats = serde_json::to_string(&out.stats).expect("stats serialize");
            let devices = out.devices.expect("device stats requested").records;
            let devices = serde_json::to_string(&devices).expect("devices serialize");
            (stats, devices, out.stats)
        };
        let (stats, devices, parsed) = run(false);
        let (plain_stats, plain_devices, _) = run(true);
        assert_eq!(stats, plain_stats);
        assert_eq!(devices, plain_devices);
        let rw = parsed.rw.expect("cache runs carry an rw block");
        assert!(
            rw.cache_invalidations > 0,
            "coherence messages found entries"
        );
        let availability = parsed.availability.expect("fault runs carry availability");
        assert!(
            availability.copies_dropped > 0,
            "the dead uplink dropped copies"
        );
    }
}
