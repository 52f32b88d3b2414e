//! Client-side replica selection: the CliRS and CliRS-R95 schemes NetRS is
//! compared against.
//!
//! Every client runs its own selector instance (its partial, possibly
//! stale view of server state — the situation §II argues against) and,
//! optionally, a cubic rate controller. CliRS-R95 adds the
//! redundant-request mitigation: if a response is slower than the
//! client's observed 95th percentile, a duplicate goes to the next-best
//! replica.

use netrs_kvstore::ServerId;
use netrs_selection::{C3Table, CubicRateController, Feedback};
use netrs_simcore::{
    DeviceCounter, DeviceId, DeviceProbe, EventQueue, Histogram, SimDuration, SimRng, SimTime,
};

use crate::cluster::{Ev, ReqId};
use crate::fabric::HopSink;
use crate::server::ServerToken;
use crate::state::{flow_hash, Core, REQ_BYTES};

use super::{ReplyInfo, SchemePolicy};

/// CliRS: per-client selectors (and optional cubic rate control), no
/// in-network state.
pub(crate) struct CliRsPolicy {
    /// One C3 selector per client, row `client` of one table, each
    /// drawing from the root RNG's fork `10_000 + client`.
    selectors: C3Table,
    /// One cubic rate controller per client; empty unless `rate_control`
    /// is configured.
    rates: Vec<CubicRateController>,
}

impl CliRsPolicy {
    pub(crate) fn new<D: DeviceProbe>(core: &Core<D>, root: &SimRng) -> Self {
        let cfg = &core.cfg;
        // Each client's C3 concurrency estimate is the client count: all
        // clients contend for the same servers.
        let concurrency = f64::from(cfg.clients).max(1.0);
        let rngs = (0..cfg.clients)
            .map(|idx| root.fork(10_000 + u64::from(idx)))
            .collect();
        let selectors = C3Table::new(cfg.c3, concurrency, rngs, cfg.servers);
        let rates = cfg.rate_control.map_or_else(Vec::new, |rc| {
            (0..cfg.clients)
                .map(|_| CubicRateController::new(rc))
                .collect()
        });
        CliRsPolicy { selectors, rates }
    }

    /// Selects the primary replica and dispatches the first copy.
    fn select_and_send<D: DeviceProbe>(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        let replicas = core.ring.groups().replicas(rgid);
        let state = core.requests.get_mut(req.0).expect("request just created");
        let target = self.selectors.select(state.client as usize, replicas);
        state.primary = Some(target);
        self.dispatch_copy(core, now, req, target, queue);
    }

    /// Sends one request copy from the client toward `server`, honouring
    /// the optional cubic rate controller.
    fn dispatch_copy<D: DeviceProbe>(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        server: ServerId,
        queue: &mut EventQueue<Ev>,
    ) {
        let Some(state) = core.requests.get_mut(req.0) else {
            return;
        };
        let client_idx = state.client as usize;
        let gated = if let Some(ctl) = self.rates.get_mut(client_idx) {
            if ctl.try_send(server, now) {
                None
            } else {
                Some(ctl.next_permit_at(server, now))
            }
        } else {
            None
        };
        if let Some(permit_at) = gated {
            // Hold the request at the client until a send token accrues.
            core.fabric
                .devices
                .bump(DeviceId::Client(client_idx as u32), DeviceCounter::Clamp, 1);
            let at = permit_at.max(now + SimDuration::from_nanos(1));
            queue.schedule_at(at, Ev::GatedSend { req, server });
            return;
        }
        state.copies += 1;
        let issued_at = state.sent_at;
        let rgid = state.rgid;
        self.selectors.on_send(client_idx, server);
        // Client-side selection has no steering hop: the interval from
        // issue to departure (rate gating, duplicate timers) is the
        // "selection" phase of the breakdown.
        let token = ServerToken::new(
            req,
            server,
            client_idx as u32,
            rgid,
            false,
            issued_at,
            issued_at,
            SimDuration::ZERO,
            now,
            None,
        );
        let hash = flow_hash(req, u64::from(server.0));
        let client_host = core.client_hosts[client_idx];
        let Some(latency) =
            core.fabric
                .try_host_to_host(client_host, core.server_hosts[server.0 as usize], hash)
        else {
            core.drop_copy(req.0); // partitioned by link faults
            return;
        };
        let copy = core.copies.insert(token);
        queue.schedule_after(latency, Ev::ServerArrive { copy });
        if core.fabric.observing() {
            let sink = HopSink::Copy(req.0, server.0);
            // The copy sat at the client from issue to departure.
            core.fabric.push_residency_hop(
                sink,
                DeviceId::Client(client_idx as u32),
                issued_at,
                now,
            );
            core.fabric.observe_host_to_host(
                now,
                client_host,
                core.server_hosts[server.0 as usize],
                hash,
                sink,
                REQ_BYTES,
            );
        }
    }

    /// Lets the issuing client's selector penalize the replica whose
    /// answer never came (fault runs only).
    fn note_timeout<D: DeviceProbe>(
        &mut self,
        core: &mut Core<D>,
        req: ReqId,
        primary: Option<ServerId>,
    ) {
        let Some(state) = core.requests.get(req.0) else {
            return;
        };
        if let Some(server) = primary {
            self.selectors.on_timeout(state.client as usize, server);
        }
    }

    /// Feeds one received copy back into the issuing client's selector
    /// and rate controller (CliRS schemes observe every copy's response).
    fn feed_back(&mut self, now: SimTime, info: &ReplyInfo) {
        let idx = info.client as usize;
        let copy_latency = now - info.copy_sent_at;
        self.selectors.on_response(
            idx,
            &Feedback {
                server: info.server,
                queue_len: info.status.queue_len,
                service_time: info.status.service_time(),
                latency: copy_latency,
            },
        );
        if let Some(ctl) = self.rates.get_mut(idx) {
            ctl.on_response(info.server, now);
        }
    }
}

impl<D: DeviceProbe> SchemePolicy<D> for CliRsPolicy {
    fn steer_read(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        self.select_and_send(core, now, req, rgid, queue);
    }

    fn on_gated_send(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        server: ServerId,
        queue: &mut EventQueue<Ev>,
    ) {
        self.dispatch_copy(core, now, req, server, queue);
    }

    fn on_reply(&mut self, _core: &mut Core<D>, now: SimTime, info: &ReplyInfo) {
        self.feed_back(now, info);
    }

    fn on_request_timeout(
        &mut self,
        core: &mut Core<D>,
        _now: SimTime,
        req: ReqId,
        primary: Option<ServerId>,
    ) {
        self.note_timeout(core, req, primary);
    }
}

/// CliRS-R95: CliRS plus the paper's redundant-request baseline — a
/// duplicate to the next-best replica whenever a request outlives the
/// client's observed 95th-percentile latency.
pub(crate) struct CliRsR95Policy {
    inner: CliRsPolicy,
    /// Each client's own completed-read latencies: the duplicate
    /// deadline is a quantile of these. The only per-client histograms
    /// in the simulator (59 KB each), kept by the one scheme that reads
    /// them.
    latencies: Vec<Histogram>,
}

impl CliRsR95Policy {
    pub(crate) fn new<D: DeviceProbe>(core: &Core<D>, root: &SimRng) -> Self {
        CliRsR95Policy {
            inner: CliRsPolicy::new(core, root),
            latencies: (0..core.cfg.clients).map(|_| Histogram::new()).collect(),
        }
    }
}

impl<D: DeviceProbe> SchemePolicy<D> for CliRsR95Policy {
    fn steer_read(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        self.inner.select_and_send(core, now, req, rgid, queue);
        // Arm the duplicate timer once the client has a usable quantile
        // estimate.
        let state = core.requests.get(req.0).expect("request still in flight");
        let seen = &self.latencies[state.client as usize];
        if seen.count() >= core.cfg.r95.min_samples {
            let deadline = seen.value_at_quantile(core.cfg.r95.quantile);
            queue.schedule_after(deadline, Ev::R95Check { req });
        }
    }

    fn on_gated_send(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        server: ServerId,
        queue: &mut EventQueue<Ev>,
    ) {
        self.inner.dispatch_copy(core, now, req, server, queue);
    }

    fn on_r95_check(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        queue: &mut EventQueue<Ev>,
    ) {
        let Some(state) = core.requests.get_mut(req.0) else {
            return; // long since completed and cleaned up
        };
        if state.completed || state.dup_sent {
            return;
        }
        state.dup_sent = true;
        let rgid = state.rgid;
        let primary = state.primary;
        let client_idx = state.client as usize;
        let replicas = core.ring.groups().replicas(rgid);
        let ranked = self.inner.selectors.rank(client_idx, replicas);
        let Some(dup) = ranked.into_iter().find(|&s| Some(s) != primary) else {
            return; // replication factor 1: nowhere else to go
        };
        core.duplicates += 1;
        self.inner.dispatch_copy(core, now, req, dup, queue);
    }

    fn on_reply(&mut self, _core: &mut Core<D>, now: SimTime, info: &ReplyInfo) {
        if info.first_completion {
            // Issue → now: every copy's token carries the request's
            // issue time, duplicates and retries included.
            self.latencies[info.client as usize].record(info.latency);
        }
        self.inner.feed_back(now, info);
    }

    fn on_request_timeout(
        &mut self,
        core: &mut Core<D>,
        _now: SimTime,
        req: ReqId,
        primary: Option<ServerId>,
    ) {
        self.inner.note_timeout(core, req, primary);
    }
}
