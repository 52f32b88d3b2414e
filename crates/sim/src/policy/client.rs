//! Client-side replica selection: the CliRS and CliRS-R95 schemes NetRS is
//! compared against.
//!
//! Every client runs its own selector instance (its partial, possibly
//! stale view of server state — the situation §II argues against).
//! CliRS-R95 adds the redundant-request mitigation: if a response is
//! slower than the client's observed 95th percentile, a duplicate goes to
//! the next-best replica.

use netrs_kvstore::ServerId;
use netrs_selection::{C3Table, Feedback};
use netrs_simcore::{DeviceProbe, EventQueue, Histogram, SimRng, SimTime};

use crate::cluster::{Ev, ReqId};
use crate::state::{Core, Launch};

use super::{ReplyInfo, SchemePolicy};

/// CliRS and CliRS-R95: per-client selectors, no in-network state.
/// CliRS-R95 is CliRS plus the paper's redundant-request baseline — a
/// duplicate to the next-best replica whenever a request outlives the
/// client's observed 95th-percentile latency.
pub(crate) struct ClientPolicy {
    /// One C3 selector per client, row `client` of one table, each
    /// drawing from the root RNG's fork `10_000 + client`.
    selectors: C3Table,
    /// Under CliRS-R95, each client's own completed-read latencies: the
    /// duplicate deadline is a quantile of these. Empty under CliRS. The
    /// only per-client histograms in the simulator (59 KB each).
    latencies: Vec<Histogram>,
}

impl ClientPolicy {
    /// `r95` selects CliRS-R95 (keep latency histograms, send
    /// duplicates) over plain CliRS.
    pub(crate) fn new<D: DeviceProbe>(core: &Core<D>, root: &SimRng, r95: bool) -> Self {
        let cfg = &core.cfg;
        // Each client's C3 concurrency estimate is the client count: all
        // clients contend for the same servers.
        let concurrency = f64::from(cfg.clients).max(1.0);
        let rngs = (0..cfg.clients)
            .map(|idx| root.fork(10_000 + u64::from(idx)))
            .collect();
        let selectors = C3Table::new(cfg.c3, concurrency, rngs, cfg.servers);
        let latencies = if r95 {
            (0..cfg.clients).map(|_| Histogram::new()).collect()
        } else {
            Vec::new()
        };
        ClientPolicy {
            selectors,
            latencies,
        }
    }
}

impl<D: DeviceProbe> SchemePolicy<D> for ClientPolicy {
    fn steer_read(
        &mut self,
        core: &mut Core<D>,
        now: SimTime,
        req: ReqId,
        rgid: u32,
        queue: &mut EventQueue<Ev>,
    ) {
        let replicas = core.ring.groups().replicas(rgid);
        let state = core.requests.get_mut(req.0).expect("request just created");
        let client_idx = state.client as usize;
        let target = self.selectors.select(client_idx, replicas);
        state.primary = Some(target);
        self.selectors.on_send(client_idx, target);
        core.launch(now, req, Launch::Read { server: target }, queue);
        // CliRS-R95 arms the duplicate timer once the client has a usable
        // quantile estimate.
        let Some(seen) = self.latencies.get(client_idx) else {
            return;
        };
        if seen.count() >= core.cfg.r95.min_samples {
            let deadline = seen.value_at_quantile(core.cfg.r95.quantile);
            queue.schedule_after(deadline, Ev::R95Check { req });
        }
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
        let ranked = self.selectors.rank(client_idx, replicas);
        let Some(dup) = ranked.into_iter().find(|&s| Some(s) != primary) else {
            return; // replication factor 1: nowhere else to go
        };
        core.duplicates += 1;
        self.selectors.on_send(client_idx, dup);
        core.launch(now, req, Launch::Read { server: dup }, queue);
    }

    fn on_reply(&mut self, _core: &mut Core<D>, now: SimTime, info: &ReplyInfo) {
        if info.first_completion {
            if let Some(seen) = self.latencies.get_mut(info.client as usize) {
                // Issue → now: every copy's token carries the request's
                // issue time, duplicates and retries included.
                seen.record(info.latency);
            }
        }
        // Client schemes observe every copy's response.
        self.selectors.on_response(
            info.client as usize,
            &Feedback {
                server: info.server,
                queue_len: info.status.queue_len,
                service_time: info.status.service_time(),
                latency: now - info.copy_sent_at,
            },
        );
    }

    /// Lets the issuing client's selector penalize the replica whose
    /// answer never came (fault runs only).
    fn on_request_timeout(
        &mut self,
        core: &mut Core<D>,
        _now: SimTime,
        req: ReqId,
        primary: Option<ServerId>,
    ) {
        let (Some(state), Some(server)) = (core.requests.get(req.0), primary) else {
            return;
        };
        self.selectors.on_timeout(state.client as usize, server);
    }
}
