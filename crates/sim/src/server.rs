//! The server layer: storage-server queueing, service, and the per-copy
//! timeline token.
//!
//! Servers are `Np`-slot FIFO queues with exponentially distributed,
//! bimodally fluctuating service times (wrapping [`netrs_kvstore`]'s
//! [`Server`] model). This layer moves request copies through arrival →
//! queue → service → done and stamps their timeline; it neither routes
//! packets (the fabric's job) nor decides where replies go next (the
//! policy's job).
//!
//! A copy's [`ServerToken`] stays put in the [`CopySlab`] from send until
//! the reply reaches the client or the copy is lost; events and server
//! queues carry its 4-byte [`CopyId`], and handlers stamp the timeline in
//! place.

use std::ops::{Index, IndexMut};

use netrs_kvstore::{Arrival, Server, ServerConfig, ServerId, ServerStatus};
use netrs_simcore::{
    DeviceCounter, DeviceId, DeviceProbe, EventQueue, SimDuration, SimRng, SimTime,
};
use netrs_topology::SwitchId;

use crate::cluster::{Ev, ReqId};
use crate::fabric::Fabric;

/// Everything a request copy carries through the network and the server
/// queue, including its observability timeline: the consecutive event
/// timestamps that decompose end-to-end latency into exact phases
/// (steer → selection → to-server → server queue → service → reply).
#[derive(Debug, Clone, Copy)]
pub struct ServerToken {
    pub(crate) req: ReqId,
    pub(crate) server: ServerId,
    /// Index of the issuing client. Carried on the token so reply
    /// routing needs no request-table lookup at the server's side —
    /// which is what lets replica-mode shards route replies home
    /// without sharing the request table.
    pub(crate) client: u32,
    /// The request's replication group (chain writes walk it without a
    /// request-table lookup).
    pub(crate) rgid: u32,
    /// Whether the copy belongs to a write.
    pub(crate) is_write: bool,
    /// When this copy left its last sender (client or selector).
    pub(crate) copy_sent_at: SimTime,
    /// The RSNode the copy passed, if any; the copy left it at
    /// `copy_sent_at`.
    pub(crate) rsnode: Option<SwitchId>,
    /// When the logical request was issued at the client.
    pub(crate) issued_at: SimTime,
    /// When the copy reached its selection point (the RSNode for
    /// in-network schemes; `issued_at` for client-side selection).
    pub(crate) steered_at: SimTime,
    /// Accelerator queue wait (zero for client schemes).
    pub(crate) selection_wait: SimDuration,
    /// When the copy arrived at the server.
    pub(crate) server_arrived_at: SimTime,
    /// When the server started serving it (after any queueing).
    pub(crate) service_started_at: SimTime,
    /// When the server finished serving it.
    pub(crate) served_at: SimTime,
}

impl ServerToken {
    /// A token whose timeline starts at `issued_at` and whose selection
    /// interval is `[steered_at, copy_sent_at]`; the server-side
    /// timestamps are stamped as the copy progresses.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        req: ReqId,
        server: ServerId,
        client: u32,
        rgid: u32,
        is_write: bool,
        issued_at: SimTime,
        steered_at: SimTime,
        selection_wait: SimDuration,
        copy_sent_at: SimTime,
        rsnode: Option<SwitchId>,
    ) -> Self {
        ServerToken {
            req,
            server,
            client,
            rgid,
            is_write,
            copy_sent_at,
            rsnode,
            issued_at,
            steered_at,
            selection_wait,
            server_arrived_at: copy_sent_at,
            service_started_at: copy_sent_at,
            served_at: copy_sent_at,
        }
    }
}

/// Handle of one in-flight copy's [`ServerToken`] in the cluster's copy
/// slab. Local to one replica: a copy that crosses shards travels as its
/// token and is re-inserted on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopyId(u32);

/// End of the slab's free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a live copy's token, or a link in the free list.
enum CopySlot {
    Live(ServerToken),
    Free { next: u32 },
}

/// Every in-flight copy's token. Freed slots recycle through an intrusive
/// free list, so the slab stays at the in-flight high-water size and a
/// steady-state run never allocates.
pub(crate) struct CopySlab {
    slots: Vec<CopySlot>,
    free: u32,
    live: usize,
}

impl CopySlab {
    pub(crate) fn new() -> Self {
        CopySlab {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Parks a freshly sent copy's token and returns its handle.
    pub(crate) fn insert(&mut self, token: ServerToken) -> CopyId {
        self.live += 1;
        if self.free == NIL {
            let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 copies in flight");
            assert_ne!(idx, NIL, "fewer than 2^32 - 1 copies in flight");
            self.slots.push(CopySlot::Live(token));
            return CopyId(idx);
        }
        let idx = self.free;
        match std::mem::replace(&mut self.slots[idx as usize], CopySlot::Live(token)) {
            CopySlot::Free { next } => self.free = next,
            CopySlot::Live(_) => unreachable!("free list holds a live copy"),
        }
        CopyId(idx)
    }

    /// Frees a copy that was delivered or lost, returning its token.
    ///
    /// # Panics
    ///
    /// Panics if the copy was already freed.
    pub(crate) fn remove(&mut self, id: CopyId) -> ServerToken {
        let slot = CopySlot::Free { next: self.free };
        match std::mem::replace(&mut self.slots[id.0 as usize], slot) {
            CopySlot::Live(token) => {
                self.free = id.0;
                self.live -= 1;
                token
            }
            CopySlot::Free { .. } => panic!("copy {} freed twice", id.0),
        }
    }

    /// Copies currently in flight.
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

impl Index<CopyId> for CopySlab {
    type Output = ServerToken;

    fn index(&self, id: CopyId) -> &ServerToken {
        match &self.slots[id.0 as usize] {
            CopySlot::Live(token) => token,
            CopySlot::Free { .. } => panic!("copy {} used after free", id.0),
        }
    }
}

impl IndexMut<CopyId> for CopySlab {
    fn index_mut(&mut self, id: CopyId) -> &mut ServerToken {
        match &mut self.slots[id.0 as usize] {
            CopySlot::Live(token) => token,
            CopySlot::Free { .. } => panic!("copy {} used after free", id.0),
        }
    }
}

/// The cluster's storage servers.
pub(crate) struct ServerPool {
    servers: Vec<Server<CopyId>>,
    /// Per server: in-service copies lost to a crash whose `ServerDone`
    /// events are still in the event queue and must be absorbed.
    ghosts: Vec<u32>,
    /// Per server: when it last crashed (distinguishes ghost completions
    /// from post-recovery ones).
    crash_at: Vec<SimTime>,
}

impl ServerPool {
    /// Builds `count` servers, each with its own deterministic RNG stream
    /// (`root.fork(20_000 + i)`).
    pub(crate) fn new(count: u32, cfg: &ServerConfig, root: &SimRng) -> Self {
        let servers: Vec<_> = (0..count)
            .map(|i| Server::new(ServerId(i), cfg.clone(), root.fork(20_000 + u64::from(i))))
            .collect();
        ServerPool {
            ghosts: vec![0; servers.len()],
            crash_at: vec![SimTime::ZERO; servers.len()],
            servers,
        }
    }

    /// A server redraws its mean service time (the bimodal fluctuation).
    pub(crate) fn fluctuate(&mut self, server: ServerId) {
        self.servers[server.0 as usize].fluctuate();
    }

    /// A request copy arrives: start service if a slot is free, queue
    /// otherwise. Stamps the token's arrival and (provisional) service
    /// start.
    pub(crate) fn arrive<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        copy: CopyId,
        copies: &mut CopySlab,
        fabric: &mut Fabric<D>,
        queue: &mut EventQueue<Ev>,
    ) {
        let token = &mut copies[copy];
        token.server_arrived_at = now;
        // Provisional: correct if a slot is free; a queued copy gets its
        // real service start stamped when it is dispatched.
        token.service_started_at = now;
        let server_id = token.server;
        let dev = DeviceId::Server(server_id.0);
        fabric.devices.bump(dev, DeviceCounter::Op, 1);
        let server = &mut self.servers[server_id.0 as usize];
        match server.arrive(copy, now) {
            Arrival::Started { finish_at } => {
                queue.schedule_at(
                    finish_at,
                    Ev::ServerDone {
                        server: server_id,
                        copy,
                    },
                );
            }
            Arrival::Queued => {
                // All slots busy: the copy joins the wait queue
                // (depth matches `Server::waiting`).
                fabric.devices.queue_delta(now, dev, 1);
            }
        }
    }

    /// A server finishes one copy: stamp its completion, account the busy
    /// time, dispatch the next queued copy if any, and report the
    /// piggybacked status the response will carry. Reply routing is the
    /// caller's (policy's) job.
    pub(crate) fn finish_service<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        server_id: ServerId,
        copy: CopyId,
        copies: &mut CopySlab,
        fabric: &mut Fabric<D>,
        queue: &mut EventQueue<Ev>,
    ) -> ServerStatus {
        let token = &mut copies[copy];
        token.served_at = now;
        let server_dev = DeviceId::Server(server_id.0);
        fabric
            .devices
            .busy(server_dev, now - token.service_started_at);
        let server = &mut self.servers[server_id.0 as usize];
        let status = server.status();
        if let Some((next, finish_at)) = server.complete(now).next {
            // The queued copy enters service now that a slot freed up.
            copies[next].service_started_at = now;
            queue.schedule_at(
                finish_at,
                Ev::ServerDone {
                    server: server_id,
                    copy: next,
                },
            );
            fabric.devices.queue_delta(now, server_dev, -1);
        }
        status
    }

    // ---- faults ---------------------------------------------------------

    /// Whether the server is currently crashed.
    pub(crate) fn is_down(&self, server: ServerId) -> bool {
        !self.servers[server.0 as usize].is_up()
    }

    /// Fail-stops a server. Queued copies are drained (their device queue
    /// accounting reversed) and returned as lost; in-service copies become
    /// ghosts whose pending `ServerDone` events [`Self::absorb_ghost`]
    /// swallows. No-op if already down.
    pub(crate) fn crash<D: DeviceProbe>(
        &mut self,
        now: SimTime,
        server: ServerId,
        fabric: &mut Fabric<D>,
    ) -> Vec<CopyId> {
        let idx = server.0 as usize;
        if !self.servers[idx].is_up() {
            return Vec::new();
        }
        let (queued, in_service) = self.servers[idx].crash(now);
        self.ghosts[idx] += in_service;
        self.crash_at[idx] = now;
        let dev = DeviceId::Server(server.0);
        for _ in &queued {
            fabric.devices.queue_delta(now, dev, -1);
        }
        queued
    }

    /// A crashed server comes back empty. No-op if already up.
    pub(crate) fn recover(&mut self, now: SimTime, server: ServerId) {
        let idx = server.0 as usize;
        if !self.servers[idx].is_up() {
            self.servers[idx].recover(now);
        }
    }

    /// Applies a service-rate multiplier (the `ServerSlowdown` fault).
    pub(crate) fn set_rate_factor(&mut self, server: ServerId, factor: f64) {
        self.servers[server.0 as usize].set_rate_factor(factor);
    }

    /// Whether this `ServerDone` belongs to a copy that was in service
    /// when the server crashed (its completion must be discarded). Ghost
    /// tokens started service at or before the crash instant.
    pub(crate) fn absorb_ghost(&mut self, server: ServerId, token: &ServerToken) -> bool {
        let idx = server.0 as usize;
        if self.ghosts[idx] > 0 && token.service_started_at <= self.crash_at[idx] {
            self.ghosts[idx] -= 1;
            return true;
        }
        false
    }

    /// Adopts server `idx` from another pool (parallel replica merge:
    /// the other pool is the replica on which that server's queue and
    /// busy time actually advanced).
    ///
    /// # Panics
    ///
    /// Panics if the adopted server still holds copies: their handles
    /// point into the other replica's slab.
    pub(crate) fn adopt(&mut self, other: &mut ServerPool, idx: usize) {
        assert_eq!(
            other.servers[idx].queue_len(),
            0,
            "server {idx} adopted with copies still queued"
        );
        std::mem::swap(&mut self.servers[idx], &mut other.servers[idx]);
        std::mem::swap(&mut self.ghosts[idx], &mut other.ghosts[idx]);
        std::mem::swap(&mut self.crash_at[idx], &mut other.crash_at[idx]);
    }

    /// Mean instantaneous slot occupancy across servers.
    pub(crate) fn mean_occupancy(&self) -> f64 {
        self.servers.iter().map(|s| s.slot_occupancy()).sum::<f64>() / self.servers.len() as f64
    }

    /// Mean slot utilization over `[0, now]` across servers.
    pub(crate) fn mean_utilization(&self, now: SimTime) -> f64 {
        self.servers.iter().map(|s| s.utilization(now)).sum::<f64>() / self.servers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token(req: u64) -> ServerToken {
        let t = SimTime::ZERO;
        ServerToken::new(
            ReqId(req),
            ServerId(0),
            0,
            0,
            false,
            t,
            t,
            SimDuration::ZERO,
            t,
            None,
        )
    }

    #[test]
    fn copy_slab_recycles_freed_slots_and_counts_live_copies() {
        let mut slab = CopySlab::new();
        let a = slab.insert(token(1));
        let b = slab.insert(token(2));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.remove(a).req, ReqId(1));
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.insert(token(3)), a, "the freed slot is reused");
        assert_eq!(slab.slots.len(), 2);
        slab[b].served_at = SimTime::from_nanos(7);
        assert_eq!(slab.remove(b).served_at, SimTime::from_nanos(7));
        // The free link lives in the token's niche: a slot is no bigger
        // than what it holds. The slab holds every copy in flight (32 768
        // slots on the fault benchmark): ids, flags and eight timestamps.
        assert_eq!(
            std::mem::size_of::<CopySlot>(),
            std::mem::size_of::<ServerToken>()
        );
        assert_eq!(std::mem::size_of::<ServerToken>(), 88);
    }

    #[test]
    #[should_panic(expected = "freed twice")]
    fn freeing_a_copy_twice_panics() {
        let mut slab = CopySlab::new();
        let a = slab.insert(token(1));
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    #[should_panic(expected = "used after free")]
    fn reading_a_freed_copy_panics() {
        let mut slab = CopySlab::new();
        let a = slab.insert(token(1));
        slab.remove(a);
        let _ = slab[a].req;
    }
}
