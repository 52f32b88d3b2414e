//! Shared simulation state the layers operate on.
//!
//! [`Core`] owns everything that is the same for all four schemes: the
//! workload (generators, Zipf keys, the consistent-hash ring), client and
//! request bookkeeping, the [`Fabric`] and [`ServerPool`] layers, and the
//! always-on result accounting (latency histograms, phase breakdown,
//! trace stream, sampler). Scheme-conditional behavior lives behind
//! [`crate::policy::SchemePolicy`]; policies receive `&mut Core` at every
//! decision point.

use std::collections::VecDeque;

use netrs_faults::{AvailabilityStats, FaultEvent, FaultPlan, LinkRef};
use netrs_kvstore::{key_rank, Ring, ServerId, ServerStatus, VersionTable};
use netrs_simcore::{
    DeviceCounter, DeviceId, DeviceProbe, EventQueue, Histogram, SimDuration, SimRng, SimTime, Zipf,
};
use netrs_topology::{FatTree, HostId, Link, SwitchId};

use crate::cluster::{Ev, ReqId};
use crate::config::{SimConfig, WriteConsistency};
use crate::dense::RequestTable;
use crate::fabric::{DeviceCapacities, End, Fabric, HopSink, Lead};
use crate::obs::{ControlLog, DeviceStatsReport, SamplerSpec, TimeSeries, TraceRecord};
use crate::policy::{ControlStats, ReplyInfo};
use crate::server::{CopyId, CopySlab, ServerPool, ServerToken};
use crate::stats::{LatencyBreakdown, RunStats, RwStats};

/// Simulated size of one request packet on the wire (the NetRS request
/// header; payloads are not modelled).
pub(crate) const REQ_BYTES: u64 = netrs_wire::REQUEST_HEADER_LEN as u64;
/// Simulated size of one response packet (fixed NetRS response fields).
pub(crate) const RESP_BYTES: u64 = netrs_wire::RESPONSE_FIXED_LEN as u64;

/// Workload-generator firings drawn ahead per refill of a shard's
/// look-ahead buffer (fewer once the quota is nearly spent).
pub(crate) const LOOKAHEAD: usize = 64;

/// One workload-generator firing, drawn ahead of time: the gap to the
/// firing generator's next arrival and everything the request needs.
struct Arrival {
    gap: SimDuration,
    /// A Zipf rank, at most `SimConfig::keys`, which `validate` bounds
    /// by `u32::MAX`.
    key: u32,
    client: u32,
    rgid: u32,
    backup: ServerId,
    is_write: bool,
}

/// The flow hash ECMP spreads a copy's packets with. Pure in `(req,
/// salt)` so replies replay the request's path decisions.
pub(crate) fn flow_hash(req: ReqId, salt: u64) -> u64 {
    netrs_kvstore::hash64(req.0 ^ salt.wrapping_mul(0x9E37_79B9))
}

/// One request copy to send, by what it is ([`Core::launch`]). The kind
/// fixes the copy's sender, target, lead walk, flow-hash salt, size, write
/// flag, RSNode stamp and selection interval, so no launch site can pick
/// these differently.
#[derive(Clone, Copy)]
pub(crate) enum Launch {
    /// A read whose client chose `server` (CliRS; R95 duplicates too).
    /// Client-side selection has no steering hop: the wait from issue to
    /// departure (a retry's timeout, the duplicate timer) is selection.
    Read { server: ServerId },
    /// Degraded Replica Selection: a read from its client straight to its
    /// backup `server`. A retry's copy was held at the client since issue,
    /// as on the way to an RSNode: that wait is steering, not selection.
    Drs { server: ServerId },
    /// A read that reached the retired operator `from` at `arrived`, on to
    /// its backup `server`. The hop to `from` was pure steering, and the
    /// time spent there belongs to its switch.
    Backup {
        server: ServerId,
        from: SwitchId,
        arrived: SimTime,
    },
    /// A read that reached RSNode `op` at `arrived` and waited `waited`
    /// for its accelerator, which chose `server`.
    Selected {
        server: ServerId,
        op: SwitchId,
        arrived: SimTime,
        waited: SimDuration,
    },
    /// A hot-key hit at switch `op`, answered to the client on behalf of
    /// `origin`, the server the cached value came from.
    CacheReply { origin: ServerId, op: SwitchId },
    /// A write's copy to replica `i` of its group, from the client.
    Write { i: usize },
    /// A chain write forwarded from the replica that committed copy
    /// `parent` to replica `i` of the group. It replaces its parent.
    Chain { parent: CopyId, i: usize },
}

/// One logical client request in flight.
#[derive(Debug)]
pub(crate) struct RequestState {
    pub(crate) client: u32,
    pub(crate) rgid: u32,
    pub(crate) sent_at: SimTime,
    pub(crate) backup: ServerId,
    pub(crate) primary: Option<ServerId>,
    pub(crate) completed: bool,
    pub(crate) copies: u8,
    pub(crate) dup_sent: bool,
    pub(crate) is_write: bool,
    /// The requested key (stale checks and cache invalidation need it),
    /// as stored in [`Arrival`].
    pub(crate) key: u32,
    /// Write replies received so far (a write completes by its acks).
    pub(crate) acks: u8,
}

/// Virtual-time sampler state (present only when enabled).
struct SamplerState {
    interval: SimDuration,
    series: TimeSeries,
    /// Aggregate accelerator busy core-ns at the previous tick, for
    /// windowed utilization.
    last_busy_core_ns: u128,
    last_tick: SimTime,
}

/// Per-phase histograms feeding [`LatencyBreakdown`]. Always on: four
/// `record_nanos` calls per completed read are noise next to the event
/// loop, and `RunStats` must carry a populated breakdown for every run.
struct BreakdownHists {
    network: Histogram,
    selection: Histogram,
    server_queue: Histogram,
    service: Histogram,
}

impl BreakdownHists {
    fn new() -> Self {
        BreakdownHists {
            network: Histogram::new(),
            selection: Histogram::new(),
            server_queue: Histogram::new(),
            service: Histogram::new(),
        }
    }

    fn merge(&mut self, other: &BreakdownHists) {
        self.network.merge(&other.network);
        self.selection.merge(&other.selection);
        self.server_queue.merge(&other.server_queue);
        self.service.merge(&other.service);
    }

    fn summarize(&self) -> LatencyBreakdown {
        LatencyBreakdown {
            count: self.network.count(),
            network: self.network.summary(),
            selection: self.selection.summary(),
            server_queue: self.server_queue.summary(),
            service: self.service.summary(),
        }
    }
}

/// Runtime state of the fault-injection subsystem. Present on the
/// [`Core`] only when the run was given an *active* fault plan, so
/// fault-free runs never arm the timeout machinery and stay
/// byte-identical to runs built before the subsystem existed.
pub(crate) struct FaultRuntime {
    pub(crate) plan: FaultPlan,
    /// Stream for packet-loss-burst coin flips (fork 50_000 of the root).
    rng: SimRng,
    /// Current loss-burst drop probability (meaningful until
    /// `loss_until`).
    loss_probability: f64,
    loss_until: SimTime,
    faults_injected: u64,
    timeouts: u64,
    retries: u64,
    duplicate_drops: u64,
    copies_dropped: u64,
    /// When the most recent fault fired (recovery is measured from
    /// here).
    last_fault_at: Option<SimTime>,
    /// Steady-state mean read latency, snapshotted when the first fault
    /// fires (the recovery band is relative to this).
    steady_mean: Option<SimDuration>,
    /// Read completions observed between the first fault and detected
    /// recovery (feeds `failed_window_p99`).
    fault_hist: Histogram,
    window_start: SimTime,
    window_sum_ns: u128,
    window_count: u64,
    /// A timeout, retry, or dropped copy happened inside the current
    /// observation window, disqualifying it as "recovered".
    window_disrupted: bool,
    recovered_at: Option<SimTime>,
}

impl FaultRuntime {
    fn new(plan: FaultPlan, root: &SimRng) -> Self {
        FaultRuntime {
            rng: root.fork(50_000),
            loss_probability: 0.0,
            loss_until: SimTime::ZERO,
            faults_injected: 0,
            timeouts: 0,
            retries: 0,
            duplicate_drops: 0,
            copies_dropped: 0,
            last_fault_at: None,
            steady_mean: None,
            fault_hist: Histogram::new(),
            window_start: SimTime::ZERO,
            window_sum_ns: 0,
            window_count: 0,
            window_disrupted: false,
            recovered_at: None,
            plan,
        }
    }

    /// A disruption (timeout / retry / lost copy) voids the current
    /// recovery observation window.
    fn disrupt(&mut self) {
        self.window_disrupted = true;
    }
}

/// What one workload-generator firing produced, for the cluster to
/// dispatch: reads go to the policy's steer point, writes to its
/// invalidation hook.
pub(crate) enum GenOutcome {
    /// Workload exhausted (or the firing produced nothing to route).
    None,
    /// A read that needs the policy to steer it.
    Read {
        /// The request.
        req: ReqId,
        /// Its replica group (policies that select client-side borrow
        /// the set from the ring).
        rgid: u32,
    },
    /// A write already fanned out to its replica group; policies with
    /// hot-key caches emit coherence messages for it.
    Write {
        /// The request.
        req: ReqId,
        /// The written key.
        key: u64,
    },
}

/// What [`Core::retry_decision`] told the cluster to do about a request
/// whose retry timer fired.
pub(crate) enum RetryAction {
    /// Request completed (or was already resolved): nothing to do.
    Done,
    /// Request abandoned and counted as a timeout.
    Abandon,
    /// Re-steer the read through the policy and arm the next check.
    Retry {
        rgid: u32,
        primary: Option<ServerId>,
    },
}

/// The scheme-independent cluster state: fabric + servers + clients +
/// workload + results.
pub(crate) struct Core<D: DeviceProbe> {
    pub(crate) cfg: SimConfig,
    pub(crate) fabric: Fabric<D>,
    pub(crate) servers: ServerPool,
    /// Every in-flight copy's token, addressed by the [`CopyId`]s that
    /// events and server queues carry.
    pub(crate) copies: CopySlab,
    pub(crate) ring: Ring,
    zipf: Zipf,
    pub(crate) server_hosts: Vec<HostId>,
    /// Host of every client, dense: read on every packet to or from a
    /// client. Selectors and the CliRS-R95 latency histograms are
    /// per-scheme and live in the policy.
    pub(crate) client_hosts: Vec<HostId>,
    /// Per-client streams for backup-replica picks (`root.fork(40_000 +
    /// client)`). Only in-network schemes route to the backup (DRS), so
    /// client-side schemes carry none and draw nothing; the streams feed
    /// nothing else.
    backup_rngs: Vec<SimRng>,
    pub(crate) requests: RequestTable<RequestState>,
    pub(crate) issued: u64,
    pub(crate) completed: u64,
    /// Redundant copies sent (bumped by the R95 policy).
    pub(crate) duplicates: u64,
    /// Controller re-plans performed (bumped by the NetRS-ILP policy).
    pub(crate) replans: u64,
    /// Operators degraded for overload (bumped by in-network policies).
    pub(crate) overload_events: u64,
    warmup_cutoff: u64,
    pub(crate) hist: Histogram,
    write_hist: Histogram,
    writes_issued: u64,
    writes_completed: u64,
    /// Per-key committed version counters, bumped at write issue. The
    /// store's ground truth for cache stale checks.
    pub(crate) versions: VersionTable,
    /// Per-shard workload streams (`root.fork(2).split(s, shards)`);
    /// generator `g` draws from stream `g % shards`. At `shards == 1`
    /// this is the single pre-shard stream, byte-identical draws.
    workload: Vec<SimRng>,
    /// Per shard, the next firings of its generators, drawn from its
    /// workload stream (and the clients' backup streams) in the order
    /// [`Core::generate`] consumes them — the only reader of those
    /// streams after priming — so drawing ahead moves no draw. (A core
    /// fires one shard's generators: it has one shard, or it is that
    /// shard's replica, and replicas run client schemes, which draw no
    /// backups.)
    ahead: Vec<VecDeque<Arrival>>,
    /// Event shards the world is partitioned into (`>= 1`). Pods map to
    /// shards round-robin (`pod % shards`).
    shards: u32,
    /// Home shard of every host (its pod, modulo the shard count).
    host_shard: Vec<u32>,
    gen_interarrival: SimDuration,
    pub(crate) top_clients: u32,
    breakdown: BreakdownHists,
    tracer: Option<Box<dyn std::io::Write + Send>>,
    sampler: Option<SamplerState>,
    /// Control-plane observability sink; `None` (the default) skips all
    /// control-stream emission.
    control: Option<ControlLog>,
    /// Fault-injection runtime; `None` unless an active fault plan was
    /// configured.
    pub(crate) faults: Option<FaultRuntime>,
    /// SPMD replica mode (parallel execution, DESIGN.md §13): when
    /// `Some`, this `Core` is one of N structurally identical replicas
    /// and only handles events homed on `ReplicaMode::shard`. Its
    /// generators issue strided request ids (`shard + k·shards`) against
    /// a per-shard quota, its clients are the shard-local subset, and
    /// reply routing runs off the token (no cross-replica request-table
    /// reads). `None` is the ordinary single-world mode.
    replica: Option<ReplicaMode>,
    /// Trace lines buffered for the post-run deterministic merge instead
    /// of being written inline (replica mode only).
    trace_buf: Option<Vec<(u64, String)>>,
}

/// Per-replica identity and workload split for parallel execution.
struct ReplicaMode {
    shard: u32,
    /// How many requests this replica's generators issue in total.
    quota: u64,
    /// Ascending indices of the clients homed on this shard.
    clients: Vec<u32>,
    /// Length of the `clients` prefix that are skew "top" clients
    /// (global top clients are `0..top_clients`, so the shard-local top
    /// set is always a prefix of the ascending `clients` list).
    top: u32,
    /// Conservative-window width in link latencies (default 1).
    lookahead_mult: u32,
}

impl<D: DeviceProbe> Core<D> {
    /// Builds the scheme-independent state for a validated, finalized
    /// configuration. Placement, ring, server and client RNG streams are
    /// pure forks of `root`, so construction order never matters.
    pub(crate) fn new(cfg: SimConfig, devices: D, root: &SimRng, shards: u32) -> Self {
        let topo = FatTree::new(cfg.arity).expect("validated arity");

        // Pod-granular shard map: a pod's hosts share a shard, so
        // intra-pod hops never cross shards. Requests for more shards
        // than pods are clamped (extra shards would sit empty except for
        // round-robined generators).
        let shards = shards.clamp(1, topo.num_pods());
        let host_shard: Vec<u32> = (0..topo.num_hosts())
            .map(|h| topo.pod_of_host(HostId(h)) % shards)
            .collect();

        // Random non-overlapping placement of servers and clients
        // ("clients and servers are randomly deployed across end-hosts,
        // and each host only has one role", §V-A).
        let mut placement_rng = root.fork(0);
        let picks = placement_rng.sample_indices(
            topo.num_hosts() as usize,
            (cfg.servers + cfg.clients) as usize,
        );
        let mut picks: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
        placement_rng.shuffle(&mut picks);
        let server_hosts: Vec<HostId> = picks[..cfg.servers as usize].to_vec();
        let client_hosts: Vec<HostId> = picks[cfg.servers as usize..].to_vec();

        let ring = Ring::new(
            cfg.servers,
            cfg.vnodes,
            cfg.replication,
            root.fork(1).next_u64(),
        )
        .expect("validated ring parameters");
        let zipf = Zipf::new(cfg.keys, cfg.zipf);
        let servers = ServerPool::new(cfg.servers, &cfg.server, root);
        let backup_rngs: Vec<SimRng> = if cfg.scheme.is_in_network() {
            (0..u64::from(cfg.clients))
                .map(|i| root.fork(40_000 + i))
                .collect()
        } else {
            Vec::new()
        };
        let top_clients = (cfg.clients / 5).max(1);
        let faults = cfg
            .faults
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| FaultRuntime::new(p.clone(), root));

        Core {
            warmup_cutoff: (cfg.requests as f64 * cfg.warmup_fraction) as u64,
            gen_interarrival: SimDuration::from_secs_f64(
                f64::from(cfg.generators) / cfg.arrival_rate(),
            ),
            workload: {
                let stream = root.fork(2);
                (0..shards).map(|s| stream.split(s, shards)).collect()
            },
            ahead: (0..shards)
                .map(|_| VecDeque::with_capacity(LOOKAHEAD))
                .collect(),
            shards,
            host_shard,
            fabric: Fabric::new(topo, cfg.link_latency, devices),
            servers,
            copies: CopySlab::new(),
            ring,
            zipf,
            server_hosts,
            client_hosts,
            backup_rngs,
            requests: RequestTable::with_capacity(64),
            issued: 0,
            completed: 0,
            duplicates: 0,
            replans: 0,
            overload_events: 0,
            hist: Histogram::new(),
            write_hist: Histogram::new(),
            writes_issued: 0,
            writes_completed: 0,
            versions: VersionTable::default(),
            top_clients,
            breakdown: BreakdownHists::new(),
            tracer: None,
            sampler: None,
            control: None,
            faults,
            replica: None,
            trace_buf: None,
            cfg,
        }
    }

    // ---- replica mode (parallel execution) -------------------------------

    /// Switches this core into SPMD replica mode for `shard`, issuing at
    /// most `quota` requests locally. Construction is a pure fork tree of
    /// the seed, so every replica starts bit-identical; from here on only
    /// this shard's entities evolve.
    pub(crate) fn enable_replica(&mut self, shard: u32, quota: u64, lookahead_mult: u32) {
        let clients: Vec<u32> = (0..self.cfg.clients)
            .filter(|&c| self.client_shard(c) == shard)
            .collect();
        let top = clients.partition_point(|&c| c < self.top_clients) as u32;
        self.replica = Some(ReplicaMode {
            shard,
            quota,
            clients,
            top,
            lookahead_mult: lookahead_mult.max(1),
        });
    }

    /// Conservative window width for replica-mode runs: the configured
    /// lookahead multiple of one link latency (1× is provably safe;
    /// wider windows trade exactness for fewer barriers, with
    /// violations clamped and counted as `mailbox_late`).
    pub(crate) fn replica_lookahead(&self) -> SimDuration {
        let mult = self.replica.as_ref().map_or(1, |r| r.lookahead_mult);
        SimDuration::from_nanos(self.cfg.link_latency.as_nanos() * u64::from(mult))
    }

    /// Whether every shard that hosts a generator also hosts at least one
    /// client (and, under demand skew, both a top and a non-top client),
    /// so the per-shard workload split can reproduce the global client
    /// distribution. Placement is deterministic per config, so checking
    /// one replica answers for all of them.
    pub(crate) fn replica_coverage_ok(&self) -> bool {
        let s = self.shards;
        let mut has_gen = vec![false; s as usize];
        for g in 0..self.cfg.generators {
            has_gen[(g % s) as usize] = true;
        }
        for r in 0..s {
            if !has_gen[r as usize] {
                continue;
            }
            let clients: Vec<u32> = (0..self.cfg.clients)
                .filter(|&c| self.client_shard(c) == r)
                .collect();
            if clients.is_empty() {
                return false;
            }
            if self.cfg.demand_skew.is_some() {
                let top = clients.partition_point(|&c| c < self.top_clients);
                if top == 0 || top == clients.len() {
                    return false;
                }
            }
        }
        true
    }

    /// Buffers trace records in memory (with their receive timestamps)
    /// instead of writing them to the tracer sink, so the runner can merge
    /// per-replica traces in canonical order after the run.
    pub(crate) fn buffer_trace(&mut self) {
        self.trace_buf = Some(Vec::new());
    }

    pub(crate) fn take_trace_buf(&mut self) -> Vec<(u64, String)> {
        self.trace_buf.take().unwrap_or_default()
    }

    /// Folds another replica's results into this one (the post-run merge,
    /// replica 0 absorbing shards 1..N). Counters and histograms sum;
    /// the servers the other replica owns (whose queues and busy time
    /// advanced only there) are adopted wholesale so fleet-wide
    /// utilization and occupancy read correctly.
    pub(crate) fn absorb_replica(&mut self, other: &mut Core<D>) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.duplicates += other.duplicates;
        self.replans += other.replans;
        self.overload_events += other.overload_events;
        self.writes_issued += other.writes_issued;
        self.writes_completed += other.writes_completed;
        self.hist.merge(&other.hist);
        self.write_hist.merge(&other.write_hist);
        self.breakdown.merge(&other.breakdown);
        let oshard = other.replica.as_ref().map_or(0, |r| r.shard);
        for s in 0..self.cfg.servers {
            if self.server_shard(ServerId(s)) == oshard {
                self.servers.adopt(&mut other.servers, s as usize);
            }
        }
    }

    /// Expected request rate of each client (requests/second), honouring
    /// the demand skew.
    pub(crate) fn client_rates(&self) -> Vec<(HostId, f64)> {
        let a = self.cfg.arrival_rate();
        let n = self.cfg.clients;
        let top = self.top_clients;
        self.client_hosts
            .iter()
            .enumerate()
            .map(|(i, &host)| {
                let rate = match self.cfg.demand_skew {
                    None => a / f64::from(n),
                    Some(s) => {
                        if (i as u32) < top {
                            a * s / f64::from(top)
                        } else {
                            a * (1.0 - s) / f64::from(n - top)
                        }
                    }
                };
                (host, rate)
            })
            .collect()
    }

    // ---- sharding --------------------------------------------------------

    /// Home shard of `server` (its host's pod, modulo shard count).
    fn server_shard(&self, s: ServerId) -> u32 {
        self.host_shard[self.server_hosts[s.0 as usize].0 as usize]
    }

    /// Home shard of client `c`.
    fn client_shard(&self, c: u32) -> u32 {
        self.host_shard[self.client_hosts[c as usize].0 as usize]
    }

    /// Home shard of the client that issued `req`. An R95 deadline can
    /// outlive the request's table entry; those orphans go to shard 0 —
    /// any shard is correct for an event whose handler is a no-op, and 0
    /// is deterministic.
    fn req_shard(&self, req: ReqId) -> u32 {
        self.requests
            .get(req.0)
            .map_or(0, |r| self.client_shard(r.client))
    }

    /// Classifies an event to its home shard: the pod of the device
    /// whose state its handler touches (DESIGN.md §13). Only replicas are
    /// sharded, and only client-side schemes without faults or a cache
    /// run as replicas, so operator, control-plane, fault and cache
    /// events never reach this; they would land on shard 0.
    pub(crate) fn shard_of_event(&self, ev: &Ev) -> u32 {
        match *ev {
            Ev::Generate { gen } => gen % self.shards,
            Ev::R95Check { req } => self.req_shard(req),
            Ev::ServerArrive { copy } => self.server_shard(self.copies[copy].server),
            Ev::ServerDone { server, .. } | Ev::Fluctuate { server } => self.server_shard(server),
            // The emitting replica cannot consult the request table of
            // the client's replica, so replies route by the client
            // carried on the token.
            Ev::ClientReceive { copy, .. } => self.client_shard(self.copies[copy].client),
            _ => 0,
        }
    }

    // ---- observability ---------------------------------------------------

    pub(crate) fn set_tracer(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.tracer = Some(w);
    }

    pub(crate) fn flush_tracer(&mut self) {
        use std::io::Write as _;
        if let Some(w) = self.tracer.as_mut() {
            let _ = w.flush();
        }
    }

    pub(crate) fn set_control(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.control = Some(ControlLog::new(w));
    }

    /// The control-plane sink, if one is attached. Policies emit through
    /// this; with `None` every emission site is a skipped branch.
    pub(crate) fn control_log(&mut self) -> Option<&mut ControlLog> {
        self.control.as_mut()
    }

    /// Closes still-open DRS failure spans at `now` and flushes the
    /// control sink (call after the run drains).
    pub(crate) fn flush_control(&mut self, now: SimTime) {
        if let Some(log) = self.control.as_mut() {
            log.finish(now.as_nanos());
        }
    }

    pub(crate) fn enable_sampler(&mut self, spec: SamplerSpec) {
        assert!(
            spec.interval > SimDuration::ZERO,
            "sampler interval must be positive"
        );
        self.sampler = Some(SamplerState {
            interval: spec.interval,
            series: TimeSeries::new(spec.capacity),
            last_busy_core_ns: 0,
            last_tick: SimTime::ZERO,
        });
    }

    pub(crate) fn take_timeseries(&mut self) -> Option<TimeSeries> {
        self.sampler.take().map(|s| s.series)
    }

    pub(crate) fn take_device_report(&mut self, now: SimTime) -> Option<DeviceStatsReport> {
        let caps = DeviceCapacities {
            accelerator_cores: self.cfg.accelerator.cores,
            server_slots: self.cfg.server.slots,
        };
        self.fabric.take_device_report(now, &caps)
    }

    // ---- event-queue priming --------------------------------------------

    /// Schedules the workload generators and server fluctuation timers
    /// (the scheme-independent half of priming; policies add their own
    /// control timers after this).
    pub(crate) fn prime_workload(&mut self, queue: &mut EventQueue<Ev>) {
        for gen in 0..self.cfg.generators {
            let shard = (gen % self.shards) as usize;
            let gap = self.workload[shard].exp_duration(self.gen_interarrival);
            queue.schedule_at(SimTime::ZERO + gap, Ev::Generate { gen });
        }
        for s in 0..self.cfg.servers {
            queue.schedule_after(
                self.cfg.server.fluctuation_interval,
                Ev::Fluctuate {
                    server: ServerId(s),
                },
            );
        }
    }

    /// Schedules every scripted fault from the plan's timeline as an
    /// ordinary engine event (no-op when no active plan is configured).
    pub(crate) fn prime_faults(&mut self, queue: &mut EventQueue<Ev>) {
        if let Some(f) = &self.faults {
            for (idx, ev) in f.plan.events.iter().enumerate() {
                queue.schedule_at(SimTime::ZERO + ev.at, Ev::Fault { idx: idx as u32 });
            }
        }
    }

    /// Schedules the sampler's first tick, if the sampler is enabled
    /// (last in priming order).
    pub(crate) fn prime_sampler(&mut self, queue: &mut EventQueue<Ev>) {
        if let Some(s) = &self.sampler {
            queue.schedule_after(s.interval, Ev::Sample);
        }
    }

    // ---- workload -------------------------------------------------------

    fn pick_client(&mut self, shard: usize) -> u32 {
        if let Some(r) = &self.replica {
            // Draw from this shard's own clients (the ascending local
            // list; its skew-top subset is the `..top` prefix). Same
            // stream discipline as the global draw, restricted to the
            // clients this replica owns.
            let rng = &mut self.workload[shard];
            return match self.cfg.demand_skew {
                None => r.clients[rng.below(r.clients.len() as u64) as usize],
                Some(s) => {
                    if rng.chance(s) {
                        r.clients[rng.below(u64::from(r.top)) as usize]
                    } else {
                        let rest = r.clients.len() as u64 - u64::from(r.top);
                        r.clients[r.top as usize + rng.below(rest) as usize]
                    }
                }
            };
        }
        let rng = &mut self.workload[shard];
        match self.cfg.demand_skew {
            None => rng.below(u64::from(self.cfg.clients)) as u32,
            Some(s) => {
                if rng.chance(s) {
                    rng.below(u64::from(self.top_clients)) as u32
                } else {
                    let rest = u64::from(self.cfg.clients - self.top_clients);
                    self.top_clients + rng.below(rest) as u32
                }
            }
        }
    }

    /// One workload-generator firing: takes the shard's next drawn-ahead
    /// arrival (client, key, replica group), schedules the generator's
    /// next firing, registers the request, and handles writes (replica-group
    /// fan-out under the configured consistency mode) directly. Returns
    /// what the cluster should route next: the read to steer, or the
    /// write for coherence hooks.
    pub(crate) fn generate(
        &mut self,
        now: SimTime,
        gen: u32,
        queue: &mut EventQueue<Ev>,
    ) -> GenOutcome {
        let quota = self.replica.as_ref().map_or(self.cfg.requests, |r| r.quota);
        if self.issued >= quota {
            return GenOutcome::None; // workload exhausted: let the generator die out
        }
        let shard = (gen % self.shards) as usize;
        if self.ahead[shard].is_empty() {
            self.draw_ahead(shard, quota);
        }
        let Arrival {
            gap,
            key,
            client: client_idx,
            rgid,
            backup,
            is_write,
        } = self.ahead[shard].pop_front().expect("refilled above");
        queue.schedule_after(gap, Ev::Generate { gen });

        // Replica mode strides request ids (`shard + k·shards`) so ids
        // are globally unique without cross-replica coordination; the
        // strided id doubles as the request's approximate global issue
        // position for the warmup cutoff.
        let req = match &self.replica {
            Some(r) => ReqId(u64::from(r.shard) + self.issued * u64::from(self.shards)),
            None => ReqId(self.issued),
        };
        self.requests.insert(
            req.0,
            RequestState {
                client: client_idx,
                rgid,
                sent_at: now,
                backup,
                primary: None,
                completed: false,
                copies: 0,
                dup_sent: false,
                is_write,
                key,
                acks: 0,
            },
        );
        self.issued += 1;
        self.fabric
            .devices
            .bump(DeviceId::Client(client_idx), DeviceCounter::Op, 1);
        if let Some(f) = &self.faults {
            // Only fault-injected runs arm the client timeout machinery,
            // so fault-free event streams are untouched.
            queue.schedule_after(f.plan.retry.timeout, Ev::RetryCheck { req, attempt: 0 });
        }

        if is_write {
            // Writes bypass replica selection: one copy to every replica
            // of the group (to the chain head alone for `Chain`), and the
            // configured consistency mode decides when the client may
            // acknowledge.
            self.writes_issued += 1;
            self.versions.bump(u64::from(key));
            let targets = match self.cfg.write_consistency {
                WriteConsistency::All | WriteConsistency::Quorum { .. } => {
                    self.ring.replication() as usize
                }
                WriteConsistency::Chain => 1,
            };
            for i in 0..targets {
                self.launch(now, req, Launch::Write { i }, queue);
            }
            return GenOutcome::Write {
                req,
                key: u64::from(key),
            };
        }
        GenOutcome::Read { req, rgid }
    }

    /// Refills `shard`'s look-ahead with up to [`LOOKAHEAD`] firings, never
    /// more than the quota has left.
    fn draw_ahead(&mut self, shard: usize, quota: u64) {
        for _ in 0..(quota - self.issued).min(LOOKAHEAD as u64) {
            let gap = self.workload[shard].exp_duration(self.gen_interarrival);
            let client = self.pick_client(shard);
            let key = self.zipf.sample(&mut self.workload[shard]);
            let rgid = self.ring.group_of_key(key);
            let key = key_rank(key);
            let replicas = self.ring.groups().replicas(rgid);
            // Only in-network schemes ever route to the backup (DRS).
            let backup = match self.backup_rngs.get_mut(client as usize) {
                Some(rng) => replicas[rng.index(replicas.len())],
                None => replicas[0],
            };
            let is_write = self.cfg.write_fraction > 0.0
                && self.workload[shard].chance(self.cfg.write_fraction);
            self.ahead[shard].push_back(Arrival {
                gap,
                key,
                client,
                rgid,
                backup,
                is_write,
            });
        }
    }

    /// Chain replication: after a replica commits a write copy, the
    /// update propagates server → server down the replica group; only
    /// the tail replies to the client, certifying the whole chain.
    /// Returns `true` when the copy was forwarded onward (or lost
    /// trying) and therefore must not produce a client reply; the hop
    /// travels as a new copy, which replaces this one.
    pub(crate) fn forward_chain_write(
        &mut self,
        now: SimTime,
        copy: CopyId,
        queue: &mut EventQueue<Ev>,
    ) -> bool {
        let token = &self.copies[copy];
        if self.cfg.write_consistency != WriteConsistency::Chain || !token.is_write {
            return false;
        }
        let replicas = self.ring.groups().replicas(token.rgid);
        let Some(idx) = replicas.iter().position(|&s| s == token.server) else {
            return false;
        };
        if idx + 1 >= replicas.len() {
            return false; // chain tail: the reply flows back to the client
        }
        let (req, i) = (token.req(), idx + 1);
        self.launch(now, req, Launch::Chain { parent: copy, i }, queue);
        true
    }

    /// Sends one copy of `req`, the only place a copy is made: builds its
    /// token, counts it on the request (a chain hop replaces its parent,
    /// so it does not count), parks it in the copy slab, sends it, and
    /// schedules its arrival at its server, or at the client for a cache
    /// reply. Returns `None` when no live path exists: the copy is lost.
    pub(crate) fn launch(
        &mut self,
        now: SimTime,
        req: ReqId,
        launch: Launch,
        queue: &mut EventQueue<Ev>,
    ) -> Option<CopyId> {
        let (issued_at, client, rgid) = if let Launch::Chain { parent, .. } = launch {
            // Replica mode runs at a server shard that has no view of the
            // request table; the parent's token carries the same values.
            let parent = &self.copies[parent];
            debug_assert!(
                self.replica.is_some()
                    || self.requests.get(req.0).is_some_and(|s| {
                        (s.sent_at, s.client, s.rgid)
                            == (parent.issued_at, parent.client, parent.rgid)
                    }),
                "a chain hop's parent disagrees with its request"
            );
            (parent.issued_at, parent.client, parent.rgid)
        } else {
            let state = self
                .requests
                .get_mut(req.0)
                .expect("copies are launched for live requests");
            state.copies = state.copies.checked_add(1).expect(
                "at most 255 copies per request: validate bounds replication by 255 \
                 and retry.max_retries by 253",
            );
            (state.sent_at, state.client, state.rgid)
        };
        let client_host = self.client_hosts[client as usize];
        let hold = Lead::Hold(DeviceId::Client(client), issued_at);
        let steer = |dev, at| Lead::Steer(dev, req.0, at);
        let (server, from, lead, salt): (_, End, _, u64) = match launch {
            Launch::Read { server } => (server, client_host.into(), hold, server.0.into()),
            Launch::Drs { server } => (server, client_host.into(), hold, 7),
            Launch::Backup {
                server,
                from,
                arrived,
            } => (
                server,
                from.into(),
                steer(DeviceId::Switch(from.0), arrived),
                13,
            ),
            Launch::Selected {
                server,
                op,
                arrived,
                ..
            } => (
                server,
                op.into(),
                steer(DeviceId::Accelerator(op.0), arrived),
                17,
            ),
            Launch::CacheReply { origin, op } => {
                (origin, op.into(), steer(DeviceId::Switch(op.0), now), 23)
            }
            Launch::Write { i } => {
                let server = self.ring.groups().replicas(rgid)[i];
                (server, client_host.into(), hold, 31 + i as u64)
            }
            Launch::Chain { parent, i } => {
                // The hop continues its parent's walk from its replica.
                let from = self.copies.remove(parent).server;
                let server = self.ring.groups().replicas(rgid)[i];
                let from = self.server_hosts[from.0 as usize].into();
                (server, from, Lead::Carry(parent), 31 + i as u64)
            }
        };
        let rsnode = match launch {
            Launch::Selected { op, .. } => Some(op),
            _ => None,
        };
        let mut token = ServerToken::new(req, server, client, rgid, issued_at, now, rsnode);
        match launch {
            Launch::Read { .. } => token.steered_at = issued_at,
            Launch::Selected {
                arrived, waited, ..
            } => {
                token.steered_at = arrived;
                token.selection_wait = waited;
            }
            Launch::Write { .. } | Launch::Chain { .. } => token.is_write = true,
            _ => {}
        }
        let copy = self.copies.insert(token);
        let reply = matches!(launch, Launch::CacheReply { .. });
        let (to, bytes) = if reply {
            (client_host, RESP_BYTES)
        } else {
            (self.server_hosts[server.0 as usize], REQ_BYTES)
        };
        let hash = flow_hash(req, salt);
        let Some(latency) =
            self.fabric
                .send(now, from, to, hash, HopSink::Copy(copy), bytes, Some(lead))
        else {
            self.lose_copy(copy); // no live path
            return None;
        };
        let ev = if reply {
            let status = ServerStatus::default();
            Ev::ClientReceive { copy, status }
        } else {
            Ev::ServerArrive { copy }
        };
        queue.schedule_after(latency, ev);
        Some(copy)
    }

    // ---- servers --------------------------------------------------------

    /// [`Ev::ServerArrive`] mechanics: hand the copy to its server. A
    /// crashed server drops the copy on the floor (the client timeout
    /// machinery recovers it).
    pub(crate) fn server_arrive(&mut self, now: SimTime, copy: CopyId, queue: &mut EventQueue<Ev>) {
        let server = self.copies[copy].server;
        if self.servers.is_down(server) {
            self.fabric
                .devices
                .bump(DeviceId::Server(server.0), DeviceCounter::Drop, 1);
            self.lose_copy(copy);
            return;
        }
        self.servers
            .arrive(now, copy, &mut self.copies, &mut self.fabric, queue);
    }

    /// [`Ev::ServerDone`] mechanics: completion bookkeeping at the server,
    /// then — if the logical request is still live — the copy's server
    /// residency hop. Returns the piggybacked status for reply routing,
    /// or `None` (and frees the copy) when the request was already
    /// cleaned up.
    pub(crate) fn finish_service(
        &mut self,
        now: SimTime,
        server_id: ServerId,
        copy: CopyId,
        queue: &mut EventQueue<Ev>,
    ) -> Option<ServerStatus> {
        let status = self.servers.finish_service(
            now,
            server_id,
            copy,
            &mut self.copies,
            &mut self.fabric,
            queue,
        );
        let token = &self.copies[copy];
        // Replica mode: the request lives on the issuing client's
        // replica, not here; eligibility excludes faults, so it is
        // always still live and the liveness probe must be skipped.
        if self.replica.is_none() && !self.requests.contains(token.req().0) {
            // The request was resolved without this copy (fault runs:
            // abandoned after timing out). The reply has nowhere to go.
            if let Some(f) = &mut self.faults {
                f.duplicate_drops += 1;
            }
            self.discard_copy(copy);
            return None;
        }
        // The copy occupied the server from arrival (queue + service).
        self.fabric.push_residency_hop(
            copy,
            DeviceId::Server(server_id.0),
            token.server_arrived_at,
            now,
        );
        Some(status)
    }

    /// Routes a response directly server → client (every reply path that
    /// does not detour through an RSNode: client schemes, writes, DRS).
    pub(crate) fn send_reply_direct(
        &mut self,
        now: SimTime,
        copy: CopyId,
        status: ServerStatus,
        queue: &mut EventQueue<Ev>,
    ) {
        let token = &self.copies[copy];
        let (req, server) = (token.req(), token.server);
        let client = if self.replica.is_some() {
            // The request table lives on the client's replica; the token
            // carries everything reply routing needs.
            token.client
        } else {
            let Some(state) = self.requests.get(req.0) else {
                self.discard_copy(copy);
                return;
            };
            state.client
        };
        let Some(latency) = self.fabric.send(
            now,
            self.server_hosts[server.0 as usize],
            self.client_hosts[client as usize],
            flow_hash(req, 23),
            HopSink::Copy(copy),
            RESP_BYTES,
            None,
        ) else {
            self.lose_copy(copy); // reply path severed by link faults
            return;
        };
        queue.schedule_after(latency, Ev::ClientReceive { copy, status });
    }

    // ---- clients --------------------------------------------------------

    /// [`Ev::ClientReceive`] mechanics: completion accounting, the trace
    /// record, the phase breakdown, and the latency histograms; the copy
    /// is delivered, so it is freed. Returns the reply context for the
    /// policy's feedback hooks, or `None` for writes (plain traffic: no
    /// selector feedback, no monitor counting).
    pub(crate) fn receive_reply(
        &mut self,
        now: SimTime,
        copy: CopyId,
        status: ServerStatus,
    ) -> Option<ReplyInfo> {
        let token = self.copies.remove(copy);
        let hops = self.fabric.take_copy_hops(copy);
        let Some(state) = self.requests.get_mut(token.req().0) else {
            // A straggler reply for a request already resolved (fault
            // runs only: the client abandoned it after a timeout).
            if let Some(f) = &mut self.faults {
                f.duplicate_drops += 1;
            }
            return None;
        };
        state.copies = state.copies.saturating_sub(1);
        let client_idx = state.client as usize;
        let is_write = state.is_write;
        // Reads complete on the first response. Writes complete by their
        // acks: every replica's (`All`), the W-th (`Quorum`), or the chain
        // tail's reply, which certifies the whole chain (`Chain`). Late
        // copies keep draining after the ack.
        let required = match self.cfg.write_consistency {
            WriteConsistency::Chain => 1,
            c => c.required_acks(self.cfg.replication),
        };
        if is_write {
            state.acks = state.acks.saturating_add(1);
        }
        let first_completion = !state.completed && (!is_write || u32::from(state.acks) >= required);
        if first_completion {
            state.completed = true;
            self.completed += 1;
        }
        let latency = now - state.sent_at;
        // The request id is its issue position (strided in replica mode).
        let issue_idx = token.req().0;
        // A write that drained short of its acks waits for its timeout.
        if state.copies == 0 && state.completed {
            self.requests.remove(token.req().0);
        }

        // Phase decomposition: consecutive timestamp differences along
        // the copy's path, telescoping exactly to `now - issued_at`.
        let steer = token.steered_at - token.issued_at;
        let selection = token.copy_sent_at - token.steered_at;
        let to_server = token.server_arrived_at - token.copy_sent_at;
        let server_queue = token.service_started_at - token.server_arrived_at;
        let service = token.served_at - token.service_started_at;
        let reply = now - token.served_at;
        if self.tracer.is_some() || self.trace_buf.is_some() {
            use std::io::Write as _;
            let rec = TraceRecord {
                req: token.req().0,
                server: token.server.0,
                first: first_completion,
                write: is_write,
                issued_ns: token.issued_at.as_nanos(),
                received_ns: now.as_nanos(),
                steer_ns: steer.as_nanos(),
                selection_ns: selection.as_nanos(),
                selection_wait_ns: token.selection_wait.as_nanos(),
                to_server_ns: to_server.as_nanos(),
                server_queue_ns: server_queue.as_nanos(),
                service_ns: service.as_nanos(),
                reply_ns: reply.as_nanos(),
                e2e_ns: (now - token.issued_at).as_nanos(),
                hops,
            };
            let line = serde_json::to_string(&rec).expect("trace record serializes");
            if let Some(buf) = self.trace_buf.as_mut() {
                // Parallel runs buffer; the runner merges per-replica
                // buffers in canonical (receive time, shard) order.
                buf.push((now.as_nanos(), line));
            } else if let Some(w) = self.tracer.as_mut() {
                let _ = writeln!(w, "{line}");
            }
        }
        if first_completion && !is_write && issue_idx >= self.warmup_cutoff {
            self.breakdown.network.record(steer + to_server + reply);
            self.breakdown.selection.record(selection);
            self.breakdown.server_queue.record(server_queue);
            self.breakdown.service.record(service);
        }

        if is_write {
            if first_completion {
                self.writes_completed += 1;
                if issue_idx >= self.warmup_cutoff {
                    self.write_hist.record(latency);
                }
            }
            return None;
        }

        if first_completion {
            if issue_idx >= self.warmup_cutoff {
                self.hist.record(latency);
            }
            self.track_recovery(now, latency);
        }
        Some(ReplyInfo {
            server: token.server,
            copy_sent_at: token.copy_sent_at,
            status,
            client: client_idx as u32,
            first_completion,
            latency,
        })
    }

    // ---- fault injection ------------------------------------------------

    /// Injects the plan's fault `idx` ([`Ev::Fault`] mechanics). Server,
    /// link, and packet-loss faults are applied here; operator faults are
    /// returned for the cluster to route to the scheme policy.
    pub(crate) fn inject_fault(&mut self, now: SimTime, idx: u32) -> Option<FaultEvent> {
        let ev = {
            let f = self.faults.as_ref()?;
            f.plan.events.get(idx as usize)?.fault
        };
        let steady = if self.hist.count() > 0 {
            Some(self.hist.mean())
        } else {
            None
        };
        let f = self.faults.as_mut().expect("checked above");
        f.faults_injected += 1;
        if f.steady_mean.is_none() {
            f.steady_mean = steady;
        }
        // Recovery is measured from the most recent fault; each new one
        // restarts the observation window.
        f.last_fault_at = Some(now);
        f.recovered_at = None;
        f.window_start = now;
        f.window_sum_ns = 0;
        f.window_count = 0;
        f.window_disrupted = false;
        match ev {
            FaultEvent::ServerCrash { server } => self.crash_server(now, ServerId(server)),
            FaultEvent::ServerRecover { server } => self.servers.recover(now, ServerId(server)),
            FaultEvent::ServerSlowdown { server, factor } => {
                self.servers.set_rate_factor(ServerId(server), factor);
            }
            FaultEvent::LinkFail { link } => self.fabric.fail_link(resolve_link(link)),
            FaultEvent::LinkDegrade { link, factor } => {
                self.fabric.degrade_link(resolve_link(link), factor);
            }
            FaultEvent::LinkRecover { link } => self.fabric.recover_link(resolve_link(link)),
            FaultEvent::PacketLossBurst {
                probability,
                duration,
            } => {
                f.loss_probability = probability;
                f.loss_until = now + duration;
            }
            op @ (FaultEvent::OperatorFail { .. } | FaultEvent::OperatorRecover { .. }) => {
                return Some(op);
            }
        }
        None
    }

    /// Fail-stops a server: queued and in-service copies are lost.
    fn crash_server(&mut self, now: SimTime, server: ServerId) {
        let dropped = self.servers.crash(now, server, &mut self.fabric);
        for copy in dropped {
            self.lose_copy(copy);
        }
    }

    /// Loses an in-flight copy that was already sent: frees its token and
    /// accounts the loss ([`Self::drop_copy`]).
    pub(crate) fn lose_copy(&mut self, copy: CopyId) {
        let req = self.discard_copy(copy).req();
        self.drop_copy(req.0);
    }

    /// Frees a copy's token together with the hops it logged.
    pub(crate) fn discard_copy(&mut self, copy: CopyId) -> ServerToken {
        self.fabric.take_copy_hops(copy);
        self.copies.remove(copy)
    }

    /// Loses one in-flight copy of request `req`. The logical request
    /// survives (the timeout machinery decides its fate) unless it had
    /// already completed and this was its last outstanding copy.
    pub(crate) fn drop_copy(&mut self, req: u64) {
        if let Some(f) = &mut self.faults {
            f.copies_dropped += 1;
            f.disrupt();
        }
        if let Some(state) = self.requests.get_mut(req) {
            state.copies = state.copies.saturating_sub(1);
            if state.copies == 0 && state.completed {
                self.requests.remove(req);
            }
        }
    }

    /// Whether a loss burst is on at `now`: only then does
    /// [`Core::packet_lost`] draw a coin.
    pub(crate) fn in_loss_burst(&self, now: SimTime) -> bool {
        matches!(&self.faults, Some(f) if now < f.loss_until)
    }

    /// Draws the packet-loss-burst coin for one delivery.
    pub(crate) fn packet_lost(&mut self, now: SimTime) -> bool {
        match &mut self.faults {
            Some(f) if now < f.loss_until => f.rng.chance(f.loss_probability),
            _ => false,
        }
    }

    /// [`Ev::RetryCheck`] mechanics: decides whether the request is done,
    /// must be abandoned (counted as a timeout), or should be re-steered.
    pub(crate) fn retry_decision(&mut self, req: ReqId, attempt: u32) -> RetryAction {
        let Some(f) = &mut self.faults else {
            return RetryAction::Done;
        };
        let Some(state) = self.requests.get(req.0) else {
            return RetryAction::Done;
        };
        if state.completed {
            return RetryAction::Done;
        }
        if !state.is_write && attempt < f.plan.retry.max_retries {
            f.retries += 1;
            f.disrupt();
            return RetryAction::Retry {
                rgid: state.rgid,
                primary: state.primary,
            };
        }
        // Writes abandon at their first timeout; reads after exhausting
        // their retries.
        f.timeouts += 1;
        f.disrupt();
        self.requests.remove(req.0);
        RetryAction::Abandon
    }

    /// Feeds one first-completion read latency to the recovery detector:
    /// recovered once a disruption-free window's mean re-enters the
    /// steady-state band.
    fn track_recovery(&mut self, now: SimTime, latency: SimDuration) {
        let Some(f) = &mut self.faults else {
            return;
        };
        if f.last_fault_at.is_none() || f.recovered_at.is_some() {
            return;
        }
        f.fault_hist.record(latency);
        f.window_sum_ns += u128::from(latency.as_nanos());
        f.window_count += 1;
        if now < f.window_start + f.plan.recovery_window {
            return;
        }
        let window_mean_ns = f.window_sum_ns / u128::from(f.window_count);
        let in_band = match f.steady_mean {
            Some(m) => {
                window_mean_ns <= u128::from(m.mul_f64(f.plan.recovery_tolerance).as_nanos())
            }
            // No pre-fault completions to define the band: any clean
            // window counts.
            None => true,
        };
        if !f.window_disrupted && in_band {
            f.recovered_at = Some(now);
        } else {
            f.window_start = now;
            f.window_sum_ns = 0;
            f.window_count = 0;
            f.window_disrupted = false;
        }
    }

    /// The plan's operator-failure detection delay.
    pub(crate) fn detection_delay(&self) -> SimDuration {
        self.faults
            .as_ref()
            .map_or(SimDuration::ZERO, |f| f.plan.detection_delay)
    }

    /// The wait before retry check `attempt + 1`.
    pub(crate) fn retry_backoff(&self, attempt: u32) -> SimDuration {
        self.faults
            .as_ref()
            .map_or(SimDuration::ZERO, |f| f.plan.backoff(attempt))
    }

    /// The run's availability outcome (`None` for fault-free runs).
    pub(crate) fn availability(&self) -> Option<AvailabilityStats> {
        let f = self.faults.as_ref()?;
        Some(AvailabilityStats {
            faults_injected: f.faults_injected,
            timeouts: f.timeouts,
            retries: f.retries,
            duplicate_drops: f.duplicate_drops,
            copies_dropped: f.copies_dropped,
            failed_window_p99: f.fault_hist.value_at_quantile(0.99),
            time_to_recover: match (f.recovered_at, f.last_fault_at) {
                (Some(r), Some(l)) => Some(r.saturating_since(l)),
                _ => None,
            },
        })
    }

    // ---- sampling and results -------------------------------------------

    /// Whether all issued requests have completed and no more will be
    /// issued.
    pub(crate) fn drained(&self) -> bool {
        let quota = self.replica.as_ref().map_or(self.cfg.requests, |r| r.quota);
        self.issued >= quota && self.requests.is_empty()
    }

    /// One sampler tick. `accel_busy_core_ns` and `n_accels` come from
    /// the policy (zero for client schemes), as does the DRS group count.
    pub(crate) fn sample(
        &mut self,
        now: SimTime,
        accel_busy_core_ns: u128,
        n_accels: usize,
        drs_groups: usize,
        queue: &mut EventQueue<Ev>,
    ) {
        let occupancy = self.servers.mean_occupancy();
        let outstanding = self.requests.len() as f64;
        let cores = u128::from(self.cfg.accelerator.cores);
        let Some(s) = self.sampler.as_mut() else {
            return;
        };
        let window_ns = u128::from(now.saturating_since(s.last_tick).as_nanos());
        let capacity = window_ns * cores * n_accels as u128;
        let util = if capacity == 0 {
            0.0
        } else {
            // busy counts scheduled work that may extend past `now`;
            // clamp the window to the physically possible maximum.
            (accel_busy_core_ns.saturating_sub(s.last_busy_core_ns) as f64 / capacity as f64)
                .min(1.0)
        };
        s.last_busy_core_ns = accel_busy_core_ns;
        s.last_tick = now;
        s.series.accel_util.push(now, util);
        s.series.server_occupancy.push(now, occupancy);
        s.series.outstanding.push(now, outstanding);
        s.series.drs_groups.push(now, drs_groups as f64);
        let interval = s.interval;
        if !self.drained() {
            queue.schedule_after(interval, Ev::Sample);
        }
    }

    /// Merges the scheme-independent accounting with the policy's control
    /// statistics into the final [`RunStats`].
    pub(crate) fn stats(&self, now: SimTime, events: u64, control: ControlStats) -> RunStats {
        // The `rw` block exists only for runs that opted into the
        // read/write extension (a cache, or a non-default consistency
        // mode); plain runs — including every pinned golden fixture —
        // keep emitting byte-identical JSON without it.
        let rw = if self.cfg.hot_cache.is_some()
            || self.cfg.write_consistency != WriteConsistency::All
        {
            let cache = control.cache.unwrap_or_default();
            Some(RwStats {
                writes_completed: self.writes_completed,
                cache_hits: cache.hits,
                cache_misses: cache.misses,
                stale_reads: cache.stale_hits,
                cache_evictions: cache.evictions,
                cache_invalidations: cache.invalidations,
            })
        } else {
            None
        };
        RunStats {
            scheme: self.cfg.scheme,
            latency: self.hist.summary(),
            breakdown: self.breakdown.summarize(),
            issued: self.issued,
            completed: self.completed,
            duplicates: self.duplicates,
            rsnode_count: control.rsnode_census.iter().sum(),
            rsnode_census: control.rsnode_census,
            drs_groups: control.drs_groups,
            mean_accel_utilization: control.mean_accel_utilization,
            max_accel_utilization: control.max_accel_utilization,
            mean_selection_wait: control.mean_selection_wait,
            mean_server_utilization: self.servers.mean_utilization(now),
            replans: self.replans,
            writes_issued: self.writes_issued,
            write_latency: self.write_hist.summary(),
            overload_events: self.overload_events,
            sim_end: now,
            events,
            availability: self.availability(),
            rw,
            // The runner attaches the window accounting for multi-shard
            // runs; single-shard stats stay byte-identical without it.
            parallel: None,
        }
    }
}

/// Resolves a plan's symbolic link name to a concrete fat-tree link.
fn resolve_link(l: LinkRef) -> Link {
    match l {
        LinkRef::HostUplink { host } => Link::uplink(HostId(host)),
        LinkRef::SwitchLink { a, b } => Link::between(SwitchId(a), SwitchId(b)),
    }
}
