//! The emulated data center: switch threads, server threads and a client
//! driver, all speaking byte-exact NetRS over loopback UDP.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use netrs::{ControllerConfig, NetRsController, PlanSolver, TrafficGroups, TrafficMatrix};
use netrs_kvstore::{Ring, ServerId, ServerStatus};
use netrs_netdev::{IngressAction, NetRsRules, PacketMeta};
use netrs_selection::{C3Config, C3Selector, Feedback, ReplicaSelector};
use netrs_simcore::{Histogram, SimDuration, SimRng, SimTime};
use netrs_topology::{FatTree, HostId, LinkSet, SwitchId};
use netrs_wire::{classify, MagicField, PacketKind, RequestHeader, ResponseHeader, Rgid, RsnodeId};

use crate::frame::EmuFrame;

/// Emulation parameters.
#[derive(Debug, Clone)]
pub struct EmuConfig {
    /// Fat-tree arity (keep small: every switch is a thread).
    pub arity: u32,
    /// Number of storage servers.
    pub servers: u32,
    /// Number of client hosts.
    pub clients: u32,
    /// Replication factor.
    pub replication: u32,
    /// Virtual nodes per server.
    pub vnodes: u32,
    /// Key-space size.
    pub keys: u64,
    /// Mean (exponential) service time slept by servers.
    pub mean_service: Duration,
    /// Traffic groups forced into Degraded Replica Selection, to
    /// exercise the §III-C path.
    pub drs_groups: Vec<u32>,
    /// Random seed (placement, ring, service times, selection).
    pub seed: u64,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            arity: 4,
            servers: 4,
            clients: 2,
            replication: 2,
            vnodes: 16,
            keys: 10_000,
            mean_service: Duration::from_micros(200),
            drs_groups: Vec::new(),
            seed: 1,
        }
    }
}

/// Shared observability counters, updated by the switch threads.
#[derive(Debug, Default)]
pub struct Counters {
    /// Replica selections performed at RSNodes.
    pub selections: AtomicU64,
    /// Response clones processed at RSNodes.
    pub clones: AtomicU64,
    /// Requests demoted to Degraded Replica Selection.
    pub drs: AtomicU64,
    /// Frames forwarded by switches.
    pub forwarded: AtomicU64,
}

/// Results of [`EmuCluster::run_workload`].
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub completed: u64,
    /// Responses that took the DRS path (illegal RSNode ID).
    pub drs_responses: u64,
    /// Round-trip latency distribution.
    pub rtt: netrs_simcore::Summary,
    /// Replica selections observed at RSNodes.
    pub selections: u64,
    /// Response clones observed at RSNodes.
    pub clones: u64,
}

struct AddressBook {
    switch_addr: Vec<SocketAddr>,
    host_addr: HashMap<u32, SocketAddr>,
}

impl AddressBook {
    fn of_switch(&self, sw: SwitchId) -> SocketAddr {
        self.switch_addr[sw.0 as usize]
    }
}

/// A running loopback emulation.
pub struct EmuCluster {
    cfg: EmuConfig,
    topo: FatTree,
    ring: Arc<Ring>,
    client_hosts: Vec<HostId>,
    server_host_of: Arc<HashMap<u32, u32>>, // ServerId.0 -> HostId.0
    book: Arc<AddressBook>,
    counters: Arc<Counters>,
    client_sockets: Vec<UdpSocket>,
    threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    plan_rsnodes: usize,
}

const RECV_TIMEOUT: Duration = Duration::from_millis(50);

fn bind() -> io::Result<UdpSocket> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    sock.set_read_timeout(Some(RECV_TIMEOUT))?;
    Ok(sock)
}

impl EmuCluster {
    /// Binds every socket, plans RSNode placement, deploys rules and
    /// spawns one thread per switch and per server.
    ///
    /// # Errors
    ///
    /// Returns any socket-setup error.
    ///
    /// # Panics
    ///
    /// Panics if the configuration places more hosts than the topology
    /// has, or violates ring invariants.
    pub fn start(cfg: EmuConfig) -> io::Result<Self> {
        let topo = FatTree::new(cfg.arity).expect("even arity");
        assert!(
            cfg.servers + cfg.clients <= topo.num_hosts(),
            "too many hosts for the topology"
        );
        let mut rng = SimRng::from_seed(cfg.seed);
        let picks = rng.sample_indices(
            topo.num_hosts() as usize,
            (cfg.servers + cfg.clients) as usize,
        );
        let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
        let server_hosts: Vec<HostId> = hosts[..cfg.servers as usize].to_vec();
        let client_hosts: Vec<HostId> = hosts[cfg.servers as usize..].to_vec();
        let server_host_of: Arc<HashMap<u32, u32>> = Arc::new(
            server_hosts
                .iter()
                .enumerate()
                .map(|(i, h)| (i as u32, h.0))
                .collect(),
        );

        let ring = Arc::new(
            Ring::new(cfg.servers, cfg.vnodes, cfg.replication, cfg.seed).expect("valid ring"),
        );

        // Plan placement and deploy rules exactly as the controller does.
        let groups = TrafficGroups::rack_level(&topo, &client_hosts);
        let rates: Vec<(HostId, f64)> = client_hosts.iter().map(|&h| (h, 1_000.0)).collect();
        let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &server_hosts);
        let mut controller = NetRsController::new(topo.clone(), ControllerConfig::default());
        let mut rsp = controller
            .plan(&groups, &traffic, PlanSolver::Exact { node_limit: 10_000 })
            .clone();
        for &g in &cfg.drs_groups {
            rsp.assignment.remove(&g);
            rsp.drs.insert(g);
        }
        let plan_rsnodes = rsp.rsnodes().len();
        let rsnodes = rsp.rsnodes();
        controller.install(rsp);
        let rules = controller.deploy(&groups);

        // Bind sockets: one per switch, one per host.
        let mut switch_sockets = Vec::new();
        let mut switch_addr = Vec::new();
        for _ in topo.switches() {
            let s = bind()?;
            switch_addr.push(s.local_addr()?);
            switch_sockets.push(s);
        }
        let mut host_addr = HashMap::new();
        let mut server_sockets = Vec::new();
        for (i, h) in server_hosts.iter().enumerate() {
            let s = bind()?;
            host_addr.insert(h.0, s.local_addr()?);
            server_sockets.push((ServerId(i as u32), *h, s));
        }
        let mut client_sockets = Vec::new();
        for h in &client_hosts {
            let s = bind()?;
            host_addr.insert(h.0, s.local_addr()?);
            client_sockets.push(s);
        }
        let book = Arc::new(AddressBook {
            switch_addr,
            host_addr,
        });

        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let mut threads = Vec::new();

        // Switch threads.
        for (idx, socket) in switch_sockets.into_iter().enumerate() {
            let sw = SwitchId(idx as u32);
            let ctx = SwitchCtx {
                sw,
                rules: rules[&sw].clone(),
                selector: rsnodes.contains(&sw).then(|| {
                    C3Selector::new(
                        C3Config::default(),
                        SimRng::from_seed(cfg.seed ^ (0xACCE1 + u64::from(sw.0))),
                    )
                }),
                topo: topo.clone(),
                ring: Arc::clone(&ring),
                server_host_of: Arc::clone(&server_host_of),
                book: Arc::clone(&book),
                counters: Arc::clone(&counters),
                shutdown: Arc::clone(&shutdown),
                epoch: Instant::now(),
                pending: HashMap::new(),
            };
            threads.push(std::thread::spawn(move || switch_loop(socket, ctx)));
        }

        // Server threads.
        for (sid, host, socket) in server_sockets {
            let book = Arc::clone(&book);
            let topo2 = topo.clone();
            let shutdown2 = Arc::clone(&shutdown);
            let mean = cfg.mean_service;
            let mut srng = SimRng::from_seed(cfg.seed ^ (0x5E4 + u64::from(sid.0)));
            threads.push(std::thread::spawn(move || {
                server_loop(
                    socket, sid, host, &topo2, &book, &shutdown2, mean, &mut srng,
                );
            }));
        }

        Ok(EmuCluster {
            cfg,
            topo,
            ring,
            client_hosts,
            server_host_of,
            book,
            counters,
            client_sockets,
            threads,
            shutdown,
            plan_rsnodes,
        })
    }

    /// Number of RSNodes in the deployed plan.
    #[must_use]
    pub fn rsnodes(&self) -> usize {
        self.plan_rsnodes
    }

    /// The shared observability counters.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Sends `n` requests (round-robin over the client hosts, one
    /// outstanding at a time) and collects their responses.
    ///
    /// # Errors
    ///
    /// Returns socket errors; a response that does not arrive within the
    /// timeout is counted as lost, not an error.
    pub fn run_workload(&self, n: u64) -> io::Result<WorkloadReport> {
        let mut rng = SimRng::from_seed(self.cfg.seed ^ 0xC11E57);
        let mut hist = Histogram::new();
        let mut completed = 0u64;
        let mut drs_responses = 0u64;
        let mut buf = vec![0u8; 65_536];

        for i in 0..n {
            let c = (i % self.client_sockets.len() as u64) as usize;
            let socket = &self.client_sockets[c];
            let my_host = self.client_hosts[c];
            let key = rng.below(self.cfg.keys);
            let rgid = self.ring.group_of_key(key);
            let replicas = self.ring.groups().replicas(rgid);
            let backup = replicas[rng.index(replicas.len())];
            let backup_host = self.server_host_of[&backup.0];

            let header = RequestHeader {
                rid: RsnodeId(0),
                magic: MagicField::REQUEST,
                rv: (i & 0xFFFF) as u16,
                rgid: Rgid::new(rgid).expect("group ids fit 3 bytes"),
            };
            let body = header.encode(&i.to_be_bytes());
            let frame = EmuFrame {
                src: my_host.0,
                dst: backup_host,
                route: vec![],
                body,
            };
            let tor = self.topo.tor_of_host(my_host);
            let started = Instant::now();
            socket.send_to(&frame.encode(), self.book.of_switch(tor))?;

            // Await this request's response (responses carry the request
            // index in their payload).
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match socket.recv_from(&mut buf) {
                    Ok((len, _)) => {
                        let Ok(resp) = EmuFrame::decode(&buf[..len]) else {
                            continue;
                        };
                        let Ok((hdr, payload)) = ResponseHeader::decode(&resp.body) else {
                            continue;
                        };
                        if payload.len() == 8
                            && u64::from_be_bytes(payload[..8].try_into().expect("len checked"))
                                == i
                        {
                            completed += 1;
                            if !hdr.rid.is_legal() {
                                drs_responses += 1;
                            }
                            hist.record(SimDuration::from_nanos(
                                started.elapsed().as_nanos() as u64
                            ));
                            break;
                        }
                    }
                    Err(ref e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if Instant::now() > deadline {
                            break; // counted as lost
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        Ok(WorkloadReport {
            sent: n,
            completed,
            drs_responses,
            rtt: hist.summary(),
            selections: self.counters.selections.load(Ordering::Relaxed),
            clones: self.counters.clones.load(Ordering::Relaxed),
        })
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EmuCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

struct SwitchCtx {
    sw: SwitchId,
    rules: NetRsRules,
    selector: Option<C3Selector>,
    topo: FatTree,
    ring: Arc<Ring>,
    server_host_of: Arc<HashMap<u32, u32>>,
    book: Arc<AddressBook>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
    /// Outstanding requests this RSNode selected for: request id →
    /// selection instant (the RV/retaining-value mechanism of §IV-A).
    pending: HashMap<u64, Instant>,
}

impl SwitchCtx {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Sends a frame one hop: to the next switch on its route, or to its
    /// destination host when the route is exhausted.
    fn emit(&self, socket: &UdpSocket, frame: &EmuFrame) {
        let target = match frame.route.first() {
            Some(&hop) => self.book.of_switch(SwitchId(u32::from(hop))),
            None => match self.book.host_addr.get(&frame.dst) {
                Some(&addr) => addr,
                None => return, // host unknown: drop
            },
        };
        let _ = socket.send_to(&frame.encode(), target);
        self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
    }

    fn route_to_host(&self, dst: HostId, hash: u64) -> Vec<u16> {
        self.topo
            .path_switch_to_host(self.sw, dst, hash, &LinkSet::new())
            .expect("the emulated fabric has no dead links")
            .into_iter()
            .map(|s| s.0 as u16)
            .collect()
    }

    fn route_via_to_host(&self, via: SwitchId, dst: HostId, hash: u64) -> Vec<u16> {
        // From this switch, head to `via` is only precomputable when we
        // are the ingress ToR: path_via covers host→host; drop our own
        // leading entry.
        let src_host = self
            .topo
            .hosts_in_rack(self.sw.0)
            .next()
            .expect("tor has hosts");
        let full = self
            .topo
            .path_via(src_host, via, dst, hash, &LinkSet::new())
            .expect("the emulated fabric has no dead links");
        full.into_iter()
            .skip(1) // ourselves
            .map(|s| s.0 as u16)
            .collect()
    }
}

fn switch_loop(socket: UdpSocket, mut ctx: SwitchCtx) {
    let mut buf = vec![0u8; 65_536];
    while !ctx.shutdown.load(Ordering::SeqCst) {
        let (len, sender) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let Ok(mut frame) = EmuFrame::decode(&buf[..len]) else {
            continue;
        };
        // Pop ourselves off the source route.
        if frame.route.first() == Some(&(ctx.sw.0 as u16)) {
            frame.route.remove(0);
        }
        let from_host = ctx
            .book
            .host_addr
            .get(&frame.src)
            .is_some_and(|&a| a == sender);

        match classify(&frame.body) {
            PacketKind::NetRsRequest => handle_request(&socket, &mut ctx, frame, from_host),
            PacketKind::NetRsResponse => handle_response(&socket, &mut ctx, frame, from_host),
            _ => ctx.emit(&socket, &frame),
        }
    }
}

fn handle_request(socket: &UdpSocket, ctx: &mut SwitchCtx, mut frame: EmuFrame, from_host: bool) {
    let body = std::mem::take(&mut frame.body);
    let Ok((hdr, payload)) = RequestHeader::decode(&body) else {
        return;
    };
    let mut meta = PacketMeta::Request {
        rid: hdr.rid,
        magic: hdr.magic,
        rgid: hdr.rgid.value(),
        src_host: frame.src,
        dst_host: frame.dst,
    };
    let action = ctx.rules.ingress(&mut meta, from_host);
    let PacketMeta::Request { rid, magic, .. } = meta else {
        unreachable!("request stays a request");
    };
    let rebuilt = RequestHeader {
        rid,
        magic,
        rv: hdr.rv,
        rgid: hdr.rgid,
    };
    frame.body = rebuilt.encode(payload);

    match action {
        IngressAction::Forward => {
            // DRS (or already-demoted) request: straight to the backup.
            ctx.counters.drs.fetch_add(1, Ordering::Relaxed);
            if from_host {
                frame.route = ctx.route_to_host(HostId(frame.dst), frame.src.into());
            }
            ctx.emit(socket, &frame);
        }
        IngressAction::ForwardTowardRsnode(rid) => {
            if from_host {
                // We are the stamping ToR: lay the source route via the
                // RSNode's switch.
                let via = SwitchId(u32::from(rid.0) - 1);
                frame.route = ctx.route_via_to_host(via, HostId(frame.dst), u64::from(frame.src));
            }
            ctx.emit(socket, &frame);
        }
        IngressAction::ToAccelerator => {
            // We are the RSNode: run the selector and rebuild the packet.
            let now = ctx.now();
            let Some(selector) = ctx.selector.as_mut() else {
                return; // no selector deployed: drop (mirrors a fault)
            };
            let Some(replicas) = ctx.ring.groups().get(hdr.rgid.value()) else {
                return;
            };
            let target = selector.select(replicas, now);
            selector.on_send(target, now);
            ctx.counters.selections.fetch_add(1, Ordering::Relaxed);
            if payload.len() == 8 {
                let id = u64::from_be_bytes(payload[..8].try_into().expect("len checked"));
                ctx.pending.insert(id, Instant::now());
            }
            let target_host = ctx.server_host_of[&target.0];
            let rebuilt = RequestHeader {
                rid,
                magic: MagicField::RESPONSE.f(),
                rv: hdr.rv,
                rgid: hdr.rgid,
            };
            frame.dst = target_host;
            frame.body = rebuilt.encode(payload);
            frame.route = ctx.route_to_host(HostId(target_host), u64::from(frame.src));
            ctx.emit(socket, &frame);
        }
        IngressAction::CloneToAcceleratorAndForward => unreachable!("requests are never cloned"),
    }
}

fn handle_response(socket: &UdpSocket, ctx: &mut SwitchCtx, mut frame: EmuFrame, from_host: bool) {
    let body = std::mem::take(&mut frame.body);
    let Ok((hdr, payload)) = ResponseHeader::decode(&body) else {
        return;
    };
    let mut meta = PacketMeta::Response {
        rid: hdr.rid,
        magic: hdr.magic,
        sm: hdr.sm,
        src_host: frame.src,
        dst_host: frame.dst,
    };
    let action = ctx.rules.ingress(&mut meta, from_host);
    let PacketMeta::Response { magic, sm, .. } = meta else {
        unreachable!("response stays a response");
    };
    let rebuilt = ResponseHeader {
        rid: hdr.rid,
        magic,
        rv: hdr.rv,
        sm,
        status: hdr.status.clone(),
    };
    frame.body = rebuilt.encode(payload);

    match action {
        IngressAction::ForwardTowardRsnode(rid) => {
            if from_host {
                let via = SwitchId(u32::from(rid.0) - 1);
                frame.route = ctx.route_via_to_host(via, HostId(frame.dst), u64::from(frame.src));
            }
            ctx.emit(socket, &frame);
        }
        IngressAction::CloneToAcceleratorAndForward => {
            // We are the RSNode: fold the clone into the selector, then
            // forward the (now M_mon) original.
            ctx.counters.clones.fetch_add(1, Ordering::Relaxed);
            let now = ctx.now();
            if let (Some(selector), Ok(status)) =
                (ctx.selector.as_mut(), ServerStatus::decode(&hdr.status))
            {
                let latency = payload
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_be_bytes)
                    .and_then(|id| ctx.pending.remove(&id))
                    .map_or(SimDuration::ZERO, |t0| {
                        SimDuration::from_nanos(t0.elapsed().as_nanos() as u64)
                    });
                // Identify the server from the source marker's rack.
                let server = ctx
                    .server_host_of
                    .iter()
                    .find(|&(_, &h)| {
                        ctx.topo.rack_of_host(HostId(h)) == u32::from(sm.rack) && h == frame.src
                    })
                    .map(|(&sid, _)| ServerId(sid));
                if let Some(server) = server {
                    selector.on_response(
                        &Feedback {
                            server,
                            queue_len: status.queue_len,
                            service_time: status.service_time(),
                            latency,
                        },
                        now,
                    );
                }
            }
            if from_host {
                frame.route = ctx.route_to_host(HostId(frame.dst), u64::from(frame.src));
            }
            ctx.emit(socket, &frame);
        }
        IngressAction::Forward | IngressAction::ToAccelerator => {
            // Monitored/foreign responses just continue; ToRs stamped the
            // marker already inside `ingress`.
            if from_host && frame.route.is_empty() {
                frame.route = ctx.route_to_host(HostId(frame.dst), u64::from(frame.src));
            }
            ctx.emit(socket, &frame);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn server_loop(
    socket: UdpSocket,
    _sid: ServerId,
    host: HostId,
    topo: &FatTree,
    book: &AddressBook,
    shutdown: &AtomicBool,
    mean_service: Duration,
    rng: &mut SimRng,
) {
    let mut buf = vec![0u8; 65_536];
    let mut svc_ewma_ns = mean_service.as_nanos() as f64;
    let tor_addr = book.of_switch(topo.tor_of_host(host));
    while !shutdown.load(Ordering::SeqCst) {
        let (len, _) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let Ok(frame) = EmuFrame::decode(&buf[..len]) else {
            continue;
        };
        let Ok((req, payload)) = RequestHeader::decode(&frame.body) else {
            continue;
        };
        // Serve: exponential "storage access".
        let service = rng.exp(mean_service.as_nanos() as f64);
        std::thread::sleep(Duration::from_nanos(service as u64));
        svc_ewma_ns = 0.9 * svc_ewma_ns + 0.1 * service;

        // §IV-C: the response's magic is f⁻¹ of the request's.
        let response = ResponseHeader {
            rid: req.rid,
            magic: req.magic.f_inv(),
            rv: req.rv,
            sm: Default::default(), // stamped by our ToR
            status: ServerStatus {
                queue_len: 0,
                service_time_ns: svc_ewma_ns as u64,
            }
            .encode()
            .to_vec(),
        };
        let reply = EmuFrame {
            src: host.0,
            dst: frame.src,
            route: vec![],
            body: response.encode(payload),
        };
        let _ = socket.send_to(&reply.encode(), tor_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_netrs_round_trip() {
        let cluster = EmuCluster::start(EmuConfig::default()).expect("bind loopback");
        assert!(cluster.rsnodes() >= 1);
        let report = cluster.run_workload(60).expect("workload");
        assert_eq!(report.completed, 60, "no UDP loss expected on loopback");
        assert_eq!(report.drs_responses, 0);
        assert!(report.selections >= 60, "every request passes a selector");
        assert!(report.clones >= 55, "responses are cloned at the RSNode");
        assert!(report.rtt.mean >= SimDuration::from_micros(50));
        cluster.shutdown();
    }

    #[test]
    fn drs_groups_bypass_selection() {
        let cfg = EmuConfig {
            // Force every group into DRS: all traffic takes the backup.
            drs_groups: (0..8).collect(),
            ..EmuConfig::default()
        };
        let cluster = EmuCluster::start(cfg).expect("bind loopback");
        let report = cluster.run_workload(40).expect("workload");
        assert_eq!(report.completed, 40);
        assert_eq!(
            report.drs_responses, 40,
            "all responses carry the illegal RID"
        );
        assert_eq!(report.selections, 0, "no selector ever ran");
        cluster.shutdown();
    }

    #[test]
    fn workload_is_spread_across_clients() {
        let cfg = EmuConfig {
            clients: 3,
            ..EmuConfig::default()
        };
        let cluster = EmuCluster::start(cfg).expect("bind loopback");
        let report = cluster.run_workload(30).expect("workload");
        assert_eq!(report.completed, 30);
        cluster.shutdown();
    }
}
