//! End-to-end integration tests spanning the whole workspace: wire
//! formats through switch rules through full-cluster simulations.

use netrs::{ControllerConfig, NetRsController, PlanSolver, Rsp, TrafficGroups, TrafficMatrix};
use netrs_netdev::{IngressAction, PacketMeta};
use netrs_sim::{run, Cluster, PlanSource, Scheme, SimConfig};
use netrs_simcore::{Engine, SimDuration, SimTime};
use netrs_topology::{FatTree, HostId};
use netrs_wire::{
    classify, MagicField, PacketKind, RequestHeader, ResponseHeader, Rgid, RsnodeId, SourceMarker,
};

fn small(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.scheme = scheme;
    cfg.requests = 3_000;
    cfg.seed = 5;
    cfg
}

/// Walks one request and its response through the *byte-exact* wire
/// format and the deployed switch rules, mirroring Fig. 3 end to end.
#[test]
fn wire_and_rules_agree_end_to_end() {
    let topo = FatTree::new(4).unwrap();
    let clients = [HostId(0), HostId(1)];
    let servers: Vec<HostId> = (8..14).map(HostId).collect();
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 100.0)).collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);

    let mut controller = NetRsController::new(topo.clone(), ControllerConfig::default());
    controller.plan(&groups, &traffic, PlanSolver::Exact { node_limit: 10_000 });
    let rules = controller.deploy(&groups);

    // 1. The client serializes a request (backup replica as UDP dest).
    let hdr = RequestHeader {
        rid: RsnodeId(0),
        magic: MagicField::REQUEST,
        rv: 0,
        rgid: Rgid::new(0).unwrap(),
    };
    let bytes = hdr.encode(b"GET key-42");
    assert_eq!(classify(&bytes), PacketKind::NetRsRequest);

    // 2. The client's ToR parses it and applies its NetRS rules.
    let (parsed, _) = RequestHeader::decode(&bytes).unwrap();
    let mut pkt = PacketMeta::Request {
        rid: parsed.rid,
        magic: parsed.magic,
        rgid: parsed.rgid.value(),
        src_host: 0,
        dst_host: 8,
    };
    let tor = topo.tor_of_host(HostId(0));
    let action = rules[&tor].ingress(&mut pkt, true);
    let PacketMeta::Request { rid, .. } = pkt else {
        panic!()
    };
    let assigned = controller.current_plan().assignment[&0];
    assert_eq!(
        controller.switch_of_rsnode(rid),
        Some(assigned),
        "ToR must stamp the planned RSNode"
    );
    match action {
        IngressAction::ToAccelerator => assert_eq!(assigned, tor),
        IngressAction::ForwardTowardRsnode(r) => assert_eq!(r, rid),
        other => panic!("unexpected action {other:?}"),
    }

    // 3. At the RSNode's switch the request enters the accelerator.
    let mut at_rsnode = pkt;
    let action = rules[&assigned].ingress(&mut at_rsnode, assigned == tor);
    if assigned != tor {
        assert_eq!(action, IngressAction::ToAccelerator);
    }

    // 4. The selector rebuilds the packet as non-NetRS (magic f(M_resp))
    //    and the server answers with f-inverse of what it saw -> M_resp.
    let request_magic_at_server = MagicField::RESPONSE.f();
    assert_eq!(request_magic_at_server.kind(), PacketKind::Other);
    let response_magic = request_magic_at_server.f_inv();
    assert_eq!(response_magic, MagicField::RESPONSE);

    // 5. The server serializes the response; its ToR stamps the marker.
    let resp = ResponseHeader {
        rid,
        magic: response_magic,
        rv: 0,
        sm: SourceMarker::default(),
        status: netrs_kvstore::ServerStatus {
            queue_len: 3,
            service_time_ns: 4_000_000,
        }
        .encode()
        .to_vec(),
    };
    let resp_bytes = resp.encode(b"value");
    assert_eq!(classify(&resp_bytes), PacketKind::NetRsResponse);
    let (rh, _) = ResponseHeader::decode(&resp_bytes).unwrap();
    let mut rpkt = PacketMeta::Response {
        rid: rh.rid,
        magic: rh.magic,
        sm: rh.sm,
        src_host: 8,
        dst_host: 0,
    };
    let server_tor = topo.tor_of_host(HostId(8));
    let action = rules[&server_tor].ingress(&mut rpkt, true);
    let PacketMeta::Response { sm, .. } = rpkt else {
        panic!()
    };
    assert_eq!(u32::from(sm.rack), topo.rack_of_host(HostId(8)));
    // If the server's ToR happens to be the RSNode it clones right here;
    // otherwise the response is steered toward the RSNode.
    if server_tor == assigned {
        assert_eq!(action, IngressAction::CloneToAcceleratorAndForward);
    } else {
        assert_eq!(action, IngressAction::ForwardTowardRsnode(rid));
        // 6. At the RSNode: clone to the accelerator, relabel as M_mon.
        let action = rules[&assigned].ingress(&mut rpkt, false);
        assert_eq!(action, IngressAction::CloneToAcceleratorAndForward);
    }
    let PacketMeta::Response { magic, .. } = rpkt else {
        panic!()
    };
    assert_eq!(magic, MagicField::MONITORED, "monitors can count it now");

    // 7. The piggybacked status survives the byte round trip.
    let status = netrs_kvstore::ServerStatus::decode(&rh.status).unwrap();
    assert_eq!(status.queue_len, 3);
    assert_eq!(status.service_time().as_millis_f64(), 4.0);
}

#[test]
fn every_scheme_completes_and_reports_sane_latency() {
    for scheme in Scheme::ALL {
        let stats = run(small(scheme));
        assert_eq!(stats.issued, 3_000, "{scheme}");
        assert_eq!(stats.completed, 3_000, "{scheme}");
        let l = &stats.latency;
        assert!(l.count > 0, "{scheme}");
        assert!(
            l.mean >= SimDuration::from_micros(60),
            "{scheme}: network floor"
        );
        assert!(l.p95 >= l.p50, "{scheme}");
        assert!(l.p99 >= l.p95, "{scheme}");
        assert!(l.p999 >= l.p99, "{scheme}");
        assert!(l.max >= l.p999, "{scheme}");
        if scheme.is_in_network() {
            assert!(stats.rsnode_count > 0, "{scheme}");
            assert!(stats.mean_accel_utilization > 0.0, "{scheme}");
        } else {
            assert_eq!(stats.rsnode_count, 0, "{scheme}");
        }
    }
}

#[test]
fn r95_sends_duplicates_only_in_r95_scheme() {
    let base = run(small(Scheme::CliRs));
    assert_eq!(base.duplicates, 0);
    let mut cfg = small(Scheme::CliRsR95);
    cfg.requests = 8_000;
    let r95 = run(cfg);
    assert!(
        r95.duplicates > 0,
        "R95 must hedge some requests at 90% utilization"
    );
    assert!(
        r95.duplicates < r95.issued / 2,
        "hedging should stay a small fraction, got {}",
        r95.duplicates
    );
}

#[test]
fn monitored_plan_source_replans_from_measurements() {
    let mut cfg = small(Scheme::NetRsIlp);
    cfg.requests = 20_000;
    cfg.plan_source = PlanSource::Monitored {
        interval: SimDuration::from_millis(500),
    };
    let stats = run(cfg);
    assert_eq!(stats.completed, 20_000);
    assert!(stats.replans > 0, "controller should have re-planned");
    assert!(
        stats.rsnode_count > 0,
        "final plan still has RSNodes: {stats:?}"
    );
}

#[test]
fn operator_failure_mid_run_engages_drs_and_loses_nothing() {
    let mut cfg = small(Scheme::NetRsToR);
    cfg.requests = 10_000;
    let mut engine = Engine::new(Cluster::new(cfg));
    let mut queue = std::mem::take(engine.queue_mut());
    engine.world_mut().prime(&mut queue);
    *engine.queue_mut() = queue;

    engine.run_until(SimTime::ZERO + SimDuration::from_millis(300));
    let victim = engine
        .world()
        .current_plan()
        .unwrap()
        .rsnodes()
        .into_iter()
        .next()
        .unwrap();
    let affected = engine
        .world_mut()
        .fail_operator(victim)
        .expect("NetRS schemes have in-network operators");
    assert!(!affected.is_empty());
    engine.run();
    let cluster = engine.into_world();
    assert_eq!(cluster.completed(), cluster.issued());
    let plan = cluster.current_plan().unwrap();
    assert!(!plan.drs.is_empty());
    assert!(!plan.rsnodes().contains(&victim));
}

#[test]
fn tor_plan_and_ilp_plan_agree_on_coverage() {
    let topo = FatTree::new(4).unwrap();
    let clients = [HostId(0), HostId(2), HostId(5), HostId(13)];
    let groups = TrafficGroups::rack_level(&topo, &clients);
    let tor = Rsp::tor_plan(&groups);
    assert_eq!(tor.assignment.len(), groups.len());
    let servers: Vec<HostId> = (8..12).map(HostId).collect();
    let rates: Vec<(HostId, f64)> = clients.iter().map(|&h| (h, 100.0)).collect();
    let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
    let mut controller = NetRsController::new(topo, ControllerConfig::default());
    let ilp = controller
        .plan(&groups, &traffic, PlanSolver::Exact { node_limit: 10_000 })
        .clone();
    assert_eq!(ilp.assignment.len(), groups.len());
    assert!(
        ilp.rsnodes().len() <= tor.rsnodes().len(),
        "the ILP never needs more RSNodes than one-per-rack"
    );
}

#[test]
fn write_mix_completes_and_loads_all_replicas() {
    let mut cfg = small(Scheme::CliRs);
    cfg.write_fraction = 0.3;
    cfg.requests = 6_000;
    let stats = run(cfg.clone());
    assert_eq!(stats.completed, 6_000);
    assert!(
        stats.writes_issued > 1_200 && stats.writes_issued < 2_400,
        "~30% writes expected, got {}",
        stats.writes_issued
    );
    assert!(stats.write_latency.count > 0);
    // A write waits for its slowest replica: write latency dominates the
    // read mean.
    assert!(
        stats.write_latency.mean > stats.latency.mean,
        "write mean {} vs read mean {}",
        stats.write_latency.mean,
        stats.latency.mean
    );

    // Writes work identically as plain traffic under NetRS.
    cfg.scheme = Scheme::NetRsIlp;
    let stats = run(cfg);
    assert_eq!(stats.completed, 6_000);
    assert!(stats.write_latency.count > 0);
}

#[test]
fn overloaded_operator_degrades_to_drs() {
    let mut cfg = small(Scheme::NetRsToR);
    cfg.requests = 8_000;
    // A pathologically slow accelerator: selections take 2 ms, so any
    // RSNode with traffic overloads almost immediately.
    cfg.accelerator.service_time = SimDuration::from_millis(2);
    cfg.overload = Some(netrs_sim::OverloadPolicy {
        interval: SimDuration::from_millis(50),
        utilization_limit: 0.5,
    });
    let stats = run(cfg);
    assert_eq!(stats.completed, 8_000, "DRS keeps every request served");
    assert!(
        stats.overload_events > 0,
        "the overload detector must have fired: {stats:?}"
    );
    assert!(stats.drs_groups > 0, "groups must have degraded");

    // Without the policy the same setup still completes (slowly), with
    // zero overload events.
    let mut cfg = small(Scheme::NetRsToR);
    cfg.requests = 8_000;
    cfg.accelerator.service_time = SimDuration::from_millis(2);
    let stats = run(cfg);
    assert_eq!(stats.overload_events, 0);
    assert_eq!(stats.drs_groups, 0);
}
