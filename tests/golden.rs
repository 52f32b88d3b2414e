//! Golden-file tests for the observability JSONL schemas.
//!
//! Offline tooling (`netrs-analyze`, notebooks, CI diffs) parses these
//! lines by key, so the exact serialized form — key names, key order,
//! number formatting, and the optionality of `hops` — is a public
//! contract. These tests pin it byte for byte: a failing golden here
//! means a schema break that every downstream consumer will see.

use netrs_sim::{
    CacheRecord, ControlRecord, DeviceRecord, DisplacedGroup, DrsSpanRecord, HopSpan,
    PlanEventRecord, SamplePoint, SnapshotGroup, SnapshotRecord, SolveRecord, TraceRecord,
};

/// A control line is always written through [`ControlRecord`], which
/// stamps the `kind` tag; the record structs themselves parse from the
/// same line and ignore it.
fn control_line(rec: ControlRecord) -> String {
    serde_json::to_string(&rec).unwrap()
}

fn trace_record() -> TraceRecord {
    TraceRecord {
        req: 42,
        server: 3,
        first: true,
        write: false,
        issued_ns: 1_000,
        received_ns: 601_000,
        steer_ns: 90_000,
        selection_ns: 40_000,
        selection_wait_ns: 10_000,
        to_server_ns: 60_000,
        server_queue_ns: 0,
        service_ns: 350_000,
        reply_ns: 60_000,
        e2e_ns: 600_000,
        hops: Vec::new(),
    }
}

#[test]
fn trace_record_without_hops_matches_golden() {
    let golden = concat!(
        "{\"req\":42,\"server\":3,\"first\":true,\"write\":false,",
        "\"issued_ns\":1000,\"received_ns\":601000,",
        "\"steer_ns\":90000,\"selection_ns\":40000,\"selection_wait_ns\":10000,",
        "\"to_server_ns\":60000,\"server_queue_ns\":0,\"service_ns\":350000,",
        "\"reply_ns\":60000,\"e2e_ns\":600000}"
    );
    let record = trace_record();
    assert_eq!(serde_json::to_string(&record).unwrap(), golden);
    let back: TraceRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
}

#[test]
fn trace_record_with_hops_matches_golden() {
    let mut record = trace_record();
    record.hops = vec![
        HopSpan {
            dev: "client:0".into(),
            arrive_ns: 1_000,
            depart_ns: 1_000,
        },
        HopSpan {
            dev: "link:h0>s0".into(),
            arrive_ns: 1_000,
            depart_ns: 31_000,
        },
    ];
    let golden = concat!(
        "{\"req\":42,\"server\":3,\"first\":true,\"write\":false,",
        "\"issued_ns\":1000,\"received_ns\":601000,",
        "\"steer_ns\":90000,\"selection_ns\":40000,\"selection_wait_ns\":10000,",
        "\"to_server_ns\":60000,\"server_queue_ns\":0,\"service_ns\":350000,",
        "\"reply_ns\":60000,\"e2e_ns\":600000,\"hops\":[",
        "{\"dev\":\"client:0\",\"arrive_ns\":1000,\"depart_ns\":1000},",
        "{\"dev\":\"link:h0>s0\",\"arrive_ns\":1000,\"depart_ns\":31000}]}"
    );
    assert_eq!(serde_json::to_string(&record).unwrap(), golden);
    let back: TraceRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
}

#[test]
fn sample_point_matches_golden() {
    let point = SamplePoint {
        t_ns: 5_000_000,
        accel_util: 0.5,
        server_occupancy: 0.25,
        outstanding: 12.0,
        drs_groups: 0.0,
    };
    let golden = concat!(
        "{\"t_ns\":5000000,\"accel_util\":0.5,\"server_occupancy\":0.25,",
        "\"outstanding\":12,\"drs_groups\":0}"
    );
    assert_eq!(serde_json::to_string(&point).unwrap(), golden);
    let back: SamplePoint = serde_json::from_str(golden).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), golden);
}

#[test]
fn device_record_matches_golden() {
    let record = DeviceRecord {
        dev: "link:h3>s0".into(),
        kind: "link".into(),
        tier: 2,
        packets: [10, 20, 30],
        bytes: [130, 260, 390],
        ops: 0,
        selections: 0,
        mean_selection_wait_ns: 0,
        clone_updates: 0,
        busy_ns: 1_800_000,
        utilization: 0.5,
        mean_queue_depth: 0.0,
        max_queue_depth: 0,
        drops: 0,
        clamps: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_stale_hits: 0,
        cache_evictions: 0,
        cache_invalidations: 0,
    };
    let golden = concat!(
        "{\"dev\":\"link:h3>s0\",\"kind\":\"link\",\"tier\":2,",
        "\"packets\":[10,20,30],\"bytes\":[130,260,390],",
        "\"ops\":0,\"selections\":0,\"mean_selection_wait_ns\":0,",
        "\"clone_updates\":0,\"busy_ns\":1800000,\"utilization\":0.5,",
        "\"mean_queue_depth\":0,\"max_queue_depth\":0,\"drops\":0,\"clamps\":0}"
    );
    assert_eq!(serde_json::to_string(&record).unwrap(), golden);
    let back: DeviceRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);

    // With cache traffic the five counters are appended, in order.
    let cached = DeviceRecord {
        dev: "switch:5".into(),
        kind: "switch".into(),
        cache_hits: 40,
        cache_misses: 9,
        cache_stale_hits: 2,
        cache_evictions: 3,
        cache_invalidations: 7,
        ..record
    };
    let golden_cached = concat!(
        "{\"dev\":\"switch:5\",\"kind\":\"switch\",\"tier\":2,",
        "\"packets\":[10,20,30],\"bytes\":[130,260,390],",
        "\"ops\":0,\"selections\":0,\"mean_selection_wait_ns\":0,",
        "\"clone_updates\":0,\"busy_ns\":1800000,\"utilization\":0.5,",
        "\"mean_queue_depth\":0,\"max_queue_depth\":0,\"drops\":0,\"clamps\":0,",
        "\"cache_hits\":40,\"cache_misses\":9,\"cache_stale_hits\":2,",
        "\"cache_evictions\":3,\"cache_invalidations\":7}"
    );
    assert_eq!(serde_json::to_string(&cached).unwrap(), golden_cached);
    let back: DeviceRecord = serde_json::from_str(golden_cached).unwrap();
    assert_eq!(back, cached);
}

#[test]
fn control_snapshot_record_matches_golden() {
    let record = SnapshotRecord {
        tor: 2,
        pod: 1,
        from_ns: 500_000_000,
        to_ns: 1_000_000_000,
        groups: vec![
            SnapshotGroup {
                group: 0,
                counts: [4, 10, 86],
                rates: [8.0, 20.0, 172.0],
            },
            SnapshotGroup {
                group: 3,
                counts: [0, 0, 25],
                rates: [0.0, 0.0, 50.0],
            },
        ],
    };
    let golden = concat!(
        "{\"kind\":\"snapshot\",\"tor\":2,\"pod\":1,",
        "\"from_ns\":500000000,\"to_ns\":1000000000,\"groups\":[",
        "{\"group\":0,\"counts\":[4,10,86],\"rates\":[8,20,172]},",
        "{\"group\":3,\"counts\":[0,0,25],\"rates\":[0,0,50]}]}"
    );
    assert_eq!(
        control_line(ControlRecord::Snapshot(record.clone())),
        golden
    );
    let back: SnapshotRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
    // The tagged enum parses the same line via its `kind` discriminant.
    let tagged: ControlRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(tagged, ControlRecord::Snapshot(record));
}

#[test]
fn control_plan_record_matches_golden() {
    let record = PlanEventRecord {
        t_ns: 1_500_000_000,
        trigger: "replan".into(),
        switch: None,
        solve: Some(SolveRecord {
            greedy: false,
            variables: 52,
            constraints: 42,
            lp_iterations: 13_766,
            branch_nodes: 200,
            objective: 4.0,
            bound: 3.0,
            proven_optimal: false,
        }),
        reassigned: vec![2],
        newly_assigned: vec![5],
        unassigned: Vec::new(),
        rsnodes_added: vec![16],
        rsnodes_removed: vec![3],
        rsnodes: 4,
        drs_groups: 0,
        rules_recompiled: 20,
    };
    let golden = concat!(
        "{\"kind\":\"plan\",\"t_ns\":1500000000,\"trigger\":\"replan\",",
        "\"solve\":{\"greedy\":false,\"variables\":52,\"constraints\":42,",
        "\"lp_iterations\":13766,\"branch_nodes\":200,\"objective\":4,",
        "\"bound\":3,\"proven_optimal\":false},",
        "\"reassigned\":[2],\"newly_assigned\":[5],\"unassigned\":[],",
        "\"rsnodes_added\":[16],\"rsnodes_removed\":[3],",
        "\"rsnodes\":4,\"drs_groups\":0,\"rules_recompiled\":20}"
    );
    assert_eq!(control_line(ControlRecord::Plan(record.clone())), golden);
    let back: PlanEventRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);

    // Fault triggers carry the operator switch and no solve block; both
    // optional keys must be omitted entirely, never serialized as null.
    let record = PlanEventRecord {
        t_ns: 2_000_000_000,
        trigger: "operator_fail".into(),
        switch: Some(16),
        solve: None,
        reassigned: Vec::new(),
        newly_assigned: Vec::new(),
        unassigned: vec![5, 6],
        rsnodes_added: Vec::new(),
        rsnodes_removed: vec![16],
        rsnodes: 4,
        drs_groups: 2,
        rules_recompiled: 20,
    };
    let golden = concat!(
        "{\"kind\":\"plan\",\"t_ns\":2000000000,\"trigger\":\"operator_fail\",",
        "\"switch\":16,",
        "\"reassigned\":[],\"newly_assigned\":[],\"unassigned\":[5,6],",
        "\"rsnodes_added\":[],\"rsnodes_removed\":[16],",
        "\"rsnodes\":4,\"drs_groups\":2,\"rules_recompiled\":20}"
    );
    assert_eq!(control_line(ControlRecord::Plan(record.clone())), golden);
    let back: PlanEventRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
}

#[test]
fn control_drs_span_record_matches_golden() {
    let record = DrsSpanRecord {
        switch: 16,
        fail_ns: 1_200_000_000,
        detect_ns: Some(1_210_000_000),
        recover_ns: Some(2_000_000_000),
        groups: vec![
            DisplacedGroup {
                group: 5,
                displaced_ns: 390_000_000,
            },
            DisplacedGroup {
                group: 6,
                displaced_ns: 790_000_000,
            },
        ],
    };
    let golden = concat!(
        "{\"kind\":\"drs_span\",\"switch\":16,\"fail_ns\":1200000000,",
        "\"detect_ns\":1210000000,\"recover_ns\":2000000000,\"groups\":[",
        "{\"group\":5,\"displaced_ns\":390000000},",
        "{\"group\":6,\"displaced_ns\":790000000}]}"
    );
    assert_eq!(control_line(ControlRecord::DrsSpan(record.clone())), golden);
    let back: DrsSpanRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);

    // A run that ends mid-episode omits the unreached timestamps.
    let record = DrsSpanRecord {
        switch: 16,
        fail_ns: 1_200_000_000,
        detect_ns: None,
        recover_ns: None,
        groups: Vec::new(),
    };
    let golden = "{\"kind\":\"drs_span\",\"switch\":16,\"fail_ns\":1200000000,\"groups\":[]}";
    assert_eq!(control_line(ControlRecord::DrsSpan(record.clone())), golden);
    let back: DrsSpanRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
}

#[test]
fn control_cache_record_matches_golden() {
    let record = CacheRecord {
        t_ns: 2_500_000_000,
        switch: Some(5),
        len: 128,
        hits: 40,
        misses: 9,
        stale_hits: 2,
        evictions: 3,
        invalidations: 7,
    };
    let golden = concat!(
        "{\"kind\":\"cache\",\"t_ns\":2500000000,\"switch\":5,\"len\":128,",
        "\"hits\":40,\"misses\":9,\"stale_hits\":2,\"evictions\":3,",
        "\"invalidations\":7}"
    );
    assert_eq!(control_line(ControlRecord::Cache(record)), golden);
    let back: CacheRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
    let tagged: ControlRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(tagged, ControlRecord::Cache(record));

    // The retired-operator aggregate omits `switch`, never nulls it.
    let record = CacheRecord {
        switch: None,
        len: 0,
        ..record
    };
    let golden = concat!(
        "{\"kind\":\"cache\",\"t_ns\":2500000000,\"len\":0,",
        "\"hits\":40,\"misses\":9,\"stale_hits\":2,\"evictions\":3,",
        "\"invalidations\":7}"
    );
    assert_eq!(control_line(ControlRecord::Cache(record)), golden);
    let back: CacheRecord = serde_json::from_str(golden).unwrap();
    assert_eq!(back, record);
}

/// The two tier classifications in the codebase must agree: the
/// topology's path-based [`path_tier`] (what the device registry tags
/// packets with) and the monitor's marker-based [`Monitor::classify`]
/// (what the controller's T matrix is built from). On a default
/// host-to-host path they are the same classification by construction —
/// for every host pair and any ECMP hash.
///
/// [`path_tier`]: netrs_topology::FatTree::path_tier
/// [`Monitor::classify`]: netrs_netdev::Monitor::classify
#[test]
fn path_tier_agrees_with_monitor_classify_for_all_host_pairs() {
    use netrs_netdev::Monitor;
    use netrs_topology::{FatTree, LinkSet, Tier};
    use netrs_wire::SourceMarker;

    let topo = FatTree::new(4).unwrap();
    let marker = |h| SourceMarker {
        pod: topo.pod_of_host(h) as u16,
        rack: topo.rack_of_host(h) as u16,
    };
    for a in topo.hosts() {
        for b in topo.hosts() {
            if a == b {
                continue;
            }
            for hash in [0u64, 7, 13, 0xdead_beef] {
                let path = topo.path(a, b, hash, &LinkSet::new()).unwrap();
                let tier_index = match topo.path_tier(&path) {
                    Tier::Core => 0,
                    Tier::Agg => 1,
                    Tier::Tor => 2,
                };
                assert_eq!(
                    tier_index,
                    Monitor::classify(marker(a), marker(b)),
                    "hosts {a:?} -> {b:?}, hash {hash}"
                );
            }
        }
    }
}
