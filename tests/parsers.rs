//! Every artifact parser rejects bad input with an error — never a
//! panic, never a silently wrong value.
//!
//! One table-driven helper covers every record type an artifact file is
//! read back into. A new record type joins by one `check` line.

use netrs_sim::{
    AllocStats, AvailabilityStats, CacheRecord, ControlRecord, DeviceRecord, DisplacedGroup,
    DrsSpanRecord, FaultEvent, FaultPlan, HopSpan, HostMeta, HostProfile, KindRecord,
    LatencyBreakdown, ParallelStats, PlanEventRecord, QueueStats, RequestTableStats, RunStats,
    RwStats, SamplePoint, Scheme, SimConfig, SnapshotGroup, SnapshotRecord, SolveRecord,
    TimedFault, TraceRecord, PERF_SCHEMA_VERSION,
};
use netrs_simcore::{SimDuration, SimTime, Summary};
use serde::{Deserialize, Serialize, Value};

/// `entries` with `key` dropped (`None`) or set to `value`.
fn edited(entries: &[(String, Value)], key: &str, value: Option<Value>) -> Value {
    let kept = entries.iter().filter(|(k, _)| k != key).cloned();
    Value::Obj(kept.chain(value.map(|v| (key.to_string(), v))).collect())
}

/// The parser contract of one record type, exercised on the sample `x`
/// (which should populate its optional keys, so they round-trip too):
///
/// * `deser(ser(x))` re-serializes to the same bytes;
/// * an unknown extra key is ignored;
/// * dropping a key in `optional` still parses, dropping any other is an
///   error naming the key and `ty`;
/// * a wrong-typed value under any key is an error;
/// * a non-object is an error;
/// * with `tag_ty` set the record is a tagged enum: `kind` belongs to
///   `tag_ty` rather than `ty`, and an unknown `kind` is an error.
fn check<T: Serialize + Deserialize>(x: &T, ty: &str, tag_ty: Option<&str>, optional: &[&str]) {
    let v = x.ser();
    let entries = v.as_obj().unwrap_or_else(|| panic!("{ty} is an object"));
    let back = T::deser(&v).unwrap_or_else(|e| panic!("{ty} round-trips: {e}"));
    assert_eq!(back.ser(), v, "{ty} round-trips");

    let extra = edited(entries, "no_such_key", Some(Value::U(1)));
    let back = T::deser(&extra).unwrap_or_else(|e| panic!("{ty} ignores unknown keys: {e}"));
    assert_eq!(back.ser(), v, "{ty} ignores unknown keys");

    for (key, value) in entries {
        let owner = match tag_ty {
            Some(tag_ty) if key == "kind" => tag_ty,
            _ => ty,
        };
        let dropped = T::deser(&edited(entries, key, None));
        if optional.contains(&key.as_str()) {
            assert!(dropped.is_ok(), "{ty}: `{key}` is optional");
        } else {
            let err = dropped
                .err()
                .unwrap_or_else(|| panic!("{ty}: `{key}` is required"));
            let err = err.to_string();
            assert!(
                err.contains(&format!("`{key}`")) && err.contains(owner),
                "{ty} without `{key}` must name the field and {owner}: {err}"
            );
        }
        // No field type reads both a bool and an integer.
        let wrong = match value {
            Value::Bool(_) => Value::U(7),
            _ => Value::Bool(true),
        };
        assert!(
            T::deser(&edited(entries, key, Some(wrong))).is_err(),
            "{ty}: a wrong-typed `{key}` must be rejected"
        );
    }
    assert!(T::deser(&Value::Arr(Vec::new())).is_err(), "{ty} from []");
    assert!(T::deser(&Value::U(3)).is_err(), "{ty} from 3");
    if let Some(tag_ty) = tag_ty {
        let err = T::deser(&edited(entries, "kind", Some(Value::Str("nope".into())))).err();
        let err = err.expect("an unknown kind is rejected").to_string();
        assert!(err.contains("nope") && err.contains(tag_ty), "{err}");
    }
}

fn summary() -> Summary {
    let mut h = netrs_simcore::Histogram::new();
    h.record(SimDuration::from_millis(2));
    h.summary()
}

fn host_profile() -> HostProfile {
    HostProfile {
        schema_version: PERF_SCHEMA_VERSION,
        scheme: "CliRS".into(),
        seed: 1,
        requests: 2_000,
        events: 18_000,
        wall_s: 0.004,
        events_per_sec: 4_500_000.0,
        peak_rss_kb: 6_900,
        stride: 7,
        attributed_ns: 3_800_000,
        host: HostMeta {
            commit: "ab12cd3".into(),
            cpu: "Test CPU".into(),
            cores: 8,
        },
        queue: QueueStats {
            pushes: 18_000,
            pops: 18_000,
            high_water: 420,
            depth_hist: vec![1, 2, 4, 8],
        },
        alloc: Some(AllocStats {
            allocs: 120,
            deallocs: 100,
            peak_bytes: 9_000_000,
        }),
        request_table: RequestTableStats {
            slots: 4_096,
            live_high_water: 1_700,
            overflow_high_water: 310,
        },
        clock_pair_ns: 27,
        kinds: vec![KindRecord {
            kind: "Generate".into(),
            layer: "state".into(),
            count: 18_000,
            sampled: 2_571,
            self_ns: 3_800_000,
        }],
    }
}

#[test]
fn every_record_parser_rejects_bad_input() {
    check(
        &TraceRecord {
            req: 42,
            server: 3,
            first: true,
            write: false,
            issued_ns: 1_000,
            received_ns: 9_000,
            steer_ns: 1_000,
            selection_ns: 2_000,
            selection_wait_ns: 500,
            to_server_ns: 1_500,
            server_queue_ns: 1_000,
            service_ns: 2_000,
            reply_ns: 500,
            e2e_ns: 8_000,
            hops: vec![HopSpan {
                dev: "client:0".into(),
                arrive_ns: 1_000,
                depart_ns: 9_000,
            }],
        },
        "TraceRecord",
        None,
        &["hops"],
    );
    check(
        &SamplePoint {
            t_ns: 5_000_000,
            accel_util: 0.5,
            server_occupancy: 0.25,
            outstanding: 12.0,
            drs_groups: 1.0,
        },
        "SamplePoint",
        None,
        &[],
    );
    check(
        &DeviceRecord {
            dev: "switch:5".into(),
            kind: "switch".into(),
            tier: 2,
            packets: [10, 20, 30],
            bytes: [130, 260, 390],
            ops: 4,
            selections: 5,
            mean_selection_wait_ns: 6,
            clone_updates: 7,
            busy_ns: 1_800_000,
            utilization: 0.5,
            mean_queue_depth: 1.5,
            max_queue_depth: 3,
            drops: 1,
            clamps: 2,
            cache_hits: 40,
            cache_misses: 9,
            cache_stale_hits: 2,
            cache_evictions: 3,
            cache_invalidations: 7,
        },
        "DeviceRecord",
        None,
        &[
            "cache_hits",
            "cache_misses",
            "cache_stale_hits",
            "cache_evictions",
            "cache_invalidations",
        ],
    );

    let control = Some("ControlRecord");
    check(
        &ControlRecord::Snapshot(SnapshotRecord {
            tor: 2,
            pod: 1,
            from_ns: 500_000_000,
            to_ns: 1_000_000_000,
            groups: vec![SnapshotGroup {
                group: 0,
                counts: [4, 10, 86],
                rates: [8.0, 20.0, 172.0],
            }],
        }),
        "SnapshotRecord",
        control,
        &[],
    );
    // Every solve fills its bound and proof: both are required.
    let solve = SolveRecord {
        greedy: false,
        variables: 52,
        constraints: 42,
        lp_iterations: 13_766,
        branch_nodes: 200,
        objective: 4.0,
        bound: 3.0,
        proven_optimal: false,
    };
    check(&solve, "SolveRecord", None, &[]);
    check(
        &ControlRecord::Plan(PlanEventRecord {
            t_ns: 1_500_000_000,
            trigger: "operator_fail".into(),
            switch: Some(16),
            solve: Some(solve),
            reassigned: vec![2],
            newly_assigned: vec![5],
            unassigned: vec![6],
            rsnodes_added: vec![16],
            rsnodes_removed: vec![3],
            rsnodes: 4,
            drs_groups: 1,
            rules_recompiled: 20,
        }),
        "PlanEventRecord",
        control,
        &["switch", "solve"],
    );
    check(
        &ControlRecord::DrsSpan(DrsSpanRecord {
            switch: 16,
            fail_ns: 1_200_000_000,
            detect_ns: Some(1_210_000_000),
            recover_ns: Some(2_000_000_000),
            groups: vec![DisplacedGroup {
                group: 5,
                displaced_ns: 390_000_000,
            }],
        }),
        "DrsSpanRecord",
        control,
        &["detect_ns", "recover_ns"],
    );
    check(
        &ControlRecord::Cache(CacheRecord {
            t_ns: 2_500_000_000,
            switch: Some(5),
            len: 128,
            hits: 40,
            misses: 9,
            stale_hits: 2,
            evictions: 3,
            invalidations: 7,
        }),
        "CacheRecord",
        control,
        &["switch"],
    );

    check(
        &RunStats {
            scheme: Scheme::NetRsToR,
            latency: summary(),
            breakdown: LatencyBreakdown::default(),
            issued: 10,
            completed: 9,
            duplicates: 1,
            rsnode_count: 2,
            rsnode_census: [1, 1, 0],
            drs_groups: 1,
            mean_accel_utilization: 0.25,
            max_accel_utilization: 0.5,
            mean_selection_wait: SimDuration::from_micros(3),
            mean_server_utilization: 0.75,
            replans: 2,
            writes_issued: 3,
            write_latency: summary(),
            overload_events: 1,
            sim_end: SimTime::from_nanos(9_000_000),
            events: 120,
            availability: Some(AvailabilityStats {
                faults_injected: 1,
                timeouts: 1,
                retries: 3,
                duplicate_drops: 4,
                copies_dropped: 5,
                failed_window_p99: SimDuration::from_millis(7),
                time_to_recover: Some(SimDuration::from_millis(9)),
            }),
            rw: Some(RwStats {
                writes_completed: 3,
                cache_hits: 40,
                cache_misses: 9,
                stale_reads: 2,
                cache_evictions: 3,
                cache_invalidations: 5,
            }),
            parallel: Some(ParallelStats {
                shards: 2,
                windows: 50,
                mailbox_posted: 30,
                mailbox_late: 0,
            }),
        },
        "RunStats",
        None,
        &["availability", "rw", "parallel"],
    );
    check(&host_profile(), "HostProfile", None, &["alloc"]);
    check(
        &host_profile().request_table,
        "RequestTableStats",
        None,
        &[],
    );
    // Every key of a plan file is optional, `events` included.
    let plan = FaultPlan {
        events: vec![TimedFault {
            at: SimDuration::from_millis(5),
            fault: FaultEvent::ServerCrash { server: 2 },
        }],
        ..FaultPlan::default()
    };
    check(
        &plan,
        "FaultPlan",
        None,
        &[
            "events",
            "retry",
            "detection_delay",
            "recovery_window",
            "recovery_tolerance",
        ],
    );
}

#[test]
fn bad_plan_and_artifact_text_is_an_error_not_a_panic() {
    for text in [
        "",
        "{",
        r#"{"events": [{"at": 1}]}"#,
        r#"{"events": [{"at": 1, "fault": {"NoSuchFault": {}}}]}"#,
        r#"{"events": 3}"#,
        &"[".repeat(1_000_000),
        &r#"{"events":"#.repeat(1_000_000),
    ] {
        assert!(FaultPlan::from_json(text).is_err(), "{:.40}", text);
        assert!(serde_json::from_str::<HostProfile>(text).is_err());
        assert!(serde_json::from_str::<ControlRecord>(text).is_err());
    }
}

/// `cfg` parsed and validated, or the error of the step that refused it.
fn load_config(cfg: &Value) -> Result<SimConfig, String> {
    let cfg = SimConfig::deser(cfg).map_err(|e| e.to_string())?;
    cfg.validate()?;
    Ok(cfg)
}

/// `SimConfig::small()` with `"c3": {.., key: value}`.
fn with_c3(key: &str, value: Value) -> Value {
    let cfg = SimConfig::small().ser();
    let c3 = cfg
        .get("c3")
        .and_then(Value::as_obj)
        .expect("c3 is an object");
    edited(
        cfg.as_obj().unwrap(),
        "c3",
        Some(edited(c3, key, Some(value))),
    )
}

/// `SimConfig::small()` after `edit`, as the JSON a `--config` file holds.
fn small_with(edit: impl FnOnce(&mut SimConfig)) -> Value {
    let mut cfg = SimConfig::small();
    edit(&mut cfg);
    cfg.ser()
}

#[test]
fn bad_configs_are_errors_naming_the_field() {
    let small = SimConfig::small().ser();
    let top = small.as_obj().unwrap();
    let selector = Some(Value::Str("Random".into()));
    for (field, cfg, error) in [
        (
            "c3.alpha",
            with_c3("alpha", Value::F(1.5)),
            "c3: alpha must be in [0, 1), got 1.5",
        ),
        (
            "c3.exponent",
            with_c3("exponent", Value::I(-3)),
            "c3: exponent must be >= 1, got -3",
        ),
        (
            "rate_control",
            edited(top, "rate_control", Some(Value::Null)),
            "unknown field `rate_control`, expected one of `arity`, `servers`,",
        ),
        (
            "selector",
            edited(top, "selector", selector.clone()),
            "unknown field `selector`, expected one of `arity`, `servers`,",
        ),
        (
            "selectr",
            edited(top, "selectr", selector),
            "unknown field `selectr`, expected one of `arity`, `servers`,",
        ),
        (
            "c3.concurrency",
            with_c3("concurrency", Value::F(250.0)),
            "unknown field `concurrency`, expected `alpha` or `exponent`",
        ),
        (
            "accelerator.cores",
            small_with(|c| c.accelerator.cores = 0),
            "accelerator.cores must be at least 1",
        ),
        (
            "accelerator.service_time",
            small_with(|c| c.accelerator.service_time = SimDuration::ZERO),
            "accelerator.service_time must be positive",
        ),
        (
            "plan.accelerator.cores",
            small_with(|c| c.plan.accelerator.cores = 0),
            "plan.accelerator.cores must be at least 1",
        ),
        (
            "plan.accelerator.service_time",
            small_with(|c| c.plan.accelerator.service_time = SimDuration::ZERO),
            "plan.accelerator.service_time must be positive",
        ),
        (
            "plan.max_utilization = 0",
            small_with(|c| c.plan.max_utilization = 0.0),
            "plan.max_utilization must be finite and positive, got 0",
        ),
        (
            "plan.max_utilization = -1",
            small_with(|c| c.plan.max_utilization = -1.0),
            "plan.max_utilization must be finite and positive, got -1",
        ),
        (
            "plan.capacity_overrides",
            small_with(|c| {
                c.plan.capacity_overrides.insert(9, 4_000.0);
                c.plan.capacity_overrides.insert(3, 0.0);
            }),
            "plan.capacity_overrides[3] must be finite and positive, got 0",
        ),
        (
            "plan.response_load_factor",
            small_with(|c| c.plan.response_load_factor = -0.5),
            "plan.response_load_factor must be finite and non-negative, got -0.5",
        ),
        (
            "plan.extra_hop_budget",
            small_with(|c| c.plan.extra_hop_budget = Some(-1.0)),
            "plan.extra_hop_budget must be non-negative, got -1",
        ),
        (
            "vnodes",
            small_with(|c| c.vnodes = 0),
            "vnodes must be at least 1",
        ),
        (
            "server.fluctuation_interval",
            small_with(|c| c.server.fluctuation_interval = SimDuration::ZERO),
            "server.fluctuation_interval must be positive",
        ),
        (
            "keys",
            small_with(|c| c.keys = 0),
            "keys must be at least 1",
        ),
        (
            "keys = 2^32",
            small_with(|c| c.keys = 1 << 32),
            "keys must be at most 4294967295, got 4294967296",
        ),
        (
            "requests = 2^32",
            small_with(|c| c.requests = 1 << 32),
            "requests must be at most 4294967295, got 4294967296",
        ),
        (
            "zipf = 0",
            small_with(|c| c.zipf = 0.0),
            "zipf must be finite and positive, got 0",
        ),
        (
            "zipf = -1",
            small_with(|c| c.zipf = -1.0),
            "zipf must be finite and positive, got -1",
        ),
        (
            "zipf = NaN",
            small_with(|c| c.zipf = f64::NAN),
            "zipf must be finite and positive, got NaN",
        ),
        (
            "server.slots",
            small_with(|c| c.server.slots = 0),
            "server.slots must be at least 1",
        ),
        (
            "server.status_ewma_alpha = 1",
            small_with(|c| c.server.status_ewma_alpha = 1.0),
            "server.status_ewma_alpha must be in [0, 1), got 1",
        ),
        (
            "server.status_ewma_alpha = -0.1",
            small_with(|c| c.server.status_ewma_alpha = -0.1),
            "server.status_ewma_alpha must be in [0, 1), got -0.1",
        ),
        (
            "server.base_service_time",
            small_with(|c| c.server.base_service_time = SimDuration::ZERO),
            "server.base_service_time must be positive",
        ),
        (
            "server.fluctuation_range = 0.5",
            small_with(|c| c.server.fluctuation_range = 0.5),
            "server.fluctuation_range must be finite and at least 1, got 0.5",
        ),
        (
            "server.fluctuation_range = NaN",
            small_with(|c| c.server.fluctuation_range = f64::NAN),
            "server.fluctuation_range must be finite and at least 1, got NaN",
        ),
        (
            // 1.33 ms / 1e9 rounds to a 0 ns mean: the exponential draw
            // would assert.
            "faults[0].factor",
            small_with(|c| {
                c.faults = Some(FaultPlan {
                    events: vec![TimedFault {
                        at: SimDuration::from_millis(5),
                        fault: FaultEvent::ServerSlowdown {
                            server: 0,
                            factor: 1e9,
                        },
                    }],
                    ..FaultPlan::default()
                });
            }),
            "fault 0: server slowdown factor must be finite and keep the fastest mean \
             service time (1333333 ns) above 0 ns, got 1000000000",
        ),
    ] {
        let err = load_config(&cfg).expect_err(field);
        assert!(err.starts_with(error), "{field}: {err}");
    }
    assert_eq!(load_config(&small), Ok(SimConfig::small()));
}

#[test]
fn simulate_exits_1_on_a_bad_config_without_panicking() {
    let path = std::env::temp_dir().join(format!("netrs-bad-config-{}.json", std::process::id()));
    let text = serde_json::to_string(&with_c3("alpha", Value::F(1.5))).unwrap();
    std::fs::write(&path, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--config")
        .arg(&path)
        .arg("--json")
        .output()
        .expect("simulate runs");
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("invalid configuration: c3: alpha"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn simulate_exits_1_on_zero_vnodes_or_fluctuation_interval_in_time() {
    // Zero vnodes used to panic building the ring and zero keys building
    // the Zipf table; a zero fluctuation interval re-armed its timer at
    // the same instant forever. Keys and requests past `u32::MAX` would
    // not fit the caches', version table's and request table's slots.
    let budget = std::time::Duration::from_secs(30);
    let short = &["--requests", "1000", "--json"][..];
    for (name, cfg, args, error) in [
        (
            "vnodes",
            small_with(|c| c.vnodes = 0),
            short,
            "invalid configuration: vnodes must be at least 1",
        ),
        (
            "fluctuation",
            small_with(|c| c.server.fluctuation_interval = SimDuration::ZERO),
            short,
            "invalid configuration: server.fluctuation_interval must be positive",
        ),
        (
            "keys",
            small_with(|c| c.keys = 0),
            short,
            "invalid configuration: keys must be at least 1",
        ),
        (
            "keys-2^32",
            small_with(|c| c.keys = 1 << 32),
            short,
            "invalid configuration: keys must be at most 4294967295, got 4294967296",
        ),
        (
            "requests-2^32",
            small_with(|c| c.requests = 1 << 32),
            &["--json"],
            "invalid configuration: requests must be at most 4294967295, got 4294967296",
        ),
        (
            "requests-flag-2^32",
            SimConfig::small().ser(),
            &["--requests", "4294967296", "--json"],
            "invalid configuration: requests must be at most 4294967295, got 4294967296",
        ),
    ] {
        let path =
            std::env::temp_dir().join(format!("netrs-zero-{name}-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .arg("--config")
            .arg(&path)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("simulate runs");
        let started = std::time::Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on simulate") {
                break status;
            }
            if started.elapsed() > budget {
                child.kill().expect("kill simulate");
                child.wait().expect("reap simulate");
                std::fs::remove_file(&path).unwrap();
                panic!("{name}: simulate still running after {budget:?}");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        std::fs::remove_file(&path).unwrap();
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with(error), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn simulate_exits_1_on_a_non_finite_utilization_without_panicking() {
    // `--emit-config` prints only a config that would run.
    for args in [
        &[
            "--small",
            "--requests",
            "100",
            "--utilization",
            "nan",
            "--json",
        ][..],
        &[
            "--small",
            "--requests",
            "100",
            "--utilization",
            "inf",
            "--json",
        ],
        &["--small", "--utilization", "nan", "--emit-config"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .output()
            .expect("simulate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("invalid configuration: utilization must be finite and positive"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
