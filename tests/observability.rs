//! Integration tests for the observability layer: JSONL request traces
//! whose phases telescope exactly to the end-to-end latency, a populated
//! per-phase latency breakdown for every scheme, the virtual-time
//! sampler's time series, the engine profile, and — crucially — that
//! attaching any of it does not perturb the simulated event sequence.

use std::io::Write;
use std::sync::{Arc, Mutex};

use netrs_sim::{
    run, run_observed, FaultPlan, ObsOptions, SamplePoint, SamplerSpec, Scheme, SimConfig,
    TimeSeries, TraceRecord, WriteConsistency,
};
use netrs_simcore::SimDuration;

/// A `Write` sink the test can inspect after the run consumed the box.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take_string(&self) -> String {
        let bytes = std::mem::take(&mut *self.0.lock().unwrap());
        String::from_utf8(bytes).expect("trace output is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn small(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.scheme = scheme;
    cfg.requests = 3_000;
    cfg.seed = 11;
    cfg
}

fn traced_run(scheme: Scheme) -> (Vec<TraceRecord>, netrs_sim::RunOutput) {
    let sink = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(sink.clone())),
        trace_hops: false,
        timeseries: Some(SamplerSpec {
            interval: SimDuration::from_millis(5),
            capacity: 4_096,
        }),
        device_stats: false,
        control: None,
        progress: false,
        perf: None,
    };
    let out = run_observed(small(scheme), obs);
    let text = sink.take_string();
    let records: Vec<TraceRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every trace line parses as a TraceRecord"))
        .collect();
    (records, out)
}

/// The acceptance criterion: every trace line's phase durations sum to
/// its end-to-end latency — exactly, because each phase is a difference
/// of consecutive event timestamps.
#[test]
fn trace_phases_telescope_to_end_to_end_latency() {
    for scheme in Scheme::ALL {
        let (records, out) = traced_run(scheme);
        assert!(
            !records.is_empty(),
            "{scheme}: trace should contain records"
        );
        for r in &records {
            assert_eq!(
                r.e2e_ns,
                r.received_ns - r.issued_ns,
                "{scheme}: e2e must equal received - issued for req {}",
                r.req
            );
            assert_eq!(
                r.phase_sum_ns(),
                r.e2e_ns,
                "{scheme}: phases must sum to e2e for req {} ({r:?})",
                r.req
            );
            assert!(
                r.selection_wait_ns <= r.selection_ns,
                "{scheme}: queue wait is a sub-interval of selection"
            );
        }
        let firsts = records.iter().filter(|r| r.first && !r.write).count() as u64;
        assert_eq!(
            firsts, out.stats.completed,
            "{scheme}: one winning trace record per completed read"
        );
    }
}

/// In-network schemes steer through an RSNode, so the steering and
/// selection phases must be non-zero there and zero-steer for client
/// schemes.
#[test]
fn in_network_schemes_show_selection_time() {
    let (clirs, _) = traced_run(Scheme::CliRs);
    assert!(
        clirs.iter().all(|r| r.steer_ns == 0),
        "CliRS has no steering hop"
    );
    let (ilp, _) = traced_run(Scheme::NetRsIlp);
    assert!(
        ilp.iter().filter(|r| r.first).all(|r| r.steer_ns > 0),
        "NetRS winners travel client -> RSNode first"
    );
    assert!(
        ilp.iter().any(|r| r.selection_ns > 0),
        "accelerator selection takes sim time"
    );
}

/// The breakdown on `RunStats` must be populated for all four schemes,
/// and its per-phase means must sum to the end-to-end mean (up to one
/// integer division's rounding per phase).
#[test]
fn breakdown_is_populated_and_sums_to_latency_for_all_schemes() {
    for scheme in Scheme::ALL {
        let stats = run(small(scheme));
        let b = &stats.breakdown;
        assert_eq!(
            b.count, stats.latency.count,
            "{scheme}: breakdown covers the same requests as the latency summary"
        );
        assert!(b.count > 0, "{scheme}: breakdown must be populated");
        assert!(
            b.network.mean > SimDuration::ZERO,
            "{scheme}: network propagation is never free"
        );
        assert!(
            b.service.mean > SimDuration::ZERO,
            "{scheme}: service time is never free"
        );
        let phase_sum = b.network.mean.as_nanos()
            + b.selection.mean.as_nanos()
            + b.server_queue.mean.as_nanos()
            + b.service.mean.as_nanos();
        let e2e = stats.latency.mean.as_nanos();
        let diff = phase_sum.abs_diff(e2e);
        assert!(
            diff <= 8,
            "{scheme}: phase means ({phase_sum}ns) must sum to the e2e mean \
             ({e2e}ns) within integer-division rounding, off by {diff}ns"
        );
    }
}

/// The sampler produces aligned, bounded series with sane values.
#[test]
fn sampler_produces_aligned_bounded_series() {
    let (_, out) = traced_run(Scheme::NetRsToR);
    let ts: &TimeSeries = out.timeseries.as_ref().expect("sampler was enabled");
    assert!(!ts.is_empty(), "a multi-ms run spans several 5ms ticks");
    assert_eq!(ts.accel_util.len(), ts.server_occupancy.len());
    assert_eq!(ts.accel_util.len(), ts.outstanding.len());
    assert_eq!(ts.accel_util.len(), ts.drs_groups.len());
    let points: Vec<SamplePoint> = ts.points().collect();
    assert_eq!(points.len(), ts.len());
    let mut last_t = 0;
    for p in &points {
        assert!(p.t_ns > last_t, "sample times strictly increase");
        last_t = p.t_ns;
        assert!((0.0..=1.0).contains(&p.accel_util), "util in [0,1]");
        assert!(
            (0.0..=1.0).contains(&p.server_occupancy),
            "occupancy in [0,1]"
        );
        assert!(p.outstanding >= 0.0 && p.drs_groups >= 0.0);
    }
    assert!(
        points.iter().any(|p| p.accel_util > 0.0),
        "a NetRS run exercises its accelerators"
    );
    assert!(
        points.iter().any(|p| p.server_occupancy > 0.0),
        "servers see load"
    );
}

/// The engine profile agrees with the run's own event count.
#[test]
fn engine_profile_matches_run_stats() {
    let (_, out) = traced_run(Scheme::CliRs);
    assert_eq!(out.profile.events, out.stats.events);
    assert!(out.profile.queue_high_water > 0);
    assert!(out.profile.wall_seconds > 0.0);
    assert!(out.profile.events_per_sec > 0.0);
}

/// Observation must not perturb the simulation: a traced run reports
/// byte-identical latency statistics to a plain `run` of the same
/// configuration. (The sampler adds events, so only event *timing* of
/// requests is compared, via the latency summary and completion counts.)
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let plain = run(small(Scheme::NetRsIlp));
    let (_, traced) = traced_run(Scheme::NetRsIlp);
    assert_eq!(plain.latency, traced.stats.latency);
    assert_eq!(plain.completed, traced.stats.completed);
    assert_eq!(plain.duplicates, traced.stats.duplicates);
    assert_eq!(
        plain.breakdown.network.mean,
        traced.stats.breakdown.network.mean
    );

    // With the sampler off, even the event count is identical.
    let sink = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(sink.clone())),
        trace_hops: false,
        timeseries: None,
        device_stats: false,
        control: None,
        progress: false,
        perf: None,
    };
    let trace_only = run_observed(small(Scheme::NetRsIlp), obs);
    assert_eq!(plain.events, trace_only.stats.events);
    assert!(!sink.take_string().is_empty());
}

fn hop_traced_run(cfg: SimConfig) -> (Vec<TraceRecord>, netrs_sim::RunOutput) {
    let sink = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(sink.clone())),
        trace_hops: true,
        timeseries: None,
        device_stats: false,
        control: None,
        progress: false,
        perf: None,
    };
    let out = run_observed(cfg, obs);
    let text = sink.take_string();
    let records: Vec<TraceRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every trace line parses as a TraceRecord"))
        .collect();
    (records, out)
}

/// Every record carries a covering walk of its copy's path: hops are
/// contiguous (each departure is the next arrival), the walk starts at
/// issue and ends at receive, and hop durations sum *exactly* to the
/// end-to-end latency.
fn assert_hops_telescope(label: &str, records: &[TraceRecord]) {
    assert!(!records.is_empty(), "{label}: trace should have records");
    for r in records {
        assert!(
            !r.hops.is_empty(),
            "{label}: hop tracing fills hops for req {}",
            r.req
        );
        assert_eq!(
            r.hops.first().unwrap().arrive_ns,
            r.issued_ns,
            "{label}: the walk starts when the request is issued (req {})",
            r.req
        );
        assert_eq!(
            r.hops.last().unwrap().depart_ns,
            r.received_ns,
            "{label}: the walk ends when the reply is received (req {})",
            r.req
        );
        for pair in r.hops.windows(2) {
            assert_eq!(
                pair[0].depart_ns, pair[1].arrive_ns,
                "{label}: hops must be contiguous for req {} ({:?} -> {:?})",
                r.req, pair[0], pair[1]
            );
        }
        assert_eq!(
            r.hop_sum_ns(),
            r.e2e_ns,
            "{label}: hop durations must sum to e2e for req {} (hops {:?})",
            r.req,
            r.hops
        );
    }
}

/// The hop-span acceptance criterion under `--trace-hops`: every record
/// telescopes, for all four schemes.
#[test]
fn hop_spans_telescope_exactly_for_all_schemes() {
    for scheme in Scheme::ALL {
        let (records, out) = hop_traced_run(small(scheme));
        assert_eq!(
            records.iter().filter(|r| r.first && !r.write).count() as u64,
            out.stats.completed,
            "{scheme}: one winning record per completed read"
        );
        assert_hops_telescope(&scheme.to_string(), &records);
    }
}

/// A chain write is one walk, client → head → … → tail → client: the
/// tail's record covers every replica's residency and telescopes from
/// issue.
#[test]
fn chain_write_hop_spans_telescope() {
    for scheme in [Scheme::CliRs, Scheme::NetRsIlp] {
        let mut cfg = small(scheme);
        cfg.write_fraction = 0.2;
        cfg.write_consistency = WriteConsistency::Chain;
        let (records, _) = hop_traced_run(cfg);
        assert!(
            records.iter().any(|r| r.write),
            "{scheme}: writes are traced"
        );
        assert_hops_telescope(&format!("{scheme} chain writes"), &records);
    }
}

/// The same under fault plans, for all four schemes: `smoke.json` (a
/// blackholed operator, a crashed server, a loss burst, and the timeouts
/// and retries they cause), `links.json` (failed, rerouted and degraded
/// links) and `overlap.json` (a 3 ms timeout, so retries overlap the
/// attempts they replace, at the same server or RSNode). A lost copy
/// leaves no hops behind for a retry to inherit, a retried copy's walk
/// covers the timeout it waited out, and overlapping attempts keep apart.
#[test]
fn hop_spans_telescope_exactly_under_faults_for_all_schemes() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for (plan, requests) in [("smoke", 20_000), ("links", 20_000), ("overlap", 5_000)] {
        let text = std::fs::read_to_string(fixtures.join(format!("faults/{plan}.json")))
            .expect("fault plan fixture");
        for scheme in Scheme::ALL {
            let mut cfg = SimConfig::small();
            cfg.scheme = scheme;
            cfg.requests = requests;
            cfg.seed = 7;
            cfg.faults = Some(FaultPlan::from_json(&text).expect("valid fault plan"));
            let (records, out) = hop_traced_run(cfg);
            let availability = out.stats.availability.as_ref().expect("a fault run");
            assert!(
                availability.copies_dropped > 0,
                "{scheme} {plan}: copies are lost"
            );
            assert_eq!(
                records.iter().filter(|r| r.first && !r.write).count() as u64,
                out.stats.completed,
                "{scheme} {plan}: one winning record per completed read"
            );
            assert_hops_telescope(&format!("{scheme} under {plan}"), &records);
        }
    }
}

/// Without `--trace-hops` the hops vector stays empty (and, per the
/// serializer, absent from the JSONL line), so the PR 1 trace schema is
/// unchanged by default.
#[test]
fn hops_stay_empty_without_the_flag() {
    let (records, _) = traced_run(Scheme::NetRsIlp);
    assert!(records.iter().all(|r| r.hops.is_empty()));
}

/// Acceptance criterion: compiling the registry in but leaving it
/// disabled changes nothing — a plain run and a device-stats run report
/// identical statistics (same events, same latency distribution), and
/// only the latter yields a report.
#[test]
fn device_stats_do_not_perturb_the_simulation() {
    let plain = run(small(Scheme::NetRsIlp));
    let obs = ObsOptions {
        trace: None,
        trace_hops: false,
        timeseries: None,
        device_stats: true,
        control: None,
        progress: false,
        perf: None,
    };
    let instrumented = run_observed(small(Scheme::NetRsIlp), obs);
    assert_eq!(plain.events, instrumented.stats.events);
    assert_eq!(plain.latency, instrumented.stats.latency);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&instrumented.stats).unwrap(),
        "RunStats must be byte-identical with telemetry on"
    );
    let report = instrumented.devices.expect("device stats were enabled");
    assert!(!report.records.is_empty());

    let disabled = run_observed(small(Scheme::NetRsIlp), ObsOptions::default());
    assert!(disabled.devices.is_none(), "no report without the flag");
}

/// The device report is internally consistent: every completed request
/// shows up as a client op, selections happen on accelerators only, and
/// traffic traverses links of every tier the scheme exercises.
#[test]
fn device_report_accounts_for_the_run() {
    let obs = ObsOptions {
        trace: None,
        trace_hops: false,
        timeseries: None,
        device_stats: true,
        control: None,
        progress: false,
        perf: None,
    };
    let out = run_observed(small(Scheme::NetRsIlp), obs);
    let report = out.devices.expect("device stats were enabled");

    let client_ops: u64 = report.of_kind("client").map(|r| r.ops).sum();
    assert_eq!(client_ops, out.stats.issued, "one client op per request");

    let selections: u64 = report.of_kind("accel").map(|r| r.selections).sum();
    assert!(
        selections > 0 && selections <= out.stats.completed,
        "reads steered through an RSNode are selected exactly once \
         ({selections} selections, {} completed)",
        out.stats.completed
    );
    assert!(report.of_kind("server").all(|r| r.tier == 3));
    assert!(
        report.of_kind("accel").any(|r| r.busy_ns > 0),
        "accelerators accumulate busy time"
    );
    let link_packets: u64 = report.of_kind("link").map(|r| r.total_packets()).sum();
    assert!(link_packets > 0, "traffic crossed links");
    assert!(
        report
            .of_kind("link")
            .any(|r| r.utilization > 0.0 && r.utilization <= 1.0),
        "link utilization is in (0, 1]"
    );
    assert_eq!(report.sim_end_ns, out.stats.sim_end.as_nanos());
}

// ---- control-plane observability -------------------------------------------

/// Rebuilds the in-memory monitor window a parsed `--control` snapshot
/// line describes — the inverse of [`SnapshotRecord::from_snapshot`].
fn rebuild_snapshot(rec: &netrs_sim::SnapshotRecord) -> netrs_netdev::TrafficSnapshot {
    netrs_netdev::TrafficSnapshot {
        local: netrs_wire::SourceMarker {
            pod: rec.pod as u16,
            rack: rec.tor as u16,
        },
        counts: rec.groups.iter().map(|g| (g.group, g.counts)).collect(),
        from: netrs_simcore::SimTime::from_nanos(rec.from_ns),
        to: netrs_simcore::SimTime::from_nanos(rec.to_ns),
    }
}

/// The snapshot export is lossless with respect to the controller's
/// aggregation: serializing randomized monitor windows to the control
/// JSONL schema, parsing them back and re-aggregating reproduces the
/// `TrafficMatrix` the controller would have built from the originals —
/// bit for bit, not approximately, because the export carries the raw
/// window counts and bounds rather than derived rates.
#[test]
fn snapshot_export_reaggregates_to_the_controllers_traffic_matrix() {
    use netrs::TrafficMatrix;
    use netrs_netdev::Monitor;
    use netrs_sim::SnapshotRecord;
    use netrs_simcore::SimTime;
    use netrs_wire::SourceMarker;

    // Deterministic xorshift64*: the test is a fixed property check over
    // 32 randomized monitor fleets, not a flaky sample.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };

    for round in 0..32 {
        let n_groups = 1 + (rng() % 12) as usize;
        let n_tors = 1 + (rng() % 8) as u16;
        let mut snapshots = Vec::new();
        let mut clock = SimTime::ZERO;
        for tor in 0..n_tors {
            let local = SourceMarker {
                pod: tor / 2,
                rack: tor,
            };
            let mut monitor = Monitor::new(local);
            // Empty window for the first monitor of odd rounds: the
            // degenerate from == to case must survive the round trip too.
            let events = if tor == 0 && round % 2 == 1 {
                0
            } else {
                rng() % 200
            };
            for _ in 0..events {
                let group = (rng() % n_groups as u64) as u32;
                let remote = SourceMarker {
                    pod: (rng() % 4) as u16,
                    rack: (rng() % 8) as u16,
                };
                monitor.record(group, remote);
            }
            clock += netrs_simcore::SimDuration::from_micros(1 + rng() % 900_000);
            snapshots.push(monitor.snapshot(clock));
        }

        let direct = TrafficMatrix::from_snapshots(n_groups, &snapshots).unwrap();

        let jsonl: String = snapshots
            .iter()
            .map(|s| {
                serde_json::to_string(&SnapshotRecord::from_snapshot(s))
                    .expect("snapshot record serializes")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let rebuilt: Vec<netrs_netdev::TrafficSnapshot> = jsonl
            .lines()
            .map(|line| {
                let rec: SnapshotRecord =
                    serde_json::from_str(line).expect("snapshot line parses back");
                rebuild_snapshot(&rec)
            })
            .collect();
        let reaggregated = TrafficMatrix::from_snapshots(n_groups, &rebuilt).unwrap();

        assert_eq!(
            direct.total().to_bits(),
            reaggregated.total().to_bits(),
            "round {round}: totals must match bit for bit"
        );
        for g in 0..n_groups as u32 {
            for tier in 0..3 {
                assert_eq!(
                    direct.tier_rates(g)[tier].to_bits(),
                    reaggregated.tier_rates(g)[tier].to_bits(),
                    "round {round}: group {g} tier {tier} diverged after the round trip"
                );
            }
        }
    }
}

/// End-to-end contract of the `--control` stream on the monitored
/// control loop: the stream is byte-identical across same-seed runs, it
/// opens with the bootstrap decision, each ToR's snapshot windows abut
/// (no monitored interval is lost or double-counted), and every re-plan
/// decision is preceded by the snapshot batch it consumed.
#[test]
fn control_stream_is_deterministic_and_windows_abut() {
    use netrs_sim::{ControlRecord, PlanSource};
    use std::collections::BTreeMap;

    let capture = || {
        let sink = SharedBuf::default();
        let mut cfg = small(Scheme::NetRsIlp);
        cfg.plan_source = PlanSource::Monitored {
            interval: SimDuration::from_millis(100),
        };
        let obs = ObsOptions {
            trace: None,
            trace_hops: false,
            timeseries: None,
            device_stats: false,
            control: Some(Box::new(sink.clone())),
            progress: false,
            perf: None,
        };
        let _ = run_observed(cfg, obs);
        sink.take_string()
    };

    let text = capture();
    assert_eq!(text, capture(), "same seed must yield the same bytes");

    let records: Vec<ControlRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every control line parses"))
        .collect();
    assert!(
        matches!(&records[0], ControlRecord::Plan(p) if p.trigger == "initial"),
        "the stream opens with the bootstrap decision"
    );

    let mut window_end: BTreeMap<u32, u64> = BTreeMap::new();
    let mut pending_snapshots = 0usize;
    let mut replans = 0usize;
    for rec in &records {
        match rec {
            ControlRecord::Snapshot(s) => {
                assert!(s.to_ns >= s.from_ns, "window bounds are ordered");
                if let Some(&prev) = window_end.get(&s.tor) {
                    assert_eq!(
                        s.from_ns, prev,
                        "ToR {}: windows must abut — no gap, no overlap",
                        s.tor
                    );
                }
                window_end.insert(s.tor, s.to_ns);
                pending_snapshots += 1;
            }
            ControlRecord::Plan(p) if p.trigger == "replan" => {
                assert!(
                    pending_snapshots > 0,
                    "a re-plan consumes the snapshot batch emitted just before it"
                );
                pending_snapshots = 0;
                replans += 1;
                assert!(p.solve.is_some(), "re-plans run a solve");
            }
            _ => {}
        }
    }
    assert!(replans > 0, "the monitored loop re-planned at least once");
    assert!(
        window_end.len() > 1,
        "more than one ToR reported monitor windows"
    );
}
