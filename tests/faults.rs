//! Fault-injection subsystem integration tests (ISSUE 4).
//!
//! Pins the three contracts the subsystem makes:
//!
//! * **Zero-cost when inactive** — a run with an empty fault plan is
//!   byte-identical to a run with no plan at all, for every scheme.
//! * **Determinism** — the same plan under the same seed reproduces the
//!   same stats JSON, byte for byte.
//! * **No silently lost requests** — under any combination of crashes,
//!   link failures, operator fail-stops and packet loss, every issued
//!   request either completes (possibly after retries) or is counted as
//!   a timeout: `completed + timeouts == issued`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use netrs_sim::{
    run, run_observed, Cluster, FaultEvent, FaultPlan, LinkRef, ObsOptions, Scheme, SimConfig,
    TimedFault, TraceRecord, WriteConsistency,
};
use netrs_simcore::SimDuration;
use proptest::prelude::*;

fn base(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.requests = 6_000;
    cfg.scheme = scheme;
    cfg.seed = 42;
    cfg
}

fn at(ms: u64, fault: FaultEvent) -> TimedFault {
    TimedFault {
        at: SimDuration::from_millis(ms),
        fault,
    }
}

fn stats_json(cfg: SimConfig) -> String {
    serde_json::to_string_pretty(&run(cfg)).expect("stats serialize")
}

/// The accounting invariant every fault run must satisfy.
fn assert_accounted(stats: &netrs_sim::RunStats) {
    let avail = stats
        .availability
        .as_ref()
        .expect("active plan attaches availability");
    assert_eq!(
        stats.completed + avail.timeouts,
        stats.issued,
        "requests were silently lost: {} completed + {} timed out != {} issued",
        stats.completed,
        avail.timeouts,
        stats.issued
    );
}

/// An empty (event-less) plan must leave the run byte-identical to a run
/// with no plan at all: no timeout machinery, no extra events, no
/// `availability` block in the JSON.
#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    for scheme in Scheme::ALL {
        let without = stats_json(base(scheme));
        let mut cfg = base(scheme);
        cfg.faults = Some(FaultPlan::default());
        let with_empty = stats_json(cfg);
        assert_eq!(
            without, with_empty,
            "{scheme:?}: an empty fault plan perturbed the run"
        );
        assert!(
            !without.contains("availability"),
            "{scheme:?}: fault-free stats must omit the availability block"
        );
    }
}

/// The same plan under the same seed is deterministic, byte for byte.
#[test]
fn fault_runs_are_deterministic_per_seed() {
    let plan = FaultPlan {
        events: vec![
            at(50, FaultEvent::ServerCrash { server: 2 }),
            at(90, FaultEvent::ServerRecover { server: 2 }),
            at(
                120,
                FaultEvent::PacketLossBurst {
                    probability: 0.2,
                    duration: SimDuration::from_millis(20),
                },
            ),
        ],
        ..FaultPlan::default()
    };
    for scheme in [Scheme::CliRs, Scheme::NetRsToR] {
        let mut cfg = base(scheme);
        cfg.faults = Some(plan.clone());
        let a = stats_json(cfg.clone());
        let b = stats_json(cfg);
        assert_eq!(a, b, "{scheme:?}: same seed, same plan, different bytes");
    }
}

/// The ISSUE acceptance scenario: crash one RSNode under NetRS-ToR.
/// Steered packets blackhole until detection; clients time out and
/// retry; the run must re-stabilize and account for every request.
#[test]
fn rsnode_crash_under_netrs_tor_recovers() {
    let cfg = base(Scheme::NetRsToR);
    // Learn a deterministic victim from the installed plan.
    let victim = Cluster::new(cfg.clone())
        .current_plan()
        .expect("NetRS scheme has a plan")
        .rsnodes()
        .into_iter()
        .next()
        .expect("plan has RSNodes");
    let mut cfg = cfg;
    cfg.faults = Some(FaultPlan {
        events: vec![at(100, FaultEvent::OperatorFail { switch: victim.0 })],
        // A sluggish failure detector stretches the blackhole window so
        // a measurable number of steered packets is lost.
        detection_delay: SimDuration::from_millis(10),
        ..FaultPlan::default()
    });
    let stats = run(cfg);
    assert_accounted(&stats);
    let avail = stats.availability.as_ref().unwrap();
    assert_eq!(avail.faults_injected, 1);
    assert!(
        avail.timeouts + avail.retries > 0,
        "blackholed packets must surface as timeouts or retries: {avail:?}"
    );
    assert!(
        avail.copies_dropped > 0,
        "packets steered at the dead operator must be dropped: {avail:?}"
    );
    assert!(
        avail.time_to_recover.is_some(),
        "the run must re-enter the steady-state band: {avail:?}"
    );
}

/// A crashed operator that later recovers rejoins the plan with a fresh
/// selector; the run still accounts for every request.
#[test]
fn rsnode_crash_and_recovery_restores_the_operator() {
    let cfg = base(Scheme::NetRsToR);
    let victim = Cluster::new(cfg.clone())
        .current_plan()
        .expect("NetRS scheme has a plan")
        .rsnodes()
        .into_iter()
        .next()
        .expect("plan has RSNodes");
    let mut cfg = cfg;
    cfg.faults = Some(FaultPlan {
        events: vec![
            at(60, FaultEvent::OperatorFail { switch: victim.0 }),
            at(110, FaultEvent::OperatorRecover { switch: victim.0 }),
        ],
        ..FaultPlan::default()
    });
    let stats = run(cfg);
    assert_accounted(&stats);
    assert_eq!(stats.availability.as_ref().unwrap().faults_injected, 2);
    assert_eq!(
        stats.drs_groups, 0,
        "recovery must restore the operator's traffic groups from DRS"
    );
}

/// A server crash mid-run: queued and in-service copies are lost, the
/// timeout machinery retries reads elsewhere, and a later recovery lets
/// the server serve again.
#[test]
fn server_crash_and_recovery_accounts_for_every_request() {
    for scheme in Scheme::ALL {
        let mut cfg = base(scheme);
        cfg.write_fraction = 0.1; // writes exercise the abandon path
        cfg.faults = Some(FaultPlan {
            events: vec![
                at(40, FaultEvent::ServerCrash { server: 0 }),
                at(120, FaultEvent::ServerRecover { server: 0 }),
            ],
            ..FaultPlan::default()
        });
        let stats = run(cfg);
        assert_accounted(&stats);
        let avail = stats.availability.as_ref().unwrap();
        assert!(
            avail.copies_dropped > 0,
            "{scheme:?}: copies at the crashed server must be dropped: {avail:?}"
        );
    }
}

/// Total partition: every host uplink goes dark for 30 ms. Nothing can
/// be sent or delivered; retries after the window drain the backlog and
/// the accounting still balances.
#[test]
fn transient_partition_of_all_uplinks_is_survived() {
    let hosts = 4 * 4 * 4 / 4; // arity-4 fat tree
    let mut events: Vec<TimedFault> = (0..hosts)
        .map(|h| {
            at(
                30,
                FaultEvent::LinkFail {
                    link: LinkRef::HostUplink { host: h },
                },
            )
        })
        .collect();
    events.extend((0..hosts).map(|h| {
        at(
            60,
            FaultEvent::LinkRecover {
                link: LinkRef::HostUplink { host: h },
            },
        )
    }));
    let mut cfg = base(Scheme::CliRs);
    cfg.faults = Some(FaultPlan {
        events,
        ..FaultPlan::default()
    });
    let stats = run(cfg);
    assert_accounted(&stats);
    let avail = stats.availability.as_ref().unwrap();
    assert!(
        avail.copies_dropped > 0,
        "partitioned sends must be dropped: {avail:?}"
    );
    assert!(
        avail.retries > 0,
        "requests caught in the partition must retry: {avail:?}"
    );
}

/// A degraded link stretches latency without losing packets; a slowdown
/// stretches service times. Both must keep the accounting exact.
#[test]
fn degradations_disturb_latency_but_lose_nothing() {
    let mut cfg = base(Scheme::NetRsToR);
    cfg.faults = Some(FaultPlan {
        events: vec![
            at(
                30,
                FaultEvent::ServerSlowdown {
                    server: 1,
                    factor: 0.25,
                },
            ),
            at(
                60,
                FaultEvent::LinkDegrade {
                    link: LinkRef::SwitchLink { a: 16, b: 18 },
                    factor: 8.0,
                },
            ),
            at(
                110,
                FaultEvent::ServerSlowdown {
                    server: 1,
                    factor: 1.0,
                },
            ),
            at(
                110,
                FaultEvent::LinkRecover {
                    link: LinkRef::SwitchLink { a: 16, b: 18 },
                },
            ),
        ],
        ..FaultPlan::default()
    });
    let stats = run(cfg);
    assert_accounted(&stats);
    assert_eq!(stats.availability.as_ref().unwrap().faults_injected, 4);
}

/// Client-side schemes have no in-network operators to fail; the facade
/// reports that as an error instead of panicking (it used to panic).
#[test]
fn failing_an_operator_on_client_schemes_is_an_error_not_a_panic() {
    use netrs_sim::NotInNetwork;
    use netrs_topology::SwitchId;
    for scheme in [Scheme::CliRs, Scheme::CliRsR95] {
        let mut cluster = Cluster::new(base(scheme));
        assert_eq!(cluster.fail_operator(SwitchId(16)), Err(NotInNetwork));
    }
}

/// A `Quorum{w:2}` write that lost two of its three copies used to be
/// dropped from the request table when the third replied, so its timeout
/// never counted it: 3 459 completed + 1 531 timed out of 5 000.
#[test]
fn a_write_short_of_its_quorum_times_out() {
    let plan = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/faults/overlap.json"
    ))
    .expect("fault plan fixture");
    let mut cfg = base(Scheme::NetRsToR);
    cfg.requests = 5_000;
    cfg.write_fraction = 0.1;
    cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
    cfg.faults = Some(FaultPlan::from_json(&plan).expect("valid fault plan"));
    assert_accounted(&run(cfg));
}

/// An `All` write completes only once every replica acked: with server 0
/// of a six-way group dead from 1 ms, no write issued after the crash
/// completes (441 used to, once their last outstanding copy answered).
#[test]
fn an_all_write_waits_for_every_replica() {
    let crash = SimDuration::from_millis(1);
    let mut cfg = base(Scheme::CliRs);
    cfg.requests = 5_000;
    cfg.replication = 6;
    cfg.write_fraction = 0.1;
    cfg.faults = Some(FaultPlan {
        events: vec![TimedFault {
            at: crash,
            fault: FaultEvent::ServerCrash { server: 0 },
        }],
        ..FaultPlan::default()
    });
    let sink = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(sink.clone())),
        ..ObsOptions::default()
    };
    let stats = run_observed(cfg, obs).stats;
    assert_accounted(&stats);
    let trace = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let records: Vec<TraceRecord> = trace
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace record parses"))
        .collect();
    // Replicas other than server 0 still answer those writes.
    let after_crash = |r: &&TraceRecord| r.write && r.issued_ns > crash.as_nanos();
    assert!(records.iter().filter(after_crash).count() > 0);
    assert!(
        !records.iter().filter(after_crash).any(|r| r.first),
        "a write issued after the crash completed"
    );
}

/// A `Write` sink the test can read back after the run consumed the box.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: under a chaotic plan (server crash, operator fail-stop,
    /// packet loss) no request is ever silently lost, for any scheme and
    /// seed: every issued request completes or is a counted timeout.
    #[test]
    fn no_request_is_silently_lost(
        seed in 0u64..1_000,
        scheme_idx in 0usize..4,
        loss in 0.05f64..0.4,
        consistency_idx in 0usize..3,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let mut cfg = base(scheme);
        cfg.requests = 2_500;
        cfg.seed = seed;
        cfg.write_fraction = 0.1;
        cfg.write_consistency = [
            WriteConsistency::All,
            WriteConsistency::Quorum { w: 2 },
            WriteConsistency::Chain,
        ][consistency_idx];
        cfg.faults = Some(FaultPlan {
            events: vec![
                at(20, FaultEvent::ServerCrash { server: (seed % 6) as u32 }),
                at(35, FaultEvent::OperatorFail { switch: (seed % 20) as u32 }),
                at(50, FaultEvent::PacketLossBurst {
                    probability: loss,
                    duration: SimDuration::from_millis(15),
                }),
            ],
            ..FaultPlan::default()
        });
        let stats = run(cfg);
        let avail = stats.availability.as_ref().expect("active plan");
        prop_assert_eq!(stats.completed + avail.timeouts, stats.issued);
    }
}
