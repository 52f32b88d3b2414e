//! Golden end-to-end run snapshots: the refactoring safety net.
//!
//! Each case runs one fixed-seed `SimConfig::small()` configuration with
//! the full observability stack attached (request trace with hops,
//! device telemetry) and pins three artifacts byte for byte:
//!
//! * the serialized [`RunStats`] JSON (stored verbatim, human-reviewable),
//! * the `--trace` JSONL stream (pinned by FNV-1a hash + length),
//! * the `--devices` JSONL report (pinned by FNV-1a hash + length),
//! * the `--control` JSONL stream (pinned by FNV-1a hash + length; empty
//!   for client schemes, which have no control plane to audit),
//! * the `--perf` profile's per-event-kind counts (the last line of the
//!   digests file): the exact work the run did, kind by kind, so a change
//!   that adds or drops events fails here at zero tolerance on any host.
//!
//! The stats/trace/devices fixtures predate the control stream and are
//! asserted with the control sink *attached*, so they double as proof
//! that control-plane observation never perturbs a run.
//!
//! Together the six cases cover every scheme and every event path of the
//! simulator: client selection, R95 duplicates, writes, demand skew,
//! in-network steering, the monitored re-plan loop and operator overload
//! degradation. Any refactor of the cluster must keep these bytes
//! identical — the fixtures were captured before the fabric/server/policy
//! split and have not been regenerated since. `clirs-skewed-writes` is
//! the one exception: it was captured at commit 2654938, where the same
//! config ran through code since deleted.
//!
//! To (re)generate after an *intentional* behavior change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_runs -- --test-threads=1
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use netrs_sim::{
    run_observed, run_observed_sharded_parallel, AllocStats, CacheAdmission, CacheWritePolicy,
    FaultPlan, HostMeta, HostProfile, HotCacheConfig, KindRecord, ObsOptions, OverloadPolicy,
    ParallelOptions, PerfOptions, PlanSource, QueueStats, RequestTableStats, Scheme, SimConfig,
    WriteConsistency, PERF_SCHEMA_VERSION,
};
use netrs_simcore::SimDuration;

/// A `Write` sink the test can read back after the run consumed the box.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().unwrap())
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

/// FNV-1a 64-bit over the artifact bytes. Not cryptographic — it only
/// needs to make an accidental behavior change during a refactor visible,
/// and a 64-bit digest plus the exact byte length does that while keeping
/// multi-megabyte trace files out of the repository.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden")
}

/// The pinned configurations. Names are fixture file stems; keep them
/// stable.
fn cases() -> Vec<(&'static str, SimConfig)> {
    let mut cases = Vec::new();
    for (name, scheme) in [
        ("clirs", Scheme::CliRs),
        ("clirs-r95", Scheme::CliRsR95),
        ("netrs-tor", Scheme::NetRsToR),
        ("netrs-ilp", Scheme::NetRsIlp),
    ] {
        let mut cfg = SimConfig::small();
        cfg.scheme = scheme;
        cfg.seed = 42;
        cases.push((name, cfg));
    }

    // The monitored control loop: bootstrap ToR plan, periodic re-plans
    // from monitor snapshots (with operator churn), overload detection.
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::NetRsIlp;
    cfg.seed = 7;
    cfg.plan_source = PlanSource::Monitored {
        interval: SimDuration::from_millis(500),
    };
    cfg.overload = Some(OverloadPolicy::default());
    cases.push(("netrs-ilp-monitored", cfg));

    // Client-side extras: a write mix (per-replica fan-out,
    // last-response completion) and demand skew.
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::CliRs;
    cfg.seed = 9;
    cfg.write_fraction = 0.2;
    cfg.demand_skew = Some(0.7);
    cases.push(("clirs-skewed-writes", cfg));

    cases
}

struct Artifacts {
    stats_json: String,
    trace: Vec<u8>,
    devices: Vec<u8>,
    control: Vec<u8>,
    /// `kinds KIND=COUNT ...`: the profile's non-zero kind counts in
    /// `EV_KINDS` order.
    kinds: String,
}

impl Artifacts {
    /// The digests file: trace and device digests, then the kind counts.
    fn digests(&self) -> String {
        format!(
            "{}\n{}\n{}\n",
            digest_line("trace", &self.trace),
            digest_line("devices", &self.devices),
            self.kinds
        )
    }
}

fn run_case(cfg: SimConfig) -> Artifacts {
    let trace_sink = SharedBuf::default();
    // The control sink rides along on every case: the pre-control-stream
    // fixtures double as proof that attaching it never perturbs the run.
    let control_sink = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(trace_sink.clone())),
        trace_hops: true,
        timeseries: None,
        device_stats: true,
        control: Some(Box::new(control_sink.clone())),
        // The perf sink also rides along: the pre-profiler fixtures double
        // as proof that wall-clock attribution never perturbs a run.
        perf: Some(PerfOptions { stride: 3 }),
        progress: false,
    };
    let out = run_observed(cfg, obs);
    let perf = out.perf.as_ref().expect("perf profile was enabled");
    assert_eq!(
        perf.kind_count_sum(),
        out.stats.events,
        "perf kind counts must partition the event stream exactly"
    );
    let mut kinds = String::from("kinds");
    for k in perf.kinds.iter().filter(|k| k.count > 0) {
        kinds += &format!(" {}={}", k.kind, k.count);
    }
    let mut devices = Vec::new();
    out.devices
        .as_ref()
        .expect("device stats were enabled")
        .write_jsonl(&mut devices)
        .expect("writing to a Vec cannot fail");
    Artifacts {
        stats_json: serde_json::to_string_pretty(&out.stats).expect("stats serialize"),
        trace: trace_sink.take(),
        devices,
        control: control_sink.take(),
        kinds,
    }
}

fn digest_line(kind: &str, bytes: &[u8]) -> String {
    format!("{kind} {:016x} {}", fnv1a64(bytes), bytes.len())
}

/// Compares `got` with the fixture at `path`, or rewrites the fixture
/// under `GOLDEN_REGEN`.
fn pin(path: &std::path::Path, got: &str, regen: bool) {
    if regen {
        std::fs::write(path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert_eq!(got, want, "{} diverged from its golden", path.display());
}

#[test]
fn golden_runs_are_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    if regen {
        std::fs::create_dir_all(&dir).expect("create fixture dir");
    }
    for (name, cfg) in cases() {
        let art = run_case(cfg);
        // The RW subsystem (write consistency modes, hot-key caching) is
        // strictly opt-in: none of these pre-RW configs enable it, so
        // their stats must not mention it — that, plus the unchanged
        // digests below, proves the feature emits nothing when off.
        assert!(
            !art.stats_json.contains("\"rw\""),
            "{name}: read-only golden stats must not grow an rw block"
        );
        assert!(!art.trace.is_empty(), "{name}: trace must not be empty");
        assert!(!art.devices.is_empty(), "{name}: devices must not be empty");
        let in_network = name.starts_with("netrs");
        assert_eq!(
            !art.control.is_empty(),
            in_network,
            "{name}: in-network schemes audit their plans; client schemes stay silent"
        );
        let digests = art.digests();
        let control_digest = format!("{}\n", digest_line("control", &art.control));
        pin(
            &dir.join(format!("{name}.stats.json")),
            &art.stats_json,
            regen,
        );
        pin(&dir.join(format!("{name}.digests.txt")), &digests, regen);
        pin(
            &dir.join(format!("{name}.control.txt")),
            &control_digest,
            regen,
        );
    }
}

/// The hot-key cache under writes and faults: `--small` NetRS-ToR, 10 %
/// `Quorum{w:2}` writes and a 128-entry cache per RSNode, under the fault
/// plan `tests/fixtures/faults/<plan>.json`.
fn cache_case(plan: &str, admission: CacheAdmission, write_policy: CacheWritePolicy) -> SimConfig {
    let plan = std::fs::read_to_string(fixtures_dir().join(format!("../faults/{plan}.json")))
        .expect("fault plan fixture");
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::NetRsToR;
    cfg.seed = 42;
    cfg.write_fraction = 0.1;
    cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
    cfg.hot_cache = Some(HotCacheConfig {
        capacity: 128,
        admission,
        write_policy,
    });
    cfg.faults = Some(FaultPlan::from_json(&plan).expect("valid fault plan"));
    cfg
}

/// Cache-run goldens. The `netrs-tor-rw-cache*` fixtures under
/// `invalidation-loss.json` (half of all packets lost for 400 ms while
/// writes are in flight) were captured at commit dc05ccd, when every
/// coherence message was its own heap event. Since the fan-out became one
/// event per arrival-time batch they differ from those captures in the
/// `"events"` line only: loss draws, counters, trace and device bytes are
/// the same. A regeneration that moves any other line is a behaviour
/// change, not a refresh. The `through-freq` digests and the `overlap`
/// case were captured at commit c532811, before the holder bank gated
/// coherence delivery, cache lookups and admissions. All three stats
/// fixtures have since moved in `availability.timeouts` alone, when a
/// `Quorum` write that drained short of its acks began to count as a
/// timeout instead of leaving the request table uncounted.
#[test]
fn cache_runs_are_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let art = run_case(cache_case(
        "invalidation-loss",
        CacheAdmission::Lru,
        CacheWritePolicy::Invalidate,
    ));
    assert!(art.stats_json.contains("\"rw\""), "cache runs report rw");
    pin(
        &dir.join("netrs-tor-rw-cache.stats.json"),
        &art.stats_json,
        regen,
    );
    pin(
        &dir.join("netrs-tor-rw-cache.digests.txt"),
        &art.digests(),
        regen,
    );

    // Refresh-in-place coherence and sketch-gated admission.
    let art = run_case(cache_case(
        "invalidation-loss",
        CacheAdmission::Frequency { threshold: 2 },
        CacheWritePolicy::Through,
    ));
    pin(
        &dir.join("netrs-tor-rw-cache-through-freq.stats.json"),
        &art.stats_json,
        regen,
    );
    pin(
        &dir.join("netrs-tor-rw-cache-through-freq.digests.txt"),
        &art.digests(),
        regen,
    );

    // `overlap.json` while writes and cached keys are live: RSNode 0
    // crashes (its cache is flushed) and recovers, a dead client uplink
    // sends every write through the unmemoized fan-out, and a loss burst
    // drops coherence messages of batches already in flight.
    let art = run_case(cache_case(
        "overlap",
        CacheAdmission::Lru,
        CacheWritePolicy::Invalidate,
    ));
    let control = String::from_utf8(art.control.clone()).expect("control stream is UTF-8");
    for trigger in ["operator_fail", "operator_recover"] {
        assert!(
            control.contains(&format!("\"trigger\":\"{trigger}\"")),
            "overlap: no {trigger} plan record"
        );
    }
    assert!(
        art.stats_json.contains("\"cache_invalidations\"")
            && !art.stats_json.contains("\"copies_dropped\": 0,"),
        "overlap: the dead uplink must cost copies"
    );
    pin(
        &dir.join("netrs-tor-rw-cache-overlap.stats.json"),
        &art.stats_json,
        regen,
    );
    pin(
        &dir.join("netrs-tor-rw-cache-overlap.digests.txt"),
        &art.digests(),
        regen,
    );
    pin(
        &dir.join("netrs-tor-rw-cache-overlap.control.txt"),
        &format!("{}\n", digest_line("control", &art.control)),
        regen,
    );
}

/// Chain writes and R95 duplicates under faults: `--small` CliRS-R95,
/// 10 % `Chain` writes, under `tests/fixtures/faults/overlap.json`, whose
/// 3 ms timeout makes retries and duplicates overlap while a crash, a
/// dead uplink and a loss burst cost copies of both. Captured at commit
/// 595ca86, before every request copy was launched from one place.
#[test]
fn r95_chain_fault_run_is_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let plan = std::fs::read_to_string(dir.join("../faults/overlap.json")).expect("fault plan");
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::CliRsR95;
    cfg.seed = 42;
    cfg.write_fraction = 0.1;
    cfg.write_consistency = WriteConsistency::Chain;
    cfg.faults = Some(FaultPlan::from_json(&plan).expect("valid fault plan"));
    let art = run_case(cfg);
    assert!(
        !art.stats_json.contains("\"duplicates\": 0,")
            && !art.stats_json.contains("\"copies_dropped\": 0,"),
        "the run must send duplicates and lose copies"
    );
    let name = "clirs-r95-chain-overlap";
    pin(
        &dir.join(format!("{name}.stats.json")),
        &art.stats_json,
        regen,
    );
    pin(
        &dir.join(format!("{name}.digests.txt")),
        &art.digests(),
        regen,
    );
    pin(
        &dir.join(format!("{name}.control.txt")),
        &format!("{}\n", digest_line("control", &art.control)),
        regen,
    );
}

/// Link faults, pinned before the fabric's routing was rebuilt on one
/// masked ECMP builder per segment kind: `--small` CliRS and NetRS-ToR
/// under `tests/fixtures/faults/links.json`, which fails a ToR–agg link
/// and a client's uplink, degrades an agg–core link four-fold, then
/// recovers all three. Every artifact `run_case` collects is pinned:
/// stats, trace (with hops), devices, per-kind event counts and control.
#[test]
fn link_fault_runs_are_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let plan = std::fs::read_to_string(dir.join("../faults/links.json")).expect("fault plan");
    for (name, scheme) in [
        ("clirs-links", Scheme::CliRs),
        ("netrs-tor-links", Scheme::NetRsToR),
    ] {
        let mut cfg = SimConfig::small();
        cfg.scheme = scheme;
        cfg.seed = 42;
        cfg.faults = Some(FaultPlan::from_json(&plan).expect("valid fault plan"));
        let art = run_case(cfg);
        assert!(
            art.stats_json.contains("\"availability\"")
                && !art.stats_json.contains("\"copies_dropped\": 0,"),
            "{name}: the dead uplink must cost copies"
        );
        pin(
            &dir.join(format!("{name}.stats.json")),
            &art.stats_json,
            regen,
        );
        pin(
            &dir.join(format!("{name}.digests.txt")),
            &art.digests(),
            regen,
        );
        pin(
            &dir.join(format!("{name}.control.txt")),
            &format!("{}\n", digest_line("control", &art.control)),
            regen,
        );
    }
}

/// The replica engine — the path the benchmark's `read-clirs-windowed`
/// workload times — on the `clirs` golden's config under two shards,
/// captured at commit 1657ef1. Only the trace and control sinks ride
/// along: `run_case`'s device and perf sinks make a run ineligible for
/// replicas. The bytes must not depend on the worker count.
#[test]
fn replica_runs_are_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let (_, cfg) = cases()
        .into_iter()
        .find(|(name, _)| *name == "clirs")
        .expect("the clirs case");
    let replicated = |threads| {
        let trace_sink = SharedBuf::default();
        let control_sink = SharedBuf::default();
        let obs = ObsOptions {
            trace: Some(Box::new(trace_sink.clone())),
            control: Some(Box::new(control_sink.clone())),
            ..ObsOptions::default()
        };
        let par = ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let out = run_observed_sharded_parallel(cfg.clone(), 2, par, obs);
        assert!(out.stats.parallel.is_some(), "the run must use replicas");
        assert!(control_sink.take().is_empty(), "client schemes stay silent");
        let stats = serde_json::to_string_pretty(&out.stats).expect("stats serialize");
        (
            stats,
            format!("{}\n", digest_line("trace", &trace_sink.take())),
        )
    };
    let one = replicated(1);
    assert_eq!(one, replicated(2), "worker count leaked into the artifacts");
    pin(&dir.join("clirs-shards2.stats.json"), &one.0, regen);
    pin(&dir.join("clirs-shards2.digests.txt"), &one.1, regen);
}

/// The `--json` stats of a `--small` run of `requests` requests in one of
/// the look-ahead boundary cases (without `--json`'s final newline).
fn boundary_stats(case: &str, requests: u64) -> String {
    let mut cfg = SimConfig::small();
    cfg.requests = requests;
    let stats = match case {
        "clirs-writes" => {
            cfg.scheme = Scheme::CliRs;
            cfg.write_fraction = 0.1;
            run_observed(cfg, ObsOptions::default()).stats
        }
        "netrs-tor" => {
            cfg.scheme = Scheme::NetRsToR;
            run_observed(cfg, ObsOptions::default()).stats
        }
        "clirs-shards2" => {
            cfg.scheme = Scheme::CliRs;
            let par = ParallelOptions {
                threads: 1,
                ..ParallelOptions::default()
            };
            let out = run_observed_sharded_parallel(cfg, 2, par, ObsOptions::default());
            assert!(out.stats.parallel.is_some(), "the run must use replicas");
            out.stats
        }
        other => panic!("unknown boundary case {other}"),
    };
    serde_json::to_string_pretty(&stats).expect("stats serialize")
}

/// The workload look-ahead at its refill boundaries: generators draw up to
/// 64 arrivals ahead per shard, so runs of 1, 63, 64, 65 and 129 requests
/// end inside, at, and just past a refill. The digests were captured at
/// commit c0c1f8c, before arrivals were drawn ahead, so they prove the
/// look-ahead moves no draw: the write coin (CliRS with 10 % writes), the
/// per-client backup pick (NetRS-ToR) and the per-shard streams of the
/// replica engine (CliRS on two shards).
#[test]
fn lookahead_boundary_runs_are_byte_identical() {
    const PINNED: [(&str, u64, &str); 15] = [
        ("clirs-writes", 1, "stats 9fb4c6931f08ad04 1352"),
        ("clirs-writes", 63, "stats 59239f974461addb 1401"),
        ("clirs-writes", 64, "stats 8b854c4cb3f3db49 1402"),
        ("clirs-writes", 65, "stats 535b3457e92d9d81 1402"),
        ("clirs-writes", 129, "stats 3fbc54d030ed1600 1457"),
        ("netrs-tor", 1, "stats 78d71f331738d6ca 1385"),
        ("netrs-tor", 63, "stats 82ae2f7a5c0177bc 1438"),
        ("netrs-tor", 64, "stats 24a04752da47e4a9 1452"),
        ("netrs-tor", 65, "stats a7c86040ec55ac42 1429"),
        ("netrs-tor", 129, "stats 208bd791f334cbf1 1458"),
        ("clirs-shards2", 1, "stats 4a6547a92113918d 1445"),
        ("clirs-shards2", 63, "stats 572c6af78549ce25 1503"),
        ("clirs-shards2", 64, "stats fc11af1467222583 1503"),
        ("clirs-shards2", 65, "stats 620671bfb20fbbd9 1503"),
        ("clirs-shards2", 129, "stats 4529c857ae825c22 1513"),
    ];
    for (case, requests, want) in PINNED {
        let stats = boundary_stats(case, requests);
        assert_eq!(
            digest_line("stats", stats.as_bytes()),
            want,
            "{case} at {requests} requests"
        );
    }
}

/// Artifact schemas no run golden above reaches, captured at commit
/// 071f355 from the hand-written serializers the derives replaced: a
/// fault run's stats (the `availability` block) with its control stream
/// (`drs_span` lines, `plan` lines naming a switch), a perf profile in
/// the two shapes `simulate --perf` writes (with and without the optional
/// `alloc` block), and a fault-plan file holding only `events`.
#[test]
fn artifact_schemas_are_byte_identical() {
    let dir = fixtures_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();

    let plan = std::fs::read_to_string(dir.join("../faults/smoke.json")).expect("fault plan");
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::NetRsToR;
    cfg.seed = 7;
    cfg.faults = Some(FaultPlan::from_json(&plan).expect("valid fault plan"));
    let art = run_case(cfg);
    assert!(art.stats_json.contains("\"availability\""));
    let control = String::from_utf8(art.control).expect("control stream is UTF-8");
    assert!(control.contains("\"kind\":\"drs_span\""));
    pin(
        &dir.join("netrs-tor-faults.stats.json"),
        &art.stats_json,
        regen,
    );
    pin(
        &dir.join("netrs-tor-faults.control-lines.txt"),
        &control,
        regen,
    );

    let bare = HostProfile {
        schema_version: PERF_SCHEMA_VERSION,
        scheme: "NetRS-ILP".into(),
        seed: 5,
        requests: 5_000,
        events: 18_000,
        wall_s: 0.0125,
        events_per_sec: 1_440_000.0,
        peak_rss_kb: 6_900,
        stride: 7,
        attributed_ns: 11_800_000,
        host: HostMeta {
            commit: "071f355".into(),
            cpu: "Test CPU @ 2.10GHz".into(),
            cores: 2,
        },
        queue: QueueStats {
            pushes: 18_000,
            pops: 18_000,
            high_water: 420,
            depth_hist: vec![1, 2, 4, 8],
        },
        alloc: None,
        request_table: RequestTableStats {
            slots: 4_096,
            live_high_water: 1_700,
            overflow_high_water: 310,
        },
        clock_pair_ns: 27,
        kinds: vec![
            KindRecord {
                kind: "Generate".into(),
                layer: "state".into(),
                count: 5_000,
                sampled: 715,
                self_ns: 3_400_000,
            },
            KindRecord {
                kind: "ServerDone".into(),
                layer: "server".into(),
                count: 13_000,
                sampled: 1_857,
                self_ns: 8_400_000,
            },
        ],
    };
    let counted = HostProfile {
        alloc: Some(AllocStats {
            allocs: 120,
            deallocs: 100,
            peak_bytes: 9_000_000,
        }),
        ..bare.clone()
    };
    for (name, profile) in [("host-profile", bare), ("host-profile-alloc", counted)] {
        let text = serde_json::to_string_pretty(&profile).expect("profile serializes");
        pin(&dir.join(format!("{name}.perf.json")), &text, regen);
        let back: HostProfile = serde_json::from_str(&text).expect("profile parses");
        assert_eq!(back, profile);
    }

    // Every knob a plan file leaves out is written back at its default.
    let plan = FaultPlan::from_json(
        r#"{ "events": [ { "at": 1000, "fault": { "ServerCrash": { "server": 2 } } } ] }"#,
    )
    .expect("events-only plans parse");
    pin(
        &dir.join("events-only.plan.json"),
        &serde_json::to_string_pretty(&plan).expect("plan serializes"),
        regen,
    );
}
