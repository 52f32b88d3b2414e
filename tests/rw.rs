//! Read/write-mix end-to-end tests: replica-group write consistency
//! (quorum, chain) and the in-switch hot-key cache at the RSNodes.
//!
//! The determinism bar matches the rest of the suite: identical configs
//! must produce byte-identical stats (including every cache counter),
//! and read-only runs must not emit the `rw` stats block at all.

use netrs_sim::{
    run, run_observed, CacheAdmission, CacheWritePolicy, Cluster, FaultEvent, FaultPlan,
    HotCacheConfig, LinkRef, ObsOptions, RunStats, Scheme, SimConfig, TimedFault, WriteConsistency,
};
use netrs_simcore::SimDuration;
use proptest::prelude::*;

fn base(scheme: Scheme) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.requests = 4_000;
    cfg.scheme = scheme;
    cfg.seed = 11;
    cfg
}

/// A write-heavy config with the hot-key cache enabled on a skewed
/// keyspace, so both the write path and the cache see real traffic.
fn cached(scheme: Scheme) -> SimConfig {
    let mut cfg = base(scheme);
    cfg.write_fraction = 0.1;
    cfg.zipf = 1.2;
    cfg.keys = 2_000;
    cfg.hot_cache = Some(HotCacheConfig {
        capacity: 128,
        admission: CacheAdmission::Lru,
        write_policy: CacheWritePolicy::Invalidate,
    });
    cfg
}

/// The cached config with 20 % writes under a 400 ms burst that drops
/// each packet — coherence messages included — with `probability`.
fn lossy(probability: f64) -> SimConfig {
    let mut cfg = cached(Scheme::NetRsToR);
    cfg.write_fraction = 0.2;
    cfg.faults = Some(FaultPlan {
        events: vec![TimedFault {
            at: SimDuration::from_millis(10),
            fault: FaultEvent::PacketLossBurst {
                probability,
                duration: SimDuration::from_millis(400),
            },
        }],
        ..FaultPlan::default()
    });
    cfg
}

fn rw(stats: &RunStats) -> &netrs_sim::RwStats {
    stats.rw.as_ref().expect("rw stats block present")
}

#[test]
fn writes_complete_under_every_consistency_mode() {
    for scheme in [Scheme::CliRs, Scheme::NetRsToR] {
        for consistency in [
            WriteConsistency::All,
            WriteConsistency::Quorum { w: 2 },
            WriteConsistency::Chain,
        ] {
            let mut cfg = base(scheme);
            cfg.write_fraction = 0.2;
            cfg.write_consistency = consistency;
            let stats = run(cfg);
            assert_eq!(
                stats.completed, stats.issued,
                "{scheme:?}/{consistency:?}: no faults, every request completes"
            );
            assert!(
                stats.writes_issued > 0,
                "{scheme:?}/{consistency:?}: the 20% write mix must issue writes"
            );
            assert!(
                stats.write_latency.count > 0,
                "{scheme:?}/{consistency:?}: write percentiles recorded"
            );
            if consistency == WriteConsistency::All {
                // Legacy mode with no cache: the rw block stays absent so
                // pre-RW consumers see unchanged JSON.
                assert!(stats.rw.is_none(), "{scheme:?}: rw omitted in All mode");
            } else {
                assert_eq!(
                    rw(&stats).writes_completed,
                    stats.writes_issued,
                    "{scheme:?}/{consistency:?}: every write commits without faults"
                );
            }
        }
    }
}

#[test]
fn read_only_runs_emit_no_rw_block() {
    for scheme in [Scheme::CliRs, Scheme::NetRsToR] {
        let stats = run(base(scheme));
        assert!(stats.rw.is_none());
        let json = serde_json::to_string(&stats).expect("stats serialize");
        assert!(
            !json.contains("\"rw\""),
            "{scheme:?}: read-only stats JSON must not mention rw"
        );
    }
}

#[test]
fn cache_serves_hits_and_stays_deterministic() {
    for scheme in [Scheme::NetRsToR, Scheme::NetRsIlp] {
        let a = run(cached(scheme));
        let b = run(cached(scheme));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{scheme:?}: identical configs must produce byte-identical stats"
        );
        let rw = rw(&a);
        assert!(rw.cache_hits > 0, "{scheme:?}: hot keys must hit the cache");
        assert!(
            rw.cache_misses > 0,
            "{scheme:?}: cold keys must miss the cache"
        );
        assert!(
            rw.cache_invalidations > 0,
            "{scheme:?}: writes must invalidate cached keys"
        );
    }
}

#[test]
fn client_schemes_never_touch_the_cache() {
    // The cache lives at the RSNodes; client-side schemes have none, so
    // configuring one is inert (beyond forcing the rw block on).
    let stats = run(cached(Scheme::CliRs));
    let rw = rw(&stats);
    assert_eq!(rw.cache_hits + rw.cache_misses, 0);
    assert_eq!(rw.cache_invalidations, 0);
}

#[test]
fn cache_cuts_hot_read_latency() {
    // The acceptance experiment from the issue: same seed, Zipf-hot
    // keyspace, ≤10% writes — the cache-on run must show measurably
    // lower read latency than cache-off, because cached GETs skip the
    // selection queue and the whole server round trip.
    let mut off = cached(Scheme::NetRsToR);
    off.hot_cache = None;
    let on = cached(Scheme::NetRsToR);
    let stats_off = run(off);
    let stats_on = run(on);
    let hits = rw(&stats_on).cache_hits;
    let gets = rw(&stats_on).cache_hits + rw(&stats_on).cache_misses;
    assert!(
        hits * 5 > gets,
        "hit ratio too low to matter: {hits}/{gets}"
    );
    assert!(
        stats_on.latency.mean < stats_off.latency.mean,
        "cache-on mean read latency {} must beat cache-off {}",
        stats_on.latency.mean,
        stats_off.latency.mean
    );
    assert!(
        stats_on.latency.p99 <= stats_off.latency.p99,
        "cache-on p99 {} must not exceed cache-off {}",
        stats_on.latency.p99,
        stats_off.latency.p99
    );
}

#[test]
fn lost_invalidations_surface_as_stale_reads() {
    // Drop a burst of packets while writes are in flight: coherence
    // messages die with everything else, so cached entries outlive the
    // versions they were captured at and hits on them count as stale.
    let clean = run(lossy(0.0));
    let faulty = run(lossy(0.5));
    assert!(
        rw(&faulty).stale_reads > rw(&clean).stale_reads,
        "losing half the invalidations must increase stale reads ({} vs {})",
        rw(&faulty).stale_reads,
        rw(&clean).stale_reads
    );
    let avail = faulty.availability.as_ref().expect("fault plan attached");
    assert_eq!(
        faulty.completed + avail.timeouts,
        faulty.issued,
        "accounting holds under invalidation loss"
    );
}

/// What a run's coherence fan-out leaves behind: `stale_reads`,
/// `cache_invalidations`, `copies_dropped`, and `(switch, drops,
/// cache_invalidations)` for every switch where either counter moved.
type Footprint = (u64, u64, u64, Vec<(String, u64, u64)>);

fn coherence_footprint(cfg: SimConfig) -> Footprint {
    let out = run_observed(
        cfg,
        ObsOptions {
            device_stats: true,
            ..ObsOptions::default()
        },
    );
    let rw = rw(&out.stats);
    let avail = out
        .stats
        .availability
        .as_ref()
        .expect("fault plan attached");
    let per_switch = out
        .devices
        .expect("device stats requested")
        .of_kind("switch")
        .filter(|r| r.drops + r.cache_invalidations > 0)
        .map(|r| (r.dev.clone(), r.drops, r.cache_invalidations))
        .collect();
    (
        rw.stale_reads,
        rw.cache_invalidations,
        avail.copies_dropped,
        per_switch,
    )
}

fn per_switch(rows: &[(&str, u64, u64)]) -> Vec<(String, u64, u64)> {
    rows.iter()
        .map(|&(d, a, b)| (d.to_string(), a, b))
        .collect()
}

/// The coherence fan-out draws one loss sample per operator, in
/// ascending switch order within each arrival time. The expected values
/// were recorded at commit dc05ccd, when every message was its own heap
/// event: batching the fan-out must not move a single draw.
#[test]
fn fan_out_order_under_loss_matches_per_message_events() {
    let want: Footprint = (
        465,
        1196,
        3173,
        per_switch(&[
            ("switch:0", 224, 224),
            ("switch:1", 234, 174),
            ("switch:3", 235, 160),
            ("switch:4", 226, 155),
            ("switch:5", 221, 158),
            ("switch:6", 215, 164),
            ("switch:7", 225, 161),
        ]),
    );
    assert_eq!(coherence_footprint(lossy(0.5)), want);
}

/// Same contract with a broken fabric: one RSNode's ToR loses both
/// uplinks (unreachable from every other rack: `Drop` at issue time) and
/// another rack's uplink runs at a third of its speed (unequal path
/// costs: more arrival times per write), under a loss burst.
#[test]
fn fan_out_order_with_failed_links_matches_per_message_events() {
    let mut cfg = cached(Scheme::NetRsToR);
    cfg.write_fraction = 0.2;
    let probe = Cluster::new(cfg.clone());
    let topo = probe.topology();
    let rsnodes = probe.current_plan().expect("NetRS plan").rsnodes();
    let cut = *rsnodes.first().expect("plan has RSNodes");
    let slow = *rsnodes.last().expect("plan has RSNodes");
    assert_ne!(cut, slow);
    let pod = |sw| topo.pod_of_switch(sw).expect("ToRs live in pods");
    let at = |ms, fault| TimedFault {
        at: SimDuration::from_millis(ms),
        fault,
    };
    let uplink = |tor: netrs_topology::SwitchId, i| LinkRef::SwitchLink {
        a: tor.0,
        b: topo.agg(pod(tor), i).0,
    };
    cfg.faults = Some(FaultPlan {
        events: vec![
            at(
                5,
                FaultEvent::LinkFail {
                    link: uplink(cut, 0),
                },
            ),
            at(
                5,
                FaultEvent::LinkFail {
                    link: uplink(cut, 1),
                },
            ),
            at(
                5,
                FaultEvent::LinkDegrade {
                    link: uplink(slow, 0),
                    factor: 3.0,
                },
            ),
            at(
                20,
                FaultEvent::PacketLossBurst {
                    probability: 0.3,
                    duration: SimDuration::from_millis(200),
                },
            ),
        ],
        ..FaultPlan::default()
    });
    let want: Footprint = (
        251,
        955,
        4728,
        per_switch(&[
            ("switch:0", 606, 2),
            ("switch:1", 231, 161),
            ("switch:3", 252, 157),
            ("switch:4", 237, 164),
            ("switch:5", 239, 156),
            ("switch:6", 246, 160),
            ("switch:7", 251, 155),
        ]),
    );
    assert_eq!(coherence_footprint(cfg), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: with writes, any consistency mode and the cache on, no
    /// request is silently lost and the cache ledger stays balanced —
    /// every RSNode `GET` is exactly one hit or one miss.
    #[test]
    fn rw_accounting_holds(seed in 0u64..1_000, mode in 0usize..3, write_fraction in 0.05f64..0.4) {
        let mut cfg = cached(Scheme::NetRsToR);
        cfg.requests = 1_500;
        cfg.seed = seed;
        cfg.write_fraction = write_fraction;
        cfg.write_consistency = match mode {
            0 => WriteConsistency::All,
            1 => WriteConsistency::Quorum { w: 2 },
            _ => WriteConsistency::Chain,
        };
        let stats = run(cfg);
        prop_assert_eq!(stats.completed, stats.issued);
        let rw = stats.rw.as_ref().expect("cache on implies rw block");
        // Quorum acks at least W replicas before completing; chain and
        // all-mode writes complete only on the final copy. Either way a
        // completed write is a committed write when nothing faults.
        prop_assert_eq!(rw.writes_completed, stats.writes_issued);
        prop_assert!(rw.cache_hits + rw.cache_misses <= stats.issued - stats.writes_issued,
            "cache lookups cannot exceed reads issued");
        // Stale reads can occur even faultless (a hit can race an
        // in-flight invalidation) but never exceed the hits they ride on.
        prop_assert!(rw.stale_reads <= rw.cache_hits);
    }
}
