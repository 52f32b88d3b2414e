//! Host-performance profiler integration tests: kind-count accounting,
//! coverage, determinism of everything deterministic, and schema shape.

use proptest::prelude::*;

use netrs_sim::{run_observed, HostProfile, ObsOptions, PerfOptions, Scheme, SimConfig};

fn tiny(scheme: Scheme, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.requests = 2_000;
    cfg.scheme = scheme;
    cfg.seed = seed;
    cfg
}

fn profiled(cfg: SimConfig, stride: u32) -> (netrs_sim::RunOutput, HostProfile) {
    let obs = ObsOptions {
        perf: Some(PerfOptions { stride }),
        ..ObsOptions::default()
    };
    let mut out = run_observed(cfg, obs);
    let perf = out.perf.take().expect("perf profile requested");
    (out, perf)
}

#[test]
fn kind_counts_sum_to_total_events_for_all_four_schemes() {
    for scheme in Scheme::ALL {
        let (out, perf) = profiled(tiny(scheme, 42), 7);
        assert_eq!(
            perf.kind_count_sum(),
            out.stats.events,
            "{scheme:?}: every processed event must land in exactly one kind bucket"
        );
        assert_eq!(perf.events, out.stats.events);
        // Queue accounting: every event processed was popped, and the
        // run drained (pushes == pops at the end).
        assert_eq!(perf.queue.pops, out.stats.events);
        assert_eq!(perf.queue.pushes, perf.queue.pops);
        // The depth histogram also saw every event.
        assert_eq!(
            perf.queue.depth_hist.iter().sum::<u64>(),
            out.stats.events,
            "{scheme:?}"
        );
        // Layer tags come from the fixed table.
        for k in &perf.kinds {
            assert!(
                matches!(k.layer.as_str(), "state" | "policy" | "server" | "fabric"),
                "{scheme:?}: unknown layer {:?}",
                k.layer
            );
        }
        // Scheme-specific kinds show up where expected.
        let count = |name: &str| {
            perf.kinds
                .iter()
                .find(|k| k.kind == name)
                .map_or(0, |k| k.count)
        };
        assert!(count("Generate") >= 2_000, "{scheme:?}");
        assert!(count("ServerDone") > 0, "{scheme:?}");
        match scheme {
            Scheme::CliRs | Scheme::CliRsR95 => assert_eq!(count("Select"), 0, "{scheme:?}"),
            Scheme::NetRsToR | Scheme::NetRsIlp => assert!(count("Select") > 0, "{scheme:?}"),
        }
    }
}

#[test]
fn stride_one_attribution_covers_most_of_wall_clock() {
    // With stride 1 every step is timed, so the summed self-times must
    // account for nearly all of the run loop. The acceptance bar is 90%
    // at bench scale; at test scale (where setup is a larger share of
    // wall) we still demand a substantial majority.
    let mut cfg = tiny(Scheme::NetRsIlp, 42);
    cfg.requests = 10_000;
    let (_, perf) = profiled(cfg, 1);
    let wall_ns = perf.wall_s * 1e9;
    assert!(perf.attributed_ns > 0);
    let coverage = perf.attributed_ns as f64 / wall_ns;
    assert!(
        coverage > 0.5,
        "stride-1 attribution covered only {:.1}% of wall",
        coverage * 100.0
    );
    // Sanity: attribution cannot exceed wall by more than measurement
    // jitter.
    assert!(
        coverage < 1.5,
        "attribution {:.1}% > wall",
        coverage * 100.0
    );
}

#[test]
fn profiler_observes_without_perturbing_the_run() {
    for scheme in Scheme::ALL {
        let plain = netrs_sim::run(tiny(scheme, 9));
        let (out, _) = profiled(tiny(scheme, 9), 3);
        assert_eq!(
            serde_json::to_string_pretty(&out.stats).unwrap(),
            serde_json::to_string_pretty(&plain).unwrap(),
            "{scheme:?}: profiled run diverged from plain run"
        );
    }
}

#[test]
fn deterministic_fields_are_stable_across_repeat_runs() {
    let (_, a) = profiled(tiny(Scheme::NetRsToR, 5), 7);
    let (_, b) = profiled(tiny(Scheme::NetRsToR, 5), 7);
    // Wall-clock numbers differ run to run; everything simulated or
    // counted must not.
    let counts = |p: &HostProfile| -> Vec<(String, u64, u64)> {
        p.kinds
            .iter()
            .map(|k| (k.kind.clone(), k.count, k.sampled))
            .collect()
    };
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(a.queue, b.queue);
    assert_eq!(a.events, b.events);
    assert_eq!((a.seed, a.requests), (b.seed, b.requests));
}

#[test]
fn emitted_profile_carries_schema_version_and_host_metadata() {
    let (_, perf) = profiled(tiny(Scheme::CliRs, 1), 7);
    assert_eq!(perf.schema_version, netrs_sim::PERF_SCHEMA_VERSION);
    assert_eq!(perf.scheme, "CliRS");
    assert!(!perf.host.commit.is_empty());
    assert!(!perf.host.cpu.is_empty());
    let json = serde_json::to_string(&perf).unwrap();
    assert!(json.contains("\"schema_version\":2"), "{json}");
    assert!(
        !json.contains("\"label\""),
        "the scheme is written once: {json}"
    );
    assert!(json.contains("\"host\""), "{json}");
    // Round-trips through the artifact model.
    let back: HostProfile = serde_json::from_str(&json).unwrap();
    assert_eq!(back, perf);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The accounting invariant under arbitrary seeds, strides and
    /// schemes: counts partition the event stream exactly.
    #[test]
    fn prop_kind_counts_partition_events(
        seed in 1u64..1_000,
        stride in 1u32..32,
        scheme_idx in 0usize..4,
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let mut cfg = SimConfig::small();
        cfg.requests = 500;
        cfg.scheme = scheme;
        cfg.seed = seed;
        let (out, perf) = profiled(cfg, stride);
        prop_assert_eq!(perf.kind_count_sum(), out.stats.events);
        prop_assert_eq!(perf.queue.pops, out.stats.events);
        let sampled: u64 = perf.kinds.iter().map(|k| k.sampled).sum();
        // Strided sampling hits ceil(events / stride) steps.
        let expected = out.stats.events.div_ceil(u64::from(stride));
        prop_assert_eq!(sampled, expected);
    }
}
