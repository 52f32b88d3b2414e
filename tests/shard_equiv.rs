//! Replica-engine equivalence tests.
//!
//! The contract of `run_observed_sharded_parallel` (DESIGN.md §13): a
//! run that cannot execute as replicas *is* the sequential engine's run —
//! same `RunStats`, same trace JSONL — and says why; a run that can is
//! byte-identical whatever the worker count, even though its event order
//! differs from the sequential engine's.

use std::io::Write;
use std::sync::{Arc, Mutex};

use netrs_sim::{
    run, run_observed, run_observed_sharded_parallel, FaultPlan, HotCacheConfig, ObsOptions,
    ParallelOptions, PerfOptions, SamplerSpec, Scheme, SimConfig,
};
use proptest::prelude::*;

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

const SEEDS: [u64; 3] = [11, 12, 13];

fn tiny(scheme: Scheme, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.requests = 1_500;
    cfg.scheme = scheme;
    cfg.seed = seed;
    cfg
}

fn stats_json(stats: &netrs_sim::RunStats) -> String {
    serde_json::to_string_pretty(stats).expect("stats serialize")
}

/// `run_observed_sharded_parallel` on the calling thread, no observers.
fn run_shards(cfg: SimConfig, shards: u32, threads: usize) -> netrs_sim::RunStats {
    let par = ParallelOptions {
        threads,
        ..ParallelOptions::default()
    };
    run_observed_sharded_parallel(cfg, shards, par, ObsOptions::default()).stats
}

/// Every reason a run is not replica-eligible: asking for shards returns
/// the sequential engine's bytes — stats and trace — without a `parallel`
/// block, and the output names the reason.
#[test]
fn ineligible_runs_are_the_sequential_engine_and_say_why() {
    type Case = (&'static str, fn(&mut SimConfig, &mut ObsOptions));
    const INSTRUMENTED: &str = "device / hop / timeseries / perf instrumentation";
    let cases: [Case; 9] = [
        ("in-network scheme", |cfg, _| cfg.scheme = Scheme::NetRsToR),
        ("in-network scheme", |cfg, _| cfg.scheme = Scheme::NetRsIlp),
        ("active fault plan", |cfg, _| {
            let plan = include_str!("fixtures/faults/smoke.json");
            cfg.faults = Some(FaultPlan::from_json(plan).expect("valid fault plan"));
        }),
        ("hot-key cache", |cfg, _| {
            cfg.hot_cache = Some(HotCacheConfig::default());
        }),
        (INSTRUMENTED, |_, obs| obs.device_stats = true),
        (INSTRUMENTED, |_, obs| obs.trace_hops = true),
        (INSTRUMENTED, |_, obs| {
            obs.timeseries = Some(SamplerSpec::default());
        }),
        (INSTRUMENTED, |_, obs| {
            obs.perf = Some(PerfOptions::default());
        }),
        // Four shards with a generator each, one client between them.
        (
            "a shard with generators but no clients to draw from",
            |cfg, _| cfg.clients = 1,
        ),
    ];
    for (reason, setup) in cases {
        let observed = |shards: Option<u32>| {
            let sink = SharedBuf::default();
            let mut cfg = tiny(Scheme::CliRs, 11);
            let mut obs = ObsOptions {
                trace: Some(Box::new(sink.clone())),
                ..ObsOptions::default()
            };
            setup(&mut cfg, &mut obs);
            let out = match shards {
                Some(n) => run_observed_sharded_parallel(cfg, n, ParallelOptions::default(), obs),
                None => run_observed(cfg, obs),
            };
            (out, sink.take_string())
        };
        let (sequential, seq_trace) = observed(None);
        let (sharded, sh_trace) = observed(Some(4));
        assert_eq!(sharded.shards_not_applied, Some(reason));
        assert_eq!(sequential.shards_not_applied, None, "{reason}");
        assert!(sharded.stats.parallel.is_none(), "{reason}");
        assert_eq!(
            stats_json(&sequential.stats),
            stats_json(&sharded.stats),
            "{reason}: stats diverged from the sequential engine"
        );
        assert_eq!(seq_trace, sh_trace, "{reason}: trace JSONL diverged");
    }
}

/// Runs one parallel sharded run with trace + control sinks attached and
/// returns `(stats JSON, trace JSONL, control JSONL)`.
fn parallel_observed(
    cfg: SimConfig,
    shards: u32,
    par: ParallelOptions,
    devices: bool,
) -> (String, String, String) {
    let trace = SharedBuf::default();
    let control = SharedBuf::default();
    let obs = ObsOptions {
        trace: Some(Box::new(trace.clone())),
        control: Some(Box::new(control.clone())),
        trace_hops: devices,
        device_stats: devices,
        ..ObsOptions::default()
    };
    let out = run_observed_sharded_parallel(cfg, shards, par, obs);
    (
        stats_json(&out.stats),
        trace.take_string(),
        control.take_string(),
    )
}

/// The replica engine's acceptance invariant: for all four schemes, a
/// `--shards 4 --threads 4` run is byte-identical to `--shards 4
/// --threads 1` — RunStats, trace JSONL, and control JSONL. Client-side
/// schemes exercise the SPMD replica engine (true concurrency);
/// in-network schemes run the sequential engine either way.
#[test]
fn four_threads_byte_identical_to_one_thread_for_all_schemes() {
    for scheme in Scheme::ALL {
        for seed in SEEDS {
            let par = |threads| ParallelOptions {
                threads,
                ..ParallelOptions::default()
            };
            let one = parallel_observed(tiny(scheme, seed), 4, par(1), false);
            let four = parallel_observed(tiny(scheme, seed), 4, par(4), false);
            assert_eq!(one.0, four.0, "{scheme:?} seed {seed}: stats diverged");
            assert_eq!(one.1, four.1, "{scheme:?} seed {seed}: trace diverged");
            assert_eq!(one.2, four.2, "{scheme:?} seed {seed}: control diverged");
        }
    }
}

/// Same invariant with the device probe and hop tracing attached (which
/// routes every scheme to the sequential engine): stats, trace, and
/// control still thread-invariant, and the device report too.
#[test]
fn four_threads_byte_identical_with_device_stats() {
    for scheme in Scheme::ALL {
        let par = |threads| ParallelOptions {
            threads,
            ..ParallelOptions::default()
        };
        let one = parallel_observed(tiny(scheme, 11), 4, par(1), true);
        let four = parallel_observed(tiny(scheme, 11), 4, par(4), true);
        assert_eq!(one, four, "{scheme:?}: instrumented output diverged");
    }
}

/// One shard through the parallel entry point is still the sequential
/// engine, byte for byte.
#[test]
fn one_shard_parallel_matches_sequential_engine() {
    for scheme in Scheme::ALL {
        let sequential = run(tiny(scheme, 12));
        let parallel = run_shards(tiny(scheme, 12), 1, 4);
        assert_eq!(
            stats_json(&sequential),
            stats_json(&parallel),
            "{scheme:?}: one-shard parallel run diverged from sequential"
        );
    }
}

/// The replica engine completes the workload, reports the window
/// accounting, and never trips the mailbox at the default (provably
/// safe) 1× lookahead.
#[test]
fn replica_engine_completes_with_clean_window_accounting() {
    let stats = run_shards(tiny(Scheme::CliRs, 11), 4, 2);
    assert_eq!(stats.completed, 1_500, "work lost in replica mode");
    let par = stats
        .parallel
        .expect("multi-shard run reports window stats");
    assert_eq!(par.shards, 4);
    assert!(par.windows > 0, "window driver reported no windows");
    assert!(par.mailbox_posted > 0, "cross-shard traffic must exist");
    assert_eq!(par.mailbox_late, 0, "1x lookahead must never clamp");
}

/// A deliberately wide lookahead trips `mailbox_late`: cross-pod flows
/// traverse at least 6 links (host–ToR–agg–core–agg–ToR–host), so any
/// multiplier above that makes some posts land inside an already-drained
/// window. They are clamped and counted — never a panic, still
/// thread-invariant, and the workload still completes.
#[test]
fn wide_lookahead_clamps_late_posts_and_still_completes() {
    let par = |threads| ParallelOptions {
        threads,
        lookahead_mult: 50,
    };
    let cfg = || tiny(Scheme::CliRs, 13);
    let one = run_observed_sharded_parallel(cfg(), 4, par(1), ObsOptions::default()).stats;
    let four = run_observed_sharded_parallel(cfg(), 4, par(4), ObsOptions::default()).stats;
    assert_eq!(
        stats_json(&one),
        stats_json(&four),
        "clamped schedule must still be thread-invariant"
    );
    assert_eq!(one.completed, 1_500, "work lost under wide lookahead");
    let p = one.parallel.expect("window stats present");
    assert!(
        p.mailbox_late > 0,
        "50x lookahead over 6-link flows must clamp some posts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: a threaded N-shard replica run equals the
    /// same run windowed on one thread, under random seed, client-side
    /// scheme, shard count, thread count, and write fraction.
    #[test]
    fn parallel_equals_sequential_windowed(
        seed in 0u64..1_000,
        scheme_idx in 0usize..2,
        shards in 2u32..5,
        threads in 2usize..5,
        write_pct in 0u32..3,
    ) {
        let mut cfg = tiny(Scheme::ALL[scheme_idx], seed);
        cfg.requests = 400;
        cfg.write_fraction = f64::from(write_pct) * 0.1;
        let a = run_shards(cfg.clone(), shards, 1);
        let b = run_shards(cfg, shards, threads);
        prop_assert!(a.parallel.is_some(), "the case must run the replica engine");
        prop_assert_eq!(stats_json(&a), stats_json(&b));
        prop_assert_eq!(a.completed, 400);
    }
}
