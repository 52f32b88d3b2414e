//! Allocation-tracking integration test (requires the `alloc-profile`
//! feature). Lives in its own test binary because registering a global
//! allocator is process-wide — and it is one test, not several: the
//! counters are process-wide too, so a second test running concurrently
//! would count its cluster build into this one's run.

use netrs_allocprobe::CountingAllocator;
use netrs_sim::{
    run_observed, FaultPlan, HostProfile, HotCacheConfig, ObsOptions, PerfOptions, Scheme,
    SimConfig, WriteConsistency,
};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Heap peak of the fault-shape run below, in bytes: a 128 KB holder bank
/// (16 384 key classes × one word for this topology's 20 switches) beside
/// six caches that carry no presence filter. 891 399 with a 1 KB filter
/// per cache and no bank; 940 858 with 20-byte cache slots and index
/// buckets of `u32` slot ids, 88-byte copy tokens and ToR monitors that no
/// re-plan reads; 1 027 982 with `u64` keys and versions in 32-byte cache
/// slots, 16-byte version slots and 56-byte request slots, and 96-byte
/// copy tokens; 1 097 432 before that with `Option`-tagged 24-byte version
/// slots and a 32-bit-per-entry cache filter.
const RW_FAULTS_PEAK_BYTES: u64 = 1_015_743;

fn profiled_run(scheme: Scheme, requests: u64, seed: u64) -> HostProfile {
    let mut cfg = SimConfig::small();
    cfg.requests = requests;
    cfg.scheme = scheme;
    cfg.seed = seed;
    profiled(cfg)
}

fn profiled(cfg: SimConfig) -> HostProfile {
    let obs = ObsOptions {
        perf: Some(PerfOptions::default()),
        ..ObsOptions::default()
    };
    run_observed(cfg, obs).perf.expect("perf profile requested")
}

#[test]
fn perf_profile_counts_allocations_and_the_hot_loop_stays_below_one_per_event() {
    // First, while the process-wide peak is still this run's own: the
    // fault benchmark's shape at test scale (writes, quorum acks, a hot-key
    // cache at every ToR operator, crashes and a loss burst). Heap peak
    // bytes repeat exactly for a seed, so per-key or per-switch state that
    // widens again fails here on any machine: `u64` keys and versions with
    // the copy token's duplicate timestamp read +9.3 %, 20-byte cache slots
    // +2.8 %. An 88-byte copy token stays inside the 1 % (the copy slab is
    // small at this scale), so `server.rs` pins the token's size instead.
    // (Counted bytes are what was asked for, not pages touched: a cache
    // that grows its storage again peaks at the same bytes once full, and
    // fails `tests/no_alloc.rs` instead.)
    let mut cfg = SimConfig::small();
    cfg.scheme = Scheme::NetRsToR;
    cfg.seed = 3;
    cfg.requests = 50_000;
    cfg.write_fraction = 0.1;
    cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
    cfg.hot_cache = Some(HotCacheConfig {
        capacity: 1024,
        ..HotCacheConfig::default()
    });
    let plan = include_str!("fixtures/faults/smoke.json");
    cfg.faults = Some(FaultPlan::from_json(plan).expect("valid fault plan"));
    let peak = profiled(cfg).alloc.expect("alloc block").peak_bytes;
    assert!(
        100 * peak <= 101 * RW_FAULTS_PEAK_BYTES,
        "heap peak {peak} B exceeds {RW_FAULTS_PEAK_BYTES} B + 1 %"
    );

    // The counting allocator is registered, so the profile carries the
    // alloc block.
    let perf = profiled_run(Scheme::NetRsIlp, 2_000, 7);
    let alloc = perf
        .alloc
        .expect("counting allocator is registered, so alloc stats must be present");
    // Building the cluster allocates (topology, dense tables, policy).
    assert!(alloc.allocs > 0, "{alloc:?}");
    assert!(alloc.deallocs > 0, "{alloc:?}");
    assert!(alloc.peak_bytes > 0, "{alloc:?}");
    // The serialized profile carries the alloc block.
    let json = serde_json::to_string(&perf).unwrap();
    assert!(json.contains("\"alloc\""), "{json}");
    assert!(json.contains("\"peak_bytes\""), "{json}");

    // The hot-path overhaul proved the steady-state loop allocation-free
    // per event; the counting allocator must agree at whole-run scale —
    // allocations amortize to (well under) one per event. Run after the
    // case above, never beside it, so only this run's allocations count.
    let perf = profiled_run(Scheme::CliRs, 5_000, 1);
    let alloc = perf.alloc.unwrap();
    assert!(
        alloc.allocs < perf.events,
        "allocs {} should amortize below one per event ({})",
        alloc.allocs,
        perf.events
    );
}
