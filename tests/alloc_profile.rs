//! Allocation-tracking integration test (requires the `alloc-profile`
//! feature). Lives in its own test binary because registering a global
//! allocator is process-wide — and it is one test, not several: the
//! counters are process-wide too, so a second test running concurrently
//! would count its cluster build into this one's run.

use netrs_allocprobe::CountingAllocator;
use netrs_sim::{run_observed, HostProfile, ObsOptions, PerfOptions, Scheme, SimConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn profiled_run(scheme: Scheme, requests: u64, seed: u64) -> HostProfile {
    let mut cfg = SimConfig::small();
    cfg.requests = requests;
    cfg.scheme = scheme;
    cfg.seed = seed;
    let obs = ObsOptions {
        perf: Some(PerfOptions::default()),
        ..ObsOptions::default()
    };
    run_observed(cfg, obs).perf.expect("perf profile requested")
}

#[test]
fn perf_profile_counts_allocations_and_the_hot_loop_stays_below_one_per_event() {
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
