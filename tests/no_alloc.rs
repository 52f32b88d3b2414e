//! Allocation audit of the per-packet hot path.
//!
//! A counting `#[global_allocator]` (which needs `unsafe`, so it cannot
//! live inside the `#![forbid(unsafe_code)]` library) proves that the
//! healthy-fabric timing trio — the code that runs for every simulated
//! packet — never touches the heap, that a hot-key cache and its holder
//! bank do not either once built, that a whole steady-state read
//! (generate → select → serve → receive) does not under CliRS or NetRS-ToR
//! — the copy slab's free list and the workload look-ahead's refills
//! included — nor a steady-state write's coherence fan-out, and pins the
//! size of the event payload the queue copies around, of a C3 table cell,
//! of a hot-key cache slot, of a version slot and of a request-table slot,
//! and the allocation counts of the one-time ring build, hot-key cache and
//! holder bank builds and placement solve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netrs::{PlacementProblem, PlanSolver};
use netrs_kvstore::{Ring, ServerId, VersionTable};
use netrs_netdev::{HolderBank, HotKeyCache};
use netrs_selection::C3Table;
use netrs_sim::testhooks::{TimingProbe, ARRIVAL_LOOKAHEAD, REQUEST_SLOT_BYTES};
use netrs_sim::{Cluster, Ev, HotCacheConfig, OraclePlacement, Scheme, SimConfig};
use netrs_simcore::{Engine, SimDuration};

// Per-thread counter so the measurement ignores allocations made by
// other tests the harness runs concurrently. `Cell<u64>` is const-init
// and has no destructor, so touching it from inside the allocator cannot
// recurse through lazy TLS setup.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn healthy_timing_fast_path_never_allocates() {
    let probe = TimingProbe::new(8);
    let hosts = u64::from(probe.num_hosts());
    let switches = u64::from(probe.num_switches());
    let mut total = SimDuration::ZERO;
    let allocs = allocs_during(|| {
        for h in 0..256u64 {
            let a = (h % hosts) as u32;
            let b = ((h * 31 + 7) % hosts) as u32;
            let sw = ((h * 13 + 3) % switches) as u32;
            total += probe.trio(a, b, sw, h).expect("healthy fabric");
        }
    });
    assert!(total > SimDuration::ZERO, "sanity: timing was computed");
    assert_eq!(
        allocs, 0,
        "per-packet timing on a healthy fabric must not touch the heap"
    );
}

#[test]
fn warm_hot_key_cache_never_allocates() {
    let cfg = HotCacheConfig {
        capacity: 64,
        ..HotCacheConfig::default()
    };
    let mut cache = HotKeyCache::new(cfg);
    // Three operators' caches gated by one holder bank, one of them in
    // the row's second word.
    let ops = [3u32, 40, 100];
    let mut bank = HolderBank::new(&cfg, 128);
    let mut gated = ops.map(|_| HotKeyCache::new(cfg));
    let allocs = allocs_during(|| {
        // Fill to capacity: the slab and index `new` allocated hold it.
        for key in 0..64 {
            cache.admit(key, 1, ServerId(0));
        }
        for i in 0..4_096u32 {
            // Every admission of a new key evicts; every seventh write
            // frees a slot that the next admission reuses.
            let key = 64 + u64::from(i);
            if cache.lookup(key).is_none() {
                cache.admit(key, i, ServerId(0));
            }
            if i % 7 == 0 {
                cache.apply_write(key - 3, i);
            }
            // The same traffic at the gated caches, then a coherence
            // batch to all three: the member set ANDed with the row.
            for (c, &op) in gated.iter_mut().zip(&ops) {
                let key = key + u64::from(op % 5);
                if bank.lookup(c, op, key).is_none() {
                    bank.admit(c, op, key, i, ServerId(0));
                }
            }
            if i % 7 == 0 {
                let (key, members) = (key - 3, [1 << 3 | 1 << 40, 1 << (100 - 64)]);
                let class = bank.class(key);
                for (w, members) in members.into_iter().enumerate() {
                    let mut holders = members & bank.word(class, w);
                    while holders != 0 {
                        let op = 64 * w as u32 + holders.trailing_zeros();
                        holders &= holders - 1;
                        let at = ops.iter().position(|&o| o == op).expect("a member");
                        bank.apply_write(&mut gated[at], op, key, i);
                    }
                }
            }
        }
    });
    assert!(cache.stats().evictions > 3_000 && cache.stats().invalidations > 500);
    for c in &gated {
        assert!(c.stats().evictions > 3_000 && c.stats().invalidations > 100);
    }
    assert_eq!(
        allocs, 0,
        "storage is sized at construction and a victim's slot is reused: no heap traffic"
    );
}

/// Heap allocations made while a small cluster serves `measured`
/// requests, after `warm` requests have brought every growable table
/// (queue slab, request ring, server queues, selector estimates, version
/// table, coherence batches) to its high-water size. Healthy fabric,
/// tracing and telemetry off: the configuration every benchmark workload
/// and figure sweep runs.
fn allocs_per_steady_state_requests(cfg: SimConfig, warm: u64, measured: u64) -> u64 {
    let mut engine = Engine::new(Cluster::new(SimConfig {
        requests: warm + measured,
        ..cfg
    }));
    let mut queue = std::mem::take(engine.queue_mut());
    engine.world_mut().prime(&mut queue);
    *engine.queue_mut() = queue;
    engine.run_while(|w| w.issued() < warm);
    assert_eq!(engine.world().issued(), warm, "sanity: warm-up ran");
    let allocs = allocs_during(|| engine.run_while(|w| w.issued() < warm + measured));
    assert_eq!(
        engine.world().issued(),
        warm + measured,
        "sanity: the measured requests were issued"
    );
    allocs
}

#[test]
fn steady_state_read_never_allocates() {
    let measured = 10_000;
    // The window refills the generators' look-ahead many times over, so
    // a refill that allocated would be counted.
    assert!(measured >= 2 * ARRIVAL_LOOKAHEAD as u64);
    for scheme in [Scheme::CliRs, Scheme::NetRsToR] {
        let cfg = SimConfig {
            scheme,
            ..SimConfig::small()
        };
        let allocs = allocs_per_steady_state_requests(cfg, 20_000, measured);
        assert_eq!(
            allocs, 0,
            "{scheme}: {allocs} heap allocations over {measured} steady-state reads"
        );
    }
}

#[test]
fn steady_state_write_fan_out_never_allocates() {
    // NetRS-ToR with 10 % writes and a hot-key cache at every ToR: each
    // write opens coherence batches (recycled operator sets, copied from
    // the rack's memoized fan-out) that the holder bank gates on
    // delivery. The version table grows with the written keys until past
    // 30 000 requests here.
    let cfg = SimConfig {
        scheme: Scheme::NetRsToR,
        write_fraction: 0.1,
        hot_cache: Some(HotCacheConfig {
            capacity: 64,
            ..HotCacheConfig::default()
        }),
        ..SimConfig::small()
    };
    let measured = 10_000;
    let allocs = allocs_per_steady_state_requests(cfg, 40_000, measured);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations over {measured} steady-state requests with writes"
    );
}

#[test]
fn event_payload_stays_within_audited_size() {
    // Every scheduled event is moved into the queue's payload slab and out
    // again when it fires. Per-copy events carry a 4-byte handle to the
    // copy's token, which stays put in the cluster's copy slab, so the
    // largest variants are `Select` and `SelectorUpdate` (three 8-byte
    // fields and a switch id). A new variant or field that pushes past 32
    // bytes deserves a handle of its own.
    let size = std::mem::size_of::<Ev>();
    assert!(
        size <= 32,
        "Ev grew to {size} bytes; move the payload aside"
    );
}

#[test]
fn c3_estimate_stays_at_32_bytes() {
    // CliRS keeps one C3 cell per (client, server): 500 × 100 at paper
    // scale, read on every selection. Three EWMAs and two 4-byte counts
    // fill 32 bytes, two cells to a cache line; the timeout penalty lives
    // in a side map that fault-free runs never read.
    assert_eq!(C3Table::ESTIMATE_BYTES, 32);
}

#[test]
fn cache_slot_stays_at_16_bytes() {
    // Every RSNode operator's cache holds `capacity` of these (1 024 at
    // every ToR operator on the fault benchmark): a `u32` key rank,
    // version and origin, and two `u16` recency links (a cache holds at
    // most 65 535 entries). `u32` links would make it 20 bytes, and
    // `u64` keys and versions 32.
    assert_eq!(HotKeyCache::SLOT_BYTES, 16);
}

#[test]
fn version_slot_stays_at_8_bytes() {
    // One slot per written key, probed on every write and every cache
    // hit's stale check: a `u32` key rank and a `u32` version, with key 0
    // marking an empty slot instead of an `Option` tag.
    assert_eq!(VersionTable::SLOT_BYTES, 8);
}

#[test]
fn request_slot_stays_at_48_bytes() {
    // The request table is a ring of these, sized by the in-flight
    // window (8 192 slots on the fault benchmark). The request id is the
    // issue position the warm-up cutoff reads, so no copy of it is kept,
    // and the key is a `u32` rank.
    assert_eq!(REQUEST_SLOT_BYTES, 48);
}

#[test]
fn set_up_allocations_are_pinned() {
    // Set-up work counted exactly, so it gates on any machine. The ring
    // build allocates its point list, group table and the ring's four
    // arrays: one allocation per segment (6 400 here) coming back fails.
    let ring = allocs_during(|| drop(Ring::new(100, 64, 3, 42).unwrap()));
    assert_eq!(ring, 6, "Ring::new(100, 64, 3, _)");

    // A hot-key cache is allocated once, at capacity: the entry slab and
    // the key index (an LRU cache keeps no sketch). The holder bank beside
    // the caches is one allocation, as the in-network policy builds it for
    // the paper's 320 switches.
    let cfg = HotCacheConfig {
        capacity: 1024,
        ..HotCacheConfig::default()
    };
    let cache = allocs_during(|| drop(HotKeyCache::new(cfg)));
    assert_eq!(cache, 2, "HotKeyCache::new at capacity 1 024");
    let bank = allocs_during(|| drop(HolderBank::new(&cfg, 320)));
    assert_eq!(bank, 1, "HolderBank::new at capacity 1 024");

    // The paper-config solve: greedy, `to_ilp` and the cover-bound proof.
    // The model holds one term list per row (641 rows); the rest is the
    // model's columns, the variable maps, the operator index and the
    // plans. A per-round or per-operator rescan allocates far more.
    let run = OraclePlacement::of(SimConfig::default());
    let p = PlacementProblem::new(&run.topo, &run.groups, &run.traffic, &run.constraints);
    let mut stats = None;
    let solve = allocs_during(|| stats = Some(p.solve_with_stats(PlanSolver::default()).1));
    let stats = stats.expect("solved");
    assert_eq!(
        (stats.constraints, stats.lp_iterations),
        (641, 0),
        "{stats:?}"
    );
    assert_eq!(solve, 806, "paper-config solve_with_stats");
}
