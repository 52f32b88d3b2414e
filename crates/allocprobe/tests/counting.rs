//! Integration test that actually registers the counting allocator.
//!
//! This lives in an integration test (its own process) so registering
//! the global allocator cannot leak into other tests.
//!
//! The counters are process-wide and the bounds below are exact, so the
//! scenarios run back to back inside one `#[test]`: as separate tests
//! they raced on the harness's parallel threads, and a shared mutex was
//! not enough — the other test's thread frees its stack and captured
//! output while the lock's next holder is between two snapshots.

use netrs_allocprobe::{snapshot, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn counters_stay_exact() {
    counters_track_alloc_dealloc_and_peak();
    grow_via_realloc_keeps_byte_accounting_exact();
}

fn counters_track_alloc_dealloc_and_peak() {
    let before = snapshot();
    assert!(
        !before.is_empty(),
        "the test harness itself allocates before the test body runs"
    );

    let v: Vec<u8> = Vec::with_capacity(1 << 20);
    let mid = snapshot();
    drop(v);
    let after = snapshot();

    let during = mid.delta(&before);
    assert!(during.allocs >= 1, "Vec::with_capacity must allocate");
    assert!(
        mid.live_bytes >= before.live_bytes + (1 << 20),
        "a live 1 MiB buffer must show in live_bytes"
    );
    assert!(
        mid.peak_bytes >= mid.live_bytes.min(before.live_bytes + (1 << 20)),
        "peak must be at least the observed live high"
    );

    let total = after.delta(&before);
    assert!(total.deallocs >= 1, "dropping the Vec must deallocate");
    assert!(
        after.live_bytes < mid.live_bytes,
        "live bytes must fall after the drop"
    );
    // Peak never decreases.
    assert!(after.peak_bytes >= mid.peak_bytes);
}

fn grow_via_realloc_keeps_byte_accounting_exact() {
    let before = snapshot();
    let mut v: Vec<u8> = vec![0; 16];
    v.reserve_exact(1 << 16); // forces realloc on the existing block
    let mid = snapshot();
    assert!(mid.live_bytes >= before.live_bytes + (1 << 16));
    drop(v);
    let after = snapshot();
    assert!(after.live_bytes <= mid.live_bytes - (1 << 16) + 64);
}
