//! Zero-cost-when-disabled observability: engine probes, engine profiles
//! and bounded time-series buffers.
//!
//! The [`Probe`] trait is the engine's instrumentation hook. Every method
//! has a no-op default body and the engine is monomorphized over the
//! probe type, so with the default [`NoProbe`] the hooks compile away and
//! the hot path is byte-for-byte what it was before instrumentation
//! existed. Worlds that need richer, domain-specific telemetry (per
//! request lifecycle spans, say) thread their own sinks; the probe layer
//! covers what only the engine can see — the event stream itself.

use std::collections::VecDeque;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Instrumentation sink driven by the [`Engine`](crate::Engine).
///
/// All methods default to no-ops so implementors opt into exactly the
/// signals they need and an uninstrumented engine pays nothing.
pub trait Probe {
    /// Whether this probe wants per-event-kind attribution.
    ///
    /// When `false` (the default) the engine never calls
    /// [`Probe::sample_due`] or [`Probe::on_event_kind`] and never reads
    /// the host clock per step — the associated const lets the branches
    /// fold away entirely, preserving the zero-cost guarantee for
    /// [`NoProbe`].
    const KINDED: bool = false;

    /// Called once per processed event, after the world's handler ran.
    /// `queue_depth` is the number of events pending afterwards.
    fn on_event(&mut self, now: SimTime, queue_depth: usize) {
        let _ = (now, queue_depth);
    }

    /// Whether the engine should wall-clock-time the next step (kinded
    /// probes only). Must be cheap — it runs before every event.
    fn sample_due(&mut self) -> bool {
        false
    }

    /// Called once per processed event on kinded probes, with the kind
    /// index from [`World::event_kind`](crate::World::event_kind) and,
    /// when [`Probe::sample_due`] returned true for this step, the
    /// measured wall-clock nanoseconds of the whole step.
    fn on_event_kind(&mut self, kind: u32, sampled_ns: Option<u64>) {
        let _ = (kind, sampled_ns);
    }
}

/// The default probe: every hook is a no-op and vanishes at compile time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// A probe that counts events and the deepest queue it saw, for tests.
#[derive(Debug, Default)]
pub struct CollectingProbe {
    /// Events observed via [`Probe::on_event`].
    pub events: u64,
    /// Deepest pending queue seen after any event.
    pub max_queue_depth: usize,
}

impl CollectingProbe {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Probe for CollectingProbe {
    fn on_event(&mut self, _now: SimTime, queue_depth: usize) {
        self.events += 1;
        self.max_queue_depth = self.max_queue_depth.max(queue_depth);
    }
}

/// End-of-run engine self-measurement: how much work the event loop did
/// and how fast the host machine chewed through it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Events processed.
    pub events: u64,
    /// Deepest the future-event list ever got.
    pub queue_high_water: usize,
    /// Events ever scheduled onto the queue.
    pub pushes: u64,
    /// Events ever popped off the queue.
    pub pops: u64,
    /// Peak resident-set size of the process in kilobytes (zero when the
    /// platform does not expose it).
    pub peak_rss_kb: u64,
    /// Wall-clock seconds since the engine was created.
    pub wall_seconds: f64,
    /// Events per wall-clock second (zero if no time elapsed).
    pub events_per_sec: f64,
}

impl EngineProfile {
    /// Builds a profile from raw engine counters and the construction
    /// instant.
    #[must_use]
    pub fn capture(
        events: u64,
        queue_high_water: usize,
        pushes: u64,
        pops: u64,
        started: Instant,
    ) -> Self {
        let wall_seconds = started.elapsed().as_secs_f64();
        let events_per_sec = if wall_seconds > 0.0 {
            events as f64 / wall_seconds
        } else {
            0.0
        };
        EngineProfile {
            events,
            queue_high_water,
            pushes,
            pops,
            peak_rss_kb: crate::hostperf::peak_rss_kb(),
            wall_seconds,
            events_per_sec,
        }
    }
}

impl std::fmt::Display for EngineProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rate = if self.events_per_sec >= 1_000_000.0 {
            format!("{:.2}M", self.events_per_sec / 1_000_000.0)
        } else if self.events_per_sec >= 1_000.0 {
            format!("{:.0}k", self.events_per_sec / 1_000.0)
        } else {
            format!("{:.0}", self.events_per_sec)
        };
        write!(
            f,
            "{} events in {:.2}s wall ({rate} events/s), queue high-water {} \
             ({} pushes / {} pops), peak RSS {} kB",
            self.events,
            self.wall_seconds,
            self.queue_high_water,
            self.pushes,
            self.pops,
            self.peak_rss_kb
        )
    }
}

/// A bounded time series: a ring buffer of `(sim time, value)` samples
/// that keeps the most recent `capacity` entries.
#[derive(Debug, Clone)]
pub struct RingSeries {
    cap: usize,
    buf: VecDeque<(SimTime, f64)>,
    pushed: u64,
}

impl RingSeries {
    /// Creates an empty series keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring series needs a positive capacity");
        RingSeries {
            cap: capacity,
            buf: VecDeque::with_capacity(capacity),
            pushed: 0,
        }
    }

    /// Appends a sample, evicting the oldest if the buffer is full.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((t, value));
        self.pushed += 1;
    }

    /// Samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Samples ever pushed, including evicted ones.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The most recent sample, if any.
    #[must_use]
    pub fn latest(&self) -> Option<(SimTime, f64)> {
        self.buf.back().copied()
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.buf.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn no_probe_is_trivially_usable() {
        let mut p = NoProbe;
        p.on_event(t(1), 3);
        assert!(!p.sample_due());
        p.on_event_kind(0, None);
    }

    #[test]
    fn ring_series_evicts_oldest_beyond_capacity() {
        let mut s = RingSeries::new(3);
        for i in 0..5u64 {
            s.push(t(i * 10), i as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.total_pushed(), 5);
        let kept: Vec<_> = s.iter().collect();
        assert_eq!(kept, vec![(t(20), 2.0), (t(30), 3.0), (t(40), 4.0)]);
        assert_eq!(s.latest(), Some((t(40), 4.0)));
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn ring_series_rejects_zero_capacity() {
        let _ = RingSeries::new(0);
    }

    #[test]
    fn profile_display_is_human_readable() {
        let p = EngineProfile {
            events: 1_000,
            queue_high_water: 42,
            pushes: 1_005,
            pops: 1_000,
            peak_rss_kb: 4_096,
            wall_seconds: 2.0,
            events_per_sec: 500.0,
        };
        let s = p.to_string();
        assert!(s.contains("1000 events"), "{s}");
        assert!(s.contains("high-water 42"), "{s}");
        assert!(s.contains("1005 pushes / 1000 pops"), "{s}");
        assert!(s.contains("peak RSS 4096 kB"), "{s}");
    }
}
