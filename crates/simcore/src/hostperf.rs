//! Host-performance observability: per-event-kind wall-clock attribution.
//!
//! [`PerfProbe`] is a kinded [`Probe`] that watches the simulator run on
//! the *host* machine — where sim-time telemetry (traces, device stats,
//! control streams) watches the simulated system. It records per-kind
//! dispatch counts for every event, samples wall-clock step durations at
//! a configurable stride so the overhead stays bounded, and keeps a
//! log2-bucketed histogram of post-event queue depths.
//!
//! The timing design matters: the engine brackets *whole sampled steps*
//! between two `Instant` reads and the per-kind total is estimated as
//! `mean(sampled step time for kind) × count(kind)`. Attributing
//! inter-sample gaps to the boundary event instead would weight kinds by
//! how *often* they fire, not what they *cost*. The reads themselves sit
//! inside the bracket — at ~150 ns events they put the attributed total
//! 15–22 % above wall — so their cost is calibrated once per probe and
//! subtracted from every sample.

use std::time::Instant;

use crate::time::SimTime;
use crate::trace::Probe;

/// Number of log2 queue-depth buckets kept by [`PerfProbe`]: bucket `i`
/// counts events whose post-handler pending-queue depth `d` satisfied
/// `floor(log2(max(d, 1))) == i`, i.e. `d` in `[2^i, 2^(i+1))` (bucket 0
/// also holds depth 0). 32 buckets cover any queue that fits in memory.
pub const DEPTH_BUCKETS: usize = 32;

/// Per-event-kind tallies accumulated by a [`PerfProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// Kind name, from [`World::event_kinds`](crate::World::event_kinds).
    pub name: &'static str,
    /// Events of this kind processed.
    pub count: u64,
    /// Events of this kind whose step was wall-clock timed.
    pub sampled: u64,
    /// Total measured nanoseconds across the sampled steps.
    pub sampled_ns: u64,
}

impl KindStats {
    /// Estimated total self-time in nanoseconds for this kind across the
    /// whole run: the mean sampled step time scaled up to the full count.
    /// Zero when the kind was never sampled.
    #[must_use]
    pub fn est_total_ns(&self) -> u64 {
        if self.sampled == 0 {
            0
        } else {
            (u128::from(self.sampled_ns) * u128::from(self.count) / u128::from(self.sampled)) as u64
        }
    }
}

/// End-of-run snapshot of everything a [`PerfProbe`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfReport {
    /// Sampling stride: every `stride`-th step was wall-clock timed.
    pub stride: u32,
    /// Calibrated cost of the `Instant` pair bracketing a sampled step,
    /// already subtracted from every sample.
    pub clock_ns: u64,
    /// Per-kind tallies, indexed like the world's `event_kinds()`.
    pub kinds: Vec<KindStats>,
    /// Log2 histogram of post-event queue depths (see [`DEPTH_BUCKETS`]).
    pub depth_hist: [u64; DEPTH_BUCKETS],
}

impl PerfReport {
    /// Total events across all kinds.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// Sum of per-kind estimated self-times: the portion of the run's
    /// wall-clock the attribution accounts for.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.kinds.iter().map(KindStats::est_total_ns).sum()
    }
}

/// A kinded probe: per-event-kind counts, strided wall-clock sampling,
/// and a queue-depth histogram.
///
/// Attach with [`Engine::with_probe`](crate::Engine::with_probe); the
/// probe only observes, so a profiled run's simulated timeline is
/// byte-identical to an unprofiled one.
#[derive(Debug, Clone)]
pub struct PerfProbe {
    kinds: Vec<KindStats>,
    stride: u32,
    /// What the two clock reads add to a sampled step's measured time.
    clock_ns: u64,
    /// Steps left until the next sample; when it hits zero the step is
    /// timed and the countdown restarts at `stride - 1`.
    until_sample: u32,
    depth_hist: [u64; DEPTH_BUCKETS],
}

impl PerfProbe {
    /// Default sampling stride: one step in seven is timed. A small prime
    /// avoids resonating with periodic event cadences, and at ~2×25 ns
    /// per clock read against ~200 ns events keeps overhead around 3–4%.
    pub const DEFAULT_STRIDE: u32 = 7;

    /// Creates a probe for a world with the given kind names (usually
    /// `W::event_kinds()`). `stride` of N samples every Nth step; it is
    /// clamped to at least 1 (sample every step). Calibrates the clock
    /// pair's cost (about 30 µs).
    #[must_use]
    pub fn new(kind_names: &'static [&'static str], stride: u32) -> Self {
        PerfProbe {
            kinds: kind_names
                .iter()
                .map(|name| KindStats {
                    name,
                    count: 0,
                    sampled: 0,
                    sampled_ns: 0,
                })
                .collect(),
            stride: stride.max(1),
            clock_ns: clock_pair_ns(),
            until_sample: 0,
            depth_hist: [0; DEPTH_BUCKETS],
        }
    }

    /// The sampling stride in effect.
    #[must_use]
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Snapshot of everything observed so far.
    #[must_use]
    pub fn report(&self) -> PerfReport {
        PerfReport {
            stride: self.stride,
            clock_ns: self.clock_ns,
            kinds: self.kinds.clone(),
            depth_hist: self.depth_hist,
        }
    }
}

impl Probe for PerfProbe {
    const KINDED: bool = true;

    fn on_event(&mut self, _now: SimTime, queue_depth: usize) {
        let bucket = (usize::BITS - 1 - queue_depth.max(1).leading_zeros()) as usize;
        self.depth_hist[bucket.min(DEPTH_BUCKETS - 1)] += 1;
    }

    fn sample_due(&mut self) -> bool {
        if self.until_sample == 0 {
            self.until_sample = self.stride - 1;
            true
        } else {
            self.until_sample -= 1;
            false
        }
    }

    fn on_event_kind(&mut self, kind: u32, sampled_ns: Option<u64>) {
        let slot = &mut self.kinds[kind as usize];
        slot.count += 1;
        if let Some(ns) = sampled_ns {
            slot.sampled += 1;
            slot.sampled_ns += ns.saturating_sub(self.clock_ns);
        }
    }
}

/// What bracketing a step between `Instant::now()` and `elapsed()` adds
/// to its measured time: the median of 1 001 brackets around nothing.
/// Each bracket follows a walk over 64 KB, as a sampled step follows a
/// handler's: back to back, with the clock's data hot in L1, a bracket
/// costs about half what it does between events.
fn clock_pair_ns() -> u64 {
    const PAIRS: usize = 1_001;
    let evict = vec![1u64; 8_192];
    let mut sink = 0u64;
    let mut ns: Vec<u64> = (0..PAIRS)
        .map(|_| {
            sink = evict
                .iter()
                .step_by(8)
                .fold(sink, |a, &x| a.wrapping_add(x));
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    std::hint::black_box(sink);
    ns.sort_unstable();
    ns[PAIRS / 2]
}

/// Peak resident-set size of the current process in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EventQueue, World};
    use crate::time::{SimDuration, SimTime};

    /// A toy kinded world: `Tick` events reschedule themselves a fixed
    /// number of times and spawn one `Tock` each.
    struct Clockwork {
        ticks_left: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Tick,
        Tock,
    }

    impl World for Clockwork {
        type Event = Ev;

        fn handle(&mut self, _now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
            if let Ev::Tick = ev {
                queue.schedule_after(SimDuration::from_nanos(3), Ev::Tock);
                if self.ticks_left > 0 {
                    self.ticks_left -= 1;
                    queue.schedule_after(SimDuration::from_nanos(10), Ev::Tick);
                }
            }
        }

        fn event_kinds() -> &'static [&'static str] {
            &["Tick", "Tock"]
        }

        fn event_kind(event: &Ev) -> u32 {
            match event {
                Ev::Tick => 0,
                Ev::Tock => 1,
            }
        }
    }

    #[test]
    fn perf_probe_counts_every_event_by_kind() {
        let probe = PerfProbe::new(Clockwork::event_kinds(), 3);
        let mut e = Engine::with_probe(Clockwork { ticks_left: 99 }, probe);
        e.queue_mut().schedule_at(SimTime::ZERO, Ev::Tick);
        e.run();
        let report = e.probe().report();
        assert_eq!(report.kinds[0].name, "Tick");
        assert_eq!(report.kinds[0].count, 100);
        assert_eq!(report.kinds[1].name, "Tock");
        assert_eq!(report.kinds[1].count, 100);
        assert_eq!(report.total_events(), e.processed());
        // Stride 3 over 200 events: 67 samples (steps 0, 3, 6, ...).
        let sampled: u64 = report.kinds.iter().map(|k| k.sampled).sum();
        assert_eq!(sampled, 67);
        // The depth histogram saw every event.
        assert_eq!(report.depth_hist.iter().sum::<u64>(), 200);
    }

    #[test]
    fn stride_one_samples_every_step() {
        let mut probe = PerfProbe::new(Clockwork::event_kinds(), 1);
        // Release-built toy steps cost about what the clock pair does:
        // keep the raw times so the coverage check below means something.
        probe.clock_ns = 0;
        let mut e = Engine::with_probe(Clockwork { ticks_left: 9 }, probe);
        e.queue_mut().schedule_at(SimTime::ZERO, Ev::Tick);
        e.run();
        let report = e.probe().report();
        for k in &report.kinds {
            assert_eq!(k.sampled, k.count, "stride 1 must time every {}", k.name);
        }
        // Every step was timed, so the attribution covers the loop.
        assert!(report.attributed_ns() > 0);
    }

    #[test]
    fn samples_exclude_the_calibrated_clock_pair() {
        let mut probe = PerfProbe::new(&["only"], 1);
        assert!(probe.report().clock_ns < 10_000, "a clock read is not 5 µs");
        probe.clock_ns = 40;
        probe.on_event_kind(0, Some(100));
        probe.on_event_kind(0, Some(30));
        probe.on_event_kind(0, None);
        let k = probe.report().kinds[0];
        assert_eq!((k.count, k.sampled, k.sampled_ns), (3, 2, 60));
    }

    #[test]
    fn stride_zero_is_clamped_to_one() {
        let probe = PerfProbe::new(&["only"], 0);
        assert_eq!(probe.stride(), 1);
    }

    #[test]
    fn est_total_scales_sampled_mean_to_full_count() {
        let k = KindStats {
            name: "x",
            count: 1000,
            sampled: 10,
            sampled_ns: 250, // mean 25 ns
        };
        assert_eq!(k.est_total_ns(), 25_000);
        let never_sampled = KindStats {
            name: "y",
            count: 5,
            sampled: 0,
            sampled_ns: 0,
        };
        assert_eq!(never_sampled.est_total_ns(), 0);
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
