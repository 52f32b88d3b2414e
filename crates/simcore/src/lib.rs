//! Deterministic discrete-event simulation core for the NetRS reproduction.
//!
//! This crate is the substrate on which the rest of the workspace is built.
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond virtual clock that
//!   cannot drift the way floating-point clocks do,
//! * [`EventQueue`] and [`Engine`] — a classic calendar-queue discrete-event
//!   engine generic over the event type,
//! * [`SimRng`] and the distributions of §V-A of the NetRS paper
//!   (exponential service times, Poisson arrival processes, Zipfian key
//!   popularity, and the bimodal performance-fluctuation model), and
//! * [`Histogram`] — a log-bucketed latency histogram with percentile
//!   queries, used for every latency figure in the evaluation, and
//! * [`Probe`] / [`EngineProfile`] / [`RingSeries`] — zero-cost-when-
//!   disabled engine instrumentation, self-profiling, and bounded
//!   time-series buffers, and
//! * [`DeviceProbe`] / [`DeviceStatsRegistry`] — the same monomorphized
//!   zero-cost pattern one layer down: per-device (switch, link,
//!   accelerator, server, client) telemetry keyed by stable
//!   [`DeviceId`]s, and
//! * [`PerfProbe`] — host-performance observability: per-event-kind
//!   dispatch counts, strided wall-clock attribution, and queue-depth
//!   histograms for profiling the simulator itself.
//!
//! Everything in this crate is deterministic given a seed: the engine breaks
//! ties in event time by insertion sequence number and all randomness flows
//! from explicitly forked [`SimRng`] streams.
//!
//! # Examples
//!
//! ```
//! use netrs_simcore::{Engine, EventQueue, SimDuration, SimTime, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, queue: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             queue.schedule_after(SimDuration::from_micros(10), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.queue_mut().schedule_at(SimTime::ZERO, Ev::Tick);
//! engine.run();
//! assert_eq!(engine.world().fired, 3);
//! assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_micros(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod engine;
mod hostperf;
mod metrics;
mod parallel;
mod rng;
mod time;
mod trace;

pub use device::{
    DeviceCounter, DeviceId, DeviceProbe, DeviceStats, DeviceStatsRegistry, NoDeviceProbe, NodeId,
};
pub use engine::{Engine, EventQueue, World};
pub use hostperf::{peak_rss_kb, KindStats, PerfProbe, PerfReport, DEPTH_BUCKETS};
pub use metrics::{Histogram, Summary};
pub use parallel::{ParallelEngine, ParallelWorld, ShardId, WindowStats};
pub use rng::{Bimodal, SimRng, Zipf};
pub use time::{round_to_u64, SimDuration, SimTime};
pub use trace::{CollectingProbe, EngineProfile, NoProbe, Probe, RingSeries};
