//! Multi-threaded conservative-window execution over per-shard worlds.
//!
//! [`ParallelEngine`] partitions a simulation into shards that each own
//! their **own** [`ParallelWorld`] instance (an SPMD replica holding that
//! shard's mutable state) and their own [`EventQueue`]. Time advances in
//! *conservative windows* (classic lookahead PDES): every event with
//! `t < t_min + lookahead` runs, where `t_min` is the globally earliest
//! pending timestamp and `lookahead` the minimum cross-shard scheduling
//! delay the world guarantees. An event at `t` inside the window can
//! post a cross-shard event no earlier than `t + lookahead`, at or past
//! the window's end, so shards cannot affect each other inside a window
//! and drain concurrently:
//!
//! ```text
//! per window:  [merge: deliver posts, pick t_min, publish horizon]
//!              [barrier]
//!              every shard drains its queue up to the horizon,
//!              same-shard emissions re-enter its own queue,
//!              cross-shard emissions buffer in a private post list
//!              [barrier]
//! ```
//!
//! # Determinism
//!
//! The schedule is a pure function of the event content, never of thread
//! timing:
//!
//! * within a shard, events run in the shard queue's `(time, seq)` order;
//! * shards are independent within a window (cross-shard emissions are
//!   *buffered*, not delivered), so the cross-shard interleaving of the
//!   drain phase is unobservable;
//! * the merge phase delivers all buffered posts in `(time, src_shard,
//!   src_seq)` order, so the destination queue's insertion order — and
//!   hence its tie-break — is a total order.
//!
//! Consequently a run with `threads = 1` executes the *identical*
//! schedule as a run with `threads = N`, and the output of any consumer
//! that folds per-shard state in canonical shard order is byte-identical
//! across thread counts **by construction**. Tests pin this.
//!
//! # Lookahead-contract violations
//!
//! A world that posts a cross-shard event closer than its declared
//! lookahead does not corrupt the destination timeline: the delivery is
//! clamped to the destination clock and counted in
//! [`ParallelEngine::mailbox_late`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::engine::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identifies one shard of a [`ParallelEngine`] (dense, `0..num_shards`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

/// One shard's slice of a simulation that can run in parallel.
///
/// A `ParallelWorld` is instantiated **once per shard** (SPMD): each
/// instance owns the mutable state of its shard and treats everything
/// else as immutable construction data. Handlers therefore need
/// `&mut self` only for shard-local state, which is what makes the drain
/// phase safe to run concurrently.
pub trait ParallelWorld: Send {
    /// The event type.
    type Event: Send;

    /// What a cross-shard event travels as: the event plus whatever state
    /// it refers to by a handle into the emitting replica.
    type Parcel: Send;

    /// Processes one event at `now`, scheduling follow-ups into `queue`.
    /// Events whose [`shard_of`](ParallelWorld::shard_of) is this shard
    /// re-enter the shard's own queue (and may still run inside the
    /// current window); all others are buffered for the next merge.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// The shard that owns `event`. Consulted on the **emitting** shard's
    /// instance, before [`export`](ParallelWorld::export), so it must
    /// depend only on the event, what it refers to in this replica, and
    /// immutable data.
    fn shard_of(&self, event: &Self::Event) -> ShardId;

    /// Minimum cross-shard scheduling delay this world guarantees.
    fn lookahead(&self) -> SimDuration;

    /// Packs an event bound for another shard, releasing what it holds
    /// in this replica.
    fn export(&mut self, event: Self::Event) -> Self::Parcel;

    /// Unpacks a parcel from another shard into this replica's event.
    fn import(&mut self, parcel: Self::Parcel) -> Self::Event;
}

/// One cross-shard event buffered during a drain phase.
struct Post<P> {
    at: SimTime,
    src: u32,
    src_seq: u64,
    dest: u32,
    parcel: P,
}

/// Cache-line-padded per-shard state so adjacent shards' hot fields
/// never share a line (the queues/worlds allocate out-of-line, but the
/// mutexes and counters embedded here are written every window).
#[repr(align(128))]
struct Cell<W: ParallelWorld> {
    shard: u32,
    world: W,
    queue: EventQueue<W::Event>,
    /// Scratch queue handed to the handler; drained and routed after
    /// each event (same shard → own queue, cross shard → `posts`).
    outbox: EventQueue<W::Event>,
    posts: Vec<Post<W::Parcel>>,
    post_seq: u64,
    processed: u64,
    /// Wall-clock nanoseconds this shard spent draining (diagnostic
    /// only — never feeds back into the simulation schedule).
    busy_ns: u64,
}

impl<W: ParallelWorld> Cell<W> {
    /// Drains every in-window head event of this shard. `horizon_ns` is
    /// exclusive (`t < horizon`), except with zero lookahead where it is
    /// the inclusive window floor (`t <= t_min`).
    fn drain(&mut self, horizon_ns: u64, zero_lookahead: bool) {
        let t0 = Instant::now();
        while let Some(t) = self.queue.peek_time() {
            let due = if zero_lookahead {
                t.as_nanos() <= horizon_ns
            } else {
                t.as_nanos() < horizon_ns
            };
            if !due {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked head exists");
            self.outbox.reset_clock(at);
            self.world.handle(at, event, &mut self.outbox);
            while let Some((ts, ev)) = self.outbox.pop() {
                let dest = self.world.shard_of(&ev).0;
                if dest == self.shard {
                    self.queue.schedule_at(ts, ev);
                } else {
                    self.posts.push(Post {
                        at: ts,
                        src: self.shard,
                        src_seq: self.post_seq,
                        dest,
                        parcel: self.world.export(ev),
                    });
                    self.post_seq += 1;
                }
            }
            self.processed += 1;
        }
        self.busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Aggregate schedule statistics of a finished (or in-progress) run.
/// Every field is a pure function of the event schedule — independent of
/// thread count and wall-clock — so it is safe to surface in
/// deterministic run output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Conservative windows executed.
    pub windows: u64,
    /// Events processed across all shards.
    pub processed: u64,
    /// Cross-shard events buffered and merged.
    pub mailbox_posted: u64,
    /// Deliveries that violated the lookahead contract and were clamped
    /// to the destination shard's clock.
    pub mailbox_late: u64,
}

impl WindowStats {
    /// Mean events per window.
    #[must_use]
    pub fn events_per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.processed as f64 / self.windows as f64
        }
    }
}

/// Horizon sentinel published by the coordinator to stop the workers.
const DONE: u64 = u64::MAX;

/// Drives `N` per-shard [`ParallelWorld`] instances over a persistent
/// worker pool with two barriers per conservative window (the protocol
/// and the determinism argument head `parallel.rs`).
pub struct ParallelEngine<W: ParallelWorld> {
    cells: Vec<Mutex<Cell<W>>>,
    lookahead: SimDuration,
    threads: usize,
    stats: WindowStats,
    delivered: u64,
}

impl<W: ParallelWorld> ParallelEngine<W> {
    /// Creates an engine over one world instance per shard. `threads` is
    /// clamped to `[1, shards]`; shard `s` is statically assigned to
    /// worker `s % threads` (worker 0 is the calling thread).
    ///
    /// # Panics
    ///
    /// Panics when `worlds` is empty.
    pub fn new(worlds: Vec<W>, threads: usize) -> Self {
        assert!(!worlds.is_empty(), "need at least one shard world");
        let lookahead = worlds[0].lookahead();
        let threads = threads.clamp(1, worlds.len());
        let cells = worlds
            .into_iter()
            .enumerate()
            .map(|(s, world)| {
                Mutex::new(Cell {
                    shard: s as u32,
                    world,
                    queue: EventQueue::new(),
                    outbox: EventQueue::new(),
                    posts: Vec::new(),
                    post_seq: 0,
                    processed: 0,
                    busy_ns: 0,
                })
            })
            .collect();
        ParallelEngine {
            cells,
            lookahead,
            threads,
            stats: WindowStats::default(),
            delivered: 0,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> u32 {
        self.cells.len() as u32
    }

    /// Effective worker count (after clamping to the shard count).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Schedule statistics so far (thread-count-independent).
    #[must_use]
    pub fn stats(&self) -> WindowStats {
        self.stats
    }

    /// Cross-shard events posted so far.
    #[must_use]
    pub fn mailbox_posted(&self) -> u64 {
        self.stats.mailbox_posted
    }

    /// Clamped late deliveries so far.
    #[must_use]
    pub fn mailbox_late(&self) -> u64 {
        self.stats.mailbox_late
    }

    /// Per-shard wall-clock busy nanoseconds spent in drain phases
    /// (diagnostic; varies run-to-run with the host, unlike
    /// [`stats`](Self::stats)).
    #[must_use]
    pub fn busy_ns(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.lock().expect("cell lock").busy_ns)
            .collect()
    }

    /// Latest simulation instant any shard reached (the run's end time
    /// once the engine drains).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.cells
            .iter()
            .map(|c| c.lock().expect("cell lock").queue.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Per-shard processed-event counts.
    #[must_use]
    pub fn processed_per_shard(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.lock().expect("cell lock").processed)
            .collect()
    }

    /// Consumes the engine, returning the shard worlds in shard order.
    #[must_use]
    pub fn into_worlds(self) -> Vec<W> {
        self.cells
            .into_iter()
            .map(|c| c.into_inner().expect("cell lock").world)
            .collect()
    }

    /// SPMD priming: runs `prime(shard, world, queue)` for every shard
    /// with all clocks at zero, keeping only the events that belong to
    /// that shard (each replica primes the *full* schedule and the
    /// engine filters — foreign events are dropped here and primed by
    /// their owning shard instead).
    pub fn prime_each(&mut self, mut prime: impl FnMut(u32, &mut W, &mut EventQueue<W::Event>)) {
        debug_assert_eq!(self.stats.processed, 0, "prime_each after events ran");
        for cell in &self.cells {
            let cell = &mut *cell.lock().expect("cell lock");
            prime(cell.shard, &mut cell.world, &mut cell.outbox);
            while let Some((at, ev)) = cell.outbox.pop() {
                if cell.world.shard_of(&ev).0 == cell.shard {
                    cell.queue.schedule_at(at, ev);
                }
            }
            // Priming popped the scratch clock forward; rewind for the run.
            cell.outbox.reset_clock(SimTime::ZERO);
        }
    }

    /// Folds the per-cell processed counters into the aggregate stats.
    fn fold_processed(&mut self) {
        self.stats.processed = self
            .cells
            .iter()
            .map(|c| c.lock().expect("cell lock").processed)
            .sum();
    }

    /// Runs windows until every shard queue is drained.
    ///
    /// With `threads == 1` the identical schedule runs inline on the
    /// calling thread — no pool, no barriers — which is what makes the
    /// single-thread/multi-thread byte-identity hold by construction.
    pub fn run(&mut self) {
        let zero_la = self.lookahead == SimDuration::ZERO;
        if self.threads == 1 {
            loop {
                let horizon = merge_phase(
                    &self.cells,
                    self.lookahead,
                    &mut self.stats,
                    &mut self.delivered,
                );
                if horizon == DONE {
                    break;
                }
                for cell in &self.cells {
                    cell.lock().expect("cell lock").drain(horizon, zero_la);
                }
            }
            self.fold_processed();
            return;
        }

        let threads = self.threads;
        let lookahead_zero = zero_la;
        let horizon = AtomicU64::new(0);
        // Two barriers so the merge phase (coordinator alone) never
        // overlaps a drain phase (all workers).
        let start = Barrier::new(threads);
        let end = Barrier::new(threads);
        let cells = &self.cells;

        let (local, delivered) = std::thread::scope(|scope| {
            for w in 1..threads {
                let horizon = &horizon;
                let start = &start;
                let end = &end;
                scope.spawn(move || loop {
                    start.wait();
                    let h = horizon.load(Ordering::Acquire);
                    if h == DONE {
                        break;
                    }
                    for cell in cells.iter().skip(w).step_by(threads) {
                        cell.lock().expect("cell lock").drain(h, lookahead_zero);
                    }
                    end.wait();
                });
            }
            // Coordinator doubles as worker 0. Borrow-splitting: the
            // merge needs `&mut self`-ish access, so run it through a
            // local closure over the shared pieces instead.
            let mut local = WindowStats::default();
            let mut delivered = 0u64;
            loop {
                let h = merge_phase(cells, self.lookahead, &mut local, &mut delivered);
                horizon.store(h, Ordering::Release);
                start.wait();
                if h == DONE {
                    break;
                }
                for cell in cells.iter().step_by(threads) {
                    cell.lock().expect("cell lock").drain(h, lookahead_zero);
                }
                end.wait();
            }
            (local, delivered)
        });
        self.stats.windows += local.windows;
        self.stats.mailbox_posted += local.mailbox_posted;
        self.stats.mailbox_late += local.mailbox_late;
        self.delivered += delivered;
        self.fold_processed();
    }
}

/// Merge phase: delivers every buffered post in `(time, src, src_seq)`
/// order, then computes the next window's horizon. Returns the horizon in
/// nanoseconds, or [`DONE`] when every queue is drained. Free of
/// `&mut self` so the coordinator can run it inside the worker scope (the
/// cells are only ever touched under their mutexes, and the barriers
/// guarantee no worker holds one here).
fn merge_phase<W: ParallelWorld>(
    cells: &[Mutex<Cell<W>>],
    lookahead: SimDuration,
    stats: &mut WindowStats,
    delivered: &mut u64,
) -> u64 {
    let mut posts: Vec<Post<W::Parcel>> = Vec::new();
    for cell in cells {
        posts.append(&mut cell.lock().expect("cell lock").posts);
    }
    posts.sort_by_key(|p| (p.at, p.src, p.src_seq));
    stats.mailbox_posted += posts.len() as u64;
    for p in posts {
        let cell = &mut *cells[p.dest as usize].lock().expect("cell lock");
        let mut at = p.at;
        if at < cell.queue.now() {
            stats.mailbox_late += 1;
            at = cell.queue.now();
        }
        let event = cell.world.import(p.parcel);
        cell.queue.schedule_at(at, event);
        *delivered += 1;
    }
    let t_min = cells
        .iter()
        .filter_map(|c| c.lock().expect("cell lock").queue.peek_time())
        .min();
    let Some(t_min) = t_min else { return DONE };
    stats.windows += 1;
    t_min
        .as_nanos()
        .saturating_add(lookahead.as_nanos())
        .min(DONE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SPMD toy: each shard instance logs only its own events and
    /// forwards ring-wise with >= lookahead delay.
    struct Toy {
        shards: u32,
        lookahead_ns: u64,
        log: Vec<(u64, u32, u32)>,
    }

    type TEv = (u32, u32, u32); // (dest shard, id, hops left)

    impl ParallelWorld for Toy {
        type Event = TEv;
        type Parcel = TEv;
        fn handle(&mut self, now: SimTime, ev: TEv, queue: &mut EventQueue<TEv>) {
            let (shard, id, hops) = ev;
            self.log.push((now.as_nanos(), shard, id));
            if hops > 0 {
                let next = (shard + 1) % self.shards;
                let delay = SimDuration::from_nanos(self.lookahead_ns + u64::from(id % 3));
                queue.schedule_after(delay, (next, id, hops - 1));
            }
        }
        fn shard_of(&self, ev: &TEv) -> ShardId {
            ShardId(ev.0)
        }
        fn lookahead(&self) -> SimDuration {
            SimDuration::from_nanos(self.lookahead_ns)
        }
        fn export(&mut self, ev: TEv) -> TEv {
            ev
        }
        fn import(&mut self, ev: TEv) -> TEv {
            ev
        }
    }

    fn toys(shards: u32, lookahead_ns: u64) -> Vec<Toy> {
        (0..shards)
            .map(|_| Toy {
                shards,
                lookahead_ns,
                log: Vec::new(),
            })
            .collect()
    }

    type ToyLog = Vec<Vec<(u64, u32, u32)>>;

    fn run_toy(shards: u32, threads: usize) -> (ToyLog, WindowStats) {
        let mut e = ParallelEngine::new(toys(shards, 10), threads);
        e.prime_each(|_, _, q| {
            // Every shard primes the full schedule; the engine keeps
            // only its own events (SPMD filtering).
            for id in 0..8u32 {
                q.schedule_at(SimTime::from_nanos(u64::from(id % 4)), (id % shards, id, 5));
            }
        });
        e.run();
        let stats = e.stats();
        (e.into_worlds().into_iter().map(|w| w.log).collect(), stats)
    }

    #[test]
    fn threads_do_not_change_the_schedule() {
        let (one, s1) = run_toy(4, 1);
        for threads in [2, 3, 4] {
            let (many, sn) = run_toy(4, threads);
            assert_eq!(one, many, "threads={threads} diverged from threads=1");
            assert_eq!(s1, sn, "window stats must be thread-independent");
        }
        assert!(s1.mailbox_posted > 0, "ring hops must cross shards");
        assert_eq!(s1.mailbox_late, 0, "toy honours its lookahead");
        assert_eq!(s1.processed, 8 * 6);
        assert!(s1.events_per_window() > 0.0);
    }

    #[test]
    fn tie_storm_straddling_window_boundary_is_deterministic() {
        // Many identical timestamps, on every shard, placed exactly at
        // what becomes a window boundary: delivery order must still be
        // the (time, src, src_seq) total order, regardless of threads.
        let run = |threads: usize| {
            let mut e = ParallelEngine::new(toys(4, 10), threads);
            e.prime_each(|_, _, q| {
                for id in 0..32u32 {
                    // All at t=10 (== the first horizon for t_min=0 is
                    // 10, so these straddle the boundary), plus seeds at
                    // t=0 on every shard.
                    q.schedule_at(SimTime::ZERO, (id % 4, id, 1));
                    q.schedule_at(SimTime::from_nanos(10), (id % 4, id + 100, 1));
                }
            });
            e.run();
            let stats = e.stats();
            (
                e.into_worlds()
                    .into_iter()
                    .map(|w| w.log)
                    .collect::<Vec<_>>(),
                stats,
            )
        };
        let (a, sa) = run(1);
        let (b, sb) = run(4);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn lookahead_violation_clamps_counts_and_completes() {
        /// Declares 1000ns lookahead but forwards cross-shard at 1ns.
        struct Cheater {
            log: Vec<u64>,
        }
        impl ParallelWorld for Cheater {
            type Event = (u32, u32);
            type Parcel = (u32, u32);
            fn handle(&mut self, now: SimTime, ev: (u32, u32), q: &mut EventQueue<(u32, u32)>) {
                self.log.push(now.as_nanos());
                if ev.1 > 0 {
                    q.schedule_after(SimDuration::from_nanos(1), (1 - ev.0, ev.1 - 1));
                }
            }
            fn shard_of(&self, ev: &(u32, u32)) -> ShardId {
                ShardId(ev.0)
            }
            fn lookahead(&self) -> SimDuration {
                SimDuration::from_nanos(1000)
            }
            fn export(&mut self, ev: (u32, u32)) -> (u32, u32) {
                ev
            }
            fn import(&mut self, ev: (u32, u32)) -> (u32, u32) {
                ev
            }
        }
        for threads in [1, 2] {
            let mut e = ParallelEngine::new(
                vec![Cheater { log: Vec::new() }, Cheater { log: Vec::new() }],
                threads,
            );
            e.prime_each(|_, _, q| {
                q.schedule_at(SimTime::from_nanos(500), (1, 0));
                q.schedule_at(SimTime::ZERO, (0, 4));
            });
            e.run();
            assert_eq!(e.stats().processed, 6);
            assert!(e.mailbox_late() > 0, "late deliveries must be counted");
        }
    }

    #[test]
    fn single_shard_runs_without_mailbox_traffic() {
        let mut e = ParallelEngine::new(toys(1, 10), 8);
        assert_eq!(e.threads(), 1, "threads clamp to the shard count");
        e.prime_each(|_, _, q| {
            for id in 0..4u32 {
                q.schedule_at(SimTime::from_nanos(u64::from(id)), (0, id, 3));
            }
        });
        e.run();
        assert_eq!(e.mailbox_posted(), 0);
        assert_eq!(e.stats().processed, 16);
    }

    #[test]
    fn busy_and_processed_per_shard_have_one_entry_per_shard() {
        let (_, _) = run_toy(3, 2);
        let mut e = ParallelEngine::new(toys(3, 10), 2);
        e.prime_each(|_, _, q| {
            for id in 0..6u32 {
                q.schedule_at(SimTime::ZERO, (id % 3, id, 2));
            }
        });
        e.run();
        assert_eq!(e.busy_ns().len(), 3);
        assert_eq!(
            e.processed_per_shard().iter().sum::<u64>(),
            e.stats().processed
        );
    }
}
