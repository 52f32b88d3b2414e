//! The discrete-event engine: a calendar queue plus a driver loop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

use crate::time::{SimDuration, SimTime};
use crate::trace::{EngineProfile, NoProbe, Probe};

/// The simulated world: all mutable state of a simulation plus the handler
/// that advances it one event at a time.
///
/// The engine owns a `World` and feeds it events in non-decreasing time
/// order. Handlers schedule follow-up events through the [`EventQueue`]
/// passed to [`World::handle`].
pub trait World: Sized {
    /// The event type processed by this world.
    type Event;

    /// Processes one event occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Names of this world's event kinds, indexed by [`World::event_kind`].
    ///
    /// Only consulted by kinded probes (see [`Probe::KINDED`]); the
    /// default collapses every event into a single `"event"` bucket so
    /// worlds that never profile need not implement it.
    #[must_use]
    fn event_kinds() -> &'static [&'static str] {
        &["event"]
    }

    /// Dense kind index of `event`, in `0..event_kinds().len()`.
    ///
    /// Must be cheap (a discriminant read): kinded probes call it once
    /// per processed event.
    #[must_use]
    fn event_kind(event: &Self::Event) -> u32 {
        let _ = event;
        0
    }
}

/// Sort key of a pending event plus its slot in the payload slab. Keeping
/// the payload out of the ordered structures means a sort or sift moves
/// 24 bytes whatever the event's size (32 bytes for the simulator's `Ev`).
/// The derived order is `(at, seq)` — `seq` is unique, so `idx` never
/// decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

/// One slab slot: the payload, its key (read back when the slot's bucket
/// is sorted into the run) and the intrusive link that threads the slot
/// onto its bucket's list while pending in the ring, or onto the free
/// list once popped.
struct Slot<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// End of an intrusive slot list.
const NIL: u32 = u32::MAX;
/// A bucket spans `2^11` ns ≈ 2 µs: 1.4–1.8 events at the simulator's
/// densities (16 µs buckets held 10.3 on average on NetRS-ILP, and the
/// insertion sort that opened them was 9 % of the run).
const BUCKET_SHIFT: u32 = 11;
/// Buckets in the ring — with the width, a `2^26` ns ≈ 67 ms horizon (every
/// network and service delay; only periodic timers and retry checks lie
/// beyond it) in 128 KB of list heads.
const RING_BUCKETS: usize = 32_768;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
/// Occupancy words: one bit per ring bucket.
const OCC_WORDS: usize = RING_BUCKETS / 64;
/// Summary words: one bit per occupancy word, set while that word is
/// non-zero. Finding the next occupied bucket reads at most one word of
/// each level plus these eight — an empty ring (every replica outbox,
/// after each event) costs the same as a full one.
const SUMMARY_WORDS: usize = OCC_WORDS / 64;

/// The absolute bucket number of a timestamp.
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// The index of the first set bit at or after bit `from` of `words`
/// (`from` may be one past the end), not wrapping.
fn first_set_from(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    let mut bits = *words.get(word)? & (!0u64 << (from % 64));
    while bits == 0 {
        word += 1;
        bits = *words.get(word)?;
    }
    Some(word * 64 + bits.trailing_zeros() as usize)
}

/// A future-event list ordered by `(time, insertion sequence)`.
///
/// Ties in event time are broken by insertion order, which makes simulations
/// fully deterministic for a fixed seed.
///
/// It is a calendar queue. Pending events live in one of three places,
/// by the bucket of their timestamp relative to the `cursor` bucket:
///
/// * the **run** — every event in a bucket at or before the cursor, kept
///   sorted by `(at, seq)`;
/// * the **ring** — buckets `cursor + 1 ..= cursor + RING_BUCKETS - 1`,
///   each an unsorted list threaded through the payload slab, with a
///   bitmap of the non-empty ones;
/// * the **far heap** — anything beyond the ring's horizon when it was
///   scheduled, in a binary heap that is never migrated.
///
/// Every ring event is in a later bucket than every run event, so the run's
/// head is the earliest of the two, and the earliest pending event is the
/// smaller of the run's head and the heap's top under the same `(at, seq)`
/// order a single binary heap would use: the pop sequence is exactly that
/// heap's. The run is refilled the moment it empties (the cursor jumps to
/// the next non-empty bucket, whose list is sorted into it), so an empty
/// run implies an empty ring and [`peek_time`](EventQueue::peek_time)
/// needs no search.
///
/// # Examples
///
/// ```
/// use netrs_simcore::{EventQueue, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(20), "later");
/// q.schedule_at(SimTime::from_nanos(10), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), ev), (10, "sooner"));
/// ```
pub struct EventQueue<E> {
    run: VecDeque<Entry>,
    /// The bucket the run extends to; set when the run becomes non-empty
    /// and meaningless while it is empty.
    cursor: u64,
    /// Head slot of each ring bucket's list, indexed by bucket number
    /// modulo the ring.
    heads: Vec<u32>,
    /// One bit per ring bucket: set while its list is non-empty.
    occupied: [u64; OCC_WORDS],
    /// One bit per `occupied` word: set while that word is non-zero.
    summary: [u64; SUMMARY_WORDS],
    far: BinaryHeap<Reverse<Entry>>,
    /// Event payloads; freed slots recycle through the `free` list, so the
    /// slab stays at the queue's high-water size.
    slab: Vec<Slot<E>>,
    free: u32,
    len: usize,
    seq: u64,
    popped: u64,
    now: SimTime,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            cursor: 0,
            heads: vec![NIL; RING_BUCKETS],
            occupied: [0; OCC_WORDS],
            summary: [0; SUMMARY_WORDS],
            far: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
            seq: 0,
            popped: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deepest the pending-event list has ever been.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Events ever scheduled (each `schedule_*` call is one push).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Events ever popped; `pushes() - pops()` is the pending count.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// An `at` earlier than the current time indicates a logic error in
    /// the caller: the event would fire "before" events that already ran,
    /// corrupting the timeline and the simulation's determinism. Debug
    /// builds panic; release builds clamp the event to `now` so the
    /// causal order of everything already processed still holds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "cannot schedule an event in the past: at={at}, now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = Slot {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
            assert_ne!(idx, NIL, "fewer than 2^32 - 1 pending events");
            self.slab.push(slot);
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.slab[idx as usize], slot).next;
            idx
        };
        self.len += 1;
        self.high_water = self.high_water.max(self.len);

        let entry = Entry { at, seq, idx };
        let bucket = bucket_of(at);
        if self.run.is_empty() {
            // Nothing is in the ring either, so the horizon is measured
            // from the clock, wherever an idle gap, a far-heap pop or a
            // `reset_clock` left the cursor — and a ring event would move
            // to the run at once (the eager refill), so it starts there.
            if bucket - bucket_of(self.now) < RING_BUCKETS as u64 {
                self.cursor = bucket;
                self.run.push_back(entry);
            } else {
                self.far.push(Reverse(entry));
            }
        } else if bucket <= self.cursor {
            // `seq` is the largest so far: the event goes behind every
            // pending one at its timestamp.
            let pos = self.run.partition_point(|e| e.at <= at);
            self.run.insert(pos, entry);
        } else if bucket - self.cursor < RING_BUCKETS as u64 {
            let b = (bucket & RING_MASK) as usize;
            self.occupied[b / 64] |= 1u64 << (b % 64);
            self.summary[b / 64 / 64] |= 1u64 << (b / 64 % 64);
            self.slab[idx as usize].next = std::mem::replace(&mut self.heads[b], idx);
        } else {
            self.far.push(Reverse(entry));
        }
    }

    /// Schedules `event` at `now() + delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_far = match (self.run.front(), self.far.peek()) {
            (Some(run), Some(Reverse(far))) => far < run,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let entry = if from_far {
            self.far.pop().expect("peeked above").0
        } else {
            let entry = self.run.pop_front().expect("peeked above");
            if self.run.is_empty() {
                self.refill();
            }
            entry
        };
        debug_assert!(entry.at >= self.now);
        self.len -= 1;
        self.popped += 1;
        self.now = entry.at;
        let slot = &mut self.slab[entry.idx as usize];
        let event = slot
            .event
            .take()
            .expect("every pending entry owns a live slab slot");
        slot.next = std::mem::replace(&mut self.free, entry.idx);
        Some((entry.at, event))
    }

    /// Moves the cursor to the ring's next non-empty bucket and sorts that
    /// bucket's list into the (empty) run. A no-op on an empty ring.
    fn refill(&mut self) {
        debug_assert!(self.run.is_empty());
        let first = ((self.cursor + 1) & RING_MASK) as usize;
        let Some(b) = self.occupied_from(first).or_else(|| self.occupied_from(0)) else {
            return;
        };
        // Ring slots `first..` then `..first` hold buckets `cursor + 1..`
        // in ascending order (the cursor's own slot is never occupied).
        self.cursor += 1 + ((b + RING_BUCKETS - first) as u64 & RING_MASK);
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        if self.occupied[b / 64] == 0 {
            self.summary[b / 64 / 64] &= !(1u64 << (b / 64 % 64));
        }
        let mut idx = std::mem::replace(&mut self.heads[b], NIL);
        while idx != NIL {
            let slot = &self.slab[idx as usize];
            self.run.push_back(Entry {
                at: slot.at,
                seq: slot.seq,
                idx,
            });
            idx = slot.next;
        }
        self.run.make_contiguous().sort_unstable();
    }

    /// The first occupied ring slot at or after `from`, not wrapping.
    fn occupied_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.occupied[word] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let word = first_set_from(&self.summary, word + 1)?;
        Some(word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// Returns the timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let run = self.run.front().map(|e| e.at);
        let far = self.far.peek().map(|e| e.0.at);
        match (run, far) {
            (Some(run), Some(far)) => Some(run.min(far)),
            (run, far) => run.or(far),
        }
    }

    /// Moves the clock to `now` without processing events.
    ///
    /// Intended for reusing a drained queue as a scratch *outbox* (see
    /// [`ParallelEngine`](crate::ParallelEngine)): handlers schedule
    /// relative times against the event being processed, so the scratch
    /// queue's clock must first be moved to that event's timestamp.
    /// Shards process events out of global time order, so the clock may
    /// legitimately move backwards here — which is only sound while
    /// nothing is pending, hence the emptiness requirement. (The calendar
    /// follows: an empty queue measures its horizon from the clock at the
    /// next push.)
    ///
    /// # Panics
    ///
    /// Panics if any events are pending.
    pub fn reset_clock(&mut self, now: SimTime) {
        assert!(
            self.is_empty(),
            "reset_clock would reorder {} pending events",
            self.len()
        );
        self.now = now;
    }
}

/// Drives a [`World`] through its event queue.
///
/// The engine is generic over a [`Probe`] for instrumentation; the
/// default [`NoProbe`] makes every hook a no-op that compiles away, so an
/// uninstrumented engine pays nothing. See the
/// [crate-level documentation](crate) for a complete example.
pub struct Engine<W: World, P: Probe = NoProbe> {
    world: W,
    queue: EventQueue<W::Event>,
    processed: u64,
    probe: P,
    started: Instant,
}

impl<W: World> Engine<W> {
    /// Creates an engine around `world` with an empty queue at time zero
    /// and no instrumentation.
    pub fn new(world: W) -> Self {
        Engine::with_probe(world, NoProbe)
    }
}

impl<W: World, P: Probe> Engine<W, P> {
    /// Creates an engine that reports each processed event to `probe`.
    pub fn with_probe(world: W, probe: P) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            processed: 0,
            probe,
            started: Instant::now(),
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the world state.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world state.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the event queue, e.g. for churn counters.
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Exclusive access to the event queue, e.g. to seed initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Shared access to the probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Consumes the engine and returns the world and the probe.
    pub fn into_parts(self) -> (W, P) {
        (self.world, self.probe)
    }

    /// The engine's self-measurement: events processed, queue-depth
    /// high-water mark, and wall-clock throughput since construction.
    #[must_use]
    pub fn profile(&self) -> EngineProfile {
        EngineProfile::capture(
            self.processed,
            self.queue.high_water(),
            self.queue.pushes(),
            self.queue.pops(),
            self.started,
        )
    }

    /// Processes a single event. Returns the time of the processed event, or
    /// `None` if the queue was empty.
    ///
    /// When the probe is kinded ([`Probe::KINDED`]) the engine asks
    /// [`Probe::sample_due`] whether to time this step; if so it brackets
    /// the whole step (pop, kind lookup, handler, `on_event`) between two
    /// `Instant` reads and hands the elapsed nanoseconds to
    /// [`Probe::on_event_kind`]. Pairing the reads around each sampled
    /// event — instead of attributing inter-sample gaps to the boundary
    /// event — keeps the per-kind estimate proportional to per-kind
    /// *cost*, not per-kind count. `KINDED` is an associated const, so
    /// for [`NoProbe`] every branch here folds away.
    pub fn step(&mut self) -> Option<SimTime> {
        let t0 = if P::KINDED && self.probe.sample_due() {
            Some(Instant::now())
        } else {
            None
        };
        let (at, event) = self.queue.pop()?;
        self.processed += 1;
        let kind = if P::KINDED { W::event_kind(&event) } else { 0 };
        self.world.handle(at, event, &mut self.queue);
        self.probe.on_event(at, self.queue.len());
        if P::KINDED {
            let sampled_ns = t0.map(|t| t.elapsed().as_nanos() as u64);
            self.probe.on_event_kind(kind, sampled_ns);
        }
        Some(at)
    }

    /// Runs until the queue is empty.
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Runs until the queue is empty or the next event would occur after
    /// `deadline` (events exactly at `deadline` are processed).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs while `keep_going` returns true (checked before each event) and
    /// events remain.
    pub fn run_while(&mut self, mut keep_going: impl FnMut(&W) -> bool) {
        while keep_going(&self.world) {
            if self.step().is_none() {
                break;
            }
        }
    }
}

/// The future-event list this module used before the calendar, kept as
/// the model the differential tests compare against: one binary heap of
/// `(at, seq)` keys over a payload slab.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Entry>>,
        slab: Vec<Option<E>>,
        free: Vec<u32>,
        seq: u64,
        popped: u64,
        now: SimTime,
        high_water: usize,
    }

    impl<E> HeapQueue<E> {
        pub(super) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                seq: 0,
                popped: 0,
                now: SimTime::ZERO,
                high_water: 0,
            }
        }

        pub(super) fn now(&self) -> SimTime {
            self.now
        }

        pub(super) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(super) fn high_water(&self) -> usize {
            self.high_water
        }

        pub(super) fn pushes(&self) -> u64 {
            self.seq
        }

        pub(super) fn pops(&self) -> u64 {
            self.popped
        }

        pub(super) fn schedule_at(&mut self, at: SimTime, event: E) {
            let at = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i as usize] = Some(event);
                    i
                }
                None => {
                    self.slab.push(Some(event));
                    (self.slab.len() - 1) as u32
                }
            };
            self.heap.push(Reverse(Entry { at, seq, idx }));
            self.high_water = self.high_water.max(self.heap.len());
        }

        pub(super) fn schedule_after(&mut self, delay: SimDuration, event: E) {
            self.schedule_at(self.now + delay, event);
        }

        pub(super) fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(entry) = self.heap.pop()?;
            self.popped += 1;
            self.now = entry.at;
            let event = self.slab[entry.idx as usize]
                .take()
                .expect("every heap entry owns a live slab slot");
            self.free.push(entry.idx);
            Some((entry.at, event))
        }

        pub(super) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.0.at)
        }

        pub(super) fn reset_clock(&mut self, now: SimTime) {
            assert!(self.heap.is_empty());
            self.now = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapQueue;
    use super::*;
    use crate::trace::CollectingProbe;
    use proptest::prelude::*;

    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now.as_nanos(), ev));
            if ev == 1 {
                // Handler-scheduled events interleave correctly.
                queue.schedule_after(SimDuration::from_nanos(5), 100);
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { seen: Vec::new() })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(30), 3);
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 1);
        e.queue_mut().schedule_at(SimTime::from_nanos(20), 2);
        e.run();
        assert_eq!(e.world().seen, vec![(10, 1), (15, 100), (20, 2), (30, 3)]);
        assert_eq!(e.processed(), 4);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = engine();
        // Start at 2 so no event triggers the handler's follow-up schedule.
        for ev in 2..102 {
            e.queue_mut().schedule_at(SimTime::from_nanos(7), ev);
        }
        e.run();
        let expected: Vec<(u64, u32)> = (2..102).map(|ev| (7, ev)).collect();
        assert_eq!(e.world().seen, expected);
    }

    #[test]
    fn run_until_stops_at_deadline_inclusive() {
        let mut e = engine();
        for t in [5u64, 10, 15, 20] {
            e.queue_mut().schedule_at(SimTime::from_nanos(t), t as u32);
        }
        e.run_until(SimTime::from_nanos(15));
        assert_eq!(e.world().seen, vec![(5, 5), (10, 10), (15, 15)]);
        assert_eq!(e.queue_mut().len(), 1);
        // The clock does not advance past the last processed event.
        assert_eq!(e.now(), SimTime::from_nanos(15));
    }

    #[test]
    fn run_while_respects_predicate() {
        let mut e = engine();
        for t in 1..=10u64 {
            e.queue_mut().schedule_at(SimTime::from_nanos(t), 0);
        }
        e.run_while(|w| w.seen.len() < 4);
        assert_eq!(e.world().seen.len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(50), 1);
        e.step();
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_in_the_past_clamps_to_now() {
        // Regression guard: release builds must not let a past timestamp
        // fire out of order (it would corrupt the trace timeline).
        let mut e = engine();
        e.queue_mut().schedule_at(SimTime::from_nanos(50), 1);
        e.step();
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 2);
        e.run();
        // The late event fired at now (50), not in the causal past.
        assert_eq!(e.world().seen, vec![(50, 1), (50, 2), (55, 100)]);
    }

    #[test]
    fn empty_queue_reports_exhaustion() {
        let mut e = engine();
        assert!(e.step().is_none());
        assert!(e.queue_mut().is_empty());
        assert_eq!(e.queue_mut().peek_time(), None);
    }

    #[test]
    fn queue_tracks_high_water_mark() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for t in [10u64, 20, 30] {
            q.schedule_at(SimTime::from_nanos(t), 0);
        }
        assert_eq!(q.high_water(), 3);
        let _ = q.pop();
        let _ = q.pop();
        q.schedule_at(SimTime::from_nanos(40), 0);
        // Draining and refilling below the peak does not move the mark.
        assert_eq!(q.high_water(), 3);
        // Churn counters: 4 schedules, 2 pops, difference is pending.
        assert_eq!(q.pushes(), 4);
        assert_eq!(q.pops(), 2);
        assert_eq!((q.pushes() - q.pops()) as usize, q.len());
    }

    #[test]
    fn tie_storm_interleaved_with_pops_preserves_insertion_order() {
        // Many events at ONE timestamp, with pops interleaved between the
        // schedules: insertion order must survive the heap churn exactly.
        let t = SimTime::from_nanos(100);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut popped = Vec::new();
        let mut next_id = 0u32;
        // Alternate bursts of schedules with partial drains.
        for burst in 0..20 {
            for _ in 0..burst + 1 {
                q.schedule_at(t, next_id);
                next_id += 1;
            }
            for _ in 0..burst / 2 {
                let (at, id) = q.pop().unwrap();
                assert_eq!(at, t);
                popped.push(id);
            }
        }
        while let Some((_, id)) = q.pop() {
            popped.push(id);
        }
        let expected: Vec<u32> = (0..next_id).collect();
        assert_eq!(popped, expected, "tie-storm must pop in insertion order");
    }

    #[test]
    fn slab_reuses_slots_after_heavy_churn() {
        // Push/pop far more events than are ever simultaneously pending:
        // the payload slab must stay at the high-water size, recycling
        // freed slots instead of growing without bound — whichever of
        // the run, the ring and the far heap the events pass through.
        const FAR: u64 = (RING_BUCKETS as u64) << BUCKET_SHIFT;
        let mut q: EventQueue<u64> = EventQueue::new();
        let spreads: [[u64; 4]; 3] = [
            [0, 1, 2, 3],                     // one bucket: the run
            [0, 20_000, 70_000, 3_000_000],   // later buckets: the ring
            [FAR, FAR + 1, 2 * FAR, 3 * FAR], // beyond the horizon: the heap
        ];
        for spread in spreads {
            for round in 0..1_000u64 {
                let base = q.now().as_nanos() + 10;
                for (i, offset) in spread.into_iter().enumerate() {
                    q.schedule_at(SimTime::from_nanos(base + offset), round * 4 + i as u64);
                }
                for _ in 0..4 {
                    let _ = q.pop().unwrap();
                }
            }
        }
        assert_eq!(q.pushes(), 12_000);
        assert_eq!(q.pops(), 12_000);
        assert_eq!(q.high_water(), 4);
        assert!(
            q.slab.len() <= q.high_water(),
            "slab grew to {} slots with a high-water of {}",
            q.slab.len(),
            q.high_water()
        );
        let mut free = 0;
        let mut idx = q.free;
        while idx != NIL {
            assert!(q.slab[idx as usize].event.is_none());
            free += 1;
            idx = q.slab[idx as usize].next;
        }
        assert_eq!(free, q.slab.len(), "all slots free after drain");
        assert!(q.run.is_empty() && q.far.is_empty());
        assert_eq!(q.occupied, [0; OCC_WORDS]);
        assert_eq!(q.summary, [0; SUMMARY_WORDS]);
    }

    /// The ring's horizon in nanoseconds.
    const HORIZON: u64 = (RING_BUCKETS as u64) << BUCKET_SHIFT;
    const BUCKET: u64 = 1 << BUCKET_SHIFT;

    /// The calendar queue and the heap it replaced, driven in lockstep:
    /// every operation goes to both and every observable is compared.
    struct Lockstep {
        q: EventQueue<u64>,
        model: HeapQueue<u64>,
        ops: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                q: EventQueue::new(),
                model: HeapQueue::new(),
                ops: 0,
            }
        }

        fn check(&mut self) {
            self.ops += 1;
            assert_eq!(self.q.now(), self.model.now());
            assert_eq!(self.q.peek_time(), self.model.peek_time());
            assert_eq!(self.q.len(), self.model.len());
            assert_eq!(self.q.is_empty(), self.model.len() == 0);
            assert_eq!(self.q.high_water(), self.model.high_water());
            assert_eq!(self.q.pushes(), self.model.pushes());
            assert_eq!(self.q.pops(), self.model.pops());
        }

        fn push_at(&mut self, at: u64) {
            let id = self.q.pushes();
            self.q.schedule_at(SimTime::from_nanos(at), id);
            self.model.schedule_at(SimTime::from_nanos(at), id);
            self.check();
        }

        fn push_after(&mut self, delay: u64) {
            let id = self.q.pushes();
            self.q.schedule_after(SimDuration::from_nanos(delay), id);
            self.model
                .schedule_after(SimDuration::from_nanos(delay), id);
            self.check();
        }

        /// Pops both; `false` once drained.
        fn pop(&mut self) -> bool {
            let got = self.q.pop();
            assert_eq!(got, self.model.pop(), "pop #{}", self.q.pops());
            self.check();
            got.is_some()
        }

        fn drain(&mut self) {
            while self.pop() {}
        }

        fn reset_clock(&mut self, now: u64) {
            self.q.reset_clock(SimTime::from_nanos(now));
            self.model.reset_clock(SimTime::from_nanos(now));
            self.check();
        }

        fn now(&self) -> u64 {
            self.q.now().as_nanos()
        }
    }

    /// A delay from one of the classes the calendar treats differently:
    /// zero, inside a bucket, inside the ring, around the horizon, and
    /// several horizons out.
    fn any_delay(rng: &mut TestRng) -> u64 {
        match rng.below(8) {
            0 => 0,
            1 | 2 => rng.below(BUCKET),
            3 | 4 => rng.below(64 * BUCKET),
            5 => rng.below(HORIZON),
            6 => HORIZON - 2 * BUCKET + rng.below(4 * BUCKET),
            _ => rng.below(4 * HORIZON),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Differential test against the binary-heap queue this module
        /// used before: at least 10^5 operations per case, in phases that
        /// each lean on one way the calendar could diverge from a heap.
        #[test]
        fn calendar_pops_exactly_what_the_heap_pops(
            seed in any::<u64>(),
            phases in proptest::collection::vec(0u8..8, 8..24),
        ) {
            let mut rng = TestRng::from_seed(seed);
            let mut l = Lockstep::new();
            let mut phases = phases.iter().cycle();
            while l.ops < 100_000 {
                let steps = 200 + rng.below(2_000);
                match phases.next().expect("non-empty cycle") {
                    // Every delay class interleaved with pops, around a
                    // few hundred pending events.
                    0 => for _ in 0..steps {
                        if l.q.len() > 600 || rng.below(5) < 2 {
                            l.pop();
                        } else {
                            l.push_after(any_delay(&mut rng));
                        }
                    },
                    // A tie storm at one timestamp, pops interleaved.
                    1 => {
                        let storm = l.now() + rng.below(3 * BUCKET);
                        for _ in 0..steps {
                            if rng.below(3) == 0 {
                                l.pop();
                            } else {
                                l.push_at(storm.max(l.now()));
                            }
                        }
                    }
                    // Zero-delay schedules issued between pops.
                    2 => for _ in 0..steps {
                        if !l.pop() {
                            l.push_after(rng.below(BUCKET));
                        }
                        for _ in 0..rng.below(3) {
                            l.push_after(0);
                        }
                        if rng.below(4) == 0 {
                            l.pop();
                        }
                    },
                    // Delays straddling the horizon: neighbours in time
                    // land in the ring and in the far heap, and the clock
                    // walks forward so far events come due among ring ones.
                    3 => for _ in 0..steps {
                        l.push_after(HORIZON - 2 * BUCKET + rng.below(4 * BUCKET));
                        l.push_after(rng.below(2 * BUCKET));
                        if rng.below(3) != 0 {
                            l.pop();
                            l.pop();
                        }
                    },
                    // Idle gaps longer than the ring: the only pending
                    // events are horizons away, so the cursor wraps.
                    4 => for _ in 0..steps / 8 {
                        l.drain();
                        for _ in 0..1 + rng.below(4) {
                            l.push_after(HORIZON * (1 + rng.below(4)) + rng.below(BUCKET));
                        }
                        l.pop();
                        for _ in 0..rng.below(6) {
                            l.push_after(any_delay(&mut rng));
                        }
                    },
                    // The window driver's outbox: a drained queue's clock
                    // is moved (backwards too), a handler schedules
                    // relative to it, everything is popped.
                    5 => for _ in 0..steps / 4 {
                        l.drain();
                        l.reset_clock(rng.below(8 * HORIZON));
                        for _ in 0..1 + rng.below(4) {
                            l.push_after(any_delay(&mut rng));
                        }
                    },
                    // A sparse ring at full size: one event per occupancy
                    // word, from a random ring position, so refills step
                    // across words, summary words and the wrap.
                    6 => for _ in 0..steps / 256 {
                        l.drain();
                        let base = l.now() + rng.below(HORIZON);
                        l.reset_clock(base);
                        for word in 0..OCC_WORDS as u64 - 1 {
                            l.push_at(base + word * 64 * BUCKET + rng.below(64 * BUCKET));
                            if rng.below(8) == 0 {
                                l.pop();
                            }
                        }
                    },
                    // A past `at`: release builds clamp it to `now` (debug
                    // builds panic, so there the event is scheduled at
                    // `now` outright).
                    _ => for _ in 0..steps {
                        if rng.below(3) == 0 {
                            l.pop();
                        } else if cfg!(debug_assertions) {
                            l.push_at(l.now());
                        } else {
                            l.push_at(l.now().saturating_sub(rng.below(2 * HORIZON)));
                        }
                    },
                }
            }
            l.drain();
            prop_assert!(l.q.is_empty());
        }
    }

    #[test]
    fn calendar_follows_the_clock_across_idle_gaps_and_resets() {
        // Order never depends on where the cursor is, only speed does: a
        // cursor left behind would send every later push to the far heap.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10 * HORIZON), 0);
        assert_eq!(q.far.len(), 1, "beyond the horizon of an idle queue");
        let _ = q.pop();
        q.schedule_after(SimDuration::from_nanos(3 * BUCKET), 1);
        q.schedule_after(SimDuration::from_nanos(5 * BUCKET), 2);
        assert!(q.far.is_empty(), "the horizon is measured from the clock");
        while q.pop().is_some() {}
        q.reset_clock(SimTime::from_nanos(100 * HORIZON));
        q.schedule_after(SimDuration::from_nanos(BUCKET), 3);
        assert!(q.far.is_empty(), "also after the clock is moved by hand");
    }

    #[test]
    fn reset_clock_moves_empty_queue_clock_both_ways() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), 1);
        let _ = q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(50));
        q.reset_clock(SimTime::from_nanos(10));
        assert_eq!(q.now(), SimTime::from_nanos(10));
        // schedule_after is now relative to the reset clock.
        q.schedule_after(SimDuration::from_nanos(5), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(15)));
    }

    #[test]
    #[should_panic(expected = "pending events")]
    fn reset_clock_rejects_pending_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), 1);
        q.reset_clock(SimTime::from_nanos(10));
    }

    #[test]
    fn probe_observes_every_event_and_profile_matches() {
        let mut e = Engine::with_probe(Recorder { seen: Vec::new() }, CollectingProbe::new());
        e.queue_mut().schedule_at(SimTime::from_nanos(10), 1);
        e.queue_mut().schedule_at(SimTime::from_nanos(20), 2);
        e.run();
        // 1 schedules a follow-up, so three events total.
        assert_eq!(e.probe().events, 3);
        assert!(e.probe().max_queue_depth >= 1);
        let profile = e.profile();
        assert_eq!(profile.events, 3);
        assert_eq!(profile.queue_high_water, 2);
        assert_eq!(profile.pushes, 3);
        assert_eq!(profile.pops, 3);
        assert!(profile.wall_seconds >= 0.0);
        let (world, probe) = e.into_parts();
        assert_eq!(world.seen.len(), 3);
        assert_eq!(probe.events, 3);
    }
}
