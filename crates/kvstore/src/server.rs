//! The storage-server queueing model of §V-A.
//!
//! Each server processes up to `Np` requests in parallel (slots); further
//! arrivals wait in a FIFO queue. Service times are exponential with a
//! mean that fluctuates bimodally between `tkv` and `tkv/d` at a fixed
//! interval — the paper's model of multi-tenant cloud performance
//! variability (after Schad et al.).
//!
//! The server is a passive state machine driven by the simulation's event
//! loop: `arrive` either starts a request (returning its completion time
//! for the caller to schedule) or queues it; `complete` retires the
//! finished slot and dispatches the next queued request, if any.

use std::collections::VecDeque;

use netrs_simcore::{round_to_u64, Bimodal, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::{ServerId, ServerStatus};

/// Static configuration of a server (paper defaults in [`Default`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Parallel service slots (`Np`, paper default 4).
    pub slots: u32,
    /// Base mean service time (`tkv`, paper default 4 ms).
    pub base_service_time: SimDuration,
    /// Bimodal fluctuation range parameter (`d`, paper default 3).
    pub fluctuation_range: f64,
    /// Fluctuation interval (paper default 50 ms).
    pub fluctuation_interval: SimDuration,
    /// Smoothing factor for the piggybacked service-time estimate
    /// (weight of the old value; C3 uses 0.9).
    pub status_ewma_alpha: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            slots: 4,
            base_service_time: SimDuration::from_millis(4),
            fluctuation_range: 3.0,
            fluctuation_interval: SimDuration::from_millis(50),
            status_ewma_alpha: 0.9,
        }
    }
}

/// Outcome of [`Server::arrive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A slot was free; the request is in service and will finish at the
    /// given time (the caller must schedule its completion event).
    Started {
        /// Completion time to schedule.
        finish_at: SimTime,
    },
    /// All slots busy; the request was appended to the FIFO queue.
    Queued,
}

/// Outcome of [`Server::complete`]: the next dispatched request, if the
/// queue was non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion<T> {
    /// The request just dispatched from the queue, with its completion
    /// time (the caller must schedule it), or `None` if the queue was
    /// empty.
    pub next: Option<(T, SimTime)>,
}

/// Aggregate counters for one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests that arrived.
    pub arrived: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Largest queue length observed (waiting + in service).
    pub max_queue: u32,
    /// Integral of busy slots over time, in slot-nanoseconds; divide by
    /// `slots × elapsed` for utilization.
    pub busy_slot_ns: u128,
}

/// One storage server. `T` is the caller's request token type.
#[derive(Debug)]
pub struct Server<T> {
    id: ServerId,
    cfg: ServerConfig,
    fluct: Bimodal,
    current_mean: SimDuration,
    in_service: u32,
    queue: VecDeque<T>,
    svc_ewma_ns: f64,
    stats: ServerStats,
    last_change: SimTime,
    rng: SimRng,
    /// False after a fail-stop ([`Server::crash`]) until recovery.
    up: bool,
    /// Service-rate multiplier from fault injection (1.0 = nominal).
    rate_factor: f64,
}

impl<T> Server<T> {
    /// Creates a server with its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.slots` is zero or the EWMA weight is outside
    /// `[0, 1)`.
    #[must_use]
    pub fn new(id: ServerId, cfg: ServerConfig, rng: SimRng) -> Self {
        assert!(cfg.slots > 0, "server needs at least one slot");
        assert!(
            (0.0..1.0).contains(&cfg.status_ewma_alpha),
            "EWMA weight must be in [0, 1)"
        );
        let fluct = Bimodal::new(cfg.base_service_time, cfg.fluctuation_range);
        let svc_ewma_ns = cfg.base_service_time.as_nanos() as f64;
        Server {
            id,
            current_mean: fluct.slow(),
            fluct,
            cfg,
            in_service: 0,
            queue: VecDeque::new(),
            svc_ewma_ns,
            stats: ServerStats::default(),
            last_change: SimTime::ZERO,
            rng,
            up: true,
            rate_factor: 1.0,
        }
    }

    /// This server's ID.
    #[must_use]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The configuration the server was built with.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Current mean service time (fluctuates between `tkv` and `tkv/d`).
    #[must_use]
    pub fn current_mean(&self) -> SimDuration {
        self.current_mean
    }

    /// Pending requests: waiting plus in service (the "queue size" metric
    /// C3 piggybacks).
    #[must_use]
    pub fn queue_len(&self) -> u32 {
        self.in_service + self.queue.len() as u32
    }

    /// Number of requests currently being served.
    #[must_use]
    pub fn in_service(&self) -> u32 {
        self.in_service
    }

    /// Requests waiting for a slot, *excluding* those in service — the
    /// head-of-line depth device telemetry tracks (a request in service
    /// occupies a slot, not the queue).
    #[must_use]
    pub fn waiting(&self) -> u32 {
        self.queue.len() as u32
    }

    /// Instantaneous fraction of service slots occupied, in `[0, 1]` —
    /// the quantity the observability sampler tracks over virtual time.
    #[must_use]
    pub fn slot_occupancy(&self) -> f64 {
        f64::from(self.in_service) / f64::from(self.cfg.slots)
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Mean slot utilization in `[0, 1]` over `[SimTime::ZERO, now]`.
    #[must_use]
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        let busy = self.stats.busy_slot_ns
            + u128::from(self.in_service)
                * u128::from(now.saturating_since(self.last_change).as_nanos());
        busy as f64 / (f64::from(self.cfg.slots) * elapsed as f64)
    }

    /// The status piggybacked on responses (SS segment).
    #[must_use]
    pub fn status(&self) -> ServerStatus {
        ServerStatus {
            queue_len: self.queue_len(),
            service_time_ns: round_to_u64(self.svc_ewma_ns),
        }
    }

    fn account(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).as_nanos();
        self.stats.busy_slot_ns += u128::from(self.in_service) * u128::from(dt);
        self.last_change = now;
    }

    fn draw_service(&mut self) -> SimDuration {
        // Gate on the nominal rate so fault-free runs stay bit-identical.
        let mean = if self.rate_factor == 1.0 {
            self.current_mean
        } else {
            self.current_mean.mul_f64(1.0 / self.rate_factor)
        };
        let sample = self.rng.exp_duration(mean);
        let a = self.cfg.status_ewma_alpha;
        self.svc_ewma_ns = a * self.svc_ewma_ns + (1.0 - a) * sample.as_nanos() as f64;
        sample
    }

    /// A request arrives at `now`. If a slot is free it enters service and
    /// the caller must schedule its completion at the returned time;
    /// otherwise the token is queued and will be returned by a later
    /// [`Server::complete`].
    pub fn arrive(&mut self, token: T, now: SimTime) -> Arrival {
        debug_assert!(self.up, "arrival at a crashed server must be gated");
        self.account(now);
        self.stats.arrived += 1;
        let arrival = if self.in_service < self.cfg.slots {
            self.in_service += 1;
            let finish_at = now + self.draw_service();
            Arrival::Started { finish_at }
        } else {
            self.queue.push_back(token);
            Arrival::Queued
        };
        self.stats.max_queue = self.stats.max_queue.max(self.queue_len());
        arrival
    }

    /// A previously started request finishes at `now`. Returns the next
    /// request dispatched from the queue (the caller must schedule its
    /// completion), if any.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service — a completion without a start
    /// indicates an event-bookkeeping bug in the caller.
    pub fn complete(&mut self, now: SimTime) -> Completion<T> {
        assert!(
            self.in_service > 0,
            "completion without a request in service"
        );
        self.account(now);
        self.stats.completed += 1;
        self.in_service -= 1;
        let next = self.queue.pop_front().map(|token| {
            self.in_service += 1;
            (token, now + self.draw_service())
        });
        Completion { next }
    }

    /// Redraws the mean service time for the next fluctuation interval
    /// (call every [`ServerConfig::fluctuation_interval`]).
    pub fn fluctuate(&mut self) {
        self.current_mean = self.fluct.draw(&mut self.rng);
    }

    /// Whether the server is up (it is until [`Server::crash`]).
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The current service-rate multiplier (1.0 = nominal).
    #[must_use]
    pub fn rate_factor(&self) -> f64 {
        self.rate_factor
    }

    /// Sets the service-rate multiplier: 0.5 halves the service rate
    /// (doubling mean service time), 2.0 doubles it. Applies to services
    /// drawn from now on.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn set_rate_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "service-rate factor must be positive");
        self.rate_factor = factor;
    }

    /// The server fail-stops: every queued token is returned to the
    /// caller (to be dropped and accounted), the count of in-service
    /// requests is reported (their already-scheduled completion events
    /// must be absorbed by the caller), and the service slots reset. The
    /// rate factor returns to nominal — a rebooted server starts fresh.
    pub fn crash(&mut self, now: SimTime) -> (Vec<T>, u32) {
        self.account(now);
        self.up = false;
        self.rate_factor = 1.0;
        let lost_in_service = self.in_service;
        self.in_service = 0;
        (self.queue.drain(..).collect(), lost_in_service)
    }

    /// A crashed server comes back empty and ready for arrivals.
    pub fn recover(&mut self, now: SimTime) {
        self.account(now);
        self.up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server<u32> {
        Server::new(ServerId(0), ServerConfig::default(), SimRng::from_seed(1))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn starts_up_to_slots_then_queues() {
        let mut s = server();
        for i in 0..4 {
            assert!(
                matches!(s.arrive(i, t(0)), Arrival::Started { .. }),
                "request {i} should start"
            );
        }
        assert_eq!(s.arrive(4, t(0)), Arrival::Queued);
        assert_eq!(s.arrive(5, t(0)), Arrival::Queued);
        assert_eq!(s.queue_len(), 6);
        assert_eq!(s.in_service(), 4);
        assert!((s.slot_occupancy() - 1.0).abs() < 1e-12, "all slots busy");
    }

    #[test]
    fn waiting_excludes_in_service() {
        let mut s = server();
        for i in 0..6 {
            let _ = s.arrive(i, t(0));
        }
        assert_eq!(s.waiting(), 2, "four in slots, two behind them");
        assert_eq!(s.queue_len(), s.waiting() + s.in_service());
        let _ = s.complete(t(1)); // dispatches one waiter into the slot
        assert_eq!(s.waiting(), 1);
    }

    #[test]
    fn slot_occupancy_tracks_in_service() {
        let mut s = server();
        assert_eq!(s.slot_occupancy(), 0.0);
        let _ = s.arrive(0, t(0));
        assert!((s.slot_occupancy() - 0.25).abs() < 1e-12);
        let _ = s.arrive(1, t(0));
        assert!((s.slot_occupancy() - 0.5).abs() < 1e-12);
        let _ = s.complete(t(1));
        assert!((s.slot_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn completion_dispatches_fifo() {
        let mut s = server();
        for i in 0..6 {
            let _ = s.arrive(i, t(0));
        }
        let c = s.complete(t(1));
        let (tok, finish) = c.next.expect("queue should dispatch");
        assert_eq!(tok, 4, "FIFO order");
        assert!(finish > t(1));
        let c = s.complete(t(2));
        assert_eq!(c.next.unwrap().0, 5);
        // Queue now empty: further completions dispatch nothing.
        for _ in 0..4 {
            assert_eq!(s.complete(t(3)).next, None);
        }
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.stats().completed, 6);
        assert_eq!(s.stats().arrived, 6);
        assert_eq!(s.stats().max_queue, 6);
    }

    #[test]
    #[should_panic(expected = "completion without a request")]
    fn completion_on_idle_server_panics() {
        let mut s = server();
        let _ = s.complete(t(0));
    }

    #[test]
    fn service_times_follow_current_mean() {
        let cfg = ServerConfig {
            slots: 1,
            ..ServerConfig::default()
        };
        let mut s: Server<u32> = Server::new(ServerId(1), cfg, SimRng::from_seed(3));
        let mut total = 0.0;
        let n = 20_000;
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let Arrival::Started { finish_at } = s.arrive(i, now) else {
                panic!("single-slot server should start when idle");
            };
            total += (finish_at - now).as_millis_f64();
            now = finish_at;
            let _ = s.complete(now);
        }
        let mean = total / f64::from(n);
        assert!(
            (mean - 4.0).abs() < 0.15,
            "observed mean {mean} ms, expected ~4"
        );
    }

    #[test]
    fn fluctuation_switches_between_two_means() {
        let mut s = server();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            s.fluctuate();
            seen.insert(s.current_mean());
        }
        assert_eq!(seen.len(), 2);
        assert!(seen.contains(&SimDuration::from_millis(4)));
        let fast = SimDuration::from_millis(4).mul_f64(1.0 / 3.0);
        assert!(seen.contains(&fast));
    }

    #[test]
    fn status_tracks_queue_and_service_estimate() {
        let mut s = server();
        assert_eq!(s.status().queue_len, 0);
        // Initial estimate equals the configured base service time.
        assert_eq!(s.status().service_time_ns, 4_000_000);
        for i in 0..5 {
            let _ = s.arrive(i, t(0));
        }
        assert_eq!(s.status().queue_len, 5);
        // After dispatches the estimate moves away from the prior.
        assert_ne!(s.status().service_time_ns, 4_000_000);
    }

    #[test]
    fn utilization_integrates_busy_slots() {
        let cfg = ServerConfig {
            slots: 2,
            ..ServerConfig::default()
        };
        let mut s: Server<u32> = Server::new(ServerId(2), cfg, SimRng::from_seed(5));
        // Two requests in service from t=0; complete both at t=10ms.
        let _ = s.arrive(0, t(0));
        let _ = s.arrive(1, t(0));
        let _ = s.complete(t(10));
        let _ = s.complete(t(10));
        // Busy integral: 2 slots * 10ms over 2 slots * 20ms elapsed = 0.5.
        let u = s.utilization(t(20));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        // Before any elapsed time utilization is defined as zero.
        let fresh = server();
        assert_eq!(fresh.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn crash_drains_queue_and_reports_in_flight() {
        let mut s = server();
        for i in 0..6 {
            let _ = s.arrive(i, t(0));
        }
        assert!(s.is_up());
        let (queued, in_flight) = s.crash(t(1));
        assert_eq!(queued, vec![4, 5], "FIFO order preserved");
        assert_eq!(in_flight, 4);
        assert!(!s.is_up());
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.in_service(), 0);
        // Recovery brings the server back empty.
        s.recover(t(2));
        assert!(s.is_up());
        assert!(matches!(s.arrive(9, t(2)), Arrival::Started { .. }));
    }

    #[test]
    fn crash_accounts_busy_time_up_to_the_crash() {
        let cfg = ServerConfig {
            slots: 2,
            ..ServerConfig::default()
        };
        let mut s: Server<u32> = Server::new(ServerId(3), cfg, SimRng::from_seed(5));
        let _ = s.arrive(0, t(0));
        let _ = s.arrive(1, t(0));
        let (_, lost) = s.crash(t(10));
        assert_eq!(lost, 2);
        // Busy: 2 slots × 10ms over 2 slots × 20ms = 0.5.
        let u = s.utilization(t(20));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn rate_factor_scales_mean_service_time() {
        let run = |factor: f64| {
            let cfg = ServerConfig {
                slots: 1,
                ..ServerConfig::default()
            };
            let mut s: Server<u32> = Server::new(ServerId(1), cfg, SimRng::from_seed(3));
            s.set_rate_factor(factor);
            let mut total = 0.0;
            let n = 10_000;
            let mut now = SimTime::ZERO;
            for i in 0..n {
                let Arrival::Started { finish_at } = s.arrive(i, now) else {
                    panic!("idle single-slot server starts immediately");
                };
                total += (finish_at - now).as_millis_f64();
                now = finish_at;
                let _ = s.complete(now);
            }
            total / f64::from(n)
        };
        let nominal = run(1.0);
        let half_rate = run(0.5);
        assert!(
            (half_rate / nominal - 2.0).abs() < 1e-3,
            "half rate doubles service time: {nominal} vs {half_rate}"
        );
        // Same seed, same draws: factor 1.0 never perturbs the stream.
        assert!((nominal - run(1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_rate_factor_rejected() {
        let mut s = server();
        s.set_rate_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let cfg = ServerConfig {
            slots: 0,
            ..ServerConfig::default()
        };
        let _: Server<u32> = Server::new(ServerId(0), cfg, SimRng::from_seed(0));
    }
}
