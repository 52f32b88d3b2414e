//! Cubic rate control (C3's "distributed rate control", CRC).
//!
//! Besides ranking replicas, C3 shapes how fast each RSNode *sends* to
//! each server: a token bucket per (RSNode, server) pair whose refill rate
//! grows along a cubic curve while the server keeps up and backs off
//! multiplicatively when the observed receive rate falls behind the send
//! rate. This reproduces the congestion-control analogy of the C3 paper
//! (rate ← `C·(Δt − K)³ + R_max` with `K = ∛(R_max·β/C)`).
//!
//! The controller is deliberately separate from [`crate::C3Selector`]: the
//! NetRS paper's schemes rank with C3 everywhere, but rate control only
//! makes sense where requests can wait in a send queue (clients). The
//! ABL-B ablation toggles it.

use std::collections::HashMap;

use netrs_kvstore::ServerId;
use netrs_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Cubic rate-control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CubicConfig {
    /// Initial per-server send rate (requests/second).
    pub init_rate: f64,
    /// Floor on the send rate (requests/second).
    pub min_rate: f64,
    /// Multiplicative decrease factor β (rate keeps `1 − β` on backoff).
    pub beta: f64,
    /// Cubic growth coefficient `C` (rate units per cubed second).
    pub c: f64,
    /// Maximum additive rate step per growth update (requests/second).
    pub smax: f64,
    /// Minimum spacing between two multiplicative decreases.
    pub hysteresis: SimDuration,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// EWMA old-value weight for the send/receive rate estimators.
    pub alpha: f64,
}

impl Default for CubicConfig {
    fn default() -> Self {
        CubicConfig {
            init_rate: 100.0,
            min_rate: 0.1,
            beta: 0.2,
            c: 400.0,
            smax: 200.0,
            hysteresis: SimDuration::from_millis(100),
            burst: 4.0,
            alpha: 0.9,
        }
    }
}

impl CubicConfig {
    /// Checks the parameters' bounds: positive rates, `beta` in `(0, 1)`,
    /// positive `c` and `smax`, `burst >= 1` and `alpha` in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Names the first parameter out of bounds.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            (
                "init_rate",
                self.init_rate,
                self.init_rate > 0.0,
                "be positive",
            ),
            (
                "min_rate",
                self.min_rate,
                self.min_rate > 0.0,
                "be positive",
            ),
            (
                "beta",
                self.beta,
                self.beta > 0.0 && self.beta < 1.0,
                "be in (0, 1)",
            ),
            ("c", self.c, self.c > 0.0, "be positive"),
            ("smax", self.smax, self.smax > 0.0, "be positive"),
            ("burst", self.burst, self.burst >= 1.0, "be >= 1"),
            (
                "alpha",
                self.alpha,
                (0.0..1.0).contains(&self.alpha),
                "be in [0, 1)",
            ),
        ];
        match checks.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((name, value, _, bound)) => Err(format!("{name} must {bound}, got {value}")),
            None => Ok(()),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Lane {
    rate: f64,
    tokens: f64,
    last_refill: SimTime,
    r_max: f64,
    last_decrease: SimTime,
    tx_rate: f64,
    last_tx: Option<SimTime>,
    rx_rate: f64,
    last_rx: Option<SimTime>,
}

/// Per-server token buckets with cubic rate adaptation.
#[derive(Debug)]
pub struct CubicRateController {
    cfg: CubicConfig,
    lanes: HashMap<ServerId, Lane>,
}

impl CubicRateController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CubicConfig::validate`].
    #[must_use]
    pub fn new(cfg: CubicConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid rate-control config: {e}");
        }
        CubicRateController {
            cfg,
            lanes: HashMap::new(),
        }
    }

    fn lane(&mut self, server: ServerId) -> &mut Lane {
        let cfg = self.cfg;
        self.lanes.entry(server).or_insert(Lane {
            rate: cfg.init_rate,
            tokens: cfg.burst,
            last_refill: SimTime::ZERO,
            r_max: cfg.init_rate,
            last_decrease: SimTime::ZERO,
            tx_rate: 0.0,
            last_tx: None,
            rx_rate: 0.0,
            last_rx: None,
        })
    }

    fn refill(lane: &mut Lane, burst: f64, now: SimTime) {
        let dt = now.saturating_since(lane.last_refill).as_secs_f64();
        lane.tokens = (lane.tokens + lane.rate * dt).min(burst);
        lane.last_refill = now;
    }

    /// The current send-rate limit toward `server` (requests/second).
    #[must_use]
    pub fn rate(&self, server: ServerId) -> f64 {
        self.lanes
            .get(&server)
            .map_or(self.cfg.init_rate, |l| l.rate)
    }

    /// Tries to consume one send token for `server`. Returns `false` when
    /// the bucket is empty (the caller should hold the request until
    /// [`CubicRateController::next_permit_at`]).
    pub fn try_send(&mut self, server: ServerId, now: SimTime) -> bool {
        let burst = self.cfg.burst;
        let alpha = self.cfg.alpha;
        let lane = self.lane(server);
        Self::refill(lane, burst, now);
        if lane.tokens < 1.0 {
            return false;
        }
        lane.tokens -= 1.0;
        if let Some(last) = lane.last_tx {
            let dt = now.saturating_since(last).as_secs_f64();
            if dt > 0.0 {
                lane.tx_rate = alpha * lane.tx_rate + (1.0 - alpha) / dt;
            }
        }
        lane.last_tx = Some(now);
        true
    }

    /// Earliest time a token will be available for `server` (now, if one
    /// already is).
    #[must_use]
    pub fn next_permit_at(&mut self, server: ServerId, now: SimTime) -> SimTime {
        let burst = self.cfg.burst;
        let lane = self.lane(server);
        Self::refill(lane, burst, now);
        if lane.tokens >= 1.0 {
            now
        } else {
            let wait = (1.0 - lane.tokens) / lane.rate;
            now + SimDuration::from_secs_f64(wait)
        }
    }

    /// Folds in one response from `server` and adapts the rate: cubic
    /// growth while the receive rate keeps up with the send rate,
    /// multiplicative decrease (with hysteresis) when it falls behind.
    pub fn on_response(&mut self, server: ServerId, now: SimTime) {
        let cfg = self.cfg;
        let lane = self.lane(server);
        if let Some(last) = lane.last_rx {
            let dt = now.saturating_since(last).as_secs_f64();
            if dt > 0.0 {
                lane.rx_rate = cfg.alpha * lane.rx_rate + (1.0 - cfg.alpha) / dt;
            }
        }
        lane.last_rx = Some(now);

        // Not enough signal yet: keep growing gently.
        let keeping_up = lane.rx_rate + 1e-9 >= lane.tx_rate * 0.9 || lane.last_tx.is_none();
        if keeping_up {
            let t = now.saturating_since(lane.last_decrease).as_secs_f64();
            let k = (lane.r_max * cfg.beta / cfg.c).cbrt();
            let target = cfg.c * (t - k).powi(3) + lane.r_max;
            let grown = (lane.rate + cfg.smax).min(target.max(lane.rate));
            lane.rate = grown.max(cfg.min_rate);
        } else if now.saturating_since(lane.last_decrease) >= cfg.hysteresis {
            lane.r_max = lane.rate;
            lane.rate = (lane.rate * (1.0 - cfg.beta)).max(cfg.min_rate);
            lane.last_decrease = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: ServerId = ServerId(0);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn bucket_limits_burst_then_paces() {
        let mut ctl = CubicRateController::new(CubicConfig {
            init_rate: 10.0, // 10/s => one token per 100ms
            burst: 2.0,
            ..CubicConfig::default()
        });
        assert!(ctl.try_send(S, at(0)));
        assert!(ctl.try_send(S, at(0)));
        assert!(!ctl.try_send(S, at(0)), "burst exhausted");
        // A token accrues after 100ms.
        assert!(!ctl.try_send(S, at(50)));
        assert!(ctl.try_send(S, at(105)));
    }

    #[test]
    fn next_permit_predicts_token_availability() {
        let mut ctl = CubicRateController::new(CubicConfig {
            init_rate: 10.0,
            burst: 1.0,
            ..CubicConfig::default()
        });
        assert_eq!(ctl.next_permit_at(S, at(0)), at(0));
        assert!(ctl.try_send(S, at(0)));
        let permit = ctl.next_permit_at(S, at(0));
        assert!(permit > at(99) && permit <= at(101), "permit at {permit}");
        // And sending at the predicted time succeeds.
        assert!(ctl.try_send(S, permit));
    }

    #[test]
    fn rate_grows_when_server_keeps_up() {
        let mut ctl = CubicRateController::new(CubicConfig::default());
        let before = ctl.rate(S);
        // Paced responses, no sends outstanding: receive rate keeps up.
        for i in 1..100u64 {
            ctl.on_response(S, at(i * 10));
        }
        assert!(ctl.rate(S) > before, "rate should grow: {}", ctl.rate(S));
    }

    #[test]
    fn rate_backs_off_when_receive_rate_lags() {
        let cfg = CubicConfig::default();
        let mut ctl = CubicRateController::new(cfg);
        // Send fast (every 1ms)...
        let mut t = 0u64;
        for _ in 0..50 {
            t += 1;
            let _ = ctl.try_send(S, at(t));
        }
        // ...but responses trickle in every 200ms.
        let r0 = ctl.rate(S);
        for i in 1..=5u64 {
            ctl.on_response(S, at(t + i * 200));
        }
        let r1 = ctl.rate(S);
        assert!(
            r1 < r0,
            "rate should decrease under lag: before {r0}, after {r1}"
        );
        // Backoff is multiplicative by (1 - beta) with hysteresis, so a
        // burst of lagging responses cannot collapse the rate at once.
        assert!(r1 >= r0 * (1.0 - cfg.beta).powi(5) - 1e-6);
        assert!(r1 >= cfg.min_rate);
    }

    #[test]
    fn growth_is_capped_by_smax() {
        let cfg = CubicConfig {
            smax: 5.0,
            ..CubicConfig::default()
        };
        let mut ctl = CubicRateController::new(cfg);
        let r0 = ctl.rate(S);
        ctl.on_response(S, at(10));
        ctl.on_response(S, at(10_000)); // huge cubic target after 10s
        assert!(ctl.rate(S) <= r0 + 2.0 * cfg.smax + 1e-9);
    }

    #[test]
    fn rate_never_drops_below_floor() {
        let cfg = CubicConfig {
            min_rate: 2.0,
            hysteresis: SimDuration::ZERO,
            ..CubicConfig::default()
        };
        let mut ctl = CubicRateController::new(cfg);
        let mut t = 0u64;
        for _ in 0..200 {
            t += 1;
            let _ = ctl.try_send(S, at(t));
        }
        for i in 1..100u64 {
            ctl.on_response(S, at(t + i * 500));
        }
        assert!(ctl.rate(S) >= 2.0);
    }

    #[test]
    fn lanes_are_independent() {
        let mut ctl = CubicRateController::new(CubicConfig {
            init_rate: 10.0,
            burst: 1.0,
            ..CubicConfig::default()
        });
        assert!(ctl.try_send(ServerId(0), at(0)));
        assert!(
            ctl.try_send(ServerId(1), at(0)),
            "separate bucket per server"
        );
        assert!(!ctl.try_send(ServerId(0), at(0)));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_rejected() {
        let _ = CubicRateController::new(CubicConfig {
            beta: 1.0,
            ..CubicConfig::default()
        });
    }
}
