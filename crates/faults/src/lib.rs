//! Declarative fault plans for the NetRS simulation (§III-C "Exception
//! handling", evaluated as a subsystem rather than an ad-hoc demo).
//!
//! A [`FaultPlan`] is a serde-serializable timeline of [`FaultEvent`]s —
//! server crashes/recoveries/slowdowns, link failures/degradations,
//! RSNode operator failures, packet-loss bursts — plus the client-side
//! [`RetryPolicy`] and the recovery-detection parameters. The simulator
//! schedules each timed event as an ordinary engine event, so runs stay
//! byte-for-byte deterministic per seed, and a plan with no events is
//! provably zero-cost: the run is identical to one with no plan at all.
//!
//! The run's availability outcome is summarized in
//! [`AvailabilityStats`]: timeouts, retries, duplicate-completion drops,
//! dropped copies, the p99 during the failed window, and time-to-recover
//! measured as the windowed mean latency re-entering a steady-state band.

#![forbid(unsafe_code)]

use netrs_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// A physical link in the fat-tree, as named by a fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkRef {
    /// The access link between a host and its ToR switch (both
    /// directions).
    HostUplink {
        /// The host id (see `netrs_topology::HostId`).
        host: u32,
    },
    /// The link between two directly connected switches (both
    /// directions; order does not matter).
    SwitchLink {
        /// One endpoint's switch id.
        a: u32,
        /// The other endpoint's switch id.
        b: u32,
    },
}

/// One injectable fault or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A storage server fail-stops: its queue is lost, in-flight work is
    /// lost, and arrivals are dropped until it recovers.
    ServerCrash {
        /// The server index (0-based, `< servers`).
        server: u32,
    },
    /// A crashed server comes back empty.
    ServerRecover {
        /// The server index.
        server: u32,
    },
    /// A server's service rate is multiplied by `factor` (1.0 = nominal;
    /// 0.5 = half speed). Applies until the next `ServerSlowdown` (or a
    /// crash/recover cycle) for the same server.
    ServerSlowdown {
        /// The server index.
        server: u32,
        /// Service-rate multiplier, `> 0`.
        factor: f64,
    },
    /// A link goes dark: ECMP routes around it; hosts whose only path
    /// died are partitioned and their packets are dropped.
    LinkFail {
        /// The failed link.
        link: LinkRef,
    },
    /// A link's traversal latency is multiplied by `factor` (> 0).
    LinkDegrade {
        /// The degraded link.
        link: LinkRef,
        /// Latency multiplier, `> 0`.
        factor: f64,
    },
    /// A failed or degraded link returns to nominal.
    LinkRecover {
        /// The recovering link.
        link: LinkRef,
    },
    /// An RSNode operator fail-stops: packets steered to it blackhole
    /// until the controller detects the failure (after the plan's
    /// `detection_delay`) and degrades its traffic groups to DRS.
    OperatorFail {
        /// The switch hosting the operator.
        switch: u32,
    },
    /// A failed operator comes back; the controller restores its
    /// baseline traffic groups.
    OperatorRecover {
        /// The switch hosting the operator.
        switch: u32,
    },
    /// Every packet delivery is independently dropped with `probability`
    /// for `duration` of simulated time.
    PacketLossBurst {
        /// Per-delivery drop probability, in `[0, 1]`.
        probability: f64,
        /// How long the burst lasts.
        duration: SimDuration,
    },
}

/// A fault scheduled at a point on the simulation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedFault {
    /// Simulated time (from the start of the run) at which the fault is
    /// injected.
    pub at: SimDuration,
    /// What happens.
    pub fault: FaultEvent,
}

/// Client-side request timeout and retry with capped exponential
/// backoff. Active for every scheme whenever a plan has events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How long a request may remain incomplete before the client acts.
    pub timeout: SimDuration,
    /// Retries per read (at most 253) before the request is abandoned
    /// and counted as timed out. Writes never retry: an incomplete write
    /// is abandoned at its first timeout.
    pub max_retries: u32,
    /// Multiplier on the previous wait for each successive check.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff wait.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(50),
            max_retries: 3,
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_millis(400),
        }
    }
}

/// A complete fault scenario: the timeline plus the policies that govern
/// how clients and the controller react and how recovery is measured.
///
/// Plan files only need the `events` timeline: every key a file leaves
/// out takes its [`FaultPlan::default`] value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// The fault timeline (any order; the engine sorts by time).
    pub events: Vec<TimedFault>,
    /// Client-side timeout/retry policy.
    pub retry: RetryPolicy,
    /// Time between an operator fail-stop and the controller rerouting
    /// its traffic groups to DRS (§III-C failover).
    pub detection_delay: SimDuration,
    /// Length of the sliding window used to detect recovery.
    pub recovery_window: SimDuration,
    /// The steady-state band: recovered once a disruption-free window's
    /// mean latency is at most `tolerance ×` the pre-fault mean.
    pub recovery_tolerance: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            retry: RetryPolicy::default(),
            detection_delay: SimDuration::from_millis(1),
            recovery_window: SimDuration::from_millis(20),
            recovery_tolerance: 1.5,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects anything at all. A plan with no events
    /// leaves the run byte-identical to a run with no plan.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.events.is_empty()
    }

    /// Validates the plan's internal invariants (bounds against a
    /// concrete topology are the simulator's job).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            match ev.fault {
                FaultEvent::ServerSlowdown { factor, .. } if factor <= 0.0 => {
                    return Err(format!(
                        "fault {i}: server slowdown factor must be positive"
                    ));
                }
                FaultEvent::LinkDegrade { factor, .. } if factor <= 0.0 => {
                    return Err(format!("fault {i}: link degrade factor must be positive"));
                }
                FaultEvent::PacketLossBurst {
                    probability,
                    duration,
                } => {
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(format!("fault {i}: loss probability must be in [0, 1]"));
                    }
                    if duration == SimDuration::ZERO {
                        return Err(format!("fault {i}: loss burst needs a positive duration"));
                    }
                }
                _ => {}
            }
        }
        if self.retry.timeout == SimDuration::ZERO {
            return Err("retry timeout must be positive".into());
        }
        // A request counts its copies in a `u8`: a read holds at most its
        // first copy, one per retry and one R95 duplicate.
        if self.retry.max_retries > 253 {
            return Err(format!(
                "retry.max_retries must be at most 253, got {}",
                self.retry.max_retries
            ));
        }
        if self.retry.backoff_factor < 1.0 {
            return Err("retry backoff factor must be at least 1".into());
        }
        if self.retry.max_backoff == SimDuration::ZERO {
            return Err("retry max backoff must be positive".into());
        }
        if self.recovery_window == SimDuration::ZERO {
            return Err("recovery window must be positive".into());
        }
        if self.recovery_tolerance < 1.0 {
            return Err("recovery tolerance must be at least 1".into());
        }
        Ok(())
    }

    /// Parses a plan from JSON text (the `simulate --faults` format) and
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns the parse error or the first violated invariant.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let plan: FaultPlan =
            serde_json::from_str(text).map_err(|e| format!("invalid fault plan: {e}"))?;
        plan.validate()?;
        Ok(plan)
    }

    /// The wait before retry check `attempt + 1`, i.e. the timeout
    /// scaled by `backoff_factor^attempt` and capped at `max_backoff`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let scaled = self
            .retry
            .timeout
            .mul_f64(self.retry.backoff_factor.powi(attempt.min(30) as i32));
        scaled.min(self.retry.max_backoff.max(self.retry.timeout))
    }
}

/// Availability outcome of a run under a fault plan. Attached to
/// `RunStats` only when the plan injected at least one fault.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Fault events actually injected during the run.
    pub faults_injected: u64,
    /// Requests abandoned after exhausting their retries (reads) or
    /// their single timeout (writes). `completed + timeouts == issued`.
    pub timeouts: u64,
    /// Read retries issued by the timeout machinery.
    pub retries: u64,
    /// Responses that arrived for requests already resolved (completed
    /// or abandoned) and were dropped at the client.
    pub duplicate_drops: u64,
    /// Request copies dropped in flight: blackholed at dead operators,
    /// lost with crashed servers, on dead/partitioned paths, or to
    /// packet-loss bursts.
    pub copies_dropped: u64,
    /// p99 read latency over completions between the first fault and
    /// recovery (zero when nothing completed in that window).
    pub failed_window_p99: SimDuration,
    /// Time from the last injected fault until the windowed mean read
    /// latency re-entered the steady-state band with no disruptions in
    /// the window; `None` if the run never re-stabilized.
    pub time_to_recover: Option<SimDuration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            events: vec![
                TimedFault {
                    at: SimDuration::from_millis(500),
                    fault: FaultEvent::OperatorFail { switch: 3 },
                },
                TimedFault {
                    at: SimDuration::from_millis(600),
                    fault: FaultEvent::ServerCrash { server: 2 },
                },
                TimedFault {
                    at: SimDuration::from_millis(700),
                    fault: FaultEvent::LinkDegrade {
                        link: LinkRef::SwitchLink { a: 1, b: 9 },
                        factor: 4.0,
                    },
                },
                TimedFault {
                    at: SimDuration::from_millis(800),
                    fault: FaultEvent::PacketLossBurst {
                        probability: 0.1,
                        duration: SimDuration::from_millis(50),
                    },
                },
            ],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = sample_plan();
        let json = serde_json::to_string_pretty(&plan).unwrap();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn default_plan_is_inactive_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        plan.validate().unwrap();
        assert!(sample_plan().is_active());
    }

    #[test]
    fn validation_rejects_bad_factors() {
        let mut plan = FaultPlan::default();
        plan.events.push(TimedFault {
            at: SimDuration::ZERO,
            fault: FaultEvent::ServerSlowdown {
                server: 0,
                factor: 0.0,
            },
        });
        assert!(plan.validate().unwrap_err().contains("slowdown factor"));

        let mut plan = FaultPlan::default();
        plan.events.push(TimedFault {
            at: SimDuration::ZERO,
            fault: FaultEvent::LinkDegrade {
                link: LinkRef::HostUplink { host: 0 },
                factor: -1.0,
            },
        });
        assert!(plan.validate().unwrap_err().contains("degrade factor"));

        let mut plan = FaultPlan::default();
        plan.events.push(TimedFault {
            at: SimDuration::ZERO,
            fault: FaultEvent::PacketLossBurst {
                probability: 1.5,
                duration: SimDuration::from_millis(1),
            },
        });
        assert!(plan.validate().unwrap_err().contains("probability"));
    }

    #[test]
    fn validation_rejects_bad_policies() {
        let mut plan = FaultPlan::default();
        plan.retry.timeout = SimDuration::ZERO;
        assert!(plan.validate().unwrap_err().contains("timeout"));

        let mut plan = FaultPlan::default();
        plan.retry.backoff_factor = 0.5;
        assert!(plan.validate().unwrap_err().contains("backoff factor"));

        let plan = FaultPlan {
            recovery_window: SimDuration::ZERO,
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("recovery window"));

        let plan = FaultPlan {
            recovery_tolerance: 0.9,
            ..FaultPlan::default()
        };
        assert!(plan.validate().unwrap_err().contains("tolerance"));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let plan = FaultPlan::default(); // 50ms timeout, ×2, cap 400ms
        assert_eq!(plan.backoff(0), SimDuration::from_millis(50));
        assert_eq!(plan.backoff(1), SimDuration::from_millis(100));
        assert_eq!(plan.backoff(2), SimDuration::from_millis(200));
        assert_eq!(plan.backoff(3), SimDuration::from_millis(400));
        assert_eq!(plan.backoff(10), SimDuration::from_millis(400));
        assert_eq!(plan.backoff(u32::MAX), SimDuration::from_millis(400));
    }

    #[test]
    fn partial_plans_fill_defaults() {
        let plan = FaultPlan::from_json(
            r#"{ "events": [ { "at": 1000, "fault": { "ServerCrash": { "server": 2 } } } ],
                 "detection_delay": 5000000 }"#,
        )
        .expect("events-only plans parse");
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.detection_delay, SimDuration::from_millis(5));
        assert_eq!(plan.retry, RetryPolicy::default());
        assert_eq!(plan.recovery_window, FaultPlan::default().recovery_window);
    }

    #[test]
    fn from_json_reports_invalid_plans() {
        assert!(FaultPlan::from_json("not json").is_err());
        let plan = FaultPlan {
            recovery_tolerance: 0.0,
            ..FaultPlan::default()
        };
        let json = serde_json::to_string(&plan).unwrap();
        assert!(FaultPlan::from_json(&json)
            .unwrap_err()
            .contains("tolerance"));
    }
}
