//! Replica selection: C3.
//!
//! Every scheme in the NetRS evaluation ranks replicas with **C3**
//! (Suresh et al., NSDI'15) — the state-of-the-art selector the paper
//! builds on; what varies is *where* the selector runs (client vs.
//! in-network RSNode). This crate implements C3 faithfully
//! ([`C3Selector`]: EWMA tracking of response times and piggybacked server
//! status, concurrency compensation, cubic queue penalty). C3's cubic
//! rate control is not modelled: the paper's schemes never rate-limit a
//! send.
//!
//! [`C3Selector`] is one RSNode's selector behind [`ReplicaSelector`], the
//! interface NetRS operators drive: rank candidates at request time,
//! account an outstanding request on send, and fold in [`Feedback`] when
//! a response passes by. Where many selectors run side by side (one per
//! client under CliRS), a [`C3Table`] holds them as rows of one flat
//! table behind the same calls.
//!
//! # Examples
//!
//! ```
//! use netrs_kvstore::ServerId;
//! use netrs_selection::{C3Config, C3Selector, Feedback, ReplicaSelector};
//! use netrs_simcore::{SimDuration, SimRng, SimTime};
//!
//! let mut c3 = C3Selector::new(C3Config::default(), SimRng::from_seed(7));
//! let replicas = [ServerId(0), ServerId(1), ServerId(2)];
//!
//! // Tell the selector server 1 is fast and idle...
//! c3.on_response(
//!     &Feedback {
//!         server: ServerId(1),
//!         queue_len: 0,
//!         service_time: SimDuration::from_millis(1),
//!         latency: SimDuration::from_millis(1),
//!     },
//!     SimTime::ZERO,
//! );
//! // ...and server 0 is slow and deeply queued.
//! c3.on_response(
//!     &Feedback {
//!         server: ServerId(0),
//!         queue_len: 40,
//!         service_time: SimDuration::from_millis(4),
//!         latency: SimDuration::from_millis(90),
//!     },
//!     SimTime::ZERO,
//! );
//! let pick = c3.select(&replicas, SimTime::ZERO);
//! assert_ne!(pick, ServerId(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c3;

pub use c3::{C3Config, C3Selector, C3Table};

use netrs_kvstore::ServerId;
use netrs_simcore::{SimDuration, SimTime};

/// Everything an RSNode learns from one response: the piggybacked server
/// status plus the response time it measured itself (via the retaining
/// value, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feedback {
    /// The server that produced the response.
    pub server: ServerId,
    /// Piggybacked pending-request count.
    pub queue_len: u32,
    /// Piggybacked service-time estimate.
    pub service_time: SimDuration,
    /// Response time observed by this RSNode.
    pub latency: SimDuration,
}

/// A replica-selection algorithm running at one RSNode (a client under
/// CliRS, a network accelerator under NetRS). [`C3Selector`] is the one
/// implementation.
pub trait ReplicaSelector {
    /// Orders `candidates` from most to least preferred.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    fn rank(&mut self, candidates: &[ServerId], now: SimTime) -> Vec<ServerId>;

    /// Picks the preferred replica (the head of [`ReplicaSelector::rank`]).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    fn select(&mut self, candidates: &[ServerId], now: SimTime) -> ServerId;

    /// Accounts a request dispatched to `server`.
    fn on_send(&mut self, server: ServerId, now: SimTime);

    /// Folds in feedback from a response this RSNode observed.
    fn on_response(&mut self, feedback: &Feedback, now: SimTime);

    /// Notes that a request sent to `server` timed out at the client, to
    /// steer subsequent picks away from a server that has stopped
    /// answering (crashed, partitioned, or overwhelmed). [`C3Selector`]
    /// applies an additive score penalty that doubles on each repeated
    /// timeout and clears on the next successful response.
    fn on_timeout(&mut self, server: ServerId, now: SimTime);

    /// Outstanding requests this RSNode has routed to `server` and not yet
    /// seen answered.
    fn outstanding(&self, server: ServerId) -> u32;
}
