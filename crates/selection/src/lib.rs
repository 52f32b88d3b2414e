//! Replica-selection algorithms.
//!
//! Every scheme in the NetRS evaluation ranks replicas with **C3**
//! (Suresh et al., NSDI'15) — the state-of-the-art selector the paper
//! builds on; what varies is *where* the selector runs (client vs.
//! in-network RSNode). This crate implements C3 faithfully
//! ([`C3Selector`]: EWMA tracking of response times and piggybacked server
//! status, concurrency compensation, cubic queue penalty, and optional
//! cubic rate control via [`CubicRateController`]) along with the classic
//! baselines the C3 paper compares against: random, round-robin,
//! least-outstanding-requests, power-of-two-choices, and Cassandra-style
//! dynamic snitching.
//!
//! All selectors implement [`ReplicaSelector`], the interface NetRS
//! operators and clients drive: rank candidates at request time, account
//! an outstanding request on send, and fold in [`Feedback`] when a
//! response passes by. Where many selectors run side by side (one per
//! client under CliRS), a [`SelectorTable`] holds them as rows behind the
//! same calls; C3 rows share one flat [`C3Table`].
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

mod baselines;
mod c3;
mod cubic;

pub use baselines::{
    DynamicSnitch, LeastOutstanding, PowerOfTwoChoices, RandomSelector, RoundRobin,
};
pub use c3::{C3Config, C3Selector, C3Table};
pub use cubic::{CubicConfig, CubicRateController};

use netrs_kvstore::ServerId;
use netrs_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

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
/// CliRS, a network accelerator under NetRS).
pub trait ReplicaSelector {
    /// Orders `candidates` from most to least preferred.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `candidates` is empty.
    fn rank(&mut self, candidates: &[ServerId], now: SimTime) -> Vec<ServerId>;

    /// Picks the preferred replica (the head of [`ReplicaSelector::rank`]).
    fn select(&mut self, candidates: &[ServerId], now: SimTime) -> ServerId {
        self.rank(candidates, now)[0]
    }

    /// Accounts a request dispatched to `server`.
    fn on_send(&mut self, server: ServerId, now: SimTime);

    /// Folds in feedback from a response this RSNode observed.
    fn on_response(&mut self, feedback: &Feedback, now: SimTime);

    /// Notes that a request sent to `server` timed out at the client.
    ///
    /// Selectors may use this to steer subsequent picks away from a
    /// server that has stopped answering (crashed, partitioned, or
    /// overwhelmed). The default implementation ignores the signal;
    /// [`C3Selector`] applies an additive score penalty that doubles on
    /// each repeated timeout and clears on the next successful response.
    fn on_timeout(&mut self, server: ServerId, now: SimTime) {
        let _ = (server, now);
    }

    /// Outstanding requests this RSNode has routed to `server` and not yet
    /// seen answered.
    fn outstanding(&self, server: ServerId) -> u32;

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

/// Which selection algorithm to instantiate (config/CLI friendly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SelectorKind {
    /// C3 scoring with default parameters (the paper's setting).
    #[default]
    C3,
    /// Uniform random choice.
    Random,
    /// Round-robin over the candidate list.
    RoundRobin,
    /// Fewest outstanding requests.
    LeastOutstanding,
    /// Power of two choices by outstanding requests (Mitzenmacher).
    PowerOfTwo,
    /// Cassandra-style dynamic snitching on EWMA latency.
    DynamicSnitch,
}

impl SelectorKind {
    /// Builds a boxed selector of this kind. `c3` parameterizes the C3
    /// variant and is ignored by the baselines.
    #[must_use]
    pub fn build(self, c3: C3Config, rng: SimRng) -> Box<dyn ReplicaSelector + Send> {
        match self {
            SelectorKind::C3 => Box::new(C3Selector::new(c3, rng)),
            SelectorKind::Random => Box::new(RandomSelector::new(rng)),
            SelectorKind::RoundRobin => Box::new(RoundRobin::new()),
            SelectorKind::LeastOutstanding => Box::new(LeastOutstanding::new(rng)),
            SelectorKind::PowerOfTwo => Box::new(PowerOfTwoChoices::new(rng)),
            SelectorKind::DynamicSnitch => Box::new(DynamicSnitch::new(0.1, 0.9, rng)),
        }
    }

    /// Builds a boxed selector with C3's concurrency compensation set to
    /// the number of peer selectors sharing the server pool — the one
    /// piece of `c3` that depends on where the selector runs (every
    /// client under CliRS, every RSNode under NetRS) rather than on the
    /// configuration. This is the single entry point schemes should use.
    #[must_use]
    pub fn build_with_concurrency(
        self,
        mut c3: C3Config,
        concurrency: f64,
        rng: SimRng,
    ) -> Box<dyn ReplicaSelector + Send> {
        c3.concurrency = concurrency;
        self.build(c3, rng)
    }

    /// Builds one selector per RNG in `rngs` as the rows of a
    /// [`SelectorTable`], with C3's concurrency compensation set as in
    /// [`SelectorKind::build_with_concurrency`]. C3 rows are sized for
    /// servers `0..servers` up front.
    #[must_use]
    pub fn build_table(
        self,
        mut c3: C3Config,
        concurrency: f64,
        servers: u32,
        rngs: Vec<SimRng>,
    ) -> SelectorTable {
        c3.concurrency = concurrency;
        SelectorTable(match self {
            SelectorKind::C3 => Rows::C3(C3Table::new(c3, rngs, servers)),
            kind => Rows::Boxed(rngs.into_iter().map(|rng| kind.build(c3, rng)).collect()),
        })
    }
}

/// Independent selectors of one kind, addressed by row (a CliRS client
/// each): C3 rows live in one [`C3Table`], any other kind is one boxed
/// selector per row. Each call is the [`ReplicaSelector`] call of the
/// same name on that row.
pub struct SelectorTable(Rows);

enum Rows {
    C3(C3Table),
    Boxed(Vec<Box<dyn ReplicaSelector + Send>>),
}

impl SelectorTable {
    /// Row `row`'s order of `candidates`, best first.
    pub fn rank(&mut self, row: usize, candidates: &[ServerId], now: SimTime) -> Vec<ServerId> {
        match &mut self.0 {
            Rows::C3(t) => t.rank(row, candidates),
            Rows::Boxed(b) => b[row].rank(candidates, now),
        }
    }

    /// Row `row`'s preferred replica.
    pub fn select(&mut self, row: usize, candidates: &[ServerId], now: SimTime) -> ServerId {
        match &mut self.0 {
            Rows::C3(t) => t.select(row, candidates),
            Rows::Boxed(b) => b[row].select(candidates, now),
        }
    }

    /// Accounts a request row `row` dispatched to `server`.
    pub fn on_send(&mut self, row: usize, server: ServerId, now: SimTime) {
        match &mut self.0 {
            Rows::C3(t) => t.on_send(row, server),
            Rows::Boxed(b) => b[row].on_send(server, now),
        }
    }

    /// Folds feedback from a response row `row` observed.
    pub fn on_response(&mut self, row: usize, feedback: &Feedback, now: SimTime) {
        match &mut self.0 {
            Rows::C3(t) => t.on_response(row, feedback),
            Rows::Boxed(b) => b[row].on_response(feedback, now),
        }
    }

    /// Notes that a request row `row` sent to `server` timed out.
    pub fn on_timeout(&mut self, row: usize, server: ServerId, now: SimTime) {
        match &mut self.0 {
            Rows::C3(t) => t.on_timeout(row, server),
            Rows::Boxed(b) => b[row].on_timeout(server, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_with_concurrency_overrides_config() {
        // The helper must override whatever concurrency the config
        // carries; both calls below must behave like the explicit form.
        let c3 = C3Config {
            concurrency: 1.0,
            ..C3Config::default()
        };
        let candidates = [ServerId(0), ServerId(1)];
        let mut explicit = {
            let mut c = c3;
            c.concurrency = 8.0;
            SelectorKind::C3.build(c, SimRng::from_seed(3))
        };
        let mut via_helper = SelectorKind::C3.build_with_concurrency(c3, 8.0, SimRng::from_seed(3));
        for step in 0..16u64 {
            let now = SimTime::ZERO + SimDuration::from_micros(step);
            assert_eq!(
                explicit.select(&candidates, now),
                via_helper.select(&candidates, now)
            );
        }
    }

    #[test]
    fn table_rows_behave_like_built_selectors() {
        // Row 1 of a three-row table against a selector built alone from
        // the same RNG, for every kind: the same picks and ranks under the
        // same sends, responses and timeouts.
        let candidates = [ServerId(0), ServerId(1), ServerId(2)];
        let t = SimTime::ZERO;
        for kind in [
            SelectorKind::C3,
            SelectorKind::Random,
            SelectorKind::RoundRobin,
            SelectorKind::LeastOutstanding,
            SelectorKind::PowerOfTwo,
            SelectorKind::DynamicSnitch,
        ] {
            let rngs = (0..3).map(SimRng::from_seed).collect();
            let mut table = kind.build_table(C3Config::default(), 5.0, 3, rngs);
            let mut alone =
                kind.build_with_concurrency(C3Config::default(), 5.0, SimRng::from_seed(1));
            for step in 0..40u64 {
                let pick = alone.select(&candidates, t);
                assert_eq!(
                    table.select(1, &candidates, t),
                    pick,
                    "{kind:?} step {step}"
                );
                alone.on_send(pick, t);
                table.on_send(1, pick, t);
                if step % 3 == 0 {
                    let fb = Feedback {
                        server: pick,
                        queue_len: step as u32 % 5,
                        service_time: SimDuration::from_micros(100 + step),
                        latency: SimDuration::from_micros(900 + 7 * step),
                    };
                    alone.on_response(&fb, t);
                    table.on_response(1, &fb, t);
                }
                if step % 11 == 0 {
                    alone.on_timeout(pick, t);
                    table.on_timeout(1, pick, t);
                }
                assert_eq!(table.rank(1, &candidates, t), alone.rank(&candidates, t));
            }
        }
    }

    #[test]
    fn kind_builds_every_selector() {
        let kinds = [
            (SelectorKind::C3, "c3"),
            (SelectorKind::Random, "random"),
            (SelectorKind::RoundRobin, "round-robin"),
            (SelectorKind::LeastOutstanding, "least-outstanding"),
            (SelectorKind::PowerOfTwo, "power-of-two"),
            (SelectorKind::DynamicSnitch, "dynamic-snitch"),
        ];
        let candidates = [ServerId(0), ServerId(1), ServerId(2)];
        for (kind, name) in kinds {
            let mut s = kind.build(C3Config::default(), SimRng::from_seed(1));
            assert_eq!(s.name(), name);
            let pick = s.select(&candidates, SimTime::ZERO);
            assert!(candidates.contains(&pick));
            let ranked = s.rank(&candidates, SimTime::ZERO);
            assert_eq!(ranked.len(), 3);
            let mut sorted = ranked.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, candidates.to_vec(), "rank must permute candidates");
        }
    }
}
