//! The C3 replica-ranking algorithm (Suresh et al., NSDI'15).
//!
//! C3 scores each replica `s` with
//!
//! ```text
//! Ψ(s) = R̄_s − T̄_s + q̂_s^b · T̄_s
//! q̂_s = 1 + os_s · n + q̄_s
//! ```
//!
//! where `R̄_s` is the EWMA of response times this RSNode observed from
//! `s`, `T̄_s` the EWMA of the service-time estimates `s` piggybacks,
//! `q̄_s` the EWMA of the queue sizes `s` piggybacks, `os_s` the requests
//! this RSNode currently has outstanding at `s`, `n` the number of
//! cooperating RSNodes (concurrency compensation: each RSNode assumes its
//! peers behave like it does), and `b` the queue-penalty exponent (3 in
//! the paper — the "cubic" in cubic replica selection). Lower is better.
//!
//! The cubic exponent is what suppresses herd behaviour: a replica whose
//! queue estimate is stale-low attracts traffic only until its penalty
//! term explodes, which happens *before* the queue physically builds up
//! because `os_s · n` rises instantly at the RSNode itself.

use std::collections::BTreeMap;

use netrs_kvstore::ServerId;
use netrs_simcore::{SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::{Feedback, ReplicaSelector};

/// C3 parameters (paper defaults in [`Default`]). The concurrency
/// compensation `n` is not one of them: it is how many RSNodes share each
/// server, which the scheme decides (the client count under CliRS, the
/// RSNode count under NetRS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct C3Config {
    /// EWMA weight of the *old* value (C3 uses 0.9).
    pub alpha: f64,
    /// Queue-penalty exponent `b` (3 in C3; swept by the ABL-B ablation).
    pub exponent: f64,
}

impl Default for C3Config {
    fn default() -> Self {
        C3Config {
            alpha: 0.9,
            exponent: 3.0,
        }
    }
}

impl C3Config {
    /// Checks the parameters' bounds: `alpha` in `[0, 1)`, `exponent >= 1`.
    ///
    /// # Errors
    ///
    /// Names the first parameter out of bounds.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.alpha) {
            return Err(format!("alpha must be in [0, 1), got {}", self.alpha));
        }
        if !(1.0..).contains(&self.exponent) {
            return Err(format!("exponent must be >= 1, got {}", self.exponent));
        }
        Ok(())
    }
}

/// Panics unless `n`, a concurrency compensation, is at least 1.
fn check_concurrency(n: f64) {
    assert!(n >= 1.0, "concurrency must be >= 1");
}

/// What one selector knows about one server: 32 bytes, so two cells share
/// a cache line. All zeros means "never heard from".
#[derive(Debug, Clone, Copy, Default)]
struct Estimate {
    ewma_latency_ns: f64,
    ewma_service_ns: f64,
    ewma_queue: f64,
    outstanding: u32,
    responses: u32,
}

/// Additive score penalty applied after the first timeout (100 ms in
/// nanoseconds); doubles on each further timeout until a response clears
/// it. Large enough to outrank any healthy replica under normal load.
const TIMEOUT_PENALTY_BASE_NS: f64 = 100.0e6;

/// The C3 state of many independent selectors over one server id space —
/// every client of a CliRS run — in one allocation.
///
/// Row `r` is selector `r`: its estimates of servers `0..width` sit at
/// `r * width..(r + 1) * width`, and it draws its tie-breaking jitter from
/// its own RNG, so a row behaves exactly like a [`C3Selector`] built with
/// that RNG (which is this table with one row).
#[derive(Debug)]
pub struct C3Table {
    cfg: C3Config,
    /// Concurrency compensation `n` of every row.
    concurrency: f64,
    /// Servers per row. An id at or past it reads as never heard from; the
    /// first write to one widens every row.
    width: usize,
    estimates: Vec<Estimate>,
    rngs: Vec<SimRng>,
    /// Timeout penalties by `(row, server)`, cleared by the next response
    /// from that server. Empty unless a fault run timed a request out, so
    /// fault-free scoring never looks here.
    penalties: BTreeMap<(u32, u32), f64>,
}

impl C3Table {
    /// Bytes of one `(row, server)` cell.
    pub const ESTIMATE_BYTES: usize = std::mem::size_of::<Estimate>();

    /// A table of one row per RNG in `rngs`, each sized for servers
    /// `0..servers` up front, whose rows each assume `concurrency` peers
    /// share every server.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`C3Config::validate`] or `concurrency < 1`.
    #[must_use]
    pub fn new(cfg: C3Config, concurrency: f64, rngs: Vec<SimRng>, servers: u32) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid C3 config: {e}");
        }
        check_concurrency(concurrency);
        let width = servers as usize;
        C3Table {
            cfg,
            concurrency,
            width,
            estimates: vec![Estimate::default(); rngs.len() * width],
            rngs,
            penalties: BTreeMap::new(),
        }
    }

    fn rows(&self) -> usize {
        self.rngs.len()
    }

    /// Row `row`'s RNG, as its next jitter draw would find it.
    #[must_use]
    pub fn rng(&self, row: usize) -> &SimRng {
        &self.rngs[row]
    }

    fn est(&self, row: usize, server: ServerId) -> Estimate {
        let s = server.0 as usize;
        if s < self.width {
            self.estimates[row * self.width + s]
        } else {
            Estimate::default()
        }
    }

    fn est_mut(&mut self, row: usize, server: ServerId) -> &mut Estimate {
        let s = server.0 as usize;
        if s >= self.width {
            self.widen(s + 1);
        }
        &mut self.estimates[row * self.width + s]
    }

    /// Re-lays the table out at `width` servers per row, last row first so
    /// no row is overwritten before it moves; new cells are never heard
    /// from. With one row this is a plain (amortized) resize.
    fn widen(&mut self, width: usize) {
        let old = self.width;
        self.estimates
            .resize(self.rows() * width, Estimate::default());
        for r in (0..self.rows()).rev() {
            self.estimates
                .copy_within(r * old..(r + 1) * old, r * width);
            self.estimates[r * width + old..(r + 1) * width].fill(Estimate::default());
        }
        self.width = width;
    }

    /// Row `row`'s Ψ score of one server (lower is better). Servers never
    /// heard from score by their compensated-outstanding penalty only, so
    /// fresh replicas are explored early.
    #[must_use]
    pub fn score(&self, row: usize, server: ServerId) -> f64 {
        let est = self.est(row, server);
        let q_hat = 1.0 + f64::from(est.outstanding) * self.concurrency + est.ewma_queue;
        // The paper's cube is two multiplies; any other exponent (the
        // ABL-B sweep) pays for libm's `pow`.
        let penalty = if self.cfg.exponent == 3.0 {
            q_hat * q_hat * q_hat
        } else {
            q_hat.powf(self.cfg.exponent)
        };
        let psi = est.ewma_latency_ns - est.ewma_service_ns + penalty * est.ewma_service_ns;
        if self.penalties.is_empty() {
            psi
        } else {
            psi + self
                .penalties
                .get(&(row as u32, server.0))
                .copied()
                .unwrap_or(0.0)
        }
    }

    /// Number of responses row `row` folded in from `server` (freshness
    /// indicator).
    #[must_use]
    pub fn responses_seen(&self, row: usize, server: ServerId) -> u64 {
        u64::from(self.est(row, server).responses)
    }

    /// Requests row `row` has routed to `server` and not yet seen answered.
    #[must_use]
    pub fn outstanding(&self, row: usize, server: ServerId) -> u32 {
        self.est(row, server).outstanding
    }

    /// Row `row`'s order of `candidates`, best first.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn rank(&mut self, row: usize, candidates: &[ServerId]) -> Vec<ServerId> {
        assert!(!candidates.is_empty(), "rank needs at least one candidate");
        // Random jitter breaks ties among equally scored (e.g. unseen)
        // servers so cold-start traffic spreads instead of herding.
        let mut scored: Vec<(f64, u64, ServerId)> = candidates
            .iter()
            .map(|&s| (self.score(row, s), self.rngs[row].next_u64(), s))
            .collect();
        scored.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.into_iter().map(|(_, _, s)| s).collect()
    }

    /// Allocation-free pick of row `row`'s best-ranked replica: a single
    /// scan that keeps the first minimum under `rank`'s exact comparator
    /// (score, then jitter), drawing the per-candidate jitter in the same
    /// order — so the choice *and* the RNG stream match `rank(...)[0]` bit
    /// for bit without building the two vectors.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select(&mut self, row: usize, candidates: &[ServerId]) -> ServerId {
        assert!(!candidates.is_empty(), "rank needs at least one candidate");
        let mut best = (
            self.score(row, candidates[0]),
            self.rngs[row].next_u64(),
            candidates[0],
        );
        for &s in &candidates[1..] {
            let key = (self.score(row, s), self.rngs[row].next_u64(), s);
            let better = match key.0.partial_cmp(&best.0) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                Some(std::cmp::Ordering::Equal) | None => key.1 < best.1,
            };
            if better {
                best = key;
            }
        }
        best.2
    }

    /// Accounts a request row `row` dispatched to `server`.
    pub fn on_send(&mut self, row: usize, server: ServerId) {
        self.est_mut(row, server).outstanding += 1;
    }

    /// Folds a response row `row` observed into its estimates.
    pub fn on_response(&mut self, row: usize, fb: &Feedback) {
        let alpha = self.cfg.alpha;
        let est = self.est_mut(row, fb.server);
        let first = est.responses == 0;
        est.ewma_latency_ns = ewma(
            est.ewma_latency_ns,
            fb.latency.as_nanos() as f64,
            alpha,
            first,
        );
        est.ewma_service_ns = ewma(
            est.ewma_service_ns,
            fb.service_time.as_nanos() as f64,
            alpha,
            first,
        );
        est.ewma_queue = ewma(est.ewma_queue, f64::from(fb.queue_len), alpha, first);
        est.outstanding = est.outstanding.saturating_sub(1);
        est.responses = est.responses.saturating_add(1);
        // A response proves the server answers again; drop the penalty.
        if !self.penalties.is_empty() {
            self.penalties.remove(&(row as u32, fb.server.0));
        }
    }

    /// Notes that a request row `row` sent to `server` timed out: an
    /// additive penalty that doubles on each repeat until a response.
    pub fn on_timeout(&mut self, row: usize, server: ServerId) {
        let penalty = self.penalties.entry((row as u32, server.0)).or_insert(0.0);
        *penalty = (*penalty * 2.0).max(TIMEOUT_PENALTY_BASE_NS);
    }
}

fn ewma(old: f64, sample: f64, alpha: f64, first: bool) -> f64 {
    if first {
        sample
    } else {
        alpha * old + (1.0 - alpha) * sample
    }
}

/// The C3 selector state held by one RSNode: a one-row [`C3Table`], sized
/// for the run's servers by [`C3Selector::with_servers`]. A row built by
/// [`C3Selector::new`] starts empty and widens as it hears from servers.
#[derive(Debug)]
pub struct C3Selector {
    table: C3Table,
}

impl C3Selector {
    /// Creates a selector that assumes it has the servers to itself
    /// (concurrency compensation 1; see [`C3Selector::set_concurrency`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`C3Config::validate`].
    #[must_use]
    pub fn new(cfg: C3Config, rng: SimRng) -> Self {
        Self::with_servers(cfg, rng, 0)
    }

    /// [`C3Selector::new`] with estimates for servers `0..servers`
    /// allocated up front, so the row never widens for a server id below
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`C3Config::validate`].
    #[must_use]
    pub fn with_servers(cfg: C3Config, rng: SimRng, servers: u32) -> Self {
        C3Selector {
            table: C3Table::new(cfg, 1.0, vec![rng], servers),
        }
    }

    /// Sets the concurrency compensation `n`: how many RSNodes share each
    /// server (the RSNode count of the plan that deployed this one).
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`.
    pub fn set_concurrency(&mut self, n: f64) {
        check_concurrency(n);
        self.table.concurrency = n;
    }

    /// The Ψ score of one server (lower is better; see
    /// [`C3Table::score`]).
    #[must_use]
    pub fn score(&self, server: ServerId) -> f64 {
        self.table.score(0, server)
    }

    /// Number of responses folded in from `server` (freshness indicator).
    #[must_use]
    pub fn responses_seen(&self, server: ServerId) -> u64 {
        self.table.responses_seen(0, server)
    }

    /// The RNG, as the next jitter draw would find it.
    #[must_use]
    pub fn rng(&self) -> &SimRng {
        self.table.rng(0)
    }
}

impl ReplicaSelector for C3Selector {
    fn rank(&mut self, candidates: &[ServerId], _now: SimTime) -> Vec<ServerId> {
        self.table.rank(0, candidates)
    }

    fn select(&mut self, candidates: &[ServerId], _now: SimTime) -> ServerId {
        self.table.select(0, candidates)
    }

    fn on_send(&mut self, server: ServerId, _now: SimTime) {
        self.table.on_send(0, server);
    }

    fn on_response(&mut self, fb: &Feedback, _now: SimTime) {
        self.table.on_response(0, fb);
    }

    fn on_timeout(&mut self, server: ServerId, _now: SimTime) {
        self.table.on_timeout(0, server);
    }

    fn outstanding(&self, server: ServerId) -> u32 {
        self.table.outstanding(0, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrs_simcore::SimDuration;

    fn fb(server: u32, queue: u32, service_ms: u64, latency_ms: u64) -> Feedback {
        Feedback {
            server: ServerId(server),
            queue_len: queue,
            service_time: SimDuration::from_millis(service_ms),
            latency: SimDuration::from_millis(latency_ms),
        }
    }

    fn c3() -> C3Selector {
        C3Selector::new(C3Config::default(), SimRng::from_seed(11))
    }

    #[test]
    fn prefers_lower_latency_server() {
        let mut s = c3();
        let t = SimTime::ZERO;
        for _ in 0..5 {
            s.on_response(&fb(0, 2, 4, 20), t);
            s.on_response(&fb(1, 2, 4, 5), t);
        }
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
    }

    #[test]
    fn queue_penalty_is_cubic() {
        let mut s = c3();
        let t = SimTime::ZERO;
        // Same latency/service, different queues.
        s.on_response(&fb(0, 10, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        let ratio = s.score(ServerId(0)) / s.score(ServerId(1));
        // (1+10)^3 vs (1+1)^3 dominates: ratio should be large.
        assert!(ratio > 50.0, "cubic penalty too weak: ratio {ratio}");
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
    }

    #[test]
    fn outstanding_requests_push_score_up() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 1, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        let before = s.score(ServerId(0));
        for _ in 0..3 {
            s.on_send(ServerId(0), t);
        }
        assert_eq!(s.outstanding(ServerId(0)), 3);
        assert!(s.score(ServerId(0)) > before);
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
        // Responses drain the outstanding count.
        s.on_response(&fb(0, 1, 4, 8), t);
        assert_eq!(s.outstanding(ServerId(0)), 2);
    }

    #[test]
    fn outstanding_counters_never_underflow() {
        let mut s = c3();
        s.on_response(&fb(0, 1, 4, 8), SimTime::ZERO); // response without a send
        assert_eq!(s.outstanding(ServerId(0)), 0);
    }

    #[test]
    fn concurrency_compensation_amplifies_outstanding() {
        let mut low = C3Selector::new(C3Config::default(), SimRng::from_seed(1));
        let mut high = C3Selector::new(C3Config::default(), SimRng::from_seed(1));
        high.set_concurrency(500.0);
        let t = SimTime::ZERO;
        for s in [&mut low, &mut high] {
            s.on_response(&fb(0, 1, 4, 8), t);
            s.on_send(ServerId(0), t);
        }
        assert!(high.score(ServerId(0)) > low.score(ServerId(0)) * 100.0);
    }

    #[test]
    fn unseen_servers_are_explored_first() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 3, 4, 10), t);
        // Server 9 was never heard from: score 0 beats any positive score.
        assert_eq!(s.select(&[ServerId(0), ServerId(9)], t), ServerId(9));
        assert_eq!(s.responses_seen(ServerId(9)), 0);
        assert_eq!(s.responses_seen(ServerId(0)), 1);
    }

    #[test]
    fn ties_break_randomly_not_by_id() {
        let mut s = c3();
        let t = SimTime::ZERO;
        let candidates = [ServerId(0), ServerId(1), ServerId(2)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(s.select(&candidates, t));
        }
        assert_eq!(seen.len(), 3, "cold-start picks must spread");
    }

    #[test]
    fn first_sample_initializes_ewma_exactly() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 4, 2, 6), t);
        // With a single sample: R̄ = 6ms, T̄ = 2ms, q̄ = 4, q̂ = 5.
        let expected = 6.0e6 - 2.0e6 + 125.0 * 2.0e6;
        assert!((s.score(ServerId(0)) - expected).abs() < 1.0);
    }

    #[test]
    fn exponent_is_configurable() {
        let mut linear = C3Selector::new(
            C3Config {
                exponent: 1.0,
                ..C3Config::default()
            },
            SimRng::from_seed(2),
        );
        let t = SimTime::ZERO;
        linear.on_response(&fb(0, 4, 2, 6), t);
        let expected = 6.0e6 - 2.0e6 + 5.0 * 2.0e6;
        assert!((linear.score(ServerId(0)) - expected).abs() < 1.0);
    }

    #[test]
    fn non_cubic_exponents_go_through_powf() {
        // Fractional and near-cubic exponents must not be caught by the
        // cube's multiply: the score is the formula with `powf`, to the
        // bit. Two responses put q̄ at 0.9·4 + 0.1·7 with nothing
        // outstanding, so q̂ = 5.3 — not an integer, where a multiply
        // chain and `powf` round differently.
        for exponent in [1.5, 2.5, 3.0 + 1e-9, 4.0] {
            let mut s = C3Selector::new(
                C3Config {
                    exponent,
                    ..C3Config::default()
                },
                SimRng::from_seed(2),
            );
            let t = SimTime::ZERO;
            s.on_response(&fb(0, 4, 2, 6), t);
            s.on_response(&fb(0, 7, 2, 6), t);
            let q_hat: f64 = 1.0 + (0.9 * 4.0 + (1.0 - 0.9) * 7.0);
            let expected = 6.0e6 - 2.0e6 + q_hat.powf(exponent) * 2.0e6;
            assert_eq!(s.score(ServerId(0)), expected, "exponent {exponent}");
        }
    }

    #[test]
    fn rank_orders_by_score() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 8, 4, 30), t);
        s.on_response(&fb(1, 2, 4, 10), t);
        s.on_response(&fb(2, 0, 1, 2), t);
        let ranked = s.rank(&[ServerId(0), ServerId(1), ServerId(2)], t);
        assert_eq!(ranked, vec![ServerId(2), ServerId(1), ServerId(0)]);
    }

    #[test]
    fn set_concurrency_takes_effect() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 0, 4, 4), t);
        s.on_send(ServerId(0), t);
        let before = s.score(ServerId(0));
        s.set_concurrency(100.0);
        assert!(s.score(ServerId(0)) > before);
    }

    #[test]
    fn timeouts_demote_and_responses_forgive() {
        let mut s = c3();
        let t = SimTime::ZERO;
        s.on_response(&fb(0, 1, 4, 8), t);
        s.on_response(&fb(1, 1, 4, 8), t);
        // One timeout pushes server 0 behind server 1 — even behind a
        // never-seen server (whose score is 0).
        s.on_timeout(ServerId(0), t);
        assert_eq!(s.select(&[ServerId(0), ServerId(1)], t), ServerId(1));
        assert_eq!(s.select(&[ServerId(0), ServerId(9)], t), ServerId(9));
        // Repeated timeouts double the penalty.
        let one = s.score(ServerId(0));
        s.on_timeout(ServerId(0), t);
        assert!(s.score(ServerId(0)) > one + TIMEOUT_PENALTY_BASE_NS * 0.9);
        // A successful response clears it entirely.
        s.on_response(&fb(0, 1, 4, 8), t);
        assert!(s.score(ServerId(0)) < TIMEOUT_PENALTY_BASE_NS);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut s = c3();
        let _ = s.rank(&[], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = C3Selector::new(
            C3Config {
                alpha: 1.0,
                ..C3Config::default()
            },
            SimRng::from_seed(0),
        );
    }
}
