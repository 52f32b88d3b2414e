//! Simulation configuration: every §V-A parameter, with the paper's
//! defaults.

use netrs::{Granularity, PlanConstraints, PlanSolver};
use netrs_faults::{FaultEvent, FaultPlan, LinkRef};
use netrs_kvstore::ServerConfig;
use netrs_netdev::{AcceleratorConfig, CacheAdmission, HotCacheConfig, HotKeyCache};
use netrs_selection::C3Config;
use netrs_simcore::{Bimodal, SimDuration};
use serde::{Deserialize, Serialize};

/// The replica-selection scheme under evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Scheme {
    /// Clients select replicas (the conventional scheme).
    #[default]
    CliRs,
    /// CliRS plus a redundant request once a primary has been outstanding
    /// longer than the client's 95th-percentile expected latency.
    CliRsR95,
    /// NetRS with the straightforward plan: each rack's ToR operator is
    /// the RSNode for the rack's requests.
    NetRsToR,
    /// NetRS with the RSNode placement determined by the ILP.
    NetRsIlp,
}

impl Scheme {
    /// All four evaluated schemes, in the paper's order.
    pub const ALL: [Scheme; 4] = [
        Scheme::CliRs,
        Scheme::CliRsR95,
        Scheme::NetRsToR,
        Scheme::NetRsIlp,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::CliRs => "CliRS",
            Scheme::CliRsR95 => "CliRS-R95",
            Scheme::NetRsToR => "NetRS-ToR",
            Scheme::NetRsIlp => "NetRS-ILP",
        }
    }

    /// Whether the scheme performs replica selection in the network.
    #[must_use]
    pub fn is_in_network(self) -> bool {
        matches!(self, Scheme::NetRsToR | Scheme::NetRsIlp)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    /// Parses a paper label case-insensitively (`"CliRS"`, `"clirs-r95"`,
    /// `"netrs-tor"`, `"NetRS-ILP"`, …), round-tripping with
    /// [`Scheme::label`] / [`std::fmt::Display`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::ALL
            .into_iter()
            .find(|scheme| scheme.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                format!(
                    "unknown scheme '{s}' (expected one of: {})",
                    Scheme::ALL.map(Scheme::label).join(", ")
                )
            })
    }
}

/// How the controller obtains the traffic matrix for NetRS-ILP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PlanSource {
    /// Compute `T` analytically from the workload specification (the
    /// steady state the monitors would converge to).
    #[default]
    Oracle,
    /// Bootstrap with the ToR plan, then re-plan periodically from ToR
    /// monitor snapshots — the paper's dynamic deployment, including the
    /// transient after each new RSP.
    Monitored {
        /// Re-planning period.
        interval: SimDuration,
    },
}

/// Parameters of the CliRS-R95 redundant-request policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct R95Config {
    /// Quantile of the client's own latency distribution after which a
    /// duplicate is issued (0.95 in the paper's CliRS-R95).
    pub quantile: f64,
    /// Minimum completed samples before duplicates are armed.
    pub min_samples: u64,
}

impl Default for R95Config {
    fn default() -> Self {
        R95Config {
            quantile: 0.95,
            min_samples: 30,
        }
    }
}

/// How a write is committed across its replica group before the client
/// counts it done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WriteConsistency {
    /// Fan out to every replica; the write completes when the *last*
    /// replica responds (the historical behavior — fixed-seed runs
    /// predating consistency modes reproduce byte-identically).
    #[default]
    All,
    /// Fan out to every replica; the write is acknowledged at the `w`-th
    /// replica response (`w` is clamped to `[1, replication]`). Straggler
    /// replicas still drain in the background.
    Quorum {
        /// Replica responses required before the ack.
        w: u32,
    },
    /// Chain replication: the write visits the replicas serially
    /// (head → … → tail) and the tail's response acknowledges it. One
    /// copy is ever in flight.
    Chain,
}

impl std::str::FromStr for WriteConsistency {
    type Err = String;

    /// Parses the CLI form: `all`, `quorum:W` or `chain`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "all" => Ok(WriteConsistency::All),
            "chain" => Ok(WriteConsistency::Chain),
            _ => s
                .strip_prefix("quorum:")
                .and_then(|w| w.parse().ok())
                .map(|w| WriteConsistency::Quorum { w })
                .ok_or_else(|| "want all, quorum:W or chain".into()),
        }
    }
}

impl WriteConsistency {
    /// The effective quorum for a group of `n` replicas: how many
    /// replica commits precede the ack.
    #[must_use]
    pub fn required_acks(self, n: u32) -> u32 {
        match self {
            WriteConsistency::All | WriteConsistency::Chain => n,
            WriteConsistency::Quorum { w } => w.clamp(1, n),
        }
    }
}

/// When the controller treats an operator as overloaded (§III-C(ii)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadPolicy {
    /// How often accelerator utilization is checked.
    pub interval: SimDuration,
    /// Windowed core-utilization threshold above which the operator's
    /// traffic groups degrade to DRS.
    pub utilization_limit: f64,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            interval: SimDuration::from_millis(100),
            utilization_limit: 0.9,
        }
    }
}

/// The full simulation configuration. [`SimConfig::paper`] reproduces the
/// §V-A defaults; [`SimConfig::small`] is a laptop-scale setup for tests
/// and examples. Unknown keys are an error, so a misspelled or retired
/// field fails to parse instead of running the defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimConfig {
    /// Fat-tree arity `k` (paper: 16 → 1024 hosts).
    pub arity: u32,
    /// Number of storage servers `Ns` (paper: 100).
    pub servers: u32,
    /// Number of client hosts (paper default: 500).
    pub clients: u32,
    /// Number of Poisson workload generators (paper: 200).
    pub generators: u32,
    /// Replication factor (paper: 3; at most 255).
    pub replication: u32,
    /// Virtual nodes per server on the consistent-hash ring.
    pub vnodes: u32,
    /// Key-space size (paper: 100 million).
    pub keys: u64,
    /// Zipf exponent of key popularity (paper: 0.99).
    pub zipf: f64,
    /// Server queueing model (Np, tkv, fluctuation).
    pub server: ServerConfig,
    /// Nominal system utilization `tkv·A/(Ns·Np)` (paper default: 90 %).
    pub utilization: f64,
    /// Demand skew: fraction of requests issued by the top 20 % of
    /// clients (`None` = uniform demand).
    pub demand_skew: Option<f64>,
    /// Total requests to issue (paper: 6 million).
    pub requests: u64,
    /// Leading fraction of requests excluded from latency statistics.
    pub warmup_fraction: f64,
    /// Latency of each network link traversal (paper: 30 µs between
    /// directly connected switches).
    pub link_latency: SimDuration,
    /// The scheme under test.
    pub scheme: Scheme,
    /// Parameters of C3, the replica selector at every RSNode (the
    /// concurrency compensation is the scheme's RSNode count).
    pub c3: C3Config,
    /// Redundant-request policy for CliRS-R95.
    pub r95: R95Config,
    /// Accelerator model on each NetRS operator.
    pub accelerator: AcceleratorConfig,
    /// Placement constraints for NetRS-ILP (U, E, capacities).
    pub plan: PlanConstraints,
    /// Placement solver for NetRS-ILP.
    pub plan_solver: PlanSolver,
    /// Where the controller's traffic matrix comes from.
    pub plan_source: PlanSource,
    /// Traffic-group granularity (paper evaluates rack-level).
    pub granularity: Granularity,
    /// Fraction of requests that are writes (extension; the paper's
    /// workload is read-only). Writes go to the replica group as plain
    /// traffic — no replica selection — and complete per
    /// [`SimConfig::write_consistency`].
    pub write_fraction: f64,
    /// When a write is acknowledged: last replica (`All`, the default),
    /// a `W`-of-`N` quorum, or chain replication.
    pub write_consistency: WriteConsistency,
    /// In-switch hot-key cache at each RSNode operator (`None` = off;
    /// client schemes never consult it either way).
    pub hot_cache: Option<HotCacheConfig>,
    /// Overload detection at NetRS operators (§III-C(ii)); `None`
    /// disables the check.
    pub overload: Option<OverloadPolicy>,
    /// Scripted fault plan (crashes, link failures, operator fail-stops,
    /// loss bursts) with its retry and recovery-detection policies.
    /// `None` — or a plan with no events — leaves the run byte-identical
    /// to the fault-free simulation.
    pub faults: Option<FaultPlan>,
    /// Root random seed (placement, workload, service times).
    pub seed: u64,
}

impl SimConfig {
    /// The §V-A parameters: 16-ary fat-tree, 100 servers, 500 clients,
    /// 200 generators, 6 M requests, 90 % utilization.
    #[must_use]
    pub fn paper() -> Self {
        SimConfig {
            arity: 16,
            servers: 100,
            clients: 500,
            generators: 200,
            replication: 3,
            vnodes: 64,
            keys: 100_000_000,
            zipf: 0.99,
            server: ServerConfig::default(),
            utilization: 0.9,
            demand_skew: None,
            requests: 6_000_000,
            warmup_fraction: 0.05,
            link_latency: SimDuration::from_micros(30),
            scheme: Scheme::CliRs,
            c3: C3Config::default(),
            r95: R95Config::default(),
            accelerator: AcceleratorConfig::default(),
            plan: PlanConstraints {
                // E = 20%·A is filled in by `finalize`.
                ..PlanConstraints::default()
            },
            plan_solver: PlanSolver::default(),
            plan_source: PlanSource::Oracle,
            granularity: Granularity::Rack,
            write_fraction: 0.0,
            write_consistency: WriteConsistency::All,
            hot_cache: None,
            overload: None,
            faults: None,
            seed: 1,
        }
    }

    /// A small configuration (4-ary tree, 6 servers, 8 clients) for
    /// tests, examples and doc runs.
    #[must_use]
    pub fn small() -> Self {
        SimConfig {
            arity: 4,
            servers: 6,
            clients: 8,
            generators: 4,
            vnodes: 16,
            keys: 10_000,
            requests: 5_000,
            ..SimConfig::paper()
        }
    }

    /// The aggregate request arrival rate `A` (requests/second) implied
    /// by the configured nominal utilization: `A = u·Ns·Np / tkv`.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        self.utilization * f64::from(self.servers) * f64::from(self.server.slots)
            / self.server.base_service_time.as_secs_f64()
    }

    /// Fills the paper's `E = 20%·A` extra-hop budget where it is unset
    /// (`null` in a config file), and leaves an explicitly set budget
    /// alone. A config is stored and emitted unfinalized, so the budget
    /// follows its own utilization, service time and server count.
    #[must_use]
    pub fn finalize(mut self) -> Self {
        if self.plan.extra_hop_budget.is_none() {
            self.plan.extra_hop_budget = Some(0.2 * self.arrival_rate());
        }
        self
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        let hosts = self.arity * self.arity * self.arity / 4;
        if self.servers + self.clients > hosts {
            return Err(format!(
                "{} servers + {} clients exceed {} hosts (each host has one role)",
                self.servers, self.clients, hosts
            ));
        }
        if self.servers == 0 {
            return Err("need at least one server".into());
        }
        if self.replication == 0 {
            return Err("replication factor must be at least 1".into());
        }
        // A request counts its copies in a `u8`, and a write sends one
        // per replica.
        if self.replication > 255 {
            return Err(format!(
                "replication must be at most 255, got {}",
                self.replication
            ));
        }
        if self.servers < self.replication {
            return Err(format!(
                "replication factor {} exceeds server count {}",
                self.replication, self.servers
            ));
        }
        if self.vnodes == 0 {
            return Err("vnodes must be at least 1".into());
        }
        if self.keys == 0 {
            return Err("keys must be at least 1".into());
        }
        // Caches, version slots and request slots store a key as a `u32`
        // rank and a version (a count of writes, each one request) as a
        // `u32`.
        for (field, n) in [("keys", self.keys), ("requests", self.requests)] {
            if n > u64::from(u32::MAX) {
                return Err(format!("{field} must be at most {}, got {n}", u32::MAX));
            }
        }
        if !self.zipf.is_finite() || self.zipf <= 0.0 {
            return Err(format!(
                "zipf must be finite and positive, got {}",
                self.zipf
            ));
        }
        self.validate_server()?;
        if self.generators == 0 || self.clients == 0 {
            return Err("need at least one generator and one client".into());
        }
        if !(0.0..=1.0).contains(&self.warmup_fraction) {
            return Err("warmup fraction must be in [0, 1]".into());
        }
        if let Some(s) = self.demand_skew {
            if !(0.0..=1.0).contains(&s) {
                return Err("demand skew must be in [0, 1]".into());
            }
            // Skew splits the clients into a hot top fifth and the rest;
            // with one client the rest is empty.
            if self.clients < 2 {
                return Err(format!(
                    "demand skew {s} needs at least 2 clients, got {}",
                    self.clients
                ));
            }
        }
        if !self.utilization.is_finite() || self.utilization <= 0.0 {
            return Err(format!(
                "utilization must be finite and positive, got {}",
                self.utilization
            ));
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err("write fraction must be in [0, 1]".into());
        }
        if let WriteConsistency::Quorum { w } = self.write_consistency {
            if w == 0 || w > self.replication {
                return Err(format!(
                    "write quorum {w} must be in [1, replication factor {}]",
                    self.replication
                ));
            }
        }
        if let Some(cache) = self.hot_cache {
            // Cache slot ids are `u16`.
            if !(1..=HotKeyCache::MAX_CAPACITY).contains(&cache.capacity) {
                return Err(format!(
                    "hot_cache.capacity must be in [1, {}], got {}",
                    HotKeyCache::MAX_CAPACITY,
                    cache.capacity
                ));
            }
            if let CacheAdmission::Frequency { threshold } = cache.admission {
                if threshold == 0 {
                    return Err("frequency admission threshold must be at least 1".into());
                }
            }
        }
        if let Some(policy) = self.overload {
            if policy.utilization_limit <= 0.0 || policy.interval == SimDuration::ZERO {
                return Err("overload policy needs a positive limit and interval".into());
            }
        }
        self.c3.validate().map_err(|e| format!("c3: {e}"))?;
        if self.r95.quantile <= 0.0 || self.r95.quantile >= 1.0 || self.r95.min_samples == 0 {
            return Err(format!(
                "inconsistent R95 config: quantile {} must be in (0, 1) and \
                 min_samples {} must be at least 1",
                self.r95.quantile, self.r95.min_samples
            ));
        }
        self.validate_planner()?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
            self.validate_fault_targets(plan)?;
        }
        Ok(())
    }

    /// Checks the server model's fields, each of which a constructor
    /// would otherwise assert on (or loop on).
    fn validate_server(&self) -> Result<(), String> {
        let server = &self.server;
        if server.slots == 0 {
            return Err("server.slots must be at least 1".into());
        }
        if server.base_service_time == SimDuration::ZERO {
            return Err("server.base_service_time must be positive".into());
        }
        if !(0.0..1.0).contains(&server.status_ewma_alpha) {
            return Err(format!(
                "server.status_ewma_alpha must be in [0, 1), got {}",
                server.status_ewma_alpha
            ));
        }
        if !server.fluctuation_range.is_finite() || server.fluctuation_range < 1.0 {
            return Err(format!(
                "server.fluctuation_range must be finite and at least 1, got {}",
                server.fluctuation_range
            ));
        }
        // Each fluctuation re-arms the next one an interval later: a zero
        // interval would redraw service times forever at one instant.
        if server.fluctuation_interval == SimDuration::ZERO {
            return Err("server.fluctuation_interval must be positive".into());
        }
        Ok(())
    }

    /// Checks the accelerator models and the placement constraints: every
    /// capacity `U·c/t` (or override) the planner divides by must be
    /// positive and finite.
    fn validate_planner(&self) -> Result<(), String> {
        for (name, acc) in [
            ("accelerator", &self.accelerator),
            ("plan.accelerator", &self.plan.accelerator),
        ] {
            if acc.cores == 0 {
                return Err(format!("{name}.cores must be at least 1"));
            }
            if acc.service_time == SimDuration::ZERO {
                return Err(format!("{name}.service_time must be positive"));
            }
        }
        let plan = &self.plan;
        if !plan.max_utilization.is_finite() || plan.max_utilization <= 0.0 {
            return Err(format!(
                "plan.max_utilization must be finite and positive, got {}",
                plan.max_utilization
            ));
        }
        let bad_override = plan
            .capacity_overrides
            .iter()
            .filter(|&(_, &cap)| !cap.is_finite() || cap <= 0.0)
            .min_by_key(|&(&sw, _)| sw);
        if let Some((sw, cap)) = bad_override {
            return Err(format!(
                "plan.capacity_overrides[{sw}] must be finite and positive, got {cap}"
            ));
        }
        if !plan.response_load_factor.is_finite() || plan.response_load_factor < 0.0 {
            return Err(format!(
                "plan.response_load_factor must be finite and non-negative, got {}",
                plan.response_load_factor
            ));
        }
        match plan.extra_hop_budget {
            Some(e) if e.is_nan() || e < 0.0 => {
                return Err(format!(
                    "plan.extra_hop_budget must be non-negative, got {e}"
                ));
            }
            Some(e) if e.is_infinite() => {
                return Err(format!(
                    "plan.extra_hop_budget must be finite (null derives 20 % of the \
                     arrival rate), got {e}"
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Checks every fault target against this configuration's topology
    /// and server count (the plan's own invariants are
    /// [`FaultPlan::validate`]'s job).
    fn validate_fault_targets(&self, plan: &FaultPlan) -> Result<(), String> {
        let hosts = self.arity * self.arity * self.arity / 4;
        // ToRs + aggs + cores of a k-ary fat-tree.
        let switches =
            self.arity * self.arity / 2 + self.arity * self.arity / 2 + self.arity * self.arity / 4;
        // A server's mean service time under a slowdown is its current
        // mode's mean divided by the factor, in whole nanoseconds.
        let fastest =
            Bimodal::new(self.server.base_service_time, self.server.fluctuation_range).fast();
        let check_link = |i: usize, link: LinkRef| match link {
            LinkRef::HostUplink { host } if host >= hosts => {
                Err(format!("fault {i}: host {host} out of range (< {hosts})"))
            }
            LinkRef::SwitchLink { a, b } if a >= switches || b >= switches => Err(format!(
                "fault {i}: switch link {a}-{b} out of range (< {switches})"
            )),
            _ => Ok(()),
        };
        for (i, ev) in plan.events.iter().enumerate() {
            match ev.fault {
                FaultEvent::ServerSlowdown { factor, .. }
                    if !factor.is_finite()
                        || fastest.mul_f64(1.0 / factor) == SimDuration::ZERO =>
                {
                    return Err(format!(
                        "fault {i}: server slowdown factor must be finite and keep the \
                         fastest mean service time ({} ns) above 0 ns, got {factor}",
                        fastest.as_nanos()
                    ));
                }
                FaultEvent::ServerCrash { server }
                | FaultEvent::ServerRecover { server }
                | FaultEvent::ServerSlowdown { server, .. } => {
                    if server >= self.servers {
                        return Err(format!(
                            "fault {i}: server {server} out of range (< {})",
                            self.servers
                        ));
                    }
                }
                FaultEvent::LinkFail { link }
                | FaultEvent::LinkDegrade { link, .. }
                | FaultEvent::LinkRecover { link } => check_link(i, link)?,
                FaultEvent::OperatorFail { switch } | FaultEvent::OperatorRecover { switch } => {
                    if switch >= switches {
                        return Err(format!(
                            "fault {i}: switch {switch} out of range (< {switches})"
                        ));
                    }
                }
                FaultEvent::PacketLossBurst { .. } => {}
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arrival_rate_matches_formula() {
        // A = 0.9 * 100 * 4 / 4ms = 90,000 requests/second.
        let cfg = SimConfig::paper();
        assert!((cfg.arrival_rate() - 90_000.0).abs() < 1e-6);
    }

    #[test]
    fn finalize_sets_hop_budget_to_20_percent() {
        let cfg = SimConfig::paper().finalize();
        assert!((cfg.plan.extra_hop_budget.unwrap() - 18_000.0).abs() < 1e-6);
        // An explicit budget is preserved.
        let mut cfg = SimConfig::paper();
        cfg.plan.extra_hop_budget = Some(5.0);
        assert_eq!(cfg.finalize().plan.extra_hop_budget, Some(5.0));
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(SimConfig::paper().validate().is_ok());
        assert!(SimConfig::small().validate().is_ok());

        let mut too_many = SimConfig::small();
        too_many.clients = 100;
        assert!(too_many.validate().unwrap_err().contains("hosts"));

        let mut low_rep = SimConfig::small();
        low_rep.servers = 2;
        assert!(low_rep.validate().unwrap_err().contains("replication"));

        let mut bad_skew = SimConfig::small();
        bad_skew.demand_skew = Some(1.5);
        assert!(bad_skew.validate().is_err());

        let mut bad_warm = SimConfig::small();
        bad_warm.warmup_fraction = 2.0;
        assert!(bad_warm.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_rates_and_capacities() {
        let bad: [fn(&mut SimConfig); 8] = [
            |c| c.utilization = f64::NAN,
            |c| c.utilization = f64::INFINITY,
            |c| c.plan.max_utilization = f64::NAN,
            |c| c.plan.max_utilization = f64::INFINITY,
            |c| {
                c.plan.capacity_overrides.insert(0, f64::INFINITY);
            },
            |c| c.plan.response_load_factor = f64::NAN,
            |c| c.plan.extra_hop_budget = Some(f64::NAN),
            |c| c.plan.extra_hop_budget = Some(f64::INFINITY),
        ];
        for (i, edit) in bad.into_iter().enumerate() {
            let mut cfg = SimConfig::small();
            edit(&mut cfg);
            assert!(cfg.validate().is_err(), "case {i}");
        }
        let mut cfg = SimConfig::small();
        cfg.plan.extra_hop_budget = None;
        cfg.plan.response_load_factor = 0.0;
        assert!(cfg.validate().is_ok(), "an unset hop budget stays legal");
    }

    #[test]
    fn validation_rejects_zero_servers() {
        let mut cfg = SimConfig::small();
        cfg.servers = 0;
        cfg.replication = 0; // slip past the replication-vs-servers check
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::small();
        cfg.servers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_replication() {
        let mut cfg = SimConfig::small();
        cfg.replication = 0;
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("replication factor must be at least 1"));
    }

    #[test]
    fn validation_rejects_zero_generators_and_clients() {
        let mut cfg = SimConfig::small();
        cfg.generators = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::small();
        cfg.clients = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_skew_with_one_client() {
        let mut cfg = SimConfig::small();
        cfg.clients = 1;
        cfg.demand_skew = Some(0.5);
        let msg = cfg.validate().unwrap_err();
        assert!(
            msg.contains("0.5") && msg.contains("got 1"),
            "names both values: {msg}"
        );
        cfg.demand_skew = None;
        assert!(cfg.validate().is_ok(), "one client without skew is fine");
        cfg.clients = 2;
        cfg.demand_skew = Some(0.5);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_inconsistent_r95() {
        for (quantile, min_samples) in [(0.0, 30), (1.0, 30), (-0.5, 30), (1.5, 30), (0.95, 0)] {
            let mut cfg = SimConfig::small();
            cfg.r95 = R95Config {
                quantile,
                min_samples,
            };
            assert!(
                cfg.validate().unwrap_err().contains("R95"),
                "quantile {quantile} / min_samples {min_samples} should be rejected"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_overload_policy() {
        let mut cfg = SimConfig::small();
        cfg.overload = Some(OverloadPolicy {
            interval: SimDuration::ZERO,
            utilization_limit: 0.9,
        });
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::small();
        cfg.overload = Some(OverloadPolicy {
            interval: SimDuration::from_millis(100),
            utilization_limit: 0.0,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scheme_parse_round_trips_with_display() {
        for scheme in Scheme::ALL {
            let parsed: Scheme = scheme.to_string().parse().unwrap();
            assert_eq!(parsed, scheme);
            // CLI-style lowercase labels parse too.
            let parsed: Scheme = scheme.label().to_ascii_lowercase().parse().unwrap();
            assert_eq!(parsed, scheme);
        }
        assert_eq!("netrs-tor".parse::<Scheme>(), Ok(Scheme::NetRsToR));
        let err = "paxos".parse::<Scheme>().unwrap_err();
        assert!(err.contains("unknown scheme 'paxos'"));
        assert!(err.contains("CliRS-R95"), "error lists valid labels: {err}");
    }

    #[test]
    fn scheme_labels_match_paper() {
        assert_eq!(Scheme::CliRs.label(), "CliRS");
        assert_eq!(Scheme::CliRsR95.label(), "CliRS-R95");
        assert_eq!(Scheme::NetRsToR.to_string(), "NetRS-ToR");
        assert_eq!(Scheme::NetRsIlp.to_string(), "NetRS-ILP");
        assert!(Scheme::NetRsIlp.is_in_network());
        assert!(!Scheme::CliRsR95.is_in_network());
    }

    #[test]
    fn config_serializes_round_trip() {
        // Unfinalized (the budget is `null`, to be derived) and finalized.
        for cfg in [
            SimConfig::paper(),
            SimConfig::small(),
            SimConfig::paper().finalize(),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: SimConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
        // The RW extension fields round-trip too.
        let mut cfg = SimConfig::small();
        cfg.write_fraction = 0.1;
        cfg.write_consistency = WriteConsistency::Quorum { w: 2 };
        cfg.hot_cache = Some(HotCacheConfig {
            capacity: 64,
            admission: CacheAdmission::Frequency { threshold: 2 },
            ..HotCacheConfig::default()
        });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn validation_rejects_bad_quorum_and_cache() {
        let mut cfg = SimConfig::small(); // replication 3
        cfg.write_consistency = WriteConsistency::Quorum { w: 0 };
        assert!(cfg.validate().unwrap_err().contains("quorum"));
        cfg.write_consistency = WriteConsistency::Quorum { w: 4 };
        assert!(cfg.validate().unwrap_err().contains("quorum"));
        cfg.write_consistency = WriteConsistency::Quorum { w: 3 };
        assert!(cfg.validate().is_ok());

        let mut cfg = SimConfig::small();
        cfg.hot_cache = Some(HotCacheConfig {
            capacity: 0,
            ..HotCacheConfig::default()
        });
        assert!(cfg.validate().unwrap_err().contains("capacity"));
        let mut cfg = SimConfig::small();
        cfg.hot_cache = Some(HotCacheConfig {
            admission: CacheAdmission::Frequency { threshold: 0 },
            ..HotCacheConfig::default()
        });
        assert!(cfg.validate().unwrap_err().contains("threshold"));
    }

    #[test]
    fn required_acks_clamps_to_group_size() {
        assert_eq!(WriteConsistency::All.required_acks(3), 3);
        assert_eq!(WriteConsistency::Chain.required_acks(3), 3);
        assert_eq!(WriteConsistency::Quorum { w: 2 }.required_acks(3), 2);
        assert_eq!(WriteConsistency::Quorum { w: 9 }.required_acks(3), 3);
        assert_eq!(WriteConsistency::Quorum { w: 0 }.required_acks(3), 1);
    }

    #[test]
    fn validation_checks_fault_targets_against_topology() {
        use netrs_faults::TimedFault;

        let with_fault = |fault: FaultEvent| {
            let mut cfg = SimConfig::small(); // arity 4: 16 hosts, 20 switches
            cfg.faults = Some(FaultPlan {
                events: vec![TimedFault {
                    at: SimDuration::from_millis(1),
                    fault,
                }],
                ..FaultPlan::default()
            });
            cfg
        };
        assert!(with_fault(FaultEvent::ServerCrash { server: 0 })
            .validate()
            .is_ok());
        assert!(with_fault(FaultEvent::ServerCrash { server: 6 })
            .validate()
            .unwrap_err()
            .contains("server 6"));
        assert!(with_fault(FaultEvent::LinkFail {
            link: LinkRef::HostUplink { host: 16 }
        })
        .validate()
        .unwrap_err()
        .contains("host 16"));
        assert!(with_fault(FaultEvent::LinkDegrade {
            link: LinkRef::SwitchLink { a: 0, b: 20 },
            factor: 2.0,
        })
        .validate()
        .unwrap_err()
        .contains("out of range"));
        assert!(with_fault(FaultEvent::OperatorFail { switch: 20 })
            .validate()
            .unwrap_err()
            .contains("switch 20"));
        // The plan's own invariants are checked through the same path.
        let mut cfg = SimConfig::small();
        cfg.faults = Some(FaultPlan {
            recovery_tolerance: 0.5,
            ..FaultPlan::default()
        });
        assert!(cfg.validate().unwrap_err().contains("tolerance"));
    }
}
