//! RSNode placement: the ILP of §III-B and its solvers.
//!
//! The decision variables are the paper's: `P[g][o] = 1` iff traffic
//! group `g` selects replicas at NetRS operator `o`, and `D[o] = 1` iff
//! operator `o` hosts any RSNode. The model is
//!
//! * **Objective (Eq. 1)** — minimize `Σ D[o]` (fewer RSNodes → fresher
//!   local information and less herd behaviour).
//! * **Eq. 4 / R matrix** — `P[g][o]` only exists where `o` lies on `g`'s
//!   default paths: `g`'s own ToR, the aggregation switches of `g`'s pod,
//!   or any core switch (encoded here by only *creating* variables for
//!   candidates, which also prunes the model).
//! * **Eq. 5** — every group has exactly one RSNode.
//! * **Eq. 3 (aggregated)** — `Σ_g P[g][o] ≤ n_o · D[o]` links assignment
//!   to opening, with `n_o` the operator's own candidate-group count (the
//!   tightest big-M that admits every integer solution); the aggregation
//!   keeps the row count linear. Zero-load groups depend on this row
//!   alone.
//! * **Eq. 6** — operator load (group request rates, optionally doubled
//!   for response clones, which share the accelerator) within
//!   `U·c/t` capacity, written as the variable-upper-bound row
//!   `Σ_g load_g · P[g][o] ≤ cap_o · D[o]`: the same integer points, but
//!   the LP relaxation must now open `load/cap` of an operator to use it,
//!   so summing the rows gives the cover bound
//!   `Σ_o cap_o · D[o] ≥ Σ_g load_g` and the root bound tracks the load.
//! * **Eq. 7** — total extra forwarding hops within the budget `E`, with
//!   the per-tier hop cost of [`netrs_topology::extra_hops`].
//!
//! Core switches are interchangeable in the model (every `R[g][core]` is
//! 1 and capacities are uniform), so the builder applies symmetry
//! reduction: only as many core candidates as could ever be needed are
//! instantiated.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use netrs_ilp::{BranchAndBound, IlpError, Problem, Sense, VarId};
use netrs_netdev::{AcceleratorConfig, GroupId};
use netrs_topology::{extra_hops, FatTree, SwitchId, Tier};
use serde::{Deserialize, Serialize};

use crate::group::TrafficGroups;
use crate::traffic::TrafficMatrix;

/// The `P` variables of the placement ILP: one `(group, operator,
/// variable)` triple per legal assignment.
pub type AssignmentVars = Vec<(GroupId, SwitchId, VarId)>;

/// The constraint parameters of the placement problem (paper defaults in
/// [`Default`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanConstraints {
    /// Maximum accelerator utilization `U` (Constraint 2; paper: 50 %).
    pub max_utilization: f64,
    /// The accelerator model on every operator.
    pub accelerator: AcceleratorConfig,
    /// Absolute per-operator task-rate caps overriding the uniform
    /// `U·c/t` capacity — the paper's shared-accelerator scenario where
    /// administrators give each accelerator its own threshold.
    pub capacity_overrides: HashMap<u32, f64>,
    /// Extra-hop budget `E` in hops/second (Constraint 3; the paper uses
    /// 20 % of the aggregate request rate `A`); `None` leaves detours
    /// unbounded.
    pub extra_hop_budget: Option<f64>,
    /// Additional accelerator load per request for the cloned response
    /// the selector must also process (1.0 = every request produces one
    /// clone task; 0.0 reproduces the paper's request-only Eq. 6).
    pub response_load_factor: f64,
    /// Cap on instantiated core-switch candidates (0 = automatic: just
    /// enough cores to carry the whole load, plus slack).
    pub core_candidates: u32,
    /// Accelerator-sharing sets `J` (§III-B's cost-cutting variant where
    /// one accelerator connects to several switches): the *summed* load
    /// of each set's switches must stay within the set's capacity. Each
    /// entry is `(switch ids, shared capacity in tasks/second)`. Switches
    /// may appear in at most one set; unlisted switches keep their own
    /// accelerator.
    pub shared_accelerators: Vec<(Vec<u32>, f64)>,
}

impl Default for PlanConstraints {
    fn default() -> Self {
        PlanConstraints {
            max_utilization: 0.5,
            accelerator: AcceleratorConfig::default(),
            capacity_overrides: HashMap::new(),
            extra_hop_budget: None,
            response_load_factor: 1.0,
            core_candidates: 0,
            shared_accelerators: Vec::new(),
        }
    }
}

/// Which algorithm produces the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSolver {
    /// Branch-and-bound to proven optimality (small instances).
    Exact {
        /// Node budget before falling back to the best incumbent.
        node_limit: u64,
    },
    /// The capacity/hop-aware greedy heuristic only.
    Greedy,
    /// Greedy first, proven optimal outright when it meets the cover
    /// bound; otherwise branch-and-bound warm-started with the greedy
    /// plan under a node budget — the paper's "terminate solving early"
    /// mode.
    Auto {
        /// Node budget for the improvement phase.
        node_limit: u64,
    },
}

impl Default for PlanSolver {
    fn default() -> Self {
        PlanSolver::Auto { node_limit: 200 }
    }
}

/// Solver-effort metrics of one placement solve, surfaced to the
/// control-plane audit log.
///
/// Every field is a *deterministic* function of the model and solver
/// configuration — deliberately no wall-clock time, so audit records
/// stay byte-identical across repeated runs of the same seed. Simplex
/// iterations plus branch-and-bound nodes are the solve-cost proxy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanSolveStats {
    /// Decision variables of the (last) solved ILP model; zero when the
    /// greedy heuristic produced the plan without building a model.
    pub variables: usize,
    /// Constraint rows of the (last) solved ILP model.
    pub constraints: usize,
    /// Simplex iterations summed over every LP solved (root and nodes,
    /// across DRS-degradation retries).
    pub lp_iterations: u64,
    /// Branch-and-bound nodes expanded, summed across retries.
    pub branch_nodes: u64,
    /// Objective value of the returned plan — the number of opened
    /// RSNodes (Eq. 1).
    pub objective: f64,
    /// Best proven lower bound on the optimum of the (last) solved ILP
    /// model; equals `objective` for a proven plan, zero when no model
    /// was solved.
    pub bound: f64,
    /// Whether the greedy heuristic produced the final assignment
    /// (pure-greedy solver, oversized Auto model, or budget fallback).
    pub greedy: bool,
}

/// A Replica Selection Plan: the output of the controller (§II).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Rsp {
    /// RSNode operator (by switch) of each assigned traffic group.
    pub assignment: BTreeMap<GroupId, SwitchId>,
    /// Groups running Degraded Replica Selection instead (§III-C).
    pub drs: BTreeSet<GroupId>,
    /// Whether the assignment was proven optimal by the solver.
    pub proven_optimal: bool,
}

impl Rsp {
    /// The distinct RSNode switches used by the plan.
    #[must_use]
    pub fn rsnodes(&self) -> BTreeSet<SwitchId> {
        self.assignment.values().copied().collect()
    }

    /// Number of RSNodes per tier `[core, agg, tor]` — the paper reports
    /// plans this way ("6 RSNodes on aggregation switches and 1 RSNode on
    /// a core switch").
    #[must_use]
    pub fn tier_census(&self, topo: &FatTree) -> [usize; 3] {
        let mut census = [0usize; 3];
        for sw in self.rsnodes() {
            census[topo.tier(sw).id() as usize] += 1;
        }
        census
    }

    /// The trivial NetRS-ToR plan: every group's RSNode is its own ToR
    /// switch (the paper's straightforward baseline RSP).
    #[must_use]
    pub fn tor_plan(groups: &TrafficGroups) -> Rsp {
        Rsp {
            assignment: groups.iter().map(|g| (g.id, g.tor)).collect(),
            drs: BTreeSet::new(),
            proven_optimal: false,
        }
    }
}

/// The structured difference between two consecutive [`Rsp`]s — what a
/// plan event actually changed, for the control-plane audit log. Every
/// list is in ascending id order (the plans are `BTreeMap`/`BTreeSet`
/// based), so the diff is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanDiff {
    /// Groups assigned in both plans but moved to a different operator.
    pub reassigned: Vec<GroupId>,
    /// Groups that gained an operator (previously DRS or absent).
    pub newly_assigned: Vec<GroupId>,
    /// Groups that lost their operator (now DRS or absent).
    pub unassigned: Vec<GroupId>,
    /// Switches hosting an RSNode only in the new plan.
    pub rsnodes_added: Vec<SwitchId>,
    /// Switches hosting an RSNode only in the old plan.
    pub rsnodes_removed: Vec<SwitchId>,
}

impl PlanDiff {
    /// Computes the diff from `old` to `new`.
    #[must_use]
    pub fn between(old: &Rsp, new: &Rsp) -> PlanDiff {
        let mut diff = PlanDiff::default();
        for (&g, &sw) in &new.assignment {
            match old.assignment.get(&g) {
                Some(&prev) if prev != sw => diff.reassigned.push(g),
                Some(_) => {}
                None => diff.newly_assigned.push(g),
            }
        }
        for &g in old.assignment.keys() {
            if !new.assignment.contains_key(&g) {
                diff.unassigned.push(g);
            }
        }
        let old_nodes = old.rsnodes();
        let new_nodes = new.rsnodes();
        diff.rsnodes_added = new_nodes.difference(&old_nodes).copied().collect();
        diff.rsnodes_removed = old_nodes.difference(&new_nodes).copied().collect();
        diff
    }

    /// Total groups whose steering changed.
    #[must_use]
    pub fn groups_touched(&self) -> usize {
        self.reassigned.len() + self.newly_assigned.len() + self.unassigned.len()
    }

    /// Whether the two plans steer identically.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups_touched() == 0
            && self.rsnodes_added.is_empty()
            && self.rsnodes_removed.is_empty()
    }
}

/// The RSNode placement problem for one topology/workload.
#[derive(Debug)]
pub struct PlacementProblem<'a> {
    topo: &'a FatTree,
    groups: &'a TrafficGroups,
    traffic: &'a TrafficMatrix,
    cons: &'a PlanConstraints,
    /// Each group's candidate operators (the R-matrix row), computed once.
    cands: Vec<Vec<SwitchId>>,
}

/// The `(group, candidate)` pairs of a set of groups regrouped by
/// operator: a counting sort over switch ids. Pair `p` is the `p`-th in
/// group-major order (the order of the `P` variables), so each switch's
/// pairs come in ascending group order.
struct OperatorIndex {
    /// Switch id `s`'s pairs are `pairs[start[s]..start[s + 1]]`.
    start: Vec<usize>,
    /// `(group, pair position)`.
    pairs: Vec<(GroupId, usize)>,
}

impl OperatorIndex {
    /// The switches with at least one pair, in ascending id order (the
    /// candidate universe), each with its pair range.
    fn operators(&self) -> impl Iterator<Item = (SwitchId, std::ops::Range<usize>)> + '_ {
        self.start
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(sw, w)| (SwitchId(sw as u32), w[0]..w[1]))
    }
}

impl<'a> PlacementProblem<'a> {
    /// Creates the problem.
    ///
    /// # Panics
    ///
    /// Panics if the traffic matrix does not cover every group.
    #[must_use]
    pub fn new(
        topo: &'a FatTree,
        groups: &'a TrafficGroups,
        traffic: &'a TrafficMatrix,
        cons: &'a PlanConstraints,
    ) -> Self {
        assert_eq!(
            traffic.len(),
            groups.len(),
            "traffic matrix must cover every group"
        );
        let mut problem = PlacementProblem {
            topo,
            groups,
            traffic,
            cons,
            cands: Vec::new(),
        };
        // The R-matrix rules of §III-B: own ToR, own-pod aggregation
        // switches, core switches (symmetry-reduced).
        let cores = problem.core_candidate_count();
        problem.cands = groups
            .iter()
            .map(|info| {
                let pod = topo
                    .pod_of_switch(info.tor)
                    .expect("group ToRs always have a pod");
                std::iter::once(info.tor)
                    .chain((0..topo.arity() / 2).map(|i| topo.agg(pod, i)))
                    .chain((0..cores).map(|c| topo.core(c)))
                    .collect()
            })
            .collect();
        problem
    }

    /// Excludes operators (e.g. failed devices) from candidacy.
    #[must_use]
    pub fn without_operators(mut self, excluded: impl IntoIterator<Item = SwitchId>) -> Self {
        let excluded: BTreeSet<SwitchId> = excluded.into_iter().collect();
        for cands in &mut self.cands {
            cands.retain(|sw| !excluded.contains(sw));
        }
        self
    }

    /// The accelerator task-rate capacity of an operator (`U·c/t`, or its
    /// administrator override).
    #[must_use]
    pub fn capacity_of(&self, sw: SwitchId) -> f64 {
        self.cons.capacity_overrides.get(&sw.0).copied().unwrap_or(
            self.cons
                .accelerator
                .capacity_at_utilization(self.cons.max_utilization),
        )
    }

    /// A group's accelerator load in tasks/second (requests plus cloned
    /// responses).
    #[must_use]
    pub fn load_of(&self, g: GroupId) -> f64 {
        self.traffic.group_total(g) * (1.0 + self.cons.response_load_factor)
    }

    /// Extra forwarding hops per second incurred if group `g` uses the
    /// operator at `sw` (Eq. 7 terms).
    #[must_use]
    pub fn extra_hop_rate(&self, g: GroupId, sw: SwitchId) -> f64 {
        let rsnode_tier = self.topo.tier(sw);
        let rates = self.traffic.tier_rates(g);
        Tier::ALL
            .into_iter()
            .map(|traffic_tier| {
                f64::from(extra_hops(traffic_tier, rsnode_tier)) * rates[traffic_tier.id() as usize]
            })
            .sum()
    }

    /// How many core-switch candidates the model instantiates.
    fn core_candidate_count(&self) -> u32 {
        if self.cons.core_candidates > 0 {
            return self.cons.core_candidates.min(self.topo.num_cores());
        }
        // Enough cores to absorb the entire load, plus one slack.
        let total_load: f64 = (0..self.groups.len() as GroupId)
            .map(|g| self.load_of(g))
            .sum();
        let core_cap = self.capacity_of(self.topo.core(0)).max(1e-9);
        let needed = (total_load / core_cap).ceil() as u32 + 1;
        needed.clamp(1, self.topo.num_cores())
    }

    /// The candidate operators of a group, per the R-matrix rules of
    /// §III-B: own ToR, own-pod aggregation switches, core switches
    /// (symmetry-reduced), minus excluded devices.
    #[must_use]
    pub fn candidates(&self, g: GroupId) -> &[SwitchId] {
        &self.cands[g as usize]
    }

    /// Every group's accelerator load, by group id.
    fn loads(&self) -> Vec<f64> {
        (0..self.groups.len() as GroupId)
            .map(|g| self.load_of(g))
            .collect()
    }

    /// The candidate pairs of `active` (ascending group ids) by operator.
    fn operator_index(&self, active: &[GroupId]) -> OperatorIndex {
        let mut start = vec![0; self.topo.num_switches() as usize + 1];
        for &g in active {
            for sw in self.candidates(g) {
                start[sw.0 as usize + 1] += 1;
            }
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut next = start.clone();
        let mut pairs = vec![(0, 0); *start.last().expect("non-empty offsets")];
        let mut p = 0;
        for &g in active {
            for sw in self.candidates(g) {
                let at = &mut next[sw.0 as usize];
                pairs[*at] = (g, p);
                *at += 1;
                p += 1;
            }
        }
        OperatorIndex { start, pairs }
    }

    /// Builds the ILP over the groups *not* in `drs`. Returns the model
    /// and the variable maps (`P` variables as `(group, operator, var)`
    /// triples and `D` variables per operator).
    #[must_use]
    pub fn to_ilp(
        &self,
        drs: &BTreeSet<GroupId>,
    ) -> (Problem, AssignmentVars, BTreeMap<SwitchId, VarId>) {
        let mut p = Problem::minimize();
        let active: Vec<GroupId> = (0..self.groups.len() as GroupId)
            .filter(|g| !drs.contains(g))
            .collect();
        let loads = self.loads();

        // D variables first (cost 1 each, Eq. 1), numbered in order of
        // first appearance, then P variables (cost 0) for each (group,
        // candidate) pair — Eq. 4 by construction.
        let mut dvar_of = vec![VarId::MAX; self.topo.num_switches() as usize];
        for &g in &active {
            for sw in self.candidates(g) {
                if dvar_of[sw.0 as usize] == VarId::MAX {
                    dvar_of[sw.0 as usize] = p.add_binary(1.0);
                }
            }
        }
        let pairs = active.iter().map(|&g| self.candidates(g).len()).sum();
        let mut pvars: AssignmentVars = Vec::with_capacity(pairs);
        for &g in &active {
            for &sw in self.candidates(g) {
                pvars.push((g, sw, p.add_binary(0.0)));
            }
        }

        // Eq. 5: exactly one RSNode per group — its P variables are
        // consecutive.
        let mut first = 0;
        for &g in &active {
            let n = self.candidates(g).len();
            if n > 0 {
                let terms = pvars[first..first + n].iter().map(|&(_, _, v)| (v, 1.0));
                p.add_constraint(terms, Sense::Eq, 1.0);
            }
            first += n;
        }

        let index = self.operator_index(&active);
        for (sw, range) in index.operators() {
            let assigned = &index.pairs[range];
            let dv = dvar_of[sw.0 as usize];
            // Eq. 3 (aggregated linking), with the operator's own
            // candidate-group count as the big-M.
            let link = assigned
                .iter()
                .map(|&(_, at)| (pvars[at].2, 1.0))
                .chain(std::iter::once((dv, -(assigned.len() as f64))));
            p.add_constraint(link, Sense::Le, 0.0);
            // Eq. 6 (capacity) as a variable upper bound: an operator
            // offers its capacity only as far as it is opened.
            let cap_terms = assigned
                .iter()
                .map(|&(g, at)| (pvars[at].2, loads[g as usize]))
                .chain(std::iter::once((dv, -self.capacity_of(sw))));
            p.add_constraint(cap_terms, Sense::Le, 0.0);
        }

        // §III-B's shared-accelerator variant of Eq. 6: the summed load
        // of all switches wired to one accelerator stays within that
        // accelerator's capacity.
        let mut member = vec![false; dvar_of.len()];
        for (set, cap) in &self.cons.shared_accelerators {
            for &sw in set {
                if let Some(m) = member.get_mut(sw as usize) {
                    *m = true;
                }
            }
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .filter(|&&(_, sw, _)| member[sw.0 as usize])
                .map(|&(g, _, v)| (v, loads[g as usize]))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Sense::Le, *cap);
            }
            member.fill(false);
        }

        // Eq. 7 (global extra-hop budget), only if bounded.
        if let Some(budget) = self.cons.extra_hop_budget {
            let terms = pvars
                .iter()
                .map(|&(g, sw, v)| (v, self.extra_hop_rate(g, sw)))
                .filter(|&(_, c)| c > 0.0);
            p.add_constraint(terms, Sense::Le, budget);
        }

        let dvars = dvar_of
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != VarId::MAX)
            .map(|(sw, &v)| (SwitchId(sw as u32), v))
            .collect();
        (p, pvars, dvars)
    }

    /// The cover bound on the optimum of [`PlacementProblem::to_ilp`]`(drs)`,
    /// whose operators are `dvars`' keys. Summing Eq. 6 over the opened
    /// operators gives `Σ_o cap_o · D[o] ≥ Σ_g load_g`, so at least
    /// `⌈Σ_g load_g ÷ max_o cap_o⌉` of them open, and Eq. 5 with Eq. 3
    /// opens one while any group has a candidate. Zero when none has.
    fn cover_bound(&self, drs: &BTreeSet<GroupId>, dvars: &BTreeMap<SwitchId, VarId>) -> f64 {
        let mut placed = (0..self.groups.len() as GroupId)
            .filter(|&g| !drs.contains(&g) && !self.candidates(g).is_empty())
            .peekable();
        if placed.peek().is_none() {
            return 0.0;
        }
        let load: f64 = placed.map(|g| self.load_of(g)).sum();
        let cap = dvars
            .keys()
            .map(|&sw| self.capacity_of(sw))
            .fold(0.0, f64::max);
        if cap > 0.0 {
            (load / cap - 1e-6).ceil().max(1.0)
        } else {
            1.0
        }
    }

    /// The greedy heuristic: repeatedly open (or extend) the operator
    /// that absorbs the most remaining load within its capacity (own and
    /// shared-accelerator, if any) and the global hop budget; groups
    /// nothing can absorb fall back to DRS — highest-traffic groups are
    /// preferred for DRS exactly as §III-C prescribes.
    ///
    /// Each operator offers its candidate groups cheap-hop, heavy first:
    /// that order never changes, so it is sorted once, and a round walks
    /// every operator's list skipping the groups already placed.
    #[must_use]
    pub fn solve_greedy(&self) -> Rsp {
        let n_groups = self.groups.len();
        let all: Vec<GroupId> = (0..n_groups as GroupId).collect();
        let index = self.operator_index(&all);
        let loads = self.loads();
        // Each operator's takers as `(group, extra-hop rate, load)`,
        // stably sorted by `(extra-hop rate, −load)` from ascending group
        // order.
        let mut takers: Vec<(GroupId, f64, f64)> = index
            .pairs
            .iter()
            .map(|&(g, _)| (g, 0.0, loads[g as usize]))
            .collect();
        for (sw, range) in index.operators() {
            let list = &mut takers[range];
            for t in list.iter_mut() {
                t.1 = self.extra_hop_rate(t.0, sw);
            }
            list.sort_by(|a, b| {
                (a.1, -a.2)
                    .partial_cmp(&(b.1, -b.2))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        let n_switches = self.topo.num_switches() as usize;
        let mut cap_left: Vec<f64> = (0..n_switches as u32)
            .map(|sw| self.capacity_of(SwitchId(sw)))
            .collect();
        // The first shared-accelerator set each switch belongs to.
        let mut shared_of = vec![usize::MAX; n_switches];
        for (i, (set, _)) in self.cons.shared_accelerators.iter().enumerate() {
            for &sw in set {
                if let Some(slot) = shared_of.get_mut(sw as usize) {
                    if *slot == usize::MAX {
                        *slot = i;
                    }
                }
            }
        }
        let mut shared_left: Vec<f64> = self
            .cons
            .shared_accelerators
            .iter()
            .map(|&(_, cap)| cap)
            .collect();
        let mut opened = vec![false; n_switches];
        let mut remaining = vec![true; n_groups];
        let mut n_remaining = n_groups;
        let mut hops_left = self.cons.extra_hop_budget.unwrap_or(f64::INFINITY);
        let mut rsp = Rsp::default();
        let (mut taken, mut best_taken) = (Vec::new(), Vec::new());

        while n_remaining > 0 {
            // (taken load, already open, switch, hops used) of the best
            // operator so far; its groups are in `best_taken`.
            let mut best: Option<(f64, bool, SwitchId, f64)> = None;
            for (sw, range) in index.operators() {
                let s = sw.0 as usize;
                let mut cap = cap_left[s];
                if let Some(&shared) = shared_left.get(shared_of[s]) {
                    cap = cap.min(shared);
                }
                let mut hops = hops_left;
                taken.clear();
                let mut taken_load = 0.0;
                let mut hops_used = 0.0;
                for &(g, hr, load) in &takers[range] {
                    if remaining[g as usize] && load <= cap + 1e-9 && hr <= hops + 1e-9 {
                        cap -= load;
                        hops -= hr;
                        hops_used += hr;
                        taken_load += load;
                        taken.push(g);
                    }
                }
                if taken.is_empty() {
                    continue;
                }
                let already_open = opened[s];
                let better = match best {
                    None => true,
                    Some((bl, bo, ..)) => {
                        taken_load > bl + 1e-9
                            || ((taken_load - bl).abs() <= 1e-9 && already_open && !bo)
                    }
                };
                if better {
                    best = Some((taken_load, already_open, sw, hops_used));
                    std::mem::swap(&mut taken, &mut best_taken);
                }
            }

            match best {
                Some((_, _, sw, hops_used)) => {
                    let s = sw.0 as usize;
                    opened[s] = true;
                    for &g in &best_taken {
                        let load = loads[g as usize];
                        cap_left[s] -= load;
                        if let Some(shared) = shared_left.get_mut(shared_of[s]) {
                            *shared -= load;
                        }
                        remaining[g as usize] = false;
                        rsp.assignment.insert(g, sw);
                    }
                    n_remaining -= best_taken.len();
                    hops_left -= hops_used;
                }
                None => {
                    // Nothing can take anything: degrade the
                    // highest-traffic remaining group (§III-C).
                    let g = (0..n_groups)
                        .filter(|&g| remaining[g])
                        .max_by(|&a, &b| {
                            loads[a]
                                .partial_cmp(&loads[b])
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("remaining is non-empty");
                    remaining[g] = false;
                    n_remaining -= 1;
                    rsp.drs.insert(g as GroupId);
                }
            }
        }
        rsp
    }

    /// Solves the placement with the chosen solver. On an infeasible
    /// model the controller's DRS fallback kicks in: the highest-traffic
    /// group is degraded and the model re-solved, until feasible.
    #[must_use]
    pub fn solve(&self, solver: PlanSolver) -> Rsp {
        self.solve_with_stats(solver).0
    }

    /// A greedy plan plus the solve stats it deterministically implies.
    fn greedy_with_stats(&self, mut stats: PlanSolveStats) -> (Rsp, PlanSolveStats) {
        let rsp = self.solve_greedy();
        stats.greedy = true;
        stats.objective = rsp.rsnodes().len() as f64;
        (rsp, stats)
    }

    /// Like [`PlacementProblem::solve`], but also returns the
    /// [`PlanSolveStats`] of the solve for the control-plane audit log.
    #[must_use]
    pub fn solve_with_stats(&self, solver: PlanSolver) -> (Rsp, PlanSolveStats) {
        let mut stats = PlanSolveStats::default();
        if self.groups.is_empty() {
            return (Rsp::default(), stats);
        }
        let (node_limit, warm) = match solver {
            PlanSolver::Greedy => return self.greedy_with_stats(stats),
            PlanSolver::Exact { node_limit } => (node_limit, None),
            PlanSolver::Auto { node_limit } => {
                // The dense-simplex improvement phase pays off only while
                // the model stays moderate; past that the greedy plan IS
                // the anytime answer (the paper's early-termination mode).
                let model_size: usize = self.cands.iter().map(Vec::len).sum();
                if model_size > 2_500 {
                    return self.greedy_with_stats(stats);
                }
                (node_limit, Some(self.solve_greedy()))
            }
        };

        let bnb = BranchAndBound {
            node_limit,
            ..BranchAndBound::default()
        };
        let mut drs: BTreeSet<GroupId> = warm.as_ref().map(|w| w.drs.clone()).unwrap_or_default();
        loop {
            let (problem, pvars, dvars) = self.to_ilp(&drs);
            stats.variables = problem.num_vars();
            stats.constraints = problem.num_constraints();
            let warm_vec = warm.as_ref().map(|w| {
                let mut x = vec![0.0; problem.num_vars()];
                for &(g, sw, v) in &pvars {
                    if w.assignment.get(&g) == Some(&sw) {
                        x[v] = 1.0;
                        x[dvars[&sw]] = 1.0;
                    }
                }
                x
            });
            let plan = |values: &[f64], drs, proven_optimal| {
                let mut rsp = Rsp {
                    drs,
                    proven_optimal,
                    ..Rsp::default()
                };
                for &(g, sw, v) in &pvars {
                    if values[v] > 0.5 {
                        rsp.assignment.insert(g, sw);
                    }
                }
                rsp
            };
            if let Some(x) = warm_vec.as_deref() {
                // A warm start that meets the cover bound is optimal: the
                // proof branch-and-bound would reach at its root, without
                // building the tableau.
                let objective = problem.objective_value(x);
                let bound = self.cover_bound(&drs, &dvars);
                if objective <= bound + 1e-9 && problem.is_feasible(x, bnb.int_tol) {
                    stats.objective = objective;
                    stats.bound = bound;
                    return (plan(x, drs, true), stats);
                }
            }
            match bnb.solve_from(&problem, warm_vec.as_deref()) {
                Ok(sol) => {
                    stats.lp_iterations += sol.lp_iterations;
                    stats.branch_nodes += sol.nodes;
                    stats.objective = sol.objective;
                    stats.bound = sol.bound;
                    let proven = sol.status == netrs_ilp::IlpStatus::Optimal;
                    return (plan(&sol.values, drs, proven), stats);
                }
                Err(IlpError::BudgetExhausted) => {
                    // Only possible without a warm start (Exact mode with
                    // a tiny budget): fall back to the heuristic rather
                    // than degrading groups that may well be placeable.
                    return self.greedy_with_stats(stats);
                }
                Err(IlpError::Infeasible) => {
                    // §III-C(i): no feasible RSP — degrade the
                    // highest-traffic active group and retry.
                    let candidate = (0..self.groups.len() as GroupId)
                        .filter(|g| !drs.contains(g))
                        .max_by(|&a, &b| {
                            self.load_of(a)
                                .partial_cmp(&self.load_of(b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        });
                    match candidate {
                        Some(g) => {
                            drs.insert(g);
                        }
                        None => {
                            return (
                                Rsp {
                                    drs,
                                    ..Rsp::default()
                                },
                                stats,
                            )
                        }
                    }
                }
                Err(IlpError::Unbounded) => {
                    unreachable!("placement objective is non-negative")
                }
            }
        }
    }
}

#[cfg(test)]
impl PlacementProblem<'_> {
    /// The reference model build the per-operator index replaced: every
    /// row filters the whole `P` variable list.
    fn to_ilp_by_filter(
        &self,
        drs: &BTreeSet<GroupId>,
    ) -> (Problem, AssignmentVars, BTreeMap<SwitchId, VarId>) {
        let mut p = Problem::minimize();
        let mut pvars: AssignmentVars = Vec::new();
        let mut dvars: BTreeMap<SwitchId, VarId> = BTreeMap::new();
        let active: Vec<GroupId> = (0..self.groups.len() as GroupId)
            .filter(|g| !drs.contains(g))
            .collect();

        // D variables first (cost 1 each, Eq. 1), then P variables
        // (cost 0) for each (group, candidate) pair — Eq. 4 by
        // construction.
        for &g in &active {
            for &sw in self.candidates(g) {
                dvars.entry(sw).or_insert_with(|| p.add_binary(1.0));
            }
        }
        for &g in &active {
            for &sw in self.candidates(g) {
                let v = p.add_binary(0.0);
                pvars.push((g, sw, v));
            }
        }

        // Eq. 5: exactly one RSNode per group.
        for &g in &active {
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .filter(|&&(pg, _, _)| pg == g)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Sense::Eq, 1.0);
            }
        }

        for (&sw, &dv) in &dvars {
            let assigned: Vec<&(GroupId, SwitchId, VarId)> =
                pvars.iter().filter(|&&(_, s, _)| s == sw).collect();
            // Eq. 3 (aggregated linking), with the operator's own
            // candidate-group count as the big-M.
            let mut link: Vec<(VarId, f64)> = assigned.iter().map(|&&(_, _, v)| (v, 1.0)).collect();
            link.push((dv, -(assigned.len() as f64)));
            p.add_constraint(link, Sense::Le, 0.0);
            // Eq. 6 (capacity) as a variable upper bound: an operator
            // offers its capacity only as far as it is opened.
            let mut cap_terms: Vec<(VarId, f64)> = assigned
                .iter()
                .map(|&&(g, _, v)| (v, self.load_of(g)))
                .collect();
            cap_terms.push((dv, -self.capacity_of(sw)));
            p.add_constraint(cap_terms, Sense::Le, 0.0);
        }

        // §III-B's shared-accelerator variant of Eq. 6: the summed load
        // of all switches wired to one accelerator stays within that
        // accelerator's capacity.
        for (set, cap) in &self.cons.shared_accelerators {
            let members: BTreeSet<u32> = set.iter().copied().collect();
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .filter(|&&(_, sw, _)| members.contains(&sw.0))
                .map(|&(g, _, v)| (v, self.load_of(g)))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Sense::Le, *cap);
            }
        }

        // Eq. 7 (global extra-hop budget), only if bounded.
        if let Some(budget) = self.cons.extra_hop_budget {
            let terms: Vec<(VarId, f64)> = pvars
                .iter()
                .map(|&(g, sw, v)| (v, self.extra_hop_rate(g, sw)))
                .filter(|&(_, c)| c > 0.0)
                .collect();
            p.add_constraint(terms, Sense::Le, budget);
        }

        (p, pvars, dvars)
    }

    /// Index of the shared-accelerator set a switch belongs to, if any.
    fn shared_set_of(&self, sw: SwitchId) -> Option<usize> {
        self.cons
            .shared_accelerators
            .iter()
            .position(|(set, _)| set.contains(&sw.0))
    }

    /// The reference greedy the per-operator index replaced: every
    /// round rescans every remaining group's candidates for every
    /// operator.
    fn solve_greedy_by_rescan(&self) -> Rsp {
        let mut remaining: BTreeSet<GroupId> = (0..self.groups.len() as GroupId).collect();
        let mut cap_left: HashMap<SwitchId, f64> = HashMap::new();
        let mut shared_left: Vec<f64> = self
            .cons
            .shared_accelerators
            .iter()
            .map(|&(_, cap)| cap)
            .collect();
        let mut opened: BTreeSet<SwitchId> = BTreeSet::new();
        let mut hops_left = self.cons.extra_hop_budget.unwrap_or(f64::INFINITY);
        let mut rsp = Rsp::default();

        // Candidate operator universe.
        let mut universe: BTreeSet<SwitchId> = BTreeSet::new();
        for g in remaining.iter().copied() {
            universe.extend(self.candidates(g));
        }

        while !remaining.is_empty() {
            let mut best: Option<(f64, bool, SwitchId, Vec<GroupId>, f64)> = None;
            for &sw in &universe {
                let mut cap = *cap_left.entry(sw).or_insert_with(|| self.capacity_of(sw));
                if let Some(set) = self.shared_set_of(sw) {
                    cap = cap.min(shared_left[set]);
                }
                let mut hops = hops_left;
                // Absorb cheap-hop, heavy groups first.
                let mut takers: Vec<GroupId> = remaining
                    .iter()
                    .copied()
                    .filter(|&g| self.candidates(g).contains(&sw))
                    .collect();
                takers.sort_by(|&a, &b| {
                    let ka = (self.extra_hop_rate(a, sw), -self.load_of(a));
                    let kb = (self.extra_hop_rate(b, sw), -self.load_of(b));
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut taken = Vec::new();
                let mut taken_load = 0.0;
                let mut hops_used = 0.0;
                for g in takers {
                    let load = self.load_of(g);
                    let hr = self.extra_hop_rate(g, sw);
                    if load <= cap + 1e-9 && hr <= hops + 1e-9 {
                        cap -= load;
                        hops -= hr;
                        hops_used += hr;
                        taken_load += load;
                        taken.push(g);
                    }
                }
                if taken.is_empty() {
                    continue;
                }
                let already_open = opened.contains(&sw);
                let key = (taken_load, already_open, sw, taken, hops_used);
                let better = match &best {
                    None => true,
                    Some((bl, bo, ..)) => {
                        key.0 > *bl + 1e-9 || ((key.0 - *bl).abs() <= 1e-9 && key.1 && !bo)
                    }
                };
                if better {
                    best = Some(key);
                }
            }

            match best {
                Some((_, _, sw, taken, hops_used)) => {
                    opened.insert(sw);
                    let shared = self.shared_set_of(sw);
                    let cap = cap_left.get_mut(&sw).expect("entry created above");
                    for g in taken {
                        let load = self.load_of(g);
                        *cap -= load;
                        if let Some(set) = shared {
                            shared_left[set] -= load;
                        }
                        remaining.remove(&g);
                        rsp.assignment.insert(g, sw);
                    }
                    hops_left -= hops_used;
                }
                None => {
                    // Nothing can take anything: degrade the
                    // highest-traffic remaining group (§III-C).
                    let g = remaining
                        .iter()
                        .copied()
                        .max_by(|&a, &b| {
                            self.load_of(a)
                                .partial_cmp(&self.load_of(b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("remaining is non-empty");
                    remaining.remove(&g);
                    rsp.drs.insert(g);
                }
            }
        }
        rsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Granularity;
    use netrs_simcore::SimRng;
    use netrs_topology::HostId;

    fn setup(clients: &[u32], per_client_rate: f64) -> (FatTree, TrafficGroups, TrafficMatrix) {
        let topo = FatTree::new(4).unwrap();
        let hosts: Vec<HostId> = clients.iter().map(|&h| HostId(h)).collect();
        let groups = TrafficGroups::rack_level(&topo, &hosts);
        let servers: Vec<HostId> = (8..16).map(HostId).collect();
        let rates: Vec<(HostId, f64)> = hosts.iter().map(|&h| (h, per_client_rate)).collect();
        let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
        (topo, groups, traffic)
    }

    #[test]
    fn candidates_follow_r_matrix_rules() {
        let (topo, groups, traffic) = setup(&[0, 1], 100.0);
        let cons = PlanConstraints {
            core_candidates: 2,
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let cands = p.candidates(0);
        // Own ToR (switch 0), both pod-0 aggs, 2 core candidates.
        assert!(cands.contains(&topo.tor(0, 0)));
        assert!(cands.contains(&topo.agg(0, 0)));
        assert!(cands.contains(&topo.agg(0, 1)));
        assert!(cands.contains(&topo.core(0)));
        assert_eq!(cands.len(), 5);
        // Never a foreign pod's agg or a foreign ToR.
        assert!(!cands.contains(&topo.agg(1, 0)));
        assert!(!cands.contains(&topo.tor(1, 0)));
    }

    #[test]
    fn single_core_suffices_when_capacity_allows() {
        // Two client racks in pods 0 and 1, servers in pods 2 and 3:
        // all-cross-pod traffic, so one core RSNode covers both racks
        // with zero extra hops.
        let (topo, groups, traffic) = setup(&[0, 4], 100.0);
        let cons = PlanConstraints {
            extra_hop_budget: Some(0.0), // force on-path RSNodes only
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::Exact { node_limit: 10_000 });
        assert!(rsp.drs.is_empty());
        assert!(rsp.proven_optimal);
        assert_eq!(rsp.rsnodes().len(), 1, "one RSNode must suffice: {rsp:?}");
        let census = rsp.tier_census(&topo);
        assert_eq!(census[0], 1, "it must be a core switch: {census:?}");
    }

    #[test]
    fn capacity_forces_multiple_rsnodes() {
        let (topo, groups, traffic) = setup(&[0, 12], 100.0);
        // Each group loads 100 req/s * 2 (clones). Cap capacity at 250/s:
        // one operator cannot take both groups (2 * 200 = 400).
        let mut cons = PlanConstraints {
            extra_hop_budget: None,
            ..PlanConstraints::default()
        };
        for sw in topo.switches() {
            cons.capacity_overrides.insert(sw.0, 250.0);
        }
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::Exact { node_limit: 10_000 });
        assert!(rsp.drs.is_empty());
        assert_eq!(rsp.rsnodes().len(), 2, "{rsp:?}");
    }

    #[test]
    fn hop_budget_pushes_rsnodes_down_the_tree() {
        // One rack of clients with mostly rack-local traffic: with a zero
        // hop budget the RSNode must be the ToR itself.
        let topo = FatTree::new(4).unwrap();
        let hosts = [HostId(0)];
        let groups = TrafficGroups::rack_level(&topo, &hosts);
        let servers = [HostId(1)]; // same rack → all Tier-2 traffic
        let traffic = TrafficMatrix::oracle(&topo, &groups, &[(HostId(0), 100.0)], &servers);
        let cons = PlanConstraints {
            extra_hop_budget: Some(0.0),
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::Exact { node_limit: 1_000 });
        assert_eq!(rsp.assignment[&0], topo.tor(0, 0));

        // With budget for the detour, a core RSNode becomes legal too —
        // but minimizing count still gives 1 RSNode either way.
        let cons = PlanConstraints {
            extra_hop_budget: Some(1_000.0),
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::Exact { node_limit: 1_000 });
        assert_eq!(rsp.rsnodes().len(), 1);
    }

    #[test]
    fn infeasible_model_degrades_highest_traffic_group() {
        let (topo, groups, traffic) = setup(&[0, 12], 100.0);
        // Capacity too small for either group anywhere.
        let mut cons = PlanConstraints::default();
        for sw in topo.switches() {
            cons.capacity_overrides.insert(sw.0, 10.0);
        }
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::Exact { node_limit: 1_000 });
        assert_eq!(rsp.drs.len(), 2, "all groups must degrade: {rsp:?}");
        assert!(rsp.assignment.is_empty());
    }

    #[test]
    fn greedy_respects_capacity_and_covers_groups() {
        let (topo, groups, traffic) = setup(&[0, 1, 2, 3, 12, 13], 50.0);
        let cons = PlanConstraints::default();
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve_greedy();
        assert!(rsp.drs.is_empty());
        assert_eq!(rsp.assignment.len(), groups.len());
        // Per-operator load within capacity.
        let mut loads: HashMap<SwitchId, f64> = HashMap::new();
        for (&g, &sw) in &rsp.assignment {
            *loads.entry(sw).or_default() += p.load_of(g);
        }
        for (&sw, &load) in &loads {
            assert!(load <= p.capacity_of(sw) + 1e-6);
        }
    }

    #[test]
    fn auto_never_beats_exact_never_worse_than_greedy() {
        let (topo, groups, traffic) = setup(&[0, 1, 2, 4, 5, 12], 80.0);
        let mut cons = PlanConstraints::default();
        for sw in topo.switches() {
            cons.capacity_overrides.insert(sw.0, 400.0);
        }
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let greedy = p.solve_greedy();
        let auto = p.solve(PlanSolver::Auto { node_limit: 5_000 });
        let exact = p.solve(PlanSolver::Exact {
            node_limit: 100_000,
        });
        assert!(exact.proven_optimal);
        assert!(auto.rsnodes().len() <= greedy.rsnodes().len().max(1));
        assert!(exact.rsnodes().len() <= auto.rsnodes().len());
        assert!(auto.drs.is_empty() && exact.drs.is_empty());
    }

    #[test]
    fn excluded_operators_are_never_candidates() {
        let (topo, groups, traffic) = setup(&[0, 1], 100.0);
        let cons = PlanConstraints::default();
        let core0 = topo.core(0);
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons)
            .without_operators([core0, topo.tor(0, 0)]);
        for g in 0..groups.len() as GroupId {
            let cands = p.candidates(g);
            assert!(!cands.contains(&core0));
            assert!(!cands.contains(&topo.tor(0, 0)));
        }
        let rsp = p.solve(PlanSolver::Exact { node_limit: 1_000 });
        assert!(!rsp.rsnodes().contains(&core0));
    }

    #[test]
    fn tor_plan_maps_each_group_to_its_tor() {
        let (topo, groups, _) = setup(&[0, 1, 4, 12], 10.0);
        let rsp = Rsp::tor_plan(&groups);
        for info in groups.iter() {
            assert_eq!(rsp.assignment[&info.id], info.tor);
        }
        assert_eq!(rsp.tier_census(&topo)[2], rsp.rsnodes().len());
    }

    #[test]
    fn ilp_structure_matches_equations() {
        let (topo, groups, traffic) = setup(&[0, 12], 100.0);
        let cons = PlanConstraints {
            core_candidates: 1,
            extra_hop_budget: Some(500.0),
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let (ilp, pvars, dvars) = p.to_ilp(&BTreeSet::new());
        // 2 groups × (1 ToR + 2 aggs + 1 core) = 8 P vars; operators: 2
        // ToRs + 4 aggs + 1 shared core = 7 D vars.
        assert_eq!(pvars.len(), 8);
        assert_eq!(dvars.len(), 7);
        assert_eq!(ilp.num_vars(), 15);
        // Rows: 2 assignment + 7 linking + 7 capacity + 1 hop budget.
        assert_eq!(ilp.num_constraints(), 17);
    }

    #[test]
    fn solve_stats_are_plausible_for_the_exact_solver() {
        let (topo, groups, traffic) = setup(&[0, 1, 4, 12], 100.0);
        let cons = PlanConstraints::default();
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let (rsp, stats) = p.solve_with_stats(PlanSolver::Exact { node_limit: 10_000 });
        assert!(!stats.greedy);
        assert!(stats.variables > 0 && stats.constraints > 0);
        assert!(
            stats.lp_iterations > 0,
            "solving a non-trivial model must pivot at least once: {stats:?}"
        );
        // Eq. 1: D vars cost 1, P vars cost 0, so the objective IS the
        // number of opened RSNodes.
        assert!(
            (stats.objective - rsp.rsnodes().len() as f64).abs() < 1e-6,
            "objective {} vs {} RSNodes",
            stats.objective,
            rsp.rsnodes().len()
        );
        // The model sizes must match what to_ilp builds.
        let (ilp, _, _) = p.to_ilp(&rsp.drs);
        assert_eq!(stats.variables, ilp.num_vars());
        assert_eq!(stats.constraints, ilp.num_constraints());
    }

    #[test]
    fn solve_stats_flag_greedy_fallbacks() {
        let (topo, groups, traffic) = setup(&[0, 4], 100.0);
        let cons = PlanConstraints::default();
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let (rsp, stats) = p.solve_with_stats(PlanSolver::Greedy);
        assert!(stats.greedy);
        assert_eq!(stats.lp_iterations, 0);
        assert_eq!(stats.branch_nodes, 0);
        assert!((stats.objective - rsp.rsnodes().len() as f64).abs() < 1e-9);
        // Auto proves a greedy plan that meets the cover bound without
        // building the tableau: one core takes both cross-pod racks.
        let (auto_rsp, auto_stats) = p.solve_with_stats(PlanSolver::Auto { node_limit: 5_000 });
        assert!(!auto_stats.greedy);
        assert_eq!(
            auto_rsp,
            Rsp {
                proven_optimal: true,
                ..rsp
            }
        );
        assert_eq!((auto_stats.lp_iterations, auto_stats.branch_nodes), (0, 0));
        assert_eq!((auto_stats.objective, auto_stats.bound), (1.0, 1.0));

        // Rack-local traffic under a zero hop budget pins each rack to its
        // own ToR: two RSNodes against a cover bound of one, so Auto runs
        // the ILP and reports its effort.
        let topo = FatTree::new(4).unwrap();
        let hosts = [HostId(0), HostId(4)];
        let groups = TrafficGroups::rack_level(&topo, &hosts);
        let rates = [(HostId(0), 100.0), (HostId(4), 100.0)];
        let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &[HostId(1), HostId(5)]);
        let cons = PlanConstraints {
            extra_hop_budget: Some(0.0),
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let (auto_rsp, auto_stats) = p.solve_with_stats(PlanSolver::Auto { node_limit: 5_000 });
        assert!(!auto_stats.greedy);
        assert!(auto_stats.lp_iterations > 0, "{auto_stats:?}");
        assert!((auto_stats.objective - auto_rsp.rsnodes().len() as f64).abs() < 1e-6);
        assert_eq!(auto_stats.objective, 2.0);
    }

    #[test]
    fn shared_accelerators_cap_the_set_sum() {
        // Two cross-pod client racks; wire the first two core switches to
        // ONE shared accelerator whose capacity fits only one group.
        let (topo, groups, traffic) = setup(&[0, 4], 100.0);
        // Per-group load = 100 * 2 = 200 tasks/s.
        let shared_cores = vec![topo.core(0).0, topo.core(1).0];
        let cons = PlanConstraints {
            core_candidates: 2,
            shared_accelerators: vec![(shared_cores.clone(), 250.0)],
            ..PlanConstraints::default()
        };
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        for solver in [PlanSolver::Greedy, PlanSolver::Exact { node_limit: 10_000 }] {
            let rsp = p.solve(solver);
            assert!(rsp.drs.is_empty(), "{solver:?}: {rsp:?}");
            // Verify: total load assigned to switches of the shared set
            // stays within the shared capacity.
            let shared_load: f64 = rsp
                .assignment
                .iter()
                .filter(|&(_, sw)| shared_cores.contains(&sw.0))
                .map(|(&g, _)| p.load_of(g))
                .sum();
            assert!(
                shared_load <= 250.0 + 1e-6,
                "{solver:?}: shared set overloaded with {shared_load}"
            );
        }
        // Without the shared set, one core would take both groups; with
        // it, the exact solver must split or move off the shared cores.
        let unconstrained = PlanConstraints {
            core_candidates: 2,
            ..PlanConstraints::default()
        };
        let p2 = PlacementProblem::new(&topo, &groups, &traffic, &unconstrained);
        let rsp2 = p2.solve(PlanSolver::Exact { node_limit: 10_000 });
        assert_eq!(
            rsp2.rsnodes().len(),
            1,
            "sanity: unconstrained uses one core"
        );
    }

    /// `clients` and `servers` on distinct random hosts of a k-ary tree.
    fn random_deployment(
        arity: u32,
        servers: usize,
        clients: usize,
        seed: u64,
    ) -> (FatTree, Vec<HostId>, Vec<HostId>) {
        let topo = FatTree::new(arity).unwrap();
        let mut rng = SimRng::from_seed(seed);
        let picks = rng.sample_indices(topo.num_hosts() as usize, servers + clients);
        let hosts: Vec<HostId> = picks.into_iter().map(|h| HostId(h as u32)).collect();
        let (s, c) = hosts.split_at(servers);
        (topo, s.to_vec(), c.to_vec())
    }

    type Instance = (FatTree, TrafficGroups, TrafficMatrix, PlanConstraints);

    /// The random arity-4 and arity-8 instances of the planner suite's
    /// `cover_bound_never_exceeds_the_exact_optimum`, drawn the same way.
    fn cover_bound_instances() -> Vec<Instance> {
        let mut rng = SimRng::from_seed(30);
        let mut out = Vec::new();
        for (arity, instances, servers, clients) in [(4, 24, 4, 6), (8, 8, 10, 12)] {
            for _ in 0..instances {
                let (topo, servers, clients) =
                    random_deployment(arity, servers, clients, rng.next_u64());
                let groups = TrafficGroups::rack_level(&topo, &clients);
                let rates: Vec<(HostId, f64)> = clients
                    .iter()
                    .map(|&h| (h, 50.0 + 450.0 * rng.f64()))
                    .collect();
                let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
                let mut cons = PlanConstraints {
                    extra_hop_budget: [Some(0.0), Some(200.0), Some(2_000.0), None][rng.index(4)],
                    ..PlanConstraints::default()
                };
                let heaviest = (0..groups.len() as u32)
                    .map(|g| traffic.group_total(g) * (1.0 + cons.response_load_factor))
                    .fold(0.0, f64::max);
                for sw in topo.switches() {
                    let cap = heaviest * (1.0 + 3.0 * rng.f64());
                    cons.capacity_overrides.insert(sw.0, cap);
                }
                out.push((topo, groups, traffic, cons));
            }
        }
        out
    }

    /// The greedy plan and the model (variables, rows, terms, bit for
    /// bit) against the reference builds, for several DRS sets.
    fn assert_same_as_reference(p: &PlacementProblem, at: &str) {
        let greedy = p.solve_greedy();
        assert_eq!(greedy, p.solve_greedy_by_rescan(), "{at}");
        let every_third = (0..p.groups.len() as GroupId).step_by(3).collect();
        for drs in [BTreeSet::new(), greedy.drs, every_third] {
            let (model, pvars, dvars) = p.to_ilp(&drs);
            let (want, want_pvars, want_dvars) = p.to_ilp_by_filter(&drs);
            assert_eq!(pvars, want_pvars, "{at}, drs {drs:?}");
            assert_eq!(dvars, want_dvars, "{at}, drs {drs:?}");
            assert_eq!(
                format!("{model:?}"),
                format!("{want:?}"),
                "{at}, drs {drs:?}"
            );
        }
    }

    #[test]
    fn operator_index_builds_equal_the_rescanning_references() {
        let mut rng = SimRng::from_seed(31);
        for (i, (topo, groups, traffic, cons)) in cover_bound_instances().iter().enumerate() {
            let at = format!("instance {i}");
            assert_same_as_reference(&PlacementProblem::new(topo, groups, traffic, cons), &at);

            // Shared accelerators: one set over two cores, one agg and an
            // id outside the tree, and a second set repeating a core.
            let heaviest = (0..groups.len() as GroupId)
                .map(|g| traffic.group_total(g) * 2.0)
                .fold(0.0, f64::max);
            let shared = PlanConstraints {
                shared_accelerators: vec![
                    (
                        vec![topo.core(0).0, topo.core(1).0, topo.agg(0, 0).0, 9_999],
                        heaviest * 1.5,
                    ),
                    (vec![topo.core(1).0, topo.core(2).0], heaviest * 2.5),
                ],
                ..cons.clone()
            };
            let p = PlacementProblem::new(topo, groups, traffic, &shared);
            assert_same_as_reference(&p, &format!("{at}, shared"));

            // Failed operators leave holes in the candidate lists.
            let excluded: Vec<SwitchId> = (0..3)
                .map(|_| SwitchId(rng.below(u64::from(topo.num_switches())) as u32))
                .collect();
            let p = PlacementProblem::new(topo, groups, traffic, cons)
                .without_operators(excluded.iter().copied());
            assert_same_as_reference(&p, &format!("{at}, without {excluded:?}"));
        }
    }

    #[test]
    fn operator_index_builds_equal_the_references_at_paper_scale() {
        // The RSP-EX instance (seed 2018) under its three scenarios, at
        // rack and host granularity.
        let (topo, servers, clients) = random_deployment(16, 100, 500, 2018);
        let a = 90_000.0;
        let rates: Vec<(HostId, f64)> = clients
            .iter()
            .map(|&h| (h, a / clients.len() as f64))
            .collect();
        let with_budget = |share: f64| PlanConstraints {
            extra_hop_budget: Some(share * a),
            ..PlanConstraints::default()
        };
        let mut small_accelerators = with_budget(0.2);
        for sw in topo.switches() {
            small_accelerators.capacity_overrides.insert(sw.0, 15_000.0);
        }
        let scenarios = [with_budget(0.2), with_budget(0.02), small_accelerators];
        for granularity in [Granularity::Rack, Granularity::Host] {
            let groups = TrafficGroups::build(&topo, &clients, granularity);
            let traffic = TrafficMatrix::oracle(&topo, &groups, &rates, &servers);
            for (i, cons) in scenarios.iter().enumerate() {
                let p = PlacementProblem::new(&topo, &groups, &traffic, cons);
                assert_same_as_reference(&p, &format!("{granularity:?} scenario {i}"));
            }
        }
    }

    #[test]
    fn empty_groups_produce_empty_plan() {
        let topo = FatTree::new(4).unwrap();
        let groups = TrafficGroups::rack_level(&topo, &[]);
        let traffic = TrafficMatrix::zero(0);
        let cons = PlanConstraints::default();
        let p = PlacementProblem::new(&topo, &groups, &traffic, &cons);
        let rsp = p.solve(PlanSolver::default());
        assert!(rsp.assignment.is_empty() && rsp.drs.is_empty());
    }
}
