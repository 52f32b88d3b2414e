//! Plunging best-first branch-and-bound over the binary variables.
//!
//! Each node fixes a subset of binaries through *bound changes* (the
//! bounded-variable simplex makes fixing free — no extra rows) and solves
//! the LP relaxation for a lower bound. A branched node *plunges*: the
//! child nearest its LP value is solved next, on the parent's live
//! tableau with one more variable fixed, so it costs a few dual simplex
//! pivots instead of a solve from scratch. When a dive ends (pruned,
//! infeasible or integral) the search jumps to the open node with the
//! best bound, so the proven bound still tightens; an optional node
//! budget turns the solver into the *anytime* optimizer the NetRS paper
//! asks for ("we could get a suboptimal solution to the ILP problem by
//! terminating the solving process early").
//!
//! When every non-zero cost is an integer on an integer variable, every
//! feasible objective is an integer and LP bounds are rounded up before
//! they prune — for a count-the-open-facilities objective this is what
//! lets an incumbent of `⌈LP⌉` be proven at the root.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::simplex::{LpSolution, LpStatus, Tableau};
use crate::Problem;

/// How a branch-and-bound run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpStatus {
    /// The returned solution is proven optimal.
    Optimal,
    /// The budget ran out; the returned solution is feasible but possibly
    /// suboptimal (the paper's early-termination mode).
    Feasible,
}

/// Why a branch-and-bound run produced no solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IlpError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The relaxation is unbounded (the integer problem is ill-posed).
    Unbounded,
    /// The budget ran out before *any* integer-feasible node was found.
    BudgetExhausted,
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "no integer-feasible solution exists"),
            IlpError::Unbounded => write!(f, "relaxation is unbounded"),
            IlpError::BudgetExhausted => {
                write!(
                    f,
                    "node budget exhausted before finding a feasible solution"
                )
            }
        }
    }
}

impl std::error::Error for IlpError {}

/// An integer solution.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Optimal or budget-limited feasible.
    pub status: IlpStatus,
    /// Variable values (binaries are exactly 0.0 or 1.0).
    pub values: Vec<f64>,
    /// Objective at `values`.
    pub objective: f64,
    /// Best proven lower bound on the optimum (equals `objective` when
    /// `status` is [`IlpStatus::Optimal`]).
    pub bound: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Simplex iterations summed across the root and every node LP.
    pub lp_iterations: u64,
}

impl IlpSolution {
    /// Relative optimality gap: `(objective − bound) / max(1, |objective|)`.
    #[must_use]
    pub fn gap(&self) -> f64 {
        (self.objective - self.bound).max(0.0) / self.objective.abs().max(1.0)
    }
}

/// Branch-and-bound configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchAndBound {
    /// Maximum nodes to expand before returning the incumbent
    /// (anytime mode). `u64::MAX` means run to optimality.
    pub node_limit: u64,
    /// Simplex iteration cap per node LP.
    pub lp_iteration_limit: u64,
    /// Integrality tolerance.
    pub int_tol: f64,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            node_limit: 200_000,
            lp_iteration_limit: 200_000,
            int_tol: 1e-6,
        }
    }
}

struct Node {
    bound: f64,
    depth: u32,
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.depth == other.depth
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: prefer the smallest bound, then the
        // deepest node (cheap incumbents from dives).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(self.depth.cmp(&other.depth))
    }
}

/// Whether every feasible objective of `p` is an integer: each non-zero
/// cost is an integer and sits on an integer variable.
fn objective_is_integral(p: &Problem) -> bool {
    p.objective()
        .iter()
        .zip(p.integrality())
        .all(|(&c, &is_int)| c == 0.0 || (is_int && c.fract() == 0.0))
}

impl BranchAndBound {
    /// Solves the 0/1 program.
    ///
    /// # Errors
    ///
    /// * [`IlpError::Infeasible`] — no integer point satisfies the model.
    /// * [`IlpError::Unbounded`] — the LP relaxation is unbounded below.
    /// * [`IlpError::BudgetExhausted`] — node budget hit with no incumbent.
    pub fn solve(&self, p: &Problem) -> Result<IlpSolution, IlpError> {
        self.solve_from(p, None)
    }

    /// The one node-solve routine. A node whose boxes lie inside the
    /// live tableau's (the plunge child of the node solved last, or that
    /// node itself) re-optimises it; any other node rebuilds from the
    /// crash basis, and so does one whose re-optimisation ran out of
    /// iterations. At most one tableau is alive at a time.
    fn solve_node(&self, p: &Problem, live: &mut Option<Tableau>, node: &Node) -> LpSolution {
        let limit = self.lp_iteration_limit;
        let reused = live
            .as_mut()
            .and_then(|tab| tab.tighten_and_reoptimize(p, &node.lower, &node.upper, limit));
        let mut spent = 0;
        if let Some(lp) = reused {
            match lp.status {
                LpStatus::Optimal => return lp,
                // A stalled dual proves nothing: retry from scratch.
                LpStatus::IterationLimit => spent = lp.iterations,
                _ => {
                    *live = None; // the tableau is spent
                    return lp;
                }
            }
        }
        *live = None; // free the old tableau before allocating the next
        let (mut lp, tab) = Tableau::solve(p, &node.lower, &node.upper, limit);
        lp.iterations += spent;
        *live = tab;
        lp
    }

    /// Like [`BranchAndBound::solve`], but warm-started with a known
    /// feasible point (e.g. from a heuristic). The incumbent immediately
    /// prunes every subtree that cannot beat it, which is what makes tiny
    /// node budgets useful on large placement models: when the root bound
    /// already meets it, the solve ends there with zero nodes. An
    /// infeasible warm start is ignored.
    ///
    /// # Errors
    ///
    /// As for [`BranchAndBound::solve`]; with a valid warm start,
    /// [`IlpError::BudgetExhausted`] cannot occur.
    pub fn solve_from(
        &self,
        p: &Problem,
        warm_start: Option<&[f64]>,
    ) -> Result<IlpSolution, IlpError> {
        let integral = objective_is_integral(p);
        let tighten = |lp_objective: f64| {
            if integral {
                (lp_objective - 1e-6).ceil()
            } else {
                lp_objective
            }
        };

        // The root is solved before any node is counted: its bound is
        // what a zero budget reports and what proves a warm start with no
        // node expanded. When it is expanded after all, `solve_node` finds
        // the live tableau already standing on it.
        let mut live = None;
        let root = Node {
            bound: f64::NEG_INFINITY,
            depth: 0,
            lower: p.lower_bounds().to_vec(),
            upper: p.upper_bounds().to_vec(),
        };
        let lp = self.solve_node(p, &mut live, &root);
        match lp.status {
            LpStatus::Infeasible => return Err(IlpError::Infeasible),
            LpStatus::Unbounded => return Err(IlpError::Unbounded),
            LpStatus::IterationLimit => return Err(IlpError::BudgetExhausted),
            LpStatus::Optimal => {}
        }
        let mut lp_iterations = lp.iterations;

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: tighten(lp.objective),
            ..root
        });
        // The child to solve next, on the tableau its parent left behind.
        let mut plunge: Option<Node> = None;
        // Nodes whose LP hit the iteration cap: neither bounded nor
        // refuted, so they stay open and the result is not a proof.
        let mut stalled = Vec::new();

        let mut incumbent: Option<(f64, Vec<f64>)> = warm_start
            .filter(|x| p.is_feasible(x, self.int_tol))
            .map(|x| (p.objective_value(x), x.to_vec()));
        let mut nodes = 0u64;

        loop {
            if nodes >= self.node_limit && (plunge.is_some() || !heap.is_empty()) {
                break; // budget exhausted with open nodes left
            }
            let node = match plunge.take() {
                Some(node) => node,
                None => {
                    let Some(node) = heap.pop() else { break };
                    if let Some((obj, _)) = &incumbent {
                        if node.bound >= *obj - 1e-9 {
                            // The heap is bound-ordered: every remaining
                            // node is at least as bad as the incumbent, so
                            // we are done.
                            heap.clear();
                            break;
                        }
                    }
                    node
                }
            };
            nodes += 1;

            let lp = self.solve_node(p, &mut live, &node);
            lp_iterations += lp.iterations;
            match lp.status {
                LpStatus::Optimal => {}
                LpStatus::IterationLimit => {
                    stalled.push(node);
                    continue;
                }
                LpStatus::Infeasible | LpStatus::Unbounded => continue, // dead subtree
            }
            let bound = tighten(lp.objective);
            if let Some((obj, _)) = &incumbent {
                if bound >= *obj - 1e-9 {
                    continue;
                }
            }

            // Most fractional binary.
            let frac = p
                .integrality()
                .iter()
                .enumerate()
                .filter(|&(_, &is_int)| is_int)
                .map(|(j, _)| (j, (lp.values[j] - lp.values[j].round()).abs()))
                .filter(|&(_, f)| f > self.int_tol)
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));

            match frac {
                None => {
                    // Integer-feasible: round binaries exactly.
                    let mut values = lp.values;
                    for (j, v) in values.iter_mut().enumerate() {
                        if p.integrality()[j] {
                            *v = v.round();
                        }
                    }
                    let objective = p.objective_value(&values);
                    let better = incumbent
                        .as_ref()
                        .is_none_or(|(obj, _)| objective < *obj - 1e-9);
                    if better {
                        incumbent = Some((objective, values));
                    }
                }
                Some((j, _)) => {
                    // Plunge into the side nearest the LP value; the other
                    // side waits in the heap.
                    let near = lp.values[j].round();
                    let child = |fix: f64| {
                        let mut lower = node.lower.clone();
                        let mut upper = node.upper.clone();
                        lower[j] = fix;
                        upper[j] = fix;
                        Node {
                            bound,
                            depth: node.depth + 1,
                            lower,
                            upper,
                        }
                    };
                    heap.push(child(1.0 - near));
                    plunge = Some(child(near));
                }
            }
        }
        heap.extend(plunge);
        heap.extend(stalled);

        let open_bound = heap.peek().map(|n| n.bound);
        match incumbent {
            Some((objective, values)) => {
                let proven_optimal = open_bound.is_none_or(|b| b >= objective - 1e-9);
                Ok(IlpSolution {
                    status: if proven_optimal {
                        IlpStatus::Optimal
                    } else {
                        IlpStatus::Feasible
                    },
                    values,
                    objective,
                    bound: open_bound.map_or(objective, |b| b.min(objective)),
                    nodes,
                    lp_iterations,
                })
            }
            None => {
                if open_bound.is_some() {
                    Err(IlpError::BudgetExhausted)
                } else {
                    Err(IlpError::Infeasible)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    /// Exhaustive reference solver for small binary problems.
    fn brute_force(p: &Problem) -> Option<f64> {
        let n = p.num_vars();
        assert!(n <= 20, "brute force only for small problems");
        assert!(p.integrality().iter().all(|&b| b), "binaries only");
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
            if p.is_feasible(&x, 1e-9) {
                let obj = p.objective_value(&x);
                if best.is_none_or(|b| obj < b) {
                    best = Some(obj);
                }
            }
        }
        best
    }

    #[test]
    fn knapsack_like_cover() {
        // min 3a + 2b + 4c s.t. a + b >= 1, b + c >= 1, a + c >= 1.
        // Vertex cover of a triangle with weights: optimum 2 + 3 = 5
        // (a and b) vs 2 + 4 = 6 vs 3 + 4 = 7 → 5.
        let mut p = Problem::minimize();
        let a = p.add_binary(3.0);
        let b = p.add_binary(2.0);
        let c = p.add_binary(4.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 1.0);
        p.add_constraint([(b, 1.0), (c, 1.0)], Sense::Ge, 1.0);
        p.add_constraint([(a, 1.0), (c, 1.0)], Sense::Ge, 1.0);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert_eq!(brute_force(&p), Some(5.0));
        assert!(sol.gap() < 1e-9);
    }

    #[test]
    fn set_cover_matches_brute_force() {
        // Facility-location flavour like the RSP: groups must each pick
        // an open operator; minimize open operators.
        // 3 operators, 4 groups; operator capacity 2 groups.
        let mut p = Problem::minimize();
        let d: Vec<_> = (0..3).map(|_| p.add_binary(1.0)).collect();
        let mut assign = vec![];
        for _g in 0..4 {
            let row: Vec<_> = (0..3).map(|_| p.add_binary(0.0)).collect();
            p.add_constraint(row.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
            assign.push(row);
        }
        for (j, &dj) in d.iter().enumerate() {
            // Linking: sum_g P_gj <= 4 * D_j; capacity: sum_g P_gj <= 2.
            let terms: Vec<_> = assign.iter().map(|row| (row[j], 1.0)).collect();
            let mut link = terms.clone();
            link.push((dj, -4.0));
            p.add_constraint(link, Sense::Le, 0.0);
            p.add_constraint(terms, Sense::Le, 2.0);
        }
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        // 4 groups / capacity 2 → at least 2 operators.
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!(p.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn infeasible_binary_program() {
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let b = p.add_binary(1.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 3.0);
        assert_eq!(
            BranchAndBound::default().solve(&p).unwrap_err(),
            IlpError::Infeasible
        );
    }

    #[test]
    fn budget_of_zero_nodes_reports_exhaustion() {
        let mut p = Problem::minimize();
        let a = p.add_binary(-1.0);
        let b = p.add_binary(-1.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        let bb = BranchAndBound {
            node_limit: 0,
            ..BranchAndBound::default()
        };
        assert_eq!(bb.solve(&p).unwrap_err(), IlpError::BudgetExhausted);
    }

    #[test]
    fn anytime_mode_returns_feasible_incumbent() {
        // A problem where the root LP is fractional; with a tiny node
        // budget we should still get *some* feasible answer or a clean
        // budget error — never a wrong "optimal" claim that brute force
        // contradicts.
        let mut p = Problem::minimize();
        let vars: Vec<_> = (0..8).map(|i| p.add_binary(1.0 + 0.1 * i as f64)).collect();
        for w in vars.windows(2) {
            p.add_constraint([(w[0], 1.0), (w[1], 1.0)], Sense::Ge, 1.0);
        }
        let full = BranchAndBound::default().solve(&p).unwrap();
        let reference = brute_force(&p).unwrap();
        assert!((full.objective - reference).abs() < 1e-6);
        let tiny = BranchAndBound {
            node_limit: 3,
            ..BranchAndBound::default()
        };
        match tiny.solve(&p) {
            Ok(sol) => {
                assert!(p.is_feasible(&sol.values, 1e-6));
                assert!(sol.objective >= reference - 1e-6);
                assert!(sol.bound <= sol.objective + 1e-9);
            }
            Err(IlpError::BudgetExhausted) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn stalled_node_lps_never_back_an_optimality_claim() {
        // Sweep the per-LP iteration cap across the range where the root
        // still solves but some node LPs run out: a node that stalls is
        // neither bounded nor refuted, so whenever the search still says
        // `Optimal` it must agree with brute force.
        // At a cap of 7 the child that stalls holds the optimum (10):
        // dropping it as if it were infeasible would "prove" 13.
        let mut p = Problem::minimize();
        let x: Vec<_> = [4.0, 5.0, 1.0, 3.0].map(|c| p.add_binary(c)).to_vec();
        for (coeffs, rhs) in [
            ([1.0, 1.0, 2.0, 1.0], 1.5),
            ([1.0, 3.0, 2.0, 1.0], 5.5),
            ([3.0, 3.0, 1.0, 0.0], 4.5),
        ] {
            p.add_constraint(x.iter().copied().zip(coeffs), Sense::Ge, rhs);
        }
        let reference = brute_force(&p).unwrap();
        let (mut proofs, mut capped) = (0, 0);
        for lp_iteration_limit in 1..30 {
            let bb = BranchAndBound {
                lp_iteration_limit,
                ..BranchAndBound::default()
            };
            match bb.solve(&p) {
                Ok(sol) if sol.status == IlpStatus::Optimal => {
                    assert!(
                        (sol.objective - reference).abs() < 1e-6,
                        "cap {lp_iteration_limit}: 'optimal' {} vs {reference}",
                        sol.objective
                    );
                    proofs += 1;
                }
                Ok(sol) => {
                    assert!(p.is_feasible(&sol.values, 1e-6));
                    assert!(sol.bound <= reference + 1e-9);
                    capped += 1;
                }
                Err(e) => {
                    assert_eq!(e, IlpError::BudgetExhausted);
                    capped += 1;
                }
            }
        }
        assert!(
            proofs > 0 && capped > 0,
            "sweep must straddle the cap: {proofs} proofs, {capped} capped"
        );
    }

    #[test]
    fn negative_costs_push_variables_up() {
        // max 2a + b - c == min -2a - b + c, a + b + c <= 2.
        let mut p = Problem::minimize();
        let a = p.add_binary(-2.0);
        let b = p.add_binary(-1.0);
        let c = p.add_binary(1.0);
        p.add_constraint([(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 2.0);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert!((sol.objective + 3.0).abs() < 1e-6);
        assert_eq!(sol.values, vec![1.0, 1.0, 0.0]);
        assert_eq!(brute_force(&p), Some(-3.0));
    }

    #[test]
    fn equality_partition() {
        // Pick exactly 2 of 4 items, minimize weight.
        let mut p = Problem::minimize();
        let w = [5.0, 1.0, 3.0, 2.0];
        let vars: Vec<_> = w.iter().map(|&c| p.add_binary(c)).collect();
        p.add_constraint(vars.iter().map(|&v| (v, 1.0)), Sense::Eq, 2.0);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6); // items 1 and 3
        assert_eq!(brute_force(&p), Some(3.0));
    }

    #[test]
    fn warm_start_bounds_and_survives_zero_budget() {
        let mut p = Problem::minimize();
        let a = p.add_binary(3.0);
        let b = p.add_binary(2.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 1.0);
        // Suboptimal but feasible warm start: open both.
        let warm = vec![1.0, 1.0];
        let bb = BranchAndBound {
            node_limit: 0,
            ..BranchAndBound::default()
        };
        let sol = bb.solve_from(&p, Some(&warm)).unwrap();
        assert_eq!(sol.status, IlpStatus::Feasible);
        assert!((sol.objective - 5.0).abs() < 1e-9);
        // With budget, the warm start is improved to the optimum.
        let sol = BranchAndBound::default()
            .solve_from(&p, Some(&warm))
            .unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-9);
        // An infeasible warm start is ignored rather than trusted.
        let sol = BranchAndBound::default()
            .solve_from(&p, Some(&[0.0, 0.0]))
            .unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_continuous() {
        // One binary gate y, one continuous flow x <= 10y, maximize x - 3y.
        let mut p = Problem::minimize();
        let y = p.add_binary(3.0);
        let x = p.add_continuous(-1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0), (y, -10.0)], Sense::Le, 0.0);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        // Open the gate: -10 + 3 = -7 beats 0.
        assert!((sol.objective + 7.0).abs() < 1e-6);
        assert!((sol.values[x] - 10.0).abs() < 1e-6);
        assert!((sol.values[y] - 1.0).abs() < 1e-9);
    }

    /// Two operators of capacity 10 (cost `cost` each) and three groups
    /// of load 4, with the capacity rows as variable upper bounds: the LP
    /// opens 12/10 of an operator, every plan opens both.
    fn two_operator_placement(cost: f64) -> (Problem, Vec<f64>) {
        let mut p = Problem::minimize();
        let d: Vec<_> = (0..2).map(|_| p.add_binary(cost)).collect();
        let mut warm = vec![1.0, 1.0];
        let mut assign = vec![];
        for g in 0..3 {
            let row: Vec<_> = (0..2).map(|_| p.add_binary(0.0)).collect();
            p.add_constraint(row.iter().map(|&v| (v, 1.0)), Sense::Eq, 1.0);
            // Warm start: groups 0 and 1 on operator 0, group 2 on 1.
            warm.extend(if g < 2 { [1.0, 0.0] } else { [0.0, 1.0] });
            assign.push(row);
        }
        for (o, &dv) in d.iter().enumerate() {
            let mut cap: Vec<_> = assign.iter().map(|row| (row[o], 4.0)).collect();
            cap.push((dv, -10.0));
            p.add_constraint(cap, Sense::Le, 0.0);
        }
        (p, warm)
    }

    #[test]
    fn warm_start_meeting_the_rounded_root_bound_ends_at_the_root() {
        let (p, warm) = two_operator_placement(1.0);
        let lp = crate::solve_lp(&p);
        assert!(
            (lp.objective - 1.2).abs() < 1e-6,
            "root LP {}",
            lp.objective
        );
        let sol = BranchAndBound::default()
            .solve_from(&p, Some(&warm))
            .unwrap();
        assert_eq!(sol.status, IlpStatus::Optimal);
        assert_eq!(sol.nodes, 0, "⌈1.2⌉ = 2 proves the warm start");
        assert_eq!(sol.objective, 2.0);
        assert_eq!(sol.bound, 2.0);
        assert_eq!(
            sol.lp_iterations, lp.iterations,
            "the root LP is all it solved"
        );
        // Without the warm start the same bound still ends the search as
        // soon as a two-operator plan turns up.
        let cold = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(cold.status, IlpStatus::Optimal);
        assert_eq!(cold.objective, 2.0);
    }

    #[test]
    fn bound_rounding_needs_an_integral_objective() {
        // Fractional costs: the same model at 0.5 per operator has root
        // bound 0.6 and optimum 1.0; rounding 0.6 up would be harmless
        // here, so pin the reported bound instead: a zero budget returns
        // the raw LP bound.
        let (p, warm) = two_operator_placement(0.5);
        assert!(!objective_is_integral(&p));
        let capped = BranchAndBound {
            node_limit: 0,
            ..BranchAndBound::default()
        };
        let sol = capped.solve_from(&p, Some(&warm)).unwrap();
        assert_eq!(sol.status, IlpStatus::Feasible);
        assert!((sol.bound - 0.6).abs() < 1e-6, "bound {}", sol.bound);
        let (p, warm) = two_operator_placement(1.0);
        assert!(objective_is_integral(&p));
        assert_eq!(capped.solve_from(&p, Some(&warm)).unwrap().bound, 2.0);

        // Pick exactly one of two items costing 1.2 and 1.7. Rounding the
        // root bound 1.2 up to 2 would "prove" a warm start of 1.7.
        let mut p = Problem::minimize();
        let a = p.add_binary(1.2);
        let b = p.add_binary(1.7);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Eq, 1.0);
        let sol = BranchAndBound::default()
            .solve_from(&p, Some(&[0.0, 1.0]))
            .unwrap();
        assert!((sol.objective - 1.2).abs() < 1e-9, "{}", sol.objective);

        // The same choice paid through a continuous variable with an
        // integer cost: x >= 1.2a + 1.7b, minimize x.
        let mut p = Problem::minimize();
        let a = p.add_binary(0.0);
        let b = p.add_binary(0.0);
        let x = p.add_continuous(1.0, 0.0, 10.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Eq, 1.0);
        p.add_constraint([(x, 1.0), (a, -1.2), (b, -1.7)], Sense::Ge, 0.0);
        assert!(!objective_is_integral(&p));
        let sol = BranchAndBound::default()
            .solve_from(&p, Some(&[0.0, 1.0, 1.7]))
            .unwrap();
        assert!((sol.objective - 1.2).abs() < 1e-9, "{}", sol.objective);
    }
}
