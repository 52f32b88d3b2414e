//! Property-based verification of the ILP stack against brute force.
//!
//! These tests are the correctness anchor for the whole solver: random
//! small binary programs are solved both by exhaustive enumeration and by
//! LP-relaxation branch-and-bound, and the answers must agree. Any bug in
//! the simplex (wrong pivots, broken phase 1, bad bound handling) shows up
//! as a disagreement here.

use netrs_ilp::{solve_lp, BranchAndBound, IlpError, IlpStatus, LpStatus, Problem, Sense};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomIlp {
    costs: Vec<i32>,
    rows: Vec<(Vec<i32>, u8, i32)>, // coeffs, sense tag, rhs
}

fn arb_ilp() -> impl Strategy<Value = RandomIlp> {
    (1usize..8).prop_flat_map(|n| {
        let costs = proptest::collection::vec(-5i32..=5, n);
        let row = (proptest::collection::vec(-3i32..=3, n), 0u8..3, -4i32..=6);
        let rows = proptest::collection::vec(row, 0..5);
        (costs, rows).prop_map(|(costs, rows)| RandomIlp { costs, rows })
    })
}

fn build(ilp: &RandomIlp) -> Problem {
    let mut p = Problem::minimize();
    let vars: Vec<_> = ilp
        .costs
        .iter()
        .map(|&c| p.add_binary(f64::from(c)))
        .collect();
    for (coeffs, sense, rhs) in &ilp.rows {
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        p.add_constraint(
            coeffs
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != 0)
                .map(|(j, &a)| (vars[j], f64::from(a))),
            sense,
            f64::from(*rhs),
        );
    }
    p
}

fn brute_force(p: &Problem) -> Option<f64> {
    let n = p.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1u32 << n) {
        let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
        if p.is_feasible(&x, 1e-9) {
            let obj = p.objective_value(&x);
            if best.is_none_or(|b| obj < b - 1e-12) {
                best = Some(obj);
            }
        }
    }
    best
}

/// A random capacitated placement in the shape the NetRS controller
/// builds: operators with an opening cost and a capacity, groups with a
/// load (zero allowed) that each pick one of their candidate operators.
#[derive(Debug, Clone)]
struct RandomPlacement {
    /// `(opening cost, capacity)` per operator.
    operators: Vec<(u8, u8)>,
    /// `(load, candidate seed)` per group; the seed picks a non-empty
    /// subset of the operators.
    groups: Vec<(u8, u8)>,
    /// Adds one half to the first operator's cost, making the objective
    /// fractional.
    fractional: bool,
}

/// At most 3 operators x 5 groups: 3 + 15 = 18 binaries.
fn arb_placement() -> impl Strategy<Value = RandomPlacement> {
    (
        proptest::collection::vec((1u8..=3, 4u8..=14), 2..4),
        proptest::collection::vec((0u8..=5, any::<u8>()), 1..6),
        any::<bool>(),
    )
        .prop_map(|(operators, groups, fractional)| RandomPlacement {
            operators,
            groups,
            fractional,
        })
}

/// Builds the placement with the controller's rows: one-operator-per-group
/// equalities, `Σ P ≤ n_o · D` links and `Σ load · P ≤ cap · D` capacities.
fn build_placement(pl: &RandomPlacement) -> Problem {
    let mut p = Problem::minimize();
    let d: Vec<_> = pl
        .operators
        .iter()
        .enumerate()
        .map(|(o, &(cost, _))| {
            let half = if pl.fractional && o == 0 { 0.5 } else { 0.0 };
            p.add_binary(f64::from(cost) + half)
        })
        .collect();
    let mut users: Vec<Vec<(usize, f64)>> = vec![Vec::new(); d.len()];
    let subsets = (1u8 << d.len()) - 1;
    for &(load, seed) in &pl.groups {
        let mask = seed % subsets + 1;
        let mut pick = Vec::new();
        for (o, user) in users.iter_mut().enumerate() {
            if mask & (1 << o) != 0 {
                let v = p.add_binary(0.0);
                pick.push((v, 1.0));
                user.push((v, f64::from(load)));
            }
        }
        p.add_constraint(pick, Sense::Eq, 1.0);
    }
    for ((user, &dv), &(_, cap)) in users.iter().zip(&d).zip(&pl.operators) {
        let mut link: Vec<_> = user.iter().map(|&(v, _)| (v, 1.0)).collect();
        link.push((dv, -(user.len() as f64)));
        p.add_constraint(link, Sense::Le, 0.0);
        let mut capacity = user.clone();
        capacity.push((dv, -f64::from(cap)));
        p.add_constraint(capacity, Sense::Le, 0.0);
    }
    p
}

/// The costliest feasible 0/1 point: the weakest warm start there is.
fn worst_feasible(p: &Problem) -> Option<Vec<f64>> {
    let n = p.num_vars();
    let mut worst: Option<(f64, Vec<f64>)> = None;
    for mask in 0u32..(1u32 << n) {
        let x: Vec<f64> = (0..n).map(|j| f64::from((mask >> j) & 1)).collect();
        if p.is_feasible(&x, 1e-9) {
            let obj = p.objective_value(&x);
            if worst.as_ref().is_none_or(|(w, _)| obj > *w) {
                worst = Some((obj, x));
            }
        }
    }
    worst.map(|(_, x)| x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// On placement-shaped programs branch-and-bound agrees with
    /// exhaustive enumeration, cold and warm-started, and rounds its
    /// bound up exactly when every cost is an integer.
    #[test]
    fn placement_matches_brute_force(pl in arb_placement()) {
        let p = build_placement(&pl);
        let reference = brute_force(&p);
        let warm = worst_feasible(&p);
        for start in [None, warm.as_deref()] {
            match (reference, BranchAndBound::default().solve_from(&p, start)) {
                (Some(best), Ok(sol)) => {
                    prop_assert!(p.is_feasible(&sol.values, 1e-6));
                    prop_assert!((sol.objective - best).abs() < 1e-6,
                        "objective {} vs brute force {} (warm: {})",
                        sol.objective, best, start.is_some());
                    prop_assert_eq!(sol.status, IlpStatus::Optimal);
                }
                (None, Err(IlpError::Infeasible)) => {}
                (r, s) => prop_assert!(false, "disagreement: brute={r:?} solver={s:?}"),
            }
        }
        // A zero budget reports the root bound untouched by any search:
        // the LP value itself when a cost is fractional, its ceiling when
        // all are integers.
        if let Some(warm) = &warm {
            let capped = BranchAndBound { node_limit: 0, ..BranchAndBound::default() };
            let sol = capped.solve_from(&p, Some(warm)).expect("the warm start is feasible");
            let lp = solve_lp(&p).objective;
            let root = if pl.fractional { lp } else { (lp - 1e-6).ceil() };
            let want = root.min(sol.objective);
            prop_assert!((sol.bound - want).abs() < 1e-6,
                "bound {} vs {} (LP {lp}, fractional: {})", sol.bound, want, pl.fractional);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Branch-and-bound agrees exactly with exhaustive enumeration.
    #[test]
    fn bnb_matches_brute_force(ilp in arb_ilp()) {
        let p = build(&ilp);
        let reference = brute_force(&p);
        let result = BranchAndBound::default().solve(&p);
        match (reference, result) {
            (Some(best), Ok(sol)) => {
                prop_assert!(p.is_feasible(&sol.values, 1e-6),
                    "solver returned infeasible point {:?}", sol.values);
                prop_assert!((sol.objective - best).abs() < 1e-6,
                    "objective {} vs brute force {}", sol.objective, best);
                prop_assert!(sol.bound <= sol.objective + 1e-9);
            }
            (None, Err(IlpError::Infeasible)) => {}
            (r, s) => prop_assert!(false, "disagreement: brute={r:?} solver={s:?}"),
        }
    }

    /// The LP relaxation is always a valid lower bound on the ILP optimum
    /// and never reports a spurious status.
    #[test]
    fn lp_bounds_the_ilp(ilp in arb_ilp()) {
        let p = build(&ilp);
        let lp = solve_lp(&p);
        match lp.status {
            LpStatus::Optimal => {
                if let Some(best) = brute_force(&p) {
                    prop_assert!(lp.objective <= best + 1e-6,
                        "LP bound {} above ILP optimum {}", lp.objective, best);
                }
                // The LP point satisfies the *relaxed* constraints.
                for (j, &v) in lp.values.iter().enumerate() {
                    prop_assert!(v >= p.lower_bounds()[j] - 1e-6);
                    prop_assert!(v <= p.upper_bounds()[j] + 1e-6);
                }
            }
            LpStatus::Infeasible => {
                prop_assert_eq!(brute_force(&p), None,
                    "LP infeasible but an integer point exists");
            }
            LpStatus::Unbounded => {
                // Impossible: binaries are boxed in [0, 1].
                prop_assert!(false, "boxed LP cannot be unbounded");
            }
            LpStatus::IterationLimit => {
                // Tolerated (tiny problems should never hit it, though).
                prop_assert!(false, "iteration limit on a tiny LP");
            }
        }
    }

    /// Anytime mode (small node budgets) never fabricates infeasibility
    /// or returns an infeasible "solution".
    #[test]
    fn anytime_is_sound(ilp in arb_ilp(), budget in 1u64..6) {
        let p = build(&ilp);
        let reference = brute_force(&p);
        let bb = BranchAndBound { node_limit: budget, ..BranchAndBound::default() };
        match bb.solve(&p) {
            Ok(sol) => {
                prop_assert!(p.is_feasible(&sol.values, 1e-6));
                let best = reference.expect("solver found a point so one exists");
                prop_assert!(sol.objective >= best - 1e-6);
            }
            Err(IlpError::Infeasible) => prop_assert_eq!(reference, None),
            Err(IlpError::BudgetExhausted) => {}
            Err(IlpError::Unbounded) => prop_assert!(false, "boxed ILP cannot be unbounded"),
        }
    }
}
