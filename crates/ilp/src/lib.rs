//! Integer linear programming for the NetRS controller.
//!
//! §III-B of the NetRS paper formalizes RSNode placement as an ILP and
//! solves it "with an optimizer (e.g. Gurobi, CPLEX)", noting that a
//! suboptimal plan obtained "by terminating the solving process early" is
//! acceptable. Neither commercial solver can be a dependency of an
//! open-source reproduction, so this crate implements the required solver
//! stack from scratch:
//!
//! * [`Problem`] — a mixed 0/1 + continuous linear program with per
//!   variable bounds and `≤ / ≥ / =` constraints,
//! * [`solve_lp`] — a dense, bounded-variable, two-phase primal simplex
//!   for the LP relaxation, started from a slack-crash basis, and
//! * [`BranchAndBound`] — plunging best-first branch-and-bound on the
//!   binary variables (a child re-optimises its parent's tableau with
//!   dual simplex pivots; integral objectives round their bounds up) with
//!   an *anytime* node budget: when the budget runs out it returns the
//!   best incumbent found so far plus the proven bound, which is exactly
//!   the early-termination trade-off the paper describes.
//!
//! # Examples
//!
//! Minimal facility-location flavour (one of two "operators" must open to
//! cover a demand):
//!
//! ```
//! use netrs_ilp::{BranchAndBound, Problem, Sense};
//!
//! let mut p = Problem::minimize();
//! let open_a = p.add_binary(3.0); // opening cost 3
//! let open_b = p.add_binary(1.0); // opening cost 1
//! // Cover the demand: open_a + open_b >= 1.
//! p.add_constraint([(open_a, 1.0), (open_b, 1.0)], Sense::Ge, 1.0);
//!
//! let sol = BranchAndBound::default().solve(&p).expect("feasible");
//! assert_eq!(sol.objective.round(), 1.0);
//! assert_eq!(sol.values[open_b].round(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod simplex;

pub use branch::{BranchAndBound, IlpError, IlpSolution, IlpStatus};
pub use simplex::{solve_lp, LpSolution, LpStatus};

use serde::{Deserialize, Serialize};

/// Index of a decision variable within a [`Problem`].
pub type VarId = usize;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// One linear constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse left-hand side as `(variable, coefficient)` pairs.
    pub terms: Vec<(VarId, f64)>,
    /// Relation between the left- and right-hand sides.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program / 0-1 integer program in minimization form.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty minimization problem.
    #[must_use]
    pub fn minimize() -> Self {
        Problem::default()
    }

    /// Adds a binary (0/1) variable with the given objective coefficient,
    /// returning its id.
    pub fn add_binary(&mut self, cost: f64) -> VarId {
        self.objective.push(cost);
        self.lower.push(0.0);
        self.upper.push(1.0);
        self.integer.push(true);
        self.objective.len() - 1
    }

    /// Adds a continuous variable with bounds `[lower, upper]` (use
    /// `f64::INFINITY` for an unbounded top) and the given objective
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or `lower` is not finite.
    pub fn add_continuous(&mut self, cost: f64, lower: f64, upper: f64) -> VarId {
        assert!(lower.is_finite(), "lower bound must be finite");
        assert!(lower <= upper, "lower bound above upper bound");
        self.objective.push(cost);
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(false);
        self.objective.len() - 1
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not exist or a coefficient
    /// is not finite.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        let terms: Vec<(VarId, f64)> = terms.into_iter().collect();
        for &(v, a) in &terms {
            assert!(
                v < self.num_vars(),
                "constraint references unknown variable {v}"
            );
            assert!(a.is_finite(), "constraint coefficient must be finite");
        }
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.constraints.push(Constraint { terms, sense, rhs });
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients.
    #[must_use]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Per-variable lower bounds.
    #[must_use]
    pub fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    /// Per-variable upper bounds.
    #[must_use]
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Which variables are 0/1-integer.
    #[must_use]
    pub fn integrality(&self) -> &[bool] {
        &self.integer
    }

    /// The constraint list.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates the objective at a point.
    #[must_use]
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks a point against every constraint and bound, within `tol`.
    #[must_use]
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (j, &v) in x.iter().enumerate() {
            if v < self.lower[j] - tol || v > self.upper[j] + tol {
                return false;
            }
            if self.integer[j] && (v - v.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v]).sum();
            match c.sense {
                Sense::Le => lhs <= c.rhs + tol,
                Sense::Ge => lhs >= c.rhs - tol,
                Sense::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_builder_tracks_shapes() {
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let b = p.add_continuous(0.5, 0.0, 10.0);
        p.add_constraint([(a, 1.0), (b, 2.0)], Sense::Le, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.integrality(), &[true, false]);
        assert_eq!(p.upper_bounds(), &[1.0, 10.0]);
        assert_eq!(p.objective_value(&[1.0, 2.0]), 2.0);
    }

    #[test]
    fn feasibility_checker_honours_all_rules() {
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let b = p.add_continuous(0.0, 1.0, 3.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 2.0);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 1.5], 1e-9), "fractional binary");
        assert!(!p.is_feasible(&[1.0, 0.5], 1e-9), "below lower bound");
        assert!(!p.is_feasible(&[0.0, 1.5], 1e-9), "constraint violated");
        assert!(!p.is_feasible(&[1.0], 1e-9), "wrong arity");
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraints_validate_variables() {
        let mut p = Problem::minimize();
        p.add_constraint([(0, 1.0)], Sense::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound above upper")]
    fn bounds_validated() {
        let mut p = Problem::minimize();
        let _ = p.add_continuous(0.0, 2.0, 1.0);
    }
}
