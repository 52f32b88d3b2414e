//! A dense, bounded-variable simplex: two-phase primal from a slack-crash
//! basis, plus dual re-optimisation of a solved tableau.
//!
//! Variables live in boxes `[lo, hi]` (possibly `hi = ∞`), which lets the
//! branch-and-bound layer fix binaries by shrinking bounds instead of
//! adding rows. The starting basis takes the slack of every inequality
//! row the all-at-lower-bound point already satisfies; only the remaining
//! rows (equalities, violated inequalities) get an artificial, and phase 1
//! drives those to zero before phase 2 optimizes the real objective.
//! Fixing a variable of an optimal tableau keeps it dual feasible, so
//! [`Tableau::tighten_and_reoptimize`] repairs primal feasibility with dual
//! simplex pivots instead of starting over. Dantzig pricing with a
//! Bland's-rule fallback guards against cycling in both directions.

use crate::{Problem, Sense};

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
    /// The iteration budget ran out before convergence.
    IterationLimit,
}

/// An LP solution (values are meaningful for [`LpStatus::Optimal`] only).
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solver status.
    pub status: LpStatus,
    /// Variable values (structural variables only).
    pub values: Vec<f64>,
    /// Objective value at `values`.
    pub objective: f64,
    /// Simplex iterations used across both phases.
    pub iterations: u64,
}

const FEAS_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// The dense simplex tableau of one LP, kept alive by branch-and-bound
/// so a child node can re-optimise it instead of rebuilding.
pub(crate) struct Tableau {
    n: usize, // structural variables
    m: usize,
    ncols: usize,

    art_start: usize,
    t: Vec<f64>, // row-major m x ncols: current B^{-1} A
    lo: Vec<f64>,
    hi: Vec<f64>,
    xval: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    d: Vec<f64>, // reduced costs
    iterations: u64,
    iter_limit: u64,
}

impl Tableau {
    fn at(&self, i: usize, j: usize) -> f64 {
        self.t[i * self.ncols + j]
    }

    fn build(p: &Problem, lower: &[f64], upper: &[f64], iter_limit: u64) -> Tableau {
        let n = p.num_vars();
        let m = p.num_constraints();

        // Row residuals with every structural at its lower bound. An
        // inequality whose slack can carry its residual starts with that
        // slack basic; every other row needs an artificial.
        let residuals: Vec<f64> = p
            .constraints()
            .iter()
            .map(|c| c.rhs - c.terms.iter().map(|&(v, a)| a * lower[v]).sum::<f64>())
            .collect();
        let needs_artificial = |i: usize| match p.constraints()[i].sense {
            Sense::Le => residuals[i] < 0.0,
            Sense::Ge => residuals[i] > 0.0,
            Sense::Eq => true,
        };
        let nslack = p
            .constraints()
            .iter()
            .filter(|c| c.sense != Sense::Eq)
            .count();
        let art_start = n + nslack;
        let ncols = art_start + (0..m).filter(|&i| needs_artificial(i)).count();

        let mut t = vec![0.0; m * ncols];
        let mut lo = Vec::with_capacity(ncols);
        let mut hi = Vec::with_capacity(ncols);
        lo.extend_from_slice(lower);
        hi.extend_from_slice(upper);
        lo.resize(ncols, 0.0);
        hi.resize(ncols, f64::INFINITY);

        // Nonbasic variables start at their lower bound.
        let mut xval = lo.clone();
        let mut status = vec![VarStatus::AtLower; ncols];
        let mut basis = Vec::with_capacity(m);
        let mut slack = n;
        let mut art = art_start;
        for (i, c) in p.constraints().iter().enumerate() {
            // Scale the row so its basic column has coefficient +1 and
            // carries a non-negative value.
            let artificial = needs_artificial(i);
            let negate = if artificial {
                residuals[i] < 0.0
            } else {
                c.sense == Sense::Ge
            };
            let sign = if negate { -1.0 } else { 1.0 };
            let row = &mut t[i * ncols..(i + 1) * ncols];
            for &(v, a) in &c.terms {
                row[v] += sign * a;
            }
            match c.sense {
                Sense::Le => row[slack] = sign,
                Sense::Ge => row[slack] = -sign,
                Sense::Eq => {}
            }
            let basic = if artificial { art } else { slack };
            row[basic] = 1.0;
            art += usize::from(artificial);
            slack += usize::from(c.sense != Sense::Eq);
            xval[basic] = residuals[i].abs();
            status[basic] = VarStatus::Basic(i);
            basis.push(basic);
        }

        Tableau {
            n,
            m,
            ncols,

            art_start,
            t,
            lo,
            hi,
            xval,
            basis,
            status,
            d: vec![0.0; ncols],
            iterations: 0,
            iter_limit,
        }
    }

    /// Recomputes reduced costs `d = c − c_B^T B⁻¹A` for a cost vector
    /// over all columns.
    fn price(&mut self, cost: &[f64]) {
        self.d[..self.ncols].copy_from_slice(&cost[..self.ncols]);
        for i in 0..self.m {
            let cb = cost[self.basis[i]];
            if cb != 0.0 {
                let row = &self.t[i * self.ncols..(i + 1) * self.ncols];
                for (dj, &a) in self.d.iter_mut().zip(row) {
                    *dj -= cb * a;
                }
            }
        }
    }

    fn span(&self, j: usize) -> f64 {
        self.hi[j] - self.lo[j]
    }

    /// One phase of the simplex. Returns `Ok(())` on (phase-)optimality.
    fn optimize(&mut self) -> Result<(), LpStatus> {
        let bland_after = 2_000 + 20 * (self.m as u64 + self.ncols as u64);
        loop {
            self.iterations += 1;
            if self.iterations > self.iter_limit {
                return Err(LpStatus::IterationLimit);
            }
            let bland = self.iterations > bland_after;

            // Entering variable.
            let mut enter: Option<(usize, f64, f64)> = None; // (col, dir, violation)
            for j in 0..self.ncols {
                let (dir, viol) = match self.status[j] {
                    VarStatus::Basic(_) => continue,
                    VarStatus::AtLower => (1.0, -self.d[j]),
                    VarStatus::AtUpper => (-1.0, self.d[j]),
                };
                if viol <= COST_TOL || self.span(j) <= PIVOT_TOL {
                    continue;
                }
                if bland {
                    enter = Some((j, dir, viol));
                    break;
                }
                if enter.is_none_or(|(_, _, best)| viol > best) {
                    enter = Some((j, dir, viol));
                }
            }
            let Some((j, dir, _)) = enter else {
                return Ok(());
            };

            // Ratio test.
            let mut t_best = self.span(j); // bound-flip limit (may be inf)
            let mut leave: Option<(usize, bool)> = None; // (row, hits_upper)
            for i in 0..self.m {
                let delta = -dir * self.at(i, j);
                let bv = self.basis[i];
                let cap = if delta < -PIVOT_TOL {
                    (self.xval[bv] - self.lo[bv]) / -delta
                } else if delta > PIVOT_TOL {
                    if self.hi[bv].is_infinite() {
                        continue;
                    }
                    (self.hi[bv] - self.xval[bv]) / delta
                } else {
                    continue;
                };
                let cap = cap.max(0.0);
                let better = match leave {
                    _ if cap < t_best - 1e-10 => true,
                    // Near-ties: prefer the larger pivot element for
                    // stability (or the smaller variable id under Bland).
                    Some((r, _)) if (cap - t_best).abs() <= 1e-10 => {
                        if bland {
                            bv < self.basis[r]
                        } else {
                            self.at(i, j).abs() > self.at(r, j).abs()
                        }
                    }
                    None if cap <= t_best => true,
                    _ => false,
                };
                if better {
                    t_best = cap.min(t_best);
                    leave = Some((i, delta > 0.0));
                }
            }

            if t_best.is_infinite() {
                return Err(LpStatus::Unbounded);
            }
            let step = t_best.max(0.0);

            self.shift_nonbasic(j, dir * step);

            match leave {
                None => {
                    // Bound flip: no basis change.
                    self.status[j] = if dir > 0.0 {
                        self.xval[j] = self.hi[j];
                        VarStatus::AtUpper
                    } else {
                        self.xval[j] = self.lo[j];
                        VarStatus::AtLower
                    };
                }
                Some((r, hits_upper)) => {
                    let lv = self.basis[r];
                    self.status[lv] = if hits_upper {
                        self.xval[lv] = self.hi[lv];
                        VarStatus::AtUpper
                    } else {
                        self.xval[lv] = self.lo[lv];
                        VarStatus::AtLower
                    };
                    self.pivot(r, j);
                }
            }
        }
    }

    /// Gaussian elimination pivot making column `j` basic in row `r`.
    fn pivot(&mut self, r: usize, j: usize) {
        let ncols = self.ncols;
        let piv = self.at(r, j);
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot on a zero element");
        let inv = 1.0 / piv;
        for v in &mut self.t[r * ncols..(r + 1) * ncols] {
            *v *= inv;
        }
        // Copy the pivot row once to keep the borrow checker happy.
        let prow: Vec<f64> = self.t[r * ncols..(r + 1) * ncols].to_vec();
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.at(i, j);
            if factor != 0.0 {
                let row = &mut self.t[i * ncols..(i + 1) * ncols];
                for (v, &pv) in row.iter_mut().zip(&prow) {
                    *v -= factor * pv;
                }
            }
        }
        let dfac = self.d[j];
        if dfac != 0.0 {
            for (v, &pv) in self.d.iter_mut().zip(&prow) {
                *v -= dfac * pv;
            }
        }
        self.basis[r] = j;
        self.status[j] = VarStatus::Basic(r);
    }

    /// Dual simplex on a dual-feasible tableau: pivots out basic
    /// variables that sit outside their box until none does. Returns
    /// `Err(Infeasible)` when a violated row has no column to repair it.
    fn dual_optimize(&mut self) -> Result<(), LpStatus> {
        let bland_after = 2_000 + 20 * (self.m as u64 + self.ncols as u64);
        loop {
            self.iterations += 1;
            if self.iterations > self.iter_limit {
                return Err(LpStatus::IterationLimit);
            }
            let bland = self.iterations > bland_after;

            // Leaving row: the basic variable furthest outside its box
            // (the smallest variable id under Bland).
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
            for i in 0..self.m {
                let bv = self.basis[i];
                let below = self.lo[bv] - self.xval[bv];
                let above = self.xval[bv] - self.hi[bv];
                let viol = below.max(above);
                if viol <= FEAS_TOL {
                    continue;
                }
                let better = match leave {
                    None => true,
                    Some((r, _, _)) if bland => bv < self.basis[r],
                    Some((_, best, _)) => viol > best,
                };
                if better {
                    leave = Some((i, viol, below > above));
                }
            }
            let Some((r, _, below)) = leave else {
                return Ok(());
            };

            // Entering column: the dual ratio test over the columns whose
            // move pushes the leaving variable back toward its box.
            let push = if below { 1.0 } else { -1.0 };
            let mut enter: Option<(usize, f64)> = None; // (col, ratio)
            for j in 0..self.ncols {
                let a = push * self.at(r, j);
                let eligible = match self.status[j] {
                    VarStatus::Basic(_) => false,
                    VarStatus::AtLower => a < -PIVOT_TOL,
                    VarStatus::AtUpper => a > PIVOT_TOL,
                };
                if !eligible || self.span(j) <= PIVOT_TOL {
                    continue;
                }
                let ratio = (self.d[j] / a).abs();
                let better = match enter {
                    None => true,
                    Some((_, best)) if ratio < best - 1e-10 => true,
                    // Near-ties: prefer the larger pivot element for
                    // stability (under Bland the first, smallest id wins).
                    Some((q, best)) if (ratio - best).abs() <= 1e-10 => {
                        !bland && a.abs() > self.at(r, q).abs()
                    }
                    _ => false,
                };
                if better {
                    enter = Some((j, enter.map_or(ratio, |(_, best)| best.min(ratio))));
                }
            }
            let Some((q, _)) = enter else {
                return Err(LpStatus::Infeasible);
            };

            // Move the entering variable until the leaving one reaches
            // the bound it violated, then swap them.
            let lv = self.basis[r];
            let target = if below { self.lo[lv] } else { self.hi[lv] };
            let step = (self.xval[lv] - target) / self.at(r, q);
            self.shift_nonbasic(q, step);
            self.xval[lv] = target;
            self.status[lv] = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.pivot(r, q);
        }
    }

    /// Moves nonbasic column `j` by `step`, carrying the basic variables
    /// along.
    fn shift_nonbasic(&mut self, j: usize, step: f64) {
        for i in 0..self.m {
            let a = self.at(i, j);
            if a != 0.0 {
                let bv = self.basis[i];
                self.xval[bv] -= a * step;
            }
        }
        self.xval[j] += step;
    }

    /// Sum of artificial-variable values (phase-1 objective).
    fn infeasibility(&self) -> f64 {
        self.xval[self.art_start..].iter().sum()
    }

    /// After phase 1: pin artificials to zero and pivot basic ones out
    /// where possible.
    fn retire_artificials(&mut self) {
        for a in self.art_start..self.ncols {
            self.lo[a] = 0.0;
            self.hi[a] = 0.0;
        }
        for r in 0..self.m {
            if self.basis[r] >= self.art_start {
                // Degenerate pivot onto any usable structural/slack column.
                let target = (0..self.art_start).find(|&j| {
                    !matches!(self.status[j], VarStatus::Basic(_)) && self.at(r, j).abs() > 1e-7
                });
                if let Some(j) = target {
                    let art = self.basis[r];
                    // The artificial sits at zero, so this pivot is
                    // degenerate: the basis changes, values do not.
                    self.pivot(r, j);
                    self.status[art] = VarStatus::AtLower;
                    self.xval[art] = 0.0;
                }
            }
        }
    }

    /// Two-phase primal simplex from the crash basis.
    fn two_phase(&mut self, p: &Problem) -> Result<(), LpStatus> {
        let mut cost = vec![0.0; self.ncols];
        if self.art_start < self.ncols {
            // Phase 1: minimize the sum of artificials.
            cost[self.art_start..].fill(1.0);
            self.price(&cost);
            match self.optimize() {
                Err(LpStatus::Unbounded) => {
                    unreachable!("phase 1 objective is bounded below by 0")
                }
                other => other?,
            }
            if self.infeasibility() > FEAS_TOL {
                return Err(LpStatus::Infeasible);
            }
            self.retire_artificials();
            cost[self.art_start..].fill(0.0);
        }
        // Phase 2: the real objective.
        cost[..self.n].copy_from_slice(p.objective());
        self.price(&cost);
        self.optimize()
    }

    /// The structural values of an optimal tableau.
    fn solution(&self, p: &Problem) -> LpSolution {
        let mut values: Vec<f64> = self.xval[..self.n].to_vec();
        for (j, v) in values.iter_mut().enumerate() {
            *v = v.clamp(self.lo[j], self.hi[j].min(f64::MAX));
            if v.abs() < 1e-11 {
                *v = 0.0;
            }
        }
        let objective = p.objective_value(&values);
        LpSolution {
            status: LpStatus::Optimal,
            values,
            objective,
            iterations: self.iterations,
        }
    }

    /// Solves the LP relaxation of `p` under overridden variable bounds
    /// from scratch. An optimal solve also hands back its tableau, which
    /// [`Tableau::tighten_and_reoptimize`] can turn into a child node's.
    pub(crate) fn solve(
        p: &Problem,
        lower: &[f64],
        upper: &[f64],
        iter_limit: u64,
    ) -> (LpSolution, Option<Tableau>) {
        debug_assert_eq!(lower.len(), p.num_vars());
        debug_assert_eq!(upper.len(), p.num_vars());
        // Fast infeasibility: crossed bounds.
        if lower.iter().zip(upper).any(|(l, u)| l > u) {
            return (failed(LpStatus::Infeasible, 0), None);
        }
        let mut tab = Tableau::build(p, lower, upper, iter_limit);
        match tab.two_phase(p) {
            Ok(()) => (tab.solution(p), Some(tab)),
            Err(status) => (failed(status, tab.iterations), None),
        }
    }

    /// Moves an optimal tableau of `p` to a node whose boxes lie inside
    /// its own and re-optimises. Tightening a box leaves every reduced
    /// cost valid, so the basis stays dual feasible and only primal
    /// feasibility needs repair; `iterations` of the result counts these
    /// pivots alone. After anything but `Optimal` the tableau is spent.
    ///
    /// Returns `None`, tableau untouched, when some box reaches outside
    /// the current one: a relaxed bound can strand a nonbasic variable
    /// off its bounds, so such a node has to be solved from scratch.
    pub(crate) fn tighten_and_reoptimize(
        &mut self,
        p: &Problem,
        lower: &[f64],
        upper: &[f64],
        iter_limit: u64,
    ) -> Option<LpSolution> {
        let inside = |j: usize| lower[j] >= self.lo[j] && upper[j] <= self.hi[j];
        if !(0..self.n).all(inside) {
            return None;
        }
        self.iterations = 0;
        self.iter_limit = iter_limit;
        let mut tightened = false;
        for j in 0..self.n {
            if lower[j] == self.lo[j] && upper[j] == self.hi[j] {
                continue;
            }
            tightened = true;
            self.lo[j] = lower[j];
            self.hi[j] = upper[j];
            if !matches!(self.status[j], VarStatus::Basic(_)) {
                // A nonbasic variable follows the bound it sits on.
                let target = self.xval[j].clamp(lower[j], upper[j]);
                self.shift_nonbasic(j, target - self.xval[j]);
            }
        }
        if !tightened {
            return Some(self.solution(p)); // already this node's optimum
        }
        Some(match self.dual_optimize() {
            Ok(()) => self.solution(p),
            Err(status) => failed(status, self.iterations),
        })
    }
}

fn failed(status: LpStatus, iterations: u64) -> LpSolution {
    LpSolution {
        status,
        values: Vec::new(),
        objective: f64::INFINITY,
        iterations,
    }
}

/// Solves the LP relaxation of `p` (integrality dropped; declared bounds
/// kept) with default limits.
///
/// # Examples
///
/// ```
/// use netrs_ilp::{solve_lp, LpStatus, Problem, Sense};
///
/// let mut p = Problem::minimize();
/// let x = p.add_continuous(-1.0, 0.0, 10.0); // maximize x
/// p.add_constraint([(x, 2.0)], Sense::Le, 10.0);
/// let sol = solve_lp(&p);
/// assert_eq!(sol.status, LpStatus::Optimal);
/// assert!((sol.values[0] - 5.0).abs() < 1e-6);
/// ```
#[must_use]
pub fn solve_lp(p: &Problem) -> LpSolution {
    solve_lp_with_bounds(p, p.lower_bounds(), p.upper_bounds(), 200_000)
}

/// Solves the LP relaxation with overridden variable bounds and an
/// iteration cap, from scratch.
pub(crate) fn solve_lp_with_bounds(
    p: &Problem,
    lower: &[f64],
    upper: &[f64],
    iter_limit: u64,
) -> LpSolution {
    Tableau::solve(p, lower, upper, iter_limit).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_bounds_only() {
        // min x + 2y with x in [1, 4], y in [0.5, 3]: optimum at lows.
        let mut p = Problem::minimize();
        let x = p.add_continuous(1.0, 1.0, 4.0);
        let y = p.add_continuous(2.0, 0.5, 3.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x] - 1.0).abs() < 1e-7);
        assert!((sol.values[y] - 0.5).abs() < 1e-7);
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier).
        // Optimum (2, 6) with value 36.
        let mut p = Problem::minimize();
        let x = p.add_continuous(-3.0, 0.0, f64::INFINITY);
        let y = p.add_continuous(-5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Sense::Le, 4.0);
        p.add_constraint([(y, 2.0)], Sense::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective + 36.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.values[x] - 2.0).abs() < 1e-6);
        assert!((sol.values[y] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y s.t. x + y = 5, x - y = 1 → (3, 2), objective 5.
        let mut p = Problem::minimize();
        let x = p.add_continuous(1.0, 0.0, f64::INFINITY);
        let y = p.add_continuous(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Eq, 5.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Sense::Eq, 1.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x] - 3.0).abs() < 1e-6);
        assert!((sol.values[y] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_lp(&p).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::minimize();
        let _x = p.add_continuous(-1.0, 0.0, f64::INFINITY);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_bind_without_rows() {
        // max x + y, x,y <= 1 via bounds only, x + y <= 1.5 via a row.
        let mut p = Problem::minimize();
        let x = p.add_continuous(-1.0, 0.0, 1.0);
        let y = p.add_continuous(-1.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1.5).abs() < 1e-6);
        assert!(sol.values[x] <= 1.0 + 1e-9 && sol.values[y] <= 1.0 + 1e-9);
    }

    #[test]
    fn negative_rhs_rows_are_scaled() {
        // x >= -3 written as -x <= 3 with negative coefficients; and a
        // constraint with negative rhs: x - y <= -1 → y >= x + 1.
        let mut p = Problem::minimize();
        let x = p.add_continuous(0.0, 0.0, 10.0);
        let y = p.add_continuous(1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0), (y, -1.0)], Sense::Le, -1.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[y] - 1.0).abs() < 1e-6, "y = {}", sol.values[y]);
    }

    #[test]
    fn lp_relaxation_of_binary_problem_is_fractional() {
        // min -(x + y) s.t. x + y <= 1.5, x,y binary: LP gives 1.5.
        let mut p = Problem::minimize();
        let x = p.add_binary(-1.0);
        let y = p.add_binary(-1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Le, 1.5);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_ties_do_not_cycle() {
        // A classically degenerate LP (multiple constraints active at the
        // origin). Beale's cycling example adapted: ensure termination.
        let mut p = Problem::minimize();
        let x1 = p.add_continuous(-0.75, 0.0, f64::INFINITY);
        let x2 = p.add_continuous(150.0, 0.0, f64::INFINITY);
        let x3 = p.add_continuous(-0.02, 0.0, f64::INFINITY);
        let x4 = p.add_continuous(6.0, 0.0, f64::INFINITY);
        p.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Sense::Le,
            0.0,
        );
        p.add_constraint([(x3, 1.0)], Sense::Le, 1.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective + 0.05).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn fixed_variables_via_bounds() {
        let mut p = Problem::minimize();
        let x = p.add_binary(1.0);
        let y = p.add_binary(1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Ge, 1.0);
        // Fix x = 1 through bounds (as branch-and-bound does).
        let sol = solve_lp_with_bounds(&p, &[1.0, 0.0], &[1.0, 1.0], 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x] - 1.0).abs() < 1e-9);
        assert!(sol.values[y].abs() < 1e-9);
        // Crossed bounds short-circuit to infeasible.
        let sol = solve_lp_with_bounds(&p, &[1.0, 0.0], &[0.0, 1.0], 10_000);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Duplicate equality rows leave an artificial basic at zero.
        let mut p = Problem::minimize();
        let x = p.add_continuous(1.0, 0.0, 10.0);
        let y = p.add_continuous(2.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Sense::Eq, 4.0);
        p.add_constraint([(x, 2.0), (y, 2.0)], Sense::Eq, 8.0);
        let sol = solve_lp(&p);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x] - 4.0).abs() < 1e-6);
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    /// Whether `x` satisfies every row and the overridden boxes of the
    /// relaxation.
    fn relaxed_feasible(p: &Problem, lower: &[f64], upper: &[f64], x: &[f64]) -> bool {
        let boxed = x
            .iter()
            .zip(lower.iter().zip(upper))
            .all(|(&v, (&l, &u))| v >= l - 1e-6 && v <= u + 1e-6);
        boxed
            && p.constraints().iter().all(|c| {
                let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v]).sum();
                match c.sense {
                    Sense::Le => lhs <= c.rhs + 1e-6,
                    Sense::Ge => lhs >= c.rhs - 1e-6,
                    Sense::Eq => (lhs - c.rhs).abs() <= 1e-6,
                }
            })
    }

    /// Fixes `j` at `value` on the live tableau and checks the result
    /// against a from-scratch solve of the same child.
    fn assert_child_matches_scratch(
        p: &Problem,
        tab: &mut Tableau,
        lower: &mut [f64],
        upper: &mut [f64],
        j: usize,
        value: f64,
    ) -> LpStatus {
        lower[j] = value;
        upper[j] = value;
        let live = tab
            .tighten_and_reoptimize(p, lower, upper, 10_000)
            .expect("fixing a variable tightens its box");
        let scratch = solve_lp_with_bounds(p, lower, upper, 10_000);
        assert_eq!(live.status, scratch.status, "fixing x{j} = {value}");
        if live.status == LpStatus::Optimal {
            assert!(
                (live.objective - scratch.objective).abs() < 1e-6,
                "fixing x{j} = {value}: live {} vs scratch {}",
                live.objective,
                scratch.objective
            );
            assert!(relaxed_feasible(p, lower, upper, &live.values));
        }
        live.status
    }

    #[test]
    fn infeasible_child_is_detected_on_the_live_tableau() {
        // a + b >= 1.5 relaxes to (1, 0.5) or (0.5, 1); fixing either
        // variable at 0 leaves at most 1 on the left.
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let b = p.add_binary(2.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 1.5);
        let (mut lower, mut upper) = (vec![0.0; 2], vec![1.0; 2]);
        let (root, tab) = Tableau::solve(&p, &lower, &upper, 10_000);
        assert!((root.objective - 2.0).abs() < 1e-9, "a = 1, b = 0.5");
        let mut tab = tab.expect("an optimal solve keeps its tableau");
        let status = assert_child_matches_scratch(&p, &mut tab, &mut lower, &mut upper, b, 0.0);
        assert_eq!(status, LpStatus::Infeasible);
    }

    #[test]
    fn only_boxes_inside_the_live_ones_reuse_the_tableau() {
        // min a + 2b, a + b >= 1.5: the root sits at (1, 0.5).
        let mut p = Problem::minimize();
        let a = p.add_binary(1.0);
        let b = p.add_binary(2.0);
        p.add_constraint([(a, 1.0), (b, 1.0)], Sense::Ge, 1.5);
        let (root, tab) = Tableau::solve(&p, &[0.0; 2], &[1.0; 2], 10_000);
        let mut tab = tab.unwrap();

        // The same boxes: the stored optimum, no pivots.
        let again = tab
            .tighten_and_reoptimize(&p, &[0.0; 2], &[1.0; 2], 10_000)
            .unwrap();
        assert_eq!(again.values, root.values);
        assert_eq!(again.iterations, 0);

        // b fixed at 1 is inside; flipping it to 0 afterwards, or freeing
        // it again, is not, and leaves the tableau where it was.
        let child = tab
            .tighten_and_reoptimize(&p, &[0.0, 1.0], &[1.0, 1.0], 10_000)
            .unwrap();
        assert!((child.objective - 2.5).abs() < 1e-9, "a = 0.5, b = 1");
        assert!(tab
            .tighten_and_reoptimize(&p, &[0.0, 0.0], &[1.0, 0.0], 10_000)
            .is_none());
        assert!(tab
            .tighten_and_reoptimize(&p, &[0.0; 2], &[1.0; 2], 10_000)
            .is_none());
        let still = tab
            .tighten_and_reoptimize(&p, &[0.0, 1.0], &[1.0, 1.0], 10_000)
            .unwrap();
        assert_eq!(still.values, child.values);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// A dive of two fixings on one live tableau agrees, step by step,
        /// with solving each child from scratch — status (infeasible
        /// children included), objective and feasibility. The first
        /// fixing branches on the most fractional variable, as
        /// branch-and-bound does.
        #[test]
        fn reoptimized_children_match_scratch_solves(
            costs in proptest::collection::vec(-5i32..=5, 2..8),
            rows in proptest::collection::vec(
                (proptest::collection::vec(-3i32..=3, 8), 0u8..3, -4i32..=6),
                1..5,
            ),
            picks in (0usize..8, 0u8..2, 0usize..8, 0u8..2),
        ) {
            let n = costs.len();
            let mut p = Problem::minimize();
            for &c in &costs {
                p.add_binary(f64::from(c));
            }
            for (coeffs, sense, rhs) in &rows {
                let sense = [Sense::Le, Sense::Ge, Sense::Eq][usize::from(*sense)];
                let terms = coeffs[..n]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a != 0)
                    .map(|(j, &a)| (j, f64::from(a)));
                p.add_constraint(terms, sense, f64::from(*rhs));
            }
            let (mut lower, mut upper) = (vec![0.0; n], vec![1.0; n]);
            let (root, tab) = Tableau::solve(&p, &lower, &upper, 10_000);
            if let Some(mut tab) = tab {
                let (j1, v1, j2, v2) = picks;
                let frac = |j: &usize| (root.values[*j] - root.values[*j].round()).abs();
                let j1 = (0..n)
                    .filter(|j| frac(j) > 1e-6)
                    .max_by(|a, b| frac(a).total_cmp(&frac(b)))
                    .unwrap_or(j1 % n);
                let status = assert_child_matches_scratch(
                    &p, &mut tab, &mut lower, &mut upper, j1, f64::from(v1),
                );
                if status == LpStatus::Optimal && j2 % n != j1 {
                    assert_child_matches_scratch(
                        &p, &mut tab, &mut lower, &mut upper, j2 % n, f64::from(v2),
                    );
                }
            }
        }
    }
}
