"""Linear programming: a HiGHS bridge plus KKT certificates.

An ``LpProblem`` is the program the lab solves: maximize ``c @ x`` subject
to ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and ``lo <= x <= hi``.
``solve_lp`` hands its two row blocks to scipy's HiGHS as they are, and maps
its status, solution and row duals back onto ``LpSolution``. HiGHS solves it
with its dual simplex method (Huangfu & Hall, Math. Prog. Comp. 2018), which
ends on a basic solution: a vertex, with the duals of its basis. The duals
come in HiGHS's own row order, ``A_ub``'s rows then ``A_eq``'s, and the dual
of a row is the objective change per unit of extra right-hand side.
scipy loads on first use.

``kkt_residuals`` measures how far a solution is from satisfying the
optimality conditions (primal feasibility, dual feasibility and
complementary slackness), so a bound can carry its own certificate instead
of trusting the solver's status alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

_AT_BOUND_TOL = 1e-7  # a variable this close to a bound counts as at it


@dataclass(frozen=True)
class LpProblem:
    """max c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, lo <= x <= hi,
    with the row blocks given as scipy.sparse matrices."""

    c: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        for name in ("A_ub", "A_eq"):   # a dense block has no tocsr
            object.__setattr__(self, name, getattr(self, name).tocsr())
        for name in ("c", "b_ub", "b_eq", "lo", "hi"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        n = self.c.size
        if not self.c.shape == self.lo.shape == self.hi.shape == (n,):
            raise ValueError("objective/bounds do not match the variable count")
        for A, b in ((self.A_ub, self.b_ub), (self.A_eq, self.b_eq)):
            if b.ndim != 1 or A.shape != (b.size, n):
                raise ValueError("a row block does not match its rhs or c")
        if np.any(self.lo > self.hi):
            raise ValueError("inconsistent bounds: lo > hi")
        if not np.all(np.isfinite(np.r_[self.c, self.b_ub, self.b_eq])):
            raise ValueError("objective and rhs must be finite")
        if np.any(~np.isfinite(self.lo)):
            raise ValueError("lower bounds must be finite")


@dataclass(frozen=True)
class LpSolution:
    status: str     # optimal | infeasible | unbounded | time_limit
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # A_ub's rows, then A_eq's
    iterations: int = 0  # simplex pivots
    engine: str = "scipy"


def solve_lp(problem: LpProblem,
             time_limit: float | None = None) -> LpSolution:
    """Solve an LP with HiGHS's dual simplex within ``time_limit`` seconds
    (None: no limit); a zero ``time_limit`` is spent already, so the solve
    stops with status ``time_limit`` at once."""
    if not 0.0 <= (time_limit or 0.0) < np.inf:
        raise ValueError(f"need a finite time_limit >= 0, got {time_limit}")
    if time_limit == 0.0:
        return LpSolution(status="time_limit")
    import scipy.optimize
    # linprog presolves by default; on the hindsight LP that only costs memory
    options = {"presolve": False, "time_limit": time_limit}
    res = scipy.optimize.linprog(
        -problem.c, A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=np.column_stack([problem.lo, problem.hi]),
        method="highs-ds", options=options)

    # with no pivot cap, HiGHS stops early (status 1) only on the time limit
    status_map = {0: "optimal", 1: "time_limit", 2: "infeasible",
                  3: "unbounded", 4: "numerical_error"}
    status = status_map.get(res.status, "numerical_error")
    iterations = int(res.nit or 0)
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)
    # HiGHS minimizes -c, so its marginals are the negated duals
    duals = -np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
    return LpSolution(status="optimal", x=res.x.copy(),
                      objective=float(problem.c @ res.x),
                      duals=duals, iterations=iterations)


# ---------------------------------------------------------- certificates

def kkt_residuals(problem: LpProblem, solution: LpSolution) -> dict[str, float]:
    """Max primal/dual/complementary-slackness violations of a solution."""
    x = solution.x
    y_ub, y_eq = np.split(solution.duals, [problem.A_ub.shape[0]])
    slack = problem.b_ub - problem.A_ub @ x
    primal = max(float(np.max(-slack, initial=0.0)),
                 float(np.max(np.abs(problem.b_eq - problem.A_eq @ x),
                              initial=0.0)),
                 float(np.max(problem.lo - x, initial=0.0)),
                 float(np.max(x - problem.hi, initial=0.0)))
    comp = float(np.max(np.abs(y_ub * slack), initial=0.0))

    # reduced costs: raising x_j at its lower bound (or lowering it at its
    # upper bound) must not help, and a free-floating x_j needs zero cost
    z = problem.c - problem.A_ub.T @ y_ub - problem.A_eq.T @ y_eq
    at_lo = x <= problem.lo + _AT_BOUND_TOL
    at_hi = np.isfinite(problem.hi) & (x >= problem.hi - _AT_BOUND_TOL)
    col_viol = np.where(at_lo & at_hi, 0.0,
                        np.where(at_lo, z, np.where(at_hi, -z, np.abs(z))))
    # a <= row's dual must not be negative: relaxing the row cannot hurt
    dual = max(float(np.max(-y_ub, initial=0.0)),
               float(np.max(col_viol, initial=0.0)))
    return {"primal": primal, "dual": dual, "complementary": comp}


def certify_optimal(problem: LpProblem, solution: LpSolution,
                    atol: float = 1e-7) -> bool:
    if solution.status != "optimal":
        return False
    return all(v < atol for v in kkt_residuals(problem, solution).values())
