"""Linear programming: a HiGHS bridge plus KKT certificates.

``solve_lp`` hands an ``LpProblem`` to scipy's HiGHS and maps its status,
solution and row duals back onto ``LpSolution``. HiGHS solves it with its
dual simplex method (Huangfu & Hall, Math. Prog. Comp. 2018), which ends on
a basic solution: a vertex, with the duals of its basis. Row duals are
reported for the stated problem: the dual of a row is the objective change
per unit of extra right-hand side.

``kkt_residuals`` measures how far a solution is from satisfying the
optimality conditions (primal feasibility, dual feasibility and
complementary slackness), so a bound can carry its own certificate instead
of trusting the solver's status alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp

SENSES = ("<", "=", ">")

_AT_BOUND_TOL = 1e-7  # a variable this close to a bound counts as at it


@dataclass(frozen=True)
class LpProblem:
    """max (or min) c @ x subject to A x {<,=,>} b and lo <= x <= hi."""

    c: np.ndarray
    A: sp.csr_matrix
    senses: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        A = self.A if sp.issparse(self.A) else sp.csr_matrix(np.atleast_2d(self.A))
        object.__setattr__(self, "A", A.tocsr())
        for name in ("c", "b", "lo", "hi"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "senses", np.asarray(self.senses, dtype="<U1"))
        m, n = self.A.shape
        if self.c.shape != (n,) or self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValueError("objective/bounds do not match the variable count")
        if self.b.shape != (m,) or self.senses.shape != (m,):
            raise ValueError("rhs/senses do not match the row count")
        if not set(self.senses) <= set(SENSES):
            raise ValueError(f"row senses must be one of {SENSES}")
        if np.any(self.lo > self.hi):
            raise ValueError("inconsistent bounds: lo > hi")
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.b))):
            raise ValueError("objective and rhs must be finite")
        if np.any(~np.isfinite(self.lo)):
            raise ValueError("lower bounds must be finite")


@dataclass(frozen=True)
class LpSolution:
    status: str     # optimal | infeasible | unbounded | time_limit
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
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
    A, b = problem.A, problem.b
    le, ge, eq = (problem.senses == s for s in "<>=")
    A_ub, b_ub = sp.vstack([A[le], -A[ge]]), np.concatenate([b[le], -b[ge]])

    c = -problem.c if problem.maximize else problem.c
    options = {"presolve": True, "time_limit": time_limit}
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A[eq], b_eq=b[eq],
        bounds=np.column_stack([problem.lo, problem.hi]),
        method="highs-ds", options=options)

    # with no pivot cap, HiGHS stops early (status 1) only on the time limit
    status_map = {0: "optimal", 1: "time_limit", 2: "infeasible",
                  3: "unbounded", 4: "numerical_error"}
    status = status_map.get(res.status, "numerical_error")
    iterations = int(res.nit or 0)
    if status != "optimal":
        return LpSolution(status=status, iterations=iterations)

    y = np.zeros(len(b))
    sign = 1.0 if problem.maximize else -1.0
    n_le = int(le.sum())
    y[le] = sign * -res.ineqlin.marginals[:n_le]
    y[ge] = sign * res.ineqlin.marginals[n_le:]
    y[eq] = sign * -res.eqlin.marginals
    return LpSolution(status="optimal", x=res.x.copy(),
                      objective=float(problem.c @ res.x),
                      duals=y, iterations=iterations)


# ---------------------------------------------------------- certificates

def kkt_residuals(problem: LpProblem, solution: LpSolution) -> dict[str, float]:
    """Max primal/dual/complementary-slackness violations of a solution."""
    x, y = solution.x, solution.duals
    le = problem.senses == "<"
    ge = problem.senses == ">"
    slack = problem.b - problem.A @ x
    sign = 1.0 if problem.maximize else -1.0

    row_viol = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))
    primal = max(float(np.max(row_viol, initial=0.0)),
                 float(np.max(problem.lo - x, initial=0.0)),
                 float(np.max(x - problem.hi, initial=0.0)))

    # an inequality's dual must have the sign that relaxing it helps
    wrong_sign = np.where(le, -sign * y, np.where(ge, sign * y, 0.0))
    comp = float(np.max(np.abs(y * slack)[le | ge], initial=0.0))

    # reduced costs: raising x_j at its lower bound (or lowering it at its
    # upper bound) must not help, and a free-floating x_j needs zero cost
    z = sign * (problem.c - problem.A.T @ y)
    at_lo = x <= problem.lo + _AT_BOUND_TOL
    at_hi = np.isfinite(problem.hi) & (x >= problem.hi - _AT_BOUND_TOL)
    col_viol = np.where(at_lo & at_hi, 0.0,
                        np.where(at_lo, z, np.where(at_hi, -z, np.abs(z))))
    dual = max(float(np.max(wrong_sign, initial=0.0)),
               float(np.max(col_viol, initial=0.0)))
    return {"primal": primal, "dual": dual, "complementary": comp}


def certify_optimal(problem: LpProblem, solution: LpSolution,
                    atol: float = 1e-7) -> bool:
    if solution.status != "optimal":
        return False
    return all(v < atol for v in kkt_residuals(problem, solution).values())
