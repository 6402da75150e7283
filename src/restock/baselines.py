"""Non-learning baselines: order-up-to heuristic and perfect-information LP.

The heuristic restores each product to a target level plus forecast demand;
it respects shelf limits but not the shared transport capacity (the
environment scales its orders down when needed).

The LP sees the realized demand window in advance (a perfect-information
relaxation) and maximizes a linear surrogate that is never below a
period's business reward (see ``_penalty_weights``), so its optimum bounds
the mean business reward of every policy on the same window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RewardMod
from .env import Simulator, apply_demand_and_spoilage


def heuristic_action(x: np.ndarray, forecast: np.ndarray,
                     target_level: float = 0.5) -> np.ndarray:
    """Order up to ``target_level`` plus forecast demand, clipped to shelf."""
    u = np.maximum(0.0, target_level + forecast - x)
    return np.minimum(u, 1.0 - x)


def run_heuristic_episode(sim: Simulator, start: int, length: int,
                          x0: np.ndarray, target_level: float = 0.5):
    """Roll the heuristic over a demand window.

    Returns (per-period business rewards, the episode mean of
    ``StepOutcome.component_means``, executed action matrix) for scoring
    and surrogate comparisons.
    """
    sim.reset(x0, start)
    rewards = np.empty(length)
    executed = np.empty((length, sim.catalog.num_products))
    totals = np.zeros(7)
    for k in range(length):
        u = heuristic_action(sim.x, sim.forecast, target_level)
        out = sim.step(u)
        rewards[k] = out.component_means[0]
        executed[k] = out.executed
        totals += out.component_means
    return rewards, totals / length, executed


# ------------------------------------------------------- perfect-info LP

class LpLayout:
    """Variable and row indices of the perfect-information program.

    Every field is an index array, built once. The variables are four
    (periods, p) blocks, in this order: orders ``u``, lost sales ``l``, and
    the end-of-period inventory (before the next period's order) split at
    the critical level kappa into ``xb`` in [0, kappa] and ``xa`` in
    [0, 1 - kappa], so the shortfall ``kappa - xb`` needs no row. Inside a
    block, ``t * p + i`` is the index.

    Rows go period by period: product by product, its dynamics (=) and
    shelf (<, not in period 0, where the bound on ``u`` does its work) rows,
    then the period's volume (<) and weight (<) rows. So ``shelf`` is
    (periods - 1, p) and covers periods 1 onward.

    This order is a contract: the optimal face is degenerate, so moving a
    row or a column can change the vertex that the simplex ends on, and with
    it the ``iterations`` that ``lp_bound.csv`` records.
    """

    def __init__(self, products: int, periods: int):
        p = self.products = products
        self.periods = periods
        self.u, self.l, self.xb, self.xa = np.arange(
            4 * periods * p).reshape(4, periods, p)
        self.num_vars = 4 * periods * p

        later = np.arange(periods) > 0       # periods that carry shelf rows
        per_product = 1 + later              # rows per product in a period
        width = per_product * p + 2          # rows per period
        start = np.cumsum(width) - width     # first row of each period
        self.dynamics = start[:, None] + np.arange(p) * per_product[:, None]
        self.shelf = self.dynamics[1:] + 1
        self.volume = start + width - 2
        self.weight = self.volume + 1
        self.num_rows = int(width.sum())


def _penalty_weights(catalog, demand: np.ndarray, mod: RewardMod):
    """Per-unit LP weights ``(lost, kappa)``, each term at most the reward
    term it stands for: a lost sale ``l <= w`` costs ``l * (1 + 1/w)`` <=
    empty + refused (``w = 0`` fixes ``l = 0``), a shortfall ``s`` costs
    ``s / kappa`` <= the critical flag, ``kappa`` the override if set."""
    lost = 1.0 + np.divide(1.0, demand, out=np.zeros_like(demand),
                           where=demand > 0.0)
    kappa = catalog.critical_level if mod.critical_override is None \
        else mod.critical_override
    return lost, kappa


def build_perfect_info_lp(catalog, x0: np.ndarray, demand: np.ndarray,
                          mod: RewardMod = RewardMod()):
    """Assemble the hindsight LP over a realized demand window.

    Requires spoilage rates strictly below 1 (waste is then proportional to
    the carried inventory) and a starting inventory ``x0`` in [0, 1].
    Returns (LpProblem, LpLayout); the problem is a maximization whose
    objective is the window's summed surrogate reward.
    """
    import scipy.sparse as sp
    from . import simplex
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[0] == 0:
        raise ValueError("demand window must be a non-empty (periods, p) matrix")
    p = catalog.num_products
    x0 = np.asarray(x0, dtype=float)
    if demand.shape[1] != p or x0.shape != (p,):
        raise ValueError("dimension mismatch between catalog, x0 and demand")
    if not np.all((x0 >= 0.0) & (x0 <= 1.0)):
        raise ValueError("x0 must be finite and lie in [0, 1]")
    delta = catalog.spoilage_rate
    if np.any(delta >= 1.0):
        raise ValueError("perfect-information LP requires spoilage rates < 1")
    lost, kappa = _penalty_weights(catalog, demand, mod)
    periods = demand.shape[0]
    lay = LpLayout(p, periods)
    keep = 1.0 - delta

    # objective: maximize sum_t of the per-period surrogate reward; its +1
    # cancels the -1/p of each product's shortfall cost (kappa - xb)/(p kappa)
    waste = mod.wastage_weight * delta / (1.0 - delta) / p
    c = np.zeros(lay.num_vars)
    c[lay.l] = -lost / p
    c[lay.xb] = 1.0 / (p * kappa) - waste
    c[lay.xa] = -waste
    lo = np.zeros(lay.num_vars)
    hi = np.ones(lay.num_vars)
    hi[lay.l] = demand
    hi[lay.u[0]] = 1.0 - x0      # period 0's shelf limit is a bound
    hi[lay.xb] = kappa
    hi[lay.xa] = 1.0 - kappa

    senses = np.full(lay.num_rows, "<")
    b = np.zeros(lay.num_rows)
    # inventory recursion: x_end = (1-delta) * (x_begin + u - w + l)
    senses[lay.dynamics] = "="
    b[lay.dynamics[0]] = keep * (x0 - demand[0])
    b[lay.dynamics[1:]] = -keep * demand[1:]
    # shelf limit on the order placed at the START of periods 1 onward,
    # and the shared transport capacity on the requested orders
    b[lay.shelf] = 1.0
    b[lay.volume] = catalog.v_max
    b[lay.weight] = catalog.c_max

    # one (row, column, coefficient) triple per nonzero, broadcast per
    # term; the inventory is xb + xa wherever it appears
    x = np.stack([lay.xb, lay.xa])
    terms = [np.broadcast_arrays(*term) for term in (
        (lay.dynamics, x, 1.0),
        (lay.dynamics, lay.u, -keep),
        (lay.dynamics, lay.l, -keep),
        (lay.dynamics[1:], x[:, :-1], -keep),
        (lay.shelf, lay.u[1:], 1.0),
        (lay.shelf, x[:, :-1], 1.0),
        (lay.volume[:, None], lay.u, catalog.unit_volume),
        (lay.weight[:, None], lay.u, catalog.unit_weight),
    )]
    rows, cols, vals = (np.concatenate([term[k].ravel() for term in terms])
                        for k in range(3))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(lay.num_rows, lay.num_vars))
    problem = simplex.LpProblem(
        c=c, A=A, senses=senses, b=b, lo=lo, hi=hi, maximize=True)
    return problem, lay


def surrogate_scores(catalog, x0: np.ndarray, demand: np.ndarray,
                     executed: np.ndarray,
                     mod: RewardMod = RewardMod()) -> np.ndarray:
    """Per-period surrogate rewards of a concrete executed-action sequence.

    Uses the LP's linear penalty terms (lost sales, critical shortfall,
    waste), so any feasible trajectory scores at or below the LP optimum
    on the same window, and each period at or above its business reward.
    """
    demand = np.asarray(demand, dtype=float)
    executed = np.asarray(executed, dtype=float)
    lost_weight, kappa = _penalty_weights(catalog, demand, mod)
    delta = catalog.spoilage_rate
    x = np.asarray(x0, dtype=float).copy()
    scores = np.empty(demand.shape[0])
    for t in range(demand.shape[0]):
        x, waste, lost = apply_demand_and_spoilage(x + executed[t], demand[t],
                                                   delta)
        shortfall = np.maximum(0.0, kappa - x)
        scores[t] = (1.0
                     - (lost_weight[t] * lost).mean()
                     - (shortfall / kappa).mean()
                     - mod.wastage_weight * waste.mean())
    return scores


@dataclass(frozen=True)
class LpBoundResult:
    status: str                    # 'optimal' or 'dnf'
    mean_surrogate: float | None   # LP optimum / periods
    solver_status: str
    iterations: int                # simplex pivots
    kkt_residual: float | None     # largest KKT violation of the optimum


def lp_upper_bound(catalog, x0: np.ndarray, demand: np.ndarray,
                   time_limit: float | None = None,
                   mod: RewardMod = RewardMod()) -> LpBoundResult:
    """Hindsight LP bound on the mean business reward over a window.

    HiGHS solves the perfect-information LP within ``time_limit``; a run
    out of time reports status 'dnf'. An optimal solve carries its
    certificate: ``kkt_residual`` is the largest of the primal, dual and
    complementary-slackness residuals.
    """
    from . import simplex
    problem, lay = build_perfect_info_lp(catalog, x0, demand, mod)
    sol = simplex.solve_lp(problem, time_limit=time_limit)
    if sol.status != "optimal":
        status = "dnf" if sol.status == "time_limit" else sol.status
        return LpBoundResult(status=status, mean_surrogate=None,
                             solver_status=sol.status,
                             iterations=sol.iterations, kkt_residual=None)
    kkt = simplex.kkt_residuals(problem, sol)
    return LpBoundResult(status="optimal",
                         mean_surrogate=float(sol.objective / lay.periods),
                         solver_status=sol.status, iterations=sol.iterations,
                         kkt_residual=max(kkt.values()))
