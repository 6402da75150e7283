"""Non-learning baselines: order-up-to heuristic and perfect-information LP.

The heuristic restores each product to a target level plus forecast demand;
it respects shelf limits but not the shared transport capacity (the
environment scales its orders down when needed).

The LP sees the realized demand window in advance and maximizes a linear
surrogate of the business reward: lost sales stand in for stockouts,
below-critical shortfall for the critical flags, and the max-min inventory
range for the percentile spread. Scores of concrete trajectories under the
same surrogate are therefore bounded by the LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .env import RewardParams, Simulator, StoreState, step


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
        u = heuristic_action(sim.state.x, sim.forecaster.forecast, target_level)
        out = sim.step(u)
        rewards[k] = out.business_reward
        executed[k] = out.executed
        totals += out.component_means
    return rewards, totals / length, executed


# ------------------------------------------------------- perfect-info LP

class LpLayout:
    """Variable and row indices of the perfect-information program.

    Every field is an index array, built once. Variables come in six
    blocks, in this order: orders ``u``, lost sales ``l``, end-of-period
    inventories ``x`` (before the next period's order), critical
    shortfalls ``m``, each (periods, p) with index ``t * p + i`` inside
    its block, then the per-period range trackers ``hi`` and ``lo``.

    Rows go period by period. Each period holds, product by product, its
    dynamics (=), shelf (<, not in period 0, where the bound on ``u`` does
    its work), critical (>), range-hi (>) and range-lo (>) rows, and then
    the period's volume (<) and weight (<) rows. ``shelf`` is therefore
    (periods - 1, p) and covers periods 1 onward.

    This order is a contract: the optimal face is degenerate, so moving a
    row or a column can change the vertex that crossover ends on, and with
    it ``LpBoundResult.mean_true_reward`` and the iteration count.
    """

    def __init__(self, products: int, periods: int):
        p = self.products = products
        self.periods = periods
        self.u, self.l, self.x, self.m = np.arange(
            4 * periods * p).reshape(4, periods, p)
        self.hi = 4 * periods * p + np.arange(periods)
        self.lo = self.hi + periods
        self.num_vars = 4 * periods * p + 2 * periods

        later = np.arange(periods) > 0       # periods that carry shelf rows
        per_product = 4 + later              # rows per product in a period
        width = per_product * p + 2          # rows per period
        start = np.cumsum(width) - width     # first row of each period
        self.dynamics = start[:, None] + np.arange(p) * per_product[:, None]
        self.shelf = self.dynamics[1:] + 1
        self.critical = self.dynamics + 1 + later[:, None]
        self.range_hi = self.critical + 1
        self.range_lo = self.critical + 2
        self.volume = start + width - 2
        self.weight = self.volume + 1
        self.num_rows = int(width.sum())


def build_perfect_info_lp(catalog, x0: np.ndarray, demand: np.ndarray,
                          wastage_weight: float = 1.0):
    """Assemble the hindsight LP over a realized demand window.

    Requires spoilage rates strictly below 1 (waste is then proportional to
    the carried inventory) and a starting inventory ``x0`` in [0, 1].
    Returns (LpProblem, LpLayout); the problem is a maximization whose
    objective already includes the +1 per period.
    """
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
    kappa = catalog.critical_level
    periods = demand.shape[0]
    lay = LpLayout(p, periods)
    keep = 1.0 - delta

    # objective: maximize sum_t of the per-period surrogate reward
    c = np.zeros(lay.num_vars)
    c[lay.l] = -(1.0 + 1.0 / float(kappa.mean())) / p
    c[lay.x] = -(wastage_weight * delta / (1.0 - delta) / p)
    c[lay.m] = -1.0 / (p * kappa)
    c[lay.hi] = -1.0
    c[lay.lo] = 1.0
    lo = np.zeros(lay.num_vars)
    hi = np.ones(lay.num_vars)
    hi[lay.l] = demand
    hi[lay.u[0]] = 1.0 - x0      # period 0's shelf limit is a bound

    senses = np.full(lay.num_rows, ">")
    b = np.zeros(lay.num_rows)
    # inventory recursion: x_end = (1-delta) * (x_begin + u - w + l)
    senses[lay.dynamics] = "="
    b[lay.dynamics[0]] = keep * (x0 - demand[0])
    b[lay.dynamics[1:]] = -keep * demand[1:]
    # shelf limit on the order placed at the START of periods 1 onward,
    # and the shared transport capacity on the requested orders
    senses[lay.shelf] = senses[lay.volume] = senses[lay.weight] = "<"
    b[lay.shelf] = 1.0
    b[lay.volume] = catalog.v_max
    b[lay.weight] = catalog.c_max
    # shortfall below the critical level; the range rows keep b = 0
    b[lay.critical] = kappa

    # one (row, column, coefficient) triple per nonzero, broadcast per term
    terms = [np.broadcast_arrays(*term) for term in (
        (lay.dynamics, lay.x, 1.0),
        (lay.dynamics, lay.u, -keep),
        (lay.dynamics, lay.l, -keep),
        (lay.dynamics[1:], lay.x[:-1], -keep),
        (lay.shelf, lay.u[1:], 1.0),
        (lay.shelf, lay.x[:-1], 1.0),
        (lay.critical, lay.m, 1.0),
        (lay.critical, lay.x, 1.0),
        (lay.range_hi, lay.hi[:, None], 1.0),
        (lay.range_hi, lay.x, -1.0),
        (lay.range_lo, lay.x, 1.0),
        (lay.range_lo, lay.lo[:, None], -1.0),
        (lay.volume[:, None], lay.u, catalog.unit_volume),
        (lay.weight[:, None], lay.u, catalog.unit_weight),
    )]
    rows, cols, vals = (np.concatenate([term[k].ravel() for term in terms])
                        for k in range(3))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(lay.num_rows, lay.num_vars))
    problem = simplex.LpProblem(
        c=c, A=A, senses=senses, b=b, lo=lo, hi=hi, maximize=True,
        c0=float(periods))
    return problem, lay


def surrogate_scores(catalog, x0: np.ndarray, demand: np.ndarray,
                     executed: np.ndarray,
                     wastage_weight: float = 1.0) -> np.ndarray:
    """Per-period surrogate rewards of a concrete executed-action sequence.

    Uses the LP's linear penalty terms (lost sales, critical shortfall,
    waste, max-min range) so any feasible trajectory scores at or below the
    LP optimum on the same window.
    """
    demand = np.asarray(demand, dtype=float)
    executed = np.asarray(executed, dtype=float)
    kappa_bar = float(catalog.critical_level.mean())
    delta = catalog.spoilage_rate
    x = np.asarray(x0, dtype=float).copy()
    scores = np.empty(demand.shape[0])
    for t in range(demand.shape[0]):
        x_plus = x + executed[t]
        lost = np.maximum(0.0, demand[t] - x_plus)
        residual = np.maximum(0.0, x_plus - demand[t])
        waste = delta * residual
        x = (1.0 - delta) * residual
        shortfall = np.maximum(0.0, catalog.critical_level - x)
        spread = float(x.max() - x.min())
        scores[t] = (1.0
                     - (1.0 + 1.0 / kappa_bar) * lost.mean()
                     - (shortfall / catalog.critical_level).mean()
                     - wastage_weight * waste.mean()
                     - spread)
    return scores


@dataclass(frozen=True)
class LpBoundResult:
    status: str                    # 'optimal' or 'dnf'
    mean_surrogate: float | None   # LP optimum / periods
    # the LP's actions replayed through the env. The optimal face is
    # degenerate, so this replays the vertex that HiGHS's crossover ends
    # on, which depends on the LP's row order (see ``LpLayout``)
    mean_true_reward: float | None
    actions: np.ndarray | None     # executed orders (periods, p)
    solver_status: str
    iterations: int                # interior-point plus crossover
    kkt_residual: float | None     # largest KKT violation of the optimum


def lp_upper_bound(catalog, x0: np.ndarray, demand: np.ndarray,
                   max_iters: int = 500_000,
                   time_limit: float | None = None,
                   reward: RewardParams = RewardParams()) -> LpBoundResult:
    """Hindsight LP bound over a window, plus its replayed true reward.

    HiGHS solves the perfect-information LP within ``max_iters`` and
    ``time_limit``; a run out of either budget reports status 'dnf'. An
    optimal solve carries its certificate: ``kkt_residual`` is the largest
    of the primal, dual and complementary-slackness residuals.
    """
    problem, lay = build_perfect_info_lp(
        catalog, x0, demand, wastage_weight=reward.wastage_weight)
    sol = simplex.solve_lp(problem, max_iters=max_iters,
                           time_limit=time_limit)
    if sol.status != "optimal":
        status = "dnf" if sol.status in ("iteration_limit", "time_limit") \
            else sol.status
        return LpBoundResult(status=status, mean_surrogate=None,
                             mean_true_reward=None, actions=None,
                             solver_status=sol.status,
                             iterations=sol.iterations, kkt_residual=None)
    kkt = simplex.kkt_residuals(problem, sol)

    periods = lay.periods
    actions = sol.x[lay.u]                               # (periods, p)

    # replay the LP's plan through the real dynamics
    state = StoreState(t=0, x=np.asarray(x0, dtype=float).copy())
    true_rewards = np.empty(periods)
    for t in range(periods):
        out = step(catalog, state, actions[t], demand[t], reward)
        true_rewards[t] = out.business_reward
        state = out.next_state

    return LpBoundResult(
        status="optimal",
        mean_surrogate=float(sol.objective / periods),
        mean_true_reward=float(true_rewards.mean()),
        actions=actions,
        solver_status=sol.status,
        iterations=sol.iterations,
        kkt_residual=max(kkt.values()))
