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

@dataclass(frozen=True)
class LpLayout:
    """Variable indexing for the perfect-information program.

    Blocks in order: orders u[i,t], lost sales l[i,t], end-of-period
    inventories x[i,t+1], critical shortfalls m[i,t], then per-period range
    trackers hi[t] and lo[t]. Index within a block is t * p + i.
    """

    products: int
    periods: int

    def _block(self, block: int, i: int, t: int) -> int:
        return block * self.products * self.periods + t * self.products + i

    def u(self, i, t):
        return self._block(0, i, t)

    def l(self, i, t):
        return self._block(1, i, t)

    def x(self, i, t):
        """Inventory at the END of period t (pre-replenishment of t+1)."""
        return self._block(2, i, t)

    def m(self, i, t):
        return self._block(3, i, t)

    def hi(self, t):
        return 4 * self.products * self.periods + t

    def lo(self, t):
        return 4 * self.products * self.periods + self.periods + t

    @property
    def num_vars(self) -> int:
        return 4 * self.products * self.periods + 2 * self.periods

    # row bookkeeping mirrors the assembly order in build_perfect_info_lp:
    # per period, p blocks of (dynamics, shelf if t>0, critical, range-hi,
    # range-lo) rows, then the two capacity rows.
    def rows_before_period(self, t: int) -> int:
        p = self.products
        if t == 0:
            return 0
        return (4 * p + 2) + (t - 1) * (5 * p + 2)

    def capacity_rows(self, t: int) -> tuple[int, int]:
        """(volume row, weight row) indices for period t."""
        end = self.rows_before_period(t + 1)
        return end - 2, end - 1


def build_perfect_info_lp(catalog, x0: np.ndarray, demand: np.ndarray,
                          wastage_weight: float = 1.0):
    """Assemble the hindsight LP over a realized demand window.

    Requires spoilage rates strictly below 1 (waste is then proportional to
    the carried inventory). Returns (LpProblem, LpLayout); the problem is a
    maximization whose objective already includes the +1 per period.
    """
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[0] == 0:
        raise ValueError("demand window must be a non-empty (periods, p) matrix")
    p = catalog.num_products
    if demand.shape[1] != p or len(x0) != p:
        raise ValueError("dimension mismatch between catalog, x0 and demand")
    delta = catalog.spoilage_rate
    if np.any(delta >= 1.0):
        raise ValueError("perfect-information LP requires spoilage rates < 1")
    kappa = catalog.critical_level
    periods = demand.shape[0]
    lay = LpLayout(products=p, periods=periods)
    kappa_bar = float(kappa.mean())

    n = lay.num_vars
    lo = np.zeros(n)
    hi = np.ones(n)
    c = np.zeros(n)

    # objective: maximize sum_t of the per-period surrogate reward
    waste_coef = wastage_weight * delta / (1.0 - delta) / p
    lost_coef = (1.0 + 1.0 / kappa_bar) / p
    for t in range(periods):
        for i in range(p):
            hi[lay.l(i, t)] = demand[t, i]
            c[lay.l(i, t)] = -lost_coef
            c[lay.x(i, t)] = -waste_coef[i]
            c[lay.m(i, t)] = -1.0 / (p * kappa[i])
        c[lay.hi(t)] = -1.0
        c[lay.lo(t)] = 1.0

    rows_i, cols_j, vals = [], [], []
    senses, b = [], []

    def add(coefs, sense, rhs):
        r = len(b)
        for j, v in coefs:
            rows_i.append(r)
            cols_j.append(j)
            vals.append(v)
        senses.append(sense)
        b.append(rhs)

    keep = 1.0 - delta
    for t in range(periods):
        for i in range(p):
            # inventory recursion: x_end = (1-delta) * (x_begin + u - w + l)
            coefs = [(lay.x(i, t), 1.0), (lay.u(i, t), -keep[i]),
                     (lay.l(i, t), -keep[i])]
            if t == 0:
                rhs = keep[i] * (x0[i] - demand[t, i])
            else:
                coefs.append((lay.x(i, t - 1), -keep[i]))
                rhs = -keep[i] * demand[t, i]
            add(coefs, "=", rhs)

            # shelf limit on the order placed at the START of period t
            if t == 0:
                hi[lay.u(i, 0)] = max(0.0, 1.0 - x0[i])
            else:
                add([(lay.u(i, t), 1.0), (lay.x(i, t - 1), 1.0)], "<", 1.0)

            # shortfall below the critical level
            add([(lay.m(i, t), 1.0), (lay.x(i, t), 1.0)], ">", kappa[i])

            # inventory range trackers
            add([(lay.hi(t), 1.0), (lay.x(i, t), -1.0)], ">", 0.0)
            add([(lay.x(i, t), 1.0), (lay.lo(t), -1.0)], ">", 0.0)

        # shared transport capacity on the requested orders
        add([(lay.u(i, t), catalog.unit_volume[i]) for i in range(p)],
            "<", catalog.v_max)
        add([(lay.u(i, t), catalog.unit_weight[i]) for i in range(p)],
            "<", catalog.c_max)

    A = sp.csr_matrix((vals, (rows_i, cols_j)), shape=(len(b), n))
    problem = simplex.LpProblem(
        c=c, A=A, senses=np.array(senses), b=np.array(b, dtype=float),
        lo=lo, hi=hi, maximize=True, c0=float(periods))
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
    mean_true_reward: float | None  # LP actions replayed through the env
    actions: np.ndarray | None     # executed orders (periods, p)
    solver_status: str
    iterations: int
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
    problem, _ = build_perfect_info_lp(
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

    periods, p = np.asarray(demand).shape
    actions = sol.x[:periods * p].reshape(periods, p)   # the u[i, t] block

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
