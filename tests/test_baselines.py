import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from restock import baselines, simplex
from restock.baselines import (LpBoundResult, build_perfect_info_lp,
                               heuristic_action, lp_upper_bound,
                               run_heuristic_episode, surrogate_scores)
from restock.config import EnvParams, RewardMod
from restock.datagen import DatasetSpec, generate, initial_inventories
from restock.env import Simulator, step
from restock.simplex import certify_optimal, kkt_residuals, solve_lp
from conftest import general_lp, make_catalog


# ---------------------------------------------------------------- heuristic

def test_heuristic_examples():
    u = heuristic_action(np.array([0.5]), np.array([0.2]), target_level=0.6)
    assert u[0] == pytest.approx(0.3)
    u = heuristic_action(np.array([1.0]), np.array([0.9]), target_level=0.5)
    assert u[0] == 0.0
    u = heuristic_action(np.array([0.9]), np.array([0.0]), target_level=0.5)
    assert u[0] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
       st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
       st.floats(0.0, 1.0))
def test_heuristic_respects_shelf_bounds(x, forecast, target):
    x = np.asarray(x)
    f = np.asarray(forecast[:len(x)])
    u = heuristic_action(x, f, target)
    assert np.all(u >= 0.0)
    assert np.all(u <= 1.0 - x + 1e-12)


def test_heuristic_episode_reports_components():
    ds = generate(DatasetSpec(products=4, horizon=50, train_len=30, seed=2))
    sim = Simulator(ds.catalog, ds.demand, EnvParams(forecast_window=4))
    rewards, means, executed = run_heuristic_episode(
        sim, 0, 30, initial_inventories(4, 0), target_level=0.5)
    assert rewards.shape == (30,)
    assert executed.shape == (30, 4)
    # means: reward, empty, critical, wastage, spread, refused, penalty
    assert means.shape == (7,)
    assert means[0] == pytest.approx(rewards.mean(), abs=1e-12)
    rebuilt = 1.0 - means[1:6].sum()
    assert rebuilt == pytest.approx(rewards.mean(), abs=1e-9)


# ------------------------------------------------------------- LP building

def looped_perfect_info_lp(catalog, x0, demand, reward=RewardMod()):
    """The hindsight LP built one coefficient and one row at a time, with
    its own index arithmetic: the oracle that ``build_perfect_info_lp``
    must equal bit for bit."""
    demand = np.asarray(demand, dtype=float)
    periods, p = demand.shape
    delta = catalog.spoilage_rate
    kappa = [catalog.critical_level[i] if reward.critical_override is None
             else reward.critical_override for i in range(p)]

    def var(block, i, t):
        return block * p * periods + t * p + i

    def u(i, t):
        return var(0, i, t)

    def l(i, t):
        return var(1, i, t)

    def xb(i, t):
        return var(2, i, t)

    def xa(i, t):
        return var(3, i, t)

    n = 4 * p * periods
    lo = np.zeros(n)
    hi = np.ones(n)
    c = np.zeros(n)
    waste_coef = reward.wastage_weight * delta / (1.0 - delta) / p
    for t in range(periods):
        for i in range(p):
            w = demand[t, i]
            hi[l(i, t)] = w
            c[l(i, t)] = -(1.0 + 1.0 / w if w > 0.0 else 1.0) / p
            c[xb(i, t)] = 1.0 / (p * kappa[i]) - waste_coef[i]
            c[xa(i, t)] = -waste_coef[i]
            hi[xb(i, t)] = kappa[i]
            hi[xa(i, t)] = 1.0 - kappa[i]

    # each row block numbers its own rows: (row, column, value) and rhs
    blocks = {"<": ([], [], [], []), "=": ([], [], [], [])}

    def add(coefs, sense, rhs):
        rows_i, cols_j, vals, b = blocks[sense]
        r = len(b)
        for j, v in coefs:
            rows_i.append(r)
            cols_j.append(j)
            vals.append(v)
        b.append(rhs)

    keep = 1.0 - delta
    for t in range(periods):
        for i in range(p):
            coefs = [(xb(i, t), 1.0), (xa(i, t), 1.0), (u(i, t), -keep[i]),
                     (l(i, t), -keep[i])]
            if t == 0:
                rhs = keep[i] * (x0[i] - demand[t, i])
            else:
                coefs += [(xb(i, t - 1), -keep[i]), (xa(i, t - 1), -keep[i])]
                rhs = -keep[i] * demand[t, i]
            add(coefs, "=", rhs)
            if t == 0:
                hi[u(i, 0)] = max(0.0, 1.0 - x0[i])
            else:
                add([(u(i, t), 1.0), (xb(i, t - 1), 1.0), (xa(i, t - 1), 1.0)],
                    "<", 1.0)
        add([(u(i, t), catalog.unit_volume[i]) for i in range(p)],
            "<", catalog.v_max)
        add([(u(i, t), catalog.unit_weight[i]) for i in range(p)],
            "<", catalog.c_max)

    (A_ub, b_ub), (A_eq, b_eq) = (
        (sp.csr_matrix((vals, (rows_i, cols_j)), shape=(len(b), n)),
         np.array(b, dtype=float))
        for rows_i, cols_j, vals, b in (blocks["<"], blocks["="]))
    return simplex.LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             lo=lo, hi=hi)


def critical_row_lp(catalog, x0, demand, reward=RewardMod()):
    """The hindsight LP as the package built it with a shortfall block
    ``m`` and a critical row ``m + x >= kappa`` per product-period: the
    reference whose optimum plus 1 per period the split-inventory LP must
    reach. Blocks ``u, l, x, m``; per period, product by product, the
    dynamics, shelf (periods 1 onward) and critical rows, then volume and
    weight."""
    demand = np.asarray(demand, dtype=float)
    periods, p = demand.shape
    lost, kappa = baselines._penalty_weights(catalog, demand, reward)
    delta = catalog.spoilage_rate
    keep = 1.0 - delta
    u, l, x, m = np.arange(4 * periods * p).reshape(4, periods, p)
    later = np.arange(periods) > 0
    per_product = 2 + later
    width = per_product * p + 2
    start = np.cumsum(width) - width
    dynamics = start[:, None] + np.arange(p) * per_product[:, None]
    shelf = dynamics[1:] + 1
    critical = dynamics + 1 + later[:, None]
    volume = start + width - 2
    weight = volume + 1
    num_rows, num_vars = int(width.sum()), 4 * periods * p

    c = np.zeros(num_vars)
    c[l] = -lost / p
    c[x] = -(reward.wastage_weight * delta / (1.0 - delta) / p)
    c[m] = -1.0 / (p * kappa)
    hi = np.ones(num_vars)
    hi[l] = demand
    hi[u[0]] = 1.0 - x0
    senses = np.full(num_rows, ">")
    b = np.zeros(num_rows)
    senses[dynamics] = "="
    b[dynamics[0]] = keep * (x0 - demand[0])
    b[dynamics[1:]] = -keep * demand[1:]
    senses[shelf] = senses[volume] = senses[weight] = "<"
    b[shelf] = 1.0
    b[volume] = catalog.v_max
    b[weight] = catalog.c_max
    b[critical] = kappa
    terms = [np.broadcast_arrays(*term) for term in (
        (dynamics, x, 1.0), (dynamics, u, -keep), (dynamics, l, -keep),
        (dynamics[1:], x[:-1], -keep), (shelf, u[1:], 1.0),
        (shelf, x[:-1], 1.0), (critical, m, 1.0), (critical, x, 1.0),
        (volume[:, None], u, catalog.unit_volume),
        (weight[:, None], u, catalog.unit_weight))]
    rows, cols, vals = (np.concatenate([term[k].ravel() for term in terms])
                        for k in range(3))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(num_rows, num_vars))
    return general_lp(c, A, senses, b, lo=np.zeros(num_vars), hi=hi)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def reward_id(case):
    """``full_shelf-wastage_weight``, then ``-kappa`` for an override."""
    full_shelf, reward = case
    kappa = reward.critical_override
    return f"{full_shelf}-{reward.wastage_weight}" + (
        "" if kappa is None else f"-kappa{kappa}")


ORACLE_CASES = [(False, RewardMod()),
                (True, RewardMod(wastage_weight=0.5)),
                (False, RewardMod(wastage_weight=2.0)),
                (False, RewardMod(critical_override=0.5))]


@pytest.mark.parametrize("p, periods", [(1, 1), (1, 2), (3, 5), (5, 20),
                                        (20, 100)])
@pytest.mark.parametrize("full_shelf, reward", ORACLE_CASES,
                         ids=map(reward_id, ORACLE_CASES))
def test_array_assembly_matches_looped_oracle(p, periods, full_shelf, reward):
    ds = generate(DatasetSpec(products=p, horizon=periods + 1,
                              train_len=1, seed=p + periods))
    x0 = initial_inventories(p, periods)
    if full_shelf:
        x0[0] = 1.0
    demand = ds.demand[1:].copy()
    demand[1::2, -1] = 0.0       # a zero demand fixes its lost sale at 0
    problem, lay = build_perfect_info_lp(ds.catalog, x0, demand, reward)
    oracle = looped_perfect_info_lp(ds.catalog, x0, demand, reward)
    for name in ("c", "b_ub", "b_eq", "lo", "hi"):
        assert_same_bits(getattr(problem, name), getattr(oracle, name))
    for block, rows in (("A_ub", lay.num_le), ("A_eq", lay.num_eq)):
        A, expect = getattr(problem, block), getattr(oracle, block)
        assert A.shape == expect.shape == (rows, lay.num_vars)
        for name in ("indptr", "indices", "data"):
            assert_same_bits(getattr(A, name), getattr(expect, name))


@pytest.mark.parametrize("reward", [RewardMod(),
                                    RewardMod(critical_override=0.5),
                                    RewardMod(wastage_weight=2.0)],
                         ids=["default", "kappa0.5", "waste2"])
def test_split_inventory_lp_matches_the_critical_row_lp(reward):
    """Splitting the inventory at the critical level leaves the optimum of
    the LP with explicit shortfall rows unchanged: on random windows with
    zero-demand columns and empty and full starting shelves both optima
    agree, and the split LP's carries its certificate."""
    rng = np.random.default_rng(14)
    for p, periods in [(1, 1), (1, 6), (3, 12), (5, 20), (8, 30)]:
        ds = generate(DatasetSpec(products=p, horizon=periods + 40,
                                  train_len=20, seed=int(rng.integers(999))))
        start = int(rng.integers(0, 40))
        demand = ds.demand[start:start + periods].copy()
        demand[:, rng.integers(p)] = 0.0
        x0 = rng.random(p)
        x0[0] = float(rng.integers(2))      # an empty or a full shelf
        if p > 1:
            x0[-1] = 1.0 - x0[0]
        problem, _ = build_perfect_info_lp(ds.catalog, x0, demand, reward)
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        assert max(kkt_residuals(problem, sol).values()) <= 1e-7
        reference = solve_lp(critical_row_lp(ds.catalog, x0, demand, reward))
        assert reference.status == "optimal"
        assert sol.objective == pytest.approx(reference.objective + periods,
                                              rel=1e-9)


def test_one_product_one_period_hand_case():
    """Zero demand from an empty shelf with near-total spoilage: ordering
    anything wastes more than it saves, so the optimum sits at u = 0 and
    the objective is 1 minus the full critical-shortfall penalty."""
    cat = make_catalog(p=1, spoilage=[0.96], critical=[0.05],
                       v_max=10.0, c_max=10.0)
    problem, lay = build_perfect_info_lp(cat, np.zeros(1), np.zeros((1, 1)))
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert certify_optimal(problem, sol)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.x[lay.u[0, 0]] == pytest.approx(0.0, abs=1e-9)

    # grid oracle over the single decision confirms u = 0 is the best
    def grid_score(u):
        return surrogate_scores(cat, np.zeros(1), np.zeros((1, 1)),
                                np.array([[u]]))[0]
    best = max(grid_score(u) for u in np.linspace(0, 1, 201))
    assert sol.objective >= best - 1e-9


def test_lp_dominates_exhaustive_grid_policy():
    cat = make_catalog(p=1, spoilage=[0.2], critical=[0.1],
                       v_max=5.0, c_max=5.0)
    demand = np.array([[0.3], [0.2]])
    x0 = np.array([0.1])
    problem, _ = build_perfect_info_lp(cat, x0, demand)
    sol = solve_lp(problem)
    assert sol.status == "optimal" and certify_optimal(problem, sol)

    grid = [0.0, 0.2, 0.4]
    best = -np.inf
    for u0, u1 in itertools.product(grid, grid):
        executed = np.array([[u0], [u1]])
        if u0 > 1 - x0[0]:  # infeasible grid point
            continue
        scores = surrogate_scores(cat, x0, demand, executed)
        best = max(best, scores.sum())
    assert sol.objective >= best - 1e-9


def test_capacity_duals_positive_when_demand_exceeds_capacity():
    cat = make_catalog(p=3, volume=[1.0, 1.0, 1.0], weight=[1.0, 1.0, 1.0],
                       spoilage=[0.05, 0.05, 0.05], critical=[0.3, 0.3, 0.3],
                       v_max=0.2, c_max=10.0)
    demand = np.full((4, 3), 0.4)  # total volume demand 1.2 >> 0.2
    problem, lay = build_perfect_info_lp(cat, np.zeros(3), demand)
    sol = solve_lp(problem)
    assert sol.status == "optimal" and certify_optimal(problem, sol)
    assert lay.volume.shape == (4,)
    assert np.all(sol.duals[lay.volume] > 1e-9)
    # capacity rows are tight
    assert sol.x[lay.u].sum(axis=1) == pytest.approx(np.full(4, 0.2),
                                                     abs=1e-7)


def test_lp_matches_tuned_heuristic_on_constructed_instance():
    """With zero demand, loose capacity and the target chosen so the shelf
    decays exactly onto the critical level, the order-up-to policy attains
    the surrogate optimum."""
    delta, kappa = 0.1, 0.05
    cat = make_catalog(p=1, spoilage=[delta], critical=[kappa],
                       v_max=100.0, c_max=100.0)
    target = kappa / (1.0 - delta)
    periods = 6
    demand = np.zeros((periods, 1))
    x0 = np.array([target])
    sim = Simulator(cat, demand, EnvParams(forecast_window=4))
    _, _, executed = run_heuristic_episode(sim, 0, periods, x0, target)
    heuristic_score = surrogate_scores(cat, x0, demand, executed).sum()

    problem, _ = build_perfect_info_lp(cat, x0, demand)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(heuristic_score, abs=1e-6)


def test_upper_bound_property_on_small_instance():
    ds = generate(DatasetSpec(products=4, horizon=60, train_len=40, seed=8))
    x0 = initial_inventories(4, 1)
    start, length = ds.test_window
    window = ds.demand[start:start + length]

    sim = Simulator(ds.catalog, ds.demand, EnvParams(forecast_window=8))
    _, _, executed = run_heuristic_episode(sim, start, length, x0, 0.5)
    heuristic_score = surrogate_scores(ds.catalog, x0, window, executed).sum()

    problem, _ = build_perfect_info_lp(ds.catalog, x0, window)
    sol = solve_lp(problem)
    assert sol.status == "optimal" and certify_optimal(problem, sol)
    assert sol.objective >= heuristic_score - 1e-9


def test_lp_upper_bound_result_and_replay():
    ds = generate(DatasetSpec(products=3, horizon=30, train_len=20, seed=4))
    x0 = initial_inventories(3, 2)
    res = lp_upper_bound(ds.catalog, x0, ds.demand[20:30])
    assert isinstance(res, LpBoundResult)
    assert res.status == "optimal"
    assert 0.0 <= res.kkt_residual < 1e-7
    problem, lay = build_perfect_info_lp(ds.catalog, x0, ds.demand[20:30])
    orders = solve_lp(problem).x[lay.u]
    assert orders.shape == (10, 3)
    # the optimal orders, replayed, score no higher than the bound
    replay_score = surrogate_scores(ds.catalog, x0, ds.demand[20:30],
                                    orders).mean()
    assert res.mean_surrogate >= replay_score - 1e-9


def test_lp_upper_bound_dnf_and_errors():
    ds = generate(DatasetSpec(products=3, horizon=30, train_len=20, seed=4))
    x0 = initial_inventories(3, 2)
    res = lp_upper_bound(ds.catalog, x0, ds.demand[20:30], time_limit=0.0)
    assert res.status == "dnf" and res.mean_surrogate is None
    assert res.solver_status == "time_limit"
    assert res.kkt_residual is None

    with pytest.raises(ValueError):
        lp_upper_bound(ds.catalog, x0, ds.demand[20:20])
    with pytest.raises(ValueError):
        build_perfect_info_lp(ds.catalog, x0[:2], ds.demand[20:30])


def test_lp_rejects_total_spoilage():
    cat = make_catalog(p=1, spoilage=[1.0])
    with pytest.raises(ValueError):
        build_perfect_info_lp(cat, np.zeros(1), np.zeros((2, 1)))


def test_scipy_engine_agrees_on_structured_lp():
    """The duals HiGHS reports prove its optimum: their Lagrangian dual
    value over the variable box equals the primal objective, and the bound
    that ``lp_upper_bound`` reports is that optimum with its certificate."""
    ds = generate(DatasetSpec(products=3, horizon=40, train_len=25, seed=6))
    x0 = initial_inventories(3, 5)
    problem, _ = build_perfect_info_lp(ds.catalog, x0, ds.demand[25:40])
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert all(v < 1e-7 for v in kkt_residuals(problem, sol).values())

    assert np.all(np.isfinite(problem.hi))
    A = sp.vstack([problem.A_ub, problem.A_eq])     # the duals' row order
    z = problem.c - A.T @ sol.duals
    dual_value = (np.concatenate([problem.b_ub, problem.b_eq]) @ sol.duals
                  + np.where(z > 0.0, z * problem.hi, z * problem.lo).sum())
    assert dual_value == pytest.approx(sol.objective, abs=1e-7)

    res = lp_upper_bound(ds.catalog, x0, ds.demand[25:40])
    assert res.mean_surrogate * 15 == pytest.approx(sol.objective, abs=1e-9)
    assert res.kkt_residual == max(kkt_residuals(problem, sol).values())


def dual_simplex_optimum(problem) -> float:
    """The optimum of an ``LpProblem`` from HiGHS's dual simplex, called
    here, apart from ``solve_lp``."""
    res = scipy.optimize.linprog(
        -problem.c, A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=np.column_stack([problem.lo, problem.hi]), method="highs-ds")
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("p,periods", [(3, 40), (5, 30), (20, 15)])
def test_lp_bound_matches_dual_simplex(p, periods):
    """On random windows the certified bound is the optimum that dual
    simplex finds for the same problem."""
    ds = generate(DatasetSpec(products=p, horizon=120, train_len=60,
                              seed=p))
    rng = np.random.default_rng(p)
    for start in rng.integers(0, 120 - periods, size=3):
        x0 = rng.random(p)
        demand = ds.demand[start:start + periods]
        res = lp_upper_bound(ds.catalog, x0, demand)
        assert res.status == "optimal" and res.kkt_residual < 1e-7
        problem, _ = build_perfect_info_lp(ds.catalog, x0, demand)
        assert res.mean_surrogate * periods == pytest.approx(
            dual_simplex_optimum(problem), rel=1e-9)


def test_layout_row_bookkeeping():
    ds = generate(DatasetSpec(products=3, horizon=20, train_len=10, seed=6))
    problem, lay = build_perfect_info_lp(ds.catalog, np.full(3, 0.5),
                                         ds.demand[:5])
    assert (lay.num_le, lay.num_vars) == problem.A_ub.shape
    assert (lay.num_eq, lay.num_vars) == problem.A_eq.shape
    # the variable blocks and the row families each cover their range once
    blocks = (lay.u, lay.l, lay.xb, lay.xa)
    assert np.array_equal(np.concatenate([v.ravel() for v in blocks]),
                          np.arange(lay.num_vars))
    le = np.concatenate([r.ravel() for r in (lay.shelf, lay.volume,
                                             lay.weight)])
    assert np.array_equal(np.sort(le), np.arange(lay.num_le))
    assert np.array_equal(lay.dynamics.ravel(), np.arange(lay.num_eq))
    # one shelf row per product from period 1 on, one dynamics row per
    # product-period
    assert lay.shelf.shape == (4, 3) and lay.dynamics.shape == (5, 3)
    assert (lay.num_le, lay.num_eq) == (3 * 4 + 2 * 5, 3 * 5)
    # <= rows go period by period: period t's rows end with volume, weight
    assert np.array_equal(lay.weight, lay.volume + 1)
    assert np.all(lay.shelf[:, 0] == lay.weight[:-1] + 1)
    assert lay.weight[-1] == lay.num_le - 1
    for t in range(5):
        row = problem.A_ub[lay.volume[t]].toarray().ravel()
        assert np.array_equal(np.flatnonzero(row), lay.u[t])
        assert row[lay.u[t]] == pytest.approx(ds.catalog.unit_volume)
        assert problem.b_ub[lay.volume[t]] == pytest.approx(ds.catalog.v_max)
        assert problem.b_ub[lay.weight[t]] == pytest.approx(ds.catalog.c_max)


@pytest.mark.parametrize("bad", [1.5, -0.2, np.nan, np.inf])
def test_lp_rejects_x0_outside_unit_interval(bad, monkeypatch):
    """A starting inventory off the shelf is refused before any assembly,
    instead of yielding an 'infeasible' bound."""
    ds = generate(DatasetSpec(products=3, horizon=30, train_len=20, seed=4))
    x0 = initial_inventories(3, 2)
    x0[0] = bad

    def no_layout(*args):
        raise AssertionError("assembled an LP for an invalid x0")
    monkeypatch.setattr(baselines, "LpLayout", no_layout)
    with pytest.raises(ValueError, match="x0"):
        build_perfect_info_lp(ds.catalog, x0, ds.demand[20:30])
    with pytest.raises(ValueError, match="x0"):
        lp_upper_bound(ds.catalog, x0, ds.demand[20:30])


# ---------------------------------------------- a bound on the business reward

REWARDS = [RewardMod(), RewardMod(critical_override=0.5),
           RewardMod(wastage_weight=2.0)]
REWARD_IDS = ["default", "kappa0.5", "waste2"]
# the edges of the knobs' ranges
EDGES = [RewardMod(critical_override=0.999), RewardMod(wastage_weight=0.0)]
EDGE_IDS = ["kappa0.999", "waste0"]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(REWARDS))
def test_surrogate_is_at_least_the_business_reward(p, periods, seed, reward):
    """Each penalty term of the surrogate is at most the business-reward
    term it stands for, so on any trajectory that ``env.step`` executes
    every period's surrogate is at least its business reward (up to float
    rounding)."""
    rng = np.random.default_rng(seed)
    ds = generate(DatasetSpec(products=p, horizon=periods + 1, train_len=1,
                              seed=seed % 1000))
    demand = ds.demand[1:] * rng.choice([0.0, 1.0, 8.0], size=(periods, p))
    demand = np.minimum(demand, 1.0)      # zero, typical and large demands
    x0 = rng.random(p) * rng.integers(0, 2, size=p)
    x, executed, rewards = x0, np.empty((periods, p)), np.empty(periods)
    for t in range(periods):
        out = step(ds.catalog, x, rng.random(p) ** rng.integers(1, 4),
                   demand[t], mod=reward)
        x, executed[t], rewards[t] = out.x, out.executed, \
            out.component_means[0]
    scores = surrogate_scores(ds.catalog, x0, demand, executed, reward)
    assert np.all(scores >= rewards - 1e-12)


@pytest.mark.parametrize("reward", REWARDS + EDGES,
                         ids=REWARD_IDS + EDGE_IDS)
def test_bound_tops_the_heuristic_business_reward(reward):
    """The certified bound sits above the heuristic's mean business reward
    under the same reward, and a wastage weight or an override moves it."""
    ds = generate(DatasetSpec(products=5, horizon=80, train_len=40, seed=3))
    start, length = ds.test_window
    x0 = initial_inventories(5, 9)
    sim = Simulator(ds.catalog, ds.demand, mod=reward)
    rewards, _, _ = run_heuristic_episode(sim, start, length, x0, 0.5)
    res = lp_upper_bound(ds.catalog, x0, ds.demand[start:start + length],
                         mod=reward)
    assert res.status == "optimal" and res.kkt_residual < 1e-7
    assert res.mean_surrogate >= rewards.mean()
    default = lp_upper_bound(ds.catalog, x0,
                             ds.demand[start:start + length])
    assert (res.mean_surrogate == default.mean_surrogate) == (
        reward == RewardMod())


@pytest.mark.parametrize("level", [0.0, 1e-9])
@pytest.mark.parametrize("reward", REWARDS[:2], ids=REWARD_IDS[:2])
def test_bound_is_certified_on_vanishing_demand(level, reward):
    """Zero demand fixes every lost sale at 0, and a tiny one gives it a
    weight of about 1/demand; both windows solve with a certificate."""
    ds = generate(DatasetSpec(products=4, horizon=30, train_len=10, seed=5))
    res = lp_upper_bound(ds.catalog, initial_inventories(4, 1),
                         np.full((20, 4), level), mod=reward)
    assert res.status == "optimal" and res.kkt_residual < 1e-7
    assert res.mean_surrogate <= 1.0
