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
from restock.datagen import DatasetSpec, generate, initial_inventories
from restock.env import Simulator
from restock.simplex import certify_optimal, kkt_residuals, solve_lp
from conftest import make_catalog


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
    sim = Simulator(ds.catalog, ds.demand, forecast_window=4)
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

def looped_perfect_info_lp(catalog, x0, demand, wastage_weight=1.0):
    """The hindsight LP built one coefficient and one row at a time, with
    its own index arithmetic: the oracle that ``build_perfect_info_lp``
    must equal bit for bit."""
    demand = np.asarray(demand, dtype=float)
    periods, p = demand.shape
    delta = catalog.spoilage_rate
    kappa = catalog.critical_level
    kappa_bar = float(kappa.mean())

    def var(block, i, t):
        return block * p * periods + t * p + i

    def u(i, t):
        return var(0, i, t)

    def l(i, t):
        return var(1, i, t)

    def x(i, t):
        return var(2, i, t)

    def m(i, t):
        return var(3, i, t)

    def hi_var(t):
        return 4 * p * periods + t

    def lo_var(t):
        return 4 * p * periods + periods + t

    n = 4 * p * periods + 2 * periods
    lo = np.zeros(n)
    hi = np.ones(n)
    c = np.zeros(n)
    waste_coef = wastage_weight * delta / (1.0 - delta) / p
    lost_coef = (1.0 + 1.0 / kappa_bar) / p
    for t in range(periods):
        for i in range(p):
            hi[l(i, t)] = demand[t, i]
            c[l(i, t)] = -lost_coef
            c[x(i, t)] = -waste_coef[i]
            c[m(i, t)] = -1.0 / (p * kappa[i])
        c[hi_var(t)] = -1.0
        c[lo_var(t)] = 1.0

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
            coefs = [(x(i, t), 1.0), (u(i, t), -keep[i]), (l(i, t), -keep[i])]
            if t == 0:
                rhs = keep[i] * (x0[i] - demand[t, i])
            else:
                coefs.append((x(i, t - 1), -keep[i]))
                rhs = -keep[i] * demand[t, i]
            add(coefs, "=", rhs)
            if t == 0:
                hi[u(i, 0)] = max(0.0, 1.0 - x0[i])
            else:
                add([(u(i, t), 1.0), (x(i, t - 1), 1.0)], "<", 1.0)
            add([(m(i, t), 1.0), (x(i, t), 1.0)], ">", kappa[i])
            add([(hi_var(t), 1.0), (x(i, t), -1.0)], ">", 0.0)
            add([(x(i, t), 1.0), (lo_var(t), -1.0)], ">", 0.0)
        add([(u(i, t), catalog.unit_volume[i]) for i in range(p)],
            "<", catalog.v_max)
        add([(u(i, t), catalog.unit_weight[i]) for i in range(p)],
            "<", catalog.c_max)

    A = sp.csr_matrix((vals, (rows_i, cols_j)), shape=(len(b), n))
    return simplex.LpProblem(
        c=c, A=A, senses=np.array(senses), b=np.array(b, dtype=float),
        lo=lo, hi=hi, maximize=True, c0=float(periods))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p, periods", [(1, 1), (1, 2), (3, 5), (5, 20),
                                        (20, 100)])
@pytest.mark.parametrize("full_shelf, wastage_weight",
                         [(False, 1.0), (True, 0.5), (False, 2.0)])
def test_array_assembly_matches_looped_oracle(p, periods, full_shelf,
                                              wastage_weight):
    ds = generate(DatasetSpec(products=p, horizon=periods + 1,
                              train_len=1, seed=p + periods))
    x0 = initial_inventories(p, periods)
    if full_shelf:
        x0[0] = 1.0
    demand = ds.demand[1:]
    problem, lay = build_perfect_info_lp(ds.catalog, x0, demand,
                                         wastage_weight=wastage_weight)
    oracle = looped_perfect_info_lp(ds.catalog, x0, demand, wastage_weight)
    for name in ("c", "b", "lo", "hi", "senses"):
        assert_same_bits(getattr(problem, name), getattr(oracle, name))
    assert problem.A.shape == oracle.A.shape == (lay.num_rows, lay.num_vars)
    for name in ("indptr", "indices", "data"):
        assert_same_bits(getattr(problem.A, name), getattr(oracle.A, name))
    assert (problem.maximize, problem.c0) == (oracle.maximize, oracle.c0)


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
    sim = Simulator(cat, demand, forecast_window=4)
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

    sim = Simulator(ds.catalog, ds.demand, forecast_window=8)
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
    assert res.actions.shape == (10, 3)
    # replayed actions must themselves score below the surrogate bound
    replay_score = surrogate_scores(ds.catalog, x0, ds.demand[20:30],
                                    res.actions).mean()
    assert res.mean_surrogate >= replay_score - 1e-9
    assert res.mean_true_reward <= 1.0
    assert 0.0 <= res.kkt_residual < 1e-7


def test_lp_upper_bound_dnf_and_errors():
    ds = generate(DatasetSpec(products=3, horizon=30, train_len=20, seed=4))
    x0 = initial_inventories(3, 2)
    res = lp_upper_bound(ds.catalog, x0, ds.demand[20:30], max_iters=2)
    assert res.status == "dnf" and res.mean_surrogate is None
    assert res.solver_status == "iteration_limit"
    assert res.kkt_residual is None
    res = lp_upper_bound(ds.catalog, x0, ds.demand[20:30], time_limit=0.0)
    assert res.status == "dnf" and res.solver_status == "time_limit"

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
    z = problem.c - problem.A.T @ sol.duals
    dual_value = (problem.b @ sol.duals + problem.c0
                  + np.where(z > 0.0, z * problem.hi, z * problem.lo).sum())
    assert dual_value == pytest.approx(sol.objective, abs=1e-7)

    res = lp_upper_bound(ds.catalog, x0, ds.demand[25:40])
    assert res.mean_surrogate * 15 == pytest.approx(sol.objective, abs=1e-9)
    assert res.kkt_residual == max(kkt_residuals(problem, sol).values())


def dual_simplex_optimum(problem) -> float:
    """The optimum of an ``LpProblem`` from HiGHS's dual simplex, called
    here, apart from ``solve_lp``."""
    le, ge, eq = (problem.senses == s for s in "<>=")
    res = scipy.optimize.linprog(
        -problem.c, A_ub=sp.vstack([problem.A[le], -problem.A[ge]]),
        b_ub=np.concatenate([problem.b[le], -problem.b[ge]]),
        A_eq=problem.A[eq], b_eq=problem.b[eq],
        bounds=np.column_stack([problem.lo, problem.hi]), method="highs-ds")
    assert res.status == 0, res.message
    return -res.fun + problem.c0


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
    assert (lay.num_rows, lay.num_vars) == problem.A.shape
    # the variable blocks and the row families each cover their range once
    blocks = (lay.u, lay.l, lay.x, lay.m, lay.hi, lay.lo)
    assert np.array_equal(np.concatenate([v.ravel() for v in blocks]),
                          np.arange(lay.num_vars))
    families = {"=": (lay.dynamics,),
                "<": (lay.shelf, lay.volume, lay.weight),
                ">": (lay.critical, lay.range_hi, lay.range_lo)}
    rows = np.concatenate([r.ravel() for fam in families.values()
                           for r in fam])
    assert np.array_equal(np.sort(rows), np.arange(lay.num_rows))
    for sense, fam in families.items():
        for r in fam:
            assert np.all(problem.senses[r] == sense)
    assert lay.shelf.shape == (4, 3)
    # rows go period by period: period t's rows end with volume, weight
    assert np.array_equal(lay.weight, lay.volume + 1)
    assert np.all(lay.dynamics[1:, 0] == lay.weight[:-1] + 1)
    assert lay.weight[-1] == lay.num_rows - 1
    for t in range(5):
        row = problem.A[lay.volume[t]].toarray().ravel()
        assert np.array_equal(np.flatnonzero(row), lay.u[t])
        assert row[lay.u[t]] == pytest.approx(ds.catalog.unit_volume)
        assert problem.b[lay.volume[t]] == pytest.approx(ds.catalog.v_max)
        assert problem.b[lay.weight[t]] == pytest.approx(ds.catalog.c_max)


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
