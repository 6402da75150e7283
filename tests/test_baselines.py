import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restock import simplex
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
    assert sol.x[lay.u(0, 0)] == pytest.approx(0.0, abs=1e-9)

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
    vol_duals = [sol.duals[lay.capacity_rows(t)[0]] for t in range(4)]
    assert all(d > 1e-9 for d in vol_duals)
    # capacity rows are tight
    for t in range(4):
        used = sum(sol.x[lay.u(i, t)] for i in range(3))
        assert used == pytest.approx(0.2, abs=1e-7)


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


def test_layout_row_bookkeeping():
    ds = generate(DatasetSpec(products=3, horizon=20, train_len=10, seed=6))
    problem, lay = build_perfect_info_lp(ds.catalog, np.full(3, 0.5),
                                         ds.demand[:5])
    assert problem.num_rows == lay.rows_before_period(5)
    for t in range(5):
        rv, rc = lay.capacity_rows(t)
        row = problem.A[rv].toarray().ravel()
        for i in range(3):
            assert row[lay.u(i, t)] == pytest.approx(
                ds.catalog.unit_volume[i])
        assert problem.b[rv] == pytest.approx(ds.catalog.v_max)
        assert problem.b[rc] == pytest.approx(ds.catalog.c_max)
