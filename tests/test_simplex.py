import dataclasses
import itertools

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from restock.baselines import build_perfect_info_lp
from restock.datagen import DatasetSpec, generate, initial_inventories
from restock.simplex import (LpProblem, certify_optimal, kkt_residuals,
                             solve_lp)
from conftest import general_lp


def make_problem(c, A, senses, b, lo=None, hi=None, maximize=True):
    n = len(c)
    return general_lp(c, A, senses, b,
                      lo=np.zeros(n) if lo is None else lo,
                      hi=np.full(n, np.inf) if hi is None else hi,
                      maximize=maximize)


# ------------------------------------------------------------ tiny cases

def test_single_variable_max():
    prob = make_problem([1.0], [[1.0]], ["<"], [3.0])
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_infeasible_pair():
    prob = make_problem([1.0], [[1.0], [1.0]], ["<", ">"], [1.0, 2.0])
    sol = solve_lp(prob)
    assert sol.status == "infeasible"


def test_unbounded():
    prob = make_problem([1.0, 0.0], [[1.0, -1.0]], ["<"], [1.0])
    sol = solve_lp(prob)
    assert sol.status == "unbounded"


def test_highs_early_stop_is_the_time_limit(monkeypatch):
    """With no pivot cap, HiGHS's early-stop status 1 can only be its time
    limit, whatever its message says."""
    rng = np.random.default_rng(0)
    prob = make_problem(rng.random(6), rng.random((6, 6)), ["<"] * 6,
                        rng.random(6) + 1.0, hi=np.ones(6))
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *a, **k: scipy.optimize.OptimizeResult(
                            status=1, nit=7, message=""))
    sol = solve_lp(prob, time_limit=5.0)
    assert (sol.status, sol.iterations, sol.x) == ("time_limit", 7, None)


def test_time_limit():
    rng = np.random.default_rng(1)
    prob = make_problem(rng.random(6), rng.random((6, 6)), ["<"] * 6,
                        rng.random(6) + 1.0, hi=np.ones(6))
    sol = solve_lp(prob, time_limit=0.0)
    assert sol.status == "time_limit"


def test_budgets(monkeypatch):
    """A zero time budget is spent before HiGHS starts; a budget that is
    negative or not finite is refused."""
    rng = np.random.default_rng(1)
    prob = make_problem(rng.random(6), rng.random((6, 6)), ["<"] * 6,
                        rng.random(6) + 1.0, hi=np.ones(6))
    for bad in ({"time_limit": -1.0}, {"time_limit": np.nan},
                {"time_limit": np.inf}):
        with pytest.raises(ValueError):
            solve_lp(prob, **bad)

    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS called with a spent budget")
    monkeypatch.setattr(scipy.optimize, "linprog", no_solve)
    sol = solve_lp(prob, time_limit=0.0)
    assert (sol.status, sol.iterations, sol.x) == ("time_limit", 0, None)
    assert not certify_optimal(prob, sol)


def test_iterations_count_simplex_pivots(monkeypatch):
    """``solve_lp`` runs dual simplex with no presolve and no pivot cap,
    and reports HiGHS's pivot count."""
    ds = generate(DatasetSpec(products=3, horizon=30, train_len=20, seed=4))
    problem, _ = build_perfect_info_lp(ds.catalog, initial_inventories(3, 2),
                                       ds.demand[20:30])
    seen = []
    linprog = scipy.optimize.linprog

    def observed(*args, **kwargs):
        seen.append((kwargs["method"], kwargs["options"],
                     linprog(*args, **kwargs)))
        return seen[-1][2]
    monkeypatch.setattr(scipy.optimize, "linprog", observed)
    for time_limit in (None, 5.0):
        sol = solve_lp(problem, time_limit=time_limit)
        method, options, res = seen[-1]
        assert (method, options) == (
            "highs-ds", {"presolve": False, "time_limit": time_limit})
        assert sol.status == "optimal" and res.nit > 0
        assert sol.iterations == res.nit
    assert len(seen) == 2


def test_equality_row_and_bound_flip():
    # forces x1 + x2 = 1.5 with both variables boxed
    prob = make_problem([2.0, 1.0], [[1.0, 1.0]], ["="], [1.5],
                        hi=[1.0, 1.0])
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 0.5], atol=1e-9)
    assert certify_optimal(prob, sol)


def test_degenerate_cycling_guard():
    # Beale's classic cycling instance for Dantzig pricing
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -1.0 / 25.0, 9.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    prob = make_problem(c, A, ["<", "<", "<"], [0.0, 0.0, 1.0],
                        maximize=False)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    # the minimum of c @ x is -0.05, so the maximum of -c @ x is 0.05
    assert sol.objective == pytest.approx(0.05, abs=1e-9)
    assert certify_optimal(prob, sol)


def test_determinism():
    rng = np.random.default_rng(5)
    prob = make_problem(rng.random(8), rng.standard_normal((6, 8)),
                        ["<"] * 6, rng.random(6) + 0.5, hi=np.ones(8))
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.duals, b.duals)


# ------------------------------------------------- vertex enumeration oracle

def oracle_solve(prob: LpProblem):
    """Enumerate candidate vertices of the (bounded) feasible box-polytope."""
    A_ub, A_eq = prob.A_ub.toarray(), prob.A_eq.toarray()
    n = prob.c.size
    eq = list(zip(A_eq, prob.b_eq))
    cand = list(zip(A_ub, prob.b_ub))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cand.append((e, prob.lo[j]))
        if np.isfinite(prob.hi[j]):
            cand.append((e, prob.hi[j]))

    def feasible(x):
        if np.any(x < prob.lo - 1e-7) or np.any(x > prob.hi + 1e-7):
            return False
        for row, rhs in zip(A_ub, prob.b_ub):
            if row @ x > rhs + 1e-7:
                return False
        for row, rhs in eq:
            if abs(row @ x - rhs) > 1e-7:
                return False
        return True

    need = n - len(eq)
    best = None
    for combo in itertools.combinations(range(len(cand)), need):
        M = np.array([row for row, _ in eq] + [cand[k][0] for k in combo])
        rhs = np.array([v for _, v in eq] + [cand[k][1] for k in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        val = float(prob.c @ x)
        best = val if best is None else max(best, val)
    return best


def random_problem(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 9))
    A = rng.standard_normal((m, n))
    senses = rng.choice(["<", ">"], size=m)
    if m >= 3 and rng.random() < 0.3:
        senses[0] = "="
    x_feas = rng.random(n)  # bias toward feasible instances
    b = A @ x_feas + np.where(senses == "<", rng.random(m) * 0.5,
                              -rng.random(m) * 0.5)
    b[senses == "="] = (A @ x_feas)[senses == "="]
    c = rng.standard_normal(n)
    return make_problem(c, A, senses, b, lo=np.zeros(n), hi=np.ones(n) * 2,
                        maximize=bool(rng.random() < 0.7))


def looped_kkt_residuals(problem: LpProblem, solution) -> dict[str, float]:
    """Row-by-row and column-by-column reference for ``kkt_residuals``."""
    x, y = solution.x, solution.duals
    m = problem.A_ub.shape[0]
    slack = problem.b_ub - problem.A_ub @ x
    eq_slack = problem.b_eq - problem.A_eq @ x

    primal = 0.0
    for r in range(m):
        primal = max(primal, -slack[r])
    for r in range(problem.A_eq.shape[0]):
        primal = max(primal, abs(eq_slack[r]))
    primal = max(primal,
                 float(np.max(problem.lo - x, initial=0.0)),
                 float(np.max(x - problem.hi, initial=0.0)))

    dual = comp = 0.0
    for r in range(m):
        dual = max(dual, -y[r])
        comp = max(comp, abs(y[r] * slack[r]))

    z = problem.c - problem.A_ub.T @ y[:m] - problem.A_eq.T @ y[m:]
    for j in range(problem.c.size):
        at_lo = x[j] <= problem.lo[j] + 1e-7
        at_hi = np.isfinite(problem.hi[j]) and x[j] >= problem.hi[j] - 1e-7
        if at_lo and at_hi:
            continue
        if at_lo:
            dual = max(dual, z[j])   # raising x_j must not help
        elif at_hi:
            dual = max(dual, -z[j])  # lowering x_j must not help
        else:
            dual = max(dual, abs(z[j]))
    return {"primal": float(primal), "dual": float(dual),
            "complementary": float(comp)}


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    checked_optimal = 0
    for _ in range(20):
        prob = random_problem(rng)
        sol = solve_lp(prob)
        expect = oracle_solve(prob)
        if expect is None:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(expect, abs=1e-6)
        res = kkt_residuals(prob, sol)
        assert all(v < 1e-7 for v in res.values()), res
        assert res == looped_kkt_residuals(prob, sol)
        checked_optimal += 1
    assert checked_optimal >= 10


def test_kkt_residuals_match_loops_on_perfect_info_lp():
    ds = generate(DatasetSpec(products=4, horizon=40, train_len=25, seed=3))
    problem, _ = build_perfect_info_lp(ds.catalog, initial_inventories(4, 7),
                                       ds.demand[25:40])
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    assert kkt_residuals(problem, sol) == looped_kkt_residuals(problem, sol)
    # an off-optimal point has nonzero residuals, and both agree on them
    rng = np.random.default_rng(0)
    nudged = dataclasses.replace(
        sol, x=sol.x + 1e-3 * rng.standard_normal(sol.x.shape),
        duals=sol.duals + 1e-3 * rng.standard_normal(sol.duals.shape))
    res = kkt_residuals(problem, nudged)
    assert min(res.values()) > 0.0
    assert res == looped_kkt_residuals(problem, nudged)


def test_scipy_engine_statuses():
    """A solve that is not optimal carries no solution, objective or duals."""
    for prob, status in (
            (make_problem([1.0], [[1.0], [1.0]], ["<", ">"], [1.0, 2.0]),
             "infeasible"),
            (make_problem([1.0, 0.0], [[1.0, -1.0]], ["<"], [1.0]),
             "unbounded")):
        sol = solve_lp(prob)
        assert sol.status == status and sol.engine == "scipy"
        assert sol.x is None and sol.objective is None and sol.duals is None
        assert not certify_optimal(prob, sol)


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0]], ["<"], [1.0], lo=[2.0], hi=[1.0])
    prob = make_problem([1.0], [[1.0]], ["<"], [1.0])
    for block in ({"b_ub": [1.0, 2.0]},
                  {"A_eq": sp.csr_matrix([[1.0, 1.0]]), "b_eq": [1.0]},
                  {"b_eq": [[1.0]], "A_eq": sp.csr_matrix([[1.0]])}):
        with pytest.raises(ValueError, match="row block"):
            dataclasses.replace(prob, **block)
    # the row blocks are sparse matrices; a dense one is refused
    with pytest.raises(AttributeError, match="tocsr"):
        dataclasses.replace(prob, A_ub=np.array([[1.0]]))
    with pytest.raises(ValueError):
        make_problem([np.inf], [[1.0]], ["<"], [1.0])
    with pytest.raises(ValueError):
        make_problem([1.0], [[1.0]], ["<"], [1.0], lo=[-np.inf])
