import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restock import env
from restock.agents import make_bundle, run_episode
from restock.config import EnvParams, RewardMod
from restock.env import (
    ACTION_SET, NUM_FEATURES, ProductCatalog, Simulator,
    apply_demand_and_spoilage, percentile_spread, shelf_life, step,
)
import oracles
from conftest import make_catalog


def feature_matrix(catalog: ProductCatalog, x: np.ndarray,
                   forecast: np.ndarray) -> np.ndarray:
    """Per-product observation rows, shape (p, 7), column by column.

    Columns: inventory, forecast demand, normalized volume, normalized
    weight, shelf life, total forecast volume / v_max, total forecast
    weight / c_max. The reference for ``Simulator.features``.
    """
    p = catalog.num_products
    feats = np.empty((p, NUM_FEATURES))
    feats[:, 0] = x
    feats[:, 1] = forecast
    feats[:, 2] = catalog.unit_volume / catalog.unit_volume.max()
    feats[:, 3] = catalog.unit_weight / catalog.unit_weight.max()
    feats[:, 4] = shelf_life(catalog)
    feats[:, 5] = catalog.unit_volume @ forecast / catalog.v_max
    feats[:, 6] = catalog.unit_weight @ forecast / catalog.c_max
    return feats


def build_feature_vector(i: int, catalog: ProductCatalog, x: np.ndarray,
                         forecast: np.ndarray) -> np.ndarray:
    """Observation row for a single product."""
    return feature_matrix(catalog, x, forecast)[i]


def simulator_features(catalog: ProductCatalog, x: np.ndarray,
                       forecast: np.ndarray) -> np.ndarray:
    """``Simulator.features`` at inventory ``x`` after one period of demand
    ``forecast`` (window 1, so that is the forecast)."""
    sim = Simulator(catalog, np.tile(forecast, (2, 1)),
                    EnvParams(forecast_window=1))
    sim.reset(x, start=1)
    return sim.features()


# ---------------------------------------------------------------- clipping

SLACK = dict(v_max=100.0, c_max=100.0)   # a transport budget that never binds


def order(catalog: ProductCatalog, u, x=None, **kw):
    """``step`` on the order ``u`` from inventory ``x`` (empty shelves by
    default), with no demand."""
    p = catalog.num_products
    x = np.zeros(p) if x is None else np.asarray(x, dtype=float)
    return step(catalog, x, np.asarray(u, dtype=float), np.zeros(p), **kw)


def test_clip_action_examples():
    """``step`` clips each requested order to [0, 1 - x_i] first."""
    cat = make_catalog(p=1, **SLACK)
    for x, raw, expect in ((0.9, 0.5, 0.1), (0.0, 1.0, 1.0), (0.5, 0.2, 0.2)):
        assert order(cat, [raw], x=[x]).executed == pytest.approx(expect)


def test_capacity_ratio_examples():
    """``rho`` is the requested volume or weight, whichever is larger,
    relative to the transport budget."""
    cat = make_catalog(p=1, volume=[2.0], weight=[1.0], v_max=1.0, c_max=1.0)
    assert order(cat, [0.0]).rho == 0.0
    assert order(cat, [0.5]).rho == pytest.approx(1.0)
    cat = make_catalog(p=2, v_max=1.0, c_max=2.0)
    assert order(cat, [1.0, 1.0]).rho == pytest.approx(2.0)


def test_enforce_capacity_examples():
    """An order within the budget is received whole; one over it is scaled
    down by ``rho``."""
    u = np.array([0.2, 0.2])
    out = order(make_catalog(p=2, v_max=0.5, c_max=0.5), u)
    assert out.rho == pytest.approx(0.8)
    assert np.array_equal(out.executed, u)
    out = order(make_catalog(p=2, v_max=0.4, c_max=0.4), [0.4, 0.4])
    assert out.rho == pytest.approx(2.0)
    np.testing.assert_allclose(out.executed, [0.2, 0.2])
    out = order(make_catalog(p=1, v_max=0.5, c_max=0.5), [0.5])
    assert out.rho == pytest.approx(1.0)
    np.testing.assert_allclose(out.executed, [0.5])


def test_enforced_action_hits_ratio_one():
    cat = make_catalog(p=3, volume=[1, 2, 3], weight=[3, 1, 1],
                       v_max=0.5, c_max=0.7)
    out = order(cat, [0.3, 0.3, 0.3])
    assert out.rho > 1
    u = out.executed
    ratio = max(cat.unit_volume @ u / cat.v_max, cat.unit_weight @ u / cat.c_max)
    assert ratio == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------- replenishment

def test_apply_replenishment_examples():
    """With no demand and a spoilage rate of 1, the whole receipt
    x + executed spoils, so the waste shows it."""
    def received(x, u):
        cat = make_catalog(p=len(x), spoilage=np.ones(len(x)), **SLACK)
        return order(cat, u, x=x).q_waste

    assert received([0.5], [0.3]) == pytest.approx(0.8)
    assert received([0.0], [0.0]) == pytest.approx(0.0)
    np.testing.assert_allclose(received([0.1, 0.9], [0.2, 0.1]), [0.3, 1.0])
    # an order past the free shelf fills it
    assert received([0.9], [0.5]) == pytest.approx(1.0)


def test_apply_demand_and_spoilage_examples():
    x_next, q, refused = apply_demand_and_spoilage(
        np.array([0.2]), np.array([0.5]), np.array([0.1]))
    assert (x_next[0], q[0], refused[0]) == pytest.approx((0.0, 0.0, 0.3))

    x_next, q, refused = apply_demand_and_spoilage(
        np.array([1.0]), np.array([0.0]), np.array([0.1]))
    assert (x_next[0], q[0], refused[0]) == pytest.approx((0.9, 0.1, 0.0))

    x_next, q, refused = apply_demand_and_spoilage(
        np.array([0.6]), np.array([0.2]), np.array([0.25]))
    assert (x_next[0], q[0], refused[0]) == pytest.approx((0.3, 0.1, 0.0))


# -------------------------------------------------------------- percentiles

def sort_and_interpolate(values, q):
    """Independent percentile oracle: linear interpolation between ranks."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    frac = pos - lo
    if lo + 1 < len(v):
        return v[lo] + frac * (v[lo + 1] - v[lo])
    return v[lo]


def test_percentile_spread_examples():
    assert percentile_spread(np.full(5, 0.4)) == 0.0
    assert percentile_spread(np.array([0.7])) == 0.0
    x = np.array([i / 100 for i in range(1, 101)])
    # frozen from the sort-and-interpolate oracle above
    assert percentile_spread(x) == pytest.approx(0.8909999999999999, abs=1e-12)


def test_percentile_spread_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.random(rng.integers(1, 40))
        expect = sort_and_interpolate(x, 95) - sort_and_interpolate(x, 5)
        assert percentile_spread(x) == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------------ rewards

def test_business_reward_examples():
    """``component_means[0]`` is 1 minus the mean empty, critical,
    weighted-waste, spread and refused terms."""
    cat = make_catalog(p=2, **SLACK)
    # a healthy store, its waste weighed at 0
    out = step(cat, np.full(2, 0.5), np.zeros(2), np.full(2, 0.1),
               mod=RewardMod(wastage_weight=0.0))
    assert out.component_means[0] == 1.0
    # both products sell out exactly
    out = step(cat, np.full(2, 0.3), np.zeros(2), np.full(2, 0.3))
    np.testing.assert_array_equal(out.component_means, [-1, 1, 1, 0, 0, 0, 0])
    # both refuse all of a full shelf's demand
    out = step(cat, np.zeros(2), np.zeros(2), np.ones(2))
    np.testing.assert_array_equal(out.component_means, [-2, 1, 1, 0, 0, 1, 0])
    # both spoil a full shelf
    cat = make_catalog(p=2, spoilage=[1.0, 1.0], **SLACK)
    out = step(cat, np.ones(2), np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(out.component_means, [-2, 1, 1, 1, 0, 0, 0])


def test_per_product_reward_examples():
    cat = make_catalog(p=2, v_max=1.0, c_max=10.0)
    mod = RewardMod(wastage_weight=0.0)
    x, demand = np.full(2, 0.2), np.full(2, 0.1)
    clean = step(cat, x, np.full(2, 0.45), demand, mod=mod)
    assert clean.rho == pytest.approx(0.9)
    np.testing.assert_allclose(clean.per_product_rewards, 1.0)
    penalized = step(cat, x, np.full(2, 0.75), demand, alpha=1.0, mod=mod)
    assert penalized.rho == 1.5
    np.testing.assert_allclose(penalized.per_product_rewards, 0.5)
    assert penalized.component_means[[0, 6]].tolist() == [1.0, 0.5]


def test_mean_per_product_matches_business_reward_when_feasible():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = int(rng.integers(1, 9))
        cat = make_catalog(p=p, spoilage=rng.uniform(0.05, 1.0, p),
                           critical=rng.uniform(0.01, 0.5, p), **SLACK)
        out = step(cat, rng.random(p) * rng.integers(0, 2, p), rng.random(p),
                   rng.random(p) * 0.5)
        assert out.rho <= 1.0
        assert out.per_product_rewards.mean() == pytest.approx(
            out.component_means[0], abs=1e-12)


def test_reward_modifications():
    cat = make_catalog(p=1, critical=[0.05], spoilage=[0.5])
    x = np.array([0.14])    # spoils 0.07 and keeps 0.07 with no demand
    base = order(cat, [0.0], x=x)
    heavy = order(cat, [0.0], x=x, mod=RewardMod(wastage_weight=4.0))
    assert base.component_means[0] - heavy.component_means[0] == \
        pytest.approx(3 * 0.07)
    np.testing.assert_allclose(
        heavy.per_product_rewards, base.per_product_rewards - 3 * 0.07)

    assert base.b_critical[0] == 0.0
    out = order(cat, [0.0], x=x, mod=RewardMod(critical_override=0.1))
    assert out.b_critical[0] == 1.0 and out.component_means[2] == 1.0


@pytest.mark.parametrize("override", [None, 0.3])
@pytest.mark.parametrize("weight", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
def test_step_matches_the_helper_composed_reference(alpha, weight, override):
    """``step`` has the bits of the step the package once composed from
    helpers, field by field, on random catalogs of 1 to 8 products under
    binding and slack capacity."""
    mod = RewardMod(wastage_weight=weight, critical_override=override)
    rng = np.random.default_rng([int(2 * alpha), int(weight),
                                 int(override is None)])
    fields = ("x", "executed", "b_empty", "b_critical", "q_waste", "refused",
              "per_product_rewards", "component_means")
    binding = 0
    for p in range(1, 9):
        for budget in (0.2, 50.0):     # per product: binds, never binds
            for _ in range(20):
                cat = make_catalog(
                    p=p, volume=rng.uniform(0.1, 3.0, p),
                    weight=rng.uniform(0.1, 3.0, p),
                    spoilage=rng.uniform(0.01, 1.0, p),
                    critical=rng.uniform(0.01, 0.99, p),
                    v_max=budget * p * rng.uniform(0.5, 1.5),
                    c_max=budget * p * rng.uniform(0.5, 1.5))
                x = rng.random(p) * rng.integers(0, 2, p)   # empty shelves too
                raw = rng.uniform(-0.2, 1.2, p)
                w = rng.random(p) * rng.choice([0.0, 0.3, 1.0], p)
                out = step(cat, x, raw, w, alpha, mod)
                ref = oracles.reference_step(cat, x, raw, w, alpha, mod)
                for name in fields:
                    assert getattr(out, name).tobytes() == \
                        ref[name].tobytes(), name
                assert out.rho == ref["rho"]
                assert out.component_means[[0, 4, 6]].tolist() == [
                    ref["business_reward"], ref["spread"],
                    ref["capacity_penalty"]]
                binding += out.rho > 1.0
    assert 0 < binding < 8 * 2 * 20


# ----------------------------------------------------------------- forecast

class RingForecast:
    """Trailing-average forecast kept in a zero-filled ring buffer, pushed
    one period at a time: the reference for ``Simulator.forecast``."""

    def __init__(self, window: int, num_products: int):
        self.window = window
        self.buffer = np.zeros((window, num_products))
        self._pos = 0

    def push(self, demand: np.ndarray) -> None:
        self.buffer[self._pos] = demand
        self._pos = (self._pos + 1) % self.window

    @property
    def forecast(self) -> np.ndarray:
        return self.buffer.mean(axis=0)


def forecasts_after(demand: np.ndarray, start: int, window: int):
    """``Simulator.forecast`` at every period from ``start`` to the end."""
    sim = Simulator(make_catalog(p=demand.shape[1]), demand,
                    EnvParams(forecast_window=window))
    sim.reset(np.zeros(demand.shape[1]), start)
    out = []
    for _ in range(start, len(demand)):
        out.append(sim.forecast.copy())
        sim.step(np.zeros(demand.shape[1]))
    return out + [sim.forecast.copy()]


def test_forecast_examples():
    assert forecasts_after(np.full((4, 1), 0.1), 4, 4)[0] == \
        pytest.approx([0.1])
    assert forecasts_after(np.full((1, 1), 0.4), 0, 4)[1] == \
        pytest.approx([0.1])
    got = forecasts_after(np.array([[0.1], [0.5], [0.3]]), 0, 2)
    assert got[3] == pytest.approx([0.4])


def test_forecast_empty_buffer_is_zero():
    np.testing.assert_array_equal(
        forecasts_after(np.full((5, 3), 0.7), 0, 8)[0], np.zeros(3))


@pytest.mark.parametrize("p", [1, 20])
@pytest.mark.parametrize("window", [1, 4, 8])
def test_forecast_table_matches_the_ring_buffer_bit_for_bit(p, window):
    """At every period, from every start, the tabulated forecast has the
    bits of a ring buffer warmed with the periods before the start and
    pushed once per step. 70 periods span two of ``reset``'s 64-period
    chunks."""
    demand = np.random.default_rng([p, window]).random((70, p))
    for start in range(len(demand) + 1):
        ring = RingForecast(window, p)
        for row in demand[max(0, start - window):start]:
            ring.push(row)
        for t, got in enumerate(forecasts_after(demand, start, window),
                                start):
            np.testing.assert_array_equal(got, ring.forecast,
                                          err_msg=f"start {start}, t {t}")
            if t < len(demand):
                ring.push(demand[t])


# ---------------------------------------------------------------- cumulants

def test_cumulant_examples():
    """The buffer rows one train period pushes carry, per product, the
    wastage, the stockout flag and the depletion 1 - x of the step."""
    cat = make_catalog(p=3, spoilage=[0.1, 0.4, 0.2])
    # product 0 sells out whatever it orders; product 1 sells nothing
    demand = np.array([[1.0, 0.0, 0.3]])
    x0 = np.array([0.0, 0.5, 0.6])
    bundle = make_bundle("dqn_gvf", seed=3)
    run_episode(bundle, Simulator(cat, demand), 0, 1, x0, mode="train",
                epsilon=1.0)
    assert len(bundle.buffer) == 3
    c = bundle.buffer.c[:3]
    np.testing.assert_array_equal(c[0], [0.0, 1.0, 1.0])
    out = step(cat, x0, ACTION_SET[bundle.buffer.a[:3]], demand[0])
    assert out.b_empty[1] == 0.0 and out.q_waste[1] > 0.0
    np.testing.assert_array_equal(
        c, np.column_stack([out.q_waste, out.b_empty, 1.0 - out.x]))


# ----------------------------------------------------------------- features

def test_features_identical_products_are_symmetric():
    cat = make_catalog(p=3)
    feats = simulator_features(cat, np.full(3, 0.4), np.full(3, 0.1))
    assert np.all(feats == feats[0])


def test_shelf_life_self_normalizes():
    cat = make_catalog(p=1, spoilage=[0.5])
    feats = simulator_features(cat, np.array([0.2]), np.array([0.0]))
    assert feats[0, 4] == 1.0


def test_system_features_shared_across_products():
    cat = make_catalog(p=4, volume=[1, 2, 3, 4], weight=[4, 3, 2, 1],
                       spoilage=[0.1, 0.2, 0.15, 0.25])
    feats = feature_matrix(cat, np.linspace(0.1, 0.9, 4), np.linspace(0, 0.3, 4))
    assert np.unique(feats[:, 5]).size == 1
    assert np.unique(feats[:, 6]).size == 1
    single = build_feature_vector(2, cat, np.linspace(0.1, 0.9, 4),
                                  np.linspace(0, 0.3, 4))
    np.testing.assert_array_equal(single, feats[2])

    # the simulator's build agrees with the column-by-column one
    np.testing.assert_array_equal(
        simulator_features(cat, np.linspace(0.1, 0.9, 4),
                           np.linspace(0, 0.3, 4)), feats)


# ------------------------------------------------------------- full steps

def test_step_zero_action_zero_demand():
    cat = make_catalog(p=1, spoilage=[0.1])
    out = step(cat, np.array([0.5]), np.array([0.0]), np.array([0.0]))
    assert out.x[0] == pytest.approx(0.45)
    assert out.q_waste[0] == pytest.approx(0.05)


def test_step_reward_reconstruction():
    cat = make_catalog(p=3, volume=[1, 2, 1], weight=[2, 1, 1],
                       v_max=0.4, c_max=0.5, spoilage=[0.1, 0.2, 0.3])
    rng = np.random.default_rng(11)
    out = step(cat, rng.random(3), rng.random(3), rng.random(3) * 0.5)
    reward, spread, penalty = out.component_means[[0, 4, 6]]
    rebuilt = (1.0 - out.b_empty.mean() - out.b_critical.mean()
               - out.q_waste.mean() - spread - out.refused.mean())
    assert rebuilt == pytest.approx(reward, abs=1e-12)
    np.testing.assert_array_equal(out.component_means[[1, 2, 3, 5]], [
        out.b_empty.mean(), out.b_critical.mean(), out.q_waste.mean(),
        out.refused.mean()])
    assert spread == percentile_spread(out.x)
    assert penalty == max(out.rho - 1.0, 0.0)


def test_consecutive_outcomes_do_not_alias():
    """Holding two outcomes at once: the second period writes nothing the
    first one returned."""
    cat = make_catalog(p=3, spoilage=[0.1, 0.2, 0.3])
    rng = np.random.default_rng(12)
    demand = rng.random((5, 3)) * 0.3
    sim = Simulator(cat, demand, EnvParams(forecast_window=2))
    sim.reset(np.full(3, 0.5))
    first = sim.step(np.full(3, 0.2))
    saved = {k: np.copy(v) for k, v in vars(first).items()
             if isinstance(v, np.ndarray)}

    second = sim.step(np.full(3, 0.4))
    for name, value in saved.items():
        np.testing.assert_array_equal(getattr(first, name), value)
        assert not np.shares_memory(getattr(first, name),
                                    getattr(second, name)), name
    assert not np.array_equal(first.executed, second.executed)


def test_simulator_validates_at_the_boundary():
    cat = make_catalog(p=2)
    for bad in (np.nan, np.inf, -0.1, 1.5):
        demand = np.full((4, 2), 0.2)
        demand[2, 1] = bad
        with pytest.raises(ValueError):
            Simulator(cat, demand)
    sim = Simulator(cat, np.full((4, 2), 0.2))
    for x0 in (np.array([0.5]), np.array([0.5, 1.2]), np.array([-0.3, 0.1]),
               np.array([np.nan, 0.5]), np.array([0.5, np.inf]),
               np.array([-np.inf, 0.5])):
        with pytest.raises(ValueError):
            sim.reset(x0)
    with pytest.raises(ValueError, match="forecast_window >= 1"):
        Simulator(cat, np.full((4, 2), 0.2), EnvParams(forecast_window=0))
    sim.reset(np.full(2, 0.5), start=3)
    sim.step(np.zeros(2))       # the last period of demand
    with pytest.raises(IndexError, match="past the end"):
        sim.step(np.zeros(2))


def test_step_dimension_mismatch():
    cat = make_catalog(p=2)
    with pytest.raises(ValueError):
        step(cat, np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        step(cat, np.zeros(2), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        step(cat, np.zeros(3), np.zeros(2), np.zeros(2))


def test_step_clips_negative_order_to_zero():
    """A negative order is no order, not free disposal of stock."""
    cat = make_catalog(p=2, spoilage=[0.1, 0.1])
    x = np.array([0.8, 0.3])
    demand = np.array([0.0, 0.1])
    out = step(cat, x, np.array([-0.5, 0.2]), demand)
    ref = step(cat, x, np.array([0.0, 0.2]), demand)
    np.testing.assert_array_equal(out.executed, [0.0, 0.2])
    np.testing.assert_array_equal(out.x, ref.x)
    assert out.x[0] == pytest.approx(0.72)
    assert out.q_waste[0] == pytest.approx(0.08)
    assert out.component_means[0] == ref.component_means[0]


def test_step_rejects_nonfinite_action():
    cat = make_catalog(p=2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            step(cat, np.full(2, 0.5), np.array([0.1, bad]), np.zeros(2))


def scalar_trace(x0, actions, demands, volume, weight, v_max, c_max,
                 spoilage, kappa, alpha=1.0, wastage_weight=1.0,
                 critical_override=None):
    """Hand-computation oracle: pure-Python scalar replay of an episode."""
    p = len(x0)
    if critical_override is not None:
        kappa = [critical_override] * p
    x = list(x0)
    records = []
    for a_row, w_row in zip(actions, demands):
        req = [min(a_row[i], 1.0 - x[i]) for i in range(p)]
        rho = max(sum(volume[i] * req[i] for i in range(p)) / v_max,
                  sum(weight[i] * req[i] for i in range(p)) / c_max)
        scale = 1.0 / rho if rho > 1.0 else 1.0
        exe = [req[i] * scale for i in range(p)]
        x_plus = [x[i] + exe[i] for i in range(p)]
        resid = [max(0.0, x_plus[i] - w_row[i]) for i in range(p)]
        refused = [max(0.0, w_row[i] - x_plus[i]) for i in range(p)]
        waste = [spoilage[i] * resid[i] for i in range(p)]
        x = [(1.0 - spoilage[i]) * resid[i] for i in range(p)]
        spread = sort_and_interpolate(x, 95) - sort_and_interpolate(x, 5)
        b_e = [1.0 if x[i] == 0.0 else 0.0 for i in range(p)]
        b_c = [1.0 if x[i] < kappa[i] else 0.0 for i in range(p)]
        penalty = alpha * max(rho - 1.0, 0.0)
        r = (1.0 - sum(b_e) / p - sum(b_c) / p
             - wastage_weight * sum(waste) / p - spread - sum(refused) / p)
        r_i = [1.0 - b_e[i] - b_c[i] - wastage_weight * waste[i] - spread
               - refused[i] - penalty for i in range(p)]
        records.append(dict(x=list(x), waste=waste, refused=refused, rho=rho,
                            spread=spread, penalty=penalty, r=r, r_i=r_i))
    return records


@pytest.mark.parametrize("alpha, wastage_weight, override", [
    (1.0, 1.0, None), (0.5, 2.0, 0.3), (3.0, 0.0, 0.25), (0.0, 1.5, 0.4)])
def test_step_matches_scalar_trace(alpha, wastage_weight, override):
    volume, weight = [1.0, 2.0], [2.0, 1.0]
    v_max, c_max = 1.0, 1.5
    spoilage, kappa = [0.1, 0.5], [0.2, 0.3]
    cat = make_catalog(p=2, volume=volume, weight=weight,
                       spoilage=spoilage, critical=kappa,
                       v_max=v_max, c_max=c_max)
    x0 = [0.5, 0.0]
    actions = [[0.6, 0.3], [0.0, 0.2], [0.05, 0.5]]
    demands = [[0.2, 0.4], [0.3, 0.05], [0.0, 0.1]]
    expect = scalar_trace(x0, actions, demands, volume, weight, v_max, c_max,
                          spoilage, kappa, alpha, wastage_weight, override)
    assert expect[0]["rho"] > 1.0      # the penalty is in play

    mod = RewardMod(wastage_weight=wastage_weight, critical_override=override)
    x = np.array(x0)
    for k in range(3):
        out = step(cat, x, np.array(actions[k]), np.array(demands[k]),
                   alpha, mod)
        ref = expect[k]
        np.testing.assert_allclose(out.x, ref["x"], atol=1e-12)
        np.testing.assert_allclose(out.q_waste, ref["waste"], atol=1e-12)
        np.testing.assert_allclose(out.refused, ref["refused"], atol=1e-12)
        assert out.rho == pytest.approx(ref["rho"], abs=1e-12)
        np.testing.assert_allclose(out.component_means[[0, 4, 6]],
                                   [ref["r"], ref["spread"], ref["penalty"]],
                                   atol=1e-12)
        np.testing.assert_allclose(out.per_product_rewards, ref["r_i"],
                                   atol=1e-12)
        x = out.x


# --------------------------------------------------------- property checks

catalog_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.floats(0.1, 3.0), min_size=p, max_size=p),
        st.lists(st.floats(0.1, 3.0), min_size=p, max_size=p),
        st.lists(st.floats(0.01, 1.0), min_size=p, max_size=p),
        st.lists(st.floats(0.01, 0.99), min_size=p, max_size=p),
        st.floats(0.05, 3.0),
        st.floats(0.05, 3.0),
        st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p),
        st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p),
        st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p),
    )
)


@settings(max_examples=200, deadline=None)
@given(catalog_strategy)
def test_step_invariants(args):
    p, vol, wgt, spoil, kap, v_max, c_max, x0, raw, w = args
    cat = make_catalog(p=p, volume=vol, weight=wgt, spoilage=spoil,
                       critical=kap, v_max=v_max, c_max=c_max)
    out = step(cat, np.array(x0), np.array(raw), np.array(w))

    assert np.all(out.x >= 0) and np.all(out.x <= 1 + 1e-12)
    # conservation: received stock is sold, spoiled, or carried over
    x_plus = np.array(x0) + out.executed
    sold = np.minimum(np.array(w), x_plus)
    np.testing.assert_allclose(x_plus, sold + out.q_waste + out.x,
                               atol=1e-9)
    assert cat.unit_volume @ out.executed <= cat.v_max + 1e-9
    assert cat.unit_weight @ out.executed <= cat.c_max + 1e-9
    reward, penalty = out.component_means[[0, 6]]
    assert penalty == max(out.rho - 1.0, 0.0)
    assert out.per_product_rewards.mean() == pytest.approx(
        reward - penalty, abs=1e-9)
    assert np.all(out.b_empty <= out.b_critical)
    assert -4.0 - 1e-12 <= reward <= 1.0 + 1e-12


def test_step_is_deterministic(catalog2):
    rng = np.random.default_rng(5)
    x0, raw, w = rng.random(2), rng.random(2), rng.random(2)
    a = step(catalog2, x0, raw, w)
    b = step(catalog2, x0, raw, w)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.component_means, b.component_means)


# ---------------------------------------------------------------- simulator

def test_simulator_walks_demand_and_warms_forecast():
    cat = make_catalog(p=2, spoilage=[0.1, 0.1])
    demand = np.tile(np.array([[0.1, 0.2]]), (10, 1))
    sim = Simulator(cat, demand, EnvParams(forecast_window=4))
    sim.reset(np.array([0.5, 0.5]), start=6)
    np.testing.assert_allclose(sim.forecast, [0.1, 0.2])
    feats = sim.features()
    assert feats.shape == (2, 7)
    out = sim.step(np.array([0.0, 0.0]))
    assert sim.t == 7
    assert sim.x is out.x
    assert out.x[0] == pytest.approx((0.5 - 0.1) * 0.9)


def test_simulator_cold_start_has_zero_forecast():
    cat = make_catalog(p=1)
    sim = Simulator(cat, np.full((5, 1), 0.3), EnvParams(forecast_window=4))
    sim.reset(np.array([0.2]), start=0)
    assert sim.forecast[0] == 0.0


def test_catalog_validation():
    with pytest.raises(ValueError):
        make_catalog(p=1, spoilage=[0.0])
    with pytest.raises(ValueError):
        make_catalog(p=1, critical=[1.0])
    with pytest.raises(ValueError):
        make_catalog(p=1, volume=[-1.0])
    with pytest.raises(ValueError):
        make_catalog(p=1, v_max=0.0)
