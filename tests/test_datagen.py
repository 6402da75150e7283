import numpy as np
import pytest

from restock import datagen
from restock.datagen import (Dataset, DatasetFormatError, DatasetSpec,
                             generate, initial_inventories, load, save)
from restock.baselines import heuristic_action
from restock.env import Simulator


def small_spec(**kw):
    defaults = dict(products=5, horizon=60, train_len=40, seed=11)
    defaults.update(kw)
    return DatasetSpec(**defaults)


def test_same_seed_gives_byte_identical_files(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save(generate(small_spec()), a)
    save(generate(small_spec()), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ():
    d1 = generate(small_spec(seed=1))
    d2 = generate(small_spec(seed=2))
    assert not np.array_equal(d1.demand, d2.demand)


def test_capacity_below_mean_demand_by_construction():
    ds = generate(small_spec(theta=0.9))
    mean_vol = float((ds.demand @ ds.catalog.unit_volume).mean())
    mean_wgt = float((ds.demand @ ds.catalog.unit_weight).mean())
    assert ds.catalog.v_max < mean_vol
    assert ds.catalog.c_max < mean_wgt
    assert ds.catalog.v_max == pytest.approx(0.9 * mean_vol)
    assert ds.catalog.c_max == pytest.approx(0.9 * mean_wgt)


def test_demand_matrix_shape_full_horizon():
    ds = generate(DatasetSpec(products=3, seed=0))
    assert ds.demand.shape == (1396, 3)
    assert ds.spec.train_len == 900
    assert ds.spec.test_len == 496
    assert ds.test_window == (900, 496)


def test_mean_demand_tracks_base_rate():
    # spikes add ~4% in expectation; check the 10% envelope per product
    ds = generate(DatasetSpec(products=30, seed=3))
    rng = np.random.Generator(np.random.PCG64(3))
    rng.integers(50, 501, 30)
    rng.uniform(np.log(0.2), np.log(2.0), 30)
    rng.uniform(np.log(0.2), np.log(2.0), 30)
    rng.uniform(0.02, 0.25, 30)
    rng.uniform(0.02, 0.10, 30)
    lam = np.exp(rng.uniform(np.log(0.02), np.log(0.12), 30))
    ratio = ds.demand.mean(axis=0) / lam
    assert np.all(np.abs(ratio - 1.0) < 0.10)


def test_demand_nonnegative_and_bounded():
    ds = generate(small_spec(seed=9))
    assert np.all(ds.demand >= 0)
    assert np.all(ds.demand <= 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(products=0)
    with pytest.raises(ValueError):
        DatasetSpec(products=3, theta=1.0)
    with pytest.raises(ValueError):
        DatasetSpec(products=3, horizon=10, train_len=10)


def test_roundtrip_identity(tmp_path):
    ds = generate(small_spec(seed=21))
    path = tmp_path / "ds.txt"
    save(ds, path)
    assert load(path) == ds


def test_truncated_file_reports_section(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "ds.txt"
    save(ds, path)
    text = path.read_text().splitlines()

    short = tmp_path / "short.txt"
    short.write_text("\n".join(text[:len(text) // 2]) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load(short)
    assert err.value.section == "demand"

    headless = tmp_path / "headless.txt"
    headless.write_text("\n".join(text[:4]) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load(headless)
    assert err.value.section == "header"


def test_invariant_violation_on_load(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "ds.txt"
    save(ds, path)
    lines = path.read_text().splitlines()
    k = lines.index("[catalog]") + 2  # past the column comment
    parts = lines[k].split()
    parts[4] = "0.0"  # zero spoilage rate is invalid
    lines[k] = " ".join(parts)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load(bad)
    assert err.value.section == "catalog"


def test_demand_outside_unit_interval_rejected_on_load(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "ds.txt"
    save(ds, path)
    lines = path.read_text().splitlines()
    k = lines.index("[demand]") + 3
    for value in ("nan", "inf", "1.5", "-0.2"):
        parts = lines[k].split()
        parts[1] = value
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines[:k] + [" ".join(parts)]
                                 + lines[k + 1:]) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            load(bad)
        assert err.value.section == "demand", value
    assert load(path) == ds


def test_initial_inventories():
    a = initial_inventories(50, 123)
    b = initial_inventories(50, 123)
    c = initial_inventories(50, 124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a <= 1))
    with pytest.raises(ValueError):
        initial_inventories(0, 1)


def test_initial_inventories_accepts_seed_sequence():
    ss = np.random.SeedSequence([7, 3])
    a = initial_inventories(4, ss)
    b = initial_inventories(4, np.random.SeedSequence([7, 3]))
    np.testing.assert_array_equal(a, b)


def test_capacity_constraint_stays_active_for_heuristic():
    """At theta=0.9 an order-up-to policy must hit the transport cap."""
    ds = generate(small_spec(products=10, seed=5))
    sim = Simulator(ds.catalog, ds.demand, forecast_window=8)
    x = initial_inventories(10, 0)
    sim.reset(x, start=0)
    violations = 0
    for _ in range(40):
        u = heuristic_action(sim.state.x, sim.forecaster.forecast, 0.5)
        out = sim.step(u)
        violations += out.rho > 1.0
    assert violations > 0


def test_loaded_catalog_vectors_are_contiguous(tmp_path):
    """A loaded catalog has the layout of a generated one, so its dot
    products sum in the same order."""
    path = tmp_path / "ds.txt"
    save(generate(small_spec(products=20)), path)
    catalog = load(path).catalog
    for name in ("unit_volume", "unit_weight", "max_shelf", "spoilage_rate",
                 "critical_level"):
        assert getattr(catalog, name).flags.c_contiguous, name
