import hashlib
import shutil
from dataclasses import astuple, fields

import numpy as np
import pytest

from restock import datagen
from restock.datagen import (Dataset, DatasetFormatError, DatasetSpec,
                             generate, initial_inventories, load, save)
from restock.baselines import heuristic_action
from restock.config import EnvParams
from restock.env import Simulator

import oracles


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Equal specs, catalogs and demand, array by array."""
    return (a.spec == b.spec
            and a.catalog.v_max == b.catalog.v_max
            and a.catalog.c_max == b.catalog.c_max
            and all(np.array_equal(getattr(a.catalog, f),
                                   getattr(b.catalog, f))
                    for f in ("unit_volume", "unit_weight", "spoilage_rate",
                              "critical_level"))
            and np.array_equal(a.demand, b.demand))


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
    # a non-integer would generate a file that ``load`` refuses
    for bad in (dict(train_len=40.5), dict(products=3.0), dict(horizon=60.0),
                dict(seed=1.5), dict(products=True), dict(seed=True),
                dict(horizon="60"), dict(seed=-1)):
        with pytest.raises(ValueError):
            DatasetSpec(**{**dict(products=3, horizon=60, train_len=40), **bad})


@pytest.mark.parametrize("spec", [
    DatasetSpec(products=1, horizon=30, train_len=20, seed=0, theta=0.5),
    DatasetSpec(products=5, horizon=60, train_len=40, seed=11),
    DatasetSpec(products=20, seed=7, theta=0.7),
    DatasetSpec(products=100, horizon=400, train_len=300, seed=12345,
                theta=0.95),
], ids=lambda spec: f"p{spec.products}")
def test_generate_matches_the_parameterised_reference(spec):
    """``generate`` with its distributions as constants gives the bits the
    generator gave when they were spec fields. The reference is computed on
    this machine, not stored, since ``np.sin`` may round differently on
    other CPUs."""
    assert same_dataset(generate(spec), oracles.reference_generate(spec))


def header_lines(path) -> list[str]:
    text = path.read_text()
    return [ln for ln in text.split("[catalog]")[0].splitlines()
            if not ln.startswith("#")]


def test_saved_header_holds_the_spec_and_capacities(tmp_path):
    spec = small_spec(theta=0.5)
    path = tmp_path / "ds.txt"
    save(generate(spec), path)
    header = dict(ln.split(" ", 1) for ln in header_lines(path))
    assert list(header) == ["format_version", "prng", "products", "horizon",
                            "train_len", "seed", "theta", "v_max", "c_max"]
    assert [header[f.name] for f in fields(DatasetSpec)] == \
        ["5", "60", "40", "11", "0.5"]


def test_a_file_with_the_old_header_loads(tmp_path):
    """A file whose header also lists the generator's distributions, as
    files did when they were spec fields, loads to the same dataset."""
    spec = small_spec(seed=23)
    path = tmp_path / "ds.txt"
    save(generate(spec), path)
    lines = path.read_text().splitlines()
    k = lines.index(f"theta {spec.theta!r}") + 1
    old = [f"{f.name} {datagen.format_value(v)}" for f, v in zip(
        fields(oracles.GeneratorParams), astuple(oracles.GeneratorParams()))]
    assert len(old) == 17 and "season_period 28" in old
    (tmp_path / "old.txt").write_text("\n".join(lines[:k] + old + lines[k:])
                                      + "\n")
    assert len(header_lines(tmp_path / "old.txt")) == 9 + 17
    assert same_dataset(load(tmp_path / "old.txt"), generate(spec))


def test_a_format_1_file_loads(tmp_path):
    """A file written by the format 1 writer, whose catalog rows also hold
    shelf sizes, loads to the dataset it was written from."""
    for spec in (small_spec(seed=29), small_spec(products=1, seed=0)):
        ds = generate(spec)
        path = tmp_path / f"v1_{spec.products}.txt"
        oracles.reference_save(ds, path)
        assert "format_version 1" in header_lines(path)
        assert same_dataset(load(path), ds)


def test_saved_catalog_rows_hold_five_values(tmp_path):
    path = tmp_path / "ds.txt"
    save(generate(small_spec()), path)
    assert header_lines(path)[0] == "format_version 2"
    lines = path.read_text().splitlines()
    k = lines.index("[catalog]") + 2  # past the column comment
    assert [len(ln.split()) for ln in lines[k:lines.index("[demand]")]] == \
        [5] * 5


@pytest.mark.parametrize("version", ["3", "2.0", "0"])
def test_an_unknown_format_version_is_refused(tmp_path, version):
    path = tmp_path / "ds.txt"
    save(generate(small_spec()), path)
    text = path.read_text().replace("format_version 2",
                                    f"format_version {version}", 1)
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(DatasetFormatError) as err:
        load(tmp_path / "bad.txt")
    assert err.value.section == "header"


def test_a_format_2_file_with_format_1_catalog_rows_is_refused(tmp_path):
    """Catalog rows of six values, shelf sizes included, are format 1's."""
    path = tmp_path / "v1.txt"
    oracles.reference_save(generate(small_spec()), path)
    lines = path.read_text().splitlines()
    lines[lines.index("format_version 1")] = "format_version 2"
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as err:
        load(tmp_path / "bad.txt")
    assert err.value.section == "catalog"


def test_roundtrip_identity(tmp_path):
    ds = generate(small_spec(seed=21))
    path = tmp_path / "ds.txt"
    save(ds, path)
    assert same_dataset(load(path), ds)


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


def test_dataset_equality_is_identity():
    """``==`` on datasets would compare arrays; it is object identity."""
    ds = generate(small_spec())
    assert ds == ds and ds != generate(small_spec())
    assert same_dataset(ds, generate(small_spec()))


def rewrite(tmp_path, path, section: str, offset: int, edit):
    """A copy of a saved dataset whose line ``offset`` past ``section``'s
    marker is replaced by ``edit(its tokens)``."""
    lines = path.read_text().splitlines()
    k = lines.index(section) + offset
    lines[k] = " ".join(edit(lines[k].split()))
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


@pytest.mark.parametrize("section, offset, edit", [
    ("[catalog]", 2, lambda parts: parts[:2] + ["wide"] + parts[3:]),
    ("[catalog]", 2, lambda parts: parts[:-1]),
    ("[catalog]", 3, lambda parts: ["7"] + parts[1:]),
    ("[catalog]", 3, lambda parts: ["1.5"] + parts[1:]),
    ("[demand]", 3, lambda parts: parts[:1] + ["0.1x"] + parts[2:]),
    ("[demand]", 3, lambda parts: parts[:-1]),
    ("[demand]", 3, lambda parts: parts + ["0.1"]),
])
def test_malformed_table_reports_its_section(tmp_path, section, offset, edit):
    """A non-numeric token, a ragged row or a misplaced product index is a
    format error of the section it sits in."""
    path = tmp_path / "ds.txt"
    save(generate(small_spec()), path)
    with pytest.raises(DatasetFormatError) as err:
        load(rewrite(tmp_path, path, section, offset, edit))
    assert err.value.section == section.strip("[]")


def test_invariant_violation_on_load(tmp_path):
    ds = generate(small_spec())
    path = tmp_path / "ds.txt"
    save(ds, path)
    lines = path.read_text().splitlines()
    k = lines.index("[catalog]") + 2  # past the column comment
    parts = lines[k].split()
    parts[3] = "0.0"  # zero spoilage rate is invalid
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
    assert same_dataset(load(path), ds)


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
    sim = Simulator(ds.catalog, ds.demand, EnvParams(forecast_window=8))
    x = initial_inventories(10, 0)
    sim.reset(x, start=0)
    violations = 0
    for _ in range(40):
        u = heuristic_action(sim.x, sim.forecast, 0.5)
        out = sim.step(u)
        violations += out.rho > 1.0
    assert violations > 0


def test_loaded_catalog_vectors_are_contiguous(tmp_path):
    """A loaded catalog has the layout of a generated one, so its dot
    products sum in the same order."""
    path = tmp_path / "ds.txt"
    save(generate(small_spec(products=20)), path)
    catalog = load(path).catalog
    for name in ("unit_volume", "unit_weight", "spoilage_rate",
                 "critical_level"):
        assert getattr(catalog, name).flags.c_contiguous, name


def test_save_writes_demand_as_the_per_value_writer(tmp_path):
    """The demand rows hold the bytes that ``format_value`` gives value by
    value, on the smallest subnormal, 1.0, 1e-5 and 17-digit values."""
    ds = generate(small_spec(products=4, horizon=6, train_len=3))
    edges = [5e-324, 1.0, 1e-5, 0.0, 0.12345678901234568, 0.9999999999999999,
             2.2250738585072014e-308, 1 / 3]
    demand = np.resize(edges, ds.demand.shape)
    demand[3] = np.random.default_rng(0).random(4)
    path = tmp_path / "ds.txt"
    save(Dataset(spec=ds.spec, catalog=ds.catalog, demand=demand), path)
    text = path.read_text()
    assert text.endswith("".join(
        " ".join(datagen.format_value(v) for v in row) + "\n"
        for row in demand))
    assert text.split("[demand]\n")[1].count("\n") == len(demand)
    assert np.array_equal(load(path).demand, demand)


def test_load_parses_each_content_once(tmp_path, monkeypatch):
    """A second load of the same bytes parses nothing and returns the same
    read-only Dataset, with the sha256 of the bytes; a rewritten file is
    parsed again, and the least recently loaded content drops out after a
    few others."""
    path = tmp_path / "ds.txt"
    save(generate(small_spec(seed=31)), path)
    first = load(path)
    parse = datagen._parse

    def no_parse(text):
        raise AssertionError("parsed bytes seen before")
    monkeypatch.setattr(datagen, "_parse", no_parse)
    assert load(path) is first
    assert datagen.load_with_digest(path) == (
        first, hashlib.sha256(path.read_bytes()).hexdigest())
    shutil.copy(path, tmp_path / "copy.txt")
    assert load(tmp_path / "copy.txt") is first

    parsed = []
    monkeypatch.setattr(datagen, "_parse",
                        lambda text: parsed.append(text) or parse(text))
    save(generate(small_spec(seed=32)), path)
    rewritten = load(path)
    assert len(parsed) == 1
    assert same_dataset(rewritten, generate(small_spec(seed=32)))
    for seed in range(33, 37):
        save(generate(small_spec(seed=seed)), tmp_path / f"{seed}.txt")
        load(tmp_path / f"{seed}.txt")
    assert load(tmp_path / "copy.txt") is not first
    assert same_dataset(load(tmp_path / "copy.txt"), first)


def test_loaded_arrays_are_read_only(tmp_path):
    path = tmp_path / "ds.txt"
    save(generate(small_spec()), path)
    ds = load(path)
    for array in (ds.demand, ds.catalog.unit_volume, ds.catalog.unit_weight,
                  ds.catalog.spoilage_rate, ds.catalog.critical_level):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    assert same_dataset(ds, generate(small_spec()))
