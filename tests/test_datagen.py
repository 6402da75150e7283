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


def with_shelf_sizes(path, version: str) -> str:
    """A saved file's text under ``format_version {version}``, each catalog
    row holding a shelf size after its product index, as format 1 files
    did."""
    lines = path.read_text().splitlines()
    for k in range(lines.index("[catalog]") + 2, lines.index("[demand]")):
        product, rest = lines[k].split(" ", 1)
        lines[k] = f"{product} {50 + k} {rest}"
    lines[lines.index("format_version 2")] = f"format_version {version}"
    return "\n".join(lines) + "\n"


def test_a_format_1_file_is_refused(tmp_path):
    """A format 1 file, whose catalog rows also hold shelf sizes, fails in
    its header with an error that names the file and the version."""
    path = tmp_path / "ds.txt"
    save(generate(small_spec(seed=29)), path)
    (tmp_path / "v1.txt").write_text(with_shelf_sizes(path, "1"))
    with pytest.raises(DatasetFormatError, match="format_version 1") as err:
        load(tmp_path / "v1.txt")
    assert err.value.section == "header"
    assert str(tmp_path / "v1.txt") in str(err.value)


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
    path = tmp_path / "ds.txt"
    save(generate(small_spec()), path)
    (tmp_path / "bad.txt").write_text(with_shelf_sizes(path, "2"))
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
    sim.reset(x, 0, 40)
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


def test_format_value_examples():
    """The one text form of a value in the lab's files: bools by name,
    integers in decimal, floats by round-trip ``repr``, the rest by
    ``str``."""
    for value, text in ((True, "True"), (np.bool_(False), "False"),
                        (7, "7"), (np.int64(-3), "-3"), (0.1, "0.1"),
                        (np.float64(1e-5), "1e-05"), (np.float32(0.5), "0.5"),
                        (float("nan"), "nan"), ("optimal", "optimal"),
                        (None, "None")):
        assert datagen.format_value(value) == text, value


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


def table_text(rows, sep: str, end: str) -> str:
    """The reference of ``format_table``: each value by ``format_value``."""
    return "".join(sep.join(map(datagen.format_value, row)) + end
                   for row in rows)


def orjson_text(rows) -> str:
    """orjson's text of a block, or ``refused``."""
    import orjson
    try:
        return orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    except orjson.JSONEncodeError:
        return "refused"


def assert_table_is_per_value(values: np.ndarray, name: str):
    """``format_table`` of ``values`` as one column and as rows of eight,
    as an array and as lists of Python floats, is ``table_text``."""
    values = values[:len(values) // 8 * 8]
    for rows, sep, end in ((values.reshape(-1, 1), ",", "\r\n"),
                           (values.reshape(-1, 8), " ", "\n"),
                           (values.reshape(-1, 8).tolist(), ",", "\n")):
        assert datagen.format_table(rows, sep, end) == \
            table_text(rows, sep, end), (name, len(rows[0]))


def test_format_table_is_repr_byte_for_byte():
    """``format_table`` writes each value as ``repr`` does: at the edges
    where ``repr`` switches to an exponent and one ulp either side, on
    signed zeros and subnormals, on every finite float16, on random draws
    and on random float64 and float32 bit patterns. The edges give orjson
    tokens of both kinds it rewrites, an exponent and a plain value below
    1e-4, and one that holds ``0.0000`` only in its middle."""
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1.7976931348623157e308]
    for edge in (1e-5, 1e-4, 1e16, 10.00001, -0.00005):
        edges += [np.nextafter(edge, -np.inf), edge,
                  np.nextafter(edge, np.inf)]
    edges = np.array(edges + [-v for v in edges])
    tokens = orjson_text(edges)[1:-1].split(",")
    assert any("e" in t for t in tokens)
    assert any(t.lstrip("-").startswith("0.0000") for t in tokens)
    assert "10.00001" in tokens and "-0.00005" in tokens
    for rows in (edges.reshape(-1, 1), edges.reshape(-1, 7).tolist()):
        for sep, end in ((",", "\r\n"), (" ", "\n")):
            assert datagen.format_table(rows, sep, end) == \
                table_text(rows, sep, end), sep
    assert datagen.format_table([[1e16, 1e-5, -0.0],
                                 [0.00005, 10.00001, 5e-324]], " ", "\n") \
        == "1e+16 1e-05 -0.0\n5e-05 10.00001 5e-324\n"

    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2**64, 30_000, dtype=np.uint64)
    with np.errstate(invalid="ignore"):   # a float32 signalling NaN is NaN
        cases = {
            "random": rng.random(200_000),
            "normal": rng.normal(size=200_000),
            "10^U(-300, 300)": 10.0 ** rng.uniform(-300, 300, 30_000),
            "float64 bits": bits.view(np.float64),
            "float32 bits": bits.view(np.float32).astype(np.float64),
            "every float16": np.arange(2**16, dtype=np.uint16)
            .view(np.float16).astype(np.float64),
        }
    for name, values in cases.items():
        assert_table_is_per_value(values[np.isfinite(values)], name)
    assert datagen.format_table(np.zeros((0, 3)), ",", "\n") == ""
    assert datagen.format_table([], ",", "\n") == ""


@pytest.mark.parametrize("rows, text, orjson_says", [
    ([[1.0, np.nan], [-np.inf, 5e-324], [np.inf, -0.0]],
     "1.0,nan\n-inf,5e-324\ninf,-0.0\n", "null"),
    ([[-2**63, 2**63 - 1, 0.5], [np.int64(3), np.uint8(7), np.float64(1e-5)]],
     "-9223372036854775808,9223372036854775807,0.5\n3,7,1e-05\n",
     ",0.00001]"),
    ([[2**70, 1e-5], [-2**64, 2]],
     "1180591620717411303424,1e-05\n-18446744073709551616,2\n", "refused"),
], ids=["nan_and_infinities", "int64_range_and_mixed", "int_beyond_int64"])
def test_format_table_on_ints_nan_and_infinities(rows, text, orjson_says):
    """A block with NaN or an infinity (orjson's ``null``) or an int beyond
    64 bits (which orjson refuses) is written by ``format_value``; ints of
    the int64 range and floats mix in one row of one ``orjson`` call."""
    assert orjson_says in orjson_text(rows)
    assert datagen.format_table(rows, ",", "\n") == text
    assert datagen.format_table(rows, " ", "\r\n") == \
        table_text(rows, " ", "\r\n")


@pytest.mark.parametrize("products", [1, 5, 100])
def test_save_keeps_the_bytes_of_the_per_value_writer(tmp_path, products):
    ds = generate(DatasetSpec(products=products, seed=products))
    save(ds, tmp_path / "ds.txt")
    oracles.reference_save(ds, tmp_path / "oracle.txt")
    assert (tmp_path / "ds.txt").read_bytes() == \
        (tmp_path / "oracle.txt").read_bytes()


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
