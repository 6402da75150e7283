"""Reproducible semi-synthetic catalogs and demand series.

Demand mixes a per-product base rate with multiplicative weekly seasonality
(period 28: seven days at four replenishment slots per day), mean-one
log-normal noise and rare spike periods; ``generate`` states the fixed
distributions. Transport capacities are set a fraction ``theta`` below the
average demanded volume/weight so the shared constraints stay active.

Datasets round-trip exactly through a plain-text format: a key/value
header, a ``[catalog]`` table and a ``[demand]`` matrix. Floats are written
with shortest round-trip repr, so save/load is byte-stable. Format 1 files,
whose catalog rows also hold a shelf size, still load.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import _is_int
from .env import ProductCatalog

FORMAT_VERSION = 2
_CATALOG_WIDTH = {"1": 6, "2": 5}   # values per catalog row, by format
PRNG_NAME = "pcg64"  # np.random.PCG64; stable across platforms


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the failing section."""

    def __init__(self, section: str, message: str):
        self.section = section
        super().__init__(f"[{section}] {message}")


@dataclass(frozen=True)
class DatasetSpec:
    products: int
    horizon: int = 1396
    train_len: int = 900
    seed: int = 0
    theta: float = 0.9                 # capacity tightness, in (0, 1)

    def __post_init__(self):
        if not (all(map(_is_int, (self.products, self.horizon,
                                  self.train_len, self.seed)))
                and self.seed >= 0):
            raise ValueError(f"need integer products, horizon, train_len and "
                             f"seed, and a seed >= 0, got {self}")
        if self.products < 1:
            raise ValueError("products must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0 < self.train_len < self.horizon:
            raise ValueError("train_len must split the horizon")

    @property
    def test_len(self) -> int:
        return self.horizon - self.train_len


@dataclass(frozen=True, eq=False)   # ``==`` would compare arrays
class Dataset:
    spec: DatasetSpec
    catalog: ProductCatalog
    demand: np.ndarray  # (horizon, products)

    @property
    def train_window(self) -> tuple[int, int]:
        """(start, length) of the training periods."""
        return 0, self.spec.train_len

    @property
    def test_window(self) -> tuple[int, int]:
        return self.spec.train_len, self.spec.test_len


def _loguniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def generate(spec: DatasetSpec) -> Dataset:
    """Build a dataset deterministically from its spec.

    Product i has a unit volume and a unit weight log-uniform on [0.2, 2],
    a spoilage rate uniform on [0.02, 0.25], a critical level uniform on
    [0.02, 0.1] and a base rate lam_i log-uniform on [0.02, 0.12]. Its
    demand in period t is lam_i * (1 + 0.35 sin(2 pi t / 28 + phase_i)) *
    noise, with a phase uniform on [0, 2 pi) and mean-one log-normal noise
    (sigma 0.2), tripled in a spike period (probability 0.02) and clipped
    to [0, 1].

    Draw order is part of the format contract: catalog columns first, then
    demand parameters, then the noise and spike fields.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    p, horizon = spec.products, spec.horizon

    rng.integers(50, 501, p)   # unread shelf sizes; keeps the later draws
    unit_volume = _loguniform(rng, 0.2, 2.0, p)
    unit_weight = _loguniform(rng, 0.2, 2.0, p)
    spoilage = rng.uniform(0.02, 0.25, p)
    critical = rng.uniform(0.02, 0.10, p)

    lam = _loguniform(rng, 0.02, 0.12, p)
    phase = rng.uniform(0.0, 2.0 * math.pi, p)
    # mean-one noise so realized demand tracks lam
    sigma = 0.2
    noise = rng.lognormal(mean=-0.5 * sigma ** 2, sigma=sigma,
                          size=(horizon, p))
    spikes = rng.random((horizon, p)) < 0.02

    t = np.arange(horizon)[:, None]
    season = 1.0 + 0.35 * np.sin(2.0 * math.pi * t / 28 + phase[None, :])
    base = lam[None, :] * season * noise
    demand = np.clip(base * (1.0 + 2.0 * spikes), 0.0, 1.0)

    # capacities sit below mean demanded volume/weight so they bind
    v_max = spec.theta * float((demand @ unit_volume).mean())
    c_max = spec.theta * float((demand @ unit_weight).mean())

    catalog = ProductCatalog(
        unit_volume=unit_volume, unit_weight=unit_weight,
        spoilage_rate=spoilage, critical_level=critical,
        v_max=v_max, c_max=c_max)
    return Dataset(spec=spec, catalog=catalog, demand=demand)


def initial_inventories(p: int, seed) -> np.ndarray:
    """Uniform [0, 1] starting inventories, deterministic in the seed.

    ``seed`` may be an int or a ``np.random.SeedSequence`` so callers can
    derive per-episode draws that are shared across algorithms.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return np.random.Generator(np.random.PCG64(seed)).random(p)


# ------------------------------------------------------------------ file io

def save(dataset: Dataset, path) -> None:
    spec, cat = dataset.spec, dataset.catalog
    lines = ["# restock dataset", f"format_version {FORMAT_VERSION}",
             f"prng {PRNG_NAME}"]
    for f in fields(DatasetSpec):
        lines.append(f"{f.name} {format_value(getattr(spec, f.name))}")
    lines.append(f"v_max {format_value(cat.v_max)}")
    lines.append(f"c_max {format_value(cat.c_max)}")
    lines.append("[catalog]")
    lines.append("# product unit_volume unit_weight spoilage_rate critical_level")
    columns = (cat.unit_volume, cat.unit_weight, cat.spoilage_rate,
               cat.critical_level)
    for i, row in enumerate(zip(*columns)):
        lines.append(" ".join([str(i), *map(format_value, row)]))
    lines.append("[demand]")
    lines.extend(" ".join(map(repr, row)) for row in dataset.demand.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _table(section: str, rows: list[str], shape: tuple) -> np.ndarray:
    """A section's rows as a float table of ``shape``, in one parse."""
    if len(rows) != shape[0]:
        raise DatasetFormatError(section, f"expected {shape[0]} rows, got "
                                 f"{len(rows)}: file truncated or padded")
    try:
        table = np.loadtxt(rows, ndmin=2)
    except ValueError as exc:
        raise DatasetFormatError(section, str(exc)) from exc
    if table.shape != shape:
        raise DatasetFormatError(section, f"expected a {shape} table, got "
                                 f"{table.shape}")
    return table


_LOADED: dict[str, Dataset] = {}   # last 4 by file sha256, least recent first


def load(path) -> Dataset:
    return load_with_digest(path)[0]


def load_with_digest(path) -> tuple[Dataset, str]:
    """The dataset a file holds and the sha256 of its bytes. Bytes seen by
    one of the last few calls are not parsed again: their Dataset is
    returned, shared, so its arrays are read-only."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    dataset = _LOADED.pop(digest, None) or _parse(data.decode())
    _LOADED[digest] = dataset
    if len(_LOADED) > 4:
        del _LOADED[next(iter(_LOADED))]
    return dataset, digest


def _parse(text: str) -> Dataset:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]

    header: dict[str, str] = {}
    idx = 0
    while idx < len(lines) and lines[idx] != "[catalog]":
        parts = lines[idx].split(None, 1)
        if len(parts) != 2:
            raise DatasetFormatError("header", f"bad line: {lines[idx]!r}")
        header[parts[0]] = parts[1]
        idx += 1
    if idx == len(lines):
        raise DatasetFormatError("header", "missing [catalog] section")

    version = header.get("format_version")
    width = _CATALOG_WIDTH.get(version)
    if width is None:
        raise DatasetFormatError("header", f"unsupported format_version {version}")
    try:
        kwargs = {}
        for f in fields(DatasetSpec):
            raw = header[f.name]
            # ``from __future__ import annotations`` makes f.type a string
            kwargs[f.name] = int(raw) if f.type == "int" else float(raw)
        spec = DatasetSpec(**kwargs)
        v_max = float(header["v_max"])
        c_max = float(header["c_max"])
    except KeyError as exc:
        raise DatasetFormatError("header", f"missing key {exc}") from exc
    except ValueError as exc:
        raise DatasetFormatError("header", str(exc)) from exc

    idx += 1  # past [catalog]
    p = spec.products
    table = _table("catalog", lines[idx:idx + p], (p, width))
    if not np.array_equal(table[:, 0], np.arange(p)):
        raise DatasetFormatError("catalog", f"product indices must run 0..{p - 1}")
    idx += p

    if idx >= len(lines) or lines[idx] != "[demand]":
        raise DatasetFormatError("demand", "missing [demand] section")
    demand = _table("demand", lines[idx + 1:], (spec.horizon, p))
    if not np.all((demand >= 0.0) & (demand <= 1.0)):
        raise DatasetFormatError("demand", "demand values must be finite "
                                 "and lie in [0, 1]")

    try:   # the last four columns hold the catalog's vectors, in field order
        catalog = ProductCatalog(*table[:, -4:].T, v_max=v_max, c_max=c_max)
    except ValueError as exc:
        raise DatasetFormatError("catalog", str(exc)) from exc
    for array in (demand, *vars(catalog).values()):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return Dataset(spec=spec, catalog=catalog, demand=demand)
