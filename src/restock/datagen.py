"""Reproducible semi-synthetic catalogs and demand series.

Demand mixes a per-product base rate with multiplicative weekly seasonality
(period 28: seven days at four replenishment slots per day), mean-one
log-normal noise and rare spike periods. Transport capacities are set a
configurable fraction below the average demanded volume/weight so the
shared constraints stay active.

Datasets round-trip exactly through a plain-text format: a key/value
header, a ``[catalog]`` table and a ``[demand]`` matrix. Floats are written
with shortest round-trip repr, so save/load is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .env import ProductCatalog

FORMAT_VERSION = 1
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
    demand_rate_lo: float = 0.02       # per-product base rate bounds
    demand_rate_hi: float = 0.12
    season_amplitude: float = 0.35
    season_period: int = 28
    noise_sigma: float = 0.2
    spike_prob: float = 0.02
    spike_mult: float = 3.0
    volume_lo: float = 0.2
    volume_hi: float = 2.0
    weight_lo: float = 0.2
    weight_hi: float = 2.0
    shelf_lo: int = 50
    shelf_hi: int = 500
    spoilage_lo: float = 0.02
    spoilage_hi: float = 0.25
    critical_lo: float = 0.02
    critical_hi: float = 0.10

    def __post_init__(self):
        if self.products < 1:
            raise ValueError("products must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0 < self.train_len < self.horizon:
            raise ValueError("train_len must split the horizon")

    @property
    def test_len(self) -> int:
        return self.horizon - self.train_len


@dataclass(frozen=True)
class Dataset:
    spec: DatasetSpec
    catalog: ProductCatalog
    demand: np.ndarray  # (horizon, products)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        same_cat = all(
            np.array_equal(getattr(self.catalog, f), getattr(other.catalog, f))
            for f in ("unit_volume", "unit_weight", "max_shelf",
                      "spoilage_rate", "critical_level")
        ) and self.catalog.v_max == other.catalog.v_max \
          and self.catalog.c_max == other.catalog.c_max
        return (self.spec == other.spec and same_cat
                and np.array_equal(self.demand, other.demand))

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

    Draw order is part of the format contract: catalog columns first, then
    demand parameters, then the noise and spike fields.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    p, horizon = spec.products, spec.horizon

    max_shelf = rng.integers(spec.shelf_lo, spec.shelf_hi + 1, p).astype(float)
    unit_volume = _loguniform(rng, spec.volume_lo, spec.volume_hi, p)
    unit_weight = _loguniform(rng, spec.weight_lo, spec.weight_hi, p)
    spoilage = rng.uniform(spec.spoilage_lo, spec.spoilage_hi, p)
    critical = rng.uniform(spec.critical_lo, spec.critical_hi, p)

    lam = _loguniform(rng, spec.demand_rate_lo, spec.demand_rate_hi, p)
    phase = rng.uniform(0.0, 2.0 * math.pi, p)
    # mean-one noise so realized demand tracks lam
    noise = rng.lognormal(mean=-0.5 * spec.noise_sigma ** 2,
                          sigma=spec.noise_sigma, size=(horizon, p))
    spikes = rng.random((horizon, p)) < spec.spike_prob

    t = np.arange(horizon)[:, None]
    season = 1.0 + spec.season_amplitude * np.sin(
        2.0 * math.pi * t / spec.season_period + phase[None, :])
    base = lam[None, :] * season * noise
    demand = np.clip(base * (1.0 + (spec.spike_mult - 1.0) * spikes), 0.0, 1.0)

    # capacities sit below mean demanded volume/weight so they bind
    v_max = spec.theta * float((demand @ unit_volume).mean())
    c_max = spec.theta * float((demand @ unit_weight).mean())

    catalog = ProductCatalog(
        unit_volume=unit_volume, unit_weight=unit_weight, max_shelf=max_shelf,
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

_HEADER_INTS = {"products", "horizon", "train_len", "seed", "season_period",
                "shelf_lo", "shelf_hi"}


def save(dataset: Dataset, path) -> None:
    spec, cat = dataset.spec, dataset.catalog
    lines = ["# restock dataset", f"format_version {FORMAT_VERSION}",
             f"prng {PRNG_NAME}"]
    for f in fields(DatasetSpec):
        lines.append(f"{f.name} {format_value(getattr(spec, f.name))}")
    lines.append(f"v_max {format_value(cat.v_max)}")
    lines.append(f"c_max {format_value(cat.c_max)}")
    lines.append("[catalog]")
    lines.append("# product max_shelf unit_volume unit_weight"
                 " spoilage_rate critical_level")
    for i in range(spec.products):
        lines.append(" ".join([
            str(i), format_value(int(cat.max_shelf[i])),
            format_value(cat.unit_volume[i]), format_value(cat.unit_weight[i]),
            format_value(cat.spoilage_rate[i]),
            format_value(cat.critical_level[i]),
        ]))
    lines.append("[demand]")
    for row in dataset.demand:
        lines.append(" ".join(format_value(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def load(path) -> Dataset:
    with open(path) as fh:
        raw_lines = fh.read().splitlines()
    lines = [ln for ln in raw_lines if ln and not ln.startswith("#")]

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

    try:
        if int(header["format_version"]) != FORMAT_VERSION:
            raise DatasetFormatError(
                "header", f"unsupported format_version {header['format_version']}")
        kwargs = {}
        for f in fields(DatasetSpec):
            raw = header[f.name]
            kwargs[f.name] = int(raw) if f.name in _HEADER_INTS else float(raw)
        spec = DatasetSpec(**kwargs)
        v_max = float(header["v_max"])
        c_max = float(header["c_max"])
    except KeyError as exc:
        raise DatasetFormatError("header", f"missing key {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, DatasetFormatError):
            raise
        raise DatasetFormatError("header", str(exc)) from exc

    idx += 1  # past [catalog]
    p = spec.products
    cat_rows = lines[idx:idx + p]
    if len(cat_rows) < p or (cat_rows and cat_rows[-1] == "[demand]"):
        raise DatasetFormatError("catalog",
                                 f"expected {p} product rows, file truncated")
    cols = np.empty((p, 5))
    for k, row in enumerate(cat_rows):
        parts = row.split()
        if len(parts) != 6:
            raise DatasetFormatError("catalog", f"bad row {k}: {row!r}")
        if int(parts[0]) != k:
            raise DatasetFormatError("catalog", f"row {k} has index {parts[0]}")
        cols[k] = [float(v) for v in parts[1:]]
    idx += p

    if idx >= len(lines) or lines[idx] != "[demand]":
        raise DatasetFormatError("demand", "missing [demand] section")
    idx += 1
    dem_rows = lines[idx:]
    if len(dem_rows) != spec.horizon:
        raise DatasetFormatError(
            "demand", f"expected {spec.horizon} rows, got {len(dem_rows)}")
    demand = np.empty((spec.horizon, p))
    for t, row in enumerate(dem_rows):
        parts = row.split()
        if len(parts) != p:
            raise DatasetFormatError("demand", f"row {t} has {len(parts)} values")
        demand[t] = [float(v) for v in parts]
    if not np.all((demand >= 0.0) & (demand <= 1.0)):
        raise DatasetFormatError("demand", "demand values must be finite "
                                 "and lie in [0, 1]")

    try:
        catalog = ProductCatalog(
            unit_volume=cols[:, 1], unit_weight=cols[:, 2], max_shelf=cols[:, 0],
            spoilage_rate=cols[:, 3], critical_level=cols[:, 4],
            v_max=v_max, c_max=c_max)
    except ValueError as exc:
        raise DatasetFormatError("catalog", str(exc)) from exc
    return Dataset(spec=spec, catalog=catalog, demand=demand)
