"""Multi-product replenishment dynamics with a decomposed business reward.

All quantities are normalized per product: inventory ``x_i``, order ``u_i``
and demand ``w_i`` are fractions of product i's shelf capacity, so every
state component lives in [0, 1]. ``step`` computes one period in one body:
clip the requested order to [0, free shelf space], scale the whole order
down if it exceeds the shared transport capacity, receive stock, serve
demand, spoil the unsold residue, then score the outcome under the config's
own validated reward knobs, ``EnvParams.alpha`` and a ``RewardMod``. Its
``StepOutcome`` holds the per-product arrays, the capacity ratio, the
per-product rewards and the seven store-level means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EnvParams, RewardMod

#: Discrete replenishment fractions available to the learning agents.
ACTION_SET = np.array([
    0.0, 0.005, 0.01, 0.0125, 0.015, 0.0175, 0.02,
    0.03, 0.04, 0.08, 0.12, 0.2, 0.5, 1.0,
])
NUM_ACTIONS = len(ACTION_SET)
NUM_FEATURES = 7


def _as_vector(values, p: int, name: str) -> np.ndarray:
    # contiguous, so a dot product sums in the same order whatever the
    # input's layout (a column view of a loaded table, a pickled copy)
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape != (p,):
        raise ValueError(f"{name}: expected shape ({p},), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ProductCatalog:
    """Static per-product metadata plus the shared transport capacities.

    ``unit_volume`` / ``unit_weight`` are the volume and weight of one full
    shelf of a product, so ``unit_volume @ u`` is the total volume of an
    order expressed in normalized shelf units.
    """

    unit_volume: np.ndarray
    unit_weight: np.ndarray
    spoilage_rate: np.ndarray   # fraction of unsold stock lost per period, (0, 1]
    critical_level: np.ndarray  # minimum presentation level, (0, 1)
    v_max: float
    c_max: float

    def __post_init__(self):
        p = len(np.atleast_1d(self.unit_volume))
        for name in ("unit_volume", "unit_weight", "spoilage_rate",
                     "critical_level"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), p, name))
        object.__setattr__(self, "v_max", float(self.v_max))
        object.__setattr__(self, "c_max", float(self.c_max))
        if not (np.all(self.unit_volume > 0) and np.all(self.unit_weight > 0)):
            raise ValueError("unit volumes and weights must be strictly positive")
        if not (self.v_max > 0 and self.c_max > 0):
            raise ValueError("v_max and c_max must be strictly positive")
        if not np.all((self.spoilage_rate > 0) & (self.spoilage_rate <= 1)):
            raise ValueError("spoilage rates must lie in (0, 1]")
        if not np.all((self.critical_level > 0) & (self.critical_level < 1)):
            raise ValueError("critical levels must lie in (0, 1)")

    @property
    def num_products(self) -> int:
        return self.unit_volume.shape[0]


@dataclass(frozen=True)
class StepOutcome:
    """Everything observable about one completed period, each fact once."""

    x: np.ndarray               # end-of-period inventory: the next x
    executed: np.ndarray        # physically received order
    b_empty: np.ndarray         # end-of-period stockout flags (0/1)
    b_critical: np.ndarray      # end-of-period below-critical flags (0/1)
    q_waste: np.ndarray         # spoiled quantity per product
    refused: np.ndarray         # demand lost to insufficient stock
    rho: float                  # requested-order capacity ratio
    per_product_rewards: np.ndarray
    #: (7,) business reward, empty, critical, wastage, spread (95th minus
    #: 5th percentile of the inventories), refused and capacity penalty
    #: alpha * max(rho - 1, 0), each the period's mean over products
    component_means: np.ndarray


def apply_demand_and_spoilage(x_plus: np.ndarray, demand: np.ndarray,
                              spoilage: np.ndarray):
    """Serve demand from stock, then spoil the unsold residue.

    Returns ``(x_next, q_waste, refused)`` with the conservation identity
    x+ = sold + waste + x_next, where sold = min(demand, x+).
    """
    residual = np.maximum(0.0, x_plus - demand)
    refused = np.maximum(0.0, demand - x_plus)
    q_waste = spoilage * residual
    x_next = (1.0 - spoilage) * residual
    return x_next, q_waste, refused


def _percentile(ranked: list[float], q: float) -> float:
    """Linear interpolation between ranks, as ``np.percentile`` computes it
    (including its two-sided lerp), on an ascending list."""
    pos = (len(ranked) - 1) * (q / 100.0)
    lo = int(pos)
    t = pos - lo
    if t == 0.0:
        return ranked[lo]
    a, b = ranked[lo], ranked[lo + 1]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def percentile_spread(x: np.ndarray) -> float:
    """95th minus 5th percentile, linear interpolation between ranks."""
    ranked = np.sort(x).tolist()
    return _percentile(ranked, 95.0) - _percentile(ranked, 5.0)


def step(catalog: ProductCatalog, x: np.ndarray, raw_action: np.ndarray,
         demand: np.ndarray, alpha: float = 1.0,
         mod: RewardMod = RewardMod()) -> StepOutcome:
    """Advance one period from the inventory ``x``: the one place a period
    is computed. Pure function of its inputs; ``alpha`` weighs the capacity
    penalty of the per-product rewards.

    The catalog, the inventory and the demand are validated where they are
    built (``Simulator.reset`` checks ``x0``); per period only the shapes
    and the action's finiteness are checked. Every returned array is new,
    so outcomes never alias.
    """
    raw = np.asarray(raw_action, dtype=float)
    w = np.asarray(demand, dtype=float)
    p = catalog.num_products
    if not raw.shape == w.shape == x.shape == (p,):
        raise ValueError(f"action {raw.shape}, demand {w.shape} and "
                         f"inventory {x.shape} must all have shape ({p},)")
    if not np.isfinite(raw).all():
        raise ValueError("action must be finite")

    # no negative order (free disposal of stock), none past the free shelf
    requested = np.minimum(np.maximum(raw, 0.0), 1.0 - x)
    # requested volume and weight against the transport budget; an order
    # over it is scaled down as a whole to a ratio of exactly 1
    rho = float(max(catalog.unit_volume @ requested / catalog.v_max,
                    catalog.unit_weight @ requested / catalog.c_max))
    executed = requested if rho <= 1.0 else requested / rho
    # for x in [0, 1], executed <= fl(1 - x) and fl(x + fl(1 - x)) <= 1 under
    # round-to-nearest, so the receipt fits the shelf with no clamp
    x_next, q_waste, refused = apply_demand_and_spoilage(
        x + executed, w, catalog.spoilage_rate)

    spread = percentile_spread(x_next)
    kappa = (mod.critical_override if mod.critical_override is not None
             else catalog.critical_level)
    terms = np.empty((4, p))    # per product: empty, critical, waste, refused
    np.equal(x_next, 0.0, out=terms[0])
    np.less(x_next, kappa, out=terms[1])
    terms[2], terms[3] = q_waste, refused
    empty, critical, wastage, lost = (terms.sum(axis=1) / p).tolist()
    b_empty, b_critical, q_waste, refused = terms
    penalty = alpha * max(rho - 1.0, 0.0)
    # the store's reward is 1 minus the five mean penalty terms; a product's
    # shares them product-wise and adds the capacity penalty, so the mean of
    # the products' rewards is the store's whenever rho <= 1
    reward = (1.0 - empty - critical - mod.wastage_weight * wastage
              - spread - lost)
    return StepOutcome(
        x=x_next, executed=executed, b_empty=b_empty, b_critical=b_critical,
        q_waste=q_waste, refused=refused, rho=rho,
        per_product_rewards=(1.0 - b_empty - b_critical
                             - mod.wastage_weight * q_waste - spread
                             - refused - penalty),
        component_means=np.array([reward, empty, critical, wastage, spread,
                                  lost, penalty]),
    )


def shelf_life(catalog: ProductCatalog) -> np.ndarray:
    """Normalized inverse spoilage rate, 1 for the longest-lived product."""
    inv = 1.0 / catalog.spoilage_rate
    return inv / inv.max()


class Simulator:
    """Stateful wrapper that walks a demand matrix through the dynamics,
    with the forecast window and ``alpha`` of ``env`` and the reward ``mod``.

    It owns the store state: the period ``t`` and the pre-replenishment
    inventory ``x``, both set by ``reset``. One instance is
    single-threaded; independent instances share nothing.
    """

    def __init__(self, catalog: ProductCatalog, demand: np.ndarray,
                 env: EnvParams = EnvParams(), mod: RewardMod = RewardMod()):
        demand = np.asarray(demand, dtype=float)
        if demand.ndim != 2 or demand.shape[1] != catalog.num_products:
            raise ValueError("demand must be a (horizon, products) matrix")
        if not np.all((demand >= 0.0) & (demand <= 1.0)):
            raise ValueError("demand must be finite and lie in [0, 1]")
        self.catalog = catalog
        self.demand = demand
        self.env = env
        self.mod = mod
        self.t: int | None = None
        self.x: np.ndarray | None = None
        # static feature columns never change within a catalog
        self._static = np.column_stack([
            catalog.unit_volume / catalog.unit_volume.max(),
            catalog.unit_weight / catalog.unit_weight.max(),
            shelf_life(catalog),
        ])

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    def reset(self, x0: np.ndarray, start: int = 0) -> None:
        """Start a window at period ``start``; ``x0`` is validated here.
        Tabulates the forecast of every period from ``start`` on."""
        p = self.catalog.num_products
        x = _as_vector(x0, p, "x0").copy()
        # written as a range to accept, so that NaN fails
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("x0 must be finite and lie in [0, 1]")
        self.t, self.x = start, x
        w = self.env.forecast_window
        first = max(0, start - w)
        # each period's w previous demands, ordered as in a ring buffer
        # filled from period ``first`` on (period s in slot (s - first) mod
        # w): a float sum depends on its order, and stored runs used this one
        t = np.arange(start, self.horizon + 1)[:, None]
        slots = t - w + (np.arange(w) - t + first) % w
        self._forecasts = np.empty((len(t), p))     # row t - start: period t
        for k in range(0, len(t), 64):   # 64 periods at a time bound memory
            s = slots[k:k + 64]
            block = self.demand[np.maximum(s, 0)]
            block[s < first] = 0.0
            block.mean(axis=1, out=self._forecasts[k:k + 64])
        self._start = start

    @property
    def forecast(self) -> np.ndarray:
        """Mean demand of the ``env.forecast_window`` periods before the
        current one, periods before 0 counting as zero demand."""
        return self._forecasts[self.t - self._start]

    def features(self) -> np.ndarray:
        feats = np.empty((self.catalog.num_products, NUM_FEATURES))
        forecast = self.forecast
        feats[:, 0] = self.x
        feats[:, 1] = forecast
        feats[:, 2:5] = self._static
        feats[:, 5] = self.catalog.unit_volume @ forecast / self.catalog.v_max
        feats[:, 6] = self.catalog.unit_weight @ forecast / self.catalog.c_max
        return feats

    def step(self, raw_action: np.ndarray) -> StepOutcome:
        t = self.t
        if t >= self.horizon:
            raise IndexError(f"period {t} is past the end of the demand data")
        out = step(self.catalog, self.x, raw_action, self.demand[t],
                   self.env.alpha, self.mod)
        self.t, self.x = t + 1, out.x
        return out
