"""Multi-product replenishment dynamics with a decomposed business reward.

All quantities are normalized per product: inventory ``x_i``, order ``u_i``
and demand ``w_i`` are fractions of product i's shelf capacity, so every
state component lives in [0, 1]. One period runs as: clip the requested
order to [0, free shelf space], scale the whole order down if it exceeds the
shared transport capacity, receive stock, serve demand, spoil the unsold
residue, then score the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Discrete replenishment fractions available to the learning agents.
ACTION_SET = np.array([
    0.0, 0.005, 0.01, 0.0125, 0.015, 0.0175, 0.02,
    0.03, 0.04, 0.08, 0.12, 0.2, 0.5, 1.0,
])
NUM_ACTIONS = len(ACTION_SET)
NUM_FEATURES = 7
NUM_CUMULANTS = 3


def _as_vector(values, p: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
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
    max_shelf: np.ndarray       # shelf size in item units; bookkeeping only
    spoilage_rate: np.ndarray   # fraction of unsold stock lost per period, (0, 1]
    critical_level: np.ndarray  # minimum presentation level, (0, 1)
    v_max: float
    c_max: float

    def __post_init__(self):
        p = len(np.atleast_1d(self.unit_volume))
        for name in ("unit_volume", "unit_weight", "max_shelf",
                     "spoilage_rate", "critical_level"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), p, name))
        object.__setattr__(self, "v_max", float(self.v_max))
        object.__setattr__(self, "c_max", float(self.c_max))
        if not (np.all(self.unit_volume > 0) and np.all(self.unit_weight > 0)):
            raise ValueError("unit volumes and weights must be strictly positive")
        if not (np.all(self.max_shelf > 0)):
            raise ValueError("max_shelf must be strictly positive")
        if not (self.v_max > 0 and self.c_max > 0):
            raise ValueError("v_max and c_max must be strictly positive")
        if not np.all((self.spoilage_rate > 0) & (self.spoilage_rate <= 1)):
            raise ValueError("spoilage rates must lie in (0, 1]")
        if not np.all((self.critical_level > 0) & (self.critical_level < 1)):
            raise ValueError("critical levels must lie in (0, 1)")

    @property
    def num_products(self) -> int:
        return self.unit_volume.shape[0]


@dataclass
class StoreState:
    """Pre-replenishment inventory vector at the start of period ``t``."""

    t: int
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1:
            raise ValueError("inventory must be a 1-d vector")
        if np.any(self.x < -1e-12) or np.any(self.x > 1 + 1e-12):
            raise ValueError("inventory levels must lie in [0, 1]")


@dataclass(frozen=True)
class RewardParams:
    """Reward shaping knobs.

    ``alpha`` scales the capacity-overuse penalty in the per-product reward.
    ``wastage_weight`` multiplies the wastage term in both reward forms;
    ``critical_override``, when set, replaces every product's critical level
    in the penalty comparison (the environment dynamics are untouched).
    """

    alpha: float = 1.0
    wastage_weight: float = 1.0
    critical_override: float | None = None


@dataclass(frozen=True)
class StepOutcome:
    """Everything observable about one completed period."""

    next_state: StoreState
    requested: np.ndarray       # after shelf clipping, before capacity scaling
    executed: np.ndarray        # physically received order
    b_empty: np.ndarray         # end-of-period stockout flags (0/1)
    b_critical: np.ndarray      # end-of-period below-critical flags (0/1)
    q_waste: np.ndarray         # spoiled quantity per product
    refused: np.ndarray         # demand lost to insufficient stock
    spread: float               # 95th minus 5th percentile of inventories
    rho: float                  # requested-order capacity ratio
    capacity_penalty: float     # alpha * max(rho - 1, 0)
    business_reward: float
    per_product_rewards: np.ndarray
    cumulants: np.ndarray       # shape (3, p): wastage, stockout, depletion


def clip_action(state: StoreState, raw: np.ndarray) -> np.ndarray:
    """Clip each requested order to [0, 1 - x_i]: no negative order (which
    would dispose of stock for free) and no order beyond the free shelf."""
    return np.clip(np.asarray(raw, dtype=float), 0.0, 1.0 - state.x)


def capacity_ratio(catalog: ProductCatalog, u: np.ndarray) -> float:
    """Requested volume/weight relative to the transport budget."""
    return float(max(catalog.unit_volume @ u / catalog.v_max,
                     catalog.unit_weight @ u / catalog.c_max))


def enforce_capacity(u: np.ndarray, rho: float) -> np.ndarray:
    """Scale the whole order down so the executed ratio is exactly 1."""
    if rho <= 1.0:
        return u
    return u / rho


def apply_replenishment(state: StoreState, u: np.ndarray) -> np.ndarray:
    """Post-replenishment inventory x+ = x- + u."""
    x_plus = state.x + u
    if np.any(x_plus > 1.0 + 1e-9):
        raise ValueError("replenished inventory exceeds shelf capacity; "
                         "action was not clipped")
    return np.minimum(x_plus, 1.0)


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


def percentile_spread(x: np.ndarray) -> float:
    """95th minus 5th percentile, linear interpolation between ranks."""
    if x.shape[0] == 1:
        return 0.0
    hi, lo = np.percentile(x, [95.0, 5.0])
    return float(hi - lo)


def empty_critical_flags(x_next: np.ndarray, catalog: ProductCatalog,
                         reward: RewardParams):
    kappa = (np.full_like(x_next, reward.critical_override)
             if reward.critical_override is not None
             else catalog.critical_level)
    b_empty = (x_next == 0.0).astype(float)
    b_critical = (x_next < kappa).astype(float)
    return b_empty, b_critical


def business_reward(b_empty: np.ndarray, b_critical: np.ndarray,
                    q_waste: np.ndarray, spread: float, refused: np.ndarray,
                    reward: RewardParams = RewardParams()) -> float:
    """Store-level reward: 1 minus the five penalty components."""
    return float(1.0 - b_empty.mean() - b_critical.mean()
                 - reward.wastage_weight * q_waste.mean()
                 - spread - refused.mean())


def per_product_rewards(b_empty: np.ndarray, b_critical: np.ndarray,
                        q_waste: np.ndarray, spread: float,
                        refused: np.ndarray, rho: float,
                        reward: RewardParams = RewardParams()) -> np.ndarray:
    """Per-product reward handed to each agent clone.

    Shares the business-reward components evaluated product-wise and adds
    the capacity-overuse penalty; its mean over products equals the
    business reward whenever rho <= 1.
    """
    penalty = reward.alpha * max(rho - 1.0, 0.0)
    return (1.0 - b_empty - b_critical - reward.wastage_weight * q_waste
            - spread - refused - penalty)


def cumulants(q_waste: np.ndarray, b_empty: np.ndarray,
              x_next: np.ndarray) -> np.ndarray:
    """Predictive signals per product: wastage, stockout flag, depletion."""
    return np.stack([q_waste, b_empty, 1.0 - x_next])


def step(catalog: ProductCatalog, state: StoreState, raw_action: np.ndarray,
         demand: np.ndarray,
         reward: RewardParams = RewardParams()) -> StepOutcome:
    """Advance one period. Pure function of its inputs."""
    p = catalog.num_products
    raw = _as_vector(raw_action, p, "action")
    if not np.all(np.isfinite(raw)):
        raise ValueError("action must be finite")
    w = _as_vector(demand, p, "demand")
    if state.x.shape[0] != p:
        raise ValueError(f"state has {state.x.shape[0]} products, catalog {p}")

    requested = clip_action(state, raw)
    rho = capacity_ratio(catalog, requested)
    executed = enforce_capacity(requested, rho)
    x_plus = apply_replenishment(state, executed)
    x_next, q_waste, refused = apply_demand_and_spoilage(
        x_plus, w, catalog.spoilage_rate)

    spread = percentile_spread(x_next)
    b_empty, b_critical = empty_critical_flags(x_next, catalog, reward)
    r_global = business_reward(b_empty, b_critical, q_waste, spread, refused,
                               reward)
    r_products = per_product_rewards(b_empty, b_critical, q_waste, spread,
                                     refused, rho, reward)
    return StepOutcome(
        next_state=StoreState(t=state.t + 1, x=x_next),
        requested=requested,
        executed=executed,
        b_empty=b_empty,
        b_critical=b_critical,
        q_waste=q_waste,
        refused=refused,
        spread=spread,
        rho=rho,
        capacity_penalty=reward.alpha * max(rho - 1.0, 0.0),
        business_reward=r_global,
        per_product_rewards=r_products,
        cumulants=cumulants(q_waste, b_empty, x_next),
    )


class ForecastState:
    """Trailing-average demand forecast over a fixed window.

    The buffer starts zero-filled, so the forecast is the window mean with
    missing history counted as zero demand.
    """

    def __init__(self, window: int, num_products: int):
        if window < 1:
            raise ValueError("forecast window must be positive")
        self.window = window
        self.buffer = np.zeros((window, num_products))
        self._pos = 0

    def push(self, demand: np.ndarray) -> None:
        self.buffer[self._pos] = demand
        self._pos = (self._pos + 1) % self.window

    def warm(self, history: np.ndarray) -> None:
        """Preload the buffer from the rows preceding a window start."""
        for row in np.atleast_2d(history)[-self.window:]:
            self.push(row)

    @property
    def forecast(self) -> np.ndarray:
        return self.buffer.mean(axis=0)


def update_forecast(fs: ForecastState, demand: np.ndarray) -> ForecastState:
    fs.push(np.asarray(demand, dtype=float))
    return fs


def shelf_life(catalog: ProductCatalog) -> np.ndarray:
    """Normalized inverse spoilage rate, 1 for the longest-lived product."""
    inv = 1.0 / catalog.spoilage_rate
    return inv / inv.max()


def feature_matrix(catalog: ProductCatalog, x: np.ndarray,
                   forecast: np.ndarray) -> np.ndarray:
    """Per-product observation rows, shape (p, 7).

    Columns: inventory, forecast demand, normalized volume, normalized
    weight, shelf life, total forecast volume / v_max, total forecast
    weight / c_max. The last two are identical across products and tie the
    shared capacity pressure into each clone's view.
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


class Simulator:
    """Stateful wrapper that walks a demand matrix through the dynamics.

    One instance is single-threaded; independent instances share nothing.
    """

    def __init__(self, catalog: ProductCatalog, demand: np.ndarray,
                 reward: RewardParams = RewardParams(),
                 forecast_window: int = 8):
        demand = np.asarray(demand, dtype=float)
        if demand.ndim != 2 or demand.shape[1] != catalog.num_products:
            raise ValueError("demand must be a (horizon, products) matrix")
        self.catalog = catalog
        self.demand = demand
        self.reward = reward
        self.forecast_window = forecast_window
        self.state: StoreState | None = None
        self.forecaster: ForecastState | None = None
        # static feature columns never change within a catalog
        self._static = np.column_stack([
            catalog.unit_volume / catalog.unit_volume.max(),
            catalog.unit_weight / catalog.unit_weight.max(),
            shelf_life(catalog),
        ])

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    def reset(self, x0: np.ndarray, start: int = 0) -> StoreState:
        p = self.catalog.num_products
        self.state = StoreState(t=start, x=_as_vector(x0, p, "x0").copy())
        self.forecaster = ForecastState(self.forecast_window, p)
        if start > 0:
            self.forecaster.warm(self.demand[max(0, start - self.forecast_window):start])
        return self.state

    def features(self) -> np.ndarray:
        feats = np.empty((self.catalog.num_products, NUM_FEATURES))
        forecast = self.forecaster.forecast
        feats[:, 0] = self.state.x
        feats[:, 1] = forecast
        feats[:, 2:5] = self._static
        feats[:, 5] = self.catalog.unit_volume @ forecast / self.catalog.v_max
        feats[:, 6] = self.catalog.unit_weight @ forecast / self.catalog.c_max
        return feats

    def step(self, raw_action: np.ndarray) -> StepOutcome:
        t = self.state.t
        if t >= self.horizon:
            raise IndexError(f"period {t} is past the end of the demand data")
        out = step(self.catalog, self.state, raw_action, self.demand[t],
                   self.reward)
        self.state = out.next_state
        self.forecaster.push(self.demand[t])
        return out
