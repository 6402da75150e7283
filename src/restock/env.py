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

    @classmethod
    def _trusted(cls, t: int, x: np.ndarray) -> "StoreState":
        """A state the step kernel produced, without re-validation."""
        state = object.__new__(cls)
        state.t, state.x = t, x
        return state


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
    #: (7,) business reward, empty, critical, wastage, spread, refused and
    #: capacity penalty, each the period's mean over products
    component_means: np.ndarray


def clip_action(state: StoreState, raw: np.ndarray) -> np.ndarray:
    """Clip each requested order to [0, 1 - x_i]: no negative order (which
    would dispose of stock for free) and no order beyond the free shelf."""
    return np.minimum(np.maximum(raw, 0.0), 1.0 - state.x)


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
    if (x_plus > 1.0 + 1e-9).any():
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
    if x.shape[0] == 1:
        return 0.0
    ranked = np.sort(x).tolist()
    return _percentile(ranked, 95.0) - _percentile(ranked, 5.0)


def empty_critical_flags(x_next: np.ndarray, catalog: ProductCatalog,
                         reward: RewardParams,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Stockout and below-critical flags (0/1) as the rows of a (2, p)
    array, written into ``out`` when given."""
    kappa = (reward.critical_override if reward.critical_override is not None
             else catalog.critical_level)
    flags = np.empty((2, x_next.shape[0])) if out is None else out
    np.equal(x_next, 0.0, out=flags[0])
    np.less(x_next, kappa, out=flags[1])
    return flags


def business_reward(empty: float, critical: float, wastage: float,
                    spread: float, refused: float,
                    reward: RewardParams = RewardParams()) -> float:
    """Store-level reward: 1 minus the five penalty components, each given
    as its mean over products (``spread`` is store-level already)."""
    return 1.0 - empty - critical - reward.wastage_weight * wastage \
        - spread - refused


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
    return np.array([q_waste, b_empty, 1.0 - x_next])


def step(catalog: ProductCatalog, state: StoreState, raw_action: np.ndarray,
         demand: np.ndarray,
         reward: RewardParams = RewardParams()) -> StepOutcome:
    """Advance one period. Pure function of its inputs.

    The catalog, the state and the demand are validated where they are
    built; per period only the shapes and the action's finiteness are
    checked. Every returned array is new, so outcomes never alias.
    """
    raw = np.asarray(raw_action, dtype=float)
    w = np.asarray(demand, dtype=float)
    p = catalog.num_products
    if not raw.shape == w.shape == state.x.shape == (p,):
        raise ValueError(f"action {raw.shape}, demand {w.shape} and state "
                         f"{state.x.shape} must all have shape ({p},)")
    if not np.isfinite(raw).all():
        raise ValueError("action must be finite")

    requested = clip_action(state, raw)
    rho = capacity_ratio(catalog, requested)
    executed = enforce_capacity(requested, rho)
    x_plus = apply_replenishment(state, executed)
    x_next, q_waste, refused = apply_demand_and_spoilage(
        x_plus, w, catalog.spoilage_rate)

    spread = percentile_spread(x_next)
    components = np.empty((4, p))   # empty, critical, wastage, refused
    empty_critical_flags(x_next, catalog, reward, out=components[:2])
    components[2], components[3] = q_waste, refused
    empty, critical, wastage, lost = (components.sum(axis=1) / p).tolist()
    r_global = business_reward(empty, critical, wastage, spread, lost, reward)
    penalty = reward.alpha * max(rho - 1.0, 0.0)
    b_empty, b_critical, q_waste, refused = components
    return StepOutcome(
        next_state=StoreState._trusted(state.t + 1, x_next),
        requested=requested,
        executed=executed,
        b_empty=b_empty,
        b_critical=b_critical,
        q_waste=q_waste,
        refused=refused,
        spread=spread,
        rho=rho,
        capacity_penalty=penalty,
        business_reward=r_global,
        per_product_rewards=per_product_rewards(
            b_empty, b_critical, q_waste, spread, refused, rho, reward),
        cumulants=cumulants(q_waste, b_empty, x_next),
        component_means=np.array([r_global, empty, critical, wastage,
                                  spread, lost, penalty]),
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


def shelf_life(catalog: ProductCatalog) -> np.ndarray:
    """Normalized inverse spoilage rate, 1 for the longest-lived product."""
    inv = 1.0 / catalog.spoilage_rate
    return inv / inv.max()


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
        if not np.all((demand >= 0.0) & (demand <= 1.0)):
            raise ValueError("demand must be finite and lie in [0, 1]")
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
        """Start a window at period ``start``; ``x0`` is validated here."""
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
