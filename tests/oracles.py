"""Reference implementations of the learner's hot path, as the package had
them before they were rewritten to work in place, and of the env step, as
the package composed it from helpers before it became one body, and of the
dataset generator, as it was when its distributions were spec fields, and
of the format 1 dataset writer: the oracles the rewritten code must match
bit for bit, Generator state included."""

import math
from dataclasses import dataclass, fields

import numpy as np

from restock import env, nn
from restock.config import RewardMod
from restock.datagen import Dataset, DatasetSpec, format_value
from restock.env import (NUM_ACTIONS, NUM_FEATURES, ProductCatalog,
                         apply_demand_and_spoilage)

NUM_GVFS = 3
TAG_MAIN, TAG_RANDOM = 0, 1


def forward(params: nn.MlpParams, x):
    """(trunk embedding (B, emb), head outputs (num_heads, B, num_actions))."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature input")
    h = x
    for w, b in zip(params.trunk_w, params.trunk_b):
        z = h @ w
        z += b
        h = np.maximum(z, 0.0, out=z)
    q = h @ params.heads_w
    q += params.heads_b
    cfg = params.config
    return h, q.reshape(len(x), cfg.num_heads,
                        cfg.num_actions).transpose(1, 0, 2)


def backward(params: nn.MlpParams, x, actions, targets, head_mask):
    """Loss and gradients of the masked TD loss, the gradients in a fresh
    ``MlpParams``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    actions = np.asarray(actions, dtype=np.intp)
    targets = np.asarray(targets, dtype=float)
    batch = x.shape[0]
    rows = np.arange(batch)
    heads = np.flatnonzero(head_mask)
    cols = heads[:, None] * params.config.num_actions + actions

    acts = [x]
    for w, b in zip(params.trunk_w, params.trunk_b):
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    emb = acts[-1]
    q = emb @ params.heads_w
    q += params.heads_b
    err = q[rows, cols] - targets[heads]
    loss = float((err * err).mean(axis=1).sum())
    dq = np.zeros_like(q)
    dq[rows, cols] = 2.0 * err / batch

    grads = nn.MlpParams(params.config)
    np.matmul(emb.T, dq, out=grads.heads_w)
    dq.sum(axis=0, out=grads.heads_b)
    dh = dq @ params.heads_w.T
    for layer in range(len(params.trunk_w) - 1, -1, -1):
        dz = dh * (acts[layer + 1] > 0.0)
        np.matmul(acts[layer].T, dz, out=grads.trunk_w[layer])
        dz.sum(axis=0, out=grads.trunk_b[layer])
        if layer > 0:
            dh = dz @ params.trunk_w[layer].T
    return loss, grads


def select_actions(params, feats, epsilon, mode, rng):
    """(action indices, source tags, head values (heads, rows, actions))."""
    qs = forward(params, feats)[1]
    p = qs.shape[1]
    actions = qs[0].argmax(axis=1)
    tags = np.zeros(p, dtype=np.int64)
    explore = rng.random(p) < epsilon
    if explore.any():
        if mode == "epsilon_greedy":
            k = int(explore.sum())
            actions[explore] = rng.integers(0, NUM_ACTIONS, size=k)
            tags[explore] = TAG_RANDOM
        elif mode == "dez_greedy":
            g = rng.integers(0, NUM_GVFS + 1, size=p)
            uniform = explore & (g == 0)
            if uniform.any():
                actions[uniform] = rng.integers(0, NUM_ACTIONS,
                                                size=int(uniform.sum()))
                tags[uniform] = TAG_RANDOM
            rows = np.flatnonzero(explore & (g > 0))
            if rows.size:
                actions[rows] = qs[g[rows], rows].argmin(axis=1)
                tags[rows] = TAG_RANDOM + g[rows]
        else:
            raise ValueError(f"unknown exploration mode {mode!r}")
    return actions, tags, qs


def td_targets(target: nn.MlpParams, gamma: float, batch) -> np.ndarray:
    """Per-head bootstrap targets, (num_heads, batch)."""
    s, a, r, c, s_next, terminal = batch
    qs_next = forward(target, s_next)[1]
    cont = np.where(terminal, 0.0, gamma)
    targets = np.empty((target.config.num_heads, len(a)))
    targets[0] = r + cont * qs_next[0].max(axis=1)
    targets[1:] = c.T + cont * qs_next[1:].min(axis=2)
    return targets


class ReplayBuffer:
    """Ring buffer that writes every block through wrapped index arrays."""

    def __init__(self, capacity: int, feature_dim: int = NUM_FEATURES):
        self.capacity = capacity
        self.s = np.empty((capacity, feature_dim))
        self.a = np.empty(capacity, dtype=np.int64)
        self.r = np.empty(capacity)
        self.c = np.empty((capacity, NUM_GVFS))
        self.s_next = np.empty((capacity, feature_dim))
        self.terminal = np.empty(capacity, dtype=bool)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push_block(self, s, a, r, c, s_next, terminal) -> None:
        k = len(a)
        if k > self.capacity:
            raise ValueError("block larger than buffer capacity")
        idx = (self._head + np.arange(k)) % self.capacity
        self.s[idx] = s
        self.a[idx] = a
        self.r[idx] = r
        self.c[idx] = c
        self.s_next[idx] = s_next
        self.terminal[idx] = terminal
        self._head = (self._head + k) % self.capacity
        self._size = min(self._size + k, self.capacity)

    def sample(self, rng: np.random.Generator, batch: int):
        if self._size < batch:
            raise ValueError("buffer smaller than the requested batch")
        idx = rng.integers(0, self._size, size=batch)
        return (self.s[idx], self.a[idx], self.r[idx], self.c[idx],
                self.s_next[idx], self.terminal[idx])


# ------------------------------------------------------------- env step

def clip_action(x, raw):
    return np.minimum(np.maximum(raw, 0.0), 1.0 - x)


def capacity_ratio(catalog, u):
    return float(max(catalog.unit_volume @ u / catalog.v_max,
                     catalog.unit_weight @ u / catalog.c_max))


def enforce_capacity(u, rho):
    if rho <= 1.0:
        return u
    return u / rho


def apply_replenishment(x, u):
    x_plus = x + u
    if (x_plus > 1.0 + 1e-9).any():
        raise ValueError("replenished inventory exceeds shelf capacity; "
                         "action was not clipped")
    return np.minimum(x_plus, 1.0)


def percentile_spread(x):
    if x.shape[0] == 1:
        return 0.0
    return env.percentile_spread(x)


def empty_critical_flags(x_next, catalog, mod, out=None):
    kappa = (mod.critical_override if mod.critical_override is not None
             else catalog.critical_level)
    flags = np.empty((2, x_next.shape[0])) if out is None else out
    np.equal(x_next, 0.0, out=flags[0])
    np.less(x_next, kappa, out=flags[1])
    return flags


def business_reward(empty, critical, wastage, spread, refused, mod):
    return 1.0 - empty - critical - mod.wastage_weight * wastage \
        - spread - refused


def per_product_rewards(b_empty, b_critical, q_waste, spread, refused, rho,
                        alpha=1.0, mod=RewardMod()):
    penalty = alpha * max(rho - 1.0, 0.0)
    return (1.0 - b_empty - b_critical - mod.wastage_weight * q_waste
            - spread - refused - penalty)


def reference_step(catalog, x, raw_action, demand, alpha=1.0,
                   mod=RewardMod()) -> dict:
    """One period composed from the helpers above; the fields of the
    outcome as a dict, the store-level ones under their own names too."""
    raw = np.asarray(raw_action, dtype=float)
    w = np.asarray(demand, dtype=float)
    p = catalog.num_products
    requested = clip_action(x, raw)
    rho = capacity_ratio(catalog, requested)
    executed = enforce_capacity(requested, rho)
    x_plus = apply_replenishment(x, executed)
    x_next, q_waste, refused = apply_demand_and_spoilage(
        x_plus, w, catalog.spoilage_rate)

    spread = percentile_spread(x_next)
    components = np.empty((4, p))   # empty, critical, wastage, refused
    empty_critical_flags(x_next, catalog, mod, out=components[:2])
    components[2], components[3] = q_waste, refused
    empty, critical, wastage, lost = (components.sum(axis=1) / p).tolist()
    r_global = business_reward(empty, critical, wastage, spread, lost, mod)
    penalty = alpha * max(rho - 1.0, 0.0)
    b_empty, b_critical, q_waste, refused = components
    return dict(
        x=x_next, executed=executed, b_empty=b_empty, b_critical=b_critical,
        q_waste=q_waste, refused=refused, spread=spread, rho=rho,
        capacity_penalty=penalty, business_reward=r_global,
        per_product_rewards=per_product_rewards(
            b_empty, b_critical, q_waste, spread, refused, rho, alpha, mod),
        component_means=np.array([r_global, empty, critical, wastage,
                                  spread, lost, penalty]),
    )


@dataclass(frozen=True)
class GeneratorParams:
    """The generator's parameters that were once ``DatasetSpec`` fields,
    with the values every dataset used, in the order files wrote them."""

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


def _loguniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def reference_generate(spec: DatasetSpec,
                       g: GeneratorParams = GeneratorParams()) -> Dataset:
    """The dataset of ``spec`` under the generator parameters ``g``."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    p, horizon = spec.products, spec.horizon

    rng.integers(g.shelf_lo, g.shelf_hi + 1, p)   # shelf sizes, unstored
    unit_volume = _loguniform(rng, g.volume_lo, g.volume_hi, p)
    unit_weight = _loguniform(rng, g.weight_lo, g.weight_hi, p)
    spoilage = rng.uniform(g.spoilage_lo, g.spoilage_hi, p)
    critical = rng.uniform(g.critical_lo, g.critical_hi, p)

    lam = _loguniform(rng, g.demand_rate_lo, g.demand_rate_hi, p)
    phase = rng.uniform(0.0, 2.0 * math.pi, p)
    noise = rng.lognormal(mean=-0.5 * g.noise_sigma ** 2,
                          sigma=g.noise_sigma, size=(horizon, p))
    spikes = rng.random((horizon, p)) < g.spike_prob

    t = np.arange(horizon)[:, None]
    season = 1.0 + g.season_amplitude * np.sin(
        2.0 * math.pi * t / g.season_period + phase[None, :])
    base = lam[None, :] * season * noise
    demand = np.clip(base * (1.0 + (g.spike_mult - 1.0) * spikes), 0.0, 1.0)

    v_max = spec.theta * float((demand @ unit_volume).mean())
    c_max = spec.theta * float((demand @ unit_weight).mean())

    catalog = ProductCatalog(
        unit_volume=unit_volume, unit_weight=unit_weight,
        spoilage_rate=spoilage, critical_level=critical,
        v_max=v_max, c_max=c_max)
    return Dataset(spec=spec, catalog=catalog, demand=demand)


def reference_save(dataset: Dataset, path) -> None:
    """Writes ``dataset`` as a format 1 file, as ``datagen.save`` did when
    each catalog row also held the product's shelf size. The shelf sizes
    are redrawn from the spec's seed: they were ``generate``'s first draw."""
    spec, cat = dataset.spec, dataset.catalog
    max_shelf = np.random.Generator(np.random.PCG64(spec.seed)).integers(
        50, 501, spec.products)
    lines = ["# restock dataset", "format_version 1", "prng pcg64"]
    for f in fields(DatasetSpec):
        lines.append(f"{f.name} {format_value(getattr(spec, f.name))}")
    lines.append(f"v_max {format_value(cat.v_max)}")
    lines.append(f"c_max {format_value(cat.c_max)}")
    lines.append("[catalog]")
    lines.append("# product max_shelf unit_volume unit_weight"
                 " spoilage_rate critical_level")
    columns = (max_shelf, cat.unit_volume, cat.unit_weight,
               cat.spoilage_rate, cat.critical_level)
    for i, row in enumerate(zip(*columns)):
        lines.append(" ".join([str(i), *map(format_value, row)]))
    lines.append("[demand]")
    lines.extend(" ".join(map(repr, row)) for row in dataset.demand.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
