"""DQN agents with general-value-function heads and directed exploration.

One network serves every product: its parameters are cloned across the
per-product feature rows each period and the chosen actions are assembled
into the joint order. Head 0 estimates the per-product reward; heads 1-3
estimate discounted sums of the wastage, stockout and depletion cumulants.
Their greedy-minimizing policies double as exploration options in the
dez_dqn_gvf variant.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .config import AgentParams
from .env import ACTION_SET, NUM_ACTIONS, NUM_FEATURES, Simulator

VARIANTS = ("dqn", "dqn_gvf", "dez_dqn_gvf")
NUM_GVFS = 3

#: action-source tags recorded in decision logs
TAG_MAIN, TAG_RANDOM, TAG_GVF1, TAG_GVF2, TAG_GVF3 = range(5)


class ReplayBuffer:
    """Uniform-sampling ring buffer of per-product transitions."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.s = np.empty((capacity, NUM_FEATURES))
        self.a = np.empty(capacity, dtype=np.int64)
        self.r = np.empty(capacity)
        self.c = np.empty((capacity, NUM_GVFS))
        self.s_next = np.empty((capacity, NUM_FEATURES))
        self.terminal = np.empty(capacity, dtype=bool)
        self._stores = (self.s, self.a, self.r, self.c, self.s_next,
                        self.terminal)
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push_block(self, s, a, r, c, s_next, terminal) -> None:
        k, head = len(a), self._head
        if k > self.capacity:
            raise ValueError("block larger than buffer capacity")
        idx = (slice(head, head + k) if head + k <= self.capacity
               else (head + np.arange(k)) % self.capacity)
        for store, part in zip(self._stores, (s, a, r, c, s_next, terminal)):
            store[idx] = part
        self._head = (head + k) % self.capacity
        self._size = min(self._size + k, self.capacity)

    def sample(self, rng: np.random.Generator, batch: int):
        if self._size < batch:
            raise ValueError("buffer smaller than the requested batch")
        idx = rng.integers(0, self._size, size=batch)
        return tuple(store.take(idx, axis=0) for store in self._stores)


@dataclass
class AgentBundle:
    """A variant's network, learner state and the hyperparameters
    (``agent``) it was built from."""

    variant: str
    agent: AgentParams
    params: nn.MlpParams
    target: nn.MlpParams
    opt: nn.AdamState
    buffer: ReplayBuffer
    rng: np.random.Generator
    train_steps: int = 0
    episodes_seen: int = 0
    checkpoint_meta: dict = field(default_factory=dict)
    #: wall seconds of action choice, env step and learning in its episodes
    seconds: dict = field(default_factory=lambda: dict.fromkeys(
        ("act_s", "env_s", "learn_s"), 0.0))

    @property
    def config(self) -> nn.MlpConfig:
        return self.params.config

    @property
    def gvf_heads_enabled(self) -> bool:
        return self.variant in ("dqn_gvf", "dez_dqn_gvf")

    @property
    def dez_enabled(self) -> bool:
        return self.variant == "dez_dqn_gvf"

    @functools.cached_property
    def loss_index(self) -> nn.LossIndex:
        """Head 0, plus the GVF heads in the GVF variants, for batches of
        ``agent.batch_size``."""
        heads = 1 + NUM_GVFS if self.gvf_heads_enabled else 1
        return nn.LossIndex(self.config, np.arange(self.config.num_heads)
                            < heads, self.agent.batch_size)


def make_bundle(variant: str, seed: int,
                agent: AgentParams = AgentParams()) -> AgentBundle:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected {VARIANTS}")
    cfg = nn.MlpConfig(input_dim=NUM_FEATURES, hidden_dims=agent.hidden_dims,
                       num_heads=1 + NUM_GVFS, num_actions=NUM_ACTIONS)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, VARIANTS.index(variant)])))
    params = nn.init_params(cfg, rng)
    return AgentBundle(
        variant=variant, agent=agent, params=params, target=params.copy(),
        opt=nn.AdamState(params, lr=agent.lr),
        buffer=ReplayBuffer(agent.buffer_capacity), rng=rng)


# ------------------------------------------------------------- action choice

def select_actions(params: nn.MlpParams, feats: np.ndarray, epsilon: float,
                   mode: str, rng: np.random.Generator | None):
    """Pick one action per feature row.

    Returns (action indices, source tags, ``nn.head_values`` block). Greedy
    choices break ties toward the lowest action index. The exploration
    decision is re-made every call that gets a generator (persistence
    one), with ``p`` draws even at zero ``epsilon``; a greedy call, with
    ``rng`` None, draws nothing.
    """
    qs = nn.head_values(params, feats)
    p = qs.shape[0]
    actions = qs[:, 0].argmax(axis=1)
    tags = np.zeros(p, dtype=np.int64)   # TAG_MAIN
    if rng is None:
        return actions, tags, qs
    explore = (rng.random(p) < epsilon).nonzero()[0]
    if not explore.size:
        return actions, tags, qs
    if mode == "epsilon_greedy":
        tags[explore] = TAG_RANDOM
        uniform = explore
    elif mode == "dez_greedy":
        # an explorer takes the uniform draw (g = 0) or follows the
        # minimizer of GVF head g
        g = rng.integers(0, NUM_GVFS + 1, size=p)[explore]
        tags[explore] = TAG_RANDOM + g
        follow = g.nonzero()[0]
        if follow.size:
            rows = explore[follow]
            actions[rows] = qs[rows, g[follow]].argmin(axis=1)
        uniform = explore[g == 0]
    else:
        raise ValueError(f"unknown exploration mode {mode!r}")
    if uniform.size:
        actions[uniform] = rng.integers(0, NUM_ACTIONS, size=uniform.size)
    return actions, tags, qs


def exploration_mode(bundle: AgentBundle) -> str:
    return "dez_greedy" if bundle.dez_enabled else "epsilon_greedy"


# ----------------------------------------------------------------- learning

def td_targets(bundle: AgentBundle, batch) -> np.ndarray:
    """Per-head bootstrap targets, shape (num_heads, batch).

    The main head bootstraps with a max (reward maximization); GVF heads
    bootstrap with a min, matching their greedy-minimizing policies.
    """
    s, a, r, c, s_next, terminal = batch
    qs_next = nn.head_values(bundle.target, s_next)
    targets = np.empty((bundle.config.num_heads, len(a)))
    qs_next[:, 0].max(axis=1, out=targets[0])
    qs_next[:, 1:].min(axis=2, out=targets[1:].T)
    targets *= np.where(terminal, 0.0, bundle.agent.gamma)
    targets[0] += r
    targets[1:] += c.T
    return targets


def train_step(bundle: AgentBundle):
    """One gradient step on the masked heads; syncs the target periodically.

    Returns the loss record, or None when the buffer cannot fill a batch.
    """
    if len(bundle.buffer) < bundle.agent.batch_size:
        return None
    batch = bundle.buffer.sample(bundle.rng, bundle.agent.batch_size)
    s, a = batch[0], batch[1]
    targets = td_targets(bundle, batch)
    loss, grads = nn.backward(bundle.params, s, a, targets,
                              bundle.loss_index, bundle.opt.grads)
    bundle.opt.step(bundle.params, grads)
    bundle.train_steps += 1
    if bundle.train_steps % bundle.agent.target_sync == 0:
        np.copyto(bundle.target.flat, bundle.params.flat)
        bundle.opt.flush_subnormals()
    return {"loss": loss, "train_steps": bundle.train_steps}


# ----------------------------------------------------------------- episodes

@dataclass(frozen=True)
class EpisodeMetrics:
    """Per-episode means of the reward and its components."""

    episode: int
    mean_business_reward: float
    mean_empty: float
    mean_critical: float
    mean_wastage: float
    mean_spread: float
    mean_refused: float
    mean_capacity_penalty: float
    epsilon: float

    COLUMNS = ("episode", "mean_business_reward", "mean_empty",
               "mean_critical", "mean_wastage", "mean_spread",
               "mean_refused", "mean_capacity_penalty", "epsilon")

    @classmethod
    def from_means(cls, episode: int, means: np.ndarray,
                   epsilon: float) -> "EpisodeMetrics":
        """From an episode's mean of ``StepOutcome.component_means``."""
        return cls(episode, *means, epsilon)

    def as_row(self):
        return [getattr(self, c) for c in self.COLUMNS]


class DecisionLog:
    """Per-(period, product) record of the evaluation decisions of one
    window, in (length, p) arrays that ``open_window`` allocates."""

    def open_window(self, start: int, demand: np.ndarray) -> None:
        """Size the log for the (length, p) ``demand`` of a window starting
        at period ``start``; fills in the columns the window fixes."""
        self.period, self.product = np.indices(demand.shape)
        self.period += start
        self.inventory = np.empty(demand.shape)
        self.order = demand.copy()          # realized demand
        self.action_index = np.empty(demand.shape, dtype=np.int64)
        self.action_value = np.empty(demand.shape)
        self.tag = np.empty(demand.shape, dtype=np.int64)
        self.gvf1, self.gvf2, self.gvf3 = np.empty((NUM_GVFS, *demand.shape))

    def arrays(self) -> dict[str, np.ndarray]:
        """One flat array per column, period-major."""
        return {k: v.ravel() for k, v in vars(self).items()}


def run_episode(bundle: AgentBundle, sim: Simulator, start: int, length: int,
                x0: np.ndarray, mode: str = "train", epsilon: float = 0.0,
                episode_index: int = 0,
                decision_log: DecisionLog | None = None) -> EpisodeMetrics:
    """One pass over a demand window with shared parameters across products.

    Train mode stores one transition per product per period and trains every
    ``train_every`` periods; eval mode acts greedily and draws nothing, so
    it leaves the network, the learner state and ``bundle.rng`` untouched
    (only ``bundle.seconds`` counts its time).
    """
    train = mode == "train"
    p = sim.catalog.num_products
    sim.reset(x0, start, length)
    sel_mode = exploration_mode(bundle)
    eps, rng = (epsilon, bundle.rng) if train else (0.0, None)

    log, products = decision_log, np.arange(p)
    if log is not None:
        log.open_window(start, sim.demand[start:start + length])

    totals = np.zeros(7)  # reward, empty, critical, wastage, spread, refused, cap
    feats = sim.features()
    clock, seconds = time.perf_counter, bundle.seconds
    for k in range(length):
        t0 = clock()
        actions, tags, qs = select_actions(bundle.params, feats, eps,
                                           sel_mode, rng)
        t1 = clock()
        out = sim.step(ACTION_SET[actions])
        next_feats = sim.features()
        t2 = clock()
        seconds["act_s"] += t1 - t0
        seconds["env_s"] += t2 - t1

        totals += out.component_means

        if train:
            # the GVF cumulants per product: wastage, stockout, depletion
            cumulants = np.array([out.q_waste, out.b_empty, 1.0 - out.x]).T
            bundle.buffer.push_block(feats, actions, out.per_product_rewards,
                                     cumulants, next_feats, k == length - 1)
            if k % bundle.agent.train_every == 0:
                train_step(bundle)
            seconds["learn_s"] += clock() - t2

        if log is not None:
            log.inventory[k] = feats[:, 0]
            log.action_index[k] = actions
            log.tag[k] = tags
            log.gvf1[k], log.gvf2[k], log.gvf3[k] = qs[products, 1:, actions].T
        feats = next_feats

    if train:
        bundle.episodes_seen += 1
    if log is not None:
        log.action_value[...] = ACTION_SET[log.action_index]
    return EpisodeMetrics.from_means(episode_index, totals / length, eps)


def train_agent(bundle: AgentBundle, sim: Simulator, episodes: int,
                start: int, length: int,
                x0_provider) -> list[EpisodeMetrics]:
    """Run a seeded training campaign; ``x0_provider(episode) -> x0``."""
    history = []
    for ep in range(episodes):
        eps = bundle.agent.epsilon(ep, episodes)
        history.append(run_episode(bundle, sim, start, length,
                                   x0_provider(ep), mode="train", epsilon=eps,
                                   episode_index=ep))
    return history


# -------------------------------------------------------------- checkpoints

def save_agent(path, bundle: AgentBundle, env: dict, reward_mod: dict) -> None:
    """Checkpoint the policy with its agent hyperparameters and the env and
    reward-mod fields it was trained under, so it can be restored and
    scored as it was produced."""
    meta = {"variant": bundle.variant,
            "episodes_seen": bundle.episodes_seen,
            "train_steps": bundle.train_steps,
            "agent": asdict(bundle.agent),
            "env": env, "reward_mod": reward_mod}
    nn.save_checkpoint(path, bundle.params, metadata=meta)


def load_agent(path, seed: int = 0,
               agent: AgentParams | None = None) -> AgentBundle:
    """Restore a trained policy into the bundle ``make_bundle`` builds for
    its variant, ``seed`` and ``agent`` (by default the stored one):
    ``params`` and ``target`` take the stored weights, and the optimizer
    and ``rng``, initial draw included, are a fresh bundle's.

    A checkpoint whose network config is not the bundle's is refused, and
    so is one without its agent, env and reward mod, which could not be
    scored as it was produced. Its metadata is ``bundle.checkpoint_meta``.
    """
    params, cfg, meta = nn.load_checkpoint(path)
    missing = [k for k in ("agent", "env", "reward_mod") if k not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint metadata lacks {missing}")
    if agent is None:
        agent = AgentParams(**meta["agent"])
    bundle = make_bundle(meta["variant"], seed=seed, agent=agent)
    if cfg != bundle.config:
        raise ValueError(f"{path}: network {cfg} does not match the "
                         f"bundle's {bundle.config}")
    np.copyto(bundle.params.flat, params.flat)
    np.copyto(bundle.target.flat, params.flat)
    bundle.episodes_seen = meta["episodes_seen"]
    bundle.checkpoint_meta = meta
    return bundle
