"""Reference implementations of the learner's hot path, as the package had
them before they were rewritten to work in place: the oracles the
rewritten code must match bit for bit, Generator state included."""

import numpy as np

from restock import nn
from restock.env import NUM_ACTIONS, NUM_FEATURES

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
