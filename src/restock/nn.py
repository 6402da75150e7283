"""Small dense network: shared ReLU trunk feeding several linear heads.

Plain numpy forward/backward in double precision, so analytic gradients can
be checked tightly against central finite differences. The loss is a
per-head mean squared TD error on the taken action, summed over the heads
selected by a mask; the trunk accumulates every active head's gradient.

Every weight lives in one contiguous vector, and the heads are fused into
one (embedding, heads * actions) matrix, so each layer of the forward and
backward pass is one matmul and the optimizer works on whole vectors; the
gradients go to a buffer the optimizer owns, never to a fresh vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int = 7
    hidden_dims: tuple[int, ...] = (64, 64)
    num_heads: int = 4
    num_actions: int = 14

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


class MlpParams:
    """All weights in one float64 vector ``flat``, with named views into it.

    ``flat`` holds trunk layer 0's weights and biases, then layer 1's, ...,
    then the fused heads: ``heads_w`` (emb, num_heads * num_actions), in
    which head h owns columns [h * num_actions, (h + 1) * num_actions), and
    ``heads_b``. ``head_w[h]`` and ``head_b[h]`` view head h's part. Writing
    through any view changes ``flat`` and the other way round.
    """

    def __init__(self, config: MlpConfig, flat: np.ndarray | None = None):
        dims = (config.input_dim, *config.hidden_dims)
        width = config.num_heads * config.num_actions
        shapes = [s for fan_in, fan_out in zip(dims[:-1], dims[1:])
                  for s in ((fan_in, fan_out), (fan_out,))]
        shapes += [(dims[-1], width), (width,)]
        size = sum(math.prod(s) for s in shapes)
        if flat is None:
            flat = np.zeros(size)
        if flat.shape != (size,) or flat.dtype != np.float64:
            raise ValueError(f"expected {size} float64 parameters, got "
                             f"{flat.dtype} {flat.shape}")
        self.config, self.flat = config, flat
        views, start = [], 0
        for shape in shapes:
            views.append(flat[start:start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        self.trunk_w, self.trunk_b = views[0:-2:2], views[1:-2:2]
        self.heads_w, self.heads_b = views[-2:]
        a = config.num_actions
        self.head_w = [self.heads_w[:, h * a:(h + 1) * a]
                       for h in range(config.num_heads)]
        self.head_b = [self.heads_b[h * a:(h + 1) * a]
                       for h in range(config.num_heads)]

    def copy(self) -> "MlpParams":
        return MlpParams(self.config, self.flat.copy())


def init_params(config: MlpConfig, rng: np.random.Generator) -> MlpParams:
    """He-uniform weights, zero biases; trunk layers first, then one
    (emb, num_actions) draw per head."""
    params = MlpParams(config)
    for w in params.trunk_w + params.head_w:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return params


def _trunk(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Input and post-ReLU activations of every trunk layer."""
    acts = [x]
    for w, b in zip(params.trunk_w, params.trunk_b):
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def head_values(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """All head outputs as one (B, num_heads, num_actions) block, a view
    of the fused output layer."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature input")
    q = _trunk(params, x)[-1] @ params.heads_w
    q += params.heads_b
    return q.reshape(len(x), params.config.num_heads, -1)


class LossIndex:
    """The heads a masked TD loss trains, and ``first[i, b]``: the flat
    index of head ``heads[i]``'s action 0 in row b of a batch's (batch,
    heads * actions) output block. Built once per mask and batch size."""

    def __init__(self, config: MlpConfig, head_mask: np.ndarray, batch: int):
        self.heads = np.flatnonzero(head_mask)
        width = config.num_heads * config.num_actions
        self.first = (np.arange(0, batch * width, width)
                      + self.heads[:, None] * config.num_actions)


def backward(params: MlpParams, x: np.ndarray, actions: np.ndarray,
             targets: np.ndarray, index: LossIndex, grads: MlpParams):
    """(loss, grads) of the TD loss summed over ``index.heads``; the
    gradients, zero for every other head, are written into ``grads``."""
    x = np.asarray(x, dtype=float)
    targets = np.asarray(targets, dtype=float)
    batch = x.shape[0]
    if x.ndim != 2 or index.first.shape[1] != batch:
        raise ValueError(f"{x.shape} input for a loss over batches of "
                         f"{index.first.shape[1]} rows")
    if not np.isfinite(targets).all():
        raise ValueError("non-finite TD target")
    acts = _trunk(params, x)
    emb = acts[-1]
    dq = emb @ params.heads_w
    dq += params.heads_b
    taken = index.first + actions
    err = dq.take(taken)
    err -= targets[index.heads]
    loss = float((err * err).mean(axis=1).sum())
    err *= 2.0
    err /= batch
    dq.fill(0.0)
    dq.put(taken, err)

    np.matmul(emb.T, dq, out=grads.heads_w)
    dq.sum(axis=0, out=grads.heads_b)
    dh = dq @ params.heads_w.T
    for layer in range(len(params.trunk_w) - 1, -1, -1):
        # a unit is active exactly when its ReLU output is positive
        dh *= acts[layer + 1] > 0.0
        np.matmul(acts[layer].T, dh, out=grads.trunk_w[layer])
        dh.sum(axis=0, out=grads.trunk_b[layer])
        if layer > 0:
            dh = dh @ params.trunk_w[layer].T
    return loss, grads


# ---------------------------------------------------------------- optimizer

class AdamState:
    """Adam with bias correction; updates ``params.flat`` in place. It
    owns ``grads``, the gradient buffer that ``backward`` writes into."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: MlpParams, lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.t = 0
        self.grads = MlpParams(params.config)
        self.m, self.v, self._num, self._den = np.zeros((4, params.flat.size))

    def flush_subnormals(self) -> None:
        """Zeroes the first moment's subnormals: once a weight's gradient
        stays 0 its moment decays to a few ulp, where ``BETA1`` times it
        rounds back to itself, and subnormal arithmetic slows every step."""
        self.m[np.abs(self.m) < np.finfo(float).tiny] = 0.0

    def step(self, params: MlpParams, grads: MlpParams) -> MlpParams:
        """p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), element by element."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        g, m, v, num, den = grads.flat, self.m, self.v, self._num, self._den
        np.multiply(g, 1.0 - b1, out=num)
        m *= b1
        m += num
        np.multiply(g, 1.0 - b2, out=den)
        den *= g
        v *= b2
        v += den
        np.divide(v, 1.0 - b2 ** self.t, out=den)
        np.sqrt(den, out=den)
        den += self.EPS
        np.divide(m, 1.0 - b1 ** self.t, out=num)
        num *= self.lr
        num /= den
        params.flat -= num
        return params


# --------------------------------------------------------------- checkpoints

CHECKPOINT_VERSION = 2


def save_checkpoint(path, params: MlpParams,
                    metadata: dict | None = None) -> None:
    """Exact (binary float64) round-trip container for network weights."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(params.config),
            "metadata": metadata or {}}
    blob = np.frombuffer(json.dumps(meta, sort_keys=True).encode(),
                         dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, params=params.flat, meta=blob)


def load_checkpoint(path):
    """Returns (params, config, metadata); reads version 2 only."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version "
                             f"{meta['version']}")
        config = MlpConfig(**meta["config"])
        params = MlpParams(config, data["params"])
    return params, config, meta["metadata"]
