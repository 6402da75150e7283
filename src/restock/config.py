"""Experiment configuration dataclasses with YAML and hashing support."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

import yaml

ALGORITHMS = ("heuristic", "dqn", "dqn_gvf", "dez_dqn_gvf", "lp_bound")

# keys of older manifests that chose or sized a second LP engine; they are
# accepted and dropped so those manifests still replay
_RETIRED_KEYS = ("lp_engine", "lp_max_iters")


def _is_int(n) -> bool:
    # isinstance counts a bool as an int; a float would act truncated
    return isinstance(n, int) and not isinstance(n, bool)


@dataclass(frozen=True)
class EnvParams:
    alpha: float = 1.0            # capacity-overuse penalty weight
    forecast_window: int = 8      # trailing-average length, two days

    def __post_init__(self):
        w = self.forecast_window
        if not (0.0 <= self.alpha < math.inf and _is_int(w) and w >= 1):
            raise ValueError(f"need a finite alpha >= 0 and an integer "
                             f"forecast_window >= 1, got {self}")


@dataclass(frozen=True)
class RewardMod:
    """The env's reward knobs besides ``EnvParams.alpha``; a run sets them
    under ``reward_mod``, and a fine-tuning study changes them."""

    wastage_weight: float = 1.0
    critical_override: float | None = None  # in (0, 1), as critical levels

    def __post_init__(self):
        kappa = self.critical_override
        if not (0.0 <= self.wastage_weight < math.inf
                and (kappa is None or 0.0 < kappa < 1.0)):
            raise ValueError(f"need a finite wastage_weight >= 0 and a "
                             f"critical_override in (0, 1) or None, got {self}")


@dataclass(frozen=True)
class AgentParams:
    """The hyperparameters every agent variant shares."""

    hidden_dims: tuple[int, ...] = (64, 64)
    lr: float = 1e-3
    gamma: float = 0.99
    buffer_capacity: int = 100_000
    batch_size: int = 64
    train_every: int = 4
    target_sync: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    anneal_frac: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        for name in ("train_every", "target_sync", "batch_size",
                     "buffer_capacity"):
            n = getattr(self, name)
            if not (_is_int(n) and n >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not all(_is_int(n) and n >= 1 for n in self.hidden_dims):
            raise ValueError(f"hidden_dims must be integers >= 1, "
                             f"got {self.hidden_dims}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be >= batch_size")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        for name in ("gamma", "eps_start", "eps_end", "anneal_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def epsilon(self, episode: int, total: int) -> float:
        """Linear anneal from eps_start to eps_end over the first
        ``anneal_frac`` of ``total`` episodes, then flat."""
        span = max(1.0, self.anneal_frac * total)
        frac = min(1.0, episode / span)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


@dataclass(frozen=True)
class ExperimentConfig:
    """One algorithm on one dataset across seeds.

    ``lp_time_limit`` (seconds per window, None for no limit) is the one
    budget of the ``lp_bound`` algorithm's HiGHS solves; a window that runs
    out of it is reported as 'dnf'.
    """

    dataset: str
    algorithm: str
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    episodes: int = 300
    env: EnvParams = EnvParams()
    agent: AgentParams = AgentParams()
    reward_mod: RewardMod = RewardMod()
    heuristic_target: float = 0.5
    lp_time_limit: float | None = None
    collect_decisions: bool = True

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if not (all(map(_is_int, (*self.seeds, self.episodes)))
                and self.episodes >= 1 and 0 <= self.heuristic_target <= 1):
            raise ValueError(f"need integer seeds, an integer episodes >= 1 "
                             f"and a heuristic_target in [0, 1], got {self}")
        if not 0.0 <= (self.lp_time_limit or 0.0) < float("inf"):
            raise ValueError(f"lp_time_limit must be finite and >= 0, "
                             f"got {self.lp_time_limit}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        for key, kind in (("env", EnvParams), ("agent", AgentParams),
                          ("reward_mod", RewardMod)):
            if isinstance(data.get(key), dict):
                data[key] = kind(**data[key])
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a mapping at top level")
    return ExperimentConfig.from_dict(data)


def config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
