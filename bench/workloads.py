"""Workloads of the restock benchmark: inputs, timed operations and checks.

Every input is generated from the workload seed; the program only ever sees
the generated dataset files. Each workload is a closed loop: one caller,
and each operation waits for the previous one. ``op`` is the timed call,
``check`` verifies its output outside the timed region and returns the
failures it found.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from restock import baselines, datagen, harness, nn, simplex
from restock.config import AgentParams, ExperimentConfig
from restock.env import Simulator

DATASET_PRODUCTS = (5, 20, 100)
TRAIN_SEEDS = (0, 1)   # two seeds, so a parallel-seeds change can show
LP_WINDOWS = 16        # distinct LP windows an lp run cycles through
ENGINE_REL_TOL = 1e-7
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the self-test shrinks them."""

    horizon: int = 1396
    train_len: int = 900
    train_episodes: int = 2
    lp_small: tuple[int, int] = (5, 20)     # products, periods: 535 rows
    lp_large: tuple[int, int] = (20, 100)   # 10,180 rows


FULL = Sizes()


def dataset_path(work: Path, p: int) -> Path:
    return work / "data" / f"p{p}.txt"


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_datasets(work: Path, seed: int, sizes: Sizes) -> dict[str, str]:
    """Generate and save the p=5/20/100 datasets; returns their sha256."""
    dataset_path(work, 1).parent.mkdir(parents=True, exist_ok=True)
    digests = {}
    for p in DATASET_PRODUCTS:
        ds_seed = int(np.random.SeedSequence([seed, p]).generate_state(1)[0])
        spec = datagen.DatasetSpec(products=p, horizon=sizes.horizon,
                                   train_len=sizes.train_len, seed=ds_seed)
        path = dataset_path(work, p)
        datagen.save(datagen.generate(spec), path)
        digests[path.name] = sha256(path)
    return digests


def make_setup_run(work: Path, sizes: Sizes) -> None:
    """The short p=20 training run whose checkpoint the eval workload uses."""
    cfg = ExperimentConfig(dataset=str(dataset_path(work, 20)),
                           algorithm="dez_dqn_gvf", seeds=(0,),
                           episodes=1,
                           collect_decisions=False)
    harness.run_experiment(cfg, work / "setup_run")


def setup(work: Path, seed: int, sizes: Sizes, reps: int):
    """Build every workload's inputs ``reps`` times; returns (seconds per
    rep, dataset digests). The last rep's files stay for the workload."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        digests = make_datasets(work, seed, sizes)
        make_setup_run(work, sizes)
        times.append(time.perf_counter() - t0)
    return times, digests


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _column(path: Path, name: str) -> list[float]:
    columns, rows = harness.read_csv(path)
    k = columns.index(name)
    return [float(r[k]) for r in rows]


# ------------------------------------------------------------------- train

def expected_train_steps(p: int, periods: int, episodes: int,
                         agent: AgentParams) -> int:
    """Learner steps implied by the episode count, ``train_every`` and the
    periods it takes the replay buffer to fill one batch."""
    steps = stored = 0
    for _ in range(episodes):
        for k in range(periods):
            stored = min(stored + p, agent.buffer_capacity)
            if k % agent.train_every == 0 and stored >= agent.batch_size:
                steps += 1
    return steps


class Train:
    """``restock train``'s path: dez_dqn_gvf on p=20, two seeds."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.sizes = work, sizes
        self.cfg = ExperimentConfig(dataset=str(dataset_path(work, 20)),
                                    algorithm="dez_dqn_gvf", seeds=TRAIN_SEEDS,
                                    episodes=sizes.train_episodes,
                                    agent=AgentParams(),
                                    collect_decisions=True)
        self.steps = expected_train_steps(20, sizes.train_len,
                                          sizes.train_episodes, AgentParams())
        self.decision_rows = 20 * (sizes.horizon - sizes.train_len)
        self.digests: dict[int, str] = {}

    def op(self, k: int) -> Path:
        return harness.run_experiment(self.cfg, self.work / f"train-{k}")

    def check(self, out: Path) -> list[str]:
        bad = []
        for seed in TRAIN_SEEDS:
            d = out / f"seed_{seed}"
            rewards = _column(d / "train_metrics.csv", "mean_business_reward")
            evals = _column(d / "eval_metrics.csv", "mean_business_reward")
            if len(rewards) != self.sizes.train_episodes or len(evals) != 1:
                bad.append(f"seed {seed}: {len(rewards)} train rows, "
                           f"{len(evals)} eval rows")
            if not all(math.isfinite(r) for r in rewards + evals):
                bad.append(f"seed {seed}: non-finite reward")
            rows = _csv_rows(d / "decisions.csv")
            if rows != self.decision_rows:
                bad.append(f"seed {seed}: {rows} decision rows, "
                           f"expected {self.decision_rows}")
            steps = nn.load_checkpoint(d / "checkpoint.npz")[2]["train_steps"]
            if steps != self.steps:
                bad.append(f"seed {seed}: {steps} train steps, "
                           f"expected {self.steps}")
            digest = sha256(d / "train_metrics.csv") + sha256(
                d / "eval_metrics.csv")
            if self.digests.setdefault(seed, digest) != digest:
                bad.append(f"seed {seed}: metrics CSVs differ between reps")
        shutil.rmtree(out)
        return bad


# -------------------------------------------------------------------- eval

@dataclass
class EvalOutput:
    out: Path
    transfer: list
    metrics: object
    decisions: dict
    grids: dict


def read_back(path: Path):
    """The decision log as read from disk, and its heatmaps."""
    decisions = harness.read_decisions(path)
    return decisions, harness.extract_heatmaps(decisions)


class Eval:
    """Transfer and evaluation of the setup's p=20 policy on p=100, the
    decision-log round trip and heatmaps, and the heuristic run."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work = work
        self.run_dir = work / "setup_run"
        self.checkpoint = self.run_dir / "seed_0" / "checkpoint.npz"
        self.native = dataset_path(work, 20)
        self.foreign = dataset_path(work, 100)
        self.heuristic = ExperimentConfig(dataset=str(self.foreign),
                                          algorithm="heuristic", seeds=(0,))
        self.decision_rows = 100 * (sizes.horizon - sizes.train_len)
        _, rows = harness.read_csv(
            self.run_dir / "seed_0" / "eval_metrics.csv")
        self.native_row = [float(v) for v in rows[0]]

    def op(self, k: int) -> EvalOutput:
        out = self.work / f"eval-{k}"
        out.mkdir()
        transfer = harness.transfer_rows(self.run_dir, self.foreign)
        metrics, log = harness.evaluate_checkpoint(
            self.checkpoint, self.foreign, seed=0, collect_decisions=True)
        arrays = log.arrays()
        harness.write_csv(out / "decisions.csv", harness.DECISION_COLUMNS,
                          zip(*(arrays[c] for c in harness.DECISION_COLUMNS)))
        decisions, grids = read_back(out / "decisions.csv")
        harness.run_experiment(self.heuristic, out / "heuristic")
        return EvalOutput(out, transfer, metrics, decisions, grids)

    def check(self, res: EvalOutput) -> list[str]:
        bad = []
        reward = res.metrics.mean_business_reward
        if ([r[4] for r in res.transfer] != [reward]
                or not math.isfinite(reward)):
            bad.append(f"transfer rows {res.transfer} disagree with the "
                       f"checkpoint evaluation {reward}")
        rows = len(res.decisions["period"])
        if rows != self.decision_rows:
            bad.append(f"{rows} decision rows, expected {self.decision_rows}")
        for kind, grid in res.grids.items():
            if grid.count.sum() != rows:
                bad.append(f"heatmap {kind} counts {grid.count.sum()} rows")
        heuristic = _column(
            res.out / "heuristic" / "seed_0" / "eval_metrics.csv",
            "mean_business_reward")
        if len(heuristic) != 1 or not math.isfinite(heuristic[0]):
            bad.append(f"heuristic eval rows {heuristic}")
        native, _ = harness.evaluate_checkpoint(self.checkpoint, self.native,
                                                seed=0)
        row = self.native_row[:2] + [float(v) for v in native.as_row()]
        if row != self.native_row:
            bad.append("native evaluation does not reproduce the eval row")
        shutil.rmtree(res.out)
        return bad


# ---------------------------------------------------------------------- lp

@dataclass
class LpCall:
    window: int
    result: baselines.LpBoundResult
    solves: list   # (problem, solution) of every solve_lp call it made
    seconds: float


class LpWindows:
    """One LP size: sub-windows of the test window and the bound over one."""

    def __init__(self, work: Path, seed: int, size: tuple[int, int]):
        p, periods = size
        self.ds = datagen.load(dataset_path(work, p))
        start, length = self.ds.test_window
        rng = np.random.default_rng([seed, p, periods])
        self.windows = [(int(s), rng.random(p)) for s in
                        rng.integers(start, start + length - periods + 1,
                                     size=LP_WINDOWS)]
        self.periods = periods

    def _demand(self, w: int) -> np.ndarray:
        s = self.windows[w][0]
        return self.ds.demand[s:s + self.periods]

    def solve(self, w: int) -> LpCall:
        solves = []
        solve = simplex.solve_lp

        def observed(problem, *args, **kwargs):
            solution = solve(problem, *args, **kwargs)
            solves.append((problem, solution))
            return solution

        simplex.solve_lp = observed
        try:
            t0 = time.perf_counter()
            result = baselines.lp_upper_bound(
                self.ds.catalog, self.windows[w][1], self._demand(w))
            seconds = time.perf_counter() - t0
        finally:
            simplex.solve_lp = solve
        return LpCall(w, result, solves, seconds)

    def check(self, call: LpCall) -> list[str]:
        r = call.result
        if r.status != "optimal":
            return [f"window {call.window}: status {r.status}"]
        if len(call.solves) != 1:
            return [f"window {call.window}: {len(call.solves)} solve_lp calls"]
        bad = []
        problem, solution = call.solves[0]
        bound = solution.objective / self.periods
        if not math.isclose(r.mean_surrogate, bound, rel_tol=1e-12):
            bad.append(f"window {call.window}: bound {r.mean_surrogate} is "
                       f"not the solver's optimum {bound}")
        if not simplex.certify_optimal(problem, solution):
            bad.append(f"window {call.window}: no KKT certificate")
        # the own dense tableau cannot hold the large size, so only a
        # solution of the own engine gets a second engine's opinion
        if solution.engine == "own":
            other = simplex.solve_lp(problem, engine="scipy")
            if other.status != "optimal" or not math.isclose(
                    other.objective, solution.objective,
                    rel_tol=ENGINE_REL_TOL):
                bad.append(f"window {call.window}: HiGHS optimum "
                           f"{other.objective} vs own {solution.objective}")
        start, x0 = self.windows[call.window]
        sim = Simulator(self.ds.catalog, self.ds.demand)
        _, _, executed = baselines.run_heuristic_episode(
            sim, start, self.periods, x0)
        heuristic = baselines.surrogate_scores(
            self.ds.catalog, x0, self._demand(call.window), executed).mean()
        if heuristic > r.mean_surrogate + BOUND_TOL:
            bad.append(f"window {call.window}: heuristic {heuristic} beats "
                       f"the bound {r.mean_surrogate}")
        return bad


@dataclass
class ScoreOutput:
    eval: EvalOutput
    lp: dict[str, LpCall]


class Score:
    """The lab's scoring side: the eval mix, then ``lp_upper_bound`` with
    engine="auto" on a small window, which goes to the own simplex, and a
    large one, which goes to HiGHS. Each part's wall time is kept as
    ``eval_s``, ``lp_small_s`` and ``lp_large_s``."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.eval = Eval(work, seed, sizes)
        self.lp = {"lp_small": LpWindows(work, seed, sizes.lp_small),
                   "lp_large": LpWindows(work, seed, sizes.lp_large)}
        self.call_seconds = {"eval_s": [], "lp_small_s": [], "lp_large_s": []}

    def op(self, k: int) -> ScoreOutput:
        t0 = time.perf_counter()
        evaluated = self.eval.op(k)
        self.call_seconds["eval_s"].append(time.perf_counter() - t0)
        calls = {name: lp.solve(k % LP_WINDOWS)
                 for name, lp in self.lp.items()}
        for name, call in calls.items():
            self.call_seconds[f"{name}_s"].append(call.seconds)
        return ScoreOutput(evaluated, calls)

    def check(self, out: ScoreOutput) -> list[str]:
        return self.eval.check(out.eval) + [
            f"{name} {problem}" for name, call in out.lp.items()
            for problem in self.lp[name].check(call)]


WORKLOADS = {"train": Train, "score": Score}
