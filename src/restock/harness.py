"""Experiment orchestration: seeded runs, transfer, heatmaps, summaries.

A run directory is fully determined by its manifest: re-executing the
manifest reproduces every metrics CSV byte for byte. Wall-clock timings are
kept out of the metrics files (they land in ``timings.json``) so the
determinism contract stays checkable.

The seeds of a run are independent, so ``run_experiment`` trains them in
forked worker processes, one per seed and at most one per CPU the process
may use. A seed's files do not depend on the number of workers or on which
other seeds run beside it: every seed's output is the same bytes as in a
serial run, so the worker count is no config field and the manifest does
not record it.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import signal
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, agents, baselines, datagen
from .agents import DecisionLog, EpisodeMetrics
from .config import (EnvParams, ExperimentConfig, RewardMod, _is_int,
                     config_hash)
from .env import Simulator

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 2   # written by run_experiment, required by read_manifest

# purposes for deriving initial-inventory seeds; shared across algorithms
_PURPOSE_TRAIN, _PURPOSE_EVAL, _PURPOSE_FINETUNE = 0, 1, 2


def episode_inventories(p: int, seed: int, purpose: int, episode: int) -> np.ndarray:
    """Initial inventories for (seed, episode), identical for every algorithm."""
    return datagen.initial_inventories(
        p, np.random.SeedSequence([seed, purpose, episode]))


def read_manifest(run_dir) -> tuple[ExperimentConfig, str]:
    """A run's config, its dataset path resolved against the run directory,
    and the dataset sha256 the manifest pins. A manifest of another format
    than ``MANIFEST_FORMAT``, or one without the pin, is refused."""
    path = Path(run_dir) / MANIFEST_NAME
    with open(path) as fh:
        manifest = json.load(fh)
    fmt, pinned = manifest.get("format"), manifest.get("dataset_sha256")
    if fmt != MANIFEST_FORMAT or pinned is None:
        raise ValueError(f"{path}: need manifest format {MANIFEST_FORMAT} and "
                         f"a dataset_sha256, got {fmt} and {pinned}")
    try:
        cfg = ExperimentConfig.from_dict(manifest["config"])
    except ValueError as exc:   # e.g. a key this version no longer knows
        raise ValueError(f"{path}: {exc}") from exc
    return replace(cfg, dataset=os.path.normpath(
        os.path.join(run_dir, cfg.dataset))), pinned


# the value types of a block ``datagen.format_table`` writes: those orjson
# writes as numbers; bools, which it writes ``true``, and float16/float32,
# whose shortest digits are not those of their float64, are written value
# by value
_NUMBER_TYPES = frozenset([int, float, np.float64, np.int8, np.int16,
                           np.int32, np.int64, np.uint8, np.uint16,
                           np.uint32, np.uint64])
_CSV_BLOCK = 1024  # rows that write_csv formats at a time


def write_csv(path, columns, rows) -> None:
    """Writes the header, then ``rows`` in blocks of ``_CSV_BLOCK``, to a
    file beside ``path`` that replaces it at the end, in a parent directory
    created if missing. A block whose values are all of ``_NUMBER_TYPES``
    is written by one ``datagen.format_table`` call with ``csv``'s line
    ending, as no number needs quoting; ``csv`` writes any other block
    from the ``datagen.format_value`` text of each value. A row whose
    length is not the header's raises; an error leaves ``path``."""
    width = len(columns)
    if width == 0:
        raise ValueError(f"{path}: a CSV needs at least one column")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    rows, done = iter(rows), 0
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            while chunk := list(itertools.islice(rows, _CSV_BLOCK)):
                if set(map(len, chunk)) != {width}:
                    k, row = next((k, row) for k, row in enumerate(chunk, done)
                                  if len(row) != width)
                    raise ValueError(f"{path}: row {k} has {len(row)} values "
                                     f"for {width} columns: {row!r}")
                kinds = set(map(type, itertools.chain.from_iterable(chunk)))
                if kinds <= _NUMBER_TYPES:
                    fh.write(datagen.format_table(chunk, ",", "\r\n"))
                else:
                    writer.writerows([list(map(datagen.format_value, row))
                                      for row in chunk])
                done += len(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = list(reader)
    return columns, rows


DECISION_COLUMNS = ("period", "product", "inventory", "order", "action_index",
                    "action_value", "tag", "gvf1", "gvf2", "gvf3")
EVAL_COLUMNS = ("window_start", "window_len") + EpisodeMetrics.COLUMNS
LP_COLUMNS = ("window", "window_start", "window_len", "status",
              "solver_status", "mean_surrogate", "iterations", "kkt_residual")


def lp_bound_row(ds: datagen.Dataset, window: str, seed: int,
                 mod: RewardMod, time_limit: float | None) -> list:
    """Solve the hindsight LP on the ``"train"`` or ``"test"`` window from
    the seed's eval inventories; returns its ``lp_bound.csv`` row (see
    ``LP_COLUMNS``), with blanks for a dnf."""
    start, length = {"train": ds.train_window, "test": ds.test_window}[window]
    x0 = episode_inventories(ds.spec.products, seed, _PURPOSE_EVAL, 0)
    res = baselines.lp_upper_bound(
        ds.catalog, x0, ds.demand[start:start + length],
        time_limit=time_limit, mod=mod)

    row = [window, start, length, res.status, res.solver_status,
           res.mean_surrogate, res.iterations, res.kkt_residual]
    return ["" if v is None else v for v in row]


def read_decisions(path) -> dict[str, np.ndarray]:
    """A ``decisions.csv`` as one array per column: the header read by
    ``csv``, the body parsed in one ``np.loadtxt`` call. A file whose header
    is not ``DECISION_COLUMNS`` is refused."""
    with open(path) as fh:
        columns = next(csv.reader([fh.readline()]), [])
        if tuple(columns) != DECISION_COLUMNS:
            raise ValueError(f"{path}: not a decision log: its header is "
                             f"{columns}, not {list(DECISION_COLUMNS)}")
        body = fh.tell()
        if not fh.readline():
            raise ValueError(f"{path}: empty decision log")
        fh.seek(body)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: {data.shape[1]} values per row for "
                         f"{len(columns)} columns")
    return {c: col.astype(int) if c in ("period", "product", "action_index",
                                         "tag") else col
            for c, col in zip(columns, np.ascontiguousarray(data.T))}


def run_experiment(cfg: ExperimentConfig, out_dir) -> Path:
    """Train/evaluate one algorithm on one dataset across seeds.

    Worker processes forked from this one run the seeds, one per seed and
    at most one per CPU this process may use. With one seed or one CPU the
    seeds run here, one after another. Outputs do not depend on the worker
    count; ``timings.json`` records it next to the wall time of the run
    and, split per layer, of each seed. The manifest records the dataset's
    path relative to the run directory, so a replay opens the same file
    from any directory, and so does one of a study moved as a whole.
    """
    workers = min(len(cfg.seeds), _usable_cpus())
    t0 = time.monotonic()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds, digest = datagen.load_with_digest(cfg.dataset)
    stored = replace(cfg, dataset=os.path.relpath(cfg.dataset, out))

    manifest = {
        "format": MANIFEST_FORMAT,
        "config": stored.to_dict(),
        "config_hash": config_hash(stored),
        "package_version": __version__,
        "dataset_header": asdict(ds.spec),
        "dataset_sha256": digest,
    }
    with open(out / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")

    tasks = [(cfg, ds, seed, out / f"seed_{seed}") for seed in cfg.seeds]
    seconds = (dict(map(_timed_seed, tasks)) if workers == 1
               else _run_forked(tasks, workers))
    timings = {f"seed_{seed}": seconds[seed] for seed in cfg.seeds}
    timings.update(workers=workers, wall_s=time.monotonic() - t0)
    with open(out / "timings.json", "w") as fh:
        json.dump(timings, fh, indent=2)
        fh.write("\n")
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (``taskset``, a
    cpuset), where the platform has one, else every CPU of the host."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_forked(tasks, workers: int) -> dict[int, dict]:
    """``_timed_seed`` of every task, each in a process forked for it, at
    most ``workers`` at a time; returns {seed: seconds by layer}.

    Each worker answers over a pipe of its own, so workers share no lock
    and one that dies, however it dies, cannot stall the rest: it fails the
    run, as a seed's error does. Workers still running are terminated and
    joined on every way out, Ctrl-C and ``SystemExit`` included.
    """
    import multiprocessing
    from multiprocessing import connection

    ctx = multiprocessing.get_context("fork")
    pending, running, seconds = list(tasks), {}, {}
    try:
        while pending or running:
            while pending and len(running) < workers:
                reader, writer = ctx.Pipe(duplex=False)
                worker = ctx.Process(target=_seed_worker,
                                     args=(pending.pop(0), writer))
                worker.start()
                writer.close()
                running[reader] = worker
            for reader in connection.wait(list(running)):
                worker = running.pop(reader)
                with reader:
                    try:
                        result = reader.recv()
                    except EOFError:
                        result = (f"seed worker {worker.pid} exited "
                                  "without a result")
                worker.join()
                if isinstance(result, str):
                    raise RuntimeError(result)
                seed, elapsed = result
                seconds[seed] = elapsed
    finally:
        for worker in running.values():
            worker.terminate()
        for reader, worker in running.items():
            worker.join()
            reader.close()
    return seconds


def _seed_worker(task, writer) -> None:
    """Sends ``_timed_seed(task)`` to the parent, or the traceback of the
    error it raised as text: not every exception survives a pickle round
    trip. Ctrl-C is left to the parent, and the SIGTERM with which the
    parent terminates a worker kills it at once."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        writer.send(_timed_seed(task))
    except Exception:
        import traceback
        writer.send(f"seed {task[2]} failed in its worker:\n"
                    f"{traceback.format_exc()}")


def _timed_seed(task) -> tuple[int, dict]:
    """Runs one seed into its directory; returns (seed, seconds by layer)."""
    cfg, ds, seed, seed_dir = task
    t0 = time.monotonic()
    seed_dir.mkdir(exist_ok=True)
    layers = _run_seed(cfg, ds, seed, seed_dir)
    return seed, {"wall_s": time.monotonic() - t0, **layers}


def _run_seed(cfg: ExperimentConfig, ds, seed: int, seed_dir: Path) -> dict:
    """Runs one seed; an agent's returns the seconds of each layer."""
    p = ds.spec.products
    train_start, train_len = ds.train_window
    test_start, test_len = ds.test_window

    if cfg.algorithm == "lp_bound":
        write_csv(seed_dir / "lp_bound.csv", LP_COLUMNS, [
            lp_bound_row(ds, window, seed, cfg.reward_mod, cfg.lp_time_limit)
            for window in ("train", "test")])
        return {}

    sim = Simulator(ds.catalog, ds.demand, cfg.env, cfg.reward_mod)
    if cfg.algorithm == "heuristic":
        def heuristic_row(start, length, x0):
            rewards, means, _ = baselines.run_heuristic_episode(
                sim, start, length, x0, cfg.heuristic_target)
            # a pairwise mean; the running sum differs in the last bits
            means[0] = rewards.mean()
            return EpisodeMetrics.from_means(0, means, 0.0).as_row()
        x0_train = episode_inventories(p, seed, _PURPOSE_TRAIN, 0)
        x0_eval = episode_inventories(p, seed, _PURPOSE_EVAL, 0)
        write_csv(seed_dir / "train_metrics.csv", EpisodeMetrics.COLUMNS,
                  [heuristic_row(train_start, train_len, x0_train)])
        write_csv(seed_dir / "eval_metrics.csv", EVAL_COLUMNS,
                  [[test_start, test_len,
                    *heuristic_row(test_start, test_len, x0_eval)]])
        return {}

    # RL variants
    bundle = agents.make_bundle(cfg.algorithm, seed, cfg.agent)
    history = agents.train_agent(
        bundle, sim, cfg.episodes, train_start, train_len,
        x0_provider=lambda ep: episode_inventories(p, seed, _PURPOSE_TRAIN, ep))

    t0 = time.perf_counter()
    agents.save_agent(seed_dir / "checkpoint.npz", bundle,
                      env=asdict(cfg.env), reward_mod=asdict(cfg.reward_mod))
    t1 = time.perf_counter()
    eval_m, log = evaluate_checkpoint(seed_dir / "checkpoint.npz", ds, seed,
                                      cfg.collect_decisions)
    t2 = time.perf_counter()
    write_csv(seed_dir / "train_metrics.csv", EpisodeMetrics.COLUMNS,
              [m.as_row() for m in history])
    write_csv(seed_dir / "eval_metrics.csv", EVAL_COLUMNS,
              [[test_start, test_len, *eval_m.as_row()]])
    if log is not None:
        arrays = log.arrays()
        write_csv(seed_dir / "decisions.csv", DECISION_COLUMNS,
                  zip(*(arrays[c] for c in DECISION_COLUMNS)))
    return {**bundle.seconds, "eval_s": t2 - t1,
            "write_s": t1 - t0 + time.perf_counter() - t2}


def replay_manifest(run_dir, out_dir) -> Path:
    """Re-execute a run from its manifest into a fresh directory. A
    dataset file whose bytes have changed since the run, as the sha256 its
    manifest pins tells, is refused.
    """
    cfg, pinned = read_manifest(run_dir)
    if pinned != datagen.load_with_digest(cfg.dataset)[1]:
        raise ValueError(f"{cfg.dataset}: dataset sha256 differs from the "
                         f"one pinned in {Path(run_dir) / MANIFEST_NAME}")
    return run_experiment(cfg, out_dir)


# ----------------------------------------------------------------- transfer

def evaluate_checkpoint(checkpoint_path, dataset, seed: int,
                        collect_decisions: bool = False):
    """Greedy evaluation of a stored policy on a dataset's test window.

    Works unchanged across datasets because the observation is per-product
    and normalized. The policy is scored under the env and reward mod
    stored in the checkpoint; a checkpoint without them is refused. A run
    scores each trained seed with this call, for its eval row and its
    decision log.
    """
    ds = dataset if isinstance(dataset, datagen.Dataset) else datagen.load(dataset)
    p = ds.spec.products
    bundle = agents.load_agent(checkpoint_path, seed=seed)
    meta = bundle.checkpoint_meta
    sim = Simulator(ds.catalog, ds.demand, EnvParams(**meta["env"]),
                    RewardMod(**meta["reward_mod"]))
    test_start, test_len = ds.test_window
    x0 = episode_inventories(p, seed, _PURPOSE_EVAL, 0)
    log = DecisionLog() if collect_decisions else None
    metrics = agents.run_episode(bundle, sim, test_start, test_len, x0,
                                 mode="eval", decision_log=log)
    return metrics, log


def transfer_rows(run_dir, dataset_path):
    """Evaluate every seed checkpoint of a run on a foreign dataset, under
    the env and reward mod each checkpoint stores. Rows name datasets by
    file sha256, the run's own as its manifest pins it."""
    run_dir = Path(run_dir)
    cfg, trained_on = read_manifest(run_dir)
    ds, evaluated_on = datagen.load_with_digest(dataset_path)
    rows = []
    for seed in cfg.seeds:
        ckpt = run_dir / f"seed_{seed}" / "checkpoint.npz"
        metrics, _ = evaluate_checkpoint(ckpt, ds, seed)
        rows.append([cfg.algorithm, trained_on, evaluated_on, seed,
                     metrics.mean_business_reward])
    return rows


TRANSFER_COLUMNS = ("algorithm", "trained_on_sha256", "evaluated_on_sha256",
                    "seed", "mean_business_reward")


# ----------------------------------------------------------------- heatmaps

#: bin labels are right edges; a label covers (label - width, label]
INV_EDGES = np.round(np.arange(0.1, 1.01, 0.1), 10)
ORDER_EDGES = np.round(np.arange(0.05, 1.001, 0.05), 10)


@dataclass(frozen=True)
class HeatmapGrid:
    kind: str
    inv_edges: np.ndarray
    order_edges: np.ndarray
    mean: np.ndarray    # (inv bins, order bins); NaN where no samples
    count: np.ndarray

    def populated(self) -> int:
        return int((self.count > 0).sum())


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(edges, values, side="left"),
                   0, len(edges) - 1)


def extract_heatmaps(decisions: dict[str, np.ndarray]) -> dict[str, HeatmapGrid]:
    """Bin decisions by (inventory, realized order) and average values.

    Returns a grid for the chosen replenishment quantity plus one per GVF
    head prediction of the chosen action.
    """
    if len(decisions.get("inventory", ())) == 0:
        raise ValueError("empty decision log")
    inv_idx = _bin_index(decisions["inventory"], INV_EDGES)
    ord_idx = _bin_index(decisions["order"], ORDER_EDGES)
    shape = (len(INV_EDGES), len(ORDER_EDGES))
    count = np.zeros(shape)
    np.add.at(count, (inv_idx, ord_idx), 1.0)

    grids = {}
    for kind, column in (("policy", "action_value"), ("gvf1", "gvf1"),
                         ("gvf2", "gvf2"), ("gvf3", "gvf3")):
        total = np.zeros(shape)
        np.add.at(total, (inv_idx, ord_idx), decisions[column])
        mean = np.where(count > 0, total / np.maximum(count, 1.0), np.nan)
        grids[kind] = HeatmapGrid(kind=kind, inv_edges=INV_EDGES,
                                  order_edges=ORDER_EDGES, mean=mean,
                                  count=count.copy())
    return grids


HEATMAP_COLUMNS = ("grid", "inventory_bin", "order_bin", "mean_value", "count")


def heatmap_rows(grids: dict[str, HeatmapGrid]):
    """One row per populated cell, grid by grid, in row-major cell order."""
    return [[kind, grid.inv_edges[i], grid.order_edges[j], grid.mean[i, j],
             int(grid.count[i, j])]
            for kind, grid in grids.items()
            for i, j in np.argwhere(grid.count > 0)]


# ---------------------------------------------------------------- fine-tune

FINETUNE_COLUMNS = ("algorithm", "seed") + EpisodeMetrics.COLUMNS


def run_finetune_suite(run_dirs: dict[str, Path], dataset_path,
                       reward_mod: RewardMod, out_path,
                       episodes: int = 100, epsilon: float = 0.1) -> Path:
    """Fine-tune stored checkpoints under a modified reward at a constant
    ``epsilon``.

    ``run_dirs`` maps algorithm name to its pretraining run directory; all
    algorithms and seeds share per-episode initial inventories. Each run
    keeps the env and agent hyperparameters it was trained with.
    """
    if not (_is_int(episodes) and episodes >= 1 and 0.0 <= epsilon <= 1.0):
        raise ValueError(f"need an integer episodes >= 1 and an epsilon in "
                         f"[0, 1], got {episodes!r} and {epsilon!r}")
    ds = datagen.load(dataset_path)
    p = ds.spec.products
    train_start, train_len = ds.train_window

    rows = []
    for algorithm, run_dir in run_dirs.items():
        run_dir = Path(run_dir)
        cfg = read_manifest(run_dir)[0]
        if cfg.algorithm != algorithm:
            raise ValueError(f"{run_dir} holds {cfg.algorithm!r}, "
                             f"not {algorithm!r}")
        for seed in cfg.seeds:
            ckpt = run_dir / f"seed_{seed}" / "checkpoint.npz"
            bundle = agents.load_agent(ckpt, seed=seed, agent=replace(
                cfg.agent, eps_start=epsilon, eps_end=epsilon))
            sim = Simulator(ds.catalog, ds.demand, cfg.env, reward_mod)
            history = agents.train_agent(
                bundle, sim, episodes, train_start, train_len,
                x0_provider=lambda ep: episode_inventories(
                    p, seed, _PURPOSE_FINETUNE, ep))
            for m in history:
                rows.append([algorithm, seed, *m.as_row()])
    write_csv(out_path, FINETUNE_COLUMNS, rows)
    return Path(out_path)


# ------------------------------------------------------------------ summary

SUMMARY_COLUMNS = ("run", "dataset", "algorithm", "split", "mean",
                   "ci95_halfwidth", "seeds")


def t_interval_halfwidth(values) -> float:
    """95% t-interval half-width over per-seed results."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return 0.0
    sd = values.std(ddof=1)
    if sd == 0.0:
        return 0.0
    from scipy import special
    # the t distribution's 0.975 quantile, as ``scipy.stats.t.ppf`` gets it
    return float(special.stdtrit(n - 1, 0.975) * sd / np.sqrt(n))


def summarize(run_dirs, out_path=None):
    """Per-run train/test means with 95% confidence intervals."""
    summary = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        cfg = read_manifest(run_dir)[0]
        per_window: dict[str, list[float]] = {"train": [], "test": []}
        for seed in cfg.seeds:
            seed_dir = run_dir / f"seed_{seed}"
            if cfg.algorithm == "lp_bound":
                cols, rows = read_csv(seed_dir / "lp_bound.csv")
                ik, wk = cols.index("mean_surrogate"), cols.index("window")
                for r in rows:
                    if r[ik] != "":
                        per_window[r[wk]].append(float(r[ik]))
                continue
            # train: the mean of the last 100 episodes; test: the eval row
            for split, name, last in (("train", "train_metrics.csv", 100),
                                      ("test", "eval_metrics.csv", 1)):
                cols, rows = read_csv(seed_dir / name)
                k = cols.index("mean_business_reward")
                per_window[split].append(
                    float(np.mean([float(r[k]) for r in rows[-last:]])))
        for split, vals in per_window.items():
            if vals:
                summary.append([str(run_dir), cfg.dataset, cfg.algorithm,
                                split, float(np.mean(vals)),
                                t_interval_halfwidth(vals), len(vals)])
    if out_path is not None:
        write_csv(out_path, SUMMARY_COLUMNS, summary)
    return summary
