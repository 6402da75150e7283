import csv
import hashlib
import json
import multiprocessing
import os
import pickle
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from restock import agents, cli, datagen, harness, nn
from restock.config import (AgentParams, EnvParams, ExperimentConfig,
                            RewardMod, config_hash, load_config)
from restock.harness import (extract_heatmaps, heatmap_rows, read_decisions,
                             replay_manifest, run_config, run_experiment,
                             summarize, t_interval_halfwidth, transfer_rows)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)


def order_monotonicity(grid: harness.HeatmapGrid) -> tuple[int, int]:
    """(non-decreasing pairs, total pairs) across adjacent populated order
    bins at fixed inventory bin."""
    good = total = 0
    for i in range(grid.mean.shape[0]):
        row_counts = grid.count[i]
        for j in range(grid.mean.shape[1] - 1):
            if row_counts[j] > 0 and row_counts[j + 1] > 0:
                total += 1
                if grid.mean[i, j + 1] >= grid.mean[i, j] - 1e-12:
                    good += 1
    return good, total


def smoke_config(dataset_path, algorithm="dez_dqn_gvf", **kw):
    defaults = dict(
        dataset=str(dataset_path), algorithm=algorithm, seeds=(0, 1),
        episodes=3,
        agent=AgentParams(hidden_dims=(16, 16), buffer_capacity=4000,
                          batch_size=16, train_every=2, target_sync=100),
        env=EnvParams(forecast_window=4),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def smoke_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "smoke.txt"
    ds = datagen.generate(datagen.DatasetSpec(products=5, horizon=60,
                                              train_len=40, seed=77))
    datagen.save(ds, path)
    return path


@pytest.fixture(scope="module")
def smoke_run(smoke_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "dez"
    cfg = smoke_config(smoke_dataset)
    run_experiment(cfg, out)
    return cfg, out


# ------------------------------------------------------------- run layout

def test_run_directory_layout(smoke_run):
    cfg, out = smoke_run
    assert (out / "manifest.json").exists()
    assert (out / "timings.json").exists()
    for seed in cfg.seeds:
        seed_dir = out / f"seed_{seed}"
        for name in ("train_metrics.csv", "eval_metrics.csv",
                     "decisions.csv", "checkpoint.npz"):
            assert (seed_dir / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)


def test_metrics_reconstruction_identity(smoke_run):
    _, out = smoke_run
    cols, rows = harness.read_csv(out / "seed_0" / "train_metrics.csv")
    idx = {c: cols.index(c) for c in cols}
    for row in rows:
        vals = {c: float(row[idx[c]]) for c in cols}
        rebuilt = 1.0 - sum(vals[f"mean_{c}"] for c in
                            ("empty", "critical", "wastage", "spread",
                             "refused"))
        assert rebuilt == pytest.approx(vals["mean_business_reward"],
                                        abs=1e-9)


def test_rerun_is_byte_identical(smoke_dataset, tmp_path):
    cfg = smoke_config(smoke_dataset, seeds=(3,), episodes=2)
    out1 = run_experiment(cfg, tmp_path / "a")
    out2 = run_experiment(cfg, tmp_path / "b")
    for name in ("train_metrics.csv", "eval_metrics.csv", "decisions.csv"):
        a = (out1 / "seed_3" / name).read_bytes()
        b = (out2 / "seed_3" / name).read_bytes()
        assert a == b, name


def test_replay_manifest_reproduces_run(smoke_run, tmp_path):
    cfg, out = smoke_run
    replayed = replay_manifest(out, tmp_path / "replay")
    for seed in cfg.seeds:
        for name in ("train_metrics.csv", "eval_metrics.csv"):
            assert (out / f"seed_{seed}" / name).read_bytes() == \
                (replayed / f"seed_{seed}" / name).read_bytes()


def test_replay_refuses_a_changed_dataset(smoke_dataset, tmp_path):
    data = tmp_path / "ds.txt"
    data.write_bytes(smoke_dataset.read_bytes())
    cfg = smoke_config(data, algorithm="heuristic", seeds=(0,))
    out = run_experiment(cfg, tmp_path / "run")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_sha256"] == hashlib.sha256(
        data.read_bytes()).hexdigest()

    # edit one demand value: the last line of the file is a demand row
    lines = data.read_text().splitlines()
    values = lines[-1].split()
    values[0] = "0.5" if values[0] != "0.5" else "0.25"
    lines[-1] = " ".join(values)
    data.write_text("\n".join(lines) + "\n")
    assert datagen.load(data).demand[-1, 0] == float(values[0])
    with pytest.raises(ValueError, match="sha256"):
        replay_manifest(out, tmp_path / "replay")

    # a manifest written before datasets were pinned replays as before
    del manifest["dataset_sha256"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    replayed = replay_manifest(out, tmp_path / "replay")
    assert (replayed / "seed_0" / "eval_metrics.csv").exists()


def test_heuristic_run_is_seed_dependent_only_via_inventories(smoke_dataset,
                                                              tmp_path):
    cfg = smoke_config(smoke_dataset, algorithm="heuristic", seeds=(0, 1))
    out = run_experiment(cfg, tmp_path / "heur")
    assert not (out / "seed_0" / "checkpoint.npz").exists()
    cols, rows0 = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    _, rows1 = harness.read_csv(out / "seed_1" / "eval_metrics.csv")
    assert rows0 != rows1  # different initial inventories


def test_lp_bound_run(smoke_dataset, tmp_path):
    cfg = smoke_config(smoke_dataset, algorithm="lp_bound", seeds=(0,))
    out = run_experiment(cfg, tmp_path / "lp")
    cols, rows = harness.read_csv(out / "seed_0" / "lp_bound.csv")
    assert tuple(cols) == harness.LP_COLUMNS
    assert [r[cols.index("window")] for r in rows] == ["train", "test"]
    for r in rows:
        assert r[cols.index("status")] == "optimal"
        assert r[cols.index("solver_status")] == "optimal"
        assert float(r[cols.index("mean_surrogate")]) <= 1.0
        assert 0.0 <= float(r[cols.index("kkt_residual")]) < 1e-7

    # a manifest written before the LP engine options were retired
    # still replays, to the same bytes
    old = tmp_path / "old"
    old.mkdir()
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"].update(lp_engine="own", lp_max_iters=500_000)
    (old / "manifest.json").write_text(json.dumps(manifest))
    replayed = replay_manifest(old, tmp_path / "replay")
    assert (replayed / "seed_0" / "lp_bound.csv").read_bytes() == \
        (out / "seed_0" / "lp_bound.csv").read_bytes()


def test_smoke_run_completes_quickly(smoke_dataset, tmp_path):
    start = time.monotonic()
    cfg = smoke_config(smoke_dataset, seeds=(9,), episodes=2)
    run_experiment(cfg, tmp_path / "quick")
    assert time.monotonic() - start < 300.0


# ----------------------------------------------------------- seed pool

SEED_FILES = ("train_metrics.csv", "eval_metrics.csv", "decisions.csv",
              "checkpoint.npz", "lp_bound.csv")


def run_on_cpus(cfg, out, cpus, monkeypatch):
    """``run_experiment`` as on a host whose process may use ``cpus`` CPUs
    (the forked workers time-share the real ones)."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    return run_experiment(cfg, out)


@pytest.mark.parametrize("algorithm", ["dez_dqn_gvf", "heuristic",
                                       "lp_bound"])
def test_pool_output_is_byte_identical_to_serial(smoke_dataset, tmp_path,
                                                 monkeypatch, algorithm):
    cfg = smoke_config(smoke_dataset, algorithm=algorithm, episodes=2)
    serial = run_on_cpus(cfg, tmp_path / "serial", 1, monkeypatch)
    pooled = run_on_cpus(cfg, tmp_path / "pooled", 2, monkeypatch)
    compared = 0
    for seed in cfg.seeds:
        for name in SEED_FILES:
            a = serial / f"seed_{seed}" / name
            if a.exists():
                b = pooled / f"seed_{seed}" / name
                assert a.read_bytes() == b.read_bytes(), (seed, name)
                compared += 1
    assert compared >= len(cfg.seeds)
    assert (serial / "manifest.json").read_bytes() == \
        (pooled / "manifest.json").read_bytes()
    for out, workers in ((serial, 1), (pooled, 2)):
        timings = json.loads((out / "timings.json").read_text())
        assert timings["workers"] == workers
        assert timings["wall_s"] > 0
        assert {f"seed_{s}" for s in cfg.seeds} < set(timings)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, seeds, workers", [({0}, (0, 1), 1),
                                                  ({0, 1, 2}, (0, 1), 2),
                                                  ({0, 1, 2}, (4,), 1)])
def test_workers_follow_the_cpus_the_process_may_use(
        smoke_dataset, tmp_path, monkeypatch, cpus, seeds, workers):
    """The affinity mask, not the host's CPU count, caps the workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert harness._usable_cpus() == len(cpus)
    cfg = smoke_config(smoke_dataset, algorithm="heuristic", seeds=seeds)
    out = run_experiment(cfg, tmp_path / "run")
    assert json.loads((out / "timings.json").read_text())["workers"] == \
        workers


def _seed_error():
    raise ValueError("seed 1 failed")


def _unpicklable_error():
    # its constructor does not take its args, so no pickle can rebuild it
    raise datagen.DatasetFormatError("catalog", "seed 1 failed")


def _worker_death():
    os._exit(9)   # as a worker killed from outside: no result, no error


@pytest.mark.parametrize("fail, match", [
    (_seed_error, "ValueError: seed 1 failed"),
    (_unpicklable_error, r"DatasetFormatError: \[catalog\] seed 1 failed"),
    (_worker_death, "without a result")])
def test_pool_fails_fast_and_leaves_no_worker(smoke_dataset, tmp_path,
                                              monkeypatch, fail, match):
    """A seed's error reaches the parent with its worker's traceback, and a
    worker that dies without a result fails the run instead of stalling
    it."""
    run_seed = harness._run_seed

    def failing(cfg, ds, seed, seed_dir):
        if seed == 1:
            fail()
        run_seed(cfg, ds, seed, seed_dir)

    # the forked workers inherit the patched module
    monkeypatch.setattr(harness, "_run_seed", failing)
    cfg = smoke_config(smoke_dataset, algorithm="heuristic")
    with pytest.raises(RuntimeError, match=match):
        run_on_cpus(cfg, tmp_path / "run", 2, monkeypatch)
    assert multiprocessing.active_children() == []


def test_a_seed_alone_matches_its_part_of_a_run(smoke_run, tmp_path):
    """Seeds do not share state: seed 1 run alone writes the bytes it
    wrote next to seed 0."""
    cfg, out = smoke_run
    alone = run_experiment(replace(cfg, seeds=(1,)), tmp_path / "alone")
    for name in ("train_metrics.csv", "eval_metrics.csv", "decisions.csv",
                 "checkpoint.npz"):
        assert (alone / "seed_1" / name).read_bytes() == \
            (out / "seed_1" / name).read_bytes(), name


def row_wise_write_csv(path, columns, rows) -> None:
    """The reference writer: every value formatted alone by ``_fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([harness._fmt(v) for v in row])


def object_read_decisions(path) -> dict[str, np.ndarray]:
    """The reference reader: ``csv`` rows, each column parsed by ``astype``."""
    columns, rows = harness.read_csv(path)
    data = np.array(rows, dtype=object)
    return {c: data[:, k].astype(
                int if c in ("period", "product", "action_index", "tag")
                else float)
            for k, c in enumerate(columns)}


def test_decisions_csv_matches_the_row_wise_writer(smoke_run, smoke_dataset,
                                                   tmp_path, monkeypatch):
    """``write_csv`` gives the decision log the reference writer's bytes at
    any block size, and the run's own ``decisions.csv`` has them too."""
    _, out = smoke_run
    _, log = harness.evaluate_checkpoint(out / "seed_0" / "checkpoint.npz",
                                         smoke_dataset, seed=0,
                                         collect_decisions=True)
    arrays = log.arrays()

    def rows():
        return zip(*(arrays[c] for c in harness.DECISION_COLUMNS))
    oracle = tmp_path / "oracle.csv"
    row_wise_write_csv(oracle, harness.DECISION_COLUMNS, rows())
    for block in (1024, 7, 1):
        monkeypatch.setattr(harness, "_CSV_BLOCK", block)
        path = tmp_path / f"block_{block}.csv"
        harness.write_csv(path, harness.DECISION_COLUMNS, rows())
        assert path.read_bytes() == oracle.read_bytes(), block
    assert oracle.read_bytes() == (out / "seed_0" / "decisions.csv").read_bytes()


def mixed_rows(n: int) -> list:
    """Rows of every value type a CSV of the lab can hold, one column per
    type, plus columns that mix types and values ``csv`` must quote."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324,
                1.7976931348623157e308, 0.1 + 0.2]
    floats[:len(specials)] = specials[:n]
    ints = rng.integers(-2**62, 2**62, n)
    rows = []
    for k in range(n):
        rows.append([
            np.float64(floats[k]), np.float32(floats[k] / 1e290),
            np.int64(ints[k]), np.bool_(k % 3 == 0),
            int(ints[k]), float(floats[k]), k % 2 == 0, f"s{k}",
            None, Path(f"runs/seed_{k}"),
            # mixed: numpy float with Python float, numpy int with numpy float
            np.float64(k / 3) if k % 2 else k / 7,
            np.int64(k) if k % 5 else np.float64(k),
            np.uint8(k % 256), np.int32(-k), np.float16(k / 9),
            np.longdouble(k) / 3,
            ["a,b", 'q"uote', "line\nbreak", ""][k % 4],
        ])
    return rows


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
def test_write_csv_matches_the_row_wise_writer(tmp_path, n):
    rows = mixed_rows(n)
    columns = [f"c{k}" for k in range(17)]
    row_wise_write_csv(tmp_path / "oracle.csv", columns, rows)
    harness.write_csv(tmp_path / "blocks.csv", columns, rows)
    harness.write_csv(tmp_path / "iterated.csv", columns, iter(rows))
    oracle = (tmp_path / "oracle.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == oracle
    assert (tmp_path / "iterated.csv").read_bytes() == oracle


@pytest.mark.parametrize("bad", [1, 1024, 1500])
def test_write_csv_refuses_ragged_rows(tmp_path, bad):
    rows = [[k, k / 2, "x"] for k in range(2000)]
    rows[bad] = rows[bad][:2]
    with pytest.raises(ValueError, match=f"row {bad} has 2 values"):
        harness.write_csv(tmp_path / "short.csv", ("a", "b", "c"), rows)
    rows[bad] = [1, 2.0, "x", "extra"]
    with pytest.raises(ValueError, match=f"row {bad} has 4 values"):
        harness.write_csv(tmp_path / "long.csv", ("a", "b", "c"), rows)
    with pytest.raises(ValueError, match="column"):
        harness.write_csv(tmp_path / "none.csv", (), [])


def test_read_decisions_round_trips_floats_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    n = 3000
    ints = {c: rng.integers(-5, 10_000, n)
            for c in ("period", "product", "action_index", "tag")}
    floats = {c: rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n)
              for c in harness.DECISION_COLUMNS if c not in ints}
    floats["order"][:6] = [0.1 + 0.2, -1 / 3, 1e-300, -2.5e-10, 5e-324,
                           1.7976931348623157e308]
    columns = {**ints, **floats}
    path = tmp_path / "decisions.csv"
    harness.write_csv(path, harness.DECISION_COLUMNS,
                      zip(*(columns[c] for c in harness.DECISION_COLUMNS)))
    text = path.read_text()
    assert "e-300" in text and "-0.3333333333333333" in text

    got = read_decisions(path)
    expect = object_read_decisions(path)
    assert list(got) == list(harness.DECISION_COLUMNS)
    for c in harness.DECISION_COLUMNS:
        assert got[c].dtype == expect[c].dtype == columns[c].dtype, c
        assert got[c].tobytes() == expect[c].tobytes() == \
            columns[c].tobytes(), c
        assert got[c].flags.c_contiguous, c


def test_read_decisions_refuses_empty_and_ragged_files(tmp_path):
    header = ",".join(harness.DECISION_COLUMNS) + "\n"
    row = "0,1,0.5,0.25,3,0.25,1,0.1,0.2,0.3\n"
    cases = {"empty": "", "header_only": header,
             "short_row": header + row + row.rsplit(",", 1)[0] + "\n",
             "short_file": header + row.rsplit(",", 1)[0] + "\n"}
    for name, text in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                read_decisions(path)
    (tmp_path / "ok.csv").write_text(header + row)
    assert read_decisions(tmp_path / "ok.csv")["gvf3"].tolist() == [0.3]


# ------------------------------------------------------------- transfer

def test_transfer_self_matches_eval_row(smoke_run, smoke_dataset):
    cfg, out = smoke_run
    cols, rows = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    recorded = float(rows[0][cols.index("mean_business_reward")])
    metrics, _ = harness.evaluate_checkpoint(
        out / "seed_0" / "checkpoint.npz", smoke_dataset, seed=0,
        env_params=cfg.env)
    assert metrics.mean_business_reward == recorded


def test_self_transfer_uses_the_checkpoint_env(smoke_dataset, tmp_path):
    """With no env passed, a checkpoint is scored under the env and reward
    mod it was trained with, so it reproduces its own eval row."""
    cfg = smoke_config(smoke_dataset, seeds=(0,), episodes=2,
                       env=EnvParams(forecast_window=4, alpha=3.0),
                       reward_mod=RewardMod(wastage_weight=2.0))
    out = run_experiment(cfg, tmp_path / "run")
    ckpt = out / "seed_0" / "checkpoint.npz"
    cols, rows = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    recorded = [float(v) for v in rows[0]]

    metrics, _ = harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0)
    assert recorded[2:] == [float(v) for v in metrics.as_row()]
    reward = recorded[cols.index("mean_business_reward")]
    assert [r[4] for r in transfer_rows(out, smoke_dataset)] == [reward]
    # the defaults the checkpoint used to fall back to score it differently
    default, _ = harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0,
                                             env_params=EnvParams(),
                                             reward_mod=RewardMod())
    assert default.as_row() != metrics.as_row()


def test_run_scored_under_its_manifest_env_without_checkpoint_env(
        smoke_dataset, tmp_path):
    """A checkpoint whose metadata stores no env or reward mod is still
    scored and fine-tuned under its run's env, read from the manifest."""
    cfg = smoke_config(smoke_dataset, seeds=(0,), episodes=3,
                       env=EnvParams(forecast_window=4, alpha=3.0))
    out = run_experiment(cfg, tmp_path / "run")
    assert run_config(out) == cfg
    ckpt = out / "seed_0" / "checkpoint.npz"
    cols, rows = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    reward = float(rows[0][cols.index("mean_business_reward")])
    mod = RewardMod(wastage_weight=2.0)
    before = harness.run_finetune_suite(
        {cfg.algorithm: out}, smoke_dataset, mod, tmp_path / "before.csv",
        episodes=2).read_bytes()

    params, _, meta = nn.load_checkpoint(ckpt)
    del meta["env"], meta["reward_mod"]
    nn.save_checkpoint(ckpt, params, meta)
    assert [r[4] for r in transfer_rows(out, smoke_dataset)] == [reward]
    after = harness.run_finetune_suite(
        {cfg.algorithm: out}, smoke_dataset, mod, tmp_path / "after.csv",
        episodes=2).read_bytes()
    assert after == before


def test_evaluate_checkpoint_without_stored_env_needs_it_passed(
        smoke_dataset, tmp_path):
    """A checkpoint whose metadata stores no env or reward mod is refused
    unless both are passed, and with both it scores its own eval row."""
    cfg = smoke_config(smoke_dataset, seeds=(0,), episodes=2,
                       env=EnvParams(forecast_window=4, alpha=3.0))
    out = run_experiment(cfg, tmp_path / "run")
    ckpt = out / "seed_0" / "checkpoint.npz"
    _, rows = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    recorded = [float(v) for v in rows[0][2:]]

    params, _, meta = nn.load_checkpoint(ckpt)
    del meta["env"], meta["reward_mod"]
    nn.save_checkpoint(ckpt, params, meta)
    with pytest.raises(ValueError, match="'env'"):
        harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0)
    with pytest.raises(ValueError, match="'env'"):
        harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0,
                                    reward_mod=cfg.reward_mod)
    with pytest.raises(ValueError, match="'reward_mod'"):
        harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0,
                                    env_params=cfg.env)
    metrics, _ = harness.evaluate_checkpoint(
        ckpt, smoke_dataset, seed=0, env_params=cfg.env,
        reward_mod=cfg.reward_mod)
    assert [float(v) for v in metrics.as_row()] == recorded


def test_evaluation_does_not_depend_on_how_the_dataset_was_made(tmp_path):
    """A generated dataset, its saved-and-loaded copy and a pickled copy of
    that score a checkpoint to the same bits. A tight capacity makes the
    capacity ratio, a dot product with the catalog, bind."""
    spec = datagen.DatasetSpec(products=20, horizon=60, train_len=40,
                               seed=77, theta=0.5)
    generated = datagen.generate(spec)
    datagen.save(generated, tmp_path / "ds.txt")
    loaded = datagen.load(tmp_path / "ds.txt")
    copies = (generated, loaded, pickle.loads(pickle.dumps(loaded)))
    for seed in range(4):
        ckpt = tmp_path / f"untrained_{seed}.npz"
        bundle = agents.make_bundle("dez_dqn_gvf", seed,
                                    AgentParams(hidden_dims=(16, 16)))
        agents.save_agent(ckpt, bundle, env=asdict(EnvParams()),
                          reward_mod=asdict(RewardMod()))
        rows = [harness.evaluate_checkpoint(ckpt, ds, seed=0)[0].as_row()
                for ds in copies]
        assert rows[0] == rows[1] == rows[2], seed


def test_transfer_rows_on_foreign_dataset(smoke_run, tmp_path):
    cfg, out = smoke_run
    foreign = tmp_path / "foreign.txt"
    datagen.save(datagen.generate(datagen.DatasetSpec(
        products=8, horizon=60, train_len=40, seed=99)), foreign)
    rows = transfer_rows(out, foreign, env_params=cfg.env)
    assert len(rows) == len(cfg.seeds)
    for row in rows:
        assert row[0] == cfg.algorithm
        assert -4.0 <= row[4] <= 1.0


# ------------------------------------------------------------- heatmaps

def test_heatmap_single_decision_bins():
    decisions = {"inventory": np.array([0.15]), "order": np.array([0.07]),
                 "action_value": np.array([0.2]),
                 "gvf1": np.array([0.5]), "gvf2": np.array([0.1]),
                 "gvf3": np.array([0.9])}
    grids = extract_heatmaps(decisions)
    grid = grids["policy"]
    assert grid.populated() == 1
    i = list(grid.inv_edges).index(pytest.approx(0.2))
    j = list(grid.order_edges).index(pytest.approx(0.1))
    assert grid.count[i, j] == 1
    assert grid.mean[i, j] == pytest.approx(0.2)
    assert grids["gvf3"].mean[i, j] == pytest.approx(0.9)


def test_heatmap_matches_group_by_oracle():
    rng = np.random.default_rng(3)
    n = 5000
    decisions = {"inventory": rng.random(n), "order": rng.random(n),
                 "action_value": rng.random(n), "gvf1": rng.random(n),
                 "gvf2": rng.random(n), "gvf3": rng.random(n)}
    grids = extract_heatmaps(decisions)
    grid = grids["policy"]

    # independent group-by: dict keyed by (ceil-style bin labels)
    groups = {}
    for x, o, v in zip(decisions["inventory"], decisions["order"],
                       decisions["action_value"]):
        i = min(int(np.ceil(x / 0.1 - 1e-12)), 10)
        j = min(int(np.ceil(o / 0.05 - 1e-12)), 20)
        groups.setdefault((max(i, 1), max(j, 1)), []).append(v)
    assert grid.populated() == len(groups)
    for (i, j), vals in groups.items():
        assert grid.mean[i - 1, j - 1] == pytest.approx(np.mean(vals))
        assert grid.count[i - 1, j - 1] == len(vals)
    assert grid.count.sum() == n


def test_heatmap_counts_conserved_from_run(smoke_run):
    _, out = smoke_run
    decisions = read_decisions(out / "seed_0" / "decisions.csv")
    grids = extract_heatmaps(decisions)
    n = len(decisions["inventory"])
    for grid in grids.values():
        assert grid.count.sum() == n
    rows = heatmap_rows(grids)
    assert all(r[4] > 0 for r in rows)


def test_heatmap_empty_log_raises():
    with pytest.raises(ValueError):
        extract_heatmaps({"inventory": np.array([])})


def test_order_monotonicity_counts():
    mean = np.full((10, 20), np.nan)
    count = np.zeros((10, 20))
    mean[0, :3] = [0.1, 0.2, 0.15]
    count[0, :3] = 1
    grid = harness.HeatmapGrid("policy", harness.INV_EDGES,
                               harness.ORDER_EDGES, mean, count)
    good, total = order_monotonicity(grid)
    assert (good, total) == (1, 2)


# ------------------------------------------------------------- fine-tuning

def test_finetune_suite_curves(smoke_run, smoke_dataset, tmp_path):
    cfg, out = smoke_run
    path = harness.run_finetune_suite(
        {"dez_dqn_gvf": out}, smoke_dataset,
        RewardMod(wastage_weight=4.0), tmp_path / "ft.csv",
        episodes=4, epsilon=0.1, env_params=cfg.env)
    cols, rows = harness.read_csv(path)
    assert len(rows) == 4 * len(cfg.seeds)
    episodes = [int(r[cols.index("episode")]) for r in rows]
    assert episodes[:4] == [0, 1, 2, 3]


def test_finetune_suite_checks_algorithm(smoke_run, smoke_dataset, tmp_path):
    _, out = smoke_run
    with pytest.raises(ValueError):
        harness.run_finetune_suite({"dqn": out}, smoke_dataset, RewardMod(),
                                   tmp_path / "bad.csv", episodes=1)


# ------------------------------------------------------------- summaries

def test_summarize_hand_statistics(tmp_path, smoke_dataset):
    # five fabricated seed results 1..5: mean 3, t-interval halfwidth
    cfg = smoke_config(smoke_dataset, algorithm="heuristic",
                       seeds=(0, 1, 2, 3, 4))
    out = tmp_path / "fab"
    run_experiment(cfg, out)
    for k, seed in enumerate(cfg.seeds):
        for name in ("train_metrics.csv", "eval_metrics.csv"):
            path = out / f"seed_{seed}" / name
            cols, rows = harness.read_csv(path)
            i = cols.index("mean_business_reward")
            rows[0][i] = repr(float(k + 1))
            harness.write_csv(path, cols, rows)
    summary = summarize([out], out_path=tmp_path / "summary.csv")
    test_row = [r for r in summary if r[2] == "test"][0]
    assert test_row[3] == pytest.approx(3.0)
    sd = np.std([1, 2, 3, 4, 5], ddof=1)
    expect = 2.7764451051977987 * sd / np.sqrt(5)
    assert test_row[4] == pytest.approx(expect, rel=1e-9)


def test_ci_width_zero_for_identical_seeds():
    assert t_interval_halfwidth([0.5] * 5) == 0.0
    assert t_interval_halfwidth([0.5]) == 0.0


# ------------------------------------------------------------------- CLI

def test_cli_end_to_end(tmp_path):
    data = tmp_path / "ds.txt"
    rc = cli.main(["datagen", "--products", "4", "--seed", "5",
                   "--theta", "0.9", "--horizon", "50", "--train-len", "30",
                   "--out", str(data)])
    assert rc == 0 and data.exists()

    cfg = smoke_config(data, seeds=(0,), episodes=2)
    cfg_path = tmp_path / "cfg.yaml"
    save_config(cfg, cfg_path)
    assert load_config(cfg_path) == cfg

    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path),
                     "--out", str(run_dir)]) == 0
    assert (run_dir / "seed_0" / "checkpoint.npz").exists()

    assert cli.main(["eval", "--checkpoint",
                     str(run_dir / "seed_0" / "checkpoint.npz"),
                     "--dataset", str(data), "--seed", "0",
                     "--out", str(tmp_path / "eval.csv")]) == 0

    assert cli.main(["transfer", "--run", str(run_dir), "--dataset",
                     str(data), "--out", str(tmp_path / "transfer.csv")]) == 0
    # the run's forecast_window=4 travels with its checkpoint
    def reward(path):
        cols, rows = harness.read_csv(path)
        return rows[0][cols.index("mean_business_reward")]
    recorded = reward(run_dir / "seed_0" / "eval_metrics.csv")
    assert reward(tmp_path / "eval.csv") == recorded
    assert reward(tmp_path / "transfer.csv") == recorded

    assert cli.main(["heatmap", "--decisions",
                     str(run_dir / "seed_0" / "decisions.csv"),
                     "--out", str(tmp_path / "heat.csv")]) == 0

    assert cli.main(["finetune", "--run", f"dez_dqn_gvf={run_dir}",
                     "--dataset", str(data), "--wastage-weight", "4.0",
                     "--episodes", "2",
                     "--out", str(tmp_path / "ft.csv")]) == 0

    assert cli.main(["lp-bound", "--dataset", str(data), "--window", "test",
                     "--out", str(tmp_path / "lp.csv")]) == 0
    lp_cols, lp_rows = harness.read_csv(tmp_path / "lp.csv")
    assert tuple(lp_cols) == harness.LP_COLUMNS
    assert lp_rows[0][lp_cols.index("status")] == "optimal"
    # the same row as an lp_bound run's, for the same seed and window
    lp_run = run_experiment(ExperimentConfig(dataset=str(data),
                                             algorithm="lp_bound",
                                             seeds=(0,)),
                            tmp_path / "lp_run")
    _, run_rows = harness.read_csv(lp_run / "seed_0" / "lp_bound.csv")
    assert lp_rows == [r for r in run_rows if r[0] == "test"]

    assert cli.main(["summarize", str(run_dir),
                     "--out", str(tmp_path / "summary.csv")]) == 0
    assert (tmp_path / "summary.csv").exists()


def test_cli_seed_override(tmp_path):
    data = tmp_path / "ds.txt"
    cli.main(["datagen", "--products", "3", "--seed", "1", "--horizon", "40",
              "--train-len", "25", "--out", str(data)])
    cfg_path = tmp_path / "cfg.yaml"
    save_config(smoke_config(data, seeds=(0, 1, 2), episodes=1), cfg_path)
    run_dir = tmp_path / "run"
    cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir),
              "--seeds", "7"])
    assert (run_dir / "seed_7").exists()
    assert not (run_dir / "seed_0").exists()


def test_cli_lp_bound_scores_under_the_runs_reward(smoke_dataset, tmp_path):
    """``lp-bound --run`` solves with the run's env and reward mod, so it
    reproduces the run's row; without it the defaults give another."""
    cfg = smoke_config(smoke_dataset, algorithm="lp_bound", seeds=(0,),
                       reward_mod=RewardMod(wastage_weight=2.0))
    run = run_experiment(cfg, tmp_path / "run")
    _, run_rows = harness.read_csv(run / "seed_0" / "lp_bound.csv")
    rows = {}
    for name, args in (("run", ["--run", str(run)]),
                       ("default", ["--dataset", str(smoke_dataset)])):
        path = tmp_path / f"{name}.csv"
        assert cli.main(["lp-bound", *args, "--window", "test",
                         "--out", str(path)]) == 0
        rows[name] = harness.read_csv(path)[1]
    assert rows["run"] == [r for r in run_rows if r[0] == "test"]
    assert rows["default"] != rows["run"]
    with pytest.raises(SystemExit):
        cli.main(["lp-bound", "--window", "test"])


def test_config_validation(smoke_dataset):
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", algorithm="sarsa")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", algorithm="dqn", seeds=())
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(dataset="x", algorithm="dqn", seeds=(1, 2, 1))
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lp_time_limit"):
            ExperimentConfig(dataset="x", algorithm="lp_bound",
                             lp_time_limit=bad)
    for good in (None, 0.0, 30):
        ExperimentConfig(dataset="x", algorithm="lp_bound",
                         lp_time_limit=good)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"dataset": "x", "algorithm": "dqn",
                                    "bogus": 1})


def test_config_drops_retired_lp_keys():
    base = {"dataset": "x", "algorithm": "lp_bound"}
    old = ExperimentConfig.from_dict(
        {**base, "lp_engine": "own", "lp_max_iters": 500000})
    assert old == ExperimentConfig.from_dict(base)
    assert "lp_engine" not in old.to_dict()
    assert "lp_max_iters" not in old.to_dict()
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({**base, "lp_engine": "own", "bogus": 1})
