import csv
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
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
                             read_manifest, replay_manifest, run_experiment,
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
    assert manifest["config_hash"] == config_hash(
        ExperimentConfig.from_dict(manifest["config"]))


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


@pytest.mark.parametrize("key, value", [
    ("format", 1), ("format", 3), ("format", None), ("dataset_sha256", None)],
    ids=["format_1", "format_3", "no_format", "no_pin"])
def test_a_manifest_of_another_format_or_without_a_pin_is_refused(
        smoke_run, smoke_dataset, tmp_path, monkeypatch, key, value):
    """A manifest of another format than the one a run writes, or without
    its dataset's sha256, is refused by replay and transfer with an error
    that names the file and what it holds. Its dataset path is not opened,
    not even one that the current directory would resolve."""
    _, run = smoke_run
    shutil.copy(smoke_dataset, tmp_path / "d.txt")
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    copy = tmp_path / "runs" / "run"
    shutil.copytree(run, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["config"]["dataset"] = "../d.txt"   # from the current directory
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    (copy / "manifest.json").write_text(json.dumps(manifest))
    for call in (lambda: replay_manifest(copy, tmp_path / "replay"),
                 lambda: transfer_rows(copy, smoke_dataset)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(copy / "manifest.json") in str(err.value)
        assert f" {manifest.get('format')} and " in str(err.value)
        assert f" and {manifest.get('dataset_sha256')}" in str(err.value)
    assert not (tmp_path / "replay").exists()


def test_cli_replay_reproduces_a_run_and_refuses_a_changed_dataset(
        smoke_dataset, tmp_path):
    data = tmp_path / "ds.txt"
    data.write_bytes(smoke_dataset.read_bytes())
    run = run_experiment(smoke_config(data, seeds=(0,), episodes=2),
                         tmp_path / "run")
    assert cli.main(["replay", "--run", str(run),
                     "--out", str(tmp_path / "replay")]) == 0
    names = sorted(p.name for p in (run / "seed_0").glob("*.csv"))
    assert names == ["decisions.csv", "eval_metrics.csv", "train_metrics.csv"]
    for name in names:
        assert (tmp_path / "replay" / "seed_0" / name).read_bytes() == \
            (run / "seed_0" / name).read_bytes(), name

    # edit one demand value: the last line of the file is a demand row
    lines = data.read_text().splitlines()
    values = lines[-1].split()
    values[0] = "0.5" if values[0] != "0.5" else "0.25"
    data.write_text("\n".join(lines[:-1] + [" ".join(values)]) + "\n")
    with pytest.raises(ValueError, match="sha256"):
        cli.main(["replay", "--run", str(run),
                  "--out", str(tmp_path / "replay2")])
    assert not (tmp_path / "replay2").exists()


def test_replay_opens_the_dataset_from_any_directory(smoke_dataset, tmp_path,
                                                    monkeypatch):
    """A run given a dataset path relative to the current directory
    records it relative to the run directory, so a replay started from
    another directory reads the same file and writes the same bytes."""
    (tmp_path / "data").mkdir()
    shutil.copy(smoke_dataset, tmp_path / "data" / "ds.txt")
    monkeypatch.chdir(tmp_path)
    run = run_experiment(smoke_config("data/ds.txt", seeds=(0,), episodes=2),
                         "run")
    assert os.path.samefile(read_manifest(run)[0].dataset, "data/ds.txt")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli.main(["replay", "--run", str(tmp_path / "run"),
                     "--out", "replay"]) == 0
    names = sorted(p.name for p in (tmp_path / "run" / "seed_0").iterdir())
    assert names == ["checkpoint.npz", "decisions.csv", "eval_metrics.csv",
                     "train_metrics.csv"]
    for name in names:
        assert (tmp_path / "elsewhere" / "replay" / "seed_0" / name
                ).read_bytes() == (tmp_path / "run" / "seed_0" / name
                                   ).read_bytes(), name


def test_a_moved_study_replays_byte_identically(smoke_dataset, tmp_path,
                                                monkeypatch):
    """A study moved as a whole, dataset and runs, replays from another
    directory into the same per-seed bytes: the manifest stores the
    dataset path relative to the run directory."""
    study = tmp_path / "study"
    (study / "data").mkdir(parents=True)
    shutil.copy(smoke_dataset, study / "data" / "ds.txt")
    monkeypatch.chdir(study)
    run_experiment(smoke_config("data/ds.txt", episodes=2), "runs/dez")
    manifest = json.loads((study / "runs" / "dez" / "manifest.json")
                          .read_text())
    assert manifest["format"] == 2
    assert manifest["config"]["dataset"] == os.path.join("..", "..", "data",
                                                         "ds.txt")
    moved = shutil.move(study, tmp_path / "moved")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli.main(["replay", "--run", str(Path(moved) / "runs" / "dez"),
                     "--out", "replay"]) == 0
    run = Path(moved) / "runs" / "dez"
    for seed in (0, 1):
        names = sorted(p.name for p in (run / f"seed_{seed}").iterdir())
        assert names == ["checkpoint.npz", "decisions.csv",
                         "eval_metrics.csv", "train_metrics.csv"]
        for name in names:
            assert (Path("replay") / f"seed_{seed}" / name).read_bytes() == \
                (run / f"seed_{seed}" / name).read_bytes(), (seed, name)


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
    assert "mean_true_reward" not in cols   # a solver tie-break, not a bound
    assert [r[cols.index("window")] for r in rows] == ["train", "test"]
    for r in rows:
        assert r[cols.index("status")] == "optimal"
        assert r[cols.index("solver_status")] == "optimal"
        assert float(r[cols.index("mean_surrogate")]) <= 1.0
        assert 0.0 <= float(r[cols.index("kkt_residual")]) < 1e-7


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
    # an agent's seed splits its wall time into layers
    layers = ({"act_s", "env_s", "learn_s", "eval_s", "write_s"}
              if algorithm == "dez_dqn_gvf" else set())
    for out, workers in ((serial, 1), (pooled, 2)):
        timings = json.loads((out / "timings.json").read_text())
        assert timings["workers"] == workers
        assert timings["wall_s"] > 0
        assert {f"seed_{s}" for s in cfg.seeds} < set(timings)
        for seed in cfg.seeds:
            seconds = timings[f"seed_{seed}"]
            assert set(seconds) == {"wall_s", *layers}
            assert min(seconds.values()) > 0
            assert sum(seconds[k] for k in layers) < seconds["wall_s"]
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
        return run_seed(cfg, ds, seed, seed_dir)

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
    """The reference writer: every value formatted alone by
    ``datagen.format_value``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([datagen.format_value(v) for v in row])


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


def test_a_p100_decision_log_matches_the_row_wise_writer(smoke_run,
                                                         tmp_path):
    """A 496-period decision log of the smoke checkpoint on a p=100 dataset,
    the shape a ``score`` op writes, has the reference writer's bytes; it
    holds values in (0, 1e-4), which orjson writes in plain form and
    ``repr`` with an exponent."""
    _, out = smoke_run
    ds = datagen.generate(datagen.DatasetSpec(products=100, seed=0))
    _, log = harness.evaluate_checkpoint(out / "seed_0" / "checkpoint.npz",
                                         ds, seed=0, collect_decisions=True)
    arrays = log.arrays()
    assert len(arrays["period"]) == 100 * 496
    small = sum(int(np.count_nonzero((0 < abs(v)) & (abs(v) < 1e-4)))
                for v in arrays.values())
    assert small > 0

    def rows():
        return zip(*(arrays[c] for c in harness.DECISION_COLUMNS))
    row_wise_write_csv(tmp_path / "oracle.csv", harness.DECISION_COLUMNS,
                       rows())
    harness.write_csv(tmp_path / "decisions.csv", harness.DECISION_COLUMNS,
                      rows())
    assert (tmp_path / "decisions.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


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


@pytest.mark.parametrize("column, text", [
    ([2**70, -2**80, 3], ["1180591620717411303424",
                          "-1208925819614629174706176", "3"]),
    ([True, np.bool_(False), True], ["True", "False", "True"]),
    ([np.float32(0.1), np.float32(1e-5), np.float32(3e38)],
     ["0.10000000149011612", "9.999999747378752e-06", "3.0000000054977558e+38"]),
    ([np.float16(1 / 3), np.float16(1e-5)],
     ["0.333251953125", "1.0013580322265625e-05"]),
    (["a,b", 0.5, np.float64(1e-5), 2**70],
     ['"a,b"', "0.5", "1e-05", "1180591620717411303424"]),
], ids=["int_beyond_int64", "bool", "float32", "float16", "mixed_str_float"])
def test_write_csv_keeps_the_bytes_of_ints_bools_and_mixed_columns(
        tmp_path, column, text):
    """A column of Python ints beyond int64 keeps every digit, a bool column
    its names, a float32/float16 column the ``repr`` of each value's float64
    and a column that mixes strings and numbers ``csv``'s quoting, alone and
    beside a float column."""
    harness.write_csv(tmp_path / "alone.csv", ["c"], [[v] for v in column])
    assert (tmp_path / "alone.csv").read_bytes() == \
        "".join(f"{t}\r\n" for t in ["c", *text]).encode()
    rows = [[v, k / 3] for k, v in enumerate(column)]
    harness.write_csv(tmp_path / "pair.csv", ["c", "f"], rows)
    row_wise_write_csv(tmp_path / "oracle.csv", ["c", "f"], rows)
    assert (tmp_path / "pair.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("bad", [1, 1024, 1500])
def test_write_csv_refuses_ragged_rows(tmp_path, bad):
    """A ragged row raises and leaves no file behind: neither a truncated
    CSV nor a temporary file, and a CSV already at the path is unchanged."""
    rows = [[k, k / 2, "x"] for k in range(2000)]
    rows[bad] = rows[bad][:2]
    with pytest.raises(ValueError, match=f"row {bad} has 2 values"):
        harness.write_csv(tmp_path / "short.csv", ("a", "b", "c"), rows)
    assert list(tmp_path.iterdir()) == []
    rows[bad] = [1, 2.0, "x", "extra"]
    kept = tmp_path / "long.csv"
    kept.write_bytes(b"a,b,c\n1,2.0,x\n")
    with pytest.raises(ValueError, match=f"row {bad} has 4 values"):
        harness.write_csv(kept, ("a", "b", "c"), rows)
    assert kept.read_bytes() == b"a,b,c\n1,2.0,x\n"
    assert list(tmp_path.iterdir()) == [kept]
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


def test_read_decisions_refuses_a_file_that_is_not_a_decision_log(
        smoke_run, tmp_path):
    """A run's ``eval_metrics.csv`` is refused by its header, with the path
    and the header found, before its body is parsed; so is ``heatmap`` on
    it."""
    _, out = smoke_run
    metrics = out / "seed_0" / "eval_metrics.csv"
    with pytest.raises(ValueError, match="not a decision log") as err:
        read_decisions(metrics)
    assert str(metrics) in str(err.value)
    assert "'window_start', 'window_len'" in str(err.value)
    with pytest.raises(ValueError, match="not a decision log"):
        cli.main(["heatmap", "--decisions", str(metrics),
                  "--out", str(tmp_path / "heat.csv")])
    assert not (tmp_path / "heat.csv").exists()


# ------------------------------------------------------------- transfer

def test_transfer_self_matches_eval_row(smoke_run, smoke_dataset):
    cfg, out = smoke_run
    cols, rows = harness.read_csv(out / "seed_0" / "eval_metrics.csv")
    recorded = float(rows[0][cols.index("mean_business_reward")])
    metrics, _ = harness.evaluate_checkpoint(
        out / "seed_0" / "checkpoint.npz", smoke_dataset, seed=0)
    assert metrics.mean_business_reward == recorded


def test_self_transfer_uses_the_checkpoint_env(smoke_dataset, tmp_path):
    """A checkpoint is scored under the env and reward mod it was trained
    with, so it reproduces its own eval row."""
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


def strip_checkpoint(ckpt, *keys) -> None:
    params, _, meta = nn.load_checkpoint(ckpt)
    nn.save_checkpoint(ckpt, params,
                       {k: v for k, v in meta.items() if k not in keys})


def test_run_with_checkpoint_without_env_is_refused(smoke_dataset, tmp_path):
    """A checkpoint whose metadata stores no env or reward mod is refused
    by transfer and fine-tune, although the run's manifest holds both:
    the checkpoint alone must say how it was produced."""
    cfg = smoke_config(smoke_dataset, seeds=(0,), episodes=2,
                       env=EnvParams(forecast_window=4, alpha=3.0))
    out = run_experiment(cfg, tmp_path / "run")
    strip_checkpoint(out / "seed_0" / "checkpoint.npz", "env", "reward_mod")
    with pytest.raises(ValueError, match="'env', 'reward_mod'"):
        transfer_rows(out, smoke_dataset)
    with pytest.raises(ValueError, match="'env', 'reward_mod'"):
        harness.run_finetune_suite(
            {cfg.algorithm: out}, smoke_dataset, RewardMod(),
            tmp_path / "finetune.csv", episodes=1)
    assert not (tmp_path / "finetune.csv").exists()


def test_evaluate_checkpoint_without_stored_env_is_refused(
        smoke_dataset, tmp_path):
    """A checkpoint whose metadata lacks its env or its reward mod is
    refused; the error names the missing key."""
    cfg = smoke_config(smoke_dataset, seeds=(0,), episodes=2,
                       env=EnvParams(forecast_window=4, alpha=3.0))
    out = run_experiment(cfg, tmp_path / "run")
    ckpt = out / "seed_0" / "checkpoint.npz"
    strip_checkpoint(ckpt, "reward_mod")
    with pytest.raises(ValueError, match=r"\['reward_mod'\]"):
        harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0)
    strip_checkpoint(ckpt, "env")
    with pytest.raises(ValueError, match=r"\['env', 'reward_mod'\]"):
        harness.evaluate_checkpoint(ckpt, smoke_dataset, seed=0)


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


def test_transfer_csv_does_not_depend_on_where_the_files_are(
        smoke_run, smoke_dataset, tmp_path):
    """One run and its datasets copied to two directories give the same
    ``transfer.csv`` bytes from the CLI: both datasets go by their sha256,
    the run's own as its manifest pins it."""
    _, run = smoke_run
    written = []
    for home in (tmp_path / "a", tmp_path / "b"):
        shutil.copytree(run, home / "run")
        shutil.copy(smoke_dataset, home / "data.txt")
        out = home / "transfer.csv"
        assert cli.main(["transfer", "--run", str(home / "run"), "--dataset",
                         str(home / "data.txt"), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    digest = json.loads((run / "manifest.json").read_text())["dataset_sha256"]
    assert written[0] == written[1]
    cols, csv_rows = harness.read_csv(tmp_path / "a" / "transfer.csv")
    assert tuple(cols) == harness.TRANSFER_COLUMNS
    assert cols.index("mean_business_reward") == 4
    assert [r[1:3] for r in csv_rows] == [[digest, digest]] * len(csv_rows)


def test_transfer_rows_on_foreign_dataset(smoke_run, tmp_path):
    cfg, out = smoke_run
    foreign = tmp_path / "foreign.txt"
    datagen.save(datagen.generate(datagen.DatasetSpec(
        products=8, horizon=60, train_len=40, seed=99)), foreign)
    rows = transfer_rows(out, foreign)
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
        episodes=4, epsilon=0.1)
    cols, rows = harness.read_csv(path)
    assert len(rows) == 4 * len(cfg.seeds)
    episodes = [int(r[cols.index("episode")]) for r in rows]
    assert episodes[:4] == [0, 1, 2, 3]


@pytest.mark.parametrize("bad", [{"episodes": 0}, {"episodes": -3},
                                 {"episodes": 2.5}, {"epsilon": 2.0},
                                 {"epsilon": -0.1}, {"epsilon": float("nan")}])
def test_finetune_suite_refuses_bad_episodes_and_epsilon(tmp_path, bad):
    """Fewer than one episode, or an epsilon outside [0, 1], is refused
    before a run or the dataset is read (neither path exists), and no
    output is written."""
    settings = {"episodes": 1, "epsilon": 0.1, **bad}
    out = tmp_path / "ft.csv"
    with pytest.raises(ValueError, match="episodes >= 1 and an epsilon") as err:
        harness.run_finetune_suite({"dqn": tmp_path / "no_run"},
                                   tmp_path / "no_data.txt", RewardMod(), out,
                                   **settings)
    assert str(err.value).endswith(f"got {settings['episodes']!r} and "
                                   f"{settings['epsilon']!r}")
    assert not out.exists()


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
    col = harness.SUMMARY_COLUMNS.index
    test_row = [r for r in summary if r[col("split")] == "test"][0]
    assert test_row[col("mean")] == pytest.approx(3.0)
    sd = np.std([1, 2, 3, 4, 5], ddof=1)
    expect = 2.7764451051977987 * sd / np.sqrt(5)
    assert test_row[col("ci95_halfwidth")] == pytest.approx(expect, rel=1e-9)


def test_summarize_names_each_row_by_its_run(smoke_dataset, tmp_path):
    """Two runs of one algorithm under different env settings give rows
    that the run column tells apart; the other naming columns do not."""
    runs = [run_experiment(smoke_config(smoke_dataset, algorithm="heuristic",
                                        env=EnvParams(forecast_window=w)),
                           tmp_path / f"heuristic_w{w}")
            for w in (4, 8)]
    summary = summarize(runs, out_path=tmp_path / "summary.csv")
    columns, _ = harness.read_csv(tmp_path / "summary.csv")
    assert tuple(columns) == harness.SUMMARY_COLUMNS
    col = harness.SUMMARY_COLUMNS.index
    assert [r[col("run")] for r in summary] == [str(runs[0])] * 2 + \
        [str(runs[1])] * 2
    names = [(r[col("dataset")], r[col("algorithm")], r[col("split")])
             for r in summary]
    assert len(set(names)) == 2 and len(summary) == 4


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


def test_cli_finetune_refuses_an_algorithm_named_twice(smoke_run,
                                                      smoke_dataset, tmp_path,
                                                      capsys):
    """Two ``--run`` of one algorithm would keep only the last run: the
    command refuses them, naming the algorithm, and writes nothing."""
    _, run_dir = smoke_run
    out = tmp_path / "ft.csv"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["finetune", "--run", f"dez_dqn_gvf={run_dir}",
                  "--run", f"dez_dqn_gvf={tmp_path}", "--dataset",
                  str(smoke_dataset), "--episodes", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "--run names dez_dqn_gvf twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--seed", "-1"), ("lp-bound", "--seed", "-1"),
    ("lp-bound", "--time-limit", "-1"), ("lp-bound", "--time-limit", "inf"),
    ("datagen", "--seed", "-1"), ("datagen", "--products", "0"),
    ("finetune", "--episodes", "0"), ("finetune", "--episodes", "-3"),
    ("finetune", "--epsilon", "2"), ("finetune", "--epsilon", "nan")])
def test_cli_refuses_a_number_out_of_range(smoke_run, smoke_dataset,
                                           tmp_path, capsys, command, flag,
                                           value):
    """A seed, count, time limit or epsilon out of its range is a usage
    error that names the flag and the value, raised while the arguments
    are parsed: before any input is read or the ``--out`` file written."""
    _, run_dir = smoke_run
    args = {"eval": ["--checkpoint", str(run_dir / "seed_0" /
                                         "checkpoint.npz"),
                     "--dataset", str(smoke_dataset)],
            "lp-bound": ["--dataset", str(smoke_dataset)],
            "datagen": ["--products", "3"],
            "finetune": [f"--run=dez_dqn_gvf={run_dir}",
                         "--dataset", str(smoke_dataset)]}[command]
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, *args, flag, value, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and f"got {value}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("seeds, item", [
    ("1,a", "'a'"), ("", "''"), ("1,,2", "''"), ("-1", "seeds >= 0"),
], ids=["letter", "empty", "empty_item", "negative"])
def test_cli_train_refuses_bad_seeds(smoke_dataset, tmp_path, capsys,
                                     seeds, item):
    """A ``--seeds`` item that is no integer, or a negative seed, is a usage
    error that names it, before any run directory is made."""
    cfg_path = tmp_path / "cfg.yaml"
    save_config(smoke_config(smoke_dataset), cfg_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--config", str(cfg_path), "--seeds", seeds,
                  "--out", str(tmp_path / "run")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and item in err
    assert not (tmp_path / "run").exists()


def test_negative_seeds_are_refused_before_a_run_directory(smoke_dataset,
                                                          tmp_path):
    """``np.random.SeedSequence`` takes no negative seed: the config refuses
    one, so ``run_experiment`` never writes the manifest or a seed
    directory."""
    with pytest.raises(ValueError, match="seeds >= 0"):
        run_experiment(smoke_config(smoke_dataset, seeds=(0, -1)),
                       tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_cli_out_creates_missing_directories(smoke_run, smoke_dataset,
                                            tmp_path):
    """Every command that writes a CSV creates the ``--out`` file's missing
    parent directories."""
    _, run_dir = smoke_run
    seed_dir = run_dir / "seed_0"
    commands = {
        "eval": ["--checkpoint", str(seed_dir / "checkpoint.npz"),
                 "--dataset", str(smoke_dataset)],
        "transfer": ["--run", str(run_dir), "--dataset", str(smoke_dataset)],
        "heatmap": ["--decisions", str(seed_dir / "decisions.csv")],
        "summarize": [str(run_dir)],
        "lp-bound": ["--dataset", str(smoke_dataset)],
        "finetune": [f"--run=dez_dqn_gvf={run_dir}", "--dataset",
                     str(smoke_dataset), "--episodes", "1"],
    }
    for command, args in commands.items():
        out = tmp_path / "no" / command / "x.csv"
        assert cli.main([command, *args, "--out", str(out)]) == 0
        columns, rows = harness.read_csv(out)
        assert columns and rows, command


def test_importing_the_cli_loads_no_lp_or_statistics_stack():
    """The LP stack and ``scipy.special`` are imported where they are
    used, so a process that only trains never loads scipy at all."""
    import subprocess
    import sys
    code = ("import sys, restock.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def run_python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports
    ``restock`` from this checkout."""
    import subprocess
    import sys
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_every_module_loads_no_scipy_or_yaml(tmp_path):
    """At top level each module imports only numpy, the stdlib and other
    ``restock`` modules; scipy, yaml and orjson load inside the functions
    that use them, orjson at the first all-number block a CSV writes and
    not for a text-only one."""
    code = ("import sys\n"
            "from restock import (agents, baselines, cli, config, datagen, "
            "env, harness, nn, simplex)\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'yaml', 'orjson'))\n"
            "print(loaded())\n"
            f"harness.write_csv({str(tmp_path / 'text.csv')!r}, ['s'], "
            "[['a'], ['b']])\n"
            "print(loaded())\n"
            f"harness.write_csv({str(tmp_path / 'numbers.csv')!r}, ['x'], "
            "[[0.5]])\n"
            "print(loaded())\n")
    at_import, after_text, after_numbers = run_python(code).splitlines()
    assert at_import == after_text == "[]"
    assert "'orjson'" in after_numbers and "scipy" not in after_numbers


def test_training_and_scoring_load_scipy_only_for_an_lp(smoke_dataset,
                                                        tmp_path):
    """A forked training run, its evaluation, a transfer and a heuristic
    rollout leave scipy unloaded in the process that ran them, though it
    imports ``simplex``; the first LP solve loads it and the bound still
    carries its certificate."""
    code = f"""
import sys
from pathlib import Path
import numpy as np
from restock import baselines, datagen, harness, simplex
from restock.config import AgentParams, EnvParams, ExperimentConfig
from restock.env import Simulator

def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

data, out = {str(smoke_dataset)!r}, Path({str(tmp_path / "run")!r})
cfg = ExperimentConfig(
    dataset=data, algorithm="dez_dqn_gvf", seeds=(0, 1), episodes=1,
    agent=AgentParams(hidden_dims=(8,), buffer_capacity=500, batch_size=8,
                      train_every=4, target_sync=50),
    env=EnvParams(forecast_window=4))
harness._usable_cpus = lambda: 2
harness.run_experiment(cfg, out)
ds = datagen.load(data)
harness.evaluate_checkpoint(out / "seed_0" / "checkpoint.npz", ds, 0)
harness.transfer_rows(out, data)
start, length = ds.test_window
x0 = np.full(ds.spec.products, 0.5)
baselines.run_heuristic_episode(Simulator(ds.catalog, ds.demand), start,
                                length, x0)
print(scipy_modules())
res = baselines.lp_upper_bound(ds.catalog, x0,
                               ds.demand[start:start + 10])
print(res.status, res.kkt_residual < 1e-7, "scipy.optimize" in sys.modules)
"""
    lines = run_python(code).strip().splitlines()
    assert lines[-2:] == ["[]", "optimal True True"]
    timings = json.loads((tmp_path / "run" / "timings.json").read_text())
    assert timings["workers"] == 2


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
    reproduces the run's row; without it the defaults give another. Both
    a wastage weight and a critical override move the bound."""
    for k, mod in enumerate((RewardMod(wastage_weight=2.0),
                             RewardMod(critical_override=0.5))):
        cfg = smoke_config(smoke_dataset, algorithm="lp_bound", seeds=(0,),
                           reward_mod=mod)
        run = run_experiment(cfg, tmp_path / f"run{k}")
        _, run_rows = harness.read_csv(run / "seed_0" / "lp_bound.csv")
        rows = {}
        for name, args in (("run", ["--run", str(run)]),
                           ("default", ["--dataset", str(smoke_dataset)])):
            path = tmp_path / f"{name}{k}.csv"
            assert cli.main(["lp-bound", *args, "--window", "test",
                             "--out", str(path)]) == 0
            rows[name] = harness.read_csv(path)[1]
        assert rows["run"] == [r for r in run_rows if r[0] == "test"]
        bound = harness.LP_COLUMNS.index("mean_surrogate")
        assert rows["default"][0][bound] != rows["run"][0][bound]
    with pytest.raises(SystemExit):
        cli.main(["lp-bound", "--window", "test"])


@pytest.mark.parametrize("mod", [RewardMod(), RewardMod(critical_override=0.5),
                                 RewardMod(wastage_weight=2.0)],
                         ids=["default", "kappa0.5", "waste2"])
def test_lp_bound_tops_the_eval_rewards_of_a_study(smoke_dataset, tmp_path,
                                                   mod):
    """Per seed, the test-window bound of an ``lp_bound`` run is at least
    the eval reward of a ``heuristic`` and a ``dqn`` run under the same
    reward mod: all three start the window from the same inventories."""
    seeds = (0, 1)
    rewards = {}
    for algorithm in ("lp_bound", "heuristic", "dqn"):
        cfg = smoke_config(smoke_dataset, algorithm=algorithm, seeds=seeds,
                           reward_mod=mod, collect_decisions=False)
        run = run_experiment(cfg, tmp_path / algorithm)
        for seed in seeds:
            if algorithm == "lp_bound":
                cols, rows = harness.read_csv(run / f"seed_{seed}" /
                                              "lp_bound.csv")
                value = float(rows[1][cols.index("mean_surrogate")])
                assert rows[1][cols.index("window")] == "test"
            else:
                cols, rows = harness.read_csv(run / f"seed_{seed}" /
                                              "eval_metrics.csv")
                value = float(rows[0][cols.index("mean_business_reward")])
            rewards[algorithm, seed] = value
    for seed in seeds:
        assert rewards["lp_bound", seed] >= rewards["heuristic", seed]
        assert rewards["lp_bound", seed] >= rewards["dqn", seed]


def test_config_validation(smoke_dataset, tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", algorithm="sarsa")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="x", algorithm="dqn", seeds=())
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(dataset="x", algorithm="dqn", seeds=(1, 2, 1))
    # int() would have truncated these to (1, 2), (1,) and 2 in silence
    for bad in ({"seeds": (1.5, 2.9)}, {"seeds": [1.5]}, {"episodes": 2.5},
                {"seeds": (True, 2)}, {"episodes": True},
                {"episodes": 0}, {"heuristic_target": float("nan")},
                {"heuristic_target": -0.1}, {"heuristic_target": 1.5},
                {"heuristic_target": float("inf")}, {"seeds": (-1,)},
                {"heuristic_target": 2.0}):
        # the message names the field and its value, not the whole config
        with pytest.raises(ValueError, match=next(iter(bad))) as err:
            ExperimentConfig.from_dict({"dataset": "x", "algorithm": "dqn",
                                        **bad})
        assert "ExperimentConfig(" not in str(err.value)
        assert len(str(err.value)) < 60, str(err.value)
    path = tmp_path / "seeds.yaml"
    path.write_text("dataset: x\nalgorithm: dqn\nseeds: [1.5]\n")
    with pytest.raises(ValueError, match="seeds"):
        load_config(path)
    for good in (0, 0.5, 1):
        ExperimentConfig(dataset="x", algorithm="heuristic",
                         heuristic_target=good)
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
    # out of [0, 1] the anneal would be skipped in silence
    for bad in (float("nan"), -1.0, 1.5):
        with pytest.raises(ValueError, match="anneal_frac"):
            AgentParams(anneal_frac=bad)
    for good in (0.0, 1.0):
        AgentParams(anneal_frac=good)
    # train_every 2.5 would train at periods 0, 5 and 10 of every 12 (k % 2.5)
    # and batch_size 64.5 would sample 65-row batches, in silence
    for bad in ({"train_every": 2.5}, {"batch_size": 64.5},
                {"buffer_capacity": 1000.5}, {"target_sync": 500.0},
                {"train_every": True}, {"hidden_dims": [64.5, 64]},
                {"hidden_dims": (64, True)}, {"hidden_dims": (64, 0)}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig.from_dict({"dataset": "x", "algorithm": "dqn",
                                        "agent": bad})


@pytest.mark.parametrize("section, bad", [
    ("env", {"forecast_window": 0}), ("env", {"forecast_window": -3}),
    ("env", {"forecast_window": 2.5}), ("env", {"forecast_window": "8"}),
    ("env", {"alpha": -2.0}), ("env", {"alpha": float("nan")}),
    ("env", {"alpha": float("inf")}),
    ("reward_mod", {"wastage_weight": float("nan")}),
    ("reward_mod", {"wastage_weight": -0.5}),
    ("reward_mod", {"wastage_weight": float("inf")}),
    ("reward_mod", {"critical_override": 1.5}),
    ("reward_mod", {"critical_override": 0.0}),
    ("reward_mod", {"critical_override": 1.0}),
    ("reward_mod", {"critical_override": float("nan")}),
    ("env", {"forecast_window": True}), ("env", {"forecast_window": 8.0})])
def test_config_refuses_bad_env_and_reward_mod(section, bad):
    """Bad env and reward-mod values fail when the config is read, before
    a run writes anything."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentConfig.from_dict({"dataset": "x", "algorithm": "dqn",
                                    section: bad})


def test_config_accepts_env_and_reward_mod_bounds():
    EnvParams(alpha=0.0, forecast_window=1)
    RewardMod(wastage_weight=0.0, critical_override=None)
    RewardMod(critical_override=0.999)


@pytest.mark.parametrize("key", ["lp_engine", "lp_max_iters"])
def test_config_refuses_the_retired_lp_keys(tmp_path, key):
    """The keys that chose or sized a second LP engine are unknown keys. A
    config file or a manifest that names one is refused with its path."""
    config = {"dataset": "x", "algorithm": "lp_bound", key: 500_000}
    refused = f"unknown config keys: .*{key}"
    with pytest.raises(ValueError, match=refused):
        ExperimentConfig.from_dict(config)
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(config))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"format": 2, "dataset_sha256": "0" * 64, "config": config}))
    for path, call in ((tmp_path / "cfg.yaml", load_config),
                       (tmp_path / "manifest.json",
                        lambda path: read_manifest(path.parent))):
        with pytest.raises(ValueError, match=refused) as err:
            call(path)
        assert str(err.value).startswith(f"{path}: ")
