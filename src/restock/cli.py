"""Command-line entry points for the replenishment lab."""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

import numpy as np

from . import datagen, harness
from .config import ExperimentConfig, RewardMod, load_config


def _number(kind, low, high=math.inf):
    """An argparse type: a finite ``kind`` (int or float) in [low, high],
    so a bad flag value is a usage error before any file is touched."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and low <= value <= high):
            span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(
                f"need a finite {kind.__name__} {span}, got {text}")
        return value
    parse.__name__ = kind.__name__   # argparse names it for a non-number
    return parse


def _add_datagen(sub):
    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--products", type=_number(int, 1), required=True)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--theta", type=float, default=0.9,
                   help="capacity tightness in (0, 1)")
    p.add_argument("--horizon", type=int, default=1396)
    p.add_argument("--train-len", type=int, default=900)
    p.add_argument("--out", required=True)


def _add_train(sub):
    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seeds", default=None,
                   help="comma-separated override of config seeds")


def _add_replay(sub):
    p = sub.add_parser("replay", help="re-run a run from its manifest")
    p.add_argument("--run", required=True, help="run directory to replay")
    p.add_argument("--out", required=True, help="new run directory")


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", default=None, help="optional metrics CSV path")


def _add_transfer(sub):
    p = sub.add_parser("transfer",
                       help="evaluate a run's checkpoints on a foreign dataset")
    p.add_argument("--run", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)


def _add_heatmap(sub):
    p = sub.add_parser("heatmap", help="bin decision logs into heatmap CSVs")
    p.add_argument("--decisions", nargs="+", required=True,
                   help="decision CSVs (pooled, e.g. all seeds of a run)")
    p.add_argument("--out", required=True)


def _add_finetune(sub):
    p = sub.add_parser("finetune",
                       help="fine-tune stored checkpoints under a reward mod")
    p.add_argument("--run", action="append", required=True,
                   help="algorithm=run_dir (repeatable)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--wastage-weight", type=float, default=1.0)
    p.add_argument("--critical-override", type=float, default=None)
    p.add_argument("--episodes", type=_number(int, 1), default=100)
    p.add_argument("--epsilon", type=_number(float, 0, 1), default=0.1)
    p.add_argument("--out", required=True)


def _add_lp_bound(sub):
    p = sub.add_parser("lp-bound",
                       help="perfect-information LP bound on a window")
    p.add_argument("--dataset", default=None,
                   help="dataset file (default: the --run's dataset)")
    p.add_argument("--run", default=None,
                   help="run directory whose reward mod to score with "
                        "(default: RewardMod())")
    p.add_argument("--window", choices=("train", "test"), default="test")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--time-limit", type=_number(float, 0), default=None)
    p.add_argument("--out", default=None)


def _add_summarize(sub):
    p = sub.add_parser("summarize", help="aggregate run directories")
    p.add_argument("runs", nargs="+")
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restock",
        description="inventory replenishment RL lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_datagen, _add_train, _add_replay, _add_eval,
                _add_transfer, _add_heatmap, _add_finetune, _add_lp_bound,
                _add_summarize):
        add(sub)
    return parser


def main(argv=None) -> int:
    # on SIGTERM unwind like on an exception, so a run's seed workers are
    # terminated and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "datagen":
        spec = datagen.DatasetSpec(products=args.products, seed=args.seed,
                                   theta=args.theta, horizon=args.horizon,
                                   train_len=args.train_len)
        ds = datagen.generate(spec)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        datagen.save(ds, args.out)
        print(f"wrote {args.out}: {spec.products} products, "
              f"{spec.horizon} periods")
        return 0

    if args.command == "train":
        cfg = load_config(args.config)
        if args.seeds is not None:
            try:   # an item that is no integer, or a refused seed
                seeds = [int(s) for s in args.seeds.split(",")]
                cfg = ExperimentConfig.from_dict({**cfg.to_dict(),
                                                  "seeds": seeds})
            except ValueError as exc:
                parser.error(f"--seeds {args.seeds!r}: {exc}")
        out = harness.run_experiment(cfg, args.out)
        for row in harness.summarize([out]):
            print(row)
        return 0

    if args.command == "replay":
        out = harness.replay_manifest(args.run, args.out)
        print(f"replayed {args.run} into {out}")
        return 0

    if args.command == "eval":
        metrics, _ = harness.evaluate_checkpoint(args.checkpoint,
                                                 args.dataset, args.seed)
        print(json.dumps(dict(zip(metrics.COLUMNS, metrics.as_row())), indent=2))
        if args.out:
            harness.write_csv(args.out, metrics.COLUMNS, [metrics.as_row()])
        return 0

    if args.command == "transfer":
        rows = harness.transfer_rows(args.run, args.dataset)
        harness.write_csv(args.out, harness.TRANSFER_COLUMNS, rows)
        for row in rows:
            print(row)
        return 0

    if args.command == "heatmap":
        logs = [harness.read_decisions(path) for path in args.decisions]
        grids = harness.extract_heatmaps(
            {k: np.concatenate([log[k] for log in logs]) for k in logs[0]})
        harness.write_csv(args.out, harness.HEATMAP_COLUMNS,
                          harness.heatmap_rows(grids))
        print(f"wrote {args.out}: "
              + ", ".join(f"{k}={g.populated()} cells"
                          for k, g in grids.items()))
        return 0

    if args.command == "finetune":
        run_dirs = {}
        for item in args.run:
            algorithm, _, run_dir = item.partition("=")
            if not run_dir:
                raise SystemExit("--run expects algorithm=run_dir")
            if algorithm in run_dirs:
                parser.error(f"--run names {algorithm} twice; give one run "
                             "directory per algorithm")
            run_dirs[algorithm] = run_dir
        mod = RewardMod(wastage_weight=args.wastage_weight,
                        critical_override=args.critical_override)
        out = harness.run_finetune_suite(run_dirs, args.dataset, mod,
                                         args.out, episodes=args.episodes,
                                         epsilon=args.epsilon)
        print(f"wrote {out}")
        return 0

    if args.command == "lp-bound":
        if args.run is None and args.dataset is None:
            parser.error("lp-bound needs --dataset or --run")
        cfg = harness.read_manifest(args.run)[0] if args.run else None
        row = harness.lp_bound_row(
            datagen.load(args.dataset or cfg.dataset), args.window, args.seed,
            cfg.reward_mod if cfg else RewardMod(), args.time_limit)
        print(json.dumps(dict(zip(harness.LP_COLUMNS, row)), indent=2))
        if args.out:
            harness.write_csv(args.out, harness.LP_COLUMNS, [row])
        return 0

    if args.command == "summarize":
        rows = harness.summarize(args.runs, out_path=args.out)
        for row in rows:
            print(row)
        return 0

    raise SystemExit(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
