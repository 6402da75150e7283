"""Command-line entry points for the replenishment lab."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from . import datagen, harness
from .config import ExperimentConfig, RewardMod, load_config


def _add_datagen(sub):
    p = sub.add_parser("datagen", help="generate a synthetic dataset")
    p.add_argument("--products", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--out", required=True)


def _add_lp_bound(sub):
    p = sub.add_parser("lp-bound",
                       help="perfect-information LP bound on a window")
    p.add_argument("--dataset", default=None,
                   help="dataset file (default: the --run's dataset)")
    p.add_argument("--run", default=None,
                   help="run directory whose env and reward mod to score "
                        "with (default: EnvParams() and RewardMod())")
    p.add_argument("--window", choices=("train", "test"), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=None)
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
    for add in (_add_datagen, _add_train, _add_eval, _add_transfer,
                _add_heatmap, _add_finetune, _add_lp_bound, _add_summarize):
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
            seeds = tuple(int(s) for s in args.seeds.split(","))
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "seeds": seeds})
        out = harness.run_experiment(cfg, args.out)
        for row in harness.summarize([out]):
            print(row)
        return 0

    if args.command == "eval":
        metrics, _ = harness.evaluate_checkpoint(args.checkpoint,
                                                 args.dataset, args.seed)
        print(json.dumps({c: getattr(metrics, c)
                          for c in metrics.COLUMNS}, indent=2))
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
        pooled: dict[str, np.ndarray] = {}
        for path in args.decisions:
            decisions = harness.read_decisions(path)
            for k, v in decisions.items():
                pooled[k] = (np.concatenate([pooled[k], v])
                             if k in pooled else v)
        grids = harness.extract_heatmaps(pooled)
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
        cfg = (harness.run_config(args.run) if args.run else
               ExperimentConfig(dataset=args.dataset, algorithm="lp_bound"))
        row = harness.lp_bound_row(
            datagen.load(args.dataset or cfg.dataset), args.window, args.seed,
            harness.reward_params(cfg.env, cfg.reward_mod), args.time_limit)
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
