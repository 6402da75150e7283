"""Outside-in span tracing of the restock layers.

Each span wraps one public function of the program as a module or class
attribute, from the benchmark's own process, and records its calls and
self time (its duration minus the time covered by its child spans). A
function that a later change renames or removes is reported as an absent
span with zero calls instead of failing the run.

``SPANS`` is also the benchmark's layer map: for every span it names the
end-to-end metric the span should move, the workloads that exercise it and
the workloads where it should not move. ``run_s`` on workload ``train`` is
the train run time; on ``score`` it is the time of the eval mix plus one
small and one large ``lp_upper_bound`` call, split per layer into
``eval_s``, ``lp_small_s`` (own simplex) and ``lp_large_s`` (HiGHS).
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class Span:
    name: str
    bindings: tuple[str, ...]      # "module:attr.path" places to wrap
    moves: tuple[str, ...]         # end-to-end metric@workload it should move
    on: tuple[str, ...]            # workloads (or "setup") that exercise it
    steady_on: tuple[str, ...] = ()  # workloads where it should not move
    p99: bool = False              # hot-loop span: report self_us_p99


def _span(name, moves, on, steady_on=(), p99=False, extra=()):
    module, _, attr = name.partition(".")
    binding = f"restock.{module}:{attr}"
    return Span(name, (binding, *extra), tuple(moves), tuple(on),
                tuple(steady_on), p99)


_BOTH = ("train", "score")
_RUN_BOTH = ("run_s@train", "run_s@score")
_TRAIN = (("run_s@train",), ("train",), ("score",))
_SCORE = (("run_s@score",), ("score",), ("train",))
SPANS = (
    # env; the LP replay calls the pure kernel through its own binding
    _span("env.Simulator.step", _RUN_BOTH, _BOTH, p99=True),
    _span("env.Simulator.features", _RUN_BOTH, _BOTH, p99=True),
    _span("env.step", _RUN_BOTH, _BOTH, p99=True,
          extra=("restock.baselines:step",)),
    # nn forward and learner
    _span("nn.head_values", _RUN_BOTH, _BOTH, p99=True),
    _span("nn.backward", *_TRAIN, p99=True),
    _span("nn.AdamState.step", *_TRAIN, p99=True),
    # agents
    _span("agents.select_actions", _RUN_BOTH, _BOTH, p99=True),
    _span("agents.run_episode", _RUN_BOTH, _BOTH),
    # agents replay and learning step
    _span("agents.ReplayBuffer.push_block",
          ("run_s@train", "peak_rss_mb@train"), ("train",), ("score",),
          p99=True),
    _span("agents.ReplayBuffer.sample",
          ("run_s@train", "peak_rss_mb@train"), ("train",), ("score",),
          p99=True),
    _span("agents.td_targets", *_TRAIN, p99=True),
    _span("agents.train_step", *_TRAIN, p99=True),
    # agents checkpoints
    _span("agents.save_agent", *_TRAIN),
    _span("agents.load_agent", *_SCORE),
    # baselines
    _span("baselines.run_heuristic_episode", *_SCORE),
    _span("baselines.build_perfect_info_lp", *_SCORE),
    _span("baselines.lp_upper_bound", *_SCORE),
    # simplex: the own engine serves lp_small_s, HiGHS serves lp_large_s
    _span("simplex.solve_lp", *_SCORE),
    # only the benchmark's check calls it today, outside the traced op; it
    # joins run_s@score once lp_upper_bound certifies its own solutions
    _span("simplex.kkt_residuals", (), ()),
    # datagen
    _span("datagen.generate", ("setup_s",), ("setup",), ("score",)),
    _span("datagen.save", ("setup_s",), ("setup",), ("score",)),
    _span("datagen.load", ("setup_s", *_RUN_BOTH), _BOTH),
    # harness
    _span("harness.run_experiment", _RUN_BOTH, _BOTH),
    _span("harness.evaluate_checkpoint", *_SCORE),
    _span("harness.write_csv", _RUN_BOTH, _BOTH),
    _span("harness.read_csv", *_SCORE),
    _span("harness.extract_heatmaps", *_SCORE),
)

#: wall times of the parts of a score operation, kept by the workload
CALL_TIMES = ("eval_s", "lp_small_s", "lp_large_s")

#: per-layer metrics beyond calls and self time: counters recorded at span
#: boundaries, the trace's own cost and coverage, and the score part times
COUNTERS = {
    "agents.train_step.useful_ratio": ("fraction", "higher"),
    "simplex.solve_lp.iterations": ("count", "lower"),
    "simplex.solve_lp.own_engine_frac": ("fraction", "lower"),
    "datagen.load.bytes": ("bytes", "lower"),
    "harness.write_csv.rows": ("count", "lower"),
    "tracing_overhead_frac": ("fraction", "lower"),
    "trace.span_share": ("fraction", "higher"),
    **{name: ("s", "lower") for name in CALL_TIMES},
}

P99_MIN_CALLS = 1000


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for s in SPANS:
        out += [(f"{s.name}.calls", "count", "lower"),
                (f"{s.name}.self_s", "s", "lower"),
                (f"{s.name}.self_us_p50", "us", "lower")]
        if s.p99:
            out.append((f"{s.name}.self_us_p99", "us", "lower"))
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    return out


def _resolve(binding: str):
    """(owner object, attribute name) of a binding, or None if it is gone."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(inspect.getattr_static(owner, attr, None)):
        return None
    return owner, attr


class _Counting:
    """Pass-through iterator that counts the rows a writer consumes."""

    def __init__(self, rows, tracer):
        self._it = iter(rows)
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self._tracer.counts["harness.write_csv.rows"] += 1
        return row


class Tracer:
    """In-memory span recorder. Spans are only recorded while installed."""

    def __init__(self):
        self.self_times: dict[str, list[float]] = {s.name: [] for s in SPANS}
        self.counts = {"agents.train_step.useful": 0,
                       "simplex.solve_lp.iterations": 0,
                       "simplex.solve_lp.own": 0,
                       "datagen.load.bytes": 0,
                       "harness.write_csv.rows": 0}
        self.absent = [s.name for s in SPANS
                       if not any(_resolve(b) for b in s.bindings)]
        self._stack: list[list[float]] = []   # [start, child time]
        self.wall = 0.0

    def _wrap(self, name: str, fn):
        stack, record = self._stack, self.self_times[name].append
        count = {"agents.train_step": self._count_train_step,
                 "simplex.solve_lp": self._count_solve_lp,
                 "datagen.load": self._count_load}.get(name)
        counting_rows = name == "harness.write_csv"

        def traced(*args, **kwargs):
            if counting_rows and len(args) == 3:
                args = (args[0], args[1], _Counting(args[2], self))
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                record(duration - frame[1])
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_train_step(self, args, result):
        self.counts["agents.train_step.useful"] += result is not None

    def _count_solve_lp(self, args, result):
        self.counts["simplex.solve_lp.iterations"] += getattr(
            result, "iterations", 0)
        self.counts["simplex.solve_lp.own"] += getattr(
            result, "engine", None) == "own"

    def _count_load(self, args, result):
        if args and isinstance(args[0], (str, os.PathLike)):
            self.counts["datagen.load.bytes"] += os.path.getsize(args[0])

    def run(self, fn, *args):
        """Call ``fn`` with every span installed; returns (result, wall s)."""
        saved = []
        root = [0.0, 0.0]
        try:
            for span in SPANS:
                for binding in span.bindings:
                    target = _resolve(binding)
                    if target is not None:
                        owner, attr = target
                        original = inspect.getattr_static(owner, attr)
                        saved.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(span.name, original))
            self._stack.append(root)
            root[0] = time.perf_counter()
            result = fn(*args)
        finally:
            wall = time.perf_counter() - root[0]
            if self._stack:
                self._stack.pop()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        self.wall += wall
        return result, wall

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; absent spans and spans never called read 0."""
        out = {}
        for s in SPANS:
            times = np.asarray(self.self_times[s.name])
            calls = len(times)
            out[f"{s.name}.calls"] = calls
            out[f"{s.name}.self_s"] = float(times.sum())
            out[f"{s.name}.self_us_p50"] = \
                float(np.percentile(times, 50) * 1e6) if calls else 0.0
            if s.p99:
                out[f"{s.name}.self_us_p99"] = \
                    float(np.percentile(times, 99) * 1e6) \
                    if calls >= P99_MIN_CALLS else 0.0
        c = self.counts
        steps = out["agents.train_step.calls"]
        solves = out["simplex.solve_lp.calls"]
        out["agents.train_step.useful_ratio"] = \
            c["agents.train_step.useful"] / steps if steps else 0.0
        out["simplex.solve_lp.iterations"] = c["simplex.solve_lp.iterations"]
        out["simplex.solve_lp.own_engine_frac"] = \
            c["simplex.solve_lp.own"] / solves if solves else 0.0
        out["datagen.load.bytes"] = c["datagen.load.bytes"]
        out["harness.write_csv.rows"] = c["harness.write_csv.rows"]
        return out

    def span_self_total(self) -> float:
        return sum(sum(t) for t in self.self_times.values())
