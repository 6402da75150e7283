"""Benchmark of the restock lab: one workload per run, one JSON result line.

    python3 bench/run.py --workload train --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run reports the end-to-end metrics: ``run_s``, the median
wall time of one workload operation; ``setup_s``, the median time to build
the inputs (datasets and the checkpoint the eval workload uses), repeated
in a child process so that neither its time nor its memory leaks into the
workload; and ``peak_rss_mb`` of the workload's own process. With
``--trace 1`` it reports per-layer metrics from spans recorded around a
fixed number of operations (see ``tracer.py``).

Workloads:
  train  run_experiment, dez_dqn_gvf on p=20, 2 seeds: env, forward and
         learner all take a share
  score  no learner: transfer and evaluation of a p=20 policy on p=100, the
         decision CSV round trip and heatmaps, the heuristic run, then
         lp_upper_bound on p=5 x 20 periods, which engine="auto" sends to
         the own simplex, and on p=20 x 100 periods, which it sends to HiGHS

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records machine and input facts. An operation fails when an
output check fails or the call raises; failed operations are counted, and
the run exits non-zero only if none succeeded or the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
TRACE_PAIRS = 2      # untraced/traced operation pairs in a trace run
MIN_TIMED_OPS = 3

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(numpy),
            "workload": workload, "seed": seed}


def blas_threads(numpy) -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_op(wl, k: int, call=None):
    """One operation and its checks; returns (seconds, failure messages).

    ``call`` runs the operation (the tracer passes its own); the checks run
    after the clock stops. Seconds are None when the operation raised.
    """
    try:
        t0 = time.perf_counter()
        out = call(wl.op, k) if call else wl.op(k)
        seconds = time.perf_counter() - t0
        return seconds, wl.check(out)
    except Exception:
        return None, [traceback.format_exc()]


class Ops:
    """Runs a workload's operations in a closed loop and counts failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run(self, call=None):
        seconds, bad = run_op(self.wl, self.attempted, call)
        self.attempted += 1
        self.failed += bool(bad)
        self.failures += bad
        return seconds


def timed_metrics(ops: Ops, seconds: float, setup_times, info) -> dict:
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_TIMED_OPS or time.perf_counter() < deadline:
        dt = ops.run()
        if dt is not None:
            times.append(dt)
        elif len(ops.failures) > 20:
            break
    if not times:
        raise SystemExit("bench: every operation failed: " + ops.failures[-1])
    info["samples"] = {"run_s": len(times), "setup_s": len(setup_times)}
    info["run_s_all"] = times
    info.update({name: statistics.median(values) for name, values in
                 getattr(ops.wl, "call_seconds", {}).items()})
    return {"run_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced_metrics(ops: Ops, tr, info) -> dict:
    import tracer
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        for series, call in ((plain, None),
                             (traced, lambda f, k: tr.run(f, k)[0])):
            dt = ops.run(call)
            if dt is not None:
                series.append(dt)
    metrics = tr.metrics()
    metrics["tracing_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if plain and traced else 0.0)
    spans = tr.span_self_total()
    metrics["trace.span_share"] = spans / tr.wall
    if spans > tr.wall:
        ops.failures.append(f"span self times {spans} exceed wall {tr.wall}")
        ops.failed += 1
    calls = getattr(ops.wl, "call_seconds", {})
    for name in tracer.CALL_TIMES:
        metrics[name] = statistics.median(calls.get(name) or [0.0])
    info["absent_spans"] = tr.absent
    return metrics


def setup_in_child(work: Path, seed: int, sizes):
    """Run ``workloads.setup`` in a child process and wait for it to end.

    The child is a plain ``python3 bench/run.py --setup-child`` process, so
    no pool worker or helper process outlives the call; ``subprocess.run``
    kills and reaps the child on a timeout or an interrupt.
    """
    spec = json.dumps({"work": str(work), "seed": seed, "reps": SETUP_REPS,
                       "sizes": dataclasses.asdict(sizes)})
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-child", spec],
                          capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"bench: setup failed:\n{proc.stderr}")
    times, digests = json.loads(proc.stdout.strip().splitlines()[-1])
    return times, digests


def setup_child(spec: str) -> int:
    import workloads
    args = json.loads(spec)
    sizes = args["sizes"]
    sizes = workloads.Sizes(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in sizes.items()})
    times, digests = workloads.setup(Path(args["work"]), args["seed"], sizes,
                                     args["reps"])
    print(json.dumps([times, digests]))
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result, facts)."""
    import tracer
    import workloads
    sizes = sizes or workloads.FULL
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    info = facts(workload, seed)
    try:
        if trace:
            tr = tracer.Tracer()
            info["datasets"], _ = tr.run(workloads.make_datasets, work, seed,
                                         sizes)
            workloads.make_setup_run(work, sizes)
        else:
            setup_times, info["datasets"] = setup_in_child(work, seed, sizes)
        ops = Ops(workloads.WORKLOADS[workload](work, seed, sizes))
        if trace:
            metrics = traced_metrics(ops, tr, info)
            units = {name: unit for name, unit, _ in tracer.metric_specs()}
        else:
            metrics = timed_metrics(ops, seconds, setup_times, info)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()
    info["ops_failed_frac"] = ops.failed / ops.attempted
    info["failures"] = ops.failures[:5]
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # on SIGTERM unwind like on an exception, so the setup child is killed
    # and reaped and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if argv[:1] == ["--setup-child"] and len(argv) == 2:
        return setup_child(argv[1])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import restock
    except ImportError as exc:
        print(f"bench: cannot import restock from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(restock.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: restock at {restock.__file__} is not the checkout's",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    result, info = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"facts": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
