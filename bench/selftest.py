"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json and the code agree on every metric, that every
workload emits every named metric with its unit in both modes, that
corrupted outputs (a perturbed LP objective, a truncated decision CSV, an
altered metrics CSV) count as failed operations, that a removed function
becomes an absent span, and that the benchmark refuses to run without the
program's sources. Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import tracer
import workloads

TINY = workloads.Sizes(horizon=40, train_len=24, train_episodes=1,
                       lp_small=(5, 4), lp_large=(20, 6))
SEED = 3

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def check_spec(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END, f"end_to_end {e2e} != {run.END_TO_END}")
    expect(all(m["better"] == "lower" for m in spec["end_to_end"]),
           "every end-to-end metric is better lower")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layer == tracer.metric_specs(), "per_layer differs from tracer")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"workloads {names}")
    for span in tracer.SPANS:
        for claim in span.moves:
            metric, _, workload = claim.partition("@")
            expect(metric in e2e and workload in ("", *names),
                   f"{span.name}: unknown end-to-end claim {claim}")
        expect(set(span.on) | set(span.steady_on) <= {"setup", *names},
               f"{span.name}: unknown workload")


def check_emission(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, info = run.measure(name, SEED, 0, trace, TINY)
            where = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{where}: {result['attempted']} attempted, "
                   f"{result['failed']} failed: {info['failures']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{where}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) for v in values),
                   f"{where}: non-numeric value")
            if not trace:
                expect(all(v > 0 for v in values), f"{where}: zero metric")
            elif name == "score":
                expect(all(result["metrics"][t]["value"] > 0
                           for t in tracer.CALL_TIMES),
                       f"{where}: a part time reads zero")


def truncate(out):
    path = out.eval.out / "decisions.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    out.eval.decisions, out.eval.grids = workloads.read_back(path)
    return out


def perturb(size):
    def corrupt(out):
        r = out.lp[size].result
        out.lp[size].result = dataclasses.replace(
            r, mean_surrogate=r.mean_surrogate * (1.0 + 1e-6))
        return out
    return corrupt


def alter(out):
    path = out / "seed_0" / "train_metrics.csv"
    text = path.read_text()
    path.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    return out


def check_corruption() -> None:
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        workloads.setup(work, SEED, TINY, reps=1)
        cases = (("score", truncate, "truncated decision CSV"),
                 ("score", perturb("lp_small"), "perturbed small LP bound"),
                 ("score", perturb("lp_large"), "perturbed large LP bound"),
                 ("train", alter, "altered metrics CSV"))
        for name, corrupt, what in cases:
            wl = workloads.WORKLOADS[name](work, SEED, TINY)
            _, bad = run.run_op(wl, 0)
            expect(not bad, f"{name}: clean operation failed: {bad}")
            _, bad = run.run_op(wl, 1, lambda op, k: corrupt(op(k)))
            expect(bool(bad), f"{name}: {what} was not counted as failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_absent_span() -> None:
    from restock import nn
    backward = nn.backward
    del nn.backward
    try:
        tr = tracer.Tracer()
        tr.run(lambda: None)
        metrics = tr.metrics()
    finally:
        nn.backward = backward
    expect("nn.backward" in tr.absent and metrics["nn.backward.calls"] == 0,
           "a removed function is not reported as an absent span")


def check_bare_directory() -> None:
    bare = run.ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "score",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "run.py without the sources did not fail")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_spec(spec)
    check_absent_span()
    check_bare_directory()
    check_corruption()
    check_emission(spec)
    print("selftest:", "FAILED" if problems else "ok", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
