"""The nwidth benchmark: times the CLI workloads end to end and checks their outputs.

    python3 perfbench/run.py --workload table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The seed draws the interval
[a, b] every invocation of the workload runs on (see workloads.py).
Each pass of the workload runs in a fresh interpreter (worker.py)
calling `nwidth.cli.main(argv)`; passes repeat until --seconds have
elapsed (at least MIN_PASSES), and every pass's outputs go through the
correctness gate (gate.py) against reference.json.

With --trace 0 the last line reports the end-to-end metrics: median
wall_s, cpu_s and peak_rss_mb of a pass, and setup_s, the median time
from starting an interpreter to `nwidth.cli` imported.  With --trace 1,
passes alternate untraced and traced (spans.py) and the last line
reports the per-layer metrics of the traced passes, plus
trace.overhead_s, the traced minus the untraced median wall time.

`attempted` counts invocations; `failed` those that raised, exited with
an unexpected code or failed the gate.  An invocation whose reference
run already exited with a numerical failure (a known defect) is not
counted as failed when it exits the same way; it is reported on its own
line, and `failed_frac` there counts it.  `--serial` sets
NWIDTH_THREADS=1 and OPENBLAS_NUM_THREADS=1 for the passes, for the
single-threaded reference figure; it is not used by the benchmark runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 5
#: No pass starts after LAST_START_S and every pass is killed at DEADLINE_S,
#: so a run ends within 180 s.
LAST_START_S = 120.0
DEADLINE_S = 165.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "nwidth")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _worker_env(serial: bool) -> dict:
    env = dict(os.environ)
    env.pop("NWIDTH_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if serial:
        env.update(NWIDTH_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def _run_worker(argvs: list[list[str]], trace: bool, provenance: bool, env: dict,
                timeout: float = DEADLINE_S) -> tuple[dict, float]:
    """One fresh interpreter running the invocations; returns its report and set-up time."""
    spec = json.dumps({"src": SRC, "invocations": argvs, "trace": trace, "provenance": provenance})
    started = time.time()
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=spec,
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report, report["import_done"] - started


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serial", action="store_true",
                        help="NWIDTH_THREADS=1 OPENBLAS_NUM_THREADS=1 (single-threaded reference)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nwidth", "cli.py")):
        print(f"perfbench: no nwidth sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    src_interval = tuple(reference["interval"])

    a, b = workloads.draw_interval(args.seed)
    calls = workloads.invocations(args.workload, a, b)
    argvs = [list(call.argv) for call in calls]
    env = _worker_env(args.serial)
    trace = bool(args.trace)

    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "interval": [a, b],
        "commit": _git_commit(), "src_sha256": _source_digest(),
        "reference_commit": reference["commit"], "serial": args.serial,
        "invocations": [call.record() for call in calls],
    }}), flush=True)

    start = time.perf_counter()
    passes: list[dict] = []
    setup: list[float] = []
    attempted = failed = known = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES) and elapsed >= args.seconds
        if passes and (enough or elapsed >= LAST_START_S):
            break
        traced = trace and len(passes) % 2 == 1
        try:
            report, setup_s = _run_worker(argvs, traced, not passes, env, DEADLINE_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
            print(f"pass {len(passes) + 1}: worker failed: {exc}", file=sys.stderr)
            attempted += len(calls)
            failed += len(calls)
            if not passes:
                return 1
            break
        report["traced"] = traced
        passes.append(report)
        setup.append(setup_s)
        if "provenance" in report:
            print(json.dumps({"environment": report["provenance"]}), flush=True)
        for call, result in zip(calls, report["calls"]):
            verdict = gate.check(reference["entries"][call.key], src_interval,
                                 result["rc"], result["stdout"], a, b)
            attempted += 1
            failed += verdict.status == "failed"
            known += verdict.status == "known-defect"
            print(f"gate pass={len(passes)} {call.key}: {verdict.status} (exit {result['rc']}, "
                  f"compared={verdict.compared} at-floor={verdict.skipped}, "
                  f"wall={result['wall_s']:.4f} s)", flush=True)
            for problem in verdict.problems[:5]:
                print(f"    {problem}", flush=True)
            if verdict.status != "ok" and result["stderr"]:
                print(f"    stderr: {result['stderr'].strip().splitlines()[-1]}", flush=True)

    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(_run_worker([], False, False, env)[1])

    plain = [p for p in passes if not p["traced"]]
    wall = [p["wall_s"] for p in plain]
    if trace:
        tracked = [p for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in tracked), "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()}
        overhead = statistics.median(p["wall_s"] for p in tracked) - statistics.median(wall)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(f"wall_s per pass: {_quartiles(wall)}; setup_s: {_quartiles(setup)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {(failed + known) / attempted:.4f} ratio "
          f"({failed} failed + {known} known-defect exits of {attempted} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
