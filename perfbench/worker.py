"""One pass of a workload in a fresh interpreter.

Run as `python3 worker.py` with `nwidth` importable from the checkout's
`src` (PYTHONPATH).  It imports `nwidth.cli`, reads a JSON spec from
stdin ({"src", "invocations", "trace", "provenance"}), calls
`nwidth.cli.main(argv)` for each invocation with stdout and stderr
captured, and prints one JSON object on stdout.  The time at which the
import finished is reported so that the caller can measure set-up time
from the moment it started the interpreter.
"""

import time

import contextlib
import io
import json
import os
import resource
import sys
import traceback

import nwidth.cli

IMPORT_DONE = time.time()


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NWIDTH_THREADS")},
    }


def _call(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = nwidth.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:
            rc = "raised"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> None:
    spec = json.load(sys.stdin)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nwidth.cli.__file__).startswith(src + os.sep):
        sys.exit(f"worker: imported nwidth from {nwidth.cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        rebound = spans.install(tracer)

    calls = []
    for argv in spec["invocations"]:
        cpu0, t0 = _cpu(), time.perf_counter()
        if tracer is None:
            rc, out, err = _call(argv)
        else:
            root = tracer.open(spans.ROOT)
            rc, out, err = _call(argv)
            tracer.close(root)
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        calls.append({"rc": rc, "stdout": out, "stderr": err[-2000:], "wall_s": wall, "cpu_s": cpu})

    wall_s = sum(c["wall_s"] for c in calls)
    result = {
        "import_done": IMPORT_DONE,
        "calls": calls,
        "wall_s": wall_s,
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["provenance"]:
        result["provenance"] = _provenance()
    if tracer is not None:
        bytes_out = sum(len(c["stdout"].encode()) for c in calls)
        result["layers"] = spans.summarize(tracer, wall_s, bytes_out)
        result["rebound"] = rebound
    sys.__stdout__.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
