"""Write reference.json: the CLI's outputs for every benchmark invocation on [0, 1].

Run from the repository root at the commit whose outputs define
correctness:

    PYTHONPATH=src python3 perfbench/make_reference.py

The gate maps these outputs to each run's interval by the exact scaling
laws.  Eigenvalues (for the knot and eigenfunction floors) and the
convergence reference values d_n(h_ref) come from the library.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy
import scipy

import gate
import workloads
from nwidth import Interval, Kernel, assemble, build_grid, cli, run_study, top_eigenvalues

HERE = os.path.dirname(os.path.abspath(__file__))
UNIT = (0.0, 1.0)
KINDS = {"conjecture-table": "rows", "knots": "knots", "eigenfunctions": "curves",
         "convergence": "convergence"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _lambdas(r, count):
    system = assemble(Kernel(r, Interval(*UNIT)), build_grid(Interval(*UNIT), workloads.DEFAULT_M))
    return [float(x) for x in top_eigenvalues(system, count)]


def _entry(inv):
    kind = KINDS[inv.argv[0]]
    r = inv.r[0]
    entry = {"kind": kind, "r": r, "argv": list(inv.argv)}
    rc, out, err = _run(inv.argv)
    if rc != 0:
        print(f"{inv.key}: exit {rc}: {err.strip()}", file=sys.stderr)
        entry.update(exit=rc, k_max=inv.eigen_count, stderr=err.strip())
        return entry
    parsed = gate.PARSERS[kind](out)
    if kind == "rows":
        entry["rows"] = parsed
    elif kind == "knots":
        entry.update(knots={str(k): z for k, z in parsed.items()}, lambdas=_lambdas(r, inv.eigen_count + 1))
    elif kind == "curves":
        entry.update(curves=parsed, lambdas=_lambdas(r, inv.eigen_count + 1))
    else:
        h_ref = next(arg.split("=", 1)[1] for arg in inv.argv if arg.startswith("--h-ref="))
        analytic = h_ref == "analytic"
        n_list = [n for n, _, _ in parsed["summary"]]
        h_list = sorted({h for _, h, _ in parsed["points"]}, reverse=True)
        study = run_study(r, n_list, h_list, None if analytic else float(h_ref), Interval(*UNIT))
        entry.update(parsed, analytic=analytic, d_ref=[float(d) for d in study.d_ref])
    return entry


def main():
    entries = {}
    for name in workloads.WORKLOADS:
        for inv in workloads.invocations(name, *UNIT):
            entries[inv.key] = _entry(inv)
            print(f"{inv.key}: done", file=sys.stderr)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    reference = {
        "interval": list(UNIT),
        "commit": commit or None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entries": entries,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, allow_nan=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
