"""Command-line entry point.

Subcommands: compute, conjecture-table, convergence, knots, eigenfunctions.
Exit codes: 0 success, 1 validation error, 2 numerical failure (a rank
beyond float64 resolution, or an eigensolve that exhausts its iteration
budget) or out of memory.  Output is CSV, or with --format json one
compact JSON line whose floats round-trip and whose non-finite values are
null.

Eigenpairs come from a Lanczos solver in numpy on the O(m r) product of
the collocation matrix, which is formed only for a dense solve of a large
share of its eigenvalues.  The run uses one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set in the environment, whose value is kept.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field

from ._io import atomic_write_text, json_text, records
from .convergence import (
    POINTS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    point_rows,
    points_csv,
    run_study,
    summary_csv,
    summary_rows,
)
from .eigensolver import top_eigenpairs
from .errors import NumericalError, ValidationError
from .kernel import Interval, Kernel, MAX_R
from .knots import KNOTS_CSV_HEADER, curve_csv, knot_reports, knot_rows, knots_csv
from .nwidths import conjecture_table, nwidth_rows, results_csv, results_records
from .nystrom import assemble, build_grid, matrix_text

DEFAULT_M = 2047  # h = (b-a)/2048
#: Default convergence mesh sizes and reference mesh size, as fractions of b-a.
DEFAULT_H_LIST = tuple(2.0**-j for j in range(3, 10))
DEFAULT_H_REF = 2.0**-11

_VALUE_FLAGS = {
    "--r", "--n", "--k", "--m", "--interval", "--h-list", "--h-ref",
    "--tol", "--format", "--out", "--dump-matrix", "--r-max",
}


@dataclass
class RunConfig:
    command: str
    r: int = 1
    n_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = ()
    m: int = DEFAULT_M
    interval: Interval = field(default_factory=lambda: Interval(0.0, 1.0))
    r_max: int = 20
    h_list: tuple[float, ...] = DEFAULT_H_LIST
    h_ref: float | None = DEFAULT_H_REF
    tol: float | None = None
    fmt: str = "csv"
    out: str | None = None
    dump_matrix: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,1" for option names; fold them into
    # the preceding flag as --flag=value
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-") and nxt not in _VALUE_FLAGS:
            merged.append(f"{tok}={nxt}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"interval must be 'a,b', got '{text}'")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"interval endpoints must be numbers, got '{text}'") from None
    return Interval(a, b)


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    values: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if ".." in item:
            lo_s, hi_s = item.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ValidationError(f"{name} range must be 'lo..hi', got '{item}'") from None
            if hi < lo:
                raise ValidationError(f"{name} range '{item}' is empty (needs lo <= hi)")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(item))
            except ValueError:
                raise ValidationError(f"{name} must be an integer or 'lo..hi', got '{item}'") from None
    return tuple(values)


def _parse_h(text: str) -> float:
    text = text.strip()
    try:
        value = 2.0 ** float(text[2:]) if text.startswith("2^") else float(text)
    except ValueError:
        raise ValidationError(f"cannot parse mesh size '{text}'") from None
    except OverflowError:  # 2^x beyond the float64 range
        value = math.inf
    if not 0 < value < math.inf:
        raise ValidationError(f"mesh size must be positive and finite, got '{text}'")
    return value


def _parse_h_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_h(item) for item in text.split(",") if item.strip())


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="nwidth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_m=True, with_r=True):
        if with_r:
            p.add_argument("--r", type=int, default=1, help="derivative order r >= 1 (default 1)")
        if with_m:
            p.add_argument("--m", type=int, default=DEFAULT_M,
                           help=f"interior node count (default {DEFAULT_M}, h=(b-a)/2048)")
        p.add_argument("--interval", default="0,1", help="endpoints 'a,b' (default 0,1)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt",
                       help="csv (default), or json: one compact line, floats that round-trip, "
                            "null for non-finite values")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("compute", help="n-width estimates for one r and a range of n")
    common(p)
    p.add_argument("--n", required=True, help="n value or range 'lo..hi'")
    p.add_argument("--dump-matrix", default=None,
                   help="also dump the solved matrix to this file: the [0,1] matrix of (r, m), "
                        "which (b-a)^(2r) scales to [a,b]")

    # no abbreviations here: --r would pass for --r-max
    p = sub.add_parser("conjecture-table", help="relative error to the conjectured value, r=1..r-max",
                       allow_abbrev=False)
    common(p, with_r=False)
    p.add_argument("--r-max", type=int, default=20, dest="r_max", help="largest r (default 20)")

    p = sub.add_parser("convergence", help="mesh-refinement study against a fine reference")
    common(p, with_m=False)
    p.add_argument("--n", default=None, help="n value or range (default r..r+5)")
    p.add_argument("--h-list", default=None, dest="h_list",
                   help="comma list of mesh sizes, e.g. '2^-3,2^-4' (default (b-a)*2^-3..(b-a)*2^-9)")
    p.add_argument("--h-ref", default=None, dest="h_ref",
                   help="reference mesh size (default (b-a)*2^-11), or 'analytic' for r=1")

    p = sub.add_parser("knots", help="zeros of eigenfunctions (optimal spline knots)")
    common(p)
    p.add_argument("--k", required=True, help="eigenfunction rank or range 'lo..hi'")
    p.add_argument("--tol", type=float, default=None,
                   help="zero refinement tolerance (default 1e-10*(b-a))")

    p = sub.add_parser("eigenfunctions", help="dump eigenfunction node samples")
    common(p)
    p.add_argument("--k", required=True, help="eigenfunction rank or range 'lo..hi'")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        config = _config_from_namespace(ns)
    except ValidationError as exc:
        parser.error(str(exc))
    return config


def _config_from_namespace(ns) -> RunConfig:
    config = RunConfig(command=ns.command)
    config.fmt = ns.fmt
    config.out = ns.out
    config.interval = _parse_interval(ns.interval)

    if ns.command != "conjecture-table":
        if ns.r < 1:
            raise ValidationError(f"--r must be >= 1, got {ns.r}")
        if ns.r > MAX_R:
            raise ValidationError(f"--r must be <= {MAX_R}, got {ns.r}")
        config.r = ns.r

    if ns.command != "convergence":
        if ns.m < 1:
            raise ValidationError(f"--m must be >= 1, got {ns.m}")
        config.m = ns.m

    if ns.command in ("compute", "convergence"):
        if getattr(ns, "n", None) is None:
            config.n_values = tuple(range(config.r, config.r + 6))
        else:
            config.n_values = _parse_int_list(ns.n, "--n")
        if min(config.n_values) < config.r:
            raise ValidationError(f"--n must be >= r={config.r}, got {min(config.n_values)}")

    if ns.command in ("knots", "eigenfunctions"):
        config.k_values = _parse_int_list(ns.k, "--k")
        if min(config.k_values) < 1:
            raise ValidationError(f"--k must be >= 1, got {min(config.k_values)}")

    if ns.command == "conjecture-table":
        if ns.r_max < 1 or ns.r_max > MAX_R:
            raise ValidationError(f"--r-max must be in [1, {MAX_R}], got {ns.r_max}")
        config.r_max = ns.r_max

    if ns.command == "convergence":
        span = config.interval.span
        if ns.h_list is None:
            config.h_list = tuple(span * h for h in DEFAULT_H_LIST)
        else:
            config.h_list = _parse_h_list(ns.h_list)
            if not config.h_list:
                raise ValidationError("--h-list is empty")
        if ns.h_ref is None:
            config.h_ref = span * DEFAULT_H_REF
        else:
            config.h_ref = None if ns.h_ref.strip() == "analytic" else _parse_h(ns.h_ref)

    if ns.command == "compute":
        config.dump_matrix = ns.dump_matrix

    if ns.command == "knots":
        if ns.tol is not None and not 0 < ns.tol < math.inf:
            raise ValidationError(f"--tol must be positive and finite, got {ns.tol}")
        config.tol = ns.tol
    return config


def _write(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _sibling_path(out: str, tag: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}_{tag}{ext or '.csv'}"


def _write_results(config: RunConfig, rows) -> None:
    if config.fmt == "json":
        _write(config.out, json_text(results_records(rows)))
    else:
        _write(config.out, results_csv(rows))


def _run_compute(config: RunConfig) -> None:
    if config.dump_matrix:
        system = assemble(Kernel(config.r, config.interval), build_grid(config.interval, config.m))
        atomic_write_text(config.dump_matrix, matrix_text(system))
    _write_results(config, nwidth_rows(config.r, config.n_values, config.m, config.interval))


def _run_conjecture_table(config: RunConfig) -> None:
    _write_results(config, conjecture_table(config.r_max, config.m, config.interval))


def _run_convergence(config: RunConfig) -> None:
    study = run_study(config.r, config.n_values, config.h_list, config.h_ref, config.interval)
    for n, note_group in zip(study.n_list, study.notes):
        for note in note_group:
            print(f"note: r={study.r} n={n}: {note}", file=sys.stderr)
    if config.fmt == "json":
        payload = {
            "points": records(POINTS_CSV_HEADER, point_rows(study)),
            "summary": records(SUMMARY_CSV_HEADER, summary_rows(study)),
        }
        _write(config.out, json_text(payload))
        return
    if config.out is None:
        sys.stdout.write(points_csv(study))
        sys.stdout.write("\n")
        sys.stdout.write(summary_csv(study))
    else:
        _write(config.out, points_csv(study))
        _write(_sibling_path(config.out, "summary"), summary_csv(study))


def _top_pairs(config: RunConfig) -> tuple:
    system = assemble(Kernel(config.r, config.interval), build_grid(config.interval, config.m))
    return system, top_eigenpairs(system, max(config.k_values))


def _run_knots(config: RunConfig) -> None:
    system, pairs = _top_pairs(config)
    reports = knot_reports([pairs[k - 1] for k in config.k_values], system, config.tol)
    if config.fmt == "json":
        _write(config.out, json_text(records(KNOTS_CSV_HEADER, knot_rows(reports))))
    else:
        _write(config.out, knots_csv(reports))


def _run_eigenfunctions(config: RunConfig) -> None:
    system, pairs = _top_pairs(config)
    grid = system.grid
    selected = [pairs[k - 1] for k in config.k_values]
    if config.fmt == "json":
        x = grid.nodes.tolist()
        payload = [{"k": pair.index, "x": x, "phi": [0.0, *pair.vector.tolist(), 0.0]} for pair in selected]
        _write(config.out, json_text(payload))
        return
    if config.out is None:
        for pair in selected:
            sys.stdout.write(curve_csv(pair, grid))
            if pair is not selected[-1]:
                sys.stdout.write("\n")
    elif len(selected) == 1:
        _write(config.out, curve_csv(selected[0], grid))
    else:
        for pair in selected:
            _write(_sibling_path(config.out, f"k{pair.index}"), curve_csv(pair, grid))


_RUNNERS = {
    "compute": _run_compute,
    "conjecture-table": _run_conjecture_table,
    "convergence": _run_convergence,
    "knots": _run_knots,
    "eigenfunctions": _run_eigenfunctions,
}


def run(config: RunConfig) -> int:
    try:
        _RUNNERS[config.command](config)
    except ValidationError as exc:
        print(f"nwidth: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"nwidth: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"nwidth: numerical failure: the problem does not fit in memory{detail}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else list(argv))
    return run(config)
