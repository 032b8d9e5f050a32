"""Command-line entry point.

Subcommands: compute, conjecture-table, convergence, knots, eigenfunctions.
Exit codes: 0 success, 1 validation error or an output file or standard
output that cannot be written, 2 numerical failure (a rank beyond
float64 resolution, or an eigensolve that exhausts its iteration budget)
or out of memory.  Output is CSV, or with --format json one compact JSON
line whose floats round-trip and whose non-finite values are null.

Eigenpairs come from a Lanczos solver in numpy on a blocked product with
the collocation matrix, O(m (16 + 2r)) operations each; the matrix itself
is formed only for a dense solve of a large share of its eigenvalues.
The run uses one OpenBLAS thread unless OPENBLAS_NUM_THREADS is set in
the environment, whose value is kept.

Determinism: the same arguments give the same output bytes.  Runs on the
Lanczos solver give them for any OpenBLAS thread count; the dense solve,
taken for more than about m/6 eigenvalues, agrees between thread counts
only within its float64 accuracy.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from ._io import atomic_write_texts, json_text, records
from .convergence import (
    POINTS_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    mesh_interior_count,
    point_rows,
    points_csv,
    run_study,
    summary_csv,
    summary_rows,
)
from .eigensolver import eigenfunction_values, top_eigenpairs
from .errors import NumericalError, ValidationError
from .kernel import Interval, Kernel, MAX_R
from .knots import KNOTS_CSV_HEADER, curve_csv, knot_reports, knot_rows, knots_csv
from .nwidths import conjecture_table, nwidth_rows, results_csv, results_records
from .nystrom import assemble, build_grid

DEFAULT_M = 2047  # h = (b-a)/2048
#: Default convergence mesh sizes and reference mesh size, as fractions of b-a.
DEFAULT_H_LIST = tuple(2.0**-j for j in range(3, 10))
DEFAULT_H_REF = 2.0**-11


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,1" for option names; fold each into the
    # long option before it, full or abbreviated, as --option=value.  Every long
    # option takes one value but --help (and its prefixes, like the "--" ending options).
    merged = argv[:1]
    for tok in argv[1:]:
        prev = merged[-1]
        if (prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
                and tok.startswith("-") and not tok.startswith("--")):
            merged[-1] = f"{prev}={tok}"
        else:
            merged.append(tok)
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


def _parse_ranges(text: str, name: str) -> list[tuple[int, int]]:
    """The (lo, hi) ends of each integer or 'lo..hi' range of a comma list, not yet expanded."""
    ranges = []
    for item in text.split(","):
        item = item.strip()
        lo_s, dots, hi_s = item.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s if dots else lo_s)
        except ValueError:
            form = "range must be 'lo..hi'" if dots else "must be an integer or 'lo..hi'"
            raise ValidationError(f"{name} {form}, got '{item}'") from None
        if hi < lo:
            raise ValidationError(f"{name} range '{item}' is empty (needs lo <= hi)")
        ranges.append((lo, hi))
    return ranges


def _expand(ranges: list[tuple[int, int]], name: str, high: float, bound: str) -> tuple[int, ...]:
    """Every integer of the ranges, once none exceeds high: a rank beyond the mesh is never expanded."""
    highest = max(hi for _, hi in ranges)
    if highest > high:
        raise ValidationError(f"{name} must be <= {high} ({bound}), got {highest}")
    return tuple(value for lo, hi in ranges for value in range(lo, hi + 1))


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
        p.add_argument("--out", default=None,
                       help="output file (default: stdout); in CSV, convergence also writes "
                            "<stem>_summary<ext>, and eigenfunctions of several ranks write "
                            "<stem>_k<rank><ext> instead (<ext> is .csv if the file has none)")

    p = sub.add_parser("compute", help="n-width estimates for one r and a range of n")
    common(p)
    p.add_argument("--n", required=True, help="n value or range 'lo..hi'")

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


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments, their text values parsed in place; a bad value exits 1."""
    parser = _build_parser()
    config = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        _check(config)
    except ValidationError as exc:
        parser.error(str(exc))
    return config


def _check(ns: argparse.Namespace) -> None:
    """Parse ns's text values in place, adding n_values or k_values; raise ValidationError on a bad one."""
    ns.interval = _parse_interval(ns.interval)
    if ns.command != "conjecture-table":
        if ns.r < 1:
            raise ValidationError(f"--r must be >= 1, got {ns.r}")
        if ns.r > MAX_R:
            raise ValidationError(f"--r must be <= {MAX_R}, got {ns.r}")
    if ns.command != "convergence" and ns.m < 1:
        raise ValidationError(f"--m must be >= 1, got {ns.m}")

    if ns.command in ("compute", "convergence"):
        n_ranges = [(ns.r, ns.r + 5)] if ns.n is None else _parse_ranges(ns.n, "--n")
        lowest = min(lo for lo, _ in n_ranges)
        if lowest < ns.r:
            raise ValidationError(f"--n must be >= r={ns.r}, got {lowest}")
    if ns.command == "compute":
        ns.n_values = _expand(n_ranges, "--n", ns.r - 1 + ns.m, "r-1+m")

    if ns.command in ("knots", "eigenfunctions"):
        k_ranges = _parse_ranges(ns.k, "--k")
        lowest = min(lo for lo, _ in k_ranges)
        if lowest < 1:
            raise ValidationError(f"--k must be >= 1, got {lowest}")
        ns.k_values = _expand(k_ranges, "--k", ns.m, "m")

    if ns.command == "conjecture-table" and not 1 <= ns.r_max <= MAX_R:
        raise ValidationError(f"--r-max must be in [1, {MAX_R}], got {ns.r_max}")

    if ns.command == "convergence":
        span = ns.interval.span
        if ns.h_list is None:
            ns.h_list = tuple(span * h for h in DEFAULT_H_LIST)
        else:
            ns.h_list = tuple(_parse_h(item) for item in ns.h_list.split(",") if item.strip())
            if not ns.h_list:
                raise ValidationError("--h-list is empty")
        if ns.h_ref is None:
            ns.h_ref = span * DEFAULT_H_REF
        else:
            ns.h_ref = None if ns.h_ref.strip() == "analytic" else _parse_h(ns.h_ref)
        coarsest = min(mesh_interior_count(h, ns.interval) for h in ns.h_list)
        if ns.h_ref is not None:
            mesh_interior_count(ns.h_ref, ns.interval)
        ns.n_values = _expand(n_ranges, "--n", ns.r - 1 + coarsest, "r-1+m, m of the coarsest mesh")

    if ns.command == "knots" and ns.tol is not None and not 0 < ns.tol < math.inf:
        raise ValidationError(f"--tol must be positive and finite, got {ns.tol}")


def _emit(config: argparse.Namespace, payload, tables) -> None:
    """Write payload() as JSON or the CSV tables(), (tag, text) pairs, to stdout or --out.

    Stdout gets the texts with a blank line between them; --out gets the
    untagged text, and <stem>_<tag><ext> beside it each tagged one; when
    one of them cannot be written, none is replaced.
    """
    outputs = [(None, json_text(payload()))] if config.fmt == "json" else tables()
    if config.out is None:
        try:
            sys.stdout.write("\n".join(text for _, text in outputs))
            sys.stdout.flush()
        except OSError as exc:
            # what is left in the buffer goes to os.devnull at exit, not to a second failure
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise ValidationError(f"cannot write standard output: {exc.strerror}") from None
        return
    root, ext = os.path.splitext(config.out)
    try:
        atomic_write_texts((config.out if tag is None else f"{root}_{tag}{ext or '.csv'}", text)
                           for tag, text in outputs)
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename}: {exc.strerror}") from None


def _emit_rows(config: argparse.Namespace, rows) -> None:
    _emit(config, lambda: results_records(rows), lambda: [(None, results_csv(rows))])


def _run_compute(config: argparse.Namespace) -> None:
    _emit_rows(config, nwidth_rows(config.r, config.n_values, config.m, config.interval))


def _run_conjecture_table(config: argparse.Namespace) -> None:
    _emit_rows(config, conjecture_table(config.r_max, config.m, config.interval))


def _run_convergence(config: argparse.Namespace) -> None:
    study = run_study(config.r, config.n_values, config.h_list, config.h_ref, config.interval)
    for n, note_group in zip(study.n_list, study.notes):
        for note in note_group:
            print(f"note: r={study.r} n={n}: {note}", file=sys.stderr)
    _emit(config,
          lambda: {"points": records(POINTS_CSV_HEADER, point_rows(study)),
                   "summary": records(SUMMARY_CSV_HEADER, summary_rows(study))},
          lambda: [(None, points_csv(study)), ("summary", summary_csv(study))])


def _top_pairs(config: argparse.Namespace) -> tuple:
    system = assemble(Kernel(config.r, config.interval), build_grid(config.interval, config.m))
    return system, top_eigenpairs(system, max(config.k_values))


def _run_knots(config: argparse.Namespace) -> None:
    system, pairs = _top_pairs(config)
    reports = knot_reports([pairs[k - 1] for k in config.k_values], system, config.tol)
    _emit(config, lambda: records(KNOTS_CSV_HEADER, knot_rows(reports)),
          lambda: [(None, knots_csv(reports))])


def _run_eigenfunctions(config: argparse.Namespace) -> None:
    system, pairs = _top_pairs(config)
    selected = [pairs[k - 1] for k in config.k_values]

    def curves():
        x = system.grid.nodes.tolist()
        return [{"k": pair.index, "x": x, "phi": eigenfunction_values(pair, system.grid).tolist()}
                for pair in selected]

    # one rank goes to --out itself, several to one sibling file each
    tags = [None] if len(selected) == 1 else [f"k{pair.index}" for pair in selected]
    _emit(config, curves, lambda: [(tag, curve_csv(pair, system.grid)) for tag, pair in zip(tags, selected)])


_RUNNERS = {
    "compute": _run_compute,
    "conjecture-table": _run_conjecture_table,
    "convergence": _run_convergence,
    "knots": _run_knots,
    "eigenfunctions": _run_eigenfunctions,
}


def run(config: argparse.Namespace) -> int:
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
    return run(parse_args(sys.argv[1:] if argv is None else list(argv)))
