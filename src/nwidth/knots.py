"""Eigenfunction zeros: the interior knots of the optimal spline spaces.

The rank-k eigenfunction changes sign exactly k-1 times inside the
interval; those crossings are bracketed on the node samples and each one
is polished on a local cubic interpolant.

A sample has a certain sign only if it lies farther from zero than the
eigenpair's sample error bound.  The eigenfunction vanishes to order r
at each endpoint, so a run of uncertain samples that touches an endpoint
is boundary layer, not a zero; a single uncertain interior sample
between opposite signs is a zero on that node; any other uncertain
sample means the samples cannot separate the zeros.

Each zero's error is estimated as the sample error bound divided by the
slope of the samples across its bracket.  A float64 pair whose sign
pattern is uncertain, or whose estimated zero error exceeds the
tolerance, is first refined to double-double accuracy
(`nwidth.extended`): at high rank the float64 eigenvector is
limited by eps * lambda_1 / gap_k, which no finer mesh improves.  No zero
is returned whose estimated error exceeds the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.optimize import brentq

from ._io import write_rows
from .errors import NumericalError, ValidationError
from .eigensolver import Eigenpair, eigenfunction_values
from .nystrom import Grid

#: Samples this close to zero (vectors are max-normalized) count as uncertain
#: even when the pair's error bound is smaller.
ZERO_SAMPLE_TOL = 1e-12
DEFAULT_TOL_SCALE = 1e-10

KNOTS_CSV_HEADER = "r,k,index,zero"


@dataclass(frozen=True)
class KnotReport:
    r: int
    eigen_rank: int
    zeros: np.ndarray  # strictly increasing, strictly inside (a, b)
    refinement_tol: float
    error_estimate: float = 0.0  # largest estimated zero error, <= refinement_tol


_MESH_HINT = "the mesh does not resolve this rank"


class _Unresolved(NumericalError):
    """The samples do not determine the zeros to the tolerance."""

    def __init__(self, message: str, hint: str = _MESH_HINT):
        super().__init__(message)
        self.hint = hint


def _brackets(vals: np.ndarray, m: int, threshold: float) -> list[tuple[int, int]]:
    """Sample index pairs bracketing one sign change each.

    Samples within `threshold` of zero have no certain sign.  Runs of them
    at either end are boundary layer and skipped; a single one flanked by
    opposite signs widens its bracket by one node; two consecutive ones
    inside, or one with no sign change around it, raise.
    """
    sgn = np.zeros(m + 2, dtype=int)
    inner = vals[1 : m + 1]
    sgn[1 : m + 1] = np.where(np.abs(inner) <= threshold, 0, np.sign(inner))
    certain = np.flatnonzero(sgn)
    if certain.size == 0:
        raise _Unresolved(f"every sample lies within {threshold:.1e} of zero")
    brackets = []
    i, last = int(certain[0]), int(certain[-1])
    while i < last:
        if sgn[i + 1] != 0:
            if sgn[i] * sgn[i + 1] < 0:
                brackets.append((i, i + 1))
            i += 1
            continue
        if sgn[i + 2] == 0:
            raise _Unresolved(
                f"consecutive interior samples {i + 1} and {i + 2} lie within {threshold:.1e} of zero"
            )
        if sgn[i] * sgn[i + 2] > 0:
            raise _Unresolved(
                f"interior sample {i + 1} lies within {threshold:.1e} of zero without a sign change around it"
            )
        brackets.append((i, i + 2))
        i += 2
    return brackets


def _refine(nodes: np.ndarray, vals: np.ndarray, ilo: int, ihi: int, tol: float) -> float:
    # cubic through the 4 nearest samples, in units of the mesh size
    lo = min(max(ilo - 1, 0), len(nodes) - 4)
    gh = nodes[1] - nodes[0]
    u = (nodes[lo : lo + 4] - nodes[ilo]) / gh
    coeffs = np.polyfit(u, vals[lo : lo + 4], 3)

    def f(uu: float) -> float:
        return float(np.polyval(coeffs, uu))

    ulo, uhi = 0.0, float((nodes[ihi] - nodes[ilo]) / gh)
    if f(ulo) * f(uhi) >= 0:
        raise NumericalError("sign-change bracket lost during refinement; mesh under-resolved")
    root = brentq(f, ulo, uhi, xtol=max(tol / gh, 1e-15), rtol=8 * np.finfo(float).eps)
    return float(nodes[ilo] + gh * root)


def _zeros(pair: Eigenpair, grid: Grid, tol: float) -> tuple[np.ndarray, float]:
    """The pair's k-1 zeros and their largest estimated error."""
    nodes = grid.nodes
    vals = eigenfunction_values(pair, grid)
    brackets = _brackets(vals, grid.m, max(pair.error_bound, ZERO_SAMPLE_TOL))
    expected = pair.index - 1
    if len(brackets) != expected:
        raise _Unresolved(
            f"rank-{pair.index} eigenfunction shows {len(brackets)} sign changes, expected {expected}"
        )
    error = max(
        (pair.error_bound * (nodes[j] - nodes[i]) / abs(vals[j] - vals[i]) for i, j in brackets),
        default=0.0,
    )
    if error > tol:
        raise _Unresolved(
            f"estimated zero error {error:.1e} exceeds the tolerance {tol:.1e}",
            "the tolerance is finer than the samples resolve",
        )
    return np.array([_refine(nodes, vals, i, j, tol) for i, j in brackets]), float(error)


@lru_cache(maxsize=1)
def _extended_system(r: int, m: int):
    """The double-double system of (r, m), shared by the ranks of one run."""
    from .extended import ExtendedSystem  # loaded only when a pair needs refining

    return ExtendedSystem(r, m)


def extract_knots(pair: Eigenpair, grid: Grid, tol: float | None = None, *, r: int) -> KnotReport:
    """Locate and refine all zeros of the rank-k eigenfunction.

    `pair` is an eigenpair of the order-r kernel on `grid`; r labels the
    report and selects the double-double matrix for refinement.  Exactly
    k-1 zeros must appear, each with an estimated error within tol, which
    defaults to 1e-10 * (b-a).  A pair with a nonzero error bound that
    stands in the way is refined beyond float64 first.  Raises
    NumericalError when the zeros stay unresolved: the rank is beyond
    float64 precision (its eigenvalue gap is within rounding of lambda_1),
    the mesh does not separate its zeros, tol is finer than even the
    refined samples resolve, or the pair does not belong to the order-r
    kernel on this grid.
    """
    nodes = grid.nodes
    span = float(nodes[-1] - nodes[0])
    if tol is None:
        tol = DEFAULT_TOL_SCALE * span
    if tol <= 0:
        raise ValidationError("refinement tolerance must be positive")
    try:
        zeros, error = _zeros(pair, grid, tol)
    except _Unresolved as exc:
        if pair.error_bound == 0.0:
            raise NumericalError(f"{exc}; {exc.hint}") from None
        refined = _extended_system(r, grid.m).refine(pair, span)
        try:
            zeros, error = _zeros(refined, grid, tol)
        except _Unresolved as exc2:
            raise NumericalError(
                f"{exc2}, with samples refined beyond float64 to {refined.error_bound:.1e} "
                f"(float64: {pair.error_bound:.1e}); {exc2.hint}"
            ) from None
    if zeros.size > 1 and np.any(np.diff(zeros) <= tol):
        raise NumericalError("adjacent zeros collide within the refinement tolerance")
    zeros.setflags(write=False)
    return KnotReport(r=r, eigen_rank=pair.index, zeros=zeros, refinement_tol=float(tol),
                      error_estimate=error)


def knot_rows(reports: Iterable[KnotReport]) -> list[tuple]:
    return [
        (report.r, report.eigen_rank, idx, zero)
        for report in reports
        for idx, zero in enumerate(report.zeros, start=1)
    ]


def knots_csv(reports: Iterable[KnotReport]) -> str:
    return write_rows(KNOTS_CSV_HEADER, knot_rows(reports), "csv")


def curve_csv(pair: Eigenpair, grid: Grid) -> str:
    """Node samples of the eigenfunction as two-column CSV x,phi."""
    return write_rows("x,phi", zip(grid.nodes, eigenfunction_values(pair, grid)), "csv")
