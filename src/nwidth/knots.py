"""Eigenfunction zeros: the interior knots of the optimal spline spaces.

The rank-k eigenfunction changes sign exactly k-1 times inside the
interval; those crossings are bracketed on the node samples, and each one
is polished on the cubic through its four nearest samples by Newton's
method safeguarded with bisection (`_cubic_root`), which stops only when
the cubic is exactly zero or the iterate no longer moves: the zero of the
cubic to float64 precision, so the only tolerance left is that of the
samples.

A sample has a certain sign only if it lies farther from zero than the
eigenpair's sample error bound.  The eigenfunction vanishes to order r
at each endpoint, so a run of uncertain samples that touches an endpoint
is boundary layer, not a zero; a single uncertain interior sample
between opposite signs is a zero on that node; any other uncertain
sample means the samples cannot separate the zeros.

Each zero's error is estimated as the sample error bound divided by the
slope of the samples across its bracket.  `extract_knots` reads a pair's
samples as they are.  `knot_reports` is the one place that refines: a
float64 pair whose sign pattern is uncertain, or whose estimated zero
error exceeds the tolerance, is refined to double-double accuracy
(`nwidth.extended`) and read again, since at high rank the float64
eigenvector is limited by eps * lambda_1 / gap_k, which no finer mesh
improves.  A run's pairs share one such operator, built from their own
`NystromSystem`.  No zero is returned whose estimated error exceeds the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._io import csv_text
from .errors import NumericalError, ValidationError
from .eigensolver import Eigenpair, eigenfunction_values
from .nystrom import Grid, NystromSystem

DEFAULT_TOL_SCALE = 1e-10

KNOTS_CSV_HEADER = "r,k,index,zero"


@dataclass(frozen=True)
class KnotReport:
    r: int
    eigen_rank: int
    zeros: np.ndarray  # strictly increasing, strictly inside (a, b)
    refinement_tol: float
    error_estimate: float  # largest estimated zero error, <= refinement_tol


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
    # each certain sample and the next: adjacent, or two apart around one uncertain sample
    gap = np.diff(certain)
    flip = sgn[certain[:-1]] != sgn[certain[1:]]
    bad = np.flatnonzero((gap > 2) | ((gap == 2) & ~flip))
    if bad.size:
        i = int(certain[bad[0]])
        if gap[bad[0]] > 2:
            raise _Unresolved(
                f"consecutive interior samples {i + 1} and {i + 2} lie within {threshold:.1e} of zero"
            )
        raise _Unresolved(
            f"interior sample {i + 1} lies within {threshold:.1e} of zero without a sign change around it"
        )
    return list(zip(certain[:-1][flip].tolist(), certain[1:][flip].tolist()))


def _cubic_root(c3: float, c2: float, c1: float, c0: float, lo: float, hi: float) -> float:
    """The zero of c3 u^3 + c2 u^2 + c1 u + c0 in its sign-change bracket [lo, hi].

    Safeguarded Newton from the midpoint: each iterate replaces the bracket
    end whose value has its sign, and a Newton step that would leave the
    bracket, or a vanishing derivative, bisects instead.  The search ends
    when the cubic is exactly zero, when a Newton step no longer moves the
    iterate, or when the bracket is two adjacent floats: full float64
    precision, not a tolerance.  Raises NumericalError unless the cubic's
    end values are nonzero and of opposite signs.
    """

    def f(u: float) -> float:
        return ((c3 * u + c2) * u + c1) * u + c0

    f_lo = f(lo)
    if f_lo * f(hi) >= 0:
        raise NumericalError("sign-change bracket lost during refinement; mesh under-resolved")
    neg_lo = f_lo < 0.0
    x = 0.5 * (lo + hi)
    while True:
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        slope = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if slope != 0.0:
            step = x - fx / slope
            if step == x:
                return x
            if lo < step < hi:
                x = step
                continue
        x = 0.5 * (lo + hi)
        if x == lo or x == hi:
            return x


def _local_cubic(nodes: np.ndarray, vals: np.ndarray, ilo: int, ihi: int) -> tuple[float, ...]:
    """The cubic through the 4 samples nearest the bracket (ilo, ihi), and the bracket's far end.

    In units u of the mesh size from nodes[ilo]: returns c3, c2, c1, c0 of
    c3 u^3 + c2 u^2 + c1 u + c0 and uhi, the u of nodes[ihi] (1 or 2).
    Newton's divided differences, expanded into the monomial basis, in
    Python floats: a fraction of the cost of a least-squares fit.
    """
    lo = min(max(ilo - 1, 0), len(nodes) - 4)
    x0, gh = float(nodes[ilo]), float(nodes[1] - nodes[0])
    u0, u1, u2, u3 = ((x - x0) / gh for x in nodes[lo : lo + 4].tolist())
    f0, f1, f2, f3 = vals[lo : lo + 4].tolist()
    d01, d12, d23 = (f1 - f0) / (u1 - u0), (f2 - f1) / (u2 - u1), (f3 - f2) / (u3 - u2)
    d012, d123 = (d12 - d01) / (u2 - u0), (d23 - d12) / (u3 - u1)
    c3 = (d123 - d012) / (u3 - u0)
    # f0 + d01 (u - u0) + d012 (u - u0)(u - u1) + c3 (u - u0)(u - u1)(u - u2)
    c2 = d012 - c3 * (u0 + u1 + u2)
    c1 = d01 - d012 * (u0 + u1) + c3 * (u0 * u1 + u0 * u2 + u1 * u2)
    c0 = f0 - d01 * u0 + d012 * u0 * u1 - c3 * u0 * u1 * u2
    return c3, c2, c1, c0, (float(nodes[ihi]) - x0) / gh


def _refine(nodes: np.ndarray, vals: np.ndarray, ilo: int, ihi: int) -> float:
    # the zero of the local cubic, to full precision on its sign-change bracket
    c3, c2, c1, c0, uhi = _local_cubic(nodes, vals, ilo, ihi)
    return float(nodes[ilo] + (nodes[1] - nodes[0]) * _cubic_root(c3, c2, c1, c0, 0.0, uhi))


def _zeros(pair: Eigenpair, grid: Grid, tol: float) -> tuple[np.ndarray, float]:
    """The pair's k-1 zeros and their largest estimated error."""
    nodes = grid.nodes
    vals = eigenfunction_values(pair, grid)
    brackets = _brackets(vals, grid.m, pair.error_bound)
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
    return np.array([_refine(nodes, vals, i, j) for i, j in brackets]), float(error)


def extract_knots(pair: Eigenpair, system: NystromSystem, tol: float | None = None) -> KnotReport:
    """Locate and polish all zeros of the rank-k eigenfunction on the pair's own samples.

    `pair` is an eigenpair of `system`, whose kernel order labels the
    report.  Exactly k-1 zeros must appear, each with an estimated error
    within tol, which defaults to 1e-10 * (b-a).  Raises NumericalError
    when the samples leave the zeros unresolved; `knot_reports` answers
    that by refining the pair beyond float64, which this never does.
    """
    grid = system.grid
    if tol is None:
        tol = DEFAULT_TOL_SCALE * float(grid.nodes[-1] - grid.nodes[0])
    if not 0 < tol < np.inf:
        raise ValidationError(f"refinement tolerance must be positive and finite, got {tol}")
    zeros, error = _zeros(pair, grid, tol)
    if zeros.size > 1 and np.any(np.diff(zeros) <= tol):
        raise NumericalError("adjacent zeros collide within the refinement tolerance")
    zeros.setflags(write=False)
    return KnotReport(r=system.kernel.r, eigen_rank=pair.index, zeros=zeros, refinement_tol=float(tol),
                      error_estimate=error)


def knot_reports(pairs: Sequence[Eigenpair], system: NystromSystem,
                 tol: float | None = None) -> list[KnotReport]:
    """`extract_knots` of each of a run's pairs of `system`, refining those its samples leave unresolved.

    The refinement runs on one double-double operator, built on the first
    pair that needs it and sized for the highest rank: one correction
    solve.  Raises NumericalError when a refined pair is still unresolved:
    the rank is beyond float64 precision (its eigenvalue gap is within
    rounding of lambda_1), the mesh does not separate its zeros, tol is
    finer than even the refined samples resolve, or the pair is not of
    `system`.
    """
    extended = None
    reports = []
    for pair in pairs:
        try:
            report = extract_knots(pair, system, tol)
        except _Unresolved:
            if extended is None:
                from .extended import ExtendedSystem  # loaded only when a pair needs refining

                extended = ExtendedSystem(system, max(p.index for p in pairs))
            refined = extended.refine(pair)
            try:
                report = extract_knots(refined, system, tol)
            except _Unresolved as exc:
                raise NumericalError(
                    f"{exc}, with samples refined beyond float64 to {refined.error_bound:.1e} "
                    f"(float64: {pair.error_bound:.1e}); {exc.hint}"
                ) from None
        reports.append(report)
    return reports


def knot_rows(reports: Iterable[KnotReport]) -> list[tuple]:
    return [
        (report.r, report.eigen_rank, idx, zero)
        for report in reports
        for idx, zero in enumerate(report.zeros, start=1)
    ]


def knots_csv(reports: Iterable[KnotReport]) -> str:
    return csv_text(KNOTS_CSV_HEADER, knot_rows(reports))


def curve_csv(pair: Eigenpair, grid: Grid) -> str:
    """Node samples of the eigenfunction as two-column CSV x,phi."""
    return csv_text("x,phi", zip(grid.nodes, eigenfunction_values(pair, grid)))
