"""n-width estimates from eigenvalues, proven bounds, and the conjectured midpoint.

For n >= r the n-width equals the square root of the (n+1-r)-th largest
integral-operator eigenvalue.  Its inverse r-th root is bracketed by
(n-r+1)*pi/(b-a) and n*pi/(b-a), and conjectured to approach the midpoint
(n-(r-1)/2)*pi/(b-a) of that bracket as n grows.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import numpy as np

from ._io import records, write_rows
from .errors import ValidationError
from .eigensolver import TIE_REL_TOL, top_eigenvalues
from .kernel import Interval, Kernel
from .nystrom import assemble, build_grid

_EPS = float(np.finfo(np.float64).eps)
#: Eigenvalues below this multiple of the largest one carry no trustworthy digits.
PRECISION_FLOOR = 1e3 * _EPS

#: Columns in the order of the fields of NWidthResult.
CSV_HEADER = "r,n,m,d_n,dn_inv_r,lower,upper,conjecture,rel_err,flag"
#: The conjecture table's ranks n = r + offset for each r.
TABLE_OFFSETS = range(6)


@dataclass(frozen=True)
class NWidthResult:
    r: int
    n: int
    m: int
    d_n: float
    dn_inv_r: float
    lower: float
    upper: float
    conjecture: float
    rel_err: float
    flag: str = ""


def dn_from_eigenvalue(lam: float, n: int, r: int) -> float:
    """d_n = sqrt(lam) where lam is the (n+1-r)-th largest eigenvalue."""
    if r < 1 or n < r:
        raise ValidationError(f"need n >= r >= 1, got n={n}, r={r}")
    if lam <= 0:
        raise ValidationError(f"eigenvalue must be positive, got {lam}")
    return math.sqrt(lam)


def proven_bounds(r: int, n: int, interval: Interval) -> tuple[float, float]:
    """Proven bracket [(n-r+1)pi/(b-a), n*pi/(b-a)] for d_n^(-1/r)."""
    if r < 1 or n < r:
        raise ValidationError(f"need n >= r >= 1, got n={n}, r={r}")
    span = interval.span
    return (n - r + 1) * math.pi / span, n * math.pi / span


def conjecture_value(r: int, n: int, interval: Interval) -> float:
    """Conjectured limit (n-(r-1)/2)pi/(b-a) of d_n^(-1/r), the bracket midpoint."""
    if r < 1 or n < r:
        raise ValidationError(f"need n >= r >= 1, got n={n}, r={r}")
    return (n - (r - 1) / 2) * math.pi / interval.span


def rows_from_eigenvalues(
    r: int, n_values: Sequence[int], m: int, interval: Interval, lambdas: np.ndarray
) -> list[NWidthResult]:
    """Tabulate results for the given ranks from precomputed eigenvalues.

    d_n^(-1/r) is computed as one root extraction of the eigenvalue,
    lam^(-1/(2r)), rather than through d_n itself.  Rows whose eigenvalue
    is nonpositive, ties its predecessor, or falls below the float64
    precision floor are flagged instead of trusted.
    """
    lam1 = lambdas[0]
    rows = []
    for n in n_values:
        k = n + 1 - r
        if not 1 <= k <= len(lambdas):
            raise ValidationError(f"rank {k} for n={n} not among the {len(lambdas)} computed")
        lam = lambdas[k - 1]
        lower, upper = proven_bounds(r, n, interval)
        conj = conjecture_value(r, n, interval)
        flag = ""
        if lam <= 0:
            rows.append(
                NWidthResult(r, n, m, math.nan, math.nan, lower, upper, conj, math.nan, "nonpositive")
            )
            continue
        if k >= 2 and lambdas[k - 2] - lam <= TIE_REL_TOL * lambdas[k - 2]:
            flag = "non-monotone"
        elif lam < PRECISION_FLOOR * lam1:
            flag = "precision-limited"
        d_n = math.sqrt(lam)
        dn_inv_r = 1.0 / lam ** (1.0 / (2 * r))
        rel_err = abs(dn_inv_r - conj) / conj
        rows.append(NWidthResult(r, n, m, d_n, dn_inv_r, lower, upper, conj, rel_err, flag))
    return rows


def nwidth_rows(r: int, n_values: Sequence[int], m: int, interval: Interval) -> list[NWidthResult]:
    """One assembly and one top-k eigensolve covering all requested n."""
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValidationError("need at least one n")
    if min(n_values) < r:
        raise ValidationError(f"every n must satisfy n >= r={r}, got {min(n_values)}")
    count = max(n_values) + 1 - r
    system = assemble(Kernel(r, interval), build_grid(interval, m))
    lambdas = top_eigenvalues(system, count)
    return rows_from_eigenvalues(r, n_values, m, interval, lambdas)


def conjecture_table(r_max: int = 20, m: int = 2047, interval: Interval | None = None) -> list[NWidthResult]:
    """Relative differences to the conjectured value for r=1..r_max, n=r+TABLE_OFFSETS."""
    if r_max < 1:
        raise ValidationError("r_max must be >= 1")
    if interval is None:
        interval = Interval(0.0, 1.0)
    rows = []
    for r in range(1, r_max + 1):
        rows.extend(nwidth_rows(r, [r + o for o in TABLE_OFFSETS], m, interval))
    return rows


def _cells(rows: Iterable[NWidthResult]) -> list[tuple]:
    return [astuple(row) for row in rows]


def results_records(rows: Iterable[NWidthResult]) -> list[dict]:
    return records(CSV_HEADER, _cells(rows))


def results_csv(rows: Iterable[NWidthResult]) -> str:
    return write_rows(CSV_HEADER, _cells(rows), "csv")
