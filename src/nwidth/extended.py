"""Double-double collocation matrix and eigenpair refinement beyond float64.

A float64 eigenvector of the collocation matrix is accurate only to about
eps * lambda_1 / gap_k of its maximum, which at high rank (lambda_k/lambda_1
near 1e-13) leaves its small samples, and the zeros near them, without a
single correct digit.  This module carries about 32 significant digits
instead: every number is an unevaluated sum hi + lo of two float64 arrays
(double-double; Dekker 1971, Hida, Li and Bailey 2001).

The matrix is assembled on the unit interval with exact uniform nodes
t_i = i/(m+1), like the float64 matrix of `nwidth.nystrom` on which every
interval is solved.  Every coefficient of de Boor's recurrence there is a
ratio of integers, and the recurrence only forms convex combinations of
nonnegative numbers, so the double-double entries carry a relative error
of a few units of 2^-104.

`ExtendedSystem.refine` runs residual-correction iterations: the residual is
formed in double-double against that matrix, and the correction is solved
in float64 through the full eigendecomposition of its leading part.  Each
step shrinks the error by about eps * lambda_1 / gap_k, so ranks whose gap
exceeds the float64 resolution of lambda_1 converge to double-double
accuracy; for the others the refinement raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

from .eigensolver import GAP_MARGIN, Eigenpair
from .errors import NumericalError, ValidationError

_EPS = float(np.finfo(np.float64).eps)
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's splitting constant
#: Relative accuracy of a double-double entry (a few units of 2^-104).
DD_ENTRY_REL = 64 * _EPS * _EPS
#: Upper-triangle entries per vectorised block of the assembly.
_BLOCK = 1 << 15
#: Rows per block of the double-double matrix-vector product.
_ROWS = 64
#: Cap on residual-correction steps; each one shrinks the error at least twofold.
MAX_STEPS = 40


# ---------------------------------------------------------------- arithmetic


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    return _two_sum(s, e + (al + bl))


def _mul(ah, al, bh, bl):
    p, e = _two_prod(ah, bh)
    return _two_sum(p, e + (ah * bl + al * bh))


def _div(ah, al, bh, bl):
    q = ah / bh
    ph, pl = _mul(q, 0.0, bh, bl)
    rh, rl = _add(ah, al, -ph, -pl)
    return _two_sum(q, (rh + rl) / bh)


def _ratio(p, q):
    """Integer arrays p/q as double-double (p, q exact in float64)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    hi = p / q
    ph, pl = _two_prod(hi, q)
    return hi, ((p - ph) - pl) / q


def _dd_of(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))


def _rowsum(hi, lo):
    """Row sums of double-double matrices by pairwise double-double addition."""
    while hi.shape[1] > 1:
        if hi.shape[1] % 2:
            pad = np.zeros((hi.shape[0], 1))
            hi = np.hstack((hi, pad))
            lo = np.hstack((lo, pad))
        hi, lo = _add(hi[:, 0::2], lo[:, 0::2], hi[:, 1::2], lo[:, 1::2])
    return hi[:, 0], lo[:, 0]


def _dot(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _rowsum(p[None, :], e[None, :])


# ---------------------------------------------------------------- assembly


def _bspline_dd(r: int, i: np.ndarray, j: np.ndarray, n: int):
    """B[0,..,0,t_j,1,..,1](t_i) on nodes t = k/n, for i <= j, in double-double.

    De Boor's triangle for the B-spline form of the kernel, with every
    ratio of node differences written as a ratio of integers.
    """
    p = 2 * r - 1
    ay = _ratio(i, j)
    by = _ratio(j - i, j)
    ab = _ratio(i, np.full(i.shape, n))
    bb = _ratio(n - i, np.full(i.shape, n))
    dh = np.zeros((p + 1,) + i.shape)
    dl = np.zeros((p + 1,) + i.shape)
    dh[r] = 1.0
    for lev in range(1, p + 1):
        for k in range(min(p, r + lev), max(lev, r) - 1, -1):
            al, be = (ay, by) if k == lev else (ab, bb)
            uh, ul = _mul(be[0], be[1], dh[k - 1], dl[k - 1])
            vh, vl = _mul(al[0], al[1], dh[k], dl[k])
            dh[k], dl[k] = _add(uh, ul, vh, vl)
    return dh[p], dl[p]


def assemble_dd(r: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The collocation matrix h * g(t_k, t_l) on [0, 1] as hi + lo float64 matrices.

    g(x, y) = g(1-y, 1-x), so only the entries with k <= l and
    k + l <= m+1 are evaluated and the rest are mirrored, which makes the
    result exactly persymmetric.
    """
    n = m + 1
    # prefactor h * t^r (1-t)^r / (2r-1)! of column t = j/n, exact then rounded
    den = n ** (2 * r + 1) * factorial(2 * r - 1)
    scale = np.array([_dd_of(Fraction(j**r * (n - j) ** r, den)) for j in range(1, m + 1)])
    iu, ju = np.triu_indices(m)
    keep = iu + ju <= m - 1
    iu, ju = iu[keep], ju[keep]
    hi = np.zeros((m, m))
    lo = np.zeros((m, m))
    for start in range(0, iu.size, _BLOCK):
        rows, cols = iu[start : start + _BLOCK], ju[start : start + _BLOCK]
        bh, bl = _bspline_dd(r, rows + 1, cols + 1, n)
        hi[rows, cols], lo[rows, cols] = _mul(scale[cols, 0], scale[cols, 1], bh, bl)
    for part in (hi, lo):
        part[m - 1 - ju, m - 1 - iu] = part[iu, ju]
        part += np.triu(part, 1).T
    return hi, lo


def matvec_dd(hi: np.ndarray, lo: np.ndarray, xh: np.ndarray, xl: np.ndarray):
    """(hi + lo) @ (xh + xl) in double-double."""
    m = hi.shape[0]
    yh = np.empty(m)
    yl = np.empty(m)
    for start in range(0, m, _ROWS):
        block = hi[start : start + _ROWS]
        p, e = _two_prod(block, xh)
        yh[start : start + _ROWS], yl[start : start + _ROWS] = _rowsum(p, e)
    small = hi @ xl + lo @ xh
    return _add(yh, yl, small, np.zeros(m))


# ---------------------------------------------------------------- refinement


class ExtendedSystem:
    """The double-double matrix of one (r, m) and the float64 eigendecomposition of its hi part.

    Both are built on the first `refine` call and reused by later ones.
    """

    def __init__(self, r: int, m: int):
        self.r = r
        self.m = m
        self.hi = self.lo = self.values = self.vectors = None

    def _build(self) -> None:
        if self.hi is None:
            self.hi, self.lo = assemble_dd(self.r, self.m)
            self.values, self.vectors = np.linalg.eigh(self.hi)

    def _residual(self, xh, xl):
        """Rayleigh quotient theta of x and the residual A x - theta x, in double-double."""
        yh, yl = matvec_dd(self.hi, self.lo, xh, xl)
        th, tl = _div(*_dot(xh, xl, yh, yl), *_dot(xh, xl, xh, xl))
        ph, pl = _mul(th[0], tl[0], xh, xl)
        rh, rl = _add(yh, yl, -ph, -pl)
        return th[0], rh + rl

    def _gap(self, pos: int, theta: float) -> float:
        """Distance from theta to the other eigenvalues."""
        others = np.delete(self.values, pos)
        return float(np.abs(others - theta).min()) if others.size else float(self.values[-1])

    def refine(self, pair: Eigenpair) -> Eigenpair:
        """The rank-k eigenpair of the exact [0, 1] collocation matrix, to double-double accuracy.

        `pair` is the float64 pair of the same rank; the result is oriented
        like it.  Raises NumericalError when the rank's eigenvalue gap is
        within the float64 resolution of lambda_1, where no float64
        correction converges, and when `pair` is not this rank of this
        system: its eigenvalue must lie nearer to the rank's eigenvalue than
        to any other, and its samples within their bound of the refined ones.
        """
        m = self.m
        k = pair.index
        if not 1 <= k <= m or len(pair.vector) != m:
            raise ValidationError(f"no rank-{k} pair with {len(pair.vector)} samples in a system with m={m}")
        beyond = f"rank {k} is beyond float64 precision"
        if not np.isfinite(pair.error_bound):
            raise NumericalError(f"{beyond}: its float64 eigenvalue gap is within rounding")
        self._build()
        w, Q = self.values, self.vectors
        pos = m - k
        lam1 = w[-1]
        margin = GAP_MARGIN * _EPS * lam1
        gap = self._gap(pos, w[pos])
        if gap <= 2 * margin:
            raise NumericalError(
                f"{beyond}: its eigenvalue gap {gap / lam1:.1e}*lambda_1 is below the "
                f"{2 * margin / lam1:.1e}*lambda_1 that a float64 correction resolves"
            )
        mismatch = f"the float64 pair is not the rank-{k} eigenpair of the r={self.r} matrix with m={m}"
        if not abs(pair.value - w[pos]) < gap / 2:
            raise NumericalError(
                f"{mismatch}: its eigenvalue {pair.value:.6e} is not nearest to {w[pos]:.6e}"
            )
        xh = Q[:, pos] if np.dot(Q[:, pos], pair.vector) >= 0 else -Q[:, pos]
        xl = np.zeros(m)
        previous = np.inf
        for _ in range(MAX_STEPS):
            theta, resid = self._residual(xh, xl)
            denom = w - theta
            denom[pos] = np.inf
            delta = -(Q @ ((Q.T @ resid) / denom))
            xh, xl = _add(xh, xl, delta, 0.0)
            size = float(np.linalg.norm(delta))
            if size > previous / 2:
                break  # converged to the double-double noise level
            previous = size
        theta, resid = self._residual(xh, xl)
        # The matrix is entrywise positive, so its entrywise relative error
        # DD_ENTRY_REL bounds its norm error by DD_ENTRY_REL * lambda_1.
        residual = float(np.linalg.norm(resid)) + DD_ENTRY_REL * lam1 * float(np.linalg.norm(xh))
        peak = float(np.abs(xh).max())
        # in units of the largest sample, plus the rounding of the samples to float64
        bound = residual / (self._gap(pos, theta) - margin) / peak + _EPS
        vh, _ = _div(xh, xl, peak, 0.0)
        # both sample sets lie within their bounds of the exact eigenvector
        moved = float(np.abs(vh - pair.vector).max())
        if not moved <= pair.error_bound + bound:
            raise NumericalError(
                f"{mismatch}: its samples lie {moved:.1e} from the refined ones, "
                f"beyond their bound {pair.error_bound:.1e}"
            )
        vh.setflags(write=False)
        return Eigenpair(index=k, value=float(theta), vector=vh, error_bound=bound)
