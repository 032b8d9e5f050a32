"""Eigenpair refinement beyond float64, on the kernel's generators in double-double.

A float64 eigenvector of the collocation matrix is accurate only to about
eps * lambda_1 / gap_k of its maximum, which at high rank (lambda_k/lambda_1
near 1e-13) leaves its small samples, and the zeros near them, without a
single correct digit.  This module carries about 32 significant digits
instead: every number is an unevaluated sum hi + lo of two float64 arrays
(double-double; Dekker 1971, Hida, Li and Bailey 2001).

The operator is the one `nwidth.nystrom` solves, on its rank-r
generators: on the integer nodes k = 1..m of [0, m+1] the [0, 1] matrix
is, on and above its diagonal, A_kl = s sum_i X_i(k) Y_i(l) with

    X_i(k) = k^(r+i) (m+1-k)^(r-1-i),   s = 1 / ((2r-1)! (m+1)^(4r-1)),
    Y_i(l) = (-1)^i C(2r-1, r-1-i) l^(r-1-i) (m+1-l)^(r+i).

Each generator is formed exactly as a Python integer and split into
hi + lo after a power-of-two scaling, and s is applied once.  A product
is the two cumulative sums of `NystromSystem.matvec`, each a log-depth
scan in double-double (Hillis and Steele, *Comm. ACM* 29, 1986): O(m r)
memory, no m x m array.

`ExtendedSystem.refine` runs residual-correction iterations: the residual
is formed in double-double, and the correction is solved in float64 on
the leading K = max(3k, MIN_BASIS) pairs of the float64 Lanczos solver,
with the matrix taken as zero on their complement.  Each step shrinks
the error by about eps lambda_1 / gap_k + lambda_(K+1) / lambda_k, so
ranks whose gap exceeds the float64 resolution of lambda_1 converge to
double-double accuracy; for the others the refinement raises.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .eigensolver import GAP_MARGIN, MIN_BASIS, Eigenpair, _solve
from .errors import NumericalError, ValidationError
from .kernel import Interval, Kernel
from .nystrom import assemble, build_grid

_EPS = float(np.finfo(np.float64).eps)
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's splitting constant
#: Bound on the error of the double-double product with the exact matrix,
#: per unit of lambda_1 ||x|| (2-norms).  The generators alternate in sign,
#: so it is normwise, not entrywise: measured at most 0.40 eps^2 against
#: exact rational entries (r = 1, 3, 7, 12, 20; m = 9, 31) and 0.88 eps^2
#: against the de Boor double-double matrix of the tests (r = 1, 4, 10, 20;
#: m = 240, 500).
DD_ENTRY_REL = 64 * _EPS * _EPS
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


def _dd_of(x: Fraction) -> tuple[float, float]:
    hi = float(x)
    return hi, float(x - Fraction(hi))


def _dot(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    h, l = _cumsum(p, e + (xh * yl + xl * yh))
    return h[-1], l[-1]


def _cumsum(hi, lo):
    """Inclusive cumulative sums along the last axis, in double-double.

    Hillis and Steele's scan: for d = 1, 2, 4, ... a vectorised pass adds
    to every entry the partial sum d places before it, so log2(m) passes
    cover m entries.
    """
    hi, lo = hi.copy(), lo.copy()
    d = 1
    while d < hi.shape[-1]:
        hi[..., d:], lo[..., d:] = _add(hi[..., d:], lo[..., d:], hi[..., :-d], lo[..., :-d])
        d *= 2
    return hi, lo


# ---------------------------------------------------------------- generators


def _hi_lo(v: int, e: int, den: int) -> tuple[float, float]:
    # the leading 53 bits of v, exact, and the rest, rounded once
    t = max(v.bit_length() - 53, 0)
    top = v >> t
    return math.ldexp(top, t - e), (v - (top << t)) / den


def _generator(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray, int]:
    """Integers times 2^-e as hi + lo arrays, for the e that puts the largest in [1/2, 1).

    hi holds each integer's leading 53 bits and lo the rest, rounded once,
    so hi + lo carries it to a relative 2^-105, also where the integer
    itself lies beyond the float64 range.
    """
    e = max(abs(v) for row in rows for v in row).bit_length()
    den = 1 << e
    hi = np.empty((len(rows), len(rows[0])))
    lo = np.empty_like(hi)
    for i, row in enumerate(rows):
        hi[i], lo[i] = np.array([_hi_lo(v, e, den) for v in row]).T
    return hi, lo, e


class ExtendedSystem:
    """The [0, 1] collocation matrix of (r, m) as double-double generators, and float64 eigenpairs.

    The generators are formed on construction; the eigenpairs on the first
    `refine` call, again only when a later rank needs more of them.
    """

    def __init__(self, r: int, m: int):
        self.r = r
        self.m = m
        n = m + 1
        ks = range(1, n)
        coef = [(-1) ** i * math.comb(2 * r - 1, r - 1 - i) for i in range(r)]
        self.Xh, self.Xl, ex = _generator([[k ** (r + i) * (n - k) ** (r - 1 - i) for k in ks]
                                           for i in range(r)])
        self.Yh, self.Yl, ey = _generator([[coef[i] * k ** (r - 1 - i) * (n - k) ** (r + i) for k in ks]
                                           for i in range(r)])
        self.scale = _dd_of(Fraction(2 ** (ex + ey), math.factorial(2 * r - 1) * n ** (4 * r - 1)))
        self.values = self.vectors = None

    def matvec(self, xh: np.ndarray, xl: np.ndarray):
        """A (xh + xl) in double-double, from the two cumulative sums of `NystromSystem.matvec`.

            (A x)_k = s (X_k . sum_{l>=k} Y_l x_l  +  Y_k . sum_{l<k} X_l x_l)
        """
        Xh, Xl, Yh, Yl = self.Xh, self.Xl, self.Yh, self.Yl
        th, tl = _cumsum(*_mul(Yh[:, ::-1], Yl[:, ::-1], xh[::-1], xl[::-1]))
        yh, yl = _mul(Xh, Xl, th[:, ::-1], tl[:, ::-1])
        hh, hl = _cumsum(*_mul(Xh[:, :-1], Xl[:, :-1], xh[:-1], xl[:-1]))
        yh[:, 1:], yl[:, 1:] = _add(yh[:, 1:], yl[:, 1:], *_mul(Yh[:, 1:], Yl[:, 1:], hh, hl))
        yh, yl = _cumsum(yh.T, yl.T)
        return _mul(yh[:, -1], yl[:, -1], *self.scale)

    def _pairs(self, k: int):
        """The float64 eigenpairs of the leading K = max(3k, MIN_BASIS) ranks (at most m), descending."""
        count = min(max(3 * k, MIN_BASIS), self.m)
        if self.values is None or self.values.size < count:
            unit = Interval(0.0, 1.0)
            system = assemble(Kernel(self.r, unit), build_grid(unit, self.m))
            self.values, self.vectors = _solve(system, count, vectors=True)
        return self.values, self.vectors

    def _residual(self, xh, xl):
        """Rayleigh quotient theta of x and the residual A x - theta x, in double-double."""
        yh, yl = self.matvec(xh, xl)
        th, tl = _div(*_dot(xh, xl, yh, yl), *_dot(xh, xl, xh, xl))
        ph, pl = _mul(th, tl, xh, xl)
        rh, rl = _add(yh, yl, -ph, -pl)
        return th, rh + rl

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
        w, Q = self._pairs(k)
        pos = k - 1
        lam1 = w[0]
        margin = GAP_MARGIN * _EPS * lam1

        def gap(theta):
            # distance to the other eigenvalues; the rest of the spectrum lies below w[-1]
            others = np.delete(w, pos)
            return float(np.abs(others - theta).min()) if others.size else float(lam1)

        gap_k = gap(w[pos])
        if gap_k <= 2 * margin:
            raise NumericalError(
                f"{beyond}: its eigenvalue gap {gap_k / lam1:.1e}*lambda_1 is below the "
                f"{2 * margin / lam1:.1e}*lambda_1 that a float64 correction resolves"
            )
        mismatch = f"the float64 pair is not the rank-{k} eigenpair of the r={self.r} matrix with m={m}"
        if not abs(pair.value - w[pos]) < gap_k / 2:
            raise NumericalError(
                f"{mismatch}: its eigenvalue {pair.value:.6e} is not nearest to {w[pos]:.6e}"
            )
        xh = Q[:, pos] if np.dot(Q[:, pos], pair.vector) >= 0 else -Q[:, pos]
        xl = np.zeros(m)
        previous = np.inf
        for _ in range(MAX_STEPS):
            theta, resid = self._residual(xh, xl)
            # (A - theta)^-1 on the leading pairs, less the pair's own term, and
            # -1/theta on their complement, where A is taken as 0
            denom = w - theta
            denom[pos] = np.inf
            coef = Q.T @ resid
            delta = (resid - Q @ coef) / theta - Q @ (coef / denom)
            xh, xl = _add(xh, xl, delta, 0.0)
            size = float(np.linalg.norm(delta))
            if size > previous / 2:
                break  # converged to the double-double noise level
            previous = size
        theta, resid = self._residual(xh, xl)
        # the product is within DD_ENTRY_REL * lambda_1 * ||x|| of the exact one
        residual = float(np.linalg.norm(resid)) + DD_ENTRY_REL * lam1 * float(np.linalg.norm(xh))
        peak = float(np.abs(xh).max())
        # in units of the largest sample, plus the rounding of the samples to float64
        bound = residual / (gap(theta) - margin) / peak + _EPS
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
