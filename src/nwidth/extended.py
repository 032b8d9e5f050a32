"""Eigenpair refinement beyond float64, on the kernel's generators in double-double.

A float64 eigenvector of the collocation matrix is accurate only to about
eps * lambda_1 / gap_k of its maximum, which at high rank (lambda_k/lambda_1
near 1e-13) leaves its small samples, and the zeros near them, without a
single correct digit.  This module carries about 32 significant digits
instead: every number is an unevaluated sum hi + lo of two float64 arrays
(double-double; Dekker 1971, Hida, Li and Bailey 2001).

The operator is that of the run's own `NystromSystem`, held on its rank-r
generators: on the integer nodes k = 1..m of [0, m+1] the [0, 1] matrix
is, on and above its diagonal, A_kl = s sum_i X_i(k) Y_i(l) with

    X_i(k) = k^(r+i) (m+1-k)^(r-1-i),   s = 1 / ((2r-1)! (m+1)^(4r-1)),
    Y_i(l) = (-1)^i C(2r-1, r-1-i) l^(r-1-i) (m+1-l)^(r+i).

With 2^e > m+1 every k 2^-e is exact in float64; X_i is formed from
the powers of these bases in double-double (each power the one before
times the base), Y_i as (-1)^i C(2r-1, r-1-i) X_i(m+1-l), and s, with
the powers of two put back, is rounded once from exact integers.  A
product is two cumulative sums over the nodes, each a log-depth scan in
double-double (Hillis and Steele, *Comm. ACM* 29, 1986): O(m r) memory,
no m x m array.

`ExtendedSystem.refine` runs residual-correction iterations: the residual
is formed in double-double, and the correction is solved in float64 on
the leading K = max(3 k_max, MIN_BASIS) pairs of the run's system, solved
once for every rank up to k_max, with the matrix taken as zero on their
complement.  Each step shrinks the error by about
eps lambda_1 / gap_k + lambda_(K+1) / lambda_k, so ranks whose gap
exceeds the float64 resolution of lambda_1 converge to double-double
accuracy; for the others the refinement raises.
"""

from __future__ import annotations

import math

import numpy as np

from .eigensolver import GAP_MARGIN, MIN_BASIS, Eigenpair, _solve
from .errors import NumericalError, ValidationError
from .nystrom import NystromSystem

_EPS = float(np.finfo(np.float64).eps)
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's splitting constant
#: Bound on the error of the double-double product with the exact matrix,
#: per unit of lambda_1 ||x|| (2-norms).  The generators alternate in sign,
#: so it is normwise, not entrywise: measured at most 0.43 eps^2 against
#: exact rational entries (r = 1, 3, 7, 12, 20; m = 9, 31) and 0.93 eps^2
#: against the de Boor double-double matrix of the tests (r = 1, 4, 10, 20;
#: m = 240, 500).  Each generator lies within a few eps^2 of its exact
#: value (at most 1.1 eps^2 over r = 1..20, m = 9..2047, sampled).
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


class ExtendedSystem:
    """A run's `NystromSystem` in double-double, with the float64 pairs that refine its ranks up to k_max."""

    def __init__(self, system: NystromSystem, k_max: int):
        r, m = system.kernel.r, system.grid.m
        self.r, self.m, self.k_max = r, m, min(k_max, m)
        n = m + 1
        e = n.bit_length()  # 2^e > n: every base k 2^-e and (n-k) 2^-e is exact
        u = np.ldexp(np.arange(1.0, n), -e)
        Ph, Pl = np.ones((2 * r, m)), np.zeros((2 * r, m))
        for j in range(1, 2 * r):
            Ph[j], Pl[j] = _mul(Ph[j - 1], Pl[j - 1], u, 0.0)
        up = np.arange(r, 2 * r)
        down = up[::-1] - r
        # the powers of (n-k) 2^-e are those of k 2^-e, reversed
        self.Xh, self.Xl = _mul(Ph[up], Pl[up], Ph[down, ::-1], Pl[down, ::-1])
        coef = np.array([[(-1) ** i * math.comb(2 * r - 1, r - 1 - i)] for i in range(r)], dtype=float)
        # Y_i(l) = coef_i X_i(n-l), by persymmetry
        self.Yh, self.Yl = _mul(coef, 0.0, self.Xh[:, ::-1], self.Xl[:, ::-1])
        # s times the 2^(2e(2r-1)) taken out; int / int is correctly rounded
        num, den = 2 ** (2 * e * (2 * r - 1)), math.factorial(2 * r - 1) * n ** (4 * r - 1)
        hi = num / den
        p, q = hi.as_integer_ratio()
        self.scale = hi, (num * q - p * den) / (den * q)
        self.values, self.vectors = _solve(system, min(max(3 * k_max, MIN_BASIS), m), vectors=True)

    def matvec(self, xh: np.ndarray, xl: np.ndarray):
        """A (xh + xl) in double-double, from two cumulative sums over the nodes.

            (A x)_k = s (X_k . sum_{l>=k} Y_l x_l  +  Y_k . sum_{l<k} X_l x_l)
        """
        Xh, Xl, Yh, Yl = self.Xh, self.Xl, self.Yh, self.Yl
        th, tl = _cumsum(*_mul(Yh[:, ::-1], Yl[:, ::-1], xh[::-1], xl[::-1]))
        yh, yl = _mul(Xh, Xl, th[:, ::-1], tl[:, ::-1])
        hh, hl = _cumsum(*_mul(Xh[:, :-1], Xl[:, :-1], xh[:-1], xl[:-1]))
        yh[:, 1:], yl[:, 1:] = _add(yh[:, 1:], yl[:, 1:], *_mul(Yh[:, 1:], Yl[:, 1:], hh, hl))
        yh, yl = _cumsum(yh.T, yl.T)
        return _mul(yh[:, -1], yl[:, -1], *self.scale)

    def _residual(self, xh, xl):
        """Rayleigh quotient theta of x and the residual A x - theta x, in double-double."""
        yh, yl = self.matvec(xh, xl)
        th, tl = _div(*_dot(xh, xl, yh, yl), *_dot(xh, xl, xh, xl))
        ph, pl = _mul(th, tl, xh, xl)
        rh, rl = _add(yh, yl, -ph, -pl)
        return th, rh + rl

    def refine(self, pair: Eigenpair) -> Eigenpair:
        """The rank-k eigenpair of the exact [0, 1] collocation matrix, to double-double accuracy.

        `pair` is the float64 pair of the same rank, at most k_max; the
        result is oriented like it.  Raises NumericalError when the rank's eigenvalue gap is
        within the float64 resolution of lambda_1, where no float64
        correction converges, and when `pair` is not this rank of this
        system: its eigenvalue must lie nearer to the rank's eigenvalue than
        to any other, and its samples within their bound of the refined ones.
        """
        m = self.m
        k = pair.index
        if not 1 <= k <= self.k_max or len(pair.vector) != m:
            raise ValidationError(f"no rank-{k} pair with {len(pair.vector)} samples in a system with m={m} "
                                  f"and ranks up to {self.k_max}")
        beyond = f"rank {k} is beyond float64 precision"
        if not np.isfinite(pair.error_bound):
            raise NumericalError(f"{beyond}: its float64 eigenvalue gap is within rounding")
        w, Q = self.values, self.vectors
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
