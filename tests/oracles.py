"""Independent reference computations used only by the tests.

Everything here is deliberately written apart from the package code
paths: a Jacobi-rotation eigensolver, a Cox-de Boor evaluator of a
single B-spline, the de Boor form of the kernel and its collocation
matrix (in float64, and in double-double with the dense refinement of
eigenpairs against it), LAPACK's dense symmetric eigensolver (eigenvalues, and
eigenpairs with their sample error bounds), a per-sample scan for the
sign-change brackets of the knots, scipy's brentq polish of a knot on its
local cubic, closed-form kernels, a piecewise-polynomial
construction of the Green's function, the exact eigenvalues of the r=1
collocation matrix, continuum eigenfrequency references for r in
{2, 3, 4}, and two mpmath references: a continuum eigenfrequency solver
for any r and extended-precision Ritz values of the collocation matrix.
mpmath is imported only by the functions that use it.
"""

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from nwidth.eigensolver import GAP_MARGIN, Eigenpair
from nwidth.errors import NumericalError, ValidationError
from nwidth.extended import DD_ENTRY_REL, MAX_STEPS, _add, _div, _dot, _mul, _two_prod
from nwidth.knots import _Unresolved


def jacobi_eigh(A, max_sweeps=30, tol=1e-15):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns (eigenvalues descending, eigenvectors as matching columns).
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, (A * A).sum() - (np.diag(A) ** 2).sum()))
        if off <= tol * np.linalg.norm(A):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                diff = A[q, q] - A[p, p]
                # a rotation by t ~ apq / diff below rounding is the identity,
                # and theta = diff / (2 apq) could overflow
                if abs(diff) + 100.0 * abs(apq) == abs(diff):
                    continue
                theta = diff / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    order = np.argsort(np.diag(A))[::-1]
    return np.diag(A)[order], V[:, order]


# A single B-spline from an explicit knot sequence t_0 <= ... <= t_{p+1}
# (degree p = #knots - 2), by the Cox-de Boor recurrence in de Boor's
# triangular form.  The knot sequence is embedded in a padded local basis,
# p+1 copies of an artificial knot strictly below the first knot and
# strictly above the last one, which makes the target spline one
# identifiable member of that basis; only its coefficient is set to 1.


@dataclass(frozen=True)
class KnotVector:
    """Nondecreasing knot sequence with an associated polynomial degree.

    With the default degree len(knots) - 2 the vector defines a single
    B-spline; a longer vector with an explicit degree describes a local
    basis whose members are the length p+2 windows of the sequence.
    """

    knots: tuple[float, ...]
    degree: int | None = None

    def __post_init__(self):
        knots = tuple(float(t) for t in self.knots)
        if len(knots) < 2:
            raise ValueError("a knot vector needs at least 2 knots")
        if any(right < left for left, right in zip(knots, knots[1:])):
            raise ValueError("knots must be nondecreasing")
        if knots[-1] == knots[0]:
            raise ValueError("all knots equal: the B-spline support is empty")
        degree = self.degree
        if degree is None:
            degree = len(knots) - 2
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(knots) < degree + 2:
            raise ValueError(
                f"degree {degree} needs at least {degree + 2} knots, got {len(knots)}"
            )
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "degree", degree)


def _padded(knots: tuple[float, ...], p: int) -> tuple[float, ...]:
    offset = max(1.0, knots[-1] - knots[0])
    return ((knots[0] - offset,) * (p + 1)) + knots + ((knots[-1] + offset,) * (p + 1))


def _deboor(T, p: int, span: int, x: float) -> float:
    # unit coefficient on basis member p+1, i.e. the unpadded spline
    d = [1.0 if span - p + j == p + 1 else 0.0 for j in range(p + 1)]
    for lev in range(1, p + 1):
        for j in range(p, lev - 1, -1):
            tl = T[j + span - p]
            tr = T[j + span + 1 - lev]
            alpha = (x - tl) / (tr - tl)
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[p]


def bspline_eval(kv: KnotVector, x: float) -> float:
    """Value at x of the single B-spline whose knot sequence is kv.knots.

    The spline is right-continuous at interior knots and supported on
    [first knot, last knot]; outside the support the value is 0.  At x
    equal to the last knot the left-limit value is returned, so a spline
    ending in a full-multiplicity knot keeps its limit there while all
    others vanish.
    """
    t = kv.knots
    p = kv.degree
    if len(t) != p + 2:
        raise ValueError(
            f"single B-spline evaluation needs len(knots) == degree + 2, "
            f"got {len(t)} knots for degree {p}"
        )
    x = float(x)
    if x < t[0] or x > t[-1]:
        return 0.0
    T = _padded(t, p)
    if x == t[-1]:
        # evaluate the polynomial piece left of the last knot
        span = bisect_left(T, x) - 1
    else:
        span = bisect_right(T, x) - 1
    return _deboor(T, p, span, x)


# The de Boor form of the kernel: for x <= y,
#     g(x, y) = (y-a)^r (b-y)^r / ((2r-1)! (b-a)) * B[a,..,a,y,b,..,b](x),
# a scaled B-spline in x with r copies of each endpoint around the
# interior knot y.  It is the package's former assembly path, kept as the
# reference that the closed-form assembly is gated against.

MAX_R = 20


def factorial_scale(r, y, interval, *, allow_any_r=False):
    """Scalar prefactor (y-a)^r (b-y)^r / ((2r-1)! (b-a)).

    Multiplications and divisions are interleaved so the intermediate
    products stay far from float64 overflow and underflow for r <= 20.
    """
    if r < 1 or (r > MAX_R and not allow_any_r):
        raise ValueError(
            f"r={r} outside the supported range [1, {MAX_R}] "
            "(pass allow_any_r=True to override)"
        )
    a, b = interval.a, interval.b
    if y < a or y > b:
        raise ValueError(f"y={y} outside [{a}, {b}]")
    acc = (y - a) * (b - y) / (b - a)
    for j in range(2, r + 1):
        acc *= (y - a) / (2 * j - 1)
        acc *= (b - y) / (2 * j - 2)
    return acc


def bspline_factor(r, a, b, y, xs):
    """B[a,..,a,y,b,..,b](xs) with r copies of a and b, for points xs <= y.

    Every point lies in the knot span ending at y, so de Boor's triangle
    runs with the left knot a in every division and the right knot y
    exactly when the inner index equals the level.  y may be an array
    matching xs, one knot per point.
    """
    p = 2 * r - 1
    xs = np.asarray(xs, dtype=float)
    ay = (xs - a) / (y - a)
    by = (y - xs) / (y - a)
    ab = (xs - a) / (b - a)
    bb = (b - xs) / (b - a)
    d = np.zeros((p + 1,) + xs.shape)
    d[r] = 1.0
    for lev in range(1, p + 1):
        for j in range(min(p, r + lev), max(lev, r) - 1, -1):
            if j == lev:
                al, be = ay, by
            else:
                al, be = ab, bb
            d[j] = be * d[j - 1] + al * d[j]
    return d[p]


def deboor_matrix(r, interval, m):
    """The collocation matrix h * g(xi_k, xi_l) through the de Boor form.

    Nodes a + h*i as a float64 grid forms them; the upper triangle is
    evaluated in one vectorised triangle and mirrored.
    """
    a, b = interval.a, interval.b
    h = (b - a) / (m + 1)
    nodes = a + h * np.arange(m + 2)
    nodes[-1] = b
    inner = nodes[1:-1]
    scale = np.array([factorial_scale(r, y, interval) for y in inner])
    iu, ju = np.triu_indices(m)
    A = np.zeros((m, m))
    A[iu, ju] = h * (scale[ju] * bspline_factor(r, a, b, inner[ju], inner[iu]))
    A += np.triu(A, 1).T
    return A


# The de Boor form in double-double: the collocation matrix on [0, 1]
# with exact nodes t_i = i/(m+1), every coefficient of de Boor's
# recurrence a ratio of integers and the recurrence forming only convex
# combinations of nonnegative numbers, so each entry carries a relative
# error of a few units of 2^-104.  With its dense product and refinement
# through the full eigendecomposition of its leading part, it is the
# package's former refinement path, kept as the reference that the
# refinement on the kernel's generators (`nwidth.extended`) is gated
# against.  The double-double arithmetic is the package's.


def _dd_of(x):
    """A Fraction as double-double."""
    hi = float(x)
    return hi, float(x - Fraction(hi))


def _ratio(p, q):
    """Integer arrays p/q as double-double (p, q exact in float64)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    hi = p / q
    ph, pl = _two_prod(hi, q)
    return hi, ((p - ph) - pl) / q


def _bspline_dd(r, i, j, n):
    """B[0,..,0,t_j,1,..,1](t_i) on nodes t = k/n, for i <= j, in double-double."""
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


@functools.lru_cache(maxsize=8)
def assemble_dd(r, m):
    """The collocation matrix h * g(t_k, t_l) on [0, 1] as read-only hi + lo float64 matrices.

    g(x, y) = g(1-y, 1-x), so only the entries with k <= l and
    k + l <= m+1 are evaluated and the rest are mirrored, which makes the
    result exactly persymmetric.
    """
    n = m + 1
    # prefactor h * t^r (1-t)^r / (2r-1)! of column t = j/n, exact then rounded
    den = n ** (2 * r + 1) * math.factorial(2 * r - 1)
    scale = np.array([_dd_of(Fraction(j**r * (n - j) ** r, den)) for j in range(1, m + 1)])
    iu, ju = np.triu_indices(m)
    keep = iu + ju <= m - 1
    iu, ju = iu[keep], ju[keep]
    hi = np.zeros((m, m))
    lo = np.zeros((m, m))
    block = 1 << 15
    for start in range(0, iu.size, block):
        rows, cols = iu[start : start + block], ju[start : start + block]
        bh, bl = _bspline_dd(r, rows + 1, cols + 1, n)
        hi[rows, cols], lo[rows, cols] = _mul(scale[cols, 0], scale[cols, 1], bh, bl)
    for part in (hi, lo):
        part[m - 1 - ju, m - 1 - iu] = part[iu, ju]
        part += np.triu(part, 1).T
        part.setflags(write=False)
    return hi, lo


def _rowsum(hi, lo):
    """Row sums of double-double matrices by pairwise double-double addition."""
    while hi.shape[1] > 1:
        if hi.shape[1] % 2:
            pad = np.zeros((hi.shape[0], 1))
            hi = np.hstack((hi, pad))
            lo = np.hstack((lo, pad))
        hi, lo = _add(hi[:, 0::2], lo[:, 0::2], hi[:, 1::2], lo[:, 1::2])
    return hi[:, 0], lo[:, 0]


def matvec_dd(hi, lo, xh, xl):
    """(hi + lo) @ (xh + xl) in double-double."""
    m = hi.shape[0]
    yh = np.empty(m)
    yl = np.empty(m)
    for start in range(0, m, 64):
        p, e = _two_prod(hi[start : start + 64], xh)
        yh[start : start + 64], yl[start : start + 64] = _rowsum(p, e)
    small = hi @ xl + lo @ xh
    return _add(yh, yl, small, np.zeros(m))


class DenseExtendedSystem:
    """Refinement against `assemble_dd`, corrected through the full eigendecomposition of its hi part.

    `refine` takes and returns what `nwidth.extended.ExtendedSystem.refine`
    does, and raises where it should: on a mismatched rank, below a gap of
    2 GAP_MARGIN eps lambda_1, and on a pair of another rank or order.
    """

    def __init__(self, r, m):
        self.r = r
        self.m = m
        self.hi, self.lo = assemble_dd(r, m)
        self.values, self.vectors = np.linalg.eigh(self.hi)

    def _residual(self, xh, xl):
        yh, yl = matvec_dd(self.hi, self.lo, xh, xl)
        th, tl = _div(*_dot(xh, xl, yh, yl), *_dot(xh, xl, xh, xl))
        ph, pl = _mul(th, tl, xh, xl)
        rh, rl = _add(yh, yl, -ph, -pl)
        return th, rh + rl

    def _gap(self, pos, theta):
        others = np.delete(self.values, pos)
        return float(np.abs(others - theta).min()) if others.size else float(self.values[-1])

    def refine(self, pair):
        eps = np.finfo(float).eps
        m = self.m
        k = pair.index
        if not 1 <= k <= m or len(pair.vector) != m:
            raise ValidationError(f"no rank-{k} pair with {len(pair.vector)} samples in a system with m={m}")
        if not np.isfinite(pair.error_bound):
            raise NumericalError(f"rank {k} is beyond float64 precision")
        w, Q = self.values, self.vectors
        pos = m - k
        lam1 = w[-1]
        margin = GAP_MARGIN * eps * lam1
        gap = self._gap(pos, w[pos])
        if gap <= 2 * margin:
            raise NumericalError(f"rank {k} is beyond float64 precision")
        if not abs(pair.value - w[pos]) < gap / 2:
            raise NumericalError(f"the float64 pair is not the rank-{k} eigenpair: eigenvalue")
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
                break
            previous = size
        theta, resid = self._residual(xh, xl)
        # the matrix is entrywise positive, so its entrywise relative error
        # DD_ENTRY_REL bounds its norm error by DD_ENTRY_REL * lambda_1
        residual = float(np.linalg.norm(resid)) + DD_ENTRY_REL * lam1 * float(np.linalg.norm(xh))
        peak = float(np.abs(xh).max())
        bound = residual / (self._gap(pos, theta) - margin) / peak + eps
        vh, _ = _div(xh, xl, peak, 0.0)
        if not float(np.abs(vh - pair.vector).max()) <= pair.error_bound + bound:
            raise NumericalError(f"the float64 pair is not the rank-{k} eigenpair: samples")
        return Eigenpair(index=k, value=float(theta), vector=vh, error_bound=bound)


def dense_top_eigenvalues(A, count):
    """The `count` largest eigenvalues of a symmetric matrix, descending, by LAPACK's dense solver."""
    m = A.shape[0]
    return scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=(m - count, m - 1))[::-1]


def dense_top_eigh(A, count):
    """The `count` largest eigenvalues of a symmetric matrix and their vectors, descending, by LAPACK."""
    m = A.shape[0]
    w, v = scipy.linalg.eigh(A, subset_by_index=(m - count, m - 1))
    return w[::-1], v[:, ::-1]


def dense_top_eigenpairs(A, count, r, solved=None):
    """The `count` largest eigenpairs of the [0, 1] matrix A of order r, by LAPACK's dense solver.

    The dense form of `nwidth.eigensolver.top_eigenpairs`: the same
    normalization, checks, sample error bound and orientation (the
    package's `sample_error_bound` and `oriented`), with residuals from
    the formed product A @ V and their limit RESIDUAL_TOL times the
    Frobenius norm of A.  Raises ValueError where the package raises
    NumericalError.  `solved`, the (w, v) of `dense_top_eigh(A, j)` for
    some j > count, saves the solve.
    """
    from nwidth.eigensolver import (
        ASSEMBLY_ROUNDING, ORTHO_TOL, RESIDUAL_TOL, TIE_REL_TOL, Eigenpair, oriented, sample_error_bound,
    )

    size = min(count + 1, A.shape[0])  # one pair beyond the request gives the last pair's lower gap
    w, v = dense_top_eigh(A, size) if solved is None else solved
    w, v = w[:size], v[:, :size]
    if not (np.all(w[:count] > 0) and np.all(np.diff(w[:count]) < -TIE_REL_TOL * w[: count - 1])):
        raise ValueError("nonpositive or tied eigenvalues")
    V = v[:, :count] / np.abs(v[:, :count]).max(axis=0)
    residuals = np.linalg.norm(A @ V - V * w[:count], axis=0)
    if residuals.max() > RESIDUAL_TOL * np.linalg.norm(A, "fro"):
        raise ValueError(f"eigenpair residual {residuals.max():.3e}")
    norms = np.linalg.norm(V, axis=0)
    gram = (V / norms).T @ (V / norms)
    off = np.abs(gram - np.diag(np.diag(gram))).max() if count > 1 else 0.0
    if off > ORTHO_TOL:
        raise ValueError(f"eigenvectors lost orthogonality: {off:.3e}")
    rounding = ASSEMBLY_ROUNDING * (r + 3) * np.finfo(float).eps
    pairs = []
    for k in range(count):
        gap = min(np.abs(np.delete(w, k) - w[k]), default=w[0])
        above = w[k - 1] if k else w[0]
        bound = sample_error_bound(residuals[k], norms[k], gap, w[0], w[k], above, rounding)
        pairs.append(Eigenpair(index=k + 1, value=float(w[k]), vector=oriented(V[:, k], bound),
                               error_bound=bound))
    return pairs


def brackets_reference(vals, m, threshold):
    """The sign-change brackets of `nwidth.knots._brackets`, one node at a time.

    Steps from the first to the last sample of certain sign: an uncertain
    sample between opposite signs widens the bracket by one node, and two
    uncertain samples in a row, or one without a sign change around it,
    raise the same `_Unresolved` as `_brackets`.
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


def local_cubic(nodes, vals, ilo, ihi):
    """The cubic on which `nwidth.knots._refine` polishes the zero of the bracket (ilo, ihi).

    It interpolates the 4 samples nearest the bracket, in units u of the
    mesh size from nodes[ilo].  Returns its coefficients, highest first,
    and the bracket's other end uhi (1 or 2).
    """
    lo = min(max(ilo - 1, 0), len(nodes) - 4)
    gh = nodes[1] - nodes[0]
    u = (nodes[lo : lo + 4] - nodes[ilo]) / gh
    return np.polyfit(u, vals[lo : lo + 4], 3), float((nodes[ihi] - nodes[ilo]) / gh)


def brentq_cubic_root(coeffs, uhi, xtol=1e-300, rtol=4 * np.finfo(float).eps):
    """scipy's brentq on the cubic `coeffs` over [0, uhi]; by default to its finest stop."""
    return brentq(lambda u: float(np.polyval(coeffs, u)), 0.0, uhi, xtol=xtol, rtol=rtol)


def brentq_refine(nodes, vals, ilo, ihi, tol):
    """The zero of the bracket (ilo, ihi) polished by brentq on `local_cubic` to `tol`.

    brentq stops at xtol = tol / gh (floored at 1e-15) and rtol = 8 eps,
    short of float64 precision.  Returns the zero in the coordinates of
    `nodes`.
    """
    coeffs, uhi = local_cubic(nodes, vals, ilo, ihi)
    gh = nodes[1] - nodes[0]
    root = brentq_cubic_root(coeffs, uhi, xtol=max(tol / gh, 1e-15), rtol=8 * np.finfo(float).eps)
    return float(nodes[ilo] + gh * root)


def kernel_r1(a, b, x, y):
    """Closed form of the r=1 kernel."""
    if x > y:
        x, y = y, x
    return (x - a) * (b - y) / (b - a)


def kernel_r2(a, b, x, y):
    """Closed form of the r=2 kernel."""
    if x > y:
        x, y = y, x
    return (x - a) ** 2 * (b - y) ** 2 / (6.0 * (b - a) ** 3) * (
        (b - a) * (y - x) + 2.0 * (b - x) * (y - a)
    )


def bspline_r2(a, b, y, x):
    """Closed form of B[a,a,y,b,b](x) for x <= y."""
    return (x - a) ** 2 / ((y - a) ** 2 * (b - a) ** 2) * (
        (b - a) * (y - x) + 2.0 * (b - x) * (y - a)
    )


def greens_bvp(r, a, b, x, y):
    """g(x, y) built directly from its defining boundary value problem.

    The kernel restricted to each side of y is a polynomial of degree
    2r-1.  Writing the left piece in powers of (x-a)/L and the right
    piece in powers of (b-x)/L, the r boundary conditions at each end
    annihilate the low-order coefficients, and the remaining 2r
    coefficients solve the C^{2r-2} gluing conditions plus the unit jump
    of the (2r-1)-st derivative (sign (-1)^r) at y.  No B-splines here.
    """
    L = b - a
    u = (y - a) / L
    v = (b - y) / L
    idx = np.arange(r, 2 * r)
    M = np.zeros((2 * r, 2 * r))
    rhs = np.zeros(2 * r)
    # continuity of derivatives 0..2r-2, then the jump of order 2r-1
    for k in range(2 * r):
        fall = np.array([math.factorial(i) / math.factorial(i - k) if i >= k else 0.0 for i in idx])
        left = fall * np.where(idx >= k, u ** np.maximum(idx - k, 0), 0.0) / L**k
        right = fall * np.where(idx >= k, v ** np.maximum(idx - k, 0), 0.0) * (-1.0) ** k / L**k
        M[k, :r] = left
        M[k, r:] = -right
        rhs[k] = 0.0
    rhs[2 * r - 1] = -((-1.0) ** r)  # jump: right minus left equals (-1)^r
    coeff = np.linalg.solve(M, rhs)
    cl, cr = coeff[:r], coeff[r:]
    if x <= y:
        return float(np.dot(cl, ((x - a) / L) ** idx))
    return float(np.dot(cr, ((b - x) / L) ** idx))


def discrete_sine_eigenvalue(k, m, span=1.0):
    """Exact k-th eigenvalue of the r=1 collocation matrix.

    For r=1 the matrix is the inverse of the scaled second-difference
    matrix, whose eigenvectors are discrete sines.
    """
    h = span / (m + 1)
    return h * h / (4.0 * math.sin(k * math.pi / (2.0 * (m + 1))) ** 2)


def clamped_omega_r2(k):
    """k-th root of cos(w)cosh(w) = 1, the order-4 clamped frequency."""
    center = (k + 0.5) * math.pi
    return brentq(lambda w: math.cos(w) * math.cosh(w) - 1.0, center - 0.35, center + 0.35, xtol=1e-13)


# Continuum eigenfrequencies omega_k of (-1)^r phi^(2r) = omega^(2r) phi with
# phi^(j)(0) = phi^(j)(1) = 0 for j < r, computed at 50 decimal digits by
# bracketing the real 2r x 2r boundary-condition determinant built from the
# bounded fundamental solutions sin/cos(w x), exp(w cos(theta) x) trig pairs
# anchored at the nearer endpoint.  d_n^{-1/r} equals omega_{n+1-r}.
CONTINUUM_OMEGA = {
    3: (
        6.283185307179586,
        9.427055570888906,
        12.566370614359172,
        15.707953378529623,
        18.849555921538759,
        21.991148617983197,
    ),
    4: (
        7.818707343205939,
        10.995830512186821,
        14.137698385961945,
        17.278822651641658,
        20.420354442226116,
        23.561944441403996,
    ),
}


def _mode_columns(r):
    """Real fundamental solutions of (-1)^r phi^(2r) = w^(2r) phi as (z, anchor, part).

    The modes are exp(w z (x - anchor)) with z^(2r) = (-1)^r, i.e.
    z = i exp(i pi j / r).  Each exponential is anchored at the endpoint
    where it is largest, so it decays into [0, 1] and every entry of the
    boundary-condition matrix stays bounded; a conjugate pair contributes
    its real and imaginary parts.
    """
    import mpmath

    columns = []
    for j in range(2 * r):
        z = 1j * mpmath.expjpi(mpmath.mpf(j) / r)
        if mpmath.im(z) < -1e-30:
            continue  # conjugate of a mode already taken
        anchor = 1 if mpmath.re(z) > 1e-30 else 0
        if abs(mpmath.im(z)) <= 1e-30:
            columns.append((mpmath.mpf(mpmath.re(z)), anchor, "re"))
        else:
            columns += [(z, anchor, "re"), (z, anchor, "im")]
    return columns


def _bc_determinant(r, w, columns):
    """Determinant of the 2r x 2r matrix of phi^(d)(end) / w^d, d < r, ends 0 and 1."""
    import mpmath

    M = mpmath.matrix(2 * r, 2 * r)
    for col, (z, anchor, part) in enumerate(columns):
        for row, (end, d) in enumerate((e, d) for e in (0, 1) for d in range(r)):
            value = z**d * mpmath.exp(w * z * (end - anchor))
            M[row, col] = mpmath.re(value) if part == "re" else mpmath.im(value)
    return mpmath.det(M)


@functools.lru_cache(maxsize=None)
def continuum_omegas(r, count, dps=50):
    """The first `count` continuum eigenfrequencies omega_k on [0, 1], as mpmath numbers.

    omega_k is the k-th positive root of the boundary-condition
    determinant of (-1)^r phi^(2r) = omega^(2r) phi with
    phi^(j)(0) = phi^(j)(1) = 0 for j < r.  The integral operator's
    eigenvalues are omega_k^(-2r), so d_n^(-1/r) = omega_{n+1-r}.  Roots
    are simple (the kernel is totally positive) and omega_1 >= pi, so a
    scan from pi/2 in steps of pi/4 brackets each one before it is
    polished to `dps` digits.
    """
    import mpmath

    with mpmath.workdps(dps + 20):
        columns = _mode_columns(r)

        def f(w):
            return _bc_determinant(r, w, columns)

        roots = []
        step = mpmath.pi / 4
        lo = mpmath.pi / 2 + mpmath.mpf("0.0123")  # off every rational multiple of pi
        f_lo = f(lo)
        while len(roots) < count:
            hi = lo + step
            f_hi = f(hi)
            if f_lo * f_hi < 0:
                roots.append(mpmath.findroot(f, (lo, hi), solver="anderson"))
            lo, f_lo = hi, f_hi
    return tuple(+root for root in roots)


def midpoint_deviations(r, count, dps=50):
    """|omega_k - (k + (r-1)/2) pi| / ((k + (r-1)/2) pi) for k = 1..count.

    The conjecture's relative error d_n^(-1/r) against the bracket midpoint,
    at n = k + r - 1, in the continuum.
    """
    import mpmath

    with mpmath.workdps(dps):
        omegas = continuum_omegas(r, count, dps)
        mids = [(k + mpmath.mpf(r - 1) / 2) * mpmath.pi for k in range(1, count + 1)]
        return [abs(w - mid) / mid for w, mid in zip(omegas, mids)]


def _bvp_coefficients_mp(r, y):
    """Polynomial pieces of g(., y) on [0, 1] in mpmath, solved as in `greens_bvp`.

    Returns (cl, cr): g(x, y) = sum_p cl[p] x^(r+p) for x <= y and
    sum_p cr[p] (1-x)^(r+p) for x > y.
    """
    import mpmath

    M = mpmath.matrix(2 * r, 2 * r)
    rhs = mpmath.matrix(2 * r, 1)
    for k in range(2 * r):
        for c, i in enumerate(range(r, 2 * r)):
            if i >= k:
                fall = math.perm(i, k)
                M[k, c] = fall * y ** (i - k)
                M[k, r + c] = -fall * (1 - y) ** (i - k) * (-1) ** k
    rhs[2 * r - 1] = -((-1) ** r)
    coeff = mpmath.lu_solve(M, rhs)
    return [coeff[c] for c in range(r)], [coeff[r + c] for c in range(r)]


def _bvp_pieces_mp(r):
    """Coefficients of cl_p(y), cr_p(y) as polynomials in y, lowest power first.

    g is a polynomial of degree 2r-1 in y on each side of the diagonal
    too (g(x, y) = g(y, x)), so the BVP is solved at 2r points and each
    coefficient interpolated there.
    """
    import mpmath

    ys = [mpmath.mpf(s + 1) / (2 * r + 1) for s in range(2 * r)]
    vander = mpmath.matrix([[y**q for q in range(2 * r)] for y in ys])
    solved = [_bvp_coefficients_mp(r, y) for y in ys]
    pieces = []
    for side in (0, 1):
        polys = []
        for p in range(r):
            values = mpmath.matrix([sol[side][p] for sol in solved])
            coeffs = mpmath.lu_solve(vander, values)
            polys.append([coeffs[q] for q in range(2 * r)])
        pieces.append(polys)
    return pieces


def bvp_matvec_mp(r, m, vectors, dps=45):
    """A @ V for the collocation matrix A = h g(x_k, x_l) on [0, 1], in mpmath.

    The entries come from the BVP construction of `greens_bvp` at exact
    nodes x_i = i/(m+1).  Each column of g is a polynomial of degree 2r-1
    on either side of the diagonal, so the product is formed with
    prefix and suffix sums over those pieces; the result equals the
    product with the assembled matrix.  `vectors` is a list of length-m
    sequences; returns the products in the same layout.
    """
    import mpmath

    with mpmath.workdps(dps + 20):
        n = m + 1
        x = [mpmath.mpf(i) / n for i in range(1, m + 1)]
        left, right = _bvp_pieces_mp(r)
        cl = [[mpmath.polyval(poly[::-1], y) for poly in left] for y in x]
        cr = [[mpmath.polyval(poly[::-1], y) for poly in right] for y in x]
        out = []
        for vec in vectors:
            v = [mpmath.mpf(float(t)) for t in vec]
            result = [mpmath.mpf(0)] * m
            # x_i <= x_j: left piece of column j at x_i, summed over j >= i
            suffix = [mpmath.mpf(0)] * r
            for i in range(m - 1, -1, -1):
                for p in range(r):
                    suffix[p] += cl[i][p] * v[i]
                result[i] += mpmath.fsum(suffix[p] * x[i] ** (r + p) for p in range(r))
            # x_i > x_j: right piece of column j at x_i, summed over j < i
            prefix = [mpmath.mpf(0)] * r
            for i in range(m):
                result[i] += mpmath.fsum(prefix[p] * (1 - x[i]) ** (r + p) for p in range(r))
                for p in range(r):
                    prefix[p] += cr[i][p] * v[i]
            out.append([t / n for t in result])
        return out


def ritz_values_mp(r, m, vectors, dps=45):
    """Rayleigh-Ritz values of the collocation matrix on span(vectors), descending, in mpmath.

    For float64 eigenvectors with error e the Ritz values are accurate to
    about lambda_1 * e^2, far below the float64 resolution of lambda_k.
    """
    import mpmath

    with mpmath.workdps(dps):
        products = bvp_matvec_mp(r, m, vectors, dps)
        V = [[mpmath.mpf(float(t)) for t in vec] for vec in vectors]
        q = len(V)
        H = mpmath.matrix(q, q)
        G = mpmath.matrix(q, q)
        for a in range(q):
            for b in range(q):
                H[a, b] = mpmath.fdot(V[a], products[b])
                G[a, b] = mpmath.fdot(V[a], V[b])
        H = (H + H.T) / 2
        L = mpmath.cholesky(G)
        Linv = mpmath.inverse(L)
        values = mpmath.eigsy(Linv * H * Linv.T, eigvals_only=True)
        return sorted((values[i] for i in range(q)), reverse=True)
