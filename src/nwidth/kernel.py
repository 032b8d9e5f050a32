"""Green's function kernel of the order-2r two-point Dirichlet problem.

On [0, 1], for 0 <= x <= y <= 1, the kernel has the closed form

    g(x, y) = sum_{i=0}^{r-1} c_i x^(r+i) (1-x)^(r-1-i) y^(r-1-i) (1-y)^(r+i),
    c_i = (-1)^i C(2r-1, r-1-i) / (2r-1)!,

and on [a, b], with s = b - a, g_ab(x, y) = s^(2r-1) g((x-a)/s, (y-a)/s);
g(x, y) = g(y, x) for x > y.  In the Bernstein bases of indices r..2r-1
in x and 0..r-1 in y the coefficient matrix is anti-diagonal with these
binomial entries.  Each term is a function of x times a function of y,
so over points x_1..x_m and y_1..y_n with x_k <= y_l the kernel is the
product X Y^T of an m x r and an n x r factor (`kernel_factors` builds
the factors, `kernel_column` forms the product): the collocation matrix
is a symmetric semiseparable matrix of rank r (Vandebril, Van Barel and
Mastronardi, *Matrix Computations and Semiseparable Matrices*, 2008).

g vanishes whenever x or y hits an endpoint, is symmetric, and is
strictly positive inside the open square (a,b) x (a,b).  It equals the
de Boor form, a B-spline in x with knots a,..,a,y,b,..,b scaled by
(y-a)^r (b-y)^r / ((2r-1)! (b-a)), which the tests keep as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Largest derivative order the float64 assembly is validated for.
MAX_R = 20


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError("interval endpoints must be finite")
        if not a < b:
            raise ValidationError(f"interval needs a < b, got ({a}, {b})")
        if not math.isfinite(b - a):
            raise ValidationError(f"interval span b-a overflows float64, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def span(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Kernel:
    """Derivative order r >= 1 together with the interval (a, b)."""

    r: int
    interval: Interval

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValidationError(f"derivative order r must be an integer >= 1, got {self.r}")
        object.__setattr__(self, "r", int(self.r))


def _coefficients(r: int) -> np.ndarray:
    """c_i = (-1)^i C(2r-1, r-1-i) / (2r-1)!, each rounded once."""
    f = math.factorial(2 * r - 1)
    return np.array([(-1) ** i * math.comb(2 * r - 1, r - 1 - i) / f for i in range(r)])


def kernel_factors(k: Kernel, xs, y) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's factors X (a row per point of xs) and Y (a row per point of y), of r columns.

    g(xs_i, y_j) = X_i . Y_j wherever xs_i <= y_j, by the closed form above.
    The factors are powers of the distances x-a and b-x to the endpoints,
    which carry no rounding when the points lie on an integer grid; the
    distances are scaled by a power of two so that the span lies in
    [1/2, 1), and the division by s^(2r-1) is folded into the factors, so
    no power overflows or underflows where the kernel itself fits.
    """
    r = k.r
    a, b = k.interval.a, k.interval.b
    frac, e = math.frexp(b - a)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(y, dtype=float)
    up = np.arange(r, 2 * r)
    down = up[::-1] - r
    X = np.ldexp(xs - a, -e)[:, None] ** up * np.ldexp(b - xs, -e)[:, None] ** down
    Y = np.ldexp(ys - a, -e)[..., None] ** down * np.ldexp(b - ys, -e)[..., None] ** up
    X *= np.ldexp(frac**-r, e * r)
    Y *= _coefficients(r) * np.ldexp(frac ** (1 - r), e * (r - 1))
    return X, Y


def kernel_column(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The kernel from its factors (`kernel_factors`): g(xs_i, y) for one point y.

    For an array y the result is the block g(xs_i, y_j), the product of
    the m x r factor X and the transpose of the n x r factor Y; it is the
    kernel wherever xs_i <= y_j.
    """
    # numpy's own product loop, not BLAS: a threaded BLAS product leaves its
    # worker threads spinning, which on two cores made the dense eigensolve
    # that follows an assembled matrix about twice as slow
    return np.einsum("ik,...k->i...", X, Y)


def kernel_eval(k: Kernel, x: float, y: float) -> float:
    """g(x, y), reduced to the x <= y case through the symmetry g(x,y) = g(y,x)."""
    a, b = k.interval.a, k.interval.b
    if x < a or x > b:
        raise ValidationError(f"x={x} outside [{a}, {b}]")
    if y < a or y > b:
        raise ValidationError(f"y={y} outside [{a}, {b}]")
    lo, hi = (x, y) if x <= y else (y, x)
    if lo == a or hi == b:
        return 0.0
    return float(kernel_column(*kernel_factors(k, np.array([lo]), hi))[0])
