"""Uniform grid and trapezoid-rule collocation matrix of the kernel eigenproblem.

The matrix stores h * g(xi_k, xi_l) over the interior nodes, so its
eigenvalues approximate the integral-operator eigenvalues directly.  On
and above its diagonal it equals X Y^T for two m x r factors (the closed
form of `nwidth.kernel`): a symmetric semiseparable matrix of rank r,
assembled in O(m^2 r) operations by one matrix product.  It depends on
the interval only through the factor (b-a)^(2r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .kernel import Kernel, Interval, kernel_column


@dataclass(frozen=True)
class Grid:
    """Uniform nodes xi_0..xi_{m+1}; m interior nodes, mesh size h."""

    m: int
    h: float
    nodes: np.ndarray


def build_grid(interval: Interval, m: int) -> Grid:
    if int(m) != m or m < 1:
        raise ValidationError(f"need at least one interior node (m >= 1), got m={m}")
    m = int(m)
    h = interval.span / (m + 1)
    nodes = interval.a + h * np.arange(m + 2)
    nodes[-1] = interval.b  # clamp: no 1-ulp overshoot past b
    if not np.all(np.diff(nodes) > 0):
        raise ValidationError(f"degenerate grid: m={m} is too fine for {interval}")
    nodes.setflags(write=False)
    return Grid(m=m, h=h, nodes=nodes)


@dataclass(frozen=True)
class NystromSystem:
    kernel: Kernel
    grid: Grid
    matrix: np.ndarray  # m x m, symmetric, entries h * g(xi_k, xi_l) > 0


def assemble(kernel: Kernel, grid: Grid) -> NystromSystem:
    """Assemble h * g(xi_k, xi_l) from one rank-r matrix product.

    Lengths are measured in units of h: on [0, m+1] the nodes are the
    integers 1..m, exact in float64 whatever the interval, and

        h * g_ab(xi_k, xi_l) = h^(2r) * g_[0,m+1](k, l)
                             = (b-a)^(2r) / (m+1) * g(k/(m+1), l/(m+1)).

    `kernel_column` forms the whole block g_[0,m+1](k, l) as one product
    of its m x r factors, which is the kernel on and above the diagonal;
    the upper triangle is kept, scaled by h^r twice (so no intermediate
    overflows where the entries fit), and mirrored, so the matrix is
    exactly symmetric.  A span whose entries overflow float64 raises
    NumericalError; entries below its range underflow to zero.
    """
    iv = kernel.interval
    if grid.nodes[0] != iv.a or grid.nodes[-1] != iv.b:
        raise ValidationError("grid interval does not match kernel interval")
    m, r = grid.m, kernel.r
    beyond = f"the span b-a = {iv.span:g} is beyond float64 range for r={r}"
    num, den = iv.span.as_integer_ratio()
    try:
        step = num**r / (den * (m + 1)) ** r  # h^r, rounded once
    except OverflowError:
        raise NumericalError(beyond) from None
    k = np.arange(1.0, m + 1)
    A = np.triu(kernel_column(Kernel(r, Interval(0.0, m + 1)), k, k))
    with np.errstate(over="ignore"):
        A *= step
        A *= step
    if not np.isfinite(A.max()):
        raise NumericalError(f"{beyond}: the matrix entries overflow")
    A += np.triu(A, 1).T
    A.setflags(write=False)
    return NystromSystem(kernel=kernel, grid=grid, matrix=A)


def matrix_text(system: NystromSystem) -> str:
    """Debug dump: whitespace-separated float64 text, one row per line.

    Every entry is rendered as `fmt` renders it, one template per row.
    """
    template = " ".join(["%.17g"] * system.grid.m)
    return "".join(template % tuple(row) + "\n" for row in system.matrix.tolist())
