"""Uniform grid and trapezoid-rule collocation matrix of the kernel eigenproblem.

The matrix stores h * g(t_k, t_l) over the interior nodes t_k = k/(m+1)
of [0, 1], so its eigenvalues approximate the integral-operator
eigenvalues there directly.  On and above its diagonal it equals X Y^T
for two m x r factors (the closed form of `nwidth.kernel`): a symmetric
semiseparable matrix of rank r, assembled in O(m^2 r) operations by one
matrix product.  The collocation matrix on [a, b] is (b-a)^(2r) times it,
with the same eigenvectors, so every interval is solved on this one
matrix of (r, m); the grid keeps the nodes of [a, b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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
    matrix: np.ndarray  # m x m, symmetric, entries h * g(t_k, t_l) > 0 on [0, 1]


def assemble(kernel: Kernel, grid: Grid) -> NystromSystem:
    """Assemble the collocation matrix on [0, 1] from one rank-r matrix product.

    Lengths are measured in units of the mesh: on [0, m+1] the nodes are
    the integers 1..m, exact in float64, and

        h * g(t_k, t_l) = (m+1)^(-2r) * g_[0,m+1](k, l),  t_k = k/(m+1).

    `kernel_column` forms the whole block g_[0,m+1](k, l) as one product
    of its m x r factors, which is the kernel on and above the diagonal;
    the upper triangle is kept, scaled by (m+1)^(-r) twice, and mirrored,
    so the matrix is exactly symmetric.  The interval's scale (b-a)^(2r)
    is applied to the results by `nwidths.dn_from_eigenvalue`.
    """
    if grid.nodes[0] != kernel.interval.a or grid.nodes[-1] != kernel.interval.b:
        raise ValidationError("grid interval does not match kernel interval")
    m, r = grid.m, kernel.r
    step = 1 / (m + 1) ** r  # h^r on [0, 1], rounded once
    k = np.arange(1.0, m + 1)
    A = np.triu(kernel_column(Kernel(r, Interval(0.0, m + 1)), k, k))
    A *= step
    A *= step
    A += np.triu(A, 1).T
    A.setflags(write=False)
    return NystromSystem(kernel=kernel, grid=grid, matrix=A)


def matrix_text(system: NystromSystem) -> str:
    """Debug dump: whitespace-separated float64 text, one row per line.

    Every entry is rendered as `fmt` renders it, one template per row.
    """
    template = " ".join(["%.17g"] * system.grid.m)
    return "".join(template % tuple(row) + "\n" for row in system.matrix.tolist())
