"""Uniform grid and trapezoid-rule collocation matrix of the kernel eigenproblem.

The matrix stores h * g(xi_k, xi_l) over the interior nodes, so its
eigenvalues approximate the integral-operator eigenvalues directly.
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
    matrix: np.ndarray  # m x m, symmetric, entries h * g(xi_k, xi_l) > 0


def assemble(kernel: Kernel, grid: Grid) -> NystromSystem:
    """Assemble h * g(xi_k, xi_l); only the upper triangle is evaluated.

    Each column is one vectorized kernel evaluation; the lower triangle
    is the transpose of the upper one, so the matrix is exactly symmetric.
    """
    iv = kernel.interval
    if grid.nodes[0] != iv.a or grid.nodes[-1] != iv.b:
        raise ValidationError("grid interval does not match kernel interval")
    m, h, nodes = grid.m, grid.h, grid.nodes
    A = np.zeros((m, m))
    for col in range(m):
        A[: col + 1, col] = h * kernel_column(kernel, nodes[col + 1], nodes[1 : col + 2])
    A += np.triu(A, 1).T
    A.setflags(write=False)
    return NystromSystem(kernel=kernel, grid=grid, matrix=A)


def matrix_text(system: NystromSystem) -> str:
    """Debug dump: whitespace-separated float64 text, one row per line.

    Every entry is rendered as `fmt` renders it, one template per row.
    """
    template = " ".join(["%.17g"] * system.grid.m)
    return "".join(template % tuple(row) + "\n" for row in system.matrix.tolist())
