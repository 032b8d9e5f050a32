"""Uniform grid and trapezoid-rule collocation matrix of the kernel eigenproblem.

The matrix stores h * g(t_k, t_l) over the interior nodes t_k = k/(m+1)
of [0, 1], so its eigenvalues approximate the integral-operator
eigenvalues there directly.  On and above its diagonal it equals
step^2 X Y^T for two m x r factors (the closed form of `nwidth.kernel`):
a symmetric semiseparable matrix of rank r.  A system holds only the
factors, and, formed on the first product, its dense diagonal blocks of
BLOCK rows: a product with the matrix costs O(m (BLOCK + 2r)) operations
and memory (`NystromSystem.matvec`), the one product the Lanczos solver
of `nwidth.eigensolver` needs.  The m x m matrix itself is formed on
first request, which only the dense solve makes (a request for more than
about m/6 eigenvalues, all m among them).  The collocation matrix on
[a, b] is (b-a)^(2r) times it, with the same eigenvectors, so every
interval is solved on this one matrix of (r, m); the grid keeps the
nodes of [a, b].
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import Kernel, Interval, kernel_column, kernel_factors

#: Rows per diagonal block of the blocked product, `NystromSystem.matvec`.
#: Per product at m = 63..2047, one thread: 8 rows were 10-30% slower; 32
#: were up to 15% faster at m >= 511, but hold twice the m BLOCK floats of
#: the diagonal blocks, which every system keeps.
BLOCK = 16


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
    # no machine holds 2^62 bytes of nodes; near 2^63 numpy raises ValueError, not MemoryError
    if (m + 2) * 16 > sys.maxsize:
        raise ValidationError(f"m={m} is too large: its {m + 2} float64 nodes fit no machine's memory")
    h = interval.span / (m + 1)
    nodes = interval.a + h * np.arange(m + 2)
    nodes[-1] = interval.b  # clamp: no 1-ulp overshoot past b
    if not np.all(np.diff(nodes) > 0):
        raise ValidationError(f"degenerate grid: m={m} is too fine for {interval}")
    nodes.setflags(write=False)
    return Grid(m=m, h=h, nodes=nodes)


@dataclass(frozen=True)
class NystromSystem:
    """The [0, 1] collocation matrix of (r, m), held as its generators.

    On and above the diagonal the matrix is step * step * X Y^T, with two
    factors X and Y of m rows (and r columns for an assembled system) and
    the scale step = (m+1)^(-r); below the diagonal it is the mirror image.
    """

    kernel: Kernel
    grid: Grid
    X: np.ndarray
    Y: np.ndarray

    @property
    def step(self) -> float:
        return 1 / (self.grid.m + 1) ** self.kernel.r  # h^r on [0, 1], rounded once

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The m x m matrix, formed on first use; mirrored, so exactly symmetric."""
        step = self.step
        A = np.triu(kernel_column(self.X, self.Y))
        A *= step
        A *= step
        A += np.triu(A, 1).T
        A.setflags(write=False)
        return A

    @functools.cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """[Y | X] and the diagonal blocks D of the matrix (unscaled), block by block of BLOCK rows.

        The factors are padded with zero rows to whole blocks; D is X Y^T
        on and above its diagonal and mirrored below it.
        """
        m, r = self.X.shape  # r is the factors' width, not always the kernel's order
        blocks = -(-m // BLOCK)
        F = np.zeros((blocks * BLOCK, 2 * r))
        F[:m, :r] = self.Y
        F[:m, r:] = self.X
        F = F.reshape(blocks, BLOCK, 2 * r)
        # numpy's own product loop, as in `kernel_column`: a BLAS product
        # would add its packing buffer to the run's peak memory
        D = np.einsum("bik,bjk->bij", F[:, :, r:], F[:, :, :r])
        below, above = np.tril_indices(BLOCK, -1)
        D[:, below, above] = D[:, above, below]
        F.setflags(write=False)
        D.setflags(write=False)
        return F, D

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product of the matrix with x in O(m (BLOCK + 2r)), block by block.

        With the rows cut into blocks I of BLOCK rows, D_I the diagonal
        block of the matrix and X_I, Y_I the rows of the factors,

            (A x)_I = D_I x_I  +  X_I sum_{J>I} Y_J^T x_J  +  Y_I sum_{J<I} X_J^T x_J,

        scaled by step twice: a batched product forms the sums Y_J^T x_J
        and X_J^T x_J of every block, two cumulative sums over the blocks
        their tails and heads, and a second batched product the coupling,
        to which the batched product with D adds the diagonal blocks.
        """
        F, D = self._blocks
        blocks, _, width = F.shape
        r = width // 2
        x = np.asarray(x, dtype=float).reshape(-1)
        padded = np.zeros(blocks * BLOCK)
        padded[: len(x)] = x
        xb = padded.reshape(blocks, BLOCK, 1)
        sums = (xb.transpose(0, 2, 1) @ F)[:, 0]  # per block: [Y_J^T x_J | X_J^T x_J]
        coupling = np.zeros((blocks, width))  # per block: [heads | tails]
        np.cumsum(sums[:-1, r:], axis=0, out=coupling[1:, :r])
        np.cumsum(sums[:0:-1, :r], axis=0, out=coupling[-2::-1, r:])
        y = F @ coupling[:, :, None]
        y += D @ xb
        y = y.reshape(-1)[: len(x)]
        step = self.step
        y *= step
        y *= step
        return y


def assemble(kernel: Kernel, grid: Grid) -> NystromSystem:
    """The collocation matrix on [0, 1] as its two m x r factors; no m x m array is formed.

    Lengths are measured in units of the mesh: on [0, m+1] the nodes are
    the integers 1..m, exact in float64, and

        h * g(t_k, t_l) = (m+1)^(-2r) * g_[0,m+1](k, l),  t_k = k/(m+1).

    `kernel_factors` gives g_[0,m+1](k, l) = X_k . Y_l for k <= l; the
    system scales the product by (m+1)^(-r) twice.  The interval's scale
    (b-a)^(2r) is applied to the results by `nwidths.dn_from_eigenvalue`.
    """
    if grid.nodes[0] != kernel.interval.a or grid.nodes[-1] != kernel.interval.b:
        raise ValidationError("grid interval does not match kernel interval")
    m = grid.m
    k = np.arange(1.0, m + 1)
    X, Y = kernel_factors(Kernel(kernel.r, Interval(0.0, m + 1)), k, k)
    X.setflags(write=False)
    Y.setflags(write=False)
    return NystromSystem(kernel=kernel, grid=grid, X=X, Y=Y)

