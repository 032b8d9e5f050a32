"""Top eigenpairs of the symmetric positive collocation matrix.

The production path is LAPACK's dense symmetric solver (tridiagonalization
plus implicit-shift iteration) through scipy.  The enforced contract is:
strictly descending positive simple eigenvalues, per-pair residuals below
RESIDUAL_TOL times the Frobenius norm, pairwise near-orthogonality, max-norm
normalized vectors with a positive leading entry.  A solve that exhausts
the solver's internal iteration budget raises instead of returning
silently.

Every pair carries an a-posteriori bound on the error of its samples
against the eigenvector of the collocation matrix with exact nodes: the
residual norm, plus the effect of the assembly's rounding, divided by the
distance to the nearest other eigenvalue (the gap theorem; Parlett,
*The Symmetric Eigenvalue Problem*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .kernel import Kernel
from .nystrom import Grid, NystromSystem

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-8
#: Consecutive eigenvalues closer than this (relative) are treated as a tie,
#: which the totally positive kernel forbids.
TIE_REL_TOL = 1e-13
#: Eigenvalues of a float64 solve are trusted to GAP_MARGIN * eps * lambda_1.
GAP_MARGIN = 16.0
#: Relative rounding of the assembled entries, per unit of
#: (r + 3) * eps * (1 + max(|a|, |b|) / (b - a)).  A model, not a proof:
#: against the double-double matrix of `nwidth.extended` (r = 1..20,
#: m = 240..2047, six intervals up to 5.7 spans from 0) the residuals of
#: the low ranks called for at most 0.076 units, and every float64 sample
#: lay within half its bound of the refined one.
ASSEMBLY_ROUNDING = 0.125
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Eigenpair:
    index: int  # 1-based rank by descending eigenvalue
    value: float
    vector: np.ndarray  # interior node values
    #: Bound on the error of every sample of `vector` (whose largest sample
    #: is 1).  0.0 declares the samples exact: knot extraction then never
    #: refines them and takes only samples within ZERO_SAMPLE_TOL of zero
    #: as vanishing.
    error_bound: float


def assembly_rounding(kernel: Kernel) -> float:
    """Relative rounding level of the assembled matrix entries.

    The nodes a + h*i are rounded to float64 with an absolute error of
    about eps * max(|a|, |b|), which the kernel's r-fold powers of node
    differences turn into a relative error of its rows and columns; the
    de Boor recurrence and the mesh size add a few units of r * eps.
    """
    iv = kernel.interval
    return ASSEMBLY_ROUNDING * (kernel.r + 3) * _EPS * (1.0 + max(abs(iv.a), abs(iv.b)) / iv.span)


def sample_error_bound(
    residual: float, norm: float, gap: float, lam1: float, theta: float, above: float, rounding: float
) -> float:
    """Sample error bound of a max-normalized float64 eigenvector.

    `residual` is ||A v - theta v|| for the vector v of 2-norm `norm`, and
    `gap` the distance from theta to the nearest other computed eigenvalue.
    The residual is floored at eps * lambda_1 * ||v||, the rounding level
    at which a float64 product A v can be formed, and the gap is reduced
    by the uncertainty GAP_MARGIN * eps * lambda_1 of the eigenvalues.

    The assembled matrix A differs from the one with exact nodes by its
    rounding, modelled as A + D A + A D with a diagonal |D| <= `rounding`
    (`assembly_rounding`).  Its term theta * D v moves v by at most
    rounding * theta * ||v|| / gap; the component of A D v along the
    eigenvector of lambda_j moves it by lambda_j / |lambda_j - theta| times
    that component, at most `above` / gap, where `above` is the next larger
    eigenvalue (theta itself at rank 1).
    """
    gap -= GAP_MARGIN * _EPS * lam1
    if not gap > 0:
        return math.inf
    return (max(residual, _EPS * lam1 * norm) + rounding * (theta + above) * norm) / gap


def _solve_subset(A: np.ndarray, count: int, vectors: bool):
    m = A.shape[0]
    try:
        if vectors:
            w, v = scipy.linalg.eigh(A, subset_by_index=(m - count, m - 1))
            return w[::-1], v[:, ::-1]
        w = scipy.linalg.eigh(A, eigvals_only=True, subset_by_index=(m - count, m - 1))
        return w[::-1], None
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge within its iteration budget: {exc}") from exc


def top_eigenvalues(system: NystromSystem, count: int) -> np.ndarray:
    """The `count` largest eigenvalues in descending order, unchecked.

    Raw solver output: callers that tabulate near the float64 floor flag
    nonpositive or tied values themselves instead of failing hard.
    """
    m = system.matrix.shape[0]
    if not 1 <= count <= m:
        raise ValidationError(f"count must be in [1, {m}], got {count}")
    w, _ = _solve_subset(system.matrix, count, vectors=False)
    return w


def top_eigenpairs(system: NystromSystem, count: int) -> list[Eigenpair]:
    """The `count` largest eigenpairs, sorted by strictly descending eigenvalue."""
    A = system.matrix
    m = A.shape[0]
    if not 1 <= count <= m:
        raise ValidationError(f"count must be in [1, {m}], got {count}")
    # one pair beyond the request gives the last pair's lower gap
    w, v = _solve_subset(A, min(count + 1, m), vectors=True)

    for k in range(count):
        if w[k] <= 0:
            raise NumericalError(
                f"eigenvalue {k + 1} is nonpositive ({w[k]:.3e}); "
                "the requested rank is beyond float64 resolution"
            )
        if k > 0 and w[k - 1] - w[k] <= TIE_REL_TOL * w[k - 1]:
            raise NumericalError(
                f"eigenvalues {k} and {k + 1} tie within {TIE_REL_TOL:g} relative at "
                f"lambda_{k + 1}/lambda_1 = {w[k] / w[0]:.1e}; the kernel's eigenvalues are "
                "simple, so the rank is beyond float64 resolution"
            )

    V = v[:, :count] / np.abs(v[:, :count]).max(axis=0)
    for k in range(count):
        if V[np.flatnonzero(V[:, k])[0], k] < 0:
            V[:, k] = -V[:, k]
    residuals = np.linalg.norm(A @ V - V * w[:count], axis=0)
    limit = RESIDUAL_TOL * np.linalg.norm(A, "fro")
    worst = residuals.max()
    if worst > limit:
        raise NumericalError(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")
    norms = np.linalg.norm(V, axis=0)
    gram = (V / norms).T @ (V / norms)
    off = np.abs(gram - np.diag(np.diag(gram))).max() if count > 1 else 0.0
    if off > ORTHO_TOL:
        raise NumericalError(f"eigenvectors lost orthogonality: {off:.3e} > {ORTHO_TOL:g}")

    rounding = assembly_rounding(system.kernel)
    pairs = []
    for k in range(count):
        gap = min(np.abs(np.delete(w, k) - w[k]), default=w[0])
        vec = V[:, k].copy()
        vec.setflags(write=False)
        above = w[k - 1] if k else w[0]
        bound = sample_error_bound(residuals[k], norms[k], gap, w[0], w[k], above, rounding)
        pairs.append(Eigenpair(index=k + 1, value=float(w[k]), vector=vec, error_bound=bound))
    return pairs


def eigenfunction_values(pair: Eigenpair, grid: Grid) -> np.ndarray:
    """Samples over all nodes xi_0..xi_{m+1}: boundary zeros around the vector."""
    if len(pair.vector) != grid.m:
        raise ValidationError(
            f"vector length {len(pair.vector)} does not match grid with m={grid.m}"
        )
    return np.concatenate(([0.0], pair.vector, [0.0]))
