"""Top eigenpairs of the symmetric positive collocation matrix on [0, 1].

Nothing here reads the interval: `nwidths.dn_from_eigenvalue` scales the
eigenvalues to [a, b], and the eigenvectors are the same on every interval.

Eigenvalues and eigenpairs come from one solver: ARPACK's implicitly
restarted Lanczos method (Lehoucq, Sorensen and Yang, *ARPACK Users'
Guide*, 1998) through scipy, on the O(m r) product of
`NystromSystem.matvec`, so no m x m array is formed.  It starts from a
fixed seeded vector, so the same system gives bitwise the same result.
Only a request for all m eigenvalues, which ARPACK does not serve, goes
to LAPACK's dense symmetric solver on the formed matrix.

`top_eigenvalues` returns the raw values.  `top_eigenpairs` enforces its
contract: strictly descending positive simple eigenvalues, per-pair
residuals below RESIDUAL_TOL times lambda_1 (the 2-norm of the matrix),
pairwise near-orthogonality, max-norm normalized vectors whose first
sample above the pair's error bound is positive.  A solve that exhausts
the solver's iteration budget raises NumericalError instead of returning
silently.

Every pair carries an a-posteriori bound on the error of its samples
against the eigenvector of the exact [0, 1] collocation matrix: the
residual norm, plus the effect of the assembly's rounding, divided by the
distance to the nearest other eigenvalue (the gap theorem; Parlett,
*The Symmetric Eigenvalue Problem*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NumericalError, ValidationError
from .nystrom import Grid, NystromSystem

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-8
#: Consecutive eigenvalues closer than this (relative) are treated as a tie,
#: which the totally positive kernel forbids.
TIE_REL_TOL = 1e-13
#: Eigenvalues of a float64 solve are trusted to GAP_MARGIN * eps * lambda_1.
GAP_MARGIN = 16.0
#: Relative rounding of the assembled entries, per unit of (r + 3) * eps.
#: A model, not a proof, calibrated against the double-double matrix of
#: `nwidth.extended`.  Every interval is solved on the one [0, 1] matrix of
#: its (r, m); over r = 1..20, m = 240, 500, 1000, 2047 and ranks 1..8
#: every float64 sample of the Lanczos pairs lay within 0.294 of its bound
#: of the refined one (largest at r = 20, m = 240, rank 3).
ASSEMBLY_ROUNDING = 0.25
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Eigenpair:
    index: int  # 1-based rank by descending eigenvalue
    value: float  # eigenvalue of the [0, 1] matrix
    vector: np.ndarray  # interior node values
    #: Bound on the error of every sample of `vector` (whose largest sample
    #: is 1).  0.0 declares the samples exact: knot extraction then never
    #: refines them and takes only samples within ZERO_SAMPLE_TOL of zero
    #: as vanishing.
    error_bound: float


def sample_error_bound(
    residual: float, norm: float, gap: float, lam1: float, theta: float, above: float, rounding: float
) -> float:
    """Sample error bound of a max-normalized float64 eigenvector.

    `residual` is ||A v - theta v|| for the vector v of 2-norm `norm`, and
    `gap` the distance from theta to the nearest other computed eigenvalue.
    The residual is floored at eps * lambda_1 * ||v||, the rounding level
    at which a float64 product A v can be formed, and the gap is reduced
    by the uncertainty GAP_MARGIN * eps * lambda_1 of the eigenvalues.

    The assembled matrix A differs from the exact one by its rounding,
    modelled as A + D A + A D with a diagonal |D| <= `rounding`
    (ASSEMBLY_ROUNDING * (r + 3) * eps).  Its term theta * D v moves v by at most
    rounding * theta * ||v|| / gap; the component of A D v along the
    eigenvector of lambda_j moves it by lambda_j / |lambda_j - theta| times
    that component, at most `above` / gap, where `above` is the next larger
    eigenvalue (theta itself at rank 1).
    """
    gap -= GAP_MARGIN * _EPS * lam1
    if not gap > 0:
        return math.inf
    return (max(residual, _EPS * lam1 * norm) + rounding * (theta + above) * norm) / gap


def _solve(system: NystromSystem, count: int, vectors: bool):
    """The `count` largest eigenvalues, descending, and their vectors if asked for (else None)."""
    m = system.grid.m
    try:
        if count == m:  # ARPACK serves at most m - 1 eigenpairs
            result = scipy.linalg.eigh(system.matrix, eigvals_only=not vectors, subset_by_index=(0, m - 1))
        else:
            op = scipy.sparse.linalg.LinearOperator((m, m), matvec=system.matvec, dtype=float)
            # a fixed generic start: the result does not depend on earlier solves, and in
            # exact arithmetic a mirror-symmetric start would miss every other eigenvector
            v0 = np.random.default_rng(0).standard_normal(m)
            result = scipy.sparse.linalg.eigsh(op, k=count, which="LA", tol=0, v0=v0,
                                               return_eigenvectors=vectors)
    except (scipy.linalg.LinAlgError, scipy.sparse.linalg.ArpackError) as exc:  # ArpackNoConvergence too
        raise NumericalError(f"eigensolver did not converge within its iteration budget: {exc}") from exc
    w, v = result if vectors else (result, None)
    order = np.argsort(w)[::-1]
    return w[order], None if v is None else v[:, order]


def oriented(vector: np.ndarray, bound: float) -> np.ndarray:
    """A copy of `vector` whose first sample above `bound` in magnitude is positive.

    Samples within the bound have no certain sign; at high r the leading
    ones are rounding noise.  A vector with no sample above the bound is
    oriented by its largest sample.
    """
    certain = np.abs(vector) > bound
    lead = np.argmax(certain) if certain.any() else np.argmax(np.abs(vector))
    return -vector if vector[lead] < 0 else vector.copy()


def top_eigenvalues(system: NystromSystem, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of the [0, 1] matrix in descending order, unchecked.

    Raw solver output: callers that tabulate near the float64 floor flag
    nonpositive or tied values themselves instead of failing hard.
    """
    m = system.grid.m
    if not 1 <= count <= m:
        raise ValidationError(f"count must be in [1, {m}], got {count}")
    return _solve(system, count, vectors=False)[0]


def top_eigenpairs(system: NystromSystem, count: int) -> list[Eigenpair]:
    """The `count` largest eigenpairs of the [0, 1] matrix, by strictly descending eigenvalue."""
    m = system.grid.m
    if not 1 <= count <= m:
        raise ValidationError(f"count must be in [1, {m}], got {count}")
    # one pair beyond the request gives the last pair's lower gap
    w, v = _solve(system, min(count + 1, m), vectors=True)

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
    residuals = np.array([np.linalg.norm(system.matvec(V[:, k]) - w[k] * V[:, k]) for k in range(count)])
    limit = RESIDUAL_TOL * w[0]
    worst = residuals.max()
    if worst > limit:
        raise NumericalError(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")
    norms = np.linalg.norm(V, axis=0)
    gram = (V / norms).T @ (V / norms)
    off = np.abs(gram - np.diag(np.diag(gram))).max() if count > 1 else 0.0
    if off > ORTHO_TOL:
        raise NumericalError(f"eigenvectors lost orthogonality: {off:.3e} > {ORTHO_TOL:g}")

    rounding = ASSEMBLY_ROUNDING * (system.kernel.r + 3) * _EPS
    pairs = []
    for k in range(count):
        gap = min(np.abs(np.delete(w, k) - w[k]), default=w[0])
        above = w[k - 1] if k else w[0]
        bound = sample_error_bound(residuals[k], norms[k], gap, w[0], w[k], above, rounding)
        vec = oriented(V[:, k], bound)
        vec.setflags(write=False)
        pairs.append(Eigenpair(index=k + 1, value=float(w[k]), vector=vec, error_bound=bound))
    return pairs


def eigenfunction_values(pair: Eigenpair, grid: Grid) -> np.ndarray:
    """Samples over all nodes xi_0..xi_{m+1}: boundary zeros around the vector."""
    if len(pair.vector) != grid.m:
        raise ValidationError(
            f"vector length {len(pair.vector)} does not match grid with m={grid.m}"
        )
    return np.concatenate(([0.0], pair.vector, [0.0]))
