"""Top eigenpairs of the symmetric positive collocation matrix on [0, 1].

Nothing here reads the interval: `nwidths.dn_from_eigenvalue` scales the
eigenvalues to [a, b], and the eigenvectors are the same on every interval.

Eigenvalues and eigenpairs come from one solver, a thick-restart Lanczos
method (Wu and Simon, *SIAM J. Matrix Anal. Appl.* 22, 2000) in numpy on
the blocked semiseparable product of `NystromSystem.matvec`: dense
diagonal blocks of nystrom.BLOCK rows plus the rank-r coupling between
blocks, O(m (BLOCK + 2r)), so no m x m array is formed.  Its basis holds
max(MIN_BASIS, 2 count + 1) vectors, ARPACK's default, and is
reorthogonalized in full at every step.  When it is full,
the projected matrix (tridiagonal, plus an arrowhead after a restart) is
diagonalized; a Ritz pair whose residual estimate beta |s_i| has fallen
to eps |theta_i| (ARPACK's test at tol = 0) is locked and leaves the
projected matrix, and the basis restarts from the leading half of the
Ritz vectors.  A value within GAP_MARGIN eps lambda_1 of zero, where no
float64 eigenvalue is trusted, needs to converge only to that level.  The
start vector is a fixed hash of the index, so the same system gives
bitwise the same result.  Up to 9 values the basis size does not depend
on the count, so neither do the steps taken before a value is locked:
the n = 4 row of `compute --r 4` is bitwise the same for every `--n`
range up to 12 (a test holds this).
A request for more than about m/6 values (2 count + 1 > m/3), where a
dense solve is about as fast or faster, goes to LAPACK's symmetric solver
on the formed matrix instead; that includes all m eigenvalues, and every
mesh of fewer than 9 nodes.

`top_eigenvalues` returns the raw values.  `top_eigenpairs` enforces its
contract: strictly descending positive simple eigenvalues, per-pair
residuals below RESIDUAL_TOL times lambda_1 (the 2-norm of the matrix),
pairwise near-orthogonality, max-norm normalized vectors whose first
sample above the pair's error bound is positive.  The matrix is
persymmetric, so the rank-k eigenvector is mirror-symmetric with parity
(-1)^(k-1); each vector is made exactly so before it is checked.  A
solve that exhausts the solver's iteration budget, or whose products
stop being finite, raises NumericalError instead of returning silently.

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
#: A model, not a proof, calibrated against the double-double refinement on
#: the de Boor matrix, kept as `DenseExtendedSystem` in `tests/oracles.py`.
#: Every interval is solved on the one [0, 1] matrix of its (r, m); over
#: r = 1..20, m = 240, 500, 1000, 2047 and ranks 1..8 every float64 sample
#: of the Lanczos pairs, on the blocked product, lay within 0.144 of its
#: bound of the refined one (largest at r = 17, m = 240, rank 4).
ASSEMBLY_ROUNDING = 0.25
_EPS = float(np.finfo(np.float64).eps)
#: Fewest vectors in a Lanczos basis; a request for count values gets
#: max(MIN_BASIS, 2 count + 1), capped at m.
MIN_BASIS = 20
#: Iteration budget: a Lanczos solve may take as many products with the
#: matrix as BUDGET_BASES full bases hold; the most measured over
#: r = 1..20, m = 63, 511, 2047 and up to 300 values was 2.0.
BUDGET_BASES = 100


@dataclass(frozen=True)
class Eigenpair:
    index: int  # 1-based rank by descending eigenvalue
    value: float  # eigenvalue of the [0, 1] matrix
    vector: np.ndarray  # interior node values
    #: Bound on the error of every sample of `vector` (whose largest sample
    #: is 1): a sample's sign is certain only beyond it.
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


def _start(m: int, seed: int) -> np.ndarray:
    """A fixed generic unit vector: the splitmix64 hash of each index, centred.

    A hash, not `numpy.random`, whose import costs more than a whole solve.
    In exact arithmetic a mirror-symmetric start would miss every other
    eigenvector; the hash of the index has no such symmetry.
    """
    z = np.arange(seed * m + 1, seed * m + m + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    x = (z >> np.uint64(11)).astype(float) - 2.0**52
    return x / np.linalg.norm(x)


def _orthogonalize(Q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """w less its components along the orthonormal rows of Q, the components removed, and its norm.

    Classical Gram-Schmidt, repeated while a pass shrinks w by more than a
    factor 1/sqrt(2) (Daniel, Gragg, Kaufman and Stewart, *Math. Comp.* 30,
    1976), at most three times.  A w still shrinking in the third pass lies
    in the span of Q to rounding, and comes back as zeros.
    """
    coef = 0.0
    size = math.sqrt(w @ w)
    for _ in range(3):
        c = Q @ w
        w = w - c @ Q
        coef = coef + c
        before, size = size, math.sqrt(w @ w)
        if size > math.sqrt(0.5) * before:
            return w, coef, size
    return np.zeros_like(w), coef, 0.0


def _lanczos(matvec, m: int, count: int, vectors: bool):
    """The `count` largest eigenvalues, descending, and their vectors as columns (or None).

    The basis vectors are the rows of Q: first the locked Ritz vectors,
    then the active basis, whose projected matrix is T[locked:, locked:].
    """
    basis = min(max(MIN_BASIS, 2 * count + 1), m)
    keep = (basis + 1) // 2  # Ritz vectors a restart retains, the locked ones included
    budget = BUDGET_BASES * basis
    Q = np.empty((basis + 1, m))
    T = np.zeros((basis, basis))
    Q[0] = _start(m, 0)
    locked, j, products = 0, 0, 0
    held = np.empty(0)  # the locked Ritz values
    while True:
        for j in range(j, basis):
            if products == budget:
                raise NumericalError(
                    f"eigensolver did not converge within its iteration budget of {budget} products"
                )
            # the three-term recurrence first, then the full reorthogonalization
            w = matvec(Q[j])
            products += 1
            if j:
                w -= T[j, j - 1] * Q[j - 1]
            alpha = float(Q[j] @ w)
            if not math.isfinite(alpha):
                raise NumericalError(
                    "eigensolver did not converge within its iteration budget: "
                    "a product with the matrix is not finite"
                )
            w -= alpha * Q[j]
            w, coef, beta = _orthogonalize(Q[: j + 1], w)
            T[j, j] = alpha + coef[j]
            if j + 1 == m:  # the basis spans the whole space: the Ritz pairs are exact
                beta = 0.0
            elif beta == 0.0:  # an invariant subspace: go on from a new start
                w, _, size = _orthogonalize(Q[: j + 1], _start(m, j + 1))
                Q[j + 1] = w / size
            else:
                Q[j + 1] = w / beta
            if j + 1 < basis:
                T[j, j + 1] = T[j + 1, j] = beta

        theta, S = np.linalg.eigh(T[locked:, locked:])
        values = np.concatenate((held, theta))
        top = np.argsort(values, kind="stable")[::-1][:count]
        floor = GAP_MARGIN * _EPS * values[top[0]]  # no eigenvalue is trusted closer to zero
        tol = np.where(np.abs(theta) > floor, _EPS * np.abs(theta), floor)
        converged = np.concatenate((np.ones(locked, bool), beta * np.abs(S[-1]) <= tol))
        if converged[top].all():
            if not vectors:
                return values[top], None
            Y = np.empty((count, m))
            active = top >= locked
            Y[~active] = Q[top[~active]]
            Y[active] = S[:, top[active] - locked].T @ Q[locked:basis]
            return values[top], Y.T

        # restart: lock the converged wanted pairs, keep the leading other Ritz
        # vectors, and go on from the residual direction Q[basis]
        lock = [i - locked for i in top if i >= locked and converged[i]]
        rest = [i for i in np.argsort(theta, kind="stable")[::-1] if i not in lock]
        rest = rest[: max(keep - locked - len(lock), 1)]
        Q[locked : locked + len(lock) + len(rest)] = S[:, lock + rest].T @ Q[locked:basis]
        held = np.concatenate((held, theta[lock]))
        T[locked:, locked:] = 0.0
        locked += len(lock)
        j = locked + len(rest)
        Q[j] = Q[basis]
        for n, i in enumerate(rest, start=locked):
            T[n, n] = theta[i]
            T[j, n] = T[n, j] = beta * S[-1, i]


def _solve(system: NystromSystem, count: int, vectors: bool):
    """The `count` largest eigenvalues, descending, and their vectors if asked for (else None)."""
    m = system.grid.m
    if 3 * (2 * count + 1) <= m:
        return _lanczos(system.matvec, m, count, vectors)
    try:
        if not vectors:
            return np.linalg.eigvalsh(system.matrix)[: -count - 1 : -1], None
        w, v = np.linalg.eigh(system.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge within its iteration budget: {exc}") from exc
    return w[: -count - 1 : -1], v[:, : -count - 1 : -1]


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

    v = v[:, :count] / np.linalg.norm(v[:, :count], axis=0)
    off = np.abs(v.T @ v - np.eye(count)).max() if count > 1 else 0.0
    if off > ORTHO_TOL:
        raise NumericalError(f"eigenvectors lost orthogonality: {off:.3e} > {ORTHO_TOL:g}")

    # the matrix is persymmetric: the rank-k eigenvector has mirror parity (-1)^(k-1)
    V = (v + (-1.0) ** np.arange(count) * v[::-1]) / 2
    V /= np.abs(V).max(axis=0)
    residuals = np.array([np.linalg.norm(system.matvec(V[:, k]) - w[k] * V[:, k]) for k in range(count)])
    limit = RESIDUAL_TOL * w[0]
    worst = residuals.max()
    if worst > limit:
        raise NumericalError(f"eigenpair residual {worst:.3e} exceeds {limit:.3e}")
    norms = np.linalg.norm(V, axis=0)

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
