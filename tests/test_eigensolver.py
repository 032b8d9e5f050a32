import functools
import math

import numpy as np
import pytest

from nwidth import (
    Interval,
    Kernel,
    NumericalError,
    ValidationError,
    assemble,
    build_grid,
    eigenfunction_values,
    top_eigenpairs,
    top_eigenvalues,
)
from nwidth import eigensolver
from nwidth.eigensolver import oriented
from nwidth.nystrom import NystromSystem

from oracles import dense_top_eigenpairs, dense_top_eigh, discrete_sine_eigenvalue, jacobi_eigh

UNIT = Interval(0.0, 1.0)
EPS = np.finfo(float).eps
ALL_R = range(1, 21)
ORACLE_MESHES = [7, 64, 511, 2047]
PAIR_MESHES = [64, 511, 2047]


def system_for(r, m, interval=UNIT):
    return assemble(Kernel(r, interval), build_grid(interval, m))


def diagonal_system(d):
    """A system whose matrix is diag(d) / (m+1)^2, built from the factors X = I, Y = diag(d)."""
    m = len(d)
    return NystromSystem(kernel=Kernel(1, UNIT), grid=build_grid(UNIT, m), X=np.eye(m), Y=np.diag(d))


@functools.lru_cache(maxsize=None)
def dense_solve(r, m):
    """One dense solve per (r, m), shared by the oracle tests: the top 9 pairs (w, v).

    Nine are the 8 pairs `admitted_dense_pairs` may check and the one
    below them.  Only (w, v) is kept: the matrices of the 20 orders at
    m = 2047 would take 32 MiB each.
    """
    return dense_top_eigh(system_for(r, m).matrix, min(9, m))


def dense_top6(r, m):
    return dense_solve(r, m)[0][: min(6, m - 1)]


def test_single_node_system():
    pairs = top_eigenpairs(system_for(1, 1), 1)
    assert pairs[0].value == 0.125
    np.testing.assert_array_equal(pairs[0].vector, [1.0])
    assert pairs[0].index == 1


def test_r1_eigenvalues_match_discrete_sine_formula():
    m = 63
    lam = top_eigenvalues(system_for(1, m), 6)
    for k in range(1, 7):
        assert lam[k - 1] == pytest.approx(discrete_sine_eigenvalue(k, m), rel=1e-13)


def test_r1_top_eigenvalue_near_continuum():
    lam = top_eigenvalues(system_for(1, 511), 1)
    assert lam[0] == pytest.approx(1.0 / math.pi**2, rel=1e-4)


@pytest.mark.parametrize("r", [2, 3])
def test_matches_jacobi_oracle(r):
    system = system_for(r, 64)
    lam = top_eigenvalues(system, 6)
    ref, _ = jacobi_eigh(system.matrix)
    np.testing.assert_allclose(lam, ref[:6], rtol=1e-12)


def test_full_spectrum_request_allowed():
    system = system_for(2, 24)
    lam = top_eigenvalues(system, 24)
    ref = np.linalg.eigvalsh(system.matrix)[::-1]
    np.testing.assert_allclose(lam, ref, rtol=1e-12)
    pairs = top_eigenpairs(system, 24)
    assert len(pairs) == 24


def test_count_out_of_range_rejected():
    system = system_for(1, 8)
    with pytest.raises(ValidationError):
        top_eigenpairs(system, 9)
    with pytest.raises(ValidationError):
        top_eigenpairs(system, 0)
    with pytest.raises(ValidationError):
        top_eigenvalues(system, 9)


def test_pair_contract_residual_orthogonality_normalization():
    system = system_for(2, 100)
    pairs = top_eigenpairs(system, 8)
    A = system.matrix
    fro = np.linalg.norm(A, "fro")
    values = np.array([p.value for p in pairs])
    assert np.all(np.diff(values) < 0)
    for p in pairs:
        v = p.vector
        assert np.abs(v).max() == 1.0
        assert v[np.flatnonzero(np.abs(v) > p.error_bound)[0]] > 0
        assert v[np.flatnonzero(v)[0]] > 0  # at r=2 the leading sample lies above the bound
        assert np.linalg.norm(A @ v - p.value * v) <= 1e-10 * fro
    for i in range(8):
        for j in range(i + 1, 8):
            vi, vj = pairs[i].vector, pairs[j].vector
            cos = abs(vi @ vj) / (np.linalg.norm(vi) * np.linalg.norm(vj))
            assert cos <= 1e-8


def test_sign_change_counts():
    system = system_for(2, 200)
    pairs = top_eigenpairs(system, 6)
    for p in pairs:
        s = np.sign(p.vector)
        changes = int(np.sum(s[:-1] * s[1:] < 0))
        assert changes == p.index - 1


def test_tie_detection_raises():
    fake = diagonal_system([1.0, 1.0, 0.5])
    with pytest.raises(NumericalError):
        top_eigenpairs(fake, 3)


def test_nonpositive_eigenvalue_raises():
    fake = diagonal_system([1.0, 0.5, -0.25])
    with pytest.raises(NumericalError):
        top_eigenpairs(fake, 3)


@pytest.mark.parametrize("m", ORACLE_MESHES)
def test_top_eigenvalues_match_dense_oracle_at_every_rank(m):
    # every rank is checked, so a solve that sees only the eigenvectors of one
    # mirror parity (every other rank) fails here
    for r in ALL_R:
        ref = dense_top6(r, m)
        lam = top_eigenvalues(system_for(r, m), len(ref))
        assert np.abs(lam - ref).max() <= 64 * EPS * ref[0], f"r={r}"


@pytest.mark.parametrize("m", ORACLE_MESHES)
def test_operator_matches_the_matrix_product(m):
    rng = np.random.default_rng(m)
    for r in ALL_R:
        system = system_for(r, m)
        x = rng.standard_normal(m)
        err = np.linalg.norm(system.matvec(x) - system.matrix @ x)
        assert err <= 8 * EPS * dense_top6(r, m)[0] * np.linalg.norm(x), f"r={r}"


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 31, 33, 63])
def test_operator_matches_the_matrix_product_around_the_block_size(m):
    # the blocked product cuts the rows into blocks of nystrom.BLOCK = 16:
    # one partial block, whole blocks, and a row or two beyond them
    rng = np.random.default_rng(m)
    for r in ALL_R:
        system = system_for(r, m)
        x = rng.standard_normal(m)
        err = np.linalg.norm(system.matvec(x) - system.matrix @ x)
        assert err <= 8 * EPS * np.linalg.eigvalsh(system.matrix)[-1] * np.linalg.norm(x), f"r={r}"


def test_operator_reads_the_width_of_its_factors():
    # X = I is 40 columns wide, not the kernel's r = 1
    d = np.linspace(1.0, 2.0, 40)
    system = diagonal_system(d)
    x = np.random.default_rng(40).standard_normal(40)
    np.testing.assert_allclose(system.matvec(x), d * x / 41**2, rtol=4 * EPS)


def admitted_dense_pairs(r, m, most=8):
    """The oracle's pairs of every rank up to `most` that its positivity and tie checks admit."""
    A = system_for(r, m).matrix
    for count in range(most, 0, -1):
        try:
            return dense_top_eigenpairs(A, count, r, dense_solve(r, m))
        except ValueError:
            continue
    raise AssertionError(f"no rank admitted for r={r}, m={m}")


@pytest.mark.parametrize("m", PAIR_MESHES)
def test_top_eigenpairs_match_dense_oracle_within_their_bounds(m):
    for r in ALL_R:
        ref = admitted_dense_pairs(r, m)
        pairs = top_eigenpairs(system_for(r, m), len(ref))
        lam1 = ref[0].value
        for pair, dense in zip(pairs, ref):
            assert abs(pair.value - dense.value) <= 64 * EPS * lam1, f"r={r}, rank {pair.index}"
            # where the leading sample lies below the bound its sign is rounding
            # noise, so either solver may orient the vector either way
            sign = 1.0 if pair.vector @ dense.vector > 0 else -1.0
            err = np.abs(pair.vector - sign * dense.vector).max()
            assert err <= pair.error_bound + dense.error_bound, f"r={r}, rank {pair.index}"


def test_high_r_pairs_are_oriented_like_the_dense_oracle():
    # at r=20 the leading samples (about 1e-40) are rounding noise; both solvers
    # orient by the first sample above the pair's bound, so they agree in sign
    system = system_for(20, 511)
    dense = dense_top_eigenpairs(system.matrix, 4, 20)
    for pair, ref in zip(top_eigenpairs(system, 4), dense):
        assert abs(pair.vector[0]) < pair.error_bound
        assert pair.vector @ ref.vector > 0, f"rank {pair.index}"


def test_orientation_by_the_first_sample_above_the_bound():
    v = np.array([-1e-20, 3e-9, -0.5, 1.0])
    np.testing.assert_array_equal(oriented(v, 1e-10), v)
    np.testing.assert_array_equal(oriented(v, 1e-8), -v)
    np.testing.assert_array_equal(oriented(v, 0.0), -v)
    # no sample above the bound: the largest one decides
    np.testing.assert_array_equal(oriented(-v, math.inf), v)


def test_repeated_solves_are_bitwise_equal():
    first = top_eigenvalues(system_for(4, 511), 6)
    assert np.array_equal(top_eigenvalues(system_for(4, 511), 6), first)
    first_pairs = top_eigenpairs(system_for(4, 511), 6)
    for pair, again in zip(first_pairs, top_eigenpairs(system_for(4, 511), 6)):
        assert pair.value == again.value
        assert np.array_equal(pair.vector, again.vector)
        assert pair.error_bound == again.error_bound


def test_eigenfunction_values_padding():
    system = system_for(1, 1)
    pairs = top_eigenpairs(system, 1)
    np.testing.assert_array_equal(eigenfunction_values(pairs[0], system.grid), [0.0, 1.0, 0.0])


def test_eigenfunction_values_length_mismatch():
    system = system_for(1, 5)
    pairs = top_eigenpairs(system, 1)
    other = build_grid(UNIT, 6)
    with pytest.raises(ValidationError):
        eigenfunction_values(pairs[0], other)


def test_r1_eigenvectors_are_discrete_sines():
    m = 255
    system = system_for(1, m)
    pairs = top_eigenpairs(system, 3)
    x = system.grid.nodes
    for k in range(1, 4):
        vals = eigenfunction_values(pairs[k - 1], system.grid)
        assert np.abs(vals - np.sin(k * math.pi * x)).max() <= 1e-10


def admitted_pairs(system, most=8):
    """The solver's pairs of every rank up to `most` that its checks admit."""
    for count in range(most, 0, -1):
        try:
            return top_eigenpairs(system, count)
        except NumericalError:
            continue
    raise AssertionError("no rank admitted")


@pytest.mark.parametrize("m", PAIR_MESHES)
def test_mirror_symmetrisation_stays_within_the_error_bound(m):
    # the rank-k eigenvector of the persymmetric matrix has parity (-1)^(k-1);
    # making the solver's vector exactly so moves no sample beyond the pair's
    # bound (largest move measured: 0.46 of the bound, at m = 64)
    for r in ALL_R:
        system = system_for(r, m)
        pairs = admitted_pairs(system)
        _, v = eigensolver._solve(system, len(pairs) + 1, vectors=True)
        for pair in pairs:
            raw = v[:, pair.index - 1] / np.abs(v[:, pair.index - 1]).max()
            raw *= 1.0 if raw @ pair.vector > 0 else -1.0
            parity = (-1) ** (pair.index - 1)
            assert np.array_equal(pair.vector, parity * pair.vector[::-1])
            assert np.abs(pair.vector - raw).max() <= pair.error_bound, f"r={r}, rank {pair.index}"


def test_repeated_eigenvalues_are_all_found():
    # three distinct values, sixteen times each: the Krylov space of any start
    # has dimension 3, so the Lanczos basis goes on from new start vectors
    d = np.tile([3.0, 2.0, 1.0], 16)
    lam = top_eigenvalues(diagonal_system(d), 4)
    np.testing.assert_allclose(lam, np.full(4, 3.0 / 49**2), rtol=64 * EPS, atol=0)
    # every product of the zero matrix vanishes: each step starts anew
    assert np.array_equal(top_eigenvalues(diagonal_system(np.zeros(48)), 4), np.zeros(4))


def test_start_vector_is_generic():
    # as much weight in each mirror parity as a random vector has (sqrt 2 of
    # the unit norm each), and the same bits on every call
    v = eigensolver._start(2047, 0)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=4 * EPS)
    for parity in (1, -1):
        assert np.linalg.norm(v + parity * v[::-1]) == pytest.approx(math.sqrt(2), rel=0.1)
    assert np.array_equal(v, eigensolver._start(2047, 0))
