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
from nwidth.nystrom import NystromSystem

from oracles import discrete_sine_eigenvalue, jacobi_eigh

UNIT = Interval(0.0, 1.0)


def system_for(r, m, interval=UNIT):
    return assemble(Kernel(r, interval), build_grid(interval, m))


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
        assert v[np.flatnonzero(v)[0]] > 0
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
    grid = build_grid(UNIT, 3)
    fake = NystromSystem(kernel=Kernel(1, UNIT), grid=grid, matrix=np.diag([1.0, 1.0, 0.5]))
    with pytest.raises(NumericalError):
        top_eigenpairs(fake, 3)


def test_nonpositive_eigenvalue_raises():
    grid = build_grid(UNIT, 3)
    fake = NystromSystem(kernel=Kernel(1, UNIT), grid=grid, matrix=np.diag([1.0, 0.5, -0.25]))
    with pytest.raises(NumericalError):
        top_eigenpairs(fake, 3)


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
