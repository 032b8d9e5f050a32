import math

import numpy as np
import pytest

from nwidth import Interval, Kernel, ValidationError, assemble, build_grid, kernel_eval
from nwidth._io import fmt
from nwidth.nystrom import matrix_text

from oracles import kernel_r1, kernel_r2

UNIT = Interval(0.0, 1.0)


def test_grid_unit_interval_m3():
    g = build_grid(UNIT, 3)
    assert g.h == 0.25
    np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_symmetric_interval_m1():
    g = build_grid(Interval(-1.0, 1.0), 1)
    assert g.h == 1.0
    np.testing.assert_array_equal(g.nodes, [-1.0, 0.0, 1.0])


def test_grid_reference_mesh():
    g = build_grid(UNIT, 2047)
    assert g.h == 2.0**-11
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_rejects_bad_m():
    with pytest.raises(ValidationError):
        build_grid(UNIT, 0)
    with pytest.raises(ValidationError):
        build_grid(UNIT, -4)


def test_assemble_single_node():
    system = assemble(Kernel(1, UNIT), build_grid(UNIT, 1))
    np.testing.assert_array_equal(system.matrix, [[0.125]])


def test_assemble_r1_m3_entries():
    system = assemble(Kernel(1, UNIT), build_grid(UNIT, 3))
    assert system.matrix[0, 0] == 0.046875
    assert system.matrix[0, 1] == 0.03125


@pytest.mark.parametrize("r,oracle", [(1, kernel_r1), (2, kernel_r2)])
def test_assemble_matches_bruteforce_closed_form(r, oracle):
    m = 9
    grid = build_grid(UNIT, m)
    system = assemble(Kernel(r, UNIT), grid)
    brute = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            brute[i, j] = grid.h * oracle(0.0, 1.0, grid.nodes[i + 1], grid.nodes[j + 1])
    np.testing.assert_allclose(system.matrix, brute, rtol=1e-13)


def test_assemble_agrees_with_kernel_eval_bitwise():
    grid = build_grid(UNIT, 7)
    k = Kernel(3, UNIT)
    system = assemble(k, grid)
    for i in range(7):
        for j in range(7):
            expected = grid.h * kernel_eval(k, grid.nodes[i + 1], grid.nodes[j + 1])
            assert system.matrix[i, j] == expected


def test_matrix_symmetric_bitwise_and_positive():
    for r in (1, 2, 4):
        system = assemble(Kernel(r, UNIT), build_grid(UNIT, 40))
        A = system.matrix
        assert np.array_equal(A, A.T)
        assert A.min() > 0.0


def test_eigenvalues_real_positive():
    system = assemble(Kernel(2, UNIT), build_grid(UNIT, 40))
    w = np.linalg.eigvalsh(system.matrix)
    assert w.min() > 0.0


def test_r1_matrix_inverts_second_difference():
    # for r=1 the assembled matrix is exactly the inverse of the
    # scaled tridiagonal second-difference matrix
    m = 31
    system = assemble(Kernel(1, UNIT), build_grid(UNIT, m))
    h = system.grid.h
    K = (np.diag(2.0 * np.ones(m)) - np.diag(np.ones(m - 1), 1) - np.diag(np.ones(m - 1), -1)) / h**2
    np.testing.assert_allclose(system.matrix @ K, np.eye(m), atol=1e-12)


def test_r1_top_eigenvalue_second_order_in_h():
    target = 1.0 / math.pi**2
    errs = []
    for m in (63, 127):
        system = assemble(Kernel(1, UNIT), build_grid(UNIT, m))
        lam1 = np.linalg.eigvalsh(system.matrix)[-1]
        errs.append(abs(lam1 - target))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_r3_doubling_reduces_error_superconvergently():
    # halving h should shrink the eigenvalue error by at least 2^(2r-2)
    r = 3
    fine = assemble(Kernel(r, UNIT), build_grid(UNIT, 1023))
    lam_ref = np.linalg.eigvalsh(fine.matrix)[-1]
    errs = []
    for m in (31, 63):
        system = assemble(Kernel(r, UNIT), build_grid(UNIT, m))
        errs.append(abs(np.linalg.eigvalsh(system.matrix)[-1] - lam_ref))
    ratio = errs[0] / errs[1]
    assert ratio >= 2 ** (2 * r - 2)
    assert ratio <= 2 ** (2 * r + 2)


def test_interval_mismatch_rejected():
    grid = build_grid(Interval(0.0, 2.0), 5)
    with pytest.raises(ValidationError):
        assemble(Kernel(1, UNIT), grid)


def test_matrix_text_roundtrip(tmp_path):
    system = assemble(Kernel(2, UNIT), build_grid(UNIT, 6))
    text = matrix_text(system)
    assert text == "".join(" ".join(fmt(v) for v in row) + "\n" for row in system.matrix)
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    loaded = np.loadtxt(path)
    np.testing.assert_array_equal(loaded, system.matrix)
