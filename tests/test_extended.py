import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nwidth import (
    Eigenpair, Interval, Kernel, NumericalError, ValidationError, assemble, build_grid, top_eigenpairs,
)
from nwidth import extended as extended_module
from nwidth.extended import DD_ENTRY_REL, ExtendedSystem

from oracles import DenseExtendedSystem, assemble_dd, matvec_dd

UNIT = Interval(0.0, 1.0)
EPS = np.finfo(float).eps


def system_of(r, m, interval=UNIT):
    return assemble(Kernel(r, interval), build_grid(interval, m))


def exact_matrix(r, m):
    """The [0, 1] collocation matrix of (r, m) in exact rationals, from the kernel's closed form."""
    n = m + 1
    den = math.factorial(2 * r - 1) * n ** (4 * r - 1)
    A = [[None] * m for _ in range(m)]
    for k in range(1, n):
        for l in range(k, n):
            total = sum((-1) ** i * math.comb(2 * r - 1, r - 1 - i) * k ** (r + i) * (n - k) ** (r - 1 - i)
                        * l ** (r - 1 - i) * (n - l) ** (r + i) for i in range(r))
            A[k - 1][l - 1] = A[l - 1][k - 1] = Fraction(total, den)
    return A


@pytest.mark.parametrize("m", [9, 31])
@pytest.mark.parametrize("r", [1, 3, 7, 12, 20])
def test_generator_product_matches_exact_rationals(r, m):
    # measured at most 0.43 eps^2 lambda_1 ||x||
    A = exact_matrix(r, m)
    lam1 = np.linalg.eigvalsh(np.array(A, dtype=float))[-1]
    extended = ExtendedSystem(system_of(r, m), 1)
    rng = np.random.default_rng(100 * r + m)
    for _ in range(3):
        xh = rng.standard_normal(m)
        xl = xh * EPS * rng.uniform(-0.5, 0.5, m)
        yh, yl = extended.matvec(xh, xl)
        x = [Fraction(h) + Fraction(lo) for h, lo in zip(xh, xl)]
        err = [float(sum(a * v for a, v in zip(row, x)) - Fraction(h) - Fraction(lo))
               for row, h, lo in zip(A, yh, yl)]
        assert np.linalg.norm(err) <= DD_ENTRY_REL * lam1 * np.linalg.norm(xh)


@pytest.mark.parametrize("m", [240, 500])
def test_generator_product_matches_the_deboor_oracle(m):
    # random vectors and eigenvectors; measured at most 0.93 eps^2 lambda_1 ||x||
    rng = np.random.default_rng(m)
    for r in (1, 4, 10, 20):
        hi, lo = assemble_dd(r, m)
        w, V = np.linalg.eigh(hi)
        extended = ExtendedSystem(system_of(r, m), 1)
        for xh in [rng.standard_normal(m) for _ in range(3)] + [V[:, -k] for k in (1, 5, 20)]:
            xl = np.zeros(m)
            (ah, al), (bh, bl) = extended.matvec(xh, xl), matvec_dd(hi, lo, xh, xl)
            err = np.linalg.norm((ah - bh) + (al - bl))
            assert err <= DD_ENTRY_REL * w[-1] * np.linalg.norm(xh), f"r={r}"


@pytest.mark.parametrize("r", [1, 3, 7])
def test_dd_assembly_matches_bvp_oracle(r):
    mpmath = pytest.importorskip("mpmath")
    from oracles import bvp_matvec_mp

    m = 9
    hi, lo = assemble_dd(r, m)
    columns = bvp_matvec_mp(r, m, list(np.eye(m)), dps=45)
    with mpmath.workdps(45):
        worst = max(
            abs(mpmath.mpf(hi[i, j]) + mpmath.mpf(lo[i, j]) - columns[j][i]) / abs(columns[j][i])
            for i in range(m)
            for j in range(m)
        )
    assert worst < 1e-29


def test_dd_assembly_rounds_to_float64_assembly():
    for r in (1, 4, 12):
        hi, lo = assemble_dd(r, 40)
        A = assemble(Kernel(r, UNIT), build_grid(UNIT, 40)).matrix
        np.testing.assert_allclose(A, hi, rtol=1e3 * EPS, atol=0)
        assert np.all(np.abs(lo) <= EPS * np.abs(hi))


def test_dd_assembly_exactly_symmetric_and_persymmetric():
    hi, lo = assemble_dd(5, 31)
    for part in (hi, lo):
        np.testing.assert_array_equal(part, part.T)
        np.testing.assert_array_equal(part, part[::-1, ::-1].T)


def test_matvec_dd_carries_the_low_parts():
    rng = np.random.default_rng(7)
    hi = rng.standard_normal((20, 20))
    lo = hi * EPS * rng.uniform(-0.5, 0.5, (20, 20))
    xh = rng.standard_normal(20)
    xl = xh * EPS * rng.uniform(-0.5, 0.5, 20)
    yh, yl = matvec_dd(hi, lo, xh, xl)
    for i in range(20):
        exact = sum((Fraction(hi[i, j]) + Fraction(lo[i, j])) * (Fraction(xh[j]) + Fraction(xl[j]))
                    for j in range(20))
        err = abs(float(exact - Fraction(yh[i]) - Fraction(yl[i])))
        assert err <= 1e-28 * np.abs(hi[i]).sum() * np.abs(xh).max()


def test_refined_vector_within_the_float64_bound():
    # the float64 samples differ from the double-double ones by at most their bound
    system = system_of(4, 200)
    pairs = top_eigenpairs(system, 10)
    extended = ExtendedSystem(system, 10)
    for pair in pairs:
        refined = extended.refine(pair)
        assert refined.error_bound < 1e-15
        assert np.abs(pair.vector - refined.vector).max() <= pair.error_bound
        assert refined.value == pytest.approx(pair.value, rel=1e-10)


def test_float64_bound_covers_assembly_rounding_away_from_zero():
    # an interval away from 0 is solved on the [0, 1] matrix of (r, m) like any
    # other, and the bound, which counts that matrix's rounding against the
    # double-double one, covers the samples (rank 1: error 6.7e-16, bound 1.8e-14)
    iv = Interval(-2.0, -1.65)
    system = system_of(20, 300, iv)
    pairs = top_eigenpairs(system, 4)
    extended = ExtendedSystem(system, 4)
    for pair in pairs:
        refined = extended.refine(pair)
        assert np.abs(pair.vector - refined.vector).max() <= pair.error_bound


def test_refinement_rejects_a_pair_of_another_order():
    pairs = top_eigenpairs(system_of(4, 60), 3)
    with pytest.raises(NumericalError, match="not the rank-3 eigenpair of the r=5 matrix"):
        ExtendedSystem(system_of(5, 60), 3).refine(pairs[2])


def test_refinement_rejects_samples_of_another_rank():
    # the eigenvalue of rank 3 with the samples of rank 2
    system = system_of(4, 60)
    pairs = top_eigenpairs(system, 3)
    swapped = Eigenpair(index=3, value=pairs[2].value, vector=pairs[1].vector,
                        error_bound=pairs[1].error_bound)
    with pytest.raises(NumericalError, match="its samples lie"):
        ExtendedSystem(system, 3).refine(swapped)


def test_refined_value_is_the_unit_interval_value():
    # on [-1, 1] the pairs are those of the [0, 1] matrix, and so is the refined value
    iv = Interval(-1.0, 1.0)
    system = system_of(3, 50, iv)
    pairs = top_eigenpairs(system, 2)
    unit = top_eigenpairs(system_of(3, 50), 2)
    refined = ExtendedSystem(system, 2).refine(pairs[1])
    assert pairs[1].value == unit[1].value
    assert refined.value == pytest.approx(unit[1].value, rel=1e-12)
    assert np.dot(refined.vector, pairs[1].vector) > 0


def test_refinement_refuses_ranks_beyond_float64():
    iv = Interval(-1.0, 1.0)
    system = system_of(20, 240, iv)
    pairs = top_eigenpairs(system, 15)
    with pytest.raises(NumericalError, match="beyond float64 precision"):
        ExtendedSystem(system, 15).refine(pairs[14])


def test_refinement_rejects_a_pair_of_another_mesh():
    pairs = top_eigenpairs(system_of(4, 60), 3)
    with pytest.raises(ValidationError, match="60 samples in a system with m=61"):
        ExtendedSystem(system_of(4, 61), 3).refine(pairs[2])


def test_refinement_rejects_a_rank_beyond_the_sized_basis():
    system = system_of(4, 60)
    pairs = top_eigenpairs(system, 3)
    with pytest.raises(ValidationError, match="ranks up to 2"):
        ExtendedSystem(system, 2).refine(pairs[2])


@pytest.mark.parametrize("r", [1, 4, 10, 20])
def test_refinement_agrees_with_the_dense_oracle(r):
    # both refine the same pairs, within the sum of their bounds (measured at
    # most 0.50 of it), and refuse the same: at r=10 and 20 the top ranks,
    # whose gaps are within the float64 resolution of lambda_1
    iv = Interval(-1.0, 1.0)
    m = 240
    system = system_of(r, m, iv)
    pairs = top_eigenpairs(system, 24)
    systems = ExtendedSystem(system, 24), DenseExtendedSystem(r, m)
    refused = []
    for pair in pairs:
        refined = []
        for system in systems:
            try:
                refined.append(system.refine(pair))
            except NumericalError:
                refined.append(None)
        assert (refined[0] is None) == (refined[1] is None), f"rank {pair.index}"
        if refined[0] is None:
            refused.append(pair.index)
            continue
        new, old = refined
        moved = np.abs(new.vector - old.vector).max()
        assert moved <= new.error_bound + old.error_bound, f"rank {pair.index}"
    assert bool(refused) == (r >= 10)


def test_refinement_forms_no_m_by_m_array():
    # the de Boor path held two m x m matrices and the eigenvectors of one;
    # the generators and the Lanczos pairs peaked at 6.6 MiB of the 16 MiB limit
    iv = Interval(-1.0, 1.0)
    m = 2047
    system = system_of(10, m, iv)
    pairs = top_eigenpairs(system, 22)
    tracemalloc.start()
    try:
        extended = ExtendedSystem(system, 22)
        for pair in pairs[20:]:
            extended.refine(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 / 2


def test_one_correction_solve_for_every_rank_of_a_run(monkeypatch):
    # sized once for the highest rank; growing the basis rank by rank took 19 solves here
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    solve = extended_module._solve
    monkeypatch.setattr(extended_module, "_solve", counted)
    system = system_of(1, 240)
    pairs = top_eigenpairs(system, 24)
    extended = ExtendedSystem(system, 24)
    for pair in pairs:
        extended.refine(pair)
    assert calls == [72]


def test_generators_match_exact_integers_at_the_default_mesh():
    # the integers of the module docstring times 2^-(2r-1)e, with 2^e > m+1, on
    # sampled nodes: measured at most 0.64 eps^2 (relative) for X and 0.78 for Y
    r, m = 20, 2047
    n = m + 1
    e = n.bit_length()
    extended = ExtendedSystem(system_of(r, m), 1)
    worst = 0.0
    for k in (1, 2, 3, 511, 1024, 1500, 2046, 2047):
        for i in range(r):
            x = Fraction(k ** (r + i) * (n - k) ** (r - 1 - i), 2 ** (e * (2 * r - 1)))
            y = (-1) ** i * math.comb(2 * r - 1, r - 1 - i) * Fraction(
                k ** (r - 1 - i) * (n - k) ** (r + i), 2 ** (e * (2 * r - 1)))
            for exact, hi, lo in ((x, extended.Xh, extended.Xl), (y, extended.Yh, extended.Yl)):
                got = Fraction(float(hi[i, k - 1])) + Fraction(float(lo[i, k - 1]))
                worst = max(worst, abs(float((got - exact) / exact)))
    assert worst <= 4 * EPS * EPS
    scale = Fraction(2 ** (2 * e * (2 * r - 1)), math.factorial(2 * r - 1) * n ** (4 * r - 1))
    hi, lo = extended.scale
    assert abs(float((Fraction(hi) + Fraction(lo) - scale) / scale)) <= EPS * EPS
