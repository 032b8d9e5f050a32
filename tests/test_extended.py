from fractions import Fraction

import numpy as np
import pytest

from nwidth import Eigenpair, Interval, Kernel, NumericalError, assemble, build_grid, top_eigenpairs
from nwidth.extended import ExtendedSystem, assemble_dd, matvec_dd

UNIT = Interval(0.0, 1.0)
EPS = np.finfo(float).eps


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
    m = 200
    pairs = top_eigenpairs(assemble(Kernel(4, UNIT), build_grid(UNIT, m)), 10)
    extended = ExtendedSystem(4, m)
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
    m = 300
    pairs = top_eigenpairs(assemble(Kernel(20, iv), build_grid(iv, m)), 4)
    extended = ExtendedSystem(20, m)
    for pair in pairs:
        refined = extended.refine(pair)
        assert np.abs(pair.vector - refined.vector).max() <= pair.error_bound


def test_refinement_rejects_a_pair_of_another_order():
    pairs = top_eigenpairs(assemble(Kernel(4, UNIT), build_grid(UNIT, 60)), 3)
    with pytest.raises(NumericalError, match="not the rank-3 eigenpair of the r=5 matrix"):
        ExtendedSystem(5, 60).refine(pairs[2])


def test_refinement_rejects_samples_of_another_rank():
    # the eigenvalue of rank 3 with the samples of rank 2
    pairs = top_eigenpairs(assemble(Kernel(4, UNIT), build_grid(UNIT, 60)), 3)
    swapped = Eigenpair(index=3, value=pairs[2].value, vector=pairs[1].vector,
                        error_bound=pairs[1].error_bound)
    with pytest.raises(NumericalError, match="its samples lie"):
        ExtendedSystem(4, 60).refine(swapped)


def test_refined_value_is_the_unit_interval_value():
    # on [-1, 1] the pairs are those of the [0, 1] matrix, and so is the refined value
    iv = Interval(-1.0, 1.0)
    pairs = top_eigenpairs(assemble(Kernel(3, iv), build_grid(iv, 50)), 2)
    unit = top_eigenpairs(assemble(Kernel(3, UNIT), build_grid(UNIT, 50)), 2)
    refined = ExtendedSystem(3, 50).refine(pairs[1])
    assert pairs[1].value == unit[1].value
    assert refined.value == pytest.approx(unit[1].value, rel=1e-12)
    assert np.dot(refined.vector, pairs[1].vector) > 0


def test_refinement_refuses_ranks_beyond_float64():
    iv = Interval(-1.0, 1.0)
    pairs = top_eigenpairs(assemble(Kernel(20, iv), build_grid(iv, 240)), 15)
    with pytest.raises(NumericalError, match="beyond float64 precision"):
        ExtendedSystem(20, 240).refine(pairs[14])
