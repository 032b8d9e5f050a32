import numpy as np
import pytest
from scipy.interpolate import BSpline as ScipyBSpline

from oracles import KnotVector, bspline_eval, bspline_r2


def test_linear_hat_peak():
    assert bspline_eval(KnotVector((0.0, 1.0, 2.0)), 1.0) == 1.0


def test_linear_hat_left_leg():
    assert bspline_eval(KnotVector((0.0, 0.5, 1.0)), 0.25) == 0.5


def test_cubic_quadratic_closed_form_value():
    # B[0,0,0.6,1,1](0.3) = (0.09/0.36)*(0.3 + 2*0.7*0.6) = 0.285
    got = bspline_eval(KnotVector((0.0, 0.0, 0.6, 1.0, 1.0)), 0.3)
    assert got == pytest.approx(0.285, rel=1e-14)
    assert got == pytest.approx(bspline_r2(0.0, 1.0, 0.6, 0.3), rel=1e-14)


def test_quadratic_reflection_through_symmetry():
    # symmetric knot vector: value at 0.75 equals the closed form at 0.25
    got = bspline_eval(KnotVector((0.0, 0.0, 0.5, 1.0, 1.0)), 0.75)
    assert got == pytest.approx(bspline_r2(0.0, 1.0, 0.5, 0.25), rel=1e-14)
    assert got == pytest.approx(0.25, rel=1e-14)


def test_support_is_knot_hull():
    kv = KnotVector((0.0, 0.0, 0.6, 1.0, 1.0))
    for x in (-1.0, -1e-12, 1.0 + 1e-12, 2.0):
        assert bspline_eval(kv, x) == 0.0
    kv2 = KnotVector((-3.0, -1.0, 2.0))
    assert bspline_eval(kv2, -3.5) == 0.0
    assert bspline_eval(kv2, 2.5) == 0.0


def test_right_continuous_at_full_multiplicity_first_knot():
    # B[1,1,2] jumps at its first knot; the convention picks the right limit
    assert bspline_eval(KnotVector((1.0, 1.0, 2.0)), 1.0) == 1.0


def test_left_limit_at_last_knot():
    # B[0,1,1] has left limit 1 at its last knot
    assert bspline_eval(KnotVector((0.0, 1.0, 1.0)), 1.0) == 1.0
    # with multiplicity below degree+1 the spline vanishes there
    assert bspline_eval(KnotVector((0.0, 0.0, 0.6, 1.0, 1.0)), 1.0) == 0.0
    assert bspline_eval(KnotVector((0.0, 0.5, 1.0)), 1.0) == 0.0


def test_nonnegative_on_random_knots():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = int(rng.integers(1, 6))
        knots = np.sort(rng.uniform(-2.0, 3.0, size=p + 2))
        if rng.random() < 0.4:  # force some multiplicities
            knots = np.sort(np.round(knots * 2.0) / 2.0)
        if knots[-1] == knots[0]:
            continue
        kv = KnotVector(tuple(knots))
        x = rng.uniform(knots[0] - 0.5, knots[-1] + 0.5)
        val = bspline_eval(kv, x)
        assert val >= 0.0
        if x < knots[0] or x > knots[-1]:
            assert val == 0.0


def test_partition_of_unity_on_uniform_knots():
    for p in range(1, 6):
        T = np.linspace(-1.0, 4.0, 12 + p)
        members = [KnotVector(tuple(T[i : i + p + 2])) for i in range(len(T) - p - 1)]
        for x in np.linspace(T[p], T[-p - 2], 40):
            total = sum(bspline_eval(kv, float(x)) for kv in members)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_degree_one_closed_form_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, y, b = np.sort(rng.uniform(-4.0, 4.0, size=3))
        if y - a < 1e-6 or b - y < 1e-6:
            continue
        x = rng.uniform(a, b)
        expected = (x - a) / (y - a) if x <= y else (b - x) / (b - y)
        got = bspline_eval(KnotVector((a, y, b)), float(x))
        assert got == pytest.approx(expected, abs=1e-14)


def test_matches_scipy_basis_element():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        knots = np.sort(rng.uniform(0.0, 1.0, size=p + 2))
        if np.any(np.diff(knots) < 1e-3):
            continue
        ref = ScipyBSpline.basis_element(knots, extrapolate=False)
        kv = KnotVector(tuple(knots))
        for x in rng.uniform(knots[0] + 1e-6, knots[-1] - 1e-6, size=8):
            assert bspline_eval(kv, float(x)) == pytest.approx(float(ref(x)), rel=1e-12, abs=1e-13)


def test_rejects_decreasing_knots():
    with pytest.raises(ValueError):
        KnotVector((0.0, 1.0, 0.5))


def test_rejects_all_equal_knots():
    with pytest.raises(ValueError):
        KnotVector((1.0, 1.0, 1.0))


def test_rejects_degree_knot_count_mismatch():
    kv = KnotVector((0.0, 1.0, 2.0, 3.0), degree=1)
    with pytest.raises(ValueError):
        bspline_eval(kv, 0.5)


def test_rejects_too_few_knots():
    with pytest.raises(ValueError):
        KnotVector((0.0,))
    with pytest.raises(ValueError):
        KnotVector((0.0, 1.0), degree=3)
