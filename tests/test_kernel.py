import math
from fractions import Fraction

import numpy as np
import pytest

from nwidth import Interval, Kernel, ValidationError, factorial_scale, kernel_eval
from nwidth.kernel import kernel_column

from oracles import KnotVector, bspline_eval, greens_bvp, kernel_r1, kernel_r2

UNIT = Interval(0.0, 1.0)


def test_r1_closed_form_value():
    assert kernel_eval(Kernel(1, UNIT), 0.25, 0.5) == pytest.approx(0.125, rel=1e-15)


def test_r2_closed_form_value():
    assert kernel_eval(Kernel(2, UNIT), 0.3, 0.6) == pytest.approx(0.002736, rel=1e-14)


def test_boundary_values_exactly_zero():
    iv = Interval(-1.5, 2.0)
    for r in range(1, 6):
        k = Kernel(r, iv)
        for y in (-1.5, -0.3, 0.9, 2.0):
            assert kernel_eval(k, iv.a, y) == 0.0
            assert kernel_eval(k, iv.b, y) == 0.0
            assert kernel_eval(k, y, iv.a) == 0.0
            assert kernel_eval(k, y, iv.b) == 0.0


@pytest.mark.parametrize("r,oracle", [(1, kernel_r1), (2, kernel_r2)])
def test_closed_form_agreement_random(r, oracle):
    iv = Interval(-0.5, 1.7)
    k = Kernel(r, iv)
    rng = np.random.default_rng(2 + r)
    for _ in range(2000):
        x, y = rng.uniform(iv.a, iv.b, size=2)
        expected = oracle(iv.a, iv.b, x, y)
        assert kernel_eval(k, float(x), float(y)) == pytest.approx(expected, rel=1e-13)


def test_symmetry_is_exact():
    rng = np.random.default_rng(5)
    for r in (1, 2, 3, 5):
        k = Kernel(r, UNIT)
        for _ in range(200):
            x, y = rng.uniform(0.0, 1.0, size=2)
            assert kernel_eval(k, float(x), float(y)) == kernel_eval(k, float(y), float(x))


def test_positive_inside_open_square():
    rng = np.random.default_rng(9)
    for r in (1, 2, 4):
        k = Kernel(r, UNIT)
        for _ in range(200):
            x, y = rng.uniform(1e-3, 1.0 - 1e-3, size=2)
            assert kernel_eval(k, float(x), float(y)) > 0.0


def test_affine_covariance():
    # g on (a,b) equals (b-a)^(2r-1) times g on (0,1) at mapped points
    rng = np.random.default_rng(13)
    iv = Interval(-2.0, 1.0)
    L = iv.span
    for r in (1, 2, 3):
        ka = Kernel(r, iv)
        k0 = Kernel(r, UNIT)
        for _ in range(100):
            u, v = rng.uniform(0.0, 1.0, size=2)
            x, y = iv.a + L * u, iv.a + L * v
            lhs = kernel_eval(ka, float(x), float(y))
            rhs = L ** (2 * r - 1) * kernel_eval(k0, float(u), float(v))
            assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_matches_boundary_value_problem_oracle(r):
    iv = Interval(0.0, 1.0)
    k = Kernel(r, iv)
    rng = np.random.default_rng(17 + r)
    for _ in range(60):
        x, y = rng.uniform(0.05, 0.95, size=2)
        expected = greens_bvp(r, iv.a, iv.b, float(x), float(y))
        assert kernel_eval(k, float(x), float(y)) == pytest.approx(expected, rel=1e-7)


def test_column_path_matches_general_bspline_path():
    # the fixed-span assembly evaluation must agree with the generic evaluator
    rng = np.random.default_rng(23)
    iv = Interval(-1.0, 1.0)
    for r in (1, 2, 3, 6):
        k = Kernel(r, iv)
        y = 0.37
        xs = np.sort(rng.uniform(-1.0, y, size=50))
        fast = kernel_column(k, y, xs)
        knots = KnotVector((iv.a,) * r + (y,) + (iv.b,) * r)
        scale = factorial_scale(r, y, iv)
        slow = np.array([scale * bspline_eval(knots, float(x)) for x in xs])
        np.testing.assert_allclose(fast, slow, rtol=5e-14)


def test_factorial_scale_values():
    assert factorial_scale(1, 0.5, UNIT) == pytest.approx(0.25, rel=1e-15)
    assert factorial_scale(2, 0.5, UNIT) == pytest.approx(0.0625 / 6.0, rel=1e-15)


def test_factorial_scale_r20_against_rational_arithmetic():
    got = factorial_scale(20, 0.5, UNIT)
    exact = Fraction(1, 2) ** 40 / Fraction(math.factorial(39))
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(float(exact), rel=1e-13)


def test_factorial_scale_range_guard():
    with pytest.raises(ValidationError):
        factorial_scale(0, 0.5, UNIT)
    with pytest.raises(ValidationError):
        factorial_scale(21, 0.5, UNIT)
    assert factorial_scale(21, 0.5, UNIT, allow_any_r=True) > 0.0
    with pytest.raises(ValidationError):
        factorial_scale(2, 1.5, UNIT)


def test_input_validation():
    with pytest.raises(ValidationError):
        Interval(1.0, 1.0)
    with pytest.raises(ValidationError):
        Interval(0.0, math.inf)
    with pytest.raises(ValidationError):
        Kernel(0, UNIT)
    k = Kernel(1, UNIT)
    with pytest.raises(ValidationError):
        kernel_eval(k, -0.1, 0.5)
    with pytest.raises(ValidationError):
        kernel_eval(k, 0.5, 1.1)
