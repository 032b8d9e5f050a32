"""Exact scaling, translation and mirror symmetry of the results (property tests).

Every interval [a, b] is solved on the one [0, 1] matrix of (r, m), so the
eigenvector samples and their bounds do not depend on the interval at all,
d_n scales by (b-a)^r and d_n^(-1/r) by 1/(b-a), and the knots map affinely.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from nwidth import Interval, Kernel, assemble, build_grid, extract_knots, nwidth_rows, top_eigenpairs  # noqa: E402

UNIT = Interval(0.0, 1.0)

# a in [-3, 3], b - a log-uniform in [1e-3, 1e3]
intervals = st.builds(
    lambda a, exponent: Interval(a, a + 10.0**exponent),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
orders = st.integers(1, 6)
meshes = st.integers(31, 127)


def pairs_on(interval, r, m, count):
    system = assemble(Kernel(r, interval), build_grid(interval, m))
    return system, top_eigenpairs(system, count)


@given(intervals, orders, meshes)
def test_samples_and_bounds_equal_the_unit_interval_ones(interval, r, m):
    _, pairs = pairs_on(interval, r, m, 4)
    _, unit = pairs_on(UNIT, r, m, 4)
    for pair, ref in zip(pairs, unit):
        assert np.array_equal(pair.vector, ref.vector)
        assert pair.error_bound == ref.error_bound


@given(intervals, orders, meshes)
def test_rows_scale_exactly_with_the_span(interval, r, m):
    span = interval.span
    n_values = range(r, r + 4)
    for row, ref in zip(nwidth_rows(r, n_values, m, interval), nwidth_rows(r, n_values, m, UNIT)):
        assert row.flag == ref.flag
        assert abs(row.d_n / span**r - ref.d_n) <= 2 * math.ulp(ref.d_n)
        assert abs(row.dn_inv_r * span - ref.dn_inv_r) <= 2 * math.ulp(ref.dn_inv_r)


@given(intervals, orders, meshes, st.integers(2, 4))
def test_knots_map_affinely_from_the_unit_interval(interval, r, m, k):
    system, pairs = pairs_on(interval, r, m, k)
    unit_system, unit = pairs_on(UNIT, r, m, k)
    report = extract_knots(pairs[-1], system)
    ref = extract_knots(unit[-1], unit_system)
    mapped = (report.zeros - interval.a) / interval.span
    assert np.abs(mapped - ref.zeros).max() <= ref.refinement_tol


@given(st.floats(-3.0, 3.0), orders, meshes, st.integers(2, 4))
def test_knots_are_mirror_symmetric_on_a_centred_interval(exponent, r, m, k):
    c = 10.0**exponent
    interval = Interval(-c, c)
    system, pairs = pairs_on(interval, r, m, k)
    report = extract_knots(pairs[-1], system)
    assert report.zeros.size == k - 1
    assert np.abs(report.zeros + report.zeros[::-1]).max() <= report.refinement_tol
