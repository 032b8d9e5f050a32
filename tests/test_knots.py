import functools
import io
import itertools
import math

import numpy as np
import pytest

from nwidth import (
    Eigenpair,
    Interval,
    Kernel,
    NumericalError,
    ValidationError,
    assemble,
    build_grid,
    eigenfunction_values,
    extract_knots,
    knot_reports,
    top_eigenpairs,
)
from nwidth import knots
from nwidth.knots import curve_csv

from oracles import brackets_reference, brentq_cubic_root, brentq_refine, local_cubic

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property test skips itself
    given = None

UNIT = Interval(0.0, 1.0)
EPS = np.finfo(float).eps


def system_of(r, m, interval=UNIT):
    return assemble(Kernel(r, interval), build_grid(interval, m))


def pairs_for(r, m, count, interval=UNIT):
    system = system_of(r, m, interval)
    return system, top_eigenpairs(system, count)


def synthetic_pair(index, samples):
    # samples within 1e-12 of zero have no certain sign
    return Eigenpair(index=index, value=1.0, vector=np.asarray(samples, dtype=float), error_bound=1e-12)


def test_rank_one_has_no_zeros():
    for r in (1, 2, 3):
        system, pairs = pairs_for(r, 120, 1)
        report = extract_knots(pairs[0], system)
        assert report.zeros.size == 0
        assert report.eigen_rank == 1


def test_r1_rank2_zero_at_midpoint_between_nodes():
    # m even: 0.5 falls between grid nodes
    system, pairs = pairs_for(1, 200, 2)
    report = extract_knots(pairs[1], system)
    np.testing.assert_allclose(report.zeros, [0.5], atol=1e-9)


def test_r1_rank2_zero_exactly_on_a_node():
    # m odd: 0.5 is a grid node, exercising the vanishing-sample bracket
    system, pairs = pairs_for(1, 201, 2)
    report = extract_knots(pairs[1], system)
    np.testing.assert_allclose(report.zeros, [0.5], atol=1e-9)


def test_r1_zeros_match_uniform_partition():
    system, pairs = pairs_for(1, 256, 5)
    for k in (2, 3, 4, 5):
        report = extract_knots(pairs[k - 1], system)
        expected = np.array([j / k for j in range(1, k)])
        np.testing.assert_allclose(report.zeros, expected, atol=1e-8)


def test_zero_count_is_rank_minus_one():
    for r in (1, 2, 3):
        system, pairs = pairs_for(r, 300, 6)
        for k in range(1, 7):
            report = extract_knots(pairs[k - 1], system)
            assert report.zeros.size == k - 1
            assert np.all(report.zeros > system.grid.nodes[0])
            assert np.all(report.zeros < system.grid.nodes[-1])
            assert np.all(np.diff(report.zeros) > 0)


@pytest.mark.parametrize("m", [63, 255])
def test_zeros_of_adjacent_ranks_strictly_interlace(m):
    # the kernel is an oscillation kernel, so between two zeros of rank k+1
    # lies one zero of rank k (Gantmacher and Krein): 6 pairs of ranks per r,
    # separated by more than their estimated errors (smallest margin 0.018)
    for r in range(1, 9):
        system, pairs = pairs_for(r, m, 8)
        reports = knot_reports(pairs[1:], system)
        for lower, upper in zip(reports, reports[1:]):
            k = lower.eigen_rank
            merged = np.concatenate([upper.zeros, lower.zeros])
            order = np.argsort(merged, kind="stable")
            # upper's zeros (indices < k) and lower's alternate, upper's first and last
            assert np.array_equal(order < k, np.arange(2 * k - 1) % 2 == 0), (r, k)
            margin = np.diff(merged[order]).min()
            assert margin > lower.error_estimate + upper.error_estimate, (r, k)
            assert margin > 0.01, (r, k)


def test_zeros_symmetric_about_midpoint():
    iv = Interval(-1.0, 1.0)
    system, pairs = pairs_for(2, 300, 4, interval=iv)
    report = extract_knots(pairs[3], system)
    assert report.zeros.size == 3
    np.testing.assert_allclose(report.zeros, -report.zeros[::-1], atol=1e-8)


def test_mirror_symmetric_samples_give_mirror_symmetric_knots():
    # the pairs are mirror-symmetric to the bit, and the knot refinement keeps
    # that symmetry on [-c, c] to rounding
    for r in range(1, 7):
        for m in (31, 64, 127):
            _, pairs = pairs_for(r, m, 6)
            for c in (1e-3, 0.37, 1.0, 2.9, 61.0, 500.0):
                system = system_of(r, m, Interval(-c, c))
                for pair in pairs[1:]:
                    parity = (-1) ** (pair.index - 1)
                    assert np.array_equal(pair.vector, parity * pair.vector[::-1])
                    zeros = extract_knots(pair, system).zeros
                    assert np.abs(zeros + zeros[::-1]).max() <= 4 * EPS * 2 * c, (r, m, c, pair.index)


@functools.lru_cache(maxsize=1)
def polish_brackets():
    """(nodes, samples, ilo, ihi) of every zero of ranks 2..8, r = 1..6, m = 63, 255, 2047 on [0, 1]."""
    found = []
    for r in range(1, 7):
        for m in (63, 255, 2047):
            system, pairs = pairs_for(r, m, 8)
            for pair in pairs[1:]:
                vals = eigenfunction_values(pair, system.grid)
                brackets = knots._brackets(vals, m, pair.error_bound)
                assert len(brackets) == pair.index - 1, (r, m, pair.index)
                found += [(system.grid.nodes, vals, i, j) for i, j in brackets]
    return found


def test_local_cubic_matches_the_least_squares_fit():
    # the closed form against numpy's polyfit of the same 4 samples, in units
    # of their largest magnitude (largest difference measured: 4.2 eps)
    brackets = polish_brackets()
    assert len(brackets) == 504
    for nodes, vals, i, j in brackets:
        coeffs, uhi = local_cubic(nodes, vals, i, j)
        *closed, u = knots._local_cubic(nodes, vals, i, j)
        lo = min(max(i - 1, 0), len(nodes) - 4)
        scale = np.abs(vals[lo : lo + 4]).max()
        assert np.abs(np.array(closed) - coeffs).max() <= 8 * EPS * scale, (i, j)
        assert u == uhi


def test_polish_reaches_the_full_precision_zero_of_its_cubic():
    # in units of the mesh size, against brentq run to its finest stop
    # (largest difference measured: 1 eps)
    for nodes, vals, i, j in polish_brackets():
        *coeffs, uhi = knots._local_cubic(nodes, vals, i, j)
        u = knots._cubic_root(*coeffs, 0.0, uhi)
        assert abs(u - brentq_cubic_root(coeffs, uhi)) <= 4 * EPS, (i, j)
        assert knots._refine(nodes, vals, i, j) == nodes[i] + (nodes[1] - nodes[0]) * u


def test_polish_agrees_with_the_brentq_polish_within_the_tolerance():
    # the earlier polish stopped at the default tolerance (largest difference: 0.24 tol)
    tol = knots.DEFAULT_TOL_SCALE
    for nodes, vals, i, j in polish_brackets():
        assert abs(knots._refine(nodes, vals, i, j) - brentq_refine(nodes, vals, i, j, tol)) <= tol, (i, j)


def bracket_outcome(find, vals, m, threshold):
    """The brackets `find` returns, or the type and message of what it raises."""
    try:
        brackets = find(vals, m, threshold)
    except NumericalError as exc:
        return type(exc), str(exc)
    assert all(type(i) is int and type(j) is int for i, j in brackets)
    return brackets


def test_brackets_match_the_reference_scan_on_every_pattern():
    # each interior sample positive, negative, uncertain (within the threshold,
    # alternately +/- on it) or exactly zero; the end samples are the zero
    # boundary values the eigenfunction has
    threshold = 1e-12
    for m in range(1, 9):
        uncertain = np.where(np.arange(m + 2) % 2, -threshold, threshold)
        classes = np.stack([np.full(m + 2, 0.5), np.full(m + 2, -2.0), uncertain, np.zeros(m + 2)])
        patterns = np.zeros((4**m, m + 2), dtype=int)
        patterns[:, 1 : m + 1] = list(itertools.product(range(4), repeat=m))
        patterns[:, [0, m + 1]] = 3
        for vals in classes[patterns, np.arange(m + 2)]:
            expected = bracket_outcome(brackets_reference, vals, m, threshold)
            assert bracket_outcome(knots._brackets, vals, m, threshold) == expected, vals


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_brackets_match_the_reference_scan_on_random_samples():
    samples = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-3, -1e-3]))

    @given(st.lists(samples, min_size=1, max_size=60), st.sampled_from([1e-12, 1e-3, 0.5]))
    def check(inner, threshold):
        m = len(inner)
        vals = np.array([0.0, *inner, 0.0])
        expected = bracket_outcome(brackets_reference, vals, m, threshold)
        assert bracket_outcome(knots._brackets, vals, m, threshold) == expected

    check()


def test_polish_of_a_zero_exactly_on_a_node():
    nodes = np.linspace(0.0, 1.0, 9)
    vals = (nodes - 0.5) * (1.0 + nodes)
    assert vals[4] == 0.0
    assert knots._brackets(vals, 7, 1e-12) == [(3, 5)]
    gh = nodes[1] - nodes[0]
    assert abs(knots._refine(nodes, vals, 3, 5) - 0.5) <= 4 * EPS * gh


@pytest.mark.parametrize("root, hi", [(2.0**-60, 1.0), (1.0 - 2.0**-52, 1.0), (2.0 - 2.0**-51, 2.0)])
def test_polish_of_a_zero_at_a_bracket_end(root, hi):
    # (u - root)(u^2 + 1): its one real zero lies an ulp or 2^-60 inside the bracket [0, hi]
    u = knots._cubic_root(1.0, -root, 1.0, -root, 0.0, hi)
    assert abs(u - root) <= 4 * EPS * root


def test_polish_bisects_where_the_slope_vanishes():
    # u^2 (u - d) - e on [-1, 1]: the double zero at 0 is pushed off the real line,
    # so the slope vanishes at the midpoint where the search starts and is small
    # near the one real zero, which is exactly `root`
    d = 2.0**-10
    root = d + 2.0**-30
    e = root * root * (root - d)
    u = knots._cubic_root(1.0, -d, 0.0, -e, -1.0, 1.0)
    assert abs(u - root) <= 4 * EPS * root


def test_polish_without_a_sign_change_rejected():
    with pytest.raises(NumericalError, match="bracket lost"):
        knots._refine(np.linspace(0.0, 1.0, 9), 1.0 + np.linspace(0.0, 1.0, 9), 3, 4)
    # (u - 1)(u^2 + 1) vanishes exactly at the bracket end u = 1
    with pytest.raises(NumericalError, match="bracket lost"):
        knots._cubic_root(1.0, -1.0, 1.0, -1.0, 0.0, 1.0)


def test_mesh_halving_stability():
    zs = []
    for m in (200, 401):
        system, pairs = pairs_for(3, m, 3)
        zs.append(extract_knots(pairs[2], system).zeros)
    np.testing.assert_allclose(zs[0], zs[1], atol=1e-6)


def test_default_tolerance_scales_with_span():
    iv = Interval(-1.0, 1.0)
    system, pairs = pairs_for(1, 64, 2, interval=iv)
    report = extract_knots(pairs[1], system)
    assert report.refinement_tol == pytest.approx(2e-10, rel=1e-12)


def test_boundary_layer_samples_are_not_zeros():
    # at r=5 the eigenfunctions vanish to fifth order at the ends: node-1
    # samples of ranks 1-3 are 2.7e-14, 1.3e-13 and 4.1e-13, below 1e-12
    system, pairs = pairs_for(5, 2047, 3)
    for k in (1, 2, 3):
        report = extract_knots(pairs[k - 1], system)
        assert report.zeros.size == k - 1
        assert report.error_estimate <= report.refinement_tol
    np.testing.assert_allclose(extract_knots(pairs[1], system).zeros, [0.5], atol=1e-9)


def test_synthetic_boundary_run_skipped():
    system = system_of(1, 6)
    pair = synthetic_pair(2, [1e-13, -1e-13, 0.5, 1.0, -0.5, -1e-14])
    report = extract_knots(pair, system)
    assert report.zeros.size == 1
    assert system.grid.nodes[4] < report.zeros[0] < system.grid.nodes[5]


def test_high_rank_zeros_refined_beyond_float64():
    # lambda_11/lambda_1 ~ 1e-13: the float64 samples are too noisy for the
    # sign pattern, so the pair is refined in double-double first
    iv = Interval(-1.0, 1.0)
    system, pairs = pairs_for(12, 160, 11, interval=iv)
    assert pairs[10].error_bound > 1e-6
    (report,) = knot_reports([pairs[10]], system)
    assert report.zeros.size == 10
    assert report.error_estimate <= report.refinement_tol
    np.testing.assert_allclose(report.zeros, -report.zeros[::-1], atol=1e-14)


def test_no_zero_returned_beyond_tolerance():
    system, pairs = pairs_for(3, 200, 4)
    with pytest.raises(NumericalError, match="tolerance"):
        extract_knots(pairs[3], system, tol=1e-19)


def assert_unresolved(pair, system, message):
    # the samples fail on `message`; refining them then finds no such pair of the system
    with pytest.raises(NumericalError, match=message):
        knots._zeros(pair, system.grid, knots.DEFAULT_TOL_SCALE)
    with pytest.raises(NumericalError, match=f"is not the rank-{pair.index} eigenpair"):
        knot_reports([pair], system)


def test_consecutive_vanishing_samples_rejected():
    pair = synthetic_pair(2, [0.5, 1e-13, 1e-13, -0.5, -1.0])
    assert_unresolved(pair, system_of(1, 5), "consecutive interior samples")


def test_vanishing_sample_without_sign_change_rejected():
    pair = synthetic_pair(2, [0.5, 1.0, 1e-13, 0.5, 1.0])
    assert_unresolved(pair, system_of(1, 5), "without a sign change")


def test_sign_change_count_mismatch_rejected():
    system, pairs = pairs_for(1, 100, 3)
    wrong_rank = Eigenpair(index=5, value=pairs[2].value, vector=pairs[2].vector,
                           error_bound=pairs[2].error_bound)
    assert_unresolved(wrong_rank, system, "shows 2 sign changes, expected 4")


def test_pair_of_another_order_rejected_when_refined():
    # the system selects the double-double matrix: a pair of the r=12 kernel
    # does not pass for one of r=11, so no zeros of another kernel are returned
    iv = Interval(-1.0, 1.0)
    _, pairs = pairs_for(12, 160, 11, interval=iv)
    with pytest.raises(NumericalError, match="not the rank-11 eigenpair of the r=11"):
        knot_reports([pairs[10]], system_of(11, 160, iv))


def test_colliding_zeros_rejected_for_huge_tolerance():
    system, pairs = pairs_for(1, 100, 3)
    with pytest.raises(NumericalError):
        extract_knots(pairs[2], system, tol=0.4)


def test_tolerance_must_be_positive():
    # and finite: a nan tolerance would pass every check, an infinite one collide
    system, pairs = pairs_for(1, 50, 1)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            extract_knots(pairs[0], system, tol=tol)


def test_curve_csv_single_node():
    system, pairs = pairs_for(1, 1, 1)
    lines = curve_csv(pairs[0], system.grid).strip().split("\n")
    assert lines[0] == "x,phi"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(data, [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])


def test_curve_csv_r1_is_sine():
    system, pairs = pairs_for(1, 255, 1)
    rows = np.loadtxt(io.StringIO(curve_csv(pairs[0], system.grid)), delimiter=",", skiprows=1)
    assert rows.shape == (257, 2)
    np.testing.assert_allclose(rows[:, 1], np.sin(math.pi * rows[:, 0]), atol=1e-4)


def test_a_run_refines_on_one_operator(monkeypatch):
    # ranks 10 and 11 of r=12 both need refining: one operator, sized for rank 11
    from nwidth import extended

    built = []

    class Counted(extended.ExtendedSystem):
        def __init__(self, system, k_max):
            built.append(k_max)
            super().__init__(system, k_max)

    monkeypatch.setattr(extended, "ExtendedSystem", Counted)
    system, pairs = pairs_for(12, 160, 11, interval=Interval(-1.0, 1.0))
    reports = knot_reports(pairs[9:], system)
    assert built == [11]
    assert [report.zeros.size for report in reports] == [9, 10]
    # the same zeros as on an operator sized for each rank alone
    for pair, report in zip(pairs[9:], reports):
        alone = knot_reports([pair], system)[0]
        assert np.abs(report.zeros - alone.zeros).max() <= report.refinement_tol


def test_extract_knots_alone_never_refines(monkeypatch):
    # a pair that needs refining is unresolved on its own float64 samples
    from nwidth import extended

    def forbidden(*args):
        raise AssertionError("extract_knots built a double-double operator")

    monkeypatch.setattr(extended, "ExtendedSystem", forbidden)
    system, pairs = pairs_for(12, 160, 11, interval=Interval(-1.0, 1.0))
    with pytest.raises(NumericalError, match="exceeds the tolerance"):
        extract_knots(pairs[10], system)


@pytest.mark.xfail(strict=True, reason="error_estimate counts only the samples' error, "
                                       "not that of the local cubic the zero is polished on")
@pytest.mark.parametrize("r, k, m", [(5, 8, 127), (3, 6, 255)])
def test_printed_zeros_lie_within_their_estimate_of_the_converged_ones(r, k, m):
    # measured: 1.1e-7 from the m=2047 zeros with an estimate of 1.7e-11 at
    # r=5, k=8, m=127, and 4.0e-10 with 3.8e-13 at r=3, k=6, m=255; the m=2047
    # zeros lie within 1.3e-12 of the converged ones
    system, pairs = pairs_for(r, m, k)
    report = extract_knots(pairs[k - 1], system)
    fine, fine_pairs = pairs_for(r, 2047, k)
    reference = extract_knots(fine_pairs[k - 1], fine)
    miss = np.abs(report.zeros - reference.zeros).max()
    assert miss <= report.error_estimate + reference.error_estimate
