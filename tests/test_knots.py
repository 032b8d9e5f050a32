import io
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
    extract_knots,
    top_eigenpairs,
)
from nwidth.knots import curve_csv

UNIT = Interval(0.0, 1.0)


def pairs_for(r, m, count, interval=UNIT):
    system = assemble(Kernel(r, interval), build_grid(interval, m))
    return system.grid, top_eigenpairs(system, count)


def synthetic_pair(index, samples):
    # error_bound 0.0: the samples are taken as exact and never refined
    return Eigenpair(index=index, value=1.0, vector=np.asarray(samples, dtype=float), error_bound=0.0)


def test_rank_one_has_no_zeros():
    for r in (1, 2, 3):
        grid, pairs = pairs_for(r, 120, 1)
        report = extract_knots(pairs[0], grid, r=r)
        assert report.zeros.size == 0
        assert report.eigen_rank == 1


def test_r1_rank2_zero_at_midpoint_between_nodes():
    # m even: 0.5 falls between grid nodes
    grid, pairs = pairs_for(1, 200, 2)
    report = extract_knots(pairs[1], grid, r=1)
    np.testing.assert_allclose(report.zeros, [0.5], atol=1e-9)


def test_r1_rank2_zero_exactly_on_a_node():
    # m odd: 0.5 is a grid node, exercising the vanishing-sample bracket
    grid, pairs = pairs_for(1, 201, 2)
    report = extract_knots(pairs[1], grid, r=1)
    np.testing.assert_allclose(report.zeros, [0.5], atol=1e-9)


def test_r1_zeros_match_uniform_partition():
    grid, pairs = pairs_for(1, 256, 5)
    for k in (2, 3, 4, 5):
        report = extract_knots(pairs[k - 1], grid, r=1)
        expected = np.array([j / k for j in range(1, k)])
        np.testing.assert_allclose(report.zeros, expected, atol=1e-8)


def test_zero_count_is_rank_minus_one():
    for r in (1, 2, 3):
        grid, pairs = pairs_for(r, 300, 6)
        for k in range(1, 7):
            report = extract_knots(pairs[k - 1], grid, r=r)
            assert report.zeros.size == k - 1
            assert np.all(report.zeros > grid.nodes[0])
            assert np.all(report.zeros < grid.nodes[-1])
            assert np.all(np.diff(report.zeros) > 0)


def test_zeros_symmetric_about_midpoint():
    iv = Interval(-1.0, 1.0)
    grid, pairs = pairs_for(2, 300, 4, interval=iv)
    report = extract_knots(pairs[3], grid, r=2)
    assert report.zeros.size == 3
    np.testing.assert_allclose(report.zeros, -report.zeros[::-1], atol=1e-8)


def test_mesh_halving_stability():
    zs = []
    for m in (200, 401):
        grid, pairs = pairs_for(3, m, 3)
        zs.append(extract_knots(pairs[2], grid, r=3).zeros)
    np.testing.assert_allclose(zs[0], zs[1], atol=1e-6)


def test_default_tolerance_scales_with_span():
    iv = Interval(-1.0, 1.0)
    grid, pairs = pairs_for(1, 64, 2, interval=iv)
    report = extract_knots(pairs[1], grid, r=1)
    assert report.refinement_tol == pytest.approx(2e-10, rel=1e-12)


def test_boundary_layer_samples_are_not_zeros():
    # at r=5 the eigenfunctions vanish to fifth order at the ends: node-1
    # samples of ranks 1-3 are 2.7e-14, 1.3e-13 and 4.1e-13, below 1e-12
    grid, pairs = pairs_for(5, 2047, 3)
    for k in (1, 2, 3):
        report = extract_knots(pairs[k - 1], grid, r=5)
        assert report.zeros.size == k - 1
        assert report.error_estimate <= report.refinement_tol
    np.testing.assert_allclose(extract_knots(pairs[1], grid, r=5).zeros, [0.5], atol=1e-9)


def test_synthetic_boundary_run_skipped():
    grid = build_grid(UNIT, 6)
    pair = synthetic_pair(2, [1e-13, -1e-13, 0.5, 1.0, -0.5, -1e-14])
    report = extract_knots(pair, grid, r=1)
    assert report.zeros.size == 1
    assert grid.nodes[4] < report.zeros[0] < grid.nodes[5]


def test_high_rank_zeros_refined_beyond_float64():
    # lambda_11/lambda_1 ~ 1e-13: the float64 samples are too noisy for the
    # sign pattern, so the pair is refined in double-double first
    iv = Interval(-1.0, 1.0)
    grid, pairs = pairs_for(12, 160, 11, interval=iv)
    assert pairs[10].error_bound > 1e-6
    report = extract_knots(pairs[10], grid, r=12)
    assert report.zeros.size == 10
    assert report.error_estimate <= report.refinement_tol
    np.testing.assert_allclose(report.zeros, -report.zeros[::-1], atol=1e-14)


def test_no_zero_returned_beyond_tolerance():
    grid, pairs = pairs_for(3, 200, 4)
    with pytest.raises(NumericalError, match="tolerance"):
        extract_knots(pairs[3], grid, tol=1e-19, r=3)


def test_consecutive_vanishing_samples_rejected():
    grid = build_grid(UNIT, 5)
    pair = synthetic_pair(2, [0.5, 1e-13, 1e-13, -0.5, -1.0])
    with pytest.raises(NumericalError):
        extract_knots(pair, grid, r=1)


def test_vanishing_sample_without_sign_change_rejected():
    grid = build_grid(UNIT, 5)
    pair = synthetic_pair(2, [0.5, 1.0, 1e-13, 0.5, 1.0])
    with pytest.raises(NumericalError):
        extract_knots(pair, grid, r=1)


def test_sign_change_count_mismatch_rejected():
    grid, pairs = pairs_for(1, 100, 3)
    wrong_rank = Eigenpair(index=5, value=pairs[2].value, vector=pairs[2].vector, error_bound=0.0)
    with pytest.raises(NumericalError, match="sign changes"):
        extract_knots(wrong_rank, grid, r=1)


def test_pair_of_another_order_rejected_when_refined():
    # r selects the double-double matrix: a pair of the r=12 kernel does
    # not pass for one of r=11, so no zeros of another kernel are returned
    iv = Interval(-1.0, 1.0)
    grid, pairs = pairs_for(12, 160, 11, interval=iv)
    with pytest.raises(NumericalError, match="not the rank-11 eigenpair of the r=11"):
        extract_knots(pairs[10], grid, r=11)


def test_colliding_zeros_rejected_for_huge_tolerance():
    grid, pairs = pairs_for(1, 100, 3)
    with pytest.raises(NumericalError):
        extract_knots(pairs[2], grid, tol=0.4, r=1)


def test_tolerance_must_be_positive():
    grid, pairs = pairs_for(1, 50, 1)
    with pytest.raises(ValidationError):
        extract_knots(pairs[0], grid, tol=0.0, r=1)


def test_curve_csv_single_node():
    grid, pairs = pairs_for(1, 1, 1)
    lines = curve_csv(pairs[0], grid).strip().split("\n")
    assert lines[0] == "x,phi"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(data, [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])


def test_curve_csv_r1_is_sine():
    grid, pairs = pairs_for(1, 255, 1)
    rows = np.loadtxt(io.StringIO(curve_csv(pairs[0], grid)), delimiter=",", skiprows=1)
    assert rows.shape == (257, 2)
    np.testing.assert_allclose(rows[:, 1], np.sin(math.pi * rows[:, 0]), atol=1e-4)
