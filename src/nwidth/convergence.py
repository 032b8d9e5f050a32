"""Mesh-refinement studies: empirical convergence orders of the n-width estimates.

Runs the pipeline over a list of mesh sizes, compares each d_n against a
finer reference run (or against the exact value when r=1), and fits the
log-log slope over the points that have not yet hit the float64 floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import csv_text
from .errors import NumericalError, ValidationError
from .eigensolver import top_eigenvalues
from .kernel import Interval, Kernel
from .nwidths import dn_from_eigenvalue
from .nystrom import assemble, build_grid

_EPS = float(np.finfo(np.float64).eps)
#: Errors below this multiple of d_n count as converged to reference precision.
PLATEAU_FLOOR = 1e3 * _EPS
#: Relative deviation from the fitted line above which the coarsest mesh is dropped.
PRE_ASYMPTOTIC_DEV = 0.25

POINTS_CSV_HEADER = "r,n,h,error"
SUMMARY_CSV_HEADER = "r,n,fitted_order,points_used"


@dataclass(frozen=True)
class ConvergenceStudy:
    r: int
    n_list: tuple[int, ...]
    h_list: tuple[float, ...]  # descending
    reference_h: float | None  # None: analytic r=1 reference
    d_ref: np.ndarray  # reference d_n per entry of n_list
    errors: np.ndarray  # len(n_list) x len(h_list)
    orders: np.ndarray  # fitted slope per n
    points_used: tuple[int, ...]
    notes: tuple[tuple[str, ...], ...]


def mesh_interior_count(h: float, interval: Interval) -> int:
    """The m with h == (b-a)/(m+1), rejecting h that fits no uniform mesh."""
    if h <= 0:
        raise ValidationError(f"mesh size must be positive, got {h}")
    ratio = interval.span / h
    segments = round(ratio) if ratio < math.inf else 0  # (b-a)/h overflows: no mesh fits
    if segments < 2 or abs(ratio - segments) > 1e-8 * segments:
        raise ValidationError(f"h={h} is not (b-a)/(m+1) for any interior count m >= 1")
    return segments - 1


def _fit_order(hs: np.ndarray, errs: np.ndarray, floor: float) -> tuple[float, int, list[str]]:
    notes: list[str] = []
    usable = errs > floor
    if not np.all(usable):
        notes.append("converged to reference precision at the finest meshes")
    points = int(usable.sum())
    if points < 2:
        notes.append("too few usable points for a fit")
        return math.nan, points, notes
    lh = np.log(hs[usable])
    le = np.log(errs[usable])
    slope, intercept = np.polyfit(lh, le, 1)
    if points >= 3:
        coarse = int(np.argmax(hs[usable]))
        predicted = math.exp(intercept + slope * lh[coarse])
        if abs(errs[usable][coarse] - predicted) / predicted > PRE_ASYMPTOTIC_DEV:
            keep = np.ones(points, dtype=bool)
            keep[coarse] = False
            slope, intercept = np.polyfit(lh[keep], le[keep], 1)
            points -= 1
            notes.append("dropped pre-asymptotic coarsest mesh")
    if points < 3:
        notes.append("order fitted on fewer than 3 points")
    return float(slope), points, notes


def run_study(
    r: int,
    n_list: Sequence[int],
    h_list: Sequence[float],
    h_ref: float | None = None,
    interval: Interval | None = None,
) -> ConvergenceStudy:
    """Errors |d_n(h) - d_n(h_ref)| over h_list and their fitted orders.

    With h_ref=None (allowed only for r=1) the exact value (b-a)/(n*pi)
    serves as the reference.
    """
    if interval is None:
        interval = Interval(0.0, 1.0)
    n_list = tuple(int(n) for n in n_list)
    if not n_list:
        raise ValidationError("need at least one n")
    if min(n_list) < r:
        raise ValidationError(f"every n must satisfy n >= r={r}, got {min(n_list)}")
    hs = tuple(sorted({float(h) for h in h_list}, reverse=True))
    if not hs:
        raise ValidationError("need at least one mesh size")
    if h_ref is None:
        if r != 1:
            raise ValidationError("an exact reference exists only for r=1; pass h_ref")
    elif not h_ref < min(hs):
        raise ValidationError(f"h_ref={h_ref} must be smaller than every h in h_list")

    count = max(n_list) + 1 - r
    kern = Kernel(r, interval)

    def d_values(h: float) -> np.ndarray:
        m = mesh_interior_count(h, interval)
        system = assemble(kern, build_grid(interval, m))
        lam = top_eigenvalues(system, count)
        if np.any(lam <= 0):
            raise NumericalError(f"nonpositive eigenvalue at h={h}; rank beyond float64 resolution")
        return np.array([dn_from_eigenvalue(v, r + k, r, interval) for k, v in enumerate(lam)])

    d_by_h = np.array([d_values(h) for h in hs])
    if h_ref is None:
        d_ref = np.array([interval.span / (n * math.pi) for n in n_list])
    else:
        ref = d_values(h_ref)
        d_ref = np.array([ref[n - r] for n in n_list])

    errors = np.empty((len(n_list), len(hs)))
    orders = np.empty(len(n_list))
    points_used = []
    notes = []
    for i, n in enumerate(n_list):
        errors[i] = np.abs(d_by_h[:, n - r] - d_ref[i])
        order, points, note = _fit_order(np.array(hs), errors[i], PLATEAU_FLOOR * d_ref[i])
        orders[i] = order
        points_used.append(points)
        notes.append(tuple(note))
    return ConvergenceStudy(
        r=r,
        n_list=n_list,
        h_list=hs,
        reference_h=h_ref,
        d_ref=d_ref,
        errors=errors,
        orders=orders,
        points_used=tuple(points_used),
        notes=tuple(notes),
    )


def point_rows(study: ConvergenceStudy) -> list[tuple]:
    return [
        (study.r, n, h, study.errors[i, j])
        for i, n in enumerate(study.n_list)
        for j, h in enumerate(study.h_list)
    ]


def summary_rows(study: ConvergenceStudy) -> list[tuple]:
    return [(study.r, n, study.orders[i], study.points_used[i]) for i, n in enumerate(study.n_list)]


def points_csv(study: ConvergenceStudy) -> str:
    return csv_text(POINTS_CSV_HEADER, point_rows(study))


def summary_csv(study: ConvergenceStudy) -> str:
    return csv_text(SUMMARY_CSV_HEADER, summary_rows(study))
