"""Best constants in L2 approximation on an interval.

Estimates the n-widths of the smoothness class H^r by discretizing the
Green's-function integral eigenproblem with the trapezoid rule on a
uniform grid, checks the proven bounds and the conjectured asymptotic
midpoint, measures empirical convergence orders, and extracts the
optimal spline knots as eigenfunction zeros.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless the caller
has set it: the solves are matrix-free and small, and an idle OpenBLAS
worker thread busy-waits after numpy loads, which on two cores cost a
canonical run as much CPU time as its work.  The setting acts only if
numpy is not imported yet; a value the caller sets is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before the first import of numpy

from .convergence import ConvergenceStudy, run_study
from .eigensolver import Eigenpair, eigenfunction_values, top_eigenpairs, top_eigenvalues
from .errors import NumericalError, NWidthError, ValidationError
from .kernel import Interval, Kernel, kernel_eval
from .knots import KnotReport, extract_knots, knot_reports
from .nwidths import (
    NWidthResult,
    conjecture_table,
    conjecture_value,
    dn_from_eigenvalue,
    nwidth_rows,
    proven_bounds,
)
from .nystrom import Grid, NystromSystem, assemble, build_grid

__version__ = "0.1.0"

__all__ = [
    "ConvergenceStudy",
    "Eigenpair",
    "Grid",
    "Interval",
    "Kernel",
    "KnotReport",
    "NWidthError",
    "NWidthResult",
    "NumericalError",
    "NystromSystem",
    "ValidationError",
    "assemble",
    "build_grid",
    "conjecture_table",
    "conjecture_value",
    "dn_from_eigenvalue",
    "eigenfunction_values",
    "extract_knots",
    "kernel_eval",
    "knot_reports",
    "nwidth_rows",
    "proven_bounds",
    "run_study",
    "top_eigenpairs",
    "top_eigenvalues",
]
