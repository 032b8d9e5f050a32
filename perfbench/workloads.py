"""The benchmark's workloads: fixed lists of `nwidth` CLI invocations on a seeded interval.

The seed only draws the interval [a, b]; the amount of work (ranks, mesh
sizes, eigen counts) is the same for every seed.  Every invocation uses
CLI defaults that are meant to stay: no --threads, no --dump-matrix, no
--out.  Mesh sizes passed to `convergence` are the default dyadic ones
scaled by b - a, so that they fit the interval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: a is drawn uniformly from A_RANGE and b - a log-uniformly from SPAN_RANGE,
#: so almost every span is non-dyadic.  The extreme spans (1e-20, 1e20) are
#: robustness cases for the unit tests, not load.
A_RANGE = (-2.0, 2.0)
SPAN_RANGE = (0.35, 2.8)

#: conjecture-table runs at m=511 instead of the CLI default 2047: the full
#: r=1..20 table at m=2047 takes 40 to 70 s on two cores, too long to repeat in a run.
TABLE_M = 511
DEFAULT_M = 2047
KNOTS_R = range(1, 6)
KNOTS_K = 8
EIGENFUNCTIONS_R = 2
CONVERGENCE_R = range(1, 7)
H_EXPONENTS = range(3, 10)
H_REF_EXPONENT = 11

WORKLOADS = ("table", "knots-sweep", "convergence-sweep")


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `key` names the reference entry its output is checked against."""

    key: str
    argv: tuple[str, ...]
    r: tuple[int, ...]
    m: tuple[int, ...]
    eigen_count: int

    def record(self) -> dict:
        return {"key": self.key, "argv": list(self.argv), "r": list(self.r),
                "m": list(self.m), "eigen_count": self.eigen_count}


def draw_interval(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    a = rng.uniform(*A_RANGE)
    lo, hi = SPAN_RANGE
    span = lo * (hi / lo) ** rng.random()
    return a, a + span


def interval_arg(a: float, b: float) -> str:
    return f"--interval={a!r},{b!r}"


def invocations(workload: str, a: float, b: float) -> list[Invocation]:
    iv = interval_arg(a, b)
    if workload == "table":
        return [Invocation("table", ("conjecture-table", f"--m={TABLE_M}", iv),
                           tuple(range(1, 21)), (TABLE_M,), 6)]
    if workload == "knots-sweep":
        calls = [Invocation(f"knots-r{r}", ("knots", f"--r={r}", f"--k=1..{KNOTS_K}", iv),
                            (r,), (DEFAULT_M,), KNOTS_K) for r in KNOTS_R]
        r = EIGENFUNCTIONS_R
        calls.append(Invocation(f"eigenfunctions-r{r}",
                                ("eigenfunctions", f"--r={r}", f"--k=1..{KNOTS_K}", "--format=json", iv),
                                (r,), (DEFAULT_M,), KNOTS_K))
        return calls
    if workload == "convergence-sweep":
        span = b - a
        h_list = ",".join(repr(span * 2.0**-j) for j in H_EXPONENTS)
        meshes = tuple(2**j - 1 for j in H_EXPONENTS)
        calls = []
        for r in CONVERGENCE_R:
            if r == 1:
                ref, m = "analytic", meshes
            else:
                ref, m = repr(span * 2.0**-H_REF_EXPONENT), meshes + (2**H_REF_EXPONENT - 1,)
            calls.append(Invocation(f"convergence-r{r}",
                                    ("convergence", f"--r={r}", f"--h-list={h_list}", f"--h-ref={ref}", iv),
                                    (r,), m, 6))
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
