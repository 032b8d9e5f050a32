"""Floor-aware correctness gate for the `nwidth` CLI outputs.

References are computed once on [0, 1] (make_reference.py) and mapped to
the run's interval [a, b] by the problem's exact scaling laws, with
s = b - a: d_n and convergence errors scale by s^r, d_n^(-1/r), the
bounds and the conjecture by 1/s, mesh sizes by s, eigenvalues by
s^(2r); knots and nodes map affinely; eigenfunction samples, relative
errors and fitted orders do not change.

Each value is compared within its own float64 floor, not a blanket
tolerance: the last digits of an eigenvalue-derived number legitimately
move with the interval by about eps * lambda_1 / lambda_k.

- eigenvalue lambda_k: relative C_EIG * eps * lambda_1 / lambda_k
  (d_n = sqrt(lambda) gets half of that, d_n^(-1/r) a 2r-th of it);
- knot: the CLI's refinement tolerance 1e-10 * (b - a);
- eigenfunction sample (max-normalised): C_EIG * eps * (sqrt(m) + lambda_1 / gap_k),
  the solver's rounding of each component plus its gap-amplified part;
- convergence error: absolute, the floors of the two d_n it subtracts;
- fitted order and points used: only where the fit is stable, i.e. every
  point it used clears its floor and no point or decision lies within its
  floor of a threshold of the fit; the order's tolerance is what those
  floors allow the least-squares slope to move;
- flags must match unless the value is within its floor of the flag's
  threshold;
- a NaN or null in the reference is not compared.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

EPS = 2.0**-52
#: Eigenvalue floor factor: lambda_k is trusted to C_EIG * eps * lambda_1.
C_EIG = 64.0
#: Knots are refined to this fraction of b - a (the CLI's default --tol).
KNOT_TOL_SCALE = 1e-10
#: Rounding allowance for values given by closed formulas (bounds, nodes, mesh sizes).
ROUND = 8 * EPS
# Thresholds of the program's flags and fits, used to spot values at their floor.
PRECISION_FLOOR = 1e3 * EPS
TIE_REL = 1e-13
PLATEAU_FLOOR = 1e3 * EPS
PRE_ASYMPTOTIC_DEV = 0.25


@dataclass
class Verdict:
    status: str = "ok"  # ok | known-defect | failed
    compared: int = 0
    skipped: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, label: str, got, want, tol: float) -> None:
        """Compare got to want within absolute tol; a NaN or null want is skipped."""
        if want is None or (isinstance(want, float) and math.isnan(want)) or not tol < math.inf:
            self.skipped += 1
            return
        self.compared += 1
        if got is None or not abs(got - want) <= tol:
            self.fail(f"{label}: got {got!r}, want {want!r} +- {tol:.3g}")

    def equal(self, label: str, got, want) -> None:
        self.compared += 1
        if got != want:
            self.fail(f"{label}: got {got!r}, want {want!r}")

    def fail(self, problem: str) -> None:
        self.status = "failed"
        self.problems.append(problem)


# ---------------------------------------------------------------- parsing

def _num(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def parse_rows(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        row = {key: _num(rec[key]) for key in
               ("d_n", "dn_inv_r", "lower", "upper", "conjecture", "rel_err")}
        row.update(r=int(rec["r"]), n=int(rec["n"]), m=int(rec["m"]), flag=rec["flag"])
        rows.append(row)
    return rows


def parse_knots(text: str) -> dict[int, list[float]]:
    knots: dict[int, list[float]] = {}
    for rec in csv.DictReader(io.StringIO(text)):
        zeros = knots.setdefault(int(rec["k"]), [])
        if int(rec["index"]) != len(zeros) + 1:
            raise ValueError(f"knot indices out of order at k={rec['k']}")
        zeros.append(float(rec["zero"]))
    return knots


def parse_curves(text: str) -> list[dict]:
    return [{"k": c["k"], "x": c["x"], "phi": c["phi"]} for c in json.loads(text)]


def parse_convergence(text: str) -> dict:
    points_text, summary_text = text.split("\n\n")
    points = [[int(p["n"]), float(p["h"]), float(p["error"])]
              for p in csv.DictReader(io.StringIO(points_text))]
    summary = [[int(s["n"]), _num(s["fitted_order"]), int(s["points_used"])]
               for s in csv.DictReader(io.StringIO(summary_text))]
    return {"points": points, "summary": summary}


PARSERS = {"rows": parse_rows, "knots": parse_knots, "curves": parse_curves,
           "convergence": parse_convergence}


# ---------------------------------------------------------------- scaling laws

def _affine(x, src, dst):
    return None if x is None else dst[0] + (x - src[0]) * ((dst[1] - dst[0]) / (src[1] - src[0]))


def scale_entry(entry: dict, src: tuple[float, float], dst: tuple[float, float]) -> dict:
    """Map a reference entry computed on interval src to interval dst."""
    k = (dst[1] - dst[0]) / (src[1] - src[0])

    def times(x, factor):
        return None if x is None else x * factor

    out = dict(entry)
    if "lambdas" in entry:
        out["lambdas"] = [lam * k ** (2 * entry["r"]) for lam in entry["lambdas"]]
    kind = entry["kind"]
    if kind == "rows":
        out["rows"] = [dict(row, d_n=times(row["d_n"], k ** row["r"]),
                            **{key: times(row[key], 1 / k)
                               for key in ("dn_inv_r", "lower", "upper", "conjecture")})
                       for row in entry["rows"]]
    elif kind == "knots" and "knots" in entry:
        out["knots"] = {kk: [_affine(z, src, dst) for z in zs] for kk, zs in entry["knots"].items()}
    elif kind == "curves":
        out["curves"] = [dict(c, x=[_affine(x, src, dst) for x in c["x"]]) for c in entry["curves"]]
    elif kind == "convergence":
        kr = k ** entry["r"]
        out["d_ref"] = [d * kr for d in entry["d_ref"]]
        out["points"] = [[n, h * k, err * kr] for n, h, err in entry["points"]]
    return out


# ---------------------------------------------------------------- checks

def _check_rows(v: Verdict, want: dict, got: list[dict], a: float, b: float) -> None:
    got_by_key = {(row["r"], row["n"]): row for row in got}
    v.equal("row keys", sorted(got_by_key), sorted((w["r"], w["n"]) for w in want["rows"]))
    lam1 = {w["r"]: w["d_n"] ** 2 for w in want["rows"] if w["n"] == w["r"]}
    prev = {}
    for w in want["rows"]:
        r, n = w["r"], w["n"]
        g = got_by_key.get((r, n))
        if g is None:
            continue
        label = f"r={r} n={n}"
        v.equal(f"{label} m", g["m"], w["m"])
        for key in ("lower", "upper", "conjecture"):
            v.check(f"{label} {key}", g[key], w[key], ROUND * abs(w[key]))
        if w["d_n"] is None:
            v.skipped += 4
            continue
        lam = w["d_n"] ** 2
        lam_tol = C_EIG * EPS * lam1[r] / lam  # relative floor of lambda_k
        ok_digits = lam_tol < 1
        dn_tol = lam_tol / 2 + ROUND
        inv_tol = lam_tol / (2 * r) + ROUND
        v.check(f"{label} d_n", g["d_n"], w["d_n"], dn_tol * w["d_n"] if ok_digits else math.inf)
        v.check(f"{label} dn_inv_r", g["dn_inv_r"], w["dn_inv_r"],
                inv_tol * w["dn_inv_r"] if ok_digits else math.inf)
        v.check(f"{label} rel_err", g["rel_err"], w["rel_err"],
                inv_tol * (1 + w["rel_err"]) + ROUND if ok_digits else math.inf)
        q = lam / lam1[r]
        tie_at_floor = (r in prev and abs((prev[r] - lam) / prev[r] - TIE_REL)
                        <= 2 * C_EIG * EPS * lam1[r] / prev[r])
        prev[r] = lam
        at_threshold = not ok_digits or abs(q - PRECISION_FLOOR) <= lam_tol * q or tie_at_floor
        if at_threshold:
            v.skipped += 1
        else:
            v.equal(f"{label} flag", g["flag"], w["flag"])


def _check_knots(v: Verdict, want: dict, got: dict, a: float, b: float) -> None:
    tol = KNOT_TOL_SCALE * (b - a)
    v.equal("knot ranks", sorted(got), sorted(int(k) for k in want["knots"]))
    for k, zeros in want["knots"].items():
        g = got.get(int(k), [])
        v.equal(f"k={k} zero count", len(g), len(zeros))
        for i, (gz, wz) in enumerate(zip(g, zeros), start=1):
            v.check(f"k={k} zero {i}", gz, wz, tol)


def _check_knots_structure(v: Verdict, want: dict, got: dict, a: float, b: float) -> None:
    """No reference exists (the reference run failed): check what any answer must satisfy."""
    # rank 1 has no zeros, so it has no CSV rows
    v.equal("knot ranks", sorted(got), list(range(2, want["k_max"] + 1)))
    for k, zeros in got.items():
        v.equal(f"k={k} zero count", len(zeros), k - 1)
        v.equal(f"k={k} zeros increasing inside (a, b)",
                all(x < y for x, y in zip([a, *zeros], [*zeros, b])), True)


def _check_curves(v: Verdict, want: dict, got: list[dict], a: float, b: float) -> None:
    lams = want["lambdas"]
    x_tol = ROUND * (abs(a) + abs(b))
    v.equal("curve ranks", [c["k"] for c in got], [c["k"] for c in want["curves"]])
    for g, w in zip(got, want["curves"]):
        k = w["k"]
        gaps = [lams[k - 2] - lams[k - 1]] if k > 1 else []
        gaps.append(lams[k - 1] - lams[k])
        phi_tol = C_EIG * EPS * (math.sqrt(len(w["phi"]) - 2) + lams[0] / min(gaps))
        v.equal(f"k={k} samples", (len(g["x"]), len(g["phi"])), (len(w["x"]), len(w["phi"])))
        worst_x = max((abs(gx - wx) for gx, wx in zip(g["x"], w["x"])), default=0.0)
        worst_phi = max((abs(gp - wp) for gp, wp in zip(g["phi"], w["phi"])), default=0.0)
        v.check(f"k={k} nodes (max deviation)", worst_x, 0.0, x_tol)
        v.check(f"k={k} samples (max deviation)", worst_phi, 0.0, phi_tol)


def _line(xs: list[float], ys: list[float]) -> tuple[float, float, list[float]]:
    """Least-squares slope, intercept and the slope's weights on ys."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    weights = [(x - mx) / sxx for x in xs]
    slope = sum(w * (y - my) for w, y in zip(weights, ys))
    return slope, my - slope * mx, weights


def _stable_fit(points: list[tuple[float, float, float]], d_ref: float,
                points_used: int) -> float | None:
    """The order's tolerance if the reference fit of (h, error, floor) points is stable."""
    plateau = PLATEAU_FLOOR * d_ref
    if any(abs(e - plateau) <= t for _, e, t in points):
        return None
    usable = sorted(p for p in points if p[1] > plateau)
    if points_used not in (len(usable), len(usable) - 1) or any(e <= t for _, e, t in usable):
        return None
    # largest change of log(error) each point's floor allows
    dlog = [-math.log1p(-t / e) for _, e, t in usable]
    if len(usable) >= 3:
        # the fit drops the coarsest point when it deviates from the line by more than 0.25
        slope, icept, _ = _line([math.log(h) for h, _, _ in usable], [math.log(e) for _, e, _ in usable])
        h0, e0, _ = usable[-1]
        predicted = math.exp(icept + slope * math.log(h0))
        dev = abs(e0 - predicted) / predicted
        if abs(dev - PRE_ASYMPTOTIC_DEV) <= 4 * (1 + dev) * max(dlog):
            return None
    used = usable[:points_used]
    _, _, weights = _line([math.log(h) for h, _, _ in used], [0.0] * len(used))
    return sum(abs(w) * d for w, d in zip(weights, dlog))


def _check_convergence(v: Verdict, want: dict, got: dict, a: float, b: float) -> None:
    d_ref = dict(zip((n for n, _, _ in want["summary"]), want["d_ref"]))
    lam_ratio = {n: (want["d_ref"][0] / d) ** 2 for n, d in d_ref.items()}  # lambda_1 / lambda_k
    v.equal("point count", len(got["points"]), len(want["points"]))
    points = defaultdict(list)
    for (gn, gh, ge), (n, h, err) in zip(got["points"], want["points"]):
        v.equal("point n", gn, n)
        v.check(f"n={n} h", gh, h, ROUND * h)
        dn_floor = C_EIG * EPS * lam_ratio[n] / 2 + ROUND
        ref_floor = ROUND if want["analytic"] else dn_floor
        tol = dn_floor * (d_ref[n] + err) + ref_floor * d_ref[n] + ROUND * err
        v.check(f"n={n} h={h:.4g} error", ge, err, tol)
        points[n].append((h, err, tol))
    v.equal("summary n", [n for n, _, _ in got["summary"]], list(d_ref))
    for (_, g_order, g_used), (n, w_order, w_used) in zip(got["summary"], want["summary"]):
        order_tol = None if w_order is None else _stable_fit(points[n], d_ref[n], w_used)
        if order_tol is None:
            v.skipped += 2
            continue
        v.equal(f"n={n} points_used", g_used, w_used)
        v.check(f"n={n} fitted_order", g_order, w_order, order_tol + ROUND * abs(w_order))


CHECKS = {"rows": _check_rows, "knots": _check_knots, "curves": _check_curves,
          "convergence": _check_convergence}


def check(entry: dict, src: tuple[float, float], rc, stdout: str, a: float, b: float) -> Verdict:
    """Check one invocation's exit code and output against its reference entry on src."""
    v = Verdict()
    want = scale_entry(entry, src, (a, b))
    expected_rc = want.get("exit", 0)
    if rc != 0:
        if rc == expected_rc:
            v.status = "known-defect"
        else:
            v.fail(f"exit code {rc!r}, reference exits {expected_rc}")
        return v
    try:
        got = PARSERS[want["kind"]](stdout)
    except (ValueError, KeyError, TypeError) as exc:
        v.fail(f"unparsable output: {exc!r}")
        return v
    if expected_rc != 0:
        _check_knots_structure(v, want, got, a, b)
    else:
        CHECKS[want["kind"]](v, want, got, a, b)
    return v
