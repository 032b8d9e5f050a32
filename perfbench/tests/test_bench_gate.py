"""The correctness gate: accepts the reference commit's outputs, rejects moved values.

Run with `python3 -m pytest perfbench/tests` from the repository root.
The outputs come from real CLI runs of every workload on two seeds.
"""

import json
import math
import os

import pytest

import gate
import run
import workloads

SEEDS = (101, 202)

with open(os.path.join(run.HERE, "reference.json")) as _handle:
    REFERENCE = json.load(_handle)
UNIT = tuple(REFERENCE["interval"])


@pytest.fixture(scope="module", params=SEEDS)
def outputs(request):
    """{key: (rc, stdout)} for every invocation of every workload on the seed's interval."""
    a, b = workloads.draw_interval(request.param)
    calls = [call for name in workloads.WORKLOADS for call in workloads.invocations(name, a, b)]
    report, _ = run._run_worker([list(call.argv) for call in calls], False, False,
                                run._worker_env(False))
    return a, b, {call.key: (res["rc"], res["stdout"]) for call, res in zip(calls, report["calls"])}


def _check(key, rc, stdout, a, b):
    return gate.check(REFERENCE["entries"][key], UNIT, rc, stdout, a, b)


def test_gate_accepts_reference_outputs(outputs):
    a, b, results = outputs
    known = []
    for key, (rc, stdout) in results.items():
        verdict = _check(key, rc, stdout, a, b)
        assert verdict.status != "failed", (key, verdict.problems)
        if verdict.status == "known-defect":
            known.append(key)
        else:
            assert verdict.compared > 0, key
    assert set(known) <= {"knots-r5"}


def _replace_field(text, line_prefix, column, new_value):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(line_prefix):
            fields = line.split(",")
            fields[column] = new_value
            lines[i] = ",".join(fields)
            return "\n".join(lines)
    raise AssertionError(f"no line starts with {line_prefix!r}")


@pytest.mark.parametrize("r,n", [(2, 7), (12, 17), (20, 25)])
def test_gate_rejects_dn_moved_ten_tolerances(outputs, r, n):
    a, b, results = outputs
    rc, text = results["table"]
    rows = {(row["r"], row["n"]): row for row in gate.parse_rows(text)}
    lam_ratio = (rows[(r, r)]["d_n"] / rows[(r, n)]["d_n"]) ** 2
    tol = gate.C_EIG * gate.EPS * lam_ratio / 2 + gate.ROUND
    d_n = rows[(r, n)]["d_n"]
    for factor, status in ((1 + 0.1 * tol, "ok"), (1 + 10 * tol, "failed"), (1 - 10 * tol, "failed")):
        moved = _replace_field(text, f"{r},{n},", 3, repr(d_n * factor))
        assert _check("table", rc, moved, a, b).status == status, factor


def test_gate_rejects_flipped_flag(outputs):
    a, b, results = outputs
    rc, text = results["table"]
    flipped = _replace_field(text, "3,5,", 9, "precision-limited")
    verdict = _check("table", rc, flipped, a, b)
    assert verdict.status == "failed"
    assert any("flag" in problem for problem in verdict.problems)


@pytest.mark.parametrize("shift", [10.0, -10.0])
def test_gate_rejects_knot_moved_ten_tolerances(outputs, shift):
    a, b, results = outputs
    rc, text = results["knots-r3"]
    knots = gate.parse_knots(text)
    tol = gate.KNOT_TOL_SCALE * (b - a)
    near = _replace_field(text, "3,6,2,", 3, repr(knots[6][1] + 0.5 * math.copysign(tol, shift)))
    assert _check("knots-r3", rc, near, a, b).status == "ok"
    moved = _replace_field(text, "3,6,2,", 3, repr(knots[6][1] + shift * tol))
    assert _check("knots-r3", rc, moved, a, b).status == "failed"


def test_gate_rejects_unexpected_exit_and_garbage(outputs):
    a, b, results = outputs
    assert _check("knots-r2", 2, "", a, b).status == "failed"
    assert _check("convergence-r2", 0, "not,a\ncsv", a, b).status == "failed"


def test_fixed_known_defect_is_checked_structurally(outputs):
    a, b, _ = outputs
    span = b - a
    text = "r,k,index,zero\n" + "".join(
        f"5,{k},{i},{a + span * i / k!r}\n" for k in range(1, 9) for i in range(1, k))
    assert _check("knots-r5", 0, text, a, b).status == "ok"
    assert _check("knots-r5", 0, text.replace("5,8,7,", "5,8,9,"), a, b).status == "failed"


def test_null_reference_values_are_not_compared():
    entry = {"kind": "rows", "r": 1, "rows": [
        {"r": 1, "n": 1, "m": 7, "d_n": 0.3, "dn_inv_r": 3.3, "lower": 3.14, "upper": 3.14,
         "conjecture": 3.14, "rel_err": 0.05, "flag": ""},
        {"r": 1, "n": 2, "m": 7, "d_n": None, "dn_inv_r": None, "lower": 3.14, "upper": 6.28,
         "conjecture": 6.28, "rel_err": None, "flag": "nonpositive"}]}
    text = ("r,n,m,d_n,dn_inv_r,lower,upper,conjecture,rel_err,flag\n"
            "1,1,7,0.3,3.3,3.14,3.14,3.14,0.05,\n"
            "1,2,7,0.1,10.0,3.14,6.28,6.28,0.6,\n")
    verdict = gate.check(entry, UNIT, 0, text, *UNIT)
    assert verdict.status == "ok", verdict.problems
    assert verdict.skipped >= 4


@pytest.mark.parametrize("seed", SEEDS)
def test_scaling_laws_round_trip(seed):
    a, b = workloads.draw_interval(seed)
    for key, entry in REFERENCE["entries"].items():
        back = gate.scale_entry(gate.scale_entry(entry, UNIT, (a, b)), (a, b), UNIT)
        _assert_close(back, entry, key)


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-13 * max(abs(want), 1e-300) + 1e-15, where
    else:
        assert got == want, where


def test_scaling_moves_values_by_the_exact_laws():
    entry = REFERENCE["entries"]["convergence-r3"]
    scaled = gate.scale_entry(entry, UNIT, (-1.0, 1.0))
    assert scaled["points"][0][1] == pytest.approx(2 * entry["points"][0][1], rel=1e-15)
    assert scaled["points"][0][2] == pytest.approx(8 * entry["points"][0][2], rel=1e-15)
    assert scaled["summary"] == entry["summary"]
    row = REFERENCE["entries"]["table"]["rows"][40]
    moved = gate.scale_entry(REFERENCE["entries"]["table"], UNIT, (3.0, 5.0))["rows"][40]
    assert moved["d_n"] == pytest.approx(row["d_n"] * 2 ** row["r"], rel=1e-15)
    assert moved["conjecture"] == pytest.approx(row["conjecture"] / 2, rel=1e-15)
    assert moved["rel_err"] == row["rel_err"]
