import csv
import json
import math

import numpy as np
import pytest

from nwidth.cli import main, parse_args

from oracles import kernel_r1


def parse(argv):
    return parse_args(argv)


def test_compute_defaults():
    config = parse(["compute", "--r", "2", "--n", "2..8"])
    assert config.command == "compute"
    assert config.r == 2
    assert config.n_values == tuple(range(2, 9))
    assert config.m == 2047
    assert (config.interval.a, config.interval.b) == (0.0, 1.0)
    assert config.fmt == "csv"
    assert config.out is None


def test_knots_with_negative_interval_token():
    config = parse(["knots", "--r", "3", "--k", "4", "--m", "500", "--interval", "-1,1"])
    assert config.command == "knots"
    assert config.k_values == (4,)
    assert config.m == 500
    assert (config.interval.a, config.interval.b) == (-1.0, 1.0)


def test_rejects_r_zero():
    with pytest.raises(SystemExit) as err:
        parse(["compute", "--r", "0", "--n", "1"])
    assert err.value.code == 1


def test_rejects_unknown_flag():
    with pytest.raises(SystemExit) as err:
        parse(["compute", "--r", "1", "--n", "1", "--frobnicate"])
    assert err.value.code == 1


def test_rejects_bad_inputs():
    for argv in (
        ["compute", "--r", "1", "--n", "abc"],
        ["compute", "--r", "1", "--n", "5..2"],
        ["compute", "--r", "1", "--n", "1", "--interval", "1,1"],
        ["compute", "--r", "1", "--n", "1", "--interval", "0;1"],
        ["compute", "--r", "1", "--n", "0"],
        ["compute", "--r", "25", "--n", "25"],
        ["knots", "--r", "1", "--k", "0"],
        ["convergence", "--r", "1", "--h-list", "0.1,nope"],
        ["compute", "--r", "1", "--n", "1", "--threads", "0"],
    ):
        with pytest.raises(SystemExit) as err:
            parse(argv)
        assert err.value.code == 1


def test_h_list_parsing():
    config = parse(["convergence", "--r", "1", "--n", "1", "--h-list", "2^-3,0.0625", "--h-ref", "analytic"])
    assert config.h_list == (0.125, 0.0625)
    assert config.h_ref is None


def test_compute_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["compute", "--r", "1", "--n", "1..3", "--m", "63", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    assert abs(float(rows[0]["d_n"]) - 1.0 / math.pi) / (1.0 / math.pi) < 1e-3
    assert float(rows[0]["lower"]) == pytest.approx(math.pi, rel=1e-15)
    assert rows[0]["flag"] == ""


def test_compute_stdout(capsys):
    code = main(["compute", "--r", "1", "--n", "1", "--m", "15"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("r,n,m,")
    assert len(lines) == 2


def test_identical_runs_are_bit_identical(tmp_path):
    args = ["compute", "--r", "2", "--n", "2..4", "--m", "63"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _assert_rows_agree(csv_path, json_rows, count):
    csv_rows = list(csv.DictReader(csv_path.open()))
    assert len(csv_rows) == len(json_rows) == count
    for c, j in zip(csv_rows, json_rows):
        assert list(c) == list(j)
        for key, text in c.items():
            if isinstance(j[key], str):
                assert text == j[key]
            elif j[key] is None:
                assert math.isnan(float(text))
            else:
                assert float(text) == j[key]


def test_json_and_csv_agree(tmp_path):
    products = {
        "rows": (["compute", "--r", "2", "--n", "2..3", "--m", "31"], 2),
        "knots": (["knots", "--r", "2", "--k", "1..3", "--m", "63"], 3),
        "conv": (["convergence", "--r", "2", "--n", "2..3",
                  "--h-list", "2^-3,2^-4,2^-5", "--h-ref", "2^-7"], 6),
    }
    views = {}
    for stem, (argv, count) in products.items():
        csv_path, json_path = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.json"
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
        views[stem] = csv_path, json.loads(json_path.read_text()), count
    for stem in ("rows", "knots"):
        _assert_rows_agree(*views[stem])
    csv_path, payload, count = views["conv"]
    _assert_rows_agree(csv_path, payload["points"], count)
    _assert_rows_agree(tmp_path / "conv_summary.csv", payload["summary"], 2)


def test_json_nonfinite_values_are_null(capsys):
    # on a span of 1e-60 every eigenvalue underflows: the rows are nonpositive, d_n is NaN
    argv = ["compute", "--r", "3", "--n", "3..4", "--m", "63", "--interval", "0,1e-60", "--format", "json"]
    assert main(argv) == 0

    def refuse(token):
        raise ValueError(f"invalid JSON token {token}")

    rows = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert [row["d_n"] for row in rows] == [None, None]
    assert [row["flag"] for row in rows] == ["nonpositive", "nonpositive"]


def test_dump_matrix(tmp_path):
    out = tmp_path / "rows.csv"
    dump = tmp_path / "matrix.txt"
    code = main(
        ["compute", "--r", "1", "--n", "1", "--m", "5", "--out", str(out), "--dump-matrix", str(dump)]
    )
    assert code == 0
    A = np.loadtxt(dump)
    assert A.shape == (5, 5)
    h = 1.0 / 6.0
    expected = h * kernel_r1(0.0, 1.0, 2 * h, 3 * h)
    assert A[1, 2] == expected


def test_knots_csv(tmp_path):
    out = tmp_path / "knots.csv"
    code = main(["knots", "--r", "1", "--k", "3", "--m", "64", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2
    zeros = [float(row["zero"]) for row in rows]
    np.testing.assert_allclose(zeros, [1 / 3, 2 / 3], atol=1e-6)
    assert [row["index"] for row in rows] == ["1", "2"]


def test_knots_numerical_failure_exit_code(tmp_path, capsys):
    # lambda_15/lambda_1 ~ 2e-15 for r=20: below the float64 floor, and its gap
    # to the neighbouring eigenvalues is within rounding, so no refinement helps
    out = tmp_path / "knots.csv"
    code = main(
        ["knots", "--r", "20", "--k", "15", "--m", "240", "--interval", "-1,1", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "float64 precision" in err
    assert not out.exists()


def test_eigenfunctions_single(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["eigenfunctions", "--r", "1", "--k", "1", "--m", "31", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (33, 2)
    assert data[0, 1] == 0.0 and data[-1, 1] == 0.0
    assert np.abs(data[:, 1]).max() == 1.0


def test_eigenfunctions_multiple_files(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["eigenfunctions", "--r", "2", "--k", "1..3", "--m", "31", "--out", str(out)])
    assert code == 0
    for k in (1, 2, 3):
        assert (tmp_path / f"phi_k{k}.csv").exists()


def test_convergence_files(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(
        [
            "convergence", "--r", "1", "--n", "1..2",
            "--h-list", "2^-3,2^-4,2^-5,2^-6", "--h-ref", "analytic",
            "--out", str(out),
        ]
    )
    assert code == 0
    points = list(csv.DictReader(out.open()))
    assert len(points) == 8
    summary = list(csv.DictReader((tmp_path / "conv_summary.csv").open()))
    assert len(summary) == 2
    for row in summary:
        assert abs(float(row["fitted_order"]) - 2.0) < 0.2
        assert row["points_used"] == "4"


def test_convergence_json(tmp_path):
    out = tmp_path / "conv.json"
    code = main(
        [
            "convergence", "--r", "1", "--n", "1",
            "--h-list", "2^-3,2^-4,2^-5", "--h-ref", "analytic",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert {p["h"] for p in payload["points"]} == {0.125, 0.0625, 0.03125}
    assert payload["summary"][0]["points_used"] == 3


def test_conjecture_table_cli(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["conjecture-table", "--r-max", "2", "--m", "63", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 12
    assert [int(row["r"]) for row in rows] == [1] * 6 + [2] * 6
