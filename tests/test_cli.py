import argparse
import csv
import errno
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from nwidth import Interval, Kernel, assemble, build_grid, eigensolver, nystrom
from nwidth._io import json_text
from nwidth.cli import DEFAULT_H_LIST, DEFAULT_H_REF, _build_parser, main, parse_args

from oracles import dense_top_eigenvalues

EPS = np.finfo(float).eps


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


def test_rejects_bad_inputs(capsys):
    for argv in (
        ["compute", "--r", "1", "--n", "abc"],
        ["compute", "--r", "1", "--n", "5..2"],
        ["compute", "--r", "1", "--n", "1", "--interval", "1,1"],
        ["compute", "--r", "1", "--n", "1", "--interval", "0;1"],
        ["compute", "--r", "1", "--n", "0"],
        ["compute", "--r", "25", "--n", "25"],
        ["knots", "--r", "1", "--k", "0"],
        ["convergence", "--r", "1", "--h-list", "0.1,nope"],
        ["convergence", "--r", "1", "--h-list", "nan"],
        ["convergence", "--r", "1", "--h-ref", "inf"],
        ["convergence", "--r", "1", "--h-list", "2^2000"],
        ["convergence", "--r", "1", "--h-list", "2^-2000"],
        ["knots", "--r", "1", "--k", "2", "--tol", "nan"],
        ["knots", "--r", "1", "--k", "2", "--tol", "inf"],
        ["compute", "--r", "1", "--n", "1", "--threads", "0"],
        ["compute", "--r", "1", "--n", "1", "--m", "0"],
        ["compute", "--r", "1", "--n", "1", "--interval", "a,b"],
        # b - a overflows float64
        ["compute", "--r", "1", "--n", "1", "--interval=-1e308,1e308"],
        ["compute", "--r", "1", "--n", "1", "--dump-matrix", "A.txt"],
        ["conjecture-table", "--r-max", "0"],
        ["conjecture-table", "--r-max", "21"],
        ["convergence", "--r", "1", "--h-list", ","],
        # the table runs over r = 1..r-max; --r is no abbreviation of --r-max
        ["conjecture-table", "--r", "7", "--r-max", "1", "--m", "63"],
    ):
        with pytest.raises(SystemExit) as err:
            parse(argv)
        assert err.value.code == 1
        assert "Warning" not in capsys.readouterr().err


def test_h_list_parsing():
    config = parse(["convergence", "--r", "1", "--n", "1", "--h-list", "2^-3,0.0625", "--h-ref", "analytic"])
    assert config.h_list == (0.125, 0.0625)
    assert config.h_ref is None


def _subcommand_parsers() -> dict:
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


#: the required arguments of each subcommand
REQUIRED = {"compute": ["--n", "1"], "conjecture-table": [], "convergence": [],
            "knots": ["--k", "1"], "eigenfunctions": ["--k", "1"]}


def test_every_long_option_but_help_takes_one_value():
    # the rule by which a value such as "-1,1" is merged into the flag before it
    parsers = _subcommand_parsers()
    assert set(parsers) == set(REQUIRED)
    for name, sub in parsers.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag == "--help":
                    assert action.nargs == 0
                elif flag.startswith("--"):
                    assert isinstance(action, argparse._StoreAction) and action.nargs is None, (name, flag)


@pytest.mark.parametrize("command", REQUIRED)
def test_a_negative_interval_is_merged_on_every_subcommand(command):
    # after the option's full name, and after an abbreviation where the subcommand takes them
    for flag in ("--interval",) if command == "conjecture-table" else ("--interval", "--int"):
        config = parse([command, *REQUIRED[command], flag, "-1,1"])
        assert (config.interval.a, config.interval.b) == (-1.0, 1.0)


@pytest.mark.parametrize("argv, message", [
    (["knots", "--r", "1", "--k", "2", "--tol", "-1"], "--tol must be positive and finite, got -1.0"),
    (["convergence", "--r", "1", "--h-ref", "-2^-3"], "cannot parse mesh size '-2^-3'"),
], ids=["tol", "h-ref"])
def test_a_negative_value_reaches_its_check(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        parse(argv)
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"nwidth: error: {message}"


@pytest.mark.parametrize("argv", [
    ["compute", "--r", "1", "--n", "1..1000000", "--m", "63"],
    ["knots", "--r", "1", "--k", "1..1000000", "--m", "63"],
    ["eigenfunctions", "--r", "1", "--k", "3,1..1000000", "--m", "63"],
    ["convergence", "--r", "1", "--n", "1..1000000", "--h-list", "2^-3,2^-4"],
], ids=lambda argv: argv[0])
def test_a_rank_beyond_the_mesh_is_rejected_before_its_range_is_expanded(argv, capsys):
    _build_parser()
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            parse(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 1
    assert peak < 2**20
    assert "must be <=" in capsys.readouterr().err


def test_a_range_is_not_expanded_when_the_coarsest_mesh_size_fits_no_mesh(capsys):
    _build_parser()
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            parse(["convergence", "--r", "1", "--n", "1..1000000", "--h-list", "0.9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 1
    assert peak < 2**20
    message = "h=0.9 is not (b-a)/(m+1) for any interior count m >= 1"
    assert capsys.readouterr().err.splitlines()[-1] == f"nwidth: error: {message}"


@pytest.mark.parametrize("argv, flag, ranks, message", [
    (["compute", "--r", "2", "--m", "63"], "--n", range(2, 65), "--n must be <= 64 (r-1+m), got 65"),
    (["knots", "--r", "2", "--m", "63"], "--k", range(63, 64), "--k must be <= 63 (m), got 64"),
    (["eigenfunctions", "--r", "2", "--m", "63"], "--k", range(1, 64), "--k must be <= 63 (m), got 64"),
    # the coarsest mesh, h = 2^-3, has m = 7
    (["convergence", "--r", "2", "--h-list", "2^-4,2^-3"], "--n", range(2, 9),
     "--n must be <= 8 (r-1+m, m of the coarsest mesh), got 9"),
], ids=["compute", "knots", "eigenfunctions", "convergence"])
def test_ranks_up_to_the_mesh_are_accepted_and_one_more_is_not(argv, flag, ranks, message, capsys):
    config = parse([*argv, flag, f"{ranks[0]}..{ranks[-1]}"])
    assert getattr(config, f"{flag[2:]}_values") == tuple(ranks)
    with pytest.raises(SystemExit) as err:
        parse([*argv, flag, f"{ranks[0]},{ranks[-1] + 1}"])
    assert err.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"nwidth: error: {message}"


def test_parser_is_built_once():
    first = parse(["compute", "--r", "2", "--n", "2"])
    second = parse(["knots", "--r", "3", "--k", "1..2"])
    assert _build_parser() is _build_parser()
    assert (first.command, first.n_values) == ("compute", (2,))
    assert (second.command, second.k_values) == ("knots", (1, 2))


def test_default_mesh_sizes_are_fractions_of_the_span(capsys):
    assert parse(["convergence", "--r", "3"]).h_list == DEFAULT_H_LIST
    config = parse(["convergence", "--r", "3", "--interval=-1.37,0.91"])
    span = 0.91 - -1.37
    assert config.h_list == tuple(span * h for h in DEFAULT_H_LIST)
    assert config.h_ref == span * DEFAULT_H_REF
    assert main(["convergence", "--r", "3", "--n", "3", "--interval=-1.37,0.91"]) == 0
    points = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
    assert [float(line.split(",")[2]) for line in points] == list(config.h_list)


def test_large_span_prints_finite_rows(capsys):
    # every interval is solved on the [0, 1] matrix: d_n = (b-a)^r * sqrt(lambda)
    # is finite wherever it fits float64, however large or small the span
    for argv, exponent in (
        (["--r", "20", "--n", "20..21", "--m", "127", "--interval", "0,1e8"], 129),
        (["--r", "20", "--n", "20..21", "--m", "127", "--interval", "0,1e15"], 269),
        # (b-a)^r = 1e320 alone is beyond float64, d_n is not
        (["--r", "20", "--n", "20..21", "--m", "127", "--interval", "0,1e16"], 289),
        (["--r", "3", "--n", "3..4", "--m", "63", "--interval", "0,1e-60"], -183),
    ):
        assert main(["compute", *argv]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 2
        assert all(math.isfinite(float(row["d_n"])) and row["flag"] == "" for row in rows)
        assert math.floor(math.log10(float(rows[0]["d_n"]))) == exponent


@pytest.mark.parametrize("interval", ["0,1e20", "0,1e-20"])
def test_span_beyond_float64_range_is_a_numerical_failure(interval, capsys):
    # r=20: d_n = (b-a)^20 * 8.9e-31 overflows for 1e20 and underflows for 1e-20
    argv = ["compute", "--r", "20", "--n", "20..21", "--m", "127", "--interval", interval]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err
    assert "beyond float64 range" in captured.err


def test_knots_on_a_large_span_map_the_unit_knots(capsys):
    # the eigenpairs are those of the [0, 1] matrix on any span: no overflow
    # warning, and the [0, 1] knot times 1e8 within the tolerance 1e-10 * (b-a)
    for interval in ("0,1", "0,1e8"):
        argv = ["knots", "--r", "20", "--k", "1..2", "--m", "127", "--interval", interval]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        zero = float(captured.out.splitlines()[1].split(",")[3])
        if interval == "0,1":
            unit = zero
    assert abs(zero / 1e8 - unit) <= 1e-10


def test_compute_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["compute", "--r", "1", "--n", "1..3", "--m", "63", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
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


def test_row_does_not_depend_on_the_n_range(capsys):
    rows = []
    for n in ("4", "4..9", "4..12"):
        assert main(["compute", "--r", "4", "--n", n]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1])
    assert rows[0] == rows[1] == rows[2]
    assert rows[0].startswith("4,4,2047,")
    # lambda_1 lies 3.3 eps lambda_1 from the dense oracle's
    assert rows[0].split(",")[4] == "7.81870734320594"


_IMPORT_PROBE = """
import contextlib, io, os, sys
from nwidth.cli import main
for argv in (
    ["compute", "--r=2", "--n=2..5", "--m=255"],
    ["compute", "--r=1", "--n=1..3", "--m=3"],
    ["conjecture-table", "--m=63"],
    ["convergence", "--r=2", "--h-list=2^-3,2^-4", "--h-ref=2^-6"],
    ["eigenfunctions", "--r=2", "--k=1..3", "--m=63"],
    ["knots", "--r=3", "--k=1..6"],
    ["knots", "--r=10", "--k=21..22", "--interval=-1,1", "--m=500"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("nwidth.extended" in sys.modules)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy" or name.startswith("numpy.random")))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def _probe(**env):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), **env)
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split("\n")[:3]


def test_cli_runs_import_neither_scipy_nor_numpy_random(monkeypatch):
    # scipy.sparse.linalg alone would add about 0.25 s and 25 MiB to every
    # start-up, numpy.random 14 ms and 6 MiB to the first solve
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    # the last argv refines its pairs in double-double, so that path ran too;
    # the package defaults to one BLAS thread
    assert _probe() == ["True", "[]", "1"]
    # a value the caller set is kept
    assert _probe(OPENBLAS_NUM_THREADS="2")[2] == "2"


@pytest.mark.parametrize("argv", [
    ["conjecture-table", "--m", "511", "--interval=-0.7313,1.2345"],
    ["knots", "--r", "5", "--k", "1..8", "--m", "511"],
], ids=lambda argv: argv[0])
def test_lanczos_runs_print_the_same_bytes_for_any_blas_thread_count(argv):
    # the determinism contract of the cli docstring; the dense branch (a large
    # share of the eigenvalues, as `compute --r 2 --n 2..400 --m 511`) is known
    # to differ between thread counts within its float64 accuracy, so it is not run here
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "nwidth", *argv], env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def _assert_rows_agree(csv_path, json_rows, count):
    csv_rows = list(csv.DictReader(csv_path.read_text().splitlines()))
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

    argv = ["eigenfunctions", "--r", "2", "--k", "1..3", "--m", "31"]
    assert main(argv + ["--out", str(tmp_path / "phi.csv")]) == 0
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "phi.json")]) == 0
    curves = json.loads((tmp_path / "phi.json").read_text())
    assert [curve["k"] for curve in curves] == [1, 2, 3]
    for curve in curves:
        rows = list(csv.DictReader((tmp_path / f"phi_k{curve['k']}.csv").read_text().splitlines()))
        assert [float(row["x"]) for row in rows] == curve["x"]
        assert [float(row["phi"]) for row in rows] == curve["phi"]


JSON_COMMANDS = {
    "compute": ["compute", "--r", "20", "--n", "20..82", "--m", "63"],  # with null values
    "conjecture-table": ["conjecture-table", "--r-max", "2", "--m", "31"],
    "convergence": ["convergence", "--r", "1", "--n", "1..2", "--h-list", "2^-3,2^-4", "--h-ref", "analytic"],
    "knots": ["knots", "--r", "2", "--k", "1..3", "--m", "63", "--interval=-0.3,1.1"],
    "eigenfunctions": ["eigenfunctions", "--r", "2", "--k", "1..2", "--m", "15"],
}


def _refuse(token):
    raise ValueError(f"invalid JSON token {token}")


@pytest.mark.parametrize("command", JSON_COMMANDS)
def test_json_is_one_line_and_the_out_file_holds_it(command, tmp_path, capsys):
    argv = JSON_COMMANDS[command] + ["--format", "json"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    json.loads(text, parse_constant=_refuse)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == text


@pytest.mark.parametrize("payload", [
    [], {}, [[]], 0.1, None, "text", [1.0, None, 2.5e-300],
    {"a": [1, {"b": None}], "c": [0.1, -0.0]},
    [{"k": 1, "x": [0.0, 1 / 3]}, {"k": 2, "x": []}],
])
def test_json_text_is_the_compact_encoding(payload):
    assert json_text(payload) == json.dumps(payload, separators=(",", ":")) + "\n"


def test_json_nonfinite_values_are_null(capsys):
    # ranks far beyond float64 resolution on [0, 1]: some eigenvalues come out
    # nonpositive, and those rows have NaN values, written as null
    argv = ["compute", "--r", "20", "--n", "20..82", "--m", "63", "--format", "json"]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    nonpositive = [row for row in rows if row["flag"] == "nonpositive"]
    assert nonpositive
    for row in nonpositive:
        assert row["d_n"] is None and row["dn_inv_r"] is None and row["rel_err"] is None


def counting_kernel_column(monkeypatch):
    """Calls of the m x m product, recorded by replacing it in `nwidth.nystrom`."""
    calls = []
    product = nystrom.kernel_column

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(nystrom, "kernel_column", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["knots", "--r", "3", "--k", "1..4", "--m", "127"],
    ["eigenfunctions", "--r", "3", "--k", "1..4", "--m", "127"],
    # an eigenvalue solve needs only the factors too
    ["compute", "--r", "2", "--n", "2..3", "--m", "31"],
], ids=lambda argv: argv[0])
def test_eigenpair_commands_form_no_matrix(argv, tmp_path, monkeypatch):
    calls = counting_kernel_column(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == []


@pytest.mark.parametrize("c", [0.37, 1.0, 2.9, 61.0])
def test_knots_on_a_symmetric_interval_are_mirror_symmetric(c, capsys):
    for r in range(1, 6):
        assert main(["knots", "--r", str(r), "--k", "1..8", f"--interval=-{c},{c}"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for k in range(2, 9):
            zeros = np.array([float(row[3]) for row in rows if int(row[1]) == k])
            assert len(zeros) == k - 1
            assert np.abs(zeros + zeros[::-1]).max() <= 4 * EPS * 2 * c, (r, k)


def test_knots_on_a_mesh_whose_matrix_does_not_fit_in_memory(capsys):
    # the m x m matrix of m = 65535 would take 32 GiB
    assert main(["knots", "--r", "3", "--k", "1..6", "--m", "65535"]) == 0
    zeros = [float(line.split(",")[3]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(zeros) == 15
    assert all(0 < z < 1 for z in zeros)


def test_out_of_memory_is_a_numerical_failure(monkeypatch, capsys):
    def fail(*args):
        raise MemoryError("Unable to allocate 32.0 GiB for an array with shape (65535, 65535)")

    monkeypatch.setattr(nystrom, "kernel_column", fail)
    # 38 eigenvalues of m = 63 (3 * 77 > 63) go to the dense solve, which forms the matrix
    argv = ["compute", "--r", "3", "--n", "3..40", "--m", "63"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "does not fit in memory" in err
    assert "Traceback" not in err


def test_full_spectrum_compute_matches_dense_oracle(capsys):
    # count == m is the one eigenvalue solve left on the dense path
    assert main(["compute", "--r", "1", "--n", "1..3", "--m", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    unit = Interval(0.0, 1.0)
    ref = dense_top_eigenvalues(assemble(Kernel(1, unit), build_grid(unit, 3)).matrix, 3)
    np.testing.assert_allclose([row["d_n"] for row in rows], np.sqrt(ref), rtol=64 * EPS, atol=0)


@pytest.mark.parametrize("failure", ["non-finite-product", "exhausted-budget"])
def test_solver_failure_is_a_numerical_failure(failure, monkeypatch, capsys):
    if failure == "non-finite-product":
        monkeypatch.setattr(nystrom.NystromSystem, "matvec", lambda self, x: np.full(len(x), np.nan))
    else:
        monkeypatch.setattr(eigensolver, "BUDGET_BASES", 0)
    for argv in (["compute", "--r", "2", "--n", "2..4", "--m", "63"],
                 ["knots", "--r", "2", "--k", "1..3", "--m", "63"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "iteration budget" in err
        assert "Traceback" not in err


def test_knots_csv(tmp_path):
    out = tmp_path / "knots.csv"
    code = main(["knots", "--r", "1", "--k", "3", "--m", "64", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
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
    points = list(csv.DictReader(out.read_text().splitlines()))
    assert len(points) == 8
    summary = list(csv.DictReader((tmp_path / "conv_summary.csv").read_text().splitlines()))
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
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 12
    assert [int(row["r"]) for row in rows] == [1] * 6 + [2] * 6


@pytest.mark.parametrize("argv, target, code", [
    (["compute", "--r", "1", "--n", "1", "--m", "15", "--out"], "missing/x.csv", errno.ENOENT),
    (["knots", "--r", "2", "--k", "1..2", "--m", "31", "--out"], "directory", errno.EISDIR),
], ids=["out-in-a-missing-directory", "out-is-a-directory"])
def test_an_unwritable_output_exits_1_with_one_line(argv, target, code, tmp_path, capsys):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"nwidth: error: cannot write {path}: {os.strerror(code)}\n"
    assert list(tmp_path.rglob(".nwidth-*")) == []


@pytest.mark.parametrize("directory", ["conv.csv", "conv_summary.csv"])
def test_an_out_of_several_files_that_cannot_be_written_replaces_none(directory, tmp_path, capsys):
    # every file is written to its temporary file before the first is renamed into place
    for name in ("conv.csv", "conv_summary.csv"):
        path = tmp_path / name
        path.mkdir() if name == directory else path.write_text("old\n")
    argv = ["convergence", "--r", "1", "--h-list", "2^-3,2^-4", "--h-ref", "analytic",
            "--out", str(tmp_path / "conv.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if not line.startswith("note: ")]
    assert errors == [f"nwidth: error: cannot write {tmp_path / directory}: {os.strerror(errno.EISDIR)}"]
    for name in ("conv.csv", "conv_summary.csv"):
        assert name == directory or (tmp_path / name).read_text() == "old\n"
    assert list(tmp_path.rglob(".nwidth-*")) == []


@pytest.mark.parametrize("argv, files", [
    (["convergence", "--r", "1", "--n", "1..2", "--h-list", "2^-3,2^-4", "--h-ref", "analytic"],
     ["t.csv", "t_summary.csv"]),
    (["eigenfunctions", "--r", "2", "--k", "1..3", "--m", "15"], ["t_k1.csv", "t_k2.csv", "t_k3.csv"]),
], ids=["convergence", "eigenfunctions"])
def test_stdout_holds_the_out_files_with_a_blank_line_between(argv, files, tmp_path, capsys):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == files
    assert text == "\n".join((tmp_path / name).read_text() for name in files)


def test_out_files_get_the_mode_open_gives_and_a_replaced_file_keeps_its_own(tmp_path):
    # not the 0o600 of the temporary file each is written to before the rename
    argv = ["convergence", "--r", "1", "--n", "1..2", "--h-list", "2^-3,2^-4", "--h-ref", "analytic",
            "--out", str(tmp_path / "t.csv")]

    def modes():
        return {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}

    umask = os.umask(0o022)
    try:
        assert main(argv) == 0
        assert modes() == {"t.csv": 0o644, "t_summary.csv": 0o644}
        (tmp_path / "t.csv").chmod(0o640)
        assert main(argv) == 0
        assert modes() == {"t.csv": 0o640, "t_summary.csv": 0o644}
    finally:
        os.umask(umask)


def test_a_mesh_size_beyond_float64_resolution_is_rejected(capsys):
    # (b-a)/h overflows, so no uniform mesh has this h
    argv = ["convergence", "--r", "1", "--interval", "0,1e300", "--h-list", "1e-300", "--h-ref", "1e-301"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    message = "h=1e-300 is not (b-a)/(m+1) for any interior count m >= 1"
    usage, _, error = capsys.readouterr().err.rpartition("nwidth: error: ")
    assert usage.startswith("usage: nwidth")
    assert error == f"{message}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "--r", "1", "--n", "1", "--m", str(2**62)],
    ["knots", "--r", "1", "--k", "1", "--m", str(2**62)],
    ["conjecture-table", "--r-max", "1", "--m", str(2**62)],
    ["compute", "--r", "1", "--n", "1", "--m", str(2**63)],
    ["compute", "--r", "1", "--n", "1", "--m", "99999999999999999999999"],
    # numpy refuses these nodes with a ValueError, though they are fewer than sys.maxsize / 8
    ["compute", "--r", "1", "--n", "1", "--m", str(2**60 - 3)],
    # the reference mesh has m = 2^60 - 1
    ["convergence", "--r", "1", "--n", "1", "--h-list", "2^-3", "--h-ref", "2^-60"],
], ids=["compute", "knots", "conjecture-table", "compute-2^63", "compute-1e23", "compute-near-the-limit",
        "convergence"])
def test_a_mesh_beyond_any_memory_exits_1_with_one_line(argv, capsys):
    _build_parser()
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("nwidth: error: m=") and err.endswith("fit no machine's memory\n")
    assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["compute", "--r", "1", "--n", "1", "--m", "15"],
    ["eigenfunctions", "--r", "2", "--k", "1..8", "--format", "json"],
], ids=lambda argv: argv[0])
def test_an_unwritable_standard_output_exits_1_with_one_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "nwidth", *argv], env=env, stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 1
    assert done.stderr == f"nwidth: error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
